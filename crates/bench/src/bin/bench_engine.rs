//! Engine throughput benchmark: times a full-corpus RustBrain sweep at 1
//! worker and at N workers on a *pre-warmed* shared oracle cache (so the
//! series isolates parallelism from caching), checks the result streams
//! are byte-identical, and writes the numbers to
//! `BENCH_engine.json` — the engine's perf trajectory across PRs. Since
//! PR 3 the file also carries per-UbClass throughput and the
//! executed-vs-cached oracle split (the whole stack judges through the
//! shared cache now, so the split is the honest measure of how much
//! interpreter work the cache actually saves). Since PR 4 it also
//! carries a warm-vs-cold knowledge comparison: the cold sweep's learned
//! base is saved to an `.rbkb` file, reloaded, and the sweep rerun warm
//! — reporting repair-rate and kb-query-cost deltas plus the entry count
//! before/after the merge policy's coalescing (versus the unbounded
//! append-only alternative).
//!
//! Since PR 7 the file flags `speedup_degraded` when the requested
//! worker count exceeds the machine's cores (the speedup number is then
//! a fact about the host, not the engine — CI skips its speedup gate
//! on that flag).
//!
//! `--repeat N` amplifies the corpus (N clones of the 42 templates with
//! varied case ids/sizes) so the signal beats wall-clock noise.
//!
//! The speedup is the median of [`TRIALS`] interleaved serial/parallel
//! sweep pairs, reported with the min–max of the per-pair ratios: one
//! pair's ratio ranged 0.75–2.39 across repeated runs of the same build
//! on a shared 2-vCPU host. The serial/parallel stats and per-class rows
//! come from the median pair.
//!
//! ```text
//! USAGE: bench_engine [--jobs N] [--per-class N] [--repeat N]
//!                     [--out PATH]
//! ```

use rb_bench::overall_rates;
use rb_dataset::Corpus;
use rb_engine::{BatchOutcome, Engine, OracleCache, SystemSpec};
use rb_llm::ModelId;
use rb_miri::UbClass;
use rb_obs::json::{fmt_num, fmt_str};
use rustbrain::{KnowledgeBase, MergePolicy, RustBrainConfig};
use std::process::ExitCode;
use std::sync::Arc;

/// Interleaved serial/parallel sweep pairs behind the reported speedup
/// (odd, so the median is one pair's ratio).
const TRIALS: usize = 5;

/// One serial sweep and the parallel sweep timed right after it.
struct Trial {
    serial: BatchOutcome,
    parallel: BatchOutcome,
    speedup: f64,
}

struct Args {
    jobs: usize,
    per_class: usize,
    repeat: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: std::thread::available_parallelism().map_or(4, usize::from),
        per_class: 3,
        repeat: 1,
        out: "BENCH_engine.json".to_owned(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--jobs" => {
                args.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs")?;
            }
            "--per-class" => {
                args.per_class = value("--per-class")?
                    .parse()
                    .map_err(|_| "bad --per-class")?;
            }
            "--repeat" => {
                args.repeat = value("--repeat")?.parse().map_err(|_| "bad --repeat")?;
            }
            "--out" => args.out = value("--out")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.jobs == 0 || args.per_class == 0 || args.repeat == 0 {
        return Err("--jobs, --per-class and --repeat must be positive".into());
    }
    Ok(args)
}

fn sweep(
    workers: usize,
    cache: &Arc<OracleCache>,
    spec: &SystemSpec,
    corpus: &Corpus,
) -> BatchOutcome {
    Engine::with_cache(workers, Arc::clone(cache)).run_batch(spec, &corpus.cases, corpus.seed)
}

/// Per-UbClass rows of the parallel sweep: case count, pass/exec rates,
/// real wall time spent on the class across all workers (and the derived
/// per-class throughput), and the class's executed-vs-cached oracle
/// split. Rows appear in first-encounter (submission) order.
fn class_rows_json(outcome: &BatchOutcome) -> String {
    let mut classes: Vec<UbClass> = Vec::new();
    for r in &outcome.results {
        if !classes.contains(&r.class) {
            classes.push(r.class);
        }
    }
    let rows: Vec<String> = classes
        .iter()
        .map(|&class| {
            let mut cases = 0usize;
            let mut passed = 0usize;
            let mut acceptable = 0usize;
            let mut wall_ms = 0.0f64;
            let mut executed = 0usize;
            let mut cached = 0usize;
            for j in &outcome.jobs {
                if j.result.class != class {
                    continue;
                }
                cases += 1;
                passed += usize::from(j.result.passed);
                acceptable += usize::from(j.result.acceptable);
                wall_ms += j.wall_ms;
                executed += j.oracle_use.executed;
                cached += j.oracle_use.cached;
            }
            let cases_per_sec = if wall_ms > 0.0 {
                cases as f64 / (wall_ms / 1e3)
            } else {
                0.0
            };
            format!(
                concat!(
                    "{{\"class\":{},\"cases\":{},\"passed\":{},",
                    "\"acceptable\":{},\"wall_ms\":{},",
                    "\"cases_per_sec\":{},",
                    "\"oracle\":{{\"executed\":{},\"cached\":{}}}}}"
                ),
                fmt_str(class.label()),
                cases,
                passed,
                acceptable,
                fmt_num(wall_ms),
                fmt_num(cases_per_sec),
                executed,
                cached,
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n  "))
}

/// The warm-vs-cold knowledge comparison: saves the cold sweep's learned
/// base through a real `.rbkb` file, reruns the sweep warm from the
/// reloaded store, and runs the append-only alternative to quantify what
/// coalescing bounds. Returns the JSON section and a console summary.
fn warm_start_json(
    jobs: usize,
    cache: &Arc<OracleCache>,
    spec: &SystemSpec,
    corpus: &Corpus,
    cold: &BatchOutcome,
) -> (String, String) {
    // Chained through the sharded production layout: the save reports
    // per-class segmentation and the reload proves the round trip.
    let kb_path = std::env::temp_dir().join(format!("bench_engine_{}.rbkb.d", std::process::id()));
    let save = cold
        .knowledge
        .save_reported(&kb_path)
        .expect("saving the cold knowledge store");
    let snapshot = KnowledgeBase::load(&kb_path).expect("reloading the knowledge store");
    let _ = std::fs::remove_dir_all(&kb_path);

    let warm = Engine::with_cache(jobs, Arc::clone(cache)).run_batch_learned(
        spec,
        &corpus.cases,
        corpus.seed,
        &snapshot,
    );
    // The unbounded alternative the merge policy replaces: blind append.
    let append = Engine::with_cache(jobs, Arc::clone(cache))
        .with_merge_policy(MergePolicy::append_only())
        .run_batch_learned(spec, &corpus.cases, corpus.seed, &snapshot);

    let run_json = |o: &BatchOutcome| {
        let (pass, exec) = overall_rates(&o.results);
        format!(
            concat!(
                "{{\"pass_rate\":{},\"exec_rate\":{},",
                "\"simulated_overhead_ms\":{},\"kb_query_ms\":{}}}"
            ),
            fmt_num(pass.value()),
            fmt_num(exec.value()),
            fmt_num(o.stats.simulated_overhead_ms),
            fmt_num(o.stats.kb_query_ms),
        )
    };
    let (cold_pass, cold_exec) = overall_rates(&cold.results);
    let (warm_pass, warm_exec) = overall_rates(&warm.results);
    let json = format!(
        concat!(
            "{{\"cold\":{},\n   \"warm\":{},\n   ",
            "\"delta\":{{\"pass_rate\":{},\"exec_rate\":{},",
            "\"simulated_overhead_ms\":{},\"kb_query_ms\":{}}},\n   ",
            "\"kb_entries\":{{\"seeded\":{},\"before_coalescing\":{},",
            "\"after_coalescing\":{},\"append_only_final\":{},\"store_shards\":{}}}}}"
        ),
        run_json(cold),
        run_json(&warm),
        fmt_num(warm_pass.value() - cold_pass.value()),
        fmt_num(warm_exec.value() - cold_exec.value()),
        fmt_num(warm.stats.simulated_overhead_ms - cold.stats.simulated_overhead_ms),
        fmt_num(warm.stats.kb_query_ms - cold.stats.kb_query_ms),
        warm.stats.kb.seeded_entries,
        warm.stats.kb.seeded_entries + warm.stats.kb.merged_inserts,
        warm.stats.kb.final_entries,
        append.stats.kb.final_entries,
        save.shards_written + save.shards_skipped,
    );
    let summary = format!(
        "warm start: exec rate {:.1}% -> {:.1}% | overhead {:.0} -> {:.0} ms | kb entries {} coalesced to {} (append-only would hold {})",
        cold_exec.percent(),
        warm_exec.percent(),
        cold.stats.simulated_overhead_ms,
        warm.stats.simulated_overhead_ms,
        warm.stats.kb.seeded_entries + warm.stats.kb.merged_inserts,
        warm.stats.kb.final_entries,
        append.stats.kb.final_entries,
    );
    (json, summary)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // --repeat amplifies the corpus: the generator cycles each class's
    // template families with seed-derived size/id variation, so N
    // repeats yield N× structurally distinct cases per class.
    let corpus = Corpus::generate_full(42, args.per_class * args.repeat);
    let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 0));
    let cache = Arc::new(OracleCache::new());

    // Warm-up sweep (untimed): populates the oracle cache so all timed
    // sweeps run under identical, fully-warm cache conditions.
    let warmup = sweep(args.jobs, &cache, &spec, &corpus);
    // Serial and parallel sweeps alternate, so a slow phase of a shared
    // host lands on both sides of a pair instead of on one series.
    let mut trials: Vec<Trial> = (0..TRIALS)
        .map(|_| {
            let serial = sweep(1, &cache, &spec, &corpus);
            let parallel = sweep(args.jobs, &cache, &spec, &corpus);
            let speedup = if parallel.stats.wall_ms > 0.0 {
                serial.stats.wall_ms / parallel.stats.wall_ms
            } else {
                0.0
            };
            Trial {
                serial,
                parallel,
                speedup,
            }
        })
        .collect();
    let identical = trials
        .iter()
        .all(|t| t.serial.results == warmup.results && t.parallel.results == warmup.results);
    trials.sort_by(|a, b| a.speedup.total_cmp(&b.speedup));
    let speedup_min = trials[0].speedup;
    let speedup_max = trials[TRIALS - 1].speedup;
    let Trial {
        serial,
        parallel,
        speedup,
    } = trials.swap_remove(TRIALS / 2);
    drop(trials);

    // An honest speedup needs a core per worker: oversubscribed runs
    // time-slice, and the ratio stops measuring the engine.
    let speedup_degraded = args.jobs > cores;
    let cache_stats = cache.stats();
    let (pass, exec) = overall_rates(&parallel.results);
    let (warm_json, warm_summary) = warm_start_json(args.jobs, &cache, &spec, &corpus, &parallel);

    let json = format!(
        concat!(
            "{{\"bench\":\"engine\",\"cases\":{},\"available_cores\":{},",
            "\"requested_jobs\":{},\"repeat\":{},\n",
            " \"identical_results\":{},\n",
            " \"pass_rate\":{},\"exec_rate\":{},\n",
            " \"serial\":{},\n",
            " \"parallel\":{},\n",
            " \"speedup\":{},\"speedup_min\":{},\"speedup_max\":{},",
            "\"trials\":{},\"speedup_degraded\":{},\n",
            " \"per_class\":{},\n",
            " \"warm_start\":{},\n",
            " \"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},",
            "\"hit_rate\":{}}}}}\n"
        ),
        corpus.len(),
        cores,
        args.jobs,
        args.repeat,
        identical,
        fmt_num(pass.value()),
        fmt_num(exec.value()),
        serial.stats.to_json(),
        parallel.stats.to_json(),
        fmt_num(speedup),
        fmt_num(speedup_min),
        fmt_num(speedup_max),
        TRIALS,
        speedup_degraded,
        class_rows_json(&parallel),
        warm_json,
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.entries,
        fmt_num(cache_stats.hit_rate()),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }

    println!(
        "engine bench: {} cases (repeat {}) | {} cores | median of {TRIALS} pairs: 1 worker: {:.0} ms ({:.1} cases/s) | {} workers: {:.0} ms ({:.1} cases/s) | speedup {speedup:.2}x (min {speedup_min:.2}, max {speedup_max:.2})",
        corpus.len(),
        args.repeat,
        cores,
        serial.stats.wall_ms,
        serial.stats.cases_per_sec,
        args.jobs,
        parallel.stats.wall_ms,
        parallel.stats.cases_per_sec,
    );
    if speedup_degraded {
        println!(
            "note: {} workers on {cores} core(s) — wall speedup is degraded by oversubscription and not gated",
            args.jobs,
        );
    }
    println!(
        "oracle cache: {} hits / {} misses ({:.1}% hit rate) | parallel sweep: {} executed / {} cached | results identical: {identical} | wrote {}",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.hit_rate() * 100.0,
        parallel.stats.oracle_executed,
        parallel.stats.oracle_cached,
        args.out,
    );
    println!("{warm_summary}");

    if identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: parallel results diverged from the serial sweep");
        ExitCode::FAILURE
    }
}
