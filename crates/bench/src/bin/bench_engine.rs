//! Engine throughput benchmark: times a full-corpus RustBrain sweep at 1
//! worker and at N workers on a *pre-warmed* shared oracle cache (so the
//! series isolates parallelism from caching), checks the two result
//! streams are byte-identical, and writes the numbers to
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
//! on that flag), and `--trace-out` writes a structured JSONL span
//! trace of the timed parallel sweep.
//!
//! `--repeat N` amplifies the corpus (N clones of the 42 templates with
//! varied case ids/sizes) so the signal beats wall-clock noise.
//!
//! Since PR 9 a traced run re-reads its own flushed trace through
//! `rb_obs::analyze` and writes a `critical_path` section: the
//! per-worker lane bound on achievable speedup. Every run also appends
//! one compact row — date, corpus size, speedup, hit rate — to
//! `BENCH_history.jsonl` beside the output file, so the perf trajectory
//! accumulates across PRs without diffing full BENCH files.
//!
//! ```text
//! USAGE: bench_engine [--jobs N] [--per-class N] [--repeat N]
//!                     [--out PATH] [--trace-out PATH]
//! ```

use rb_bench::overall_rates;
use rb_dataset::Corpus;
use rb_engine::{BatchOutcome, Engine, OracleCache, SystemSpec};
use rb_llm::ModelId;
use rb_miri::UbClass;
use rustbrain::{KnowledgeBase, MergePolicy, RustBrainConfig};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    jobs: usize,
    per_class: usize,
    repeat: usize,
    out: String,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: std::thread::available_parallelism().map_or(4, usize::from),
        per_class: 3,
        repeat: 1,
        out: "BENCH_engine.json".to_owned(),
        trace_out: None,
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
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
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
    tracer: Option<&rb_obs::Tracer>,
) -> BatchOutcome {
    let mut engine = Engine::with_cache(workers, Arc::clone(cache));
    if let Some(tracer) = tracer {
        engine = engine.with_tracer(tracer.clone());
    }
    engine.run_batch(spec, &corpus.cases, corpus.seed)
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
                    "{{\"class\":\"{}\",\"cases\":{},\"passed\":{},",
                    "\"acceptable\":{},\"wall_ms\":{:.4},",
                    "\"cases_per_sec\":{:.4},",
                    "\"oracle\":{{\"executed\":{},\"cached\":{}}}}}"
                ),
                class.label(),
                cases,
                passed,
                acceptable,
                wall_ms,
                cases_per_sec,
                executed,
                cached,
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n  "))
}

/// The preflight on-vs-off comparison: rerun the parallel sweep with the
/// static repair preflight disabled, on the same warm cache, and
/// quantify what the `rb_lint` veto saves the oracle. The contract half
/// of the section: the two result documents must be byte-identical —
/// the veto only relabels judgements, it never changes a trajectory.
fn preflight_json(
    jobs: usize,
    cache: &Arc<OracleCache>,
    corpus: &Corpus,
    on: &BatchOutcome,
) -> (String, String, bool) {
    let mut config = RustBrainConfig::for_model(ModelId::Gpt4, 0);
    config.preflight = false;
    let off_spec = SystemSpec::brain(config);
    let off = sweep(jobs, cache, &off_spec, corpus, None);
    let identical = off.results == on.results;
    let json = format!(
        concat!(
            "{{\"oracle_prevetoed\":{},\"identical_results\":{},\n",
            "  \"with\":{{\"executed\":{},\"cached\":{}}},",
            "\"without\":{{\"executed\":{},\"cached\":{}}}}}"
        ),
        on.stats.oracle_prevetoed,
        identical,
        on.stats.oracle_executed,
        on.stats.oracle_cached,
        off.stats.oracle_executed,
        off.stats.oracle_cached,
    );
    let line = format!(
        "preflight: {} judgements vetoed on static evidence ({} -> {} judged by the oracle) | results identical: {identical}",
        on.stats.oracle_prevetoed,
        off.stats.oracle_executed + off.stats.oracle_cached,
        on.stats.oracle_executed + on.stats.oracle_cached,
    );
    (json, line, identical)
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
                "{{\"pass_rate\":{:.4},\"exec_rate\":{:.4},",
                "\"simulated_overhead_ms\":{:.4},\"kb_query_ms\":{:.4}}}"
            ),
            pass.value(),
            exec.value(),
            o.stats.simulated_overhead_ms,
            o.stats.kb_query_ms,
        )
    };
    let (cold_pass, cold_exec) = overall_rates(&cold.results);
    let (warm_pass, warm_exec) = overall_rates(&warm.results);
    let json = format!(
        concat!(
            "{{\"cold\":{},\n   \"warm\":{},\n   ",
            "\"delta\":{{\"pass_rate\":{:.4},\"exec_rate\":{:.4},",
            "\"simulated_overhead_ms\":{:.4},\"kb_query_ms\":{:.4}}},\n   ",
            "\"kb_entries\":{{\"seeded\":{},\"before_coalescing\":{},",
            "\"after_coalescing\":{},\"append_only_final\":{},\"store_shards\":{}}}}}"
        ),
        run_json(cold),
        run_json(&warm),
        warm_pass.value() - cold_pass.value(),
        warm_exec.value() - cold_exec.value(),
        warm.stats.simulated_overhead_ms - cold.stats.simulated_overhead_ms,
        warm.stats.kb_query_ms - cold.stats.kb_query_ms,
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

/// Today's UTC civil date as `YYYY-MM-DD`, from the epoch second count
/// alone (no date dependency in the tree). Days-to-civil conversion per
/// Howard Hinnant's `civil_from_days`.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The trace-side critical path of the parallel sweep: re-reads the
/// flushed trace through the analysis layer and bounds the achievable
/// speedup from the per-worker lanes, as `rustbrain trace critical-path`
/// does. Returns the JSON section, a console line and the sim-side
/// speedup bound.
fn critical_path_json(trace_path: &str) -> Result<(String, String, f64), String> {
    let spans = rb_obs::analyze::read_file(std::path::Path::new(trace_path))
        .map_err(|e| format!("trace {trace_path}: {e}"))?;
    let tree =
        rb_obs::analyze::SpanTree::build(spans).map_err(|e| format!("trace {trace_path}: {e}"))?;
    let cp = rb_obs::analyze::critical_path(&tree);
    if cp.lanes.is_empty() {
        return Err(format!("trace {trace_path}: no engine.job spans"));
    }
    let bound = cp.speedup_bound_sim();
    let json = format!(
        concat!(
            "{{\"lanes\":{},\"jobs\":{},",
            "\"total_sim_ms\":{:.4},\"busiest_lane_sim_ms\":{:.4},",
            "\"speedup_bound_sim\":{:.4},\"speedup_bound_wall\":{:.4}}}"
        ),
        cp.lanes.len(),
        cp.jobs,
        cp.total_sim_ms,
        cp.critical_sim_ms,
        bound,
        cp.speedup_bound_wall(),
    );
    let line = format!(
        "critical path: {} lanes | bound {:.2}x (sim) {:.2}x (wall)",
        cp.lanes.len(),
        bound,
        cp.speedup_bound_wall(),
    );
    Ok((json, line, bound))
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

    let tracer = match &args.trace_out {
        Some(path) => match rb_obs::Tracer::to_file(std::path::Path::new(path)) {
            Ok(tracer) => Some(tracer),
            Err(e) => {
                eprintln!("error: cannot open trace file {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    // Warm-up sweep (untimed): populates the oracle cache so all timed
    // sweeps run under identical, fully-warm cache conditions.
    let warmup = sweep(args.jobs, &cache, &spec, &corpus, None);
    let serial = sweep(1, &cache, &spec, &corpus, None);
    // Only the parallel sweep is traced: it is the one the critical path
    // reads back.
    let parallel = sweep(args.jobs, &cache, &spec, &corpus, tracer.as_ref());
    if let Some(tracer) = &tracer {
        tracer.flush();
    }
    let identical = warmup.results == serial.results && parallel.results == serial.results;

    // An honest speedup needs a core per worker: oversubscribed runs
    // time-slice, and the ratio stops measuring the engine.
    let speedup_degraded = args.jobs > cores;

    let speedup = if parallel.stats.wall_ms > 0.0 {
        serial.stats.wall_ms / parallel.stats.wall_ms
    } else {
        0.0
    };
    // The trace-side view of the same sweep: the per-worker lanes read
    // back from the flushed spans bound the achievable speedup.
    let critical_path = match args.trace_out.as_deref() {
        Some(path) => match critical_path_json(path) {
            Ok(cp) => Some(cp),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let cache_stats = cache.stats();
    let (pass, exec) = overall_rates(&parallel.results);
    let (warm_json, warm_summary) = warm_start_json(args.jobs, &cache, &spec, &corpus, &parallel);
    let (preflight_json, preflight_line, preflight_identical) =
        preflight_json(args.jobs, &cache, &corpus, &parallel);

    let json = format!(
        concat!(
            "{{\"bench\":\"engine\",\"cases\":{},\"available_cores\":{},",
            "\"requested_jobs\":{},\"repeat\":{},\n",
            " \"identical_results\":{},\n",
            " \"pass_rate\":{:.4},\"exec_rate\":{:.4},\n",
            " \"serial\":{},\n",
            " \"parallel\":{},\n",
            " \"speedup\":{:.4},\"speedup_degraded\":{},\n",
            " \"critical_path\":{},\n",
            " \"per_class\":{},\n",
            " \"preflight\":{},\n",
            " \"warm_start\":{},\n",
            " \"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},",
            "\"evictions\":{},\"capacity\":{},\"hit_rate\":{:.4}}}}}\n"
        ),
        corpus.len(),
        cores,
        args.jobs,
        args.repeat,
        identical,
        pass.value(),
        exec.value(),
        serial.stats.to_json(),
        parallel.stats.to_json(),
        speedup,
        speedup_degraded,
        critical_path
            .as_ref()
            .map_or_else(|| "null".to_owned(), |(json, ..)| json.clone()),
        class_rows_json(&parallel),
        preflight_json,
        warm_json,
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.entries,
        cache_stats.evictions,
        cache_stats.capacity,
        cache_stats.hit_rate(),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }

    println!(
        "engine bench: {} cases (repeat {}) | {} cores | 1 worker: {:.0} ms ({:.1} cases/s) | {} workers: {:.0} ms ({:.1} cases/s) | speedup {speedup:.2}x",
        corpus.len(),
        args.repeat,
        cores,
        serial.stats.wall_ms,
        serial.stats.cases_per_sec,
        args.jobs,
        parallel.stats.wall_ms,
        parallel.stats.cases_per_sec,
    );
    if let Some((_, line, ..)) = &critical_path {
        println!("{line}");
    }
    if speedup_degraded {
        println!(
            "note: {} workers on {cores} core(s) — wall speedup is degraded by oversubscription and not gated",
            args.jobs,
        );
    }
    println!(
        "oracle cache: {} hits / {} misses ({:.1}% hit rate) | parallel sweep: {} executed / {} cached / {} prevetoed | results identical: {identical} | wrote {}",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.hit_rate() * 100.0,
        parallel.stats.oracle_executed,
        parallel.stats.oracle_cached,
        parallel.stats.oracle_prevetoed,
        args.out,
    );
    println!("{preflight_line}");
    println!("{warm_summary}");

    // The running history: one compact JSONL row per invocation, beside
    // the full output file, so the speedup/hit-rate trajectory across
    // PRs reads off one file without diffing BENCH snapshots.
    let history_path = std::path::Path::new(&args.out).with_file_name("BENCH_history.jsonl");
    let history_row = format!(
        concat!(
            "{{\"date\":\"{}\",\"cases\":{},\"jobs\":{},\"repeat\":{},",
            "\"speedup\":{:.4},",
            "\"speedup_bound_sim\":{},\"cache_hit_rate\":{:.4},",
            "\"exec_rate\":{:.4},\"speedup_degraded\":{}}}\n"
        ),
        utc_date(),
        corpus.len(),
        args.jobs,
        args.repeat,
        speedup,
        critical_path
            .as_ref()
            .map_or_else(|| "null".to_owned(), |(_, _, bound)| format!("{bound:.4}")),
        cache_stats.hit_rate(),
        exec.value(),
        speedup_degraded,
    );
    let append = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, history_row.as_bytes()));
    if let Err(e) = append {
        eprintln!("error: cannot append to {}: {e}", history_path.display());
        return ExitCode::from(2);
    }
    println!("history row appended to {}", history_path.display());
    if !preflight_identical {
        eprintln!("error: disabling the preflight changed batch results");
        return ExitCode::FAILURE;
    }
    if identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: parallel results diverged from the serial sweep");
        ExitCode::FAILURE
    }
}
