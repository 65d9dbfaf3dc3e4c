//! perfbench: the RustBrain reproduction's benchmark.
//!
//! ```text
//! perfbench --workload <batch-cold|batch-warm|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> --rustbrain <path to the CLI>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics instead. It
//! prints a table of every metric with its unit (per-layer rows tagged
//! with the end-to-end metric they should move), then, as the last line
//! of standard output, one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
//! Scratch files go to `.bench_work/` under the current directory and are
//! removed at exit.

mod batch;
mod catalog;
mod replay;
mod report;
mod serve;

use std::path::PathBuf;
use std::process::ExitCode;

use batch::Temperature;
use catalog::{MetricDef, END_TO_END, PER_LAYER};
use report::Report;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    BatchCold,
    BatchWarm,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "batch-cold" => Some(Workload::BatchCold),
            "batch-warm" => Some(Workload::BatchWarm),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::BatchCold => "batch-cold",
            Workload::BatchWarm => "batch-warm",
            Workload::ServeMixed => "serve-mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    rustbrain: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut rustbrain = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            "--rustbrain" => rustbrain = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        rustbrain: rustbrain.ok_or("--rustbrain is required")?,
    })
}

/// Share of `--seconds` the traced batch-warm run spends on its serve
/// session.
const SERVE_SHARE: f64 = 0.3;

fn run(args: &Args, work: &std::path::Path) -> Result<Report, String> {
    // Load and the batch engine both use nproc threads, so no run is
    // oversubscribed.
    let jobs = std::thread::available_parallelism().map_or(2, usize::from);
    match (args.workload, args.trace) {
        (Workload::BatchCold, false) => {
            batch::run(Temperature::Cold, args.seed, args.seconds, jobs, work)
        }
        (Workload::BatchWarm, false) => {
            batch::run(Temperature::Warm, args.seed, args.seconds, jobs, work)
        }
        (Workload::BatchCold, true) => {
            replay::run_batch(Temperature::Cold, args.seed, args.seconds, jobs, work)
        }
        (Workload::BatchWarm, true) => {
            let mut report =
                replay::run_batch(Temperature::Warm, args.seed, args.seconds, jobs, work)?;
            // The daemon layer has no gated workload of its own (its
            // timings are too noisy on a shared host to bound); its
            // per-layer numbers come from a traced serve-mixed session.
            let seconds = args.seconds * SERVE_SHARE;
            let serve = serve::run(&args.rustbrain, args.seed, seconds, jobs, true, work)?;
            report.adopt(serve, &["serve.", "loadgen."]);
            Ok(report)
        }
        (Workload::ServeMixed, trace) => {
            serve::run(&args.rustbrain, args.seed, args.seconds, jobs, trace, work)
        }
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// The human-readable table, then the one-line JSON result.
fn print_report(args: &Args, report: &Report, defs: &[MetricDef]) {
    let kind = if args.trace {
        "per-layer (traced)"
    } else {
        "end-to-end (untraced)"
    };
    println!(
        "perfbench {} seed {} — {kind}",
        args.workload.name(),
        args.seed
    );
    for def in defs {
        let r = report.metrics[def.name];
        if args.trace {
            println!(
                "  {:<26} {:>14} {:<6} n={:<7} [{}; {}] -> {}",
                def.name,
                fmt_value(r.value),
                def.unit,
                r.count,
                def.layer,
                def.base,
                def.moves
            );
        } else {
            println!(
                "  {:<26} {:>14} {:<6} n={:<7} ({} is better)",
                def.name,
                fmt_value(r.value),
                def.unit,
                r.count,
                def.better.label()
            );
        }
    }
    let error_rate = report::ratio(report.failed as f64, report.attempted as f64);
    println!(
        "  {:<26} {:>14} {:<6} ({} failed of {} attempted)",
        "error_rate",
        fmt_value(error_rate),
        "ratio",
        report.failed,
        report.attempted
    );
    for fact in &report.facts {
        println!("  · {fact}");
    }
    for failure in &report.failures {
        println!("  ! {failure}");
    }
    let metrics: Vec<String> = defs
        .iter()
        .map(|def| {
            let v = report.metrics[def.name].value;
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}",
                def.name, def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Removes `.bench_work` itself unless another run still uses it.
    let _ = work.parent().map(std::fs::remove_dir);
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    if let Some(missing) = defs.iter().find(|d| !report.metrics.contains_key(d.name)) {
        eprintln!(
            "perfbench: {} did not measure {}",
            args.workload.name(),
            missing.name
        );
        return ExitCode::FAILURE;
    }
    print_report(&args, &report, defs);
    ExitCode::SUCCESS
}
