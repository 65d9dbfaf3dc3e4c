//! The batch workloads: RustBrain (GPT-4 profile) sweeps of a generated
//! corpus on the engine, cold (a fresh verdict cache and an empty KB per
//! sweep) and warm (a cache filled by untimed sweeps, and the cold sweep's
//! learned KB reloaded through a `.rbkb.d` store).

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rb_dataset::{Corpus, UbCase};
use rb_engine::{
    derive_case_seed, run_serial_reference, BatchOutcome, CaseResult, Engine, OracleCache,
    SystemSpec,
};
use rb_llm::ModelId;
use rb_miri::{DirectOracle, UbClass};
use rustbrain::{KnowledgeBase, RustBrainConfig};

use crate::report::{fast_quartile, median, peak_rss_mb, quantile, ratio, Faster, Report};

/// Cases per UB class: 14 classes x 250 = 3,500 cases per sweep, about
/// half a second on a 2-core host, so a run has dozens of sweeps to take
/// its quartiles over.
pub const PER_CLASS: usize = 250;

/// Full set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Sweeps per run however short `--seconds` is.
const MIN_SWEEPS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Temperature {
    Cold,
    Warm,
}

/// Everything a sweep needs, built before timing starts.
pub struct Setup {
    pub cases: Vec<UbCase>,
    pub spec: SystemSpec,
    /// The KB every job starts from: empty when cold, the reloaded
    /// learned base when warm.
    pub snapshot: KnowledgeBase,
    /// Serial, cache-free results every sweep must reproduce.
    pub reference: Vec<CaseResult>,
    /// The filled verdict cache of the warm workload (`None` when cold:
    /// each cold sweep gets a fresh one).
    pub warm_cache: Option<Arc<OracleCache>>,
}

impl Setup {
    /// The cache one sweep runs on.
    pub fn sweep_cache(&self) -> Arc<OracleCache> {
        self.warm_cache
            .clone()
            .unwrap_or_else(|| Arc::new(OracleCache::new()))
    }
}

/// The serial, cache-free reference for jobs that start from `snapshot`:
/// the plain loop `run_serial_reference` runs, with the snapshot in place
/// of the empty base.
fn serial_reference_from(
    spec: &SystemSpec,
    cases: &[UbCase],
    seed: u64,
    snapshot: &KnowledgeBase,
) -> Vec<CaseResult> {
    cases
        .iter()
        .map(|case| {
            let reference = case.gold_outputs();
            spec.build_with(
                derive_case_seed(seed, &case.id),
                Arc::new(DirectOracle),
                snapshot,
            )
            .repair_case_with(case, &reference)
        })
        .collect()
}

/// Generates and validates the corpus, computes the serial reference and,
/// for the warm workload, fills the cache and round-trips the learned KB
/// through a sharded store under `work`.
pub fn setup(temp: Temperature, seed: u64, jobs: usize, work: &Path) -> Result<Setup, String> {
    let corpus = Corpus::generate_full(seed, PER_CLASS);
    let expected = PER_CLASS * UbClass::ALL.len();
    if corpus.len() != expected {
        return Err(format!(
            "corpus validation kept {} of {expected} cases",
            corpus.len()
        ));
    }
    let cases = corpus.cases;
    let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, seed));
    match temp {
        Temperature::Cold => Ok(Setup {
            reference: run_serial_reference(&spec, &cases, seed),
            cases,
            spec,
            snapshot: KnowledgeBase::new(),
            warm_cache: None,
        }),
        Temperature::Warm => {
            let cache = Arc::new(OracleCache::new());
            let engine = Engine::with_cache(jobs, Arc::clone(&cache));
            let learned = engine.run_batch(&spec, &cases, seed).knowledge;
            let store = work.join("learned.rbkb.d");
            learned
                .save_reported(&store)
                .map_err(|e| format!("saving the learned KB: {e}"))?;
            let snapshot = KnowledgeBase::load(&store)
                .map_err(|e| format!("reloading the learned KB: {e}"))?;
            if snapshot.entries() != learned.entries() {
                return Err("the learned KB changed in its store round trip".into());
            }
            // Fill the cache with what sweeps from the snapshot judge.
            let _ = engine.run_batch_learned(&spec, &cases, seed, &snapshot);
            Ok(Setup {
                reference: serial_reference_from(&spec, &cases, seed, &snapshot),
                cases,
                spec,
                snapshot,
                warm_cache: Some(cache),
            })
        }
    }
}

/// Runs `SETUPS` set-ups, checks that they agree, and returns the last
/// one with the set-up times in seconds.
pub fn repeated_setup(
    temp: Temperature,
    seed: u64,
    jobs: usize,
    work: &Path,
) -> Result<(Setup, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last: Option<Setup> = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let s = setup(temp, seed, jobs, work)?;
        times.push(started.elapsed().as_secs_f64());
        if let Some(prev) = &last {
            if prev.reference != s.reference {
                return Err("two set-ups from one seed gave different references".into());
            }
        }
        last = Some(s);
    }
    Ok((last.expect("SETUPS > 0"), times))
}

/// One timed sweep: wall seconds and the engine's outcome.
pub fn sweep(setup: &Setup, seed: u64, jobs: usize) -> (f64, BatchOutcome) {
    let engine = Engine::with_cache(jobs, setup.sweep_cache());
    let started = Instant::now();
    let outcome = engine.run_batch_learned(&setup.spec, &setup.cases, seed, &setup.snapshot);
    (started.elapsed().as_secs_f64(), outcome)
}

/// Counts the cases a sweep got wrong against the serial reference.
pub fn check(report: &mut Report, reference: &[CaseResult], results: &[CaseResult]) {
    report.attempted += reference.len() as u64;
    if results.len() != reference.len() {
        report.fail(
            reference.len() as u64,
            format!(
                "sweep returned {} of {} results",
                results.len(),
                reference.len()
            ),
        );
        return;
    }
    let wrong = reference
        .iter()
        .zip(results)
        .filter(|(a, b)| a != b)
        .count();
    if wrong > 0 {
        let first = reference
            .iter()
            .zip(results)
            .find(|(a, b)| a != b)
            .map(|(a, _)| a.case_id.clone())
            .unwrap_or_default();
        report.fail(
            wrong as u64,
            format!("{wrong} results differ from the serial reference (first: {first})"),
        );
    }
}

/// Pass rate, execution rate and simulated ms per case of a result set.
pub fn quality(results: &[CaseResult]) -> (f64, f64, f64) {
    let n = results.len() as f64;
    let passed = results.iter().filter(|r| r.passed).count() as f64;
    let acceptable = results.iter().filter(|r| r.acceptable).count() as f64;
    let sim: f64 = results.iter().map(|r| r.overhead_ms).sum();
    (ratio(passed, n), ratio(acceptable, n), ratio(sim, n))
}

/// The end-to-end run: set up, then sweep until `seconds` have passed.
pub fn run(
    temp: Temperature,
    seed: u64,
    seconds: f64,
    jobs: usize,
    work: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup, setup_times) = repeated_setup(temp, seed, jobs, work)?;
    let cases = setup.cases.len();

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut throughputs = Vec::new();
    // Each sweep is one window: its throughput and its per-case
    // `JobResult.wall_ms` percentiles.
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut last_stats = None;
    while throughputs.len() < MIN_SWEEPS || Instant::now() < deadline {
        let (wall_s, outcome) = sweep(&setup, seed, jobs);
        check(&mut report, &setup.reference, &outcome.results);
        throughputs.push(cases as f64 / wall_s);
        let job_ms: Vec<f64> = outcome.jobs.iter().map(|j| j.wall_ms).collect();
        p50s.push(quantile(&job_ms, 0.5));
        p99s.push(quantile(&job_ms, 0.99));
        last_stats = Some(outcome.stats);
    }
    let stats = last_stats.expect("at least one sweep");

    let (pass_rate, exec_rate, sim_per_case) = quality(&setup.reference);
    let sweeps = throughputs.len();
    report.set("setup_s", median(&setup_times), setup_times.len());
    report.set(
        "throughput_per_s",
        fast_quartile(&throughputs, Faster::Higher),
        sweeps,
    );
    report.set("p50_ms", fast_quartile(&p50s, Faster::Lower), sweeps);
    report.set("p99_ms", fast_quartile(&p99s, Faster::Lower), sweeps);
    report.set("sim_ms_per_case", sim_per_case, cases);
    report.set("pass_rate", pass_rate, cases);
    report.set("exec_rate", exec_rate, cases);
    report.set("peak_rss_mb", peak_rss_mb(None), 1);
    report.fact(format!(
        "{} sweeps of {cases} cases on {jobs} workers, {:.0}..{:.0} cases/s; KB snapshot {} entries",
        throughputs.len(),
        quantile(&throughputs, 0.0),
        quantile(&throughputs, 1.0),
        setup.snapshot.len()
    ));
    report.fact(format!(
        "judgements per sweep: {} executed, {} cached, {} prevetoed",
        stats.oracle_executed, stats.oracle_cached, stats.oracle_prevetoed
    ));
    Ok(report)
}
