//! The traced run's per-layer numbers: a serial instrumented pass that
//! captures every program the oracle judges, and a replay of that program
//! stream through each layer's public functions, one timed loop per layer
//! inside a benchmark-side `rb_obs` span.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rb_engine::{derive_case_seed, program_key, CaseResult, Engine, OracleCache, System};
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_lang::prune::prune_program;
use rb_lang::vectorize::AstVector;
use rb_lang::Program;
use rb_llm::{LanguageModel, ModelId, RepairContext, SimulatedModel};
use rb_miri::{run_program, MiriError, MiriReport, Oracle, UbClass};
use rustbrain::{AgentKind, KbDelta, KnowledgeBase, MergePolicy};

use crate::batch::{self, Temperature};
use crate::report::{median, quantile, ratio, us_per_call, Report};

/// Cases of the serial pass whose judged programs are kept for the replay
/// (the rest are only counted), which bounds the replay's memory.
const CAPTURE_CASES: usize = 800;

/// Cases of the traced-versus-untraced sweep comparison.
const TRACE_SLICE: usize = 700;

/// An oracle that delegates every judgement to the workload's cache and,
/// while capture is on, keeps a copy of each judged program.
struct RecordingOracle {
    cache: Arc<OracleCache>,
    log: Mutex<Capture>,
}

#[derive(Default)]
struct Capture {
    on: bool,
    programs: Vec<Program>,
}

impl Oracle for RecordingOracle {
    fn judge(&self, program: &Program) -> Arc<MiriReport> {
        self.judge_counted(program).0
    }

    fn judge_counted(&self, program: &Program) -> (Arc<MiriReport>, bool) {
        let (report, cached) = self.cache.lookup(program);
        let mut log = self.log.lock().expect("capture log poisoned");
        if log.on {
            log.programs.push(program.clone());
        }
        (report, cached)
    }
}

/// Mean per-call costs of each layer on one program stream.
#[derive(Default)]
pub struct LayerCosts {
    pub programs: usize,
    pub interp_us: f64,
    pub miss_us: f64,
    pub hit_us: f64,
    pub distinct: usize,
    pub analyze_us: f64,
    pub failing: usize,
    pub propose_us: f64,
    pub apply_us: f64,
    pub apply_attempts: usize,
    pub apply_ratio: f64,
    pub print_us: f64,
    pub parse_us: f64,
    pub round_trip_failures: usize,
    pub prune_embed_us: f64,
    pub query_us: f64,
}

/// Times each layer's public functions on `programs`. Queries run against
/// a clone of `kb`; the model is seeded from `seed`.
pub fn replay_layers(programs: &[Program], kb: &KnowledgeBase, seed: u64) -> LayerCosts {
    let mut c = LayerCosts {
        programs: programs.len(),
        ..LayerCosts::default()
    };
    {
        let _span = rb_obs::span("replay.miri.run_program");
        c.interp_us = us_per_call(programs, |p| {
            black_box(run_program(p));
        });
    }
    let mut keys = HashSet::new();
    let distinct: Vec<&Program> = programs
        .iter()
        .filter(|p| keys.insert(program_key(p)))
        .collect();
    c.distinct = distinct.len();
    let cache = OracleCache::new();
    {
        let _span = rb_obs::span("replay.cache.lookup_cold");
        c.miss_us = us_per_call(&distinct, |p| {
            black_box(cache.lookup(p));
        });
    }
    {
        let _span = rb_obs::span("replay.cache.lookup_warm");
        c.hit_us = us_per_call(programs, |p| {
            black_box(cache.lookup(p));
        });
    }
    {
        let _span = rb_obs::span("replay.lint.analyze");
        c.analyze_us = us_per_call(programs, |p| {
            black_box(rb_lint::analyze(p));
        });
    }

    // (program, primary error) pairs of the failing programs.
    let failing: Vec<(&Program, MiriError)> = programs
        .iter()
        .filter_map(|p| cache.report(p).primary().cloned().map(|e| (p, e)))
        .collect();
    c.failing = failing.len();
    let mut model = SimulatedModel::new(ModelId::Gpt4, 0.5, seed);
    let mut responses = Vec::with_capacity(failing.len());
    {
        let _span = rb_obs::span("replay.llm.propose");
        let started = Instant::now();
        for (i, (p, e)) in failing.iter().enumerate() {
            let strategy = AgentKind::ALL[i % AgentKind::ALL.len()].strategy();
            responses.push(model.propose(&RepairContext::new(p, e, strategy)));
        }
        c.propose_us = ratio(started.elapsed().as_secs_f64() * 1e6, failing.len() as f64);
    }
    {
        let _span = rb_obs::span("replay.llm.apply");
        let mut applied = 0usize;
        let started = Instant::now();
        for ((p, e), resp) in failing.iter().zip(&responses) {
            for proposal in &resp.proposals {
                c.apply_attempts += 1;
                if black_box(proposal.rule.apply(p, e)).is_some() {
                    applied += 1;
                    break;
                }
            }
        }
        c.apply_us = ratio(
            started.elapsed().as_secs_f64() * 1e6,
            c.apply_attempts as f64,
        );
        c.apply_ratio = ratio(applied as f64, c.apply_attempts as f64);
    }

    let printed: Vec<String> = programs.iter().map(print_program).collect();
    {
        let _span = rb_obs::span("replay.lang.print");
        c.print_us = us_per_call(programs, |p| {
            black_box(print_program(p));
        });
    }
    {
        let _span = rb_obs::span("replay.lang.parse");
        c.parse_us = us_per_call(&printed, |s| {
            black_box(parse_program(s).ok());
        });
    }
    c.round_trip_failures = programs
        .iter()
        .zip(&printed)
        .filter(|(p, s)| parse_program(s).ok().as_ref() != Some(*p))
        .count();
    let vectors: Vec<(AstVector, UbClass)> = {
        let _span = rb_obs::span("replay.lang.prune_embed");
        let started = Instant::now();
        let v: Vec<(AstVector, UbClass)> = failing
            .iter()
            .map(|(p, e)| {
                let (pruned, _) = prune_program(p);
                let vector = if pruned.stmt_count() == 0 {
                    AstVector::embed(p)
                } else {
                    AstVector::embed(&pruned)
                };
                (vector, e.class())
            })
            .collect();
        c.prune_embed_us = ratio(started.elapsed().as_secs_f64() * 1e6, failing.len() as f64);
        v
    };
    {
        let _span = rb_obs::span("replay.kb.query");
        let mut kb = kb.clone();
        c.query_us = us_per_call(&vectors, |(v, class)| {
            black_box(kb.query(v, *class, 2));
        });
    }
    c
}

/// Median save and load milliseconds of `kb` through a sharded store at
/// `dir` (written from scratch each time), and the store's size in bytes.
pub fn kb_store_costs(kb: &KnowledgeBase, dir: &Path) -> Result<(f64, f64, u64), String> {
    let _span = rb_obs::span("replay.kb.store");
    let mut saves = Vec::new();
    let mut loads = Vec::new();
    for _ in 0..5 {
        let _ = std::fs::remove_dir_all(dir);
        let started = Instant::now();
        kb.save_reported(dir).map_err(|e| format!("KB save: {e}"))?;
        saves.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let loaded = KnowledgeBase::load(dir).map_err(|e| format!("KB load: {e}"))?;
        loads.push(started.elapsed().as_secs_f64() * 1e3);
        if loaded.entries() != kb.entries() {
            return Err("KB store round trip changed the entries".into());
        }
    }
    let bytes = std::fs::read_dir(dir)
        .map_err(|e| format!("reading the KB store: {e}"))?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    Ok((median(&saves), median(&loads), bytes))
}

/// Median milliseconds of merging `deltas` into a clone of `base` under
/// the default policy.
pub fn kb_merge_ms(base: &KnowledgeBase, deltas: &[KbDelta]) -> f64 {
    let _span = rb_obs::span("replay.kb.merge");
    let mut times = Vec::new();
    for _ in 0..3 {
        let mut kb = base.clone();
        let started = Instant::now();
        kb.merge_all(deltas.iter(), &MergePolicy::default());
        times.push(started.elapsed().as_secs_f64() * 1e3);
        black_box(kb);
    }
    median(&times)
}

/// Totals of the serial instrumented pass.
#[derive(Default)]
struct PassTotals {
    repair_us: Vec<f64>,
    /// Estimated layer microseconds inside the repairs, summed.
    layer_us: f64,
    executed: u64,
    cached: u64,
    prevetoed: u64,
    oracle_runs: u64,
    solutions: u64,
    propose_calls: u64,
}

/// The traced run of a batch workload.
pub fn run_batch(
    temp: Temperature,
    seed: u64,
    seconds: f64,
    jobs: usize,
    work: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let setup = batch::setup(temp, seed, jobs, work)?;
    let cases = setup.cases.len();

    // Engine layer: untraced sweeps, as in the end-to-end run.
    let mut batch_ms = Vec::new();
    let mut job_sum = Vec::new();
    let mut imbalance = Vec::new();
    let mut steals = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(seconds * 0.3);
    let mut last = None;
    while batch_ms.len() < 3 || Instant::now() < deadline {
        let (wall_s, outcome) = batch::sweep(&setup, seed, jobs);
        batch::check(&mut report, &setup.reference, &outcome.results);
        batch_ms.push(wall_s * 1e3);
        job_sum.push(outcome.jobs.iter().map(|j| j.wall_ms).sum::<f64>());
        imbalance.push(outcome.stats.imbalance.unwrap_or(f64::INFINITY));
        steals.push(outcome.stats.sched.steals as f64);
        last = Some(outcome);
    }
    let last = last.expect("at least one sweep");
    let (b, s) = (median(&batch_ms), median(&job_sum));
    let n = batch_ms.len();
    report.set("engine.batch_ms", b, n);
    report.set("engine.job_ms_sum", s, n);
    report.set("engine.utilization", ratio(s, jobs as f64 * b), n);
    report.set("engine.overhead_ms", b - s / jobs as f64, n);
    report.set("engine.imbalance", median(&imbalance), n);
    report.set("engine.steals", median(&steals), n);
    let st = &last.stats;
    report.set("miri.executed", st.oracle_executed as f64, 1);
    report.set("miri.prevetoed", st.oracle_prevetoed as f64, 1);
    let lookups = st.oracle_executed + st.oracle_cached;
    report.set("cache.lookups", lookups as f64, 1);
    report.set(
        "cache.hit_ratio",
        ratio(st.oracle_cached as f64, lookups as f64),
        lookups as usize,
    );
    report.set("cache.entries", st.cache.entries as f64, 1);

    // Tracing cost: the same slice swept with and without a tracer.
    let slice = &setup.cases[..TRACE_SLICE.min(cases)];
    let (mut plain, mut traced, mut spans) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..3 {
        let engine = Engine::with_cache(jobs, setup.sweep_cache());
        let started = Instant::now();
        black_box(engine.run_batch_learned(&setup.spec, slice, seed, &setup.snapshot));
        plain.push(started.elapsed().as_secs_f64());
        let tracer = rb_obs::Tracer::in_memory();
        let engine = Engine::with_cache(jobs, setup.sweep_cache()).with_tracer(tracer.clone());
        let started = Instant::now();
        black_box(engine.run_batch_learned(&setup.spec, slice, seed, &setup.snapshot));
        traced.push(started.elapsed().as_secs_f64());
        spans = tracer.spans_emitted();
    }
    report.set(
        "obs.trace_overhead",
        median(&traced) / median(&plain) - 1.0,
        plain.len(),
    );
    report.set("obs.spans", spans as f64, slice.len());

    // Serial instrumented pass on the workload's cache.
    let oracle = Arc::new(RecordingOracle {
        cache: setup.sweep_cache(),
        log: Mutex::new(Capture::default()),
    });
    let mut totals = PassTotals::default();
    // Per case: (executed, cached, lint analyses, model calls, KB queries).
    let mut per_case: Vec<(u64, u64, u64, u64, u64)> = Vec::with_capacity(cases);
    for (i, case) in setup.cases.iter().enumerate() {
        oracle.log.lock().expect("capture log poisoned").on = i < CAPTURE_CASES;
        let dyn_oracle: Arc<dyn Oracle> = oracle.clone();
        let mut system = setup.spec.build_with(
            derive_case_seed(seed, &case.id),
            dyn_oracle,
            &setup.snapshot,
        );
        let (gold, _) = oracle.judge_counted(&case.gold);
        let System::Brain(brain) = &mut system else {
            return Err("the batch spec must build a RustBrain system".into());
        };
        let started = Instant::now();
        let out = brain.repair(&case.buggy, &gold.outputs);
        totals.repair_us.push(started.elapsed().as_secs_f64() * 1e6);
        // The same fields `System::repair_case_instrumented` copies.
        let result = CaseResult {
            case_id: case.id.clone(),
            class: case.class,
            passed: out.passed,
            acceptable: out.acceptable,
            overhead_ms: out.overhead_ms,
            kb_queries: out.kb_queries,
            kb_query_ms: out.kb_query_time_ms,
        };
        if result != last.results[i] {
            report.fail(
                1,
                format!("serial pass differs from the sweep on {}", case.id),
            );
        }
        report.attempted += 1;
        let calls = brain.model_stats().calls;
        totals.executed += out.oracle_executed as u64;
        totals.cached += out.oracle_cached as u64;
        totals.prevetoed += out.oracle_prevetoed as u64;
        totals.oracle_runs += out.oracle_runs as u64;
        totals.solutions += out.solutions_tried as u64;
        totals.propose_calls += calls;
        per_case.push((
            out.oracle_executed as u64,
            out.oracle_cached as u64,
            out.oracle_runs as u64 + 1,
            calls,
            out.kb_queries.saturating_sub(1),
        ));
    }
    let programs = std::mem::take(&mut oracle.log.lock().expect("capture log poisoned").programs);

    // Replay the captured stream through each layer, under a tracer.
    let tracer = rb_obs::Tracer::in_memory();
    let scope = rb_obs::trace::scope(&tracer);
    let costs = replay_layers(&programs, &last.knowledge, seed);
    let deltas: Vec<KbDelta> = last
        .jobs
        .iter()
        .filter_map(|j| j.kb_delta.clone())
        .collect();
    let merge_ms = kb_merge_ms(&setup.snapshot, &deltas);
    let (save_ms, load_ms, bytes) = kb_store_costs(&last.knowledge, &work.join("replay.rbkb.d"))?;
    drop(scope);

    // Layer time inside each repair, from its call counts and the
    // replayed per-call costs.
    let applies_per_propose = ratio(costs.apply_attempts as f64, costs.failing as f64);
    for &(executed, cached, lint_calls, proposes, queries) in &per_case {
        totals.layer_us += executed as f64 * costs.miss_us
            + cached as f64 * costs.hit_us
            + lint_calls as f64 * costs.analyze_us
            + proposes as f64 * (costs.propose_us + applies_per_propose * costs.apply_us)
            + queries as f64 * (costs.prune_embed_us + costs.query_us)
            + costs.print_us;
    }
    let repair_sum: f64 = totals.repair_us.iter().sum();
    let nc = cases as f64;
    report.set("miri.interp_us", costs.interp_us, costs.programs);
    report.set("cache.hit_us", costs.hit_us, costs.programs);
    report.set("cache.miss_us", costs.miss_us, costs.distinct);
    report.set(
        "lint.calls",
        (cases as u64 + totals.oracle_runs) as f64,
        cases,
    );
    report.set("lint.analyze_us", costs.analyze_us, costs.programs);
    report.set(
        "lint.veto_ratio",
        ratio(totals.prevetoed as f64, totals.oracle_runs as f64),
        totals.oracle_runs as usize,
    );
    report.set("llm.propose_calls", totals.propose_calls as f64, cases);
    report.set("llm.propose_us", costs.propose_us, costs.failing);
    report.set("llm.apply_us", costs.apply_us, costs.apply_attempts);
    report.set("llm.apply_ratio", costs.apply_ratio, costs.apply_attempts);
    report.set(
        "core.repair_p50_us",
        quantile(&totals.repair_us, 0.5),
        cases,
    );
    report.set(
        "core.repair_p99_us",
        quantile(&totals.repair_us, 0.99),
        cases,
    );
    report.set(
        "core.self_us",
        ((repair_sum - totals.layer_us) / nc).max(0.0),
        cases,
    );
    report.set(
        "core.solutions_per_case",
        totals.solutions as f64 / nc,
        cases,
    );
    report.set(
        "core.oracle_runs_per_case",
        totals.oracle_runs as f64 / nc,
        cases,
    );
    report.set("lang.parse_us", costs.parse_us, costs.programs);
    report.set("lang.print_us", costs.print_us, costs.programs);
    report.set("lang.prune_embed_us", costs.prune_embed_us, costs.failing);
    report.set("kb.entries", last.knowledge.len() as f64, 1);
    report.set("kb.query_us", costs.query_us, costs.failing);
    report.set("kb.merge_ms", merge_ms, deltas.len());
    report.set("kb.save_ms", save_ms, 5);
    report.set("kb.load_ms", load_ms, 5);
    report.set("kb.store_bytes", bytes as f64, 1);
    for name in [
        "serve.repair_ms",
        "serve.analyze_ms",
        "serve.stats_ms",
        "serve.json_us",
        "serve.compactions",
        "serve.req_p99_ms",
        "loadgen.offered_rps",
        "loadgen.achieved_rps",
        "loadgen.late_p99_ms",
        "loadgen.backlog_max",
    ] {
        report.set(name, 0.0, 0);
    }
    report.fact(format!(
        "serial pass: {} judgements ({} executed, {} cached, {} prevetoed) over {cases} cases; \
         {} programs replayed ({} distinct, {} failing); {} bench spans",
        totals.executed + totals.cached + totals.prevetoed + cases as u64,
        totals.executed,
        totals.cached,
        totals.prevetoed,
        costs.programs,
        costs.distinct,
        costs.failing,
        tracer.spans_emitted(),
    ));
    if costs.round_trip_failures > 0 {
        report.fact(format!(
            "{} replayed programs did not survive print -> parse unchanged",
            costs.round_trip_failures
        ));
    }
    Ok(report)
}
