//! The trace-analysis layer against the real engine: a traced batch
//! must parse cleanly through `rb_obs::analyze`, its `engine.job` spans
//! must carry the scheduler's placement tags, and the critical-path
//! speedup bound extracted from the trace must agree with
//! `model_schedule`'s modeled speedup when both see the same placement.

use rb_dataset::Corpus;
use rb_engine::{model_schedule, Engine, SchedPolicy, SystemSpec};
use rb_miri::UbClass;
use rb_obs::analyze::{self, CheckOptions, SpanTree};
use rb_obs::Tracer;
use rustbrain::RustBrainConfig;

fn brain_spec() -> SystemSpec {
    SystemSpec::brain(RustBrainConfig::for_model(rb_llm::ModelId::Gpt4, 0))
}

#[test]
fn traced_batch_parses_checks_and_exposes_placement() {
    let corpus = Corpus::generate(7, 3, &[UbClass::Alloc, UbClass::Panic, UbClass::DataRace]);
    let tracer = Tracer::in_memory();
    let spec = brain_spec();
    let outcome = Engine::new(4)
        .with_tracer(tracer.clone())
        .run_batch(&spec, &corpus.cases, 42);
    assert_eq!(outcome.results.len(), corpus.cases.len());

    let text = tracer.lines().join("\n");
    let spans = analyze::read_str(&text).expect("engine trace must parse");
    let report = analyze::check(
        &spans,
        &CheckOptions {
            require_names: vec!["engine.job".into(), "repair".into(), "fast".into()],
            ..CheckOptions::default()
        },
    );
    assert!(report.ok(), "violations: {:?}", report.violations);

    let tree = SpanTree::build(spans).expect("engine trace must form a tree");
    let cp = analyze::critical_path(&tree);
    assert_eq!(cp.jobs as usize, corpus.cases.len());
    // Every job span carries a worker lane and a stolen flag.
    for s in tree.spans().iter().filter(|s| s.name == "engine.job") {
        let worker: usize = s
            .tag("worker")
            .expect("engine.job missing worker tag")
            .parse()
            .expect("worker tag must be numeric");
        assert!(worker < 4);
        assert!(matches!(s.tag("stolen"), Some("true" | "false")));
    }
    // Job sim totals in the trace reconcile with the batch's results —
    // the analysis reads the same numbers the engine reported.
    // (The wire rounds sim_ms to 4 decimals, so reconciliation is to
    // within half a unit in the last place per job.)
    let total_overhead: f64 = outcome.results.iter().map(|r| r.overhead_ms).sum();
    assert!(
        (cp.total_sim_ms - total_overhead).abs() < 1e-3 * cp.jobs as f64,
        "trace sim {} != results overhead {}",
        cp.total_sim_ms,
        total_overhead
    );
    // The flamegraph's engine.job root row sees every job.
    let aggs = analyze::flamegraph(&tree);
    let job_row = aggs
        .iter()
        .find(|a| a.path == "engine.job")
        .expect("engine.job path missing from flamegraph");
    assert_eq!(job_row.count, cp.jobs);
}

/// On a shape where the stealing dispatcher's placement is forced (its
/// virtual replay and the analysis lane math both reduce to the same
/// arithmetic), the trace-side bound and the model's speedup agree
/// exactly; on the engine's real skewed corpus the bound stays within
/// `(1, workers]`.
#[test]
fn critical_path_bound_agrees_with_modeled_speedup() {
    // Synthetic forced shape: 16 equal jobs on 4 workers. LPT deals 4
    // per lane, nobody steals, makespan = total/4 — the modeled speedup
    // is exactly 4 and so is the lane bound from a trace of the same
    // placement.
    let durations = vec![10.0f64; 16];
    let modeled = model_schedule(SchedPolicy::Stealing, &durations, &durations, 4);
    assert!((modeled.speedup() - 4.0).abs() < 1e-9);

    let mut lines = Vec::new();
    for (i, d) in durations.iter().enumerate() {
        lines.push(format!(
            "{{\"id\":{},\"parent\":null,\"name\":\"engine.job\",\"t_us\":0,\"wall_us\":{},\"sim_ms\":{:.4},\"tags\":{{\"worker\":\"{}\",\"stolen\":\"false\"}}}}",
            i + 1,
            (d * 1000.0) as u64,
            d,
            i % 4
        ));
    }
    let spans = analyze::read_str(&lines.join("\n")).unwrap();
    let cp = analyze::critical_path(&SpanTree::build(spans).unwrap());
    let bound = cp.speedup_bound_sim();
    assert!(
        (bound - modeled.speedup()).abs() / modeled.speedup() < 0.10,
        "trace bound {bound} vs modeled {} diverged beyond 10%",
        modeled.speedup()
    );

    // Real engine placement on a skewed corpus. Live stealing is paced
    // by *wall* progress while the bound sums *sim* charges, so how close
    // the bound comes to the model depends on the host; only the range is
    // a property of the code.
    let corpus = Corpus::generate(
        11,
        30,
        &[
            UbClass::Alloc,
            UbClass::Panic,
            UbClass::DataRace,
            UbClass::Validity,
        ],
    );
    let tracer = Tracer::in_memory();
    let spec = brain_spec();
    let outcome = Engine::new(4)
        .with_tracer(tracer.clone())
        .run_batch(&spec, &corpus.cases, 42);
    assert_eq!(outcome.results.len(), corpus.cases.len());
    let spans = analyze::read_str(&tracer.lines().join("\n")).unwrap();
    let cp = analyze::critical_path(&SpanTree::build(spans).unwrap());
    let bound = cp.speedup_bound_sim();
    assert!(
        bound > 1.0 && bound <= 4.0 + 1e-9,
        "bound {bound} outside (1, workers]"
    );
}
