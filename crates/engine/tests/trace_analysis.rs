//! The trace-analysis layer against the real engine: a traced batch
//! must parse cleanly through `rb_obs::analyze`, and its `engine.job`
//! spans must name the case and worker the batch outcome reports.

use std::collections::{HashMap, HashSet};

use rb_dataset::Corpus;
use rb_engine::{Engine, SystemSpec};
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
    // Every job span names the case and worker the outcome records for
    // that job, and every job has exactly one span.
    let placement: HashMap<&str, usize> = outcome
        .jobs
        .iter()
        .map(|j| (j.result.case_id.as_str(), j.worker))
        .collect();
    assert_eq!(placement.len(), corpus.cases.len());
    let job_spans: Vec<_> = tree
        .spans()
        .iter()
        .filter(|s| s.name == "engine.job")
        .collect();
    assert_eq!(job_spans.len(), outcome.jobs.len());
    let mut seen = HashSet::new();
    for s in &job_spans {
        let case = s.tag("case").expect("engine.job missing case tag");
        let worker: usize = s
            .tag("worker")
            .expect("engine.job missing worker tag")
            .parse()
            .expect("worker tag must be numeric");
        assert_eq!(placement.get(case), Some(&worker), "case {case}");
        assert!(seen.insert(case), "case {case} traced twice");
    }
    // Job sim totals in the trace reconcile with the batch's results —
    // the analysis reads the same numbers the engine reported.
    // (The wire rounds sim_ms to 4 decimals, so reconciliation is to
    // within half a unit in the last place per job.)
    let total_sim: f64 = job_spans.iter().map(|s| s.sim_ms).sum();
    let total_overhead: f64 = outcome.results.iter().map(|r| r.overhead_ms).sum();
    assert!(
        (total_sim - total_overhead).abs() < 1e-3 * job_spans.len() as f64,
        "trace sim {total_sim} != results overhead {total_overhead}"
    );
    // The flamegraph's engine.job root row sees every job.
    let aggs = analyze::flamegraph(&tree);
    let job_row = aggs
        .iter()
        .find(|a| a.path == "engine.job")
        .expect("engine.job path missing from flamegraph");
    assert_eq!(job_row.count as usize, job_spans.len());
}
