//! End-to-end checks of the PR 7 observability layer against a real
//! batch run: every trace line is valid JSON, span nesting reconstructs,
//! repair spans account for (essentially all of) each case's simulated
//! overhead, and — the cardinal rule — attaching a tracer changes no
//! result byte.
//!
//! The test lives in `rb_serve` (rather than `rb_engine`) because this
//! crate has both the engine and a real JSON parser to validate the
//! trace with.

use rb_dataset::Corpus;
use rb_engine::{results_to_json, Engine, SystemSpec};
use rb_llm::ModelId;
use rb_miri::UbClass;
use rb_obs::json::{parse, Value};
use rustbrain::RustBrainConfig;
use std::collections::HashMap;

fn spec() -> SystemSpec {
    let mut config = RustBrainConfig::for_model(ModelId::Gpt4, 42);
    config.use_knowledge = true;
    SystemSpec::brain(config)
}

/// One decoded trace line.
struct SpanRec {
    id: u64,
    parent: Option<u64>,
    name: String,
    sim_ms: f64,
}

fn decode(lines: &[String]) -> Vec<SpanRec> {
    lines
        .iter()
        .map(|line| {
            let v = parse(line).unwrap_or_else(|e| panic!("unparseable trace line ({e}): {line}"));
            SpanRec {
                id: v.get("id").and_then(Value::as_u64).expect("span id"),
                parent: v.get("parent").and_then(Value::as_u64),
                name: v
                    .get("name")
                    .and_then(Value::as_str)
                    .expect("span name")
                    .to_owned(),
                sim_ms: v
                    .get("sim_ms")
                    .and_then(Value::as_f64)
                    .expect("span sim_ms"),
            }
        })
        .collect()
}

#[test]
fn traced_batch_is_parseable_nested_and_byte_identical() {
    let corpus = Corpus::generate(7, 2, &[UbClass::Alloc, UbClass::Panic, UbClass::Uninit]);

    // Two engines with private caches: the only difference is the tracer.
    let plain = Engine::new(2).run_batch(&spec(), &corpus.cases, 7);
    let tracer = rb_obs::Tracer::in_memory();
    let traced = Engine::new(2)
        .with_tracer(tracer.clone())
        .run_batch(&spec(), &corpus.cases, 7);

    // Observe, never perturb: identical result bytes with tracing on.
    assert_eq!(
        results_to_json(&plain.results),
        results_to_json(&traced.results),
        "tracing must not change the deterministic results document"
    );

    let spans = decode(&tracer.lines());
    assert!(!spans.is_empty(), "a traced batch must emit spans");

    // Nesting reconstructs: every parent id is a real span id, and the
    // expected span kinds all show up.
    let by_id: HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids must be unique");
    for span in &spans {
        if let Some(parent) = span.parent {
            assert!(by_id.contains_key(&parent), "dangling parent {parent}");
        }
    }
    for name in ["engine.job", "repair", "fast", "oracle.judge"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "expected at least one `{name}` span"
        );
    }

    // Every repair span's direct children must account for >= 95% of the
    // case's simulated overhead (they sum to it exactly by construction:
    // spans open at the cost model's charge sites).
    let mut child_sim: HashMap<u64, f64> = HashMap::new();
    for span in &spans {
        if let Some(parent) = span.parent {
            *child_sim.entry(parent).or_insert(0.0) += span.sim_ms;
        }
    }
    let mut checked = 0usize;
    for span in spans.iter().filter(|s| s.name == "repair") {
        let children = child_sim.get(&span.id).copied().unwrap_or(0.0);
        assert!(
            children >= 0.95 * span.sim_ms - 1e-6,
            "repair span {} covers only {children:.4} of {:.4} sim ms",
            span.id,
            span.sim_ms
        );
        checked += 1;
    }
    assert_eq!(
        checked,
        corpus.cases.len(),
        "one repair span per corpus case"
    );

    // The batch's per-class latency histograms landed in the global
    // registry for every class the corpus touched.
    let metrics = rb_obs::metrics();
    for class in [UbClass::Alloc, UbClass::Panic, UbClass::Uninit] {
        let hist = metrics.histogram(
            "rustbrain_repair_latency_sim_ms",
            Some(("class", class.label())),
        );
        assert!(
            hist.is_some_and(|h| h.count > 0),
            "missing repair-latency histogram for {}",
            class.label()
        );
    }
}

#[test]
fn untraced_runs_emit_nothing() {
    let corpus = Corpus::generate(3, 1, &[UbClass::Alloc]);
    let tracer = rb_obs::Tracer::in_memory();
    // The tracer exists but is never attached: spans stay inert.
    let _ = Engine::new(1).run_batch(&spec(), &corpus.cases, 3);
    assert!(tracer.lines().is_empty());
}
