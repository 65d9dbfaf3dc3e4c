//! The engine's central contract, property-tested: for any corpus, any
//! base seed and any worker count in {1, 2, 4, 8}, the parallel engine
//! produces the same aggregate `CaseResult` vector — byte for byte — as
//! the plain serial reference loop (fresh per-case systems, direct
//! oracle, no threads, no cache), and merges the same knowledge base.

use proptest::prelude::*;
use rb_dataset::Corpus;
use rb_engine::{run_serial_reference, Engine, OracleCache, SystemSpec};
use rb_llm::ModelId;
use rb_miri::UbClass;
use rustbrain::RustBrainConfig;
use std::sync::Arc;

/// Classes sampled by the property (kept small: every proptest case runs
/// 4 worker counts of engine sweeps + 1 serial sweep).
const CLASS_POOL: [UbClass; 4] = [
    UbClass::Alloc,
    UbClass::Panic,
    UbClass::DanglingPointer,
    UbClass::DataRace,
];

fn spec_strategy() -> impl Strategy<Value = SystemSpec> {
    (0usize..3).prop_map(|i| match i {
        0 => SystemSpec::llm(ModelId::Gpt35),
        1 => SystemSpec::rust_assistant(),
        _ => SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 0)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_matches_serial_runner_for_any_worker_count(
        corpus_seed in 0u64..1_000,
        base_seed in 0u64..1_000,
        per_class in 1usize..3,
        spec in spec_strategy(),
    ) {
        // Pick 1–2 classes out of the pool from the corpus seed, so the
        // class mix varies without spending strategy slots on it (the
        // vendored proptest samples at most 4-tuples).
        let class_a = (corpus_seed % CLASS_POOL.len() as u64) as usize;
        let class_b = ((corpus_seed / 7) % CLASS_POOL.len() as u64) as usize;
        let classes: Vec<UbClass> = if class_a == class_b {
            vec![CLASS_POOL[class_a]]
        } else {
            vec![CLASS_POOL[class_a], CLASS_POOL[class_b]]
        };
        let corpus = Corpus::generate(corpus_seed, per_class, &classes);
        let serial = run_serial_reference(&spec, &corpus.cases, base_seed);
        // The 1-worker run is the reference for the merged KB: the
        // worker count must not change what a batch learns either.
        let kb_reference = Engine::new(1).run_batch(&spec, &corpus.cases, base_seed);
        prop_assert_eq!(&kb_reference.results, &serial);
        for jobs in [2usize, 4, 8] {
            let out = Engine::new(jobs).run_batch(&spec, &corpus.cases, base_seed);
            prop_assert_eq!(
                &out.results, &serial,
                "{} workers diverged from the serial runner (spec {})",
                jobs, spec.label()
            );
            prop_assert_eq!(
                format!("{:?}", out.knowledge),
                format!("{:?}", kb_reference.knowledge),
                "{} workers merged a different knowledge base (spec {})",
                jobs, spec.label()
            );
        }
    }
}

/// The 4-worker full-corpus determinism check CI runs in release mode, so
/// scheduling races are exercised under optimization. `Debug` formatting
/// includes every bit of every float, so string equality here is the
/// "byte-identical" claim of the acceptance criteria.
#[test]
fn four_workers_match_serial_on_full_corpus() {
    let corpus = Corpus::generate_full(42, 2);
    let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 0));
    let serial = run_serial_reference(&spec, &corpus.cases, 42);
    let engine = Engine::new(4);
    let parallel = engine.run_batch(&spec, &corpus.cases, 42);
    assert_eq!(parallel.results, serial);
    assert_eq!(format!("{:?}", parallel.results), format!("{serial:?}"));
    // Repeating the sweep on the now-warm cache must not change a single
    // bit either, and must no longer touch the oracle for gold references.
    let again = engine.run_batch(&spec, &corpus.cases, 42);
    assert_eq!(again.results, serial);
    assert_eq!(again.stats.cache.misses, 0);
}

/// Determinism must also hold when several engines share one cache
/// concurrently (the all_experiments fan-out shape).
#[test]
fn concurrent_engines_sharing_a_cache_stay_deterministic() {
    let corpus = Corpus::generate(9, 2, &[UbClass::Alloc, UbClass::Panic]);
    let spec = SystemSpec::rust_assistant();
    let serial = run_serial_reference(&spec, &corpus.cases, 7);
    let cache = Arc::new(OracleCache::new());
    std::thread::scope(|s| {
        for _ in 0..3 {
            let cache = Arc::clone(&cache);
            let corpus = &corpus;
            let spec = &spec;
            let serial = &serial;
            s.spawn(move || {
                let out = Engine::with_cache(2, cache).run_batch(spec, &corpus.cases, 7);
                assert_eq!(&out.results, serial);
            });
        }
    });
    // The whole stack judges through the shared cache now (gold
    // references *and* the repair loops' inner verifications), so the
    // cache holds at least one entry per case — buggy, gold and candidate
    // programs — and exactly one per structurally distinct program no
    // matter how many engines raced.
    let stats = cache.stats();
    assert!(stats.entries as usize >= corpus.len());
    assert!(stats.hits > 0, "three identical sweeps shared no verdicts");
}

/// The recovered cross-case learning must not cost determinism: for any
/// worker count, a batch seeded with the same knowledge snapshot produces
/// the same results and — merged in submission order — the same final
/// knowledge base.
#[test]
fn shared_kb_merge_is_identical_for_any_worker_count() {
    let corpus = Corpus::generate(21, 2, &[UbClass::Alloc, UbClass::Panic, UbClass::DataRace]);
    let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 0));

    // Pre-seed a snapshot by learning from a first batch.
    let seeded = Engine::new(2).run_batch(&spec, &corpus.cases, 3);
    let snapshot = seeded.knowledge.clone();
    assert!(
        !snapshot.is_empty(),
        "corpus produced no learnable repairs; the merge test would be vacuous"
    );

    let reference = Engine::new(1).run_batch_learned(&spec, &corpus.cases, 9, &snapshot);
    assert_eq!(reference.stats.kb.seeded_entries, snapshot.len());
    // The bounded-growth policy books every absorbed entry: final size is
    // seeded + merged minus what dedup/conflict/coalescing folded away.
    assert_eq!(
        reference.stats.kb.final_entries,
        snapshot.len() + reference.stats.kb.merged_inserts - reference.stats.kb.coalesced
    );
    assert!(
        reference.stats.kb.coalesced > 0,
        "re-sweeping the same corpus must rediscover shapes the policy collapses"
    );
    for jobs in [2usize, 4] {
        let out = Engine::new(jobs).run_batch_learned(&spec, &corpus.cases, 9, &snapshot);
        assert_eq!(out.results, reference.results, "{jobs} workers diverged");
        assert_eq!(
            format!("{:?}", out.knowledge),
            format!("{:?}", reference.knowledge),
            "{jobs} workers merged a different knowledge base"
        );
        assert_eq!(out.stats.kb, reference.stats.kb);
    }
}
