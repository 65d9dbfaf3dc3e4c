//! The oracle seam's core contract, property-tested: a full `RustBrain`
//! pipeline run judging through a `CachedOracle` produces a bit-identical
//! `RepairOutcome` to the same run judging through `DirectOracle` — the
//! cache may change *when* the interpreter executes, never *what* any
//! part of the outcome looks like.
//!
//! The single sanctioned exception is the `oracle_executed`/
//! `oracle_cached` telemetry split (that difference is the cache's entire
//! point); the comparison checks its invariant — `executed + cached +
//! prevetoed >= oracle_runs`, since the split also covers the initial
//! detection and rollback re-verifications that `oracle_runs` excludes,
//! with the total itself oracle-independent — and then normalizes the
//! executed/cached halves away. `oracle_prevetoed` is NOT normalized:
//! it must match under either oracle (nothing vetoes a judgement, so it
//! is 0 in both).

use proptest::prelude::*;
use rb_dataset::Corpus;
use rb_engine::{CachedOracle, OracleCache};
use rb_llm::ModelId;
use rb_miri::{DirectOracle, Oracle, UbClass};
use rustbrain::{RepairOutcome, RustBrain, RustBrainConfig};
use std::sync::Arc;

const CLASS_POOL: [UbClass; 6] = [
    UbClass::Alloc,
    UbClass::Panic,
    UbClass::DanglingPointer,
    UbClass::DataRace,
    UbClass::Uninit,
    UbClass::StackBorrow,
];

/// The outcome with the telemetry split checked and folded out: what is
/// left must match to the last bit (floats compared via `Debug`, which
/// prints every significant digit). The *total* judgement count is kept
/// in the comparison — the cache may only relabel judgements as cached,
/// never add or remove any.
fn normalized(out: &RepairOutcome) -> String {
    assert!(
        out.oracle_executed + out.oracle_cached + out.oracle_prevetoed >= out.oracle_runs,
        "telemetry split lost budget-counted oracle runs"
    );
    format!(
        "judgements={:?} prevetoed={:?} passed={:?} acceptable={:?} overhead_ms={:?} \
         oracle_runs={:?} solutions_tried={:?} final={:?} history={:?} rules={:?} \
         rollbacks={:?} best={:?} class={:?}",
        out.oracle_executed + out.oracle_cached + out.oracle_prevetoed,
        out.oracle_prevetoed,
        out.passed,
        out.acceptable,
        out.overhead_ms,
        out.oracle_runs,
        out.solutions_tried,
        out.final_program,
        out.error_history,
        out.rules_applied,
        out.rollbacks,
        out.best_solution,
        out.class,
    )
}

fn repair_with(oracle: Arc<dyn Oracle>, seed: u64, corpus: &Corpus) -> Vec<RepairOutcome> {
    // One stateful brain across the whole corpus: knowledge-base inserts
    // and prior updates from earlier cases steer later ones, so a verdict
    // divergence anywhere would snowball into a visible difference.
    let mut brain = RustBrain::with_oracle(RustBrainConfig::for_model(ModelId::Gpt4, seed), oracle);
    corpus
        .cases
        .iter()
        .map(|case| brain.repair(&case.buggy, &case.gold_outputs()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cached_and_direct_pipelines_are_bit_identical(
        corpus_seed in 0u64..1_000,
        brain_seed in 0u64..1_000,
        class_pick in 0usize..CLASS_POOL.len(),
    ) {
        let classes = vec![
            CLASS_POOL[class_pick],
            CLASS_POOL[(class_pick + corpus_seed as usize) % CLASS_POOL.len()],
        ];
        let corpus = Corpus::generate(corpus_seed, 1, &classes);

        let direct = repair_with(Arc::new(DirectOracle), brain_seed, &corpus);
        let cache = Arc::new(OracleCache::new());
        let cached = repair_with(
            Arc::new(CachedOracle::new(Arc::clone(&cache))),
            brain_seed,
            &corpus,
        );

        prop_assert_eq!(direct.len(), cached.len());
        let mut cache_served = 0usize;
        for (d, c) in direct.iter().zip(&cached) {
            prop_assert_eq!(normalized(d), normalized(c));
            prop_assert_eq!(d.oracle_cached, 0, "DirectOracle reported cache hits");
            cache_served += c.oracle_cached;
        }
        // The attribution must agree with the cache's own counters.
        prop_assert_eq!(cache_served as u64, cache.stats().hits);
    }

    /// A minimum-size bounded cache — `bounded(1)` rounds up to one entry
    /// per shard, 16 total, the smallest enforceable ceiling — evicts
    /// constantly under a whole-corpus repair, and still must not change
    /// a single bit of any outcome.
    #[test]
    fn eviction_thrash_preserves_outcomes(
        corpus_seed in 0u64..500,
        class_pick in 0usize..CLASS_POOL.len(),
    ) {
        let corpus = Corpus::generate(corpus_seed, 1, &[CLASS_POOL[class_pick]]);
        let direct = repair_with(Arc::new(DirectOracle), 7, &corpus);
        let tiny = Arc::new(OracleCache::bounded(1));
        let thrashed = repair_with(Arc::new(CachedOracle::new(Arc::clone(&tiny))), 7, &corpus);
        for (d, t) in direct.iter().zip(&thrashed) {
            prop_assert_eq!(normalized(d), normalized(t));
        }
        let stats = tiny.stats();
        prop_assert!(stats.entries <= stats.capacity);
        prop_assert_eq!(stats.capacity, 16);
    }
}
