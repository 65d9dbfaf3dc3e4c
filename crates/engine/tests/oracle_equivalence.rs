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
//!
//! The same holds on the warm path, where repeated repair steps are served
//! from the cache's transition memo without re-deriving the edit, and
//! the split itself must not depend on whether a judgement came from the
//! memo or from a plain lookup.

use proptest::prelude::*;
use rb_dataset::Corpus;
use rb_engine::{CachedOracle, OracleCache};
use rb_lang::Program;
use rb_llm::ModelId;
use rb_miri::{DirectOracle, MiriReport, Oracle, OracleUse, StateMemo, UbClass};
use rustbrain::{KnowledgeBase, RepairOutcome, RustBrain, RustBrainConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// [`repair_with`] on each case's own buggy handle, as the batch engine
/// repairs it: a second pass on a warm cache then starts every repair
/// from a handle the cache holds.
fn repair_shared_with(oracle: Arc<dyn Oracle>, seed: u64, corpus: &Corpus) -> Vec<RepairOutcome> {
    repair_counting(oracle, seed, corpus, KnowledgeBase::new()).0
}

/// [`repair_shared_with`] from a brain that starts with `knowledge`,
/// also returning how many times the brain derived what the state slots
/// keep: its model's facts, and program features (the inputs' and the
/// knowledge-base queries').
fn repair_counting(
    oracle: Arc<dyn Oracle>,
    seed: u64,
    corpus: &Corpus,
    knowledge: KnowledgeBase,
) -> (Vec<RepairOutcome>, u64, u64) {
    let mut brain = RustBrain::with_oracle(RustBrainConfig::for_model(ModelId::Gpt4, seed), oracle)
        .with_knowledge_base(knowledge);
    let outcomes = corpus
        .cases
        .iter()
        .map(|case| brain.repair_shared(&case.buggy, &case.gold_outputs()))
        .collect();
    (
        outcomes,
        brain.model().facts_derived(),
        brain.features_derived(),
    )
}

/// A [`CachedOracle`] that counts how often an edit is derived rather
/// than served from the memo, and how many state slots it hands out
/// (`slots`) and how many of those were still empty (`empty_slots`).
struct DeriveCounting {
    inner: CachedOracle,
    derived: AtomicUsize,
    slots: AtomicUsize,
    empty_slots: AtomicUsize,
}

impl DeriveCounting {
    fn new(cache: &Arc<OracleCache>) -> DeriveCounting {
        DeriveCounting {
            inner: CachedOracle::new(Arc::clone(cache)),
            derived: AtomicUsize::new(0),
            slots: AtomicUsize::new(0),
            empty_slots: AtomicUsize::new(0),
        }
    }
}

impl Oracle for DeriveCounting {
    fn judge(&self, program: &Program) -> Arc<MiriReport> {
        self.inner.judge(program)
    }

    fn judge_shared(&self, program: &Arc<Program>) -> (Arc<MiriReport>, bool) {
        self.inner.judge_shared(program)
    }

    fn judge_edit(
        &self,
        from: &Arc<Program>,
        edit: u64,
        derive: &mut dyn FnMut() -> Option<Program>,
        used: &mut OracleUse,
    ) -> Option<(Arc<Program>, Arc<MiriReport>)> {
        let mut counted = || {
            self.derived.fetch_add(1, Ordering::Relaxed);
            derive()
        };
        self.inner.judge_edit(from, edit, &mut counted, used)
    }

    fn state_memo(&self, state: &Arc<Program>) -> Option<Arc<StateMemo>> {
        let memo = self.inner.state_memo(state)?;
        self.slots.fetch_add(1, Ordering::Relaxed);
        if memo.filled() == 0 {
            self.empty_slots.fetch_add(1, Ordering::Relaxed);
        }
        Some(memo)
    }
}

/// The pre-memo behaviour over a cache: it implements only
/// `judge_shared`, so every edit takes `Oracle::judge_edit`'s default
/// path — derive, then a plain lookup.
struct LookupOnly(Arc<OracleCache>);

impl Oracle for LookupOnly {
    fn judge(&self, program: &Program) -> Arc<MiriReport> {
        self.0.report(program)
    }

    fn judge_shared(&self, program: &Arc<Program>) -> (Arc<MiriReport>, bool) {
        self.0.lookup_shared(program)
    }
}

/// Per-case executed/cached splits.
fn splits(outcomes: &[RepairOutcome]) -> Vec<(usize, usize)> {
    outcomes
        .iter()
        .map(|o| (o.oracle_executed, o.oracle_cached))
        .collect()
}

/// Repairs `corpus` twice through a derive-counting oracle over `cache`,
/// checking both passes against `direct` and the cache's hit counter.
/// Returns the edits derived in each pass.
fn two_passes_match_direct(
    cache: &Arc<OracleCache>,
    direct: &[RepairOutcome],
    corpus: &Corpus,
) -> Result<[usize; 2], TestCaseError> {
    let oracle = Arc::new(DeriveCounting::new(cache));
    let mut derived = [0; 2];
    for pass in &mut derived {
        let hits_before = cache.stats().hits;
        let derived_before = oracle.derived.load(Ordering::Relaxed);
        let outcomes = repair_shared_with(Arc::clone(&oracle) as Arc<dyn Oracle>, 7, corpus);
        prop_assert_eq!(outcomes.len(), direct.len());
        let mut served = 0usize;
        for (d, o) in direct.iter().zip(&outcomes) {
            prop_assert_eq!(normalized(d), normalized(o));
            served += o.oracle_cached;
        }
        prop_assert_eq!(served as u64, cache.stats().hits - hits_before);
        *pass = oracle.derived.load(Ordering::Relaxed) - derived_before;
    }
    Ok(derived)
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

    /// Two passes over one cache: the second is served entirely from the
    /// transition memo (no edit is derived again), and both match the
    /// direct oracle.
    #[test]
    fn warm_memo_passes_match_direct(
        corpus_seed in 0u64..500,
        class_pick in 0usize..CLASS_POOL.len(),
    ) {
        let corpus = Corpus::generate(corpus_seed, 1, &[CLASS_POOL[class_pick]]);
        let direct = repair_shared_with(Arc::new(DirectOracle), 7, &corpus);

        let cache = Arc::new(OracleCache::new());
        let [cold, warm] = two_passes_match_direct(&cache, &direct, &corpus)?;
        prop_assert!(cold > 0, "the first pass derived no edit");
        prop_assert_eq!(warm, 0, "the second pass derived an edit again");
        prop_assert_eq!(cache.stats().misses, cache.stats().entries);
    }

    /// Two passes over one cache, each with a new brain that
    /// starts from a knowledge base learned on the corpus, so abstract
    /// reasoning queries it: the first pass fills the state slots, the
    /// second finds every state's facts and features in them — it fills
    /// no new slot and derives no facts, no input features and no query
    /// embedding — and both match the direct oracle bit for bit.
    #[test]
    fn warm_state_facts_passes_match_direct(
        corpus_seed in 0u64..500,
        class_pick in 0usize..CLASS_POOL.len(),
    ) {
        let classes = [CLASS_POOL[class_pick], CLASS_POOL[(class_pick + 2) % CLASS_POOL.len()]];
        let corpus = Corpus::generate(corpus_seed, 1, &classes);
        let mut learner = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 3));
        for case in &corpus.cases {
            learner.repair_shared(&case.buggy, &case.gold_outputs());
        }
        let learned = learner.knowledge();
        let direct =
            repair_counting(Arc::new(DirectOracle), 7, &corpus, learned.snapshot()).0;

        let cache = Arc::new(OracleCache::new());
        let oracle = Arc::new(DeriveCounting::new(&cache));
        let mut passes = Vec::new();
        for _ in 0..2 {
            let (slots, empty) = (
                oracle.slots.load(Ordering::Relaxed),
                oracle.empty_slots.load(Ordering::Relaxed),
            );
            let (outcomes, facts, features) = repair_counting(
                Arc::clone(&oracle) as Arc<dyn Oracle>,
                7,
                &corpus,
                learned.snapshot(),
            );
            prop_assert_eq!(outcomes.len(), direct.len());
            for (d, o) in direct.iter().zip(&outcomes) {
                prop_assert_eq!(normalized(d), normalized(o));
            }
            passes.push((
                oracle.slots.load(Ordering::Relaxed) - slots,
                oracle.empty_slots.load(Ordering::Relaxed) - empty,
                facts,
                features,
            ));
        }
        let (cold, warm) = (passes[0], passes[1]);
        prop_assert!(cold.1 > 0 && cold.2 > 0, "the first pass filled nothing: {:?}", cold);
        prop_assert!(cold.3 >= corpus.cases.len() as u64, "inputs not featured: {:?}", cold);
        prop_assert!(warm.0 > 0, "the second pass asked for no slot");
        prop_assert_eq!((warm.1, warm.2, warm.3), (0, 0, 0), "the second pass filled or derived");
    }

    /// The memo changes no attribution: per case, the executed/cached
    /// split through `CachedOracle` equals the split through an oracle
    /// that derives and looks up every edit — cold, and on a second sweep
    /// of the same cache.
    #[test]
    fn memo_keeps_the_telemetry_split(
        corpus_seed in 0u64..500,
        class_pick in 0usize..CLASS_POOL.len(),
    ) {
        let classes = [CLASS_POOL[class_pick], CLASS_POOL[(class_pick + 1) % CLASS_POOL.len()]];
        let corpus = Corpus::generate(corpus_seed, 1, &classes);
        let (memo_cache, plain_cache) = (Arc::new(OracleCache::new()), Arc::new(OracleCache::new()));
        let memo = Arc::new(CachedOracle::new(Arc::clone(&memo_cache)));
        let plain = Arc::new(LookupOnly(Arc::clone(&plain_cache)));
        for sweep in ["cold", "second"] {
            let m = repair_shared_with(Arc::clone(&memo) as Arc<dyn Oracle>, 3, &corpus);
            let p = repair_shared_with(Arc::clone(&plain) as Arc<dyn Oracle>, 3, &corpus);
            prop_assert_eq!(splits(&m), splits(&p), "{} sweep", sweep);
            prop_assert_eq!(memo_cache.stats(), plain_cache.stats());
        }
    }
}
