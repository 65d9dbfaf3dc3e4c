//! Coverage of the content-addressed oracle cache: key semantics
//! (structure, not strings), hit behaviour, the guarantee that caching
//! never changes reported results — including `overhead_ms` — the
//! transition memo that serves repeated edits, and repairs that continue
//! from the cache's own handle for their input.

use rb_dataset::Corpus;
use rb_engine::{program_key, CachedOracle, Engine, OracleCache, SystemSpec};
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_lang::Program;
use rb_llm::ModelId;
use rb_miri::{run_program, MiriReport, Oracle, OracleUse, StateMemo, UbClass};
use rustbrain::{RustBrain, RustBrainConfig};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn program(src: &str) -> Program {
    parse_program(src).unwrap()
}

#[test]
fn identical_programs_hash_equal() {
    let a = program("fn main() { print(1i32); }");
    let b = program("fn main() { print(1i32); }");
    assert_eq!(program_key(&a), program_key(&b));
    // Whitespace is not structure: the key addresses the AST.
    let c = program("fn main()    {\n\n  print(1i32);\n }");
    assert_eq!(program_key(&a), program_key(&c));
}

#[test]
fn printer_round_trip_preserves_the_key() {
    // Every buggy and gold program of a mixed corpus must key identically
    // after printing and re-parsing: the cache address survives any
    // source-level detour.
    let corpus = Corpus::generate(
        3,
        2,
        &[UbClass::Alloc, UbClass::DataRace, UbClass::Validity],
    );
    for case in &corpus.cases {
        for p in [&case.buggy, &case.gold] {
            let reparsed = parse_program(&print_program(p)).unwrap();
            assert_eq!(
                &reparsed, &**p,
                "{}: printer round trip changed the AST",
                case.id
            );
            assert_eq!(
                program_key(&reparsed),
                program_key(p),
                "{}: printer round trip changed the key",
                case.id
            );
        }
    }
}

#[test]
fn semantically_different_programs_hash_differently() {
    let base = program("fn main() { print(1i32); }");
    let different_literal = program("fn main() { print(2i32); }");
    let different_shape = program("fn main() { let x: i32 = 1; print(x); }");
    assert_ne!(program_key(&base), program_key(&different_literal));
    assert_ne!(program_key(&base), program_key(&different_shape));
    // Buggy and gold sides of a case are semantically different programs.
    let corpus = Corpus::generate(5, 2, &[UbClass::Panic]);
    for case in &corpus.cases {
        assert_ne!(
            program_key(&case.buggy),
            program_key(&case.gold),
            "{}: buggy and gold share a key",
            case.id
        );
    }
}

#[test]
fn hits_skip_oracle_execution() {
    let cache = OracleCache::new();
    let p = program("fn main() { print(3i32); }");
    let first = cache.report(&p);
    assert_eq!(cache.stats().misses, 1);
    // Same structure through a printing round trip: served from cache.
    let round_tripped = parse_program(&print_program(&p)).unwrap();
    let second = cache.report(&round_tripped);
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    // Not merely an equal verdict — the *same* verdict allocation, which
    // is only possible if the oracle did not run again.
    assert!(Arc::ptr_eq(&first, &second));
}

#[test]
fn cache_hits_preserve_overhead_ms_semantics() {
    // Two sweeps on one engine: the second is served from a warm cache
    // yet must report the exact same simulated overhead_ms per case —
    // the cache dodges real oracle executions, never simulated time.
    let corpus = Corpus::generate(11, 2, &[UbClass::Alloc, UbClass::Uninit]);
    let spec = SystemSpec::brain(rustbrain::RustBrainConfig::for_model(
        rb_llm::ModelId::Gpt4,
        0,
    ));
    let engine = Engine::new(2);
    let cold = engine.run_batch(&spec, &corpus.cases, 1);
    let warm = engine.run_batch(&spec, &corpus.cases, 1);
    assert!(cold.stats.oracle_executed > 0);
    assert_eq!(
        warm.stats.oracle_executed, 0,
        "warm sweep re-ran the oracle"
    );
    assert!(warm.stats.oracle_cached > 0);
    for (c, w) in cold.results.iter().zip(&warm.results) {
        assert_eq!(c.case_id, w.case_id);
        assert_eq!(
            c.overhead_ms.to_bits(),
            w.overhead_ms.to_bits(),
            "{}: cache hit changed overhead_ms",
            c.case_id
        );
    }
    assert_eq!(cold.results, warm.results);
}

#[test]
fn a_cold_batch_keeps_each_case_gold_handle() {
    let corpus = Corpus::generate(4, 1, &UbClass::ALL);
    let mut golds = std::collections::HashSet::new();
    assert!(
        corpus
            .cases
            .iter()
            .all(|c| golds.insert(program_key(&c.gold))),
        "the corpus repeats a gold program"
    );
    // One worker keeps the job order, and so which handle a miss stores,
    // fixed.
    let engine = Engine::new(1);
    let spec = SystemSpec::brain(rustbrain::RustBrainConfig::for_model(
        rb_llm::ModelId::Gpt4,
        4,
    ));
    let outcome = engine.run_batch(&spec, &corpus.cases, 4);
    assert_eq!(outcome.results.len(), corpus.cases.len());
    // A gold miss stores the case's own handle: the case and the cache
    // entry are its only owners, and no copy was made.
    for case in &corpus.cases {
        assert_eq!(Arc::strong_count(&case.gold), 2, "{}", case.id);
    }
    drop(engine);
    for case in &corpus.cases {
        assert_eq!(Arc::strong_count(&case.gold), 1, "{}", case.id);
    }
}

// ---------------------------------------------------------------------------
// The transition memo behind `CachedOracle::judge_edit`
// ---------------------------------------------------------------------------

/// A `CachedOracle` over its own cache, with `from` judged so the cache
/// holds its handle.
fn memo_oracle(from: &Arc<Program>) -> (CachedOracle, Arc<OracleCache>) {
    let cache = Arc::new(OracleCache::new());
    let oracle = CachedOracle::new(Arc::clone(&cache));
    oracle.judge_recording(from, &mut OracleUse::default());
    (oracle, cache)
}

/// A `derive` yielding `src` that counts its calls in `calls`.
fn counting<'a>(calls: &'a Cell<usize>, src: &'a str) -> impl FnMut() -> Option<Program> + 'a {
    move || {
        calls.set(calls.get() + 1);
        Some(program(src))
    }
}

const FROM: &str = "fn main() { print(1i32); }";
const EDITED: &str = "fn main() { print(2i32); }";

#[test]
fn an_edit_is_derived_once_per_handle() {
    let from = Arc::new(program(FROM));
    let (oracle, cache) = memo_oracle(&from);
    let calls = Cell::new(0);
    let mut used = OracleUse::default();
    let (first, first_report) = oracle
        .judge_edit(&from, 4, &mut counting(&calls, EDITED), &mut used)
        .expect("the edit applies");
    let (second, second_report) = oracle
        .judge_edit(&from, 4, &mut counting(&calls, EDITED), &mut used)
        .expect("the edit applies");
    assert_eq!(calls.get(), 1, "a remembered edit was derived again");
    assert!(Arc::ptr_eq(&first, &second));
    assert!(Arc::ptr_eq(&first_report, &second_report));
    assert_eq!(*first, program(EDITED));
    assert_eq!(*first_report, run_program(&first));
    // The served judgement is recorded as the hit it replaces.
    assert_eq!((used.executed, used.cached), (1, 1));
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    // An equal program behind another handle is not the same state:
    // the memo is keyed by identity, so it derives again.
    let twin = Arc::new(program(FROM));
    oracle.judge_edit(&twin, 4, &mut counting(&calls, EDITED), &mut used);
    assert_eq!(calls.get(), 2);
}

#[test]
fn a_refused_edit_is_remembered() {
    let from = Arc::new(program(FROM));
    let (oracle, cache) = memo_oracle(&from);
    let calls = Cell::new(0);
    let mut refuse = || {
        calls.set(calls.get() + 1);
        None
    };
    let mut used = OracleUse::default();
    for _ in 0..3 {
        assert!(oracle
            .judge_edit(&from, 6, &mut refuse, &mut used)
            .is_none());
    }
    assert_eq!(calls.get(), 1);
    // Nothing was judged, so nothing was recorded.
    assert_eq!(used.total(), 0);
    assert_eq!(cache.stats().hits, 0);
}

#[test]
fn the_drift_bit_names_another_edit() {
    let from = Arc::new(program(FROM));
    let (oracle, _cache) = memo_oracle(&from);
    let (plain_calls, drift_calls) = (Cell::new(0), Cell::new(0));
    let mut used = OracleUse::default();
    let rule = 9u64;
    for _ in 0..2 {
        let (plain, _) = oracle
            .judge_edit(
                &from,
                rule * 2,
                &mut counting(&plain_calls, EDITED),
                &mut used,
            )
            .unwrap();
        let (drifted, _) = oracle
            .judge_edit(
                &from,
                rule * 2 + 1,
                &mut counting(&drift_calls, "fn main() { print(3i32); }"),
                &mut used,
            )
            .unwrap();
        assert_eq!(*plain, program(EDITED));
        assert_eq!(*drifted, program("fn main() { print(3i32); }"));
    }
    assert_eq!((plain_calls.get(), drift_calls.get()), (1, 1));
}

#[test]
fn an_equal_successor_is_served_by_content_with_the_canonical_handle() {
    let from = Arc::new(program(FROM));
    let (oracle, cache) = memo_oracle(&from);
    // The successor's content was judged before, behind another handle.
    let earlier = Arc::new(program(EDITED));
    let (earlier_report, hit) = oracle.judge_shared(&earlier);
    assert!(!hit);
    let mut used = OracleUse::default();
    let calls = Cell::new(0);
    let (served, report) = oracle
        .judge_edit(&from, 2, &mut counting(&calls, EDITED), &mut used)
        .unwrap();
    assert!(Arc::ptr_eq(&served, &earlier), "not the canonical handle");
    assert!(Arc::ptr_eq(&report, &earlier_report));
    assert_eq!((used.executed, used.cached), (0, 1));
    // Served again, now from the memo: still the canonical handle.
    let (again, _) = oracle
        .judge_edit(&from, 2, &mut counting(&calls, EDITED), &mut used)
        .unwrap();
    assert!(Arc::ptr_eq(&again, &earlier));
    assert_eq!(calls.get(), 1);
    assert_eq!((used.executed, used.cached), (0, 2));
    assert_eq!(cache.stats().entries, 2);
}

// ---------------------------------------------------------------------------
// Repairs continue from the cache's canonical handle
// ---------------------------------------------------------------------------

/// A `CachedOracle` that counts the `derive` calls its edits make.
struct DeriveCounting {
    inner: CachedOracle,
    derives: AtomicUsize,
}

impl Oracle for DeriveCounting {
    fn judge(&self, program: &Program) -> Arc<MiriReport> {
        self.inner.judge(program)
    }

    fn judge_counted(&self, program: &Program) -> (Arc<MiriReport>, bool) {
        self.inner.judge_counted(program)
    }

    fn judge_shared(&self, program: &Arc<Program>) -> (Arc<MiriReport>, bool) {
        self.inner.judge_shared(program)
    }

    fn judge_canonical(
        &self,
        program: &Arc<Program>,
        used: &mut OracleUse,
    ) -> (Arc<Program>, Arc<MiriReport>) {
        self.inner.judge_canonical(program, used)
    }

    fn judge_edit(
        &self,
        from: &Arc<Program>,
        edit: u64,
        derive: &mut dyn FnMut() -> Option<Program>,
        used: &mut OracleUse,
    ) -> Option<(Arc<Program>, Arc<MiriReport>)> {
        let mut counted = || {
            self.derives.fetch_add(1, Ordering::Relaxed);
            derive()
        };
        self.inner.judge_edit(from, edit, &mut counted, used)
    }

    fn state_memo(&self, state: &Arc<Program>) -> Option<Arc<StateMemo>> {
        self.inner.state_memo(state)
    }
}

#[test]
fn a_repeated_input_is_repaired_from_the_cached_handle() {
    let oracle = Arc::new(DeriveCounting {
        inner: CachedOracle::new(Arc::new(OracleCache::new())),
        derives: AtomicUsize::new(0),
    });
    let dangling = "fn main() { let q: *const i32 = 0 as *const i32; \
         { let x: i32 = 5; q = &raw const x; } \
         unsafe { print(*q); } }";
    let gold = ["5".to_owned()];
    // At seed 6 the first solution fails and the second repairs it.
    let repair = |input: &Arc<Program>| {
        let config = RustBrainConfig::for_model(ModelId::Gpt4, 6);
        let shared: Arc<dyn Oracle> = oracle.clone();
        RustBrain::with_oracle(config, shared).repair_shared(input, &gold)
    };
    let first = repair(&Arc::new(program(dangling)));
    let derived = oracle.derives.load(Ordering::Relaxed);
    assert!(derived > 1, "the first repair derived {derived} edits");
    assert_eq!(first.solutions_tried, 2);
    // An equal input in its own allocation, as a repeated corpus program
    // or a daemon request arrives: every edit is served from the memo.
    let input = Arc::new(program(dangling));
    let second = repair(&input);
    assert_eq!(oracle.derives.load(Ordering::Relaxed), derived);
    assert_eq!(
        (first.passed, first.overhead_ms, &first.error_history),
        (second.passed, second.overhead_ms, &second.error_history)
    );
    assert_eq!(first.final_program, second.final_program);
    assert!(Arc::ptr_eq(&first.final_program, &second.final_program));
    assert_eq!(
        Arc::strong_count(&input),
        1,
        "the repair kept the caller's handle"
    );
}
