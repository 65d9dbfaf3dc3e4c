//! Coverage of the content-addressed oracle cache: key semantics
//! (structure, not strings), hit behaviour, and the guarantee that
//! caching never changes reported results — including `overhead_ms`.

use rb_dataset::Corpus;
use rb_engine::{program_key, Engine, OracleCache, SystemSpec};
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_lang::Program;
use rb_miri::UbClass;
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
    assert!(cold.stats.cache.misses > 0);
    assert_eq!(warm.stats.cache.misses, 0, "warm sweep re-ran the oracle");
    assert!(warm.stats.cache.hits > 0);
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
