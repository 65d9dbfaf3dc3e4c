//! The lint against the miri oracle over the 42-case seed corpus and the
//! repair pipeline's rule-edited candidates.
//!
//! The invariants this pins down:
//!
//! 1. **The findings are the report.** On buggy *and* gold programs and on
//!    candidates, the analysis is the oracle's error list, element by
//!    element ([`common::assert_findings_are_report`]).
//! 2. **Coverage.** The corpus exercises ≥ 10 of the 14 UB classes, and the
//!    lint's top finding is the diagnosed class on every covered bucket
//!    (printed as the per-class table).

mod common;

use common::assert_findings_are_report;
use rb_dataset::Corpus;
use rb_lint::analyze;
use rb_miri::UbClass;
use std::collections::BTreeMap;

const SEED: u64 = 42;
const PER_CLASS: usize = 3;

#[test]
fn corpus_precision_and_agreement() {
    let corpus = Corpus::generate_full(SEED, PER_CLASS);
    assert_eq!(corpus.cases.len(), 42, "seed corpus must be 42 cases");

    // per class: (cases, top finding is the case's class)
    let mut table: BTreeMap<UbClass, (usize, usize)> = BTreeMap::new();
    let mut flagged_classes: BTreeMap<UbClass, usize> = BTreeMap::new();

    for case in &corpus.cases {
        let a = analyze(&case.buggy);
        assert_findings_are_report(&a, &case.run_buggy());
        assert_findings_are_report(&analyze(&case.gold), &case.run_gold());

        let entry = table.entry(case.class).or_insert((0, 0));
        entry.0 += 1;
        let agrees = a.top().is_some_and(|f| f.class == case.class);
        if agrees {
            entry.1 += 1;
        }
        if a.findings.iter().any(|f| f.class == case.class) {
            *flagged_classes.entry(case.class).or_insert(0) += 1;
        }
    }

    println!("per-class top finding (class: cases agree):");
    for (class, (cases, agree)) in &table {
        println!("  {:<16} {cases:>2} {agree:>2}", class.label());
    }

    // At least 10 of 14 buckets flagged by the lint.
    assert!(
        flagged_classes.len() >= 10,
        "lint flags only {} of 14 classes: {flagged_classes:?}",
        flagged_classes.len()
    );

    // The top finding should agree with the diagnosed class on the vast
    // majority of cases; require agreement on at least 10 buckets for every
    // case in the bucket.
    let fully_agreeing = table.iter().filter(|(_, (c, a))| a == c).count();
    assert!(
        fully_agreeing >= 10,
        "only {fully_agreeing} classes fully agree: {table:?}"
    );
}

/// Repairs produce *rule-edited candidates*, so the contract must hold on
/// that distribution too: every library rule (good and hallucinated)
/// applied to every case it addresses, checked against the oracle across
/// several corpus seeds.
#[test]
fn sound_on_rule_edited_candidates() {
    use rb_llm::rules::RepairRule;
    for seed in [7, 42] {
        let corpus = Corpus::generate_full(seed, 1);
        for case in &corpus.cases {
            let report = case.run_buggy();
            let Some(primary) = report.primary() else {
                continue;
            };
            let rules = RepairRule::ALL
                .iter()
                .chain(RepairRule::HALLUCINATIONS.iter());
            for rule in rules {
                let Some(candidate) = rule.apply(&case.buggy, primary) else {
                    continue;
                };
                let oracle = rb_miri::interp::run_program(&candidate);
                assert_findings_are_report(&analyze(&candidate), &oracle);
            }
        }
    }
}

#[test]
fn analysis_is_deterministic_on_corpus() {
    let corpus = Corpus::generate_full(SEED, 1);
    for case in &corpus.cases {
        let a = analyze(&case.buggy);
        let b = analyze(&case.buggy);
        assert_eq!(a, b, "{}: analysis not deterministic", case.id);
    }
}

/// After a call returns or a join finishes, the lint blames the statement
/// the oracle blames: the caller's, not the callee's or the spawn's. A
/// thread that copies two locals and then observes one's address gets the
/// finding the oracle's own layout produces.
#[test]
fn findings_after_a_call_or_a_join_anchor_where_the_oracle_does() {
    let cases = [
        (
            "fn dangling() -> *const i32 { let x: i32 = 5; \
             let q: *const i32 = &raw const x; return q; } \
             fn main() { print(1i32); unsafe { print(*dangling()); } }",
            UbClass::DanglingPointer,
            "fn#1.1",
        ),
        (
            "fn main() { let x: i32 = 1; spawn { print(x); } \
             { join; let p: *const i32 = 0 as *const i32; unsafe { print(*p); } } }",
            UbClass::Provenance,
            "fn#0.2",
        ),
        (
            "fn main() { let b: i32 = 2; let a: i32 = 1; spawn { \
             let pa: *const i32 = &raw const a; print(pa as usize); \
             let q: *const i32 = 0 as *const i32; unsafe { print(*q); } } join; }",
            UbClass::Provenance,
            "fn#0.2",
        ),
    ];
    for (src, class, path) in cases {
        let program = rb_lang::parser::parse_program(src).expect("parses");
        let want = vec![(class, path.to_owned())];
        let report = rb_miri::run_program(&program);
        let oracle: Vec<(UbClass, String)> = report
            .errors
            .iter()
            .map(|e| {
                let at = e.path.as_ref().map(ToString::to_string).unwrap_or_default();
                (e.class(), at)
            })
            .collect();
        assert_eq!(oracle, want, "oracle on {src}");
        assert_findings_are_report(&analyze(&program), &report);
    }
}
