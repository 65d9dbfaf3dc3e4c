//! Precision/recall harness: `rb_lint` vs the miri oracle over the 42-case
//! seed corpus.
//!
//! The invariants this pins down:
//!
//! 1. **Zero sound false positives.** Every `Sound` finding's class appears
//!    in the oracle's error list, on buggy *and* gold programs. Soundness is
//!    the contract triage relies on, so any violation here is a release
//!    blocker, not a statistic.
//! 2. **Exactness when complete.** When the analysis claims `complete`, its
//!    sound class multiset equals the oracle's error-class multiset exactly.
//! 3. **Coverage.** The corpus exercises ≥ 10 of the 14 UB classes, and the
//!    lint's top finding agrees with the diagnosed class on every covered
//!    bucket (printed as the per-class agreement table).

use rb_dataset::Corpus;
use rb_lint::{analyze, Analysis, Confidence};
use rb_miri::{MiriReport, UbClass};
use std::collections::BTreeMap;

const SEED: u64 = 42;
const PER_CLASS: usize = 3;

fn class_multiset(report: &MiriReport) -> BTreeMap<UbClass, usize> {
    let mut out = BTreeMap::new();
    for e in &report.errors {
        *out.entry(e.class()).or_insert(0) += 1;
    }
    out
}

fn assert_no_sound_fp(id: &str, which: &str, a: &Analysis, report: &MiriReport) {
    for f in &a.findings {
        if f.confidence == Confidence::Sound {
            assert!(
                report.errors.iter().any(|e| e.class() == f.class),
                "{id} ({which}): sound finding {:?} [{}] not in oracle report {:?}",
                f.class,
                f.message,
                report.errors
            );
        }
    }
    if a.complete {
        assert_eq!(
            a.sound_class_counts(),
            class_multiset(report),
            "{id} ({which}): complete analysis disagrees with oracle multiset"
        );
    }
}

#[test]
fn corpus_precision_and_agreement() {
    let corpus = Corpus::generate_full(SEED, PER_CLASS);
    assert_eq!(corpus.cases.len(), 42, "seed corpus must be 42 cases");

    // per class: (cases, top-finding agreements, complete analyses)
    let mut table: BTreeMap<UbClass, (usize, usize, usize)> = BTreeMap::new();
    let mut flagged_classes: BTreeMap<UbClass, usize> = BTreeMap::new();

    for case in &corpus.cases {
        let buggy_report = case.run_buggy();
        let a = analyze(&case.buggy);
        assert_no_sound_fp(&case.id, "buggy", &a, &buggy_report);

        let gold_report = case.run_gold();
        let g = analyze(&case.gold);
        assert_no_sound_fp(&case.id, "gold", &g, &gold_report);

        let entry = table.entry(case.class).or_insert((0, 0, 0));
        entry.0 += 1;
        if a.complete {
            entry.2 += 1;
        }
        let agrees = a.top().is_some_and(|f| f.class == case.class);
        if agrees {
            entry.1 += 1;
        }
        if a.findings.iter().any(|f| f.class == case.class) {
            *flagged_classes.entry(case.class).or_insert(0) += 1;
        }
    }

    println!("per-class agreement (class: cases agree complete):");
    for (class, (cases, agree, complete)) in &table {
        println!(
            "  {:<16} {cases:>2} {agree:>2} {complete:>2}",
            class.label()
        );
    }

    // Tentpole acceptance: at least 10 of 14 buckets flagged by the lint.
    assert!(
        flagged_classes.len() >= 10,
        "lint flags only {} of 14 classes: {flagged_classes:?}",
        flagged_classes.len()
    );

    // The top finding should agree with the diagnosed class on the vast
    // majority of cases; require agreement on at least 10 buckets for every
    // case in the bucket.
    let fully_agreeing = table.iter().filter(|(_, (c, a, _))| a == c).count();
    assert!(
        fully_agreeing >= 10,
        "only {fully_agreeing} classes fully agree: {table:?}"
    );
}

/// Repairs produce *rule-edited candidates*, so soundness must hold on
/// that distribution too: every library rule (good and
/// hallucinated) applied to every case it addresses, checked against the
/// oracle across several corpus seeds.
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
                let a = analyze(&candidate);
                let oracle = rb_miri::interp::run_program(&candidate);
                assert_no_sound_fp(
                    &format!("{} + {}", case.id, rule.name()),
                    "candidate",
                    &a,
                    &oracle,
                );
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
/// thread that copies two locals and then observes one's address is
/// analysed completely: the finding comes from the oracle's own layout.
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
        let a = analyze(&program);
        assert!(a.complete, "lint incomplete on {src}");
        let lint: Vec<(UbClass, String)> = a
            .findings
            .iter()
            .filter(|f| f.confidence == Confidence::Sound)
            .map(|f| {
                let at = f.path.as_ref().map(ToString::to_string).unwrap_or_default();
                (f.class, at)
            })
            .collect();
        assert_eq!(lint, want, "lint on {src}");
    }
}
