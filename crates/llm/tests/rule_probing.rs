//! The matcher/edit contract behind `RepairRule::candidates`: a rule's
//! read-only matcher (`matches`) says yes exactly when applying the rule
//! yields a program, `candidates` equals the clone-per-rule filter, a rule
//! that does not match leaves the program it was applied to unchanged, and
//! a match is a real edit for every rule whose edit cannot be a no-op.
//!
//! Inputs are the buggy programs of the full corpus at two seeds plus
//! their one-step neighbours (every rule's edit of each buggy program that
//! still fails the oracle), and at seed 7 also the failing two-step
//! neighbours, since repairs reach programs two edits deep. Each program
//! is paired with its own primary diagnostic.

use std::collections::HashSet;

use rb_dataset::Corpus;
use rb_lang::Program;
use rb_llm::{RepairRule, RuleKind};
use rb_miri::{run_program, MiriError};

/// Every rule variant once, hallucinations included.
fn all_rules() -> Vec<RepairRule> {
    let mut rules: Vec<RepairRule> = RepairRule::ALL
        .iter()
        .chain(RepairRule::HALLUCINATIONS.iter())
        .copied()
        .collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

/// The reference: clone the program for every rule and keep the rules
/// whose application succeeds.
fn clone_per_rule_candidates(prog: &Program, err: &MiriError) -> Vec<RepairRule> {
    RepairRule::ALL
        .iter()
        .copied()
        .filter(|r| r.kind() != RuleKind::Hallucination)
        .filter(|r| r.apply(prog, err).is_some())
        .collect()
}

/// Rules whose edit can leave a matched program as it was: the faulting
/// statement has no arithmetic to widen, the `dealloc` layout is already
/// the `alloc`'s, the moved statement lands among copies of itself, or
/// the assertion is already `lhs >= 0`.
const MAY_EDIT_NOTHING: [&str; 5] = [
    "widen-arithmetic",
    "fix-dealloc-layout",
    "reorder-dealloc",
    "initialize-before-read",
    "weaken-assert",
];

fn failing(prog: Program) -> Option<(Program, MiriError)> {
    let err = run_program(&prog).primary().cloned()?;
    Some((prog, err))
}

/// Buggy corpus programs and their failing rule neighbours up to `depth`
/// edits away, each program once.
fn probe_set(seed: u64, depth: usize) -> Vec<(Program, MiriError)> {
    let rules = all_rules();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let mut frontier: Vec<(Program, MiriError)> = Corpus::generate_full(seed, 8)
        .cases
        .into_iter()
        .filter_map(|case| failing((*case.buggy).clone()))
        .collect();
    for step in 0..=depth {
        let mut next = Vec::new();
        for (prog, err) in frontier {
            if !seen.insert(prog.clone()) {
                continue;
            }
            if step < depth {
                next.extend(
                    rules
                        .iter()
                        .filter_map(|rule| rule.apply(&prog, &err).and_then(failing)),
                );
            }
            out.push((prog, err));
        }
        frontier = next;
    }
    out
}

#[test]
fn matchers_agree_with_edits_and_candidates_match_clone_per_rule() {
    let rules = all_rules();
    assert_eq!(rules.len(), 36, "one entry per rule variant");
    for (seed, depth) in [(7u64, 2), (20_261_016, 1)] {
        let set = probe_set(seed, depth);
        assert!(set.len() > 100, "seed {seed}: only {} programs", set.len());
        let mut failed_applies = 0usize;
        for (prog, err) in &set {
            assert_eq!(
                RepairRule::candidates(prog, err),
                clone_per_rule_candidates(prog, err),
                "seed {seed}: candidates diverged on error {err}"
            );
            for rule in &rules {
                assert_eq!(
                    rule.matches(prog, err),
                    rule.apply(prog, err).is_some(),
                    "seed {seed}: {} matcher disagrees with its edit (error {err})",
                    rule.name()
                );
                let mut edited = prog.clone();
                if !rule.apply_in_place(&mut edited, err) {
                    failed_applies += 1;
                    assert!(
                        edited == *prog,
                        "seed {seed}: {} failed but changed the program (error {err})",
                        rule.name()
                    );
                } else if !MAY_EDIT_NOTHING.contains(&rule.name()) {
                    assert!(
                        edited != *prog,
                        "seed {seed}: {} matched but its edit changed nothing (error {err})",
                        rule.name()
                    );
                }
            }
        }
        assert!(failed_applies > 0, "seed {seed}: no rule ever failed");
    }
}
