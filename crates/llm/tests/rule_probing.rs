//! The in-place rule contract behind `RepairRule::candidates`: probing
//! every rule on one scratch program must give exactly the rules the
//! clone-per-rule filter gives, and a rule that does not match must leave
//! the program it was applied to unchanged.
//!
//! Inputs are the buggy programs of the full corpus at two seeds plus
//! their one-step neighbours (every rule's edit of each buggy program
//! that still fails the oracle), each paired with its own primary
//! diagnostic.

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

fn failing(prog: Program) -> Option<(Program, MiriError)> {
    let err = run_program(&prog).primary().cloned()?;
    Some((prog, err))
}

/// Buggy corpus programs and their failing one-step rule neighbours.
fn probe_set(seed: u64) -> Vec<(Program, MiriError)> {
    let rules = all_rules();
    let mut out = Vec::new();
    for case in Corpus::generate_full(seed, 8).cases {
        let Some((buggy, err)) = failing(case.buggy) else {
            continue;
        };
        for rule in &rules {
            if let Some(next) = rule.apply(&buggy, &err).and_then(failing) {
                out.push(next);
            }
        }
        out.push((buggy, err));
    }
    out
}

#[test]
fn scratch_probing_matches_clone_per_rule_and_failed_applies_change_nothing() {
    let rules = all_rules();
    assert_eq!(rules.len(), 36, "one entry per rule variant");
    for seed in [7u64, 20_261_016] {
        let set = probe_set(seed);
        assert!(set.len() > 100, "seed {seed}: only {} programs", set.len());
        let mut failed_applies = 0usize;
        for (prog, err) in &set {
            assert_eq!(
                RepairRule::candidates(prog, err),
                clone_per_rule_candidates(prog, err),
                "seed {seed}: candidates diverged on error {err}"
            );
            for rule in &rules {
                let mut edited = prog.clone();
                if !rule.apply_in_place(&mut edited, err) {
                    failed_applies += 1;
                    assert!(
                        edited == *prog,
                        "seed {seed}: {} failed but changed the program (error {err})",
                        rule.name()
                    );
                }
            }
        }
        assert!(failed_applies > 0, "seed {seed}: no rule ever failed");
    }
}
