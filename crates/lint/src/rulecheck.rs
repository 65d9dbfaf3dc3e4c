//! Validation of the `rb_llm` repair-rule library against the oracle.
//!
//! For each repair rule, apply its edit to every supplied program whose
//! diagnosed defect the rule claims to address, then re-judge the edited
//! program. A rule whose edits *consistently* leave the same defect class
//! reported is ineffective against the class it advertises — groundwork
//! for the ROADMAP's rule miner, which needs exactly this signal to prune a
//! learned rule set.

use rb_lang::Program;
use rb_llm::rules::RepairRule;
use rb_miri::{run_program, MiriError, UbClass};

/// Audit result for one repair rule.
#[derive(Clone, Debug)]
pub struct RuleAudit {
    /// The rule's stable name.
    pub rule: &'static str,
    /// Programs whose primary error the rule claimed to address.
    pub cases_tried: usize,
    /// Edits the rule actually produced on those programs.
    pub edits_produced: usize,
    /// Edits after which the *same class* of defect is still reported.
    pub still_trips: usize,
    /// Labels of the cases where the edit still trips the defect class.
    pub tripped_cases: Vec<String>,
}

impl RuleAudit {
    /// A rule is flagged when it produced edits and every one of them left
    /// the defect class it targets still reported.
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.edits_produced > 0 && self.still_trips == self.edits_produced
    }
}

/// Whether the oracle still reports the defect class on an edited program.
fn still_trips(prog: &Program, class: UbClass) -> bool {
    run_program(prog).errors.iter().any(|e| e.class() == class)
}

/// Runs every library repair rule against every applicable program.
///
/// `cases` pairs a label (template or case id) with a buggy program. The
/// defect each rule is tested against is the program's primary oracle
/// error.
#[must_use]
pub fn audit_rules(cases: &[(String, Program)]) -> Vec<RuleAudit> {
    let analysed: Vec<(&String, &Program, MiriError)> = cases
        .iter()
        .filter_map(|(label, prog)| {
            let err = run_program(prog).errors.into_iter().next()?;
            Some((label, prog, err))
        })
        .collect();
    RepairRule::ALL
        .iter()
        .map(|rule| {
            let mut audit = RuleAudit {
                rule: rule.name(),
                cases_tried: 0,
                edits_produced: 0,
                still_trips: 0,
                tripped_cases: Vec::new(),
            };
            for (label, prog, err) in &analysed {
                if !rule.addresses(err.kind) {
                    continue;
                }
                audit.cases_tried += 1;
                let Some(edited) = rule.apply(prog, err) else {
                    continue;
                };
                audit.edits_produced += 1;
                if still_trips(&edited, err.kind.class()) {
                    audit.still_trips += 1;
                    audit.tripped_cases.push((*label).clone());
                }
            }
            audit
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_on_empty_cases_is_all_zero() {
        let audits = audit_rules(&[]);
        assert_eq!(audits.len(), RepairRule::ALL.len());
        assert!(audits.iter().all(|a| a.cases_tried == 0 && !a.flagged()));
    }
}
