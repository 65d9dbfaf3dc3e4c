//! Static validation of the `rb_llm` repair-rule library.
//!
//! For each repair rule, apply its edit to every supplied program whose
//! diagnosed defect the rule claims to address, then re-analyse the edited
//! program. A rule whose edits *consistently* leave the same lint firing is
//! ineffective against the defect class it advertises — groundwork for the
//! ROADMAP's rule miner, which needs exactly this signal to prune a learned
//! rule set. The audit is purely static: no oracle runs.

use crate::{analyze, Confidence};
use rb_lang::Program;
use rb_llm::rules::RepairRule;
use rb_miri::{MiriError, UbClass};

/// Audit result for one repair rule.
#[derive(Clone, Debug)]
pub struct RuleAudit {
    /// The rule's stable name.
    pub rule: &'static str,
    /// Programs whose top finding the rule claimed to address.
    pub cases_tried: usize,
    /// Edits the rule actually produced on those programs.
    pub edits_produced: usize,
    /// Edits after which the *same class* of lint still fires.
    pub still_trips: usize,
    /// Labels of the cases where the edit still trips the lint.
    pub tripped_cases: Vec<String>,
}

impl RuleAudit {
    /// A rule is flagged when it produced edits and every one of them left
    /// the lint it targets still firing.
    #[must_use]
    pub fn flagged(&self) -> bool {
        self.edits_produced > 0 && self.still_trips == self.edits_produced
    }
}

/// Whether an analysis of an edited program still shows the defect class.
/// On a complete analysis only sound findings count (the edit provably
/// failed); on an incomplete one any finding of the class counts.
fn still_trips(prog: &Program, class: UbClass) -> bool {
    let a = analyze(prog);
    a.findings
        .iter()
        .any(|f| f.class == class && (!a.complete || f.confidence == Confidence::Sound))
}

/// Runs every library repair rule against every applicable program.
///
/// `cases` pairs a label (template or case id) with a buggy program. The
/// defect each rule is tested against is the program's own top static
/// finding, converted to the `MiriError` shape rules consume.
#[must_use]
pub fn audit_rules(cases: &[(String, Program)]) -> Vec<RuleAudit> {
    let analysed: Vec<(&String, &Program, MiriError)> = cases
        .iter()
        .filter_map(|(label, prog)| {
            let a = analyze(prog);
            let top = a.top()?;
            let err = MiriError {
                kind: top.kind,
                message: top.message.clone(),
                path: top.path.clone(),
                thread: 0,
            };
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
