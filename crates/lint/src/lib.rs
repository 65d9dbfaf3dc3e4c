//! `rb_lint` — undefined-behaviour findings, read off the oracle's report.
//!
//! The corpus language is closed (no inputs, no real clock, no real
//! scheduler), so the `rb_miri` interpreter's verdict on a program is the
//! verdict of every execution. A second concrete walk could only re-derive
//! it, so this crate does not walk the program at all:
//! [`Analysis::from_report`] turns each oracle error into a [`Finding`]
//! attributed to a rule id ([`rules::rule_id_for_kind`]). [`analyze`] is
//! that conversion over a fresh [`run_program`].
//!
//! The findings feed the `analyze` CLI command and daemon verb, and the
//! `rb_llm` *rule audit* ([`rulecheck`]).

pub mod rulecheck;
pub mod rules;

// The tests' shared contract check names this crate as `rb_lint`.
#[cfg(test)]
extern crate self as rb_lint;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod test_common;

use rb_lang::{Program, StmtPath};
use rb_miri::{run_program, MiriReport, UbClass, UbKind};

/// One finding: one error the oracle reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Coarse UB class (the paper's buckets).
    pub class: UbClass,
    /// Precise failure kind.
    pub kind: UbKind,
    /// Statement the finding anchors to, when known.
    pub path: Option<StmtPath>,
    /// Id of the lint rule that explains the finding.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Result of analysing one program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Findings, in the oracle's report order; empty iff the program
    /// passes.
    pub findings: Vec<Finding>,
}

impl Analysis {
    /// One finding per reported error, in report order, with the error's
    /// kind, path and message, attributed through
    /// [`rules::rule_id_for_kind`].
    #[must_use]
    pub fn from_report(report: &MiriReport) -> Analysis {
        let findings = report
            .errors
            .iter()
            .map(|e| Finding {
                class: e.class(),
                kind: e.kind,
                path: e.path.clone(),
                rule: rules::rule_id_for_kind(e.kind),
                message: e.message.clone(),
            })
            .collect();
        Analysis { findings }
    }

    /// The first finding (the oracle's primary error), if any.
    #[must_use]
    pub fn top(&self) -> Option<&Finding> {
        self.findings.first()
    }
}

/// Analyses a program: the oracle's report on it, as findings (see
/// [`Analysis::from_report`]). Ill-formed programs get the oracle's
/// compile-stage findings.
#[must_use]
pub fn analyze(prog: &Program) -> Analysis {
    Analysis::from_report(&run_program(prog))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_common::assert_findings_are_report;
    use rb_lang::parser::parse_program;

    #[test]
    fn clean_program_proves_clean() {
        let p = parse_program("fn main() { print(1i32 + 2i32); }").unwrap();
        let a = analyze(&p);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn ill_formed_is_compile_class() {
        let p = parse_program("fn main() { x = 1i32; }").unwrap();
        let a = analyze(&p);
        assert_eq!(a.top().unwrap().class, UbClass::Compile);
    }

    #[test]
    fn div_by_zero_found_sound() {
        let p = parse_program("fn main() { let a: i32 = 4i32; print(a / 0i32); }").unwrap();
        let a = analyze(&p);
        let top = a.top().unwrap();
        assert_eq!((top.class, top.rule), (UbClass::Panic, "div-by-zero"));
    }

    #[test]
    fn from_report_keeps_every_error_and_triage_reads_its_top() {
        let corpus = rb_dataset::Corpus::generate_full(7, 2);
        let sources = [
            "fn main() { print(1i32); }",
            "fn main() { x = 1i32; y = 2i32; }",
            "fn main() { let a: i32 = 0i32; print(1i32 / a); print(2i32 / a); }",
        ];
        let mut programs: Vec<Program> =
            sources.iter().map(|s| parse_program(s).unwrap()).collect();
        for case in &corpus.cases {
            programs.push((*case.buggy).clone());
            programs.push((*case.gold).clone());
        }
        for p in &programs {
            let report = run_program(p);
            let a = Analysis::from_report(&report);
            assert_findings_are_report(&a, &report);
            // Fast thinking's class is the report's primary error's class.
            assert_eq!(
                a.top().map(|f| f.class),
                report.primary().map(rb_miri::MiriError::class)
            );
        }
    }
}
