//! `rb_lint` — undefined-behaviour findings ranked by confidence, derived
//! from the oracle's report.
//!
//! The corpus language is closed (no inputs, no real clock, no real
//! scheduler), so the `rb_miri` interpreter's verdict on a program is the
//! verdict of every execution. A second concrete walk could only re-derive
//! it, so this crate does not walk the program at all:
//! [`Analysis::from_report`] turns each oracle error into a
//! [`Confidence::Sound`] [`Finding`] attributed to a registered rule id
//! ([`rules::rule_id_for_kind`]) and marks the analysis
//! [`complete`](Analysis::complete). [`analyze`] is that conversion over a
//! fresh [`run_program`]; a caller already holding a report (the repair
//! pipeline's triage, cache hit or miss) reads it instead of paying for a
//! second run.
//!
//! The findings feed fast-thinking *triage* (class prediction sharpening),
//! the `analyze` CLI command and daemon verb, and the `rb_llm` *rule
//! audit* ([`rulecheck`]).

pub mod rulecheck;
pub mod rules;

use rb_lang::{Program, StmtPath};
use rb_miri::{run_program, MiriReport, UbClass, UbKind};
use std::collections::BTreeMap;

/// How much trust a finding deserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// Best-effort match; may be a false positive. [`analyze`] never produces
    /// these; the label stays part of the finding schema.
    Heuristic,
    /// Reported by the oracle: the defect occurs on every execution.
    Sound,
}

impl Confidence {
    /// Stable lower-case label (JSON and text output).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Confidence::Heuristic => "heuristic",
            Confidence::Sound => "sound",
        }
    }
}

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Coarse UB class (the paper's buckets).
    pub class: UbClass,
    /// Precise failure kind.
    pub kind: UbKind,
    /// Statement the finding anchors to, when known.
    pub path: Option<StmtPath>,
    /// Trust level.
    pub confidence: Confidence,
    /// Id of the lint rule that produced (or explains) the finding.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Result of analysing one program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Findings, sound ones first, in discovery order.
    pub findings: Vec<Finding>,
    /// When `true`, the sound findings are exactly the error multiset the
    /// miri oracle would report for this program (same classes, same
    /// counts). An analysis derived from a report is always complete;
    /// `false` marks a hand-built best-effort list.
    pub complete: bool,
}

impl Analysis {
    /// The analysis an oracle report proves: one sound finding per
    /// reported error, in report order, with the error's kind, path and
    /// message, attributed through [`rules::rule_id_for_kind`]. Complete by
    /// construction.
    #[must_use]
    pub fn from_report(report: &MiriReport) -> Analysis {
        let findings = report
            .errors
            .iter()
            .map(|e| Finding {
                class: e.class(),
                kind: e.kind,
                path: e.path.clone(),
                confidence: Confidence::Sound,
                rule: rules::rule_id_for_kind(e.kind),
                message: e.message.clone(),
            })
            .collect();
        Analysis {
            findings,
            complete: true,
        }
    }

    /// The highest-confidence first finding, if any.
    #[must_use]
    pub fn top(&self) -> Option<&Finding> {
        self.findings
            .iter()
            .find(|f| f.confidence == Confidence::Sound)
            .or_else(|| self.findings.first())
    }

    /// Multiset of classes over sound findings only.
    #[must_use]
    pub fn sound_class_counts(&self) -> BTreeMap<UbClass, usize> {
        let mut out = BTreeMap::new();
        for f in &self.findings {
            if f.confidence == Confidence::Sound {
                *out.entry(f.class).or_insert(0) += 1;
            }
        }
        out
    }

    /// The exact class multiset the oracle would report, when the analysis
    /// is complete; `None` otherwise.
    #[must_use]
    pub fn exact_classes(&self) -> Option<BTreeMap<UbClass, usize>> {
        if self.complete {
            Some(self.sound_class_counts())
        } else {
            None
        }
    }

    /// Number of sound findings.
    #[must_use]
    pub fn sound_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.confidence == Confidence::Sound)
            .count()
    }

    /// Whether a complete analysis proved the program free of defects.
    #[must_use]
    pub fn proves_clean(&self) -> bool {
        self.complete && self.findings.is_empty()
    }

    /// Whether the analysis agrees with an oracle report: the top sound
    /// finding's class appears in the report (used by the triage seam).
    #[must_use]
    pub fn agrees_with(&self, report: &MiriReport) -> bool {
        match self.top() {
            Some(f) if f.confidence == Confidence::Sound => {
                report.errors.iter().any(|e| e.class() == f.class)
            }
            _ => false,
        }
    }
}

/// What fast-thinking triage reads off a report: the class of
/// [`Analysis::from_report`]'s top finding, and whether that analysis
/// agrees with the report ([`Analysis::proves_clean`] on a passing report,
/// [`Analysis::agrees_with`] otherwise). Computed from the report without
/// building the analysis, so no message is copied. An analysis derived
/// from a report always agrees with it.
#[must_use]
pub fn triage(report: &MiriReport) -> (Option<UbClass>, bool) {
    (report.primary().map(rb_miri::MiriError::class), true)
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
    use rb_lang::parser::parse_program;

    #[test]
    fn clean_program_proves_clean() {
        let p = parse_program("fn main() { print(1i32 + 2i32); }").unwrap();
        let a = analyze(&p);
        assert!(a.proves_clean(), "{:?}", a.findings);
    }

    #[test]
    fn ill_formed_is_compile_class() {
        let p = parse_program("fn main() { x = 1i32; }").unwrap();
        let a = analyze(&p);
        assert!(a.complete);
        assert_eq!(a.top().unwrap().class, UbClass::Compile);
    }

    #[test]
    fn div_by_zero_found_sound() {
        let p = parse_program("fn main() { let a: i32 = 4i32; print(a / 0i32); }").unwrap();
        let a = analyze(&p);
        assert!(a.complete);
        let top = a.top().unwrap();
        assert_eq!(top.class, UbClass::Panic);
        assert_eq!(top.confidence, Confidence::Sound);
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
            assert!(a.complete);
            assert_eq!(a.findings.len(), report.errors.len());
            for (f, e) in a.findings.iter().zip(&report.errors) {
                assert_eq!((f.kind, &f.path, &f.message), (e.kind, &e.path, &e.message));
                assert_eq!(f.class, e.class());
                assert_eq!(f.confidence, Confidence::Sound);
                assert_eq!(f.rule, rules::rule_id_for_kind(e.kind));
            }
            let agrees = if report.passes() {
                a.proves_clean()
            } else {
                a.agrees_with(&report)
            };
            assert_eq!(triage(&report), (a.top().map(|f| f.class), agrees));
        }
    }

    #[test]
    fn top_prefers_sound() {
        let a = Analysis {
            findings: vec![
                Finding {
                    class: UbClass::Panic,
                    kind: UbKind::PanicDivZero,
                    path: None,
                    confidence: Confidence::Heuristic,
                    rule: "div-by-zero",
                    message: String::new(),
                },
                Finding {
                    class: UbClass::Uninit,
                    kind: UbKind::UninitRead,
                    path: None,
                    confidence: Confidence::Sound,
                    rule: "uninit-read",
                    message: String::new(),
                },
            ],
            complete: false,
        };
        assert_eq!(a.top().unwrap().class, UbClass::Uninit);
    }
}
