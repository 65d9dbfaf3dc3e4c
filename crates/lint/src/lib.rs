//! `rb_lint` — static undefined-behaviour analysis over the `rb_lang` AST.
//!
//! Every verdict in the rest of the stack is *dynamic*: `rb_miri` interprets
//! the program and the pipeline pays simulated oracle latency for it, even
//! when the defect is decidable from the source alone. This crate is the
//! static layer in front of that oracle. It combines two cooperating passes:
//!
//! 1. **Walker rules** ([`rules::RULES`]): a data-driven table of
//!    syntactic/dataflow lints in the rustor style — each rule is a
//!    `match`-function over [`rb_lang::visit`] traversals, registered as
//!    data, producing [`Confidence::Heuristic`] findings. They cost one AST
//!    walk and survive on programs the flow pass cannot fully analyse.
//! 2. **Flow pass** ([`flow`]): a constant-propagation dataflow analysis
//!    that drives `rb_miri`'s *public* memory/value/borrow/race models over
//!    the AST. The corpus language has no inputs, so on the fragment the
//!    pass models completely its facts are exact: findings it emits are
//!    [`Confidence::Sound`] (the defect definitely occurs), and when the
//!    pass reports [`Analysis::complete`] the sound findings are the *whole*
//!    error multiset the oracle would report. Anything nondeterministic
//!    (thread-frame address layout) or over budget degrades confidence
//!    instead of guessing.
//!
//! The stack consumes the result at two seams: fast-thinking *triage*
//! (class prediction sharpening) and the `rb_llm` *rule audit*
//! ([`rulecheck`]).

pub mod flow;
pub mod rulecheck;
pub mod rules;

use rb_lang::check::check_program;
use rb_lang::{Program, StmtPath};
use rb_miri::{MiriReport, UbClass, UbKind};
use std::collections::BTreeMap;

/// How much trust a finding deserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Confidence {
    /// Best-effort syntactic match; may be a false positive.
    Heuristic,
    /// Proven by the flow pass: the defect occurs on every execution.
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

/// One static finding.
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
    /// counts). When `false` the analysis bailed somewhere and the list is
    /// a best-effort subset plus heuristics.
    pub complete: bool,
}

impl Analysis {
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
    /// proved it (complete flow pass); `None` otherwise.
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

/// Analyses a program: static checker first (ill-formed programs mirror the
/// oracle's compile-stage rejection), then the flow pass, then walker rules
/// to cover whatever the flow pass could not complete.
#[must_use]
pub fn analyze(prog: &Program) -> Analysis {
    // The oracle gates execution on the static checker; mirror that here so
    // ill-formed programs (e.g. broken repair candidates) get an exact
    // Compile-class analysis. The oracle caps diagnostics at its error cap.
    let errs = check_program(prog);
    if !errs.is_empty() {
        let findings = errs
            .into_iter()
            .take(flow::ERROR_CAP)
            .map(|e| Finding {
                class: UbClass::Compile,
                kind: UbKind::IllFormed,
                path: e.path.clone(),
                confidence: Confidence::Sound,
                rule: "ill-formed",
                message: e.to_string(),
            })
            .collect();
        return Analysis {
            findings,
            complete: true,
        };
    }
    let (mut findings, complete) = flow::run(prog);
    if !complete {
        // Degraded mode: add heuristic walker findings the flow pass did
        // not already prove, dropping (class, path) duplicates.
        for w in rules::walk(prog) {
            let dup = findings
                .iter()
                .any(|f| f.class == w.class && f.path == w.path);
            if !dup {
                findings.push(w);
            }
        }
    }
    Analysis { findings, complete }
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
