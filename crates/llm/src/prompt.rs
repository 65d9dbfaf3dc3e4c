//! Prompt representation: the three agent prompt strategies of the paper's
//! Fig. 4, the repair context handed to a model, and knowledge-base
//! few-shots.

use crate::rules::{RepairRule, RuleKind};
use rb_lang::Program;
use rb_miri::{MiriError, StateMemo};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The prompt strategy an agent uses (paper Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PromptStrategy {
    /// "Find Safe API with same functionality for replacement."
    SafeReplace,
    /// "Pre-assertion added before UB is possible, prevent it."
    Assert,
    /// "Keep functionality and semantics, avoid UBs by modification."
    Modify,
    /// Unconstrained single-shot repair (standalone-model baseline).
    Freeform,
}

impl PromptStrategy {
    /// The rule family this strategy targets (`None` for freeform).
    #[must_use]
    pub fn target_kind(self) -> Option<RuleKind> {
        match self {
            PromptStrategy::SafeReplace => Some(RuleKind::SafeReplace),
            PromptStrategy::Assert => Some(RuleKind::Assert),
            PromptStrategy::Modify => Some(RuleKind::Modify),
            PromptStrategy::Freeform => None,
        }
    }

    /// Instruction text injected into the rendered prompt.
    #[must_use]
    pub fn instruction(self) -> &'static str {
        match self {
            PromptStrategy::SafeReplace => {
                "Find a safe API with the same functionality and replace the unsafe operation."
            }
            PromptStrategy::Assert => {
                "Add a pre-assertion or guard before the undefined behaviour can occur."
            }
            PromptStrategy::Modify => {
                "Keep functionality and semantics; avoid the UB by modifying the erroneous logic."
            }
            PromptStrategy::Freeform => "Fix the undefined behaviour in this Rust code.",
        }
    }
}

/// A retrieved knowledge-base example attached to a prompt.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FewShot {
    /// The rule that solved the similar case.
    pub rule: RepairRule,
    /// Cosine similarity of the pruned ASTs.
    pub similarity: f64,
}

/// Everything a model sees for one repair request.
#[derive(Clone, Debug)]
pub struct RepairContext<'p> {
    /// The current program.
    pub program: &'p Program,
    /// The shared handle `program` borrows from, when the caller holds
    /// one ([`RepairContext::shared`]). A model may key work that depends
    /// only on the program and the error to this handle's identity.
    pub state: Option<&'p Arc<Program>>,
    /// The slot the caller's oracle keeps for `program`
    /// ([`rb_miri::Oracle::state_memo`]), where a model may find, or
    /// leave, what it derives from the program and the error alone.
    pub memo: Option<&'p StateMemo>,
    /// The primary diagnostic being repaired.
    pub error: &'p MiriError,
    /// Agent prompt strategy.
    pub strategy: PromptStrategy,
    /// Retrieved knowledge examples.
    pub shots: Vec<FewShot>,
}

impl<'p> RepairContext<'p> {
    /// Builds a context with no shots.
    #[must_use]
    pub fn new(program: &'p Program, error: &'p MiriError, strategy: PromptStrategy) -> Self {
        RepairContext {
            program,
            state: None,
            memo: None,
            error,
            strategy,
            shots: Vec::new(),
        }
    }

    /// Builds a context with no shots over a shared program state, so a
    /// model can reuse what it derived from the same `(state, error)` on
    /// an earlier call. The response is the one [`RepairContext::new`]
    /// on the same program would get.
    #[must_use]
    pub fn shared(state: &'p Arc<Program>, error: &'p MiriError, strategy: PromptStrategy) -> Self {
        RepairContext {
            state: Some(state),
            ..RepairContext::new(state, error, strategy)
        }
    }

    /// Renders the textual prompt (what a real API call would send); used
    /// for token accounting and latency modelling. `src` is the program's
    /// printed source: the caller prints it once and reuses it.
    #[must_use]
    pub fn render(&self, src: &str) -> String {
        let mut out = String::new();
        self.render_to(src, &mut out)
            .expect("writing to a String cannot fail");
        out
    }

    /// Streams the prompt [`RepairContext::render`] returns into `out`,
    /// piece by piece, so a sink that only measures the text (the
    /// simulated model counts and hashes it) never holds it whole.
    pub fn render_to(&self, src: &str, out: &mut impl fmt::Write) -> fmt::Result {
        out.write_str("You are repairing undefined behaviour in Rust code.\nRoot cause: ")?;
        writeln!(out, "{}", self.error)?;
        out.write_str(self.strategy.instruction())?;
        out.write_char('\n')?;
        for shot in &self.shots {
            writeln!(
                out,
                "Similar case (sim {:.2}) was fixed by `{}`.",
                shot.similarity,
                shot.rule.name()
            )?;
        }
        out.write_str("```rust\n")?;
        out.write_str(src)?;
        out.write_str("```\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::parser::parse_program;
    use rb_lang::printer::print_program;
    use rb_miri::run_program;

    #[test]
    fn strategies_map_to_kinds() {
        assert_eq!(
            PromptStrategy::SafeReplace.target_kind(),
            Some(RuleKind::SafeReplace)
        );
        assert_eq!(PromptStrategy::Assert.target_kind(), Some(RuleKind::Assert));
        assert_eq!(PromptStrategy::Modify.target_kind(), Some(RuleKind::Modify));
        assert_eq!(PromptStrategy::Freeform.target_kind(), None);
    }

    #[test]
    fn render_contains_code_and_error() {
        let p = parse_program("fn main() { let z: i32 = 0; print(5 / z); }").unwrap();
        let r = run_program(&p);
        let err = r.errors.first().unwrap();
        let ctx = RepairContext::new(&p, err, PromptStrategy::Modify);
        let text = ctx.render(&print_program(&p));
        assert!(text.contains("panic"));
        assert!(text.contains("fn main"));
        assert!(text.contains("modifying the erroneous logic"));
    }

    #[test]
    fn shots_appear_in_prompt() {
        let p = parse_program("fn main() { let z: i32 = 0; print(5 / z); }").unwrap();
        let r = run_program(&p);
        let err = r.errors.first().unwrap();
        let mut ctx = RepairContext::new(&p, err, PromptStrategy::Freeform);
        ctx.shots.push(FewShot {
            rule: RepairRule::GuardDivision,
            similarity: 0.93,
        });
        assert!(ctx.render(&print_program(&p)).contains("guard-division"));
    }
}
