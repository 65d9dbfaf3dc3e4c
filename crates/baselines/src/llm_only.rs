//! Standalone-model repair: the model is asked to fix the program with a
//! generic prompt and its best proposal is applied, for a handful of
//! iterations, with no rollback — whatever the model does is kept, so
//! hallucinations compound exactly as in the paper's Fig. 5a.

use crate::BaselineOutcome;
use rb_lang::Program;
use rb_llm::{LanguageModel, ModelId, PromptStrategy, RepairContext, SimulatedModel};
use rb_miri::{DirectOracle, Oracle, OracleUse};
use rustbrain::slow::ORACLE_RUN_MS;
use std::sync::Arc;

/// The standalone-LLM repair loop.
pub struct LlmOnly {
    oracle: Arc<dyn Oracle>,
    model: SimulatedModel,
    max_iterations: usize,
}

impl LlmOnly {
    /// Creates a standalone repair loop around a model, judging programs
    /// with the zero-cost [`DirectOracle`].
    #[must_use]
    pub fn new(model: ModelId, temperature: f64, seed: u64) -> LlmOnly {
        LlmOnly::with_oracle(model, temperature, seed, Arc::new(DirectOracle))
    }

    /// Creates the loop with an injected oracle (the batch engine passes
    /// its process-wide verdict cache through here).
    #[must_use]
    pub fn with_oracle(
        model: ModelId,
        temperature: f64,
        seed: u64,
        oracle: Arc<dyn Oracle>,
    ) -> LlmOnly {
        LlmOnly {
            oracle,
            model: SimulatedModel::new(model, temperature, seed),
            max_iterations: 3,
        }
    }

    /// Overrides the iteration budget.
    #[must_use]
    pub fn with_iterations(mut self, n: usize) -> LlmOnly {
        self.max_iterations = n;
        self
    }

    /// Attempts to repair `program`; `reference` is the gold output used
    /// for the acceptability judgement.
    pub fn repair(&mut self, program: &Program, reference: &[String]) -> BaselineOutcome {
        self.repair_shared(&Arc::new(program.clone()), reference)
    }

    /// [`repair`] for a program already behind an [`Arc`]; nothing is
    /// copied, and an unrepaired input comes back as the same handle.
    ///
    /// [`repair`]: LlmOnly::repair
    pub fn repair_shared(
        &mut self,
        program: &Arc<Program>,
        reference: &[String],
    ) -> BaselineOutcome {
        let mut current = Arc::clone(program);
        let mut oracle_use = OracleUse::default();
        let mut report = self.oracle.judge_recording(&current, &mut oracle_use);
        let mut overhead = 0.0f64;
        let mut iterations = 0usize;

        while !report.passes() && iterations < self.max_iterations {
            let Some(primary) = report.primary().cloned() else {
                break;
            };
            let memo = self.oracle.state_memo(&current);
            let mut ctx = RepairContext::shared(&current, &primary, PromptStrategy::Freeform);
            ctx.memo = memo.as_deref();
            let resp = self.model.propose(&ctx);
            overhead += resp.latency_ms;
            let mut applied = false;
            for proposal in &resp.proposals {
                if let Some(mut candidate) = proposal.rule.apply(&current, &primary) {
                    if resp.drift {
                        if let Some(drifted) = rb_llm::rules::apply_semantic_drift(&candidate) {
                            candidate = drifted;
                        }
                    }
                    // No rollback: the model's output replaces the program.
                    current = Arc::new(candidate);
                    applied = true;
                    break;
                }
            }
            report = self.oracle.judge_recording(&current, &mut oracle_use);
            overhead += ORACLE_RUN_MS;
            iterations += 1;
            if !applied {
                break; // the model had nothing; give up
            }
        }
        BaselineOutcome {
            passed: report.passes(),
            acceptable: report.passes() && report.outputs == reference,
            overhead_ms: overhead,
            iterations,
            oracle_use,
            final_program: current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_dataset::Corpus;
    use rb_miri::UbClass;

    #[test]
    fn fixes_some_simple_cases() {
        let corpus = Corpus::generate(3, 4, &[UbClass::Alloc]);
        let mut fixer = LlmOnly::new(ModelId::Gpt4, 0.5, 1);
        let fixed = corpus
            .cases
            .iter()
            .filter(|c| fixer.repair(&c.buggy, &c.gold_outputs()).passed)
            .count();
        assert!(fixed >= 1, "GPT-4 alone should fix at least one alloc case");
    }

    #[test]
    fn leaves_program_unchanged_when_clean() {
        let p = rb_lang::parser::parse_program("fn main() { print(1i32); }").unwrap();
        let mut fixer = LlmOnly::new(ModelId::Gpt35, 0.5, 2);
        let out = fixer.repair(&p, &["1".to_owned()]);
        assert!(out.passed && out.acceptable);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn respects_iteration_budget() {
        // A hard case the weak model likely cannot fix in 2 tries.
        let corpus = Corpus::generate(9, 1, &[UbClass::StackBorrow]);
        let case = &corpus.cases[0];
        let mut fixer = LlmOnly::new(ModelId::Gpt35, 0.9, 3).with_iterations(2);
        let out = fixer.repair(&case.buggy, &case.gold_outputs());
        assert!(out.iterations <= 2);
    }
}
