//! A RustAssistant-style fixed repair pipeline (Deligiannis et al., ICSE
//! 2025), as characterised in the paper's comparison: a *fixed* sequence of
//! generic steps driven by the error message, iterated until the oracle is
//! clean, with restart-from-scratch on regression — no targeted agents, no
//! adaptive rollback, no knowledge base, no feedback. The fixed generic
//! steps add constant per-iteration overhead ("numerous generic steps ...
//! unnecessary complexity and overhead", paper RQ1 (iii)).

use crate::BaselineOutcome;
use rb_lang::Program;
use rb_llm::{LanguageModel, ModelId, PromptStrategy, RepairContext, SimulatedModel};
use rb_miri::{DirectOracle, Oracle, OracleUse};
use rustbrain::slow::ORACLE_RUN_MS;
use std::sync::Arc;

/// Per-iteration cost of the fixed pipeline's generic steps (error
/// parsing, diff formatting, re-prompt assembly) in simulated ms.
const GENERIC_STEP_MS: f64 = 2_200.0;

/// The fixed-pipeline repairer.
pub struct RustAssistant {
    oracle: Arc<dyn Oracle>,
    model: SimulatedModel,
    max_iterations: usize,
}

impl RustAssistant {
    /// Creates the pipeline around a model (the original uses GPT-4),
    /// judging programs with the zero-cost [`DirectOracle`].
    #[must_use]
    pub fn new(model: ModelId, temperature: f64, seed: u64) -> RustAssistant {
        RustAssistant::with_oracle(model, temperature, seed, Arc::new(DirectOracle))
    }

    /// Creates the pipeline with an injected oracle (the batch engine
    /// passes its process-wide verdict cache through here).
    #[must_use]
    pub fn with_oracle(
        model: ModelId,
        temperature: f64,
        seed: u64,
        oracle: Arc<dyn Oracle>,
    ) -> RustAssistant {
        RustAssistant {
            oracle,
            model: SimulatedModel::new(model, temperature, seed),
            max_iterations: 2,
        }
    }

    /// The fixed prompt schedule: RustAssistant always asks for a direct
    /// code modification based on the error text; every other iteration it
    /// falls back to a generic retry. There is no per-error specialisation.
    fn strategy_for(_iteration: usize) -> PromptStrategy {
        // The fixed pipeline has no per-error agent specialisation: every
        // prompt is the same generic repair request.
        PromptStrategy::Freeform
    }

    /// Attempts to repair `program` against the `reference` gold outputs.
    pub fn repair(&mut self, program: &Program, reference: &[String]) -> BaselineOutcome {
        self.repair_shared(&Arc::new(program.clone()), reference)
    }

    /// [`repair`] for a program already behind an [`Arc`]; nothing is
    /// copied.
    ///
    /// [`repair`]: RustAssistant::repair
    pub fn repair_shared(
        &mut self,
        program: &Arc<Program>,
        reference: &[String],
    ) -> BaselineOutcome {
        // States are shared handles: the rollback to the initial state and
        // an unchanged "next" state are reference bumps, not copies.
        let initial = Arc::clone(program);
        let mut oracle_use = OracleUse::default();
        let initial_report = self.oracle.judge_recording(&initial, &mut oracle_use);
        let mut current = Arc::clone(&initial);
        let mut errors = initial_report.error_count();
        let mut report = initial_report;
        let mut overhead = 0.0f64;
        let mut iterations = 0usize;

        while !report.passes() && iterations < self.max_iterations {
            let Some(primary) = report.primary().cloned() else {
                break;
            };
            let memo = self.oracle.state_memo(&current);
            let mut ctx = RepairContext::shared(&current, &primary, Self::strategy_for(iterations));
            ctx.memo = memo.as_deref();
            let resp = self.model.propose(&ctx);
            overhead += resp.latency_ms + GENERIC_STEP_MS;
            let mut next = Arc::clone(&current);
            for proposal in &resp.proposals {
                if let Some(mut candidate) = proposal.rule.apply(&current, &primary) {
                    if resp.drift {
                        if let Some(drifted) = rb_llm::rules::apply_semantic_drift(&candidate) {
                            candidate = drifted;
                        }
                    }
                    next = Arc::new(candidate);
                    break;
                }
            }
            let next_report = self.oracle.judge_recording(&next, &mut oracle_use);
            overhead += ORACLE_RUN_MS;
            iterations += 1;
            if next_report.error_count() > errors {
                // Fixed pipelines roll back to the *initial* state,
                // discarding all partial progress (cost c·Tₙ).
                current = Arc::clone(&initial);
                report = self.oracle.judge_recording(&current, &mut oracle_use);
                errors = report.error_count();
            } else {
                errors = next_report.error_count();
                current = next;
                report = next_report;
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
    fn fixes_easy_classes() {
        let corpus = Corpus::generate(5, 4, &[UbClass::Alloc]);
        let mut ra = RustAssistant::new(ModelId::Gpt4, 0.5, 1);
        let fixed = corpus
            .cases
            .iter()
            .filter(|c| ra.repair(&c.buggy, &c.gold_outputs()).passed)
            .count();
        assert!(fixed >= 2, "fixed {fixed}/4");
    }

    #[test]
    fn generic_steps_cost_time() {
        let corpus = Corpus::generate(6, 1, &[UbClass::Panic]);
        let case = &corpus.cases[0];
        let mut ra = RustAssistant::new(ModelId::Gpt4, 0.5, 2);
        let out = ra.repair(&case.buggy, &case.gold_outputs());
        if out.iterations > 0 {
            assert!(out.overhead_ms >= GENERIC_STEP_MS * out.iterations as f64);
        }
    }

    #[test]
    fn strategy_schedule_is_fixed() {
        assert_eq!(RustAssistant::strategy_for(0), PromptStrategy::Freeform);
        assert_eq!(RustAssistant::strategy_for(1), PromptStrategy::Freeform);
    }
}
