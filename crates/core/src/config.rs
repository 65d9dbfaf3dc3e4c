//! Configuration of the RustBrain pipeline: which model drives it, which
//! mechanisms are enabled, and the search budgets.

use rb_llm::ModelId;
use serde::{Deserialize, Serialize};

/// Rollback behaviour of the slow-thinking executor (paper §III-B2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RollbackPolicy {
    /// RustBrain's adaptive rollback: return to the best intermediate state
    /// (fewest oracle errors) whenever an edit makes things worse.
    Adaptive,
    /// The prior art's policy: discard everything and restart from the
    /// initial program (cost `c · Tₙ`).
    ToInitial,
    /// No rollback: accept every edit, letting hallucinations propagate
    /// (paper Fig. 5a).
    None,
}

/// Full pipeline configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RustBrainConfig {
    /// Backing model.
    pub model: ModelId,
    /// Sampling temperature (paper default 0.5).
    pub temperature: f64,
    /// Seed for all stochastic choices.
    pub seed: u64,
    /// Whether the AST knowledge base (abstract reasoning agent) is used.
    pub use_knowledge: bool,
    /// Whether the fast/slow feedback loop updates solution priors.
    pub use_feedback: bool,
    /// Rollback policy of the slow-thinking executor.
    pub rollback: RollbackPolicy,
    /// How many candidate solutions fast thinking generates per problem.
    pub max_solutions: usize,
    /// Maximum repair steps per solution.
    pub max_steps_per_solution: usize,
    /// Overall oracle-iteration budget per problem.
    pub max_iterations: usize,
    /// Overall model-call budget per problem (an API-cost cap).
    pub max_model_calls: usize,
}

impl Default for RustBrainConfig {
    fn default() -> RustBrainConfig {
        RustBrainConfig {
            model: ModelId::Gpt4,
            temperature: 0.5,
            seed: 0,
            use_knowledge: true,
            use_feedback: true,
            rollback: RollbackPolicy::Adaptive,
            max_solutions: 10,
            max_steps_per_solution: 3,
            max_iterations: 12,
            max_model_calls: 7,
        }
    }
}

impl RustBrainConfig {
    /// The paper's primary configuration for a given model and seed.
    #[must_use]
    pub fn for_model(model: ModelId, seed: u64) -> RustBrainConfig {
        RustBrainConfig {
            model,
            seed,
            ..RustBrainConfig::default()
        }
    }

    /// GPT-4 + RustBrain without the knowledge base (the "non knowledge"
    /// series in Figs. 8/9/12 and Table I).
    #[must_use]
    pub fn without_knowledge(model: ModelId, seed: u64) -> RustBrainConfig {
        RustBrainConfig {
            model,
            seed,
            use_knowledge: false,
            ..RustBrainConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = RustBrainConfig::default();
        assert_eq!(c.temperature, 0.5);
        assert_eq!(c.max_solutions, 10);
        assert_eq!(c.rollback, RollbackPolicy::Adaptive);
        assert!(c.use_knowledge && c.use_feedback);
    }

    #[test]
    fn constructors() {
        let c = RustBrainConfig::for_model(ModelId::Claude35, 9);
        assert_eq!(c.model, ModelId::Claude35);
        assert_eq!(c.seed, 9);
        let c = RustBrainConfig::without_knowledge(ModelId::Gpt4, 1);
        assert!(!c.use_knowledge);
    }
}
