//! The fast/slow feedback mechanism (paper §III-C): slow-thinking
//! evaluation results flow back into fast-thinking solution priors, so
//! later problems of the same class start from agent sequences that worked
//! — reducing dependence on the knowledge base over time (the "red
//! sections" of the paper's Table I).

use crate::evaluate::EvalTriplet;
use crate::solution::AgentKind;
use rb_miri::UbClass;
use serde::{Deserialize, Serialize};

/// Number of UB classes, `Compile` included (it is the last variant).
const CLASSES: usize = UbClass::Compile as usize + 1;

/// Number of agents.
const AGENTS: usize = AgentKind::ALL.len();

/// Learned priors over (UB class, leading agent) pairs, held densely and
/// indexed by `class as usize` and `agent as usize`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Priors {
    weights: [[f64; AGENTS]; CLASSES],
    /// Remembered best full solutions per class (for instant replay).
    best: [Option<Vec<AgentKind>>; CLASSES],
    updates: u64,
}

impl Default for Priors {
    fn default() -> Priors {
        Priors {
            weights: [[1.0; AGENTS]; CLASSES],
            best: Default::default(),
            updates: 0,
        }
    }
}

/// Exponential-moving-average rate.
const EMA: f64 = 0.35;

impl Priors {
    /// Fresh priors: every agent starts equally plausible for every class.
    #[must_use]
    pub fn new() -> Priors {
        Priors::default()
    }

    /// Current weight of starting a `class` repair with `agent`
    /// (default 1.0).
    #[must_use]
    pub fn weight(&self, class: UbClass, agent: AgentKind) -> f64 {
        self.weights[class as usize][agent as usize]
    }

    /// Every agent's weight for starting a `class` repair, indexed by
    /// `agent as usize`.
    #[must_use]
    pub fn row(&self, class: UbClass) -> &[f64; AGENTS] {
        &self.weights[class as usize]
    }

    /// The remembered best solution for a class, when one exists.
    #[must_use]
    pub fn best_solution(&self, class: UbClass) -> Option<&[AgentKind]> {
        self.best[class as usize].as_deref()
    }

    /// Number of feedback updates applied.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Feeds one solution outcome back into the priors.
    pub fn update(&mut self, class: UbClass, steps: &[AgentKind], eval: &EvalTriplet) {
        self.updates += 1;
        let reward = eval.score() / 2.5; // normalise to ~[0, 1]
        for (i, &agent) in steps.iter().enumerate() {
            // Earlier steps carry more responsibility for the outcome.
            let credit = reward * (1.0 / (1.0 + i as f64));
            let w = &mut self.weights[class as usize][agent as usize];
            *w = (1.0 - EMA) * *w + EMA * (0.25 + 2.0 * credit);
        }
        if eval.accuracy && eval.acceptability {
            self.best[class as usize] = Some(steps.to_vec());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> EvalTriplet {
        EvalTriplet {
            accuracy: true,
            acceptability: true,
            overhead_ms: 5_000.0,
        }
    }

    fn bad() -> EvalTriplet {
        EvalTriplet {
            accuracy: false,
            acceptability: false,
            overhead_ms: 60_000.0,
        }
    }

    #[test]
    fn success_raises_weight_failure_lowers() {
        let mut p = Priors::new();
        let before = p.weight(UbClass::Alloc, AgentKind::Modify);
        p.update(UbClass::Alloc, &[AgentKind::Modify], &good());
        assert!(p.weight(UbClass::Alloc, AgentKind::Modify) > before);
        p.update(UbClass::Alloc, &[AgentKind::Assert], &bad());
        assert!(p.weight(UbClass::Alloc, AgentKind::Assert) < 1.0);
    }

    #[test]
    fn best_solution_remembered_only_on_acceptable() {
        let mut p = Priors::new();
        p.update(UbClass::Panic, &[AgentKind::Assert], &bad());
        assert!(p.best_solution(UbClass::Panic).is_none());
        p.update(
            UbClass::Panic,
            &[AgentKind::Modify, AgentKind::Assert],
            &good(),
        );
        assert_eq!(
            p.best_solution(UbClass::Panic),
            Some(&[AgentKind::Modify, AgentKind::Assert][..])
        );
    }

    #[test]
    fn repeated_success_converges_up() {
        let mut p = Priors::new();
        for _ in 0..10 {
            p.update(UbClass::DataRace, &[AgentKind::SafeReplace], &good());
        }
        assert!(p.weight(UbClass::DataRace, AgentKind::SafeReplace) > 1.5);
        assert_eq!(p.updates(), 10);
    }

    #[test]
    fn every_pair_defaults_to_one() {
        let p = Priors::new();
        for class in UbClass::ALL.into_iter().chain([UbClass::Compile]) {
            for agent in AgentKind::ALL {
                assert_eq!(p.weight(class, agent), 1.0, "{class:?}/{agent:?}");
            }
            assert!(p.best_solution(class).is_none());
        }
    }

    #[test]
    fn classes_are_independent() {
        let mut p = Priors::new();
        p.update(UbClass::Alloc, &[AgentKind::Modify], &good());
        assert_eq!(p.weight(UbClass::Panic, AgentKind::Modify), 1.0);
    }
}
