//! RQ1 (Fig. 7): flexibility. One UB case requiring semantic modification
//! is given to fast thinking; the ten generated solutions are each executed
//! by slow thinking, recording which agents ran (and in which order),
//! whether the result passes Miri, whether it is semantically acceptable,
//! and the simulated overhead — the paper's enable/disable agent matrix.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rb_dataset::{templates_for, UbCase};
use rb_engine::CachedOracle;
use rb_llm::ModelId;
use rb_miri::{Oracle, UbClass};
use rustbrain::{AgentKind, RustBrain, RustBrainConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One row of the Fig. 7 matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolutionRow {
    /// Solution index (1-based, as in the figure).
    pub group: usize,
    /// The agent sequence (the figure's serial numbers).
    pub agents: Vec<AgentKind>,
    /// Whether the knowledge base was consulted.
    pub used_knowledge: bool,
    /// Passes Miri (the figure's blue).
    pub passed: bool,
    /// Semantically acceptable (the figure's red).
    pub acceptable: bool,
    /// Simulated seconds.
    pub overhead_s: f64,
}

/// The full experiment output.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Case the solutions repaired.
    pub case_id: String,
    /// Rows, one per generated solution.
    pub rows: Vec<SolutionRow>,
}

impl Fig7Result {
    /// Renders the matrix as text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fig. 7: RustBrain flexibly fixes UBs — case {} (semantic modification)\n\
             {:<6}{:<44}{:>5}{:>7}{:>9}{:>11}\n",
            self.case_id, "group", "agents (execution order)", "KB", "pass", "accept", "time(s)"
        );
        for r in &self.rows {
            let agents: Vec<&str> = r.agents.iter().map(|a| a.label()).collect();
            out.push_str(&format!(
                "{:<6}{:<44}{:>5}{:>7}{:>9}{:>10.1}\n",
                r.group,
                agents.join(" -> "),
                if r.used_knowledge { "[x]" } else { "[ ]" },
                if r.passed { "yes" } else { "no" },
                if r.acceptable { "yes" } else { "no" },
                r.overhead_s,
            ));
        }
        out
    }

    /// Mean overhead of knowledge-base solutions over non-KB ones.
    #[must_use]
    pub fn kb_overhead_factor(&self) -> Option<f64> {
        let kb: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| r.used_knowledge)
            .map(|r| r.overhead_s)
            .collect();
        let no: Vec<f64> = self
            .rows
            .iter()
            .filter(|r| !r.used_knowledge)
            .map(|r| r.overhead_s)
            .collect();
        if kb.is_empty() || no.is_empty() {
            return None;
        }
        Some(crate::stats::mean(&kb) / crate::stats::mean(&no).max(1e-9))
    }
}

/// Runs Fig. 7: ten fast-thinking solutions for one semantic-modification
/// UB (a dangling pointer whose repair requires restructuring the code),
/// each executed and evaluated independently.
#[must_use]
pub fn run(seed: u64) -> Fig7Result {
    // A scope-escape dangling pointer: the class the paper calls
    // "requiring semantic modification".
    let template = templates_for(UbClass::DanglingPointer)
        .into_iter()
        .find(|t| t.name == "scope_escape")
        .expect("template exists");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sources = (template.make)(&mut rng);
    let case = UbCase::from_sources(
        format!(
            "{}/{}/fig7",
            UbClass::DanglingPointer.label(),
            template.name
        ),
        UbClass::DanglingPointer,
        template.name,
        &sources.buggy,
        &sources.gold,
        &sources.description,
    );
    case.validate().expect("fig7 case valid");
    // Judge through the process-wide verdict cache: the same case is
    // instantiated across seeds and sibling experiments, and the ten
    // slow-thinking executions below re-verify many identical candidates.
    let oracle: Arc<dyn Oracle> = Arc::new(CachedOracle::global());
    let reference = oracle.judge(&case.gold).outputs.clone();
    let report = oracle.judge(&case.buggy);

    // Seed a small knowledge base so abstract-reasoning solutions have
    // something to retrieve (the paper's KB-backed groups).
    let mut brain = RustBrain::with_oracle(
        RustBrainConfig::for_model(ModelId::Gpt4, seed),
        Arc::clone(&oracle),
    );
    brain.seed_knowledge(
        &case.buggy,
        UbClass::DanglingPointer,
        rb_llm::RepairRule::HoistLocalOut,
    );

    let solutions = brain.generate_solutions(&case.buggy, &report);
    let buggy = Arc::new(case.buggy.clone());
    let mut rows = Vec::new();
    for (i, solution) in solutions.iter().enumerate() {
        let outcome = brain.execute_one(&buggy, &report, solution, &reference, 6);
        rows.push(SolutionRow {
            group: i + 1,
            agents: solution.steps.clone(),
            used_knowledge: solution.uses_knowledge(),
            passed: outcome.eval.accuracy,
            acceptable: outcome.eval.acceptability,
            overhead_s: outcome.overhead_ms / 1000.0,
        });
    }
    Fig7Result {
        case_id: case.id,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_ten_diverse_solutions() {
        let r = run(11);
        assert_eq!(r.rows.len(), 10);
        // Diversity: more than two distinct agent sequences.
        let mut seqs: Vec<Vec<AgentKind>> = r.rows.iter().map(|x| x.agents.clone()).collect();
        seqs.sort();
        seqs.dedup();
        assert!(seqs.len() > 2, "only {} distinct solutions", seqs.len());
        // At least one solution repairs the case.
        assert!(r.rows.iter().any(|x| x.passed));
    }

    #[test]
    fn kb_solutions_cost_more() {
        // Average over seeds to smooth sampling noise.
        let mut factors = Vec::new();
        for seed in [1u64, 2, 3, 5, 8] {
            if let Some(f) = run(seed).kb_overhead_factor() {
                factors.push(f);
            }
        }
        assert!(!factors.is_empty());
        let mean = crate::stats::mean(&factors);
        assert!(mean > 1.0, "knowledge overhead factor {mean} <= 1");
    }

    #[test]
    fn render_is_a_matrix() {
        let text = run(4).render();
        assert!(text.contains("group"));
        assert!(text.contains("[x]") || text.contains("[ ]"));
    }
}
