//! The slow-thinking stage (paper stages S1–S2): decompose a solution into
//! agent steps, execute each step through the language model, verify every
//! edit with the injected [`Oracle`], and guard the search with the
//! rollback agent. This inner verification loop re-judges near-identical
//! programs constantly, which is why the oracle seam (rather than a direct
//! interpreter call) matters here most.

use crate::config::RollbackPolicy;
use crate::evaluate::{evaluate_with_report, EvalTriplet};
use crate::features::ProgramFeatures;
use crate::knowledge::KnowledgeBase;
use crate::rollback::{RollbackTracker, ThoughtTrace};
use crate::solution::{AgentKind, Solution};
use rb_lang::Program;
use rb_llm::{LanguageModel, RepairContext, RepairRule};
use rb_miri::{MiriReport, Oracle, OracleUse};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Fixed simulated cost of one oracle (Miri) run in milliseconds.
pub const ORACLE_RUN_MS: f64 = 800.0;

/// Fixed simulated cost of decomposing/validating one agent step
/// (the slow-thinking bookkeeping around each model call).
pub const STEP_DECOMPOSE_MS: f64 = 3_000.0;

/// Record of one executed agent step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Which agent ran.
    pub agent: AgentKind,
    /// The rule it applied (when any proposal was applicable).
    pub rule: Option<RepairRule>,
    /// Oracle error count after the step.
    pub errors_after: usize,
    /// Simulated latency of the step (model + retrieval + oracle).
    pub latency_ms: f64,
    /// Knowledge shots attached to the prompt.
    pub shots: usize,
}

/// Result of executing one solution.
#[derive(Clone, Debug)]
pub struct SolutionOutcome {
    /// The executed solution.
    pub solution: Solution,
    /// Best program state reached (shared with the tracker that found it).
    pub final_program: Arc<Program>,
    /// Evaluation triplet of the best state.
    pub eval: EvalTriplet,
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Thought/error-count trace (the paper's `N` sequence).
    pub trace: ThoughtTrace,
    /// Oracle invocations consumed.
    pub oracle_runs: usize,
    /// Split of `oracle_runs` into executed-fresh vs served-from-cache
    /// (telemetry; always `total() == oracle_runs`).
    pub oracle_use: OracleUse,
    /// Total simulated time of this solution.
    pub overhead_ms: f64,
    /// The rule whose application produced the passing state, if any.
    pub fixing_rule: Option<RepairRule>,
    /// The state the slow-thinking process *ended* in (not necessarily the
    /// best one) — the continuation point under the no-rollback policy.
    pub end_program: Arc<Program>,
    /// Oracle report of the end state (shared, possibly cache-served).
    pub end_report: Arc<MiriReport>,
    /// Program features this solution derived for its knowledge-base
    /// queries, finding them in no slot the oracle keeps for the state.
    pub features_derived: u64,
}

/// Executes one solution against a failing program, verifying every edit
/// through the injected `oracle`.
///
/// Steps run in order; the solution is cycled (up to three passes) while it
/// keeps making progress — the paper's "fine-tune solution" refinement.
///
/// Program states are shared, not copied: the input, every rollback
/// anchor, both returned states and a memoising oracle's entries are
/// handles on the same [`Arc`]s. Each edit goes through
/// [`Oracle::judge_edit`], so the only deep copy per step is the one
/// [`RepairRule::apply`] makes — and a memoising oracle that has seen the
/// edit before skips even that.
#[allow(clippy::too_many_arguments)]
pub fn execute_solution(
    oracle: &dyn Oracle,
    model: &mut dyn LanguageModel,
    mut kb: Option<&mut KnowledgeBase>,
    policy: RollbackPolicy,
    program: &Arc<Program>,
    report: &Arc<MiriReport>,
    solution: &Solution,
    reference: &[String],
    max_oracle_runs: usize,
) -> SolutionOutcome {
    let mut tracker = RollbackTracker::new(policy, Arc::clone(program), Arc::clone(report));
    let mut steps: Vec<StepRecord> = Vec::new();
    let mut overhead = 0.0f64;
    let mut oracle_runs = 0usize;
    let mut oracle_use = OracleUse::default();
    let mut fixing_rule = None;
    let mut features_derived = 0u64;

    'passes: for _pass in 0..3 {
        let errors_at_pass_start = tracker.current().1.error_count();
        for &agent in &solution.steps {
            if tracker.current().1.passes() || oracle_runs >= max_oracle_runs {
                break 'passes;
            }
            let (cur_prog, cur_report) = {
                let (p, r) = tracker.current_shared();
                (Arc::clone(p), Arc::clone(r))
            };
            let Some(primary) = cur_report.primary().cloned() else {
                break 'passes;
            };
            // One span per thinking step; its sim_ms mirrors the step's
            // charge sites exactly (model latency + decompose cost +
            // oracle run), so a step tree reconciles with the solution's
            // overhead. The KB consult charges inside its own child span.
            let mut step_span = rb_obs::span("step");
            step_span.tag("agent", format_args!("{agent:?}"));
            // The oracle's slot for the state carries what a proposal
            // reads off it (its print, rules and prompt digests) and its
            // features, from whichever job proposed on or featured it
            // first. Asking moves no counter, so it comes first.
            let memo = oracle.state_memo(&cur_prog);
            // Abstract reasoning: retrieve similar solved cases.
            let mut shots = Vec::new();
            if agent == AgentKind::AbstractReasoning {
                if let Some(kb) = kb.as_deref_mut() {
                    // The consult is charged for the current report's
                    // class, which can differ from the case's initial
                    // class mid-repair (e.g. a bad patch turning UB into
                    // a compile error).
                    let mut cspan = rb_obs::span("kb.consult");
                    cspan.tag("class", primary.class().label());
                    let consult_ms = kb.query_cost_ms(primary.class());
                    cspan.add_sim_ms(consult_ms);
                    overhead += consult_ms;
                    step_span.add_sim_ms(consult_ms);
                    // The pruned-AST embedding is read (or built) only
                    // when the bucket has entries to score it against.
                    let mut features = None;
                    shots = kb.query_with(primary.class(), 2, || {
                        let shared = ProgramFeatures::shared(
                            memo.as_deref(),
                            &cur_prog,
                            &mut features_derived,
                        );
                        &features.insert(shared).vector
                    });
                }
            }
            let mut ctx = RepairContext::shared(&cur_prog, &primary, agent.strategy());
            ctx.memo = memo.as_deref();
            ctx.shots = shots;
            let shot_count = ctx.shots.len();
            let resp = model.propose(&ctx);
            overhead += resp.latency_ms + STEP_DECOMPOSE_MS;
            step_span.add_sim_ms(resp.latency_ms + STEP_DECOMPOSE_MS);

            // The first proposal whose rule applies is judged. The edit
            // is named by its rule and the drift bit: `apply` reads only
            // the program and its primary error, a function of the
            // program, so a memoising oracle may serve a repeat of it
            // without deriving the candidate again.
            let mut applied = None;
            for proposal in &resp.proposals {
                let rule = proposal.rule;
                let edit = rule as u64 * 2 + u64::from(resp.drift);
                let mut derive = || {
                    let mut candidate = rule.apply(&cur_prog, &primary)?;
                    if resp.drift {
                        rb_llm::rules::drift_in_place(&mut candidate);
                    }
                    Some(candidate)
                };
                if let Some(judged) =
                    oracle.judge_edit(&cur_prog, edit, &mut derive, &mut oracle_use)
                {
                    applied = Some((rule, judged));
                    break;
                }
            }
            match applied {
                Some((rule, (candidate, creport))) => {
                    oracle_runs += 1;
                    // Simulated cost is charged per *judgement*, cached or
                    // not — the cache dodges real interpreter work, never
                    // the modelled Miri latency (determinism depends on
                    // it).
                    overhead += ORACLE_RUN_MS;
                    step_span.add_sim_ms(ORACLE_RUN_MS);
                    let errors_after = creport.error_count();
                    if errors_after == 0 {
                        fixing_rule = Some(rule);
                    }
                    tracker.observe(candidate, creport);
                    step_span.tag("rule", format_args!("{rule:?}"));
                    step_span.tag("errors_after", errors_after);
                    steps.push(StepRecord {
                        agent,
                        rule: Some(rule),
                        errors_after,
                        latency_ms: resp.latency_ms + ORACLE_RUN_MS,
                        shots: shot_count,
                    });
                }
                None => {
                    steps.push(StepRecord {
                        agent,
                        rule: None,
                        errors_after: cur_report.error_count(),
                        latency_ms: resp.latency_ms,
                        shots: shot_count,
                    });
                }
            }
        }
        // Stop cycling when a full pass made no progress.
        if tracker.current().1.error_count() >= errors_at_pass_start {
            break;
        }
    }

    let (end_program, end_report) = {
        let (p, r) = tracker.current_shared();
        (Arc::clone(p), Arc::clone(r))
    };
    let (best_prog, best_report) = tracker.best_shared();
    let final_program = Arc::clone(best_prog);
    let eval = evaluate_with_report(best_report, reference, overhead);
    SolutionOutcome {
        solution: solution.clone(),
        final_program,
        eval,
        steps,
        trace: tracker.trace,
        oracle_runs,
        oracle_use,
        overhead_ms: overhead,
        fixing_rule,
        end_program,
        end_report,
        features_derived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_llm::model::ModelResponse;
    use rb_llm::{ModelCallStats, ModelId, Proposal, SimulatedModel};
    use rb_miri::{DirectOracle, StateMemo, UbClass};

    fn fixture() -> (Arc<Program>, Arc<MiriReport>) {
        let p = rb_lang::parser::parse_program(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let r = DirectOracle.judge(&p);
        (Arc::new(p), r)
    }

    #[test]
    fn modify_solution_fixes_double_free() {
        let (p, r) = fixture();
        let mut model = SimulatedModel::new(ModelId::GptO1, 0.3, 1);
        let sol = Solution::new(vec![AgentKind::Modify, AgentKind::SafeReplace]);
        let out = execute_solution(
            &DirectOracle,
            &mut model,
            None,
            RollbackPolicy::Adaptive,
            &p,
            &r,
            &sol,
            &["3".to_owned()],
            12,
        );
        assert!(out.eval.accuracy, "trace: {:?}", out.trace);
        assert!(out.eval.acceptability);
        assert_eq!(out.fixing_rule, Some(RepairRule::RemoveDoubleFree));
        assert!(out.overhead_ms > 0.0);
        // The direct oracle executes every judgement.
        assert_eq!(out.oracle_use.total(), out.oracle_runs);
        assert_eq!(out.oracle_use.cached, 0);
    }

    #[test]
    fn budget_respected() {
        let (p, r) = fixture();
        let mut model = SimulatedModel::new(ModelId::Gpt35, 0.9, 2);
        let sol = Solution::new(vec![
            AgentKind::Assert,
            AgentKind::Assert,
            AgentKind::Assert,
        ]);
        let out = execute_solution(
            &DirectOracle,
            &mut model,
            None,
            RollbackPolicy::Adaptive,
            &p,
            &r,
            &sol,
            &["3".to_owned()],
            2,
        );
        assert!(out.oracle_runs <= 2);
    }

    /// Judges every program as a regression: a fixed report with more
    /// errors than the fixture's.
    struct RegressingOracle(Arc<MiriReport>);

    impl Oracle for RegressingOracle {
        fn judge(&self, _: &Program) -> Arc<MiriReport> {
            Arc::clone(&self.0)
        }
    }

    /// Always proposes the double-free fix, which applies to the fixture.
    struct ScriptedModel(ModelCallStats);

    impl LanguageModel for ScriptedModel {
        fn id(&self) -> ModelId {
            ModelId::Gpt4
        }
        fn temperature(&self) -> f64 {
            0.0
        }
        fn propose(&mut self, _: &RepairContext<'_>) -> ModelResponse {
            self.0.calls += 1;
            ModelResponse {
                proposals: vec![Proposal {
                    rule: RepairRule::RemoveDoubleFree,
                    score: 1.0,
                }],
                truncated: false,
                latency_ms: 1.0,
                tokens: 0,
                drift: false,
            }
        }
        fn stats(&self) -> &ModelCallStats {
            &self.0
        }
    }

    #[test]
    fn all_regressing_steps_return_the_input_state() {
        let (p, r) = fixture();
        let mut worse = (*r).clone();
        worse
            .errors
            .extend(r.errors.iter().cloned().cycle().take(4));
        let oracle = RegressingOracle(Arc::new(worse));
        let mut model = ScriptedModel(ModelCallStats::default());
        let sol = Solution::new(vec![AgentKind::Modify, AgentKind::Modify]);
        let out = execute_solution(
            &oracle,
            &mut model,
            None,
            RollbackPolicy::Adaptive,
            &p,
            &r,
            &sol,
            &["3".to_owned()],
            8,
        );
        assert_eq!(out.trace.rollbacks, 2, "trace: {:?}", out.trace);
        assert!(Arc::ptr_eq(&out.final_program, &p));
        assert!(Arc::ptr_eq(&out.end_program, &p));
        assert!(Arc::ptr_eq(&out.end_report, &r));
    }

    /// The direct oracle plus one [`StateMemo`] per distinct program,
    /// made on first request.
    #[derive(Default)]
    struct SlotOracle(std::sync::Mutex<Vec<(Program, Arc<StateMemo>)>>);

    impl Oracle for SlotOracle {
        fn judge(&self, program: &Program) -> Arc<MiriReport> {
            DirectOracle.judge(program)
        }

        fn state_memo(&self, state: &Arc<Program>) -> Option<Arc<StateMemo>> {
            let mut slots = self.0.lock().unwrap();
            if let Some((_, memo)) = slots.iter().find(|(p, _)| p == &**state) {
                return Some(Arc::clone(memo));
            }
            let memo = Arc::new(StateMemo::default());
            slots.push(((**state).clone(), Arc::clone(&memo)));
            Some(memo)
        }
    }

    #[test]
    fn knowledge_queries_read_the_embedding_from_the_slot() {
        let (p, r) = fixture();
        let mut kb = KnowledgeBase::new();
        let (vector, _) = rb_lang::prune::embed_pruned(&p);
        kb.insert(vector, UbClass::Alloc, RepairRule::RemoveDoubleFree);
        let sol = Solution::new(vec![AgentKind::AbstractReasoning]);
        let run = |oracle: &dyn Oracle, kb: &mut KnowledgeBase| {
            let mut model = SimulatedModel::new(ModelId::Gpt4, 0.5, 3);
            let out = execute_solution(
                oracle,
                &mut model,
                Some(kb),
                RollbackPolicy::Adaptive,
                &p,
                &r,
                &sol,
                &["3".to_owned()],
                8,
            );
            let shots: Vec<usize> = out.steps.iter().map(|s| s.shots).collect();
            (shots, out.features_derived)
        };
        let (direct_shots, direct_derived) = run(&DirectOracle, &mut kb);
        assert!(
            direct_shots[0] > 0,
            "the query found no shot: {direct_shots:?}"
        );
        assert_eq!(direct_derived, direct_shots.len() as u64);
        let slotted = SlotOracle::default();
        let (cold, derived) = run(&slotted, &mut kb);
        assert_eq!((cold, derived), (direct_shots.clone(), 1));
        let (warm, derived) = run(&slotted, &mut kb);
        assert_eq!(
            (warm, derived),
            (direct_shots, 0),
            "the warm query embedded again"
        );
    }

    #[test]
    fn trace_records_error_sequence() {
        let (p, r) = fixture();
        let mut model = SimulatedModel::new(ModelId::Gpt4, 0.5, 3);
        let sol = Solution::new(vec![AgentKind::Modify]);
        let out = execute_solution(
            &DirectOracle,
            &mut model,
            None,
            RollbackPolicy::Adaptive,
            &p,
            &r,
            &sol,
            &["3".to_owned()],
            8,
        );
        assert_eq!(out.trace.error_counts[0], r.error_count());
        assert!(!out.trace.error_counts.is_empty());
    }
}
