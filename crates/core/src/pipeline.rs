//! The end-to-end RustBrain pipeline: Miri detection → fast-thinking
//! solution generation → slow-thinking decomposition/verification →
//! evaluation triplet → feedback into priors and knowledge base.

use crate::config::RustBrainConfig;
use crate::evaluate::evaluate_with_report;
use crate::fast::FastThinking;
use crate::features::{extract_features, CodeFeatures};
use crate::feedback::Priors;
use crate::knowledge::KnowledgeBase;
use crate::slow::{execute_solution, SolutionOutcome};
use crate::solution::Solution;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rb_lang::prune::embed_pruned;
use rb_lang::Program;
use rb_llm::{LanguageModel, ModelCallStats, RepairRule, SimulatedModel};
use rb_miri::{DirectOracle, MiriReport, Oracle, OracleUse, UbClass};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Aggregated result of repairing one program.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RepairOutcome {
    /// Whether the final program passes the oracle.
    pub passed: bool,
    /// Whether its outputs match the reference (semantic acceptability).
    pub acceptable: bool,
    /// Total simulated time (model + retrieval + oracle runs).
    pub overhead_ms: f64,
    /// Oracle invocations consumed.
    pub oracle_runs: usize,
    /// Oracle judgements that executed the interpreter fresh.
    ///
    /// Together with `oracle_cached` this covers *every* judgement the
    /// repair made — the initial detection, each verification counted in
    /// `oracle_runs`, and rollback re-verifications — so
    /// `oracle_executed + oracle_cached >= oracle_runs`, with the total
    /// itself identical across oracles. The split is pure telemetry and
    /// is the *only* part of the outcome allowed to differ between a
    /// caching oracle and [`DirectOracle`] (everything else is
    /// bit-identical — property-tested in `rb_engine`'s
    /// oracle-equivalence suite).
    pub oracle_executed: usize,
    /// Oracle judgements served from a cache (always 0 under
    /// [`DirectOracle`]).
    pub oracle_cached: usize,
    /// Judgements resolved without the oracle. Always 0: every candidate
    /// is judged. Kept so the telemetry layout readers parse is stable.
    pub oracle_prevetoed: usize,
    /// Solutions attempted before stopping.
    pub solutions_tried: usize,
    /// Knowledge-base lookups this repair made: the up-front S3→F
    /// consult plus every retrieval during slow thinking (0 when the
    /// knowledge base is disabled).
    pub kb_queries: u64,
    /// Simulated milliseconds those lookups accrued — bucket-indexed
    /// scan cost, covering *all* KB time charged into `overhead_ms`
    /// (consult included), so subtracting it isolates non-KB overhead.
    pub kb_query_time_ms: f64,
    /// The best program produced (shared with the input or with the
    /// oracle memo that judged it; never a copy).
    pub final_program: Arc<Program>,
    /// Concatenated oracle error counts across all attempts.
    pub error_history: Vec<usize>,
    /// Rules applied along the winning path.
    pub rules_applied: Vec<RepairRule>,
    /// Rollbacks performed.
    pub rollbacks: usize,
    /// The winning solution, when the repair succeeded.
    pub best_solution: Option<Solution>,
    /// UB class of the problem (from the initial report).
    pub class: UbClass,
}

/// Records one finished repair into the process-wide metrics registry:
/// the per-class repair counter and the per-class simulated-latency
/// histogram — the direct input for the planned scheduler cost model.
fn record_repair_metrics(class: UbClass, sim_ms: f64) {
    let m = rb_obs::metrics();
    m.counter_add("rustbrain_repairs_total", Some(("class", class.label())), 1);
    m.observe(
        "rustbrain_repair_latency_sim_ms",
        Some(("class", class.label())),
        sim_ms,
        rb_obs::SIM_MS_BUCKETS,
    );
}

/// The RustBrain framework instance. Holds the model, the knowledge base,
/// the learned priors and the injected [`Oracle`] every program judgement
/// goes through; repairs are stateful so that self-learning carries across
/// problems (the paper's feedback mechanism).
pub struct RustBrain {
    config: RustBrainConfig,
    oracle: Arc<dyn Oracle>,
    model: SimulatedModel,
    knowledge: KnowledgeBase,
    priors: Priors,
    fast: FastThinking,
}

impl RustBrain {
    /// Builds a framework instance from a configuration, judging programs
    /// with the zero-cost [`DirectOracle`] (a thin wrapper over
    /// [`with_oracle`]).
    ///
    /// [`with_oracle`]: RustBrain::with_oracle
    #[must_use]
    pub fn new(config: RustBrainConfig) -> RustBrain {
        RustBrain::with_oracle(config, Arc::new(DirectOracle))
    }

    /// Builds a framework instance that judges every program — the initial
    /// detection, each slow-thinking edit verification, and rollback
    /// re-verification — through `oracle`. This is the seam the batch
    /// engine uses to share one process-wide verdict cache across jobs,
    /// and where a real-Miri or remote backend would plug in.
    #[must_use]
    pub fn with_oracle(config: RustBrainConfig, oracle: Arc<dyn Oracle>) -> RustBrain {
        let model = SimulatedModel::new(config.model, config.temperature, config.seed);
        let fast = FastThinking::new(ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(0xFA57)));
        RustBrain {
            config,
            oracle,
            model,
            knowledge: KnowledgeBase::new(),
            priors: Priors::new(),
            fast,
        }
    }

    /// Replaces the knowledge base with `kb` (builder-style). Batch jobs
    /// use this to start from a [`KnowledgeBase::snapshot`] of
    /// the engine's shared pre-seeded base; their subsequent inserts are
    /// recovered with [`KnowledgeBase::delta`] and merged after the batch.
    #[must_use]
    pub fn with_knowledge_base(mut self, kb: KnowledgeBase) -> RustBrain {
        self.knowledge = kb;
        self
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &RustBrainConfig {
        &self.config
    }

    /// The injected oracle.
    #[must_use]
    pub fn oracle(&self) -> &Arc<dyn Oracle> {
        &self.oracle
    }

    /// Read access to the knowledge base.
    #[must_use]
    pub fn knowledge(&self) -> &KnowledgeBase {
        &self.knowledge
    }

    /// Read access to the learned priors.
    #[must_use]
    pub fn priors(&self) -> &Priors {
        &self.priors
    }

    /// Lifetime statistics of the backing model.
    #[must_use]
    pub fn model_stats(&self) -> &ModelCallStats {
        self.model.stats()
    }

    /// Pre-seeds the knowledge base with a solved case (used to model a
    /// pre-built knowledge base).
    pub fn seed_knowledge(&mut self, buggy: &Program, class: UbClass, rule: RepairRule) {
        let (vector, _) = embed_pruned(buggy);
        self.knowledge.insert(vector, class, rule);
    }

    /// Generates (without executing) fast-thinking solutions for a failing
    /// program — exposed for the RQ1 flexibility experiment.
    pub fn generate_solutions(&mut self, program: &Program, report: &MiriReport) -> Vec<Solution> {
        self.solutions_for(&extract_features(program, report))
    }

    fn solutions_for(&mut self, features: &CodeFeatures) -> Vec<Solution> {
        self.fast.generate(
            features,
            &self.priors,
            self.config.max_solutions,
            self.config.temperature,
            self.config.use_feedback,
        )
    }

    /// Executes one solution — exposed for the RQ1 flexibility experiment.
    pub fn execute_one(
        &mut self,
        program: &Arc<Program>,
        report: &Arc<MiriReport>,
        solution: &Solution,
        reference: &[String],
        budget: usize,
    ) -> SolutionOutcome {
        let kb = self.config.use_knowledge.then_some(&mut self.knowledge);
        execute_solution(
            self.oracle.as_ref(),
            &mut self.model,
            kb,
            self.config.rollback,
            program,
            report,
            solution,
            reference,
            budget,
        )
    }

    /// Repairs a failing program. `reference` is the gold observable output
    /// used for the acceptability dimension of the evaluation triplet.
    /// `program` is copied once into a shared handle; a caller that
    /// already holds one calls [`RustBrain::repair_shared`] instead.
    ///
    /// When a tracer is installed (see `rb_obs::trace::scope`) the repair
    /// emits a `repair` span whose direct children — the `fast` phase,
    /// the up-front `kb.consult`, and one `solution` span per attempt —
    /// carry `sim_ms` attributions that sum *exactly* to the outcome's
    /// `overhead_ms`: the spans are opened at the cost model's charge
    /// sites, not alongside them. Tracing and the metrics recorded into
    /// `rb_obs::metrics()` are purely observational; results are
    /// byte-identical with or without them.
    pub fn repair(&mut self, program: &Program, reference: &[String]) -> RepairOutcome {
        self.repair_shared(&Arc::new(program.clone()), reference)
    }

    /// [`repair`] for a program the caller already holds behind an
    /// [`Arc`]: nothing is copied. Every later use shares the handle —
    /// the judgement (a memoising oracle keeps it), the start states, the
    /// rollback anchors and, when no edit beats it, the returned
    /// `final_program`.
    ///
    /// [`repair`]: RustBrain::repair
    pub fn repair_shared(&mut self, input: &Arc<Program>, reference: &[String]) -> RepairOutcome {
        let mut repair_span = rb_obs::span("repair");
        let mut oracle_use = OracleUse::default();
        let program: &Program = input;
        // Held as an Arc end to end: a cache-served verdict is shared,
        // never deep-copied (execute_one and the rollback tracker only
        // ever borrow it).
        let report: Arc<MiriReport> = self.oracle.judge_recording(input, &mut oracle_use);
        let class = report.primary().map_or(UbClass::Compile, |e| e.class());
        repair_span.tag("class", class.label());
        if report.passes() {
            repair_span.tag("outcome", "already-passing");
            record_repair_metrics(class, 0.0);
            let eval = evaluate_with_report(&report, reference, 0.0);
            return RepairOutcome {
                passed: true,
                acceptable: eval.acceptability,
                overhead_ms: 0.0,
                oracle_runs: 1,
                oracle_executed: oracle_use.executed,
                oracle_cached: oracle_use.cached,
                oracle_prevetoed: oracle_use.prevetoed,
                solutions_tried: 0,
                kb_queries: 0,
                kb_query_time_ms: 0.0,
                final_program: Arc::clone(input),
                error_history: vec![0],
                rules_applied: Vec::new(),
                rollbacks: 0,
                best_solution: None,
                class,
            };
        }

        // Fast thinking charges one model call (solution generation): the
        // defect class comes from the oracle report already in hand.
        let profile = self.model.profile();
        let fast_tokens = rb_llm::tokens::count_tokens(&rb_lang::printer::print_program(program));
        let fast_cost = profile.latency_base_ms + profile.latency_per_token_ms * fast_tokens as f64;
        let (features, solutions) = {
            let mut fast_span = rb_obs::span("fast");
            fast_span.add_sim_ms(fast_cost);
            // Extracted once: the features' pruned-AST embedding is also
            // the knowledge-base key stored on success below.
            let features = extract_features(program, &report);
            let solutions = self.solutions_for(&features);
            fast_span.tag("solutions", solutions.len());
            (features, solutions)
        };
        let mut best: Option<SolutionOutcome> = None;
        let mut total_overhead = fast_cost;
        let mut total_runs = 0usize;
        let mut history: Vec<usize> = vec![report.error_count()];
        let mut rollbacks = 0usize;
        let mut tried = 0usize;

        // The knowledge-enabled framework consults the base before anything
        // else (the paper's S3->F feedback path); that lookup costs time
        // regardless of whether a shot is ultimately attached. The charge
        // is the indexed per-class cost — the same number an actual query
        // for this class accrues, so charged and accrued overhead agree —
        // and it is booked into the kb_* telemetry too, so kb_query_time_ms
        // accounts for every KB millisecond inside overhead_ms.
        let mut kb_consults = 0u64;
        let mut kb_consult_ms = 0.0f64;
        if self.config.use_knowledge {
            kb_consults = 1;
            let mut consult_span = rb_obs::span("kb.consult");
            consult_span.tag("class", class.label());
            kb_consult_ms = self.knowledge.query_cost_ms(class);
            consult_span.add_sim_ms(kb_consult_ms);
            total_overhead += kb_consult_ms;
        }
        let kb_queries_before = self.knowledge.queries();
        let kb_time_before = self.knowledge.query_time_ms();
        // The state each solution starts from depends on the rollback
        // policy: adaptive continues from the best state seen so far,
        // restart-from-initial always re-derives from scratch, and
        // no-rollback continues from wherever the last solution *ended* —
        // letting hallucinated damage compound across the whole process
        // (the paper's Fig. 5a). Every state is a shared handle: the
        // input's, or a reference bump on a state some solution already
        // produced.
        let mut start_state: Option<(Arc<Program>, Arc<MiriReport>)> = None;
        let calls_at_start = self.model.stats().calls;
        for (i, solution) in solutions.iter().enumerate() {
            if total_runs >= self.config.max_iterations
                || (self.model.stats().calls - calls_at_start) as usize
                    >= self.config.max_model_calls
            {
                break;
            }
            let remaining_solutions = (solutions.len() - i).max(1);
            let budget = ((self.config.max_iterations - total_runs) / remaining_solutions)
                .max(self.config.max_steps_per_solution);
            let (start_prog, start_report) = match (&self.config.rollback, &start_state) {
                (crate::config::RollbackPolicy::ToInitial, _) | (_, None) => (input, &report),
                (_, Some((p, r))) => (p, r),
            };
            let outcome = {
                let mut solution_span = rb_obs::span("solution");
                solution_span.tag("index", i);
                let outcome =
                    self.execute_one(start_prog, start_report, solution, reference, budget);
                solution_span.add_sim_ms(outcome.overhead_ms);
                solution_span.tag("accuracy", outcome.eval.accuracy);
                outcome
            };
            start_state = Some(match self.config.rollback {
                crate::config::RollbackPolicy::Adaptive => {
                    // Continue from the best state while it still has
                    // errors; a passing-but-unacceptable state offers no
                    // foothold for refinement, so seek a fresh path from
                    // the original program instead.
                    if outcome.eval.accuracy {
                        (Arc::clone(input), Arc::clone(&report))
                    } else {
                        let reverified = self
                            .oracle
                            .judge_recording(&outcome.final_program, &mut oracle_use);
                        (Arc::clone(&outcome.final_program), reverified)
                    }
                }
                crate::config::RollbackPolicy::None => (
                    Arc::clone(&outcome.end_program),
                    Arc::clone(&outcome.end_report),
                ),
                crate::config::RollbackPolicy::ToInitial => {
                    (Arc::clone(input), Arc::clone(&report))
                }
            });
            tried += 1;
            total_overhead += outcome.overhead_ms;
            total_runs += outcome.oracle_runs;
            oracle_use.absorb(outcome.oracle_use);
            history.extend(outcome.trace.error_counts.iter().skip(1));
            rollbacks += outcome.trace.rollbacks;

            if self.config.use_feedback {
                self.priors.update(class, &solution.steps, &outcome.eval);
            }
            let better = match &best {
                None => true,
                Some(b) => outcome.eval.score() > b.eval.score(),
            };
            if better {
                best = Some(outcome);
            }
            if best.as_ref().is_some_and(|b| b.eval.acceptability) {
                break;
            }
        }

        let SolutionOutcome {
            solution: best_solution,
            final_program,
            eval,
            steps,
            fixing_rule,
            ..
        } = best.expect("at least one solution attempted");
        if eval.accuracy && self.config.use_knowledge {
            if let Some(rule) = fixing_rule {
                self.knowledge.insert(features.vector, class, rule);
            }
        }
        repair_span.add_sim_ms(total_overhead);
        repair_span.tag("passed", eval.accuracy);
        repair_span.tag("solutions_tried", tried);
        record_repair_metrics(class, total_overhead);
        RepairOutcome {
            passed: eval.accuracy,
            acceptable: eval.acceptability,
            overhead_ms: total_overhead,
            oracle_runs: total_runs,
            oracle_executed: oracle_use.executed,
            oracle_cached: oracle_use.cached,
            oracle_prevetoed: oracle_use.prevetoed,
            solutions_tried: tried,
            kb_queries: kb_consults + (self.knowledge.queries() - kb_queries_before),
            kb_query_time_ms: kb_consult_ms + (self.knowledge.query_time_ms() - kb_time_before),
            final_program,
            error_history: history,
            rules_applied: steps.iter().filter_map(|s| s.rule).collect(),
            rollbacks,
            best_solution: eval.accuracy.then_some(best_solution),
            class,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_llm::ModelId;

    fn double_free() -> (Program, Vec<String>) {
        let p = rb_lang::parser::parse_program(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        (p, vec!["3".to_owned()])
    }

    #[test]
    fn repairs_double_free_end_to_end() {
        let (p, gold) = double_free();
        let mut rb = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 42));
        let out = rb.repair(&p, &gold);
        assert!(out.passed, "history: {:?}", out.error_history);
        assert!(out.acceptable);
        assert!(out.overhead_ms > 0.0);
        assert_eq!(out.class, UbClass::Alloc);
        // Success is stored in the knowledge base.
        assert_eq!(rb.knowledge().len(), 1);
    }

    #[test]
    fn repair_stores_the_seed_knowledge_vector_of_its_input() {
        let (p, gold) = double_free();
        let mut rb = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 42));
        let out = rb.repair(&p, &gold);
        assert!(out.passed);
        let mut seeded = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 42));
        seeded.seed_knowledge(&p, UbClass::Alloc, RepairRule::RemoveDoubleFree);
        let stored = rb.knowledge().entries()[0].clone();
        let expected = seeded.knowledge().entries()[0].clone();
        assert_eq!(stored.vector, expected.vector);
        assert_eq!(stored.class, out.class);
    }

    #[test]
    fn passing_program_is_trivial() {
        let p = rb_lang::parser::parse_program("fn main() { print(5i32); }").unwrap();
        let mut rb = RustBrain::new(RustBrainConfig::default());
        let out = rb.repair(&p, &["5".to_owned()]);
        assert!(out.passed && out.acceptable);
        assert_eq!(out.solutions_tried, 0);
        assert_eq!(out.overhead_ms, 0.0);
    }

    #[test]
    fn repair_shared_returns_a_passing_input_without_copying() {
        let p = Arc::new(rb_lang::parser::parse_program("fn main() { print(5i32); }").unwrap());
        let mut rb = RustBrain::new(RustBrainConfig::default());
        let out = rb.repair_shared(&p, &["5".to_owned()]);
        assert!(out.passed && out.acceptable);
        assert!(Arc::ptr_eq(&out.final_program, &p));
    }

    #[test]
    fn feedback_learns_across_repeats() {
        let (p, gold) = double_free();
        let mut rb = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 7));
        let first = rb.repair(&p, &gold);
        let second = rb.repair(&p, &gold);
        assert!(first.passed && second.passed);
        // With a remembered best solution and knowledge entry, the second
        // run needs no more attempts than the first.
        assert!(second.solutions_tried <= first.solutions_tried);
        assert!(rb.priors().updates() > 0);
    }

    #[test]
    fn oracle_split_accounts_for_every_run() {
        let (p, gold) = double_free();
        let mut rb = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 42));
        let out = rb.repair(&p, &gold);
        // The split covers every judgement (initial detection, inner
        // verifications, rollback re-verifications) — at least the
        // budget-counted runs, plus the initial detection.
        assert!(out.oracle_executed + out.oracle_cached > out.oracle_runs);
        // The default DirectOracle never serves from a cache.
        assert_eq!(out.oracle_cached, 0);

        let clean = rb_lang::parser::parse_program("fn main() { print(5i32); }").unwrap();
        let out = rb.repair(&clean, &["5".to_owned()]);
        assert_eq!(
            (out.oracle_runs, out.oracle_executed, out.oracle_cached),
            (1, 1, 0)
        );
        assert_eq!(out.oracle_prevetoed, 0);
    }

    #[test]
    fn triage_is_recorded_and_preflight_preserves_results() {
        let (p, gold) = double_free();
        // Fast thinking reads the class off the oracle's report on the
        // input.
        let mut rb = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 42));
        let out = rb.repair(&p, &gold);
        assert_eq!(out.class, UbClass::Alloc);

        // There is no preflight, so the oracle judges every candidate and
        // nothing is prevetoed.
        assert_eq!(out.oracle_prevetoed, 0);
        assert!(out.oracle_executed + out.oracle_cached > out.oracle_runs);
        let again = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 42)).repair(&p, &gold);
        assert_eq!(out.overhead_ms, again.overhead_ms);
        assert_eq!(out.error_history, again.error_history);
        assert_eq!(out.final_program, again.final_program);
    }

    #[test]
    fn seeded_knowledge_base_snapshot_is_adopted() {
        let (p, _) = double_free();
        let mut donor = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 1));
        donor.seed_knowledge(&p, UbClass::Alloc, rb_llm::RepairRule::RemoveDoubleFree);
        let snapshot = donor.knowledge().snapshot();

        let rb = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 2))
            .with_knowledge_base(snapshot.clone());
        assert_eq!(rb.knowledge().len(), snapshot.len());
        // The delta relative to the snapshot starts empty.
        assert!(rb.knowledge().delta().is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let (p, gold) = double_free();
        let mut a = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 11));
        let mut b = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 11));
        let oa = a.repair(&p, &gold);
        let ob = b.repair(&p, &gold);
        assert_eq!(oa.passed, ob.passed);
        assert_eq!(oa.error_history, ob.error_history);
        assert_eq!(oa.overhead_ms, ob.overhead_ms);
    }
}
