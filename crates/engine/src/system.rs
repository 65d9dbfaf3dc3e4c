//! The repair systems under comparison and their results, plus the
//! buildable [`SystemSpec`] the engine ships to worker threads.
//!
//! [`System`] and [`CaseResult`] used to live in `rb_bench::runner`; they
//! moved here so the engine (which `rb_bench` builds on) can execute jobs
//! for any system without a dependency cycle. `rb_bench::runner`
//! re-exports both, so existing imports keep compiling.

use crate::cache::OracleCache;
use crate::engine::Engine;
use rb_baselines::{LlmOnly, RustAssistant};
use rb_dataset::UbCase;
use rb_llm::ModelId;
use rb_miri::{DirectOracle, Oracle, OracleUse};
use rustbrain::{KbDelta, KnowledgeBase, RustBrain, RustBrainConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Result of one case repair, system-agnostic.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// Case id.
    pub case_id: String,
    /// UB class.
    pub class: rb_miri::UbClass,
    /// Passed the oracle.
    pub passed: bool,
    /// Semantically acceptable.
    pub acceptable: bool,
    /// Simulated time in milliseconds.
    pub overhead_ms: f64,
    /// Knowledge-base retrievals the repair made (0 for systems without
    /// a knowledge base).
    pub kb_queries: u64,
    /// Simulated milliseconds those retrievals accrued (bucket-indexed
    /// scan cost; deterministic, so it belongs in the result rather than
    /// the telemetry).
    pub kb_query_ms: f64,
}

/// A repair system under test.
pub enum System {
    /// Standalone model.
    Llm(LlmOnly),
    /// RustAssistant fixed pipeline.
    RustAssistant(RustAssistant),
    /// The RustBrain framework.
    Brain(Box<RustBrain>),
}

impl System {
    /// A standalone model at the paper's default temperature.
    #[must_use]
    pub fn llm(model: ModelId, seed: u64) -> System {
        System::Llm(LlmOnly::new(model, 0.5, seed))
    }

    /// The RustAssistant baseline (GPT-4-backed, as in the paper).
    #[must_use]
    pub fn rust_assistant(seed: u64) -> System {
        System::RustAssistant(RustAssistant::new(ModelId::Gpt4, 0.5, seed))
    }

    /// A RustBrain instance.
    #[must_use]
    pub fn brain(config: RustBrainConfig) -> System {
        System::Brain(Box::new(RustBrain::new(config)))
    }

    /// Repairs one corpus case against an explicit gold reference (the
    /// engine path: the reference comes out of the shared oracle cache).
    pub fn repair_case_with(&mut self, case: &UbCase, reference: &[String]) -> CaseResult {
        self.repair_case_instrumented(case, reference).0
    }

    /// Like [`repair_case_with`], additionally reporting the repair's
    /// executed-vs-cached oracle split for the engine's telemetry. The
    /// split never feeds back into the [`CaseResult`], which stays
    /// byte-identical across caching and direct oracles.
    ///
    /// [`repair_case_with`]: System::repair_case_with
    pub fn repair_case_instrumented(
        &mut self,
        case: &UbCase,
        reference: &[String],
    ) -> (CaseResult, OracleUse) {
        let (passed, acceptable, overhead_ms, oracle_use, kb_queries, kb_query_ms) = match self {
            System::Llm(s) => {
                let o = s.repair_shared(&case.buggy, reference);
                (o.passed, o.acceptable, o.overhead_ms, o.oracle_use, 0, 0.0)
            }
            System::RustAssistant(s) => {
                let o = s.repair_shared(&case.buggy, reference);
                (o.passed, o.acceptable, o.overhead_ms, o.oracle_use, 0, 0.0)
            }
            System::Brain(s) => {
                let o = s.repair_shared(&case.buggy, reference);
                let used = OracleUse {
                    executed: o.oracle_executed,
                    cached: o.oracle_cached,
                    prevetoed: o.oracle_prevetoed,
                };
                (
                    o.passed,
                    o.acceptable,
                    o.overhead_ms,
                    used,
                    o.kb_queries,
                    o.kb_query_time_ms,
                )
            }
        };
        (
            CaseResult {
                case_id: case.id.clone(),
                class: case.class,
                passed,
                acceptable,
                overhead_ms,
                kb_queries,
                kb_query_ms,
            },
            oracle_use,
        )
    }

    /// The knowledge-base inserts this system recorded on top of the
    /// snapshot it was built from, or `None` for systems without a
    /// knowledge base.
    #[must_use]
    pub fn kb_delta(&self) -> Option<KbDelta> {
        match self {
            System::Brain(s) => Some(s.knowledge().delta()),
            System::Llm(_) | System::RustAssistant(_) => None,
        }
    }

    /// Repairs one corpus case, resolving the gold reference through the
    /// process-wide oracle cache.
    pub fn repair_case(&mut self, case: &UbCase) -> CaseResult {
        let reference = OracleCache::global().outputs(&case.gold);
        self.repair_case_with(case, &reference)
    }

    /// Repairs every case of a corpus in order (order matters: stateful
    /// systems learn across cases, as in the paper's sequential runs).
    /// Executes on the engine's sequential lane so gold references are
    /// served from the shared oracle cache.
    pub fn run_corpus(&mut self, cases: &[UbCase]) -> Vec<CaseResult> {
        Engine::with_global_cache(1).run_stateful(self, cases)
    }
}

/// A cloneable, thread-shippable recipe for building a [`System`].
///
/// Batch jobs carry a spec rather than a live system: each worker builds
/// a fresh instance with the job's derived seed, which is what makes the
/// aggregate result stream independent of scheduling.
#[derive(Clone, Debug, PartialEq)]
pub enum SystemSpec {
    /// Standalone model.
    Llm {
        /// Backing model.
        model: ModelId,
        /// Sampling temperature.
        temperature: f64,
    },
    /// RustAssistant fixed pipeline.
    RustAssistant {
        /// Backing model.
        model: ModelId,
        /// Sampling temperature.
        temperature: f64,
    },
    /// The RustBrain framework (the spec's `seed` field is overridden per
    /// job).
    Brain(RustBrainConfig),
}

impl SystemSpec {
    /// The paper's default standalone-LLM spec.
    #[must_use]
    pub fn llm(model: ModelId) -> SystemSpec {
        SystemSpec::Llm {
            model,
            temperature: 0.5,
        }
    }

    /// The paper's RustAssistant baseline spec.
    #[must_use]
    pub fn rust_assistant() -> SystemSpec {
        SystemSpec::RustAssistant {
            model: ModelId::Gpt4,
            temperature: 0.5,
        }
    }

    /// A RustBrain spec from a pipeline configuration.
    #[must_use]
    pub fn brain(config: RustBrainConfig) -> SystemSpec {
        SystemSpec::Brain(config)
    }

    /// Short label for telemetry and CLI output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SystemSpec::Llm { .. } => "llm-only",
            SystemSpec::RustAssistant { .. } => "rust-assistant",
            SystemSpec::Brain(_) => "rustbrain",
        }
    }

    /// Instantiates the system with a per-job seed, a direct oracle and an
    /// empty knowledge base (a thin wrapper over [`build_with`]).
    ///
    /// [`build_with`]: SystemSpec::build_with
    #[must_use]
    pub fn build(&self, seed: u64) -> System {
        self.build_with(seed, Arc::new(DirectOracle), &KnowledgeBase::new())
    }

    /// Instantiates the system with a per-job seed, an injected oracle
    /// (the engine passes its shared verdict cache here) and a pre-seeded
    /// knowledge-base snapshot the instance starts from (a
    /// [`KnowledgeBase::snapshot`] handle, which shares the
    /// snapshot's entries; ignored by systems without a knowledge base).
    #[must_use]
    pub fn build_with(
        &self,
        seed: u64,
        oracle: Arc<dyn Oracle>,
        knowledge: &KnowledgeBase,
    ) -> System {
        match self {
            SystemSpec::Llm { model, temperature } => {
                System::Llm(LlmOnly::with_oracle(*model, *temperature, seed, oracle))
            }
            SystemSpec::RustAssistant { model, temperature } => System::RustAssistant(
                RustAssistant::with_oracle(*model, *temperature, seed, oracle),
            ),
            SystemSpec::Brain(config) => {
                let mut config = config.clone();
                config.seed = seed;
                System::Brain(Box::new(
                    RustBrain::with_oracle(config, oracle)
                        .with_knowledge_base(knowledge.snapshot()),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The engine ships specs and cases to worker threads; keep that
    // compiling-in-the-type-system rather than discovered at spawn time.
    const fn assert_send<T: Send>() {}
    const _: () = assert_send::<SystemSpec>();
    const _: () = assert_send::<UbCase>();
    const _: () = assert_send::<System>();
    const _: () = assert_send::<CaseResult>();

    #[test]
    fn specs_build_the_matching_system() {
        let pairs: [(SystemSpec, &str); 3] = [
            (SystemSpec::llm(ModelId::Gpt4), "llm-only"),
            (SystemSpec::rust_assistant(), "rust-assistant"),
            (
                SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 0)),
                "rustbrain",
            ),
        ];
        for (spec, label) in pairs {
            assert_eq!(spec.label(), label);
            match (spec.build(9), &spec) {
                (System::Llm(_), SystemSpec::Llm { .. })
                | (System::RustAssistant(_), SystemSpec::RustAssistant { .. })
                | (System::Brain(_), SystemSpec::Brain(_)) => {}
                _ => panic!("spec {label} built the wrong system"),
            }
        }
    }

    #[test]
    fn build_with_adopts_snapshot_and_reports_deltas() {
        let mut donor = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 0));
        let p = rb_lang::parser::parse_program("fn main() { print(1i32); }").unwrap();
        donor.seed_knowledge(
            &p,
            rb_miri::UbClass::Panic,
            rb_llm::RepairRule::GuardDivision,
        );
        let snapshot = donor.knowledge().clone();

        let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 1));
        let sys = spec.build_with(7, Arc::new(DirectOracle), &snapshot);
        let System::Brain(b) = &sys else {
            panic!("expected a brain");
        };
        assert_eq!(b.knowledge().len(), snapshot.len());
        // Nothing learned yet: the delta over the snapshot is empty.
        assert!(sys.kb_delta().unwrap().is_empty());
        // Knowledge-free systems have no delta at all.
        assert!(SystemSpec::rust_assistant().build(1).kb_delta().is_none());
    }

    #[test]
    fn brain_spec_build_overrides_seed() {
        let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 1));
        let System::Brain(b) = spec.build(77) else {
            panic!("expected a brain");
        };
        assert_eq!(b.config().seed, 77);
    }
}
