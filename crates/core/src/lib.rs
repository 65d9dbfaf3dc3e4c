//! # RustBrain — fast and slow thinking for conquering undefined behaviour
//!
//! A reproduction of *"Unlocking a New Rust Programming Experience: Fast
//! and Slow Thinking with LLMs to Conquer Undefined Behaviors"* (DAC 2025).
//!
//! RustBrain repairs undefined behaviour in unsafe-Rust programs (over the
//! [`rb_lang`] IR, with [`rb_miri`] as the detection oracle and [`rb_llm`]
//! simulated models as the proposal engine) through two cooperating
//! processes:
//!
//! - **Fast thinking** ([`fast`]): extracts code features ([`features`])
//!   and rapidly generates diverse candidate solutions — ordered agent
//!   sequences — guided by learned priors.
//! - **Slow thinking** ([`slow`]): decomposes each solution into steps run
//!   by specialised agents (safe-replacement, assertion, modification,
//!   abstract reasoning over an AST knowledge base, [`knowledge`]), verifies
//!   every edit with the oracle, and guards the search with the adaptive
//!   rollback agent ([`rollback`]).
//! - **Feedback** ([`feedback`]): the evaluation triplet ([`evaluate`])
//!   of every attempt flows back into the fast-thinking priors, so similar
//!   errors are solved faster with less knowledge-base dependence.
//!
//! Every program judgement — initial detection, per-edit verification,
//! rollback re-verification — goes through an injected [`rb_miri::Oracle`]
//! ([`RustBrain::with_oracle`]); the default [`rb_miri::DirectOracle`] runs
//! the interpreter, while `rb_engine` injects a process-wide verdict cache.
//!
//! ## Quickstart
//!
//! ```
//! use rustbrain::{RustBrain, RustBrainConfig};
//! use rb_llm::ModelId;
//! use rb_lang::parser::parse_program;
//!
//! let buggy = parse_program(
//!     "fn main() { let q: *const i32 = 0 as *const i32; \
//!      { let x: i32 = 5; q = &raw const x; } \
//!      unsafe { print(*q); } }")?;
//! let mut brain = RustBrain::new(RustBrainConfig::for_model(ModelId::Gpt4, 42));
//! let outcome = brain.repair(&buggy, &["5".to_owned()]);
//! assert!(outcome.passed);
//! # Ok::<(), rb_lang::LangError>(())
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod evaluate;
pub mod fast;
pub mod features;
pub mod feedback;
pub mod knowledge;
pub mod pipeline;
pub mod rollback;
pub mod slow;
pub mod solution;

pub use config::{RollbackPolicy, RustBrainConfig};
pub use evaluate::EvalTriplet;
pub use features::{CodeFeatures, ProgramFeatures};
pub use feedback::Priors;
pub use knowledge::{ConflictResolution, KbDelta, KbEntry, KnowledgeBase, MergePolicy, StoreError};
pub use pipeline::{RepairOutcome, RustBrain};
pub use rb_miri::{DirectOracle, Oracle, OracleUse};
pub use solution::{AgentKind, Solution};
