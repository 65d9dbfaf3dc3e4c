//! # rb-baselines — comparison systems
//!
//! The three comparators the paper evaluates RustBrain against:
//!
//! - [`llm_only`]: a standalone model iteratively rewriting the program
//!   with a generic "fix this" prompt — no agents, no rollback, no
//!   knowledge (the "GPT-x alone" series in Figs. 8/9);
//! - [`rust_assistant`]: a re-implementation of RustAssistant's fixed
//!   pipeline (ICSE 2025): error-driven prompting, iterate-until-clean,
//!   restart-from-scratch on regression, fixed generic steps;
//! - [`human`]: the human-expert timing/success model behind Table I.

#![warn(missing_docs)]

pub mod human;
pub mod llm_only;
pub mod rust_assistant;

pub use human::HumanExpert;
pub use llm_only::LlmOnly;
pub use rust_assistant::RustAssistant;

use rb_lang::Program;
use rb_miri::OracleUse;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Result shape shared by all repair systems.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// Final program passes the oracle.
    pub passed: bool,
    /// Outputs match the reference.
    pub acceptable: bool,
    /// Simulated repair time in milliseconds.
    pub overhead_ms: f64,
    /// Oracle iterations used.
    pub iterations: usize,
    /// Executed-vs-cached split of every oracle judgement the repair made
    /// (telemetry only — identical repairs under a caching and a direct
    /// oracle differ in nothing but this field).
    pub oracle_use: OracleUse,
    /// The final program state (shared with the input when no edit was
    /// kept).
    pub final_program: Arc<Program>,
}
