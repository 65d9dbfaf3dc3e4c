//! `rb_serve`: the resident RustBrain repair daemon (PR 6).
//!
//! The one-shot CLI pays the full startup bill — engine construction,
//! knowledge-store load, oracle cache from cold — on every invocation.
//! This crate keeps that state resident: a [`server::Server`] accepts
//! line-delimited JSON requests over TCP and serves them from one
//! process-wide engine (shared verdict cache) and one knowledge base
//! loaded whole at bind, so the Nth request costs what the Nth request needs
//! and nothing more.
//!
//! The pieces:
//!
//! - [`json`] — a re-export of `rb_obs::json`, the stack's one JSON
//!   codec, which parses request lines and writes every response.
//! - [`protocol`] — the seven verbs (`repair`, `batch`, `analyze`,
//!   `stats`, `metrics`, `compact`, `shutdown`), their request shapes,
//!   and the JSON rendering of `rb_lint` analyses.
//! - [`server`] — the daemon: accept loop, handler pool, time-triggered
//!   compaction, optional request tracing.
//! - [`stats`] — [`stats::ServeStats`] telemetry, registry-backed
//!   counters, and the latency ring.
//! - [`client`] — a blocking line client for scripts, the CLI and CI.
//!
//! Determinism carries over from the engine: a `batch` request's
//! embedded `results_json` is byte-identical to what `rustbrain batch`
//! writes for the same seed, corpus and starting knowledge — the CI
//! smoke job diffs exactly that.

pub mod client;
pub mod protocol;
pub mod server;
pub mod stats;

/// Kept only because perfbench imports `rb_serve::json::{parse, Value}`;
/// everything in this workspace uses `rb_obs::json` directly.
pub use rb_obs::json;

pub use client::Client;
pub use protocol::{parse_request, Request};
pub use server::{seed_store, ServeConfig, Server};
pub use stats::{ServeStats, StatsRecorder, Verb};
