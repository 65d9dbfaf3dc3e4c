//! # rb-engine — parallel batch-repair engine
//!
//! The execution subsystem of the RustBrain reproduction: fans repair
//! jobs out across a fixed-size worker pool (`std::thread` + channels —
//! no external runtime) and almost never pays for the same oracle verdict
//! twice, by keying verdicts on *hashed program structure* in a sharded,
//! content-addressed cache ([`cache::OracleCache`]) — at most one verdict
//! per structurally distinct program is ever *stored*, though two workers
//! racing on the same first sighting may both execute the oracle once.
//!
//! The cache reaches the *whole* stack through the [`rb_miri::Oracle`]
//! seam: the engine builds every system with a [`CachedOracle`] injected
//! ([`SystemSpec::build_with`]), so the slow-thinking executor's inner
//! verifications, rollback re-verification, the baselines' repair loops
//! and the gold-reference runs all share one process-wide verdict store.
//! [`Engine::direct`] swaps in [`rb_miri::DirectOracle`] instead, and CI
//! diffs the two result streams to pin their equivalence.
//!
//! Four guarantees shape the design:
//!
//! 1. **Determinism** — a batch's merged [`CaseResult`] stream is
//!    byte-identical for any worker count and any thread timing: each job
//!    builds a fresh system whose RNG seed derives only from the batch
//!    seed and the case id ([`job::derive_case_seed`]), and results are
//!    merged back into submission order.
//! 2. **Soundness of caching** — the oracle is pure, so the cache can
//!    only change *when* a verdict is computed, never *what* it is; a
//!    64-bit key collision is verified against the stored program and
//!    degrades to an extra oracle run, not a wrong verdict; a bounded
//!    cache ([`OracleCache::bounded`], clock eviction) only re-executes
//!    evicted verdicts, it never changes them.
//! 3. **Cross-case learning at scale** — every job starts from the same
//!    read-only knowledge-base snapshot and records its inserts into a
//!    [`rustbrain::KbDelta`]; the engine merges the deltas back in
//!    submission order after the batch ([`Engine::run_batch_learned`]),
//!    so the merged base is identical for any `--jobs N` and can seed
//!    the next batch — the paper's self-learning, recovered in parallel.
//! 4. **Observability** — every batch reports throughput, per-worker
//!    utilization, cache effectiveness, the executed-vs-cached oracle
//!    split and the knowledge merge as an [`EngineStats`] that
//!    serializes to JSON (`BENCH_engine.json` tracks it across PRs).
//!
//! Stateful sequential sweeps (where a system learns across cases, as in
//! the paper's experiments) run on the engine's sequential lane
//! ([`Engine::run_stateful`]) and still share the oracle cache.
//!
//! ## Example
//!
//! ```
//! use rb_engine::{Engine, SystemSpec, run_serial_reference};
//! use rb_dataset::Corpus;
//! use rb_miri::UbClass;
//!
//! let corpus = Corpus::generate(1, 2, &[UbClass::Alloc]);
//! let spec = SystemSpec::rust_assistant();
//! let parallel = Engine::new(4).run_batch(&spec, &corpus.cases, 42);
//! let serial = run_serial_reference(&spec, &corpus.cases, 42);
//! assert_eq!(parallel.results, serial);
//! assert!(parallel.stats.cases_per_sec > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod job;
pub mod stats;
pub mod system;

pub use cache::{program_key, CacheStats, CachedOracle, OracleCache};
pub use engine::{run_serial_reference, BatchOutcome, Engine};
pub use job::{derive_case_seed, JobResult, JobSpec};
pub use stats::{results_to_json, EngineStats, KbMergeStats, SchedStats};
pub use system::{CaseResult, System, SystemSpec};
