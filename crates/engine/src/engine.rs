//! The batch executor: a fixed-size pool of scoped `std::thread` workers
//! claiming jobs in submission order from one shared counter, injecting
//! one shared [`CachedOracle`] into every system it builds, recovering
//! cross-case learning through shared knowledge-base snapshots, and
//! merging results deterministically. Each worker keeps its results in a
//! local `Vec` and hands them back when it is joined, so no thread wakes
//! per job to collect them.
//!
//! Determinism contract: the merged [`CaseResult`] stream of
//! [`Engine::run_batch`] is byte-identical for every worker count,
//! because (a) each job builds a *fresh* system seeded only from the
//! batch seed and the case id ([`crate::job::derive_case_seed`]), (b) the
//! oracle cache can change *when* a verdict is computed but never *what*
//! it is (the oracle is pure), (c) every job starts from the same
//! read-only knowledge-base snapshot (jobs never see each other's
//! learning mid-batch), and (d) results — and the jobs' knowledge deltas
//! — are merged back into submission order. [`run_serial_reference`] is
//! the plain-loop, cache-free reference implementation the property tests
//! compare against.

use crate::cache::{CachedOracle, OracleCache};
use crate::job::{JobResult, JobSpec};
use crate::stats::{EngineStats, KbMergeStats, SchedStats};
use crate::system::{CaseResult, System, SystemSpec};
use rb_dataset::UbCase;
use rb_miri::{DirectOracle, Oracle, OracleUse};
use rustbrain::{KbDelta, KnowledgeBase, MergePolicy, StoreError};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of one batch: the deterministic result stream plus telemetry.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-case results, in submission order (byte-identical for any
    /// worker count).
    pub results: Vec<CaseResult>,
    /// Per-job execution records (worker assignment, wall time), in
    /// submission order. Scheduling-dependent — telemetry only.
    pub jobs: Vec<JobResult>,
    /// The knowledge base after the batch: the snapshot the jobs started
    /// from plus every job's delta, merged in submission order (identical
    /// for any worker count). Feed it into the next batch to keep
    /// learning across sweeps.
    pub knowledge: KnowledgeBase,
    /// Batch telemetry.
    pub stats: EngineStats,
}

/// The parallel batch-repair engine.
pub struct Engine {
    workers: usize,
    cache: Arc<OracleCache>,
    /// When false, systems judge through [`DirectOracle`] and no verdict
    /// is ever cached (the `--no-cache` equivalence baseline).
    use_cache: bool,
    /// How per-job knowledge deltas fold back into the shared base after
    /// a batch (defaults to the bounded-growth [`MergePolicy::default`]).
    merge_policy: MergePolicy,
    /// When set, every worker thread installs this tracer for the whole
    /// batch, so job spans (and the repair/oracle/KB spans beneath them)
    /// from all workers interleave into one trace stream. Purely
    /// observational: results are byte-identical with or without it.
    tracer: Option<rb_obs::Tracer>,
}

impl Engine {
    /// An engine with `workers` threads (clamped to at least 1) and a
    /// private oracle cache.
    #[must_use]
    pub fn new(workers: usize) -> Engine {
        Engine::with_cache(workers, Arc::new(OracleCache::new()))
    }

    /// An engine sharing an existing oracle cache (e.g. across sweeps, so
    /// a second sweep over the same corpus never re-runs the oracle).
    #[must_use]
    pub fn with_cache(workers: usize, cache: Arc<OracleCache>) -> Engine {
        Engine {
            workers: workers.max(1),
            cache,
            use_cache: true,
            merge_policy: MergePolicy::default(),
            tracer: None,
        }
    }

    /// An engine on the process-wide cache ([`OracleCache::global`]).
    #[must_use]
    pub fn with_global_cache(workers: usize) -> Engine {
        Engine::with_cache(workers, OracleCache::global())
    }

    /// An engine that bypasses verdict caching entirely: every judgement
    /// executes the interpreter through [`DirectOracle`]. Exists to pin
    /// the cached/uncached equivalence (CI diffs the two result streams).
    #[must_use]
    pub fn direct(workers: usize) -> Engine {
        Engine {
            workers: workers.max(1),
            cache: Arc::new(OracleCache::new()),
            use_cache: false,
            merge_policy: MergePolicy::default(),
            tracer: None,
        }
    }

    /// Replaces the knowledge merge policy (builder-style). Pass
    /// [`MergePolicy::append_only`] to reproduce PR 3's unbounded-append
    /// behaviour.
    #[must_use]
    pub fn with_merge_policy(mut self, policy: MergePolicy) -> Engine {
        self.merge_policy = policy;
        self
    }

    /// The policy per-job knowledge deltas merge under after a batch.
    #[must_use]
    pub fn merge_policy(&self) -> &MergePolicy {
        &self.merge_policy
    }

    /// Installs `tracer` on every worker thread of subsequent batches
    /// (builder-style), so the full repair path emits spans into it.
    /// Tracing is off without this call.
    #[must_use]
    pub fn with_tracer(mut self, tracer: rb_obs::Tracer) -> Engine {
        self.tracer = Some(tracer);
        self
    }

    /// Worker threads this engine runs batches on.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The oracle cache the engine's jobs share.
    #[must_use]
    pub fn cache(&self) -> &Arc<OracleCache> {
        &self.cache
    }

    /// The oracle this engine injects into every system it builds: a
    /// [`CachedOracle`] over the engine's shared cache, or a plain
    /// [`DirectOracle`] for a cache-bypassing engine. Public since PR 6
    /// so a resident daemon's single-repair path judges through the
    /// same verdict cache its batches warm.
    #[must_use]
    pub fn shared_oracle(&self) -> Arc<dyn Oracle> {
        if self.use_cache {
            Arc::new(CachedOracle::new(Arc::clone(&self.cache)))
        } else {
            Arc::new(DirectOracle)
        }
    }

    /// Executes one job: build the system at the job's derived seed with
    /// the engine's oracle and the shared knowledge snapshot, resolve the
    /// gold reference through the same oracle, repair, and collect the
    /// job's knowledge delta. The flag is whether the gold-reference
    /// lookup was a cache hit.
    fn execute(
        job: &JobSpec<'_>,
        oracle: &Arc<dyn Oracle>,
        snapshot: &KnowledgeBase,
    ) -> (CaseResult, OracleUse, bool, Option<KbDelta>) {
        let mut system = job
            .system
            .build_with(job.seed, Arc::clone(oracle), snapshot);
        // The gold-reference lookup goes through judge_shared directly
        // (no OracleUse to record into yet), so it needs its own
        // call-site span — the judge_recording seam never sees it. On a
        // miss the memo keeps the case's own gold handle, no copy.
        let (reference, gold_hit) = {
            let mut gold_span = rb_obs::span("oracle.gold");
            let (reference, gold_hit) = oracle.judge_shared(&job.case.gold);
            gold_span.tag("cached", if gold_hit { "cached" } else { "executed" });
            (reference, gold_hit)
        };
        let (result, mut oracle_use) =
            system.repair_case_instrumented(job.case, &reference.outputs);
        oracle_use.record(gold_hit);
        let kb_delta = system.kb_delta();
        (result, oracle_use, gold_hit, kb_delta)
    }

    /// Runs a prepared job list on the worker pool (every job starting
    /// from an empty knowledge base) and merges the results back into
    /// submission order.
    #[must_use]
    pub fn run_jobs(&self, jobs: &[JobSpec<'_>]) -> BatchOutcome {
        self.run_jobs_with_knowledge(jobs, &KnowledgeBase::new())
    }

    /// Runs a prepared job list on the worker pool, every job starting
    /// from the read-only `snapshot`, and merges results and knowledge
    /// deltas back into submission order.
    #[must_use]
    pub fn run_jobs_with_knowledge(
        &self,
        jobs: &[JobSpec<'_>],
        snapshot: &KnowledgeBase,
    ) -> BatchOutcome {
        let started = Instant::now();
        // Dispatch: workers claim jobs in submission order, one
        // `fetch_add` per job. Execution order never reaches a result —
        // seeds derive from case ids and the merge restores submission
        // order.
        let next = AtomicUsize::new(0);
        let oracle = self.shared_oracle();
        // Every job's knowledge base is a handle on this one base; inserts
        // still pending on `snapshot` are folded in once, here.
        let job_base = snapshot.snapshot();

        let mut executed: Vec<JobResult> = Vec::with_capacity(jobs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers)
                .map(|worker| {
                    let next = &next;
                    let oracle = &oracle;
                    let job_base = &job_base;
                    let tracer = self.tracer.clone();
                    scope.spawn(move || {
                        // Install the batch tracer on this worker for its
                        // whole lifetime; every span the jobs open lands
                        // in the shared sink.
                        let _trace_scope = tracer.as_ref().map(rb_obs::trace::scope);
                        let mut done = Vec::new();
                        while let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
                            let job_started = Instant::now();
                            let mut job_span = rb_obs::span("engine.job");
                            job_span.tag("case", &job.case.id);
                            job_span.tag("worker", worker);
                            let (result, oracle_use, cache_hit, kb_delta) =
                                Engine::execute(job, oracle, job_base);
                            let wall_s = job_started.elapsed().as_secs_f64();
                            job_span.add_sim_ms(result.overhead_ms);
                            job_span.tag("class", result.class.label());
                            job_span.tag("passed", result.passed);
                            drop(job_span);
                            let m = rb_obs::metrics();
                            m.counter_add("rustbrain_engine_jobs_total", None, 1);
                            m.observe(
                                "rustbrain_engine_job_wall_us",
                                Some(("class", result.class.label())),
                                wall_s * 1e6,
                                rb_obs::REAL_US_BUCKETS,
                            );
                            done.push(JobResult {
                                index: job.index,
                                worker,
                                wall_ms: wall_s * 1e3,
                                cache_hit,
                                oracle_use,
                                kb_delta,
                                result,
                            });
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                executed.extend(
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
        });
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;

        // Deterministic merge: thread timing decided which worker ran
        // which job, the submission index restores the order.
        executed.sort_by_key(|j| j.index);
        let results: Vec<CaseResult> = executed.iter().map(|j| j.result.clone()).collect();

        // Cross-case learning, recovered: fold every job's inserts back
        // into the snapshot in ONE normalization pass under the engine's
        // merge policy. The policy reduces the entry *multiset*, so the
        // merged base is the same for any worker count and any delta
        // order — and, unlike PR 3's blind append, stays bounded (exact
        // duplicates become weights, near-duplicates coalesce).
        let mut knowledge = snapshot.clone();
        let deltas: Vec<&KbDelta> = executed
            .iter()
            .filter_map(|j| j.kb_delta.as_ref())
            .filter(|d| !d.is_empty())
            .collect();
        let contributing_jobs = deltas.len();
        let merged_inserts = if deltas.is_empty() {
            0
        } else {
            knowledge.merge_all(deltas, &self.merge_policy)
        };
        let kb = KbMergeStats {
            seeded_entries: snapshot.len(),
            merged_inserts,
            contributing_jobs,
            coalesced: (snapshot.len() + merged_inserts).saturating_sub(knowledge.len()),
            final_entries: knowledge.len(),
            // Filled in by run_batch_stored when a store is written.
            shards_written: 0,
            shards_skipped: 0,
        };

        let mut busy_ms = vec![0.0f64; self.workers];
        let mut worker_cases = vec![0usize; self.workers];
        let mut batch_use = OracleUse::default();
        for j in &executed {
            busy_ms[j.worker] += j.wall_ms;
            worker_cases[j.worker] += 1;
            batch_use.absorb(j.oracle_use);
        }
        // Per-job attribution, not a delta of the shared counters: other
        // batches may be running on the same cache concurrently, and
        // their lookups must not leak into this batch's telemetry.
        let hits = executed.iter().filter(|j| j.cache_hit).count() as u64;
        let cache_now = self.cache.stats();
        let cache = crate::cache::CacheStats {
            hits,
            misses: executed.len() as u64 - hits,
            entries: cache_now.entries,
            evictions: cache_now.evictions,
            capacity: cache_now.capacity,
        };
        let stats = EngineStats {
            workers: self.workers,
            cases: results.len(),
            wall_ms,
            cases_per_sec: if wall_ms > 0.0 {
                results.len() as f64 / (wall_ms / 1e3)
            } else {
                0.0
            },
            worker_utilization: EngineStats::utilization_of(&busy_ms, wall_ms),
            imbalance: EngineStats::imbalance_of(&worker_cases),
            worker_cases,
            simulated_overhead_ms: results.iter().map(|r| r.overhead_ms).sum(),
            kb_query_ms: results.iter().map(|r| r.kb_query_ms).sum(),
            oracle_executed: batch_use.executed as u64,
            oracle_cached: batch_use.cached as u64,
            oracle_prevetoed: batch_use.prevetoed as u64,
            kb,
            cache,
            sched: SchedStats::default(),
        };
        // Batch-level gauges: the latest imbalance ratio and pool size
        // (the per-class latency histograms were filled at the repair
        // call sites).
        let m = rb_obs::metrics();
        if let Some(ratio) = stats.imbalance {
            m.gauge_set("rustbrain_engine_imbalance", None, ratio);
        }
        m.gauge_set("rustbrain_engine_workers", None, self.workers as f64);
        BatchOutcome {
            results,
            jobs: executed,
            knowledge,
            stats,
        }
    }

    /// Sweeps a corpus: one job per case, seeds derived from case ids,
    /// fanned out across the pool, every job starting from an empty
    /// knowledge base.
    #[must_use]
    pub fn run_batch(&self, system: &SystemSpec, cases: &[UbCase], base_seed: u64) -> BatchOutcome {
        self.run_batch_learned(system, cases, base_seed, &KnowledgeBase::new())
    }

    /// Sweeps a corpus with cross-case learning: every job starts from
    /// the read-only pre-seeded `snapshot`, and the returned
    /// [`BatchOutcome::knowledge`] carries the deterministic merge of all
    /// per-job inserts — feed it into the next call to keep accumulating,
    /// as the paper's sequential self-learning runs do.
    #[must_use]
    pub fn run_batch_learned(
        &self,
        system: &SystemSpec,
        cases: &[UbCase],
        base_seed: u64,
        snapshot: &KnowledgeBase,
    ) -> BatchOutcome {
        let jobs: Vec<JobSpec> = cases
            .iter()
            .enumerate()
            .map(|(i, case)| JobSpec::new(i, case, system, base_seed))
            .collect();
        self.run_jobs_with_knowledge(&jobs, snapshot)
    }

    /// Sweeps a corpus with *durable* cross-case learning: the knowledge
    /// snapshot is loaded from `kb_in` (empty when `None`), the batch
    /// runs exactly like [`Engine::run_batch_learned`], and the merged
    /// base is saved atomically to `kb_out` — so consecutive CLI
    /// invocations chain their learning instead of starting cold.
    ///
    /// Both paths accept either store layout: a single `.rbkb` file or a
    /// sharded `.rbkb.d/` directory. Saving into a sharded store merges
    /// the batch's deltas into **only the dirty shards** — a class no job
    /// learned anything new about keeps its segment file untouched on
    /// disk (surfaced as `kb.shards_written`/`kb.shards_skipped` in
    /// [`EngineStats`]).
    ///
    /// A missing or corrupt `kb_in` file is a typed [`StoreError`], never
    /// a silent cold start: warm-start results must be trustworthy.
    pub fn run_batch_stored(
        &self,
        system: &SystemSpec,
        cases: &[UbCase],
        base_seed: u64,
        kb_in: Option<&Path>,
        kb_out: Option<&Path>,
    ) -> Result<BatchOutcome, StoreError> {
        let snapshot = match kb_in {
            Some(path) => KnowledgeBase::load(path)?,
            None => KnowledgeBase::new(),
        };
        let mut outcome = self.run_batch_learned(system, cases, base_seed, &snapshot);
        if let Some(path) = kb_out {
            let report = outcome.knowledge.save_reported(path)?;
            outcome.stats.kb.shards_written = report.shards_written;
            outcome.stats.kb.shards_skipped = report.shards_skipped;
        }
        Ok(outcome)
    }

    /// Runs a *stateful* system over a corpus in order on the engine's
    /// sequential lane (cross-case learning makes these runs inherently
    /// order-dependent, as in the paper's sequential experiments), with
    /// gold references served through the engine's oracle.
    pub fn run_stateful(&self, system: &mut System, cases: &[UbCase]) -> Vec<CaseResult> {
        let oracle = self.shared_oracle();
        cases
            .iter()
            .map(|case| {
                let reference = oracle.judge(&case.gold).outputs.clone();
                system.repair_case_with(case, &reference)
            })
            .collect()
    }
}

/// The reference implementation the engine must reproduce byte-for-byte:
/// a plain serial loop with no threads and no cache, building each case's
/// system exactly like the engine does and resolving the gold reference
/// with a direct oracle run.
#[must_use]
pub fn run_serial_reference(
    system: &SystemSpec,
    cases: &[UbCase],
    base_seed: u64,
) -> Vec<CaseResult> {
    cases
        .iter()
        .map(|case| {
            let seed = crate::job::derive_case_seed(base_seed, &case.id);
            let reference = case.gold_outputs();
            system.build(seed).repair_case_with(case, &reference)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_dataset::Corpus;
    use rb_llm::ModelId;
    use rb_miri::UbClass;
    use rustbrain::RustBrainConfig;

    fn small_corpus() -> Corpus {
        Corpus::generate(11, 2, &[UbClass::Alloc, UbClass::Panic])
    }

    #[test]
    fn worker_count_is_clamped() {
        assert_eq!(Engine::new(0).workers(), 1);
        assert_eq!(Engine::new(3).workers(), 3);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = Engine::new(2).run_batch(&SystemSpec::rust_assistant(), &[], 1);
        assert!(out.results.is_empty() && out.jobs.is_empty());
        assert_eq!(out.stats.cases, 0);
    }

    #[test]
    fn batch_matches_serial_reference() {
        let corpus = small_corpus();
        let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 0));
        let serial = run_serial_reference(&spec, &corpus.cases, 42);
        for workers in [1, 2, 4] {
            let out = Engine::new(workers).run_batch(&spec, &corpus.cases, 42);
            assert_eq!(out.results, serial, "{workers} workers diverged");
        }
    }

    #[test]
    fn results_keep_submission_order() {
        let corpus = small_corpus();
        let out = Engine::new(4).run_batch(&SystemSpec::llm(ModelId::Gpt35), &corpus.cases, 7);
        let ids: Vec<&str> = out.results.iter().map(|r| r.case_id.as_str()).collect();
        let expected: Vec<&str> = corpus.cases.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids, expected);
        assert!(out.jobs.windows(2).all(|w| w[0].index < w[1].index));
    }

    #[test]
    fn stats_account_for_every_case_and_worker() {
        let corpus = small_corpus();
        let engine = Engine::new(2);
        let out = engine.run_batch(&SystemSpec::rust_assistant(), &corpus.cases, 3);
        assert_eq!(out.stats.cases, corpus.len());
        assert_eq!(out.stats.workers, 2);
        assert_eq!(out.stats.worker_cases.iter().sum::<usize>(), corpus.len());
        assert_eq!(out.stats.worker_utilization.len(), 2);
        assert!(out.stats.cases_per_sec > 0.0);
        // Every gold reference went through the cache exactly once per
        // distinct program.
        let c = out.stats.cache;
        assert_eq!(c.hits + c.misses, corpus.len() as u64);
    }

    #[test]
    fn shared_cache_turns_second_sweep_into_hits() {
        let corpus = small_corpus();
        let cache = Arc::new(OracleCache::new());
        let spec = SystemSpec::rust_assistant();
        let first = Engine::with_cache(1, Arc::clone(&cache)).run_batch(&spec, &corpus.cases, 5);
        let second = Engine::with_cache(2, Arc::clone(&cache)).run_batch(&spec, &corpus.cases, 5);
        assert_eq!(first.results, second.results);
        assert_eq!(second.stats.cache.misses, 0, "warm cache re-ran the oracle");
        assert_eq!(second.stats.cache.hits, corpus.len() as u64);
    }
}
