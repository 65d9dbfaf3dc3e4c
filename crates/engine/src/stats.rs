//! Engine telemetry: throughput, per-worker utilization, the
//! executed-vs-cached oracle split, the verdict cache's size and
//! knowledge-base merge accounting, serializable to JSON.
//!
//! The vendored `serde` is a marker stub (see `vendor/README.md`), so the
//! JSON is written with `rb_obs::json`'s writers; [`EngineStats::to_json`]
//! emits strictly valid JSON (finite numbers only, no trailing commas).

use rb_obs::json::{fmt_num, fmt_str};

use crate::system::CaseResult;

/// Knowledge-base accounting of one batch: how the shared snapshot grew
/// when the per-job deltas were merged back in submission order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KbMergeStats {
    /// Entries in the read-only snapshot every job started from.
    pub seeded_entries: usize,
    /// Entries merged back from per-job deltas after the batch.
    pub merged_inserts: usize,
    /// Jobs that contributed at least one insert.
    pub contributing_jobs: usize,
    /// Entries the merge policy absorbed (exact duplicates folded into
    /// weights, conflicting rules dropped, near-duplicates coalesced):
    /// `seeded_entries + merged_inserts - final_entries`. Zero under the
    /// append-only policy.
    pub coalesced: usize,
    /// Entries in the merged base handed back in the batch outcome.
    pub final_entries: usize,
    /// Store segments rewritten by `--kb-out` (a single-file store counts
    /// as one; a sharded store rewrites only its dirty shards). Zero when
    /// no store was written.
    pub shards_written: usize,
    /// Store segments whose content was unchanged and were skipped by the
    /// sharded save (always zero for single-file stores).
    pub shards_skipped: usize,
}

/// Dispatch telemetry of one batch. Workers claim jobs from one shared
/// counter and never steal, so `steals` is always 0 and is left out of
/// [`EngineStats::to_json`]; the field stays because the benchmark
/// driver reads it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs taken from another worker's queue: always 0.
    pub steals: u64,
}

/// The verdict cache a batch judged through, as it stood when the batch
/// finished. How well it served the batch is the oracle split
/// ([`EngineStats::hit_rate`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchCache {
    /// Whether the batch judged through a cache at all. A batch without
    /// one (`Engine::direct`, the CLI's `--no-cache`) writes no `cache`
    /// object.
    pub enabled: bool,
    /// Distinct programs the cache held (0 without a cache).
    pub entries: u64,
}

/// Aggregate telemetry of one engine batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Jobs executed.
    pub cases: usize,
    /// Real wall-clock duration of the batch in milliseconds.
    pub wall_ms: f64,
    /// Throughput: cases per wall-clock second.
    pub cases_per_sec: f64,
    /// Fraction of the batch wall-clock each worker spent executing jobs
    /// (one entry per worker, in worker order).
    pub worker_utilization: Vec<f64>,
    /// Jobs executed by each worker, in worker order.
    pub worker_cases: Vec<usize>,
    /// Scheduler-imbalance summary: the busiest worker's case share
    /// divided by the idlest worker's (`max/min` over `worker_cases`).
    /// `1.0` is a perfectly even split. `None` — serialized as JSON
    /// `null` — when a worker got zero jobs while another got some (the
    /// ratio would be ∞) or when the batch was empty; collapsing ∞ to a
    /// number would hide exactly the starvation the metric exists to
    /// flag.
    pub imbalance: Option<f64>,
    /// Total simulated repair time accumulated by the jobs (the paper's
    /// overhead metric — unrelated to real wall-clock).
    pub simulated_overhead_ms: f64,
    /// Simulated milliseconds the jobs spent in knowledge-base retrieval
    /// (a subset of `simulated_overhead_ms`; the paper's knowledge
    /// overhead, now derived from indexed bucket scans).
    pub kb_query_ms: f64,
    /// Oracle judgements across the whole batch (gold references plus
    /// every repair-internal verification) that executed the interpreter.
    /// Each judgement is counted once, where it was recorded.
    pub oracle_executed: u64,
    /// Oracle judgements served from the verdict cache.
    pub oracle_cached: u64,
    /// Oracle judgements resolved without the oracle. Always 0 (every
    /// candidate is judged); kept so the stats JSON layout is stable.
    pub oracle_prevetoed: u64,
    /// Knowledge-base snapshot/delta merge accounting.
    pub kb: KbMergeStats,
    /// The verdict cache the batch judged through.
    pub cache: BatchCache,
    /// Dispatch telemetry (see [`SchedStats`]).
    pub sched: SchedStats,
}

fn json_array<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    let body: Vec<String> = items.iter().map(f).collect();
    format!("[{}]", body.join(","))
}

impl EngineStats {
    /// The scheduler-imbalance ratio for a per-worker case distribution:
    /// `max/min`, `Some(1.0)` for a single worker or an even split, and
    /// `None` when the ratio is undefined or infinite (an empty batch,
    /// or a worker starved to zero jobs while others ran).
    #[must_use]
    pub fn imbalance_of(worker_cases: &[usize]) -> Option<f64> {
        let max = worker_cases.iter().copied().max()?;
        let min = worker_cases.iter().copied().min()?;
        if min == 0 {
            // max == 0 means an empty batch (no share to compare);
            // max > 0 means a starved worker (an infinite ratio).
            return None;
        }
        Some(max as f64 / min as f64)
    }

    /// Per-worker utilization for a busy-time distribution: each
    /// worker's busy milliseconds over the batch wall-clock, clamped to
    /// `[0, 1]`. Degenerate batches (zero or negative wall, non-finite
    /// busy times) report 0.0 rather than leaking `NaN`/`inf` into
    /// BENCH_engine.json — the same infinity-safety contract
    /// [`EngineStats::imbalance_of`] keeps.
    #[must_use]
    pub fn utilization_of(busy_ms: &[f64], wall_ms: f64) -> Vec<f64> {
        busy_ms
            .iter()
            .map(|b| {
                if wall_ms > 0.0 {
                    let ratio = b / wall_ms;
                    if ratio.is_finite() {
                        ratio.clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// The share of the batch's judgements served from its cache,
    /// `cached / (executed + cached)` (0 when nothing was judged), or
    /// `None` when the batch had no cache.
    #[must_use]
    pub fn hit_rate(&self) -> Option<f64> {
        let judged = self.oracle_executed + self.oracle_cached;
        self.cache
            .enabled
            .then(|| self.oracle_cached as f64 / judged.max(1) as f64)
    }

    /// Serializes the telemetry to a single-line JSON object. The
    /// `cache` object, last, is there only when the batch had a cache.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cache = if self.cache.enabled {
            format!(",\"cache\":{{\"entries\":{}}}", self.cache.entries)
        } else {
            String::new()
        };
        format!(
            concat!(
                "{{\"workers\":{},\"cases\":{},\"wall_ms\":{},",
                "\"cases_per_sec\":{},\"worker_utilization\":{},",
                "\"worker_cases\":{},\"imbalance\":{},",
                "\"simulated_overhead_ms\":{},",
                "\"kb_query_ms\":{},",
                "\"oracle\":{{\"executed\":{},\"cached\":{},\"prevetoed\":{}}},",
                "\"kb\":{{\"seeded\":{},\"merged_inserts\":{},",
                "\"contributing_jobs\":{},\"coalesced\":{},\"final_entries\":{},",
                "\"shards_written\":{},\"shards_skipped\":{}}}{}}}"
            ),
            self.workers,
            self.cases,
            fmt_num(self.wall_ms),
            fmt_num(self.cases_per_sec),
            json_array(&self.worker_utilization, |u| fmt_num(*u)),
            json_array(&self.worker_cases, |c| c.to_string()),
            self.imbalance.map_or_else(|| "null".to_owned(), fmt_num),
            fmt_num(self.simulated_overhead_ms),
            fmt_num(self.kb_query_ms),
            self.oracle_executed,
            self.oracle_cached,
            self.oracle_prevetoed,
            self.kb.seeded_entries,
            self.kb.merged_inserts,
            self.kb.contributing_jobs,
            self.kb.coalesced,
            self.kb.final_entries,
            self.kb.shards_written,
            self.kb.shards_skipped,
            cache,
        )
    }
}

/// Serializes a result stream to JSON carrying **only the deterministic
/// repair fields** — no telemetry, no wall-clock, no cache attribution —
/// so two runs that repaired identically produce byte-identical files.
/// This is the artifact CI diffs between cache-enabled and cache-disabled
/// batch runs to pin the equivalence.
#[must_use]
pub fn results_to_json(results: &[CaseResult]) -> String {
    let rows = json_array(results, |r| {
        format!(
            concat!(
                "{{\"case_id\":{},\"class\":{},\"passed\":{},",
                "\"acceptable\":{},\"overhead_ms\":{},",
                "\"kb_queries\":{},\"kb_query_ms\":{}}}"
            ),
            fmt_str(&r.case_id),
            fmt_str(r.class.label()),
            r.passed,
            r.acceptable,
            fmt_num(r.overhead_ms),
            r.kb_queries,
            fmt_num(r.kb_query_ms),
        )
    });
    format!("{{\"results\":{rows}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let stats = EngineStats {
            workers: 2,
            cases: 3,
            wall_ms: 12.5,
            cases_per_sec: 240.0,
            worker_utilization: vec![0.9, 0.8],
            worker_cases: vec![2, 1],
            imbalance: EngineStats::imbalance_of(&[2, 1]),
            simulated_overhead_ms: 99.0,
            kb_query_ms: 18.5,
            oracle_executed: 7,
            oracle_cached: 21,
            oracle_prevetoed: 4,
            kb: KbMergeStats {
                seeded_entries: 1,
                merged_inserts: 3,
                contributing_jobs: 2,
                coalesced: 1,
                final_entries: 3,
                shards_written: 2,
                shards_skipped: 1,
            },
            cache: BatchCache {
                enabled: true,
                entries: 3,
            },
            sched: SchedStats::default(),
        };
        assert_eq!(stats.hit_rate(), Some(0.75));
        // The whole shape, pinned: the oracle split is the only count of
        // judgements, and the cache reports only its size.
        let body = concat!(
            "{\"workers\":2,\"cases\":3,\"wall_ms\":12.5000,\"cases_per_sec\":240.0000,",
            "\"worker_utilization\":[0.9000,0.8000],\"worker_cases\":[2,1],",
            "\"imbalance\":2.0000,\"simulated_overhead_ms\":99.0000,\"kb_query_ms\":18.5000,",
            "\"oracle\":{\"executed\":7,\"cached\":21,\"prevetoed\":4},",
            "\"kb\":{\"seeded\":1,\"merged_inserts\":3,\"contributing_jobs\":2,",
            "\"coalesced\":1,\"final_entries\":3,\"shards_written\":2,\"shards_skipped\":1}"
        );
        assert_eq!(
            stats.to_json(),
            format!("{body},\"cache\":{{\"entries\":3}}}}")
        );
        // Without a cache there is no cache object and no hit rate.
        let direct = EngineStats {
            cache: BatchCache::default(),
            ..stats
        };
        assert_eq!(direct.hit_rate(), None);
        assert_eq!(direct.to_json(), format!("{body}}}"));
    }

    #[test]
    fn non_finite_numbers_never_leak() {
        assert_eq!(fmt_num(f64::NAN), "0.0000");
        assert_eq!(fmt_num(f64::INFINITY), "0.0000");
        assert_eq!(fmt_num(1.0 / 3.0), "0.3333");
    }

    #[test]
    fn imbalance_is_infinity_safe() {
        // Even split and single worker are both 1.0.
        assert_eq!(EngineStats::imbalance_of(&[3, 3]), Some(1.0));
        assert_eq!(EngineStats::imbalance_of(&[7]), Some(1.0));
        // The committed bench's distribution has a defined ratio.
        assert_eq!(EngineStats::imbalance_of(&[4, 1, 16, 21]), Some(21.0));
        // A starved worker would be an infinite ratio: report None, and
        // serialize it as null rather than a misleading finite number.
        assert_eq!(EngineStats::imbalance_of(&[0, 5]), None);
        assert_eq!(EngineStats::imbalance_of(&[0, 0]), None);
        assert_eq!(EngineStats::imbalance_of(&[]), None);
        let stats = EngineStats {
            workers: 2,
            worker_cases: vec![0, 5],
            imbalance: EngineStats::imbalance_of(&[0, 5]),
            ..EngineStats::default()
        };
        assert!(
            stats.to_json().contains("\"imbalance\":null"),
            "{}",
            stats.to_json()
        );
    }

    #[test]
    fn utilization_is_clamped_on_degenerate_batches() {
        // The normal case divides and clamps per worker.
        let u = EngineStats::utilization_of(&[5.0, 20.0], 10.0);
        assert_eq!(u, vec![0.5, 1.0]);
        // Zero-wall and empty batches must not emit NaN/inf into
        // BENCH_engine.json.
        assert_eq!(
            EngineStats::utilization_of(&[5.0, 0.0], 0.0),
            vec![0.0, 0.0]
        );
        assert_eq!(EngineStats::utilization_of(&[], 12.0), Vec::<f64>::new());
        // Pathological inputs (non-finite busy or wall) collapse to 0.
        assert_eq!(
            EngineStats::utilization_of(&[f64::NAN, f64::INFINITY], 10.0),
            vec![0.0, 0.0]
        );
        assert_eq!(EngineStats::utilization_of(&[1.0], f64::NAN), vec![0.0]);
        let stats = EngineStats {
            workers: 1,
            worker_utilization: EngineStats::utilization_of(&[3.0], 0.0),
            ..EngineStats::default()
        };
        assert!(stats.to_json().contains("\"worker_utilization\":[0.0000]"));
    }

    #[test]
    fn results_json_is_telemetry_free() {
        let results = vec![CaseResult {
            case_id: "alloc/double_free/0".into(),
            class: rb_miri::UbClass::Alloc,
            passed: true,
            acceptable: false,
            overhead_ms: 1234.5,
            kb_queries: 2,
            kb_query_ms: 18120.0,
        }];
        let json = results_to_json(&results);
        assert!(json.contains("\"case_id\":\"alloc/double_free/0\""));
        assert!(json.contains("\"overhead_ms\":1234.5000"));
        assert!(json.contains("\"kb_queries\":2"));
        // Deterministic fields only: no wall-clock, no cache, no workers.
        for banned in ["wall", "cache", "worker", "hit"] {
            assert!(!json.contains(banned), "telemetry `{banned}` leaked");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(fmt_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(fmt_str("n\nl"), "\"n\\nl\"");
    }
}
