//! Service telemetry: what a resident daemon has done since it started.
//!
//! The daemon keeps one [`StatsRecorder`] for its whole life; every
//! handled request records its verb, outcome and real wall-clock
//! latency, and the `stats` verb (plus the shutdown dump) snapshots it
//! into a [`ServeStats`]. Latency percentiles come from a bounded [`LatencyRing`] of the
//! most recent samples, so a long-lived daemon's memory stays flat.
//!
//! Since PR 7 the scalar counters live in a per-recorder
//! [`rb_obs::MetricsRegistry`] rather than a parallel tally struct:
//! [`StatsRecorder::record_request`] writes registry counters and the
//! latency histogram, and [`StatsRecorder::snapshot`] *reads them back*.
//! The registry is per-recorder (not the process-global one) so two
//! daemons in one process — the integration tests run exactly that —
//! never see each other's counts; the `metrics` verb exposes this
//! registry alongside the global one.

use rb_obs::MetricsRegistry;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How many latency samples the percentile ring retains (oldest
/// overwritten first).
const LATENCY_RING: usize = 4096;

/// Registry series names the recorder writes and the snapshot re-reads.
const REQUESTS: &str = "rustbrain_serve_requests_total";
const BATCH_CASES: &str = "rustbrain_serve_batch_cases_total";
const COMPACTIONS: &str = "rustbrain_serve_compactions_total";
const TRIGGERED: &str = "rustbrain_serve_triggered_compactions_total";
const MERGED_INSERTS: &str = "rustbrain_serve_kb_merged_inserts_total";
const CACHE_LOOKUPS: &str = "rustbrain_serve_cache_lookups_total";
const ORACLE_JUDGEMENTS: &str = "rustbrain_serve_oracle_judgements_total";
const REQUEST_LATENCY_US: &str = "rustbrain_serve_request_us";

/// A point-in-time snapshot of the daemon's counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeStats {
    /// Real milliseconds since the daemon started.
    pub uptime_ms: f64,
    /// Requests handled, all verbs (errors included).
    pub requests: u64,
    /// Requests answered with `{"ok":false,...}`.
    pub errors: u64,
    /// `repair` requests handled.
    pub repairs: u64,
    /// `batch` requests handled.
    pub batches: u64,
    /// `analyze` requests handled (the lint; no repair).
    pub analyzes: u64,
    /// Cases swept across all `batch` requests.
    pub batch_cases: u64,
    /// Compactions run — the `compact` verb plus time-triggered.
    pub compactions: u64,
    /// The subset of `compactions` fired by the time trigger.
    pub triggered_compactions: u64,
    /// Median request latency over the recent ring, real ms.
    pub p50_ms: f64,
    /// 99th-percentile request latency over the recent ring, real ms.
    pub p99_ms: f64,
    /// Slowest request in the recent ring, real ms.
    pub max_ms: f64,
    /// Entries in the resident knowledge base.
    pub kb_entries: usize,
    /// Solved-case weight the resident base stands for.
    pub kb_weight: u64,
    /// Learned inserts merged into the resident base since startup.
    pub kb_merged_inserts: u64,
    /// Oracle cache hits across all requests (gold-reference lookups).
    pub cache_hits: u64,
    /// Oracle cache misses across all requests.
    pub cache_misses: u64,
    /// Oracle judgements that executed the interpreter fresh.
    pub oracle_executed: u64,
    /// Oracle judgements served from the verdict cache.
    pub oracle_cached: u64,
    /// Oracle judgements resolved without the oracle. Always 0 (every
    /// candidate is judged); kept so the `oracle.prevetoed` stat stays
    /// in the reply.
    pub oracle_prevetoed: u64,
    /// Whether the daemon runs with a resident tracer (`--trace-out`).
    /// The server fills this from its config; a bare recorder snapshot
    /// leaves it false.
    pub trace_active: bool,
    /// Spans the resident tracer has emitted since startup (0 when
    /// tracing is off).
    pub trace_spans: u64,
}

impl ServeStats {
    /// Fraction of oracle lookups served from the cache (0 when idle).
    #[must_use]
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The snapshot as one JSON object (engine telemetry conventions:
    /// floats at four decimals, stable field order).
    #[must_use]
    pub fn to_json(&self) -> String {
        use rb_obs::json::fmt_num;
        format!(
            concat!(
                "{{\"uptime_ms\":{},\"requests\":{},\"errors\":{},",
                "\"repairs\":{},\"batches\":{},\"analyzes\":{},",
                "\"batch_cases\":{},",
                "\"compactions\":{},\"triggered_compactions\":{},",
                "\"latency\":{{\"p50_ms\":{},\"p99_ms\":{},\"max_ms\":{}}},",
                "\"kb\":{{\"entries\":{},\"weight\":{},\"merged_inserts\":{}}},",
                "\"oracle\":{{\"cache_hits\":{},\"cache_misses\":{},",
                "\"cache_hit_rate\":{},\"executed\":{},\"cached\":{},",
                "\"prevetoed\":{}}},",
                "\"trace\":{{\"active\":{},\"spans\":{}}}}}"
            ),
            fmt_num(self.uptime_ms),
            self.requests,
            self.errors,
            self.repairs,
            self.batches,
            self.analyzes,
            self.batch_cases,
            self.compactions,
            self.triggered_compactions,
            fmt_num(self.p50_ms),
            fmt_num(self.p99_ms),
            fmt_num(self.max_ms),
            self.kb_entries,
            self.kb_weight,
            self.kb_merged_inserts,
            self.cache_hits,
            self.cache_misses,
            fmt_num(self.cache_hit_rate()),
            self.oracle_executed,
            self.oracle_cached,
            self.oracle_prevetoed,
            self.trace_active,
            self.trace_spans,
        )
    }
}

/// The verb a handled request resolved to, for per-verb counting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// A `repair` request.
    Repair,
    /// A `batch` request; the payload is its case count.
    Batch(u64),
    /// An `analyze` request (the lint).
    Analyze,
    /// A `stats` request.
    Stats,
    /// A `metrics` request (registry exposition).
    Metrics,
    /// A `compact` request.
    Compact,
    /// A `shutdown` request.
    Shutdown,
    /// A request that failed to parse or execute.
    Error,
}

impl Verb {
    /// The `verb` label value this request counts under in the registry.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verb::Repair => "repair",
            Verb::Batch(_) => "batch",
            Verb::Analyze => "analyze",
            Verb::Stats => "stats",
            Verb::Metrics => "metrics",
            Verb::Compact => "compact",
            Verb::Shutdown => "shutdown",
            Verb::Error => "error",
        }
    }
}

/// A bounded ring of the most recent latency samples with nearest-rank
/// percentiles. Fill-then-overwrite: pushes append until `capacity`,
/// then wrap around overwriting the oldest slot.
#[derive(Clone, Debug)]
pub struct LatencyRing {
    capacity: usize,
    samples: Vec<f64>,
    next_slot: usize,
}

impl Default for LatencyRing {
    fn default() -> LatencyRing {
        LatencyRing::new(LATENCY_RING)
    }
}

impl LatencyRing {
    /// A ring retaining at most `capacity` samples (clamped to ≥ 1).
    #[must_use]
    pub fn new(capacity: usize) -> LatencyRing {
        LatencyRing {
            capacity: capacity.max(1),
            samples: Vec::new(),
            next_slot: 0,
        }
    }

    /// Adds one sample, overwriting the oldest once full.
    pub fn push(&mut self, sample: f64) {
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.next_slot] = sample;
        }
        self.next_slot = (self.next_slot + 1) % self.capacity;
    }

    /// Samples currently retained (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The retained samples, unordered.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// `(p50, p99, max)` over the retained samples (zeros when empty).
    /// The nearest-rank method on a sorted copy — the ring is small and
    /// snapshots are rare, so simplicity beats cleverness.
    #[must_use]
    pub fn percentiles(&self) -> (f64, f64, f64) {
        percentiles(&self.samples)
    }
}

/// The daemon's live, thread-shared counters: scalar counts and the
/// request-latency histogram live in a per-recorder metrics registry
/// (readable through [`StatsRecorder::registry`], exposed by the
/// `metrics` verb); only the percentile ring needs its own lock.
#[derive(Debug)]
pub struct StatsRecorder {
    started: Instant,
    registry: Arc<MetricsRegistry>,
    ring: Mutex<LatencyRing>,
}

impl Default for StatsRecorder {
    fn default() -> StatsRecorder {
        StatsRecorder::new()
    }
}

impl StatsRecorder {
    /// A fresh recorder with a private registry; `uptime_ms` counts from
    /// here. Private (rather than process-global) so several daemons in
    /// one process stay hermetic.
    #[must_use]
    pub fn new() -> StatsRecorder {
        StatsRecorder::with_registry(Arc::new(MetricsRegistry::new()))
    }

    /// A recorder writing into an existing registry (shared counters).
    #[must_use]
    pub fn with_registry(registry: Arc<MetricsRegistry>) -> StatsRecorder {
        StatsRecorder {
            started: Instant::now(),
            registry,
            ring: Mutex::new(LatencyRing::default()),
        }
    }

    /// The registry this recorder writes through — the `metrics` verb
    /// exposes it next to the process-global one.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, LatencyRing> {
        self.ring.lock().expect("latency ring lock poisoned")
    }

    /// Records one handled request: its verb and real latency.
    pub fn record_request(&self, verb: Verb, latency_ms: f64) {
        self.registry
            .counter_add(REQUESTS, Some(("verb", verb.label())), 1);
        if let Verb::Batch(cases) = verb {
            self.registry.counter_add(BATCH_CASES, None, cases);
        }
        self.registry.observe(
            REQUEST_LATENCY_US,
            Some(("verb", verb.label())),
            latency_ms * 1e3,
            rb_obs::REAL_US_BUCKETS,
        );
        self.ring().push(latency_ms);
    }

    /// Records a compaction run (`triggered` when fired by the timer
    /// rather than the `compact` verb).
    pub fn record_compaction(&self, triggered: bool) {
        self.registry.counter_add(COMPACTIONS, None, 1);
        if triggered {
            self.registry.counter_add(TRIGGERED, None, 1);
        }
    }

    /// Records learned inserts merged into the resident base.
    pub fn record_merged_inserts(&self, inserts: u64) {
        self.registry.counter_add(MERGED_INSERTS, None, inserts);
    }

    /// Records a request's oracle traffic: gold-reference cache
    /// hits/misses and the executed/cached/prevetoed judgement split.
    pub fn record_oracle(
        &self,
        hits: u64,
        misses: u64,
        executed: u64,
        cached: u64,
        prevetoed: u64,
    ) {
        let reg = &self.registry;
        reg.counter_add(CACHE_LOOKUPS, Some(("result", "hit")), hits);
        reg.counter_add(CACHE_LOOKUPS, Some(("result", "miss")), misses);
        reg.counter_add(ORACLE_JUDGEMENTS, Some(("result", "executed")), executed);
        reg.counter_add(ORACLE_JUDGEMENTS, Some(("result", "cached")), cached);
        reg.counter_add(ORACLE_JUDGEMENTS, Some(("result", "prevetoed")), prevetoed);
    }

    /// Snapshots the counters by reading them back from the registry.
    /// The knowledge-base gauges (resident shards, entries, weight,
    /// shard loads) are the caller's — the recorder only holds what it
    /// observed itself.
    #[must_use]
    pub fn snapshot(&self) -> ServeStats {
        let reg = &self.registry;
        let verb = |label: &str| reg.counter(REQUESTS, Some(("verb", label)));
        let requests = reg
            .label_values(REQUESTS)
            .iter()
            .map(|v| verb(v))
            .sum::<u64>();
        let (p50, p99, max) = self.ring().percentiles();
        ServeStats {
            uptime_ms: self.started.elapsed().as_secs_f64() * 1e3,
            requests,
            errors: verb("error"),
            repairs: verb("repair"),
            batches: verb("batch"),
            analyzes: verb("analyze"),
            batch_cases: reg.counter(BATCH_CASES, None),
            compactions: reg.counter(COMPACTIONS, None),
            triggered_compactions: reg.counter(TRIGGERED, None),
            p50_ms: p50,
            p99_ms: p99,
            max_ms: max,
            kb_entries: 0,
            kb_weight: 0,
            kb_merged_inserts: reg.counter(MERGED_INSERTS, None),
            cache_hits: reg.counter(CACHE_LOOKUPS, Some(("result", "hit"))),
            cache_misses: reg.counter(CACHE_LOOKUPS, Some(("result", "miss"))),
            oracle_executed: reg.counter(ORACLE_JUDGEMENTS, Some(("result", "executed"))),
            oracle_cached: reg.counter(ORACLE_JUDGEMENTS, Some(("result", "cached"))),
            oracle_prevetoed: reg.counter(ORACLE_JUDGEMENTS, Some(("result", "prevetoed"))),
            trace_active: false,
            trace_spans: 0,
        }
    }
}

/// `(p50, p99, max)` over a sample slice (zeros when empty) by the
/// nearest-rank method on a sorted copy.
fn percentiles(samples: &[f64]) -> (f64, f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = |p: f64| {
        let idx = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[idx.clamp(1, sorted.len()) - 1]
    };
    (rank(50.0), rank(99.0), sorted[sorted.len() - 1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_obs::json::{parse, Value};

    #[test]
    fn counters_accumulate_per_verb() {
        let rec = StatsRecorder::new();
        rec.record_request(Verb::Repair, 3.0);
        rec.record_request(Verb::Batch(42), 10.0);
        rec.record_request(Verb::Analyze, 0.1);
        rec.record_request(Verb::Stats, 1.0);
        rec.record_request(Verb::Metrics, 0.2);
        rec.record_request(Verb::Error, 0.5);
        rec.record_compaction(false);
        rec.record_compaction(true);
        rec.record_merged_inserts(5);
        rec.record_oracle(3, 1, 10, 2, 4);
        let s = rec.snapshot();
        assert_eq!(s.requests, 6);
        assert_eq!(s.repairs, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.batch_cases, 42);
        assert_eq!(s.errors, 1);
        assert_eq!(s.compactions, 2);
        assert_eq!(s.triggered_compactions, 1);
        assert_eq!(s.kb_merged_inserts, 5);
        assert_eq!((s.cache_hits, s.cache_misses), (3, 1));
        assert_eq!((s.oracle_executed, s.oracle_cached), (10, 2));
        assert_eq!(s.oracle_prevetoed, 4);
        assert_eq!(s.analyzes, 1);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(s.max_ms, 10.0);
        assert!(s.uptime_ms >= 0.0);
        // The snapshot numbers ARE the registry's: no parallel tally to
        // drift out of sync.
        let text = rec.registry().prometheus();
        assert!(
            text.contains("rustbrain_serve_requests_total{verb=\"repair\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("rustbrain_serve_request_us_count{verb=\"batch\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn recorders_are_hermetic() {
        // Two daemons in one process (the integration tests do this)
        // must never see each other's counts.
        let a = StatsRecorder::new();
        let b = StatsRecorder::new();
        a.record_request(Verb::Repair, 1.0);
        assert_eq!(a.snapshot().requests, 1);
        assert_eq!(b.snapshot().requests, 0);
    }

    #[test]
    fn percentiles_are_sane_and_ring_is_bounded() {
        assert_eq!(percentiles(&[]), (0.0, 0.0, 0.0));
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p50, p99, max) = percentiles(&samples);
        assert_eq!(p50, 50.0);
        assert_eq!(p99, 99.0);
        assert_eq!(max, 100.0);

        let rec = StatsRecorder::new();
        for i in 0..(LATENCY_RING + 100) {
            rec.record_request(Verb::Stats, i as f64);
        }
        let ring = rec.ring();
        assert_eq!(ring.len(), LATENCY_RING, "ring must stay bounded");
        // The oldest samples were overwritten by the newest.
        assert!(ring.samples().contains(&(LATENCY_RING as f64 + 99.0)));
        assert!(!ring.samples().contains(&0.0));
    }

    #[test]
    fn empty_ring_reports_zeros() {
        let ring = LatencyRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.percentiles(), (0.0, 0.0, 0.0));
        // A 0-request stats dump is all zeros and still valid JSON.
        let s = StatsRecorder::new().snapshot();
        assert_eq!((s.requests, s.errors), (0, 0));
        assert_eq!((s.p50_ms, s.p99_ms, s.max_ms), (0.0, 0.0, 0.0));
        assert_eq!(s.cache_hit_rate(), 0.0, "0/0 must not be NaN");
        let json = s.to_json();
        assert!(parse(&json).is_ok(), "{json}");
        assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    }

    #[test]
    fn single_sample_is_all_three_percentiles() {
        let mut ring = LatencyRing::new(8);
        ring.push(7.5);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.percentiles(), (7.5, 7.5, 7.5));
    }

    #[test]
    fn wrap_around_at_exact_capacity_overwrites_oldest_first() {
        let mut ring = LatencyRing::new(4);
        for v in 1..=4 {
            ring.push(f64::from(v));
        }
        assert_eq!(ring.samples(), &[1.0, 2.0, 3.0, 4.0]);
        // The next push lands exactly on slot 0 (the oldest sample).
        ring.push(5.0);
        assert_eq!(ring.samples(), &[5.0, 2.0, 3.0, 4.0]);
        ring.push(6.0);
        assert_eq!(ring.samples(), &[5.0, 6.0, 3.0, 4.0]);
        // A full second lap overwrites everything once, in order.
        for v in 7..=10 {
            ring.push(f64::from(v));
        }
        assert_eq!(ring.samples(), &[9.0, 10.0, 7.0, 8.0]);
        assert_eq!(ring.len(), 4);
    }

    #[test]
    fn percentile_order_holds_under_randomized_fill() {
        // Deterministic LCG so the "random" fill is reproducible.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % 10_000) as f64 / 10.0
        };
        let mut ring = LatencyRing::new(64);
        for round in 1..=500 {
            ring.push(next());
            let (p50, p99, max) = ring.percentiles();
            assert!(
                p50 <= p99 && p99 <= max,
                "round {round}: p50 {p50} p99 {p99} max {max}"
            );
            let true_max = ring
                .samples()
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(max, true_max, "round {round}");
        }
    }

    #[test]
    fn trace_section_reports_resident_tracer_counts() {
        let mut s = StatsRecorder::new().snapshot();
        assert!(!s.trace_active, "a bare recorder has no tracer");
        assert_eq!(s.trace_spans, 0);
        s.trace_active = true;
        s.trace_spans = 123;
        let v = parse(&s.to_json()).unwrap();
        let trace = v.get("trace").expect("trace section");
        assert_eq!(trace.get("active").and_then(Value::as_bool), Some(true));
        assert_eq!(trace.get("spans").and_then(Value::as_u64), Some(123));
    }

    #[test]
    fn stats_json_is_parseable_and_complete() {
        let rec = StatsRecorder::new();
        rec.record_request(Verb::Batch(6), 12.5);
        let mut s = rec.snapshot();
        s.kb_entries = 10;
        let v = parse(&s.to_json()).unwrap();
        assert_eq!(v.get("requests").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("kb")
                .and_then(|kb| kb.get("entries"))
                .and_then(Value::as_u64),
            Some(10)
        );
        assert_eq!(
            v.get("latency")
                .and_then(|l| l.get("p50_ms"))
                .and_then(Value::as_f64),
            Some(12.5)
        );
    }
}
