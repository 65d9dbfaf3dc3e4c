//! A process-wide metrics registry: counters, gauges and fixed-bucket
//! histograms, with Prometheus-style text exposition and a JSON dump.
//!
//! Every metric is keyed by a name plus at most one label pair (enough
//! for the stack's `{class=...}` / `{verb=...}` breakdowns without an
//! allocation-happy label map). The process-global registry is reached
//! through [`metrics`]; components that need hermetic counts (the serve
//! daemon's per-server stats) construct their own [`MetricsRegistry`].
//!
//! Recording never contends: each thread records counters and histograms
//! into its own shard of the registry, found through a thread-local, and
//! every read folds the shards into one view. A thread's shard is folded
//! into the registry's retired totals when the thread exits, so a registry
//! holds at most one live shard per live thread that recorded into it. Gauges are
//! rare and stay last-write-wins under the registry's lock. Every registry,
//! the global one and the daemon's own, works this way.
//!
//! Histograms use fixed, caller-supplied bucket bounds so merging and
//! exposition never resample: [`SIM_MS_BUCKETS`] for simulated repair
//! latencies, [`REAL_US_BUCKETS`] for wall-clock microseconds. Non-finite
//! observations never reach an exposition — they are dropped and tallied
//! under the `obs_nonfinite_samples_total` counter instead.

use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use crate::json::{fmt_num, fmt_str};

/// Bucket upper bounds (inclusive) for simulated-millisecond latencies.
/// Spans the cost model's range: a fast-path consult is tens to hundreds
/// of ms, one slow-thinking step is 3000+, multi-solution repairs reach
/// tens of thousands.
pub const SIM_MS_BUCKETS: &[f64] = &[
    10.0, 50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0,
    100_000.0,
];

/// Bucket upper bounds (inclusive) for wall-clock microsecond latencies
/// (oracle judgements, engine jobs, serve requests).
pub const REAL_US_BUCKETS: &[f64] = &[
    50.0,
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    50_000.0,
    100_000.0,
    500_000.0,
    1_000_000.0,
];

/// A series's optional single label pair, as stored.
type Label = Option<(String, String)>;

/// Orders a stored label against a borrowed one exactly as `Label`'s own
/// `Ord` would order the owned copy (`None` first, then by key, value).
fn cmp_label(stored: &Label, wanted: Option<(&str, &str)>) -> Ordering {
    match (stored, wanted) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some((k, v)), Some(w)) => (k.as_str(), v.as_str()).cmp(&w),
    }
}

/// The series of one metric kind, keyed by name and then label. Finding
/// an existing series borrows the caller's name and label, so the hot
/// path allocates nothing; only a series's first touch stores owned
/// copies. Labels stay sorted, so iteration runs in (name, label) order.
#[derive(Clone)]
struct Series<V> {
    by_name: BTreeMap<String, Vec<(Label, V)>>,
}

impl<V> Default for Series<V> {
    fn default() -> Series<V> {
        Series {
            by_name: BTreeMap::new(),
        }
    }
}

impl<V> Series<V> {
    fn get(&self, name: &str, label: Option<(&str, &str)>) -> Option<&V> {
        let labels = self.by_name.get(name)?;
        let i = labels.binary_search_by(|(l, _)| cmp_label(l, label)).ok()?;
        Some(&labels[i].1)
    }

    fn get_mut(&mut self, name: &str, label: Option<(&str, &str)>) -> Option<&mut V> {
        let labels = self.by_name.get_mut(name)?;
        let i = labels.binary_search_by(|(l, _)| cmp_label(l, label)).ok()?;
        Some(&mut labels[i].1)
    }

    /// The series `name`/`label`, created with `init` on first touch.
    fn entry(
        &mut self,
        name: &str,
        label: Option<(&str, &str)>,
        init: impl FnOnce() -> V,
    ) -> &mut V {
        if !self.by_name.contains_key(name) {
            self.by_name.insert(name.to_owned(), Vec::new());
        }
        let labels = self.by_name.get_mut(name).expect("inserted above");
        let i = match labels.binary_search_by(|(l, _)| cmp_label(l, label)) {
            Ok(i) => i,
            Err(i) => {
                let owned = label.map(|(k, v)| (k.to_owned(), v.to_owned()));
                labels.insert(i, (owned, init()));
                i
            }
        };
        &mut labels[i].1
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &Label, &V)> {
        self.by_name
            .iter()
            .flat_map(|(name, labels)| labels.iter().map(move |(l, v)| (name.as_str(), l, v)))
    }

    fn is_empty(&self) -> bool {
        self.by_name.is_empty()
    }
}

/// One fixed-bucket histogram: per-bucket counts (non-cumulative), total
/// sum and total count. Returned by [`MetricsRegistry::histogram`].
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Upper bounds, ascending; an implicit `+Inf` bucket follows.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts, `bounds.len() + 1` long (last is the
    /// overflow bucket).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Number of observations.
    pub count: u64,
}

#[derive(Clone, Debug)]
struct Histo {
    bounds: Arc<[f64]>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histo {
    fn new(bounds: Arc<[f64]>) -> Histo {
        Histo {
            counts: vec![0; bounds.len() + 1],
            bounds,
            sum: 0.0,
            count: 0,
        }
    }

    fn add(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Adds `other`'s samples. Both carry their series's registry-wide
    /// bounds, so the buckets line up.
    fn absorb(&mut self, other: &Histo) {
        for (count, more) in self.counts.iter_mut().zip(&other.counts) {
            *count += more;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// Counters and histograms: what one thread recorded into its shard, the
/// retired threads' totals, or a read's fold of both.
#[derive(Clone, Default)]
struct Tally {
    counters: Series<u64>,
    histograms: Series<Histo>,
}

fn borrowed(label: &Label) -> Option<(&str, &str)> {
    label.as_ref().map(|(k, v)| (k.as_str(), v.as_str()))
}

/// Adds `other`'s counters into `into`.
fn add_counters(into: &mut Series<u64>, other: &Series<u64>) {
    for (name, label, v) in other.iter() {
        *into.entry(name, borrowed(label), || 0) += v;
    }
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        add_counters(&mut self.counters, &other.counters);
        for (name, label, h) in other.histograms.iter() {
            self.histograms
                .entry(name, borrowed(label), || Histo::new(Arc::clone(&h.bounds)))
                .absorb(h);
        }
    }

    fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }
}

/// One thread's tally in one registry. Only that thread records into it;
/// reads and the thread's retirement lock it briefly.
type Shard = Mutex<Tally>;

/// A lock that keeps counting after a panic elsewhere: observability must
/// not take the process down.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a registry's threads share, under one lock.
#[derive(Default)]
struct Shared {
    gauges: Series<f64>,
    /// Each histogram series's bucket bounds, fixed by its first
    /// observation in any thread.
    bounds: Series<Arc<[f64]>>,
    /// The tallies of threads that have exited.
    retired: Tally,
    /// The shards of threads that have recorded and not yet exited.
    live: Vec<Arc<Shard>>,
}

/// A registry's shared state; thread-locals hold it weakly.
type Core = Mutex<Shared>;

/// Folds an exiting thread's shard into the retired totals and drops it
/// from the live list, in one step under the registry's lock, so a read
/// counts it exactly once.
fn retire(core: &Core, shard: &Arc<Shard>) {
    let mut shared = lock(core);
    if let Some(i) = shared.live.iter().position(|s| Arc::ptr_eq(s, shard)) {
        shared.live.swap_remove(i);
    }
    shared.retired.absorb(&lock(shard));
}

/// This thread's shards, one per registry it has recorded into, found by
/// the registry's address (its [`Weak`] keeps the address from being
/// reused). Dropped when the thread exits, retiring every shard whose
/// registry is still alive.
#[derive(Default)]
struct LocalShards(Vec<(Weak<Core>, Arc<Shard>)>);

impl LocalShards {
    fn shard(&mut self, core: &Arc<Core>) -> &Shard {
        let key = Arc::as_ptr(core);
        if let Some(i) = self.0.iter().position(|(c, _)| c.as_ptr() == key) {
            return &self.0[i].1;
        }
        // Shards of dropped registries go first, so a long-lived thread
        // holds one per live registry at most.
        self.0.retain(|(c, _)| c.strong_count() > 0);
        let shard = Arc::new(Shard::default());
        lock(core).live.push(Arc::clone(&shard));
        self.0.push((Arc::downgrade(core), shard));
        &self.0.last().expect("pushed above").1
    }
}

impl Drop for LocalShards {
    fn drop(&mut self) {
        for (core, shard) in &self.0 {
            if let Some(core) = core.upgrade() {
                retire(&core, shard);
            }
        }
    }
}

thread_local! {
    static SHARDS: RefCell<LocalShards> = RefCell::new(LocalShards::default());
}

/// A registry of counters, gauges and histograms. Thread-safe; cheap to
/// share behind an [`Arc`].
///
/// Counters and histograms are recorded into a shard of the calling
/// thread's own, so threads recording together never wait on each other.
/// Every read folds the shards: [`counter`], [`counters`], [`histogram`],
/// [`prometheus`], [`to_json`] and [`is_empty`] see all
/// that has been recorded, exactly. When a thread exits, its shard is
/// folded into the registry's retired totals and dropped, so the live
/// shards ([`live_shards`]) never outnumber the live threads that
/// recorded. Gauges are last-write-wins under the registry's lock.
///
/// [`counter`]: MetricsRegistry::counter
/// [`histogram`]: MetricsRegistry::histogram
/// [`counters`]: MetricsRegistry::counters
/// [`prometheus`]: MetricsRegistry::prometheus
/// [`to_json`]: MetricsRegistry::to_json
/// [`is_empty`]: MetricsRegistry::is_empty
/// [`live_shards`]: MetricsRegistry::live_shards
#[derive(Default)]
pub struct MetricsRegistry {
    core: Arc<Core>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

fn fmt_bound(b: f64) -> String {
    if b == b.trunc() && b.abs() < 1e15 {
        format!("{b:.0}")
    } else {
        format!("{b}")
    }
}

/// A label value as the text exposition format quotes it: backslash,
/// double quote and line feed become `\\`, `\"` and `\n`.
fn escape_label(v: &str) -> Cow<'_, str> {
    if !v.contains(['\\', '"', '\n']) {
        return Cow::Borrowed(v);
    }
    let mut out = String::with_capacity(v.len() + 2);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

fn series_name(name: &str, label: &Label) -> String {
    match label {
        None => name.to_owned(),
        Some((k, v)) => format!("{name}{{{k}=\"{}\"}}", escape_label(v)),
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Runs `f` on the calling thread's shard, or on the retired totals
    /// when the thread's shards are gone (a thread-local destructor is
    /// recording).
    fn record<R>(&self, f: impl FnOnce(&mut Tally) -> R) -> R {
        let mut f = Some(f);
        let recorded = SHARDS.try_with(|shards| {
            let mut shards = shards.try_borrow_mut().ok()?;
            let mut tally = lock(shards.shard(&self.core));
            f.take().map(|f| f(&mut tally))
        });
        if let Ok(Some(r)) = recorded {
            return r;
        }
        let f = f.expect("a recording that ran returned its result");
        f(&mut lock(&self.core).retired)
    }

    /// Everything recorded so far — the retired totals with every live
    /// shard folded in — and the gauges, read under the registry's lock.
    fn snapshot(&self) -> (Tally, Series<f64>) {
        let shared = lock(&self.core);
        let mut folded = shared.retired.clone();
        for shard in &shared.live {
            folded.absorb(&lock(shard));
        }
        (folded, shared.gauges.clone())
    }

    /// Adds `delta` to a counter (created at zero on first touch).
    pub fn counter_add(&self, name: &str, label: Option<(&str, &str)>, delta: u64) {
        self.record(|t| *t.counters.entry(name, label, || 0) += delta);
    }

    /// Every counter, folded once under the registry's lock: a reader of
    /// several counters takes them from one view instead of locking every
    /// shard once per counter.
    #[must_use]
    pub fn counters(&self) -> Counters {
        let shared = lock(&self.core);
        let mut folded = shared.retired.counters.clone();
        for shard in &shared.live {
            add_counters(&mut folded, &lock(shard).counters);
        }
        Counters(folded)
    }

    /// Reads a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        let shared = lock(&self.core);
        let of = |t: &Tally| t.counters.get(name, label).copied().unwrap_or(0);
        of(&shared.retired) + shared.live.iter().map(|s| of(&lock(s))).sum::<u64>()
    }

    /// Sets a gauge to `value` (non-finite values are dropped).
    pub fn gauge_set(&self, name: &str, label: Option<(&str, &str)>, value: f64) {
        if !value.is_finite() {
            self.counter_add("obs_nonfinite_samples_total", None, 1);
            return;
        }
        *lock(&self.core).gauges.entry(name, label, || value) = value;
    }

    /// Reads a gauge, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str, label: Option<(&str, &str)>) -> Option<f64> {
        lock(&self.core).gauges.get(name, label).copied()
    }

    /// Observes `value` into a fixed-bucket histogram. The series's first
    /// observation, in whichever thread, fixes its bucket bounds; later
    /// `bounds` arguments for the same series are ignored. Non-finite
    /// values are dropped and tallied under `obs_nonfinite_samples_total`.
    pub fn observe(&self, name: &str, label: Option<(&str, &str)>, value: f64, bounds: &[f64]) {
        if !value.is_finite() {
            self.counter_add("obs_nonfinite_samples_total", None, 1);
            return;
        }
        let seen = self.record(|t| {
            t.histograms
                .get_mut(name, label)
                .map(|h| h.add(value))
                .is_some()
        });
        if !seen {
            // This thread's first sample of the series: take the bounds
            // the registry fixed for it (or fix them now).
            let fixed = Arc::clone(lock(&self.core).bounds.entry(name, label, || bounds.into()));
            self.record(|t| {
                t.histograms
                    .entry(name, label, || Histo::new(fixed))
                    .add(value);
            });
        }
    }

    /// Snapshot of one histogram series, if it has any observations.
    #[must_use]
    pub fn histogram(&self, name: &str, label: Option<(&str, &str)>) -> Option<HistogramSnapshot> {
        let (tally, _) = self.snapshot();
        tally
            .histograms
            .get(name, label)
            .map(|h| HistogramSnapshot {
                bounds: h.bounds.to_vec(),
                counts: h.counts.clone(),
                sum: h.sum,
                count: h.count,
            })
    }

    /// How many threads hold a live shard of this registry: those that
    /// have recorded into it and not yet exited. A thread's `join`
    /// returns after its shard is retired; a thread scope can return
    /// before the scoped threads it did not join have exited.
    #[must_use]
    pub fn live_shards(&self) -> usize {
        lock(&self.core).live.len()
    }

    /// Prometheus-style text exposition: counters and gauges as single
    /// sample lines, histograms as cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`. Deterministic ordering (sorted by
    /// series key).
    #[must_use]
    pub fn prometheus(&self) -> String {
        let (tally, gauges) = self.snapshot();
        let mut out = String::new();
        for (name, label, v) in tally.counters.iter() {
            out.push_str(&format!("{} {v}\n", series_name(name, label)));
        }
        for (name, label, v) in gauges.iter() {
            out.push_str(&format!("{} {}\n", series_name(name, label), fmt_num(*v)));
        }
        for (name, label, h) in tally.histograms.iter() {
            let bucket = |le: &str| match label {
                None => format!("{name}_bucket{{le=\"{le}\"}}"),
                Some((k, v)) => {
                    format!("{name}_bucket{{{k}=\"{}\",le=\"{le}\"}}", escape_label(v))
                }
            };
            let mut cumulative = 0u64;
            for (i, bound) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                out.push_str(&format!("{} {cumulative}\n", bucket(&fmt_bound(*bound))));
            }
            out.push_str(&format!("{} {}\n", bucket("+Inf"), h.count));
            out.push_str(&format!(
                "{} {}\n",
                series_name(&format!("{name}_sum"), label),
                fmt_num(h.sum)
            ));
            out.push_str(&format!(
                "{} {}\n",
                series_name(&format!("{name}_count"), label),
                h.count
            ));
        }
        out
    }

    /// JSON dump of the whole registry: `{"counters":{...},"gauges":
    /// {...},"histograms":{"name":{"sum":...,"count":...,"buckets":
    /// [[le,count],...]}}}`, keys in deterministic order, histogram
    /// buckets non-cumulative with an `"inf"` overflow entry.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (tally, gauges) = self.snapshot();
        let mut out = String::from("{\"counters\":{");
        for (i, (name, label, v)) in tally.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fmt_str(&series_name(name, label)));
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, label, v)) in gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fmt_str(&series_name(name, label)));
            out.push(':');
            out.push_str(&fmt_num(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, label, h)) in tally.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fmt_str(&series_name(name, label)));
            out.push_str(":{\"sum\":");
            out.push_str(&fmt_num(h.sum));
            out.push_str(",\"count\":");
            out.push_str(&h.count.to_string());
            out.push_str(",\"buckets\":[");
            for (j, bound) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "[{},{}]",
                    fmt_str(&fmt_bound(*bound)),
                    h.counts[j]
                ));
            }
            if !h.bounds.is_empty() {
                out.push(',');
            }
            out.push_str(&format!("[\"inf\",{}]", h.counts[h.bounds.len()]));
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Whether the registry holds no series at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        let (tally, gauges) = self.snapshot();
        tally.is_empty() && gauges.is_empty()
    }
}

/// A registry's counters at one instant ([`MetricsRegistry::counters`]).
pub struct Counters(Series<u64>);

impl Counters {
    /// A counter's value (zero if never touched).
    #[must_use]
    pub fn get(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        self.0.get(name, label).copied().unwrap_or(0)
    }

    /// The sum of counter `name` over all its labels.
    #[must_use]
    pub fn sum(&self, name: &str) -> u64 {
        self.0
            .by_name
            .get(name)
            .into_iter()
            .flatten()
            .map(|(_, v)| v)
            .sum()
    }
}

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();

fn global() -> &'static Arc<MetricsRegistry> {
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

/// The process-global registry — where the repair pipeline, oracle seam,
/// knowledge base and engine record.
#[must_use]
pub fn metrics() -> &'static MetricsRegistry {
    global()
}

/// A shared handle on the process-global registry (for components that
/// store the registry, like the serve daemon's exposition endpoint).
#[must_use]
pub fn metrics_arc() -> Arc<MetricsRegistry> {
    Arc::clone(global())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        assert!(reg.is_empty());
        assert_eq!(reg.counter("hits", None), 0);
        reg.counter_add("hits", None, 2);
        reg.counter_add("hits", None, 3);
        reg.counter_add("hits", Some(("class", "panic")), 1);
        assert_eq!(reg.counter("hits", None), 5);
        assert_eq!(reg.counter("hits", Some(("class", "panic"))), 1);
        reg.gauge_set("depth", None, 2.5);
        reg.gauge_set("depth", None, 3.5);
        assert_eq!(reg.gauge("depth", None), Some(3.5));
        let text = reg.prometheus();
        assert!(text.contains("hits 5\n"), "{text}");
        assert!(text.contains("hits{class=\"panic\"} 1\n"), "{text}");
        assert!(text.contains("depth 3.5000\n"), "{text}");

        // Two labels of one name accumulate separately, whatever order
        // they are first touched in, and the exposition keeps its
        // (name, label) order: the unlabelled series first, then labels
        // sorted by key and value.
        reg.counter_add("hits", Some(("class", "alloc")), 4);
        reg.counter_add("hits", Some(("class", "panic")), 6);
        reg.counter_add("hits", Some(("class", "alloc")), 1);
        reg.counter_add("a_total", None, 1);
        assert_eq!(reg.counter("hits", Some(("class", "alloc"))), 5);
        assert_eq!(reg.counter("hits", Some(("class", "panic"))), 7);
        assert_eq!(reg.counter("hits", Some(("kind", "alloc"))), 0);
        assert_eq!(reg.counter("hits", None), 5);
        assert_eq!(
            reg.prometheus(),
            "a_total 1\nhits 5\nhits{class=\"alloc\"} 5\nhits{class=\"panic\"} 7\ndepth 3.5000\n"
        );
        let all = reg.counters();
        assert_eq!(all.get("hits", Some(("class", "panic"))), 7);
        assert_eq!(all.sum("hits"), 17);
        assert_eq!(all.sum("misses"), 0);
    }

    #[test]
    fn label_values_are_escaped_in_the_exposition() {
        let reg = MetricsRegistry::new();
        let odd = "a\\b\"c\nd";
        reg.counter_add("hits", Some(("class", odd)), 2);
        reg.observe("lat", Some(("class", odd)), 5.0, &[10.0]);
        let text = reg.prometheus();
        let quoted = r#"class="a\\b\"c\nd""#;
        for line in [
            format!("hits{{{quoted}}} 2"),
            format!("lat_bucket{{{quoted},le=\"10\"}} 1"),
            format!("lat_bucket{{{quoted},le=\"+Inf\"}} 1"),
            format!("lat_sum{{{quoted}}} 5.0000"),
            format!("lat_count{{{quoted}}} 1"),
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing {line:?} in\n{text}"
            );
        }
        // Every sample stays on one line.
        assert_eq!(text.lines().count(), 5, "{text}");
    }

    #[test]
    fn histogram_buckets_fill_and_expose_cumulatively() {
        let reg = MetricsRegistry::new();
        let bounds = &[10.0, 100.0];
        reg.observe("lat", Some(("class", "alloc")), 5.0, bounds);
        reg.observe("lat", Some(("class", "alloc")), 10.0, bounds); // inclusive bound
        reg.observe("lat", Some(("class", "alloc")), 50.0, bounds);
        reg.observe("lat", Some(("class", "alloc")), 1e9, bounds); // overflow
        let h = reg.histogram("lat", Some(("class", "alloc"))).unwrap();
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 1_000_000_065.0).abs() < 1e-6);
        let text = reg.prometheus();
        assert!(
            text.contains("lat_bucket{class=\"alloc\",le=\"10\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_bucket{class=\"alloc\",le=\"100\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("lat_bucket{class=\"alloc\",le=\"+Inf\"} 4\n"),
            "{text}"
        );
        assert!(text.contains("lat_count{class=\"alloc\"}"), "{text}");
    }

    #[test]
    fn non_finite_samples_are_dropped_not_emitted() {
        let reg = MetricsRegistry::new();
        reg.observe("lat", None, f64::NAN, SIM_MS_BUCKETS);
        reg.observe("lat", None, f64::INFINITY, SIM_MS_BUCKETS);
        reg.gauge_set("g", None, f64::NEG_INFINITY);
        assert!(reg.histogram("lat", None).is_none());
        assert_eq!(reg.gauge("g", None), None);
        assert_eq!(reg.counter("obs_nonfinite_samples_total", None), 3);
        let text = reg.prometheus();
        assert!(!text.contains("NaN") && !text.contains("inf{"), "{text}");
        let json = reg.to_json();
        assert!(
            !json.contains("NaN") && !json.contains("Infinity"),
            "{json}"
        );
    }

    #[test]
    fn json_dump_is_parseable_shape() {
        let reg = MetricsRegistry::new();
        reg.counter_add("a_total", None, 1);
        reg.gauge_set("g", Some(("k", "v")), 1.0);
        reg.observe("h", None, 3.0, &[10.0]);
        let json = reg.to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"a_total\":1"), "{json}");
        assert!(json.contains("\"g{k=\\\"v\\\"}\":1.0000"), "{json}");
        assert!(
            json.contains(
                "\"h\":{\"sum\":3.0000,\"count\":1,\"buckets\":[[\"10\",1],[\"inf\",0]]}"
            ),
            "{json}"
        );
        // Balanced braces (cheap well-formedness check; the serve crate's
        // real parser covers this end to end in its tests).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn global_registry_is_shared() {
        let a = metrics_arc();
        metrics().counter_add("obs_global_smoke_total", None, 1);
        assert!(a.counter("obs_global_smoke_total", None) >= 1);
    }

    #[test]
    fn threads_joined_one_after_another_retire_their_shards() {
        let reg = MetricsRegistry::new();
        let start = reg.live_shards();
        for t in 0..64u64 {
            std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        reg.counter_add("hits", None, 1);
                        reg.counter_add("hits", Some(("thread", "any")), t);
                        reg.observe("lat", None, t as f64, &[10.0, 100.0]);
                        assert_eq!(reg.live_shards(), start + 1);
                    })
                    .join()
                    .unwrap();
            });
            assert_eq!(reg.live_shards(), start, "thread {t} left its shard");
        }
        assert_eq!(reg.counter("hits", None), 64);
        assert_eq!(reg.counter("hits", Some(("thread", "any"))), 63 * 64 / 2);
        let h = reg.histogram("lat", None).unwrap();
        assert_eq!((h.counts, h.count), (vec![11, 53, 0], 64));
        assert_eq!(h.sum, (63 * 64 / 2) as f64);
    }

    #[test]
    fn a_reader_sees_monotone_counts_while_two_threads_record() {
        const EACH: u64 = 20_000;
        let reg = MetricsRegistry::new();
        let done = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let recorders: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        for _ in 0..EACH {
                            reg.counter_add("hits", Some(("class", "panic")), 1);
                            reg.observe("lat", None, 1.0, &[10.0]);
                        }
                        done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    })
                })
                .collect();
            scope.spawn(|| {
                let mut last = (0, 0);
                loop {
                    let finished = done.load(std::sync::atomic::Ordering::SeqCst) == 2;
                    let hits = reg.counter("hits", Some(("class", "panic")));
                    let samples = reg.histogram("lat", None).map_or(0, |h| h.count);
                    assert!(hits >= last.0 && samples >= last.1, "counts went back");
                    assert!(hits <= 2 * EACH && samples <= 2 * EACH);
                    last = (hits, samples);
                    if finished {
                        assert_eq!(last, (2 * EACH, 2 * EACH));
                        break;
                    }
                }
            });
            // Joined, not just ended with the scope: a join returns after
            // the thread's exit has retired its shard.
            for recorder in recorders {
                recorder.join().unwrap();
            }
        });
        assert_eq!(reg.counter("hits", Some(("class", "panic"))), 2 * EACH);
        assert!(reg
            .prometheus()
            .contains(&format!("hits{{class=\"panic\"}} {}\n", 2 * EACH)));
        assert_eq!(reg.live_shards(), 0);
    }

    #[test]
    fn a_registry_dropped_before_its_threads_exit_leaks_nothing() {
        let reg = MetricsRegistry::new();
        let core = Arc::downgrade(&reg.core);
        let (recorded_tx, recorded_rx) = std::sync::mpsc::channel();
        let (exit_tx, exit_rx) = std::sync::mpsc::channel::<()>();
        let registry = Arc::new(reg);
        let worker = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                registry.counter_add("hits", None, 1);
                drop(registry);
                recorded_tx.send(()).unwrap();
                exit_rx.recv().unwrap();
            })
        };
        recorded_rx.recv().unwrap();
        let shard = Arc::downgrade(&lock(&registry.core).live[0]);
        assert_eq!(registry.counter("hits", None), 1);
        drop(registry);
        assert!(core.upgrade().is_none(), "the registry outlived its owner");
        exit_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(
            shard.upgrade().is_none(),
            "the exited thread's shard leaked"
        );

        // A thread that outlives a registry drops its shard when it next
        // records into another one.
        let first = MetricsRegistry::new();
        first.counter_add("hits", None, 1);
        let shard = Arc::downgrade(&lock(&first.core).live[0]);
        drop(first);
        MetricsRegistry::new().counter_add("hits", None, 1);
        assert!(
            shard.upgrade().is_none(),
            "a dropped registry's shard leaked"
        );
    }

    #[test]
    fn histogram_bounds_are_fixed_by_the_first_observation_in_any_thread() {
        let reg = MetricsRegistry::new();
        std::thread::scope(|scope| {
            scope.spawn(|| reg.observe("lat", None, 5.0, &[10.0]));
        });
        std::thread::scope(|scope| {
            scope.spawn(|| {
                reg.observe("lat", None, 50.0, &[1.0, 2.0, 3.0]);
                // While this thread's shard is live, the fold agrees too.
                let h = reg.histogram("lat", None).unwrap();
                assert_eq!((h.bounds, h.counts), (vec![10.0], vec![1, 1]));
            });
        });
        reg.observe("lat", None, 7.0, SIM_MS_BUCKETS);
        let h = reg.histogram("lat", None).unwrap();
        assert_eq!(h.bounds, vec![10.0]);
        assert_eq!((h.counts, h.count, h.sum), (vec![2, 1], 3, 62.0));
        let text = reg.prometheus();
        assert!(text.contains("lat_bucket{le=\"10\"} 2\n"), "{text}");
        assert!(!text.contains("le=\"1\""), "{text}");
    }

    #[test]
    fn non_finite_samples_are_tallied_from_any_thread() {
        struct RecordOnExit(Arc<MetricsRegistry>);
        impl Drop for RecordOnExit {
            fn drop(&mut self) {
                self.0.observe("lat", None, f64::NAN, &[10.0]);
                self.0.counter_add("exits", None, 1);
            }
        }
        thread_local! {
            static ON_EXIT: RefCell<Option<RecordOnExit>> = const { RefCell::new(None) };
        }
        let reg = Arc::new(MetricsRegistry::new());
        for _ in 0..4 {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                // Set before the thread's first recording, so its shards
                // may be gone by the time this destructor records.
                ON_EXIT.with(|slot| *slot.borrow_mut() = Some(RecordOnExit(Arc::clone(&reg))));
                reg.observe("lat", None, f64::INFINITY, &[10.0]);
                reg.gauge_set("g", None, f64::NAN);
                reg.observe("lat", None, 1.0, &[10.0]);
            })
            .join()
            .unwrap();
        }
        assert_eq!(reg.counter("obs_nonfinite_samples_total", None), 12);
        assert_eq!(reg.counter("exits", None), 4);
        assert_eq!(reg.histogram("lat", None).unwrap().count, 4);
        assert_eq!(reg.gauge("g", None), None);
        assert_eq!(reg.live_shards(), 0);
        assert!(!reg.prometheus().contains("NaN"));
    }
}
