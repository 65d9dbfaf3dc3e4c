//! A process-wide metrics registry: counters, gauges and fixed-bucket
//! histograms, with Prometheus-style text exposition and a JSON dump.
//!
//! Every metric is keyed by a name plus at most one label pair (enough
//! for the stack's `{class=...}` / `{verb=...}` breakdowns without an
//! allocation-happy label map). The process-global registry is reached
//! through [`metrics`]; components that need hermetic counts (the serve
//! daemon's per-server stats) construct their own [`MetricsRegistry`].
//!
//! Histograms use fixed, caller-supplied bucket bounds so merging and
//! exposition never resample: [`SIM_MS_BUCKETS`] for simulated repair
//! latencies, [`REAL_US_BUCKETS`] for wall-clock microseconds. Non-finite
//! observations never reach an exposition — they are dropped and tallied
//! under the `obs_nonfinite_samples_total` counter instead.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

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

    fn labels_of(&self, name: &str) -> impl Iterator<Item = &Label> {
        self.by_name.get(name).into_iter().flatten().map(|(l, _)| l)
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
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

#[derive(Default)]
struct Inner {
    counters: Series<u64>,
    gauges: Series<f64>,
    histograms: Series<Histo>,
}

/// A registry of counters, gauges and histograms. Thread-safe; cheap to
/// share behind an [`Arc`].
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
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

fn series_name(name: &str, label: &Label) -> String {
    match label {
        None => name.to_owned(),
        Some((k, v)) => format!("{name}{{{k}=\"{v}\"}}"),
    }
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Observability must not take the process down on a panic
        // elsewhere; a poisoned registry keeps counting.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `delta` to a counter (created at zero on first touch).
    pub fn counter_add(&self, name: &str, label: Option<(&str, &str)>, delta: u64) {
        *self.lock().counters.entry(name, label, || 0) += delta;
    }

    /// Reads a counter (zero if never touched).
    #[must_use]
    pub fn counter(&self, name: &str, label: Option<(&str, &str)>) -> u64 {
        self.lock().counters.get(name, label).copied().unwrap_or(0)
    }

    /// Sets a gauge to `value` (non-finite values are dropped).
    pub fn gauge_set(&self, name: &str, label: Option<(&str, &str)>, value: f64) {
        if !value.is_finite() {
            self.counter_add("obs_nonfinite_samples_total", None, 1);
            return;
        }
        *self.lock().gauges.entry(name, label, || value) = value;
    }

    /// Reads a gauge, if it was ever set.
    #[must_use]
    pub fn gauge(&self, name: &str, label: Option<(&str, &str)>) -> Option<f64> {
        self.lock().gauges.get(name, label).copied()
    }

    /// Observes `value` into a fixed-bucket histogram. The first
    /// observation fixes the bucket bounds; later `bounds` arguments for
    /// the same series are ignored. Non-finite values are dropped and
    /// tallied under `obs_nonfinite_samples_total`.
    pub fn observe(&self, name: &str, label: Option<(&str, &str)>, value: f64, bounds: &[f64]) {
        if !value.is_finite() {
            self.counter_add("obs_nonfinite_samples_total", None, 1);
            return;
        }
        let mut inner = self.lock();
        let h = inner.histograms.entry(name, label, || Histo {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        });
        let idx = h
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(h.bounds.len());
        h.counts[idx] += 1;
        h.sum += value;
        h.count += 1;
    }

    /// Snapshot of one histogram series, if it has any observations.
    #[must_use]
    pub fn histogram(&self, name: &str, label: Option<(&str, &str)>) -> Option<HistogramSnapshot> {
        self.lock()
            .histograms
            .get(name, label)
            .map(|h| HistogramSnapshot {
                bounds: h.bounds.clone(),
                counts: h.counts.clone(),
                sum: h.sum,
                count: h.count,
            })
    }

    /// The label values seen for `name` across all metric kinds — e.g.
    /// the UB classes a repair-latency histogram has touched.
    #[must_use]
    pub fn label_values(&self, name: &str) -> Vec<String> {
        let inner = self.lock();
        let mut out: Vec<String> = inner
            .counters
            .labels_of(name)
            .chain(inner.gauges.labels_of(name))
            .chain(inner.histograms.labels_of(name))
            .filter_map(|l| l.as_ref().map(|(_, v)| v.clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Prometheus-style text exposition: counters and gauges as single
    /// sample lines, histograms as cumulative `_bucket{le=...}` series
    /// plus `_sum` and `_count`. Deterministic ordering (sorted by
    /// series key).
    #[must_use]
    pub fn prometheus(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for (name, label, v) in inner.counters.iter() {
            out.push_str(&format!("{} {v}\n", series_name(name, label)));
        }
        for (name, label, v) in inner.gauges.iter() {
            out.push_str(&format!("{} {}\n", series_name(name, label), fmt_num(*v)));
        }
        for (name, label, h) in inner.histograms.iter() {
            let mut cumulative = 0u64;
            for (i, bound) in h.bounds.iter().enumerate() {
                cumulative += h.counts[i];
                let series = match label {
                    None => format!("{name}_bucket{{le=\"{}\"}}", fmt_bound(*bound)),
                    Some((k, v)) => {
                        format!("{name}_bucket{{{k}=\"{v}\",le=\"{}\"}}", fmt_bound(*bound))
                    }
                };
                out.push_str(&format!("{series} {cumulative}\n"));
            }
            let series = match label {
                None => format!("{name}_bucket{{le=\"+Inf\"}}"),
                Some((k, v)) => format!("{name}_bucket{{{k}=\"{v}\",le=\"+Inf\"}}"),
            };
            out.push_str(&format!("{series} {}\n", h.count));
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
        let inner = self.lock();
        let mut out = String::from("{\"counters\":{");
        for (i, (name, label, v)) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fmt_str(&series_name(name, label)));
            out.push(':');
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, label, v)) in inner.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&fmt_str(&series_name(name, label)));
            out.push(':');
            out.push_str(&fmt_num(*v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, label, h)) in inner.histograms.iter().enumerate() {
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
        let inner = self.lock();
        inner.counters.is_empty() && inner.gauges.is_empty() && inner.histograms.is_empty()
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
        assert_eq!(reg.label_values("hits"), vec!["alloc", "panic"]);
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
        assert_eq!(reg.label_values("lat"), vec!["alloc".to_owned()]);
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
}
