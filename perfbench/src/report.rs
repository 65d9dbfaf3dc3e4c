//! What one run reports, and the small statistics it is computed with.

use std::collections::BTreeMap;
use std::time::Instant;

/// One metric reading: its value and how many samples or calls it rests on.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    pub count: u64,
}

/// The outcome of one run: operations attempted and failed, the metric
/// readings, and facts about the traffic printed beside them.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Reading>,
    pub facts: Vec<String>,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, count: usize) {
        self.metrics.insert(
            name,
            Reading {
                value,
                count: count as u64,
            },
        );
    }

    pub fn fact(&mut self, text: impl Into<String>) {
        self.facts.push(text.into());
    }

    /// Takes over the operations, facts and failures of `other`, and its
    /// readings of the metrics whose names start with one of `prefixes`.
    pub fn adopt(&mut self, other: Report, prefixes: &[&str]) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, reading) in other.metrics {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.metrics.insert(name, reading);
            }
        }
        self.facts.extend(other.facts);
        self.failures.extend(other.failures);
    }

    /// Counts `n` failed operations; the first few reasons are kept for
    /// the printed summary.
    pub fn fail(&mut self, n: u64, why: impl Into<String>) {
        self.failed += n;
        if self.failures.len() < 8 {
            self.failures.push(why.into());
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile (`q` in 0..=1); 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Which way a timing reading improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Faster {
    /// A rate: higher is faster.
    Higher,
    /// A latency: lower is faster.
    Lower,
}

/// The quartile on the fast side of per-window timing readings: the upper
/// quartile of rates, the lower quartile of latencies. A busy host only
/// ever slows a window down, and on a shared machine it does so for whole
/// seconds at a time; the fast quartile follows the program and not its
/// neighbours, where a median still moves with them.
pub fn fast_quartile(values: &[f64], faster: Faster) -> f64 {
    match faster {
        Faster::Higher => quantile(values, 0.75),
        Faster::Lower => quantile(values, 0.25),
    }
}

/// The middle value (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Mean wall microseconds of `f` over `items` (0 for no items).
pub fn us_per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    for item in items {
        f(item);
    }
    started.elapsed().as_secs_f64() * 1e6 / items.len() as f64
}

/// Peak resident set (VmHWM) of a process in MB: this process for
/// `None`, else the process with that pid.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        None => "/proc/self/status".to_owned(),
        Some(pid) => format!("/proc/{pid}/status"),
    };
    let status = std::fs::read_to_string(path).unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
