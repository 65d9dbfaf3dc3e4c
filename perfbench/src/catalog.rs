//! The metric catalogue: every metric the benchmark reports, with its unit,
//! the better direction, the layer it measures and the end-to-end metric
//! (and workload) it should move. `METRICS.md` is the prose form of this
//! table and `BENCHMARK.json` lists the same names.

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Crate (layer) the metric measures.
    pub layer: &'static str,
    /// What one value is a share or mean of.
    pub base: &'static str,
    /// The end-to-end metric and workload this metric should move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    base: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        layer,
        base,
        moves,
    }
}

use Better::{Higher, Lower};

const BATCH_TPUT: &str = "throughput_per_s on batch-cold and batch-warm; none on the daemon";
const COLD_TPUT: &str = "throughput_per_s and p50_ms on batch-cold; near zero on batch-warm";
const CACHE: &str =
    "throughput_per_s on batch-warm (hits) and batch-cold (misses); serve.repair_ms";
const LINT: &str = "throughput_per_s on batch-cold and batch-warm; serve.analyze_ms";
const LLM: &str = "throughput_per_s on batch-cold and batch-warm; serve.repair_ms";
const CORE: &str = "p50_ms and p99_ms on batch-cold and batch-warm";
const LANG: &str =
    "throughput_per_s on batch-cold and batch-warm; serve.repair_ms and serve.analyze_ms";
const KB: &str =
    "setup_s on batch-warm; serve.req_p99_ms (merges and compaction saves hold the KB lock)";
const SERVE: &str = "p50_ms and p99_ms on serve-mixed (run by hand, not gated)";
const OBS: &str = "none: tracing is off in every end-to-end run";
const LOADGEN: &str = "none: validity checks of a serve session";

/// End-to-end metrics: reported with `--trace 0` on every workload.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower, "benchmark", "median of the run's set-ups", "itself, on every workload"),
    m("throughput_per_s", "1/s", Higher, "end-to-end", "batch: cases per second of a sweep, upper quartile of the run's sweeps; serve: sustained requests per second, mean of the staircase probes", "itself"),
    m("p50_ms", "ms", Lower, "end-to-end", "batch: per-case wall time, median of each sweep, lower quartile of the sweeps; serve: per-request latency from its due time at the headline rate, median of each 1 s window, lower quartile of the windows", "itself"),
    m("p99_ms", "ms", Lower, "end-to-end", "as p50_ms, 99th percentile of each sweep or window", "itself"),
    m("sim_ms_per_case", "sim_ms", Lower, "end-to-end", "simulated (modelled) milliseconds per repaired case", "itself"),
    m("pass_rate", "ratio", Higher, "end-to-end", "repairs whose program passes the oracle", "itself"),
    m("exec_rate", "ratio", Higher, "end-to-end", "repairs whose outputs equal the gold outputs", "itself"),
    m("peak_rss_mb", "MB", Lower, "end-to-end", "VmHWM of the working process (bench for batch, daemon for serve)", "itself"),
];

/// Per-layer metrics: reported with `--trace 1` on every workload (zero
/// where the workload does not exercise the layer).
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    m("engine.batch_ms", "ms", Lower, "rb_engine", "median sweep", BATCH_TPUT),
    m("engine.job_ms_sum", "ms", Lower, "rb_engine", "sum of job wall times, median sweep", BATCH_TPUT),
    m("engine.utilization", "ratio", Higher, "rb_engine", "job_ms_sum / (workers x batch_ms)", BATCH_TPUT),
    m("engine.overhead_ms", "ms", Lower, "rb_engine", "batch_ms - job_ms_sum / workers", BATCH_TPUT),
    m("engine.imbalance", "ratio", Lower, "rb_engine", "max / min cases per worker", BATCH_TPUT),
    m("engine.steals", "count", Lower, "rb_engine", "jobs stolen per sweep", BATCH_TPUT),
    m("miri.executed", "count", Lower, "rb_miri", "interpreter runs per sweep (serve: per run)", COLD_TPUT),
    m("miri.prevetoed", "count", Higher, "rb_miri", "judgements resolved by the lint per sweep (serve: per run)", COLD_TPUT),
    m("miri.interp_us", "us", Lower, "rb_miri", "per run_program call on the replayed programs", COLD_TPUT),
    m("cache.lookups", "count", Lower, "rb_engine::cache", "cache lookups per sweep (serve: per run)", CACHE),
    m("cache.hit_ratio", "ratio", Higher, "rb_engine::cache", "hits / lookups", CACHE),
    m("cache.hit_us", "us", Lower, "rb_engine::cache", "per lookup on a warm cache", CACHE),
    m("cache.miss_us", "us", Lower, "rb_engine::cache", "per lookup on a cold cache (interpreter run + insert)", CACHE),
    m("cache.entries", "count", Lower, "rb_engine::cache", "entries after a sweep (not exported by the daemon)", CACHE),
    m("lint.calls", "count", Lower, "rb_lint", "triage + preflight analyses per sweep (serve: analyze requests)", LINT),
    m("lint.analyze_us", "us", Lower, "rb_lint", "per rb_lint::analyze call on the replayed programs", LINT),
    m("lint.veto_ratio", "ratio", Higher, "rb_lint", "prevetoed / preflight analyses", LINT),
    m("llm.propose_calls", "count", Lower, "rb_llm", "model calls per sweep", LLM),
    m("llm.propose_us", "us", Lower, "rb_llm", "per SimulatedModel::propose on (program, primary error)", LLM),
    m("llm.apply_us", "us", Lower, "rb_llm", "per RepairRule::apply", LLM),
    m("llm.apply_ratio", "ratio", Higher, "rb_llm", "applied / apply attempts", LLM),
    m("core.repair_p50_us", "us", Lower, "rustbrain", "per repair in the serial instrumented pass", CORE),
    m("core.repair_p99_us", "us", Lower, "rustbrain", "per repair in the serial instrumented pass", CORE),
    m("core.self_us", "us", Lower, "rustbrain", "per repair, minus the replayed layer costs", CORE),
    m("core.solutions_per_case", "count", Lower, "rustbrain", "solutions tried per case", CORE),
    m("core.oracle_runs_per_case", "count", Lower, "rustbrain", "budget-counted oracle runs per case", CORE),
    m("lang.parse_us", "us", Lower, "rb_lang", "per parse_program of a printed program", LANG),
    m("lang.print_us", "us", Lower, "rb_lang", "per print_program", LANG),
    m("lang.prune_embed_us", "us", Lower, "rb_lang", "per prune_program + AstVector::embed", LANG),
    m("kb.entries", "count", Lower, "rb_kb", "entries of the learned base", KB),
    m("kb.query_us", "us", Lower, "rustbrain::knowledge", "per KnowledgeBase::query (k = 2)", KB),
    m("kb.merge_ms", "ms", Lower, "rustbrain::knowledge", "per merge_all of a sweep's deltas (serve: learned entries)", KB),
    m("kb.save_ms", "ms", Lower, "rb_kb", "per save_reported to a .rbkb.d store, median of 5", KB),
    m("kb.load_ms", "ms", Lower, "rb_kb", "per load of that store, median of 5", KB),
    m("kb.store_bytes", "bytes", Lower, "rb_kb", "bytes on disk of that store", KB),
    m("serve.repair_ms", "ms", Lower, "rb_serve", "client-side send-to-response, median, headline rate", SERVE),
    m("serve.analyze_ms", "ms", Lower, "rb_serve", "client-side send-to-response, median, headline rate", SERVE),
    m("serve.stats_ms", "ms", Lower, "rb_serve", "client-side send-to-response, median, headline rate", SERVE),
    m("serve.json_us", "us", Lower, "rb_serve", "per rb_serve::json::parse of a sent request line", SERVE),
    m("serve.compactions", "count", Lower, "rb_serve", "compactions the daemon ran during the run", SERVE),
    m("serve.req_p99_ms", "ms", Lower, "rb_serve", "latency from due time, 99th percentile pooled over the headline phase", SERVE),
    m("obs.trace_overhead", "ratio", Lower, "rb_obs", "traced / untraced wall time - 1 on the same work", OBS),
    m("obs.spans", "count", Lower, "rb_obs", "spans one traced pass emitted", OBS),
    m("loadgen.offered_rps", "1/s", Higher, "benchmark", "headline offered rate", LOADGEN),
    m("loadgen.achieved_rps", "1/s", Higher, "benchmark", "responses / headline phase seconds", LOADGEN),
    m("loadgen.late_p99_ms", "ms", Lower, "benchmark", "send time - due time, 99th percentile", LOADGEN),
    m("loadgen.backlog_max", "count", Lower, "benchmark", "most requests in flight on one connection", LOADGEN),
];
