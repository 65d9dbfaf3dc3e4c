//! `rustbrain` — command-line UB detection and repair.
//!
//! ```text
//! USAGE:
//!   rustbrain check  <file.mrs>                 run the UB oracle only
//!   rustbrain analyze <file.mrs|--corpus>       UB lint (`rb_lint`): the
//!                                               oracle's findings with class,
//!                                               rule and path; `--corpus`
//!                                               sweeps the seed corpus (gold
//!                                               findings per class +
//!                                               repair-rule audit)
//!   rustbrain repair <file.mrs> [options]       detect and repair
//!   rustbrain demo                              repair a built-in example
//!   rustbrain corpus <dir> [--seed N]           export the benchmark corpus
//!   rustbrain batch [options]                   sweep the corpus on the
//!                                               parallel batch engine
//!   rustbrain kb inspect <store>                print a knowledge store's
//!                                               entry/weight/class histograms
//!                                               (and per-shard sizes for a
//!                                               sharded store)
//!   rustbrain kb migrate <src> <dst>            copy a store between layouts
//!                                               (`x.rbkb` file ⇄ `x.rbkb.d/`
//!                                               shard directory)
//!   rustbrain kb compact <store> [--threshold]  re-normalize under the
//!                                               tightened coalescing
//!                                               threshold, atomic swap-in
//!   rustbrain serve [options]                   run the resident repair
//!                                               daemon (line-delimited JSON
//!                                               over TCP, KB loaded at
//!                                               start, timed compaction)
//!   rustbrain client <verb> [options]           send one request to a
//!                                               daemon: repair <file.mrs>,
//!                                               batch, analyze <file.mrs>,
//!                                               stats, metrics, compact,
//!                                               or shutdown
//!   rustbrain trace <verb> ...                  analyze a JSONL span trace:
//!                                               check <t> (re-validate the
//!                                               tracer's invariants),
//!                                               summarize <t>, flamegraph <t>,
//!                                               critical-path <t>,
//!                                               diff <a> <b>
//!
//! OPTIONS:
//!   --model <gpt-3.5|gpt-4|gpt-o1|claude-3.5>   backing model   [gpt-4]
//!   --temperature <0.0..1.0>                    sampling temp   [0.5]
//!   --seed <u64>                                RNG seed        [42]
//!   --no-knowledge                              disable the knowledge base
//!   --reference <out1,out2,...>                 expected outputs for the
//!                                               acceptability judgement
//!   --jobs <N>                                  batch worker threads
//!                                               [available cores]
//!   --per-class <N>                             batch cases per UB class [3]
//!   --system <rustbrain|llm-only|rust-assistant>  batch system [rustbrain]
//!   --stats-out <file>                          write batch EngineStats JSON
//!   --results-out <file>                        write deterministic per-case
//!                                               results JSON (telemetry-free)
//!   --trace-out <file>                          batch/serve: write a
//!                                               structured JSONL span trace
//!                                               (observational only)
//!   --no-cache                                  judge through the direct
//!                                               oracle, bypassing the cache
//!   --cache-cap <N>                             bound the oracle cache to N
//!                                               entries, rounded up to one
//!                                               per shard (clock eviction)
//!   --kb-in <store>                             batch: start from a saved
//!                                               knowledge store (warm start;
//!                                               either layout)
//!   --kb-out <store>                            batch: save the merged
//!                                               knowledge store afterwards
//!                                               (`.rbkb.d` paths shard by
//!                                               UB class, dirty shards only)
//!   --threshold <0.0..1.0>                      kb compact: cosine threshold
//!                                               for coalescing [0.98]
//! ```
//!
//! `.mrs` files contain mini-Rust source (see `rb-lang`'s grammar); the
//! `demo` subcommand needs no file.
//!
//! Every command judges programs through the [`rb_miri::Oracle`] seam: by
//! default the process-wide verdict cache (`rb_engine::CachedOracle`),
//! with `--no-cache` the direct interpreter — the results are
//! byte-identical either way (CI diffs the two `--results-out` files).

use rb_engine::{results_to_json, CachedOracle, Engine, OracleCache, SystemSpec};
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_llm::ModelId;
use rb_miri::{DirectOracle, Oracle};
use rb_obs::json::{self, fmt_str};
use rustbrain::{RustBrain, RustBrainConfig};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

/// Writes `args` to standard output. A reader that closed the pipe early
/// (`rustbrain demo | head -1`) ends the process quietly with status 0,
/// as a filter's upstream should; any other write failure ends it with a
/// message and status 1. Never a panic: every line the CLI prints goes
/// through here, by way of `out!` and `outln!`.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing to stdout: {e}");
        std::process::exit(1);
    }
}

/// `print!` through `write_stdout`.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through `write_stdout`.
macro_rules! outln {
    () => {
        write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Cli {
    command: Command,
    model: ModelId,
    temperature: f64,
    seed: u64,
    use_knowledge: bool,
    reference: Vec<String>,
    jobs: usize,
    per_class: usize,
    system: BatchSystem,
    stats_out: Option<String>,
    results_out: Option<String>,
    use_cache: bool,
    cache_cap: Option<usize>,
    kb_in: Option<String>,
    kb_out: Option<String>,
    /// `Some` only when `--threshold` was passed explicitly (so passing
    /// the default value on the wrong subcommand still errors).
    threshold: Option<f64>,
    /// `Some` only when `--addr` was passed explicitly (serve/client
    /// only; both default to [`DEFAULT_ADDR`]).
    addr: Option<String>,
    /// `serve`: knowledge store to load at start and persist back to.
    kb: Option<String>,
    /// `serve`: compact after this many seconds since the last
    /// compaction (0 = time trigger off).
    compact_secs: u64,
    /// `client batch`: restrict the sweep to these UB classes.
    classes: Option<Vec<rb_miri::UbClass>>,
    /// `batch`/`serve`: write a structured JSONL span trace here.
    trace_out: Option<String>,
    /// `trace flamegraph`: emit collapsed-stack lines instead of the
    /// text table.
    collapsed: bool,
    /// `trace flamegraph`/`trace diff`: rows to print (0 = all).
    /// `Some` only when `--top` was passed explicitly.
    top: Option<usize>,
    /// `trace check`: required child-sim coverage of repair spans.
    /// `Some` only when `--coverage` was passed explicitly.
    coverage: Option<f64>,
    /// `trace check`: span names that must appear in the trace.
    require: Option<Vec<String>>,
    /// `trace flamegraph --collapsed`: which measure to charge.
    measure: Option<rb_obs::analyze::Measure>,
    /// `analyze`: emit JSON instead of the text report.
    json: bool,
}

/// Where `serve` listens and `client` connects unless `--addr` says
/// otherwise.
const DEFAULT_ADDR: &str = "127.0.0.1:4650";

/// How the oracle cache flags resolve — the single place the
/// `--no-cache`/`--cache-cap` policy is interpreted, so `check`/`repair`
/// (via [`Cli::oracle`]) and `batch` (via [`CacheMode::engine`]) can
/// never drift apart.
#[derive(Clone, Copy, Debug, PartialEq)]
enum CacheMode {
    /// `--no-cache`: every judgement runs the interpreter.
    Direct,
    /// `--cache-cap N`: a private cache bounded to ~N entries.
    Bounded(usize),
    /// Default: the process-wide shared cache.
    Global,
}

impl CacheMode {
    /// Banner label for the batch header.
    fn label(self) -> String {
        match self {
            CacheMode::Direct => "direct".to_owned(),
            CacheMode::Bounded(cap) => format!("cached (cap {cap})"),
            CacheMode::Global => "cached (process-wide)".to_owned(),
        }
    }

    /// The batch engine for this mode.
    fn engine(self, jobs: usize) -> Engine {
        match self {
            CacheMode::Direct => Engine::direct(jobs),
            CacheMode::Bounded(cap) => {
                Engine::with_cache(jobs, Arc::new(OracleCache::bounded(cap)))
            }
            CacheMode::Global => Engine::with_global_cache(jobs),
        }
    }
}

impl Cli {
    /// Resolves the cache flags to their canonical mode.
    fn cache_mode(&self) -> CacheMode {
        match (self.use_cache, self.cache_cap) {
            (false, _) => CacheMode::Direct,
            (true, Some(cap)) => CacheMode::Bounded(cap),
            (true, None) => CacheMode::Global,
        }
    }

    /// The oracle `check` and `repair` judge through.
    fn oracle(&self) -> Arc<dyn Oracle> {
        match self.cache_mode() {
            CacheMode::Direct => Arc::new(DirectOracle),
            CacheMode::Bounded(cap) => {
                Arc::new(CachedOracle::new(Arc::new(OracleCache::bounded(cap))))
            }
            CacheMode::Global => Arc::new(CachedOracle::global()),
        }
    }
}

#[derive(Debug, PartialEq)]
enum Command {
    Check(String),
    Analyze(AnalyzeTarget),
    Repair(String),
    Demo,
    Corpus(String),
    Batch,
    KbInspect(String),
    KbMigrate(String, String),
    KbCompact(String),
    Serve,
    Client(ClientVerb),
    Trace(TraceVerb),
    Help,
}

/// What `rustbrain analyze` lints.
#[derive(Debug, PartialEq)]
enum AnalyzeTarget {
    /// One `.mrs` file.
    File(String),
    /// The generated seed corpus: per-class oracle-agreement table, the
    /// zero-false-positive gate over gold programs, and the repair-rule
    /// audit (which library rules produce edits that still trip the lint
    /// they target).
    Corpus,
}

/// Which trace analysis `rustbrain trace` runs.
#[derive(Debug, PartialEq)]
enum TraceVerb {
    /// Re-validate the tracer's structural invariants (the CI gate).
    Check(String),
    /// Check report + top flamegraph paths + critical path.
    Summarize(String),
    /// Inclusive/self cost by span path and class.
    Flamegraph(String),
    /// Per-worker lanes and the speedup bound they imply.
    CriticalPath(String),
    /// Per-path deltas between two traces (baseline, candidate).
    Diff(String, String),
}

/// Which daemon verb `rustbrain client` sends.
#[derive(Debug, PartialEq)]
enum ClientVerb {
    /// Repair a local `.mrs` file over the socket.
    Repair(String),
    /// Statically lint a local `.mrs` file over the socket.
    Analyze(String),
    Batch,
    Stats,
    Metrics,
    Compact,
    Shutdown,
}

/// Which system a `batch` sweep drives.
#[derive(Clone, Copy, Debug, PartialEq)]
enum BatchSystem {
    Brain,
    LlmOnly,
    RustAssistant,
}

fn parse_system(s: &str) -> Result<BatchSystem, String> {
    match s.to_ascii_lowercase().as_str() {
        "rustbrain" | "brain" => Ok(BatchSystem::Brain),
        "llm-only" | "llm" => Ok(BatchSystem::LlmOnly),
        "rust-assistant" | "assistant" => Ok(BatchSystem::RustAssistant),
        other => Err(format!("unknown system `{other}`")),
    }
}

fn parse_model(s: &str) -> Result<ModelId, String> {
    match s.to_ascii_lowercase().as_str() {
        "gpt-3.5" | "gpt35" => Ok(ModelId::Gpt35),
        "gpt-4" | "gpt4" => Ok(ModelId::Gpt4),
        "gpt-o1" | "o1" => Ok(ModelId::GptO1),
        "claude-3.5" | "claude" => Ok(ModelId::Claude35),
        other => Err(format!("unknown model `{other}`")),
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: Command::Help,
        model: ModelId::Gpt4,
        temperature: 0.5,
        seed: 42,
        use_knowledge: true,
        reference: Vec::new(),
        jobs: std::thread::available_parallelism().map_or(1, usize::from),
        per_class: 3,
        system: BatchSystem::Brain,
        stats_out: None,
        results_out: None,
        use_cache: true,
        cache_cap: None,
        kb_in: None,
        kb_out: None,
        threshold: None,
        addr: None,
        kb: None,
        compact_secs: 0,
        classes: None,
        trace_out: None,
        collapsed: false,
        top: None,
        coverage: None,
        require: None,
        measure: None,
        json: false,
    };
    let mut it = args.iter().peekable();
    match it.next().map(String::as_str) {
        Some("check") => {
            let file = it.next().ok_or("`check` needs a file argument")?;
            cli.command = Command::Check(file.clone());
        }
        Some("analyze") => {
            let target = match it.peek().map(|s| s.as_str()) {
                Some("--corpus") => {
                    it.next();
                    AnalyzeTarget::Corpus
                }
                Some(s) if !s.starts_with("--") => {
                    let file = it.next().expect("peeked");
                    AnalyzeTarget::File(file.clone())
                }
                _ => return Err("`analyze` needs a file argument or --corpus".into()),
            };
            cli.command = Command::Analyze(target);
        }
        Some("repair") => {
            let file = it.next().ok_or("`repair` needs a file argument")?;
            cli.command = Command::Repair(file.clone());
        }
        Some("demo") => cli.command = Command::Demo,
        Some("batch") => cli.command = Command::Batch,
        Some("kb") => match it.next().map(String::as_str) {
            Some("inspect") => {
                let file = it.next().ok_or("`kb inspect` needs a store argument")?;
                cli.command = Command::KbInspect(file.clone());
            }
            Some("migrate") => {
                let src = it.next().ok_or("`kb migrate` needs <src> and <dst>")?;
                let dst = it.next().ok_or("`kb migrate` needs <src> and <dst>")?;
                cli.command = Command::KbMigrate(src.clone(), dst.clone());
            }
            Some("compact") => {
                let file = it.next().ok_or("`kb compact` needs a store argument")?;
                cli.command = Command::KbCompact(file.clone());
            }
            Some(other) => return Err(format!("unknown kb subcommand `{other}`")),
            None => return Err("`kb` needs a subcommand (try `kb inspect <store>`)".into()),
        },
        Some("corpus") => {
            let dir = it.next().ok_or("`corpus` needs a directory argument")?;
            cli.command = Command::Corpus(dir.clone());
        }
        Some("serve") => cli.command = Command::Serve,
        Some("trace") => {
            let verb = match it.next().map(String::as_str) {
                Some("check") => {
                    let t = it.next().ok_or("`trace check` needs a trace file")?;
                    TraceVerb::Check(t.clone())
                }
                Some("summarize") => {
                    let t = it.next().ok_or("`trace summarize` needs a trace file")?;
                    TraceVerb::Summarize(t.clone())
                }
                Some("flamegraph") => {
                    let t = it.next().ok_or("`trace flamegraph` needs a trace file")?;
                    TraceVerb::Flamegraph(t.clone())
                }
                Some("critical-path") => {
                    let t = it
                        .next()
                        .ok_or("`trace critical-path` needs a trace file")?;
                    TraceVerb::CriticalPath(t.clone())
                }
                Some("diff") => {
                    let a = it
                        .next()
                        .ok_or("`trace diff` needs <baseline> and <candidate>")?;
                    let b = it
                        .next()
                        .ok_or("`trace diff` needs <baseline> and <candidate>")?;
                    TraceVerb::Diff(a.clone(), b.clone())
                }
                Some(other) => return Err(format!("unknown trace verb `{other}`")),
                None => {
                    return Err(
                        "`trace` needs a verb (check|summarize|flamegraph|critical-path|diff)"
                            .into(),
                    )
                }
            };
            cli.command = Command::Trace(verb);
        }
        Some("client") => {
            let verb = match it.next().map(String::as_str) {
                Some("repair") => {
                    let file = it.next().ok_or("`client repair` needs a file argument")?;
                    ClientVerb::Repair(file.clone())
                }
                Some("analyze") => {
                    let file = it.next().ok_or("`client analyze` needs a file argument")?;
                    ClientVerb::Analyze(file.clone())
                }
                Some("batch") => ClientVerb::Batch,
                Some("stats") => ClientVerb::Stats,
                Some("metrics") => ClientVerb::Metrics,
                Some("compact") => ClientVerb::Compact,
                Some("shutdown") => ClientVerb::Shutdown,
                Some(other) => return Err(format!("unknown client verb `{other}`")),
                None => return Err(
                    "`client` needs a verb (repair|batch|analyze|stats|metrics|compact|shutdown)"
                        .into(),
                ),
            };
            cli.command = Command::Client(verb);
        }
        Some("help" | "--help" | "-h") | None => cli.command = Command::Help,
        Some(other) => return Err(format!("unknown command `{other}`")),
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--model" => {
                let v = it.next().ok_or("--model needs a value")?;
                cli.model = parse_model(v)?;
            }
            "--temperature" => {
                let v = it.next().ok_or("--temperature needs a value")?;
                cli.temperature = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad temperature `{v}`"))?;
                if !(0.0..=1.0).contains(&cli.temperature) {
                    return Err("temperature must be in [0, 1]".into());
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cli.seed = v.parse::<u64>().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--no-knowledge" => cli.use_knowledge = false,
            "--reference" => {
                let v = it.next().ok_or("--reference needs a value")?;
                cli.reference = v.split(',').map(str::to_owned).collect();
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                cli.jobs = v
                    .parse::<usize>()
                    .map_err(|_| format!("bad --jobs `{v}`"))?;
                if cli.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--per-class" => {
                let v = it.next().ok_or("--per-class needs a value")?;
                cli.per_class = v
                    .parse::<usize>()
                    .map_err(|_| format!("bad --per-class `{v}`"))?;
                if cli.per_class == 0 {
                    return Err("--per-class must be at least 1".into());
                }
            }
            "--system" => {
                let v = it.next().ok_or("--system needs a value")?;
                cli.system = parse_system(v)?;
            }
            "--stats-out" => {
                let v = it.next().ok_or("--stats-out needs a value")?;
                cli.stats_out = Some(v.clone());
            }
            "--results-out" => {
                let v = it.next().ok_or("--results-out needs a value")?;
                cli.results_out = Some(v.clone());
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a value")?;
                cli.trace_out = Some(v.clone());
            }
            "--collapsed" => cli.collapsed = true,
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                cli.top = Some(v.parse::<usize>().map_err(|_| format!("bad --top `{v}`"))?);
            }
            "--coverage" => {
                let v = it.next().ok_or("--coverage needs a value")?;
                let c = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --coverage `{v}`"))?;
                if !(0.0..=1.0).contains(&c) {
                    return Err("--coverage must be in [0, 1]".into());
                }
                cli.coverage = Some(c);
            }
            "--require" => {
                let v = it.next().ok_or("--require needs a value")?;
                let names: Vec<String> = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_owned)
                    .collect();
                if names.is_empty() {
                    return Err("--require must name at least one span kind".into());
                }
                cli.require = Some(names);
            }
            "--measure" => {
                let v = it.next().ok_or("--measure needs a value")?;
                cli.measure = Some(
                    rb_obs::analyze::Measure::parse(v)
                        .ok_or_else(|| format!("unknown --measure `{v}` (sim|wall)"))?,
                );
            }
            "--json" => cli.json = true,
            "--no-cache" => cli.use_cache = false,
            "--cache-cap" => {
                let v = it.next().ok_or("--cache-cap needs a value")?;
                let cap = v
                    .parse::<usize>()
                    .map_err(|_| format!("bad --cache-cap `{v}`"))?;
                if cap == 0 {
                    return Err("--cache-cap must be at least 1".into());
                }
                cli.cache_cap = Some(cap);
            }
            "--kb-in" => {
                let v = it.next().ok_or("--kb-in needs a value")?;
                cli.kb_in = Some(v.clone());
            }
            "--kb-out" => {
                let v = it.next().ok_or("--kb-out needs a value")?;
                cli.kb_out = Some(v.clone());
            }
            "--threshold" => {
                let v = it.next().ok_or("--threshold needs a value")?;
                let t = v
                    .parse::<f64>()
                    .map_err(|_| format!("bad --threshold `{v}`"))?;
                if !(0.0..=1.0).contains(&t) {
                    return Err("--threshold must be in [0, 1]".into());
                }
                cli.threshold = Some(t);
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs a value")?;
                cli.addr = Some(v.clone());
            }
            "--kb" => {
                let v = it.next().ok_or("--kb needs a value")?;
                cli.kb = Some(v.clone());
            }
            "--compact-secs" => {
                let v = it.next().ok_or("--compact-secs needs a value")?;
                cli.compact_secs = v
                    .parse::<u64>()
                    .map_err(|_| format!("bad --compact-secs `{v}`"))?;
            }
            "--classes" => {
                let v = it.next().ok_or("--classes needs a value")?;
                let mut classes = Vec::new();
                for label in v.split(',') {
                    let class = rb_serve::protocol::class_from_label(label)
                        .ok_or_else(|| format!("unknown UB class `{label}`"))?;
                    if !classes.contains(&class) {
                        classes.push(class);
                    }
                }
                if classes.is_empty() {
                    return Err("--classes must name at least one class".into());
                }
                cli.classes = Some(classes);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !cli.use_cache && cli.cache_cap.is_some() {
        return Err("--cache-cap conflicts with --no-cache".into());
    }
    if cli.json && !matches!(cli.command, Command::Analyze(_)) {
        return Err("--json only applies to `analyze`".into());
    }
    if (cli.kb_in.is_some() || cli.kb_out.is_some()) && cli.command != Command::Batch {
        return Err("--kb-in/--kb-out only apply to `batch`".into());
    }
    if cli.threshold.is_some() && !matches!(cli.command, Command::KbCompact(_)) {
        return Err("--threshold only applies to `kb compact`".into());
    }
    if cli.addr.is_some() && !matches!(cli.command, Command::Serve | Command::Client(_)) {
        return Err("--addr only applies to `serve` and `client`".into());
    }
    if (cli.kb.is_some() || cli.compact_secs > 0) && cli.command != Command::Serve {
        return Err("--kb/--compact-secs only apply to `serve`".into());
    }
    if cli.classes.is_some() && !matches!(cli.command, Command::Client(ClientVerb::Batch)) {
        return Err("--classes only applies to `client batch`".into());
    }
    if cli.trace_out.is_some() && !matches!(cli.command, Command::Batch | Command::Serve) {
        return Err("--trace-out only applies to `batch` and `serve`".into());
    }
    if (cli.coverage.is_some() || cli.require.is_some())
        && !matches!(cli.command, Command::Trace(TraceVerb::Check(_)))
    {
        return Err("--coverage/--require only apply to `trace check`".into());
    }
    if (cli.collapsed || cli.measure.is_some())
        && !matches!(cli.command, Command::Trace(TraceVerb::Flamegraph(_)))
    {
        return Err("--collapsed/--measure only apply to `trace flamegraph`".into());
    }
    if cli.top.is_some()
        && !matches!(
            cli.command,
            Command::Trace(TraceVerb::Flamegraph(_) | TraceVerb::Diff(_, _))
        )
    {
        return Err("--top only applies to `trace flamegraph` and `trace diff`".into());
    }
    Ok(cli)
}

const DEMO: &str = "fn main() {
    let q: *const i32 = 0 as *const i32;
    { let x: i32 = 5; q = &raw const x; }
    unsafe { print(*q); }
}";

fn usage() -> &'static str {
    "rustbrain — LLM-driven undefined-behaviour repair (DAC'25 reproduction)

USAGE:
  rustbrain check  <file.mrs>               run the UB oracle only
  rustbrain analyze <file.mrs|--corpus>     UB lint (rb_lint): the oracle's
                                            findings with class, rule and
                                            path; --corpus sweeps the seed
                                            corpus (per-class cases, the
                                            zero-findings gate over gold
                                            programs, and the repair-rule
                                            audit)
  rustbrain repair <file.mrs> [options]     detect and repair
  rustbrain demo                            repair a built-in example
  rustbrain corpus <dir> [--seed N]         export the benchmark corpus
  rustbrain batch [options]                 sweep the corpus on the
                                            parallel batch engine
  rustbrain kb inspect <store>              print a knowledge store's
                                            entry/weight/class histograms
                                            (plus per-shard sizes when sharded)
  rustbrain kb migrate <src> <dst>          copy a store between layouts
                                            (x.rbkb file <-> x.rbkb.d/ shards)
  rustbrain kb compact <store> [--threshold T]
                                            re-normalize a store (either
                                            layout) under a tightened
                                            coalescing threshold
  rustbrain serve [options]                 run the resident repair daemon
                                            (line-delimited JSON over TCP)
  rustbrain client <verb> [options]         send one request to a daemon:
                                            repair <file.mrs> | batch |
                                            analyze <file.mrs> | stats |
                                            metrics | compact | shutdown
  rustbrain trace check <t.jsonl>           re-validate a span trace's
                                            invariants (nesting, unique ids,
                                            >=95% repair-overhead coverage)
  rustbrain trace summarize <t.jsonl>       check report + top paths +
                                            critical path, one shot (exits
                                            1 on a violation, like check)
  rustbrain trace flamegraph <t.jsonl>      inclusive/self sim-ms and wall-us
                                            by span path and by class
  rustbrain trace critical-path <t.jsonl>   per-worker engine.job lanes and
                                            the max-speedup bound
  rustbrain trace diff <a.jsonl> <b.jsonl>  per-path cost deltas, sorted by
                                            regression magnitude

OPTIONS:
  --model <gpt-3.5|gpt-4|gpt-o1|claude-3.5>  backing model   [gpt-4]
  --temperature <0.0..1.0>                   sampling temp   [0.5]
  --seed <u64>                               RNG seed        [42]
  --no-knowledge                             disable the knowledge base
  --reference <out1,out2,...>                expected outputs
  --jobs <N>                                 batch worker threads [cores]
  --per-class <N>                            batch cases per UB class [3]
  --system <rustbrain|llm-only|rust-assistant>  batch system [rustbrain]
  --stats-out <file>                         write batch EngineStats JSON
  --results-out <file>                       write deterministic per-case
                                             results JSON (telemetry-free)
  --trace-out <file>                         batch/serve: write a structured
                                             JSONL span trace (one JSON object
                                             per span; observational only —
                                             results are byte-identical with
                                             or without it)
  --json                                     analyze: emit the report as one
                                             JSON document instead of text
  --no-cache                                 bypass the oracle verdict cache
  --cache-cap <N>                            bound the cache to N entries
                                             (rounded up; minimum 16)
  --kb-in <store>                            batch: warm-start from a saved
                                             knowledge store (either layout)
  --kb-out <store>                           batch: save the merged knowledge
                                             store afterwards (atomic write;
                                             a .rbkb.d path shards by UB class
                                             and rewrites dirty shards only)
  --threshold <0.0..1.0>                     kb compact: coalescing cosine
                                             threshold [0.98]
  --addr <host:port>                         serve/client: listen/connect
                                             address [127.0.0.1:4650]
  --kb <store>                               serve: knowledge store, loaded
                                             at start and saved on shutdown
  --compact-secs <N>                         serve: compact every N seconds
                                             of wall clock [off]
  --classes <c1,c2,...>                      client batch: restrict the sweep
                                             to these UB classes [all]
  --coverage <0.0..1.0>                      trace check: required repair
                                             child-sim coverage [0.95]
  --require <name1,name2,...>                trace check: span kinds that must
                                             appear (CI uses
                                             engine.job,repair,fast)
  --collapsed                                trace flamegraph: emit
                                             collapsed-stack lines (for
                                             flamegraph tooling) instead of
                                             the text table
  --measure <sim|wall>                       trace flamegraph --collapsed:
                                             charge simulated or wall
                                             microseconds [sim]
  --top <N>                                  trace flamegraph/diff: rows to
                                             print (0 = all) [40]"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match cli.command {
        Command::Help => {
            outln!("{}", usage());
            ExitCode::SUCCESS
        }
        Command::Check(ref file) => match std::fs::read_to_string(file) {
            Ok(src) => check(&src, &cli),
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                ExitCode::from(2)
            }
        },
        Command::Analyze(AnalyzeTarget::File(ref file)) => match std::fs::read_to_string(file) {
            Ok(src) => analyze_file(file, &src, &cli),
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                ExitCode::from(2)
            }
        },
        Command::Analyze(AnalyzeTarget::Corpus) => analyze_corpus(&cli),
        Command::Repair(ref file) => match std::fs::read_to_string(file) {
            Ok(src) => repair(&src, &cli),
            Err(e) => {
                eprintln!("error: cannot read {file}: {e}");
                ExitCode::from(2)
            }
        },
        Command::Corpus(ref dir) => export_corpus(dir, cli.seed),
        Command::Batch => batch(&cli),
        Command::KbInspect(ref file) => kb_inspect(file),
        Command::KbMigrate(ref src, ref dst) => kb_migrate(src, dst),
        Command::KbCompact(ref file) => kb_compact(
            file,
            cli.threshold
                .unwrap_or(rb_kb::COMPACTION_COALESCE_THRESHOLD),
        ),
        Command::Serve => serve(&cli),
        Command::Trace(ref verb) => trace_cmd(&cli, verb),
        Command::Client(ref verb) => match verb {
            ClientVerb::Repair(file) => client_call(&cli, |cli| {
                let src = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?;
                Ok(rb_serve::client::repair_request(
                    &src,
                    &cli.reference,
                    cli.seed,
                ))
            }),
            ClientVerb::Analyze(file) => client_call(&cli, |_| {
                let src = std::fs::read_to_string(file)
                    .map_err(|e| format!("cannot read {file}: {e}"))?;
                Ok(rb_serve::client::analyze_request(&src))
            }),
            ClientVerb::Batch => client_call(&cli, |cli| {
                Ok(rb_serve::client::batch_request(
                    cli.seed,
                    cli.per_class,
                    cli.classes.as_deref(),
                ))
            }),
            ClientVerb::Stats => client_call(&cli, |_| Ok(rb_serve::client::stats_request())),
            ClientVerb::Metrics => client_call(&cli, |_| Ok(rb_serve::client::metrics_request())),
            ClientVerb::Compact => client_call(&cli, |_| Ok(rb_serve::client::compact_request())),
            ClientVerb::Shutdown => client_call(&cli, |_| Ok(rb_serve::client::shutdown_request())),
        },
        Command::Demo => {
            outln!("repairing the built-in dangling-pointer demo:\n\n{DEMO}\n");
            let mut demo_cli = cli;
            demo_cli.reference = vec!["5".to_owned()];
            repair(DEMO, &demo_cli)
        }
    }
}

fn export_corpus(dir: &str, seed: u64) -> ExitCode {
    let corpus = rb_dataset::Corpus::generate_full(seed, 2);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: cannot create {dir}: {e}");
        return ExitCode::from(2);
    }
    let mut written = 0usize;
    for case in &corpus.cases {
        let stem = case.id.replace(['/', '.'], "_");
        let buggy_path = format!("{dir}/{stem}.buggy.mrs");
        let gold_path = format!("{dir}/{stem}.gold.mrs");
        let ok = std::fs::write(&buggy_path, print_program(&case.buggy)).is_ok()
            && std::fs::write(&gold_path, print_program(&case.gold)).is_ok();
        if ok {
            written += 2;
        } else {
            eprintln!("error: failed writing {stem}");
            return ExitCode::from(2);
        }
    }
    outln!(
        "wrote {written} files ({} cases across {} classes) to {dir}",
        corpus.len(),
        corpus.stats().len()
    );
    ExitCode::SUCCESS
}

/// Loads and parses a trace file, printing the typed error on failure.
fn load_trace(path: &str) -> Result<Vec<rb_obs::TraceSpan>, ExitCode> {
    rb_obs::analyze::read_file(Path::new(path)).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// Builds the span tree, printing the typed error on failure.
fn load_tree(path: &str) -> Result<rb_obs::SpanTree, ExitCode> {
    rb_obs::SpanTree::build(load_trace(path)?).map_err(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn trace_cmd(cli: &Cli, verb: &TraceVerb) -> ExitCode {
    use rb_obs::analyze;
    match verb {
        TraceVerb::Check(path) => {
            let spans = match load_trace(path) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let opts = analyze::CheckOptions {
                coverage: cli.coverage.unwrap_or(analyze::DEFAULT_COVERAGE),
                require_names: cli.require.clone().unwrap_or_default(),
                ..analyze::CheckOptions::default()
            };
            let report = analyze::check(&spans, &opts);
            out!("{}", report.render());
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        TraceVerb::Summarize(path) => {
            let spans = match load_trace(path) {
                Ok(s) => s,
                Err(code) => return code,
            };
            let report = analyze::check(&spans, &analyze::CheckOptions::default());
            match rb_obs::SpanTree::build(spans) {
                Ok(tree) => {
                    out!("{}", analyze::render_summary(&report, &tree));
                    if report.ok() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        TraceVerb::Flamegraph(path) => {
            let tree = match load_tree(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let aggs = analyze::flamegraph(&tree);
            if cli.collapsed {
                let measure = cli.measure.unwrap_or(analyze::Measure::Sim);
                out!("{}", analyze::render_collapsed(&aggs, measure));
            } else {
                let classes = analyze::class_breakdown(&tree);
                out!(
                    "{}",
                    analyze::render_flamegraph(&aggs, &classes, cli.top.unwrap_or(40))
                );
            }
            ExitCode::SUCCESS
        }
        TraceVerb::CriticalPath(path) => {
            let tree = match load_tree(path) {
                Ok(t) => t,
                Err(code) => return code,
            };
            let cp = analyze::critical_path(&tree);
            if cp.lanes.is_empty() {
                eprintln!("error: no engine.job spans in {path} — not a batch trace");
                return ExitCode::FAILURE;
            }
            out!("{}", cp.render());
            ExitCode::SUCCESS
        }
        TraceVerb::Diff(a, b) => {
            let (tree_a, tree_b) = match (load_tree(a), load_tree(b)) {
                (Ok(ta), Ok(tb)) => (ta, tb),
                (Err(code), _) | (_, Err(code)) => return code,
            };
            let rows = analyze::diff(&analyze::flamegraph(&tree_a), &analyze::flamegraph(&tree_b));
            out!("{}", analyze::render_diff(&rows, cli.top.unwrap_or(40)));
            ExitCode::SUCCESS
        }
    }
}

fn batch(cli: &Cli) -> ExitCode {
    let corpus = rb_dataset::Corpus::generate_full(cli.seed, cli.per_class);
    let spec = match cli.system {
        BatchSystem::Brain => {
            let mut config = RustBrainConfig::for_model(cli.model, cli.seed);
            config.temperature = cli.temperature;
            config.use_knowledge = cli.use_knowledge;
            SystemSpec::brain(config)
        }
        BatchSystem::LlmOnly => SystemSpec::Llm {
            model: cli.model,
            temperature: cli.temperature,
        },
        BatchSystem::RustAssistant => SystemSpec::RustAssistant {
            model: cli.model,
            temperature: cli.temperature,
        },
    };
    // The cache mode decides both the engine and its banner label, so the
    // printed oracle mode can never drift from what actually runs. The
    // engine injects its oracle into every system it builds — the whole
    // repair stack, not just gold references, shares one cache.
    let mode = cli.cache_mode();
    let mut engine = mode.engine(cli.jobs);
    // Tracing observes only: the results documents below are
    // byte-identical whether or not a tracer is attached.
    let tracer = match &cli.trace_out {
        Some(path) => match rb_obs::Tracer::to_file(Path::new(path)) {
            Ok(tracer) => {
                engine = engine.with_tracer(tracer.clone());
                Some(tracer)
            }
            Err(e) => {
                eprintln!("error: cannot open trace file {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    outln!(
        "batch: {} cases ({} classes, {} per class) | system {} | {} worker(s) | oracle {} | kb {}",
        corpus.len(),
        corpus.stats().len(),
        cli.per_class,
        spec.label(),
        cli.jobs,
        mode.label(),
        match &cli.kb_in {
            Some(path) => format!("warm ({path})"),
            None => "cold".to_owned(),
        },
    );
    let outcome = match engine.run_batch_stored(
        &spec,
        &corpus.cases,
        cli.seed,
        cli.kb_in.as_deref().map(Path::new),
        cli.kb_out.as_deref().map(Path::new),
    ) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let (pass, exec) = rb_bench::overall_rates(&outcome.results);
    outln!(
        "pass rate: {:.1}% | exec rate: {:.1}% | wall: {:.0} ms | {:.1} cases/s | cache hit rate: {:.1}%",
        pass.percent(),
        exec.percent(),
        outcome.stats.wall_ms,
        outcome.stats.cases_per_sec,
        outcome.stats.cache.hit_rate() * 100.0,
    );
    outln!(
        "oracle judgements: {} executed / {} cached | knowledge: {} seeded + {} learned - {} coalesced = {} entries | kb query time: {:.0} ms",
        outcome.stats.oracle_executed,
        outcome.stats.oracle_cached,
        outcome.stats.kb.seeded_entries,
        outcome.stats.kb.merged_inserts,
        outcome.stats.kb.coalesced,
        outcome.stats.kb.final_entries,
        outcome.stats.kb_query_ms,
    );
    if let Some(path) = &cli.kb_out {
        outln!(
            "knowledge store written to {path} ({} segment(s) rewritten, {} already clean)",
            outcome.stats.kb.shards_written,
            outcome.stats.kb.shards_skipped,
        );
    }
    if let Some(path) = &cli.results_out {
        if let Err(e) = std::fs::write(path, format!("{}\n", results_to_json(&outcome.results))) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        outln!("deterministic results written to {path}");
    }
    if let (Some(tracer), Some(path)) = (&tracer, &cli.trace_out) {
        tracer.flush();
        outln!("span trace written to {path}");
    }
    let stats_json = outcome.stats.to_json();
    match &cli.stats_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{stats_json}\n")) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            outln!("engine stats written to {path}");
        }
        None => outln!("{stats_json}"),
    }
    ExitCode::SUCCESS
}

fn kb_inspect(file: &str) -> ExitCode {
    let path = Path::new(file);
    // One open per store: the sharded arm loads entries and prints its
    // segment table from the same handle, so the table can never show a
    // different store generation than the histograms below it.
    let (layout, entries, shards) = match rb_kb::detect_layout(path) {
        rb_kb::StoreLayout::SingleFile => match rb_kb::load(path) {
            Ok(entries) => ("single-file", entries, Vec::new()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        rb_kb::StoreLayout::Sharded => {
            let loaded = rb_kb::ShardedStore::open(path).and_then(|store| {
                let entries = store.load_all()?;
                Ok((entries, store.manifest().shards.clone()))
            });
            match loaded {
                Ok((entries, shards)) => ("sharded", entries, shards),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let total_weight: u64 = entries.iter().map(|e| u64::from(e.weight)).sum();
    outln!(
        "{file}: rbkb v{} ({layout}) | {} entries standing for {} solved cases",
        rb_kb::FORMAT_VERSION,
        entries.len(),
        total_weight,
    );
    // A sharded store additionally reports its on-disk segmentation —
    // which classes occupy which segment files, and how big each is.
    if !shards.is_empty() {
        outln!("\nshard            entries   weight    bytes  file");
        for m in &shards {
            outln!(
                "{:<16} {:>7} {:>8} {:>8}  {}",
                m.class.label(),
                m.entries,
                m.weight,
                m.bytes,
                m.file_name(),
            );
        }
    }
    if entries.is_empty() {
        return ExitCode::SUCCESS;
    }

    // Per-class histogram: entry slots and the solved-case weight behind
    // them (the difference is what the merge policy has folded away).
    let index = rb_kb::KbIndex::build(&entries);
    outln!("\nclass            entries   weight");
    for (class, count) in index.histogram() {
        let weight: u64 = index
            .bucket(class)
            .iter()
            .map(|&i| u64::from(entries[i as usize].weight))
            .sum();
        outln!("{:<16} {:>7} {:>8}", class.label(), count, weight);
    }

    // Per-rule weights, heaviest first (what the base has actually
    // learned to reach for).
    let mut rules: Vec<(rb_llm::RepairRule, u64)> = Vec::new();
    for e in &entries {
        match rules.iter_mut().find(|(r, _)| *r == e.rule) {
            Some((_, w)) => *w += u64::from(e.weight),
            None => rules.push((e.rule, u64::from(e.weight))),
        }
    }
    rules.sort_by(|a, b| {
        b.1.cmp(&a.1)
            .then_with(|| rb_kb::codec::rule_code(a.0).cmp(&rb_kb::codec::rule_code(b.0)))
    });
    outln!("\nrule                           weight");
    for (rule, weight) in rules {
        outln!("{:<30} {:>7}", format!("{rule:?}"), weight);
    }
    ExitCode::SUCCESS
}

/// Copies a knowledge store between layouts: the destination layout is
/// whatever `dst` implies (`x.rbkb.d` → sharded, anything else → single
/// file), so this is both the migration *to* shards and the way back.
fn kb_migrate(src: &str, dst: &str) -> ExitCode {
    let entries = match rb_kb::load_any(Path::new(src)) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match rb_kb::save_any(Path::new(dst), &entries) {
        Ok(report) => {
            outln!(
                "migrated {src} -> {dst}: {} entries in {} segment(s)",
                entries.len(),
                report.shards_written + report.shards_skipped,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Re-normalizes a store under the (tightened) compaction policy: load,
/// normalize, save, for either layout — the pass the daemon's `compact`
/// runs on its resident base. A sharded save rewrites only the segments
/// that changed and swaps the manifest in atomically; a single-file
/// store is rewritten whole. Compaction only folds near-duplicate weight
/// together — total solved-case weight is preserved, entry count can
/// only shrink.
fn kb_compact(file: &str, threshold: f64) -> ExitCode {
    let path = Path::new(file);
    let policy = rustbrain::MergePolicy::compaction(threshold);
    let weight =
        |entries: &[rb_kb::KbEntry]| -> u64 { entries.iter().map(|e| u64::from(e.weight)).sum() };
    let compacted = rb_kb::load_any(path).and_then(|entries| {
        let before = (entries.len(), weight(&entries));
        let compacted = policy.normalize(entries);
        let report = rb_kb::save_any(path, &compacted)?;
        Ok((before, compacted, report))
    });
    match compacted {
        Ok(((entries_before, weight_before), compacted, report)) => {
            outln!(
                "compacted {file} @ cosine {threshold}: {} -> {} entries ({} folded) | weight {} -> {} | {} segment(s) rewritten",
                entries_before,
                compacted.len(),
                entries_before - compacted.len(),
                weight_before,
                weight(&compacted),
                report.shards_written,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `rustbrain serve`: run the resident repair daemon until a `shutdown`
/// request arrives, then dump (or write) the final [`rb_serve::ServeStats`].
fn serve(cli: &Cli) -> ExitCode {
    let config = rb_serve::ServeConfig {
        addr: cli.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.to_owned()),
        jobs: cli.jobs,
        handlers: 2,
        kb_path: cli.kb.as_deref().map(std::path::PathBuf::from),
        compact_secs: cli.compact_secs,
        trace_out: cli.trace_out.as_deref().map(std::path::PathBuf::from),
    };
    let kb_label = cli.kb.clone().unwrap_or_else(|| "in-memory".to_owned());
    let server = match rb_serve::Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // The smoke harness waits for this exact line before connecting, so
    // it goes out flushed and before any request is served.
    outln!(
        "serving on {} | {} worker(s) | kb {kb_label}",
        server.local_addr(),
        cli.jobs,
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = server.run();
    let stats_json = stats.to_json();
    match &cli.stats_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, format!("{stats_json}\n")) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            outln!("serve stats written to {path}");
        }
        None => outln!("{stats_json}"),
    }
    ExitCode::SUCCESS
}

/// `rustbrain client <verb>`: one request line to a running daemon, the
/// response line to stdout. A `batch` response's embedded results
/// document additionally lands in `--results-out` verbatim — the same
/// bytes `rustbrain batch --results-out` writes, which is what CI diffs.
fn client_call(cli: &Cli, build: impl FnOnce(&Cli) -> Result<String, String>) -> ExitCode {
    let addr = cli.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.to_owned());
    let request = match build(cli) {
        Ok(request) => request,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let response = rb_serve::Client::connect(&addr).and_then(|mut client| client.call(&request));
    let response = match response {
        Ok(response) => response,
        Err(e) => {
            eprintln!("error: daemon at {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    outln!("{response}");
    let parsed = json::parse(&response).ok();
    let ok = parsed
        .as_ref()
        .and_then(|v| v.get("ok"))
        .and_then(json::Value::as_bool)
        .unwrap_or(false);
    if let Some(path) = &cli.results_out {
        let results = parsed
            .as_ref()
            .and_then(|v| v.get("results_json"))
            .and_then(json::Value::as_str);
        match results {
            Some(results) => {
                if let Err(e) = std::fs::write(path, format!("{results}\n")) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::from(2);
                }
                outln!("deterministic results written to {path}");
            }
            None => {
                eprintln!("error: response carries no results_json to write to {path}");
                return ExitCode::from(2);
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `rustbrain analyze <file.mrs>`: print the oracle's findings on one
/// program, each with its class, rule id and statement path; no repair.
/// Exit code mirrors `check`: success iff there are no findings.
fn analyze_file(file: &str, src: &str, cli: &Cli) -> ExitCode {
    let program = match parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = rb_lint::analyze(&program);
    if cli.json {
        outln!("{}", rb_serve::protocol::analysis_json(&analysis));
    } else {
        if analysis.findings.is_empty() {
            outln!("{file}: proven clean");
        } else {
            outln!("{file}: {} finding(s)", analysis.findings.len());
        }
        for f in &analysis.findings {
            let at = f
                .path
                .as_ref()
                .map_or(String::new(), |p| format!(" (at {p})"));
            outln!("  {}: {}{} <{}>", f.class.label(), f.message, at, f.rule);
        }
    }
    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The repair-rule audit as a JSON array, one object per rule.
fn audits_json(audits: &[rb_lint::rulecheck::RuleAudit]) -> String {
    let rows: Vec<String> = audits
        .iter()
        .map(|a| {
            let cases: Vec<String> = a.tripped_cases.iter().map(|c| fmt_str(c)).collect();
            format!(
                "{{\"rule\":{},\"cases_tried\":{},\"edits_produced\":{},\"still_trips\":{},\
                 \"flagged\":{},\"tripped_cases\":[{}]}}",
                fmt_str(a.rule),
                a.cases_tried,
                a.edits_produced,
                a.still_trips,
                a.flagged(),
                cases.join(",")
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// `rustbrain analyze --corpus`: sweeps the generated seed corpus,
/// counting per class the cases and the findings on gold programs (every
/// one is a false positive by construction), and audits the repair-rule
/// library. Exit code enforces the gold contract: failure iff any gold
/// program draws a finding.
fn analyze_corpus(cli: &Cli) -> ExitCode {
    let corpus = rb_dataset::Corpus::generate_full(cli.seed, cli.per_class);
    // Per class: [cases, gold findings].
    let mut rows: std::collections::BTreeMap<rb_miri::UbClass, [usize; 2]> =
        std::collections::BTreeMap::new();
    for case in &corpus.cases {
        let row = rows.entry(case.class).or_insert([0; 2]);
        row[0] += 1;
        row[1] += rb_lint::analyze(&case.gold).findings.len();
    }
    let total = rows
        .values()
        .fold([0usize; 2], |acc, r| [acc[0] + r[0], acc[1] + r[1]]);
    let audit_cases: Vec<(String, rb_lang::Program)> = corpus
        .cases
        .iter()
        .map(|c| (c.id.clone(), (*c.buggy).clone()))
        .collect();
    let audits = rb_lint::rulecheck::audit_rules(&audit_cases);
    let flagged: Vec<&rb_lint::rulecheck::RuleAudit> =
        audits.iter().filter(|a| a.flagged()).collect();
    if cli.json {
        let by_class: Vec<String> = rows
            .iter()
            .map(|(class, r)| {
                format!(
                    "{{\"class\":{},\"cases\":{},\"gold_findings\":{}}}",
                    fmt_str(class.label()),
                    r[0],
                    r[1],
                )
            })
            .collect();
        outln!(
            "{{\"seed\":{},\"per_class\":{},\"cases\":{},\"gold_findings\":{},\
             \"by_class\":[{}],\"rule_audit\":{}}}",
            cli.seed,
            cli.per_class,
            total[0],
            total[1],
            by_class.join(","),
            audits_json(&audits),
        );
    } else {
        outln!(
            "analyze: {} cases ({} classes, {} per class) | seed {}\n",
            total[0],
            rows.len(),
            cli.per_class,
            cli.seed,
        );
        outln!("class            cases  gold-FPs");
        for (class, r) in &rows {
            outln!("{:<16} {:>5} {:>9}", class.label(), r[0], r[1]);
        }
        outln!(
            "\noverall: {} cases | findings on gold programs: {}",
            total[0],
            total[1],
        );
        outln!(
            "rule audit: {} rules, {} produced edits that still trip their own lint",
            audits.len(),
            flagged.len(),
        );
        for audit in &flagged {
            outln!(
                "  {:<30} edits {:>2}, still tripping {:>2} ({})",
                audit.rule,
                audit.edits_produced,
                audit.still_trips,
                audit.tripped_cases.join(", "),
            );
        }
    }
    if total[1] == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: findings on gold programs — a gold program is not clean");
        ExitCode::FAILURE
    }
}

fn check(src: &str, cli: &Cli) -> ExitCode {
    let program = match parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = cli.oracle().judge(&program);
    out!("{report}");
    if report.passes() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn repair(src: &str, cli: &Cli) -> ExitCode {
    let program = match parse_program(src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::from(2);
        }
    };
    let oracle = cli.oracle();
    let report = oracle.judge(&program);
    if report.passes() {
        outln!("program already passes the oracle; nothing to repair");
        return ExitCode::SUCCESS;
    }
    out!("{report}");
    let mut config = RustBrainConfig::for_model(cli.model, cli.seed);
    config.temperature = cli.temperature;
    config.use_knowledge = cli.use_knowledge;
    let mut brain = RustBrain::with_oracle(config, oracle);
    let outcome = brain.repair(&program, &cli.reference);
    outln!(
        "\n== repaired program ==\n{}",
        print_program(&outcome.final_program)
    );
    outln!(
        "passed: {} | acceptable: {}{} | simulated time: {:.1}s | solutions: {} | oracle runs: {}",
        outcome.passed,
        outcome.acceptable,
        if cli.reference.is_empty() {
            " (no --reference given)"
        } else {
            ""
        },
        outcome.overhead_ms / 1000.0,
        outcome.solutions_tried,
        outcome.oracle_runs
    );
    if outcome.passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_repair_with_flags() {
        let cli = parse_cli(&argv(
            "repair prog.mrs --model gpt-o1 --temperature 0.3 --seed 7 --no-knowledge --reference 5,true",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Repair("prog.mrs".into()));
        assert_eq!(cli.model, ModelId::GptO1);
        assert_eq!(cli.temperature, 0.3);
        assert_eq!(cli.seed, 7);
        assert!(!cli.use_knowledge);
        assert_eq!(cli.reference, vec!["5".to_owned(), "true".to_owned()]);
    }

    #[test]
    fn defaults_are_papers() {
        let cli = parse_cli(&argv("demo")).unwrap();
        assert_eq!(cli.model, ModelId::Gpt4);
        assert_eq!(cli.temperature, 0.5);
        assert!(cli.use_knowledge);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_cli(&argv("repair")).is_err());
        assert!(parse_cli(&argv("check a --model gpt-9")).is_err());
        assert!(parse_cli(&argv("repair a --temperature 3")).is_err());
        assert!(parse_cli(&argv("frobnicate")).is_err());
    }

    #[test]
    fn parses_corpus_command() {
        let cli = parse_cli(&argv("corpus /tmp/out --seed 9")).unwrap();
        assert_eq!(cli.command, Command::Corpus("/tmp/out".into()));
        assert_eq!(cli.seed, 9);
        assert!(parse_cli(&argv("corpus")).is_err());
    }

    #[test]
    fn help_is_default() {
        assert_eq!(parse_cli(&[]).unwrap().command, Command::Help);
    }

    #[test]
    fn parses_batch_with_engine_flags() {
        let cli = parse_cli(&argv(
            "batch --jobs 4 --per-class 2 --system llm-only --stats-out stats.json --seed 5",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Batch);
        assert_eq!(cli.jobs, 4);
        assert_eq!(cli.per_class, 2);
        assert_eq!(cli.system, BatchSystem::LlmOnly);
        assert_eq!(cli.stats_out.as_deref(), Some("stats.json"));
        assert_eq!(cli.seed, 5);
    }

    #[test]
    fn batch_defaults_and_validation() {
        let cli = parse_cli(&argv("batch")).unwrap();
        assert_eq!(cli.system, BatchSystem::Brain);
        assert!(cli.jobs >= 1);
        assert_eq!(cli.per_class, 3);
        assert!(cli.stats_out.is_none());
        assert!(cli.results_out.is_none());
        assert!(cli.use_cache && cli.cache_cap.is_none());
        assert!(parse_cli(&argv("batch --jobs 0")).is_err());
        assert!(parse_cli(&argv("batch --per-class 0")).is_err());
        assert!(parse_cli(&argv("batch --system gpt-9")).is_err());
    }

    #[test]
    fn parses_kb_persistence_flags() {
        let cli = parse_cli(&argv("batch --kb-in warm.rbkb --kb-out next.rbkb")).unwrap();
        assert_eq!(cli.kb_in.as_deref(), Some("warm.rbkb"));
        assert_eq!(cli.kb_out.as_deref(), Some("next.rbkb"));
        // Either flag alone is fine (cold start + save, or warm + discard).
        assert!(parse_cli(&argv("batch --kb-out only.rbkb")).is_ok());
        assert!(parse_cli(&argv("batch --kb-in only.rbkb")).is_ok());
        // But they are batch-only, and need values.
        assert!(parse_cli(&argv("demo --kb-in warm.rbkb")).is_err());
        assert!(parse_cli(&argv("repair a.mrs --kb-out x.rbkb")).is_err());
        assert!(parse_cli(&argv("batch --kb-in")).is_err());
    }

    #[test]
    fn parses_kb_inspect_subcommand() {
        let cli = parse_cli(&argv("kb inspect store.rbkb")).unwrap();
        assert_eq!(cli.command, Command::KbInspect("store.rbkb".into()));
        assert!(parse_cli(&argv("kb")).is_err());
        assert!(parse_cli(&argv("kb inspect")).is_err());
        assert!(parse_cli(&argv("kb frobnicate x")).is_err());
    }

    #[test]
    fn parses_kb_migrate_and_compact_subcommands() {
        let cli = parse_cli(&argv("kb migrate old.rbkb new.rbkb.d")).unwrap();
        assert_eq!(
            cli.command,
            Command::KbMigrate("old.rbkb".into(), "new.rbkb.d".into())
        );
        assert!(parse_cli(&argv("kb migrate only_src.rbkb")).is_err());

        let cli = parse_cli(&argv("kb compact store.rbkb.d --threshold 0.97")).unwrap();
        assert_eq!(cli.command, Command::KbCompact("store.rbkb.d".into()));
        assert_eq!(cli.threshold, Some(0.97));
        // Omitted: the tightened compaction constant applies at dispatch.
        let cli = parse_cli(&argv("kb compact store.rbkb.d")).unwrap();
        assert_eq!(cli.threshold, None);
        assert!(parse_cli(&argv("kb compact")).is_err());
        assert!(parse_cli(&argv("kb compact s.rbkb --threshold 1.5")).is_err());
        assert!(parse_cli(&argv("kb compact s.rbkb --threshold nope")).is_err());
        // --threshold is compact-only — even at its default value.
        assert!(parse_cli(&argv("batch --threshold 0.9")).is_err());
        assert!(parse_cli(&argv("batch --threshold 0.98")).is_err());
    }

    #[test]
    fn parses_serve_command() {
        let cli = parse_cli(&argv(
            "serve --addr 127.0.0.1:4700 --kb store.rbkb.d --compact-secs 60 --jobs 2",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Serve);
        assert_eq!(cli.addr.as_deref(), Some("127.0.0.1:4700"));
        assert_eq!(cli.kb.as_deref(), Some("store.rbkb.d"));
        assert_eq!(cli.compact_secs, 60);
        assert_eq!(cli.jobs, 2);
        // Defaults: ephemeral flags off, address falls back at dispatch.
        let cli = parse_cli(&argv("serve")).unwrap();
        assert!(cli.addr.is_none());
        assert!(cli.kb.is_none());
        assert_eq!(cli.compact_secs, 0);
    }

    #[test]
    fn parses_client_command() {
        let cli = parse_cli(&argv("client repair prog.mrs --reference 5 --seed 9")).unwrap();
        assert_eq!(
            cli.command,
            Command::Client(ClientVerb::Repair("prog.mrs".into()))
        );
        assert_eq!(cli.seed, 9);
        let cli = parse_cli(&argv(
            "client batch --classes alloc,panic,alloc --per-class 2 --results-out r.json",
        ))
        .unwrap();
        assert_eq!(cli.command, Command::Client(ClientVerb::Batch));
        assert_eq!(
            cli.classes,
            Some(vec![rb_miri::UbClass::Alloc, rb_miri::UbClass::Panic])
        );
        assert_eq!(cli.results_out.as_deref(), Some("r.json"));
        for verb in ["stats", "metrics", "compact", "shutdown"] {
            assert!(
                parse_cli(&argv(&format!("client {verb}"))).is_ok(),
                "{verb}"
            );
        }
        assert!(parse_cli(&argv("client")).is_err());
        assert!(parse_cli(&argv("client frobnicate")).is_err());
        assert!(parse_cli(&argv("client repair")).is_err());
        assert!(parse_cli(&argv("client batch --classes nope")).is_err());
    }

    #[test]
    fn serve_flags_are_scoped_to_their_commands() {
        assert!(parse_cli(&argv("batch --addr 127.0.0.1:4700")).is_err());
        assert!(parse_cli(&argv("batch --kb store.rbkb.d")).is_err());
        assert!(parse_cli(&argv("demo --compact-secs 10")).is_err());
        assert!(parse_cli(&argv("client stats --classes alloc")).is_err());
        assert!(parse_cli(&argv("serve --classes alloc")).is_err());
        // But --addr works on both sides of the socket.
        assert!(parse_cli(&argv("client stats --addr 127.0.0.1:4700")).is_ok());
    }

    #[test]
    fn trace_out_is_scoped_to_batch_and_serve() {
        let cli = parse_cli(&argv("batch --trace-out trace.jsonl")).unwrap();
        assert_eq!(cli.trace_out.as_deref(), Some("trace.jsonl"));
        let cli = parse_cli(&argv("serve --trace-out trace.jsonl")).unwrap();
        assert_eq!(cli.trace_out.as_deref(), Some("trace.jsonl"));
        assert!(parse_cli(&argv("demo --trace-out t.jsonl")).is_err());
        assert!(parse_cli(&argv("repair a.mrs --trace-out t.jsonl")).is_err());
        assert!(parse_cli(&argv("client stats --trace-out t.jsonl")).is_err());
        assert!(parse_cli(&argv("batch --trace-out")).is_err());
    }

    #[test]
    fn parses_scheduler_flags() {
        // Batch jobs reach the workers one way only, so `--sched` is
        // gone on every command that took it, whatever its value.
        for spelling in ["fifo", "cost-ordered", "lpt", "stealing"] {
            for command in ["batch", "serve"] {
                let err = parse_cli(&argv(&format!("{command} --sched {spelling}"))).unwrap_err();
                assert!(err.contains("unknown flag"), "{command} --sched: {err}");
            }
        }
        assert!(parse_cli(&argv("batch --sched")).is_err());
    }

    #[test]
    fn cost_table_is_scoped_to_batch() {
        // With no cost model there is no cost table to load, so
        // `--cost-table` is unknown on batch as on every other command.
        for command in ["batch", "serve", "demo"] {
            let err = parse_cli(&argv(&format!("{command} --cost-table costs.tbl"))).unwrap_err();
            assert!(
                err.contains("unknown flag"),
                "{command} --cost-table: {err}"
            );
        }
        assert!(parse_cli(&argv("batch --cost-table")).is_err());
    }

    #[test]
    fn parses_trace_subcommands() {
        let cli = parse_cli(&argv("trace check t.jsonl --coverage 0.9 --require a,b")).unwrap();
        assert_eq!(
            cli.command,
            Command::Trace(TraceVerb::Check("t.jsonl".into()))
        );
        assert_eq!(cli.coverage, Some(0.9));
        assert_eq!(cli.require, Some(vec!["a".to_owned(), "b".to_owned()]));

        let cli = parse_cli(&argv("trace summarize t.jsonl")).unwrap();
        assert_eq!(
            cli.command,
            Command::Trace(TraceVerb::Summarize("t.jsonl".into()))
        );

        let cli = parse_cli(&argv(
            "trace flamegraph t.jsonl --collapsed --measure wall --top 5",
        ))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Trace(TraceVerb::Flamegraph("t.jsonl".into()))
        );
        assert!(cli.collapsed);
        assert_eq!(cli.measure, Some(rb_obs::analyze::Measure::Wall));
        assert_eq!(cli.top, Some(5));

        let cli = parse_cli(&argv("trace critical-path t.jsonl")).unwrap();
        assert_eq!(
            cli.command,
            Command::Trace(TraceVerb::CriticalPath("t.jsonl".into()))
        );

        let cli = parse_cli(&argv("trace diff a.jsonl b.jsonl --top 0")).unwrap();
        assert_eq!(
            cli.command,
            Command::Trace(TraceVerb::Diff("a.jsonl".into(), "b.jsonl".into()))
        );
        assert_eq!(cli.top, Some(0));

        // Missing operands and unknown verbs are errors.
        assert!(parse_cli(&argv("trace")).is_err());
        assert!(parse_cli(&argv("trace check")).is_err());
        assert!(parse_cli(&argv("trace diff only_one.jsonl")).is_err());
        assert!(parse_cli(&argv("trace frobnicate t.jsonl")).is_err());
        // Bad flag values are errors.
        assert!(parse_cli(&argv("trace check t.jsonl --coverage 1.5")).is_err());
        assert!(parse_cli(&argv("trace check t.jsonl --require")).is_err());
        assert!(parse_cli(&argv("trace flamegraph t.jsonl --measure frobnicate")).is_err());
        assert!(parse_cli(&argv("trace flamegraph t.jsonl --top nope")).is_err());
    }

    #[test]
    fn trace_flags_are_scoped_to_their_verbs() {
        assert!(parse_cli(&argv("trace flamegraph t.jsonl --coverage 0.9")).is_err());
        assert!(parse_cli(&argv("trace check t.jsonl --collapsed")).is_err());
        assert!(parse_cli(&argv("trace check t.jsonl --measure sim")).is_err());
        assert!(parse_cli(&argv("trace check t.jsonl --top 5")).is_err());
        assert!(parse_cli(&argv("trace summarize t.jsonl --top 5")).is_err());
        assert!(parse_cli(&argv("batch --coverage 0.9")).is_err());
        assert!(parse_cli(&argv("demo --collapsed")).is_err());
        assert!(parse_cli(&argv("serve --top 5")).is_err());
        // And the trace family rejects flags from other commands.
        assert!(parse_cli(&argv("trace check t.jsonl --trace-out x.jsonl")).is_err());
    }

    #[test]
    fn parses_analyze_command() {
        let cli = parse_cli(&argv("analyze prog.mrs")).unwrap();
        assert_eq!(
            cli.command,
            Command::Analyze(AnalyzeTarget::File("prog.mrs".into()))
        );
        assert!(!cli.json);
        let cli = parse_cli(&argv("analyze prog.mrs --json")).unwrap();
        assert!(cli.json);
        let cli = parse_cli(&argv("analyze --corpus --json --seed 7 --per-class 2")).unwrap();
        assert_eq!(cli.command, Command::Analyze(AnalyzeTarget::Corpus));
        assert!(cli.json);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.per_class, 2);
        // A file operand is required unless --corpus stands in for it.
        assert!(parse_cli(&argv("analyze")).is_err());
        assert!(parse_cli(&argv("analyze --json")).is_err());
        // --json is analyze-only.
        assert!(parse_cli(&argv("batch --json")).is_err());
        assert!(parse_cli(&argv("check a.mrs --json")).is_err());
        assert!(parse_cli(&argv("client stats --json")).is_err());
    }

    #[test]
    fn parses_client_analyze_verb() {
        let cli = parse_cli(&argv("client analyze prog.mrs --addr 127.0.0.1:4700")).unwrap();
        assert_eq!(
            cli.command,
            Command::Client(ClientVerb::Analyze("prog.mrs".into()))
        );
        assert_eq!(cli.addr.as_deref(), Some("127.0.0.1:4700"));
        assert!(parse_cli(&argv("client analyze")).is_err());
    }

    #[test]
    fn parses_preflight_flags() {
        // Every candidate goes to the oracle, so `--preflight` and
        // `--no-preflight` are gone on every command that took them.
        for cmd in ["repair a.mrs", "demo", "batch"] {
            for flag in ["--preflight", "--no-preflight"] {
                let err = parse_cli(&argv(&format!("{cmd} {flag}"))).unwrap_err();
                assert!(err.contains("unknown flag"), "{cmd} {flag}: {err}");
            }
        }
        assert!(parse_cli(&argv("check a.mrs --no-preflight")).is_err());
        assert!(parse_cli(&argv("analyze a.mrs --preflight")).is_err());
        assert!(parse_cli(&argv("serve --no-preflight")).is_err());
        assert!(parse_cli(&argv("client batch --no-preflight")).is_err());
    }

    #[test]
    fn parses_cache_flags() {
        let cli = parse_cli(&argv("batch --no-cache --results-out r.json")).unwrap();
        assert!(!cli.use_cache);
        assert_eq!(cli.cache_mode(), CacheMode::Direct);
        assert_eq!(cli.results_out.as_deref(), Some("r.json"));
        let cli = parse_cli(&argv("batch --cache-cap 512")).unwrap();
        assert_eq!(cli.cache_cap, Some(512));
        assert_eq!(cli.cache_mode(), CacheMode::Bounded(512));
        assert_eq!(
            parse_cli(&argv("batch")).unwrap().cache_mode(),
            CacheMode::Global
        );
        assert!(parse_cli(&argv("batch --cache-cap 0")).is_err());
        assert!(parse_cli(&argv("batch --no-cache --cache-cap 8")).is_err());
    }
}
