//! The resident repair daemon.
//!
//! One process keeps one [`Engine`] (and therefore one shared oracle
//! verdict cache) and one [`KnowledgeBase`] alive across requests, so
//! repeated traffic amortizes exactly the state the one-shot CLI
//! rebuilds per invocation. The knowledge store is loaded whole when the
//! daemon binds ([`KnowledgeBase::load`]); a store path that does not
//! exist yet starts an empty base, and a store that does not decode
//! refuses to bind.
//!
//! Concurrency model: the accept loop runs on the caller's thread and
//! feeds connections to a small pool of handler threads over a channel.
//! Handlers serve whole connections (many request lines each). The
//! resident base sits behind a mutex, but handlers hold it only long
//! enough to take a [snapshot](KnowledgeBase::snapshot), a handle on the
//! shared base that copies no entry — repairs and batches run on the
//! snapshot, and learned deltas merge back afterwards. The merge is the
//! same submission-order multiset merge the batch engine uses, so a
//! daemon's knowledge evolution matches the equivalent CLI run byte for
//! byte. A `shutdown` request closes every open connection, idle ones
//! included, so `run` returns and saves without waiting for peers to
//! hang up.
//!
//! Compaction runs on the explicit `compact` verb, or when
//! `compact_secs` of wall-clock pass since the last one. Both paths
//! re-normalize the resident base under the compaction policy and
//! persist through the store's atomic swap-in, so a crash mid-compaction
//! leaves the old generation intact.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use rb_dataset::{Corpus, UbCase};
use rb_engine::{results_to_json, Engine, SystemSpec};
use rb_kb::{MergePolicy, COMPACTION_COALESCE_THRESHOLD};
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_llm::ModelId;
use rb_miri::UbClass;
use rb_obs::json::{fmt_num, fmt_str};
use rustbrain::{KnowledgeBase, RustBrain, RustBrainConfig};

use crate::protocol::{analysis_json, error_response, parse_request, Request};
use crate::stats::{ServeStats, StatsRecorder, Verb};

/// How the daemon is wired up: where it listens, how it repairs, and
/// when it compacts.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:4650` (port 0 picks one).
    pub addr: String,
    /// Engine worker threads for `batch` requests.
    pub jobs: usize,
    /// Connection handler threads.
    pub handlers: usize,
    /// Knowledge store to load at bind and persist back to (`None` runs
    /// a fresh in-memory base that dies with the daemon).
    pub kb_path: Option<PathBuf>,
    /// Compact when this many seconds pass since the last compaction
    /// (0 disables the time trigger).
    pub compact_secs: u64,
    /// Write a structured JSONL trace of every request (and the repair
    /// spans nested under it) to this file. `None` disables tracing.
    pub trace_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:4650".to_owned(),
            jobs: 4,
            handlers: 2,
            kb_path: None,
            compact_secs: 0,
            trace_out: None,
        }
    }
}

/// Everything the handler threads share.
struct ServeState {
    config: ServeConfig,
    /// Resident engine: its oracle cache is the daemon's verdict memory.
    engine: Engine,
    /// The resident knowledge base.
    kb: Mutex<KnowledgeBase>,
    stats: StatsRecorder,
    /// Structured-trace sink shared by every handler thread (`None`
    /// when tracing is off — spans are inert and cost one branch).
    tracer: Option<rb_obs::Tracer>,
    shutdown: AtomicBool,
    /// A second handle on every connection a handler is serving, keyed
    /// by a per-connection id, so a shutdown can close peers that sit
    /// idle in a blocking read.
    peers: Mutex<HashMap<u64, TcpStream>>,
    next_peer: AtomicU64,
    /// Serializes compactions so a time trigger firing on two handler
    /// threads at once runs the work exactly once.
    compacting: AtomicBool,
    last_compact: Mutex<Instant>,
    local_addr: SocketAddr,
}

impl ServeState {
    fn lock_kb(&self) -> std::sync::MutexGuard<'_, KnowledgeBase> {
        self.kb.lock().expect("knowledge base lock poisoned")
    }

    fn lock_peers(&self) -> std::sync::MutexGuard<'_, HashMap<u64, TcpStream>> {
        self.peers.lock().expect("peer table lock poisoned")
    }
}

/// A bound daemon, ready to [`run`](Server::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
}

impl Server {
    /// Binds the listen socket and loads the knowledge store whole. A
    /// store path that does not exist starts an empty base (the first
    /// save creates it); a store that exists but does not decode is an
    /// error.
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve local addr: {e}"))?;
        let kb = match &config.kb_path {
            Some(path) if path.exists() => KnowledgeBase::load(path)
                .map_err(|e| format!("cannot open knowledge store: {e}"))?,
            _ => KnowledgeBase::new(),
        };
        let tracer = match &config.trace_out {
            Some(path) => Some(
                rb_obs::Tracer::to_file(path)
                    .map_err(|e| format!("cannot open trace file {}: {e}", path.display()))?,
            ),
            None => None,
        };
        let mut engine = Engine::with_global_cache(config.jobs);
        if let Some(tracer) = &tracer {
            engine = engine.with_tracer(tracer.clone());
        }
        let state = Arc::new(ServeState {
            engine,
            kb: Mutex::new(kb),
            stats: StatsRecorder::new(),
            tracer,
            shutdown: AtomicBool::new(false),
            peers: Mutex::new(HashMap::new()),
            next_peer: AtomicU64::new(0),
            compacting: AtomicBool::new(false),
            last_compact: Mutex::new(Instant::now()),
            local_addr,
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0 to the picked ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Serves until a `shutdown` request arrives, then persists the
    /// knowledge base (when store-backed) and returns the final stats.
    pub fn run(self) -> ServeStats {
        let Server { listener, state } = self;
        let handlers = state.config.handlers.max(1);
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|scope| {
            for _ in 0..handlers {
                let rx = Arc::clone(&rx);
                let state = Arc::clone(&state);
                scope.spawn(move || loop {
                    let conn = rx.lock().expect("handler queue lock poisoned").recv();
                    match conn {
                        Ok(stream) => handle_connection(&state, stream),
                        Err(_) => break,
                    }
                });
            }
            for stream in listener.incoming() {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        if tx.send(stream).is_err() {
                            break;
                        }
                    }
                    Err(e) => eprintln!("serve: accept failed: {e}"),
                }
            }
            drop(tx);
        });
        // Final persistence of a store-backed base.
        if let Some(path) = &state.config.kb_path {
            if let Err(e) = state.lock_kb().save(path) {
                eprintln!("serve: final knowledge save failed: {e}");
            }
        }
        if let Some(tracer) = &state.tracer {
            tracer.flush();
        }
        final_stats(&state)
    }
}

/// The longest request line the daemon reads, in bytes (newline
/// excluded). A peer that sends more without a newline gets an error
/// response and is disconnected, so no peer can grow the daemon's memory
/// without limit.
pub const MAX_REQUEST_LINE: u64 = 1 << 20;

/// What one read from a connection produced.
enum Incoming {
    /// A request line, without its line ending.
    Line(String),
    /// More than [`MAX_REQUEST_LINE`] bytes arrived without a newline.
    TooLong,
    /// The peer hung up, the read failed, or the line was not UTF-8.
    Closed,
}

fn read_request_line(reader: &mut impl BufRead) -> Incoming {
    let mut buf = Vec::new();
    match reader
        .take(MAX_REQUEST_LINE + 1)
        .read_until(b'\n', &mut buf)
    {
        Ok(0) | Err(_) => return Incoming::Closed,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() as u64 > MAX_REQUEST_LINE {
        return Incoming::TooLong;
    }
    String::from_utf8(buf).map_or(Incoming::Closed, Incoming::Line)
}

/// Records a second handle on `stream` so [`initiate_shutdown`] can
/// close it. Returns `None`, and the caller drops the connection unread,
/// when the daemon is already shutting down. The flag is read under the
/// peer lock that `initiate_shutdown` takes after setting it, so no
/// connection can register after the shutdown closed the others.
fn register_peer(state: &ServeState, stream: &TcpStream) -> Option<u64> {
    let handle = match stream.try_clone() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("serve: cannot clone connection: {e}");
            return None;
        }
    };
    let mut peers = state.lock_peers();
    if state.shutdown.load(Ordering::SeqCst) {
        return None;
    }
    let id = state.next_peer.fetch_add(1, Ordering::Relaxed);
    peers.insert(id, handle);
    Some(id)
}

/// Serves one connection until it ends, holding it in the peer table
/// meanwhile.
fn handle_connection(state: &Arc<ServeState>, stream: TcpStream) {
    let Some(peer) = register_peer(state, &stream) else {
        return;
    };
    serve_connection(state, stream);
    state.lock_peers().remove(&peer);
}

/// Serves one connection: request lines in, response lines out, until
/// the peer hangs up, sends an over-long line, or the daemon shuts down.
fn serve_connection(state: &Arc<ServeState>, stream: TcpStream) {
    // Bind this handler thread to the daemon's trace sink: every span
    // opened while serving this connection (repair pipeline included)
    // lands in the shared JSONL file. A no-op when tracing is off.
    let _trace_scope = state.tracer.as_ref().map(rb_obs::trace::scope);
    let _ = stream.set_nodelay(true);
    let mut reader = match stream.try_clone() {
        Ok(read_half) => BufReader::new(read_half),
        Err(e) => {
            eprintln!("serve: cannot clone connection: {e}");
            return;
        }
    };
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match read_request_line(&mut reader) {
            Incoming::Line(line) => line,
            Incoming::TooLong => {
                let started = Instant::now();
                let message = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
                let _ =
                    writeln!(writer, "{}", error_response(&message)).and_then(|()| writer.flush());
                state
                    .stats
                    .record_request(Verb::Error, started.elapsed().as_secs_f64() * 1e3);
                break;
            }
            Incoming::Closed => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let (response, verb) = {
            let mut span = rb_obs::span("serve.request");
            let (response, verb) = dispatch(state, &line);
            span.tag("verb", verb.label());
            span.tag("ok", if verb == Verb::Error { "false" } else { "true" });
            (response, verb)
        };
        state
            .stats
            .record_request(verb, started.elapsed().as_secs_f64() * 1e3);
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        if verb == Verb::Shutdown {
            initiate_shutdown(state);
            break;
        }
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
}

/// Routes one request line to its verb handler; errors become the
/// uniform `{"ok":false,...}` response and count as [`Verb::Error`].
fn dispatch(state: &Arc<ServeState>, line: &str) -> (String, Verb) {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(e) => return (error_response(&e), Verb::Error),
    };
    match request {
        Request::Repair {
            source,
            reference,
            seed,
        } => match handle_repair(state, &source, &reference, seed) {
            Ok(response) => (response, Verb::Repair),
            Err(e) => (error_response(&e), Verb::Error),
        },
        Request::Batch {
            seed,
            per_class,
            classes,
        } => match handle_batch(state, seed, per_class, classes.as_deref()) {
            Ok((response, cases)) => (response, Verb::Batch(cases)),
            Err(e) => (error_response(&e), Verb::Error),
        },
        Request::Analyze { source } => match handle_analyze(&source) {
            Ok(response) => (response, Verb::Analyze),
            Err(e) => (error_response(&e), Verb::Error),
        },
        Request::Stats => (stats_response(state), Verb::Stats),
        Request::Metrics => (metrics_response(state), Verb::Metrics),
        Request::Compact => match compact_now(state, false) {
            Ok(response) => (response, Verb::Compact),
            Err(e) => (error_response(&e), Verb::Error),
        },
        Request::Shutdown => (shutdown_response(state), Verb::Shutdown),
    }
}

/// The repair configuration a request seed maps to — identical to the
/// CLI's defaults, so a daemon repair and a one-shot `rustbrain repair`
/// of the same program agree.
fn brain_config(seed: u64) -> RustBrainConfig {
    let mut config = RustBrainConfig::for_model(ModelId::Gpt4, seed);
    config.temperature = 0.5;
    config.use_knowledge = true;
    config
}

fn handle_repair(
    state: &Arc<ServeState>,
    source: &str,
    reference: &[String],
    seed: u64,
) -> Result<String, String> {
    let program = parse_program(source).map_err(|e| format!("parse error: {e}"))?;
    let oracle = state.engine.shared_oracle();
    // Call-site span: this initial judgement goes through
    // `Oracle::judge` directly, not the instrumented `judge_recording`
    // seam, so it must account for itself.
    let report = {
        let mut span = rb_obs::span("oracle.judge");
        let report = oracle.judge(&program);
        span.tag(
            "verdict",
            report.primary().map_or("pass", |e| e.class().label()),
        );
        report
    };
    if report.passes() {
        return Ok(
            "{\"ok\":true,\"verb\":\"repair\",\"already_clean\":true,\"passed\":true}".to_owned(),
        );
    }
    let class = report.primary().map_or(UbClass::Compile, |e| e.class());
    let snapshot = state.lock_kb().snapshot();
    let mut brain =
        RustBrain::with_oracle(brain_config(seed), oracle).with_knowledge_base(snapshot);
    let outcome = brain.repair(&program, reference);
    let delta = brain.knowledge().delta();
    if !delta.is_empty() {
        let merged = state.lock_kb().merge(&delta, state.engine.merge_policy());
        state.stats.record_merged_inserts(merged as u64);
    }
    state.stats.record_oracle(
        0,
        0,
        outcome.oracle_executed as u64,
        outcome.oracle_cached as u64,
        outcome.oracle_prevetoed as u64,
    );
    maybe_compact(state);
    Ok(format!(
        concat!(
            "{{\"ok\":true,\"verb\":\"repair\",\"passed\":{},\"acceptable\":{},",
            "\"class\":{},\"overhead_ms\":{},\"oracle_runs\":{},",
            "\"solutions_tried\":{},\"kb_queries\":{},\"repaired\":{}}}"
        ),
        outcome.passed,
        outcome.acceptable,
        fmt_str(class.label()),
        fmt_num(outcome.overhead_ms),
        outcome.oracle_runs,
        outcome.solutions_tried,
        outcome.kb_queries,
        fmt_str(&print_program(&outcome.final_program)),
    ))
}

/// The `analyze` verb: the oracle's findings on the source
/// (`rb_lint::analyze`) and the first finding's class as `top_class`. The
/// lint runs the interpreter directly, so no engine or knowledge-base
/// state is touched and no oracle judgement is recorded.
fn handle_analyze(source: &str) -> Result<String, String> {
    let program = parse_program(source).map_err(|e| format!("parse error: {e}"))?;
    let analysis = rb_lint::analyze(&program);
    let top_class = analysis
        .top()
        .map_or_else(|| "null".to_owned(), |f| fmt_str(f.class.label()));
    Ok(format!(
        "{{\"ok\":true,\"verb\":\"analyze\",\"top_class\":{},\"analysis\":{}}}",
        top_class,
        analysis_json(&analysis),
    ))
}

fn handle_batch(
    state: &Arc<ServeState>,
    seed: u64,
    per_class: usize,
    classes: Option<&[UbClass]>,
) -> Result<(String, u64), String> {
    let corpus = match classes {
        Some(classes) => Corpus::generate(seed, per_class, classes),
        None => Corpus::generate_full(seed, per_class),
    };
    let spec = SystemSpec::brain(brain_config(seed));
    let snapshot = state.lock_kb().snapshot();
    let outcome = state
        .engine
        .run_batch_learned(&spec, &corpus.cases, seed, &snapshot);
    // Merge learning back into the resident base: the same
    // submission-order multiset merge the engine applied to the
    // snapshot, so sequential daemon traffic evolves the base exactly
    // like the equivalent CLI batch chain would.
    let deltas: Vec<_> = outcome
        .jobs
        .iter()
        .filter_map(|j| j.kb_delta.as_ref())
        .filter(|d| !d.is_empty())
        .collect();
    let kb_entries = {
        let mut kb = state.lock_kb();
        if !deltas.is_empty() {
            let merged = kb.merge_all(deltas.iter().copied(), state.engine.merge_policy());
            state.stats.record_merged_inserts(merged as u64);
        }
        kb.len()
    };
    state.stats.record_oracle(
        outcome.stats.cache.hits,
        outcome.stats.cache.misses,
        outcome.stats.oracle_executed,
        outcome.stats.oracle_cached,
        outcome.stats.oracle_prevetoed,
    );
    maybe_compact(state);
    let (pass_rate, exec_rate) = rates(&outcome.results);
    let cases = outcome.results.len() as u64;
    // `results_json` embeds the engine's canonical results document
    // verbatim (as an escaped string): a client that unescapes it holds
    // the same bytes `rustbrain batch --results-out` writes, which is
    // what the CI smoke job diffs.
    let response = format!(
        concat!(
            "{{\"ok\":true,\"verb\":\"batch\",\"cases\":{},\"pass_rate\":{},",
            "\"exec_rate\":{},\"wall_ms\":{},\"kb_entries\":{},",
            "\"results_json\":{},\"stats_json\":{}}}"
        ),
        cases,
        fmt_num(pass_rate),
        fmt_num(exec_rate),
        fmt_num(outcome.stats.wall_ms),
        kb_entries,
        fmt_str(&results_to_json(&outcome.results)),
        fmt_str(&outcome.stats.to_json()),
    );
    Ok((response, cases))
}

/// Mean pass / acceptability over a result set (empty → zeros), the
/// same definition `rb_bench::overall_rates` uses.
fn rates(results: &[rb_engine::CaseResult]) -> (f64, f64) {
    if results.is_empty() {
        return (0.0, 0.0);
    }
    let n = results.len() as f64;
    let passed = results.iter().filter(|r| r.passed).count() as f64;
    let acceptable = results.iter().filter(|r| r.acceptable).count() as f64;
    (passed / n, acceptable / n)
}

/// Snapshots the recorder and fills in the knowledge-base gauges only
/// the base itself knows, plus the resident tracer's span counts when
/// `--trace-out` is active.
fn serve_stats(state: &Arc<ServeState>) -> ServeStats {
    let mut stats = state.stats.snapshot();
    if let Some(tracer) = &state.tracer {
        stats.trace_active = true;
        stats.trace_spans = tracer.spans_emitted();
    }
    let kb = state.lock_kb();
    stats.kb_entries = kb.len();
    stats.kb_weight = kb.total_weight();
    stats
}

fn stats_response(state: &Arc<ServeState>) -> String {
    format!(
        "{{\"ok\":true,\"verb\":\"stats\",\"serve\":{}}}",
        serve_stats(state).to_json()
    )
}

/// The `metrics` verb: Prometheus-style exposition text (the
/// process-global registry — per-UbClass repair/oracle latency
/// histograms — concatenated with this daemon's own request counters,
/// which are per-recorder so cohabiting daemons stay hermetic), plus
/// both registries as structured JSON.
fn metrics_response(state: &Arc<ServeState>) -> String {
    let global = rb_obs::metrics();
    let serve = state.stats.registry();
    let exposition = format!("{}{}", global.prometheus(), serve.prometheus());
    format!(
        "{{\"ok\":true,\"verb\":\"metrics\",\"exposition\":{},\"global\":{},\"serve\":{}}}",
        fmt_str(&exposition),
        global.to_json(),
        serve.to_json(),
    )
}

fn shutdown_response(state: &Arc<ServeState>) -> String {
    format!(
        "{{\"ok\":true,\"verb\":\"shutdown\",\"serve\":{}}}",
        serve_stats(state).to_json()
    )
}

/// Flips the shutdown flag, shuts down every registered connection (a
/// handler blocked reading from an idle peer then sees end of stream),
/// and pokes the accept loop awake with a throwaway self-connection, so
/// `run` returns promptly.
fn initiate_shutdown(state: &Arc<ServeState>) {
    state.shutdown.store(true, Ordering::SeqCst);
    for peer in state.lock_peers().values() {
        let _ = peer.shutdown(Shutdown::Both);
    }
    let _ = TcpStream::connect(state.local_addr);
}

/// Runs the time trigger; at most one compaction is in flight, paid for
/// by the handler thread whose request tripped it (other handler threads
/// keep serving).
fn maybe_compact(state: &Arc<ServeState>) {
    let secs = state.config.compact_secs;
    let due = secs > 0
        && state
            .last_compact
            .lock()
            .expect("compaction clock lock poisoned")
            .elapsed()
            .as_secs()
            >= secs;
    if !due {
        return;
    }
    if state.compacting.swap(true, Ordering::SeqCst) {
        return;
    }
    let result = compact_now(state, true);
    state.compacting.store(false, Ordering::SeqCst);
    if let Err(e) = result {
        eprintln!("serve: triggered compaction failed: {e}");
    }
}

/// Re-normalizes the resident base under the compaction policy, and
/// persists it (atomic swap-in) when the base is store-backed.
fn compact_now(state: &Arc<ServeState>, triggered: bool) -> Result<String, String> {
    let policy = MergePolicy::compaction(COMPACTION_COALESCE_THRESHOLD);
    let mut kb = state.lock_kb();
    let entries_before = kb.len();
    let weight_before = kb.total_weight();
    let coalesced = kb.compact(&policy);
    let (written, skipped) = match &state.config.kb_path {
        Some(path) => {
            let report = kb.save_reported(path).map_err(|e| e.to_string())?;
            (report.shards_written, report.shards_skipped)
        }
        None => (0, 0),
    };
    let entries_after = kb.len();
    let weight_after = kb.total_weight();
    drop(kb);
    *state
        .last_compact
        .lock()
        .expect("compaction clock lock poisoned") = Instant::now();
    state.stats.record_compaction(triggered);
    Ok(format!(
        concat!(
            "{{\"ok\":true,\"verb\":\"compact\",\"triggered\":{},",
            "\"entries_before\":{},\"entries_after\":{},\"coalesced\":{},",
            "\"weight_before\":{},\"weight_after\":{},",
            "\"shards_written\":{},\"shards_skipped\":{}}}"
        ),
        triggered,
        entries_before,
        entries_after,
        coalesced,
        weight_before,
        weight_after,
        written,
        skipped,
    ))
}

fn final_stats(state: &Arc<ServeState>) -> ServeStats {
    serve_stats(state)
}

/// Seeds a corpus batch through a plain engine — a convenience for
/// tests and the smoke harness to produce a store the daemon can then
/// load.
pub fn seed_store(
    path: &std::path::Path,
    seed: u64,
    per_class: usize,
    classes: &[UbClass],
) -> Result<usize, String> {
    let corpus = Corpus::generate(seed, per_class, classes);
    let spec = SystemSpec::brain(brain_config(seed));
    let engine = Engine::new(2);
    let outcome = engine.run_batch_learned(&spec, &corpus.cases, seed, &KnowledgeBase::new());
    outcome
        .knowledge
        .save_reported(path)
        .map_err(|e| e.to_string())?;
    Ok(outcome.knowledge.len())
}

/// Reference cases for driving a daemon in tests: `(source, reference)`
/// pairs for a class, rendered exactly how a socket client would send
/// them.
#[must_use]
pub fn corpus_requests(seed: u64, per_class: usize, class: UbClass) -> Vec<(String, Vec<String>)> {
    let corpus = Corpus::generate(seed, per_class, &[class]);
    corpus
        .cases
        .iter()
        .map(|case| (print_program(&case.buggy), gold_outputs(case)))
        .collect()
}

/// The gold program's outputs — the acceptability reference a client
/// would pass alongside the buggy source.
#[must_use]
pub fn gold_outputs(case: &UbCase) -> Vec<String> {
    rb_miri::run_program(&case.gold).outputs.clone()
}
