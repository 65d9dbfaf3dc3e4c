//! The `serve-mixed` workload: the shipped `rustbrain serve` daemon as a
//! child process, a store-backed KB seeded with `rb_serve::seed_store`,
//! time-triggered compaction, and an open-loop load of 70% `repair`, 25%
//! `analyze` and 5% `stats` requests over as many connections as the
//! daemon has handlers.
//!
//! The load generator uses two threads: one sends each request at its due
//! time, the other waits on both connections and timestamps responses as
//! they arrive, so a slow daemon never slows the schedule. Latency is
//! timed from each request's due time. Every read has a deadline, and shutdown goes out on
//! the last open connection after the other is closed: an idle peer would
//! hold a handler and delay the daemon's exit.
//!
//! `BENCHMARK.json` does not gate this workload: on a shared host its
//! timings spread too far from run to run to hold a bound. The traced
//! `batch-warm` run holds a traced session of it for the daemon's
//! per-layer numbers.

use std::hint::black_box;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rb_dataset::Corpus;
use rb_engine::derive_case_seed;
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_lang::Program;
use rb_miri::{run_program, UbClass};
use rb_serve::client::{analyze_request, repair_request, shutdown_request, stats_request};
use rb_serve::json::{self, Value};
use rustbrain::{KbDelta, KnowledgeBase};

use crate::replay::{kb_merge_ms, kb_store_costs, replay_layers};
use crate::report::{fast_quartile, median, peak_rss_mb, quantile, ratio, Faster, Report};

/// Request corpus: 14 classes x 1,200 = 16,800 buggy programs, so the
/// half of all repairs that are fresh do not run out within a run.
const PER_CLASS: usize = 1200;
/// Cases per class `rb_serve::seed_store` learns the daemon's KB from.
const STORE_PER_CLASS: usize = 4;
/// The daemon compacts (and saves its store) this often.
const COMPACT_SECS: u64 = 2;
/// The CLI's fixed handler pool; the load never opens more connections.
const CONNECTIONS: usize = 2;
/// Full set-ups per run (corpus, store, daemon up to `serving on`); each
/// takes under a second, so the median is taken over five.
const SETUPS: usize = 5;

/// The fixed offered rate latency is reported at: a fifth or less of the
/// 5,000-7,000 rps the daemon sustains on a contended 2-core host, so the
/// headline times service rather than queueing. At 2,000 and 3,000 rps the
/// run-to-run spread of the tail was no smaller.
const HEADLINE_RPS: f64 = 1000.0;
/// A ladder probe passes while p99 latency (from due time) stays under
/// this limit and the generator keeps to its schedule.
const P99_LIMIT_MS: f64 = 20.0;
/// Rate ladder: `LADDER_BASE * LADDER_STEP^k` for k < `LADDER_STEPS`
/// (1,000 to 16,400 rps in 4% steps), searched by bisection and then a
/// staircase.
const LADDER_BASE: f64 = 1000.0;
const LADDER_STEP: f64 = 1.04;
const LADDER_STEPS: usize = 72;
const PROBE_S: f64 = 0.5;
/// The staircase probes at least this often, however short the run.
const MIN_STAIRCASE: usize = 8;
/// Untimed (but checked) traffic at the headline rate before the
/// headline phase: the first requests fault the daemon's store in.
const WARMUP_S: f64 = 1.0;
/// Share of `--seconds` for the headline phase; the ladder gets the rest.
const HEADLINE_SHARE: f64 = 0.5;
/// Headline latency percentiles are taken per window of this length
/// (1,000 requests, so p99 rests on the 10 slowest), and the run reports
/// the windows' fast quartile: a host stall spoils a window, not the run.
const WINDOW_S: f64 = 1.0;
/// Distinct sent programs the traced run replays through the layers.
const REPLAY_PROGRAMS: usize = 3000;
/// A request without a response this long after its due time fails.
const READ_DEADLINE: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verb {
    Repair,
    Analyze,
    Stats,
}

#[derive(Clone, Copy, Debug)]
struct Request {
    verb: Verb,
    /// Corpus case the request carries (unused for `stats`).
    case: usize,
}

/// The request corpus with every line rendered before timing starts.
struct Lines {
    sources: Vec<String>,
    gold: Vec<Vec<String>>,
    repair: Vec<String>,
    analyze: Vec<String>,
    stats: String,
}

impl Lines {
    fn build(seed: u64) -> Lines {
        let corpus = Corpus::generate_full(seed, PER_CLASS);
        let sources: Vec<String> = corpus
            .cases
            .iter()
            .map(|c| print_program(&c.buggy))
            .collect();
        let gold: Vec<Vec<String>> = corpus.cases.iter().map(|c| c.gold_outputs()).collect();
        let repair = corpus
            .cases
            .iter()
            .zip(&sources)
            .zip(&gold)
            .map(|((case, src), gold)| {
                // The wire format carries integers exactly up to 2^53.
                let request_seed = derive_case_seed(seed, &case.id) >> 11;
                repair_request(src, gold, request_seed)
            })
            .collect();
        let analyze = sources.iter().map(|s| analyze_request(s)).collect();
        Lines {
            sources,
            gold,
            repair,
            analyze,
            stats: stats_request(),
        }
    }

    fn line(&self, r: Request) -> &str {
        match r.verb {
            Verb::Repair => &self.repair[r.case],
            Verb::Analyze => &self.analyze[r.case],
            Verb::Stats => &self.stats,
        }
    }
}

/// The seeded request stream: the verb mix, and for `repair` half fresh
/// programs (the next unsent corpus case) and half resends of an earlier
/// one. Once the corpus is used up every repair is a resend.
struct Mix {
    state: u64,
    cases: usize,
    fresh: usize,
}

impl Mix {
    fn new(seed: u64, cases: usize) -> Mix {
        Mix {
            state: seed ^ 0x5EED_5E4E_u64,
            cases,
            fresh: 0,
        }
    }

    /// splitmix64, as a uniform draw in [0, 1).
    fn uniform(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn pick(&mut self, n: usize) -> usize {
        ((self.uniform() * n as f64) as usize).min(n - 1)
    }

    fn next(&mut self) -> Request {
        let u = self.uniform();
        if u < 0.70 {
            let fresh = self.fresh == 0 || (self.fresh < self.cases && self.uniform() < 0.5);
            let case = if fresh {
                self.fresh += 1;
                self.fresh - 1
            } else {
                self.pick(self.fresh)
            };
            Request {
                verb: Verb::Repair,
                case,
            }
        } else if u < 0.95 {
            Request {
                verb: Verb::Analyze,
                case: self.pick(self.cases),
            }
        } else {
            Request {
                verb: Verb::Stats,
                case: 0,
            }
        }
    }

    fn take(&mut self, n: usize) -> Vec<Request> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// The daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    /// Spawns `rustbrain serve` and waits for its `serving on` line.
    fn spawn(exe: &Path, store: &Path, jobs: usize) -> Result<Daemon, String> {
        let mut child = Command::new(exe)
            .args(["serve", "--addr", "127.0.0.1:0", "--kb"])
            .arg(store)
            .args(["--compact-secs", &COMPACT_SECS.to_string()])
            .args(["--jobs", &jobs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        if daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("the daemon exited before serving".into());
        }
        daemon.addr = line
            .strip_prefix("serving on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner: {line:?}"))?
            .to_owned();
        Ok(daemon)
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_DEADLINE))
            .and_then(|()| stream.set_write_timeout(Some(READ_DEADLINE)))
            .map_err(|e| e.to_string())?;
        Ok(stream)
    }

    /// Sends `shutdown` on `last` (every other connection already closed)
    /// and waits for the process to exit.
    fn shutdown(mut self, mut last: TcpStream) -> Result<(), String> {
        let reply = call(&mut last, &shutdown_request())?;
        if !reply.contains("\"ok\":true") {
            return Err(format!("shutdown refused: {reply}"));
        }
        drop(last);
        // The final stats line fits the pipe buffer, so stdout need not be
        // drained for the daemon to exit.
        let deadline = Instant::now() + READ_DEADLINE;
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("the daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One blocking request/response on a connection with a read deadline.
fn call(stream: &mut TcpStream, line: &str) -> Result<String, String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return Err("the daemon closed the connection".into()),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => reply.push(byte[0]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("no reply within the deadline: {e}")),
        }
    }
    String::from_utf8(reply).map_err(|e| e.to_string())
}

/// One answered request of a phase; times in ms from the phase start.
struct Sample {
    index: usize,
    due: f64,
    sent: f64,
    recv: f64,
    response: String,
}

/// The outcome of one open-loop phase.
struct Phase {
    seconds: f64,
    samples: Vec<Sample>,
    /// Most requests due but not yet answered at any moment.
    backlog_max: usize,
    /// Requests without a response by their deadline.
    missed: usize,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.recv - s.due).collect()
    }

    /// Latencies grouped into `WINDOW_S` windows by due time; a trailing
    /// partial window is dropped.
    fn windows(&self) -> Vec<Vec<f64>> {
        let width = WINDOW_S * 1e3;
        let full = (self.samples.last().map_or(0.0, |s| s.due) / width).floor() as usize;
        let mut windows = vec![Vec::new(); full];
        for s in &self.samples {
            if let Some(w) = windows.get_mut((s.due / width) as usize) {
                w.push(s.recv - s.due);
            }
        }
        windows
    }

    /// Quantile `q` of latency in each window, then the windows' fast
    /// quartile.
    fn window_latency(&self, q: f64) -> f64 {
        let per_window: Vec<f64> = self.windows().iter().map(|w| quantile(w, q)).collect();
        fast_quartile(&per_window, Faster::Lower)
    }

    fn late(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| (s.sent - s.due).max(0.0))
            .collect()
    }
}

/// `struct pollfd` of poll(2).
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: u64, timeout_ms: i32) -> i32;
}

/// Waits until one of `conns` is readable (or `timeout_ms` passes) and
/// returns which ones are. The standard library has no readiness wait,
/// and a sleep-and-retry loop would add its sleep to every latency.
fn readable(conns: &[TcpStream], timeout_ms: i32) -> Result<[bool; CONNECTIONS], String> {
    let mut fds = [0, 1].map(|c| PollFd {
        fd: conns[c].as_raw_fd(),
        events: POLLIN,
        revents: 0,
    });
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd` structs with the C layout, and poll(2) reads and writes
    // only within that length.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
    if n < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != ErrorKind::Interrupted {
            return Err(format!("poll: {e}"));
        }
    }
    Ok(fds.map(|f| f.revents != 0))
}

/// Sends request `i` at its due time on connection `i % CONNECTIONS`;
/// returns each send time in ms from `start`.
fn send_all(
    conns: &[TcpStream],
    reqs: &[Request],
    lines: &Lines,
    rate: f64,
    start: Instant,
) -> Result<Vec<f64>, String> {
    let mut sent = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let mut conn = &conns[i % CONNECTIONS];
        conn.write_all(format!("{}\n", lines.line(*req)).as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        sent.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(sent)
}

/// Collects the responses to `n` requests. Responses on a connection come
/// in request order, so the k-th line on connection c answers request
/// `c + k * CONNECTIONS`. Gives up once the oldest unanswered request is
/// past its deadline; returns (recv time, line) per request, the largest
/// backlog seen, and how many requests went unanswered.
#[allow(clippy::type_complexity)]
fn receive_all(
    conns: &[TcpStream],
    n: usize,
    rate: f64,
    start: Instant,
) -> Result<(Vec<Option<(f64, String)>>, usize, usize), String> {
    let mut got: Vec<Option<(f64, String)>> = (0..n).map(|_| None).collect();
    let mut answered = [0usize; CONNECTIONS];
    let mut bufs: [Vec<u8>; CONNECTIONS] = Default::default();
    let mut chunk = vec![0u8; 1 << 16];
    let mut received = 0;
    let mut backlog_max = 0;
    while received < n {
        let ready = readable(conns, 50)?;
        let now = start.elapsed().as_secs_f64() * 1e3;
        for c in 0..CONNECTIONS {
            if !ready[c] {
                continue;
            }
            let read = (&conns[c])
                .read(&mut chunk)
                .map_err(|e| format!("receive: {e}"))?;
            if read == 0 {
                return Err("the daemon closed a connection mid-phase".into());
            }
            bufs[c].extend_from_slice(&chunk[..read]);
            let mut consumed = 0;
            while let Some(pos) = bufs[c][consumed..].iter().position(|&b| b == b'\n') {
                let index = c + answered[c] * CONNECTIONS;
                if index >= n {
                    return Err("a response arrived with no request in flight".into());
                }
                let line = &bufs[c][consumed..consumed + pos];
                got[index] = Some((now, String::from_utf8_lossy(line).into_owned()));
                answered[c] += 1;
                received += 1;
                consumed += pos + 1;
            }
            bufs[c].drain(..consumed);
        }
        let due_so_far = ((now * rate / 1e3) as usize + 1).min(n);
        backlog_max = backlog_max.max(due_so_far.saturating_sub(received));
        let oldest = (0..CONNECTIONS)
            .map(|c| c + answered[c] * CONNECTIONS)
            .filter(|&i| i < n)
            .min();
        if let Some(i) = oldest {
            if now - i as f64 * 1e3 / rate > READ_DEADLINE.as_secs_f64() * 1e3 {
                return Ok((got, backlog_max, n - received));
            }
        }
    }
    Ok((got, backlog_max, 0))
}

/// Offers `reqs` at `rate` over both connections: one thread sends on
/// schedule, the other receives, so a slow daemon never slows the
/// schedule.
fn run_phase(
    conns: &[TcpStream],
    reqs: &[Request],
    lines: &Lines,
    rate: f64,
) -> Result<Phase, String> {
    let start = Instant::now();
    let (sent, received) = std::thread::scope(|s| {
        let receiver = s.spawn(|| receive_all(conns, reqs.len(), rate, start));
        let sent = send_all(conns, reqs, lines, rate, start);
        (sent, receiver.join().expect("receiver thread panicked"))
    });
    let seconds = start.elapsed().as_secs_f64();
    let sent = sent?;
    let (got, backlog_max, missed) = received?;
    let samples = got
        .into_iter()
        .enumerate()
        .filter_map(|(index, g)| {
            let (recv, response) = g?;
            Some(Sample {
                index,
                due: index as f64 * 1e3 / rate,
                sent: sent[index],
                recv,
                response,
            })
        })
        .collect();
    Ok(Phase {
        seconds,
        samples,
        backlog_max,
        missed,
    })
}

/// Counts a phase's requests, and as failed each wrong or missing response.
fn check_phase(phase: &Phase, reqs: &[Request], lines: &Lines, report: &mut Report) {
    report.attempted += reqs.len() as u64;
    if phase.missed > 0 {
        report.fail(
            phase.missed as u64,
            format!(
                "{} requests missed their {READ_DEADLINE:?} deadline",
                phase.missed
            ),
        );
    }
    for s in &phase.samples {
        if let Err(why) = check_response(reqs[s.index], &s.response, lines) {
            report.fail(
                1,
                format!("request {} ({:?}): {why}", s.index, reqs[s.index].verb),
            );
        }
    }
}

fn check_response(req: Request, response: &str, lines: &Lines) -> Result<(), String> {
    let v = json::parse(response).map_err(|e| format!("bad JSON: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("error response: {response}"));
    }
    let flag = |key: &str| v.get(key).and_then(Value::as_bool);
    match req.verb {
        Verb::Repair => {
            if flag("already_clean") == Some(true) {
                return Err("a buggy corpus program was reported clean".into());
            }
            let source = v
                .get("repaired")
                .and_then(Value::as_str)
                .ok_or("repair response without `repaired`")?;
            let program = parse_program(source).map_err(|e| format!("repaired source: {e}"))?;
            let report = run_program(&program);
            if flag("passed") != Some(report.passes()) {
                return Err("`passed` disagrees with the oracle".into());
            }
            if flag("acceptable") == Some(true) && report.outputs != lines.gold[req.case] {
                return Err("`acceptable` but outputs differ from gold".into());
            }
            Ok(())
        }
        Verb::Analyze => {
            let program = parse_program(&lines.sources[req.case]).map_err(|e| e.to_string())?;
            let expected = rb_lint::analyze(&program).top().map(|f| f.class.label());
            let got = v.get("top_class").and_then(Value::as_str);
            if got == expected {
                Ok(())
            } else {
                Err(format!("top_class {got:?}, lint says {expected:?}"))
            }
        }
        Verb::Stats => v
            .get("serve")
            .map(|_| ())
            .ok_or_else(|| "stats without `serve`".into()),
    }
}

/// A ladder probe passes when every response is correct, p99 latency
/// from due time is under the limit, and the generator kept its schedule.
fn probe_passes(phase: &Phase, reqs: &[Request], lines: &Lines) -> (bool, String) {
    let mut scratch = Report::default();
    check_phase(phase, reqs, lines, &mut scratch);
    let p99 = quantile(&phase.latencies(), 0.99);
    let late = quantile(&phase.late(), 0.99);
    let pass = scratch.failed == 0 && p99 <= P99_LIMIT_MS && late <= P99_LIMIT_MS;
    let mark = if pass { "ok" } else { "FAIL" };
    (
        pass,
        format!(
            "{:.0}/s {mark} (p99 {p99:.2} ms, late p99 {late:.2} ms)",
            reqs.len() as f64 / PROBE_S
        ),
    )
}

/// The sustained rate: the ladder rate at which a probe meets the limit
/// half the time. Bisection over the ladder finds its neighbourhood, then
/// a one-step-up-after-a-pass, one-step-down-after-a-fail staircase
/// probes until `deadline`; the result is the mean rate the staircase
/// probed. A single probe is at the mercy of half a second of host
/// noise, the mean of a dozen or more is not.
fn sustained_rps(
    conns: &[TcpStream],
    mix: &mut Mix,
    lines: &Lines,
    deadline: Instant,
    report: &mut Report,
) -> Result<f64, String> {
    let rate = |k: usize| LADDER_BASE * LADDER_STEP.powi(k as i32);
    let mut probes = Vec::new();
    let mut probe = |k: usize| -> Result<bool, String> {
        let reqs = mix.take((rate(k) * PROBE_S) as usize);
        let phase = run_phase(conns, &reqs, lines, rate(k))?;
        let (pass, summary) = probe_passes(&phase, &reqs, lines);
        probes.push(summary);
        Ok(pass)
    };
    // Bisection keeps `lo` passing (or unprobed at 0) and `hi` failing.
    let (mut lo, mut hi) = (0usize, LADDER_STEPS);
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if probe(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mut k = lo;
    let mut probed = Vec::new();
    while probed.len() < MIN_STAIRCASE || Instant::now() < deadline {
        probed.push(rate(k));
        if probe(k)? {
            k = (k + 1).min(LADDER_STEPS - 1);
        } else if k == 0 {
            return Err(format!(
                "the lowest ladder rate failed: {}",
                probes.join("; ")
            ));
        } else {
            k -= 1;
        }
    }
    report.fact(format!(
        "ladder ({PROBE_S} s probes, 4% steps, p99 limit {P99_LIMIT_MS} ms): {}",
        probes.join("; ")
    ));
    Ok(probed.iter().sum::<f64>() / probed.len() as f64)
}

/// Builds the request corpus, seeds the store and starts the daemon.
fn setup(exe: &Path, seed: u64, jobs: usize, store: &Path) -> Result<(Lines, Daemon), String> {
    let lines = Lines::build(seed);
    let _ = std::fs::remove_dir_all(store);
    rb_serve::seed_store(store, seed ^ 0x51_0E, STORE_PER_CLASS, &UbClass::ALL)?;
    let daemon = Daemon::spawn(exe, store, jobs)?;
    Ok((lines, daemon))
}

/// `SETUPS` timed set-ups; all but the last daemon are shut down again.
fn repeated_setup(
    exe: &Path,
    seed: u64,
    jobs: usize,
    store: &Path,
) -> Result<(Lines, Daemon, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let started = Instant::now();
        let (lines, daemon) = setup(exe, seed, jobs, store)?;
        times.push(started.elapsed().as_secs_f64());
        if times.len() == SETUPS {
            return Ok((lines, daemon, times));
        }
        let conn = daemon.connect()?;
        daemon.shutdown(conn)?;
    }
}

/// The `serve` section of a `stats` response.
fn daemon_stats(conn: &mut TcpStream) -> Result<Value, String> {
    let reply = call(conn, &stats_request())?;
    json::parse(&reply)?
        .get("serve")
        .cloned()
        .ok_or_else(|| format!("stats reply without `serve`: {reply}"))
}

fn stat(stats: &Value, section: &str, key: &str) -> f64 {
    let v = if section.is_empty() {
        stats.get(key)
    } else {
        stats.get(section).and_then(|s| s.get(key))
    };
    v.and_then(Value::as_f64).unwrap_or(0.0)
}

fn median_ms(phase: &Phase, reqs: &[Request], verb: Verb) -> (f64, usize) {
    let v: Vec<f64> = phase
        .samples
        .iter()
        .filter(|s| reqs[s.index].verb == verb)
        .map(|s| s.recv - s.sent)
        .collect();
    (median(&v), v.len())
}

pub fn run(
    exe: &Path,
    seed: u64,
    seconds: f64,
    jobs: usize,
    trace: bool,
    work: &Path,
) -> Result<Report, String> {
    let mut report = Report::default();
    let store = work.join("serve.rbkb.d");
    let (lines, daemon, setup_times) = if trace {
        let started = Instant::now();
        let (lines, daemon) = setup(exe, seed, jobs, &store)?;
        (lines, daemon, vec![started.elapsed().as_secs_f64()])
    } else {
        repeated_setup(exe, seed, jobs, &store)?
    };
    let seed_kb = KnowledgeBase::load(&store).map_err(|e| format!("seed store: {e}"))?;
    let mut conns = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        conns.push(daemon.connect()?);
    }
    let mut mix = Mix::new(seed, lines.repair.len());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);

    // Warm-up, the headline phase, then (untraced runs) the capacity
    // ladder in whatever time is left.
    let warmup = mix.take((HEADLINE_RPS * WARMUP_S) as usize);
    let warm = run_phase(&conns, &warmup, &lines, HEADLINE_RPS)?;
    check_phase(&warm, &warmup, &lines, &mut report);
    let headline_s = if trace {
        seconds - WARMUP_S
    } else {
        seconds * HEADLINE_SHARE - WARMUP_S
    };
    let reqs = mix.take((HEADLINE_RPS * headline_s.max(2.0)) as usize);
    let headline = run_phase(&conns, &reqs, &lines, HEADLINE_RPS)?;
    check_phase(&headline, &reqs, &lines, &mut report);
    // A connection that missed a deadline may still deliver stale
    // responses, so nothing more is measured on it.
    let sustained = if trace || warm.missed + headline.missed > 0 {
        0.0
    } else {
        sustained_rps(&conns, &mut mix, &lines, deadline, &mut report)?
    };
    let measured_s = started.elapsed().as_secs_f64();

    let stats = daemon_stats(&mut conns[CONNECTIONS - 1])?;
    let rss = peak_rss_mb(Some(daemon.child.id()));
    let last = conns.pop().expect("CONNECTIONS > 0");
    drop(conns);
    daemon.shutdown(last)?;

    let repairs: Vec<Value> = headline
        .samples
        .iter()
        .filter(|s| reqs[s.index].verb == Verb::Repair)
        .filter_map(|s| json::parse(&s.response).ok())
        .collect();
    let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let flag = |v: &Value, k: &str| v.get(k).and_then(Value::as_bool) == Some(true);
    let n = repairs.len() as f64;
    let windows = headline.windows().len();
    report.fact(format!(
        "headline {HEADLINE_RPS} rps for {:.1} s: {} requests ({} repair, {} fresh programs), \
         daemon p99 {:.3} ms, {} compactions; measured {measured_s:.1} s",
        headline.seconds,
        reqs.len(),
        repairs.len(),
        mix.fresh,
        stat(&stats, "latency", "p99_ms"),
        stat(&stats, "", "compactions"),
    ));

    if !trace {
        report.set("setup_s", median(&setup_times), setup_times.len());
        report.set("throughput_per_s", sustained, 1);
        report.set("p50_ms", headline.window_latency(0.5), windows);
        report.set("p99_ms", headline.window_latency(0.99), windows);
        report.set(
            "sim_ms_per_case",
            ratio(repairs.iter().map(|v| field(v, "overhead_ms")).sum(), n),
            repairs.len(),
        );
        report.set(
            "pass_rate",
            ratio(
                repairs.iter().filter(|v| flag(v, "passed")).count() as f64,
                n,
            ),
            repairs.len(),
        );
        report.set(
            "exec_rate",
            ratio(
                repairs.iter().filter(|v| flag(v, "acceptable")).count() as f64,
                n,
            ),
            repairs.len(),
        );
        report.set("peak_rss_mb", rss, 1);
        return Ok(report);
    }

    // Per-layer numbers: client-side verb times, load validity, the
    // daemon's own counters, and a replay of the programs sent.
    for (name, verb) in [
        ("serve.repair_ms", Verb::Repair),
        ("serve.analyze_ms", Verb::Analyze),
        ("serve.stats_ms", Verb::Stats),
    ] {
        let (value, count) = median_ms(&headline, &reqs, verb);
        report.set(name, value, count);
    }
    let sent: Vec<&str> = reqs.iter().map(|r| lines.line(*r)).collect();
    let json_us = crate::report::us_per_call(&sent, |line| {
        black_box(json::parse(line).ok());
    });
    report.set("serve.json_us", json_us, sent.len());
    report.set("serve.compactions", stat(&stats, "", "compactions"), 1);
    let latencies = headline.latencies();
    report.set(
        "serve.req_p99_ms",
        quantile(&latencies, 0.99),
        latencies.len(),
    );
    report.set("loadgen.offered_rps", HEADLINE_RPS, reqs.len());
    report.set(
        "loadgen.achieved_rps",
        headline.samples.len() as f64 / headline.seconds,
        headline.samples.len(),
    );
    report.set(
        "loadgen.late_p99_ms",
        quantile(&headline.late(), 0.99),
        reqs.len(),
    );
    report.set(
        "loadgen.backlog_max",
        headline.backlog_max as f64,
        reqs.len(),
    );
    let executed = stat(&stats, "oracle", "executed");
    let cached = stat(&stats, "oracle", "cached");
    report.set("miri.executed", executed, 1);
    report.set("miri.prevetoed", stat(&stats, "oracle", "prevetoed"), 1);
    report.set("cache.lookups", executed + cached, 1);
    report.set(
        "cache.hit_ratio",
        ratio(cached, executed + cached),
        (executed + cached) as usize,
    );
    report.set(
        "lint.calls",
        reqs.iter().filter(|r| r.verb == Verb::Analyze).count() as f64,
        1,
    );
    report.set("kb.entries", stat(&stats, "kb", "entries"), 1);

    // The distinct programs sent, in send order, capped to bound the
    // replay; a warm-up pass precedes the untraced and traced passes.
    let mut seen = vec![false; lines.sources.len()];
    let programs: Vec<Program> = reqs
        .iter()
        .filter(|r| r.verb != Verb::Stats && !std::mem::replace(&mut seen[r.case], true))
        .take(REPLAY_PROGRAMS)
        .filter_map(|r| parse_program(&lines.sources[r.case]).ok())
        .collect();
    let final_kb = KnowledgeBase::load(&store).map_err(|e| format!("final store: {e}"))?;
    let _ = replay_layers(&programs, &final_kb, seed);
    let untraced = Instant::now();
    let _ = replay_layers(&programs, &final_kb, seed);
    let untraced_s = untraced.elapsed().as_secs_f64();
    let tracer = rb_obs::Tracer::in_memory();
    let scope = rb_obs::trace::scope(&tracer);
    let traced = Instant::now();
    let costs = replay_layers(&programs, &final_kb, seed);
    let traced_s = traced.elapsed().as_secs_f64();
    let learned = [KbDelta {
        entries: final_kb.entries().to_vec(),
    }];
    let merge_ms = kb_merge_ms(&seed_kb, &learned);
    let (save_ms, load_ms, bytes) = kb_store_costs(&final_kb, &work.join("replay.rbkb.d"))?;
    drop(scope);
    report.set("obs.trace_overhead", traced_s / untraced_s - 1.0, 1);
    report.set("obs.spans", tracer.spans_emitted() as f64, 1);
    report.set("miri.interp_us", costs.interp_us, costs.programs);
    report.set("cache.hit_us", costs.hit_us, costs.programs);
    report.set("cache.miss_us", costs.miss_us, costs.distinct);
    report.set("lint.analyze_us", costs.analyze_us, costs.programs);
    report.set("llm.propose_us", costs.propose_us, costs.failing);
    report.set("llm.apply_us", costs.apply_us, costs.apply_attempts);
    report.set("llm.apply_ratio", costs.apply_ratio, costs.apply_attempts);
    report.set("lang.parse_us", costs.parse_us, costs.programs);
    report.set("lang.print_us", costs.print_us, costs.programs);
    report.set("lang.prune_embed_us", costs.prune_embed_us, costs.failing);
    report.set("kb.query_us", costs.query_us, costs.failing);
    report.set("kb.merge_ms", merge_ms, final_kb.len());
    report.set("kb.save_ms", save_ms, 5);
    report.set("kb.load_ms", load_ms, 5);
    report.set("kb.store_bytes", bytes as f64, 1);
    // Layers this workload does not expose or never runs.
    for name in [
        "engine.batch_ms",
        "engine.job_ms_sum",
        "engine.utilization",
        "engine.overhead_ms",
        "engine.imbalance",
        "engine.steals",
        "cache.entries",
        "lint.veto_ratio",
        "llm.propose_calls",
        "core.repair_p50_us",
        "core.repair_p99_us",
        "core.self_us",
        "core.solutions_per_case",
        "core.oracle_runs_per_case",
    ] {
        report.set(name, 0.0, 0);
    }
    Ok(report)
}
