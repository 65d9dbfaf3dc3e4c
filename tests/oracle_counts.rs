//! Every oracle judgement is counted once, and every count that reports
//! it agrees: a daemon's own oracle split equals the process-wide
//! `rustbrain_oracle_judgements_total` series, a batch without a cache
//! reports no cache, and a cached batch's hit rate is its own split's.
//!
//! Each test runs the `rustbrain` binary, so the process-wide metrics
//! registry it reads belongs to that process alone.

use rb_obs::json::{parse, Value};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};

/// The dangling-pointer program CI's serve smoke repairs (expected
/// output `5`).
const DEMO: &str = "fn main() {\n    let q: *const i32 = 0 as *const i32;\n    \
                    { let x: i32 = 5; q = &raw const x; }\n    unsafe { print(*q); }\n}\n";

fn rustbrain() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rustbrain"))
}

/// A directory of this test's own.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rb_oracle_counts_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `rustbrain` with `args` and returns its stdout; panics when it
/// exits non-zero.
fn run(args: &[&str]) -> String {
    let out = rustbrain().args(args).output().expect("running rustbrain");
    assert!(
        out.status.success(),
        "rustbrain {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A `rustbrain serve` child, killed if the test ends before it is shut
/// down.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Daemon {
    fn start() -> Daemon {
        let mut child = rustbrain()
            .args(["serve", "--addr", "127.0.0.1:0", "--jobs", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("starting rustbrain serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .expect("reading the serve banner");
        let addr = line
            .strip_prefix("serving on ")
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("unexpected serve banner {line:?}"))
            .to_owned();
        Daemon {
            child,
            stdout,
            addr,
        }
    }

    /// Runs `rustbrain client <verb> ... --addr <daemon>` and parses its
    /// answer.
    fn client(&self, args: &[&str]) -> Value {
        let mut argv = vec!["client"];
        argv.extend_from_slice(args);
        argv.extend_from_slice(&["--addr", &self.addr]);
        let answer = run(&argv);
        parse(answer.trim()).unwrap_or_else(|e| panic!("{args:?} answered {answer:?}: {e:?}"))
    }

    fn shutdown(mut self) {
        self.client(&["shutdown"]);
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        assert!(self.child.wait().expect("waiting for serve").success());
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn count(v: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no count at {path:?}"))
}

#[test]
fn daemon_oracle_split_equals_the_global_series() {
    let dir = scratch_dir("daemon");
    let demo = dir.join("demo.mrs");
    std::fs::write(&demo, DEMO).unwrap();
    let demo = demo.to_str().unwrap();

    let daemon = Daemon::start();
    daemon.client(&["batch", "--per-class", "2"]);
    let first = daemon.client(&["repair", demo, "--reference", "5"]);
    let second = daemon.client(&["repair", demo, "--reference", "5"]);
    assert_eq!(first, second, "a repeated repair answered differently");
    daemon.client(&["analyze", demo]);
    let stats = daemon.client(&["stats"]);
    let metrics = daemon.client(&["metrics"]);
    daemon.shutdown();

    let split = |result: &str| count(&stats, &["serve", "oracle", result]);
    let global = |result: &str| {
        let series = format!("rustbrain_oracle_judgements_total{{result=\"{result}\"}}");
        count(&metrics, &["global", "counters", &series])
    };
    assert_eq!(
        (split("executed"), split("cached")),
        (global("executed"), global("cached")),
        "the daemon's oracle split disagrees with the process-wide series"
    );
    assert!(split("executed") > 0 && split("cached") > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_batch_reports_no_cache() {
    let dir = scratch_dir("no_cache");
    let stats_path = dir.join("stats.json");
    let stdout = run(&[
        "batch",
        "--per-class",
        "1",
        "--no-cache",
        "--stats-out",
        stats_path.to_str().unwrap(),
    ]);
    assert!(!stdout.contains("cache hit rate"), "{stdout}");
    let text = std::fs::read_to_string(&stats_path).unwrap();
    let stats = parse(text.trim()).unwrap();
    assert!(stats.get("cache").is_none(), "{text}");
    assert_eq!(count(&stats, &["oracle", "cached"]), 0);
    assert!(count(&stats, &["oracle", "executed"]) > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_batch_hit_rate_is_its_own_split() {
    let dir = scratch_dir("cached");
    let stats_path = dir.join("stats.json");
    let stdout = run(&[
        "batch",
        "--per-class",
        "2",
        "--stats-out",
        stats_path.to_str().unwrap(),
    ]);
    let text = std::fs::read_to_string(&stats_path).unwrap();
    let stats = parse(text.trim()).unwrap();
    let executed = count(&stats, &["oracle", "executed"]);
    let cached = count(&stats, &["oracle", "cached"]);
    assert!(
        stdout.contains(&format!(
            "oracle judgements: {executed} executed / {cached} cached"
        )),
        "{stdout}"
    );
    assert!(cached > 0, "a batch re-judges its states: {text}");
    let split = 100.0 * cached as f64 / (executed + cached) as f64;
    assert!(
        stdout.contains(&format!("cache hit rate: {split:.1}%")),
        "{stdout}"
    );
    assert!(count(&stats, &["cache", "entries"]) > 0, "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}
