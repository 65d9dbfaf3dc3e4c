//! `rustbrain trace check` and `trace summarize` on hostile trace files:
//! nesting past the JSON depth bound is a typed error with exit status 2,
//! never an abort, and a trace that violates the tracer's contract exits 1
//! from both verbs.

use rb_obs::analyze::MAX_JSON_DEPTH;
use std::path::PathBuf;
use std::process::{Command, Output};

/// A one-span trace whose span carries a field nested `levels` arrays
/// deep.
fn trace_with_nesting(levels: usize) -> String {
    format!(
        "{{\"id\":1,\"parent\":null,\"name\":\"a\",\"t_us\":0,\"wall_us\":5,\
         \"sim_ms\":1.0,\"tags\":{{}},\"deep\":{}{}}}\n",
        "[".repeat(levels),
        "]".repeat(levels)
    )
}

/// Writes `trace` to a file of its own and runs `trace <verb>` on it.
fn trace_verb(verb: &str, name: &str, trace: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("rb_trace_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{verb}_{name}"));
    std::fs::write(&path, trace).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rustbrain"))
        .args(["trace", verb])
        .arg(&path)
        .output()
        .expect("running the rustbrain binary");
    let _ = std::fs::remove_file(&path);
    out
}

/// Runs `trace check` on `trace`.
fn trace_check(name: &str, trace: &str) -> Output {
    trace_verb("check", name, trace)
}

#[test]
fn trace_check_accepts_nesting_at_the_limit() {
    let out = trace_check("at_limit.jsonl", &trace_with_nesting(MAX_JSON_DEPTH));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("trace ok"), "{stdout}");
}

#[test]
fn trace_check_rejects_nesting_past_the_limit() {
    for (name, levels) in [
        ("over.jsonl", MAX_JSON_DEPTH + 1),
        ("hostile.jsonl", 200_000),
    ] {
        let out = trace_check(name, &trace_with_nesting(levels));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{levels} levels: {stderr}");
        assert!(
            stderr.contains("trace line 1: JSON nests deeper than 64 levels"),
            "{levels} levels: {stderr}"
        );
    }
}

#[test]
fn contract_violations_fail_check_and_summarize() {
    // A repair span whose only child covers half of its sim-ms, under the
    // 95% coverage gate.
    let uncovered = "{\"id\":1,\"parent\":null,\"name\":\"repair\",\"t_us\":0,\
                     \"wall_us\":5,\"sim_ms\":10.0,\"tags\":{}}\n\
                     {\"id\":2,\"parent\":1,\"name\":\"fast\",\"t_us\":1,\
                     \"wall_us\":2,\"sim_ms\":5.0,\"tags\":{}}\n";
    for (name, trace, violation) in [
        ("empty.jsonl", "", "VIOLATION: trace is empty"),
        (
            "uncovered.jsonl",
            uncovered,
            "VIOLATION: repair span 1 children cover",
        ),
    ] {
        for verb in ["check", "summarize"] {
            let out = trace_verb(verb, name, trace);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert_eq!(out.status.code(), Some(1), "{verb} {name}: {stdout}");
            assert!(stdout.contains(violation), "{verb} {name}: {stdout}");
        }
    }
}
