//! `rustbrain trace check` on hostile trace files: nesting past the JSON
//! depth bound is a typed error with exit status 2, never an abort.

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

/// Writes `trace` to a file of its own and runs `trace check` on it.
fn trace_check(name: &str, trace: &str) -> Output {
    let dir = std::env::temp_dir().join(format!("rb_trace_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(name);
    std::fs::write(&path, trace).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rustbrain"))
        .args(["trace", "check"])
        .arg(&path)
        .output()
        .expect("running the rustbrain binary");
    let _ = std::fs::remove_file(&path);
    out
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
