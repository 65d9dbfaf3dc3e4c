//! A reader that closes the CLI's stdout early (`rustbrain demo | head -1`)
//! ends the process quietly: no panic message on stderr and no panic exit
//! status (101).

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

/// Runs `rustbrain <args>`, reads one line of its stdout, closes the pipe
/// and waits for the process to end.
fn read_one_line_then_close(args: &[&str]) -> (String, Output) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rustbrain"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("running the rustbrain binary");
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    reader
        .read_line(&mut first)
        .expect("reading the first line");
    drop(reader);
    let out = child.wait_with_output().expect("waiting for rustbrain");
    (first, out)
}

fn check_quiet_end(args: &[&str], first: &str, out: &Output) {
    assert!(!first.is_empty(), "{args:?} printed nothing");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
}

#[test]
fn demo_into_a_closed_pipe_ends_quietly() {
    let (first, out) = read_one_line_then_close(&["demo"]);
    check_quiet_end(&["demo"], &first, &out);
}

/// Output far larger than a pipe buffer, printed in one write: the write
/// is bound to fail once the reader has gone, so this exercises the
/// broken pipe whatever the scheduling.
#[test]
fn large_output_into_a_closed_pipe_ends_quietly() {
    let dir = std::env::temp_dir().join(format!("rb_broken_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.jsonl");
    let trace: String = (1..=4_000)
        .map(|id| {
            format!(
                "{{\"id\":{id},\"parent\":null,\"name\":\"span_{id:06}_with_a_long_name\",\
                 \"t_us\":{id},\"wall_us\":1,\"sim_ms\":1.0,\"tags\":{{}}}}\n"
            )
        })
        .collect();
    std::fs::write(&path, trace).unwrap();
    let args = ["trace", "flamegraph", path.to_str().unwrap(), "--collapsed"];
    let (first, out) = read_one_line_then_close(&args);
    let _ = std::fs::remove_dir_all(&dir);
    check_quiet_end(&args, &first, &out);
}
