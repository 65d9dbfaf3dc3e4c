//! `bench_engine` writes one document that the project's own JSON parser
//! reads back: `BENCH_engine.json` with the speedup fields CI gates on.
//! It writes nothing else beside it.

use rb_obs::json::{parse, Value};
use std::process::Command;

fn number(doc: &Value, key: &str) -> f64 {
    let v = doc
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("`{key}` is not a number in {doc:?}"));
    assert!(v.is_finite(), "`{key}` = {v}");
    v
}

#[test]
fn bench_engine_output_parses() {
    let dir = std::env::temp_dir().join(format!("bench_engine_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("BENCH_engine.json");
    let run = Command::new(env!("CARGO_BIN_EXE_bench_engine"))
        .args(["--jobs", "1", "--per-class", "1", "--repeat", "1", "--out"])
        .arg(&out)
        .output()
        .expect("bench_engine runs");
    assert!(run.status.success(), "{run:?}");

    let text = std::fs::read_to_string(&out).unwrap();
    let doc = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    for key in ["speedup", "speedup_min", "speedup_max", "pass_rate"] {
        number(&doc, key);
    }
    assert_eq!(doc.get("trials").and_then(Value::as_u64), Some(5));
    let rows = doc.get("per_class").and_then(Value::as_arr).unwrap();
    assert_eq!(rows.len(), 14);
    assert!(rows[0].get("class").and_then(Value::as_str).is_some());

    let written: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(
        written,
        ["BENCH_engine.json"],
        "bench_engine wrote {written:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
