//! Property suite for the trace reader: whatever bytes you feed it —
//! valid traces, traces torn at an arbitrary byte, traces with one byte
//! flipped — it yields typed [`AnalyzeError`]s, never panics; and every
//! line the tracer emits parses back and re-serializes byte-for-byte.

use proptest::prelude::*;
use rb_obs::analyze::{self, AnalyzeError, SpanTree};
use rb_obs::trace::{scope, span, Tracer};

/// Span names the generator draws from — the real vocabulary plus names
/// that stress JSON escaping.
const NAMES: [&str; 6] = [
    "engine.job",
    "repair",
    "fast",
    "with \"quotes\"",
    "uni—codé",
    "tab\there\nand newline",
];

const TAG_KEYS: [&str; 3] = ["class", "worker", "note \"k\""];

/// One generated trace op: `(action, selector, value)`. Actions: open a
/// span, close the innermost span, tag / charge sim on the innermost.
fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, u32)>> {
    prop::collection::vec((0u8..4, 0u8..6, 0u32..100_000), 1..48)
}

/// Replays `ops` against a fresh in-memory tracer and returns the JSONL
/// lines it emitted. Every generated trace is valid by construction —
/// it came out of the real emitter.
fn emit(ops: &[(u8, u8, u32)]) -> Vec<String> {
    let tracer = Tracer::in_memory();
    {
        let _g = scope(&tracer);
        let mut stack = Vec::new();
        for &(action, selector, value) in ops {
            match action {
                0 | 1 => stack.push(span(NAMES[selector as usize % NAMES.len()])),
                2 => {
                    drop(stack.pop());
                }
                _ => {
                    if let Some(top) = stack.last_mut() {
                        let key = TAG_KEYS[selector as usize % TAG_KEYS.len()];
                        top.tag(key, format!("v{value} \"esc\"\n\t—"));
                        top.add_sim_ms(f64::from(value) / 16.0);
                    }
                }
            }
        }
        // Close the rest innermost-first so nesting stays strict.
        while let Some(s) = stack.pop() {
            drop(s);
        }
    }
    tracer.lines()
}

/// Consumes every reader item, panicking only if the reader itself
/// panicked (the property under test). Returns (ok, err) counts.
fn drain(bytes: &[u8]) -> (usize, usize) {
    let mut ok = 0;
    let mut err = 0;
    let mut spans = Vec::new();
    for item in analyze::SpanReader::new(bytes) {
        match item {
            Ok(s) => {
                ok += 1;
                spans.push(s);
            }
            Err(
                AnalyzeError::Io { .. }
                | AnalyzeError::Utf8 { .. }
                | AnalyzeError::Json { .. }
                | AnalyzeError::TooDeep { .. }
                | AnalyzeError::Field { .. }
                | AnalyzeError::Tree { .. },
            ) => err += 1,
        }
    }
    // Whatever parsed must also survive tree building (which may
    // legitimately reject — corrupt ids can collide — but never panic).
    let _ = SpanTree::build(spans);
    (ok, err)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tracer_output_parses_and_reserializes_byte_for_byte(ops in ops_strategy()) {
        let lines = emit(&ops);
        for (n, line) in lines.iter().enumerate() {
            let parsed = analyze::parse_line(line, n + 1);
            prop_assert!(parsed.is_ok(), "line {n} failed: {parsed:?}\n{line}");
            prop_assert_eq!(&parsed.unwrap().to_json_line(), line);
        }
        // The full trace forms a tree with no duplicate ids or dangling
        // parents, and parsing the joined stream agrees line-for-line.
        let text = lines.join("\n");
        let spans = analyze::read_str(&text).expect("valid trace must parse");
        prop_assert_eq!(spans.len(), lines.len());
        prop_assert!(SpanTree::build(spans).is_ok());
    }

    #[test]
    fn truncation_yields_typed_errors_never_panics(
        ops in ops_strategy(),
        frac in 0u32..10_000,
    ) {
        let text = emit(&ops).join("\n");
        let bytes = text.as_bytes();
        let cut = (bytes.len() as u64 * u64::from(frac) / 10_000) as usize;
        let (ok, err) = drain(&bytes[..cut]);
        // A tear hits at most the one line it lands in: everything
        // before it still parses.
        prop_assert!(err <= 1, "one cut produced {err} errors");
        prop_assert!(ok <= text.lines().count());
    }

    #[test]
    fn byte_corruption_yields_typed_errors_never_panics(
        ops in ops_strategy(),
        frac in 0u32..10_000,
        garbage in 0u32..256,
    ) {
        let text = emit(&ops).join("\n");
        let mut bytes = text.as_bytes().to_vec();
        if bytes.is_empty() {
            return Ok(());
        }
        let at = (bytes.len() as u64 * u64::from(frac) / 10_000) as usize;
        let at = at.min(bytes.len() - 1);
        bytes[at] = garbage as u8;
        // Never panics; errors (if any) are typed by construction of
        // the Result item — draining is the assertion.
        let _ = drain(&bytes);
    }
}
