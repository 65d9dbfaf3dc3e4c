//! The daemon's wire protocol: one JSON object per line, request in,
//! response out.
//!
//! Every request carries a `"verb"` field; everything else is
//! verb-specific. Responses always carry `"ok"` (and `"verb"` echoed
//! back), with failures shaped as `{"ok":false,"error":"..."}` so a
//! scripting client needs exactly one code path. The seven verbs:
//!
//! ```text
//! {"verb":"repair","source":"fn main() { ... }","reference":["5"],"seed":7}
//! {"verb":"batch","seed":42,"per_class":2,"classes":["alloc","panic"]}
//! {"verb":"analyze","source":"fn main() { ... }"}
//! {"verb":"stats"}
//! {"verb":"metrics"}
//! {"verb":"compact"}
//! {"verb":"shutdown"}
//! ```
//!
//! An `analyze` answer embeds the lint's findings as rendered by
//! [`analysis_json`], the same `{"findings":[...]}` document `rustbrain
//! analyze --json` prints: the oracle's errors on the source
//! (`rb_lint::Analysis::from_report`), one finding each.
//!
//! `repair` and `batch` default `seed` to 42 and `per_class` to 3 — the
//! same defaults as the one-shot CLI, so a daemon answer and a CLI run
//! of the same request are comparable byte for byte.

use rb_lint::{Analysis, Finding};
use rb_miri::UbClass;
use rb_obs::json::{self, fmt_str, Value};

/// Default RNG seed when a request omits `"seed"` (the CLI default).
pub const DEFAULT_SEED: u64 = 42;
/// Default `per_class` when a `batch` request omits it (the CLI default).
pub const DEFAULT_PER_CLASS: usize = 3;

/// One parsed protocol request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Repair one mini-Rust source string.
    Repair {
        /// The buggy program's source text.
        source: String,
        /// Expected outputs for the acceptability judgement (may be
        /// empty, like the CLI's `--reference`).
        reference: Vec<String>,
        /// RNG seed for the repair pipeline.
        seed: u64,
    },
    /// Sweep a generated corpus on the resident engine.
    Batch {
        /// Corpus generation / batch base seed.
        seed: u64,
        /// Cases generated per UB class.
        per_class: usize,
        /// Restrict the corpus to these classes (`None` = all classes).
        classes: Option<Vec<UbClass>>,
    },
    /// Analyse one mini-Rust source string with `rb_lint`: the oracle's
    /// findings on it, no repair.
    Analyze {
        /// The program's source text.
        source: String,
    },
    /// Report the daemon's [`crate::stats::ServeStats`] snapshot.
    Stats,
    /// Dump the metrics registries (Prometheus-style exposition text):
    /// the process-global registry (per-UbClass repair/oracle latency
    /// histograms) plus this daemon's own request counters.
    Metrics,
    /// Fault every shard in, re-normalize the resident base under the
    /// compaction policy, and persist it (atomic swap-in).
    Compact,
    /// Stop accepting connections and exit after a final stats dump.
    Shutdown,
}

/// Resolves a [`UbClass`] from its wire label (the same labels
/// `UbClass::label` prints and the corpus case ids use).
#[must_use]
pub fn class_from_label(label: &str) -> Option<UbClass> {
    UbClass::ALL
        .iter()
        .copied()
        .chain([UbClass::Compile])
        .find(|c| c.label() == label)
}

fn parse_classes(value: &Value) -> Result<Vec<UbClass>, String> {
    let items = value
        .as_arr()
        .ok_or_else(|| "`classes` must be an array of class labels".to_owned())?;
    let mut classes = Vec::with_capacity(items.len());
    for item in items {
        let label = item
            .as_str()
            .ok_or_else(|| "`classes` entries must be strings".to_owned())?;
        let class = class_from_label(label).ok_or_else(|| format!("unknown UB class `{label}`"))?;
        if !classes.contains(&class) {
            classes.push(class);
        }
    }
    if classes.is_empty() {
        return Err("`classes` must not be empty".into());
    }
    Ok(classes)
}

/// Parses one request line. Errors are client-facing strings — the
/// server wraps them into an `{"ok":false,...}` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let verb = value
        .get("verb")
        .and_then(Value::as_str)
        .ok_or_else(|| "request needs a string `verb` field".to_owned())?;
    let seed = match value.get("seed") {
        None => DEFAULT_SEED,
        Some(v) => v
            .as_u64()
            .ok_or_else(|| "`seed` must be a u64".to_owned())?,
    };
    match verb {
        "repair" => {
            let source = value
                .get("source")
                .and_then(Value::as_str)
                .ok_or_else(|| "`repair` needs a string `source` field".to_owned())?
                .to_owned();
            let reference = match value.get("reference") {
                None => Vec::new(),
                Some(refs) => refs
                    .as_arr()
                    .ok_or_else(|| "`reference` must be an array of strings".to_owned())?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "`reference` entries must be strings".to_owned())
                    })
                    .collect::<Result<Vec<String>, String>>()?,
            };
            Ok(Request::Repair {
                source,
                reference,
                seed,
            })
        }
        "batch" => {
            let per_class = match value.get("per_class") {
                None => DEFAULT_PER_CLASS,
                Some(v) => {
                    let n = v
                        .as_usize()
                        .ok_or_else(|| "`per_class` must be a positive integer".to_owned())?;
                    if n == 0 {
                        return Err("`per_class` must be at least 1".into());
                    }
                    n
                }
            };
            let classes = match value.get("classes") {
                None => None,
                Some(v) => Some(parse_classes(v)?),
            };
            Ok(Request::Batch {
                seed,
                per_class,
                classes,
            })
        }
        "analyze" => {
            let source = value
                .get("source")
                .and_then(Value::as_str)
                .ok_or_else(|| "`analyze` needs a string `source` field".to_owned())?
                .to_owned();
            Ok(Request::Analyze { source })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "compact" => Ok(Request::Compact),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown verb `{other}` (expected repair|batch|analyze|stats|metrics|compact|shutdown)"
        )),
    }
}

/// The uniform error response line (no trailing newline).
#[must_use]
pub fn error_response(message: &str) -> String {
    format!("{{\"ok\":false,\"error\":{}}}", fmt_str(message))
}

/// One lint finding as a JSON object.
#[must_use]
pub fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"class\":{},\"kind\":{},\"rule\":{},\"path\":{},\"message\":{}}}",
        fmt_str(f.class.label()),
        fmt_str(&format!("{:?}", f.kind)),
        fmt_str(f.rule),
        f.path
            .as_ref()
            .map_or_else(|| "null".to_owned(), |p| fmt_str(&p.to_string())),
        fmt_str(&f.message),
    )
}

/// A whole lint analysis as a JSON object.
#[must_use]
pub fn analysis_json(a: &Analysis) -> String {
    let findings: Vec<String> = a.findings.iter().map(finding_json).collect();
    format!("{{\"findings\":[{}]}}", findings.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_seven_verbs() {
        let r = parse_request(
            r#"{"verb":"repair","source":"fn main() {}","reference":["5","true"],"seed":7}"#,
        )
        .unwrap();
        assert_eq!(
            r,
            Request::Repair {
                source: "fn main() {}".into(),
                reference: vec!["5".into(), "true".into()],
                seed: 7,
            }
        );
        let r =
            parse_request(r#"{"verb":"batch","per_class":2,"classes":["alloc","panic"]}"#).unwrap();
        assert_eq!(
            r,
            Request::Batch {
                seed: DEFAULT_SEED,
                per_class: 2,
                classes: Some(vec![UbClass::Alloc, UbClass::Panic]),
            }
        );
        assert_eq!(
            parse_request(r#"{"verb":"analyze","source":"fn main() {}"}"#).unwrap(),
            Request::Analyze {
                source: "fn main() {}".into(),
            }
        );
        assert_eq!(
            parse_request(r#"{"verb":"stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"verb":"metrics"}"#).unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request(r#"{"verb":"compact"}"#).unwrap(),
            Request::Compact
        );
        assert_eq!(
            parse_request(r#"{"verb":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn defaults_match_the_cli() {
        let r = parse_request(r#"{"verb":"batch"}"#).unwrap();
        assert_eq!(
            r,
            Request::Batch {
                seed: 42,
                per_class: 3,
                classes: None,
            }
        );
        let r = parse_request(r#"{"verb":"repair","source":"fn main() {}"}"#).unwrap();
        let Request::Repair {
            reference, seed, ..
        } = r
        else {
            panic!("wrong verb");
        };
        assert!(reference.is_empty());
        assert_eq!(seed, 42);
        // Seeds are exact across the whole u64 range, as on the CLI.
        for seed in [9_007_199_254_740_993, u64::MAX] {
            let r = parse_request(&format!(r#"{{"verb":"batch","seed":{seed}}}"#)).unwrap();
            assert!(
                matches!(r, Request::Batch { seed: s, .. } if s == seed),
                "{seed}"
            );
        }
    }

    #[test]
    fn every_class_label_round_trips() {
        for class in UbClass::ALL.into_iter().chain([UbClass::Compile]) {
            assert_eq!(class_from_label(class.label()), Some(class), "{class:?}");
        }
        assert_eq!(class_from_label("frobnicate"), None);
    }

    #[test]
    fn bad_requests_are_typed_errors() {
        for bad in [
            "not json",
            r#"{"noverb":1}"#,
            r#"{"verb":"frobnicate"}"#,
            r#"{"verb":"repair"}"#,
            r#"{"verb":"repair","source":5}"#,
            r#"{"verb":"repair","source":"x","reference":"not-an-array"}"#,
            r#"{"verb":"analyze"}"#,
            r#"{"verb":"analyze","source":7}"#,
            r#"{"verb":"batch","per_class":0}"#,
            r#"{"verb":"batch","per_class":-3}"#,
            r#"{"verb":"batch","classes":[]}"#,
            r#"{"verb":"batch","classes":["nope"]}"#,
            r#"{"verb":"batch","seed":1.5}"#,
            r#"{"verb":"batch","seed":-1}"#,
            r#"{"verb":"batch","seed":18446744073709551616}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad}");
        }
        // And the error response shape is itself valid JSON.
        let line = error_response("bad \"thing\"");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(
            v.get("error").and_then(Value::as_str),
            Some("bad \"thing\"")
        );
    }

    #[test]
    fn empty_analysis_renders() {
        assert_eq!(analysis_json(&Analysis::default()), "{\"findings\":[]}");
    }

    #[test]
    fn duplicate_classes_dedup() {
        let r = parse_request(r#"{"verb":"batch","classes":["alloc","alloc"]}"#).unwrap();
        let Request::Batch { classes, .. } = r else {
            panic!("wrong verb");
        };
        assert_eq!(classes, Some(vec![UbClass::Alloc]));
    }
}
