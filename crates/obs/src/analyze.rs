//! Trace analytics over the JSONL span stream [`crate::trace`] emits.
//!
//! PR 7 made the system *emit* traces; this module makes the repo able
//! to *read* them without reaching for throwaway scripts. It is built in
//! three layers, each usable on its own:
//!
//! 1. **Streaming reader** — [`SpanReader`] walks a JSONL byte stream
//!    one line at a time and yields `Result<TraceSpan, AnalyzeError>`.
//!    Truncated lines, invalid UTF-8 and corrupt JSON become *typed
//!    errors*, never panics — a half-written trace from a crashed run
//!    must still be analyzable up to the tear.
//! 2. **Span tree** — [`SpanTree::build`] reconstructs the call tree
//!    from `id`/`parent` pairs and [`check`] re-validates the tracer's
//!    contract: unique ids, resolvable parents, and ≥95% of every
//!    `repair` span's `sim_ms` covered by its direct children (the
//!    children-sum-to-`overhead_ms` invariant CI has gated since PR 7).
//! 3. **Analyses** — [`flamegraph`] (inclusive/self sim-ms and wall-us
//!    rolled up by span-name path and by class tag, renderable as sorted
//!    text or collapsed-stack format), [`critical_path`] (per-worker
//!    `engine.job` lanes and the max-theoretical-speedup bound they
//!    imply), and [`diff`] (per-path deltas between two runs, sorted by
//!    regression magnitude).
//!
//! Lines are decoded by [`crate::json`], the stack's one JSON codec. It
//! keeps integers exact and object members in source order, so
//! [`TraceSpan::to_json_line`] reproduces a tracer-emitted line
//! byte-for-byte — pinned by property tests.

use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;
use std::path::Path;

use crate::json::{self, ParseError, Value};
use crate::trace::span_line;

/// Fraction of a `repair` span's `sim_ms` its direct children must
/// cover for [`check`] to pass — the same 95% gate CI has enforced
/// since the tracer landed.
pub const DEFAULT_COVERAGE: f64 = 0.95;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a trace could not be read or its tree could not be built. Every
/// failure mode of the reader is one of these — corrupt input is a
/// value, not a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The underlying byte stream failed mid-read (`line` is the line
    /// being read when it happened; 0 when the file could not be
    /// opened at all).
    Io {
        /// 1-based line number, 0 for open failures.
        line: usize,
        /// The I/O error's message.
        message: String,
    },
    /// A line is not valid UTF-8 (byte corruption lands here).
    Utf8 {
        /// 1-based line number.
        line: usize,
    },
    /// A line is not one complete JSON object (truncation lands here).
    Json {
        /// 1-based line number.
        line: usize,
        /// What the parser choked on.
        reason: String,
    },
    /// A line nests arrays and objects deeper than [`MAX_JSON_DEPTH`].
    /// The parser stops at the bound instead of recursing on, so a
    /// hostile line cannot overflow the reader's stack.
    TooDeep {
        /// 1-based line number.
        line: usize,
        /// The nesting bound the line exceeded.
        limit: usize,
    },
    /// The JSON parsed but a span field is missing or mistyped.
    Field {
        /// 1-based line number.
        line: usize,
        /// The offending field.
        field: &'static str,
        /// What was wrong with it.
        reason: String,
    },
    /// The spans parsed but do not form a tree (duplicate id, dangling
    /// parent, or a parent cycle).
    Tree {
        /// Human-readable description of the violation.
        reason: String,
    },
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::Io { line, message } if *line == 0 => {
                write!(f, "trace unreadable: {message}")
            }
            AnalyzeError::Io { line, message } => {
                write!(f, "trace line {line}: read failed: {message}")
            }
            AnalyzeError::Utf8 { line } => write!(f, "trace line {line}: not valid UTF-8"),
            AnalyzeError::Json { line, reason } => {
                write!(f, "trace line {line}: not a JSON object: {reason}")
            }
            AnalyzeError::TooDeep { line, limit } => {
                write!(
                    f,
                    "trace line {line}: JSON nests deeper than {limit} levels"
                )
            }
            AnalyzeError::Field {
                line,
                field,
                reason,
            } => write!(f, "trace line {line}: field {field:?}: {reason}"),
            AnalyzeError::Tree { reason } => write!(f, "trace is not a span tree: {reason}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Deepest nesting a trace line may use: the span object is level 0,
/// its field values level 1, and no value may sit below level 64 — the
/// one bound [`crate::json`] enforces for every reader, the daemon's
/// included.
pub use crate::json::MAX_DEPTH as MAX_JSON_DEPTH;

// ---------------------------------------------------------------------------
// TraceSpan + streaming reader
// ---------------------------------------------------------------------------

/// One parsed span record — the in-memory mirror of a tracer JSONL line.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    /// Span id, unique within one trace.
    pub id: u64,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// Span name (`engine.job`, `repair`, `fast`, ...).
    pub name: String,
    /// Start time, microseconds since the tracer's epoch.
    pub t_us: u64,
    /// Real elapsed microseconds between open and drop.
    pub wall_us: u64,
    /// Simulated milliseconds charged to the span, inclusive of
    /// children.
    pub sim_ms: f64,
    /// Tags in emission order (the tracer writes them in insertion
    /// order; preserving it keeps re-serialization byte-exact).
    pub tags: Vec<(String, String)>,
}

impl TraceSpan {
    /// The value of tag `key`, if present.
    #[must_use]
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Re-serializes the span exactly as the tracer would have emitted
    /// it — same field order, same escaping, same `sim_ms` formatting.
    /// `parse_line(span.to_json_line())` is the identity, and for lines
    /// the tracer produced the bytes round-trip too.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        span_line(
            self.id,
            self.parent,
            &self.name,
            self.t_us,
            self.wall_us,
            self.sim_ms,
            self.tags.iter().map(|(k, v)| (k.as_str(), v.as_str())),
        )
    }
}

/// Parses one JSONL line into a [`TraceSpan`]. `line_no` is 1-based and
/// only used for error reporting. Unknown fields are ignored (forward
/// compatibility); missing or mistyped required fields are
/// [`AnalyzeError::Field`].
pub fn parse_line(text: &str, line_no: usize) -> Result<TraceSpan, AnalyzeError> {
    let fields = match json::parse(text) {
        Ok(Value::Obj(fields)) => fields,
        Ok(_) => {
            return Err(AnalyzeError::Json {
                line: line_no,
                reason: "line is not a JSON object".to_owned(),
            })
        }
        Err(ParseError::Syntax(reason)) => {
            return Err(AnalyzeError::Json {
                line: line_no,
                reason,
            })
        }
        Err(ParseError::TooDeep) => {
            return Err(AnalyzeError::TooDeep {
                line: line_no,
                limit: MAX_JSON_DEPTH,
            })
        }
    };
    let bad = |field: &'static str, reason: String| AnalyzeError::Field {
        line: line_no,
        field,
        reason,
    };
    let take_u64 = |value: &Value, field: &'static str| {
        value
            .as_u64()
            .ok_or_else(|| bad(field, "expected an unsigned integer".to_owned()))
    };
    let mut id = None;
    let mut parent = None;
    let mut parent_seen = false;
    let mut name = None;
    let mut t_us = None;
    let mut wall_us = None;
    let mut sim_ms = None;
    let mut tags = None;
    for (key, value) in fields {
        match key.as_str() {
            "id" => id = Some(take_u64(&value, "id")?),
            "parent" => {
                parent_seen = true;
                parent = match value {
                    Value::Null => None,
                    other => Some(take_u64(&other, "parent")?),
                };
            }
            "name" => match value {
                Value::Str(s) => name = Some(s),
                _ => return Err(bad("name", "expected a string".to_owned())),
            },
            "t_us" => t_us = Some(take_u64(&value, "t_us")?),
            "wall_us" => wall_us = Some(take_u64(&value, "wall_us")?),
            "sim_ms" => {
                let ms = value.as_f64();
                sim_ms = Some(ms.ok_or_else(|| bad("sim_ms", "expected a number".to_owned()))?);
            }
            "tags" => match value {
                Value::Obj(pairs) => {
                    let mut out = Vec::with_capacity(pairs.len());
                    for (k, v) in pairs {
                        match v {
                            Value::Str(s) => out.push((k, s)),
                            _ => return Err(bad("tags", format!("tag {k:?} is not a string"))),
                        }
                    }
                    tags = Some(out);
                }
                _ => return Err(bad("tags", "expected an object".to_owned())),
            },
            _ => {} // unknown field: ignore
        }
    }
    let missing = |field: &'static str| bad(field, "missing".to_owned());
    if !parent_seen {
        return Err(missing("parent"));
    }
    Ok(TraceSpan {
        id: id.ok_or_else(|| missing("id"))?,
        parent,
        name: name.ok_or_else(|| missing("name"))?,
        t_us: t_us.ok_or_else(|| missing("t_us"))?,
        wall_us: wall_us.ok_or_else(|| missing("wall_us"))?,
        sim_ms: sim_ms.ok_or_else(|| missing("sim_ms"))?,
        tags: tags.ok_or_else(|| missing("tags"))?,
    })
}

/// Streaming JSONL span reader: yields one `Result<TraceSpan,
/// AnalyzeError>` per non-empty line and never panics on bad input.
/// After the first I/O error the iterator fuses (returns `None`), since
/// the stream position is no longer trustworthy; parse errors on
/// individual lines do *not* stop iteration, so a consumer can choose
/// between fail-fast ([`read_str`]/[`read_file`]) and salvage-what-reads.
pub struct SpanReader<R: BufRead> {
    reader: R,
    line_no: usize,
    fused: bool,
    buf: Vec<u8>,
}

impl<R: BufRead> SpanReader<R> {
    /// Wraps a buffered byte stream.
    pub fn new(reader: R) -> SpanReader<R> {
        SpanReader {
            reader,
            line_no: 0,
            fused: false,
            buf: Vec::new(),
        }
    }
}

impl<R: BufRead> Iterator for SpanReader<R> {
    type Item = Result<TraceSpan, AnalyzeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        loop {
            self.line_no += 1;
            self.buf.clear();
            match self.reader.read_until(b'\n', &mut self.buf) {
                Err(e) => {
                    self.fused = true;
                    return Some(Err(AnalyzeError::Io {
                        line: self.line_no,
                        message: e.to_string(),
                    }));
                }
                Ok(0) => {
                    self.fused = true;
                    return None;
                }
                Ok(_) => {}
            }
            while matches!(self.buf.last(), Some(b'\n' | b'\r')) {
                self.buf.pop();
            }
            if self.buf.is_empty() {
                continue; // blank line (e.g. trailing newline)
            }
            let Ok(text) = std::str::from_utf8(&self.buf) else {
                return Some(Err(AnalyzeError::Utf8 { line: self.line_no }));
            };
            return Some(parse_line(text, self.line_no));
        }
    }
}

/// Parses a whole trace held in memory, failing on the first bad line.
pub fn read_str(text: &str) -> Result<Vec<TraceSpan>, AnalyzeError> {
    SpanReader::new(text.as_bytes()).collect()
}

/// Reads and parses a trace file, failing on the first bad line. A file
/// that cannot be opened is `Io { line: 0, .. }`.
pub fn read_file(path: &Path) -> Result<Vec<TraceSpan>, AnalyzeError> {
    let file = std::fs::File::open(path).map_err(|e| AnalyzeError::Io {
        line: 0,
        message: format!("{}: {e}", path.display()),
    })?;
    SpanReader::new(std::io::BufReader::new(file)).collect()
}

// ---------------------------------------------------------------------------
// Span tree + invariant check
// ---------------------------------------------------------------------------

/// The reconstructed call tree of one trace: spans plus child lists,
/// root set, and the `;`-joined name path of every span (collapsed-stack
/// convention, root first).
pub struct SpanTree {
    spans: Vec<TraceSpan>,
    children: Vec<Vec<usize>>,
    roots: Vec<usize>,
    paths: Vec<String>,
}

impl SpanTree {
    /// Builds the tree, rejecting duplicate ids, dangling parents and
    /// parent cycles as [`AnalyzeError::Tree`].
    pub fn build(spans: Vec<TraceSpan>) -> Result<SpanTree, AnalyzeError> {
        let mut index_of: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
        for (i, s) in spans.iter().enumerate() {
            if index_of.insert(s.id, i).is_some() {
                return Err(AnalyzeError::Tree {
                    reason: format!("duplicate span id {}", s.id),
                });
            }
        }
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            match s.parent {
                None => roots.push(i),
                Some(p) => match index_of.get(&p) {
                    Some(&pi) => children[pi].push(i),
                    None => {
                        return Err(AnalyzeError::Tree {
                            reason: format!("span {} has dangling parent {p}", s.id),
                        })
                    }
                },
            }
        }
        // Assign paths by walking down from the roots; anything left
        // unvisited sits on a parent cycle.
        let mut paths: Vec<Option<String>> = vec![None; spans.len()];
        let mut stack: Vec<usize> = roots.clone();
        for &r in &roots {
            paths[r] = Some(spans[r].name.clone());
        }
        while let Some(i) = stack.pop() {
            let base = paths[i].clone().expect("pushed nodes have paths");
            for &c in &children[i] {
                paths[c] = Some(format!("{base};{}", spans[c].name));
                stack.push(c);
            }
        }
        if let Some(orphan) = paths.iter().position(Option::is_none) {
            return Err(AnalyzeError::Tree {
                reason: format!("span {} sits on a parent cycle", spans[orphan].id),
            });
        }
        Ok(SpanTree {
            children,
            roots,
            paths: paths.into_iter().map(|p| p.expect("all visited")).collect(),
            spans,
        })
    }

    /// All spans, in file order.
    #[must_use]
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Indices of the root spans.
    #[must_use]
    pub fn roots(&self) -> &[usize] {
        &self.roots
    }

    /// Indices of span `i`'s direct children.
    #[must_use]
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// The `;`-joined name path of span `i`, root first.
    #[must_use]
    pub fn path(&self, i: usize) -> &str {
        &self.paths[i]
    }
}

/// What [`check`] validates beyond well-formedness.
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Required child-sim coverage of each `repair` span (0.95 = the CI
    /// gate).
    pub coverage: f64,
    /// Span names that must each appear at least once (empty = no
    /// requirement). CI requires `engine.job`, `repair`, `fast` on
    /// batch traces.
    pub require_names: Vec<String>,
    /// Accept an empty trace (default: an empty trace is a violation —
    /// a traced batch that emitted nothing is a broken batch).
    pub allow_empty: bool,
}

impl Default for CheckOptions {
    fn default() -> CheckOptions {
        CheckOptions {
            coverage: DEFAULT_COVERAGE,
            require_names: Vec::new(),
            allow_empty: false,
        }
    }
}

/// The outcome of [`check`]: summary numbers plus every violation found
/// (empty `violations` means the trace honors the tracer's contract).
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Spans in the trace.
    pub spans: usize,
    /// Root spans.
    pub roots: usize,
    /// `repair` spans.
    pub repairs: usize,
    /// Per-name span counts.
    pub names: BTreeMap<String, u64>,
    /// The worst child-sim coverage over `repair` spans with positive
    /// `sim_ms` (1.0 when there are none).
    pub min_repair_coverage: f64,
    /// Everything that violated the contract, human-readable.
    pub violations: Vec<String>,
}

impl CheckReport {
    /// `true` when no violations were found.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Multi-line human-readable report (what `rustbrain trace check`
    /// prints).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "spans: {} ({} roots, {} repairs, min repair coverage {:.4})\n",
            self.spans, self.roots, self.repairs, self.min_repair_coverage
        ));
        for (name, count) in &self.names {
            out.push_str(&format!("  {count:>8}  {name}\n"));
        }
        if self.ok() {
            out.push_str("trace ok: parseable, nested, and overhead-covered\n");
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// Re-validates the tracer's structural contract on a parsed span list:
/// unique ids, resolvable parents, and every `repair` span's direct
/// children covering ≥ `opts.coverage` of its `sim_ms`. Collects *all*
/// violations instead of stopping at the first, so one run of
/// `rustbrain trace check` shows the whole damage.
#[must_use]
pub fn check(spans: &[TraceSpan], opts: &CheckOptions) -> CheckReport {
    let mut violations = Vec::new();
    let mut names: BTreeMap<String, u64> = BTreeMap::new();
    let mut ids: HashMap<u64, usize> = HashMap::with_capacity(spans.len());
    for s in spans {
        *names.entry(s.name.clone()).or_insert(0) += 1;
        if let Some(prev) = ids.insert(s.id, 1) {
            let _ = prev;
            violations.push(format!("duplicate span id {}", s.id));
        }
    }
    if spans.is_empty() && !opts.allow_empty {
        violations.push("trace is empty".to_owned());
    }
    let mut child_sim: HashMap<u64, f64> = HashMap::new();
    let mut roots = 0usize;
    for s in spans {
        match s.parent {
            None => roots += 1,
            Some(p) => {
                if ids.contains_key(&p) {
                    *child_sim.entry(p).or_insert(0.0) += s.sim_ms;
                } else {
                    violations.push(format!("span {} has dangling parent {p}", s.id));
                }
            }
        }
    }
    let mut repairs = 0usize;
    let mut min_cov = 1.0f64;
    for s in spans.iter().filter(|s| s.name == "repair") {
        repairs += 1;
        let covered = child_sim.get(&s.id).copied().unwrap_or(0.0);
        if s.sim_ms > 0.0 {
            min_cov = min_cov.min(covered / s.sim_ms);
        }
        if covered < opts.coverage * s.sim_ms - 1e-6 {
            violations.push(format!(
                "repair span {} children cover {covered:.4} of {:.4} sim ms",
                s.id, s.sim_ms
            ));
        }
    }
    for required in &opts.require_names {
        if !names.contains_key(required) {
            violations.push(format!("required span kind {required:?} never appeared"));
        }
    }
    CheckReport {
        spans: spans.len(),
        roots,
        repairs,
        names,
        min_repair_coverage: min_cov,
        violations,
    }
}

// ---------------------------------------------------------------------------
// Analysis 1: flamegraph aggregation
// ---------------------------------------------------------------------------

/// Which measure a collapsed-stack rendering charges: simulated
/// microseconds (`sim_ms` × 1000, the deterministic cost model) or real
/// wall microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Measure {
    /// Simulated time (deterministic across hosts).
    Sim,
    /// Measured wall time.
    Wall,
}

impl Measure {
    /// Parses `"sim"` / `"wall"`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Measure> {
        match s {
            "sim" => Some(Measure::Sim),
            "wall" => Some(Measure::Wall),
            _ => None,
        }
    }
}

/// Aggregated cost of one span-name path across a trace. `incl_*` is
/// the sum over spans on the path (children included, per the tracer's
/// inclusive convention); `self_*` subtracts each span's direct
/// children, clamped at zero (wall overlap between a parent and its
/// children is measurement noise, not negative work).
#[derive(Clone, Debug, PartialEq)]
pub struct PathAgg {
    /// `;`-joined span names, root first.
    pub path: String,
    /// Spans that landed on this path.
    pub count: u64,
    /// Inclusive simulated milliseconds.
    pub incl_sim_ms: f64,
    /// Self simulated milliseconds.
    pub self_sim_ms: f64,
    /// Inclusive wall microseconds.
    pub incl_wall_us: u64,
    /// Self wall microseconds.
    pub self_wall_us: u64,
}

/// Rolls the tree up by span-name path, sorted by inclusive sim-ms
/// descending (ties broken by path).
#[must_use]
pub fn flamegraph(tree: &SpanTree) -> Vec<PathAgg> {
    let mut by_path: BTreeMap<&str, PathAgg> = BTreeMap::new();
    for (i, s) in tree.spans().iter().enumerate() {
        let child_sim: f64 = tree
            .children(i)
            .iter()
            .map(|&c| tree.spans()[c].sim_ms)
            .sum();
        let child_wall: u64 = tree
            .children(i)
            .iter()
            .map(|&c| tree.spans()[c].wall_us)
            .sum();
        let agg = by_path.entry(tree.path(i)).or_insert_with(|| PathAgg {
            path: tree.path(i).to_owned(),
            count: 0,
            incl_sim_ms: 0.0,
            self_sim_ms: 0.0,
            incl_wall_us: 0,
            self_wall_us: 0,
        });
        agg.count += 1;
        agg.incl_sim_ms += s.sim_ms;
        agg.self_sim_ms += (s.sim_ms - child_sim).max(0.0);
        agg.incl_wall_us += s.wall_us;
        agg.self_wall_us += s.wall_us.saturating_sub(child_wall);
    }
    let mut out: Vec<PathAgg> = by_path.into_values().collect();
    out.sort_by(|a, b| {
        b.incl_sim_ms
            .partial_cmp(&a.incl_sim_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    out
}

/// Self-time totals grouped by the `class` tag, inherited downward (a
/// `fast` span under a `repair` tagged `class=alloc` is charged to
/// `alloc`). Summing `self_*` over classes reproduces the trace totals
/// exactly — no span is double-counted.
#[derive(Clone, Debug, PartialEq)]
pub struct ClassAgg {
    /// The `class` tag value, or `"(untagged)"`.
    pub class: String,
    /// Spans attributed to this class.
    pub count: u64,
    /// Self simulated milliseconds.
    pub self_sim_ms: f64,
    /// Self wall microseconds.
    pub self_wall_us: u64,
}

/// Rolls self-time up by (inherited) `class` tag, sorted by self sim-ms
/// descending.
#[must_use]
pub fn class_breakdown(tree: &SpanTree) -> Vec<ClassAgg> {
    // Effective class per span: own tag, else the nearest ancestor's.
    let mut effective: Vec<Option<String>> = vec![None; tree.spans().len()];
    let mut stack: Vec<usize> = tree.roots().to_vec();
    for &r in tree.roots() {
        effective[r] = tree.spans()[r].tag("class").map(str::to_owned);
    }
    while let Some(i) = stack.pop() {
        for &c in tree.children(i) {
            effective[c] = tree.spans()[c]
                .tag("class")
                .map(str::to_owned)
                .or_else(|| effective[i].clone());
            stack.push(c);
        }
    }
    let mut by_class: BTreeMap<String, ClassAgg> = BTreeMap::new();
    for (i, s) in tree.spans().iter().enumerate() {
        let child_sim: f64 = tree
            .children(i)
            .iter()
            .map(|&c| tree.spans()[c].sim_ms)
            .sum();
        let child_wall: u64 = tree
            .children(i)
            .iter()
            .map(|&c| tree.spans()[c].wall_us)
            .sum();
        let class = effective[i]
            .clone()
            .unwrap_or_else(|| "(untagged)".to_owned());
        let agg = by_class.entry(class.clone()).or_insert_with(|| ClassAgg {
            class,
            count: 0,
            self_sim_ms: 0.0,
            self_wall_us: 0,
        });
        agg.count += 1;
        agg.self_sim_ms += (s.sim_ms - child_sim).max(0.0);
        agg.self_wall_us += s.wall_us.saturating_sub(child_wall);
    }
    let mut out: Vec<ClassAgg> = by_class.into_values().collect();
    out.sort_by(|a, b| {
        b.self_sim_ms
            .partial_cmp(&a.self_sim_ms)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.class.cmp(&b.class))
    });
    out
}

/// Renders path aggregates as a sorted text table (`top` 0 = all).
#[must_use]
pub fn render_flamegraph(aggs: &[PathAgg], classes: &[ClassAgg], top: usize) -> String {
    let shown = if top == 0 {
        aggs.len()
    } else {
        top.min(aggs.len())
    };
    let mut out = String::new();
    out.push_str("flamegraph by span path (inclusive sim-ms desc)\n");
    out.push_str(&format!(
        "{:>8} {:>16} {:>16} {:>14} {:>14}  {}\n",
        "count", "incl sim-ms", "self sim-ms", "incl wall-us", "self wall-us", "path"
    ));
    for a in &aggs[..shown] {
        out.push_str(&format!(
            "{:>8} {:>16.2} {:>16.2} {:>14} {:>14}  {}\n",
            a.count, a.incl_sim_ms, a.self_sim_ms, a.incl_wall_us, a.self_wall_us, a.path
        ));
    }
    if shown < aggs.len() {
        out.push_str(&format!("  ... {} more paths\n", aggs.len() - shown));
    }
    if !classes.is_empty() {
        out.push_str("\nby class (self time, inherited tags)\n");
        out.push_str(&format!(
            "{:>8} {:>16} {:>14}  {}\n",
            "count", "self sim-ms", "self wall-us", "class"
        ));
        for c in classes {
            out.push_str(&format!(
                "{:>8} {:>16.2} {:>14}  {}\n",
                c.count, c.self_sim_ms, c.self_wall_us, c.class
            ));
        }
    }
    out
}

/// Renders path aggregates in collapsed-stack format (one
/// `path value` line per path, semicolon-nested), consumable by
/// standard flamegraph tooling. Sim values are charged in simulated
/// microseconds so they stay integers.
#[must_use]
pub fn render_collapsed(aggs: &[PathAgg], measure: Measure) -> String {
    let mut out = String::new();
    for a in aggs {
        let value = match measure {
            Measure::Sim => (a.self_sim_ms * 1000.0).round() as u64,
            Measure::Wall => a.self_wall_us,
        };
        if value > 0 {
            out.push_str(&format!("{} {value}\n", a.path));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Analysis 2: critical path
// ---------------------------------------------------------------------------

/// One worker's lane of `engine.job` spans.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneStat {
    /// The `worker` tag value (`"?"` for untagged jobs).
    pub worker: String,
    /// Jobs the lane executed.
    pub jobs: u64,
    /// Total simulated milliseconds across the lane's jobs.
    pub sim_ms: f64,
    /// Total wall microseconds across the lane's jobs.
    pub wall_us: u64,
}

/// Per-lane totals of a batch's `engine.job` spans plus the speedup
/// bounds they imply. A batch's jobs are independent, so its critical
/// path is the busiest worker lane: no schedule that makes the same
/// placement can finish faster than the busiest lane, hence
/// `total / busiest` bounds the achievable speedup of *this* placement
/// and `total / longest job` bounds *any* placement.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Lanes sorted by worker id.
    pub lanes: Vec<LaneStat>,
    /// Total jobs.
    pub jobs: u64,
    /// Sum of job sim-ms across lanes.
    pub total_sim_ms: f64,
    /// Sum of job wall-us across lanes.
    pub total_wall_us: u64,
    /// The single longest job by sim-ms.
    pub longest_sim_ms: f64,
    /// The single longest job by wall-us.
    pub longest_wall_us: u64,
    /// The busiest lane by sim-ms.
    pub critical_sim_ms: f64,
    /// The busiest lane by wall-us.
    pub critical_wall_us: u64,
}

impl CriticalPath {
    fn ratio(total: f64, bottleneck: f64) -> f64 {
        if bottleneck > 0.0 {
            total / bottleneck
        } else {
            0.0
        }
    }

    /// Max speedup this placement allows, by simulated time.
    #[must_use]
    pub fn speedup_bound_sim(&self) -> f64 {
        Self::ratio(self.total_sim_ms, self.critical_sim_ms)
    }

    /// Max speedup this placement allows, by wall time.
    #[must_use]
    pub fn speedup_bound_wall(&self) -> f64 {
        Self::ratio(self.total_wall_us as f64, self.critical_wall_us as f64)
    }

    /// Max speedup *any* placement allows (total over the longest
    /// single job), by simulated time.
    #[must_use]
    pub fn ideal_speedup_sim(&self) -> f64 {
        Self::ratio(self.total_sim_ms, self.longest_sim_ms)
    }

    /// Multi-line human-readable rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "critical path over {} engine.job spans ({} lanes)\n",
            self.jobs,
            self.lanes.len()
        ));
        for lane in &self.lanes {
            out.push_str(&format!(
                "  worker {:>3}: {:>6} jobs {:>16.2} sim-ms {:>14} wall-us\n",
                lane.worker, lane.jobs, lane.sim_ms, lane.wall_us
            ));
        }
        out.push_str(&format!(
            "  total {:.2} sim-ms / {} wall-us; busiest lane {:.2} sim-ms / {} wall-us\n",
            self.total_sim_ms, self.total_wall_us, self.critical_sim_ms, self.critical_wall_us
        ));
        out.push_str(&format!(
            "  max speedup bound: {:.2}x (sim) {:.2}x (wall); ideal any-placement {:.2}x (sim)\n",
            self.speedup_bound_sim(),
            self.speedup_bound_wall(),
            self.ideal_speedup_sim()
        ));
        out
    }
}

/// Extracts the per-worker-lane critical path from a trace's
/// `engine.job` spans (empty lanes list when the trace has none).
#[must_use]
pub fn critical_path(tree: &SpanTree) -> CriticalPath {
    let mut lanes: BTreeMap<(usize, String), LaneStat> = BTreeMap::new();
    let mut total_sim = 0.0f64;
    let mut total_wall = 0u64;
    let mut longest_sim = 0.0f64;
    let mut longest_wall = 0u64;
    let mut jobs = 0u64;
    for s in tree.spans().iter().filter(|s| s.name == "engine.job") {
        let worker = s.tag("worker").unwrap_or("?").to_owned();
        // Numeric-first sort key so worker 10 follows worker 9.
        let key = (
            worker.parse::<usize>().unwrap_or(usize::MAX),
            worker.clone(),
        );
        let lane = lanes.entry(key).or_insert_with(|| LaneStat {
            worker,
            jobs: 0,
            sim_ms: 0.0,
            wall_us: 0,
        });
        lane.jobs += 1;
        lane.sim_ms += s.sim_ms;
        lane.wall_us += s.wall_us;
        jobs += 1;
        total_sim += s.sim_ms;
        total_wall += s.wall_us;
        longest_sim = longest_sim.max(s.sim_ms);
        longest_wall = longest_wall.max(s.wall_us);
    }
    let lanes: Vec<LaneStat> = lanes.into_values().collect();
    let critical_sim = lanes.iter().map(|l| l.sim_ms).fold(0.0f64, f64::max);
    let critical_wall = lanes.iter().map(|l| l.wall_us).max().unwrap_or(0);
    CriticalPath {
        lanes,
        jobs,
        total_sim_ms: total_sim,
        total_wall_us: total_wall,
        longest_sim_ms: longest_sim,
        longest_wall_us: longest_wall,
        critical_sim_ms: critical_sim,
        critical_wall_us: critical_wall,
    }
}

// ---------------------------------------------------------------------------
// Analysis 3: trace diff
// ---------------------------------------------------------------------------

/// Per-path delta between two traces (A = baseline, B = candidate).
#[derive(Clone, Debug, PartialEq)]
pub struct DiffRow {
    /// The span-name path.
    pub path: String,
    /// Span count in A.
    pub count_a: u64,
    /// Span count in B.
    pub count_b: u64,
    /// Inclusive sim-ms in A.
    pub sim_a: f64,
    /// Inclusive sim-ms in B.
    pub sim_b: f64,
    /// Inclusive wall-us in A.
    pub wall_a: u64,
    /// Inclusive wall-us in B.
    pub wall_b: u64,
}

impl DiffRow {
    /// B − A in inclusive sim-ms (positive = regression).
    #[must_use]
    pub fn sim_delta(&self) -> f64 {
        self.sim_b - self.sim_a
    }

    /// B − A in inclusive wall-us (positive = regression).
    #[must_use]
    pub fn wall_delta(&self) -> i64 {
        self.wall_b as i64 - self.wall_a as i64
    }
}

/// Diffs two flamegraph aggregations over the union of their paths,
/// sorted by |sim delta| descending (wall delta breaking ties) so the
/// biggest regression — or win — is line one.
#[must_use]
pub fn diff(a: &[PathAgg], b: &[PathAgg]) -> Vec<DiffRow> {
    let mut rows: BTreeMap<&str, DiffRow> = BTreeMap::new();
    for agg in a {
        rows.insert(
            &agg.path,
            DiffRow {
                path: agg.path.clone(),
                count_a: agg.count,
                count_b: 0,
                sim_a: agg.incl_sim_ms,
                sim_b: 0.0,
                wall_a: agg.incl_wall_us,
                wall_b: 0,
            },
        );
    }
    for agg in b {
        let row = rows.entry(&agg.path).or_insert_with(|| DiffRow {
            path: agg.path.clone(),
            count_a: 0,
            count_b: 0,
            sim_a: 0.0,
            sim_b: 0.0,
            wall_a: 0,
            wall_b: 0,
        });
        row.count_b = agg.count;
        row.sim_b = agg.incl_sim_ms;
        row.wall_b = agg.incl_wall_us;
    }
    let mut out: Vec<DiffRow> = rows.into_values().collect();
    out.sort_by(|x, y| {
        y.sim_delta()
            .abs()
            .partial_cmp(&x.sim_delta().abs())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| y.wall_delta().abs().cmp(&x.wall_delta().abs()))
            .then_with(|| x.path.cmp(&y.path))
    });
    out
}

/// Renders a diff as a sorted text table (`top` 0 = all).
#[must_use]
pub fn render_diff(rows: &[DiffRow], top: usize) -> String {
    let shown = if top == 0 {
        rows.len()
    } else {
        top.min(rows.len())
    };
    let mut out = String::new();
    out.push_str("trace diff, B - A (by |sim-ms delta| desc)\n");
    out.push_str(&format!(
        "{:>14} {:>14} {:>12} {:>12} {:>7} {:>7}  {}\n",
        "sim-ms A", "sim-ms B", "Δ sim-ms", "Δ wall-us", "cnt A", "cnt B", "path"
    ));
    for r in &rows[..shown] {
        out.push_str(&format!(
            "{:>14.2} {:>14.2} {:>+12.2} {:>+12} {:>7} {:>7}  {}\n",
            r.sim_a,
            r.sim_b,
            r.sim_delta(),
            r.wall_delta(),
            r.count_a,
            r.count_b,
            r.path
        ));
    }
    if shown < rows.len() {
        out.push_str(&format!("  ... {} more paths\n", rows.len() - shown));
    }
    out
}

// ---------------------------------------------------------------------------
// One-shot summary
// ---------------------------------------------------------------------------

/// A one-shot overview: the check report, the top flamegraph paths, and
/// (when `engine.job` spans exist) the critical path — what
/// `rustbrain trace summarize` prints.
#[must_use]
pub fn render_summary(spans: &[TraceSpan], tree: &SpanTree) -> String {
    let report = check(spans, &CheckOptions::default());
    let aggs = flamegraph(tree);
    let classes = class_breakdown(tree);
    let mut out = report.render();
    out.push('\n');
    out.push_str(&render_flamegraph(&aggs, &classes, 10));
    let cp = critical_path(tree);
    if !cp.lanes.is_empty() {
        out.push('\n');
        out.push_str(&cp.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, sim: f64, wall: u64) -> TraceSpan {
        TraceSpan {
            id,
            parent,
            name: name.to_owned(),
            t_us: id * 10,
            wall_us: wall,
            sim_ms: sim,
            tags: Vec::new(),
        }
    }

    fn job(id: u64, worker: &str, sim: f64, wall: u64) -> TraceSpan {
        let mut s = span(id, None, "engine.job", sim, wall);
        s.tags.push(("worker".to_owned(), worker.to_owned()));
        s
    }

    #[test]
    fn parses_a_tracer_line_and_round_trips() {
        let line = r#"{"id":3,"parent":2,"name":"repair","t_us":120,"wall_us":857,"sim_ms":6423.5000,"tags":{"case":"panic-0","class":"panic"}}"#;
        let s = parse_line(line, 1).unwrap();
        assert_eq!(s.id, 3);
        assert_eq!(s.parent, Some(2));
        assert_eq!(s.name, "repair");
        assert_eq!(s.tag("class"), Some("panic"));
        assert_eq!(s.to_json_line(), line);
    }

    #[test]
    fn truncated_and_corrupt_lines_are_typed_errors() {
        let cases = [
            r#"{"id":3,"parent":2,"name":"re"#, // mid-string tear
            r#"{"id":3,"parent":2,"#,           // mid-object tear
            r#"{"id":3,"parent":2}"#,           // missing fields
            r#"{"id":"three","parent":null,"name":"x","t_us":0,"wall_us":0,"sim_ms":0.0,"tags":{}}"#,
            "[1,2,3]",
            "garbage",
            "",
        ];
        for text in cases {
            if text.is_empty() {
                assert!(read_str(text).unwrap().is_empty());
                continue;
            }
            let err = parse_line(text, 7);
            assert!(err.is_err(), "{text:?} parsed");
            match err.unwrap_err() {
                AnalyzeError::Json { line, .. } | AnalyzeError::Field { line, .. } => {
                    assert_eq!(line, 7);
                }
                other => panic!("unexpected error kind for {text:?}: {other}"),
            }
        }
    }

    /// A valid span line carrying an extra field nested `levels` arrays
    /// deep (the span object is level 0, the field's array level 1).
    fn span_nesting(levels: usize) -> String {
        format!(
            r#"{{"id":1,"parent":null,"name":"a","t_us":0,"wall_us":5,"sim_ms":1.0,"tags":{{}},"deep":{}{}}}"#,
            "[".repeat(levels),
            "]".repeat(levels)
        )
    }

    #[test]
    fn nesting_is_bounded_at_the_wire_limit() {
        let at_limit = parse_line(&span_nesting(MAX_JSON_DEPTH), 4).expect("64 levels parse");
        assert_eq!(at_limit.name, "a");
        let over = parse_line(&span_nesting(MAX_JSON_DEPTH + 1), 4);
        assert_eq!(
            over,
            Err(AnalyzeError::TooDeep {
                line: 4,
                limit: MAX_JSON_DEPTH
            })
        );
        // A scalar counts as a level too, exactly as in the wire parser.
        let scalar = span_nesting(MAX_JSON_DEPTH).replacen("]", "0]", 1);
        assert!(matches!(
            parse_line(&scalar, 1),
            Err(AnalyzeError::TooDeep { .. })
        ));
        // Objects nest the same way arrays do.
        let objects = format!(
            r#"{{"id":1,"parent":null,"name":"a","t_us":0,"wall_us":5,"sim_ms":1.0,"tags":{{}},"deep":{}{}}}"#,
            r#"{"k":"#.repeat(MAX_JSON_DEPTH + 1),
            "}".repeat(MAX_JSON_DEPTH + 1)
        );
        assert!(matches!(
            parse_line(&objects, 1),
            Err(AnalyzeError::TooDeep { .. })
        ));
    }

    #[test]
    fn hostile_nesting_is_an_error_not_an_abort() {
        // Deep enough to overflow any thread's stack without the bound.
        let line = span_nesting(200_000);
        let spans: Vec<_> = SpanReader::new(line.as_bytes()).collect();
        assert_eq!(
            spans,
            vec![Err(AnalyzeError::TooDeep {
                line: 1,
                limit: MAX_JSON_DEPTH
            })]
        );
        let message = read_str(&line).unwrap_err().to_string();
        assert!(message.contains("deeper than 64"), "{message}");
    }

    #[test]
    fn reader_skips_blank_lines_and_reports_utf8() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(
            br#"{"id":1,"parent":null,"name":"a","t_us":0,"wall_us":5,"sim_ms":1.0,"tags":{}}"#,
        );
        bytes.extend_from_slice(b"\n\n");
        bytes.extend_from_slice(b"\xff\xfe bad utf8\n");
        let results: Vec<_> = SpanReader::new(&bytes[..]).collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(AnalyzeError::Utf8 { line: 3 }));
    }

    #[test]
    fn tree_rejects_duplicates_dangles_and_cycles() {
        let dup = vec![span(1, None, "a", 0.0, 0), span(1, None, "b", 0.0, 0)];
        assert!(matches!(
            SpanTree::build(dup),
            Err(AnalyzeError::Tree { .. })
        ));
        let dangle = vec![span(2, Some(9), "a", 0.0, 0)];
        assert!(matches!(
            SpanTree::build(dangle),
            Err(AnalyzeError::Tree { .. })
        ));
        let cycle = vec![span(1, Some(2), "a", 0.0, 0), span(2, Some(1), "b", 0.0, 0)];
        assert!(matches!(
            SpanTree::build(cycle),
            Err(AnalyzeError::Tree { .. })
        ));
    }

    #[test]
    fn check_flags_uncovered_repairs_and_missing_kinds() {
        let spans = vec![
            span(1, None, "repair", 100.0, 50),
            span(2, Some(1), "fast", 50.0, 20),
        ];
        let report = check(&spans, &CheckOptions::default());
        assert!(!report.ok(), "50% coverage passed a 95% gate");
        assert_eq!(report.repairs, 1);
        assert!((report.min_repair_coverage - 0.5).abs() < 1e-12);

        let covered = vec![
            span(1, None, "repair", 100.0, 50),
            span(2, Some(1), "fast", 99.0, 20),
        ];
        let report = check(&covered, &CheckOptions::default());
        assert!(report.ok(), "{:?}", report.violations);

        let opts = CheckOptions {
            require_names: vec!["engine.job".to_owned()],
            ..CheckOptions::default()
        };
        let report = check(&covered, &opts);
        assert!(!report.ok(), "missing engine.job passed");

        let report = check(&[], &CheckOptions::default());
        assert!(!report.ok(), "empty trace passed");
    }

    #[test]
    fn flamegraph_rolls_up_inclusive_and_self() {
        let mut root = span(1, None, "engine.job", 100.0, 1000);
        root.tags.push(("class".to_owned(), "alloc".to_owned()));
        let spans = vec![
            root,
            span(2, Some(1), "repair", 100.0, 800),
            span(3, Some(2), "fast", 60.0, 300),
            span(4, Some(2), "kb.consult", 40.0, 100),
        ];
        let tree = SpanTree::build(spans).unwrap();
        let aggs = flamegraph(&tree);
        let by_path: BTreeMap<&str, &PathAgg> = aggs.iter().map(|a| (a.path.as_str(), a)).collect();
        let repair = by_path["engine.job;repair"];
        assert!((repair.incl_sim_ms - 100.0).abs() < 1e-12);
        assert!((repair.self_sim_ms - 0.0).abs() < 1e-12);
        assert_eq!(repair.self_wall_us, 400);
        let job = by_path["engine.job"];
        assert!((job.self_sim_ms - 0.0).abs() < 1e-12);
        assert_eq!(job.incl_wall_us, 1000);
        // Self times sum to the trace totals.
        let self_sim: f64 = aggs.iter().map(|a| a.self_sim_ms).sum();
        assert!((self_sim - 100.0).abs() < 1e-9);
        // The class inherits down to untagged children.
        let classes = class_breakdown(&tree);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].class, "alloc");
        assert_eq!(classes[0].count, 4);
        assert!((classes[0].self_sim_ms - 100.0).abs() < 1e-9);
        // Collapsed output charges self time only.
        let collapsed = render_collapsed(&aggs, Measure::Sim);
        assert!(collapsed.contains("engine.job;repair;fast 60000"));
        assert!(!collapsed.contains("engine.job;repair 100000"));
    }

    #[test]
    fn critical_path_bounds_match_hand_math() {
        // 4 lanes, balanced: 4 jobs of 10 each per lane.
        let mut spans = Vec::new();
        let mut id = 0;
        for w in 0..4u64 {
            for _ in 0..4u64 {
                id += 1;
                spans.push(job(id, &w.to_string(), 10.0, 10_000));
            }
        }
        let tree = SpanTree::build(spans).unwrap();
        let cp = critical_path(&tree);
        assert_eq!(cp.jobs, 16);
        assert_eq!(cp.lanes.len(), 4);
        assert!((cp.speedup_bound_sim() - 4.0).abs() < 1e-12);
        assert!((cp.speedup_bound_wall() - 4.0).abs() < 1e-12);
        assert!((cp.ideal_speedup_sim() - 16.0).abs() < 1e-12);
        // Imbalance drops the bound: pile one more job on lane 0.
        let mut spans: Vec<TraceSpan> = tree.spans().to_vec();
        spans.push(job(99, "0", 40.0, 40_000));
        let cp = critical_path(&SpanTree::build(spans).unwrap());
        assert!((cp.speedup_bound_sim() - 200.0 / 80.0).abs() < 1e-12);
    }

    #[test]
    fn diff_sorts_by_regression_magnitude() {
        let a = vec![
            PathAgg {
                path: "x".into(),
                count: 1,
                incl_sim_ms: 100.0,
                self_sim_ms: 100.0,
                incl_wall_us: 10,
                self_wall_us: 10,
            },
            PathAgg {
                path: "gone".into(),
                count: 1,
                incl_sim_ms: 5.0,
                self_sim_ms: 5.0,
                incl_wall_us: 1,
                self_wall_us: 1,
            },
        ];
        let b = vec![
            PathAgg {
                path: "x".into(),
                count: 2,
                incl_sim_ms: 160.0,
                self_sim_ms: 160.0,
                incl_wall_us: 25,
                self_wall_us: 25,
            },
            PathAgg {
                path: "new".into(),
                count: 1,
                incl_sim_ms: 7.0,
                self_sim_ms: 7.0,
                incl_wall_us: 2,
                self_wall_us: 2,
            },
        ];
        let rows = diff(&a, &b);
        assert_eq!(rows[0].path, "x");
        assert!((rows[0].sim_delta() - 60.0).abs() < 1e-12);
        assert_eq!(rows[1].path, "new");
        assert_eq!(rows[2].path, "gone");
        assert!((rows[2].sim_delta() + 5.0).abs() < 1e-12);
        let text = render_diff(&rows, 0);
        assert!(text.contains("+60.00"));
    }

    #[test]
    fn summary_renders_without_panicking_on_real_shapes() {
        let spans = vec![
            span(1, None, "engine.job", 100.0, 1000),
            span(2, Some(1), "repair", 100.0, 800),
            span(3, Some(2), "fast", 100.0, 300),
        ];
        let tree = SpanTree::build(spans.clone()).unwrap();
        let text = render_summary(&spans, &tree);
        assert!(text.contains("spans: 3"));
        assert!(text.contains("flamegraph"));
    }
}
