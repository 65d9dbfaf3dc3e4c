//! Structured span tracing with a JSONL sink.
//!
//! A [`Tracer`] is a cheap cloneable handle on a shared sink. It is
//! *installed* on a thread with [`scope`]; from then until the returned
//! guard drops, [`span`] opens a real span and emits one JSON line when
//! the span drops. Parentage is tracked per thread with a span-id stack,
//! so strictly nested RAII guards reconstruct the call tree without any
//! parameter threading through the instrumented code.
//!
//! One line per finished span:
//!
//! ```json
//! {"id":3,"parent":2,"name":"repair","t_us":120,"wall_us":857,
//!  "sim_ms":6423.5,"tags":{"case":"panic-0","class":"panic"}}
//! ```
//!
//! - `id` / `parent`: span ids unique within the tracer (`parent` is
//!   `null` for roots). Children appear *before* their parent (a child
//!   guard drops first) — consumers reconstruct the tree from the ids.
//! - `t_us`: span start, microseconds since the tracer was created.
//! - `wall_us`: real elapsed microseconds between open and drop.
//! - `sim_ms`: simulated milliseconds attributed to this span via
//!   [`Span::add_sim_ms`] — the same numbers the cost model charges, so
//!   a span tree's `sim_ms` totals reconcile with `RepairOutcome`
//!   overhead exactly.
//! - `tags`: free-form string key/values ([`Span::tag`]).
//!
//! Nothing is formatted for an inert span: [`Span::tag`] and [`event`]
//! take [`Display`] values and render them only when a tracer will emit
//! the record, so untraced call sites pass values, not strings.

use std::fmt::Display;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::json::{fmt_num, fmt_str};

/// One span record as the tracer emits it: fixed field order, tags in
/// insertion order, `sim_ms` at four decimals. [`Span`]'s drop and
/// [`crate::analyze::TraceSpan::to_json_line`] both write through here,
/// so a parsed trace line re-serializes byte for byte.
pub(crate) fn span_line<'a>(
    id: u64,
    parent: Option<u64>,
    name: &str,
    t_us: u64,
    wall_us: u64,
    sim_ms: f64,
    tags: impl Iterator<Item = (&'a str, &'a str)>,
) -> String {
    let parent = parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
    let mut line = format!(
        "{{\"id\":{id},\"parent\":{parent},\"name\":{},\"t_us\":{t_us},\"wall_us\":{wall_us},\"sim_ms\":{},\"tags\":{{",
        fmt_str(name),
        fmt_num(sim_ms)
    );
    for (i, (k, v)) in tags.enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&fmt_str(k));
        line.push(':');
        line.push_str(&fmt_str(v));
    }
    line.push_str("}}");
    line
}

enum Sink {
    File(BufWriter<File>),
    Memory(Vec<String>),
}

struct TracerInner {
    sink: Mutex<Sink>,
    next_id: AtomicU64,
    emitted: AtomicU64,
    epoch: Instant,
}

/// A handle on a shared trace sink. Clones share the sink and the span-id
/// counter, so one tracer can be installed on many threads (each engine
/// worker, each serve handler) and their spans interleave safely in one
/// output stream.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Tracer {
    fn with_sink(sink: Sink) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                sink: Mutex::new(sink),
                next_id: AtomicU64::new(1),
                emitted: AtomicU64::new(0),
                epoch: Instant::now(),
            }),
        }
    }

    /// A tracer that appends JSONL lines to a buffered file at `path`
    /// (created or truncated).
    pub fn to_file(path: &Path) -> std::io::Result<Tracer> {
        let file = File::create(path)?;
        Ok(Tracer::with_sink(Sink::File(BufWriter::new(file))))
    }

    /// A tracer that collects lines in memory — the test-friendly sink;
    /// read back with [`Tracer::lines`].
    #[must_use]
    pub fn in_memory() -> Tracer {
        Tracer::with_sink(Sink::Memory(Vec::new()))
    }

    /// The lines emitted so far (empty for file-backed tracers).
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        match &*self.lock() {
            Sink::Memory(lines) => lines.clone(),
            Sink::File(_) => Vec::new(),
        }
    }

    /// Flushes a file-backed sink (a no-op for in-memory tracers). Also
    /// happens when the last handle drops.
    pub fn flush(&self) {
        if let Sink::File(w) = &mut *self.lock() {
            let _ = w.flush();
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Sink> {
        // An observability panic must never take the observed system
        // down; a poisoned sink keeps emitting.
        self.inner
            .sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn emit(&self, line: &str) {
        match &mut *self.lock() {
            Sink::File(w) => {
                let _ = writeln!(w, "{line}");
            }
            Sink::Memory(lines) => lines.push(line.to_owned()),
        }
        self.inner.emitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Span records emitted so far across every clone of this tracer —
    /// the resident daemon reports this through `stats` so operators can
    /// see the trace growing without touching the file.
    #[must_use]
    pub fn spans_emitted(&self) -> u64 {
        self.inner.emitted.load(Ordering::Relaxed)
    }

    fn next_id(&self) -> u64 {
        self.inner.next_id.fetch_add(1, Ordering::Relaxed)
    }
}

struct ThreadState {
    tracer: Tracer,
    stack: Vec<u64>,
}

thread_local! {
    static ACTIVE: std::cell::RefCell<Option<ThreadState>> =
        const { std::cell::RefCell::new(None) };
}

/// Installs `tracer` on the current thread for the guard's lifetime.
/// Dropping the guard restores whatever was installed before (scopes
/// nest). While a scope is active, [`span`] emits; outside one it is a
/// no-op.
#[must_use = "the tracer is uninstalled when the guard drops"]
pub fn scope(tracer: &Tracer) -> ScopeGuard {
    let prev = ACTIVE.with(|a| {
        a.borrow_mut().replace(ThreadState {
            tracer: tracer.clone(),
            stack: Vec::new(),
        })
    });
    ScopeGuard { prev }
}

/// RAII guard returned by [`scope`]; restores the previous thread state
/// on drop.
pub struct ScopeGuard {
    prev: Option<ThreadState>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| *a.borrow_mut() = prev);
    }
}

struct SpanInner {
    tracer: Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    t_us: u64,
    start: Instant,
    sim_ms: f64,
    tags: Vec<(&'static str, String)>,
}

/// An open span. Created by [`span`]; emits its JSONL record when
/// dropped. Inert (all methods are no-ops) when no tracer is installed
/// on the creating thread.
#[must_use = "a span measures the scope it lives in"]
pub struct Span {
    inner: Option<SpanInner>,
}

/// Opens a span named `name` under the currently installed tracer, as a
/// child of the innermost open span on this thread. Returns an inert
/// span when no tracer is installed.
pub fn span(name: &'static str) -> Span {
    let inner = ACTIVE.with(|a| {
        let mut state = a.borrow_mut();
        let state = state.as_mut()?;
        let id = state.tracer.next_id();
        let parent = state.stack.last().copied();
        state.stack.push(id);
        Some(SpanInner {
            t_us: u64::try_from(state.tracer.inner.epoch.elapsed().as_micros()).unwrap_or(u64::MAX),
            tracer: state.tracer.clone(),
            id,
            parent,
            name,
            start: Instant::now(),
            sim_ms: 0.0,
            tags: Vec::new(),
        })
    });
    Span { inner }
}

/// Emits a zero-duration event record (a span opened and closed in
/// place) — used for point-in-time occurrences like a rollback decision.
/// Tag values are formatted only when a tracer is installed.
pub fn event(name: &'static str, tags: &[(&'static str, &dyn Display)]) {
    let mut s = span(name);
    for (k, v) in tags {
        s.tag(k, v);
    }
    drop(s);
}

impl Span {
    /// Whether this span will emit a record (a tracer was installed when
    /// it was opened).
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches a tag, its value rendered through [`Display`]; later
    /// values for the same key win. An inert span formats nothing.
    pub fn tag(&mut self, key: &'static str, value: impl Display) {
        if let Some(inner) = &mut self.inner {
            let value = value.to_string();
            if let Some(slot) = inner.tags.iter_mut().find(|(k, _)| *k == key) {
                slot.1 = value;
            } else {
                inner.tags.push((key, value));
            }
        }
    }

    /// Attributes `ms` simulated milliseconds to this span (accumulates
    /// across calls). Mirror of the cost model's charge sites.
    pub fn add_sim_ms(&mut self, ms: f64) {
        if let Some(inner) = &mut self.inner {
            inner.sim_ms += ms;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        // Pop this span from the thread's open-span stack. Strict RAII
        // nesting means it is the top, but a span moved across an early
        // return could drop out of order — truncate to its position so
        // parentage degrades rather than corrupts.
        ACTIVE.with(|a| {
            if let Some(state) = a.borrow_mut().as_mut() {
                if let Some(pos) = state.stack.iter().rposition(|&id| id == inner.id) {
                    state.stack.truncate(pos);
                }
            }
        });
        let wall_us = u64::try_from(inner.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let line = span_line(
            inner.id,
            inner.parent,
            inner.name,
            inner.t_us,
            wall_us,
            inner.sim_ms,
            inner.tags.iter().map(|(k, v)| (*k, v.as_str())),
        );
        inner.tracer.emit(&line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field_u64(line: &str, key: &str) -> Option<u64> {
        let marker = format!("\"{key}\":");
        let rest = &line[line.find(&marker)? + marker.len()..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    #[test]
    fn spans_are_inert_without_a_scope() {
        let mut s = span("orphan");
        assert!(!s.is_active());
        s.tag("k", "v");
        s.add_sim_ms(10.0);
        drop(s);
        // Nothing to observe — the point is that none of it panicked.
    }

    #[test]
    fn nesting_is_reconstructible_from_parent_ids() {
        let tracer = Tracer::in_memory();
        {
            let _g = scope(&tracer);
            let mut root = span("root");
            root.add_sim_ms(5.0);
            {
                let mut child = span("child");
                child.tag("class", "panic");
                child.add_sim_ms(2.5);
                let _grand = span("grandchild");
            }
            let _sibling = span("sibling");
        }
        let lines = tracer.lines();
        assert_eq!(lines.len(), 4);
        // Drop order: grandchild, child, sibling, root.
        let ids: Vec<u64> = lines.iter().map(|l| field_u64(l, "id").unwrap()).collect();
        let root_line = lines
            .iter()
            .find(|l| l.contains("\"name\":\"root\""))
            .unwrap();
        let root_id = field_u64(root_line, "id").unwrap();
        let child_line = lines
            .iter()
            .find(|l| l.contains("\"name\":\"child\""))
            .unwrap();
        let grand_line = lines
            .iter()
            .find(|l| l.contains("\"name\":\"grandchild\""))
            .unwrap();
        let sibling_line = lines
            .iter()
            .find(|l| l.contains("\"name\":\"sibling\""))
            .unwrap();
        assert!(root_line.contains("\"parent\":null"));
        assert_eq!(field_u64(child_line, "parent"), Some(root_id));
        assert_eq!(field_u64(grand_line, "parent"), field_u64(child_line, "id"));
        assert_eq!(field_u64(sibling_line, "parent"), Some(root_id));
        // Ids are unique.
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len());
        // Sim attribution and tags made it to the wire.
        assert!(root_line.contains("\"sim_ms\":5.0000"), "{root_line}");
        assert!(child_line.contains("\"class\":\"panic\""), "{child_line}");
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = Tracer::in_memory();
        let inner = Tracer::in_memory();
        let _g = scope(&outer);
        {
            let _g2 = scope(&inner);
            drop(span("into_inner"));
        }
        drop(span("into_outer"));
        assert_eq!(inner.lines().len(), 1);
        assert_eq!(outer.lines().len(), 1);
        assert!(outer.lines()[0].contains("into_outer"));
    }

    #[test]
    fn events_and_escaping() {
        let tracer = Tracer::in_memory();
        let _g = scope(&tracer);
        event("rollback", &[("note", &"say \"hi\"\n")]);
        let lines = tracer.lines();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].contains(r#""note":"say \"hi\"\n""#),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn file_sink_round_trips() {
        let dir = std::env::temp_dir().join(format!("rb_obs_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        let tracer = Tracer::to_file(&path).unwrap();
        {
            let _g = scope(&tracer);
            drop(span("solo"));
        }
        tracer.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"name\":\"solo\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_sim_never_reaches_the_wire() {
        let tracer = Tracer::in_memory();
        let _g = scope(&tracer);
        let mut s = span("weird");
        s.add_sim_ms(f64::NAN);
        drop(s);
        let lines = tracer.lines();
        assert!(lines[0].contains("\"sim_ms\":0.0000"), "{}", lines[0]);
        assert!(!lines[0].contains("NaN"));
    }
}
