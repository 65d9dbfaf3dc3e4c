//! The pluggable oracle seam: every layer that needs a UB verdict judges
//! programs through the object-safe [`Oracle`] trait instead of calling
//! [`run_program`] directly.
//!
//! The indirection is the architectural point, not the default behaviour:
//! [`DirectOracle`] is a zero-cost wrapper over the interpreter, while
//! other crates plug in caching (`rb_engine`'s `CachedOracle` over the
//! sharded content-addressed cache) or — in the future — a real Miri
//! subprocess or a remote oracle service, without any caller changing.
//!
//! Two invariants every implementation must uphold:
//!
//! 1. **Purity** — `judge` returns the verdict [`run_program`] would
//!    return for the same program, bit for bit. Implementations may
//!    change *when* the interpreter runs (memoisation, batching), never
//!    *what* it reports. The repair pipelines rely on this for their
//!    determinism guarantees.
//! 2. **Thread safety** — oracles are shared across worker threads
//!    (`Send + Sync`), so all interior state must be synchronised.
//!
//! An oracle that keeps the programs it judged may also keep a
//! [`StateMemo`] per program ([`Oracle::state_memo`]): a slot where the
//! repair layers park what they derive from a state alone, so it is
//! derived once per state rather than once per job.

use crate::diagnostics::MiriReport;
use crate::interp::run_program;
use rb_lang::Program;
use std::any::Any;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An object-safe judge of programs: the seam every repair layer runs its
/// oracle calls through.
///
/// ```
/// use rb_lang::parser::parse_program;
/// use rb_miri::{DirectOracle, Oracle};
///
/// let p = parse_program("fn main() { print(2i32 + 2i32); }").unwrap();
/// let oracle: &dyn Oracle = &DirectOracle;
/// assert!(oracle.judge(&p).passes());
/// ```
pub trait Oracle: Send + Sync {
    /// The oracle verdict for `program` — exactly what [`run_program`]
    /// would report, possibly served without executing the interpreter.
    fn judge(&self, program: &Program) -> Arc<MiriReport>;

    /// Like [`judge`], additionally reporting whether the verdict was
    /// served from a cache (`true`) or executed fresh (`false`), so
    /// callers can attribute the call in their telemetry.
    ///
    /// The default forwards to [`judge`] and reports an execution, which
    /// is correct for any implementation without memoisation.
    ///
    /// [`judge`]: Oracle::judge
    fn judge_counted(&self, program: &Program) -> (Arc<MiriReport>, bool) {
        (self.judge(program), false)
    }

    /// [`judge_counted`] for a program the caller already holds behind an
    /// [`Arc`], so a memoising implementation can keep the handle instead
    /// of deep-copying the program into its entry.
    ///
    /// The default forwards to [`judge_counted`]; only implementations
    /// that store programs have anything to gain by overriding it.
    ///
    /// [`judge_counted`]: Oracle::judge_counted
    fn judge_shared(&self, program: &Arc<Program>) -> (Arc<MiriReport>, bool) {
        self.judge_counted(program)
    }

    /// [`judge_shared`] with the attribution folded straight into a
    /// counter — the one-liner every repair loop wants. Repair loops hold
    /// their program states as shared handles, so this takes one too.
    ///
    /// This default is also the observability seam: every judgement that
    /// flows through it is recorded by a [`JudgeRecord`] (an
    /// `oracle.judge` span with cached/executed and verdict-class tags,
    /// plus wall-clock latency in the process-wide registry). No
    /// implementation in the stack overrides it, and an override of
    /// [`judge_canonical`] or [`judge_edit`] records through the same
    /// [`JudgeRecord`], so the fast path, slow path and rollback
    /// reverification are all covered. Purely observational: the verdict
    /// and the `used` accounting are untouched.
    ///
    /// [`judge_shared`]: Oracle::judge_shared
    /// [`judge_canonical`]: Oracle::judge_canonical
    /// [`judge_edit`]: Oracle::judge_edit
    fn judge_recording(&self, program: &Arc<Program>, used: &mut OracleUse) -> Arc<MiriReport> {
        let record = JudgeRecord::open();
        let (report, cached) = self.judge_shared(program);
        record.close(&report, cached, used);
        report
    }

    /// [`judge_recording`] that also returns the handle the oracle keeps
    /// for `program`'s content, so a caller can continue from it: a
    /// memoising oracle finds its edits and its [`StateMemo`] by address.
    /// The handle is `program` itself unless the oracle already held an
    /// equal program under another one.
    ///
    /// The default keeps nothing: it judges through [`judge_recording`]
    /// and returns the caller's handle.
    ///
    /// [`judge_recording`]: Oracle::judge_recording
    fn judge_canonical(
        &self,
        program: &Arc<Program>,
        used: &mut OracleUse,
    ) -> (Arc<Program>, Arc<MiriReport>) {
        (Arc::clone(program), self.judge_recording(program, used))
    }

    /// Judges the program one edit away from `from`: `derive` builds it
    /// (returning `None` when the edit does not apply, in which case
    /// nothing is judged), and the verdict is recorded like
    /// [`judge_recording`]. Returns the judged program and its verdict.
    ///
    /// `edit` names the edit among all edits of `from`, and `derive` must
    /// be pure: its result may depend only on `from` and `edit`. That
    /// contract is what lets a memoising implementation remember the
    /// successor of `(from, edit)` and skip `derive` the next time — so
    /// the returned handle may be one the oracle already held rather than
    /// a fresh one, with equal content.
    ///
    /// The default always runs `derive` and judges the result through
    /// [`judge_recording`].
    ///
    /// [`judge_recording`]: Oracle::judge_recording
    fn judge_edit(
        &self,
        from: &Arc<Program>,
        edit: u64,
        derive: &mut dyn FnMut() -> Option<Program>,
        used: &mut OracleUse,
    ) -> Option<(Arc<Program>, Arc<MiriReport>)> {
        let _ = (from, edit);
        let program = Arc::new(derive()?);
        let report = self.judge_recording(&program, used);
        Some((program, report))
    }

    /// The [`StateMemo`] this oracle keeps for `state`, if it keeps one:
    /// a slot where callers park what they derive from the program alone,
    /// so the next caller proposing on an equal state reads it instead of
    /// deriving it again.
    ///
    /// Asking never judges `state` nor stores it: an oracle answers only
    /// for a state it already holds. The default keeps nothing and
    /// returns `None`.
    fn state_memo(&self, state: &Arc<Program>) -> Option<Arc<StateMemo>> {
        let _ = state;
        None
    }
}

/// A slot an [`Oracle`] keeps next to one program state (see
/// [`Oracle::state_memo`]): a fixed few write-once cells, each holding a
/// value of one type and found by that type. The oracle neither reads nor
/// names what the cells hold. A user must store only what is a function
/// of the program's content, since every caller holding an equal program
/// is handed the same slot.
///
/// A type takes the first free cell the first time it is asked for, and
/// keeps it. When every cell holds another type, the slot has no room for
/// it: [`StateMemo::get_or_init`] answers `None` and the caller derives
/// the value itself.
#[derive(Default)]
pub struct StateMemo([OnceLock<Arc<dyn Any + Send + Sync>>; StateMemo::CELLS]);

impl StateMemo {
    /// Cells per slot: one for each kind of value the repair layers keep
    /// per state today (`rb_llm`'s proposal facts and the pipeline's
    /// program features).
    pub const CELLS: usize = 2;

    /// How many cells hold a value.
    #[must_use]
    pub fn filled(&self) -> usize {
        self.0.iter().map_while(OnceLock::get).count()
    }

    /// The value of type `T` in the slot, if one has been stored.
    #[must_use]
    pub fn get<T: Any + Send + Sync>(&self) -> Option<Arc<T>> {
        let value = self
            .0
            .iter()
            .map_while(OnceLock::get)
            .find(|v| v.is::<T>())?;
        Arc::clone(value).downcast().ok()
    }

    /// The value of type `T` in the slot, storing `init()` first if there
    /// is none, or `None` when every cell holds another type. `init` runs
    /// at most once per slot and type, racing callers included; it does
    /// not run when the slot has no room.
    pub fn get_or_init<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Option<Arc<T>> {
        let mut init = Some(init);
        let value = self
            .0
            .iter()
            .map(|cell| {
                cell.get_or_init(|| {
                    let init = init.take().expect("a type fills one cell");
                    Arc::new(init())
                })
            })
            .find(|v| v.is::<T>())?;
        Arc::clone(value).downcast().ok()
    }
}

impl fmt::Debug for StateMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StateMemo")
            .field("filled", &self.filled())
            .finish()
    }
}

/// The telemetry of one recorded judgement: opened before the verdict is
/// fetched, closed with it. Closing counts the judgement in an
/// [`OracleUse`], tags the `oracle.judge` span it opened with the
/// cached/executed split and the verdict class, and records the
/// `rustbrain_oracle_judgements_total` counter and the
/// `rustbrain_oracle_judge_us` latency histogram.
pub struct JudgeRecord {
    span: rb_obs::Span,
    start: std::time::Instant,
}

impl JudgeRecord {
    /// Opens the `oracle.judge` span and starts the latency clock.
    #[must_use]
    pub fn open() -> JudgeRecord {
        JudgeRecord {
            span: rb_obs::span("oracle.judge"),
            start: std::time::Instant::now(),
        }
    }

    /// Records `report`, served from a cache when `cached`, into `used`
    /// and the process-wide telemetry, and closes the span.
    pub fn close(mut self, report: &MiriReport, cached: bool, used: &mut OracleUse) {
        used.record(cached);
        let verdict = report.primary().map_or("pass", |e| e.class().label());
        let result = if cached { "cached" } else { "executed" };
        let m = rb_obs::metrics();
        m.counter_add(
            "rustbrain_oracle_judgements_total",
            Some(("result", result)),
            1,
        );
        m.observe(
            "rustbrain_oracle_judge_us",
            Some(("class", verdict)),
            self.start.elapsed().as_secs_f64() * 1e6,
            rb_obs::REAL_US_BUCKETS,
        );
        self.span.tag("cached", result);
        self.span.tag("verdict", verdict);
    }
}

/// The zero-cost default oracle: every judgement runs the interpreter.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectOracle;

impl Oracle for DirectOracle {
    fn judge(&self, program: &Program) -> Arc<MiriReport> {
        Arc::new(run_program(program))
    }
}

/// Telemetry counter splitting oracle judgements into executed-fresh vs
/// served-from-cache (accumulated by the repair pipelines per repair, and
/// by the batch engine per batch).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OracleUse {
    /// Judgements that executed the interpreter.
    pub executed: usize,
    /// Judgements served from a cache.
    pub cached: usize,
    /// Judgements resolved without the oracle. Nothing in the stack
    /// resolves one any more, so this stays 0; it is kept so telemetry
    /// layouts built on the three-way split stay stable.
    pub prevetoed: usize,
}

impl OracleUse {
    /// Records one judgement from its cache flag (the second half of
    /// [`Oracle::judge_counted`]).
    pub fn record(&mut self, cached: bool) {
        if cached {
            self.cached += 1;
        } else {
            self.executed += 1;
        }
    }

    /// Total judgements recorded.
    #[must_use]
    pub fn total(&self) -> usize {
        self.executed + self.cached + self.prevetoed
    }

    /// Folds another counter into this one.
    pub fn absorb(&mut self, other: OracleUse) {
        self.executed += other.executed;
        self.cached += other.cached;
        self.prevetoed += other.prevetoed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::parser::parse_program;

    #[test]
    fn direct_oracle_matches_run_program() {
        let p = parse_program("fn main() { let z: i32 = 0; print(1 / z); }").unwrap();
        let via_trait = DirectOracle.judge(&p);
        assert_eq!(*via_trait, run_program(&p));
        let (report, cached) = DirectOracle.judge_counted(&p);
        assert_eq!(*report, *via_trait);
        assert!(!cached, "the direct oracle never serves from a cache");
        let mut used = OracleUse::default();
        let shared = Arc::new(p);
        assert_eq!(
            DirectOracle.judge_shared(&shared),
            (Arc::clone(&via_trait), false)
        );
        assert_eq!(
            *DirectOracle.judge_recording(&shared, &mut used),
            *via_trait
        );
        assert_eq!(
            used,
            OracleUse {
                executed: 1,
                ..OracleUse::default()
            }
        );
    }

    #[test]
    fn default_judge_edit_derives_and_records_every_time() {
        let from = Arc::new(parse_program("fn main() { print(1i32); }").unwrap());
        let mut used = OracleUse::default();
        let mut derived = 0;
        let mut derive = || {
            derived += 1;
            Some(parse_program("fn main() { print(2i32); }").unwrap())
        };
        for _ in 0..2 {
            let (program, report) = DirectOracle
                .judge_edit(&from, 0, &mut derive, &mut used)
                .expect("the edit applies");
            assert_eq!(*report, run_program(&program));
        }
        assert!(DirectOracle
            .judge_edit(&from, 1, &mut || None, &mut used)
            .is_none());
        assert_eq!(derived, 2);
        assert_eq!((used.executed, used.cached), (2, 0));
        assert!(DirectOracle.state_memo(&from).is_none());
    }

    #[test]
    fn state_memo_fills_once() {
        let memo = StateMemo::default();
        assert!(memo.get::<u32>().is_none());
        assert_eq!(format!("{memo:?}"), "StateMemo { filled: 0 }");
        assert_eq!(memo.get_or_init(|| 7u32).as_deref(), Some(&7));
        let again = memo.get_or_init(|| -> u32 { unreachable!("a filled cell is never refilled") });
        assert_eq!(again.as_deref(), Some(&7));
        assert_eq!(memo.get::<u32>().as_deref(), Some(&7));
        assert_eq!(format!("{memo:?}"), "StateMemo { filled: 1 }");
    }

    #[test]
    fn state_memo_keys_its_cells_by_type_and_runs_out() {
        let memo = StateMemo::default();
        assert_eq!(StateMemo::CELLS, 2);
        assert_eq!(memo.get_or_init(|| 1u8).as_deref(), Some(&1));
        assert!(
            memo.get::<u16>().is_none(),
            "a type finds only its own cell"
        );
        assert_eq!(memo.get_or_init(|| 2u16).as_deref(), Some(&2));
        assert_eq!(memo.get::<u8>().as_deref(), Some(&1));
        let full = memo.get_or_init(|| -> u32 { unreachable!("a full slot derives nothing") });
        assert!(full.is_none(), "every cell holds another type");
        assert!(memo.get::<u32>().is_none());
        assert_eq!(format!("{memo:?}"), "StateMemo { filled: 2 }");
    }

    #[test]
    fn oracle_is_object_safe_and_shareable() {
        let oracle: Arc<dyn Oracle> = Arc::new(DirectOracle);
        let p = parse_program("fn main() { print(1i32); }").unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                let oracle = Arc::clone(&oracle);
                let p = &p;
                s.spawn(move || assert!(oracle.judge(p).passes()));
            }
        });
    }

    #[test]
    fn oracle_use_accounting() {
        let mut used = OracleUse::default();
        used.record(false);
        used.record(true);
        used.record(true);
        assert_eq!(
            used,
            OracleUse {
                executed: 1,
                cached: 2,
                ..OracleUse::default()
            }
        );
        assert_eq!(used.total(), 3);
        let mut sum = OracleUse::default();
        sum.absorb(used);
        sum.absorb(used);
        assert_eq!(sum.total(), 6);
    }
}
