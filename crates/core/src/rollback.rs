//! The adaptive rollback agent (paper §III-B2, Fig. 5).
//!
//! Slow thinking produces a sequence of thoughts `T = {T₀…Tₚ}` whose oracle
//! error counts `N = {n₀…nₚ}` may *grow* under hallucination. The tracker
//! implements the three policies the paper contrasts:
//!
//! - [`RollbackPolicy::None`]: accept every thought (Fig. 5a) — errors
//!   compound;
//! - [`RollbackPolicy::ToInitial`]: on any regression, restart from `T₀`
//!   (prior art, cost `c · Tₙ`);
//! - [`RollbackPolicy::Adaptive`]: on regression, return to the best
//!   intermediate state — the fewest-error thought — retaining partial
//!   progress (cost `c · Tₙ₋ₐ`).

use crate::config::RollbackPolicy;
use rb_lang::Program;
use rb_miri::MiriReport;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Bookkeeping of one slow-thinking run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ThoughtTrace {
    /// Error count after each thought (the paper's `N` sequence, starting
    /// with `n₀` of the input program).
    pub error_counts: Vec<usize>,
    /// Number of rollbacks performed.
    pub rollbacks: usize,
    /// Thoughts discarded by rollbacks (the paper's overhead measure: the
    /// `a` in `c · Tₙ₋ₐ` is what adaptive rollback *saves*).
    pub discarded_thoughts: usize,
}

/// Tracks program states across slow-thinking iterations and applies the
/// configured rollback policy.
///
/// The tracker never judges programs itself: every [`MiriReport`] it
/// observes was produced by the executor's injected [`rb_miri::Oracle`],
/// so rollback re-verification shares whatever verdict cache the caller
/// injected and stays bit-identical to an uncached run.
///
/// States are shared, never copied: the initial, best and current
/// programs are [`Arc`] handles, so adopting a candidate, recording a new
/// best and rolling back are all reference-count bumps.
#[derive(Clone, Debug)]
pub struct RollbackTracker {
    policy: RollbackPolicy,
    initial: Arc<Program>,
    initial_report: Arc<MiriReport>,
    best: Arc<Program>,
    best_report: Arc<MiriReport>,
    current: Arc<Program>,
    current_report: Arc<MiriReport>,
    /// Thoughts accumulated since the last rollback anchor.
    since_anchor: usize,
    /// Public trace for analysis.
    pub trace: ThoughtTrace,
}

impl RollbackTracker {
    /// Starts tracking from the input program and its oracle report
    /// (both shared — neither is deep-copied).
    #[must_use]
    pub fn new(
        policy: RollbackPolicy,
        program: Arc<Program>,
        report: Arc<MiriReport>,
    ) -> RollbackTracker {
        let trace = ThoughtTrace {
            error_counts: vec![report.error_count()],
            ..ThoughtTrace::default()
        };
        RollbackTracker {
            policy,
            initial: Arc::clone(&program),
            initial_report: Arc::clone(&report),
            best: Arc::clone(&program),
            best_report: Arc::clone(&report),
            current: program,
            current_report: report,
            since_anchor: 0,
            trace,
        }
    }

    /// The state to continue editing from.
    #[must_use]
    pub fn current(&self) -> (&Program, &MiriReport) {
        (&self.current, &self.current_report)
    }

    /// Like [`current`], but exposing the shared handles so callers can
    /// keep the state without a deep copy.
    ///
    /// [`current`]: RollbackTracker::current
    #[must_use]
    pub fn current_shared(&self) -> (&Arc<Program>, &Arc<MiriReport>) {
        (&self.current, &self.current_report)
    }

    /// The best state seen so far (fewest oracle errors).
    #[must_use]
    pub fn best(&self) -> (&Program, &MiriReport) {
        (&self.best, &self.best_report)
    }

    /// Like [`best`], but exposing the shared handles.
    ///
    /// [`best`]: RollbackTracker::best
    #[must_use]
    pub fn best_shared(&self) -> (&Arc<Program>, &Arc<MiriReport>) {
        (&self.best, &self.best_report)
    }

    /// Observes a new thought (candidate program + its report), applies the
    /// rollback policy, and returns whether a rollback occurred.
    ///
    /// Takes both as [`Arc`]s so a cache-served verdict and the candidate
    /// are shared, not deep-copied, on this hot path (the slow-thinking
    /// executor calls this once per verified edit).
    pub fn observe(&mut self, candidate: Arc<Program>, report: Arc<MiriReport>) -> bool {
        let n_new = report.error_count();
        let n_cur = self.current_report.error_count();
        self.trace.error_counts.push(n_new);
        self.since_anchor += 1;

        if n_new < self.best_report.error_count() {
            self.best = Arc::clone(&candidate);
            self.best_report = Arc::clone(&report);
        }

        let regressed = n_new > n_cur;
        let rolled = match self.policy {
            RollbackPolicy::None => {
                self.current = candidate;
                self.current_report = report;
                false
            }
            RollbackPolicy::ToInitial => {
                if regressed {
                    self.trace.rollbacks += 1;
                    self.trace.discarded_thoughts += self.since_anchor;
                    self.since_anchor = 0;
                    self.current = Arc::clone(&self.initial);
                    self.current_report = Arc::clone(&self.initial_report);
                    true
                } else {
                    self.current = candidate;
                    self.current_report = report;
                    false
                }
            }
            RollbackPolicy::Adaptive => {
                if regressed {
                    self.trace.rollbacks += 1;
                    // Only the thoughts after the best anchor are wasted.
                    self.trace.discarded_thoughts += 1;
                    self.since_anchor = 0;
                    self.current = Arc::clone(&self.best);
                    self.current_report = Arc::clone(&self.best_report);
                    true
                } else {
                    self.current = candidate;
                    self.current_report = report;
                    false
                }
            }
        };
        if rolled {
            rb_obs::event(
                "rollback",
                &[
                    ("policy", &format_args!("{:?}", self.policy)),
                    ("errors_new", &n_new),
                    ("errors_current", &n_cur),
                ],
            );
            rb_obs::metrics().counter_add("rustbrain_rollbacks_total", None, 1);
        }
        rolled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::parser::parse_program;
    use rb_miri::run_program;

    fn prog(n: i32) -> Program {
        parse_program(&format!("fn main() {{ print({n}); }}")).unwrap()
    }

    fn p(n: i32) -> Arc<Program> {
        Arc::new(prog(n))
    }

    fn fake_report(errors: usize) -> Arc<MiriReport> {
        let mut r = MiriReport::default();
        for _ in 0..errors {
            r.errors.push(rb_miri::MiriError {
                kind: rb_miri::UbKind::UseAfterFree,
                message: "x".into(),
                path: None,
                thread: 0,
            });
        }
        Arc::new(r)
    }

    #[test]
    fn adaptive_returns_to_best() {
        let mut t = RollbackTracker::new(RollbackPolicy::Adaptive, p(0), fake_report(3));
        t.observe(p(1), fake_report(1)); // improvement: best = p(1)
        let rolled = t.observe(p(2), fake_report(5)); // regression
        assert!(rolled);
        assert_eq!(t.current().1.error_count(), 1); // back at best, not initial
        assert_eq!(t.trace.rollbacks, 1);
    }

    #[test]
    fn to_initial_discards_progress() {
        let mut t = RollbackTracker::new(RollbackPolicy::ToInitial, p(0), fake_report(3));
        t.observe(p(1), fake_report(1));
        let rolled = t.observe(p(2), fake_report(5));
        assert!(rolled);
        assert_eq!(t.current().1.error_count(), 3); // back at the start
        assert!(t.trace.discarded_thoughts >= 2);
    }

    #[test]
    fn none_lets_errors_compound() {
        let mut t = RollbackTracker::new(RollbackPolicy::None, p(0), fake_report(1));
        t.observe(p(1), fake_report(3));
        t.observe(p(2), fake_report(6));
        assert_eq!(t.current().1.error_count(), 6);
        assert_eq!(t.trace.rollbacks, 0);
        assert_eq!(t.trace.error_counts, vec![1, 3, 6]);
    }

    #[test]
    fn fluctuating_decline_converges_without_thrash() {
        // The paper's N2 = {3, 1, 5, 2, 0}: adaptive rollback should end at 0.
        let mut t = RollbackTracker::new(RollbackPolicy::Adaptive, p(0), fake_report(3));
        t.observe(p(1), fake_report(1));
        t.observe(p(2), fake_report(5)); // rollback to 1-error state
        t.observe(p(3), fake_report(2)); // worse than best(1) but better than 5? current is best(1) -> regression
        t.observe(p(4), fake_report(0));
        assert_eq!(t.best().1.error_count(), 0);
    }

    #[test]
    fn adaptive_rollback_shares_the_best_state() {
        let mut t = RollbackTracker::new(RollbackPolicy::Adaptive, p(0), fake_report(3));
        t.observe(p(1), fake_report(1));
        assert!(t.observe(p(2), fake_report(5)));
        assert!(Arc::ptr_eq(t.current_shared().0, t.best_shared().0));
        assert!(Arc::ptr_eq(t.current_shared().1, t.best_shared().1));
    }

    #[test]
    fn to_initial_rollback_shares_the_initial_state() {
        let initial = p(0);
        let mut t = RollbackTracker::new(
            RollbackPolicy::ToInitial,
            Arc::clone(&initial),
            fake_report(3),
        );
        t.observe(p(1), fake_report(1));
        assert!(t.observe(p(2), fake_report(5)));
        assert!(Arc::ptr_eq(t.current_shared().0, &initial));
    }

    #[test]
    fn best_tracks_real_oracle_reports() {
        let good = parse_program("fn main() { print(1i32); }").unwrap();
        let report = run_program(&good);
        let mut t = RollbackTracker::new(RollbackPolicy::Adaptive, p(9), fake_report(2));
        t.observe(Arc::new(good.clone()), Arc::new(report));
        assert!(t.best().1.passes());
        assert_eq!(t.best().0, &good);
    }
}
