//! The lint's one contract, shared by its unit and integration tests.

use rb_lint::{rules::rule_id_for_kind, Analysis};
use rb_miri::MiriReport;

/// Asserts that `a` is `report` as findings: one finding per error, in
/// report order, each with the error's class, kind, path and message and
/// the rule id its kind maps to.
pub fn assert_findings_are_report(a: &Analysis, report: &MiriReport) {
    assert_eq!(
        a.findings.len(),
        report.errors.len(),
        "findings {:?} vs oracle {:?}",
        a.findings,
        report.errors
    );
    for (f, e) in a.findings.iter().zip(&report.errors) {
        let want = (e.class(), e.kind, &e.path, &e.message);
        assert_eq!((f.class, f.kind, &f.path, &f.message), want);
        assert_eq!(f.rule, rule_id_for_kind(e.kind), "{e:?}");
    }
}
