//! The oracle test set shared by the digest and allocation tests.

use rb_dataset::Corpus;
use rb_lang::ast::Program;
use rb_llm::rules::RepairRule;
use rb_miri::run_program;

/// Every buggy and gold program of `Corpus::generate_full(7, 20)`, plus
/// every candidate rule edit at each buggy program's primary error, in
/// corpus order.
pub fn oracle_programs() -> Vec<Program> {
    let corpus = Corpus::generate_full(7, 20);
    let mut out = Vec::new();
    for case in &corpus.cases {
        out.push((*case.buggy).clone());
        out.push((*case.gold).clone());
        let report = run_program(&case.buggy);
        if let Some(err) = report.primary() {
            for rule in RepairRule::candidates(&case.buggy, err) {
                if let Some(edited) = rule.apply(&case.buggy, err) {
                    out.push(edited);
                }
            }
        }
    }
    out
}
