//! Fast-thinking feature extraction (paper stage F2): classify the error,
//! summarise the code's unsafe surface, and embed the pruned AST for
//! knowledge-base retrieval.
//!
//! Everything but the class and the error count is a function of the
//! program alone ([`ProgramFeatures`]), so a repair reads it from the
//! slot its oracle keeps for the state ([`rb_miri::Oracle::state_memo`])
//! and derives it only for a state no earlier job, sweep or request
//! featured.

use rb_lang::metrics::{collect_metrics, ProgramMetrics, UnsafeOpKind};
use rb_lang::prune::embed_pruned;
use rb_lang::vectorize::AstVector;
use rb_lang::Program;
use rb_miri::{MiriReport, StateMemo, UbClass};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Features the fast-thinking stage extracts from a failing program: the
/// report's class and error count next to the program's own features.
#[derive(Clone, Debug)]
pub struct CodeFeatures {
    /// Class of the primary diagnostic.
    pub class: UbClass,
    /// Number of diagnostics in the report.
    pub error_count: usize,
    /// What the program alone determines, shared with its state's slot.
    pub program: Arc<ProgramFeatures>,
}

/// The features of a program that do not depend on its report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ProgramFeatures {
    /// Structural metrics of the full program.
    pub metrics: ProgramMetrics,
    /// Dominant unsafe-operation category, if any.
    pub dominant_unsafe_op: Option<UnsafeOpKind>,
    /// Embedding of the *pruned* AST (Algorithm 1 output).
    pub vector: AstVector,
    /// Statements removed by pruning (noise eliminated for the LLM).
    pub pruned_stmts: usize,
}

impl ProgramFeatures {
    /// Derives the features of `program`.
    #[must_use]
    pub fn of(program: &Program) -> ProgramFeatures {
        let metrics = collect_metrics(program);
        let dominant_unsafe_op = UnsafeOpKind::ALL
            .iter()
            .copied()
            .max_by_key(|k| metrics.unsafe_ops[*k as usize])
            .filter(|k| metrics.unsafe_ops[*k as usize] > 0);
        let (vector, pruned_stmts) = embed_pruned(program);
        ProgramFeatures {
            metrics,
            dominant_unsafe_op,
            vector,
            pruned_stmts,
        }
    }

    /// The features of `program`, read from `memo` (the slot an oracle
    /// keeps for it) when it holds them, else derived, left in the slot
    /// when it has a cell free, and counted in `derived`.
    pub(crate) fn shared(
        memo: Option<&StateMemo>,
        program: &Program,
        derived: &mut u64,
    ) -> Arc<ProgramFeatures> {
        let mut derive = || {
            *derived += 1;
            ProgramFeatures::of(program)
        };
        memo.and_then(|memo| memo.get_or_init(&mut derive))
            .unwrap_or_else(|| Arc::new(derive()))
    }
}

impl CodeFeatures {
    /// The features of a program with `report` whose own features are
    /// `program`.
    #[must_use]
    pub fn new(report: &MiriReport, program: Arc<ProgramFeatures>) -> CodeFeatures {
        CodeFeatures {
            class: report.primary().map_or(UbClass::Compile, |e| e.class()),
            error_count: report.error_count(),
            program,
        }
    }
}

/// Extracts [`CodeFeatures`] from a program and its oracle report.
///
/// ```
/// # use rb_lang::parser::parse_program;
/// # use rb_miri::run_program;
/// # use rustbrain::features::extract_features;
/// let p = parse_program(
///     "fn main() { let z: i32 = 0; print(5 / z); }").unwrap();
/// let report = run_program(&p);
/// let f = extract_features(&p, &report);
/// assert_eq!(f.class, rb_miri::UbClass::Panic);
/// ```
#[must_use]
pub fn extract_features(program: &Program, report: &MiriReport) -> CodeFeatures {
    CodeFeatures::new(report, Arc::new(ProgramFeatures::of(program)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::parser::parse_program;
    use rb_miri::run_program;

    #[test]
    fn features_identify_unsafe_surface() {
        let p = parse_program(
            "fn main() { let noise: i32 = 1; print(noise); \
             let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let report = run_program(&p);
        let f = extract_features(&p, &report);
        assert_eq!(f.class, rb_miri::UbClass::Uninit);
        assert_eq!(f.program.dominant_unsafe_op, Some(UnsafeOpKind::UnsafeCall));
        assert!(f.program.pruned_stmts >= 1, "noise statements should prune");
    }

    #[test]
    fn passing_program_reports_compile_class() {
        let p = parse_program("fn main() { print(1i32); }").unwrap();
        let report = run_program(&p);
        let f = extract_features(&p, &report);
        assert_eq!(f.error_count, 0);
        assert_eq!(f.class, UbClass::Compile); // "no primary error" marker
    }

    #[test]
    fn similar_programs_embed_similarly() {
        let mk = |v: i32| {
            parse_program(&format!(
                "fn main() {{ let x: i32 = {v}; let q: *const i32 = &raw const x; \
                 unsafe {{ print(*q); }} }}"
            ))
            .unwrap()
        };
        let a = mk(1);
        let b = mk(99);
        let ra = run_program(&a);
        let rb = run_program(&b);
        let fa = extract_features(&a, &ra);
        let fb = extract_features(&b, &rb);
        assert!(fa.program.vector.cosine(&fb.program.vector) > 0.99);
    }
}
