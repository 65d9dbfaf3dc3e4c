//! Fast-thinking feature extraction (paper stage F2): classify the error,
//! summarise the code's unsafe surface, and embed the pruned AST for
//! knowledge-base retrieval.

use rb_lang::metrics::{collect_metrics, ProgramMetrics, UnsafeOpKind};
use rb_lang::prune::embed_pruned;
use rb_lang::vectorize::AstVector;
use rb_lang::Program;
use rb_miri::{MiriReport, UbClass};
use serde::{Deserialize, Serialize};

/// Features the fast-thinking stage extracts from a failing program.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CodeFeatures {
    /// Class of the primary diagnostic.
    pub class: UbClass,
    /// Number of diagnostics in the report.
    pub error_count: usize,
    /// Structural metrics of the full program.
    pub metrics: ProgramMetrics,
    /// Dominant unsafe-operation category, if any.
    pub dominant_unsafe_op: Option<UnsafeOpKind>,
    /// Embedding of the *pruned* AST (Algorithm 1 output).
    pub vector: AstVector,
    /// Statements removed by pruning (noise eliminated for the LLM).
    pub pruned_stmts: usize,
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
    let class = report.primary().map_or(UbClass::Compile, |e| e.class());
    let metrics = collect_metrics(program);
    let dominant_unsafe_op = UnsafeOpKind::ALL
        .iter()
        .copied()
        .max_by_key(|k| metrics.unsafe_ops[*k as usize])
        .filter(|k| metrics.unsafe_ops[*k as usize] > 0);
    let (vector, removed) = embed_pruned(program);
    CodeFeatures {
        class,
        error_count: report.error_count(),
        metrics,
        dominant_unsafe_op,
        vector,
        pruned_stmts: removed,
    }
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
        assert_eq!(f.dominant_unsafe_op, Some(UnsafeOpKind::UnsafeCall));
        assert!(f.pruned_stmts >= 1, "noise statements should prune");
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
        assert!(fa.vector.cosine(&fb.vector) > 0.99);
    }
}
