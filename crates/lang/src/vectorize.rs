//! AST vectorisation for the knowledge base (Fig. 6 of the paper): a pruned
//! AST is embedded into a fixed-dimension feature vector; the abstract
//! reasoning agent retrieves repairs for structurally similar errors by
//! cosine similarity.

use crate::ast::Program;
use crate::metrics::{collect_metrics, expr_kind_histogram, stmt_kind_histogram, ProgramMetrics};
use serde::{Deserialize, Serialize};

/// Dimension of the embedding vector.
pub const VECTOR_DIM: usize = 64;

/// A fixed-dimension embedding of a (pruned) program AST.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AstVector {
    /// Raw (unnormalised) feature components.
    pub components: Vec<f64>,
}

impl AstVector {
    /// Embeds a program.
    ///
    /// The layout is: statement-kind histogram (16), expression-kind
    /// histogram (20), unsafe-op counts (5), builtin-use counts folded into
    /// 16 buckets, then scalar shape features (depth, funcs, spawns,
    /// stmts-in-unsafe ratio, ...). All counts are dampened with `ln(1+x)`
    /// so large programs do not dominate similarity.
    #[must_use]
    pub fn embed(prog: &Program) -> AstVector {
        AstVector::from_counts(
            &collect_metrics(prog),
            &stmt_kind_histogram(prog),
            &expr_kind_histogram(prog),
        )
    }

    /// Lays out the vector [`AstVector::embed`] describes from a
    /// program's metrics and kind histograms.
    pub(crate) fn from_counts(
        m: &ProgramMetrics,
        stmt_kinds: &[usize; 16],
        expr_kinds: &[usize; 20],
    ) -> AstVector {
        let mut c = Vec::with_capacity(VECTOR_DIM);
        for &v in stmt_kinds {
            c.push(damp(v));
        }
        for &v in expr_kinds {
            c.push(damp(v));
        }
        for v in m.unsafe_ops {
            c.push(2.0 * damp(v)); // unsafe ops weighted up: they carry signal
        }
        // Fold the builtin histogram into 16 buckets.
        let mut folded = [0usize; 16];
        for (i, v) in m.builtin_uses.iter().enumerate() {
            folded[i % 16] += v;
        }
        for v in folded.iter().take(VECTOR_DIM.saturating_sub(c.len() + 7)) {
            c.push(damp(*v));
        }
        c.push(m.max_depth as f64 / 8.0);
        c.push(damp(m.funcs));
        c.push(damp(m.spawns));
        c.push(if m.stmts == 0 {
            0.0
        } else {
            m.stmts_in_unsafe as f64 / m.stmts as f64
        });
        c.push(damp(m.stmts));
        c.push(damp(m.exprs));
        c.push(damp(m.unsafe_blocks));
        c.resize(VECTOR_DIM, 0.0);
        AstVector { components: c }
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.components.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Cosine similarity in `[-1, 1]`; zero vectors compare as 0.
    #[must_use]
    pub fn cosine(&self, other: &AstVector) -> f64 {
        let dot: f64 = self
            .components
            .iter()
            .zip(&other.components)
            .map(|(a, b)| a * b)
            .sum();
        let d = self.norm() * other.norm();
        if d == 0.0 {
            0.0
        } else {
            dot / d
        }
    }

    /// Euclidean distance, used in tests as a sanity cross-check.
    #[must_use]
    pub fn euclidean(&self, other: &AstVector) -> f64 {
        self.components
            .iter()
            .zip(&other.components)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }
}

fn damp(v: usize) -> f64 {
    (1.0 + v as f64).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn embed(src: &str) -> AstVector {
        AstVector::embed(&parse_program(src).unwrap())
    }

    #[test]
    fn self_similarity_is_one() {
        let v = embed("fn main() { let x: i32 = 1; unsafe { print(x); } }");
        assert!((v.cosine(&v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similar_programs_score_higher() {
        let a = embed(
            "fn main() { let x: i32 = 5; let p: *const i32 = &raw const x; unsafe { print(*p); } }",
        );
        let b = embed(
            "fn main() { let y: i32 = 9; let q: *const i32 = &raw const y; unsafe { print(*q); } }",
        );
        let c = embed(
            "static mut G: i32 = 0; fn main() { spawn { unsafe { G = 1; } } spawn { unsafe { G = 2; } } join; }",
        );
        assert!(a.cosine(&b) > a.cosine(&c));
        assert!(a.cosine(&b) > 0.95);
    }

    #[test]
    fn dimension_fixed() {
        let v = embed("fn main() { }");
        assert_eq!(v.components.len(), VECTOR_DIM);
    }

    #[test]
    fn empty_program_zero_safe() {
        let v = AstVector {
            components: vec![0.0; VECTOR_DIM],
        };
        let w = embed("fn main() { let x: i32 = 1; }");
        assert_eq!(v.cosine(&w), 0.0);
    }

    #[test]
    fn euclidean_zero_iff_equal() {
        let a = embed("fn main() { let x: i32 = 1; }");
        let b = embed("fn main() { let x: i32 = 1; }");
        assert!(a.euclidean(&b) < 1e-12);
    }
}
