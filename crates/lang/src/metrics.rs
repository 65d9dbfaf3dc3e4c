//! Structural metrics over programs: node counts, unsafe-operation counts
//! and nesting depth. Fast-thinking feature extraction builds on these.

use crate::ast::{Block, BuiltinKind, Expr, Program, Stmt};
use crate::visit::{for_each_expr_in_stmt, for_each_stmt, walk_expr};
use serde::{Deserialize, Serialize};

/// The five unsafe-operation categories of the Rust reference, as used by
/// the paper's fast-thinking classifier (§III-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum UnsafeOpKind {
    /// Dereferencing a raw pointer.
    RawDeref,
    /// Calling an unsafe function (incl. unsafe builtins).
    UnsafeCall,
    /// Implementing/invoking an unsafe-trait-style contract (modelled by
    /// contract-carrying builtins such as `assume_init_read`).
    UnsafeContract,
    /// Accessing or modifying a mutable static.
    StaticMutAccess,
    /// Accessing a union field.
    UnionFieldAccess,
}

impl UnsafeOpKind {
    /// All categories in stable order.
    pub const ALL: [UnsafeOpKind; 5] = [
        UnsafeOpKind::RawDeref,
        UnsafeOpKind::UnsafeCall,
        UnsafeOpKind::UnsafeContract,
        UnsafeOpKind::StaticMutAccess,
        UnsafeOpKind::UnionFieldAccess,
    ];
}

/// Aggregated structural metrics of a program.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ProgramMetrics {
    /// Total statements (recursive).
    pub stmts: usize,
    /// Total expressions.
    pub exprs: usize,
    /// Number of `unsafe` blocks.
    pub unsafe_blocks: usize,
    /// Statements lexically inside `unsafe` blocks.
    pub stmts_in_unsafe: usize,
    /// Maximum block-nesting depth.
    pub max_depth: usize,
    /// Counts per unsafe-operation category.
    pub unsafe_ops: [usize; 5],
    /// Number of functions.
    pub funcs: usize,
    /// Number of threads spawned syntactically.
    pub spawns: usize,
    /// Per-builtin usage counts, indexed by [`BuiltinKind::ALL`] position.
    pub builtin_uses: Vec<usize>,
}

impl ProgramMetrics {
    /// Total count of unsafe operations across all categories.
    #[must_use]
    pub fn total_unsafe_ops(&self) -> usize {
        self.unsafe_ops.iter().sum()
    }
}

/// Computes [`ProgramMetrics`] for a program.
///
/// ```
/// # use rb_lang::{parser::parse_program, metrics::collect_metrics};
/// let p = parse_program("fn main() { let x: i32 = 1; unsafe { print(x); } }").unwrap();
/// let m = collect_metrics(&p);
/// assert_eq!(m.unsafe_blocks, 1);
/// ```
#[must_use]
pub fn collect_metrics(prog: &Program) -> ProgramMetrics {
    let mut m = ProgramMetrics {
        funcs: prog.funcs.len(),
        builtin_uses: vec![0; BuiltinKind::ALL.len()],
        ..ProgramMetrics::default()
    };
    for f in &prog.funcs {
        visit_block(&f.body, 1, false, prog, &mut m);
    }
    m
}

fn visit_block(b: &Block, depth: usize, in_unsafe: bool, prog: &Program, m: &mut ProgramMetrics) {
    m.max_depth = m.max_depth.max(depth);
    for s in &b.stmts {
        m.stmts += 1;
        if in_unsafe {
            m.stmts_in_unsafe += 1;
        }
        if matches!(s, Stmt::Spawn(_)) {
            m.spawns += 1;
        }
        for_each_expr_in_stmt(s, |e| {
            count_expr(e, prog, m);
        });
        match s {
            Stmt::Unsafe(inner) => {
                m.unsafe_blocks += 1;
                visit_block(inner, depth + 1, true, prog, m);
            }
            Stmt::Scope(inner) | Stmt::Spawn(inner) | Stmt::Lock(_, inner) => {
                visit_block(inner, depth + 1, in_unsafe, prog, m);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                visit_block(then_blk, depth + 1, in_unsafe, prog, m);
                if let Some(e) = else_blk {
                    visit_block(e, depth + 1, in_unsafe, prog, m);
                }
            }
            Stmt::While { body, .. } => visit_block(body, depth + 1, in_unsafe, prog, m),
            _ => {}
        }
    }
}

/// Adds one expression node (not its children) to `m`.
pub(crate) fn count_expr(e: &Expr, prog: &Program, m: &mut ProgramMetrics) {
    m.exprs += 1;
    match e {
        Expr::Deref(inner)
            // A heuristic: deref of anything cast from/declared as raw.
            if (matches!(**inner, Expr::Cast(..) | Expr::RawAddrOf(..))
                || matches!(**inner, Expr::Var(_)))
            => {
                m.unsafe_ops[UnsafeOpKind::RawDeref as usize] += 1;
            }
        Expr::Builtin(b, ..) => {
            if let Some(pos) = BuiltinKind::ALL.iter().position(|x| x == b) {
                m.builtin_uses[pos] += 1;
            }
            if b.is_unsafe() {
                let k = if matches!(b, BuiltinKind::AssumeInitRead) {
                    UnsafeOpKind::UnsafeContract
                } else {
                    UnsafeOpKind::UnsafeCall
                };
                m.unsafe_ops[k as usize] += 1;
            }
        }
        Expr::Call(name, _)
            if prog.func(name).is_some_and(|f| f.is_unsafe) => {
                m.unsafe_ops[UnsafeOpKind::UnsafeCall as usize] += 1;
            }
        Expr::StaticRef(n)
            if prog.static_def(n).is_some_and(|s| s.mutable) => {
                m.unsafe_ops[UnsafeOpKind::StaticMutAccess as usize] += 1;
            }
        Expr::UnionField(..) => {
            m.unsafe_ops[UnsafeOpKind::UnionFieldAccess as usize] += 1;
        }
        _ => {}
    }
}

/// Counts occurrences of each statement discriminant, used as part of the
/// knowledge-base feature vector.
#[must_use]
pub fn stmt_kind_histogram(prog: &Program) -> [usize; 16] {
    let mut h = [0usize; 16];
    for_each_stmt(prog, |s, _| h[stmt_kind_index(s)] += 1);
    h
}

/// Bucket of a statement in [`stmt_kind_histogram`].
pub(crate) fn stmt_kind_index(s: &Stmt) -> usize {
    match s {
        Stmt::Let { .. } => 0,
        Stmt::Assign { .. } => 1,
        Stmt::Expr(_) => 2,
        Stmt::Unsafe(_) => 3,
        Stmt::Scope(_) => 4,
        Stmt::If { .. } => 5,
        Stmt::While { .. } => 6,
        Stmt::Assert { .. } => 7,
        Stmt::Return(_) => 8,
        Stmt::Spawn(_) => 9,
        Stmt::JoinAll => 10,
        Stmt::Lock(..) => 11,
        Stmt::Print(_) => 12,
        Stmt::TailCall(..) => 13,
        Stmt::Nop => 14,
    }
}

/// Counts occurrences of each expression discriminant.
///
/// A node is counted once per enclosing node of its statement-level
/// expression, itself included (`depth + 1` times, the top expression at
/// depth 0): every subexpression of a statement is walked again as a root.
/// Stored knowledge-base vectors encode these counts, so they stay.
#[must_use]
pub fn expr_kind_histogram(prog: &Program) -> [usize; 20] {
    let mut h = [0usize; 20];
    for_each_stmt(prog, |s, _| {
        for_each_expr_in_stmt(s, |top| {
            walk_expr(top, &mut |e| h[expr_kind_index(e)] += 1);
        });
    });
    h
}

/// Bucket of an expression in [`expr_kind_histogram`].
pub(crate) fn expr_kind_index(e: &Expr) -> usize {
    match e {
        Expr::Lit(_) => 0,
        Expr::Var(_) => 1,
        Expr::Unary(..) => 2,
        Expr::Binary(..) => 3,
        Expr::Cast(..) => 4,
        Expr::AddrOf(..) => 5,
        Expr::RawAddrOf(..) => 6,
        Expr::Deref(_) => 7,
        Expr::Index(..) => 8,
        Expr::Field(..) => 9,
        Expr::Tuple(_) => 10,
        Expr::ArrayLit(_) => 11,
        Expr::ArrayRepeat(..) => 12,
        Expr::Call(..) => 13,
        Expr::CallPtr(..) => 14,
        Expr::Builtin(..) => 15,
        Expr::UnionLit(..) => 16,
        Expr::UnionField(..) => 17,
        Expr::StaticRef(_) => 18,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn counts_unsafe_blocks_and_ops() {
        let p = parse_program(
            "static mut G: i32 = 0; fn main() { unsafe { G = G + 1; \
             let p: *mut u8 = alloc(4usize, 4usize); dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let m = collect_metrics(&p);
        assert_eq!(m.unsafe_blocks, 1);
        assert_eq!(m.unsafe_ops[UnsafeOpKind::StaticMutAccess as usize], 2);
        assert_eq!(m.unsafe_ops[UnsafeOpKind::UnsafeCall as usize], 2);
    }

    #[test]
    fn depth_tracks_nesting() {
        let p = parse_program("fn main() { { { let x: i32 = 1; } } }").unwrap();
        assert_eq!(collect_metrics(&p).max_depth, 3);
    }

    #[test]
    fn histograms_nonzero() {
        let p = parse_program("fn main() { let x: i32 = 1 + 2; print(x); }").unwrap();
        let sh = stmt_kind_histogram(&p);
        assert_eq!(sh[0], 1); // let
        assert_eq!(sh[12], 1); // print
        let eh = expr_kind_histogram(&p);
        assert!(eh[0] >= 2); // literals
        assert!(eh[3] >= 1); // binary
    }

    #[test]
    fn spawn_counted() {
        let p = parse_program("fn main() { spawn { } spawn { } join; }").unwrap();
        assert_eq!(collect_metrics(&p).spawns, 2);
    }
}
