//! Algorithm 1 of the paper: pruning irrelevant nodes from a program's AST.
//!
//! The abstract-reasoning agent vectorises *pruned* ASTs so that the
//! knowledge base keys on safety-relevant structure only. Pruning keeps:
//!
//! 1. every statement that performs an unsafe operation (or contains one),
//! 2. every statement that defines a variable used (transitively) by a kept
//!    statement — a backward slice over data dependencies,
//! 3. enclosing control structure of kept statements.
//!
//! Everything else is dropped. The result is a valid [`Program`] skeleton
//! (possibly not executable — pruning is for retrieval, not for running).
//!
//! Retrieval calls [`embed_pruned`], which decides the same statements in
//! place and embeds them in one pass without building the skeleton;
//! [`prune_program`] followed by [`AstVector::embed`] is the reference it
//! is tested against, bit for bit.

use crate::ast::{Block, BuiltinKind, Expr, Program, Stmt, Ty};
use crate::metrics::{count_expr, expr_kind_index, stmt_kind_index, ProgramMetrics};
use crate::vectorize::AstVector;
use crate::visit::{
    child_block, child_branches, find_expr, find_expr_in_stmt, for_each_expr_in_stmt, vars_read,
    walk_expr,
};
use std::collections::{BTreeSet, HashSet};

/// Prunes a program according to Algorithm 1, returning the reduced program
/// and the number of statements removed.
///
/// ```
/// # use rb_lang::{parser::parse_program, prune::prune_program};
/// let p = parse_program(
///     "fn main() { let a: i32 = 1; let b: i32 = 2; print(b); \
///      let q: *const i32 = &raw const a; unsafe { print(*q); } }").unwrap();
/// let (pruned, removed) = prune_program(&p);
/// assert!(removed >= 1); // `let b` / `print(b)` are safety-irrelevant
/// assert!(pruned.stmt_count() < p.stmt_count());
/// ```
#[must_use]
pub fn prune_program(prog: &Program) -> (Program, usize) {
    let before = prog.stmt_count();
    let mut out = prog.clone();
    for f in &mut out.funcs {
        let keep_vars = collect_unsafe_deps(&f.body);
        prune_block(&mut f.body, &keep_vars);
    }
    // Drop functions that became empty and are never referenced by kept code,
    // except `main` which anchors the program.
    let referenced: HashSet<String> = {
        let mut set = HashSet::new();
        for f in &out.funcs {
            collect_called(&f.body, &mut set);
        }
        set
    };
    out.funcs
        .retain(|f| f.name == "main" || !f.body.stmts.is_empty() || referenced.contains(&f.name));
    let after = out.stmt_count();
    (out, before.saturating_sub(after))
}

fn collect_called(b: &Block, set: &mut HashSet<String>) {
    for s in &b.stmts {
        for_each_expr_in_stmt(s, |top| {
            walk_expr(top, &mut |e| {
                if let Expr::Call(n, _) = e {
                    set.insert(n.clone());
                }
                if let Expr::Var(n) = e {
                    set.insert(n.clone());
                }
            });
        });
        match s {
            Stmt::Unsafe(inner)
            | Stmt::Scope(inner)
            | Stmt::Spawn(inner)
            | Stmt::Lock(_, inner) => collect_called(inner, set),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_called(then_blk, set);
                if let Some(e) = else_blk {
                    collect_called(e, set);
                }
            }
            Stmt::While { body, .. } => collect_called(body, set),
            Stmt::TailCall(n, _) => {
                set.insert(n.clone());
            }
            _ => {}
        }
    }
}

/// Computes the set of variable names that unsafe statements depend on,
/// iterating the backward slice to a fixed point.
fn collect_unsafe_deps(body: &Block) -> HashSet<String> {
    let mut needed: HashSet<String> = HashSet::new();
    // Seed: variables read inside statements that touch unsafe constructs.
    seed_block(body, &mut needed);
    // Fixed point: if `let x = f(y)` and x is needed, y becomes needed.
    loop {
        let before = needed.len();
        expand_block(body, &mut needed);
        if needed.len() == before {
            break;
        }
    }
    needed
}

fn stmt_is_unsafe_relevant(s: &Stmt) -> bool {
    if matches!(s, Stmt::Unsafe(_)) {
        return true;
    }
    let mut relevant = false;
    for_each_expr_in_stmt(s, |top| {
        walk_expr(top, &mut |e| {
            if is_unsafe_node(e) {
                relevant = true;
            }
        });
    });
    relevant
        || match s {
            Stmt::Spawn(b) | Stmt::Scope(b) | Stmt::Lock(_, b) => {
                b.stmts.iter().any(stmt_is_unsafe_relevant)
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                then_blk.stmts.iter().any(stmt_is_unsafe_relevant)
                    || else_blk
                        .as_ref()
                        .is_some_and(|b| b.stmts.iter().any(stmt_is_unsafe_relevant))
            }
            Stmt::While { body, .. } => body.stmts.iter().any(stmt_is_unsafe_relevant),
            _ => false,
        }
}

/// Whether one expression node (not its children) is an operation that
/// makes its statement safety-relevant.
fn is_unsafe_node(e: &Expr) -> bool {
    match e {
        Expr::RawAddrOf(..) | Expr::UnionField(..) | Expr::UnionLit(..) => true,
        Expr::Builtin(b, ..) => b.is_unsafe(),
        Expr::Cast(_, t) => matches!(t, Ty::RawPtr(..) | Ty::FnPtr(..)),
        _ => false,
    }
}

fn seed_block(b: &Block, needed: &mut HashSet<String>) {
    for s in &b.stmts {
        if stmt_is_unsafe_relevant(s) {
            for_each_expr_in_stmt(s, |e| {
                for v in vars_read(e) {
                    needed.insert(v);
                }
            });
        }
        match s {
            Stmt::Unsafe(inner)
            | Stmt::Scope(inner)
            | Stmt::Spawn(inner)
            | Stmt::Lock(_, inner) => {
                // Everything inside an unsafe block is kept, so its reads
                // are needed; scopes/spawns recurse normally.
                if matches!(s, Stmt::Unsafe(_)) {
                    collect_all_reads(inner, needed);
                }
                seed_block(inner, needed);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                seed_block(then_blk, needed);
                if let Some(e) = else_blk {
                    seed_block(e, needed);
                }
            }
            Stmt::While { body, .. } => seed_block(body, needed),
            _ => {}
        }
    }
}

fn collect_all_reads(b: &Block, needed: &mut HashSet<String>) {
    for s in &b.stmts {
        for_each_expr_in_stmt(s, |e| {
            for v in vars_read(e) {
                needed.insert(v);
            }
        });
        match s {
            Stmt::Unsafe(i) | Stmt::Scope(i) | Stmt::Spawn(i) | Stmt::Lock(_, i) => {
                collect_all_reads(i, needed);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                collect_all_reads(then_blk, needed);
                if let Some(e) = else_blk {
                    collect_all_reads(e, needed);
                }
            }
            Stmt::While { body, .. } => collect_all_reads(body, needed),
            _ => {}
        }
    }
}

fn expand_block(b: &Block, needed: &mut HashSet<String>) {
    for s in &b.stmts {
        if let Stmt::Let { name, init, .. } = s {
            if needed.contains(name) {
                for v in vars_read(init) {
                    needed.insert(v);
                }
            }
        }
        if let Stmt::Assign { place, value } = s {
            let targets = vars_read(place);
            if targets.iter().any(|t| needed.contains(t)) {
                for v in vars_read(value) {
                    needed.insert(v);
                }
            }
        }
        match s {
            Stmt::Unsafe(i) | Stmt::Scope(i) | Stmt::Spawn(i) | Stmt::Lock(_, i) => {
                expand_block(i, needed);
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                expand_block(then_blk, needed);
                if let Some(e) = else_blk {
                    expand_block(e, needed);
                }
            }
            Stmt::While { body, .. } => expand_block(body, needed),
            _ => {}
        }
    }
}

fn stmt_keep(s: &Stmt, needed: &HashSet<String>) -> bool {
    if stmt_is_unsafe_relevant(s) {
        return true;
    }
    match s {
        Stmt::Let { name, .. } => needed.contains(name),
        Stmt::Assign { place, .. } => vars_read(place).iter().any(|v| needed.contains(v)),
        Stmt::Spawn(_) | Stmt::JoinAll | Stmt::Return(_) | Stmt::TailCall(..) => true,
        Stmt::Scope(b) | Stmt::Lock(_, b) => b.stmts.iter().any(|s| stmt_keep(s, needed)),
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            then_blk.stmts.iter().any(|s| stmt_keep(s, needed))
                || else_blk
                    .as_ref()
                    .is_some_and(|b| b.stmts.iter().any(|s| stmt_keep(s, needed)))
        }
        Stmt::While { body, .. } => body.stmts.iter().any(|s| stmt_keep(s, needed)),
        _ => false,
    }
}

fn prune_block(b: &mut Block, needed: &HashSet<String>) {
    b.stmts.retain(|s| stmt_keep(s, needed));
    for s in &mut b.stmts {
        match s {
            Stmt::Scope(i) | Stmt::Lock(_, i) | Stmt::Spawn(i) => prune_block(i, needed),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                prune_block(then_blk, needed);
                if let Some(e) = else_blk {
                    prune_block(e, needed);
                }
            }
            Stmt::While { body, .. } => prune_block(body, needed),
            // Unsafe blocks are kept whole: they are the payload.
            Stmt::Unsafe(_) => {}
            _ => {}
        }
    }
}

/// Fraction of statements that survive pruning — a measure of how much
/// noise Algorithm 1 removes for the knowledge base.
#[must_use]
pub fn retention_ratio(prog: &Program) -> f64 {
    let total = prog.stmt_count();
    if total == 0 {
        return 1.0;
    }
    let (pruned, _) = prune_program(prog);
    pruned.stmt_count() as f64 / total as f64
}

/// Algorithm 1 and the Fig. 6 embedding in one pass: the knowledge-base
/// key of a program, and the number of statements pruning removes.
///
/// Equal, bit for bit, to [`AstVector::embed`] of [`prune_program`]'s
/// output — or of the whole program when pruning keeps no statement, so
/// that safe-only programs (pure panic bugs) key on their full AST instead
/// of an empty skeleton. Kept statements are decided in place and tallied
/// as they are found: no pruned [`Program`] is built, and the needed
/// variables are names borrowed from `prog`.
///
/// ```
/// # use rb_lang::{parser::parse_program, prune::{embed_pruned, prune_program}};
/// # use rb_lang::vectorize::AstVector;
/// let p = parse_program(
///     "fn main() { let a: i32 = 1; let b: i32 = 2; print(b); \
///      let q: *const i32 = &raw const a; unsafe { print(*q); } }").unwrap();
/// let (pruned, removed) = prune_program(&p);
/// assert_eq!(embed_pruned(&p), (AstVector::embed(&pruned), removed));
/// ```
#[must_use]
pub fn embed_pruned(prog: &Program) -> (AstVector, usize) {
    let mut kept = Tally::new(prog);
    let mut funcs = 0;
    let mut emptied: Vec<&str> = Vec::new();
    for f in &prog.funcs {
        let before = kept.metrics.stmts;
        kept.body(&f.body, Some(&needed_vars(&f.body)));
        if f.name == "main" || kept.metrics.stmts > before {
            funcs += 1;
        } else {
            emptied.push(&f.name);
        }
    }
    let removed = kept.seen - kept.metrics.stmts;
    if kept.metrics.stmts == 0 {
        let mut full = Tally::new(prog);
        for f in &prog.funcs {
            full.body(&f.body, None);
        }
        full.metrics.funcs = prog.funcs.len();
        return (full.vector(), removed);
    }
    // A function pruning empties survives while kept code names it.
    kept.metrics.funcs = funcs
        + emptied
            .iter()
            .filter(|name| kept.named.contains(name))
            .count();
    (kept.vector(), removed)
}

/// Variable names, borrowed from the program they occur in.
type Names<'p> = BTreeSet<&'p str>;

/// [`collect_unsafe_deps`] over borrowed names.
fn needed_vars(body: &Block) -> Names<'_> {
    let mut needed = Names::new();
    seed_names(body, &mut needed);
    loop {
        let before = needed.len();
        expand_names(body, &mut needed);
        if needed.len() == before {
            break;
        }
    }
    needed
}

/// [`seed_block`] over borrowed names, deciding each statement's
/// relevance bottom-up; returns whether any statement of `b` is relevant.
fn seed_names<'p>(b: &'p Block, needed: &mut Names<'p>) -> bool {
    let mut any = false;
    for s in &b.stmts {
        let relevant = if let Stmt::Unsafe(inner) = s {
            // Everything inside an unsafe block is kept, so all its reads
            // are needed.
            reads_all(inner, needed);
            true
        } else {
            let mut inner = false;
            for br in 0..child_branches(s) {
                if let Some(cb) = child_block(s, br) {
                    inner |= seed_names(cb, needed);
                }
            }
            inner || has_unsafe_node(s)
        };
        if relevant {
            reads_of(s, needed);
        }
        any |= relevant;
    }
    any
}

fn reads_all<'p>(b: &'p Block, needed: &mut Names<'p>) {
    for s in &b.stmts {
        reads_of(s, needed);
        for br in 0..child_branches(s) {
            if let Some(cb) = child_block(s, br) {
                reads_all(cb, needed);
            }
        }
    }
}

/// [`expand_block`] over borrowed names. The fixed point does not depend
/// on the visiting order; walking backwards, against the data flow, lets a
/// chain of definitions resolve in one pass instead of one per link.
fn expand_names<'p>(b: &'p Block, needed: &mut Names<'p>) {
    for s in b.stmts.iter().rev() {
        match s {
            Stmt::Let { name, init, .. } if needed.contains(name.as_str()) => {
                reads_into(init, needed);
            }
            Stmt::Assign { place, value } if reads_any(place, needed) => {
                reads_into(value, needed);
            }
            _ => {}
        }
        for br in (0..child_branches(s)).rev() {
            if let Some(cb) = child_block(s, br) {
                expand_names(cb, needed);
            }
        }
    }
}

/// Whether pruning keeps `s` for itself, whatever it contains.
fn keeps(s: &Stmt, needed: &Names<'_>) -> bool {
    match s {
        Stmt::Unsafe(_) | Stmt::Spawn(_) | Stmt::JoinAll | Stmt::Return(_) | Stmt::TailCall(..) => {
            true
        }
        Stmt::Let { name, .. } if needed.contains(name.as_str()) => true,
        Stmt::Assign { place, .. } if reads_any(place, needed) => true,
        _ => has_unsafe_node(s),
    }
}

fn has_unsafe_node(s: &Stmt) -> bool {
    find_expr_in_stmt(s, |e| is_unsafe_node(e).then_some(())).is_some()
}

/// Adds the variables the expressions of `s` read (not its blocks').
fn reads_of<'p>(s: &'p Stmt, needed: &mut Names<'p>) {
    find_expr_in_stmt(s, |e| -> Option<()> {
        if let Expr::Var(n) = e {
            needed.insert(n);
        }
        None
    });
}

fn reads_into<'p>(e: &'p Expr, needed: &mut Names<'p>) {
    find_expr(e, &mut |x| -> Option<()> {
        if let Expr::Var(n) = x {
            needed.insert(n);
        }
        None
    });
}

fn reads_any(e: &Expr, needed: &Names<'_>) -> bool {
    find_expr(e, &mut |x| {
        matches!(x, Expr::Var(n) if needed.contains(n.as_str())).then_some(())
    })
    .is_some()
}

/// What [`AstVector::embed`] reads of a program — its metrics and both
/// kind histograms — accumulated over the statements pruning keeps.
struct Tally<'p> {
    prog: &'p Program,
    metrics: ProgramMetrics,
    stmt_kinds: [usize; 16],
    expr_kinds: [usize; 20],
    /// Statements visited, kept or not.
    seen: usize,
    /// Names kept code calls or reads; collected only when the program has
    /// a function besides `main` that pruning could drop.
    named: Vec<&'p str>,
    track_names: bool,
}

impl<'p> Tally<'p> {
    fn new(prog: &'p Program) -> Tally<'p> {
        Tally {
            prog,
            metrics: ProgramMetrics {
                builtin_uses: vec![0; BuiltinKind::ALL.len()],
                ..ProgramMetrics::default()
            },
            stmt_kinds: [0; 16],
            expr_kinds: [0; 20],
            seen: 0,
            named: Vec::new(),
            track_names: prog.funcs.len() > 1,
        }
    }

    fn vector(&self) -> AstVector {
        AstVector::from_counts(&self.metrics, &self.stmt_kinds, &self.expr_kinds)
    }

    /// Tallies a function body: every statement when `needed` is `None`,
    /// else the ones Algorithm 1 keeps given the body's needed variables.
    fn body(&mut self, body: &'p Block, needed: Option<&Names<'_>>) {
        let depth = self.block(body, 1, false, needed);
        self.metrics.max_depth = self.metrics.max_depth.max(depth);
    }

    /// Tallies the kept statements of `b` and returns the deepest block
    /// depth among them, `b`'s own `depth` included.
    fn block(
        &mut self,
        b: &'p Block,
        depth: usize,
        in_unsafe: bool,
        needed: Option<&Names<'_>>,
    ) -> usize {
        let mut deepest = depth;
        for s in &b.stmts {
            if let Some(d) = self.stmt(s, depth, in_unsafe, needed) {
                deepest = deepest.max(d);
            }
        }
        deepest
    }

    /// Tallies `s` with the kept statements inside it, or nothing when
    /// pruning drops it. A kept statement gives the deepest depth of its
    /// child blocks (0 without any).
    fn stmt(
        &mut self,
        s: &'p Stmt,
        depth: usize,
        in_unsafe: bool,
        needed: Option<&Names<'_>>,
    ) -> Option<usize> {
        self.seen += 1;
        let stmts_before = self.metrics.stmts;
        // Unsafe blocks are kept whole: they are the payload.
        let (inner_unsafe, inner_needed) = if matches!(s, Stmt::Unsafe(_)) {
            (true, None)
        } else {
            (in_unsafe, needed)
        };
        let mut deepest = 0;
        for br in 0..child_branches(s) {
            if let Some(cb) = child_block(s, br) {
                deepest = deepest.max(self.block(cb, depth + 1, inner_unsafe, inner_needed));
            }
        }
        // A statement holding a kept one is kept; a dropped one held none,
        // so nothing inside it was tallied.
        let kept = self.metrics.stmts > stmts_before
            || match needed {
                None => true,
                Some(needed) => keeps(s, needed),
            };
        if !kept {
            return None;
        }
        let m = &mut self.metrics;
        m.stmts += 1;
        if in_unsafe {
            m.stmts_in_unsafe += 1;
        }
        match s {
            Stmt::Spawn(_) => m.spawns += 1,
            Stmt::Unsafe(_) => m.unsafe_blocks += 1,
            _ => {}
        }
        self.stmt_kinds[stmt_kind_index(s)] += 1;
        match s {
            Stmt::Let { init: e, .. }
            | Stmt::Expr(e)
            | Stmt::Print(e)
            | Stmt::Return(Some(e))
            | Stmt::If { cond: e, .. }
            | Stmt::While { cond: e, .. }
            | Stmt::Assert { cond: e, .. } => self.expr(e, 0),
            Stmt::Assign { place, value } => {
                self.expr(place, 0);
                self.expr(value, 0);
            }
            Stmt::TailCall(name, args) => {
                self.name(name);
                for a in args {
                    self.expr(a, 0);
                }
            }
            Stmt::Unsafe(_)
            | Stmt::Scope(_)
            | Stmt::Spawn(_)
            | Stmt::Lock(..)
            | Stmt::Return(None)
            | Stmt::JoinAll
            | Stmt::Nop => {}
        }
        Some(deepest)
    }

    /// Tallies an expression node at `depth` below its statement's
    /// expression, then its children. The kind histogram counts the node
    /// `depth + 1` times, as [`expr_kind_histogram`] does.
    ///
    /// [`expr_kind_histogram`]: crate::metrics::expr_kind_histogram
    fn expr(&mut self, e: &'p Expr, depth: usize) {
        count_expr(e, self.prog, &mut self.metrics);
        self.expr_kinds[expr_kind_index(e)] += depth + 1;
        let depth = depth + 1;
        match e {
            Expr::Unary(_, a)
            | Expr::Cast(a, _)
            | Expr::AddrOf(_, a)
            | Expr::RawAddrOf(_, a)
            | Expr::Deref(a)
            | Expr::Field(a, _)
            | Expr::ArrayRepeat(a, _)
            | Expr::UnionLit(_, _, a)
            | Expr::UnionField(a, _) => self.expr(a, depth),
            Expr::Binary(_, a, b) | Expr::Index(a, b) => {
                self.expr(a, depth);
                self.expr(b, depth);
            }
            Expr::Tuple(xs) | Expr::ArrayLit(xs) | Expr::Builtin(_, _, xs) => {
                for x in xs {
                    self.expr(x, depth);
                }
            }
            Expr::Call(name, xs) => {
                self.name(name);
                for x in xs {
                    self.expr(x, depth);
                }
            }
            Expr::CallPtr(c, xs) => {
                self.expr(c, depth);
                for x in xs {
                    self.expr(x, depth);
                }
            }
            Expr::Var(name) => self.name(name),
            Expr::Lit(_) | Expr::StaticRef(_) => {}
        }
    }

    fn name(&mut self, name: &'p str) {
        if self.track_names {
            self.named.push(name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::collect_metrics;
    use crate::parser::parse_program;

    #[test]
    fn keeps_unsafe_and_deps() {
        let p = parse_program(
            "fn main() { let a: i32 = 1; let noise: i32 = 42; print(noise); \
             let q: *const i32 = &raw const a; unsafe { print(*q); } }",
        )
        .unwrap();
        let (pruned, removed) = prune_program(&p);
        assert!(removed >= 2, "expected noise removed, got {removed}");
        let text = crate::printer::print_program(&pruned);
        assert!(text.contains("unsafe"));
        assert!(text.contains("let a"));
        assert!(!text.contains("noise"));
    }

    #[test]
    fn transitive_dependencies_kept() {
        let p = parse_program(
            "fn main() { let base: i32 = 7; let a: i32 = base + 1; \
             let q: *const i32 = &raw const a; unsafe { print(*q); } }",
        )
        .unwrap();
        let (pruned, _) = prune_program(&p);
        let text = crate::printer::print_program(&pruned);
        assert!(text.contains("let base"));
    }

    #[test]
    fn program_without_unsafe_prunes_heavily() {
        let p = parse_program("fn main() { let x: i32 = 1; print(x); }").unwrap();
        let (pruned, _) = prune_program(&p);
        assert_eq!(pruned.funcs[0].body.stmts.len(), 0);
    }

    #[test]
    fn pruned_has_no_more_unsafe_than_original() {
        let p = parse_program(
            "fn main() { unsafe { let p: *mut u8 = alloc(4usize, 4usize); dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let (pruned, _) = prune_program(&p);
        let m0 = collect_metrics(&p);
        let m1 = collect_metrics(&pruned);
        assert_eq!(m0.unsafe_blocks, m1.unsafe_blocks);
        assert_eq!(m0.total_unsafe_ops(), m1.total_unsafe_ops());
    }

    #[test]
    fn retention_ratio_bounds() {
        let p = parse_program("fn main() { let x: i32 = 1; print(x); }").unwrap();
        let r = retention_ratio(&p);
        assert!((0.0..=1.0).contains(&r));
    }
}
