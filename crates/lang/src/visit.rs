//! Traversal utilities: enumerate statements with stable [`StmtPath`]s,
//! look them up, and mutate programs by path. These are the primitives the
//! repair agents use to apply edits at diagnostic locations.

use crate::ast::{Block, Expr, Program, Stmt, StmtPath};

/// Returns the child block of a statement selected by `branch`
/// (0 = then/body/inner block, 1 = else).
#[must_use]
pub fn child_block(stmt: &Stmt, branch: u8) -> Option<&Block> {
    match (stmt, branch) {
        (Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b), 0) => Some(b),
        (Stmt::If { then_blk, .. }, 0) => Some(then_blk),
        (Stmt::If { else_blk, .. }, 1) => else_blk.as_ref(),
        (Stmt::While { body, .. }, 0) => Some(body),
        _ => None,
    }
}

/// Mutable variant of [`child_block`].
pub fn child_block_mut(stmt: &mut Stmt, branch: u8) -> Option<&mut Block> {
    match (stmt, branch) {
        (Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b), 0) => Some(b),
        (Stmt::If { then_blk, .. }, 0) => Some(then_blk),
        (Stmt::If { else_blk, .. }, 1) => else_blk.as_mut(),
        (Stmt::While { body, .. }, 0) => Some(body),
        _ => None,
    }
}

/// Number of child blocks a statement has (for iteration).
#[must_use]
pub fn child_branches(stmt: &Stmt) -> u8 {
    match stmt {
        Stmt::Unsafe(_) | Stmt::Scope(_) | Stmt::Spawn(_) | Stmt::Lock(..) | Stmt::While { .. } => {
            1
        }
        Stmt::If { else_blk, .. } => 1 + u8::from(else_blk.is_some()),
        _ => 0,
    }
}

/// Where [`find_stmt`] is in the program. Its steps live on the walker's
/// stack, so a [`StmtPath`] is built only when [`StmtAt::path`] asks for
/// one.
#[derive(Debug)]
pub struct StmtAt<'a> {
    func: usize,
    step: (usize, u8),
    parent: Option<&'a StmtAt<'a>>,
}

impl StmtAt<'_> {
    /// The path of the statement.
    #[must_use]
    pub fn path(&self) -> StmtPath {
        let mut steps = Vec::new();
        let mut at = Some(self);
        while let Some(here) = at {
            steps.push(here.step);
            at = here.parent;
        }
        steps.reverse();
        StmtPath {
            func: self.func,
            steps,
        }
    }
}

/// Searches every statement of the program in pre-order and returns the
/// first `Some` that `f` gives. Nothing is allocated on the way.
pub fn find_stmt<'p, T, F>(prog: &'p Program, mut f: F) -> Option<T>
where
    F: FnMut(&'p Stmt, &StmtAt<'_>) -> Option<T>,
{
    prog.funcs
        .iter()
        .enumerate()
        .find_map(|(fi, func)| find_in_block(&func.body, fi, None, &mut f))
}

fn find_in_block<'p, T, F>(
    b: &'p Block,
    func: usize,
    parent: Option<&StmtAt<'_>>,
    f: &mut F,
) -> Option<T>
where
    F: FnMut(&'p Stmt, &StmtAt<'_>) -> Option<T>,
{
    for (i, s) in b.stmts.iter().enumerate() {
        // The branch recorded at this step is filled in when descending.
        if let Some(t) = f(
            s,
            &StmtAt {
                func,
                step: (i, 0),
                parent,
            },
        ) {
            return Some(t);
        }
        for br in 0..child_branches(s) {
            if let Some(cb) = child_block(s, br) {
                let here = StmtAt {
                    func,
                    step: (i, br),
                    parent,
                };
                if let Some(t) = find_in_block(cb, func, Some(&here), f) {
                    return Some(t);
                }
            }
        }
    }
    None
}

/// Visits every statement of the program in pre-order, passing its path.
pub fn for_each_stmt<F: FnMut(&Stmt, &StmtPath)>(prog: &Program, mut f: F) {
    find_stmt(prog, |s, at| -> Option<()> {
        f(s, &at.path());
        None
    });
}

/// Looks up a statement by path.
#[must_use]
pub fn get_stmt<'p>(prog: &'p Program, path: &StmtPath) -> Option<&'p Stmt> {
    let func = prog.funcs.get(path.func)?;
    let mut block = &func.body;
    let (last, rest) = path.steps.split_last()?;
    for (idx, branch) in rest {
        let s = block.stmts.get(*idx)?;
        block = child_block(s, *branch)?;
    }
    block.stmts.get(last.0)
}

/// Looks up the block containing the statement addressed by `path`,
/// returning the block and the statement index within it.
pub fn containing_block_mut<'p>(
    prog: &'p mut Program,
    path: &StmtPath,
) -> Option<(&'p mut Block, usize)> {
    let func = prog.funcs.get_mut(path.func)?;
    let mut block = &mut func.body;
    let (last, rest) = path.steps.split_last()?;
    for (idx, branch) in rest {
        let s = block.stmts.get_mut(*idx)?;
        block = child_block_mut(s, *branch)?;
    }
    if last.0 <= block.stmts.len() {
        Some((block, last.0))
    } else {
        None
    }
}

/// Mutable statement lookup by path.
pub fn get_stmt_mut<'p>(prog: &'p mut Program, path: &StmtPath) -> Option<&'p mut Stmt> {
    let (block, idx) = containing_block_mut(prog, path)?;
    block.stmts.get_mut(idx)
}

/// Replaces the statement at `path`; returns `false` when the path dangles.
pub fn replace_stmt(prog: &mut Program, path: &StmtPath, new: Stmt) -> bool {
    match get_stmt_mut(prog, path) {
        Some(slot) => {
            *slot = new;
            true
        }
        None => false,
    }
}

/// Inserts a statement *before* the one at `path`.
pub fn insert_before(prog: &mut Program, path: &StmtPath, new: Stmt) -> bool {
    match containing_block_mut(prog, path) {
        Some((block, idx)) if idx <= block.stmts.len() => {
            block.stmts.insert(idx, new);
            true
        }
        _ => false,
    }
}

/// Inserts a statement *after* the one at `path`.
pub fn insert_after(prog: &mut Program, path: &StmtPath, new: Stmt) -> bool {
    match containing_block_mut(prog, path) {
        Some((block, idx)) if idx < block.stmts.len() => {
            block.stmts.insert(idx + 1, new);
            true
        }
        _ => false,
    }
}

/// Removes the statement at `path` entirely (shifting later paths).
pub fn remove_stmt(prog: &mut Program, path: &StmtPath) -> Option<Stmt> {
    match containing_block_mut(prog, path) {
        Some((block, idx)) if idx < block.stmts.len() => Some(block.stmts.remove(idx)),
        _ => None,
    }
}

/// Visits every expression in a statement (not descending into child
/// statements/blocks).
pub fn for_each_expr_in_stmt<F: FnMut(&Expr)>(stmt: &Stmt, mut f: F) {
    find_expr_in_stmt(stmt, |e| -> Option<()> {
        f(e);
        None
    });
}

/// Searches the expressions of a statement (not descending into child
/// statements/blocks) in the order of [`for_each_expr_in_stmt`] and
/// returns the first `Some` that `f` gives.
pub fn find_expr_in_stmt<'s, T, F: FnMut(&'s Expr) -> Option<T>>(
    stmt: &'s Stmt,
    mut f: F,
) -> Option<T> {
    match stmt {
        Stmt::Let { init, .. } => find_expr(init, &mut f),
        Stmt::Assign { place, value } => {
            find_expr(place, &mut f).or_else(|| find_expr(value, &mut f))
        }
        Stmt::Expr(e) | Stmt::Print(e) | Stmt::Return(Some(e)) => find_expr(e, &mut f),
        Stmt::If { cond, .. } | Stmt::While { cond, .. } | Stmt::Assert { cond, .. } => {
            find_expr(cond, &mut f)
        }
        Stmt::TailCall(_, args) => args.iter().find_map(|a| find_expr(a, &mut f)),
        Stmt::Unsafe(_)
        | Stmt::Scope(_)
        | Stmt::Spawn(_)
        | Stmt::Lock(..)
        | Stmt::Return(None)
        | Stmt::JoinAll
        | Stmt::Nop => None,
    }
}

/// Recursively visits an expression and its subexpressions in pre-order.
pub fn walk_expr<F: FnMut(&Expr)>(e: &Expr, f: &mut F) {
    find_expr(e, &mut |x| -> Option<()> {
        f(x);
        None
    });
}

/// Searches an expression and its subexpressions in the pre-order of
/// [`walk_expr`] and returns the first `Some` that `f` gives.
pub fn find_expr<'e, T, F: FnMut(&'e Expr) -> Option<T>>(e: &'e Expr, f: &mut F) -> Option<T> {
    if let Some(t) = f(e) {
        return Some(t);
    }
    match e {
        Expr::Unary(_, a)
        | Expr::Cast(a, _)
        | Expr::AddrOf(_, a)
        | Expr::RawAddrOf(_, a)
        | Expr::Deref(a)
        | Expr::Field(a, _)
        | Expr::ArrayRepeat(a, _)
        | Expr::UnionLit(_, _, a)
        | Expr::UnionField(a, _) => find_expr(a, f),
        Expr::Binary(_, a, b) | Expr::Index(a, b) => find_expr(a, f).or_else(|| find_expr(b, f)),
        Expr::Tuple(xs) | Expr::ArrayLit(xs) | Expr::Call(_, xs) | Expr::Builtin(_, _, xs) => {
            xs.iter().find_map(|x| find_expr(x, f))
        }
        Expr::CallPtr(c, xs) => find_expr(c, f).or_else(|| xs.iter().find_map(|x| find_expr(x, f))),
        Expr::Lit(_) | Expr::Var(_) | Expr::StaticRef(_) => None,
    }
}

/// Applies `f` to every expression of a statement (recursing into nested
/// blocks), bottom-up, allowing in-place rewriting.
pub fn map_exprs_in_stmt<F: FnMut(&mut Expr)>(stmt: &mut Stmt, f: &mut F) {
    match stmt {
        Stmt::Let { init, .. } => map_expr(init, f),
        Stmt::Assign { place, value } => {
            map_expr(place, f);
            map_expr(value, f);
        }
        Stmt::Expr(e) | Stmt::Print(e) => map_expr(e, f),
        Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => {
            for s in &mut b.stmts {
                map_exprs_in_stmt(s, f);
            }
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            map_expr(cond, f);
            for s in &mut then_blk.stmts {
                map_exprs_in_stmt(s, f);
            }
            if let Some(e) = else_blk {
                for s in &mut e.stmts {
                    map_exprs_in_stmt(s, f);
                }
            }
        }
        Stmt::While { cond, body } => {
            map_expr(cond, f);
            for s in &mut body.stmts {
                map_exprs_in_stmt(s, f);
            }
        }
        Stmt::Assert { cond, .. } => map_expr(cond, f),
        Stmt::Return(Some(e)) => map_expr(e, f),
        Stmt::TailCall(_, args) => {
            for a in args {
                map_expr(a, f);
            }
        }
        Stmt::Return(None) | Stmt::JoinAll | Stmt::Nop => {}
    }
}

/// Applies `f` to an expression and all subexpressions, bottom-up.
pub fn map_expr<F: FnMut(&mut Expr)>(e: &mut Expr, f: &mut F) {
    match e {
        Expr::Unary(_, a)
        | Expr::Cast(a, _)
        | Expr::AddrOf(_, a)
        | Expr::RawAddrOf(_, a)
        | Expr::Deref(a)
        | Expr::Field(a, _)
        | Expr::ArrayRepeat(a, _)
        | Expr::UnionLit(_, _, a)
        | Expr::UnionField(a, _) => map_expr(a, f),
        Expr::Binary(_, a, b) | Expr::Index(a, b) => {
            map_expr(a, f);
            map_expr(b, f);
        }
        Expr::Tuple(xs) | Expr::ArrayLit(xs) | Expr::Call(_, xs) | Expr::Builtin(_, _, xs) => {
            for x in xs {
                map_expr(x, f);
            }
        }
        Expr::CallPtr(c, xs) => {
            map_expr(c, f);
            for x in xs {
                map_expr(x, f);
            }
        }
        Expr::Lit(_) | Expr::Var(_) | Expr::StaticRef(_) => {}
    }
    f(e);
}

/// Applies `f` to every expression in the whole program.
pub fn map_exprs<F: FnMut(&mut Expr)>(prog: &mut Program, f: &mut F) {
    for func in &mut prog.funcs {
        for s in &mut func.body.stmts {
            map_exprs_in_stmt(s, f);
        }
    }
}

/// Collects the names of variables read by an expression.
#[must_use]
pub fn vars_read(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    walk_expr(e, &mut |x| {
        if let Expr::Var(n) = x {
            out.push(n.clone());
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn sample() -> Program {
        parse_program(
            "fn main() { let x: i32 = 1; if x > 0 { print(x); } else { unsafe { print(2i32); } } }",
        )
        .unwrap()
    }

    #[test]
    fn enumerate_all_statements() {
        let p = sample();
        let mut seen = Vec::new();
        for_each_stmt(&p, |_, path| seen.push(path.clone()));
        // let, if, print(then), unsafe(else), print(inside unsafe)
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn find_stmt_stops_at_the_first_hit_and_gives_its_path() {
        let p = sample();
        let mut visited = 0;
        let path = find_stmt(&p, |s, at| {
            visited += 1;
            matches!(s, Stmt::Print(_)).then(|| at.path())
        });
        // let, if, then the print in the then-branch: the walk stops there.
        assert_eq!(visited, 3);
        assert_eq!(
            path,
            Some(StmtPath {
                func: 0,
                steps: vec![(1, 0), (0, 0)],
            })
        );
    }

    #[test]
    fn paths_resolve_back() {
        let p = sample();
        let mut ok = 0;
        let mut paths = Vec::new();
        for_each_stmt(&p, |_, path| paths.push(path.clone()));
        for path in &paths {
            if get_stmt(&p, path).is_some() {
                ok += 1;
            }
        }
        assert_eq!(ok, paths.len());
    }

    #[test]
    fn else_branch_navigation() {
        let p = sample();
        // fn#0.1 (if) -> else branch -> stmt 0 (unsafe) -> stmt 0 (print)
        let path = StmtPath {
            func: 0,
            steps: vec![(1, 1), (0, 0), (0, 0)],
        };
        let s = get_stmt(&p, &path).unwrap();
        assert!(matches!(s, Stmt::Print(_)));
    }

    #[test]
    fn replace_and_insert() {
        let mut p = sample();
        let path = StmtPath::top(0, 0);
        assert!(replace_stmt(&mut p, &path, Stmt::Nop));
        assert!(matches!(p.funcs[0].body.stmts[0], Stmt::Nop));
        assert!(insert_before(&mut p, &path, Stmt::JoinAll));
        assert!(matches!(p.funcs[0].body.stmts[0], Stmt::JoinAll));
        let after = StmtPath::top(0, 1);
        assert!(insert_after(&mut p, &after, Stmt::JoinAll));
        assert!(matches!(p.funcs[0].body.stmts[2], Stmt::JoinAll));
    }

    #[test]
    fn remove_shifts() {
        let mut p = sample();
        let removed = remove_stmt(&mut p, &StmtPath::top(0, 0)).unwrap();
        assert!(matches!(removed, Stmt::Let { .. }));
        assert_eq!(p.funcs[0].body.stmts.len(), 1);
    }

    #[test]
    fn dangling_path_safe() {
        let mut p = sample();
        let bad = StmtPath::top(0, 99);
        assert!(get_stmt(&p, &bad).is_none());
        assert!(!replace_stmt(&mut p, &bad, Stmt::Nop));
        assert!(remove_stmt(&mut p, &bad).is_none());
    }

    #[test]
    fn vars_read_collects() {
        let p = sample();
        if let Stmt::If { cond, .. } = &p.funcs[0].body.stmts[1] {
            assert_eq!(vars_read(cond), vec!["x".to_owned()]);
        } else {
            panic!();
        }
    }
}
