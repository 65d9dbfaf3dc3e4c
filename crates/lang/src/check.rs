//! Static checking: name resolution, lenient type checking and the
//! `unsafe`-context rule (Rust's E0133). Programs must check cleanly before
//! the oracle interprets them; repairs that produce ill-formed programs are
//! counted as failed iterations, exactly as a non-compiling LLM patch would
//! be in the paper's pipeline.

use crate::ast::{
    BinOp, Block, BuiltinKind, Expr, Function, IntTy, Lit, Mutability, Program, Stmt, StmtPath, Ty,
    UnOp,
};
use std::borrow::Cow;
use std::fmt;

/// A static-check diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckError {
    /// Kind of problem.
    pub kind: CheckErrorKind,
    /// Statement where the problem was found, when known.
    pub path: Option<StmtPath>,
    /// Human-readable description.
    pub message: String,
}

/// Kinds of static-check diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CheckErrorKind {
    /// Use of an undeclared variable.
    UndefinedVar,
    /// Incompatible types.
    TypeMismatch,
    /// Assignment target is not a place expression.
    NotAPlace,
    /// Operation requires an `unsafe` context (E0133).
    RequiresUnsafe,
    /// Call to an unknown function.
    UnknownFunc,
    /// Wrong number of call arguments.
    ArityMismatch,
    /// Unknown union or union field.
    UnknownUnionField,
    /// Program has no `main` function.
    NoMain,
    /// Builtin used with wrong type arguments.
    BadBuiltin,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            Some(p) => write!(f, "{:?} at {p}: {}", self.kind, self.message),
            None => write!(f, "{:?}: {}", self.kind, self.message),
        }
    }
}

/// Size and alignment of a union: max over fields.
#[must_use]
pub fn union_layout(prog: &Program, name: &str) -> Option<(usize, usize)> {
    let u = prog.union_def(name)?;
    let mut size = 0usize;
    let mut align = 1usize;
    for (_, t) in &u.fields {
        size = size.max(ty_size(prog, t)?);
        align = align.max(ty_align(prog, t)?);
    }
    Some((size, align))
}

/// Size of a type, resolving unions through the program.
#[must_use]
pub fn ty_size(prog: &Program, t: &Ty) -> Option<usize> {
    match t {
        Ty::Union(n) => union_layout(prog, n).map(|(s, _)| s),
        Ty::Array(inner, n) => ty_size(prog, inner).map(|s| s * n),
        Ty::Tuple(ts) => ts.iter().map(|t| ty_size(prog, t)).sum(),
        _ => t.size(),
    }
}

/// Alignment of a type, resolving unions through the program.
#[must_use]
pub fn ty_align(prog: &Program, t: &Ty) -> Option<usize> {
    match t {
        Ty::Union(n) => union_layout(prog, n).map(|(_, a)| a),
        Ty::Array(inner, _) => ty_align(prog, inner),
        Ty::Tuple(ts) => ts
            .iter()
            .map(|t| ty_align(prog, t))
            .try_fold(1usize, |a, b| b.map(|b| a.max(b))),
        _ => t.align(),
    }
}

/// Runs all static checks over a program, returning every diagnostic found.
///
/// ```
/// # use rb_lang::{parser::parse_program, check::check_program};
/// let p = parse_program("fn main() { let x: i32 = 1; print(x); }").unwrap();
/// assert!(check_program(&p).is_empty());
/// ```
#[must_use]
pub fn check_program(prog: &Program) -> Vec<CheckError> {
    let mut cx = Checker {
        prog,
        errors: Vec::new(),
        scopes: Vec::new(),
        in_unsafe: false,
        path: StmtPath::default(),
    };
    if prog.func("main").is_none() {
        cx.errors.push(CheckError {
            kind: CheckErrorKind::NoMain,
            path: None,
            message: "program has no `main` function".into(),
        });
    }
    for (fi, f) in prog.funcs.iter().enumerate() {
        cx.check_fn(f, fi);
    }
    cx.errors
}

/// Returns `true` when the program has no static-check diagnostics.
#[must_use]
pub fn is_well_formed(prog: &Program) -> bool {
    check_program(prog).is_empty()
}

/// A type the checker inferred: borrowed from the program where the AST
/// spells it out, built only by the expressions that construct one.
type Inferred<'p> = Cow<'p, Ty>;

/// Narrows a type to one of its components (a pointee, an element, a
/// field), borrowing when the type itself is borrowed and cloning only
/// the component otherwise.
pub fn project<'p>(t: &Cow<'p, Ty>, part: impl Fn(&Ty) -> Option<&Ty>) -> Option<Cow<'p, Ty>> {
    match t {
        Cow::Borrowed(t) => part(t).map(Cow::Borrowed),
        Cow::Owned(t) => part(t).cloned().map(Cow::Owned),
    }
}

struct Checker<'p> {
    prog: &'p Program,
    errors: Vec<CheckError>,
    /// Bindings in scope, outermost first; a block truncates the stack
    /// back to its entry length when it ends, and lookups search from the
    /// innermost end, so a later binding shadows an earlier one.
    scopes: Vec<(&'p str, &'p Ty)>,
    in_unsafe: bool,
    /// Path of the statement being checked, updated in place.
    path: StmtPath,
}

impl<'p> Checker<'p> {
    fn err(&mut self, kind: CheckErrorKind, message: impl Into<String>) {
        self.errors.push(CheckError {
            kind,
            path: Some(self.path.clone()),
            message: message.into(),
        });
    }

    fn lookup(&self, name: &str) -> Option<&'p Ty> {
        self.scopes
            .iter()
            .rev()
            .find_map(|&(n, t)| (n == name).then_some(t))
    }

    /// The signature a call by name resolves to. With duplicate names the
    /// last definition wins.
    fn callee(&self, name: &str) -> Option<&'p Function> {
        self.prog.funcs.iter().rev().find(|f| f.name == name)
    }

    fn check_fn(&mut self, f: &'p Function, fi: usize) {
        self.scopes.clear();
        self.scopes
            .extend(f.params.iter().map(|(n, t)| (n.as_str(), t)));
        self.in_unsafe = f.is_unsafe;
        self.path.func = fi;
        self.path.steps.clear();
        self.check_block(&f.body);
    }

    /// Checks a block in its own scope. The statement path gains one step
    /// for the block's statements and loses it again at the end.
    fn check_block(&mut self, b: &'p Block) {
        let mark = self.scopes.len();
        self.path.steps.push((0, 0));
        for (i, s) in b.stmts.iter().enumerate() {
            *self.path.steps.last_mut().expect("step pushed") = (i, 0);
            self.check_stmt(s);
        }
        self.path.steps.pop();
        self.scopes.truncate(mark);
    }

    /// Marks the current statement's child block: 0 for a body or `then`
    /// block, 1 for an `else` block.
    fn set_branch(&mut self, branch: u8) {
        if let Some(s) = self.path.steps.last_mut() {
            s.1 = branch;
        }
    }

    fn check_stmt(&mut self, s: &'p Stmt) {
        match s {
            Stmt::Let { name, ty, init } => {
                if let Some(it) = self.check_expr(init) {
                    if !compatible(ty, &it) {
                        self.err(
                            CheckErrorKind::TypeMismatch,
                            format!(
                                "let `{name}`: declared {} but initialiser has {}",
                                crate::printer::print_ty(ty),
                                crate::printer::print_ty(&it)
                            ),
                        );
                    }
                }
                self.scopes.push((name, ty));
            }
            Stmt::Assign { place, value } => {
                if !place.is_place() {
                    self.err(
                        CheckErrorKind::NotAPlace,
                        "assignment target is not a place",
                    );
                }
                self.check_place_unsafety(place);
                let pt = self.check_expr(place);
                let vt = self.check_expr(value);
                if let (Some(pt), Some(vt)) = (pt, vt) {
                    if !compatible(&pt, &vt) {
                        self.err(
                            CheckErrorKind::TypeMismatch,
                            format!(
                                "assignment of {} to place of type {}",
                                crate::printer::print_ty(&vt),
                                crate::printer::print_ty(&pt)
                            ),
                        );
                    }
                }
            }
            Stmt::Expr(e) | Stmt::Print(e) => {
                self.check_expr(e);
            }
            Stmt::Unsafe(b) => {
                let saved = self.in_unsafe;
                self.in_unsafe = true;
                self.check_block(b);
                self.in_unsafe = saved;
            }
            Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => self.check_block(b),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.expect_bool(cond);
                self.check_block(then_blk);
                if let Some(e) = else_blk {
                    self.set_branch(1);
                    self.check_block(e);
                    self.set_branch(0);
                }
            }
            Stmt::While { cond, body } => {
                self.expect_bool(cond);
                self.check_block(body);
            }
            Stmt::Assert { cond, .. } => {
                self.expect_bool(cond);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.check_expr(e);
                }
            }
            Stmt::TailCall(name, args) => {
                match self.callee(name) {
                    Some(f) => {
                        if f.params.len() != args.len() {
                            self.err(
                                CheckErrorKind::ArityMismatch,
                                format!("tailcall `{name}` expects {} args", f.params.len()),
                            );
                        }
                        if f.is_unsafe && !self.in_unsafe {
                            self.err(
                                CheckErrorKind::RequiresUnsafe,
                                format!("tailcall to unsafe fn `{name}` requires unsafe"),
                            );
                        }
                    }
                    None => {
                        self.err(CheckErrorKind::UnknownFunc, format!("unknown fn `{name}`"));
                    }
                }
                for a in args {
                    self.check_expr(a);
                }
            }
            Stmt::JoinAll | Stmt::Nop => {}
        }
    }

    fn expect_bool(&mut self, e: &'p Expr) {
        if let Some(t) = self.check_expr(e) {
            if *t != Ty::Bool {
                self.err(
                    CheckErrorKind::TypeMismatch,
                    format!("condition has type {}", crate::printer::print_ty(&t)),
                );
            }
        }
    }

    /// Reports E0133 problems in a place expression used for writing.
    fn check_place_unsafety(&mut self, place: &'p Expr) {
        if self.in_unsafe {
            return;
        }
        crate::visit::find_expr(place, &mut |e| -> Option<()> {
            let needs = match e {
                Expr::Deref(inner) => {
                    matches!(self.infer_quiet(inner).as_deref(), Some(Ty::RawPtr(..)))
                }
                Expr::StaticRef(n) => self.prog.static_def(n).is_some_and(|s| s.mutable),
                Expr::UnionField(..) => true,
                _ => false,
            };
            if needs {
                self.err(
                    CheckErrorKind::RequiresUnsafe,
                    "operation requires an unsafe block (E0133)",
                );
            }
            None
        });
    }

    fn infer_quiet(&self, e: &'p Expr) -> Option<Inferred<'p>> {
        match e {
            Expr::Var(n) => self.lookup(n).map(Cow::Borrowed),
            Expr::StaticRef(n) => self.prog.static_def(n).map(|s| Cow::Borrowed(&s.ty)),
            Expr::Cast(_, t) => Some(Cow::Borrowed(t)),
            Expr::Deref(inner) => project(&self.infer_quiet(inner)?, Ty::pointee),
            Expr::Lit(l) => Some(Cow::Owned(l.ty())),
            _ => None,
        }
    }

    /// Checks an expression, returning its inferred type when determinable.
    #[allow(clippy::too_many_lines)]
    fn check_expr(&mut self, e: &'p Expr) -> Option<Inferred<'p>> {
        match e {
            Expr::Lit(l) => Some(Cow::Owned(l.ty())),
            Expr::Var(n) => {
                if let Some(t) = self.lookup(n) {
                    Some(Cow::Borrowed(t))
                } else if let Some(f) = self.prog.func(n) {
                    Some(Cow::Owned(f.fn_ptr_ty()))
                } else {
                    self.err(
                        CheckErrorKind::UndefinedVar,
                        format!("undefined variable `{n}`"),
                    );
                    None
                }
            }
            Expr::StaticRef(n) => match self.prog.static_def(n) {
                Some(s) => {
                    if s.mutable && !self.in_unsafe {
                        self.err(
                            CheckErrorKind::RequiresUnsafe,
                            format!("access to `static mut {n}` requires unsafe (E0133)"),
                        );
                    }
                    Some(Cow::Borrowed(&s.ty))
                }
                None => {
                    self.err(
                        CheckErrorKind::UndefinedVar,
                        format!("unknown static `{n}`"),
                    );
                    None
                }
            },
            Expr::Unary(op, a) => {
                let t = self.check_expr(a)?;
                if *op == UnOp::Neg && !t.is_int() {
                    self.err(CheckErrorKind::TypeMismatch, "negation of non-integer");
                }
                Some(t)
            }
            Expr::Binary(op, a, b) => {
                let ta = self.check_expr(a);
                let tb = self.check_expr(b);
                if let (Some(ta), Some(tb)) = (&ta, &tb) {
                    let arith_ok = ta == tb
                        || matches!(op, BinOp::Shl | BinOp::Shr)
                        || ta.is_pointer_like()
                        || tb.is_pointer_like();
                    if !arith_ok {
                        self.err(
                            CheckErrorKind::TypeMismatch,
                            format!(
                                "operands {} and {}",
                                crate::printer::print_ty(ta),
                                crate::printer::print_ty(tb)
                            ),
                        );
                    }
                }
                if op.is_comparison() || matches!(op, BinOp::And | BinOp::Or) {
                    Some(Cow::Owned(Ty::Bool))
                } else {
                    ta.or(tb)
                }
            }
            Expr::Cast(a, to) => {
                self.check_expr(a);
                Some(Cow::Borrowed(to))
            }
            Expr::AddrOf(m, a) => {
                let t = self.check_expr(a)?;
                Some(Cow::Owned(Ty::Ref(Box::new(t.into_owned()), *m)))
            }
            Expr::RawAddrOf(m, a) => {
                let t = self.check_expr(a)?;
                Some(Cow::Owned(Ty::RawPtr(Box::new(t.into_owned()), *m)))
            }
            Expr::Deref(a) => {
                let t = self.check_expr(a)?;
                match &*t {
                    Ty::RawPtr(..) => {
                        if !self.in_unsafe {
                            self.err(
                                CheckErrorKind::RequiresUnsafe,
                                "raw-pointer dereference requires unsafe (E0133)",
                            );
                        }
                    }
                    Ty::Ref(..) | Ty::Boxed(..) => {}
                    other => {
                        self.err(
                            CheckErrorKind::TypeMismatch,
                            format!("cannot deref {}", crate::printer::print_ty(other)),
                        );
                        return None;
                    }
                }
                project(&t, Ty::pointee)
            }
            Expr::Index(a, i) => {
                let it = self.check_expr(i);
                if let Some(it) = it {
                    if !it.is_int() {
                        self.err(CheckErrorKind::TypeMismatch, "index is not an integer");
                    }
                }
                let t = self.check_expr(a)?;
                project(&t, |t| match t {
                    Ty::Array(inner, _) => Some(&**inner),
                    Ty::Ref(b, _) => match &**b {
                        Ty::Array(inner, _) => Some(&**inner),
                        _ => None,
                    },
                    _ => None,
                })
            }
            Expr::Field(a, n) => {
                let t = self.check_expr(a)?;
                project(&t, |t| match t {
                    Ty::Tuple(items) => items.get(*n),
                    _ => None,
                })
            }
            Expr::Tuple(xs) => {
                let ts: Vec<Ty> = xs
                    .iter()
                    .map(|x| self.check_expr(x).map_or(Ty::Unit, Cow::into_owned))
                    .collect();
                Some(Cow::Owned(Ty::Tuple(ts)))
            }
            Expr::ArrayLit(xs) => {
                let mut elem = None;
                for x in xs {
                    elem = self.check_expr(x).or(elem);
                }
                elem.map(|t| Cow::Owned(Ty::Array(Box::new(t.into_owned()), xs.len())))
            }
            Expr::ArrayRepeat(v, n) => {
                let t = self.check_expr(v)?;
                Some(Cow::Owned(Ty::Array(Box::new(t.into_owned()), *n)))
            }
            Expr::Call(name, args) => {
                for a in args {
                    self.check_expr(a);
                }
                if let Some(f) = self.callee(name) {
                    if f.params.len() != args.len() {
                        self.err(
                            CheckErrorKind::ArityMismatch,
                            format!(
                                "`{name}` expects {} args, got {}",
                                f.params.len(),
                                args.len()
                            ),
                        );
                    }
                    if f.is_unsafe && !self.in_unsafe {
                        self.err(
                            CheckErrorKind::RequiresUnsafe,
                            format!("call to unsafe fn `{name}` requires unsafe (E0133)"),
                        );
                    }
                    Some(Cow::Borrowed(&f.ret))
                } else if let Some(t) = self.lookup(name) {
                    // Call through a variable holding a function pointer.
                    match t {
                        Ty::FnPtr(_, ret) => Some(Cow::Borrowed(ret)),
                        _ => {
                            self.err(
                                CheckErrorKind::UnknownFunc,
                                format!("`{name}` is not callable"),
                            );
                            None
                        }
                    }
                } else {
                    self.err(CheckErrorKind::UnknownFunc, format!("unknown fn `{name}`"));
                    None
                }
            }
            Expr::CallPtr(c, args) => {
                let t = self.check_expr(c);
                for a in args {
                    self.check_expr(a);
                }
                let t = t?;
                if !matches!(*t, Ty::FnPtr(..)) {
                    self.err(
                        CheckErrorKind::TypeMismatch,
                        format!("cannot call value of type {}", crate::printer::print_ty(&t)),
                    );
                    return None;
                }
                project(&t, |t| match t {
                    Ty::FnPtr(_, ret) => Some(&**ret),
                    _ => None,
                })
            }
            Expr::Builtin(b, tys, args) => self.check_builtin(*b, tys, args),
            Expr::UnionLit(u, f, v) => {
                self.check_expr(v);
                match self.prog.union_def(u) {
                    Some(def) => {
                        if !def.fields.iter().any(|(n, _)| n == f) {
                            self.err(
                                CheckErrorKind::UnknownUnionField,
                                format!("union `{u}` has no field `{f}`"),
                            );
                        }
                        Some(Cow::Owned(Ty::Union(u.clone())))
                    }
                    None => {
                        self.err(
                            CheckErrorKind::UnknownUnionField,
                            format!("unknown union `{u}`"),
                        );
                        None
                    }
                }
            }
            Expr::UnionField(a, f) => {
                if !self.in_unsafe {
                    self.err(
                        CheckErrorKind::RequiresUnsafe,
                        "union field access requires unsafe (E0133)",
                    );
                }
                let t = self.check_expr(a)?;
                let Ty::Union(u) = &*t else {
                    return None;
                };
                let def = self.prog.union_def(u)?;
                match def.fields.iter().find(|(n, _)| n == f) {
                    Some((_, ft)) => Some(Cow::Borrowed(ft)),
                    None => {
                        self.err(
                            CheckErrorKind::UnknownUnionField,
                            format!("union `{u}` has no field `{f}`"),
                        );
                        None
                    }
                }
            }
        }
    }

    fn check_builtin(
        &mut self,
        b: BuiltinKind,
        tys: &'p [Ty],
        args: &'p [Expr],
    ) -> Option<Inferred<'p>> {
        // Atomic builtins model `AtomicI32`-style statics: touching the
        // static through them is safe, so the first argument (the static)
        // is exempt from the static-mut E0133 rule.
        let skip_static_arg = matches!(b, BuiltinKind::AtomicLoad | BuiltinKind::AtomicStore);
        for (i, a) in args.iter().enumerate() {
            if skip_static_arg && i == 0 && matches!(a, Expr::StaticRef(_)) {
                continue;
            }
            self.check_expr(a);
        }
        if b.is_unsafe() && !self.in_unsafe {
            self.err(
                CheckErrorKind::RequiresUnsafe,
                format!("builtin `{}` requires unsafe (E0133)", b.name()),
            );
        }
        let expect_args = |cx: &mut Self, n: usize| {
            if args.len() != n {
                cx.err(
                    CheckErrorKind::ArityMismatch,
                    format!(
                        "builtin `{}` expects {n} args, got {}",
                        b.name(),
                        args.len()
                    ),
                );
            }
        };
        let ty0 = tys.first().map(Cow::Borrowed);
        let built = |t: Ty| Some(Cow::Owned(t));
        match b {
            BuiltinKind::Alloc => {
                expect_args(self, 2);
                built(Ty::raw_u8_mut())
            }
            BuiltinKind::Dealloc => {
                expect_args(self, 3);
                built(Ty::Unit)
            }
            BuiltinKind::PtrRead | BuiltinKind::AssumeInitRead => {
                expect_args(self, 1);
                ty0
            }
            BuiltinKind::PtrWrite => {
                expect_args(self, 2);
                built(Ty::Unit)
            }
            BuiltinKind::PtrOffset => {
                expect_args(self, 2);
                ty0.map(|t| Cow::Owned(Ty::raw(t.into_owned(), Mutability::Mut)))
            }
            BuiltinKind::Transmute => {
                expect_args(self, 1);
                if tys.len() != 2 {
                    self.err(
                        CheckErrorKind::BadBuiltin,
                        "transmute needs two type arguments",
                    );
                    return None;
                }
                Some(Cow::Borrowed(&tys[1]))
            }
            BuiltinKind::BoxNew | BuiltinKind::BoxFromRaw => {
                expect_args(self, 1);
                ty0.map(|t| Cow::Owned(Ty::Boxed(Box::new(t.into_owned()))))
            }
            BuiltinKind::BoxIntoRaw => {
                expect_args(self, 1);
                ty0.map(|t| Cow::Owned(Ty::raw(t.into_owned(), Mutability::Mut)))
            }
            BuiltinKind::DropBox => {
                expect_args(self, 1);
                built(Ty::Unit)
            }
            BuiltinKind::GetUnchecked => {
                expect_args(self, 2);
                ty0
            }
            BuiltinKind::UncheckedAdd
            | BuiltinKind::UncheckedSub
            | BuiltinKind::UncheckedMul
            | BuiltinKind::CheckedAdd
            | BuiltinKind::CheckedSub
            | BuiltinKind::CheckedMul => {
                expect_args(self, 2);
                ty0
            }
            BuiltinKind::AtomicLoad => {
                expect_args(self, 1);
                match args.first() {
                    Some(Expr::StaticRef(n)) => {
                        self.prog.static_def(n).map(|s| Cow::Borrowed(&s.ty))
                    }
                    _ => {
                        self.err(CheckErrorKind::BadBuiltin, "atomic_load takes a static");
                        None
                    }
                }
            }
            BuiltinKind::AtomicStore => {
                expect_args(self, 2);
                if !matches!(args.first(), Some(Expr::StaticRef(_))) {
                    self.err(CheckErrorKind::BadBuiltin, "atomic_store takes a static");
                }
                built(Ty::Unit)
            }
            BuiltinKind::FromLeBytes => {
                expect_args(self, 1);
                ty0
            }
            BuiltinKind::ToLeBytes => {
                expect_args(self, 1);
                match ty0.as_deref() {
                    Some(Ty::Int(t)) => built(Ty::Array(Box::new(Ty::Int(IntTy::U8)), t.size())),
                    _ => None,
                }
            }
            BuiltinKind::PtrAddr => {
                expect_args(self, 1);
                built(Ty::Int(IntTy::Usize))
            }
            BuiltinKind::CopyNonoverlapping => {
                expect_args(self, 3);
                built(Ty::Unit)
            }
            BuiltinKind::Abort => {
                expect_args(self, 0);
                built(Ty::Unit)
            }
        }
    }
}

/// Loose compatibility: exact equality plus raw-pointer mutability
/// coercion (`*mut T` usable where `*const T` is expected), mirroring Rust.
fn compatible(expected: &Ty, actual: &Ty) -> bool {
    if expected == actual {
        return true;
    }
    match (expected, actual) {
        (Ty::RawPtr(a, Mutability::Not), Ty::RawPtr(b, _)) => a == b,
        (Ty::Ref(a, Mutability::Not), Ty::Ref(b, _)) => a == b,
        _ => false,
    }
}

/// Convenience predicate: checks whether a literal is valid for a type.
#[must_use]
pub fn lit_fits(l: &Lit, t: &Ty) -> bool {
    match (l, t) {
        (Lit::Unit, Ty::Unit) | (Lit::Bool(_), Ty::Bool) => true,
        (Lit::Int(v, _), Ty::Int(t)) => t.in_range(*v),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn errors_of(src: &str) -> Vec<CheckErrorKind> {
        check_program(&parse_program(src).unwrap())
            .into_iter()
            .map(|e| e.kind)
            .collect()
    }

    #[test]
    fn clean_program_checks() {
        assert!(errors_of("fn main() { let x: i32 = 1; print(x + 2); }").is_empty());
    }

    #[test]
    fn undefined_var() {
        assert!(errors_of("fn main() { print(y); }").contains(&CheckErrorKind::UndefinedVar));
    }

    #[test]
    fn raw_deref_requires_unsafe() {
        let errs =
            errors_of("fn main() { let x: i32 = 1; let p: *const i32 = &raw const x; print(*p); }");
        assert!(errs.contains(&CheckErrorKind::RequiresUnsafe));
        let errs = errors_of(
            "fn main() { let x: i32 = 1; let p: *const i32 = &raw const x; unsafe { print(*p); } }",
        );
        assert!(errs.is_empty());
    }

    #[test]
    fn static_mut_requires_unsafe() {
        let errs = errors_of("static mut G: i32 = 0; fn main() { G = 1; }");
        assert!(errs.contains(&CheckErrorKind::RequiresUnsafe));
        let errs = errors_of("static mut G: i32 = 0; fn main() { unsafe { G = 1; } }");
        assert!(errs.is_empty());
    }

    #[test]
    fn immutable_static_is_safe() {
        assert!(errors_of("static K: i32 = 7; fn main() { print(K); }").is_empty());
    }

    #[test]
    fn union_read_requires_unsafe() {
        let errs = errors_of(
            "union B { i: i32, u: u32 } fn main() { let b: B = B { i: 1 }; print(b.u); }",
        );
        assert!(errs.contains(&CheckErrorKind::RequiresUnsafe));
    }

    #[test]
    fn unsafe_fn_call_requires_unsafe() {
        let errs = errors_of("unsafe fn danger() { } fn main() { danger(); }");
        assert!(errs.contains(&CheckErrorKind::RequiresUnsafe));
        let errs = errors_of("unsafe fn danger() { } fn main() { unsafe { danger(); } }");
        assert!(errs.is_empty());
    }

    #[test]
    fn unsafe_fn_body_is_unsafe_context() {
        let errs = errors_of(
            "unsafe fn f(p: *const i32) -> i32 { return *p; } \
             fn main() { let x: i32 = 1; unsafe { print(f(&raw const x)); } }",
        );
        assert!(errs.is_empty());
    }

    #[test]
    fn type_mismatch_let() {
        let errs = errors_of("fn main() { let x: bool = 1; }");
        assert!(errs.contains(&CheckErrorKind::TypeMismatch));
    }

    #[test]
    fn arity_mismatch() {
        let errs = errors_of("fn f(x: i32) { print(x); } fn main() { f(1, 2); }");
        assert!(errs.contains(&CheckErrorKind::ArityMismatch));
    }

    #[test]
    fn unknown_function() {
        assert!(errors_of("fn main() { nope(); }").contains(&CheckErrorKind::UnknownFunc));
    }

    #[test]
    fn no_main() {
        assert!(errors_of("fn f() { }").contains(&CheckErrorKind::NoMain));
    }

    #[test]
    fn mut_ptr_coerces_to_const() {
        let errs = errors_of(
            "fn main() { let x: i32 = 1; let p: *const i32 = &raw mut x; unsafe { print(*p); } }",
        );
        assert!(errs.is_empty());
    }

    #[test]
    fn union_layout_max_of_fields() {
        let p = parse_program("union B { a: u8, b: u64 } fn main() { }").unwrap();
        assert_eq!(union_layout(&p, "B"), Some((8, 8)));
    }

    #[test]
    fn builtin_unsafe_enforced() {
        let errs = errors_of("fn main() { let p: *mut u8 = alloc(4usize, 4usize); }");
        assert!(errs.contains(&CheckErrorKind::RequiresUnsafe));
    }

    #[test]
    fn transmute_needs_two_ty_args() {
        let errs = errors_of("fn main() { unsafe { let x: u32 = transmute::<u32>(1u32); } }");
        assert!(errs.contains(&CheckErrorKind::BadBuiltin));
    }

    #[test]
    fn scope_shadows_and_expires() {
        // Inner scope declares y; using it after the scope is an error.
        let errs = errors_of("fn main() { { let y: i32 = 1; print(y); } print(y); }");
        assert!(errs.contains(&CheckErrorKind::UndefinedVar));
    }
}
