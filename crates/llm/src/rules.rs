//! The repair-rule library: concrete AST transformations a competent Rust
//! developer (or a well-prompted LLM) would apply for each family of UB.
//!
//! Rules are grouped into the paper's three repair categories (Principle 2):
//! *safe replacement*, *assertion/guarding*, and *semantic modification* —
//! plus a fourth group of *hallucination* edits modelling plausible-looking
//! but wrong patches that weak models emit.
//!
//! A rule inspects the program and the primary oracle diagnostic and, when
//! its pattern matches, produces a transformed program. Whether the result
//! actually passes the oracle (and preserves semantics) is decided later by
//! re-running the oracle — rules are proposals, not guarantees, exactly as
//! LLM patches are.

use rb_lang::ast::{
    BinOp, Block, BuiltinKind, Expr, IntTy, Lit, Mutability, Program, Stmt, StmtPath, Ty,
};
use rb_lang::visit::{
    containing_block_mut, for_each_expr_in_stmt, for_each_stmt, get_stmt, map_expr,
    map_exprs_in_stmt, walk_expr,
};
use rb_miri::{MiriError, UbKind};
use serde::{Deserialize, Serialize};

/// The paper's repair categories (plus hallucination noise).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RuleKind {
    /// Replace an unsafe operation with a safe API (prompt strategy 1).
    SafeReplace,
    /// Add assertions / guards preventing the UB (prompt strategy 2).
    Assert,
    /// Modify erroneous semantics while preserving intent (prompt 3).
    Modify,
    /// Plausible-but-wrong edits produced by model noise.
    Hallucination,
}

/// All concrete repair rules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RepairRule {
    // -- safe replacement -----------------------------------------------------
    /// Dereference the original pointer instead of an int-laundered copy.
    UseDirectPointer,
    /// `transmute::<u8, bool>(x)` → `x != 0`.
    BoolFromComparison,
    /// `transmute::<[u8; N], Int>(a)` → `from_le_bytes::<intN>(a) as Int`.
    TransmuteBytesToFromLe,
    /// Replace a forged reference with a borrow of an in-scope local.
    BorrowLocalInstead,
    /// Replace a forged function pointer with the real function.
    DirectFnUse,
    /// Re-type a wrongly-transmuted function pointer and pad call args.
    FixFnPtrSignature,
    /// Replace plain static accesses in threads with atomic ops.
    UseAtomics,
    /// Widen overflowing arithmetic to `i64`.
    WidenArithmetic,
    /// Take `&raw mut` of the owner instead of writing through a shared ref.
    UseRawMutDirect,
    // -- assertion / guarding -------------------------------------------------
    /// Guard a division with a zero check (else-print-0).
    GuardDivision,
    /// Guard an indexing statement with a bounds check.
    GuardIndex,
    /// Weaken a failing assertion to a trivially true one.
    WeakenAssert,
    /// Insert a (useless) non-null assertion before a pointer use.
    AssertNonNull,
    /// Wrap every spawned body in the same lock.
    LockSpawnBodies,
    // -- semantic modification ------------------------------------------------
    /// Remove a second `dealloc` of the same pointer.
    RemoveDoubleFree,
    /// Fix `dealloc` layout arguments from the matching `alloc`.
    FixDeallocLayout,
    /// Append the missing `dealloc` at the end of `main`.
    AddDealloc,
    /// Splice a scope's body into the parent, extending local lifetimes.
    HoistLocalOut,
    /// Move a premature `dealloc` to the end of `main`.
    ReorderDeallocAfterUse,
    /// Snap a `ptr_offset` literal down to offset 0.
    AlignOffsetDown,
    /// Snap a `ptr_offset` literal up to the read type's alignment.
    AlignOffsetUp,
    /// Move the initialising write before the faulting read.
    InitializeBeforeRead,
    /// Initialise the union field that is actually read.
    UnionUseLargestField,
    /// Take the raw pointer after the conflicting write, not before.
    RetakePointerAfterWrite,
    /// Collapse two exclusive reborrows into one.
    SingleMutBorrow,
    /// Move a racing main-thread read after `join`.
    MoveReadAfterJoin,
    /// Turn a mismatched tail call into a plain call + return.
    ReplaceTailCallWithReturn,
    /// Fix an out-of-bounds index literal to `len - 1`.
    FixLiteralIndex,
    /// Separate overlapping `copy_nonoverlapping` ranges.
    CopyWithoutOverlap,
    // -- hallucination ---------------------------------------------------------
    /// Delete the statement the diagnostic points at.
    DeleteStatement,
    /// Duplicate the statement the diagnostic points at.
    DuplicateStatement,
    /// Perturb the first integer literal in the faulting statement.
    PerturbLiteral,
    /// Wrap the faulting statement in `if false { .. }`.
    DisableStatement,
    /// Unwrap an `unsafe` block, leaving unsafe ops in safe context (the
    /// patch no longer compiles — E0133).
    StripUnsafe,
    /// Rename a variable at its definition only (undefined-variable error).
    BreakBinding,
    /// Change a let's declared type without changing the initialiser.
    BreakTypes,
}

impl RepairRule {
    /// Every rule, in a stable order.
    pub const ALL: [RepairRule; 31] = [
        RepairRule::UseDirectPointer,
        RepairRule::BoolFromComparison,
        RepairRule::TransmuteBytesToFromLe,
        RepairRule::BorrowLocalInstead,
        RepairRule::DirectFnUse,
        RepairRule::FixFnPtrSignature,
        RepairRule::UseAtomics,
        RepairRule::WidenArithmetic,
        RepairRule::UseRawMutDirect,
        RepairRule::GuardDivision,
        RepairRule::GuardIndex,
        RepairRule::WeakenAssert,
        RepairRule::AssertNonNull,
        RepairRule::LockSpawnBodies,
        RepairRule::RemoveDoubleFree,
        RepairRule::FixDeallocLayout,
        RepairRule::AddDealloc,
        RepairRule::HoistLocalOut,
        RepairRule::ReorderDeallocAfterUse,
        RepairRule::AlignOffsetDown,
        RepairRule::AlignOffsetUp,
        RepairRule::InitializeBeforeRead,
        RepairRule::UnionUseLargestField,
        RepairRule::RetakePointerAfterWrite,
        RepairRule::SingleMutBorrow,
        RepairRule::MoveReadAfterJoin,
        RepairRule::ReplaceTailCallWithReturn,
        RepairRule::FixLiteralIndex,
        RepairRule::CopyWithoutOverlap,
        RepairRule::DeleteStatement,
        RepairRule::DuplicateStatement,
    ];

    /// The hallucination edits (drawn instead of real rules by model
    /// noise). Breaking edits — patches that stop compiling — are listed
    /// multiple times: they are what failing LLM patches most often look
    /// like, so they are drawn more often.
    pub const HALLUCINATIONS: [RepairRule; 9] = [
        RepairRule::DeleteStatement,
        RepairRule::DuplicateStatement,
        RepairRule::PerturbLiteral,
        RepairRule::DisableStatement,
        RepairRule::StripUnsafe,
        RepairRule::StripUnsafe,
        RepairRule::BreakBinding,
        RepairRule::BreakTypes,
        RepairRule::BreakTypes,
    ];

    /// Which repair category the rule belongs to.
    #[must_use]
    pub fn kind(self) -> RuleKind {
        use RepairRule::*;
        match self {
            UseDirectPointer
            | BoolFromComparison
            | TransmuteBytesToFromLe
            | BorrowLocalInstead
            | DirectFnUse
            | FixFnPtrSignature
            | UseAtomics
            | WidenArithmetic
            | UseRawMutDirect => RuleKind::SafeReplace,
            GuardDivision | GuardIndex | WeakenAssert | AssertNonNull | LockSpawnBodies => {
                RuleKind::Assert
            }
            RemoveDoubleFree
            | FixDeallocLayout
            | AddDealloc
            | HoistLocalOut
            | ReorderDeallocAfterUse
            | AlignOffsetDown
            | AlignOffsetUp
            | InitializeBeforeRead
            | UnionUseLargestField
            | RetakePointerAfterWrite
            | SingleMutBorrow
            | MoveReadAfterJoin
            | ReplaceTailCallWithReturn
            | FixLiteralIndex
            | CopyWithoutOverlap => RuleKind::Modify,
            DeleteStatement | DuplicateStatement | PerturbLiteral | DisableStatement
            | StripUnsafe | BreakBinding | BreakTypes => RuleKind::Hallucination,
        }
    }

    /// Rule name for prompts and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        use RepairRule::*;
        match self {
            UseDirectPointer => "use-direct-pointer",
            BoolFromComparison => "bool-from-comparison",
            TransmuteBytesToFromLe => "from-le-bytes",
            BorrowLocalInstead => "borrow-local",
            DirectFnUse => "direct-fn-use",
            FixFnPtrSignature => "fix-fnptr-signature",
            UseAtomics => "use-atomics",
            WidenArithmetic => "widen-arithmetic",
            UseRawMutDirect => "raw-mut-direct",
            GuardDivision => "guard-division",
            GuardIndex => "guard-index",
            WeakenAssert => "weaken-assert",
            AssertNonNull => "assert-non-null",
            LockSpawnBodies => "lock-spawn-bodies",
            RemoveDoubleFree => "remove-double-free",
            FixDeallocLayout => "fix-dealloc-layout",
            AddDealloc => "add-dealloc",
            HoistLocalOut => "hoist-local-out",
            ReorderDeallocAfterUse => "reorder-dealloc",
            AlignOffsetDown => "align-offset-down",
            AlignOffsetUp => "align-offset-up",
            InitializeBeforeRead => "initialize-before-read",
            UnionUseLargestField => "union-largest-field",
            RetakePointerAfterWrite => "retake-pointer",
            SingleMutBorrow => "single-mut-borrow",
            MoveReadAfterJoin => "move-read-after-join",
            ReplaceTailCallWithReturn => "tailcall-to-return",
            FixLiteralIndex => "fix-literal-index",
            CopyWithoutOverlap => "copy-without-overlap",
            DeleteStatement => "delete-statement",
            DuplicateStatement => "duplicate-statement",
            PerturbLiteral => "perturb-literal",
            DisableStatement => "disable-statement",
            StripUnsafe => "strip-unsafe",
            BreakBinding => "break-binding",
            BreakTypes => "break-types",
        }
    }

    /// Whether `kind` is the failure this rule canonically addresses.
    /// Broadly-applicable rules still have a home turf; a skilled model
    /// prefers the rule whose home turf matches the diagnostic.
    #[must_use]
    pub fn addresses(self, kind: UbKind) -> bool {
        use RepairRule::*;
        match self {
            UseDirectPointer => matches!(kind, UbKind::NoProvenance | UbKind::CrossAllocation),
            BoolFromComparison => matches!(kind, UbKind::InvalidValue),
            TransmuteBytesToFromLe => matches!(kind, UbKind::TransmuteSize),
            BorrowLocalInstead => matches!(kind, UbKind::InvalidRef),
            DirectFnUse => matches!(kind, UbKind::InvalidFnPtr),
            FixFnPtrSignature => matches!(kind, UbKind::FnSigMismatch),
            UseAtomics | LockSpawnBodies => {
                matches!(kind, UbKind::RaceOnStatic | UbKind::RaceOnHeap)
            }
            WidenArithmetic => matches!(kind, UbKind::UncheckedOverflow | UbKind::PanicOverflow),
            UseRawMutDirect => matches!(kind, UbKind::WriteThroughShared),
            GuardDivision => matches!(kind, UbKind::PanicDivZero),
            GuardIndex | FixLiteralIndex => matches!(kind, UbKind::PanicIndex),
            WeakenAssert => matches!(kind, UbKind::PanicAssert),
            AssertNonNull => false, // plausible everywhere, right nowhere
            RemoveDoubleFree => matches!(kind, UbKind::DoubleFree),
            FixDeallocLayout => matches!(kind, UbKind::BadDealloc),
            AddDealloc => matches!(kind, UbKind::Leak),
            HoistLocalOut => matches!(kind, UbKind::UseAfterScope),
            ReorderDeallocAfterUse => matches!(kind, UbKind::UseAfterFree),
            // The deliberately ambiguous pair (paper Fig. 3: the same
            // unsafe API needs different substitutions depending on
            // context): both claim both failure kinds, and only feedback /
            // knowledge can tell which one a given structure needs.
            AlignOffsetDown | AlignOffsetUp => {
                matches!(kind, UbKind::OutOfBounds | UbKind::UnalignedAccess)
            }
            InitializeBeforeRead => matches!(kind, UbKind::UninitRead | UbKind::Precondition),
            UnionUseLargestField => matches!(kind, UbKind::UninitRead),
            RetakePointerAfterWrite => matches!(kind, UbKind::StackBorrowViolation),
            SingleMutBorrow => matches!(kind, UbKind::ConflictingMutBorrows),
            MoveReadAfterJoin => matches!(kind, UbKind::RaceOnStatic),
            ReplaceTailCallWithReturn => matches!(kind, UbKind::TailCallMismatch),
            CopyWithoutOverlap => matches!(kind, UbKind::Precondition),
            DeleteStatement | DuplicateStatement | PerturbLiteral | DisableStatement
            | StripUnsafe | BreakBinding | BreakTypes => false,
        }
    }

    /// Attempts to apply the rule, returning the transformed program when
    /// the rule's pattern matches. `err` is the diagnostic being repaired.
    #[must_use]
    pub fn apply(self, prog: &Program, err: &MiriError) -> Option<Program> {
        let mut out = prog.clone();
        self.apply_in_place(&mut out, err).then_some(out)
    }

    /// Applies the rule to `prog` in place, returning whether its pattern
    /// matched. On `false` the program is left equal to its input.
    pub fn apply_in_place(self, prog: &mut Program, err: &MiriError) -> bool {
        match self {
            RepairRule::UseDirectPointer => use_direct_pointer(prog, err).is_some(),
            RepairRule::BoolFromComparison => bool_from_comparison(prog).is_some(),
            RepairRule::TransmuteBytesToFromLe => bytes_to_from_le(prog).is_some(),
            RepairRule::BorrowLocalInstead => borrow_local_instead(prog).is_some(),
            RepairRule::DirectFnUse => direct_fn_use(prog).is_some(),
            RepairRule::FixFnPtrSignature => fix_fnptr_signature(prog).is_some(),
            RepairRule::UseAtomics => use_atomics(prog).is_some(),
            RepairRule::WidenArithmetic => widen_arithmetic(prog, err).is_some(),
            RepairRule::UseRawMutDirect => use_raw_mut_direct(prog).is_some(),
            RepairRule::GuardDivision => guard_division(prog, err).is_some(),
            RepairRule::GuardIndex => guard_index(prog, err).is_some(),
            RepairRule::WeakenAssert => weaken_assert(prog, err).is_some(),
            RepairRule::AssertNonNull => assert_non_null(prog, err).is_some(),
            RepairRule::LockSpawnBodies => lock_spawn_bodies(prog).is_some(),
            RepairRule::RemoveDoubleFree => remove_double_free(prog, err).is_some(),
            RepairRule::FixDeallocLayout => fix_dealloc_layout(prog, err).is_some(),
            RepairRule::AddDealloc => add_dealloc(prog).is_some(),
            RepairRule::HoistLocalOut => hoist_local_out(prog).is_some(),
            RepairRule::ReorderDeallocAfterUse => reorder_dealloc(prog, err).is_some(),
            RepairRule::AlignOffsetDown => align_offset(prog, err, false).is_some(),
            RepairRule::AlignOffsetUp => align_offset(prog, err, true).is_some(),
            RepairRule::InitializeBeforeRead => initialize_before_read(prog, err).is_some(),
            RepairRule::UnionUseLargestField => union_largest_field(prog).is_some(),
            RepairRule::RetakePointerAfterWrite => retake_pointer(prog, err).is_some(),
            RepairRule::SingleMutBorrow => single_mut_borrow(prog).is_some(),
            RepairRule::MoveReadAfterJoin => move_read_after_join(prog).is_some(),
            RepairRule::ReplaceTailCallWithReturn => tailcall_to_return(prog).is_some(),
            RepairRule::FixLiteralIndex => fix_literal_index(prog, err).is_some(),
            RepairRule::CopyWithoutOverlap => copy_without_overlap(prog).is_some(),
            RepairRule::DeleteStatement => delete_statement(prog, err).is_some(),
            RepairRule::DuplicateStatement => duplicate_statement(prog, err).is_some(),
            RepairRule::PerturbLiteral => perturb_literal(prog, err).is_some(),
            RepairRule::DisableStatement => disable_statement(prog, err).is_some(),
            RepairRule::StripUnsafe => strip_unsafe(prog).is_some(),
            RepairRule::BreakBinding => break_binding(prog).is_some(),
            RepairRule::BreakTypes => break_types(prog).is_some(),
        }
    }

    /// All non-hallucination rules that match the program/diagnostic.
    ///
    /// Every rule is probed on one scratch copy of the program. The copy
    /// is restored after a match, and after any refusal that left it
    /// changed, so the result always equals keeping the rules whose
    /// [`apply`](RepairRule::apply) returns `Some`.
    #[must_use]
    pub fn candidates(prog: &Program, err: &MiriError) -> Vec<RepairRule> {
        let mut scratch = prog.clone();
        let mut out = Vec::new();
        for rule in RepairRule::ALL {
            if rule.kind() == RuleKind::Hallucination {
                continue;
            }
            let matched = rule.apply_in_place(&mut scratch, err);
            if matched {
                out.push(rule);
            }
            if matched || scratch != *prog {
                scratch.clone_from(prog);
            }
        }
        out
    }
}

/// Applies *semantic drift*: the plausible-but-sloppy value change real
/// LLM patches often carry (an off-by-one constant, a tweaked initialiser).
/// The program usually still passes the oracle afterwards, but its
/// observable output no longer matches the gold reference — the mechanism
/// behind the paper's pass-vs-execution gap.
#[must_use]
pub fn apply_semantic_drift(prog: &Program) -> Option<Program> {
    let mut out = prog.clone();
    let done = std::cell::Cell::new(false);
    let bump = |e: &mut Expr| {
        if done.get() {
            return;
        }
        if let Expr::Lit(Lit::Int(v, t)) = e {
            if !matches!(t, IntTy::Usize) {
                *e = Expr::Lit(Lit::Int(t.wrap(*v + 1), *t));
                done.set(true);
            }
        }
    };
    // Perturb the first literal in a *value* position: printed values,
    // written values, union initialisers, atomic stores, plain-value lets.
    // Layout arguments (sizes, alignments, offsets) are left alone — models
    // drift on domain values, not on the mechanics they just repaired.
    rb_lang::visit::map_exprs(&mut out, &mut |e| match e {
        Expr::Builtin(BuiltinKind::PtrWrite | BuiltinKind::AtomicStore, _, args) => {
            if let Some(v) = args.get_mut(1) {
                bump(v);
            }
        }
        Expr::UnionLit(_, _, v) => bump(v),
        _ => {}
    });
    if !done.get() {
        for f in &mut out.funcs {
            for s in &mut f.body.stmts {
                if done.get() {
                    break;
                }
                match s {
                    Stmt::Print(e) => map_expr(e, &mut |x| bump(x)),
                    Stmt::Let {
                        init,
                        ty: Ty::Int(_) | Ty::Bool,
                        ..
                    } => bump(init),
                    Stmt::Assign { value, .. } => bump(value),
                    _ => {}
                }
            }
        }
    }
    done.get().then_some(out)
}

// ---- shared helpers ---------------------------------------------------------

fn main_body(prog: &mut Program) -> Option<&mut Block> {
    prog.funcs
        .iter_mut()
        .find(|f| f.name == "main")
        .map(|f| &mut f.body)
}

fn err_path(err: &MiriError) -> Option<&StmtPath> {
    err.path.as_ref()
}

/// Does the statement (recursively) contain an expression matching `pred`?
fn stmt_contains(s: &Stmt, pred: &mut dyn FnMut(&Expr) -> bool) -> bool {
    let mut found = false;
    deep_exprs(s, &mut |e| {
        walk_expr(e, &mut |x| {
            if pred(x) {
                found = true;
            }
        });
    });
    found
}

/// Visits the top-level expressions of a statement and of all statements in
/// nested blocks.
fn deep_exprs(s: &Stmt, f: &mut dyn FnMut(&Expr)) {
    for_each_expr_in_stmt(s, |e| f(e));
    match s {
        Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => {
            for inner in &b.stmts {
                deep_exprs(inner, f);
            }
        }
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            for inner in &then_blk.stmts {
                deep_exprs(inner, f);
            }
            if let Some(e) = else_blk {
                for inner in &e.stmts {
                    deep_exprs(inner, f);
                }
            }
        }
        Stmt::While { body, .. } => {
            for inner in &body.stmts {
                deep_exprs(inner, f);
            }
        }
        _ => {}
    }
}

/// Rewrites every expression in the statement at `path` (recursively).
fn rewrite_stmt_at(prog: &mut Program, path: &StmtPath, f: &mut dyn FnMut(&mut Expr)) -> bool {
    let Some((block, idx)) = containing_block_mut(prog, path) else {
        return false;
    };
    let Some(stmt) = block.stmts.get_mut(idx) else {
        return false;
    };
    map_exprs_in_stmt(stmt, &mut |e| f(e));
    true
}

fn int_lit(v: i64, t: IntTy) -> Expr {
    Expr::Lit(Lit::Int(i128::from(v), t))
}

/// Finds, program-wide, the pointer-variable name and layout arguments of
/// the first `alloc` call assigned to a variable.
fn find_alloc(prog: &Program) -> Option<(String, Expr, Expr)> {
    let mut found = None;
    for f in &prog.funcs {
        scan_block_for_alloc(&f.body, &mut found);
    }
    found
}

fn scan_block_for_alloc(b: &Block, found: &mut Option<(String, Expr, Expr)>) {
    for s in &b.stmts {
        if found.is_some() {
            return;
        }
        match s {
            Stmt::Let {
                name,
                init: Expr::Builtin(BuiltinKind::Alloc, _, args),
                ..
            }
            | Stmt::Assign {
                place: Expr::Var(name),
                value: Expr::Builtin(BuiltinKind::Alloc, _, args),
            } => {
                *found = Some((name.clone(), args[0].clone(), args[1].clone()));
            }
            Stmt::Unsafe(inner)
            | Stmt::Scope(inner)
            | Stmt::Spawn(inner)
            | Stmt::Lock(_, inner) => scan_block_for_alloc(inner, found),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                scan_block_for_alloc(then_blk, found);
                if let Some(e) = else_blk {
                    scan_block_for_alloc(e, found);
                }
            }
            Stmt::While { body, .. } => scan_block_for_alloc(body, found),
            _ => {}
        }
    }
}

// ---- safe replacement ---------------------------------------------------------

/// For provenance errors: a pointer variable was built from an integer
/// (`addr as *const T`, where `addr` came from `p as usize`, `ptr_addr(p)`
/// or `transmute(r)`). Rewire the laundered pointer's initialiser to borrow
/// directly from the original pointer/reference.
fn use_direct_pointer(prog: &mut Program, err: &MiriError) -> Option<()> {
    if !matches!(err.kind, UbKind::NoProvenance) {
        return None;
    }
    // Step 1: find `addr` definitions and their pointer origin.
    let mut origin: Option<(String, Expr)> = None; // (addr_var, original ptr expr)
    for_each_stmt(prog, |s, _| {
        if origin.is_some() {
            return;
        }
        if let Stmt::Let { name, init, .. } = s {
            match init {
                Expr::Cast(inner, Ty::Int(IntTy::Usize)) => {
                    origin = Some((name.clone(), (**inner).clone()));
                }
                Expr::Builtin(BuiltinKind::PtrAddr, _, args) => {
                    origin = Some((name.clone(), args[0].clone()));
                }
                Expr::Builtin(BuiltinKind::Transmute, tys, args)
                    if matches!(tys.first(), Some(Ty::Ref(..) | Ty::RawPtr(..)))
                        && matches!(tys.get(1), Some(Ty::Int(IntTy::Usize))) =>
                {
                    origin = Some((name.clone(), args[0].clone()));
                }
                _ => {}
            }
        }
    });
    let (addr_var, orig) = origin?;
    // Step 2: rewrite `<addr_var> as *const T` into `<orig> as *const T`.
    let mut changed = false;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::Cast(inner, Ty::RawPtr(..)) = e {
            if matches!(&**inner, Expr::Var(n) if *n == addr_var) {
                **inner = orig.clone();
                changed = true;
            }
        }
    });
    changed.then_some(())
}

/// `transmute::<u8, bool>(x)` → `x != 0u8`.
fn bool_from_comparison(prog: &mut Program) -> Option<()> {
    let mut changed = false;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::Builtin(BuiltinKind::Transmute, tys, args) = e {
            if tys.len() == 2 && tys[1] == Ty::Bool && tys[0] == Ty::Int(IntTy::U8) {
                *e = Expr::Binary(
                    BinOp::Ne,
                    Box::new(args[0].clone()),
                    Box::new(int_lit(0, IntTy::U8)),
                );
                changed = true;
            }
        }
    });
    changed.then_some(())
}

/// `transmute::<[u8; N], Int>(a)` (size-mismatched) →
/// `from_le_bytes::<uintN>(a) as Int`.
fn bytes_to_from_le(prog: &mut Program) -> Option<()> {
    let mut changed = false;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::Builtin(BuiltinKind::Transmute, tys, args) = e {
            let (Some(Ty::Array(elem, n)), Some(Ty::Int(target))) = (tys.first(), tys.get(1))
            else {
                return;
            };
            if **elem != Ty::Int(IntTy::U8) {
                return;
            }
            let narrow = match n {
                1 => IntTy::U8,
                2 => IntTy::U16,
                4 => IntTy::U32,
                8 => IntTy::U64,
                _ => return,
            };
            let inner = Expr::Builtin(
                BuiltinKind::FromLeBytes,
                vec![Ty::Int(narrow)],
                vec![args[0].clone()],
            );
            *e = if narrow == *target {
                inner
            } else {
                Expr::Cast(Box::new(inner), Ty::Int(*target))
            };
            changed = true;
        }
    });
    changed.then_some(())
}

/// `transmute::<usize, &T>(k)` → `&local` for some in-scope local of type T.
fn borrow_local_instead(prog: &mut Program) -> Option<()> {
    // Find a local of the target type declared in main before the transmute.
    let mut target: Option<(Ty, String)> = None;
    let main = prog.funcs.iter().find(|f| f.name == "main")?;
    let mut locals: Vec<(String, Ty)> = Vec::new();
    fn scan(b: &Block, locals: &mut Vec<(String, Ty)>, target: &mut Option<(Ty, String)>) {
        for s in &b.stmts {
            if let Stmt::Let { name, ty, .. } = s {
                locals.push((name.clone(), ty.clone()));
            }
            let mut hit: Option<Ty> = None;
            for_each_expr_in_stmt(s, |top| {
                walk_expr(top, &mut |e| {
                    if let Expr::Builtin(BuiltinKind::Transmute, tys, _) = e {
                        if let (Some(Ty::Int(IntTy::Usize)), Some(Ty::Ref(inner, _))) =
                            (tys.first(), tys.get(1))
                        {
                            hit = Some((**inner).clone());
                        }
                    }
                });
            });
            if let Some(want) = hit {
                if target.is_none() {
                    if let Some((n, _)) = locals.iter().find(|(_, t)| *t == want) {
                        *target = Some((want, n.clone()));
                    }
                }
            }
            match s {
                Stmt::Unsafe(i) | Stmt::Scope(i) | Stmt::Spawn(i) | Stmt::Lock(_, i) => {
                    scan(i, locals, target);
                }
                _ => {}
            }
        }
    }
    scan(&main.body, &mut locals, &mut target);
    let (_, local) = target?;
    let mut changed = false;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::Builtin(BuiltinKind::Transmute, tys, _) = e {
            if matches!(tys.first(), Some(Ty::Int(IntTy::Usize)))
                && matches!(tys.get(1), Some(Ty::Ref(..)))
            {
                *e = Expr::AddrOf(Mutability::Not, Box::new(Expr::Var(local.clone())));
                changed = true;
            }
        }
    });
    changed.then_some(())
}

/// `transmute::<usize, fn..>(addr)` → a real function with that signature.
fn direct_fn_use(prog: &mut Program) -> Option<()> {
    let mut fn_name: Option<String> = None;
    let mut want: Option<Ty> = None;
    for f in &prog.funcs {
        for s in &f.body.stmts {
            let mut w = None;
            deep_exprs(s, &mut |top| {
                walk_expr(top, &mut |e| {
                    if let Expr::Builtin(BuiltinKind::Transmute, tys, _) = e {
                        if matches!(tys.first(), Some(Ty::Int(IntTy::Usize)))
                            && matches!(tys.get(1), Some(Ty::FnPtr(..)))
                        {
                            w = Some(tys[1].clone());
                        }
                    }
                });
            });
            if w.is_some() {
                want = w;
            }
        }
    }
    let want = want?;
    for f in &prog.funcs {
        if f.name != "main" && f.fn_ptr_ty() == want {
            fn_name = Some(f.name.clone());
            break;
        }
    }
    let fn_name = fn_name?;
    let mut changed = false;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::Builtin(BuiltinKind::Transmute, tys, _) = e {
            if matches!(tys.first(), Some(Ty::Int(IntTy::Usize)))
                && matches!(tys.get(1), Some(Ty::FnPtr(..)))
            {
                *e = Expr::Var(fn_name.clone());
                changed = true;
            }
        }
    });
    changed.then_some(())
}

/// A fn pointer transmuted between signatures: re-type the binding to the
/// source signature and pad call sites with `1` literals.
fn fix_fnptr_signature(prog: &mut Program) -> Option<()> {
    // Find `let f: fn(..) = transmute::<fnA, fnB>(g)`.
    let mut hit: Option<(String, Ty, Expr, usize, usize)> = None;
    for_each_stmt(prog, |s, _| {
        if hit.is_some() {
            return;
        }
        if let Stmt::Let {
            name,
            init: Expr::Builtin(BuiltinKind::Transmute, tys, args),
            ..
        } = s
        {
            if let (Some(src @ Ty::FnPtr(sp, _)), Some(Ty::FnPtr(dp, _))) =
                (tys.first(), tys.get(1))
            {
                hit = Some((
                    name.clone(),
                    src.clone(),
                    args[0].clone(),
                    sp.len(),
                    dp.len(),
                ));
            }
        }
    });
    let (fname, src_ty, fn_expr, src_arity, _dst_arity) = hit?;
    let mut changed = false;
    // Rewrite the binding.
    for f in &mut prog.funcs {
        for s in &mut f.body.stmts {
            fix_binding(s, &fname, &src_ty, &fn_expr, &mut changed);
        }
    }
    // Pad call sites.
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::CallPtr(callee, args) = e {
            if matches!(&**callee, Expr::Var(n) if *n == fname) && args.len() < src_arity {
                while args.len() < src_arity {
                    args.push(int_lit(1, IntTy::I32));
                }
                changed = true;
            }
        }
    });
    changed.then_some(())
}

fn fix_binding(s: &mut Stmt, fname: &str, src_ty: &Ty, fn_expr: &Expr, changed: &mut bool) {
    match s {
        Stmt::Let { name, ty, init } if name == fname => {
            if matches!(init, Expr::Builtin(BuiltinKind::Transmute, ..)) {
                *ty = src_ty.clone();
                *init = fn_expr.clone();
                *changed = true;
            }
        }
        Stmt::Unsafe(b) | Stmt::Scope(b) | Stmt::Spawn(b) | Stmt::Lock(_, b) => {
            for inner in &mut b.stmts {
                fix_binding(inner, fname, src_ty, fn_expr, changed);
            }
        }
        Stmt::If {
            then_blk, else_blk, ..
        } => {
            for inner in &mut then_blk.stmts {
                fix_binding(inner, fname, src_ty, fn_expr, changed);
            }
            if let Some(e) = else_blk {
                for inner in &mut e.stmts {
                    fix_binding(inner, fname, src_ty, fn_expr, changed);
                }
            }
        }
        _ => {}
    }
}

/// Inside every `spawn` block, turn plain mutable-static accesses into
/// atomic operations.
fn use_atomics(prog: &mut Program) -> Option<()> {
    let statics: Vec<String> = prog
        .statics
        .iter()
        .filter(|s| s.mutable)
        .map(|s| s.name.clone())
        .collect();
    if statics.is_empty() {
        return None;
    }
    let mut changed = false;
    let main = main_body(prog)?;
    for s in &mut main.stmts {
        if let Stmt::Spawn(body) = s {
            atomicise_block(body, &statics, &mut changed);
        }
    }
    changed.then_some(())
}

fn atomicise_block(b: &mut Block, statics: &[String], changed: &mut bool) {
    let mut new_stmts = Vec::with_capacity(b.stmts.len());
    for mut s in std::mem::take(&mut b.stmts) {
        match s {
            Stmt::Assign {
                place: Expr::StaticRef(g),
                mut value,
            } if statics.contains(&g) => {
                map_expr(&mut value, &mut |e| {
                    if matches!(e, Expr::StaticRef(n) if *n == g) {
                        *e = Expr::Builtin(
                            BuiltinKind::AtomicLoad,
                            Vec::new(),
                            vec![Expr::StaticRef(g.clone())],
                        );
                    }
                });
                new_stmts.push(Stmt::Expr(Expr::Builtin(
                    BuiltinKind::AtomicStore,
                    Vec::new(),
                    vec![Expr::StaticRef(g.clone()), value],
                )));
                *changed = true;
            }
            Stmt::Unsafe(ref mut inner) => {
                atomicise_block(inner, statics, changed);
                // If the unsafe block now contains only safe atomic ops,
                // keep it anyway (harmless).
                new_stmts.push(s);
            }
            Stmt::Print(mut e) => {
                map_expr(&mut e, &mut |x| {
                    if let Expr::StaticRef(n) = x {
                        if statics.contains(n) {
                            *x = Expr::Builtin(
                                BuiltinKind::AtomicLoad,
                                Vec::new(),
                                vec![Expr::StaticRef(n.clone())],
                            );
                            *changed = true;
                        }
                    }
                });
                new_stmts.push(Stmt::Print(e));
            }
            other => new_stmts.push(other),
        }
    }
    b.stmts = new_stmts;
}

/// Replace overflowing i32 arithmetic (checked or `unchecked_*`) with
/// widened i64 arithmetic.
fn widen_arithmetic(prog: &mut Program, err: &MiriError) -> Option<()> {
    if !matches!(
        err.kind,
        UbKind::UncheckedOverflow
            | UbKind::PanicOverflow
            | UbKind::PanicAssert
            | UbKind::PanicDivZero
    ) {
        return None;
    }
    let path = err_path(err)?.clone();
    let applied = rewrite_stmt_at(prog, &path, &mut |e| match e {
        Expr::Builtin(
            b @ (BuiltinKind::UncheckedAdd | BuiltinKind::UncheckedSub | BuiltinKind::UncheckedMul),
            tys,
            args,
        ) if matches!(tys.first(), Some(Ty::Int(IntTy::I32))) => {
            let op = match b {
                BuiltinKind::UncheckedAdd => BinOp::Add,
                BuiltinKind::UncheckedSub => BinOp::Sub,
                _ => BinOp::Mul,
            };
            *e = Expr::Binary(
                op,
                Box::new(Expr::Cast(Box::new(args[0].clone()), Ty::Int(IntTy::I64))),
                Box::new(Expr::Cast(Box::new(args[1].clone()), Ty::Int(IntTy::I64))),
            );
        }
        Expr::Binary(op @ (BinOp::Add | BinOp::Sub | BinOp::Mul), a, b)
            if !matches!(**a, Expr::Cast(..)) =>
        {
            *e = Expr::Binary(
                *op,
                Box::new(Expr::Cast(a.clone(), Ty::Int(IntTy::I64))),
                Box::new(Expr::Cast(b.clone(), Ty::Int(IntTy::I64))),
            );
        }
        _ => {}
    });
    applied.then_some(())
}

/// `let r: &T = &x; let p = r as *mut T;` → `let p: *mut T = &raw mut x;`
fn use_raw_mut_direct(prog: &mut Program) -> Option<()> {
    // Find the shared-ref binding.
    let mut ref_bind: Option<(String, Expr)> = None;
    for_each_stmt(prog, |s, _| {
        if ref_bind.is_some() {
            return;
        }
        if let Stmt::Let {
            name,
            ty: Ty::Ref(_, Mutability::Not),
            init: Expr::AddrOf(Mutability::Not, target),
        } = s
        {
            ref_bind = Some((name.clone(), (**target).clone()));
        }
    });
    let (rname, target) = ref_bind?;
    let mut changed = false;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::Cast(inner, Ty::RawPtr(_, Mutability::Mut)) = e {
            if matches!(&**inner, Expr::Var(n) if *n == rname) {
                **inner = Expr::RawAddrOf(Mutability::Mut, Box::new(target.clone()));
                // Simplify `&raw mut x as *mut T` to just the raw addr-of.
                let Expr::Cast(inner2, _) = e else { return };
                *e = (**inner2).clone();
                changed = true;
            }
        }
    });
    changed.then_some(())
}

// ---- assertion / guarding -----------------------------------------------------

/// Wrap `print(a / b)` in `if b != 0 { .. } else { print(0); }`.
fn guard_division(prog: &mut Program, err: &MiriError) -> Option<()> {
    if err.kind != UbKind::PanicDivZero {
        return None;
    }
    let path = err_path(err)?.clone();
    let stmt = get_stmt(prog, &path).cloned()?;
    let mut divisor: Option<Expr> = None;
    let mut scan = stmt.clone();
    map_exprs_in_stmt(&mut scan, &mut |e| {
        if let Expr::Binary(BinOp::Div | BinOp::Rem, _, b) = e {
            divisor = Some((**b).clone());
        }
    });
    let divisor = divisor?;
    let guarded = Stmt::If {
        cond: Expr::Binary(BinOp::Ne, Box::new(divisor), Box::new(Expr::i32(0))),
        then_blk: Block::new(vec![stmt]),
        else_blk: Some(Block::new(vec![Stmt::Print(Expr::i32(0))])),
    };
    rb_lang::visit::replace_stmt(prog, &path, guarded).then_some(())
}

/// Wrap an indexing statement in a bounds guard (passes Miri, but skips the
/// operation — often semantically unacceptable, which is the point).
fn guard_index(prog: &mut Program, err: &MiriError) -> Option<()> {
    if err.kind != UbKind::PanicIndex {
        return None;
    }
    let path = err_path(err)?.clone();
    let stmt = get_stmt(prog, &path).cloned()?;
    let mut index_info: Option<(Expr, usize)> = None;
    let mut scan = stmt.clone();
    map_exprs_in_stmt(&mut scan, &mut |e| {
        if let Expr::Index(base, idx) = e {
            // Try to learn the array length from the base's declared type.
            let n = match &**base {
                Expr::Var(_) => None,
                _ => None,
            };
            index_info = Some(((**idx).clone(), n.unwrap_or(0)));
        }
    });
    let (idx, _) = index_info?;
    // Find the array length from a `let arr: [T; N]` in the same function.
    let mut len: usize = 0;
    for_each_stmt(prog, |s, _| {
        if let Stmt::Let {
            ty: Ty::Array(_, n),
            ..
        } = s
        {
            len = *n;
        }
    });
    if len == 0 {
        return None;
    }
    let guarded = Stmt::If {
        cond: Expr::Binary(BinOp::Lt, Box::new(idx), Box::new(Expr::i32(len as i32))),
        then_blk: Block::new(vec![stmt]),
        else_blk: Some(Block::new(vec![Stmt::Print(Expr::i32(0))])),
    };
    rb_lang::visit::replace_stmt(prog, &path, guarded).then_some(())
}

/// Replace a failing assertion's condition with `lhs >= 0`.
fn weaken_assert(prog: &mut Program, err: &MiriError) -> Option<()> {
    if err.kind != UbKind::PanicAssert {
        return None;
    }
    let path = err_path(err)?.clone();
    let stmt = rb_lang::visit::get_stmt_mut(prog, &path)?;
    if let Stmt::Assert { cond, msg } = stmt {
        if let Expr::Binary(_, lhs, _) = cond {
            *cond = Expr::Binary(BinOp::Ge, lhs.clone(), Box::new(Expr::i32(0)));
            *msg = "value negative".into();
            return Some(());
        }
    }
    None
}

/// Insert `assert(ptr_addr(p) != 0, ..)` before the faulting statement — a
/// plausible assertion that rarely fixes real UB (kept because real LLMs
/// propose it constantly).
fn assert_non_null(prog: &mut Program, err: &MiriError) -> Option<()> {
    let path = err_path(err)?.clone();
    let stmt = get_stmt(prog, &path)?;
    // Find a pointer variable used in the statement.
    let mut pvar: Option<String> = None;
    deep_exprs(stmt, &mut |top| {
        walk_expr(top, &mut |e| {
            if pvar.is_none() {
                if let Expr::Builtin(BuiltinKind::PtrRead | BuiltinKind::PtrWrite, _, args) = e {
                    let mut inner = args[0].clone();
                    map_expr(&mut inner, &mut |x| {
                        if let Expr::Var(n) = x {
                            pvar = Some(n.clone());
                        }
                    });
                }
            }
        });
    });
    let pvar = pvar?;
    let assert = Stmt::Unsafe(Block::new(vec![Stmt::Assert {
        cond: Expr::Binary(
            BinOp::Ne,
            Box::new(Expr::Builtin(
                BuiltinKind::PtrAddr,
                Vec::new(),
                vec![Expr::Var(pvar)],
            )),
            Box::new(Expr::int(0, IntTy::Usize)),
        ),
        msg: "null pointer".into(),
    }]));
    rb_lang::visit::insert_before(prog, &path, assert).then_some(())
}

/// Wrap every spawned body in `lock(1) { .. }`.
fn lock_spawn_bodies(prog: &mut Program) -> Option<()> {
    let mut changed = false;
    let main = main_body(prog)?;
    for s in &mut main.stmts {
        if let Stmt::Spawn(body) = s {
            if body.stmts.len() == 1 && matches!(body.stmts[0], Stmt::Lock(..)) {
                continue; // already locked
            }
            let inner = std::mem::take(body);
            body.stmts = vec![Stmt::Lock(1, inner)];
            changed = true;
        }
    }
    changed.then_some(())
}

// ---- semantic modification -----------------------------------------------------

fn stmt_deallocs_var(s: &Stmt, var: &mut Option<String>) -> bool {
    let mut yes = false;
    deep_exprs(s, &mut |top| {
        walk_expr(top, &mut |e| {
            if let Expr::Builtin(BuiltinKind::Dealloc, _, args) = e {
                yes = true;
                if let Expr::Var(n) = &args[0] {
                    *var = Some(n.clone());
                }
            }
        });
    });
    yes
}

/// Remove the duplicate `dealloc` statement the diagnostic points at.
fn remove_double_free(prog: &mut Program, err: &MiriError) -> Option<()> {
    if err.kind != UbKind::DoubleFree {
        return None;
    }
    let path = err_path(err)?.clone();
    let stmt = get_stmt(prog, &path)?;
    let mut var = None;
    if !stmt_deallocs_var(stmt, &mut var) {
        return None;
    }
    rb_lang::visit::remove_stmt(prog, &path).map(|_| ())
}

/// Fix a `dealloc`'s layout arguments from the matching `alloc`.
fn fix_dealloc_layout(prog: &mut Program, err: &MiriError) -> Option<()> {
    if err.kind != UbKind::BadDealloc {
        return None;
    }
    let (_, size, align) = find_alloc(prog)?;
    let path = err_path(err)?.clone();
    rewrite_stmt_at(prog, &path, &mut |e| {
        if let Expr::Builtin(BuiltinKind::Dealloc, _, args) = e {
            args[1] = size.clone();
            args[2] = align.clone();
        }
    })
    .then_some(())
}

/// Append `unsafe { dealloc(p, size, align); }` at the end of `main`.
fn add_dealloc(prog: &mut Program) -> Option<()> {
    let (var, size, align) = find_alloc(prog)?;
    // Refuse when a dealloc already exists somewhere.
    let mut already = false;
    for_each_stmt(prog, |s, _| {
        let mut v = None;
        if stmt_deallocs_var(s, &mut v) {
            already = true;
        }
    });
    if already {
        return None;
    }
    let main = main_body(prog)?;
    main.stmts
        .push(Stmt::Unsafe(Block::new(vec![Stmt::Expr(Expr::Builtin(
            BuiltinKind::Dealloc,
            Vec::new(),
            vec![Expr::Var(var), size, align],
        ))])));
    Some(())
}

/// Splice the first scope containing a raw-pointer escape into its parent.
fn hoist_local_out(prog: &mut Program) -> Option<()> {
    let main = main_body(prog)?;
    let mut idx = None;
    for (i, s) in main.stmts.iter().enumerate() {
        if let Stmt::Scope(body) = s {
            let escapes = body
                .stmts
                .iter()
                .any(|inner| stmt_contains(inner, &mut |e| matches!(e, Expr::RawAddrOf(..))));
            if escapes {
                idx = Some(i);
                break;
            }
        }
    }
    let i = idx?;
    let Stmt::Scope(body) = main.stmts.remove(i) else {
        return None;
    };
    for (k, inner) in body.stmts.into_iter().enumerate() {
        main.stmts.insert(i + k, inner);
    }
    Some(())
}

/// Move the premature `dealloc` statement to the end of `main`.
fn reorder_dealloc(prog: &mut Program, err: &MiriError) -> Option<()> {
    // Plausible whenever memory errors and a dealloc coexist; only actually
    // fixes use-after-free orderings.
    if !err.kind.is_ub() {
        return None;
    }
    let main = main_body(prog)?;
    let mut idx = None;
    for (i, s) in main.stmts.iter().enumerate() {
        let mut v = None;
        if stmt_deallocs_var(s, &mut v) {
            idx = Some(i);
            break;
        }
    }
    let i = idx?;
    if i + 1 >= main.stmts.len() {
        return None; // already last
    }
    let dealloc = main.stmts.remove(i);
    main.stmts.push(dealloc);
    Some(())
}

/// Snap a `ptr_offset` literal: `up == false` → 0; `up == true` → round up
/// to 4 (the common read alignment).
fn align_offset(prog: &mut Program, err: &MiriError, up: bool) -> Option<()> {
    if !matches!(
        err.kind,
        UbKind::OutOfBounds
            | UbKind::UnalignedAccess
            | UbKind::UseAfterFree
            | UbKind::UninitRead
            | UbKind::CrossAllocation
    ) {
        return None;
    }
    let path = err_path(err)?.clone();
    let mut changed = false;
    rewrite_stmt_at(prog, &path, &mut |e| {
        if let Expr::Builtin(BuiltinKind::PtrOffset, _, args) = e {
            if let Expr::Lit(Lit::Int(v, t)) = &args[1] {
                let new = if up {
                    ((*v as i64 + 3) / 4 * 4).max(4)
                } else {
                    0
                };
                if new != *v as i64 {
                    args[1] = int_lit(new, *t);
                    changed = true;
                }
            }
        }
    });
    changed.then_some(())
}

/// Move the initialising `ptr_write` before the faulting read.
fn initialize_before_read(prog: &mut Program, err: &MiriError) -> Option<()> {
    if !matches!(
        err.kind,
        UbKind::UninitRead
            | UbKind::Precondition
            | UbKind::UseAfterFree
            | UbKind::UseAfterScope
            | UbKind::InvalidValue
    ) {
        return None;
    }
    let read_idx = err_path(err)?.steps.first()?.0;
    let main = main_body(prog)?;
    // Find a later statement containing ptr_write to move before the read.
    let mut write_idx = None;
    for (i, s) in main.stmts.iter().enumerate().skip(read_idx + 1) {
        let mut has_write = false;
        deep_exprs(s, &mut |top| {
            walk_expr(top, &mut |e| {
                if matches!(e, Expr::Builtin(BuiltinKind::PtrWrite, ..)) {
                    has_write = true;
                }
            });
        });
        if has_write {
            write_idx = Some(i);
            break;
        }
    }
    let wi = write_idx?;
    // If the write statement also deallocs, split would be wrong; only move
    // a pure-write unsafe block, else extract the write.
    let stmt = main.stmts.remove(wi);
    match stmt {
        Stmt::Unsafe(mut body) => {
            let mut writes = Vec::new();
            let mut rest = Vec::new();
            for s in std::mem::take(&mut body.stmts) {
                let mut has_write = false;
                deep_exprs(&s, &mut |top| {
                    walk_expr(top, &mut |e| {
                        if matches!(e, Expr::Builtin(BuiltinKind::PtrWrite, ..)) {
                            has_write = true;
                        }
                    });
                });
                if has_write {
                    writes.push(s);
                } else {
                    rest.push(s);
                }
            }
            if !rest.is_empty() {
                main.stmts.insert(wi, Stmt::Unsafe(Block::new(rest)));
            }
            main.stmts
                .insert(read_idx, Stmt::Unsafe(Block::new(writes)));
            Some(())
        }
        other => {
            main.stmts.insert(read_idx, other);
            Some(())
        }
    }
}

/// Rewrite `U { small: v u8 }` so the field actually read is initialised.
fn union_largest_field(prog: &mut Program) -> Option<()> {
    // Which field is read?
    let mut read_field: Option<String> = None;
    for_each_stmt(prog, |s, _| {
        for_each_expr_in_stmt(s, |top| {
            walk_expr(top, &mut |e| {
                if let Expr::UnionField(_, f) = e {
                    read_field = Some(f.clone());
                }
            });
        });
    });
    let field = read_field?;
    // The union's field type, for the literal re-typing.
    let unions = prog.unions.clone();
    let mut changed = false;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::UnionLit(u, f, v) = e {
            if *f != field {
                if let Some(def) = unions.iter().find(|d| d.name == *u) {
                    if let Some((_, fty)) = def.fields.iter().find(|(n, _)| *n == field) {
                        if let (Expr::Lit(Lit::Int(val, _)), Ty::Int(t)) = (&**v, fty) {
                            *e = Expr::UnionLit(
                                u.clone(),
                                field.clone(),
                                Box::new(Expr::Lit(Lit::Int(*val, *t))),
                            );
                            changed = true;
                        }
                    }
                }
            }
        }
    });
    changed.then_some(())
}

/// Inside the faulting block, move a raw-pointer `let` after the write that
/// invalidates it.
fn retake_pointer(prog: &mut Program, err: &MiriError) -> Option<()> {
    if !matches!(err.kind, UbKind::StackBorrowViolation) {
        return None;
    }
    let path = err_path(err)?.clone();
    let Some(Stmt::Unsafe(body)) = rb_lang::visit::get_stmt_mut(prog, &path) else {
        return None;
    };
    // Pattern: [.., let p = &raw _ / &_, assign to var, ..] -> swap, so the
    // pointer/reference is taken *after* the conflicting write.
    let mut let_idx = None;
    for (i, s) in body.stmts.iter().enumerate() {
        if let Stmt::Let {
            init: Expr::RawAddrOf(..) | Expr::AddrOf(..),
            ..
        } = s
        {
            if matches!(body.stmts.get(i + 1), Some(Stmt::Assign { .. })) {
                let_idx = Some(i);
                break;
            }
        }
    }
    let i = let_idx?;
    body.stmts.swap(i, i + 1);
    Some(())
}

/// Remove the second of two `&mut` reborrows and redirect its uses.
fn single_mut_borrow(prog: &mut Program) -> Option<()> {
    // Find two let-bindings of `&mut same-var`.
    let mut first: Option<(String, String)> = None; // (name, target)
    let mut second: Option<(String, StmtPath)> = None;
    for_each_stmt(prog, |s, p| {
        if let Stmt::Let {
            name,
            init: Expr::AddrOf(Mutability::Mut, t),
            ..
        } = s
        {
            if let Expr::Var(target) = &**t {
                match &first {
                    None => first = Some((name.clone(), target.clone())),
                    Some((_, ft)) if ft == target && second.is_none() => {
                        second = Some((name.clone(), p.clone()));
                    }
                    _ => {}
                }
            }
        }
    });
    let (first_name, _) = first?;
    let (second_name, second_path) = second?;
    rb_lang::visit::remove_stmt(prog, &second_path)?;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if matches!(e, Expr::Var(n) if *n == second_name) {
            *e = Expr::Var(first_name.clone());
        }
    });
    Some(())
}

/// Move a main-thread statement that races with spawned threads after the
/// `join`.
fn move_read_after_join(prog: &mut Program) -> Option<()> {
    let main = main_body(prog)?;
    let join_idx = main.stmts.iter().position(|s| matches!(s, Stmt::JoinAll))?;
    // A statement between the first spawn and the join that touches a static.
    let spawn_idx = main
        .stmts
        .iter()
        .position(|s| matches!(s, Stmt::Spawn(_)))?;
    let mut victim = None;
    for (i, s) in main
        .stmts
        .iter()
        .enumerate()
        .take(join_idx)
        .skip(spawn_idx + 1)
    {
        if matches!(s, Stmt::Spawn(_)) {
            continue;
        }
        if stmt_contains(s, &mut |e| matches!(e, Expr::StaticRef(_))) {
            victim = Some(i);
            break;
        }
    }
    let i = victim?;
    let stmt = main.stmts.remove(i);
    // join_idx shifted left by one.
    main.stmts.insert(join_idx, stmt);
    Some(())
}

/// Turn `tailcall f(args)` into a plain call (+ return of the first param
/// when the callee returns unit but the caller does not).
fn tailcall_to_return(prog: &mut Program) -> Option<()> {
    let mut target: Option<(StmtPath, String, Vec<Expr>)> = None;
    for_each_stmt(prog, |s, p| {
        if target.is_none() {
            if let Stmt::TailCall(name, args) = s {
                target = Some((p.clone(), name.clone(), args.clone()));
            }
        }
    });
    let (path, name, args) = target?;
    let callee_ret = prog.func(&name)?.ret.clone();
    let caller = prog.funcs.get(path.func)?;
    let caller_ret = caller.ret.clone();
    let first_param = caller.params.first().map(|(n, _)| n.clone());
    if callee_ret == caller_ret {
        rb_lang::visit::replace_stmt(prog, &path, Stmt::Return(Some(Expr::Call(name, args))))
            .then_some(())
    } else if callee_ret == Ty::Unit {
        let ret_val = first_param.map_or(Expr::i32(0), Expr::var0);
        let ok1 = rb_lang::visit::replace_stmt(prog, &path, Stmt::Expr(Expr::Call(name, args)));
        let ok2 = rb_lang::visit::insert_after(prog, &path, Stmt::Return(Some(ret_val)));
        (ok1 && ok2).then_some(())
    } else {
        None
    }
}

trait VarExt {
    fn var0(name: String) -> Expr;
}
impl VarExt for Expr {
    fn var0(name: String) -> Expr {
        Expr::Var(name)
    }
}

/// Fix an out-of-bounds index literal to `len - 1`.
fn fix_literal_index(prog: &mut Program, err: &MiriError) -> Option<()> {
    if err.kind != UbKind::PanicIndex {
        return None;
    }
    // Array length from any `let arr: [T; N]`.
    let mut len = 0usize;
    for_each_stmt(prog, |s, _| {
        if let Stmt::Let {
            ty: Ty::Array(_, n),
            ..
        } = s
        {
            len = *n;
        }
    });
    if len == 0 {
        return None;
    }
    // Fix the literal in the index-variable definition.
    let mut changed = false;
    for f in &mut prog.funcs {
        for s in &mut f.body.stmts {
            if let Stmt::Let {
                name,
                init: Expr::Lit(Lit::Int(v, t)),
                ..
            } = s
            {
                if (name.contains("idx") || name.contains("i")) && *v >= len as i128 {
                    *s = Stmt::Let {
                        name: name.clone(),
                        ty: Ty::Int(*t),
                        init: int_lit(len as i64 - 1, *t),
                    };
                    changed = true;
                }
            }
        }
    }
    changed.then_some(())
}

/// Push the `copy_nonoverlapping` destination past the source range.
fn copy_without_overlap(prog: &mut Program) -> Option<()> {
    let mut changed = false;
    rb_lang::visit::map_exprs(prog, &mut |e| {
        if let Expr::Builtin(BuiltinKind::CopyNonoverlapping, _, args) = e {
            let count = match &args[2] {
                Expr::Lit(Lit::Int(n, _)) => *n as i64,
                _ => return,
            };
            if let Expr::Builtin(BuiltinKind::PtrOffset, _, off_args) = &mut args[1] {
                if let Expr::Lit(Lit::Int(v, t)) = &off_args[1] {
                    if (*v as i64) < count {
                        off_args[1] = int_lit(count, *t);
                        changed = true;
                    }
                }
            }
        }
    });
    changed.then_some(())
}

// ---- hallucination -------------------------------------------------------------

fn delete_statement(prog: &mut Program, err: &MiriError) -> Option<()> {
    let path = err_path(err)?.clone();
    rb_lang::visit::remove_stmt(prog, &path).map(|_| ())
}

fn duplicate_statement(prog: &mut Program, err: &MiriError) -> Option<()> {
    let path = err_path(err)?.clone();
    let stmt = get_stmt(prog, &path).cloned()?;
    rb_lang::visit::insert_after(prog, &path, stmt).then_some(())
}

fn perturb_literal(prog: &mut Program, err: &MiriError) -> Option<()> {
    let path = err_path(err)?.clone();
    let mut done = false;
    rewrite_stmt_at(prog, &path, &mut |e| {
        if done {
            return;
        }
        if let Expr::Lit(Lit::Int(v, t)) = e {
            *e = Expr::Lit(Lit::Int(t.wrap(*v + 1), *t));
            done = true;
        }
    });
    done.then_some(())
}

/// Unwrap the first `unsafe` block in `main`, exposing unsafe operations
/// in a safe context — the classic non-compiling LLM patch.
fn strip_unsafe(prog: &mut Program) -> Option<()> {
    let main = main_body(prog)?;
    let idx = main
        .stmts
        .iter()
        .position(|s| matches!(s, Stmt::Unsafe(_)))?;
    // Refuse before removing anything: a failed rule leaves the program as is.
    if matches!(&main.stmts[idx], Stmt::Unsafe(b) if b.stmts.is_empty()) {
        return None;
    }
    let Stmt::Unsafe(body) = main.stmts.remove(idx) else {
        return None;
    };
    for (k, inner) in body.stmts.into_iter().enumerate() {
        main.stmts.insert(idx + k, inner);
    }
    Some(())
}

/// Rename the first let binding in `main` at its definition only, leaving
/// its uses dangling.
fn break_binding(prog: &mut Program) -> Option<()> {
    let main = main_body(prog)?;
    for s in &mut main.stmts {
        if let Stmt::Let { name, .. } = s {
            name.push_str("_renamed");
            return Some(());
        }
    }
    None
}

/// Flip the declared type of the first integer let in `main`.
fn break_types(prog: &mut Program) -> Option<()> {
    let main = main_body(prog)?;
    for s in &mut main.stmts {
        if let Stmt::Let { ty, .. } = s {
            if matches!(ty, Ty::Int(IntTy::I32)) {
                *ty = Ty::Bool;
                return Some(());
            }
        }
    }
    None
}

fn disable_statement(prog: &mut Program, err: &MiriError) -> Option<()> {
    let path = err_path(err)?.clone();
    let stmt = get_stmt(prog, &path).cloned()?;
    let disabled = Stmt::If {
        cond: Expr::Lit(Lit::Bool(false)),
        then_blk: Block::new(vec![stmt]),
        else_blk: None,
    };
    rb_lang::visit::replace_stmt(prog, &path, disabled).then_some(())
}

// Small helper used by several rules above; kept at the bottom to avoid
// cluttering the rule bodies.
#[allow(dead_code)]
fn err_ref(err: &MiriError) -> &MiriError {
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_miri::run_program;

    fn first_error(prog: &Program) -> MiriError {
        run_program(prog)
            .errors
            .first()
            .cloned()
            .expect("buggy program must fail")
    }

    fn parse(src: &str) -> Program {
        rb_lang::parser::parse_program(src).unwrap()
    }

    #[test]
    fn rule_kinds_partition() {
        for r in RepairRule::ALL {
            let _ = r.kind();
            assert!(!r.name().is_empty());
        }
        for h in RepairRule::HALLUCINATIONS {
            assert_eq!(h.kind(), RuleKind::Hallucination);
        }
    }

    #[test]
    fn remove_double_free_fixes() {
        let p = parse(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        );
        let err = first_error(&p);
        assert_eq!(err.kind, UbKind::DoubleFree);
        let fixed = RepairRule::RemoveDoubleFree
            .apply(&p, &err)
            .expect("applies");
        assert!(
            run_program(&fixed).passes(),
            "{:?}",
            run_program(&fixed).errors
        );
    }

    #[test]
    fn bool_from_comparison_fixes() {
        let p = parse(
            "fn main() { let x: u8 = 5u8; \
             unsafe { let flag: bool = transmute::<u8, bool>(x); print(flag); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::BoolFromComparison
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["true"]);
    }

    #[test]
    fn from_le_bytes_fixes() {
        let p = parse(
            "fn main() { let n1: [u8; 2] = [23u8, 7u8]; \
             unsafe { let n2: u32 = transmute::<[u8; 2], u32>(n1); print(n2); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::TransmuteBytesToFromLe
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec![format!("{}", 23 + 7 * 256)]);
    }

    #[test]
    fn use_direct_pointer_fixes_provenance() {
        let p = parse(
            "fn main() { let val: i32 = 9; let p: *const i32 = &raw const val; \
             let addr: usize = p as usize; \
             let q: *const i32 = addr as *const i32; \
             unsafe { print(*q); } }",
        );
        let err = first_error(&p);
        assert_eq!(err.kind, UbKind::NoProvenance);
        let fixed = RepairRule::UseDirectPointer
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["9"]);
    }

    #[test]
    fn lock_spawn_bodies_fixes_race() {
        let p = parse(
            "static mut G: i32 = 0; fn main() { \
             spawn { unsafe { G = 1; } } spawn { unsafe { G = 2; } } \
             join; unsafe { print(G); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::LockSpawnBodies
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
    }

    #[test]
    fn use_atomics_fixes_increment_race() {
        let p = parse(
            "static mut C: i32 = 0; fn main() { \
             spawn { unsafe { C = C + 1; } } spawn { unsafe { C = C + 1; } } \
             join; unsafe { print(C); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::UseAtomics.apply(&p, &err).expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["2"]);
    }

    #[test]
    fn hoist_local_out_fixes_dangling() {
        let p = parse(
            "fn main() { let q: *const i32 = 0 as *const i32; \
             { let x: i32 = 5; q = &raw const x; } \
             unsafe { print(*q); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::HoistLocalOut.apply(&p, &err).expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["5"]);
    }

    #[test]
    fn reorder_dealloc_fixes_uaf() {
        let p = parse(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 7i32); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } }",
        );
        let err = first_error(&p);
        assert_eq!(err.kind, UbKind::UseAfterFree);
        let fixed = RepairRule::ReorderDeallocAfterUse
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["7"]);
    }

    #[test]
    fn widen_arithmetic_fixes_overflow() {
        let p = parse(
            "fn main() { let x: i32 = 2147483647; let d: i32 = 5; \
             unsafe { print(unchecked_add::<i32>(x, d)); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::WidenArithmetic
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["2147483652"]);
    }

    #[test]
    fn guard_division_fixes_panic() {
        let p = parse("fn main() { let d: i32 = 0; let n: i32 = 8; print(n / d); }");
        let err = first_error(&p);
        let fixed = RepairRule::GuardDivision.apply(&p, &err).expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["0"]);
    }

    #[test]
    fn single_mut_borrow_fixes_bothborrow() {
        let p = parse(
            "fn main() { let v: i32 = 1; unsafe { \
             let first: &mut i32 = &mut v; \
             let second: &mut i32 = &mut v; \
             *second = 9; print(*first); } }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::SingleMutBorrow
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["9"]);
    }

    #[test]
    fn tailcall_to_return_fixes() {
        let p = parse(
            "fn helper(x: i32, y: i32) -> i32 { return x + y; } \
             fn runner(x: i32) -> i32 { tailcall helper(x, 4); } \
             fn main() { print(runner(3)); }",
        );
        let err = first_error(&p);
        let fixed = RepairRule::ReplaceTailCallWithReturn
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&fixed);
        assert!(r.passes(), "{:?}", r.errors);
        assert_eq!(r.outputs, vec!["7"]);
    }

    #[test]
    fn hallucinations_apply_but_rarely_fix() {
        let p = parse("fn main() { let d: i32 = 0; let n: i32 = 8; print(n / d); }");
        let err = first_error(&p);
        // Deleting the faulting statement "fixes" Miri but changes meaning.
        let deleted = RepairRule::DeleteStatement
            .apply(&p, &err)
            .expect("applies");
        let r = run_program(&deleted);
        assert!(r.passes());
        assert!(r.outputs.is_empty()); // outputs lost: semantically bad
    }

    #[test]
    fn strip_unsafe_refusal_leaves_the_program_unchanged() {
        let p = parse("fn main() { let d: i32 = 0; unsafe { } print(8 / d); }");
        let err = first_error(&p);
        let mut edited = p.clone();
        assert!(!RepairRule::StripUnsafe.apply_in_place(&mut edited, &err));
        assert_eq!(edited, p);
    }

    #[test]
    fn candidates_nonempty_for_common_errors() {
        let p = parse(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        );
        let err = first_error(&p);
        let cands = RepairRule::candidates(&p, &err);
        assert!(cands.contains(&RepairRule::RemoveDoubleFree), "{cands:?}");
    }
}
