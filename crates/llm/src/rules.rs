//! The repair-rule library: concrete AST transformations a competent Rust
//! developer (or a well-prompted LLM) would apply for each family of UB.
//!
//! Rules are grouped into the paper's three repair categories (Principle 2):
//! *safe replacement*, *assertion/guarding*, and *semantic modification* —
//! plus a fourth group of *hallucination* edits modelling plausible-looking
//! but wrong patches that weak models emit.
//!
//! A rule is a matcher plus an edit. The matcher
//! ([`RepairRule::matches`]) reads the program and the primary oracle
//! diagnostic and decides, without copying or editing anything, whether
//! the rule applies; it may hand what it found (a path, a binding name) to
//! the edit. The edit ([`RepairRule::apply_in_place`]) then rewrites the
//! program and cannot refuse. Whether the result actually passes the
//! oracle (and preserves semantics) is decided later by re-running the
//! oracle — rules are proposals, not guarantees, exactly as LLM patches
//! are.

use rb_lang::ast::{
    BinOp, Block, BuiltinKind, Expr, IntTy, Lit, Mutability, Program, StaticDef, Stmt, StmtPath,
    Ty, UnionDef,
};
use rb_lang::visit::{
    child_block, child_block_mut, child_branches, find_expr, find_expr_in_stmt, find_stmt,
    get_stmt, get_stmt_mut, map_expr, map_exprs, map_exprs_in_stmt,
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

    /// Whether the rule applies to `prog` for the diagnostic `err` being
    /// repaired. This is the rule's matcher: it reads the borrowed program,
    /// copies and edits nothing, and stops at the first site that decides.
    #[must_use]
    pub fn matches(self, prog: &Program, err: &MiriError) -> bool {
        use RepairRule::*;
        match self {
            UseDirectPointer => laundered_pointer(prog, err).is_some(),
            BoolFromComparison => bool_transmute(prog),
            TransmuteBytesToFromLe => bytes_transmute(prog),
            BorrowLocalInstead => forged_ref_local(prog).is_some(),
            DirectFnUse => forged_fn_target(prog).is_some(),
            FixFnPtrSignature => fnptr_transmute(prog).is_some(),
            UseAtomics => racy_static_access(prog),
            WidenArithmetic => overflow_site(prog, err).is_some(),
            UseRawMutDirect => shared_ref_cast(prog).is_some(),
            GuardDivision => division_site(prog, err).is_some(),
            GuardIndex => index_site(prog, err).is_some(),
            WeakenAssert => failing_assert(prog, err).is_some(),
            AssertNonNull => pointer_use(prog, err).is_some(),
            LockSpawnBodies => unlocked_spawn(prog),
            RemoveDoubleFree => second_free(prog, err).is_some(),
            FixDeallocLayout => bad_dealloc(prog, err).is_some(),
            AddDealloc => leaked_alloc(prog).is_some(),
            HoistLocalOut => escaping_scope(prog).is_some(),
            ReorderDeallocAfterUse => premature_dealloc(prog, err).is_some(),
            AlignOffsetDown => offset_site(prog, err, false).is_some(),
            AlignOffsetUp => offset_site(prog, err, true).is_some(),
            InitializeBeforeRead => late_write(prog, err).is_some(),
            UnionUseLargestField => union_read(prog).is_some(),
            RetakePointerAfterWrite => stale_pointer(prog, err).is_some(),
            SingleMutBorrow => double_mut_borrow(prog).is_some(),
            MoveReadAfterJoin => racing_read(prog).is_some(),
            ReplaceTailCallWithReturn => mismatched_tailcall(prog).is_some(),
            FixLiteralIndex => oob_index_literal(prog, err).is_some(),
            CopyWithoutOverlap => overlapping_copy(prog),
            DeleteStatement | DuplicateStatement | DisableStatement => {
                faulting_stmt(prog, err).is_some()
            }
            PerturbLiteral => literal_site(prog, err).is_some(),
            StripUnsafe => unsafe_block(prog).is_some(),
            BreakBinding => first_let(prog).is_some(),
            BreakTypes => first_i32_let(prog).is_some(),
        }
    }

    /// Applies the rule, returning the transformed program when it
    /// [`matches`](RepairRule::matches). `err` is the diagnostic being
    /// repaired.
    #[must_use]
    pub fn apply(self, prog: &Program, err: &MiriError) -> Option<Program> {
        let mut out = prog.clone();
        self.apply_in_place(&mut out, err).then_some(out)
    }

    /// Applies the rule to `prog` in place and returns whether it
    /// [`matches`](RepairRule::matches): the matcher runs first and hands
    /// what it found to an edit that cannot refuse. On `false` the program
    /// is untouched.
    pub fn apply_in_place(self, prog: &mut Program, err: &MiriError) -> bool {
        use RepairRule::*;
        match self {
            UseDirectPointer => {
                let hit = laundered_pointer(prog, err).map(|(v, o)| (v.to_owned(), o.clone()));
                edit(hit, prog, use_direct_pointer)
            }
            BoolFromComparison => edit_if(bool_transmute(prog), prog, bool_from_comparison),
            TransmuteBytesToFromLe => edit_if(bytes_transmute(prog), prog, bytes_to_from_le),
            BorrowLocalInstead => {
                let hit = forged_ref_local(prog).map(str::to_owned);
                edit(hit, prog, borrow_local_instead)
            }
            DirectFnUse => {
                let hit = forged_fn_target(prog).map(str::to_owned);
                edit(hit, prog, direct_fn_use)
            }
            FixFnPtrSignature => {
                let hit = fnptr_transmute(prog)
                    .map(|(n, ty, g, arity)| (n.to_owned(), ty.clone(), g.clone(), arity));
                edit(hit, prog, fix_fnptr_signature)
            }
            UseAtomics => edit_if(racy_static_access(prog), prog, use_atomics),
            WidenArithmetic => edit(overflow_site(prog, err), prog, widen_arithmetic),
            UseRawMutDirect => {
                let hit = shared_ref_cast(prog).map(|(r, t)| (r.to_owned(), t.clone()));
                edit(hit, prog, use_raw_mut_direct)
            }
            GuardDivision => edit(division_site(prog, err), prog, guard_division),
            GuardIndex => edit(index_site(prog, err), prog, guard_index),
            WeakenAssert => edit(failing_assert(prog, err), prog, weaken_assert),
            AssertNonNull => {
                let hit = pointer_use(prog, err).map(|(path, p)| (path, p.to_owned()));
                edit(hit, prog, assert_non_null)
            }
            LockSpawnBodies => edit_if(unlocked_spawn(prog), prog, lock_spawn_bodies),
            RemoveDoubleFree => edit(second_free(prog, err), prog, delete_statement),
            FixDeallocLayout => {
                let hit = bad_dealloc(prog, err).map(|(path, s, a)| (path, s.clone(), a.clone()));
                edit(hit, prog, fix_dealloc_layout)
            }
            AddDealloc => {
                let hit = leaked_alloc(prog).map(|(p, s, a)| (p.to_owned(), s.clone(), a.clone()));
                edit(hit, prog, add_dealloc)
            }
            HoistLocalOut => edit(escaping_scope(prog), prog, hoist_local_out),
            ReorderDeallocAfterUse => edit(premature_dealloc(prog, err), prog, reorder_dealloc),
            AlignOffsetDown => {
                let hit = offset_site(prog, err, false);
                edit(hit, prog, |p, path| align_offset(p, path, false))
            }
            AlignOffsetUp => {
                let hit = offset_site(prog, err, true);
                edit(hit, prog, |p, path| align_offset(p, path, true))
            }
            InitializeBeforeRead => edit(late_write(prog, err), prog, initialize_before_read),
            UnionUseLargestField => {
                let hit = union_read(prog).map(str::to_owned);
                edit(hit, prog, union_largest_field)
            }
            RetakePointerAfterWrite => edit(stale_pointer(prog, err), prog, retake_pointer),
            SingleMutBorrow => {
                let hit = double_mut_borrow(prog)
                    .map(|(first, second, at)| (first.to_owned(), second.to_owned(), at));
                edit(hit, prog, single_mut_borrow)
            }
            MoveReadAfterJoin => edit(racing_read(prog), prog, move_read_after_join),
            ReplaceTailCallWithReturn => {
                let hit = mismatched_tailcall(prog)
                    .map(|(at, name, args, ret)| (at, name.to_owned(), args.to_vec(), ret));
                edit(hit, prog, tailcall_to_return)
            }
            FixLiteralIndex => edit(oob_index_literal(prog, err), prog, fix_literal_index),
            CopyWithoutOverlap => edit_if(overlapping_copy(prog), prog, copy_without_overlap),
            DeleteStatement => {
                let hit = faulting_stmt(prog, err).map(|(path, _)| path);
                edit(hit, prog, delete_statement)
            }
            DuplicateStatement => {
                let hit = faulting_stmt(prog, err).map(|(path, s)| (path, s.clone()));
                edit(hit, prog, duplicate_statement)
            }
            PerturbLiteral => edit(literal_site(prog, err), prog, perturb_literal),
            DisableStatement => {
                let hit = faulting_stmt(prog, err).map(|(path, _)| path);
                edit(hit, prog, disable_statement)
            }
            StripUnsafe => edit(unsafe_block(prog), prog, strip_unsafe),
            BreakBinding => edit(first_let(prog), prog, break_binding),
            BreakTypes => edit(first_i32_let(prog), prog, break_types),
        }
    }

    /// All non-hallucination rules that match the program/diagnostic.
    #[must_use]
    pub fn candidates(prog: &Program, err: &MiriError) -> Vec<RepairRule> {
        RepairRule::ALL
            .into_iter()
            .filter(|r| r.kind() != RuleKind::Hallucination && r.matches(prog, err))
            .collect()
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
    drift_in_place(&mut out).then_some(out)
}

/// [`apply_semantic_drift`] on `prog` itself: returns whether a value was
/// perturbed. On `false` the program is untouched.
pub fn drift_in_place(out: &mut Program) -> bool {
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
    map_exprs(out, &mut |e| match e {
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
    done.get()
}

// ---- shared helpers ---------------------------------------------------------

/// What an edit asserts: its rule's matcher found the site it edits.
const MATCHED: &str = "the rule's matcher found this site";

/// Runs `f` on what a matcher found; `false` when it found nothing.
fn edit<H>(hit: Option<H>, prog: &mut Program, f: impl FnOnce(&mut Program, H)) -> bool {
    hit.map(|h| f(prog, h)).is_some()
}

/// [`edit`] for a matcher that only answers yes or no.
fn edit_if(found: bool, prog: &mut Program, f: fn(&mut Program)) -> bool {
    edit(found.then_some(()), prog, |p, ()| f(p))
}

/// The top-level statements of `main`; none when there is no `main`.
fn main_stmts(prog: &Program) -> &[Stmt] {
    prog.func("main").map_or(&[], |f| &f.body.stmts)
}

fn main_body(prog: &mut Program) -> &mut Block {
    &mut prog
        .funcs
        .iter_mut()
        .find(|f| f.name == "main")
        .expect(MATCHED)
        .body
}

/// The statement the diagnostic points at, with its path.
fn faulting_stmt<'p, 'e>(
    prog: &'p Program,
    err: &'e MiriError,
) -> Option<(&'e StmtPath, &'p Stmt)> {
    let path = err.path.as_ref()?;
    Some((path, get_stmt(prog, path)?))
}

fn faulting_stmt_mut<'p>(prog: &'p mut Program, path: &StmtPath) -> &'p mut Stmt {
    get_stmt_mut(prog, path).expect(MATCHED)
}

/// Searches the expressions of a statement and of every statement nested
/// in it, in pre-order.
fn find_in_stmt<'p, T>(s: &'p Stmt, f: &mut impl FnMut(&'p Expr) -> Option<T>) -> Option<T> {
    find_expr_in_stmt(s, &mut *f).or_else(|| {
        (0..child_branches(s))
            .filter_map(|br| child_block(s, br))
            .flat_map(|b| &b.stmts)
            .find_map(|inner| find_in_stmt(inner, f))
    })
}

/// Does the statement (recursively) contain an expression matching `pred`?
fn stmt_contains(s: &Stmt, pred: impl Fn(&Expr) -> bool) -> bool {
    find_in_stmt(s, &mut |e| pred(e).then_some(())).is_some()
}

/// Does any expression of the program match `pred`?
fn prog_contains(prog: &Program, pred: impl Fn(&Expr) -> bool) -> bool {
    find_stmt(prog, |s, _| find_expr_in_stmt(s, |e| pred(e).then_some(()))).is_some()
}

/// Rewrites every expression in the statement at `path` (recursively).
fn rewrite_stmt_at(prog: &mut Program, path: &StmtPath, f: &mut dyn FnMut(&mut Expr)) {
    map_exprs_in_stmt(faulting_stmt_mut(prog, path), &mut |e| f(e));
}

fn int_lit(v: i64, t: IntTy) -> Expr {
    Expr::Lit(Lit::Int(i128::from(v), t))
}

fn is_var(e: &Expr, name: &str) -> bool {
    matches!(e, Expr::Var(n) if n == name)
}

/// `<var> as T`: the target type.
fn cast_of_var<'e>(e: &'e Expr, var: &str) -> Option<&'e Ty> {
    match e {
        Expr::Cast(inner, ty) if is_var(inner, var) => Some(ty),
        _ => None,
    }
}

fn is_dealloc(e: &Expr) -> bool {
    matches!(e, Expr::Builtin(BuiltinKind::Dealloc, ..))
}

fn is_ptr_write(e: &Expr) -> bool {
    matches!(e, Expr::Builtin(BuiltinKind::PtrWrite, ..))
}

/// Finds, program-wide, the pointer-variable name and layout arguments of
/// the first `alloc` call assigned to a variable.
fn find_alloc(prog: &Program) -> Option<(&str, &Expr, &Expr)> {
    find_stmt(prog, |s, _| match s {
        Stmt::Let {
            name,
            init: Expr::Builtin(BuiltinKind::Alloc, _, args),
            ..
        }
        | Stmt::Assign {
            place: Expr::Var(name),
            value: Expr::Builtin(BuiltinKind::Alloc, _, args),
        } => Some((name.as_str(), &args[0], &args[1])),
        _ => None,
    })
}

/// The length of the last `let arr: [T; N]` in the program, 0 when none.
fn array_len(prog: &Program) -> usize {
    let mut len = 0;
    find_stmt(prog, |s, _| -> Option<()> {
        if let Stmt::Let {
            ty: Ty::Array(_, n),
            ..
        } = s
        {
            len = *n;
        }
        None
    });
    len
}

// ---- safe replacement ---------------------------------------------------------

/// For provenance errors: the first `let` that turns a pointer into an
/// integer (`p as usize`, `ptr_addr(p)` or `transmute(r)`), when a pointer
/// is later rebuilt from that integer: the integer variable and the
/// original pointer.
fn laundered_pointer<'p>(prog: &'p Program, err: &MiriError) -> Option<(&'p str, &'p Expr)> {
    if err.kind != UbKind::NoProvenance {
        return None;
    }
    let (addr, orig) = find_stmt(prog, |s, _| match s {
        Stmt::Let { name, init, .. } => pointer_origin(init).map(|o| (name.as_str(), o)),
        _ => None,
    })?;
    prog_contains(prog, |e| rebuilds_pointer(e, addr)).then_some((addr, orig))
}

fn pointer_origin(init: &Expr) -> Option<&Expr> {
    match init {
        Expr::Cast(inner, Ty::Int(IntTy::Usize)) => Some(inner),
        Expr::Builtin(BuiltinKind::PtrAddr, _, args) => Some(&args[0]),
        Expr::Builtin(BuiltinKind::Transmute, tys, args)
            if matches!(tys.first(), Some(Ty::Ref(..) | Ty::RawPtr(..)))
                && matches!(tys.get(1), Some(Ty::Int(IntTy::Usize))) =>
        {
            Some(&args[0])
        }
        _ => None,
    }
}

/// `<addr> as *const T`.
fn rebuilds_pointer(e: &Expr, addr: &str) -> bool {
    matches!(cast_of_var(e, addr), Some(Ty::RawPtr(..)))
}

/// Rewire the laundered pointer's initialiser to borrow directly from the
/// original pointer/reference.
fn use_direct_pointer(prog: &mut Program, (addr, orig): (String, Expr)) {
    map_exprs(prog, &mut |e| {
        if rebuilds_pointer(e, &addr) {
            if let Expr::Cast(inner, _) = e {
                **inner = orig.clone();
            }
        }
    });
}

/// `transmute::<u8, bool>(x)`.
fn is_u8_to_bool(e: &Expr) -> bool {
    matches!(e, Expr::Builtin(BuiltinKind::Transmute, tys, _)
        if tys.len() == 2 && tys[1] == Ty::Bool && tys[0] == Ty::Int(IntTy::U8))
}

fn bool_transmute(prog: &Program) -> bool {
    prog_contains(prog, is_u8_to_bool)
}

/// `transmute::<u8, bool>(x)` → `x != 0u8`.
fn bool_from_comparison(prog: &mut Program) {
    map_exprs(prog, &mut |e| {
        if is_u8_to_bool(e) {
            if let Expr::Builtin(_, _, args) = e {
                *e = Expr::Binary(
                    BinOp::Ne,
                    Box::new(args[0].clone()),
                    Box::new(int_lit(0, IntTy::U8)),
                );
            }
        }
    });
}

/// `transmute::<[u8; N], Int>(a)` with `N` a power of two up to 8: the
/// `uintN` the bytes decode to and the target `Int`.
fn from_le_bytes_types(e: &Expr) -> Option<(IntTy, IntTy)> {
    let Expr::Builtin(BuiltinKind::Transmute, tys, _) = e else {
        return None;
    };
    let (Some(Ty::Array(elem, n)), Some(Ty::Int(target))) = (tys.first(), tys.get(1)) else {
        return None;
    };
    if **elem != Ty::Int(IntTy::U8) {
        return None;
    }
    let narrow = match n {
        1 => IntTy::U8,
        2 => IntTy::U16,
        4 => IntTy::U32,
        8 => IntTy::U64,
        _ => return None,
    };
    Some((narrow, *target))
}

fn bytes_transmute(prog: &Program) -> bool {
    prog_contains(prog, |e| from_le_bytes_types(e).is_some())
}

/// `transmute::<[u8; N], Int>(a)` (size-mismatched) →
/// `from_le_bytes::<uintN>(a) as Int`.
fn bytes_to_from_le(prog: &mut Program) {
    map_exprs(prog, &mut |e| {
        let Some((narrow, target)) = from_le_bytes_types(e) else {
            return;
        };
        if let Expr::Builtin(_, _, args) = e {
            let inner = Expr::Builtin(
                BuiltinKind::FromLeBytes,
                vec![Ty::Int(narrow)],
                vec![args[0].clone()],
            );
            *e = if narrow == target {
                inner
            } else {
                Expr::Cast(Box::new(inner), Ty::Int(target))
            };
        }
    });
}

/// `transmute::<usize, &T>(k)`: the `T`.
fn forged_ref_target(e: &Expr) -> Option<&Ty> {
    match e {
        Expr::Builtin(BuiltinKind::Transmute, tys, _) => match (tys.first(), tys.get(1)) {
            (Some(Ty::Int(IntTy::Usize)), Some(Ty::Ref(inner, _))) => Some(inner),
            _ => None,
        },
        _ => None,
    }
}

/// A local of `main`, of the type a forged reference points to, declared
/// before the forging statement.
fn forged_ref_local(prog: &Program) -> Option<&str> {
    fn scan<'p>(b: &'p Block, locals: &mut Vec<(&'p str, &'p Ty)>) -> Option<&'p str> {
        for s in &b.stmts {
            if let Stmt::Let { name, ty, .. } = s {
                locals.push((name, ty));
            }
            let mut want = None;
            find_expr_in_stmt(s, |e| -> Option<()> {
                want = forged_ref_target(e).or(want);
                None
            });
            if let Some((local, _)) = want.and_then(|w| locals.iter().find(|(_, t)| *t == w)) {
                return Some(local);
            }
            if let Stmt::Unsafe(i) | Stmt::Scope(i) | Stmt::Spawn(i) | Stmt::Lock(_, i) = s {
                if let Some(local) = scan(i, locals) {
                    return Some(local);
                }
            }
        }
        None
    }
    let main = prog.func("main")?;
    // Most programs forge nothing: answer them without collecting locals.
    if !prog_contains(prog, |e| forged_ref_target(e).is_some()) {
        return None;
    }
    scan(&main.body, &mut Vec::new())
}

/// `transmute::<usize, &T>(k)` → `&local` for some in-scope local of type T.
fn borrow_local_instead(prog: &mut Program, local: String) {
    map_exprs(prog, &mut |e| {
        if forged_ref_target(e).is_some() {
            *e = Expr::AddrOf(Mutability::Not, Box::new(Expr::Var(local.clone())));
        }
    });
}

/// `transmute::<usize, fn..>(addr)`: the `fn..` type.
fn forged_fn_ptr(e: &Expr) -> Option<&Ty> {
    match e {
        Expr::Builtin(BuiltinKind::Transmute, tys, _)
            if matches!(tys.first(), Some(Ty::Int(IntTy::Usize)))
                && matches!(tys.get(1), Some(Ty::FnPtr(..))) =>
        {
            tys.get(1)
        }
        _ => None,
    }
}

/// The function (other than `main`) whose signature is the type of the
/// last forged function pointer.
fn forged_fn_target(prog: &Program) -> Option<&str> {
    let mut want = None;
    find_stmt(prog, |s, _| -> Option<()> {
        find_expr_in_stmt(s, |e| -> Option<()> {
            want = forged_fn_ptr(e).or(want);
            None
        });
        None
    });
    let want = want?;
    prog.funcs
        .iter()
        .find(|f| f.name != "main" && f.fn_ptr_ty() == *want)
        .map(|f| f.name.as_str())
}

/// `transmute::<usize, fn..>(addr)` → a real function with that signature.
fn direct_fn_use(prog: &mut Program, fn_name: String) {
    map_exprs(prog, &mut |e| {
        if forged_fn_ptr(e).is_some() {
            *e = Expr::Var(fn_name.clone());
        }
    });
}

/// The first `let f = transmute::<fnA, fnB>(g)` between fn-pointer types,
/// when re-typing it or padding a call through `f` changes the program:
/// the binding, `fnA`, `g` and the arity of `fnA`.
fn fnptr_transmute(prog: &Program) -> Option<(&str, &Ty, &Expr, usize)> {
    let hit = find_stmt(prog, |s, _| match s {
        Stmt::Let {
            name,
            init: Expr::Builtin(BuiltinKind::Transmute, tys, args),
            ..
        } => match (tys.first(), tys.get(1)) {
            (Some(src @ Ty::FnPtr(sp, _)), Some(Ty::FnPtr(..))) => {
                Some((name.as_str(), src, &args[0], sp.len()))
            }
            _ => None,
        },
        _ => None,
    })?;
    let (fname, _, _, arity) = hit;
    let rebinds = prog
        .funcs
        .iter()
        .any(|f| f.body.stmts.iter().any(|s| reaches_binding(s, fname)));
    (rebinds || prog_contains(prog, |e| short_call_through(e, fname, arity))).then_some(hit)
}

/// `let <fname> = transmute..(..)`.
fn is_transmuted_binding(s: &Stmt, fname: &str) -> bool {
    matches!(s, Stmt::Let { name, init: Expr::Builtin(BuiltinKind::Transmute, ..), .. }
        if name == fname)
}

/// The blocks [`fix_binding`] descends into: all but `while` bodies.
fn binding_blocks(s: &Stmt) -> u8 {
    if matches!(s, Stmt::While { .. }) {
        0
    } else {
        child_branches(s)
    }
}

/// Does [`fix_binding`] re-type something in `s`?
fn reaches_binding(s: &Stmt, fname: &str) -> bool {
    is_transmuted_binding(s, fname)
        || (0..binding_blocks(s))
            .filter_map(|br| child_block(s, br))
            .any(|b| b.stmts.iter().any(|inner| reaches_binding(inner, fname)))
}

/// `<fname>(args)` through the pointer with fewer than `arity` arguments.
fn short_call_through(e: &Expr, fname: &str, arity: usize) -> bool {
    matches!(e, Expr::CallPtr(callee, args) if is_var(callee, fname) && args.len() < arity)
}

/// A fn pointer transmuted between signatures: re-type the binding to the
/// source signature and pad call sites with `1` literals.
fn fix_fnptr_signature(
    prog: &mut Program,
    (fname, src_ty, fn_expr, arity): (String, Ty, Expr, usize),
) {
    for f in &mut prog.funcs {
        for s in &mut f.body.stmts {
            fix_binding(s, &fname, &src_ty, &fn_expr);
        }
    }
    map_exprs(prog, &mut |e| {
        if short_call_through(e, &fname, arity) {
            if let Expr::CallPtr(_, args) = e {
                args.resize(arity, int_lit(1, IntTy::I32));
            }
        }
    });
}

fn fix_binding(s: &mut Stmt, fname: &str, src_ty: &Ty, fn_expr: &Expr) {
    if is_transmuted_binding(s, fname) {
        if let Stmt::Let { ty, init, .. } = s {
            *ty = src_ty.clone();
            *init = fn_expr.clone();
        }
        return;
    }
    for br in 0..binding_blocks(s) {
        if let Some(b) = child_block_mut(s, br) {
            for inner in &mut b.stmts {
                fix_binding(inner, fname, src_ty, fn_expr);
            }
        }
    }
}

fn is_mut_static(statics: &[StaticDef], name: &str) -> bool {
    statics.iter().any(|s| s.mutable && s.name == name)
}

/// A plain access to a mutable static inside a `spawn` block of `main`
/// that [`atomicise_block`] would rewrite.
fn racy_static_access(prog: &Program) -> bool {
    fn racy(b: &Block, statics: &[StaticDef]) -> bool {
        b.stmts.iter().any(|s| match s {
            Stmt::Assign {
                place: Expr::StaticRef(g),
                ..
            } => is_mut_static(statics, g),
            Stmt::Unsafe(inner) => racy(inner, statics),
            Stmt::Print(e) => find_expr(e, &mut |x| {
                matches!(x, Expr::StaticRef(n) if is_mut_static(statics, n)).then_some(())
            })
            .is_some(),
            _ => false,
        })
    }
    main_stmts(prog)
        .iter()
        .any(|s| matches!(s, Stmt::Spawn(body) if racy(body, &prog.statics)))
}

/// Inside every `spawn` block, turn plain mutable-static accesses into
/// atomic operations.
fn use_atomics(prog: &mut Program) {
    let Program { statics, funcs, .. } = prog;
    let main = funcs.iter_mut().find(|f| f.name == "main").expect(MATCHED);
    for s in &mut main.body.stmts {
        if let Stmt::Spawn(body) = s {
            atomicise_block(body, statics);
        }
    }
}

fn atomicise_block(b: &mut Block, statics: &[StaticDef]) {
    let mut new_stmts = Vec::with_capacity(b.stmts.len());
    for mut s in std::mem::take(&mut b.stmts) {
        match s {
            Stmt::Assign {
                place: Expr::StaticRef(g),
                mut value,
            } if is_mut_static(statics, &g) => {
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
            }
            Stmt::Unsafe(ref mut inner) => {
                atomicise_block(inner, statics);
                // If the unsafe block now contains only safe atomic ops,
                // keep it anyway (harmless).
                new_stmts.push(s);
            }
            Stmt::Print(mut e) => {
                map_expr(&mut e, &mut |x| {
                    if let Expr::StaticRef(n) = x {
                        if is_mut_static(statics, n) {
                            *x = Expr::Builtin(
                                BuiltinKind::AtomicLoad,
                                Vec::new(),
                                vec![Expr::StaticRef(n.clone())],
                            );
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

/// The faulting statement of an arithmetic (or arithmetic-caused) panic.
fn overflow_site<'e>(prog: &Program, err: &'e MiriError) -> Option<&'e StmtPath> {
    if !matches!(
        err.kind,
        UbKind::UncheckedOverflow
            | UbKind::PanicOverflow
            | UbKind::PanicAssert
            | UbKind::PanicDivZero
    ) {
        return None;
    }
    faulting_stmt(prog, err).map(|(path, _)| path)
}

/// Replace overflowing i32 arithmetic (checked or `unchecked_*`) with
/// widened i64 arithmetic.
fn widen_arithmetic(prog: &mut Program, path: &StmtPath) {
    rewrite_stmt_at(prog, path, &mut |e| match e {
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
}

/// The first `let r: &T = &x`, when some `r as *mut T` exists: `r` and `x`.
fn shared_ref_cast(prog: &Program) -> Option<(&str, &Expr)> {
    let (rname, target) = find_stmt(prog, |s, _| match s {
        Stmt::Let {
            name,
            ty: Ty::Ref(_, Mutability::Not),
            init: Expr::AddrOf(Mutability::Not, target),
        } => Some((name.as_str(), &**target)),
        _ => None,
    })?;
    prog_contains(prog, |e| casts_to_mut_ptr(e, rname)).then_some((rname, target))
}

/// `<rname> as *mut T`.
fn casts_to_mut_ptr(e: &Expr, rname: &str) -> bool {
    matches!(cast_of_var(e, rname), Some(Ty::RawPtr(_, Mutability::Mut)))
}

/// `let r: &T = &x; let p = r as *mut T;` → `let p: *mut T = &raw mut x;`
fn use_raw_mut_direct(prog: &mut Program, (rname, target): (String, Expr)) {
    map_exprs(prog, &mut |e| {
        if casts_to_mut_ptr(e, &rname) {
            *e = Expr::RawAddrOf(Mutability::Mut, Box::new(target.clone()));
        }
    });
}

// ---- assertion / guarding -----------------------------------------------------

/// `a / b` or `a % b`: the divisor.
fn divisor(e: &Expr) -> Option<&Expr> {
    match e {
        Expr::Binary(BinOp::Div | BinOp::Rem, _, b) => Some(b),
        _ => None,
    }
}

/// The faulting statement of a division by zero, when it divides.
fn division_site<'e>(prog: &Program, err: &'e MiriError) -> Option<&'e StmtPath> {
    if err.kind != UbKind::PanicDivZero {
        return None;
    }
    let (path, stmt) = faulting_stmt(prog, err)?;
    stmt_contains(stmt, |e| divisor(e).is_some()).then_some(path)
}

/// Wraps the statement at `path` in `if <cond> { .. } else { print(0); }`.
fn guard_stmt(prog: &mut Program, path: &StmtPath, cond: Expr) {
    let slot = faulting_stmt_mut(prog, path);
    let stmt = std::mem::replace(slot, Stmt::Nop);
    *slot = Stmt::If {
        cond,
        then_blk: Block::new(vec![stmt]),
        else_blk: Some(Block::new(vec![Stmt::Print(Expr::i32(0))])),
    };
}

/// Wrap `print(a / b)` in `if b != 0 { .. } else { print(0); }`.
fn guard_division(prog: &mut Program, path: &StmtPath) {
    let mut last = None;
    map_exprs_in_stmt(faulting_stmt_mut(prog, path), &mut |e| {
        last = divisor(e).cloned().or(last.take());
    });
    let cond = Expr::Binary(
        BinOp::Ne,
        Box::new(last.expect(MATCHED)),
        Box::new(Expr::i32(0)),
    );
    guard_stmt(prog, path, cond);
}

/// The faulting statement of an index panic, when it indexes and the
/// program declares an array: the path and the array's length.
fn index_site<'e>(prog: &Program, err: &'e MiriError) -> Option<(&'e StmtPath, usize)> {
    if err.kind != UbKind::PanicIndex {
        return None;
    }
    let (path, stmt) = faulting_stmt(prog, err)?;
    if !stmt_contains(stmt, |e| matches!(e, Expr::Index(..))) {
        return None;
    }
    let len = array_len(prog);
    (len != 0).then_some((path, len))
}

/// Wrap an indexing statement in a bounds guard (passes Miri, but skips the
/// operation — often semantically unacceptable, which is the point).
fn guard_index(prog: &mut Program, (path, len): (&StmtPath, usize)) {
    let mut last = None;
    map_exprs_in_stmt(faulting_stmt_mut(prog, path), &mut |e| {
        if let Expr::Index(_, idx) = e {
            last = Some((**idx).clone());
        }
    });
    let cond = Expr::Binary(
        BinOp::Lt,
        Box::new(last.expect(MATCHED)),
        Box::new(Expr::i32(len as i32)),
    );
    guard_stmt(prog, path, cond);
}

/// The failing `assert(a <op> b, ..)`.
fn failing_assert<'e>(prog: &Program, err: &'e MiriError) -> Option<&'e StmtPath> {
    if err.kind != UbKind::PanicAssert {
        return None;
    }
    match faulting_stmt(prog, err)? {
        (
            path,
            Stmt::Assert {
                cond: Expr::Binary(..),
                ..
            },
        ) => Some(path),
        _ => None,
    }
}

/// Replace a failing assertion's condition with `lhs >= 0`.
fn weaken_assert(prog: &mut Program, path: &StmtPath) {
    if let Stmt::Assert { cond, msg } = faulting_stmt_mut(prog, path) {
        if let Expr::Binary(_, lhs, _) = cond {
            *cond = Expr::Binary(BinOp::Ge, lhs.clone(), Box::new(Expr::i32(0)));
            *msg = "value negative".into();
        }
    }
}

/// A pointer variable the faulting statement reads or writes through.
fn pointer_use<'p, 'e>(prog: &'p Program, err: &'e MiriError) -> Option<(&'e StmtPath, &'p str)> {
    let (path, stmt) = faulting_stmt(prog, err)?;
    let pvar = find_in_stmt(stmt, &mut |e| match e {
        Expr::Builtin(BuiltinKind::PtrRead | BuiltinKind::PtrWrite, _, args) => {
            let mut last = None;
            find_expr(&args[0], &mut |x| -> Option<()> {
                if let Expr::Var(n) = x {
                    last = Some(n.as_str());
                }
                None
            });
            last
        }
        _ => None,
    })?;
    Some((path, pvar))
}

/// Insert `assert(ptr_addr(p) != 0, ..)` before the faulting statement — a
/// plausible assertion that rarely fixes real UB (kept because real LLMs
/// propose it constantly).
fn assert_non_null(prog: &mut Program, (path, pvar): (&StmtPath, String)) {
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
    assert!(
        rb_lang::visit::insert_before(prog, path, assert),
        "{MATCHED}"
    );
}

/// A `spawn` block not yet wrapped in a lock.
fn is_unlocked_spawn(s: &Stmt) -> bool {
    matches!(s, Stmt::Spawn(body)
        if !(body.stmts.len() == 1 && matches!(body.stmts[0], Stmt::Lock(..))))
}

fn unlocked_spawn(prog: &Program) -> bool {
    main_stmts(prog).iter().any(is_unlocked_spawn)
}

/// Wrap every spawned body in `lock(1) { .. }`.
fn lock_spawn_bodies(prog: &mut Program) {
    for s in &mut main_body(prog).stmts {
        if is_unlocked_spawn(s) {
            if let Stmt::Spawn(body) = s {
                let inner = std::mem::take(body);
                body.stmts = vec![Stmt::Lock(1, inner)];
            }
        }
    }
}

// ---- semantic modification -----------------------------------------------------

/// The duplicate `dealloc` statement a double free points at.
fn second_free<'e>(prog: &Program, err: &'e MiriError) -> Option<&'e StmtPath> {
    if err.kind != UbKind::DoubleFree {
        return None;
    }
    let (path, stmt) = faulting_stmt(prog, err)?;
    stmt_contains(stmt, is_dealloc).then_some(path)
}

/// The faulting `dealloc` and the layout of the matching `alloc`.
fn bad_dealloc<'p, 'e>(
    prog: &'p Program,
    err: &'e MiriError,
) -> Option<(&'e StmtPath, &'p Expr, &'p Expr)> {
    if err.kind != UbKind::BadDealloc {
        return None;
    }
    let (path, _) = faulting_stmt(prog, err)?;
    let (_, size, align) = find_alloc(prog)?;
    Some((path, size, align))
}

/// Fix a `dealloc`'s layout arguments from the matching `alloc`.
fn fix_dealloc_layout(prog: &mut Program, (path, size, align): (&StmtPath, Expr, Expr)) {
    rewrite_stmt_at(prog, path, &mut |e| {
        if let Expr::Builtin(BuiltinKind::Dealloc, _, args) = e {
            args[1] = size.clone();
            args[2] = align.clone();
        }
    });
}

/// An `alloc` that nothing ever frees, in a program with a `main`.
fn leaked_alloc(prog: &Program) -> Option<(&str, &Expr, &Expr)> {
    prog.func("main")?;
    let alloc = find_alloc(prog)?;
    (!prog_contains(prog, is_dealloc)).then_some(alloc)
}

/// Append `unsafe { dealloc(p, size, align); }` at the end of `main`.
fn add_dealloc(prog: &mut Program, (var, size, align): (String, Expr, Expr)) {
    main_body(prog)
        .stmts
        .push(Stmt::Unsafe(Block::new(vec![Stmt::Expr(Expr::Builtin(
            BuiltinKind::Dealloc,
            Vec::new(),
            vec![Expr::Var(var), size, align],
        ))])));
}

/// The first scope of `main` a raw pointer escapes from.
fn escaping_scope(prog: &Program) -> Option<usize> {
    main_stmts(prog).iter().position(|s| match s {
        Stmt::Scope(body) => body
            .stmts
            .iter()
            .any(|inner| stmt_contains(inner, |e| matches!(e, Expr::RawAddrOf(..)))),
        _ => false,
    })
}

/// Splice the first scope containing a raw-pointer escape into its parent.
fn hoist_local_out(prog: &mut Program, i: usize) {
    let main = main_body(prog);
    if let Stmt::Scope(body) = main.stmts.remove(i) {
        main.stmts.splice(i..i, body.stmts);
    }
}

/// The first statement of `main` that frees, unless it is already last.
/// Plausible whenever memory errors and a dealloc coexist; only actually
/// fixes use-after-free orderings.
fn premature_dealloc(prog: &Program, err: &MiriError) -> Option<usize> {
    if !err.kind.is_ub() {
        return None;
    }
    let stmts = main_stmts(prog);
    let i = stmts.iter().position(|s| stmt_contains(s, is_dealloc))?;
    (i + 1 < stmts.len()).then_some(i)
}

/// Move the premature `dealloc` statement to the end of `main`.
fn reorder_dealloc(prog: &mut Program, i: usize) {
    let main = main_body(prog);
    let dealloc = main.stmts.remove(i);
    main.stmts.push(dealloc);
}

/// `ptr_offset(p, <lit>)` whose literal snapping changes: the new offset
/// and the literal's type. `up == false` snaps to 0; `up == true` rounds
/// up to 4 (the common read alignment).
fn snapped_offset(e: &Expr, up: bool) -> Option<(i64, IntTy)> {
    let Expr::Builtin(BuiltinKind::PtrOffset, _, args) = e else {
        return None;
    };
    let Expr::Lit(Lit::Int(v, t)) = &args[1] else {
        return None;
    };
    let new = if up {
        ((*v as i64 + 3) / 4 * 4).max(4)
    } else {
        0
    };
    (new != *v as i64).then_some((new, *t))
}

/// The faulting statement of a memory error, when it has an offset to snap.
fn offset_site<'e>(prog: &Program, err: &'e MiriError, up: bool) -> Option<&'e StmtPath> {
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
    let (path, stmt) = faulting_stmt(prog, err)?;
    stmt_contains(stmt, |e| snapped_offset(e, up).is_some()).then_some(path)
}

/// Snap the `ptr_offset` literals of the faulting statement.
fn align_offset(prog: &mut Program, path: &StmtPath, up: bool) {
    rewrite_stmt_at(prog, path, &mut |e| {
        if let Some((new, t)) = snapped_offset(e, up) {
            if let Expr::Builtin(_, _, args) = e {
                args[1] = int_lit(new, t);
            }
        }
    });
}

/// The faulting read's index in `main` and the index of the first later
/// statement of `main` that writes through a pointer.
fn late_write(prog: &Program, err: &MiriError) -> Option<(usize, usize)> {
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
    let read_idx = err.path.as_ref()?.steps.first()?.0;
    let write_idx = main_stmts(prog)
        .iter()
        .enumerate()
        .skip(read_idx + 1)
        .find(|(_, s)| stmt_contains(s, is_ptr_write))?
        .0;
    Some((read_idx, write_idx))
}

/// Move the initialising `ptr_write` before the faulting read.
fn initialize_before_read(prog: &mut Program, (read_idx, wi): (usize, usize)) {
    let main = main_body(prog);
    // Move a pure-write unsafe block whole; otherwise extract its writes.
    let moved = match main.stmts.remove(wi) {
        Stmt::Unsafe(body) => {
            let (writes, rest): (Vec<Stmt>, Vec<Stmt>) = body
                .stmts
                .into_iter()
                .partition(|s| stmt_contains(s, is_ptr_write));
            if !rest.is_empty() {
                main.stmts.insert(wi, Stmt::Unsafe(Block::new(rest)));
            }
            Stmt::Unsafe(Block::new(writes))
        }
        other => other,
    };
    main.stmts.insert(read_idx, moved);
}

/// `U { f: <int literal> }` for a union whose field `field` is an integer,
/// with `f` not `field`: the literal's value and `field`'s type.
fn union_retype(e: &Expr, field: &str, unions: &[UnionDef]) -> Option<(i128, IntTy)> {
    let Expr::UnionLit(u, f, v) = e else {
        return None;
    };
    if f == field {
        return None;
    }
    let def = unions.iter().find(|d| d.name == *u)?;
    match (&**v, &def.fields.iter().find(|(n, _)| n == field)?.1) {
        (Expr::Lit(Lit::Int(val, _)), Ty::Int(t)) => Some((*val, *t)),
        _ => None,
    }
}

/// The last union field the program reads, when some union literal
/// initialises another field and could initialise it instead.
fn union_read(prog: &Program) -> Option<&str> {
    let mut field = None;
    find_stmt(prog, |s, _| -> Option<()> {
        find_expr_in_stmt(s, |e| -> Option<()> {
            if let Expr::UnionField(_, f) = e {
                field = Some(f.as_str());
            }
            None
        });
        None
    });
    let field = field?;
    prog_contains(prog, |e| union_retype(e, field, &prog.unions).is_some()).then_some(field)
}

/// Rewrite `U { small: v u8 }` so the field actually read is initialised.
fn union_largest_field(prog: &mut Program, field: String) {
    let Program { unions, funcs, .. } = prog;
    for func in funcs {
        for s in &mut func.body.stmts {
            map_exprs_in_stmt(s, &mut |e| {
                if let Some((val, t)) = union_retype(e, &field, unions) {
                    if let Expr::UnionLit(u, _, _) = e {
                        *e = Expr::UnionLit(
                            u.clone(),
                            field.clone(),
                            Box::new(Expr::Lit(Lit::Int(val, t))),
                        );
                    }
                }
            });
        }
    }
}

/// Inside the faulting `unsafe` block, a pointer/reference `let` directly
/// followed by an assignment: the block's path and the `let`'s index.
fn stale_pointer<'e>(prog: &Program, err: &'e MiriError) -> Option<(&'e StmtPath, usize)> {
    if err.kind != UbKind::StackBorrowViolation {
        return None;
    }
    let (path, Stmt::Unsafe(body)) = faulting_stmt(prog, err)? else {
        return None;
    };
    let i = body.stmts.windows(2).position(|w| {
        matches!(
            w,
            [
                Stmt::Let {
                    init: Expr::RawAddrOf(..) | Expr::AddrOf(..),
                    ..
                },
                Stmt::Assign { .. }
            ]
        )
    })?;
    Some((path, i))
}

/// Swap the pointer `let` and the write after it, so the pointer/reference
/// is taken *after* the conflicting write.
fn retake_pointer(prog: &mut Program, (path, i): (&StmtPath, usize)) {
    if let Stmt::Unsafe(body) = faulting_stmt_mut(prog, path) {
        body.stmts.swap(i, i + 1);
    }
}

/// Two `let x = &mut v` of the same `v`: the first binding, the second
/// binding and where the second sits.
fn double_mut_borrow(prog: &Program) -> Option<(&str, &str, StmtPath)> {
    let mut first: Option<(&str, &str)> = None;
    find_stmt(prog, |s, at| {
        let Stmt::Let {
            name,
            init: Expr::AddrOf(Mutability::Mut, t),
            ..
        } = s
        else {
            return None;
        };
        let Expr::Var(target) = &**t else {
            return None;
        };
        match first {
            None => {
                first = Some((name.as_str(), target.as_str()));
                None
            }
            Some((first_name, ft)) if ft == target => Some((first_name, name.as_str(), at.path())),
            Some(_) => None,
        }
    })
}

/// Remove the second of two `&mut` reborrows and redirect its uses.
fn single_mut_borrow(prog: &mut Program, (first, second, at): (String, String, StmtPath)) {
    rb_lang::visit::remove_stmt(prog, &at).expect(MATCHED);
    map_exprs(prog, &mut |e| {
        if is_var(e, &second) {
            *e = Expr::Var(first.clone());
        }
    });
}

/// A statement of `main` between the first `spawn` and the `join` that
/// touches a static: its index and the join's.
fn racing_read(prog: &Program) -> Option<(usize, usize)> {
    let stmts = main_stmts(prog);
    let join_idx = stmts.iter().position(|s| matches!(s, Stmt::JoinAll))?;
    let spawn_idx = stmts.iter().position(|s| matches!(s, Stmt::Spawn(_)))?;
    let victim = stmts
        .iter()
        .enumerate()
        .take(join_idx)
        .skip(spawn_idx + 1)
        .find(|(_, s)| {
            !matches!(s, Stmt::Spawn(_)) && stmt_contains(s, |e| matches!(e, Expr::StaticRef(_)))
        })?
        .0;
    Some((victim, join_idx))
}

/// Move a main-thread statement that races with spawned threads after the
/// `join`.
fn move_read_after_join(prog: &mut Program, (i, join_idx): (usize, usize)) {
    let main = main_body(prog);
    let stmt = main.stmts.remove(i);
    // join_idx shifted left by one.
    main.stmts.insert(join_idx, stmt);
}

/// The first `tailcall f(args)`, when `f` returns what its caller returns
/// or unit: where it sits, `f`, `args`, and whether the caller can return
/// the call's value.
fn mismatched_tailcall(prog: &Program) -> Option<(StmtPath, &str, &[Expr], bool)> {
    let (at, name, args) = find_stmt(prog, |s, at| match s {
        Stmt::TailCall(name, args) => Some((at.path(), name.as_str(), args.as_slice())),
        _ => None,
    })?;
    let callee_ret = &prog.func(name)?.ret;
    let returns_call = *callee_ret == prog.funcs.get(at.func)?.ret;
    (returns_call || *callee_ret == Ty::Unit).then_some((at, name, args, returns_call))
}

/// Turn `tailcall f(args)` into a plain call (+ return of the first param
/// when the callee returns unit but the caller does not).
fn tailcall_to_return(
    prog: &mut Program,
    (at, name, args, returns_call): (StmtPath, String, Vec<Expr>, bool),
) {
    let call = Expr::Call(name, args);
    if returns_call {
        *faulting_stmt_mut(prog, &at) = Stmt::Return(Some(call));
        return;
    }
    let first_param = prog.funcs[at.func].params.first();
    let value = first_param.map_or(Expr::i32(0), |(n, _)| Expr::Var(n.clone()));
    *faulting_stmt_mut(prog, &at) = Stmt::Expr(call);
    assert!(
        rb_lang::visit::insert_after(prog, &at, Stmt::Return(Some(value))),
        "{MATCHED}"
    );
}

/// `let i = <lit>` (an index variable) at the top level of a function,
/// with the literal out of bounds for an array of `len`.
fn is_oob_index_let(s: &Stmt, len: usize) -> bool {
    matches!(s, Stmt::Let { name, init: Expr::Lit(Lit::Int(v, _)), .. }
        if name.contains('i') && *v >= len as i128)
}

/// For an index panic: the array length, when an index variable is
/// initialised out of its bounds.
fn oob_index_literal(prog: &Program, err: &MiriError) -> Option<usize> {
    if err.kind != UbKind::PanicIndex {
        return None;
    }
    let len = array_len(prog);
    let found = len != 0
        && prog
            .funcs
            .iter()
            .any(|f| f.body.stmts.iter().any(|s| is_oob_index_let(s, len)));
    found.then_some(len)
}

/// Fix an out-of-bounds index literal to `len - 1`.
fn fix_literal_index(prog: &mut Program, len: usize) {
    for f in &mut prog.funcs {
        for s in &mut f.body.stmts {
            if is_oob_index_let(s, len) {
                if let Stmt::Let {
                    ty,
                    init: Expr::Lit(Lit::Int(v, t)),
                    ..
                } = s
                {
                    *ty = Ty::Int(*t);
                    *v = i128::from(len as i64 - 1);
                }
            }
        }
    }
}

/// `copy_nonoverlapping(src, ptr_offset(p, <lit>), <count>)` with the
/// offset below the count: the count and the offset literal's type.
fn overlap_fix(e: &Expr) -> Option<(i64, IntTy)> {
    let Expr::Builtin(BuiltinKind::CopyNonoverlapping, _, args) = e else {
        return None;
    };
    let Expr::Lit(Lit::Int(n, _)) = &args[2] else {
        return None;
    };
    let count = *n as i64;
    match &args[1] {
        Expr::Builtin(BuiltinKind::PtrOffset, _, off_args) => match &off_args[1] {
            Expr::Lit(Lit::Int(v, t)) if (*v as i64) < count => Some((count, *t)),
            _ => None,
        },
        _ => None,
    }
}

fn overlapping_copy(prog: &Program) -> bool {
    prog_contains(prog, |e| overlap_fix(e).is_some())
}

/// Push the `copy_nonoverlapping` destination past the source range.
fn copy_without_overlap(prog: &mut Program) {
    map_exprs(prog, &mut |e| {
        if let Some((count, t)) = overlap_fix(e) {
            if let Expr::Builtin(_, _, args) = e {
                if let Expr::Builtin(_, _, off_args) = &mut args[1] {
                    off_args[1] = int_lit(count, t);
                }
            }
        }
    });
}

// ---- hallucination -------------------------------------------------------------

fn delete_statement(prog: &mut Program, path: &StmtPath) {
    rb_lang::visit::remove_stmt(prog, path).expect(MATCHED);
}

fn duplicate_statement(prog: &mut Program, (path, stmt): (&StmtPath, Stmt)) {
    assert!(rb_lang::visit::insert_after(prog, path, stmt), "{MATCHED}");
}

/// The faulting statement, when it holds an integer literal.
fn literal_site<'e>(prog: &Program, err: &'e MiriError) -> Option<&'e StmtPath> {
    let (path, stmt) = faulting_stmt(prog, err)?;
    stmt_contains(stmt, |e| matches!(e, Expr::Lit(Lit::Int(..)))).then_some(path)
}

fn perturb_literal(prog: &mut Program, path: &StmtPath) {
    let mut done = false;
    rewrite_stmt_at(prog, path, &mut |e| {
        if done {
            return;
        }
        if let Expr::Lit(Lit::Int(v, t)) = e {
            *e = Expr::Lit(Lit::Int(t.wrap(*v + 1), *t));
            done = true;
        }
    });
}

/// The first `unsafe` block of `main`, when it is not empty.
fn unsafe_block(prog: &Program) -> Option<usize> {
    let stmts = main_stmts(prog);
    let idx = stmts.iter().position(|s| matches!(s, Stmt::Unsafe(_)))?;
    (!matches!(&stmts[idx], Stmt::Unsafe(b) if b.stmts.is_empty())).then_some(idx)
}

/// Unwrap the first `unsafe` block in `main`, exposing unsafe operations
/// in a safe context — the classic non-compiling LLM patch.
fn strip_unsafe(prog: &mut Program, idx: usize) {
    let main = main_body(prog);
    if let Stmt::Unsafe(body) = main.stmts.remove(idx) {
        main.stmts.splice(idx..idx, body.stmts);
    }
}

/// The first `let` of `main`.
fn first_let(prog: &Program) -> Option<usize> {
    main_stmts(prog)
        .iter()
        .position(|s| matches!(s, Stmt::Let { .. }))
}

/// Rename the first let binding in `main` at its definition only, leaving
/// its uses dangling.
fn break_binding(prog: &mut Program, i: usize) {
    if let Stmt::Let { name, .. } = &mut main_body(prog).stmts[i] {
        name.push_str("_renamed");
    }
}

/// The first `let` of `main` declared `i32`.
fn first_i32_let(prog: &Program) -> Option<usize> {
    main_stmts(prog).iter().position(|s| {
        matches!(
            s,
            Stmt::Let {
                ty: Ty::Int(IntTy::I32),
                ..
            }
        )
    })
}

/// Flip the declared type of the first integer let in `main`.
fn break_types(prog: &mut Program, i: usize) {
    if let Stmt::Let { ty, .. } = &mut main_body(prog).stmts[i] {
        *ty = Ty::Bool;
    }
}

fn disable_statement(prog: &mut Program, path: &StmtPath) {
    let slot = faulting_stmt_mut(prog, path);
    let stmt = std::mem::replace(slot, Stmt::Nop);
    *slot = Stmt::If {
        cond: Expr::Lit(Lit::Bool(false)),
        then_blk: Block::new(vec![stmt]),
        else_blk: None,
    };
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
