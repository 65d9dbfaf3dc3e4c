//! Rule ids for findings.
//!
//! [`rule_id_for_kind`] names the lint rule that explains each precise
//! failure kind the oracle reports; every finding and its JSON carry that
//! id.

use rb_miri::UbKind;

/// The stable kebab-case rule id that explains a precise failure kind.
#[must_use]
pub fn rule_id_for_kind(kind: UbKind) -> &'static str {
    match kind {
        UbKind::UseAfterFree | UbKind::UseAfterScope => "use-after-free",
        UbKind::OutOfBounds => "oob-pointer-arith",
        UbKind::DoubleFree => "double-free",
        UbKind::BadDealloc => "dealloc-layout-mismatch",
        UbKind::Leak => "leak",
        UbKind::UnalignedAccess => "misaligned-cast",
        UbKind::InvalidValue | UbKind::InvalidRef => "invalid-value",
        UbKind::TransmuteSize => "transmute-size",
        UbKind::UninitRead => "uninit-read",
        UbKind::NoProvenance => "int-to-ptr",
        UbKind::CrossAllocation => "cross-allocation",
        UbKind::StackBorrowViolation | UbKind::WriteThroughShared => "stack-borrow",
        UbKind::ConflictingMutBorrows => "conflicting-mut-reborrows",
        UbKind::RaceOnStatic => "static-race",
        UbKind::RaceOnHeap => "heap-race",
        UbKind::UncheckedOverflow => "const-unchecked-overflow",
        UbKind::Precondition => "precondition",
        UbKind::InvalidFnPtr => "invalid-fn-ptr",
        UbKind::FnSigMismatch => "fn-ptr-sig",
        UbKind::TailCallMismatch => "tail-call-mismatch",
        UbKind::PanicDivZero => "div-by-zero",
        UbKind::PanicIndex => "const-oob-index",
        UbKind::PanicAssert | UbKind::PanicOverflow => "panic",
        UbKind::IllFormed | UbKind::ResourceExhausted => "ill-formed",
    }
}
