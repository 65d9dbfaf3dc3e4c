//! The data-driven lint rule table.
//!
//! Every finding is attributed to a rule registered as data in [`RULES`]:
//! a `(id, class, description)` row. [`rule_id_for_kind`] maps each
//! precise failure kind the oracle reports to the row that explains it,
//! so findings, docs and JSON output all name a registered rule id.

use rb_miri::{UbClass, UbKind};

/// One registered lint rule.
pub struct LintRule {
    /// Stable kebab-case identifier (findings, JSON, docs).
    pub id: &'static str,
    /// The UB class the rule detects.
    pub class: UbClass,
    /// One-line description for docs and `analyze` output.
    pub description: &'static str,
}

/// The rule registry.
pub static RULES: &[LintRule] = &[
    LintRule {
        id: "uninit-read",
        class: UbClass::Uninit,
        description: "read of memory never written since allocation",
    },
    LintRule {
        id: "dangling-local-escape",
        class: UbClass::DanglingPointer,
        description: "address of a scope-local escapes to an outer binding",
    },
    LintRule {
        id: "const-oob-index",
        class: UbClass::Panic,
        description: "array index out of bounds",
    },
    LintRule {
        id: "div-by-zero",
        class: UbClass::Panic,
        description: "division or remainder by zero",
    },
    LintRule {
        id: "double-free",
        class: UbClass::Alloc,
        description: "the same allocation is deallocated twice",
    },
    LintRule {
        id: "dealloc-layout-mismatch",
        class: UbClass::Alloc,
        description: "dealloc layout differs from the allocation's",
    },
    LintRule {
        id: "int-to-ptr",
        class: UbClass::Provenance,
        description: "access through a pointer without provenance (an integer-to-pointer cast)",
    },
    LintRule {
        id: "conflicting-mut-reborrows",
        class: UbClass::BothBorrow,
        description: "two live `&mut` borrows of the same place",
    },
    LintRule {
        id: "static-race",
        class: UbClass::DataRace,
        description: "unsynchronised access to a static from two threads",
    },
    LintRule {
        id: "misaligned-cast",
        class: UbClass::Unaligned,
        description: "access through a pointer misaligned for its type",
    },
    LintRule {
        id: "fn-ptr-sig",
        class: UbClass::FuncPointer,
        description: "call through a function pointer with a mismatched signature",
    },
    LintRule {
        id: "transmute-size",
        class: UbClass::Validity,
        description: "transmute between types of different sizes",
    },
    LintRule {
        id: "tail-call-mismatch",
        class: UbClass::TailCall,
        description: "tail call to a function with a different signature",
    },
    LintRule {
        id: "const-unchecked-overflow",
        class: UbClass::FuncCall,
        description: "unchecked arithmetic that overflows",
    },
    LintRule {
        id: "copy-overlap",
        class: UbClass::FuncCall,
        description: "copy_nonoverlapping where source and destination alias",
    },
    LintRule {
        id: "use-after-free",
        class: UbClass::DanglingPointer,
        description: "access through a pointer to a freed or dead allocation",
    },
    LintRule {
        id: "oob-pointer-arith",
        class: UbClass::DanglingPointer,
        description: "pointer arithmetic leaves the allocation's bounds",
    },
    LintRule {
        id: "cross-allocation",
        class: UbClass::Provenance,
        description: "pointer arithmetic lands inside a different allocation",
    },
    LintRule {
        id: "leak",
        class: UbClass::Alloc,
        description: "heap allocation still live at program exit",
    },
    LintRule {
        id: "stack-borrow",
        class: UbClass::StackBorrow,
        description:
            "stacked-borrows discipline violated (invalidated tag or write through shared)",
    },
    LintRule {
        id: "heap-race",
        class: UbClass::Concurrency,
        description: "data race on shared heap memory",
    },
    LintRule {
        id: "invalid-value",
        class: UbClass::Validity,
        description: "constructing an invalid value (bad bool, null/dangling reference)",
    },
    LintRule {
        id: "invalid-fn-ptr",
        class: UbClass::FuncPointer,
        description: "calling a function pointer that is not a function",
    },
    LintRule {
        id: "precondition",
        class: UbClass::FuncCall,
        description: "unsafe builtin contract violated",
    },
    LintRule {
        id: "panic",
        class: UbClass::Panic,
        description: "runtime panic (assert, overflow, index, division)",
    },
    LintRule {
        id: "ill-formed",
        class: UbClass::Compile,
        description: "program rejected by the static checker or interpreter limits",
    },
];

/// Looks up a registered rule by id.
#[must_use]
pub fn rule_for_id(id: &str) -> Option<&'static LintRule> {
    RULES.iter().find(|r| r.id == id)
}

/// The registered rule id that explains a precise failure kind (used to
/// attribute each oracle error's finding to the rule table).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn every_kind_maps_to_registered_rule() {
        // Exhaustive: a new UbKind without a table entry should fail here.
        let kinds = [
            UbKind::UseAfterFree,
            UbKind::UseAfterScope,
            UbKind::OutOfBounds,
            UbKind::DoubleFree,
            UbKind::BadDealloc,
            UbKind::Leak,
            UbKind::UnalignedAccess,
            UbKind::InvalidValue,
            UbKind::InvalidRef,
            UbKind::TransmuteSize,
            UbKind::UninitRead,
            UbKind::NoProvenance,
            UbKind::CrossAllocation,
            UbKind::StackBorrowViolation,
            UbKind::ConflictingMutBorrows,
            UbKind::WriteThroughShared,
            UbKind::RaceOnStatic,
            UbKind::RaceOnHeap,
            UbKind::UncheckedOverflow,
            UbKind::Precondition,
            UbKind::InvalidFnPtr,
            UbKind::FnSigMismatch,
            UbKind::TailCallMismatch,
            UbKind::PanicAssert,
            UbKind::PanicOverflow,
            UbKind::PanicDivZero,
            UbKind::PanicIndex,
            UbKind::IllFormed,
            UbKind::ResourceExhausted,
        ];
        for k in kinds {
            let id = rule_id_for_kind(k);
            assert!(rule_for_id(id).is_some(), "unregistered rule id `{id}`");
        }
    }

    #[test]
    fn rule_ids_unique() {
        let mut seen = HashSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id `{}`", r.id);
        }
    }

    #[test]
    fn rules_cover_every_class() {
        let classes: HashSet<UbClass> = RULES.iter().map(|r| r.class).collect();
        for class in UbClass::ALL {
            assert!(classes.contains(&class), "no rule for {}", class.label());
        }
    }
}
