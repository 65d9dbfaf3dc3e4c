//! The class-bucketed retrieval index and the simulated query-cost model
//! derived from it.
//!
//! Retrieval always asks for "entries like this *within this UB class*"
//! (the pre-index scorer awarded a same-class bonus for exactly that
//! reason), so the index buckets entry positions by [`UbClass`]: a query
//! scans one bucket instead of the whole base. The simulated cost model
//! follows the scan honestly — a fixed per-query base plus a per-entry
//! charge over the *bucket*, not the base — which keeps the paper's
//! knowledge-overhead trend truthful as the store grows: overhead grows
//! with how much knowledge is *relevant*, not with how much is stored.

use crate::codec::{class_code, NUM_CLASS_CODES};
use crate::KbEntry;
use rb_miri::UbClass;

/// Fixed per-query cost in simulated milliseconds (the embedding and
/// retrieval round-trip of the abstract reasoning agent).
pub const QUERY_BASE_MS: f64 = 9_000.0;

/// Per-scanned-entry cost in simulated milliseconds.
pub const QUERY_PER_ENTRY_MS: f64 = 60.0;

/// Simulated cost of one query that scans `scanned` entries.
#[must_use]
pub fn query_cost_ms(scanned: usize) -> f64 {
    QUERY_BASE_MS + QUERY_PER_ENTRY_MS * scanned as f64
}

/// Positions of a knowledge base's entries, bucketed by UB class.
///
/// The index stores positions into the entry slice it was built from (not
/// copies), so it describes that slice only: an owner that reorders or
/// extends its entries builds a new index over them.
///
/// Positions are `u64` on the wire-facing side: a store past `u32::MAX`
/// entries keeps indexing correctly instead of aborting mid-batch (the
/// pre-fix index `expect`ed the narrowing and panicked).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KbIndex {
    buckets: Vec<Vec<u64>>,
}

impl KbIndex {
    /// An index over no entries.
    #[must_use]
    pub fn new() -> KbIndex {
        KbIndex {
            buckets: vec![Vec::new(); NUM_CLASS_CODES],
        }
    }

    /// Builds the index for an entry slice.
    #[must_use]
    pub fn build(entries: &[KbEntry]) -> KbIndex {
        let mut index = KbIndex::new();
        for (i, e) in entries.iter().enumerate() {
            index.note_insert(i, e.class);
        }
        index
    }

    /// Records that an entry of `class` sits at `position`.
    ///
    /// Positions widen losslessly into `u64`: a base that outgrows
    /// `u32::MAX` entries degrades into more memory, not a panic.
    fn note_insert(&mut self, position: usize, class: UbClass) {
        if self.buckets.is_empty() {
            self.buckets = vec![Vec::new(); NUM_CLASS_CODES];
        }
        self.buckets[usize::from(class_code(class))].push(position as u64);
    }

    /// Entry positions holding `class` entries, in insertion order.
    #[must_use]
    pub fn bucket(&self, class: UbClass) -> &[u64] {
        self.buckets
            .get(usize::from(class_code(class)))
            .map_or(&[], Vec::as_slice)
    }

    /// Number of entries a query for `class` will scan.
    #[must_use]
    pub fn bucket_len(&self, class: UbClass) -> usize {
        self.bucket(class).len()
    }

    /// Entry count across all buckets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Whether the index covers no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }

    /// `(class, bucket size)` pairs for non-empty buckets, in wire-code
    /// order (the `kb inspect` histogram).
    #[must_use]
    pub fn histogram(&self) -> Vec<(UbClass, usize)> {
        use crate::codec::class_from_code;
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .filter_map(|(code, b)| class_from_code(u8::try_from(code).ok()?).map(|c| (c, b.len())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::vectorize::AstVector;
    use rb_llm::RepairRule;

    fn entry(class: UbClass) -> KbEntry {
        KbEntry::new(
            AstVector {
                components: vec![1.0],
            },
            class,
            RepairRule::GuardDivision,
        )
    }

    #[test]
    fn buckets_partition_positions_by_class() {
        let entries = vec![
            entry(UbClass::Panic),
            entry(UbClass::Alloc),
            entry(UbClass::Panic),
        ];
        let index = KbIndex::build(&entries);
        assert_eq!(index.bucket(UbClass::Panic), &[0, 2]);
        assert_eq!(index.bucket(UbClass::Alloc), &[1]);
        assert_eq!(index.bucket_len(UbClass::DataRace), 0);
        assert_eq!(index.len(), 3);
        assert!(!index.is_empty());
        assert_eq!(
            index.histogram(),
            vec![(UbClass::Alloc, 1), (UbClass::Panic, 2)]
        );
    }

    #[test]
    fn note_insert_extends_a_default_index() {
        let mut index = KbIndex::default();
        assert!(index.is_empty());
        index.note_insert(0, UbClass::Uninit);
        assert_eq!(index.bucket(UbClass::Uninit), &[0]);
    }

    #[test]
    fn positions_past_u32_index_without_panicking() {
        // Regression: the pre-fix index narrowed positions to u32 with an
        // `expect`, so entry 4_294_967_296 of a huge store aborted the
        // whole batch. Widened positions just keep counting.
        let mut index = KbIndex::new();
        let huge = u32::MAX as usize + 1;
        index.note_insert(huge, UbClass::Alloc);
        assert_eq!(index.bucket(UbClass::Alloc), &[huge as u64]);
        assert_eq!(index.len(), 1);
    }

    #[test]
    fn cost_scales_with_scanned_entries_only() {
        assert_eq!(query_cost_ms(0), QUERY_BASE_MS);
        assert!(query_cost_ms(10) < query_cost_ms(1000));
        assert_eq!(query_cost_ms(7), QUERY_BASE_MS + 7.0 * QUERY_PER_ENTRY_MS);
    }
}
