//! # rb_kb — the durable half of the knowledge base
//!
//! The paper's headline capability is cross-case self-learning: a
//! knowledge base of solved repairs makes later cases cheaper (Fig. 6).
//! `rustbrain::knowledge` holds the *live* half — retrieval, query-cost
//! accounting, delta recording. This crate is the *durable* half:
//!
//! - [`codec`] — a hand-rolled, versioned, length-prefixed binary format
//!   for knowledge entries (magic header, format-version byte, trailing
//!   checksum). No serde dependency, so it works with the vendored
//!   compile-surface stubs.
//! - [`policy`] — a configurable [`MergePolicy`] replacing blind append:
//!   exact duplicates collapse into a weight counter, same-vector
//!   conflicts resolve by weight, near-duplicate vectors coalesce —
//!   bounding entry count and therefore the simulated query-scan cost.
//! - [`index`] — a [`UbClass`]-bucketed retrieval index so a query scans
//!   one bucket instead of the whole base, with the simulated cost model
//!   re-derived from bucket size.
//! - [`store`] — atomic load/save of `.rbkb` files (temp file + rename)
//!   with corruption surfaced as typed errors, never panics — plus the
//!   layout dispatch between the single file and the sharded directory.
//! - [`shard`] — the `.rbkb.d/` layout: one segment per [`UbClass`]
//!   (mirroring the index), a checksummed manifest and dirty-shard-only
//!   saves.
//!
//! Stores are always loaded whole. Compaction is one path for both
//! layouts: [`load_any`], [`MergePolicy::normalize`] under
//! [`MergePolicy::compaction`], [`save_any`].

#![warn(missing_docs)]

pub mod codec;
pub mod index;
pub mod policy;
pub mod shard;
pub mod store;

use rb_lang::vectorize::AstVector;
use rb_llm::RepairRule;
use rb_miri::UbClass;
use serde::{Deserialize, Serialize};

/// One stored solved case: the embedded shape of the buggy program, the
/// UB class it exhibited, the rule that repaired it, and how many solved
/// cases this entry stands for after merging (exact duplicates and
/// near-duplicates fold their counts in here instead of occupying a slot).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KbEntry {
    /// Embedding of the pruned buggy AST.
    pub vector: AstVector,
    /// UB class of the solved case.
    pub class: UbClass,
    /// The rule that produced the accepted repair.
    pub rule: RepairRule,
    /// Solved cases this entry represents (≥ 1; grows when duplicates or
    /// near-duplicates are merged into it).
    pub weight: u32,
}

impl KbEntry {
    /// A freshly learned entry representing a single solved case.
    #[must_use]
    pub fn new(vector: AstVector, class: UbClass, rule: RepairRule) -> KbEntry {
        KbEntry {
            vector,
            class,
            rule,
            weight: 1,
        }
    }
}

pub use codec::{
    decode_entries, decode_entries_iter, encode_entries, CodecError, EntriesIter, FORMAT_VERSION,
    MAGIC,
};
pub use index::{query_cost_ms, KbIndex, QUERY_BASE_MS, QUERY_PER_ENTRY_MS};
pub use policy::{ConflictResolution, MergePolicy, COMPACTION_COALESCE_THRESHOLD};
pub use shard::{Manifest, ShardMeta, ShardedStore};
pub use store::{
    detect_layout, load, load_any, save, save_any, SaveReport, StoreError, StoreLayout,
};
