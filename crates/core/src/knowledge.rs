//! The AST-similarity knowledge base behind the abstract reasoning agent
//! (paper Fig. 6): pruned ASTs are embedded as vectors; retrieval returns
//! the repair rules that solved the most similar past errors, attached to
//! prompts as few-shots. Querying costs simulated time proportional to
//! the scanned bucket — the source of the paper's 2–4× knowledge
//! overhead.
//!
//! Since PR 4 this is the *live* half of a two-layer design: the durable
//! half lives in [`rb_kb`] (binary codec, merge policy, class index,
//! atomic file store), and this type composes it with query-cost
//! accounting and delta recording. Entries carry a *weight* (how many
//! solved cases they stand for), retrieval goes through a
//! [`UbClass`]-bucketed index instead of scanning the whole base, and
//! [`KnowledgeBase::merge_all`] applies a configurable [`MergePolicy`]
//! so the base — and the per-query scan cost — stays bounded as learning
//! accumulates across batches and invocations.
//!
//! Since PR 6 a base can also be *lazily loaded*
//! ([`KnowledgeBase::open_lazy`]): opened against a sharded `.rbkb.d/`
//! store it starts empty and faults each class's segment in on first
//! touch — [`KnowledgeBase::query`] and
//! [`KnowledgeBase::consult_cost_ms`] fault in before any cost is
//! computed, so a lazy base's retrieved shots *and* its simulated costs
//! are byte-identical to an eagerly loaded one's. The daemon in
//! `rb_serve` rides on this: only the shards traffic touches ever leave
//! disk.

use rb_kb::codec::class_code;
use rb_kb::index::query_cost_ms as bucket_cost_ms;
use rb_kb::{KbIndex, ShardedStore};
use rb_lang::vectorize::AstVector;
use rb_llm::{FewShot, RepairRule};
use rb_miri::UbClass;
use serde::{Deserialize, Serialize};
use std::borrow::{Borrow, Cow};
use std::path::Path;
use std::sync::{Arc, Mutex};

pub use rb_kb::{
    CodecError, CompactReport, ConflictResolution, KbEntry, MergePolicy, SaveReport, StoreError,
    StoreLayout,
};

/// The knowledge base: a shared read-only base plus this handle's own
/// inserts.
///
/// The base (entries and their class index) sits behind an [`Arc`], so a
/// clone — what every batch job and daemon request starts from — is a
/// reference bump. [`KnowledgeBase::insert`] appends to the handle's
/// overlay, never to the base: the overlay is the handle's
/// [`KnowledgeBase::delta`]. A query scans the base's class bucket, then
/// the overlay's entries of that class, both in insertion order, which is
/// the order one entry vector holding both would give. A merge, a
/// compaction and a lazy fault-in fold the overlay into a fresh base that
/// only this handle holds; every other handle keeps its view.
///
/// The query-accounting counters are private: shared/concurrent use (the
/// batch engine hands bases to worker-built systems) must not be able to
/// corrupt the accounting from outside — reads go through
/// [`KnowledgeBase::queries`] and [`KnowledgeBase::query_time_ms`], and
/// the only writer is [`KnowledgeBase::query`] itself.
#[derive(Clone, Debug)]
pub struct KnowledgeBase {
    /// The shared read-only part.
    base: Arc<Base>,
    /// Entries inserted on this handle since its base was last folded,
    /// oldest first.
    overlay: Vec<KbEntry>,
    /// The backing sharded store of a lazily loaded base (see
    /// [`KnowledgeBase::open_lazy`]); `None` for eager bases.
    lazy: Option<LazyShards>,
    query_time_ms: f64,
    queries: u64,
    /// Actual simulated cost of the most recent query (initially the
    /// empty-bucket cost).
    last_query_cost_ms: f64,
}

/// The read-only part of a [`KnowledgeBase`]: entries in storage order and
/// their class index, built together and never changed after.
#[derive(Debug, Default)]
struct Base {
    entries: Vec<KbEntry>,
    index: KbIndex,
}

impl Base {
    fn new(entries: Vec<KbEntry>) -> Arc<Base> {
        let index = KbIndex::build(&entries);
        Arc::new(Base { entries, index })
    }
}

/// The fault-in state of a lazily loaded base: a shared handle on the
/// backing [`ShardedStore`] plus a bitmask of the classes already pulled
/// into [`KnowledgeBase::entries`].
///
/// The store handle is behind an `Arc`: clones of a lazy base share one
/// handle, so the store's per-shard load counters aggregate segment reads
/// across the base *and* all its clones — which is exactly what the
/// daemon's telemetry and the serve integration test want to observe.
/// The residency mask, by contrast, is per-clone: a clone that faults a
/// shard in folds it into a base only that clone holds.
#[derive(Clone, Debug)]
struct LazyShards {
    store: Arc<Mutex<ShardedStore>>,
    /// One bit per class wire code ([`rb_kb::codec::NUM_CLASS_CODES`]
    /// is 15, so `u16` covers every code).
    resident: u16,
}

impl LazyShards {
    fn lock(&self) -> std::sync::MutexGuard<'_, ShardedStore> {
        self.store.lock().expect("lazy shard store lock poisoned")
    }
}

fn class_bit(class: UbClass) -> u16 {
    1 << class_code(class)
}

impl Default for KnowledgeBase {
    fn default() -> KnowledgeBase {
        KnowledgeBase {
            base: Arc::default(),
            overlay: Vec::new(),
            lazy: None,
            query_time_ms: 0.0,
            queries: 0,
            last_query_cost_ms: bucket_cost_ms(0),
        }
    }
}

/// The inserts a repair job recorded on top of a shared knowledge-base
/// snapshot, in insertion order.
///
/// Batch mode recovers the paper's cross-case self-learning with these:
/// every job starts from the same read-only snapshot, records its own
/// successful repairs into a delta, and the engine merges all deltas back
/// after the batch under one [`MergePolicy`] — a single normalization
/// over the whole multiset, so the merged base is identical for any
/// worker count *and any submission order*.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct KbDelta {
    /// The recorded inserts, oldest first.
    pub entries: Vec<KbEntry>,
}

impl KbDelta {
    /// Number of recorded inserts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the job recorded nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl KnowledgeBase {
    /// Creates an empty knowledge base.
    #[must_use]
    pub fn new() -> KnowledgeBase {
        KnowledgeBase::default()
    }

    /// Seeds the base with `entries` (used to model a pre-built knowledge
    /// base of a given size for the ablation benchmarks, and to rebuild a
    /// base from decoded storage).
    #[must_use]
    pub fn with_entries(entries: Vec<KbEntry>) -> KnowledgeBase {
        KnowledgeBase {
            base: Base::new(entries),
            ..KnowledgeBase::default()
        }
    }

    /// Number of stored entries (after merging, one entry can stand for
    /// many solved cases — see [`KnowledgeBase::total_weight`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.base.entries.len() + self.overlay.len()
    }

    /// Whether the base is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stored entries in storage order: the base's, then this
    /// handle's inserts. Borrowed while nothing was inserted since the
    /// last fold; otherwise the two parts are copied into one vector.
    #[must_use]
    pub fn entries(&self) -> Cow<'_, [KbEntry]> {
        if self.overlay.is_empty() {
            Cow::Borrowed(&self.base.entries)
        } else {
            Cow::Owned([&self.base.entries[..], &self.overlay].concat())
        }
    }

    /// Total solved cases the base represents (the sum of entry weights —
    /// invariant under dedup and coalescing, unlike [`KnowledgeBase::len`]).
    #[must_use]
    pub fn total_weight(&self) -> u64 {
        self.base
            .entries
            .iter()
            .chain(&self.overlay)
            .map(|e| u64::from(e.weight))
            .sum()
    }

    /// Stores a solved case in this handle's overlay (weight 1; appended,
    /// never merged — merging is a batch operation under an explicit
    /// [`MergePolicy`]).
    pub fn insert(&mut self, vector: AstVector, class: UbClass, rule: RepairRule) {
        self.overlay.push(KbEntry::new(vector, class, rule));
    }

    /// The inserts recorded on this handle since its base was last folded
    /// (by a merge, a compaction or a fault-in): its overlay. For a
    /// handle taken with [`KnowledgeBase::resident_snapshot`], that is
    /// exactly what it learned.
    #[must_use]
    pub fn delta(&self) -> KbDelta {
        KbDelta {
            entries: self.overlay.clone(),
        }
    }

    /// Replaces the base with one holding the base's entries, the
    /// overlay's and then `extra`, and empties the overlay. The old base is
    /// reused when no other handle shares it.
    fn fold(&mut self, extra: impl IntoIterator<Item = KbEntry>, policy: &MergePolicy) {
        let mut entries = match Arc::try_unwrap(std::mem::take(&mut self.base)) {
            Ok(base) => base.entries,
            Err(shared) => shared.entries.clone(),
        };
        entries.append(&mut self.overlay);
        entries.extend(extra);
        self.base = Base::new(policy.normalize(entries));
    }

    /// Merges one delta under `policy`; returns how many delta entries
    /// were submitted. A shorthand for [`KnowledgeBase::merge_all`] with
    /// a single delta — when merging several deltas, pass them all in one
    /// call: the policy normalizes the whole multiset at once, which is
    /// what makes the result independent of submission order.
    pub fn merge(&mut self, delta: &KbDelta, policy: &MergePolicy) -> usize {
        self.merge_all([delta], policy)
    }

    /// Merges every delta's inserts under `policy` in one normalization
    /// pass; returns how many delta entries were submitted.
    ///
    /// Under [`MergePolicy::append_only`] this preserves insertion order
    /// (PR 3's behaviour). Under any reducing policy the whole base —
    /// pre-existing entries included — is normalized to canonical order:
    /// exact duplicates collapse into weights, same-shape rule conflicts
    /// resolve, near-duplicates coalesce. Because normalization is a pure
    /// function of the entry multiset, any permutation of `deltas` (and
    /// any worker count producing them) yields the identical store.
    pub fn merge_all<'a>(
        &mut self,
        deltas: impl IntoIterator<Item = &'a KbDelta>,
        policy: &MergePolicy,
    ) -> usize {
        let mut span = rb_obs::span("kb.merge");
        let mut submitted = 0usize;
        let mut merged = Vec::new();
        for delta in deltas {
            for e in &delta.entries {
                // Merging a class into a lazy base before its shard is
                // resident would leave the on-disk entries shadowed: a
                // later fault-in appends them raw on top of the merged
                // (normalized) bucket, diverging from the eager path.
                // Callers fault the class in first (learning deltas only
                // carry classes the dispatch already ensured).
                debug_assert!(
                    self.is_resident(e.class),
                    "merged class {:?} into a lazy base before its shard was faulted in \
                     (ensure_class first)",
                    e.class
                );
                merged.push(e.clone());
            }
            submitted += delta.len();
        }
        // Normalization reorders the entries; the fresh base indexes them
        // in their new positions.
        self.fold(merged, policy);
        span.tag("submitted", submitted);
        span.tag("entries_after", self.len());
        rb_obs::metrics().counter_add("rustbrain_kb_merges_total", None, 1);
        submitted
    }

    /// Re-normalizes the whole base under `policy` (used when adopting an
    /// append-only store into a bounded one); returns entries removed.
    pub fn compact(&mut self, policy: &MergePolicy) -> usize {
        let mut span = rb_obs::span("kb.compact");
        let before = self.len();
        self.merge_all([], policy);
        let removed = before - self.len();
        span.tag("removed", removed);
        rb_obs::metrics().counter_add("rustbrain_kb_compactions_total", None, 1);
        removed
    }

    /// Retrieves up to `k` few-shots for a query vector, scanning only
    /// the `class` bucket of the index, ranked by cosine similarity
    /// (ties: higher weight first). Entries below the similarity floor
    /// are not returned. Each call accrues simulated query time
    /// proportional to the *bucket*, not the base.
    ///
    /// Retrieval is class-scoped by design: the pre-index scanner could
    /// additionally surface *cross-class* entries whose raw cosine
    /// cleared the floor; the index trades those marginal hits away for
    /// bucket-bounded scan cost (a repair rule learned for another UB
    /// class is rarely the right few-shot anyway).
    pub fn query(&mut self, vector: &AstVector, class: UbClass, k: usize) -> Vec<FewShot> {
        self.query_with(class, k, || vector)
    }

    /// [`KnowledgeBase::query`] with the query vector built on demand:
    /// `embed` runs only when the `class` bucket has entries to score, so
    /// a retrieval against an empty bucket never pays for it. Cost,
    /// counters, metrics and span tags are charged exactly as `query`
    /// charges them.
    pub fn query_with<V: Borrow<AstVector>>(
        &mut self,
        class: UbClass,
        k: usize,
        embed: impl FnOnce() -> V,
    ) -> Vec<FewShot> {
        let mut span = rb_obs::span("kb.query");
        span.tag("class", class.label());
        // A lazy base faults the class's shard in before the cost is
        // computed, so the accrued cost equals the eager-loaded cost. A
        // store error degrades to the not-yet-resident bucket and leaves
        // the class non-resident, so the next touch retries.
        let _ = self.ensure_class(class);
        let cost = self.query_cost_ms(class);
        span.add_sim_ms(cost);
        let m = rb_obs::metrics();
        m.counter_add("rustbrain_kb_queries_total", None, 1);
        m.observe(
            "rustbrain_kb_query_sim_ms",
            Some(("class", class.label())),
            cost,
            rb_obs::SIM_MS_BUCKETS,
        );
        self.queries += 1;
        self.query_time_ms += cost;
        self.last_query_cost_ms = cost;
        if self.class_len(class) == 0 {
            span.tag("shots", 0);
            return Vec::new();
        }
        let vector = embed();
        let vector: &AstVector = vector.borrow();
        let base = &self.base;
        let mut scored: Vec<(f64, &KbEntry)> = base
            .index
            .bucket(class)
            .iter()
            .map(|&i| &base.entries[i as usize])
            .chain(self.overlay.iter().filter(|e| e.class == class))
            .map(|e| {
                // The pre-index scorer gave same-class entries a +0.05
                // bonus before the 0.6 floor; kept so the floor admits
                // the same *same-class* entries it always admitted.
                (vector.cosine(&e.vector) + 0.05, e)
            })
            .filter(|(sim, _)| *sim >= 0.6)
            .collect();
        scored.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.1.weight.cmp(&a.1.weight))
        });
        let shots: Vec<FewShot> = scored
            .into_iter()
            .take(k)
            .map(|(sim, e)| FewShot {
                rule: e.rule,
                similarity: sim.min(1.0),
            })
            .collect();
        span.tag("shots", shots.len());
        shots
    }

    /// Prospective cost of a query for `class` in simulated milliseconds
    /// — exactly what [`KnowledgeBase::query`] will accrue. The pipeline
    /// charges this for the up-front knowledge consult so charged and
    /// accrued overhead cannot drift apart.
    #[must_use]
    pub fn query_cost_ms(&self, class: UbClass) -> f64 {
        bucket_cost_ms(self.class_len(class))
    }

    /// Entries of `class`, in the base and the overlay.
    fn class_len(&self, class: UbClass) -> usize {
        self.base.index.bucket_len(class) + self.overlay.iter().filter(|e| e.class == class).count()
    }

    /// Actual cost of the most recent query in simulated milliseconds
    /// (the empty-bucket cost before any query is made).
    #[must_use]
    pub fn last_query_cost_ms(&self) -> f64 {
        self.last_query_cost_ms
    }

    /// Number of queries served over the base's lifetime.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Total simulated milliseconds spent in queries.
    #[must_use]
    pub fn query_time_ms(&self) -> f64 {
        self.query_time_ms
    }

    /// Encodes the entries to the `.rbkb` wire format (query counters are
    /// runtime state and are not persisted).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        rb_kb::encode_entries(&self.entries())
    }

    /// Decodes a base from `.rbkb` bytes (fresh counters, rebuilt index).
    pub fn from_bytes(bytes: &[u8]) -> Result<KnowledgeBase, CodecError> {
        Ok(KnowledgeBase::with_entries(rb_kb::decode_entries(bytes)?))
    }

    /// Saves the entries atomically in whichever layout `path` implies —
    /// a single `.rbkb` file, or a sharded `.rbkb.d/` directory where
    /// only the segments whose content changed are rewritten.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        self.save_reported(path).map(|_| ())
    }

    /// [`KnowledgeBase::save`], reporting which segments the save wrote,
    /// skipped as already clean, or removed (the engine surfaces this in
    /// its batch telemetry; a single-file save is one written "segment").
    ///
    /// A *partially resident* lazy base refuses to save: a sharded save
    /// removes segments for classes absent from the entries, so saving
    /// before every shard is faulted in would silently destroy the
    /// knowledge still on disk. Call [`KnowledgeBase::ensure_all`] first.
    pub fn save_reported(&self, path: &Path) -> Result<SaveReport, StoreError> {
        if let Some(missing) = self.first_non_resident() {
            return Err(StoreError::Io {
                path: path.to_path_buf(),
                source: std::io::Error::other(format!(
                    "lazy base is only partially resident (shard {:?} still on disk); \
                     call ensure_all() before saving",
                    missing.label()
                )),
            });
        }
        rb_kb::save_any(path, &self.entries())
    }

    /// Loads a base from either store layout (fresh counters, rebuilt
    /// index): a single `.rbkb` file or a sharded `.rbkb.d/` directory.
    pub fn load(path: &Path) -> Result<KnowledgeBase, StoreError> {
        Ok(KnowledgeBase::with_entries(rb_kb::load_any(path)?))
    }

    /// Loads only `class`'s entries from a sharded store — the
    /// single-class fast path: one segment file is read, every other
    /// class's knowledge stays on disk. On a single-file store this
    /// degrades honestly: the file is read whole and filtered.
    pub fn load_class(path: &Path, class: UbClass) -> Result<KnowledgeBase, StoreError> {
        let entries = match rb_kb::detect_layout(path) {
            StoreLayout::Sharded => rb_kb::ShardedStore::open(path)?.load_class(class)?,
            StoreLayout::SingleFile => {
                let mut entries = rb_kb::load(path)?;
                entries.retain(|e| e.class == class);
                entries
            }
        };
        Ok(KnowledgeBase::with_entries(entries))
    }

    /// Opens `path` as a *lazily loaded* base. On a sharded `.rbkb.d/`
    /// store (created empty if missing) the base starts with no entries
    /// and faults each class's segment in on first touch — via
    /// [`KnowledgeBase::query`], [`KnowledgeBase::consult_cost_ms`], or
    /// an explicit [`KnowledgeBase::ensure_class`]. On a single-file
    /// store there is nothing to defer, so this degrades to an eager
    /// [`KnowledgeBase::load`].
    ///
    /// A lazy base answers queries — shots *and* simulated costs —
    /// byte-identically to an eagerly loaded one, because fault-in
    /// happens before any bucket cost is computed and a faulted bucket
    /// holds exactly the eager bucket's entries in segment order.
    pub fn open_lazy(path: &Path) -> Result<KnowledgeBase, StoreError> {
        match rb_kb::detect_layout(path) {
            StoreLayout::Sharded => {
                let store = ShardedStore::open_or_create(path)?;
                let mut kb = KnowledgeBase::new();
                kb.lazy = Some(LazyShards {
                    store: Arc::new(Mutex::new(store)),
                    resident: 0,
                });
                Ok(kb)
            }
            StoreLayout::SingleFile => KnowledgeBase::load(path),
        }
    }

    /// Whether this base lazily faults shards in from a backing store.
    #[must_use]
    pub fn is_lazy(&self) -> bool {
        self.lazy.is_some()
    }

    /// A handle on the currently resident entries with an empty overlay
    /// and no backing store: what a repair job starts from, so that its
    /// [`KnowledgeBase::delta`] is exactly what it learned and its queries
    /// never reach the store behind the dispatcher's back. A reference
    /// bump when nothing was inserted on this handle since its last fold
    /// (always so after a load, merge or compaction); otherwise the
    /// overlay is folded into the snapshot's own base first.
    #[must_use]
    pub fn resident_snapshot(&self) -> KnowledgeBase {
        let mut snapshot = KnowledgeBase {
            base: Arc::clone(&self.base),
            overlay: Vec::new(),
            lazy: None,
            ..*self
        };
        if !self.overlay.is_empty() {
            snapshot.fold(self.overlay.iter().cloned(), &MergePolicy::append_only());
        }
        snapshot
    }

    /// Faults `class`'s shard into the base if this base is lazy and the
    /// shard is not yet resident. Returns whether a segment file was
    /// actually read (an eager base, an already-resident class, and a
    /// class with no segment all return `Ok(false)`). On error the class
    /// stays non-resident, so a later touch retries.
    pub fn ensure_class(&mut self, class: UbClass) -> Result<bool, StoreError> {
        let Some(lazy) = self.lazy.as_mut() else {
            return Ok(false);
        };
        let bit = class_bit(class);
        if lazy.resident & bit != 0 {
            return Ok(false);
        }
        let mut span = rb_obs::span("kb.fault_in");
        span.tag("class", class.label());
        let entries = lazy.lock().load_class(class)?;
        lazy.resident |= bit;
        let read = !entries.is_empty();
        span.tag("entries", entries.len());
        if read {
            rb_obs::metrics().counter_add("rustbrain_kb_fault_ins_total", None, 1);
            self.fold(entries, &MergePolicy::append_only());
        }
        Ok(read)
    }

    /// [`KnowledgeBase::ensure_class`] over a class list; returns how
    /// many segment files were read.
    pub fn ensure_classes(&mut self, classes: &[UbClass]) -> Result<usize, StoreError> {
        let mut read = 0usize;
        for &class in classes {
            read += usize::from(self.ensure_class(class)?);
        }
        Ok(read)
    }

    /// Faults in every shard the backing store holds, making a lazy base
    /// fully resident (a no-op on eager bases); returns how many segment
    /// files were read. Required before [`KnowledgeBase::save`] on a
    /// lazy base.
    pub fn ensure_all(&mut self) -> Result<usize, StoreError> {
        let Some(lazy) = self.lazy.as_ref() else {
            return Ok(0);
        };
        let classes: Vec<UbClass> = lazy
            .lock()
            .manifest()
            .shards
            .iter()
            .map(|m| m.class)
            .collect();
        self.ensure_classes(&classes)
    }

    /// Whether `class`'s knowledge is available in memory: always true
    /// for eager bases; for lazy bases, true once the class was faulted
    /// in — or when the backing store has no segment for it (nothing to
    /// load means nothing is missing).
    #[must_use]
    pub fn is_resident(&self, class: UbClass) -> bool {
        match &self.lazy {
            None => true,
            Some(lazy) => {
                lazy.resident & class_bit(class) != 0
                    || lazy.lock().manifest().shard(class).is_none()
            }
        }
    }

    /// Number of store shards resident in memory: for a lazy base, the
    /// backing segments faulted in so far; for an eager base, the
    /// distinct classes holding entries.
    #[must_use]
    pub fn resident_shards(&self) -> usize {
        match &self.lazy {
            None => {
                let mut classes: u16 = 0;
                for (class, _) in self.base.index.histogram() {
                    classes |= class_bit(class);
                }
                for e in &self.overlay {
                    classes |= class_bit(e.class);
                }
                classes.count_ones() as usize
            }
            Some(lazy) => {
                let store = lazy.lock();
                store
                    .manifest()
                    .shards
                    .iter()
                    .filter(|m| lazy.resident & class_bit(m.class) != 0)
                    .count()
            }
        }
    }

    /// Segment reads for `class` through the backing store handle (0 for
    /// eager bases). The handle is shared with every clone of this base,
    /// so the count aggregates fault-ins across the base and its clones.
    #[must_use]
    pub fn shard_loads(&self, class: UbClass) -> u64 {
        self.lazy.as_ref().map_or(0, |l| l.lock().loads(class))
    }

    /// Segment reads across all classes through the backing store handle
    /// (0 for eager bases; shared with clones like
    /// [`KnowledgeBase::shard_loads`]).
    #[must_use]
    pub fn total_shard_loads(&self) -> u64 {
        self.lazy.as_ref().map_or(0, |l| l.lock().total_loads())
    }

    /// The first store shard not yet faulted in, if any — what makes a
    /// save refusable before data silently goes missing.
    fn first_non_resident(&self) -> Option<UbClass> {
        let lazy = self.lazy.as_ref()?;
        lazy.lock()
            .manifest()
            .shards
            .iter()
            .map(|m| m.class)
            .find(|&c| lazy.resident & class_bit(c) == 0)
    }

    /// Prospective cost of a query for `class`, faulting the class's
    /// shard in first on a lazy base. The fast/slow thinking paths
    /// charge the consult cost *before* querying, so the fault-in must
    /// happen at the charge site — otherwise a lazy base would charge
    /// the empty-bucket cost and then accrue the full-bucket cost,
    /// breaking the charged ≡ accrued invariant eager runs pin.
    pub fn consult_cost_ms(&mut self, class: UbClass) -> f64 {
        let _ = self.ensure_class(class);
        self.query_cost_ms(class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::parser::parse_program;
    use rb_lang::prune::prune_program;

    fn vec_of(src: &str) -> AstVector {
        let p = parse_program(src).unwrap();
        let (pruned, _) = prune_program(&p);
        AstVector::embed(&pruned)
    }

    #[test]
    fn retrieval_prefers_similar_cases() {
        let mut kb = KnowledgeBase::new();
        let dangling = vec_of(
            "fn main() { let q: *const i32 = 0 as *const i32; \
             { let x: i32 = 5; q = &raw const x; } unsafe { print(*q); } }",
        );
        let race = vec_of(
            "static mut G: i32 = 0; fn main() { \
             spawn { unsafe { G = 1; } } spawn { unsafe { G = 2; } } join; }",
        );
        kb.insert(
            dangling.clone(),
            UbClass::DanglingPointer,
            RepairRule::HoistLocalOut,
        );
        kb.insert(race, UbClass::DataRace, RepairRule::LockSpawnBodies);

        let query = vec_of(
            "fn main() { let p: *const i32 = 0 as *const i32; \
             { let val: i32 = 9; p = &raw const val; } unsafe { print(*p); } }",
        );
        let shots = kb.query(&query, UbClass::DanglingPointer, 1);
        assert_eq!(shots.len(), 1);
        assert_eq!(shots[0].rule, RepairRule::HoistLocalOut);
        assert!(shots[0].similarity > 0.9);
    }

    #[test]
    fn dissimilar_entries_filtered() {
        let mut kb = KnowledgeBase::new();
        let race = vec_of(
            "static mut G: i32 = 0; fn main() { \
             spawn { unsafe { G = 1; } } spawn { unsafe { G = 2; } } join; }",
        );
        kb.insert(race, UbClass::DataRace, RepairRule::LockSpawnBodies);
        // An empty-ish program is not similar to a threaded one.
        let query = vec_of("fn main() { print(1i32); }");
        let shots = kb.query(&query, UbClass::DataRace, 3);
        assert!(shots.is_empty(), "{shots:?}");
    }

    #[test]
    fn delta_records_only_post_snapshot_inserts() {
        let v = vec_of("fn main() { print(1i32); }");
        let mut snapshot = KnowledgeBase::new();
        snapshot.insert(v.clone(), UbClass::Panic, RepairRule::GuardDivision);
        // A snapshot folds its source's inserts into its base.
        let snapshot = snapshot.resident_snapshot();
        assert!(snapshot.delta().is_empty());

        // A job starts from the snapshot and learns two more cases.
        let mut job_kb = snapshot.clone();
        job_kb.insert(v.clone(), UbClass::Alloc, RepairRule::RemoveDoubleFree);
        job_kb.insert(v.clone(), UbClass::DataRace, RepairRule::LockSpawnBodies);
        let delta = job_kb.delta();
        assert_eq!(delta.len(), 2);
        assert_eq!(delta.entries[0].class, UbClass::Alloc);
        assert_eq!(delta.entries[1].class, UbClass::DataRace);

        // Merging back grows the snapshot (distinct classes: no policy
        // pass can collapse them), and leaves nothing pending.
        let mut merged = snapshot.clone();
        assert_eq!(merged.merge(&delta, &MergePolicy::default()), 2);
        assert_eq!(merged.len(), 3);
        assert!(merged.delta().is_empty());
        assert_eq!(snapshot.len(), 1, "the merge folded into a base of its own");
    }

    #[test]
    fn a_clone_shares_its_base_and_copies_no_entry() {
        let v = vec_of("fn main() { let z: i32 = 0; print(5 / z); }");
        let kb = KnowledgeBase::with_entries(vec![
            KbEntry::new(v.clone(), UbClass::Panic, RepairRule::GuardDivision),
            KbEntry::new(v.clone(), UbClass::Alloc, RepairRule::RemoveDoubleFree),
        ]);
        let job = kb.clone();
        assert!(Arc::ptr_eq(&kb.base, &job.base));
        assert!(job.overlay.is_empty() && job.overlay.capacity() == 0);
        let snapshot = kb.resident_snapshot();
        assert!(Arc::ptr_eq(&kb.base, &snapshot.base));
        assert!(matches!(kb.entries(), Cow::Borrowed(_)));
    }

    #[test]
    fn queries_over_an_overlay_match_a_base_of_the_same_entries() {
        let dangling = vec_of(
            "fn main() { let q: *const i32 = 0 as *const i32; \
             { let x: i32 = 5; q = &raw const x; } unsafe { print(*q); } }",
        );
        let near = vec_of(
            "fn main() { let p: *const i32 = 0 as *const i32; \
             { let val: i32 = 9; p = &raw const val; } unsafe { print(*p); } }",
        );
        let other = vec_of("fn main() { let z: i32 = 0; print(5 / z); }");
        let seed = vec![
            KbEntry::new(
                dangling.clone(),
                UbClass::DanglingPointer,
                RepairRule::HoistLocalOut,
            ),
            KbEntry::new(other.clone(), UbClass::Panic, RepairRule::GuardDivision),
        ];
        // Equal vectors tie on similarity and weight: their order is the
        // storage order, base first.
        let learned = [
            (
                near.clone(),
                UbClass::DanglingPointer,
                RepairRule::UseDirectPointer,
            ),
            (
                dangling.clone(),
                UbClass::DanglingPointer,
                RepairRule::BorrowLocalInstead,
            ),
            (other.clone(), UbClass::Panic, RepairRule::GuardDivision),
        ];
        let mut layered = KnowledgeBase::with_entries(seed.clone());
        let mut all = seed;
        for (v, class, rule) in &learned {
            layered.insert(v.clone(), *class, *rule);
            all.push(KbEntry::new(v.clone(), *class, *rule));
        }
        let mut flat = KnowledgeBase::with_entries(all);
        assert_eq!(layered.entries(), flat.entries());
        for class in [UbClass::DanglingPointer, UbClass::Panic, UbClass::DataRace] {
            for query in [&dangling, &near, &other] {
                assert_eq!(layered.query_cost_ms(class), flat.query_cost_ms(class));
                assert_eq!(layered.query(query, class, 3), flat.query(query, class, 3));
                assert_eq!(layered.last_query_cost_ms(), flat.last_query_cost_ms());
            }
        }
        assert_eq!(layered.query_time_ms(), flat.query_time_ms());
        assert_eq!(layered.resident_shards(), flat.resident_shards());
        assert_eq!(layered.total_weight(), flat.total_weight());
        // The overlay is the delta.
        let delta = layered.delta();
        assert_eq!(delta.entries[..], flat.entries()[2..]);
    }

    #[test]
    fn merge_policy_collapses_duplicates_into_weight() {
        let v = vec_of("fn main() { print(1i32); }");
        let mut kb = KnowledgeBase::new();
        kb.insert(v.clone(), UbClass::Panic, RepairRule::GuardDivision);
        let delta = KbDelta {
            entries: vec![
                KbEntry::new(v.clone(), UbClass::Panic, RepairRule::GuardDivision),
                KbEntry::new(v.clone(), UbClass::Panic, RepairRule::GuardDivision),
            ],
        };
        assert_eq!(kb.merge(&delta, &MergePolicy::default()), 2);
        assert_eq!(kb.len(), 1, "duplicates must collapse");
        assert_eq!(
            kb.total_weight(),
            3,
            "weight must count the collapsed cases"
        );
        // Retrieval still works over the merged, re-indexed base.
        assert_eq!(kb.query(&v, UbClass::Panic, 1).len(), 1);
        // Append-only keeps every duplicate.
        let mut plain = KnowledgeBase::new();
        plain.insert(v.clone(), UbClass::Panic, RepairRule::GuardDivision);
        plain.merge(&delta, &MergePolicy::append_only());
        assert_eq!(plain.len(), 3);
        assert_eq!(plain.compact(&MergePolicy::default()), 2);
        assert_eq!(plain.len(), 1);
    }

    #[test]
    fn query_cost_scales_with_bucket_not_base() {
        let mut kb = KnowledgeBase::new();
        let v = vec_of("fn main() { print(1i32); }");
        let c0 = kb.query_cost_ms(UbClass::Panic);
        for _ in 0..50 {
            kb.insert(v.clone(), UbClass::Alloc, RepairRule::RemoveDoubleFree);
        }
        // Another class's entries do not make Panic queries slower…
        assert_eq!(kb.query_cost_ms(UbClass::Panic), c0);
        // …its own do.
        kb.insert(v.clone(), UbClass::Panic, RepairRule::GuardDivision);
        assert!(kb.query_cost_ms(UbClass::Panic) > c0);
        // The charged cost is exactly what a query accrues.
        let predicted = kb.query_cost_ms(UbClass::Panic);
        kb.query(&v, UbClass::Panic, 1);
        assert_eq!(kb.last_query_cost_ms(), predicted);
        assert_eq!(kb.query_time_ms(), predicted);
        assert_eq!(kb.queries(), 1);
    }

    #[test]
    fn query_with_embeds_only_for_a_non_empty_bucket() {
        let v = vec_of("fn main() { let z: i32 = 0; print(5 / z); }");
        let mut kb = KnowledgeBase::new();
        kb.insert(v.clone(), UbClass::Alloc, RepairRule::RemoveDoubleFree);
        kb.insert(v.clone(), UbClass::Panic, RepairRule::GuardDivision);
        let mut lazy = kb.clone();
        // Empty bucket: the closure never runs, and the accounting moves
        // exactly as a plain query moves it.
        let shots = lazy.query_with(UbClass::DataRace, 2, || -> AstVector {
            panic!("embedded for an empty bucket")
        });
        assert!(shots.is_empty());
        assert!(kb.query(&v, UbClass::DataRace, 2).is_empty());
        let counters =
            |kb: &KnowledgeBase| (kb.queries(), kb.query_time_ms(), kb.last_query_cost_ms());
        assert_eq!(counters(&lazy), counters(&kb));
        // Non-empty bucket: the same shots and the same accounting.
        let mut ran = false;
        let lazy_shots = lazy.query_with(UbClass::Panic, 2, || {
            ran = true;
            v.clone()
        });
        assert!(ran);
        assert_eq!(lazy_shots, kb.query(&v, UbClass::Panic, 2));
        assert_eq!(lazy_shots.len(), 1);
        assert_eq!(counters(&lazy), counters(&kb));
    }

    #[test]
    fn sharded_and_single_file_layouts_both_round_trip() {
        let dir = std::env::temp_dir().join(format!("rb_core_kb_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut kb = KnowledgeBase::new();
        let dangling = vec_of(
            "fn main() { let q: *const i32 = 0 as *const i32; \
             { let x: i32 = 5; q = &raw const x; } unsafe { print(*q); } }",
        );
        let race = vec_of(
            "static mut G: i32 = 0; fn main() { \
             spawn { unsafe { G = 1; } } spawn { unsafe { G = 2; } } join; }",
        );
        kb.insert(
            dangling.clone(),
            UbClass::DanglingPointer,
            RepairRule::HoistLocalOut,
        );
        kb.insert(race, UbClass::DataRace, RepairRule::LockSpawnBodies);

        let single = dir.join("store.rbkb");
        let sharded = dir.join("store.rbkb.d");
        kb.save(&single).unwrap();
        let report = kb.save_reported(&sharded).unwrap();
        assert_eq!(report.shards_written, 2, "two classes, two segments");

        // Both layouts revive the same base (sharded order groups by
        // class code; these two classes are already in code order).
        let from_single = KnowledgeBase::load(&single).unwrap();
        let from_sharded = KnowledgeBase::load(&sharded).unwrap();
        assert_eq!(from_single.entries(), kb.entries());
        assert_eq!(from_sharded.entries(), kb.entries());

        // The single-class fast path sees exactly one class's knowledge,
        // and retrieval over it still works.
        let mut one = KnowledgeBase::load_class(&sharded, UbClass::DanglingPointer).unwrap();
        assert_eq!(one.len(), 1);
        let shots = one.query(&dangling, UbClass::DanglingPointer, 1);
        assert_eq!(
            shots.first().map(|s| s.rule),
            Some(RepairRule::HoistLocalOut)
        );
        // …and the same call against the single-file store filters.
        let one = KnowledgeBase::load_class(&single, UbClass::DataRace).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(one.entries()[0].rule, RepairRule::LockSpawnBodies);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lazy_base_faults_in_only_touched_shards() {
        let dir = std::env::temp_dir().join(format!("rb_core_lazy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("lazy.rbkb.d");
        let dangling = vec_of(
            "fn main() { let q: *const i32 = 0 as *const i32; \
             { let x: i32 = 5; q = &raw const x; } unsafe { print(*q); } }",
        );
        let race = vec_of(
            "static mut G: i32 = 0; fn main() { \
             spawn { unsafe { G = 1; } } spawn { unsafe { G = 2; } } join; }",
        );
        let mut eager = KnowledgeBase::new();
        eager.insert(
            dangling.clone(),
            UbClass::DanglingPointer,
            RepairRule::HoistLocalOut,
        );
        eager.insert(race.clone(), UbClass::DataRace, RepairRule::LockSpawnBodies);
        eager.save(&store).unwrap();

        let mut lazy = KnowledgeBase::open_lazy(&store).unwrap();
        assert!(lazy.is_lazy());
        assert!(lazy.is_empty(), "a lazy base starts with nothing resident");
        assert_eq!(lazy.resident_shards(), 0);
        assert_eq!(lazy.total_shard_loads(), 0);
        assert!(!lazy.is_resident(UbClass::DataRace));
        // A class without a segment is trivially resident.
        assert!(lazy.is_resident(UbClass::Panic));

        // The first touch faults exactly one shard in; shots and costs
        // match the eager base.
        let mut eager_q = eager.clone();
        let want_cost = eager_q.query_cost_ms(UbClass::DanglingPointer);
        assert_eq!(lazy.consult_cost_ms(UbClass::DanglingPointer), want_cost);
        let shots = lazy.query(&dangling, UbClass::DanglingPointer, 1);
        assert_eq!(shots, eager_q.query(&dangling, UbClass::DanglingPointer, 1));
        assert_eq!(lazy.last_query_cost_ms(), eager_q.last_query_cost_ms());
        assert_eq!(lazy.resident_shards(), 1);
        assert_eq!(lazy.shard_loads(UbClass::DanglingPointer), 1);
        assert_eq!(lazy.shard_loads(UbClass::DataRace), 0);

        // Repeated touches never reload a resident shard.
        lazy.query(&dangling, UbClass::DanglingPointer, 1);
        assert!(!lazy.ensure_class(UbClass::DanglingPointer).unwrap());
        assert_eq!(lazy.total_shard_loads(), 1);

        // Clones share the store handle: a clone's fault-in is counted
        // on the same per-shard load counters.
        let mut job = lazy.clone();
        job.query(&race, UbClass::DataRace, 1);
        assert_eq!(lazy.shard_loads(UbClass::DataRace), 1);
        assert_eq!(lazy.resident_shards(), 1, "residency stays per-clone");

        // ensure_all makes the base fully resident and equal to the
        // eager base as a per-class multiset.
        lazy.ensure_all().unwrap();
        assert_eq!(lazy.resident_shards(), 2);
        let mut got: Vec<_> = lazy.entries().to_vec();
        let mut want: Vec<_> = eager.entries().to_vec();
        let key = |e: &KbEntry| (class_code(e.class), rb_kb::codec::rule_code(e.rule));
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_fault_in_leaves_other_handles_on_the_base_unchanged() {
        let dir = std::env::temp_dir().join(format!("rb_core_lazy_cow_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("cow.rbkb.d");
        let v = vec_of("fn main() { let z: i32 = 0; print(5 / z); }");
        let mut eager = KnowledgeBase::new();
        eager.insert(v.clone(), UbClass::Panic, RepairRule::GuardDivision);
        eager.insert(v.clone(), UbClass::Alloc, RepairRule::RemoveDoubleFree);
        eager.save(&store).unwrap();

        let mut lazy = KnowledgeBase::open_lazy(&store).unwrap();
        lazy.ensure_class(UbClass::Panic).unwrap();
        let other = lazy.clone();
        let snapshot = lazy.resident_snapshot();
        assert!(Arc::ptr_eq(&lazy.base, &other.base));
        assert!(Arc::ptr_eq(&lazy.base, &snapshot.base));

        // The fault-in folds into a base of the faulting handle's own.
        assert!(lazy.ensure_class(UbClass::Alloc).unwrap());
        assert_eq!(lazy.len(), 2);
        assert!(!Arc::ptr_eq(&lazy.base, &other.base));
        for view in [&other, &snapshot] {
            assert_eq!(view.len(), 1);
            assert_eq!(view.entries()[0].class, UbClass::Panic);
            assert_eq!(view.query_cost_ms(UbClass::Alloc), bucket_cost_ms(0));
        }
        assert!(
            !other.is_resident(UbClass::Alloc),
            "residency stays per-handle"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lazy_partial_save_is_refused_until_fully_resident() {
        let dir = std::env::temp_dir().join(format!("rb_core_lazy_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("guard.rbkb.d");
        let v = vec_of("fn main() { print(1i32); }");
        let mut kb = KnowledgeBase::new();
        kb.insert(v.clone(), UbClass::Panic, RepairRule::GuardDivision);
        kb.insert(v.clone(), UbClass::Alloc, RepairRule::RemoveDoubleFree);
        kb.save(&store).unwrap();

        let mut lazy = KnowledgeBase::open_lazy(&store).unwrap();
        lazy.ensure_class(UbClass::Panic).unwrap();
        // Saving now would delete the still-on-disk Alloc segment.
        let err = lazy.save_reported(&store).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        assert!(err.to_string().contains("partially resident"), "{err}");

        lazy.ensure_all().unwrap();
        lazy.save_reported(&store).unwrap();
        // Nothing was lost: the store still revives both classes.
        assert_eq!(KnowledgeBase::load(&store).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_lazy_on_single_file_degrades_to_eager() {
        let dir = std::env::temp_dir().join(format!("rb_core_lazy_single_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("eager.rbkb");
        let v = vec_of("fn main() { print(1i32); }");
        let mut kb = KnowledgeBase::new();
        kb.insert(v.clone(), UbClass::Panic, RepairRule::GuardDivision);
        kb.save(&file).unwrap();
        let lazy = KnowledgeBase::open_lazy(&file).unwrap();
        assert!(!lazy.is_lazy(), "a single file has nothing to defer");
        assert_eq!(lazy.len(), 1);
        assert!(lazy.is_resident(UbClass::Panic));
        assert_eq!(lazy.resident_shards(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_lazy_creates_a_missing_sharded_store() {
        let dir = std::env::temp_dir().join(format!("rb_core_lazy_fresh_{}", std::process::id()));
        let store = dir.join("fresh.rbkb.d");
        let mut lazy = KnowledgeBase::open_lazy(&store).unwrap();
        assert!(lazy.is_lazy());
        assert_eq!(lazy.ensure_all().unwrap(), 0);
        // Fully resident by construction, so saving is allowed.
        let v = vec_of("fn main() { print(1i32); }");
        lazy.insert(v, UbClass::Panic, RepairRule::GuardDivision);
        lazy.save(&store).unwrap();
        assert_eq!(KnowledgeBase::load(&store).unwrap().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bytes_round_trip_preserves_retrieval() {
        let mut kb = KnowledgeBase::new();
        let v = vec_of(
            "fn main() { let q: *const i32 = 0 as *const i32; \
             { let x: i32 = 5; q = &raw const x; } unsafe { print(*q); } }",
        );
        kb.insert(
            v.clone(),
            UbClass::DanglingPointer,
            RepairRule::HoistLocalOut,
        );
        let mut revived = KnowledgeBase::from_bytes(&kb.to_bytes()).unwrap();
        assert_eq!(revived.entries(), kb.entries());
        assert_eq!(revived.queries(), 0, "counters are runtime state");
        let shots = revived.query(&v, UbClass::DanglingPointer, 1);
        assert_eq!(
            shots.first().map(|s| s.rule),
            Some(RepairRule::HoistLocalOut)
        );
        assert!(KnowledgeBase::from_bytes(b"garbage").is_err());
    }
}
