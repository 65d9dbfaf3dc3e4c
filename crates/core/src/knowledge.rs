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
//! A base is always loaded whole ([`KnowledgeBase::load`], either store
//! layout): the learned base is tens of entries, and every workload that
//! opens a store touches every class, so deferring reads would save
//! nothing a run can see.

use rb_kb::index::query_cost_ms as bucket_cost_ms;
use rb_kb::KbIndex;
use rb_lang::vectorize::AstVector;
use rb_llm::{FewShot, RepairRule};
use rb_miri::UbClass;
use serde::{Deserialize, Serialize};
use std::borrow::{Borrow, Cow};
use std::path::Path;
use std::sync::Arc;

pub use rb_kb::{CodecError, ConflictResolution, KbEntry, MergePolicy, SaveReport, StoreError};

/// The knowledge base: a shared read-only base plus this handle's own
/// inserts.
///
/// The base (entries and their class index) sits behind an [`Arc`], so a
/// clone — what every batch job and daemon request starts from — is a
/// reference bump. [`KnowledgeBase::insert`] appends to the handle's
/// overlay, never to the base: the overlay is the handle's
/// [`KnowledgeBase::delta`]. A query scans the base's class bucket, then
/// the overlay's entries of that class, both in insertion order, which is
/// the order one entry vector holding both would give. A merge and a
/// compaction fold the overlay into a fresh base that only this handle
/// holds; every other handle keeps its view.
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

impl Default for KnowledgeBase {
    fn default() -> KnowledgeBase {
        KnowledgeBase {
            base: Arc::default(),
            overlay: Vec::new(),
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
    /// (by a merge or a compaction): its overlay. For a handle taken with
    /// [`KnowledgeBase::snapshot`], that is exactly what it learned.
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
            merged.extend(delta.entries.iter().cloned());
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
    pub fn save_reported(&self, path: &Path) -> Result<SaveReport, StoreError> {
        rb_kb::save_any(path, &self.entries())
    }

    /// Loads a base from either store layout (fresh counters, rebuilt
    /// index): a single `.rbkb` file or a sharded `.rbkb.d/` directory.
    pub fn load(path: &Path) -> Result<KnowledgeBase, StoreError> {
        Ok(KnowledgeBase::with_entries(rb_kb::load_any(path)?))
    }

    /// A handle on this base with an empty overlay: what a repair job
    /// starts from, so that its [`KnowledgeBase::delta`] is exactly what
    /// it learned. A reference bump when nothing was inserted on this
    /// handle since its last fold (always so after a load, merge or
    /// compaction); otherwise the overlay is folded into the snapshot's
    /// own base first.
    #[must_use]
    pub fn snapshot(&self) -> KnowledgeBase {
        let mut snapshot = KnowledgeBase {
            base: Arc::clone(&self.base),
            overlay: Vec::new(),
            ..*self
        };
        if !self.overlay.is_empty() {
            snapshot.fold(self.overlay.iter().cloned(), &MergePolicy::append_only());
        }
        snapshot
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
        let snapshot = snapshot.snapshot();
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
        let snapshot = kb.snapshot();
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
        let mut on_demand = kb.clone();
        // Empty bucket: the closure never runs, and the accounting moves
        // exactly as a plain query moves it.
        let shots = on_demand.query_with(UbClass::DataRace, 2, || -> AstVector {
            panic!("embedded for an empty bucket")
        });
        assert!(shots.is_empty());
        assert!(kb.query(&v, UbClass::DataRace, 2).is_empty());
        let counters =
            |kb: &KnowledgeBase| (kb.queries(), kb.query_time_ms(), kb.last_query_cost_ms());
        assert_eq!(counters(&on_demand), counters(&kb));
        // Non-empty bucket: the same shots and the same accounting.
        let mut ran = false;
        let shots_on_demand = on_demand.query_with(UbClass::Panic, 2, || {
            ran = true;
            v.clone()
        });
        assert!(ran);
        assert_eq!(shots_on_demand, kb.query(&v, UbClass::Panic, 2));
        assert_eq!(shots_on_demand.len(), 1);
        assert_eq!(counters(&on_demand), counters(&kb));
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
            dangling,
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
