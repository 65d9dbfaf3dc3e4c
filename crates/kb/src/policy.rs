//! The merge policy: what happens when learned entries meet.
//!
//! PR 3's recovered batch learning merged knowledge deltas by blind
//! append, so the base — and with it the simulated per-query scan cost —
//! grew without bound: every rediscovery of an already-solved shape
//! occupied a fresh slot. A [`MergePolicy`] replaces that with three
//! independently configurable reductions:
//!
//! 1. **Exact dedup** — entries with identical `(vector, class, rule)`
//!    collapse into one, summing their weights.
//! 2. **Conflict resolution** — entries with identical `(vector, class)`
//!    but different rules are a disagreement about how to fix one shape;
//!    [`ConflictResolution::HighestWeight`] keeps only the most-reinforced
//!    rule (ties break to the lowest wire code, so the outcome never
//!    depends on encounter order).
//! 3. **Near-duplicate coalescing** — same-`(class, rule)` entries whose
//!    vectors are closer than a cosine threshold describe the same shape
//!    up to noise; they fold into one representative, summing weights.
//!
//! [`MergePolicy::normalize`] applies the three in that order as a *pure
//! function of the entry multiset*: any permutation of the same entries
//! normalizes to the identical store (property-tested in
//! `tests/props.rs`). That is a deliberately stronger guarantee than the
//! engine's submission-order merge needs, and it is what makes warm-start
//! chains reproducible: cold → save → load → warm gives the same base no
//! matter how the batch's deltas were ordered.

use crate::codec::{class_code, rule_code};
use crate::KbEntry;
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};

/// How same-`(vector, class)` entries with *different* rules resolve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConflictResolution {
    /// Keep every rule (a query ranks them; nothing is lost).
    KeepAll,
    /// Keep only the rule with the highest weight; ties break to the
    /// lowest rule wire code. The winner keeps its own weight — dropped
    /// rules were evidence *against* each other, not reinforcement.
    #[default]
    HighestWeight,
}

/// A configurable merge policy. See the module docs for the semantics of
/// each knob; [`MergePolicy::default`] is the bounded-growth policy the
/// engine and CLI use, [`MergePolicy::append_only`] is PR 3's behaviour.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MergePolicy {
    /// Collapse exact `(vector, class, rule)` duplicates into a weight.
    pub dedup_exact: bool,
    /// How same-shape different-rule disagreements resolve.
    pub conflict: ConflictResolution,
    /// Cosine similarity at or above which same-`(class, rule)` vectors
    /// coalesce into one entry (`None` disables coalescing).
    pub coalesce_threshold: Option<f64>,
}

/// Default cosine threshold for near-duplicate coalescing: tight enough
/// that only noise-level variants of one shape fold together (the
/// retrieval floor is 0.6 — far below).
pub const DEFAULT_COALESCE_THRESHOLD: f64 = 0.995;

/// Tightened coalescing threshold for background compaction: lower than
/// the live-merge default, so shapes the online policy kept distinct fold
/// together when a shard is re-normalized offline — bounding segment
/// growth harder than the per-batch merge does.
pub const COMPACTION_COALESCE_THRESHOLD: f64 = 0.98;

impl Default for MergePolicy {
    fn default() -> MergePolicy {
        MergePolicy {
            dedup_exact: true,
            conflict: ConflictResolution::HighestWeight,
            coalesce_threshold: Some(DEFAULT_COALESCE_THRESHOLD),
        }
    }
}

impl MergePolicy {
    /// PR 3's blind-append behaviour: nothing collapses, order is
    /// preserved, entry count grows with every delta.
    #[must_use]
    pub fn append_only() -> MergePolicy {
        MergePolicy {
            dedup_exact: false,
            conflict: ConflictResolution::KeepAll,
            coalesce_threshold: None,
        }
    }

    /// The compaction policy: exact dedup plus near-duplicate coalescing
    /// at `threshold` (typically the tightened
    /// [`COMPACTION_COALESCE_THRESHOLD`]), with conflict resolution OFF —
    /// compaction only *folds* weight, it never drops a rule, so the
    /// store's total solved-case weight is invariant under it (the
    /// property `kb compact` and the CI smoke assert).
    #[must_use]
    pub fn compaction(threshold: f64) -> MergePolicy {
        MergePolicy {
            dedup_exact: true,
            conflict: ConflictResolution::KeepAll,
            coalesce_threshold: Some(threshold),
        }
    }

    /// Whether this policy performs no reduction at all (normalize is the
    /// identity and preserves insertion order).
    #[must_use]
    pub fn is_append_only(&self) -> bool {
        !self.dedup_exact
            && self.conflict == ConflictResolution::KeepAll
            && self.coalesce_threshold.is_none()
    }

    /// Short human label for banners and `kb inspect`.
    #[must_use]
    pub fn label(&self) -> String {
        if self.is_append_only() {
            return "append-only".to_owned();
        }
        let mut parts = Vec::new();
        if self.dedup_exact {
            parts.push("dedup".to_owned());
        }
        if self.conflict == ConflictResolution::HighestWeight {
            parts.push("highest-weight".to_owned());
        }
        if let Some(t) = self.coalesce_threshold {
            parts.push(format!("coalesce@{t}"));
        }
        parts.join("+")
    }

    /// Reduces an entry multiset to its canonical form under this policy:
    /// exact dedup, then conflict resolution, then near-duplicate
    /// coalescing, returned in canonical `(class, rule, vector)` order.
    ///
    /// Pure in the multiset: permuting `entries` cannot change the result.
    /// For [`MergePolicy::append_only`] this is the identity (insertion
    /// order preserved).
    #[must_use]
    pub fn normalize(&self, entries: Vec<KbEntry>) -> Vec<KbEntry> {
        self.normalize_from(entries.into_iter().map(Cow::Owned))
    }

    /// [`MergePolicy::normalize`] over entries it may borrow: a borrowed
    /// entry is cloned only if it survives, so a merge of many deltas
    /// copies the few entries it keeps rather than every submission.
    #[must_use]
    pub fn normalize_from<'a>(
        &self,
        entries: impl IntoIterator<Item = Cow<'a, KbEntry>>,
    ) -> Vec<KbEntry> {
        if self.is_append_only() {
            return entries.into_iter().map(Cow::into_owned).collect();
        }
        // Decorate with bit patterns so f64 ordering is total and NaN-safe.
        let bits_of =
            |e: &KbEntry| -> Vec<u64> { e.vector.components.iter().map(|c| c.to_bits()).collect() };

        // Pass 1 — exact dedup over (class, rule, vector bits), by hash
        // and before any sort: a merge submits each learned shape many
        // times over, and the passes below sort only the distinct ones.
        // Exact duplicates differ in weight alone, and a saturating sum
        // of weights does not depend on their order.
        let mut decorated: Vec<(Vec<u64>, Cow<'a, KbEntry>)> = if self.dedup_exact {
            let mut seen: HashMap<(u8, u8, Vec<u64>), usize> = HashMap::new();
            let mut kept: Vec<(Vec<u64>, Cow<'a, KbEntry>)> = Vec::new();
            for e in entries {
                match seen.entry((class_code(e.class), rule_code(e.rule), bits_of(&e))) {
                    Entry::Occupied(at) => {
                        let last = kept[*at.get()].1.to_mut();
                        last.weight = last.weight.saturating_add(e.weight);
                    }
                    Entry::Vacant(at) => {
                        at.insert(kept.len());
                        kept.push((Vec::new(), e));
                    }
                }
            }
            for ((_, _, bits), at) in seen {
                kept[at].0 = bits;
            }
            kept
        } else {
            entries.into_iter().map(|e| (bits_of(&e), e)).collect()
        };

        // Pass 2 — conflict resolution over (class, vector bits).
        if self.conflict == ConflictResolution::HighestWeight {
            decorated.sort_by(|(ab, a), (bb, b)| {
                class_code(a.class)
                    .cmp(&class_code(b.class))
                    .then_with(|| ab.cmp(bb))
                    .then_with(|| rule_code(a.rule).cmp(&rule_code(b.rule)))
            });
            let mut resolved: Vec<(Vec<u64>, Cow<'a, KbEntry>)> =
                Vec::with_capacity(decorated.len());
            for (bits, e) in decorated {
                match resolved.last_mut() {
                    Some((lb, last)) if last.class == e.class && *lb == bits => {
                        // Same shape, different rule (exact dups are gone
                        // or, without dedup, identical rules still compete
                        // harmlessly): higher weight wins; the tie falls
                        // to `last`, which has the lower rule code.
                        if e.weight > last.weight {
                            *last = e;
                        }
                    }
                    _ => resolved.push((bits, e)),
                }
            }
            decorated = resolved;
        }

        // Pass 3 — near-duplicate coalescing within (class, rule), greedy
        // in canonical order: each entry folds into the first kept entry
        // of its group within the threshold, else is kept itself. The
        // sorts are stable, so entries equal under a sort's key (exact
        // duplicates, when dedup is off) keep their submission order.
        decorated.sort_by(|(ab, a), (bb, b)| {
            (class_code(a.class), rule_code(a.rule))
                .cmp(&(class_code(b.class), rule_code(b.rule)))
                .then_with(|| ab.cmp(bb))
        });
        let mut out: Vec<Cow<'a, KbEntry>> = Vec::with_capacity(decorated.len());
        if let Some(threshold) = self.coalesce_threshold {
            let mut group_start = 0usize; // first kept entry of the current (class, rule) group
            for (_, e) in decorated {
                if out[group_start..]
                    .first()
                    .is_some_and(|k| (k.class, k.rule) != (e.class, e.rule))
                {
                    group_start = out.len();
                }
                let absorbed = out[group_start..]
                    .iter_mut()
                    .find(|k| k.vector.cosine(&e.vector) >= threshold);
                match absorbed {
                    Some(k) => {
                        let k = k.to_mut();
                        k.weight = k.weight.saturating_add(e.weight);
                    }
                    None => out.push(e),
                }
            }
        } else {
            out.extend(decorated.into_iter().map(|(_, e)| e));
        }
        out.into_iter().map(Cow::into_owned).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::vectorize::AstVector;
    use rb_llm::RepairRule;
    use rb_miri::UbClass;

    fn entry(v: &[f64], class: UbClass, rule: RepairRule, weight: u32) -> KbEntry {
        KbEntry {
            vector: AstVector {
                components: v.to_vec(),
            },
            class,
            rule,
            weight,
        }
    }

    #[test]
    fn exact_duplicates_collapse_into_weight() {
        let policy = MergePolicy {
            dedup_exact: true,
            conflict: ConflictResolution::KeepAll,
            coalesce_threshold: None,
        };
        let out = policy.normalize(vec![
            entry(&[1.0, 0.0], UbClass::Panic, RepairRule::GuardDivision, 1),
            entry(&[1.0, 0.0], UbClass::Panic, RepairRule::GuardDivision, 2),
            entry(&[0.0, 1.0], UbClass::Panic, RepairRule::GuardDivision, 1),
        ]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.iter().map(|e| e.weight).sum::<u32>(), 4);
    }

    #[test]
    fn conflicts_resolve_to_highest_weight_then_lowest_code() {
        let policy = MergePolicy {
            dedup_exact: true,
            conflict: ConflictResolution::HighestWeight,
            coalesce_threshold: None,
        };
        let out = policy.normalize(vec![
            entry(&[1.0], UbClass::Panic, RepairRule::WeakenAssert, 1),
            entry(&[1.0], UbClass::Panic, RepairRule::GuardDivision, 3),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RepairRule::GuardDivision);
        assert_eq!(out[0].weight, 3);

        // Equal weights: the lower wire code survives, whatever the order.
        let tie = |a: RepairRule, b: RepairRule| {
            policy.normalize(vec![
                entry(&[1.0], UbClass::Panic, a, 2),
                entry(&[1.0], UbClass::Panic, b, 2),
            ])
        };
        let ab = tie(RepairRule::GuardDivision, RepairRule::WeakenAssert);
        let ba = tie(RepairRule::WeakenAssert, RepairRule::GuardDivision);
        assert_eq!(ab, ba);
        assert_eq!(ab[0].rule, RepairRule::GuardDivision);
    }

    #[test]
    fn near_duplicates_coalesce_and_distinct_shapes_survive() {
        let policy = MergePolicy {
            dedup_exact: false,
            conflict: ConflictResolution::KeepAll,
            coalesce_threshold: Some(0.99),
        };
        let out = policy.normalize(vec![
            entry(&[1.0, 0.001], UbClass::Alloc, RepairRule::AddDealloc, 1),
            entry(&[1.0, 0.002], UbClass::Alloc, RepairRule::AddDealloc, 1),
            entry(&[0.0, 1.0], UbClass::Alloc, RepairRule::AddDealloc, 1),
            // Same vector but another rule: coalescing never crosses rules.
            entry(
                &[1.0, 0.001],
                UbClass::Alloc,
                RepairRule::RemoveDoubleFree,
                1,
            ),
        ]);
        assert_eq!(out.len(), 3);
        let coalesced = out
            .iter()
            .find(|e| e.rule == RepairRule::AddDealloc && e.weight == 2)
            .expect("near-duplicates should have coalesced");
        assert_eq!(coalesced.vector.components[1], 0.001);
    }

    #[test]
    fn append_only_is_identity() {
        let entries = vec![
            entry(&[1.0], UbClass::Panic, RepairRule::GuardDivision, 1),
            entry(&[1.0], UbClass::Panic, RepairRule::GuardDivision, 1),
        ];
        let policy = MergePolicy::append_only();
        assert!(policy.is_append_only());
        assert_eq!(policy.normalize(entries.clone()), entries);
        assert!(!MergePolicy::default().is_append_only());
    }

    #[test]
    fn labels_describe_the_knobs() {
        assert_eq!(MergePolicy::append_only().label(), "append-only");
        let label = MergePolicy::default().label();
        assert!(
            label.contains("dedup") && label.contains("coalesce"),
            "{label}"
        );
    }
}
