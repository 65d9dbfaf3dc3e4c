//! Property suite for the durable knowledge store: the codec round-trips
//! bit-for-bit (weights included), policy normalization is a pure
//! function of the entry multiset (any permutation yields the identical
//! store), and corrupted or truncated byte streams decode to typed
//! errors, never panics or silently wrong bases.

use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rb_kb::codec::{class_code, class_from_code, rule_from_code};
use rb_kb::{
    decode_entries, encode_entries, ConflictResolution, KbEntry, MergePolicy, ShardedStore,
};
use rb_lang::vectorize::AstVector;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// One arbitrary entry: a small vector with coarse components (collisions
/// and near-duplicates must actually occur for the policy passes to have
/// work), any class, any rule, a small weight.
fn entry_strategy() -> impl Strategy<Value = KbEntry> {
    (
        prop::collection::vec(0u32..8, 2..5),
        0u8..15,
        0u8..36,
        1u32..5,
    )
        .prop_map(|(raw, class, rule, weight)| KbEntry {
            vector: AstVector {
                components: raw.into_iter().map(|c| f64::from(c) / 4.0).collect(),
            },
            class: class_from_code(class).expect("codes 0..15 are total"),
            rule: rule_from_code(rule).expect("codes 0..36 are total"),
            weight,
        })
}

fn entries_strategy() -> impl Strategy<Value = Vec<KbEntry>> {
    prop::collection::vec(entry_strategy(), 0..24)
}

/// The policy grid the determinism property sweeps: every reduction knob
/// on its own and the default all-on policy.
fn policy(selector: u8) -> MergePolicy {
    match selector % 4 {
        0 => MergePolicy {
            dedup_exact: true,
            conflict: ConflictResolution::KeepAll,
            coalesce_threshold: None,
        },
        1 => MergePolicy {
            dedup_exact: false,
            conflict: ConflictResolution::HighestWeight,
            coalesce_threshold: None,
        },
        2 => MergePolicy {
            dedup_exact: false,
            conflict: ConflictResolution::KeepAll,
            coalesce_threshold: Some(0.98),
        },
        _ => MergePolicy::default(),
    }
}

/// A scratch directory unique to this process *and* proptest case, so
/// cases never see each other's segment files.
fn scratch_dir() -> PathBuf {
    static UNIQUE: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "rb_kb_props_{}_{}.rbkb.d",
        std::process::id(),
        UNIQUE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Every file of a store directory, by name.
fn store_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|f| {
            let f = f.unwrap();
            (f.file_name(), std::fs::read(f.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The order a sharded store returns entries in: grouped by ascending
/// class wire code, input order preserved inside each class.
fn class_grouped(entries: &[KbEntry]) -> Vec<KbEntry> {
    let mut grouped = entries.to_vec();
    grouped.sort_by_key(|e| class_code(e.class)); // stable: keeps in-class order
    grouped
}

fn shuffled(mut entries: Vec<KbEntry>, seed: u64) -> Vec<KbEntry> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for i in (1..entries.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        entries.swap(i, j);
    }
    entries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn codec_round_trips_bit_for_bit(entries in entries_strategy()) {
        let decoded = decode_entries(&encode_entries(&entries));
        prop_assert_eq!(decoded.as_ref().ok(), Some(&entries));
        // Weights survive explicitly (the merge counters must persist).
        let weights: Vec<u32> = decoded.unwrap().iter().map(|e| e.weight).collect();
        let expected: Vec<u32> = entries.iter().map(|e| e.weight).collect();
        prop_assert_eq!(weights, expected);
    }

    #[test]
    fn normalization_ignores_submission_order(
        entries in entries_strategy(),
        shuffle_seed in 0u64..1_000_000,
        policy_selector in 0u8..4,
    ) {
        let policy = policy(policy_selector);
        let canonical = policy.normalize(entries.clone());
        let permuted = policy.normalize(shuffled(entries, shuffle_seed));
        prop_assert_eq!(&canonical, &permuted, "policy {}", policy.label());
        // Normalization is idempotent: the canonical store is a fixpoint.
        prop_assert_eq!(&policy.normalize(canonical.clone()), &canonical);
    }

    #[test]
    fn normalization_preserves_total_weight_unless_conflicts_drop(
        entries in entries_strategy(),
    ) {
        // With conflict resolution off, dedup and coalescing only move
        // weight between entries — the solved-case count is conserved.
        let policy = MergePolicy {
            dedup_exact: true,
            conflict: ConflictResolution::KeepAll,
            coalesce_threshold: Some(0.98),
        };
        let before: u64 = entries.iter().map(|e| u64::from(e.weight)).sum();
        let out = policy.normalize(entries);
        let after: u64 = out.iter().map(|e| u64::from(e.weight)).sum();
        prop_assert_eq!(before, after);
    }

    #[test]
    fn sharded_store_round_trips_against_the_single_file_codec(
        entries in entries_strategy(),
    ) {
        // The same multiset through both layouts: the single-file codec
        // (bit-exact, order-preserving) and the sharded store (segments
        // per class). Sharded load must equal the single-file round trip
        // entry for entry, up to the layout's documented class grouping —
        // and for a policy-normalized base (already in canonical class
        // order) the two must be *identical*.
        let dir = scratch_dir();
        let mut store = ShardedStore::open_or_create(&dir).unwrap();
        store.save(&entries).unwrap();
        let sharded = store.load_all().unwrap();
        let single = decode_entries(&encode_entries(&entries)).unwrap();
        prop_assert_eq!(&sharded, &class_grouped(&single));

        let canonical = MergePolicy::default().normalize(entries);
        store.save(&canonical).unwrap();
        let sharded = store.load_all().unwrap();
        let single = decode_entries(&encode_entries(&canonical)).unwrap();
        prop_assert_eq!(&sharded, &single);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_is_a_fixpoint_and_preserves_weight(
        entries in entries_strategy(),
        threshold_percent in 90u8..100,
    ) {
        let policy = MergePolicy::compaction(f64::from(threshold_percent) / 100.0);
        let dir = scratch_dir();
        let mut store = ShardedStore::open_or_create(&dir).unwrap();
        store.save(&entries).unwrap();
        let weight = |entries: &[KbEntry]| entries.iter().map(|e| u64::from(e.weight)).sum::<u64>();

        // One compaction pass: load, normalize, save.
        let compact = |store: &mut ShardedStore| {
            let compacted = policy.normalize(store.load_all().unwrap());
            let report = store.save(&compacted).unwrap();
            (compacted, report)
        };
        let (first, _) = compact(&mut store);
        prop_assert!(first.len() <= entries.len());
        prop_assert_eq!(weight(&first), weight(&entries),
            "compaction must only fold weight, never drop it");
        let after_first = store_files(&dir);

        // Compacting twice changes nothing: no shard is rewritten, the
        // files are byte-stable.
        let (second, report) = compact(&mut store);
        prop_assert_eq!(report.shards_written, 0, "second pass rewrote a shard");
        prop_assert_eq!(&second, &first);
        prop_assert_eq!(&store_files(&dir), &after_first);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_streams_error_not_panic(
        entries in entries_strategy(),
        cut in 0u32..10_000,
    ) {
        let bytes = encode_entries(&entries);
        let cut = (cut as usize) % bytes.len();
        prop_assert!(decode_entries(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_streams_error_not_panic(
        entries in entries_strategy(),
        position in 0u32..10_000,
        mask in 1u8..255,
    ) {
        let mut bytes = encode_entries(&entries);
        let position = (position as usize) % bytes.len();
        bytes[position] ^= mask;
        prop_assert!(
            decode_entries(&bytes).is_err(),
            "flipping byte {} with {:#04x} still decoded", position, mask
        );
    }
}
