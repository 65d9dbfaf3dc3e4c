//! The sharded `.rbkb.d/` store layout: one segment file per
//! [`UbClass`], a checksummed manifest, and saves that rewrite only the
//! segments whose content changed.
//!
//! The layout mirrors the class-bucketed [`crate::index`]. A sharded
//! store is a directory:
//!
//! ```text
//! store.rbkb.d/
//!   MANIFEST.rbkbm            checksummed manifest (see below)
//!   shard-00-90f3….rbkb       Alloc segment    — a complete .rbkb file
//!   shard-02-55a1….rbkb       Panic segment    — a complete .rbkb file
//!   …                         (only non-empty classes have segments)
//! ```
//!
//! Every segment is itself a valid single-file `.rbkb` stream (same
//! codec, same checksums), so any tool that reads the old format can read
//! one shard — migration needs no second decoder. Segment names carry the
//! FNV-64 of their content: a writer never modifies a live segment, it
//! writes the replacement under a new name, atomically renames the new
//! manifest into place, and only then deletes segments referenced by
//! neither its own manifest nor the one currently on disk. A crash at
//! any step leaves the previous manifest pointing at intact files, and
//! because every file is synced before its rename and its directory
//! after it, this holds across power loss as well.
//! Concurrent in-process saves are serialized whole (segment writes →
//! manifest rename → cleanup) under a process-global lock and resolve
//! last-writer-wins, like the single-file layout's atomic rename;
//! concurrent writers in separate processes are not supported (readers
//! are always safe).
//!
//! Manifest wire format (all integers little-endian):
//!
//! ```text
//! magic            4 bytes   "RBKM"
//! format version   1 byte    currently 1
//! shard count      1 byte    ≤ NUM_CLASS_CODES
//! per shard (ascending class code):
//!   class          1 byte    stable UbClass wire code
//!   entries        8 bytes   u64
//!   weight         8 bytes   u64 (sum of entry weights)
//!   bytes          8 bytes   u64 (segment file length)
//!   checksum       8 bytes   FNV-1a 64 over the segment file's bytes
//! checksum         8 bytes   FNV-1a 64 over every preceding byte
//! ```
//!
//! A load reads every segment ([`ShardedStore::load_all`]); each one
//! decodes through the streaming [`crate::codec::decode_entries_iter`]
//! rather than materializing before validating. Compaction is not a
//! store operation: load, [`crate::MergePolicy::normalize`], save — the
//! dirty-shard save then rewrites only the segments that folded.

use crate::codec::{
    class_code, class_from_code, decode_entries_iter, encode_entries_refs, fnv1a64, CodecError,
    NUM_CLASS_CODES,
};
use crate::store::{io_err, write_atomic, SaveReport, StoreError};
use crate::KbEntry;
use rb_miri::UbClass;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Serializes whole sharded-save critical sections (segment writes →
/// manifest rename → cleanup) within this process. Without it, writer
/// A's cleanup could delete writer B's freshly written segments in the
/// window before B renames its manifest — bricking the store even
/// though every individual file operation is atomic. Saves are rare
/// (once per batch), so a process-global lock costs nothing measurable.
/// Concurrent writers in *separate processes* remain unsupported (the
/// conservative manifest-union cleanup narrows but cannot close that
/// window); readers are always safe.
static SAVE_LOCK: Mutex<()> = Mutex::new(());

/// File name of the manifest inside a `.rbkb.d/` directory.
pub const MANIFEST_NAME: &str = "MANIFEST.rbkbm";

/// Manifest magic, the first four bytes of every `MANIFEST.rbkbm`.
pub const MANIFEST_MAGIC: [u8; 4] = *b"RBKM";

/// Current manifest format version, versioned independently of (but
/// alongside) the segment codec's [`crate::codec::FORMAT_VERSION`].
pub const MANIFEST_VERSION: u8 = 1;

/// One segment's record in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardMeta {
    /// UB class this segment holds.
    pub class: UbClass,
    /// Entries stored in the segment.
    pub entries: u64,
    /// Sum of the segment's entry weights (solved cases represented).
    pub weight: u64,
    /// Segment file length in bytes.
    pub bytes: u64,
    /// FNV-1a 64 over the segment file's contents — also the suffix of
    /// the segment's file name, which is what makes swaps atomic.
    pub checksum: u64,
}

impl ShardMeta {
    /// The segment's content-addressed file name.
    #[must_use]
    pub fn file_name(&self) -> String {
        segment_file_name(self.class, self.checksum)
    }
}

/// Content-addressed segment file name for `class` with `checksum`.
#[must_use]
pub fn segment_file_name(class: UbClass, checksum: u64) -> String {
    format!("shard-{:02}-{:016x}.rbkb", class_code(class), checksum)
}

/// The decoded manifest: segment records in ascending class-code order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Per-segment records, ascending by class wire code.
    pub shards: Vec<ShardMeta>,
}

impl Manifest {
    /// The record for `class`, if the class has a segment.
    #[must_use]
    pub fn shard(&self, class: UbClass) -> Option<&ShardMeta> {
        self.shards.iter().find(|m| m.class == class)
    }

    /// Encodes the manifest to its wire format. The count byte and the
    /// records written always agree: a manifest somehow holding more
    /// than [`NUM_CLASS_CODES`] records (impossible via the store, but
    /// `shards` is a public field) encodes truncated-but-decodable
    /// rather than writing a count its body contradicts.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        debug_assert!(
            self.shards.len() <= NUM_CLASS_CODES,
            "manifest with more records than UB classes"
        );
        let count = self.shards.len().min(NUM_CLASS_CODES);
        let mut out = Vec::with_capacity(6 + count * 33 + 8);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.push(MANIFEST_VERSION);
        out.push(u8::try_from(count).expect("count <= 15"));
        for m in &self.shards[..count] {
            out.push(class_code(m.class));
            out.extend_from_slice(&m.entries.to_le_bytes());
            out.extend_from_slice(&m.weight.to_le_bytes());
            out.extend_from_slice(&m.bytes.to_le_bytes());
            out.extend_from_slice(&m.checksum.to_le_bytes());
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Decodes a manifest, validating magic, version, structure and the
    /// trailing checksum — corruption is a typed [`CodecError`].
    pub fn decode(bytes: &[u8]) -> Result<Manifest, CodecError> {
        let header = 6usize;
        if bytes.len() < header + 8 {
            return Err(CodecError::Truncated {
                needed: header + 8,
                have: bytes.len(),
            });
        }
        if bytes[..4] != MANIFEST_MAGIC {
            return Err(CodecError::BadMagic {
                found: bytes[..4].to_vec(),
                want: MANIFEST_MAGIC,
            });
        }
        if bytes[4] != MANIFEST_VERSION {
            return Err(CodecError::UnsupportedVersion(bytes[4]));
        }
        let count = usize::from(bytes[5]);
        let content_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[content_end..].try_into().expect("len 8"));
        let computed = fnv1a64(&bytes[..content_end]);
        if stored != computed {
            return Err(CodecError::ChecksumMismatch { stored, computed });
        }
        let body = &bytes[header..content_end];
        if body.len() != count * 33 {
            return Err(CodecError::Truncated {
                needed: count * 33,
                have: body.len(),
            });
        }
        let mut shards = Vec::with_capacity(count);
        let u64_at = |rec: &[u8], off: usize| {
            u64::from_le_bytes(rec[off..off + 8].try_into().expect("len 8"))
        };
        for rec in body.chunks_exact(33) {
            let class = class_from_code(rec[0]).ok_or(CodecError::BadClass(rec[0]))?;
            shards.push(ShardMeta {
                class,
                entries: u64_at(rec, 1),
                weight: u64_at(rec, 9),
                bytes: u64_at(rec, 17),
                checksum: u64_at(rec, 25),
            });
        }
        Ok(Manifest { shards })
    }
}

/// A handle on a `.rbkb.d/` sharded store: its directory and verified
/// manifest.
#[derive(Debug)]
pub struct ShardedStore {
    dir: PathBuf,
    manifest: Manifest,
}

impl ShardedStore {
    /// Opens an existing sharded store, reading and verifying the
    /// manifest (segments are verified when loaded).
    pub fn open(dir: &Path) -> Result<ShardedStore, StoreError> {
        let manifest_path = dir.join(MANIFEST_NAME);
        let bytes = std::fs::read(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
        let manifest = Manifest::decode(&bytes).map_err(|source| StoreError::Corrupt {
            path: manifest_path,
            source,
        })?;
        Ok(ShardedStore {
            dir: dir.to_path_buf(),
            manifest,
        })
    }

    /// Creates an empty sharded store at `dir` (directory and manifest).
    pub fn create(dir: &Path) -> Result<ShardedStore, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
        let store = ShardedStore {
            dir: dir.to_path_buf(),
            manifest: Manifest::default(),
        };
        write_atomic(&dir.join(MANIFEST_NAME), &store.manifest.encode())?;
        Ok(store)
    }

    /// Opens `dir` if it already holds a manifest, otherwise creates an
    /// empty store there.
    pub fn open_or_create(dir: &Path) -> Result<ShardedStore, StoreError> {
        if dir.join(MANIFEST_NAME).is_file() {
            ShardedStore::open(dir)
        } else {
            ShardedStore::create(dir)
        }
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The verified manifest.
    #[must_use]
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Loads every entry, one segment at a time in manifest (class-code)
    /// order. Entries arrive grouped by class — the canonical order any
    /// reducing [`crate::MergePolicy`] normalizes to.
    pub fn load_all(&self) -> Result<Vec<KbEntry>, StoreError> {
        let mut out = Vec::new();
        for meta in &self.manifest.shards {
            out.extend(read_segment(&self.dir, meta)?);
        }
        Ok(out)
    }

    /// Saves `entries` into the sharded layout, rewriting **only the
    /// segments whose content changed**: each class's entries are encoded
    /// and checksummed, and a segment whose checksum matches the manifest
    /// is left untouched on disk. New segments are written under
    /// content-addressed names, the manifest is swapped in atomically,
    /// and only then are unreferenced segments deleted — a crash at any
    /// point leaves a consistent store.
    pub fn save(&mut self, entries: &[KbEntry]) -> Result<SaveReport, StoreError> {
        let _guard = SAVE_LOCK.lock().expect("sharded save lock poisoned");
        let mut groups: Vec<Vec<&KbEntry>> = vec![Vec::new(); NUM_CLASS_CODES];
        for e in entries {
            groups[usize::from(class_code(e.class))].push(e);
        }
        let mut report = SaveReport::default();
        let mut shards = Vec::new();
        for (code, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let class = class_from_code(u8::try_from(code).expect("code < 15"))
                .expect("codes 0..NUM_CLASS_CODES are total");
            let bytes = encode_entries_refs(group);
            let checksum = fnv1a64(&bytes);
            let meta = ShardMeta {
                class,
                entries: group.len() as u64,
                weight: group.iter().map(|e| u64::from(e.weight)).sum(),
                bytes: bytes.len() as u64,
                checksum,
            };
            let path = self.dir.join(meta.file_name());
            let clean = self.manifest.shard(class).is_some_and(|old| {
                old.checksum == checksum && old.bytes == meta.bytes && path.is_file()
            });
            if clean {
                report.shards_skipped += 1;
            } else {
                write_atomic(&path, &bytes)?;
                report.shards_written += 1;
            }
            shards.push(meta);
        }
        let manifest = Manifest { shards };
        write_atomic(&self.dir.join(MANIFEST_NAME), &manifest.encode())?;
        self.manifest = manifest;
        report.shards_removed = self.remove_unreferenced_segments();
        Ok(report)
    }

    /// Deletes `shard-*.rbkb` files that neither this handle's manifest
    /// nor the manifest currently on disk references. Re-reading the
    /// on-disk manifest matters when two writers race on one store: the
    /// loser's cleanup must not delete segments the winner's manifest
    /// just started referencing (manifest renames are atomic, so whoever
    /// renamed last owns the store — last-writer-wins, like the
    /// single-file layout — and a conservative union keeps every segment
    /// either manifest needs). Best-effort; a file another process
    /// already opened still reads fine on Unix. Returns how many were
    /// removed.
    fn remove_unreferenced_segments(&self) -> usize {
        let mut live: Vec<String> = self
            .manifest
            .shards
            .iter()
            .map(ShardMeta::file_name)
            .collect();
        if let Ok(bytes) = std::fs::read(self.dir.join(MANIFEST_NAME)) {
            if let Ok(current) = Manifest::decode(&bytes) {
                live.extend(current.shards.iter().map(ShardMeta::file_name));
            }
        }
        let Ok(dir) = std::fs::read_dir(&self.dir) else {
            return 0;
        };
        let mut removed = 0usize;
        for entry in dir.filter_map(Result::ok) {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("shard-")
                && name.ends_with(".rbkb")
                && !live.iter().any(|l| l == &name)
                && std::fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        removed
    }
}

/// Reads and fully verifies one segment: length and checksum against the
/// manifest record, then a streaming decode (structure and the segment's
/// own trailing checksum).
fn read_segment(dir: &Path, meta: &ShardMeta) -> Result<Vec<KbEntry>, StoreError> {
    let path = dir.join(meta.file_name());
    let bytes = std::fs::read(&path).map_err(|e| io_err(&path, e))?;
    let computed = fnv1a64(&bytes);
    if bytes.len() as u64 != meta.bytes || computed != meta.checksum {
        return Err(StoreError::Corrupt {
            path,
            source: CodecError::ChecksumMismatch {
                stored: meta.checksum,
                computed,
            },
        });
    }
    let corrupt = |source: CodecError| StoreError::Corrupt {
        path: path.clone(),
        source,
    };
    let iter = decode_entries_iter(&bytes).map_err(corrupt)?;
    let mut entries = Vec::with_capacity(iter.remaining().min(bytes.len() / 8));
    for entry in iter {
        let entry = entry.map_err(corrupt)?;
        debug_assert_eq!(entry.class, meta.class, "segment holds a foreign class");
        entries.push(entry);
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{load_any, save_any};
    use crate::MergePolicy;
    use rb_lang::vectorize::AstVector;
    use rb_llm::RepairRule;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(name: &str) -> PathBuf {
        static UNIQUE: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rb_kb_shard_{}_{}",
            std::process::id(),
            UNIQUE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

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

    /// Every file of a store directory, by name.
    fn store_bytes(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
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

    fn mixed_entries() -> Vec<KbEntry> {
        vec![
            entry(&[1.0, 0.0], UbClass::Panic, RepairRule::GuardDivision, 2),
            entry(&[0.0, 1.0], UbClass::Alloc, RepairRule::AddDealloc, 1),
            entry(&[0.5, 0.5], UbClass::Panic, RepairRule::GuardIndex, 3),
            entry(&[1.0, 1.0], UbClass::DataRace, RepairRule::UseAtomics, 4),
        ]
    }

    #[test]
    fn manifest_round_trips_and_rejects_corruption() {
        let manifest = Manifest {
            shards: vec![
                ShardMeta {
                    class: UbClass::Alloc,
                    entries: 3,
                    weight: 9,
                    bytes: 120,
                    checksum: 0xdead_beef,
                },
                ShardMeta {
                    class: UbClass::Panic,
                    entries: 1,
                    weight: 1,
                    bytes: 40,
                    checksum: 7,
                },
            ],
        };
        let bytes = manifest.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), manifest);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x20;
            assert!(Manifest::decode(&corrupt).is_err(), "flip at {i} decoded");
        }
        for len in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..len]).is_err());
        }
        let mut foreign = bytes.clone();
        foreign[..4].copy_from_slice(b"RBKB");
        assert_eq!(
            Manifest::decode(&foreign),
            Err(CodecError::BadMagic {
                found: b"RBKB".to_vec(),
                want: MANIFEST_MAGIC,
            })
        );
    }

    #[test]
    fn sharded_round_trip_groups_by_class() {
        let dir = scratch("round.rbkb.d");
        let entries = mixed_entries();
        let report = save_any(&dir, &entries).unwrap();
        assert_eq!(report.shards_written, 3, "three classes, three segments");
        let loaded = load_any(&dir).unwrap();
        // Same multiset, grouped by ascending class code with the
        // original relative order preserved inside each class.
        assert_eq!(loaded.len(), entries.len());
        assert_eq!(loaded[0], entries[1]); // Alloc (code 0)
        assert_eq!(loaded[1], entries[0]); // Panic (code 2), first
        assert_eq!(loaded[2], entries[2]); // Panic, second
        assert_eq!(loaded[3], entries[3]); // DataRace (code 6)
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn resave_skips_clean_shards_and_rewrites_dirty_ones() {
        let dir = scratch("dirty.rbkb.d");
        let mut entries = mixed_entries();
        save_any(&dir, &entries).unwrap();
        // Identical content: nothing is rewritten.
        let mut store = ShardedStore::open(&dir).unwrap();
        let report = store.save(&entries).unwrap();
        assert_eq!((report.shards_written, report.shards_skipped), (0, 3));
        // Dirty one class: exactly that segment is rewritten and its old
        // generation is removed.
        entries[0].weight += 1; // Panic shard
        let report = store.save(&entries).unwrap();
        assert_eq!((report.shards_written, report.shards_skipped), (1, 2));
        assert_eq!(report.shards_removed, 1);
        // Dropping a class removes its segment from manifest and disk.
        let no_race: Vec<KbEntry> = entries
            .iter()
            .filter(|e| e.class != UbClass::DataRace)
            .cloned()
            .collect();
        let report = store.save(&no_race).unwrap();
        assert_eq!(report.shards_removed, 1);
        assert!(store.manifest().shard(UbClass::DataRace).is_none());
        assert_eq!(load_any(&dir).unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn corrupt_segment_and_manifest_are_typed_errors() {
        let dir = scratch("corrupt.rbkb.d");
        save_any(&dir, &mixed_entries()).unwrap();
        // Flip a byte inside a segment: the manifest checksum refuses it.
        let store = ShardedStore::open(&dir).unwrap();
        let seg = dir.join(store.manifest().shards[0].file_name());
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&seg, &bytes).unwrap();
        let err = ShardedStore::open(&dir).unwrap().load_all().unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // A truncated manifest is refused at open.
        let manifest_path = dir.join(MANIFEST_NAME);
        let bytes = std::fs::read(&manifest_path).unwrap();
        std::fs::write(&manifest_path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            ShardedStore::open(&dir),
            Err(StoreError::Corrupt { .. })
        ));
        // A missing manifest is an I/O error, not a panic.
        std::fs::remove_file(&manifest_path).unwrap();
        assert!(matches!(
            ShardedStore::open(&dir),
            Err(StoreError::Io { .. })
        ));
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn concurrent_sharded_saves_never_brick_the_store() {
        // Regression for the cleanup race: without whole-save
        // serialization, writer A's unreferenced-segment cleanup could
        // delete writer B's freshly written segments before B renamed
        // its manifest — leaving a manifest pointing at deleted files.
        // Serialized saves are last-writer-wins: the store must always
        // load and equal one writer's complete entry set.
        let dir = scratch("save_race.rbkb.d");
        ShardedStore::create(&dir).unwrap();
        let a = mixed_entries();
        let b: Vec<KbEntry> = mixed_entries()
            .into_iter()
            .map(|mut e| {
                e.weight += 10;
                e
            })
            .collect();
        std::thread::scope(|scope| {
            for set in [&a, &b] {
                let dir = &dir;
                scope.spawn(move || {
                    let mut store = ShardedStore::open(dir).unwrap();
                    for _ in 0..25 {
                        store.save(set).unwrap();
                    }
                });
            }
        });
        let survivor = load_any(&dir).unwrap();
        let grouped = |entries: &[KbEntry]| {
            let mut g = entries.to_vec();
            g.sort_by_key(|e| class_code(e.class));
            g
        };
        assert!(
            survivor == grouped(&a) || survivor == grouped(&b),
            "torn sharded store: {survivor:?}"
        );
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn compaction_folds_near_duplicates_and_preserves_weight() {
        let dir = scratch("compact.rbkb.d");
        // Two near-duplicate Panic shapes (cosine ≈ 0.990 — the default
        // 0.995 store threshold keeps them distinct, the tightened
        // compaction threshold folds them) plus an untouched Alloc shard.
        let entries = vec![
            entry(&[1.0, 0.0], UbClass::Panic, RepairRule::GuardDivision, 2),
            entry(&[1.0, 0.141], UbClass::Panic, RepairRule::GuardDivision, 3),
            entry(&[0.0, 1.0], UbClass::Alloc, RepairRule::AddDealloc, 1),
        ];
        save_any(&dir, &entries).unwrap();
        let mut store = ShardedStore::open(&dir).unwrap();
        let weight = |entries: &[KbEntry]| entries.iter().map(|e| u64::from(e.weight)).sum::<u64>();
        let policy = MergePolicy::compaction(0.98);
        let compacted = policy.normalize(store.load_all().unwrap());
        assert_eq!(compacted.len(), 2, "near-duplicates must fold");
        assert_eq!(weight(&compacted), 6, "compaction must preserve weight");
        let report = store.save(&compacted).unwrap();
        assert_eq!(report.shards_written, 1, "only the Panic shard changed");
        let bytes = store_bytes(&dir);
        // Compaction is a fixpoint: a second pass writes nothing.
        let again = policy.normalize(store.load_all().unwrap());
        assert_eq!(again, compacted);
        let report = store.save(&again).unwrap();
        assert_eq!((report.shards_written, report.shards_skipped), (0, 2));
        assert_eq!(store_bytes(&dir), bytes);
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }
}
