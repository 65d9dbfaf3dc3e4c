//! Atomic `.rbkb` file persistence, and the layout dispatch between the
//! single-file format and the sharded [`crate::shard`] directory layout.
//!
//! [`save`] writes to a temporary sibling file, syncs it to disk, renames
//! it into place and then syncs the directory, so neither a crash nor a
//! power loss mid-write can leave a half-written store where a readable
//! one used to be — the reader sees either the old file or the new one.
//! Temp names carry the process id *and* a process-global counter: two
//! threads saving the same store concurrently each write their own temp
//! file and the last rename wins whole, instead of racing on one shared
//! temp path and renaming each other's half-written bytes into place.
//! [`load`] surfaces I/O problems and corruption (via the codec's
//! checksum and structural validation) as typed [`StoreError`]s; it
//! never panics on hostile bytes.
//!
//! [`load_any`] and [`save_any`] accept either layout — a `.rbkb` file or
//! a `.rbkb.d/` shard directory — resolved by [`detect_layout`], so every
//! caller (engine `--kb-in/--kb-out`, `kb inspect`, migration) works on
//! both without caring which one it was handed.

use crate::codec::{decode_entries, encode_entries, CodecError};
use crate::KbEntry;
use std::fmt;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The filesystem said no.
    Io {
        /// File the operation was about.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file's bytes are not a valid `.rbkb` stream.
    Corrupt {
        /// File the bytes came from.
        path: PathBuf,
        /// What the codec rejected.
        source: CodecError,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            StoreError::Corrupt { path, source } => {
                write!(f, "{}: corrupt knowledge store: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Corrupt { source, .. } => Some(source),
        }
    }
}

pub(crate) fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Process-global counter distinguishing concurrent temp files. The pid
/// alone is not enough: two *threads* of one process saving the same
/// store would share a temp path, clobber each other's partial writes,
/// and rename a torn file into place.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically and durably: a uniquely named temp
/// sibling in the same directory (so the rename cannot cross
/// filesystems), synced to disk before it is renamed over the
/// destination, then a sync of the directory so the rename itself
/// survives power loss. Shared by the single-file store and the shard
/// layer's segment and manifest writes.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let renamed = File::create(&tmp)
        .and_then(|mut file| {
            file.write_all(bytes)?;
            file.sync_all()
        })
        .map_err(|e| io_err(&tmp, e))
        .and_then(|()| std::fs::rename(&tmp, path).map_err(|e| io_err(path, e)));
    if renamed.is_err() {
        // Leave no droppings behind a failed write or rename.
        let _ = std::fs::remove_file(&tmp);
    }
    renamed?;
    sync_parent_dir(path)
}

/// Syncs the directory holding `path`, making a rename into it durable.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err(dir, e))
}

/// Directories cannot be opened for syncing off Unix; the rename is as
/// durable as the platform makes it.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> Result<(), StoreError> {
    Ok(())
}

/// Saves entries to `path` atomically (temp file + rename in the same
/// directory; concurrent saves each use a distinct temp file, so the
/// destination is always one save's complete bytes).
pub fn save(path: &Path, entries: &[KbEntry]) -> Result<(), StoreError> {
    write_atomic(path, &encode_entries(entries))
}

/// Loads entries from an `.rbkb` file, validating structure and checksum.
pub fn load(path: &Path) -> Result<Vec<KbEntry>, StoreError> {
    let bytes = std::fs::read(path).map_err(|e| io_err(path, e))?;
    decode_entries(&bytes).map_err(|source| StoreError::Corrupt {
        path: path.to_path_buf(),
        source,
    })
}

/// The two on-disk layouts a knowledge store path can resolve to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreLayout {
    /// One `.rbkb` file holding every entry.
    SingleFile,
    /// A `.rbkb.d/` directory: one segment file per [`rb_miri::UbClass`]
    /// plus a checksummed manifest (see [`crate::shard`]).
    Sharded,
}

/// Resolves which layout `path` refers to: an existing directory — or any
/// path spelled with a `.d` extension (the `.rbkb.d` convention) — is
/// sharded; everything else is a single file.
#[must_use]
pub fn detect_layout(path: &Path) -> StoreLayout {
    if path.is_dir() || path.extension().is_some_and(|e| e == "d") {
        StoreLayout::Sharded
    } else {
        StoreLayout::SingleFile
    }
}

/// How a layout-dispatched save touched the disk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SaveReport {
    /// Segment files written (1 for a single-file store).
    pub shards_written: usize,
    /// Segment files whose content was already up to date and were left
    /// untouched (always 0 for a single-file store).
    pub shards_skipped: usize,
    /// Stale segment files removed (classes that emptied out, or old
    /// generations replaced by a compaction swap).
    pub shards_removed: usize,
}

/// Loads a store in either layout (see [`detect_layout`]).
pub fn load_any(path: &Path) -> Result<Vec<KbEntry>, StoreError> {
    match detect_layout(path) {
        StoreLayout::SingleFile => load(path),
        StoreLayout::Sharded => crate::shard::ShardedStore::open(path)?.load_all(),
    }
}

/// Saves a store in the layout `path` implies (see [`detect_layout`]):
/// a single atomic file write, or a sharded save that rewrites only the
/// segments whose content changed.
pub fn save_any(path: &Path, entries: &[KbEntry]) -> Result<SaveReport, StoreError> {
    match detect_layout(path) {
        StoreLayout::SingleFile => {
            save(path, entries)?;
            Ok(SaveReport {
                shards_written: 1,
                ..SaveReport::default()
            })
        }
        StoreLayout::Sharded => crate::shard::ShardedStore::open_or_create(path)?.save(entries),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::vectorize::AstVector;
    use rb_llm::RepairRule;
    use rb_miri::UbClass;

    /// A test's own scratch directory, removed when dropped. Tests never
    /// share one: a directory listing in one test must not see another
    /// test's in-flight temp files.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(test: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("rb_kb_store_{}_{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn entries() -> Vec<KbEntry> {
        vec![KbEntry {
            vector: AstVector {
                components: vec![0.5, 2.0, -1.0],
            },
            class: UbClass::Alloc,
            rule: RepairRule::RemoveDoubleFree,
            weight: 4,
        }]
    }

    #[test]
    fn save_load_round_trips() {
        let scratch = Scratch::new("round_trip");
        let path = scratch.path("round_trip.rbkb");
        let original = entries();
        save(&path, &original).unwrap();
        assert_eq!(load(&path).unwrap(), original);
        // Overwrite in place: the rename replaces the old content whole.
        save(&path, &[]).unwrap();
        assert!(load(&path).unwrap().is_empty());
    }

    #[test]
    fn save_leaves_no_temp_files() {
        let scratch = Scratch::new("no_droppings");
        let path = scratch.path("no_droppings.rbkb");
        save(&path, &entries()).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn concurrent_saves_to_one_path_never_tear() {
        // Regression: the temp suffix used to be the pid alone, so two
        // threads saving the same store shared one temp path — one
        // thread's rename could promote the other's half-written bytes.
        // With the counter suffix every save is privately staged; the
        // destination is always some save's complete, decodable bytes.
        let scratch = Scratch::new("race");
        let path = scratch.path("race.rbkb");
        let a: Vec<KbEntry> = entries();
        let b: Vec<KbEntry> = {
            let mut b = entries();
            b[0].weight = 9;
            b[0].class = UbClass::DataRace;
            b
        };
        std::thread::scope(|scope| {
            for set in [&a, &b] {
                let path = &path;
                scope.spawn(move || {
                    for _ in 0..50 {
                        save(path, set).unwrap();
                    }
                });
            }
        });
        let survivor = load(&path).unwrap();
        assert!(survivor == a || survivor == b, "torn store: {survivor:?}");
        let leftovers: Vec<_> = std::fs::read_dir(&scratch.0)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains("race.rbkb.tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
    }

    #[test]
    fn layout_detection_follows_the_rbkb_d_convention() {
        assert_eq!(
            detect_layout(Path::new("store.rbkb")),
            StoreLayout::SingleFile
        );
        assert_eq!(
            detect_layout(Path::new("store.rbkb.d")),
            StoreLayout::Sharded
        );
        // An existing directory is sharded whatever it is called.
        let scratch = Scratch::new("layout");
        let dir = scratch.path("plain_dir");
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(detect_layout(&dir), StoreLayout::Sharded);
    }

    #[test]
    fn save_any_and_load_any_round_trip_both_layouts() {
        let original = entries();
        let scratch = Scratch::new("any");
        let file = scratch.path("any_single.rbkb");
        let report = save_any(&file, &original).unwrap();
        assert_eq!(report.shards_written, 1);
        assert_eq!(load_any(&file).unwrap(), original);
        let dir = scratch.path("any_sharded.rbkb.d");
        let report = save_any(&dir, &original).unwrap();
        assert_eq!(report.shards_written, 1, "one class, one segment");
        assert_eq!(load_any(&dir).unwrap(), original);
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load(Path::new("/nonexistent/definitely/not_here.rbkb")).unwrap_err();
        assert!(matches!(err, StoreError::Io { .. }));
        assert!(err.to_string().contains("not_here.rbkb"));
    }

    #[test]
    fn corrupt_file_is_typed_not_a_panic() {
        let scratch = Scratch::new("corrupt");
        let path = scratch.path("corrupt.rbkb");
        save(&path, &entries()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // And a truncated file too.
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(matches!(
            load(&path).unwrap_err(),
            StoreError::Corrupt { .. }
        ));
    }
}
