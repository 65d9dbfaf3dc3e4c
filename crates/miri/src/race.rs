//! Data-race detection over a recorded access log.
//!
//! Threads in the IR run deterministically (spawned blocks execute at the
//! join point), so instead of interleaving we record every shared-memory
//! access with its thread, atomicity and held-lock set, then scan for
//! conflicting pairs: different threads, overlapping ranges, at least one
//! write, not both atomic, no common lock, and both *concurrent* (main's
//! accesses participate only between the first `spawn` and the `join`).
//! This is the classic lockset/eraser discipline, which is exact for the
//! structured fork-join programs the corpus contains.

use crate::diagnostics::{MiriError, UbKind};
use crate::memory::{AllocKind, Memory};
use crate::value::AllocId;
use rb_lang::StmtPath;
use std::collections::BTreeSet;

/// One recorded shared-memory access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Access {
    /// Allocation touched.
    pub alloc: AllocId,
    /// Byte offset of the access.
    pub offset: usize,
    /// Length in bytes.
    pub len: usize,
    /// Thread id (0 = main).
    pub thread: usize,
    /// Whether it wrote.
    pub write: bool,
    /// Whether it was an atomic operation.
    pub atomic: bool,
    /// Locks held at the time.
    pub locks: BTreeSet<u32>,
    /// Whether the access is concurrent with other threads (always true for
    /// spawned threads; true for main only between spawn and join).
    pub concurrent: bool,
    /// Statement for diagnostics.
    pub path: Option<StmtPath>,
}

impl Access {
    fn overlaps(&self, other: &Access) -> bool {
        self.alloc == other.alloc
            && self.offset < other.offset + other.len
            && other.offset < self.offset + self.len
    }

    fn conflicts(&self, other: &Access) -> bool {
        self.thread != other.thread
            && self.concurrent
            && other.concurrent
            && (self.write || other.write)
            && !(self.atomic && other.atomic)
            && self.locks.is_disjoint(&other.locks)
            && self.overlaps(other)
    }
}

/// The access log.
#[derive(Clone, Debug, Default)]
pub struct AccessLog {
    accesses: Vec<Access>,
}

impl AccessLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> AccessLog {
        AccessLog::default()
    }

    /// Records an access.
    pub fn record(&mut self, a: Access) {
        self.accesses.push(a);
    }

    /// The recorded accesses, in order.
    #[must_use]
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Number of recorded accesses.
    #[must_use]
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the log is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Scans for races. One diagnostic is emitted per (allocation, thread
    /// pair) to avoid flooding the report with a diagnostic per access.
    #[must_use]
    pub fn detect_races(&self, mem: &Memory) -> Vec<MiriError> {
        let mut out = Vec::new();
        let mut reported: BTreeSet<(AllocId, usize, usize)> = BTreeSet::new();
        for (i, a) in self.accesses.iter().enumerate() {
            for b in &self.accesses[i + 1..] {
                if !a.conflicts(b) {
                    continue;
                }
                let (t1, t2) = (a.thread.min(b.thread), a.thread.max(b.thread));
                if !reported.insert((a.alloc, t1, t2)) {
                    continue;
                }
                let kind_of_alloc = mem.alloc(a.alloc).map(|al| al.kind);
                let kind = match kind_of_alloc {
                    Some(AllocKind::Static) => UbKind::RaceOnStatic,
                    _ => UbKind::RaceOnHeap,
                };
                let what = if a.write && b.write {
                    "write-write"
                } else {
                    "read-write"
                };
                out.push(MiriError {
                    kind,
                    message: format!(
                        "data race: {what} conflict between thread {t1} and thread {t2}"
                    ),
                    path: a.path.clone().or_else(|| b.path.clone()),
                    thread: t2,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::AllocKind;

    fn acc(alloc: AllocId, thread: usize, write: bool) -> Access {
        Access {
            alloc,
            offset: 0,
            len: 4,
            thread,
            write,
            atomic: false,
            locks: BTreeSet::new(),
            concurrent: true,
            path: None,
        }
    }

    fn static_mem() -> (Memory, AllocId) {
        let mut m = Memory::new();
        let (id, _, _) = m.allocate(AllocKind::Static, 4, 4);
        (m, id)
    }

    #[test]
    fn write_write_race_detected() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        log.record(acc(id, 1, true));
        log.record(acc(id, 2, true));
        let races = log.detect_races(&m);
        assert_eq!(races.len(), 1);
        assert_eq!(races[0].kind, UbKind::RaceOnStatic);
    }

    #[test]
    fn read_read_is_fine() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        log.record(acc(id, 1, false));
        log.record(acc(id, 2, false));
        assert!(log.detect_races(&m).is_empty());
    }

    #[test]
    fn same_thread_no_race() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        log.record(acc(id, 1, true));
        log.record(acc(id, 1, true));
        assert!(log.detect_races(&m).is_empty());
    }

    #[test]
    fn atomics_synchronise() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        let mut a = acc(id, 1, true);
        a.atomic = true;
        let mut b = acc(id, 2, true);
        b.atomic = true;
        log.record(a);
        log.record(b);
        assert!(log.detect_races(&m).is_empty());
    }

    #[test]
    fn atomic_vs_plain_still_races() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        let mut a = acc(id, 1, true);
        a.atomic = true;
        log.record(a);
        log.record(acc(id, 2, true));
        assert_eq!(log.detect_races(&m).len(), 1);
    }

    #[test]
    fn common_lock_protects() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        let mut a = acc(id, 1, true);
        a.locks.insert(1);
        let mut b = acc(id, 2, true);
        b.locks.insert(1);
        log.record(a);
        log.record(b);
        assert!(log.detect_races(&m).is_empty());
    }

    #[test]
    fn disjoint_locks_race() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        let mut a = acc(id, 1, true);
        a.locks.insert(1);
        let mut b = acc(id, 2, true);
        b.locks.insert(2);
        log.record(a);
        log.record(b);
        assert_eq!(log.detect_races(&m).len(), 1);
    }

    #[test]
    fn non_concurrent_main_excluded() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        let mut a = acc(id, 0, true);
        a.concurrent = false; // before spawn / after join
        log.record(a);
        log.record(acc(id, 1, true));
        assert!(log.detect_races(&m).is_empty());
    }

    #[test]
    fn disjoint_ranges_no_race() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        let mut a = acc(id, 1, true);
        a.offset = 0;
        a.len = 2;
        let mut b = acc(id, 2, true);
        b.offset = 2;
        b.len = 2;
        log.record(a);
        log.record(b);
        assert!(log.detect_races(&m).is_empty());
    }

    #[test]
    fn heap_race_is_concurrency_class() {
        let mut m = Memory::new();
        let (id, _, _) = m.allocate(AllocKind::Heap, 4, 4);
        let mut log = AccessLog::new();
        log.record(acc(id, 1, true));
        log.record(acc(id, 2, false));
        let races = log.detect_races(&m);
        assert_eq!(races[0].kind, UbKind::RaceOnHeap);
    }

    #[test]
    fn dedup_per_alloc_thread_pair() {
        let (m, id) = static_mem();
        let mut log = AccessLog::new();
        for _ in 0..5 {
            log.record(acc(id, 1, true));
            log.record(acc(id, 2, true));
        }
        assert_eq!(log.detect_races(&m).len(), 1);
    }
}
