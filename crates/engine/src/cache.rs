//! The sharded, content-addressed oracle cache and the [`CachedOracle`]
//! that plugs it into the repair stack's [`Oracle`] seam.
//!
//! The oracle ([`rb_miri::run_program`]) is deterministic: a program's
//! verdict depends only on its AST. The cache therefore keys verdicts by
//! *hashed program structure* — not source text — so two jobs that reach
//! the same program through different whitespace, comments or printing
//! round-trips share one oracle execution. The key is one pass of an
//! Fx-style multiply-rotate hash over the AST ([`program_key`]). Entries
//! live behind [`RwLock`]-protected shards so concurrent workers contend
//! only when their keys land in the same shard; hit/miss counters are
//! lock-free atomics.
//!
//! A key collision (two structurally different programs hashing alike) is
//! handled, not assumed away: each bucket stores the program next to its
//! verdict and a hit requires structural equality, so a collision
//! degrades to an extra oracle run, never to a wrong verdict.
//!
//! Entries share the judged program rather than copy it: a miss through
//! [`OracleCache::lookup_shared`] (the path [`CachedOracle`] serves
//! [`Oracle::judge_shared`] from) stores the caller's [`Arc`], and that
//! handle becomes the program's *canonical* one. Only the borrowing
//! [`OracleCache::lookup`] copies the program in.
//!
//! The cache is insert-only: it never evicts, and entries live as long as
//! the cache. It grows with every structurally distinct program judged
//! through it, which is what a sweep's or a daemon's verdict memory is
//! for.
//!
//! ## Identity before content
//!
//! Most lookups judge a handle the cache already holds: a case's gold and
//! buggy programs on a resident cache, or a state a repair judged moments
//! earlier. An **address index** maps the address of each entry's own
//! program to its content key, and every lookup of a handle that may be
//! resident consults it first, so a canonical handle is served without
//! hashing or comparing the program. (A candidate just derived cannot be
//! resident, so its lookup goes straight to the content key.)
//! The match is exact: entries live as long as the cache and pin their
//! handles, so a live program at an indexed address is that very
//! allocation. Lookups of any other handle fall back to the content key
//! and its collision guard.
//!
//! On top of it sits the **transition memo** behind
//! [`CachedOracle`]'s [`Oracle::judge_edit`]. Each entry keeps a short
//! list of **edges**: an edit made from its program, and a weak handle on
//! the canonical program that edit produced (or a note that the edit did
//! not apply). A repeated edit of a resident state is then served by
//! following the edge and finding the successor by address: the rule is
//! not re-applied, the result not re-hashed nor compared. Edges are keyed
//! by the identity of a handle the cache pins, never by a hash alone, and
//! since entries live as long as the cache, an edge's successor is always
//! resident. A served edge is recorded exactly like the hit it replaces:
//! the hit counter and the caller's telemetry both move as they would
//! have.
//!
//! ## Per-state facts
//!
//! A repair reads a few things off the states it judges that depend on
//! the program (and, for a proposal, its primary error) alone: the model's
//! facts (the printed source, its digest, the matching repair rules and
//! the digest of each prompt already rendered over it) and the pipeline's
//! program features (metrics, dominant unsafe op, pruned-AST embedding
//! and pruned-statement count). Each entry keeps a [`StateMemo`] for
//! them, a slot of typed write-once cells [`CachedOracle`] hands out
//! through [`Oracle::state_memo`], found like a lookup: by address, then
//! by content. The cache never reads the slot. `rb_llm`'s model fills the
//! facts cell on its first derivation; the pipeline fills the features
//! cell when it features a repair's input or embeds a knowledge-base
//! query. Every later job, sweep or daemon request on an equal state
//! reads them instead of printing, matching, measuring and embedding the
//! program again. Asking for a slot never judges nor inserts a program
//! and moves no counter, and the slot lives as long as its entry.
//! Answers do not depend on where the values came from.

use rb_lang::Program;
use rb_miri::{run_program, JudgeRecord, MiriReport, Oracle, OracleUse, StateMemo};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, Weak};

/// Number of independent shards. A power of two so the shard index is a
/// cheap mask of the content key.
const SHARD_COUNT: usize = 16;

/// The content key of a program: a structural hash over its AST.
///
/// Programs that print and re-parse to the same structure map to the same
/// key; programs that differ in any statement, type or literal map to
/// different keys (modulo 64-bit collisions, which the cache verifies
/// against).
#[must_use]
pub fn program_key(program: &Program) -> u64 {
    let mut hasher = KeyHasher::default();
    program.hash(&mut hasher);
    hasher.finish()
}

/// The Fx-style multiply-rotate hasher behind [`program_key`]: one
/// rotate, xor and multiply per word. It resists no crafted collisions,
/// and neither did an unkeyed `DefaultHasher`: a collision costs a
/// structural compare and an extra oracle run, never a wrong verdict.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    /// The odd multiplier of rustc's `FxHasher`.
    const MUL: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::MUL);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One cached verdict: the program is stored alongside the report so hits
/// are confirmed by structural equality (collision guard).
struct CacheEntry {
    /// The judged program's canonical handle, shared with whoever judged
    /// it first.
    program: Arc<Program>,
    report: Arc<MiriReport>,
    /// Edits judged from `program`: the edit id and a weak handle on the
    /// successor's canonical program, or `None` where the edit did not
    /// apply. Weak, so that a program's owners are its judges and its
    /// entry; the successor's entry keeps it alive.
    edges: Vec<(u64, Option<Weak<Program>>)>,
    /// The per-state slot handed out by [`OracleCache::state_memo`],
    /// allocated the first time one is asked for.
    memo: OnceLock<Arc<StateMemo>>,
}

impl CacheEntry {
    /// Whether this entry holds `program`: the very same allocation (a
    /// pointer compare) or, failing that, an equal structure — the
    /// collision guard.
    fn holds(&self, program: &Program) -> bool {
        std::ptr::eq(Arc::as_ptr(&self.program), program) || *self.program == *program
    }
}

/// One shard: the verdict buckets of the content keys it owns.
type Shard = RwLock<HashMap<u64, Vec<CacheEntry>>>;

/// Hashes the address index's keys: an address, shifted past the
/// alignment bits that are always zero, times the Fx multiplier.
/// Addresses come from this process's allocator, never from outside
/// input, so there is no collision flood to resist.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut folded = KeyHasher(self.0);
        folded.write(bytes);
        self.0 = folded.0;
    }

    fn write_usize(&mut self, addr: usize) {
        self.0 = ((addr >> 4) as u64).wrapping_mul(KeyHasher::MUL);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard of the address index: the address of each resident entry's
/// program handle, mapped to the entry's content key.
type AddrShard = RwLock<HashMap<usize, u64, BuildHasherDefault<AddrHasher>>>;

/// The address `program` lives at, the address index's key.
fn addr_of(program: &Program) -> usize {
    program as *const Program as usize
}

/// The resident entry under `key` whose own handle is the allocation at
/// `program`.
fn find_resident<'a>(
    map: &'a HashMap<u64, Vec<CacheEntry>>,
    key: u64,
    program: &Program,
) -> Option<&'a CacheEntry> {
    map.get(&key)?
        .iter()
        .find(|e| std::ptr::eq(Arc::as_ptr(&e.program), program))
}

/// Point-in-time counters of a cache (see [`OracleCache::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to execute the oracle.
    pub misses: u64,
    /// Distinct programs stored.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded `hash(Program) → MiriReport` map shared across workers.
/// Insert-only: an entry lives as long as the cache.
pub struct OracleCache {
    shards: Vec<Shard>,
    /// The address index, sharded by address. Lock order: a content
    /// shard, then an address shard; an address shard is never held
    /// while another lock is taken.
    addrs: Vec<AddrShard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for OracleCache {
    fn default() -> OracleCache {
        OracleCache::new()
    }
}

impl OracleCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> OracleCache {
        OracleCache {
            shards: (0..SHARD_COUNT).map(|_| Shard::default()).collect(),
            addrs: (0..SHARD_COUNT).map(|_| AddrShard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The process-wide cache shared by every engine-backed corpus run
    /// (the experiment harness re-generates identical gold programs many
    /// times over; this is where that redundancy dies).
    #[must_use]
    pub fn global() -> Arc<OracleCache> {
        static GLOBAL: OnceLock<Arc<OracleCache>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(OracleCache::new())))
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key as usize) & (SHARD_COUNT - 1)]
    }

    fn addr_shard(&self, addr: usize) -> &AddrShard {
        // Allocations are 16-byte aligned; the bits above pick the shard.
        &self.addrs[(addr >> 4) & (SHARD_COUNT - 1)]
    }

    /// The content key of the resident entry whose own handle is the
    /// allocation at `program`, found without hashing the program.
    fn resident_key(&self, program: &Program) -> Option<u64> {
        let addr = addr_of(program);
        self.addr_shard(addr)
            .read()
            .expect("oracle cache address index poisoned")
            .get(&addr)
            .copied()
    }

    /// The oracle verdict for `program` plus whether it was served from
    /// the cache, so callers can attribute the hit/miss to their own
    /// accounting (the engine's per-batch telemetry needs this — the
    /// cache-wide counters are shared by every concurrent batch).
    ///
    /// A miss stores a deep copy of `program`; callers that hold the
    /// program behind an [`Arc`] use [`OracleCache::lookup_shared`].
    pub fn lookup(&self, program: &Program) -> (Arc<MiriReport>, bool) {
        let (_, report, cached) = self.lookup_or_store(program, || Arc::new(program.clone()));
        (report, cached)
    }

    /// [`OracleCache::lookup`] for a shared program: a miss stores the
    /// caller's handle, so publishing an entry copies no AST.
    pub fn lookup_shared(&self, program: &Arc<Program>) -> (Arc<MiriReport>, bool) {
        let (_, report, cached) = self.lookup_canonical(program);
        (report, cached)
    }

    /// [`OracleCache::lookup_shared`], also returning the entry's own
    /// handle: `program` itself when it is the first of its content to be
    /// judged, the earlier handle when it is not.
    fn lookup_canonical(&self, program: &Arc<Program>) -> (Arc<Program>, Arc<MiriReport>, bool) {
        self.lookup_or_store(program, || Arc::clone(program))
    }

    /// Counts a hit on `e` and hands out its handle and verdict.
    fn serve(&self, e: &CacheEntry) -> (Arc<Program>, Arc<MiriReport>, bool) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        (Arc::clone(&e.program), Arc::clone(&e.report), true)
    }

    /// The lookup every entry point shares: by address, then by content.
    /// `handle` yields the program an entry keeps and runs only when a
    /// miss publishes one.
    fn lookup_or_store(
        &self,
        program: &Program,
        handle: impl FnOnce() -> Arc<Program>,
    ) -> (Arc<Program>, Arc<MiriReport>, bool) {
        if let Some(key) = self.resident_key(program) {
            let read = self.shard(key).read().expect("oracle cache shard poisoned");
            if let Some(e) = find_resident(&read, key, program) {
                return self.serve(e);
            }
        }
        self.lookup_by_content(program, handle)
    }

    /// The content half of [`OracleCache::lookup_or_store`]: the key, the
    /// collision guard, and on a miss an oracle run and a new entry. A
    /// handle just allocated cannot be in the address index, so its
    /// lookup starts here.
    fn lookup_by_content(
        &self,
        program: &Program,
        handle: impl FnOnce() -> Arc<Program>,
    ) -> (Arc<Program>, Arc<MiriReport>, bool) {
        let key = program_key(program);
        let shard = self.shard(key);
        {
            let read = shard.read().expect("oracle cache shard poisoned");
            if let Some(entries) = read.get(&key) {
                if let Some(e) = entries.iter().find(|e| e.holds(program)) {
                    return self.serve(e);
                }
            }
        }
        // Miss: run the oracle outside any lock, then publish.
        let report = Arc::new(run_program(program));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut write = shard.write().expect("oracle cache shard poisoned");
        if let Some(e) = write
            .get(&key)
            .and_then(|entries| entries.iter().find(|e| e.holds(program)))
        {
            // A racing worker published the same program first; keep one
            // copy (the verdicts are identical — the oracle is pure).
            return (Arc::clone(&e.program), Arc::clone(&e.report), false);
        }
        let program = handle();
        let addr = addr_of(&program);
        self.addr_shard(addr)
            .write()
            .expect("oracle cache address index poisoned")
            .insert(addr, key);
        // Buckets and edge lists almost always hold one item; growing them
        // one at a time keeps a resident cache from paying for four.
        let bucket = write.entry(key).or_default();
        bucket.reserve_exact(1);
        bucket.push(CacheEntry {
            program: Arc::clone(&program),
            report: Arc::clone(&report),
            edges: Vec::new(),
            memo: OnceLock::new(),
        });
        (program, report, false)
    }

    /// The [`StateMemo`] of the entry holding `program`, found like a
    /// lookup (by address, then by content), or `None` when no entry
    /// holds it. It never judges nor inserts, and touches no counter, so
    /// asking changes no verdict. The slot lives as long as its entry.
    pub(crate) fn state_memo(&self, program: &Program) -> Option<Arc<StateMemo>> {
        let slot = |e: &CacheEntry| Arc::clone(e.memo.get_or_init(Arc::default));
        if let Some(key) = self.resident_key(program) {
            let read = self.shard(key).read().expect("oracle cache shard poisoned");
            if let Some(e) = find_resident(&read, key, program) {
                return Some(slot(e));
            }
        }
        let key = program_key(program);
        let read = self.shard(key).read().expect("oracle cache shard poisoned");
        read.get(&key)?.iter().find(|e| e.holds(program)).map(slot)
    }

    /// The memoised successor of `edit` made from `from`, resident under
    /// `key`: `Some(Some(successor))`, or `Some(None)` when the edit did
    /// not apply. `None` when the edit was never judged from `from`.
    fn edge(&self, key: u64, from: &Arc<Program>, edit: u64) -> Option<Option<Arc<Program>>> {
        let read = self.shard(key).read().expect("oracle cache shard poisoned");
        find_resident(&read, key, from)?
            .edges
            .iter()
            .find(|(e, _)| *e == edit)
            .map(|(_, to)| {
                to.as_ref()
                    .map(|to| to.upgrade().expect("an edge's successor is resident"))
            })
    }

    /// Records that `edit` made from `from`, resident under `key`,
    /// produced the canonical handle `to` (`None`: the edit did not
    /// apply). An edge already there is kept: `derive` is pure, so a
    /// racing worker remembered the same successor.
    fn remember_edge(&self, key: u64, from: &Arc<Program>, edit: u64, to: Option<&Arc<Program>>) {
        let mut write = self
            .shard(key)
            .write()
            .expect("oracle cache shard poisoned");
        let entry = write
            .get_mut(&key)
            .and_then(|bucket| bucket.iter_mut().find(|e| Arc::ptr_eq(&e.program, from)))
            .expect("a resident entry stays resident");
        if entry.edges.iter().all(|(e, _)| *e != edit) {
            entry.edges.reserve_exact(1);
            entry.edges.push((edit, to.map(Arc::downgrade)));
        }
    }

    /// The oracle verdict for `program`, executing the oracle only on the
    /// first structurally distinct sighting.
    pub fn report(&self, program: &Program) -> Arc<MiriReport> {
        self.lookup(program).0
    }

    /// The observable outputs of `program` under the oracle (the gold
    /// reference a repair must reproduce), cached like [`report`].
    ///
    /// [`report`]: OracleCache::report
    #[must_use]
    pub fn outputs(&self, program: &Program) -> Vec<String> {
        self.report(program).outputs.clone()
    }

    /// Current hit/miss/entry counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| {
                    s.read()
                        .expect("oracle cache shard poisoned")
                        .values()
                        .map(Vec::len)
                        .sum::<usize>() as u64
                })
                .sum(),
        }
    }
}

/// The [`Oracle`] implementation over an [`OracleCache`]: this is what the
/// batch engine injects into every system it builds, so the slow-thinking
/// executor's inner verifications, rollback re-verification, baselines and
/// gold-reference runs all share one process-wide verdict store.
pub struct CachedOracle {
    cache: Arc<OracleCache>,
}

impl CachedOracle {
    /// An oracle over an existing (possibly shared) cache.
    #[must_use]
    pub fn new(cache: Arc<OracleCache>) -> CachedOracle {
        CachedOracle { cache }
    }

    /// An oracle over the process-wide cache ([`OracleCache::global`]).
    #[must_use]
    pub fn global() -> CachedOracle {
        CachedOracle::new(OracleCache::global())
    }

    /// The backing cache.
    #[must_use]
    pub fn cache(&self) -> &Arc<OracleCache> {
        &self.cache
    }
}

impl Oracle for CachedOracle {
    fn judge(&self, program: &Program) -> Arc<MiriReport> {
        self.cache.report(program)
    }

    fn judge_counted(&self, program: &Program) -> (Arc<MiriReport>, bool) {
        self.cache.lookup(program)
    }

    fn judge_shared(&self, program: &Arc<Program>) -> (Arc<MiriReport>, bool) {
        self.cache.lookup_shared(program)
    }

    fn state_memo(&self, state: &Arc<Program>) -> Option<Arc<StateMemo>> {
        self.cache.state_memo(state)
    }

    /// Judges `program` like `judge_recording` and hands out the entry's
    /// own handle: an equal program judged earlier under another
    /// allocation (a repeated corpus input, a daemon request) continues
    /// from the resident state.
    fn judge_canonical(
        &self,
        program: &Arc<Program>,
        used: &mut OracleUse,
    ) -> (Arc<Program>, Arc<MiriReport>) {
        let record = JudgeRecord::open();
        let (canonical, report, cached) = self.cache.lookup_canonical(program);
        record.close(&report, cached, used);
        (canonical, report)
    }

    /// Serves a repeated edit of a resident state from the transition
    /// memo (see the module docs), and otherwise derives, judges and
    /// remembers it. Either way the judgement is recorded as the lookup
    /// of the successor it is, and the handle returned is canonical.
    fn judge_edit(
        &self,
        from: &Arc<Program>,
        edit: u64,
        derive: &mut dyn FnMut() -> Option<Program>,
        used: &mut OracleUse,
    ) -> Option<(Arc<Program>, Arc<MiriReport>)> {
        // Edges live on entries, so only a resident `from` has any.
        let from_key = self.cache.resident_key(from);
        if let Some(successor) = from_key.and_then(|key| self.cache.edge(key, from, edit)) {
            // The successor is resident, so its lookup is by address.
            let successor = successor?;
            let record = JudgeRecord::open();
            let (program, report, cached) = self.cache.lookup_canonical(&successor);
            record.close(&report, cached, used);
            return Some((program, report));
        }
        let Some(derived) = derive() else {
            if let Some(key) = from_key {
                self.cache.remember_edge(key, from, edit, None);
            }
            return None;
        };
        let candidate = Arc::new(derived);
        let record = JudgeRecord::open();
        let (program, report, cached) = self
            .cache
            .lookup_by_content(&candidate, || Arc::clone(&candidate));
        record.close(&report, cached, used);
        if let Some(key) = from_key {
            self.cache.remember_edge(key, from, edit, Some(&program));
        }
        Some((program, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::parser::parse_program;

    #[test]
    fn shard_count_is_power_of_two() {
        assert!(SHARD_COUNT.is_power_of_two());
    }

    #[test]
    fn report_matches_direct_oracle_run() {
        let p = parse_program("fn main() { print(7i32); }").unwrap();
        let cache = OracleCache::new();
        assert_eq!(*cache.report(&p), run_program(&p));
    }

    #[test]
    fn second_lookup_is_a_hit_sharing_the_verdict() {
        let p = parse_program("fn main() { print(7i32); }").unwrap();
        let oracle = CachedOracle::new(Arc::new(OracleCache::new()));
        let cache = oracle.cache();
        let first = cache.report(&p);
        let second = cache.report(&p);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
        // Entries live as long as the cache: 200 later programs leave an
        // early canonical handle in the address index and its edge served
        // without deriving.
        let early = Arc::new(parse_program("fn main() { print(8i32); }").unwrap());
        let mut used = OracleUse::default();
        let (early, _) = oracle.judge_canonical(&early, &mut used);
        let derives = std::cell::Cell::new(0);
        let mut derive = || {
            derives.set(derives.get() + 1);
            Some(parse_program("fn main() { print(9i32); }").unwrap())
        };
        let (successor, _) = oracle
            .judge_edit(&early, 1, &mut derive, &mut used)
            .unwrap();
        for q in distinct_programs(200) {
            cache.report(&q);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, stats.misses, "{stats:?}");
        assert_eq!(cache.resident_key(&early), Some(program_key(&early)));
        let (again, _) = oracle
            .judge_edit(&early, 1, &mut derive, &mut used)
            .unwrap();
        assert_eq!(derives.get(), 1, "the early state's edge was derived again");
        assert!(Arc::ptr_eq(&again, &successor));
        assert_eq!(cache.stats().hits, stats.hits + 1);
    }

    #[test]
    fn global_cache_is_one_instance() {
        assert!(Arc::ptr_eq(&OracleCache::global(), &OracleCache::global()));
    }

    #[test]
    fn cached_oracle_serves_through_the_trait() {
        let p = parse_program("fn main() { print(9i32); }").unwrap();
        let oracle = CachedOracle::new(Arc::new(OracleCache::new()));
        let (first, hit1) = oracle.judge_counted(&p);
        let (second, hit2) = oracle.judge_counted(&p);
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*oracle.judge(&p), run_program(&p));
    }

    /// The program the entry for `program` holds, if one does.
    fn stored(cache: &OracleCache, program: &Program) -> Option<Arc<Program>> {
        let key = program_key(program);
        let shard = cache.shard(key).read().unwrap();
        let entry = shard.get(&key)?.iter().find(|e| e.holds(program))?;
        Some(Arc::clone(&entry.program))
    }

    #[test]
    fn shared_miss_keeps_the_callers_handle() {
        let p = Arc::new(parse_program("fn main() { print(3i32); }").unwrap());
        let cache = OracleCache::new();
        let (first, hit1) = cache.lookup_shared(&p);
        let (second, hit2) = cache.lookup_shared(&p);
        assert!(!hit1 && hit2, "the second lookup of one handle must hit");
        assert!(Arc::ptr_eq(&first, &second));
        let entry = stored(&cache, &p).expect("a miss publishes an entry");
        assert!(Arc::ptr_eq(&entry, &p), "the entry copied the program");
        assert_eq!(*first, run_program(&p));
    }

    #[test]
    fn separately_built_equal_program_still_hits() {
        let src = "fn main() { let x: i32 = 4; print(x); }";
        let original = Arc::new(parse_program(src).unwrap());
        let rebuilt = Arc::new(parse_program(src).unwrap());
        assert!(!Arc::ptr_eq(&original, &rebuilt));
        let cache = OracleCache::new();
        let (first, _) = cache.lookup_shared(&original);
        let (second, hit) = cache.lookup_shared(&rebuilt);
        assert!(hit, "structural equality must still serve the verdict");
        assert!(Arc::ptr_eq(&first, &second));
        // The entry keeps the handle of the first sighting.
        assert!(Arc::ptr_eq(&stored(&cache, &rebuilt).unwrap(), &original));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn borrowed_lookup_stores_a_copy_and_hits() {
        let p = parse_program("fn main() { print(5i32); }").unwrap();
        let cache = OracleCache::new();
        let (first, hit1) = cache.lookup(&p);
        let (second, hit2) = cache.lookup(&p);
        assert!(!hit1 && hit2);
        assert!(Arc::ptr_eq(&first, &second));
        let entry = stored(&cache, &p).expect("a miss publishes an entry");
        assert_eq!(*entry, p);
        assert!(!std::ptr::eq(Arc::as_ptr(&entry), &p));
        // Both entry points address the same entry.
        let (third, hit3) = cache.lookup_shared(&Arc::new(p));
        assert!(hit3 && Arc::ptr_eq(&first, &third));
    }

    #[test]
    fn cached_oracle_judges_shared_handles_through_the_memo() {
        let p = Arc::new(parse_program("fn main() { print(6i32); }").unwrap());
        let oracle = CachedOracle::new(Arc::new(OracleCache::new()));
        let mut used = rb_miri::OracleUse::default();
        let first = oracle.judge_recording(&p, &mut used);
        let second = oracle.judge_recording(&p, &mut used);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((used.executed, used.cached), (1, 1));
        assert!(Arc::ptr_eq(&stored(oracle.cache(), &p).unwrap(), &p));
    }

    #[test]
    fn state_memo_is_found_by_address_and_content_and_never_inserts() {
        let p = Arc::new(parse_program("fn main() { print(4i32); }").unwrap());
        let equal = Arc::new(parse_program("fn main() { print(4i32); }").unwrap());
        let oracle = CachedOracle::new(Arc::new(OracleCache::new()));
        assert!(oracle.state_memo(&p).is_none(), "no entry, no slot");
        assert_eq!(oracle.cache().stats(), CacheStats::default());
        oracle.judge_shared(&p);
        let stats = oracle.cache().stats();
        let by_addr = oracle.state_memo(&p).expect("a resident state has a slot");
        let by_content = oracle.state_memo(&equal).expect("an equal state shares it");
        assert!(Arc::ptr_eq(&by_addr, &by_content));
        assert_eq!(oracle.cache().stats(), stats, "asking moved a counter");
        by_addr.get_or_init(|| 1u8);
        let again = oracle.state_memo(&p).unwrap();
        assert_eq!(again.get::<u8>().as_deref(), Some(&1));
    }

    /// The double free every repair test below starts from, and its
    /// reference output.
    fn double_free() -> (Arc<Program>, Vec<String>) {
        let p = parse_program(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        (Arc::new(p), vec!["3".to_owned()])
    }

    /// A new brain's repair of `input` through `oracle`, with how many
    /// times it derived its model's facts and program features.
    fn repair(
        oracle: &Arc<CachedOracle>,
        input: &Arc<Program>,
        gold: &[String],
    ) -> (String, u64, u64) {
        let config = rustbrain::RustBrainConfig::for_model(rb_llm::ModelId::Gpt4, 7);
        let mut brain = rustbrain::RustBrain::with_oracle(config, Arc::clone(oracle) as _);
        let out = brain.repair_shared(input, gold);
        let shown = format!(
            "{} {} {:?} {:?} {:?}",
            out.passed, out.acceptable, out.overhead_ms, out.error_history, out.final_program
        );
        (
            shown,
            brain.model().facts_derived(),
            brain.features_derived(),
        )
    }

    #[test]
    fn a_repair_leaves_facts_and_features_in_one_slot() {
        let (input, gold) = double_free();
        let oracle = Arc::new(CachedOracle::new(Arc::new(OracleCache::new())));
        let (cold, facts, features) = repair(&oracle, &input, &gold);
        assert!(facts > 0 && features > 0, "the cold repair derived nothing");
        let equal = Arc::new((*input).clone());
        let slot = oracle.state_memo(&equal).expect("the input is resident");
        assert_eq!(slot.filled(), 2, "{slot:?}");
        assert!(slot.get::<rustbrain::ProgramFeatures>().is_some());
        // A second brain reads both from the slot and answers alike.
        assert_eq!(repair(&oracle, &equal, &gold), (cold, 0, 0));
    }

    #[test]
    fn a_full_slot_leaves_the_repair_to_derive() {
        let (input, gold) = double_free();
        let roomy = Arc::new(CachedOracle::new(Arc::new(OracleCache::new())));
        let (free, _, _) = repair(&roomy, &input, &gold);
        let oracle = Arc::new(CachedOracle::new(Arc::new(OracleCache::new())));
        oracle.judge_shared(&input);
        let slot = oracle.state_memo(&input).expect("the input is resident");
        slot.get_or_init(|| 1u8);
        slot.get_or_init(|| 2u16);
        for _ in 0..2 {
            let (shown, facts, features) = repair(&oracle, &input, &gold);
            assert_eq!(shown, free);
            assert!(facts > 0, "the model found facts in a full slot");
            assert!(features > 0, "the brain found features in a full slot");
        }
        assert_eq!(slot.filled(), 2);
        assert!(slot.get::<rustbrain::ProgramFeatures>().is_none());
    }

    fn distinct_programs(n: usize) -> Vec<Program> {
        (0..n)
            .map(|i| parse_program(&format!("fn main() {{ print({i}); }}")).unwrap())
            .collect()
    }
}
