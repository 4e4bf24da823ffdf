//! Basic-block coverage instrumentation.
//!
//! Handlers tag every distinct code path with a static string (e.g.
//! `"mmap.anon"` or `"write.throttled"`). Strings are interned once into
//! dense [`BlockId`]s through a global registry, and each execution records
//! the blocks it traversed into a [`CoverageSet`]. The coverage-guided
//! generator keeps a program only if it reaches blocks no earlier program
//! reached — the same feedback signal Syzkaller extracts from KCOV.
//!
//! # Hot path
//!
//! Interning must be cheap and crash-isolated: every syscall handler hits
//! it on every call, from every worker of the parallel trial pool at once.
//! Three layers keep the steady state lock-free and the cold path safe:
//!
//! 1. **Per-call-site caches.** The [`cov!`]/[`cov_bucket!`]/[`fail!`]
//!    macros plant a `static` [`SiteCache`] (one relaxed
//!    `AtomicU32`) at each instrumentation site. After the first hit the
//!    site's [`BlockId`] is read straight from the atomic — no lock, no
//!    hashing, no allocation.
//! 2. **A read-optimized registry.** The cold path (first hit of a site,
//!    or a dynamic name) takes an `RwLock` read lock for lookup and only
//!    escalates to the write lock to intern a genuinely new name.
//!    [`block_bucketed`] and [`block_err`] look up with *borrowed* keys
//!    (`(name, bucket)` / the unprefixed name), so repeated calls never
//!    build a fresh `String` — the name is formatted and leaked exactly
//!    once, when it is genuinely new.
//! 3. **Poison recovery.** Every lock acquisition goes through
//!    [`read_reg`]/[`write_reg`], which recover a poisoned lock with
//!    `unwrap_or_else(|e| e.into_inner())` instead of panicking. A trial
//!    that panics mid-coverage therefore cannot cascade into sibling
//!    trials on the pool: write sections are short, straight-line and
//!    touch no user code, so a recovered registry is always consistent.
//!    (`registry_recovers_from_poison` pins this; the pool-level
//!    regression lives in `crates/varbench/tests/coverage_poison.rs`.)
//!
//! Error-path blocks are flagged in a **bitset at intern time** (any name
//! with the `err.` prefix, however it was interned), so
//! [`is_error_block`] and [`CoverageSet::error_blocks`] are O(1)/O(words)
//! bitmap operations instead of per-id string scans under the lock.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Dense id of one instrumented kernel code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Sentinel for "this call site has not interned its block yet".
/// (A real id would need four billion distinct blocks to collide.)
const UNINTERNED: u32 = u32::MAX;

struct Registry {
    /// Full interned name → id (the authoritative map).
    by_name: HashMap<&'static str, BlockId>,
    /// Borrowed-key cache for [`block_bucketed`]: `(base name, bucket)` →
    /// id, so the hit path never formats `"name#bucket"`.
    bucketed: HashMap<(&'static str, u32), BlockId>,
    /// Borrowed-key cache for [`block_err`]: unprefixed name → id, so the
    /// hit path never formats `"err.name"`.
    err_by_base: HashMap<&'static str, BlockId>,
    /// Reverse lookup, indexed by id.
    names: Vec<&'static str>,
    /// Bit `i` set ⇔ block `i` is an error-path block (`err.` prefix),
    /// recorded at intern time.
    err_bits: Vec<u64>,
}

impl Registry {
    /// Interns a full (already prefixed / formatted) name. The body is
    /// straight-line and panic-free so a recovered write lock can never
    /// expose a half-updated registry.
    fn intern(&mut self, name: &'static str) -> BlockId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = BlockId(self.names.len() as u32);
        self.names.push(name);
        if name.starts_with("err.") {
            let (word, bit) = (id.0 as usize / 64, id.0 as usize % 64);
            if word >= self.err_bits.len() {
                self.err_bits.resize(word + 1, 0);
            }
            self.err_bits[word] |= 1 << bit;
        }
        self.by_name.insert(name, id);
        id
    }
}

fn registry() -> &'static RwLock<Registry> {
    static REG: OnceLock<RwLock<Registry>> = OnceLock::new();
    REG.get_or_init(|| {
        RwLock::new(Registry {
            by_name: HashMap::new(),
            bucketed: HashMap::new(),
            err_by_base: HashMap::new(),
            names: Vec::new(),
            err_bits: Vec::new(),
        })
    })
}

/// Read access with poison recovery: a panicked sibling trial must never
/// turn coverage lookups into a process-wide cascade panic.
fn read_reg() -> RwLockReadGuard<'static, Registry> {
    registry().read().unwrap_or_else(|e| e.into_inner())
}

/// Write access with poison recovery (see [`read_reg`]; write sections
/// are panic-free, so recovery always observes a consistent registry).
fn write_reg() -> RwLockWriteGuard<'static, Registry> {
    registry().write().unwrap_or_else(|e| e.into_inner())
}

/// Interns a block name; the same name always maps to the same id within
/// a process.
pub fn block(name: &'static str) -> BlockId {
    if let Some(&id) = read_reg().by_name.get(name) {
        return id;
    }
    write_reg().intern(name)
}

/// Interns a parameterized block, e.g. `("io.read.size", 3)` →
/// `io.read.size#3`. Handlers use this for argument-dependent paths
/// (size classes, depth classes), giving the generator a finer coverage
/// signal — the analogue of distinct basic blocks inside `switch`es and
/// size-dependent loops. The composite name is formatted and leaked once
/// per distinct pair; the hit path looks up with a borrowed
/// `(name, bucket)` key and allocates nothing.
pub fn block_bucketed(name: &'static str, bucket: u32) -> BlockId {
    if let Some(&id) = read_reg().bucketed.get(&(name, bucket)) {
        return id;
    }
    // Cold: format outside the write section, then double-check (another
    // thread may have interned the pair between the two locks).
    let full = format!("{name}#{bucket}");
    let mut reg = write_reg();
    if let Some(&id) = reg.bucketed.get(&(name, bucket)) {
        return id;
    }
    let id = match reg.by_name.get(full.as_str()) {
        Some(&id) => id,
        None => {
            let leaked: &'static str = Box::leak(full.into_boxed_str());
            reg.intern(leaked)
        }
    };
    reg.bucketed.insert((name, bucket), id);
    id
}

/// Interns an **error-path** block: the name is prefixed with `err.` so
/// error blocks are distinguishable from happy-path blocks when counting
/// coverage (e.g. `block_err("io.fsync.eio")` → `err.io.fsync.eio`).
/// Handlers reach these only when a fault plan forces a failure, which is
/// what makes fault-injection corpora measurably *new* coverage. The
/// prefixed name is formatted and leaked once; the hit path looks up the
/// unprefixed name and allocates nothing.
pub fn block_err(name: &'static str) -> BlockId {
    if let Some(&id) = read_reg().err_by_base.get(name) {
        return id;
    }
    let full = format!("err.{name}");
    let mut reg = write_reg();
    if let Some(&id) = reg.err_by_base.get(name) {
        return id;
    }
    let id = match reg.by_name.get(full.as_str()) {
        Some(&id) => id,
        None => {
            let leaked: &'static str = Box::leak(full.into_boxed_str());
            reg.intern(leaked)
        }
    };
    reg.err_by_base.insert(name, id);
    id
}

/// Reverse lookup for diagnostics. Total: an id that was never interned
/// (e.g. a corrupted value surfaced in a crash report) maps to a
/// placeholder instead of panicking while the registry lock is held —
/// the exact slip that used to poison the registry for every sibling
/// trial on the pool.
pub fn block_name(id: BlockId) -> &'static str {
    read_reg()
        .names
        .get(id.0 as usize)
        .copied()
        .unwrap_or("<unknown block>")
}

/// True when `id` names an error-path block (an `err.`-prefixed name,
/// whether it was interned through [`block_err`] or directly). A bitset
/// probe — no string comparison, no allocation.
pub fn is_error_block(id: BlockId) -> bool {
    let (word, bit) = (id.0 as usize / 64, id.0 as usize % 64);
    read_reg()
        .err_bits
        .get(word)
        .is_some_and(|w| w & (1 << bit) != 0)
}

/// Number of distinct blocks interned so far.
pub fn block_universe() -> usize {
    read_reg().names.len()
}

/// One instrumentation site's interned-id cache: a relaxed `AtomicU32`
/// planted as a `static` by the [`cov!`]-family macros. The first hit
/// interns through the registry; every later hit is a single atomic load.
/// Racing first hits are benign — interning is idempotent, so both
/// threads store the same id.
pub struct SiteCache(AtomicU32);

impl SiteCache {
    /// A cache holding no id yet.
    pub const fn new() -> Self {
        Self(AtomicU32::new(UNINTERNED))
    }

    /// The site's id, interning `name` on first use.
    #[inline]
    pub fn get(&self, name: &'static str) -> BlockId {
        let v = self.0.load(Ordering::Relaxed);
        if v != UNINTERNED {
            return BlockId(v);
        }
        let id = block(name);
        self.0.store(id.0, Ordering::Relaxed);
        id
    }

    /// The site's error-path id (`err.`-prefixed), interning on first use.
    #[inline]
    pub fn get_err(&self, name: &'static str) -> BlockId {
        let v = self.0.load(Ordering::Relaxed);
        if v != UNINTERNED {
            return BlockId(v);
        }
        let id = block_err(name);
        self.0.store(id.0, Ordering::Relaxed);
        id
    }
}

impl Default for SiteCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-call-site cache for bucketed blocks: one atomic slot per bucket
/// value (size/depth classes are log2, so 65 slots cover every `u64`
/// size class). Out-of-range buckets fall back to the registry's
/// borrowed-key path, which is still allocation-free on hits.
pub struct BucketSiteCache {
    slots: [AtomicU32; Self::SLOTS],
}

impl BucketSiteCache {
    const SLOTS: usize = 65;

    /// A cache holding no ids yet.
    pub const fn new() -> Self {
        Self {
            slots: [const { AtomicU32::new(UNINTERNED) }; Self::SLOTS],
        }
    }

    /// The site's id for `bucket`, interning `name#bucket` on first use.
    #[inline]
    pub fn get(&self, name: &'static str, bucket: u32) -> BlockId {
        match self.slots.get(bucket as usize) {
            Some(slot) => {
                let v = slot.load(Ordering::Relaxed);
                if v != UNINTERNED {
                    return BlockId(v);
                }
                let id = block_bucketed(name, bucket);
                slot.store(id.0, Ordering::Relaxed);
                id
            }
            None => block_bucketed(name, bucket),
        }
    }
}

impl Default for BucketSiteCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Records coverage of a named kernel path with a per-call-site cached
/// id: `cov!(h, "mm.alloc.pcp")`. The name must be a literal — each
/// expansion owns one `static` cache, so a runtime name would pin the
/// first value it saw. Use [`crate::dispatch::HCtx::cover`] for dynamic
/// names.
macro_rules! cov {
    ($h:expr, $name:literal) => {{
        static SITE: $crate::coverage::SiteCache = $crate::coverage::SiteCache::new();
        $h.cover_id(SITE.get($name));
    }};
}
pub(crate) use cov;

/// Records coverage of a parameterized path with per-call-site cached
/// ids, one per bucket: `cov_bucket!(h, "io.read.size", class)`.
macro_rules! cov_bucket {
    ($h:expr, $name:literal, $bucket:expr) => {{
        static SITE: $crate::coverage::BucketSiteCache = $crate::coverage::BucketSiteCache::new();
        $h.cover_id(SITE.get($name, $bucket));
    }};
}
pub(crate) use cov_bucket;

/// Terminates the call on an error path with a per-call-site cached
/// error block: `fail!(h, Errno::ENOMEM, "mm.mmap.enomem")`. Equivalent
/// to [`crate::dispatch::HCtx::fail`] minus the registry round-trip.
macro_rules! fail {
    ($h:expr, $errno:expr, $name:literal) => {{
        static SITE: $crate::coverage::SiteCache = $crate::coverage::SiteCache::new();
        $h.fail_id($errno, SITE.get_err($name));
    }};
}
pub(crate) use fail;

/// Interns (once) and returns a cached [`BlockId`] for a literal name —
/// the id-valued form of [`cov!`] for code that records into a
/// [`CoverageSet`] directly (daemons, tests).
macro_rules! cov_block {
    ($name:literal) => {{
        static SITE: $crate::coverage::SiteCache = $crate::coverage::SiteCache::new();
        SITE.get($name)
    }};
}
pub(crate) use cov_block;

/// A set of covered blocks, implemented as a growable bitmap.
#[derive(Debug, Clone, Default)]
pub struct CoverageSet {
    bits: Vec<u64>,
    count: usize,
}

impl CoverageSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a block; returns `true` when it was new.
    pub fn insert(&mut self, id: BlockId) -> bool {
        let (word, bit) = (id.0 as usize / 64, id.0 as usize % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.count += 1;
        true
    }

    /// Membership test.
    pub fn contains(&self, id: BlockId) -> bool {
        let (word, bit) = (id.0 as usize / 64, id.0 as usize % 64);
        self.bits.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Number of covered blocks.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when nothing is covered.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Counts blocks in `other` not present in `self`.
    pub fn new_blocks(&self, other: &CoverageSet) -> usize {
        let mut n = 0;
        for (i, &w) in other.bits.iter().enumerate() {
            let mine = self.bits.get(i).copied().unwrap_or(0);
            n += (w & !mine).count_ones() as usize;
        }
        n
    }

    /// Merges `other` into `self`; returns how many blocks were new.
    pub fn merge(&mut self, other: &CoverageSet) -> usize {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        let mut added = 0;
        for (i, &w) in other.bits.iter().enumerate() {
            let newbits = w & !self.bits[i];
            added += newbits.count_ones() as usize;
            self.bits[i] |= w;
        }
        self.count += added;
        added
    }

    /// Iterates over covered block ids.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.bits.iter().enumerate().flat_map(|(i, &w)| {
            (0..64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| BlockId((i * 64 + b) as u32))
        })
    }

    /// Number of covered **error-path** blocks (those with an `err.`
    /// prefix). A no-fault execution covers zero of these; any positive
    /// count is coverage only fault injection can reach. A word-wise
    /// intersection with the registry's intern-time error bitset — the
    /// read lock is held for an O(words) bitmap walk, not a per-id
    /// string scan.
    pub fn error_blocks(&self) -> usize {
        let reg = read_reg();
        self.bits
            .iter()
            .enumerate()
            .map(|(i, &w)| (w & reg.err_bits.get(i).copied().unwrap_or(0)).count_ones() as usize)
            .sum()
    }

    /// Removes all blocks.
    pub fn clear(&mut self) {
        self.bits.clear();
        self.count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = block("cov.test.alpha");
        let b = block("cov.test.beta");
        assert_ne!(a, b);
        assert_eq!(block("cov.test.alpha"), a);
        assert_eq!(block_name(a), "cov.test.alpha");
    }

    #[test]
    fn insert_and_contains() {
        let mut s = CoverageSet::new();
        let a = block("cov.test.i1");
        assert!(!s.contains(a));
        assert!(s.insert(a));
        assert!(!s.insert(a), "second insert is not new");
        assert!(s.contains(a));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_counts_new_blocks() {
        let a = block("cov.test.m1");
        let b = block("cov.test.m2");
        let c = block("cov.test.m3");
        let mut base = CoverageSet::new();
        base.insert(a);
        let mut other = CoverageSet::new();
        other.insert(a);
        other.insert(b);
        other.insert(c);
        assert_eq!(base.new_blocks(&other), 2);
        assert_eq!(base.merge(&other), 2);
        assert_eq!(base.len(), 3);
        assert_eq!(base.new_blocks(&other), 0);
    }

    #[test]
    fn iter_roundtrips() {
        let ids = [
            block("cov.test.r1"),
            block("cov.test.r2"),
            block("cov.test.r3"),
        ];
        let mut s = CoverageSet::new();
        for &i in &ids {
            s.insert(i);
        }
        let got: Vec<BlockId> = s.iter().collect();
        assert_eq!(got.len(), 3);
        for &i in &ids {
            assert!(got.contains(&i));
        }
    }

    #[test]
    fn error_blocks_are_counted_separately() {
        let ok = block("cov.test.happy");
        let bad = block_err("cov.test.sad");
        assert!(!is_error_block(ok));
        assert!(is_error_block(bad));
        assert_eq!(block_name(bad), "err.cov.test.sad");
        assert_eq!(block_err("cov.test.sad"), bad, "interning is stable");
        let mut s = CoverageSet::new();
        s.insert(ok);
        assert_eq!(s.error_blocks(), 0);
        s.insert(bad);
        assert_eq!(s.error_blocks(), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn err_prefix_interned_directly_is_still_an_error_block() {
        // The bitset is keyed on the name, not the entry point: a block
        // interned through `block("err.x")` and one through
        // `block_err("x")` are the same id and both flagged.
        let via_block = block("err.cov.test.direct");
        assert!(is_error_block(via_block));
        assert_eq!(block_err("cov.test.direct"), via_block);
    }

    #[test]
    fn clear_empties() {
        let mut s = CoverageSet::new();
        s.insert(block("cov.test.c1"));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    /// How many interned ids carry `name`. Sibling tests intern blocks
    /// concurrently, so the universe size itself is not a stable
    /// witness; the count of ids under one name is.
    fn interned_as(name: &str) -> usize {
        (0..block_universe() as u32)
            .filter(|&i| block_name(BlockId(i)) == name)
            .count()
    }

    #[test]
    fn bucketed_interning_is_stable_and_does_not_grow_the_universe() {
        // Re-hitting an interned bucketed block must not mint a new id:
        // exactly one id carries the composite name.
        let id = block_bucketed("cov.test.bucket.stable", 7);
        for _ in 0..1_000 {
            assert_eq!(block_bucketed("cov.test.bucket.stable", 7), id);
        }
        assert_eq!(
            interned_as("cov.test.bucket.stable#7"),
            1,
            "repeated hits must not re-intern"
        );
        // A different bucket is a different block.
        let other = block_bucketed("cov.test.bucket.stable", 8);
        assert_ne!(other, id);
        assert_eq!(block_name(id), "cov.test.bucket.stable#7");
    }

    #[test]
    fn err_interning_is_stable_and_does_not_grow_the_universe() {
        let id = block_err("cov.test.err.stable");
        for _ in 0..1_000 {
            assert_eq!(block_err("cov.test.err.stable"), id);
        }
        assert_eq!(interned_as("err.cov.test.err.stable"), 1);
    }

    #[test]
    fn site_caches_return_registry_ids() {
        let cached = cov_block!("cov.test.site_cache");
        assert_eq!(block("cov.test.site_cache"), cached);
        // Second expansion hit goes through the atomic; same id.
        assert_eq!(cov_block!("cov.test.site_cache"), cached);

        let site = SiteCache::new();
        let e = site.get_err("cov.test.site_cache.err");
        assert_eq!(block_err("cov.test.site_cache.err"), e);
        assert!(is_error_block(e));

        let bsite = BucketSiteCache::new();
        let b3 = bsite.get("cov.test.site_cache.bkt", 3);
        assert_eq!(block_bucketed("cov.test.site_cache.bkt", 3), b3);
        assert_eq!(bsite.get("cov.test.site_cache.bkt", 3), b3);
        // Out-of-cache-range buckets still intern correctly.
        let big = bsite.get("cov.test.site_cache.bkt", 1_000);
        assert_eq!(block_bucketed("cov.test.site_cache.bkt", 1_000), big);
    }

    #[test]
    fn unknown_id_has_a_placeholder_name() {
        assert_eq!(block_name(BlockId(u32::MAX - 1)), "<unknown block>");
        assert!(!is_error_block(BlockId(u32::MAX - 1)));
    }

    #[test]
    fn registry_recovers_from_poison() {
        let before = block("cov.test.poison.before");
        // Poison the write lock: a thread panics while holding it (the
        // guard is acquired and dropped mid-unwind without mutating, so
        // the registry stays consistent).
        let _ = std::thread::spawn(|| {
            let _guard = super::registry().write().unwrap_or_else(|e| e.into_inner());
            panic!("deliberately poison the coverage registry");
        })
        .join();
        // Every accessor must recover instead of cascading the panic.
        assert_eq!(block("cov.test.poison.before"), before);
        let after = block("cov.test.poison.after");
        assert_ne!(after, before);
        assert_eq!(block_name(after), "cov.test.poison.after");
        assert!(is_error_block(block_err("cov.test.poison.err")));
        assert!(block_universe() > 0);
        let mut s = CoverageSet::new();
        s.insert(block_err("cov.test.poison.err"));
        assert_eq!(s.error_blocks(), 1);
    }

    #[test]
    fn no_bare_lock_unwrap_on_the_registry() {
        // Source lint, enforced by `cargo test` everywhere (CI repeats it
        // as a grep in the lint job): the registry must only be touched
        // through the poison-recovering accessors. The needle is split so
        // this test's own source doesn't match it.
        let src = include_str!("coverage.rs");
        for method in ["read", "write", "lock"] {
            let needle = format!(".{method}().unwrap{}", "()");
            assert!(
                !src.contains(&needle),
                "coverage.rs must not call {needle} on the registry — \
                 use read_reg()/write_reg() (poison recovery)"
            );
        }
    }
}
