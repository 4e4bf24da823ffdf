//! Basic-block coverage instrumentation.
//!
//! Handlers tag every distinct code path with a name (e.g. `"mm.mmap"`
//! or `"io.write.throttled"`), and each execution records the blocks it
//! traversed into a [`CoverageSet`]. The coverage-guided generator keeps
//! a program only if it reaches blocks no earlier program reached — the
//! same feedback signal Syzkaller extracts from KCOV.
//!
//! # The block table
//!
//! Every block name is a literal in one static table, and a block's
//! [`BlockId`] is its position there:
//!
//! | ids                     | blocks                                         |
//! |-------------------------|------------------------------------------------|
//! | `0..ERR_BASE`           | plain names (`PLAIN`)                          |
//! | `ERR_BASE..BUCKET_BASE` | error-path names, `err.`-prefixed (`ERR`)      |
//! | `BUCKET_BASE..`         | one fixed range per bucketed name (`BUCKETED`) |
//!
//! The `cov!`, `cov_bucket!`, `fail!` and [`cov_block!`](crate::cov_block)
//! macros resolve their literal with a `const fn` lookup, so each site's
//! id is a constant and a name missing from the table fails the build at
//! the site. Ids are the same in every process and at every pool width.

use std::borrow::Cow;

use crate::syscalls::SysNo;

/// Dense id of one instrumented kernel code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Buckets of a log2 size class: `HCtx::size_class` of a `u64` is at
/// most 64.
const SIZE_CLASSES: u32 = u64::BITS + 1;

/// Happy-path block names; the id of `PLAIN[i]` is `i`.
const PLAIN: &[&str] = &[
    // Kernel daemons (`daemons.rs`).
    "daemon.flusher.commit",
    "daemon.kswapd.reclaim",
    "daemon.lb.pass",
    "daemon.vmstat.fold",
    "daemon.napi.poll",
    // Shared helpers and exit teardown (`dispatch.rs`).
    "mm.alloc.pcp",
    "mm.alloc.zone_refill",
    "mm.alloc.direct_reclaim",
    "mm.free.zone_spill",
    "mm.slab.fast",
    "mm.slab.depot",
    "fs.path_walk",
    "fs.path_walk.cold",
    "cgroup.charge",
    "cgroup.stat_flush",
    "sched.exit",
    "sched.exit.reap",
    // File I/O (`subsystems/fileio.rs`).
    "io.read.ebadf",
    "io.read.pipe",
    "io.read.eventfd",
    "io.read.socket",
    "io.read.epoll",
    "io.read.hit",
    "io.read.miss",
    "io.write.ebadf",
    "io.write.pipe",
    "io.write.eventfd",
    "io.write.socket",
    "io.write.epoll",
    "io.write.file",
    "io.write.throttled",
    "io.lseek.ebadf",
    "io.lseek",
    "io.fsync.ebadf",
    "io.fsync.nonfile",
    "io.fsync.clean",
    "io.fdatasync",
    "io.fsync.commit",
    "io.readv",
    "io.writev",
    "io.fallocate.ebadf",
    "io.fallocate.nonfile",
    "io.fallocate",
    // Filesystem management (`subsystems/fs.rs`).
    "fs.lookup.enoent",
    "fs.create",
    "fs.open.creat",
    "fs.open.existing",
    "fs.close.ebadf",
    "fs.close",
    "fs.stat",
    "fs.fstat.ebadf",
    "fs.fstat",
    "fs.access",
    "fs.getdents",
    "fs.mkdir",
    "fs.rmdir",
    "fs.unlink",
    "fs.unlink.enoent",
    "fs.unlink.invalidate",
    "fs.rename.enoent",
    "fs.rename",
    "fs.symlink",
    "fs.readlink",
    "fs.truncate",
    "fs.truncate.invalidate",
    // IPC (`subsystems/ipc.rs`).
    "ipc.pipe2",
    "ipc.futex.wait_eagain",
    "ipc.futex.wake",
    "ipc.msgget",
    "ipc.msgsnd.einval",
    "ipc.msgsnd",
    "ipc.msgrcv.einval",
    "ipc.msgrcv.eagain",
    "ipc.msgrcv.dequeue",
    "ipc.semget",
    "ipc.semop.einval",
    "ipc.semop",
    "ipc.shmget",
    "ipc.shmat.einval",
    "ipc.shmat",
    "ipc.shmdt.einval",
    "ipc.shmdt",
    "ipc.eventfd",
    // Memory management (`subsystems/mm.rs`).
    "mm.mmap",
    "mm.mmap.populate",
    "mm.munmap.efault",
    "mm.munmap",
    "mm.mprotect.efault",
    "mm.mprotect",
    "mm.madvise.efault",
    "mm.madvise.dontneed",
    "mm.madvise.willneed",
    "mm.madvise.advisory",
    "mm.brk.grow",
    "mm.brk.shrink",
    "mm.brk.query",
    "mm.mremap.efault",
    "mm.mremap",
    "mm.mlock.efault",
    "mm.mlock",
    "mm.munlock.efault",
    "mm.munlock",
    "mm.msync.clean",
    "mm.msync.flush",
    "mm.mincore.efault",
    "mm.mincore",
    // Networking (`subsystems/net.rs`).
    "net.close.flush",
    "net.socket",
    "net.socket.stream",
    "net.socket.dgram",
    "net.bind",
    "net.bind.ebadf",
    "net.bind.addrinuse",
    "net.listen",
    "net.listen.ebadf",
    "net.listen.einval",
    "net.connect",
    "net.connect.ebadf",
    "net.connect.refused",
    "net.connect.backlog_full",
    "net.connect.ring_full",
    "net.accept",
    "net.accept.einval",
    "net.accept.eagain",
    "net.sendto.ring_full",
    "net.stack.shared",
    "net.sendto.noroute",
    "net.sendto.eagain",
    "net.recvfrom.eagain",
    "net.sendto",
    "net.sendto.ebadf",
    "net.recvfrom",
    "net.recvfrom.ebadf",
    "net.shutdown",
    "net.shutdown.ebadf",
    "net.shutdown.flush",
    "net.epoll_create",
    "net.epoll_wait",
    "net.epoll_wait.ebadf",
    // Permissions (`subsystems/perms.rs`).
    "perm.chmod",
    "perm.chmod.audit",
    "perm.fchmod.ebadf",
    "perm.fchmod",
    "perm.fchmod.audit",
    "perm.chown",
    "perm.chown.audit",
    "perm.setuid.change",
    "perm.setuid.same",
    "perm.setuid.audit",
    "perm.getuid",
    "perm.capget",
    "perm.capset",
    "perm.capset.audit",
    "perm.umask",
    "perm.setgroups",
    "perm.setgroups.audit",
    "perm.prctl.name",
    "perm.prctl.seccomp",
    "perm.prctl.audit",
    "perm.prctl.simple",
    // Process management (`subsystems/sched.rs`).
    "sched.getpid",
    "sched.yield",
    "sched.clone",
    "sched.clone.large_mm",
    "sched.wait4.reap",
    "sched.wait4.nochild",
    "sched.kill.probe",
    "sched.kill.deliver",
    "sched.setaffinity",
    "sched.setaffinity.migrate",
    "sched.getparam",
    "sched.setpriority",
    "sched.nanosleep",
    "sched.getrusage",
    // `ksa-cluster` fabric recovery, recorded through `cov_block!`.
    "recovery.cluster.dup_drop",
    "recovery.cluster.retransmit",
    "recovery.cluster.backoff_capped",
    "recovery.cluster.rejoin",
    "recovery.cluster.reassign",
    "recovery.cluster.suspect",
    "recovery.cluster.dead",
    "recovery.cluster.reexec",
];

/// Error-path block names, ids following [`PLAIN`]. Sites name them
/// without the prefix: `fail!(h, Errno::ENOMEM, "mm.mmap.enomem")`.
const ERR: &[&str] = &[
    // Shared helpers and exit teardown (`dispatch.rs`).
    "err.fs.path_walk.enomem",
    "err.fs.path_walk.eio",
    "err.spec.enosys",
    // File I/O (`subsystems/fileio.rs`).
    "err.io.read.enomem",
    "err.io.read.eio",
    "err.io.write.enomem",
    "err.io.write.journal_timeout",
    "err.io.write.eio",
    "err.io.fsync.data_eio",
    "err.io.fsync.journal_timeout",
    "err.io.fsync.eio",
    "err.io.fallocate.journal_timeout",
    // Filesystem management (`subsystems/fs.rs`).
    "err.fs.create.enomem",
    "err.fs.create.journal_timeout",
    "err.fs.unlink.journal_timeout",
    "err.fs.rename.timeout",
    "err.fs.rename.journal_timeout",
    "err.fs.truncate.journal_timeout",
    // IPC (`subsystems/ipc.rs`).
    "err.ipc.pipe2.enomem",
    "err.ipc.pipe2.buffer_enomem",
    "err.ipc.msgget.enomem",
    "err.ipc.msgsnd.enomem",
    "err.ipc.semget.enomem",
    "err.ipc.shmget.enomem",
    "err.ipc.shmat.enomem",
    "err.ipc.eventfd.enomem",
    // Memory management (`subsystems/mm.rs`).
    "err.mm.mmap.enomem",
    "err.mm.mmap.eagain",
    "err.mm.mmap.populate_enomem",
    "err.mm.madvise.enomem",
    "err.mm.brk.enomem",
    "err.mm.mremap.enomem",
    "err.mm.mlock.enomem",
    // Networking (`subsystems/net.rs`).
    "err.net.socket.enomem",
    "err.net.bind.busy",
    "err.net.listen.enomem",
    "err.net.connect.enomem",
    "err.net.connect.busy",
    "err.net.accept.enomem",
    "err.net.sendto.enomem",
    "err.net.sendto.busy",
    "err.net.sendto.eio",
    "err.net.recvfrom.busy",
    "err.net.shutdown.busy",
    "err.net.epoll_create.enomem",
    // Process management (`subsystems/sched.rs`).
    "err.sched.clone.enomem",
    "err.sched.clone.stack_enomem",
    // `ksa-cluster` fabric recovery, recorded through `cov_block!`.
    "err.cluster.ack_drop",
    "err.cluster.partition",
    "err.cluster.link_drop",
    "err.cluster.completion_lost",
    "err.cluster.no_members",
    "err.cluster.hb_miss",
    "err.cluster.node_crash",
];

/// Bucketed block names, each with the width of its id range (ranges
/// follow [`ERR`] in this order). Bucket `b` of `name` renders as
/// `name#b`.
const BUCKETED: &[(&str, u32)] = &[
    ("spec.enosys.sysno", SysNo::ALL.len() as u32), // bucket is `SysNo::index`
    ("sched.exit.fds", SIZE_CLASSES),
    ("sched.exit.vmas", SIZE_CLASSES),
    ("io.read.size", SIZE_CLASSES),
    ("io.write.size", SIZE_CLASSES),
    ("fs.lookup.depth", 6), // depth is 2 + sel % 4
    ("ipc.msgsnd.size", SIZE_CLASSES),
    ("mm.mmap.pages", SIZE_CLASSES),
    ("mm.munmap.pages", SIZE_CLASSES),
    ("mm.mremap.pages", SIZE_CLASSES),
    ("net.bind.table", SIZE_CLASSES),
    ("net.sendto.size", SIZE_CLASSES),
    ("net.recvfrom.size", SIZE_CLASSES),
    ("net.epoll_wait.ready", SIZE_CLASSES),
    ("sched.nanosleep.dur", SIZE_CLASSES),
];

const ERR_BASE: u32 = PLAIN.len() as u32;
const BUCKET_BASE: u32 = ERR_BASE + ERR.len() as u32;

pub(crate) const fn bytes_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

const fn has_err_prefix(name: &str) -> bool {
    let n = name.as_bytes();
    n.len() > 4 && bytes_eq(n.split_at(4).0, b"err.")
}

/// Index of the first entry of `names` that equals `name` once its first
/// `skip` bytes are dropped.
const fn position(names: &[&str], skip: usize, name: &str) -> Option<usize> {
    let mut i = 0;
    while i < names.len() {
        if bytes_eq(names[i].as_bytes().split_at(skip).1, name.as_bytes()) {
            return Some(i);
        }
        i += 1;
    }
    None
}

/// Checks one name list: no name twice, and the `err.` prefix on every
/// name exactly when `err` is set.
const fn check_names(names: &[&str], err: bool) {
    let mut i = 0;
    while i < names.len() {
        assert!(
            matches!(position(names, 0, names[i]), Some(j) if j == i),
            "a block name is listed twice"
        );
        assert!(
            has_err_prefix(names[i]) == err,
            "the err. prefix marks exactly the ERR names"
        );
        i += 1;
    }
}

// Checked at build time: a name listed twice would split its coverage
// across two ids, and the `err.` prefix is what marks an error block.
// The unit test that round-trips every id's name covers the rest.
const _: () = {
    check_names(PLAIN, false);
    check_names(ERR, true);
};

/// Id of the plain block `name`. The macros evaluate it at compile time.
///
/// # Panics
///
/// When `name` is not in the table (a build error at a macro site).
pub const fn plain_id(name: &str) -> BlockId {
    match position(PLAIN, 0, name) {
        Some(i) => BlockId(i as u32),
        None => panic!("not a coverage block: add the name to the table in coverage.rs"),
    }
}

/// Id of the error-path block `err.{name}`. The macros evaluate it at
/// compile time.
///
/// # Panics
///
/// When `err.{name}` is not in the table (a build error at a macro site).
pub const fn err_id(name: &str) -> BlockId {
    match position(ERR, 4, name) {
        Some(i) => BlockId(ERR_BASE + i as u32),
        None => panic!("not an error-path block: add err.<name> to the table in coverage.rs"),
    }
}

/// The `(first id, width)` range of the bucketed block `name`.
pub(crate) const fn bucket_range(name: &str) -> (u32, u32) {
    let (mut base, mut i) = (BUCKET_BASE, 0);
    while i < BUCKETED.len() {
        let (entry, width) = BUCKETED[i];
        if bytes_eq(entry.as_bytes(), name.as_bytes()) {
            return (base, width);
        }
        base += width;
        i += 1;
    }
    panic!("not a bucketed block: add the name to the table in coverage.rs")
}

/// The id of `bucket` within a bucketed block's `(first id, width)`
/// range. A bucket past the range panics: its id would belong to the
/// next name.
#[inline]
pub(crate) fn bucket_id((base, width): (u32, u32), bucket: u32) -> BlockId {
    assert!(
        bucket < width,
        "coverage bucket {bucket} outside its range of {width}"
    );
    BlockId(base + bucket)
}

/// The name of `id`: `name`, `err.name` or `name#bucket`. Total: an id
/// outside the table (e.g. a corrupted value in a crash report) maps to
/// `<unknown block>`.
pub fn block_name(id: BlockId) -> Cow<'static, str> {
    let i = id.0;
    if i < ERR_BASE {
        return Cow::Borrowed(PLAIN[i as usize]);
    }
    if i < BUCKET_BASE {
        return Cow::Borrowed(ERR[(i - ERR_BASE) as usize]);
    }
    let mut bucket = i - BUCKET_BASE;
    for &(name, width) in BUCKETED {
        if bucket < width {
            return Cow::Owned(format!("{name}#{bucket}"));
        }
        bucket -= width;
    }
    Cow::Borrowed("<unknown block>")
}

/// True when `id` names an error-path block (an `err.`-prefixed name).
pub fn is_error_block(id: BlockId) -> bool {
    (ERR_BASE..BUCKET_BASE).contains(&id.0)
}

/// The [`BlockId`](crate::coverage::BlockId) of a table block, as a
/// constant: `cov_block!("daemon.kswapd.reclaim")`, or
/// `cov_block!(err "cluster.partition")` for the error-path block
/// `err.cluster.partition`.
///
/// ```
/// let id = ksa_kernel::cov_block!("daemon.kswapd.reclaim");
/// assert_eq!(ksa_kernel::coverage::block_name(id), "daemon.kswapd.reclaim");
/// let err = ksa_kernel::cov_block!(err "cluster.partition");
/// assert_eq!(ksa_kernel::coverage::block_name(err), "err.cluster.partition");
/// ```
///
/// A name missing from the table is a build error at the call:
///
/// ```compile_fail
/// let id = ksa_kernel::cov_block!("no.such.block");
/// ```
#[macro_export]
macro_rules! cov_block {
    ($name:literal) => {{
        const ID: $crate::coverage::BlockId = $crate::coverage::plain_id($name);
        ID
    }};
    (err $name:literal) => {{
        const ID: $crate::coverage::BlockId = $crate::coverage::err_id($name);
        ID
    }};
}

/// Records coverage of a table block: `cov!(h, "mm.alloc.pcp")`.
macro_rules! cov {
    ($h:expr, $name:literal) => {
        $h.cover_id($crate::cov_block!($name))
    };
}
pub(crate) use cov;

/// Records coverage of one bucket of a bucketed block:
/// `cov_bucket!(h, "io.read.size", class)`.
macro_rules! cov_bucket {
    ($h:expr, $name:literal, $bucket:expr) => {{
        const RANGE: (u32, u32) = $crate::coverage::bucket_range($name);
        $h.cover_id($crate::coverage::bucket_id(RANGE, $bucket))
    }};
}
pub(crate) use cov_bucket;

/// Terminates the call on an error path, recording the error block
/// `err.{name}`: `fail!(h, Errno::ENOMEM, "mm.mmap.enomem")`.
macro_rules! fail {
    ($h:expr, $errno:expr, $name:literal) => {
        $h.fail_id($errno, $crate::cov_block!(err $name))
    };
}
pub(crate) use fail;

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
    /// count is coverage only fault injection can reach.
    pub fn error_blocks(&self) -> usize {
        self.iter().filter(|&id| is_error_block(id)).count()
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

    /// One past the largest id.
    const BLOCKS: u32 = {
        let (mut n, mut i) = (BUCKET_BASE, 0);
        while i < BUCKETED.len() {
            n += BUCKETED[i].1;
            i += 1;
        }
        n
    };

    #[test]
    fn interning_is_stable() {
        let a = cov_block!("mm.mmap");
        let b = cov_block!("mm.munmap");
        assert_ne!(a, b);
        assert_eq!(cov_block!("mm.mmap"), a);
        assert_eq!(
            plain_id("mm.mmap"),
            a,
            "the macro resolves through the table"
        );
        assert_eq!(block_name(a), "mm.mmap");
    }

    #[test]
    fn every_id_round_trips_its_name() {
        let mut kinds = [0usize; 3];
        for i in 0..BLOCKS {
            let id = BlockId(i);
            let name = block_name(id);
            let back = if let Some(base) = name.strip_prefix("err.") {
                kinds[1] += 1;
                err_id(base)
            } else if let Some((base, bucket)) = name.split_once('#') {
                kinds[2] += 1;
                bucket_id(bucket_range(base), bucket.parse().expect("numeric bucket"))
            } else {
                kinds[0] += 1;
                plain_id(&name)
            };
            assert_eq!(back, id, "{name}");
            assert_eq!(is_error_block(id), name.starts_with("err."), "{name}");
        }
        assert_eq!(
            kinds,
            [PLAIN.len(), ERR.len(), (BLOCKS - BUCKET_BASE) as usize]
        );
        // The widest range holds one bucket per syscall.
        let last_sysno = SysNo::ALL.len() as u32 - 1;
        assert_eq!(
            block_name(bucket_id(bucket_range("spec.enosys.sysno"), last_sysno)),
            "spec.enosys.sysno#74"
        );
        assert_eq!(block_name(BlockId(BLOCKS)), "<unknown block>");
    }

    #[test]
    #[should_panic(expected = "outside its range")]
    fn bucket_past_its_range_panics() {
        bucket_id(bucket_range("fs.lookup.depth"), 6);
    }

    #[test]
    fn insert_and_contains() {
        let mut s = CoverageSet::new();
        let a = cov_block!("fs.stat");
        assert!(!s.contains(a));
        assert!(s.insert(a));
        assert!(!s.insert(a), "second insert is not new");
        assert!(s.contains(a));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_counts_new_blocks() {
        let (a, b, c) = (BlockId(1), BlockId(2), BlockId(3));
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
        let ids = [BlockId(0), BlockId(63), BlockId(BLOCKS - 1)];
        let mut s = CoverageSet::new();
        for &i in &ids {
            s.insert(i);
        }
        let got: Vec<BlockId> = s.iter().collect();
        assert_eq!(got, ids);
    }

    #[test]
    fn error_blocks_are_counted_separately() {
        let ok = cov_block!("mm.mmap");
        let bad = cov_block!(err "mm.mmap.enomem");
        assert!(!is_error_block(ok));
        assert!(is_error_block(bad));
        assert_eq!(block_name(bad), "err.mm.mmap.enomem");
        let mut s = CoverageSet::new();
        s.insert(ok);
        assert_eq!(s.error_blocks(), 0);
        s.insert(bad);
        assert_eq!(s.error_blocks(), 1);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn err_prefix_interned_directly_is_still_an_error_block() {
        // The table is keyed on the full name: `err.x` found among the
        // prefixed names is the same id `err_id("x")` resolves to, and is
        // flagged. The prefixed name is not a plain block.
        let direct = position(ERR, 0, "err.mm.mmap.enomem").expect("listed in ERR");
        let via_full = BlockId(ERR_BASE + direct as u32);
        assert!(is_error_block(via_full));
        assert_eq!(err_id("mm.mmap.enomem"), via_full);
        assert_eq!(position(PLAIN, 0, "err.mm.mmap.enomem"), None);
    }

    #[test]
    fn clear_empties() {
        let mut s = CoverageSet::new();
        s.insert(cov_block!("fs.stat"));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    /// How many ids in the table carry `name`.
    fn ids_named(name: &str) -> usize {
        (0..BLOCKS)
            .filter(|&i| block_name(BlockId(i)) == name)
            .count()
    }

    #[test]
    fn bucketed_interning_is_stable_and_does_not_grow_the_universe() {
        // Re-hitting a bucket yields the same id, inside the fixed table:
        // exactly one id carries the composite name.
        let range = bucket_range("io.read.size");
        let id = bucket_id(range, 7);
        for _ in 0..1_000 {
            assert_eq!(bucket_id(bucket_range("io.read.size"), 7), id);
        }
        assert!(id.0 < BLOCKS);
        assert_eq!(ids_named("io.read.size#7"), 1, "one id per bucket");
        // A different bucket is a different block.
        let other = bucket_id(range, 8);
        assert_ne!(other, id);
        assert_eq!(block_name(id), "io.read.size#7");
    }

    #[test]
    fn err_interning_is_stable_and_does_not_grow_the_universe() {
        let id = err_id("mm.mmap.enomem");
        for _ in 0..1_000 {
            assert_eq!(err_id("mm.mmap.enomem"), id);
        }
        assert!((ERR_BASE..BUCKET_BASE).contains(&id.0));
        assert_eq!(ids_named("err.mm.mmap.enomem"), 1);
    }

    #[test]
    fn site_caches_return_registry_ids() {
        // Each macro site is a constant equal to the table's lookup.
        let site = cov_block!("fs.stat");
        assert_eq!(plain_id("fs.stat"), site);
        assert_eq!(cov_block!("fs.stat"), site);

        let e = cov_block!(err "net.bind.busy");
        assert_eq!(err_id("net.bind.busy"), e);
        assert!(is_error_block(e));

        const RANGE: (u32, u32) = bucket_range("net.sendto.size");
        assert_eq!(RANGE, bucket_range("net.sendto.size"));
        let b3 = bucket_id(RANGE, 3);
        assert_eq!(block_name(b3), "net.sendto.size#3");
    }

    #[test]
    fn unknown_id_has_a_placeholder_name() {
        assert_eq!(block_name(BlockId(u32::MAX - 1)), "<unknown block>");
        assert!(!is_error_block(BlockId(u32::MAX - 1)));
    }
}
