//! Syscall dispatch: compiles one call into micro-ops.
//!
//! [`dispatch`] wraps the subsystem handlers with the costs every call
//! pays (syscall entry/exit) and the per-tenancy extras (container
//! namespace hops, cgroup accounting), then routes by syscall number.
//!
//! Handlers receive an [`HCtx`]: the instance, the calling slot, an RNG, a
//! coverage sink and the op sequence under construction, plus helper
//! methods for the recurring kernel patterns (page allocation with
//! per-CPU magazines and direct reclaim, slab allocation, path walks).

use std::cmp::Reverse;

use ksa_desim::{FaultKind, FaultState, LockId, LockMode, Ns};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::category::Category;
use crate::coverage::{
    block, block_bucketed, block_err, cov, cov_bucket, fail, BlockId, CoverageSet,
};
use crate::errno::Errno;
use crate::instance::KernelInstance;
use crate::ops::{KOp, OpSeq};
use crate::state::{Fd, FdKind, NAMES_PER_SLOT};
use crate::subsystems;
use crate::syscalls::SysNo;

/// Handler context: everything a syscall handler needs while compiling a
/// call into micro-ops.
pub struct HCtx<'a> {
    /// The kernel instance serving the call.
    pub k: &'a mut KernelInstance,
    /// Slot (per-core app process) issuing the call.
    pub slot: usize,
    /// Workload RNG (deterministic, owned by the executor).
    pub rng: &'a mut SmallRng,
    /// Coverage sink for this execution.
    pub cover: &'a mut CoverageSet,
    /// Fault-injection state consulted at failable points.
    pub faults: &'a mut FaultState,
    /// The op sequence under construction (caller-held scratch; reused
    /// across calls on the steady-state path).
    pub seq: &'a mut OpSeq,
}

impl<'a> HCtx<'a> {
    /// Records coverage of an already-interned block — the hot sink the
    /// [`crate::coverage::cov!`]-family macros feed with per-call-site
    /// cached ids (no registry lock on the steady-state path).
    #[inline]
    pub fn cover_id(&mut self, id: BlockId) {
        self.cover.insert(id);
        self.k.coverage.insert(id);
    }

    /// Records coverage of a named kernel path. For *dynamic* names only
    /// (a name picked at runtime); literal sites use `cov!`, which caches
    /// the interned id at the call site.
    pub fn cover(&mut self, name: &'static str) {
        self.cover_id(block(name));
    }

    /// Records coverage of a parameterized path (size/depth classes —
    /// the analogue of basic blocks inside size-dependent code). Dynamic
    /// names only; literal sites use `cov_bucket!`.
    pub fn cover_bucket(&mut self, name: &'static str, bucket: u32) {
        self.cover_id(block_bucketed(name, bucket));
    }

    /// Log2 size class helper for bucketed coverage.
    pub fn size_class(v: u64) -> u32 {
        64 - v.max(1).leading_zeros()
    }

    /// Records coverage of an error-path block (interned under the `err.`
    /// prefix; see [`crate::coverage::block_err`]). Dynamic names only;
    /// err-tagged literal sites terminate through `fail!` instead.
    pub fn cover_err(&mut self, name: &'static str) {
        self.cover_id(block_err(name));
    }

    /// Asks the fault plan whether `(kind, site)` fails at this hit.
    pub fn inject(&mut self, kind: FaultKind, site: &'static str) -> bool {
        self.faults.should_fail(kind, site)
    }

    /// Terminates the call on an error path with an already-interned
    /// error block: records it, charges the unwind cost and tags the
    /// sequence with `errno` — the sink behind the `fail!` macro.
    /// Handlers still perform their own state cleanup before returning.
    pub fn fail_id(&mut self, errno: Errno, block: BlockId) {
        self.cover_id(block);
        self.cpu(250);
        self.seq.error = Some(errno);
    }

    /// [`Self::fail_id`] for dynamic block names; literal sites use the
    /// `fail!` macro.
    pub fn fail(&mut self, errno: Errno, block: &'static str) {
        self.fail_id(errno, block_err(block));
    }

    /// Fallible page allocation: consults the fault plan before the real
    /// allocation. A forced failure still pays a truncated direct-reclaim
    /// attempt (the kernel scans before giving up) and returns `false`;
    /// the caller takes its ENOMEM path.
    pub fn try_alloc_pages(&mut self, pages: u64, site: &'static str) -> bool {
        if pages > 0 && self.faults.should_fail(FaultKind::AllocFail, site) {
            let cost = self.cost();
            let scan = (self.k.state.mm.lru_pages / 16).clamp(32, 4_096);
            self.cpu(cost.lru_scan_per_page * scan / 4);
            return false;
        }
        self.alloc_pages(pages);
        true
    }

    /// Fallible slab allocation (see [`Self::try_alloc_pages`]).
    pub fn try_slab_alloc(&mut self, objs: u64, site: &'static str) -> bool {
        if objs > 0 && self.faults.should_fail(FaultKind::AllocFail, site) {
            let cost = self.cost();
            self.cpu(cost.slab_refill / 2);
            return false;
        }
        self.slab_alloc(objs);
        true
    }

    /// Fallible exclusive lock acquire: a forced timeout pays a bounded
    /// backoff spin and returns `false` *without* taking the lock, so
    /// sequences stay balanced; the caller takes its EAGAIN path.
    pub fn try_lock(&mut self, l: LockId, site: &'static str) -> bool {
        if self.faults.should_fail(FaultKind::LockTimeout, site) {
            self.cpu(1_500);
            return false;
        }
        self.lock(l);
        true
    }

    /// Fallible block I/O: the request is issued either way (the error
    /// comes back on completion, so the device round-trip is still paid),
    /// but a forced failure returns `false` and the caller takes its EIO
    /// path instead of completing the transfer.
    pub fn try_io(&mut self, bytes: u64, write: bool, site: &'static str) -> bool {
        if self.faults.should_fail(FaultKind::IoError, site) {
            self.push(KOp::Io {
                bytes: bytes.min(4_096),
                write,
            });
            return false;
        }
        self.push(KOp::Io { bytes, write });
        true
    }

    /// Plain kernel CPU work.
    pub fn cpu(&mut self, ns: Ns) {
        self.seq.cpu(ns);
    }

    /// Memory-touching CPU work (EPT-sensitive under virtualization).
    pub fn mem(&mut self, ns: Ns) {
        self.seq.mem(ns);
    }

    /// Pushes a raw op.
    pub fn push(&mut self, op: KOp) {
        self.seq.push(op);
    }

    /// Exclusive lock acquire.
    pub fn lock(&mut self, l: LockId) {
        self.seq.push(KOp::Lock(l, LockMode::Exclusive));
    }

    /// Shared (reader) lock acquire.
    pub fn rlock(&mut self, l: LockId) {
        self.seq.push(KOp::Lock(l, LockMode::Shared));
    }

    /// Lock release.
    pub fn unlock(&mut self, l: LockId) {
        self.seq.push(KOp::Unlock(l));
    }

    /// Cost-model accessor (copy, so no borrow conflicts).
    pub fn cost(&self) -> crate::params::CostModel {
        self.k.cost
    }

    /// Allocates `pages` pages: per-CPU magazine fast path, zone-locked
    /// refill, and direct reclaim when the instance is under memory
    /// pressure (the paper's surface-scaled allocation stall).
    pub fn alloc_pages(&mut self, pages: u64) {
        let cost = self.cost();
        let slot = self.slot;
        if pages == 0 {
            return;
        }
        // Fast path: per-CPU page lists.
        let pcp = self.k.state.slots[slot].pcp_pages;
        if pages <= pcp {
            cov!(self, "mm.alloc.pcp");
            self.k.state.slots[slot].pcp_pages -= pages;
            self.cpu(40 * pages.min(16));
        } else {
            // Refill from the buddy allocator under the zone lock.
            cov!(self, "mm.alloc.zone_refill");
            let zone = self.k.locks.zone;
            let batch = pages + 128;
            self.lock(zone);
            self.cpu(cost.zone_refill + 25 * pages);
            self.unlock(zone);
            self.k.state.slots[slot].pcp_pages = 128;
            let mm = &mut self.k.state.mm;
            mm.free_pages = mm.free_pages.saturating_sub(batch);
        }
        // Direct reclaim when free memory dips under the watermark.
        let low = self.k.state.mm.low_watermark(cost.min_free_pct);
        if self.k.state.mm.free_pages < low {
            cov!(self, "mm.alloc.direct_reclaim");
            let scan = (self.k.state.mm.lru_pages / 8).clamp(32, 16_384);
            let lru = self.k.locks.lru;
            self.lock(lru);
            self.cpu(cost.lru_scan_per_page * scan);
            self.unlock(lru);
            let mm = &mut self.k.state.mm;
            mm.free_pages += scan / 2;
            mm.lru_pages = mm.lru_pages.saturating_sub(scan / 2);
        }
    }

    /// Returns `pages` pages to the allocator (per-CPU list; spills to the
    /// zone under its lock).
    pub fn free_pages(&mut self, pages: u64) {
        let slot = self.slot;
        self.k.state.slots[slot].pcp_pages += pages;
        if self.k.state.slots[slot].pcp_pages > 512 {
            cov!(self, "mm.free.zone_spill");
            let spill = self.k.state.slots[slot].pcp_pages - 128;
            let zone = self.k.locks.zone;
            let cost = self.cost();
            self.lock(zone);
            self.cpu(cost.zone_refill / 2 + 10 * spill.min(256));
            self.unlock(zone);
            self.k.state.slots[slot].pcp_pages = 128;
            self.k.state.mm.free_pages += spill;
        } else {
            self.cpu(20 * pages.min(16));
        }
    }

    /// Allocates `objs` slab objects (dentries, inodes, cred structs):
    /// per-CPU magazine fast path, depot-locked refill.
    pub fn slab_alloc(&mut self, objs: u64) {
        let cost = self.cost();
        let slot = self.slot;
        let have = self.k.state.slots[slot].slab_objs;
        if objs <= have {
            cov!(self, "mm.slab.fast");
            self.k.state.slots[slot].slab_objs -= objs;
            self.cpu(cost.slab_fast * objs.min(8));
        } else {
            cov!(self, "mm.slab.depot");
            let depot = self.k.locks.slab_depot;
            self.lock(depot);
            self.cpu(cost.slab_refill);
            self.unlock(depot);
            self.k.state.slots[slot].slab_objs = 256;
        }
    }

    /// Walks a path of `depth` components. `cached` says whether the
    /// terminal dentry is resident: the RCU fast path costs per-component
    /// work plus hash-chain pressure from the *shared* dcache; a cold
    /// terminal pays the dcache-locked insert and an inode read. Returns
    /// `false` when the walk fails (dentry allocation or inode read under
    /// fault injection); the error is already recorded on the sequence
    /// and the caller just unwinds its own state.
    #[must_use]
    pub fn path_walk(&mut self, depth: u32, cached: bool) -> bool {
        let cost = self.cost();
        let depth = depth + self.k.tenancy.ns_depth;
        let chain = cost.dentry_chain_per_1k * (self.k.state.fs.dentries / 1000);
        cov!(self, "fs.path_walk");
        self.cpu((cost.dentry_hop + chain) * depth as Ns);
        if !cached {
            cov!(self, "fs.path_walk.cold");
            if !self.try_slab_alloc(2, "fs.path_walk.dentry") {
                // dentry + inode allocation failed: nothing was inserted.
                fail!(self, Errno::ENOMEM, "fs.path_walk.enomem");
                return false;
            }
            let dcache = self.k.locks.dcache;
            self.lock(dcache);
            self.cpu(cost.dentry_insert);
            self.unlock(dcache);
            let sb = self.k.locks.inode_sb;
            self.lock(sb);
            self.cpu(cost.inode_read_cpu);
            self.unlock(sb);
            if !self.try_io(4096, false, "fs.inode_read") {
                // The inode never arrived: the dentry stays negative.
                fail!(self, Errno::EIO, "fs.path_walk.eio");
                return false;
            }
            self.k.state.fs.dentries += 1;
        }
        true
    }

    /// cgroup charge bookkeeping for memory/I/O in containerized
    /// instances: every `cgroup_flush_every` charges, per-CPU stat deltas
    /// flush into the shared hierarchy under the cgroup lock, with cost
    /// proportional to the number of containers (Table 3's mechanism).
    pub fn cgroup_charge(&mut self) {
        if self.k.tenancy.containers == 0 {
            return;
        }
        cov!(self, "cgroup.charge");
        self.cpu(60);
        self.k.state.tenancy.charges_since_flush += 1;
        if self.k.state.tenancy.charges_since_flush >= self.k.tenancy.cgroup_flush_every {
            cov!(self, "cgroup.stat_flush");
            self.k.state.tenancy.charges_since_flush = 0;
            let lock = self.k.locks.cgroup;
            let work = 400 + 90 * self.k.tenancy.containers as Ns;
            self.lock(lock);
            self.cpu(work);
            self.unlock(lock);
        }
    }

    /// Installs a descriptor in the slot's fd table under the fd-table
    /// lock. POSIX lowest-free-fd semantics: the lowest `Closed` slot
    /// (the top of the slot's `free_fds` heap) is reused before the
    /// table grows, so table length stays bounded by the peak number of
    /// concurrently open descriptors (not the total ever opened — the
    /// pre-reuse allocator leaked a slot per open).
    pub fn install_fd(&mut self, kind: FdKind) -> u64 {
        let cost = self.cost();
        let fdt = self.k.locks.fdtable[self.slot];
        self.lock(fdt);
        self.cpu(cost.slab_fast + 150);
        self.unlock(fdt);
        let slot = &mut self.k.state.slots[self.slot];
        slot.open_fds += 1;
        slot.peak_open_fds = slot.peak_open_fds.max(slot.open_fds);
        let entry = Fd {
            kind,
            offset_pages: 0,
        };
        match slot.free_fds.pop() {
            Some(Reverse(i)) => {
                slot.fds[i] = entry;
                i as u64
            }
            None => {
                slot.fds.push(entry);
                (slot.fds.len() - 1) as u64
            }
        }
    }

    /// Marks fd `fd` closed, queues it for reuse and drops the slot's
    /// open-descriptor count. Callers handle the object behind the
    /// descriptor (socket release / reclaim) themselves.
    pub(crate) fn retire_fd(&mut self, fd: usize) {
        let slot = &mut self.k.state.slots[self.slot];
        debug_assert!(!matches!(slot.fds[fd].kind, FdKind::Closed));
        slot.fds[fd].kind = FdKind::Closed;
        slot.free_fds.push(Reverse(fd));
        slot.open_fds -= 1;
    }

    /// Resolves an argument to one of this slot's open fds (Syzkaller-
    /// style: arguments are coerced into mostly-valid resources).
    /// Returns `None` when the slot has no usable descriptor.
    pub fn pick_fd(&self, raw: u64) -> Option<usize> {
        let fds = &self.k.state.slots[self.slot].fds;
        if fds.is_empty() {
            return None;
        }
        let start = (raw as usize) % fds.len();
        (0..fds.len())
            .map(|i| (start + i) % fds.len())
            .find(|&i| !matches!(fds[i].kind, crate::state::FdKind::Closed))
    }

    /// Resolves an argument to one of this slot's mapped VMAs.
    pub fn pick_vma(&self, raw: u64) -> Option<usize> {
        let vmas = &self.k.state.slots[self.slot].vmas;
        if vmas.is_empty() {
            return None;
        }
        let start = (raw as usize) % vmas.len();
        (0..vmas.len())
            .map(|i| (start + i) % vmas.len())
            .find(|&i| vmas[i].mapped)
    }

    /// Maps a path selector into this slot's name table index.
    pub fn name_index(&self, raw: u64) -> usize {
        raw as usize % NAMES_PER_SLOT
    }

    /// Uniform random in `[lo, hi)` from the workload RNG.
    pub fn uniform(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            self.rng.gen_range(lo..hi)
        }
    }
}

/// Compiles `call` (with pre-resolved `args`) into an op sequence on
/// instance `k`, slot `slot`. Coverage goes to `cover` and cumulatively
/// to the instance.
pub fn dispatch(
    k: &mut KernelInstance,
    slot: usize,
    no: SysNo,
    args: &[u64],
    rng: &mut SmallRng,
    cover: &mut CoverageSet,
    faults: &mut FaultState,
) -> OpSeq {
    let mut seq = OpSeq::new();
    dispatch_into(k, slot, no, args, rng, cover, faults, &mut seq);
    seq
}

/// [`dispatch`] compiling into a caller-held scratch sequence (which is
/// reset first) instead of allocating. The executors call this once per
/// simulated syscall, so the scratch buffer caps steady-state dispatch
/// at zero heap traffic.
#[allow(clippy::too_many_arguments)]
pub fn dispatch_into(
    k: &mut KernelInstance,
    slot: usize,
    no: SysNo,
    args: &[u64],
    rng: &mut SmallRng,
    cover: &mut CoverageSet,
    faults: &mut FaultState,
    seq: &mut OpSeq,
) {
    seq.reset();
    let mut h = HCtx {
        k,
        slot,
        rng,
        cover,
        faults,
        seq,
    };
    let a = |i: usize| args.get(i).copied().unwrap_or(0);

    h.k.syscalls += 1;
    h.cpu(h.cost().syscall_entry);
    // Bounded guest-side overhead every virtualized syscall pays,
    // compiled as a VM-exit op so attribution can separate it from
    // productive kernel work.
    if h.k.virt.syscall_overhead > 0 {
        h.seq
            .push(KOp::VmExit(crate::ops::VmExitKind::GuestSyscall));
    }

    // Specialization: a call outside the instance's allowlist never
    // reaches a handler — the specialized kernel does not carry its
    // code. Entry cost is already paid (the trap happens before the
    // table lookup); the call terminates on a real ENOSYS error path
    // with per-sysno `err.spec.*` coverage.
    if !h.k.spec.allows(no) {
        cov_bucket!(h, "spec.enosys.sysno", no.index() as u32);
        fail!(h, Errno::ENOSYS, "spec.enosys");
        debug_assert!(h.seq.locks_balanced());
        return;
    }

    // Container tenancy: cgroup accounting on resource-consuming classes.
    let cats = no.categories();
    if cats.contains(&Category::Memory) || cats.contains(&Category::FileIo) {
        h.cgroup_charge();
    }

    match no {
        // (a) process management / scheduling
        SysNo::Getpid => subsystems::sched::sys_getpid(&mut h),
        SysNo::SchedYield => subsystems::sched::sys_sched_yield(&mut h),
        SysNo::Clone => subsystems::sched::sys_clone(&mut h, a(0)),
        SysNo::Wait4 => subsystems::sched::sys_wait4(&mut h, a(0)),
        SysNo::Kill => subsystems::sched::sys_kill(&mut h, a(0), a(1)),
        SysNo::SchedSetaffinity => subsystems::sched::sys_sched_setaffinity(&mut h, a(0)),
        SysNo::SchedGetparam => subsystems::sched::sys_sched_getparam(&mut h),
        SysNo::Setpriority => subsystems::sched::sys_setpriority(&mut h, a(0)),
        SysNo::Nanosleep => subsystems::sched::sys_nanosleep(&mut h, a(0)),
        SysNo::Getrusage => subsystems::sched::sys_getrusage(&mut h),

        // (b) memory management
        SysNo::Mmap => subsystems::mm::sys_mmap(&mut h, a(0), a(1)),
        SysNo::Munmap => subsystems::mm::sys_munmap(&mut h, a(0)),
        SysNo::Mprotect => subsystems::mm::sys_mprotect(&mut h, a(0)),
        SysNo::Madvise => subsystems::mm::sys_madvise(&mut h, a(0), a(1)),
        SysNo::Brk => subsystems::mm::sys_brk(&mut h, a(0)),
        SysNo::Mremap => subsystems::mm::sys_mremap(&mut h, a(0), a(1)),
        SysNo::Mlock => subsystems::mm::sys_mlock(&mut h, a(0)),
        SysNo::Munlock => subsystems::mm::sys_munlock(&mut h, a(0)),
        SysNo::Msync => subsystems::mm::sys_msync(&mut h, a(0)),
        SysNo::Mincore => subsystems::mm::sys_mincore(&mut h, a(0)),

        // (c) file I/O
        SysNo::Read => subsystems::fileio::sys_read(&mut h, a(0), a(1), false),
        SysNo::Write => subsystems::fileio::sys_write(&mut h, a(0), a(1), false),
        SysNo::Pread => subsystems::fileio::sys_read(&mut h, a(0), a(1), true),
        SysNo::Pwrite => subsystems::fileio::sys_write(&mut h, a(0), a(1), true),
        SysNo::Lseek => subsystems::fileio::sys_lseek(&mut h, a(0), a(1)),
        SysNo::Fsync => subsystems::fileio::sys_fsync(&mut h, a(0), false),
        SysNo::Fdatasync => subsystems::fileio::sys_fsync(&mut h, a(0), true),
        SysNo::Readv => subsystems::fileio::sys_readv(&mut h, a(0), a(1), a(2)),
        SysNo::Writev => subsystems::fileio::sys_writev(&mut h, a(0), a(1), a(2)),
        SysNo::Fallocate => subsystems::fileio::sys_fallocate(&mut h, a(0), a(1)),

        // (d) filesystem management
        SysNo::Open => subsystems::fs::sys_open(&mut h, a(0), a(1)),
        SysNo::Close => subsystems::fs::sys_close(&mut h, a(0)),
        SysNo::Stat => subsystems::fs::sys_stat(&mut h, a(0)),
        SysNo::Fstat => subsystems::fs::sys_fstat(&mut h, a(0)),
        SysNo::Access => subsystems::fs::sys_access(&mut h, a(0)),
        SysNo::Getdents => subsystems::fs::sys_getdents(&mut h, a(0)),
        SysNo::Mkdir => subsystems::fs::sys_mkdir(&mut h, a(0)),
        SysNo::Rmdir => subsystems::fs::sys_rmdir(&mut h, a(0)),
        SysNo::Unlink => subsystems::fs::sys_unlink(&mut h, a(0)),
        SysNo::Rename => subsystems::fs::sys_rename(&mut h, a(0), a(1)),
        SysNo::Symlink => subsystems::fs::sys_symlink(&mut h, a(0), a(1)),
        SysNo::Readlink => subsystems::fs::sys_readlink(&mut h, a(0)),
        SysNo::Truncate => subsystems::fs::sys_truncate(&mut h, a(0), a(1)),

        // (e) IPC
        SysNo::Pipe2 => subsystems::ipc::sys_pipe2(&mut h),
        SysNo::FutexWait => subsystems::ipc::sys_futex_wait(&mut h, a(0), a(1)),
        SysNo::FutexWake => subsystems::ipc::sys_futex_wake(&mut h, a(0), a(1)),
        SysNo::Msgget => subsystems::ipc::sys_msgget(&mut h),
        SysNo::Msgsnd => subsystems::ipc::sys_msgsnd(&mut h, a(0), a(1)),
        SysNo::Msgrcv => subsystems::ipc::sys_msgrcv(&mut h, a(0), a(1)),
        SysNo::Semget => subsystems::ipc::sys_semget(&mut h, a(0)),
        SysNo::Semop => subsystems::ipc::sys_semop(&mut h, a(0), a(1)),
        SysNo::Shmget => subsystems::ipc::sys_shmget(&mut h, a(0)),
        SysNo::Shmat => subsystems::ipc::sys_shmat(&mut h, a(0)),
        SysNo::Shmdt => subsystems::ipc::sys_shmdt(&mut h, a(0)),
        SysNo::Eventfd => subsystems::ipc::sys_eventfd(&mut h),

        // (f) permissions / capabilities
        SysNo::Chmod => subsystems::perms::sys_chmod(&mut h, a(0), a(1)),
        SysNo::Fchmod => subsystems::perms::sys_fchmod(&mut h, a(0), a(1)),
        SysNo::Chown => subsystems::perms::sys_chown(&mut h, a(0), a(1)),
        SysNo::Setuid => subsystems::perms::sys_setuid(&mut h, a(0)),
        SysNo::Getuid => subsystems::perms::sys_getuid(&mut h),
        SysNo::Capget => subsystems::perms::sys_capget(&mut h),
        SysNo::Capset => subsystems::perms::sys_capset(&mut h, a(0)),
        SysNo::Umask => subsystems::perms::sys_umask(&mut h, a(0)),
        SysNo::Setgroups => subsystems::perms::sys_setgroups(&mut h, a(0)),
        SysNo::Prctl => subsystems::perms::sys_prctl(&mut h, a(0)),

        // (g) networking
        SysNo::Socket => subsystems::net::sys_socket(&mut h, a(0)),
        SysNo::Bind => subsystems::net::sys_bind(&mut h, a(0), a(1)),
        SysNo::Listen => subsystems::net::sys_listen(&mut h, a(0), a(1)),
        SysNo::Accept => subsystems::net::sys_accept(&mut h, a(0)),
        SysNo::Connect => subsystems::net::sys_connect(&mut h, a(0), a(1)),
        SysNo::Sendto => subsystems::net::sys_sendto(&mut h, a(0), a(1), a(2)),
        SysNo::Recvfrom => subsystems::net::sys_recvfrom(&mut h, a(0), a(1)),
        SysNo::ShutdownSock => subsystems::net::sys_shutdown_sock(&mut h, a(0)),
        SysNo::EpollCreate => subsystems::net::sys_epoll_create(&mut h),
        SysNo::EpollWait => subsystems::net::sys_epoll_wait(&mut h, a(0), a(1)),
    }

    debug_assert!(
        h.seq.locks_balanced(),
        "{}: unbalanced locks in op sequence",
        no.name()
    );
}

/// Compiles the kernel half of `exit_group(2)` for `slot` into `seq`:
/// every open descriptor is closed under one fd-table sweep (socket
/// table slots are released and reclaimed), the address space is torn
/// down with a single batched page-table walk and TLB shootdown, the
/// heap resets to its initial break, and unreaped children are reaped.
/// Not a [`SysNo`] — exit is not corpus-reachable and no kernel can be
/// specialized away from supporting it, so it bypasses the allowlist.
///
/// Fd-table entries are marked `Closed`, not removed (fd numbers are
/// table indices), which is exactly why the lowest-free-fd reuse in
/// [`HCtx::install_fd`] matters: without it every tenant lifecycle grows
/// the table permanently.
pub fn dispatch_exit(
    k: &mut KernelInstance,
    slot: usize,
    rng: &mut SmallRng,
    cover: &mut CoverageSet,
    faults: &mut FaultState,
    seq: &mut OpSeq,
) {
    seq.reset();
    let mut h = HCtx {
        k,
        slot,
        rng,
        cover,
        faults,
        seq,
    };
    h.k.syscalls += 1;
    h.cpu(h.cost().syscall_entry);
    if h.k.virt.syscall_overhead > 0 {
        h.seq
            .push(KOp::VmExit(crate::ops::VmExitKind::GuestSyscall));
    }
    cov!(h, "sched.exit");
    let cost = h.cost();

    // Close every open descriptor: one locked fd-table sweep, then the
    // per-object releases (sockets pay their bucket-locked teardown).
    let nopen = h.k.state.slots[slot].open_fds;
    if nopen > 0 {
        cov_bucket!(h, "sched.exit.fds", HCtx::size_class(nopen));
        let fdt = h.k.locks.fdtable[slot];
        h.lock(fdt);
        h.cpu(200 + 120 * nopen);
        h.unlock(fdt);
        h.cpu(cost.slab_fast * nopen.min(16));
        for fd in 0..h.k.state.slots[slot].fds.len() {
            let kind = h.k.state.slots[slot].fds[fd].kind;
            if matches!(kind, FdKind::Closed) {
                continue;
            }
            h.retire_fd(fd);
            if let FdKind::Socket { idx } = kind {
                crate::subsystems::net::drop_sock_ref(&mut h, idx);
            }
        }
    }
    debug_assert_eq!(h.k.state.slots[slot].open_fds, 0);

    // Address-space teardown: one page-table walk and one shootdown for
    // everything still mapped, then the vma table dies with the process.
    let (vpages, vpop, nvmas, shm_idx) = {
        let vmas = &h.k.state.slots[slot].vmas;
        let mut pages = 0;
        let mut pop = 0;
        let mut n = 0u64;
        let mut shm = Vec::new();
        for v in vmas.iter().filter(|v| v.mapped) {
            pages += v.pages;
            pop += v.populated;
            n += 1;
            if let Some(si) = v.shm {
                shm.push(si);
            }
        }
        (pages, pop, n, shm)
    };
    if nvmas > 0 {
        cov_bucket!(h, "sched.exit.vmas", HCtx::size_class(nvmas));
        let mmap_sem = h.k.locks.mmap_sem[slot];
        let ptl = h.k.locks.page_table[slot];
        h.lock(mmap_sem);
        h.lock(ptl);
        h.cpu(cost.pte_per_page * vpages);
        h.unlock(ptl);
        h.push(KOp::Tlb { pages: vpages });
        h.unlock(mmap_sem);
        h.free_pages(vpop);
    }
    for si in shm_idx {
        let seg = &mut h.k.state.ipc.shms[si];
        seg.attaches = seg.attaches.saturating_sub(1);
    }
    let st = &mut h.k.state.slots[slot];
    st.vmas.clear();
    st.mapped_vmas = 0;

    // Heap: free everything brk grew past the initial break.
    let brk = h.k.state.slots[slot].brk_pages;
    if brk > 16 {
        let excess = brk - 16;
        let ptl = h.k.locks.page_table[slot];
        h.lock(ptl);
        h.cpu(cost.pte_per_page * excess);
        h.unlock(ptl);
        h.free_pages(excess);
        h.k.state.slots[slot].brk_pages = 16;
    }

    // Reap unreaped children (zombies die with their parent): the
    // per-child costs of wait4's reap path under one tasklist section.
    let children = h.k.state.slots[slot].children_pending as u64;
    if children > 0 {
        cov!(h, "sched.exit.reap");
        let tasklist = h.k.locks.tasklist;
        let pidmap = h.k.locks.pidmap;
        let rq = h.k.locks.runqueue[slot];
        h.push(KOp::Lock(tasklist, LockMode::Exclusive));
        h.cpu(cost.task_reap * children.min(32));
        h.push(KOp::Unlock(tasklist));
        h.lock(pidmap);
        h.cpu(cost.pid_alloc / 2 * children.min(32));
        h.unlock(pidmap);
        h.lock(rq);
        h.cpu(cost.rq_op);
        h.unlock(rq);
        let st = &mut h.k.state;
        st.sched.nr_tasks -= children;
        st.sched.rq_len[slot] = st.sched.rq_len[slot].saturating_sub(children as u32);
        st.slots[slot].children_pending = 0;
    }

    // The task struct itself is put through an RCU grace period.
    h.push(KOp::RcuSync);
    debug_assert!(h.seq.locks_balanced(), "exit: unbalanced locks");
}

/// Convenience wrapper used by tests: dispatch with throwaway coverage
/// and no fault injection.
pub fn dispatch_simple(
    k: &mut KernelInstance,
    slot: usize,
    no: SysNo,
    args: &[u64],
    rng: &mut SmallRng,
) -> OpSeq {
    let mut cover = CoverageSet::new();
    let mut faults = FaultState::default();
    dispatch(k, slot, no, args, rng, &mut cover, &mut faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceConfig, TenancyProfile, VirtProfile};
    use crate::params::CostModel;
    use crate::spec::SpecMask;
    use ksa_desim::{Engine, EngineParams};
    use rand::SeedableRng;

    fn test_instance() -> KernelInstance {
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 1);
        let disk = eng.add_device(ksa_desim::DeviceModel::nvme_ssd());
        let cores = vec![eng.add_core(Default::default())];
        KernelInstance::build(
            &mut eng,
            0,
            InstanceConfig {
                cores,
                mem_mib: 256,
                virt: VirtProfile::native(),
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        )
    }

    fn call(inst: &mut KernelInstance, rng: &mut SmallRng, no: SysNo, args: &[u64]) -> u64 {
        let seq = dispatch_simple(inst, 0, no, args, rng);
        assert_eq!(seq.error, None, "{no:?} {args:?} failed: {:?}", seq.error);
        seq.result
    }

    /// POSIX lowest-free-fd: close + reopen reuses the lowest Closed
    /// slot instead of growing the table.
    #[test]
    fn close_reopen_reuses_lowest_fd() {
        let mut inst = test_instance();
        let mut rng = SmallRng::seed_from_u64(1);
        for (i, path) in [3u64, 4, 5].iter().enumerate() {
            let fd = call(&mut inst, &mut rng, SysNo::Open, &[*path, 1]);
            assert_eq!(fd, i as u64);
        }
        assert_eq!(inst.state.slots[0].fds.len(), 3);

        call(&mut inst, &mut rng, SysNo::Close, &[1]);
        let fd = call(&mut inst, &mut rng, SysNo::Open, &[6, 1]);
        assert_eq!(fd, 1, "reopen must fill the lowest hole");
        assert_eq!(inst.state.slots[0].fds.len(), 3, "table must not grow");

        call(&mut inst, &mut rng, SysNo::Close, &[2]);
        call(&mut inst, &mut rng, SysNo::Close, &[0]);
        assert_eq!(call(&mut inst, &mut rng, SysNo::Open, &[7, 1]), 0);
        assert_eq!(call(&mut inst, &mut rng, SysNo::Open, &[8, 1]), 2);
        let slot = &inst.state.slots[0];
        assert_eq!(slot.open_fds, 3);
        assert_eq!(slot.peak_open_fds, 3);
        assert_eq!(slot.fds.len() as u64, slot.peak_open_fds);
    }

    /// The socket-table index behind fd `fd` of slot 0.
    fn sock_idx(inst: &KernelInstance, fd: u64) -> usize {
        match inst.state.slots[0].fds[fd as usize].kind {
            FdKind::Socket { idx } => idx,
            other => panic!("fd {fd} is {other:?}, not a socket"),
        }
    }

    /// Socket slots are reused lowest-first once their fd dies, so the
    /// sock table is bounded by peak concurrency.
    #[test]
    fn sock_slots_reclaim_lowest_first() {
        let mut inst = test_instance();
        let mut rng = SmallRng::seed_from_u64(2);
        for i in 0..3u64 {
            assert_eq!(call(&mut inst, &mut rng, SysNo::Socket, &[0]), i);
            assert_eq!(sock_idx(&inst, i), i as usize);
        }
        assert_eq!(inst.state.net.socks.len(), 3);
        assert_eq!(inst.state.net.peak_socks, 3);

        call(&mut inst, &mut rng, SysNo::Close, &[1]);
        call(&mut inst, &mut rng, SysNo::Close, &[0]);
        assert_eq!(inst.state.net.live_socks, 1);
        assert_eq!(inst.state.net.free_socks.len(), 2);

        // Reuse is lowest-first and never grows the table.
        let fd = call(&mut inst, &mut rng, SysNo::Socket, &[0]);
        assert_eq!(sock_idx(&inst, fd), 0, "lowest free slot first");
        let fd = call(&mut inst, &mut rng, SysNo::Socket, &[0]);
        assert_eq!(sock_idx(&inst, fd), 1);
        let net = &inst.state.net;
        assert_eq!(net.socks.len(), 3, "table bounded by peak concurrency");
        assert_eq!(net.live_socks, 3);
        assert_eq!(net.peak_socks, 3);
        assert!(net.free_socks.is_empty());

        // Lowest-first, not last-freed-first: free 0 then 2.
        call(&mut inst, &mut rng, SysNo::Close, &[0]);
        call(&mut inst, &mut rng, SysNo::Close, &[2]);
        let fd = call(&mut inst, &mut rng, SysNo::Socket, &[0]);
        assert_eq!(sock_idx(&inst, fd), 0);
    }

    /// shutdown(2) releases the socket but defers slot reclaim to the
    /// descriptor's death; close after shutdown reclaims exactly once.
    #[test]
    fn shutdown_then_close_reclaims_once() {
        let mut inst = test_instance();
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(call(&mut inst, &mut rng, SysNo::Socket, &[0]), 0);
        call(&mut inst, &mut rng, SysNo::ShutdownSock, &[0]);
        let net = &inst.state.net;
        assert!(!net.socks[0].open, "shutdown releases the object");
        assert_eq!(net.live_socks, 1, "slot still referenced by the fd");
        assert!(net.free_socks.is_empty(), "reclaim deferred to close");

        call(&mut inst, &mut rng, SysNo::Close, &[0]);
        let net = &inst.state.net;
        assert_eq!(net.live_socks, 0);
        assert_eq!(net.free_socks.len(), 1, "reclaimed exactly once");
        assert_eq!(call(&mut inst, &mut rng, SysNo::Socket, &[0]), 0);
        assert_eq!(sock_idx(&inst, 0), 0, "the reclaimed slot is reused");
        assert_eq!(inst.state.net.socks.len(), 1);
        assert!(inst.state.net.free_socks.is_empty());
    }

    /// Process exit sweeps the whole slot: descriptors, sockets, vmas,
    /// heap and unreaped children — with balanced locks.
    #[test]
    fn dispatch_exit_sweeps_slot() {
        let mut inst = test_instance();
        let mut rng = SmallRng::seed_from_u64(4);
        call(&mut inst, &mut rng, SysNo::Clone, &[0]);
        call(&mut inst, &mut rng, SysNo::Open, &[3, 1]);
        call(&mut inst, &mut rng, SysNo::Open, &[4, 1]);
        call(&mut inst, &mut rng, SysNo::Mmap, &[24, 1]);
        call(&mut inst, &mut rng, SysNo::Mmap, &[8, 0]);
        call(&mut inst, &mut rng, SysNo::Munmap, &[1]);
        call(&mut inst, &mut rng, SysNo::Close, &[1]);
        // A listener with a client queued twice on its backlog.
        let ls = call(&mut inst, &mut rng, SysNo::Socket, &[0]);
        call(&mut inst, &mut rng, SysNo::Bind, &[ls, 7]);
        call(&mut inst, &mut rng, SysNo::Listen, &[ls, 8]);
        let c = call(&mut inst, &mut rng, SysNo::Socket, &[0]);
        call(&mut inst, &mut rng, SysNo::Connect, &[c, 7]);
        call(&mut inst, &mut rng, SysNo::Connect, &[c, 7]);
        call(&mut inst, &mut rng, SysNo::Brk, &[64]);
        let slot = &inst.state.slots[0];
        assert!(slot.open_fds > 0);
        assert_eq!(slot.children_pending, 1);
        assert_eq!(slot.mapped_vmas, 1);
        assert_eq!(slot.free_fds.len(), 0, "the closed fd was reused");
        assert_eq!(inst.state.net.socks[sock_idx(&inst, c)].backlog_refs, 2);

        let mut cover = CoverageSet::new();
        let mut faults = FaultState::default();
        let mut seq = OpSeq::new();
        dispatch_exit(&mut inst, 0, &mut rng, &mut cover, &mut faults, &mut seq);
        assert!(seq.locks_balanced(), "exit must balance every lock");

        let slot = &inst.state.slots[0];
        assert_eq!(slot.open_fds, 0);
        assert!(slot.fds_all_closed());
        assert!(slot.fds.len() as u64 <= slot.peak_open_fds);
        assert_eq!(slot.free_fds.len(), slot.fds.len(), "every fd reusable");
        assert!(slot.vmas.is_empty());
        assert_eq!(slot.mapped_vmas, 0);
        assert_eq!(slot.brk_pages, 16);
        assert_eq!(slot.children_pending, 0);
        let net = &inst.state.net;
        assert_eq!(net.live_socks, 0);
        assert!(net.socks.len() as u64 <= net.peak_socks);
        assert!(net.socks.iter().all(|s| s.backlog_refs == 0));
    }
}
