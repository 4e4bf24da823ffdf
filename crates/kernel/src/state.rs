//! Logical subsystem state: the counters and small tables handler costs
//! are derived from.
//!
//! State here is *numerical*, not structural: a page cache is a per-file
//! count of cached pages, the dentry cache is a count plus per-file flags,
//! the journal is a dirty-block counter. This is the level of detail the
//! cost model needs — hash-chain pressure, commit sizes, reclaim scan
//! lengths — without simulating the actual data structures.
//!
//! The host-side bookkeeping is indexed so that no per-event lookup
//! walks a table that grows with tenant density: free fd and socket
//! slots sit in min-heaps, sockets count the backlog entries naming
//! them, and slots count their mapped VMAs. None of it reaches the cost
//! model, which is charged only through the handlers' `cpu`/`mem` calls.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A file descriptor entry in a slot's fd table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdKind {
    /// Regular file backed by `FsState::files[idx]`.
    File {
        /// Index into the instance file table.
        idx: usize,
    },
    /// One end of a pipe.
    Pipe {
        /// True for the read end.
        read_end: bool,
    },
    /// An eventfd counter.
    EventFd,
    /// A socket backed by `NetState::socks[idx]`.
    Socket {
        /// Index into the instance socket table.
        idx: usize,
    },
    /// An epoll instance (readiness polling over the slot's fds).
    Epoll,
    /// Closed / free slot.
    Closed,
}

/// One open descriptor.
#[derive(Debug, Clone, Copy)]
pub struct Fd {
    /// What the descriptor refers to.
    pub kind: FdKind,
    /// Sequential file offset in pages.
    pub offset_pages: u64,
}

/// One virtual memory area of a slot.
#[derive(Debug, Clone, Copy)]
pub struct Vma {
    /// Size in pages.
    pub pages: u64,
    /// Pages actually faulted in (freed back on unmap/zap).
    pub populated: u64,
    /// Still mapped (false after munmap).
    pub mapped: bool,
    /// mlock'ed.
    pub locked: bool,
    /// Index into the shm table when this is a shared-memory attach.
    pub shm: Option<usize>,
}

/// Per-slot (per simulated application process) state. One slot per core
/// of the instance.
#[derive(Debug, Clone, Default)]
pub struct SlotState {
    /// Descriptor table; index = fd number. Closed entries stay in
    /// place (fd numbers are indices) and are reused lowest-first.
    pub fds: Vec<Fd>,
    /// Indices of the `Closed` entries of `fds`, min-first, so the
    /// lowest free descriptor is a pop instead of a table scan.
    pub free_fds: BinaryHeap<Reverse<usize>>,
    /// VMAs; index+1 = the "address" handle returned by mmap. Unmapped
    /// entries stay until process exit clears the table.
    pub vmas: Vec<Vma>,
    /// Entries of `vmas` still mapped (what `clone` copies).
    pub mapped_vmas: u64,
    /// Heap size in pages (brk).
    pub brk_pages: u64,
    /// Effective uid.
    pub uid: u64,
    /// Current umask.
    pub umask: u64,
    /// Forked children that have not been reaped by wait4 yet.
    pub children_pending: u32,
    /// Per-CPU page-allocator magazine (free pages cached locally).
    pub pcp_pages: u64,
    /// Per-CPU slab magazine (free objects cached locally).
    pub slab_objs: u64,
    /// Name table: path selector → file index (this slot's private
    /// namespace; entries materialize on first create).
    pub names: Vec<Option<usize>>,
    /// Descriptors currently open (non-`Closed` entries of `fds`).
    pub open_fds: u64,
    /// High-water mark of `open_fds`. With lowest-free-fd reuse,
    /// `fds.len() <= peak_open_fds` holds after any amount of churn.
    pub peak_open_fds: u64,
}

impl SlotState {
    /// True when every fd-table entry is `Closed` (post-exit state).
    pub fn fds_all_closed(&self) -> bool {
        self.fds.iter().all(|f| matches!(f.kind, FdKind::Closed))
    }
}

/// Number of distinct path names each slot's namespace can address.
pub const NAMES_PER_SLOT: usize = 32;

/// Metadata of one simulated file.
#[derive(Debug, Clone, Copy)]
pub struct FileMeta {
    /// Size in pages.
    pub size_pages: u64,
    /// Pages present in the page cache (sequential-fill model: page `i`
    /// is cached iff `i < cached_pages`).
    pub cached_pages: u64,
    /// Dirty data pages awaiting writeback.
    pub dirty_pages: u64,
    /// Path depth (directory components).
    pub path_depth: u32,
    /// Whether the dentry/inode are in the caches (cold first lookup
    /// pays the miss path).
    pub dentry_cached: bool,
}

/// Filesystem / VFS state.
#[derive(Debug, Clone, Default)]
pub struct FsState {
    /// All files ever created in this instance.
    pub files: Vec<FileMeta>,
    /// Total dentries resident (drives hash-chain pressure).
    pub dentries: u64,
    /// Dirty journal metadata blocks awaiting commit.
    pub journal_dirty: u64,
    /// Monotone commit counter (diagnostics).
    pub commits: u64,
}

/// Memory-management state.
#[derive(Debug, Clone, Default)]
pub struct MmState {
    /// Total pages managed by this instance (its memory surface area).
    pub total_pages: u64,
    /// Free pages in the buddy allocator.
    pub free_pages: u64,
    /// File/anon pages on the LRU lists (reclaim scan length).
    pub lru_pages: u64,
    /// Dirty data pages (writeback backlog).
    pub dirty_pages: u64,
}

impl MmState {
    /// Pages under which allocations enter direct reclaim.
    pub fn low_watermark(&self, min_free_pct: u64) -> u64 {
        self.total_pages * min_free_pct / 100
    }

    /// Dirty-page count that triggers foreground write throttling.
    pub fn dirty_threshold(&self, dirty_pct: u64) -> u64 {
        self.total_pages * dirty_pct / 100
    }
}

/// Scheduler state.
#[derive(Debug, Clone, Default)]
pub struct SchedState {
    /// Runnable tasks per slot/core.
    pub rq_len: Vec<u32>,
    /// Total tasks in the instance.
    pub nr_tasks: u64,
}

/// One SysV message queue.
#[derive(Debug, Clone, Copy, Default)]
pub struct MsgQueue {
    /// Messages currently queued.
    pub msgs: u64,
    /// Bytes currently queued.
    pub bytes: u64,
}

/// One SysV shared-memory segment.
#[derive(Debug, Clone, Copy)]
pub struct ShmSeg {
    /// Size in pages.
    pub pages: u64,
    /// Number of active attaches.
    pub attaches: u32,
}

/// IPC state (ids are instance-global, like the kernel's `ipc_ids`).
#[derive(Debug, Clone, Default)]
pub struct IpcState {
    /// Message queues.
    pub msgqs: Vec<MsgQueue>,
    /// Semaphore sets (value = semaphore count in the set).
    pub sems: Vec<u32>,
    /// Shared-memory segments.
    pub shms: Vec<ShmSeg>,
    /// Pipes created (count; per-slot locks bound the contention).
    pub pipes: u64,
}

/// One simulated socket.
#[derive(Debug, Clone, Default)]
pub struct SockState {
    /// Bound local port, if any.
    pub port: Option<u64>,
    /// Listening socket (accepts connections).
    pub listening: bool,
    /// Accept-queue capacity once listening.
    pub backlog_cap: u64,
    /// Pending connections: socket indices awaiting `accept`.
    pub backlog: Vec<usize>,
    /// Entries, across every socket's `backlog`, that name this socket.
    /// A socket that connects twice is queued twice, so this is a count,
    /// not a back-pointer. Release purges backlogs only while it is
    /// non-zero.
    pub backlog_refs: u32,
    /// Connected peer socket index.
    pub peer: Option<usize>,
    /// Bytes buffered for `recvfrom`, bounded by the cost model's
    /// `sock_buf_bytes` (backpressure → `EAGAIN` on the sender).
    pub rx_bytes: u64,
    /// Still usable (false after `shutdown`).
    pub open: bool,
}

/// Networking state (socket/port tables plus the NIC rings).
#[derive(Debug, Clone)]
pub struct NetState {
    /// Socket table; length bounded by the peak number of *concurrent*
    /// sockets (slots are reclaimed on final close and reused).
    pub socks: Vec<SockState>,
    /// Reclaimed `socks` indices awaiting reuse, min-first, so
    /// allocation pops the lowest free slot.
    pub free_socks: BinaryHeap<Reverse<usize>>,
    /// Sockets currently allocated (not on the free list).
    pub live_socks: u64,
    /// High-water mark of `live_socks`; `socks.len() <= peak_socks`.
    pub peak_socks: u64,
    /// Port table: `(port, socket index)`, instance-global. Searched
    /// linearly: `bind` refuses a port already present, so it holds at
    /// most [`NET_PORT_SPACE`] entries, and churn keeps at most one per slot.
    pub ports: Vec<(u64, usize)>,
    /// The instance NIC (virtio-net in VMs, the shared host NIC
    /// otherwise).
    pub nic: ksa_desim::NicState,
    /// Extra per-packet stack cost (netfilter/conntrack chains); grows
    /// with tenant count on shared container hosts.
    pub stack_extra_ns: u64,
    /// Payload bytes accepted by `sendto` (delivered into an rx buffer).
    pub sent_bytes: u64,
    /// Payload bytes returned by `recvfrom`.
    pub recv_bytes: u64,
    /// Payload bytes discarded by `shutdown` while still buffered.
    pub flushed_bytes: u64,
}

/// Number of distinct port values the simulated port space can address.
pub const NET_PORT_SPACE: u64 = 512;

impl NetState {
    /// Creates networking state for an instance with `n_slots` cores:
    /// the NIC gets `min(8, n_slots)` queue pairs, so a wide shared
    /// kernel funnels many cores through few rings while small VM
    /// instances see proportionally private ones.
    pub fn init(n_slots: usize) -> Self {
        let queues = n_slots.clamp(1, 8) as u32;
        Self {
            socks: Vec::new(),
            free_socks: BinaryHeap::new(),
            live_socks: 0,
            peak_socks: 0,
            ports: Vec::new(),
            nic: ksa_desim::NicState::new(ksa_desim::NicModel::virtio(queues)),
            stack_extra_ns: 0,
            sent_bytes: 0,
            recv_bytes: 0,
            flushed_bytes: 0,
        }
    }

    /// Allocates a socket-table slot, reusing the lowest reclaimed index
    /// before growing the table. The returned slot is open and zeroed.
    pub fn alloc_sock_slot(&mut self) -> usize {
        self.live_socks += 1;
        self.peak_socks = self.peak_socks.max(self.live_socks);
        let sk = SockState {
            open: true,
            ..Default::default()
        };
        match self.free_socks.pop() {
            Some(Reverse(idx)) => {
                self.socks[idx] = sk;
                idx
            }
            None => {
                self.socks.push(sk);
                self.socks.len() - 1
            }
        }
    }

    /// Returns a (released, `open == false`) socket's table slot to the
    /// free list. Called when the last descriptor referencing the socket
    /// dies — reclaiming at `shutdown` would let a still-installed fd
    /// alias whatever tenant reuses the slot next.
    pub fn reclaim_sock_slot(&mut self, idx: usize) {
        debug_assert!(!self.socks[idx].open, "reclaiming an open socket");
        debug_assert_eq!(
            self.socks[idx].backlog_refs, 0,
            "reclaiming a queued socket"
        );
        debug_assert!(
            !self.free_socks.iter().any(|&Reverse(i)| i == idx),
            "double reclaim"
        );
        self.socks[idx] = SockState::default();
        self.live_socks -= 1;
        self.free_socks.push(Reverse(idx));
    }

    /// Socket index bound to `port`, if any.
    pub fn lookup_port(&self, port: u64) -> Option<usize> {
        self.ports
            .iter()
            .find(|&&(p, _)| p == port)
            .map(|&(_, s)| s)
    }

    /// Payload bytes still sitting in socket receive buffers.
    pub fn buffered_bytes(&self) -> u64 {
        self.socks.iter().map(|s| s.rx_bytes).sum()
    }
}

impl Default for NetState {
    fn default() -> Self {
        Self::init(1)
    }
}

/// Cross-cutting tenancy counters.
#[derive(Debug, Clone, Default)]
pub struct TenancyState {
    /// cgroup charge operations since the last stat flush.
    pub charges_since_flush: u64,
}

/// All logical state of a kernel instance.
#[derive(Debug, Clone, Default)]
pub struct SubsysState {
    /// Memory management.
    pub mm: MmState,
    /// Filesystem / VFS.
    pub fs: FsState,
    /// Scheduler.
    pub sched: SchedState,
    /// IPC.
    pub ipc: IpcState,
    /// Networking.
    pub net: NetState,
    /// Tenancy counters.
    pub tenancy: TenancyState,
    /// Per-core-slot application process state.
    pub slots: Vec<SlotState>,
}

impl SubsysState {
    /// Initializes state for an instance with `n_slots` cores and
    /// `total_pages` pages of memory.
    pub fn init(n_slots: usize, total_pages: u64) -> Self {
        let mut s = SubsysState {
            mm: MmState {
                total_pages,
                // Boot-time kernel/static memory takes a slice.
                free_pages: total_pages * 85 / 100,
                lru_pages: total_pages / 50,
                dirty_pages: 0,
            },
            ..Default::default()
        };
        s.sched.rq_len = vec![1; n_slots];
        s.sched.nr_tasks = n_slots as u64 + 16; // app procs + kthreads
        s.fs.dentries = 1_000 + 64 * n_slots as u64; // boot filesystem
        s.net = NetState::init(n_slots);
        for _ in 0..n_slots {
            s.slots.push(SlotState {
                fds: Vec::new(),
                free_fds: BinaryHeap::new(),
                vmas: Vec::new(),
                mapped_vmas: 0,
                brk_pages: 16,
                uid: 1000,
                umask: 0o022,
                children_pending: 0,
                pcp_pages: 128,
                slab_objs: 256,
                names: vec![None; NAMES_PER_SLOT],
                open_fds: 0,
                peak_open_fds: 0,
            });
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_sizes_match() {
        let s = SubsysState::init(4, 1_000_000);
        assert_eq!(s.slots.len(), 4);
        assert_eq!(s.sched.rq_len.len(), 4);
        assert_eq!(s.mm.total_pages, 1_000_000);
        assert!(s.mm.free_pages < s.mm.total_pages);
        assert!(s.mm.free_pages > s.mm.total_pages / 2);
    }

    #[test]
    fn net_nic_queues_scale_with_cores() {
        assert_eq!(SubsysState::init(2, 1_000).net.nic.pending.len(), 2);
        assert_eq!(SubsysState::init(64, 1_000).net.nic.pending.len(), 8);
        let s = SubsysState::init(4, 1_000);
        assert!(s.net.socks.is_empty());
        assert_eq!(s.net.lookup_port(80), None);
    }

    #[test]
    fn watermarks_scale_with_memory() {
        let small = MmState {
            total_pages: 1000,
            ..Default::default()
        };
        let big = MmState {
            total_pages: 100_000,
            ..Default::default()
        };
        assert!(big.low_watermark(10) > small.low_watermark(10));
        assert_eq!(small.dirty_threshold(8), 80);
    }
}
