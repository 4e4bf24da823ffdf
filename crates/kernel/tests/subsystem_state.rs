//! Per-subsystem behavioural tests: each handler's state effects and the
//! branch structure the coverage blocks promise.

use ksa_desim::{CoreId, DeviceModel, Engine, EngineParams, FaultState};
use ksa_kernel::coverage::{block_name, CoverageSet};
use ksa_kernel::dispatch::dispatch;
use ksa_kernel::instance::{InstanceConfig, KernelInstance, TenancyProfile, VirtProfile};
use ksa_kernel::ops::KOp;
use ksa_kernel::params::CostModel;
use ksa_kernel::spec::SpecMask;
use ksa_kernel::state::FdKind;
use ksa_kernel::syscalls::SysNo;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Fixture {
    inst: KernelInstance,
    rng: SmallRng,
    cover: CoverageSet,
    faults: FaultState,
}

impl Fixture {
    fn new(cores: usize) -> Self {
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 3);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let cs: Vec<CoreId> = (0..cores)
            .map(|_| eng.add_core(Default::default()))
            .collect();
        let inst = KernelInstance::build(
            &mut eng,
            0,
            InstanceConfig {
                cores: cs,
                mem_mib: 256,
                virt: VirtProfile::native(),
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        );
        Self {
            inst,
            rng: SmallRng::seed_from_u64(17),
            cover: CoverageSet::new(),
            faults: FaultState::default(),
        }
    }

    fn call(&mut self, no: SysNo, args: &[u64]) -> ksa_kernel::ops::OpSeq {
        dispatch(
            &mut self.inst,
            0,
            no,
            args,
            &mut self.rng,
            &mut self.cover,
            &mut self.faults,
        )
    }

    fn covered(&self, name: &str) -> bool {
        self.cover.iter().any(|b| block_name(b) == name)
    }
}

// ------------------------------------------------------------ filesystem

#[test]
fn open_existing_vs_create_take_different_paths() {
    let mut f = Fixture::new(2);
    let s1 = f.call(SysNo::Open, &[4, 1]); // create
    assert!(f.covered("fs.create"));
    let fd = s1.result;
    f.call(SysNo::Close, &[fd]);
    f.call(SysNo::Open, &[4, 0]); // reopen same name
    assert!(f.covered("fs.open.existing"));
    // Opening a name that never existed without O_CREAT fails cheaply.
    f.call(SysNo::Open, &[9, 0]);
    assert!(f.covered("fs.lookup.enoent"));
}

#[test]
fn rename_moves_the_name() {
    let mut f = Fixture::new(1);
    f.call(SysNo::Open, &[2, 1]);
    let before = f.inst.state.fs.journal_dirty;
    f.call(SysNo::Rename, &[2, 7]);
    assert!(f.covered("fs.rename"));
    assert!(f.inst.state.fs.journal_dirty > before, "rename journals");
    // The old name is gone; the new name resolves.
    f.call(SysNo::Stat, &[2]);
    assert!(f.covered("fs.lookup.enoent"));
    f.call(SysNo::Stat, &[7]);
    assert!(f.covered("fs.stat"));
}

#[test]
fn unlink_drops_dentries_and_page_cache() {
    let mut f = Fixture::new(1);
    let s = f.call(SysNo::Open, &[3, 1]);
    f.call(SysNo::Write, &[s.result, 50_000]);
    let dentries = f.inst.state.fs.dentries;
    f.call(SysNo::Unlink, &[3]);
    assert!(f.covered("fs.unlink"));
    assert!(f.covered("fs.unlink.invalidate"));
    assert!(f.inst.state.fs.dentries < dentries);
}

// ------------------------------------------------------------ file I/O

#[test]
fn read_hits_after_write_fills_cache() {
    let mut f = Fixture::new(1);
    let fd = f.call(SysNo::Open, &[1, 1]).result;
    f.call(SysNo::Write, &[fd, 60_000]);
    f.call(SysNo::Lseek, &[fd, 0]);
    f.call(SysNo::Read, &[fd, 8_000]);
    assert!(f.covered("io.read.hit"), "cache must be warm after write");
}

#[test]
fn cold_read_goes_to_disk() {
    let mut f = Fixture::new(1);
    let fd = f.call(SysNo::Open, &[1, 1]).result;
    // Fresh file: no cached pages yet.
    let seq = f.call(SysNo::Read, &[fd, 8_000]);
    assert!(f.covered("io.read.miss"));
    assert!(
        seq.ops
            .iter()
            .any(|op| matches!(op, KOp::Io { write: false, .. })),
        "miss must issue device I/O"
    );
}

#[test]
fn fsync_group_commit_skips_when_clean() {
    let mut f = Fixture::new(1);
    let fd = f.call(SysNo::Open, &[1, 1]).result;
    f.call(SysNo::Write, &[fd, 30_000]);
    f.call(SysNo::Fsync, &[fd]);
    assert!(f.covered("io.fsync.commit"));
    assert_eq!(f.inst.state.fs.journal_dirty, 0);
    // Second fsync with nothing dirty: the cheap path.
    f.call(SysNo::Fsync, &[fd]);
    assert!(f.covered("io.fsync.clean"));
}

#[test]
fn write_throttles_past_the_dirty_threshold() {
    let mut f = Fixture::new(1);
    let fd = f.call(SysNo::Open, &[1, 1]).result;
    // Force the instance over its dirty threshold.
    f.inst.state.mm.dirty_pages = f.inst.state.mm.total_pages / 10;
    f.call(SysNo::Write, &[fd, 30_000]);
    assert!(f.covered("io.write.throttled"), "foreground writeback");
}

// ------------------------------------------------------------ memory

#[test]
fn munmap_emits_shootdown_and_frees_populated_pages() {
    let mut f = Fixture::new(4);
    f.call(SysNo::Mmap, &[64, 1]); // populated
    let pcp_before = f.inst.state.slots[0].pcp_pages;
    let seq = f.call(SysNo::Munmap, &[0]);
    assert!(seq.ops.iter().any(|op| matches!(op, KOp::Tlb { .. })));
    let slot = &f.inst.state.slots[0];
    assert!(!slot.vmas[0].mapped);
    assert_eq!(slot.vmas[0].populated, 0);
    // Pages returned to the allocator (pcp or zone).
    assert!(
        slot.pcp_pages >= pcp_before || f.covered("mm.free.zone_spill"),
        "freed pages must go somewhere"
    );
}

#[test]
fn unpopulated_mmap_frees_nothing_on_munmap() {
    let mut f = Fixture::new(2);
    f.call(SysNo::Mmap, &[64, 0]); // no MAP_POPULATE
    assert_eq!(f.inst.state.slots[0].vmas[0].populated, 0);
    let pcp = f.inst.state.slots[0].pcp_pages;
    f.call(SysNo::Munmap, &[0]);
    assert_eq!(f.inst.state.slots[0].pcp_pages, pcp, "nothing to free");
}

#[test]
fn madvise_willneed_then_dontneed_round_trips_population() {
    let mut f = Fixture::new(1);
    f.call(SysNo::Mmap, &[40, 0]);
    f.call(SysNo::Madvise, &[0, 1]); // WILLNEED
    let populated = f.inst.state.slots[0].vmas[0].populated;
    assert!(populated > 0);
    f.call(SysNo::Madvise, &[0, 0]); // DONTNEED
    assert_eq!(f.inst.state.slots[0].vmas[0].populated, 0);
}

#[test]
fn direct_reclaim_fires_under_memory_pressure() {
    let mut f = Fixture::new(1);
    f.inst.state.mm.free_pages = 10; // under the watermark
    f.inst.state.slots[0].pcp_pages = 0;
    f.call(SysNo::Mmap, &[64, 1]);
    assert!(f.covered("mm.alloc.direct_reclaim"));
}

// ------------------------------------------------------------ IPC

#[test]
fn pipe_fds_behave_as_pipes() {
    let mut f = Fixture::new(1);
    let r = f.call(SysNo::Pipe2, &[]).result as usize;
    let slot = &f.inst.state.slots[0];
    assert!(matches!(slot.fds[r].kind, FdKind::Pipe { read_end: true }));
    assert!(matches!(
        slot.fds[r + 1].kind,
        FdKind::Pipe { read_end: false }
    ));
    f.call(SysNo::Read, &[r as u64, 512]);
    assert!(f.covered("io.read.pipe"));
}

#[test]
fn msg_queue_send_then_receive() {
    let mut f = Fixture::new(1);
    let q = f.call(SysNo::Msgget, &[]).result;
    f.call(SysNo::Msgsnd, &[q, 1_000]);
    assert_eq!(f.inst.state.ipc.msgqs[q as usize].msgs, 1);
    f.call(SysNo::Msgrcv, &[q, 1_000]);
    assert!(f.covered("ipc.msgrcv.dequeue"));
    assert_eq!(f.inst.state.ipc.msgqs[q as usize].msgs, 0);
    f.call(SysNo::Msgrcv, &[q, 1_000]);
    assert!(f.covered("ipc.msgrcv.eagain"));
}

#[test]
fn shm_attach_detach_tracks_attaches() {
    let mut f = Fixture::new(2);
    let id = f.call(SysNo::Shmget, &[64]).result;
    f.call(SysNo::Shmat, &[id]);
    assert_eq!(f.inst.state.ipc.shms[id as usize].attaches, 1);
    let seq = f.call(SysNo::Shmdt, &[0]);
    assert_eq!(f.inst.state.ipc.shms[id as usize].attaches, 0);
    assert!(seq.ops.iter().any(|op| matches!(op, KOp::Tlb { .. })));
}

#[test]
fn shmdt_with_a_huge_selector_wraps_onto_the_shm_mapping() {
    let mut f = Fixture::new(1);
    let id = f.call(SysNo::Shmget, &[64]).result;
    f.call(SysNo::Shmat, &[id]);
    f.call(SysNo::Mmap, &[16, 0]);
    let vmas = &f.inst.state.slots[0].vmas;
    let len = vmas.len() as u64;
    // The selector lands on the plain mapping, so the scan must step
    // past the end of the table and wrap to the shm one.
    assert!(vmas[(u64::MAX % len) as usize].shm.is_none());
    let seq = f.call(SysNo::Shmdt, &[u64::MAX]);
    assert_eq!(seq.error, None);
    assert!(f.covered("ipc.shmdt"));
    assert_eq!(f.inst.state.ipc.shms[id as usize].attaches, 0);
}

#[test]
fn same_futex_address_hashes_to_same_bucket_lock() {
    // Two dispatches with the same uaddr must serialize on one bucket;
    // different addresses spread. We check via the emitted lock ids.
    let mut f = Fixture::new(2);
    let lock_of = |f: &mut Fixture, addr: u64| {
        let seq = f.call(SysNo::FutexWake, &[addr, 1]);
        seq.ops
            .iter()
            .find_map(|op| match op {
                KOp::Lock(l, _) => Some(*l),
                _ => None,
            })
            .expect("futex takes a bucket lock")
    };
    let a1 = lock_of(&mut f, 5);
    let a2 = lock_of(&mut f, 5);
    let b = lock_of(&mut f, 6);
    assert_eq!(a1, a2, "same address, same bucket");
    assert_ne!(a1, b, "adjacent addresses spread");
}

// ------------------------------------------------------------ perms

#[test]
fn setuid_changes_identity_and_syncs_rcu() {
    let mut f = Fixture::new(4);
    let uid = f.inst.state.slots[0].uid;
    let target = (uid + 1) % 4;
    let seq = f.call(SysNo::Setuid, &[target]);
    assert!(f.covered("perm.setuid.change"));
    assert_eq!(f.inst.state.slots[0].uid, target);
    assert!(
        seq.ops.contains(&KOp::RcuSync),
        "cred publication waits a GP"
    );
    // Setting the same uid again is the cheap branch.
    f.call(SysNo::Setuid, &[target]);
    assert!(f.covered("perm.setuid.same"));
}

#[test]
fn umask_returns_old_value() {
    let mut f = Fixture::new(1);
    let old = f.inst.state.slots[0].umask;
    let seq = f.call(SysNo::Umask, &[0o777]);
    assert_eq!(seq.result, old);
    assert_eq!(f.inst.state.slots[0].umask, 0o777);
}

// ------------------------------------------------------------ sched

#[test]
fn nanosleep_sleeps_off_cpu() {
    let mut f = Fixture::new(1);
    let seq = f.call(SysNo::Nanosleep, &[25_000]);
    assert!(seq.ops.iter().any(|op| matches!(op, KOp::SleepNs(_))));
}

#[test]
fn setaffinity_migration_locks_both_runqueues() {
    let mut f = Fixture::new(4);
    let seq = f.call(SysNo::SchedSetaffinity, &[2]); // slot 0 -> core 2
    assert!(f.covered("sched.setaffinity.migrate"));
    let locks: Vec<_> = seq
        .ops
        .iter()
        .filter(|op| matches!(op, KOp::Lock(..)))
        .collect();
    assert!(locks.len() >= 2, "migration needs both runqueues");
}
