//! Error-path tests: injected faults must take real error paths — errno
//! set, state rolled back, error blocks covered — and never corrupt the
//! op sequences.

use ksa_desim::{
    CoreId, DeviceModel, Engine, EngineParams, FaultKind, FaultPlan, FaultSchedule, FaultState,
};
use ksa_kernel::coverage::{block_name, CoverageSet};
use ksa_kernel::dispatch::dispatch;
use ksa_kernel::fault_site;
use ksa_kernel::instance::{InstanceConfig, KernelInstance, TenancyProfile, VirtProfile};
use ksa_kernel::params::CostModel;
use ksa_kernel::spec::SpecMask;
use ksa_kernel::syscalls::SysNo;
use ksa_kernel::Errno;
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Fixture {
    inst: KernelInstance,
    rng: SmallRng,
    cover: CoverageSet,
    faults: FaultState,
}

impl Fixture {
    fn new(plan: FaultPlan) -> Self {
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 3);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let cores: Vec<CoreId> = (0..2).map(|_| eng.add_core(Default::default())).collect();
        let inst = KernelInstance::build(
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
        );
        Self {
            inst,
            rng: SmallRng::seed_from_u64(17),
            cover: CoverageSet::new(),
            faults: FaultState::new(plan),
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

#[test]
fn mmap_vma_alloc_failure_returns_enomem_without_vma() {
    let plan = FaultPlan::new(1).site(fault_site!("mm.mmap.vma"), FaultSchedule::Nth(1));
    let mut f = Fixture::new(plan);
    let seq = f.call(SysNo::Mmap, &[64, 1]);
    assert_eq!(seq.error, Some(Errno::ENOMEM));
    assert!(seq.locks_balanced());
    assert!(f.inst.state.slots[0].vmas.is_empty(), "no VMA on failure");
    assert!(f.covered("err.mm.mmap.enomem"));
    assert_eq!(f.faults.injected().len(), 1);

    // The second mmap succeeds: Nth(1) fired once.
    let seq = f.call(SysNo::Mmap, &[64, 1]);
    assert_eq!(seq.error, None);
    assert_eq!(f.inst.state.slots[0].vmas.len(), 1);
}

#[test]
fn read_disk_error_leaves_cache_and_offset_untouched() {
    let plan = FaultPlan::new(2).site(fault_site!("io.read.disk"), FaultSchedule::Nth(1));
    let mut f = Fixture::new(plan);
    let seq = f.call(SysNo::Open, &[5, 1]);
    let fd = seq.result;
    assert_eq!(seq.error, None);

    let seq = f.call(SysNo::Read, &[fd, 8192]);
    assert_eq!(seq.error, Some(Errno::EIO));
    assert!(seq.locks_balanced());
    assert_eq!(seq.result, 0, "failed read returns no bytes");
    let file_idx = 0;
    assert_eq!(f.inst.state.fs.files[file_idx].cached_pages, 0);
    assert_eq!(f.inst.state.slots[0].fds[fd as usize].offset_pages, 0);
    assert!(f.covered("err.io.read.eio"));

    // Retry hits the device successfully and fills the cache.
    let seq = f.call(SysNo::Read, &[fd, 8192]);
    assert_eq!(seq.error, None);
    assert!(f.inst.state.fs.files[file_idx].cached_pages > 0);
}

#[test]
fn fsync_journal_io_failure_keeps_backlog_and_skips_commit() {
    let plan = FaultPlan::new(3).site(fault_site!("io.fsync.journal_io"), FaultSchedule::Nth(1));
    let mut f = Fixture::new(plan);
    let seq = f.call(SysNo::Open, &[5, 1]);
    let fd = seq.result;
    f.inst.state.fs.journal_dirty = 100;
    let commits = f.inst.state.fs.commits;

    let seq = f.call(SysNo::Fsync, &[fd, 0]);
    assert_eq!(seq.error, Some(Errno::EIO));
    assert!(seq.locks_balanced());
    assert_eq!(f.inst.state.fs.journal_dirty, 100, "backlog preserved");
    assert_eq!(f.inst.state.fs.commits, commits, "no commit recorded");

    // The next fsync commits the surviving transaction.
    let seq = f.call(SysNo::Fsync, &[fd, 0]);
    assert_eq!(seq.error, None);
    assert_eq!(f.inst.state.fs.journal_dirty, 0);
    assert_eq!(f.inst.state.fs.commits, commits + 1);
}

#[test]
fn clone_alloc_failure_touches_no_task_state() {
    let plan = FaultPlan::new(4).site(fault_site!("sched.clone.task"), FaultSchedule::Nth(1));
    let mut f = Fixture::new(plan);
    let tasks = f.inst.state.sched.nr_tasks;
    let seq = f.call(SysNo::Clone, &[0]);
    assert_eq!(seq.error, Some(Errno::ENOMEM));
    assert_eq!(f.inst.state.sched.nr_tasks, tasks);
    assert_eq!(f.inst.state.slots[0].children_pending, 0);
    assert!(f.covered("err.sched.clone.enomem"));
}

#[test]
fn no_fault_execution_covers_zero_error_blocks() {
    let mut f = Fixture::new(FaultPlan::none());
    for round in 0..20u64 {
        for &no in &SysNo::ALL {
            let args = [round, round * 7 + 1, round % 3, 4096];
            let seq = f.call(no, &args);
            assert!(seq.locks_balanced());
        }
    }
    assert_eq!(
        f.cover.error_blocks(),
        0,
        "error blocks are reachable only through injection"
    );
}

#[test]
fn aggressive_injection_keeps_every_sequence_balanced() {
    let plan = FaultPlan::new(99)
        .kind_default(FaultKind::AllocFail, FaultSchedule::ProbMilli(300))
        .kind_default(FaultKind::IoError, FaultSchedule::ProbMilli(300))
        .kind_default(FaultKind::LockTimeout, FaultSchedule::ProbMilli(300));
    let mut f = Fixture::new(plan);
    for round in 0..30u64 {
        for &no in &SysNo::ALL {
            let args = [round, round * 13 + 5, round % 5, 8192];
            let seq = f.call(no, &args);
            assert!(
                seq.locks_balanced(),
                "{}: unbalanced locks under injection",
                no.name()
            );
        }
    }
    assert!(
        f.cover.error_blocks() > 0,
        "aggressive plan must reach error paths"
    );
    assert!(!f.faults.injected().is_empty());
}

#[test]
fn identical_plans_replay_identically() {
    let plan = FaultPlan::new(7)
        .kind_default(FaultKind::AllocFail, FaultSchedule::ProbMilli(250))
        .kind_default(FaultKind::IoError, FaultSchedule::EveryNth(3))
        .site(fault_site!("fs.rename.mutex"), FaultSchedule::Nth(2));
    let run = |plan: FaultPlan| {
        let mut f = Fixture::new(plan);
        let mut errors = Vec::new();
        let mut cpu = Vec::new();
        for round in 0..10u64 {
            for &no in &SysNo::ALL {
                let args = [round, round * 7 + 1, round % 3, 4096];
                let seq = f.call(no, &args);
                errors.push(seq.error);
                cpu.push(seq.cpu_ns());
            }
        }
        (errors, cpu, f.faults.injected().to_vec())
    };
    let a = run(plan.clone());
    let b = run(plan);
    assert_eq!(a.0, b.0, "errno stream must be bit-identical");
    assert_eq!(a.1, b.1, "cpu cost stream must be bit-identical");
    assert_eq!(a.2, b.2, "injection log must be bit-identical");
}
