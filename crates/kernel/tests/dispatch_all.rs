//! Dispatch-level tests: every syscall compiles to a sane op sequence on
//! every environment flavour, and the logical state stays consistent.

use ksa_desim::{CoreId, DeviceModel, Engine, EngineParams, FaultState};
use ksa_kernel::coverage::CoverageSet;
use ksa_kernel::dispatch::dispatch;
use ksa_kernel::instance::{InstanceConfig, KernelInstance, TenancyProfile, VirtProfile};
use ksa_kernel::params::CostModel;
use ksa_kernel::spec::SpecMask;
use ksa_kernel::syscalls::SysNo;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn build(n_cores: usize, virt: VirtProfile, tenancy: TenancyProfile) -> KernelInstance {
    let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 5);
    let disk = eng.add_device(DeviceModel::nvme_ssd());
    let cores: Vec<CoreId> = (0..n_cores)
        .map(|_| eng.add_core(Default::default()))
        .collect();
    KernelInstance::build(
        &mut eng,
        0,
        InstanceConfig {
            cores,
            mem_mib: 512,
            virt,
            tenancy,
            cost: CostModel::default(),
            disk,
            spec: SpecMask::full(),
        },
    )
}

/// Calls every syscall several times with varied args; all op sequences
/// must have balanced locks and the handler must not panic.
fn exercise_all(mut inst: KernelInstance, seed: u64) -> KernelInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut faults = FaultState::default();
    let mut cover = CoverageSet::new();
    for round in 0..30u64 {
        for &no in &SysNo::ALL {
            let args: Vec<u64> = (0..4).map(|i| rng.gen::<u64>() ^ (round + i)).collect();
            let seq = dispatch(&mut inst, 0, no, &args, &mut rng, &mut cover, &mut faults);
            assert!(
                seq.locks_balanced(),
                "{}: unbalanced locks (args {:?})",
                no.name(),
                args
            );
        }
    }
    assert!(!cover.is_empty());
    inst
}

#[test]
fn all_syscalls_compile_native() {
    let inst = exercise_all(build(4, VirtProfile::native(), TenancyProfile::none()), 11);
    assert!(inst.syscalls >= 30 * SysNo::ALL.len() as u64);
}

#[test]
fn all_syscalls_compile_kvm() {
    exercise_all(build(1, VirtProfile::kvm(), TenancyProfile::none()), 12);
}

#[test]
fn all_syscalls_compile_containers() {
    exercise_all(
        build(4, VirtProfile::native(), TenancyProfile::containers(16)),
        13,
    );
}

#[test]
fn coverage_grows_with_argument_diversity() {
    let mut inst = build(2, VirtProfile::native(), TenancyProfile::none());
    let mut rng = SmallRng::seed_from_u64(7);
    let mut faults = FaultState::default();
    let mut c1 = CoverageSet::new();
    // One getpid only covers a couple of blocks.
    dispatch(
        &mut inst,
        0,
        SysNo::Getpid,
        &[0],
        &mut rng,
        &mut c1,
        &mut faults,
    );
    let few = c1.len();
    let mut c2 = CoverageSet::new();
    for i in 0..50 {
        dispatch(
            &mut inst,
            0,
            SysNo::Open,
            &[i, i % 2],
            &mut rng,
            &mut c2,
            &mut faults,
        );
        dispatch(
            &mut inst,
            0,
            SysNo::Write,
            &[i, i * 1000],
            &mut rng,
            &mut c2,
            &mut faults,
        );
        dispatch(
            &mut inst,
            0,
            SysNo::Munmap,
            &[i],
            &mut rng,
            &mut c2,
            &mut faults,
        );
        dispatch(
            &mut inst,
            0,
            SysNo::Mmap,
            &[i * 3, i % 2],
            &mut rng,
            &mut c2,
            &mut faults,
        );
    }
    assert!(
        c2.len() > few + 5,
        "diverse calls should cover many more blocks ({} vs {few})",
        c2.len()
    );
}

#[test]
fn state_effects_are_visible() {
    let mut inst = build(1, VirtProfile::native(), TenancyProfile::none());
    let mut rng = SmallRng::seed_from_u64(9);
    let mut faults = FaultState::default();
    let mut cover = CoverageSet::new();

    // open(O_CREAT) installs an fd.
    let seq = dispatch(
        &mut inst,
        0,
        SysNo::Open,
        &[5, 1],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    let fd = seq.result;
    assert_eq!(inst.state.slots[0].fds.len(), 1);
    assert_eq!(fd, 0);

    // write dirties pages.
    let before = inst.state.mm.dirty_pages;
    dispatch(
        &mut inst,
        0,
        SysNo::Write,
        &[fd, 32_768],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    assert!(inst.state.mm.dirty_pages > before);

    // fsync cleans the journal.
    inst.state.fs.journal_dirty += 100;
    dispatch(
        &mut inst,
        0,
        SysNo::Fsync,
        &[fd, 0],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    assert_eq!(inst.state.fs.journal_dirty, 0);

    // mmap then munmap toggles the vma.
    let seq = dispatch(
        &mut inst,
        0,
        SysNo::Mmap,
        &[64, 1],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    assert!(seq.result >= 1);
    assert!(inst.state.slots[0].vmas[0].mapped);
    dispatch(
        &mut inst,
        0,
        SysNo::Munmap,
        &[0],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    assert!(!inst.state.slots[0].vmas[0].mapped);

    // clone + wait4 round-trips the task counters.
    let tasks = inst.state.sched.nr_tasks;
    dispatch(
        &mut inst,
        0,
        SysNo::Clone,
        &[0],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    assert_eq!(inst.state.sched.nr_tasks, tasks + 1);
    assert_eq!(inst.state.slots[0].children_pending, 1);
    dispatch(
        &mut inst,
        0,
        SysNo::Wait4,
        &[0],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    assert_eq!(inst.state.sched.nr_tasks, tasks);
    assert_eq!(inst.state.slots[0].children_pending, 0);
}

#[test]
fn tlb_ops_absent_on_uniprocessor_runner() {
    use ksa_kernel::exec::OpRunner;
    let mut uni = build(1, VirtProfile::native(), TenancyProfile::none());
    let mut big = build(8, VirtProfile::native(), TenancyProfile::none());
    let mut rng = SmallRng::seed_from_u64(3);
    let mut faults = FaultState::default();
    let mut cover = CoverageSet::new();
    for inst in [&mut uni, &mut big] {
        dispatch(
            inst,
            0,
            SysNo::Mmap,
            &[64, 1],
            &mut rng,
            &mut cover,
            &mut faults,
        );
    }
    let s_uni = dispatch(
        &mut uni,
        0,
        SysNo::Munmap,
        &[0],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    let s_big = dispatch(
        &mut big,
        0,
        SysNo::Munmap,
        &[0],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    let r_uni = OpRunner::new(&s_uni, &uni, uni.cores[0]);
    let r_big = OpRunner::new(&s_big, &big, big.cores[0]);
    assert_eq!(r_uni.ipi_count(), 0);
    assert_eq!(r_big.ipi_count(), 1);
}

#[test]
fn container_tenancy_adds_cgroup_paths() {
    let mut inst = build(2, VirtProfile::native(), TenancyProfile::containers(64));
    let mut rng = SmallRng::seed_from_u64(21);
    let mut faults = FaultState::default();
    let mut cover = CoverageSet::new();
    // Drive enough charges to hit the periodic flush.
    dispatch(
        &mut inst,
        0,
        SysNo::Open,
        &[1, 1],
        &mut rng,
        &mut cover,
        &mut faults,
    );
    for i in 0..200 {
        dispatch(
            &mut inst,
            0,
            SysNo::Write,
            &[0, 4096 + i],
            &mut rng,
            &mut cover,
            &mut faults,
        );
    }
    assert!(cover.contains(ksa_kernel::cov_block!("cgroup.charge")));
    assert!(
        cover.contains(ksa_kernel::cov_block!("cgroup.stat_flush")),
        "200 charges must cross the flush threshold"
    );
}

#[test]
fn dispatch_is_deterministic() {
    let run = |seed: u64| {
        let mut inst = build(2, VirtProfile::native(), TenancyProfile::none());
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut faults = FaultState::default();
        let mut cover = CoverageSet::new();
        let mut sig = Vec::new();
        for round in 0..10u64 {
            for &no in &SysNo::ALL {
                let args = [round, round * 7 + 1, round % 3, 4096];
                let seq = dispatch(&mut inst, 0, no, &args, &mut rng, &mut cover, &mut faults);
                sig.push(seq.cpu_ns());
            }
        }
        sig
    };
    assert_eq!(run(42), run(42));
}
