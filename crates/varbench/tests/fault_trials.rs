//! Property tests for fault-injected measurement trials.
//!
//! Determinism: two trials with the same seed and the same `FaultPlan`
//! must produce bit-identical latency samples. Isolation: fault plans
//! targeting disjoint sites must not interfere — injecting at site A
//! leaves the latencies of calls that only touch site B's error path
//! unchanged relative to a plan that never fires.

use ksa_desim::{FaultPlan, FaultSchedule};
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::fault_site;
use ksa_kernel::prog::Corpus;
use ksa_kernel::{Arg, Call, Program, SysNo};
use ksa_varbench::{run_hooked, RunConfig, RunResult};

fn corpus() -> Corpus {
    Corpus {
        programs: vec![
            Program {
                calls: vec![
                    Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                    Call::new(SysNo::Write, vec![Arg::Ref(0), Arg::Const(8192)]),
                    Call::new(SysNo::Fsync, vec![Arg::Ref(0)]),
                    Call::new(SysNo::Close, vec![Arg::Ref(0)]),
                ],
            },
            Program {
                calls: vec![
                    Call::new(SysNo::Mmap, vec![Arg::Const(32), Arg::Const(1)]),
                    Call::new(SysNo::Munmap, vec![Arg::Ref(0)]),
                ],
            },
        ],
    }
}

fn cfg(seed: u64) -> RunConfig {
    RunConfig::new(
        EnvSpec::new(
            Machine {
                cores: 4,
                mem_mib: 2048,
            },
            EnvKind::Native,
        ),
        6,
        seed,
    )
}

fn run_with_plan(seed: u64, plan: FaultPlan) -> RunResult {
    run_hooked(&cfg(seed), &corpus(), |engine| engine.set_fault_plan(plan))
        .expect("fault-injected trial failed")
}

#[test]
fn same_seed_and_plan_replay_bit_identically() {
    let plan = FaultPlan::new(0xfa17)
        .site(fault_site!("io.fsync.data"), FaultSchedule::EveryNth(3))
        .site(fault_site!("mm.mmap.vma"), FaultSchedule::ProbMilli(200));
    let a = run_with_plan(21, plan.clone());
    let b = run_with_plan(21, plan);
    assert_eq!(a.sim_ns, b.sim_ns);
    assert_eq!(a.sites.len(), b.sites.len());
    for (x, y) in a.sites.iter().zip(&b.sites) {
        assert_eq!(
            x.samples.raw(),
            y.samples.raw(),
            "site {}/{} ({}) diverged under an identical plan",
            x.prog,
            x.call,
            x.sysno.name()
        );
    }
}

#[test]
fn different_plans_diverge() {
    // Sanity check that the injection actually changes timing — without
    // it, the determinism test above would pass vacuously.
    let hot = FaultPlan::new(1)
        .site(fault_site!("io.fsync.data"), FaultSchedule::EveryNth(2))
        .site(fault_site!("mm.mmap.vma"), FaultSchedule::EveryNth(2));
    let a = run_with_plan(21, hot);
    let b = run_with_plan(21, FaultPlan::none());
    let diverged = a
        .sites
        .iter()
        .zip(&b.sites)
        .any(|(x, y)| x.samples.raw() != y.samples.raw());
    assert!(diverged, "an EveryNth(2) fault plan must change latencies");
}

#[test]
fn disjoint_fault_sites_do_not_interfere() {
    // A plan failing only memory-side allocations must leave the
    // mmap/munmap program's samples identical to a plan that schedules a
    // *different*, never-reached file-I/O site: the decision hash is
    // per-site, so an unrelated schedule entry cannot perturb it.
    let mm_only = FaultPlan::new(7).site(fault_site!("mm.mmap.vma"), FaultSchedule::EveryNth(2));
    let mm_plus_unreached = FaultPlan::new(7)
        .site(fault_site!("mm.mmap.vma"), FaultSchedule::EveryNth(2))
        // The corpus never reads: this site is unreached.
        .site(fault_site!("io.read.disk"), FaultSchedule::EveryNth(1));
    let a = run_with_plan(33, mm_only);
    let b = run_with_plan(33, mm_plus_unreached);
    assert_eq!(
        a.sim_ns, b.sim_ns,
        "unreached site's schedule leaked into timing"
    );
    for (x, y) in a.sites.iter().zip(&b.sites) {
        assert_eq!(x.samples.raw(), y.samples.raw());
    }
}
