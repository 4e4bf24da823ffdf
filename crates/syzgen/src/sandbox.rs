//! The generation sandbox: a one-core kernel instance that executes
//! candidate programs for their coverage signal (no timing needed — the
//! handlers emit coverage when the call is compiled, so the engine that
//! owns the instance's locks and devices never runs).
//!
//! Every execution reboots the instance's logical state in place
//! ([`ksa_kernel::state::SubsysState::reset`]) and compiles each call
//! into scratch buffers the sandbox keeps across runs: the op sequence,
//! the resolved arguments, the call results and the coverage set. A run
//! therefore reuses the previous run's allocations instead of making its
//! own; only the slots' ordered VMA index (a `BTreeSet`) frees its nodes
//! on reset.
//!
//! The dispatch RNG is *not* reseeded between runs: it carries across
//! executions, so the order and number of executions are part of what a
//! seed generates, and adding or skipping one run changes every later
//! program.

use ksa_desim::{
    CoreId, DeviceModel, Engine, EngineParams, FaultPlan, FaultSite, FaultState, InjectedFault,
};
use ksa_kernel::coverage::CoverageSet;
use ksa_kernel::dispatch::dispatch_into;
use ksa_kernel::fault_sites;
use ksa_kernel::instance::{InstanceConfig, KernelInstance, TenancyProfile, VirtProfile};
use ksa_kernel::ops::OpSeq;
use ksa_kernel::params::CostModel;
use ksa_kernel::spec::SpecMask;
use ksa_kernel::Program;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A reusable execution sandbox.
pub struct Sandbox {
    // The engine only exists to own lock/device/RCU registrations; the
    // sandbox never runs it.
    _engine: Engine<()>,
    inst: KernelInstance,
    rng: SmallRng,
    faults: FaultState,
    // Scratch reused by every run. Created empty: replaying a handful of
    // programs (profile derivation) should not pay for buffers sized for
    // a generation campaign.
    seq: OpSeq,
    args: Vec<u64>,
    results: Vec<u64>,
    cover: CoverageSet,
}

impl Sandbox {
    /// Creates a sandbox with a fresh one-core native instance.
    pub fn new(seed: u64) -> Self {
        let mut engine: Engine<()> = Engine::new((), EngineParams::default(), seed);
        let disk = engine.add_device(DeviceModel::nvme_ssd());
        let core: CoreId = engine.add_core(Default::default());
        let inst = KernelInstance::build(
            &mut engine,
            0,
            InstanceConfig {
                cores: vec![core],
                mem_mib: 512,
                virt: VirtProfile::native(),
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        );
        Self {
            _engine: engine,
            inst,
            rng: SmallRng::seed_from_u64(seed),
            faults: FaultState::default(),
            seq: OpSeq::new(),
            args: Vec::new(),
            results: Vec::new(),
            cover: CoverageSet::new(),
        }
    }

    /// Resets the instance's logical state (like restarting the VM
    /// Syzkaller fuzzes in). Fault hit counters restart too, so a plan's
    /// schedule replays identically on the next program.
    pub fn reset(&mut self) {
        let pages = self.inst.mem_pages;
        self.inst.state.reset(1, pages);
        self.faults.rearm();
    }

    /// Installs a fault plan for subsequent runs (Syzkaller's
    /// fault-injection mode). `FaultPlan::none()` disables injection.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults.reset(plan);
    }

    /// Faults injected since the last reset (in injection order).
    pub fn injected(&self) -> &[InjectedFault] {
        self.faults.injected()
    }

    /// Fault points the last runs reached: `(site, hit count)` in table
    /// order. Counters advance even with an empty plan, so a plain run
    /// enumerates every injectable point of a program.
    pub fn fault_hits(&self) -> impl Iterator<Item = (FaultSite, u64)> + '_ {
        fault_sites::all()
            .map(|site| (site, self.faults.hits(site)))
            .filter(|&(_, hits)| hits > 0)
    }

    /// Executes `prog` from a freshly reset state and returns the blocks
    /// it covered. The set is the sandbox's scratch, overwritten by the
    /// next run; a caller that keeps it clones it.
    pub fn run_fresh(&mut self, prog: &Program) -> &CoverageSet {
        self.reset();
        self.cover.clear();
        self.results.clear();
        for call in &prog.calls {
            self.args.clear();
            self.args
                .extend(call.args.iter().map(|a| a.resolve(&self.results)));
            dispatch_into(
                &mut self.inst,
                0,
                call.no,
                &self.args,
                &mut self.rng,
                &mut self.cover,
                &mut self.faults,
                &mut self.seq,
            );
            debug_assert!(
                self.seq.locks_balanced(),
                "{}: unbalanced locks",
                call.no.name()
            );
            self.results.push(self.seq.result);
        }
        &self.cover
    }

    /// Cumulative coverage the instance has seen.
    pub fn total_coverage(&self) -> &CoverageSet {
        &self.inst.coverage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_kernel::{Arg, Call, SysNo};

    #[test]
    fn run_collects_coverage() {
        let mut sb = Sandbox::new(1);
        let prog = Program {
            calls: vec![
                Call::new(SysNo::Open, vec![Arg::Const(3), Arg::Const(1)]),
                Call::new(SysNo::Write, vec![Arg::Ref(0), Arg::Const(8192)]),
                Call::new(SysNo::Fsync, vec![Arg::Ref(0)]),
            ],
        };
        let cov = sb.run_fresh(&prog);
        assert!(cov.len() >= 3, "covered {} blocks", cov.len());
    }

    #[test]
    fn reset_clears_state_but_not_total_coverage() {
        let mut sb = Sandbox::new(2);
        let prog = Program {
            calls: vec![Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)])],
        };
        sb.run_fresh(&prog);
        let total_before = sb.total_coverage().len();
        sb.reset();
        assert_eq!(sb.inst.state.slots[0].fds.len(), 0, "state reset");
        assert_eq!(sb.total_coverage().len(), total_before);
    }

    #[test]
    fn different_programs_cover_different_blocks() {
        let mut sb = Sandbox::new(3);
        let io = Program {
            calls: vec![
                Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                Call::new(SysNo::Read, vec![Arg::Ref(0), Arg::Const(4096)]),
            ],
        };
        let mm = Program {
            calls: vec![
                Call::new(SysNo::Mmap, vec![Arg::Const(32), Arg::Const(1)]),
                Call::new(SysNo::Munmap, vec![Arg::Ref(0)]),
            ],
        };
        let c_io = sb.run_fresh(&io).clone();
        let c_mm = sb.run_fresh(&mm);
        assert!(c_io.new_blocks(c_mm) > 0);
        assert!(c_mm.new_blocks(&c_io) > 0);
    }
}
