//! Compiling kernel calls and replaying them on the event engine.
//!
//! [`OpRunner`] lowers an [`OpSeq`] into engine effects, applying the
//! instance's virtualization profile: CPU work is scaled by the
//! nested-paging multipliers, `VmExit` ops become bounded delays (zero on
//! bare metal), and `Tlb` ops expand into a local flush, per-target exit
//! costs (vCPU kicks) and an IPI broadcast to the instance's *other*
//! cores.
//!
//! [`Executor`] is the one place a process runs its kernel calls: it
//! compiles a sequence of calls on its `(core, instance, slot)`, lowers
//! it into its runner, traces its VM exits and replays it. The varbench
//! corpus worker, the tailbench server and the churn host all drive the
//! kernel through it.

use ksa_desim::{CoreId, Effect, LockId, Ns, SimCtx};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::coverage::CoverageSet;
use crate::dispatch::{dispatch_exit, dispatch_into};
use crate::instance::KernelInstance;
use crate::ops::{KOp, OpSeq, VmExitKind};
use crate::world::HasKernel;
use crate::SysNo;

/// One lowered step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum RunStep {
    /// Block on an effect.
    Block(Effect),
    /// Release a lock (non-blocking), then continue.
    Release(LockId),
}

/// Replays one compiled syscall on the engine.
#[derive(Debug)]
pub struct OpRunner {
    steps: Vec<RunStep>,
    at: usize,
    /// Virtualization exit overhead folded into the lowered delays,
    /// known statically at lowering time. The attribution layer
    /// subtracts this from the engine's on-CPU delta so "VM exit" is a
    /// first-class latency component despite delay merging.
    exit_ns: Ns,
    /// Per-exit `(kind tag, cost)` marks, emitted to the trace when the
    /// runner starts (exit costs are merged into delays, so individual
    /// exits have no timestamps of their own).
    exits: Vec<(&'static str, Ns)>,
}

impl OpRunner {
    /// Creates a finished runner with no steps. Executors hold one of
    /// these persistently and [`OpRunner::relower`] each call into it,
    /// reusing the step buffers.
    pub fn empty() -> Self {
        Self {
            steps: Vec::new(),
            at: 0,
            exit_ns: 0,
            exits: Vec::new(),
        }
    }

    /// Lowers `seq` for execution on `self_core` of `inst`.
    pub fn new(seq: &OpSeq, inst: &KernelInstance, self_core: CoreId) -> Self {
        let mut r = Self::empty();
        r.relower(seq, inst, self_core);
        r
    }

    /// Re-lowers this runner onto `seq`, reusing the step and exit
    /// buffers' capacity (no allocation once warm).
    pub fn relower(&mut self, seq: &OpSeq, inst: &KernelInstance, self_core: CoreId) {
        self.steps.clear();
        self.exits.clear();
        self.at = 0;
        self.exit_ns = 0;
        let steps = &mut self.steps;
        let exits = &mut self.exits;
        let mut exit_ns: Ns = 0;
        let virt = inst.virt;
        fn delay(steps: &mut Vec<RunStep>, ns: Ns) {
            if ns == 0 {
                return;
            }
            if let Some(RunStep::Block(Effect::Delay(prev))) = steps.last_mut() {
                *prev += ns;
            } else {
                steps.push(RunStep::Block(Effect::Delay(ns)));
            }
        }
        for op in &seq.ops {
            match *op {
                KOp::Cpu(ns) => delay(steps, virt.scale_cpu(ns)),
                KOp::UserCpu(ns) => delay(steps, ns),
                KOp::MemTouch(ns) => delay(steps, virt.scale_mem(ns)),
                KOp::Lock(l, m) => steps.push(RunStep::Block(Effect::Acquire(l, m))),
                KOp::Unlock(l) => steps.push(RunStep::Release(l)),
                KOp::Tlb { pages } => {
                    delay(steps, virt.scale_cpu(inst.cost.tlb_local));
                    let targets: Vec<CoreId> = inst
                        .cores
                        .iter()
                        .copied()
                        .filter(|&c| c != self_core)
                        .collect();
                    if targets.is_empty() {
                        continue;
                    }
                    // Each remote kick is an APIC access: a VM exit per
                    // target under virtualization.
                    let kick_ns = virt.exit_apic.saturating_mul(targets.len() as Ns);
                    if kick_ns > 0 {
                        exit_ns += kick_ns;
                        exits.push((VmExitKind::Apic.tag(), kick_ns));
                    }
                    delay(steps, kick_ns);
                    let handler_ns = virt.scale_cpu(
                        inst.cost.tlb_handler + inst.cost.tlb_handler_per_page * pages.min(512),
                    );
                    steps.push(RunStep::Block(Effect::Ipi {
                        targets,
                        handler_ns,
                    }));
                }
                KOp::Io { bytes, .. } => {
                    steps.push(RunStep::Block(Effect::Io {
                        dev: inst.disk,
                        bytes,
                    }));
                }
                KOp::RcuSync => steps.push(RunStep::Block(Effect::RcuSync(inst.rcu))),
                KOp::SleepNs(ns) => steps.push(RunStep::Block(Effect::Sleep(ns))),
                KOp::VmExit(kind) => {
                    let cost = match kind {
                        VmExitKind::IoKick => virt.exit_io_kick,
                        VmExitKind::IoIrq => virt.exit_io_irq,
                        VmExitKind::Apic => virt.exit_apic,
                        VmExitKind::Msr => virt.exit_msr,
                        VmExitKind::Halt => virt.exit_halt,
                        // Scaled like the kernel CPU work it displaces.
                        VmExitKind::GuestSyscall => virt.scale_cpu(virt.syscall_overhead),
                    };
                    if cost > 0 {
                        exit_ns += cost;
                        exits.push((kind.tag(), cost));
                    }
                    delay(steps, cost);
                }
                KOp::Nop => {}
            }
        }
        self.exit_ns = exit_ns;
    }

    /// Total virtualization-exit nanoseconds folded into this call's
    /// delays (zero on bare metal). Exact: delays always run to
    /// completion, so a finished call paid exactly this much.
    pub fn vm_exit_ns(&self) -> Ns {
        self.exit_ns
    }

    /// Emits one trace mark per VM exit in this call (timestamped at the
    /// current clock, since exit costs are merged into compute delays).
    /// No-op when tracing is disabled.
    fn trace_exits<W>(&self, ctx: &mut SimCtx<'_, W>) {
        if !ctx.trace_enabled() {
            return;
        }
        for &(tag, cost_ns) in &self.exits {
            let kind = ctx.trace_label(tag);
            ctx.trace_mark(ksa_desim::TraceEventKind::VmExit { kind, cost_ns });
        }
    }

    /// Advances the runner: performs pending non-blocking steps and
    /// returns the next blocking effect, or `None` when the sequence is
    /// complete. (Generic over any world — the instance context was baked
    /// in at lowering time.)
    pub fn step<W>(&mut self, ctx: &mut SimCtx<'_, W>) -> Option<Effect> {
        while self.at < self.steps.len() {
            let step = &mut self.steps[self.at];
            self.at += 1;
            match step {
                // Each step is issued at most once (`at` never rewinds),
                // so the broadcast target list can be moved out instead
                // of cloned — the variant stays in place for the
                // diagnostic accessors.
                RunStep::Block(Effect::Ipi {
                    targets,
                    handler_ns,
                }) => {
                    return Some(Effect::Ipi {
                        targets: std::mem::take(targets),
                        handler_ns: *handler_ns,
                    })
                }
                RunStep::Block(e) => return Some(e.clone()),
                RunStep::Release(l) => {
                    let l = *l;
                    ctx.release(l)
                }
            }
        }
        None
    }

    /// Number of lowered steps (diagnostics).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the sequence lowered to nothing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Lower bound on CPU time in the lowered steps (tests/diagnostics).
    pub fn total_delay(&self) -> Ns {
        self.steps
            .iter()
            .map(|s| match s {
                RunStep::Block(Effect::Delay(n)) => *n,
                _ => 0,
            })
            .sum()
    }

    /// Count of IPI broadcasts in the lowered steps.
    pub fn ipi_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, RunStep::Block(Effect::Ipi { .. })))
            .count()
    }
}

/// Runs one process's kernel calls on one `(core, instance, slot)`.
///
/// It owns everything a call needs besides the kernel: the dispatch RNG,
/// the coverage set, the sequence under construction, a scratch
/// sequence each call compiles into, and the runner that replays the
/// armed sequence. [`Executor::compile`] starts a sequence,
/// [`Compile::arm`] lowers it, and [`Executor::step`] replays it.
#[derive(Debug)]
pub struct Executor {
    core: CoreId,
    instance: usize,
    slot: usize,
    rng: SmallRng,
    cover: CoverageSet,
    seq: OpSeq,
    sub: OpSeq,
    runner: OpRunner,
    live: bool,
}

impl Executor {
    /// Creates an executor for `slot` of kernel instance `instance`,
    /// running on `core`, with its dispatch RNG seeded from `seed`.
    pub fn new(core: CoreId, instance: usize, slot: usize, seed: u64) -> Self {
        Self {
            core,
            instance,
            slot,
            rng: SmallRng::seed_from_u64(seed),
            cover: CoverageSet::new(),
            seq: OpSeq::new(),
            sub: OpSeq::new(),
            runner: OpRunner::empty(),
            live: false,
        }
    }

    /// Starts compiling a new sequence. Dispatch mutates kernel state
    /// synchronously and consumes no virtual time.
    pub fn compile<'a, 'w, W: HasKernel>(
        &'a mut self,
        ctx: &'a mut SimCtx<'w, W>,
    ) -> Compile<'a, 'w, W> {
        self.seq.reset();
        Compile { ex: self, ctx }
    }

    /// Advances the armed sequence: returns its next blocking effect, or
    /// `None` once it has finished (or when nothing is armed).
    pub fn step<W>(&mut self, ctx: &mut SimCtx<'_, W>) -> Option<Effect> {
        let effect = if self.live {
            self.runner.step(ctx)
        } else {
            None
        };
        self.live = effect.is_some();
        effect
    }

    /// True from [`Compile::arm`] until [`Executor::step`] finds the
    /// sequence finished.
    pub fn live(&self) -> bool {
        self.live
    }

    /// VM-exit nanoseconds folded into the last armed sequence.
    pub fn vm_exit_ns(&self) -> Ns {
        self.runner.vm_exit_ns()
    }
}

/// A sequence under construction on an [`Executor`]; see
/// [`Executor::compile`]. Nothing runs until [`Compile::arm`].
#[must_use = "a compiled sequence runs only once armed"]
pub struct Compile<'a, 'w, W> {
    ex: &'a mut Executor,
    ctx: &'a mut SimCtx<'w, W>,
}

impl<W: HasKernel> Compile<'_, '_, W> {
    /// Dispatches one call and appends its ops to the sequence. Each
    /// call compiles into its own scratch sequence first, so op merging
    /// never crosses a call boundary. Returns the compiled call (its
    /// `result` and `error`).
    pub fn call(&mut self, no: SysNo, args: &[u64]) -> &OpSeq {
        let ex = &mut *self.ex;
        let (world, faults) = self.ctx.world_and_faults();
        let inst = &mut world.kernel_mut().instances[ex.instance];
        dispatch_into(
            inst,
            ex.slot,
            no,
            args,
            &mut ex.rng,
            &mut ex.cover,
            faults,
            &mut ex.sub,
        );
        ex.seq.ops.extend_from_slice(&ex.sub.ops);
        &ex.sub
    }

    /// Dispatches the slot-wide `exit_group` sweep and appends its ops.
    pub fn exit(&mut self) {
        let ex = &mut *self.ex;
        let (world, faults) = self.ctx.world_and_faults();
        let inst = &mut world.kernel_mut().instances[ex.instance];
        dispatch_exit(
            inst,
            ex.slot,
            &mut ex.rng,
            &mut ex.cover,
            faults,
            &mut ex.sub,
        );
        ex.seq.ops.extend_from_slice(&ex.sub.ops);
    }

    /// The sequence under construction, for user-level ops between calls.
    pub fn seq(&mut self) -> &mut OpSeq {
        &mut self.ex.seq
    }

    /// The dispatch RNG, for draws between calls.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.ex.rng
    }

    /// Lowers the sequence into the runner and marks it live. Its VM
    /// exits are traced here, once, at the current clock.
    pub fn arm(self) {
        let ex = self.ex;
        debug_assert!(ex.seq.locks_balanced());
        let inst = &self.ctx.world.kernel().instances[ex.instance];
        ex.runner.relower(&ex.seq, inst, ex.core);
        ex.live = true;
        ex.runner.trace_exits(self.ctx);
    }
}

/// Lowered-effect check helpers shared by tests.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceConfig, TenancyProfile, VirtProfile};
    use crate::params::CostModel;
    use crate::spec::SpecMask;
    use ksa_desim::{DeviceModel, Engine, EngineParams};

    fn build(n_cores: usize, virt: VirtProfile) -> (Engine<()>, KernelInstance, Vec<CoreId>) {
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 3);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let cores: Vec<CoreId> = (0..n_cores)
            .map(|_| eng.add_core(Default::default()))
            .collect();
        let inst = KernelInstance::build(
            &mut eng,
            0,
            InstanceConfig {
                cores: cores.clone(),
                mem_mib: 256,
                virt,
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        );
        (eng, inst, cores)
    }

    #[test]
    fn cpu_ops_merge_into_single_delay() {
        let (_e, inst, cores) = build(2, VirtProfile::native());
        let mut seq = OpSeq::new();
        seq.cpu(100);
        seq.push(KOp::MemTouch(50));
        let r = OpRunner::new(&seq, &inst, cores[0]);
        assert_eq!(r.len(), 1, "adjacent delays merge");
        assert_eq!(r.total_delay(), 150);
    }

    #[test]
    fn virt_scales_cpu_and_exits() {
        let (_e, native, cores) = build(2, VirtProfile::native());
        let (_e2, kvm, kcores) = build(2, VirtProfile::kvm());
        let mut seq = OpSeq::new();
        seq.cpu(1000);
        seq.push(KOp::MemTouch(1000));
        seq.push(KOp::VmExit(VmExitKind::IoKick));
        let rn = OpRunner::new(&seq, &native, cores[0]);
        let rk = OpRunner::new(&seq, &kvm, kcores[0]);
        assert_eq!(rn.total_delay(), 2000);
        let kvm_profile = VirtProfile::kvm();
        let expected =
            kvm_profile.scale_cpu(1000) + kvm_profile.scale_mem(1000) + kvm_profile.exit_io_kick;
        assert_eq!(rk.total_delay(), expected);
        assert!(rk.total_delay() > rn.total_delay());
    }

    #[test]
    fn tlb_targets_exclude_self_and_scale_with_instance() {
        let mut seq = OpSeq::new();
        seq.push(KOp::Tlb { pages: 16 });

        let (_e, uni, ucores) = build(1, VirtProfile::native());
        let r1 = OpRunner::new(&seq, &uni, ucores[0]);
        assert_eq!(r1.ipi_count(), 0, "uniprocessor: no broadcast");

        let (_e2, big, bcores) = build(8, VirtProfile::native());
        let r8 = OpRunner::new(&seq, &big, bcores[3]);
        assert_eq!(r8.ipi_count(), 1);
    }

    #[test]
    fn unlock_is_nonblocking() {
        let (mut eng, inst, cores) = build(1, VirtProfile::native());
        let mut seq = OpSeq::new();
        seq.locked(inst.locks.zone, ksa_desim::LockMode::Exclusive, |s| {
            s.cpu(100)
        });

        struct Runner {
            r: OpRunner,
        }
        impl ksa_desim::Process<()> for Runner {
            fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _w: ksa_desim::WakeReason) -> Effect {
                self.r.step(ctx).unwrap_or(Effect::Done)
            }
        }
        let r = OpRunner::new(&seq, &inst, cores[0]);
        eng.spawn(cores[0], Box::new(Runner { r }), 0);
        let res = eng.run().unwrap();
        assert!(res.clock >= 100);
    }

    #[test]
    fn executor_traces_each_exit_once() {
        use crate::world::KernelWorld;
        use ksa_desim::{Process, TraceConfig, TraceEventKind, WakeReason};

        // Three guest syscalls split by sleeps: the armed sequence blocks
        // five times, and each call's exit is traced once, at arm time.
        struct Caller(Executor);
        impl Process<KernelWorld> for Caller {
            fn resume(&mut self, ctx: &mut SimCtx<'_, KernelWorld>, wake: WakeReason) -> Effect {
                if matches!(wake, WakeReason::Start) {
                    let mut c = self.0.compile(ctx);
                    c.call(SysNo::Getpid, &[]);
                    for _ in 0..2 {
                        c.seq().push(KOp::SleepNs(1_000));
                        c.call(SysNo::Getpid, &[]);
                    }
                    c.arm();
                    assert_eq!(self.0.runner.len(), 5);
                }
                self.0.step(ctx).unwrap_or(Effect::Done)
            }
        }
        let mut eng = Engine::new(KernelWorld::new(), EngineParams::default(), 3);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let core = eng.add_core(Default::default());
        let inst = KernelInstance::build(
            &mut eng,
            0,
            InstanceConfig {
                cores: vec![core],
                mem_mib: 256,
                virt: VirtProfile::kvm(),
                tenancy: TenancyProfile::none(),
                cost: CostModel::default(),
                disk,
                spec: SpecMask::full(),
            },
        );
        eng.world_mut().push_instance(inst);
        eng.set_trace(TraceConfig::enabled());
        eng.spawn(core, Box::new(Caller(Executor::new(core, 0, 0, 7))), 0);
        let res = eng.run().unwrap();
        assert!(res.clock >= 2_000);
        let trace = eng.take_trace();
        let exits: Vec<&str> = trace
            .merged()
            .into_iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::VmExit { kind, .. } => Some(trace.label(kind)),
                _ => None,
            })
            .collect();
        assert_eq!(exits, ["guest_syscall"; 3]);
    }
}
