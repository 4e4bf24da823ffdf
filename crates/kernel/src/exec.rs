//! Replaying compiled op sequences on the event engine.
//!
//! [`OpRunner`] lowers an [`OpSeq`] into engine effects, applying the
//! instance's virtualization profile: CPU work is scaled by the
//! nested-paging multipliers, `VmExit` ops become bounded delays (zero on
//! bare metal), and `Tlb` ops expand into a local flush, per-target exit
//! costs (vCPU kicks) and an IPI broadcast to the instance's *other*
//! cores.

use ksa_desim::{CoreId, Effect, LockId, Ns, SimCtx};

use crate::instance::KernelInstance;
use crate::ops::{KOp, OpSeq, VmExitKind};

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
    pub fn trace_exits<W>(&self, ctx: &mut SimCtx<'_, W>) {
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

    /// True once every step has been issued.
    pub fn finished(&self) -> bool {
        self.at >= self.steps.len()
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
}
