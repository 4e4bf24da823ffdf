//! The kernel world: every kernel instance in the environment plus the
//! core → instance mapping.

use ksa_desim::{CoreId, LatSnapshot, Ns};

use crate::instance::KernelInstance;
use crate::latency::{Attribution, AttributionTable};
use crate::syscalls::SysNo;
use crate::telemetry::KernelTelemetry;

/// All kernel instances in one simulated machine.
#[derive(Debug, Default)]
pub struct KernelWorld {
    /// The instances (native: one; k VMs: k).
    pub instances: Vec<KernelInstance>,
    /// `core_owner[core.index()]` = index of the owning instance.
    pub core_owner: Vec<usize>,
    /// Per-syscall latency attribution accumulated by the executors;
    /// the harness drains it (`std::mem::take`) after the run.
    pub attrib: AttributionTable,
    /// Kernel telemetry (inert by default); the harness installs an
    /// enabled facade before the run and drains it afterwards.
    pub metrics: KernelTelemetry,
}

impl KernelWorld {
    /// Creates an empty world.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an instance, recording core ownership.
    pub fn push_instance(&mut self, inst: KernelInstance) {
        let idx = self.instances.len();
        for core in &inst.cores {
            let i = core.index();
            if i >= self.core_owner.len() {
                self.core_owner.resize(i + 1, usize::MAX);
            }
            assert_eq!(
                self.core_owner[i],
                usize::MAX,
                "core {i} already owned by another instance"
            );
            self.core_owner[i] = idx;
        }
        self.instances.push(inst);
    }

    /// The instance owning `core`.
    pub fn instance_of(&self, core: CoreId) -> usize {
        self.core_owner[core.index()]
    }

    /// `(instance index, slot within instance)` for a core.
    pub fn locate(&self, core: CoreId) -> (usize, usize) {
        let idx = self.instance_of(core);
        let slot = self.instances[idx]
            .slot_of(core)
            .expect("core owner mapping out of sync");
        (idx, slot)
    }

    /// Records one completed syscall in both the attribution table and
    /// the telemetry counters, and takes a coalesced gauge sample when
    /// one is due. The single entry point keeps the two views in exact
    /// agreement: telemetry per-category sums equal the table's because
    /// both see the same [`Attribution`] under the same category rule.
    pub fn observe_syscall(
        &mut self,
        no: SysNo,
        before: &LatSnapshot,
        after: &LatSnapshot,
        vm_exit: Ns,
        now: Ns,
    ) -> Attribution {
        let attrib = self.attrib.record(no, before, after, vm_exit);
        if self.metrics.enabled() {
            self.metrics.observe_call(no, &attrib);
            if self.metrics.due(now) {
                self.metrics.sample(now, &self.instances);
            }
        }
        attrib
    }
}

/// Worlds that embed a [`KernelWorld`] (e.g. the tailbench world adds
/// request queues next to it). The syscall executor is generic over this.
pub trait HasKernel {
    /// Immutable kernel access.
    fn kernel(&self) -> &KernelWorld;
    /// Mutable kernel access.
    fn kernel_mut(&mut self) -> &mut KernelWorld;
}

impl HasKernel for KernelWorld {
    fn kernel(&self) -> &KernelWorld {
        self
    }
    fn kernel_mut(&mut self) -> &mut KernelWorld {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{InstanceConfig, TenancyProfile, VirtProfile};
    use crate::params::CostModel;
    use crate::spec::SpecMask;
    use ksa_desim::{DeviceModel, Engine, EngineParams};

    fn build_world(splits: &[usize]) -> KernelWorld {
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 1);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let mut world = KernelWorld::new();
        for (i, &n) in splits.iter().enumerate() {
            let cores: Vec<_> = (0..n).map(|_| eng.add_core(Default::default())).collect();
            let inst = KernelInstance::build(
                &mut eng,
                i,
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
            world.push_instance(inst);
        }
        world
    }

    #[test]
    fn locate_maps_cores_to_slots() {
        let w = build_world(&[2, 3]);
        assert_eq!(w.locate(CoreId(0)), (0, 0));
        assert_eq!(w.locate(CoreId(1)), (0, 1));
        assert_eq!(w.locate(CoreId(2)), (1, 0));
        assert_eq!(w.locate(CoreId(4)), (1, 2));
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_ownership_panics() {
        let mut eng: Engine<()> = Engine::new((), EngineParams::default(), 1);
        let disk = eng.add_device(DeviceModel::nvme_ssd());
        let core = eng.add_core(Default::default());
        let mk = |eng: &mut Engine<()>, idx| {
            KernelInstance::build(
                eng,
                idx,
                InstanceConfig {
                    cores: vec![core],
                    mem_mib: 64,
                    virt: VirtProfile::native(),
                    tenancy: TenancyProfile::none(),
                    cost: CostModel::default(),
                    disk,
                    spec: SpecMask::full(),
                },
            )
        };
        let a = mk(&mut eng, 0);
        let b = mk(&mut eng, 1);
        let mut w = KernelWorld::new();
        w.push_instance(a);
        w.push_instance(b);
    }
}
