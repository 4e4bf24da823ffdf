//! Materializing an environment on a discrete-event engine.

use ksa_desim::{CoreConfig, CoreId, DeviceModel, Engine, Ns, US};
use ksa_kernel::daemons::spawn_daemons;
use ksa_kernel::instance::{InstanceConfig, KernelInstance, TenancyProfile, VirtProfile};
use ksa_kernel::spec::SpecMask;
use ksa_kernel::world::HasKernel;

use crate::spec::{EnvKind, EnvSpec};

/// Handles to a built environment.
#[derive(Debug, Clone)]
pub struct BuiltEnv {
    /// All machine cores, in instance order.
    pub cores: Vec<CoreId>,
    /// Instance index per core (parallel to `cores`).
    pub instance_of: Vec<usize>,
    /// Number of kernel instances.
    pub instances: usize,
}

/// Native timer-interrupt cost.
const NATIVE_TICK_COST: Ns = 3 * US / 2;
/// Guest timer-interrupt cost (timer exits).
const GUEST_TICK_COST: Ns = 3 * US;

/// Builds `spec` on `engine`: adds cores, partitions them into kernel
/// instances, registers the shared host disk, and spawns each instance's
/// daemons. Returns the core handles.
///
/// `mask` is an optional specialization mask applied to every instance.
/// `None` (and `Some(SpecMask::full())`) build the unspecialized kernel
/// bit-identically; a narrower mask gates each instance's daemons and
/// lock footprint at construction.
pub fn build_env_with<W: HasKernel + 'static>(
    engine: &mut Engine<W>,
    spec: &EnvSpec,
    seed: u64,
    mask: Option<SpecMask>,
) -> BuiltEnv {
    let n_inst = spec.kind.instances();
    assert!(
        spec.machine.cores.is_multiple_of(n_inst),
        "cores ({}) must divide evenly into {} instances",
        spec.machine.cores,
        n_inst
    );
    let (cores_per, mib_per) = spec.surface();
    let virt = match spec.kind {
        EnvKind::Vm(_) => VirtProfile::kvm(),
        _ => VirtProfile::native(),
    };
    let tick_cost = if virt.enabled {
        GUEST_TICK_COST
    } else {
        NATIVE_TICK_COST
    };
    let tenancy = match spec.kind {
        EnvKind::Container(n) => TenancyProfile::containers(n as u32),
        _ => TenancyProfile::none(),
    };

    // One host disk shared by every instance: VMs get virtio front-ends
    // to the same media, containers share the host block layer.
    let disk = engine.add_device(DeviceModel::nvme_ssd());
    let mut all_cores = Vec::with_capacity(spec.machine.cores);
    let mut instance_of = Vec::with_capacity(spec.machine.cores);
    for inst_idx in 0..n_inst {
        let cores: Vec<CoreId> = (0..cores_per)
            .map(|_| {
                engine.add_core(CoreConfig {
                    tick_period: ksa_desim::MS,
                    tick_cost,
                })
            })
            .collect();
        all_cores.extend(cores.iter().copied());
        instance_of.extend(std::iter::repeat_n(inst_idx, cores_per));
        let inst = KernelInstance::build(
            engine,
            inst_idx,
            InstanceConfig {
                cores,
                mem_mib: mib_per,
                virt,
                tenancy,
                cost: spec.cost,
                disk,
                spec: mask.unwrap_or_default(),
            },
        );
        let mut inst = inst;
        if let EnvKind::Container(n) = spec.kind {
            // Every container image contributes rootfs layers to the
            // shared dentry/inode caches (hash-chain pressure scales
            // with tenant count — Table 3's mechanism).
            inst.state.fs.dentries += 2_000 * n as u64;
            // Containers share one host network stack: every tenant adds
            // netfilter/conntrack chain hops to each packet's path. VMs
            // pay virtio exits instead (see CostModel::exit_io_kick).
            inst.state.net.stack_extra_ns = 120 * n as u64;
        }
        engine.world_mut().kernel_mut().push_instance(inst);
    }
    for inst_idx in 0..n_inst {
        spawn_daemons(engine, inst_idx, seed.wrapping_add(inst_idx as u64 * 7919));
    }
    BuiltEnv {
        cores: all_cores,
        instance_of,
        instances: n_inst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Machine;
    use ksa_desim::EngineParams;
    use ksa_kernel::world::KernelWorld;

    fn engine() -> Engine<KernelWorld> {
        Engine::new(KernelWorld::new(), EngineParams::default(), 7)
    }

    #[test]
    fn native_builds_one_instance() {
        let mut eng = engine();
        let spec = EnvSpec::new(
            Machine {
                cores: 8,
                mem_mib: 1024,
            },
            EnvKind::Native,
        );
        let built = build_env_with(&mut eng, &spec, 1, None);
        assert_eq!(built.cores.len(), 8);
        assert_eq!(built.instances, 1);
        let w = eng.world().kernel();
        assert_eq!(w.instances.len(), 1);
        assert_eq!(w.instances[0].n_cores(), 8);
        assert!(!w.instances[0].virt.enabled);
        assert_eq!(w.instances[0].tenancy.containers, 0);
    }

    #[test]
    fn vm_sweep_divides_surface() {
        for n in [1usize, 2, 4, 8] {
            let mut eng = engine();
            let spec = EnvSpec::new(
                Machine {
                    cores: 8,
                    mem_mib: 4096,
                },
                EnvKind::Vm(n),
            );
            let built = build_env_with(&mut eng, &spec, 1, None);
            let w = eng.world().kernel();
            assert_eq!(w.instances.len(), n);
            assert_eq!(built.instances, n);
            for inst in &w.instances {
                assert_eq!(inst.n_cores(), 8 / n);
                assert_eq!(inst.mem_pages, (4096 / n as u64) * 256);
                assert!(inst.virt.enabled);
            }
            // Every core maps to exactly one instance.
            for (i, &c) in built.cores.iter().enumerate() {
                assert_eq!(w.instance_of(c), built.instance_of[i]);
            }
        }
    }

    #[test]
    fn containers_share_one_kernel() {
        let mut eng = engine();
        let spec = EnvSpec::new(
            Machine {
                cores: 4,
                mem_mib: 512,
            },
            EnvKind::Container(16),
        );
        build_env_with(&mut eng, &spec, 1, None);
        let w = eng.world().kernel();
        assert_eq!(w.instances.len(), 1);
        assert_eq!(w.instances[0].tenancy.containers, 16);
        assert!(!w.instances[0].virt.enabled);
    }

    #[test]
    fn specialized_env_gates_daemons_and_locks() {
        use ksa_kernel::SysNo;
        let build = |mask: Option<SpecMask>| {
            let mut eng = engine();
            let spec = EnvSpec::new(
                Machine {
                    cores: 4,
                    mem_mib: 1024,
                },
                EnvKind::Vm(2),
            );
            build_env_with(&mut eng, &spec, 1, mask);
            let w = eng.world().kernel();
            (
                w.instances[0].daemons_spawned,
                w.instances[0].locks_allocated,
            )
        };
        let (full_d, full_l) = build(None);
        assert_eq!(full_d, 5);
        // A network-only profile: no flusher/kswapd/lb/vmstat, and the
        // sched/mm/fs/ipc/perm lock groups collapse onto the stub.
        let mask = ksa_kernel::spec::SpecMask::empty()
            .allow(SysNo::Socket)
            .allow(SysNo::Sendto);
        let (spec_d, spec_l) = build(Some(mask));
        assert_eq!(spec_d, 1);
        assert!(spec_l < full_l, "{spec_l} locks not < {full_l}");
        // The explicit full mask is the unspecialized build.
        assert_eq!(build(Some(SpecMask::full())), (full_d, full_l));
    }

    #[test]
    fn daemons_run_without_users() {
        // An environment with daemons but no user processes must not
        // stall the engine (run_until with a deadline returns cleanly).
        let mut eng = engine();
        let spec = EnvSpec::new(
            Machine {
                cores: 2,
                mem_mib: 256,
            },
            EnvKind::Native,
        );
        build_env_with(&mut eng, &spec, 1, None);
        // No user processes: run() exits immediately (live_users == 0).
        let res = eng.run().unwrap();
        assert_eq!(res.clock, 0);
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_division_is_rejected() {
        let mut eng = engine();
        let spec = EnvSpec::new(
            Machine {
                cores: 6,
                mem_mib: 512,
            },
            EnvKind::Vm(4),
        );
        build_env_with(&mut eng, &spec, 1, None);
    }
}
