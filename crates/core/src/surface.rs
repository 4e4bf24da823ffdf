//! The kernel surface area: the paper's central parameter.

use ksa_envsim::EnvSpec;

/// The kernel surface area of one OS instance: for each hardware
/// resource, how much of it this kernel manages. The paper's
/// simplification — cores and memory — is what the simulator varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelSurfaceArea {
    /// Hardware threads managed by the instance.
    pub cores: usize,
    /// Memory managed by the instance, in MiB.
    pub mem_mib: u64,
}

impl KernelSurfaceArea {
    /// Surface of each instance in an environment.
    pub fn of(spec: &EnvSpec) -> Self {
        let (cores, mem_mib) = spec.surface();
        Self { cores, mem_mib }
    }

    /// A scalar used for ordering/correlation: the geometric mean of the
    /// normalized core and memory dimensions (pages per 4 MiB keep both
    /// dimensions comparable).
    pub fn scalar(&self) -> f64 {
        let mem_units = (self.mem_mib / 4).max(1) as f64;
        (self.cores as f64 * mem_units).sqrt()
    }
}

impl std::fmt::Display for KernelSurfaceArea {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} cores / {} MiB", self.cores, self.mem_mib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_envsim::{EnvKind, Machine};

    #[test]
    fn surface_shrinks_with_vm_count() {
        let machine = Machine::epyc_64();
        let native = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Native));
        let vm8 = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Vm(8)));
        let vm64 = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Vm(64)));
        assert!(native.scalar() > vm8.scalar());
        assert!(vm8.scalar() > vm64.scalar());
        assert!((vm8.scalar() / native.scalar() - 1.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn containers_keep_full_surface() {
        let machine = Machine::epyc_64();
        let native = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Native));
        let docker = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Container(64)));
        assert_eq!(native, docker);
    }

    #[test]
    fn display_is_readable() {
        let s = KernelSurfaceArea {
            cores: 4,
            mem_mib: 2048,
        };
        assert_eq!(s.to_string(), "4 cores / 2048 MiB");
    }
}
