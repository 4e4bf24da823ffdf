//! Environment specifications and the paper's configuration sweeps.

use ksa_kernel::params::CostModel;

/// The physical machine being divided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Machine {
    /// Hardware threads.
    pub cores: usize,
    /// Memory in MiB.
    pub mem_mib: u64,
}

impl Machine {
    /// The paper's system-call evaluation box: 64 hardware threads and
    /// 32 GB virtualized for the benchmark (Table 1).
    pub fn epyc_64() -> Self {
        Self {
            cores: 64,
            mem_mib: 32 * 1024,
        }
    }
}

/// How the machine's kernel surface is divided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvKind {
    /// Bare metal: one kernel, whole machine.
    Native,
    /// `n` KVM-style virtual machines, resources divided evenly.
    Vm(usize),
    /// One shared kernel hosting `n` Docker-style containers.
    Container(usize),
}

impl EnvKind {
    /// Number of kernel instances this environment creates.
    pub fn instances(self) -> usize {
        match self {
            EnvKind::Native | EnvKind::Container(_) => 1,
            EnvKind::Vm(n) => n,
        }
    }

    /// Display label matching the paper's tables.
    pub fn label(self) -> String {
        match self {
            EnvKind::Native => "Linux".to_string(),
            EnvKind::Vm(n) => format!("KVM x{n}"),
            EnvKind::Container(n) => format!("Docker x{n}"),
        }
    }
}

/// A full environment specification.
#[derive(Debug, Clone, Copy)]
pub struct EnvSpec {
    /// The machine.
    pub machine: Machine,
    /// The division.
    pub kind: EnvKind,
    /// Kernel cost model (shared by all instances).
    pub cost: CostModel,
}

impl EnvSpec {
    /// Convenience constructor with the default cost model.
    pub fn new(machine: Machine, kind: EnvKind) -> Self {
        Self {
            machine,
            kind,
            cost: CostModel::default(),
        }
    }

    /// Per-instance kernel surface area: `(cores, MiB)`.
    pub fn surface(&self) -> (usize, u64) {
        let n = self.kind.instances();
        (self.machine.cores / n, self.machine.mem_mib / n as u64)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepRow {
    /// Number of VMs (or containers).
    pub count: usize,
    /// Cores per instance.
    pub cores_per: usize,
    /// Memory per instance in MiB.
    pub mib_per: u64,
}

/// Table 1: the VM configuration ladder over a machine.
pub fn vm_sweep(machine: Machine) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    let mut n = 1;
    while n <= machine.cores {
        rows.push(SweepRow {
            count: n,
            cores_per: machine.cores / n,
            mib_per: machine.mem_mib / n as u64,
        });
        n *= 2;
    }
    rows
}

/// The analogous container ladder (Section 5.2 / Table 3).
pub fn container_sweep(machine: Machine) -> Vec<SweepRow> {
    vm_sweep(machine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = vm_sweep(Machine::epyc_64());
        assert_eq!(rows.len(), 7);
        let counts: Vec<usize> = rows.iter().map(|r| r.count).collect();
        assert_eq!(counts, vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(rows[0].cores_per, 64);
        assert_eq!(rows[0].mib_per, 32 * 1024);
        assert_eq!(rows[6].cores_per, 1);
        assert_eq!(rows[6].mib_per, 512, "64 VMs get 512 MiB each");
        // Total resources constant across the sweep.
        for r in &rows {
            assert_eq!(r.count * r.cores_per, 64);
            assert_eq!(r.count as u64 * r.mib_per, 32 * 1024);
        }
    }

    #[test]
    fn env_kind_instances() {
        assert_eq!(EnvKind::Native.instances(), 1);
        assert_eq!(EnvKind::Vm(8).instances(), 8);
        assert_eq!(EnvKind::Container(64).instances(), 1);
    }

    #[test]
    fn surface_divides_by_instances() {
        let spec = EnvSpec::new(Machine::epyc_64(), EnvKind::Vm(16));
        assert_eq!(spec.surface(), (4, 2048));
        let native = EnvSpec::new(Machine::epyc_64(), EnvKind::Native);
        assert_eq!(native.surface(), (64, 32 * 1024));
        let docker = EnvSpec::new(Machine::epyc_64(), EnvKind::Container(64));
        assert_eq!(
            docker.surface(),
            (64, 32 * 1024),
            "containers do not shrink the kernel surface"
        );
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(EnvKind::Native.label(), "Linux");
        assert_eq!(EnvKind::Vm(64).label(), "KVM x64");
        assert_eq!(EnvKind::Container(4).label(), "Docker x4");
    }
}
