//! Ablation: the networking surface area (the seventh Figure 2 row).
//!
//! Runs a networking-heavy corpus across the VM sweep on one machine
//! under barrier sync. A shared kernel funnels every core through one
//! softirq path, one NIC ring set, and one socket/port table, so
//! Network-category tails grow with the surface area; per-core VMs
//! carry the virtio exit tax instead but bound the tail. The bench
//! asserts that ordering and prints the lock-contention attribution
//! (softirq / nic_queue / sock_bucket labels).

use ksa_bench::microbench;
use ksa_core::experiments::{net_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::Category;
use ksa_varbench::{run_hooked, RunConfig, RunResult};

const MACHINE: Machine = Machine {
    cores: 8,
    mem_mib: 4 * 1024,
};

fn trial(corpus: &ksa_kernel::prog::Corpus, kind: EnvKind) -> RunResult {
    run_hooked(
        &RunConfig {
            env: EnvSpec::new(MACHINE, kind),
            iterations: 6,
            sync: true,
            seed: 17,
            max_events: 0,
            trace: false,
            metrics: false,
            spec: None,
        },
        corpus,
        |_| {},
    )
    .expect("ablation_net trial failed")
}

/// Median and worst per-site p99 over the Network category.
fn net_tail(res: &mut RunResult) -> (u64, u64) {
    let mut p99s = res.per_site(Some(Category::Network), |s| s.p99());
    p99s.sort_unstable();
    let med = p99s.get(p99s.len() / 2).copied().unwrap_or(0);
    let max = p99s.last().copied().unwrap_or(0);
    (med, max)
}

fn main() {
    let corpus = net_corpus(Scale::Tiny);
    let group = microbench::group("ablation_net").sample_size(5);

    for (label, kind) in [
        ("shared_vm1", EnvKind::Vm(1)),
        ("percore_vm8", EnvKind::Vm(8)),
    ] {
        group.bench(label, || trial(&corpus, kind));
    }

    // The surface-area claim, checked once across the sweep: the shared
    // kernel's Network tail must not beat the per-core split's.
    let mut tails = Vec::new();
    for count in [1usize, 2, 4, 8] {
        let mut res = trial(&corpus, EnvKind::Vm(count));
        let (med, max) = net_tail(&mut res);
        eprintln!(
            "Vm({count}): net med-p99={med}ns max-p99={max}ns over {} sites",
            res.per_site(Some(Category::Network), |s| s.p99()).len()
        );
        tails.push((count, med, max));
    }
    let shared = tails[0];
    let split = tails[tails.len() - 1];
    assert!(
        shared.1 >= split.1,
        "shared-kernel Network median p99 ({}) must be >= per-core VMs' ({})",
        shared.1,
        split.1
    );

    // Contention attribution: the shared run's hotspots must include the
    // networking locks the new subsystem introduced.
    let res = trial(&corpus, EnvKind::Vm(1));
    let hot = res.contention.render();
    for label in ["softirq", "nic_queue", "sock_bucket"] {
        assert!(
            res.contention.by_label.contains_key(label),
            "shared trial should exercise the {label} lock; hotspots:\n{hot}"
        );
    }
    eprintln!("shared-kernel lock contention:\n{hot}");
}
