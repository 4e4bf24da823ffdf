//! The networking surface area (the seventh Figure 2 row).
//!
//! A networking-heavy corpus runs across the VM sweep on one machine
//! under barrier sync. A shared kernel funnels every core through one
//! softirq path, one NIC ring set, and one socket/port table, so
//! Network-category tails grow with the surface area; per-core VMs
//! carry the virtio exit tax instead but bound the tail. Gated on that
//! ordering and on the shared run exercising the networking locks
//! (softirq / nic_queue / sock_bucket).

use crate::{net_trial, p99_spread, Gates};
use ksa_bench::Cli;
use ksa_core::experiments::{net_corpus, Scale};
use ksa_envsim::EnvKind;
use ksa_kernel::Category;

pub fn run(_: &Cli, gates: &mut Gates) {
    let corpus = net_corpus(Scale::Tiny);
    let mut tails = Vec::new();
    for count in [1usize, 2, 4, 8] {
        let mut res = net_trial(&corpus, EnvKind::Vm(count), 17, false);
        let (med, max) = p99_spread(&mut res, Some(Category::Network));
        eprintln!(
            "Vm({count}): net med-p99={med}ns max-p99={max}ns over {} sites",
            res.per_site(Some(Category::Network), |s| s.p99()).len()
        );
        tails.push(med);
    }
    gates.check(
        "tail/shared-not-below-per-core",
        tails[0] >= tails[3],
        format!(
            "shared-kernel Network median p99 {}ns >= per-core VMs' {}ns",
            tails[0], tails[3]
        ),
    );

    // Contention attribution: the shared run's hotspots must include the
    // networking locks the subsystem introduced.
    let res = net_trial(&corpus, EnvKind::Vm(1), 17, false);
    for label in ["softirq", "nic_queue", "sock_bucket"] {
        gates.check(
            &format!("contention/{label}"),
            res.contention.by_label.contains_key(label),
            format!("shared trial exercises the {label} lock"),
        );
    }
    eprintln!(
        "shared-kernel lock contention:\n{}",
        res.contention.render()
    );
}
