//! The virtualization overhead model on/off.
//!
//! Separates the isolation *benefit* (separate kernel instances) from
//! the virtualization *cost* (exits, nested paging): the same per-core
//! VM sweep runs with the KVM overhead profile and with a "free
//! hypervisor" whose profile is zeroed after environment construction.
//! The cost is real, so the free hypervisor's median-of-site-medians
//! must come in below KVM's.

use crate::{Gates, MACHINE};
use ksa_bench::Cli;
use ksa_core::experiments::{default_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec};
use ksa_kernel::instance::VirtProfile;
use ksa_varbench::{run_hooked, RunConfig};

pub fn run(_: &Cli, gates: &mut Gates) {
    let corpus = default_corpus(Scale::Tiny).corpus;
    let cfg = RunConfig::new(EnvSpec::new(MACHINE, EnvKind::Vm(8)), 6, 9);
    let median = |free_hypervisor: bool| {
        let mut res = run_hooked(&cfg, &corpus, |engine| {
            if free_hypervisor {
                for inst in &mut engine.world_mut().instances {
                    inst.virt = VirtProfile::native();
                }
            }
        })
        .expect("trial failed");
        let mut v = res.per_site(None, |s| s.median());
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (kvm, free) = (median(false), median(true));
    eprintln!(
        "median-of-site-medians: kvm={kvm}ns free-hypervisor={free}ns (the gap is the bounded virtualization cost)"
    );
    gates.check(
        "cost/free-hypervisor-below-kvm",
        free < kvm,
        format!("free-hypervisor median-of-site-medians {free}ns < kvm {kvm}ns"),
    );
}
