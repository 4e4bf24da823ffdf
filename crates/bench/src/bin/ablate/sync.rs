//! Barrier synchronization on/off.
//!
//! The paper argues fine-grained synchronization is what exposes latent
//! contention. The same corpus runs natively with and without the
//! global program barrier; the synced worst-site p99 must not fall
//! below the unsynced one.

use crate::{p99_spread, Gates, MACHINE};
use ksa_bench::Cli;
use ksa_core::experiments::{default_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec};
use ksa_varbench::{run_hooked, RunConfig};

pub fn run(_: &Cli, gates: &mut Gates) {
    let corpus = default_corpus(Scale::Tiny).corpus;
    let mut worst = Vec::new();
    for sync in [true, false] {
        let cfg = RunConfig {
            sync,
            ..RunConfig::new(EnvSpec::new(MACHINE, EnvKind::Native), 8, 3)
        };
        let mut res = run_hooked(&cfg, &corpus, |_| {}).expect("trial failed");
        let (med, max) = p99_spread(&mut res, None);
        eprintln!("sync={sync}: median-of-site-p99s={med}ns worst-site-p99={max}ns");
        worst.push(max);
    }
    gates.check(
        "tail/sync-exposes-contention",
        worst[0] >= worst[1],
        format!(
            "synced worst-site p99 {}ns >= unsynced {}ns",
            worst[0], worst[1]
        ),
    );
}
