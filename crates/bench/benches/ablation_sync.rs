//! Ablation: barrier synchronization on/off.
//!
//! The paper argues fine-grained synchronization is what exposes latent
//! contention. This bench measures the same corpus with and without the
//! global program barrier and reports how much measured tail collapses
//! without it.

use ksa_bench::microbench;
use ksa_core::experiments::{default_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_varbench::{run_hooked, RunConfig};

fn main() {
    let corpus = default_corpus(Scale::Tiny).corpus;
    let machine = Machine {
        cores: 8,
        mem_mib: 4096,
    };
    let group = microbench::group("ablation_sync").sample_size(10);
    for sync in [true, false] {
        group.bench(if sync { "synced" } else { "unsynced" }, || {
            run_hooked(
                &RunConfig {
                    env: EnvSpec::new(machine, EnvKind::Native),
                    iterations: 4,
                    sync,
                    seed: 3,
                    max_events: 0,
                    trace: false,
                    metrics: false,
                    spec: None,
                },
                &corpus,
                |_| {},
            )
        });
    }

    // Report the measurement-quality difference once.
    let mut stats = Vec::new();
    for sync in [true, false] {
        let mut res = run_hooked(
            &RunConfig {
                env: EnvSpec::new(machine, EnvKind::Native),
                iterations: 8,
                sync,
                seed: 3,
                max_events: 0,
                trace: false,
                metrics: false,
                spec: None,
            },
            &corpus,
            |_| {},
        )
        .expect("trial failed");
        let p99s = res.per_site(None, |s| s.p99());
        let mut sorted = p99s.clone();
        sorted.sort_unstable();
        stats.push((sync, sorted[sorted.len() / 2], *sorted.last().unwrap()));
    }
    for (sync, med, max) in stats {
        eprintln!(
            "sync={}: median-of-site-p99s={}ns worst-site-p99={}ns",
            sync, med, max
        );
    }
}
