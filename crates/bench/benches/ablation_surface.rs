//! Ablation: which surface-area dimension matters per subsystem.
//!
//! Varies cores-only (same memory per instance) against the paper's
//! proportional sweep, reporting memory-management versus filesystem
//! tails. Times the simulation and prints the shape summary once.

use ksa_bench::microbench;
use ksa_core::experiments::{default_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::Category;
use ksa_varbench::{run_hooked, RunConfig};

fn tail(res: &mut ksa_varbench::RunResult, cat: Category) -> u64 {
    let mut p99s = res.per_site(Some(cat), |s| s.p99());
    p99s.sort_unstable();
    p99s.get(p99s.len() / 2).copied().unwrap_or(0)
}

fn main() {
    let corpus = default_corpus(Scale::Tiny).corpus;
    let group = microbench::group("ablation_surface").sample_size(10);

    // Proportional sweep (cores and memory shrink together) vs a
    // memory-rich sweep (cores shrink, memory constant per instance).
    for (label, mem_mib) in [("proportional", 4096u64), ("memory_rich", 16_384)] {
        group.bench(label, || {
            run_hooked(
                &RunConfig {
                    env: EnvSpec::new(Machine { cores: 8, mem_mib }, EnvKind::Vm(8)),
                    iterations: 4,
                    sync: true,
                    seed: 5,
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

    for (label, mem) in [("proportional-4G", 4096u64), ("memory-rich-16G", 16_384)] {
        let mut res = run_hooked(
            &RunConfig {
                env: EnvSpec::new(
                    Machine {
                        cores: 8,
                        mem_mib: mem,
                    },
                    EnvKind::Vm(8),
                ),
                iterations: 6,
                sync: true,
                seed: 5,
                max_events: 0,
                trace: false,
                metrics: false,
                spec: None,
            },
            &corpus,
            |_| {},
        )
        .expect("trial failed");
        eprintln!(
            "{label}: mm med-p99={}ns fs med-p99={}ns io med-p99={}ns",
            tail(&mut res, Category::Memory),
            tail(&mut res, Category::Filesystem),
            tail(&mut res, Category::FileIo),
        );
    }
}
