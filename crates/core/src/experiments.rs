//! One builder per table/figure in the paper's evaluation.
//!
//! Each function returns structured data; the `ksa-bench` binaries render
//! it as text/CSV. All builders accept a [`Scale`] so integration tests
//! can run the same code paths in seconds while the full runs regenerate
//! the paper-scale artifacts.

use ksa_cluster::{run_cluster, ClusterConfig};
use ksa_envsim::{container_sweep, vm_sweep, EnvKind, EnvSpec, Machine, SweepRow};
use ksa_kernel::latency::AttributionTable;
use ksa_kernel::prog::Corpus;
use ksa_kernel::{attribution_frames, Category};
use ksa_stats::{BucketTable, ViolinSummary};
use ksa_syzgen::{generate, GenConfig, GeneratedCorpus};
use ksa_tailbench::apps::{cluster_suite, suite, AppProfile};
use ksa_tailbench::single_node::{run_points, SingleNodeConfig};
use ksa_telemetry::export::Frame;
use ksa_telemetry::Registry;
use ksa_varbench::{run_configs, RunConfig, RunResult};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale: CI and doctests.
    Tiny,
    /// Under a minute: local smoke runs.
    Quick,
    /// The paper-shaped runs (minutes).
    Full,
}

impl Scale {
    /// Corpus generation configuration.
    pub fn corpus_cfg(self, seed: u64) -> GenConfig {
        match self {
            Scale::Tiny => GenConfig {
                seed,
                max_programs: 30,
                stall_limit: 150,
                mutate_pct: 70,
                minimize: true,
            },
            Scale::Quick => GenConfig {
                seed,
                max_programs: 80,
                stall_limit: 400,
                mutate_pct: 70,
                minimize: true,
            },
            Scale::Full => GenConfig {
                seed,
                max_programs: 240,
                stall_limit: 1_500,
                mutate_pct: 70,
                minimize: true,
            },
        }
    }

    /// The machine for the syscall studies (Tables 2–3, Figure 2).
    pub fn machine(self) -> Machine {
        match self {
            Scale::Tiny => Machine {
                cores: 8,
                mem_mib: 4 * 1024,
            },
            Scale::Quick => Machine {
                cores: 16,
                mem_mib: 8 * 1024,
            },
            Scale::Full => Machine::epyc_64(),
        }
    }

    /// Corpus iterations for the syscall studies (the paper uses 100).
    pub fn iterations(self) -> usize {
        match self {
            Scale::Tiny => 4,
            Scale::Quick => 10,
            Scale::Full => 25,
        }
    }

    /// Requests for Figure 3 runs.
    pub fn requests(self) -> u64 {
        match self {
            Scale::Tiny => 300,
            Scale::Quick => 1_200,
            Scale::Full => 3_000,
        }
    }

    /// `(nodes, iterations, requests/iter)` for Figure 4.
    pub fn cluster(self) -> (usize, u64, u64) {
        match self {
            Scale::Tiny => (6, 4, 30),
            Scale::Quick => (12, 8, 40),
            Scale::Full => (32, 25, 40),
        }
    }
}

/// Generates the default coverage-guided corpus at a scale.
pub fn default_corpus(scale: Scale) -> GeneratedCorpus {
    generate(scale.corpus_cfg(0x5eed))
}

/// A noise corpus for the tailbench experiments: generated from a pool
/// of the kernel-coupling-heavy calls (shootdowns, tasklist writers,
/// metadata/journal traffic, cred/audit updates) — the paper's noise
/// deliberately stresses the shared kernel, not the disk.
pub fn noise_corpus(scale: Scale) -> Corpus {
    use ksa_kernel::SysNo;
    use ksa_syzgen::ProgramGenerator;
    let pool = [
        SysNo::Mmap,
        SysNo::Munmap,
        SysNo::Mprotect,
        SysNo::Madvise,
        SysNo::Mremap,
        SysNo::Brk,
        SysNo::Clone,
        SysNo::Wait4,
        SysNo::Kill,
        SysNo::SchedYield,
        SysNo::SchedSetaffinity,
        SysNo::Open,
        SysNo::Unlink,
        SysNo::Rename,
        SysNo::Mkdir,
        SysNo::Chmod,
        SysNo::Setuid,
        SysNo::Capset,
        SysNo::Setgroups,
        SysNo::FutexWait,
        SysNo::FutexWake,
        SysNo::Msgsnd,
        SysNo::Msgrcv,
        SysNo::Write,
        SysNo::Sendto,
        SysNo::Recvfrom,
    ];
    let n = match scale {
        Scale::Tiny => 12,
        Scale::Quick => 18,
        Scale::Full => 28,
    };
    let mut gen = ProgramGenerator::new(0x4015e);
    Corpus {
        programs: (0..n).map(|_| gen.random_program_in(&pool)).collect(),
    }
}

/// A networking-heavy corpus for the `Category::Network` surface-area
/// study (`ablate net` and `ablate trace`): socket setup/teardown,
/// loopback traffic through the simulated stack, and epoll readiness
/// scans. Send/receive appear twice so data-path calls dominate
/// control-path ones.
pub fn net_corpus(scale: Scale) -> Corpus {
    use ksa_kernel::SysNo;
    use ksa_syzgen::ProgramGenerator;
    let pool = [
        SysNo::Socket,
        SysNo::Bind,
        SysNo::Listen,
        SysNo::Accept,
        SysNo::Connect,
        SysNo::Sendto,
        SysNo::Sendto,
        SysNo::Recvfrom,
        SysNo::Recvfrom,
        SysNo::ShutdownSock,
        SysNo::EpollCreate,
        SysNo::EpollWait,
    ];
    let n = match scale {
        Scale::Tiny => 10,
        Scale::Quick => 16,
        Scale::Full => 24,
    };
    let mut gen = ProgramGenerator::new(0x6e37);
    Corpus {
        programs: (0..n).map(|_| gen.random_program_in(&pool)).collect(),
    }
}

// ---------------------------------------------------------------- Table 1

/// Table 1: the VM configuration ladder.
pub fn table1(scale: Scale) -> Vec<SweepRow> {
    vm_sweep(scale.machine())
}

// ---------------------------------------------------------------- Table 2

/// Table 2's three sub-tables: per-site median / p99 / max bucket
/// percentages for native Linux, per-core KVM VMs and per-core Docker
/// containers.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Median breakdown.
    pub median: BucketTable,
    /// 99th-percentile breakdown.
    pub p99: BucketTable,
    /// Worst-case breakdown.
    pub max: BucketTable,
}

/// Runs Table 2: the corpus on all cores in the three headline
/// environments, trials in parallel on `jobs` pool workers (0 = auto,
/// 1 = sequential); results are identical for every count.
///
/// When `metrics` is set every trial runs with its registry enabled and
/// the returned [`Metered`] carries the merged series (labelled
/// `env=<kind>`) plus latency-taxonomy flamegraph frames. Telemetry is
/// strictly observational — the [`Table2Result`] is bit-identical
/// either way.
pub fn table2(
    corpus: &Corpus,
    scale: Scale,
    seed: u64,
    jobs: usize,
    metrics: bool,
) -> (Table2Result, Metered) {
    let machine = scale.machine();
    let kinds = [
        EnvKind::Native,
        EnvKind::Vm(machine.cores),
        EnvKind::Container(machine.cores),
    ];
    let configs: Vec<RunConfig> = kinds
        .iter()
        .map(|&kind| RunConfig {
            metrics,
            ..RunConfig::new(EnvSpec::new(machine, kind), scale.iterations(), seed)
        })
        .collect();
    let results = run_trials("table2", &configs, corpus, jobs);
    let mut median = BucketTable::new("Table 2a: median system call runtimes (cumulative %)");
    let mut p99 = BucketTable::new("Table 2b: 99th percentile system call runtimes (cumulative %)");
    let mut max = BucketTable::new("Table 2c: worst-case system call runtimes (cumulative %)");
    let mut metered = Metered::default();
    for (kind, mut res) in kinds.into_iter().zip(results) {
        let meds = res.per_site(None, |s| s.median());
        let p99s = res.per_site(None, |s| s.p99());
        let maxes = res.per_site(None, |s| s.max());
        metered.fold_trial(&[("env", &kind.label())], &res.metrics, &res.attrib);
        median.push_values(kind.label(), &meds);
        p99.push_values(kind.label(), &p99s);
        max.push_values(kind.label(), &maxes);
    }
    metered.finish();
    (Table2Result { median, p99, max }, metered)
}

/// Telemetry captured alongside an experiment when it runs with
/// `metrics` on: the trials' registries merged under
/// distinguishing labels, plus flamegraph frames folded from the
/// aggregated 13-component latency taxonomy (see
/// [`ksa_kernel::attribution_frames`]). Empty/disabled when metrics
/// were off.
#[derive(Debug, Clone, Default)]
pub struct Metered {
    /// Merged telemetry across trials.
    pub registry: Registry,
    /// `category;component` stacks weighted in nanoseconds.
    pub frames: Vec<Frame>,
    attrib: AttributionTable,
}

impl Metered {
    /// Absorbs one trial's registry under `labels` and accumulates its
    /// attribution table for the frame fold.
    fn fold_trial(&mut self, labels: &[(&str, &str)], reg: &Registry, attrib: &AttributionTable) {
        self.registry.absorb(reg, labels);
        self.attrib.merge(attrib);
    }

    /// Folds the accumulated attribution into `frames`.
    fn finish(&mut self) {
        self.frames = attribution_frames(&self.attrib);
    }
}

/// Runs a campaign on `jobs` pool workers where every trial is expected
/// to complete, panicking with the experiment name and trial index
/// otherwise.
fn run_trials(what: &str, configs: &[RunConfig], corpus: &Corpus, jobs: usize) -> Vec<RunResult> {
    run_configs(configs, corpus, jobs, &|_, _| {})
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("{what} trial {i} failed: {e}")))
        .collect()
}

// ---------------------------------------------------------------- Figure 2

/// One subfigure of Figure 2: a category plus one violin per VM count.
#[derive(Debug, Clone)]
pub struct Fig2Category {
    /// The syscall category.
    pub category: Category,
    /// One violin per VM configuration, in sweep order.
    pub violins: Vec<ViolinSummary>,
}

/// Figure 2: distributions of per-site p99s by category across the VM
/// sweep.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// VM counts, left to right.
    pub vm_counts: Vec<usize>,
    /// The six subfigures.
    pub categories: Vec<Fig2Category>,
}

/// Runs Figure 2. Sites are filtered to those with native medians of at
/// least 10µs, as in the paper (shorter ones are mostly the tiny mmaps
/// feeding other calls and show no trend). The native filter run and
/// the whole VM sweep go through the pool as one batch on `jobs`
/// workers. Telemetry labels: `env=<kind>`; see [`table2`] for the
/// `jobs`/`metrics` contract.
pub fn fig2(
    corpus: &Corpus,
    scale: Scale,
    seed: u64,
    jobs: usize,
    metrics: bool,
) -> (Fig2Result, Metered) {
    let machine = scale.machine();
    let sweep = vm_sweep(machine);
    // One batch: the native run (which decides the site filter) plus
    // every VM-sweep point.
    let mut configs = vec![RunConfig {
        metrics,
        ..RunConfig::new(
            EnvSpec::new(machine, EnvKind::Native),
            scale.iterations(),
            seed,
        )
    }];
    configs.extend(sweep.iter().map(|row| RunConfig {
        metrics,
        ..RunConfig::new(
            EnvSpec::new(machine, EnvKind::Vm(row.count)),
            scale.iterations(),
            seed,
        )
    }));
    let mut results = run_trials("fig2", &configs, corpus, jobs).into_iter();
    let mut metered = Metered::default();
    let mut native = results.next().expect("fig2 native trial missing");
    metered.fold_trial(
        &[("env", &native.config.env.kind.label())],
        &native.metrics,
        &native.attrib,
    );
    let keep: Vec<bool> = native
        .sites
        .iter_mut()
        .map(|s| s.samples.median().unwrap_or(0) >= 10_000)
        .collect();
    let per_config: Vec<RunResult> = results.collect();
    for res in &per_config {
        metered.fold_trial(
            &[("env", &res.config.env.kind.label())],
            &res.metrics,
            &res.attrib,
        );
    }
    metered.finish();
    let mut per_config = per_config;

    let mut categories = Vec::new();
    for cat in Category::ALL {
        let mut violins = Vec::new();
        for (row, res) in sweep.iter().zip(per_config.iter_mut()) {
            let p99s: Vec<u64> = res
                .sites
                .iter_mut()
                .enumerate()
                .filter(|(i, s)| keep[*i] && s.in_category(cat))
                .filter_map(|(_, s)| s.samples.p99())
                .collect();
            if let Some(v) = ViolinSummary::from_values(format!("{} VMs", row.count), &p99s, 64) {
                violins.push(v);
            }
        }
        categories.push(Fig2Category {
            category: cat,
            violins,
        });
    }
    (
        Fig2Result {
            vm_counts: sweep.iter().map(|r| r.count).collect(),
            categories,
        },
        metered,
    )
}

// ---------------------------------------------------------------- Table 3

/// Table 3: worst-case bucket percentages in Docker as the container
/// count grows. The container sweep runs as one parallel batch on
/// `jobs` workers. Telemetry labels: `env=<kind>`; see [`table2`] for
/// the `jobs`/`metrics` contract.
pub fn table3(
    corpus: &Corpus,
    scale: Scale,
    seed: u64,
    jobs: usize,
    metrics: bool,
) -> (BucketTable, Metered) {
    let machine = scale.machine();
    let sweep = container_sweep(machine);
    let configs: Vec<RunConfig> = sweep
        .iter()
        .map(|row| RunConfig {
            metrics,
            ..RunConfig::new(
                EnvSpec::new(machine, EnvKind::Container(row.count)),
                scale.iterations(),
                seed,
            )
        })
        .collect();
    let results = run_trials("table3", &configs, corpus, jobs);
    let mut metered = Metered::default();
    let mut table =
        BucketTable::new("Table 3: worst-case (max) syscall runtimes in Docker (cumulative %)");
    for (row, mut res) in sweep.iter().zip(results) {
        let maxes = res.per_site(None, |s| s.max());
        metered.fold_trial(
            &[("env", &res.config.env.kind.label())],
            &res.metrics,
            &res.attrib,
        );
        table.push_values(format!("{} ctnrs", row.count), &maxes);
    }
    metered.finish();
    (table, metered)
}

// ---------------------------------------------------------------- Figure 3

/// One Figure 3 application row: p99 latencies in the four
/// configurations.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Application name.
    pub app: String,
    /// KVM, isolated.
    pub kvm_isolated: u64,
    /// Docker, isolated.
    pub docker_isolated: u64,
    /// KVM with the 48-core syscall noise.
    pub kvm_noise: u64,
    /// Docker with the noise.
    pub docker_noise: u64,
}

impl Fig3Row {
    /// Percent p99 increase from isolated to contended, KVM.
    pub fn kvm_increase_pct(&self) -> f64 {
        pct_increase(self.kvm_isolated, self.kvm_noise)
    }
    /// Percent p99 increase from isolated to contended, Docker.
    pub fn docker_increase_pct(&self) -> f64 {
        pct_increase(self.docker_isolated, self.docker_noise)
    }
}

fn pct_increase(base: u64, now: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (now as f64 - base as f64) / base as f64
    }
}

/// Runs Figure 3 over the full suite. The whole noise grid — apps ×
/// {KVM, Docker} × {isolated, noisy} × repetition seeds — is flattened
/// into one batch of independent points for the pool's `jobs` workers;
/// since point seeds are a pure function of grid position, the result
/// rows are identical for every worker count. Telemetry labels: `app`,
/// `virt`, `noise` per grid point; see [`table2`] for the
/// `jobs`/`metrics` contract.
pub fn fig3(
    noise: &Corpus,
    scale: Scale,
    seed: u64,
    jobs: usize,
    metrics: bool,
) -> (Vec<Fig3Row>, Metered) {
    let (machine, groups) = match scale {
        Scale::Tiny => (
            Machine {
                cores: 8,
                mem_mib: 8 * 1024,
            },
            4,
        ),
        Scale::Quick => (
            Machine {
                cores: 16,
                mem_mib: 16 * 1024,
            },
            4,
        ),
        Scale::Full => (
            Machine {
                cores: 64,
                mem_mib: 64 * 1024,
            },
            4,
        ),
    };
    let mk_cfg = |virt: bool, with_noise: bool| SingleNodeConfig {
        requests: scale.requests(),
        warmup: (scale.requests() / 10) as usize,
        metrics,
        ..SingleNodeConfig::new(machine, groups, virt, with_noise, seed)
    };
    let reps = match scale {
        Scale::Tiny => 1,
        Scale::Quick => 2,
        Scale::Full => 3,
    };
    // The four grid configurations per app, in row order.
    const GRID: [(bool, bool); 4] = [(true, false), (false, false), (true, true), (false, true)];
    let apps = suite();
    let mut points: Vec<(AppProfile, SingleNodeConfig)> = Vec::new();
    for app in &apps {
        for (virt, with_noise) in GRID {
            for r in 0..reps {
                let mut c = mk_cfg(virt, with_noise);
                // The paper runs each client twice and keeps the warmed
                // run; we average over repetition seeds to stabilize the
                // tail estimate.
                c.seed = c.seed.wrapping_add(r * 0x1234_5678);
                points.push((app.clone(), c));
            }
        }
    }
    let results = run_points(&points, noise, jobs);
    let mut metered = Metered::default();
    for ((app, cfg), res) in points.iter().zip(&results) {
        metered.fold_trial(
            &[
                ("app", app.name),
                ("virt", if cfg.virt { "kvm" } else { "docker" }),
                ("noise", if cfg.noise { "on" } else { "off" }),
            ],
            &res.metrics,
            &res.noise_attrib,
        );
    }
    metered.finish();
    let reps = reps as usize;
    let rows = apps
        .iter()
        .zip(results.chunks(GRID.len() * reps))
        .map(|(app, chunk)| {
            let mean_p99 = |g: usize| {
                chunk[g * reps..(g + 1) * reps]
                    .iter()
                    .map(|t| t.p99)
                    .sum::<u64>()
                    / reps as u64
            };
            Fig3Row {
                app: app.name.to_string(),
                kvm_isolated: mean_p99(0),
                docker_isolated: mean_p99(1),
                kvm_noise: mean_p99(2),
                docker_noise: mean_p99(3),
            }
        })
        .collect();
    (rows, metered)
}

// ---------------------------------------------------------------- Figure 4

/// One Figure 4 application row: total 64-node runtimes.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Application name.
    pub app: String,
    /// KVM, isolated.
    pub kvm_isolated: u64,
    /// Docker, isolated.
    pub docker_isolated: u64,
    /// KVM, multi-tenant.
    pub kvm_noise: u64,
    /// Docker, multi-tenant.
    pub docker_noise: u64,
}

impl Fig4Row {
    /// Relative runtime loss isolated → multi-tenant, KVM (percent).
    pub fn kvm_loss_pct(&self) -> f64 {
        pct_increase(self.kvm_isolated, self.kvm_noise)
    }
    /// Relative runtime loss isolated → multi-tenant, Docker (percent).
    pub fn docker_loss_pct(&self) -> f64 {
        pct_increase(self.docker_isolated, self.docker_noise)
    }
}

/// Runs Figure 4 over the cluster suite (no shore/specjbb, as in the
/// paper), simulating nodes in parallel on `jobs` workers (0 = auto,
/// 1 = sequential); node seeds derive from node indices, so every count
/// yields the same rows.
///
/// With `metrics` on, per-node registries arrive already merged under
/// `node=<i>` labels (see [`ksa_cluster::run_cluster`]); this adds
/// `app`/`virt`/`noise` on top. Cluster runs carry no attribution
/// table, so the metered frames stay empty.
pub fn fig4(
    noise: &Corpus,
    scale: Scale,
    seed: u64,
    jobs: usize,
    metrics: bool,
) -> (Vec<Fig4Row>, Metered) {
    let (nodes, iterations, per_iter) = scale.cluster();
    let node_machine = match scale {
        Scale::Tiny => Machine {
            cores: 8,
            mem_mib: 8 * 1024,
        },
        Scale::Quick => Machine {
            cores: 12,
            mem_mib: 16 * 1024,
        },
        Scale::Full => Machine {
            cores: 24,
            mem_mib: 64 * 1024,
        },
    };
    let mk_cfg = |virt: bool, with_noise: bool| ClusterConfig {
        nodes,
        iterations,
        requests_per_iter: per_iter,
        node: SingleNodeConfig {
            util_pct: 92,
            metrics,
            ..SingleNodeConfig::new(node_machine, 2, virt, with_noise, seed)
        },
        barrier_ns: 40_000,
        threads: jobs,
    };
    let mut metered = Metered::default();
    let empty_attrib = AttributionTable::default();
    let mut cell = |app: &AppProfile, virt: bool, with_noise: bool| {
        let res = run_cluster(app, &mk_cfg(virt, with_noise), noise);
        metered.fold_trial(
            &[
                ("app", app.name),
                ("virt", if virt { "kvm" } else { "docker" }),
                ("noise", if with_noise { "on" } else { "off" }),
            ],
            &res.metrics,
            &empty_attrib,
        );
        res.total_ns
    };
    let rows = cluster_suite()
        .iter()
        .map(|app| Fig4Row {
            app: app.name.to_string(),
            kvm_isolated: cell(app, true, false),
            docker_isolated: cell(app, false, false),
            kvm_noise: cell(app, true, true),
            docker_noise: cell(app, false, true),
        })
        .collect();
    metered.finish();
    (rows, metered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows_cover_the_ladder() {
        let rows = table1(Scale::Full);
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[6].count, 64);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Tiny.iterations() < Scale::Full.iterations());
        assert!(Scale::Tiny.requests() < Scale::Full.requests());
        assert!(Scale::Tiny.machine().cores < Scale::Full.machine().cores);
        let (n_t, ..) = Scale::Tiny.cluster();
        let (n_f, ..) = Scale::Full.cluster();
        assert!(n_t < n_f);
    }

    #[test]
    fn default_corpus_is_nonempty_and_deterministic() {
        let a = default_corpus(Scale::Tiny);
        let b = default_corpus(Scale::Tiny);
        assert!(!a.corpus.is_empty());
        assert_eq!(a.corpus.programs, b.corpus.programs);
        let n = noise_corpus(Scale::Tiny);
        assert!(!n.is_empty() && n.len() <= a.corpus.len());
    }

    #[test]
    fn net_corpus_is_deterministic_and_net_heavy() {
        use ksa_kernel::{Category, SysNo};
        let a = net_corpus(Scale::Tiny);
        let b = net_corpus(Scale::Tiny);
        assert_eq!(a.programs, b.programs);
        let calls: Vec<SysNo> = a
            .programs
            .iter()
            .flat_map(|p| p.calls.iter().map(|c| c.no))
            .collect();
        let net = calls
            .iter()
            .filter(|no| no.categories().contains(&Category::Network))
            .count();
        assert!(
            net * 2 > calls.len(),
            "net calls should dominate: {net}/{}",
            calls.len()
        );
        assert!(calls.contains(&SysNo::Sendto));
    }

    #[test]
    fn table2_tiny_has_three_rows_each() {
        let corpus = default_corpus(Scale::Tiny);
        let (t2, _) = table2(&corpus.corpus, Scale::Tiny, 1, 0, false);
        assert_eq!(t2.median.rows.len(), 3);
        assert_eq!(t2.p99.rows.len(), 3);
        assert_eq!(t2.max.rows.len(), 3);
        // Paper shape: fewer KVM medians below 1µs than native.
        let native = &t2.median.rows[0];
        let kvm = &t2.median.rows[1];
        assert!(
            kvm.pct_below(0) <= native.pct_below(0),
            "KVM must not beat native below 1us: {} vs {}",
            kvm.pct_below(0),
            native.pct_below(0)
        );
    }
}
