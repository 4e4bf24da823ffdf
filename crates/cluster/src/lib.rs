//! # ksa-cluster — BSP-style multi-node deployments (Figure 4)
//!
//! The paper's final experiment runs each tailbench application on 64
//! Chameleon nodes: every node serves a fixed number of *local* requests
//! per iteration, a global MPI barrier separates iterations, and the run
//! is 50 iterations long. No inter-node traffic sits on the critical path
//! — which means node simulations are independent and the barrier
//! semantics reduce to taking, per iteration, the **max** over nodes'
//! durations. Straggler amplification (the paper's point) falls out: a
//! heavy per-node tail makes `max` over 64 nodes land in the tail almost
//! every iteration.
//!
//! Node simulations run concurrently on the deterministic work-stealing
//! pool (`ksa_desim::pool`); each node is one single-threaded engine run
//! with a seed derived from the node index, so the whole experiment is
//! bit-identical for every worker count, including the sequential
//! (`threads == 1`) baseline.

use ksa_desim::{Ns, TraceLog};
use ksa_kernel::coverage::CoverageSet;
use ksa_kernel::prog::Corpus;
use ksa_tailbench::apps::AppProfile;
use ksa_tailbench::single_node::{run_node_batched, SingleNodeConfig};

pub mod fabric;
pub mod serde;

pub use fabric::{run_cluster_faulted, FabricConfig, FabricReport};

/// Configuration of one cluster run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of nodes (the paper uses 64).
    pub nodes: usize,
    /// Iterations with a barrier between each (the paper uses 50).
    pub iterations: u64,
    /// Requests each node serves per iteration.
    pub requests_per_iter: u64,
    /// Per-node configuration (machine, virt/container split, noise).
    pub node: SingleNodeConfig,
    /// Per-iteration barrier cost added after the max (network
    /// allreduce latency).
    pub barrier_ns: Ns,
    /// Pool workers used to simulate nodes (0 = auto: `KSA_JOBS` or
    /// available parallelism; 1 = sequential).
    pub threads: usize,
}

impl ClusterConfig {
    /// The paper's configuration: 64 nodes, 50 iterations, one NUMA
    /// socket per app (we model the socket as a 24-core machine split in
    /// two: the app's half and the noise corpus's half).
    pub fn paper(virt: bool, noise: bool, seed: u64) -> Self {
        Self {
            nodes: 64,
            iterations: 50,
            requests_per_iter: 200,
            node: SingleNodeConfig {
                // BSP batches are throughput-oriented: clients push the
                // servers near capacity, so service-time inflation from
                // kernel interference directly becomes drain time.
                util_pct: 92,
                ..SingleNodeConfig::new(
                    ksa_envsim::Machine {
                        cores: 24,
                        mem_mib: 64 * 1024,
                    },
                    2,
                    virt,
                    noise,
                    seed,
                )
            },
            barrier_ns: 40_000, // ~40µs allreduce on a cluster fabric
            threads: 0,         // auto: results are thread-count-invariant
        }
    }

    /// Scaled-down configuration for tests.
    pub fn quick(virt: bool, noise: bool, seed: u64) -> Self {
        Self {
            nodes: 8,
            iterations: 5,
            requests_per_iter: 40,
            node: SingleNodeConfig {
                util_pct: 92,
                ..SingleNodeConfig::new(
                    ksa_envsim::Machine {
                        cores: 8,
                        mem_mib: 8 * 1024,
                    },
                    2,
                    virt,
                    noise,
                    seed,
                )
            },
            barrier_ns: 40_000,
            threads: 0,
        }
    }
}

/// Result of one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Application name.
    pub app: String,
    /// Per-iteration durations (max over nodes, plus barrier cost).
    pub iteration_ns: Vec<Ns>,
    /// Total runtime: sum over iterations.
    pub total_ns: Ns,
    /// Mean over nodes of per-node total busy time (what the runtime
    /// would be without stragglers — the BSP efficiency baseline).
    pub mean_node_ns: Ns,
    /// Recovery-machinery counters (faulted runs only).
    pub fabric: Option<FabricReport>,
    /// `err.cluster.*` / `recovery.cluster.*` blocks the recovery path
    /// lit up (empty for healthy runs).
    pub coverage: CoverageSet,
    /// Per-node fabric trace rings (empty for healthy runs).
    pub trace: TraceLog,
    /// Telemetry merged across nodes, each node's series labelled
    /// `node=<index>` (inert unless [`SingleNodeConfig::metrics`]).
    pub metrics: ksa_telemetry::Registry,
    /// Engine events processed, summed over every node simulation —
    /// the simulated-work unit the bench suite converts to
    /// events/second throughput.
    pub events: u64,
}

impl ClusterResult {
    /// Straggler amplification: total runtime over the no-straggler
    /// baseline. 1.0 = perfectly balanced. Total for every input: a
    /// fully-failed or zero-iteration run (zero baseline) reports 1.0
    /// instead of leaking NaN/∞ into JSON output.
    pub fn straggler_factor(&self) -> f64 {
        if self.mean_node_ns == 0 {
            return 1.0;
        }
        let f = self.total_ns as f64 / self.mean_node_ns as f64;
        if f.is_finite() {
            f
        } else {
            1.0
        }
    }

    /// Slowdown of this run over a healthy reference, guarded the same
    /// way: a zero or degenerate reference reports 1.0, never ∞.
    pub fn slowdown_vs(&self, healthy: &ClusterResult) -> f64 {
        if healthy.total_ns == 0 {
            return 1.0;
        }
        let f = self.total_ns as f64 / healthy.total_ns as f64;
        if f.is_finite() {
            f
        } else {
            1.0
        }
    }

    /// Mean iteration duration, defined (0) for zero-iteration runs.
    pub fn mean_iteration_ns(&self) -> u64 {
        if self.iteration_ns.is_empty() {
            return 0;
        }
        (self.iteration_ns.iter().map(|&n| n as u128).sum::<u128>()
            / self.iteration_ns.len() as u128) as u64
    }
}

/// Runs `app` across the cluster and combines iteration times with
/// barrier (max) semantics.
pub fn run_cluster(app: &AppProfile, cfg: &ClusterConfig, noise_corpus: &Corpus) -> ClusterResult {
    // Each node simulation yields `iterations` durations.
    let per_node = run_nodes(app, cfg, noise_corpus);
    let metrics = merge_node_metrics(&per_node);
    let events = per_node.iter().map(|(_, _, e)| e).sum();

    let mut iteration_ns = Vec::with_capacity(cfg.iterations as usize);
    for it in 0..cfg.iterations as usize {
        let max = per_node
            .iter()
            .map(|(n, _, _)| n.get(it).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        iteration_ns.push(max + cfg.barrier_ns);
    }
    let total_ns = iteration_ns.iter().sum();
    let mean_node_ns = {
        let sums: Vec<Ns> = per_node.iter().map(|(n, _, _)| n.iter().sum()).collect();
        let total: u128 = sums.iter().map(|&s| s as u128).sum();
        (total / sums.len().max(1) as u128) as Ns + cfg.barrier_ns * cfg.iterations
    };
    ClusterResult {
        app: app.name.to_string(),
        iteration_ns,
        total_ns,
        mean_node_ns,
        fabric: None,
        coverage: CoverageSet::new(),
        trace: TraceLog::default(),
        metrics,
        events,
    }
}

/// Folds per-node registries into one, labelling each node's series
/// `node=<index>`. Inert (and allocation-free) when nodes ran without
/// telemetry.
pub(crate) fn merge_node_metrics(
    per_node: &[(Vec<Ns>, ksa_telemetry::Registry, u64)],
) -> ksa_telemetry::Registry {
    let mut merged = ksa_telemetry::Registry::disabled();
    for (i, (_, reg, _)) in per_node.iter().enumerate() {
        let node = i.to_string();
        merged.absorb(reg, &[("node", node.as_str())]);
    }
    merged
}

/// Simulates every node on the work-stealing pool, returning per-node
/// `(iteration durations, telemetry, engine events)` in node order.
/// Node seeds derive from the node *index*, so scheduling cannot reach
/// the simulated results.
pub(crate) fn run_nodes(
    app: &AppProfile,
    cfg: &ClusterConfig,
    noise_corpus: &Corpus,
) -> Vec<(Vec<Ns>, ksa_telemetry::Registry, u64)> {
    ksa_desim::pool::parallel_indexed(cfg.threads, cfg.nodes, |node| {
        let mut node_cfg = cfg.node;
        node_cfg.seed = cfg
            .node
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(node as u64);
        let res = run_node_batched(
            app,
            &node_cfg,
            noise_corpus,
            cfg.iterations,
            cfg.requests_per_iter,
        );
        (res.batch_durations, res.metrics, res.events)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_kernel::{Arg, Call, Program, SysNo};
    use ksa_tailbench::apps::{cluster_suite, suite};

    fn corpus() -> Corpus {
        // Shootdown/scheduler-heavy noise: the strongest cross-core
        // coupling mechanisms, so the quick-scale test sees the effect.
        Corpus {
            programs: vec![Program {
                calls: vec![
                    Call::new(SysNo::Mmap, vec![Arg::Const(128), Arg::Const(1)]),
                    Call::new(SysNo::Munmap, vec![Arg::Ref(0)]),
                    Call::new(SysNo::Mmap, vec![Arg::Const(200), Arg::Const(1)]),
                    Call::new(SysNo::Munmap, vec![Arg::Ref(2)]),
                    Call::new(SysNo::Clone, vec![Arg::Const(0)]),
                    Call::new(SysNo::Wait4, vec![Arg::Ref(4)]),
                ],
            }],
        }
    }

    #[test]
    fn cluster_run_produces_all_iterations() {
        let app = &suite()[1]; // masstree
        let cfg = ClusterConfig::quick(false, false, 3);
        let res = run_cluster(app, &cfg, &corpus());
        assert_eq!(res.iteration_ns.len(), cfg.iterations as usize);
        assert_eq!(res.total_ns, res.iteration_ns.iter().sum::<u64>());
        assert!(res.total_ns > 0);
    }

    #[test]
    fn straggler_factor_at_least_one() {
        let app = &suite()[1];
        let cfg = ClusterConfig::quick(false, true, 5);
        let res = run_cluster(app, &cfg, &corpus());
        assert!(
            res.straggler_factor() >= 0.99,
            "max-combining cannot beat the mean: {}",
            res.straggler_factor()
        );
    }

    #[test]
    fn noise_slows_shared_kernel_more_at_scale() {
        let app = cluster_suite()
            .into_iter()
            .find(|a| a.name == "xapian")
            .unwrap();
        let quiet = run_cluster(&app, &ClusterConfig::quick(false, false, 7), &corpus());
        let noisy = run_cluster(&app, &ClusterConfig::quick(false, true, 7), &corpus());
        assert!(
            noisy.total_ns > quiet.total_ns,
            "syscall noise must slow the shared-kernel cluster"
        );
    }

    #[test]
    fn determinism_across_runs() {
        let app = &suite()[6];
        let cfg = ClusterConfig::quick(true, false, 11);
        let a = run_cluster(app, &cfg, &corpus());
        let b = run_cluster(app, &cfg, &corpus());
        assert_eq!(a.iteration_ns, b.iteration_ns);
    }

    #[test]
    fn node_metrics_merge_with_node_labels_and_stay_neutral() {
        let app = &suite()[1];
        let mut cfg = ClusterConfig::quick(false, false, 9);
        cfg.nodes = 3;
        let off = run_cluster(app, &cfg, &corpus());
        cfg.node.metrics = true;
        let on = run_cluster(app, &cfg, &corpus());
        assert_eq!(
            off.iteration_ns, on.iteration_ns,
            "telemetry must not move cluster results"
        );
        assert!(!off.metrics.enabled());
        assert!(on.metrics.enabled());
        // Every node contributed a labelled copy of its series.
        for node in ["0", "1", "2"] {
            let label = [("tenant", "0"), ("node", node)];
            let reqs = on.metrics.value_of("tenant_requests", &label);
            assert_eq!(
                reqs,
                Some(cfg.iterations * cfg.requests_per_iter),
                "node {node}: per-node request count"
            );
        }
        assert_eq!(
            on.metrics.total("tenant_requests"),
            cfg.nodes as u64 * cfg.iterations * cfg.requests_per_iter
        );
    }

    #[test]
    fn worker_count_does_not_reach_the_simulation() {
        // The Figure 4 acceptance shape: per-node results must be
        // bit-identical whether nodes are simulated sequentially or on
        // a pool wider than the node count.
        let app = &suite()[1];
        let mut cfg = ClusterConfig::quick(false, true, 13);
        cfg.threads = 1;
        let seq = run_cluster(app, &cfg, &corpus());
        for threads in [3usize, 16] {
            cfg.threads = threads;
            let par = run_cluster(app, &cfg, &corpus());
            assert_eq!(seq.iteration_ns, par.iteration_ns, "threads={threads}");
            assert_eq!(seq.total_ns, par.total_ns, "threads={threads}");
            assert_eq!(seq.mean_node_ns, par.mean_node_ns, "threads={threads}");
        }
    }
}
