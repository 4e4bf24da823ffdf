//! The cluster fabric's recovery machinery under a deterministic
//! node/link fault plan.
//!
//! Three faulted runs of the Figure-4-shaped cluster (healthy baseline,
//! one crashed node, one healed partition) check that:
//!
//! 1. a crashed node's shard is detected, reassigned and re-executed —
//!    the run completes every iteration with **bounded** slowdown over
//!    healthy and zero unserved shards;
//! 2. a healed partition loses zero barrier completions and lets zero
//!    duplicates through (retransmission + coordinator dedup);
//! 3. recovery lights up `err.cluster.*` / `recovery.cluster.*`
//!    coverage blocks that a healthy run must not touch;
//! 4. the whole thing is bit-identical under replay and across `--jobs`
//!    pool widths.
//!
//! `--trace-out <path>` dumps the crash run's recovery marks as
//! Chrome-trace JSON.

use crate::Gates;
use ksa_bench::{cell_ns, Cli};
use ksa_cluster::{run_cluster, run_cluster_faulted, ClusterConfig, ClusterResult, FabricConfig};
use ksa_core::experiments::{noise_corpus, Scale};
use ksa_desim::NodeFaultPlan;
use ksa_envsim::Machine;
use ksa_tailbench::single_node::SingleNodeConfig;
use ksa_tailbench::suite;
use ksa_varbench::traceout::write_chrome_trace;
use std::io::{BufWriter, Write};

/// The Figure-4-shaped cluster for `scale`, sized like `experiments::fig4` but
/// restoring the paper's 64 nodes at full scale (the failover gates are
/// about membership behaviour, so node count is the interesting axis).
fn cluster_config(scale: Scale, seed: u64, jobs: usize) -> ClusterConfig {
    let (nodes, iterations, requests_per_iter) = scale.cluster();
    let (nodes, cores, gib) = match scale {
        Scale::Tiny => (nodes, 8, 8),
        Scale::Quick => (nodes, 12, 16),
        Scale::Full => (64, 24, 64),
    };
    ClusterConfig {
        nodes,
        iterations,
        requests_per_iter,
        node: SingleNodeConfig {
            util_pct: 92,
            ..SingleNodeConfig::new(
                Machine {
                    cores,
                    mem_mib: gib * 1024,
                },
                2,
                false,
                false,
                seed,
            )
        },
        barrier_ns: 40_000,
        threads: jobs,
    }
}

pub fn run(cli: &Cli, gates: &mut Gates) {
    let app = &suite()[1]; // masstree: short requests, fast at scale
    let noise = noise_corpus(cli.scale);
    let cfg = cluster_config(cli.scale, cli.seed, cli.jobs);
    let fab = FabricConfig::quick();
    let (nodes, iters, seed) = (cfg.nodes, cfg.iterations, cli.seed);
    println!("ablation_failover: {nodes} nodes x {iters} iterations, seed {seed}");

    // Baseline: the healthy cluster.
    let healthy = run_cluster(app, &cfg, &noise);
    println!("\nhealthy: total {}", cell_ns(healthy.total_ns));

    // Gate 1: one node crashes permanently about a third into the run.
    let crash_plan = NodeFaultPlan::new(seed).crash(nodes / 2, healthy.total_ns / 3, 0);
    let crash = run_cluster_faulted(app, &cfg, &noise, &crash_plan, &fab);
    let c = crash.fabric.clone().expect("faulted run reports fabric");
    let slowdown = crash.slowdown_vs(&healthy);
    println!(
        "crash:   total {}  (slowdown {slowdown:.2}x, {} reassign, {} reexec)",
        cell_ns(crash.total_ns),
        c.reassignments,
        c.reexecs
    );
    let done = crash.iteration_ns.len();
    gates.check(
        "crash/completes",
        done == iters as usize,
        format!("{done} of {iters} iterations (barrier must not hang)"),
    );
    let (detected, reexecs, reassigned) = (c.crash_detections, c.reexecs, c.reassignments);
    gates.check(
        "crash/detected",
        detected == 1 && reexecs >= 1 && reassigned >= 1,
        format!("{detected} detections, {reexecs} reexecs, {reassigned} reassignments"),
    );
    let (unserved, completions, expected) =
        (c.unserved_shards, c.completions, c.expected_completions);
    gates.check(
        "crash/all-shards-served",
        unserved == 0 && c.conserved(),
        format!("{unserved} unserved, {completions}/{expected} completions"),
    );
    gates.check(
        "crash/bounded-slowdown",
        (1.0..3.0).contains(&slowdown),
        format!("{slowdown:.2}x vs healthy (bound 3.0x)"),
    );

    // Gate 2: a minority island partitions off and heals mid-run.
    let (p0, p1) = (healthy.total_ns / 4, healthy.total_ns / 2);
    let part_plan = NodeFaultPlan::new(seed).partition(p0, p1, (0..nodes / 4).collect());
    let part = run_cluster_faulted(app, &cfg, &noise, &part_plan, &fab);
    let p = part.fabric.clone().expect("faulted run reports fabric");
    let (retransmits, dups) = (p.retransmits, p.dup_completions_dropped);
    println!(
        "part:    total {}  ({retransmits} retransmits, {dups} dups dropped)",
        cell_ns(part.total_ns)
    );
    gates.check(
        "partition/retransmits",
        retransmits > 0,
        format!("{retransmits} retransmissions across the cut"),
    );
    let (completions, expected, lost) = (p.completions, p.expected_completions, p.lost_completions);
    gates.check(
        "partition/conserves-completions",
        p.conserved(),
        format!("{completions}/{expected} completions, {lost} lost, {dups} duplicates deduped"),
    );

    // Gate 3: recovery coverage lights up only under faults.
    let lit = [&healthy, &crash, &part].map(|r| r.coverage.len());
    gates.check(
        "coverage/faults-light-blocks",
        lit[0] == 0 && lit[1] >= 5 && lit[2] >= 2,
        format!(
            "healthy {} blocks, crash {}, partition {} ({} total)",
            lit[0],
            lit[1],
            lit[2],
            lit[1] + lit[2]
        ),
    );

    // Gate 4: replay and pool width cannot reach the results.
    let seq_cfg = ClusterConfig { threads: 1, ..cfg };
    let seq = run_cluster_faulted(app, &seq_cfg, &noise, &crash_plan, &fab);
    let replay = run_cluster_faulted(app, &cfg, &noise, &crash_plan, &fab);
    let same = |r: &ClusterResult| r.iteration_ns == crash.iteration_ns && r.fabric == crash.fabric;
    gates.check(
        "determinism/jobs-and-replay",
        same(&seq) && same(&replay),
        format!("--jobs 1 vs {} and replay bit-identical", cfg.threads),
    );

    if let Some(path) = &cli.trace_out {
        let mut out = BufWriter::new(std::fs::File::create(path).expect("create trace"));
        write_chrome_trace(&mut out, &crash.trace)
            .and_then(|()| out.flush())
            .expect("write trace");
        eprintln!("wrote {}", path.display());
    }
    let mut csv = String::from(
        "run,total_ns,slowdown,reassignments,reexecs,retransmits,dups_dropped,completions,expected,lost\n",
    );
    for (name, res) in [
        ("healthy", &healthy),
        ("crash", &crash),
        ("partition", &part),
    ] {
        let r = res.fabric.clone().unwrap_or_default();
        csv.push_str(&format!(
            "{name},{},{:.4},{},{},{},{},{},{},{}\n",
            res.total_ns,
            res.slowdown_vs(&healthy),
            r.reassignments,
            r.reexecs,
            r.retransmits,
            r.dup_completions_dropped,
            r.completions,
            r.expected_completions,
            r.lost_completions
        ));
    }
    cli.write_csv("ablation_failover", &csv);
}
