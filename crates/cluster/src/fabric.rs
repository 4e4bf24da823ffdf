//! The cluster fabric's failure-detection and recovery machinery.
//!
//! [`run_cluster`](crate::run_cluster) models a *healthy* BSP cluster:
//! per-iteration barriers reduce to a max over independent node
//! simulations. This module lifts PR 1's per-site fault discipline to
//! the node/link level: a seeded [`NodeFaultPlan`] schedules node
//! crash/reboot windows, partition and degraded-link windows, and
//! probabilistic message drops, and the fabric rides through them with
//! a real recovery path:
//!
//! * **Heartbeat detection** — a crashed node stops heartbeating; the
//!   monitor walks `heartbeat → suspect → dead` on deterministic
//!   timeouts before anyone touches its work.
//! * **Work redistribution** — a dead node's shard is reassigned
//!   round-robin to survivors *before* the next iteration (steady
//!   state), or re-executed by a survivor after mid-iteration detection
//!   (crash path), so the barrier completes instead of hanging.
//! * **Retransmission** — barrier-completion messages crossing a
//!   partitioned or lossy link are retried under the shared capped
//!   exponential [`Backoff`] policy with jitter drawn deterministically
//!   from the plan seed. The coordinator dedups by `(iteration,
//!   sender)`, so a lost ack duplicates no completion.
//!
//! Every recovery step emits a [`TraceEventKind::Mark`] into a per-node
//! trace ring (PR 3 taxonomy) and an `err.cluster.*` /
//! `recovery.cluster.*` coverage block (PR 5 registry), making failover
//! paths first-class coverage targets. Everything is a pure function of
//! `(config, plan, per-node durations)`: replays and any pool width are
//! bit-identical.
//!
//! With an *empty* plan the fabric reduces exactly to the healthy
//! semantics — healthy link latency is modelled as part of
//! `barrier_ns`, so only fault-induced delays (degradation excess,
//! retransmit backoff, detection timeouts, re-execution) move an
//! iteration — pinned by `faulted_run_with_empty_plan_matches_healthy`.

use ksa_desim::{
    Backoff, CoreId, NodeFaultPlan, Ns, Pid, TraceEvent, TraceEventKind, TraceLog, TraceRing,
};
use ksa_kernel::coverage::{block, block_err, CoverageSet};
use ksa_kernel::prog::Corpus;
use ksa_tailbench::apps::AppProfile;

use crate::{run_nodes, ClusterConfig, ClusterResult};

/// Failure-detection and retransmission knobs of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricConfig {
    /// Heartbeat interval each node is expected to honour.
    pub heartbeat_ns: Ns,
    /// Missed heartbeats before a node turns *suspect*.
    pub suspect_misses: u32,
    /// Missed heartbeats before a suspect is declared *dead* and its
    /// shard is handed to survivors (≥ `suspect_misses`).
    pub dead_misses: u32,
    /// Healthy one-way message latency (modelled as part of
    /// `barrier_ns`; only the *excess* under degradation delays an
    /// iteration).
    pub link_ns: Ns,
    /// Retransmit backoff policy (shared with the tailbench client).
    pub backoff: Backoff,
    /// Hard bound on transmission attempts per message; a message still
    /// undeliverable after this many tries counts as *lost*.
    pub max_attempts: u32,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            heartbeat_ns: 1_000_000, // 1ms heartbeats
            suspect_misses: 2,
            dead_misses: 3,
            link_ns: 20_000, // 20µs one-way on the healthy fabric
            backoff: Backoff::new(50_000, 2_000_000, 250),
            max_attempts: 1 << 16,
        }
    }
}

impl FabricConfig {
    /// A tighter policy for quick-scale tests: detection timeouts small
    /// against quick-cluster iteration durations.
    pub fn quick() -> Self {
        FabricConfig {
            heartbeat_ns: 100_000,
            suspect_misses: 2,
            dead_misses: 3,
            link_ns: 10_000,
            backoff: Backoff::new(20_000, 500_000, 250),
            max_attempts: 1 << 16,
        }
    }
}

/// What the recovery machinery did during one faulted run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricReport {
    /// Shards of known-dead nodes reassigned to survivors ahead of an
    /// iteration.
    pub reassignments: u64,
    /// Shards re-executed by a survivor after mid-iteration crash
    /// detection (the crashed node's partial work is discarded).
    pub reexecs: u64,
    /// Dead declarations (heartbeat → suspect → dead walks completed).
    pub crash_detections: u64,
    /// Nodes that rebooted and rejoined the membership.
    pub rejoins: u64,
    /// Barrier-completion message retransmissions.
    pub retransmits: u64,
    /// Duplicate completions deduped at the coordinator (lost acks).
    pub dup_completions_dropped: u64,
    /// Unique barrier completions delivered across the run.
    pub completions: u64,
    /// Completions the membership should have produced.
    pub expected_completions: u64,
    /// Expected completions that never arrived (permanent partition or
    /// attempt-budget exhaustion); 0 whenever every fault heals.
    pub lost_completions: u64,
    /// Iterations that began with an empty membership.
    pub failed_iters: u64,
    /// Shards nobody could serve (empty membership).
    pub unserved_shards: u64,
}

impl FabricReport {
    /// Delivered fraction of expected completions, defined even for a
    /// fully-failed run (an empty expectation delivers trivially).
    pub fn completion_ratio(&self) -> f64 {
        if self.expected_completions == 0 {
            return 1.0;
        }
        self.completions as f64 / self.expected_completions as f64
    }

    /// True when every expected completion arrived exactly once.
    pub fn conserved(&self) -> bool {
        self.lost_completions == 0 && self.completions == self.expected_completions
    }
}

/// Coverage + trace sink shared by the recovery steps.
struct Recorder {
    cov: CoverageSet,
    trace: TraceLog,
}

impl Recorder {
    fn new(nodes: usize) -> Self {
        Recorder {
            cov: CoverageSet::new(),
            trace: TraceLog {
                enabled: true,
                rings: (0..nodes.max(1)).map(|_| TraceRing::new(4096)).collect(),
                ..TraceLog::default()
            },
        }
    }

    fn mark(&mut self, node: usize, t: Ns, label: &'static str, a: u64, b: u64) {
        let ring = node.min(self.trace.rings.len().saturating_sub(1));
        self.trace.rings[ring].push(TraceEvent {
            t,
            pid: Pid(node as u32),
            core: CoreId(node as u32),
            kind: TraceEventKind::mark(label, a, b),
        });
    }

    fn cover(&mut self, name: &'static str) {
        self.cov.insert(block(name));
    }

    fn cover_err(&mut self, name: &'static str) {
        self.cov.insert(block_err(name));
    }
}

/// Outcome of delivering one barrier-completion message.
struct Delivery {
    /// First arrival at the coordinator (`None` = lost).
    arrival: Option<Ns>,
}

/// Drives one message from `from` to `coord`, retrying under the backoff
/// policy across partitions, degraded links and probabilistic drops.
/// Healthy latency is folded into `barrier_ns`, so only the excess over
/// `link_ns` delays the arrival.
#[allow(clippy::too_many_arguments)]
fn deliver(
    plan: &NodeFaultPlan,
    fab: &FabricConfig,
    rec: &mut Recorder,
    rep: &mut FabricReport,
    from: usize,
    coord: usize,
    sent_at: Ns,
    iter: u64,
) -> Delivery {
    if from == coord {
        // The coordinator's own completion needs no link.
        return Delivery {
            arrival: Some(sent_at),
        };
    }
    let mut send_t = sent_at;
    let mut first: Option<Ns> = None;
    for attempt in 1..=fab.max_attempts {
        // Unique per (iteration, attempt); sender/receiver ids are mixed
        // in by the decision hash itself.
        let seq = iter * 0x100000 + attempt as u64;
        let mult = plan.latency_mult_milli(from, coord, send_t);
        // Excess latency over the healthy link (already inside barrier_ns).
        let extra_lat = (fab.link_ns * mult / 1000).saturating_sub(fab.link_ns);
        let cut = plan.partitioned(from, coord, send_t);
        let dropped = cut || plan.message_dropped("link.data", from, coord, seq);
        if !dropped {
            let arrival = send_t + extra_lat;
            if first.is_none() {
                first = Some(arrival);
            } else {
                // The coordinator already has (iter, from): dedup.
                rep.dup_completions_dropped += 1;
                rec.cover("recovery.cluster.dup_drop");
                rec.mark(coord, arrival, "barrier.dup_drop", from as u64, iter);
            }
            let ack_cut = plan.partitioned(coord, from, arrival)
                || plan.message_dropped("link.ack", coord, from, seq);
            if !ack_cut {
                break;
            }
            // Delivered but unacknowledged: the sender must retransmit,
            // and the coordinator will see a duplicate.
            rec.cover_err("cluster.ack_drop");
            rec.cover("recovery.cluster.retransmit");
            rec.mark(from, arrival, "net.ack_lost", coord as u64, seq);
        } else {
            rep.retransmits += 1;
            if cut {
                rec.cover_err("cluster.partition");
            } else {
                rec.cover_err("cluster.link_drop");
            }
            rec.cover("recovery.cluster.retransmit");
            rec.mark(from, send_t, "net.retransmit", coord as u64, attempt as u64);
        }
        let delay = fab.backoff.delay(
            attempt,
            plan.jitter_word("backoff", from as u64, coord as u64, seq),
        );
        if delay >= fab.backoff.cap_ns.max(1) {
            rec.cover("recovery.cluster.backoff_capped");
        }
        let mut next = send_t + delay.max(1);
        if cut {
            match plan.heal_at(from, coord, send_t) {
                // Keep backing off until the partition heals; the first
                // attempt past the heal goes through.
                Some(heal) => next = next.max(heal),
                None => {
                    // Permanently partitioned: the completion is lost.
                    rep.lost_completions += 1;
                    rec.cover_err("cluster.completion_lost");
                    rec.mark(from, send_t, "barrier.lost", coord as u64, iter);
                    return Delivery { arrival: None };
                }
            }
        }
        send_t = next;
    }
    if first.is_none() {
        // Attempt budget exhausted against a lossy (non-partitioned) link.
        rep.lost_completions += 1;
        rec.cover_err("cluster.completion_lost");
        rec.mark(from, send_t, "barrier.lost", coord as u64, iter);
    }
    Delivery { arrival: first }
}

/// Runs `app` across the cluster under a node/link fault plan, riding
/// through crashes, partitions and lossy links with the recovery
/// machinery above. With an empty plan this is bit-identical to
/// [`run_cluster`](crate::run_cluster).
pub fn run_cluster_faulted(
    app: &AppProfile,
    cfg: &ClusterConfig,
    noise_corpus: &Corpus,
    plan: &NodeFaultPlan,
    fab: &FabricConfig,
) -> ClusterResult {
    let per_node = run_nodes(app, cfg, noise_corpus);
    let metrics = crate::merge_node_metrics(&per_node);
    let events = per_node.iter().map(|(_, _, e)| e).sum();
    let base: Vec<Vec<Ns>> = per_node.into_iter().map(|(d, _, _)| d).collect();
    let nodes = cfg.nodes;
    let mut rec = Recorder::new(nodes);
    let mut rep = FabricReport::default();
    let mut known_dead = vec![false; nodes];
    let mut rr = 0usize; // round-robin cursor for reassignment targets
    let mut t: Ns = 0;
    let mut iteration_ns = Vec::with_capacity(cfg.iterations as usize);

    for it in 0..cfg.iterations {
        let iti = it as usize;
        // Reboots: a known-dead node whose outage ended rejoins before
        // the iteration and takes its shard back.
        for (n, dead) in known_dead.iter_mut().enumerate() {
            if *dead && !plan.node_down(n, t) {
                *dead = false;
                rep.rejoins += 1;
                rec.cover("recovery.cluster.rejoin");
                rec.mark(n, t, "node.rejoin", it, 0);
            }
        }
        let live: Vec<usize> = (0..nodes).filter(|&n| !known_dead[n]).collect();
        if live.is_empty() {
            // Nobody to serve anything: the monitor spins one detection
            // period and the iteration's shards go unserved.
            rep.failed_iters += 1;
            rep.unserved_shards += nodes as u64;
            rec.cover_err("cluster.no_members");
            let dur = fab.heartbeat_ns * fab.dead_misses.max(1) as Ns;
            rec.mark(0, t, "membership.empty", it, 0);
            iteration_ns.push(dur);
            t += dur;
            continue;
        }

        // Shard assignment: every node's shard must be served each
        // iteration; known-dead owners' shards go round-robin to the
        // membership (steady-state work redistribution).
        let mut shares = vec![0u64; nodes];
        for &n in &live {
            shares[n] = 1;
        }
        for (n, _) in known_dead.iter().enumerate().filter(|&(_, &d)| d) {
            let target = live[rr % live.len()];
            rr += 1;
            shares[target] += 1;
            rep.reassignments += 1;
            rec.cover("recovery.cluster.reassign");
            rec.mark(target, t, "recovery.reassign", n as u64, it);
        }

        // Work phase: intended finish time per member; members whose
        // crash window opens before they finish crash mid-iteration.
        let mut finish = vec![0u64; nodes]; // absolute, members only
        let mut crashed: Vec<(usize, Ns)> = Vec::new();
        for &n in &live {
            let d = base[n]
                .get(iti)
                .copied()
                .unwrap_or(0)
                .saturating_mul(shares[n]);
            let f = t + d;
            match plan.crash_in(n, t, f) {
                Some(c) => crashed.push((n, c)),
                None => finish[n] = f,
            }
        }
        let survivors: Vec<usize> = live
            .iter()
            .copied()
            .filter(|n| !crashed.iter().any(|(c, _)| c == n))
            .collect();

        // Crash path: heartbeats stop at the crash instant; the monitor
        // walks suspect → dead on timeouts, then a survivor re-executes
        // the dead node's shards after its own work.
        for &(n, c) in &crashed {
            let suspect_t = c + fab.heartbeat_ns * fab.suspect_misses.max(1) as Ns;
            let dead_t = c + fab.heartbeat_ns * fab.dead_misses.max(1) as Ns;
            rec.cover_err("cluster.hb_miss");
            rec.cover_err("cluster.node_crash");
            rec.cover("recovery.cluster.suspect");
            rec.cover("recovery.cluster.dead");
            rec.mark(n, c, "node.crash", it, 0);
            rec.mark(n, suspect_t, "hb.suspect", it, 0);
            rec.mark(n, dead_t, "node.dead", it, 0);
            rep.crash_detections += 1;
            if survivors.is_empty() {
                rep.unserved_shards += shares[n];
                rec.cover_err("cluster.no_members");
                continue;
            }
            let target = survivors[rr % survivors.len()];
            rr += 1;
            let d = base[target]
                .get(iti)
                .copied()
                .unwrap_or(0)
                .saturating_mul(shares[n]);
            finish[target] = finish[target].max(dead_t) + d;
            rep.reexecs += shares[n];
            rec.cover("recovery.cluster.reexec");
            rec.mark(target, dead_t, "recovery.reexec", n as u64, it);
        }

        if survivors.is_empty() {
            // Every member crashed this iteration: detection time is all
            // that passes; their shards were never served.
            rep.failed_iters += 1;
            let dead_t = crashed
                .iter()
                .map(|&(_, c)| c + fab.heartbeat_ns * fab.dead_misses.max(1) as Ns)
                .max()
                .unwrap_or(t + fab.heartbeat_ns);
            for &(n, _) in &crashed {
                known_dead[n] = true;
                rep.unserved_shards += shares[n];
            }
            iteration_ns.push(dead_t - t);
            t = dead_t;
            continue;
        }

        // Barrier phase: every survivor reports completion to the
        // coordinator (lowest surviving id) over the faulty fabric.
        let coord = survivors[0];
        rep.expected_completions += survivors.len() as u64;
        let mut barrier_done = 0u64;
        for &n in &survivors {
            let d = deliver(plan, fab, &mut rec, &mut rep, n, coord, finish[n], it);
            if let Some(arrival) = d.arrival {
                rep.completions += 1;
                barrier_done = barrier_done.max(arrival);
            }
        }
        let done = barrier_done.max(t) + cfg.barrier_ns;
        for &(n, _) in &crashed {
            known_dead[n] = true;
        }
        iteration_ns.push(done - t);
        t = done;
    }

    let total_ns = iteration_ns.iter().sum();
    // The straggler baseline stays the *healthy* per-node mean, so the
    // straggler factor of a faulted run also prices the recovery cost.
    let mean_node_ns = {
        let sums: Vec<Ns> = base.iter().map(|n| n.iter().sum()).collect();
        let total: u128 = sums.iter().map(|&s| s as u128).sum();
        (total / sums.len().max(1) as u128) as Ns + cfg.barrier_ns * cfg.iterations
    };
    ClusterResult {
        app: app.name.to_string(),
        iteration_ns,
        total_ns,
        mean_node_ns,
        fabric: Some(rep),
        coverage: rec.cov,
        trace: rec.trace,
        metrics,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_cluster;
    use ksa_kernel::coverage::is_error_block;
    use ksa_kernel::{Arg, Call, Program, SysNo};
    use ksa_tailbench::apps::suite;

    fn corpus() -> Corpus {
        Corpus {
            programs: vec![Program {
                calls: vec![
                    Call::new(SysNo::Mmap, vec![Arg::Const(128), Arg::Const(1)]),
                    Call::new(SysNo::Munmap, vec![Arg::Ref(0)]),
                ],
            }],
        }
    }

    fn recovery_blocks(cov: &CoverageSet) -> (usize, usize) {
        let mut rec_n = 0;
        let mut err_n = 0;
        for id in cov.iter() {
            let name = ksa_kernel::coverage::block_name(id);
            if name.starts_with("recovery.cluster.") {
                rec_n += 1;
            }
            if is_error_block(id) {
                err_n += 1;
            }
        }
        (rec_n, err_n)
    }

    #[test]
    fn faulted_run_with_empty_plan_matches_healthy() {
        let app = &suite()[1];
        let cfg = ClusterConfig::quick(false, true, 23);
        let healthy = run_cluster(app, &cfg, &corpus());
        let faulted = run_cluster_faulted(
            app,
            &cfg,
            &corpus(),
            &NodeFaultPlan::none(),
            &FabricConfig::quick(),
        );
        assert_eq!(healthy.iteration_ns, faulted.iteration_ns);
        assert_eq!(healthy.total_ns, faulted.total_ns);
        assert_eq!(healthy.mean_node_ns, faulted.mean_node_ns);
        let rep = faulted.fabric.unwrap();
        assert_eq!(rep.retransmits, 0);
        assert_eq!(rep.reassignments, 0);
        assert!(rep.conserved());
        assert_eq!(
            rep.expected_completions,
            cfg.nodes as u64 * cfg.iterations,
            "every node completes every barrier"
        );
        assert!(faulted.coverage.is_empty(), "no recovery path lit up");
    }

    #[test]
    fn node_crash_is_detected_reassigned_and_bounded() {
        let app = &suite()[1];
        let cfg = ClusterConfig::quick(false, false, 29);
        let healthy = run_cluster(app, &cfg, &corpus());
        // Crash node 5 permanently mid-run (~iteration 2 of 5).
        let plan = NodeFaultPlan::new(29).crash(5, 1_000_000, 0);
        let faulted = run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick());
        assert_eq!(
            faulted.iteration_ns.len(),
            cfg.iterations as usize,
            "the barrier must not hang"
        );
        let rep = faulted.fabric.clone().unwrap();
        assert_eq!(rep.crash_detections, 1, "one dead declaration");
        assert!(rep.reexecs >= 1, "the crash-iteration shard is re-executed");
        assert!(
            rep.reassignments >= 1,
            "later iterations reassign the dead shard ahead of time"
        );
        assert!(rep.conserved(), "survivor completions all arrive");
        assert_eq!(rep.unserved_shards, 0, "all shards accounted for");
        // Recovery costs time, but boundedly so.
        assert!(faulted.total_ns > healthy.total_ns);
        assert!(
            faulted.slowdown_vs(&healthy) < 3.0,
            "slowdown {} unbounded",
            faulted.slowdown_vs(&healthy)
        );
        let (rec_n, err_n) = recovery_blocks(&faulted.coverage);
        assert!(rec_n >= 3, "recovery.cluster.* blocks: {rec_n}");
        assert!(err_n >= 2, "err.cluster.* blocks: {err_n}");
        assert!(faulted.trace.total_events() > 0, "recovery steps traced");
    }

    #[test]
    fn crashed_node_reboots_and_rejoins() {
        let app = &suite()[1];
        let cfg = ClusterConfig::quick(false, false, 31);
        // Down for ~2 iterations, then back.
        let plan = NodeFaultPlan::new(31).crash(2, 800_000, 1_500_000);
        let faulted = run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick());
        let rep = faulted.fabric.unwrap();
        assert_eq!(rep.rejoins, 1, "the reboot rejoins the membership");
        assert!(rep.conserved());
        assert!(faulted
            .coverage
            .iter()
            .any(|id| ksa_kernel::coverage::block_name(id) == "recovery.cluster.rejoin"));
    }

    #[test]
    fn healed_partition_retransmits_and_conserves_completions() {
        let app = &suite()[1];
        let cfg = ClusterConfig::quick(false, false, 37);
        let plan = NodeFaultPlan::new(37).partition(500_000, 2_200_000, vec![2, 3]);
        let faulted = run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick());
        let rep = faulted.fabric.unwrap();
        assert!(rep.retransmits > 0, "partitioned sends must retry");
        assert!(
            rep.conserved(),
            "heal conserves completions: {} of {} (lost {})",
            rep.completions,
            rep.expected_completions,
            rep.lost_completions
        );
        assert_eq!(rep.crash_detections, 0, "nobody died");
        let (rec_n, err_n) = recovery_blocks(&faulted.coverage);
        assert!(rec_n >= 1 && err_n >= 1);
    }

    #[test]
    fn lossy_links_dedup_duplicate_completions() {
        let app = &suite()[1];
        let cfg = ClusterConfig::quick(false, false, 41);
        let plan = NodeFaultPlan::new(41).drop_prob_milli(400);
        let faulted = run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick());
        let rep = faulted.fabric.unwrap();
        assert!(rep.retransmits > 0);
        assert!(
            rep.dup_completions_dropped > 0,
            "a lost ack must produce a deduped duplicate at p=0.4"
        );
        assert!(rep.conserved(), "dedup keeps completions exactly-once");
    }

    #[test]
    fn fully_failed_run_stays_defined() {
        let app = &suite()[1];
        let mut cfg = ClusterConfig::quick(false, false, 43);
        cfg.iterations = 3;
        let mut plan = NodeFaultPlan::new(43);
        for n in 0..cfg.nodes {
            plan = plan.crash(n, 0, 0);
        }
        let faulted = run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick());
        let rep = faulted.fabric.clone().unwrap();
        assert!(rep.failed_iters > 0);
        assert!(rep.unserved_shards > 0);
        assert!(faulted.straggler_factor().is_finite());
        assert!(faulted.slowdown_vs(&faulted).is_finite());
        assert_eq!(rep.completion_ratio(), 1.0, "empty expectation is trivial");
        assert_eq!(faulted.iteration_ns.len(), cfg.iterations as usize);
    }

    #[test]
    fn faulted_replay_and_pool_width_are_bit_identical() {
        let app = &suite()[1];
        let mut cfg = ClusterConfig::quick(false, true, 47);
        let plan = NodeFaultPlan::new(47)
            .crash(1, 900_000, 1_200_000)
            .partition(300_000, 1_500_000, vec![4, 5])
            .drop_prob_milli(100);
        cfg.threads = 1;
        let seq = run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick());
        for threads in [4usize, 16] {
            cfg.threads = threads;
            let par = run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick());
            assert_eq!(seq.iteration_ns, par.iteration_ns, "threads={threads}");
            assert_eq!(seq.fabric, par.fabric, "threads={threads}");
        }
        let replay = run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick());
        assert_eq!(replay.iteration_ns, {
            cfg.threads = 16;
            run_cluster_faulted(app, &cfg, &corpus(), &plan, &FabricConfig::quick()).iteration_ns
        });
    }
}
