//! Churnbench: high-density serverless tenant churn over one simulated
//! machine.
//!
//! Sweeps concurrent-tenant density far past the core count (64 → 4096
//! tenants over a handful of cores) and measures the three quantities
//! the paper's isolation argument turns on:
//!
//! * **cold-start latency** — arrival to serving, admission queueing
//!   included;
//! * **per-tenant p99 isolation** — the worst single tenant's request
//!   tail, not just the aggregate tail (aggregates hide victims);
//! * **steady-state throughput** — completed requests per simulated
//!   second.
//!
//! On top of the timings, every run audits kernel-table hygiene after
//! full churn: with slot-reusing fd/socket allocation the tables are
//! bounded by *peak concurrency*, not total tenants ever served —
//! `fds.len() <= peak_open_fds` per slot and `socks.len() <= peak_socks`
//! per instance, with nothing live after the last exit. The pre-fix
//! push-only allocator fails these audits at any density.

use ksa_desim::{Engine, EngineParams, Ns};
use ksa_envsim::tenant::{
    spawn_churn_hosts, split_key, ChurnParams, COLD_START_KEY, EXIT_KEY, REQUEST_KEY,
};
use ksa_envsim::{build_env_with, EnvKind, EnvSpec, Machine};
use ksa_kernel::world::KernelWorld;
use ksa_kernel::SpecMask;
use ksa_stats::Samples;

/// One churn run's full configuration.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// The machine being churned.
    pub machine: Machine,
    /// Deployment style (shared container host vs partitioned VMs).
    pub kind: EnvKind,
    /// Workload shape (density, tenant count, arrival/request rates).
    pub params: ChurnParams,
    /// Seed for the arrival schedule and every host RNG.
    pub seed: u64,
    /// Optional kernel specialization mask for every instance.
    pub spec: Option<SpecMask>,
}

impl ChurnConfig {
    /// A quick configuration: `density` tenants resident at peak,
    /// `2 * density` tenants total, on a small machine.
    pub fn quick(kind: EnvKind, density: usize, seed: u64) -> Self {
        Self {
            machine: Machine {
                cores: 4,
                mem_mib: 4 * 1024,
            },
            kind,
            params: ChurnParams::quick(density, 2 * density),
            seed,
            spec: None,
        }
    }
}

/// Everything one churn run reports.
#[derive(Debug, Clone)]
pub struct ChurnResult {
    /// Cold-start latencies, tenant-arrival order.
    pub cold_starts: Samples,
    /// Median cold start.
    pub cold_p50: u64,
    /// p99 cold start.
    pub cold_p99: u64,
    /// All request sojourns (every tenant pooled).
    pub requests: Samples,
    /// Aggregate request p99.
    pub req_p99: u64,
    /// The worst single tenant's request p99 — the per-tenant isolation
    /// number (aggregate tails hide victims).
    pub worst_tenant_p99: u64,
    /// Tenants admitted (cold-start records seen).
    pub arrived: u64,
    /// Tenants that completed their exit sequence.
    pub exited: u64,
    /// Completed requests.
    pub requests_completed: u64,
    /// Final simulated clock.
    pub sim_ns: Ns,
    /// Engine events processed.
    pub events: u64,
    /// Completed requests per simulated second.
    pub throughput_rps: f64,
    /// Post-churn fd-table length summed over every slot.
    pub fd_table_len: u64,
    /// Peak concurrently-open descriptors summed over every slot.
    pub fd_peak: u64,
    /// Descriptors still open after the final sweeps (must be 0).
    pub fd_open_after: u64,
    /// Post-churn socket-table length summed over every instance.
    pub sock_table_len: u64,
    /// Peak concurrently-live sockets summed over every instance.
    pub sock_peak: u64,
    /// Sockets still live after the final sweeps (must be 0).
    pub sock_live_after: u64,
    /// Every slot satisfied `fds.len() <= peak_open_fds` and every
    /// instance `socks.len() <= peak_socks` — the slot-reuse bound —
    /// and the kernel's lookup indexes agree with the tables they
    /// index: each slot's free-fd heap holds exactly its closed fds, its
    /// mapped-VMA count matches its VMA table, and no socket is still
    /// counted as queued on an accept backlog.
    pub tables_bounded: bool,
    /// Engine locks allocated at build time.
    pub locks_allocated: u32,
    /// Kernel daemons spawned.
    pub daemons_spawned: u32,
    /// FNV-1a over the clock, event count and the full record stream —
    /// the determinism digest replay/pool-width gates compare.
    pub digest: u64,
}

/// Runs one churn configuration to completion.
pub fn run_churn(cfg: &ChurnConfig) -> ChurnResult {
    let mut engine: Engine<KernelWorld> =
        Engine::new(KernelWorld::new(), EngineParams::default(), cfg.seed);
    let spec = EnvSpec::new(cfg.machine, cfg.kind);
    let built = build_env_with(&mut engine, &spec, cfg.seed, cfg.spec);
    let (locks_allocated, daemons_spawned) = {
        let k = engine.world();
        (
            k.instances.iter().map(|i| i.locks_allocated).sum(),
            k.instances.iter().map(|i| i.daemons_spawned).sum(),
        )
    };
    spawn_churn_hosts(&mut engine, &built, &cfg.params, cfg.seed);
    let res = engine
        .run()
        .unwrap_or_else(|e| panic!("churn run stalled: {e}"));

    // Decode the record stream: per-tenant cold starts, sojourns, exits.
    let mut cold = Vec::new();
    let mut reqs = Vec::new();
    // Tenant ids are dense in `0..tenants`: index by id, no map lookup.
    let mut per_tenant: Vec<Vec<u64>> = vec![Vec::new(); cfg.params.tenants];
    let mut exited = 0u64;
    let mut digest = 0xcbf29ce484222325u64;
    let mut fold = |v: u64| digest = (digest ^ v).wrapping_mul(0x100000001b3);
    fold(res.clock);
    fold(res.events);
    for rec in &res.records {
        fold(rec.key);
        fold(rec.t);
        fold(rec.value);
        let (kind, id) = split_key(rec.key);
        match kind {
            COLD_START_KEY => cold.push(rec.value),
            REQUEST_KEY => {
                reqs.push(rec.value);
                per_tenant[id as usize].push(rec.value);
            }
            EXIT_KEY => exited += 1,
            _ => {}
        }
    }
    let worst_tenant_p99 = per_tenant
        .into_iter()
        .filter_map(|v| Samples::from_values(v).p99())
        .max()
        .unwrap_or(0);

    // Post-churn table audits across the whole machine.
    let k = engine.world();
    let mut fd_table_len = 0u64;
    let mut fd_peak = 0u64;
    let mut fd_open_after = 0u64;
    let mut sock_table_len = 0u64;
    let mut sock_peak = 0u64;
    let mut sock_live_after = 0u64;
    let mut tables_bounded = true;
    for inst in &k.instances {
        for slot in &inst.state.slots {
            fd_table_len += slot.fds.len() as u64;
            fd_peak += slot.peak_open_fds;
            fd_open_after += slot.open_fds;
            tables_bounded &= slot.fds.len() as u64 <= slot.peak_open_fds
                && slot.free_fds.len() as u64 + slot.open_fds == slot.fds.len() as u64
                && slot.mapped_vmas == slot.vmas.iter().filter(|v| v.mapped).count() as u64;
        }
        let net = &inst.state.net;
        sock_table_len += net.socks.len() as u64;
        sock_peak += net.peak_socks;
        sock_live_after += net.live_socks;
        tables_bounded &= net.socks.len() as u64 <= net.peak_socks
            && net.socks.iter().all(|s| s.backlog_refs == 0);
    }

    let mut cold_samples = Samples::from_values(cold);
    let mut req_samples = Samples::from_values(reqs);
    let requests_completed = req_samples.len() as u64;
    let throughput_rps = if res.clock > 0 {
        requests_completed as f64 * 1e9 / res.clock as f64
    } else {
        0.0
    };
    ChurnResult {
        cold_p50: cold_samples.median().unwrap_or(0),
        cold_p99: cold_samples.p99().unwrap_or(0),
        req_p99: req_samples.p99().unwrap_or(0),
        worst_tenant_p99,
        arrived: cold_samples.len() as u64,
        exited,
        requests_completed,
        sim_ns: res.clock,
        events: res.events,
        throughput_rps,
        fd_table_len,
        fd_peak,
        fd_open_after,
        sock_table_len,
        sock_peak,
        sock_live_after,
        tables_bounded,
        locks_allocated,
        daemons_spawned,
        digest,
        cold_starts: cold_samples,
        requests: req_samples,
    }
}

/// Runs independent churn points concurrently on the deterministic
/// worker pool (`jobs` workers; 0 = auto, 1 = sequential), returning
/// results in input order. Each point is one single-threaded engine
/// run, so any pool width yields bit-identical results. A panicking
/// point propagates after every sibling finished.
pub fn run_churn_points(configs: &[ChurnConfig], jobs: usize) -> Vec<ChurnResult> {
    ksa_desim::pool::parallel_indexed(jobs, configs.len(), |i| run_churn(&configs[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_conserves_tenants_and_bounds_tables() {
        let cfg = ChurnConfig::quick(EnvKind::Container(8), 64, 7);
        let res = run_churn(&cfg);
        assert_eq!(
            res.arrived, cfg.params.tenants as u64,
            "every tenant admitted"
        );
        assert_eq!(
            res.arrived, res.exited,
            "arrived == exited + live, live == 0"
        );
        assert!(res.requests_completed > 0);
        assert_eq!(res.fd_open_after, 0, "descriptors leaked past exit");
        assert_eq!(res.sock_live_after, 0, "sockets leaked past exit");
        assert!(
            res.tables_bounded,
            "table length exceeded peak concurrency: fds {}/{} socks {}/{}",
            res.fd_table_len, res.fd_peak, res.sock_table_len, res.sock_peak
        );
    }

    #[test]
    fn churn_replays_bit_identically() {
        let cfg = ChurnConfig::quick(EnvKind::Vm(2), 32, 11);
        let a = run_churn(&cfg);
        let b = run_churn(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.sim_ns, b.sim_ns);
        assert_eq!(a.cold_p99, b.cold_p99);
        assert_eq!(a.worst_tenant_p99, b.worst_tenant_p99);
    }

    #[test]
    fn density_overload_raises_cold_starts() {
        // 16x the density on the same machine must push admission
        // queueing into the cold-start tail.
        let lo = run_churn(&ChurnConfig::quick(EnvKind::Container(4), 8, 13));
        let hi = run_churn(&ChurnConfig::quick(EnvKind::Container(4), 128, 13));
        assert!(
            hi.cold_p99 > lo.cold_p99,
            "density must cost cold starts: {} vs {}",
            hi.cold_p99,
            lo.cold_p99
        );
    }

    #[test]
    fn pool_width_is_invisible() {
        let configs: Vec<ChurnConfig> = [(EnvKind::Container(4), 16u64), (EnvKind::Vm(4), 17)]
            .into_iter()
            .map(|(kind, seed)| ChurnConfig::quick(kind, 32, seed))
            .collect();
        let seq = run_churn_points(&configs, 1);
        for jobs in [4usize, 0] {
            let par = run_churn_points(&configs, jobs);
            for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                assert_eq!(a.digest, b.digest, "slot {i} (jobs {jobs}) diverged");
            }
        }
    }
}
