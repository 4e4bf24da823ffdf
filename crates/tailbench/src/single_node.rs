//! Single-node tail-latency experiments (Figure 3) and the node runner
//! shared with the cluster experiments (Figure 4).
//!
//! The paper's setup: a 64-thread machine divided four ways — under KVM,
//! 4 VMs × 16 cores (one runs the tailbench app, three run a 48-core
//! varbench corpus as noise); under Docker, the same split as 4
//! containers on one shared kernel. Clients drive ~75% utilization.

use std::sync::Arc;

use ksa_desim::{Engine, EngineParams, Ns, TraceConfig, TraceLog};
use ksa_envsim::{build_env_with, EnvKind, EnvSpec, Machine};
use ksa_kernel::prog::Corpus;
use ksa_kernel::{AttributionTable, SpecMask};
use ksa_stats::Samples;
use ksa_varbench::worker::{site_bases, CorpusWorker};

use crate::apps::AppProfile;
use crate::client::{Client, ClientMode, RetryPolicy, ITER_KEY_BASE};
use crate::server::{ServerWorker, SOJOURN_KEY};
use crate::world::{RequestAttribution, TbWorld};

/// Configuration of one single-node run.
#[derive(Debug, Clone, Copy)]
pub struct SingleNodeConfig {
    /// The machine being divided.
    pub machine: Machine,
    /// Number of equal divisions (VMs or containers); the app gets one.
    pub groups: usize,
    /// KVM VMs (true) or Docker containers (false).
    pub virt: bool,
    /// Run the varbench noise corpus on the other groups.
    pub noise: bool,
    /// Requests the client issues (Figure 3 mode).
    pub requests: u64,
    /// Leading samples discarded as warm-up.
    pub warmup: usize,
    /// Target utilization percentage.
    pub util_pct: u64,
    /// Seed.
    pub seed: u64,
    /// Record per-core trace rings during the run (observationally
    /// neutral; attribution is always collected).
    pub trace: bool,
    /// Collect telemetry (engine self-profile plus kernel gauges and
    /// per-tenant request series). Observationally neutral like `trace`.
    pub metrics: bool,
    /// Specialization mask applied to every kernel instance. `None`
    /// (and `Some(SpecMask::full())`) build the unspecialized kernel
    /// bit-identically.
    pub spec: Option<SpecMask>,
}

impl SingleNodeConfig {
    /// One app group on `machine` split `groups` ways, KVM VMs (`virt`)
    /// or Docker containers, with the noise corpus on the other groups
    /// when `noise` is set: 75% utilization, no requests or warm-up
    /// (batched cluster mode), no trace rings, no telemetry and the
    /// unspecialized kernel. Override fields with struct-update syntax:
    /// `SingleNodeConfig { requests: 300, ..SingleNodeConfig::new(..) }`.
    pub fn new(machine: Machine, groups: usize, virt: bool, noise: bool, seed: u64) -> Self {
        Self {
            machine,
            groups,
            virt,
            noise,
            requests: 0,
            warmup: 0,
            util_pct: 75,
            seed,
            trace: false,
            metrics: false,
            spec: None,
        }
    }

    /// The paper's Figure 3 configuration.
    pub fn paper(virt: bool, noise: bool, seed: u64) -> Self {
        let machine = Machine {
            cores: 64,
            mem_mib: 64 * 1024,
        };
        Self {
            requests: 2_000,
            warmup: 200,
            ..Self::new(machine, 4, virt, noise, seed)
        }
    }

    /// A scaled-down configuration for tests.
    pub fn quick(virt: bool, noise: bool, seed: u64) -> Self {
        let machine = Machine {
            cores: 16,
            mem_mib: 8 * 1024,
        };
        Self {
            requests: 300,
            warmup: 30,
            ..Self::new(machine, 4, virt, noise, seed)
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct TailResult {
    /// Application name.
    pub app: String,
    /// Request sojourn times (warm-up removed).
    pub sojourns: Samples,
    /// p99 request latency.
    pub p99: u64,
    /// Per-batch durations (cluster mode; empty otherwise).
    pub batch_durations: Vec<Ns>,
    /// Final virtual time.
    pub sim_ns: Ns,
    /// Engine events processed — the simulated-work unit the bench
    /// suite converts to events/second throughput.
    pub events: u64,
    /// Per-request latency decompositions (all requests, completion
    /// order; `queue_ns + service.total` equals the sojourn exactly).
    pub request_attrib: Vec<RequestAttribution>,
    /// Syscall attribution from the noise co-runners (empty when
    /// `noise` is off).
    pub noise_attrib: AttributionTable,
    /// Client sends dropped by the lossy link and retried (0 on a
    /// perfect link).
    pub client_retries: u64,
    /// Requests abandoned after the client's retry budget ran out.
    pub client_gave_up: u64,
    /// Engine locks allocated across all kernel instances at build time
    /// — the static footprint specialization shrinks.
    pub locks_allocated: u32,
    /// Kernel daemons spawned across all instances.
    pub daemons_spawned: u32,
    /// The recorded trace (empty rings unless tracing was enabled).
    pub trace: TraceLog,
    /// The merged telemetry registry (inert unless
    /// [`SingleNodeConfig::metrics`]).
    pub metrics: ksa_telemetry::Registry,
}

/// Runs one app under `cfg` (Figure 3 point). `noise_corpus` is only
/// used when `cfg.noise` is set.
pub fn run_single_node(
    app: &AppProfile,
    cfg: &SingleNodeConfig,
    noise_corpus: &Corpus,
) -> TailResult {
    run_node(
        app,
        cfg,
        &SharedNoise::new(noise_corpus),
        None,
        RetryPolicy::lossless(),
    )
}

/// The noise corpus prepared for sharing across sweep points: the
/// co-runner workers' owned handle plus the precomputed per-site record
/// keys. Sweeps build this once so each point clones an `Arc`, not the
/// corpus.
struct SharedNoise {
    corpus: Arc<Corpus>,
    bases: Arc<Vec<u64>>,
}

impl SharedNoise {
    fn new(corpus: &Corpus) -> Self {
        Self {
            corpus: Arc::new(corpus.clone()),
            bases: Arc::new(site_bases(corpus)),
        }
    }
}

/// Runs a whole sweep of independent `(app, config)` points concurrently
/// on the deterministic work-stealing pool (`jobs` workers; 0 = auto,
/// 1 = sequential), returning results in input order. This is the
/// engine behind the Figure 3 noise grid (apps × {KVM, Docker} ×
/// {isolated, noisy} × repetition seeds) and the calibration sweep: each
/// point is one single-threaded engine run, so any worker count yields
/// results bit-identical to the sequential sweep. A panicking point
/// (e.g. a stalled node) propagates after every sibling point finished,
/// so one bad configuration cannot silently truncate the grid.
pub fn run_points(
    points: &[(AppProfile, SingleNodeConfig)],
    noise_corpus: &Corpus,
    jobs: usize,
) -> Vec<TailResult> {
    let noise = SharedNoise::new(noise_corpus);
    ksa_desim::pool::parallel_indexed(jobs, points.len(), |i| {
        let (app, cfg) = &points[i];
        run_node(app, cfg, &noise, None, RetryPolicy::lossless())
    })
}

/// Runs one cluster node: `batches` rounds of `per_batch` requests with a
/// local drain between rounds (Figure 4's node-local component).
pub fn run_node_batched(
    app: &AppProfile,
    cfg: &SingleNodeConfig,
    noise_corpus: &Corpus,
    batches: u64,
    per_batch: u64,
) -> TailResult {
    run_node(
        app,
        cfg,
        &SharedNoise::new(noise_corpus),
        Some((batches, per_batch)),
        RetryPolicy::lossless(),
    )
}

fn run_node(
    app: &AppProfile,
    cfg: &SingleNodeConfig,
    noise: &SharedNoise,
    batched: Option<(u64, u64)>,
    retry: RetryPolicy,
) -> TailResult {
    assert!(cfg.machine.cores.is_multiple_of(cfg.groups));
    let per_group = cfg.machine.cores / cfg.groups;

    let mut engine: Engine<TbWorld> =
        Engine::new(TbWorld::new(), EngineParams::default(), cfg.seed);
    if cfg.metrics {
        use ksa_kernel::world::HasKernel;
        use ksa_telemetry::TelemetryConfig;
        engine.set_telemetry(TelemetryConfig::enabled());
        engine.world_mut().kernel_mut().metrics =
            ksa_kernel::KernelTelemetry::new(TelemetryConfig::enabled());
    }
    let kind = if cfg.virt {
        EnvKind::Vm(cfg.groups)
    } else {
        EnvKind::Container(cfg.groups)
    };
    let spec = EnvSpec::new(cfg.machine, kind);
    let built = build_env_with(&mut engine, &spec, cfg.seed, cfg.spec);
    let (locks_allocated, daemons_spawned) = {
        use ksa_kernel::world::HasKernel;
        let k = engine.world().kernel();
        (
            k.instances.iter().map(|i| i.locks_allocated).sum(),
            k.instances.iter().map(|i| i.daemons_spawned).sum(),
        )
    };
    if cfg.trace {
        engine.set_trace(TraceConfig::enabled());
    }

    // The app owns the first group of cores (instance 0 under KVM; the
    // first container's share under Docker).
    let app_cores = &built.cores[..per_group];
    let app_id = engine.world_mut().add_queue();
    let req_q = engine.add_queue();
    let done_q = engine.add_queue();

    for (i, &core) in app_cores.iter().enumerate() {
        let (instance, slot) = {
            use ksa_kernel::world::HasKernel;
            engine.world().kernel().locate(core)
        };
        let worker = ServerWorker::new(
            app.clone(),
            app_id,
            req_q,
            done_q,
            core,
            instance,
            slot,
            cfg.seed ^ ((i as u64 + 1) * 0x9e37),
        );
        engine.spawn(core, Box::new(worker), 0);
    }

    let rate = app.arrival_rate(per_group, cfg.util_pct);
    let mode = match batched {
        None => ClientMode::OpenLoop {
            total: cfg.requests,
        },
        Some((batches, per_batch)) => ClientMode::Batched { batches, per_batch },
    };
    // Client runs on the app's first core; it mostly sleeps. Started
    // slightly late so server setup completes first.
    let client =
        Client::new(app_id, req_q, done_q, rate, mode, cfg.seed ^ 0xc11e).with_retry(retry);
    engine.spawn(app_cores[0], Box::new(client), 50_000);

    // Noise co-runners on the remaining cores.
    if cfg.noise && built.cores.len() > per_group {
        let noise_cores = &built.cores[per_group..];

        // The noise corpus barrier-synchronizes program starts across
        // all noise cores, exactly like the paper's varbench co-runner.
        let barrier = engine.add_barrier(noise_cores.len() as u32);
        for (i, &core) in noise_cores.iter().enumerate() {
            let (instance, slot) = {
                use ksa_kernel::world::HasKernel;
                engine.world().kernel().locate(core)
            };
            let w = CorpusWorker::new(
                Arc::clone(&noise.corpus),
                Arc::clone(&noise.bases),
                usize::MAX,
                Some(barrier),
                core,
                instance,
                slot,
                cfg.seed ^ (0x517e + i as u64),
            )
            .as_daemon();
            engine.spawn(core, Box::new(w), 0);
        }
    }

    let res = engine
        .run()
        .unwrap_or_else(|e| panic!("tailbench node run stalled: {e}"));

    let mut sojourns = Vec::new();
    let mut batch_durations = Vec::new();
    for rec in &res.records {
        if rec.key == SOJOURN_KEY {
            sojourns.push(rec.value);
        } else if rec.key >= ITER_KEY_BASE {
            batch_durations.push(rec.value);
        }
    }
    let kept: Vec<u64> = sojourns
        .iter()
        .copied()
        .skip(cfg.warmup.min(sojourns.len() / 2))
        .collect();
    let mut samples = Samples::from_values(kept);
    let p99 = samples.p99().unwrap_or(0);
    let trace = engine.take_trace();
    let now = engine.now();
    let kernel_metrics = {
        let kw = &mut engine.world_mut().kernel;
        kw.metrics.finish(now, &kw.instances)
    };
    let mut metrics = engine.take_telemetry();
    if metrics.enabled() {
        for (label, acq, cont, total_wait, _max, _hist) in engine.all_lock_wait_stats() {
            let labels = [("label", label.to_string())];
            let a = metrics.counter("lock_acquisitions", &labels);
            let c = metrics.counter("lock_contended", &labels);
            let w = metrics.counter("lock_wait_ns", &labels);
            metrics.add(a, acq);
            metrics.add(c, cont);
            metrics.add(w, total_wait);
        }
    }
    metrics.absorb(&kernel_metrics, &[]);
    let request_attrib = std::mem::take(&mut engine.world_mut().request_attrib);
    let noise_attrib = std::mem::take(&mut engine.world_mut().kernel.attrib);
    let client_retries = engine.world().client_retries;
    let client_gave_up = engine.world().client_gave_up;
    TailResult {
        app: app.name.to_string(),
        sojourns: samples,
        p99,
        batch_durations,
        sim_ns: res.clock,
        events: res.events,
        request_attrib,
        noise_attrib,
        client_retries,
        client_gave_up,
        locks_allocated,
        daemons_spawned,
        trace,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::suite;
    use ksa_kernel::{Arg, Call, Program, SysNo};

    fn noise_corpus() -> Corpus {
        Corpus {
            programs: vec![
                Program {
                    calls: vec![
                        Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                        Call::new(SysNo::Write, vec![Arg::Ref(0), Arg::Const(16_000)]),
                        Call::new(SysNo::Fsync, vec![Arg::Ref(0)]),
                    ],
                },
                Program {
                    calls: vec![
                        Call::new(SysNo::Mmap, vec![Arg::Const(64), Arg::Const(1)]),
                        Call::new(SysNo::Munmap, vec![Arg::Ref(0)]),
                        Call::new(SysNo::Clone, vec![Arg::Const(0)]),
                        Call::new(SysNo::Wait4, vec![Arg::Ref(2)]),
                    ],
                },
            ],
        }
    }

    #[test]
    fn isolated_run_completes_and_records() {
        let app = &suite()[1]; // masstree: short requests
        let cfg = SingleNodeConfig::quick(false, false, 3);
        let res = run_single_node(app, &cfg, &noise_corpus());
        assert_eq!(
            res.sojourns.len() as u64,
            cfg.requests - cfg.warmup as u64,
            "all post-warmup requests recorded"
        );
        assert!(res.p99 > 0);
        assert!(res.sim_ns > 0);
    }

    #[test]
    fn noise_increases_docker_tail() {
        let app = &suite()[0]; // xapian: kernel-intensive
        let quiet = run_single_node(
            app,
            &SingleNodeConfig::quick(false, false, 5),
            &noise_corpus(),
        );
        let noisy = run_single_node(
            app,
            &SingleNodeConfig::quick(false, true, 5),
            &noise_corpus(),
        );
        assert!(
            noisy.p99 > quiet.p99,
            "noise must raise the Docker tail: {} vs {}",
            noisy.p99,
            quiet.p99
        );
    }

    #[test]
    fn kvm_bounds_noise_better_than_docker() {
        let app = &suite()[0]; // xapian
        let mk = |virt, noise| {
            run_single_node(
                app,
                &SingleNodeConfig::quick(virt, noise, 11),
                &noise_corpus(),
            )
        };
        let docker_quiet = mk(false, false);
        let docker_noisy = mk(false, true);
        let kvm_quiet = mk(true, false);
        let kvm_noisy = mk(true, true);
        let docker_blowup = docker_noisy.p99 as f64 / docker_quiet.p99.max(1) as f64;
        let kvm_blowup = kvm_noisy.p99 as f64 / kvm_quiet.p99.max(1) as f64;
        assert!(
            kvm_blowup < docker_blowup,
            "isolation must bound the blowup: kvm {kvm_blowup:.2} vs docker {docker_blowup:.2}"
        );
    }

    #[test]
    fn batched_mode_reports_durations() {
        let app = &suite()[1];
        let cfg = SingleNodeConfig::quick(false, false, 9);
        let res = run_node_batched(app, &cfg, &noise_corpus(), 5, 40);
        assert_eq!(res.batch_durations.len(), 5);
        assert!(res.batch_durations.iter().all(|&d| d > 0));
    }

    #[test]
    fn request_attribution_decomposes_every_request() {
        let app = &suite()[1];
        let cfg = SingleNodeConfig::quick(true, false, 13);
        let res = run_single_node(app, &cfg, &noise_corpus());
        assert_eq!(res.request_attrib.len() as u64, cfg.requests);
        for r in &res.request_attrib {
            assert!(r.service.is_exact(), "components must sum to total");
        }
        // Under KVM the requests pay virtualization exits.
        let vm_exit: u64 = res.request_attrib.iter().map(|r| r.service.vm_exit).sum();
        assert!(vm_exit > 0, "VM requests must show exit overhead");
        // Noise off ⇒ no corpus syscalls attributed.
        assert_eq!(res.noise_attrib.calls(), 0);
    }

    #[test]
    fn noise_attribution_and_tracing_are_neutral() {
        let app = &suite()[0];
        let cfg = SingleNodeConfig::quick(false, true, 17);
        let plain = run_single_node(app, &cfg, &noise_corpus());
        let traced = run_single_node(
            app,
            &SingleNodeConfig { trace: true, ..cfg },
            &noise_corpus(),
        );
        assert_eq!(plain.p99, traced.p99, "tracing must not move the tail");
        assert_eq!(plain.sim_ns, traced.sim_ns);
        assert_eq!(plain.trace.total_events(), 0);
        assert!(traced.trace.total_events() > 0);
        // The noise co-runners' syscalls are attributed.
        assert!(plain.noise_attrib.calls() > 0);
        assert!(plain.noise_attrib.grand_total().is_exact());
    }

    #[test]
    fn lossless_retry_policy_is_bit_identical_to_no_policy() {
        let app = &suite()[1];
        let cfg = SingleNodeConfig::quick(false, false, 23);
        let plain = run_single_node(app, &cfg, &noise_corpus());
        let noise = SharedNoise::new(&noise_corpus());
        let wrapped = run_node(app, &cfg, &noise, None, RetryPolicy::lossless());
        assert_eq!(plain.p99, wrapped.p99);
        assert_eq!(plain.sim_ns, wrapped.sim_ns);
        assert_eq!(plain.sojourns.raw(), wrapped.sojourns.raw());
        assert_eq!(wrapped.client_retries, 0);
        assert_eq!(wrapped.client_gave_up, 0);
    }

    #[test]
    fn lossy_link_retries_raise_the_tail_deterministically() {
        let app = &suite()[1];
        let cfg = SingleNodeConfig::quick(false, false, 27);
        let clean = run_single_node(app, &cfg, &noise_corpus());
        let noise = SharedNoise::new(&noise_corpus());
        let policy = RetryPolicy::lossy(300, 91);
        let lossy = run_node(app, &cfg, &noise, None, policy);
        assert!(
            lossy.client_retries > 0,
            "a 30% drop rate must force retransmits"
        );
        assert!(
            lossy.p99 > clean.p99,
            "retry backoff must land in the tail: {} vs {}",
            lossy.p99,
            clean.p99
        );
        // Accounting: every issued request either completed (has a
        // sojourn sample pre-warmup) or was abandoned.
        assert_eq!(
            lossy.sojourns.len() as u64 + cfg.warmup as u64 + lossy.client_gave_up,
            cfg.requests,
            "issued = measured + warmup + gave_up"
        );
        // Bit-identical replay, counters included.
        let again = run_node(app, &cfg, &noise, None, policy);
        assert_eq!(lossy.p99, again.p99);
        assert_eq!(lossy.sim_ns, again.sim_ns);
        assert_eq!(lossy.client_retries, again.client_retries);
        assert_eq!(lossy.client_gave_up, again.client_gave_up);
    }

    #[test]
    fn metrics_are_neutral_and_count_every_request() {
        let app = &suite()[1];
        let cfg = SingleNodeConfig::quick(false, true, 19);
        let off = run_single_node(app, &cfg, &noise_corpus());
        let on = run_single_node(
            app,
            &SingleNodeConfig {
                metrics: true,
                ..cfg
            },
            &noise_corpus(),
        );
        assert_eq!(off.p99, on.p99, "telemetry must not move the tail");
        assert_eq!(off.sim_ns, on.sim_ns);
        assert_eq!(off.sojourns.raw(), on.sojourns.raw());
        assert!(!off.metrics.enabled());
        assert!(on.metrics.enabled());
        // Per-tenant request series cover every request the server
        // completed (warmup included: telemetry sees the raw stream).
        assert_eq!(on.metrics.total("tenant_requests"), cfg.requests);
        // The noise co-runners' syscalls land in the category counters,
        // mirroring the noise attribution table exactly.
        assert_eq!(
            on.metrics.total("syscall_ns"),
            on.noise_attrib.grand_total().total
        );
        assert!(on.metrics.samples_taken >= 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let app = &suite()[6]; // silo
        let cfg = SingleNodeConfig::quick(true, false, 21);
        let a = run_single_node(app, &cfg, &noise_corpus());
        let b = run_single_node(app, &cfg, &noise_corpus());
        assert_eq!(a.p99, b.p99);
        assert_eq!(a.sim_ns, b.sim_ns);
    }

    #[test]
    fn parallel_sweep_matches_sequential_point_by_point() {
        let apps = suite();
        let mut points: Vec<(crate::apps::AppProfile, SingleNodeConfig)> = Vec::new();
        for ai in [1usize, 6] {
            for (virt, noise) in [(true, false), (false, true)] {
                points.push((
                    apps[ai].clone(),
                    SingleNodeConfig::quick(virt, noise, 31 + ai as u64),
                ));
            }
        }
        let corpus = noise_corpus();
        let seq = run_points(&points, &corpus, 1);
        let par = run_points(&points, &corpus, 4);
        assert_eq!(seq.len(), points.len());
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(a.app, points[i].0.name, "slot {i} out of order");
            assert_eq!(a.app, b.app, "slot {i}");
            assert_eq!(a.p99, b.p99, "slot {i}: tails diverged");
            assert_eq!(a.sim_ns, b.sim_ns, "slot {i}: clocks diverged");
            assert_eq!(
                a.sojourns.raw(),
                b.sojourns.raw(),
                "slot {i}: samples diverged"
            );
        }
    }
}
