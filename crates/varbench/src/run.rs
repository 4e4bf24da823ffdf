//! Running a corpus over an environment and aggregating samples.
//!
//! The harness is **crash-proof** and **parallel**: a trial that
//! deadlocks, livelocks or panics must not take the rest of a
//! measurement campaign with it, and independent trials must not wait on
//! each other. [`run_hooked`] returns `Result` instead of panicking;
//! [`run_configs`] executes trials concurrently on the deterministic
//! work-stealing pool ([`ksa_desim::pool`]) with each trial isolated
//! behind `catch_unwind`. Worker counts come from the caller (`--jobs`) or
//! the `KSA_JOBS` environment variable; `jobs == 1` is the sequential
//! baseline, and for every worker count the output vector is
//! **bit-identical** to that baseline (the engine is single-threaded per
//! trial, so parallelism across trials cannot perturb simulated time —
//! `parallel_runner_matches_sequential_bit_identically` in
//! `tests/properties.rs` pins this).

use ksa_desim::{Engine, SimError, TraceLog};
use ksa_envsim::{EnvSpec, Trial};
use ksa_kernel::prog::Corpus;
use ksa_kernel::world::KernelWorld;
use ksa_kernel::{AttributionTable, Category, SpecMask, SysNo};
use ksa_stats::Samples;
use ksa_telemetry::Registry;

use crate::contention::ContentionProfile;
use crate::worker::SharedCorpus;

/// One measurement run's configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The environment to deploy.
    pub env: EnvSpec,
    /// Corpus iterations (the paper uses 100).
    pub iterations: usize,
    /// Barrier-synchronize program starts across all cores (the paper's
    /// default; `false` is the ablation).
    pub sync: bool,
    /// Trial seed.
    pub seed: u64,
    /// Watchdog: abort the trial as livelocked after this many engine
    /// events (0 = unlimited). Converts a never-terminating simulation
    /// into a reportable [`RunError::Sim`] instead of a hung campaign.
    pub max_events: u64,
    /// Record a trace (per-core event rings) during the run. Strictly
    /// observational: enabling it cannot change any measured latency
    /// (the zero-observer-effect property test pins this). Latency
    /// *attribution* is always collected; this switch only governs the
    /// event rings exported as Chrome trace JSON.
    pub trace: bool,
    /// Collect telemetry (engine self-profile counters plus kernel
    /// subsystem gauges and per-category syscall series). Strictly
    /// observational like `trace`: a disabled run is bit-identical to
    /// one that never heard of telemetry (`ablate obs` gates this).
    pub metrics: bool,
    /// Specialization mask applied to every kernel instance. `None`
    /// (and `Some(SpecMask::full())`) is the unspecialized kernel,
    /// bit-identical to a run without the field; a narrower mask gates
    /// daemons and lock footprint and turns out-of-allowlist calls into
    /// `ENOSYS` error paths.
    pub spec: Option<SpecMask>,
}

impl RunConfig {
    /// The paper's default measurement: `iterations` barrier-synced
    /// passes over `env` with `seed`, no watchdog, no trace rings, no
    /// telemetry and the unspecialized kernel. Override fields with
    /// struct-update syntax: `RunConfig { sync: false, ..RunConfig::new(..) }`.
    pub fn new(env: EnvSpec, iterations: usize, seed: u64) -> Self {
        RunConfig {
            env,
            iterations,
            sync: true,
            seed,
            max_events: 0,
            trace: false,
            metrics: false,
            spec: None,
        }
    }
}

/// Why a trial failed.
#[derive(Debug)]
pub enum RunError {
    /// The simulation stopped abnormally (deadlock or watchdog-detected
    /// livelock).
    Sim(SimError),
    /// The trial panicked; the payload is the panic message.
    Panicked(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::Panicked(msg) => write!(f, "trial panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Per-site aggregated latencies.
#[derive(Debug, Clone)]
pub struct SiteResult {
    /// Program index in the corpus.
    pub prog: usize,
    /// Call index within the program.
    pub call: usize,
    /// The syscall at this site.
    pub sysno: SysNo,
    /// All latency samples (cores × iterations).
    pub samples: Samples,
}

impl SiteResult {
    /// Whether this site belongs to `cat`.
    pub fn in_category(&self, cat: Category) -> bool {
        self.sysno.categories().contains(&cat)
    }
}

/// A completed run.
#[derive(Debug)]
pub struct RunResult {
    /// The configuration that produced it.
    pub config: RunConfig,
    /// Per-site results, ordered by (prog, call).
    pub sites: Vec<SiteResult>,
    /// Final virtual clock (run length in simulated time).
    pub sim_ns: u64,
    /// Engine events processed — the simulated-work unit the bench
    /// suite converts to events/second throughput.
    pub events: u64,
    /// Which kernel locks were contended during the run, with wait
    /// durations.
    pub contention: ContentionProfile,
    /// Per-syscall / per-category latency attribution (always collected).
    pub attrib: AttributionTable,
    /// The recorded trace (empty rings unless [`RunConfig::trace`]).
    pub trace: TraceLog,
    /// The merged telemetry registry: engine self-profile, kernel
    /// subsystem gauges, per-category syscall counters and per-label
    /// lock-wait totals (inert unless [`RunConfig::metrics`]).
    pub metrics: Registry,
}

impl RunResult {
    /// Collects one summary value per site via `f` (e.g. median or max),
    /// optionally filtered to a category.
    pub fn per_site(
        &mut self,
        cat: Option<Category>,
        f: impl Fn(&mut Samples) -> Option<u64>,
    ) -> Vec<u64> {
        self.sites
            .iter_mut()
            .filter(|s| cat.is_none_or(|c| s.in_category(c)))
            .filter_map(|s| f(&mut s.samples))
            .collect()
    }
}

/// Deploys `corpus` on `cfg.env` with one worker per core and runs to
/// completion, aggregating per-site samples. `hook` may mutate the
/// engine after the environment is built and before workers spawn
/// (pass `|_| {}` for a plain run) — used by ablations
/// (e.g. zeroing virtualization profiles to isolate the isolation
/// benefit from the virtualization cost, or installing a
/// [`ksa_desim::FaultPlan`] for fault-injection trials).
pub fn run_hooked(
    cfg: &RunConfig,
    corpus: &Corpus,
    hook: impl FnOnce(&mut Engine<KernelWorld>),
) -> Result<RunResult, RunError> {
    let shared = SharedCorpus::new(corpus);
    run_hooked_shared(cfg, &shared, hook)
}

fn run_hooked_shared(
    cfg: &RunConfig,
    shared: &SharedCorpus,
    hook: impl FnOnce(&mut Engine<KernelWorld>),
) -> Result<RunResult, RunError> {
    let mut trial = Trial::new(
        KernelWorld::new(),
        &cfg.env,
        cfg.seed,
        cfg.spec,
        cfg.trace,
        cfg.metrics,
    );
    let engine = &mut trial.engine;
    if cfg.max_events > 0 {
        engine.set_event_budget(cfg.max_events);
    }
    hook(engine);

    let cores = &trial.built.cores;
    let barrier = cfg.sync.then(|| engine.add_barrier(cores.len() as u32));
    for (i, &core) in cores.iter().enumerate() {
        let seed = cfg.seed ^ (0x9e3779b97f4a7c15u64.wrapping_mul(i as u64 + 1));
        let worker = shared.worker(engine, core, cfg.iterations, barrier, seed);
        engine.spawn(core, Box::new(worker), 0);
    }

    let res = engine.run()?;

    // Group records by site key.
    let mut sites: Vec<SiteResult> = Vec::new();
    for (pi, p) in shared.corpus.programs.iter().enumerate() {
        for (ci, call) in p.calls.iter().enumerate() {
            sites.push(SiteResult {
                prog: pi,
                call: ci,
                sysno: call.no,
                samples: Samples::with_capacity(cores.len() * cfg.iterations),
            });
        }
    }
    for rec in &res.records {
        let idx = rec.key as usize;
        if idx < sites.len() {
            sites[idx].samples.push(rec.value);
        }
    }
    for s in &mut sites {
        s.samples.freeze();
    }
    let mut contention = ContentionProfile::default();
    for (label, acq, cont, total_wait, max_wait) in engine.all_lock_wait_stats() {
        contention.add_waits(label, acq, cont, total_wait, max_wait);
    }
    let obs = trial.finish();
    Ok(RunResult {
        config: *cfg,
        sites,
        sim_ns: res.clock,
        events: res.events,
        contention,
        attrib: obs.attrib,
        trace: obs.trace,
        metrics: obs.metrics,
    })
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs several configurations concurrently on the deterministic
/// work-stealing pool, with results in input order. `jobs` is the worker
/// count (`0` = auto: `KSA_JOBS` or available parallelism; `1` =
/// strictly sequential on the calling thread). Every worker count
/// produces a bit-identical output vector: the engine is single-threaded
/// per trial and results land in index-addressed slots. Each trial is
/// panic-isolated: one failing trial never discards the others' results.
///
/// `hook(trial_index, &mut engine)` runs after the environment is built
/// and before workers spawn (pass `&|_, _| {}` for plain trials) — how a
/// campaign installs [`ksa_desim::FaultPlan`]s or ablation overrides on
/// specific trials. The hook must be `Sync`: it is shared by all pool
/// workers (each invocation still runs on exactly one trial's thread).
pub fn run_configs<H>(
    configs: &[RunConfig],
    corpus: &Corpus,
    jobs: usize,
    hook: &H,
) -> Vec<Result<RunResult, RunError>>
where
    H: Fn(usize, &mut Engine<KernelWorld>) + Sync,
{
    let shared = SharedCorpus::new(corpus);
    let shared = &shared;
    let tasks: Vec<_> = configs
        .iter()
        .enumerate()
        .map(|(i, cfg)| move || run_hooked_shared(cfg, shared, |engine| hook(i, engine)))
        .collect();
    ksa_desim::pool::run_tasks(jobs, tasks)
        .into_iter()
        .map(|r| match r {
            Ok(res) => res,
            // The pool already ran the trial under catch_unwind; a
            // payload here is the trial's own panic. Report it in the
            // trial's slot rather than propagating.
            Err(payload) => Err(RunError::Panicked(panic_message(payload.as_ref()))),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_envsim::{EnvKind, Machine};
    use ksa_kernel::{Arg, Call, Program};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn tiny_corpus() -> Corpus {
        Corpus {
            programs: vec![
                Program {
                    calls: vec![
                        Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                        Call::new(SysNo::Write, vec![Arg::Ref(0), Arg::Const(8192)]),
                        Call::new(SysNo::Fsync, vec![Arg::Ref(0)]),
                        Call::new(SysNo::Close, vec![Arg::Ref(0)]),
                    ],
                },
                Program {
                    calls: vec![
                        Call::new(SysNo::Mmap, vec![Arg::Const(32), Arg::Const(1)]),
                        Call::new(SysNo::Munmap, vec![Arg::Ref(0)]),
                    ],
                },
                Program {
                    calls: vec![
                        Call::new(SysNo::Getpid, vec![]),
                        Call::new(SysNo::SchedYield, vec![]),
                    ],
                },
            ],
        }
    }

    fn cfg(kind: EnvKind, iters: usize) -> RunConfig {
        let machine = Machine {
            cores: 4,
            mem_mib: 1024,
        };
        RunConfig::new(EnvSpec::new(machine, kind), iters, 99)
    }

    #[test]
    fn run_collects_all_samples() {
        let corpus = tiny_corpus();
        let res = run_hooked(&cfg(EnvKind::Native, 5), &corpus, |_| {}).unwrap();
        assert_eq!(res.sites.len(), 8);
        for s in &res.sites {
            assert_eq!(
                s.samples.len(),
                4 * 5,
                "site {}/{} ({}) should have cores×iters samples",
                s.prog,
                s.call,
                s.sysno.name()
            );
        }
        assert!(res.sim_ns > 0);
    }

    #[test]
    fn sync_serializes_program_starts() {
        // With sync on, all cores execute program boundaries together;
        // latencies for the contended fsync site should exceed the
        // unsynced case on average (contention is concentrated).
        let corpus = tiny_corpus();
        let mut synced = run_hooked(&cfg(EnvKind::Native, 10), &corpus, |_| {}).unwrap();
        let mut unsynced = run_hooked(
            &RunConfig {
                sync: false,
                ..cfg(EnvKind::Native, 10)
            },
            &corpus,
            |_| {},
        )
        .unwrap();
        // Just verify both produce complete data and the synced run is
        // not faster in total (barriers serialize).
        assert!(synced.sim_ns >= unsynced.sim_ns / 4);
        let s_med = synced.per_site(None, |s| s.median());
        let u_med = unsynced.per_site(None, |s| s.median());
        assert_eq!(s_med.len(), u_med.len());
    }

    #[test]
    fn vm_env_runs_and_isolates() {
        let corpus = tiny_corpus();
        let res = run_hooked(&cfg(EnvKind::Vm(4), 5), &corpus, |_| {}).unwrap();
        assert_eq!(res.sites.len(), 8);
        for s in &res.sites {
            assert_eq!(s.samples.len(), 20);
        }
    }

    #[test]
    fn container_env_runs() {
        let corpus = tiny_corpus();
        let res = run_hooked(&cfg(EnvKind::Container(4), 3), &corpus, |_| {}).unwrap();
        assert_eq!(res.sites[0].samples.len(), 12);
    }

    #[test]
    fn per_site_filters_by_category() {
        let corpus = tiny_corpus();
        let mut res = run_hooked(&cfg(EnvKind::Native, 2), &corpus, |_| {}).unwrap();
        let mm = res.per_site(Some(Category::Memory), |s| s.median());
        assert_eq!(mm.len(), 2, "mmap + munmap");
        let all = res.per_site(None, |s| s.median());
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn attribution_is_collected_and_exact() {
        let corpus = tiny_corpus();
        let res = run_hooked(&cfg(EnvKind::Native, 3), &corpus, |_| {}).unwrap();
        // 8 sites × 4 cores × 3 iterations.
        assert_eq!(res.attrib.calls(), 8 * 4 * 3);
        let grand = res.attrib.grand_total();
        assert!(grand.total > 0);
        assert!(grand.is_exact(), "components must sum to total");
        for (no, (calls, agg)) in res.attrib.by_sysno() {
            assert!(*calls > 0);
            assert!(agg.is_exact(), "{}: inexact aggregate", no.name());
        }
        // fsync under sync pressure contends the journal; wait durations
        // must show up both per label and in the component totals.
        assert!(res.attrib.grand_total().lock_wait > 0);
        assert!(!res.attrib.lock_wait_by_label.is_empty());
    }

    #[test]
    fn contention_profile_reports_wait_durations() {
        let corpus = tiny_corpus();
        let res = run_hooked(&cfg(EnvKind::Native, 5), &corpus, |_| {}).unwrap();
        assert!(
            res.contention.total_wait_ns() > 0,
            "4 synced cores must queue somewhere"
        );
        let hot = res.contention.hotspots();
        // Worst-first by duration.
        for w in hot.windows(2) {
            assert!(
                (w[0].1.total_wait_ns, w[0].1.contended)
                    >= (w[1].1.total_wait_ns, w[1].1.contended)
            );
        }
        // Per-label waits in the attribution table agree with the
        // engine-level profile in aggregate: both came from the same
        // grants.
        let attrib_wait: u64 = res.attrib.lock_wait_by_label.values().sum();
        assert_eq!(attrib_wait, res.attrib.grand_total().lock_wait);
    }

    #[test]
    fn tracing_is_observationally_neutral_and_records() {
        let corpus = tiny_corpus();
        let off = run_hooked(&cfg(EnvKind::Vm(2), 2), &corpus, |_| {}).unwrap();
        let on = run_hooked(
            &RunConfig {
                trace: true,
                ..cfg(EnvKind::Vm(2), 2)
            },
            &corpus,
            |_| {},
        )
        .unwrap();
        assert_eq!(off.sim_ns, on.sim_ns, "tracing must not perturb timing");
        for (a, b) in off.sites.iter().zip(&on.sites) {
            assert_eq!(a.samples.raw(), b.samples.raw());
        }
        assert_eq!(off.trace.total_events(), 0);
        assert!(on.trace.total_events() > 0);
        // The rings carry kernel-layer syscall marks, not just engine
        // events.
        assert!(on
            .trace
            .merged()
            .iter()
            .any(|e| matches!(e.kind, ksa_desim::TraceEventKind::Syscall { .. })));
    }

    #[test]
    fn runs_are_deterministic() {
        let corpus = tiny_corpus();
        let a = run_hooked(&cfg(EnvKind::Native, 3), &corpus, |_| {}).unwrap();
        let b = run_hooked(&cfg(EnvKind::Native, 3), &corpus, |_| {}).unwrap();
        assert_eq!(a.sim_ns, b.sim_ns);
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.samples.raw(), y.samples.raw());
        }
    }

    #[test]
    fn parallel_configs_match_serial() {
        let corpus = tiny_corpus();
        let cfgs = [cfg(EnvKind::Native, 2), cfg(EnvKind::Vm(2), 2)];
        let par = run_configs(&cfgs, &corpus, 0, &|_, _| {});
        let ser: Vec<RunResult> = cfgs
            .iter()
            .map(|c| run_hooked(c, &corpus, |_| {}).unwrap())
            .collect();
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.as_ref().unwrap().sim_ns, s.sim_ns);
        }
    }

    #[test]
    fn watchdog_reports_stalled_instead_of_hanging() {
        let corpus = tiny_corpus();
        let res = run_hooked(
            &RunConfig {
                max_events: 50,
                ..cfg(EnvKind::Native, 5)
            },
            &corpus,
            |_| {},
        );
        match res {
            Err(RunError::Sim(SimError::Stalled { events, .. })) => {
                assert_eq!(events, 50);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn one_stalled_trial_does_not_lose_the_others() {
        // The acceptance scenario: a campaign where one trial livelocks
        // (here: killed by a tiny event budget) must still complete and
        // return full results for every other trial.
        let corpus = tiny_corpus();
        let cfgs = [
            cfg(EnvKind::Native, 2),
            RunConfig {
                max_events: 50,
                ..cfg(EnvKind::Vm(2), 2)
            },
            cfg(EnvKind::Container(4), 2),
        ];
        let results = run_configs(&cfgs, &corpus, 0, &|_, _| {});
        assert_eq!(results.len(), 3);
        let ok = results[0].as_ref().unwrap();
        assert_eq!(ok.sites.len(), 8);
        assert!(ok.sites.iter().all(|s| s.samples.len() == 4 * 2));
        assert!(matches!(
            results[1],
            Err(RunError::Sim(SimError::Stalled { .. }))
        ));
        let ok = results[2].as_ref().unwrap();
        assert_eq!(ok.sites.len(), 8);
        assert!(ok.sites.iter().all(|s| s.samples.len() == 4 * 2));
    }

    #[test]
    fn jobs_counts_produce_identical_outcome_vectors() {
        let corpus = tiny_corpus();
        let cfgs = [
            cfg(EnvKind::Native, 2),
            RunConfig {
                max_events: 50,
                ..cfg(EnvKind::Vm(2), 2)
            },
            cfg(EnvKind::Container(2), 3),
        ];
        let seq = run_configs(&cfgs, &corpus, 1, &|_, _| {});
        for jobs in [2usize, 4, 0] {
            let par = run_configs(&cfgs, &corpus, jobs, &|_, _| {});
            for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
                match (a, b) {
                    (Ok(x), Ok(y)) => {
                        assert_eq!(x.sim_ns, y.sim_ns, "jobs={jobs}: slot {i}");
                        assert_eq!(x.events, y.events, "jobs={jobs}: slot {i}");
                        for (sa, sb) in x.sites.iter().zip(&y.sites) {
                            assert_eq!(sa.samples.raw(), sb.samples.raw());
                        }
                    }
                    (Err(RunError::Sim(x)), Err(RunError::Sim(y))) => {
                        assert_eq!(x, y, "jobs={jobs}: slot {i}")
                    }
                    other => panic!("jobs={jobs}: slot {i} diverged: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn poisoned_trial_is_isolated_from_pool_siblings() {
        // A hook that panics on one trial must surface as Panicked in
        // that slot only; sibling trials on the same workers complete.
        let corpus = tiny_corpus();
        let cfgs = [
            cfg(EnvKind::Native, 2),
            cfg(EnvKind::Vm(2), 2),
            cfg(EnvKind::Container(2), 2),
            cfg(EnvKind::Native, 3),
        ];
        for jobs in [1usize, 3] {
            let results = run_configs(&cfgs, &corpus, jobs, &|i, _| {
                if i == 1 {
                    panic!("poisoned trial {i}");
                }
            });
            assert_eq!(results.len(), 4);
            for (i, r) in results.iter().enumerate() {
                if i == 1 {
                    match r {
                        Err(RunError::Panicked(msg)) => {
                            assert!(msg.contains("poisoned trial 1"), "jobs={jobs}: {msg}")
                        }
                        other => panic!("jobs={jobs}: expected panic slot, got {other:?}"),
                    }
                } else {
                    let ok = r
                        .as_ref()
                        .unwrap_or_else(|e| panic!("jobs={jobs}: sibling {i} lost: {e}"));
                    assert_eq!(ok.sites.len(), 8, "jobs={jobs}");
                }
            }
        }
    }

    #[test]
    fn metrics_are_observationally_neutral() {
        // The `ablate obs` gate in unit-test form: a metered run must be
        // bit-identical to an unmetered one — same clock, same samples,
        // same event count.
        let corpus = tiny_corpus();
        let off = run_hooked(&cfg(EnvKind::Vm(2), 2), &corpus, |_| {}).unwrap();
        let on = run_hooked(
            &RunConfig {
                metrics: true,
                ..cfg(EnvKind::Vm(2), 2)
            },
            &corpus,
            |_| {},
        )
        .unwrap();
        assert_eq!(off.sim_ns, on.sim_ns, "telemetry must not perturb timing");
        assert_eq!(off.events, on.events, "telemetry must not add events");
        for (a, b) in off.sites.iter().zip(&on.sites) {
            assert_eq!(a.samples.raw(), b.samples.raw());
        }
        assert!(!off.metrics.enabled());
        assert_eq!(off.metrics.metrics().len(), 0);
        assert!(on.metrics.enabled());
        assert!(on.metrics.samples_taken >= 1);
    }

    #[test]
    fn metrics_totals_equal_the_attribution_table() {
        // Exact-sum gate: per-category syscall_ns/syscall_calls series
        // must mirror the attribution table to the nanosecond, and the
        // engine's own dispatch counter must equal the processed count.
        let corpus = tiny_corpus();
        let res = run_hooked(
            &RunConfig {
                metrics: true,
                ..cfg(EnvKind::Native, 3)
            },
            &corpus,
            |_| {},
        )
        .unwrap();
        let grand = res.attrib.grand_total();
        assert_eq!(res.metrics.total("syscall_ns"), grand.total);
        assert_eq!(res.metrics.total("syscall_calls"), res.attrib.calls());
        for (cat, (calls, agg)) in res.attrib.by_category() {
            let label = [("category", cat.name())];
            assert_eq!(
                res.metrics.value_of("syscall_calls", &label),
                Some(*calls),
                "{cat:?}: call count"
            );
            assert_eq!(
                res.metrics.value_of("syscall_ns", &label),
                Some(agg.total),
                "{cat:?}: total ns"
            );
        }
        // Engine self-profile rode along in the same registry.
        assert_eq!(res.metrics.total("engine_events_dispatched"), res.events);
        // Lock-wait fold matches the engine's contention profile (both
        // are read from the same per-lock grant bookkeeping).
        assert_eq!(
            res.metrics.total("lock_wait_ns"),
            res.contention.total_wait_ns()
        );
    }

    #[test]
    fn panic_isolation_reports_message() {
        // Force a panic through the public isolation path by driving a
        // corpus with an out-of-range Ref argument resolved against an
        // empty result list — dispatch itself must not panic, so panic
        // via the watchdog-free harness instead: use catch_unwind on a
        // deliberately panicking closure to exercise panic_message.
        let msg = match catch_unwind(AssertUnwindSafe(|| -> Result<(), RunError> {
            panic!("boom {}", 42);
        })) {
            Ok(_) => unreachable!(),
            Err(payload) => panic_message(payload.as_ref()),
        };
        assert_eq!(msg, "boom 42");
    }
}
