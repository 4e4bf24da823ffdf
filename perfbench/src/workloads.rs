//! The four benchmark workloads.
//!
//! Each workload builds its inputs once per set-up (timed as `setup_s`)
//! and then runs closed-loop trials: one trial is the whole workload,
//! run on the calling thread (`--jobs 1`). A trial returns an FNV digest
//! of its simulated outputs, the invariant violations it found, and —
//! on the counting pass — engine counters and the inputs the per-layer
//! replays reuse. Every call into a simulator layer goes through a
//! [`Tracer`] span, which records only on the traced pass.

use std::hint::black_box;

use ksa_cluster::{run_cluster, run_cluster_faulted, ClusterConfig, FabricConfig};
use ksa_core::experiments::{default_corpus, noise_corpus, Scale};
use ksa_desim::{Engine, EngineParams, NodeFaultPlan};
use ksa_envsim::tenant::spawn_churn_hosts;
use ksa_envsim::{
    build_env_with, container_sweep, vm_sweep, ChurnParams, EnvKind, EnvSpec, Machine,
};
use ksa_kernel::prog::{Arg, Call, Corpus, Program};
use ksa_kernel::world::KernelWorld;
use ksa_kernel::{attribution_frames, Attribution, AttributionTable, SpecMask, SysNo};
use ksa_stats::{BucketTable, ViolinSummary};
use ksa_tailbench::apps::{cluster_suite, suite, AppProfile};
use ksa_tailbench::churn::{run_churn, ChurnConfig};
use ksa_tailbench::single_node::{run_single_node, SingleNodeConfig, TailResult};
use ksa_telemetry::export::{collapsed, prometheus_text, speedscope_json, timeseries_json};
use ksa_telemetry::{Registry, TelemetryConfig};
use ksa_varbench::traceout::chrome_trace_json;
use ksa_varbench::{run_hooked, RunConfig, RunResult};

use crate::spans::Tracer;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "syscall_sweep",
    "tail_serving",
    "tenant_churn",
    "observed_sweep",
];

/// Input scale: `Full` is the benchmark, `Tiny` the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// FNV-1a over a stream of u64s (the suite's digest fold).
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }

    pub fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
}

/// Named per-trial counts (summed, except `*.queue_peak` which is a max).
#[derive(Debug, Default, Clone)]
pub struct Counts(pub std::collections::BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_default() += v;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_default();
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Adds the engine self-profile counters of an enabled registry.
    fn engine(&mut self, reg: &Registry) {
        if reg.enabled() {
            self.add(
                "desim.events_scheduled",
                reg.total("engine_events_scheduled") as f64,
            );
            self.add(
                "desim.process_wakes",
                reg.total("engine_process_wakes") as f64,
            );
            self.max(
                "desim.queue_peak",
                reg.total("engine_event_queue_peak") as f64,
            );
        }
    }
}

/// What the per-layer replays take from a workload: its syscall
/// programs, the environment they dispatch on, its sample vectors and
/// one attribution delta per replayed call.
#[derive(Debug, Clone)]
pub struct Material {
    pub programs: Vec<Program>,
    pub env: EnvSpec,
    pub samples: Vec<Vec<u64>>,
    pub attrib: Vec<(SysNo, Attribution)>,
    pub lock_labels: Vec<&'static str>,
}

/// One trial's outcome.
#[derive(Debug, Default)]
pub struct TrialOut {
    pub digest: u64,
    pub violations: Vec<String>,
    pub counts: Counts,
    pub material: Option<Material>,
}

impl TrialOut {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Builds the inputs; the benchmark times this as `setup_s`.
    fn setup(&mut self, t: &Tracer);
    /// Runs one trial. `counting` switches simulator telemetry on to
    /// read engine counters and collects the replay inputs; the
    /// benchmark discards that pass's timings.
    fn trial(&self, t: &Tracer, counting: bool) -> TrialOut;
    /// The unobserved twin of an observed workload, sharing its inputs
    /// (for the observer-cost ratio).
    fn unobserved(&self) -> Option<Box<dyn Workload>> {
        None
    }
}

/// Builds the named workload.
pub fn make(name: &str, size: Size, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "syscall_sweep" => Box::new(Sweep::new(size, seed, false)),
        "observed_sweep" => Box::new(Sweep::new(size, seed, true)),
        "tail_serving" => Box::new(Tail::new(size, seed)),
        "tenant_churn" => Box::new(Churn::new(size, seed)),
        _ => return None,
    })
}

fn scale(size: Size) -> Scale {
    match size {
        Size::Full => Scale::Full,
        Size::Tiny => Scale::Tiny,
    }
}

// ------------------------------------------------------------ sweeps

/// The Table 2/3 + Figure 2 varbench path over native plus the VM and
/// container ladders; `observed` turns trace rings and telemetry on and
/// renders every export format.
#[derive(Clone)]
pub struct Sweep {
    size: Size,
    seed: u64,
    observed: bool,
    corpus: Corpus,
}

impl Sweep {
    fn new(size: Size, seed: u64, observed: bool) -> Self {
        Self {
            size,
            seed,
            observed,
            corpus: Corpus::default(),
        }
    }

    fn machine(&self) -> Machine {
        scale(self.size).machine()
    }

    fn iterations(&self) -> usize {
        match self.size {
            Size::Full => 2,
            Size::Tiny => 1,
        }
    }

    /// Native, then the VM ladder, then the container ladder.
    fn envs(&self) -> Vec<EnvKind> {
        let m = self.machine();
        let mut kinds = vec![EnvKind::Native];
        kinds.extend(vm_sweep(m).iter().map(|r| EnvKind::Vm(r.count)));
        kinds.extend(
            container_sweep(m)
                .iter()
                .map(|r| EnvKind::Container(r.count)),
        );
        kinds
    }
}

impl Workload for Sweep {
    /// The default coverage-guided corpus (fixed generator seed, as the
    /// experiment bins use); the workload seed drives the simulation.
    fn setup(&mut self, t: &Tracer) {
        let size = self.size;
        self.corpus = t
            .span("syzgen.generate", || default_corpus(scale(size)))
            .corpus;
    }

    fn unobserved(&self) -> Option<Box<dyn Workload>> {
        self.observed.then(|| {
            Box::new(Sweep {
                observed: false,
                ..self.clone()
            }) as Box<dyn Workload>
        })
    }

    fn trial(&self, t: &Tracer, counting: bool) -> TrialOut {
        let machine = self.machine();
        let iterations = self.iterations();
        let mut out = TrialOut::default();
        let mut d = Digest::new();
        let mut results: Vec<RunResult> = Vec::new();
        let mut merged = Registry::default();
        let mut attrib = AttributionTable::default();
        for kind in self.envs() {
            let cfg = RunConfig {
                env: EnvSpec::new(machine, kind),
                iterations,
                sync: true,
                seed: self.seed,
                max_events: 0,
                trace: self.observed,
                metrics: self.observed || counting,
                spec: None,
            };
            // envsim.build runs from the call until the hook fires.
            t.enter("varbench.run", 0);
            t.enter("envsim.build", 0);
            let r = run_hooked(&cfg, &self.corpus, |_| t.exit());
            t.exit();
            let res = match r {
                Ok(res) => res,
                Err(e) => {
                    out.violations.push(format!("{}: {e}", kind.label()));
                    continue;
                }
            };
            let exact = res.attrib.grand_total().is_exact()
                && res.attrib.by_sysno().all(|(_, (_, a))| a.is_exact())
                && res.attrib.by_category().all(|(_, (_, a))| a.is_exact());
            out.check(exact, || format!("{}: inexact attribution", kind.label()));
            let want = machine.cores * iterations;
            out.check(res.sites.iter().all(|s| s.samples.len() == want), || {
                format!("{}: a site is missing samples", kind.label())
            });
            d.fold(res.sim_ns);
            d.fold(res.events);
            for site in &res.sites {
                for &v in site.samples.raw() {
                    d.fold(v);
                }
            }
            out.counts.add("desim.events", res.events as f64);
            out.counts.add("kernel.syscalls", res.attrib.calls() as f64);
            out.counts.engine(&res.metrics);
            if self.observed {
                out.counts
                    .add("telemetry.samples_taken", res.metrics.samples_taken as f64);
                out.counts
                    .add("trace.events_recorded", res.trace.total_events() as f64);
                out.counts
                    .add("trace.dropped", res.trace.total_dropped() as f64);
                d.fold(res.trace.total_events() as u64);
                t.span("telemetry.absorb", || {
                    merged.absorb(&res.metrics, &[("env", &kind.label())]);
                    attrib.merge(&res.attrib);
                });
                // As `--trace-out` does, one run's trace is rendered: the
                // native baseline's.
                if kind == EnvKind::Native {
                    let chrome = t.span("trace.export", || chrome_trace_json(&res.trace));
                    black_box(chrome.len());
                }
            } else if counting {
                attrib.merge(&res.attrib);
            }
            results.push(res);
        }
        let agg = t.span("stats.aggregate", || {
            aggregate_sweep(&mut results, &mut out.counts)
        });
        d.fold(agg);
        if self.observed {
            let len = t.span("telemetry.export", || {
                let frames = attribution_frames(&attrib);
                prometheus_text(&merged).len()
                    + timeseries_json(&merged).len()
                    + collapsed(&frames).len()
                    + speedscope_json("observed_sweep", &frames).len()
            });
            black_box(len);
            d.fold(merged.digest());
        }
        if counting {
            out.material = Some(Material {
                programs: self.corpus.programs.clone(),
                env: EnvSpec::new(machine, EnvKind::Native),
                samples: results
                    .iter()
                    .flat_map(|r| r.sites.iter().map(|s| s.samples.raw().to_vec()))
                    .collect(),
                attrib: mean_attrib_stream(&self.corpus, &attrib),
                lock_labels: attrib.lock_wait_by_label.keys().copied().collect(),
            });
        }
        out.digest = d.0;
        out
    }
}

/// The paper's aggregation over one sweep: Table 2 (median/p99/max
/// buckets for native and the widest VM and container split), Figure 2
/// (per-category violins of p99 across the VM ladder, sites filtered by
/// a 10µs native median) and Table 3 (max buckets across the container
/// ladder). Returns a fold of the violin quantiles for the digest.
fn aggregate_sweep(results: &mut [RunResult], counts: &mut Counts) -> u64 {
    use ksa_kernel::Category;
    let mut d = Digest::new();
    let mut quantile_calls = 0u64;
    if results.is_empty() {
        return d.0;
    }
    let n = results.len();
    let ladder = (n - 1) / 2;
    let (vms, ctrs) = (1..=ladder, ladder + 1..n);
    let mut t2 = [
        BucketTable::new("median"),
        BucketTable::new("p99"),
        BucketTable::new("max"),
    ];
    for i in [0, ladder, n - 1] {
        let res = &mut results[i];
        let label = res.config.env.kind.label();
        let meds = res.per_site(None, |s| s.median());
        let p99s = res.per_site(None, |s| s.p99());
        let maxes = res.per_site(None, |s| s.max());
        quantile_calls += 2 * meds.len() as u64;
        t2[0].push_values(label.clone(), &meds);
        t2[1].push_values(label.clone(), &p99s);
        t2[2].push_values(label, &maxes);
    }
    let keep: Vec<bool> = results[0]
        .sites
        .iter_mut()
        .map(|s| s.samples.median().unwrap_or(0) >= 10_000)
        .collect();
    quantile_calls += keep.len() as u64;
    for cat in Category::ALL {
        for i in vms.clone() {
            let res = &mut results[i];
            let p99s: Vec<u64> = res
                .sites
                .iter_mut()
                .enumerate()
                .filter(|(j, s)| keep[*j] && s.in_category(cat))
                .filter_map(|(_, s)| s.samples.p99())
                .collect();
            quantile_calls += p99s.len() as u64;
            if let Some(v) = ViolinSummary::from_values(cat.name(), &p99s, 64) {
                d.fold(v.median);
                d.fold(v.q3);
                d.fold(v.count as u64);
            }
        }
    }
    let mut t3 = BucketTable::new("table3");
    for i in ctrs {
        let res = &mut results[i];
        let label = res.config.env.kind.label();
        let maxes = res.per_site(None, |s| s.max());
        t3.push_values(label, &maxes);
    }
    for table in t2.iter().chain([&t3]) {
        for row in &table.rows {
            d.fold(row.pct_below(0).to_bits());
        }
    }
    counts.add("stats.quantile_calls", quantile_calls as f64);
    d.0
}

/// One attribution delta per corpus call: the call's syscall and that
/// syscall's mean attribution over the trial.
fn mean_attrib_stream(corpus: &Corpus, table: &AttributionTable) -> Vec<(SysNo, Attribution)> {
    let means: std::collections::BTreeMap<SysNo, Attribution> = table
        .by_sysno()
        .map(|(no, (calls, sum))| (no, mean_of(sum, *calls)))
        .collect();
    corpus
        .programs
        .iter()
        .flat_map(|p| p.calls.iter())
        .map(|c| (c.no, means.get(&c.no).copied().unwrap_or_default()))
        .collect()
}

fn mean_of(sum: &Attribution, n: u64) -> Attribution {
    let n = n.max(1);
    let v = sum.values().map(|x| x / n);
    let mut a = Attribution {
        on_cpu: v[0],
        vm_exit: v[1],
        tick_irq: v[2],
        lock_wait: v[3],
        runq_wait: v[4],
        softirq_wait: v[5],
        daemon_wait: v[6],
        irq_wait: v[7],
        io_wait: v[8],
        ipi_wait: v[9],
        rcu_wait: v[10],
        sleep: v[11],
        other_wait: v[12],
        total: 0,
    };
    a.total = a.component_sum();
    a
}

// ------------------------------------------------------- tail serving

/// Figure 3(a)'s isolated grid (noise off) plus Figure 4-shaped BSP
/// cluster cells, healthy and under a crash + healed partition + lossy
/// link plan.
pub struct Tail {
    size: Size,
    seed: u64,
    noise: Corpus,
    apps: Vec<AppProfile>,
    cluster_apps: Vec<AppProfile>,
}

impl Tail {
    fn new(size: Size, seed: u64) -> Self {
        Self {
            size,
            seed,
            noise: Corpus::default(),
            apps: Vec::new(),
            cluster_apps: Vec::new(),
        }
    }

    fn requests(&self) -> u64 {
        match self.size {
            Size::Full => 3_000,
            Size::Tiny => 60,
        }
    }

    fn point(&self, virt: bool, counting: bool) -> SingleNodeConfig {
        SingleNodeConfig {
            machine: Machine {
                cores: 16,
                mem_mib: 16 * 1024,
            },
            groups: 4,
            virt,
            noise: false,
            requests: self.requests(),
            warmup: (self.requests() / 10) as usize,
            util_pct: 75,
            seed: self.seed,
            trace: false,
            metrics: counting,
            spec: None,
        }
    }

    fn cell(&self, virt: bool, counting: bool) -> ClusterConfig {
        let (iterations, requests_per_iter) = match self.size {
            Size::Full => (6, 30),
            Size::Tiny => (2, 5),
        };
        ClusterConfig {
            nodes: 6,
            iterations,
            requests_per_iter,
            node: SingleNodeConfig {
                machine: Machine {
                    cores: 8,
                    mem_mib: 8 * 1024,
                },
                groups: 2,
                virt,
                noise: false,
                requests: 0,
                warmup: 0,
                util_pct: 92,
                seed: self.seed,
                trace: false,
                metrics: counting,
                spec: None,
            },
            barrier_ns: 40_000,
            threads: 1,
        }
    }
}

impl Workload for Tail {
    fn setup(&mut self, t: &Tracer) {
        self.noise = t.span("setup.noise_corpus", || noise_corpus(scale(self.size)));
        self.apps = suite();
        self.cluster_apps = cluster_suite();
        if self.size == Size::Tiny {
            self.apps.truncate(2);
        }
    }

    fn trial(&self, t: &Tracer, counting: bool) -> TrialOut {
        let mut out = TrialOut::default();
        let mut d = Digest::new();
        let mut results: Vec<TailResult> = Vec::new();
        for app in &self.apps {
            for virt in [true, false] {
                let cfg = self.point(virt, counting);
                let res = t.span("tailbench.run", || run_single_node(app, &cfg, &self.noise));
                let want = cfg.requests - cfg.warmup as u64;
                out.check(
                    res.sojourns.len() as u64 == want && res.client_gave_up == 0,
                    || {
                        format!(
                            "{} virt={virt}: {} of {want} requests measured, {} abandoned",
                            app.name,
                            res.sojourns.len(),
                            res.client_gave_up
                        )
                    },
                );
                d.fold(res.sim_ns);
                d.fold(res.events);
                d.fold(res.p99);
                for &v in res.sojourns.raw() {
                    d.fold(v);
                }
                out.counts.add("tailbench.requests", cfg.requests as f64);
                out.counts.add("desim.events", res.events as f64);
                out.counts.add(
                    "kernel.syscalls",
                    (cfg.requests * calls_per_request(app)) as f64,
                );
                out.counts.engine(&res.metrics);
                results.push(res);
            }
        }
        for app in self.cluster_apps.iter().take(2) {
            let mut healthy_ns = 0;
            for virt in [true, false] {
                let cfg = self.cell(virt, counting);
                let res = t.span("cluster.run", || run_cluster(app, &cfg, &self.noise));
                out.counts.add(
                    "kernel.syscalls",
                    (cfg.nodes as u64
                        * cfg.iterations
                        * cfg.requests_per_iter
                        * calls_per_request(app)) as f64,
                );
                out.check(
                    res.iteration_ns.len() as u64 == cfg.iterations && res.total_ns > 0,
                    || format!("{} virt={virt}: incomplete cluster run", app.name),
                );
                for &it in &res.iteration_ns {
                    d.fold(it);
                }
                d.fold(res.mean_node_ns);
                out.counts.add("desim.events", res.events as f64);
                out.counts.engine(&res.metrics);
                healthy_ns = res.total_ns;
            }
            // The failover plan, placed relative to the healthy run so a
            // crash, a healed partition and lossy links all land inside it.
            let cfg = self.cell(false, counting);
            let plan = NodeFaultPlan::new(self.seed)
                .crash(2, healthy_ns * 3 / 10, healthy_ns * 4 / 10)
                .partition(healthy_ns / 10, healthy_ns * 45 / 100, vec![4, 5])
                .drop_prob_milli(100);
            let res = t.span("cluster.run", || {
                run_cluster_faulted(app, &cfg, &self.noise, &plan, &FabricConfig::quick())
            });
            match &res.fabric {
                Some(rep) => {
                    out.check(rep.conserved() && rep.unserved_shards == 0, || {
                        format!(
                            "{} failover: {}/{} completions, {} lost, {} unserved",
                            app.name,
                            rep.completions,
                            rep.expected_completions,
                            rep.lost_completions,
                            rep.unserved_shards
                        )
                    });
                    for v in [
                        rep.reassignments,
                        rep.reexecs,
                        rep.crash_detections,
                        rep.rejoins,
                        rep.retransmits,
                        rep.dup_completions_dropped,
                        rep.completions,
                    ] {
                        d.fold(v);
                    }
                    out.counts
                        .add("cluster.retransmits", rep.retransmits as f64);
                    out.counts.add("cluster.reexecs", rep.reexecs as f64);
                }
                None => out
                    .violations
                    .push(format!("{}: no fabric report", app.name)),
            }
            for &it in &res.iteration_ns {
                d.fold(it);
            }
            out.counts.add("desim.events", res.events as f64);
            out.counts.engine(&res.metrics);
        }
        let agg = t.span("stats.aggregate", || {
            let mut agg = Digest::new();
            for virt in [true, false] {
                let p99s: Vec<u64> = results
                    .iter_mut()
                    .skip(usize::from(!virt))
                    .step_by(2)
                    .filter_map(|r| {
                        let p50 = r.sojourns.median()?;
                        agg.fold(p50);
                        r.sojourns.p99()
                    })
                    .collect();
                if let Some(v) = ViolinSummary::from_values("p99", &p99s, 64) {
                    agg.fold(v.median);
                }
            }
            agg.0
        });
        out.counts
            .add("stats.quantile_calls", 2.0 * results.len() as f64);
        d.fold(agg);
        if counting {
            out.material = Some(Material {
                programs: self.apps.iter().map(request_program).collect(),
                env: EnvSpec::new(self.point(false, false).machine, EnvKind::Container(4)),
                samples: results.iter().map(|r| r.sojourns.raw().to_vec()).collect(),
                attrib: results
                    .iter()
                    .flat_map(|r| r.request_attrib.iter())
                    .map(|a| (SysNo::Recvfrom, a.service))
                    .collect(),
                lock_labels: Vec::new(),
            });
        }
        out.digest = d.0;
        out
    }
}

/// Syscalls one tailbench request dispatches: the loopback send and
/// receive, the app's call template, and the reply's send and receive.
fn calls_per_request(app: &AppProfile) -> u64 {
    4 + app.calls.len() as u64
}

/// A tailbench server as a program: its warm-up (data file, loopback
/// connection) followed by one request, with the server's arguments.
fn request_program(app: &AppProfile) -> Program {
    let c = |no, a: &[u64]| Call::new(no, a.iter().map(|&v| Arg::Const(v)).collect());
    let mut calls = vec![
        c(SysNo::Open, &[0, 1]),
        c(SysNo::Socket, &[1, 0]),
        c(SysNo::Bind, &[1, 0]),
        c(SysNo::Listen, &[1, 8]),
        c(SysNo::Socket, &[1, 0]),
        c(SysNo::Connect, &[2, 0]),
        c(SysNo::Accept, &[1, 0]),
        c(SysNo::Pwrite, &[0, 32_000]),
        c(SysNo::Pwrite, &[0, 32_000]),
        c(SysNo::Pread, &[0, 32_000]),
        c(SysNo::Sendto, &[2, 768, 0]),
        c(SysNo::Recvfrom, &[3, 768]),
    ];
    calls.extend(app.calls.iter().map(|&(no, a0, a1)| c(no, &[a0, a1])));
    calls.push(c(SysNo::Sendto, &[3, 256, 0]));
    calls.push(c(SysNo::Recvfrom, &[2, 256]));
    Program { calls }
}

// ------------------------------------------------------- tenant churn

const CHURN_MACHINE: Machine = Machine {
    cores: 8,
    mem_mib: 8 * 1024,
};

/// Serverless tenant churn on 8 cores: shared containers, partitioned
/// `Vm(4)`, and the same VMs specialised from a derived profile, at each
/// density with twice that many tenants over the run.
pub struct Churn {
    size: Size,
    seed: u64,
    mask: SpecMask,
}

impl Churn {
    fn new(size: Size, seed: u64) -> Self {
        Self {
            size,
            seed,
            mask: SpecMask::full(),
        }
    }

    /// Densities, lowest first; the first and last give the per-tenant
    /// scaling metrics.
    pub fn densities(size: Size) -> &'static [usize] {
        match size {
            Size::Full => &[256, 1024, 4096],
            Size::Tiny => &[16, 64],
        }
    }

    fn configs(&self, density: usize) -> [(&'static str, ChurnConfig); 3] {
        let mk = |kind, spec| ChurnConfig {
            machine: CHURN_MACHINE,
            kind,
            params: ChurnParams::quick(density, 2 * density),
            seed: self.seed,
            spec,
        };
        [
            ("shared", mk(EnvKind::Container(density), None)),
            ("partitioned", mk(EnvKind::Vm(4), None)),
            ("specialized", mk(EnvKind::Vm(4), Some(self.mask))),
        ]
    }
}

/// The tenant lifecycle as `TenantHost` compiles it — fork, working
/// set, loopback connection, request loop, teardown — the corpus the
/// churn profile is derived from.
pub fn churn_corpus() -> Corpus {
    let c = |no, a: Vec<Arg>| Call::new(no, a);
    use Arg::{Const, Ref};
    Corpus {
        programs: vec![
            Program {
                calls: vec![
                    c(SysNo::Clone, vec![Const(0)]),
                    c(SysNo::Open, vec![Const(3), Const(1)]),
                    c(SysNo::Mmap, vec![Const(24), Const(1)]),
                    c(SysNo::Pwrite, vec![Ref(1), Const(2_048)]),
                    c(SysNo::Socket, vec![Const(0)]),
                    c(SysNo::Bind, vec![Ref(4), Const(1)]),
                    c(SysNo::Listen, vec![Ref(4), Const(8)]),
                    c(SysNo::Socket, vec![Const(0)]),
                    c(SysNo::Connect, vec![Ref(7), Const(1)]),
                    c(SysNo::Accept, vec![Ref(4)]),
                    c(SysNo::Close, vec![Ref(4)]),
                ],
            },
            Program {
                calls: vec![
                    c(SysNo::Socket, vec![Const(0)]),
                    c(SysNo::Sendto, vec![Ref(0), Const(512)]),
                    c(SysNo::Recvfrom, vec![Ref(0), Const(512)]),
                    c(SysNo::Open, vec![Const(5), Const(1)]),
                    c(SysNo::Pread, vec![Ref(3), Const(512)]),
                ],
            },
            Program {
                calls: vec![
                    c(SysNo::Open, vec![Const(7), Const(1)]),
                    c(SysNo::Close, vec![Ref(0)]),
                    c(SysNo::Mmap, vec![Const(24), Const(1)]),
                    c(SysNo::Munmap, vec![Ref(2)]),
                    c(SysNo::Clone, vec![Const(0)]),
                    c(SysNo::Wait4, vec![Ref(4)]),
                ],
            },
        ],
    }
}

/// `run_churn`'s engine set-up with engine telemetry on, for the
/// counting pass only (`run_churn` exposes no telemetry switch).
fn count_churn(cfg: &ChurnConfig, counts: &mut Counts) -> Result<(), String> {
    let mut engine: Engine<KernelWorld> =
        Engine::new(KernelWorld::new(), EngineParams::default(), cfg.seed);
    engine.set_telemetry(TelemetryConfig::enabled());
    let built = build_env_with(
        &mut engine,
        &EnvSpec::new(cfg.machine, cfg.kind),
        cfg.seed,
        cfg.spec,
    );
    spawn_churn_hosts(&mut engine, &built, &cfg.params, cfg.seed);
    let res = engine.run().map_err(|e| e.to_string())?;
    counts.add("desim.events", res.events as f64);
    counts.add(
        "kernel.syscalls",
        engine
            .world()
            .instances
            .iter()
            .map(|i| i.syscalls)
            .sum::<u64>() as f64,
    );
    counts.engine(&engine.take_telemetry());
    Ok(())
}

impl Workload for Churn {
    fn setup(&mut self, t: &Tracer) {
        let corpus = churn_corpus();
        self.mask = t
            .span("spec.derive", || {
                ksa_spec::derive_profile("churn", &corpus, self.seed)
            })
            .mask;
    }

    fn trial(&self, t: &Tracer, counting: bool) -> TrialOut {
        let mut out = TrialOut::default();
        let mut d = Digest::new();
        let mut samples = Vec::new();
        for &density in Self::densities(self.size) {
            for (name, cfg) in self.configs(density) {
                out.counts.add("churn.tenants", cfg.params.tenants as f64);
                if counting {
                    if let Err(e) = count_churn(&cfg, &mut out.counts) {
                        out.violations.push(format!("{name}@{density}: {e}"));
                    }
                }
                let mut r = t.span_tagged("churn.run", density as u64, || run_churn(&cfg));
                let tenants = cfg.params.tenants as u64;
                out.check(
                    r.arrived == tenants
                        && r.exited == tenants
                        && r.fd_open_after == 0
                        && r.sock_live_after == 0
                        && r.tables_bounded,
                    || {
                        format!(
                            "{name}@{density}: arrived {} exited {} of {tenants}, fds open {}, \
                             sockets live {}, tables bounded {}",
                            r.arrived,
                            r.exited,
                            r.fd_open_after,
                            r.sock_live_after,
                            r.tables_bounded
                        )
                    },
                );
                for v in [
                    r.digest,
                    r.sim_ns,
                    r.events,
                    r.cold_p99,
                    r.worst_tenant_p99,
                    r.requests_completed,
                ] {
                    d.fold(v);
                }
                if !counting {
                    out.counts.add("desim.events", r.events as f64);
                }
                let agg = t.span("stats.aggregate", || {
                    [
                        r.cold_starts.median(),
                        r.cold_starts.quantile(0.999),
                        r.requests.median(),
                        r.requests.quantile(0.999),
                    ]
                    .into_iter()
                    .flatten()
                    .fold(0u64, u64::wrapping_add)
                });
                out.counts.add("stats.quantile_calls", 4.0);
                d.fold(agg);
                if counting {
                    samples.push(r.requests.raw().to_vec());
                    samples.push(r.cold_starts.raw().to_vec());
                }
            }
        }
        if counting {
            out.material = Some(Material {
                programs: churn_corpus().programs,
                env: EnvSpec::new(CHURN_MACHINE, EnvKind::Vm(4)),
                samples,
                attrib: churn_corpus()
                    .programs
                    .iter()
                    .flat_map(|p| p.calls.iter())
                    .map(|c| (c.no, Attribution::default()))
                    .collect(),
                lock_labels: Vec::new(),
            });
        }
        out.digest = d.0;
        out
    }
}
