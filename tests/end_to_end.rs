//! End-to-end integration tests spanning all crates: corpus generation →
//! environment construction → barrier-synchronized measurement →
//! statistics, at tiny scale.

use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
use ksa_core::experiments::{self, Scale};
use ksa_core::varbench::{chrome_trace_json, run_hooked, RunConfig};
use ksa_core::KernelSurfaceArea;

#[test]
fn corpus_to_measurement_pipeline() {
    let corpus = experiments::default_corpus(Scale::Tiny);
    assert!(corpus.corpus.len() >= 10);
    assert!(corpus.stats.blocks >= 30);

    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let mut res = run_hooked(
        &RunConfig::new(EnvSpec::new(machine, EnvKind::Native), 3, 1),
        &corpus.corpus,
        |_| {},
    )
    .expect("trial failed");
    assert_eq!(res.sites.len(), corpus.corpus.total_calls());
    // Every site must have cores × iterations samples.
    for s in &res.sites {
        assert_eq!(s.samples.len(), 8 * 3);
    }
    // Latencies are plausible: nothing below the syscall entry cost,
    // nothing above a second.
    let maxes = res.per_site(None, |s| s.max());
    assert!(maxes.iter().all(|&m| (100..1_000_000_000).contains(&m)));
}

#[test]
fn isolation_bounds_the_tail() {
    // The paper's system model: the shared kernel has worse worst-case
    // behaviour than per-core VMs on the same hardware and workload.
    let corpus = experiments::default_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let run_kind = |kind| {
        let mut r = run_hooked(
            &RunConfig::new(EnvSpec::new(machine, kind), 5, 3),
            &corpus.corpus,
            |_| {},
        )
        .expect("trial failed");
        let mut p99s = r.per_site(None, |s| s.p99());
        p99s.sort_unstable();
        *p99s.last().unwrap()
    };
    let native_worst = run_kind(EnvKind::Native);
    let vm_worst = run_kind(EnvKind::Vm(8));
    assert!(
        vm_worst < native_worst,
        "per-core VMs must bound the worst tail: vm {vm_worst} vs native {native_worst}"
    );
}

#[test]
fn virtualization_costs_at_the_median() {
    // ...and the flip side: the VM's bounded overhead makes the fast
    // calls slower at the median.
    let corpus = experiments::default_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 8,
        mem_mib: 4 * 1024,
    };
    let run_kind = |kind| {
        let mut r = run_hooked(
            &RunConfig::new(EnvSpec::new(machine, kind), 4, 4),
            &corpus.corpus,
            |_| {},
        )
        .expect("trial failed");
        let mut meds = r.per_site(None, |s| s.median());
        meds.sort_unstable();
        meds[0] // the fastest site's median
    };
    let native_fastest = run_kind(EnvKind::Native);
    let vm_fastest = run_kind(EnvKind::Vm(8));
    assert!(
        vm_fastest > native_fastest,
        "guest fast path must pay the bounded virt overhead: {vm_fastest} vs {native_fastest}"
    );
}

#[test]
fn surface_area_api_is_consistent_with_envs() {
    let machine = Machine::epyc_64();
    let mut last = f64::INFINITY;
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let s = KernelSurfaceArea::of(&EnvSpec::new(machine, EnvKind::Vm(n)));
        assert_eq!(s.cores, 64 / n);
        assert!(s.scalar() < last);
        last = s.scalar();
    }
}

#[test]
fn experiments_table2_runs_at_tiny_scale() {
    let corpus = experiments::default_corpus(Scale::Tiny);
    let (t2, _) = experiments::table2(&corpus.corpus, Scale::Tiny, 5, 0, false);
    // Cumulative percentages must be monotone within a row.
    for table in [&t2.median, &t2.p99, &t2.max] {
        for row in &table.rows {
            for w in row.below.windows(2) {
                assert!(w[0] <= w[1] + 1e-9, "{}: non-monotone", row.label);
            }
            assert!((row.below[4] + row.above_last - 100.0).abs() < 1e-6);
        }
    }
}

#[test]
fn experiments_fig2_trends_are_negative_where_expected() {
    use ksa_core::analysis::{render_trends, surface_trends};
    use ksa_core::kernel::Category;
    let corpus = experiments::default_corpus(Scale::Tiny);
    let (f2, _) = experiments::fig2(&corpus.corpus, Scale::Tiny, 5, 0, false);
    let trends = surface_trends(&f2);
    // Pin the figure's analysis output: every violin's
    // `count,min,whisker_lo,q1,median,q3,whisker_hi,max` row (fig2.csv's
    // numeric columns) and the rendered trend table.
    let mut rows = String::new();
    for v in f2.categories.iter().flat_map(|c| &c.violins) {
        rows.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            v.count, v.min, v.whisker_lo, v.q1, v.median, v.q3, v.whisker_hi, v.max
        ));
    }
    let table = render_trends(&trends);
    assert_eq!(
        (rows.len(), fnv1a(rows.as_bytes())),
        (1228, 0x5cca853157ca68fb),
        "violin rows:\n{rows}"
    );
    assert_eq!(
        (table.len(), fnv1a(table.as_bytes())),
        (652, 0x3493046dcfbab3e4),
        "trend table:\n{table}"
    );
    // Filesystem and permissions: the paper's two reliable responders.
    for want in [Category::Filesystem, Category::Permissions] {
        let t = trends.iter().find(|t| t.category == want).unwrap();
        if let Some(c) = t.median_corr {
            assert!(
                c < 0.25,
                "{want:?} median trend should not be clearly positive: {c}"
            );
        }
        assert!(
            t.outlier_reduction > 1.0,
            "{want:?} outliers must shrink with surface area"
        );
    }
}

/// Asserts that an experiment's `(jobs 1, metrics off)` and `(jobs 2,
/// metrics on)` runs give the same result and that only the metered run
/// carries an enabled registry.
fn assert_neutral<R: std::fmt::Debug>(
    what: &str,
    (plain, unmetered): (R, experiments::Metered),
    (wide, metered): (R, experiments::Metered),
) {
    assert_eq!(
        format!("{plain:?}"),
        format!("{wide:?}"),
        "{what}: jobs/metrics moved the result"
    );
    assert!(
        !unmetered.registry.enabled(),
        "{what}: metrics off, registry on"
    );
    assert!(
        metered.registry.enabled(),
        "{what}: metrics on, registry off"
    );
}

#[test]
fn experiments_are_neutral_to_jobs_and_metrics() {
    let corpus = experiments::default_corpus(Scale::Tiny);
    let c = &corpus.corpus;
    assert_neutral(
        "table2",
        experiments::table2(c, Scale::Tiny, 5, 1, false),
        experiments::table2(c, Scale::Tiny, 5, 2, true),
    );
    assert_neutral(
        "fig2",
        experiments::fig2(c, Scale::Tiny, 5, 1, false),
        experiments::fig2(c, Scale::Tiny, 5, 2, true),
    );
    assert_neutral(
        "table3",
        experiments::table3(c, Scale::Tiny, 5, 1, false),
        experiments::table3(c, Scale::Tiny, 5, 2, true),
    );
}

/// FNV-1a-64, the digest the Chrome-trace and metered-export byte pins are
/// stated in.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// `(programs, calls, render bytes, FNV-1a)` of a corpus, the digest taken
/// over every program's `render()` concatenated in corpus order.
fn corpus_digest(corpus: &ksa_core::kernel::prog::Corpus) -> (usize, usize, usize, u64) {
    let text: String = corpus.programs.iter().map(|p| p.render()).collect();
    (
        corpus.len(),
        corpus.total_calls(),
        text.len(),
        fnv1a(text.as_bytes()),
    )
}

/// Pins every byte of the default and noise corpora at each scale. The
/// generator's sandbox RNG runs across executions, so adding, skipping or
/// reordering a single execution moves every later program and these
/// digests with it.
#[test]
fn generated_corpora_are_pinned() {
    let defaults = [
        (
            Scale::Tiny,
            (63, 30, 114, 113),
            (30, 100, 2_045, 0xb68e_ebfe_cb4c_b5f3),
        ),
        (
            Scale::Quick,
            (480, 80, 417, 178),
            (80, 196, 4_008, 0xdefb_71f3_aaba_6b7f),
        ),
        (
            Scale::Full,
            (7_875, 111, 627, 213),
            (111, 262, 5_355, 0xae6e_5e2e_9068_78ab),
        ),
    ];
    for (scale, stats, digest) in defaults {
        let out = experiments::default_corpus(scale);
        let s = out.stats;
        let got = (s.executed, s.accepted, s.minimized_away, s.blocks);
        assert_eq!(got, stats, "{scale:?} default GenStats");
        assert_eq!(corpus_digest(&out.corpus), digest, "{scale:?} default");
    }
    let noise = [
        (Scale::Tiny, (12, 75, 1_549, 0x1a9a_6fe4_1cbd_3e0c)),
        (Scale::Quick, (18, 120, 2_479, 0xb544_1dfa_757c_ef0d)),
        (Scale::Full, (28, 177, 3_668, 0x0777_dd7f_ea5e_1d3e)),
    ];
    for (scale, digest) in noise {
        let corpus = experiments::noise_corpus(scale);
        assert_eq!(corpus_digest(&corpus), digest, "{scale:?} noise");
    }
}

#[test]
fn chrome_trace_bytes_are_pinned() {
    // FNV-1a-64 of the Chrome trace of one Tiny-scale default-corpus run,
    // as the `Value`-tree renderer wrote it before the exporter streamed.
    let corpus = experiments::default_corpus(Scale::Tiny);
    for (kind, events, bytes, digest) in [
        (EnvKind::Native, 10_481, 1_194_439, 0xaaf9ffdb448277c4),
        (EnvKind::Vm(2), 11_429, 1_319_064, 0x746b5cc28880758e),
    ] {
        let cfg = RunConfig {
            trace: true,
            ..RunConfig::new(EnvSpec::new(Scale::Tiny.machine(), kind), 1, 42)
        };
        let res = run_hooked(&cfg, &corpus.corpus, |_| {}).expect("trial failed");
        let json = chrome_trace_json(&res.trace);
        assert_eq!(res.trace.total_events(), events, "{kind:?}");
        assert_eq!(json.len(), bytes, "{kind:?}");
        assert_eq!(fnv1a(json.as_bytes()), digest, "{kind:?}");
    }
}

#[test]
fn full_scale_chrome_trace_bytes_are_pinned() {
    // The trace perfbench's `observed_sweep` renders: the seed-42 native
    // run of the Full default corpus (64 cores, 2 iterations). Its times
    // and ids are far larger than a Tiny run's, so it exercises the trace
    // rings' multi-byte encodings; the digest predates that encoding.
    let corpus = experiments::default_corpus(Scale::Full);
    let cfg = RunConfig {
        trace: true,
        ..RunConfig::new(EnvSpec::new(Scale::Full.machine(), EnvKind::Native), 2, 42)
    };
    let res = run_hooked(&cfg, &corpus.corpus, |_| {}).expect("trial failed");
    let json = chrome_trace_json(&res.trace);
    assert_eq!(
        (res.trace.total_events(), json.len(), fnv1a(json.as_bytes())),
        (459_332, 54_582_616, 0x92126e61206de57c)
    );
}

#[test]
fn failover_trace_bytes_are_pinned() {
    // The crash run of `ablate failover --tiny`: the fabric's recovery
    // marks, the only producer of `mark` events with two payload words.
    use ksa_core::cluster::{run_cluster, run_cluster_faulted, ClusterConfig, FabricConfig};
    use ksa_core::desim::NodeFaultPlan;
    use ksa_core::tailbench::single_node::SingleNodeConfig;
    let seed = 42;
    let (nodes, iterations, requests_per_iter) = Scale::Tiny.cluster();
    let cfg = ClusterConfig {
        nodes,
        iterations,
        requests_per_iter,
        node: SingleNodeConfig {
            util_pct: 92,
            ..SingleNodeConfig::new(
                Machine {
                    cores: 8,
                    mem_mib: 8 * 1024,
                },
                2,
                false,
                false,
                seed,
            )
        },
        barrier_ns: 40_000,
        threads: 1,
    };
    let app = &ksa_core::tailbench::suite()[1];
    let noise = experiments::noise_corpus(Scale::Tiny);
    let healthy = run_cluster(app, &cfg, &noise);
    let plan = NodeFaultPlan::new(seed).crash(nodes / 2, healthy.total_ns / 3, 0);
    let crash = run_cluster_faulted(app, &cfg, &noise, &plan, &FabricConfig::quick());
    let json = chrome_trace_json(&crash.trace);
    assert!(json.contains(r#""name":"mark""#));
    assert_eq!(
        (
            crash.trace.total_events(),
            json.len(),
            fnv1a(json.as_bytes())
        ),
        (6, 833, 0xea771f95bfdbb024)
    );
}

#[test]
fn faulted_trace_bytes_are_pinned() {
    // A Tiny default-corpus run under a fault plan failing every third I/O
    // and 15% of allocations: the only pinned trace with `io_submit` events and
    // fault-driven error paths. (Kernel handlers consult the plan through
    // `FaultState` directly, so `fault_injected` events come only from
    // `SimCtx::should_fail`; the exporter's oracle test covers them.)
    use ksa_core::desim::{FaultKind, FaultPlan, FaultSchedule};
    let corpus = experiments::default_corpus(Scale::Tiny);
    let machine = Machine {
        cores: 4,
        mem_mib: 2 * 1024,
    };
    let plan = FaultPlan::new(0xfa17)
        .kind_default(FaultKind::IoError, FaultSchedule::EveryNth(3))
        .kind_default(FaultKind::AllocFail, FaultSchedule::ProbMilli(150));
    let cfg = RunConfig {
        trace: true,
        ..RunConfig::new(EnvSpec::new(machine, EnvKind::Native), 2, 31)
    };
    let res = run_hooked(&cfg, &corpus.corpus, |engine| engine.set_fault_plan(plan))
        .expect("trial failed");
    let json = chrome_trace_json(&res.trace);
    assert!(json.contains(r#""name":"io_submit""#));
    assert_eq!(
        (res.trace.total_events(), json.len(), fnv1a(json.as_bytes())),
        (9_762, 1_109_386, 0xdd23fce92e06bf3b)
    );
}

#[test]
fn metered_exports_are_pinned() {
    // FNV-1a-64 of the time-series JSON and Prometheus text of one
    // Tiny-scale default-corpus run with telemetry on, as the exporters
    // wrote them while the series rings held `(sim_ns, value)` pairs.
    use ksa_core::telemetry::export::{prometheus_text, timeseries_json};
    let corpus = experiments::default_corpus(Scale::Tiny);
    for (kind, series, prom) in [
        (
            EnvKind::Native,
            (20_635, 0xc4d524a172fd83ca),
            (12_067, 0x7f9aec7172b68089),
        ),
        (
            EnvKind::Vm(2),
            (22_949, 0x93580e7b3afb842f),
            (11_679, 0x05d4b16a62d8266e),
        ),
    ] {
        let cfg = RunConfig {
            metrics: true,
            ..RunConfig::new(EnvSpec::new(Scale::Tiny.machine(), kind), 1, 42)
        };
        let res = run_hooked(&cfg, &corpus.corpus, |_| {}).expect("trial failed");
        let json = timeseries_json(&res.metrics);
        let text = prometheus_text(&res.metrics);
        assert_eq!((json.len(), fnv1a(json.as_bytes())), series, "{kind:?}");
        assert_eq!((text.len(), fnv1a(text.as_bytes())), prom, "{kind:?}");
    }
}

/// The VM-exit tags a trace recorded, in `(time, core, pid)` order, with
/// their times.
fn vm_exit_marks(trace: &ksa_core::desim::TraceLog) -> Vec<(u64, &'static str)> {
    use ksa_core::desim::TraceEventKind;
    trace
        .merged()
        .into_iter()
        .filter_map(|e| match e.kind {
            TraceEventKind::VmExit { kind, .. } => Some((e.t, trace.label(kind))),
            _ => None,
        })
        .collect()
}

#[test]
fn traced_churn_marks_each_vm_exit_once() {
    // A traced churn run records one mark per VM exit of each compiled
    // sequence (707 here), not one per exit per replay step, and tracing
    // leaves the clock and the event count untouched.
    use ksa_core::envsim::{spawn_churn_hosts, Trial};
    use ksa_core::kernel::KernelWorld;
    use ksa_core::tailbench::{run_churn, ChurnConfig};
    let cfg = ChurnConfig::quick(EnvKind::Vm(2), 8, 7);
    let untraced = run_churn(&cfg);
    let spec = EnvSpec::new(cfg.machine, cfg.kind);
    let mut trial = Trial::new(KernelWorld::new(), &spec, cfg.seed, None, true, false);
    spawn_churn_hosts(&mut trial.engine, &trial.built, &cfg.params, cfg.seed);
    let res = trial.engine.run().expect("churn run stalled");
    let trace = trial.finish().trace;
    assert_eq!(trace.total_dropped(), 0);
    assert_eq!(vm_exit_marks(&trace).len(), 707);
    assert_eq!((res.clock, res.events), (untraced.sim_ns, untraced.events));
    assert_eq!((res.clock, res.events), (1_357_527, 1_661));
}

#[test]
fn traced_kvm_server_setup_exits_are_marked() {
    // Server workers compile their ten-call warm-up sequence at t = 0;
    // the client starts at 50 µs. Under KVM every call pays a
    // guest-syscall exit, so each worker's setup leaves ten marks at 0.
    use ksa_core::kernel::prog::Corpus;
    use ksa_core::tailbench::{run_single_node, SingleNodeConfig};
    let cfg = SingleNodeConfig {
        requests: 20,
        warmup: 0,
        trace: true,
        ..SingleNodeConfig::quick(true, false, 42)
    };
    let workers = cfg.machine.cores / cfg.groups;
    let app = &ksa_core::tailbench::suite()[0];
    let res = run_single_node(app, &cfg, &Corpus { programs: vec![] });
    let setup = vm_exit_marks(&res.trace)
        .into_iter()
        .filter(|&(t, tag)| t == 0 && tag == "guest_syscall")
        .count();
    assert_eq!(setup, 10 * workers);
}
