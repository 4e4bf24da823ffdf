//! `suite` — the benchmark-regression gate.
//!
//! Runs a pinned-seed micro version of every experiment in the pipeline
//! (Table 1–3, Figure 2–4, calibrate, failover, spec, churn), each
//! twice: once sequentially (`jobs = 1`) and once on the parallel pool.
//! For each experiment it records
//!
//! * sequential and parallel **wall-clock** time,
//! * total **simulated time** and **engine events** (with derived
//!   events/second throughput for both passes),
//! * a **digest** of the simulated results — an FNV-1a fold over every
//!   latency sample / duration the experiment produced.
//!
//! Digest, simulated time and event counts are *machine-independent*:
//! the simulation is deterministic, so any change to them is a real
//! behavioural change of the system, not noise. They are the gated
//! metrics the CI regression job compares against the committed
//! baseline (`BENCH_baseline.json`). Wall-clock is machine-dependent;
//! CI gates only the *ratio* (parallel speedup), and only on machines
//! with at least 4 hardware threads, plus the perf floor below.
//!
//! The suite also hard-fails (exit 4) if any experiment's parallel
//! digest differs from its sequential digest — the determinism
//! acceptance criterion, checked on every run before anything else is
//! gated or a baseline is written.
//!
//! ```text
//! suite [--jobs N] [--out PATH] [--baseline PATH] [--write-baseline PATH]
//!       [--min-speedup F] [--floor F]
//! ```
//!
//! The seed and the experiment sizes are pinned, so the other common
//! flags (`--seed`, `--tiny`/`--quick`/`--full`, `--csv`, `--trace-out`,
//! `--metrics-out`) are usage errors rather than silently ignored.
//!
//! Exit codes: 0 ok · 2 baseline drift (a gated metric changed, or an
//! experiment is missing from the run or from the baseline) or usage
//! error · 3 speedup below gate · 4 parallel/sequential divergence ·
//! 5 events/sec below the committed perf floor · 6 malformed baseline
//! file (unreadable, invalid JSON, or missing/mistyped gated fields —
//! distinct from drift so CI can tell a corrupt committed baseline from
//! a real behavioural change).
//!
//! The perf floor: when the baseline carries an `events_per_sec_floor`
//! field, the sequential pass's throughput — Σ events / Σ sequential
//! wall-clock over every experiment, at `jobs = 1` with telemetry off,
//! reported as `events_per_sec_seq` — must not fall below it (exit 5).
//! `KSA_SKIP_PERF_FLOOR=1` skips the check on underpowered runners.
//! `--write-baseline` carries the floor forward from the read baseline;
//! `--floor F` sets or overrides it when regenerating. Host time per
//! layer is perfbench's job (`BENCHMARK.json`), not the suite's.

use std::time::Instant;

use ksa_bench::cli::{Args, Cli};
use ksa_cluster::{run_cluster, run_cluster_faulted, ClusterConfig, FabricConfig};
use ksa_core::experiments::{default_corpus, noise_corpus, table1, Scale};
use ksa_core::KernelSurfaceArea;
use ksa_desim::NodeFaultPlan;
use ksa_envsim::{container_sweep, vm_sweep, EnvKind, EnvSpec, Machine};
use ksa_json::Value;
use ksa_kernel::prog::Corpus;
use ksa_kernel::SpecMask;
use ksa_tailbench::apps::{cluster_suite, suite as app_suite};
use ksa_tailbench::churn::{run_churn_points, ChurnConfig};
use ksa_tailbench::single_node::{run_points, SingleNodeConfig};
use ksa_varbench::{run_configs, RunConfig};

/// The pinned suite seed: the committed baseline is only valid for this
/// seed, so it is not a CLI knob.
const SEED: u64 = 42;

/// Exit code for a malformed baseline file — distinct from drift (2) so
/// CI can tell "the committed baseline is corrupt" from "the simulation
/// changed".
const EXIT_BAD_BASELINE: i32 = 6;

/// Reports exactly what is wrong with the baseline file and exits with
/// the dedicated malformed-baseline code. Replaces the bare `unwrap`
/// chains that used to turn a truncated or hand-edited baseline into an
/// uninformative panic.
fn baseline_malformed(path: &str, what: impl std::fmt::Display) -> ! {
    eprintln!(
        "suite: baseline {path} is malformed: {what} — regenerate it with \
         --write-baseline (exit {EXIT_BAD_BASELINE} = corrupt baseline, not simulation drift)"
    );
    std::process::exit(EXIT_BAD_BASELINE);
}

/// FNV-1a over a stream of u64s — the digest the drift gate compares.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf29ce484222325)
    }
    fn fold(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100000001b3);
        }
    }
    fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What one pass (sequential or parallel) of one experiment produced.
struct Pass {
    wall_ns: u64,
    sim_ns: u64,
    events: u64,
    digest: String,
}

/// Simulated outputs of one experiment run (wall time added by `timed`).
struct SimOut {
    sim_ns: u64,
    events: u64,
    digest: Digest,
}

fn timed(f: impl FnOnce() -> SimOut) -> Pass {
    let t0 = Instant::now();
    let out = f();
    Pass {
        wall_ns: t0.elapsed().as_nanos() as u64,
        sim_ns: out.sim_ns,
        events: out.events,
        digest: out.digest.hex(),
    }
}

/// Runs a varbench campaign and folds every trial's samples into the
/// digest (trial order is input order, so the fold is stable).
fn varbench_case(configs: &[RunConfig], corpus: &Corpus, jobs: usize) -> SimOut {
    let results = run_configs(configs, corpus, jobs, &|_, _| {});
    let mut d = Digest::new();
    let (mut sim_ns, mut events) = (0u64, 0u64);
    for r in results {
        let res = r.unwrap_or_else(|e| panic!("suite trial failed: {e}"));
        sim_ns += res.sim_ns;
        events += res.events;
        d.fold(res.sim_ns);
        for site in &res.sites {
            for &v in site.samples.raw() {
                d.fold(v);
            }
        }
    }
    SimOut {
        sim_ns,
        events,
        digest: d,
    }
}

fn base_cfg(machine: Machine, kind: EnvKind) -> RunConfig {
    RunConfig::new(EnvSpec::new(machine, kind), Scale::Tiny.iterations(), SEED)
}

/// The numeric value of `flag`; a usage error (exit 2) if it is not one.
fn number(args: &mut Args, flag: &str) -> f64 {
    let v = args.value(flag);
    v.parse()
        .unwrap_or_else(|_| args.usage(&format!("{flag} needs a number, got {v:?}")))
}

fn main() {
    let mut out_path = String::from("BENCH_suite.json");
    let mut baseline: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut min_speedup = 1.5f64;
    let mut floor_flag: Option<f64> = None;
    let cli = Cli::parse_with(
        "[--out PATH] [--baseline PATH] [--write-baseline PATH] [--min-speedup F] [--floor F]",
        |flag, args| {
            match flag {
                "--out" => out_path = args.value("--out"),
                "--baseline" => baseline = Some(args.value("--baseline")),
                "--write-baseline" => write_baseline = Some(args.value("--write-baseline")),
                "--min-speedup" => min_speedup = number(args, "--min-speedup"),
                "--floor" => floor_flag = Some(number(args, "--floor")),
                "--seed" | "--tiny" | "--quick" | "--full" | "--csv" | "--trace-out"
                | "--metrics-out" => args.usage(&format!(
                    "suite does not take {flag}: its seed ({SEED}) and sizes are pinned \
                     and it writes only --out and --write-baseline"
                )),
                _ => return false,
            }
            true
        },
    );
    let jobs = cli.jobs;

    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let resolved = ksa_desim::pool::resolve_jobs(jobs);
    eprintln!(
        "suite: seed {SEED}, {threads} hardware threads, parallel pass on {resolved} workers"
    );

    let corpus = default_corpus(Scale::Tiny).corpus;
    let noise = noise_corpus(Scale::Tiny);
    let machine = Scale::Tiny.machine();
    // The 8-core node that fig3, fig4 and failover divide.
    let node_machine = Machine {
        cores: 8,
        mem_mib: 8 * 1024,
    };

    // Each experiment is `fn(jobs) -> SimOut`; the harness runs it at
    // jobs=1 and jobs=<requested> and compares.
    type Case<'a> = (&'a str, Box<dyn Fn(usize) -> SimOut + 'a>);
    let cases: Vec<Case> = vec![
        (
            "table1",
            Box::new(|_jobs| {
                // Machine-defined, no simulation: digest pins the surface-
                // area ladder itself.
                let mut d = Digest::new();
                for row in table1(Scale::Full) {
                    let spec = EnvSpec::new(Scale::Full.machine(), EnvKind::Vm(row.count));
                    d.fold(row.count as u64);
                    d.fold(row.cores_per as u64);
                    d.fold(row.mib_per);
                    d.fold(KernelSurfaceArea::of(&spec).scalar().to_bits());
                }
                SimOut {
                    sim_ns: 0,
                    events: 0,
                    digest: d,
                }
            }),
        ),
        (
            "table2",
            Box::new(|jobs| {
                let kinds = [
                    EnvKind::Native,
                    EnvKind::Vm(machine.cores),
                    EnvKind::Container(machine.cores),
                ];
                let configs: Vec<RunConfig> = kinds.iter().map(|&k| base_cfg(machine, k)).collect();
                varbench_case(&configs, &corpus, jobs)
            }),
        ),
        (
            "fig2",
            Box::new(|jobs| {
                let mut configs = vec![base_cfg(machine, EnvKind::Native)];
                configs.extend(
                    vm_sweep(machine)
                        .iter()
                        .map(|row| base_cfg(machine, EnvKind::Vm(row.count))),
                );
                varbench_case(&configs, &corpus, jobs)
            }),
        ),
        (
            "table3",
            Box::new(|jobs| {
                let configs: Vec<RunConfig> = container_sweep(machine)
                    .iter()
                    .map(|row| base_cfg(machine, EnvKind::Container(row.count)))
                    .collect();
                varbench_case(&configs, &corpus, jobs)
            }),
        ),
        (
            "fig3",
            Box::new(|jobs| {
                let mut points = Vec::new();
                for app in app_suite() {
                    for (virt, with_noise) in
                        [(true, false), (false, false), (true, true), (false, true)]
                    {
                        points.push((
                            app.clone(),
                            SingleNodeConfig {
                                requests: 120,
                                warmup: 12,
                                ..SingleNodeConfig::new(node_machine, 4, virt, with_noise, SEED)
                            },
                        ));
                    }
                }
                let results = run_points(&points, &noise, jobs);
                let mut d = Digest::new();
                let (mut sim_ns, mut events) = (0u64, 0u64);
                for t in &results {
                    sim_ns += t.sim_ns;
                    events += t.events;
                    d.fold(t.sim_ns);
                    d.fold(t.p99);
                    for &v in t.sojourns.raw() {
                        d.fold(v);
                    }
                }
                SimOut {
                    sim_ns,
                    events,
                    digest: d,
                }
            }),
        ),
        (
            "fig4",
            Box::new(|jobs| {
                let apps = cluster_suite();
                let mut d = Digest::new();
                let (mut sim_ns, mut events) = (0u64, 0u64);
                for app in apps.iter().take(2) {
                    for (virt, with_noise) in [(true, false), (false, true)] {
                        let cfg = ClusterConfig {
                            nodes: 4,
                            iterations: 3,
                            requests_per_iter: 20,
                            node: SingleNodeConfig {
                                util_pct: 92,
                                ..SingleNodeConfig::new(node_machine, 2, virt, with_noise, SEED)
                            },
                            barrier_ns: 40_000,
                            threads: jobs,
                        };
                        let res = run_cluster(app, &cfg, &noise);
                        sim_ns += res.total_ns;
                        // Engine events from the node simulations: without
                        // them this experiment reported events_per_sec 0.0
                        // and escaped all throughput accounting.
                        events += res.events;
                        for &it in &res.iteration_ns {
                            d.fold(it);
                        }
                        d.fold(res.mean_node_ns);
                    }
                }
                SimOut {
                    sim_ns,
                    events,
                    digest: d,
                }
            }),
        ),
        (
            "failover",
            Box::new(|jobs| {
                // A faulted cluster run exercising every recovery path:
                // crash + reboot, healed partition, lossy links. The
                // digest folds iteration times *and* fabric counters, so
                // the baseline pins the recovery machinery bit-for-bit.
                let app = &app_suite()[1];
                let cfg = ClusterConfig {
                    nodes: 6,
                    iterations: 4,
                    requests_per_iter: 20,
                    node: SingleNodeConfig {
                        util_pct: 92,
                        ..SingleNodeConfig::new(node_machine, 2, false, true, SEED)
                    },
                    barrier_ns: 40_000,
                    threads: jobs,
                };
                let plan = NodeFaultPlan::new(SEED)
                    .crash(2, 900_000, 1_500_000)
                    .partition(300_000, 1_400_000, vec![4, 5])
                    .drop_prob_milli(100);
                let res = run_cluster_faulted(app, &cfg, &noise, &plan, &FabricConfig::quick());
                let rep = res.fabric.clone().expect("faulted run reports fabric");
                let mut d = Digest::new();
                for &it in &res.iteration_ns {
                    d.fold(it);
                }
                for v in [
                    rep.reassignments,
                    rep.reexecs,
                    rep.crash_detections,
                    rep.rejoins,
                    rep.retransmits,
                    rep.dup_completions_dropped,
                    rep.completions,
                    rep.expected_completions,
                    rep.lost_completions,
                    res.coverage.len() as u64,
                ] {
                    d.fold(v);
                }
                SimOut {
                    sim_ns: res.total_ns,
                    events: res.events,
                    digest: d,
                }
            }),
        ),
        (
            "calibrate",
            Box::new(|jobs| {
                let mut points = Vec::new();
                for app in app_suite() {
                    for virt in [false, true] {
                        points.push((
                            app.clone(),
                            SingleNodeConfig {
                                requests: 100,
                                warmup: 10,
                                util_pct: 10,
                                ..SingleNodeConfig::new(
                                    Machine {
                                        cores: 16,
                                        mem_mib: 16 * 1024,
                                    },
                                    4,
                                    virt,
                                    false,
                                    SEED,
                                )
                            },
                        ));
                    }
                }
                let results = run_points(&points, &noise, jobs);
                let mut d = Digest::new();
                let (mut sim_ns, mut events) = (0u64, 0u64);
                for t in &results {
                    sim_ns += t.sim_ns;
                    events += t.events;
                    d.fold(t.sim_ns);
                    for &v in t.sojourns.raw() {
                        d.fold(v);
                    }
                }
                SimOut {
                    sim_ns,
                    events,
                    digest: d,
                }
            }),
        ),
        (
            "spec",
            Box::new(|jobs| {
                // Specialization micro-experiment: the same tiny campaign
                // unspecialized, under the full mask (which must change
                // nothing) and under a corpus-derived mask. The digest
                // folds the derived profile itself (allowlist + category
                // indices) before the runs, so both the derivation and
                // the specialized kernel are pinned bit-for-bit.
                let profile = ksa_spec::derive_profile("suite", &corpus, SEED);
                let mut d = Digest::new();
                for no in profile.mask.allowed() {
                    d.fold(no.index() as u64);
                }
                for c in profile.mask.categories() {
                    d.fold(c.index() as u64);
                }
                let configs: Vec<RunConfig> = [None, Some(SpecMask::full()), Some(profile.mask)]
                    .iter()
                    .map(|&spec| RunConfig {
                        spec,
                        ..base_cfg(machine, EnvKind::Vm(2))
                    })
                    .collect();
                let out = varbench_case(&configs, &corpus, jobs);
                d.fold(out.digest.0);
                SimOut {
                    sim_ns: out.sim_ns,
                    events: out.events,
                    digest: d,
                }
            }),
        ),
        (
            "churn",
            Box::new(|jobs| {
                // High-density tenant churn micro-experiment: one density
                // point, shared-kernel containers vs partitioned VMs. The
                // digest folds the per-run record-stream digest plus the
                // headline metrics, and every run must pass the fd/socket
                // slot-reuse hygiene audits — the pre-reuse allocator
                // fails here before any baseline comparison.
                let configs = [
                    ChurnConfig::quick(EnvKind::Container(8), 48, SEED),
                    ChurnConfig::quick(EnvKind::Vm(2), 48, SEED),
                ];
                let results = run_churn_points(&configs, jobs);
                let mut d = Digest::new();
                let (mut sim_ns, mut events) = (0u64, 0u64);
                for r in &results {
                    assert!(
                        r.arrived == r.exited
                            && r.fd_open_after == 0
                            && r.sock_live_after == 0
                            && r.tables_bounded,
                        "churn hygiene violated: arrived {} exited {} fds_open {} \
                         socks_live {} bounded {}",
                        r.arrived,
                        r.exited,
                        r.fd_open_after,
                        r.sock_live_after,
                        r.tables_bounded
                    );
                    sim_ns += r.sim_ns;
                    events += r.events;
                    d.fold(r.digest);
                    d.fold(r.cold_p99);
                    d.fold(r.worst_tenant_p99);
                    d.fold(r.requests_completed);
                }
                SimOut {
                    sim_ns,
                    events,
                    digest: d,
                }
            }),
        ),
    ];

    let mut rows = Vec::new();
    let mut diverged = false;
    let (mut total_seq, mut total_par, mut total_events) = (0u64, 0u64, 0u64);
    for (name, case) in &cases {
        let seq = timed(|| case(1));
        let par = timed(|| case(jobs));
        if seq.digest != par.digest || seq.sim_ns != par.sim_ns || seq.events != par.events {
            eprintln!(
                "suite: {name}: parallel run diverged from sequential \
                 (digest {} vs {}, sim_ns {} vs {})",
                seq.digest, par.digest, seq.sim_ns, par.sim_ns
            );
            diverged = true;
        }
        total_seq += seq.wall_ns;
        total_par += par.wall_ns;
        total_events += seq.events;
        let speedup = seq.wall_ns as f64 / par.wall_ns.max(1) as f64;
        let eps = |p: &Pass| p.events as f64 / (p.wall_ns.max(1) as f64 / 1e9);
        eprintln!(
            "suite: {name:<10} seq {:>8.1}ms  par {:>8.1}ms  speedup {speedup:>5.2}x  \
             sim {:>6.1}ms  {:>9.0} ev/s par",
            seq.wall_ns as f64 / 1e6,
            par.wall_ns as f64 / 1e6,
            seq.sim_ns as f64 / 1e6,
            eps(&par),
        );
        rows.push(Value::object([
            ("name", Value::str(*name)),
            ("seq_wall_ns", Value::from(seq.wall_ns)),
            ("par_wall_ns", Value::from(par.wall_ns)),
            ("speedup", Value::from(speedup)),
            ("sim_ns", Value::from(seq.sim_ns)),
            ("events", Value::from(seq.events)),
            ("events_per_sec_seq", Value::from(eps(&seq))),
            ("events_per_sec_par", Value::from(eps(&par))),
            ("digest", Value::str(seq.digest.clone())),
        ]));
    }

    let overall = total_seq as f64 / total_par.max(1) as f64;
    eprintln!(
        "suite: total seq {:.1}ms  par {:.1}ms  overall speedup {overall:.2}x",
        total_seq as f64 / 1e6,
        total_par as f64 / 1e6
    );

    // The perf floor's basis: the sequential pass, at jobs = 1 with
    // telemetry off, over every experiment.
    let eps_seq = total_events as f64 / (total_seq.max(1) as f64 / 1e9);
    eprintln!("suite: sequential throughput {eps_seq:.0} ev/s");

    let report = Value::object([
        ("version", Value::from(1u64)),
        ("seed", Value::from(SEED)),
        ("hardware_threads", Value::from(threads)),
        ("parallel_jobs", Value::from(resolved)),
        ("total_seq_wall_ns", Value::from(total_seq)),
        ("total_par_wall_ns", Value::from(total_par)),
        ("overall_speedup", Value::from(overall)),
        ("events_per_sec_seq", Value::from(eps_seq)),
        ("experiments", Value::array(rows.iter().cloned())),
    ]);
    std::fs::write(&out_path, report.render()).expect("write suite report");
    eprintln!("suite: wrote {out_path}");

    // A run whose passes disagree is not deterministic, so none of its
    // numbers may become a baseline.
    if diverged {
        std::process::exit(4);
    }

    // Parse the baseline (if any) once: the drift gate and the perf
    // floor both read it, and --write-baseline carries its floor
    // forward.
    let base_doc: Option<Value> = baseline.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| baseline_malformed(path, format_args!("cannot read: {e}")));
        ksa_json::parse(&text)
            .unwrap_or_else(|e| baseline_malformed(path, format_args!("invalid JSON: {e}")))
    });
    let baseline_floor: Option<f64> = base_doc
        .as_ref()
        .and_then(|b| b.get("events_per_sec_floor").ok())
        .map(|v| {
            v.as_f64().unwrap_or_else(|e| {
                baseline_malformed(
                    baseline.as_deref().unwrap_or_default(),
                    format_args!("events_per_sec_floor: {e}"),
                )
            })
        });
    let floor_out = floor_flag.or(baseline_floor);

    if let Some(path) = write_baseline {
        // The baseline is the gated (machine-independent) subset only,
        // plus the perf floor (carried from the read baseline or set
        // with --floor).
        let mut gated_fields = vec![("version", Value::from(1u64)), ("seed", Value::from(SEED))];
        if let Some(floor) = floor_out {
            gated_fields.push(("events_per_sec_floor", Value::from(floor)));
        }
        gated_fields.push((
            "experiments",
            Value::array(rows.iter().map(|e| {
                Value::object(
                    ["name", "sim_ns", "events", "digest"].map(|k| (k, e.get(k).unwrap().clone())),
                )
            })),
        ));
        let gated = Value::object(gated_fields);
        std::fs::write(&path, gated.render()).expect("write baseline");
        eprintln!("suite: wrote baseline {path}");
    }

    if let Some(base) = &base_doc {
        let path = baseline.as_deref().unwrap_or_default();
        let mut drift = false;
        let base_rows = base
            .get("experiments")
            .and_then(|v| v.as_array())
            .unwrap_or_else(|e| baseline_malformed(path, format_args!("experiments: {e}")));
        let mut base_names = Vec::with_capacity(base_rows.len());
        for (i, be) in base_rows.iter().enumerate() {
            let name = be.get("name").and_then(|v| v.as_str()).unwrap_or_else(|e| {
                baseline_malformed(path, format_args!("experiments[{i}].name: {e}"))
            });
            base_names.push(name);
            // The rows are suite-built this run, so their shape is known.
            let Some(now) = rows
                .iter()
                .find(|e| e.get("name").unwrap().as_str().unwrap() == name)
            else {
                eprintln!("suite: baseline experiment {name} missing from this run");
                drift = true;
                continue;
            };
            for key in ["digest", "sim_ns", "events"] {
                let want = be.get(key).unwrap_or_else(|e| {
                    baseline_malformed(path, format_args!("experiments[{i}] ({name}).{key}: {e}"))
                });
                let got = now.get(key).unwrap();
                if want.render() != got.render() {
                    eprintln!(
                        "suite: {name}: gated metric {key} drifted from baseline: \
                         {} -> {}",
                        want.render(),
                        got.render()
                    );
                    drift = true;
                }
            }
        }
        // An experiment the baseline lacks is ungated, so it is drift too.
        for e in &rows {
            let name = e.get("name").unwrap().as_str().unwrap();
            if !base_names.contains(&name) {
                eprintln!("suite: experiment {name} missing from baseline {path}");
                drift = true;
            }
        }
        if drift {
            eprintln!("suite: simulated metrics drifted — if intentional, regenerate the baseline with --write-baseline");
            std::process::exit(2);
        }
        eprintln!("suite: all gated metrics match {path}");
    }

    // The speedup gate only means something with real parallelism
    // underneath; the CI job runs on >= 4-thread runners.
    if threads >= 4 && resolved >= 2 {
        if overall < min_speedup {
            eprintln!(
                "suite: overall parallel speedup {overall:.2}x is below the {min_speedup:.2}x gate \
                 on {threads} hardware threads"
            );
            std::process::exit(3);
        }
        eprintln!("suite: speedup gate passed ({overall:.2}x >= {min_speedup:.2}x)");
    } else {
        eprintln!("suite: speedup gate skipped ({threads} hardware threads, {resolved} workers)");
    }

    // Perf floor: the sequential throughput must not fall below the
    // committed floor — the engine's regression tripwire.
    // KSA_SKIP_PERF_FLOOR is the escape hatch for runners too slow to
    // meaningfully compare against the committed measurement.
    if let Some(floor) = baseline_floor {
        if std::env::var_os("KSA_SKIP_PERF_FLOOR").is_some() {
            eprintln!(
                "suite: perf floor skipped (KSA_SKIP_PERF_FLOOR set; measured {eps_seq:.0} ev/s, \
                 floor {floor:.0})"
            );
        } else if eps_seq < floor {
            eprintln!(
                "suite: sequential throughput {eps_seq:.0} ev/s is below the committed floor \
                 {floor:.0} ev/s — a hot-path regression (set KSA_SKIP_PERF_FLOOR=1 on \
                 underpowered runners)"
            );
            std::process::exit(5);
        } else {
            eprintln!("suite: perf floor passed ({eps_seq:.0} ev/s >= {floor:.0} ev/s)");
        }
    }
}
