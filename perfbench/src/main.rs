//! `perfbench` — host wall-clock benchmark of the simulator.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--size full|tiny] [--spans-out PATH] [--perturb-pin]
//! ```
//!
//! One process runs one workload on one thread. It sets the workload up
//! several times (the median is `setup_s`), then runs closed-loop trials
//! for `--seconds`. Every trial's simulated outputs are checked: its
//! invariants for any seed, and for the default seed its FNV digest
//! against the value pinned below. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! With `--trace 0` the metrics are the end-to-end ones: the median
//! trial wall time divided by the median time of the machine-speed
//! reference (see `reference.rs`) timed between trials, the set-up time
//! and the peak resident memory. With
//! `--trace 1` the budget is split between an untraced and a traced
//! half, followed by one counting pass (simulator telemetry on, for the
//! engine counters only; its timings are discarded) and the per-layer
//! replays, and the metrics are the per-layer ones. `--perturb-pin`
//! flips a bit of the pinned digest, so every default-seed trial must
//! be reported failed.

mod reference;
mod replay;
mod spans;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;
use std::time::{Duration, Instant};

use spans::{child_coverage, layer_times, tagged_ns, to_jsonl, Span, Tracer};
use workloads::{Churn, Counts, Size, Workload};

/// The default workload seed; pinned digests hold for it.
const DEFAULT_SEED: u64 = 42;

/// FNV digests of each workload's simulated outputs at the default seed.
const PINNED: [(&str, Size, u64); 8] = [
    ("syscall_sweep", Size::Full, 0x662e597ea25e35c3),
    ("tail_serving", Size::Full, 0x615dd3efb3bc5132),
    ("tenant_churn", Size::Full, 0xc781c253a6dc61b1),
    ("observed_sweep", Size::Full, 0x23155e9666a941d6),
    ("syscall_sweep", Size::Tiny, 0x36327d32dfe969fc),
    ("tail_serving", Size::Tiny, 0xfec8a83acd4556a6),
    ("tenant_churn", Size::Tiny, 0x8f5de40a084b4b6b),
    ("observed_sweep", Size::Tiny, 0x2664d109b7d20b82),
];

/// Per-layer metrics (`--trace 1`), with units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("wall_s", "s"),
    ("ref_s", "s"),
    ("syzgen.generate_s", "s"),
    ("spec.derive_s", "s"),
    ("envsim.build_s", "s"),
    ("varbench.run_s", "s"),
    ("varbench.host_ns_per_syscall", "ns"),
    ("kernel.syscalls", "count"),
    ("kernel.dispatch_ns", "ns"),
    ("kernel.coverage_hit_ns", "ns"),
    ("kernel.attrib_record_ns", "ns"),
    ("desim.events", "count"),
    ("desim.events_scheduled", "count"),
    ("desim.process_wakes", "count"),
    ("desim.queue_peak", "count"),
    ("desim.events_per_s", "1/s"),
    ("desim.equeue_op_ns", "ns"),
    ("tailbench.run_s", "s"),
    ("tailbench.requests", "count"),
    ("tailbench.host_us_per_request", "us"),
    ("cluster.run_s", "s"),
    ("cluster.retransmits", "count"),
    ("cluster.reexecs", "count"),
    ("churn.run_s", "s"),
    ("churn.tenants", "count"),
    ("churn.host_us_per_tenant_d256", "us"),
    ("churn.host_us_per_tenant_d4096", "us"),
    ("stats.aggregate_s", "s"),
    ("stats.quantile_ns", "ns"),
    ("telemetry.absorb_s", "s"),
    ("telemetry.export_s", "s"),
    ("telemetry.samples_taken", "count"),
    ("trace.export_s", "s"),
    ("trace.events_recorded", "count"),
    ("trace.dropped", "count"),
    ("bench.trace_overhead", "ratio"),
    ("bench.span_coverage", "ratio"),
    ("bench.observer_cost", "ratio"),
];

/// Set-up repeats before the first trial: at least this many, and more
/// (up to the cap) until this much time has been spent. `setup_s` is the
/// median over this and every later slice's median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 2_000;
const SETUP_MIN_TIME: Duration = Duration::from_millis(300);
/// Set-up time spent before each trial round (at least one repeat).
const SETUP_SLICE: Duration = Duration::from_millis(20);
/// Capacity reserved up front for per-trial and per-slice timings, so
/// they do not grow while trials run.
const RESERVED: usize = 1 << 14;
/// Reference runs timed after the untraced half of a traced run.
const REF_REPS: usize = 9;
/// Fewest trials a timed phase runs, whatever its budget.
const MIN_TRIALS: usize = 3;

const USAGE: &str = "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--size full|tiny] [--spans-out PATH] [--perturb-pin]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    spans_out: Option<String>,
    perturb_pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        spans_out: None,
        perturb_pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--perturb-pin" {
            a.perturb_pin = true;
            continue;
        }
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                a.size = match v.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            "--spans-out" => a.spans_out = Some(v.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn median(v: &[f64]) -> f64 {
    median_in_place(&mut v.to_vec())
}

/// Median by sorting `v` in place (no allocation).
fn median_in_place(v: &mut [f64]) -> f64 {
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// What one workload's closed loop measured.
#[derive(Default)]
struct LoopOut {
    walls: Vec<f64>,
    attempted: u64,
    failed: u64,
    first_digest: Option<u64>,
}

/// Runs one trial under panic isolation and checks it: invariants,
/// the pinned digest (default seed), and for any seed that every trial
/// reproduces the first one's digest.
fn checked_trial(
    w: &dyn Workload,
    t: &Tracer,
    counting: bool,
    pinned: Option<u64>,
    first: &mut Option<u64>,
) -> (workloads::TrialOut, bool) {
    let out = match catch_unwind(AssertUnwindSafe(|| w.trial(t, counting))) {
        Ok(out) => out,
        Err(_) => {
            eprintln!("perfbench: trial panicked");
            return (Default::default(), false);
        }
    };
    let mut ok = out.violations.is_empty();
    for v in &out.violations {
        eprintln!("perfbench: violation: {v}");
    }
    let want = pinned.or(*first);
    if let Some(want) = want {
        if out.digest != want {
            eprintln!(
                "perfbench: digest {:016x} != expected {want:016x}",
                out.digest
            );
            ok = false;
        }
    }
    first.get_or_insert(out.digest);
    (out, ok)
}

/// Sets `w` up repeatedly until at least `min_reps` repeats and
/// `min_time` have passed (at most [`SETUP_MAX_REPS`]), and records the
/// slice's median repeat time. Repeat times live on the stack: heap
/// allocations interleaved with trials at time-dependent moments would
/// make the heap layout, and so `peak_rss_mib`, vary from run to run.
fn setup_slice(
    w: &mut dyn Workload,
    t: &Tracer,
    setups: &mut Vec<f64>,
    min_reps: usize,
    min_time: Duration,
) {
    let start = Instant::now();
    let mut reps = [0f64; SETUP_MAX_REPS];
    let mut n = 0;
    while n < min_reps || (start.elapsed() < min_time && n < SETUP_MAX_REPS) {
        let t0 = Instant::now();
        w.setup(t);
        reps[n] = t0.elapsed().as_secs_f64();
        n += 1;
    }
    setups.push(median_in_place(&mut reps[..n]));
}

/// What is sampled between trials: set-up slices and reference runs.
struct Sampler {
    setups: Vec<f64>,
    refs: Vec<f64>,
    reference: reference::Reference,
}

/// Closed loop: trials back to back, round-robin over `ws`, until
/// `budget` has passed and each has timed [`MIN_TRIALS`]. With a
/// sampler, each round starts with a slice of set-up repeats of the
/// first workload and one reference run, so `setup_s` and the reference
/// sample the whole run rather than its start.
fn closed_loop(
    ws: &mut [(&mut dyn Workload, Option<u64>)],
    t: &Tracer,
    budget: Duration,
    next_id: &mut u64,
    mut sampler: Option<&mut Sampler>,
) -> Vec<LoopOut> {
    let mut outs: Vec<LoopOut> = ws
        .iter()
        .map(|_| LoopOut {
            walls: Vec::with_capacity(RESERVED),
            ..LoopOut::default()
        })
        .collect();
    let start = Instant::now();
    loop {
        if let Some(sm) = sampler.as_deref_mut() {
            let off = Tracer::new(false);
            setup_slice(&mut *ws[0].0, &off, &mut sm.setups, 1, SETUP_SLICE);
            sm.refs.push(sm.reference.time());
        }
        for ((w, pinned), lo) in ws.iter().zip(&mut outs) {
            t.begin_trial(*next_id);
            *next_id += 1;
            let t0 = Instant::now();
            t.enter("trial", 0);
            let (_, ok) = checked_trial(&**w, t, false, *pinned, &mut lo.first_digest);
            t.end_trial();
            // The first trial warms caches and the allocator: checked,
            // but not timed.
            if lo.attempted > 0 {
                lo.walls.push(t0.elapsed().as_secs_f64());
            }
            lo.attempted += 1;
            lo.failed += u64::from(!ok);
        }
        if start.elapsed() >= budget && outs.iter().all(|o| o.walls.len() >= MIN_TRIALS) {
            return outs;
        }
    }
}

fn pinned_for(args: &Args, workload: &str) -> Option<u64> {
    if args.seed != DEFAULT_SEED {
        return None;
    }
    let pin = PINNED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == args.size)
        .map(|p| p.2)?;
    Some(pin ^ u64::from(args.perturb_pin))
}

fn median_span(spans: &[Span], name: &str) -> f64 {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .collect();
    median(&durs)
}

fn report_setups(setups: &[f64]) {
    let mut s = setups.to_vec();
    s.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: set-up slice medians: min {:.3e}s median {:.3e}s max {:.3e}s over {} slices",
        s[0],
        median(&s),
        s[s.len() - 1],
        s.len()
    );
}

fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    eprintln!("perfbench: {attempted} trials, {failed} failed, correct={correct}");
    for (name, unit, v) in metrics {
        eprintln!("  {name:<34} {v:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        exit(2);
    });
    let Some(mut w) = workloads::make(&args.workload, args.size, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            workloads::NAMES
        );
        exit(2);
    };
    let pinned = pinned_for(&args, &args.workload);

    // Set-up, repeated; the inputs of the last repeat are used.
    let setup_tracer = Tracer::new(args.trace);
    let mut sampler = Sampler {
        setups: Vec::with_capacity(RESERVED),
        refs: Vec::with_capacity(RESERVED),
        reference: reference::Reference::new(),
    };
    setup_slice(
        w.as_mut(),
        &setup_tracer,
        &mut sampler.setups,
        SETUP_MIN_REPS,
        SETUP_MIN_TIME,
    );
    let budget = Duration::from_secs_f64(args.seconds);
    let mut next_id = 0u64;

    if !args.trace {
        let off = Tracer::new(false);
        let lo = closed_loop(
            &mut [(w.as_mut(), pinned)],
            &off,
            budget,
            &mut next_id,
            Some(&mut sampler),
        )
        .pop()
        .expect("one workload");
        let mut walls = lo.walls.clone();
        walls.sort_by(f64::total_cmp);
        let (wall, refs) = (median(&lo.walls), median(&sampler.refs));
        eprintln!("perfbench: trial walls (s, sorted): {walls:.4?}");
        eprintln!("perfbench: wall_s {wall:.6}s, reference {refs:.6}s");
        report_setups(&sampler.setups);
        let Some(rss) = peak_rss_mib() else {
            eprintln!("perfbench: cannot read peak RSS from /proc/self/status");
            exit(1);
        };
        emit(
            lo.failed == 0,
            lo.attempted,
            lo.failed,
            &[
                ("wall_ref", "ratio", wall / refs),
                ("setup_s", "s", median(&sampler.setups)),
                ("peak_rss_mib", "MiB", rss),
            ],
        );
        return;
    }

    // Untraced half; an observed workload alternates with its
    // unobserved twin for the observer-cost ratio.
    let off = Tracer::new(false);
    let mut twin = w.unobserved();
    let mut ws: Vec<(&mut dyn Workload, Option<u64>)> = vec![(w.as_mut(), pinned)];
    if let Some(tw) = &mut twin {
        ws.push((tw.as_mut(), pinned_for(&args, "syscall_sweep")));
    }
    let untraced = closed_loop(&mut ws, &off, budget / 2, &mut next_id, None);
    let on = Tracer::new(true);
    let traced = closed_loop(
        &mut [(w.as_mut(), pinned)],
        &on,
        budget / 2,
        &mut next_id,
        None,
    )
    .pop()
    .expect("one workload");
    let (counted, counted_ok) = checked_trial(w.as_ref(), &off, true, pinned, &mut None);

    let wall_off = median(&untraced[0].walls);
    let mut reference = reference::Reference::new();
    let ref_s = median(&(0..REF_REPS).map(|_| reference.time()).collect::<Vec<_>>());
    let wall_on = median(&traced.walls);
    let spans = on.spans();
    let n = traced.attempted as f64;
    let lt = layer_times(&spans);
    let self_s = |name: &str| lt.get(name).map_or(0.0, |l| l.self_ns as f64 / 1e9 / n);
    let total_s = |name: &str| lt.get(name).map_or(0.0, |l| l.total_ns as f64 / 1e9 / n);
    let c: &Counts = &counted.counts;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let (dispatch_ns, coverage_ns, attrib_ns, quantile_ns, hits_per_call) = match &counted.material
    {
        Some(m) => {
            let (d, hits) = replay::dispatch(m, args.seed);
            let total: usize = hits.iter().map(Vec::len).sum();
            (
                d,
                replay::coverage(&hits),
                replay::attrib_record(m),
                replay::quantile(m),
                per(total as f64, hits.len() as f64),
            )
        }
        None => (0.0, 0.0, 0.0, 0.0, 0.0),
    };
    let equeue_ns = replay::equeue(c.get("desim.queue_peak") as usize, args.seed);

    let churn_us = |d: usize| {
        if args.workload != "tenant_churn" {
            return 0.0;
        }
        per(
            tagged_ns(&spans, "churn.run", d as u64) as f64 / 1e3 / n,
            6.0 * d as f64,
        )
    };
    let densities = Churn::densities(args.size);
    let setup_spans = setup_tracer.spans();
    let observer_cost = untraced
        .get(1)
        .map_or(0.0, |plain| per(wall_off, median(&plain.walls)));

    let value = |name: &str| -> f64 {
        match name {
            "wall_s" => wall_off,
            "ref_s" => ref_s,
            "syzgen.generate_s" => median_span(&setup_spans, "syzgen.generate"),
            "spec.derive_s" => median_span(&setup_spans, "spec.derive"),
            "envsim.build_s" => self_s("envsim.build"),
            "varbench.run_s" => self_s("varbench.run"),
            "varbench.host_ns_per_syscall" => {
                per(total_s("varbench.run") * 1e9, c.get("kernel.syscalls"))
            }
            "kernel.dispatch_ns" => dispatch_ns,
            "kernel.coverage_hit_ns" => coverage_ns,
            "kernel.attrib_record_ns" => attrib_ns,
            "desim.events_per_s" => per(c.get("desim.events"), wall_off),
            "desim.equeue_op_ns" => equeue_ns,
            "tailbench.run_s" => self_s("tailbench.run"),
            "tailbench.host_us_per_request" => {
                per(total_s("tailbench.run") * 1e6, c.get("tailbench.requests"))
            }
            "cluster.run_s" => self_s("cluster.run"),
            "churn.run_s" => self_s("churn.run"),
            "churn.host_us_per_tenant_d256" => churn_us(densities[0]),
            "churn.host_us_per_tenant_d4096" => churn_us(densities[densities.len() - 1]),
            "stats.aggregate_s" => self_s("stats.aggregate"),
            "stats.quantile_ns" => quantile_ns,
            "telemetry.absorb_s" => self_s("telemetry.absorb"),
            "telemetry.export_s" => self_s("telemetry.export"),
            "trace.export_s" => self_s("trace.export"),
            "bench.trace_overhead" => per(wall_on, wall_off),
            "bench.span_coverage" => child_coverage(&spans, "trial"),
            "bench.observer_cost" => observer_cost,
            counted_name => c.get(counted_name),
        }
    };
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, value(name)))
        .collect();

    // The human report: self time per layer span, the replays against
    // the counts they multiply, and the observer cost.
    eprintln!(
        "perfbench: traced {} trials: median {wall_on:.4}s vs untraced {wall_off:.4}s",
        traced.attempted
    );
    for (name, l) in &lt {
        eprintln!(
            "  span {name:<20} self {:>10.6}s/trial  ({:.1}% of traced trials)",
            l.self_ns as f64 / 1e9 / n,
            100.0 * per(l.self_ns as f64 / 1e9 / n, total_s("trial"))
        );
    }
    let syscalls = c.get("kernel.syscalls");
    for (what, ns, count) in [
        ("dispatch+relower", dispatch_ns, syscalls),
        ("attribution record", attrib_ns, syscalls),
        ("coverage insert", coverage_ns, hits_per_call * syscalls),
        (
            "equeue push+pop",
            equeue_ns,
            c.get("desim.events_scheduled"),
        ),
        ("quantile", quantile_ns, c.get("stats.quantile_calls")),
    ] {
        eprintln!(
            "  replay {what:<28} {ns:>9.1} ns/op x {count:>12.0} = {:>5.1}% of wall_s",
            100.0 * per(ns * count / 1e9, wall_off)
        );
    }
    if observer_cost > 0.0 {
        eprintln!(
            "perfbench: observer cost observed_sweep.wall_s / syscall_sweep.wall_s = {observer_cost:.3}"
        );
    }
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, to_jsonl(&spans)) {
            eprintln!("perfbench: cannot write spans to {path}: {e}");
            exit(1);
        }
    }

    let attempted = untraced.iter().map(|o| o.attempted).sum::<u64>() + traced.attempted;
    let failed = untraced.iter().map(|o| o.failed).sum::<u64>() + traced.failed;
    emit(failed == 0 && counted_ok, attempted, failed, &metrics);
}
