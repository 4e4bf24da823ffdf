//! The telemetry layer off/on: observer effects and drifting exports
//! fail the gates.
//!
//! Two workloads run with telemetry off and on — the Table 2 syscall
//! campaign (varbench) and the xapian request path (tailbench) — and
//! four gate families check:
//!
//! 1. **neutrality** — the simulation is bit-identical with telemetry
//!    enabled: clock, event count, per-site latencies and sojourn
//!    samples all match the disabled run, and the disabled registry
//!    never takes a sample;
//! 2. **attribution** — enabled per-category telemetry totals exactly
//!    equal the independently-collected [`AttributionTable`] sums, and
//!    the engine counter equals the run's event count;
//! 3. **exports** — the Prometheus text, time-series JSON, collapsed
//!    stacks and speedscope profile all parse / are well-formed;
//! 4. **determinism** — with telemetry on, replay and `--jobs` pool
//!    widths reproduce the same results *and* the same registry digest.

use crate::{same_tail, Gates};
use ksa_bench::{cell_ns, Cli};
use ksa_core::experiments::{default_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec};
use ksa_json::parse;
use ksa_kernel::attribution_frames;
use ksa_tailbench::single_node::{run_single_node, SingleNodeConfig};
use ksa_tailbench::suite;
use ksa_telemetry::export::{collapsed, prometheus_text, speedscope_json, timeseries_json};
use ksa_varbench::{run_configs, RunConfig, RunResult};

fn same_sim(a: &RunResult, b: &RunResult) -> bool {
    a.sim_ns == b.sim_ns
        && a.events == b.events
        && a.sites.len() == b.sites.len()
        && a.attrib.calls() == b.attrib.calls()
        && a.attrib.grand_total().total == b.attrib.grand_total().total
}

pub fn run(cli: &Cli, gates: &mut Gates) {
    // ------------------------------------------------ varbench campaign
    let corpus = default_corpus(cli.scale).corpus;
    let scale = match cli.scale {
        Scale::Full => Scale::Quick, // the gate needs a real run, not an hour
        s => s,
    };
    let env = EnvSpec::new(scale.machine(), EnvKind::Vm(4));
    let run_one = |metrics: bool, jobs: usize| {
        let cfg = RunConfig {
            metrics,
            ..RunConfig::new(env, scale.iterations(), cli.seed)
        };
        run_configs(&[cfg], &corpus, jobs, &|_, _| {})
            .remove(0)
            .unwrap_or_else(|e| panic!("ablation_obs trial failed: {e:?}"))
    };
    let off = run_one(false, cli.jobs);
    let on = run_one(true, cli.jobs);
    let (m, clock) = (&on.metrics, cell_ns(on.sim_ns));
    println!(
        "varbench: {} events / clock {clock} / {} telemetry samples",
        on.events, m.samples_taken
    );

    gates.check(
        "neutrality/varbench",
        same_sim(&off, &on) && !off.metrics.enabled() && off.metrics.samples_taken == 0,
        format!(
            "telemetry on: clock {clock} events {} == disabled run; disabled registry inert",
            on.events
        ),
    );
    let (samples, series) = (m.samples_taken, m.metrics().len());
    gates.check(
        "neutrality/samples-flow",
        m.enabled() && samples >= 1 && series > 0,
        format!("{samples} samples over {series} series"),
    );

    // Gate 2: telemetry totals are exactly the attribution sums.
    let per_cat_ok = on.attrib.by_category().all(|(cat, (calls, agg))| {
        let label = [("category", cat.name())];
        m.value_of("syscall_calls", &label) == Some(*calls)
            && m.value_of("syscall_ns", &label) == Some(agg.total)
    });
    let cats = on.attrib.by_category().count();
    gates.check(
        "attribution/per-category",
        per_cat_ok && cats > 0,
        format!("{cats} categories: syscall_calls/syscall_ns match the table exactly"),
    );
    let syscall_ns = m.total("syscall_ns");
    gates.check(
        "attribution/grand-totals",
        syscall_ns == on.attrib.grand_total().total
            && m.total("syscall_calls") == on.attrib.calls()
            && m.total("engine_events_dispatched") == on.events,
        format!(
            "syscall_ns {syscall_ns} == attrib total; engine_events_dispatched {} == run events",
            on.events
        ),
    );

    // ------------------------------------------------ tailbench request path
    let app = &suite()[0]; // xapian
    let base = match cli.scale {
        Scale::Full => SingleNodeConfig::paper(true, false, cli.seed),
        _ => SingleNodeConfig::quick(true, false, cli.seed),
    };
    let tail_off = run_single_node(app, &base, &corpus);
    let metered = SingleNodeConfig {
        metrics: true,
        ..base
    };
    let tail_on = run_single_node(app, &metered, &corpus);
    let requests = tail_on.metrics.total("tenant_requests");
    gates.check(
        "neutrality/tailbench",
        same_tail(&tail_off, &tail_on) && !tail_off.metrics.enabled() && requests == base.requests,
        format!(
            "p99 {} and {} sojourns identical; {requests} requests counted",
            cell_ns(tail_on.p99),
            tail_on.sojourns.raw().len()
        ),
    );

    // Gate 3: every export format parses.
    let frames = attribution_frames(&on.attrib);
    let ts_ok = parse(&timeseries_json(m))
        .is_ok_and(|v| v.get("samples_taken").is_ok() && v.get("series").is_ok());
    let ss_ok =
        parse(&speedscope_json("ablation_obs", &frames)).is_ok_and(|v| v.get("profiles").is_ok());
    let is_u64 = |v: &str| v.parse::<u64>().is_ok();
    let prom = prometheus_text(m);
    let prom_ok = !prom.is_empty()
        && prom
            .lines()
            .all(|l| l.starts_with('#') || l.rsplit_once(' ').is_some_and(|(_, v)| is_u64(v)));
    let folded = collapsed(&frames);
    let folded_ok = !folded.is_empty()
        && folded.lines().all(|l| {
            l.rsplit_once(' ')
                .is_some_and(|(stack, v)| stack.contains(';') && is_u64(v))
        });
    gates.check(
        "exports/parse",
        ts_ok && ss_ok && prom_ok && folded_ok,
        format!(
            "timeseries+speedscope JSON parse; {} prom lines, {} folded stacks well-formed",
            prom.lines().count(),
            folded.lines().count()
        ),
    );

    // Gate 4: replay and pool width reproduce results *and* registries.
    let seq = run_one(true, 1);
    let replay = run_one(true, cli.jobs);
    let digest = m.digest();
    gates.check(
        "determinism/jobs-and-replay",
        [&seq, &replay]
            .iter()
            .all(|r| same_sim(r, &on) && r.metrics.digest() == digest),
        format!(
            "--jobs 1 vs {} and replay bit-identical (registry digest {digest:#018x})",
            cli.jobs
        ),
    );

    let mut csv = String::from("gate,run,sim_ns,events,telemetry_samples,registry_digest\n");
    for (name, r) in [
        ("off", &off),
        ("on", &on),
        ("seq", &seq),
        ("replay", &replay),
    ] {
        let (sim, events, samples) = (r.sim_ns, r.events, r.metrics.samples_taken);
        let digest = r.metrics.digest();
        csv.push_str(&format!(
            "varbench,{name},{sim},{events},{samples},{digest:#018x}\n"
        ));
    }
    cli.write_csv("ablation_obs", &csv);
    cli.write_metrics("ablation_obs", m, &frames);
}
