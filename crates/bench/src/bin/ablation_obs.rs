//! Observability ablation: the telemetry layer is gated so observer
//! effects and drifting exports fail CI.
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
//!
//! Exit code 1 on any gate failure.

use ksa_bench::{cell_ns, Cli};
use ksa_core::experiments::{default_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec};
use ksa_json::parse;
use ksa_kernel::attribution_frames;
use ksa_tailbench::single_node::{run_single_node, SingleNodeConfig, TailResult};
use ksa_tailbench::suite;
use ksa_telemetry::export::{collapsed, prometheus_text, speedscope_json, timeseries_json};
use ksa_varbench::{run_configs, RunConfig, RunResult};

struct Gates {
    failures: u32,
}

impl Gates {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        let verdict = if ok { "ok  " } else { "FAIL" };
        println!("  [{verdict}] {name}: {detail}");
        if !ok {
            self.failures += 1;
        }
    }
}

fn same_sim(a: &RunResult, b: &RunResult) -> bool {
    a.sim_ns == b.sim_ns
        && a.events == b.events
        && a.sites.len() == b.sites.len()
        && a.attrib.calls() == b.attrib.calls()
        && a.attrib.grand_total().total == b.attrib.grand_total().total
}

fn same_tail(a: &TailResult, b: &TailResult) -> bool {
    a.p99 == b.p99
        && a.sim_ns == b.sim_ns
        && a.events == b.events
        && a.sojourns.raw() == b.sojourns.raw()
        && a.batch_durations == b.batch_durations
}

fn main() {
    let cli = Cli::parse();
    let mut gates = Gates { failures: 0 };

    // ------------------------------------------------ varbench campaign
    let corpus = default_corpus(cli.scale);
    let scale = match cli.scale {
        Scale::Full => Scale::Quick, // the gate needs a real run, not an hour
        s => s,
    };
    let mk_cfg = |metrics: bool| RunConfig {
        env: EnvSpec::new(scale.machine(), EnvKind::Vm(4)),
        iterations: scale.iterations(),
        sync: true,
        seed: cli.seed,
        max_events: 0,
        trace: false,
        metrics,
        spec: None,
    };
    let off = run_one(mk_cfg(false), &corpus.corpus, cli.jobs);
    let on = run_one(mk_cfg(true), &corpus.corpus, cli.jobs);
    println!(
        "varbench: {} events / clock {} / {} telemetry samples",
        on.events,
        cell_ns(on.sim_ns),
        on.metrics.samples_taken
    );

    gates.check(
        "neutrality/varbench",
        same_sim(&off, &on) && !off.metrics.enabled() && off.metrics.samples_taken == 0,
        format!(
            "telemetry on: clock {} events {} == disabled run; disabled registry inert",
            cell_ns(on.sim_ns),
            on.events
        ),
    );
    gates.check(
        "neutrality/samples-flow",
        on.metrics.enabled() && on.metrics.samples_taken >= 1 && !on.metrics.metrics().is_empty(),
        format!(
            "{} samples over {} series",
            on.metrics.samples_taken,
            on.metrics.metrics().len()
        ),
    );

    // Gate 2: telemetry totals are exactly the attribution sums.
    let grand = on.attrib.grand_total();
    let mut per_cat_ok = true;
    for (cat, (calls, agg)) in on.attrib.by_category() {
        let label = [("category", cat.name())];
        per_cat_ok &= on.metrics.value_of("syscall_calls", &label) == Some(*calls)
            && on.metrics.value_of("syscall_ns", &label) == Some(agg.total);
    }
    gates.check(
        "attribution/per-category",
        per_cat_ok && on.attrib.by_category().next().is_some(),
        format!(
            "{} categories: syscall_calls/syscall_ns match the table exactly",
            on.attrib.by_category().count()
        ),
    );
    gates.check(
        "attribution/grand-totals",
        on.metrics.total("syscall_ns") == grand.total
            && on.metrics.total("syscall_calls") == on.attrib.calls()
            && on.metrics.total("engine_events_dispatched") == on.events,
        format!(
            "syscall_ns {} == attrib total; engine_events_dispatched {} == run events",
            on.metrics.total("syscall_ns"),
            on.events
        ),
    );

    // ------------------------------------------------ tailbench request path
    let apps = suite();
    let app = &apps[0]; // xapian
    let base = match cli.scale {
        Scale::Full => SingleNodeConfig::paper(true, false, cli.seed),
        _ => SingleNodeConfig::quick(true, false, cli.seed),
    };
    let tail_off = run_single_node(app, &SingleNodeConfig { ..base }, &corpus.corpus);
    let tail_on = run_single_node(
        app,
        &SingleNodeConfig {
            metrics: true,
            ..base
        },
        &corpus.corpus,
    );
    gates.check(
        "neutrality/tailbench",
        same_tail(&tail_off, &tail_on)
            && !tail_off.metrics.enabled()
            && tail_on.metrics.total("tenant_requests") == base.requests,
        format!(
            "p99 {} and {} sojourns identical; {} requests counted",
            cell_ns(tail_on.p99),
            tail_on.sojourns.raw().len(),
            tail_on.metrics.total("tenant_requests")
        ),
    );

    // Gate 3: every export format parses.
    let frames = attribution_frames(&on.attrib);
    let ts = parse(&timeseries_json(&on.metrics));
    let ts_ok = ts
        .as_ref()
        .map(|v| v.get("samples_taken").is_ok() && v.get("series").is_ok())
        .unwrap_or(false);
    let ss_ok = parse(&speedscope_json("ablation_obs", &frames))
        .map(|v| v.get("profiles").is_ok())
        .unwrap_or(false);
    let prom = prometheus_text(&on.metrics);
    let prom_ok = !prom.is_empty()
        && prom.lines().all(|l| {
            l.starts_with('#')
                || l.rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<u64>().is_ok())
        });
    let folded = collapsed(&frames);
    let folded_ok = !folded.is_empty()
        && folded.lines().all(|l| {
            l.rsplit_once(' ')
                .is_some_and(|(stack, v)| stack.contains(';') && v.parse::<u64>().is_ok())
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
    let seq = run_one(mk_cfg(true), &corpus.corpus, 1);
    let replay = run_one(mk_cfg(true), &corpus.corpus, cli.jobs);
    gates.check(
        "determinism/jobs-and-replay",
        same_sim(&seq, &on)
            && same_sim(&replay, &on)
            && seq.metrics.digest() == on.metrics.digest()
            && replay.metrics.digest() == on.metrics.digest(),
        format!(
            "--jobs 1 vs {} and replay bit-identical (registry digest {:#018x})",
            cli.jobs,
            on.metrics.digest()
        ),
    );

    let mut csv = String::from("gate,run,sim_ns,events,telemetry_samples,registry_digest\n");
    for (name, res) in [
        ("off", &off),
        ("on", &on),
        ("seq", &seq),
        ("replay", &replay),
    ] {
        csv.push_str(&format!(
            "varbench,{},{},{},{},{:#018x}\n",
            name,
            res.sim_ns,
            res.events,
            res.metrics.samples_taken,
            res.metrics.digest()
        ));
    }
    cli.write_csv("ablation_obs", &csv);
    cli.write_metrics("ablation_obs", &on.metrics, &frames);

    if gates.failures > 0 {
        eprintln!("\nablation_obs: {} gate(s) FAILED", gates.failures);
        std::process::exit(1);
    }
    println!("\nablation_obs: all gates passed");
}

fn run_one(cfg: RunConfig, corpus: &ksa_kernel::prog::Corpus, jobs: usize) -> RunResult {
    run_configs(&[cfg], corpus, jobs, &|_, _| {})
        .remove(0)
        .unwrap_or_else(|e| panic!("ablation_obs trial failed: {e:?}"))
}
