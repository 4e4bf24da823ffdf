//! Tail latency under co-located kernel noise: one tailbench app, four
//! deployments (KVM/Docker × isolated/contended) — a single row of the
//! paper's Figure 3.
//!
//! Run with: `cargo run --release --example tail_latency [app-name]`
//!
//! Pass `--trace-out <path>` to also re-run the contended shared-kernel
//! (Docker + noise) configuration with the deterministic tracer and
//! write a Chrome trace-event file (loadable in Perfetto /
//! `chrome://tracing`) to `<path>`, plus the noise corpus's attribution
//! summary next to it and the mean request decomposition on stdout.

use ksa_core::experiments::{noise_corpus, Scale};
use ksa_core::stats::fmt_ns;
use ksa_core::tailbench::apps::suite;
use ksa_core::tailbench::single_node::{run_single_node, SingleNodeConfig};
use ksa_core::varbench::{attribution_json, write_chrome_trace};
use std::io::{BufWriter, Write};

/// `<path>.json` → `<path>.attrib.json`; anything else gets the suffix
/// appended.
fn attrib_path(trace_path: &str) -> String {
    match trace_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.attrib.json"),
        None => format!("{trace_path}.attrib.json"),
    }
}

fn main() {
    let mut want = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trace-out" => {
                trace_out = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--trace-out requires a path");
                    std::process::exit(2);
                }));
            }
            other => want = Some(other.to_string()),
        }
    }
    let want = want.unwrap_or_else(|| "xapian".into());
    let app = suite()
        .into_iter()
        .find(|a| a.name == want)
        .unwrap_or_else(|| {
            eprintln!("unknown app {want}; one of:");
            for a in suite() {
                eprintln!("  {}", a.name);
            }
            std::process::exit(2);
        });
    let noise = noise_corpus(Scale::Tiny);

    println!(
        "app: {} (service ~{}, kernel ~{} per request)\n",
        app.name,
        fmt_ns(app.service_ns),
        fmt_ns(app.kernel_ns)
    );
    println!(
        "{:<22}{:>12}{:>12}{:>12}{:>12}",
        "config", "p50", "p95", "p99", "max"
    );
    for (virt, noisy) in [(true, false), (false, false), (true, true), (false, true)] {
        let cfg = SingleNodeConfig::quick(virt, noisy, 17);
        let mut res = run_single_node(&app, &cfg, &noise);
        let s = &mut res.sojourns;
        println!(
            "{:<22}{:>12}{:>12}{:>12}{:>12}",
            format!(
                "{}{}",
                if virt { "KVM" } else { "Docker" },
                if noisy { " + noise" } else { " isolated" }
            ),
            fmt_ns(s.median().expect("samples")),
            fmt_ns(s.quantile(0.95).expect("samples")),
            fmt_ns(s.p99().expect("samples")),
            fmt_ns(s.max().expect("samples")),
        );
    }
    println!(
        "\nthe paper's claim: the Docker rows blow up under noise (shared \
         kernel), the KVM rows barely move (isolated kernels)"
    );

    if let Some(path) = trace_out {
        // Re-run the contended shared-kernel configuration with the
        // tracer on. Tracing is strictly observational, so the
        // percentiles match the Docker + noise row above exactly.
        let mut cfg = SingleNodeConfig::quick(false, true, 17);
        cfg.trace = true;
        let res = run_single_node(&app, &cfg, &noise);
        let mut out = BufWriter::new(std::fs::File::create(&path).expect("create trace"));
        write_chrome_trace(&mut out, &res.trace)
            .and_then(|()| out.flush())
            .expect("write trace");
        let apath = attrib_path(&path);
        std::fs::write(&apath, attribution_json(&res.noise_attrib)).expect("write attribution");
        println!(
            "\nwrote Docker+noise Chrome trace ({} events, {} dropped) to {path}\n\
             wrote noise-corpus attribution summary ({} calls) to {apath}",
            res.trace.total_events(),
            res.trace.total_dropped(),
            res.noise_attrib.calls(),
        );
        let n = res.request_attrib.len() as u64;
        let mean = |total: u64| fmt_ns(total.checked_div(n).unwrap_or(0));
        if n > 0 {
            let queue: u64 = res.request_attrib.iter().map(|r| r.queue_ns).sum();
            let service: u64 = res.request_attrib.iter().map(|r| r.service.total).sum();
            let lock: u64 = res.request_attrib.iter().map(|r| r.service.lock_wait).sum();
            let exits: u64 = res.request_attrib.iter().map(|r| r.service.vm_exit).sum();
            println!(
                "mean request decomposition over {n} requests: queue {} + service {} \
                 (of which lock wait {}, vm exits {})",
                mean(queue),
                mean(service),
                mean(lock),
                mean(exits),
            );
        }
    }
}
