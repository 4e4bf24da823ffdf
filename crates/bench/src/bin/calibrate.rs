//! Calibration tool: measures per-app request service demand at low
//! utilization to keep the target-utilization math honest. Dev tool.

use ksa_bench::Cli;
use ksa_core::experiments::{noise_corpus, Scale};
use ksa_envsim::Machine;
use ksa_tailbench::apps::suite;
use ksa_tailbench::single_node::{run_points, SingleNodeConfig};

fn main() {
    let cli = Cli::parse();
    let noise = noise_corpus(Scale::Tiny);
    // The app × virt sweep points are independent low-load runs; push
    // them through the pool like every other sweep.
    let mut points = Vec::new();
    for app in suite() {
        for virt in [false, true] {
            let machine = Machine {
                cores: 16,
                mem_mib: 16 * 1024,
            };
            let cfg = SingleNodeConfig {
                requests: 400,
                warmup: 50,
                util_pct: 10, // low load: sojourn ~= service demand
                metrics: cli.metrics(),
                ..SingleNodeConfig::new(machine, 4, virt, false, 5)
            };
            points.push((app.clone(), cfg));
        }
    }
    let results = run_points(&points, &noise, cli.jobs);
    let mut merged = ksa_telemetry::Registry::disabled();
    for ((app, cfg), res) in points.iter().zip(&results) {
        merged.absorb(
            &res.metrics,
            &[
                ("app", app.name),
                ("virt", if cfg.virt { "kvm" } else { "docker" }),
            ],
        );
    }
    cli.write_metrics("calibrate", &merged, &[]);
    for ((app, cfg), res) in points.iter().zip(results) {
        let mean = res.sojourns.mean().unwrap_or(0.0);
        let expected = app.service_ns + app.jitter_ns / 2;
        println!(
            "{:<10} virt={} mean={:>10.0}ns expected_user={:>9}ns kernel_actual={:>9.0}ns (profile kernel_ns={})",
            app.name, cfg.virt as u8, mean, expected,
            mean - expected as f64, app.kernel_ns
        );
    }
}
