//! Net storm: barrier-synced socket pressure across the VM ladder.
//!
//! Every core runs the same networking-heavy program under barrier
//! synchronization, so all sockets hammer the kernel's softirq path,
//! NIC rings, and socket-table buckets at once — the worst case for a
//! shared stack. Sweeping 1 → 64 VMs over the same 64 cores splits
//! those structures into ever-smaller surfaces; the Network-category
//! tail should fall as the ladder descends, while per-packet virtio
//! exits keep the VM medians above bare-metal cost.
//!
//! Run with: `cargo run --release --example net_storm`
//!
//! Pass `--trace-out <path>` to record the shared-kernel (1 VM) run
//! with the deterministic tracer and write a Chrome trace-event file
//! (loadable in Perfetto / `chrome://tracing`) to `<path>`, plus the
//! machine-readable attribution summary next to it.

use ksa_core::envsim::{EnvKind, EnvSpec, Machine};
use ksa_core::experiments::{net_corpus, Scale};
use ksa_core::kernel::Category;
use ksa_core::varbench::{attribution_json, chrome_trace_json, run_hooked, RunConfig};
use ksa_core::KernelSurfaceArea;

/// `<path>.json` → `<path>.attrib.json`; anything else gets the suffix
/// appended.
fn attrib_path(trace_path: &str) -> String {
    match trace_path.strip_suffix(".json") {
        Some(stem) => format!("{stem}.attrib.json"),
        None => format!("{trace_path}.attrib.json"),
    }
}

fn main() {
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
            other => {
                eprintln!("unknown argument {other}; usage: net_storm [--trace-out <path>]");
                std::process::exit(2);
            }
        }
    }
    let machine = Machine {
        cores: 64,
        mem_mib: 64 * 1024,
    };
    let corpus = net_corpus(Scale::Tiny);
    println!(
        "net storm: {} programs on {} cores, barrier-synced\n",
        corpus.len(),
        machine.cores
    );

    println!(
        "{:>6}  {:>22}  {:>12}  {:>12}  softirq contention",
        "VMs", "surface per kernel", "net med-p99", "net max-p99"
    );
    for count in [1usize, 4, 16, 64] {
        let spec = EnvSpec::new(machine, EnvKind::Vm(count));
        let surface = KernelSurfaceArea::of(&spec);
        // Tracing is strictly observational, so turning it on for the
        // shared-kernel run leaves every printed number unchanged.
        let trace = count == 1 && trace_out.is_some();
        let mut res = run_hooked(
            &RunConfig {
                trace,
                ..RunConfig::new(spec, 2, 42)
            },
            &corpus,
            |_| {},
        )
        .expect("net storm trial failed");
        if trace {
            let path = trace_out.as_deref().unwrap();
            std::fs::write(path, chrome_trace_json(&res.trace)).expect("write trace");
            let apath = attrib_path(path);
            std::fs::write(&apath, attribution_json(&res.attrib)).expect("write attribution");
            println!(
                "wrote shared-kernel Chrome trace ({} events, {} dropped) to {path}\n\
                 wrote attribution summary ({} calls) to {apath}\n",
                res.trace.total_events(),
                res.trace.total_dropped(),
                res.attrib.calls(),
            );
        }
        let mut p99s = res.per_site(Some(Category::Network), |s| s.p99());
        p99s.sort_unstable();
        let med = p99s.get(p99s.len() / 2).copied().unwrap_or(0);
        let max = p99s.last().copied().unwrap_or(0);
        let softirq = res
            .contention
            .by_label
            .get("softirq")
            .map(|c| {
                format!(
                    "{}/{} ({:.1}%)",
                    c.contended,
                    c.acquisitions,
                    100.0 * c.contention_rate()
                )
            })
            .unwrap_or_else(|| "-".into());
        println!(
            "{count:>6}  {surface:>22}  {med:>10}ns  {max:>10}ns  {softirq}",
            surface = surface.to_string()
        );
    }

    println!(
        "\nshared-kernel hotspots at 1 VM come from the softirq, \
         nic_queue, and sock_bucket locks; at 64 VMs each kernel owns a \
         single queue and bucket set, so the storm stays local"
    );
}
