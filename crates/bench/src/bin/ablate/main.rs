//! `ablate` — every ablation in one gate table.
//!
//! Each entry re-runs one causal claim of the paper under a controlled
//! change and records its checks as gates:
//!
//! | entry      | change                                  | gates |
//! |------------|-----------------------------------------|-------|
//! | `sync`     | global program barrier on/off           | synced worst-site p99 >= unsynced |
//! | `corpus`   | coverage-guided vs random programs      | report only |
//! | `surface`  | 4 GiB vs 16 GiB machine, 8 per-core VMs | report only |
//! | `virt`     | KVM overhead profile vs free hypervisor | virtualization cost is positive |
//! | `faults`   | fault-injection corpus phase on/off     | `err.*` blocks only under injection |
//! | `net`      | networking corpus, shared vs split      | Network tail + contention labels |
//! | `trace`    | the same split, attribution kept        | lock-wait share of the tail declines |
//! | `failover` | crashed node / healed partition         | recovery, conservation, determinism |
//! | `spec`     | coverage-derived specialized kernel     | footprint, tail, identity, determinism |
//! | `obs`      | telemetry off/on                        | neutrality, exact sums, exports, determinism |
//! | `churn`    | tenant density 64 → 4096                | table hygiene, footprint, determinism |
//!
//! The first seven run pinned seeds on `Scale::Tiny` corpora, where
//! their gates are known to hold; the last four honour `--scale`,
//! `--seed`, `--jobs`, `--csv` and `--metrics-out`, and `failover`
//! writes its crash run's trace to `--trace-out` (see
//! [`ksa_bench::cli`]); a run that does not pick `failover` refuses
//! that flag as a usage error.
//!
//! ```text
//! ablate --list                     # the entry names
//! ablate [ENTRY...] [common flags]  # run the named entries (default: all)
//! ```
//!
//! A failed gate is recorded and the run continues; the exit code is 1
//! if any gate failed (the closing line names each one) and 2 on a
//! usage error such as an unknown entry.

mod churn;
mod corpus;
mod failover;
mod faults;
mod net;
mod obs;
mod spec;
mod surface;
mod sync;
mod trace;
mod virt;

use ksa_bench::Cli;
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::prog::Corpus;
use ksa_kernel::world::HasKernel;
use ksa_kernel::Category;
use ksa_tailbench::single_node::TailResult;
use ksa_varbench::{run_hooked, RunConfig, RunResult};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The 8-core, 4 GiB machine the pinned-seed entries measure on.
const MACHINE: Machine = Machine {
    cores: 8,
    mem_mib: 4 * 1024,
};

type Entry = (&'static str, fn(&Cli, &mut Gates));

const ENTRIES: [Entry; 11] = [
    ("sync", sync::run),
    ("corpus", corpus::run),
    ("surface", surface::run),
    ("virt", virt::run),
    ("faults", faults::run),
    ("net", net::run),
    ("trace", trace::run),
    ("failover", failover::run),
    ("spec", spec::run),
    ("obs", obs::run),
    ("churn", churn::run),
];

/// Gate verdicts across every entry run.
#[derive(Default)]
pub struct Gates {
    entry: &'static str,
    failed: Vec<String>,
}

impl Gates {
    /// Prints one gate's verdict and `detail`; a failure is remembered
    /// as `entry/name` for the closing line and the exit code.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        let verdict = if ok { "ok  " } else { "FAIL" };
        println!("  [{verdict}] {name}: {detail}");
        if !ok {
            self.failed.push(format!("{}/{name}", self.entry));
        }
    }
}

/// The entry that writes `--trace-out`.
const TRACE_WRITER: &str = "failover";

/// `ablate`'s flags, appended to the common usage banner.
const USAGE: &str = "[--list] [--trace-out PATH] [ENTRY...]";

fn main() {
    let mut picked = Vec::new();
    let cli = Cli::parse_with(USAGE, |arg, args| {
        if arg == "--list" {
            ENTRIES.iter().for_each(|(name, _)| println!("{name}"));
            std::process::exit(0);
        } else if let Some(&entry) = ENTRIES.iter().find(|(name, _)| *name == arg) {
            picked.push(entry);
        } else if arg.starts_with('-') {
            return false;
        } else {
            args.usage(&format!("unknown ablation: {arg} (see --list)"));
        }
        true
    });
    if picked.is_empty() {
        picked = ENTRIES.to_vec();
    }
    if cli.trace_out.is_some() && !picked.iter().any(|&(name, _)| name == TRACE_WRITER) {
        ksa_bench::cli::usage(
            USAGE,
            "--trace-out is written by the failover entry only, and it was not picked",
        );
    }

    let mut gates = Gates::default();
    for (name, run) in picked {
        println!("== {name}");
        gates.entry = name;
        if catch_unwind(AssertUnwindSafe(|| run(&cli, &mut gates))).is_err() {
            gates.check("completes", false, "the entry panicked".into());
        }
    }
    if gates.failed.is_empty() {
        println!("\nablate: all gates passed");
    } else {
        eprintln!(
            "\nablate: {} gate(s) FAILED: {}",
            gates.failed.len(),
            gates.failed.join(", ")
        );
        std::process::exit(1);
    }
}

/// Median and worst per-site p99 over `cat` (every site for `None`);
/// zero when no site qualifies.
pub fn p99_spread(res: &mut RunResult, cat: Option<Category>) -> (u64, u64) {
    let mut p99s = res.per_site(cat, |s| s.p99());
    p99s.sort_unstable();
    let med = p99s.get(p99s.len() / 2).copied().unwrap_or(0);
    (med, p99s.last().copied().unwrap_or(0))
}

/// One networking trial: 6 barrier-synced iterations of `corpus` on
/// [`MACHINE`] deployed as `kind`. `keep_raw` retains every
/// call's latency attribution for tail decomposition.
pub fn net_trial(corpus: &Corpus, kind: EnvKind, seed: u64, keep_raw: bool) -> RunResult {
    run_hooked(
        &RunConfig::new(EnvSpec::new(MACHINE, kind), 6, seed),
        corpus,
        |engine| engine.world_mut().kernel_mut().attrib.keep_raw = keep_raw,
    )
    .expect("net trial failed")
}

/// Whether two request-path runs are bit-identical: tail, clock, event
/// count, every sojourn sample, batch durations and static footprint.
pub fn same_tail(a: &TailResult, b: &TailResult) -> bool {
    a.p99 == b.p99
        && a.sim_ns == b.sim_ns
        && a.events == b.events
        && a.sojourns.raw() == b.sojourns.raw()
        && a.batch_durations == b.batch_durations
        && a.locks_allocated == b.locks_allocated
        && a.daemons_spawned == b.daemons_spawned
}
