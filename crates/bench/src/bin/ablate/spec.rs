//! Specialization, the third surface-area axis.
//!
//! Three runs of the tailbench request path under the same machine
//! split (xapian, the kernel-intensive app):
//!
//! * **shared** — one kernel, 4 containers (the paper's Docker column);
//! * **partitioned** — 4 KVM instances, full kernel each (KVM column);
//! * **specialized** — the same 4 instances built from a
//!   coverage-derived [`SpecProfile`] of xapian's request path, so
//!   unreached subsystems never materialize: their daemons don't spawn
//!   and their lock groups collapse onto one stub.
//!
//! Gates:
//!
//! 1. specialization strictly shrinks the static footprint — fewer
//!    daemons **and** fewer engine locks than the partitioned kernel;
//! 2. the tail does not regress: specialized p99 within 5% of
//!    partitioned (the gated machinery was idle on this path);
//! 3. a full-allowlist profile is bit-identical to the unspecialized
//!    kernel — sojourn samples, clock, event count and footprint all
//!    equal (specialization off is exactly the old build);
//! 4. the whole ablation is bit-identical under replay and across
//!    `--jobs` pool widths.

use crate::{same_tail, Gates};
use ksa_bench::{cell_ns, Cli};
use ksa_core::experiments::Scale;
use ksa_kernel::prog::{Arg, Call, Corpus, Program};
use ksa_kernel::SysNo;
use ksa_spec::{derive_profile, SpecProfile};
use ksa_tailbench::single_node::{run_points, run_single_node, SingleNodeConfig};
use ksa_tailbench::suite;

/// The corpus a tenant's profile is derived from: xapian's request path
/// as the server executes it — connection setup plus the per-request
/// app template. Derivation replays it through the coverage sandbox, so
/// subsystems the path drags in (page allocation under `pread`, say)
/// join the category set even without a syscall of their own.
fn xapian_corpus() -> Corpus {
    Corpus {
        programs: vec![
            // Server setup: files + both socket ends.
            Program {
                calls: vec![
                    Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)]),
                    Call::new(SysNo::Socket, vec![Arg::Const(1)]),
                    Call::new(SysNo::Bind, vec![Arg::Ref(1), Arg::Const(80)]),
                    Call::new(SysNo::Listen, vec![Arg::Ref(1), Arg::Const(8)]),
                    Call::new(SysNo::Socket, vec![Arg::Const(1)]),
                    Call::new(SysNo::Connect, vec![Arg::Ref(4), Arg::Const(80)]),
                    Call::new(SysNo::Accept, vec![Arg::Ref(1)]),
                    Call::new(SysNo::Pwrite, vec![Arg::Ref(0), Arg::Const(32_000)]),
                    Call::new(SysNo::Pread, vec![Arg::Ref(0), Arg::Const(32_000)]),
                    Call::new(SysNo::Sendto, vec![Arg::Ref(4), Arg::Const(1_500)]),
                    Call::new(SysNo::Recvfrom, vec![Arg::Ref(4), Arg::Const(1_500)]),
                ],
            },
            // Per-request work: the xapian app template.
            Program {
                calls: vec![
                    Call::new(SysNo::Pread, vec![Arg::Const(0), Arg::Const(24_000)]),
                    Call::new(SysNo::Mmap, vec![Arg::Const(16), Arg::Const(1)]),
                    Call::new(SysNo::Stat, vec![Arg::Const(4)]),
                ],
            },
        ],
    }
}

pub fn run(cli: &Cli, gates: &mut Gates) {
    let apps = suite();
    let app = &apps[0]; // xapian: kernel-intensive request path
    let noise = Corpus { programs: vec![] }; // unused: noise off everywhere

    let profile = derive_profile("xapian", &xapian_corpus(), cli.seed);
    let cats: Vec<String> = profile.mask.categories().map(|c| c.to_string()).collect();
    println!(
        "ablation_spec: profile '{}' allows {}/{} syscalls, categories [{}]",
        profile.name,
        profile.mask.allowed_count(),
        SysNo::ALL.len(),
        cats.join(", ")
    );

    let shared = match cli.scale {
        Scale::Full => SingleNodeConfig::paper(false, false, cli.seed),
        _ => SingleNodeConfig::quick(false, false, cli.seed),
    };
    let partitioned = SingleNodeConfig {
        virt: true,
        ..shared
    };
    let specialized = SingleNodeConfig {
        spec: Some(profile.mask),
        ..partitioned
    };
    let names = ["shared", "partitioned", "specialized"];
    let points = [shared, partitioned, specialized].map(|cfg| (app.clone(), cfg));
    let results = run_points(&points, &noise, cli.jobs);
    let (sh, part, spec) = (&results[0], &results[1], &results[2]);
    let mut csv = String::from("run,p99_ns,sim_ns,events,daemons_spawned,locks_allocated\n");
    for (name, r) in names.iter().zip(&results) {
        let (daemons, locks) = (r.daemons_spawned, r.locks_allocated);
        println!(
            "{name:>12}: p99 {:>10}  {daemons} daemons, {locks} locks",
            cell_ns(r.p99)
        );
        let (p99, sim, events) = (r.p99, r.sim_ns, r.events);
        csv.push_str(&format!("{name},{p99},{sim},{events},{daemons},{locks}\n"));
    }

    // Gate 1: the static footprint strictly shrinks.
    let (daemons, locks) = (spec.daemons_spawned, spec.locks_allocated);
    let (part_daemons, part_locks) = (part.daemons_spawned, part.locks_allocated);
    gates.check(
        "footprint/daemons",
        daemons < part_daemons,
        format!("{daemons} daemons < {part_daemons} partitioned"),
    );
    gates.check(
        "footprint/locks",
        locks < part_locks,
        format!("{locks} locks < {part_locks} partitioned"),
    );

    // Gate 2: gating idle machinery must not cost tail latency.
    let (p99, part_p99) = (cell_ns(spec.p99), cell_ns(part.p99));
    gates.check(
        "tail/no-regression",
        spec.p99 as f64 <= part.p99 as f64 * 1.05,
        format!("specialized p99 {p99} vs partitioned {part_p99} (bound 1.05x)"),
    );

    // Gate 3: the full-allowlist profile is the unspecialized kernel.
    let full_cfg = SingleNodeConfig {
        spec: Some(SpecProfile::full("all").mask),
        ..partitioned
    };
    let full = run_single_node(app, &full_cfg, &noise);
    gates.check(
        "identity/full-allowlist",
        same_tail(&full, part) && full.daemons_spawned == 4 * 5,
        format!(
            "full-mask run == spec=None run ({} samples, clock {}, {} daemons)",
            full.sojourns.raw().len(),
            cell_ns(full.sim_ns),
            full.daemons_spawned
        ),
    );

    // Gate 4: replay and pool width cannot reach the results.
    let seq = run_points(&points, &noise, 1);
    let replay = run_single_node(app, &specialized, &noise);
    gates.check(
        "determinism/jobs-and-replay",
        results.iter().zip(&seq).all(|(a, b)| same_tail(a, b)) && same_tail(&replay, spec),
        format!("--jobs 1 vs {} and replay bit-identical", cli.jobs),
    );
    cli.write_csv("ablation_spec", &csv);

    // Context line for EXPERIMENTS.md: the shared-kernel tail.
    let ratio = sh.p99 as f64 / part.p99.max(1) as f64;
    println!(
        "      shared: p99 {} ({ratio:.2}x the partitioned tail)",
        cell_ns(sh.p99)
    );
}
