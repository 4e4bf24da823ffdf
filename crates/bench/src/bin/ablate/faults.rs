//! The fault-injection corpus phase on/off.
//!
//! A no-fault replay of the corpus can only reach success-path blocks —
//! `err.*` coverage is exactly zero. The fault phase (Syzkaller's
//! FAULT_INJECTION analogue) must therefore *strictly* extend coverage,
//! and every block it adds on the error side is unreachable without
//! injection. The same law is checked for `err.net.*` on a net-heavy
//! corpus, and one fault-injected varbench trial shows plans compose
//! with the measurement harness.

use crate::Gates;
use ksa_bench::Cli;
use ksa_core::experiments::{net_corpus, Scale};
use ksa_desim::FaultPlan;
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::coverage::{block_name, CoverageSet};
use ksa_kernel::prog::Corpus;
use ksa_syzgen::{fault_phase, generate, FaultGenConfig, GenConfig, Sandbox};
use ksa_varbench::{run_hooked, RunConfig};

/// Coverage of a fault-free replay of every program in `corpus`.
fn replay(sb: &mut Sandbox, corpus: &Corpus) -> CoverageSet {
    let mut cover = CoverageSet::new();
    for p in &corpus.programs {
        cover.merge(&sb.run_fresh(p));
    }
    cover
}

pub fn run(_: &Cli, gates: &mut Gates) {
    let base = generate(GenConfig {
        seed: 11,
        max_programs: 20,
        stall_limit: 150,
        mutate_pct: 70,
        minimize: false,
    })
    .corpus;

    // The no-fault baseline reaches zero error blocks; injection
    // strictly exceeds it.
    let baseline = replay(&mut Sandbox::new(11), &base);
    let out = fault_phase(&base, FaultGenConfig::default());
    let (blocks, base_err) = (baseline.len(), baseline.error_blocks());
    let (new, err) = (out.stats.new_blocks, out.stats.error_blocks);
    eprintln!(
        "coverage: no-fault={blocks} blocks (0 err) | with faults=+{new} blocks \
         ({err} err) from {} accepted plans over {} probed sites",
        out.stats.accepted, out.stats.sites_probed,
    );
    gates.check(
        "coverage/no-fault-reaches-no-err",
        base_err == 0,
        format!("fault-free replay: {base_err} err.* blocks"),
    );
    gates.check(
        "coverage/injection-reaches-err",
        err > 0,
        format!("{err} err.* blocks under injection"),
    );
    gates.check(
        "coverage/injection-strictly-extends",
        new > 0,
        format!("+{new} blocks over the baseline"),
    );

    // Natural socket errors (EBADF, EAGAIN on empty buffers, refused
    // connects) are plain blocks; `err.net.*` is reachable only under
    // injection. A net-heavy corpus puts every socket fault point on
    // the replayed path.
    let net_base = net_corpus(Scale::Tiny);
    let net_err = |c: &CoverageSet| {
        c.iter()
            .filter(|&id| block_name(id).starts_with("err.net."))
            .count()
    };
    let mut sb = Sandbox::new(11);
    let net_baseline = net_err(&replay(&mut sb, &net_base));
    let net_out = fault_phase(&net_base, FaultGenConfig::default());
    let mut injected = CoverageSet::new();
    for e in &net_out.entries {
        sb.set_fault_plan(e.plan.clone());
        injected.merge(&sb.run_fresh(&net_base.programs[e.prog]));
    }
    let injected = net_err(&injected);
    eprintln!(
        "net attribution: baseline err.net.*=0 | injected err.net.*={injected} \
         from {} accepted plans",
        net_out.stats.accepted,
    );
    gates.check(
        "net/no-fault-reaches-no-err",
        net_baseline == 0,
        format!("fault-free net replay: {net_baseline} err.net.* blocks"),
    );
    gates.check(
        "net/injection-reaches-err",
        injected > 0,
        format!("{injected} err.net.* blocks under injection"),
    );

    // One fault-injected measurement trial: install an accepted plan on
    // every kernel instance and run the corpus under the barrier harness.
    let plan = out
        .entries
        .first()
        .map(|e| e.plan.clone())
        .unwrap_or_else(FaultPlan::none);
    let machine = Machine {
        cores: 4,
        mem_mib: 2048,
    };
    let res = run_hooked(
        &RunConfig::new(EnvSpec::new(machine, EnvKind::Native), 4, 13),
        &base,
        |engine| engine.set_fault_plan(plan),
    )
    .expect("fault-injected trial failed");
    eprintln!(
        "fault-injected varbench trial: {} sites, sim time {}ns",
        res.sites.len(),
        res.sim_ns
    );
}
