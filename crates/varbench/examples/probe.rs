//! Calibration probe: quick look at per-site latency distributions in
//! the three headline environments. Dev tool, not a paper experiment.

use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_stats::{fmt_ns, BucketTable};
use ksa_syzgen::{generate, GenConfig};
use ksa_varbench::{run_hooked, RunConfig};

fn main() {
    let t0 = std::time::Instant::now();
    let gen = generate(GenConfig {
        seed: 42,
        max_programs: 60,
        stall_limit: 300,
        mutate_pct: 70,
        minimize: true,
    });
    eprintln!(
        "corpus: {} programs, {} calls, {} blocks ({:?})",
        gen.corpus.len(),
        gen.corpus.total_calls(),
        gen.stats.blocks,
        t0.elapsed()
    );

    let machine = Machine::epyc_64();
    let mut med_table = BucketTable::new("medians");
    let mut p99_table = BucketTable::new("p99s");
    let mut max_table = BucketTable::new("maxes");
    for kind in [
        EnvKind::Native,
        EnvKind::Vm(64),
        EnvKind::Container(64),
        EnvKind::Vm(1),
    ] {
        let t = std::time::Instant::now();
        let mut res = run_hooked(
            &RunConfig::new(EnvSpec::new(machine, kind), 20, 7),
            &gen.corpus,
            |_| {},
        )
        .expect("trial failed");
        let meds = res.per_site(None, |s| s.median());
        let p99s = res.per_site(None, |s| s.p99());
        let maxes = res.per_site(None, |s| s.max());
        med_table.push_values(kind.label(), &meds);
        p99_table.push_values(kind.label(), &p99s);
        max_table.push_values(kind.label(), &maxes);
        let mut all: Vec<u64> = p99s.clone();
        all.sort_unstable();
        eprintln!(
            "{:<12} simtime={} wall={:?} p99 med-of-sites={} worst-site-p99={}",
            kind.label(),
            fmt_ns(res.sim_ns),
            t.elapsed(),
            fmt_ns(all[all.len() / 2]),
            fmt_ns(*all.last().unwrap()),
        );
    }
    println!("{}", med_table.render());
    println!("{}", p99_table.render());
    println!("{}", max_table.render());

    // Worst native sites by median, to see what dominates contention.
    let mut res = run_hooked(
        &RunConfig::new(EnvSpec::new(machine, EnvKind::Native), 20, 7),
        &gen.corpus,
        |_| {},
    )
    .expect("trial failed");
    let mut by_med: Vec<(u64, u64, String)> = res
        .sites
        .iter_mut()
        .map(|s| {
            (
                s.samples.median().unwrap_or(0),
                s.samples.p99().unwrap_or(0),
                s.sysno.name().to_string(),
            )
        })
        .collect();
    by_med.sort_by_key(|x| std::cmp::Reverse(x.0));
    println!("top native sites by median:");
    for (med, p99, name) in by_med.iter().take(15) {
        println!(
            "  {:<18} med={:<10} p99={}",
            name,
            fmt_ns(*med),
            fmt_ns(*p99)
        );
    }
}
