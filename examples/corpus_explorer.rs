//! Corpus explorer: watch the coverage-guided generation loop work, then
//! inspect what it produced — program shapes, per-category composition
//! and the coverage the corpus reaches.
//!
//! Run with: `cargo run --release --example corpus_explorer`
//!
//! The generation time and sandbox executions per second go to stderr, so
//! stdout is a pure function of the seed and can be diffed across builds.

use ksa_core::kernel::coverage;
use ksa_core::kernel::Category;
use ksa_core::syzgen::{generate, GenConfig, Sandbox};
use std::time::Instant;

fn main() {
    let cfg = GenConfig {
        seed: 2024,
        max_programs: 60,
        stall_limit: 400,
        mutate_pct: 70,
        minimize: true,
    };
    let start = Instant::now();
    let out = generate(cfg);
    let secs = start.elapsed().as_secs_f64();
    eprintln!(
        "generation took {:.2} ms: {} executions, {:.0} executions/s",
        secs * 1e3,
        out.stats.executed,
        out.stats.executed as f64 / secs
    );
    println!(
        "generated {} programs / {} calls; executed {} candidates; \
         minimization removed {} calls; {} kernel blocks covered\n",
        out.corpus.len(),
        out.corpus.total_calls(),
        out.stats.executed,
        out.stats.minimized_away,
        out.stats.blocks,
    );

    // Composition by category.
    println!("corpus composition:");
    for cat in Category::ALL {
        let calls = out
            .corpus
            .programs
            .iter()
            .flat_map(|p| &p.calls)
            .filter(|c| c.no.categories().contains(&cat))
            .count();
        println!("  ({}) {:<32} {:>4} calls", cat.letter(), cat.name(), calls);
    }

    // Show a few programs in Syzkaller-ish notation.
    println!("\nsample programs:");
    for p in out.corpus.programs.iter().take(4) {
        println!("---");
        print!("{}", p.render());
    }

    // Replay one program and show the blocks it covers.
    let mut sandbox = Sandbox::new(1);
    if let Some(p) = out.corpus.programs.iter().max_by_key(|p| p.len()) {
        let cov = sandbox.run_fresh(p);
        println!("---\nlongest program covers {} blocks:", cov.len());
        let mut names: Vec<_> = cov.iter().map(coverage::block_name).collect();
        names.sort_unstable();
        for chunk in names.chunks(6) {
            println!("  {}", chunk.join(", "));
        }
    }
}
