//! Coverage-guided versus random corpus, report only.
//!
//! Coverage guidance is the generator's whole point, but on this small
//! pinned corpus it does not reach more blocks than random programs, so
//! the comparison is printed and not gated.

use crate::Gates;
use ksa_bench::Cli;
use ksa_kernel::coverage::CoverageSet;
use ksa_syzgen::{generate, GenConfig, ProgramGenerator, Sandbox};

pub fn run(_: &Cli, _: &mut Gates) {
    let guided = generate(GenConfig {
        seed: 11,
        max_programs: 30,
        stall_limit: 200,
        mutate_pct: 70,
        minimize: true,
    });
    let mut gen = ProgramGenerator::new(11);
    let mut sandbox = Sandbox::new(11);
    let mut random_cover = CoverageSet::new();
    for _ in 0..guided.corpus.len() {
        random_cover.merge(sandbox.run_fresh(&gen.random_program()));
    }
    eprintln!(
        "blocks with {} programs: coverage-guided={} random={}",
        guided.corpus.len(),
        guided.stats.blocks,
        random_cover.len()
    );
}
