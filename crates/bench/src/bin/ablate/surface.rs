//! Per-instance memory as a surface-area dimension, report only.
//!
//! The same 8-core machine split into 8 per-core VMs, once with 4 GiB
//! (the paper's proportional sweep) and once with 16 GiB, reporting
//! memory-management, filesystem and file-I/O median per-site p99s.
//! The paper makes no claim about memory sensitivity here, so nothing
//! is gated.

use crate::{p99_spread, Gates};
use ksa_bench::Cli;
use ksa_core::experiments::{default_corpus, Scale};
use ksa_envsim::{EnvKind, EnvSpec, Machine};
use ksa_kernel::Category;
use ksa_varbench::{run_hooked, RunConfig};

pub fn run(_: &Cli, _: &mut Gates) {
    let corpus = default_corpus(Scale::Tiny).corpus;
    for (label, mem_mib) in [("proportional-4G", 4096u64), ("memory-rich-16G", 16_384)] {
        let env = EnvSpec::new(Machine { cores: 8, mem_mib }, EnvKind::Vm(8));
        let mut res =
            run_hooked(&RunConfig::new(env, 6, 5), &corpus, |_| {}).expect("trial failed");
        let mut mid = |cat| p99_spread(&mut res, Some(cat)).0;
        eprintln!(
            "{label}: mm med-p99={}ns fs med-p99={}ns io med-p99={}ns",
            mid(Category::Memory),
            mid(Category::Filesystem),
            mid(Category::FileIo),
        );
    }
}
