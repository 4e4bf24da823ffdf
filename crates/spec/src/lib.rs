//! # ksa-spec — coverage-derived kernel specialization profiles
//!
//! The third surface-area axis next to hardware partitioning and
//! multi-tenancy: *reachability*. KASR and MultiK shrink a kernel by
//! unloading code a workload never touches; this crate derives the
//! equivalent contract for the simulated kernel — a [`SpecProfile`]
//! holding a syscall allowlist plus the reachable subsystem
//! [`Category`] set — from the same evidence those systems use, a
//! coverage corpus.
//!
//! ## Derivation
//!
//! [`derive_profile`] replays every corpus program through the
//! `ksa-syzgen` [`Sandbox`] and merges the covered blocks. The
//! allowlist is the set of syscalls the corpus issues; the category set
//! is the union of (a) every allowed syscall's static categories and
//! (b) the subsystems the covered block *names* prove were entered
//! (block-name prefixes map onto categories — `fs.*` is filesystem
//! code, `net.*` is the network stack, and so on). Derivation is a pure
//! function of the corpus: the sandbox is seeded deterministically and
//! coverage block names are stable, so equal corpora give equal
//! profiles.
//!
//! What the kernel *does* with a profile (daemon gating, lock-footprint
//! gating, the `ENOSYS` dispatch path) lives in `ksa_kernel::spec`; the
//! dependency direction is kernel ← spec.

use ksa_kernel::coverage::{block_name, CoverageSet};
use ksa_kernel::prog::Corpus;
use ksa_kernel::spec::SpecMask;
use ksa_kernel::Category;
use ksa_syzgen::Sandbox;

/// A per-tenant specialization profile: the name of the workload it was
/// derived for plus the kernel-side mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecProfile {
    /// Workload / tenant name (diagnostic; printed by the ablations).
    pub name: String,
    /// The allowlist + reachable-category mask the kernel consumes.
    pub mask: SpecMask,
}

impl SpecProfile {
    /// The unspecialized profile: everything allowed.
    pub fn full(name: &str) -> Self {
        Self {
            name: name.to_string(),
            mask: SpecMask::full(),
        }
    }
}

/// Maps a coverage block name onto the subsystem category that emitted
/// it, per the handler naming convention (`fs.*` filesystem, `net.*`
/// network stack, ...). Error blocks carry an `err.` prefix on top.
/// Infrastructure blocks (`cgroup.*`, `daemon.*`, `spec.*`) belong to
/// no single category and return `None`.
pub fn block_category(name: &str) -> Option<Category> {
    let name = name.strip_prefix("err.").unwrap_or(name);
    match name.split('.').next()? {
        "sched" => Some(Category::ProcessSched),
        "mm" => Some(Category::Memory),
        "io" => Some(Category::FileIo),
        "fs" => Some(Category::Filesystem),
        "ipc" => Some(Category::Ipc),
        "perm" => Some(Category::Permissions),
        "net" => Some(Category::Network),
        _ => None,
    }
}

/// Derives a profile from `corpus` by replaying every program through a
/// deterministic sandbox and reading the covered blocks. The allowlist
/// is the corpus's syscall set; the category set is the static union of
/// those calls' categories plus every subsystem the coverage block
/// names prove was entered.
pub fn derive_profile(name: &str, corpus: &Corpus, seed: u64) -> SpecProfile {
    let mut mask = SpecMask::empty();
    for prog in &corpus.programs {
        for call in &prog.calls {
            mask.insert(call.no);
        }
    }
    let mut sandbox = Sandbox::new(seed);
    let mut covered = CoverageSet::new();
    for prog in &corpus.programs {
        covered.merge(sandbox.run_fresh(prog));
    }
    for id in covered.iter() {
        if let Some(cat) = block_category(&block_name(id)) {
            mask.insert_cat(cat);
        }
    }
    SpecProfile {
        name: name.to_string(),
        mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_kernel::{Arg, Call, Program, SysNo};

    fn fs_corpus() -> Corpus {
        Corpus {
            programs: vec![
                Program {
                    calls: vec![
                        Call::new(SysNo::Open, vec![Arg::Const(3), Arg::Const(1)]),
                        Call::new(SysNo::Stat, vec![Arg::Const(1)]),
                        Call::new(SysNo::Close, vec![Arg::Ref(0)]),
                    ],
                },
                Program {
                    calls: vec![
                        Call::new(SysNo::Open, vec![Arg::Const(5), Arg::Const(0)]),
                        Call::new(SysNo::Pread, vec![Arg::Ref(0), Arg::Const(4096)]),
                    ],
                },
            ],
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        let c = fs_corpus();
        let a = derive_profile("fs", &c, 42);
        let b = derive_profile("fs", &c, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn derivation_matches_the_corpus_surface() {
        let p = derive_profile("fs", &fs_corpus(), 42);
        assert!(p.mask.allows(SysNo::Open));
        assert!(p.mask.allows(SysNo::Pread));
        assert!(!p.mask.allows(SysNo::Socket));
        assert!(!p.mask.allows(SysNo::Clone));
        assert!(p.mask.allows_cat(Category::Filesystem));
        assert!(p.mask.allows_cat(Category::FileIo));
        assert!(!p.mask.allows_cat(Category::Network));
        assert!(!p.mask.allows_cat(Category::ProcessSched));
    }

    #[test]
    fn coverage_widens_categories_beyond_static_calls() {
        // Open's cold path allocates pages/dentries: the mm.* coverage
        // prefix drags Memory in even though no mm syscall is allowed.
        let p = derive_profile("fs", &fs_corpus(), 42);
        assert!(p.mask.allows_cat(Category::Memory));
        assert!(!p.mask.allows(SysNo::Mmap));
    }
}
