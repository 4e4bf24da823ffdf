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
//! ## Serde
//!
//! Profiles serialize to schema-versioned JSON via `ksa-json`, exactly
//! like the v2 corpus format: a missing or foreign `version` key and
//! any unknown syscall/category index are structured [`ksa_json::Error`]s,
//! never panics — a profile written by a build with a different syscall
//! table must not silently gate the wrong calls.
//!
//! What the kernel *does* with a profile (daemon gating, lock-footprint
//! gating, the `ENOSYS` dispatch path) lives in `ksa_kernel::spec`; the
//! dependency direction is kernel ← spec.

use ksa_json::Value;
use ksa_kernel::coverage::{block_name, CoverageSet};
use ksa_kernel::prog::Corpus;
use ksa_kernel::spec::SpecMask;
use ksa_kernel::{Category, SysNo};
use ksa_syzgen::Sandbox;

/// Profile JSON schema version. Version 1 is the first: allowlists are
/// `SysNo` indices and category sets are `Category` indices, both only
/// meaningful for this build's tables.
pub const SPEC_SCHEMA_VERSION: u64 = 1;

/// A per-tenant specialization profile: the name of the workload it was
/// derived for plus the kernel-side mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecProfile {
    /// Workload / tenant name (diagnostic; carried through serde).
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

    /// Builds a profile statically from a known syscall set (no corpus
    /// replay): the allowlist is exactly `calls`, categories are their
    /// static union. Used when a workload's syscall surface is known by
    /// construction, e.g. the tailbench app templates.
    pub fn from_syscalls(name: &str, calls: impl IntoIterator<Item = SysNo>) -> Self {
        let mut mask = SpecMask::empty();
        for no in calls {
            mask.insert(no);
        }
        Self {
            name: name.to_string(),
            mask,
        }
    }

    /// Serializes to schema-versioned JSON.
    pub fn to_json(&self) -> String {
        Value::object([
            ("version", Value::UInt(SPEC_SCHEMA_VERSION)),
            ("name", Value::str(self.name.clone())),
            (
                "allowed",
                Value::array(self.mask.allowed().map(|no| Value::UInt(no.index() as u64))),
            ),
            (
                "categories",
                Value::array(
                    self.mask
                        .categories()
                        .map(|c| Value::UInt(c.index() as u64)),
                ),
            ),
        ])
        .render()
    }

    /// Deserializes from JSON. Rejects profiles from other schema
    /// versions, unknown syscall indices and unknown category indices
    /// with structured errors instead of misinterpreting (or panicking
    /// on) a foreign build's tables.
    pub fn from_json(s: &str) -> Result<Self, ksa_json::Error> {
        let v = ksa_json::parse(s)?;
        match v.opt("version") {
            None => {
                return Err(ksa_json::Error::shape(
                    "spec profile has no schema version; regenerate it with this build",
                ));
            }
            Some(ver) => {
                let ver = ver.as_u64()?;
                if ver != SPEC_SCHEMA_VERSION {
                    return Err(ksa_json::Error::shape(format!(
                        "spec profile schema version {ver} unsupported \
                         (this build reads version {SPEC_SCHEMA_VERSION}); \
                         regenerate the profile"
                    )));
                }
            }
        }
        let mut mask = SpecMask::empty();
        for item in v.get("allowed")?.as_array()? {
            mask.insert(SysNo::from_index(item.as_usize()?)?);
        }
        for item in v.get("categories")?.as_array()? {
            mask.insert_cat(category_from_index(item.as_usize()?)?);
        }
        Ok(Self {
            name: v.get("name")?.as_str()?.to_string(),
            mask,
        })
    }
}

/// Resolves a serialized category index, rejecting out-of-range values
/// the way [`SysNo::from_index`] rejects stale syscall indices.
pub fn category_from_index(idx: usize) -> Result<Category, ksa_json::Error> {
    Category::ALL
        .get(idx)
        .copied()
        .ok_or_else(|| ksa_json::Error::shape(format!("category index {idx} out of range")))
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
        covered.merge(&sandbox.run_fresh(prog));
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
    use ksa_kernel::{Arg, Call, Program};

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

    #[test]
    fn profile_roundtrips_through_json() {
        let p = derive_profile("fs", &fs_corpus(), 42);
        let back = SpecProfile::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
        // Stability: a second encode of the decoded profile is
        // byte-identical (BTreeMap rendering is deterministic).
        assert_eq!(p.to_json(), back.to_json());
    }

    #[test]
    fn full_profile_roundtrips() {
        let p = SpecProfile::full("all");
        let back = SpecProfile::from_json(&p.to_json()).unwrap();
        assert!(back.mask.is_full());
    }

    #[test]
    fn unknown_sysno_is_a_structured_error() {
        let json = format!(
            "{{\"version\":{SPEC_SCHEMA_VERSION},\"name\":\"x\",\
             \"allowed\":[999],\"categories\":[]}}"
        );
        let err = SpecProfile::from_json(&json).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("999"), "names the offending index: {msg}");
    }

    #[test]
    fn unknown_category_is_a_structured_error() {
        let json = format!(
            "{{\"version\":{SPEC_SCHEMA_VERSION},\"name\":\"x\",\
             \"allowed\":[],\"categories\":[42]}}"
        );
        let err = SpecProfile::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("42"));
    }

    #[test]
    fn unversioned_profile_is_rejected() {
        let err = SpecProfile::from_json("{\"name\":\"x\",\"allowed\":[]}").unwrap_err();
        assert!(err.to_string().contains("schema version"));
    }

    #[test]
    fn future_version_is_rejected() {
        let json = SpecProfile::full("x").to_json().replace(
            &format!("\"version\":{SPEC_SCHEMA_VERSION}"),
            "\"version\":99",
        );
        let err = SpecProfile::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("99"));
    }
}
