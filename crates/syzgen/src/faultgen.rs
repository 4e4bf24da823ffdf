//! The fault-injection corpus phase (Syzkaller's `fault` / `fault_nth`
//! analogue).
//!
//! The coverage-guided loop in [`crate::corpus`] can only reach blocks on
//! success paths: a no-fault execution never takes an `err.*` branch. This
//! phase extends a finished corpus with **fault plans** — deterministic
//! schedules that force one specific allocation, I/O or lock acquisition
//! to fail — and keeps the `(program, plan)` pairs that cover new blocks.
//!
//! The probe mirrors Syzkaller exactly: run a program once with an empty
//! plan to *enumerate* its fault points (the hit counters advance even
//! when nothing fails), then re-execute it once per `(kind, site, n)`
//! with an `Nth(n)` schedule — "fail the n-th occurrence of this site" —
//! and check the coverage signal. All candidate orderings are sorted, so
//! the phase is deterministic for a given seed and base corpus.

use ksa_desim::{FaultKind, FaultPlan, FaultSchedule};
use ksa_kernel::coverage::CoverageSet;
use ksa_kernel::prog::Corpus;

use crate::sandbox::Sandbox;

/// Fault-phase configuration.
#[derive(Debug, Clone, Copy)]
pub struct FaultGenConfig {
    /// Seed for plan decision hashes and the sandbox.
    pub seed: u64,
    /// Cap on candidate executions (probes excluded).
    pub max_candidates: usize,
    /// Cap on the `n` probed per `(kind, site)`: sites hit thousands of
    /// times only get their first few occurrences targeted.
    pub per_site_cap: u64,
    /// Stop after this many consecutive candidates without new coverage.
    pub stall_limit: usize,
}

impl Default for FaultGenConfig {
    fn default() -> Self {
        Self {
            seed: 0xfa17,
            max_candidates: 2_000,
            per_site_cap: 4,
            stall_limit: 300,
        }
    }
}

/// Statistics from a fault phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultGenStats {
    /// Candidate `(program, plan)` executions.
    pub executed: usize,
    /// Accepted pairs.
    pub accepted: usize,
    /// Distinct fault points enumerated across the corpus.
    pub sites_probed: usize,
    /// Error blocks covered by the accepted pairs (all of them
    /// unreachable without injection).
    pub error_blocks: usize,
    /// Total new blocks the phase added over the base corpus.
    pub new_blocks: usize,
}

/// One accepted pair: replay `plan` while executing base-corpus program
/// `prog` to reproduce the error coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEntry {
    /// Index into the base corpus.
    pub prog: usize,
    /// The schedule that exposed new blocks.
    pub plan: FaultPlan,
}

/// The fault phase's output.
#[derive(Debug, Clone)]
pub struct FaultCorpus {
    /// Accepted `(program, plan)` pairs.
    pub entries: Vec<FaultEntry>,
    /// Phase statistics.
    pub stats: FaultGenStats,
}

/// Runs the fault phase over `base`, starting from the coverage a plain
/// (no-fault) replay of the base corpus reaches.
pub fn fault_phase(base: &Corpus, cfg: FaultGenConfig) -> FaultCorpus {
    let mut sandbox = Sandbox::new(cfg.seed);
    let mut global = CoverageSet::new();

    // Baseline: replay the corpus fault-free and record per-program fault
    // points. `(kind, site, hits)` tuples are sorted for determinism —
    // the hit map iterates in arbitrary order.
    let mut points: Vec<(usize, FaultKind, String, u64)> = Vec::new();
    for (pi, prog) in base.programs.iter().enumerate() {
        let cover = sandbox.run_fresh(prog);
        global.merge(&cover);
        let mut sites: Vec<(FaultKind, String, u64)> = sandbox
            .fault_hits()
            .map(|(k, s, h)| (k, s.to_string(), h))
            .collect();
        sites.sort();
        for (kind, site, hits) in sites {
            points.push((pi, kind, site, hits));
        }
    }
    let mut sites_seen: Vec<(FaultKind, &str)> =
        points.iter().map(|(_, k, s, _)| (*k, s.as_str())).collect();
    sites_seen.sort();
    sites_seen.dedup();

    let mut stats = FaultGenStats {
        sites_probed: sites_seen.len(),
        ..FaultGenStats::default()
    };
    let base_blocks = global.len();

    // Candidate sweep: fail the n-th occurrence of each point.
    let mut entries = Vec::new();
    let mut stall = 0usize;
    'sweep: for (pi, kind, site, hits) in &points {
        for n in 1..=(*hits).min(cfg.per_site_cap) {
            if stats.executed >= cfg.max_candidates || stall >= cfg.stall_limit {
                break 'sweep;
            }
            let plan = FaultPlan::new(cfg.seed).site(*kind, site.clone(), FaultSchedule::Nth(n));
            sandbox.set_fault_plan(plan.clone());
            let cover = sandbox.run_fresh(&base.programs[*pi]);
            stats.executed += 1;
            if global.new_blocks(&cover) == 0 {
                stall += 1;
                continue;
            }
            stall = 0;
            global.merge(&cover);
            entries.push(FaultEntry { prog: *pi, plan });
            stats.accepted += 1;
        }
    }
    sandbox.set_fault_plan(FaultPlan::none());

    stats.error_blocks = global.error_blocks();
    stats.new_blocks = global.len() - base_blocks;
    FaultCorpus { entries, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate, GenConfig};

    fn base() -> Corpus {
        generate(GenConfig {
            seed: 11,
            max_programs: 15,
            stall_limit: 120,
            mutate_pct: 70,
            minimize: false,
        })
        .corpus
    }

    #[test]
    fn fault_phase_strictly_extends_coverage() {
        let base = base();
        let out = fault_phase(&base, FaultGenConfig::default());
        assert!(
            out.stats.sites_probed > 0,
            "corpus must expose fault points"
        );
        assert!(
            out.stats.error_blocks > 0,
            "injection must reach error blocks"
        );
        assert!(out.stats.new_blocks >= out.stats.error_blocks);
        assert!(!out.entries.is_empty());
        assert!(out.stats.executed >= out.stats.accepted);
    }

    #[test]
    fn accepted_entries_replay_their_error_coverage() {
        let base = base();
        let out = fault_phase(&base, FaultGenConfig::default());
        let mut sb = Sandbox::new(7);
        // Replay base fault-free, then each accepted pair; every pair
        // must produce at least one injected fault when replayed.
        for p in &base.programs {
            sb.run_fresh(p);
        }
        for e in &out.entries {
            sb.set_fault_plan(e.plan.clone());
            let cover = sb.run_fresh(&base.programs[e.prog]);
            assert!(
                !sb.injected().is_empty(),
                "plan {:?} injected nothing on replay",
                e.plan
            );
            assert!(cover.error_blocks() > 0);
        }
    }

    #[test]
    fn fault_phase_is_deterministic() {
        let base = base();
        let a = fault_phase(&base, FaultGenConfig::default());
        let b = fault_phase(&base, FaultGenConfig::default());
        assert_eq!(a.entries, b.entries);
        assert_eq!(a.stats.error_blocks, b.stats.error_blocks);
    }
}
