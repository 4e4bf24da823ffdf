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
//! when nothing fails), then re-execute it once per `(site, n)` with an
//! `Nth(n)` schedule — "fail the n-th occurrence of this site" — and
//! check the coverage signal. Sites are probed in fault-site table order,
//! so the phase is deterministic for a given seed and base corpus.

use std::collections::BTreeSet;

use ksa_desim::{FaultPlan, FaultSchedule, FaultSite};
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
    /// Cap on the `n` probed per site: sites hit thousands of
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
    // points, each program's in table order.
    let mut points: Vec<(usize, FaultSite, u64)> = Vec::new();
    for (pi, prog) in base.programs.iter().enumerate() {
        global.merge(sandbox.run_fresh(prog));
        points.extend(sandbox.fault_hits().map(|(site, hits)| (pi, site, hits)));
    }
    let probed: BTreeSet<u16> = points.iter().map(|(_, site, _)| site.id).collect();

    let mut stats = FaultGenStats {
        sites_probed: probed.len(),
        ..FaultGenStats::default()
    };
    let base_blocks = global.len();

    // Candidate sweep: fail the n-th occurrence of each point.
    let mut entries = Vec::new();
    let mut stall = 0usize;
    'sweep: for &(pi, site, hits) in &points {
        for n in 1..=hits.min(cfg.per_site_cap) {
            if stats.executed >= cfg.max_candidates || stall >= cfg.stall_limit {
                break 'sweep;
            }
            let plan = FaultPlan::new(cfg.seed).site(site, FaultSchedule::Nth(n));
            sandbox.set_fault_plan(plan.clone());
            let cover = sandbox.run_fresh(&base.programs[pi]);
            stats.executed += 1;
            if global.new_blocks(cover) == 0 {
                stall += 1;
                continue;
            }
            stall = 0;
            global.merge(cover);
            entries.push(FaultEntry { prog: pi, plan });
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
            let error_blocks = sb.run_fresh(&base.programs[e.prog]).error_blocks();
            assert!(
                !sb.injected().is_empty(),
                "plan {:?} injected nothing on replay",
                e.plan
            );
            assert!(error_blocks > 0);
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

    /// Pins `fault_phase` on the `ablate faults` corpus: the stats and an
    /// FNV-1a over every accepted `(prog, site, n)` in acceptance order, so
    /// a change to probe order moves the digest.
    #[test]
    fn fault_phase_is_pinned_on_the_ablate_corpus() {
        let base = generate(GenConfig {
            seed: 11,
            max_programs: 20,
            stall_limit: 150,
            mutate_pct: 70,
            minimize: false,
        })
        .corpus;
        let out = fault_phase(&base, FaultGenConfig::default());
        let s = out.stats;
        assert_eq!(
            (s.sites_probed, s.accepted, s.new_blocks, s.error_blocks),
            (28, 40, 43, 28)
        );
        let mut sb = Sandbox::new(11);
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x100000001b3);
            }
        };
        for e in &out.entries {
            sb.set_fault_plan(e.plan.clone());
            sb.run_fresh(&base.programs[e.prog]);
            let [fault] = sb.injected() else {
                panic!("an Nth plan injects exactly once")
            };
            eat(&(e.prog as u64).to_le_bytes());
            eat(fault.site.name.as_bytes());
            eat(&fault.hit.to_le_bytes());
        }
        assert_eq!(h, 0xa6e9_2528_e0ea_ce18, "accepted (prog, site, n) digest");
    }
}
