//! Deterministic fault injection.
//!
//! Syzkaller only reaches deep kernel error paths because its executor can
//! force failures (alloc failures, I/O errors) at chosen call sites; this
//! module is the simulation's analogue. A [`FaultPlan`] names *sites*
//! (static strings like `"mm.alloc_pages"`) and gives each a
//! [`FaultSchedule`]; a [`FaultState`] owns the plan plus per-site hit
//! counters and answers the single question handlers ask:
//! [`FaultState::should_fail`].
//!
//! Every decision is a pure function of `(plan seed, kind, site, hit
//! number)` — no wall clock, no global RNG — so identical seed + identical
//! plan replays bit-identically, and disjoint sites never interact. That
//! determinism is what lets the fuzzer *mutate schedules* the way it
//! mutates programs.

use crate::fxmap::FxHashMap;
use crate::time::Ns;

/// The class of failure a site can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultKind {
    /// Memory allocation failure (buddy or slab) → ENOMEM paths.
    AllocFail,
    /// Block-device / journal I/O error → EIO paths.
    IoError,
    /// Lock acquisition timeout → EAGAIN/backoff paths.
    LockTimeout,
}

impl FaultKind {
    /// All kinds, in a stable order.
    pub const ALL: [FaultKind; 3] = [
        FaultKind::AllocFail,
        FaultKind::IoError,
        FaultKind::LockTimeout,
    ];

    /// Dense index of this kind (its position in [`FaultKind::ALL`]),
    /// used to address per-kind lookup tables without hashing the kind.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short stable name (used in serialized plans and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::AllocFail => "alloc_fail",
            FaultKind::IoError => "io_error",
            FaultKind::LockTimeout => "lock_timeout",
        }
    }
}

/// When a site fails, as a function of its hit counter (1-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSchedule {
    /// Never fail (the default).
    Never,
    /// Fail exactly on the `n`-th hit (1-based), once.
    Nth(u64),
    /// Fail on every `n`-th hit (n ≥ 1).
    EveryNth(u64),
    /// Fail each hit independently with probability `milli`/1000,
    /// derived deterministically from the plan seed and hit number.
    ProbMilli(u32),
}

impl FaultSchedule {
    fn decides(self, seed: u64, kind: FaultKind, site: &str, hit: u64) -> bool {
        match self {
            FaultSchedule::Never => false,
            FaultSchedule::Nth(n) => hit == n.max(1),
            FaultSchedule::EveryNth(n) => hit.is_multiple_of(n.max(1)),
            FaultSchedule::ProbMilli(milli) => {
                decision_hash(seed, kind, site, hit) % 1000 < milli as u64
            }
        }
    }
}

/// SplitMix64-style mixer over (seed, kind, site, hit).
fn decision_hash(seed: u64, kind: FaultKind, site: &str, hit: u64) -> u64 {
    let mut h = seed ^ 0x9e3779b97f4a7c15u64.wrapping_mul(kind as u64 + 1);
    for b in site.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    h ^= hit.wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// A seeded assignment of schedules to fault sites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for probabilistic schedules.
    pub seed: u64,
    /// Per-kind default schedule for sites without an explicit entry.
    defaults: [(FaultKind, FaultScheduleSlot); 3],
    /// Site-specific schedules, one map per kind so the hot lookup is
    /// a single `&str` probe — no `(kind, String)` key allocation.
    sites: [FxHashMap<String, FaultSchedule>; 3],
}

/// Internal: a schedule slot that defaults to `Never`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FaultScheduleSlot(FaultSchedule);

impl Default for FaultScheduleSlot {
    fn default() -> Self {
        FaultScheduleSlot(FaultSchedule::Never)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (every engine starts with this).
    pub fn none() -> Self {
        Self::new(0)
    }

    /// An empty plan with a decision seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            defaults: [
                (FaultKind::AllocFail, FaultScheduleSlot::default()),
                (FaultKind::IoError, FaultScheduleSlot::default()),
                (FaultKind::LockTimeout, FaultScheduleSlot::default()),
            ],
            sites: Default::default(),
        }
    }

    /// True when no schedule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.defaults
            .iter()
            .all(|(_, s)| s.0 == FaultSchedule::Never)
            && self
                .sites
                .iter()
                .all(|m| m.values().all(|s| *s == FaultSchedule::Never))
    }

    /// Sets the schedule for one site (builder style).
    pub fn site(mut self, kind: FaultKind, site: impl Into<String>, sched: FaultSchedule) -> Self {
        self.set_site(kind, site, sched);
        self
    }

    /// Sets the schedule for one site.
    pub fn set_site(&mut self, kind: FaultKind, site: impl Into<String>, sched: FaultSchedule) {
        self.sites[kind.index()].insert(site.into(), sched);
    }

    /// Sets the default schedule for every site of `kind` (builder style).
    pub fn kind_default(mut self, kind: FaultKind, sched: FaultSchedule) -> Self {
        for slot in &mut self.defaults {
            if slot.0 == kind {
                slot.1 = FaultScheduleSlot(sched);
            }
        }
        self
    }

    /// The schedule governing `(kind, site)`.
    pub fn schedule_for(&self, kind: FaultKind, site: &str) -> FaultSchedule {
        if let Some(s) = self.sites[kind.index()].get(site) {
            return *s;
        }
        self.defaults
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, s)| s.0)
            .unwrap_or(FaultSchedule::Never)
    }

    /// Iterates the explicitly scheduled sites.
    pub fn scheduled_sites(&self) -> impl Iterator<Item = (FaultKind, &str, FaultSchedule)> {
        FaultKind::ALL.into_iter().flat_map(move |k| {
            self.sites[k.index()]
                .iter()
                .map(move |(s, sched)| (k, s.as_str(), *sched))
        })
    }
}

/// One injected fault, for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The failure class.
    pub kind: FaultKind,
    /// The site that failed.
    pub site: String,
    /// Which hit (1-based) of that site failed.
    pub hit: u64,
}

/// Runtime fault-decision state: the plan plus per-site hit counters.
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    plan: FaultPlan,
    /// Per-kind hit counters. The steady-state path (a re-hit of a
    /// known site) is one Fx probe with a `&str` key; the site string
    /// is only allocated on a site's first-ever hit.
    hits: [FxHashMap<String, u64>; 3],
    injected: Vec<InjectedFault>,
}

impl FaultState {
    /// Builds state for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            hits: Default::default(),
            injected: Vec::new(),
        }
    }

    /// Replaces the plan and clears all counters.
    pub fn reset(&mut self, plan: FaultPlan) {
        self.plan = plan;
        self.hits.iter_mut().for_each(|m| m.clear());
        self.injected.clear();
    }

    /// Clears counters and the injection log but keeps the plan, so its
    /// schedules replay from hit 1 (a fresh "VM boot" under the same
    /// plan).
    pub fn rearm(&mut self) {
        self.hits.iter_mut().for_each(|m| m.clear());
        self.injected.clear();
    }

    /// The governing plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Registers one hit of `(kind, site)` and decides whether this hit
    /// fails. Handlers call this at each failable point; the counter
    /// advances regardless of the verdict so `Nth` schedules address
    /// individual dynamic occurrences.
    pub fn should_fail(&mut self, kind: FaultKind, site: &str) -> bool {
        let map = &mut self.hits[kind.index()];
        let hit = match map.get_mut(site) {
            Some(h) => {
                *h += 1;
                *h
            }
            None => {
                map.insert(site.to_string(), 1);
                1
            }
        };
        let sched = self.plan.schedule_for(kind, site);
        let fail = sched.decides(self.plan.seed, kind, site, hit);
        if fail {
            self.injected.push(InjectedFault {
                kind,
                site: site.to_string(),
                hit,
            });
        }
        fail
    }

    /// Hit counters, in arbitrary order: `(kind, site, hits)`.
    pub fn hit_counts(&self) -> impl Iterator<Item = (FaultKind, &str, u64)> {
        FaultKind::ALL.into_iter().flat_map(move |k| {
            self.hits[k.index()]
                .iter()
                .map(move |(s, h)| (k, s.as_str(), *h))
        })
    }

    /// Total hits registered for `(kind, site)`.
    pub fn hits_at(&self, kind: FaultKind, site: &str) -> u64 {
        self.hits[kind.index()].get(site).copied().unwrap_or(0)
    }

    /// Every fault injected so far, in injection order.
    pub fn injected(&self) -> &[InjectedFault] {
        &self.injected
    }
}

// ---------------------------------------------------------------------------
// Node/link fault domain (the cluster fabric's analogue of `FaultPlan`)
// ---------------------------------------------------------------------------

/// Half-open window `[start, end)` in cluster virtual time. An `end` of
/// zero means "until the end of the run".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NsWindow {
    /// First nanosecond the window covers.
    pub start: Ns,
    /// First nanosecond past the window (0 = forever).
    pub end: Ns,
}

impl NsWindow {
    /// True when `t` falls inside the window.
    pub fn contains(&self, t: Ns) -> bool {
        t >= self.start && (self.end == 0 || t < self.end)
    }
}

/// A scheduled node crash: the node dies at `at` and reboots after
/// `down_for` nanoseconds (0 = never comes back).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeCrash {
    /// The crashing node.
    pub node: usize,
    /// Crash instant in cluster virtual time.
    pub at: Ns,
    /// Outage length (0 = permanent).
    pub down_for: Ns,
}

impl NodeCrash {
    /// True when the node is down at `t`.
    pub fn covers(&self, t: Ns) -> bool {
        t >= self.at && (self.down_for == 0 || t < self.at + self.down_for)
    }
}

/// A network partition: for the duration of `window`, nodes inside
/// `island` cannot exchange messages with nodes outside it (links within
/// each side stay up).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkPartition {
    /// When the partition holds.
    pub window: NsWindow,
    /// The isolated node group.
    pub island: Vec<usize>,
}

/// A degraded-link window: messages crossing between `island` and the
/// rest (or every link when `island` is empty) pay `mult_milli`/1000
/// times the healthy latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkDegrade {
    /// When the degradation holds.
    pub window: NsWindow,
    /// The slow side (empty = all links).
    pub island: Vec<usize>,
    /// Latency multiplier in milli-units (1000 = unchanged).
    pub mult_milli: u32,
}

/// SplitMix64-style mixer over `(seed, stream, a, b, n)` — the node-level
/// analogue of [`decision_hash`]. `stream` namespaces independent decision
/// families (message drops, ack drops, backoff jitter) so they never
/// correlate.
pub fn node_decision_hash(seed: u64, stream: &str, a: u64, b: u64, n: u64) -> u64 {
    let mut h = seed ^ 0x9e3779b97f4a7c15;
    for byte in stream.bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x100000001b3);
    }
    h ^= a.wrapping_mul(0xff51afd7ed558ccd);
    h ^= b.rotate_left(32).wrapping_mul(0xc4ceb9fe1a85ec53);
    h ^= n.wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d049bb133111eb);
    h ^ (h >> 31)
}

/// A seeded, bit-identically replayable schedule of node and link faults
/// across a cluster: crash/reboot windows per node, partition and
/// degraded-link windows between node groups, and a probabilistic
/// per-message link-drop rate. Every query is a pure function of the
/// plan and its arguments — no wall clock, no global RNG — mirroring the
/// per-site [`FaultPlan`] discipline at the fabric level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodeFaultPlan {
    /// Seed for probabilistic decisions (drops, jitter).
    pub seed: u64,
    /// Scheduled node crashes.
    pub crashes: Vec<NodeCrash>,
    /// Partition windows.
    pub partitions: Vec<LinkPartition>,
    /// Degraded-link windows.
    pub degrades: Vec<LinkDegrade>,
    /// Per-message drop probability in milli-units (0 = lossless,
    /// applied to every non-partitioned link).
    pub drop_milli: u32,
}

impl NodeFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan with a decision seed.
    pub fn new(seed: u64) -> Self {
        NodeFaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// True when no fault can ever fire.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.degrades.is_empty()
            && self.drop_milli == 0
    }

    /// Schedules a crash (builder style).
    pub fn crash(mut self, node: usize, at: Ns, down_for: Ns) -> Self {
        self.crashes.push(NodeCrash { node, at, down_for });
        self
    }

    /// Schedules a partition window isolating `island` (builder style).
    pub fn partition(mut self, start: Ns, end: Ns, island: Vec<usize>) -> Self {
        self.partitions.push(LinkPartition {
            window: NsWindow { start, end },
            island,
        });
        self
    }

    /// Schedules a degraded-link window (builder style).
    pub fn degrade(mut self, start: Ns, end: Ns, island: Vec<usize>, mult_milli: u32) -> Self {
        self.degrades.push(LinkDegrade {
            window: NsWindow { start, end },
            island,
            mult_milli,
        });
        self
    }

    /// Sets the probabilistic per-message drop rate (builder style).
    /// Rates are clamped below certainty so retransmission always
    /// terminates.
    pub fn drop_prob_milli(mut self, milli: u32) -> Self {
        self.drop_milli = milli.min(900);
        self
    }

    /// True when `node` is down at `t`.
    pub fn node_down(&self, node: usize, t: Ns) -> bool {
        self.crashes.iter().any(|c| c.node == node && c.covers(t))
    }

    /// The first crash of `node` striking within `[from, until)`, or an
    /// outage already covering `from`. Returns the effective crash
    /// instant clamped to `from`.
    pub fn crash_in(&self, node: usize, from: Ns, until: Ns) -> Option<Ns> {
        self.crashes
            .iter()
            .filter(|c| c.node == node)
            .filter_map(|c| {
                if c.covers(from) {
                    Some(from)
                } else if c.at >= from && c.at < until {
                    Some(c.at)
                } else {
                    None
                }
            })
            .min()
    }

    /// True when a message between `a` and `b` cannot cross at `t`
    /// (some active partition has exactly one endpoint in its island).
    pub fn partitioned(&self, a: usize, b: usize, t: Ns) -> bool {
        self.partitions
            .iter()
            .any(|p| p.window.contains(t) && (p.island.contains(&a) != p.island.contains(&b)))
    }

    /// The instant the last partition severing `a`–`b` active at `t`
    /// heals (`None` when a covering window never ends).
    pub fn heal_at(&self, a: usize, b: usize, t: Ns) -> Option<Ns> {
        let mut heal = None;
        for p in &self.partitions {
            if p.window.contains(t) && (p.island.contains(&a) != p.island.contains(&b)) {
                if p.window.end == 0 {
                    return None;
                }
                heal = Some(heal.map_or(p.window.end, |h: Ns| h.max(p.window.end)));
            }
        }
        heal
    }

    /// Latency multiplier (milli-units) for a message between `a` and
    /// `b` at `t`: the product of every active degradation crossing the
    /// link. 1000 = healthy.
    pub fn latency_mult_milli(&self, a: usize, b: usize, t: Ns) -> u64 {
        let mut mult = 1000u64;
        for d in &self.degrades {
            let crosses = d.island.is_empty() || (d.island.contains(&a) != d.island.contains(&b));
            if d.window.contains(t) && crosses {
                mult = mult * d.mult_milli.max(1) as u64 / 1000;
            }
        }
        mult.max(1)
    }

    /// Deterministic per-message drop verdict for transmission `seq` of
    /// a message from `a` to `b` (`stream` separates data from acks).
    pub fn message_dropped(&self, stream: &str, a: usize, b: usize, seq: u64) -> bool {
        if self.drop_milli == 0 {
            return false;
        }
        node_decision_hash(self.seed, stream, a as u64, b as u64, seq) % 1000
            < self.drop_milli as u64
    }

    /// A deterministic word for jitter draws, namespaced by `stream`.
    pub fn jitter_word(&self, stream: &str, a: u64, b: u64, n: u64) -> u64 {
        node_decision_hash(self.seed, stream, a, b, n)
    }
}

/// Capped exponential backoff with deterministic jitter — the shared
/// retransmit policy of the cluster fabric and the tailbench client.
/// The delay for attempt `k` (1-based) is `min(cap, base << (k-1))`
/// minus a jitter of up to `jitter_milli`/1000 of that value, so the
/// schedule **never exceeds `cap_ns`** and desynchronizes retriers
/// without a wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    /// First-attempt delay.
    pub base_ns: Ns,
    /// Hard ceiling on any delay.
    pub cap_ns: Ns,
    /// Jitter span in milli-units of the capped delay (0..=1000).
    pub jitter_milli: u32,
}

impl Backoff {
    /// A policy with the given base, cap and jitter span.
    pub const fn new(base_ns: Ns, cap_ns: Ns, jitter_milli: u32) -> Self {
        Backoff {
            base_ns,
            cap_ns,
            jitter_milli,
        }
    }

    /// The delay before attempt `attempt` (1-based). `jitter_word` is a
    /// caller-supplied deterministic random word (e.g.
    /// [`NodeFaultPlan::jitter_word`] or a seeded RNG draw).
    pub fn delay(&self, attempt: u32, jitter_word: u64) -> Ns {
        let base = self.base_ns.max(1) as u128;
        let shift = attempt.saturating_sub(1).min(63);
        let raw = (base << shift).min(self.cap_ns.max(1) as u128) as u64;
        let span = raw as u128 * self.jitter_milli.min(1000) as u128 / 1000;
        let jitter = if span == 0 {
            0
        } else {
            jitter_word % (span as u64 + 1)
        };
        raw - jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fails() {
        let mut st = FaultState::new(FaultPlan::none());
        for _ in 0..1000 {
            assert!(!st.should_fail(FaultKind::AllocFail, "mm.alloc_pages"));
        }
        assert!(st.injected().is_empty());
        assert_eq!(st.hits_at(FaultKind::AllocFail, "mm.alloc_pages"), 1000);
    }

    #[test]
    fn nth_fails_exactly_once() {
        let plan = FaultPlan::new(1).site(FaultKind::IoError, "fileio.read", FaultSchedule::Nth(3));
        let mut st = FaultState::new(plan);
        let verdicts: Vec<bool> = (0..6)
            .map(|_| st.should_fail(FaultKind::IoError, "fileio.read"))
            .collect();
        assert_eq!(verdicts, [false, false, true, false, false, false]);
        assert_eq!(st.injected().len(), 1);
        assert_eq!(st.injected()[0].hit, 3);
    }

    #[test]
    fn every_nth_recurs() {
        let plan =
            FaultPlan::new(1).site(FaultKind::AllocFail, "mm.slab", FaultSchedule::EveryNth(2));
        let mut st = FaultState::new(plan);
        let verdicts: Vec<bool> = (0..6)
            .map(|_| st.should_fail(FaultKind::AllocFail, "mm.slab"))
            .collect();
        assert_eq!(verdicts, [false, true, false, true, false, true]);
    }

    #[test]
    fn prob_is_deterministic_and_seed_sensitive() {
        let run = |seed| {
            let plan = FaultPlan::new(seed).site(
                FaultKind::AllocFail,
                "mm.alloc_pages",
                FaultSchedule::ProbMilli(300),
            );
            let mut st = FaultState::new(plan);
            (0..200)
                .map(|_| st.should_fail(FaultKind::AllocFail, "mm.alloc_pages"))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7), "same seed, same verdicts");
        assert_ne!(run(7), run(8), "different seed, different verdicts");
        let fails = run(7).iter().filter(|&&f| f).count();
        assert!((20..120).contains(&fails), "p=0.3 over 200: {fails}");
    }

    #[test]
    fn kind_default_covers_unnamed_sites() {
        let plan = FaultPlan::new(2).kind_default(FaultKind::IoError, FaultSchedule::EveryNth(1));
        let mut st = FaultState::new(plan);
        assert!(st.should_fail(FaultKind::IoError, "anywhere"));
        assert!(!st.should_fail(FaultKind::AllocFail, "anywhere"));
    }

    #[test]
    fn sites_are_independent() {
        let plan = FaultPlan::new(3)
            .site(FaultKind::AllocFail, "a", FaultSchedule::Nth(1))
            .site(FaultKind::AllocFail, "b", FaultSchedule::Nth(2));
        let mut st = FaultState::new(plan.clone());
        assert!(st.should_fail(FaultKind::AllocFail, "a"));
        assert!(!st.should_fail(FaultKind::AllocFail, "b"));
        assert!(st.should_fail(FaultKind::AllocFail, "b"));

        // Interleaving hits of a *different* site does not shift b's
        // decisions: counters are per-site.
        let mut st2 = FaultState::new(plan);
        for _ in 0..50 {
            st2.should_fail(FaultKind::AllocFail, "a");
        }
        assert!(!st2.should_fail(FaultKind::AllocFail, "b"));
        assert!(st2.should_fail(FaultKind::AllocFail, "b"));
    }

    #[test]
    fn kinds_do_not_collide_on_the_same_site_name() {
        let plan = FaultPlan::new(4).site(FaultKind::AllocFail, "x", FaultSchedule::Nth(1));
        let mut st = FaultState::new(plan);
        assert!(!st.should_fail(FaultKind::IoError, "x"));
        assert!(st.should_fail(FaultKind::AllocFail, "x"));
    }

    #[test]
    fn node_plan_crash_windows() {
        let plan = NodeFaultPlan::new(1).crash(3, 1_000, 500).crash(5, 100, 0);
        assert!(!plan.node_down(3, 999));
        assert!(plan.node_down(3, 1_000));
        assert!(plan.node_down(3, 1_499));
        assert!(!plan.node_down(3, 1_500), "node 3 reboots");
        assert!(plan.node_down(5, u64::MAX / 2), "down_for=0 is permanent");
        assert_eq!(plan.crash_in(3, 0, 900), None);
        assert_eq!(plan.crash_in(3, 0, 2_000), Some(1_000));
        assert_eq!(plan.crash_in(3, 1_200, 2_000), Some(1_200), "clamped");
        assert!(!plan.node_down(0, 1_100), "other nodes unaffected");
    }

    #[test]
    fn node_plan_partitions_cut_only_crossing_links() {
        let plan = NodeFaultPlan::new(2).partition(100, 200, vec![0, 1]);
        assert!(plan.partitioned(0, 2, 150));
        assert!(plan.partitioned(2, 1, 150), "symmetric");
        assert!(!plan.partitioned(0, 1, 150), "intra-island link up");
        assert!(!plan.partitioned(2, 3, 150), "outside link up");
        assert!(!plan.partitioned(0, 2, 99));
        assert!(!plan.partitioned(0, 2, 200), "half-open window");
        assert_eq!(plan.heal_at(0, 2, 150), Some(200));
        assert_eq!(plan.heal_at(0, 1, 150), None, "link not severed");
    }

    #[test]
    fn node_plan_degrades_multiply() {
        let plan =
            NodeFaultPlan::new(3)
                .degrade(0, 100, vec![], 2000)
                .degrade(50, 100, vec![1], 3000);
        assert_eq!(plan.latency_mult_milli(0, 2, 10), 2000);
        assert_eq!(plan.latency_mult_milli(0, 1, 60), 6000, "stacked");
        assert_eq!(plan.latency_mult_milli(0, 2, 60), 2000, "non-crossing");
        assert_eq!(plan.latency_mult_milli(0, 1, 100), 1000, "expired");
    }

    #[test]
    fn node_plan_drops_are_deterministic_and_stream_separated() {
        let plan = NodeFaultPlan::new(7).drop_prob_milli(400);
        let data: Vec<bool> = (0..200)
            .map(|s| plan.message_dropped("data", 1, 0, s))
            .collect();
        let again: Vec<bool> = (0..200)
            .map(|s| plan.message_dropped("data", 1, 0, s))
            .collect();
        let acks: Vec<bool> = (0..200)
            .map(|s| plan.message_dropped("ack", 1, 0, s))
            .collect();
        assert_eq!(data, again, "bit-identical replay");
        assert_ne!(data, acks, "ack stream independent");
        let drops = data.iter().filter(|&&d| d).count();
        assert!((40..160).contains(&drops), "p=0.4 over 200: {drops}");
        assert!(
            !NodeFaultPlan::new(7).message_dropped("data", 1, 0, 5),
            "lossless by default"
        );
    }

    #[test]
    fn backoff_is_capped_exponential_with_bounded_jitter() {
        let b = Backoff::new(1_000, 8_000, 250);
        // Jitter word 0 = no jitter: pure capped doubling.
        assert_eq!(b.delay(1, 0), 1_000);
        assert_eq!(b.delay(2, 0), 2_000);
        assert_eq!(b.delay(4, 0), 8_000);
        assert_eq!(b.delay(30, 0), 8_000, "stays at cap");
        for attempt in 1..64 {
            for word in [1u64, 999, u64::MAX] {
                let d = b.delay(attempt, word);
                assert!(d <= b.cap_ns, "attempt {attempt}: {d} exceeds cap");
                let raw = (1_000u64 << (attempt - 1).min(63)).min(8_000);
                assert!(d >= raw - raw / 4, "jitter wider than 250 milli");
            }
        }
        // Degenerate policies stay defined.
        assert!(Backoff::new(0, 0, 1000).delay(10, u64::MAX) <= 1);
    }
}
