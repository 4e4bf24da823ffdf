//! Background kernel daemons.
//!
//! Each kernel instance runs the housekeeping threads a monolithic kernel
//! runs: the journal flusher, kswapd, the scheduler load balancer, the
//! vmstat worker and the NAPI softirq poller. Their critical-section
//! lengths scale with the
//! instance's **surface area** (dirty backlog ∝ memory, scan lengths ∝
//! LRU size, balancing work ∝ core count), so a big shared kernel
//! periodically holds global locks for a long time while small kernels
//! barely register — the paper's "rare but potentially unbounded software
//! interference".

use ksa_desim::{Effect, Ns, Process, SimCtx, WakeReason, MS, US};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::cov_block;
use crate::world::HasKernel;

/// The periodic journal / dirty-page flusher (like `kworker` writeback).
pub struct Flusher {
    instance: usize,
    rng: SmallRng,
    phase: FlusherPhase,
    pages: u64,
}

enum FlusherPhase {
    Sleeping,
    JournalHeld,
    IoDone,
}

impl Flusher {
    /// Creates the flusher for `instance`.
    pub fn new(instance: usize, seed: u64) -> Self {
        Self {
            instance,
            rng: SmallRng::seed_from_u64(seed ^ 0xf1a5),
            phase: FlusherPhase::Sleeping,
            pages: 0,
        }
    }
}

impl<W: HasKernel> Process<W> for Flusher {
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, _wake: WakeReason) -> Effect {
        match self.phase {
            FlusherPhase::Sleeping => {
                let k = &ctx.world.kernel().instances[self.instance];
                let dirty = k.state.mm.dirty_pages + k.state.fs.journal_dirty;
                let period = k.cost.flusher_period;
                if dirty < 64 {
                    // Nothing to do: sleep a jittered period.
                    let jitter = self.rng.gen_range(0..period / 4);
                    return Effect::Sleep(period + jitter);
                }
                self.phase = FlusherPhase::JournalHeld;
                Effect::Acquire(k.locks.journal, ksa_desim::LockMode::Exclusive)
            }
            FlusherPhase::JournalHeld => {
                // Journal granted: size the writeback batch from the
                // instance-wide backlog and do the CPU part while holding
                // the journal (jbd2 commit behaviour).
                let k = &mut ctx.world.kernel_mut().instances[self.instance];
                let backlog = k.state.mm.dirty_pages + k.state.fs.journal_dirty;
                // Batch cap scales with the memory the instance manages:
                // big kernels accumulate big backlogs and flush them in
                // correspondingly long journal-holding bursts.
                let cap = (k.mem_pages / 64).clamp(4_096, 131_072);
                self.pages = (backlog / 2).clamp(32, cap);
                let cpu = k.cost.writeback_base + k.cost.writeback_per_page * self.pages;
                k.state.fs.commits += 1;
                k.cover(cov_block!("daemon.flusher.commit"));
                self.phase = FlusherPhase::IoDone;
                Effect::Delay(cpu)
            }
            FlusherPhase::IoDone => {
                // CPU part done: issue the I/O, then release and sleep.
                let (journal, disk, period) = {
                    let k = &ctx.world.kernel().instances[self.instance];
                    (k.locks.journal, k.disk, k.cost.flusher_period)
                };
                match _wake {
                    WakeReason::Timer => {
                        // Delay finished -> submit I/O (still holding).
                        Effect::Io {
                            dev: disk,
                            bytes: self.pages * 4096,
                        }
                    }
                    _ => {
                        // I/O finished: clean state, release, sleep.
                        let k = &mut ctx.world.kernel_mut().instances[self.instance];
                        let meta = k.state.fs.journal_dirty.min(self.pages / 2);
                        k.state.fs.journal_dirty -= meta;
                        let data = self.pages - meta;
                        k.state.mm.dirty_pages = k.state.mm.dirty_pages.saturating_sub(data);
                        ctx.release(journal);
                        self.phase = FlusherPhase::Sleeping;
                        let jitter = self.rng.gen_range(0..period / 4);
                        Effect::Sleep(period + jitter)
                    }
                }
            }
        }
    }

    fn is_daemon(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "flusher"
    }
}

/// kswapd: reclaims memory when the instance dips under its watermark;
/// scan length scales with the LRU size (∝ memory surface).
pub struct Kswapd {
    instance: usize,
    rng: SmallRng,
    holding_lru: bool,
}

impl Kswapd {
    /// Creates kswapd for `instance`.
    pub fn new(instance: usize, seed: u64) -> Self {
        Self {
            instance,
            rng: SmallRng::seed_from_u64(seed ^ 0x5afd),
            holding_lru: false,
        }
    }
}

impl<W: HasKernel> Process<W> for Kswapd {
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, wake: WakeReason) -> Effect {
        if self.holding_lru {
            // Scan finished: reclaim and release.
            let k = &mut ctx.world.kernel_mut().instances[self.instance];
            let scanned = (k.state.mm.lru_pages / 4).clamp(64, 32_768);
            k.state.mm.free_pages += scanned / 2;
            k.state.mm.lru_pages = k.state.mm.lru_pages.saturating_sub(scanned / 2);
            k.cover(cov_block!("daemon.kswapd.reclaim"));
            let lru = k.locks.lru;
            ctx.release(lru);
            self.holding_lru = false;
            return Effect::Sleep(5 * MS + self.rng.gen_range(0..MS));
        }
        match wake {
            WakeReason::LockGranted(_) => {
                // LRU granted: scan (even if pressure eased meanwhile —
                // we hold the lock and must do the work before release).
                self.holding_lru = true;
                let k = &ctx.world.kernel().instances[self.instance];
                let scan = (k.state.mm.lru_pages / 4).clamp(64, 32_768);
                Effect::Delay(k.cost.lru_scan_per_page * scan)
            }
            _ => {
                let k = &ctx.world.kernel().instances[self.instance];
                let low = k.state.mm.low_watermark(k.cost.min_free_pct + 2);
                if k.state.mm.free_pages >= low {
                    Effect::Sleep(5 * MS + self.rng.gen_range(0..MS))
                } else {
                    Effect::Acquire(k.locks.lru, ksa_desim::LockMode::Exclusive)
                }
            }
        }
    }

    fn is_daemon(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "kswapd"
    }
}

/// The scheduler load balancer: periodically locks runqueue pairs and
/// scans; work scales with the instance's core count.
pub struct LoadBalancer {
    instance: usize,
    rng: SmallRng,
    cursor: usize,
    phase: LbPhase,
}

enum LbPhase {
    Sleeping,
    FirstHeld,
    SecondHeld,
}

impl LoadBalancer {
    /// Creates the balancer for `instance`.
    pub fn new(instance: usize, seed: u64) -> Self {
        Self {
            instance,
            rng: SmallRng::seed_from_u64(seed ^ 0xb417),
            cursor: 0,
            phase: LbPhase::Sleeping,
        }
    }

    fn pair(&self, n: usize) -> (usize, usize) {
        let a = self.cursor % n;
        let b = (self.cursor / n + a + 1) % n;
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }
}

impl<W: HasKernel> Process<W> for LoadBalancer {
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, _wake: WakeReason) -> Effect {
        let k = &ctx.world.kernel().instances[self.instance];
        let n = k.n_cores();
        if n < 2 {
            // Uniprocessor: nothing to balance, ever.
            return Effect::Sleep(1_000 * MS);
        }
        let (a, b) = self.pair(n);
        match self.phase {
            LbPhase::Sleeping => {
                self.phase = LbPhase::FirstHeld;
                Effect::Acquire(k.locks.runqueue[a], ksa_desim::LockMode::Exclusive)
            }
            LbPhase::FirstHeld => {
                if a == b {
                    // Degenerate pair; skip the second lock.
                    let rq = k.locks.runqueue[a];
                    ctx.release(rq);
                    self.phase = LbPhase::Sleeping;
                    self.cursor += 1;
                    return Effect::Sleep(self.sleep_len(ctx));
                }
                self.phase = LbPhase::SecondHeld;
                Effect::Acquire(k.locks.runqueue[b], ksa_desim::LockMode::Exclusive)
            }
            LbPhase::SecondHeld => {
                match _wake {
                    WakeReason::LockGranted(_) => {
                        // Both held: scan cost ∝ cores in the domain.
                        let scan = k.cost.lb_scan_per_core * n as Ns;
                        Effect::Delay(scan)
                    }
                    _ => {
                        // Scan done: release both, sleep.
                        let (la, lb) = (k.locks.runqueue[a], k.locks.runqueue[b]);
                        ctx.release(lb);
                        ctx.release(la);
                        ctx.world.kernel_mut().instances[self.instance]
                            .cover(cov_block!("daemon.lb.pass"));
                        self.phase = LbPhase::Sleeping;
                        self.cursor += 1;
                        Effect::Sleep(self.sleep_len(ctx))
                    }
                }
            }
        }
    }

    fn is_daemon(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "load_balancer"
    }
}

impl LoadBalancer {
    fn sleep_len<W: HasKernel>(&mut self, ctx: &SimCtx<'_, W>) -> Ns {
        let k = &ctx.world.kernel().instances[self.instance];
        let base = k.cost.lb_period;
        base + self.rng.gen_range(0..base / 2)
    }
}

/// vmstat worker: periodically folds per-CPU counters into global ones
/// under the zone lock; cost ∝ instance core count.
pub struct VmstatWorker {
    instance: usize,
    rng: SmallRng,
    holding: bool,
}

impl VmstatWorker {
    /// Creates the worker for `instance`.
    pub fn new(instance: usize, seed: u64) -> Self {
        Self {
            instance,
            rng: SmallRng::seed_from_u64(seed ^ 0x7574),
            holding: false,
        }
    }
}

impl<W: HasKernel> Process<W> for VmstatWorker {
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, wake: WakeReason) -> Effect {
        if self.holding {
            let (zone, period) = {
                let k = &ctx.world.kernel().instances[self.instance];
                (k.locks.zone, k.cost.vmstat_period)
            };
            ctx.release(zone);
            self.holding = false;
            ctx.world.kernel_mut().instances[self.instance].cover(cov_block!("daemon.vmstat.fold"));
            return Effect::Sleep(period + self.rng.gen_range(0..period / 4));
        }
        let k = &ctx.world.kernel().instances[self.instance];
        match wake {
            WakeReason::LockGranted(_) => {
                self.holding = true;
                Effect::Delay(k.cost.vmstat_per_core * k.n_cores() as Ns + 2 * US)
            }
            _ => Effect::Acquire(k.locks.zone, ksa_desim::LockMode::Exclusive),
        }
    }

    fn is_daemon(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "vmstat"
    }
}

/// NET_RX softirq / NAPI poller: drains the NIC descriptor rings in
/// budgeted bursts under the instance's shared softirq lock. Deferred
/// RX processing competes with process time on the core it runs on, and
/// its burst length scales with the backlog the instance's senders
/// built up — the networking face of "rare but potentially unbounded
/// software interference". In guests each poll additionally pays the
/// RX-completion interrupt injection (virtio-net exit cost).
pub struct NapiPoller {
    instance: usize,
    rng: SmallRng,
    holding: bool,
}

impl NapiPoller {
    /// Creates the poller for `instance`.
    pub fn new(instance: usize, seed: u64) -> Self {
        Self {
            instance,
            rng: SmallRng::seed_from_u64(seed ^ 0x4a91),
            holding: false,
        }
    }
}

impl<W: HasKernel> Process<W> for NapiPoller {
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, wake: WakeReason) -> Effect {
        if self.holding {
            let (softirq, period, backlog) = {
                let k = &ctx.world.kernel().instances[self.instance];
                (
                    k.locks.softirq,
                    k.cost.softirq_period,
                    k.state.net.nic.pending_total(),
                )
            };
            ctx.release(softirq);
            self.holding = false;
            return if backlog > 0 {
                // Budget exhausted with work left: ksoftirqd-style
                // prompt reschedule instead of a full idle period.
                Effect::Sleep(period / 8 + self.rng.gen_range(0..(period / 16).max(1)))
            } else {
                Effect::Sleep(period + self.rng.gen_range(0..period / 4))
            };
        }
        match wake {
            WakeReason::LockGranted(_) => {
                self.holding = true;
                let k = &mut ctx.world.kernel_mut().instances[self.instance];
                let drained = k.state.net.nic.poll(k.cost.napi_budget);
                k.cover(cov_block!("daemon.napi.poll"));
                let mut cost = US + k.cost.napi_pkt * drained;
                if k.virt.enabled {
                    // One injected RX-completion interrupt per poll.
                    cost += k.virt.exit_io_irq;
                }
                Effect::Delay(cost)
            }
            _ => {
                let k = &ctx.world.kernel().instances[self.instance];
                if k.state.net.nic.pending_total() == 0 {
                    let period = k.cost.softirq_period;
                    Effect::Sleep(period + self.rng.gen_range(0..period / 4))
                } else {
                    Effect::Acquire(k.locks.softirq, ksa_desim::LockMode::Exclusive)
                }
            }
        }
    }

    fn is_daemon(&self) -> bool {
        true
    }

    fn label(&self) -> &'static str {
        "napi"
    }

    fn kind(&self) -> ksa_desim::ProcKind {
        // Softirq-context work: queueing behind the poller is reported
        // as softirq interference, not generic daemon wait.
        ksa_desim::ProcKind::Softirq
    }
}

/// Spawns the standard daemon set for instance `idx` of `world`,
/// distributing them round-robin over the instance's cores. A
/// specialized instance skips the daemons of unreached subsystems
/// entirely ([`crate::spec::SpecMask::wants_daemon`]); each daemon
/// keeps its fixed core slot and start offset, so gating one cannot
/// shift another's schedule.
pub fn spawn_daemons<W: HasKernel + 'static>(
    engine: &mut ksa_desim::Engine<W>,
    idx: usize,
    seed: u64,
) {
    let (cores, spec) = {
        let k = &engine.world().kernel().instances[idx];
        (k.cores.clone(), k.spec)
    };
    // Housekeeping threads spread from the *end* of the core list (they
    // are unpinned in real systems; applications conventionally pin to
    // the low core numbers).
    let n = cores.len();
    let pick = |i: usize| cores[(n - 1).saturating_sub(i % n)];
    let mut spawned = 0u32;
    if spec.wants_daemon("flusher") {
        engine.spawn(pick(0), Box::new(Flusher::new(idx, seed)), 1_000);
        spawned += 1;
    }
    if spec.wants_daemon("kswapd") {
        engine.spawn(pick(1), Box::new(Kswapd::new(idx, seed)), 2_000);
        spawned += 1;
    }
    if spec.wants_daemon("load_balancer") {
        engine.spawn(pick(2), Box::new(LoadBalancer::new(idx, seed)), 3_000);
        spawned += 1;
    }
    if spec.wants_daemon("vmstat") {
        engine.spawn(pick(3), Box::new(VmstatWorker::new(idx, seed)), 4_000);
        spawned += 1;
    }
    if spec.wants_daemon("napi") {
        engine.spawn(pick(4), Box::new(NapiPoller::new(idx, seed)), 5_000);
        spawned += 1;
    }
    engine.world_mut().kernel_mut().instances[idx].daemons_spawned = spawned;
}
