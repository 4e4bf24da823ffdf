//! The event engine: virtual clock, event queue and effect dispatch.
//!
//! The scheduling core is built for raw single-trial speed (see
//! DESIGN.md, "engine hot path"): events live inline in a 4-ary heap
//! ([`EventQueue`]); IPI bookkeeping is a dense slab keyed by token
//! index; same-time wake trains (lock grants, barrier releases, queue
//! signals) coalesce into a single queue operation; a user process's IPI broadcast is one queue event
//! at its last ack's key; and a process whose own next wake would be
//! popped next keeps running without queueing it (inline continuation,
//! `EngineState::wake_self`). All of it is bit-identical to the naive
//! one-event-per-wake (and one-event-per-ack) formulation because
//! `(t, seq)` is a total order — see the determinism notes on
//! [`EventQueue`].

use ksa_telemetry::{MetricId, Registry, TelemetryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cpu::{CoreConfig, CoreId, CoreState, OccClass};
use crate::equeue::EventQueue;
use crate::fault::{FaultPlan, FaultSite, FaultState};
use crate::iodev::{DevId, DeviceModel, DeviceState};
use crate::lock::{LockId, LockKind, LockMode, LockState};
use crate::process::{Effect, Pid, Process, WakeReason};
use crate::time::{Ns, US};
use crate::trace::{
    FaultInjectedArgs, LabelId, LatBreakdown, LatComp, LatSnapshot, ProcKind, TraceConfig,
    TraceEvent, TraceEventKind, TraceLog, TraceRing,
};

/// Identifier of a wait queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueId(pub u32);

/// Identifier of a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierId(pub u32);

/// Identifier of an RCU domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RcuId(pub u32);

/// Engine-wide latency parameters for the synchronization primitives.
#[derive(Debug, Clone, Copy)]
pub struct EngineParams {
    /// One-way IPI delivery latency.
    pub ipi_latency: Ns,
    /// Cache-line handoff cost when a spinlock passes between cores.
    pub spin_handoff: Ns,
    /// Scheduler wake-up latency added when a sleeping lock or wait queue
    /// wakes a process.
    pub sched_wakeup: Ns,
    /// Cost charged when a barrier releases.
    pub barrier_release: Ns,
    /// Fixed component of an RCU grace period.
    pub rcu_base: Ns,
    /// Per-core component of an RCU grace period (each core in the domain
    /// must pass a quiescent state).
    pub rcu_per_core: Ns,
    /// Uniform jitter added to each grace period.
    pub rcu_jitter: Ns,
}

impl Default for EngineParams {
    fn default() -> Self {
        Self {
            ipi_latency: 1_500,
            spin_handoff: 150,
            sched_wakeup: 2_500,
            barrier_release: 300,
            rcu_base: 8 * US,
            rcu_per_core: 4 * US,
            rcu_jitter: 30 * US,
        }
    }
}

/// One recorded measurement: processes call [`SimCtx::record`] and the
/// harness interprets `key` (e.g. as a call-site index).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    /// Which process recorded the sample.
    pub pid: Pid,
    /// Caller-defined key (measurement site).
    pub key: u64,
    /// Virtual time of the record.
    pub t: Ns,
    /// The measured value (usually a latency in ns).
    pub value: u64,
}

/// Error returned when the simulation cannot make progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run could not finish. Either the event heap drained while live
    /// processes remained (a lost wake-up or lock cycle — `livelock ==
    /// false`), or the event-budget watchdog fired because the run kept
    /// processing events without the user processes finishing (`livelock ==
    /// true`). Carries diagnostics either way so the harness can report a
    /// structured failure instead of hanging forever.
    Stalled {
        /// Virtual time at the stall.
        clock: Ns,
        /// Events processed by the failed `run` call.
        events: u64,
        /// True when the event budget was exhausted (livelock watchdog);
        /// false when the heap drained with live processes (deadlock).
        livelock: bool,
        /// `(pid, label, blocked_on)` for every live, blocked process.
        blocked: Vec<(Pid, String, String)>,
        /// The earliest queued events in `(t, seq)` order, at most 16,
        /// each as its time and a description naming the process it
        /// concerns (empty after a deadlock, which drains the queue).
        pending: Vec<(Ns, String)>,
        /// The last 16 trace events in merged order, with the run's
        /// label tables (`None` when tracing is off).
        trace_tail: Option<Box<TraceLog>>,
    },
}

/// Queued events a [`SimError::Stalled`] carries, and trace events
/// when tracing is on.
const STALL_EVENTS: usize = 16;

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                clock,
                events,
                livelock,
                blocked,
                pending,
                trace_tail,
            } => {
                if *livelock {
                    writeln!(
                        f,
                        "simulation exceeded its event budget ({events} events) at t={clock}ns; live processes:"
                    )?;
                } else {
                    writeln!(f, "simulation stalled at t={clock}ns; blocked processes:")?;
                }
                for (pid, label, on) in blocked {
                    writeln!(f, "  pid {} ({label}) blocked on {on}", pid.0)?;
                }
                if !pending.is_empty() {
                    writeln!(f, "earliest {} queued events:", pending.len())?;
                    for (t, what) in pending {
                        writeln!(f, "  t={t}ns {what}")?;
                    }
                }
                if let Some(tail) = trace_tail {
                    writeln!(f, "last {} trace events:", tail.total_events())?;
                    for ev in tail.merged() {
                        writeln!(f, "  {}", tail.line(&ev))?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed run.
#[derive(Debug)]
pub struct SimResult {
    /// Final virtual clock value.
    pub clock: Ns,
    /// All samples recorded during the run, in record order.
    pub records: Vec<Record>,
    /// Events processed by this `run` call — the engine's
    /// unit of simulated work, used by the bench suite to report
    /// events/second throughput.
    pub events: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Wake(Pid, WakeReason),
    /// A coalesced train of same-time wakes: index into
    /// `EngineState::batches`. Dispatch unpacks the train in push
    /// order, which is bit-identical to one event per wake (the train's
    /// wakes would have held consecutive seqs and popped back-to-back),
    /// but costs one queue operation instead of N.
    WakeBatch(u32),
    /// IPI acknowledgement; the token indexes `EngineState::ipis`. The
    /// event stands for `IpiPending::weight` acks: one, or every ack
    /// the broadcast has left when it is coalesced.
    IpiAck(u32),
}

// Every sift moves whole entries: a wider `WakeReason` or `EventKind`
// would grow each of them.
const _: () = assert!(std::mem::size_of::<crate::equeue::Entry<EventKind>>() <= 32);

#[derive(Debug)]
struct QueueState {
    waiting: std::collections::VecDeque<Pid>,
}

#[derive(Debug)]
struct BarrierState {
    size: u32,
    waiting: Vec<Pid>,
}

#[derive(Debug)]
struct RcuDomain {
    n_cores: u32,
}

/// Slab entry for an in-flight IPI broadcast; the slot index is the
/// token carried by `EventKind::IpiAck`. Token values never reach
/// records, traces or digests, so free-list reuse is unobservable.
///
/// A *coalesced* broadcast (`weight` is its target count, at least
/// two) is one queue event instead of one per ack. An ack only counts
/// down `remaining`, and only the last one wakes the sender, so the
/// event sits at the largest `(t, seq)` key its acks would have taken:
/// each ack reserves its seq when its time becomes known, and the
/// event is pushed once the last deferred ack has a key. Dispatch
/// still counts one processed event per ack.
#[derive(Debug, Clone, Copy)]
struct IpiPending {
    sender: Pid,
    /// Acks not yet dispatched.
    remaining: u32,
    /// Acks one `IpiAck` event stands for: 1 (one event per ack) or the
    /// target count (coalesced).
    weight: u32,
    /// Coalesced only: acks whose time is not known yet (deferred by a
    /// spin section on their target core).
    unkeyed: u32,
    /// Coalesced only: the largest `(t, seq)` key among the acks whose
    /// time is known.
    last: (Ns, u64),
}

/// Mutable engine state shared with processes through [`SimCtx`].
///
/// Everything except the process table and the world lives here so that a
/// resumed process can release locks, signal queues and record samples
/// while the engine still holds its own `Box`.
pub struct EngineState {
    clock: Ns,
    events: EventQueue<EventKind>,
    cores: Vec<CoreState>,
    locks: Vec<LockState>,
    queues: Vec<QueueState>,
    barriers: Vec<BarrierState>,
    rcu: Vec<RcuDomain>,
    devices: Vec<DeviceState>,
    /// In-flight IPI broadcasts, slab-allocated; tokens are indices.
    ipis: Vec<IpiPending>,
    ipi_free: Vec<u32>,
    /// Wake-train buffers behind `EventKind::WakeBatch`. Dispatched
    /// buffers are cleared and recycled through `batch_free`, so the
    /// steady state allocates nothing.
    batches: Vec<Vec<(Pid, WakeReason)>>,
    batch_free: Vec<u32>,
    /// Reusable scratch for lock-release grant lists.
    grant_buf: Vec<(Pid, LockMode, Ns)>,
    /// Per-pid `done` flags, dense so the hot wake path never touches
    /// the boxed process table just to skip a finished pid.
    proc_done: Vec<bool>,
    /// Per-pid label of what the process is blocked on (diagnostics).
    proc_blocked_on: Vec<&'static str>,
    /// Per-pid [`Process::label`], read at spawn so diagnostics can
    /// name a process whose box is out of the table.
    proc_label: Vec<&'static str>,
    records: Vec<Record>,
    params: EngineParams,
    rng: StdRng,
    faults: FaultState,
    event_budget: u64,
    /// Events processed by the current `run` call, popped or continued
    /// in place.
    processed: u64,
    /// True while a wake train's later members are still to be
    /// dispatched: they are out of the queue, so the queue minimum does
    /// not show them and no wake may continue in place.
    train_pending: bool,
    proc_core: Vec<CoreId>,
    proc_daemon: Vec<bool>,
    live_users: usize,
    proc_kind: Vec<ProcKind>,
    /// Per-pid cumulative latency components (always on; pure
    /// bookkeeping, never alters timing or RNG draws).
    lat: Vec<LatBreakdown>,
    /// Per-pid cumulative lock wait per label, in first-contended order.
    lock_waits: Vec<Vec<(&'static str, Ns)>>,
    /// Per-pid timestamp of the last unknown-duration block (lock, IPI,
    /// barrier, wait queue); settled against the clock at resume.
    blocked_since: Vec<Ns>,
    trace_cfg: TraceConfig,
    trace: TraceLog,
    /// Engine self-profiling metrics (inert unless
    /// [`Engine::set_telemetry`] enabled them). Purely observational:
    /// counters and gauges only, never clock/RNG/scheduling state.
    telem: Registry,
    em: EngineMetrics,
}

/// Cached metric ids for the engine's own hot-path instrumentation.
/// All [`MetricId::NONE`] while telemetry is disabled, so every update
/// is a single-branch no-op.
#[derive(Clone, Copy)]
struct EngineMetrics {
    /// Events popped and dispatched (`engine_events_dispatched`).
    dispatched: MetricId,
    /// Events scheduled: pushed onto the queue, or continued in place
    /// of a push that would have been popped next (`Engine::run`'s
    /// inline continuation), so the count matches one push per wake
    /// (`engine_events_scheduled`).
    scheduled: MetricId,
    /// Event-queue depth after each dispatch (`engine_event_queue_depth`).
    queue_depth: MetricId,
    /// Peak event-queue depth (`engine_event_queue_peak`).
    queue_peak: MetricId,
    /// Process wakes delivered (`engine_process_wakes`).
    wakes: MetricId,
    /// Processes spawned (`engine_processes_spawned`).
    spawned: MetricId,
    /// Timer interrupts charged against compute slices, post-coalescing
    /// (`engine_timer_ticks`).
    timer_ticks: MetricId,
}

impl EngineMetrics {
    const NONE: EngineMetrics = EngineMetrics {
        dispatched: MetricId::NONE,
        scheduled: MetricId::NONE,
        queue_depth: MetricId::NONE,
        queue_peak: MetricId::NONE,
        wakes: MetricId::NONE,
        spawned: MetricId::NONE,
        timer_ticks: MetricId::NONE,
    };

    fn register(reg: &mut Registry) -> EngineMetrics {
        EngineMetrics {
            dispatched: reg.counter("engine_events_dispatched", &[]),
            scheduled: reg.counter("engine_events_scheduled", &[]),
            queue_depth: reg.gauge("engine_event_queue_depth", &[]),
            queue_peak: reg.gauge("engine_event_queue_peak", &[]),
            wakes: reg.counter("engine_process_wakes", &[]),
            spawned: reg.counter("engine_processes_spawned", &[]),
            timer_ticks: reg.counter("engine_timer_ticks", &[]),
        }
    }
}

impl EngineState {
    #[inline]
    fn telem_on(&self) -> bool {
        self.telem.enabled()
    }

    fn schedule(&mut self, t: Ns, kind: EventKind) {
        let seq = self.reserve_key(t, kind, 1);
        self.events.push_keyed(t, seq, kind);
    }

    /// Takes the seq a push of `kind` at `t` uses, counting it as `n`
    /// scheduled events; `kind` must not lie in the past.
    fn reserve_key(&mut self, t: Ns, kind: EventKind, n: u64) -> u64 {
        debug_assert!(
            t >= self.clock,
            "scheduling into the past: {} at t={t}ns, but the clock is at t={}ns",
            self.describe(kind),
            self.clock
        );
        if self.telem_on() {
            self.telem.add(self.em.scheduled, n);
        }
        self.events.reserve_seq()
    }

    /// Names an event and the process it concerns, for diagnostics.
    fn describe(&self, kind: EventKind) -> String {
        match kind {
            EventKind::Wake(pid, reason) => format!("{} wake of pid {}", reason.tag(), pid.0),
            EventKind::WakeBatch(b) => {
                let train = &self.batches[b as usize];
                let lead = train.first().map_or(0, |w| w.0 .0);
                format!("wake train of {} led by pid {lead}", train.len())
            }
            EventKind::IpiAck(token) => {
                format!("IPI ack for pid {}", self.ipis[token as usize].sender.0)
            }
        }
    }

    /// The dispatch prologue every processed event shares, popped or
    /// continued in place: checks the event budget, counts the event,
    /// moves the clock to `t` and fires the per-dispatch telemetry.
    /// Returns false, changing nothing, when the budget is spent.
    #[inline]
    fn begin_dispatch(&mut self, t: Ns) -> bool {
        if self.event_budget != 0 && self.processed >= self.event_budget {
            return false;
        }
        self.processed += 1;
        self.clock = t;
        if self.telem_on() {
            let em = self.em;
            let depth = self.events.len() as u64;
            self.telem.add(em.dispatched, 1);
            self.telem.set(em.queue_depth, depth);
            self.telem.set_max(em.queue_peak, depth);
            self.telem.sample_tick(self.clock);
        }
        true
    }

    /// The wake prologue: settles an unknown-duration block now that its
    /// end is known, traces the wake and counts it. (Timer, I/O and RCU
    /// waits were settled when the effect was issued.)
    fn begin_wake(&mut self, pid: Pid, wake: WakeReason) {
        let settle = match wake {
            WakeReason::LockGranted(_) => Some(LatComp::LockWait),
            WakeReason::IpiDone => Some(LatComp::IpiWait),
            WakeReason::BarrierReleased => Some(LatComp::BarrierWait),
            WakeReason::Signaled(_) => Some(LatComp::QueueWait),
            _ => None,
        };
        if let Some(comp) = settle {
            let dt = self.clock - self.blocked_since[pid.index()];
            self.lat[pid.index()].add(comp, dt);
        }
        if self.trace_on() {
            self.trace_push(pid, TraceEventKind::Wake { reason: wake });
        }
        if self.telem_on() {
            self.telem.add(self.em.wakes, 1);
        }
    }

    /// Wakes `pid` at `t`, the known end of its own wait. When that wake
    /// would be the next event popped, it is dispatched in place instead
    /// of queued, and the caller resumes the process straight away
    /// (returns true). It would be popped next when `t` is strictly
    /// below the queue minimum's time (an equal time loses the tie on
    /// seq), the run is not about to end, and no wake-train peers are
    /// waiting outside the queue to be dispatched first. The seq, the
    /// counters, the budget check and the trace are those of the push
    /// and pop it replaces, so the continuation is unobservable.
    fn wake_self(&mut self, t: Ns, pid: Pid, reason: WakeReason) -> bool {
        let kind = EventKind::Wake(pid, reason);
        let seq = self.reserve_key(t, kind, 1);
        if !self.train_pending
            && self.live_users > 0
            && self.events.min_t().is_none_or(|min| t < min)
            && self.begin_dispatch(t)
        {
            self.begin_wake(pid, reason);
            return true;
        }
        self.events.push_keyed(t, seq, kind);
        false
    }

    fn wake_at(&mut self, t: Ns, pid: Pid, reason: WakeReason) {
        self.schedule(t, EventKind::Wake(pid, reason));
    }

    /// Hands out an empty (capacity-retaining) wake-train buffer and
    /// its slab index. The slot is left empty until `commit_train`.
    fn take_train(&mut self) -> (u32, Vec<(Pid, WakeReason)>) {
        match self.batch_free.pop() {
            Some(b) => {
                let buf = std::mem::take(&mut self.batches[b as usize]);
                (b, buf)
            }
            None => {
                self.batches.push(Vec::new());
                (self.batches.len() as u32 - 1, Vec::new())
            }
        }
    }

    /// Schedules a filled wake train at `t`. Trains of length >= 2
    /// coalesce into one `WakeBatch` queue operation; a singleton is a
    /// plain `Wake` (and an empty train schedules nothing). The
    /// `scheduled` counter advances by the train length either way, so
    /// telemetry totals match the one-event-per-wake formulation.
    fn commit_train(&mut self, t: Ns, b: u32, mut train: Vec<(Pid, WakeReason)>) {
        match train.len() {
            0 => {
                self.batches[b as usize] = train;
                self.batch_free.push(b);
            }
            1 => {
                let (pid, reason) = train[0];
                train.clear();
                self.batches[b as usize] = train;
                self.batch_free.push(b);
                self.wake_at(t, pid, reason);
            }
            n => {
                self.batches[b as usize] = train;
                let kind = EventKind::WakeBatch(b);
                let seq = self.reserve_key(t, kind, n as u64);
                self.events.push_keyed(t, seq, kind);
            }
        }
    }

    #[inline]
    fn trace_on(&self) -> bool {
        self.trace_cfg.enabled
    }

    /// Appends a trace event to the ring of `pid`'s core. Purely
    /// observational: touches no clock, RNG or scheduling state.
    fn trace_push(&mut self, pid: Pid, kind: TraceEventKind) {
        let core = self.proc_core[pid.index()];
        while self.trace.rings.len() <= core.index() {
            self.trace
                .rings
                .push(TraceRing::new(self.trace_cfg.ring_capacity));
        }
        self.trace.rings[core.index()].push(TraceEvent {
            t: self.clock,
            pid,
            core,
            kind,
        });
    }

    /// Accumulates `ns` of lock wait for `pid` under `label`.
    fn add_lock_wait(&mut self, pid: Pid, label: &'static str, ns: Ns) {
        let waits = &mut self.lock_waits[pid.index()];
        if let Some(entry) = waits.iter_mut().find(|e| e.0 == label) {
            entry.1 += ns;
        } else {
            waits.push((label, ns));
        }
    }

    /// Grants released-lock waiters: bookkeeping plus wake events. All
    /// grants of one release share a wake time, so they coalesce into a
    /// single wake train.
    fn grant(&mut self, lock: LockId, granted: &[(Pid, LockMode, Ns)]) {
        if granted.is_empty() {
            return;
        }
        let kind = self.locks[lock.index()].kind;
        let label = self.locks[lock.index()].label;
        let delay = match kind {
            LockKind::Spin => self.params.spin_handoff,
            LockKind::Mutex | LockKind::RwLock => {
                self.params.spin_handoff + self.params.sched_wakeup
            }
        };
        let t = self.clock + delay;
        let (b, mut train) = self.take_train();
        for &(pid, mode, since) in granted {
            if kind == LockKind::Spin {
                let core = self.proc_core[pid.index()];
                self.cores[core.index()].irq_depth += 1;
            }
            // The waiter owns the lock from its wake time onward; its
            // wait ran from enqueue to that wake (handoff included).
            let wait = t - since;
            let l = &mut self.locks[lock.index()];
            l.record_wait(wait);
            if mode == LockMode::Exclusive {
                l.held_since = t;
            }
            self.add_lock_wait(pid, label, wait);
            if self.trace_on() {
                self.trace_push(
                    pid,
                    TraceEventKind::LockAcquired {
                        lock,
                        wait_ns: wait,
                        contended: true,
                    },
                );
            }
            train.push((pid, WakeReason::LockGranted(lock)));
        }
        self.commit_train(t, b, train);
    }

    /// Releases `lock` on behalf of `pid`, waking any granted waiters and
    /// flushing IPI acknowledgements deferred by a spin section.
    fn do_release(&mut self, pid: Pid, lock: LockId) {
        let kind = self.locks[lock.index()].kind;
        if self.trace_on() {
            let l = &self.locks[lock.index()];
            if l.holder == crate::lock::Holder::Exclusive(pid) {
                let held_ns = self.clock.saturating_sub(l.held_since);
                self.trace_push(pid, TraceEventKind::LockReleased { lock, held_ns });
            }
        }
        if kind == LockKind::Spin {
            let core = self.proc_core[pid.index()];
            let cs = &mut self.cores[core.index()];
            assert!(
                cs.irq_depth > 0,
                "spin unlock without irq section: pid {} released spinlock {} \"{}\" on core {} at t={}ns",
                pid.0,
                lock.0,
                self.locks[lock.index()].label,
                core.0,
                self.clock
            );
            cs.irq_depth -= 1;
            if cs.irq_depth == 0 && !cs.deferred_acks.is_empty() {
                let acks = std::mem::take(&mut cs.deferred_acks);
                let now = self.clock;
                for (token, handler_ns) in acks {
                    let done = self.cores[core.index()].steal(now, handler_ns);
                    self.land_ack(token, done + self.params.ipi_latency);
                }
            }
        }
        let mut granted = std::mem::take(&mut self.grant_buf);
        self.locks[lock.index()].release_into(pid, &mut granted);
        self.grant(lock, &granted);
        granted.clear();
        self.grant_buf = granted;
    }

    /// Allocates an IPI slab slot for a broadcast to `targets` cores;
    /// the returned token rides in `EventKind::IpiAck` events.
    fn alloc_ipi(&mut self, sender: Pid, targets: u32, coalesce: bool) -> u32 {
        let pending = IpiPending {
            sender,
            remaining: targets,
            weight: if coalesce { targets } else { 1 },
            unkeyed: targets,
            last: (0, 0),
        };
        match self.ipi_free.pop() {
            Some(i) => {
                self.ipis[i as usize] = pending;
                i
            }
            None => {
                self.ipis.push(pending);
                self.ipis.len() as u32 - 1
            }
        }
    }

    /// Gives one of `token`'s acks its queue key, at time `t`. With
    /// one event per ack it is scheduled now. A coalesced broadcast
    /// reserves the seq that event would have taken and keeps the
    /// largest key; once its last ack has a key, its one event is
    /// pushed there.
    fn land_ack(&mut self, token: u32, t: Ns) {
        if self.ipis[token as usize].weight == 1 {
            self.schedule(t, EventKind::IpiAck(token));
            return;
        }
        let key = (t, self.events.reserve_seq());
        let p = &mut self.ipis[token as usize];
        p.last = p.last.max(key);
        p.unkeyed -= 1;
        if p.unkeyed == 0 {
            let (t, seq) = p.last;
            self.events.push_keyed(t, seq, EventKind::IpiAck(token));
        }
    }

    /// Dispatches one ack of `token` at the current clock. Returns the
    /// sender to wake when this was the broadcast's last ack.
    fn ack(&mut self, token: u32) -> Option<Pid> {
        let p = &mut self.ipis[token as usize];
        let Some(left) = p.remaining.checked_sub(1) else {
            let sender = p.sender;
            panic!(
                "IPI ack with none outstanding: token {token} of pid {} (core {}) at t={}ns",
                sender.0,
                self.proc_core[sender.index()].0,
                self.clock
            );
        };
        p.remaining = left;
        if left > 0 {
            return None;
        }
        let sender = p.sender;
        self.ipi_free.push(token);
        Some(sender)
    }
}

/// Context handed to a process during `resume`: the shared world plus the
/// engine services that never block.
pub struct SimCtx<'a, W> {
    /// The engine's world: shared mutable state visible to all processes.
    pub world: &'a mut W,
    st: &'a mut EngineState,
    pid: Pid,
}

impl<'a, W> SimCtx<'a, W> {
    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.st.clock
    }

    /// The resumed process's id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The core this process is bound to.
    pub fn core(&self) -> CoreId {
        self.st.proc_core[self.pid.index()]
    }

    /// The engine's deterministic RNG (shared; use for device-jitter-like
    /// decisions — workload RNGs should live inside the process).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.st.rng
    }

    /// Releases a lock this process holds (or drops one reader reference).
    /// Never blocks; granted waiters are woken via events.
    pub fn release(&mut self, lock: LockId) {
        self.st.do_release(self.pid, lock);
    }

    /// Wakes up to `n` processes sleeping on `queue`; returns how many were
    /// woken. A signal with no sleepers is lost (condition-variable
    /// semantics) — guard with world state.
    pub fn signal(&mut self, queue: QueueId, n: usize) -> usize {
        let mut woken = 0;
        let t = self.st.clock + self.st.params.sched_wakeup;
        let (b, mut train) = self.st.take_train();
        while woken < n {
            let Some(pid) = self.st.queues[queue.0 as usize].waiting.pop_front() else {
                break;
            };
            train.push((pid, WakeReason::Signaled(queue)));
            woken += 1;
        }
        self.st.commit_train(t, b, train);
        woken
    }

    /// Records a measurement sample.
    pub fn record(&mut self, key: u64, value: u64) {
        let rec = Record {
            pid: self.pid,
            key,
            t: self.st.clock,
            value,
        };
        self.st.records.push(rec);
    }

    /// Registers a hit of `site` and asks the fault plan whether this hit
    /// should fail, tracing the injection when it does.
    pub fn should_fail(&mut self, site: FaultSite) -> bool {
        let fail = self.st.faults.should_fail(site);
        if fail && self.st.trace_on() {
            let pid = self.pid;
            let args = Box::new(FaultInjectedArgs {
                kind: site.kind,
                site: site.name,
            });
            self.st.trace_push(pid, TraceEventKind::FaultInjected(args));
        }
        fail
    }

    /// True when trace-event recording is enabled. Use to skip building
    /// event payloads that would otherwise allocate.
    pub fn trace_enabled(&self) -> bool {
        self.st.trace_on()
    }

    /// Records a trace event on this process's core ring (no-op when
    /// tracing is disabled). Kernel layers use this for syscall and
    /// VM-exit marks the engine cannot see.
    pub fn trace_mark(&mut self, kind: TraceEventKind) {
        if self.st.trace_on() {
            let pid = self.pid;
            self.st.trace_push(pid, kind);
        }
    }

    /// Interns a tag in the trace's label table (for
    /// [`TraceEventKind::VmExit`]); the exporter resolves the id back.
    pub fn trace_label(&mut self, label: &'static str) -> LabelId {
        self.st.trace.intern(label)
    }

    /// A consistent snapshot of this process's cumulative latency
    /// components and per-label lock waits, written into a caller-owned
    /// snapshot to reuse its `lock_waits` allocation. Two snapshots
    /// bracketing a stretch of work decompose exactly the virtual time
    /// elapsed between them ([`LatBreakdown::since`]).
    pub fn lat_snapshot_into(&self, out: &mut LatSnapshot) {
        out.comps = self.st.lat[self.pid.index()];
        out.lock_waits
            .clone_from(&self.st.lock_waits[self.pid.index()]);
    }

    /// Splits the context into the world and the fault state, so code that
    /// holds `&mut W` (e.g. a kernel dispatch loop) can still consult the
    /// fault plan without a double mutable borrow of the context.
    pub fn world_and_faults(&mut self) -> (&mut W, &mut FaultState) {
        (self.world, &mut self.st.faults)
    }
}

/// The discrete-event engine. See the crate docs for the model.
///
/// Process state is struct-of-arrays: the boxed state machines live
/// here, while the dense per-pid scalars the hot path actually probes
/// (`done`, `blocked_on`, core binding, latency breakdowns) live in
/// contiguous `Vec`s on [`EngineState`].
pub struct Engine<W> {
    st: EngineState,
    procs: Vec<Option<Box<dyn Process<W>>>>,
    world: W,
}

impl<W> Engine<W> {
    /// Creates an engine around `world`, seeded for determinism.
    pub fn new(world: W, params: EngineParams, seed: u64) -> Self {
        Self {
            st: EngineState {
                clock: 0,
                events: EventQueue::new(),
                cores: Vec::new(),
                locks: Vec::new(),
                queues: Vec::new(),
                barriers: Vec::new(),
                rcu: Vec::new(),
                devices: Vec::new(),
                ipis: Vec::new(),
                ipi_free: Vec::new(),
                batches: Vec::new(),
                batch_free: Vec::new(),
                grant_buf: Vec::new(),
                proc_done: Vec::new(),
                proc_blocked_on: Vec::new(),
                proc_label: Vec::new(),
                records: Vec::new(),
                params,
                rng: StdRng::seed_from_u64(seed),
                faults: FaultState::default(),
                event_budget: 0,
                processed: 0,
                train_pending: false,
                proc_core: Vec::new(),
                proc_daemon: Vec::new(),
                live_users: 0,
                proc_kind: Vec::new(),
                lat: Vec::new(),
                lock_waits: Vec::new(),
                blocked_since: Vec::new(),
                trace_cfg: TraceConfig::disabled(),
                trace: TraceLog::default(),
                telem: Registry::disabled(),
                em: EngineMetrics::NONE,
            },
            procs: Vec::new(),
            world,
        }
    }

    /// Registers a core; returns its id.
    pub fn add_core(&mut self, cfg: CoreConfig) -> CoreId {
        let id = CoreId(self.st.cores.len() as u32);
        self.st.cores.push(CoreState::new(cfg));
        id
    }

    /// Registers a lock; returns its id.
    pub fn add_lock(&mut self, kind: LockKind, label: &'static str) -> LockId {
        let id = LockId(self.st.locks.len() as u32);
        self.st.locks.push(LockState::new(kind, label));
        id
    }

    /// Registers a wait queue; returns its id.
    pub fn add_queue(&mut self) -> QueueId {
        let id = QueueId(self.st.queues.len() as u32);
        self.st.queues.push(QueueState {
            waiting: Default::default(),
        });
        id
    }

    /// Registers a barrier over `size` participants; returns its id.
    #[track_caller]
    pub fn add_barrier(&mut self, size: u32) -> BarrierId {
        assert!(
            size > 0,
            "barrier size must be positive: add_barrier(0) called at {}",
            std::panic::Location::caller()
        );
        let id = BarrierId(self.st.barriers.len() as u32);
        self.st.barriers.push(BarrierState {
            size,
            waiting: Vec::new(),
        });
        id
    }

    /// Registers an RCU domain spanning `n_cores` cores; returns its id.
    pub fn add_rcu_domain(&mut self, n_cores: u32) -> RcuId {
        let id = RcuId(self.st.rcu.len() as u32);
        self.st.rcu.push(RcuDomain { n_cores });
        id
    }

    /// Registers a block device; returns its id.
    pub fn add_device(&mut self, model: DeviceModel) -> DevId {
        let id = DevId(self.st.devices.len() as u32);
        self.st.devices.push(DeviceState::new(model));
        id
    }

    /// Spawns a process bound to `core`, first resumed at `start_at`.
    pub fn spawn(&mut self, core: CoreId, proc: Box<dyn Process<W>>, start_at: Ns) -> Pid {
        let label = proc.label();
        assert!(
            core.index() < self.st.cores.len(),
            "spawn of \"{label}\" on unknown core {} (the engine has {} cores)",
            core.0,
            self.st.cores.len()
        );
        let pid = Pid(self.procs.len() as u32);
        let daemon = proc.is_daemon();
        let kind = proc.kind();
        self.procs.push(Some(proc));
        self.st.proc_done.push(false);
        self.st.proc_blocked_on.push("start");
        self.st.proc_label.push(label);
        self.st.proc_core.push(core);
        self.st.proc_daemon.push(daemon);
        self.st.proc_kind.push(kind);
        self.st.lat.push(LatBreakdown::default());
        self.st.lock_waits.push(Vec::new());
        self.st.blocked_since.push(0);
        if !daemon {
            self.st.live_users += 1;
        }
        if self.st.telem_on() {
            let id = self.st.em.spawned;
            self.st.telem.add(id, 1);
        }
        self.st.wake_at(start_at, pid, WakeReason::Start);
        pid
    }

    /// Shared world accessor.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable world accessor (between runs / before start).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Current virtual time.
    pub fn now(&self) -> Ns {
        self.st.clock
    }

    /// Iterates `(label, acquisitions, contended, total_wait_ns,
    /// max_wait_ns)` over every registered lock — the lockstat
    /// analogue's raw material (durations, not just rates).
    pub fn all_lock_wait_stats(
        &self,
    ) -> impl Iterator<Item = (&'static str, u64, u64, Ns, Ns)> + '_ {
        self.st.locks.iter().map(|l| {
            (
                l.label,
                l.acquisitions,
                l.contended,
                l.total_wait_ns,
                l.max_wait_ns,
            )
        })
    }

    /// Folds every lock's counters into `metrics` as `lock_acquisitions`,
    /// `lock_contended` and `lock_wait_ns`, labelled by lock label, in
    /// registration order (no-op when `metrics` is disabled).
    pub fn fold_lock_counters(&self, metrics: &mut Registry) {
        if !metrics.enabled() {
            return;
        }
        for (label, acq, cont, total_wait, _max) in self.all_lock_wait_stats() {
            let labels = [("label", label.to_string())];
            let a = metrics.counter("lock_acquisitions", &labels);
            let c = metrics.counter("lock_contended", &labels);
            let w = metrics.counter("lock_wait_ns", &labels);
            metrics.add(a, acq);
            metrics.add(c, cont);
            metrics.add(w, total_wait);
        }
    }

    /// A process's cumulative latency components.
    pub fn lat_breakdown(&self, pid: Pid) -> LatBreakdown {
        self.st.lat[pid.index()]
    }

    /// A process's cumulative per-label lock waits.
    pub fn proc_lock_waits(&self, pid: Pid) -> &[(&'static str, Ns)] {
        &self.st.lock_waits[pid.index()]
    }

    /// Installs a tracing configuration and resets any previously
    /// recorded trace. With tracing disabled (the default) no events are
    /// recorded; either way, simulated results are bit-identical —
    /// recording is purely observational.
    pub fn set_trace(&mut self, cfg: TraceConfig) {
        self.st.trace_cfg = cfg;
        self.st.trace = TraceLog {
            enabled: cfg.enabled,
            ..TraceLog::default()
        };
    }

    /// Takes ownership of the recorded trace, leaving an empty one. The
    /// taken log carries the lock labels its lock events resolve through,
    /// and its rings drop their growth slack: callers that keep many
    /// runs' traces hold only the events.
    pub fn take_trace(&mut self) -> TraceLog {
        let enabled = self.st.trace_cfg.enabled;
        let mut taken = std::mem::take(&mut self.st.trace);
        taken.enabled = enabled;
        taken.lock_labels = self.lock_labels();
        for ring in &mut taken.rings {
            ring.shrink_to_fit();
        }
        self.st.trace.enabled = enabled;
        taken
    }

    /// Every registered lock's label, indexed by `LockId::index()`.
    fn lock_labels(&self) -> Vec<&'static str> {
        self.st.locks.iter().map(|l| l.label).collect()
    }

    /// Installs a telemetry configuration, replacing any previously
    /// recorded metrics. With telemetry disabled (the default) every
    /// metric update is a single-branch no-op; either way simulated
    /// results are bit-identical — the registry is purely observational
    /// and is only read from the virtual clock.
    pub fn set_telemetry(&mut self, cfg: TelemetryConfig) {
        self.st.telem = Registry::new(cfg);
        self.st.em = if cfg.enabled {
            EngineMetrics::register(&mut self.st.telem)
        } else {
            EngineMetrics::NONE
        };
    }

    /// Takes ownership of the recorded metrics after flushing a final
    /// sample at the current clock, leaving a fresh registry with the
    /// same configuration.
    pub fn take_telemetry(&mut self) -> Registry {
        if self.st.telem.enabled() {
            self.st.telem.force_sample(self.st.clock);
        }
        let cfg = self.st.telem.config();
        let taken = std::mem::take(&mut self.st.telem);
        self.st.telem = Registry::new(cfg);
        self.st.em = if cfg.enabled {
            EngineMetrics::register(&mut self.st.telem)
        } else {
            EngineMetrics::NONE
        };
        taken
    }

    /// Installs a fault plan, clearing any previous hit counters. Call
    /// before `run`; handlers consult the plan through [`SimCtx`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.st.faults.reset(plan);
    }

    /// The fault-injection state (plan, hit counters, injected faults).
    pub fn fault_state(&self) -> &FaultState {
        &self.st.faults
    }

    /// Arms the livelock watchdog: a single `run` call may
    /// process at most `budget` events before failing with a structured
    /// [`SimError::Stalled`] (`livelock == true`). `0` disables the
    /// watchdog (the default).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.st.event_budget = budget;
    }

    /// Runs to completion: until every non-daemon process is done.
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        self.st.processed = 0;
        self.st.train_pending = false;
        while self.st.live_users > 0 {
            let Some((t, seq, kind)) = self.st.events.pop() else {
                return Err(self.stall_error(false));
            };
            match kind {
                EventKind::Wake(pid, reason) => {
                    if !self.st.begin_dispatch(t) {
                        // Watchdog: the run keeps generating events
                        // without the user processes finishing. Park the
                        // event for a possible resume and report a
                        // structured livelock instead of spinning forever.
                        self.st.events.push_keyed(t, seq, kind);
                        return Err(self.stall_error(true));
                    }
                    self.run_process(pid, reason);
                }
                EventKind::WakeBatch(b) => {
                    // Each sub-wake counts as one dispatched/processed
                    // event, with the budget checked before each one —
                    // exactly as if the train were N separate events.
                    let mut train = std::mem::take(&mut self.st.batches[b as usize]);
                    for i in 0..train.len() {
                        if !self.st.begin_dispatch(t) {
                            // Re-park the undispatched tail of the train
                            // at the original key; its wakes stay ahead
                            // of any later same-time arrivals.
                            train.drain(..i);
                            self.st.batches[b as usize] = train;
                            self.st.events.push_keyed(t, seq, EventKind::WakeBatch(b));
                            return Err(self.stall_error(true));
                        }
                        self.st.train_pending = i + 1 < train.len();
                        let (pid, reason) = train[i];
                        self.run_process(pid, reason);
                    }
                    train.clear();
                    self.st.batches[b as usize] = train;
                    self.st.batch_free.push(b);
                }
                EventKind::IpiAck(token) => {
                    // A coalesced event carries every ack its broadcast
                    // has left. Like a wake train, each ack counts as one
                    // processed event with the budget checked before it,
                    // and a budget stop re-parks the rest at this key.
                    // Only the last ack wakes the sender, so its wake may
                    // continue in place with no peers left behind.
                    let p = self.st.ipis[token as usize];
                    let acks = if p.weight == 1 { 1 } else { p.remaining };
                    for _ in 0..acks {
                        if !self.st.begin_dispatch(t) {
                            self.st.events.push_keyed(t, seq, kind);
                            return Err(self.stall_error(true));
                        }
                        if let Some(sender) = self.st.ack(token) {
                            self.run_process(sender, WakeReason::IpiDone);
                        }
                    }
                }
            }
        }
        Ok(SimResult {
            clock: self.st.clock,
            records: std::mem::take(&mut self.st.records),
            events: self.st.processed,
        })
    }

    fn stall_error(&self, livelock: bool) -> SimError {
        let blocked = (0..self.procs.len())
            .filter(|&i| !self.st.proc_done[i])
            .map(|i| {
                (
                    Pid(i as u32),
                    self.st.proc_label[i].to_string(),
                    self.st.proc_blocked_on[i].to_string(),
                )
            })
            .collect();
        let pending = self
            .st
            .events
            .earliest(STALL_EVENTS)
            .into_iter()
            .map(|(t, kind)| (t, self.st.describe(kind)))
            .collect();
        let trace_tail = self.st.trace_on().then(|| {
            Box::new(TraceLog {
                lock_labels: self.lock_labels(),
                ..self.st.trace.tail(STALL_EVENTS)
            })
        });
        SimError::Stalled {
            clock: self.st.clock,
            events: self.st.processed,
            livelock,
            blocked,
            pending,
            trace_tail,
        }
    }

    fn run_process(&mut self, pid: Pid, mut wake: WakeReason) {
        if self.st.proc_done[pid.index()] {
            return;
        }
        self.st.begin_wake(pid, wake);
        let core = self.st.proc_core[pid.index()];
        let Some(mut proc) = self.procs[pid.index()].take() else {
            panic!(
                "process resumed re-entrantly: pid {} \"{}\" on core {} at t={}ns ({} wake)",
                pid.0,
                self.st.proc_label[pid.index()],
                core.0,
                self.st.clock,
                wake.tag()
            );
        };
        loop {
            let effect = {
                let mut ctx = SimCtx {
                    world: &mut self.world,
                    st: &mut self.st,
                    pid,
                };
                proc.resume(&mut ctx, wake)
            };
            let st = &mut self.st;
            let now = st.clock;
            // The four effects that end in a wake at a known time yield
            // it here; every other arm continues or breaks itself.
            let (t, reason) = match effect {
                Effect::Delay(n) => {
                    let class = match st.proc_kind[pid.index()] {
                        ProcKind::User => OccClass::User,
                        ProcKind::Softirq => OccClass::Softirq,
                        ProcKind::Daemon => OccClass::Daemon,
                    };
                    let (queued, ticks, tick_cost, end) = {
                        let cs = &mut st.cores[core.index()];
                        let queued = if cs.free_at > now {
                            cs.queue_breakdown(now)
                        } else {
                            [0; OccClass::COUNT]
                        };
                        let ticks = n.checked_div(cs.cfg.tick_period).unwrap_or(0);
                        let tick_cost = ticks * cs.cfg.tick_cost;
                        let end = cs.charge_compute(now, n, class);
                        (queued, ticks, tick_cost, end)
                    };
                    let lat = &mut st.lat[pid.index()];
                    lat.add(LatComp::OnCpu, n);
                    lat.add(LatComp::TickIrq, tick_cost);
                    lat.add(LatComp::RunqWait, queued[OccClass::User as usize]);
                    lat.add(LatComp::SoftirqWait, queued[OccClass::Softirq as usize]);
                    lat.add(LatComp::DaemonWait, queued[OccClass::Daemon as usize]);
                    lat.add(LatComp::IrqWait, queued[OccClass::Irq as usize]);
                    if st.telem_on() && ticks > 0 {
                        let id = st.em.timer_ticks;
                        st.telem.add(id, ticks);
                    }
                    if st.trace_on() {
                        if ticks > 0 {
                            st.trace_push(
                                pid,
                                TraceEventKind::TimerTicks {
                                    n: ticks,
                                    cost_ns: tick_cost,
                                },
                            );
                        }
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::OnCpu,
                            },
                        );
                    }
                    st.proc_blocked_on[pid.index()] = "delay";
                    (end, WakeReason::Timer)
                }
                Effect::Sleep(n) => {
                    st.lat[pid.index()].add(LatComp::Sleep, n);
                    if st.trace_on() {
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::Sleep,
                            },
                        );
                    }
                    st.proc_blocked_on[pid.index()] = "sleep";
                    (now + n, WakeReason::Timer)
                }
                Effect::Acquire(lock, mode) => {
                    if st.locks[lock.index()].try_acquire(pid, mode) {
                        if st.locks[lock.index()].kind == LockKind::Spin {
                            st.cores[core.index()].irq_depth += 1;
                        }
                        if mode == LockMode::Exclusive {
                            st.locks[lock.index()].held_since = now;
                        }
                        if st.trace_on() {
                            st.trace_push(
                                pid,
                                TraceEventKind::LockAcquired {
                                    lock,
                                    wait_ns: 0,
                                    contended: false,
                                },
                            );
                        }
                        wake = WakeReason::LockGranted(lock);
                        continue;
                    }
                    st.locks[lock.index()].enqueue(pid, mode, now);
                    st.blocked_since[pid.index()] = now;
                    if st.trace_on() {
                        st.trace_push(pid, TraceEventKind::LockContend { lock });
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::LockWait,
                            },
                        );
                    }
                    st.proc_blocked_on[pid.index()] = st.locks[lock.index()].label;
                    break;
                }
                Effect::Ipi {
                    targets,
                    handler_ns,
                } => {
                    if targets.is_empty() {
                        wake = WakeReason::IpiDone;
                        continue;
                    }
                    st.blocked_since[pid.index()] = now;
                    if st.trace_on() {
                        st.trace_push(
                            pid,
                            TraceEventKind::IpiBroadcast {
                                targets: targets.len() as u32,
                                handler_ns,
                            },
                        );
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::IpiWait,
                            },
                        );
                    }
                    // Coalesce the acks into one event unless telemetry
                    // needs a dispatch point per ack (its queue gauges
                    // and sampled ticks), or the sender is a daemon, whose
                    // broadcast may still be in flight when the run ends.
                    let coalesce = !st.telem_on() && !st.proc_daemon[pid.index()];
                    let token = st.alloc_ipi(pid, targets.len() as u32, coalesce);
                    for target in targets {
                        debug_assert_ne!(target, core, "IPI to own core");
                        let tc = &mut st.cores[target.index()];
                        if tc.irq_depth > 0 {
                            tc.deferred_acks.push((token, handler_ns));
                        } else {
                            let done = tc.steal(now, handler_ns);
                            st.land_ack(token, done + st.params.ipi_latency);
                        }
                    }
                    st.proc_blocked_on[pid.index()] = "ipi";
                    break;
                }
                Effect::Io { dev, bytes } => {
                    let jitter_max = st.devices[dev.index()].model.jitter;
                    let jitter = if jitter_max == 0 {
                        0
                    } else {
                        st.rng.gen_range(0..jitter_max)
                    };
                    let done = st.devices[dev.index()].submit(now, bytes, jitter);
                    st.lat[pid.index()].add(LatComp::IoWait, done - now);
                    if st.trace_on() {
                        st.trace_push(
                            pid,
                            TraceEventKind::IoSubmit {
                                bytes,
                                dur_ns: done - now,
                            },
                        );
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::IoWait,
                            },
                        );
                    }
                    st.proc_blocked_on[pid.index()] = "io";
                    (done, WakeReason::IoDone)
                }
                Effect::Barrier(b) => {
                    let full = {
                        let bs = &mut st.barriers[b.0 as usize];
                        bs.waiting.push(pid);
                        bs.waiting.len() as u32 == bs.size
                    };
                    st.blocked_since[pid.index()] = now;
                    if st.trace_on() {
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::BarrierWait,
                            },
                        );
                    }
                    if full {
                        // All participants release at the same instant:
                        // one coalesced wake train.
                        let release = now + st.params.barrier_release;
                        let mut waiters = std::mem::take(&mut st.barriers[b.0 as usize].waiting);
                        let (train_id, mut train) = st.take_train();
                        train.extend(waiters.iter().map(|&w| (w, WakeReason::BarrierReleased)));
                        st.commit_train(release, train_id, train);
                        waiters.clear();
                        st.barriers[b.0 as usize].waiting = waiters;
                    }
                    st.proc_blocked_on[pid.index()] = "barrier";
                    break;
                }
                Effect::Wait(q) => {
                    st.queues[q.0 as usize].waiting.push_back(pid);
                    st.blocked_since[pid.index()] = now;
                    if st.trace_on() {
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::QueueWait,
                            },
                        );
                    }
                    st.proc_blocked_on[pid.index()] = "queue";
                    break;
                }
                Effect::RcuSync(r) => {
                    let dom = &st.rcu[r.0 as usize];
                    let gp = st.params.rcu_base + st.params.rcu_per_core * dom.n_cores as Ns;
                    let jitter = if st.params.rcu_jitter == 0 {
                        0
                    } else {
                        st.rng.gen_range(0..st.params.rcu_jitter)
                    };
                    st.lat[pid.index()].add(LatComp::RcuWait, gp + jitter);
                    if st.trace_on() {
                        st.trace_push(
                            pid,
                            TraceEventKind::RcuSync {
                                dur_ns: gp + jitter,
                            },
                        );
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::RcuWait,
                            },
                        );
                    }
                    st.proc_blocked_on[pid.index()] = "rcu";
                    (now + gp + jitter, WakeReason::RcuDone)
                }
                Effect::Done => {
                    st.proc_done[pid.index()] = true;
                    if !st.proc_daemon[pid.index()] {
                        st.live_users -= 1;
                    }
                    break;
                }
            };
            if !st.wake_self(t, pid, reason) {
                break;
            }
            wake = reason;
        }
        self.procs[pid.index()] = Some(proc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A process that runs a scripted list of effects.
    struct Scripted {
        effects: Vec<Effect>,
        at: usize,
        wakes: Vec<WakeReason>,
        releases: Vec<(usize, LockId)>, // release lock before issuing effect #i
        records: Vec<(usize, u64)>,     // record key before issuing effect #i
        finish_time: std::rc::Rc<std::cell::Cell<Ns>>,
        daemon: bool,
    }

    impl Scripted {
        fn new(effects: Vec<Effect>) -> Self {
            Self {
                effects,
                at: 0,
                wakes: Vec::new(),
                releases: Vec::new(),
                records: Vec::new(),
                finish_time: Default::default(),
                daemon: false,
            }
        }

        fn daemonized(mut self) -> Self {
            self.daemon = true;
            self
        }

        fn with_release(mut self, before: usize, lock: LockId) -> Self {
            self.releases.push((before, lock));
            self
        }

        fn with_record(mut self, before: usize, key: u64) -> Self {
            self.records.push((before, key));
            self
        }

        fn with_finish_probe(mut self, probe: std::rc::Rc<std::cell::Cell<Ns>>) -> Self {
            self.finish_time = probe;
            self
        }
    }

    impl Process<()> for Scripted {
        fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, wake: WakeReason) -> Effect {
            self.wakes.push(wake);
            for &(before, lock) in &self.releases {
                if before == self.at {
                    ctx.release(lock);
                }
            }
            for &(before, key) in &self.records {
                if before == self.at {
                    ctx.record(key, 0);
                }
            }
            if self.at >= self.effects.len() {
                self.finish_time.set(ctx.now());
                return Effect::Done;
            }
            let e = self.effects[self.at].clone();
            self.at += 1;
            e
        }

        fn is_daemon(&self) -> bool {
            self.daemon
        }
    }

    fn engine() -> Engine<()> {
        Engine::new((), EngineParams::default(), 42)
    }

    #[test]
    fn delay_advances_clock() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let probe = std::rc::Rc::new(std::cell::Cell::new(0));
        eng.spawn(
            c,
            Box::new(
                Scripted::new(vec![Effect::Delay(100), Effect::Delay(50)])
                    .with_finish_probe(probe.clone()),
            ),
            0,
        );
        let res = eng.run().unwrap();
        assert_eq!(res.clock, 150);
        assert_eq!(probe.get(), 150);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "scheduling into the past: start wake of pid 1 at t=5ns, but the clock is at t=150ns"
    )]
    fn scheduling_into_the_past_names_the_event_pid_and_both_times() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        eng.spawn(c, Box::new(Scripted::new(vec![Effect::Delay(150)])), 0);
        eng.run().unwrap();
        eng.spawn(c, Box::new(Scripted::new(vec![])), 5);
    }

    #[test]
    #[should_panic(
        expected = "barrier size must be positive: add_barrier(0) called at crates/desim/src/engine.rs:"
    )]
    fn zero_size_barrier_names_its_caller() {
        engine().add_barrier(0);
    }

    #[test]
    #[should_panic(expected = "spawn of \"process\" on unknown core 3 (the engine has 1 cores)")]
    fn spawn_on_unknown_core_names_core_and_count() {
        let mut eng = engine();
        eng.add_core(CoreConfig::default());
        eng.spawn(CoreId(3), Box::new(Scripted::new(vec![])), 0);
    }

    #[test]
    #[should_panic(
        expected = "process resumed re-entrantly: pid 0 \"process\" on core 1 at t=250ns (start wake)"
    )]
    fn reentrant_resume_names_pid_core_and_time() {
        let mut eng = engine();
        let cores = [0, 1].map(|_| eng.add_core(CoreConfig::default()));
        let pid = eng.spawn(cores[1], Box::new(Scripted::new(vec![])), 250);
        // The state a resume leaves behind while the box is out of the
        // table; waking the pid then is the re-entrant case.
        eng.procs[pid.index()].take();
        let _ = eng.run();
    }

    #[test]
    fn telemetry_records_self_profile_without_observer_effect() {
        let run = |telem: bool| {
            let mut eng = engine();
            let c = eng.add_core(CoreConfig {
                tick_period: 40,
                tick_cost: 3,
            });
            if telem {
                eng.set_telemetry(ksa_telemetry::TelemetryConfig::enabled());
            }
            eng.spawn(
                c,
                Box::new(Scripted::new(vec![Effect::Delay(100), Effect::Delay(50)])),
                0,
            );
            let res = eng.run().unwrap();
            let reg = eng.take_telemetry();
            (res.clock, res.events, reg)
        };
        let (clock_off, events_off, reg_off) = run(false);
        let (clock_on, events_on, reg_on) = run(true);
        assert_eq!(clock_off, clock_on, "telemetry must not perturb results");
        assert_eq!(events_off, events_on);
        assert!(!reg_off.enabled());
        assert_eq!(reg_off.metrics().len(), 0, "disabled registry stays empty");

        assert_eq!(reg_on.value_of("engine_processes_spawned", &[]), Some(1));
        assert_eq!(
            reg_on.value_of("engine_events_dispatched", &[]),
            Some(events_on),
            "every processed event is counted"
        );
        let scheduled = reg_on.value_of("engine_events_scheduled", &[]).unwrap();
        assert!(scheduled >= events_on, "all dispatched events were pushed");
        // Delay(100)/tick 40 → 2 ticks; Delay(50) → 1 tick.
        assert_eq!(reg_on.value_of("engine_timer_ticks", &[]), Some(3));
        assert!(reg_on.value_of("engine_process_wakes", &[]).unwrap() >= 2);
        assert!(reg_on.samples_taken >= 1, "final flush sampled the rings");
    }

    #[test]
    fn take_telemetry_leaves_a_fresh_enabled_registry() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        eng.set_telemetry(ksa_telemetry::TelemetryConfig::enabled());
        eng.spawn(c, Box::new(Scripted::new(vec![Effect::Delay(10)])), 0);
        eng.run().unwrap();
        let first = eng.take_telemetry();
        assert!(first.value_of("engine_events_dispatched", &[]).unwrap() > 0);
        // A second run reuses the fresh registry with the same config.
        eng.spawn(
            c,
            Box::new(Scripted::new(vec![Effect::Delay(10)])),
            eng.now(),
        );
        eng.run().unwrap();
        let second = eng.take_telemetry();
        assert!(second.enabled());
        assert_eq!(second.value_of("engine_processes_spawned", &[]), Some(1));
    }

    #[test]
    fn two_processes_on_one_core_serialize() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let p1 = std::rc::Rc::new(std::cell::Cell::new(0));
        let p2 = std::rc::Rc::new(std::cell::Cell::new(0));
        eng.spawn(
            c,
            Box::new(Scripted::new(vec![Effect::Delay(100)]).with_finish_probe(p1.clone())),
            0,
        );
        eng.spawn(
            c,
            Box::new(Scripted::new(vec![Effect::Delay(100)]).with_finish_probe(p2.clone())),
            0,
        );
        eng.run().unwrap();
        assert_eq!(p1.get(), 100);
        assert_eq!(p2.get(), 200, "second process queues on the core");
    }

    #[test]
    fn sleep_does_not_occupy_core() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let p1 = std::rc::Rc::new(std::cell::Cell::new(0));
        let p2 = std::rc::Rc::new(std::cell::Cell::new(0));
        eng.spawn(
            c,
            Box::new(Scripted::new(vec![Effect::Sleep(100)]).with_finish_probe(p1.clone())),
            0,
        );
        eng.spawn(
            c,
            Box::new(Scripted::new(vec![Effect::Delay(100)]).with_finish_probe(p2.clone())),
            0,
        );
        eng.run().unwrap();
        assert_eq!(p1.get(), 100);
        assert_eq!(p2.get(), 100, "sleeping process leaves the core free");
    }

    #[test]
    fn lock_contention_queues_fifo() {
        let mut eng = engine();
        let c0 = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let c1 = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let l = eng.add_lock(LockKind::Spin, "test");
        let p1 = std::rc::Rc::new(std::cell::Cell::new(0));
        let p2 = std::rc::Rc::new(std::cell::Cell::new(0));
        // Holder: acquire, hold for 1000ns, release, done.
        eng.spawn(
            c0,
            Box::new(
                Scripted::new(vec![
                    Effect::Acquire(l, LockMode::Exclusive),
                    Effect::Delay(1000),
                ])
                .with_release(2, l)
                .with_finish_probe(p1.clone()),
            ),
            0,
        );
        // Waiter arrives at t=10.
        eng.spawn(
            c1,
            Box::new(
                Scripted::new(vec![
                    Effect::Acquire(l, LockMode::Exclusive),
                    Effect::Delay(10),
                ])
                .with_release(2, l)
                .with_finish_probe(p2.clone()),
            ),
            10,
        );
        eng.run().unwrap();
        assert_eq!(p1.get(), 1000);
        // Waiter granted at 1000 + spin_handoff, then 10ns work.
        let expected = 1000 + EngineParams::default().spin_handoff + 10;
        assert_eq!(p2.get(), expected);
        let (_, acq, cont, _, _) = eng.all_lock_wait_stats().nth(l.index()).unwrap();
        assert_eq!(acq, 2);
        assert_eq!(cont, 1);
    }

    #[test]
    fn ipi_defers_while_spinlock_held() {
        let params = EngineParams::default();
        let mut eng = engine();
        let c0 = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let c1 = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let l = eng.add_lock(LockKind::Spin, "irqsection");
        // Target holds a spinlock (irqs off) from t=0 to t=5000.
        eng.spawn(
            c1,
            Box::new(
                Scripted::new(vec![
                    Effect::Acquire(l, LockMode::Exclusive),
                    Effect::Delay(5000),
                ])
                .with_release(2, l),
            ),
            0,
        );
        // Sender broadcasts at t=100 with a 200ns handler.
        let probe = std::rc::Rc::new(std::cell::Cell::new(0));
        eng.spawn(
            c0,
            Box::new(
                Scripted::new(vec![Effect::Ipi {
                    targets: vec![c1],
                    handler_ns: 200,
                }])
                .with_finish_probe(probe.clone()),
            ),
            100,
        );
        eng.run().unwrap();
        // Ack can only happen after the spin section ends at t=5000.
        let expected_min = 5000 + params.ipi_latency + 200;
        assert!(
            probe.get() >= expected_min,
            "ipi completed at {} < {}",
            probe.get(),
            expected_min
        );
    }

    #[test]
    fn ipi_with_no_targets_completes_immediately() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        let probe = std::rc::Rc::new(std::cell::Cell::new(99));
        eng.spawn(
            c,
            Box::new(
                Scripted::new(vec![Effect::Ipi {
                    targets: vec![],
                    handler_ns: 500,
                }])
                .with_finish_probe(probe.clone()),
            ),
            0,
        );
        eng.run().unwrap();
        assert_eq!(probe.get(), 0);
    }

    #[test]
    fn barrier_releases_all_participants_together() {
        let mut eng = engine();
        let mut probes = Vec::new();
        for i in 0..4u64 {
            let c = eng.add_core(CoreConfig {
                tick_period: 0,
                tick_cost: 0,
            });
            let p = std::rc::Rc::new(std::cell::Cell::new(0));
            probes.push(p.clone());
            let b = BarrierId(0);
            // Register barrier lazily below; spawn with staggered arrival.
            eng.spawn(
                c,
                Box::new(
                    Scripted::new(vec![Effect::Delay(i * 100), Effect::Barrier(b)])
                        .with_finish_probe(p),
                ),
                0,
            );
        }
        eng.add_barrier(4);
        eng.run().unwrap();
        let expected = 300 + EngineParams::default().barrier_release;
        for p in probes {
            assert_eq!(p.get(), expected);
        }
    }

    #[test]
    fn wait_and_signal_roundtrip() {
        struct Waiter {
            q: QueueId,
            started: bool,
            probe: std::rc::Rc<std::cell::Cell<Ns>>,
        }
        impl Process<()> for Waiter {
            fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _wake: WakeReason) -> Effect {
                if !self.started {
                    self.started = true;
                    Effect::Wait(self.q)
                } else {
                    self.probe.set(ctx.now());
                    Effect::Done
                }
            }
        }
        struct Signaler {
            q: QueueId,
            step: u32,
        }
        impl Process<()> for Signaler {
            fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _wake: WakeReason) -> Effect {
                self.step += 1;
                match self.step {
                    1 => Effect::Sleep(1000),
                    2 => {
                        assert_eq!(ctx.signal(self.q, 4), 1, "one waiter present");
                        Effect::Done
                    }
                    _ => unreachable!(),
                }
            }
        }
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        let q = eng.add_queue();
        let probe = std::rc::Rc::new(std::cell::Cell::new(0));
        eng.spawn(
            c,
            Box::new(Waiter {
                q,
                started: false,
                probe: probe.clone(),
            }),
            0,
        );
        eng.spawn(c, Box::new(Signaler { q, step: 0 }), 0);
        eng.run().unwrap();
        assert_eq!(probe.get(), 1000 + EngineParams::default().sched_wakeup);
    }

    #[test]
    fn stall_is_reported_with_diagnostics() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        let q = eng.add_queue();
        eng.spawn(c, Box::new(Scripted::new(vec![Effect::Wait(q)])), 0);
        let err = eng.run().unwrap_err();
        match err {
            SimError::Stalled {
                blocked,
                livelock,
                pending,
                trace_tail,
                ..
            } => {
                assert!(!livelock, "drained heap is a deadlock, not a livelock");
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].2, "queue");
                assert!(pending.is_empty(), "a deadlock drains the queue");
                assert_eq!(trace_tail, None, "tracing was off");
            }
        }
    }

    #[test]
    fn traced_stall_shows_the_last_events_with_lock_labels() {
        let mut eng = engine();
        let c0 = eng.add_core(CoreConfig::default());
        let c1 = eng.add_core(CoreConfig::default());
        let q = eng.add_queue();
        eng.add_lock(LockKind::Mutex, "other");
        let inode = eng.add_lock(LockKind::Mutex, "inode");
        eng.set_trace(TraceConfig::enabled());
        // The holder parks on a queue nobody signals while the waiter
        // queues behind it on `inode`: the heap drains, a deadlock.
        eng.spawn(
            c0,
            Box::new(Scripted::new(vec![
                Effect::Acquire(inode, LockMode::Exclusive),
                Effect::Wait(q),
            ])),
            0,
        );
        let waiter = eng.spawn(
            c1,
            Box::new(Scripted::new(vec![
                Effect::Sleep(100),
                Effect::Acquire(inode, LockMode::Exclusive),
            ])),
            0,
        );
        let err = eng.run().unwrap_err();
        let SimError::Stalled { trace_tail, .. } = &err;
        let n = trace_tail.as_ref().expect("tracing was on").total_events();
        assert!(n > 0 && n <= STALL_EVENTS, "{n} events");
        let text = err.to_string();
        assert!(text.contains("blocked on inode"), "{text}");
        let contend = text
            .lines()
            .rfind(|l| l.contains("lock_contend"))
            .unwrap_or_else(|| panic!("no lock_contend line in:\n{text}"));
        assert!(
            contend.contains(&format!("pid {} ", waiter.0))
                && contend.contains(r#"label="inode" lock=1"#),
            "{contend}"
        );
    }

    #[test]
    fn event_budget_converts_livelock_into_structured_error() {
        // A user process that never finishes: sleeps forever in a loop.
        struct Spinner;
        impl Process<()> for Spinner {
            fn resume(&mut self, _ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
                Effect::Sleep(1_000)
            }
            fn label(&self) -> &'static str {
                "spinner"
            }
        }
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        eng.spawn(c, Box::new(Spinner), 0);
        eng.set_event_budget(100);
        let err = eng.run().unwrap_err();
        match err {
            SimError::Stalled {
                events,
                livelock,
                blocked,
                ..
            } => {
                assert!(livelock, "watchdog fires as a livelock");
                assert_eq!(events, 100);
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].1, "spinner");
            }
        }
    }

    #[test]
    fn untraced_livelock_names_its_pending_wakes_in_key_order() {
        // Two never-ending sleepers: pid 0 loops on 1 µs naps, pid 1
        // naps for a millisecond, so the budget runs out with pid 0's
        // next wake at the front of the queue and pid 1's behind it.
        struct Napper(Ns);
        impl Process<()> for Napper {
            fn resume(&mut self, _ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
                Effect::Sleep(self.0)
            }
        }
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        eng.spawn(c, Box::new(Napper(1_000)), 0);
        eng.spawn(c, Box::new(Napper(1_000_000)), 0);
        eng.set_event_budget(10);
        let err = eng.run().unwrap_err();
        let SimError::Stalled {
            pending,
            trace_tail,
            ..
        } = &err;
        assert_eq!(trace_tail, &None, "tracing was off");
        assert_eq!(
            pending,
            &vec![
                (9_000, "timer wake of pid 0".to_string()),
                (1_000_000, "timer wake of pid 1".to_string()),
            ]
        );
        let text = err.to_string();
        let blocked = text.find("blocked on").expect("blocked list");
        let queued = text
            .find("earliest 2 queued events:\n  t=9000ns timer wake of pid 0\n")
            .unwrap_or_else(|| panic!("no pending wakes in:\n{text}"));
        assert!(blocked < queued, "pending events follow the blocked list");
    }

    #[test]
    fn event_budget_does_not_trip_healthy_runs() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        eng.spawn(
            c,
            Box::new(Scripted::new(vec![Effect::Delay(100), Effect::Delay(50)])),
            0,
        );
        eng.set_event_budget(1_000);
        let res = eng.run().unwrap();
        assert_eq!(res.clock, 150);
    }

    #[test]
    fn budget_exhausted_run_can_resume_with_larger_budget() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        eng.spawn(
            c,
            Box::new(Scripted::new(vec![
                Effect::Delay(10),
                Effect::Delay(10),
                Effect::Delay(10),
                Effect::Delay(10),
            ])),
            0,
        );
        eng.set_event_budget(2);
        let err = eng.run().unwrap_err();
        assert!(matches!(err, SimError::Stalled { livelock: true, .. }));
        eng.set_event_budget(0);
        let res = eng.run().unwrap();
        assert_eq!(res.clock, 40, "parked event resumes cleanly");
    }

    #[test]
    fn fault_plan_is_reachable_through_ctx() {
        use crate::fault::{FaultKind, FaultSchedule, InjectedFault};
        const SITE: FaultSite = FaultSite {
            id: 0,
            kind: FaultKind::AllocFail,
            name: "mm.alloc_pages",
        };

        struct Failer {
            outcomes: std::rc::Rc<std::cell::RefCell<Vec<bool>>>,
        }
        impl Process<()> for Failer {
            fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
                for _ in 0..3 {
                    let fail = ctx.should_fail(SITE);
                    self.outcomes.borrow_mut().push(fail);
                }
                let (_world, faults) = ctx.world_and_faults();
                assert_eq!(faults.hits(SITE), 3);
                Effect::Done
            }
        }
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        eng.set_fault_plan(FaultPlan::new(9).site(SITE, FaultSchedule::Nth(2)));
        let outcomes = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        eng.spawn(
            c,
            Box::new(Failer {
                outcomes: outcomes.clone(),
            }),
            0,
        );
        eng.run().unwrap();
        assert_eq!(*outcomes.borrow(), vec![false, true, false]);
        assert_eq!(
            eng.fault_state().injected(),
            &[InjectedFault { site: SITE, hit: 2 }]
        );
    }

    #[test]
    fn rcu_sync_scales_with_domain_size() {
        let mut eng = Engine::new(
            (),
            EngineParams {
                rcu_jitter: 0,
                ..EngineParams::default()
            },
            1,
        );
        let c = eng.add_core(CoreConfig::default());
        let small = eng.add_rcu_domain(1);
        let large = eng.add_rcu_domain(64);
        let p_small = std::rc::Rc::new(std::cell::Cell::new(0));
        let p_large = std::rc::Rc::new(std::cell::Cell::new(0));
        eng.spawn(
            c,
            Box::new(
                Scripted::new(vec![Effect::RcuSync(small)]).with_finish_probe(p_small.clone()),
            ),
            0,
        );
        eng.spawn(
            c,
            Box::new(
                Scripted::new(vec![Effect::RcuSync(large)]).with_finish_probe(p_large.clone()),
            ),
            0,
        );
        eng.run().unwrap();
        assert!(p_large.get() > p_small.get());
        let params = EngineParams::default();
        assert_eq!(p_small.get(), params.rcu_base + params.rcu_per_core);
        assert_eq!(p_large.get(), params.rcu_base + 64 * params.rcu_per_core);
    }

    #[test]
    fn io_requests_queue_on_device() {
        let mut eng = engine();
        let c0 = eng.add_core(CoreConfig::default());
        let c1 = eng.add_core(CoreConfig::default());
        let dev = eng.add_device(DeviceModel {
            base: 1000,
            fs_per_byte: 0,
            jitter: 0,
            channels: 1,
        });
        let p1 = std::rc::Rc::new(std::cell::Cell::new(0));
        let p2 = std::rc::Rc::new(std::cell::Cell::new(0));
        eng.spawn(
            c0,
            Box::new(
                Scripted::new(vec![Effect::Io { dev, bytes: 0 }]).with_finish_probe(p1.clone()),
            ),
            0,
        );
        eng.spawn(
            c1,
            Box::new(
                Scripted::new(vec![Effect::Io { dev, bytes: 0 }]).with_finish_probe(p2.clone()),
            ),
            0,
        );
        eng.run().unwrap();
        assert_eq!(p1.get(), 1000);
        assert_eq!(p2.get(), 2000);
    }

    #[test]
    fn records_are_collected_in_order() {
        struct Recorder;
        impl Process<()> for Recorder {
            fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
                ctx.record(7, 111);
                ctx.record(8, 222);
                Effect::Done
            }
        }
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        eng.spawn(c, Box::new(Recorder), 5);
        let res = eng.run().unwrap();
        assert_eq!(res.records.len(), 2);
        assert_eq!(res.records[0].key, 7);
        assert_eq!(res.records[0].value, 111);
        assert_eq!(res.records[0].t, 5);
        assert_eq!(res.records[1].key, 8);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        fn run_once(seed: u64) -> Ns {
            let mut eng = Engine::new((), EngineParams::default(), seed);
            let c = eng.add_core(CoreConfig::default());
            let dev = eng.add_device(DeviceModel::nvme_ssd());
            let mut script = Vec::new();
            for _ in 0..20 {
                script.push(Effect::Io { dev, bytes: 4096 });
                script.push(Effect::Delay(500));
            }
            eng.spawn(c, Box::new(Scripted::new(script)), 0);
            eng.run().unwrap().clock
        }
        assert_eq!(run_once(7), run_once(7));
        assert_ne!(
            run_once(7),
            run_once(8),
            "different seeds draw different jitter"
        );
    }

    #[test]
    fn daemon_does_not_keep_engine_alive() {
        struct Daemon;
        impl Process<()> for Daemon {
            fn resume(&mut self, _ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
                Effect::Sleep(1000)
            }
            fn is_daemon(&self) -> bool {
                true
            }
        }
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        eng.spawn(c, Box::new(Daemon), 0);
        eng.spawn(c, Box::new(Scripted::new(vec![Effect::Delay(10_000)])), 0);
        let res = eng.run().unwrap();
        // Engine stops when the user process finishes, not at the daemon's
        // endless sleeps.
        assert!(
            res.clock >= 10_000 && res.clock < 20_000,
            "clock={}",
            res.clock
        );
    }

    #[test]
    fn lock_wait_durations_are_accounted() {
        let params = EngineParams::default();
        let mut eng = engine();
        let c0 = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let c1 = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let l = eng.add_lock(LockKind::Spin, "test");
        eng.spawn(
            c0,
            Box::new(
                Scripted::new(vec![
                    Effect::Acquire(l, LockMode::Exclusive),
                    Effect::Delay(1000),
                ])
                .with_release(2, l),
            ),
            0,
        );
        let waiter = eng.spawn(
            c1,
            Box::new(
                Scripted::new(vec![
                    Effect::Acquire(l, LockMode::Exclusive),
                    Effect::Delay(10),
                ])
                .with_release(2, l),
            ),
            10,
        );
        eng.run().unwrap();
        // Waiter enqueued at t=10, granted wake at t=1000+handoff.
        let expected = 1000 + params.spin_handoff - 10;
        let (label, _, contended, total, max) = eng.all_lock_wait_stats().nth(l.index()).unwrap();
        assert_eq!(label, "test");
        assert_eq!(contended, 1);
        assert_eq!(total, expected);
        assert_eq!(max, expected);
        assert_eq!(eng.lat_breakdown(waiter).get(LatComp::LockWait), expected);
        assert_eq!(eng.proc_lock_waits(waiter), &[("test", expected)]);
    }

    #[test]
    fn breakdown_components_tile_elapsed_time() {
        // Two processes on one core: P2's breakdown must decompose its
        // entire lifetime (runq wait behind P1 + own work + sleep).
        let mut eng = engine();
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let p1 = eng.spawn(c, Box::new(Scripted::new(vec![Effect::Delay(100)])), 0);
        let probe = std::rc::Rc::new(std::cell::Cell::new(0));
        let p2 = eng.spawn(
            c,
            Box::new(
                Scripted::new(vec![Effect::Delay(50), Effect::Sleep(30)])
                    .with_finish_probe(probe.clone()),
            ),
            0,
        );
        eng.run().unwrap();
        assert_eq!(probe.get(), 180);
        let b1 = eng.lat_breakdown(p1);
        assert_eq!(b1.get(LatComp::OnCpu), 100);
        assert_eq!(b1.total(), 100);
        let b2 = eng.lat_breakdown(p2);
        assert_eq!(b2.get(LatComp::RunqWait), 100, "queued behind p1");
        assert_eq!(b2.get(LatComp::OnCpu), 50);
        assert_eq!(b2.get(LatComp::Sleep), 30);
        assert_eq!(b2.total(), 180, "components sum to lifetime");
    }

    #[test]
    fn tracing_records_events_without_changing_results() {
        fn run_once(trace: bool) -> (Ns, usize, u64) {
            let mut eng = Engine::new((), EngineParams::default(), 7);
            if trace {
                eng.set_trace(TraceConfig::enabled());
            }
            let c = eng.add_core(CoreConfig::default());
            let dev = eng.add_device(DeviceModel::nvme_ssd());
            let mut script = Vec::new();
            for _ in 0..10 {
                script.push(Effect::Io { dev, bytes: 4096 });
                script.push(Effect::Delay(500));
            }
            eng.spawn(c, Box::new(Scripted::new(script)), 0);
            let clock = eng.run().unwrap().clock;
            let log = eng.take_trace();
            (clock, log.total_events(), log.total_dropped())
        }
        let (t_off, ev_off, _) = run_once(false);
        let (t_on, ev_on, dropped) = run_once(true);
        assert_eq!(t_off, t_on, "tracing must not perturb the simulation");
        assert_eq!(ev_off, 0, "disabled tracing records nothing");
        assert!(ev_on > 0, "enabled tracing records events");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn trace_ring_overflow_keeps_newest() {
        let mut eng = engine();
        eng.set_trace(TraceConfig::with_capacity(8));
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        let script = vec![Effect::Delay(10); 100];
        eng.spawn(c, Box::new(Scripted::new(script)), 0);
        eng.run().unwrap();
        let log = eng.take_trace();
        assert_eq!(log.rings[0].len(), 8);
        assert!(log.total_dropped() > 0);
        let last = log.merged().last().unwrap().t;
        assert_eq!(last, 1000, "newest events survive overflow");
    }

    /// Computes `step` ns at a time, `steps` times, recording the clock
    /// at every resume, so the records show when each compute slice
    /// ended behind the interrupt time stolen from its core.
    struct Busy {
        step: Ns,
        steps: u32,
        daemon: bool,
    }

    impl Process<()> for Busy {
        fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
            ctx.record(self.step, ctx.now());
            if self.steps == 0 {
                return Effect::Done;
            }
            self.steps -= 1;
            Effect::Delay(self.step)
        }
        fn is_daemon(&self) -> bool {
            self.daemon
        }
    }

    fn engine_with_telemetry(on: bool) -> Engine<()> {
        let mut eng = engine();
        if on {
            eng.set_telemetry(ksa_telemetry::TelemetryConfig::enabled());
        }
        eng
    }

    fn tickless_cores(eng: &mut Engine<()>, n: usize) -> Vec<CoreId> {
        (0..n)
            .map(|_| {
                eng.add_core(CoreConfig {
                    tick_period: 0,
                    tick_cost: 0,
                })
            })
            .collect()
    }

    /// Everything a run simulates: its clock, events and records (or
    /// its stall), and when the probed process finished.
    type Outcome = (Result<(Ns, u64, Vec<Record>), SimError>, Ns);

    fn outcome(
        res: Result<SimResult, SimError>,
        probe: &std::rc::Rc<std::cell::Cell<Ns>>,
    ) -> Outcome {
        (res.map(|r| (r.clock, r.events, r.records)), probe.get())
    }

    /// Runs `scenario` with telemetry off, where a user's IPI acks
    /// coalesce into one event, and on, where every ack is its own
    /// event, and asserts both simulate the same thing.
    fn coalescing_is_neutral(scenario: impl Fn(bool) -> Outcome) -> Outcome {
        let off = scenario(false);
        let on = scenario(true);
        assert_eq!(off, on, "telemetry off (coalesced) vs on (per-ack)");
        off
    }

    #[test]
    fn coalesced_broadcast_with_a_deferred_target_matches_per_ack() {
        let params = EngineParams::default();
        let (res, finish) = coalescing_is_neutral(|telem| {
            let mut eng = engine_with_telemetry(telem);
            let cores = tickless_cores(&mut eng, 8);
            let l = eng.add_lock(LockKind::Spin, "irqsection");
            // Core 3 is in a spin section until t=5000: its ack is
            // deferred and keyed at the flush.
            eng.spawn(
                cores[3],
                Box::new(
                    Scripted::new(vec![
                        Effect::Acquire(l, LockMode::Exclusive),
                        Effect::Delay(5000),
                    ])
                    .with_release(2, l),
                ),
                0,
            );
            // Busy targets spread the ack times and interleave their
            // own wakes with the acks.
            for (i, &c) in cores[1..].iter().enumerate() {
                let step = 300 * (i as Ns + 1);
                eng.spawn(
                    c,
                    Box::new(Busy {
                        step,
                        steps: 20,
                        daemon: false,
                    }),
                    0,
                );
            }
            let probe = std::rc::Rc::new(std::cell::Cell::new(0));
            eng.spawn(
                cores[0],
                Box::new(
                    Scripted::new(vec![
                        Effect::Delay(50),
                        Effect::Ipi {
                            targets: cores[1..].to_vec(),
                            handler_ns: 200,
                        },
                        Effect::Delay(10),
                    ])
                    .with_finish_probe(probe.clone()),
                ),
                0,
            );
            outcome(eng.run(), &probe)
        });
        assert!(res.is_ok(), "{res:?}");
        assert!(
            finish >= 5000 + 200 + params.ipi_latency + 10,
            "sender finished at {finish}, before the deferred ack"
        );
    }

    #[test]
    fn coalesced_event_keeps_its_last_acks_place_among_same_time_wakes() {
        let (res, finish) = coalescing_is_neutral(|telem| {
            let mut eng = engine_with_telemetry(telem);
            let cores = tickless_cores(&mut eng, 3);
            let l = eng.add_lock(LockKind::Spin, "irqsection");
            // Core 1 computes until t=3300, so its ack lands at 5000 with
            // a seq taken at the broadcast (t=0).
            eng.spawn(
                cores[1],
                Box::new(Busy {
                    step: 3300,
                    steps: 1,
                    daemon: false,
                }),
                0,
            );
            // Core 2's ack is deferred to the flush at t=1000 and lands
            // earlier, at 2700: the largest key is the older one.
            eng.spawn(
                cores[2],
                Box::new(
                    Scripted::new(vec![
                        Effect::Acquire(l, LockMode::Exclusive),
                        Effect::Delay(1000),
                    ])
                    .with_release(2, l),
                ),
                0,
            );
            let probe = std::rc::Rc::new(std::cell::Cell::new(0));
            eng.spawn(
                cores[0],
                Box::new(
                    Scripted::new(vec![
                        Effect::Ipi {
                            targets: cores[1..].to_vec(),
                            handler_ns: 200,
                        },
                        Effect::Delay(100),
                    ])
                    .with_finish_probe(probe.clone()),
                ),
                0,
            );
            // A wake at t=5000 scheduled at t=500, between the two keys'
            // seqs: the ack pops first, so the sender gets core 0 first.
            eng.spawn(
                cores[0],
                Box::new(Busy {
                    step: 4500,
                    steps: 2,
                    daemon: false,
                }),
                500,
            );
            outcome(eng.run(), &probe)
        });
        assert_eq!(finish, 5100, "the sender ran before the same-time wake");
        assert_eq!(res.unwrap().0, 9600);
    }

    #[test]
    fn daemon_broadcast_in_flight_at_run_end_counts_its_popped_acks() {
        let (res, finish) = coalescing_is_neutral(|telem| {
            let mut eng = engine_with_telemetry(telem);
            let cores = tickless_cores(&mut eng, 5);
            // Cores 1 and 2 compute past the run's end, so their acks
            // are still queued when the last user exits.
            for &c in &cores[1..3] {
                eng.spawn(
                    c,
                    Box::new(Busy {
                        step: 50_000,
                        steps: 10,
                        daemon: true,
                    }),
                    0,
                );
            }
            eng.spawn(
                cores[0],
                Box::new(
                    Scripted::new(vec![Effect::Ipi {
                        targets: cores[1..4].to_vec(),
                        handler_ns: 200,
                    }])
                    .daemonized(),
                ),
                0,
            );
            let probe = std::rc::Rc::new(std::cell::Cell::new(0));
            eng.spawn(
                cores[4],
                Box::new(
                    Scripted::new(vec![Effect::Delay(10_000)]).with_finish_probe(probe.clone()),
                ),
                0,
            );
            outcome(eng.run(), &probe)
        });
        // Four start wakes, core 3's ack at t=1700 and the user's wake
        // at t=10000; the two acks behind the busy cores never pop.
        let (clock, events, _) = res.unwrap();
        assert_eq!((clock, events, finish), (10_000, 6, 10_000));
    }

    #[test]
    fn event_budget_mid_broadcast_stalls_at_the_budget_either_way() {
        let (res, finish) = coalescing_is_neutral(|telem| {
            let mut eng = engine_with_telemetry(telem);
            let cores = tickless_cores(&mut eng, 8);
            let probe = std::rc::Rc::new(std::cell::Cell::new(0));
            eng.spawn(
                cores[0],
                Box::new(
                    Scripted::new(vec![
                        Effect::Ipi {
                            targets: cores[1..].to_vec(),
                            handler_ns: 200,
                        },
                        Effect::Delay(10),
                    ])
                    .with_finish_probe(probe.clone()),
                ),
                0,
            );
            // The start wake and three of the seven acks fit the budget.
            eng.set_event_budget(4);
            let stalled = eng.run().unwrap_err();
            let SimError::Stalled {
                clock,
                events,
                livelock,
                ..
            } = &stalled;
            assert_eq!((*clock, *events, *livelock), (1700, 4, true), "{stalled}");
            // The re-parked acks resume ahead of everything else.
            eng.set_event_budget(0);
            outcome(eng.run(), &probe)
        });
        let (clock, events, _) = res.unwrap();
        assert_eq!((clock, events, finish), (1710, 5, 1710));
    }

    #[test]
    fn user_broadcast_is_one_queue_event_without_telemetry() {
        // Queue depth right after a 7-target broadcast, next to a user
        // whose compute keeps the run alive (one more queued wake).
        let depth = |telem: bool, daemon: bool| {
            let mut eng = engine_with_telemetry(telem);
            let cores = tickless_cores(&mut eng, 9);
            eng.spawn(
                cores[8],
                Box::new(Scripted::new(vec![Effect::Delay(100_000)])),
                0,
            );
            let sender = Scripted::new(vec![Effect::Ipi {
                targets: cores[1..8].to_vec(),
                handler_ns: 200,
            }]);
            let sender = if daemon { sender.daemonized() } else { sender };
            eng.spawn(cores[0], Box::new(sender), 0);
            eng.set_event_budget(2);
            assert!(matches!(
                eng.run(),
                Err(SimError::Stalled { events: 2, .. })
            ));
            eng.st.events.len()
        };
        assert_eq!(depth(false, false), 2, "coalesced: one event for 7 acks");
        assert_eq!(depth(true, false), 8, "telemetry on: one event per ack");
        assert_eq!(depth(false, true), 8, "daemon sender: one event per ack");
    }

    #[test]
    fn train_member_cannot_continue_ahead_of_its_peers() {
        let mut eng = engine();
        let cores = tickless_cores(&mut eng, 2);
        let b = eng.add_barrier(2);
        // Pid 0 reaches the barrier first, so it leads the release
        // train; its delay must not run ahead of pid 1, whose wake is
        // in the train and so not yet back in the queue.
        eng.spawn(
            cores[0],
            Box::new(Scripted::new(vec![Effect::Barrier(b), Effect::Delay(10)]).with_record(2, 0)),
            0,
        );
        eng.spawn(
            cores[1],
            Box::new(Scripted::new(vec![Effect::Barrier(b)]).with_record(1, 1)),
            0,
        );
        let res = eng.run().unwrap();
        let release = EngineParams::default().barrier_release;
        let got: Vec<(Pid, Ns)> = res.records.iter().map(|r| (r.pid, r.t)).collect();
        assert_eq!(got, vec![(Pid(1), release), (Pid(0), release + 10)]);
        assert_eq!((res.clock, res.events), (release + 10, 5));
    }

    #[test]
    fn budget_spent_inside_a_continued_chain_stalls_at_the_pushed_count() {
        // Alone on an empty queue, every one of these wakes would
        // continue in place. One push per wake counts the start wake
        // and the wakes at 10 and 20 against a budget of 3, so the run
        // stops before the wake at 30 with that wake queued.
        let mut eng = engine();
        let c = tickless_cores(&mut eng, 1)[0];
        let probe = std::rc::Rc::new(std::cell::Cell::new(0));
        eng.spawn(
            c,
            Box::new(
                Scripted::new(vec![Effect::Delay(10); 5])
                    .with_record(3, 0)
                    .with_finish_probe(probe.clone()),
            ),
            0,
        );
        eng.set_event_budget(3);
        let stalled = eng.run().unwrap_err();
        let SimError::Stalled {
            clock,
            events,
            livelock,
            ..
        } = &stalled;
        assert_eq!((*clock, *events, *livelock), (20, 3, true), "{stalled}");
        assert_eq!(eng.st.events.len(), 1, "the wake at 30 is parked");
        eng.set_event_budget(0);
        let res = eng.run().unwrap();
        assert_eq!((res.clock, res.events, probe.get()), (50, 3, 50));
        assert_eq!(res.records.len(), 1);
        assert_eq!(res.records[0].t, 30);
    }
}
