//! The event engine: virtual clock, event queue and effect dispatch.
//!
//! The scheduling core is built for raw single-trial speed (see
//! DESIGN.md, "engine hot path"): events live in an index-addressed
//! slab queue ([`EventQueue`]) instead of a `BinaryHeap` of boxed
//! records, IPI bookkeeping is a dense slab keyed by token index, and
//! same-time wake trains (lock grants, barrier releases, queue
//! signals) coalesce into a single queue operation. All of it is
//! bit-identical to the naive one-event-per-wake formulation because
//! `(t, seq)` is a total order — see the determinism notes on
//! [`EventQueue`].

use ksa_telemetry::{MetricId, Registry, TelemetryConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::cpu::{CoreConfig, CoreId, CoreState, OccClass};
use crate::equeue::EventQueue;
use crate::fault::{FaultKind, FaultPlan, FaultState};
use crate::iodev::{DevId, DeviceModel, DeviceState};
use crate::lock::{LockId, LockKind, LockMode, LockState, WAIT_HIST_BUCKETS};
use crate::process::{Effect, Pid, Process, WakeReason};
use crate::time::{Ns, US};
use crate::trace::{
    FaultInjectedArgs, IoSubmitArgs, LabelId, LatBreakdown, LatComp, LatSnapshot, ProcKind,
    TimerTicksArgs, TraceConfig, TraceEvent, TraceEventKind, TraceLog, TraceRing,
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
        /// Events processed by the failed `run_until` call.
        events: u64,
        /// True when the event budget was exhausted (livelock watchdog);
        /// false when the heap drained with live processes (deadlock).
        livelock: bool,
        /// `(pid, label, blocked_on)` for every live, blocked process.
        blocked: Vec<(Pid, String, String)>,
        /// The last 16 trace events in merged order, with the run's
        /// label tables (`None` when tracing is off).
        trace_tail: Option<Box<TraceLog>>,
    },
}

/// Trace events a [`SimError::Stalled`] carries when tracing is on.
const STALL_TRACE_EVENTS: usize = 16;

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled {
                clock,
                events,
                livelock,
                blocked,
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
                if let Some(tail) = trace_tail {
                    writeln!(f, "last {} trace events:", tail.total_events())?;
                    for ev in tail.merged() {
                        writeln!(f, "  {}", tail.line(ev))?;
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
    /// Events processed by this `run`/`run_until` call — the engine's
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
    /// IPI acknowledgement; the token indexes `EngineState::ipis`.
    IpiAck(u32),
}

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
#[derive(Debug, Clone, Copy)]
struct IpiPending {
    sender: Pid,
    remaining: u32,
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
    records: Vec<Record>,
    params: EngineParams,
    rng: StdRng,
    faults: FaultState,
    event_budget: u64,
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
    /// Events pushed onto the heap — the engine's allocation-rate
    /// proxy, since each event is a heap slot and the heap grows by
    /// doubling (`engine_events_scheduled`).
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
        debug_assert!(t >= self.clock, "scheduling into the past");
        self.events.push(t, kind);
        if self.telem_on() {
            self.telem.add(self.em.scheduled, 1);
        }
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
                self.events.push(t, EventKind::WakeBatch(b));
                if self.telem_on() {
                    self.telem.add(self.em.scheduled, n as u64);
                }
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
            assert!(cs.irq_depth > 0, "spin unlock without irq section");
            cs.irq_depth -= 1;
            if cs.irq_depth == 0 && !cs.deferred_acks.is_empty() {
                let acks = std::mem::take(&mut cs.deferred_acks);
                let now = self.clock;
                for (token, handler_ns) in acks {
                    let done = self.cores[core.index()].steal(now, handler_ns);
                    let t = done + self.params.ipi_latency;
                    self.schedule(t, EventKind::IpiAck(token));
                }
            }
        }
        let mut granted = std::mem::take(&mut self.grant_buf);
        self.locks[lock.index()].release_into(pid, &mut granted);
        self.grant(lock, &granted);
        granted.clear();
        self.grant_buf = granted;
    }

    /// Allocates an IPI slab slot; the returned token rides in
    /// `EventKind::IpiAck` events.
    fn alloc_ipi(&mut self, sender: Pid, remaining: u32) -> u32 {
        let pending = IpiPending { sender, remaining };
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

    /// The engine's fault-injection state.
    pub fn faults(&mut self) -> &mut FaultState {
        &mut self.st.faults
    }

    /// Registers a hit of `(kind, site)` and asks the fault plan whether
    /// this hit should fail. Convenience over [`SimCtx::faults`].
    pub fn should_fail(&mut self, kind: FaultKind, site: &str) -> bool {
        let fail = self.st.faults.should_fail(kind, site);
        if fail && self.st.trace_on() {
            let pid = self.pid;
            let site = site.to_string();
            let args = Box::new(FaultInjectedArgs { kind, site });
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
    /// components and per-label lock waits. Two snapshots bracketing a
    /// stretch of work decompose exactly the virtual time elapsed
    /// between them ([`LatBreakdown::since`]).
    pub fn lat_snapshot(&self) -> LatSnapshot {
        LatSnapshot {
            comps: self.st.lat[self.pid.index()],
            lock_waits: self.st.lock_waits[self.pid.index()].clone(),
        }
    }

    /// [`SimCtx::lat_snapshot`] into a caller-owned snapshot, reusing
    /// its `lock_waits` allocation. Syscall-bracketing callers take two
    /// snapshots per call, so the reuse removes two Vec clones from
    /// every simulated syscall.
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
                records: Vec::new(),
                params,
                rng: StdRng::seed_from_u64(seed),
                faults: FaultState::default(),
                event_budget: 0,
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
    pub fn add_barrier(&mut self, size: u32) -> BarrierId {
        assert!(size > 0, "barrier size must be positive");
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
        assert!(core.index() < self.st.cores.len(), "unknown core");
        let pid = Pid(self.procs.len() as u32);
        let daemon = proc.is_daemon();
        let kind = proc.kind();
        self.procs.push(Some(proc));
        self.st.proc_done.push(false);
        self.st.proc_blocked_on.push("start");
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

    /// `(acquisitions, contended)` counters for a lock.
    pub fn lock_stats(&self, lock: LockId) -> (u64, u64) {
        let l = &self.st.locks[lock.index()];
        (l.acquisitions, l.contended)
    }

    /// `(total_wait_ns, max_wait_ns)` for a lock (contended waits only).
    pub fn lock_wait_stats(&self, lock: LockId) -> (Ns, Ns) {
        let l = &self.st.locks[lock.index()];
        (l.total_wait_ns, l.max_wait_ns)
    }

    /// Iterates `(label, acquisitions, contended, total_wait_ns,
    /// max_wait_ns, wait_hist)` over every registered lock — the lockstat
    /// analogue's raw material (durations, not just rates).
    #[allow(clippy::type_complexity)]
    pub fn all_lock_wait_stats(
        &self,
    ) -> impl Iterator<Item = (&'static str, u64, u64, Ns, Ns, &[u64; WAIT_HIST_BUCKETS])> + '_
    {
        self.st.locks.iter().map(|l| {
            (
                l.label,
                l.acquisitions,
                l.contended,
                l.total_wait_ns,
                l.max_wait_ns,
                &l.wait_hist,
            )
        })
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

    /// The engine's self-profiling metrics recorded so far.
    pub fn telemetry(&self) -> &Registry {
        &self.st.telem
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

    /// Arms the livelock watchdog: a single `run`/`run_until` call may
    /// process at most `budget` events before failing with a structured
    /// [`SimError::Stalled`] (`livelock == true`). `0` disables the
    /// watchdog (the default).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.st.event_budget = budget;
    }

    /// Runs to completion: until every non-daemon process is done.
    pub fn run(&mut self) -> Result<SimResult, SimError> {
        self.run_until(Ns::MAX)
    }

    /// Runs until every non-daemon process is done or the clock passes
    /// `deadline`, whichever comes first.
    pub fn run_until(&mut self, deadline: Ns) -> Result<SimResult, SimError> {
        let mut processed: u64 = 0;
        let budget = self.st.event_budget;
        while self.st.live_users > 0 {
            let Some((t, seq, kind)) = self.st.events.pop() else {
                return Err(self.stall_error(processed, false));
            };
            if t > deadline {
                // Park it back at its original key so a later
                // run_until can continue exactly where this one stopped.
                self.st.events.push_keyed(t, seq, kind);
                break;
            }
            match kind {
                EventKind::Wake(pid, reason) => {
                    if budget != 0 && processed >= budget {
                        // Watchdog: the run keeps generating events
                        // without the user processes finishing. Park the
                        // event for a possible resume and report a
                        // structured livelock instead of spinning forever.
                        self.st.events.push_keyed(t, seq, kind);
                        return Err(self.stall_error(processed, true));
                    }
                    processed += 1;
                    self.st.clock = t;
                    self.dispatch_telem();
                    self.run_process(pid, reason);
                }
                EventKind::WakeBatch(b) => {
                    // Each sub-wake counts as one dispatched/processed
                    // event, with the budget checked before each one —
                    // exactly as if the train were N separate events.
                    let mut train = std::mem::take(&mut self.st.batches[b as usize]);
                    for i in 0..train.len() {
                        if budget != 0 && processed >= budget {
                            // Re-park the undispatched tail of the train
                            // at the original key; its wakes stay ahead
                            // of any later same-time arrivals.
                            train.drain(..i);
                            self.st.batches[b as usize] = train;
                            self.st.events.push_keyed(t, seq, EventKind::WakeBatch(b));
                            return Err(self.stall_error(processed, true));
                        }
                        processed += 1;
                        self.st.clock = t;
                        self.dispatch_telem();
                        let (pid, reason) = train[i];
                        self.run_process(pid, reason);
                    }
                    train.clear();
                    self.st.batches[b as usize] = train;
                    self.st.batch_free.push(b);
                }
                EventKind::IpiAck(token) => {
                    if budget != 0 && processed >= budget {
                        self.st.events.push_keyed(t, seq, kind);
                        return Err(self.stall_error(processed, true));
                    }
                    processed += 1;
                    self.st.clock = t;
                    self.dispatch_telem();
                    let p = &mut self.st.ipis[token as usize];
                    p.remaining -= 1;
                    if p.remaining == 0 {
                        let sender = p.sender;
                        self.st.ipi_free.push(token);
                        self.run_process(sender, WakeReason::IpiDone);
                    }
                }
            }
        }
        Ok(SimResult {
            clock: self.st.clock,
            records: std::mem::take(&mut self.st.records),
            events: processed,
        })
    }

    /// Per-dispatch telemetry: counters, queue-depth gauges and the
    /// time-series sampler. Inert (one branch) without telemetry.
    #[inline]
    fn dispatch_telem(&mut self) {
        if self.st.telem_on() {
            let em = self.st.em;
            let depth = self.st.events.len() as u64;
            self.st.telem.add(em.dispatched, 1);
            self.st.telem.set(em.queue_depth, depth);
            self.st.telem.set_max(em.queue_peak, depth);
            self.st.telem.sample_tick(self.st.clock);
        }
    }

    fn stall_error(&self, events: u64, livelock: bool) -> SimError {
        let blocked = self
            .procs
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.st.proc_done[i])
            .map(|(i, s)| {
                let label = s
                    .as_ref()
                    .map(|p| p.label().to_string())
                    .unwrap_or_default();
                (Pid(i as u32), label, self.st.proc_blocked_on[i].to_string())
            })
            .collect();
        let trace_tail = self.st.trace_on().then(|| {
            Box::new(TraceLog {
                lock_labels: self.lock_labels(),
                ..self.st.trace.tail(STALL_TRACE_EVENTS)
            })
        });
        SimError::Stalled {
            clock: self.st.clock,
            events,
            livelock,
            blocked,
            trace_tail,
        }
    }

    fn run_process(&mut self, pid: Pid, mut wake: WakeReason) {
        if self.st.proc_done[pid.index()] {
            return;
        }
        // Settle unknown-duration blocks now that the wake time is known.
        // (Timer, I/O and RCU waits were settled when the effect was
        // issued, because their end time was already known then.)
        let settle = match wake {
            WakeReason::LockGranted(_) => Some(LatComp::LockWait),
            WakeReason::IpiDone => Some(LatComp::IpiWait),
            WakeReason::BarrierReleased => Some(LatComp::BarrierWait),
            WakeReason::Signaled(_) => Some(LatComp::QueueWait),
            _ => None,
        };
        if let Some(comp) = settle {
            let dt = self.st.clock - self.st.blocked_since[pid.index()];
            self.st.lat[pid.index()].add(comp, dt);
        }
        if self.st.trace_on() {
            self.st
                .trace_push(pid, TraceEventKind::Wake { reason: wake });
        }
        if self.st.telem_on() {
            let id = self.st.em.wakes;
            self.st.telem.add(id, 1);
        }
        let mut proc = self.procs[pid.index()]
            .take()
            .expect("process resumed re-entrantly");
        let core = self.st.proc_core[pid.index()];
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
            match effect {
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
                            let args = Box::new(TimerTicksArgs {
                                n: ticks,
                                cost_ns: tick_cost,
                            });
                            st.trace_push(pid, TraceEventKind::TimerTicks(args));
                        }
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::OnCpu,
                            },
                        );
                    }
                    st.wake_at(end, pid, WakeReason::Timer);
                    st.proc_blocked_on[pid.index()] = "delay";
                    break;
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
                    st.wake_at(now + n, pid, WakeReason::Timer);
                    st.proc_blocked_on[pid.index()] = "sleep";
                    break;
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
                    let token = st.alloc_ipi(pid, targets.len() as u32);
                    for target in targets {
                        debug_assert_ne!(target, core, "IPI to own core");
                        let tc = &mut st.cores[target.index()];
                        if tc.irq_depth > 0 {
                            tc.deferred_acks.push((token, handler_ns));
                        } else {
                            let done = tc.steal(now, handler_ns);
                            let t = done + st.params.ipi_latency;
                            st.schedule(t, EventKind::IpiAck(token));
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
                        let args = Box::new(IoSubmitArgs {
                            bytes,
                            dur_ns: done - now,
                        });
                        st.trace_push(pid, TraceEventKind::IoSubmit(args));
                        st.trace_push(
                            pid,
                            TraceEventKind::Block {
                                comp: LatComp::IoWait,
                            },
                        );
                    }
                    st.wake_at(done, pid, WakeReason::IoDone);
                    st.proc_blocked_on[pid.index()] = "io";
                    break;
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
                    st.wake_at(now + gp + jitter, pid, WakeReason::RcuDone);
                    st.proc_blocked_on[pid.index()] = "rcu";
                    break;
                }
                Effect::Done => {
                    st.proc_done[pid.index()] = true;
                    if !st.proc_daemon[pid.index()] {
                        st.live_users -= 1;
                    }
                    break;
                }
            }
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
        finish_time: std::rc::Rc<std::cell::Cell<Ns>>,
    }

    impl Scripted {
        fn new(effects: Vec<Effect>) -> Self {
            Self {
                effects,
                at: 0,
                wakes: Vec::new(),
                releases: Vec::new(),
                finish_time: Default::default(),
            }
        }

        fn with_release(mut self, before: usize, lock: LockId) -> Self {
            self.releases.push((before, lock));
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
            if self.at >= self.effects.len() {
                self.finish_time.set(ctx.now());
                return Effect::Done;
            }
            let e = self.effects[self.at].clone();
            self.at += 1;
            e
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
        let (acq, cont) = eng.lock_stats(l);
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
                trace_tail,
                ..
            } => {
                assert!(!livelock, "drained heap is a deadlock, not a livelock");
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].2, "queue");
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
        assert!(n > 0 && n <= STALL_TRACE_EVENTS, "{n} events");
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
        use crate::fault::{FaultSchedule, InjectedFault};

        struct Failer {
            outcomes: std::rc::Rc<std::cell::RefCell<Vec<bool>>>,
        }
        impl Process<()> for Failer {
            fn resume(&mut self, ctx: &mut SimCtx<'_, ()>, _w: WakeReason) -> Effect {
                for _ in 0..3 {
                    let fail = ctx.should_fail(FaultKind::AllocFail, "mm.alloc_pages");
                    self.outcomes.borrow_mut().push(fail);
                }
                let (_world, faults) = ctx.world_and_faults();
                assert_eq!(faults.hits_at(FaultKind::AllocFail, "mm.alloc_pages"), 3);
                Effect::Done
            }
        }
        let mut eng = engine();
        let c = eng.add_core(CoreConfig::default());
        eng.set_fault_plan(FaultPlan::new(9).site(
            FaultKind::AllocFail,
            "mm.alloc_pages",
            FaultSchedule::Nth(2),
        ));
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
            &[InjectedFault {
                kind: FaultKind::AllocFail,
                site: "mm.alloc_pages".to_string(),
                hit: 2,
            }]
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
        let (total, max) = eng.lock_wait_stats(l);
        assert_eq!(total, expected);
        assert_eq!(max, expected);
        assert_eq!(eng.lat_breakdown(waiter).get(LatComp::LockWait), expected);
        assert_eq!(eng.proc_lock_waits(waiter), &[("test", expected)]);
        let (_, _, contended, total_w, _, hist) = eng.all_lock_wait_stats().next().unwrap();
        assert_eq!(contended, 1);
        assert_eq!(total_w, expected);
        assert_eq!(hist.iter().sum::<u64>(), 1, "one contended acquisition");
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

    #[test]
    fn run_until_stops_at_deadline_and_resumes() {
        let mut eng = engine();
        let c = eng.add_core(CoreConfig {
            tick_period: 0,
            tick_cost: 0,
        });
        eng.spawn(
            c,
            Box::new(Scripted::new(vec![
                Effect::Delay(1000),
                Effect::Delay(1000),
                Effect::Delay(1000),
            ])),
            0,
        );
        eng.run_until(1500).unwrap();
        assert!(eng.now() <= 1500);
        let res = eng.run().unwrap();
        assert_eq!(res.clock, 3000);
    }
}
