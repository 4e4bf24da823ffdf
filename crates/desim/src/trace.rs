//! Deterministic kernel tracing: per-core bounded event rings and
//! per-process latency-component accounting.
//!
//! This is the simulation's ftrace/lockstat/perf analogue. Two layers:
//!
//! * **Trace rings** ([`TraceRing`], one per core) hold typed
//!   [`TraceEvent`]s — scheduler wakeups/blocks, lock contention and
//!   grants *with wait durations*, RCU grace periods, IPI broadcasts,
//!   I/O submissions, timer-tick overhead, fault injections, and
//!   kernel-layer marks (syscall enter/exit, VM exits, softirq
//!   entry/exit). Rings are bounded: overflow drops the **oldest**
//!   event and bumps a drop counter, never panicking. Tracing is off by
//!   default ([`TraceConfig::disabled`]) and recording is purely
//!   observational — it draws nothing from the engine RNG and schedules
//!   no events, so enabling it cannot change any simulated timestamp
//!   (the zero-observer-effect property test pins this).
//! * **Latency accounting** ([`LatBreakdown`], always on) attributes
//!   every simulated nanosecond a process spends between two resume
//!   points to exactly one [`LatComp`] component: on-CPU work, timer
//!   ticks, run-queue wait split by who occupied the core (other user
//!   work, softirq polling, housekeeping daemons, stolen IPI-handler
//!   time), lock wait, I/O wait, IPI wait, RCU wait, sleeps, barriers
//!   and wait queues. Components tile the timeline with no gaps, so for
//!   any interval bracketed by resume points the component deltas sum
//!   **exactly** to the elapsed virtual time — the invariant the
//!   per-syscall attribution layer is built on.

use std::fmt;

use crate::cpu::CoreId;
use crate::fault::FaultKind;
use crate::lock::LockId;
use crate::process::{Pid, WakeReason};
use crate::time::Ns;

/// What kind of work a process contributes to a core's occupancy, and
/// therefore how *other* processes' queueing behind it is attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProcKind {
    /// Application / workload process (the default).
    #[default]
    User,
    /// Softirq-context work (the NAPI poller): interference the paper's
    /// networking rows attribute to the shared stack.
    Softirq,
    /// Housekeeping daemons (flusher, kswapd, load balancer, vmstat).
    Daemon,
}

/// Latency components. Every nanosecond a process spends blocked or
/// computing is attributed to exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum LatComp {
    /// Productive compute charged to the core (includes kernel CPU work
    /// and, until the kernel layer subtracts them, VM-exit delays).
    OnCpu = 0,
    /// Timer-interrupt overhead amortized over compute.
    TickIrq,
    /// Core-occupancy wait behind other user-class work.
    RunqWait,
    /// Core-occupancy wait behind softirq-class work (NAPI polling).
    SoftirqWait,
    /// Core-occupancy wait behind housekeeping daemons.
    DaemonWait,
    /// Core-occupancy wait behind stolen IPI-handler time.
    IrqWait,
    /// Blocked acquiring a lock (enqueue → grant, handoff included).
    LockWait,
    /// Blocked on device I/O (queueing + service + jitter).
    IoWait,
    /// Blocked broadcasting an IPI until all targets acknowledged.
    IpiWait,
    /// Blocked in an RCU grace period.
    RcuWait,
    /// Voluntary sleep (timers, think time).
    Sleep,
    /// Blocked at a barrier.
    BarrierWait,
    /// Blocked on a wait queue until signalled.
    QueueWait,
}

impl LatComp {
    /// Number of components.
    pub const COUNT: usize = 13;

    /// All components, in index order.
    pub const ALL: [LatComp; Self::COUNT] = [
        LatComp::OnCpu,
        LatComp::TickIrq,
        LatComp::RunqWait,
        LatComp::SoftirqWait,
        LatComp::DaemonWait,
        LatComp::IrqWait,
        LatComp::LockWait,
        LatComp::IoWait,
        LatComp::IpiWait,
        LatComp::RcuWait,
        LatComp::Sleep,
        LatComp::BarrierWait,
        LatComp::QueueWait,
    ];

    /// Short stable name (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            LatComp::OnCpu => "on_cpu",
            LatComp::TickIrq => "tick_irq",
            LatComp::RunqWait => "runq_wait",
            LatComp::SoftirqWait => "softirq_wait",
            LatComp::DaemonWait => "daemon_wait",
            LatComp::IrqWait => "irq_wait",
            LatComp::LockWait => "lock_wait",
            LatComp::IoWait => "io_wait",
            LatComp::IpiWait => "ipi_wait",
            LatComp::RcuWait => "rcu_wait",
            LatComp::Sleep => "sleep",
            LatComp::BarrierWait => "barrier_wait",
            LatComp::QueueWait => "queue_wait",
        }
    }
}

/// Per-process cumulative latency components, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatBreakdown {
    comps: [Ns; LatComp::COUNT],
}

impl LatBreakdown {
    /// Adds `ns` to one component.
    #[inline]
    pub fn add(&mut self, comp: LatComp, ns: Ns) {
        self.comps[comp as usize] += ns;
    }

    /// One component's cumulative value.
    #[inline]
    pub fn get(&self, comp: LatComp) -> Ns {
        self.comps[comp as usize]
    }

    /// Sum of all components.
    pub fn total(&self) -> Ns {
        self.comps.iter().sum()
    }

    /// Component-wise `self - earlier` (an interval's attribution from
    /// two snapshots). Panics in debug builds if `earlier` is not a
    /// prefix of `self`.
    pub fn since(&self, earlier: &LatBreakdown) -> LatBreakdown {
        let mut out = LatBreakdown::default();
        for i in 0..LatComp::COUNT {
            debug_assert!(self.comps[i] >= earlier.comps[i], "snapshot order");
            out.comps[i] = self.comps[i] - earlier.comps[i];
        }
        out
    }

    /// Iterates `(component, ns)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LatComp, Ns)> + '_ {
        LatComp::ALL
            .iter()
            .map(move |&c| (c, self.comps[c as usize]))
    }
}

/// A consistent snapshot of one process's latency accounting, taken at a
/// resume point (see [`crate::SimCtx::lat_snapshot`]).
///
/// The engine only ever appends to a process's label list, so an earlier
/// snapshot's `lock_waits` labels are a prefix of a later one's. The
/// delta methods rely on that and compare entries by position: `earlier`
/// must be a snapshot of the same process taken no later than `self`
/// (checked in debug builds), as [`LatBreakdown::since`] requires.
#[derive(Debug, Clone, Default)]
pub struct LatSnapshot {
    /// Cumulative component values.
    pub comps: LatBreakdown,
    /// Cumulative lock wait per lock label, in first-contended order.
    pub lock_waits: Vec<(&'static str, Ns)>,
}

impl LatSnapshot {
    /// Per-label lock wait accumulated between `earlier` and `self`.
    pub fn lock_waits_since(&self, earlier: &LatSnapshot) -> Vec<(&'static str, Ns)> {
        let mut out = Vec::new();
        self.for_each_lock_wait_since(earlier, |label, ns| out.push((label, ns)));
        out
    }

    /// Visits each positive per-label lock-wait delta between `earlier`
    /// and `self` without allocating (the once-per-simulated-syscall
    /// attribution path). Linear in the label count: entry `i` of
    /// `earlier` is entry `i` of `self` (see the type's docs).
    #[inline]
    pub fn for_each_lock_wait_since(
        &self,
        earlier: &LatSnapshot,
        mut f: impl FnMut(&'static str, Ns),
    ) {
        debug_assert!(
            earlier.lock_waits.len() <= self.lock_waits.len(),
            "snapshot order"
        );
        for (i, &(label, ns)) in self.lock_waits.iter().enumerate() {
            let before = match earlier.lock_waits.get(i) {
                Some(&(l, n)) => {
                    debug_assert_eq!(l, label, "lock-wait labels are append-only");
                    n
                }
                None => 0,
            };
            if ns - before > 0 {
                f(label, ns - before);
            }
        }
    }
}

/// A typed trace event. Times are absolute virtual nanoseconds.
///
/// 32 bytes: a 16-byte header and a 16-byte [`TraceEventKind`]. Labels
/// are not stored per event; lock labels and interned tags resolve
/// through the owning [`TraceLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub t: Ns,
    /// The process the event concerns.
    pub pid: Pid,
    /// The core the process is bound to (ring index).
    pub core: CoreId,
    /// What happened.
    pub kind: TraceEventKind,
}

// A full-scale sweep holds millions of events: a variant carrying an
// inline `&str` or `String` would grow every one of them.
const _: () = assert!(std::mem::size_of::<TraceEvent>() <= 32);

/// An interned trace label: an index into [`TraceLog::labels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

/// The event vocabulary — the simulation's tracepoint set. No variant
/// holds a string or a field wider than 8 bytes, and each fits in 16
/// bytes with the tag; the rare wider payloads sit behind a `Box`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEventKind {
    /// The process was resumed (sched_wakeup analogue).
    Wake {
        /// Why it was resumed (exported as [`WakeReason::tag`]).
        reason: WakeReason,
    },
    /// The process blocked on an effect (sched_switch analogue).
    Block {
        /// The component its wait will be attributed to.
        comp: LatComp,
    },
    /// The process queued on a busy lock.
    LockContend {
        /// The contended lock (label via [`TraceLog::lock_label`]).
        lock: LockId,
    },
    /// A lock was granted (immediately or after queueing).
    LockAcquired {
        /// The granted lock.
        lock: LockId,
        /// Enqueue → grant duration (0 for uncontended grabs).
        wait_ns: Ns,
        /// Whether the acquisition had to queue.
        contended: bool,
    },
    /// An exclusively-held lock was released.
    LockReleased {
        /// The released lock.
        lock: LockId,
        /// Grant → release duration.
        held_ns: Ns,
    },
    /// An RCU grace-period wait started; `dur_ns` is its full length.
    RcuSync {
        /// Grace-period duration.
        dur_ns: Ns,
    },
    /// An IPI broadcast was issued.
    IpiBroadcast {
        /// Number of target cores.
        targets: u32,
        /// Handler cost charged to each target.
        handler_ns: Ns,
    },
    /// An I/O request was submitted.
    IoSubmit(Box<IoSubmitArgs>),
    /// A compute charge crossed timer ticks.
    TimerTicks(Box<TimerTicksArgs>),
    /// The fault plan injected a failure at a site.
    FaultInjected(Box<FaultInjectedArgs>),
    /// Kernel-layer mark: syscall entry/exit (emitted by the executor).
    Syscall {
        /// Syscall number.
        no: u16,
        /// True on entry, false on exit.
        enter: bool,
    },
    /// Kernel-layer mark: a VM exit of the named class.
    VmExit {
        /// Exit-class tag ("io_kick", "apic", ...), interned in the log.
        kind: LabelId,
        /// Exit cost.
        cost_ns: Ns,
    },
    /// Generic labelled mark with two payload words.
    Mark(Box<MarkArgs>),
}

/// Payload of [`TraceEventKind::IoSubmit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoSubmitArgs {
    /// Request size.
    pub bytes: u64,
    /// Submission → completion duration (queue + service).
    pub dur_ns: Ns,
}

/// Payload of [`TraceEventKind::TimerTicks`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerTicksArgs {
    /// Ticks crossed.
    pub n: u64,
    /// Total tick overhead added.
    pub cost_ns: Ns,
}

/// Payload of [`TraceEventKind::FaultInjected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjectedArgs {
    /// Fault class.
    pub kind: FaultKind,
    /// Site name.
    pub site: String,
}

/// Payload of [`TraceEventKind::Mark`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarkArgs {
    /// Mark label.
    pub label: &'static str,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl TraceEventKind {
    /// A [`TraceEventKind::Mark`].
    pub fn mark(label: &'static str, a: u64, b: u64) -> Self {
        TraceEventKind::Mark(Box::new(MarkArgs { label, a, b }))
    }

    /// Stable short name for exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Wake { .. } => "wake",
            TraceEventKind::Block { .. } => "block",
            TraceEventKind::LockContend { .. } => "lock_contend",
            TraceEventKind::LockAcquired { .. } => "lock_acquired",
            TraceEventKind::LockReleased { .. } => "lock_released",
            TraceEventKind::RcuSync { .. } => "rcu_sync",
            TraceEventKind::IpiBroadcast { .. } => "ipi_broadcast",
            TraceEventKind::IoSubmit(_) => "io_submit",
            TraceEventKind::TimerTicks(_) => "timer_ticks",
            TraceEventKind::FaultInjected(_) => "fault_injected",
            TraceEventKind::Syscall { .. } => "syscall",
            TraceEventKind::VmExit { .. } => "vm_exit",
            TraceEventKind::Mark(_) => "mark",
        }
    }
}

/// One event argument, as exporters render it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceArg<'a> {
    /// An unsigned integer.
    U(u64),
    /// A boolean.
    B(bool),
    /// A string.
    S(&'a str),
}

/// Tracing configuration, installed via [`crate::Engine::set_trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. When false, no events are recorded anywhere.
    pub enabled: bool,
    /// Capacity of each per-core ring, in events. Overflow drops the
    /// oldest event and bumps the ring's drop counter.
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Tracing off (the default): strictly no event recording.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ring_capacity: 0,
        }
    }

    /// Tracing on with the default ring capacity (64Ki events/core).
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ring_capacity: 65_536,
        }
    }

    /// Tracing on with an explicit per-core ring capacity.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Self {
            enabled: true,
            ring_capacity: ring_capacity.max(1),
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// One core's bounded event ring (the ftrace per-CPU buffer analogue).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceRing {
    cap: usize,
    buf: std::collections::VecDeque<TraceEvent>,
    /// Events dropped (oldest-first) because the ring was full.
    pub dropped: u64,
}

impl TraceRing {
    /// Creates an empty ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            buf: std::collections::VecDeque::with_capacity(cap.min(4096)),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full. Never panics; a
    /// zero-capacity ring drops everything.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() >= self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.buf.iter()
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Frees the buffer's unused growth room (the ring's `capacity` is
    /// unchanged; a later push may grow the buffer again).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.buf.shrink_to_fit();
    }
}

/// The full trace of one run: one ring per core, plus the label tables
/// its events' ids resolve through.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// Whether tracing was enabled for the run.
    pub enabled: bool,
    /// Per-core rings, indexed by `CoreId::index()`.
    pub rings: Vec<TraceRing>,
    /// Lock labels, indexed by `LockId::index()` (the engine's lock
    /// table, copied by [`crate::Engine::take_trace`]).
    pub lock_labels: Vec<&'static str>,
    /// Interned tags, indexed by [`LabelId`] (see [`TraceLog::intern`]).
    pub labels: Vec<&'static str>,
}

impl TraceLog {
    /// Total retained events across all rings.
    pub fn total_events(&self) -> usize {
        self.rings.iter().map(|r| r.len()).sum()
    }

    /// Total dropped events across all rings.
    pub fn total_dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.dropped).sum()
    }

    /// All retained events merged in `(time, core)` order.
    pub fn merged(&self) -> Vec<&TraceEvent> {
        let mut all: Vec<&TraceEvent> = self.rings.iter().flat_map(|r| r.events()).collect();
        all.sort_by_key(|e| (e.t, e.core, e.pid));
        all
    }

    /// The id of `label` in [`TraceLog::labels`], appending it on first
    /// use. Tags are few (the VM-exit classes), so a scan beats a map.
    pub fn intern(&mut self, label: &'static str) -> LabelId {
        let i = match self.labels.iter().position(|&l| l == label) {
            Some(i) => i,
            None => {
                self.labels.push(label);
                self.labels.len() - 1
            }
        };
        LabelId(i as u32)
    }

    /// The label of `lock`, or `"?"` for a lock outside the table.
    pub fn lock_label(&self, lock: LockId) -> &'static str {
        self.lock_labels.get(lock.index()).copied().unwrap_or("?")
    }

    /// The interned tag `id`, or `"?"` for an id outside the table.
    pub fn label(&self, id: LabelId) -> &'static str {
        self.labels.get(id.0 as usize).copied().unwrap_or("?")
    }

    /// Visits an event's arguments in key order, labels resolved. The
    /// event time is not among them; exporters add it themselves.
    pub fn for_each_arg<'a>(
        &'a self,
        kind: &'a TraceEventKind,
        mut f: impl FnMut(&'static str, TraceArg<'a>),
    ) {
        use TraceArg::{B, S, U};
        match kind {
            TraceEventKind::Wake { reason } => f("reason", S(reason.tag())),
            TraceEventKind::Block { comp } => f("comp", S(comp.name())),
            TraceEventKind::LockContend { lock } => {
                f("label", S(self.lock_label(*lock)));
                f("lock", U(lock.index() as u64));
            }
            TraceEventKind::LockAcquired {
                lock,
                wait_ns,
                contended,
            } => {
                f("contended", B(*contended));
                f("label", S(self.lock_label(*lock)));
                f("lock", U(lock.index() as u64));
                f("wait_ns", U(*wait_ns));
            }
            TraceEventKind::LockReleased { lock, held_ns } => {
                f("held_ns", U(*held_ns));
                f("label", S(self.lock_label(*lock)));
                f("lock", U(lock.index() as u64));
            }
            TraceEventKind::RcuSync { dur_ns } => f("dur_ns", U(*dur_ns)),
            TraceEventKind::IpiBroadcast {
                targets,
                handler_ns,
            } => {
                f("handler_ns", U(*handler_ns));
                f("targets", U(u64::from(*targets)));
            }
            TraceEventKind::IoSubmit(io) => {
                f("bytes", U(io.bytes));
                f("dur_ns", U(io.dur_ns));
            }
            TraceEventKind::TimerTicks(ticks) => {
                f("cost_ns", U(ticks.cost_ns));
                f("ticks", U(ticks.n));
            }
            TraceEventKind::FaultInjected(fault) => {
                f("fault", S(fault.kind.name()));
                f("site", S(&fault.site));
            }
            TraceEventKind::Syscall { no, enter } => {
                f("enter", B(*enter));
                f("no", U(u64::from(*no)));
            }
            TraceEventKind::VmExit { kind, cost_ns } => {
                f("cost_ns", U(*cost_ns));
                f("kind", S(self.label(*kind)));
            }
            TraceEventKind::Mark(m) => {
                f("a", U(m.a));
                f("b", U(m.b));
                f("label", S(m.label));
            }
        }
    }

    /// The last `n` events in merged order, in a one-ring log that keeps
    /// this log's label tables.
    pub(crate) fn tail(&self, n: usize) -> TraceLog {
        let merged = self.merged();
        let mut ring = TraceRing::new(n);
        for ev in &merged[merged.len().saturating_sub(n)..] {
            ring.push((*ev).clone());
        }
        TraceLog {
            enabled: self.enabled,
            rings: vec![ring],
            lock_labels: self.lock_labels.clone(),
            labels: self.labels.clone(),
        }
    }

    /// One event as a text line: `t=<ns>ns core <c> pid <p> <name>`
    /// followed by its arguments as `key=value`, strings quoted.
    pub(crate) fn line<'a>(&'a self, ev: &'a TraceEvent) -> impl fmt::Display + 'a {
        EventLine { log: self, ev }
    }
}

struct EventLine<'a> {
    log: &'a TraceLog,
    ev: &'a TraceEvent,
}

impl fmt::Display for EventLine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ev = self.ev;
        write!(
            f,
            "t={}ns core {} pid {} {}",
            ev.t,
            ev.core.index(),
            ev.pid.index(),
            ev.kind.name()
        )?;
        let mut res = Ok(());
        self.log.for_each_arg(&ev.kind, |key, val| {
            res = res.and_then(|()| match val {
                TraceArg::U(u) => write!(f, " {key}={u}"),
                TraceArg::B(b) => write!(f, " {key}={b}"),
                TraceArg::S(s) => write!(f, " {key}={s:?}"),
            });
        });
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Ns) -> TraceEvent {
        TraceEvent {
            t,
            pid: Pid(0),
            core: CoreId(0),
            kind: TraceEventKind::mark("m", t, 0),
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut r = TraceRing::new(3);
        for t in 0..5 {
            r.push(ev(t));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped, 2);
        let kept: Vec<Ns> = r.events().map(|e| e.t).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest events evicted first");
    }

    #[test]
    fn zero_capacity_ring_never_panics() {
        let mut r = TraceRing::new(0);
        for t in 0..10 {
            r.push(ev(t));
        }
        assert!(r.is_empty());
        assert_eq!(r.dropped, 10);
    }

    #[test]
    fn breakdown_delta_is_componentwise() {
        let mut a = LatBreakdown::default();
        a.add(LatComp::OnCpu, 100);
        a.add(LatComp::LockWait, 40);
        let mut b = a;
        b.add(LatComp::OnCpu, 50);
        b.add(LatComp::IoWait, 7);
        let d = b.since(&a);
        assert_eq!(d.get(LatComp::OnCpu), 50);
        assert_eq!(d.get(LatComp::IoWait), 7);
        assert_eq!(d.get(LatComp::LockWait), 0);
        assert_eq!(d.total(), 57);
    }

    #[test]
    fn snapshot_lock_wait_delta_filters_zero() {
        let earlier = LatSnapshot {
            comps: LatBreakdown::default(),
            lock_waits: vec![("zone", 10)],
        };
        let later = LatSnapshot {
            comps: LatBreakdown::default(),
            lock_waits: vec![("zone", 10), ("journal", 5)],
        };
        let d = later.lock_waits_since(&earlier);
        assert_eq!(d, vec![("journal", 5)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "append-only")]
    fn snapshot_lock_wait_delta_rejects_a_non_prefix_snapshot() {
        let earlier = LatSnapshot {
            comps: LatBreakdown::default(),
            lock_waits: vec![("journal", 5)],
        };
        let later = LatSnapshot {
            comps: LatBreakdown::default(),
            lock_waits: vec![("zone", 10), ("journal", 5)],
        };
        later.lock_waits_since(&earlier);
    }
}
