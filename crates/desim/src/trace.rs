//! Deterministic kernel tracing: per-core bounded event rings and
//! per-process latency-component accounting.
//!
//! This is the simulation's ftrace/lockstat/perf analogue. Two layers:
//!
//! * **Trace rings** ([`TraceRing`], one per core) hold byte-encoded
//!   typed [`TraceEvent`]s — scheduler wakeups/blocks, lock contention and
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

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{vec_deque, BinaryHeap, VecDeque};
use std::fmt;

use crate::cpu::CoreId;
use crate::fault::FaultKind;
use crate::lock::LockId;
use crate::process::{Pid, WakeReason};
use crate::time::Ns;
use ksa_telemetry::varint;

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
/// resume point (see [`crate::SimCtx::lat_snapshot_into`]).
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
/// Rings do not hold `TraceEvent`s: [`TraceRing`] stores each one
/// byte-encoded and rebuilds it on read. Labels are not stored per
/// event; lock labels and interned tags resolve through the owning
/// [`TraceLog`].
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

impl TraceEvent {
    /// The key [`TraceLog::for_each_merged`] orders events by.
    fn merge_key(&self) -> (Ns, CoreId, Pid) {
        (self.t, self.core, self.pid)
    }
}

/// An interned trace label: an index into [`TraceLog::labels`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

/// The event vocabulary — the simulation's tracepoint set. Every variant
/// but [`FaultInjected`](TraceEventKind::FaultInjected) and
/// [`Mark`](TraceEventKind::Mark) reduces to at most two integer words,
/// which is what a [`TraceRing`] stores.
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
    IoSubmit {
        /// Request size.
        bytes: u64,
        /// Submission → completion duration (queue + service).
        dur_ns: Ns,
    },
    /// A compute charge crossed timer ticks.
    TimerTicks {
        /// Ticks crossed.
        n: u64,
        /// Total tick overhead added.
        cost_ns: Ns,
    },
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

/// Payload of [`TraceEventKind::FaultInjected`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjectedArgs {
    /// Fault class.
    pub kind: FaultKind,
    /// Site name.
    pub site: &'static str,
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
            TraceEventKind::IoSubmit { .. } => "io_submit",
            TraceEventKind::TimerTicks { .. } => "timer_ticks",
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

/// The byte encoding a [`TraceRing`] stores. Each event is a tag byte,
/// then up to five LEB128 varints ([`ksa_telemetry::varint`]): the
/// zigzagged time delta from the ring's previous event (signed, because
/// `push` accepts any `t`), the pid, the core and two payload words.
/// A field the tag's bits mark is not stored:
///
/// * `SAME_TIME`: the time delta is zero (events a handler emits
///   together share a timestamp);
/// * `SAME_PID` / `SAME_CORE`: the pid (core) equals the previous
///   event's (a core's ring holds only that core's events, and nearly
///   every event concerns the process that ran before it);
/// * `NO_B`: the second payload word is zero (`Block`, `LockContend`,
///   `RcuSync` and `Syscall` never have one, nor do most `Wake`s and
///   uncontended `LockAcquired`s).
///
/// `LockAcquired`'s `contended` and `Syscall`'s `enter` fold into the
/// tag. `FaultInjected` and `Mark` carry a `&'static str`, so their
/// words are zero and the kind itself waits in the ring's side queue.
mod codec {
    use super::{LabelId, LatComp, LockId, TraceEventKind};
    use crate::engine::QueueId;
    use crate::process::WakeReason;
    use ksa_telemetry::varint;

    const WAKE: u8 = 0;
    const BLOCK: u8 = 1;
    const LOCK_CONTEND: u8 = 2;
    const LOCK_ACQUIRED: u8 = 3;
    const LOCK_ACQUIRED_CONTENDED: u8 = 4;
    const LOCK_RELEASED: u8 = 5;
    const RCU_SYNC: u8 = 6;
    const IPI_BROADCAST: u8 = 7;
    const IO_SUBMIT: u8 = 8;
    const TIMER_TICKS: u8 = 9;
    const FAULT_INJECTED: u8 = 10;
    const SYSCALL_EXIT: u8 = 11;
    const SYSCALL_ENTER: u8 = 12;
    const VM_EXIT: u8 = 13;
    const MARK: u8 = 14;

    /// Tag bit: the event's time is the previous event's, and no delta
    /// is stored.
    pub(super) const SAME_TIME: u8 = 0x10;
    /// Tag bit: the event's second payload word is zero, and not stored.
    pub(super) const NO_B: u8 = 0x20;
    /// Tag bit: the event's pid is the previous event's, and not stored.
    pub(super) const SAME_PID: u8 = 0x40;
    /// Tag bit: the event's core is the previous event's, and not stored.
    pub(super) const SAME_CORE: u8 = 0x80;
    /// The tag bits that name the variant.
    pub(super) const TAG: u8 = 0x0f;

    /// Longest encoded event: the tag and five varints.
    pub(super) const MAX_EVENT_BYTES: usize = 1 + 5 * varint::MAX_BYTES;

    /// Whether events of `tag` keep their kind in the side queue.
    #[inline]
    pub(super) fn in_side(tag: u8) -> bool {
        tag == FAULT_INJECTED || tag == MARK
    }

    /// A kind's tag and payload words.
    #[inline]
    pub(super) fn words(kind: &TraceEventKind) -> (u8, u64, u64) {
        match *kind {
            TraceEventKind::Wake { reason } => {
                let (code, id) = match reason {
                    WakeReason::Start => (0, 0),
                    WakeReason::Timer => (1, 0),
                    WakeReason::LockGranted(lock) => (2, lock.0),
                    WakeReason::IpiDone => (3, 0),
                    WakeReason::IoDone => (4, 0),
                    WakeReason::BarrierReleased => (5, 0),
                    WakeReason::Signaled(queue) => (6, queue.0),
                    WakeReason::RcuDone => (7, 0),
                };
                (WAKE, code, u64::from(id))
            }
            TraceEventKind::Block { comp } => (BLOCK, comp as u64, 0),
            TraceEventKind::LockContend { lock } => (LOCK_CONTEND, u64::from(lock.0), 0),
            TraceEventKind::LockAcquired {
                lock,
                wait_ns,
                contended,
            } => {
                let tag = if contended {
                    LOCK_ACQUIRED_CONTENDED
                } else {
                    LOCK_ACQUIRED
                };
                (tag, u64::from(lock.0), wait_ns)
            }
            TraceEventKind::LockReleased { lock, held_ns } => {
                (LOCK_RELEASED, u64::from(lock.0), held_ns)
            }
            TraceEventKind::RcuSync { dur_ns } => (RCU_SYNC, dur_ns, 0),
            TraceEventKind::IpiBroadcast {
                targets,
                handler_ns,
            } => (IPI_BROADCAST, u64::from(targets), handler_ns),
            TraceEventKind::IoSubmit { bytes, dur_ns } => (IO_SUBMIT, bytes, dur_ns),
            TraceEventKind::TimerTicks { n, cost_ns } => (TIMER_TICKS, n, cost_ns),
            TraceEventKind::FaultInjected(_) => (FAULT_INJECTED, 0, 0),
            TraceEventKind::Syscall { no, enter } => {
                let tag = if enter { SYSCALL_ENTER } else { SYSCALL_EXIT };
                (tag, u64::from(no), 0)
            }
            TraceEventKind::VmExit { kind, cost_ns } => (VM_EXIT, u64::from(kind.0), cost_ns),
            TraceEventKind::Mark(_) => (MARK, 0, 0),
        }
    }

    /// The kind `words` encoded; `side` yields the side-queue kinds in
    /// order. The words were widened from the fields, so the narrowing
    /// casts are exact.
    pub(super) fn kind<'a>(
        tag: u8,
        a: u64,
        b: u64,
        side: &mut impl Iterator<Item = &'a TraceEventKind>,
    ) -> TraceEventKind {
        match tag {
            WAKE => {
                let reason = match a {
                    0 => WakeReason::Start,
                    1 => WakeReason::Timer,
                    2 => WakeReason::LockGranted(LockId(b as u32)),
                    3 => WakeReason::IpiDone,
                    4 => WakeReason::IoDone,
                    5 => WakeReason::BarrierReleased,
                    6 => WakeReason::Signaled(QueueId(b as u32)),
                    7 => WakeReason::RcuDone,
                    _ => unreachable!("wake reason code {a}"),
                };
                TraceEventKind::Wake { reason }
            }
            BLOCK => TraceEventKind::Block {
                comp: LatComp::ALL[a as usize],
            },
            LOCK_CONTEND => TraceEventKind::LockContend {
                lock: LockId(a as u32),
            },
            LOCK_ACQUIRED | LOCK_ACQUIRED_CONTENDED => TraceEventKind::LockAcquired {
                lock: LockId(a as u32),
                wait_ns: b,
                contended: tag == LOCK_ACQUIRED_CONTENDED,
            },
            LOCK_RELEASED => TraceEventKind::LockReleased {
                lock: LockId(a as u32),
                held_ns: b,
            },
            RCU_SYNC => TraceEventKind::RcuSync { dur_ns: a },
            IPI_BROADCAST => TraceEventKind::IpiBroadcast {
                targets: a as u32,
                handler_ns: b,
            },
            IO_SUBMIT => TraceEventKind::IoSubmit {
                bytes: a,
                dur_ns: b,
            },
            TIMER_TICKS => TraceEventKind::TimerTicks { n: a, cost_ns: b },
            SYSCALL_EXIT | SYSCALL_ENTER => TraceEventKind::Syscall {
                no: a as u16,
                enter: tag == SYSCALL_ENTER,
            },
            VM_EXIT => TraceEventKind::VmExit {
                kind: LabelId(a as u32),
                cost_ns: b,
            },
            FAULT_INJECTED | MARK => side
                .next()
                .expect("a side-queue kind for every side-queue tag")
                .clone(),
            _ => unreachable!("trace tag {tag}"),
        }
    }
}

/// One core's bounded event ring (the ftrace per-CPU buffer analogue).
///
/// Events are stored byte-encoded (see `codec`), about 3.3 bytes each
/// on a full-scale sweep against 32 for a decoded [`TraceEvent`], and
/// nothing is allocated until the first push. [`events`](Self::events)
/// decodes them back. Capacity counts events, and eviction is
/// oldest-first: it skips the front event's bytes, moves the decoding
/// base past it and compacts the buffer once the skipped prefix is more
/// than half of it.
/// Equality compares capacity, drop count and the retained events, not
/// the byte layout.
#[derive(Clone, Default)]
pub struct TraceRing {
    cap: usize,
    len: usize,
    /// Encoded events; the oldest retained one starts at `head`.
    bytes: Vec<u8>,
    head: usize,
    /// The event before the one at `head`: the decoding base of the
    /// oldest retained event.
    head_base: Base,
    /// The newest event: the encoding base of the next push.
    last: Base,
    /// Kinds of the retained `FaultInjected` and `Mark` events, oldest
    /// first.
    side: VecDeque<TraceEventKind>,
    /// Events dropped (oldest-first) because the ring was full.
    pub dropped: u64,
}

/// The fields an encoded event is stored relative to: its predecessor's
/// time, pid and core (all zero before a ring's first event).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
struct Base {
    t: Ns,
    core: u32,
    pid: u32,
}

impl TraceRing {
    /// Creates an empty ring holding at most `cap` events.
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Appends an event, evicting the oldest when full. Never panics; a
    /// zero-capacity ring drops everything.
    pub fn push(&mut self, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.len >= self.cap {
            self.pop_front();
            self.dropped += 1;
        }
        let (mut tag, a, b) = codec::words(&ev.kind);
        let (pid, core) = (ev.pid.0, ev.core.0);
        let dt = ev.t.wrapping_sub(self.last.t);
        if dt == 0 {
            tag |= codec::SAME_TIME;
        }
        if b == 0 {
            tag |= codec::NO_B;
        }
        if pid == self.last.pid {
            tag |= codec::SAME_PID;
        }
        if core == self.last.core {
            tag |= codec::SAME_CORE;
        }
        let bytes = &mut self.bytes;
        bytes.reserve(codec::MAX_EVENT_BYTES);
        bytes.push(tag);
        if dt != 0 {
            varint::put(bytes, varint::zigzag(dt));
        }
        if tag & codec::SAME_PID == 0 {
            varint::put(bytes, u64::from(pid));
        }
        if tag & codec::SAME_CORE == 0 {
            varint::put(bytes, u64::from(core));
        }
        varint::put(bytes, a);
        if b != 0 {
            varint::put(bytes, b);
        }
        if codec::in_side(tag & codec::TAG) {
            self.side.push_back(ev.kind);
        }
        self.last = Base { t: ev.t, core, pid };
        self.len += 1;
    }

    /// Evicts the oldest retained event, carrying the decoding base past
    /// it.
    fn pop_front(&mut self) {
        let mut d = self.decoder();
        let tag = d.header().expect("a non-empty ring has a front event");
        d.words(tag);
        let (pos, base) = (d.pos, d.base);
        if codec::in_side(tag & codec::TAG) {
            self.side.pop_front();
        }
        self.head = pos;
        self.head_base = base;
        self.len -= 1;
        if self.head > self.bytes.len() / 2 {
            self.bytes.drain(..self.head);
            self.head = 0;
        }
    }

    /// A decoder positioned at the oldest retained event.
    fn decoder(&self) -> Decoder<'_> {
        Decoder {
            bytes: &self.bytes,
            pos: self.head,
            base: self.head_base,
            side: self.side.iter(),
        }
    }

    /// Events currently retained, oldest first, decoded.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.decoder()
    }

    /// A ring of the same events stably sorted by `(t, core, pid)`.
    fn sorted(&self) -> TraceRing {
        let mut events: Vec<TraceEvent> = self.events().collect();
        events.sort_by_key(TraceEvent::merge_key);
        let mut ring = TraceRing::new(events.len());
        for ev in events {
            ring.push(ev);
        }
        ring
    }

    /// Whether the retained events' `(t, core, pid)` keys never
    /// decrease, read from the headers alone.
    fn keys_sorted(&self) -> bool {
        let mut d = self.decoder();
        let mut prev = Base::default();
        while let Some(tag) = d.header() {
            if d.base < prev {
                return false;
            }
            prev = d.base;
            d.words(tag);
        }
        true
    }

    /// Retained event count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Drops the evicted prefix and frees the buffer's unused growth
    /// room (the ring's `capacity` is unchanged; a later push may grow
    /// the buffer again).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.drain(..self.head);
        self.head = 0;
        self.bytes.shrink_to_fit();
        self.side.shrink_to_fit();
    }
}

/// Reads a ring's events in order from some event on; `base` is the
/// last event read (or the one before the start).
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    base: Base,
    side: vec_deque::Iter<'a, TraceEventKind>,
}

impl Decoder<'_> {
    /// Reads the next event's tag, time, pid and core into `base` and
    /// returns its tag byte; `None` past the newest event.
    #[inline]
    fn header(&mut self) -> Option<u8> {
        let tag = *self.bytes.get(self.pos)?;
        self.pos += 1;
        if tag & codec::SAME_TIME == 0 {
            let dt = varint::unzigzag(varint::get(self.bytes, &mut self.pos));
            self.base.t = self.base.t.wrapping_add(dt);
        }
        if tag & codec::SAME_PID == 0 {
            self.base.pid = varint::get(self.bytes, &mut self.pos) as u32;
        }
        if tag & codec::SAME_CORE == 0 {
            self.base.core = varint::get(self.bytes, &mut self.pos) as u32;
        }
        Some(tag)
    }

    /// Reads the two payload words of the event whose header returned
    /// `tag`.
    #[inline]
    fn words(&mut self, tag: u8) -> (u64, u64) {
        let a = varint::get(self.bytes, &mut self.pos);
        let b = match tag & codec::NO_B {
            0 => varint::get(self.bytes, &mut self.pos),
            _ => 0,
        };
        (a, b)
    }
}

impl Iterator for Decoder<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let tag = self.header()?;
        let (a, b) = self.words(tag);
        Some(TraceEvent {
            t: self.base.t,
            pid: Pid(self.base.pid),
            core: CoreId(self.base.core),
            kind: codec::kind(tag & codec::TAG, a, b, &mut self.side),
        })
    }
}

impl PartialEq for TraceRing {
    fn eq(&self, other: &Self) -> bool {
        self.cap == other.cap
            && self.dropped == other.dropped
            && self.len == other.len
            && self.events().eq(other.events())
    }
}

impl Eq for TraceRing {}

impl fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceRing")
            .field("cap", &self.cap)
            .field("dropped", &self.dropped)
            .field("events", &self.events().collect::<Vec<_>>())
            .finish()
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

    /// Visits every retained event in `(time, core, pid)` order, ties in
    /// ring order and then in push order: the order a stable sort of the
    /// rings' concatenation gives, without building it.
    ///
    /// A k-way merge of ring decoders on a heap of ring heads keyed
    /// `(time, core, pid, ring)`. A ring holds only its own core's
    /// events and its clock never runs back, so its keys rarely
    /// decrease; a ring whose keys ever do is decoded and stably sorted
    /// on its own before it joins the merge.
    pub fn for_each_merged(&self, mut f: impl FnMut(&TraceEvent)) {
        let resorted: Vec<Option<TraceRing>> = self
            .rings
            .iter()
            .map(|ring| (!ring.keys_sorted()).then(|| ring.sorted()))
            .collect();
        let mut heads = Vec::with_capacity(self.rings.len());
        for (ring, resorted) in self.rings.iter().zip(&resorted) {
            let mut d = resorted.as_ref().unwrap_or(ring).decoder();
            if let Some(ev) = d.next() {
                heads.push((ev, d));
            }
        }
        let mut heap: BinaryHeap<_> = heads
            .iter()
            .enumerate()
            .map(|(i, (ev, _))| Reverse((ev.merge_key(), i)))
            .collect();
        while let Some(mut top) = heap.peek_mut() {
            let (ev, d) = &mut heads[top.0 .1];
            f(ev);
            match d.next() {
                Some(next) => {
                    top.0 .0 = next.merge_key();
                    *ev = next;
                }
                None => {
                    PeekMut::pop(top);
                }
            }
        }
    }

    /// All retained events, decoded, in [`TraceLog::for_each_merged`]
    /// order.
    pub fn merged(&self) -> Vec<TraceEvent> {
        let mut all = Vec::with_capacity(self.total_events());
        self.for_each_merged(|ev| all.push(ev.clone()));
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
            TraceEventKind::IoSubmit { bytes, dur_ns } => {
                f("bytes", U(*bytes));
                f("dur_ns", U(*dur_ns));
            }
            TraceEventKind::TimerTicks { n, cost_ns } => {
                f("cost_ns", U(*cost_ns));
                f("ticks", U(*n));
            }
            TraceEventKind::FaultInjected(fault) => {
                f("fault", S(fault.kind.name()));
                f("site", S(fault.site));
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
        let mut skip = self.total_events().saturating_sub(n);
        let mut ring = TraceRing::new(n);
        self.for_each_merged(|ev| match skip {
            0 => ring.push(ev.clone()),
            _ => skip -= 1,
        });
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
    fn eviction_keeps_side_kinds_and_deltas_in_step_and_compacts() {
        // Marks (side queue) interleave with words-only events, time
        // jumps both ways across the whole u64 range, and the pid and
        // core repeat for a few events and then change, so the
        // eviction point falls both on a stored pid (core) and on one
        // carried from an evicted event.
        let times = [5, u64::MAX, 0, 1 << 63, 7, 7, u64::MAX - 1, 3];
        let mut pushed = Vec::new();
        let mut r = TraceRing::new(3);
        let mut uncapped = TraceRing::new(usize::MAX);
        for round in 0..50u64 {
            for (i, &t) in times.iter().enumerate() {
                let kind = if i % 3 == 0 {
                    TraceEventKind::mark("m", round, t)
                } else {
                    TraceEventKind::LockReleased {
                        lock: LockId(u32::MAX),
                        held_ns: t ^ round,
                    }
                };
                let ev = TraceEvent {
                    t,
                    pid: Pid((i / 2) as u32 * 1_000_000),
                    core: CoreId(u32::MAX - (i / 3) as u32 - round as u32 % 2),
                    kind,
                };
                r.push(ev.clone());
                uncapped.push(ev.clone());
                pushed.push(ev);
                let kept: Vec<TraceEvent> = r.events().collect();
                assert_eq!(kept, pushed[pushed.len().saturating_sub(3)..]);
                let skip = uncapped.len().saturating_sub(3);
                assert!(r.events().eq(uncapped.events().skip(skip)));
            }
        }
        assert_eq!(r.dropped, pushed.len() as u64 - 3);
        assert_eq!(uncapped.dropped, 0);
        assert!(uncapped.events().eq(pushed.iter().cloned()));
        // Compaction bounds the buffer at about twice the live bytes.
        assert!(r.bytes.len() <= 2 * 3 * codec::MAX_EVENT_BYTES + 1);
        let mut shrunk = r.clone();
        shrunk.shrink_to_fit();
        assert_eq!(shrunk, r, "equality is by retained events");
        assert_eq!(shrunk.head, 0);
    }

    #[test]
    fn a_repeated_pid_and_core_are_not_stored() {
        let mut r = TraceRing::new(8);
        let at = |t, pid, core| TraceEvent {
            t,
            pid: Pid(pid),
            core: CoreId(core),
            kind: TraceEventKind::LockContend { lock: LockId(9) },
        };
        // The first event is stored against a zero base; a lock
        // contention has no second word.
        r.push(at(100, 300, 2));
        assert_eq!(r.bytes.len(), 1 + 2 + 2 + 1 + 1);
        r.push(at(110, 300, 2));
        assert_eq!(r.bytes.len(), 7 + 3, "tag, delta and one word");
        r.push(at(111, 5, 2));
        assert_eq!(r.bytes.len(), 10 + 4);
        assert!(r.events().map(|e| e.pid.0).eq([300, 300, 5]));
    }

    #[test]
    fn a_zero_time_step_and_second_word_are_not_stored() {
        let mut r = TraceRing::new(8);
        let grant = |t, wait_ns| TraceEvent {
            t,
            pid: Pid(1),
            core: CoreId(0),
            kind: TraceEventKind::LockAcquired {
                lock: LockId(3),
                wait_ns,
                contended: wait_ns > 0,
            },
        };
        // Core 0 is the zero base's.
        r.push(grant(500, 0));
        assert_eq!(r.bytes.len(), 1 + 2 + 1 + 1, "tag, delta, pid and lock");
        r.push(grant(500, 0));
        assert_eq!(r.bytes.len(), 5 + 2, "the tag and the lock");
        r.push(grant(500, 100));
        assert_eq!(r.bytes.len(), 7 + 3, "the tag, the lock and the wait");
        r.push(grant(400, 0));
        assert_eq!(r.bytes.len(), 10 + 4, "the tag, a step back and the lock");
        let waits: Vec<(Ns, Ns)> = r
            .events()
            .map(|e| match e.kind {
                TraceEventKind::LockAcquired { wait_ns, .. } => (e.t, wait_ns),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(waits, [(500, 0), (500, 0), (500, 100), (400, 0)]);
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
