//! Process trait, blocking effects and wake reasons.

use crate::engine::{BarrierId, QueueId, RcuId, SimCtx};
use crate::iodev::DevId;
use crate::lock::{LockId, LockMode};
use crate::time::Ns;
use crate::trace::ProcKind;

/// Identifier of a simulated process within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pid(pub u32);

impl Pid {
    /// Index into the engine's process table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a process was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeReason {
    /// First resume after spawn.
    Start,
    /// A `Delay`/`Sleep` elapsed.
    Timer,
    /// The requested lock was granted (ownership already transferred).
    LockGranted(LockId),
    /// All IPI targets acknowledged.
    IpiDone,
    /// The submitted I/O request completed.
    IoDone,
    /// The barrier released this generation.
    BarrierReleased,
    /// Another process signalled the wait queue this process slept on.
    Signaled(QueueId),
    /// The requested RCU grace period elapsed.
    RcuDone,
}

impl WakeReason {
    /// Stable short tag for trace events.
    pub fn tag(&self) -> &'static str {
        match self {
            WakeReason::Start => "start",
            WakeReason::Timer => "timer",
            WakeReason::LockGranted(_) => "lock",
            WakeReason::IpiDone => "ipi",
            WakeReason::IoDone => "io",
            WakeReason::BarrierReleased => "barrier",
            WakeReason::Signaled(_) => "queue",
            WakeReason::RcuDone => "rcu",
        }
    }
}

/// The single blocking action a process requests from the engine per resume.
///
/// Everything here suspends the process until the corresponding
/// [`WakeReason`] arrives; non-blocking actions are methods on [`SimCtx`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Effect {
    /// Compute for `Ns` nanoseconds **on this process's core**: the request
    /// is serialized with other processes bound to the same core and
    /// inflated by per-tick interrupt overhead and stolen time.
    Delay(Ns),
    /// Wait `Ns` nanoseconds of pure virtual time without occupying the
    /// core (arrival timers, think time).
    Sleep(Ns),
    /// Acquire a lock in the given mode; blocks until granted (FIFO).
    Acquire(LockId, LockMode),
    /// Broadcast an IPI to `targets` and block until every target
    /// acknowledged. Targets whose core currently has interrupts disabled
    /// (inside a spinlock section) defer their acknowledgement until the
    /// section ends. `handler_ns` is charged to each target core.
    Ipi {
        /// Cores to interrupt (the caller must exclude its own core).
        targets: Vec<crate::cpu::CoreId>,
        /// Cost of the interrupt handler on each target core.
        handler_ns: Ns,
    },
    /// Submit `bytes` of I/O to a device and block until it completes.
    Io {
        /// Target device.
        dev: DevId,
        /// Request size in bytes.
        bytes: u64,
    },
    /// Enter a barrier; blocks until all participants arrive.
    Barrier(BarrierId),
    /// Sleep on a wait queue until signalled.
    Wait(QueueId),
    /// Wait for an RCU grace period on the given domain.
    RcuSync(RcuId),
    /// The process has finished; it will never be resumed again.
    Done,
}

/// A resumable simulated process.
///
/// `W` is the engine's world type: shared mutable state (e.g. the simulated
/// kernel) accessible through `ctx.world` during a resume step.
pub trait Process<W> {
    /// Advances the process state machine and returns the next blocking
    /// effect. `wake` says why the process was resumed (the result of the
    /// previous effect).
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, wake: WakeReason) -> Effect;

    /// Daemons do not keep the simulation alive: the engine stops once all
    /// non-daemon processes are `Done`.
    fn is_daemon(&self) -> bool {
        false
    }

    /// How this process's compute is classified for *other* processes'
    /// run-queue-wait attribution. Defaults to following
    /// [`Process::is_daemon`]; softirq-context processes (the NAPI
    /// poller) should override to [`ProcKind::Softirq`].
    fn kind(&self) -> ProcKind {
        if self.is_daemon() {
            ProcKind::Daemon
        } else {
            ProcKind::User
        }
    }

    /// Debug label used in stall and panic diagnostics; the engine
    /// reads it once, at spawn.
    fn label(&self) -> &'static str {
        "process"
    }
}
