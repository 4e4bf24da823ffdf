//! # ksa-desim — deterministic discrete-event simulation engine
//!
//! This crate is the execution substrate for the kernel-surface-area
//! reproduction. It provides a **virtual-time** world in which simulated
//! processes run on simulated CPU cores and interact through simulated
//! synchronization primitives. All contention effects the paper attributes to
//! shared kernels — lock convoys, IPI/TLB-shootdown stalls, daemon
//! interference, device queueing — *emerge* from the event engine rather
//! than being sampled from output distributions.
//!
//! ## Model
//!
//! * **Time** is a `u64` nanosecond clock ([`Ns`]). Events are processed in
//!   `(time, sequence)` order, so runs are bit-for-bit deterministic for a
//!   given seed.
//! * **Processes** implement [`Process`]: resumable state machines that
//!   return one blocking [`Effect`] per resume (compute for n ns, acquire a
//!   lock, wait for I/O, ...). Non-blocking actions (releasing locks,
//!   signalling queues, recording samples) happen through [`SimCtx`].
//! * **Cores** serialize the compute of all processes bound to them
//!   (`free_at` occupancy), charge per-tick interrupt overhead, and track
//!   interrupt-disabled sections so IPI acknowledgements are genuinely
//!   delayed by spinlock critical sections — the coupling behind many of the
//!   paper's tail events.
//! * **Locks** come in three kinds ([`LockKind`]): FIFO spinlocks (queued,
//!   interrupt-disabling, like Linux qspinlocks), sleeping mutexes (handoff
//!   plus scheduler wake-up latency), and reader-writer locks (writer-
//!   preferring, batched reader grants).
//! * **RCU domains**, **IPI broadcasts**, **block devices** with FIFO
//!   request queues, **wait queues** and **barriers** complete the kernel
//!   toolbox.
//! * **Fault injection** ([`fault`]): a seeded [`FaultPlan`] assigns
//!   per-site failure schedules (alloc failures, I/O errors, lock
//!   timeouts) that processes consult through [`SimCtx`]; decisions are a
//!   pure function of `(seed, site, hit)` so faulty runs replay
//!   bit-identically. An event-budget watchdog
//!   ([`Engine::set_event_budget`]) converts livelocked simulations into a
//!   structured [`SimError::Stalled`] instead of running forever.
//!
//! The engine is generic over a *world* type `W` — shared mutable state
//! (e.g. a simulated kernel) that every process can inspect and mutate
//! during its resume step. A single engine run is strictly single-threaded;
//! callers parallelize across independent engine instances (trials, nodes)
//! through the deterministic work-stealing [`pool`], which pins output
//! order so parallel campaigns stay bit-identical to sequential ones.

pub mod cpu;
pub mod engine;
pub mod equeue;
pub mod fault;
pub mod iodev;
pub mod lock;
pub mod netdev;
pub mod pool;
pub mod process;
pub mod time;
pub mod trace;

pub use cpu::{CoreConfig, CoreId, CoreState, OccClass};
pub use engine::{
    BarrierId, Engine, EngineParams, QueueId, RcuId, Record, SimCtx, SimError, SimResult,
};
pub use equeue::EventQueue;
pub use fault::{
    Backoff, FaultKind, FaultPlan, FaultSchedule, FaultSite, FaultState, InjectedFault,
    LinkPartition, NodeCrash, NodeFaultPlan, NsWindow,
};
pub use iodev::{DevId, DeviceModel};
pub use lock::{LockId, LockKind, LockMode};
pub use netdev::{NicModel, NicState};
pub use pool::{default_jobs, parallel_indexed, resolve_jobs, run_tasks, TaskResult};
pub use process::{Effect, Pid, Process, WakeReason};
pub use time::{Ns, MS, SEC, US};
pub use trace::{
    FaultInjectedArgs, LabelId, LatBreakdown, LatComp, LatSnapshot, MarkArgs, ProcKind, TraceArg,
    TraceConfig, TraceEvent, TraceEventKind, TraceLog, TraceRing,
};
