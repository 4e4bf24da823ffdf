//! # ksa-kernel — a simulated monolithic OS kernel
//!
//! This crate models the software structure of a Linux-like kernel at the
//! granularity that matters for the paper's question: *which shared
//! structures turn concurrent system calls into latency variability, and
//! how does that depend on the kernel surface area?*
//!
//! ## Model
//!
//! A [`KernelInstance`] manages a **surface area** — a set of cores and an
//! amount of memory. Bare metal is one instance managing everything; a
//! k-VM environment is k instances each managing 1/k of the resources.
//! Each instance owns:
//!
//! * simulated locks for the structures Linux shares kernel-wide
//!   (tasklist and pid maps, zone/LRU/slab locks, dcache/inode/rename
//!   locks, a journal mutex, futex hash buckets, IPC ids, cred/audit
//!   locks, cgroup locks) plus per-process locks (`mmap_sem`, page-table
//!   and fd-table locks — one simulated app process per core),
//! * *logical* subsystem state — counters and small tables (dirty pages,
//!   LRU size, dentry counts, per-file page-cache fill, runqueue lengths)
//!   from which handler costs are derived,
//! * an RCU domain sized to the instance's core count, and a block device.
//!
//! Each system call handler compiles a call (`SysNo` + resolved args) into
//! a sequence of micro-ops ([`KOp`]): CPU sections, lock acquire/release
//! pairs, TLB shootdowns, device I/O, RCU grace periods and
//! virtualization-sensitive operations. The [`exec::OpRunner`] replays the
//! sequence on the discrete-event engine, where queueing, convoys and
//! shootdown storms emerge. Handlers also emit **coverage blocks** (one
//! id per code path, fixed at compile time by the table in [`coverage`]),
//! the signal the coverage-guided generator in `ksa-syzgen` uses. Their
//! failable points (allocations, I/O, lock acquisitions) name a
//! [`ksa_desim::FaultSite`] from the table in [`fault_sites`], which the
//! fault plan consults.
//!
//! Background daemons (journal flusher, kswapd, load balancer, vmstat
//! worker) run as engine processes per instance; their critical-section
//! lengths scale with the instance's surface area, which is the paper's
//! "rare but unbounded software interference".

pub mod category;
pub mod coverage;
pub mod daemons;
pub mod dispatch;
pub mod errno;
pub mod exec;
pub mod fault_sites;
pub mod instance;
pub mod latency;
pub mod ops;
pub mod params;
pub mod prog;
pub mod spec;
pub mod state;
pub mod subsystems;
pub mod syscalls;
pub mod telemetry;
pub mod world;

pub use category::Category;
pub use coverage::{BlockId, CoverageSet};
pub use dispatch::dispatch;
pub use errno::Errno;
pub use exec::OpRunner;
pub use instance::{InstanceConfig, KernelInstance, TenancyProfile, VirtProfile};
pub use latency::{Attribution, AttributionTable, RawCall};
pub use ops::{KOp, OpSeq, VmExitKind};
pub use params::CostModel;
pub use prog::{Arg, Call, Program};
pub use spec::SpecMask;
pub use syscalls::SysNo;
pub use telemetry::{attribution_frames, KernelTelemetry};
pub use world::{HasKernel, KernelWorld};
