//! # ksa-varbench — the barrier-synchronized measurement harness
//!
//! Reproduces the paper's varbench apparatus (Section 3.2): the same
//! corpus of system-call programs is deployed on **every core** of the
//! machine, and a global barrier synchronizes the start of every program
//! across cores — including across VM boundaries, as the original does
//! with MPI over a virtual network. Synchronized starts maximize
//! concurrent pressure on shared kernel structures, which is what makes
//! latent variability measurable.
//!
//! Each worker records one latency sample per `(program, call index)`
//! site per iteration; [`run_hooked`] (one trial) and [`run_configs`]
//! (a campaign on the worker pool) aggregate them into per-site
//! distributions tagged with the syscall and its categories.

pub mod contention;
pub mod run;
pub mod traceout;
pub mod worker;

pub use contention::{ContentionProfile, LockContention};
pub use run::{run_configs, run_hooked, RunConfig, RunError, RunResult, SiteResult};
pub use traceout::{attribution_json, chrome_trace_json};
pub use worker::CorpusWorker;
