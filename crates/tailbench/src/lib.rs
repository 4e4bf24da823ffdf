//! # ksa-tailbench — simulated latency-sensitive applications
//!
//! The paper evaluates eight tailbench applications in client/server mode
//! over a loopback socket, measuring 99th percentile request latency
//! (Figure 3) and, at 64-node scale, barrier-synchronized batch runtimes
//! (Figure 4). This crate reproduces that setup on the simulated kernel:
//!
//! * [`apps`] defines one profile per application — service-time
//!   distribution, memory sensitivity (how much of its compute is
//!   EPT-sensitive under virtualization), and the **kernel-call
//!   template** each request executes through the real simulated
//!   dispatcher (reads, writes, fsyncs, mmaps — the app's syscall
//!   footprint).
//! * [`server`] and [`client`] are engine processes: an open-loop client
//!   generates Poisson arrivals at 75% utilization; server workers pull
//!   requests from the socket queue, run the template plus the service
//!   compute, and record sojourn times.
//! * [`single_node`] assembles Figure 3's configurations: 4 KVM VMs
//!   (16 cores each — one runs the app, three run a 48-core varbench
//!   noise corpus) versus 4 Docker containers on one shared kernel.

pub mod apps;
pub mod churn;
pub mod client;
pub mod server;
pub mod single_node;
pub mod world;

pub use apps::{suite, AppProfile};
pub use churn::{run_churn, run_churn_points, ChurnConfig, ChurnResult};
pub use client::RetryPolicy;
pub use single_node::{run_points, run_single_node, SingleNodeConfig, TailResult};
pub use world::{Request, RequestAttribution, TbWorld};
