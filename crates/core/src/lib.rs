//! # ksa-core — kernel surface areas for isolation and scalability
//!
//! Public facade of the reproduction of *"Reducing Kernel Surface Areas
//! for Isolation and Scalability"* (ICPP 2019). The paper's thesis:
//!
//! > System-software isolation — shrinking the **kernel surface area**
//! > each OS instance manages by drawing VM boundaries — removes latent,
//! > potentially unbounded cross-tenant interference inside shared
//! > kernels, at the price of bounded virtualization overhead. For
//! > noise-sensitive workloads the trade is usually worth it.
//!
//! This crate re-exports the whole system and adds:
//!
//! * [`KernelSurfaceArea`] — the paper's central parameter,
//! * [`experiments`] — one builder per table/figure in the paper's
//!   evaluation (Table 1–3, Figure 2–4), each returning structured data
//!   the `ksa-bench` binaries render,
//! * [`analysis`] — surface-area↔variability correlation utilities.
//!
//! ## Quickstart
//!
//! ```
//! use ksa_core::experiments::{self, Scale};
//!
//! // Generate a small coverage-guided corpus and measure it natively
//! // versus in 4 single-core VMs.
//! let corpus = experiments::default_corpus(Scale::Tiny);
//! // Seed 42, auto worker count (`jobs` 0), telemetry off.
//! let (t2, _metered) = experiments::table2(&corpus.corpus, Scale::Tiny, 42, 0, false);
//! println!("{}", t2.p99.render());
//! ```

pub mod analysis;
pub mod experiments;
pub mod surface;

pub use surface::KernelSurfaceArea;

// The full system, re-exported.
pub use ksa_cluster as cluster;
pub use ksa_desim as desim;
pub use ksa_envsim as envsim;
pub use ksa_kernel as kernel;
pub use ksa_stats as stats;
pub use ksa_syzgen as syzgen;
pub use ksa_tailbench as tailbench;
pub use ksa_telemetry as telemetry;
pub use ksa_varbench as varbench;
