//! # ksa-envsim — deployment environments
//!
//! Builds the three deployment styles the paper compares on one simulated
//! machine:
//!
//! * **Native**: one kernel instance managing every core and all memory —
//!   the maximal kernel surface area.
//! * **VMs** ([`EnvKind::Vm`]): k KVM-style instances, each managing an
//!   equal slice of cores and memory, each paying the bounded
//!   virtualization overhead ([`ksa_kernel::VirtProfile::kvm`]); the
//!   host SSD is shared (virtio front-ends, one backing device).
//! * **Containers** ([`EnvKind::Container`]): one native kernel instance
//!   plus per-container namespace/cgroup overhead that grows with the
//!   container count.
//!
//! [`vm_sweep`] reproduces Table 1's configuration ladder (1→64 VMs over
//! 64 cores / 32 GB), [`container_sweep`] the analogous container ladder.
//! [`Trial`] is the scaffold every runner deploys one environment through:
//! it builds the engine and environment and installs and drains the
//! observers in one fixed order.

pub mod build;
pub mod spec;
pub mod tenant;
pub mod trial;

pub use build::{build_env_with, BuiltEnv};
pub use spec::{container_sweep, vm_sweep, EnvKind, EnvSpec, Machine, SweepRow};
pub use tenant::{spawn_churn_hosts, ChurnParams, TenantHost};
pub use trial::{Observations, Trial};
