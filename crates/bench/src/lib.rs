//! Shared plumbing for the experiment binaries: CLI parsing and artifact
//! writing in [`cli`], and table-cell formatting. See [`cli`] for the
//! flags every binary accepts.

pub mod cli;

pub use cli::Cli;

/// Formats a nanosecond value for table cells.
pub fn cell_ns(ns: u64) -> String {
    ksa_stats::fmt_ns(ns)
}
