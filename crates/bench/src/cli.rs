//! Shared CLI parsing for the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--tiny` / `--quick` / `--full` — experiment scale (default quick),
//! * `--seed <n>` — trial seed (default 42),
//! * `--jobs <n>` — pool workers for independent trials (default 0 =
//!   auto: `KSA_JOBS` or available parallelism; 1 = sequential; results
//!   are bit-identical for every value),
//! * `--csv <dir>` — also write CSV artifacts into `dir`,
//! * `--trace-out <path>` — write a Chrome-trace JSON of the run's
//!   recorded trace (bins that record one),
//! * `--metrics-out <path>` — write the run's telemetry: time-series
//!   JSON at `path`, Prometheus text next to it (`.prom`), and — for
//!   bins that collect a latency attribution — collapsed-stack
//!   (`.folded`) and speedscope (`.speedscope.json`) profiles.
//!
//! Bins with extra flags extend the parser through
//! [`Cli::parse_with`]'s hook instead of re-rolling the loop; the hook
//! also lets a bin refuse a common flag it does not honour.

use ksa_core::experiments::Scale;
use ksa_telemetry::export::{collapsed, prometheus_text, speedscope_json, timeseries_json, Frame};
use ksa_telemetry::Registry;
use std::path::PathBuf;

/// Parsed common CLI options.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment scale.
    pub scale: Scale,
    /// Trial seed.
    pub seed: u64,
    /// Pool workers for independent trials (0 = auto).
    pub jobs: usize,
    /// CSV output directory.
    pub csv: Option<PathBuf>,
    /// Chrome-trace JSON output path.
    pub trace_out: Option<PathBuf>,
    /// Telemetry output path (time-series JSON; siblings derived).
    pub metrics_out: Option<PathBuf>,
}

/// The argument stream handed to [`Cli::parse_with`] extensions; pull
/// flag values with [`Args::value`].
pub struct Args {
    inner: std::iter::Skip<std::env::Args>,
    usage_extra: &'static str,
}

impl Args {
    fn next(&mut self) -> Option<String> {
        self.inner.next()
    }

    /// The value following the current flag; exits with usage if absent.
    pub fn value(&mut self, flag: &str) -> String {
        match self.inner.next() {
            Some(v) => v,
            None => self.usage(&format!("{flag} needs a value")),
        }
    }

    /// Exits with the usage banner (extension flags appended) and `msg`.
    pub fn usage(&self, msg: &str) -> ! {
        usage_with(self.usage_extra, msg)
    }
}

impl Cli {
    /// Parses `std::env::args`; exits with usage on errors.
    pub fn parse() -> Self {
        Self::parse_with("", |_, _| false)
    }

    /// Parses the common flags plus a bin's own through `ext`. `ext`
    /// sees each argument first, with the argument stream (to pull the
    /// flag's value), and returns `true` if it consumed it; anything it
    /// declines goes to the common parser, and an argument neither knows
    /// is a usage error. A bin that pins a common option rejects it in
    /// `ext` with [`Args::usage`]. `extra_usage` is appended to the
    /// usage banner.
    pub fn parse_with(
        extra_usage: &'static str,
        mut ext: impl FnMut(&str, &mut Args) -> bool,
    ) -> Self {
        let mut cli = Cli {
            scale: Scale::Quick,
            seed: 42,
            jobs: 0,
            csv: None,
            trace_out: None,
            metrics_out: None,
        };
        let mut args = Args {
            inner: std::env::args().skip(1),
            usage_extra: extra_usage,
        };
        while let Some(arg) = args.next() {
            if ext(&arg, &mut args) {
                continue;
            }
            match arg.as_str() {
                "--tiny" => cli.scale = Scale::Tiny,
                "--quick" => cli.scale = Scale::Quick,
                "--full" => cli.scale = Scale::Full,
                "--seed" => {
                    cli.seed = args
                        .value("--seed")
                        .parse()
                        .unwrap_or_else(|_| args.usage("--seed needs a number"));
                }
                "--jobs" => {
                    cli.jobs = args
                        .value("--jobs")
                        .parse()
                        .unwrap_or_else(|_| args.usage("--jobs needs a number"));
                }
                "--csv" => cli.csv = Some(PathBuf::from(args.value("--csv"))),
                "--trace-out" => cli.trace_out = Some(PathBuf::from(args.value("--trace-out"))),
                "--metrics-out" => {
                    cli.metrics_out = Some(PathBuf::from(args.value("--metrics-out")))
                }
                "--help" | "-h" => args.usage(""),
                other => args.usage(&format!("unknown argument: {other}")),
            }
        }
        cli
    }

    /// Whether the run should collect telemetry (i.e. `--metrics-out`
    /// was given) — wire this into `RunConfig::metrics` and friends.
    pub fn metrics(&self) -> bool {
        self.metrics_out.is_some()
    }

    /// Writes `content` as `<name>.csv` when `--csv` was given.
    pub fn write_csv(&self, name: &str, content: &str) {
        if let Some(dir) = &self.csv {
            std::fs::create_dir_all(dir).expect("create csv dir");
            let path = dir.join(format!("{name}.csv"));
            std::fs::write(&path, content).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }

    /// Writes the run's telemetry when `--metrics-out` was given:
    /// time-series JSON at the flag's path, Prometheus text next to it,
    /// and — when `frames` is non-empty — collapsed-stack and speedscope
    /// profiles folded from the latency taxonomy (see
    /// [`ksa_kernel::attribution_frames`]).
    pub fn write_metrics(&self, name: &str, reg: &Registry, frames: &[Frame]) {
        let Some(path) = &self.metrics_out else {
            return;
        };
        std::fs::write(path, timeseries_json(reg)).expect("write metrics json");
        eprintln!("wrote {}", path.display());
        let prom = path.with_extension("prom");
        std::fs::write(&prom, prometheus_text(reg)).expect("write prometheus text");
        eprintln!("wrote {}", prom.display());
        if !frames.is_empty() {
            let folded = path.with_extension("folded");
            std::fs::write(&folded, collapsed(frames)).expect("write collapsed stacks");
            eprintln!("wrote {}", folded.display());
            let ss = path.with_extension("speedscope.json");
            std::fs::write(&ss, speedscope_json(name, frames)).expect("write speedscope");
            eprintln!("wrote {}", ss.display());
        }
    }
}

fn usage_with(extra: &str, msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <bin> [--tiny|--quick|--full] [--seed N] [--jobs N] [--csv DIR] \
         [--trace-out PATH] [--metrics-out PATH]{}{extra}",
        if extra.is_empty() { "" } else { " " }
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
