//! One trial's scaffold: every measurement path (a varbench corpus
//! sweep, a tailbench node, a churn host set) deploys one environment on
//! one engine and reads its observers afterwards. [`Trial`] owns that
//! part, so the order in which observers are installed and drained lives
//! in one place. Observers never move the simulation: a trial with them
//! on has the clock, event count and record stream of one with them off.

use ksa_desim::{Engine, EngineParams, TraceConfig, TraceLog};
use ksa_kernel::world::HasKernel;
use ksa_kernel::{AttributionTable, KernelTelemetry, SpecMask};
use ksa_telemetry::{Registry, TelemetryConfig};

use crate::build::{build_env_with, BuiltEnv};
use crate::spec::EnvSpec;

/// A trial's engine with its environment built and its observers armed.
/// Runners spawn their processes on [`Trial::engine`], run it, then call
/// [`Trial::finish`].
pub struct Trial<W> {
    /// The trial's engine.
    pub engine: Engine<W>,
    /// The environment built on `engine`.
    pub built: BuiltEnv,
    /// Engine locks allocated across all kernel instances at build time
    /// — the static footprint specialization shrinks.
    pub locks_allocated: u32,
    /// Kernel daemons spawned across all instances.
    pub daemons_spawned: u32,
}

/// What a trial's observers recorded, drained by [`Trial::finish`].
#[derive(Debug)]
pub struct Observations {
    /// The recorded trace (empty rings unless tracing was on).
    pub trace: TraceLog,
    /// Engine self-profile, per-label lock counters and kernel metrics
    /// in one registry (inert unless metrics were on).
    pub metrics: Registry,
    /// Per-syscall latency attribution (always collected).
    pub attrib: AttributionTable,
}

impl<W: HasKernel + 'static> Trial<W> {
    /// Creates the engine over `world`, builds `spec` on it with `seed`
    /// and `mask` (see [`build_env_with`]), and arms the observers:
    /// `metrics` before the build, so the registries see every daemon
    /// and lock it creates; `trace` after it, so a trace holds the run.
    pub fn new(
        world: W,
        spec: &EnvSpec,
        seed: u64,
        mask: Option<SpecMask>,
        trace: bool,
        metrics: bool,
    ) -> Self {
        let mut engine = Engine::new(world, EngineParams::default(), seed);
        if metrics {
            engine.set_telemetry(TelemetryConfig::enabled());
            engine.world_mut().kernel_mut().metrics =
                KernelTelemetry::new(TelemetryConfig::enabled());
        }
        let built = build_env_with(&mut engine, spec, seed, mask);
        let k = engine.world().kernel();
        let locks_allocated = k.instances.iter().map(|i| i.locks_allocated).sum();
        let daemons_spawned = k.instances.iter().map(|i| i.daemons_spawned).sum();
        if trace {
            engine.set_trace(TraceConfig::enabled());
        }
        Trial {
            engine,
            built,
            locks_allocated,
            daemons_spawned,
        }
    }

    /// Drains the observers after the run in a fixed order: the trace,
    /// the kernel gauges, the engine telemetry with the lock counters
    /// folded and the kernel metrics absorbed into it, then the
    /// attribution table. The engine and its world stay readable.
    pub fn finish(&mut self) -> Observations {
        let engine = &mut self.engine;
        let trace = engine.take_trace();
        let now = engine.now();
        let kernel_metrics = {
            let kw = engine.world_mut().kernel_mut();
            kw.metrics.finish(now, &kw.instances)
        };
        let mut metrics = engine.take_telemetry();
        // The "lockstat" view of software interference, by lock label.
        engine.fold_lock_counters(&mut metrics);
        metrics.absorb(&kernel_metrics, &[]);
        let attrib = std::mem::take(&mut engine.world_mut().kernel_mut().attrib);
        Observations {
            trace,
            metrics,
            attrib,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EnvKind, Machine};
    use crate::tenant::{spawn_churn_hosts, ChurnParams};
    use ksa_kernel::world::KernelWorld;

    #[test]
    fn trial_observers_are_neutral_on_churn() {
        let spec = EnvSpec::new(
            Machine {
                cores: 4,
                mem_mib: 4 * 1024,
            },
            EnvKind::Vm(2),
        );
        let params = ChurnParams::quick(8, 16);
        let churn = |observe: bool| {
            let mut trial = Trial::new(KernelWorld::new(), &spec, 7, None, observe, observe);
            spawn_churn_hosts(&mut trial.engine, &trial.built, &params, 7);
            let res = trial.engine.run().expect("churn run stalled");
            (res, trial.finish())
        };
        let (plain, quiet) = churn(false);
        let (observed, seen) = churn(true);
        assert_eq!(
            (plain.clock, plain.events),
            (observed.clock, observed.events)
        );
        assert_eq!(plain.records, observed.records);
        assert!(!plain.records.is_empty());
        assert!(!quiet.metrics.enabled());
        assert_eq!(quiet.trace.total_events(), 0);
        assert!(seen.metrics.enabled());
        assert!(seen.metrics.total("engine_events_dispatched") > 0);
        assert!(seen.trace.total_events() > 0);
    }
}
