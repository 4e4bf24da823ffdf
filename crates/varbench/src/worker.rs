//! The per-core corpus worker process.

use std::sync::Arc;

use ksa_desim::{
    BarrierId, CoreId, Effect, LatSnapshot, Ns, Process, SimCtx, TraceEventKind, WakeReason,
};
use ksa_kernel::coverage::CoverageSet;
use ksa_kernel::dispatch::dispatch_into;
use ksa_kernel::exec::OpRunner;
use ksa_kernel::ops::OpSeq;
use ksa_kernel::prog::Corpus;
use ksa_kernel::world::HasKernel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Encodes `(program, call)` into a record key.
pub fn site_key(site_base: &[u64], prog: usize, call: usize) -> u64 {
    site_base[prog] + call as u64
}

/// Builds the per-program site base offsets (cumulative call counts).
pub fn site_bases(corpus: &Corpus) -> Vec<u64> {
    let mut bases = Vec::with_capacity(corpus.programs.len());
    let mut acc = 0u64;
    for p in &corpus.programs {
        bases.push(acc);
        acc += p.len() as u64;
    }
    bases
}

enum Phase {
    /// Waiting to enter the next program (barrier or direct).
    ProgramStart,
    /// Executing a call through its op runner.
    InCall,
    /// Userspace glue between calls.
    Glue,
}

/// One worker: executes the whole corpus `iterations` times on its core,
/// synchronizing each program start across all workers when `sync` is
/// set.
pub struct CorpusWorker {
    corpus: Arc<Corpus>,
    site_base: Arc<Vec<u64>>,
    iterations: usize,
    sync: Option<BarrierId>,
    core: CoreId,
    instance: usize,
    slot: usize,
    rng: SmallRng,
    cover: CoverageSet,
    user_glue: Ns,
    daemon: bool,

    phase: Phase,
    iter: usize,
    prog: usize,
    call: usize,
    results: Vec<u64>,
    runner: OpRunner,
    runner_live: bool,
    seq_buf: OpSeq,
    args_buf: Vec<u64>,
    call_start: Ns,
    lat_before: LatSnapshot,
    lat_after: LatSnapshot,
    pending_result: u64,
}

impl CorpusWorker {
    /// Creates a worker bound to (`core`, `instance`, `slot`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        corpus: Arc<Corpus>,
        site_base: Arc<Vec<u64>>,
        iterations: usize,
        sync: Option<BarrierId>,
        core: CoreId,
        instance: usize,
        slot: usize,
        seed: u64,
    ) -> Self {
        Self {
            corpus,
            site_base,
            iterations,
            sync,
            core,
            instance,
            slot,
            rng: SmallRng::seed_from_u64(seed),
            cover: CoverageSet::new(),
            user_glue: 200,
            daemon: false,
            phase: Phase::ProgramStart,
            iter: 0,
            prog: 0,
            call: 0,
            results: Vec::new(),
            runner: OpRunner::empty(),
            runner_live: false,
            seq_buf: OpSeq::new(),
            args_buf: Vec::new(),
            call_start: 0,
            lat_before: LatSnapshot::default(),
            lat_after: LatSnapshot::default(),
            pending_result: 0,
        }
    }

    /// Compiles the current call and arms its runner. Returns false when
    /// the current program is empty.
    fn begin_call<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> bool {
        let corpus = Arc::clone(&self.corpus);
        let program = &corpus.programs[self.prog];
        if self.call >= program.len() {
            return false;
        }
        let call = &program.calls[self.call];
        self.args_buf.clear();
        self.args_buf
            .extend(call.args.iter().map(|a| a.resolve(&self.results)));
        // Snapshot the engine's latency accounting before the call so the
        // snapshot pair brackets exactly this call's interval (dispatch
        // and lowering consume no virtual time).
        ctx.lat_snapshot_into(&mut self.lat_before);
        let (world, faults) = ctx.world_and_faults();
        let inst = &mut world.kernel_mut().instances[self.instance];
        dispatch_into(
            inst,
            self.slot,
            call.no,
            &self.args_buf,
            &mut self.rng,
            &mut self.cover,
            faults,
            &mut self.seq_buf,
        );
        self.pending_result = self.seq_buf.result;
        self.runner.relower(&self.seq_buf, inst, self.core);
        self.runner_live = true;
        self.call_start = ctx.now();
        if ctx.trace_enabled() {
            ctx.trace_mark(TraceEventKind::Syscall {
                no: call.no as u16,
                enter: true,
            });
            self.runner.trace_exits(ctx);
        }
        true
    }

    /// Advances past a finished call; returns the next effect.
    fn finish_call<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        let key = site_key(&self.site_base, self.prog, self.call);
        let latency = ctx.now() - self.call_start;
        ctx.record(key, latency);
        if self.runner_live {
            self.runner_live = false;
            let no = self.corpus.programs[self.prog].calls[self.call].no;
            ctx.lat_snapshot_into(&mut self.lat_after);
            if ctx.trace_enabled() {
                ctx.trace_mark(TraceEventKind::Syscall {
                    no: no as u16,
                    enter: false,
                });
            }
            let now = ctx.now();
            let (world, _faults) = ctx.world_and_faults();
            let attrib = world.kernel_mut().observe_syscall(
                no,
                &self.lat_before,
                &self.lat_after,
                self.runner.vm_exit_ns(),
                now,
            );
            // The components-tile-the-timeline invariant: the decomposed
            // call must account for every recorded nanosecond.
            debug_assert_eq!(attrib.total, latency, "attribution must sum to latency");
        }
        self.results.push(self.pending_result);
        self.call += 1;
        if self.call < self.corpus.programs[self.prog].len() {
            self.phase = Phase::Glue;
            return Effect::Delay(self.user_glue);
        }
        // Program finished: advance cursor.
        self.prog += 1;
        if self.prog >= self.corpus.programs.len() {
            self.prog = 0;
            self.iter += 1;
            if self.iter >= self.iterations {
                return Effect::Done;
            }
        }
        self.enter_program(ctx)
    }

    /// Transitions to the next program (through the barrier if syncing).
    fn enter_program<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        self.phase = Phase::ProgramStart;
        match self.sync {
            Some(b) => Effect::Barrier(b),
            None => self.start_program(ctx),
        }
    }

    /// Begins executing the current program's first call.
    fn start_program<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        self.call = 0;
        self.results.clear();
        self.phase = Phase::InCall;
        if !self.begin_call(ctx) {
            // Empty program: skip it.
            self.prog += 1;
            if self.prog >= self.corpus.programs.len() {
                self.prog = 0;
                self.iter += 1;
                if self.iter >= self.iterations {
                    return Effect::Done;
                }
            }
            return self.enter_program(ctx);
        }
        self.step_runner(ctx)
    }

    /// Steps the op runner, finishing the call when it runs dry.
    fn step_runner<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        if self.runner_live {
            if let Some(effect) = self.runner.step(ctx) {
                return effect;
            }
        }
        self.finish_call(ctx)
    }

    /// Coverage this worker observed (for diagnostics).
    pub fn coverage(&self) -> &CoverageSet {
        &self.cover
    }

    /// Marks the worker as a background noise generator: it no longer
    /// keeps the simulation alive, so a co-located application decides
    /// when the run ends (used by the tailbench noise co-runners).
    pub fn as_daemon(mut self) -> Self {
        self.daemon = true;
        self
    }
}

impl<W: HasKernel> Process<W> for CorpusWorker {
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, wake: WakeReason) -> Effect {
        match self.phase {
            Phase::ProgramStart => {
                debug_assert!(matches!(
                    wake,
                    WakeReason::Start | WakeReason::BarrierReleased
                ));
                if self.corpus.programs.is_empty() || self.iterations == 0 {
                    return Effect::Done;
                }
                self.start_program(ctx)
            }
            Phase::InCall => self.step_runner(ctx),
            Phase::Glue => {
                self.phase = Phase::InCall;
                if self.begin_call(ctx) {
                    self.step_runner(ctx)
                } else {
                    self.finish_call(ctx)
                }
            }
        }
    }

    fn is_daemon(&self) -> bool {
        self.daemon
    }

    fn label(&self) -> &'static str {
        "corpus_worker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ksa_kernel::prog::Corpus;
    use ksa_kernel::{Arg, Call, Program, SysNo};

    #[test]
    fn site_bases_are_cumulative() {
        let c = Corpus {
            programs: vec![
                Program {
                    calls: vec![
                        Call::new(SysNo::Getpid, vec![]),
                        Call::new(SysNo::Getuid, vec![]),
                    ],
                },
                Program {
                    calls: vec![Call::new(SysNo::Open, vec![Arg::Const(1), Arg::Const(1)])],
                },
            ],
        };
        let b = site_bases(&c);
        assert_eq!(b, vec![0, 2]);
        assert_eq!(site_key(&b, 0, 1), 1);
        assert_eq!(site_key(&b, 1, 0), 2);
    }
}
