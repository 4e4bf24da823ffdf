//! The per-core corpus worker process.

use std::sync::Arc;

use ksa_desim::{
    BarrierId, CoreId, Effect, Engine, LatSnapshot, Ns, Process, SimCtx, TraceEventKind, WakeReason,
};
use ksa_kernel::exec::Executor;
use ksa_kernel::prog::Corpus;
use ksa_kernel::world::HasKernel;

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
    /// Executing a call through the executor.
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
    exec: Executor,
    user_glue: Ns,
    daemon: bool,

    phase: Phase,
    iter: usize,
    prog: usize,
    call: usize,
    results: Vec<u64>,
    args_buf: Vec<u64>,
    call_start: Ns,
    lat_before: LatSnapshot,
    lat_after: LatSnapshot,
}

/// A corpus prepared for sharing across trials: the workers' owned
/// handle plus the precomputed per-site record keys. Campaign runners
/// build this once so each trial's workers clone an `Arc`, not the
/// corpus.
pub struct SharedCorpus {
    pub(crate) corpus: Arc<Corpus>,
    bases: Arc<Vec<u64>>,
}

impl SharedCorpus {
    /// Copies `corpus` behind an `Arc` and precomputes its site keys.
    pub fn new(corpus: &Corpus) -> Self {
        Self {
            corpus: Arc::new(corpus.clone()),
            bases: Arc::new(site_bases(corpus)),
        }
    }

    /// Locates `core` in `engine`'s kernel and builds the worker that
    /// runs the corpus `iterations` times there, entering each program
    /// through `sync` when it is set.
    pub fn worker<W: HasKernel>(
        &self,
        engine: &Engine<W>,
        core: CoreId,
        iterations: usize,
        sync: Option<BarrierId>,
        seed: u64,
    ) -> CorpusWorker {
        let (instance, slot) = engine.world().kernel().locate(core);
        CorpusWorker {
            corpus: Arc::clone(&self.corpus),
            site_base: Arc::clone(&self.bases),
            iterations,
            sync,
            exec: Executor::new(core, instance, slot, seed),
            user_glue: 200,
            daemon: false,
            phase: Phase::ProgramStart,
            iter: 0,
            prog: 0,
            call: 0,
            results: Vec::new(),
            args_buf: Vec::new(),
            call_start: 0,
            lat_before: LatSnapshot::default(),
            lat_after: LatSnapshot::default(),
        }
    }
}

impl CorpusWorker {
    /// Compiles the current call (which exists: programs are never
    /// entered empty) and arms it.
    fn begin_call<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) {
        self.phase = Phase::InCall;
        let call = &self.corpus.programs[self.prog].calls[self.call];
        self.args_buf.clear();
        self.args_buf
            .extend(call.args.iter().map(|a| a.resolve(&self.results)));
        // Snapshot the engine's latency accounting before the call so the
        // snapshot pair brackets exactly this call's interval (dispatch
        // and lowering consume no virtual time).
        ctx.lat_snapshot_into(&mut self.lat_before);
        self.call_start = ctx.now();
        if ctx.trace_enabled() {
            ctx.trace_mark(TraceEventKind::Syscall {
                no: call.no as u16,
                enter: true,
            });
        }
        // The result is known at compile time; later calls of the
        // program may take it as an argument.
        let mut c = self.exec.compile(ctx);
        self.results.push(c.call(call.no, &self.args_buf).result);
        c.arm();
    }

    /// Books the call that just finished; returns the next effect.
    fn finish_call<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        let key = site_key(&self.site_base, self.prog, self.call);
        let latency = ctx.now() - self.call_start;
        ctx.record(key, latency);
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
            self.exec.vm_exit_ns(),
            now,
        );
        // The components-tile-the-timeline invariant: the decomposed
        // call must account for every recorded nanosecond.
        debug_assert_eq!(attrib.total, latency, "attribution must sum to latency");
        self.call += 1;
        if self.call < self.corpus.programs[self.prog].len() {
            self.phase = Phase::Glue;
            return Effect::Delay(self.user_glue);
        }
        self.next_program(ctx)
    }

    /// Advances the cursor past the current program and enters the next
    /// one, or finishes after the last iteration.
    fn next_program<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
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

    /// Begins executing the current program's first call; an empty
    /// program is skipped.
    fn start_program<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        self.call = 0;
        self.results.clear();
        if self.corpus.programs[self.prog].is_empty() {
            return self.next_program(ctx);
        }
        self.begin_call(ctx);
        self.step_call(ctx)
    }

    /// Steps the armed call, finishing it when it runs dry.
    fn step_call<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        match self.exec.step(ctx) {
            Some(effect) => effect,
            None => self.finish_call(ctx),
        }
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
            Phase::InCall => self.step_call(ctx),
            Phase::Glue => {
                self.begin_call(ctx);
                self.step_call(ctx)
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
