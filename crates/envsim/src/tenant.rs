//! High-density serverless tenant churn.
//!
//! A **tenant** is one short-lived serverless instance: it arrives on a
//! seeded schedule, forks a worker (`clone`), materializes a working set
//! (`open` + `mmap(MAP_POPULATE)`), establishes a loopback connection
//! through the simulated net stack, serves a burst of requests, and
//! exits — releasing every descriptor, socket-table slot, port and page
//! it held. Tenant count far exceeds core count (the paper's isolation
//! regime stressed to density 4096 over a handful of cores), so each
//! core multiplexes a bounded *resident set* of tenants and admission
//! queueing is part of the measured cold-start latency.
//!
//! One [`TenantHost`] process runs per core. Hosts pre-spawn at build
//! time (the engine has no mid-run spawn) and each drains its share of
//! the global arrival schedule. Because dispatch compiles kernel state
//! mutations synchronously, a host learns every fd/vma number the
//! kernel actually assigned (`seq.result`) at build time and closes
//! exactly those resources at tenant exit — which is what makes the
//! post-churn table audits (`fds.len() <= peak_open_fds`,
//! `socks.len() <= peak_socks`) meaningful: any slot the allocator
//! leaks stays leaked.
//!
//! Measurements are emitted through the engine's record stream, keyed
//! per tenant (see [`COLD_START_KEY`], [`REQUEST_KEY`], [`EXIT_KEY`]),
//! so harnesses recover cold-start latency, per-tenant p99 isolation
//! and churn conservation without any side channel.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use ksa_desim::{CoreId, Effect, Engine, FaultState, Ns, Process, SimCtx, WakeReason};
use ksa_kernel::coverage::CoverageSet;
use ksa_kernel::dispatch::{dispatch_exit, dispatch_into};
use ksa_kernel::exec::OpRunner;
use ksa_kernel::instance::KernelInstance;
use ksa_kernel::ops::{KOp, OpSeq};
use ksa_kernel::world::HasKernel;
use ksa_kernel::SysNo;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::build::BuiltEnv;

/// Record-key stride separating metric kinds; the low bits carry the
/// tenant id.
pub const KEY_SPACE: u64 = 1 << 40;
/// Cold start: admission queueing + full setup, per tenant.
pub const COLD_START_KEY: u64 = KEY_SPACE;
/// Request sojourn (ready-to-reply, includes multiplexing interference).
pub const REQUEST_KEY: u64 = 2 * KEY_SPACE;
/// Tenant exit marker (value = simulated exit time).
pub const EXIT_KEY: u64 = 3 * KEY_SPACE;

/// Splits a churn record key into `(kind base, tenant id)`.
pub fn split_key(key: u64) -> (u64, u64) {
    (key & !(KEY_SPACE - 1), key & (KEY_SPACE - 1))
}

/// Workload shape for one churn run.
#[derive(Debug, Clone, Copy)]
pub struct ChurnParams {
    /// Target peak concurrent tenants machine-wide; each core's
    /// resident set is capped at `ceil(density / cores)`.
    pub density: usize,
    /// Total tenants over the run (>= density for full churn).
    pub tenants: usize,
    /// Mean inter-arrival gap; actual gaps are uniform in
    /// `[mean/2, 3*mean/2)`.
    pub mean_inter_arrival_ns: Ns,
    /// Mean requests served per tenant before exit (uniform in
    /// `[max(1, mean/2), 3*mean/2)`).
    pub requests_per_tenant: u64,
    /// Think time between a tenant's requests.
    pub think_ns: Ns,
    /// Working-set pages each tenant maps (prefaulted).
    pub ws_pages: u64,
    /// Request payload bytes through the loopback stack.
    pub req_bytes: u64,
    /// Userspace service compute per request.
    pub service_ns: Ns,
    /// Fraction (milli) of service compute that is memory-bound.
    pub mem_milli: u64,
}

impl ChurnParams {
    /// A quick default shape: callers override density/tenants.
    pub fn quick(density: usize, tenants: usize) -> Self {
        Self {
            density,
            tenants,
            mean_inter_arrival_ns: 20_000,
            requests_per_tenant: 4,
            think_ns: 5_000,
            ws_pages: 24,
            req_bytes: 512,
            service_ns: 8_000,
            mem_milli: 300,
        }
    }
}

/// One tenant's arrival-schedule entry.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    id: u64,
    at: Ns,
    requests: u64,
}

/// A resident tenant mid-lifecycle. Ordered by `(ready_at, id)` — the
/// host's scheduling key — so the waiting set is a min-heap of tenants.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    id: u64,
    scheduled: Ns,
    requests_left: u64,
    /// When this tenant can next run (admission for setup, think-time
    /// expiry between requests).
    ready_at: Ns,
    file_fd: Option<u64>,
    client_fd: Option<u64>,
    conn_fd: Option<u64>,
    /// Index into the slot's vma table.
    vma: Option<u64>,
    cloned: bool,
}

impl Tenant {
    fn key(&self) -> (Ns, u64) {
        (self.ready_at, self.id)
    }
}

impl PartialEq for Tenant {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Tenant {}

impl PartialOrd for Tenant {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tenant {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// What the host's compiled sequence currently executes. The tenant it
/// runs for is out of the waiting heap until the sequence completes.
#[derive(Debug, Clone, Copy)]
enum Running {
    None,
    Setup(Tenant),
    Request {
        t: Tenant,
        started: Ns,
    },
    Exit(Tenant),
    /// Final slot-wide `exit_group` sweep after the last tenant left.
    HostExit,
}

/// One churn host pinned to a core: admits tenants up to the resident
/// cap and multiplexes their lifecycles.
pub struct TenantHost {
    core: CoreId,
    instance: usize,
    slot: usize,
    cap: usize,
    params: ChurnParams,
    arrivals: VecDeque<Arrival>,
    /// Resident tenants not currently running, min-first by
    /// `(ready_at, id)`. Between units of work every resident is here.
    waiting: BinaryHeap<Reverse<Tenant>>,
    rng: SmallRng,
    cover: CoverageSet,
    runner: OpRunner,
    runner_live: bool,
    running: Running,
    seq_buf: OpSeq,
    sub_buf: OpSeq,
}

impl TenantHost {
    /// Dispatches one syscall into the scratch buffer, appends its ops
    /// to the sequence under construction, and returns the result if
    /// the call succeeded at compile time.
    fn call(
        &mut self,
        inst: &mut KernelInstance,
        faults: &mut FaultState,
        no: SysNo,
        args: &[u64],
    ) -> Option<u64> {
        dispatch_into(
            inst,
            self.slot,
            no,
            args,
            &mut self.rng,
            &mut self.cover,
            faults,
            &mut self.sub_buf,
        );
        self.seq_buf.ops.extend_from_slice(&self.sub_buf.ops);
        if self.sub_buf.error.is_some() {
            None
        } else {
            Some(self.sub_buf.result)
        }
    }

    /// Compiles the full tenant setup: fork, working set, file touch,
    /// loopback connection. The listening socket is closed inside the
    /// same compiled sequence, so the bound port (= this slot index) is
    /// only held within one compile instant and never collides across
    /// tenants or hosts.
    fn build_setup<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>, t: &mut Tenant) {
        let p = self.params;
        let (world, faults) = ctx.world_and_faults();
        let inst = &mut world.kernel_mut().instances[self.instance];
        self.seq_buf.reset();

        let cloned = self.call(inst, faults, SysNo::Clone, &[0]).is_some();
        let name_sel = t.id.wrapping_mul(7).wrapping_add(3);
        let file_fd = self.call(inst, faults, SysNo::Open, &[name_sel, 1]);
        let vma = self
            .call(inst, faults, SysNo::Mmap, &[p.ws_pages, 1])
            .map(|handle| handle - 1);
        if let Some(fd) = file_fd {
            self.call(inst, faults, SysNo::Pwrite, &[fd, 4 * p.req_bytes]);
        }
        let port = self.slot as u64;
        let mut client_fd = None;
        let mut conn_fd = None;
        if let Some(ls) = self.call(inst, faults, SysNo::Socket, &[0]) {
            let bound = self.call(inst, faults, SysNo::Bind, &[ls, port]).is_some()
                && self.call(inst, faults, SysNo::Listen, &[ls, 8]).is_some();
            if bound {
                client_fd = self.call(inst, faults, SysNo::Socket, &[0]);
                if let Some(c) = client_fd {
                    if self
                        .call(inst, faults, SysNo::Connect, &[c, port])
                        .is_some()
                    {
                        conn_fd = self.call(inst, faults, SysNo::Accept, &[ls]);
                    }
                }
            }
            self.call(inst, faults, SysNo::Close, &[ls]);
        }
        debug_assert!(self.seq_buf.locks_balanced());
        self.runner.relower(&self.seq_buf, inst, self.core);
        self.runner_live = true;

        t.cloned = cloned;
        t.file_fd = file_fd;
        t.client_fd = client_fd;
        t.conn_fd = conn_fd;
        t.vma = vma;
    }

    /// Compiles one request: loopback round trip plus the service
    /// compute, against the connection set up at admission.
    fn build_request<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>, t: &Tenant) {
        let p = self.params;
        let (world, faults) = ctx.world_and_faults();
        let inst = &mut world.kernel_mut().instances[self.instance];
        self.seq_buf.reset();

        if let (Some(c), Some(s)) = (t.client_fd, t.conn_fd) {
            self.call(inst, faults, SysNo::Sendto, &[c, p.req_bytes, 0]);
            self.call(inst, faults, SysNo::Recvfrom, &[s, p.req_bytes]);
        }
        if let Some(fd) = t.file_fd {
            self.call(inst, faults, SysNo::Pread, &[fd, p.req_bytes]);
        }
        let mem = p.service_ns * p.mem_milli / 1000;
        self.seq_buf.mem(mem);
        self.seq_buf.push(KOp::UserCpu(p.service_ns - mem));
        if let (Some(c), Some(s)) = (t.client_fd, t.conn_fd) {
            self.call(inst, faults, SysNo::Sendto, &[s, p.req_bytes / 2, 0]);
            self.call(inst, faults, SysNo::Recvfrom, &[c, p.req_bytes / 2]);
        }
        debug_assert!(self.seq_buf.locks_balanced());
        self.runner.relower(&self.seq_buf, inst, self.core);
        self.runner_live = true;
    }

    /// Compiles the tenant's exit: close exactly the descriptors it
    /// opened (the socket-table slots reclaim here), unmap its working
    /// set, and reap the forked worker.
    fn build_exit<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>, t: &Tenant) {
        let (world, faults) = ctx.world_and_faults();
        let inst = &mut world.kernel_mut().instances[self.instance];
        self.seq_buf.reset();

        for fd in [t.client_fd, t.conn_fd, t.file_fd].into_iter().flatten() {
            self.call(inst, faults, SysNo::Close, &[fd]);
        }
        if let Some(vma) = t.vma {
            self.call(inst, faults, SysNo::Munmap, &[vma]);
        }
        if t.cloned {
            self.call(inst, faults, SysNo::Wait4, &[0]);
        }
        debug_assert!(self.seq_buf.locks_balanced());
        self.runner.relower(&self.seq_buf, inst, self.core);
        self.runner_live = true;
    }

    /// Compiles the host's final `exit_group` sweep: validates that the
    /// lifecycles above leaked nothing (the sweep finds zero open
    /// descriptors when every tenant exited cleanly) and resets the
    /// slot for the audit.
    fn build_host_exit<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) {
        let (world, faults) = ctx.world_and_faults();
        let inst = &mut world.kernel_mut().instances[self.instance];
        dispatch_exit(
            inst,
            self.slot,
            &mut self.rng,
            &mut self.cover,
            faults,
            &mut self.seq_buf,
        );
        self.runner.relower(&self.seq_buf, inst, self.core);
        self.runner_live = true;
    }

    /// Books the metrics for whatever the runner just finished.
    fn complete<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) {
        let now = ctx.now();
        match std::mem::replace(&mut self.running, Running::None) {
            Running::None | Running::HostExit => {}
            Running::Setup(mut t) => {
                ctx.record(COLD_START_KEY + t.id, now - t.scheduled);
                t.ready_at = now;
                self.waiting.push(Reverse(t));
            }
            Running::Request { mut t, started } => {
                ctx.record(REQUEST_KEY + t.id, now - started);
                t.requests_left -= 1;
                t.ready_at = now + self.params.think_ns;
                self.waiting.push(Reverse(t));
            }
            Running::Exit(t) => ctx.record(EXIT_KEY + t.id, now),
        }
    }

    /// Picks and compiles the next unit of work, or sleeps/terminates.
    fn next<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        let now = ctx.now();
        // Nothing is running here, so `waiting` holds every resident.
        // Admit the next arrival when below the resident cap.
        if self.waiting.len() < self.cap {
            if let Some(a) = self.arrivals.front().copied() {
                if a.at <= now {
                    self.arrivals.pop_front();
                    let mut t = Tenant {
                        id: a.id,
                        scheduled: a.at,
                        requests_left: a.requests,
                        ready_at: now,
                        file_fd: None,
                        client_fd: None,
                        conn_fd: None,
                        vma: None,
                        cloned: false,
                    };
                    self.build_setup(ctx, &mut t);
                    self.running = Running::Setup(t);
                    return self.step(ctx);
                }
            }
        }
        // Run the longest-waiting ready resident (ties by id, so the
        // order is a pure function of simulated state). The heap's
        // minimum over all residents is ready exactly when any resident
        // is, and is then also the minimum over the ready ones.
        let head = self.waiting.peek().map(|Reverse(t)| t.ready_at);
        if head.is_some_and(|at| at <= now) {
            let Reverse(t) = self.waiting.pop().expect("peeked");
            if t.requests_left == 0 {
                self.build_exit(ctx, &t);
                self.running = Running::Exit(t);
            } else {
                self.build_request(ctx, &t);
                self.running = Running::Request { t, started: now };
            }
            return self.step(ctx);
        }
        // Nothing ready: sleep until the next arrival or wake-up.
        let mut wake = head;
        if self.waiting.len() < self.cap {
            if let Some(a) = self.arrivals.front() {
                wake = Some(wake.map_or(a.at, |w| w.min(a.at)));
            }
        }
        match wake {
            Some(at) => Effect::Sleep(at.max(now + 1) - now),
            None => {
                // All tenants churned through: final slot-wide sweep,
                // then the host (a non-daemon) finishes the run.
                self.build_host_exit(ctx);
                self.running = Running::HostExit;
                self.step(ctx)
            }
        }
    }

    fn step<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        if self.runner_live {
            if ctx.trace_enabled() {
                self.runner.trace_exits(ctx);
            }
            if let Some(e) = self.runner.step(ctx) {
                return e;
            }
        }
        self.runner_live = false;
        if matches!(self.running, Running::HostExit) {
            return Effect::Done;
        }
        self.complete(ctx);
        self.next(ctx)
    }
}

impl<W: HasKernel + 'static> Process<W> for TenantHost {
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, _wake: WakeReason) -> Effect {
        if self.runner_live {
            return self.step(ctx);
        }
        self.next(ctx)
    }

    fn label(&self) -> &str {
        "tenant-host"
    }
}

/// Builds the global arrival schedule and spawns one [`TenantHost`] per
/// core of `built`. Tenant `i` lands on core `i % cores`; the schedule
/// (arrival gaps and per-tenant request counts) is a pure function of
/// `seed`, so campaigns replay bit-identically.
pub fn spawn_churn_hosts<W: HasKernel + 'static>(
    engine: &mut Engine<W>,
    built: &BuiltEnv,
    params: &ChurnParams,
    seed: u64,
) {
    let n_cores = built.cores.len();
    assert!(n_cores > 0, "churn needs at least one core");
    assert!(params.tenants > 0, "churn needs at least one tenant");
    let cap = params.density.div_ceil(n_cores).max(1);

    let mut sched_rng = SmallRng::seed_from_u64(seed ^ 0x00c0_ffee_d00d);
    let ia = params.mean_inter_arrival_ns.max(2);
    let req_lo = (params.requests_per_tenant / 2).max(1);
    let req_hi = (3 * params.requests_per_tenant / 2).max(req_lo + 1);
    let mut per_core: Vec<VecDeque<Arrival>> = vec![VecDeque::new(); n_cores];
    let mut at = 0u64;
    for id in 0..params.tenants as u64 {
        at += sched_rng.gen_range(ia / 2..3 * ia / 2);
        per_core[(id as usize) % n_cores].push_back(Arrival {
            id,
            at,
            requests: sched_rng.gen_range(req_lo..req_hi),
        });
    }

    for (ci, &core) in built.cores.iter().enumerate() {
        let (instance, slot) = engine.world().kernel().locate(core);
        let host = TenantHost {
            core,
            instance,
            slot,
            cap,
            params: *params,
            arrivals: std::mem::take(&mut per_core[ci]),
            waiting: BinaryHeap::new(),
            rng: SmallRng::seed_from_u64(seed ^ (0x7e2a_a27e << 8) ^ ci as u64),
            cover: CoverageSet::new(),
            runner: OpRunner::empty(),
            runner_live: false,
            running: Running::None,
            seq_buf: OpSeq::new(),
            sub_buf: OpSeq::new(),
        };
        engine.spawn(core, Box::new(host), 0);
    }
}
