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

use ksa_desim::{Effect, Engine, Ns, Process, SimCtx, WakeReason};
use ksa_kernel::exec::{Compile, Executor};
use ksa_kernel::ops::KOp;
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
    slot: usize,
    cap: usize,
    params: ChurnParams,
    arrivals: VecDeque<Arrival>,
    /// Resident tenants not currently running, min-first by
    /// `(ready_at, id)`. Between units of work every resident is here.
    waiting: BinaryHeap<Reverse<Tenant>>,
    exec: Executor,
    running: Running,
}

/// Dispatches one call into `c` and returns its result if the call
/// succeeded at compile time.
fn ok<W: HasKernel>(c: &mut Compile<'_, '_, W>, no: SysNo, args: &[u64]) -> Option<u64> {
    let call = c.call(no, args);
    call.error.is_none().then_some(call.result)
}

impl TenantHost {
    /// Compiles the full tenant setup: fork, working set, file touch,
    /// loopback connection. The listening socket is closed inside the
    /// same compiled sequence, so the bound port (= this slot index) is
    /// only held within one compile instant and never collides across
    /// tenants or hosts.
    fn build_setup<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>, t: &mut Tenant) {
        let p = self.params;
        let port = self.slot as u64;
        let mut c = self.exec.compile(ctx);
        t.cloned = ok(&mut c, SysNo::Clone, &[0]).is_some();
        let name_sel = t.id.wrapping_mul(7).wrapping_add(3);
        t.file_fd = ok(&mut c, SysNo::Open, &[name_sel, 1]);
        t.vma = ok(&mut c, SysNo::Mmap, &[p.ws_pages, 1]).map(|handle| handle - 1);
        if let Some(fd) = t.file_fd {
            c.call(SysNo::Pwrite, &[fd, 4 * p.req_bytes]);
        }
        if let Some(ls) = ok(&mut c, SysNo::Socket, &[0]) {
            let bound = ok(&mut c, SysNo::Bind, &[ls, port]).is_some()
                && ok(&mut c, SysNo::Listen, &[ls, 8]).is_some();
            if bound {
                t.client_fd = ok(&mut c, SysNo::Socket, &[0]);
                if let Some(cl) = t.client_fd {
                    if ok(&mut c, SysNo::Connect, &[cl, port]).is_some() {
                        t.conn_fd = ok(&mut c, SysNo::Accept, &[ls]);
                    }
                }
            }
            c.call(SysNo::Close, &[ls]);
        }
        c.arm();
    }

    /// Compiles one request: loopback round trip plus the service
    /// compute, against the connection set up at admission.
    fn build_request<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>, t: &Tenant) {
        let p = self.params;
        let mut c = self.exec.compile(ctx);
        if let (Some(cl), Some(s)) = (t.client_fd, t.conn_fd) {
            c.call(SysNo::Sendto, &[cl, p.req_bytes, 0]);
            c.call(SysNo::Recvfrom, &[s, p.req_bytes]);
        }
        if let Some(fd) = t.file_fd {
            c.call(SysNo::Pread, &[fd, p.req_bytes]);
        }
        let mem = p.service_ns * p.mem_milli / 1000;
        c.seq().mem(mem);
        c.seq().push(KOp::UserCpu(p.service_ns - mem));
        if let (Some(cl), Some(s)) = (t.client_fd, t.conn_fd) {
            c.call(SysNo::Sendto, &[s, p.req_bytes / 2, 0]);
            c.call(SysNo::Recvfrom, &[cl, p.req_bytes / 2]);
        }
        c.arm();
    }

    /// Compiles the tenant's exit: close exactly the descriptors it
    /// opened (the socket-table slots reclaim here), unmap its working
    /// set, and reap the forked worker.
    fn build_exit<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>, t: &Tenant) {
        let mut c = self.exec.compile(ctx);
        for fd in [t.client_fd, t.conn_fd, t.file_fd].into_iter().flatten() {
            c.call(SysNo::Close, &[fd]);
        }
        if let Some(vma) = t.vma {
            c.call(SysNo::Munmap, &[vma]);
        }
        if t.cloned {
            c.call(SysNo::Wait4, &[0]);
        }
        c.arm();
    }

    /// Books the metrics for whatever the executor just finished.
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
                // then the host (a non-daemon) finishes the run. The
                // sweep validates that the lifecycles above leaked
                // nothing (it finds zero open descriptors when every
                // tenant exited cleanly) and resets the slot for the
                // audit.
                let mut c = self.exec.compile(ctx);
                c.exit();
                c.arm();
                self.running = Running::HostExit;
                self.step(ctx)
            }
        }
    }

    /// Steps the running sequence; once it finishes (or when nothing
    /// runs), books it and moves on to the next unit of work.
    fn step<W: HasKernel>(&mut self, ctx: &mut SimCtx<'_, W>) -> Effect {
        if let Some(e) = self.exec.step(ctx) {
            return e;
        }
        if matches!(self.running, Running::HostExit) {
            return Effect::Done;
        }
        self.complete(ctx);
        self.next(ctx)
    }
}

impl<W: HasKernel + 'static> Process<W> for TenantHost {
    fn resume(&mut self, ctx: &mut SimCtx<'_, W>, _wake: WakeReason) -> Effect {
        self.step(ctx)
    }

    fn label(&self) -> &'static str {
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
            slot,
            cap,
            params: *params,
            arrivals: std::mem::take(&mut per_core[ci]),
            waiting: BinaryHeap::new(),
            exec: Executor::new(core, instance, slot, seed ^ (0x7e2a_a27e << 8) ^ ci as u64),
            running: Running::None,
        };
        engine.spawn(core, Box::new(host), 0);
    }
}
