//! Server workers: pull requests, execute their kernel template plus the
//! service compute, record sojourn times.

use ksa_desim::{CoreId, Effect, LatSnapshot, Ns, Process, QueueId, SimCtx, WakeReason};
use ksa_kernel::exec::Executor;
use ksa_kernel::ops::KOp;
use ksa_kernel::{Attribution, SysNo};
use rand::Rng;

use crate::apps::AppProfile;
use crate::world::{RequestAttribution, TbWorld};

/// Record key under which sojourn (request latency) samples are logged.
pub const SOJOURN_KEY: u64 = 0;

enum State {
    Setup,
    Idle,
    Running,
}

/// One server worker pinned to a core of the application's kernel
/// instance.
pub struct ServerWorker {
    app: AppProfile,
    app_id: usize,
    queue: QueueId,
    done_q: QueueId,
    slot: usize,
    exec: Executor,
    state: State,
    arrival: u64,
    queue_ns: Ns,
    lat_before: LatSnapshot,
    lat_after: LatSnapshot,
}

impl ServerWorker {
    /// Creates a worker.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        app: AppProfile,
        app_id: usize,
        queue: QueueId,
        done_q: QueueId,
        core: CoreId,
        instance: usize,
        slot: usize,
        seed: u64,
    ) -> Self {
        Self {
            app,
            app_id,
            queue,
            done_q,
            slot,
            exec: Executor::new(core, instance, slot, seed),
            state: State::Setup,
            arrival: 0,
            queue_ns: 0,
            lat_before: LatSnapshot::default(),
            lat_after: LatSnapshot::default(),
        }
    }

    /// Compiles and arms the warm-up sequence: open a data file, prime
    /// its cache, and establish the loopback connection through the
    /// simulated net stack. Resulting fd layout: 0 = data file, 1 =
    /// listening socket, 2 = client socket, 3 = accepted (server-side)
    /// connection.
    fn build_setup(&mut self, ctx: &mut SimCtx<'_, TbWorld>) {
        let port = self.slot as u64;
        let mut c = self.exec.compile(ctx);
        for (no, a0, a1) in [
            (SysNo::Open, self.slot as u64, 1),
            (SysNo::Socket, 1, 0),
            (SysNo::Bind, 1, port),
            (SysNo::Listen, 1, 8),
            (SysNo::Socket, 1, 0),
            (SysNo::Connect, 2, port),
            (SysNo::Accept, 1, 0),
            (SysNo::Pwrite, 0, 32_000),
            (SysNo::Pwrite, 0, 32_000),
            (SysNo::Pread, 0, 32_000),
        ] {
            c.call(no, &[a0, a1]);
        }
        c.arm();
    }

    /// Compiles and arms one request's full execution: loopback send +
    /// socket receive through the simulated net stack, the app's
    /// kernel-call template, the (virtualization-sensitive) service
    /// compute, and the socket reply.
    fn build_request(&mut self, ctx: &mut SimCtx<'_, TbWorld>) {
        let app = &self.app;
        let mut c = self.exec.compile(ctx);

        // Client half of the loopback: push the request payload through
        // the simulated stack (skb alloc, demux, NIC doorbell) into the
        // server connection's receive buffer, then drain it server-side.
        c.call(SysNo::Sendto, &[2, 768, 0]);
        c.call(SysNo::Recvfrom, &[3, 768]);

        // The app's kernel footprint.
        for &(no, a0, a1) in app.calls {
            c.call(no, &[a0, a1]);
        }

        // Userspace service compute, split into the memory-bound part
        // (pays nested paging in VMs) and the rest.
        let total = app.service_ns
            + if app.jitter_ns > 0 {
                c.rng().gen_range(0..app.jitter_ns)
            } else {
                0
            };
        let mem = total * app.mem_milli / 1000;
        c.seq().mem(mem);
        c.seq().push(KOp::UserCpu(total - mem));

        // Reply: server send (peer-routed to the client socket), then
        // the client drains it so buffers stay bounded across requests.
        c.call(SysNo::Sendto, &[3, 256, 0]);
        c.call(SysNo::Recvfrom, &[2, 256]);
        c.arm();
    }

    /// Finishes the in-flight request and looks for the next one.
    fn complete_and_next(&mut self, ctx: &mut SimCtx<'_, TbWorld>) -> Effect {
        let sojourn = ctx.now() - self.arrival;
        ctx.record(SOJOURN_KEY, sojourn);
        ctx.lat_snapshot_into(&mut self.lat_after);
        let service = Attribution::from_delta(
            &self.lat_after.comps.since(&self.lat_before.comps),
            self.exec.vm_exit_ns(),
        );
        // Decomposition must tile the sojourn exactly: time in queue plus
        // every attributed service nanosecond.
        debug_assert_eq!(self.queue_ns + service.total, sojourn);
        if ctx.trace_enabled() {
            ctx.trace_mark(ksa_desim::TraceEventKind::mark(
                "request_done",
                sojourn,
                self.queue_ns,
            ));
        }
        ctx.world.request_attrib.push(RequestAttribution {
            queue_ns: self.queue_ns,
            service,
        });
        let now = ctx.now();
        let k = &mut ctx.world.kernel;
        if k.metrics.enabled() {
            k.metrics
                .observe_request(self.app_id, sojourn, self.queue_ns);
            if k.metrics.due(now) {
                k.metrics.sample(now, &k.instances);
            }
        }
        let q = &mut ctx.world.queues[self.app_id];
        q.completed += 1;
        if q.completed == q.batch_target {
            ctx.signal(self.done_q, 1);
        }
        self.next(ctx)
    }

    /// Pops a request or sleeps on the queue.
    fn next(&mut self, ctx: &mut SimCtx<'_, TbWorld>) -> Effect {
        match ctx.world.queues[self.app_id].pending.pop_front() {
            Some(req) => {
                self.arrival = req.arrival;
                self.queue_ns = ctx.now() - req.arrival;
                ctx.lat_snapshot_into(&mut self.lat_before);
                self.build_request(ctx);
                self.state = State::Running;
                self.step(ctx)
            }
            None => {
                self.state = State::Idle;
                Effect::Wait(self.queue)
            }
        }
    }

    fn step(&mut self, ctx: &mut SimCtx<'_, TbWorld>) -> Effect {
        match self.exec.step(ctx) {
            Some(e) => e,
            None => self.complete_and_next(ctx),
        }
    }
}

impl Process<TbWorld> for ServerWorker {
    fn resume(&mut self, ctx: &mut SimCtx<'_, TbWorld>, _wake: WakeReason) -> Effect {
        match self.state {
            State::Setup => {
                if !self.exec.live() {
                    self.build_setup(ctx);
                }
                match self.exec.step(ctx) {
                    Some(e) => e,
                    None => self.next(ctx),
                }
            }
            State::Idle => self.next(ctx),
            State::Running => self.step(ctx),
        }
    }

    fn is_daemon(&self) -> bool {
        // The client decides when the run ends.
        true
    }

    fn label(&self) -> &'static str {
        self.app.name
    }
}
