//! The open-loop client: Poisson arrivals at a target utilization,
//! optionally over a lossy link with the cluster fabric's
//! timeout/retry/backoff policy.

use ksa_desim::fault::node_decision_hash;
use ksa_desim::{Backoff, Effect, Ns, Process, QueueId, SimCtx, WakeReason};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::world::{Request, TbWorld};

/// Record keys `ITER_KEY_BASE + batch` hold per-batch durations in
/// cluster mode.
pub const ITER_KEY_BASE: u64 = 1_000_000;

/// The client-side send policy over a lossy link — the same capped
/// exponential backoff + deterministic jitter discipline the cluster
/// fabric retransmits under, so request-level p99 under partition-like
/// loss is measurable. A request's sojourn is measured from its *first*
/// send attempt, so retry delay lands in the tail where it belongs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt send-drop probability in milli-units.
    pub drop_milli: u32,
    /// Give-up budget measured from the first attempt; a request still
    /// undelivered past this is abandoned (counted, not measured).
    pub timeout_ns: Ns,
    /// Retransmit schedule (never exceeds its cap).
    pub backoff: Backoff,
    /// Hard bound on attempts per request.
    pub max_attempts: u32,
    /// Decision seed for drop verdicts (jitter draws come from the
    /// client's own seeded RNG).
    pub seed: u64,
}

impl RetryPolicy {
    /// A lossless policy (never drops, never retries).
    pub fn lossless() -> Self {
        RetryPolicy {
            drop_milli: 0,
            timeout_ns: Ns::MAX,
            backoff: Backoff::new(50_000, 2_000_000, 250),
            max_attempts: u32::MAX,
            seed: 0,
        }
    }

    /// A lossy link dropping `drop_milli`/1000 of sends, with a default
    /// backoff and a generous give-up budget.
    pub fn lossy(drop_milli: u32, seed: u64) -> Self {
        RetryPolicy {
            drop_milli: drop_milli.min(900),
            timeout_ns: 50_000_000, // 50ms give-up budget
            backoff: Backoff::new(20_000, 500_000, 250),
            max_attempts: 64,
            seed,
        }
    }
}

/// How the client drives load.
#[derive(Debug, Clone, Copy)]
pub enum ClientMode {
    /// Figure 3: issue `total` requests open-loop, then wait for the last
    /// completion.
    OpenLoop {
        /// Requests to issue.
        total: u64,
    },
    /// Figure 4: `batches` rounds of `per_batch` requests; each round
    /// waits for all completions (the node-local part of a BSP step) and
    /// records its duration.
    Batched {
        /// Number of rounds (the paper uses 50).
        batches: u64,
        /// Requests per round.
        per_batch: u64,
    },
}

enum State {
    Issuing,
    Draining,
}

/// What one [`Client::try_send`] attempt did.
enum SendOutcome {
    /// The request reached the server queue.
    Sent,
    /// The send was dropped; sleep this long and retry.
    Backoff(Ns),
    /// The request exhausted its timeout/attempt budget and was
    /// abandoned.
    GaveUp,
}

/// The request generator for one application.
pub struct Client {
    app_id: usize,
    queue: QueueId,
    done_q: QueueId,
    /// Arrivals per nanosecond.
    rate: f64,
    mode: ClientMode,
    rng: SmallRng,
    state: State,
    issued_in_round: u64,
    batch: u64,
    batch_start: Ns,
    /// Lossy-link policy ([`RetryPolicy::lossless`] = perfect link).
    retry: RetryPolicy,
    /// Requests attempted this round (issued + abandoned).
    attempted_in_round: u64,
    /// Send attempts made for the in-flight request (0 = none yet).
    attempt: u32,
    /// First-attempt instant of the in-flight request (its arrival
    /// stamp, so sojourns include retry delay).
    first_try: Ns,
    /// Monotonic request sequence number for drop decisions.
    req_seq: u64,
}

impl Client {
    /// Creates a client issuing at `rate` requests/ns.
    pub fn new(
        app_id: usize,
        queue: QueueId,
        done_q: QueueId,
        rate: f64,
        mode: ClientMode,
        seed: u64,
    ) -> Self {
        assert!(rate > 0.0);
        Self {
            app_id,
            queue,
            done_q,
            rate,
            mode,
            rng: SmallRng::seed_from_u64(seed),
            state: State::Issuing,
            issued_in_round: 0,
            batch: 0,
            batch_start: 0,
            retry: RetryPolicy::lossless(),
            attempted_in_round: 0,
            attempt: 0,
            first_try: 0,
            req_seq: 0,
        }
    }

    /// Sends over a lossy link under `policy` (builder style).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    fn interarrival(&mut self) -> Ns {
        let u: f64 = self.rng.gen_range(1e-12..1.0);
        ((-u.ln()) / self.rate).max(1.0) as Ns
    }

    fn round_total(&self) -> u64 {
        match self.mode {
            ClientMode::OpenLoop { total } => total,
            ClientMode::Batched { per_batch, .. } => per_batch,
        }
    }

    fn issue(&mut self, ctx: &mut SimCtx<'_, TbWorld>) {
        let now = ctx.now();
        self.issue_arrived(ctx, now);
    }

    /// Outcome of one send attempt over the (possibly lossy) link.
    fn try_send(&mut self, ctx: &mut SimCtx<'_, TbWorld>) -> SendOutcome {
        let now = ctx.now();
        if self.attempt == 0 {
            self.first_try = now;
        }
        let attempt = self.attempt + 1;
        let p = self.retry;
        if attempt > 1 && (now - self.first_try >= p.timeout_ns || attempt > p.max_attempts) {
            // The give-up path: the request is abandoned, counted,
            // and excluded from the latency samples.
            ctx.world.client_gave_up += 1;
            self.next_request();
            return SendOutcome::GaveUp;
        }
        let dropped = p.drop_milli > 0
            && node_decision_hash(
                p.seed,
                "client.link",
                self.app_id as u64,
                self.req_seq,
                attempt as u64,
            ) % 1000
                < p.drop_milli as u64;
        if dropped {
            self.attempt = attempt;
            ctx.world.client_retries += 1;
            let jitter = self.rng.gen::<u64>();
            return SendOutcome::Backoff(p.backoff.delay(attempt, jitter).max(1));
        }
        let arrival = self.first_try;
        self.issue_arrived(ctx, arrival);
        self.next_request();
        SendOutcome::Sent
    }

    fn next_request(&mut self) {
        self.attempted_in_round += 1;
        self.req_seq += 1;
        self.attempt = 0;
    }

    fn issue_arrived(&mut self, ctx: &mut SimCtx<'_, TbWorld>, arrival: Ns) {
        let req = Request {
            arrival,
            batch: self.batch,
        };
        ctx.world.queues[self.app_id].pending.push_back(req);
        ctx.signal(self.queue, 1);
        self.issued_in_round += 1;
    }

    fn start_drain(&mut self, ctx: &mut SimCtx<'_, TbWorld>) -> Effect {
        self.state = State::Draining;
        let q = &mut ctx.world.queues[self.app_id];
        let target = q.completed + q.pending.len() as u64 + self.in_flight_estimate();
        // Target = everything issued this run so far: completed plus
        // everything still pending or in service. Since only this client
        // issues, issued totals are exact.
        let issued_total = self.batch * self.round_total() + self.issued_in_round;
        let _ = target;
        if q.completed >= issued_total {
            // Everything already done.
            return self.round_done(ctx);
        }
        q.batch_target = issued_total;
        Effect::Wait(self.done_q)
    }

    fn in_flight_estimate(&self) -> u64 {
        0
    }

    fn round_done(&mut self, ctx: &mut SimCtx<'_, TbWorld>) -> Effect {
        ctx.world.queues[self.app_id].batch_target = u64::MAX;
        match self.mode {
            ClientMode::OpenLoop { .. } => Effect::Done,
            ClientMode::Batched { batches, .. } => {
                let dur = ctx.now() - self.batch_start;
                ctx.record(ITER_KEY_BASE + self.batch, dur);
                self.batch += 1;
                self.issued_in_round = 0;
                self.attempted_in_round = 0;
                if self.batch >= batches {
                    return Effect::Done;
                }
                self.state = State::Issuing;
                self.batch_start = ctx.now();
                self.issue_batch(ctx)
            }
        }
    }
}

impl Client {
    /// Dumps the whole round at once (BSP batch mode: iterations are
    /// work-bound, so the client hands the server its full quantum and
    /// waits for the drain).
    fn issue_batch(&mut self, ctx: &mut SimCtx<'_, TbWorld>) -> Effect {
        let total = self.round_total();
        while self.issued_in_round < total {
            self.issue(ctx);
        }
        ctx.signal(self.queue, total as usize);
        self.start_drain(ctx)
    }
}

impl Process<TbWorld> for Client {
    fn resume(&mut self, ctx: &mut SimCtx<'_, TbWorld>, wake: WakeReason) -> Effect {
        match self.state {
            State::Issuing => {
                if matches!(wake, WakeReason::Start) {
                    self.batch_start = ctx.now();
                }
                if matches!(self.mode, ClientMode::Batched { .. }) {
                    return self.issue_batch(ctx);
                }
                if self.attempted_in_round < self.round_total() {
                    match self.try_send(ctx) {
                        SendOutcome::Backoff(delay) => return Effect::Sleep(delay),
                        SendOutcome::Sent | SendOutcome::GaveUp => {
                            if self.attempted_in_round < self.round_total() {
                                return Effect::Sleep(self.interarrival());
                            }
                        }
                    }
                }
                self.start_drain(ctx)
            }
            State::Draining => self.round_done(ctx),
        }
    }

    fn label(&self) -> &str {
        "tailbench_client"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interarrival_matches_rate_on_average() {
        let mut c = Client::new(
            0,
            QueueId(0),
            QueueId(1),
            1.0 / 10_000.0, // one request per 10us
            ClientMode::OpenLoop { total: 1 },
            7,
        );
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| c.interarrival()).sum();
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - 10_000.0).abs() < 500.0,
            "mean interarrival {mean} != ~10000"
        );
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = Client::new(
            0,
            QueueId(0),
            QueueId(1),
            0.0,
            ClientMode::OpenLoop { total: 1 },
            1,
        );
    }
}
