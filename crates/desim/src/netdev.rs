//! Simulated NICs: per-queue descriptor rings with NAPI-style polling.
//!
//! The model is deliberately *logical*, like the rest of the kernel state:
//! a queue is a bounded counter of descriptors awaiting softirq
//! processing, not a byte-accurate ring. Syscall handlers enqueue packets
//! on the queue chosen by an RSS-style flow hash (paying the doorbell /
//! driver costs as micro-ops); a budgeted NAPI poller drains the rings in
//! deferred softirq context, competing with process time on the event
//! engine. A full ring pushes back on the sender (`try_enqueue` fails →
//! the syscall returns `EAGAIN`), which is how real virtio-net drivers
//! shed load when the softirq side cannot keep up.

use crate::time::Ns;

/// Service model of a simulated NIC.
#[derive(Debug, Clone, Copy)]
pub struct NicModel {
    /// Number of hardware queues (RSS channels). Shared kernels funnel
    /// every core through these; small instances get proportionally
    /// fewer but also proportionally fewer contenders.
    pub queues: u32,
    /// Descriptor-ring depth per queue; enqueueing beyond this fails.
    pub ring_slots: u32,
    /// Fixed per-packet processing cost (header parse, descriptor
    /// bookkeeping) paid by the softirq side per drained packet.
    pub per_pkt: Ns,
    /// Transfer time per byte in femtoseconds (ns/byte × 10⁶), matching
    /// [`crate::iodev::DeviceModel`]. 10 GbE ≈ 1.25 GB/s ⇒ 800_000.
    pub fs_per_byte: u64,
}

impl NicModel {
    /// A virtio-net device with `queues` queue pairs: 256-descriptor
    /// rings, ~10 GbE wire speed, sub-microsecond per-packet cost.
    pub fn virtio(queues: u32) -> Self {
        Self {
            queues: queues.max(1),
            ring_slots: 256,
            per_pkt: 450,
            fs_per_byte: 800_000,
        }
    }

    /// Deterministic wire/copy time for `bytes` payload bytes.
    pub fn service(&self, bytes: u64) -> Ns {
        self.per_pkt + bytes.saturating_mul(self.fs_per_byte) / 1_000_000
    }
}

/// Dynamic NIC state: per-queue backlog counters plus lifetime totals.
#[derive(Debug, Clone)]
pub struct NicState {
    /// The service model.
    pub model: NicModel,
    /// Descriptors pending softirq processing, per queue.
    pub pending: Vec<u64>,
    /// Round-robin cursor for budget-fair draining.
    next_queue: usize,
    /// Packets ever enqueued.
    pub enqueued: u64,
    /// Packets dropped because a ring was full.
    pub dropped: u64,
    /// Packets drained by NAPI polls.
    pub polled: u64,
}

impl NicState {
    /// Creates an idle NIC.
    pub fn new(model: NicModel) -> Self {
        Self {
            pending: vec![0; model.queues.max(1) as usize],
            model,
            next_queue: 0,
            enqueued: 0,
            dropped: 0,
            polled: 0,
        }
    }

    /// Returns the NIC to [`NicState::new`]`(model)`'s idle state in
    /// place: the queue vector is resized to the model's queue count
    /// without giving up its allocation.
    pub fn reset(&mut self, model: NicModel) {
        self.pending.clear();
        self.pending.resize(model.queues.max(1) as usize, 0);
        self.model = model;
        self.next_queue = 0;
        self.enqueued = 0;
        self.dropped = 0;
        self.polled = 0;
    }

    /// RSS queue selection: a multiplicative hash of the flow id, so
    /// distinct flows spread across queues deterministically.
    #[inline]
    pub fn queue_for(&self, flow: u64) -> usize {
        (flow.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.pending.len()
    }

    /// Posts one descriptor on `queue`. Returns `false` (and counts a
    /// drop) when the ring is full — the caller's backpressure signal.
    pub fn try_enqueue(&mut self, queue: usize) -> bool {
        let q = queue % self.pending.len();
        if self.pending[q] >= self.model.ring_slots as u64 {
            self.dropped += 1;
            return false;
        }
        self.pending[q] += 1;
        self.enqueued += 1;
        true
    }

    /// Total descriptors awaiting softirq processing across all queues.
    pub fn pending_total(&self) -> u64 {
        self.pending.iter().sum()
    }

    /// Drains up to `budget` descriptors round-robin across queues (one
    /// NAPI poll). Returns the number actually drained.
    pub fn poll(&mut self, budget: u64) -> u64 {
        let n_q = self.pending.len();
        let mut drained = 0;
        let mut idle_scans = 0;
        while drained < budget && idle_scans < n_q {
            let q = self.next_queue % n_q;
            if self.pending[q] > 0 {
                self.pending[q] -= 1;
                drained += 1;
                idle_scans = 0;
            } else {
                idle_scans += 1;
            }
            self.next_queue = (q + 1) % n_q;
        }
        self.polled += drained;
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_time_is_per_pkt_plus_transfer() {
        let m = NicModel {
            queues: 1,
            ring_slots: 16,
            per_pkt: 100,
            fs_per_byte: 2_000_000, // 2 ns/byte
        };
        assert_eq!(m.service(0), 100);
        assert_eq!(m.service(500), 1100);
    }

    #[test]
    fn full_ring_pushes_back() {
        let mut n = NicState::new(NicModel {
            queues: 1,
            ring_slots: 2,
            per_pkt: 0,
            fs_per_byte: 0,
        });
        assert!(n.try_enqueue(0));
        assert!(n.try_enqueue(0));
        assert!(!n.try_enqueue(0), "third descriptor exceeds the ring");
        assert_eq!(n.dropped, 1);
        assert_eq!(n.pending_total(), 2);
    }

    #[test]
    fn poll_is_budgeted_and_round_robin() {
        let mut n = NicState::new(NicModel::virtio(2));
        for _ in 0..10 {
            n.try_enqueue(0);
            n.try_enqueue(1);
        }
        assert_eq!(n.pending_total(), 20);
        assert_eq!(n.poll(6), 6);
        assert_eq!(n.pending_total(), 14);
        // Both queues made progress (round-robin fairness).
        assert!(n.pending.iter().all(|&p| p < 10));
        assert_eq!(n.poll(100), 14, "drains everything when under budget");
        assert_eq!(n.poll(100), 0, "idle poll drains nothing");
        assert_eq!(n.polled, 20);
    }

    #[test]
    fn reset_matches_a_new_nic() {
        let mut n = NicState::new(NicModel::virtio(8));
        for q in 0..8 {
            n.try_enqueue(q);
        }
        n.poll(3);
        for queues in [2, 8] {
            n.reset(NicModel::virtio(queues));
            let fresh = NicState::new(NicModel::virtio(queues));
            assert_eq!(format!("{n:?}"), format!("{fresh:?}"));
        }
    }

    #[test]
    fn queue_for_spreads_flows() {
        let n = NicState::new(NicModel::virtio(8));
        let hits: std::collections::BTreeSet<usize> = (0..64u64).map(|f| n.queue_for(f)).collect();
        assert!(hits.len() > 4, "flows spread over queues: {hits:?}");
        assert_eq!(n.queue_for(7), n.queue_for(7), "hash is deterministic");
    }
}
