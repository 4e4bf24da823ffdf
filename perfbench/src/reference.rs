//! The machine-speed reference: a fixed computation that calls no
//! simulator code, timed between trials in the same process.
//!
//! Host contention on a shared VM slows whole runs by 1.2–1.8× (CPU time
//! equals wall time: the instructions run slower, the process is not
//! descheduled), which no statistic over one run's trials can remove.
//! The reference runs the same kinds of work as the simulator's hot path
//! — a 4096-deep priority-queue hold model and scattered reads and writes
//! over a table larger than L2 — so contention slows it by about the same
//! factor, and a trial's time divided by the reference's time cancels it.
//! No change to the simulator can change the reference.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

const DEPTH: u64 = 4096;
const TABLE_WORDS: usize = 1 << 18;
const OPS: usize = 200_000;

/// Buffers allocated once, so timing the reference allocates nothing.
pub struct Reference {
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::with_capacity(DEPTH as usize + 1),
            table: vec![0; TABLE_WORDS],
        }
    }

    /// Runs the reference once and returns its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(self.run());
        t0.elapsed().as_secs_f64()
    }

    fn run(&mut self) -> u64 {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.heap.clear();
        for id in 0..DEPTH {
            self.heap.push(Reverse((next() % 100_000, id)));
        }
        let mask = TABLE_WORDS - 1;
        let mut acc = 0u64;
        for _ in 0..OPS {
            let Reverse((t, id)) = self.heap.pop().expect("the heap holds DEPTH entries");
            let slot = next() as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(t ^ id);
            acc ^= self.table[slot.wrapping_mul(7) & mask];
            self.heap.push(Reverse((t + 1 + next() % 20_000, id)));
        }
        acc
    }
}
