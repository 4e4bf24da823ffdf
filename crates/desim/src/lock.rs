//! Simulated kernel synchronization primitives.

use std::collections::VecDeque;

use crate::process::Pid;
use crate::time::Ns;

/// Identifier of a simulated lock within one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u32);

impl LockId {
    /// Index into the engine's lock table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Kind of synchronization primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// Queued spinlock: FIFO handoff, interrupts disabled while held
    /// (matching Linux `spin_lock_irqsave` sections — the common case for
    /// the global locks we model). Waiters burn CPU, but the engine models
    /// only the ordering, not the burnt cycles.
    Spin,
    /// Sleeping mutex: FIFO handoff plus a scheduler wake-up latency.
    Mutex,
    /// Reader-writer sleeping lock (e.g. `mmap_sem`): multiple readers or
    /// one writer. Waiting writers block new readers (fair/writer-preferring
    /// queueing, like Linux rwsems), which is what turns a single writer
    /// into a convoy — a key variability mechanism.
    RwLock,
}

/// Acquisition mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockMode {
    /// Exclusive (writer) acquisition. The only valid mode for `Spin` and
    /// `Mutex` locks.
    Exclusive,
    /// Shared (reader) acquisition; only valid for `RwLock`.
    Shared,
}

/// Who currently holds a lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Holder {
    /// Nobody.
    Free,
    /// One exclusive owner.
    Exclusive(Pid),
    /// `n` readers (RwLock only).
    Shared(u32),
}

/// Dynamic state of one lock.
#[derive(Debug)]
pub struct LockState {
    /// The primitive kind.
    pub kind: LockKind,
    /// Current holder(s).
    pub holder: Holder,
    /// FIFO queue of waiters: `(pid, mode, enqueue time)`. The enqueue
    /// timestamp is what turns contention *counts* into wait *durations*
    /// (the lockstat analogue).
    pub waiters: VecDeque<(Pid, LockMode, Ns)>,
    /// Debug label for stall diagnostics.
    pub label: &'static str,
    /// Total number of acquisitions (contention accounting).
    pub acquisitions: u64,
    /// Number of acquisitions that had to wait.
    pub contended: u64,
    /// Total enqueue → grant wait across all contended acquisitions.
    pub total_wait_ns: Ns,
    /// Longest single enqueue → grant wait.
    pub max_wait_ns: Ns,
    /// When the current exclusive holder took ownership (hold-time
    /// tracing; meaningless while free or reader-held).
    pub held_since: Ns,
}

impl LockState {
    /// Creates a free lock.
    pub fn new(kind: LockKind, label: &'static str) -> Self {
        Self {
            kind,
            holder: Holder::Free,
            waiters: VecDeque::new(),
            label,
            acquisitions: 0,
            contended: 0,
            total_wait_ns: 0,
            max_wait_ns: 0,
            held_since: 0,
        }
    }

    /// Accounts one contended acquisition's enqueue → grant wait.
    pub fn record_wait(&mut self, wait: Ns) {
        self.total_wait_ns += wait;
        if wait > self.max_wait_ns {
            self.max_wait_ns = wait;
        }
    }

    /// Attempts an immediate acquisition for `pid`. Returns `true` when
    /// granted. FIFO fairness: an arrival never barges past queued waiters.
    pub fn try_acquire(&mut self, pid: Pid, mode: LockMode) -> bool {
        debug_assert!(
            !(matches!(self.kind, LockKind::Spin | LockKind::Mutex) && mode == LockMode::Shared),
            "shared acquisition of non-rw lock {}",
            self.label
        );
        if !self.waiters.is_empty() {
            return false;
        }
        match (&mut self.holder, mode) {
            (Holder::Free, LockMode::Exclusive) => {
                self.holder = Holder::Exclusive(pid);
                self.acquisitions += 1;
                true
            }
            (Holder::Free, LockMode::Shared) => {
                self.holder = Holder::Shared(1);
                self.acquisitions += 1;
                true
            }
            (Holder::Shared(n), LockMode::Shared) => {
                *n += 1;
                self.acquisitions += 1;
                true
            }
            _ => false,
        }
    }

    /// Releases the lock held by `pid` (or one reader reference). Returns
    /// the set of waiters to grant now — `(pid, mode, enqueue time)` —
    /// either one exclusive waiter or a leading batch of shared waiters.
    ///
    /// Allocating convenience over [`LockState::release_into`]; the
    /// engine's hot path passes a reusable buffer instead.
    pub fn release(&mut self, pid: Pid) -> Vec<(Pid, LockMode, Ns)> {
        let mut granted = Vec::new();
        self.release_into(pid, &mut granted);
        granted
    }

    /// [`LockState::release`] appending the granted waiters to `out`
    /// (which is not cleared first) instead of allocating.
    pub fn release_into(&mut self, pid: Pid, out: &mut Vec<(Pid, LockMode, Ns)>) {
        match &mut self.holder {
            Holder::Exclusive(owner) => {
                assert_eq!(*owner, pid, "{}: release by non-owner", self.label);
                self.holder = Holder::Free;
            }
            Holder::Shared(n) => {
                assert!(*n > 0, "{}: reader release underflow", self.label);
                *n -= 1;
                if *n > 0 {
                    return;
                }
                self.holder = Holder::Free;
            }
            Holder::Free => panic!("{}: release of free lock", self.label),
        }
        self.grant_waiters(out);
    }

    /// Pops the waiters that can run now that the lock is free.
    fn grant_waiters(&mut self, granted: &mut Vec<(Pid, LockMode, Ns)>) {
        match self.waiters.front() {
            None => {}
            Some((_, LockMode::Exclusive, _)) => {
                let (p, m, since) = self.waiters.pop_front().unwrap();
                self.holder = Holder::Exclusive(p);
                self.acquisitions += 1;
                granted.push((p, m, since));
            }
            Some((_, LockMode::Shared, _)) => {
                let mut n = 0;
                while matches!(self.waiters.front(), Some((_, LockMode::Shared, _))) {
                    let (p, m, since) = self.waiters.pop_front().unwrap();
                    n += 1;
                    self.acquisitions += 1;
                    granted.push((p, m, since));
                }
                self.holder = Holder::Shared(n);
            }
        }
    }

    /// Enqueues `pid` as a waiter arriving at virtual time `now`.
    pub fn enqueue(&mut self, pid: Pid, mode: LockMode, now: Ns) {
        self.contended += 1;
        self.waiters.push_back((pid, mode, now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> Pid {
        Pid(n)
    }

    #[test]
    fn exclusive_handoff_is_fifo() {
        let mut l = LockState::new(LockKind::Spin, "t");
        assert!(l.try_acquire(pid(1), LockMode::Exclusive));
        assert!(!l.try_acquire(pid(2), LockMode::Exclusive));
        l.enqueue(pid(2), LockMode::Exclusive, 10);
        assert!(!l.try_acquire(pid(3), LockMode::Exclusive));
        l.enqueue(pid(3), LockMode::Exclusive, 20);
        let g = l.release(pid(1));
        assert_eq!(g, vec![(pid(2), LockMode::Exclusive, 10)]);
        let g = l.release(pid(2));
        assert_eq!(g, vec![(pid(3), LockMode::Exclusive, 20)]);
        assert!(l.release(pid(3)).is_empty());
        assert_eq!(l.holder, Holder::Free);
    }

    #[test]
    fn readers_share_and_batch() {
        let mut l = LockState::new(LockKind::RwLock, "rw");
        assert!(l.try_acquire(pid(1), LockMode::Shared));
        assert!(l.try_acquire(pid(2), LockMode::Shared));
        // Writer waits behind 2 readers.
        assert!(!l.try_acquire(pid(3), LockMode::Exclusive));
        l.enqueue(pid(3), LockMode::Exclusive, 5);
        // New reader cannot barge past the queued writer.
        assert!(!l.try_acquire(pid(4), LockMode::Shared));
        l.enqueue(pid(4), LockMode::Shared, 6);
        assert!(!l.try_acquire(pid(5), LockMode::Shared));
        l.enqueue(pid(5), LockMode::Shared, 7);

        assert!(l.release(pid(1)).is_empty(), "still one reader left");
        let g = l.release(pid(2));
        assert_eq!(g, vec![(pid(3), LockMode::Exclusive, 5)]);
        // Writer release grants the reader batch at once.
        let g = l.release(pid(3));
        assert_eq!(
            g,
            vec![(pid(4), LockMode::Shared, 6), (pid(5), LockMode::Shared, 7)]
        );
        assert_eq!(l.holder, Holder::Shared(2));
    }

    #[test]
    fn contention_counters() {
        let mut l = LockState::new(LockKind::Mutex, "m");
        assert!(l.try_acquire(pid(1), LockMode::Exclusive));
        l.enqueue(pid(2), LockMode::Exclusive, 0);
        l.release(pid(1));
        l.release(pid(2));
        assert_eq!(l.acquisitions, 2);
        assert_eq!(l.contended, 1);
    }

    #[test]
    fn wait_accounting_totals_max_and_buckets() {
        let mut l = LockState::new(LockKind::Spin, "w");
        l.record_wait(0);
        l.record_wait(1);
        l.record_wait(1000);
        l.record_wait(1 << 20);
        assert_eq!(l.total_wait_ns, 1 + 1000 + (1 << 20));
        assert_eq!(l.max_wait_ns, 1 << 20);
    }

    #[test]
    #[should_panic(expected = "release of free lock")]
    fn release_free_panics() {
        let mut l = LockState::new(LockKind::Spin, "t");
        l.release(pid(1));
    }

    #[test]
    #[should_panic(expected = "release by non-owner")]
    fn release_by_non_owner_panics() {
        let mut l = LockState::new(LockKind::Spin, "t");
        assert!(l.try_acquire(pid(1), LockMode::Exclusive));
        l.release(pid(2));
    }
}
