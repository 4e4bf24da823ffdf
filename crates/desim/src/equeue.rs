//! Index-addressed event priority queue over a slab of event records.
//!
//! The engine's hot loop is pop-one/push-a-few millions of times per
//! trial, so the queue is built for that shape:
//!
//! * **Slab storage.** Event records live in a flat `Vec` and are
//!   addressed by stable [`EventId`] handles (`slot` + generation).
//!   Freed slots go on a LIFO free list and are reused, so the
//!   steady-state path performs no allocation once the slab has grown
//!   to the trial's peak depth.
//! * **4-ary implicit heap.** Ordering lives in a separate dense heap
//!   of 24-byte `(t, seq, slot)` entries. A 4-ary layout halves the
//!   sift-down depth vs a binary heap and keeps each node's children
//!   in one cache line.
//! * **Lazy cancellation.** [`cancel`](EventQueue::cancel) marks the
//!   record dead and bumps its generation; the heap entry is skipped
//!   (and the slot freed) when it surfaces at the top. Stale
//!   `EventId`s are detected by generation mismatch.
//!
//! ## Determinism
//!
//! Keys are `(t, seq)` with `seq` unique per queue, so the key order is
//! a *total* order: every correct priority queue pops the exact same
//! sequence of events. Swapping the binary `BinaryHeap<Reverse<Event>>`
//! for this structure therefore cannot change any simulation output —
//! the tie-break rule is the `seq` component itself, not any property
//! of the container.

use crate::time::Ns;

const NIL: u32 = u32::MAX;

/// Stable handle to a scheduled event. Survives arbitrary queue churn;
/// using it after the event fired (or was cancelled) is detected by a
/// generation check and reported as "not live".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

struct Record<T> {
    seq: u64,
    gen: u32,
    /// Next slot on the free list; `NIL` while the record is live.
    next_free: u32,
    /// False once cancelled or popped (the heap entry may linger).
    live: bool,
    payload: T,
}

/// Heap entry: the full comparison key plus the slab slot. Keeping the
/// key here (not just the slot) means sift operations never touch the
/// slab — the heap is a dense array of 24-byte PODs.
#[derive(Clone, Copy)]
struct Entry {
    t: Ns,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (Ns, u64) {
        (self.t, self.seq)
    }
}

/// Min-queue of `(t, seq)`-keyed events carrying a `T` payload.
pub struct EventQueue<T> {
    records: Vec<Record<T>>,
    free_head: u32,
    heap: Vec<Entry>,
    next_seq: u64,
    /// Live (scheduled, not cancelled) events.
    live: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        Self {
            records: Vec::new(),
            free_head: NIL,
            heap: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Number of live events.
    #[inline]
    pub fn len(&self) -> usize {
        self.live
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slab capacity actually materialized (live + free slots). Exposed
    /// so tests can assert free-list reuse keeps the slab from growing.
    pub fn slab_len(&self) -> usize {
        self.records.len()
    }

    /// Schedules `payload` at time `t`, after every event already
    /// scheduled for `t`. Returns a stable handle for cancellation.
    pub fn push(&mut self, t: Ns, payload: T) -> EventId {
        let seq = self.reserve_seq();
        self.push_keyed(t, seq, payload)
    }

    /// Takes the seq the next [`push`](Self::push) would have used,
    /// without scheduling anything. Pushing at the reserved key later
    /// with [`push_keyed`](Self::push_keyed) orders the event exactly as
    /// if it had been pushed now.
    pub(crate) fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Inserts an event at an explicit `(t, seq)` key — used to park a
    /// popped event back at a budget boundary, or to push at a key
    /// taken earlier, without disturbing its position relative to other
    /// arrivals. The caller must only use keys obtained from
    /// [`pop`](Self::pop) or [`reserve_seq`](Self::reserve_seq).
    pub(crate) fn push_keyed(&mut self, t: Ns, seq: u64, payload: T) -> EventId {
        debug_assert!(
            seq < self.next_seq,
            "replayed seq was never issued by this queue"
        );
        let slot = if self.free_head != NIL {
            let slot = self.free_head;
            let rec = &mut self.records[slot as usize];
            self.free_head = rec.next_free;
            rec.seq = seq;
            rec.next_free = NIL;
            rec.live = true;
            rec.payload = payload;
            slot
        } else {
            let slot = self.records.len() as u32;
            self.records.push(Record {
                seq,
                gen: 0,
                next_free: NIL,
                live: true,
                payload,
            });
            slot
        };
        let gen = self.records[slot as usize].gen;
        self.heap.push(Entry { t, seq, slot });
        self.sift_up(self.heap.len() - 1);
        self.live += 1;
        EventId { slot, gen }
    }

    /// Cancels the event behind `id` if it is still live. Returns
    /// whether anything was cancelled (false for fired/stale handles).
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(rec) = self.records.get_mut(id.slot as usize) else {
            return false;
        };
        if !rec.live || rec.gen != id.gen {
            return false;
        }
        rec.live = false;
        rec.gen = rec.gen.wrapping_add(1);
        self.live -= 1;
        // The heap entry stays; `pop` skips and frees it lazily.
        true
    }

    /// Pops the minimum-key live event, returning `(t, seq, payload)`.
    pub fn pop(&mut self) -> Option<(Ns, u64, T)>
    where
        T: Copy,
    {
        loop {
            let top = *self.heap.first()?;
            self.remove_top();
            let rec = &mut self.records[top.slot as usize];
            let was_live = rec.live && rec.seq == top.seq;
            if was_live {
                rec.live = false;
                rec.gen = rec.gen.wrapping_add(1);
            }
            // Free the slot in both cases: a cancelled record's slot is
            // only reclaimed once its heap entry surfaces here.
            let payload = rec.payload;
            rec.next_free = self.free_head;
            self.free_head = top.slot;
            if was_live {
                self.live -= 1;
                return Some((top.t, top.seq, payload));
            }
        }
    }

    fn remove_top(&mut self) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.pop();
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[parent].key() <= entry.key() {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        let entry = self.heap[i];
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let mut min = first;
            let mut min_key = self.heap[first].key();
            let end = (first + 4).min(len);
            for c in first + 1..end {
                let k = self.heap[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if entry.key() <= min_key {
                break;
            }
            self.heap[i] = self.heap[min];
            i = min;
        }
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(30, 'c');
        q.push(10, 'a');
        q.push(10, 'b');
        q.push(20, 'x');
        let mut out = Vec::new();
        while let Some((t, _, p)) = q.pop() {
            out.push((t, p));
        }
        assert_eq!(out, vec![(10, 'a'), (10, 'b'), (20, 'x'), (30, 'c')]);
    }

    #[test]
    fn interleaved_pushes_at_same_time_preserve_push_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(5, i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().map(|(_, _, p)| p), Some(i));
        }
    }

    #[test]
    fn free_list_reuse_bounds_the_slab() {
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            q.push(round, round);
            q.push(round, round + 1);
            q.pop();
            q.pop();
        }
        assert!(q.slab_len() <= 2, "slab grew to {}", q.slab_len());
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_removes_event_and_detects_stale_ids() {
        let mut q = EventQueue::new();
        let a = q.push(10, 'a');
        let b = q.push(20, 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel must fail");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, _, p)| p), Some('b'));
        assert!(!q.cancel(b), "cancel after pop must fail");
        // The freed slot is reused; the old handle must stay stale.
        let c = q.push(30, 'c');
        assert!(!q.cancel(a));
        assert!(q.cancel(c));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancelled_slot_is_reclaimed_after_pop_passes_it() {
        let mut q = EventQueue::new();
        let a = q.push(10, 1u32);
        q.push(20, 2u32);
        q.cancel(a);
        // Popping the live event first surfaces the cancelled entry.
        assert_eq!(q.pop().map(|(_, _, p)| p), Some(2));
        assert!(q.pop().is_none());
        // Both slots are back on the free list.
        q.push(1, 3u32);
        q.push(2, 4u32);
        assert_eq!(q.slab_len(), 2);
    }

    #[test]
    fn park_and_replay_keeps_relative_order() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        q.push(10, 'b');
        let (t, seq, p) = q.pop().unwrap();
        assert_eq!(p, 'a');
        // Park it back (budget boundary), then push a later arrival
        // at the same time: the parked event must still pop first.
        q.push_keyed(t, seq, p);
        q.push(10, 'z');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'z']);
    }

    #[test]
    fn reserved_seq_orders_as_if_pushed_then() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        let seq = q.reserve_seq();
        q.push(10, 'c');
        q.push(5, 'x');
        // Pushed last, but at the reserved key: between 'a' and 'c'.
        q.push_keyed(10, seq, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['x', 'a', 'b', 'c']);
    }
}
