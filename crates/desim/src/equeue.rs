//! Event priority queue.
//!
//! The engine's hot loop is pop-one/push-a-few millions of times per
//! trial. The queue is a 4-ary implicit heap with inline payloads: each
//! entry is the `(t, seq)` key packed into one `u128` (`t << 64 | seq`,
//! so a key compare is one integer compare) plus the payload. A 4-ary
//! layout halves the sift-down depth of a binary heap. An event that
//! would be popped straight after its push mostly never reaches the
//! queue: the engine continues the process in place instead
//! (`Engine::run`'s inline continuation).
//!
//! ## Determinism
//!
//! Keys are `(t, seq)` with `seq` unique per queue, so the key order is
//! a *total* order: every correct priority queue pops the exact same
//! sequence of events. The container cannot change any simulation
//! output — the tie-break rule is the `seq` component itself.

use crate::time::Ns;

/// A queued event: packed `(t, seq)` key and payload.
#[derive(Clone, Copy)]
pub(crate) struct Entry<T> {
    key: u128,
    payload: T,
}

impl<T> Entry<T> {
    #[inline]
    fn into_parts(self) -> (Ns, u64, T) {
        ((self.key >> 64) as Ns, self.key as u64, self.payload)
    }
}

/// Min-queue of `(t, seq)`-keyed events carrying a `T` payload.
pub struct EventQueue<T> {
    heap: Vec<Entry<T>>,
    next_seq: u64,
}

impl<T: Copy> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> EventQueue<T> {
    pub fn new() -> Self {
        Self {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of queued events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Time of the minimum-key event, without popping it.
    #[inline]
    pub(crate) fn min_t(&self) -> Option<Ns> {
        self.heap.first().map(|e| (e.key >> 64) as Ns)
    }

    /// Schedules `payload` at time `t`, after every event already
    /// scheduled for `t`.
    pub fn push(&mut self, t: Ns, payload: T) {
        let seq = self.reserve_seq();
        self.push_keyed(t, seq, payload);
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
    pub(crate) fn push_keyed(&mut self, t: Ns, seq: u64, payload: T) {
        debug_assert!(
            seq < self.next_seq,
            "replayed seq was never issued by this queue"
        );
        let entry = Entry {
            key: (t as u128) << 64 | seq as u128,
            payload,
        };
        let mut i = self.heap.len();
        self.heap.push(entry);
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[parent].key <= entry.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    /// Pops the minimum-key event, returning `(t, seq, payload)`.
    pub fn pop(&mut self) -> Option<(Ns, u64, T)> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            return Some(last.into_parts());
        }
        let top = self.heap[0];
        self.sift_down(last);
        Some(top.into_parts())
    }

    /// The `n` smallest-key events as `(t, payload)`, in key order.
    /// Sorts a copy of the queue: for diagnostics, not the hot path.
    pub(crate) fn earliest(&self, n: usize) -> Vec<(Ns, T)> {
        let mut all = self.heap.clone();
        all.sort_unstable_by_key(|e| e.key);
        all.truncate(n);
        all.into_iter()
            .map(|e| {
                let (t, _, payload) = e.into_parts();
                (t, payload)
            })
            .collect()
    }

    /// Fills the hole at the root with `entry`, moving it down to its
    /// place.
    #[inline]
    fn sift_down(&mut self, entry: Entry<T>) {
        let heap = &mut self.heap[..];
        let len = heap.len();
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let kids = &heap[first..(first + 4).min(len)];
            let mut min = 0;
            let mut min_key = kids[0].key;
            for (c, kid) in kids.iter().enumerate().skip(1) {
                if kid.key < min_key {
                    min = c;
                    min_key = kid.key;
                }
            }
            if entry.key <= min_key {
                break;
            }
            heap[i] = heap[first + min];
            i = first + min;
        }
        heap[i] = entry;
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

    #[test]
    fn min_t_peeks_the_heap_top() {
        let mut q = EventQueue::new();
        assert_eq!(q.min_t(), None);
        q.push(20, 'b');
        q.push(30, 'c');
        assert_eq!(q.min_t(), Some(20));
        q.push(10, 'a');
        assert_eq!(q.min_t(), Some(10));
        q.pop();
        assert_eq!(q.min_t(), Some(20));
    }
}
