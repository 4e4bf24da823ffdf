//! Front-slot event priority queue.
//!
//! The engine's hot loop is pop-one/push-a-few millions of times per
//! trial. Once, about half of all pops (53% on the tailbench grid, 51%
//! under tenant churn, 14% on the varbench sweep) took an event that
//! was pushed as the new minimum, and the front slot below was built
//! for them. Most of those events are now never queued: a process
//! whose own next wake would be popped next keeps running in place
//! (`Engine::run`'s inline continuation). Of the pops that remain, the
//! front slot serves 5% on the tailbench grid, 7% under tenant churn
//! and 5% on the sweep. The structure:
//!
//! * **Front slot.** `front` holds the queue minimum whenever that
//!   minimum arrived by a push. A push below the front displaces it
//!   into the heap; a push into an empty front that beats the heap top
//!   takes the front; every other push goes into the heap. `pop` takes
//!   the front first, so a pushed-then-popped event never touches the
//!   heap.
//! * **4-ary implicit heap with inline payloads.** Each entry is the
//!   `(t, seq)` key packed into one `u128` (`t << 64 | seq`, so a key
//!   compare is one integer compare) plus the payload. A 4-ary layout
//!   halves the sift-down depth of a binary heap.
//!
//! Invariant: while the front is held, every heap key is larger than
//! the front's.
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
    front: Option<Entry<T>>,
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
            front: None,
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Number of queued events, the front slot included.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len() + usize::from(self.front.is_some())
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.front.is_none() && self.heap.is_empty()
    }

    /// Time of the minimum-key event, without popping it.
    #[inline]
    pub(crate) fn min_t(&self) -> Option<Ns> {
        // The front, when held, is the queue minimum.
        self.front
            .as_ref()
            .or(self.heap.first())
            .map(|e| (e.key >> 64) as Ns)
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
        match &mut self.front {
            Some(front) if entry.key < front.key => {
                let old = std::mem::replace(front, entry);
                self.heap_push(old);
            }
            Some(_) => self.heap_push(entry),
            None if self.heap.first().is_none_or(|top| entry.key < top.key) => {
                self.front = Some(entry);
            }
            None => self.heap_push(entry),
        }
    }

    /// Pops the minimum-key event, returning `(t, seq, payload)`.
    pub fn pop(&mut self) -> Option<(Ns, u64, T)> {
        if let Some(front) = self.front.take() {
            // The heap top is its minimum, so this covers every key.
            debug_assert!(
                self.heap.first().is_none_or(|top| top.key > front.key),
                "front slot is not the queue minimum"
            );
            return Some(front.into_parts());
        }
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
        let mut all: Vec<Entry<T>> = self.front.iter().chain(&self.heap).copied().collect();
        all.sort_unstable_by_key(|e| e.key);
        all.truncate(n);
        all.into_iter()
            .map(|e| {
                let (t, _, payload) = e.into_parts();
                (t, payload)
            })
            .collect()
    }

    #[inline]
    fn heap_push(&mut self, entry: Entry<T>) {
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
    fn repark_at_popped_key_while_front_is_held() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        q.push(20, 'c');
        let (t, seq, p) = q.pop().unwrap();
        assert_eq!(p, 'a');
        // 'b' lands in the empty front (it beats the heap top 'c').
        q.push(15, 'b');
        assert!(q.front.is_some());
        // Re-parking 'a' displaces 'b' from the front into the heap.
        q.push_keyed(t, seq, p);
        assert_eq!(q.front.map(|f| f.payload), Some('a'));
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn reserved_seq_push_displaces_the_front() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.push(10, 'b');
        assert_eq!(q.front.map(|f| f.payload), Some('b'));
        // Same time, earlier seq: the reserved key is the new minimum.
        q.push_keyed(10, seq, 'a');
        assert_eq!(q.front.map(|f| f.payload), Some('a'));
        assert_eq!(q.heap.len(), 1);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b']);
    }

    #[test]
    fn min_t_peeks_the_front_then_the_heap_top() {
        let mut q = EventQueue::new();
        assert_eq!(q.min_t(), None);
        q.push(20, 'b');
        q.push(30, 'c');
        assert_eq!(q.min_t(), Some(20));
        q.push(10, 'a');
        assert_eq!(q.min_t(), Some(10));
        q.pop();
        // Front now empty: the heap top is the minimum.
        assert!(q.front.is_none());
        assert_eq!(q.min_t(), Some(20));
    }

    #[test]
    fn len_counts_the_front() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(10, 1u32);
        assert!(q.front.is_some() && q.heap.is_empty());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.push(20, 2);
        q.push(5, 3);
        assert_eq!((q.len(), q.heap.len()), (3, 2));
        q.pop();
        assert!(q.front.is_none());
        assert_eq!(q.len(), 2);
    }
}
