//! Ready-cycle-ordered event storage for deferred packet movement.
//!
//! The simulation context holds two pools of time-deferred work:
//! inter-device transits (`in_transit`) and link-layer retry replays
//! (`retry_pending`). The original implementation kept both in plain
//! vectors and re-filtered the *entire* pool every cycle — O(n) per
//! cycle even when nothing was due. [`EventHeap`] replaces that with a
//! binary min-heap keyed on `(ready, seq)`:
//!
//! * `ready` orders events by due cycle, so a clock only ever touches
//!   events that are actually due — entries that are not ready are
//!   never moved;
//! * `seq` is a monotonic insertion counter that breaks ties, so
//!   events due on the same cycle pop in exactly the order the old
//!   vector processed them and the simulation stays bit-identical;
//! * [`EventHeap::peek_ready`] exposes the earliest due cycle in O(1),
//!   which is what the event-horizon engine's `next_event_cycle`
//!   consults to decide how far the clock may skip.
//!
//! An event that pops ready but cannot be delivered this cycle (link
//! down, destination queue full) is re-inserted with its *original*
//! `(ready, seq)` key via [`EventHeap::reinsert`], preserving its
//! priority relative to everything behind it.
//!
//! [`EventHeap::sorted`] lists the items in `(ready, seq)` order
//! *without* the sequence numbers — the form snapshots store and the
//! state fingerprint walks — so two heaps holding the same events,
//! even built through different push/reinsert histories or restored
//! from a snapshot with renumbered sequences, snapshot and
//! fingerprint identically.

use std::collections::BinaryHeap;

/// A heap entry: the item plus its ordering key.
#[derive(Debug, Clone)]
struct Entry<T> {
    ready: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ready == other.ready && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    /// Reversed on `(ready, seq)` so `BinaryHeap`'s max-heap pops the
    /// earliest event first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.ready, other.seq).cmp(&(self.ready, self.seq))
    }
}

/// The `(ready, seq)` key of a popped event, handed out alongside the
/// item so a failed delivery can re-insert without losing its place
/// in line.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EventKey {
    ready: u64,
    seq: u64,
}

/// A min-heap of time-deferred events ordered by `(ready, seq)`.
#[derive(Debug, Clone)]
pub(crate) struct EventHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventHeap<T> {
    pub(crate) fn new() -> Self {
        EventHeap { heap: BinaryHeap::new(), next_seq: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts an event due at `ready`, behind every event already
    /// inserted for that cycle.
    pub(crate) fn push(&mut self, ready: u64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { ready, seq, item });
    }

    /// Re-inserts a popped event with its original key (a delivery
    /// that stalled this cycle retries with unchanged priority).
    pub(crate) fn reinsert(&mut self, key: EventKey, item: T) {
        self.heap.push(Entry { ready: key.ready, seq: key.seq, item });
    }

    /// The earliest due cycle, if any event is stored. O(1).
    pub(crate) fn peek_ready(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.ready)
    }

    /// Pops the earliest event if it is due at or before `cycle`.
    pub(crate) fn pop_ready(&mut self, cycle: u64) -> Option<(EventKey, T)> {
        if self.peek_ready()? > cycle {
            return None;
        }
        let e = self.heap.pop().expect("peeked");
        Some((EventKey { ready: e.ready, seq: e.seq }, e.item))
    }

    /// Iterates the stored items in arbitrary order (for
    /// order-independent sums and filters).
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.heap.iter().map(|e| &e.item)
    }

    /// The stored items in `(ready, seq)` order — the deterministic
    /// flat form snapshots store and the state fingerprint walks.
    pub(crate) fn sorted(&self) -> Vec<&T> {
        let mut entries: Vec<&Entry<T>> = self.heap.iter().collect();
        entries.sort_unstable_by_key(|e| (e.ready, e.seq));
        entries.into_iter().map(|e| &e.item).collect()
    }

    /// Rebuilds a heap from items already in deterministic order (a
    /// snapshot's flat form): sequence numbers are renumbered 0..n,
    /// preserving the relative order the snapshot recorded.
    pub(crate) fn from_ordered(items: impl IntoIterator<Item = T>, ready_of: impl Fn(&T) -> u64) -> Self {
        let mut heap = EventHeap::new();
        for item in items {
            let ready = ready_of(&item);
            heap.push(ready, item);
        }
        heap
    }
}

impl<T> Default for EventHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_ready_then_insertion_order() {
        let mut h = EventHeap::new();
        h.push(5, "a");
        h.push(3, "b");
        h.push(5, "c");
        h.push(3, "d");
        assert_eq!(h.peek_ready(), Some(3));
        assert_eq!(h.len(), 4);

        // Nothing due before cycle 3.
        assert!(h.pop_ready(2).is_none());

        let order: Vec<&str> =
            std::iter::from_fn(|| h.pop_ready(10).map(|(_, item)| item)).collect();
        assert_eq!(order, ["b", "d", "a", "c"], "ready first, then insertion order");
        assert!(h.is_empty());
    }

    #[test]
    fn pop_ready_leaves_future_events() {
        let mut h = EventHeap::new();
        h.push(1, 10u32);
        h.push(7, 20);
        assert_eq!(h.pop_ready(1).unwrap().1, 10);
        assert!(h.pop_ready(6).is_none(), "event at 7 is not due at 6");
        assert_eq!(h.peek_ready(), Some(7));
    }

    #[test]
    fn reinsert_preserves_priority() {
        let mut h = EventHeap::new();
        h.push(2, "first");
        h.push(2, "second");
        // Pop the head, fail to deliver it, put it back: it must pop
        // before "second" again.
        let (key, item) = h.pop_ready(5).unwrap();
        assert_eq!(item, "first");
        h.reinsert(key, item);
        assert_eq!(h.pop_ready(5).unwrap().1, "first");
        assert_eq!(h.pop_ready(5).unwrap().1, "second");
    }

    #[test]
    fn reinsert_with_replacement_item_keeps_the_key() {
        let mut h = EventHeap::new();
        h.push(4, 1u32);
        h.push(4, 2);
        let (key, _) = h.pop_ready(4).unwrap();
        h.reinsert(key, 99);
        assert_eq!(h.pop_ready(4).unwrap().1, 99, "replacement kept its place");
        assert_eq!(h.pop_ready(4).unwrap().1, 2);
    }

    #[test]
    fn sorted_is_order_and_seq_independent() {
        let mut a = EventHeap::new();
        a.push(1, "x");
        a.push(2, "y");
        // Same events arriving through a different history: pushed,
        // popped and re-inserted, with extra seq churn in between.
        let mut b = EventHeap::new();
        b.push(2, "y");
        b.push(1, "x");
        let (key, item) = b.pop_ready(1).unwrap();
        b.reinsert(key, item);
        assert_eq!(a.sorted(), b.sorted());
        assert_eq!(a.sorted(), [&"x", &"y"]);
    }

    #[test]
    fn from_ordered_round_trips_through_sorted_items() {
        let mut h = EventHeap::new();
        h.push(9, (9u64, "late"));
        h.push(1, (1u64, "early"));
        h.push(9, (9u64, "late2"));
        let flat: Vec<(u64, &str)> = h.sorted().into_iter().copied().collect();
        let rebuilt = EventHeap::from_ordered(flat.clone(), |&(r, _)| r);
        assert_eq!(rebuilt.sorted(), flat.iter().collect::<Vec<_>>());
    }
}
