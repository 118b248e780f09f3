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
//! [`EventHeap::deliver_ready`] offers every due event to a delivery
//! function; an event it refuses this cycle (link down, destination
//! queue full) goes back under its *original* `(ready, seq)` key,
//! keeping its priority relative to everything behind it.
//!
//! [`EventHeap::sorted`] lists the items in `(ready, seq)` order
//! *without* the sequence numbers — the form snapshots store and the
//! state fingerprint walks — so two heaps holding the same events,
//! even built through different push/refusal histories or restored
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

/// A min-heap of time-deferred events ordered by `(ready, seq)`.
#[derive(Debug, Clone)]
pub(crate) struct EventHeap<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Due events [`EventHeap::deliver_ready`] is holding back this
    /// call. Empty between calls; kept for its capacity, so a
    /// steady-state cycle allocates nothing.
    refused: Vec<Entry<T>>,
    next_seq: u64,
}

impl<T> EventHeap<T> {
    pub(crate) fn new() -> Self {
        EventHeap { heap: BinaryHeap::new(), refused: Vec::new(), next_seq: 0 }
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

    /// The earliest due cycle, if any event is stored. O(1).
    pub(crate) fn peek_ready(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.ready)
    }

    /// Offers every event due at or before `cycle` to `deliver`, in
    /// `(ready, seq)` order. An event `deliver` hands back is offered
    /// no second time: it re-enters the heap under its original key
    /// once every due event has had its turn.
    pub(crate) fn deliver_ready(
        &mut self,
        cycle: u64,
        mut deliver: impl FnMut(T) -> Result<(), T>,
    ) {
        while self.peek_ready().is_some_and(|ready| ready <= cycle) {
            let Entry { ready, seq, item } = self.heap.pop().expect("peeked");
            if let Err(item) = deliver(item) {
                self.refused.push(Entry { ready, seq, item });
            }
        }
        if !self.refused.is_empty() {
            self.heap.extend(self.refused.drain(..));
        }
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

    /// Delivers every due event of `h` at `cycle`, refusing those
    /// `refuse` names; returns what was delivered, in order.
    fn deliver<T: Copy>(h: &mut EventHeap<T>, cycle: u64, refuse: impl Fn(T) -> bool) -> Vec<T> {
        let mut out = Vec::new();
        h.deliver_ready(cycle, |item| {
            if refuse(item) {
                return Err(item);
            }
            out.push(item);
            Ok(())
        });
        out
    }

    #[test]
    fn delivers_in_ready_then_insertion_order() {
        let mut h = EventHeap::new();
        h.push(5, "a");
        h.push(3, "b");
        h.push(5, "c");
        h.push(3, "d");
        assert_eq!(h.peek_ready(), Some(3));
        assert_eq!(h.len(), 4);
        assert!(deliver(&mut h, 2, |_| false).is_empty(), "nothing due before cycle 3");
        assert_eq!(deliver(&mut h, 10, |_| false), ["b", "d", "a", "c"]);
        assert!(h.is_empty());
    }

    #[test]
    fn future_events_stay_put() {
        let mut h = EventHeap::new();
        h.push(1, 10u32);
        h.push(7, 20);
        assert_eq!(deliver(&mut h, 1, |_| false), [10]);
        assert!(deliver(&mut h, 6, |_| false).is_empty(), "event at 7 is not due at 6");
        assert_eq!(h.peek_ready(), Some(7));
    }

    #[test]
    fn a_refused_event_is_offered_once_and_keeps_its_place() {
        let mut h = EventHeap::new();
        h.push(2, "first");
        h.push(2, "second");
        h.push(9, "later");
        // "first" is refused: "second" still goes, and "first" is not
        // offered again in the same call.
        assert_eq!(deliver(&mut h, 5, |item| item == "first"), ["second"]);
        assert_eq!(h.len(), 2);
        h.push(2, "third");
        // Back under its original key: ahead of an event pushed after it.
        assert_eq!(deliver(&mut h, 9, |_| false), ["first", "third", "later"]);
    }

    #[test]
    fn sorted_is_order_and_seq_independent() {
        let mut a = EventHeap::new();
        a.push(1, "x");
        a.push(2, "y");
        // Same events arriving through a different history: pushed,
        // refused and put back, with extra seq churn in between.
        let mut b = EventHeap::new();
        b.push(2, "y");
        b.push(1, "x");
        deliver(&mut b, 1, |_| true);
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
