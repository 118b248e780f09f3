//! Bounded FIFO queues with occupancy statistics.
//!
//! Every queueing structure in the device (crossbar queues, vault
//! request/response queues) is a [`BoundedQueue`]; a full queue
//! produces [`HmcError::Stall`], the back-pressure signal that shapes
//! the paper's contention results.
//!
//! The device queues hold packet *envelopes* — `Box<TrackedRequest>`
//! and `Box<TrackedResponse>` — so a hop between queues moves one
//! pointer and a stalled push hands one pointer back. Retired
//! envelopes wait on a `FreeList` for the next packet.

use hmc_types::HmcError;
use std::collections::VecDeque;

/// A bounded FIFO with stall accounting and a high-water mark.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    depth: usize,
    high_water: usize,
    stalls: u64,
    pushed: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue with `depth` slots. Storage grows with the
    /// occupancy actually reached (a 16-cube mesh has over a thousand
    /// queues, most of them shallow or idle), so construction
    /// allocates nothing.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be nonzero");
        BoundedQueue {
            items: VecDeque::new(),
            depth,
            high_water: 0,
            stalls: 0,
            pushed: 0,
        }
    }

    /// Enqueues an item, or stalls when the queue is full. The item is
    /// handed back by value inside the error, so a stall never loses a
    /// packet — the caller keeps ownership and decides whether to
    /// retry, defer or drop. (An earlier `try_push` variant discarded
    /// the item on stall; it was removed so no call site can silently
    /// lose a packet under back-pressure.)
    pub fn push(&mut self, item: T) -> Result<(), (T, HmcError)> {
        if self.items.len() >= self.depth {
            self.stalls += 1;
            return Err((item, HmcError::Stall));
        }
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
        self.pushed += 1;
        Ok(())
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Peeks at the oldest item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.front()
    }

    /// Iterates over queued items, oldest first (snapshot/sanitizer
    /// introspection; does not disturb the queue).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True when at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.depth
    }

    /// Configured depth in slots.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of rejected pushes.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Cumulative accepted pushes over the queue's lifetime (the
    /// telemetry throughput counter — occupancy tells you *now*, this
    /// tells you *how much has flowed through*).
    pub fn pushes(&self) -> u64 {
        self.pushed
    }

    /// Rebuilds a queue from previously observed parts (checkpoint
    /// restore). `items` must not exceed `depth`; occupancy statistics
    /// are restored verbatim.
    pub(crate) fn from_parts(
        items: VecDeque<T>,
        depth: usize,
        high_water: usize,
        stalls: u64,
        pushed: u64,
    ) -> Self {
        assert!(depth > 0, "queue depth must be nonzero");
        assert!(items.len() <= depth, "restored occupancy exceeds queue depth");
        BoundedQueue { items, depth, high_water, stalls, pushed }
    }
}

/// A lazily grown stack of retired heap envelopes. Nothing is
/// allocated up front; once a workload's peak in-flight population
/// has passed through, every new packet reuses a retired envelope and
/// the steady-state cycle allocates nothing per packet.
#[derive(Debug)]
pub(crate) struct FreeList<T> {
    free: Vec<Box<T>>,
}

impl<T> Default for FreeList<T> {
    fn default() -> Self {
        FreeList { free: Vec::new() }
    }
}

impl<T> FreeList<T> {
    /// An envelope for the caller to fill in place: a retired one
    /// still holding its last packet (every field must be
    /// overwritten), or a fresh one holding `blank()`.
    pub(crate) fn stale_or(&mut self, blank: impl FnOnce() -> T) -> Box<T> {
        self.free.pop().unwrap_or_else(|| Box::new(blank()))
    }

    /// Retires an envelope for reuse.
    pub(crate) fn give(&mut self, envelope: Box<T>) {
        self.free.push(envelope);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> FreeList<T> {
        /// Retired envelopes waiting for reuse.
        pub(crate) fn len(&self) -> usize {
            self.free.len()
        }
    }

    #[test]
    fn fifo_ordering() {
        let mut q = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.push(3).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.peek(), Some(&3));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stall_when_full() {
        let mut q = BoundedQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert!(q.is_full());
        let (item, err) = q.push(3).unwrap_err();
        assert_eq!(item, 3, "ownership returned on stall");
        assert!(err.is_stall());
        assert_eq!(q.stalls(), 1);
        q.pop();
        q.push(3).unwrap();
    }

    #[test]
    fn no_item_lost_on_stall() {
        // Regression: a stalled push must never lose the packet. Every
        // item fed through a saturated queue comes out the other side
        // exactly once once the stalls retry.
        let mut q = BoundedQueue::new(3);
        let mut delivered = Vec::new();
        let mut retry = None;
        for i in 0..10 {
            let mut item = Some(i);
            while let Some(v) = retry.take().or_else(|| item.take()) {
                match q.push(v) {
                    Ok(()) => {}
                    Err((v, e)) => {
                        assert!(e.is_stall());
                        retry = Some(v);
                        delivered.push(q.pop().expect("full queue has items"));
                    }
                }
            }
        }
        while let Some(v) = q.pop() {
            delivered.push(v);
        }
        assert_eq!(delivered, (0..10).collect::<Vec<_>>(), "no loss, no reorder");
        assert_eq!(q.pushes(), 10);
        assert!(q.stalls() > 0, "the scenario actually exercised stalls");
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        for _ in 0..5 {
            q.pop();
        }
        q.push(9).unwrap();
        assert_eq!(q.high_water(), 5);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pushes(), 6, "cumulative throughput counts every accepted push");
    }

    #[test]
    fn free_list_reuses_retired_envelopes() {
        let mut list = FreeList::default();
        let mut first = list.stale_or(|| 1u64);
        let addr = &*first as *const u64;
        *first = 2;
        list.give(first);
        let stale = list.stale_or(|| unreachable!("a retired envelope is available"));
        assert_eq!((*stale, &*stale as *const u64), (2, addr), "same allocation, last value");
        assert_eq!(*list.stale_or(|| 7), 7, "empty list falls back to a fresh envelope");
    }

    #[test]
    #[should_panic(expected = "depth must be nonzero")]
    fn zero_depth_panics() {
        let _ = BoundedQueue::<u8>::new(0);
    }
}
