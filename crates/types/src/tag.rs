//! Request tag allocation.
//!
//! Every non-posted request carries a tag that the host uses to match
//! the eventual response. The Gen2 header provides an 11-bit tag field,
//! so up to 2048 requests may be in flight per requester. [`TagPool`]
//! hands out tags in FIFO order and recycles them on response receipt,
//! mirroring the tag management in HMC-Sim host drivers.

use crate::error::HmcError;
use std::collections::VecDeque;

/// Width of the tag field in the request header.
pub const TAG_BITS: u32 = 11;

/// Number of distinct tags (2048).
pub const TAG_SPACE: u32 = 1 << TAG_BITS;

/// A validated request tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Tag(u16);

impl Tag {
    /// Creates a tag, validating it against the 11-bit tag space.
    pub fn new(value: u32) -> Result<Self, HmcError> {
        if value < TAG_SPACE {
            Ok(Tag(value as u16))
        } else {
            Err(HmcError::InvalidTag(value))
        }
    }

    /// The raw tag value.
    #[inline]
    pub fn value(self) -> u16 {
        self.0
    }
}

impl std::fmt::Display for Tag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tag{}", self.0)
    }
}

/// A FIFO pool of request tags.
///
/// ```
/// use hmc_types::TagPool;
/// let mut pool = TagPool::with_capacity(4);
/// let t0 = pool.acquire().unwrap();
/// let t1 = pool.acquire().unwrap();
/// assert_ne!(t0, t1);
/// pool.release(t0).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct TagPool {
    /// Recycling order (front = next tag handed out).
    free: VecDeque<Tag>,
    /// Membership of `free`, kept in step by every mutator so that
    /// [`TagPool::audit`] never has to walk the list.
    is_free: TagSet,
    in_flight: TagSet,
    capacity: u32,
}

impl TagPool {
    /// A pool over the full 11-bit tag space.
    pub fn full() -> Self {
        Self::with_capacity(TAG_SPACE)
    }

    /// A pool restricted to tags `0..capacity` (capacity clamped to
    /// the tag space). Smaller pools model hosts with limited MSHRs.
    pub fn with_capacity(capacity: u32) -> Self {
        let capacity = capacity.min(TAG_SPACE);
        TagPool {
            free: (0..capacity).map(|v| Tag(v as u16)).collect(),
            is_free: TagSet::below(capacity),
            in_flight: TagSet::new(),
            capacity,
        }
    }

    /// Acquires the next free tag, or [`HmcError::TagsExhausted`] when
    /// every tag is in flight.
    pub fn acquire(&mut self) -> Result<Tag, HmcError> {
        let tag = self.free.pop_front().ok_or(HmcError::TagsExhausted)?;
        self.is_free.remove(tag);
        self.in_flight.insert(tag);
        Ok(tag)
    }

    /// Returns a tag to the pool. Rejects tags that were not in flight
    /// (double release or foreign tag), which would otherwise corrupt
    /// response matching.
    pub fn release(&mut self, tag: Tag) -> Result<(), HmcError> {
        if !self.in_flight.remove(tag) {
            return Err(HmcError::InvalidTag(tag.0 as u32));
        }
        self.is_free.insert(tag);
        self.free.push_back(tag);
        Ok(())
    }

    /// Number of tags currently in flight.
    pub fn in_flight(&self) -> usize {
        self.capacity as usize - self.free.len()
    }

    /// Number of tags available for acquisition.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// The pool's configured capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// True when `tag` is currently in flight (acquired and not yet
    /// released). Tags outside the pool's range are never live.
    pub fn is_live(&self, tag: Tag) -> bool {
        self.in_flight.contains(tag)
    }

    /// The free list in FIFO order (front = next tag to be handed
    /// out). Checkpoint serialization must preserve this order — the
    /// in-flight map is derivable, the recycling order is not.
    pub fn free_tags(&self) -> impl Iterator<Item = Tag> + '_ {
        self.free.iter().copied()
    }

    /// Rebuilds a pool from a checkpointed capacity and ordered free
    /// list. The in-flight map is derived as the complement of `free`.
    /// Rejects out-of-range capacity, out-of-range tags and duplicate
    /// free entries with a description of the inconsistency.
    pub fn from_free_list(capacity: u32, free: Vec<Tag>) -> Result<Self, String> {
        if capacity > TAG_SPACE {
            return Err(format!("capacity {capacity} exceeds tag space {TAG_SPACE}"));
        }
        let mut is_free = TagSet::new();
        for &tag in &free {
            if tag.0 as u32 >= capacity {
                return Err(format!("free tag {} outside capacity {capacity}", tag.0));
            }
            if !is_free.insert(tag) {
                return Err(format!("tag {} duplicated on the free list", tag.0));
            }
        }
        let mut in_flight = TagSet::below(capacity);
        for (live, free) in in_flight.bits.iter_mut().zip(&is_free.bits) {
            *live &= !free;
        }
        Ok(TagPool { free: free.into(), is_free, in_flight, capacity })
    }

    /// Checks the pool's internal consistency: the free list and the
    /// in-flight map must partition the capacity exactly, with no tag
    /// both free and marked in flight and no duplicate free entries.
    /// Returns a description of the first inconsistency found.
    ///
    /// The sanitizer runs this on every pool at every clock boundary,
    /// so a sound pool is proved sound a word at a time: the two bit
    /// maps are disjoint and together cover `0..capacity`, which leaves
    /// one count to take — the list is as long as its membership map
    /// exactly when list and live tags add up to the capacity.
    /// Anything else goes to [`TagPool::audit_in_full`] for its
    /// verdict and its wording.
    pub fn audit(&self) -> Result<(), String> {
        // Bits that break the partition: a tag in both maps, or in
        // neither below `capacity`, or in either at and above it.
        let whole = self.capacity as usize / 64;
        let maps = || self.is_free.bits.iter().zip(&self.in_flight.bits);
        let inside = maps().take(whole).fold(0, |bad, (free, live)| bad | (free & live) | !(free | live));
        let broken = maps().enumerate().skip(whole).fold(inside, |bad, (word, (free, live))| {
            bad | (free & live) | ((free | live) ^ TagSet::word_below(self.capacity, word))
        });
        if broken == 0 && self.free.len() + self.in_flight.count() == self.capacity as usize {
            return Ok(());
        }
        self.audit_in_full()
    }

    /// The audit check by check, naming the first inconsistency (or
    /// none: a live tag outside the capacity that stands in for a
    /// missing one is tolerated, as it always was).
    #[cold]
    fn audit_in_full(&self) -> Result<(), String> {
        let live = self.in_flight.count();
        if self.free.len() + live != self.capacity as usize {
            return Err(format!(
                "free ({}) + live ({live}) != capacity ({})",
                self.free.len(),
                self.capacity
            ));
        }
        for (word, &free) in self.is_free.bits.iter().enumerate() {
            let lowest = |bits: u64| word as u32 * 64 + bits.trailing_zeros();
            let outside = free & !TagSet::word_below(self.capacity, word);
            if outside != 0 {
                return Err(format!(
                    "free tag {} outside capacity {}",
                    lowest(outside),
                    self.capacity
                ));
            }
            let both = free & self.in_flight.bits[word];
            if both != 0 {
                return Err(format!("tag {} is both free and in flight", lowest(both)));
            }
        }
        // A set holds a tag once, so a list longer than its membership
        // map repeats an entry. Naming it walks the list.
        let members = self.is_free.count();
        if self.free.len() != members {
            let mut seen = TagSet::new();
            return Err(match self.free.iter().find(|&&tag| !seen.insert(tag)) {
                Some(tag) => format!("tag {} duplicated on the free list", tag.0),
                None => format!(
                    "free list ({}) and its membership map ({members}) disagree",
                    self.free.len()
                ),
            });
        }
        Ok(())
    }

    /// The lowest tag of `tags` that is not in flight, if there is one
    /// (the sanitizer's registered-tags check: one AND per word).
    pub fn first_not_live(&self, tags: &TagSet) -> Option<Tag> {
        let mut words = tags.bits.iter().zip(&self.in_flight.bits).enumerate();
        words.find_map(|(word, (&tags, &live))| {
            let stray = tags & !live;
            (stray != 0).then(|| Tag(word as u16 * 64 + stray.trailing_zeros() as u16))
        })
    }
}

/// Test backdoors: corruption behind the pool's back, for exercising
/// [`TagPool::audit`] and the sanitizer's reports of it.
#[doc(hidden)]
impl TagPool {
    /// Rewrites one bit of the in-flight map.
    pub fn debug_set_live(&mut self, tag: Tag, live: bool) {
        if live {
            self.in_flight.insert(tag);
        } else {
            self.in_flight.remove(tag);
        }
    }

    /// Puts `tag` on the free list whatever its state.
    pub fn debug_push_free(&mut self, tag: Tag) {
        self.free.push_back(tag);
        self.is_free.insert(tag);
    }
}

impl Default for TagPool {
    fn default() -> Self {
        Self::full()
    }
}

/// A set of tags stored as a fixed [`TAG_SPACE`]-bit map: membership
/// updates are one shift and mask (no hashing), and iteration yields
/// the members in ascending order, the order checkpoints list them in.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct TagSet {
    bits: [u64; (TAG_SPACE / 64) as usize],
}

impl TagSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Word `word` of the set `0..n`.
    fn word_below(n: u32, word: usize) -> u64 {
        match n.saturating_sub(word as u32 * 64) {
            0 => 0,
            k @ 1..=63 => (1 << k) - 1,
            _ => u64::MAX,
        }
    }

    /// The tags `0..n` (`n` at most [`TAG_SPACE`]).
    fn below(n: u32) -> Self {
        TagSet { bits: std::array::from_fn(|word| Self::word_below(n, word)) }
    }

    /// How many tags the set holds.
    fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The word index and bit mask of `tag`.
    fn slot(tag: Tag) -> (usize, u64) {
        (tag.0 as usize / 64, 1u64 << (tag.0 % 64))
    }

    /// Adds `tag`; returns whether it was newly inserted.
    pub fn insert(&mut self, tag: Tag) -> bool {
        let (word, bit) = Self::slot(tag);
        let fresh = self.bits[word] & bit == 0;
        self.bits[word] |= bit;
        fresh
    }

    /// Removes `tag`; returns whether it was present.
    pub fn remove(&mut self, tag: Tag) -> bool {
        let (word, bit) = Self::slot(tag);
        let present = self.bits[word] & bit != 0;
        self.bits[word] &= !bit;
        present
    }

    /// True when `tag` is a member.
    pub fn contains(&self, tag: Tag) -> bool {
        let (word, bit) = Self::slot(tag);
        self.bits[word] & bit != 0
    }

    /// The members in ascending order. Costs one step per word plus
    /// one per member — the sanitizer walks every link's set every
    /// cycle, and the sets are mostly empty.
    pub fn iter(&self) -> impl Iterator<Item = Tag> + '_ {
        self.bits.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as u16)?;
                rest &= rest - 1;
                Some(Tag(i as u16 * 64 + bit))
            })
        })
    }

    /// Keeps only the members `keep` approves.
    pub fn retain(&mut self, mut keep: impl FnMut(Tag) -> bool) {
        for tag in (0..TAG_SPACE as u16).map(Tag) {
            if self.contains(tag) && !keep(tag) {
                self.remove(tag);
            }
        }
    }
}

impl std::fmt::Debug for TagSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter().map(Tag::value)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_validation() {
        assert!(Tag::new(0).is_ok());
        assert!(Tag::new(TAG_SPACE - 1).is_ok());
        assert!(Tag::new(TAG_SPACE).is_err());
    }

    #[test]
    fn acquire_release_cycle() {
        let mut pool = TagPool::with_capacity(2);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.in_flight(), 2);
        assert!(pool.acquire().is_err());
        pool.release(a).unwrap();
        assert_eq!(pool.available(), 1);
        let c = pool.acquire().unwrap();
        assert_eq!(c, a, "FIFO recycling");
    }

    #[test]
    fn double_release_rejected() {
        let mut pool = TagPool::with_capacity(2);
        let a = pool.acquire().unwrap();
        pool.release(a).unwrap();
        assert!(pool.release(a).is_err());
    }

    #[test]
    fn foreign_tag_rejected() {
        let mut pool = TagPool::with_capacity(2);
        assert!(pool.release(Tag(7)).is_err());
    }

    #[test]
    fn full_pool_spans_tag_space() {
        let mut pool = TagPool::full();
        assert_eq!(pool.available(), TAG_SPACE as usize);
        let t = pool.acquire().unwrap();
        assert_eq!(t.value(), 0);
    }

    #[test]
    fn introspection_tracks_liveness() {
        let mut pool = TagPool::with_capacity(3);
        assert_eq!(pool.capacity(), 3);
        let a = pool.acquire().unwrap();
        assert!(pool.is_live(a));
        assert!(!pool.is_live(Tag(2)));
        assert!(!pool.is_live(Tag(100)), "out-of-range tag is never live");
        pool.release(a).unwrap();
        assert!(!pool.is_live(a));
    }

    #[test]
    fn tag_set_tracks_membership_and_iterates_sorted() {
        let mut set = TagSet::new();
        assert_eq!(set.iter().count(), 0);
        for v in [2047u32, 0, 64, 63, 1000] {
            assert!(set.insert(Tag::new(v).unwrap()));
        }
        assert!(!set.insert(Tag(64)), "second insert reports the tag present");
        assert_eq!(set.iter().count(), 5);
        assert!(set.contains(Tag(1000)) && !set.contains(Tag(1001)));
        let values: Vec<u16> = set.iter().map(Tag::value).collect();
        assert_eq!(values, vec![0, 63, 64, 1000, 2047]);
        assert!(set.remove(Tag(63)));
        assert!(!set.remove(Tag(63)), "second remove reports the tag absent");
        set.retain(|t| t.value() != 1000);
        assert_eq!(format!("{set:?}"), "{0, 64, 2047}");
    }

    #[test]
    fn first_not_live_names_the_lowest_stray_tag() {
        let mut pool = TagPool::with_capacity(200);
        let mut registered = TagSet::new();
        for _ in 0..130 {
            registered.insert(pool.acquire().unwrap());
        }
        assert_eq!(pool.first_not_live(&registered), None);
        assert_eq!(pool.first_not_live(&TagSet::new()), None);
        pool.release(Tag(129)).unwrap();
        pool.release(Tag(64)).unwrap();
        assert_eq!(pool.first_not_live(&registered), Some(Tag(64)));
        registered.remove(Tag(64));
        assert_eq!(pool.first_not_live(&registered), Some(Tag(129)));
        // A tag the pool never held is not live either.
        let mut foreign = TagSet::new();
        foreign.insert(Tag(2047));
        assert_eq!(pool.first_not_live(&foreign), Some(Tag(2047)));
    }

    #[test]
    fn audit_accepts_consistent_pools() {
        let mut pool = TagPool::with_capacity(8);
        pool.audit().unwrap();
        let a = pool.acquire().unwrap();
        let _ = pool.acquire().unwrap();
        pool.audit().unwrap();
        pool.release(a).unwrap();
        pool.audit().unwrap();
    }

    #[test]
    fn audit_detects_corruption() {
        let mut pool = TagPool::with_capacity(4);
        let a = pool.acquire().unwrap();
        // Simulate a double-add of a live tag onto the free list.
        pool.debug_push_free(a);
        let err = pool.audit().unwrap_err();
        assert!(err.contains("!= capacity"), "got: {err}");

        // A tag marked in flight while still on the free list.
        let mut pool = TagPool::with_capacity(4);
        let _ = pool.acquire().unwrap();
        pool.debug_set_live(Tag(0), false);
        pool.debug_set_live(Tag(1), true);
        let err = pool.audit().unwrap_err();
        assert!(err.contains("free and in flight"), "got: {err}");
    }

    #[test]
    fn audit_names_duplicates_and_out_of_range_free_tags() {
        // Tag 2 freed twice while tag 1 vanished: the counts still add
        // up, only the membership map is short.
        let mut pool = TagPool::with_capacity(4);
        pool.free.retain(|t| t.0 != 1);
        pool.is_free.remove(Tag(1));
        pool.debug_push_free(Tag(2));
        assert_eq!(pool.audit().unwrap_err(), "tag 2 duplicated on the free list");
        assert_eq!(reference::TagPool::of(&pool).audit(), pool.audit());

        // Tag 70 on the free list of a 65-tag pool, in tag 3's place.
        let mut pool = TagPool::with_capacity(65);
        pool.free.retain(|t| t.0 != 3);
        pool.is_free.remove(Tag(3));
        pool.debug_push_free(Tag(70));
        assert_eq!(pool.audit().unwrap_err(), "free tag 70 outside capacity 65");
        assert_eq!(reference::TagPool::of(&pool).audit(), pool.audit());
    }

    /// The pool as it was before the bit maps — a `Vec<bool>` in-flight
    /// map and an audit that walks the whole free list — kept as the
    /// oracle the word-parallel pool is compared to.
    mod reference {
        use super::super::{Tag, TAG_SPACE};
        use std::collections::VecDeque;

        #[derive(Debug, PartialEq)]
        pub struct TagPool {
            free: VecDeque<Tag>,
            in_flight: Vec<bool>,
            capacity: u32,
        }

        impl TagPool {
            /// The same free list, in-flight map and capacity.
            pub fn of(pool: &super::TagPool) -> Self {
                TagPool {
                    free: pool.free.clone(),
                    in_flight: (0..pool.capacity).map(|v| pool.is_live(Tag(v as u16))).collect(),
                    capacity: pool.capacity,
                }
            }

            pub fn from_free_list(capacity: u32, free: Vec<Tag>) -> Result<Self, String> {
                if capacity > TAG_SPACE {
                    return Err(format!("capacity {capacity} exceeds tag space {TAG_SPACE}"));
                }
                let mut in_flight = vec![true; capacity as usize];
                for tag in &free {
                    let idx = tag.0 as usize;
                    if idx >= capacity as usize {
                        return Err(format!("free tag {} outside capacity {capacity}", tag.0));
                    }
                    if !in_flight[idx] {
                        return Err(format!("tag {} duplicated on the free list", tag.0));
                    }
                    in_flight[idx] = false;
                }
                Ok(TagPool { free: free.into(), in_flight, capacity })
            }

            pub fn audit(&self) -> Result<(), String> {
                let live = self.in_flight.iter().filter(|&&b| b).count();
                if self.free.len() + live != self.capacity as usize {
                    return Err(format!(
                        "free ({}) + live ({live}) != capacity ({})",
                        self.free.len(),
                        self.capacity
                    ));
                }
                let mut seen = vec![false; self.capacity as usize];
                for tag in &self.free {
                    let idx = tag.0 as usize;
                    if idx >= self.capacity as usize {
                        return Err(format!(
                            "free tag {} outside capacity {}",
                            tag.0, self.capacity
                        ));
                    }
                    if self.in_flight[idx] {
                        return Err(format!("tag {} is both free and in flight", tag.0));
                    }
                    if seen[idx] {
                        return Err(format!("tag {} duplicated on the free list", tag.0));
                    }
                    seen[idx] = true;
                }
                Ok(())
            }
        }
    }

    /// One step of the equivalence property: the public mutators, a
    /// checkpoint round trip through a (possibly damaged) free list,
    /// and corruption behind the pool's back — alone, or paired so
    /// that the counts still add up.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Acquire,
        Release(u16),
        /// Rebuild from the free list with entry `at` dropped,
        /// repeated or replaced by `tag`.
        Rebuild { at: u16, tag: u16, damage: u8 },
        PushFree(u16),
        FlipLive(u16),
        FlipTwoLive(u16, u16),
        /// Free-list entry `at` becomes `tag`.
        ReplaceFree { at: u16, tag: u16 },
    }

    fn arb_step() -> impl proptest::strategy::Strategy<Value = Step> {
        use proptest::prelude::*;
        let tag = || 0u16..TAG_SPACE as u16;
        prop_oneof![
            Just(Step::Acquire),
            Just(Step::Acquire),
            Just(Step::Acquire),
            tag().prop_map(Step::Release),
            tag().prop_map(Step::Release),
            tag().prop_map(Step::Release),
            (tag(), tag(), 0u8..6).prop_map(|(at, tag, damage)| Step::Rebuild { at, tag, damage }),
            (tag(), tag(), 0u8..6).prop_map(|(at, tag, damage)| Step::Rebuild { at, tag, damage }),
            tag().prop_map(Step::PushFree),
            tag().prop_map(Step::FlipLive),
            (tag(), tag()).prop_map(|(a, b)| Step::FlipTwoLive(a, b)),
            (tag(), tag()).prop_map(|(at, tag)| Step::ReplaceFree { at, tag }),
        ]
    }

    proptest::proptest! {
        /// Whatever is done to a pool — through its API or behind its
        /// back — the word-parallel audit reaches the verdict of the
        /// audit that walks the list, and it rebuilds from a free list
        /// (or refuses to) into the same free order and in-flight map. A pool is audited at every
        /// boundary, so a case ends at the first audit that fails.
        #[test]
        fn bit_map_pool_matches_the_list_walking_pool(
            capacity in proptest::sample::select(vec![1u32, 63, 64, 65, 2048]),
            steps in proptest::collection::vec(arb_step(), 1..64),
        ) {
            let mut pool = TagPool::with_capacity(capacity);
            // Draws cover the whole tag space; fold most of them into
            // the pool's range so that small pools see real work.
            let fold = |t: u16| if t.is_multiple_of(8) { t } else { t % capacity as u16 };
            let flip = |pool: &mut TagPool, t: u16| {
                let tag = Tag(t % capacity as u16);
                let live = pool.is_live(tag);
                pool.debug_set_live(tag, !live);
            };
            for step in steps {
                match step {
                    Step::Acquire => {
                        let next = pool.free.front().copied();
                        proptest::prop_assert_eq!(pool.acquire().ok(), next);
                    }
                    Step::Release(t) => {
                        let tag = Tag(fold(t));
                        let was_live = pool.is_live(tag);
                        proptest::prop_assert_eq!(pool.release(tag).is_ok(), was_live);
                    }
                    Step::Rebuild { at, tag, damage } => {
                        let mut free: Vec<Tag> = pool.free_tags().collect();
                        if !free.is_empty() {
                            let at = at as usize % free.len();
                            match damage {
                                0 => drop(free.remove(at)),
                                1 => free.push(free[at]),
                                2 => free[at] = Tag(fold(tag)),
                                _ => {}
                            }
                        }
                        let want = reference::TagPool::from_free_list(capacity, free.clone());
                        let got = TagPool::from_free_list(capacity, free);
                        proptest::prop_assert_eq!(
                            got.as_ref().map(reference::TagPool::of).map_err(String::clone),
                            want
                        );
                        if let Ok(rebuilt) = got {
                            pool = rebuilt;
                        }
                    }
                    Step::PushFree(t) => pool.debug_push_free(Tag(fold(t))),
                    Step::FlipLive(t) => flip(&mut pool, t),
                    Step::FlipTwoLive(a, b) => {
                        flip(&mut pool, a);
                        flip(&mut pool, b);
                    }
                    Step::ReplaceFree { at, tag } => {
                        if !pool.free.is_empty() {
                            let at = at as usize % pool.free.len();
                            let old = std::mem::replace(&mut pool.free[at], Tag(fold(tag)));
                            pool.is_free.remove(old);
                            pool.is_free.insert(Tag(fold(tag)));
                        }
                    }
                }
                let oracle = reference::TagPool::of(&pool);
                let (got, want) = (pool.audit(), oracle.audit());
                // One defect at a time: both audits name the same one.
                proptest::prop_assert_eq!(&got, &want);
                if got.is_err() {
                    break;
                }
            }
        }
    }
}
