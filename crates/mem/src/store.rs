//! Sparse byte-addressable backing store.
//!
//! A cube holds 4 or 8 GiB; simulations touch a tiny fraction of it, so
//! the store allocates 4 KiB pages on first write. Unwritten memory
//! reads as zero, matching HMC-Sim's calloc'd vault storage.
//!
//! Every access method takes `&self` — the vault data path, CMC
//! operations and the host backdoor all hold a shared reference — so
//! the page table sits in a [`RefCell`]: the store is not `Sync`, and
//! no access takes a lock. No borrow outlives the call that takes it
//! except inside [`SparseMemory::for_each_page`], whose visitor may
//! read the store but must not write to it.
//!
//! A read-modify-write of one 8- or 16-byte cell resolves its page
//! once (`update_u64` / `update_u128`, the atomics' path) rather than
//! once to read and once to write. The word accessors — the vault data
//! path — check the range once, resolve the page once and convert
//! straight between page bytes and payload words whenever the span sits
//! in one page; only a span that straddles pages goes through the
//! byte-wise `read`/`write` in stack-buffer chunks.
//!
//! Page ids hash multiplicatively rather than through SipHash: they are
//! simulated addresses, and a hot 16-byte access is otherwise mostly
//! hashing. The table keeps its `page_id % SHARD_COUNT` split — the
//! maps are small, and they free their pages in an order that keeps the
//! allocator from trimming the heap between back-to-back contexts.

use hmc_types::HmcError;
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Size of one lazily-allocated page in bytes.
pub const PAGE_BYTES: usize = 4096;

/// Number of page-table shards (a small power of two).
const SHARD_COUNT: usize = 16;

/// Fibonacci hashing of one page id. The product's low bits depend
/// only on the id's low bits — which every id in a shard shares — so
/// `finish` folds the high half down for the map's bucket index.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("page ids hash through write_u64");
    }

    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_BYTES]>, BuildHasherDefault<PageIdHasher>>;

/// Words converted per stack buffer when a word access straddles pages:
/// the payload of the largest packet (17 FLITs), so one packet is one
/// pass.
const WORD_CHUNK: usize = 32;

/// Bytes per host cache line, the stride of [`SparseMemory::touch`].
const HOST_LINE: usize = 64;

/// A sparse, zero-initialized, byte-addressable memory of fixed
/// capacity. All accessors take `&self`; see the module docs for what
/// that does and does not allow.
#[derive(Clone, Default)]
pub struct SparseMemory {
    /// `Default` builds an empty shard vector: a zero-capacity store,
    /// whose range check rejects every access before a shard is picked.
    shards: RefCell<Vec<PageMap>>,
    capacity: u64,
}

impl SparseMemory {
    /// Creates a store of `capacity` bytes. All bytes read as zero
    /// until written.
    pub fn new(capacity: u64) -> Self {
        SparseMemory {
            shards: RefCell::new((0..SHARD_COUNT).map(|_| PageMap::default()).collect()),
            capacity,
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Number of pages materialized so far (for memory-footprint
    /// diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.shards.borrow().iter().map(|s| s.len()).sum()
    }

    /// Calls `visit` with every resident page in ascending page order —
    /// the one order checkpoints and digests are defined over. All
    /// materialized pages are visited, even all-zero ones: residency is
    /// part of the state.
    pub fn for_each_page(&self, mut visit: impl FnMut(u64, &[u8; PAGE_BYTES])) {
        let shards = self.shards.borrow();
        let mut ids: Vec<u64> = shards.iter().flat_map(|s| s.keys().copied()).collect();
        ids.sort_unstable();
        for id in ids {
            visit(id, &shards[id as usize % SHARD_COUNT][&id]);
        }
    }

    /// Deterministic digest of the resident content ([`hmc_types::Fnv`]
    /// over the capacity, then each page's index and bytes in ascending
    /// page order), so two stores holding the same pages produce the
    /// same digest regardless of the order the pages were materialized
    /// in — in any process, on any toolchain. Used by checkpoint/replay
    /// equality checks.
    pub fn content_digest(&self) -> u64 {
        let mut h = hmc_types::Fnv::new();
        h.word(self.capacity);
        self.for_each_page(|id, page| {
            h.word(id);
            h.bytes(page);
        });
        h.finish()
    }

    /// Materializes `page_id` with exactly `bytes`, replacing any
    /// existing content (checkpoint restore). Rejects pages beyond the
    /// store's capacity.
    pub fn insert_page(&self, page_id: u64, bytes: &[u8; PAGE_BYTES]) -> Result<(), HmcError> {
        let start = page_id
            .checked_mul(PAGE_BYTES as u64)
            .ok_or(HmcError::AddressOutOfRange(page_id))?;
        self.check_range(start, PAGE_BYTES.min(self.capacity.saturating_sub(start) as usize))?;
        if start >= self.capacity {
            return Err(HmcError::AddressOutOfRange(start));
        }
        self.shards.borrow_mut()[page_id as usize % SHARD_COUNT].insert(page_id, Box::new(*bytes));
        Ok(())
    }

    fn check_range(&self, addr: u64, len: usize) -> Result<(), HmcError> {
        let end = addr
            .checked_add(len as u64)
            .ok_or(HmcError::AddressOutOfRange(addr))?;
        if end > self.capacity {
            return Err(HmcError::AddressOutOfRange(addr));
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: u64, buf: &mut [u8]) -> Result<(), HmcError> {
        self.check_range(addr, buf.len())?;
        let shards = self.shards.borrow();
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let page = cur / PAGE_BYTES as u64;
            let in_page = (cur % PAGE_BYTES as u64) as usize;
            let n = (PAGE_BYTES - in_page).min(buf.len() - off);
            match shards[page as usize % SHARD_COUNT].get(&page) {
                Some(p) => buf[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
                None => buf[off..off + n].fill(0),
            }
            off += n;
        }
        Ok(())
    }

    /// Writes `buf` starting at `addr`, materializing pages as needed.
    pub fn write(&self, addr: u64, buf: &[u8]) -> Result<(), HmcError> {
        self.check_range(addr, buf.len())?;
        let mut shards = self.shards.borrow_mut();
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let page = cur / PAGE_BYTES as u64;
            let in_page = (cur % PAGE_BYTES as u64) as usize;
            let n = (PAGE_BYTES - in_page).min(buf.len() - off);
            let p = shards[page as usize % SHARD_COUNT]
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
            p[in_page..in_page + n].copy_from_slice(&buf[off..off + n]);
            off += n;
        }
        Ok(())
    }

    /// Reads a little-endian `u64` at `addr` (no alignment required).
    pub fn read_u64(&self, addr: u64) -> Result<u64, HmcError> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&self, addr: u64, value: u64) -> Result<(), HmcError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Reads a little-endian `u128` (one 16-byte DRAM block) at `addr`.
    pub fn read_u128(&self, addr: u64) -> Result<u128, HmcError> {
        let mut b = [0u8; 16];
        self.read(addr, &mut b)?;
        Ok(u128::from_le_bytes(b))
    }

    /// Writes a little-endian `u128` at `addr`.
    pub fn write_u128(&self, addr: u64, value: u128) -> Result<(), HmcError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Reads one byte of every host cache line under the `len` bytes at
    /// `addr` (of the line holding `addr` when `len` is 0), as far as
    /// they are in range and in `addr`'s page and that page is resident,
    /// and discards them: a hint that the span is about to be accessed.
    /// Changes nothing — an absent page stays absent — and, like every
    /// read, may be called from a [`SparseMemory::for_each_page`]
    /// visitor.
    ///
    /// Loads rather than prefetch instructions because the crate
    /// forbids `unsafe`; several issued back to back miss the host
    /// cache together instead of one after another. A span of at most
    /// one line costs one load, whatever its alignment; a longer one
    /// costs a load per line's worth plus one for its last byte, since
    /// a page's storage is not line-aligned.
    #[inline]
    pub fn touch(&self, addr: u64, len: usize) {
        if addr >= self.capacity {
            return;
        }
        let page = addr / PAGE_BYTES as u64;
        if let Some(p) = self.shards.borrow()[page as usize % SHARD_COUNT].get(&page) {
            let start = (addr % PAGE_BYTES as u64) as usize;
            std::hint::black_box(p[start]);
            if len > HOST_LINE {
                let last = start.saturating_add(len - 1).min(PAGE_BYTES - 1);
                for at in (start + HOST_LINE..last).step_by(HOST_LINE) {
                    std::hint::black_box(p[at]);
                }
                std::hint::black_box(p[last]);
            }
        }
    }

    /// Read-modify-write of the `N` bytes at `addr` with one range
    /// check and one page resolution: `f` sees the old bytes and
    /// returns the new ones, or `None` to leave memory as it is. An
    /// absent page reads as zero and is materialized only when `f`
    /// returns `Some`, exactly as a read followed by a conditional
    /// write would. `f` runs with the page table borrowed and must not
    /// reach the store. Returns the old bytes.
    #[inline]
    fn update_bytes<const N: usize>(
        &self,
        addr: u64,
        f: impl FnOnce([u8; N]) -> Option<[u8; N]>,
    ) -> Result<[u8; N], HmcError> {
        self.check_range(addr, N)?;
        let page = addr / PAGE_BYTES as u64;
        let in_page = (addr % PAGE_BYTES as u64) as usize;
        if in_page > PAGE_BYTES - N {
            // The cell straddles two pages: read, then write.
            let mut old = [0u8; N];
            self.read(addr, &mut old)?;
            if let Some(new) = f(old) {
                self.write(addr, &new)?;
            }
            return Ok(old);
        }
        let mut shards = self.shards.borrow_mut();
        let shard = &mut shards[page as usize % SHARD_COUNT];
        let Some(p) = shard.get_mut(&page) else {
            let old = [0u8; N];
            if let Some(new) = f(old) {
                let mut p = Box::new([0u8; PAGE_BYTES]);
                p[in_page..in_page + N].copy_from_slice(&new);
                shard.insert(page, p);
            }
            return Ok(old);
        };
        let cell: &mut [u8; N] =
            (&mut p[in_page..in_page + N]).try_into().expect("an N-byte slice");
        let old = *cell;
        if let Some(new) = f(old) {
            *cell = new;
        }
        Ok(old)
    }

    /// Read-modify-write of the little-endian `u64` at `addr` (no
    /// alignment required): `f` maps the old value to the new one, or
    /// to `None` to write nothing. Returns the old value. One page
    /// resolution; see `update_bytes` for what an absent page does.
    #[inline]
    pub(crate) fn update_u64(
        &self,
        addr: u64,
        f: impl FnOnce(u64) -> Option<u64>,
    ) -> Result<u64, HmcError> {
        self.update_bytes(addr, |old| f(u64::from_le_bytes(old)).map(u64::to_le_bytes))
            .map(u64::from_le_bytes)
    }

    /// [`SparseMemory::update_u64`] for one 16-byte DRAM block.
    #[inline]
    pub(crate) fn update_u128(
        &self,
        addr: u64,
        f: impl FnOnce(u128) -> Option<u128>,
    ) -> Result<u128, HmcError> {
        self.update_bytes(addr, |old| f(u128::from_le_bytes(old)).map(u128::to_le_bytes))
            .map(u128::from_le_bytes)
    }

    /// Reads `n` little-endian 64-bit words starting at `addr`.
    pub fn read_words(&self, addr: u64, n: usize) -> Result<Vec<u64>, HmcError> {
        let mut words = vec![0u64; n];
        self.read_words_into(addr, &mut words)?;
        Ok(words)
    }

    /// Where the `len > 0` bytes at `addr` sit when one page holds them
    /// all: `(page id, offset in the page)`.
    #[inline]
    fn one_page(addr: u64, len: usize) -> Option<(u64, usize)> {
        let in_page = (addr % PAGE_BYTES as u64) as usize;
        (in_page + len <= PAGE_BYTES).then_some((addr / PAGE_BYTES as u64, in_page))
    }

    /// Fills `out` with the little-endian 64-bit words starting at
    /// `addr` — the vault data path's read, straight from the page into
    /// a response payload. Every word of `out` is written on success.
    pub fn read_words_into(&self, addr: u64, out: &mut [u64]) -> Result<(), HmcError> {
        let len = out.len() * 8;
        self.check_range(addr, len)?;
        if out.is_empty() {
            return Ok(());
        }
        if let Some((page, in_page)) = Self::one_page(addr, len) {
            match self.shards.borrow()[page as usize % SHARD_COUNT].get(&page) {
                Some(p) => {
                    for (w, b) in out.iter_mut().zip(p[in_page..in_page + len].chunks_exact(8)) {
                        *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
                    }
                }
                None => out.fill(0),
            }
            return Ok(());
        }
        let mut bytes = [0u8; WORD_CHUNK * 8];
        for (i, chunk) in out.chunks_mut(WORD_CHUNK).enumerate() {
            let bytes = &mut bytes[..chunk.len() * 8];
            self.read(addr + (i * WORD_CHUNK * 8) as u64, bytes)?;
            for (w, b) in chunk.iter_mut().zip(bytes.chunks_exact(8)) {
                *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
            }
        }
        Ok(())
    }

    /// Writes 64-bit words starting at `addr`. The whole range is
    /// checked before the first byte moves or a page is materialized,
    /// so a rejected write leaves memory untouched.
    pub fn write_words(&self, addr: u64, words: &[u64]) -> Result<(), HmcError> {
        let len = words.len() * 8;
        self.check_range(addr, len)?;
        if words.is_empty() {
            return Ok(());
        }
        if let Some((page, in_page)) = Self::one_page(addr, len) {
            let mut shards = self.shards.borrow_mut();
            let p = shards[page as usize % SHARD_COUNT]
                .entry(page)
                .or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
            for (b, w) in p[in_page..in_page + len].chunks_exact_mut(8).zip(words) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            return Ok(());
        }
        let mut bytes = [0u8; WORD_CHUNK * 8];
        for (i, chunk) in words.chunks(WORD_CHUNK).enumerate() {
            let bytes = &mut bytes[..chunk.len() * 8];
            for (b, w) in bytes.chunks_exact_mut(8).zip(chunk) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            self.write(addr + (i * WORD_CHUNK * 8) as u64, bytes)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Page contents are excluded on purpose: the derived map
        // output would be megabytes, in iteration order.
        f.debug_struct("SparseMemory")
            .field("capacity", &self.capacity)
            .field("resident_pages", &self.resident_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = SparseMemory::new(1 << 20);
        assert_eq!(mem.read_u64(0x500).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mem = SparseMemory::new(1 << 20);
        mem.write(0x100, b"hybrid memory cube").unwrap();
        let mut buf = [0u8; 18];
        mem.read(0x100, &mut buf).unwrap();
        assert_eq!(&buf, b"hybrid memory cube");
    }

    #[test]
    fn cross_page_access() {
        let mem = SparseMemory::new(1 << 20);
        let addr = PAGE_BYTES as u64 - 4;
        mem.write_u64(addr, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(mem.read_u64(addr).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn capacity_enforced() {
        let mem = SparseMemory::new(4096);
        assert!(mem.write_u64(4092, 1).is_err());
        assert!(mem.read_u64(4092).is_err());
        assert!(mem.write_u64(4088, 1).is_ok());
    }

    #[test]
    fn overflow_addr_rejected() {
        let mem = SparseMemory::new(u64::MAX);
        let mut b = [0u8; 16];
        assert!(mem.read(u64::MAX - 4, &mut b).is_err());
    }

    #[test]
    fn u128_round_trip() {
        let mem = SparseMemory::new(1 << 16);
        let v = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        mem.write_u128(0x40, v).unwrap();
        assert_eq!(mem.read_u128(0x40).unwrap(), v);
        // Little-endian halves land as two u64s.
        assert_eq!(mem.read_u64(0x40).unwrap(), v as u64);
        assert_eq!(mem.read_u64(0x48).unwrap(), (v >> 64) as u64);
    }

    #[test]
    fn word_vector_round_trip() {
        let mem = SparseMemory::new(1 << 16);
        let words: Vec<u64> = (0..32).map(|i| i * 0x0101_0101).collect();
        mem.write_words(0x200, &words).unwrap();
        assert_eq!(mem.read_words(0x200, 32).unwrap(), words);
    }

    #[test]
    fn word_accessors_span_chunks_and_pages_and_check_before_writing() {
        let mem = SparseMemory::new(2 * PAGE_BYTES as u64);
        // 70 words from an unaligned address: three stack-buffer
        // chunks, crossing the page boundary mid-word.
        let words: Vec<u64> = (1..=70).map(|i| i * 0x0123_4567_89ab).collect();
        let addr = PAGE_BYTES as u64 - 259;
        mem.write_words(addr, &words).unwrap();
        let mut back = [0u64; 70];
        mem.read_words_into(addr, &mut back).unwrap();
        assert_eq!(back[..], words[..]);
        assert_eq!(mem.read_u64(addr + 8 * 69).unwrap(), words[69]);
        // A range that ends past capacity is rejected whole.
        let tail = 2 * PAGE_BYTES as u64 - 8 * 40;
        assert!(mem.write_words(tail + 8, &words[..40]).is_err());
        assert_eq!(mem.read_words(tail, 40).unwrap(), vec![0; 40], "nothing was written");
        assert!(mem.read_words_into(tail + 8, &mut back[..40]).is_err());
    }

    proptest::proptest! {
        /// The word accessors against the byte-wise `read`/`write`: at
        /// any alignment, inside a page, across a boundary and past
        /// `WORD_CHUNK`, over resident and absent pages, and up against
        /// the end of the store. A read materializes nothing; a
        /// rejected access leaves content and residency alone.
        #[test]
        fn word_accessors_match_the_byte_wise_oracle(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 70..71),
            size in proptest::sample::select(vec![0usize, 1, 2, 16, 32, 33, 70]),
            place in 0u8..4,
            offset in 0u64..PAGE_BYTES as u64,
            resident in proptest::prelude::any::<bool>(),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let page = PAGE_BYTES as u64;
            let capacity = 8 * page;
            let words = &words[..size];
            let len = size as u64 * 8;
            let addr = match place {
                0 => 2 * page + offset,                // anywhere in a page
                1 => 3 * page - len / 2 - offset % 8,  // across a boundary, if not empty
                2 => capacity - len,                   // the last bytes of the store
                _ => capacity - len + 1 + offset,      // ends past the capacity
            };
            let (got, want) = (SparseMemory::new(capacity), SparseMemory::new(capacity));
            for mem in [&got, &want] {
                if resident {
                    for id in 0..8 {
                        mem.write(id * page + 5, &[id as u8 + 1; 300]).unwrap();
                    }
                }
            }
            let state = |mem: &SparseMemory| (mem.resident_pages(), mem.content_digest());
            let before = state(&want);

            // Read: what `read` returns, and no page more.
            let mut bytes = vec![0u8; words.len() * 8];
            let oracle = want.read(addr, &mut bytes);
            let mut out = vec![0xa5a5_a5a5_a5a5_a5a5u64; words.len()];
            let read = got.read_words_into(addr, &mut out);
            prop_assert_eq!(read.is_ok(), oracle.is_ok(), "read at {:#x}, {} words", addr, words.len());
            prop_assert_eq!(read.is_ok(), place != 3);
            if read.is_ok() {
                let expect: Vec<u64> = bytes
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .collect();
                prop_assert_eq!(&out, &expect, "read at {:#x}", addr);
                prop_assert_eq!(got.read_words(addr, words.len()).unwrap(), expect);
            }
            prop_assert_eq!(state(&got), before, "a read changed the store");

            // Write: the bytes `write` leaves, the pages `write` makes.
            let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let oracle = want.write(addr, &bytes);
            let wrote = got.write_words(addr, words);
            prop_assert_eq!(wrote.is_ok(), oracle.is_ok(), "write at {:#x}, {} words", addr, words.len());
            prop_assert_eq!(state(&got), state(&want), "write at {:#x}, {} words", addr, words.len());
            if wrote.is_err() {
                prop_assert_eq!(state(&got), before, "a rejected write changed the store");
            } else {
                prop_assert!(words.is_empty() || resident || state(&got).0 > 0);
            }
        }
    }

    #[test]
    fn touch_changes_nothing_and_never_panics() {
        let mem = SparseMemory::new(4 * PAGE_BYTES as u64);
        mem.write_u64(PAGE_BYTES as u64 + 8, 0xfeed).unwrap();
        let before = (mem.resident_pages(), mem.content_digest());
        mem.touch(PAGE_BYTES as u64 + 8, 16); // resident
        mem.touch(2 * PAGE_BYTES as u64 - 1, 0); // its last byte
        mem.touch(PAGE_BYTES as u64 + 8, 256); // five loads
        mem.touch(2 * PAGE_BYTES as u64 - 100, 256); // cut at the end of the page
        mem.touch(PAGE_BYTES as u64 + 8, usize::MAX); // the rest of the page, no overflow
        mem.touch(0, 256); // in range, absent: stays absent
        mem.touch(PAGE_BYTES as u64 - 8, 256); // absent start, resident rest: nothing read
        mem.touch(4 * PAGE_BYTES as u64, 8); // first byte out of range
        mem.touch(u64::MAX, 256);
        // A visitor holds the page table borrowed, as every read may.
        mem.for_each_page(|id, _| mem.touch(id * PAGE_BYTES as u64, 64));
        assert_eq!((mem.resident_pages(), mem.content_digest()), before);
        SparseMemory::default().touch(0, 256);
    }

    #[test]
    fn update_is_a_read_then_a_conditional_write() {
        let mem = SparseMemory::new(4 * PAGE_BYTES as u64);
        // Absent page, nothing written: still absent.
        assert_eq!(mem.update_u128(0x40, |_| None).unwrap(), 0);
        assert_eq!(mem.update_u64(0x48, |_| None).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 0);
        // Absent page, written: materialized around the new cell.
        assert_eq!(mem.update_u64(0x48, |old| Some(old + 7)).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_u128(0x40).unwrap(), 7 << 64);
        // Resident page: the old value comes back, `None` keeps it.
        assert_eq!(mem.update_u128(0x40, |old| Some(!old)).unwrap(), 7 << 64);
        assert_eq!(mem.update_u128(0x40, |_| None).unwrap(), !(7u128 << 64));
        assert_eq!(mem.read_u64(0x48).unwrap(), !7);
        // The last cell of a page is still one page.
        let last = 2 * PAGE_BYTES as u64 - 16;
        assert_eq!(mem.update_u128(last, |_| Some(u128::MAX)).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 2);
        // Range errors come before `f` runs.
        let end = 4 * PAGE_BYTES as u64;
        assert!(mem.update_u64(end - 4, |_| unreachable!("out of range")).is_err());
        assert!(mem.update_u128(u64::MAX - 3, |_| unreachable!("overflows")).is_err());
        assert!(SparseMemory::default().update_u64(0, |_| unreachable!("no capacity")).is_err());
    }

    #[test]
    fn update_across_a_page_boundary_matches_read_then_write() {
        let (got, want) = (SparseMemory::new(1 << 16), SparseMemory::new(1 << 16));
        let addr = PAGE_BYTES as u64 - 5;
        for mem in [&got, &want] {
            mem.write_u64(PAGE_BYTES as u64, 0x0102_0304_0506_0708).unwrap();
        }
        // A miss reads both pages and materializes neither.
        assert_eq!(got.update_u128(addr, |_| None).unwrap(), want.read_u128(addr).unwrap());
        assert_eq!(got.resident_pages(), 1);
        let old = got.update_u128(addr, |old| Some(old ^ u128::MAX)).unwrap();
        assert_eq!(old, want.read_u128(addr).unwrap());
        want.write_u128(addr, old ^ u128::MAX).unwrap();
        assert_eq!(got.update_u64(addr + 2, |old| Some(old.rotate_left(9))).unwrap(), {
            let old = want.read_u64(addr + 2).unwrap();
            want.write_u64(addr + 2, old.rotate_left(9)).unwrap();
            old
        });
        assert_eq!(got.content_digest(), want.content_digest());
        assert_eq!(got.resident_pages(), 2);
    }

    #[test]
    fn sparse_pages_only_materialize_on_write() {
        let mem = SparseMemory::new(4 << 30);
        mem.write_u64(3 << 30, 7).unwrap();
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_u64(1 << 30).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 1, "reads do not allocate");
    }

    #[test]
    fn digest_is_materialization_order_independent() {
        let a = SparseMemory::new(1 << 24);
        let b = SparseMemory::new(1 << 24);
        for i in 0..64u64 {
            a.write_u64(i * 4096, i).unwrap();
            b.write_u64((63 - i) * 4096, 63 - i).unwrap();
        }
        assert_eq!(a.content_digest(), b.content_digest());
        b.write_u64(0, 99).unwrap();
        assert_ne!(a.content_digest(), b.content_digest());
    }

    #[test]
    fn default_store_rejects_every_access() {
        let mem = SparseMemory::default();
        assert!(mem.read_u64(0).is_err());
        assert!(mem.write_u64(0, 1).is_err());
        assert!(mem.insert_page(0, &[0; PAGE_BYTES]).is_err());
        assert_eq!(mem.resident_pages(), 0);
        mem.for_each_page(|_, _| unreachable!("no pages"));
    }

    #[test]
    fn pages_of_one_shard_spread_over_the_table() {
        // Ids in a shard share their low four bits. An unfolded product
        // hands them to the map as its bucket index: 4 buckets of 64.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<PageIdHasher>::default();
        let low: std::collections::HashSet<u64> =
            (0..64u64).map(|i| build.hash_one(i * SHARD_COUNT as u64 + 5) & 63).collect();
        assert!(low.len() >= 24, "64 ids of one shard landed in {} of 64 buckets", low.len());
    }
}
