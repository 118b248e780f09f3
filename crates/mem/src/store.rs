//! Sparse byte-addressable backing store.
//!
//! A cube holds 4 or 8 GiB; simulations touch a tiny fraction of it, so
//! the store allocates 4 KiB pages on first write. Unwritten memory
//! reads as zero, matching HMC-Sim's calloc'd vault storage.
//!
//! The page table is split across a fixed number of mutex-guarded
//! shards (`page_id % SHARD_COUNT`) and every access method takes
//! `&self`; the mutation methods keep their old names. The simulator
//! never accesses one store from two threads at once (a device and its
//! memory run on one thread at a time), so shard locking is a memory-
//! safety device, not an ordering device — results never depend on
//! lock acquisition order.

use hmc_types::HmcError;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Size of one lazily-allocated page in bytes.
pub const PAGE_BYTES: usize = 4096;

/// Number of page-table shards. A small power of two: enough to keep
/// concurrent users off each other's locks, few enough that cloning
/// and digesting stay cheap.
const SHARD_COUNT: usize = 16;

type PageMap = HashMap<u64, Box<[u8; PAGE_BYTES]>>;

/// Words converted per stack buffer by the word accessors: the payload
/// of the largest packet (17 FLITs), so one packet is one pass.
const WORD_CHUNK: usize = 32;

/// A sparse, zero-initialized, byte-addressable memory of fixed
/// capacity. Shareable across threads: all accessors take `&self`.
#[derive(Default)]
pub struct SparseMemory {
    shards: Vec<Mutex<PageMap>>,
    capacity: u64,
}

impl SparseMemory {
    /// Creates a store of `capacity` bytes. All bytes read as zero
    /// until written.
    pub fn new(capacity: u64) -> Self {
        SparseMemory {
            shards: (0..SHARD_COUNT).map(|_| Mutex::new(PageMap::new())).collect(),
            capacity,
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    #[inline]
    fn shard(&self, page: u64) -> &Mutex<PageMap> {
        // `Default` builds an empty shard vector; treat it as a
        // zero-capacity store that never materializes pages.
        &self.shards[page as usize % self.shards.len()]
    }

    /// Number of pages materialized so far (for memory-footprint
    /// diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Calls `visit` with every resident page in ascending page order —
    /// the one order checkpoints and digests are defined over. All
    /// materialized pages are visited, even all-zero ones: residency is
    /// part of the state.
    pub fn for_each_page(&self, mut visit: impl FnMut(u64, &[u8; PAGE_BYTES])) {
        let mut ids: Vec<u64> = Vec::new();
        for shard in &self.shards {
            ids.extend(shard.lock().keys().copied());
        }
        ids.sort_unstable();
        for id in ids {
            visit(id, &self.shard(id).lock()[&id]);
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
        self.shard(page_id).lock().insert(page_id, Box::new(*bytes));
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
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let page = cur / PAGE_BYTES as u64;
            let in_page = (cur % PAGE_BYTES as u64) as usize;
            let n = (PAGE_BYTES - in_page).min(buf.len() - off);
            match self.shard(page).lock().get(&page) {
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
        let mut off = 0usize;
        while off < buf.len() {
            let cur = addr + off as u64;
            let page = cur / PAGE_BYTES as u64;
            let in_page = (cur % PAGE_BYTES as u64) as usize;
            let n = (PAGE_BYTES - in_page).min(buf.len() - off);
            let mut shard = self.shard(page).lock();
            let p = shard
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

    /// Reads `n` little-endian 64-bit words starting at `addr`.
    pub fn read_words(&self, addr: u64, n: usize) -> Result<Vec<u64>, HmcError> {
        let mut words = vec![0u64; n];
        self.read_words_into(addr, &mut words)?;
        Ok(words)
    }

    /// Fills `out` with the little-endian 64-bit words starting at
    /// `addr` — the vault data path's read, straight into a response
    /// payload with no heap temporary.
    pub fn read_words_into(&self, addr: u64, out: &mut [u64]) -> Result<(), HmcError> {
        self.check_range(addr, out.len() * 8)?;
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
    /// checked before the first byte moves, so a rejected write leaves
    /// memory untouched.
    pub fn write_words(&self, addr: u64, words: &[u64]) -> Result<(), HmcError> {
        self.check_range(addr, words.len() * 8)?;
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

impl Clone for SparseMemory {
    fn clone(&self) -> Self {
        SparseMemory {
            shards: self.shards.iter().map(|s| Mutex::new(s.lock().clone())).collect(),
            capacity: self.capacity,
        }
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
    fn shared_reference_writes_from_threads() {
        let mem = std::sync::Arc::new(SparseMemory::new(1 << 24));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let m = std::sync::Arc::clone(&mem);
                std::thread::spawn(move || {
                    for i in 0..256u64 {
                        m.write_u64((t << 20) + i * 8, t * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..4u64 {
            for i in 0..256u64 {
                assert_eq!(mem.read_u64((t << 20) + i * 8).unwrap(), t * 1000 + i);
            }
        }
    }
}
