//! Proof of what a packet costs the heap: a counting global allocator
//! wraps the system allocator, and the build → CRC → pack → unpack
//! cycle must not allocate at all while payloads fit the `PayloadBuf`
//! inline capacity (≤ 16 words: every Table I command but the three
//! 256-byte ones). A 32-word payload — `WR256`, `P_WR256`, an `RD256`
//! response — costs exactly one block, and none when the caller hands
//! over a vector it already owns.
//!
//! Everything runs inside one `#[test]` so no concurrently-running
//! test can perturb the global counter.

use hmc_types::packet::payload_words;
use hmc_types::{
    crc32k, Cub, Flit, HmcResponse, HmcRqst, PayloadBuf, Request, Response, Slid, Tag,
    MAX_PACKET_FLITS, PAYLOAD_INLINE_WORDS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations it performed.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn packet_cycle_is_allocation_free_within_inline_capacity() {
    // Warm up lazily-initialized state (the CRC table) and touch
    // every code path once before counting.
    let warm = Request::new(
        HmcRqst::Wr128,
        Tag::new(5).unwrap(),
        0x1000,
        Cub::new(0).unwrap(),
        PayloadBuf::from_slice(&[7; 16]),
    )
    .unwrap();
    let mut flits = [Flit::ZERO; MAX_PACKET_FLITS];
    let n = warm.pack_into(&mut flits);
    let _ = Request::unpack(&flits[..n]).unwrap();

    // The full per-packet cycle for the largest command that fits
    // inline (WR128 = 16 payload words): build, clone, pack with CRC,
    // unpack with CRC verification, read the payload back.
    let count = allocations_in(|| {
        let payload = PayloadBuf::from_slice(&[0xAB; 16]);
        assert!(payload.is_inline());
        let req = Request::new(
            HmcRqst::Wr128,
            Tag::new(9).unwrap(),
            0x2000,
            Cub::new(1).unwrap(),
            payload,
        )
        .unwrap();
        assert_eq!(payload_words(req.head.lng), 16);
        let copy = req.clone();
        let mut flits = [Flit::ZERO; MAX_PACKET_FLITS];
        let n = copy.pack_into(&mut flits);
        assert_eq!(n, 9);
        let back = Request::unpack(&flits[..n]).unwrap();
        assert!(back.payload.is_inline());
        assert_eq!(back.payload, req.payload);
    });
    assert_eq!(count, 0, "request cycle allocated {count} times");

    // Same for responses (RD128 response = 16 payload words).
    let count = allocations_in(|| {
        let rsp = Response::new(
            HmcResponse::RdRs,
            Tag::new(3).unwrap(),
            Slid::new(2).unwrap(),
            Cub::new(0).unwrap(),
            PayloadBuf::from_slice(&[0x55; 16]),
        )
        .unwrap();
        let copy = rsp.clone();
        let mut flits = [Flit::ZERO; MAX_PACKET_FLITS];
        let n = copy.pack_into(&mut flits);
        assert_eq!(n, 9);
        let back = Response::unpack(&flits[..n]).unwrap();
        assert!(back.payload.is_inline());
        assert_eq!(back.payload, rsp.payload);
    });
    assert_eq!(count, 0, "response cycle allocated {count} times");

    // The streaming CRC itself is allocation-free.
    let words = [0xDEAD_BEEFu64; 8];
    let count = allocations_in(|| {
        let _ = hmc_types::crc::packet_crc(&words);
        let _ = crc32k(&[1, 2, 3]);
    });
    assert_eq!(count, 0, "CRC allocated {count} times");

    // Past the inline capacity — the 32 words of WR256, P_WR256 and an
    // RD256 response, or of a CMC operation of more than 9 FLITs — a
    // payload lives in one heap block. A request built from a vector
    // the caller owns adopts that vector's block: nothing is allocated,
    // by value or in place.
    const { assert!(PAYLOAD_INLINE_WORDS < 32) };
    let (tag, cub) = (Tag::new(9).unwrap(), Cub::new(1).unwrap());
    let owned = |seed: u64| -> Vec<u64> { (seed..seed + 32).collect() };
    let (first, second) = (owned(1), owned(100));
    let mut envelope = warm;
    let count = allocations_in(|| {
        let req = Request::new(HmcRqst::Wr256, tag, 0x2000, cub, first).unwrap();
        assert!(!req.payload.is_inline());
        assert_eq!(req.flits(), 17);
        envelope.fill(HmcRqst::Wr256, tag, 0x2100, cub, second).unwrap();
        assert_eq!((envelope.payload[0], envelope.payload.len()), (100, 32));
    });
    assert_eq!(count, 0, "WR256 from an owned vector allocated {count} times");

    // Copied from borrowed words it costs the one block; so does an
    // RD256 response (the block the host ends up owning).
    let words = owned(7);
    let count = allocations_in(|| {
        let req = Request::new(HmcRqst::PWr256, tag, 0x2000, cub, &words[..]).unwrap();
        assert_eq!(req.payload, words);
    });
    assert_eq!(count, 1, "P_WR256 from a slice allocated {count} times");
    let count = allocations_in(|| {
        let rsp = Response::new(HmcResponse::RdRs, tag, Slid::new(2).unwrap(), cub, &words[..])
            .unwrap();
        assert_eq!(rsp.flits(), 17);
        assert!(!rsp.payload.is_inline());
    });
    assert_eq!(count, 1, "RD256 response allocated {count} times");

    // Overwritten with a short packet, the envelope gives the block up.
    envelope.fill(HmcRqst::Rd256, tag, 0x2000, cub, []).unwrap();
    assert!(envelope.payload.is_inline() && envelope.payload.is_empty());
}
