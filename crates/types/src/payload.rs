//! Inline-capacity packet payload storage.
//!
//! [`PayloadBuf`] stores up to [`PAYLOAD_INLINE_WORDS`] (16) words —
//! 128 bytes — inline and spills to the heap beyond that, up to the
//! 32-word maximum of a 17-FLIT packet. Every Table I command but
//! three fits inline, as do all atomics and the CMC operations this
//! repository ships; `WR256`, `P_WR256` (requests) and `RD256`
//! (responses) carry 32 words and spill on every packet, as does a CMC
//! operation registered with more than 9 FLITs.
//!
//! The inline capacity stays 16 rather than 32 because every by-value
//! move of a packet copies the whole inline array, whatever it holds: a
//! 32-word array would add 128 bytes to each move of each 1- and 2-FLIT
//! packet (atomics, reads, acknowledgements — most traffic) to save
//! the 256-byte packets one heap block. A block the caller already owns
//! is adopted instead ([`PayloadSource`] for `Vec<u64>`), so a `WR256`
//! built from an owned vector allocates nothing; an `RD256` response
//! costs exactly one block, which the host receives and owns.
//!
//! Invariant: a payload is inline exactly when it holds at most
//! [`PAYLOAD_INLINE_WORDS`] words. Every constructor and every mutator
//! keeps it, so a buffer overwritten in place with a short payload never
//! keeps the heap block of the long one it last carried.
//!
//! The buffer dereferences to `&[u64]`, compares equal to `Vec<u64>`
//! and prints like a slice, so code that only *reads* payloads is
//! unaffected by the representation.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Words stored inline before spilling to the heap. 16 words = 128
/// bytes covers every standard Gen2 payload except the three 256-byte
/// ones (see the module docs for why it is not 32).
pub const PAYLOAD_INLINE_WORDS: usize = 16;

#[derive(Clone)]
enum Repr {
    Inline { buf: [u64; PAYLOAD_INLINE_WORDS], len: u8 },
    Spilled(Vec<u64>),
}

/// A packet payload: inline up to [`PAYLOAD_INLINE_WORDS`] 64-bit
/// words, heap-backed beyond that.
#[derive(Clone)]
pub struct PayloadBuf(Repr);

impl PayloadBuf {
    /// An empty payload (no allocation).
    pub const fn new() -> Self {
        PayloadBuf(Repr::Inline { buf: [0; PAYLOAD_INLINE_WORDS], len: 0 })
    }

    /// Copies a slice into a payload; allocates only when `words`
    /// exceeds the inline capacity.
    pub fn from_slice(words: &[u64]) -> Self {
        if words.len() <= PAYLOAD_INLINE_WORDS {
            let mut buf = [0; PAYLOAD_INLINE_WORDS];
            buf[..words.len()].copy_from_slice(words);
            PayloadBuf(Repr::Inline { buf, len: words.len() as u8 })
        } else {
            PayloadBuf(Repr::Spilled(words.to_vec()))
        }
    }

    /// Appends one word, spilling to the heap when the inline
    /// capacity is exceeded.
    pub fn push(&mut self, word: u64) {
        match &mut self.0 {
            Repr::Inline { buf, len } => {
                if (*len as usize) < PAYLOAD_INLINE_WORDS {
                    buf[*len as usize] = word;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(PAYLOAD_INLINE_WORDS * 2);
                    v.extend_from_slice(&buf[..]);
                    v.push(word);
                    self.0 = Repr::Spilled(v);
                }
            }
            Repr::Spilled(v) => v.push(word),
        }
    }

    /// Sets the length to `new_len` words, truncating or appending
    /// copies of `value` (`Vec::resize` semantics). A spilled buffer
    /// resized to a spilling length reuses its block; resized to an
    /// inline length it moves inline and frees the block.
    pub fn resize(&mut self, new_len: usize, value: u64) {
        match &mut self.0 {
            Repr::Inline { buf, len } if new_len <= PAYLOAD_INLINE_WORDS => {
                if new_len > *len as usize {
                    buf[*len as usize..new_len].fill(value);
                }
                *len = new_len as u8;
            }
            Repr::Inline { buf, len } => {
                let mut v = Vec::with_capacity(new_len);
                v.extend_from_slice(&buf[..*len as usize]);
                v.resize(new_len, value);
                self.0 = Repr::Spilled(v);
            }
            Repr::Spilled(v) if new_len <= PAYLOAD_INLINE_WORDS => {
                *self = PayloadBuf::from_slice(&v[..new_len]);
            }
            Repr::Spilled(v) => v.resize(new_len, value),
        }
    }

    /// Sets the length to `new_len` words of unspecified value — zero,
    /// or whatever the buffer last held — for a caller that is about to
    /// overwrite every one of them (a read filling a response): unlike
    /// [`PayloadBuf::resize`], an inline payload is not filled first.
    pub fn resize_for_overwrite(&mut self, new_len: usize) {
        match &mut self.0 {
            Repr::Inline { len, .. } if new_len <= PAYLOAD_INLINE_WORDS => *len = new_len as u8,
            _ => self.resize(new_len, 0),
        }
    }

    /// Overwrites the payload with a copy of `words`, whatever it held:
    /// a spilled buffer is reused when `words` spill too and freed when
    /// they fit inline.
    pub fn copy_from(&mut self, words: &[u64]) {
        match &mut self.0 {
            Repr::Inline { buf, len } if words.len() <= PAYLOAD_INLINE_WORDS => {
                buf[..words.len()].copy_from_slice(words);
                *len = words.len() as u8;
            }
            Repr::Spilled(v) if words.len() > PAYLOAD_INLINE_WORDS => {
                v.clear();
                v.extend_from_slice(words);
            }
            _ => *self = PayloadBuf::from_slice(words),
        }
    }

    /// Moves the payload out and leaves an empty one behind: one copy
    /// of an inline payload, a pointer move of a spilled one.
    pub fn take(&mut self) -> PayloadBuf {
        match &mut self.0 {
            Repr::Inline { buf, len } => {
                let out = PayloadBuf(Repr::Inline { buf: *buf, len: *len });
                *len = 0;
                out
            }
            Repr::Spilled(_) => std::mem::take(self),
        }
    }

    /// Empties the payload (a spilled buffer frees its block).
    pub fn clear(&mut self) {
        self.resize(0, 0);
    }

    /// The payload as a word slice.
    pub fn as_slice(&self) -> &[u64] {
        match &self.0 {
            Repr::Inline { buf, len } => &buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// The payload as a mutable word slice.
    pub fn as_mut_slice(&mut self) -> &mut [u64] {
        match &mut self.0 {
            Repr::Inline { buf, len } => &mut buf[..*len as usize],
            Repr::Spilled(v) => v,
        }
    }

    /// True when the words live inline (no heap allocation backing
    /// this payload).
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }
}

impl Default for PayloadBuf {
    fn default() -> Self {
        PayloadBuf::new()
    }
}

impl Deref for PayloadBuf {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        self.as_slice()
    }
}

impl DerefMut for PayloadBuf {
    fn deref_mut(&mut self) -> &mut [u64] {
        self.as_mut_slice()
    }
}

impl From<Vec<u64>> for PayloadBuf {
    /// Small vectors are copied inline (and freed); oversized ones
    /// are adopted without copying.
    fn from(v: Vec<u64>) -> Self {
        if v.len() <= PAYLOAD_INLINE_WORDS {
            PayloadBuf::from_slice(&v)
        } else {
            PayloadBuf(Repr::Spilled(v))
        }
    }
}

impl From<&[u64]> for PayloadBuf {
    fn from(words: &[u64]) -> Self {
        PayloadBuf::from_slice(words)
    }
}

impl<const N: usize> From<[u64; N]> for PayloadBuf {
    fn from(words: [u64; N]) -> Self {
        PayloadBuf::from_slice(&words)
    }
}

/// A value a [`PayloadBuf`] can be overwritten from in place — what the
/// send paths accept, so a payload is written once, into the envelope
/// that carries it, instead of being converted to a `PayloadBuf` first
/// and moved there. Implemented for the types `Into<PayloadBuf>` covers.
pub trait PayloadSource {
    /// Number of 64-bit words the source holds.
    fn words(&self) -> usize;

    /// Overwrites `dst` with the source's words.
    fn overwrite(self, dst: &mut PayloadBuf);
}

impl PayloadSource for Vec<u64> {
    fn words(&self) -> usize {
        self.len()
    }

    /// Small vectors are copied inline (and freed); oversized ones are
    /// adopted without copying.
    fn overwrite(self, dst: &mut PayloadBuf) {
        if self.len() <= PAYLOAD_INLINE_WORDS {
            dst.copy_from(&self);
        } else {
            dst.0 = Repr::Spilled(self);
        }
    }
}

impl PayloadSource for &[u64] {
    fn words(&self) -> usize {
        self.len()
    }

    fn overwrite(self, dst: &mut PayloadBuf) {
        dst.copy_from(self);
    }
}

impl<const N: usize> PayloadSource for [u64; N] {
    fn words(&self) -> usize {
        N
    }

    fn overwrite(self, dst: &mut PayloadBuf) {
        dst.copy_from(&self);
    }
}

impl PayloadSource for PayloadBuf {
    fn words(&self) -> usize {
        self.len()
    }

    fn overwrite(self, dst: &mut PayloadBuf) {
        *dst = self;
    }
}

impl FromIterator<u64> for PayloadBuf {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut buf = PayloadBuf::new();
        for word in iter {
            buf.push(word);
        }
        buf
    }
}

impl PartialEq for PayloadBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadBuf {}

impl PartialEq<Vec<u64>> for PayloadBuf {
    fn eq(&self, other: &Vec<u64>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<PayloadBuf> for Vec<u64> {
    fn eq(&self, other: &PayloadBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u64]> for PayloadBuf {
    fn eq(&self, other: &[u64]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<[u64; N]> for PayloadBuf {
    fn eq(&self, other: &[u64; N]) -> bool {
        self.as_slice() == other
    }
}

/// Prints like a slice, whether inline or spilled.
impl fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl<'a> IntoIterator for &'a PayloadBuf {
    type Item = &'a u64;
    type IntoIter = std::slice::Iter<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut buf = PayloadBuf::new();
        for i in 0..PAYLOAD_INLINE_WORDS as u64 {
            buf.push(i);
            assert!(buf.is_inline());
        }
        assert_eq!(buf.len(), PAYLOAD_INLINE_WORDS);
        buf.push(99);
        assert!(!buf.is_inline());
        assert_eq!(buf.len(), PAYLOAD_INLINE_WORDS + 1);
        assert_eq!(buf[PAYLOAD_INLINE_WORDS], 99);
    }

    #[test]
    fn conversions_round_trip() {
        let v: Vec<u64> = (0..10).collect();
        let buf = PayloadBuf::from(v.clone());
        assert!(buf.is_inline());
        assert_eq!(buf, v);
        assert_eq!(v, buf);

        let big: Vec<u64> = (0..32).collect();
        let buf = PayloadBuf::from(big.clone());
        assert!(!buf.is_inline());
        assert_eq!(buf, big);

        let collected: PayloadBuf = (0..5u64).collect();
        assert_eq!(collected, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn debug_matches_slice_regardless_of_repr() {
        let inline = PayloadBuf::from_slice(&[1, 2, 3]);
        let spilled = {
            let mut b = PayloadBuf(Repr::Spilled(vec![1, 2, 3]));
            b.push(4);
            b.as_mut_slice();
            b
        };
        assert_eq!(format!("{inline:?}"), format!("{:?}", [1u64, 2, 3]));
        assert_eq!(format!("{spilled:?}"), format!("{:?}", [1u64, 2, 3, 4]));
    }

    #[test]
    fn resize_matches_vec_semantics_across_the_spill_boundary() {
        let mut buf = PayloadBuf::from_slice(&[1, 2, 3]);
        buf.resize(2, 9);
        assert_eq!(buf, vec![1, 2]);
        // Growing fills with the value, never with stale inline words.
        buf.resize(4, 9);
        assert_eq!(buf, vec![1, 2, 9, 9]);
        assert!(buf.is_inline());
        buf.resize(PAYLOAD_INLINE_WORDS + 2, 0);
        assert!(!buf.is_inline());
        assert_eq!(buf.len(), PAYLOAD_INLINE_WORDS + 2);
        assert_eq!(&buf[..5], &[1, 2, 9, 9, 0]);
        buf.clear();
        assert!(buf.is_empty());
        buf.resize(2, 7);
        assert_eq!(buf, vec![7, 7]);
    }

    /// A destination of each representation, holding words no source
    /// below carries.
    fn destinations() -> [PayloadBuf; 2] {
        let inline = PayloadBuf::from_slice(&[0xdead; 5]);
        let spilled = PayloadBuf::from(vec![0xbeef; 32]);
        assert!(inline.is_inline() && !spilled.is_inline());
        [inline, spilled]
    }

    fn assert_holds(dst: &PayloadBuf, words: &[u64], via: &str) {
        assert_eq!(dst.as_slice(), words, "{via}: {} words", words.len());
        assert_eq!(dst.is_inline(), words.len() <= PAYLOAD_INLINE_WORDS, "{via}: {} words", words.len());
    }

    #[test]
    fn every_source_overwrites_either_representation_and_keeps_the_invariant() {
        fn via_array<const N: usize>(words: &[u64], dst: &mut PayloadBuf) {
            let array: [u64; N] = words.try_into().unwrap();
            assert_eq!(array.words(), N);
            array.overwrite(dst);
        }
        for n in [0, 2, 16, 17, 32] {
            let words: Vec<u64> = (1..=n as u64).map(|i| i * 0x0101).collect();
            for dst in destinations() {
                let check = |via: &str, write: &dyn Fn(&mut PayloadBuf)| {
                    let mut dst = dst.clone();
                    write(&mut dst);
                    assert_holds(&dst, &words, via);
                };
                check("Vec", &|dst| {
                    assert_eq!(PayloadSource::words(&words.clone()), n);
                    words.clone().overwrite(dst)
                });
                check("&[u64]", &|dst| {
                    assert_eq!(words.as_slice().words(), n);
                    words.as_slice().overwrite(dst)
                });
                check("PayloadBuf", &|dst| {
                    assert_eq!(PayloadBuf::from_slice(&words).words(), n);
                    PayloadBuf::from_slice(&words).overwrite(dst)
                });
                check("[u64; N]", &|dst| match n {
                    0 => via_array::<0>(&words, dst),
                    2 => via_array::<2>(&words, dst),
                    16 => via_array::<16>(&words, dst),
                    17 => via_array::<17>(&words, dst),
                    32 => via_array::<32>(&words, dst),
                    _ => unreachable!(),
                });
                check("copy_from", &|dst| dst.copy_from(&words));
                check("resize", &|dst| {
                    dst.resize(n, 0);
                    dst.copy_from_slice(&words);
                });
                check("resize_for_overwrite", &|dst| {
                    dst.resize_for_overwrite(n);
                    assert_eq!(dst.len(), n);
                    dst.copy_from_slice(&words);
                });
            }
        }
    }

    #[test]
    fn an_owned_spilling_vector_is_adopted_and_a_spilled_block_is_reused() {
        let big: Vec<u64> = (0..32).collect();
        let block = big.as_ptr();
        let mut dst = PayloadBuf::from_slice(&[1, 2]);
        big.overwrite(&mut dst);
        assert_eq!(dst.as_ptr(), block, "adopted, not copied");
        // A spilling copy into a spilled buffer keeps its block.
        dst.copy_from(&[7; 20]);
        assert_eq!((dst.as_ptr(), dst.len()), (block, 20));
        dst.resize(32, 9);
        assert_eq!((dst.as_ptr(), dst[31]), (block, 9));
    }

    #[test]
    fn take_leaves_an_empty_inline_payload_behind() {
        for (mut dst, words) in destinations().into_iter().zip([vec![0xdead; 5], vec![0xbeef; 32]]) {
            let block = dst.as_ptr();
            let out = dst.take();
            assert_holds(&out, &words, "taken");
            assert_holds(&dst, &[], "left behind");
            if !out.is_inline() {
                assert_eq!(out.as_ptr(), block, "the block moved, nothing was copied");
            }
        }
    }

    #[test]
    fn clearing_or_shrinking_a_spilled_payload_moves_it_inline() {
        let [_, spilled] = destinations();
        let mut cleared = spilled.clone();
        cleared.clear();
        assert_holds(&cleared, &[], "clear");
        let mut shrunk = spilled.clone();
        shrunk.resize(4, 1);
        assert_holds(&shrunk, &[0xbeef; 4], "resize");
        let mut sized = spilled;
        sized.resize_for_overwrite(16);
        assert_eq!((sized.len(), sized.is_inline()), (16, true));
    }

    #[test]
    fn deref_gives_slice_methods() {
        let mut buf = PayloadBuf::from_slice(&[5, 6]);
        assert_eq!(buf.iter().sum::<u64>(), 11);
        buf[0] = 7;
        assert_eq!(buf.to_vec(), vec![7, 6]);
        assert!(!buf.is_empty());
        assert!(PayloadBuf::new().is_empty());
    }
}
