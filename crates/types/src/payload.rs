//! Inline-capacity packet payload storage.
//!
//! Every Gen2 command in Table I carries at most 128 bytes of write
//! data — 16 payload words — so [`PayloadBuf`] stores up to
//! [`PAYLOAD_INLINE_WORDS`] words inline and only spills to the heap
//! for oversized CMC payloads (up to the 32-word maximum of a 17-FLIT
//! packet). Moving request/response payloads off `Vec<u64>` removes
//! one heap allocation per packet on the simulator's hot path.
//!
//! The buffer dereferences to `&[u64]`, compares equal to `Vec<u64>`
//! and prints like a slice, so code that only *reads* payloads is
//! unaffected by the representation.

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Words stored inline before spilling to the heap. 16 words = 128
/// bytes covers every standard Gen2 command payload.
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
    /// copies of `value` (`Vec::resize` semantics). Stays inline up to
    /// the inline capacity and reuses a spilled buffer's capacity, so
    /// a recycled payload is resized without allocating.
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
            Repr::Spilled(v) => v.resize(new_len, value),
        }
    }

    /// Empties the payload (a spilled buffer keeps its capacity).
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
