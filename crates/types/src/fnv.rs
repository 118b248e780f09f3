//! The workspace's one non-cryptographic hash: 64-bit FNV-1a and a
//! word-at-a-time variant of it.
//!
//! Everything a digest is persisted in or compared across processes —
//! corpus file names, checkpoint headers, the state fingerprint, the
//! memory content digest — goes through [`Fnv`], never through the
//! standard library's default hasher, whose algorithm may change
//! between Rust releases. The function is fixed by this file:
//!
//! * [`Fnv::u64`] is textbook FNV-1a over the value's eight
//!   little-endian bytes (`h = (h ^ byte) * PRIME`, offset basis
//!   `0xcbf29ce484222325`, prime `0x100000001b3`);
//! * [`Fnv::word`] folds all 64 bits in one step,
//!   `h = rotl((h ^ w) * PRIME, 31)` — a bijection of `h` for a fixed
//!   `w` and of `w` for a fixed `h`; the rotate carries the high bits,
//!   which a multiply alone never moves down, into the next multiply;
//! * [`Fnv::bytes`] folds a byte string's little-endian words through
//!   four such chains (word `i` into chain `i % 4`), then the chains,
//!   the tail bytes and the length into the digest.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01B3;

#[inline]
fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(PRIME).rotate_left(31)
}

/// A running 64-bit digest (see the module docs for the function).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// Starts a digest from the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(OFFSET)
    }

    /// Folds a `u64` (little-endian bytes, FNV-1a) into the digest.
    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds a `u64` into the digest in one step.
    #[inline]
    pub fn word(&mut self, v: u64) {
        self.0 = fold(self.0, v);
    }

    /// Folds every word of `values` into the digest, in order.
    pub fn words(&mut self, values: impl IntoIterator<Item = u64>) {
        for v in values {
            self.word(v);
        }
    }

    /// Folds a byte string into the digest eight bytes at a time. The
    /// four chains are independent, so a 4 KiB page costs a quarter of
    /// one serial multiply chain.
    pub fn bytes(&mut self, data: &[u8]) {
        let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
        let mut blocks = data.chunks_exact(32);
        for block in &mut blocks {
            for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = fold(*lane, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
            }
        }
        self.words(lanes);
        self.words(blocks.remainder().iter().map(|&b| b as u64));
        self.word(data.len() as u64);
    }

    /// Returns the digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_is_textbook_fnv1a() {
        // Corpus file names are derived from this function: the
        // reference vectors are FNV-1a 64 of the same bytes.
        assert_eq!(Fnv::new().finish(), 0xcbf2_9ce4_8422_2325);
        // The published vector for "a", then its seven zero bytes.
        let mut h = Fnv::new();
        h.0 = (h.0 ^ 0x61).wrapping_mul(PRIME);
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.u64(0x61);
        assert_eq!(h.finish(), 0x6926_124a_7b14_33c4);
    }

    #[test]
    fn every_bit_of_a_word_moves_the_digest() {
        // A multiply never carries bit 63 downwards; without the
        // rotate, flipping it in two words would cancel.
        let digest = |words: [u64; 3]| {
            let mut h = Fnv::new();
            h.words(words);
            h.finish()
        };
        let base = digest([1, 2, 3]);
        for bit in 0..64 {
            assert_ne!(digest([1 ^ (1 << bit), 2, 3]), base, "bit {bit} of the first word");
        }
        assert_ne!(digest([1 ^ (1 << 63), 2 ^ (1 << 63), 3]), base, "paired sign flips");
        assert_ne!(digest([2, 1, 3]), base, "order matters");
    }

    #[test]
    fn bytes_sees_every_byte_the_order_and_the_length() {
        let digest = |data: &[u8]| {
            let mut h = Fnv::new();
            h.bytes(data);
            h.finish()
        };
        let page: Vec<u8> = (0..4096u32).map(|i| (i * 7 + i / 256) as u8).collect();
        let base = digest(&page);
        for at in [0, 7, 8, 31, 32, 2049, 4095] {
            let mut other = page.clone();
            other[at] ^= 0x80;
            assert_ne!(digest(&other), base, "byte {at}");
        }
        let mut swapped = page.clone();
        swapped.swap(8, 40); // same chain, different position
        assert_ne!(digest(&swapped), base);
        // Zero-extension is not free: the tail and the length count.
        assert_ne!(digest(&[0u8; 33]), digest(&[0u8; 32]));
        assert_ne!(digest(&[0u8; 3]), digest(&[0u8; 4]));
        assert_eq!(digest(&page), base, "a pure function of the bytes");
    }
}
