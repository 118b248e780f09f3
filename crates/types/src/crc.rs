//! CRC-32K (Koopman) packet protection.
//!
//! The HMC specification protects every packet with a 32-bit CRC using
//! the Koopman polynomial (0x741B8CD7), chosen for its Hamming-distance
//! properties at HMC packet lengths. The CRC is computed over the
//! packet with the CRC field itself zeroed, then stored in the tail's
//! upper 32 bits.

/// The Koopman CRC-32K polynomial in normal (MSB-first) form.
pub const CRC32K_POLY: u32 = 0x741B_8CD7;

/// Reflected form of [`CRC32K_POLY`] used by the table-driven,
/// LSB-first implementation.
const CRC32K_POLY_REFLECTED: u32 = 0xEB31_D82E;

/// Lookup tables for the reflected CRC-32K computation, eight bytes
/// at a step ("slicing by 8"): `tables()[k][b]` is the state that byte
/// `b` followed by `k` zero bytes leaves behind, so `tables()[0]` is
/// the usual byte-at-a-time table.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ CRC32K_POLY_REFLECTED
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let before = t[k - 1][i];
                t[k][i] = (before >> 8) ^ t[0][(before & 0xFF) as usize];
            }
        }
        t
    })
}

/// Computes the CRC-32K of `data` (init all-ones, final XOR all-ones,
/// reflected I/O — the conventional CRC-32 framing with the Koopman
/// polynomial).
pub fn crc32k(data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    let mut crc = u32::MAX;
    for chunk in &mut chunks {
        crc = fold_word(t, crc, u64::from_le_bytes(chunk.try_into().expect("chunks of 8")));
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Folds the 8 little-endian bytes of one word into a running
/// (reflected, pre-final-XOR) CRC state: the state meets the low four
/// bytes, and every byte looks up what it leaves after the bytes that
/// follow it in the word.
#[inline]
fn fold_word(t: &[[u32; 256]; 8], crc: u32, word: u64) -> u32 {
    let bytes = (word ^ crc as u64).to_le_bytes();
    let mut folded = 0;
    for (byte, table) in bytes.iter().zip(t.iter().rev()) {
        folded ^= table[*byte as usize];
    }
    folded
}

/// Computes the CRC-32K over a packet expressed as 64-bit words,
/// with the tail CRC field (bits 63:32 of the last word) masked to
/// zero, as the specification requires.
///
/// Streams the words through the reflected table directly — no
/// intermediate byte buffer is allocated. Byte-for-byte equivalent to
/// serializing the masked words little-endian and calling [`crc32k`].
pub fn packet_crc(words: &[u64]) -> u32 {
    match words.split_last() {
        None => crc32k(&[]),
        Some((&tail, body)) => {
            let t = tables();
            let mut crc = u32::MAX;
            for &w in body {
                crc = fold_word(t, crc, w);
            }
            !fold_word(t, crc, tail & 0x0000_0000_FFFF_FFFF)
        }
    }
}

/// [`packet_crc`] over the logical word sequence
/// `[head, payload..., tail]` without materializing it: the packet
/// serializers hash head/payload/tail in place. `tail` is masked like
/// the last word of [`packet_crc`] (CRC field zeroed).
pub fn packet_crc_with_tail(head: u64, payload: &[u64], tail: u64) -> u32 {
    let t = tables();
    let mut crc = fold_word(t, u32::MAX, head);
    for &w in payload {
        crc = fold_word(t, crc, w);
    }
    !fold_word(t, crc, tail & 0x0000_0000_FFFF_FFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input() {
        // CRC of nothing is the framing constant (init ^ final-xor).
        assert_eq!(crc32k(&[]), 0);
    }

    #[test]
    fn deterministic_and_data_dependent() {
        let a = crc32k(b"hybrid memory cube");
        let b = crc32k(b"hybrid memory cube");
        let c = crc32k(b"hybrid memory cubE");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn single_bit_flip_detected() {
        let data = [0x5Au8; 32];
        let base = crc32k(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data;
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32k(&flipped), base, "flip at {byte}:{bit} undetected");
            }
        }
    }

    /// The byte-at-a-time loop the sliced tables replace.
    fn crc32k_by_bytes(data: &[u8]) -> u32 {
        let t = &tables()[0];
        let crc = data
            .iter()
            .fold(u32::MAX, |crc, &byte| (crc >> 8) ^ t[((crc ^ byte as u32) & 0xFF) as usize]);
        !crc
    }

    #[test]
    fn check_value_is_pinned() {
        // CRC-32K/Koopman of "123456789" under this framing, as the
        // byte-at-a-time loop computed it before the tables were
        // sliced.
        assert_eq!(crc32k(b"123456789"), crc32k_by_bytes(b"123456789"));
        assert_eq!(crc32k(b"123456789"), 0x2D3D_D0AE);
    }

    /// The pre-optimization implementation: serialize the masked
    /// words to a byte buffer, then CRC the buffer.
    fn packet_crc_by_bytes(words: &[u64]) -> u32 {
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for (i, &w) in words.iter().enumerate() {
            let w = if i == words.len() - 1 { w & 0x0000_0000_FFFF_FFFF } else { w };
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        crc32k(&bytes)
    }

    proptest::proptest! {
        /// Eight bytes at a step reach the state one byte at a step
        /// reaches, whatever the length and wherever in a buffer the
        /// data starts (so every split into words and ragged tail).
        #[test]
        fn sliced_equals_byte_at_a_time(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            start in 0usize..9,
        ) {
            let data = &data[start.min(data.len())..];
            proptest::prop_assert_eq!(crc32k(data), crc32k_by_bytes(data));
        }

        /// The streaming word path is byte-for-byte equivalent to the
        /// old allocate-and-serialize path on arbitrary word slices.
        #[test]
        fn streaming_equals_byte_buffer_reference(
            words in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..64),
        ) {
            proptest::prop_assert_eq!(packet_crc(&words), packet_crc_by_bytes(&words));
        }

        /// `packet_crc_with_tail` is `packet_crc` over the assembled
        /// `[head, payload..., tail]` sequence.
        #[test]
        fn with_tail_matches_assembled_sequence(
            head in proptest::prelude::any::<u64>(),
            payload in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..34),
            tail in proptest::prelude::any::<u64>(),
        ) {
            let mut words = Vec::with_capacity(payload.len() + 2);
            words.push(head);
            words.extend_from_slice(&payload);
            words.push(tail);
            proptest::prop_assert_eq!(packet_crc_with_tail(head, &payload, tail), packet_crc(&words));
        }
    }

    #[test]
    fn empty_word_slice_matches_empty_bytes() {
        assert_eq!(packet_crc(&[]), crc32k(&[]));
    }

    #[test]
    fn packet_crc_ignores_crc_field() {
        // Two packets that differ only in the tail CRC bits must hash equal.
        let p1 = [0x1111_2222_3333_4444u64, 0xAAAA_BBBB_0000_0001];
        let p2 = [0x1111_2222_3333_4444u64, 0x5555_6666_0000_0001];
        assert_eq!(packet_crc(&p1), packet_crc(&p2));
        // ...but a change in the protected region must not.
        let p3 = [0x1111_2222_3333_4445u64, 0xAAAA_BBBB_0000_0001];
        assert_ne!(packet_crc(&p1), packet_crc(&p3));
    }
}
