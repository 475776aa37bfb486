//! Succinct, persistent index segments.
//!
//! A **segment** is an immutable, checksummed, byte-addressable container
//! holding the compressed form of the indexes TOSS otherwise rebuilds on
//! every open: inverted postings lists (varint-gap or Elias-Fano encoded,
//! whichever is smaller per list) behind a sorted string-key offset table
//! with a hash acceleration index. The whole file is loaded in one read
//! into a single `Vec<u8>`; every accessor borrows directly from that
//! buffer (zero-copy — no pointer fix-up, no re-parse), so cold-open cost
//! is the read itself, not a rebuild.
//!
//! The layout is kept mmap-compatible on purpose: a fixed little-endian
//! header, 8-byte-aligned sections, offsets instead of pointers, and one
//! trailing CRC-32 over everything before it. Multi-byte values are read
//! with `from_le_bytes` on explicit byte ranges, so alignment is a
//! friendliness property, never a safety requirement.
//!
//! ## Container layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"TOSSSEG\x01"
//! 8       4     format version (u32)
//! 12      4     section count (u32)
//! 16      8     last_seq — journal cursor of the snapshot this segment
//!               was built against; the staleness stamp
//! 24      8     directory offset (u64)
//! 32      8     reserved (0)
//! 40      ...   section payloads, each padded to 8-byte alignment
//! dir     32×n  directory entries:
//!               { kind u32, name_off u32, name_len u32, pad u32,
//!                 payload_off u64, payload_len u64 }
//! ...           name blob
//! end-4   4     CRC-32 of bytes[0 .. end-4]
//! ```
//!
//! Section `kind`s are namespaced by the embedding application (see
//! [`kinds`]); `name` distinguishes instances of a kind (e.g. one postings
//! map per collection).

#![forbid(unsafe_code)]

pub mod container;
pub mod map;
pub mod postings;
pub mod varint;

pub use container::{Segment, SegmentBuilder, SegmentError};
pub use map::{composite_key, KeyMapBuilder, KeyMapRef};
pub use postings::{encode_postings, encode_postings_raw, PostingsBlock};

/// Well-known section kinds. The segment format does not interpret them;
/// they are listed here so every embedder agrees on the numbers.
pub mod kinds {
    /// Per-collection tag postings map (raw fixed-width lists).
    pub const TAG_MAP: u32 = 1;
    /// Per-collection `(tag, content)` postings map (compressed lists).
    pub const CONTENT_MAP: u32 = 2;
    /// Per-collection metadata stamp (doc count, posting totals).
    pub const COLLECTION_META: u32 = 3;
    // Kind 4 (an ontology reachability closure) is retired: never reuse it.
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables, built at compile time: `CRC_TABLES[0]` is the
/// classic bytewise table, and `CRC_TABLES[k][b]` advances the CRC of
/// byte `b` over `k` further zero bytes, so sixteen table lookups fold
/// sixteen input bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// Inputs at least this long are checksummed as three interleaved
/// streams; shorter ones (journal records, small files) serially.
const STREAMS_MIN: usize = 3 * 4096;

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ CRC_POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3, reflected, init and final XOR `0xFFFF_FFFF` —
/// zlib's `crc32()`) over `bytes`. The one checksum of every TOSS file:
/// segments, journal records and the JSON snapshot all use it.
///
/// Sixteen bytes are folded per step. An input of at least 12 KiB is cut
/// into three equal 16-byte-aligned blocks plus a tail: the blocks are
/// advanced together in one loop, so the three chains of table lookups
/// overlap, and their states are then combined by the CRC's linearity
/// (a state followed by `n` more bytes is that state times `x^(8n)`
/// mod P, plus the state those bytes give from zero).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut rest = bytes;
    if bytes.len() >= STREAMS_MIN {
        let block = bytes.len() / 3 / 16 * 16;
        let (a, tail) = bytes.split_at(block);
        let (b, tail) = tail.split_at(block);
        let (c, tail) = tail.split_at(block);
        let (mut ca, mut cb, mut cc) = (crc, 0u32, 0u32);
        let words = a.as_chunks::<16>().0.iter();
        let words = words.zip(b.as_chunks::<16>().0).zip(c.as_chunks::<16>().0);
        for ((wa, wb), wc) in words {
            ca = crc_step16(ca, wa);
            cb = crc_step16(cb, wb);
            cc = crc_step16(cc, wc);
        }
        let shift = x_pow_8n(block);
        crc = gf2_mul(shift, gf2_mul(shift, ca) ^ cb) ^ cc;
        rest = tail;
    }
    let (words, tail) = rest.as_chunks::<16>();
    for w in words {
        crc = crc_step16(crc, w);
    }
    for &b in tail {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Advance the CRC state `crc` over the sixteen bytes `w`.
#[inline(always)]
fn crc_step16(crc: u32, w: &[u8; 16]) -> u32 {
    let t = &CRC_TABLES;
    let a = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
    let b = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
    let c = u32::from_le_bytes([w[8], w[9], w[10], w[11]]);
    let d = u32::from_le_bytes([w[12], w[13], w[14], w[15]]);
    let fold = |x: u32, k: usize| {
        t[k + 3][(x & 0xFF) as usize]
            ^ t[k + 2][((x >> 8) & 0xFF) as usize]
            ^ t[k + 1][((x >> 16) & 0xFF) as usize]
            ^ t[k][(x >> 24) as usize]
    };
    fold(a, 12) ^ fold(b, 8) ^ fold(c, 4) ^ fold(d, 0)
}

/// `a · b mod P` over GF(2), both in the reflected representation
/// (bit 31 is `x^0`).
fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ CRC_POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `x^(8n) mod P`, reflected: multiplying a CRC state by it advances the
/// state over `n` zero bytes. Square-and-multiply over the bits of `8n`.
fn x_pow_8n(n: usize) -> u32 {
    let mut result = 1u32 << 31; // x^0
    let mut square = 1u32 << 30; // x^1, then x^2, x^4, ...
    let mut e = n as u64 * 8;
    while e != 0 {
        if e & 1 != 0 {
            result = gf2_mul(square, result);
        }
        square = gf2_mul(square, square);
        e >>= 1;
    }
    result
}

/// FNV-1a 64-bit over `bytes` — the probe hash for [`map::KeyMapRef`].
/// Chosen over SipHash because segment keys are short and trusted (they
/// come from the snapshot this process itself verified), so a fast
/// non-keyed hash is safe and keeps probe latency within the pointer
/// index's budget.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = fnv1a_seed();
    for &b in bytes {
        h = fnv1a_step(h, b);
    }
    h
}

/// The FNV-1a offset basis (incremental hashing entry point).
#[inline]
pub fn fnv1a_seed() -> u64 {
    0xcbf2_9ce4_8422_2325
}

/// Fold one byte into an FNV-1a state.
#[inline]
pub fn fnv1a_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition: the oracle the tables must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        for (input, want) in [
            (&b""[..], 0x0000_0000),
            (b"a", 0xE8B7_BE43),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
        ] {
            assert_eq!(crc32(input), want);
            assert_eq!(crc32_bitwise(input), want);
        }
    }

    #[test]
    fn crc32_detects_every_single_bit_flip() {
        let mut bytes = b"hello world, sliced by sixteen".to_vec();
        let base = crc32(&bytes);
        for i in 0..bytes.len() * 8 {
            bytes[i / 8] ^= 1 << (i % 8);
            assert_ne!(crc32(&bytes), base, "bit {i} flip went undetected");
            bytes[i / 8] ^= 1 << (i % 8);
        }
    }

    #[test]
    fn crc32_equals_the_bitwise_definition_at_every_short_length() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_equals_the_bitwise_definition_around_the_stream_threshold() {
        // a pattern with no short period, so no two blocks are alike
        let bytes: Vec<u8> = (0..STREAMS_MIN as u32 + 16)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in 12_280..=12_300 {
            assert_eq!(crc32(&bytes[..len]), crc32_bitwise(&bytes[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips_across_the_streams() {
        let mut bytes: Vec<u8> = (0..40u32 << 10)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let base = crc32(&bytes);
        assert_eq!(base, crc32_bitwise(&bytes));
        // every bit of the bytes around each block edge and the tail,
        // and a stride through the rest
        let block = bytes.len() / 3 / 16 * 16;
        let edges = [0, block, 2 * block, 3 * block, bytes.len()];
        let near = |bit: usize| edges.iter().any(|&e| (bit / 8).abs_diff(e) <= 24);
        for bit in (0..bytes.len() * 8).filter(|&bit| near(bit) || bit % 997 == 0) {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&bytes), base, "bit {bit} flip went undetected");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Random buffers up to 64 KiB, read from every offset 0..16 (so
        /// the 16-byte words straddle every alignment and both the
        /// serial and the three-stream path run), agree with the
        /// definition.
        #[test]
        fn crc32_equals_the_bitwise_definition(
            bytes in proptest::collection::vec(0u8..=255, 0..64 << 10),
            offset in 0usize..16,
        ) {
            let tail = &bytes[offset.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(tail), crc32_bitwise(tail));
        }
    }

    #[test]
    fn fnv_incremental_matches_oneshot() {
        let mut h = fnv1a_seed();
        for &b in b"hello world" {
            h = fnv1a_step(h, b);
        }
        assert_eq!(h, fnv1a(b"hello world"));
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
