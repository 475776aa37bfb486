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

/// Slicing-by-8 tables, built at compile time: `CRC_TABLES[0]` is the
/// classic bytewise table, and `CRC_TABLES[k][b]` advances the CRC of
/// byte `b` over `k` further zero bytes, so eight table lookups fold
/// eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
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
    while k < 8 {
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
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
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
        let mut bytes = b"hello world, sliced by eight".to_vec();
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

    proptest::proptest! {
        /// Random buffers read from every offset 0..8 (so the 8-byte
        /// words straddle every alignment) agree with the definition.
        #[test]
        fn crc32_equals_the_bitwise_definition(
            bytes in proptest::collection::vec(0u8..=255, 0..600),
            offset in 0usize..8,
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
