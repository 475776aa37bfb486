//! CRC-32 (IEEE 802.3 polynomial) used to checksum journal records and
//! snapshot payloads.
//!
//! Reflected, initial value `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF` — the
//! same parameterization as zlib's `crc32()`, so the on-disk format can
//! be verified with standard tooling. There is one implementation in the
//! workspace, [`toss_segment::crc32`] (slicing-by-16, three interleaved
//! streams on inputs of 12 KiB and more), which also seals `.seg`
//! containers; this module re-exports it under its old path.

pub use toss_segment::crc32;
