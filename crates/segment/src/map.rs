//! A frozen string-key → byte-value map: sorted entry table for
//! deterministic enumeration, plus an open-addressing hash slot array for
//! O(1) probes without allocating or binary-searching.
//!
//! ## Layout (all little-endian, offsets relative to the map's start)
//!
//! ```text
//! 0      8   entry count (u64)
//! 8      8   slot count (u64, power of two; 0 when the map is empty)
//! 16     8   key blob length (u64)
//! 24     8   value blob length (u64)
//! 32     16×n  entries sorted by key bytes:
//!              { key_off u32, key_len u32, val_off u32, val_len u32 }
//!              (offsets relative to the respective blob start)
//! ...    4×s   hash slots (u32: entry ordinal + 1, 0 = empty)
//! ...    ...   key blob
//! ...    ...   value blob
//! ```
//!
//! Probing hashes the key with FNV-1a 64, masks into the slot array and
//! linear-probes. The sorted entry order is what the format specifies for
//! iteration, so two builders fed the same pairs produce identical bytes.

use crate::{fnv1a, fnv1a_seed, fnv1a_step};
use std::borrow::Cow;

const HEADER: usize = 32;
const ENTRY: usize = 16;

/// Build a composite `(tag, content)` key: `u16` big-endian tag length,
/// then the tag bytes, then the content bytes. Big-endian keeps composite
/// keys grouped by tag in sorted order.
pub fn composite_key(tag: &str, content: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + tag.len() + content.len());
    k.extend_from_slice(&(tag.len() as u16).to_be_bytes());
    k.extend_from_slice(tag.as_bytes());
    k.extend_from_slice(content.as_bytes());
    k
}

/// Bytes a builder either owns or borrows.
type Bytes<'a> = Cow<'a, [u8]>;

/// Accumulates key/value pairs, owned or borrowed (a pair copied from
/// another map need not be cloned first), then writes the frozen layout.
#[derive(Debug, Default)]
pub struct KeyMapBuilder<'a> {
    entries: Vec<(Bytes<'a>, Bytes<'a>)>,
}

impl<'a> KeyMapBuilder<'a> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one pair. Keys must be unique; duplicates are rejected at
    /// `finish` time with a panic (builder misuse, not a data error).
    pub fn insert(&mut self, key: impl Into<Bytes<'a>>, value: impl Into<Bytes<'a>>) {
        self.entries.push((key.into(), value.into()));
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize into `out`, returning the number of bytes written.
    pub fn finish(mut self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
        for w in self.entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate key in KeyMapBuilder");
        }
        let n = self.entries.len();
        // ~50% max load factor keeps linear-probe chains short
        let slot_count = if n == 0 { 0 } else { (n * 2).next_power_of_two() };

        let key_blob_len: usize = self.entries.iter().map(|(k, _)| k.len()).sum();
        let val_blob_len: usize = self.entries.iter().map(|(_, v)| v.len()).sum();
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.extend_from_slice(&(slot_count as u64).to_le_bytes());
        out.extend_from_slice(&(key_blob_len as u64).to_le_bytes());
        out.extend_from_slice(&(val_blob_len as u64).to_le_bytes());

        let (mut key_off, mut val_off) = (0u32, 0u32);
        for (k, v) in &self.entries {
            out.extend_from_slice(&key_off.to_le_bytes());
            out.extend_from_slice(&(k.len() as u32).to_le_bytes());
            out.extend_from_slice(&val_off.to_le_bytes());
            out.extend_from_slice(&(v.len() as u32).to_le_bytes());
            key_off += k.len() as u32;
            val_off += v.len() as u32;
        }

        let mut slots = vec![0u32; slot_count];
        for (ordinal, (k, _)) in self.entries.iter().enumerate() {
            let mask = slot_count as u64 - 1;
            let mut slot = (fnv1a(k) & mask) as usize;
            while slots[slot] != 0 {
                slot = (slot + 1) & mask as usize;
            }
            slots[slot] = ordinal as u32 + 1;
        }
        for s in &slots {
            out.extend_from_slice(&s.to_le_bytes());
        }

        for (k, _) in &self.entries {
            out.extend_from_slice(k);
        }
        for (_, v) in &self.entries {
            out.extend_from_slice(v);
        }
        out.len() - start
    }
}

/// Zero-copy view over a serialized key map.
#[derive(Debug, Clone, Copy)]
pub struct KeyMapRef<'a> {
    count: usize,
    slot_count: usize,
    entries: &'a [u8],
    slots: &'a [u8],
    keys: &'a [u8],
    vals: &'a [u8],
}

impl<'a> KeyMapRef<'a> {
    /// Validate the structural invariants (section lengths, offsets in
    /// range) and return a view. Content validity (e.g. hash slots being
    /// consistent) is guaranteed by the container checksum.
    pub fn parse(bytes: &'a [u8]) -> Option<Self> {
        if bytes.len() < HEADER {
            return None;
        }
        let read_u64 = |at: usize| {
            let mut a = [0u8; 8];
            a.copy_from_slice(&bytes[at..at + 8]);
            u64::from_le_bytes(a) as usize
        };
        let count = read_u64(0);
        let slot_count = read_u64(8);
        let key_blob_len = read_u64(16);
        let val_blob_len = read_u64(24);
        if slot_count != 0 && (!slot_count.is_power_of_two() || slot_count < count) {
            return None;
        }
        let entries_end = HEADER.checked_add(count.checked_mul(ENTRY)?)?;
        let slots_end = entries_end.checked_add(slot_count.checked_mul(4)?)?;
        let keys_end = slots_end.checked_add(key_blob_len)?;
        let vals_end = keys_end.checked_add(val_blob_len)?;
        if vals_end > bytes.len() {
            return None;
        }
        Some(KeyMapRef {
            count,
            slot_count,
            entries: &bytes[HEADER..entries_end],
            slots: &bytes[entries_end..slots_end],
            keys: &bytes[slots_end..keys_end],
            vals: &bytes[keys_end..vals_end],
        })
    }

    /// Total serialized length for a map parsed at the start of `bytes`.
    pub fn byte_len(&self) -> usize {
        HEADER + self.entries.len() + self.slots.len() + self.keys.len() + self.vals.len()
    }

    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    #[inline]
    fn entry(&self, ordinal: usize) -> Option<(&'a [u8], &'a [u8])> {
        let e = self.entries.get(ordinal * ENTRY..ordinal * ENTRY + ENTRY)?;
        let f = |at: usize| u32::from_le_bytes([e[at], e[at + 1], e[at + 2], e[at + 3]]) as usize;
        let key = self.keys.get(f(0)..f(0) + f(4))?;
        let val = self.vals.get(f(8)..f(8) + f(12))?;
        Some((key, val))
    }

    #[inline]
    fn probe(&self, hash: u64, matches: impl Fn(&[u8]) -> bool) -> Option<&'a [u8]> {
        if self.slot_count == 0 {
            return None;
        }
        let mask = self.slot_count - 1;
        let mut slot = (hash as usize) & mask;
        // the builder keeps load ≤ 50%, so an empty slot always terminates
        for _ in 0..=self.slot_count {
            let s = self.slots.get(slot * 4..slot * 4 + 4)?;
            let ordinal = u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
            if ordinal == 0 {
                return None;
            }
            let (key, val) = self.entry(ordinal as usize - 1)?;
            if matches(key) {
                return Some(val);
            }
            slot = (slot + 1) & mask;
        }
        None
    }

    /// Look up an exact key. No allocation.
    pub fn get(&self, key: &[u8]) -> Option<&'a [u8]> {
        self.probe(fnv1a(key), |k| k == key)
    }

    /// Look up the composite `(tag, content)` key without materializing
    /// it: the hash is folded incrementally over the implied
    /// `len-prefix ++ tag ++ content` bytes and the stored key is compared
    /// piecewise.
    pub fn get_composite(&self, tag: &str, content: &str) -> Option<&'a [u8]> {
        let prefix = (tag.len() as u16).to_be_bytes();
        let mut h = fnv1a_seed();
        for &b in prefix.iter().chain(tag.as_bytes()).chain(content.as_bytes()) {
            h = fnv1a_step(h, b);
        }
        let total = 2 + tag.len() + content.len();
        self.probe(h, |k| {
            k.len() == total
                && k[..2] == prefix
                && k[2..2 + tag.len()] == *tag.as_bytes()
                && k[2 + tag.len()..] == *content.as_bytes()
        })
    }

    /// Iterate `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [u8], &'a [u8])> + '_ {
        (0..self.count).filter_map(|i| self.entry(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(pairs: &[(&[u8], &[u8])]) -> Vec<u8> {
        let mut b = KeyMapBuilder::new();
        for (k, v) in pairs {
            b.insert(k.to_vec(), v.to_vec());
        }
        let mut out = Vec::new();
        b.finish(&mut out);
        out
    }

    #[test]
    fn get_and_iter_round_trip() {
        let bytes = build(&[
            (b"title", b"\x01"),
            (b"author", b"\x02\x03"),
            (b"year", b""),
            (b"z-last", b"\xff\xff\xff"),
        ]);
        let m = KeyMapRef::parse(&bytes).unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m.get(b"title"), Some(&b"\x01"[..]));
        assert_eq!(m.get(b"author"), Some(&b"\x02\x03"[..]));
        assert_eq!(m.get(b"year"), Some(&b""[..]));
        assert_eq!(m.get(b"missing"), None);
        let keys: Vec<&[u8]> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![&b"author"[..], b"title", b"year", b"z-last"]);
        assert_eq!(m.byte_len(), bytes.len());
    }

    #[test]
    fn empty_map_parses() {
        let bytes = build(&[]);
        let m = KeyMapRef::parse(&bytes).unwrap();
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(b"anything"), None);
        assert_eq!(m.iter().count(), 0);
    }

    #[test]
    fn composite_probe_matches_materialized_key() {
        let k1 = composite_key("title", "TOSS");
        let k2 = composite_key("author", "Jagadish");
        // adversarial: same concatenation, different split
        let k3 = composite_key("tit", "leTOSS");
        assert_ne!(k1, k3);
        let bytes = build(&[(&k1, b"a"), (&k2, b"b"), (&k3, b"c")]);
        let m = KeyMapRef::parse(&bytes).unwrap();
        assert_eq!(m.get_composite("title", "TOSS"), Some(&b"a"[..]));
        assert_eq!(m.get_composite("author", "Jagadish"), Some(&b"b"[..]));
        assert_eq!(m.get_composite("tit", "leTOSS"), Some(&b"c"[..]));
        assert_eq!(m.get_composite("title", "TAX"), None);
        assert_eq!(m.get_composite("ti", "tleTOSS"), None);
        assert_eq!(m.get(&k1), Some(&b"a"[..]));
    }

    #[test]
    fn many_keys_probe_correctly() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..1000)
            .map(|i| (format!("key-{i:04}").into_bytes(), vec![i as u8]))
            .collect();
        let mut b = KeyMapBuilder::new();
        for (k, v) in &pairs {
            b.insert(k.clone(), v.clone());
        }
        let mut bytes = Vec::new();
        b.finish(&mut bytes);
        let m = KeyMapRef::parse(&bytes).unwrap();
        for (k, v) in &pairs {
            assert_eq!(m.get(k), Some(&v[..]));
        }
        assert_eq!(m.get(b"key-9999"), None);
    }

    #[test]
    fn truncated_map_is_rejected() {
        let bytes = build(&[(b"k", b"v")]);
        assert!(KeyMapRef::parse(&bytes[..bytes.len() - 1]).is_none());
        assert!(KeyMapRef::parse(&bytes[..8]).is_none());
        assert!(KeyMapRef::parse(&[]).is_none());
    }
}
