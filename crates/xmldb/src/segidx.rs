//! Segment-backed frozen collection indexes.
//!
//! At checkpoint time the collection indexes are serialized into a
//! `toss_segment` container written as a `<snap>.seg` sidecar next to the
//! snapshot. On the next open, if the sidecar's checksum verifies and its
//! `last_seq` stamp matches the snapshot's journal cursor exactly, each
//! collection attaches a [`FrozenIndex`] — a zero-copy view into the
//! loaded buffer — instead of re-indexing every document. Any problem
//! with the sidecar (missing, truncated, corrupted, stale) silently falls
//! back to the rebuild path; the sidecar is derived data and is never
//! quarantined, and its loss never implicates the snapshot.
//!
//! The attached segment stays a collection's **base** across writes:
//! writes land in a small pointer delta plus tombstones (see
//! [`crate::IndexView`]). A checkpoint builds the next segment by merging
//! that delta into the base map by map — every key the delta and the
//! tombstones did not touch keeps its encoded block byte for byte — and
//! [`rebase`] then attaches it as the new base.
//!
//! ## Per-collection sections
//!
//! * `TAG_MAP` (name = collection): tag → postings, **raw** fixed-width
//!   encoding so `//tag` seeding iterates at near slice speed;
//! * `CONTENT_MAP` (name = collection): composite `(tag, content)` key →
//!   postings, varint-gap or Elias-Fano per list (whichever is smaller) —
//!   this map carries most of the pointer index's memory, so it gets the
//!   compression;
//! * `COLLECTION_META` (name = collection): document count (u64 LE), the
//!   attach-time sanity check.
//!
//! A posting packs into one `u64` as `doc_id << 32 | node_index`; the
//! pair sorts exactly like `(doc, node)`, so encoded lists preserve the
//! document order TAX requires. Collections holding a document id or
//! node index ≥ 2³² (never seen in practice) simply don't get sections
//! and rebuild as before.

use crate::collection::{Collection, DocumentId};
use crate::database::Database;
use crate::index::{Posting, Postings};
use crate::vfs::Vfs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use toss_segment::{
    composite_key, encode_postings, encode_postings_raw, KeyMapBuilder, KeyMapRef, PostingsBlock,
    SegmentBuilder,
};

pub use toss_segment::{kinds, Segment};

/// The segment sidecar path for a snapshot: `store.json` → `store.seg`.
pub fn seg_path(snapshot: &Path) -> PathBuf {
    snapshot.with_extension("seg")
}

/// Decode a packed postings key back into a [`Posting`].
#[inline]
pub(crate) fn posting_from_key(key: u64) -> Posting {
    Posting {
        doc: DocumentId(key >> 32),
        node: toss_tree::NodeId::from_index((key & 0xFFFF_FFFF) as usize),
    }
}

/// Pack a posting into its sortable `u64` key, or `None` when it does
/// not fit the 32+32 split.
#[inline]
fn key_from_posting(p: &Posting) -> Option<u64> {
    let node = p.node.index() as u64;
    if p.doc.0 > u32::MAX as u64 || node > u32::MAX as u64 {
        return None;
    }
    Some((p.doc.0 << 32) | node)
}

fn posting_keys(list: Postings<'_>) -> Option<Vec<u64>> {
    let mut keys = Vec::with_capacity(list.len());
    for p in list {
        keys.push(key_from_posting(&p)?);
    }
    // base postings ascend, and so does a delta of inserts; a replaced
    // document's postings sit at the tail, so sort those lists
    if !keys.windows(2).all(|w| w[0] < w[1]) {
        keys.sort_unstable();
        keys.dedup();
    }
    Some(keys)
}

/// One key map of the next segment: `base`'s entries merged, in key
/// order, with `changed` — every key the delta or a tombstone touched,
/// sorted, with its live postings. An untouched base entry is copied
/// verbatim (borrowed until the map is written); a changed one is
/// re-encoded with `encode` from its live postings, or dropped when none
/// are left. `None` when a posting does not fit the packed key.
fn merge_map(
    base: Option<KeyMapRef<'_>>,
    changed: Vec<(Vec<u8>, Postings<'_>)>,
    encode: fn(&[u64]) -> Vec<u8>,
) -> Option<Vec<u8>> {
    let mut map = KeyMapBuilder::new();
    let mut base = base.iter().flat_map(|m| m.iter()).peekable();
    for (key, postings) in changed {
        while let Some((k, v)) = base.next_if(|(k, _)| *k < key.as_slice()) {
            map.insert(k, v);
        }
        base.next_if(|(k, _)| *k == key.as_slice());
        let keys = posting_keys(postings)?;
        if !keys.is_empty() {
            map.insert(key, encode(&keys));
        }
    }
    for (k, v) in base {
        map.insert(k, v);
    }
    let mut out = Vec::new();
    map.finish(&mut out);
    Some(out)
}

/// Sort `changed` by key and drop repeated keys (a key both the delta
/// and a tombstone touched is listed twice, with the same postings).
fn sorted(mut changed: Vec<(Vec<u8>, Postings<'_>)>) -> Vec<(Vec<u8>, Postings<'_>)> {
    changed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    changed.dedup_by(|a, b| a.0 == b.0);
    changed
}

/// Serialize one collection's index into `builder`: its base merged with
/// its delta and tombstones. Returns `false` (adding nothing) when a
/// posting doesn't fit the packed key.
fn add_collection_sections(builder: &mut SegmentBuilder, name: &str, coll: &Collection) -> bool {
    let view = coll.index();
    let ix = view.0;
    let (tag_bytes, content_bytes) = match &ix.base {
        // nothing written since the base: its sections, verbatim
        Some(base) if ix.delta.is_empty() && ix.tombstones.docs.is_empty() => {
            (base.tag_payload().to_vec(), base.content_payload().to_vec())
        }
        base => {
            let tags = ix
                .delta
                .tag_lists()
                .map(|(t, list)| (t, ix.tag_postings(t, list)));
            let dead = ix
                .tombstones
                .tag
                .keys()
                .map(|t| (t.as_str(), view.by_tag(t)));
            let tags = sorted(
                tags.chain(dead)
                    .map(|(t, p)| (t.as_bytes().to_vec(), p))
                    .collect(),
            );
            let contents = ix
                .delta
                .content_lists()
                .map(|(t, c, list)| (composite_key(t, c), ix.content_postings(t, c, list)));
            let dead = ix.tombstones.content.iter().flat_map(|(t, m)| {
                m.keys()
                    .map(move |c| (composite_key(t, c), view.by_tag_content(t, c)))
            });
            let contents = sorted(contents.chain(dead).collect());
            let Some(tag_bytes) = merge_map(
                base.as_ref().map(FrozenIndex::tag_map),
                tags,
                encode_postings_raw,
            ) else {
                return false;
            };
            let Some(content_bytes) = merge_map(
                base.as_ref().map(FrozenIndex::content_map),
                contents,
                encode_postings,
            ) else {
                return false;
            };
            (tag_bytes, content_bytes)
        }
    };
    builder.add_section(kinds::TAG_MAP, name, tag_bytes);
    builder.add_section(kinds::CONTENT_MAP, name, content_bytes);
    builder.add_section(
        kinds::COLLECTION_META,
        name,
        (coll.len() as u64).to_le_bytes().to_vec(),
    );
    true
}

/// Build the `.seg` container bytes for `db`, stamped with `last_seq`
/// (the journal cursor of the snapshot being checkpointed).
pub fn build_segment(db: &Database, last_seq: u64) -> Vec<u8> {
    let mut builder = SegmentBuilder::new(last_seq);
    for coll in db.collections() {
        add_collection_sections(&mut builder, coll.name(), coll);
    }
    builder.finish()
}

/// Attach `segment` — built by [`build_segment`] from `db` as it is
/// now, with no write in between (the store has one writer) — as each
/// collection's new base, emptying its delta and tombstones. A
/// collection the segment has no sections for keeps its index.
pub fn rebase(db: &mut Database, segment: &Arc<Segment>) {
    for coll in db.collections_mut() {
        if let Some(base) = FrozenIndex::attach(segment, coll.name()) {
            coll.attach_base(base);
        }
    }
}

/// Best-effort write of segment bytes next to the snapshot. Sidecar
/// write failures never fail a checkpoint — the segment is derived data;
/// a missing or torn file just means the next open rebuilds. Written
/// *after* the snapshot rename so a crash in between leaves a stale
/// stamp, which the load path rejects.
pub(crate) fn write_segment(vfs: &dyn Vfs, snapshot: &Path, bytes: &[u8]) {
    let path = seg_path(snapshot);
    let _ = vfs.write(&path, bytes).and_then(|()| vfs.sync(&path));
}

/// Load and verify the segment sidecar for `snapshot`. Any failure —
/// absent file, I/O error, bad magic, checksum mismatch — returns `None`
/// and bumps a counter; the caller falls back to rebuilding indexes.
pub fn load_segment(vfs: &dyn Vfs, snapshot: &Path) -> Option<Arc<Segment>> {
    let path = seg_path(snapshot);
    if !vfs.exists(&path) {
        return None;
    }
    let bytes = match vfs.read(&path) {
        Ok(b) => b,
        Err(_) => {
            toss_obs::metrics::counter("xmldb.segment.load_failures").inc();
            return None;
        }
    };
    match Segment::parse(bytes) {
        Ok(seg) => {
            toss_obs::metrics::counter("xmldb.segment.loads").inc();
            Some(Arc::new(seg))
        }
        Err(_) => {
            toss_obs::metrics::counter("xmldb.segment.load_failures").inc();
            None
        }
    }
}

/// A frozen, zero-copy collection index reading straight out of a loaded
/// segment buffer. Holds the `Arc<Segment>` plus numeric section ranges
/// (not borrowed slices) so the collection can own it without
/// self-referential lifetimes; accessors reconstruct the typed views in
/// O(1) per probe.
#[derive(Debug, Clone)]
pub struct FrozenIndex {
    segment: Arc<Segment>,
    tag: (usize, usize),
    content: (usize, usize),
    doc_count: u64,
}

impl FrozenIndex {
    /// Attach to collection `name`'s sections inside `segment`. Returns
    /// `None` unless all three sections exist and both maps parse —
    /// callers then rebuild the pointer index instead.
    pub(crate) fn attach(segment: &Arc<Segment>, name: &str) -> Option<FrozenIndex> {
        let tag = segment.section_range(kinds::TAG_MAP, name)?;
        let content = segment.section_range(kinds::CONTENT_MAP, name)?;
        let meta = segment.section(kinds::COLLECTION_META, name)?;
        let doc_count = u64::from_le_bytes(meta.get(..8)?.try_into().ok()?);
        KeyMapRef::parse(&segment.bytes()[tag.0..tag.1])?;
        KeyMapRef::parse(&segment.bytes()[content.0..content.1])?;
        Some(FrozenIndex {
            segment: Arc::clone(segment),
            tag,
            content,
            doc_count,
        })
    }

    /// Document count recorded at build time (attach-time sanity check).
    pub(crate) fn doc_count(&self) -> u64 {
        self.doc_count
    }

    pub(crate) fn tag_map(&self) -> KeyMapRef<'_> {
        // parse validated at attach; re-parsing is a header read
        KeyMapRef::parse(&self.segment.bytes()[self.tag.0..self.tag.1])
            .expect("tag map validated at attach")
    }

    pub(crate) fn content_map(&self) -> KeyMapRef<'_> {
        KeyMapRef::parse(&self.segment.bytes()[self.content.0..self.content.1])
            .expect("content map validated at attach")
    }

    pub(crate) fn tag_payload(&self) -> &[u8] {
        &self.segment.bytes()[self.tag.0..self.tag.1]
    }

    pub(crate) fn content_payload(&self) -> &[u8] {
        &self.segment.bytes()[self.content.0..self.content.1]
    }

    /// The block of all nodes with the given tag, in document order.
    pub(crate) fn by_tag(&self, tag: &str) -> Option<PostingsBlock<'_>> {
        self.tag_map()
            .get(tag.as_bytes())
            .and_then(PostingsBlock::parse)
    }

    /// The block of all nodes with the given tag and exact content
    /// rendering. Allocation-free: the composite key is hashed
    /// incrementally and compared piecewise, never materialized.
    pub(crate) fn by_tag_content(&self, tag: &str, content: &str) -> Option<PostingsBlock<'_>> {
        self.content_map()
            .get_composite(tag, content)
            .and_then(PostingsBlock::parse)
    }

    /// Bytes of this collection's sections within the segment (the
    /// `toss.index.segment_bytes` contribution).
    pub(crate) fn section_bytes(&self) -> usize {
        (self.tag.1 - self.tag.0) + (self.content.1 - self.content.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let c = db.create_collection("dblp").unwrap();
        c.insert_xml("<article><author>A</author><year>1999</year></article>")
            .unwrap();
        c.insert_xml("<article><author>B</author><year>2000</year></article>")
            .unwrap();
        c.insert_xml("<article><author>A</author><year>2000</year></article>")
            .unwrap();
        db.create_collection("empty").unwrap();
        db
    }

    fn decoded(block: Option<PostingsBlock<'_>>) -> Vec<Posting> {
        block.map_or_else(Vec::new, |b| b.iter().map(posting_from_key).collect())
    }

    #[test]
    fn frozen_probes_match_pointer_probes() {
        let db = sample_db();
        let bytes = build_segment(&db, 7);
        let seg = Arc::new(Segment::parse(bytes).unwrap());
        assert_eq!(seg.last_seq(), 7);
        let frozen = FrozenIndex::attach(&seg, "dblp").unwrap();
        assert_eq!(frozen.doc_count(), 3);
        let coll = db.collection("dblp").unwrap();
        let view = coll.index();
        for tag in ["article", "author", "year", "missing"] {
            assert_eq!(
                decoded(frozen.by_tag(tag)),
                view.by_tag(tag).to_vec(),
                "tag {tag}"
            );
        }
        for (tag, content) in [
            ("author", "A"),
            ("author", "B"),
            ("author", "Z"),
            ("year", "2000"),
            ("missing", "A"),
        ] {
            assert_eq!(
                decoded(frozen.by_tag_content(tag, content)),
                view.by_tag_content(tag, content).to_vec(),
                "({tag}, {content})"
            );
        }
        assert!(frozen.section_bytes() > 0);
        // empty collection has sections too, all empty
        let e = FrozenIndex::attach(&seg, "empty").unwrap();
        assert_eq!(e.doc_count(), 0);
        assert!(e.by_tag("article").is_none());
        // unknown collection does not attach
        assert!(FrozenIndex::attach(&seg, "nope").is_none());
    }

    #[test]
    fn sidecar_round_trip_and_corruption_fallback() {
        use crate::vfs::FaultVfs;
        let vfs = FaultVfs::new();
        let snap = Path::new("store.json");
        let db = sample_db();
        let bytes = build_segment(&db, 3);
        write_segment(&vfs, snap, &bytes);
        assert!(vfs.exists(&seg_path(snap)));
        let seg = load_segment(&vfs, snap).unwrap();
        assert_eq!(seg.last_seq(), 3);
        // corrupt one byte → load silently fails
        let mut bad = bytes.clone();
        bad[bytes.len() / 2] ^= 0x10;
        vfs.corrupt(&seg_path(snap), bad);
        assert!(load_segment(&vfs, snap).is_none());
        // truncated → load silently fails
        vfs.corrupt(&seg_path(snap), bytes[..bytes.len() / 3].to_vec());
        assert!(load_segment(&vfs, snap).is_none());
        // absent → None without error
        let missing = Path::new("other.json");
        assert!(load_segment(&vfs, missing).is_none());
    }

    #[test]
    fn packed_key_round_trips() {
        let p = Posting {
            doc: DocumentId(123_456),
            node: toss_tree::NodeId::from_index(789),
        };
        let key = key_from_posting(&p).unwrap();
        assert_eq!(posting_from_key(key), p);
        // doc id beyond 32 bits refuses to pack
        let big = Posting {
            doc: DocumentId(1 << 33),
            node: toss_tree::NodeId::from_index(0),
        };
        assert!(key_from_posting(&big).is_none());
    }
}
