//! Inverted indexes over a collection.
//!
//! Two postings structures accelerate the XPath engine:
//!
//! * **tag index** — tag name → list of `(document, node)` pairs, used by
//!   the descendant axis (`//tag`) so it never scans unrelated subtrees;
//! * **content index** — `(tag, exact content)` → postings, used for
//!   equality predicates like `[author='J. Ullman']`. Stored as a nested
//!   tag → content → postings map so the hot probe
//!   ([`CollectionIndex::by_tag_content`]) is two borrowed lookups and
//!   zero allocations.
//!
//! Postings are kept in document order (documents in insertion order,
//! nodes in preorder) so merged results preserve the order TAX requires.
//!
//! A collection's index is **base ∪ delta** ([`LayeredIndex`]): a frozen
//! zero-copy [`crate::segidx::FrozenIndex`] base read from the `.seg`
//! sidecar a checkpoint wrote, plus this pointer index as the delta,
//! holding only the documents inserted or replaced since the base was
//! built, plus a sorted list of tombstoned base documents (removed or
//! replaced since). A probe returns `base ∖ tombstones ++ delta` as one
//! [`Postings`] value: ids are monotonic and a replaced document's
//! postings go to the tail, so this is the order a single pointer index
//! fed the same mutations returns. A store with no sidecar has no base;
//! a checkpoint makes the segment it writes the new base and empties the
//! delta.

use crate::collection::DocumentId;
use crate::segidx::{posting_from_key, FrozenIndex};
use std::collections::HashMap;
use toss_segment::PostingsBlock;
use toss_tree::{NodeId, Tree};

/// A posting: one node in one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Posting {
    /// Which document.
    pub doc: DocumentId,
    /// Which node within that document's tree.
    pub node: NodeId,
}

/// The index keys one document contributed, recorded at insert time so
/// removal touches exactly those postings lists instead of sweeping the
/// whole index.
#[derive(Debug, Default)]
struct DocKeys {
    tags: Vec<String>,
    contents: Vec<(String, String)>,
}

/// Inverted indexes for one collection.
#[derive(Debug, Default)]
pub(crate) struct CollectionIndex {
    tag: HashMap<String, Vec<Posting>>,
    content: HashMap<String, HashMap<String, Vec<Posting>>>,
    doc_keys: HashMap<DocumentId, DocKeys>,
}

impl CollectionIndex {
    /// Index every node of `tree` under document id `doc`.
    pub(crate) fn add_document(&mut self, doc: DocumentId, tree: &Tree) {
        let keys = self.doc_keys.entry(doc).or_default();
        for node in tree.preorder() {
            let Ok(data) = tree.data(node) else { continue };
            let posting = Posting { doc, node };
            let list = self.tag.entry(data.tag.clone()).or_default();
            // postings for one document are contiguous, so "first
            // contribution to this list" is one tail check
            if list.last().map(|p| p.doc) != Some(doc) {
                keys.tags.push(data.tag.clone());
            }
            list.push(posting);
            if let Some(c) = &data.content {
                let rendered = c.render();
                let list = self
                    .content
                    .entry(data.tag.clone())
                    .or_default()
                    .entry(rendered.clone())
                    .or_default();
                if list.last().map(|p| p.doc) != Some(doc) {
                    keys.contents.push((data.tag.clone(), rendered));
                }
                list.push(posting);
            }
        }
    }

    /// Whether no document is indexed.
    pub(crate) fn is_empty(&self) -> bool {
        self.doc_keys.is_empty()
    }

    /// Whether `doc`'s postings are in this index.
    fn contains(&self, doc: DocumentId) -> bool {
        self.doc_keys.contains_key(&doc)
    }

    /// Drop all postings for a document — touching only the keys the
    /// document actually contributed (recorded at insert time).
    pub(crate) fn remove_document(&mut self, doc: DocumentId) {
        let Some(keys) = self.doc_keys.remove(&doc) else { return };
        for tag in keys.tags {
            if let Some(v) = self.tag.get_mut(&tag) {
                v.retain(|p| p.doc != doc);
                if v.is_empty() {
                    self.tag.remove(&tag);
                }
            }
        }
        for (tag, content) in keys.contents {
            if let Some(inner) = self.content.get_mut(&tag) {
                if let Some(v) = inner.get_mut(&content) {
                    v.retain(|p| p.doc != doc);
                    if v.is_empty() {
                        inner.remove(&content);
                    }
                }
                if inner.is_empty() {
                    self.content.remove(&tag);
                }
            }
        }
    }

    /// All nodes with the given tag, in document order.
    pub(crate) fn by_tag(&self, tag: &str) -> &[Posting] {
        self.tag.get(tag).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All nodes with the given tag and exact content rendering.
    /// Allocation-free: two borrowed map lookups.
    pub(crate) fn by_tag_content(&self, tag: &str, content: &str) -> &[Posting] {
        self.content
            .get(tag)
            .and_then(|m| m.get(content))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Distinct indexed tags, each with its postings.
    pub(crate) fn tag_lists(&self) -> impl Iterator<Item = (&str, &[Posting])> {
        self.tag.iter().map(|(t, v)| (t.as_str(), v.as_slice()))
    }

    /// Distinct `(tag, content)` pairs, each with its postings.
    pub(crate) fn content_lists(&self) -> impl Iterator<Item = (&str, &str, &[Posting])> {
        self.content.iter().flat_map(|(t, m)| {
            m.iter()
                .map(move |(c, v)| (t.as_str(), c.as_str(), v.as_slice()))
        })
    }

    /// Approximate resident heap bytes of this pointer index: string
    /// keys, postings vectors, per-entry map overhead, and the
    /// reverse-key lists. An estimate for the `toss.index.pointer_bytes`
    /// gauge and the bench comparison, not an allocator ledger.
    pub(crate) fn approx_bytes(&self) -> usize {
        // String ≈ 24B header + capacity; Vec<Posting> ≈ 24B + 16B/elem;
        // hash-map entry bookkeeping ≈ 48B.
        const STR: usize = 24;
        const VEC: usize = 24;
        const ENTRY: usize = 48;
        let mut total = 0;
        for (k, v) in &self.tag {
            total += ENTRY + STR + k.len() + VEC + v.len() * std::mem::size_of::<Posting>();
        }
        for (t, m) in &self.content {
            total += ENTRY + STR + t.len() + 48; // inner map header
            for (c, v) in m {
                total += ENTRY + STR + c.len() + VEC + v.len() * std::mem::size_of::<Posting>();
            }
        }
        for (_, keys) in self.doc_keys.iter() {
            total += ENTRY + 8 + 2 * VEC;
            total += keys.tags.iter().map(|t| STR + t.len()).sum::<usize>();
            total += keys
                .contents
                .iter()
                .map(|(t, c)| 2 * STR + t.len() + c.len())
                .sum::<usize>();
        }
        total
    }
}

/// The base documents a collection removed or replaced since its base
/// was built, and how many postings of each key they hold there — what
/// an exact [`Postings::len`] subtracts, and which keys a probe must
/// filter at all.
#[derive(Debug, Default)]
pub(crate) struct Tombstones {
    /// Ascending, like the base postings they are merged against.
    pub(crate) docs: Vec<DocumentId>,
    /// tag → postings of tombstoned documents in the base's tag map.
    pub(crate) tag: HashMap<String, usize>,
    /// tag → content → postings in the base's content map.
    pub(crate) content: HashMap<String, HashMap<String, usize>>,
}

impl Tombstones {
    /// Tombstone base document `doc`, whose base postings came from
    /// `tree`: count them per key, as the base indexed them.
    fn add(&mut self, doc: DocumentId, tree: &Tree) {
        let Err(pos) = self.docs.binary_search(&doc) else {
            debug_assert!(false, "{doc} is tombstoned twice");
            return;
        };
        self.docs.insert(pos, doc);
        for node in tree.preorder() {
            let Ok(data) = tree.data(node) else { continue };
            *self.tag.entry(data.tag.clone()).or_default() += 1;
            if let Some(c) = &data.content {
                *self
                    .content
                    .entry(data.tag.clone())
                    .or_default()
                    .entry(c.render())
                    .or_default() += 1;
            }
        }
    }

    /// Tombstoned postings under `tag` (0 without a lookup when nothing
    /// is tombstoned, the common case).
    fn tag(&self, tag: &str) -> usize {
        if self.docs.is_empty() {
            return 0;
        }
        self.tag.get(tag).copied().unwrap_or(0)
    }

    /// Tombstoned postings under `(tag, content)`.
    fn content(&self, tag: &str, content: &str) -> usize {
        if self.docs.is_empty() {
            return 0;
        }
        self.content
            .get(tag)
            .and_then(|m| m.get(content))
            .copied()
            .unwrap_or(0)
    }

    /// Approximate heap bytes, on [`CollectionIndex::approx_bytes`]'s
    /// scale.
    fn approx_bytes(&self) -> usize {
        const ENTRY: usize = 48 + 24 + 8;
        let keys: usize = self.tag.keys().map(|t| ENTRY + t.len()).sum::<usize>()
            + self
                .content
                .iter()
                .map(|(t, m)| ENTRY + t.len() + m.keys().map(|c| ENTRY + c.len()).sum::<usize>())
                .sum::<usize>();
        self.docs.len() * std::mem::size_of::<DocumentId>() + keys
    }
}

/// One collection's index: a frozen base (absent for a store opened
/// without a usable `.seg`, or never checkpointed), the tombstones of
/// base documents removed or replaced since, and the pointer delta of
/// documents inserted or replaced since.
#[derive(Debug, Default)]
pub(crate) struct LayeredIndex {
    pub(crate) base: Option<FrozenIndex>,
    pub(crate) tombstones: Tombstones,
    pub(crate) delta: CollectionIndex,
}

impl LayeredIndex {
    /// Index document `doc` (new, or the new content of a replaced one).
    pub(crate) fn add_document(&mut self, doc: DocumentId, tree: &Tree) {
        self.delta.add_document(doc, tree);
    }

    /// Drop document `doc`, whose indexed content is `tree`: from the
    /// delta if it was written since the base, else by tombstoning it.
    pub(crate) fn remove_document(&mut self, doc: DocumentId, tree: &Tree) {
        if self.delta.contains(doc) {
            self.delta.remove_document(doc);
        } else if self.base.is_some() {
            self.tombstones.add(doc, tree);
        }
    }

    /// `(pointer, segment)` resident bytes: the delta and tombstones'
    /// heap estimate, and the base's section bytes.
    pub(crate) fn approx_bytes(&self) -> (usize, usize) {
        (
            self.delta.approx_bytes() + self.tombstones.approx_bytes(),
            self.base.as_ref().map_or(0, FrozenIndex::section_bytes),
        )
    }

    /// The postings of `tag`, whose delta list is `delta`.
    pub(crate) fn tag_postings<'a>(&'a self, tag: &str, delta: &'a [Posting]) -> Postings<'a> {
        let base = self.base.as_ref().and_then(|b| b.by_tag(tag));
        self.postings(base, self.tombstones.tag(tag), delta)
    }

    /// The postings of `(tag, content)`, whose delta list is `delta`.
    pub(crate) fn content_postings<'a>(
        &'a self,
        tag: &str,
        content: &str,
        delta: &'a [Posting],
    ) -> Postings<'a> {
        let base = self
            .base
            .as_ref()
            .and_then(|b| b.by_tag_content(tag, content));
        self.postings(base, self.tombstones.content(tag, content), delta)
    }

    /// One key's postings: its base block with `dead` of its postings
    /// tombstoned, then its delta list.
    fn postings<'a>(
        &'a self,
        base: Option<PostingsBlock<'a>>,
        dead: usize,
        delta: &'a [Posting],
    ) -> Postings<'a> {
        Postings {
            base,
            // a list none of whose postings is tombstoned skips the filter
            tombstones: if dead == 0 {
                &[]
            } else {
                &self.tombstones.docs
            },
            dead,
            delta,
        }
    }
}

/// One key's postings, `base ∖ tombstones ++ delta`: a compressed block
/// decoded on the fly from the frozen base, filtered by a merge cursor
/// over the tombstoned documents, then a borrowed slice of the delta.
#[derive(Debug, Clone, Copy)]
pub struct Postings<'a> {
    base: Option<PostingsBlock<'a>>,
    /// The tombstones to skip in `base`; empty when none holds a posting
    /// of this list.
    tombstones: &'a [DocumentId],
    /// How many of `base`'s postings the tombstones hold.
    dead: usize,
    delta: &'a [Posting],
}

impl<'a> Postings<'a> {
    /// Number of postings — O(1): block headers carry their length, and
    /// the tombstoned postings are counted per key when tombstoned.
    pub(crate) fn len(&self) -> usize {
        self.base.map_or(0, |b| b.len()).saturating_sub(self.dead) + self.delta.len()
    }

    /// Iterate the postings in document order.
    pub(crate) fn iter(&self) -> PostingsIter<'a> {
        let base = match self.base {
            // raw-encoded blocks (the tag map) iterate their key bytes
            // directly — chunked slice traversal instead of per-element
            // encoding dispatch
            Some(b) => match b.raw_key_bytes() {
                Some(bytes) => BaseIter::Raw(bytes.chunks_exact(8)),
                None => BaseIter::Block(b.iter()),
            },
            None => BaseIter::Raw([].chunks_exact(8)),
        };
        PostingsIter {
            base,
            tombstones: self.tombstones,
            delta: self.delta.iter(),
        }
    }

    /// Materialize into a vector.
    pub fn to_vec(&self) -> Vec<Posting> {
        self.iter().collect()
    }
}

impl<'a> IntoIterator for Postings<'a> {
    type Item = Posting;
    type IntoIter = PostingsIter<'a>;
    fn into_iter(self) -> PostingsIter<'a> {
        self.iter()
    }
}

/// Iterator over a frozen base block's postings.
#[derive(Debug, Clone)]
enum BaseIter<'a> {
    /// Compressed encodings.
    Block(toss_segment::postings::PostingsIter<'a>),
    /// A raw-encoded block's key bytes, at slice speed.
    Raw(std::slice::ChunksExact<'a, u8>),
}

impl Iterator for BaseIter<'_> {
    type Item = Posting;
    #[inline]
    fn next(&mut self) -> Option<Posting> {
        match self {
            BaseIter::Block(it) => it.next().map(posting_from_key),
            BaseIter::Raw(it) => it.next().map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                posting_from_key(u64::from_le_bytes(a))
            }),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            BaseIter::Block(it) => it.size_hint(),
            BaseIter::Raw(it) => it.size_hint(),
        }
    }
}

/// Iterator over [`Postings`], yielding postings by value: the base's
/// surviving postings, then the delta's.
#[derive(Debug, Clone)]
pub struct PostingsIter<'a> {
    base: BaseIter<'a>,
    /// The merge cursor: tombstones at or after the last base posting.
    tombstones: &'a [DocumentId],
    delta: std::slice::Iter<'a, Posting>,
}

impl PostingsIter<'_> {
    /// Whether base posting document `doc` is tombstoned, advancing the
    /// cursor past every tombstone below it: base postings ascend by
    /// document, so the cursor never moves back.
    #[inline]
    fn tombstoned(&mut self, doc: DocumentId) -> bool {
        while let Some((&t, rest)) = self.tombstones.split_first() {
            if t >= doc {
                return t == doc;
            }
            self.tombstones = rest;
        }
        false
    }
}

impl Iterator for PostingsIter<'_> {
    type Item = Posting;
    #[inline]
    fn next(&mut self) -> Option<Posting> {
        while let Some(p) = self.base.next() {
            if !self.tombstoned(p.doc) {
                return Some(p);
            }
        }
        self.delta.next().copied()
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let (base_lo, base_hi) = self.base.size_hint();
        let (delta_lo, delta_hi) = self.delta.size_hint();
        let lo = if self.tombstones.is_empty() {
            base_lo + delta_lo
        } else {
            delta_lo
        };
        (lo, base_hi.zip(delta_hi).map(|(b, d)| b + d))
    }
}

/// Read-only view of a collection's index, obtained from
/// [`crate::Collection::index`]. Copyable. The index is the frozen
/// `.seg` base the last checkpoint or snapshot load attached (if any),
/// minus the base documents removed or replaced since, plus a pointer
/// delta of the documents written since; every probe answers
/// `base ∖ tombstones ++ delta`, in document order for documents never
/// replaced since the base was built. Probes are allocation-free except
/// where they merge several lists.
#[derive(Debug, Clone, Copy)]
pub struct IndexView<'a>(pub(crate) &'a LayeredIndex);

impl<'a> IndexView<'a> {
    /// All nodes with the given tag, in document order.
    pub fn by_tag(&self, tag: &str) -> Postings<'a> {
        self.0.tag_postings(tag, self.0.delta.by_tag(tag))
    }

    /// All nodes with the given tag and exact content rendering.
    pub fn by_tag_content(&self, tag: &str, content: &str) -> Postings<'a> {
        let delta = self.0.delta.by_tag_content(tag, content);
        self.0.content_postings(tag, content, delta)
    }

    /// Batched multi-term probe: all nodes whose tag is `tag` and whose
    /// content renders as *any* of `terms`, merged into one
    /// document-order postings list. This is the SEO fast path — a
    /// rewritten predicate with N expanded terms becomes one merged
    /// lookup instead of N separate probes (or N full scans).
    pub fn by_tag_content_any<S: AsRef<str>>(&self, tag: &str, terms: &[S]) -> Vec<Posting> {
        let mut merged: Vec<Posting> = Vec::new();
        for term in terms {
            merged.extend(self.by_tag_content(tag, term.as_ref()).iter());
        }
        merged.sort();
        merged.dedup();
        merged
    }

    /// The distinct documents holding a `tag` node whose content is any
    /// of `terms`, in document order. The candidate set an index-probe
    /// query plan feeds to the doc-filtered evaluator.
    pub fn docs_with_tag_content_any<S: AsRef<str>>(
        &self,
        tag: &str,
        terms: &[S],
    ) -> Vec<DocumentId> {
        let mut docs: Vec<DocumentId> = self
            .by_tag_content_any(tag, terms)
            .into_iter()
            .map(|p| p.doc)
            .collect();
        docs.dedup(); // merged postings are already in document order
        docs
    }

    /// Total postings for `(tag, term)` pairs across `terms` — the
    /// planner's selectivity estimate, cheaper than materializing the
    /// merge (no sort, no dedup). O(terms): each list's length is O(1),
    /// and exact.
    pub fn tag_content_any_len<S: AsRef<str>>(&self, tag: &str, terms: &[S]) -> usize {
        terms
            .iter()
            .map(|t| self.by_tag_content(tag, t.as_ref()).len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toss_tree::TreeBuilder;

    fn tree(author: &str) -> Tree {
        TreeBuilder::new("inproceedings")
            .leaf("author", author)
            .leaf("year", "1999")
            .build()
    }

    #[test]
    fn tag_postings_in_document_order() {
        let mut idx = CollectionIndex::default();
        idx.add_document(DocumentId(0), &tree("A"));
        idx.add_document(DocumentId(1), &tree("B"));
        let p = idx.by_tag("author");
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].doc, DocumentId(0));
        assert_eq!(p[1].doc, DocumentId(1));
        assert_eq!(idx.by_tag("inproceedings").len(), 2);
        assert_eq!(idx.by_tag("missing").len(), 0);
    }

    #[test]
    fn content_postings_require_exact_match() {
        let mut idx = CollectionIndex::default();
        idx.add_document(DocumentId(0), &tree("J. Ullman"));
        assert_eq!(idx.by_tag_content("author", "J. Ullman").len(), 1);
        assert_eq!(idx.by_tag_content("author", "J Ullman").len(), 0);
        assert_eq!(idx.by_tag_content("year", "1999").len(), 1);
    }

    #[test]
    fn multi_term_probe_merges_in_document_order() {
        let mut ix = LayeredIndex::default();
        ix.add_document(DocumentId(0), &tree("B"));
        ix.add_document(DocumentId(1), &tree("A"));
        ix.add_document(DocumentId(2), &tree("B"));
        ix.add_document(DocumentId(3), &tree("C"));
        let idx = IndexView(&ix);
        let merged = idx.by_tag_content_any("author", &["A", "B", "A"]);
        assert_eq!(
            merged.iter().map(|p| p.doc).collect::<Vec<_>>(),
            vec![DocumentId(0), DocumentId(1), DocumentId(2)],
            "doc order, duplicate query terms deduplicated"
        );
        assert_eq!(
            idx.docs_with_tag_content_any("author", &["A", "B"]),
            vec![DocumentId(0), DocumentId(1), DocumentId(2)]
        );
        // selectivity estimate counts raw postings (duplicate terms and all)
        assert_eq!(idx.tag_content_any_len("author", &["A", "B"]), 3);
        assert!(idx.by_tag_content_any("author", &["Z"]).is_empty());
        assert!(idx.by_tag_content_any::<&str>("author", &[]).is_empty());
    }

    #[test]
    fn remove_document_clears_postings() {
        let mut idx = CollectionIndex::default();
        idx.add_document(DocumentId(0), &tree("A"));
        idx.add_document(DocumentId(1), &tree("B"));
        idx.remove_document(DocumentId(0));
        assert_eq!(idx.by_tag("author").len(), 1);
        assert_eq!(idx.by_tag_content("author", "A").len(), 0);
        assert_eq!(idx.by_tag_content("author", "B").len(), 1);
    }

    #[test]
    fn remove_document_drops_emptied_keys_entirely() {
        let mut idx = CollectionIndex::default();
        idx.add_document(DocumentId(0), &tree("A"));
        idx.add_document(DocumentId(1), &tree("B"));
        idx.remove_document(DocumentId(0));
        // "A" was only in doc 0: its key (and no other) is gone
        assert!(!idx.content_lists().any(|(_, c, _)| c == "A"));
        assert!(idx.content_lists().any(|(_, c, _)| c == "B"));
        idx.remove_document(DocumentId(1));
        assert_eq!(idx.approx_bytes(), 0, "no key, list or reverse entry is left");
        // removing an unknown document is a no-op
        idx.remove_document(DocumentId(7));
    }

    #[test]
    fn content_lists_enumerate_terms() {
        let mut idx = CollectionIndex::default();
        idx.add_document(DocumentId(0), &tree("A"));
        let pairs: Vec<_> = idx.content_lists().map(|(t, c, _)| (t, c)).collect();
        assert!(pairs.contains(&("author", "A")));
        assert!(pairs.contains(&("year", "1999")));
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut idx = CollectionIndex::default();
        let empty = idx.approx_bytes();
        idx.add_document(DocumentId(0), &tree("A"));
        let one = idx.approx_bytes();
        assert!(one > empty);
        idx.add_document(DocumentId(1), &tree("B"));
        assert!(idx.approx_bytes() > one);
    }

    #[test]
    fn view_without_a_base_reads_the_delta() {
        let mut ix = LayeredIndex::default();
        ix.add_document(DocumentId(0), &tree("A"));
        ix.add_document(DocumentId(1), &tree("B"));
        let view = IndexView(&ix);
        assert_eq!(view.by_tag("author").len(), 2);
        assert_eq!(view.by_tag("author").to_vec(), ix.delta.by_tag("author"));
        assert_eq!(view.by_tag_content("author", "A").len(), 1);
        assert_eq!(view.by_tag("missing").len(), 0);
        // iteration yields postings by value
        let nodes: Vec<usize> = view.by_tag("year").iter().map(|p| p.node.index()).collect();
        assert_eq!(nodes.len(), 2);
    }
}
