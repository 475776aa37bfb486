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
//! A collection answers probes from one of two interchangeable backends
//! behind the [`IndexView`] facade: this live pointer index, or a frozen
//! zero-copy [`crate::segidx::FrozenIndex`] loaded from a `.seg` snapshot
//! sidecar (see [`crate::segidx`]). Callers never see which one they hit;
//! postings come back as [`Postings`], identical in content and order
//! from either side.

use crate::collection::DocumentId;
use crate::segidx::FrozenIndex;
use std::collections::HashMap;
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
pub struct CollectionIndex {
    tag: HashMap<String, Vec<Posting>>,
    content: HashMap<String, HashMap<String, Vec<Posting>>>,
    doc_keys: HashMap<DocumentId, DocKeys>,
}

impl CollectionIndex {
    /// An empty index.
    pub(crate) fn new() -> Self {
        Self::default()
    }

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

    /// Distinct indexed tags.
    pub(crate) fn tags(&self) -> impl Iterator<Item = &str> {
        self.tag.keys().map(String::as_str)
    }

    /// Distinct `(tag, content)` pairs — the raw material the Ontology
    /// Maker mines for terms.
    pub(crate) fn tag_content_pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.content
            .iter()
            .flat_map(|(t, m)| m.keys().map(move |c| (t.as_str(), c.as_str())))
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

/// A postings list from either index backend: a borrowed slice from the
/// pointer index, or a compressed block decoded on the fly from a frozen
/// segment. Same contents, same (document, preorder) order.
#[derive(Debug, Clone, Copy)]
pub enum Postings<'a> {
    /// Borrowed from the live pointer index.
    Slice(&'a [Posting]),
    /// Decoded lazily from a frozen segment block (`None` = absent key).
    Block(Option<toss_segment::PostingsBlock<'a>>),
}

impl<'a> Postings<'a> {
    /// Number of postings — O(1) for both backends.
    pub(crate) fn len(&self) -> usize {
        match self {
            Postings::Slice(s) => s.len(),
            Postings::Block(b) => b.map(|b| b.len()).unwrap_or(0),
        }
    }

    /// Iterate the postings in document order.
    pub(crate) fn iter(&self) -> PostingsIter<'a> {
        match self {
            Postings::Slice(s) => PostingsIter::Slice(s.iter()),
            // raw-encoded blocks (the tag map) iterate their key bytes
            // directly — chunked slice traversal instead of per-element
            // encoding dispatch
            Postings::Block(Some(b)) => match b.raw_key_bytes() {
                Some(bytes) => PostingsIter::RawBlock(bytes.chunks_exact(8)),
                None => PostingsIter::Block(b.iter()),
            },
            Postings::Block(None) => PostingsIter::Slice([].iter()),
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

/// Iterator over [`Postings`], yielding postings by value.
#[derive(Debug, Clone)]
pub enum PostingsIter<'a> {
    /// Over a pointer-index slice.
    Slice(std::slice::Iter<'a, Posting>),
    /// Over a frozen segment block (compressed encodings).
    Block(toss_segment::postings::PostingsIter<'a>),
    /// Over a raw-encoded frozen block's key bytes, at slice speed.
    RawBlock(std::slice::ChunksExact<'a, u8>),
}

impl Iterator for PostingsIter<'_> {
    type Item = Posting;
    #[inline]
    fn next(&mut self) -> Option<Posting> {
        match self {
            PostingsIter::Slice(it) => it.next().copied(),
            PostingsIter::Block(it) => it.next().map(crate::segidx::posting_from_key),
            PostingsIter::RawBlock(it) => it.next().map(|c| {
                let mut a = [0u8; 8];
                a.copy_from_slice(c);
                crate::segidx::posting_from_key(u64::from_le_bytes(a))
            }),
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PostingsIter::Slice(it) => it.size_hint(),
            PostingsIter::Block(it) => it.size_hint(),
            PostingsIter::RawBlock(it) => it.size_hint(),
        }
    }
}

/// Read-only facade over whichever index backend a collection currently
/// has: the live pointer index, or a frozen segment. Copyable; obtained
/// from [`crate::Collection::index`]. Semantics are identical across
/// backends — same postings, same order — which the equivalence proptest
/// and the bench assertions both enforce.
#[derive(Debug, Clone, Copy)]
pub enum IndexView<'a> {
    /// The live pointer index.
    Pointer(&'a CollectionIndex),
    /// A frozen segment-backed index.
    Frozen(&'a FrozenIndex),
}

impl<'a> IndexView<'a> {
    /// All nodes with the given tag, in document order.
    pub fn by_tag(&self, tag: &str) -> Postings<'a> {
        match self {
            IndexView::Pointer(ix) => Postings::Slice(ix.by_tag(tag)),
            IndexView::Frozen(f) => f.by_tag(tag),
        }
    }

    /// All nodes with the given tag and exact content rendering.
    pub fn by_tag_content(&self, tag: &str, content: &str) -> Postings<'a> {
        match self {
            IndexView::Pointer(ix) => Postings::Slice(ix.by_tag_content(tag, content)),
            IndexView::Frozen(f) => f.by_tag_content(tag, content),
        }
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
    /// merge (no sort, no dedup). O(terms) on both backends (frozen
    /// blocks carry their length in the header).
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
        let mut idx = CollectionIndex::new();
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
        let mut idx = CollectionIndex::new();
        idx.add_document(DocumentId(0), &tree("J. Ullman"));
        assert_eq!(idx.by_tag_content("author", "J. Ullman").len(), 1);
        assert_eq!(idx.by_tag_content("author", "J Ullman").len(), 0);
        assert_eq!(idx.by_tag_content("year", "1999").len(), 1);
    }

    #[test]
    fn multi_term_probe_merges_in_document_order() {
        let mut idx = CollectionIndex::new();
        idx.add_document(DocumentId(0), &tree("B"));
        idx.add_document(DocumentId(1), &tree("A"));
        idx.add_document(DocumentId(2), &tree("B"));
        idx.add_document(DocumentId(3), &tree("C"));
        let idx = IndexView::Pointer(&idx);
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
        let mut idx = CollectionIndex::new();
        idx.add_document(DocumentId(0), &tree("A"));
        idx.add_document(DocumentId(1), &tree("B"));
        idx.remove_document(DocumentId(0));
        assert_eq!(idx.by_tag("author").len(), 1);
        assert_eq!(idx.by_tag_content("author", "A").len(), 0);
        assert_eq!(idx.by_tag_content("author", "B").len(), 1);
    }

    #[test]
    fn remove_document_drops_emptied_keys_entirely() {
        let mut idx = CollectionIndex::new();
        idx.add_document(DocumentId(0), &tree("A"));
        idx.add_document(DocumentId(1), &tree("B"));
        idx.remove_document(DocumentId(0));
        // "A" was only in doc 0: its key (and no other) is gone
        assert!(!idx.tag_content_pairs().any(|(_, c)| c == "A"));
        assert!(idx.tag_content_pairs().any(|(_, c)| c == "B"));
        idx.remove_document(DocumentId(1));
        assert_eq!(idx.approx_bytes(), 0, "no key, list or reverse entry is left");
        // removing an unknown document is a no-op
        idx.remove_document(DocumentId(7));
    }

    #[test]
    fn tag_content_pairs_enumerates_terms() {
        let mut idx = CollectionIndex::new();
        idx.add_document(DocumentId(0), &tree("A"));
        let pairs: Vec<_> = idx.tag_content_pairs().collect();
        assert!(pairs.contains(&("author", "A")));
        assert!(pairs.contains(&("year", "1999")));
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut idx = CollectionIndex::new();
        let empty = idx.approx_bytes();
        idx.add_document(DocumentId(0), &tree("A"));
        let one = idx.approx_bytes();
        assert!(one > empty);
        idx.add_document(DocumentId(1), &tree("B"));
        assert!(idx.approx_bytes() > one);
    }

    #[test]
    fn view_over_pointer_index_matches_direct_calls() {
        let mut idx = CollectionIndex::new();
        idx.add_document(DocumentId(0), &tree("A"));
        idx.add_document(DocumentId(1), &tree("B"));
        let view = IndexView::Pointer(&idx);
        assert_eq!(view.by_tag("author").len(), 2);
        assert_eq!(view.by_tag("author").to_vec(), idx.by_tag("author"));
        assert_eq!(view.by_tag_content("author", "A").len(), 1);
        assert_eq!(view.by_tag("missing").len(), 0);
        // iteration yields postings by value
        let nodes: Vec<usize> = view.by_tag("year").iter().map(|p| p.node.index()).collect();
        assert_eq!(nodes.len(), 2);
    }
}
