//! Named collections of XML documents.
//!
//! A [`Collection`] owns a set of documents (trees), assigns them stable
//! [`DocumentId`]s, tracks its serialized size against a configurable limit
//! (Xindice's 5 MB by default, set at the [`crate::Database`] level) and
//! maintains the inverted indexes used by the XPath engine's
//! descendant-axis fast path.

use crate::error::{DbError, DbResult};
use crate::index::{IndexView, LayeredIndex};
use crate::parser::Measured;
use crate::segidx::FrozenIndex;
use std::sync::OnceLock;
use toss_tree::serialize::compact_len;
use toss_tree::Tree;

/// Stable identifier of a document within a collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocumentId(pub u64);

impl std::fmt::Display for DocumentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc#{}", self.0)
    }
}

/// The size-limit rule every path that adds bytes to a collection runs:
/// live inserts and replaces, batch validation, and the checkpoint's
/// snapshot verify. `attempted` is the collection's size afterwards.
pub(crate) fn check_size_limit(
    collection: &str,
    limit: Option<usize>,
    attempted: usize,
) -> DbResult<()> {
    match limit {
        Some(limit) if attempted > limit => Err(DbError::CollectionFull {
            collection: collection.to_string(),
            limit,
            attempted,
        }),
        _ => Ok(()),
    }
}

/// The error for a document id a collection already holds.
pub(crate) fn duplicate_id(collection: &str, id: DocumentId) -> DbError {
    DbError::Storage(format!(
        "duplicate document id {id} in collection `{collection}`"
    ))
}

/// A stored document: its id, its compact-XML byte size and its tree.
///
/// A document read from a snapshot keeps the XML it was stored as and
/// builds its tree the first time something reads it
/// ([`StoredDocument::tree`]); an inserted, replaced or replayed
/// document holds its tree from the start and keeps no text.
#[derive(Debug, Clone)]
pub struct StoredDocument {
    /// The document id.
    pub id: DocumentId,
    /// Size of the compact XML serialization in bytes.
    pub size_bytes: usize,
    /// The XML the snapshot held, if the document came from one.
    xml: Option<Box<str>>,
    /// Whether `xml` is, byte for byte, the tree's compact XML.
    canonical: bool,
    tree: OnceLock<Tree>,
}

impl StoredDocument {
    /// A document that holds its tree, whose compact XML is `size_bytes`
    /// long.
    pub(crate) fn built(id: DocumentId, tree: Tree, size_bytes: usize) -> Self {
        StoredDocument {
            id,
            size_bytes,
            xml: None,
            canonical: false,
            tree: OnceLock::from(tree),
        }
    }

    /// A document read from a snapshot: `xml` passed the stored-document
    /// grammar, which `measured` it.
    pub(crate) fn from_xml(id: DocumentId, xml: Box<str>, measured: Measured) -> Self {
        StoredDocument {
            id,
            size_bytes: measured.size,
            xml: Some(xml),
            canonical: measured.canonical,
            tree: OnceLock::new(),
        }
    }

    /// The parsed tree, built from the kept XML on first use.
    pub fn tree(&self) -> &Tree {
        self.tree.get_or_init(|| build(self.xml.as_deref()))
    }

    /// The document's tree, built if it was not yet.
    fn into_tree(self) -> Tree {
        match self.tree.into_inner() {
            Some(tree) => tree,
            None => build(self.xml.as_deref()),
        }
    }

    /// The kept XML when it is the tree's compact XML: what a snapshot
    /// writer copies instead of rendering the tree.
    pub(crate) fn canonical_xml(&self) -> Option<&str> {
        self.xml.as_deref().filter(|_| self.canonical)
    }

    /// Whether the tree has been built.
    #[cfg(test)]
    pub(crate) fn is_built(&self) -> bool {
        self.tree.get().is_some()
    }
}

/// The tree of a document that holds none: parse its kept XML.
fn build(xml: Option<&str>) -> Tree {
    let xml = xml.expect("a stored document holds its tree or the XML to build it from");
    crate::parser::parse_stored(xml)
        .expect("kept XML passed the stored-document grammar when the snapshot was read")
}

/// A named collection of documents.
#[derive(Debug)]
pub struct Collection {
    name: String,
    docs: Vec<StoredDocument>,
    next_id: u64,
    size_bytes: usize,
    size_limit: Option<usize>,
    index: LayeredIndex,
}

impl Collection {
    /// Create an empty collection. `size_limit` of `None` means unlimited.
    pub fn new(name: impl Into<String>, size_limit: Option<usize>) -> Self {
        Collection {
            name: name.into(),
            docs: Vec::new(),
            next_id: 0,
            size_bytes: 0,
            size_limit,
            index: LayeredIndex::default(),
        }
    }

    /// Make `base` the whole index, emptying the delta and the
    /// tombstones: the end of a snapshot restore that found a usable
    /// `.seg` section, and a checkpoint's rebase onto the segment it
    /// wrote. `base` must index exactly the documents held now; refuses
    /// (changing nothing) when its recorded document count disagrees.
    pub(crate) fn attach_base(&mut self, base: FrozenIndex) -> bool {
        if base.doc_count() != self.docs.len() as u64 {
            return false;
        }
        self.index = LayeredIndex {
            base: Some(base),
            ..LayeredIndex::default()
        };
        true
    }

    /// Index every document in the delta: the end of a snapshot restore
    /// that found no usable base. Walks [`Collection::documents`], so
    /// the postings ascend by document even if the snapshot listed ids
    /// out of order.
    pub(crate) fn index_documents(&mut self) {
        for d in &self.docs {
            self.index.add_document(d.id, d.tree());
        }
    }

    /// Whether a frozen segment base is attached. A write keeps it: the
    /// write lands in the delta.
    pub fn is_frozen(&self) -> bool {
        self.index.base.is_some()
    }

    /// Approximate resident bytes of the index, `(pointer, segment)`:
    /// the delta and tombstones' heap estimate, and this collection's
    /// section bytes within the attached segment.
    pub fn index_bytes(&self) -> (usize, usize) {
        self.index.approx_bytes()
    }

    /// The collection's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert a parsed document; returns its id.
    ///
    /// Fails with [`DbError::CollectionFull`] when the compact XML size
    /// of the collection would exceed the configured limit.
    pub fn insert(&mut self, tree: Tree) -> DbResult<DocumentId> {
        let id = DocumentId(self.next_id);
        self.insert_with_id(id, tree)?;
        Ok(id)
    }

    /// Insert a parsed document under a caller-chosen id. Used by snapshot
    /// restore, where ids must survive a save/load cycle exactly (a
    /// remove leaves a permanent gap in the id sequence, and a
    /// re-numbering load would silently re-point every later id). The id
    /// counter advances past `id`, so ids are never reused; note that a
    /// gap *above* the largest live id is invisible here and must be
    /// restored separately (see the snapshot's `next_id` field).
    ///
    /// An id below the largest stored one lands at its sorted position in
    /// [`Collection::documents`]; its postings are appended at the tail
    /// of the delta's lists, as after a `replace`.
    pub(crate) fn insert_with_id(&mut self, id: DocumentId, tree: Tree) -> DbResult<()> {
        let size = compact_len(&tree);
        let pos = self.restore_document(StoredDocument::built(id, tree, size))?;
        self.index.add_document(id, self.docs[pos].tree());
        Ok(())
    }

    /// Store a document without indexing it, returning its position:
    /// snapshot restore, which measured the document where it decoded
    /// it, and ends each collection with [`Collection::attach_base`] or
    /// [`Collection::index_documents`].
    pub(crate) fn restore_document(&mut self, doc: StoredDocument) -> DbResult<usize> {
        // Ids are monotonic, so `pos` is the tail on every product path;
        // a hand-edited snapshot listing ids out of order lands each
        // document at its sorted position instead.
        let id = doc.id;
        let Err(pos) = self.position(id) else {
            return Err(duplicate_id(&self.name, id));
        };
        let size = doc.size_bytes;
        check_size_limit(&self.name, self.size_limit, self.size_bytes + size)?;
        self.next_id = self.next_id.max(id.0 + 1);
        self.size_bytes += size;
        self.docs.insert(pos, doc);
        self.debug_check_order(pos);
        Ok(pos)
    }

    /// Insert raw XML text (parsed with [`crate::parse_document`]).
    pub fn insert_xml(&mut self, xml: &str) -> DbResult<DocumentId> {
        let tree = crate::parser::parse_document(xml)?;
        self.insert(tree)
    }

    /// Where `id` is (`Ok`) or would be inserted (`Err`) in `docs` — a
    /// binary search over the ascending-id invariant stated on
    /// [`Collection::documents`]. The one lookup behind `get`, `replace`,
    /// `remove` and the duplicate check of `insert_with_id`.
    fn position(&self, id: DocumentId) -> Result<usize, usize> {
        self.docs.binary_search_by_key(&id, |d| d.id)
    }

    /// Every mutation ends here: the documents around the touched
    /// position `pos` still ascend by id (the rest did before, so this is
    /// the whole invariant by induction).
    fn debug_check_order(&self, pos: usize) {
        let around = &self.docs[pos.saturating_sub(1)..(pos + 2).min(self.docs.len())];
        debug_assert!(
            around.windows(2).all(|w| w[0].id < w[1].id),
            "collection `{}`: documents must ascend by id",
            self.name
        );
    }

    /// Fetch a document by id — O(log n).
    pub fn get(&self, id: DocumentId) -> DbResult<&StoredDocument> {
        match self.position(id) {
            Ok(pos) => Ok(&self.docs[pos]),
            Err(_) => Err(DbError::NoSuchDocument(id.0)),
        }
    }

    /// Replace a document's tree in place, keeping its id. Re-checks the
    /// size limit against the new total and re-indexes.
    pub fn replace(&mut self, id: DocumentId, tree: Tree) -> DbResult<Tree> {
        let pos = self
            .position(id)
            .map_err(|_| DbError::NoSuchDocument(id.0))?;
        let new_size = compact_len(&tree);
        let old_size = self.docs[pos].size_bytes;
        check_size_limit(
            &self.name,
            self.size_limit,
            self.size_bytes - old_size + new_size,
        )?;
        self.index.remove_document(id, self.docs[pos].tree());
        self.index.add_document(id, &tree);
        self.size_bytes = self.size_bytes - old_size + new_size;
        let new = StoredDocument::built(id, tree, new_size);
        let old = std::mem::replace(&mut self.docs[pos], new);
        self.debug_check_order(pos);
        Ok(old.into_tree())
    }

    /// Remove a document by id; returns the removed tree.
    pub fn remove(&mut self, id: DocumentId) -> DbResult<Tree> {
        let pos = self
            .position(id)
            .map_err(|_| DbError::NoSuchDocument(id.0))?;
        let doc = self.docs.remove(pos);
        self.index.remove_document(id, doc.tree());
        self.size_bytes -= doc.size_bytes;
        self.debug_check_order(pos);
        Ok(doc.into_tree())
    }

    /// All stored documents, in document order.
    ///
    /// **Invariant: ascending by id.** Ids are allocated monotonically and
    /// never reused, snapshots save in this order and journal replay
    /// applies in sequence order, so insertion order *is* id order;
    /// `Collection::insert_with_id` keeps it for an out-of-order id by
    /// inserting at the sorted position. Lookups by id binary-search this
    /// slice, and the XPath evaluator pairs index postings (also
    /// ascending by document) with positions in it.
    pub fn documents(&self) -> &[StoredDocument] {
        &self.docs
    }

    /// The id the next inserted document will receive. Monotonic: removes
    /// leave gaps, ids are never reused.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Raise the id counter to at least `n` — snapshot restore uses this
    /// to reinstate a gap above the largest live id (e.g. after the
    /// highest-numbered document was removed).
    pub(crate) fn set_next_id_at_least(&mut self, n: u64) {
        self.next_id = self.next_id.max(n);
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Total compact-XML size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// The configured size limit, if any.
    pub(crate) fn size_limit(&self) -> Option<usize> {
        self.size_limit
    }

    /// The collection's inverted index (tag → document/node postings):
    /// the frozen segment base a checkpoint or a snapshot load attached,
    /// if any, plus the documents written since.
    pub fn index(&self) -> IndexView<'_> {
        IndexView(&self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toss_tree::TreeBuilder;

    fn doc(n: usize) -> Tree {
        TreeBuilder::new("article")
            .leaf("title", format!("Paper {n}"))
            .build()
    }

    #[test]
    fn insert_get_remove_cycle() {
        let mut c = Collection::new("dblp", None);
        let id0 = c.insert(doc(0)).unwrap();
        let id1 = c.insert(doc(1)).unwrap();
        assert_ne!(id0, id1);
        assert_eq!(c.len(), 2);
        assert!(c.size_bytes() > 0);
        let removed = c.remove(id0).unwrap();
        assert_eq!(removed.node_count(), 2);
        assert_eq!(c.len(), 1);
        assert!(matches!(c.get(id0), Err(DbError::NoSuchDocument(_))));
        assert!(c.get(id1).is_ok());
    }

    #[test]
    fn ids_are_not_reused_after_removal() {
        let mut c = Collection::new("x", None);
        let id0 = c.insert(doc(0)).unwrap();
        c.remove(id0).unwrap();
        let id1 = c.insert(doc(1)).unwrap();
        assert_ne!(id0, id1);
    }

    #[test]
    fn size_limit_enforced_like_xindice() {
        let mut c = Collection::new("tiny", Some(60));
        c.insert(doc(0)).unwrap(); // ~45 bytes
        let e = c.insert(doc(1)).unwrap_err();
        assert!(matches!(e, DbError::CollectionFull { limit: 60, .. }));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn size_accounting_tracks_removals() {
        let mut c = Collection::new("x", None);
        let id = c.insert(doc(0)).unwrap();
        let sz = c.size_bytes();
        c.insert(doc(1)).unwrap();
        assert!(c.size_bytes() > sz);
        c.remove(id).unwrap();
        assert!(c.size_bytes() < sz * 2);
    }

    #[test]
    fn replace_keeps_id_and_reindexes() {
        let mut c = Collection::new("x", None);
        let id = c.insert(doc(0)).unwrap();
        let old = c
            .replace(
                id,
                TreeBuilder::new("article").leaf("title", "Replaced").build(),
            )
            .unwrap();
        assert_eq!(old.node_count(), 2);
        assert_eq!(c.get(id).unwrap().tree().data(c.get(id).unwrap().tree().root().unwrap()).unwrap().tag, "article");
        // index reflects the new content only
        assert_eq!(c.index().by_tag_content("title", "Paper 0").len(), 0);
        assert_eq!(c.index().by_tag_content("title", "Replaced").len(), 1);
        assert!(matches!(
            c.replace(DocumentId(99), doc(1)),
            Err(DbError::NoSuchDocument(99))
        ));
    }

    #[test]
    fn replace_respects_size_limit() {
        let mut c = Collection::new("tiny", Some(60));
        let id = c.insert(doc(0)).unwrap();
        let huge = TreeBuilder::new("article")
            .leaf("title", "x".repeat(100))
            .build();
        assert!(matches!(
            c.replace(id, huge),
            Err(DbError::CollectionFull { .. })
        ));
        // shrinking replacement is fine
        c.replace(id, TreeBuilder::new("a").build()).unwrap();
        assert!(c.size_bytes() < 60);
    }

    #[test]
    fn out_of_order_ids_land_at_their_sorted_position() {
        let mut c = Collection::new("x", None);
        for id in [5u64, 2, 9, 0] {
            c.insert_with_id(DocumentId(id), doc(id as usize)).unwrap();
        }
        let ids: Vec<u64> = c.documents().iter().map(|d| d.id.0).collect();
        assert_eq!(ids, vec![0, 2, 5, 9]);
        assert_eq!(c.next_id(), 10);
        assert!(matches!(
            c.insert_with_id(DocumentId(2), doc(2)),
            Err(DbError::Storage(_))
        ));
        assert_eq!(c.get(DocumentId(5)).unwrap().id, DocumentId(5));
        assert!(c.get(DocumentId(3)).is_err());
    }

    proptest::proptest! {
        /// After any interleaving of `insert` / `insert_with_id` /
        /// `replace` / `remove`, the binary-search lookup agrees with a
        /// linear find, for present and absent ids alike.
        #[test]
        fn get_agrees_with_a_linear_find(
            ops in proptest::collection::vec((0usize..4, 0u64..24), 0..60),
        ) {
            use proptest::prelude::*;
            let mut c = Collection::new("x", None);
            for (n, (op, id)) in ops.into_iter().enumerate() {
                let id = DocumentId(id);
                let present = c.documents().iter().any(|d| d.id == id);
                match op {
                    0 => {
                        c.insert(doc(n)).unwrap();
                    }
                    1 => prop_assert_eq!(c.insert_with_id(id, doc(n)).is_ok(), !present),
                    2 => prop_assert_eq!(c.replace(id, doc(n)).is_ok(), present),
                    _ => prop_assert_eq!(c.remove(id).is_ok(), present),
                }
                for probe in (0..=c.next_id()).map(DocumentId) {
                    let linear = c.documents().iter().find(|d| d.id == probe);
                    prop_assert_eq!(
                        c.get(probe).ok().map(|d| d as *const StoredDocument),
                        linear.map(|d| d as *const StoredDocument)
                    );
                }
                prop_assert_eq!(c.index().by_tag("article").len(), c.len());
            }
        }
    }

    #[test]
    fn insert_xml_parses() {
        let mut c = Collection::new("x", None);
        let id = c.insert_xml("<a><b>1</b></a>").unwrap();
        assert_eq!(c.get(id).unwrap().tree().node_count(), 2);
        assert!(c.insert_xml("<a><b>").is_err());
    }
}
