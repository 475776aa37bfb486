//! XPath evaluation over trees and collections.
//!
//! Evaluation is node-set based. Results are returned in document order
//! (documents ascending by id, which is insertion order; nodes in
//! preorder within a document), which is the order TAX's witness-tree
//! semantics requires.
//!
//! A collection evaluation has one path: enumerate the visits
//! ([`XPath::scan_candidates`], or [`XPath::probe_candidates`] given a
//! probe's candidate document list, which touches only those
//! documents), then run them in order on the calling thread with
//! [`Candidates::eval`]. The enumeration uses the tag index as a fast path
//! for queries whose first step is `//name`: instead of scanning every
//! subtree it starts from the index postings for `name`.
//!
//! The store knows no budgets. A caller that governs a query admits the
//! visits first — `toss-core`'s executor charges [`Candidates::len`]
//! against its document budget in one bulk admission — and then asks
//! `eval` for exactly the admitted number, passing a poll that reports a
//! deadline or a cancellation. Admit, then evaluate.

use super::ast::{Axis, Expr, NameTest, Path, RelPath, Step, ValueExpr, XPath};
use crate::collection::{Collection, DocumentId, StoredDocument};
use toss_tree::{NodeId, Tree};

/// A query result: one node in one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// Document containing the node.
    pub doc: DocumentId,
    /// The node within the document's tree.
    pub node: NodeId,
}

/// The element's *own* text content ("" when absent).
///
/// Deviation from W3C XPath, by design: this store keys text content to
/// its owning element (the TAX data model's `o.content`), and the TOSS
/// rewriter's XPath must select a superset of what the TAX condition
/// `content = v` matches. Concatenated string-values would *reject*
/// elements whose descendants also carry text, losing true matches; the
/// own-content semantics makes `[a='v']`, `text()`, `contains(...)` agree
/// exactly with the data model.
pub(crate) fn own_text(tree: &Tree, node: NodeId) -> String {
    tree.data(node)
        .ok()
        .and_then(|d| d.content.as_ref().map(|c| c.render()))
        .unwrap_or_default()
}

impl XPath {
    /// Evaluate against a single tree; returns matching nodes in preorder.
    pub fn eval_tree(&self, tree: &Tree) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::new();
        for path in &self.paths {
            out.extend(eval_path_tree(path, tree));
        }
        out.sort();
        out.dedup();
        out
    }

    /// Evaluate against every document of a collection, unbudgeted;
    /// results in document order.
    pub fn eval_collection(&self, coll: &Collection) -> Vec<NodeRef> {
        self.scan_candidates(coll)
            .eval(usize::MAX, &|| false)
            .expect("an evaluation that is never interrupted completes")
    }

    /// Enumerate the visits of a whole-collection evaluation: one per
    /// `(union branch, document)` pair, tag-index seeded where the
    /// branch starts with `//name`.
    pub fn scan_candidates<'a>(&'a self, coll: &'a Collection) -> Candidates<'a> {
        let mut set = Candidates::default();
        for path in &self.paths {
            let branch = set.visits.len();
            match index_seed_tag(path) {
                Some(name) => {
                    let mut cursor = DocCursor::new(coll);
                    for p in coll.index().by_tag(name) {
                        match set.visits[branch..].last_mut() {
                            Some(c) if c.doc.id == p.doc => {
                                c.seeds.as_mut().expect("seeded visit").push(p.node);
                            }
                            _ => {
                                let Some(doc) = cursor.seek(p.doc) else { continue };
                                set.visits.push(Candidate {
                                    path,
                                    doc,
                                    seeds: Some(vec![p.node]),
                                });
                            }
                        }
                    }
                }
                None => set.visits.extend(coll.documents().iter().map(|doc| Candidate {
                    path,
                    doc,
                    seeds: None,
                })),
            }
        }
        set
    }

    /// [`scan_candidates`](XPath::scan_candidates) restricted to `docs`
    /// (strictly ascending by id) — the index-probe path. Documents
    /// outside the set are never visited, while every listed document
    /// with a root-step node is a visit exactly like a scan visit, so a
    /// caller that admits [`Candidates::len`] visits charges the probe
    /// and the scan alike. Costs
    /// O(`docs` × (log collection + document size)): each listed document
    /// is looked up and its own tree filtered for the seed tag, in the
    /// order the tag index holds them, so no postings list of the whole
    /// collection is walked. Visits follow `docs`, which fixes them to
    /// document order on both index backends.
    pub fn probe_candidates<'a>(
        &'a self,
        coll: &'a Collection,
        docs: &[DocumentId],
    ) -> Candidates<'a> {
        debug_assert!(docs.windows(2).all(|w| w[0] < w[1]), "probe docs must ascend");
        let stored: Vec<&StoredDocument> =
            docs.iter().filter_map(|&id| coll.get(id).ok()).collect();
        let mut set = Candidates::default();
        for path in &self.paths {
            let seed_tag = index_seed_tag(path);
            for &doc in &stored {
                let seeds = match seed_tag {
                    Some(name) => {
                        let tree = doc.tree();
                        let seeds: Vec<NodeId> = tree
                            .preorder()
                            .filter(|&n| tree.data(n).is_ok_and(|d| d.tag == name))
                            .collect();
                        if seeds.is_empty() {
                            continue;
                        }
                        Some(seeds)
                    }
                    None => None,
                };
                set.visits.push(Candidate { path, doc, seeds });
            }
        }
        set
    }
}

/// The tag whose index postings seed `path`: its first step is `//name`.
fn index_seed_tag(path: &Path) -> Option<&str> {
    match path.steps.first() {
        Some(Step {
            axis: Axis::Descendant,
            test: NameTest::Name(name),
            ..
        }) => Some(name),
        _ => None,
    }
}

/// Resolves posting documents to stored documents. Postings and
/// [`Collection::documents`] both ascend by id, so the next posting's
/// document is usually the slot after the previous hit; anything else (a
/// sparse tag, or a replaced document whose postings the index's delta
/// re-appended at the tail) binary-searches.
struct DocCursor<'a> {
    docs: &'a [StoredDocument],
    next: usize,
}

impl<'a> DocCursor<'a> {
    fn new(coll: &'a Collection) -> Self {
        DocCursor {
            docs: coll.documents(),
            next: 0,
        }
    }

    fn seek(&mut self, id: DocumentId) -> Option<&'a StoredDocument> {
        let pos = match self.docs.get(self.next) {
            Some(d) if d.id == id => self.next,
            _ => self.docs.binary_search_by_key(&id, |d| d.id).ok()?,
        };
        self.next = pos + 1;
        Some(&self.docs[pos])
    }
}

/// One unit of work: evaluate one union branch against one document.
/// The candidate list is materialized up front in visit order
/// (path-major, documents in document order), so a limit cuts a prefix
/// of it.
struct Candidate<'a> {
    path: &'a Path,
    doc: &'a StoredDocument,
    /// `Some` when the tag index seeded this visit (first step
    /// `//name`): the document's nodes with that tag, in preorder.
    seeds: Option<Vec<NodeId>>,
}

/// The enumerated visits of one collection evaluation, in visit order —
/// built by [`XPath::scan_candidates`] or [`XPath::probe_candidates`],
/// counted by the planner and the caller's admission
/// ([`Candidates::len`]) and then evaluated by [`Candidates::eval`], so
/// a request enumerates once.
#[derive(Default)]
pub struct Candidates<'a> {
    visits: Vec<Candidate<'a>>,
}

impl Candidates<'_> {
    /// Number of visits a full evaluation makes.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// Whether no document would be visited.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// Evaluate the first `limit` visits (all of them when `limit` is at
    /// least [`Candidates::len`]) in order on the calling thread and
    /// return their matches in document order, or `None` when
    /// `interrupted` reported a stop. `interrupted` is polled once before
    /// each visit, so a stop is seen before the next document is touched.
    pub fn eval(self, limit: usize, interrupted: &dyn Fn() -> bool) -> Option<Vec<NodeRef>> {
        let span = toss_obs::span("xmldb.xpath.eval");
        let mut visits = self.visits;
        visits.truncate(limit);
        let scanned = visits.len();
        let mut out = Vec::new();
        for cand in visits {
            if interrupted() {
                return None;
            }
            eval_candidate(cand, &mut out);
        }
        out.sort();
        out.dedup();
        if span.is_recording() {
            let docs_matched = {
                let mut docs: Vec<DocumentId> = out.iter().map(|r| r.doc).collect();
                docs.dedup(); // `out` is sorted by (doc, node)
                docs.len()
            };
            span.record("docs_scanned", scanned);
            span.record("docs_matched", docs_matched);
            span.record("nodes_matched", out.len());
        }
        toss_obs::metrics::counter("xmldb.xpath.docs_scanned").add(scanned as u64);
        toss_obs::metrics::counter("xmldb.xpath.nodes_matched").add(out.len() as u64);
        Some(out)
    }
}

/// Evaluate one candidate, appending its matches to `out`; a seeded
/// visit hands its seed list to [`eval_seeded`].
fn eval_candidate(cand: Candidate<'_>, out: &mut Vec<NodeRef>) {
    let doc = cand.doc.id;
    let tree = cand.doc.tree();
    let nodes = match cand.seeds {
        Some(seeds) => eval_seeded(cand.path, tree, seeds),
        None => eval_path_tree(cand.path, tree),
    };
    out.extend(nodes.into_iter().map(|node| NodeRef { doc, node }));
}

/// The rest of an index-seeded branch: `seeds` are the document's nodes
/// matching the first step's name test.
fn eval_seeded(path: &Path, tree: &Tree, seeds: Vec<NodeId>) -> Vec<NodeId> {
    let mut current = apply_predicates(tree, seeds, &path.steps[0].predicates);
    for step in &path.steps[1..] {
        current = advance_step(tree, &current, step);
    }
    current
}

fn eval_path_tree(path: &Path, tree: &Tree) -> Vec<NodeId> {
    let Some(root) = tree.root() else {
        return Vec::new();
    };
    let Some((first, rest)) = path.steps.split_first() else {
        return Vec::new();
    };
    // Initial context: the (virtual) document node. `/a` tests root
    // elements; `//a` tests every node.
    let mut current: Vec<NodeId> = match first.axis {
        Axis::Child => {
            if first.test.matches(&tree.data(root).map(|d| d.tag.clone()).unwrap_or_default()) {
                vec![root]
            } else {
                Vec::new()
            }
        }
        Axis::Descendant => tree
            .preorder()
            .filter(|&n| {
                tree.data(n)
                    .map(|d| first.test.matches(&d.tag))
                    .unwrap_or(false)
            })
            .collect(),
    };
    current = apply_predicates(tree, current, &first.predicates);
    for step in rest {
        current = advance_step(tree, &current, step);
    }
    current
}

/// Advance one step from a context node-set.
fn advance_step(tree: &Tree, context: &[NodeId], step: &Step) -> Vec<NodeId> {
    let mut matched: Vec<NodeId> = Vec::new();
    for &ctx in context {
        let candidates: Vec<NodeId> = match step.axis {
            Axis::Child => tree.children(ctx).collect(),
            Axis::Descendant => tree.descendants(ctx).collect(),
        };
        let mut local: Vec<NodeId> = candidates
            .into_iter()
            .filter(|&n| {
                tree.data(n)
                    .map(|d| step.test.matches(&d.tag))
                    .unwrap_or(false)
            })
            .collect();
        // Positional predicates are per-context in XPath, so filter here.
        local = apply_predicates(tree, local, &step.predicates);
        matched.extend(local);
    }
    matched.sort();
    matched.dedup();
    matched
}

/// Filter `nodes` by each predicate in turn; a predicate sees the
/// 1-based positions of the nodes the previous ones kept.
fn apply_predicates(tree: &Tree, mut nodes: Vec<NodeId>, preds: &[Expr]) -> Vec<NodeId> {
    for p in preds {
        // `retain` visits every element once, in order
        let mut position = 0;
        nodes.retain(|&n| {
            position += 1;
            eval_expr(tree, n, position, p)
        });
    }
    nodes
}

fn eval_expr(tree: &Tree, node: NodeId, position: usize, expr: &Expr) -> bool {
    match expr {
        Expr::Position(k) => position == *k,
        Expr::And(a, b) => {
            eval_expr(tree, node, position, a) && eval_expr(tree, node, position, b)
        }
        Expr::Or(a, b) => {
            eval_expr(tree, node, position, a) || eval_expr(tree, node, position, b)
        }
        Expr::Not(e) => !eval_expr(tree, node, position, e),
        Expr::Exists(p) => !eval_rel_path(tree, node, p).is_empty(),
        Expr::Eq(v, lit) => value_matches(tree, node, v, |s| s == lit),
        Expr::Ne(v, lit) => value_matches(tree, node, v, |s| s != lit),
        Expr::Contains(v, lit) => value_matches(tree, node, v, |s| s.contains(lit.as_str())),
        Expr::StartsWith(v, lit) => {
            value_matches(tree, node, v, |s| s.starts_with(lit.as_str()))
        }
        Expr::AttrExists(name) => tree
            .data(node)
            .map(|d| d.attr_value(name).is_some())
            .unwrap_or(false),
    }
}

/// XPath existential comparison: for relative-path values the predicate
/// holds if *some* reached node's string-value satisfies `f`; for `text()`
/// and attributes there is at most one value.
fn value_matches(tree: &Tree, node: NodeId, v: &ValueExpr, f: impl Fn(&str) -> bool) -> bool {
    match v {
        ValueExpr::Text => f(&own_text(tree, node)),
        ValueExpr::Attr(name) => tree
            .data(node)
            .ok()
            .and_then(|d| d.attr_value(name).map(&f))
            .unwrap_or(false),
        ValueExpr::Rel(p) => eval_rel_path(tree, node, p)
            .into_iter()
            .any(|n| f(&own_text(tree, n))),
    }
}

fn eval_rel_path(tree: &Tree, node: NodeId, p: &RelPath) -> Vec<NodeId> {
    let Some((first, rest)) = p.steps.split_first() else {
        return Vec::new();
    };
    let base: Vec<NodeId> = if p.from_descendants {
        tree.descendants(node).collect()
    } else {
        tree.children(node).collect()
    };
    let mut current: Vec<NodeId> = base
        .into_iter()
        .filter(|&n| {
            tree.data(n)
                .map(|d| first.test.matches(&d.tag))
                .unwrap_or(false)
        })
        .collect();
    current = apply_predicates(tree, current, &first.predicates);
    for step in rest {
        current = advance_step(tree, &current, step);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;
    use std::cell::Cell;

    /// The streaming scan [`Candidates::eval`] replaced, kept as the
    /// independent sequential reference: walk each union branch's
    /// documents (grouped postings of the seed tag, or every document)
    /// that `keep` admits, evaluating one at a time until `limit` visits
    /// are done, with no enumeration up front.
    fn streaming_scan(
        xpath: &XPath,
        coll: &Collection,
        keep: impl Fn(DocumentId) -> bool,
        limit: usize,
    ) -> Vec<NodeRef> {
        let mut out = Vec::new();
        let mut scanned = 0usize;
        'paths: for path in &xpath.paths {
            let seed_tag = index_seed_tag(path);
            let visits: Vec<(&StoredDocument, Option<Vec<NodeId>>)> = match seed_tag {
                Some(name) => {
                    let mut by_doc: Vec<(DocumentId, Vec<NodeId>)> = Vec::new();
                    for p in coll.index().by_tag(name) {
                        if !keep(p.doc) {
                            continue;
                        }
                        match by_doc.last_mut() {
                            Some((d, v)) if *d == p.doc => v.push(p.node),
                            _ => by_doc.push((p.doc, vec![p.node])),
                        }
                    }
                    by_doc
                        .into_iter()
                        .map(|(doc, seeds)| (coll.get(doc).unwrap(), Some(seeds)))
                        .collect()
                }
                None => coll
                    .documents()
                    .iter()
                    .filter(|d| keep(d.id))
                    .map(|d| (d, None))
                    .collect(),
            };
            for (stored, seeds) in visits {
                if scanned == limit {
                    break 'paths;
                }
                scanned += 1;
                let nodes = match seeds {
                    Some(seeds) => eval_seeded(path, stored.tree(), seeds),
                    None => eval_path_tree(path, stored.tree()),
                };
                let doc = stored.id;
                out.extend(nodes.into_iter().map(|node| NodeRef { doc, node }));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// [`streaming_scan`] over the whole collection.
    fn reference(xpath: &XPath, coll: &Collection, limit: usize) -> Vec<NodeRef> {
        streaming_scan(xpath, coll, |_| true, limit)
    }

    /// The product path over the whole collection.
    fn scan(xpath: &XPath, coll: &Collection, limit: usize) -> Vec<NodeRef> {
        xpath
            .scan_candidates(coll)
            .eval(limit, &|| false)
            .expect("never interrupted")
    }

    fn tree() -> Tree {
        parse_document(
            "<r><a k=\"1\"><b>x</b><b>y</b></a><a><b>z</b><c><b>deep</b></c></a></r>",
        )
        .unwrap()
    }

    fn q(t: &Tree, s: &str) -> Vec<NodeId> {
        XPath::parse(s).unwrap().eval_tree(t)
    }

    #[test]
    fn comparisons_use_own_text() {
        let t = tree();
        let a2 = t.children(t.root().unwrap()).nth(1).unwrap();
        assert_eq!(own_text(&t, a2), "");
        // an element with text AND content-bearing children still matches
        // its own text exactly (the rewriter-soundness requirement)
        let m = crate::parser::parse_document("<r><a>ab<b>extra</b></a></r>").unwrap();
        assert_eq!(q(&m, "//r[.//a='ab']").len(), 1);
        assert_eq!(q(&m, "//a[text()='ab']").len(), 1);
    }

    #[test]
    fn tree_eval_child_and_descendant() {
        let t = tree();
        assert_eq!(q(&t, "/r/a").len(), 2);
        assert_eq!(q(&t, "/r/a/b").len(), 3);
        assert_eq!(q(&t, "//b").len(), 4);
        assert_eq!(q(&t, "/r//b").len(), 4);
    }

    #[test]
    fn positional_is_per_context() {
        let t = tree();
        // first b under each a: x and z
        let firsts = q(&t, "/r/a/b[1]");
        assert_eq!(firsts.len(), 2);
        let seconds = q(&t, "/r/a/b[2]");
        assert_eq!(seconds.len(), 1);
    }

    #[test]
    fn predicates_on_first_step() {
        let t = tree();
        assert_eq!(q(&t, "//a[@k='1']").len(), 1);
        assert_eq!(q(&t, "//a[c]").len(), 1);
        assert_eq!(q(&t, "//a[b='z']").len(), 1);
        // rel-path equality is existential over children only
        assert_eq!(q(&t, "//a[b='deep']").len(), 0);
        assert_eq!(q(&t, "//a[.//b='deep']").len(), 1);
    }

    #[test]
    fn duplicate_elimination_across_union() {
        let t = tree();
        let n = q(&t, "//b | //b");
        assert_eq!(n.len(), 4);
    }

    #[test]
    fn empty_tree_yields_nothing() {
        let t = Tree::new();
        assert_eq!(q(&t, "//a").len(), 0);
    }

    fn budget_collection(n: usize) -> crate::collection::Collection {
        let mut c = crate::collection::Collection::new("x", None);
        for i in 0..n {
            c.insert_xml(&format!("<r><b>{i}</b></r>")).unwrap();
        }
        c
    }

    #[test]
    fn limited_scan_returns_a_prefix() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let full = scan(&xp, &c, usize::MAX);
        assert_eq!(full.len(), 10);
        assert_eq!(scan(&xp, &c, 4), full[..4].to_vec());
        assert!(scan(&xp, &c, 0).is_empty());
        // a wildcard first step takes the general (non-indexed) path: one
        // visit per document, each matching `r` and `b`
        let xp = XPath::parse("//*").unwrap();
        let full = scan(&xp, &c, usize::MAX);
        assert_eq!(full.len(), 20);
        assert_eq!(scan(&xp, &c, 3), full[..6].to_vec());
    }

    /// An interrupt poll that reports a stop from its `k+1`-th call on,
    /// counting every call.
    struct FlipAfter {
        k: usize,
        polls: Cell<usize>,
    }

    impl FlipAfter {
        fn new(k: usize) -> Self {
            FlipAfter {
                k,
                polls: Cell::new(0),
            }
        }

        fn poll(&self) -> bool {
            let polls = self.polls.get();
            self.polls.set(polls + 1);
            polls >= self.k
        }
    }

    #[test]
    fn interrupted_scan_returns_none_and_stops_polling() {
        let c = mixed_collection(64);
        let xp = XPath::parse("//b | //a").unwrap();
        let n = xp.scan_candidates(&c).len();
        for k in 0..n {
            let flip = FlipAfter::new(k);
            assert_eq!(xp.scan_candidates(&c).eval(usize::MAX, &|| flip.poll()), None, "k {k}");
            // the poll that reports the stop is the last one
            assert_eq!(flip.polls.get(), k + 1, "k {k}");
        }
        // one poll per visit: a flag that would flip after the last
        // visit is never seen
        let flip = FlipAfter::new(n);
        assert_eq!(
            xp.scan_candidates(&c).eval(usize::MAX, &|| flip.poll()),
            Some(reference(&xp, &c, usize::MAX))
        );
        assert_eq!(flip.polls.get(), n);
    }

    /// Mixed shapes: docs where `//b` is index-seeded, docs without `b`
    /// at all, duplicate content for dedup pressure.
    fn mixed_doc(i: usize) -> String {
        match i % 4 {
            0 => format!("<r><b>{}</b><b>dup</b></r>", i % 5),
            1 => "<r><a>no-b-here</a></r>".to_string(),
            2 => format!("<r><a><b>{}</b></a><c><b>deep</b></c></r>", i % 5),
            _ => "<q><b>dup</b></q>".to_string(),
        }
    }

    fn mixed_collection(n: usize) -> crate::collection::Collection {
        let mut c = crate::collection::Collection::new("x", None);
        for i in 0..n {
            c.insert_xml(&mixed_doc(i)).unwrap();
        }
        c
    }

    #[test]
    fn doc_filtered_eval_visits_only_the_filter() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let docs: Vec<DocumentId> = c
            .documents()
            .iter()
            .map(|d| d.id)
            .filter(|d| d.0 % 2 == 0)
            .collect();
        let visits = xp.probe_candidates(&c, &docs);
        // the filtered docs are visits like scan visits
        assert_eq!(visits.len(), 5);
        let hits = visits.eval(usize::MAX, &|| false).unwrap();
        assert_eq!(hits.len(), 5);
        assert!(hits.iter().all(|r| r.doc.0 % 2 == 0));
    }

    #[test]
    fn doc_filtered_eval_respects_the_limit() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let docs: Vec<DocumentId> = c.documents().iter().map(|d| d.id).collect();
        let hits = xp.probe_candidates(&c, &docs).eval(3, &|| false).unwrap();
        assert_eq!(hits, reference(&xp, &c, 3));
        assert_eq!(hits.len(), 3);
    }

    /// The probe path as it was before it enumerated from the probe's
    /// own doc list: walk every posting of the seed tag (or every
    /// document) and test each against a set of the probe documents.
    /// Kept as the reference the new enumeration must reproduce.
    fn filtered_walk<'a>(
        xpath: &'a XPath,
        coll: &'a Collection,
        docs: &[DocumentId],
    ) -> Candidates<'a> {
        let filter: std::collections::HashSet<DocumentId> = docs.iter().copied().collect();
        let mut set = Candidates::default();
        for path in &xpath.paths {
            let branch = set.visits.len();
            match index_seed_tag(path) {
                Some(name) => {
                    for p in coll.index().by_tag(name) {
                        if !filter.contains(&p.doc) {
                            continue;
                        }
                        match set.visits[branch..].last_mut() {
                            Some(c) if c.doc.id == p.doc => {
                                c.seeds.as_mut().unwrap().push(p.node);
                            }
                            _ => set.visits.push(Candidate {
                                path,
                                doc: coll.get(p.doc).unwrap(),
                                seeds: Some(vec![p.node]),
                            }),
                        }
                    }
                }
                None => {
                    for doc in coll.documents().iter().filter(|d| filter.contains(&d.id)) {
                        set.visits.push(Candidate {
                            path,
                            doc,
                            seeds: None,
                        });
                    }
                }
            }
        }
        set
    }

    type Visit = (*const Path, DocumentId, Option<Vec<NodeId>>);

    fn shape(set: &Candidates<'_>) -> Vec<Visit> {
        set.visits
            .iter()
            .map(|c| (c.path as *const Path, c.doc.id, c.seeds.clone()))
            .collect()
    }

    fn mixed_db(n: usize) -> crate::Database {
        let mut db = crate::Database::with_config(crate::DatabaseConfig::unlimited());
        let c = db.create_collection("x").unwrap();
        for i in 0..n {
            c.insert_xml(&mixed_doc(i)).unwrap();
        }
        db
    }

    /// `db` as a checkpoint + reopen leaves it: collections served from
    /// a frozen segment.
    fn frozen_twin(db: &crate::Database) -> crate::Database {
        let seg = toss_segment::Segment::parse(crate::segidx::build_segment(db, 1)).unwrap();
        let json = crate::storage::to_json_with_seq(db, 1).unwrap();
        let (vfs, path) = (crate::FaultVfs::new(), std::path::Path::new("/twin.json"));
        crate::storage::save_json_with_vfs(&json, path, &vfs).unwrap();
        let seg = Some(std::sync::Arc::new(seg));
        let (twin, _, frozen) = crate::storage::load(path, &vfs, seg.as_ref()).unwrap();
        assert_eq!(frozen, db.collections().count());
        twin
    }

    /// A v2 snapshot of `mixed_doc`s whose ids are listed in the given
    /// (not ascending) order.
    fn out_of_order_db(ids: &[u64]) -> crate::Database {
        let docs: Vec<String> = ids
            .iter()
            .map(|&id| format!(r#"{{"id":{id},"xml":"{}"}}"#, mixed_doc(id as usize)))
            .collect();
        let data = toss_json::Value::parse(&format!(
            r#"{{"collection_size_limit":null,"last_seq":1,"collections":[
                {{"name":"x","next_id":64,"documents":[{}]}}]}}"#,
            docs.join(",")
        ))
        .unwrap()
        .to_json();
        let checksum = crate::crc32::crc32(data.as_bytes());
        let json = format!(r#"{{"version":2,"checksum":{checksum},"data":{data}}}"#);
        crate::storage::from_json(&json).unwrap()
    }

    #[test]
    fn probe_enumeration_reproduces_the_filtered_walk() {
        // id gaps from removes
        let mut gaps = mixed_db(48);
        for id in [3u64, 8, 9, 20, 47] {
            gaps.collection_mut("x").unwrap().remove(DocumentId(id)).unwrap();
        }
        // a snapshot that lists its ids out of order
        let ids: Vec<u64> = (0..48u64).map(|i| (i * 29) % 48).collect();
        let shuffled = out_of_order_db(&ids);
        assert!(shuffled
            .collection("x")
            .unwrap()
            .documents()
            .windows(2)
            .all(|w| w[0].id < w[1].id));

        // two of every three ids, removed and never-allocated ones included
        let docs: Vec<DocumentId> = (0..60u64).filter(|i| i % 3 != 1).map(DocumentId).collect();
        let queries = [
            "//b | //a",           // union
            "/r//b | //q",         // first step is not `//name`
            "//*[b]",              // wildcard root
            "//r[b='dup']/b | //c",
            "//nothing",
        ];
        let in_docs: std::collections::HashSet<DocumentId> = docs.iter().copied().collect();
        for (label, db) in [("gaps", gaps), ("shuffled", shuffled)] {
            for db in [frozen_twin(&db), db] {
                let coll = db.collection("x").unwrap();
                for query in queries {
                    let xp = XPath::parse(query).unwrap();
                    let at = format!("{label} frozen={} {query}", coll.is_frozen());
                    let oracle = filtered_walk(&xp, coll, &docs);
                    let new = || xp.probe_candidates(coll, &docs);
                    assert_eq!(shape(&new()), shape(&oracle), "{at}");
                    // every cut against the streaming scan over the probe
                    // documents
                    for limit in 0..=oracle.len() + 1 {
                        let expected =
                            streaming_scan(&xp, coll, |d| in_docs.contains(&d), limit);
                        assert_eq!(
                            new().eval(limit, &|| false),
                            Some(expected),
                            "{at} limit {limit}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scan_enumeration_matches_the_streaming_scan_on_both_backends() {
        let mut db = mixed_db(40);
        db.collection_mut("x").unwrap().remove(DocumentId(5)).unwrap();
        for db in [frozen_twin(&db), db] {
            let coll = db.collection("x").unwrap();
            for query in ["//b", "//b[text()='dup'] | //a", "//b | //a", "/r//b | //q", "//*[b]"] {
                let xp = XPath::parse(query).unwrap();
                let n = xp.scan_candidates(coll).len();
                for limit in 0..=n + 1 {
                    let got = scan(&xp, coll, limit);
                    assert_eq!(got, reference(&xp, coll, limit), "{query} limit {limit}");
                }
            }
        }
    }

    #[test]
    fn probe_visits_a_replaced_document_in_document_order() {
        // `replace` re-adds a document's postings at the tail of the
        // pointer index's lists, the frozen index holds them in id order;
        // driving the probe from the doc list makes both visit in
        // document order, so a limit cuts the same prefix.
        let mut db = mixed_db(24);
        let middle = DocumentId(8);
        let tree = crate::parser::parse_document("<r><b>replaced</b><b>dup</b></r>").unwrap();
        db.collection_mut("x").unwrap().replace(middle, tree).unwrap();
        let pointer = db.collection("x").unwrap();
        assert_eq!(pointer.index().by_tag("b").iter().last().unwrap().doc, middle);
        let frozen_db = frozen_twin(&db);
        let frozen = frozen_db.collection("x").unwrap();
        assert!(frozen.is_frozen() && !pointer.is_frozen());

        let docs: Vec<DocumentId> = (2..20u64).filter(|i| i % 2 == 0).map(DocumentId).collect();
        // the reference: a sequential scan of a collection holding only
        // the probe documents, under their own ids
        let mut only = crate::collection::Collection::new("only", None);
        for &id in &docs {
            only.insert_with_id(id, pointer.get(id).unwrap().tree().clone()).unwrap();
        }
        for query in ["//b", "//b[text()='dup'] | //a", "//*[b]"] {
            let xp = XPath::parse(query).unwrap();
            let visits = xp.scan_candidates(&only).len();
            for limit in 0..=visits + 1 {
                let expected = reference(&xp, &only, limit);
                for coll in [pointer, frozen] {
                    assert_eq!(
                        xp.probe_candidates(coll, &docs).eval(limit, &|| false),
                        Some(expected.clone()),
                        "{query} limit {limit} frozen={}",
                        coll.is_frozen()
                    );
                }
            }
        }
    }

    #[test]
    fn collection_index_fast_path_equals_scan() {
        let mut c = crate::collection::Collection::new("x", None);
        c.insert_xml("<r><a><b>1</b></a></r>").unwrap();
        c.insert_xml("<r><b>2</b></r>").unwrap();
        let fast = XPath::parse("//b").unwrap().eval_collection(&c);
        // wildcard first step forces the scan path
        let scan = XPath::parse("//*")
            .unwrap()
            .eval_collection(&c)
            .into_iter()
            .filter(|r| {
                c.get(r.doc)
                    .unwrap()
                    .tree()
                    .data(r.node)
                    .map(|d| d.tag == "b")
                    .unwrap_or(false)
            })
            .collect::<Vec<_>>();
        assert_eq!(fast, scan);
        assert_eq!(fast.len(), 2);
    }
}
