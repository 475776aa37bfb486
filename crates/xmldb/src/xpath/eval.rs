//! XPath evaluation over trees and collections.
//!
//! Evaluation is node-set based. Results are returned in document order
//! (documents ascending by id, which is insertion order; nodes in
//! preorder within a document), which is the order TAX's witness-tree
//! semantics requires.
//!
//! A collection evaluation has one path: enumerate the budget-charged
//! visits ([`XPath::scan_candidates`], or [`XPath::probe_candidates`]
//! given a probe's candidate document list, which touches only those
//! documents), then run them with [`Candidates::eval`] — inline on a
//! one-worker pool, partitioned across a larger one, with identical
//! results, order and charges. The enumeration uses the tag index as a
//! fast path for queries whose first step is `//name`: instead of
//! scanning every subtree it starts from the index postings for `name`.

use super::ast::{Axis, Expr, NameTest, Path, RelPath, Step, ValueExpr, XPath};
use crate::collection::{Collection, DocumentId, StoredDocument};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use toss_pool::{partition_ranges, WorkerPool};
use toss_tree::{NodeId, Tree};

/// A query result: one node in one document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef {
    /// Document containing the node.
    pub doc: DocumentId,
    /// The node within the document's tree.
    pub node: NodeId,
}

/// A cooperative per-document scan budget.
///
/// The evaluator calls [`ScanBudget::before_document`] before visiting
/// each document. This keeps the DB layer decoupled from any particular
/// governance policy: `toss-core`'s query governor implements this trait
/// to enforce deadlines, cancellation and document-scan limits, and the
/// evaluator only needs to know *continue / truncate / abort*.
///
/// # Monotonicity
///
/// Budgets must be **monotone**: once `before_document(n)` (or
/// [`preflight`](ScanBudget::preflight)`(n)`) returns `Truncate` or
/// `Abort`, every later call with the same or a larger `docs_scanned`
/// must also stop. Document caps, cancellation flags and deadlines all
/// satisfy this naturally (counts only grow, time only advances). The
/// parallel evaluator stays *correct* for a non-monotone budget — it
/// re-evaluates any document the budget admits after all — but its
/// speculation-skipping becomes pessimal.
pub trait ScanBudget {
    /// Decide whether the next document may be visited. `docs_scanned`
    /// counts documents already visited by this evaluation.
    fn before_document(&self, docs_scanned: usize) -> ScanControl;

    /// Non-charging probe: *would* a visit be allowed if `docs_scanned`
    /// documents had already been admitted? The parallel evaluator asks
    /// this before speculatively evaluating a partition whose documents
    /// have not reached the in-order commit frontier yet, so a tripped
    /// budget stops far-ahead workers without being charged for
    /// documents that were never admitted. Implementations must not
    /// count this call against any limit. The default speculates freely.
    fn preflight(&self, _docs_scanned: usize) -> ScanControl {
        ScanControl::Continue
    }
}

/// The decision a [`ScanBudget`] returns for the next document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanControl {
    /// Visit the document.
    Continue,
    /// Stop scanning but keep the matches found so far (a soft limit:
    /// the caller turns the partial result into a degraded answer).
    Truncate,
    /// Stop scanning and discard nothing — the caller decides how to
    /// fail (cancellation, deadline, or a hard limit).
    Abort,
}

/// How a budgeted collection evaluation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStatus {
    /// Every candidate document was visited.
    Complete {
        /// Documents visited.
        docs_scanned: usize,
    },
    /// The budget truncated the scan; the matches are a prefix of the
    /// full answer.
    Truncated {
        /// Documents visited before the budget stopped the scan.
        docs_scanned: usize,
        /// Documents a full evaluation would have visited.
        docs_total: usize,
    },
    /// The budget aborted the scan; the matches must be discarded.
    Aborted {
        /// Documents visited before the abort.
        docs_scanned: usize,
    },
}

/// The always-continue budget backing [`XPath::eval_collection`].
struct NoBudget;

impl ScanBudget for NoBudget {
    fn before_document(&self, _docs_scanned: usize) -> ScanControl {
        ScanControl::Continue
    }
}

/// The W3C-style string-value of a node: its own text content
/// concatenated with the content of all descendants in preorder.
/// Exposed as a helper; **comparisons in this engine use
/// [`own_text`]** — see the deviation note below.
pub fn string_value(tree: &Tree, node: NodeId) -> String {
    let mut out = String::new();
    for n in tree.subtree(node) {
        if let Ok(d) = tree.data(n) {
            if let Some(c) = &d.content {
                out.push_str(&c.render());
            }
        }
    }
    out
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
pub fn own_text(tree: &Tree, node: NodeId) -> String {
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

    /// Evaluate against every document of a collection, unbudgeted and
    /// on the calling thread; results in document order.
    pub fn eval_collection(&self, coll: &Collection) -> Vec<NodeRef> {
        self.scan_candidates(coll)
            .eval(&NoBudget, &WorkerPool::new(1))
            .0
    }

    /// Enumerate the budget-charged visits of a whole-collection
    /// evaluation: one per `(union branch, document)` pair, tag-index
    /// seeded where the branch starts with `//name`.
    pub fn scan_candidates<'a>(&'a self, coll: &'a Collection) -> Candidates<'a> {
        let mut set = Candidates::default();
        for (path_ord, path) in self.paths.iter().enumerate() {
            let before = set.visits.len();
            match index_seed_tag(path) {
                Some(name) => {
                    let mut cursor = DocCursor::new(coll);
                    for p in coll.index().by_tag(name) {
                        match set.visits.last_mut() {
                            Some(c) if c.path_ord == path_ord && c.doc.id == p.doc => {
                                c.seeds.as_mut().expect("seeded visit").push(p.node);
                            }
                            _ => {
                                let Some(doc) = cursor.seek(p.doc) else { continue };
                                set.visits.push(Candidate {
                                    path,
                                    path_ord,
                                    doc,
                                    seeds: Some(vec![p.node]),
                                });
                            }
                        }
                    }
                }
                None => set.visits.extend(coll.documents().iter().map(|doc| Candidate {
                    path,
                    path_ord,
                    doc,
                    seeds: None,
                })),
            }
            set.path_counts.push(set.visits.len() - before);
        }
        set
    }

    /// [`scan_candidates`](XPath::scan_candidates) restricted to `docs`
    /// (strictly ascending by id) — the index-probe path. Documents
    /// outside the set are never visited *or charged*, while every listed
    /// document with a root-step node is charged exactly like a scan
    /// visit, so `docs_scanned` accounting agrees with the scan. Costs
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
        for (path_ord, path) in self.paths.iter().enumerate() {
            let before = set.visits.len();
            let seed_tag = index_seed_tag(path);
            for &doc in &stored {
                let seeds = match seed_tag {
                    Some(name) => {
                        let tree = &doc.tree;
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
                set.visits.push(Candidate {
                    path,
                    path_ord,
                    doc,
                    seeds,
                });
            }
            set.path_counts.push(set.visits.len() - before);
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
/// sparse tag, or a replaced document whose postings the pointer index
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

/// Epilogue of [`Candidates::eval`] on either runner (inline or
/// partitioned): sort and deduplicate matches, derive the
/// [`ScanStatus`], and emit the `xmldb.xpath.*` span records and metrics.
fn finish_eval(
    span: toss_obs::SpanGuard,
    mut out: Vec<NodeRef>,
    docs_scanned: usize,
    docs_total: usize,
    stopped: Option<ScanControl>,
) -> (Vec<NodeRef>, ScanStatus) {
    let status = match stopped {
        None => ScanStatus::Complete { docs_scanned },
        Some(ScanControl::Truncate) => {
            toss_obs::metrics::counter("xmldb.xpath.scans_truncated").inc();
            ScanStatus::Truncated {
                docs_scanned,
                docs_total: docs_total.max(docs_scanned),
            }
        }
        Some(_) => {
            toss_obs::metrics::counter("xmldb.xpath.scans_aborted").inc();
            ScanStatus::Aborted { docs_scanned }
        }
    };
    out.sort();
    out.dedup();
    if span.is_recording() {
        let docs_matched = {
            let mut docs: Vec<DocumentId> = out.iter().map(|r| r.doc).collect();
            docs.dedup(); // `out` is sorted by (doc, node)
            docs.len()
        };
        span.record("docs_scanned", docs_scanned);
        span.record("docs_matched", docs_matched);
        span.record("nodes_matched", out.len());
    }
    toss_obs::metrics::counter("xmldb.xpath.evals").inc();
    toss_obs::metrics::counter("xmldb.xpath.docs_scanned").add(docs_scanned as u64);
    toss_obs::metrics::counter("xmldb.xpath.nodes_matched").add(out.len() as u64);
    toss_obs::metrics::histogram("xmldb.xpath.eval_ns").observe_duration(span.finish());
    (out, status)
}

/// One budget-charged unit of work: evaluate one union branch against
/// one document. The candidate list is materialized up front in
/// admission order (path-major, documents in document order), so
/// chunking it contiguously preserves that order.
struct Candidate<'a> {
    path: &'a Path,
    /// Index of `path` within the union, for `docs_total` bookkeeping.
    path_ord: usize,
    doc: &'a StoredDocument,
    /// `Some` when the tag index seeded this visit (first step
    /// `//name`): the document's nodes with that tag, in preorder.
    seeds: Option<Vec<NodeId>>,
}

/// The enumerated visits of one collection evaluation, in sequential
/// visit order — built by [`XPath::scan_candidates`] or
/// [`XPath::probe_candidates`], counted by the planner
/// ([`planned_partitions`] partitions exactly [`Candidates::len`]) and
/// then evaluated by [`Candidates::eval`], so a request enumerates once.
#[derive(Default)]
pub struct Candidates<'a> {
    visits: Vec<Candidate<'a>>,
    /// Visits per union branch, for sequential-compatible `docs_total`
    /// reporting on truncation.
    path_counts: Vec<usize>,
}

impl Candidates<'_> {
    /// Number of budget-charged visits a full evaluation makes.
    pub fn len(&self) -> usize {
        self.visits.len()
    }

    /// Whether no document would be visited.
    pub fn is_empty(&self) -> bool {
        self.visits.is_empty()
    }

    /// Evaluate the visits under a cooperative [`ScanBudget`], asked
    /// before each visit, so a deadline, cancellation or document-scan
    /// cap stops the evaluation promptly. Returns the matches plus a
    /// [`ScanStatus`]: complete, truncated (the matches are a prefix of
    /// the full answer) or aborted (the caller discards them and fails).
    ///
    /// A one-worker pool runs the visits inline, admit-then-evaluate. A
    /// larger pool splits them into contiguous chunks evaluated
    /// *speculatively* on its workers and committed through an in-order
    /// frontier that charges [`ScanBudget::before_document`] exactly as
    /// the inline run does, so matches, order, status and charges are
    /// identical at every worker count for any deterministic budget. A
    /// budget trip raises a shared stop flag far-ahead workers poll
    /// between documents, and [`ScanBudget::preflight`] lets them skip
    /// chunks that lie entirely past a tripped limit without charging.
    pub fn eval(
        &self,
        budget: &(dyn ScanBudget + Sync),
        pool: &WorkerPool,
    ) -> (Vec<NodeRef>, ScanStatus) {
        let span = toss_obs::span("xmldb.xpath.eval");
        let (out, scanned, stopped, stop_ord) = if pool.is_sequential() {
            run_candidates_sequential(&self.visits, budget)
        } else {
            run_candidates_parallel(&self.visits, budget, pool)
        };
        // A branch's visits count into the total once the branch starts,
        // so a stop inside branch `p` reports the visits of `0..=p`.
        let total = match stop_ord {
            None => self.visits.len(),
            Some(p) => self.path_counts[..=p].iter().sum(),
        };
        finish_eval(span, out, scanned, total, stopped)
    }
}

/// Evaluate one candidate — pure over the borrowed document so it can
/// run on any worker (or run twice, if a speculative result was
/// discarded).
fn eval_candidate(cand: &Candidate<'_>) -> Vec<NodeRef> {
    let doc = cand.doc.id;
    let tree = &cand.doc.tree;
    let nodes = match &cand.seeds {
        Some(seeds) => eval_seeded(cand.path, tree, seeds.clone()),
        None => eval_path_tree(cand.path, tree),
    };
    nodes.into_iter().map(|node| NodeRef { doc, node }).collect()
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

/// Drive the candidate list inline: admit-then-evaluate, one document
/// at a time. The one-worker runner, and the partitioned runner's
/// fallback when the list is too short to split.
fn run_candidates_sequential(
    candidates: &[Candidate<'_>],
    budget: &dyn ScanBudget,
) -> (Vec<NodeRef>, usize, Option<ScanControl>, Option<usize>) {
    let mut out = Vec::new();
    let mut scanned = 0usize;
    for cand in candidates {
        match budget.before_document(scanned) {
            ScanControl::Continue => {
                scanned += 1;
                out.extend(eval_candidate(cand));
            }
            control => return (out, scanned, Some(control), Some(cand.path_ord)),
        }
    }
    (out, scanned, None, None)
}

/// Aim for this many chunks per worker, so a fast worker steals the
/// slack of a slow one instead of idling at a barrier.
const CHUNKS_PER_WORKER: usize = 4;
/// Don't split fewer documents than this across threads — the spawn
/// cost would dominate.
const MIN_CHUNK_DOCS: usize = 8;

/// How many contiguous partitions a parallel evaluation over
/// `candidates` candidate visits would use on a pool of `workers`
/// workers. Exposed so the planner / EXPLAIN can report the partition
/// count without running the scan.
pub fn planned_partitions(candidates: usize, workers: usize) -> usize {
    if workers <= 1 || candidates == 0 {
        return 1;
    }
    partition_ranges(candidates, workers * CHUNKS_PER_WORKER, MIN_CHUNK_DOCS)
        .len()
        .max(1)
}

/// The in-order commit frontier shared by all workers of one parallel
/// evaluation.
struct Frontier {
    /// Next chunk index allowed to commit.
    next: usize,
    /// Documents admitted by the budget so far (the sequential
    /// `docs_scanned`).
    scanned: usize,
    stopped: Option<ScanControl>,
    /// `path_ord` of the candidate on which the budget tripped.
    stop_ord: Option<usize>,
    /// Finished chunks waiting for their turn: chunk index →
    /// per-candidate speculative results (`None` = skipped, re-evaluate
    /// on commit if the budget admits the document after all).
    pending: BTreeMap<usize, Vec<Option<Vec<NodeRef>>>>,
    /// Committed matches, in candidate order.
    out: Vec<NodeRef>,
    /// Speculative evaluations whose result was committed (the rest is
    /// waste, reported via `toss.pool.speculative_waste`).
    used: usize,
}

/// Evaluate candidate chunks on the pool, committing results through an
/// in-order frontier that consults the budget exactly like the
/// sequential scan. Returns `(matches, scanned, stopped, stop_ord)`.
fn run_candidates_parallel(
    candidates: &[Candidate<'_>],
    budget: &(dyn ScanBudget + Sync),
    pool: &WorkerPool,
) -> (Vec<NodeRef>, usize, Option<ScanControl>, Option<usize>) {
    let n = candidates.len();
    let ranges = partition_ranges(n, pool.workers() * CHUNKS_PER_WORKER, MIN_CHUNK_DOCS);
    if ranges.len() <= 1 {
        return run_candidates_sequential(candidates, budget);
    }
    let stop = AtomicBool::new(false);
    let frontier = Mutex::new(Frontier {
        next: 0,
        scanned: 0,
        stopped: None,
        stop_ord: None,
        pending: BTreeMap::new(),
        out: Vec::new(),
        used: 0,
    });
    let evaluated_total = std::sync::atomic::AtomicUsize::new(0);

    let tasks: Vec<_> = ranges
        .iter()
        .enumerate()
        .map(|(chunk, &(start, end))| {
            let (stop, frontier, ranges, evaluated_total) =
                (&stop, &frontier, &ranges, &evaluated_total);
            move || {
                let pspan = toss_obs::span("xmldb.xpath.partition");
                let mut results: Vec<Option<Vec<NodeRef>>> = Vec::with_capacity(end - start);
                let mut evaluated = 0usize;
                // `scanned` before this chunk can only be `start` (every
                // earlier candidate admitted) or smaller with the budget
                // already tripped — so for a monotone budget a failing
                // preflight at `start` proves nothing here will commit.
                let speculate = !stop.load(Ordering::Acquire)
                    && budget.preflight(start) == ScanControl::Continue;
                for candidate in &candidates[start..end] {
                    if speculate && !stop.load(Ordering::Acquire) {
                        results.push(Some(eval_candidate(candidate)));
                        evaluated += 1;
                    } else {
                        results.push(None);
                    }
                }
                evaluated_total.fetch_add(evaluated, Ordering::Relaxed);
                if pspan.is_recording() {
                    pspan.record("chunk", chunk);
                    pspan.record("candidates", end - start);
                    pspan.record("evaluated", evaluated);
                }
                drop(pspan);

                // Commit every chunk that has reached the frontier, in
                // chunk order; admission happens here, single-file.
                let mut fr = frontier.lock().unwrap_or_else(|e| e.into_inner());
                fr.pending.insert(chunk, results);
                loop {
                    let turn = fr.next;
                    let Some(chunk_results) = fr.pending.remove(&turn) else {
                        break;
                    };
                    let (c_start, c_end) = ranges[turn];
                    fr.next = turn + 1;
                    if fr.stopped.is_some() {
                        continue; // drain without committing
                    }
                    for (idx, spec) in (c_start..c_end).zip(chunk_results) {
                        match budget.before_document(fr.scanned) {
                            ScanControl::Continue => {
                                fr.scanned += 1;
                                match spec {
                                    Some(matches) => {
                                        fr.used += 1;
                                        fr.out.extend(matches);
                                    }
                                    // Skipped speculatively but admitted
                                    // after all (non-monotone budget):
                                    // evaluate now, on the commit path.
                                    None => {
                                        fr.out.extend(eval_candidate(&candidates[idx]));
                                    }
                                }
                            }
                            control => {
                                fr.stopped = Some(control);
                                fr.stop_ord = Some(candidates[idx].path_ord);
                                stop.store(true, Ordering::Release);
                                break;
                            }
                        }
                    }
                }
            }
        })
        .collect();
    pool.run(tasks);

    let fr = frontier.into_inner().unwrap_or_else(|e| e.into_inner());
    let evaluated = evaluated_total.load(Ordering::Relaxed);
    toss_obs::metrics::counter("toss.pool.runs").inc();
    toss_obs::metrics::counter("toss.pool.partitions").add(ranges.len() as u64);
    toss_obs::metrics::counter("toss.pool.speculative_waste")
        .add(evaluated.saturating_sub(fr.used) as u64);
    (fr.out, fr.scanned, fr.stopped, fr.stop_ord)
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

    /// The streaming scan [`Candidates::eval`] replaced, kept as the
    /// independent sequential reference: walk each union branch's
    /// documents (grouped postings of the seed tag, or every document)
    /// that `keep` admits, charging and evaluating one at a time, with
    /// no enumeration up front.
    fn streaming_scan(
        xpath: &XPath,
        coll: &Collection,
        keep: impl Fn(DocumentId) -> bool,
        budget: &dyn ScanBudget,
    ) -> (Vec<NodeRef>, ScanStatus) {
        let mut out = Vec::new();
        let (mut scanned, mut total) = (0usize, 0usize);
        let mut status = None;
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
            total += visits.len();
            for (stored, seeds) in visits {
                match budget.before_document(scanned) {
                    ScanControl::Continue => scanned += 1,
                    ScanControl::Truncate => {
                        status = Some(ScanStatus::Truncated {
                            docs_scanned: scanned,
                            docs_total: total,
                        });
                        break 'paths;
                    }
                    ScanControl::Abort => {
                        status = Some(ScanStatus::Aborted {
                            docs_scanned: scanned,
                        });
                        break 'paths;
                    }
                }
                let nodes = match seeds {
                    Some(seeds) => eval_seeded(path, &stored.tree, seeds),
                    None => eval_path_tree(path, &stored.tree),
                };
                let doc = stored.id;
                out.extend(nodes.into_iter().map(|node| NodeRef { doc, node }));
            }
        }
        out.sort();
        out.dedup();
        let status = status.unwrap_or(ScanStatus::Complete {
            docs_scanned: scanned,
        });
        (out, status)
    }

    /// [`streaming_scan`] over the whole collection.
    fn reference(
        xpath: &XPath,
        coll: &Collection,
        budget: &dyn ScanBudget,
    ) -> (Vec<NodeRef>, ScanStatus) {
        streaming_scan(xpath, coll, |_| true, budget)
    }

    /// The product path over the whole collection on `threads` workers.
    fn scan(
        xpath: &XPath,
        coll: &Collection,
        budget: &(dyn ScanBudget + Sync),
        threads: usize,
    ) -> (Vec<NodeRef>, ScanStatus) {
        xpath
            .scan_candidates(coll)
            .eval(budget, &WorkerPool::new(threads))
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
    fn string_value_helper_concatenates_but_comparisons_use_own_text() {
        let t = tree();
        let root = t.root().unwrap();
        assert_eq!(string_value(&t, root), "xyzdeep");
        let a2 = t.children(root).nth(1).unwrap();
        assert_eq!(string_value(&t, a2), "zdeep");
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

    struct CapBudget {
        cap: usize,
        control: ScanControl,
    }

    impl ScanBudget for CapBudget {
        fn before_document(&self, docs_scanned: usize) -> ScanControl {
            if docs_scanned < self.cap {
                ScanControl::Continue
            } else {
                self.control
            }
        }
        fn preflight(&self, docs_scanned: usize) -> ScanControl {
            self.before_document(docs_scanned)
        }
    }

    fn budget_collection(n: usize) -> crate::collection::Collection {
        let mut c = crate::collection::Collection::new("x", None);
        for i in 0..n {
            c.insert_xml(&format!("<r><b>{i}</b></r>")).unwrap();
        }
        c
    }

    #[test]
    fn budgeted_scan_truncates_with_prefix() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let (full, status) = scan(
            &xp,
            &c,
            &CapBudget {
                cap: 100,
                control: ScanControl::Truncate,
            },
            1,
        );
        assert_eq!(status, ScanStatus::Complete { docs_scanned: 10 });
        assert_eq!(full.len(), 10);

        let (partial, status) = scan(
            &xp,
            &c,
            &CapBudget {
                cap: 4,
                control: ScanControl::Truncate,
            },
            1,
        );
        assert_eq!(
            status,
            ScanStatus::Truncated {
                docs_scanned: 4,
                docs_total: 10
            }
        );
        assert_eq!(partial, full[..4].to_vec());
    }

    #[test]
    fn budgeted_scan_aborts() {
        let c = budget_collection(5);
        let xp = XPath::parse("//b").unwrap();
        let (_, status) = scan(
            &xp,
            &c,
            &CapBudget {
                cap: 2,
                control: ScanControl::Abort,
            },
            1,
        );
        assert_eq!(status, ScanStatus::Aborted { docs_scanned: 2 });
        // zero-budget: aborted before any document
        let (hits, status) = scan(
            &xp,
            &c,
            &CapBudget {
                cap: 0,
                control: ScanControl::Abort,
            },
            1,
        );
        assert!(hits.is_empty());
        assert_eq!(status, ScanStatus::Aborted { docs_scanned: 0 });
    }

    #[test]
    fn budgeted_scan_covers_general_path_too() {
        let c = budget_collection(6);
        // wildcard first step forces the general (non-indexed) path
        let xp = XPath::parse("//*").unwrap();
        let (_, status) = scan(
            &xp,
            &c,
            &CapBudget {
                cap: 3,
                control: ScanControl::Truncate,
            },
            1,
        );
        assert_eq!(
            status,
            ScanStatus::Truncated {
                docs_scanned: 3,
                docs_total: 6
            }
        );
    }

    /// A budget that only stops on `before_document` — its `preflight`
    /// always continues (the trait default), so speculative skipping
    /// gets no help and the commit path must stay correct on its own.
    struct BlindCapBudget(usize);

    impl ScanBudget for BlindCapBudget {
        fn before_document(&self, docs_scanned: usize) -> ScanControl {
            if docs_scanned < self.0 {
                ScanControl::Continue
            } else {
                ScanControl::Truncate
            }
        }
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
    fn parallel_eval_is_identical_to_sequential() {
        let c = mixed_collection(57);
        for query in ["//b", "//b[text()='dup'] | //a", "//*[b]", "/r//b | //q"] {
            let xp = XPath::parse(query).unwrap();
            let (seq, seq_status) = reference(&xp, &c, &NoBudget);
            for threads in [1usize, 2, 7] {
                let (par, par_status) = scan(&xp, &c, &NoBudget, threads);
                assert_eq!(par, seq, "{query} @ {threads} threads");
                assert_eq!(par_status, seq_status, "{query} @ {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_eval_matches_sequential_under_truncation() {
        let c = mixed_collection(64);
        let xp = XPath::parse("//b | //a").unwrap();
        for cap in [0usize, 1, 5, 30, 1000] {
            let mk = || CapBudget {
                cap,
                control: ScanControl::Truncate,
            };
            let (seq, seq_status) = reference(&xp, &c, &mk());
            for threads in [1usize, 2, 7] {
                let (par, par_status) = scan(&xp, &c, &mk(), threads);
                assert_eq!(par, seq, "cap {cap} @ {threads} threads");
                assert_eq!(par_status, seq_status, "cap {cap} @ {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_eval_matches_sequential_under_abort() {
        let c = mixed_collection(40);
        let xp = XPath::parse("//b").unwrap();
        for cap in [0usize, 3, 17] {
            let mk = || CapBudget {
                cap,
                control: ScanControl::Abort,
            };
            let (_, seq_status) = reference(&xp, &c, &mk());
            for threads in [1usize, 4] {
                let (_, par_status) = scan(&xp, &c, &mk(), threads);
                assert_eq!(par_status, seq_status, "cap {cap} @ {threads} threads");
            }
        }
    }

    #[test]
    fn parallel_commit_is_exact_without_preflight_help() {
        // A budget whose preflight never trips exercises the path where
        // workers speculate past the stop point and the in-order commit
        // alone must reproduce the sequential prefix.
        let c = mixed_collection(64);
        let xp = XPath::parse("//b | //a").unwrap();
        for cap in [0usize, 7, 33] {
            let (seq, seq_status) = reference(&xp, &c, &BlindCapBudget(cap));
            let (par, par_status) = scan(&xp, &c, &BlindCapBudget(cap), 7);
            assert_eq!(par, seq, "cap {cap}");
            assert_eq!(par_status, seq_status, "cap {cap}");
        }
    }

    #[test]
    fn doc_filtered_eval_visits_and_charges_only_the_filter() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let docs: Vec<DocumentId> = c
            .documents()
            .iter()
            .map(|d| d.id)
            .filter(|d| d.0 % 2 == 0)
            .collect();
        for threads in [1usize, 4] {
            let pool = WorkerPool::new(threads);
            let (hits, status) = xp.probe_candidates(&c, &docs).eval(&NoBudget, &pool);
            assert_eq!(hits.len(), 5, "@ {threads} threads");
            assert!(hits.iter().all(|r| r.doc.0 % 2 == 0));
            // the filtered docs are charged like scan visits
            assert_eq!(status, ScanStatus::Complete { docs_scanned: 5 });
        }
    }

    #[test]
    fn doc_filtered_eval_respects_budget() {
        let c = budget_collection(10);
        let xp = XPath::parse("//b").unwrap();
        let docs: Vec<DocumentId> = c.documents().iter().map(|d| d.id).collect();
        let pool = WorkerPool::new(1);
        let (hits, status) = xp.probe_candidates(&c, &docs).eval(
            &CapBudget {
                cap: 3,
                control: ScanControl::Truncate,
            },
            &pool,
        );
        assert_eq!(hits.len(), 3);
        assert_eq!(
            status,
            ScanStatus::Truncated {
                docs_scanned: 3,
                docs_total: 10
            }
        );
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
        for (path_ord, path) in xpath.paths.iter().enumerate() {
            let before = set.visits.len();
            match index_seed_tag(path) {
                Some(name) => {
                    for p in coll.index().by_tag(name) {
                        if !filter.contains(&p.doc) {
                            continue;
                        }
                        match set.visits.last_mut() {
                            Some(c) if c.path_ord == path_ord && c.doc.id == p.doc => {
                                c.seeds.as_mut().unwrap().push(p.node);
                            }
                            _ => set.visits.push(Candidate {
                                path,
                                path_ord,
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
                            path_ord,
                            doc,
                            seeds: None,
                        });
                    }
                }
            }
            set.path_counts.push(set.visits.len() - before);
        }
        set
    }

    type Visit = (usize, DocumentId, Option<Vec<NodeId>>);

    fn shape(set: &Candidates<'_>) -> (Vec<Visit>, Vec<usize>) {
        let visits = set
            .visits
            .iter()
            .map(|c| (c.path_ord, c.doc.id, c.seeds.clone()))
            .collect();
        (visits, set.path_counts.clone())
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
        let (twin, _, frozen) =
            crate::storage::from_json_with_seq_seg(&json, Some(&std::sync::Arc::new(seg)))
                .unwrap();
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
                    let new = xp.probe_candidates(coll, &docs);
                    assert_eq!(shape(&new), shape(&oracle), "{at}");
                    // truncation and abort at every cut, 1 and 4 workers,
                    // against the streaming scan over the probe documents
                    for control in [ScanControl::Truncate, ScanControl::Abort] {
                        for cap in 0..=oracle.len() + 1 {
                            let budget = CapBudget { cap, control };
                            let expected =
                                streaming_scan(&xp, coll, |d| in_docs.contains(&d), &budget);
                            for threads in [1usize, 4] {
                                let pool = WorkerPool::new(threads);
                                assert_eq!(
                                    new.eval(&budget, &pool),
                                    expected,
                                    "{at} cap {cap} {control:?} @ {threads}"
                                );
                            }
                        }
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
            for query in ["//b | //a", "/r//b | //q", "//*[b]"] {
                let xp = XPath::parse(query).unwrap();
                for cap in [0usize, 1, 9, 33, 1000] {
                    let budget = CapBudget {
                        cap,
                        control: ScanControl::Truncate,
                    };
                    let expected = reference(&xp, coll, &budget);
                    for threads in [1usize, 4] {
                        let got = scan(&xp, coll, &budget, threads);
                        assert_eq!(got, expected, "{query} cap {cap} @ {threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn probe_visits_a_replaced_document_in_document_order() {
        // `replace` re-adds a document's postings at the tail of the
        // pointer index's lists, the frozen index holds them in id order;
        // driving the probe from the doc list makes both visit in
        // document order, so a truncating budget cuts the same prefix.
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
            only.insert_with_id(id, pointer.get(id).unwrap().tree.clone()).unwrap();
        }
        for query in ["//b", "//b[text()='dup'] | //a", "//*[b]"] {
            let xp = XPath::parse(query).unwrap();
            let visits = xp.scan_candidates(&only).len();
            for cap in 0..=visits + 1 {
                let budget = CapBudget {
                    cap,
                    control: ScanControl::Truncate,
                };
                let expected = reference(&xp, &only, &budget);
                for threads in [1usize, 4] {
                    let pool = WorkerPool::new(threads);
                    for coll in [pointer, frozen] {
                        assert_eq!(
                            xp.probe_candidates(coll, &docs).eval(&budget, &pool),
                            expected,
                            "{query} cap {cap} @ {threads} frozen={}",
                            coll.is_frozen()
                        );
                    }
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
                    .tree
                    .data(r.node)
                    .map(|d| d.tag == "b")
                    .unwrap_or(false)
            })
            .collect::<Vec<_>>();
        assert_eq!(fast, scan);
        assert_eq!(fast.len(), 2);
    }
}
