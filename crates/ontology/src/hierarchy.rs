//! Hierarchies — Hasse diagrams of partial orders (Definition 3).
//!
//! A hierarchy's nodes are *sets of strings* (after fusion or similarity
//! enhancement a node may carry several synonymous/similar terms; before,
//! nodes usually carry one term each). An edge `(u, v)` means `u ≤ v`
//! directly — e.g. for *part-of*, `author → article`; for *isa*,
//! `web search company → computer company`. The Hasse property (no
//! redundant edges) is restored on demand by [`Hierarchy::reduce`].

use crate::error::{OntologyError, OntologyResult};
use crate::graph::DiGraph;
use crate::reach::ReachIndex;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Identifier of a node within one [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HNodeId(pub usize);

impl std::fmt::Display for HNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// A Hasse diagram whose nodes carry term sets.
#[derive(Debug, Clone, Default)]
pub struct Hierarchy {
    /// Term sets per node, kept sorted and deduplicated.
    terms: Vec<Vec<String>>,
    /// Edge `(u, v)` means `u ≤ v` directly.
    graph: DiGraph,
    /// term → node containing it (terms are unique across nodes).
    by_term: HashMap<String, HNodeId>,
    /// Lazily built reachability index for the current graph snapshot.
    /// Every mutation drops it, so the index can never serve stale cones
    /// after fusion or re-enhancement.
    reach: OnceLock<Arc<ReachIndex>>,
}

impl Hierarchy {
    /// An empty hierarchy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node containing a single term; returns the existing node if
    /// the term is already present.
    pub fn add_term(&mut self, term: &str) -> HNodeId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        self.add_node(vec![term.to_string()])
            .expect("fresh term cannot collide")
    }

    /// Add a node containing a set of terms. Errors with
    /// [`OntologyError::DuplicateTerm`] if any term is already in another
    /// node (terms are unique across nodes).
    pub(crate) fn add_node(&mut self, mut terms: Vec<String>) -> OntologyResult<HNodeId> {
        terms.sort();
        terms.dedup();
        for t in &terms {
            if self.by_term.contains_key(t) {
                return Err(OntologyError::DuplicateTerm(t.clone()));
            }
        }
        self.invalidate_reach();
        let id = HNodeId(self.graph.add_vertex());
        for t in &terms {
            self.by_term.insert(t.clone(), id);
        }
        self.terms.push(terms);
        Ok(id)
    }

    /// Drop the cached reachability index after a structural mutation.
    fn invalidate_reach(&mut self) {
        self.reach = OnceLock::new();
    }

    /// The reachability index for the current graph snapshot, building it
    /// on first use. Cone queries (`below`, `above`, `below_terms`) always
    /// come from here; `leq` only consults it when already built so a
    /// single ≤ probe never pays an index build.
    pub fn reach_index(&self) -> Arc<ReachIndex> {
        Arc::clone(
            self.reach
                .get_or_init(|| Arc::new(ReachIndex::build(&self.graph))),
        )
    }

    /// Assert `below ≤ above`. Rejects edges that would create a cycle
    /// (hierarchies are acyclic by definition).
    pub(crate) fn add_edge(&mut self, below: HNodeId, above: HNodeId) -> OntologyResult<()> {
        if below == above || self.graph.has_path(above.0, below.0) {
            return Err(OntologyError::CycleDetected {
                below: self.render_node(below),
                above: self.render_node(above),
            });
        }
        self.invalidate_reach();
        self.graph.add_edge(below.0, above.0);
        Ok(())
    }

    /// Convenience: assert `below_term ≤ above_term`, creating the nodes
    /// as needed.
    pub fn add_leq(&mut self, below_term: &str, above_term: &str) -> OntologyResult<()> {
        let b = self.add_term(below_term);
        let a = self.add_term(above_term);
        self.add_edge(b, a)
    }

    /// Node containing a term.
    pub fn node_of(&self, term: &str) -> Option<HNodeId> {
        self.by_term.get(term).copied()
    }

    /// Terms of a node.
    pub fn terms_of(&self, id: HNodeId) -> OntologyResult<&[String]> {
        self.terms
            .get(id.0)
            .map(Vec::as_slice)
            .ok_or(OntologyError::InvalidNode(id.0))
    }

    /// `a ≤ b` in the reflexive-transitive order. Answered by the
    /// reachability index when one has already been built (a single bit
    /// test); otherwise by DFS, so a lone probe never pays an index build.
    pub fn leq(&self, a: HNodeId, b: HNodeId) -> bool {
        if let Some(ix) = self.reach.get() {
            return ix.leq(a.0, b.0);
        }
        a == b || self.graph.has_path(a.0, b.0)
    }

    /// `x ≤ y` on terms; false when either term is absent.
    pub fn leq_terms(&self, x: &str, y: &str) -> bool {
        match (self.node_of(x), self.node_of(y)) {
            (Some(a), Some(b)) => self.leq(a, b),
            _ => false,
        }
    }

    /// All nodes ≤ `id` (the *below cone*, including `id`). For a type
    /// hierarchy this is the paper's `below_H(τ)` restricted to types —
    /// domain values are appended by the caller that owns the type system.
    pub fn below(&self, id: HNodeId) -> Vec<HNodeId> {
        self.reach_index()
            .below_many(&[id.0])
            .into_iter()
            .map(HNodeId)
            .collect()
    }

    /// All nodes ≥ `id` (the *above cone*, including `id`), ascending.
    /// Served from the shared reachability index's memoized cone — no
    /// per-call sort/dedup allocation.
    pub fn above(&self, id: HNodeId) -> Vec<HNodeId> {
        self.reach_index()
            .above_cone(id.0)
            .iter()
            .map(|&u| HNodeId(u as usize))
            .collect()
    }

    /// All terms of all nodes ≤ the node containing `term` (including the
    /// node's own terms); empty if the term is absent.
    pub fn below_terms(&self, term: &str) -> Vec<String> {
        let Some(id) = self.node_of(term) else {
            return Vec::new();
        };
        let mut out: Vec<String> = self
            .below(id)
            .into_iter()
            .flat_map(|n| self.terms[n.0].iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the hierarchy has no nodes.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Total number of terms across nodes.
    pub fn term_count(&self) -> usize {
        self.by_term.len()
    }

    /// Direct Hasse edges as `(below, above)` pairs.
    pub fn edges(&self) -> Vec<(HNodeId, HNodeId)> {
        self.graph
            .edges()
            .into_iter()
            .map(|(u, v)| (HNodeId(u), HNodeId(v)))
            .collect()
    }

    /// Direct parents (covers) of a node.
    pub fn parents(&self, id: HNodeId) -> Vec<HNodeId> {
        self.graph
            .successors(id.0)
            .iter()
            .map(|&v| HNodeId(v))
            .collect()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = HNodeId> {
        (0..self.len()).map(HNodeId)
    }

    /// All terms in the hierarchy (sorted).
    pub fn all_terms(&self) -> Vec<String> {
        let mut v: Vec<String> = self.by_term.keys().cloned().collect();
        v.sort();
        v
    }

    /// Restore the Hasse property: remove edges implied by transitivity.
    /// Returns the number of edges removed.
    pub fn reduce(&mut self) -> usize {
        let before = self.graph.edge_count();
        self.invalidate_reach();
        self.graph = self.graph.transitive_reduction();
        before - self.graph.edge_count()
    }

    /// Render a node as `{t1, t2}` for error messages.
    pub(crate) fn render_node(&self, id: HNodeId) -> String {
        match self.terms.get(id.0) {
            Some(ts) => format!("{{{}}}", ts.join(", ")),
            None => format!("<invalid {id}>"),
        }
    }

    /// The underlying digraph (read-only), for algorithms that need raw
    /// access (fusion, SEA).
    pub fn digraph(&self) -> &DiGraph {
        &self.graph
    }

    /// Check the Definition-5 axiom-1 property against another hierarchy:
    /// every ordered pair of this hierarchy must be ordered in `other`
    /// under the mapping `f` from our node ids to theirs.
    pub fn order_preserved_into(
        &self,
        other: &Hierarchy,
        f: impl Fn(HNodeId) -> Option<HNodeId>,
    ) -> bool {
        for a in self.nodes() {
            for b in self.nodes() {
                if self.leq(a, b) {
                    match (f(a), f(b)) {
                        (Some(fa), Some(fb)) if other.leq(fa, fb) => {}
                        _ => return false,
                    }
                }
            }
        }
        true
    }
}

/// Build a hierarchy from `(below, above)` term pairs — the natural way to
/// write the paper's examples.
pub fn from_pairs(pairs: &[(&str, &str)]) -> OntologyResult<Hierarchy> {
    let mut h = Hierarchy::new();
    for (b, a) in pairs {
        h.add_leq(b, a)?;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Example 7: author ≤ article, title ≤ article (part-of).
    fn example7() -> Hierarchy {
        from_pairs(&[("author", "article"), ("title", "article")]).unwrap()
    }

    #[test]
    fn example7_structure() {
        let h = example7();
        assert_eq!(h.len(), 3);
        assert!(h.leq_terms("author", "article"));
        assert!(h.leq_terms("title", "article"));
        assert!(!h.leq_terms("article", "author"));
        assert!(!h.leq_terms("author", "title"));
        // reflexivity
        assert!(h.leq_terms("author", "author"));
    }

    #[test]
    fn add_term_is_idempotent() {
        let mut h = Hierarchy::new();
        let a = h.add_term("x");
        let b = h.add_term("x");
        assert_eq!(a, b);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn duplicate_term_across_nodes_rejected() {
        let mut h = Hierarchy::new();
        h.add_term("x");
        let e = h.add_node(vec!["x".into(), "y".into()]).unwrap_err();
        assert_eq!(e, OntologyError::DuplicateTerm("x".into()));
        assert_eq!(e.to_string(), "term `x` already belongs to a node");
    }

    #[test]
    fn cycles_are_rejected() {
        let mut h = Hierarchy::new();
        h.add_leq("a", "b").unwrap();
        h.add_leq("b", "c").unwrap();
        let e = h.add_leq("c", "a").unwrap_err();
        assert!(matches!(e, OntologyError::CycleDetected { .. }));
        // self edge
        let a = h.node_of("a").unwrap();
        assert!(h.add_edge(a, a).is_err());
    }

    #[test]
    fn cones() {
        // diamond: d ≤ b ≤ a, d ≤ c ≤ a
        let h = from_pairs(&[("b", "a"), ("c", "a"), ("d", "b"), ("d", "c")]).unwrap();
        let a = h.node_of("a").unwrap();
        let d = h.node_of("d").unwrap();
        assert_eq!(h.below(a).len(), 4);
        assert_eq!(h.above(d).len(), 4);
        assert_eq!(h.below(d).len(), 1);
        let below_a = h.below_terms("a");
        assert_eq!(below_a, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn below_terms_of_missing_term_is_empty() {
        let h = example7();
        assert!(h.below_terms("nope").is_empty());
    }

    #[test]
    fn reduce_restores_hasse_property() {
        let mut h = from_pairs(&[("a", "b"), ("b", "c"), ("a", "c")]).unwrap();
        assert_eq!(h.edges().len(), 3);
        let removed = h.reduce();
        assert_eq!(removed, 1);
        assert!(h.leq_terms("a", "c")); // reachability preserved
        assert_eq!(h.edges().len(), 2);
    }

    #[test]
    fn multi_term_nodes() {
        let mut h = Hierarchy::new();
        let fused = h
            .add_node(vec!["booktitle".into(), "conference".into()])
            .unwrap();
        let art = h.add_term("article");
        h.add_edge(fused, art).unwrap();
        assert_eq!(h.node_of("booktitle"), Some(fused));
        assert_eq!(h.node_of("conference"), Some(fused));
        assert!(h.leq_terms("booktitle", "article"));
        assert!(h.leq_terms("conference", "article"));
        assert_eq!(h.terms_of(fused).unwrap().len(), 2);
    }

    #[test]
    fn order_preservation_check() {
        let h = example7();
        let mut bigger = example7();
        bigger.add_leq("article", "document").unwrap();
        // identity-by-term mapping
        let ok = h.order_preserved_into(&bigger, |id| {
            let t = &h.terms_of(id).unwrap()[0];
            bigger.node_of(t)
        });
        assert!(ok);
        // map everything to one node in a flat hierarchy: orders collapse, still preserved reflexively
        let mut flat = Hierarchy::new();
        let only = flat.add_term("x");
        assert!(h.order_preserved_into(&flat, |_| Some(only)));
        // dropping a node breaks preservation
        assert!(!h.order_preserved_into(&bigger, |id| {
            let t = &h.terms_of(id).unwrap()[0];
            if t == "article" {
                None
            } else {
                bigger.node_of(t)
            }
        }));
    }

    #[test]
    fn reach_index_invalidated_on_mutation() {
        // each step builds the index, mutates, then asks again: `leq`,
        // `below` and `above` must answer for the new graph
        let mut h = from_pairs(&[("b", "a")]).unwrap();
        let (b, a) = (HNodeId(0), HNodeId(1));
        let c = h.add_term("c");

        // add_edge: c ≤ b puts c under both b and a
        let built = h.reach_index();
        assert!(!h.leq(c, a));
        h.add_edge(c, b).unwrap();
        assert!(!Arc::ptr_eq(&built, &h.reach_index()));
        assert!(h.leq(c, b) && h.leq(c, a));
        assert_eq!(h.below(a), vec![b, a, c]);
        assert_eq!(h.above(c), vec![b, a, c]);

        // add_node: the new node's cones hold only itself
        let built = h.reach_index();
        let d = h.add_node(vec!["d".into()]).unwrap();
        assert!(!Arc::ptr_eq(&built, &h.reach_index()));
        assert!(!h.leq(d, a) && !h.leq(c, d));
        assert_eq!(h.below(d), vec![d]);
        assert_eq!(h.above(d), vec![d]);
        assert_eq!(h.below(a), vec![b, a, c]);

        // reduce: drops the shortcut c ≤ a and keeps the order
        h.add_edge(c, a).unwrap();
        let built = h.reach_index();
        assert_eq!(h.reduce(), 1);
        assert!(!Arc::ptr_eq(&built, &h.reach_index()));
        assert_eq!(h.parents(c), vec![b]);
        assert!(h.leq(c, a) && !h.leq(a, c));
        assert_eq!(h.below(a), vec![b, a, c]);
        assert_eq!(h.above(c), vec![b, a, c]);
    }

    #[test]
    fn leq_without_index_matches_leq_with_index() {
        let h = from_pairs(&[("b", "a"), ("c", "a"), ("d", "b"), ("d", "c")]).unwrap();
        let cold: Vec<bool> = h
            .nodes()
            .flat_map(|a| h.nodes().map(move |b| (a, b)))
            .map(|(a, b)| h.leq(a, b))
            .collect();
        h.reach_index(); // build, then re-ask
        let warm: Vec<bool> = h
            .nodes()
            .flat_map(|a| h.nodes().map(move |b| (a, b)))
            .map(|(a, b)| h.leq(a, b))
            .collect();
        assert_eq!(cold, warm);
    }

    #[test]
    fn parents_are_direct_covers_only() {
        let mut h = from_pairs(&[("a", "b"), ("b", "c"), ("a", "c")]).unwrap();
        h.reduce();
        let a = h.node_of("a").unwrap();
        let b = h.node_of("b").unwrap();
        assert_eq!(h.parents(a), vec![b]);
    }
}
