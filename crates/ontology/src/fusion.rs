//! Canonical fusion of hierarchies under interoperation constraints
//! (Definitions 5–6, following the merge approach of the paper's
//! references [3, 2]).
//!
//! The construction:
//!
//! 1. Build the **hierarchy graph** (Definition 6): one vertex per
//!    `term:source` pair, edges from every source hierarchy's Hasse
//!    edges plus one edge per `≤` interoperation constraint.
//! 2. Collapse strongly connected components — vertices forced mutually
//!    `≤` by constraints become one fused node whose term set is the
//!    union of the member terms (this is where `booktitle` and
//!    `conference` merge).
//! 3. Reject if any `≠` constraint's endpoints fell into one component.
//! 4. Transitively reduce the quotient DAG, producing the canonical
//!    fused hierarchy, and record the witness maps ψᵢ (Definition 5).

use crate::constraints::Constraint;
use crate::error::{OntologyError, OntologyResult};
use crate::graph::DiGraph;
use crate::hierarchy::{HNodeId, Hierarchy};
use std::collections::HashMap;

/// The result of fusing hierarchies: the canonical fused hierarchy plus
/// the witness maps from each source hierarchy's nodes to fused nodes.
#[derive(Debug, Clone)]
pub struct Fusion {
    /// The canonical fused hierarchy.
    pub hierarchy: Hierarchy,
    /// `witness[i][source_node] = fused_node` — the ψᵢ of Definition 5.
    pub witness: Vec<HashMap<HNodeId, HNodeId>>,
}

impl Fusion {
    /// Fused node holding a source node's image.
    pub fn image(&self, source: usize, node: HNodeId) -> Option<HNodeId> {
        self.witness.get(source)?.get(&node).copied()
    }
}

/// Fuse hierarchies under interoperation constraints into the canonical
/// fusion.
///
/// Errors:
/// * [`OntologyError::BadSourceIndex`] — a constraint references a
///   hierarchy index out of range.
/// * [`OntologyError::UnknownTerm`] — a constraint references a term not
///   present in its hierarchy.
/// * [`OntologyError::InequalityViolated`] — a `≠` constraint's endpoints
///   were forced into the same fused node.
pub fn fuse(hierarchies: &[Hierarchy], constraints: &[Constraint]) -> OntologyResult<Fusion> {
    let obs_span = toss_obs::span("ontology.fusion");
    obs_span.record("sources", hierarchies.len());
    obs_span.record("constraints", constraints.len());

    // ---- vertex space: (source, node) pairs ----------------------------
    let mut offsets = Vec::with_capacity(hierarchies.len());
    let mut total = 0usize;
    for h in hierarchies {
        offsets.push(total);
        total += h.len();
    }
    let vid = |source: usize, node: HNodeId| offsets[source] + node.0;

    // resolve a constraint endpoint to a vertex
    let resolve = |tr: &crate::constraints::TermRef| -> OntologyResult<usize> {
        let h = hierarchies
            .get(tr.source)
            .ok_or(OntologyError::BadSourceIndex {
                index: tr.source,
                count: hierarchies.len(),
            })?;
        let node = h
            .node_of(&tr.term)
            .ok_or_else(|| OntologyError::UnknownTerm(tr.to_string()))?;
        Ok(vid(tr.source, node))
    };

    // ---- hierarchy graph (Definition 6) --------------------------------
    let mut g = DiGraph::new(total);
    for (i, h) in hierarchies.iter().enumerate() {
        for (b, a) in h.edges() {
            g.add_edge(vid(i, b), vid(i, a));
        }
    }
    // Identical term strings across sources are implicitly equal: the
    // fused hierarchy resolves terms by string, so `year:0` and `year:1`
    // must land in one node. A `≠` constraint between same-string terms is
    // therefore unsatisfiable and reported as `InequalityViolated` below.
    {
        let mut by_term: HashMap<&str, usize> = HashMap::new();
        for (i, h) in hierarchies.iter().enumerate() {
            for node in h.nodes() {
                for t in h.terms_of(node).expect("node id from h.nodes()") {
                    let v = vid(i, node);
                    match by_term.get(t.as_str()) {
                        Some(&first) => {
                            g.add_edge(first, v);
                            g.add_edge(v, first);
                        }
                        None => {
                            by_term.insert(t.as_str(), v);
                        }
                    }
                }
            }
        }
    }
    let mut neq_pairs: Vec<(usize, usize, String, String)> = Vec::new();
    for c in constraints {
        match c {
            Constraint::Leq(x, y) => {
                let (u, v) = (resolve(x)?, resolve(y)?);
                g.add_edge(u, v);
            }
            Constraint::Neq(x, y) => {
                let (u, v) = (resolve(x)?, resolve(y)?);
                neq_pairs.push((u, v, x.to_string(), y.to_string()));
            }
        }
    }

    // ---- collapse SCCs --------------------------------------------------
    let comp = g.tarjan_scc();
    let comp_count = comp.iter().copied().max().map_or(0, |m| m + 1);

    for (u, v, l, r) in &neq_pairs {
        if comp[*u] == comp[*v] {
            return Err(OntologyError::InequalityViolated {
                left: l.clone(),
                right: r.clone(),
            });
        }
    }

    // term sets per component (deduplicated by the Hierarchy builder)
    let mut comp_terms: Vec<Vec<String>> = vec![Vec::new(); comp_count];
    for (i, h) in hierarchies.iter().enumerate() {
        for node in h.nodes() {
            let c = comp[vid(i, node)];
            for t in h.terms_of(node).expect("node id from h.nodes()") {
                if !comp_terms[c].contains(t) {
                    comp_terms[c].push(t.clone());
                }
            }
        }
    }

    // quotient DAG
    let mut q = DiGraph::new(comp_count);
    for (u, v) in g.edges() {
        if comp[u] != comp[v] {
            q.add_edge(comp[u], comp[v]);
        }
    }
    let q = q.transitive_reduction();

    // ---- materialize the fused hierarchy -------------------------------
    let mut fused = Hierarchy::new();
    let mut comp_to_fused: Vec<HNodeId> = Vec::with_capacity(comp_count);
    for terms in comp_terms {
        comp_to_fused.push(fused.add_node(terms)?);
    }
    for (u, v) in q.edges() {
        fused.add_edge(comp_to_fused[u], comp_to_fused[v])?;
    }

    let witness = hierarchies
        .iter()
        .enumerate()
        .map(|(i, h)| {
            h.nodes()
                .map(|n| (n, comp_to_fused[comp[vid(i, n)]]))
                .collect()
        })
        .collect();

    if obs_span.is_recording() {
        // merged clusters = fused nodes holding more than one source vertex
        let mut members = vec![0usize; comp_count];
        for c in comp.iter().copied() {
            members[c] += 1;
        }
        obs_span.record("nodes_in", total);
        obs_span.record("nodes_out", fused.len());
        obs_span.record(
            "merged_clusters",
            members.iter().filter(|&&m| m > 1).count(),
        );
    }

    Ok(Fusion {
        hierarchy: fused,
        witness,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::TermRef;
    use crate::hierarchy::from_pairs;

    /// Simplified SIGMOD part-of hierarchy (paper Figure 9a).
    fn sigmod() -> Hierarchy {
        from_pairs(&[
            ("article", "articles"),
            ("author", "article"),
            ("title", "article"),
            ("conference", "article"),
            ("year", "article"),
            ("confYear", "article"),
        ])
        .unwrap()
    }

    /// Simplified DBLP part-of hierarchy (paper Figure 9b).
    fn dblp() -> Hierarchy {
        from_pairs(&[
            ("author", "inproceedings"),
            ("title", "inproceedings"),
            ("booktitle", "inproceedings"),
            ("year", "inproceedings"),
            ("pages", "inproceedings"),
        ])
        .unwrap()
    }

    /// The Example 10 constraints: conference:0 = booktitle:1,
    /// title:0 = title:1, author:0 = author:1, year:0 = year:1,
    /// confYear:0 = year:1.
    fn example10_constraints() -> Vec<Constraint> {
        let mut cs = Vec::new();
        cs.extend(Constraint::eq("conference", 0, "booktitle", 1));
        cs.extend(Constraint::eq("title", 0, "title", 1));
        cs.extend(Constraint::eq("author", 0, "author", 1));
        cs.extend(Constraint::eq("year", 0, "year", 1));
        cs.extend(Constraint::eq("confYear", 0, "year", 1));
        cs
    }

    /// `x:i ≠ y:j`.
    fn neq(x: &str, i: usize, y: &str, j: usize) -> Constraint {
        Constraint::Neq(TermRef::new(x, i), TermRef::new(y, j))
    }

    #[test]
    fn example10_fusion_merges_equal_terms() {
        let f = fuse(&[sigmod(), dblp()], &example10_constraints()).unwrap();
        let h = &f.hierarchy;
        // booktitle and conference share one fused node
        let bc = h.node_of("booktitle").unwrap();
        assert_eq!(h.node_of("conference"), Some(bc));
        let ts = h.terms_of(bc).unwrap();
        assert!(ts.contains(&"booktitle".to_string()));
        assert!(ts.contains(&"conference".to_string()));
        // year, confYear and year:1 all merged (confYear = year:1 = year:0)
        let y = h.node_of("year").unwrap();
        assert_eq!(h.node_of("confYear"), Some(y));
        // structure is preserved: author below both article and inproceedings
        assert!(h.leq_terms("author", "article"));
        assert!(h.leq_terms("author", "inproceedings"));
        assert!(h.leq_terms("booktitle", "inproceedings"));
        assert!(h.leq_terms("conference", "article"));
    }

    #[test]
    fn definition5_axiom1_order_preservation() {
        let sources = [sigmod(), dblp()];
        let f = fuse(&sources, &example10_constraints()).unwrap();
        for (i, src) in sources.iter().enumerate() {
            assert!(
                src.order_preserved_into(&f.hierarchy, |n| f.image(i, n)),
                "axiom 1 violated for source {i}"
            );
        }
    }

    #[test]
    fn definition5_axiom2_constraints_preserved() {
        let sources = [sigmod(), dblp()];
        let cs = example10_constraints();
        let f = fuse(&sources, &cs).unwrap();
        for c in &cs {
            if let Constraint::Leq(x, y) = c {
                let image = |t: &TermRef| {
                    let node = sources[t.source].node_of(&t.term).unwrap();
                    f.image(t.source, node).unwrap()
                };
                let (ix, iy) = (image(x), image(y));
                assert!(f.hierarchy.leq(ix, iy), "constraint {c} not preserved");
            }
        }
    }

    #[test]
    fn witnesses_are_total() {
        let sources = [sigmod(), dblp()];
        let f = fuse(&sources, &example10_constraints()).unwrap();
        for (i, src) in sources.iter().enumerate() {
            for n in src.nodes() {
                assert!(f.image(i, n).is_some(), "ψ{i} not total at {n}");
            }
        }
    }

    #[test]
    fn neq_violation_detected() {
        let mut cs = Constraint::eq("author", 0, "author", 1);
        cs.push(neq("author", 0, "author", 1));
        let e = fuse(&[sigmod(), dblp()], &cs).unwrap_err();
        assert!(matches!(e, OntologyError::InequalityViolated { .. }));
    }

    #[test]
    fn neq_between_distinct_terms_is_fine() {
        let mut cs = example10_constraints();
        cs.push(neq("pages", 1, "author", 0));
        assert!(fuse(&[sigmod(), dblp()], &cs).is_ok());
    }

    #[test]
    fn unknown_term_and_bad_index_errors() {
        let cs = vec![Constraint::leq("nope", 0, "author", 1)];
        assert!(matches!(
            fuse(&[sigmod(), dblp()], &cs),
            Err(OntologyError::UnknownTerm(_))
        ));
        let cs = vec![Constraint::leq("author", 5, "author", 1)];
        assert!(matches!(
            fuse(&[sigmod(), dblp()], &cs),
            Err(OntologyError::BadSourceIndex { index: 5, count: 2 })
        ));
    }

    #[test]
    fn same_string_terms_merge_implicitly() {
        let f = fuse(&[sigmod(), dblp()], &[]).unwrap();
        let h = &f.hierarchy;
        // `author` appears in both sources and lands in one fused node
        let a = h.node_of("author").unwrap();
        assert_eq!(h.terms_of(a).unwrap(), &["author".to_string()]);
        assert!(h.leq_terms("author", "article"));
        assert!(h.leq_terms("author", "inproceedings"));
        // source-specific terms stay distinct
        assert_ne!(h.node_of("booktitle"), h.node_of("conference"));
    }

    #[test]
    fn neq_between_same_string_terms_is_unsatisfiable() {
        let cs = vec![neq("author", 0, "author", 1)];
        let e = fuse(&[sigmod(), dblp()], &cs).unwrap_err();
        assert!(matches!(e, OntologyError::InequalityViolated { .. }));
    }

    #[test]
    fn leq_only_constraint_orders_without_merging() {
        let h1 = from_pairs(&[("a", "b")]).unwrap();
        let h2 = from_pairs(&[("c", "d")]).unwrap();
        let cs = vec![Constraint::leq("b", 0, "c", 1)];
        let f = fuse(&[h1, h2], &cs).unwrap();
        let h = &f.hierarchy;
        assert!(h.leq_terms("a", "d"));
        assert!(h.leq_terms("b", "c"));
        assert!(!h.leq_terms("c", "b"));
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn constraint_cycle_merges_chain() {
        // a:0 ≤ x:1 and x:1 ≤ a:0 → merge
        let h1 = from_pairs(&[("a", "b")]).unwrap();
        let h2 = from_pairs(&[("x", "y")]).unwrap();
        let mut cs = Vec::new();
        cs.extend(Constraint::eq("a", 0, "x", 1));
        let f = fuse(&[h1, h2], &cs).unwrap();
        let n = f.hierarchy.node_of("a").unwrap();
        assert_eq!(f.hierarchy.node_of("x"), Some(n));
        assert!(f.hierarchy.leq_terms("a", "y"));
        assert!(f.hierarchy.leq_terms("x", "b"));
    }

    #[test]
    fn fused_hierarchy_is_hasse_reduced() {
        // source already has a redundant edge pattern after merge:
        // h1: a≤b≤c ; h2: p≤q ; a=p, c=q forces nothing redundant, but
        // add explicit leq a≤c-like shortcut via constraints:
        let h1 = from_pairs(&[("a", "b"), ("b", "c")]).unwrap();
        let h2 = from_pairs(&[("p", "q")]).unwrap();
        let mut cs = Vec::new();
        cs.extend(Constraint::eq("a", 0, "p", 1));
        cs.extend(Constraint::eq("c", 0, "q", 1));
        let f = fuse(&[h1, h2], &cs).unwrap();
        // p≤q becomes {a,p} ≤ {c,q}: redundant given {a,p} ≤ b ≤ {c,q}
        let edges = f.hierarchy.edges();
        assert_eq!(edges.len(), 2, "edges: {edges:?}");
    }
}
