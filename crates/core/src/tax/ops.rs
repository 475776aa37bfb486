//! The TAX operators: σ, π, × and join.

use crate::error::TossResult;
use crate::tax::embedding::Matcher;
use crate::tax::pattern::PatternNodeId;
use crate::tax::witness::{push_witness, walk};
use std::collections::HashSet;
use toss_tree::{Forest, NodeData, Tree, Views};

/// One entry of a projection list: a pattern label, optionally keeping the
/// matched node's whole subtree (TAX's `$i.*` notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectEntry {
    /// The pattern-node label whose images are kept.
    pub(crate) label: u32,
    /// Whether to also keep all descendants of each image.
    pub(crate) keep_descendants: bool,
}

impl ProjectEntry {
    /// Keep the matched nodes and their subtrees (`$label.*`).
    pub fn subtree(label: u32) -> Self {
        ProjectEntry {
            label,
            keep_descendants: true,
        }
    }
}

impl Matcher {
    /// Selection σ_{P, SL} as views: the distinct witness trees of the
    /// pattern against every tree of `input`, where the nodes bound to
    /// labels in `expand_labels` (the paper's `SL`) additionally
    /// contribute their full descendant cones. Each witness is a view of
    /// its source document, deduplicated by tree identity (set
    /// semantics under ordered isomorphism) before anything is copied.
    pub(crate) fn witnesses<'t>(
        &self,
        input: impl IntoIterator<Item = &'t Tree>,
        expand_labels: &[u32],
    ) -> TossResult<Views<'t>> {
        let expand: Vec<PatternNodeId> = expand_labels
            .iter()
            .filter_map(|&l| self.node_by_label(l))
            .collect();
        let (mut out, mut images, mut stack) = (Views::new(), Vec::new(), Vec::new());
        let mut walked = Ok(());
        for tree in input {
            self.each_embedding(tree, &mut images, &mut |images| {
                if walked.is_ok() {
                    walked = push_witness(tree, images, &expand, &mut out, &mut stack);
                }
            });
        }
        walked?;
        out.dedup();
        Ok(out)
    }

    /// Selection σ_{P, SL}: the distinct witness views, materialised.
    pub fn select<'t>(
        &self,
        input: impl IntoIterator<Item = &'t Tree>,
        expand_labels: &[u32],
    ) -> TossResult<Forest> {
        Ok(self.witnesses(input, expand_labels)?.materialise())
    }

    /// Projection π_{P, PL} as views: per input tree, keep every node
    /// that is the image of a projection-list label under *some*
    /// embedding (plus subtrees where requested), preserving
    /// hierarchical relationships; disconnected pieces become separate
    /// views. Deduplicated like [`Matcher::witnesses`].
    pub(crate) fn projections<'t>(
        &self,
        input: impl IntoIterator<Item = &'t Tree>,
        list: &[ProjectEntry],
    ) -> TossResult<Views<'t>> {
        let entries: Vec<(PatternNodeId, bool)> = list
            .iter()
            .filter_map(|e| Some((self.node_by_label(e.label)?, e.keep_descendants)))
            .collect();
        let (mut out, mut images, mut stack) = (Views::new(), Vec::new(), Vec::new());
        for tree in input {
            let Some(root) = tree.root() else { continue };
            let (mut kept, mut cones) = (HashSet::new(), HashSet::new());
            self.each_embedding(tree, &mut images, &mut |images| {
                for &(p, keep_descendants) in &entries {
                    kept.insert(images[p.0]);
                    if keep_descendants {
                        cones.insert(images[p.0]);
                    }
                }
            });
            walk(
                tree,
                root,
                |n| kept.contains(&n),
                |n| cones.contains(&n),
                &mut out,
                &mut stack,
            )?;
        }
        out.dedup();
        Ok(out)
    }

    /// Projection π_{P, PL}: the distinct projected views, materialised.
    pub fn project<'t>(
        &self,
        input: impl IntoIterator<Item = &'t Tree>,
        list: &[ProjectEntry],
    ) -> TossResult<Forest> {
        Ok(self.projections(input, list)?.materialise())
    }
}

/// Tag of the synthetic root created by [`product`].
pub const PROD_ROOT_TAG: &str = "tax_prod_root";

/// Product SDB₁ × SDB₂: for each pair of trees, a new tree whose root is
/// a fresh `tax_prod_root` node with the left tree as first child and the
/// right tree as second child. A condition join (Section 2.1.2) is this
/// followed by [`Matcher::select`].
pub fn product(left: &Forest, right: &Forest) -> TossResult<Forest> {
    let mut out = Forest::new();
    for l in left {
        for r in right {
            let mut t = Tree::with_root(NodeData::element(PROD_ROOT_TAG));
            let root = t.root().expect("with_root sets root");
            if let Some(lr) = l.root() {
                t.graft(Some(root), l, lr)?;
            }
            if let Some(rr) = r.root() {
                t.graft(Some(root), r, rr)?;
            }
            out.push(t);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tax::condition::{Cond, Term};
    use crate::tax::pattern::{EdgeKind, PatternTree};
    use toss_tree::serialize::{tree_to_xml, Style};
    use toss_tree::TreeBuilder;

    fn paper(author: &str, title: &str, year: i64, venue: &str) -> Tree {
        TreeBuilder::new("inproceedings")
            .leaf("author", author)
            .leaf("title", title)
            .leaf("year", year)
            .leaf("booktitle", venue)
            .build()
    }

    fn dblp() -> Forest {
        Forest::from_trees(vec![
            paper("Ron Fagin", "Combining Fuzzy Information", 1999, "PODS"),
            paper("Jeff Ullman", "Information Integration", 1997, "ICDT"),
            paper("Mary Fernandez", "Optimizing Queries", 1999, "SIGMOD Conference"),
        ])
    }

    /// Figure 3-style pattern: inproceedings with a year child = `year`.
    fn year_pattern(year: i64) -> PatternTree {
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("inproceedings")),
            Cond::eq(Term::tag(2), Term::str("year")),
            Cond::eq(Term::content(2), Term::int(year)),
        ]))
        .unwrap();
        p
    }

    fn select(input: &Forest, pattern: &PatternTree, expand: &[u32]) -> TossResult<Forest> {
        Matcher::new(pattern.clone()).select(input, expand)
    }

    #[test]
    fn select_returns_witnesses() {
        let out = select(&dblp(), &year_pattern(1999), &[]).unwrap();
        // both 1999 papers yield the same bare witness; set semantics
        // collapse them into one tree
        assert_eq!(out.len(), 1);
        // witness holds only the matched structure
        let xml = tree_to_xml(&out.trees()[0], Style::Compact);
        assert_eq!(
            xml,
            "<inproceedings><year>1999</year></inproceedings>"
        );
    }

    #[test]
    fn select_with_expansion_keeps_subtrees() {
        // Example 3's shape: expanding the root keeps whole papers
        let out = select(&dblp(), &year_pattern(1999), &[1]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.trees()[0].node_count(), 5);
    }

    #[test]
    fn select_no_matches_is_empty() {
        let out = select(&dblp(), &year_pattern(1901), &[]).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn project_authors_of_1999_papers() {
        // Example 5's shape: project the authors of papers from 1999
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.add_child(r, 3, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("inproceedings")),
            Cond::eq(Term::tag(2), Term::str("author")),
            Cond::eq(Term::tag(3), Term::str("year")),
            Cond::eq(Term::content(3), Term::int(1999)),
        ]))
        .unwrap();
        let out = Matcher::new(p)
            .project(&dblp(), &[ProjectEntry::subtree(2)])
            .unwrap();
        assert_eq!(out.len(), 2);
        let authors: Vec<String> = out
            .iter()
            .map(|t| t.data(t.root().unwrap()).unwrap().content_str())
            .collect();
        assert!(authors.contains(&"Ron Fagin".to_string()));
        assert!(authors.contains(&"Mary Fernandez".to_string()));
    }

    #[test]
    fn project_preserves_hierarchy_when_connected() {
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("inproceedings")),
            Cond::eq(Term::tag(2), Term::str("author")),
        ]))
        .unwrap();
        let nodes = [1, 2].map(|label| ProjectEntry {
            label,
            keep_descendants: false,
        });
        let out = Matcher::new(p).project(&dblp(), &nodes).unwrap();
        assert_eq!(out.len(), 3);
        for t in &out {
            let root = t.root().unwrap();
            assert_eq!(t.data(root).unwrap().tag, "inproceedings");
            assert_eq!(t.children(root).count(), 1);
        }
    }

    #[test]
    fn product_shape() {
        let l = Forest::from_trees(vec![paper("A", "T1", 1999, "V")]);
        let r = Forest::from_trees(vec![
            paper("B", "T2", 2000, "W"),
            paper("C", "T3", 2001, "X"),
        ]);
        let prod = product(&l, &r).unwrap();
        assert_eq!(prod.len(), 2);
        let t = &prod.trees()[0];
        let root = t.root().unwrap();
        assert_eq!(t.data(root).unwrap().tag, PROD_ROOT_TAG);
        assert_eq!(t.children(root).count(), 2);
    }

    #[test]
    fn join_on_equal_titles() {
        // Figure 6's shape: join on title equality across the two sides
        let l = Forest::from_trees(vec![
            paper("A", "Shared Title", 1999, "V"),
            paper("B", "Left Only", 1999, "V"),
        ]);
        let r = Forest::from_trees(vec![paper("C", "Shared Title", 2000, "W")]);
        let mut p = PatternTree::new(1);
        let root = p.root();
        p.add_child(root, 2, EdgeKind::AncestorDescendant).unwrap();
        p.add_child(root, 3, EdgeKind::AncestorDescendant).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str(PROD_ROOT_TAG)),
            Cond::eq(Term::tag(2), Term::str("title")),
            Cond::eq(Term::tag(3), Term::str("title")),
            Cond::eq(Term::content(2), Term::content(3)),
        ]))
        .unwrap();
        let out = select(&product(&l, &r).unwrap(), &p, &[]).unwrap();
        // matches: (Shared,Shared) both directions within one product tree?
        // Each product tree has two titles; the condition binds ($2,$3) in
        // any order, but identical content ⇒ the two bindings give the
        // same witness after dedup. "Left Only" × r gives no match beyond
        // the degenerate $2=$3 binding (same node twice) — which also
        // satisfies equality! TAX allows non-injective embeddings.
        // So expect witnesses from both product trees.
        assert!(!out.is_empty());
        // the non-degenerate join result contains both titles
        let has_cross = out.iter().any(|t| {
            let xml = tree_to_xml(t, Style::Compact);
            xml.matches("Shared Title").count() == 2
        });
        assert!(has_cross);
    }

    #[test]
    fn set_ops_via_forest() {
        let a = select(&dblp(), &year_pattern(1999), &[1]).unwrap();
        let b = select(&dblp(), &year_pattern(1997), &[1]).unwrap();
        let u = a.set_union(&b);
        assert_eq!(u.len(), 3);
        assert_eq!(a.set_intersection(&b).len(), 0);
        assert_eq!(u.set_difference(&a).len(), 1);
    }

    #[test]
    fn empty_inputs() {
        let e = Forest::new();
        assert!(select(&e, &year_pattern(1999), &[]).unwrap().is_empty());
        assert!(product(&e, &dblp()).unwrap().is_empty());
        assert!(Matcher::new(year_pattern(1999))
            .project(&e, &[ProjectEntry::subtree(1)])
            .unwrap()
            .is_empty());
    }
}
