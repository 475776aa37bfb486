//! Witness views.
//!
//! Each embedding induces a witness tree (Section 2.1.1): the images of
//! the pattern nodes, connected so that `m → n` is an edge whenever `m` is
//! the closest included ancestor of `n` in the source tree, with sibling
//! order following the source preorder. Selection additionally pulls in
//! the full descendant cones of designated nodes.
//!
//! A witness is kept as a [`toss_tree::View`] of its source document —
//! the included nodes in source preorder, each at its depth among them —
//! in one [`Views`] buffer per operator call. Selection and projection
//! both come through [`walk`]; a view becomes an owned tree only when
//! [`Views::materialise`] copies it, from its node list alone.

use crate::error::TossResult;
use crate::tax::pattern::PatternNodeId;
use toss_tree::{NodeId, Tree, Views};

/// Append the witness view of the embedding with `images` (indexed by
/// pattern node) in `tree` to `out`, including the descendant cones of
/// the images of the pattern nodes in `expand` (the `SL` of selection).
/// The walk starts at the pattern root's image, an ancestor of every
/// other image, so the view has one root. `stack` is scratch space,
/// reused across calls.
pub(crate) fn push_witness<'t>(
    tree: &'t Tree,
    images: &[NodeId],
    expand: &[PatternNodeId],
    out: &mut Views<'t>,
    stack: &mut Vec<(NodeId, u32)>,
) -> TossResult<()> {
    let Some(&root) = images.first() else {
        return Ok(());
    };
    walk(
        tree,
        root,
        |n| images.contains(&n),
        |n| expand.iter().any(|p| images[p.0] == n),
        out,
        stack,
    )
}

/// One preorder walk of the subtree at `start` appending to `out` every
/// node that is `included` or lies below an included node that
/// `opens_cone`, each at its number of appended ancestors: a node with
/// none starts a new view (projected nodes can be disconnected).
/// Siblings keep source preorder because the walk does.
pub(crate) fn walk<'t>(
    tree: &'t Tree,
    start: NodeId,
    included: impl Fn(NodeId) -> bool,
    opens_cone: impl Fn(NodeId) -> bool,
    out: &mut Views<'t>,
    stack: &mut Vec<(NodeId, u32)>,
) -> TossResult<()> {
    stack.clear();
    stack.push((start, 0));
    while let Some((node, depth)) = stack.pop() {
        let mut below = depth;
        if included(node) {
            if opens_cone(node) {
                out.push_subtree(tree, node, depth)?;
                continue;
            }
            out.push(tree, node, depth)?;
            below += 1;
        }
        // children last-to-first, so the leftmost pops first
        let first = stack.len();
        stack.extend(tree.children(node).map(|c| (c, below)));
        stack[first..].reverse();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tax::condition::{Cond, Term};
    use crate::tax::embedding::Matcher;
    use crate::tax::pattern::{EdgeKind, PatternTree};
    use std::collections::HashSet;
    use toss_tree::serialize::{tree_to_xml, Style};
    use toss_tree::{Forest, TreeBuilder};

    fn data_tree() -> Tree {
        TreeBuilder::new("inproceedings")
            .leaf("author", "A")
            .open("venue")
            .leaf("booktitle", "SIGMOD Conference")
            .close()
            .leaf("year", 1999i64)
            .build()
    }

    fn pattern() -> PatternTree {
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::AncestorDescendant).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("inproceedings")),
            Cond::eq(Term::tag(2), Term::str("booktitle")),
        ]))
        .unwrap();
        p
    }

    fn witness(t: &Tree, expand: &[PatternNodeId]) -> Tree {
        let es = Matcher::new(pattern()).embeddings(t);
        assert_eq!(es.len(), 1);
        let mut views = Views::new();
        push_witness(t, es[0].images(), expand, &mut views, &mut Vec::new()).unwrap();
        assert_eq!(views.len(), 1);
        views.materialise().into_iter().next().unwrap()
    }

    fn pieces(t: &Tree, included: &HashSet<NodeId>) -> Forest {
        let mut views = Views::new();
        let root = t.root().unwrap();
        let included = |n| included.contains(&n);
        walk(t, root, included, |_| false, &mut views, &mut Vec::new()).unwrap();
        views.materialise()
    }

    #[test]
    fn witness_connects_via_closest_ancestor() {
        let t = data_tree();
        // witness: inproceedings -> booktitle directly (venue not included)
        assert_eq!(
            tree_to_xml(&witness(&t, &[]), Style::Compact),
            "<inproceedings><booktitle>SIGMOD Conference</booktitle></inproceedings>"
        );
    }

    #[test]
    fn expand_pulls_in_descendants() {
        let t = data_tree();
        // expand the root pattern node: whole subtree appears
        let w = witness(&t, &[pattern().root()]);
        assert_eq!(w.node_count(), t.node_count());
        assert!(toss_tree::eq::trees_equal(&w, &t));
    }

    #[test]
    fn forest_from_disconnected_nodes() {
        let t = data_tree();
        let r = t.root().unwrap();
        let author = t.child_by_tag(r, "author").unwrap();
        let year = t.child_by_tag(r, "year").unwrap();
        let included: HashSet<NodeId> = [author, year].into_iter().collect();
        let forest = pieces(&t, &included);
        assert_eq!(forest.len(), 2);
        let tags: Vec<&str> = forest
            .iter()
            .map(|w| w.data(w.root().unwrap()).unwrap().tag.as_str())
            .collect();
        assert_eq!(tags, ["author", "year"]);
    }

    #[test]
    fn preorder_is_preserved() {
        let t = data_tree();
        let all: HashSet<NodeId> = t.preorder().collect();
        let rebuilt = pieces(&t, &all);
        assert_eq!(rebuilt.len(), 1);
        assert!(toss_tree::eq::trees_equal(&rebuilt.trees()[0], &t));
    }

    #[test]
    fn empty_included_set_gives_no_views() {
        let t = data_tree();
        assert!(pieces(&t, &HashSet::new()).is_empty());
    }
}
