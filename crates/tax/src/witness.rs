//! Witness-tree construction.
//!
//! Each embedding induces a witness tree (Section 2.1.1): the images of
//! the pattern nodes, connected so that `m → n` is an edge whenever `m` is
//! the closest included ancestor of `n` in the source tree, with sibling
//! order following the source preorder. Selection additionally pulls in
//! the full descendant cones of designated nodes.

use crate::embedding::Embedding;
use crate::error::TaxResult;
use crate::pattern::PatternNodeId;
use std::collections::HashSet;
use toss_tree::{NodeId, Tree};

/// Build the witness tree for `embedding`, including the descendant cones
/// of the images of the pattern nodes in `expand` (the `SL` of selection).
pub(crate) fn witness_tree(
    tree: &Tree,
    embedding: &Embedding,
    expand: &[PatternNodeId],
) -> TaxResult<Tree> {
    // witness trees have a single root: the pattern root's image is an
    // ancestor of every other image
    let forest = build_forest(
        tree,
        |n| embedding.images().contains(&n),
        |n| expand.iter().any(|&p| embedding.image(p) == n),
    )?;
    Ok(forest.into_iter().next().unwrap_or_default())
}

/// Build a forest from an arbitrary included-node set, connecting each
/// node to its closest included ancestor and keeping source preorder;
/// every resulting root is its own tree, because projected nodes can be
/// disconnected. Ids that are not nodes of `tree` are ignored.
pub(crate) fn build_forest_from_nodes(
    tree: &Tree,
    included: &HashSet<NodeId>,
) -> TaxResult<Vec<Tree>> {
    build_forest(tree, |n| included.contains(&n), |_| false)
}

/// One preorder walk of `tree` that copies every node which is `included`
/// or lies below an included node that `opens_cone`, attaching each copy
/// under the copy of its closest copied ancestor (a new output tree when
/// there is none). Siblings keep source preorder because the walk does.
fn build_forest(
    tree: &Tree,
    included: impl Fn(NodeId) -> bool,
    opens_cone: impl Fn(NodeId) -> bool,
) -> TaxResult<Vec<Tree>> {
    /// A source node still to visit, with the copy of its closest copied
    /// ancestor (output tree index, node) and whether it lies in an open
    /// cone.
    struct Visit {
        node: NodeId,
        attach: Option<(usize, NodeId)>,
        in_cone: bool,
    }
    let mut out: Vec<Tree> = Vec::new();
    let mut stack: Vec<Visit> = Vec::new();
    stack.extend(tree.root().map(|node| Visit {
        node,
        attach: None,
        in_cone: false,
    }));
    while let Some(Visit {
        node,
        mut attach,
        mut in_cone,
    }) = stack.pop()
    {
        if in_cone || included(node) {
            let data = tree.data(node)?.clone();
            attach = Some(match attach {
                Some((ti, parent)) => (ti, out[ti].add_child(parent, data)?),
                None => {
                    let t = Tree::with_root(data);
                    let root = t.root().expect("with_root sets root");
                    out.push(t);
                    (out.len() - 1, root)
                }
            });
            in_cone = in_cone || opens_cone(node);
        }
        // children last-to-first, so the leftmost pops first
        let first = stack.len();
        stack.extend(tree.children(node).map(|node| Visit {
            node,
            attach,
            in_cone,
        }));
        stack[first..].reverse();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Cond, Term};
    use crate::embedding::embeddings;
    use crate::pattern::{EdgeKind, PatternTree};
    use toss_tree::serialize::{tree_to_xml, Style};
    use toss_tree::TreeBuilder;

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

    #[test]
    fn witness_connects_via_closest_ancestor() {
        let t = data_tree();
        let p = pattern();
        let es = embeddings(&p, &t);
        assert_eq!(es.len(), 1);
        let w = witness_tree(&t, &es[0], &[]).unwrap();
        // witness: inproceedings -> booktitle directly (venue not included)
        assert_eq!(
            tree_to_xml(&w, Style::Compact),
            "<inproceedings><booktitle>SIGMOD Conference</booktitle></inproceedings>"
        );
    }

    #[test]
    fn expand_pulls_in_descendants() {
        let t = data_tree();
        let p = pattern();
        let es = embeddings(&p, &t);
        // expand the root pattern node: whole subtree appears
        let w = witness_tree(&t, &es[0], &[p.root()]).unwrap();
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
        let forest = build_forest_from_nodes(&t, &included).unwrap();
        assert_eq!(forest.len(), 2);
        assert_eq!(forest[0].data(forest[0].root().unwrap()).unwrap().tag, "author");
        assert_eq!(forest[1].data(forest[1].root().unwrap()).unwrap().tag, "year");
    }

    #[test]
    fn preorder_is_preserved() {
        let t = data_tree();
        let all: HashSet<NodeId> = t.preorder().collect();
        let rebuilt = build_forest_from_nodes(&t, &all).unwrap();
        assert_eq!(rebuilt.len(), 1);
        assert!(toss_tree::eq::trees_equal(&rebuilt[0], &t));
    }

    #[test]
    fn empty_included_set_gives_empty_forest() {
        let t = data_tree();
        let w = build_forest_from_nodes(&t, &HashSet::new()).unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn stale_node_ids_are_ignored() {
        let t = data_tree();
        let other = TreeBuilder::new("x").build();
        // ids from `other` may exceed t's arena; they are filtered out
        let mut included: HashSet<NodeId> = HashSet::new();
        included.insert(other.root().unwrap());
        included.insert(t.root().unwrap());
        let w = build_forest_from_nodes(&t, &included).unwrap();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].node_count(), 1);
    }
}
