//! Pattern trees (Definition 2).
//!
//! A pattern tree is an object-labelled, edge-labelled tree: each node
//! carries a distinct integer label (written `$1`, `$2`, … in queries),
//! each edge is `pc` (parent-child) or `ad` (ancestor-descendant), and a
//! selection condition `F` applies to the whole pattern.

use crate::error::{TossError, TossResult};
use crate::tax::condition::Cond;

/// Index of a node within a [`PatternTree`] (0 is always the root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternNodeId(pub(crate) usize);

/// Edge kind between a pattern node and its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `pc` — the image must be a child of the parent's image.
    ParentChild,
    /// `ad` — the image must be a strict descendant of the parent's image.
    AncestorDescendant,
}

#[derive(Debug, Clone)]
struct PNode {
    label: u32,
    parent: Option<PatternNodeId>,
    edge: Option<EdgeKind>,
    children: Vec<PatternNodeId>,
}

/// A pattern tree `P = (T, F)`.
#[derive(Debug, Clone)]
pub struct PatternTree {
    nodes: Vec<PNode>,
    condition: Cond,
}

impl PatternTree {
    /// A pattern with a single root node labelled `label` and condition
    /// `True` (refine with [`PatternTree::set_condition`]).
    pub fn new(label: u32) -> Self {
        PatternTree {
            nodes: vec![PNode {
                label,
                parent: None,
                edge: None,
                children: Vec::new(),
            }],
            condition: Cond::True,
        }
    }

    /// The root node (always present).
    pub fn root(&self) -> PatternNodeId {
        PatternNodeId(0)
    }

    /// Add a child pattern node under `parent` with the given edge kind
    /// and distinct label.
    pub fn add_child(
        &mut self,
        parent: PatternNodeId,
        label: u32,
        edge: EdgeKind,
    ) -> TossResult<PatternNodeId> {
        if self.nodes.iter().any(|n| n.label == label) {
            return Err(TossError::DuplicateLabel(label));
        }
        if parent.0 >= self.nodes.len() {
            return Err(TossError::InvalidPatternNode(parent.0));
        }
        let id = PatternNodeId(self.nodes.len());
        self.nodes.push(PNode {
            label,
            parent: Some(parent),
            edge: Some(edge),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        Ok(id)
    }

    /// Attach the selection condition `F`. Errors if the condition
    /// references labels not present in the pattern.
    pub fn set_condition(&mut self, cond: Cond) -> TossResult<()> {
        for l in cond.labels() {
            if self.node_by_label(l).is_none() {
                return Err(TossError::UnknownLabel(l));
            }
        }
        self.condition = cond;
        Ok(())
    }

    /// The attached condition.
    pub(crate) fn condition(&self) -> &Cond {
        &self.condition
    }

    /// Move the attached condition out, leaving `True`.
    pub(crate) fn take_condition(&mut self) -> Cond {
        std::mem::replace(&mut self.condition, Cond::True)
    }

    /// Number of pattern nodes.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Node ids in pattern preorder (parents before children — the order
    /// they were added groups under parents, and index order suffices
    /// because children always follow their parent).
    pub(crate) fn preorder(&self) -> impl Iterator<Item = PatternNodeId> {
        (0..self.nodes.len()).map(PatternNodeId)
    }

    /// Integer label of a pattern node.
    pub(crate) fn label(&self, id: PatternNodeId) -> u32 {
        self.nodes[id.0].label
    }

    /// Pattern node carrying a label.
    pub(crate) fn node_by_label(&self, label: u32) -> Option<PatternNodeId> {
        self.nodes
            .iter()
            .position(|n| n.label == label)
            .map(PatternNodeId)
    }

    /// Parent and edge kind of a pattern node (None at the root).
    pub(crate) fn parent_edge(&self, id: PatternNodeId) -> Option<(PatternNodeId, EdgeKind)> {
        let n = &self.nodes[id.0];
        Some((n.parent?, n.edge.expect("non-root has an edge")))
    }

    /// Children of a pattern node.
    pub(crate) fn children(&self, id: PatternNodeId) -> &[PatternNodeId] {
        &self.nodes[id.0].children
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tax::condition::{Cond, Term};

    #[test]
    fn build_figure3_shape() {
        // Figure 3: $1 (inproceedings) with pc children $2 (title), $3 (year)
        let mut p = PatternTree::new(1);
        let r = p.root();
        let t = p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        let y = p.add_child(r, 3, EdgeKind::ParentChild).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.label(r), 1);
        assert_eq!(p.parent_edge(t), Some((r, EdgeKind::ParentChild)));
        assert_eq!(p.parent_edge(y), Some((r, EdgeKind::ParentChild)));
        assert_eq!(p.parent_edge(r), None);
        assert_eq!(p.children(r), &[t, y]);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut p = PatternTree::new(1);
        let r = p.root();
        assert!(matches!(
            p.add_child(r, 1, EdgeKind::ParentChild),
            Err(TossError::DuplicateLabel(1))
        ));
    }

    #[test]
    fn condition_labels_validated() {
        let mut p = PatternTree::new(1);
        let bad = Cond::eq(Term::tag(9), Term::str("x"));
        assert!(matches!(
            p.set_condition(bad),
            Err(TossError::UnknownLabel(9))
        ));
        let good = Cond::eq(Term::tag(1), Term::str("inproceedings"));
        p.set_condition(good).unwrap();
    }

    #[test]
    fn node_by_label_lookup() {
        let mut p = PatternTree::new(7);
        let r = p.root();
        let c = p.add_child(r, 9, EdgeKind::AncestorDescendant).unwrap();
        assert_eq!(p.node_by_label(7), Some(r));
        assert_eq!(p.node_by_label(9), Some(c));
        assert_eq!(p.node_by_label(1), None);
        let labels: Vec<u32> = p.preorder().map(|n| p.label(n)).collect();
        assert_eq!(labels, vec![7, 9]);
    }

    #[test]
    fn preorder_parents_first() {
        let mut p = PatternTree::new(1);
        let r = p.root();
        let a = p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        let _b = p.add_child(a, 3, EdgeKind::ParentChild).unwrap();
        let order: Vec<_> = p.preorder().collect();
        for (i, id) in order.iter().enumerate() {
            if let Some((parent, _)) = p.parent_edge(*id) {
                assert!(order[..i].contains(&parent));
            }
        }
    }

}
