//! Arena storage for ordered trees.
//!
//! All nodes of a [`crate::Tree`] live in one contiguous `Vec`; structure is
//! encoded with first-child / next-sibling / parent indices, which keeps the
//! representation compact and preorder traversal allocation-free. Node ids
//! are indices into the arena and are stable for the life of the tree
//! (nodes are only ever appended).

use crate::error::{TreeError, TreeResult};
use crate::node::NodeData;
use std::fmt;

/// Identifier of a node inside one tree's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a raw index. Only meaningful for ids obtained from
    /// the same tree; intended for serialization layers.
    pub fn from_index(i: usize) -> Self {
        NodeId(i as u32)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One slot in the arena.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    pub data: NodeData,
    pub parent: Option<NodeId>,
    pub first_child: Option<NodeId>,
    pub last_child: Option<NodeId>,
    pub next_sibling: Option<NodeId>,
}

/// The arena: a flat vector of slots.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    pub(crate) slots: Vec<Slot>,
}

impl Arena {
    /// An empty arena.
    pub(crate) fn new() -> Self {
        Arena { slots: Vec::new() }
    }

    /// An empty arena with room for `n` nodes.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(n),
        }
    }

    /// Allocate a new unattached node.
    pub(crate) fn alloc(&mut self, data: NodeData) -> NodeId {
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Slot {
            data,
            parent: None,
            first_child: None,
            last_child: None,
            next_sibling: None,
        });
        id
    }

    pub(crate) fn slot(&self, id: NodeId) -> TreeResult<&Slot> {
        self.slots
            .get(id.index())
            .ok_or(TreeError::InvalidNodeId(id.index()))
    }

    pub(crate) fn slot_mut(&mut self, id: NodeId) -> TreeResult<&mut Slot> {
        self.slots
            .get_mut(id.index())
            .ok_or(TreeError::InvalidNodeId(id.index()))
    }

    /// Append `child` as the last child of `parent`.
    ///
    /// Errors if either id is invalid, `child` already has a parent, or the
    /// append would create a cycle (i.e. `child` is an ancestor of
    /// `parent`).
    pub(crate) fn append_child(&mut self, parent: NodeId, child: NodeId) -> TreeResult<()> {
        if parent == child {
            return Err(TreeError::StructureViolation(
                "cannot append a node to itself".into(),
            ));
        }
        if self.slot(child)?.parent.is_some() {
            return Err(TreeError::StructureViolation(format!(
                "node {child} already has a parent"
            )));
        }
        // cycle check: walk up from parent
        let mut cur = Some(parent);
        while let Some(c) = cur {
            if c == child {
                return Err(TreeError::StructureViolation(format!(
                    "appending {child} under {parent} would create a cycle"
                )));
            }
            cur = self.slot(c)?.parent;
        }
        let old_last = self.slot(parent)?.last_child;
        {
            let cs = self.slot_mut(child)?;
            cs.parent = Some(parent);
            cs.next_sibling = None;
        }
        if let Some(last) = old_last {
            self.slot_mut(last)?.next_sibling = Some(child);
        } else {
            self.slot_mut(parent)?.first_child = Some(child);
        }
        self.slot_mut(parent)?.last_child = Some(child);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(tag: &str) -> NodeData {
        NodeData::element(tag)
    }

    #[test]
    fn alloc_and_append() {
        let mut a = Arena::new();
        let root = a.alloc(data("root"));
        let c1 = a.alloc(data("c1"));
        let c2 = a.alloc(data("c2"));
        a.append_child(root, c1).unwrap();
        a.append_child(root, c2).unwrap();
        assert_eq!(a.slot(root).unwrap().first_child, Some(c1));
        assert_eq!(a.slot(root).unwrap().last_child, Some(c2));
        assert_eq!(a.slot(c1).unwrap().next_sibling, Some(c2));
        assert_eq!(a.slot(c2).unwrap().parent, Some(root));
    }

    #[test]
    fn append_rejects_second_parent() {
        let mut a = Arena::new();
        let r1 = a.alloc(data("r1"));
        let r2 = a.alloc(data("r2"));
        let c = a.alloc(data("c"));
        a.append_child(r1, c).unwrap();
        assert!(matches!(
            a.append_child(r2, c),
            Err(TreeError::StructureViolation(_))
        ));
    }

    #[test]
    fn append_rejects_cycles() {
        let mut a = Arena::new();
        let r = a.alloc(data("r"));
        let c = a.alloc(data("c"));
        a.append_child(r, c).unwrap();
        assert!(matches!(
            a.append_child(c, r),
            Err(TreeError::StructureViolation(_))
        ));
        assert!(matches!(
            a.append_child(r, r),
            Err(TreeError::StructureViolation(_))
        ));
    }

    #[test]
    fn invalid_ids_error() {
        let a = Arena::new();
        assert!(matches!(
            a.slot(NodeId(5)),
            Err(TreeError::InvalidNodeId(5))
        ));
    }
}
