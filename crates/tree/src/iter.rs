//! Allocation-free traversal iterators over the arena representation.

use crate::arena::{Arena, NodeId};
use crate::node::NodeData;

/// Iterator over the children of a node, in document order.
pub struct Children<'a> {
    arena: &'a Arena,
    next: Option<NodeId>,
}

impl<'a> Children<'a> {
    pub(crate) fn new(arena: &'a Arena, parent: NodeId) -> Self {
        let next = arena.slot(parent).ok().and_then(|s| s.first_child);
        Children { arena, next }
    }
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.arena.slot(cur).ok().and_then(|s| s.next_sibling);
        Some(cur)
    }
}

/// Preorder iterator over `start` and its subtree. It follows the
/// arena's child, sibling and parent links, so it holds no stack.
pub struct Preorder<'a> {
    arena: &'a Arena,
    /// The subtree's root: the walk back up stops here.
    start: Option<NodeId>,
    next: Option<NodeId>,
}

impl<'a> Preorder<'a> {
    pub(crate) fn new(arena: &'a Arena, start: Option<NodeId>) -> Self {
        Preorder {
            arena,
            start,
            next: start,
        }
    }

    /// The node after `cur` in preorder: its first child, else the next
    /// sibling of the nearest node on the way up to `start`.
    fn after(&self, cur: NodeId) -> Option<NodeId> {
        let mut slot = self.arena.slot(cur).ok()?;
        if slot.first_child.is_some() {
            return slot.first_child;
        }
        let mut at = cur;
        while Some(at) != self.start {
            if slot.next_sibling.is_some() {
                return slot.next_sibling;
            }
            at = slot.parent?;
            slot = self.arena.slot(at).ok()?;
        }
        None
    }
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.after(cur);
        Some(cur)
    }
}

/// Preorder over `start` and its subtree, each node with its depth
/// below `start` (0 at `start`). Like [`Preorder`], it follows the
/// arena's links and holds no stack.
pub(crate) struct PreorderDepths<'a> {
    arena: &'a Arena,
    start: Option<NodeId>,
    next: Option<(NodeId, u32)>,
}

impl<'a> PreorderDepths<'a> {
    pub(crate) fn new(arena: &'a Arena, start: Option<NodeId>) -> Self {
        PreorderDepths {
            arena,
            start,
            next: start.map(|s| (s, 0)),
        }
    }

    /// [`Preorder::after`], counting the levels it climbs.
    fn after(&self, cur: NodeId, depth: u32) -> Option<(NodeId, u32)> {
        let mut slot = self.arena.slot(cur).ok()?;
        if let Some(c) = slot.first_child {
            return Some((c, depth + 1));
        }
        let (mut at, mut depth) = (cur, depth);
        while Some(at) != self.start {
            if let Some(s) = slot.next_sibling {
                return Some((s, depth));
            }
            at = slot.parent?;
            depth = depth.checked_sub(1)?;
            slot = self.arena.slot(at).ok()?;
        }
        None
    }
}

impl Iterator for PreorderDepths<'_> {
    type Item = (NodeId, u32);

    fn next(&mut self) -> Option<(NodeId, u32)> {
        let cur = self.next?;
        self.next = self.after(cur.0, cur.1);
        Some(cur)
    }
}

/// A tree's [`crate::Preordered`] cursor: its nodes' payloads in
/// preorder, with their depths below the root.
pub struct TreeCursor<'a> {
    arena: &'a Arena,
    walk: PreorderDepths<'a>,
}

impl<'a> TreeCursor<'a> {
    pub(crate) fn new(arena: &'a Arena, start: Option<NodeId>) -> Self {
        TreeCursor {
            arena,
            walk: PreorderDepths::new(arena, start),
        }
    }
}

impl<'a> Iterator for TreeCursor<'a> {
    type Item = (u32, &'a NodeData);

    fn next(&mut self) -> Option<Self::Item> {
        let (node, depth) = self.walk.next()?;
        Some((depth, &self.arena.slot(node).ok()?.data))
    }
}

/// Preorder minus the starting node itself.
pub struct Descendants<'a> {
    inner: Preorder<'a>,
}

impl<'a> Descendants<'a> {
    pub(crate) fn new(arena: &'a Arena, start: NodeId) -> Self {
        let mut inner = Preorder::new(arena, Some(start));
        inner.next(); // skip `start`
        Descendants { inner }
    }
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        self.inner.next()
    }
}

/// Strict ancestors of a node, nearest first.
pub(crate) struct Ancestors<'a> {
    arena: &'a Arena,
    cur: Option<NodeId>,
}

impl<'a> Ancestors<'a> {
    pub(crate) fn new(arena: &'a Arena, start: NodeId) -> Self {
        let cur = arena.slot(start).ok().and_then(|s| s.parent);
        Ancestors { arena, cur }
    }
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.cur?;
        self.cur = self.arena.slot(cur).ok().and_then(|s| s.parent);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use crate::node::NodeData;
    use crate::tree::Tree;

    #[test]
    fn empty_iterators() {
        let t = Tree::new();
        assert_eq!(t.preorder().count(), 0);
    }

    #[test]
    fn wide_tree_preorder() {
        let mut t = Tree::with_root(NodeData::element("r"));
        let r = t.root().unwrap();
        let mut expected = vec![r];
        for i in 0..10 {
            let c = t.add_child(r, NodeData::element(format!("c{i}"))).unwrap();
            expected.push(c);
        }
        let got: Vec<_> = t.preorder().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn deep_tree_preorder_and_ancestors() {
        let mut t = Tree::with_root(NodeData::element("d0"));
        let mut cur = t.root().unwrap();
        let mut chain = vec![cur];
        for i in 1..100 {
            cur = t.add_child(cur, NodeData::element(format!("d{i}"))).unwrap();
            chain.push(cur);
        }
        let got: Vec<_> = t.preorder().collect();
        assert_eq!(got, chain);
        let anc: Vec<_> = t.ancestors(cur).collect();
        let mut rev = chain.clone();
        rev.pop();
        rev.reverse();
        assert_eq!(anc, rev);
    }

    #[test]
    fn mixed_shape_preorder_matches_document_order() {
        // r -> (a -> (b, c), d -> (e))
        let mut t = Tree::with_root(NodeData::element("r"));
        let r = t.root().unwrap();
        let a = t.add_child(r, NodeData::element("a")).unwrap();
        let b = t.add_child(a, NodeData::element("b")).unwrap();
        let c = t.add_child(a, NodeData::element("c")).unwrap();
        let d = t.add_child(r, NodeData::element("d")).unwrap();
        let e = t.add_child(d, NodeData::element("e")).unwrap();
        let got: Vec<_> = t.preorder().collect();
        assert_eq!(got, vec![r, a, b, c, d, e]);
        // a subtree's walk ends at its root, not at the root's sibling
        let below_a: Vec<_> = t.descendants(a).collect();
        assert_eq!(below_a, vec![b, c]);
        let below_c: Vec<_> = t.descendants(c).collect();
        assert!(below_c.is_empty());
        let ch: Vec<_> = t.children(r).collect();
        assert_eq!(ch, vec![a, d]);
    }
}
