//! Rooted ordered trees over an [`Arena`].

use crate::arena::{Arena, NodeId};
use crate::error::{TreeError, TreeResult};
use crate::iter::{Ancestors, Children, Descendants, Preorder, TreeCursor};
use crate::node::NodeData;
use crate::view::Preordered;

/// One rooted, ordered, labelled tree — a member of a semistructured
/// instance per Definition 1.
#[derive(Debug, Clone)]
pub struct Tree {
    pub(crate) arena: Arena,
    pub(crate) root: Option<NodeId>,
}

impl Tree {
    /// An empty tree (no root yet).
    pub fn new() -> Self {
        Tree {
            arena: Arena::new(),
            root: None,
        }
    }

    /// An empty tree with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        Tree {
            arena: Arena::with_capacity(n),
            root: None,
        }
    }

    /// A tree whose root carries `data`.
    pub fn with_root(data: NodeData) -> Self {
        let mut arena = Arena::new();
        let root = arena.alloc(data);
        Tree {
            arena,
            root: Some(root),
        }
    }

    /// The root node id.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Set the root of an empty tree.
    pub fn set_root(&mut self, data: NodeData) -> TreeResult<NodeId> {
        if self.root.is_some() {
            return Err(TreeError::StructureViolation("tree already has a root".into()));
        }
        let id = self.arena.alloc(data);
        self.root = Some(id);
        Ok(id)
    }

    /// Allocate a node carrying `data` and append it as the last child of
    /// `parent`.
    pub fn add_child(&mut self, parent: NodeId, data: NodeData) -> TreeResult<NodeId> {
        let id = self.arena.alloc(data);
        self.arena.append_child(parent, id)?;
        Ok(id)
    }

    /// Payload of a node.
    pub fn data(&self, id: NodeId) -> TreeResult<&NodeData> {
        Ok(&self.arena.slot(id)?.data)
    }

    /// Mutable payload of a node.
    pub fn data_mut(&mut self, id: NodeId) -> TreeResult<&mut NodeData> {
        Ok(&mut self.arena.slot_mut(id)?.data)
    }

    /// Parent of a node (None at the root).
    pub fn parent(&self, id: NodeId) -> TreeResult<Option<NodeId>> {
        Ok(self.arena.slot(id)?.parent)
    }

    /// Children of a node, in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children::new(&self.arena, id)
    }

    /// Strict descendants of a node in preorder (excludes `id` itself).
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants::new(&self.arena, id)
    }

    /// All nodes of the tree in preorder.
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder::new(&self.arena, self.root)
    }

    /// Strict ancestors of a node, nearest first.
    pub(crate) fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors::new(&self.arena, id)
    }

    /// Whether `anc` is a *strict* ancestor of `desc`.
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        self.ancestors(desc).any(|a| a == anc)
    }

    /// Number of nodes reachable from the root.
    pub fn node_count(&self) -> usize {
        self.preorder().count()
    }

    /// Whether the tree has no root.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// First child with the given tag.
    pub fn child_by_tag(&self, id: NodeId, tag: &str) -> Option<NodeId> {
        self.children(id)
            .find(|&c| self.data(c).map(|d| d.tag == tag).unwrap_or(false))
    }

    /// Deep-copy the subtree rooted at `src` of `other` into this tree,
    /// appending it under `parent` (or making it the root of an empty
    /// tree when `parent` is `None`). Returns the id of the copied root.
    pub fn graft(
        &mut self,
        parent: Option<NodeId>,
        other: &Tree,
        src: NodeId,
    ) -> TreeResult<NodeId> {
        other.data(src)?;
        let copied = self.graft_nodes(parent, TreeCursor::new(&other.arena, Some(src)))?;
        Ok(copied.expect("the subtree has its root"))
    }

    /// Copy the tree `src` reads in preorder — a whole tree or a
    /// [`crate::View`] — under `parent` (or as the root of an empty tree
    /// when `parent` is `None`). Returns the id of the copy's root, or
    /// `None` when `src` has no nodes. This is the one place a tree is
    /// built from another: [`Tree::graft`] and view materialisation
    /// both land here.
    pub fn graft_preorder<'t>(
        &mut self,
        parent: Option<NodeId>,
        src: impl Preordered<'t>,
    ) -> TreeResult<Option<NodeId>> {
        self.graft_nodes(parent, src.cursor())
    }

    /// Each node's parent is found by climbing from the previous copy
    /// as many levels as the depth fell, so the copy needs no stack.
    fn graft_nodes<'t>(
        &mut self,
        parent: Option<NodeId>,
        nodes: impl Iterator<Item = (u32, &'t NodeData)>,
    ) -> TreeResult<Option<NodeId>> {
        let mut first = None;
        let mut last: Option<(NodeId, u32)> = None;
        for (depth, data) in nodes {
            let under = match last {
                None if depth == 0 => parent,
                Some((prev, prev_depth)) if depth > 0 && depth <= prev_depth + 1 => {
                    let mut at = prev;
                    for _ in depth..=prev_depth {
                        at = self.parent(at)?.expect("a copied node below the first");
                    }
                    Some(at)
                }
                _ => {
                    return Err(TreeError::StructureViolation(format!(
                        "depth {depth} does not continue one tree in preorder"
                    )))
                }
            };
            let id = match under {
                Some(p) => self.add_child(p, data.clone())?,
                None => self.set_root(data.clone())?,
            };
            first.get_or_insert(id);
            last = Some((id, depth));
        }
        Ok(first)
    }

    /// Extract the subtree rooted at `id` as a standalone tree.
    pub fn extract(&self, id: NodeId) -> TreeResult<Tree> {
        let mut t = Tree::new();
        t.graft(None, self, id)?;
        Ok(t)
    }
}

impl Default for Tree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Tree, NodeId, NodeId, NodeId, NodeId) {
        // article -> (author, title -> sub)
        let mut t = Tree::with_root(NodeData::element("article"));
        let r = t.root().unwrap();
        let a = t.add_child(r, NodeData::with_content("author", "J. Ullman")).unwrap();
        let ti = t.add_child(r, NodeData::element("title")).unwrap();
        let sub = t.add_child(ti, NodeData::with_content("sub", "x")).unwrap();
        (t, r, a, ti, sub)
    }

    #[test]
    fn preorder_visits_document_order() {
        let (t, r, a, ti, sub) = sample();
        let order: Vec<NodeId> = t.preorder().collect();
        assert_eq!(order, vec![r, a, ti, sub]);
    }

    #[test]
    fn descendants_excludes_self() {
        let (t, r, a, ti, sub) = sample();
        let d: Vec<NodeId> = t.descendants(r).collect();
        assert_eq!(d, vec![a, ti, sub]);
        assert_eq!(t.descendants(sub).count(), 0);
    }

    #[test]
    fn ancestors_nearest_first() {
        let (t, r, _a, ti, sub) = sample();
        let anc: Vec<NodeId> = t.ancestors(sub).collect();
        assert_eq!(anc, vec![ti, r]);
    }

    #[test]
    fn ancestry_predicates() {
        let (t, r, a, ti, sub) = sample();
        assert!(t.is_ancestor(r, sub));
        assert!(!t.is_ancestor(sub, r));
        assert!(!t.is_ancestor(a, ti));
        assert!(!t.is_ancestor(ti, ti));
    }

    #[test]
    fn node_count_counts_every_node() {
        let (t, ..) = sample();
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn set_root_twice_fails() {
        let mut t = Tree::with_root(NodeData::element("a"));
        assert!(t.set_root(NodeData::element("b")).is_err());
    }

    #[test]
    fn graft_deep_copies() {
        let (src, _r, _a, ti, _sub) = sample();
        let mut dst = Tree::with_root(NodeData::element("holder"));
        let hr = dst.root().unwrap();
        let copied = dst.graft(Some(hr), &src, ti).unwrap();
        assert_eq!(dst.data(copied).unwrap().tag, "title");
        assert_eq!(dst.node_count(), 3); // holder, title, sub
        // mutation of the copy does not affect the source
        dst.data_mut(copied).unwrap().tag = "renamed".into();
        assert_eq!(src.data(ti).unwrap().tag, "title");
    }

    #[test]
    fn extract_produces_standalone_tree() {
        let (src, _r, _a, ti, _sub) = sample();
        let ex = src.extract(ti).unwrap();
        assert_eq!(ex.node_count(), 2);
        assert_eq!(ex.data(ex.root().unwrap()).unwrap().tag, "title");
    }

    #[test]
    fn child_by_tag() {
        let (t, r, a, ti, _sub) = sample();
        assert_eq!(t.child_by_tag(r, "author"), Some(a));
        assert_eq!(t.child_by_tag(r, "title"), Some(ti));
        assert_eq!(t.child_by_tag(r, "nope"), None);
    }
}
