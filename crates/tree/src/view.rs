//! Views: trees read in place from the documents they come from.
//!
//! A witness tree (an embedding's images, connected by closest included
//! ancestor) is a subset of its source document's nodes in source
//! preorder, each at its depth among the included nodes. A [`View`] is
//! exactly that — the source [`Tree`] plus the included nodes with their
//! depths — and [`Views`] keeps many of them, over any number of source
//! trees, in one flat buffer.
//!
//! Whatever reads nodes in preorder with their depths implements
//! [`Preordered`]: a whole [`Tree`] and a [`View`] alike. Tree identity
//! ([`crate::eq`]) and copying ([`Tree::graft_preorder`]) are written
//! once against that cursor, so a view hashes, compares and materialises
//! exactly as the tree it stands for.

use crate::arena::NodeId;
use crate::eq::TreeSet;
use crate::error::{TreeError, TreeResult};
use crate::forest::Forest;
use crate::iter::{PreorderDepths, TreeCursor};
use crate::node::NodeData;
use crate::tree::Tree;

/// Nodes read in preorder, each with its depth below the first node
/// (which is at depth 0). Tree identity and copying read only this.
pub trait Preordered<'t>: Copy {
    /// The cursor [`Preordered::cursor`] returns.
    type Cursor: Iterator<Item = (u32, &'t NodeData)>;

    /// The nodes in preorder, with their depths.
    fn cursor(self) -> Self::Cursor;
}

impl<'t> Preordered<'t> for &'t Tree {
    type Cursor = TreeCursor<'t>;

    fn cursor(self) -> TreeCursor<'t> {
        TreeCursor::new(&self.arena, self.root)
    }
}

/// One included node of a view: its id in the source tree and its depth
/// among the view's nodes.
#[derive(Debug, Clone, Copy)]
struct Step {
    node: NodeId,
    depth: u32,
}

/// One view's place in a [`Views`] buffer.
#[derive(Debug, Clone, Copy)]
struct Span<'t> {
    tree: &'t Tree,
    start: u32,
    end: u32,
}

/// A tree read in place: nodes of a source tree in source preorder,
/// each at its depth in the tree the view stands for. Borrowed from a
/// [`Views`] buffer; copying one copies two references.
#[derive(Debug, Clone, Copy)]
pub struct View<'t> {
    tree: &'t Tree,
    steps: &'t [Step],
}

impl<'t> View<'t> {
    /// The source tree the view reads.
    pub fn source(self) -> &'t Tree {
        self.tree
    }

    /// Number of nodes in the view.
    pub fn len(self) -> usize {
        self.steps.len()
    }

    /// Whether the view has no nodes (a view of an empty tree).
    pub fn is_empty(self) -> bool {
        self.steps.is_empty()
    }

    /// The view as an owned tree, built from its node list alone.
    pub fn materialise(self) -> Tree {
        let mut t = Tree::with_capacity(self.len());
        t.graft_preorder(None, self)
            .expect("a view's steps are one tree in preorder");
        t
    }
}

impl<'t> Preordered<'t> for View<'t> {
    type Cursor = ViewCursor<'t>;

    fn cursor(self) -> ViewCursor<'t> {
        ViewCursor {
            tree: self.tree,
            steps: self.steps.iter(),
        }
    }
}

/// The cursor of a [`View`]: its steps, resolved in the source arena.
#[derive(Debug, Clone)]
pub struct ViewCursor<'t> {
    tree: &'t Tree,
    steps: std::slice::Iter<'t, Step>,
}

impl<'t> Iterator for ViewCursor<'t> {
    type Item = (u32, &'t NodeData);

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.steps.next()?;
        // ids were checked against this arena when they were pushed
        Some((s.depth, &self.tree.arena.slots[s.node.index()].data))
    }
}

/// Views over any number of source trees, in one flat buffer: one
/// vector of steps and one of view bounds, however many views and
/// nodes it holds.
#[derive(Debug, Clone, Default)]
pub struct Views<'t> {
    steps: Vec<Step>,
    spans: Vec<Span<'t>>,
}

impl<'t> Views<'t> {
    /// An empty buffer.
    pub fn new() -> Self {
        Views::default()
    }

    /// Append `node` of `tree` at `depth`: depth 0 starts a new view,
    /// any other depth extends the last view, which must read the same
    /// tree, end at the buffer's end and reach at least `depth - 1`.
    pub fn push(&mut self, tree: &'t Tree, node: NodeId, depth: u32) -> TreeResult<()> {
        tree.data(node)?;
        let end = self.end();
        if depth == 0 {
            self.spans.push(Span {
                tree,
                start: end,
                end,
            });
        } else {
            let prev = self.steps.last().map(|s| s.depth);
            let open = self
                .spans
                .last_mut()
                .filter(|s| std::ptr::eq(s.tree, tree) && s.end == end && s.end > s.start);
            match (open, prev) {
                (Some(_), Some(prev)) if depth <= prev + 1 => {}
                _ => {
                    return Err(TreeError::StructureViolation(format!(
                        "node {node} at depth {depth} does not continue a view"
                    )))
                }
            }
        }
        self.steps.push(Step { node, depth });
        self.spans.last_mut().expect("a view is open").end += 1;
        Ok(())
    }

    /// Append `node` of `tree` at `depth`, as [`Views::push`] does, and
    /// its whole subtree below it.
    pub fn push_subtree(&mut self, tree: &'t Tree, node: NodeId, depth: u32) -> TreeResult<()> {
        self.push(tree, node, depth)?;
        let below = PreorderDepths::new(&tree.arena, Some(node)).skip(1);
        self.steps.extend(below.map(|(node, d)| Step {
            node,
            depth: depth + d,
        }));
        let end = self.end();
        self.spans.last_mut().expect("a view is open").end = end;
        Ok(())
    }

    /// Append a view of all of `tree` (an empty view for an empty tree).
    pub fn push_whole(&mut self, tree: &'t Tree) {
        match tree.root() {
            Some(root) => self
                .push_subtree(tree, root, 0)
                .expect("the root is a node"),
            None => {
                let end = self.end();
                self.spans.push(Span {
                    tree,
                    start: end,
                    end,
                });
            }
        }
    }

    /// The step buffer's length, which bounds every span.
    fn end(&self) -> u32 {
        u32::try_from(self.steps.len()).expect("a view buffer holds fewer than 2^32 steps")
    }

    /// Number of views.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether there are no views.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The `i`-th view, if there is one.
    pub fn get(&self, i: usize) -> Option<View<'_>> {
        self.spans.get(i).map(|s| self.view(s))
    }

    /// The views, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = View<'_>> + '_ {
        self.spans.iter().map(|s| self.view(s))
    }

    fn view(&self, s: &Span<'t>) -> View<'_> {
        View {
            tree: s.tree,
            steps: &self.steps[s.start as usize..s.end as usize],
        }
    }

    /// Keep the first `n` views.
    pub fn truncate(&mut self, n: usize) {
        self.spans.truncate(n);
    }

    /// Remove views identical to an earlier one (tree identity,
    /// [`crate::eq`]), keeping first occurrences in order. One keyed
    /// hash per view; no view is copied.
    pub fn dedup(&mut self) {
        let keep: Vec<bool> = {
            let mut seen = TreeSet::with_capacity(self.len());
            self.iter().map(|v| seen.insert(v)).collect()
        };
        let mut keep = keep.into_iter();
        self.spans.retain(|_| keep.next() == Some(true));
    }

    /// Every view as an owned tree, in order.
    pub fn materialise(&self) -> Forest {
        self.iter().map(View::materialise).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;
    use crate::eq::fingerprint;

    fn doc() -> Tree {
        // r -> (a -> (b), c)
        TreeBuilder::new("r")
            .open("a")
            .leaf("b", "1")
            .close()
            .leaf("c", "2")
            .build()
    }

    #[test]
    fn whole_view_materialises_to_an_equal_tree() {
        let (t, empty) = (doc(), Tree::new());
        let mut views = Views::new();
        views.push_whole(&t);
        views.push_whole(&empty);
        assert_eq!(views.len(), 2);
        let f = views.materialise();
        assert_eq!(fingerprint(&f.trees()[0]), fingerprint(&t));
        assert!(f.trees()[1].is_empty());
    }

    #[test]
    fn pushed_steps_connect_by_depth() {
        let t = doc();
        let ids: Vec<NodeId> = t.preorder().collect();
        let mut views = Views::new();
        // r with b directly below it, then c: a is left out
        views.push(&t, ids[0], 0).unwrap();
        views.push(&t, ids[2], 1).unwrap();
        views.push(&t, ids[3], 1).unwrap();
        // a second view: b alone
        views.push(&t, ids[2], 0).unwrap();
        let f = views.materialise();
        assert_eq!(fingerprint(&f.trees()[0]), "(r|(b|1)(c|2))");
        assert_eq!(fingerprint(&f.trees()[1]), "(b|1)");
    }

    #[test]
    fn malformed_pushes_are_refused() {
        let t = doc();
        let other = doc();
        let r = t.root().unwrap();
        let mut views = Views::new();
        assert!(views.push(&t, r, 1).is_err(), "no view is open");
        views.push(&t, r, 0).unwrap();
        assert!(views.push(&t, r, 2).is_err(), "depth jumps by two");
        assert!(views.push(&other, r, 1).is_err(), "another tree");
        assert!(views.push(&t, NodeId::from_index(99), 1).is_err());
        assert_eq!(views.iter().map(View::len).collect::<Vec<_>>(), [1]);
    }

    #[test]
    fn dedup_keeps_first_occurrences() {
        let (a, b) = (doc(), doc());
        let c = TreeBuilder::new("r").build();
        let mut views = Views::new();
        for t in [&a, &c, &b, &a, &c] {
            views.push_whole(t);
        }
        views.dedup();
        assert_eq!(views.len(), 2);
        assert!(std::ptr::eq(views.get(0).unwrap().source(), &a));
        assert!(std::ptr::eq(views.get(1).unwrap().source(), &c));
        views.truncate(1);
        assert_eq!(views.materialise().len(), 1);
    }
}
