//! Ergonomic tree construction.
//!
//! [`TreeBuilder`] maintains a cursor so trees can be written in the order
//! they appear in an XML document:
//!
//! ```
//! use toss_tree::TreeBuilder;
//!
//! let tree = TreeBuilder::new("inproceedings")
//!     .leaf("author", "Jeffrey D. Ullman")
//!     .leaf("title", "A Survey of Deductive Database Systems")
//!     .open("venue")
//!     .leaf("booktitle", "SIGMOD Conference")
//!     .close()
//!     .leaf("year", "1999")
//!     .build();
//! assert_eq!(tree.node_count(), 6);
//! ```

use crate::arena::NodeId;
use crate::node::NodeData;
use crate::tree::Tree;
use crate::value::Value;

/// Cursor-based builder for [`Tree`].
#[derive(Debug)]
pub struct TreeBuilder {
    tree: Tree,
    /// Stack of open elements; the top is the current insertion point.
    stack: Vec<NodeId>,
}

impl TreeBuilder {
    /// Start a tree whose root element has tag `root_tag`.
    pub fn new(root_tag: impl Into<String>) -> Self {
        let tree = Tree::with_root(NodeData::element(root_tag));
        let root = tree.root().expect("with_root always sets a root");
        TreeBuilder {
            tree,
            stack: vec![root],
        }
    }

    fn cursor(&self) -> NodeId {
        *self.stack.last().expect("builder stack is never empty")
    }

    /// Open a child element and descend into it.
    pub fn open(mut self, tag: impl Into<String>) -> Self {
        let id = self
            .tree
            .add_child(self.cursor(), NodeData::element(tag))
            .expect("cursor is always valid");
        self.stack.push(id);
        self
    }

    /// Close the current element, moving the cursor to its parent.
    ///
    /// Closing the root is a no-op (the cursor stays at the root), so a
    /// builder chain can never underflow.
    pub fn close(mut self) -> Self {
        if self.stack.len() > 1 {
            self.stack.pop();
        }
        self
    }

    /// Append a leaf element with text content under the cursor.
    pub fn leaf(mut self, tag: impl Into<String>, content: impl Into<Value>) -> Self {
        self.tree
            .add_child(self.cursor(), NodeData::with_content(tag, content))
            .expect("cursor is always valid");
        self
    }

    /// Append an empty leaf element under the cursor.
    pub fn empty(mut self, tag: impl Into<String>) -> Self {
        self.tree
            .add_child(self.cursor(), NodeData::element(tag))
            .expect("cursor is always valid");
        self
    }

    /// Set text content on the currently open element.
    pub fn content(mut self, content: impl Into<Value>) -> Self {
        let cur = self.cursor();
        self.tree
            .data_mut(cur)
            .expect("cursor is always valid")
            .content = Some(content.into());
        self
    }

    /// Set an XML attribute on the currently open element.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        let cur = self.cursor();
        self.tree
            .data_mut(cur)
            .expect("cursor is always valid")
            .attrs
            .push((name.into(), value.into()));
        self
    }

    /// Finish, closing any still-open elements.
    pub fn build(self) -> Tree {
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_build_shapes() {
        let t = TreeBuilder::new("r")
            .open("a")
            .leaf("b", "1")
            .close()
            .leaf("c", "2")
            .build();
        let r = t.root().unwrap();
        let kids: Vec<String> = t
            .children(r)
            .map(|c| t.data(c).unwrap().tag.clone())
            .collect();
        assert_eq!(kids, vec!["a", "c"]);
        let a = t.child_by_tag(r, "a").unwrap();
        assert!(t.child_by_tag(a, "b").is_some());
    }

    #[test]
    fn close_at_root_is_noop() {
        let t = TreeBuilder::new("r").close().close().leaf("x", "1").build();
        let r = t.root().unwrap();
        assert!(t.child_by_tag(r, "x").is_some());
    }

    #[test]
    fn unclosed_elements_are_fine() {
        let t = TreeBuilder::new("r").open("a").open("b").build();
        assert_eq!(t.node_count(), 3);
    }

    #[test]
    fn content_and_attrs_on_open_element() {
        let t = TreeBuilder::new("article")
            .attr("key", "x/1")
            .open("title")
            .content("TOSS")
            .close()
            .build();
        let r = t.root().unwrap();
        assert_eq!(t.data(r).unwrap().attr_value("key"), Some("x/1"));
        let title = t.child_by_tag(r, "title").unwrap();
        assert_eq!(t.data(title).unwrap().content_str(), "TOSS");
    }

    #[test]
    fn doc_example_counts() {
        let tree = TreeBuilder::new("inproceedings")
            .leaf("author", "Jeffrey D. Ullman")
            .leaf("title", "A Survey of Deductive Database Systems")
            .open("venue")
            .leaf("booktitle", "SIGMOD Conference")
            .close()
            .leaf("year", "1999")
            .build();
        assert_eq!(tree.node_count(), 6 + 1 - 1); // root + 4 leaves + venue
    }
}
