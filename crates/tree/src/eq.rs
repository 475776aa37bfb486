//! Ordered-isomorphism equality between trees.
//!
//! TAX's set-theoretic operators (union, intersection, difference) need a
//! notion of when two *data trees* are identical: the paper requires an
//! isomorphism between node sets that preserves edges and sibling order and
//! makes every value-based atom true at `u` iff it is true at `ι(u)` —
//! which for ground data reduces to equal tags, contents and attributes at
//! corresponding positions.

use crate::arena::NodeId;
use crate::node::NodeData;
use crate::tree::Tree;

/// Whether two node payloads are equal for the purposes of tree equality.
fn data_eq(a: &NodeData, b: &NodeData) -> bool {
    a.tag == b.tag && a.content == b.content && a.attrs == b.attrs
}

/// Ordered-isomorphism test between the subtrees rooted at `na` / `nb`.
fn subtree_eq(ta: &Tree, na: NodeId, tb: &Tree, nb: NodeId) -> bool {
    let (Ok(da), Ok(db)) = (ta.data(na), tb.data(nb)) else {
        return false;
    };
    if !data_eq(da, db) {
        return false;
    }
    let ca: Vec<NodeId> = ta.children(na).collect();
    let cb: Vec<NodeId> = tb.children(nb).collect();
    if ca.len() != cb.len() {
        return false;
    }
    ca.iter().zip(cb.iter()).all(|(&x, &y)| subtree_eq(ta, x, tb, y))
}

/// Whether two trees are equal under ordered isomorphism.
pub fn trees_equal(a: &Tree, b: &Tree) -> bool {
    match (a.root(), b.root()) {
        (None, None) => true,
        (Some(ra), Some(rb)) => subtree_eq(a, ra, b, rb),
        _ => false,
    }
}

/// A canonical fingerprint of a tree such that
/// `fingerprint(a) == fingerprint(b)` iff [`trees_equal`]`(a, b)`.
///
/// Used to hash trees into sets for the set-theoretic operators without
/// quadratic pairwise comparison.
pub fn fingerprint(t: &Tree) -> String {
    fn go(t: &Tree, n: NodeId, out: &mut String) {
        let Ok(d) = t.data(n) else { return };
        out.push('(');
        // Escape the delimiter characters so distinct payloads can never
        // collide structurally.
        push_escaped(out, &d.tag);
        out.push('|');
        if let Some(c) = &d.content {
            push_escaped(out, &c.render());
        }
        for (k, v) in &d.attrs {
            out.push('@');
            push_escaped(out, k);
            out.push('=');
            push_escaped(out, v);
        }
        for c in t.children(n) {
            go(t, c, out);
        }
        out.push(')');
    }
    fn push_escaped(out: &mut String, s: &str) {
        for ch in s.chars() {
            if matches!(ch, '(' | ')' | '|' | '@' | '=' | '\\') {
                out.push('\\');
            }
            out.push(ch);
        }
    }
    let mut out = String::new();
    if let Some(r) = t.root() {
        go(t, r, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    fn paper(author: &str, title: &str) -> Tree {
        TreeBuilder::new("inproceedings")
            .leaf("author", author)
            .leaf("title", title)
            .build()
    }

    #[test]
    fn identical_trees_are_equal() {
        let a = paper("X", "T");
        let b = paper("X", "T");
        assert!(trees_equal(&a, &b));
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn content_difference_breaks_equality() {
        let a = paper("X", "T");
        let b = paper("X", "U");
        assert!(!trees_equal(&a, &b));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn sibling_order_matters() {
        let a = TreeBuilder::new("r").leaf("a", "1").leaf("b", "2").build();
        let b = TreeBuilder::new("r").leaf("b", "2").leaf("a", "1").build();
        assert!(!trees_equal(&a, &b));
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn shape_difference_breaks_equality() {
        let a = TreeBuilder::new("r").open("a").leaf("b", "1").close().build();
        let b = TreeBuilder::new("r").leaf("a", "").leaf("b", "1").build();
        assert!(!trees_equal(&a, &b));
    }

    #[test]
    fn attrs_participate_in_equality() {
        let a = TreeBuilder::new("r").attr("k", "1").build();
        let b = TreeBuilder::new("r").attr("k", "2").build();
        let c = TreeBuilder::new("r").attr("k", "1").build();
        assert!(!trees_equal(&a, &b));
        assert!(trees_equal(&a, &c));
    }

    #[test]
    fn empty_trees_are_equal() {
        assert!(trees_equal(&Tree::new(), &Tree::new()));
        assert!(!trees_equal(&Tree::new(), &paper("X", "T")));
    }

    #[test]
    fn fingerprint_escapes_delimiters() {
        // A tag containing ')' must not collide with structure.
        let a = TreeBuilder::new("r)").build();
        let b = TreeBuilder::new("r").build();
        assert_ne!(fingerprint(&a), fingerprint(&b));
        let c = TreeBuilder::new("x").leaf("a|b", "").build();
        let d = TreeBuilder::new("x").leaf("a", "b").build();
        assert_ne!(fingerprint(&c), fingerprint(&d));
    }
}
