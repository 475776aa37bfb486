//! Tree identity: when two trees are the same member of an instance.
//!
//! A semistructured instance is a *set* of trees (Definition 1), and
//! TAX's set-theoretic operators (union, intersection, difference) need
//! to know when two data trees are identical: the paper requires an
//! isomorphism between node sets that preserves edges and sibling order
//! and makes every value-based atom true at `u` iff it is true at `ι(u)`
//! — which for ground data reduces to equal tags, contents and
//! attributes at corresponding positions.
//!
//! One rule decides it, and [`fingerprint`] spells it out as text: two
//! trees are identical when they have the same shape (children in
//! order) and, at each node, the same tag, the same content *as
//! rendered text* and the same attributes in order. Content compares by
//! its rendering, so absent content equals empty content, `Int(1)`
//! equals `Str("1")`, and `Real(-0.0)` (`-0`) differs from `Real(0.0)`
//! (`0`).
//!
//! [`identical`] and [`TreeSet::hash_of`] apply that rule without
//! building a string, over a [`Preordered`] cursor — the nodes in
//! preorder with their depths, which determine a tree's shape — so a
//! [`crate::View`] is compared and hashed exactly as the tree it stands
//! for. [`trees_equal`]`(a, b)` holds exactly when `fingerprint(a) ==
//! fingerprint(b)`, and equal fingerprints always hash equally.
//! [`TreeSet`] puts the two together so deduplication and the set
//! operators cost one keyed hash per tree or view, not one string.

use crate::arena::NodeId;
use crate::node::NodeData;
use crate::tree::Tree;
use crate::value::{displays_as, Value};
use crate::view::Preordered;
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::io::{self, Write as _};
use std::marker::PhantomData;

/// Whether two trees are identical: [`fingerprint`]`(a) ==
/// fingerprint(b)`, decided without rendering either.
pub fn trees_equal(a: &Tree, b: &Tree) -> bool {
    identical(a, b)
}

/// The identity rule: whether `a` and `b` read the same nodes at the
/// same depths in preorder — equal tags, contents as rendered and
/// attributes in order. Trees and views compare alike.
pub fn identical<'a, 'b>(a: impl Preordered<'a>, b: impl Preordered<'b>) -> bool {
    let (mut ca, mut cb) = (a.cursor(), b.cursor());
    loop {
        match (ca.next(), cb.next()) {
            (None, None) => return true,
            (Some((da, x)), Some((db, y))) if da == db && node_eq(x, y) => {}
            _ => return false,
        }
    }
}

/// Whether two nodes carry the same tag, content and attributes.
fn node_eq(a: &NodeData, b: &NodeData) -> bool {
    a.tag == b.tag && content_eq(a.content.as_ref(), b.content.as_ref()) && a.attrs == b.attrs
}

/// Whether two contents render to the same text.
fn content_eq(a: Option<&Value>, b: Option<&Value>) -> bool {
    if let (Some(Value::Str(x)), Some(Value::Str(y))) = (a, b) {
        return x == y;
    }
    with_rendered(a, |x| match b {
        None => x.is_empty(),
        Some(Value::Str(y)) => x == y,
        Some(n) => displays_as(n, x),
    })
}

/// Call `f` with a content's rendering (empty when absent). A number is
/// formatted into a stack buffer, which holds any `i64` or `f64`.
fn with_rendered<R>(content: Option<&Value>, f: impl FnOnce(&str) -> R) -> R {
    match content {
        None => f(""),
        Some(Value::Str(s)) => f(s),
        Some(n) => {
            let mut buf = [0u8; 512];
            let mut out = io::Cursor::new(&mut buf[..]);
            if write!(out, "{n}").is_err() {
                return f(&n.render());
            }
            let len = out.position() as usize;
            f(std::str::from_utf8(&buf[..len]).expect("`Display` writes UTF-8"))
        }
    }
}

/// Feed `src` to `h`, node for node in preorder: its depth, then each
/// field as [`fingerprint`] renders it — each string as one `str`,
/// content as its rendering — so identical inputs feed equal bytes.
fn hash_preorder<'t, H: Hasher>(src: impl Preordered<'t>, h: &mut H) {
    for (depth, d) in src.cursor() {
        h.write_u32(depth);
        d.tag.as_str().hash(h);
        with_rendered(d.content.as_ref(), |s| s.hash(h));
        d.attrs.len().hash(h);
        for (k, v) in &d.attrs {
            k.as_str().hash(h);
            v.as_str().hash(h);
        }
    }
}

/// A set of borrowed trees — or views, or anything [`Preordered`] —
/// under tree identity: one keyed hash per member, [`identical`] on a
/// hash match. Each set draws fresh keys (a [`RandomState`]), so stored
/// content cannot be chosen to collide.
#[derive(Debug)]
pub struct TreeSet<'a, T = &'a Tree> {
    keys: RandomState,
    members: HashSet<Hashed<T>, BuildHasherDefault<PassThrough>>,
    borrows: PhantomData<&'a ()>,
}

impl<T> Default for TreeSet<'_, T> {
    fn default() -> Self {
        TreeSet::with_capacity(0)
    }
}

impl<'a, T> TreeSet<'a, T> {
    /// An empty set with room for `n` members.
    pub fn with_capacity(n: usize) -> Self {
        TreeSet {
            keys: RandomState::new(),
            members: HashSet::with_capacity_and_hasher(n, Default::default()),
            borrows: PhantomData,
        }
    }
}

impl<'a, T: Preordered<'a>> TreeSet<'a, T> {
    /// The keyed hash of `t`'s identity under this set's keys: members
    /// with equal fingerprints hash equally.
    pub fn hash_of(&self, t: T) -> u64 {
        let mut h = self.keys.build_hasher();
        hash_preorder(t, &mut h);
        h.finish()
    }

    /// Add `t`; false when an identical member is already present.
    pub fn insert(&mut self, t: T) -> bool {
        let hash = self.hash_of(t);
        self.members.insert(Hashed { hash, item: t })
    }

    /// Whether an identical member is present.
    pub fn contains(&self, t: T) -> bool {
        let probe = Hashed {
            hash: self.hash_of(t),
            item: t,
        };
        self.members.contains(&probe)
    }
}

impl<'a, T: Preordered<'a>> FromIterator<T> for TreeSet<'a, T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut set = TreeSet::with_capacity(iter.size_hint().0);
        for t in iter {
            set.insert(t);
        }
        set
    }
}

/// A member with its precomputed identity hash.
#[derive(Debug)]
struct Hashed<T> {
    hash: u64,
    item: T,
}

impl<'a, T: Preordered<'a>> PartialEq for Hashed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && identical(self.item, other.item)
    }
}

impl<'a, T: Preordered<'a>> Eq for Hashed<T> {}

impl<T> Hash for Hashed<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The set's table hasher: the key is already a keyed hash, so it is
/// used as is.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("only precomputed u64 hashes are written");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A canonical text rendering of a tree's identity:
/// `fingerprint(a) == fingerprint(b)` iff [`trees_equal`]`(a, b)`.
///
/// The reference form of the identity rule; hashing and deduplication
/// use [`TreeSet`], which builds no string.
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
    use crate::node::NodeData;

    fn paper(author: &str, title: &str) -> Tree {
        TreeBuilder::new("inproceedings")
            .leaf("author", author)
            .leaf("title", title)
            .build()
    }

    /// Identity under both the structural and the hashed rule, checked
    /// against the fingerprints.
    fn same(a: &Tree, b: &Tree) -> bool {
        let eq = trees_equal(a, b);
        assert_eq!(eq, fingerprint(a) == fingerprint(b), "{a:?} vs {b:?}");
        if eq {
            let set = TreeSet::default();
            assert_eq!(set.hash_of(a), set.hash_of(b));
        }
        eq
    }

    fn leaf(content: Option<Value>) -> Tree {
        Tree::with_root(NodeData {
            content,
            ..NodeData::element("x")
        })
    }

    #[test]
    fn identical_trees_are_equal() {
        assert!(same(&paper("X", "T"), &paper("X", "T")));
    }

    #[test]
    fn content_difference_breaks_equality() {
        assert!(!same(&paper("X", "T"), &paper("X", "U")));
    }

    #[test]
    fn sibling_order_matters() {
        let a = TreeBuilder::new("r").leaf("a", "1").leaf("b", "2").build();
        let b = TreeBuilder::new("r").leaf("b", "2").leaf("a", "1").build();
        assert!(!same(&a, &b));
    }

    #[test]
    fn shape_difference_breaks_equality() {
        let a = TreeBuilder::new("r")
            .open("a")
            .leaf("b", "1")
            .close()
            .build();
        let b = TreeBuilder::new("r").leaf("a", "").leaf("b", "1").build();
        assert!(!same(&a, &b));
    }

    #[test]
    fn attrs_participate_in_equality() {
        let a = TreeBuilder::new("r").attr("k", "1").build();
        let b = TreeBuilder::new("r").attr("k", "2").build();
        let c = TreeBuilder::new("r").attr("k", "1").build();
        assert!(!same(&a, &b));
        assert!(same(&a, &c));
    }

    #[test]
    fn empty_trees_are_equal() {
        assert!(same(&Tree::new(), &Tree::new()));
        assert!(!same(&Tree::new(), &paper("X", "T")));
    }

    /// Content compares by its rendering, as the fingerprint writes it.
    #[test]
    fn content_compares_as_rendered_text() {
        let int_one = leaf(Some(Value::Int(1)));
        let str_one = leaf(Some(Value::Str("1".into())));
        assert!(same(&int_one, &str_one));
        assert!(crate::Forest::from_trees(vec![int_one]).contains_tree(&str_one));
        assert!(!same(
            &leaf(Some(Value::Real(-0.0))),
            &leaf(Some(Value::Real(0.0)))
        ));
        assert!(same(&leaf(None), &leaf(Some(Value::Str(String::new())))));
    }

    #[test]
    fn numbers_match_their_rendering() {
        let real = |r: f64| leaf(Some(Value::Real(r)));
        let text = |s: &str| leaf(Some(Value::Str(s.into())));
        assert!(same(&real(1.5), &text("1.5")));
        assert!(same(&real(1.0), &leaf(Some(Value::Int(1)))));
        // 2^60 renders by its shortest round-trip digits, not exactly
        let big = 1i64 << 60;
        assert!(!same(&real(big as f64), &leaf(Some(Value::Int(big)))));
        assert!(same(&real(f64::NAN), &real(-f64::NAN)));
        assert!(same(&real(-5e-324), &text(&(-5e-324f64).to_string())));
        assert!(!same(&leaf(Some(Value::Int(0))), &leaf(None)));
    }

    #[test]
    fn fingerprint_escapes_delimiters() {
        // A tag containing ')' must not collide with structure.
        let a = TreeBuilder::new("r)").build();
        let b = TreeBuilder::new("r").build();
        assert!(!same(&a, &b));
        let c = TreeBuilder::new("x").leaf("a|b", "").build();
        let d = TreeBuilder::new("x").leaf("a", "b").build();
        assert!(!same(&c, &d));
    }

    #[test]
    fn tree_set_keeps_one_of_each() {
        let (a, b, c) = (paper("X", "T"), paper("X", "T"), paper("Y", "T"));
        let mut set = TreeSet::with_capacity(0);
        assert!(set.insert(&a));
        assert!(!set.insert(&b));
        assert!(set.contains(&b) && !set.contains(&c));
        assert!(set.insert(&c));
    }
}
