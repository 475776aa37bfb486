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
//! [`trees_equal`] and [`TreeSet::hash_of`] apply that rule without
//! building a string: `trees_equal(a, b)` holds exactly when
//! `fingerprint(a) == fingerprint(b)`, and equal fingerprints always hash
//! equally. [`TreeSet`] puts the two together so deduplication and the
//! set operators cost one keyed hash per tree, not one string.

use crate::arena::NodeId;
use crate::tree::Tree;
use crate::value::{displays_as, Value};
use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
use std::io::{self, Write as _};

/// Whether two trees are identical: [`fingerprint`]`(a) ==
/// fingerprint(b)`, decided without rendering either.
pub fn trees_equal(a: &Tree, b: &Tree) -> bool {
    match (a.root(), b.root()) {
        (None, None) => true,
        (Some(ra), Some(rb)) => subtree_eq(a, ra, b, rb),
        _ => false,
    }
}

/// Identity of the subtrees rooted at `na` / `nb`. Reachable ids always
/// resolve (arena nodes are never removed).
fn subtree_eq(ta: &Tree, na: NodeId, tb: &Tree, nb: NodeId) -> bool {
    let (Ok(da), Ok(db)) = (ta.data(na), tb.data(nb)) else {
        return false;
    };
    if da.tag != db.tag
        || !content_eq(da.content.as_ref(), db.content.as_ref())
        || da.attrs != db.attrs
    {
        return false;
    }
    let (mut ca, mut cb) = (ta.children(na), tb.children(nb));
    loop {
        match (ca.next(), cb.next()) {
            (None, None) => return true,
            (Some(x), Some(y)) if subtree_eq(ta, x, tb, y) => {}
            _ => return false,
        }
    }
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

/// Feed the subtree at `n` to `h`, field for field as [`fingerprint`]
/// renders it: each string goes in as one `str`, content as its
/// rendering, so equal fingerprints feed equal bytes.
fn hash_subtree<H: Hasher>(t: &Tree, n: NodeId, h: &mut H) {
    let Ok(d) = t.data(n) else { return };
    d.tag.as_str().hash(h);
    with_rendered(d.content.as_ref(), |s| s.hash(h));
    d.attrs.len().hash(h);
    for (k, v) in &d.attrs {
        k.as_str().hash(h);
        v.as_str().hash(h);
    }
    for c in t.children(n) {
        h.write_u8(b'(');
        hash_subtree(t, c, h);
    }
    h.write_u8(b')');
}

/// A set of borrowed trees under tree identity: one keyed hash per tree,
/// [`trees_equal`] on a hash match. Each set draws fresh keys (a
/// [`RandomState`]), so stored content cannot be chosen to collide.
#[derive(Debug, Default)]
pub struct TreeSet<'a> {
    keys: RandomState,
    trees: HashSet<Hashed<'a>, BuildHasherDefault<PassThrough>>,
}

impl<'a> TreeSet<'a> {
    /// An empty set with room for `n` trees.
    pub fn with_capacity(n: usize) -> Self {
        TreeSet {
            keys: RandomState::new(),
            trees: HashSet::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// The keyed hash of `t`'s identity under this set's keys: trees
    /// with equal fingerprints hash equally.
    pub fn hash_of(&self, t: &Tree) -> u64 {
        let mut h = self.keys.build_hasher();
        if let Some(r) = t.root() {
            hash_subtree(t, r, &mut h);
        }
        h.finish()
    }

    /// Add `t`; false when an identical tree is already present.
    pub fn insert(&mut self, t: &'a Tree) -> bool {
        let hash = self.hash_of(t);
        self.insert_hashed(hash, t)
    }

    /// [`TreeSet::insert`] with `hash` = `self.hash_of(t)`, computed by
    /// the caller (on other threads, say).
    pub fn insert_hashed(&mut self, hash: u64, t: &'a Tree) -> bool {
        self.trees.insert(Hashed { hash, tree: t })
    }

    /// Whether an identical tree is present.
    pub fn contains(&self, t: &Tree) -> bool {
        let probe = Hashed {
            hash: self.hash_of(t),
            tree: t,
        };
        self.trees.contains(&probe)
    }
}

impl<'a> FromIterator<&'a Tree> for TreeSet<'a> {
    fn from_iter<I: IntoIterator<Item = &'a Tree>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut set = TreeSet::with_capacity(iter.size_hint().0);
        for t in iter {
            set.insert(t);
        }
        set
    }
}

/// A tree with its precomputed identity hash.
#[derive(Debug)]
struct Hashed<'a> {
    hash: u64,
    tree: &'a Tree,
}

impl PartialEq for Hashed<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && trees_equal(self.tree, other.tree)
    }
}

impl Eq for Hashed<'_> {}

impl Hash for Hashed<'_> {
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
        let hash = set.hash_of(&c);
        assert!(set.insert_hashed(hash, &c));
    }
}
