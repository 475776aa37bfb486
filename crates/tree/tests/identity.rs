//! The hashed identity rule against the string rule: over generated
//! tree pairs, [`trees_equal`] holds exactly when the fingerprints are
//! equal, equal fingerprints hash equally, and `Views::dedup` and the
//! set operators keep exactly what a set of fingerprint strings keeps.
//! Views of random included-node sets materialise to what the
//! closest-included-ancestor construction builds, and compare and hash
//! exactly as those trees' fingerprints do.
//!
//! The pairs are built to sit near the boundary: tags and attributes
//! drawn from the fingerprint's delimiter characters `()|@=\`, contents
//! with twins that render alike (`1`/`"1"`/`1.0`, `1.5`/`"1.5"`, absent
//! and empty) or nearly alike (`-0.0`/`0.0`), and copies with reordered
//! siblings.

use proptest::prelude::*;
use std::collections::HashSet;
use toss_tree::eq::{fingerprint, identical, trees_equal, TreeSet};
use toss_tree::{Forest, NodeData, NodeId, Tree, Value, View, Views};

const TEXT: [&str; 9] = ["a", "b", "(", ")", "|", "@", "=", "\\", "a|b"];

/// Content `i`; `i` and `i ^ 1` are twins: rendered alike for
/// `i < 6`, unlike past that (`-0.0`/`0.0` among them).
fn content(i: usize) -> Option<Value> {
    Some(match i % 14 {
        0 => return None,
        1 => Value::Str(String::new()),
        2 => Value::Int(1),
        3 => Value::Str("1".into()),
        4 => Value::Real(1.5),
        5 => Value::Str("1.5".into()),
        6 => Value::Real(-0.0),
        7 => Value::Real(0.0),
        8 => Value::Str("-0".into()),
        9 => Value::Str("x|y".into()),
        10 => Value::Int(-7),
        11 => Value::Real(1.0),
        12 => Value::Str("0".into()),
        _ => Value::Str("-7".into()),
    })
}

/// One node: its parent (an earlier node, mod its index), its tag, its
/// content and its attributes.
type NodeSpec = (usize, usize, usize, Vec<(usize, usize)>);

fn spec() -> impl Strategy<Value = Vec<NodeSpec>> {
    let attrs = proptest::collection::vec((0usize..TEXT.len(), 0usize..TEXT.len()), 0..3);
    proptest::collection::vec((0usize..8, 0usize..TEXT.len(), 0usize..14, attrs), 1..6)
}

/// Build the tree `spec` describes, with the children of node
/// `reversed` (if any) in reverse order.
fn build(spec: &[NodeSpec], reversed: Option<usize>) -> Tree {
    let mut children = vec![Vec::new(); spec.len()];
    for i in 1..spec.len() {
        children[spec[i].0 % i].push(i);
    }
    if let Some(r) = reversed {
        children[r % spec.len()].reverse();
    }
    let data = |i: usize| {
        let (_, tag, c, attrs) = &spec[i];
        NodeData {
            tag: TEXT[*tag].to_string(),
            content: content(*c),
            attrs: attrs
                .iter()
                .map(|&(k, v)| (TEXT[k].to_string(), TEXT[v].to_string()))
                .collect(),
        }
    };
    let mut t = Tree::with_root(data(0));
    let mut stack = vec![(0, t.root().expect("root"))];
    while let Some((i, id)) = stack.pop() {
        for &c in &children[i] {
            let cid = t.add_child(id, data(c)).expect("valid parent");
            stack.push((c, cid));
        }
    }
    t
}

/// A pair of trees: `b` is independent of `a`, or `a` with every
/// content swapped for its twin, or with one content swapped, or with
/// one node's children reversed.
fn pair() -> impl Strategy<Value = (Tree, Tree)> {
    (spec(), spec(), 0usize..4, 0usize..64).prop_map(|(a, other, mode, pick)| {
        let twin = |s: &mut NodeSpec| s.2 ^= 1;
        let b = match mode {
            0 => build(&other, None),
            1 => {
                let mut b = a.clone();
                b.iter_mut().for_each(twin);
                build(&b, None)
            }
            2 => {
                let mut b = a.clone();
                let n = b.len();
                twin(&mut b[pick % n]);
                build(&b, None)
            }
            _ => build(&a, Some(pick)),
        };
        (build(&a, None), b)
    })
}

/// The trees a set of fingerprint strings keeps, first occurrences in
/// order, as their exact debug renderings.
fn kept_by_strings<'a>(trees: impl IntoIterator<Item = &'a Tree>) -> Vec<String> {
    let mut seen = HashSet::new();
    trees
        .into_iter()
        .filter(|&t| seen.insert(fingerprint(t)))
        .map(|t| format!("{t:?}"))
        .collect()
}

fn exact(f: &Forest) -> Vec<String> {
    f.iter().map(|t| format!("{t:?}")).collect()
}

/// The reference construction of the trees an included-node set
/// induces: one walk copying every included node under the copy of its
/// closest included ancestor (a new tree when there is none), siblings
/// in source preorder.
fn induced_forest(t: &Tree, included: &HashSet<NodeId>) -> Vec<Tree> {
    fn go(
        t: &Tree,
        n: NodeId,
        attach: Option<(usize, NodeId)>,
        inc: &HashSet<NodeId>,
        out: &mut Vec<Tree>,
    ) {
        let mut attach = attach;
        if inc.contains(&n) {
            let data = t.data(n).expect("node").clone();
            attach = Some(match attach {
                Some((ti, p)) => (ti, out[ti].add_child(p, data).expect("parent")),
                None => {
                    out.push(Tree::with_root(data));
                    (out.len() - 1, out[out.len() - 1].root().expect("root"))
                }
            });
        }
        for c in t.children(n) {
            go(t, c, attach, inc, out);
        }
    }
    let mut out = Vec::new();
    if let Some(r) = t.root() {
        go(t, r, None, included, &mut out);
    }
    out
}

/// The same set as views: each included node at its number of included
/// strict ancestors, in preorder.
fn push_induced<'t>(views: &mut Views<'t>, t: &'t Tree, included: &HashSet<NodeId>) {
    for n in t.preorder().filter(|n| included.contains(n)) {
        let depth = included.iter().filter(|&&m| t.is_ancestor(m, n)).count();
        views
            .push(t, n, depth as u32)
            .expect("well-formed preorder");
    }
}

/// A tree and a random subset of its nodes (bit `i` of `mask` keeps
/// the `i`-th node in preorder).
fn with_subset() -> impl Strategy<Value = (Tree, Vec<bool>)> {
    (spec(), 0usize..64, 0usize..64).prop_map(|(spec, mask, pick)| {
        let t = build(&spec, Some(pick));
        let keep = (0..t.node_count()).map(|i| mask & (1 << i) != 0).collect();
        (t, keep)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn comparison_and_hash_follow_the_fingerprint((a, b) in pair()) {
        let same = fingerprint(&a) == fingerprint(&b);
        prop_assert_eq!(trees_equal(&a, &b), same);
        prop_assert_eq!(trees_equal(&b, &a), same);
        prop_assert!(trees_equal(&a, &a));
        if same {
            let set = TreeSet::default();
            prop_assert_eq!(set.hash_of(&a), set.hash_of(&b));
        }
    }

    #[test]
    fn dedup_and_set_operators_keep_what_fingerprint_strings_keep(
        pairs in proptest::collection::vec(pair(), 1..6),
        split in 0usize..12,
    ) {
        let trees: Vec<Tree> = pairs.into_iter().flat_map(|(a, b)| [a, b]).collect();
        let mut views = Views::new();
        for t in &trees {
            views.push_whole(t);
        }
        views.dedup();
        let sources: Vec<String> = views.iter().map(|v| format!("{:?}", v.source())).collect();
        prop_assert_eq!(sources, kept_by_strings(&trees));
        let copies: Vec<String> = views.materialise().iter().map(fingerprint).collect();
        let kept: Vec<String> = views.iter().map(|v| fingerprint(v.source())).collect();
        prop_assert_eq!(copies, kept);

        let (left, right) = trees.split_at(split % trees.len());
        let (l, r) = (Forest::from_trees(left.to_vec()), Forest::from_trees(right.to_vec()));
        prop_assert_eq!(exact(&l.set_union(&r)), kept_by_strings(&trees));
        let theirs: HashSet<String> = right.iter().map(fingerprint).collect();
        let (common, only): (Vec<&Tree>, Vec<&Tree>) =
            left.iter().partition(|t| theirs.contains(&fingerprint(t)));
        prop_assert_eq!(exact(&l.set_intersection(&r)), kept_by_strings(common));
        prop_assert_eq!(exact(&l.set_difference(&r)), kept_by_strings(only));
    }

    #[test]
    fn views_compare_as_their_materialised_trees(
        a in with_subset(),
        b in with_subset(),
    ) {
        let subset = |(t, keep): &(Tree, Vec<bool>)| -> HashSet<NodeId> {
            t.preorder().zip(keep).filter(|(_, &k)| k).map(|(n, _)| n).collect()
        };
        let (sa, sb) = (subset(&a), subset(&b));
        let mut views = Views::new();
        push_induced(&mut views, &a.0, &sa);
        let split = views.len();
        push_induced(&mut views, &b.0, &sb);

        // materialising equals the closest-included-ancestor construction
        let reference: Vec<Tree> = induced_forest(&a.0, &sa)
            .into_iter()
            .chain(induced_forest(&b.0, &sb))
            .collect();
        let copies = views.materialise();
        prop_assert_eq!(copies.len(), reference.len());
        for (c, r) in copies.iter().zip(&reference) {
            prop_assert_eq!(format!("{c:?}"), format!("{r:?}"));
        }

        // identity: equal in a TreeSet iff the copies' fingerprints are
        let all: Vec<View> = views.iter().collect();
        for (i, &x) in all.iter().enumerate() {
            let mut set: TreeSet<View> = TreeSet::default();
            set.insert(x);
            for (j, &y) in all.iter().enumerate() {
                let same = fingerprint(&copies.trees()[i]) == fingerprint(&copies.trees()[j]);
                prop_assert_eq!(set.contains(y), same, "views {} and {} (split {})", i, j, split);
                prop_assert_eq!(identical(x, y), same);
                prop_assert_eq!(identical(x, &copies.trees()[j]), same);
                if same {
                    prop_assert_eq!(set.hash_of(x), set.hash_of(y));
                }
            }
        }
    }
}
