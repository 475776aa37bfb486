//! The matcher's oracle: embedding enumeration and witness construction
//! as they were before [`Matcher`] — the condition re-split per tree, a
//! `HashMap` assignment, owned [`Value`]s per term, a preorder-rank map
//! per witness — kept test-only and compared with the prepared forms on
//! random patterns × trees.

use crate::tax::condition::{compare_refs, Attr, CmpOp, Cond, Term};
use crate::tax::embedding::Matcher;
use crate::tax::ops::ProjectEntry;
use crate::tax::pattern::{EdgeKind, PatternNodeId, PatternTree};
use crate::tax::witness::build_forest_from_nodes;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};
use toss_tree::eq::fingerprint;
use toss_tree::{Forest, NodeData, NodeId, Tree, Value};

fn attr_value(tree: &Tree, node: NodeId, attr: Attr) -> Option<Value> {
    let data = tree.data(node).ok()?;
    match attr {
        Attr::Tag => Some(Value::Str(data.tag.clone())),
        Attr::Content => data.content.clone(),
    }
}

fn term_value(tree: &Tree, assignment: &HashMap<u32, NodeId>, term: &Term) -> Option<Value> {
    match term {
        Term::Const(v) => Some(v.clone()),
        Term::Attr { label, attr } => attr_value(tree, *assignment.get(label)?, *attr),
    }
}

fn eval_condition(tree: &Tree, assignment: &HashMap<u32, NodeId>, cond: &Cond) -> bool {
    match cond {
        Cond::True => true,
        Cond::Cmp { lhs, op, rhs } => {
            match (
                term_value(tree, assignment, lhs),
                term_value(tree, assignment, rhs),
            ) {
                (Some(a), Some(b)) => compare_refs((&a).into(), *op, (&b).into()),
                _ => false,
            }
        }
        Cond::And(a, b) => {
            eval_condition(tree, assignment, a) && eval_condition(tree, assignment, b)
        }
        Cond::Or(a, b) => {
            eval_condition(tree, assignment, a) || eval_condition(tree, assignment, b)
        }
        Cond::Not(c) => !eval_condition(tree, assignment, c),
        Cond::InSet { term, set } => match term_value(tree, assignment, term) {
            Some(v) => set.contains(&v.render()),
            None => false,
        },
        Cond::SharedClass { lhs, rhs, classes } => {
            let (Some(a), Some(b)) = (
                term_value(tree, assignment, lhs),
                term_value(tree, assignment, rhs),
            ) else {
                return false;
            };
            let (ra, rb) = (a.render(), b.render());
            if ra == rb {
                return true;
            }
            match (classes.get(&ra), classes.get(&rb)) {
                (Some(ca), Some(cb)) => ca.iter().any(|c| cb.contains(c)),
                _ => false,
            }
        }
    }
}

/// All embeddings of `pattern` into `tree` as image lists in pattern-node
/// order.
fn embeddings(pattern: &PatternTree, tree: &Tree) -> Vec<Vec<NodeId>> {
    if tree.root().is_none() {
        return Vec::new();
    }
    let mut local: HashMap<u32, Vec<&Cond>> = HashMap::new();
    let mut global: Vec<&Cond> = Vec::new();
    for c in pattern.condition().conjuncts() {
        let labels = c.labels();
        if labels.len() == 1 {
            local.entry(*labels.iter().next().expect("len 1")).or_default().push(c);
        } else {
            global.push(c);
        }
    }
    let order: Vec<PatternNodeId> = pattern.preorder().collect();

    #[allow(clippy::too_many_arguments)]
    fn recurse(
        pattern: &PatternTree,
        tree: &Tree,
        order: &[PatternNodeId],
        local: &HashMap<u32, Vec<&Cond>>,
        global: &[&Cond],
        assignment: &mut HashMap<u32, NodeId>,
        images: &mut Vec<NodeId>,
        out: &mut Vec<Vec<NodeId>>,
    ) {
        if images.len() == order.len() {
            if global.iter().all(|c| eval_condition(tree, assignment, c)) {
                out.push(images.clone());
            }
            return;
        }
        let pnode = order[images.len()];
        let label = pattern.label(pnode);
        let candidates: Vec<NodeId> = match pattern.parent_edge(pnode) {
            None => tree.preorder().collect(),
            Some((parent, EdgeKind::ParentChild)) => tree.children(images[parent.0]).collect(),
            Some((parent, EdgeKind::AncestorDescendant)) => {
                tree.descendants(images[parent.0]).collect()
            }
        };
        for cand in candidates {
            assignment.insert(label, cand);
            images.push(cand);
            let admitted = local
                .get(&label)
                .is_none_or(|cs| cs.iter().all(|c| eval_condition(tree, assignment, c)));
            if admitted {
                recurse(pattern, tree, order, local, global, assignment, images, out);
            }
            images.pop();
            assignment.remove(&label);
        }
    }

    let mut out = Vec::new();
    recurse(
        pattern,
        tree,
        &order,
        &local,
        &global,
        &mut HashMap::new(),
        &mut Vec::new(),
        &mut out,
    );
    out
}

/// Included nodes sorted by preorder rank, each attached to its closest
/// included ancestor found by walking `is_ancestor` up a stack.
fn forest_from_nodes(tree: &Tree, included: &HashSet<NodeId>) -> Vec<Tree> {
    let rank: BTreeMap<NodeId, usize> =
        tree.preorder().enumerate().map(|(i, n)| (n, i)).collect();
    let mut nodes: Vec<NodeId> = included
        .iter()
        .copied()
        .filter(|n| rank.contains_key(n))
        .collect();
    nodes.sort_by_key(|n| rank[n]);
    let mut out: Vec<Tree> = Vec::new();
    let mut stack: Vec<(NodeId, usize, NodeId)> = Vec::new();
    for n in nodes {
        while let Some(&(top, _, _)) = stack.last() {
            if tree.is_ancestor(top, n) {
                break;
            }
            stack.pop();
        }
        let data = tree.data(n).expect("ranked node").clone();
        match stack.last() {
            Some(&(_, ti, parent_new)) => {
                let new_id = out[ti].add_child(parent_new, data).expect("valid parent");
                stack.push((n, ti, new_id));
            }
            None => {
                let t = Tree::with_root(data);
                let new_root = t.root().expect("with_root sets root");
                out.push(t);
                stack.push((n, out.len() - 1, new_root));
            }
        }
    }
    out
}

fn witness(tree: &Tree, images: &[NodeId], expand: &[PatternNodeId]) -> Tree {
    let mut included: HashSet<NodeId> = images.iter().copied().collect();
    for p in expand {
        included.extend(tree.descendants(images[p.0]));
    }
    forest_from_nodes(tree, &included)
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// Selection the old way, down to the cloning dedup.
fn select_reference(input: &Forest, pattern: &PatternTree, expand_labels: &[u32]) -> Forest {
    let expand: Vec<PatternNodeId> = expand_labels
        .iter()
        .filter_map(|&l| pattern.node_by_label(l))
        .collect();
    let mut out = Forest::new();
    for tree in input {
        for images in embeddings(pattern, tree) {
            out.push(witness(tree, &images, &expand));
        }
    }
    out.set_union(&Forest::new())
}

fn project_reference(input: &Forest, pattern: &PatternTree, list: &[ProjectEntry]) -> Forest {
    let mut out = Forest::new();
    for tree in input {
        let mut included: HashSet<NodeId> = HashSet::new();
        for images in embeddings(pattern, tree) {
            for entry in list {
                let Some(p) = pattern.node_by_label(entry.label) else {
                    continue;
                };
                included.insert(images[p.0]);
                if entry.keep_descendants {
                    included.extend(tree.descendants(images[p.0]));
                }
            }
        }
        for t in forest_from_nodes(tree, &included) {
            out.push(t);
        }
    }
    out.set_union(&Forest::new())
}

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

const TAGS: [&str; 3] = ["a", "b", "c"];

/// Contents that collide across types: `"2"`, `2` and `2.0` render alike
/// or compare numerically equal without being the same value.
fn content(kind: usize) -> Option<Value> {
    match kind % 8 {
        0 => None,
        1 => Some(Value::Str("a".into())),
        2 => Some(Value::Str("2".into())),
        3 => Some(Value::Str("1999".into())),
        4 => Some(Value::Int(2)),
        5 => Some(Value::Int(1999)),
        6 => Some(Value::Real(2.0)),
        _ => Some(Value::Real(2.5)),
    }
}

/// A random data tree of up to eight nodes; no nodes gives the empty tree.
fn tree() -> impl Strategy<Value = Tree> {
    proptest::collection::vec((0usize..3, 0usize..8, 0usize..64), 0..9).prop_map(|nodes| {
        let mut t = Tree::new();
        let mut ids: Vec<NodeId> = Vec::new();
        for (tag, kind, parent) in nodes {
            let data = NodeData {
                content: content(kind),
                ..NodeData::element(TAGS[tag])
            };
            let id = match ids.is_empty() {
                true => t.set_root(data).expect("empty tree"),
                false => t.add_child(ids[parent % ids.len()], data).expect("valid parent"),
            };
            ids.push(id);
        }
        t
    })
}

fn constant(kind: usize) -> Term {
    Term::Const(content(1 + kind % 7).expect("kinds 1..=7 carry content"))
}

/// One atom over the labels `la` / `lb`, chosen by `kind`.
fn atom(kind: usize, la: u32, lb: u32, k: usize) -> Cond {
    let classes = || {
        HashMap::from([
            ("a".to_string(), vec![0]),
            ("2".to_string(), vec![0, 1]),
            ("1999".to_string(), vec![1]),
        ])
    };
    match kind % 13 {
        0 => Cond::eq(Term::tag(la), Term::str(TAGS[k % 3])),
        1 => Cond::ne(Term::tag(la), Term::str(TAGS[k % 3])),
        2 => Cond::eq(Term::content(la), constant(k)),
        3 => Cond::ne(Term::content(la), constant(k)),
        4 => Cond::cmp(Term::content(la), CmpOp::Lt, constant(k)),
        5 => Cond::cmp(Term::content(la), CmpOp::Ge, constant(k)),
        6 => Cond::contains(Term::content(la), Term::str("9")),
        7 => Cond::in_set(Term::content(la), ["a".to_string(), "2".to_string()]),
        8 => Cond::eq(Term::content(la), Term::content(lb)),
        9 => Cond::shared_class(Term::content(la), Term::content(lb), classes()),
        10 => Cond::eq(Term::tag(la), Term::tag(lb)),
        11 => Cond::eq(constant(k), constant(k + 3)), // no label at all
        _ => Cond::in_set(Term::tag(la), ["a".to_string(), "c".to_string()]),
    }
}

/// A random pattern of one to four nodes with non-contiguous labels and a
/// condition mixing local, cross-label and label-free conjuncts under
/// `and` / `or` / `not`.
fn pattern() -> impl Strategy<Value = PatternTree> {
    let structure = proptest::collection::vec((0usize..4, 0usize..2), 0..4);
    let atoms = proptest::collection::vec((0usize..13, 0usize..4, 0usize..4, (0usize..8, 0usize..4)), 0..5);
    (structure, atoms).prop_map(|(children, atoms)| {
        let label = |i: usize| (7 * i + 1) as u32;
        let mut p = PatternTree::new(label(0));
        for (i, (parent, edge)) in children.iter().enumerate() {
            let kind = match edge {
                0 => EdgeKind::ParentChild,
                _ => EdgeKind::AncestorDescendant,
            };
            p.add_child(PatternNodeId(parent % (i + 1)), label(i + 1), kind)
                .expect("fresh label under an existing node");
        }
        let n = p.len();
        let mut cond = Cond::True;
        for (kind, a, b, (k, shape)) in atoms {
            let c = atom(kind, label(a % n), label(b % n), k);
            cond = match shape {
                0 => cond.and(c.not()),
                1 if cond != Cond::True => cond.or(c),
                _ => cond.and(c),
            };
        }
        p.set_condition(cond).expect("labels exist");
        p
    })
}

fn fingerprints(f: &Forest) -> Vec<String> {
    f.iter().map(fingerprint).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The prepared matcher enumerates the same embeddings in the same
    /// order as the per-tree enumeration it replaced.
    #[test]
    fn matcher_equals_reference_embeddings(p in pattern(), t in tree()) {
        let got: Vec<Vec<NodeId>> = Matcher::new(p.clone())
            .embeddings(&t)
            .iter()
            .map(|e| e.images().to_vec())
            .collect();
        prop_assert_eq!(got, embeddings(&p, &t));
    }

    /// Selection and projection over borrowed trees, over the forest,
    /// and the old way agree tree for tree.
    #[test]
    fn select_and_project_equal_reference(
        p in pattern(),
        ts in proptest::collection::vec(tree(), 0..4),
        expand in proptest::collection::vec(0usize..4, 0..3),
        keep in 0usize..2,
    ) {
        let labels: Vec<u32> = expand.iter().map(|i| (7 * i + 1) as u32).collect();
        let matcher = Matcher::new(p.clone());
        let forest = Forest::from_trees(ts.clone());

        let expected = fingerprints(&select_reference(&forest, &p, &labels));
        let borrowed = matcher.select(ts.iter(), &labels).expect("select succeeds");
        prop_assert_eq!(fingerprints(&borrowed), expected.clone());
        let wrapped = matcher.select(&forest, &labels).expect("select succeeds");
        prop_assert_eq!(fingerprints(&wrapped), expected);

        let list: Vec<ProjectEntry> = labels
            .iter()
            .map(|&label| ProjectEntry { label, keep_descendants: keep == 1 })
            .collect();
        let expected = fingerprints(&project_reference(&forest, &p, &list));
        let borrowed = matcher.project(ts.iter(), &list).expect("project succeeds");
        prop_assert_eq!(fingerprints(&borrowed), expected.clone());
        let wrapped = matcher.project(&forest, &list).expect("project succeeds");
        prop_assert_eq!(fingerprints(&wrapped), expected);
    }

    /// The one-walk builder connects an arbitrary node set exactly like
    /// the rank-and-stack builder did, stale ids included.
    #[test]
    fn forest_from_nodes_equals_reference(
        t in tree(),
        picks in proptest::collection::vec(0usize..12, 0..8),
    ) {
        let included: HashSet<NodeId> = picks.into_iter().map(NodeId::from_index).collect();
        let got = build_forest_from_nodes(&t, &included).expect("build succeeds");
        let expected = forest_from_nodes(&t, &included);
        prop_assert_eq!(
            got.iter().map(fingerprint).collect::<Vec<_>>(),
            expected.iter().map(fingerprint).collect::<Vec<_>>()
        );
    }
}
