//! Pattern-tree → XPath compilation (Section 6: "time to parse a pattern
//! tree and rewrite the pattern tree into XPath queries").
//!
//! The paper rewrites into XPath *text* because Xindice takes only text.
//! The store here is in-process, so the rewrite builds the XPath syntax
//! tree directly; its text (`xpath.to_string()`) is only shown — in
//! `QueryOutcome::xpath`, the wire's `xpath`, the slow log and
//! `--explain` — and parses back to the very tree that runs.
//!
//! The compiled XPath acts as the *retrieval* step against the document
//! store: it selects the documents (and pattern-root images) that can
//! possibly satisfy the query. Conjuncts the XPath fragment cannot
//! express (cross-label conditions like `SharedClass`, a literal holding
//! both quote characters, which has no XPath text) are left to the local
//! witness-construction pass — which re-applies the full condition
//! anyway, so results are exact; the XPath merely has to be *sound as a
//! superset filter*.

use crate::tax::{Attr, CmpOp, Cond, EdgeKind, PatternNodeId, PatternTree, Term};
use std::collections::{BTreeSet, HashMap};
use toss_xmldb::xpath::{Axis, Expr, NameTest, Path, RelPath, Step, ValueExpr};
use toss_xmldb::{DbResult, XPath};

/// Each pattern node's single-label conjuncts, borrowed from the
/// pattern's condition.
type PerNode<'a> = HashMap<PatternNodeId, Vec<&'a Cond>>;

/// Compile a TAX pattern tree (with its — typically SEO-expanded —
/// condition) into one XPath expression selecting the images of the
/// pattern root. A pattern whose XPath would nest past
/// [`toss_xmldb::xpath::MAX_EXPR_DEPTH`] is refused with the parser's
/// depth-limit error.
pub(crate) fn compile_xpath(pattern: &PatternTree) -> DbResult<XPath> {
    let per_node = assign_conjuncts(pattern);
    let root = pattern.root();
    // root's own content constraints, then its children as nested
    // predicates
    let own = per_node.get(&root).into_iter().flatten();
    let mut predicates: Vec<Expr> = own.filter_map(|c| own_predicate(c)).collect();
    for &child in pattern.children(root) {
        predicates.push(child_predicate(pattern, &per_node, child));
    }
    let xpath = XPath {
        paths: vec![Path {
            steps: vec![Step {
                axis: Axis::Descendant,
                test: node_test(&per_node, root),
                predicates,
            }],
        }],
    };
    xpath.check_depth()?;
    Ok(xpath)
}

/// Split the pattern's condition into top-level conjuncts and attach each
/// single-label conjunct to its pattern node; multi-label conjuncts are
/// dropped (handled by the local pass).
fn assign_conjuncts(pattern: &PatternTree) -> PerNode<'_> {
    let mut out = PerNode::new();
    for c in pattern.condition().conjuncts() {
        let labels = c.labels();
        if labels.len() == 1 {
            let label = *labels.iter().next().expect("len 1");
            if let Some(node) = pattern.node_by_label(label) {
                out.entry(node).or_default().push(c);
            }
        }
    }
    out
}

/// The element-name test for a node: a specific tag when some conjunct
/// pins `tag = const`, else `*`.
fn node_test(per_node: &PerNode<'_>, node: PatternNodeId) -> NameTest {
    for c in per_node.get(&node).into_iter().flatten() {
        if let Cond::Cmp {
            lhs: Term::Attr {
                attr: Attr::Tag, ..
            },
            op: CmpOp::Eq,
            rhs: Term::Const(v),
        } = c
        {
            let name = v.render();
            if is_valid_name(&name) {
                return NameTest::Name(name);
            }
        }
    }
    NameTest::Wildcard
}

fn is_valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Whether a literal has XPath text: not when it holds both quote kinds.
fn quotable(s: &str) -> bool {
    !(s.contains('\'') && s.contains('"'))
}

/// `text() op 'v'` for a content comparison with a constant whose
/// literal has XPath text; `None` for any other conjunct.
fn text_cmp(c: &Cond) -> Option<(CmpOp, String)> {
    match c {
        Cond::Cmp {
            lhs: Term::Attr {
                attr: Attr::Content,
                ..
            },
            op,
            rhs: Term::Const(v),
        } => Some((*op, v.render())).filter(|(_, lit)| quotable(lit)),
        _ => None,
    }
}

/// A comparison of the context node's own text, for the operators the
/// XPath fragment has.
fn text_predicate(op: CmpOp, lit: String) -> Option<Expr> {
    match op {
        CmpOp::Eq => Some(Expr::Eq(ValueExpr::Text, lit)),
        CmpOp::Contains => Some(Expr::Contains(ValueExpr::Text, lit)),
        CmpOp::Ne => Some(Expr::Ne(ValueExpr::Text, lit)),
        _ => None,
    }
}

/// The disjunction a content membership test compiles to; `None` for
/// any other conjunct.
fn set_predicate(c: &Cond) -> Option<Expr> {
    match c {
        Cond::InSet {
            term: Term::Attr {
                attr: Attr::Content,
                ..
            },
            set,
        } => disjunction(set),
        _ => None,
    }
}

/// Predicate expressing a node's conjunct on its own text value.
fn own_predicate(c: &Cond) -> Option<Expr> {
    match text_cmp(c) {
        Some((op, lit)) => text_predicate(op, lit),
        None => set_predicate(c),
    }
}

/// Predicate for a child pattern node, nested under its parent.
fn child_predicate(pattern: &PatternTree, per_node: &PerNode<'_>, node: PatternNodeId) -> Expr {
    let (_, kind) = pattern.parent_edge(node).expect("non-root");
    let step = |predicates| RelPath {
        from_descendants: kind == EdgeKind::AncestorDescendant,
        steps: vec![Step {
            axis: Axis::Child,
            test: node_test(per_node, node),
            predicates,
        }],
    };

    // content constraints on this node: the first equality, when nothing
    // precedes it, compares the step itself (`b='v'`)
    let mut inner: Vec<Expr> = Vec::new();
    let mut direct: Option<String> = None;
    for &c in per_node.get(&node).into_iter().flatten() {
        match text_cmp(c) {
            Some((CmpOp::Eq, lit)) if direct.is_none() && inner.is_empty() => direct = Some(lit),
            Some((op, lit)) => inner.extend(text_predicate(op, lit)),
            None => inner.extend(set_predicate(c)),
        }
    }
    // grandchildren nest further
    for &g in pattern.children(node) {
        inner.push(child_predicate(pattern, per_node, g));
    }

    match (direct, inner.is_empty()) {
        (Some(lit), true) => Expr::Eq(ValueExpr::Rel(step(Vec::new())), lit),
        (Some(lit), false) => {
            // the direct form becomes the first conjunct of a nested one
            inner.insert(0, Expr::Eq(ValueExpr::Text, lit));
            Expr::Exists(step(vec![Expr::all(inner)]))
        }
        (None, true) => Expr::Exists(step(Vec::new())),
        (None, false) => Expr::Exists(step(vec![Expr::all(inner)])),
    }
}

/// `(text()='a' or text()='b' or …)`; `None` when the set is empty or a
/// member has no XPath text. Dropping only that member would make the
/// filter exclude documents holding exactly it, which the local pass
/// accepts; with no predicate the filter stays a superset.
fn disjunction(set: &BTreeSet<String>) -> Option<Expr> {
    if set.is_empty() || !set.iter().all(|v| quotable(v)) {
        return None;
    }
    let parts = set.iter().map(|v| Expr::Eq(ValueExpr::Text, v.clone()));
    Some(Expr::any(parts.collect()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tax::{Cond, Matcher, Term};
    use proptest::prelude::*;
    use toss_tree::{NodeData, NodeId, Tree, Value};
    use toss_xmldb::Collection;

    /// Compile `pattern` and check that the text it shows parses back to
    /// the tree that runs; that text.
    fn check_compiles(pattern: &PatternTree) -> String {
        let x = compile_xpath(pattern).unwrap();
        let text = x.to_string();
        assert_eq!(XPath::parse(&text).unwrap(), x, "{text}");
        text
    }

    fn spine(tags: &[(&str, EdgeKind)], extra: Vec<Cond>) -> PatternTree {
        let mut p = PatternTree::new(1);
        let root = p.root();
        let mut conds = vec![Cond::eq(Term::tag(1), Term::str(tags[0].0))];
        for (i, (tag, kind)) in tags[1..].iter().enumerate() {
            let label = (i + 2) as u32;
            p.add_child(root, label, *kind).unwrap();
            conds.push(Cond::eq(Term::tag(label), Term::str(tag)));
        }
        conds.extend(extra);
        p.set_condition(Cond::all(conds)).unwrap();
        p
    }

    #[test]
    fn simple_spine_compiles() {
        let p = spine(
            &[
                ("inproceedings", EdgeKind::ParentChild),
                ("author", EdgeKind::ParentChild),
                ("year", EdgeKind::ParentChild),
            ],
            vec![Cond::eq(Term::content(3), Term::int(1999))],
        );
        let x = check_compiles(&p);
        assert_eq!(x, "//inproceedings[author][year='1999']");
    }

    #[test]
    fn in_set_becomes_disjunction() {
        let p = spine(
            &[
                ("inproceedings", EdgeKind::ParentChild),
                ("author", EdgeKind::ParentChild),
            ],
            vec![Cond::in_set(
                Term::content(2),
                ["J. Ullman".to_string(), "Jeff Ullman".to_string()],
            )],
        );
        let x = check_compiles(&p);
        assert_eq!(
            x,
            "//inproceedings[author[(text()='J. Ullman' or text()='Jeff Ullman')]]"
        );
    }

    #[test]
    fn ad_edge_uses_descendant_axis() {
        let p = spine(
            &[
                ("inproceedings", EdgeKind::ParentChild),
                ("booktitle", EdgeKind::AncestorDescendant),
            ],
            vec![Cond::eq(Term::content(2), Term::str("SIGMOD Conference"))],
        );
        let x = check_compiles(&p);
        assert_eq!(x, "//inproceedings[.//booktitle='SIGMOD Conference']");
    }

    #[test]
    fn contains_compiles() {
        let p = spine(
            &[
                ("inproceedings", EdgeKind::ParentChild),
                ("booktitle", EdgeKind::ParentChild),
            ],
            vec![Cond::contains(Term::content(2), Term::str("SIGMOD"))],
        );
        let x = check_compiles(&p);
        assert_eq!(x, "//inproceedings[booktitle[contains(text(),'SIGMOD')]]");
    }

    #[test]
    fn wildcard_when_tag_unpinned() {
        let mut p = PatternTree::new(1);
        let root = p.root();
        p.add_child(root, 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::eq(Term::content(2), Term::str("x")))
            .unwrap();
        let x = check_compiles(&p);
        assert_eq!(x, "//*[*='x']");
    }

    #[test]
    fn cross_label_conjuncts_are_left_residual() {
        let mut p = PatternTree::new(1);
        let root = p.root();
        p.add_child(root, 2, EdgeKind::ParentChild).unwrap();
        p.add_child(root, 3, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("r")),
            Cond::eq(Term::content(2), Term::content(3)),
        ]))
        .unwrap();
        let x = check_compiles(&p);
        assert_eq!(x, "//r[*][*]");
    }

    #[test]
    fn quotes_in_literals() {
        let p = spine(
            &[("a", EdgeKind::ParentChild), ("b", EdgeKind::ParentChild)],
            vec![Cond::eq(Term::content(2), Term::str("O'Neil"))],
        );
        let x = check_compiles(&p);
        assert!(x.contains("\"O'Neil\""));
    }

    #[test]
    fn nested_grandchildren() {
        let mut p = PatternTree::new(1);
        let root = p.root();
        let venue = p.add_child(root, 2, EdgeKind::ParentChild).unwrap();
        p.add_child(venue, 3, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("paper")),
            Cond::eq(Term::tag(2), Term::str("venue")),
            Cond::eq(Term::tag(3), Term::str("booktitle")),
            Cond::eq(Term::content(3), Term::str("PODS")),
        ]))
        .unwrap();
        let x = check_compiles(&p);
        assert_eq!(x, "//paper[venue[booktitle='PODS']]");
    }

    #[test]
    fn root_text_predicate() {
        let mut p = PatternTree::new(1);
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("year")),
            Cond::eq(Term::content(1), Term::int(1999)),
        ]))
        .unwrap();
        let x = check_compiles(&p);
        assert_eq!(x, "//year[text()='1999']");
    }

    #[test]
    fn one_member_set_has_no_parentheses() {
        let p = spine(
            &[("r", EdgeKind::ParentChild), ("b", EdgeKind::ParentChild)],
            vec![Cond::in_set(Term::content(2), ["X".to_string()])],
        );
        assert_eq!(check_compiles(&p), "//r[b[text()='X']]");
    }

    /// Pattern-root images as `(document, node)`.
    type Images = BTreeSet<(u64, NodeId)>;

    /// The pattern root's images among `docs`, by the compiled XPath and
    /// by the matcher.
    fn candidates_and_matches(pattern: &PatternTree, docs: Vec<Tree>) -> (Images, Images) {
        let mut coll = Collection::new("c", None);
        for t in docs {
            coll.insert(t).unwrap();
        }
        let candidates = compile_xpath(pattern)
            .unwrap()
            .eval_collection(&coll)
            .into_iter()
            .map(|r| (r.doc.0, r.node))
            .collect();
        let matcher = Matcher::new(pattern.clone());
        let matches = coll
            .documents()
            .iter()
            .flat_map(|d| {
                let roots: Vec<NodeId> = matcher
                    .embeddings(&d.tree)
                    .iter()
                    .map(|e| e.images()[0])
                    .collect();
                roots.into_iter().map(move |n| (d.id.0, n))
            })
            .collect();
        (candidates, matches)
    }

    fn doc(children: &[(&str, &str)]) -> Tree {
        let mut t = Tree::new();
        let root = t.set_root(NodeData::element("r")).unwrap();
        for &(tag, text) in children {
            let data = NodeData {
                content: Some(Value::Str(text.to_string())),
                ..NodeData::element(tag)
            };
            t.add_child(root, data).unwrap();
        }
        t
    }

    /// A set member holding both quote kinds has no XPath text; the set
    /// then gives no predicate at all rather than one without that
    /// member, which would filter out the document holding it.
    #[test]
    fn a_member_with_both_quotes_keeps_its_documents() {
        let p = spine(
            &[("r", EdgeKind::ParentChild), ("b", EdgeKind::ParentChild)],
            vec![Cond::in_set(
                Term::content(2),
                ["a".to_string(), "x'y\"z".to_string()],
            )],
        );
        assert_eq!(check_compiles(&p), "//r[b]");
        let docs = vec![
            doc(&[("b", "a")]),
            doc(&[("b", "x'y\"z")]),
            doc(&[("b", "q")]),
        ];
        let (candidates, matches) = candidates_and_matches(&p, docs);
        assert_eq!(matches.len(), 2);
        assert!(
            candidates.is_superset(&matches),
            "{candidates:?} ⊉ {matches:?}"
        );
    }

    const TAGS: [&str; 3] = ["r", "b", "c"];
    const VALUES: [&str; 6] = ["a", "ab", "O'Neil", "say \"hi\"", "x'y\"z", "b"];

    /// One single-label conjunct on `label`, chosen by `kind`: `=`, `!=`
    /// or `contains` against a value, or a set of 1–64 members drawn
    /// from the values and their numbered variants, so it can hold `'`,
    /// `"` or both.
    fn conjunct(label: u32, kind: usize, v: usize, members: &[usize]) -> Cond {
        let value = || Term::str(VALUES[v % VALUES.len()]);
        match kind % 4 {
            0 => Cond::eq(Term::content(label), value()),
            1 => Cond::ne(Term::content(label), value()),
            2 => Cond::contains(Term::content(label), value()),
            _ => Cond::in_set(
                Term::content(label),
                members.iter().map(|&m| match m / VALUES.len() {
                    0 => VALUES[m].to_string(),
                    i => format!("{}{i}", VALUES[m % VALUES.len()]),
                }),
            ),
        }
    }

    /// A pattern of one to six nodes under pc and ad edges, every tag
    /// pinned or left as `*`, with content conjuncts on any node.
    fn pattern() -> impl Strategy<Value = PatternTree> {
        let structure = proptest::collection::vec((0usize..6, 0usize..2, 0usize..4), 0..6);
        let conds = proptest::collection::vec(
            (
                0usize..6,
                0usize..4,
                0usize..6,
                proptest::collection::vec(0usize..6 * VALUES.len(), 1..65),
            ),
            0..5,
        );
        (0usize..4, structure, conds).prop_map(|(root_tag, children, conds)| {
            let mut p = PatternTree::new(1);
            let mut all = Vec::new();
            let mut pin = |label: u32, tag: usize| {
                if let Some(t) = TAGS.get(tag) {
                    all.push(Cond::eq(Term::tag(label), Term::str(t)));
                }
            };
            pin(1, root_tag);
            for (i, (parent, edge, tag)) in children.into_iter().enumerate() {
                let kind = match edge {
                    0 => EdgeKind::ParentChild,
                    _ => EdgeKind::AncestorDescendant,
                };
                let label = i as u32 + 2;
                p.add_child(PatternNodeId(parent % (i + 1)), label, kind)
                    .unwrap();
                pin(label, tag);
            }
            let n = p.len();
            for (node, kind, v, members) in conds {
                all.push(conjunct((node % n) as u32 + 1, kind, v, &members));
            }
            p.set_condition(Cond::all(all)).unwrap();
            p
        })
    }

    /// A document of up to eight nodes with the pattern's tags and values.
    fn tree() -> impl Strategy<Value = Tree> {
        proptest::collection::vec((0usize..3, 0usize..8, 0usize..8), 0..8).prop_map(|nodes| {
            let mut t = Tree::new();
            let root = t.set_root(NodeData::element("r")).unwrap();
            let mut ids = vec![root];
            for (tag, value, parent) in nodes {
                let data = NodeData {
                    content: VALUES.get(value).map(|v| Value::Str(v.to_string())),
                    ..NodeData::element(TAGS[tag])
                };
                ids.push(t.add_child(ids[parent % ids.len()], data).unwrap());
            }
            t
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The text a compiled query shows parses back to the tree that
        /// runs, whatever quotes its literals hold.
        #[test]
        fn compiled_text_parses_back_to_the_compiled_tree(p in pattern()) {
            let x = compile_xpath(&p).unwrap();
            let text = x.to_string();
            prop_assert_eq!(XPath::parse(&text).unwrap(), x);
        }

        /// The compiled XPath is a sound retrieval filter: it selects
        /// every pattern-root image the matcher finds.
        #[test]
        fn compiled_candidates_cover_the_matches(
            p in pattern(),
            docs in proptest::collection::vec(tree(), 1..4),
        ) {
            let (candidates, matches) = candidates_and_matches(&p, docs);
            prop_assert!(candidates.is_superset(&matches));
        }
    }
}
