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
//!
//! This module is the one place that decides what a conjunct contributes
//! to retrieval (`carried`): the predicate it puts on its step, and the
//! content-index probe key (`probe_keys`) a text equality or a set
//! disjunction on a tag-pinned step gives the planner.

use crate::tax::{Attr, CmpOp, Cond, EdgeKind, Matcher, PatternNodeId, Term};
use std::borrow::Cow;
use std::collections::BTreeSet;
use toss_tree::Value;
use toss_xmldb::xpath::{Axis, Expr, NameTest, Path, RelPath, Step, ValueExpr};
use toss_xmldb::{DbResult, XPath};

/// Compile a prepared TAX pattern (with its — typically SEO-expanded —
/// condition, split per node) into one XPath expression selecting the
/// images of the pattern root. A pattern whose XPath would nest past
/// [`toss_xmldb::xpath::MAX_EXPR_DEPTH`] is refused with the parser's
/// depth-limit error.
pub(crate) fn compile_xpath(query: &Matcher) -> DbResult<XPath> {
    let pattern = query.structure();
    let root = pattern.root();
    // root's own content constraints, then its children as nested
    // predicates
    let own = query.local(root).iter().filter_map(carried);
    let mut predicates: Vec<Expr> = own.map(|c| c.predicate()).collect();
    for &child in pattern.children(root) {
        predicates.push(child_predicate(query, child));
    }
    let xpath = XPath {
        paths: vec![Path {
            steps: vec![Step {
                axis: Axis::Descendant,
                test: node_test(query.local(root)),
                predicates,
            }],
        }],
    };
    xpath.check_depth()?;
    Ok(xpath)
}

/// A necessary condition on the documents a compiled query selects: each
/// holds a `tag` node whose own content is one of `terms`, so the content
/// index's merged postings for `(tag, terms)` bound them from above.
pub(crate) struct ProbeKey<'a> {
    pub(crate) tag: Cow<'a, str>,
    pub(crate) terms: Vec<Cow<'a, str>>,
}

/// The probe keys of a prepared query, borrowed from it: one per
/// conjunct that puts a text equality or a set disjunction with
/// non-empty terms on a tag-pinned step of [`compile_xpath`]'s XPath.
/// Every step of that XPath is required — its predicates nest under
/// `and` only — so each key holds for every document it selects.
pub(crate) fn probe_keys(query: &Matcher) -> Vec<ProbeKey<'_>> {
    let mut keys = Vec::new();
    for node in query.structure().preorder() {
        let local = query.local(node);
        let Some(tag) = pinned_tag(local) else {
            continue;
        };
        for terms in local.iter().filter_map(carried).filter_map(Carried::terms) {
            keys.push(ProbeKey {
                tag: tag.clone(),
                terms,
            });
        }
    }
    keys
}

/// The tag some conjunct pins with `tag = const`, when it is a valid
/// element name.
fn pinned_tag(local: &[Cond]) -> Option<Cow<'_, str>> {
    local.iter().find_map(|c| match c {
        Cond::Cmp {
            lhs: Term::Attr {
                attr: Attr::Tag, ..
            },
            op: CmpOp::Eq,
            rhs: Term::Const(v),
        } => Some(literal(v)).filter(|name| is_valid_name(name)),
        _ => None,
    })
}

/// The element-name test for a node: its pinned tag, else `*`.
fn node_test(local: &[Cond]) -> NameTest {
    match pinned_tag(local) {
        Some(name) => NameTest::Name(name.into_owned()),
        None => NameTest::Wildcard,
    }
}

fn is_valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// A constant as XPath compares it: its rendering, borrowed when it is a
/// string.
fn literal(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.render()),
    }
}

/// Whether a literal has XPath text: not when it holds both quote kinds.
fn quotable(s: &str) -> bool {
    !(s.contains('\'') && s.contains('"'))
}

/// A content conjunct the XPath carries on its node's step: a comparison
/// of the node's own text with a literal, for the operators the XPath
/// fragment has, or membership in a set.
enum Carried<'a> {
    Eq(Cow<'a, str>),
    Ne(Cow<'a, str>),
    Contains(Cow<'a, str>),
    In(&'a BTreeSet<String>),
}

/// What `c` contributes to retrieval; `None` for a conjunct left to the
/// local pass. A set is carried only whole: dropping a member with no
/// XPath text would make the filter exclude documents holding exactly
/// it, which the local pass accepts; with no predicate the filter stays
/// a superset.
fn carried(c: &Cond) -> Option<Carried<'_>> {
    match c {
        Cond::Cmp {
            lhs: Term::Attr {
                attr: Attr::Content,
                ..
            },
            op,
            rhs: Term::Const(v),
        } => {
            let lit = literal(v);
            if !quotable(&lit) {
                return None;
            }
            match op {
                CmpOp::Eq => Some(Carried::Eq(lit)),
                CmpOp::Ne => Some(Carried::Ne(lit)),
                CmpOp::Contains => Some(Carried::Contains(lit)),
                _ => None,
            }
        }
        Cond::InSet {
            term: Term::Attr {
                attr: Attr::Content,
                ..
            },
            set,
        } if !set.is_empty() && set.iter().all(|v| quotable(v)) => Some(Carried::In(set)),
        _ => None,
    }
}

impl<'a> Carried<'a> {
    /// The predicate on the node's own text: `text() op 'v'`, or
    /// `(text()='a' or text()='b' or …)` for a set.
    fn predicate(&self) -> Expr {
        match self {
            Carried::Eq(v) => Expr::Eq(ValueExpr::Text, v.to_string()),
            Carried::Ne(v) => Expr::Ne(ValueExpr::Text, v.to_string()),
            Carried::Contains(v) => Expr::Contains(ValueExpr::Text, v.to_string()),
            Carried::In(set) => {
                let parts = set.iter().map(|v| Expr::Eq(ValueExpr::Text, v.clone()));
                Expr::any(parts.collect())
            }
        }
    }

    /// The terms one of which the node's content must be for the
    /// predicate to hold; `None` for `!=` and `contains`, and when a
    /// term is empty: a node without content satisfies `text()=''` but
    /// has no content-index entry.
    fn terms(self) -> Option<Vec<Cow<'a, str>>> {
        let terms = match self {
            Carried::Eq(v) => vec![v],
            Carried::In(set) => set.iter().map(|v| Cow::Borrowed(v.as_str())).collect(),
            Carried::Ne(_) | Carried::Contains(_) => return None,
        };
        terms.iter().all(|t| !t.is_empty()).then_some(terms)
    }
}

/// Predicate for a child pattern node, nested under its parent.
fn child_predicate(query: &Matcher, node: PatternNodeId) -> Expr {
    let pattern = query.structure();
    let (_, kind) = pattern.parent_edge(node).expect("non-root");
    let local = query.local(node);
    let step = |predicates| RelPath {
        from_descendants: kind == EdgeKind::AncestorDescendant,
        steps: vec![Step {
            axis: Axis::Child,
            test: node_test(local),
            predicates,
        }],
    };

    // content constraints on this node: the first equality, when nothing
    // precedes it, compares the step itself (`b='v'`)
    let mut inner: Vec<Expr> = Vec::new();
    let mut direct: Option<String> = None;
    for c in local.iter().filter_map(carried) {
        match c {
            Carried::Eq(lit) if direct.is_none() && inner.is_empty() => {
                direct = Some(lit.into_owned())
            }
            c => inner.push(c.predicate()),
        }
    }
    // grandchildren nest further
    for &g in pattern.children(node) {
        inner.push(child_predicate(query, g));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tax::{Cond, PatternTree, Term};
    use proptest::prelude::*;
    use toss_tree::{NodeData, NodeId, Tree, Value};
    use toss_xmldb::Collection;

    /// Compile `pattern` and check that the text it shows parses back to
    /// the tree that runs; that text.
    fn check_compiles(pattern: &PatternTree) -> String {
        let x = compile_xpath(&Matcher::new(pattern.clone())).unwrap();
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

    /// The documents of `docs` as a collection.
    fn collection(docs: Vec<Tree>) -> Collection {
        let mut coll = Collection::new("c", None);
        for t in docs {
            coll.insert(t).unwrap();
        }
        coll
    }

    /// The pattern root's images in `coll`, by the compiled XPath and by
    /// the matcher.
    fn candidates_and_matches(query: &Matcher, coll: &Collection) -> (Images, Images) {
        let candidates = compile_xpath(query)
            .unwrap()
            .eval_collection(coll)
            .into_iter()
            .map(|r| (r.doc.0, r.node))
            .collect();
        let matches = coll
            .documents()
            .iter()
            .flat_map(|d| {
                let roots: Vec<NodeId> = query
                    .embeddings(d.tree())
                    .iter()
                    .map(|e| e.images()[0])
                    .collect();
                roots.into_iter().map(move |n| (d.id.0, n))
            })
            .collect();
        (candidates, matches)
    }

    /// For each probe key, the documents of `coll` it admits: those
    /// holding a node with the key's tag whose content is a key term.
    fn admitted(query: &Matcher, coll: &Collection) -> Vec<BTreeSet<u64>> {
        let index = coll.index();
        let admits = |k: &ProbeKey<'_>| {
            let docs = index.docs_with_tag_content_any(&k.tag, &k.terms);
            docs.into_iter().map(|d| d.0).collect()
        };
        probe_keys(query).iter().map(admits).collect()
    }

    /// The probe keys as `(tag, terms)`.
    fn keys(p: &PatternTree) -> Vec<(String, Vec<String>)> {
        let query = Matcher::new(p.clone());
        let key = |k: ProbeKey<'_>| {
            let terms = k.terms.iter().map(|t| t.to_string()).collect();
            (k.tag.into_owned(), terms)
        };
        probe_keys(&query).into_iter().map(key).collect()
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
        let coll = collection(docs);
        let (candidates, matches) = candidates_and_matches(&Matcher::new(p), &coll);
        assert_eq!(matches.len(), 2);
        assert!(
            candidates.is_superset(&matches),
            "{candidates:?} ⊉ {matches:?}"
        );
    }

    /// A child holding a set and a grandchild compiles to a conjunction
    /// on the child's step; the set still gives the child's probe key.
    #[test]
    fn a_set_beside_a_grandchild_gives_a_probe_key() {
        let mut p = PatternTree::new(1);
        let b = p.add_child(p.root(), 2, EdgeKind::ParentChild).unwrap();
        p.add_child(b, 3, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("r")),
            Cond::eq(Term::tag(2), Term::str("b")),
            Cond::eq(Term::tag(3), Term::str("c")),
            Cond::in_set(Term::content(2), ["x".to_string(), "y".to_string()]),
        ]))
        .unwrap();
        assert_eq!(
            check_compiles(&p),
            "//r[b[(text()='x' or text()='y') and c]]"
        );
        let terms = vec!["x".to_string(), "y".to_string()];
        assert_eq!(keys(&p), vec![("b".to_string(), terms)]);
    }

    /// Only an equality or a set the XPath carries, with non-empty
    /// terms, on a tag-pinned step gives a probe key.
    #[test]
    fn probe_keys_come_only_from_carried_equalities_and_sets() {
        let set = |members: &[&str]| {
            let members = members.iter().map(|m| m.to_string());
            Cond::in_set(Term::content(2), members)
        };
        let none = [
            Cond::ne(Term::content(2), Term::str("x")),
            Cond::contains(Term::content(2), Term::str("x")),
            Cond::eq(Term::content(2), Term::str("")),
            Cond::eq(Term::content(2), Term::str("x'y\"z")),
            Cond::eq(Term::content(2), Term::str("x")).not(),
            set(&["x", ""]),
            set(&["x", "x'y\"z"]),
        ];
        for c in none {
            let p = spine(
                &[("r", EdgeKind::ParentChild), ("b", EdgeKind::ParentChild)],
                vec![c.clone()],
            );
            assert_eq!(keys(&p), vec![], "{c:?}");
        }
        // a wildcard step gives none either
        let mut p = PatternTree::new(1);
        p.add_child(p.root(), 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::eq(Term::content(2), Term::str("x")))
            .unwrap();
        assert_eq!(keys(&p), vec![]);
        // an integer constant is compared by its rendering
        let p = spine(
            &[("r", EdgeKind::ParentChild), ("y", EdgeKind::ParentChild)],
            vec![Cond::eq(Term::content(2), Term::int(1999))],
        );
        let terms = vec!["1999".to_string()];
        assert_eq!(keys(&p), vec![("y".to_string(), terms)]);
    }

    const TAGS: [&str; 3] = ["r", "b", "c"];
    const VALUES: [&str; 7] = ["a", "ab", "O'Neil", "say \"hi\"", "x'y\"z", "b", ""];

    /// One single-label conjunct on `label`, chosen by `kind`: `=`, `!=`
    /// or `contains` against a value, or a set of members drawn
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

    /// The literal a content conjunct compares with, or a set's members.
    fn literals(c: &Cond) -> Vec<String> {
        match c {
            Cond::Cmp {
                rhs: Term::Const(v),
                ..
            } => vec![literal(v).into_owned()],
            Cond::InSet { set, .. } => set.iter().cloned().collect(),
            _ => Vec::new(),
        }
    }

    /// One generated pattern node: its parent's index (none for the
    /// root), its pinned tag (an index into [`TAGS`]; `*` past the end)
    /// and the literals of each content conjunct on it.
    #[derive(Debug)]
    struct Shape {
        parent: Option<usize>,
        tag: usize,
        values: Vec<Vec<String>>,
    }

    /// A pattern of one to six nodes under pc and ad edges, every tag
    /// pinned or left as `*`, with content conjuncts on any node; and the
    /// shape of each node, in pattern-node order.
    fn pattern() -> impl Strategy<Value = (PatternTree, Vec<Shape>)> {
        let structure = proptest::collection::vec((0usize..6, 0usize..2, 0usize..4), 0..6);
        // a set has one to four members, one time in eight up to 64:
        // each member is unquotable one time in seven, and a set is
        // carried (and gives a probe key) only when none is
        let members = (0usize..8, proptest::collection::vec(0usize..6 * VALUES.len(), 1..65))
            .prop_map(|(long, mut members)| {
                if long != 0 {
                    members.truncate(1 + members.len() % 4);
                }
                members
            });
        let conds = proptest::collection::vec(
            (0usize..6, 0usize..4, 0usize..VALUES.len(), members),
            0..5,
        );
        (0usize..4, structure, conds).prop_map(|(root_tag, children, conds)| {
            let mut p = PatternTree::new(1);
            let mut all = Vec::new();
            let mut shapes = Vec::new();
            let mut pin = |label: u32, parent: Option<usize>, tag: usize| {
                if let Some(t) = TAGS.get(tag) {
                    all.push(Cond::eq(Term::tag(label), Term::str(t)));
                }
                shapes.push(Shape {
                    parent,
                    tag,
                    values: Vec::new(),
                });
            };
            pin(1, None, root_tag);
            for (i, (parent, edge, tag)) in children.into_iter().enumerate() {
                let kind = match edge {
                    0 => EdgeKind::ParentChild,
                    _ => EdgeKind::AncestorDescendant,
                };
                let label = i as u32 + 2;
                let parent = parent % (i + 1);
                p.add_child(PatternNodeId(parent), label, kind).unwrap();
                pin(label, Some(parent), tag);
            }
            let n = p.len();
            for (node, kind, v, members) in conds {
                let c = conjunct((node % n) as u32 + 1, kind, v, &members);
                shapes[node % n].values.push(literals(&c));
                all.push(c);
            }
            p.set_condition(Cond::all(all)).unwrap();
            (p, shapes)
        })
    }

    /// The content `pick` chooses for a node whose conjuncts hold
    /// `values`: one time in four none, which `text()=''` accepts but the
    /// content index does not hold; else a literal of one of them, or one
    /// of [`VALUES`] for a node without conjuncts.
    fn content(values: &[Vec<String>], pick: usize) -> Option<String> {
        let (source, pick) = (pick % 4, pick / 4);
        match source {
            0 => None,
            _ if !values.is_empty() => {
                let v = &values[pick % values.len()];
                Some(v[pick / values.len() % v.len()].clone())
            }
            _ => Some(VALUES[pick % VALUES.len()].to_string()),
        }
    }

    /// A document under an `r` root: when `mirror`, a copy of the
    /// pattern's own shape — each node with its pinned tag (or one of
    /// [`TAGS`]) as a child of its parent's copy, its content picked by
    /// [`content`] — so a keyed conjunct is often met; then `extra`
    /// `(tag, content pick, parent)` nodes anywhere.
    fn tree(
        shapes: &[Shape],
        mirror: bool,
        picks: &[usize],
        extra: Vec<(usize, usize, usize)>,
    ) -> Tree {
        let mut t = Tree::new();
        let root = t.set_root(NodeData::element("r")).unwrap();
        let mut ids = vec![root];
        let add = |t: &mut Tree, parent, tag: usize, content: Option<String>| {
            let data = NodeData {
                content: content.map(Value::Str),
                ..NodeData::element(TAGS[tag % TAGS.len()])
            };
            t.add_child(parent, data).unwrap()
        };
        if mirror {
            for (shape, &pick) in shapes.iter().zip(picks) {
                // the root's copy is the second node, each other node's
                // copy follows its parent's
                let parent = shape.parent.map_or(root, |p| ids[p + 1]);
                let tag = if shape.tag < TAGS.len() { shape.tag } else { pick };
                let copy = add(&mut t, parent, tag, content(&shape.values, pick / TAGS.len()));
                ids.push(copy);
            }
        }
        for (tag, pick, parent) in extra {
            let parent = ids[parent % ids.len()];
            ids.push(add(&mut t, parent, tag, content(&[], pick)));
        }
        t
    }

    /// A pattern and one to three documents, each a mirror of the
    /// pattern (three in four) with up to eight more nodes.
    fn pattern_and_docs() -> impl Strategy<Value = (PatternTree, Vec<Tree>)> {
        let picks = proptest::collection::vec(0usize..1 << 16, 6..7);
        let extra = proptest::collection::vec((0usize..3, 0usize..64, 0usize..16), 0..8);
        let docs = proptest::collection::vec((0usize..4, picks, extra), 1..4);
        (pattern(), docs).prop_map(|((p, shapes), docs)| {
            let docs = docs
                .into_iter()
                .map(|(mirror, picks, extra)| tree(&shapes, mirror != 0, &picks, extra))
                .collect();
            (p, docs)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The text a compiled query shows parses back to the tree that
        /// runs, whatever quotes its literals hold.
        #[test]
        fn compiled_text_parses_back_to_the_compiled_tree((p, _) in pattern()) {
            let x = compile_xpath(&Matcher::new(p)).unwrap();
            let text = x.to_string();
            prop_assert_eq!(XPath::parse(&text).unwrap(), x);
        }

        /// The compiled XPath is a sound retrieval filter: it selects
        /// every pattern-root image the matcher finds, and the probe keys
        /// admit every document it selects. The documents draw their
        /// content from the pattern's literals, so a case with a probe
        /// key often has a document the XPath selects.
        #[test]
        fn compiled_candidates_cover_the_matches((p, docs) in pattern_and_docs()) {
            let (query, coll) = (Matcher::new(p), collection(docs));
            let (candidates, matches) = candidates_and_matches(&query, &coll);
            prop_assert!(candidates.is_superset(&matches));
            // and every probe key admits each document the XPath selects
            let selected: BTreeSet<u64> = candidates.iter().map(|&(d, _)| d).collect();
            for docs in admitted(&query, &coll) {
                prop_assert!(docs.is_superset(&selected), "{:?} ⊉ {:?}", docs, selected);
            }
        }
    }
}
