//! Pattern-tree → XPath compilation (Section 6: "time to parse a pattern
//! tree and rewrite the pattern tree into XPath queries").
//!
//! The compiled XPath acts as the *retrieval* step against the document
//! store: it selects the documents (and pattern-root images) that can
//! possibly satisfy the query. Conjuncts the XPath fragment cannot
//! express (cross-label conditions like `SharedClass`, values containing
//! both quote characters) are left to the local witness-construction pass
//! — which re-applies the full condition anyway, so results are always
//! exact; the XPath merely has to be *sound as a superset filter*.

use crate::tax::{Attr, CmpOp, Cond, EdgeKind, PatternNodeId, PatternTree, Term};
use std::collections::HashMap;

/// Compile a TAX pattern tree (with its — typically SEO-expanded —
/// condition) into one XPath expression selecting the images of the
/// pattern root.
pub(crate) fn compile_xpath(pattern: &PatternTree) -> String {
    let per_node = assign_conjuncts(pattern);
    let root = pattern.root();
    let root_name = node_name(&per_node, root);
    let mut predicates: Vec<String> = Vec::new();
    // root's own content/attr constraints
    for c in per_node.get(&root).into_iter().flatten() {
        if let Some(p) = own_predicate(c) {
            predicates.push(p);
        }
    }
    // children become nested predicates
    for &child in pattern.children(root) {
        if let Some(p) = child_predicate(pattern, &per_node, child) {
            predicates.push(p);
        }
    }
    let mut out = format!("//{root_name}");
    for p in predicates {
        out.push('[');
        out.push_str(&p);
        out.push(']');
    }
    out
}

/// Split the pattern's condition into top-level conjuncts and attach each
/// single-label conjunct to its pattern node; multi-label conjuncts are
/// dropped (handled by the local pass).
fn assign_conjuncts(pattern: &PatternTree) -> HashMap<PatternNodeId, Vec<Cond>> {
    let mut out: HashMap<PatternNodeId, Vec<Cond>> = HashMap::new();
    for c in pattern.condition().conjuncts() {
        let labels = c.labels();
        if labels.len() == 1 {
            let label = *labels.iter().next().expect("len 1");
            if let Some(node) = pattern.node_by_label(label) {
                out.entry(node).or_default().push(c.clone());
            }
        }
    }
    out
}

/// The element-name test for a node: a specific tag when some conjunct
/// pins `tag = const`, else `*`.
fn node_name(per_node: &HashMap<PatternNodeId, Vec<Cond>>, node: PatternNodeId) -> String {
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
                return name;
            }
        }
    }
    "*".to_string()
}

fn is_valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_alphanumeric() || matches!(c, '_' | '-' | '.' | ':'))
        && s.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Quote a literal for XPath; `None` when it contains both quote kinds.
fn quote(s: &str) -> Option<String> {
    if !s.contains('\'') {
        Some(format!("'{s}'"))
    } else if !s.contains('"') {
        Some(format!("\"{s}\""))
    } else {
        None
    }
}

/// Predicate expressing a root-node conjunct on its own text value.
fn own_predicate(c: &Cond) -> Option<String> {
    match c {
        Cond::Cmp {
            lhs:
                Term::Attr {
                    attr: Attr::Content,
                    ..
                },
            op,
            rhs: Term::Const(v),
        } => {
            let lit = quote(&v.render())?;
            match op {
                CmpOp::Eq => Some(format!("text()={lit}")),
                CmpOp::Contains => Some(format!("contains(text(),{lit})")),
                CmpOp::Ne => Some(format!("text()!={lit}")),
                _ => None,
            }
        }
        Cond::InSet { term, set } => {
            if !matches!(
                term,
                Term::Attr {
                    attr: Attr::Content,
                    ..
                }
            ) {
                return None;
            }
            disjunction("text()", set.iter())
        }
        _ => None,
    }
}

/// Predicate for a child pattern node, nested under its parent.
fn child_predicate(
    pattern: &PatternTree,
    per_node: &HashMap<PatternNodeId, Vec<Cond>>,
    node: PatternNodeId,
) -> Option<String> {
    let name = node_name(per_node, node);
    let (_, kind) = pattern.parent_edge(node).expect("non-root");
    let prefix = match kind {
        EdgeKind::ParentChild => String::new(),
        EdgeKind::AncestorDescendant => ".//".to_string(),
    };
    let path = format!("{prefix}{name}");

    // content constraints on this node
    let mut inner: Vec<String> = Vec::new();
    let mut direct_cmp: Option<String> = None;
    for c in per_node.get(&node).into_iter().flatten() {
        match c {
            Cond::Cmp {
                lhs:
                    Term::Attr {
                        attr: Attr::Content,
                        ..
                    },
                op,
                rhs: Term::Const(v),
            } => {
                if let Some(lit) = quote(&v.render()) {
                    match op {
                        CmpOp::Eq if direct_cmp.is_none() && inner.is_empty() => {
                            direct_cmp = Some(format!("{path}={lit}"));
                        }
                        CmpOp::Eq => inner.push(format!("text()={lit}")),
                        CmpOp::Contains => inner.push(format!("contains(text(),{lit})")),
                        CmpOp::Ne => inner.push(format!("text()!={lit}")),
                        _ => {}
                    }
                }
            }
            Cond::InSet { term, set } => {
                if matches!(
                    term,
                    Term::Attr {
                        attr: Attr::Content,
                        ..
                    }
                ) {
                    if let Some(d) = disjunction("text()", set.iter()) {
                        inner.push(d);
                    }
                }
            }
            _ => {}
        }
    }
    // grandchildren nest further
    for &g in pattern.children(node) {
        if let Some(p) = child_predicate(pattern, per_node, g) {
            inner.push(p);
        }
    }

    match (direct_cmp, inner.is_empty()) {
        (Some(d), true) => Some(d),
        (Some(d), false) => {
            // turn the direct form back into a nested predicate
            let eq = d.split_once('=').expect("direct_cmp has =").1.to_string();
            let mut parts = vec![format!("text()={eq}")];
            parts.extend(inner);
            Some(format!("{path}[{}]", parts.join(" and ")))
        }
        (None, true) => Some(path),
        (None, false) => Some(format!("{path}[{}]", inner.join(" and "))),
    }
}

/// `(lhs='a' or lhs='b' or …)`; `None` when the set is empty or every
/// member is unquotable.
fn disjunction<'a>(
    lhs: &str,
    values: impl Iterator<Item = &'a String>,
) -> Option<String> {
    let parts: Vec<String> = values
        .filter_map(|v| quote(v).map(|lit| format!("{lhs}={lit}")))
        .collect();
    if parts.is_empty() {
        return None;
    }
    Some(format!("({})", parts.join(" or ")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tax::{Cond, Term};

    /// Validate that the compiled XPath parses in the engine.
    fn check_compiles(pattern: &PatternTree) {
        toss_xmldb::XPath::parse(&compile_xpath(pattern)).unwrap();
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
        let x = compile_xpath(&p);
        assert_eq!(x, "//inproceedings[author][year='1999']");
        check_compiles(&p);
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
        let x = compile_xpath(&p);
        assert_eq!(
            x,
            "//inproceedings[author[(text()='J. Ullman' or text()='Jeff Ullman')]]"
        );
        check_compiles(&p);
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
        let x = compile_xpath(&p);
        assert_eq!(x, "//inproceedings[.//booktitle='SIGMOD Conference']");
        check_compiles(&p);
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
        let x = compile_xpath(&p);
        assert_eq!(
            x,
            "//inproceedings[booktitle[contains(text(),'SIGMOD')]]"
        );
        check_compiles(&p);
    }

    #[test]
    fn wildcard_when_tag_unpinned() {
        let mut p = PatternTree::new(1);
        let root = p.root();
        p.add_child(root, 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::eq(Term::content(2), Term::str("x")))
            .unwrap();
        let x = compile_xpath(&p);
        assert_eq!(x, "//*[*='x']");
        check_compiles(&p);
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
        let x = compile_xpath(&p);
        assert_eq!(x, "//r[*][*]");
        check_compiles(&p);
    }

    #[test]
    fn quotes_in_literals() {
        let p = spine(
            &[
                ("a", EdgeKind::ParentChild),
                ("b", EdgeKind::ParentChild),
            ],
            vec![Cond::eq(Term::content(2), Term::str("O'Neil"))],
        );
        let x = compile_xpath(&p);
        assert!(x.contains("\"O'Neil\""));
        check_compiles(&p);
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
        let x = compile_xpath(&p);
        assert_eq!(x, "//paper[venue[booktitle='PODS']]");
        check_compiles(&p);
    }

    #[test]
    fn root_text_predicate() {
        let mut p = PatternTree::new(1);
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("year")),
            Cond::eq(Term::content(1), Term::int(1999)),
        ]))
        .unwrap();
        let x = compile_xpath(&p);
        assert_eq!(x, "//year[text()='1999']");
        check_compiles(&p);
    }
}
