//! Embedding enumeration.
//!
//! An embedding of pattern tree `P` into a data tree is a total mapping
//! from pattern nodes to data nodes that preserves pc/ad edges and whose
//! image satisfies the selection condition. Enumeration is backtracking in
//! pattern preorder; single-label conjuncts of the condition are pushed
//! down to the binding step so most candidates are rejected before the
//! search branches (the tag-equality conjuncts of a typical bibliographic
//! query prune almost everything). The split is a property of the pattern,
//! so it is made once, in [`Matcher::new`], not per data tree.

use crate::tax::condition::{compare_refs, Attr, Cond, Term, ValueRef};
use crate::tax::pattern::{EdgeKind, PatternNodeId, PatternTree};
use toss_tree::{NodeId, Tree};

/// One embedding: pattern node → data node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Embedding {
    map: Vec<NodeId>, // indexed by PatternNodeId
}

impl Embedding {
    /// Image of a pattern node.
    pub(crate) fn image(&self, p: PatternNodeId) -> NodeId {
        self.map[p.0]
    }

    /// All images in pattern-node order.
    pub fn images(&self) -> &[NodeId] {
        &self.map
    }
}

/// A pattern tree prepared for matching: everything about the enumeration
/// that depends on the pattern alone, computed once. The condition is
/// split into its top-level conjuncts; those over a single label are
/// attached to that label's pattern node and checked the moment the node
/// is bound, the rest once the assignment is total. Evaluation borrows
/// tags and contents from the data tree and resolves labels against the
/// image list: no per-tree maps, no cloned values.
///
/// Build one per query (or keep it: it is `Send + Sync` and immutable) and
/// run it over as many trees as needed.
#[derive(Debug)]
pub struct Matcher {
    /// Labels and pc/ad edges. Its own condition is `True`: the pattern's
    /// condition lives, split, in `local` and `global`.
    structure: PatternTree,
    /// Per pattern node, the conjuncts over that node's label alone.
    local: Vec<Vec<Cond>>,
    /// Conjuncts over several labels (or none).
    global: Vec<Cond>,
}

impl Matcher {
    /// Prepare `pattern` for matching.
    pub fn new(mut pattern: PatternTree) -> Self {
        let mut local = vec![Vec::new(); pattern.len()];
        let mut global = Vec::new();
        for c in pattern.take_condition().into_conjuncts() {
            let labels = c.labels();
            let node = match labels.len() {
                1 => labels.first().and_then(|&l| pattern.node_by_label(l)),
                _ => None,
            };
            match node {
                Some(p) => local[p.0].push(c),
                None => global.push(c),
            }
        }
        Matcher {
            structure: pattern,
            local,
            global,
        }
    }

    /// Pattern node carrying a label.
    pub(crate) fn node_by_label(&self, label: u32) -> Option<PatternNodeId> {
        self.structure.node_by_label(label)
    }

    /// Enumerate all embeddings of the pattern into `tree`, in pattern
    /// preorder over candidates in document order.
    pub fn embeddings(&self, tree: &Tree) -> Vec<Embedding> {
        let mut out = Vec::new();
        let mut images = Vec::with_capacity(self.structure.len());
        self.extend(tree, &mut images, &mut out);
        out
    }

    /// Bind the next pattern node (preorder = index order, so a node's
    /// parent is always bound before it) to each structurally admissible
    /// data node in turn.
    fn extend(&self, tree: &Tree, images: &mut Vec<NodeId>, out: &mut Vec<Embedding>) {
        let depth = images.len();
        if depth == self.structure.len() {
            if self.global.iter().all(|c| self.holds(tree, images, c)) {
                out.push(Embedding {
                    map: images.clone(),
                });
            }
            return;
        }
        match self.structure.parent_edge(PatternNodeId(depth)) {
            None => {
                for cand in tree.preorder() {
                    self.bind(tree, cand, images, out);
                }
            }
            Some((parent, EdgeKind::ParentChild)) => {
                for cand in tree.children(images[parent.0]) {
                    self.bind(tree, cand, images, out);
                }
            }
            Some((parent, EdgeKind::AncestorDescendant)) => {
                for cand in tree.descendants(images[parent.0]) {
                    self.bind(tree, cand, images, out);
                }
            }
        }
    }

    fn bind(
        &self,
        tree: &Tree,
        cand: NodeId,
        images: &mut Vec<NodeId>,
        out: &mut Vec<Embedding>,
    ) {
        let local = &self.local[images.len()];
        images.push(cand);
        if local.iter().all(|c| self.holds(tree, images, c)) {
            self.extend(tree, images, out);
        }
        images.pop();
    }

    /// Evaluate a term under the (possibly partial) assignment `images`;
    /// `None` for an unbound label or absent content.
    fn value<'a>(
        &'a self,
        tree: &'a Tree,
        images: &[NodeId],
        term: &'a Term,
    ) -> Option<ValueRef<'a>> {
        match term {
            Term::Const(v) => Some(v.into()),
            Term::Attr { label, attr } => {
                let node = *images.get(self.structure.node_by_label(*label)?.0)?;
                let data = tree.data(node).ok()?;
                match attr {
                    Attr::Tag => Some(ValueRef::Str(&data.tag)),
                    Attr::Content => data.content.as_ref().map(ValueRef::from),
                }
            }
        }
    }

    /// Whether `cond` holds under `images`. Atoms whose attributes are
    /// absent (missing content) are false.
    fn holds(&self, tree: &Tree, images: &[NodeId], cond: &Cond) -> bool {
        match cond {
            Cond::True => true,
            Cond::Cmp { lhs, op, rhs } => {
                match (self.value(tree, images, lhs), self.value(tree, images, rhs)) {
                    (Some(a), Some(b)) => compare_refs(a, *op, b),
                    _ => false,
                }
            }
            Cond::And(a, b) => self.holds(tree, images, a) && self.holds(tree, images, b),
            Cond::Or(a, b) => self.holds(tree, images, a) || self.holds(tree, images, b),
            Cond::Not(c) => !self.holds(tree, images, c),
            Cond::InSet { term, set } => self
                .value(tree, images, term)
                .is_some_and(|v| set.contains(v.render().as_ref())),
            Cond::SharedClass { lhs, rhs, classes } => {
                let (Some(a), Some(b)) =
                    (self.value(tree, images, lhs), self.value(tree, images, rhs))
                else {
                    return false;
                };
                let (ra, rb) = (a.render(), b.render());
                if ra == rb {
                    return true; // identical strings are trivially similar
                }
                match (classes.get(ra.as_ref()), classes.get(rb.as_ref())) {
                    (Some(ca), Some(cb)) => ca.iter().any(|c| cb.contains(c)),
                    _ => false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tax::pattern::{EdgeKind, PatternTree};
    use toss_tree::TreeBuilder;

    fn embeddings(pattern: &PatternTree, tree: &Tree) -> Vec<Embedding> {
        Matcher::new(pattern.clone()).embeddings(tree)
    }

    fn dblp_tree() -> Tree {
        // inproceedings(author, title, year(1999))
        TreeBuilder::new("inproceedings")
            .leaf("author", "AnHai Doan")
            .leaf("title", "Reconciling Schemas")
            .leaf("year", 2001i64)
            .build()
    }

    /// Figure 3's pattern: $1 with pc children $2, $3;
    /// F: $1.tag = inproceedings ∧ $2.tag = title ∧ $3.tag = year ∧ $3.content = <year>
    fn figure3_pattern(year: i64) -> PatternTree {
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.add_child(r, 3, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("inproceedings")),
            Cond::eq(Term::tag(2), Term::str("title")),
            Cond::eq(Term::tag(3), Term::str("year")),
            Cond::eq(Term::content(3), Term::int(year)),
        ]))
        .unwrap();
        p
    }

    #[test]
    fn figure3_pattern_matches() {
        let t = dblp_tree();
        let es = embeddings(&figure3_pattern(2001), &t);
        assert_eq!(es.len(), 1);
        let p = figure3_pattern(2001);
        assert_eq!(es[0].image(p.node_by_label(1).unwrap()), t.root().unwrap());
    }

    #[test]
    fn figure3_pattern_rejects_wrong_year() {
        let t = dblp_tree();
        assert!(embeddings(&figure3_pattern(1999), &t).is_empty());
    }

    #[test]
    fn unconstrained_single_node_matches_everywhere() {
        let t = dblp_tree();
        let p = PatternTree::new(1);
        assert_eq!(embeddings(&p, &t).len(), t.node_count());
    }

    #[test]
    fn pc_vs_ad_edges() {
        // r -> a -> b (nested)
        let t = TreeBuilder::new("r").open("a").leaf("b", "x").close().build();
        // pattern $1=r, $2=b via pc: no match (b is a grandchild)
        let mut pc = PatternTree::new(1);
        let root = pc.root();
        pc.add_child(root, 2, EdgeKind::ParentChild).unwrap();
        pc.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("r")),
            Cond::eq(Term::tag(2), Term::str("b")),
        ]))
        .unwrap();
        assert!(embeddings(&pc, &t).is_empty());
        // same but ad: matches
        let mut ad = PatternTree::new(1);
        let root = ad.root();
        ad.add_child(root, 2, EdgeKind::AncestorDescendant).unwrap();
        ad.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("r")),
            Cond::eq(Term::tag(2), Term::str("b")),
        ]))
        .unwrap();
        assert_eq!(embeddings(&ad, &t).len(), 1);
    }

    #[test]
    fn multiple_embeddings_for_repeated_children() {
        let t = TreeBuilder::new("paper")
            .leaf("author", "A")
            .leaf("author", "B")
            .build();
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::eq(Term::tag(2), Term::str("author")))
            .unwrap();
        let es = embeddings(&p, &t);
        assert_eq!(es.len(), 2);
    }

    #[test]
    fn cross_label_condition_join_on_content() {
        // find pairs of children with equal content
        let t = TreeBuilder::new("r")
            .leaf("x", "same")
            .leaf("y", "same")
            .leaf("z", "diff")
            .build();
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.add_child(r, 3, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(2), Term::str("x")),
            Cond::eq(Term::content(2), Term::content(3)),
            Cond::ne(Term::tag(3), Term::str("x")),
        ]))
        .unwrap();
        let es = embeddings(&p, &t);
        assert_eq!(es.len(), 1); // (x, y) only
    }

    #[test]
    fn missing_content_fails_atoms() {
        let t = TreeBuilder::new("r").empty("a").build();
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::eq(Term::content(2), Term::str("")))
            .unwrap();
        assert!(embeddings(&p, &t).is_empty());
        // but Not(content = "") succeeds vacuously? No: atoms with missing
        // values are false, so Not(false) = true.
        let mut p2 = PatternTree::new(1);
        let r2 = p2.root();
        p2.add_child(r2, 2, EdgeKind::ParentChild).unwrap();
        p2.set_condition(Cond::eq(Term::content(2), Term::str("")).not())
            .unwrap();
        assert_eq!(embeddings(&p2, &t).len(), 1);
    }

    #[test]
    fn empty_tree_has_no_embeddings() {
        let p = PatternTree::new(1);
        assert!(embeddings(&p, &Tree::new()).is_empty());
    }

    #[test]
    fn in_set_condition() {
        let t = TreeBuilder::new("paper")
            .leaf("author", "J. Ullman")
            .leaf("author", "E. Codd")
            .build();
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(2), Term::str("author")),
            Cond::in_set(
                Term::content(2),
                ["J. Ullman".to_string(), "Jeff Ullman".to_string()],
            ),
        ]))
        .unwrap();
        assert_eq!(embeddings(&p, &t).len(), 1);
    }

    #[test]
    fn shared_class_condition() {
        use std::collections::HashMap;
        let t = TreeBuilder::new("r")
            .leaf("a", "model")
            .leaf("b", "models")
            .leaf("c", "relation")
            .build();
        let mut classes: HashMap<String, Vec<u32>> = HashMap::new();
        classes.insert("model".into(), vec![0]);
        classes.insert("models".into(), vec![0]);
        classes.insert("relation".into(), vec![1]);
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.add_child(r, 3, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(2), Term::str("a")),
            Cond::shared_class(Term::content(2), Term::content(3), classes),
            Cond::ne(Term::tag(3), Term::str("a")),
        ]))
        .unwrap();
        // only ("model", "models") share class 0
        assert_eq!(embeddings(&p, &t).len(), 1);
    }

    #[test]
    fn shared_class_identical_strings_always_match() {
        use std::collections::HashMap;
        let t = TreeBuilder::new("r").leaf("a", "zzz").leaf("b", "zzz").build();
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.add_child(r, 3, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(2), Term::str("a")),
            Cond::eq(Term::tag(3), Term::str("b")),
            Cond::shared_class(Term::content(2), Term::content(3), HashMap::new()),
        ]))
        .unwrap();
        assert_eq!(embeddings(&p, &t).len(), 1);
    }

    #[test]
    fn contains_condition() {
        let t = dblp_tree();
        let mut p = PatternTree::new(1);
        let r = p.root();
        p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
        p.set_condition(Cond::all(vec![
            Cond::eq(Term::tag(2), Term::str("title")),
            Cond::contains(Term::content(2), Term::str("Schemas")),
        ]))
        .unwrap();
        assert_eq!(embeddings(&p, &t).len(), 1);
    }
}
