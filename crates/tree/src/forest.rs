//! Forests: ordered collections of trees.
//!
//! A semistructured instance per Definition 1 is a *set of rooted directed
//! trees*; TAX operators consume and produce such collections. [`Forest`]
//! keeps trees in a stable order (document order for loaded XML, output
//! order for operator results) and offers set-theoretic helpers built on
//! ordered-isomorphism equality.

use crate::eq::{trees_equal, TreeSet};
use crate::tree::Tree;

/// An ordered collection of trees — a semistructured instance, a TAX
/// operator input, or a TAX operator output.
#[derive(Debug, Clone, Default)]
pub struct Forest {
    trees: Vec<Tree>,
}

impl Forest {
    /// An empty forest.
    pub fn new() -> Self {
        Forest { trees: Vec::new() }
    }

    /// A forest holding the given trees in order.
    pub fn from_trees(trees: Vec<Tree>) -> Self {
        Forest { trees }
    }

    /// Append a tree.
    pub fn push(&mut self, t: Tree) {
        self.trees.push(t);
    }

    /// The trees, in order.
    pub fn trees(&self) -> &[Tree] {
        &self.trees
    }

    /// Mutable access to the trees.
    pub fn trees_mut(&mut self) -> &mut Vec<Tree> {
        &mut self.trees
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether there are no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Iterate over the trees.
    pub fn iter(&self) -> std::slice::Iter<'_, Tree> {
        self.trees.iter()
    }

    /// Whether some member tree equals `t` under ordered isomorphism.
    pub fn contains_tree(&self, t: &Tree) -> bool {
        self.trees.iter().any(|x| trees_equal(x, t))
    }

    /// Set union: all trees of `self`, then trees of `other` not already
    /// present (by ordered isomorphism). Duplicates within each operand are
    /// also collapsed, matching set semantics.
    pub fn set_union(&self, other: &Forest) -> Forest {
        let mut seen = TreeSet::with_capacity(self.len() + other.len());
        self.trees
            .iter()
            .chain(&other.trees)
            .filter(|&t| seen.insert(t))
            .cloned()
            .collect()
    }

    /// Set intersection under ordered isomorphism (order follows `self`).
    pub fn set_intersection(&self, other: &Forest) -> Forest {
        let theirs: TreeSet = other.trees.iter().collect();
        let mut seen = TreeSet::with_capacity(self.len());
        self.trees
            .iter()
            .filter(|&t| theirs.contains(t) && seen.insert(t))
            .cloned()
            .collect()
    }

    /// Set difference `self − other` under ordered isomorphism.
    pub fn set_difference(&self, other: &Forest) -> Forest {
        let theirs: TreeSet = other.trees.iter().collect();
        let mut seen = TreeSet::with_capacity(self.len());
        self.trees
            .iter()
            .filter(|&t| !theirs.contains(t) && seen.insert(t))
            .cloned()
            .collect()
    }

}

impl IntoIterator for Forest {
    type Item = Tree;
    type IntoIter = std::vec::IntoIter<Tree>;

    fn into_iter(self) -> Self::IntoIter {
        self.trees.into_iter()
    }
}

impl<'a> IntoIterator for &'a Forest {
    type Item = &'a Tree;
    type IntoIter = std::slice::Iter<'a, Tree>;

    fn into_iter(self) -> Self::IntoIter {
        self.trees.iter()
    }
}

impl FromIterator<Tree> for Forest {
    fn from_iter<I: IntoIterator<Item = Tree>>(iter: I) -> Self {
        Forest {
            trees: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    fn t(tag: &str, val: &str) -> Tree {
        TreeBuilder::new("p").leaf(tag, val).build()
    }

    #[test]
    fn union_dedups_across_and_within() {
        let a = Forest::from_trees(vec![t("a", "1"), t("a", "1"), t("b", "2")]);
        let b = Forest::from_trees(vec![t("b", "2"), t("c", "3")]);
        let u = a.set_union(&b);
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn intersection_keeps_common_only() {
        let a = Forest::from_trees(vec![t("a", "1"), t("b", "2")]);
        let b = Forest::from_trees(vec![t("b", "2"), t("c", "3")]);
        let i = a.set_intersection(&b);
        assert_eq!(i.len(), 1);
        assert!(i.contains_tree(&t("b", "2")));
    }

    #[test]
    fn difference_removes_common() {
        let a = Forest::from_trees(vec![t("a", "1"), t("b", "2")]);
        let b = Forest::from_trees(vec![t("b", "2")]);
        let d = a.set_difference(&b);
        assert_eq!(d.len(), 1);
        assert!(d.contains_tree(&t("a", "1")));
    }

    #[test]
    fn empty_operands() {
        let a = Forest::from_trees(vec![t("a", "1")]);
        let e = Forest::new();
        assert_eq!(a.set_union(&e).len(), 1);
        assert_eq!(e.set_union(&a).len(), 1);
        assert_eq!(a.set_intersection(&e).len(), 0);
        assert_eq!(a.set_difference(&e).len(), 1);
        assert_eq!(e.set_difference(&a).len(), 0);
    }

    #[test]
    fn from_iterator_collects() {
        let f: Forest = vec![t("a", "1"), t("b", "2")].into_iter().collect();
        assert_eq!(f.len(), 2);
    }
}
