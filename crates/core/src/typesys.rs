//! Type hierarchies (Section 5: "Types, Domain Values, and Hierarchies").
//!
//! A type hierarchy `H = (T_H, ≤_H)` orders type names. Type hierarchies
//! reuse the ontology crate's [`Hierarchy`] with type names as terms;
//! well-typedness asks them for least common supertypes. A type is known
//! by its name alone: the hierarchy's order and the registered conversion
//! functions are all that well-typedness and evaluation read.

use toss_ontology::Hierarchy;

/// A type hierarchy: a partial order on type names.
#[derive(Debug, Clone)]
pub struct TypeHierarchy {
    /// The ordered type names (`≤_H` as a Hasse diagram).
    pub order: Hierarchy,
}

impl TypeHierarchy {
    /// An empty hierarchy (no type names, no order yet).
    pub fn new() -> Self {
        TypeHierarchy {
            order: Hierarchy::new(),
        }
    }

    /// Register a subtype relation `below ≤_H above`, creating type names
    /// in the order as needed.
    pub fn add_subtype(&mut self, below: &str, above: &str) -> crate::TossResult<()> {
        self.order
            .add_leq(below, above)
            .map_err(crate::TossError::from)
    }

    /// Least upper bound of two type names in the hierarchy, if one
    /// exists — the *least common supertype* used by well-typedness.
    pub(crate) fn least_common_supertype(&self, a: &str, b: &str) -> Option<String> {
        let na = self.order.node_of(a)?;
        let nb = self.order.node_of(b)?;
        // candidates: nodes above both
        let above_a = self.order.above(na);
        let above_b = self.order.above(nb);
        let common: Vec<_> = above_a
            .iter()
            .filter(|x| above_b.contains(x))
            .copied()
            .collect();
        // least: the common upper bound below every other common upper bound
        let least = common
            .iter()
            .copied()
            .find(|&c| common.iter().all(|&other| self.order.leq(c, other)))?;
        self.order.terms_of(least).ok()?.first().cloned()
    }

}

impl Default for TypeHierarchy {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn length_hierarchy() -> TypeHierarchy {
        // mm ≤ length, cm ≤ length, length ≤ quantity
        let mut th = TypeHierarchy::new();
        th.add_subtype("mm", "length").unwrap();
        th.add_subtype("cm", "length").unwrap();
        th.add_subtype("length", "quantity").unwrap();
        th
    }

    #[test]
    fn least_common_supertype() {
        let th = length_hierarchy();
        assert_eq!(
            th.least_common_supertype("mm", "cm"),
            Some("length".to_string())
        );
        assert_eq!(
            th.least_common_supertype("mm", "quantity"),
            Some("quantity".to_string())
        );
        assert_eq!(
            th.least_common_supertype("mm", "mm"),
            Some("mm".to_string())
        );
        assert_eq!(th.least_common_supertype("mm", "missing"), None);
    }

    #[test]
    fn incomparable_without_common_ancestor() {
        let mut th = TypeHierarchy::new();
        th.add_subtype("a", "b").unwrap();
        th.add_subtype("c", "d").unwrap();
        assert_eq!(th.least_common_supertype("a", "c"), None);
    }
}
