//! TOSS selection conditions (Section 5.1.1).
//!
//! Simple conditions have the form `X op Y` with
//! `op ∈ {=, ≠, ≤, ≥, ~, instance_of, subtype_of, above, below}` where
//! `X`, `Y` are terms: pattern-node attributes, types, or typed values.
//! `~` is the similarity operator — true iff a node of the SEO contains
//! both operands. Composites close under `and` / `or` / `not`.

use crate::error::{TossError, TossResult};
use crate::typesys::TypeHierarchy;
use toss_tax::Attr;
use toss_tree::Value;

/// A term in a TOSS condition.
#[derive(Debug, Clone, PartialEq)]
pub enum TossTerm {
    /// An attribute of the node bound to a pattern label (`$i.tag`,
    /// `$i.content`).
    Attr {
        /// The pattern label.
        label: u32,
        /// Which attribute.
        attr: Attr,
    },
    /// A typed value `v : τ` (type name optional when derivable — the
    /// builtin type is inferred from the value).
    Value {
        /// The value.
        value: Value,
        /// Explicit type annotation, if given.
        ty: Option<String>,
    },
    /// A type (or ontology term) name.
    Type(String),
}

impl TossTerm {
    /// `$label.tag`.
    pub fn tag(label: u32) -> Self {
        TossTerm::Attr {
            label,
            attr: Attr::Tag,
        }
    }

    /// `$label.content`.
    pub fn content(label: u32) -> Self {
        TossTerm::Attr {
            label,
            attr: Attr::Content,
        }
    }

    /// A string constant.
    pub fn str(s: &str) -> Self {
        TossTerm::Value {
            value: Value::Str(s.to_string()),
            ty: None,
        }
    }

    /// A typed value `v : τ`.
    pub fn typed(value: Value, ty: &str) -> Self {
        TossTerm::Value {
            value,
            ty: Some(ty.to_string()),
        }
    }

    /// A type name.
    pub fn ty(name: &str) -> Self {
        TossTerm::Type(name.to_string())
    }

    /// The type of the term in the context of a type hierarchy — the
    /// paper's `type(X)` (attribute types are only known per-binding, so
    /// attributes report `None` here and well-typedness of comparisons
    /// involving attributes is checked structurally).
    pub(crate) fn static_type(&self) -> Option<String> {
        match self {
            TossTerm::Attr { .. } => None,
            TossTerm::Value { value, ty } => Some(match ty {
                Some(t) => t.clone(),
                None => match value {
                    Value::Str(_) => "string".to_string(),
                    Value::Int(_) => "int".to_string(),
                    Value::Real(_) => "real".to_string(),
                },
            }),
            TossTerm::Type(t) => Some(t.clone()),
        }
    }
}

/// TOSS operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TossOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `≤`
    Le,
    /// `≥`
    Ge,
    /// `~` — similarity: true iff an SEO node contains both operands.
    Similar,
    /// `instance_of` — X's value is an instance of type/term Y.
    InstanceOf,
    /// `subtype_of` — X's type/term lies below Y in the hierarchy.
    SubtypeOf,
    /// `below` — `instance_of ∨ subtype_of`.
    Below,
    /// `above` — `Y below X`.
    Above,
    /// `part_of` — X lies below Y in the *part-of* hierarchy (the
    /// paper's Section-5 extension to arbitrary hierarchies; Example 12
    /// uses it with a wildcard tag).
    PartOf,
    /// substring containment — retained from TAX for baselines.
    Contains,
}

/// A TOSS selection condition.
#[derive(Debug, Clone, PartialEq)]
pub enum TossCond {
    /// Always true.
    True,
    /// A simple condition `lhs op rhs`.
    Cmp {
        /// Left term.
        lhs: TossTerm,
        /// Operator.
        op: TossOp,
        /// Right term.
        rhs: TossTerm,
    },
    /// Conjunction.
    And(Box<TossCond>, Box<TossCond>),
    /// Disjunction.
    Or(Box<TossCond>, Box<TossCond>),
    /// Negation.
    Not(Box<TossCond>),
}

impl TossCond {
    /// `lhs op rhs`.
    pub fn cmp(lhs: TossTerm, op: TossOp, rhs: TossTerm) -> Self {
        TossCond::Cmp { lhs, op, rhs }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: TossTerm, rhs: TossTerm) -> Self {
        Self::cmp(lhs, TossOp::Eq, rhs)
    }

    /// `lhs ~ rhs`.
    pub fn similar(lhs: TossTerm, rhs: TossTerm) -> Self {
        Self::cmp(lhs, TossOp::Similar, rhs)
    }

    /// `lhs below rhs` — the isa-style condition of the experiments.
    pub fn below(lhs: TossTerm, rhs: TossTerm) -> Self {
        Self::cmp(lhs, TossOp::Below, rhs)
    }

    /// Conjunction, flattening `True`.
    pub fn and(self, other: TossCond) -> TossCond {
        match (self, other) {
            (TossCond::True, c) | (c, TossCond::True) => c,
            (a, b) => TossCond::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction.
    pub fn or(self, other: TossCond) -> TossCond {
        TossCond::Or(Box::new(self), Box::new(other))
    }

    /// Negation. (A builder like `and`/`or`, deliberately not the `!`
    /// operator — conditions are built fluently, not evaluated here.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> TossCond {
        TossCond::Not(Box::new(self))
    }

    /// Conjunction of many.
    pub fn all(conds: impl IntoIterator<Item = TossCond>) -> TossCond {
        conds.into_iter().fold(TossCond::True, TossCond::and)
    }

    /// Well-typedness check (Section 5.1.1): `=, ≠, ≤, ≥` require a least
    /// common supertype with conversions; other operators are always
    /// well-typed. Comparisons involving attribute terms are checked at
    /// binding time (attribute types are data-dependent), so they pass
    /// here.
    pub fn well_typed(
        &self,
        hierarchy: &TypeHierarchy,
        conversions: &crate::convert::Conversions,
    ) -> TossResult<()> {
        match self {
            TossCond::True => Ok(()),
            TossCond::And(a, b) | TossCond::Or(a, b) => {
                a.well_typed(hierarchy, conversions)?;
                b.well_typed(hierarchy, conversions)
            }
            TossCond::Not(c) => c.well_typed(hierarchy, conversions),
            TossCond::Cmp { lhs, op, rhs } => {
                if !matches!(op, TossOp::Eq | TossOp::Ne | TossOp::Le | TossOp::Ge) {
                    return Ok(());
                }
                let (Some(ta), Some(tb)) = (lhs.static_type(), rhs.static_type()) else {
                    return Ok(()); // attribute side: checked per binding
                };
                if ta == tb {
                    return Ok(());
                }
                // builtin types compare among numerics
                let builtin = |t: &str| matches!(t, "string" | "int" | "real");
                if builtin(&ta) && builtin(&tb) {
                    if (ta == "string") != (tb == "string") {
                        return Err(TossError::IllTyped(format!(
                            "no least common supertype of {ta} and {tb}"
                        )));
                    }
                    return Ok(());
                }
                let lub = hierarchy.least_common_supertype(&ta, &tb).ok_or_else(|| {
                    TossError::IllTyped(format!(
                        "no least common supertype of {ta} and {tb}"
                    ))
                })?;
                for t in [&ta, &tb] {
                    if conversions.lookup(t, &lub).is_none() {
                        return Err(TossError::IllTyped(format!(
                            "missing conversion {t}2{lub}"
                        )));
                    }
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::Conversions;

    fn int(i: i64) -> TossTerm {
        TossTerm::Value {
            value: Value::Int(i),
            ty: None,
        }
    }

    #[test]
    fn static_types() {
        assert_eq!(TossTerm::str("x").static_type(), Some("string".into()));
        assert_eq!(int(3).static_type(), Some("int".into()));
        assert_eq!(
            TossTerm::typed(Value::Real(2.0), "mm").static_type(),
            Some("mm".into())
        );
        assert_eq!(TossTerm::ty("conference").static_type(), Some("conference".into()));
        assert_eq!(TossTerm::tag(1).static_type(), None);
    }

    #[test]
    fn well_typedness_of_builtins() {
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        TossCond::eq(int(1), int(2))
            .well_typed(&th, &cv)
            .unwrap();
        // int vs real: numeric, fine
        TossCond::cmp(int(1), TossOp::Le, TossTerm::Value {
            value: Value::Real(2.0),
            ty: None,
        })
        .well_typed(&th, &cv)
        .unwrap();
        // string vs int: ill-typed
        let e = TossCond::eq(TossTerm::str("1"), int(1))
            .well_typed(&th, &cv)
            .unwrap_err();
        assert!(matches!(e, TossError::IllTyped(_)));
    }

    #[test]
    fn well_typedness_with_unit_types() {
        let mut th = TypeHierarchy::new();
        th.add_subtype("mm", "length").unwrap();
        th.add_subtype("cm", "length").unwrap();
        let mut cv = Conversions::new();
        let cond = TossCond::cmp(
            TossTerm::typed(Value::Int(30), "mm"),
            TossOp::Le,
            TossTerm::typed(Value::Int(5), "cm"),
        );
        // conversions missing: ill-typed
        assert!(cond.well_typed(&th, &cv).is_err());
        cv.register("mm", "length", |x| x).unwrap();
        cv.register("cm", "length", |x| x * 10.0).unwrap();
        cond.well_typed(&th, &cv).unwrap();
    }

    #[test]
    fn similarity_and_ontology_ops_always_well_typed() {
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        TossCond::similar(TossTerm::str("a"), int(1))
            .well_typed(&th, &cv)
            .unwrap();
        TossCond::below(TossTerm::str("a"), TossTerm::ty("b"))
            .well_typed(&th, &cv)
            .unwrap();
    }

    #[test]
    fn attribute_comparisons_deferred() {
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        TossCond::eq(TossTerm::tag(1), TossTerm::str("x"))
            .well_typed(&th, &cv)
            .unwrap();
    }
}
