//! TAX selection conditions.
//!
//! Atomic conditions compare a pattern-node attribute (`$i.tag` or
//! `$i.content`) with another attribute or a constant; composites close
//! under `and`, `or`, `not`. The `Contains` operator is the substring
//! predicate the paper uses as TAX's stand-in for `isa` conditions in the
//! Section-6 experiments.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use toss_tree::Value;

/// Which attribute of a bound data node a term reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attr {
    /// The element tag.
    Tag,
    /// The text content (missing content compares as unequal to
    /// everything and fails ordered comparisons).
    Content,
}

/// A term in an atomic condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// An attribute of the data node bound to a pattern label.
    Attr {
        /// The pattern-node label (`$label`).
        label: u32,
        /// Which attribute.
        attr: Attr,
    },
    /// A constant value.
    Const(Value),
}

impl Term {
    /// `$label.tag`.
    pub fn tag(label: u32) -> Term {
        Term::Attr {
            label,
            attr: Attr::Tag,
        }
    }

    /// `$label.content`.
    pub fn content(label: u32) -> Term {
        Term::Attr {
            label,
            attr: Attr::Content,
        }
    }

    /// A string constant.
    pub fn str(s: &str) -> Term {
        Term::Const(Value::Str(s.to_string()))
    }

    /// An integer constant.
    pub fn int(i: i64) -> Term {
        Term::Const(Value::Int(i))
    }

    /// The label this term references, if any.
    pub(crate) fn label(&self) -> Option<u32> {
        match self {
            Term::Attr { label, .. } => Some(*label),
            Term::Const(_) => None,
        }
    }
}

/// Comparison operators of atomic conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
    /// substring containment (string-typed operands)
    Contains,
}

/// A selection condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// Always true (the empty condition).
    True,
    /// `lhs op rhs`.
    Cmp {
        /// Left term.
        lhs: Term,
        /// Operator.
        op: CmpOp,
        /// Right term.
        rhs: Term,
    },
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
    /// Membership of the term's rendered value in a precomputed string
    /// set — semantically the disjunction `⋁_{s ∈ set} term = s`, but
    /// evaluated as one hash lookup. This is how TOSS's SEO expansion
    /// stays efficient for large term sets.
    InSet {
        /// The term whose rendering is tested.
        term: Term,
        /// The admitted renderings.
        set: Arc<BTreeSet<String>>,
    },
    /// The two terms' renderings share a class id — semantically the
    /// disjunction over classes `⋁_c (lhs ∈ c ∧ rhs ∈ c)`, evaluated as a
    /// hash-join. TOSS expands `X ~ Y` between two attributes into this,
    /// with classes = the SEO's enhanced nodes.
    SharedClass {
        /// Left term.
        lhs: Term,
        /// Right term.
        rhs: Term,
        /// rendering → ids of the classes containing it.
        classes: Arc<HashMap<String, Vec<u32>>>,
    },
}

impl Cond {
    /// `lhs = rhs`.
    pub fn eq(lhs: Term, rhs: Term) -> Cond {
        Cond::Cmp {
            lhs,
            op: CmpOp::Eq,
            rhs,
        }
    }

    /// `lhs ≠ rhs`.
    pub fn ne(lhs: Term, rhs: Term) -> Cond {
        Cond::Cmp {
            lhs,
            op: CmpOp::Ne,
            rhs,
        }
    }

    /// `lhs contains rhs` (substring).
    pub fn contains(lhs: Term, rhs: Term) -> Cond {
        Cond::Cmp {
            lhs,
            op: CmpOp::Contains,
            rhs,
        }
    }

    /// Generic comparison.
    pub fn cmp(lhs: Term, op: CmpOp, rhs: Term) -> Cond {
        Cond::Cmp { lhs, op, rhs }
    }

    /// Conjunction, flattening `True`.
    pub(crate) fn and(self, other: Cond) -> Cond {
        match (self, other) {
            (Cond::True, c) | (c, Cond::True) => c,
            (a, b) => Cond::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction.
    pub fn or(self, other: Cond) -> Cond {
        Cond::Or(Box::new(self), Box::new(other))
    }

    /// Negation. (A builder like `and`/`or`, deliberately not the `!`
    /// operator — conditions are built fluently, not evaluated here.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Cond {
        Cond::Not(Box::new(self))
    }

    /// Membership of `term` in a string set.
    pub(crate) fn in_set(term: Term, set: impl IntoIterator<Item = String>) -> Cond {
        Cond::InSet {
            term,
            set: Arc::new(set.into_iter().collect()),
        }
    }

    /// Shared-class condition over a rendering → class-ids map.
    pub(crate) fn shared_class(lhs: Term, rhs: Term, classes: HashMap<String, Vec<u32>>) -> Cond {
        Cond::SharedClass {
            lhs,
            rhs,
            classes: Arc::new(classes),
        }
    }

    /// Conjunction of many conditions.
    pub fn all(conds: impl IntoIterator<Item = Cond>) -> Cond {
        conds.into_iter().fold(Cond::True, Cond::and)
    }

    /// All pattern labels referenced by the condition.
    pub(crate) fn labels(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels(&self, out: &mut BTreeSet<u32>) {
        match self {
            Cond::True => {}
            Cond::Cmp { lhs, rhs, .. } => {
                if let Some(l) = lhs.label() {
                    out.insert(l);
                }
                if let Some(l) = rhs.label() {
                    out.insert(l);
                }
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                a.collect_labels(out);
                b.collect_labels(out);
            }
            Cond::Not(c) => c.collect_labels(out),
            Cond::InSet { term, .. } => {
                if let Some(l) = term.label() {
                    out.insert(l);
                }
            }
            Cond::SharedClass { lhs, rhs, .. } => {
                if let Some(l) = lhs.label() {
                    out.insert(l);
                }
                if let Some(l) = rhs.label() {
                    out.insert(l);
                }
            }
        }
    }

    /// Split a top-level conjunction into its conjuncts, moved out, not
    /// cloned (the embedding enumerator pushes the single-label ones down
    /// to the node-binding step).
    pub(crate) fn into_conjuncts(self) -> Vec<Cond> {
        fn go(c: Cond, out: &mut Vec<Cond>) {
            match c {
                Cond::And(a, b) => {
                    go(*a, out);
                    go(*b, out);
                }
                Cond::True => {}
                other => out.push(other),
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out
    }
}

/// A borrowed view of an attribute value: what a term evaluates to
/// without cloning the node's tag or content. Tags are plain strings in
/// the tree, so this (not `&Value`) is the common currency of condition
/// evaluation.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueRef<'a> {
    Str(&'a str),
    Int(i64),
    Real(f64),
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Str(s) => ValueRef::Str(s),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Real(r) => ValueRef::Real(*r),
        }
    }
}

impl<'a> ValueRef<'a> {
    fn as_real(self) -> Option<f64> {
        match self {
            ValueRef::Str(_) => None,
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Real(r) => Some(r),
        }
    }

    /// The value as XML text content ([`Value::render`] without the
    /// allocation for strings).
    pub(crate) fn render(self) -> Cow<'a, str> {
        match self {
            ValueRef::Str(s) => Cow::Borrowed(s),
            ValueRef::Int(i) => Cow::Owned(i.to_string()),
            ValueRef::Real(r) => Cow::Owned(r.to_string()),
        }
    }
}

pub(crate) fn compare_refs(lhs: ValueRef<'_>, op: CmpOp, rhs: ValueRef<'_>) -> bool {
    use std::cmp::Ordering;
    // strings order lexicographically, numerics numerically (integers
    // widen); a string never compares with a number
    let ordering = || -> Option<Ordering> {
        match (lhs, rhs) {
            (ValueRef::Str(a), ValueRef::Str(b)) => Some(a.cmp(b)),
            _ => lhs.as_real()?.partial_cmp(&rhs.as_real()?),
        }
    };
    match op {
        CmpOp::Eq => ordering() == Some(Ordering::Equal),
        CmpOp::Ne => !compare_refs(lhs, CmpOp::Eq, rhs),
        CmpOp::Contains => match rhs {
            // numeric content vs string needle: compare renderings
            ValueRef::Str(needle) => lhs.render().contains(needle),
            _ => false,
        },
        CmpOp::Lt => ordering().is_some_and(Ordering::is_lt),
        CmpOp::Le => ordering().is_some_and(Ordering::is_le),
        CmpOp::Gt => ordering().is_some_and(Ordering::is_gt),
        CmpOp::Ge => ordering().is_some_and(Ordering::is_ge),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compare(lhs: &Value, op: CmpOp, rhs: &Value) -> bool {
        compare_refs(lhs.into(), op, rhs.into())
    }

    #[test]
    fn non_canonical_numeric_text_is_a_string_to_conditions() {
        // the loader keeps `12.50` as text so it serializes unchanged, and
        // a string never compares with a number: numeric conditions do not
        // match it, string ones do
        let price = Value::parse_lexical("12.50");
        assert_eq!(price, Value::Str("12.50".into()));
        assert!(!compare(&price, CmpOp::Eq, &Value::Real(12.5)));
        assert!(!compare(&price, CmpOp::Le, &Value::Int(20)));
        assert!(compare(&price, CmpOp::Eq, &Value::Str("12.50".into())));
        // canonical text is still a number
        let price = Value::parse_lexical("12.5");
        assert!(compare(&price, CmpOp::Eq, &Value::Real(12.5)));
        assert!(compare(&price, CmpOp::Le, &Value::Int(20)));
    }

    #[test]
    fn compare_equality_and_numeric_coercion() {
        assert!(compare(&Value::Int(1999), CmpOp::Eq, &Value::Int(1999)));
        assert!(compare(&Value::Int(2), CmpOp::Eq, &Value::Real(2.0)));
        assert!(!compare(
            &Value::Str("1999".into()),
            CmpOp::Eq,
            &Value::Int(1999)
        ));
        assert!(compare(
            &Value::Str("a".into()),
            CmpOp::Ne,
            &Value::Str("b".into())
        ));
    }

    #[test]
    fn compare_ordering() {
        assert!(compare(&Value::Int(1), CmpOp::Lt, &Value::Int(2)));
        assert!(compare(&Value::Int(2), CmpOp::Le, &Value::Int(2)));
        assert!(compare(
            &Value::Str("abc".into()),
            CmpOp::Lt,
            &Value::Str("abd".into())
        ));
        // ill-typed ordered comparison is false
        assert!(!compare(&Value::Str("1".into()), CmpOp::Lt, &Value::Int(2)));
    }

    #[test]
    fn compare_contains() {
        assert!(compare(
            &Value::Str("SIGMOD Conference".into()),
            CmpOp::Contains,
            &Value::Str("SIGMOD".into())
        ));
        assert!(!compare(
            &Value::Str("VLDB".into()),
            CmpOp::Contains,
            &Value::Str("SIGMOD".into())
        ));
        // numeric lhs renders before matching
        assert!(compare(
            &Value::Int(1999),
            CmpOp::Contains,
            &Value::Str("99".into())
        ));
    }

    #[test]
    fn labels_collected_across_structure() {
        let c = Cond::eq(Term::tag(1), Term::str("a"))
            .and(Cond::contains(Term::content(3), Term::str("x")))
            .or(Cond::ne(Term::tag(2), Term::content(5)).not());
        let labels: Vec<u32> = c.labels().into_iter().collect();
        assert_eq!(labels, vec![1, 2, 3, 5]);
    }

    #[test]
    fn and_flattens_true() {
        let c = Cond::True.and(Cond::eq(Term::tag(1), Term::str("a")));
        assert!(matches!(c, Cond::Cmp { .. }));
        let all = Cond::all(vec![]);
        assert_eq!(all, Cond::True);
    }

    #[test]
    fn conjuncts_split() {
        let c = Cond::all(vec![
            Cond::eq(Term::tag(1), Term::str("a")),
            Cond::eq(Term::tag(2), Term::str("b")),
            Cond::eq(Term::tag(3), Term::str("c")).or(Cond::True),
        ]);
        assert_eq!(c.into_conjuncts().len(), 3);
        assert_eq!(Cond::True.into_conjuncts().len(), 0);
    }
}
