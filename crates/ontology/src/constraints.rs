//! Interoperation constraints (Definition 4).
//!
//! A constraint relates a term in one source hierarchy to a term in
//! another: `x:i ≤ y:j` or `x:i ≠ y:j`. Per the paper's note after
//! Definition 4, equality `x:i = y:j` desugars to the two `≤` constraints,
//! which [`Constraint::eq`] performs.

use std::fmt;

/// A term qualified by the index of the hierarchy it comes from —
/// the paper's `x : i` notation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TermRef {
    /// The term string.
    pub term: String,
    /// Index of the source hierarchy.
    pub source: usize,
}

impl TermRef {
    /// Build a `term:source` reference.
    pub(crate) fn new(term: impl Into<String>, source: usize) -> Self {
        TermRef {
            term: term.into(),
            source,
        }
    }
}

impl fmt::Display for TermRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.term, self.source)
    }
}

/// One interoperation constraint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Constraint {
    /// `x:i ≤ y:j` — the fused image of `x:i` must lie below that of
    /// `y:j`.
    Leq(TermRef, TermRef),
    /// `x:i ≠ y:j` — the fusion must not identify the two terms.
    Neq(TermRef, TermRef),
}

impl Constraint {
    /// `x:i ≤ y:j`.
    pub fn leq(x: impl Into<String>, i: usize, y: impl Into<String>, j: usize) -> Self {
        Constraint::Leq(TermRef::new(x, i), TermRef::new(y, j))
    }

    /// `x:i = y:j`, desugared to the two `≤` constraints.
    pub fn eq(x: impl Into<String>, i: usize, y: impl Into<String>, j: usize) -> Vec<Self> {
        let x = x.into();
        let y = y.into();
        vec![
            Constraint::Leq(TermRef::new(x.clone(), i), TermRef::new(y.clone(), j)),
            Constraint::Leq(TermRef::new(y, j), TermRef::new(x, i)),
        ]
    }

    /// The two endpoints of the constraint.
    pub fn endpoints(&self) -> (&TermRef, &TermRef) {
        match self {
            Constraint::Leq(a, b) | Constraint::Neq(a, b) => (a, b),
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Leq(a, b) => write!(f, "{a} ≤ {b}"),
            Constraint::Neq(a, b) => write!(f, "{a} ≠ {b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_desugars_to_two_leqs() {
        let cs = Constraint::eq("booktitle", 0, "conference", 1);
        assert_eq!(cs.len(), 2);
        assert_eq!(
            cs[0],
            Constraint::leq("booktitle", 0, "conference", 1)
        );
        assert_eq!(
            cs[1],
            Constraint::leq("conference", 1, "booktitle", 0)
        );
    }

    #[test]
    fn display_renders_paper_notation() {
        assert_eq!(
            Constraint::leq("x", 1, "y", 2).to_string(),
            "x:1 ≤ y:2"
        );
        assert_eq!(
            Constraint::Neq(TermRef::new("x", 1), TermRef::new("y", 2)).to_string(),
            "x:1 ≠ y:2"
        );
    }

    #[test]
    fn endpoints_accessor() {
        let c = Constraint::Neq(TermRef::new("a", 0), TermRef::new("b", 1));
        let (l, r) = c.endpoints();
        assert_eq!(l.term, "a");
        assert_eq!(r.source, 1);
    }
}
