//! Errors for the TOSS layer.

use std::fmt;

/// Errors raised by TOSS components.
#[derive(Debug, Clone, PartialEq)]
pub enum TossError {
    /// A condition is not well-typed (no least common supertype or
    /// missing conversion functions).
    IllTyped(String),
    /// A conversion-function registration violated the Section-5 closure
    /// constraints.
    BadConversion(String),
    /// An ontology operation failed.
    Ontology(toss_ontology::OntologyError),
    /// A pattern-node label was used twice.
    DuplicateLabel(u32),
    /// A condition or list referenced a label not present in the pattern.
    UnknownLabel(u32),
    /// A pattern node id did not belong to the pattern tree.
    InvalidPatternNode(usize),
    /// A tree operation of the TAX algebra failed (internal invariant
    /// breach).
    Tree(toss_tree::TreeError),
    /// A database operation failed.
    Db(toss_xmldb::DbError),
    /// The executor was asked to compile a query shape it does not
    /// support (the paper's rewriter likewise targets the experiment's
    /// query shapes).
    Unsupported(String),
    /// A hard resource budget (or the deadline) was exceeded; the query
    /// was cancelled promptly. See [`crate::governor::QueryBudget`].
    BudgetExceeded(crate::governor::BudgetBreach),
    /// The query's [`crate::governor::CancelToken`] was tripped.
    Cancelled,
    /// The admission controller shed the query instead of queueing it
    /// unboundedly (load shedding under overload).
    Overloaded(String),
    /// A panic during query execution was caught and isolated
    /// ([`crate::AdmissionController::run_with_wait`]); the serving loop survives.
    Internal(String),
}

impl fmt::Display for TossError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TossError::IllTyped(m) => write!(f, "ill-typed condition: {m}"),
            TossError::BadConversion(m) => write!(f, "bad conversion function: {m}"),
            TossError::Ontology(e) => write!(f, "ontology error: {e}"),
            TossError::DuplicateLabel(l) => write!(f, "tax error: duplicate pattern label ${l}"),
            TossError::UnknownLabel(l) => write!(f, "tax error: unknown pattern label ${l}"),
            TossError::InvalidPatternNode(i) => {
                write!(f, "tax error: invalid pattern node id {i}")
            }
            TossError::Tree(e) => write!(f, "tax error: tree error: {e}"),
            TossError::Db(e) => write!(f, "database error: {e}"),
            TossError::Unsupported(m) => write!(f, "unsupported query shape: {m}"),
            TossError::BudgetExceeded(b) => write!(f, "{b}"),
            TossError::Cancelled => write!(f, "query cancelled"),
            TossError::Overloaded(m) => write!(f, "overloaded, query shed: {m}"),
            TossError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for TossError {}

impl From<toss_ontology::OntologyError> for TossError {
    fn from(e: toss_ontology::OntologyError) -> Self {
        TossError::Ontology(e)
    }
}

impl From<toss_xmldb::DbError> for TossError {
    fn from(e: toss_xmldb::DbError) -> Self {
        TossError::Db(e)
    }
}

impl From<toss_tree::TreeError> for TossError {
    fn from(e: toss_tree::TreeError) -> Self {
        TossError::Tree(e)
    }
}

/// Result alias for TOSS operations.
pub type TossResult<T> = Result<T, TossError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_from_substrate_errors() {
        let e: TossError = toss_xmldb::DbError::NoSuchCollection("x".into()).into();
        assert!(e.to_string().contains("database error"));
        let e: TossError =
            toss_ontology::OntologyError::UnknownTerm("t".into()).into();
        assert!(e.to_string().contains("ontology error"));
    }

    #[test]
    fn pattern_errors_display() {
        let cases = [
            (
                TossError::DuplicateLabel(1),
                "tax error: duplicate pattern label $1",
            ),
            (
                TossError::UnknownLabel(9),
                "tax error: unknown pattern label $9",
            ),
            (
                TossError::InvalidPatternNode(3),
                "tax error: invalid pattern node id 3",
            ),
            (
                toss_tree::TreeError::InvalidNodeId(0).into(),
                "tax error: tree error: invalid node id 0",
            ),
        ];
        for (e, text) in cases {
            assert_eq!(e.to_string(), text);
        }
    }
}
