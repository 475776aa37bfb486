//! Errors for ontology construction, fusion and similarity enhancement.

use std::fmt;

/// Errors raised while building, fusing or enhancing hierarchies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OntologyError {
    /// Adding an edge would create a cycle — hierarchies are DAGs.
    CycleDetected {
        /// Rendering of the lower node of the offending edge.
        below: String,
        /// Rendering of the upper node.
        above: String,
    },
    /// A referenced term does not exist in the hierarchy.
    UnknownTerm(String),
    /// A node was given a term that already belongs to another node
    /// (terms are unique across a hierarchy's nodes).
    DuplicateTerm(String),
    /// A stored SEO (`.ont.json`) could not be decoded; says which part.
    MalformedSeo(String),
    /// A node id did not belong to the hierarchy.
    InvalidNode(usize),
    /// Fusion failed: a `≠` constraint's endpoints were forced equal.
    InequalityViolated {
        /// One endpoint, as `term:source`.
        left: String,
        /// Other endpoint, as `term:source`.
        right: String,
    },
    /// An interoperation constraint referenced a hierarchy index out of
    /// range.
    BadSourceIndex {
        /// The offending index.
        index: usize,
        /// The number of hierarchies being fused.
        count: usize,
    },
    /// No similarity enhancement exists for the requested measure and ε
    /// (Definition 9: the triple is *similarity inconsistent*).
    SimilarityInconsistent(String),
    /// SEA was asked for a threshold that is not a finite non-negative
    /// number (the value as written), which no stored SEO could carry.
    BadEpsilon(String),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntologyError::CycleDetected { below, above } => {
                write!(f, "edge {below} ≤ {above} would create a cycle")
            }
            OntologyError::UnknownTerm(t) => write!(f, "unknown term `{t}`"),
            OntologyError::DuplicateTerm(t) => write!(f, "term `{t}` already belongs to a node"),
            OntologyError::MalformedSeo(why) => write!(f, "malformed SEO JSON: {why}"),
            OntologyError::InvalidNode(i) => write!(f, "invalid hierarchy node id {i}"),
            OntologyError::InequalityViolated { left, right } => {
                write!(f, "constraint {left} ≠ {right} violated by fusion")
            }
            OntologyError::BadSourceIndex { index, count } => {
                write!(f, "constraint references hierarchy {index} of {count}")
            }
            OntologyError::SimilarityInconsistent(why) => {
                write!(f, "similarity inconsistent: {why}")
            }
            OntologyError::BadEpsilon(e) => {
                write!(f, "ε must be a finite non-negative number, got {e}")
            }
        }
    }
}

impl std::error::Error for OntologyError {}

/// Result alias for ontology operations.
pub(crate) type OntologyResult<T> = Result<T, OntologyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_stable() {
        let e = OntologyError::CycleDetected {
            below: "a".into(),
            above: "b".into(),
        };
        assert_eq!(e.to_string(), "edge a ≤ b would create a cycle");
        assert_eq!(
            OntologyError::UnknownTerm("x".into()).to_string(),
            "unknown term `x`"
        );
        assert_eq!(
            OntologyError::BadSourceIndex { index: 3, count: 2 }.to_string(),
            "constraint references hierarchy 3 of 2"
        );
    }
}
