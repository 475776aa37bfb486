//! Errors for the TAX algebra.

use std::fmt;
use toss_tree::TreeError;

/// Errors raised by pattern construction or operator evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaxError {
    /// A pattern-node label was used twice.
    DuplicateLabel(u32),
    /// A condition or list referenced a label not present in the pattern.
    UnknownLabel(u32),
    /// A pattern node id did not belong to the pattern tree.
    InvalidPatternNode(usize),
    /// Underlying tree error (internal invariant breach).
    Tree(TreeError),
}

impl fmt::Display for TaxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaxError::DuplicateLabel(l) => write!(f, "duplicate pattern label ${l}"),
            TaxError::UnknownLabel(l) => write!(f, "unknown pattern label ${l}"),
            TaxError::InvalidPatternNode(i) => write!(f, "invalid pattern node id {i}"),
            TaxError::Tree(e) => write!(f, "tree error: {e}"),
        }
    }
}

impl std::error::Error for TaxError {}

impl From<TreeError> for TaxError {
    fn from(e: TreeError) -> Self {
        TaxError::Tree(e)
    }
}

/// Result alias for TAX operations.
pub(crate) type TaxResult<T> = Result<T, TaxError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert_eq!(TaxError::DuplicateLabel(2).to_string(), "duplicate pattern label $2");
        assert_eq!(TaxError::UnknownLabel(9).to_string(), "unknown pattern label $9");
        let e: TaxError = TreeError::InvalidNodeId(0).into();
        assert!(e.to_string().contains("tree error"));
    }
}
