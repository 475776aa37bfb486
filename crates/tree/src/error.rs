//! Error types for the tree crate.

use std::fmt;

/// Errors raised by tree construction and manipulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A [`crate::NodeId`] referred to a node not present in the arena
    /// (stale id or id from a different tree).
    InvalidNodeId(usize),
    /// Attaching a node would create a cycle or a second parent.
    StructureViolation(String),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::InvalidNodeId(id) => write!(f, "invalid node id {id}"),
            TreeError::StructureViolation(msg) => write!(f, "structure violation: {msg}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// Result alias used throughout the crate.
pub(crate) type TreeResult<T> = Result<T, TreeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(TreeError::InvalidNodeId(3).to_string(), "invalid node id 3");
        assert_eq!(
            TreeError::StructureViolation("x".into()).to_string(),
            "structure violation: x"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<TreeError>();
    }
}
