//! Error types for the XML database.

use std::fmt;
use toss_tree::TreeError;

/// Which persistent structure a corruption was detected in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionSite {
    /// The snapshot file (checksum, version or structural mismatch).
    Snapshot,
    /// The write-ahead journal (a checksummed record failed verification).
    Journal,
}

impl fmt::Display for CorruptionSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptionSite::Snapshot => write!(f, "snapshot"),
            CorruptionSite::Journal => write!(f, "journal"),
        }
    }
}

/// Errors from parsing, storage or query evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// XML was malformed; carries byte offset and message.
    Parse {
        /// Byte offset in the input where the problem was detected.
        offset: usize,
        /// Human-readable description.
        message: String,
    },
    /// An XPath expression was malformed.
    XPathSyntax(String),
    /// A named collection does not exist.
    NoSuchCollection(String),
    /// A collection with that name already exists.
    CollectionExists(String),
    /// A document id was not found in the collection.
    NoSuchDocument(u64),
    /// Inserting a document would exceed the collection's size limit —
    /// mirrors Xindice's 5 MB per-collection cap that shaped the paper's
    /// experiments. Enforced on direct inserts *and* on journal replay.
    CollectionFull {
        /// The collection that refused the document.
        collection: String,
        /// The configured limit in bytes.
        limit: usize,
        /// The size the collection would reach.
        attempted: usize,
    },
    /// Snapshot persistence failed (I/O or structural problems that are
    /// not evidence of on-disk corruption).
    Storage(String),
    /// A persistent structure failed verification: checksum mismatch,
    /// impossible record, or a snapshot whose embedded checksum does not
    /// match its payload. Unlike [`DbError::Storage`], this indicates the
    /// bytes on disk were damaged after being written.
    Corruption {
        /// Which structure was damaged.
        site: CorruptionSite,
        /// What exactly failed to verify.
        detail: String,
    },
    /// An underlying tree operation failed (internal invariant breach).
    Tree(TreeError),
}

impl DbError {
    /// Shorthand for a snapshot-corruption error.
    pub(crate) fn snapshot_corruption(detail: impl Into<String>) -> Self {
        DbError::Corruption {
            site: CorruptionSite::Snapshot,
            detail: detail.into(),
        }
    }

    /// Shorthand for a journal-corruption error.
    pub(crate) fn journal_corruption(detail: impl Into<String>) -> Self {
        DbError::Corruption {
            site: CorruptionSite::Journal,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse { offset, message } => {
                write!(f, "XML parse error at byte {offset}: {message}")
            }
            DbError::XPathSyntax(m) => write!(f, "XPath syntax error: {m}"),
            DbError::NoSuchCollection(n) => write!(f, "no such collection `{n}`"),
            DbError::CollectionExists(n) => write!(f, "collection `{n}` already exists"),
            DbError::NoSuchDocument(id) => write!(f, "no such document #{id}"),
            DbError::CollectionFull {
                collection,
                limit,
                attempted,
            } => write!(
                f,
                "collection `{collection}` full: {attempted} bytes > limit {limit} bytes"
            ),
            DbError::Storage(m) => write!(f, "storage error: {m}"),
            DbError::Corruption { site, detail } => {
                write!(f, "{site} corruption detected: {detail}")
            }
            DbError::Tree(e) => write!(f, "tree error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<TreeError> for DbError {
    fn from(e: TreeError) -> Self {
        DbError::Tree(e)
    }
}

/// Result alias for database operations.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_variants() {
        let cases: Vec<(DbError, &str)> = vec![
            (
                DbError::Parse {
                    offset: 12,
                    message: "unexpected `<`".into(),
                },
                "XML parse error at byte 12: unexpected `<`",
            ),
            (
                DbError::NoSuchCollection("dblp".into()),
                "no such collection `dblp`",
            ),
            (
                DbError::CollectionFull {
                    collection: "dblp".into(),
                    limit: 100,
                    attempted: 150,
                },
                "collection `dblp` full: 150 bytes > limit 100 bytes",
            ),
            (
                DbError::snapshot_corruption("checksum mismatch"),
                "snapshot corruption detected: checksum mismatch",
            ),
            (
                DbError::journal_corruption("record 3 failed CRC"),
                "journal corruption detected: record 3 failed CRC",
            ),
        ];
        for (e, s) in cases {
            assert_eq!(e.to_string(), s);
        }
    }

    #[test]
    fn tree_error_converts() {
        let e: DbError = TreeError::InvalidNodeId(0).into();
        assert!(matches!(e, DbError::Tree(_)));
    }

    #[test]
    fn corruption_sites_are_distinct() {
        assert_ne!(
            DbError::snapshot_corruption("x"),
            DbError::journal_corruption("x")
        );
    }
}
