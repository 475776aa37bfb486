//! # toss-xmldb — a native XML document store (Xindice substitute)
//!
//! The TOSS prototype ran on Apache Xindice, using it purely as an
//! XPath-answering XML document store. This crate supplies the same
//! capability natively in Rust:
//!
//! * [`parser`] — a hand-written, dependency-free XML parser producing
//!   `toss_tree::Tree` values (elements, attributes, text, CDATA, comments,
//!   processing instructions, the five standard entities and numeric
//!   character references).
//! * [`collection`] / [`database`] — named collections of documents with a
//!   configurable per-collection size limit (defaults to Xindice's 5 MB,
//!   so the paper's Fig. 16(a) end-of-range regime is reproducible).
//! * [`xpath`] — an XPath-subset engine: child (`/`) and
//!   descendant-or-self (`//`) axes, name tests and `*` wildcards,
//!   predicates with `=`, `!=`, `contains()`, `text()`, attribute tests,
//!   `and`/`or`/`not()`, positional predicates, and top-level `|` union.
//!   This is the query surface the TOSS Query Executor's rewriter emits.
//! * [`index`] — tag and (tag, content) inverted indexes used to accelerate
//!   descendant-axis lookups.
//! * [`storage`] — checksummed JSON snapshots, written atomically
//!   (temp file + fsync + rename).
//! * [`journal`] / [`durable`] — a write-ahead journal and the
//!   [`durable::DurableDatabase`] wrapper giving crash-safe persistence:
//!   mutations are logged and fsynced before they apply, checkpoints fold
//!   the journal into a fresh snapshot, and recovery replays the journal
//!   over the newest valid snapshot.
//! * [`vfs`] — the filesystem abstraction ([`vfs::StdVfs`] for real disks,
//!   [`vfs::FaultVfs`] for deterministic crash and fault injection in
//!   tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collection;
pub mod crc32;
pub mod database;
pub mod durable;
pub mod error;
pub mod index;
pub mod journal;
pub mod parser;
pub mod segidx;
pub mod storage;
pub mod vfs;
pub mod xpath;

pub use collection::{Collection, DocumentId};
pub use database::{Database, DatabaseConfig};
pub use durable::{apply_op, BatchValidator, DurableDatabase, DurableWriter, RecoveryReport};
pub use error::{CorruptionSite, DbError, DbResult};
pub use index::{IndexView, Posting, Postings};
pub use journal::{Journal, JournalOp, JournalRecord};
pub use parser::{parse_document, parse_forest};
pub use vfs::{FaultMode, FaultSchedule, FaultVfs, ScheduledFault, StdVfs, Vfs};
pub use xpath::{planned_partitions, Candidates, NodeRef, XPath};
