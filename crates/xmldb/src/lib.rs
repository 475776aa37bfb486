//! # toss-xmldb — a native XML document store (Xindice substitute)
//!
//! The TOSS prototype ran on Apache Xindice, using it purely as an
//! XPath-answering XML document store. This crate supplies the same
//! capability natively in Rust:
//!
//! * [`parse_document`] / [`parse_forest`] — a hand-written,
//!   dependency-free XML parser producing `toss_tree::Tree` values
//!   (elements, attributes, text, CDATA, comments, processing
//!   instructions, the five standard entities and numeric character
//!   references). New documents may nest at most 256 levels; documents
//!   a store already holds are read back without that limit.
//!   [`measure_stored`] runs the same grammar without building a tree.
//! * [`Database`] / [`Collection`] — named collections of documents with
//!   a configurable per-collection size limit ([`DatabaseConfig`];
//!   defaults to Xindice's 5 MB, so the paper's Fig. 16(a) end-of-range
//!   regime is reproducible). Each collection keeps tag and (tag,
//!   content) inverted indexes, read through [`IndexView`], that seed
//!   descendant-axis lookups.
//! * [`xpath`] — an XPath-subset engine ([`XPath`]): child (`/`) and
//!   descendant-or-self (`//`) axes, name tests and `*` wildcards,
//!   predicates with `=`, `!=`, `contains()`, `text()`, attribute tests,
//!   `and`/`or`/`not()`, positional predicates, and top-level `|` union.
//!   This is the query surface the TOSS Query Executor's rewriter emits.
//! * [`storage`] — checksummed JSON snapshots, written atomically
//!   (temp file + fsync + rename); [`segidx`] — the `.seg` index sidecar
//!   a snapshot's collections attach frozen on open.
//! * [`DurableDatabase`] / [`DurableWriter`] — crash-safe persistence
//!   over a write-ahead journal of [`JournalOp`]s: mutations are logged
//!   and fsynced before they apply, checkpoints fold the journal into a
//!   fresh snapshot, and recovery replays the journal over the newest
//!   valid snapshot.
//! * [`Vfs`] — the filesystem abstraction ([`StdVfs`] for real disks,
//!   [`FaultVfs`] for deterministic crash and fault injection in tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod collection;
pub mod crc32;
mod database;
mod durable;
mod error;
mod index;
mod journal;
mod parser;
pub mod segidx;
pub mod storage;
mod vfs;
pub mod xpath;

pub use collection::{Collection, DocumentId};
pub use database::{Database, DatabaseConfig};
pub use durable::{apply_op, BatchValidator, DurableDatabase, DurableWriter, RecoveryReport};
pub use error::{CorruptionSite, DbError, DbResult};
pub use index::{IndexView, Posting, Postings};
pub use journal::{JournalOp, JournalRecord};
pub use parser::{measure_stored, parse_document, parse_forest, Measured};
pub use vfs::{FaultMode, FaultSchedule, FaultVfs, ScheduledFault, StdVfs, Vfs};
pub use xpath::{Candidates, NodeRef, XPath};
