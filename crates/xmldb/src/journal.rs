//! Append-only write-ahead journal.
//!
//! Every mutation of a [`crate::durable::DurableDatabase`] is appended
//! here — and fsynced — *before* it is applied in memory, so a crash at
//! any point loses at most the operation whose record never became
//! durable.
//!
//! ## On-disk format
//!
//! The file starts with the 8-byte magic `TOSSWAL1`, followed by zero or
//! more records:
//!
//! ```text
//! [u32 LE payload length][u32 LE CRC-32 of payload][payload bytes]
//! ```
//!
//! The payload is the compact JSON encoding of a sequence number plus a
//! [`JournalOp`]. Sequence numbers are assigned monotonically and never
//! reused, even across a [`Journal::rewrite`]; snapshots record the last
//! sequence they contain, which makes checkpointing crash-idempotent — a
//! crash between "snapshot written" and "journal truncated" merely leaves
//! records that replay skips as already-applied.
//!
//! Reading distinguishes two failure shapes:
//!
//! * **Torn tail** — the file ends mid-record (fewer than 8 header bytes,
//!   or fewer payload bytes than the header promises). This is the
//!   expected residue of a crash during an append and is *not* an error:
//!   the valid prefix is returned and the tail's byte count reported so
//!   the caller can truncate it.
//! * **Corruption** — a structurally complete record whose CRC does not
//!   match, or a bad magic. This means bytes that were once durable have
//!   been damaged; it surfaces as [`DbError::Corruption`].

use crate::crc32::crc32;
use crate::error::{DbError, DbResult};
use crate::vfs::Vfs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use toss_json::Value;

/// Magic bytes identifying a TOSS write-ahead journal, version 1.
pub(crate) const JOURNAL_MAGIC: &[u8; 8] = b"TOSSWAL1";

/// One logged mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalOp {
    /// `create_collection(name)`.
    CreateCollection {
        /// Collection name.
        name: String,
    },
    /// `drop_collection(name)`.
    DropCollection {
        /// Collection name.
        name: String,
    },
    /// Insert a document (stored as its compact XML serialization).
    Insert {
        /// Target collection.
        collection: String,
        /// Compact XML of the document.
        xml: String,
    },
    /// Remove a document by id.
    Remove {
        /// Target collection.
        collection: String,
        /// The document id.
        doc_id: u64,
    },
    /// Replace a document's content, keeping its id.
    Replace {
        /// Target collection.
        collection: String,
        /// The document id.
        doc_id: u64,
        /// Compact XML of the new content.
        xml: String,
    },
    /// Add ontology terms (one hierarchy node per term, if absent). A
    /// store no-op: replayed into the serving ontology, not the database.
    AddTerm {
        /// The terms to add.
        terms: Vec<String>,
    },
    /// Assert `below ≤ above` in the ontology, creating the term nodes as
    /// needed. A store no-op, like [`JournalOp::AddTerm`].
    AddEdge {
        /// The lesser term.
        below: String,
        /// The greater term.
        above: String,
    },
    /// No effect anywhere. Appended as a durability probe: a `Noop` that
    /// journals + fsyncs successfully proves the write path is healthy
    /// (used by the degraded-mode self-heal loop).
    Noop,
}

impl JournalOp {
    /// Whether the op feeds the serving ontology
    /// ([`JournalOp::AddTerm`], [`JournalOp::AddEdge`]).
    pub(crate) fn is_ontology(&self) -> bool {
        matches!(self, JournalOp::AddTerm { .. } | JournalOp::AddEdge { .. })
    }
}

/// A sequenced journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Monotonic sequence number (never reused across resets).
    pub seq: u64,
    /// The logged operation.
    pub op: JournalOp,
    /// Client-generated idempotency key the op was committed under, if
    /// any. Journaled with the record so a restarted server can rebuild
    /// its dedupe table from the journal tail — a retry of a write that
    /// was acknowledged just before a crash still dedupes.
    pub key: Option<String>,
}

/// Encode a record as a compact JSON payload.
fn encode_payload(seq: u64, op: &JournalOp, key: Option<&str>) -> Vec<u8> {
    let mut fields: Vec<(&str, Value)> = vec![("seq", seq.into())];
    if let Some(key) = key {
        fields.push(("key", key.into()));
    }
    match op {
        JournalOp::CreateCollection { name } => {
            fields.push(("op", "create".into()));
            fields.push(("collection", name.as_str().into()));
        }
        JournalOp::DropCollection { name } => {
            fields.push(("op", "drop".into()));
            fields.push(("collection", name.as_str().into()));
        }
        JournalOp::Insert { collection, xml } => {
            fields.push(("op", "insert".into()));
            fields.push(("collection", collection.as_str().into()));
            fields.push(("xml", xml.as_str().into()));
        }
        JournalOp::Remove { collection, doc_id } => {
            fields.push(("op", "remove".into()));
            fields.push(("collection", collection.as_str().into()));
            fields.push(("doc", (*doc_id).into()));
        }
        JournalOp::Replace {
            collection,
            doc_id,
            xml,
        } => {
            fields.push(("op", "replace".into()));
            fields.push(("collection", collection.as_str().into()));
            fields.push(("doc", (*doc_id).into()));
            fields.push(("xml", xml.as_str().into()));
        }
        JournalOp::AddTerm { terms } => {
            fields.push(("op", "add_term".into()));
            fields.push((
                "terms",
                Value::Array(terms.iter().map(|t| t.as_str().into()).collect()),
            ));
        }
        JournalOp::AddEdge { below, above } => {
            fields.push(("op", "add_edge".into()));
            fields.push(("below", below.as_str().into()));
            fields.push(("above", above.as_str().into()));
        }
        JournalOp::Noop => {
            fields.push(("op", "noop".into()));
        }
    }
    Value::object(fields).to_json().into_bytes()
}

/// Decode a payload produced by [`encode_payload`].
fn decode_payload(payload: &[u8]) -> DbResult<JournalRecord> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| DbError::journal_corruption("record payload is not UTF-8"))?;
    let value = Value::parse(text)
        .map_err(|e| DbError::journal_corruption(format!("record payload is not JSON: {e}")))?;
    let field = |name: &str| -> DbResult<&Value> {
        value
            .get(name)
            .ok_or_else(|| DbError::journal_corruption(format!("record missing field `{name}`")))
    };
    let str_field = |name: &str| -> DbResult<String> {
        field(name)?.as_str().map(str::to_string).ok_or_else(|| {
            DbError::journal_corruption(format!("record field `{name}` is not a string"))
        })
    };
    let int_field = |name: &str| -> DbResult<u64> {
        field(name)?
            .as_i64()
            .and_then(|v| u64::try_from(v).ok())
            .ok_or_else(|| {
                DbError::journal_corruption(format!(
                    "record field `{name}` is not a non-negative integer"
                ))
            })
    };
    let seq = int_field("seq")?;
    let op = match str_field("op")?.as_str() {
        "create" => JournalOp::CreateCollection {
            name: str_field("collection")?,
        },
        "drop" => JournalOp::DropCollection {
            name: str_field("collection")?,
        },
        "insert" => JournalOp::Insert {
            collection: str_field("collection")?,
            xml: str_field("xml")?,
        },
        "remove" => JournalOp::Remove {
            collection: str_field("collection")?,
            doc_id: int_field("doc")?,
        },
        "replace" => JournalOp::Replace {
            collection: str_field("collection")?,
            doc_id: int_field("doc")?,
            xml: str_field("xml")?,
        },
        "add_term" => {
            let items = field("terms")?.as_array().ok_or_else(|| {
                DbError::journal_corruption("record field `terms` is not an array")
            })?;
            let mut terms = Vec::with_capacity(items.len());
            for item in items {
                terms.push(item.as_str().map(str::to_string).ok_or_else(|| {
                    DbError::journal_corruption("record field `terms` holds a non-string")
                })?);
            }
            JournalOp::AddTerm { terms }
        }
        "add_edge" => JournalOp::AddEdge {
            below: str_field("below")?,
            above: str_field("above")?,
        },
        "noop" => JournalOp::Noop,
        other => {
            return Err(DbError::journal_corruption(format!(
                "unknown journal op `{other}`"
            )))
        }
    };
    let key = value
        .get("key")
        .and_then(Value::as_str)
        .map(str::to_string);
    Ok(JournalRecord { seq, op, key })
}

/// Frame a payload as a length-prefixed, checksummed record.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// Result of scanning a journal file.
#[derive(Debug)]
pub(crate) struct JournalScan {
    /// The decoded records of the valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte offset (including the magic) at which the valid record
    /// prefix ends. Everything past it is torn tail or damage.
    pub valid_bytes: usize,
    /// Bytes of torn (incomplete) tail record dropped from the end, if
    /// any. `0` means the valid prefix ran to the end of the file.
    pub torn_tail_bytes: usize,
    /// Corruption that cut the scan short (bad magic or a CRC-failing
    /// complete record). When set, `records` holds the prefix before the
    /// damage. [`Journal::scan`] turns this into a hard error; recovery
    /// reads it leniently.
    pub corruption: Option<DbError>,
}

/// An append-only, checksummed operation log bound to one file.
pub(crate) struct Journal {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    next_seq: u64,
    /// Byte length of the known-good record prefix on disk (including
    /// the magic). A failed append truncates back to this length before
    /// any further record may land, so torn bytes never end up
    /// mid-file.
    good_len: usize,
    /// Set when the bytes past `good_len` are damaged and could not be
    /// repaired (the truncation itself failed, or the file has a corrupt
    /// suffix). A poisoned journal refuses appends until a successful
    /// [`Journal::rewrite`] or a fresh open.
    poisoned: bool,
    /// Number of records in the known-good prefix, maintained
    /// incrementally so [`Journal::record_count`] never rescans the
    /// file (pending-op checks run on the write-latency path).
    record_count: usize,
    /// How many of those records are ontology ops, maintained the same
    /// way, so a checkpoint that must keep them knows without a scan
    /// whether there are any.
    ontology_count: usize,
    /// The idempotency key and sequence number of every keyed record in
    /// that prefix, in append order, maintained the same way, so a
    /// starting server reseeds its dedupe table without a scan.
    keys: Vec<(String, u64)>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("next_seq", &self.next_seq)
            .field("good_len", &self.good_len)
            .field("poisoned", &self.poisoned)
            .finish()
    }
}

impl Journal {
    /// Open (creating if needed) the journal at `path`, returning it with
    /// the lenient scan of the file as found — the open's one read. A
    /// brand-new file gets the magic header written and synced
    /// immediately. The next sequence number continues after the last
    /// valid record on disk, and is at least `min_next` (a snapshot's
    /// cursor, which may be ahead of a journal its checkpoint emptied).
    /// A torn tail (the residue of a crashed append) is trimmed right
    /// here, so appends always land on a record boundary; a corrupt
    /// suffix is left in place for forensics, but poisons the journal
    /// against appends until it is rewritten.
    pub(crate) fn open(
        path: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
        min_next: u64,
    ) -> DbResult<(Journal, JournalScan)> {
        let mut journal = Journal {
            path: path.into(),
            vfs,
            next_seq: 0,
            good_len: JOURNAL_MAGIC.len(),
            poisoned: false,
            record_count: 0,
            ontology_count: 0,
            keys: Vec::new(),
        };
        let exists = journal.vfs.exists(&journal.path);
        // a missing file scans as the bare magic: no records
        let scan = journal.scan_lenient()?;
        journal.next_seq = scan.records.last().map_or(0, |r| r.seq + 1).max(min_next);
        journal.good_len = scan.valid_bytes;
        journal.record_count = scan.records.len();
        journal.ontology_count = ontology_count(&scan.records);
        journal.keys = keys(&scan.records);
        if scan.corruption.is_some() {
            journal.poisoned = true;
        } else if !exists || scan.torn_tail_bytes > 0 || scan.valid_bytes < JOURNAL_MAGIC.len() {
            // A new file, a torn tail, or a file too short to even hold
            // the magic (e.g. created empty): rewrite to the clean prefix.
            journal.rewrite(&scan.records)?;
        }
        Ok((journal, scan))
    }

    /// The sequence number the next append will use.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Append one operation and fsync, returning its sequence number.
    /// Only after this returns `Ok` may the operation be applied in
    /// memory. On failure nothing was durably appended and the sequence
    /// is not consumed; any partial bytes the failed append left behind
    /// are truncated away *before* this returns, so a later successful
    /// append still produces a contiguous, valid journal. If that repair
    /// itself fails, the journal is poisoned: further appends are
    /// refused until a [`Journal::rewrite`] or a fresh open, because a
    /// new record could otherwise land after torn bytes mid-file.
    pub(crate) fn append(&mut self, op: &JournalOp) -> DbResult<u64> {
        self.append_records(std::iter::once((op, None)))
            .map(|seqs| seqs.start)
    }

    /// Group commit: append `ops` as consecutive records with **one**
    /// file append and **one** fsync, returning their sequence numbers.
    /// All-or-nothing at the durability level: either the whole batch is
    /// durable when this returns `Ok`, or (on `Err`) nothing was durably
    /// appended, no sequence number was consumed, and any partial bytes
    /// were truncated away exactly as in [`Journal::append`]. (A crash
    /// can still tear the batch mid-file — replay then sees a valid
    /// record prefix, which is precisely the unacknowledged-prefix
    /// contract: none of these ops were acknowledged.)
    ///
    /// An empty batch is a no-op returning no sequences.
    pub(crate) fn append_batch(&mut self, ops: &[JournalOp]) -> DbResult<Vec<u64>> {
        self.append_records(ops.iter().map(|op| (op, None)))
            .map(Iterator::collect)
    }

    /// [`Journal::append_batch`], with each op's idempotency key (if
    /// any) journaled inside its record. The keys play no role in
    /// replay; they let a restarted server rebuild its dedupe table
    /// from the journal tail, so acknowledged-then-retried writes stay
    /// deduplicated across a crash.
    pub(crate) fn append_batch_keyed(
        &mut self,
        ops: &[(JournalOp, Option<String>)],
    ) -> DbResult<Vec<u64>> {
        self.append_records(ops.iter().map(|(op, key)| (op, key.as_deref())))
            .map(Iterator::collect)
    }

    /// The one append path: frame `ops` (each with its optional
    /// idempotency key) as consecutive records, append them with one
    /// write and one fsync, and return the sequence numbers they took.
    /// On failure the partial bytes are truncated away and no sequence
    /// is consumed (see [`Journal::append`]).
    fn append_records<'a>(
        &mut self,
        ops: impl ExactSizeIterator<Item = (&'a JournalOp, Option<&'a str>)>,
    ) -> DbResult<std::ops::Range<u64>> {
        let first = self.next_seq;
        let n = ops.len() as u64;
        if n == 0 {
            return Ok(first..first);
        }
        if self.poisoned {
            return Err(DbError::Storage(
                "journal is poisoned after an unrepaired append failure; \
                 reopen or checkpoint to continue"
                    .into(),
            ));
        }
        let span = toss_obs::span("xmldb.journal.append");
        span.record("ops", n);
        let mut rec = Vec::new();
        let mut ontology = 0;
        let mut keys = Vec::new();
        for (seq, (op, key)) in (first..).zip(ops) {
            rec.extend_from_slice(&frame(&encode_payload(seq, op, key)));
            ontology += usize::from(op.is_ontology());
            keys.extend(key.map(|k| (k.to_owned(), seq)));
        }
        span.record("bytes", rec.len());
        let appended = self
            .vfs
            .append(&self.path, &rec)
            .map_err(|e| DbError::Storage(format!("journal append failed: {e}")))
            .and_then(|()| {
                self.vfs
                    .sync(&self.path)
                    .map_err(|e| DbError::Storage(format!("journal fsync failed: {e}")))
            });
        match appended {
            Ok(()) => {
                self.good_len += rec.len();
                self.next_seq = first + n;
                self.record_count += n as usize;
                self.ontology_count += ontology;
                self.keys.append(&mut keys);
                toss_obs::metrics::counter("xmldb.journal.appends").add(n);
                toss_obs::metrics::counter("xmldb.journal.fsyncs").inc();
                toss_obs::metrics::counter("xmldb.journal.bytes_appended").add(rec.len() as u64);
                toss_obs::metrics::histogram("xmldb.journal.batch_ops").observe(n);
                toss_obs::metrics::histogram("xmldb.journal.append_ns")
                    .observe_duration(span.finish());
                Ok(first..first + n)
            }
            Err(err) => {
                toss_obs::metrics::counter("xmldb.journal.append_failures").inc();
                span.record("failed", true);
                self.truncate_to_good_len();
                Err(err)
            }
        }
    }

    /// Cut the journal file back to the known-good prefix after a failed
    /// append. Uses the atomic rewrite path (temp file + fsync + rename)
    /// so the repair can never make things worse; if it fails, the
    /// journal is poisoned instead.
    fn truncate_to_good_len(&mut self) {
        let repaired = (|| -> std::io::Result<()> {
            let bytes = self.vfs.read(&self.path)?;
            if bytes.len() <= self.good_len {
                return Ok(()); // nothing stuck: the failed append left no residue
            }
            let mut good = bytes;
            good.truncate(self.good_len);
            let tmp = self.path.with_extension("wal.tmp");
            self.vfs.write(&tmp, &good)?;
            self.vfs.sync(&tmp)?;
            self.vfs.rename(&tmp, &self.path)
        })();
        if repaired.is_err() {
            self.poisoned = true;
        }
    }

    /// Scan the whole journal strictly. Torn tails are tolerated and
    /// reported; CRC mismatches on complete records are
    /// [`DbError::Corruption`].
    pub(crate) fn scan(&self) -> DbResult<JournalScan> {
        let scan = self.scan_lenient()?;
        match scan.corruption {
            Some(err) => Err(err),
            None => Ok(JournalScan {
                corruption: None,
                ..scan
            }),
        }
    }

    /// Scan leniently: corruption does not fail the call, it is returned
    /// in [`JournalScan::corruption`] alongside the valid prefix. I/O
    /// errors still fail.
    pub(crate) fn scan_lenient(&self) -> DbResult<JournalScan> {
        Self::scan_file(&self.path, &*self.vfs)
    }

    /// Scan the journal file at `path` without constructing (or
    /// creating) a [`Journal`]: a pure read that never touches disk
    /// state. This is what read-only opens use, so querying a store does
    /// not create or rewrite its WAL. Semantics match
    /// [`Journal::scan_lenient`]; a missing file reads as empty.
    pub(crate) fn scan_file(path: &Path, vfs: &dyn Vfs) -> DbResult<JournalScan> {
        let bytes = if vfs.exists(path) {
            vfs.read(path)
                .map_err(|e| DbError::Storage(format!("journal read failed: {e}")))?
        } else {
            JOURNAL_MAGIC.to_vec()
        };
        if bytes.len() < JOURNAL_MAGIC.len() {
            // A journal too short to hold the magic can only be a torn
            // initial write; treat the whole file as tail.
            return Ok(JournalScan {
                records: Vec::new(),
                valid_bytes: 0,
                torn_tail_bytes: bytes.len(),
                corruption: None,
            });
        }
        if &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Ok(JournalScan {
                records: Vec::new(),
                valid_bytes: 0,
                torn_tail_bytes: 0,
                corruption: Some(DbError::journal_corruption("bad journal magic")),
            });
        }
        let mut records = Vec::new();
        let mut pos = JOURNAL_MAGIC.len();
        while pos < bytes.len() {
            let remaining = bytes.len() - pos;
            if remaining < 8 {
                return Ok(JournalScan {
                    records,
                    valid_bytes: pos,
                    torn_tail_bytes: remaining,
                    corruption: None,
                });
            }
            let len = u32::from_le_bytes([
                bytes[pos],
                bytes[pos + 1],
                bytes[pos + 2],
                bytes[pos + 3],
            ]) as usize;
            let crc = u32::from_le_bytes([
                bytes[pos + 4],
                bytes[pos + 5],
                bytes[pos + 6],
                bytes[pos + 7],
            ]);
            if remaining - 8 < len {
                // Incomplete payload: the append was cut short.
                return Ok(JournalScan {
                    records,
                    valid_bytes: pos,
                    torn_tail_bytes: remaining,
                    corruption: None,
                });
            }
            let payload = &bytes[pos + 8..pos + 8 + len];
            if crc32(payload) != crc {
                return Ok(JournalScan {
                    valid_bytes: pos,
                    torn_tail_bytes: 0,
                    corruption: Some(DbError::journal_corruption(format!(
                        "record #{} at byte {pos} failed CRC check",
                        records.len()
                    ))),
                    records,
                });
            }
            match decode_payload(payload) {
                Ok(rec) => records.push(rec),
                Err(err) => {
                    return Ok(JournalScan {
                        records,
                        valid_bytes: pos,
                        torn_tail_bytes: 0,
                        corruption: Some(err),
                    })
                }
            }
            pos += 8 + len;
        }
        Ok(JournalScan {
            records,
            valid_bytes: pos,
            torn_tail_bytes: 0,
            corruption: None,
        })
    }

    /// Rewrite the journal to exactly `records` (used to trim a torn tail
    /// or a corrupt suffix discovered during recovery). The rewrite is
    /// atomic: a fresh file is written and synced, then renamed over the
    /// old journal — on failure the old file is untouched. A successful
    /// rewrite clears any append poisoning.
    pub(crate) fn rewrite(&mut self, records: &[JournalRecord]) -> DbResult<()> {
        let mut bytes = JOURNAL_MAGIC.to_vec();
        for rec in records {
            bytes.extend_from_slice(&frame(&encode_payload(
                rec.seq,
                &rec.op,
                rec.key.as_deref(),
            )));
        }
        let tmp = self.path.with_extension("wal.tmp");
        self.vfs
            .write(&tmp, &bytes)
            .map_err(|e| DbError::Storage(format!("journal rewrite failed: {e}")))?;
        self.vfs
            .sync(&tmp)
            .map_err(|e| DbError::Storage(format!("journal rewrite fsync failed: {e}")))?;
        self.vfs
            .rename(&tmp, &self.path)
            .map_err(|e| DbError::Storage(format!("journal rewrite rename failed: {e}")))?;
        self.good_len = bytes.len();
        self.poisoned = false;
        self.record_count = records.len();
        self.ontology_count = ontology_count(records);
        self.keys = keys(records);
        Ok(())
    }

    /// Number of records in the known-good prefix. Maintained
    /// incrementally — no file I/O — so per-batch pending-op checks
    /// stay O(1) instead of rescanning the whole journal.
    pub(crate) fn record_count(&self) -> usize {
        self.record_count
    }

    /// How many of [`Journal::record_count`]'s records are ontology ops.
    /// Maintained the same way, with no file I/O.
    pub(crate) fn ontology_count(&self) -> usize {
        self.ontology_count
    }

    /// The `(idempotency key, sequence number)` of every keyed record in
    /// the known-good prefix, in append order. Maintained the same way,
    /// with no file I/O.
    pub(crate) fn keys(&self) -> &[(String, u64)] {
        &self.keys
    }
}

fn ontology_count(records: &[JournalRecord]) -> usize {
    records.iter().filter(|r| r.op.is_ontology()).count()
}

fn keys(records: &[JournalRecord]) -> Vec<(String, u64)> {
    records
        .iter()
        .filter_map(|r| Some((r.key.clone()?, r.seq)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultMode, FaultVfs};

    fn mem() -> (Arc<FaultVfs>, Arc<dyn Vfs>) {
        let fs = Arc::new(FaultVfs::new());
        let dyn_fs: Arc<dyn Vfs> = fs.clone();
        (fs, dyn_fs)
    }

    fn sample_ops() -> Vec<JournalOp> {
        vec![
            JournalOp::CreateCollection { name: "dblp".into() },
            JournalOp::Insert {
                collection: "dblp".into(),
                xml: "<article><title>TOSS</title></article>".into(),
            },
            JournalOp::Replace {
                collection: "dblp".into(),
                doc_id: 0,
                xml: "<article><title>TAX</title></article>".into(),
            },
            JournalOp::Remove {
                collection: "dblp".into(),
                doc_id: 0,
            },
            JournalOp::DropCollection { name: "dblp".into() },
            JournalOp::AddTerm {
                terms: vec!["database".into(), "data base".into()],
            },
            JournalOp::AddEdge {
                below: "b-tree".into(),
                above: "index".into(),
            },
            JournalOp::Noop,
        ]
    }

    fn ops_of(scan: &JournalScan) -> Vec<JournalOp> {
        scan.records.iter().map(|r| r.op.clone()).collect()
    }

    #[test]
    fn ops_round_trip_through_encode_decode() {
        for (i, op) in sample_ops().into_iter().enumerate() {
            let rec = decode_payload(&encode_payload(i as u64, &op, None)).unwrap();
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.op, op);
            assert_eq!(rec.key, None);
            let rec =
                decode_payload(&encode_payload(i as u64, &op, Some("wk-1-2"))).unwrap();
            assert_eq!(rec.key.as_deref(), Some("wk-1-2"));
        }
    }

    /// The journal bytes are pinned: a change the encoder and the decoder
    /// make together round-trips, but fails here.
    #[test]
    fn the_journal_format_is_pinned() {
        let (_fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append_batch_keyed(&[
            (
                JournalOp::CreateCollection {
                    name: "dblp".into(),
                },
                Some("wk-1".into()),
            ),
            (
                JournalOp::Insert {
                    collection: "dblp".into(),
                    xml: "<a>\"q\" &amp; é</a>".into(),
                },
                None,
            ),
        ])
        .unwrap();
        j.append_batch(&[
            JournalOp::Remove {
                collection: "dblp".into(),
                doc_id: 0,
            },
            JournalOp::AddTerm {
                terms: vec!["data base".into()],
            },
        ])
        .unwrap();
        // the magic, then four `[len][crc][payload]` records
        let expected: &[u8] =
            b"TOSSWAL1\
              8\x00\x00\x00\xbf{\x19\xfa\
              {\"seq\":0,\"key\":\"wk-1\",\"op\":\"create\",\"collection\":\"dblp\"}\
              I\x00\x00\x00F\xbe5K\
              {\"seq\":1,\"op\":\"insert\",\"collection\":\"dblp\",\"xml\":\"<a>\\\"q\\\" &amp; \xc3\xa9</a>\"}\
              3\x00\x00\x00\xc9VE\xb2\
              {\"seq\":2,\"op\":\"remove\",\"collection\":\"dblp\",\"doc\":0}\
              /\x00\x00\x00m47\x9c\
              {\"seq\":3,\"op\":\"add_term\",\"terms\":[\"data base\"]}";
        assert_eq!(vfs.read(Path::new("db.wal")).unwrap(), expected);
    }

    #[test]
    fn keyed_batch_keys_survive_scan_rewrite_and_crash() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        let keyed: Vec<(JournalOp, Option<String>)> = sample_ops()
            .into_iter()
            .enumerate()
            .map(|(i, op)| (op, (i % 2 == 0).then(|| format!("wk-{i}"))))
            .collect();
        j.append_batch_keyed(&keyed).unwrap();
        let check = |j: &Journal| {
            let scan = j.scan().unwrap();
            for (i, rec) in scan.records.iter().enumerate() {
                let expect = (i % 2 == 0).then(|| format!("wk-{i}"));
                assert_eq!(rec.key, expect, "record {i}");
            }
        };
        check(&j);
        // A rewrite (torn-tail trim, checkpoint truncation) keeps keys.
        let records = j.scan().unwrap().records;
        j.rewrite(&records).unwrap();
        check(&j);
        fs.crash();
        let j = Journal::open("db.wal", vfs, 0).unwrap().0;
        check(&j);
    }

    #[test]
    fn record_count_tracks_appends_and_rewrites_without_scanning() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        assert_eq!(j.record_count(), 0);
        j.append(&sample_ops()[0]).unwrap();
        j.append_batch(&sample_ops()[1..4]).unwrap();
        assert_eq!(j.record_count(), 4);
        assert_eq!(j.scan().unwrap().records.len(), 4);
        // A failed append leaves the count untouched.
        fs.fail_op(fs.op_count(), FaultMode::Error);
        assert!(j.append(&sample_ops()[4]).is_err());
        assert_eq!(j.record_count(), 4);
        let records = j.scan().unwrap().records;
        j.rewrite(&records[..2]).unwrap();
        assert_eq!(j.record_count(), 2);
        j.rewrite(&[]).unwrap();
        assert_eq!(j.record_count(), 0);
        // Reopen recomputes the count from the file.
        j.append(&sample_ops()[0]).unwrap();
        fs.crash();
        let j = Journal::open("db.wal", vfs, 0).unwrap().0;
        assert_eq!(j.record_count(), 1);
    }

    #[test]
    fn ontology_count_tracks_appends_rewrites_and_reopens() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append_batch(&sample_ops()[..5]).unwrap();
        assert_eq!(j.ontology_count(), 0);
        // sample ops 5 and 6 are the add_term and add_edge
        j.append_batch(&sample_ops()[5..]).unwrap();
        assert_eq!((j.record_count(), j.ontology_count()), (8, 2));
        fs.fail_op(fs.op_count(), FaultMode::Error);
        assert!(j.append(&sample_ops()[5]).is_err());
        assert_eq!(j.ontology_count(), 2);
        let records = j.scan().unwrap().records;
        j.rewrite(&records[6..]).unwrap();
        assert_eq!((j.record_count(), j.ontology_count()), (2, 1));
        fs.crash();
        let j = Journal::open("db.wal", vfs, 0).unwrap().0;
        assert_eq!((j.record_count(), j.ontology_count()), (2, 1));
    }

    #[test]
    fn keys_track_appends_rewrites_and_reopens() {
        let (fs, vfs) = mem();
        let scanned = |j: &Journal| keys(&j.scan().unwrap().records);
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        let keyed: Vec<(JournalOp, Option<String>)> = sample_ops()
            .into_iter()
            .enumerate()
            .map(|(i, op)| (op, (i % 3 != 1).then(|| format!("wk-{i}"))))
            .collect();
        j.append_batch_keyed(&keyed[..4]).unwrap();
        j.append(&sample_ops()[4]).unwrap();
        j.append_batch_keyed(&keyed[4..]).unwrap();
        assert_eq!(j.keys().len(), 5);
        assert_eq!(j.keys(), scanned(&j));
        // A failed append leaves the keys untouched.
        fs.fail_op(fs.op_count(), FaultMode::Error);
        assert!(j.append_batch_keyed(&keyed[..1]).is_err());
        assert_eq!(j.keys(), scanned(&j));
        let records = j.scan().unwrap().records;
        j.rewrite(&records[3..]).unwrap();
        assert_eq!(j.keys(), scanned(&j));
        assert_eq!(j.keys()[0], ("wk-3".to_string(), 3));
        j.append_batch_keyed(&keyed[..1]).unwrap();
        assert_eq!(j.keys().last(), Some(&("wk-0".to_string(), 9)));
        fs.crash();
        let j = Journal::open("db.wal", vfs, 0).unwrap().0;
        assert_eq!(j.keys(), scanned(&j));
        assert_eq!(j.keys().len(), 4);
    }

    #[test]
    fn append_scan_round_trip_with_sequences() {
        let (_fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs, 0).unwrap().0;
        for (i, op) in sample_ops().iter().enumerate() {
            assert_eq!(j.append(op).unwrap(), i as u64);
        }
        let scan = j.scan().unwrap();
        assert_eq!(ops_of(&scan), sample_ops());
        assert_eq!(scan.torn_tail_bytes, 0);
        assert_eq!(
            scan.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            (0..sample_ops().len() as u64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_append_is_one_fsync_and_scans_identically() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        let before = fs.op_count();
        let seqs = j.append_batch(&sample_ops()).unwrap();
        // One append + one sync, regardless of batch size.
        assert_eq!(fs.op_count() - before, 2);
        assert_eq!(seqs, (0..sample_ops().len() as u64).collect::<Vec<_>>());
        assert_eq!(ops_of(&j.scan().unwrap()), sample_ops());
        assert!(j.append_batch(&[]).unwrap().is_empty());
        // The batch is durable: it survives a crash.
        fs.crash();
        let j = Journal::open("db.wal", vfs, 0).unwrap().0;
        assert_eq!(ops_of(&j.scan().unwrap()), sample_ops());
        assert_eq!(j.next_seq(), sample_ops().len() as u64);
    }

    #[test]
    fn failed_batch_consumes_nothing_and_repairs() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append(&sample_ops()[0]).unwrap();
        fs.fail_op(fs.op_count(), FaultMode::Tear { keep: 11 });
        assert!(j.append_batch(&sample_ops()[1..3]).is_err());
        // Sequence numbers were not consumed; the journal is contiguous.
        let seqs = j.append_batch(&sample_ops()[1..3]).unwrap();
        assert_eq!(seqs, vec![1, 2]);
        assert_eq!(ops_of(&j.scan().unwrap()), sample_ops()[..3]);
    }

    #[test]
    fn appends_survive_crash_and_seq_continues() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        for op in sample_ops() {
            j.append(&op).unwrap();
        }
        fs.crash();
        let j = Journal::open("db.wal", vfs, 0).unwrap().0;
        assert_eq!(ops_of(&j.scan().unwrap()), sample_ops());
        assert_eq!(j.next_seq(), sample_ops().len() as u64);
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        // A crash mid-append leaves a partial record. (The in-process
        // failure path repairs itself immediately, so model the crash
        // residue directly on the durable image.)
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append(&sample_ops()[0]).unwrap();
        let mut bytes = vfs.read(Path::new("db.wal")).unwrap();
        bytes.extend_from_slice(&[7, 7, 7, 7, 7]); // 5 torn bytes
        fs.corrupt(Path::new("db.wal"), bytes);
        // A pure scan reports the tail without touching the file.
        let scan = Journal::scan_file(Path::new("db.wal"), &*vfs).unwrap();
        assert_eq!(ops_of(&scan), vec![sample_ops()[0].clone()]);
        assert_eq!(scan.torn_tail_bytes, 5);
        assert!(scan.corruption.is_none());
        // Open trims the tail; the scan afterwards is clean.
        let scan = Journal::open("db.wal", vfs, 0).unwrap().0.scan().unwrap();
        assert_eq!(ops_of(&scan), vec![sample_ops()[0].clone()]);
        assert_eq!(scan.torn_tail_bytes, 0);
    }

    #[test]
    fn bit_flip_in_complete_record_is_corruption() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append(&sample_ops()[0]).unwrap();
        j.append(&sample_ops()[1]).unwrap();
        let mut bytes = vfs.read(Path::new("db.wal")).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs.corrupt(Path::new("db.wal"), bytes);
        let err = j.scan().unwrap_err();
        assert!(
            matches!(
                err,
                DbError::Corruption {
                    site: crate::error::CorruptionSite::Journal,
                    ..
                }
            ),
            "got {err:?}"
        );
        // Lenient scan surfaces the valid prefix alongside the error.
        let lenient = j.scan_lenient().unwrap();
        assert!(lenient.corruption.is_some());
        assert!(lenient.records.len() < 2);
    }

    #[test]
    fn bad_magic_is_corruption() {
        let (fs, vfs) = mem();
        fs.corrupt(Path::new("db.wal"), b"NOTAWAL!rest".to_vec());
        let j = Journal {
            path: "db.wal".into(),
            vfs,
            next_seq: 0,
            good_len: 0,
            poisoned: true,
            record_count: 0,
            ontology_count: 0,
            keys: Vec::new(),
        };
        assert!(matches!(j.scan(), Err(DbError::Corruption { .. })));
    }

    #[test]
    fn rewrite_trims_to_given_records() {
        let (_fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs, 0).unwrap().0;
        for op in sample_ops() {
            j.append(&op).unwrap();
        }
        let scan = j.scan().unwrap();
        j.rewrite(&scan.records[..2]).unwrap();
        assert_eq!(ops_of(&j.scan().unwrap()), sample_ops()[..2]);
        j.rewrite(&[]).unwrap();
        assert!(j.scan().unwrap().records.is_empty());
    }

    #[test]
    fn reset_survives_crash_and_seq_not_reused() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append(&sample_ops()[0]).unwrap();
        j.rewrite(&[]).unwrap();
        // In-process the journal still hands out fresh sequence numbers.
        assert_eq!(j.append(&sample_ops()[4]).unwrap(), 1);
        fs.crash();
        let scan = Journal::open("db.wal", vfs, 0).unwrap().0.scan().unwrap();
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].seq, 1);
    }

    #[test]
    fn failed_append_leaves_journal_unchanged() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append(&sample_ops()[0]).unwrap();
        fs.fail_op(fs.op_count(), FaultMode::Error);
        assert!(j.append(&sample_ops()[1]).is_err());
        assert_eq!(ops_of(&j.scan().unwrap()), vec![sample_ops()[0].clone()]);
        // The unconsumed sequence number is reused by the next append.
        assert_eq!(j.append(&sample_ops()[1]).unwrap(), 1);
    }

    #[test]
    fn torn_append_is_repaired_so_later_appends_stay_contiguous() {
        // The continue-after-fault shape from the review: a torn append
        // (ENOSPC mid-write) must not leave residue that a subsequent
        // successful append would land after, corrupting the journal
        // mid-file.
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append(&sample_ops()[0]).unwrap();
        fs.fail_op(fs.op_count(), FaultMode::Tear { keep: 5 });
        assert!(j.append(&sample_ops()[1]).is_err());
        // Keep going in the same process: the retried append must be
        // acknowledged durably and readably.
        assert_eq!(j.append(&sample_ops()[1]).unwrap(), 1);
        assert_eq!(
            ops_of(&j.scan().unwrap()),
            vec![sample_ops()[0].clone(), sample_ops()[1].clone()]
        );
        // And it survives a crash: strict reopen sees both records.
        fs.crash();
        let j = Journal::open("db.wal", vfs, 0).unwrap().0;
        assert_eq!(
            ops_of(&j.scan().unwrap()),
            vec![sample_ops()[0].clone(), sample_ops()[1].clone()]
        );
    }

    #[test]
    fn unrepairable_torn_append_poisons_until_rewrite() {
        let (fs, vfs) = mem();
        let mut j = Journal::open("db.wal", vfs.clone(), 0).unwrap().0;
        j.append(&sample_ops()[0]).unwrap();
        // Tear the append, then fail the repair's temp-file write too
        // (ops: torn append fires at op N, repair writes at op N+1).
        fs.fail_op(fs.op_count(), FaultMode::Tear { keep: 5 });
        fs.fail_op(fs.op_count() + 1, FaultMode::Error);
        assert!(j.append(&sample_ops()[1]).is_err());
        // Torn bytes are still on disk, so appends must refuse rather
        // than write after them.
        let err = j.append(&sample_ops()[1]).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "got {err}");
        // A successful rewrite (what checkpoint/recovery do) heals it.
        let records = j.scan_lenient().unwrap().records;
        j.rewrite(&records).unwrap();
        assert_eq!(j.append(&sample_ops()[1]).unwrap(), 1);
        assert_eq!(
            ops_of(&j.scan().unwrap()),
            vec![sample_ops()[0].clone(), sample_ops()[1].clone()]
        );
    }
}
