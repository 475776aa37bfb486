//! Checksummed, atomically-written snapshot persistence.
//!
//! Databases serialize to a single JSON file: collection names, per-document
//! compact XML, and the configured size limit. On load the XML is checked
//! by the parser's grammar and kept, and each document's tree is built
//! from it when first read, so the snapshot format stays independent of
//! in-memory layout (the same property Xindice got from its filer
//! abstraction).
//!
//! ## Format
//!
//! Version 2 (written by [`to_json`]) wraps the payload with an embedded
//! CRC-32 so load can prove the bytes were not damaged after the write:
//!
//! ```json
//! {"version":2,"checksum":<crc32 of data as written>,"data":{
//!     "collection_size_limit":...,"last_seq":...,"collections":[
//!         {"name":...,"next_id":...,"documents":[{"id":...,"xml":...},...]}]}}
//! ```
//!
//! Document ids (and each collection's id counter) are part of the
//! format: ids are never reused, and the journal addresses documents by
//! id, so a load that re-numbered documents would corrupt replay.
//!
//! Version 1 snapshots (the pre-checksum flat layout) are still accepted
//! by [`from_json`], so existing stores open unchanged.
//!
//! ## Writing
//!
//! [`to_json_with_seq`] streams `data` straight from the collections into
//! one `String` — each document's compact XML escaped by
//! [`toss_json::write_escaped`], the rule `Value::to_json` uses — CRCs it
//! once and wraps the envelope around it. No `Value` of the store is
//! built; the bytes are the ones rendering such a `Value` would give. A
//! document that kept its XML from the snapshot it was read from, and
//! whose XML is already its tree's compact rendering ("canonical"), is
//! copied as it is; every other document's tree is rendered.
//!
//! ## Reading and verifying
//!
//! One decoding walk reads a snapshot, for open and checkpoint verify
//! alike. It parses the text once, by the grammar of `Value::parse`,
//! into a [`Borrowed`] value whose strings are the literals as written,
//! not yet unescaped. So a malformed snapshot fails with exactly that
//! parse's error, before any checksum or XML error, and no document is
//! copied on the calling thread: from each entry the walk takes only its
//! id and its still-escaped `xml` literal.
//!
//! The walk checks the envelope (version, checksum) and the header
//! fields, then hands each collection header and each document to a
//! sink. Open's sink builds the [`Database`]. With a `.seg` to attach,
//! its documents keep their XML and build no tree until something reads
//! one (a query's visit, a remove or replace taking out postings).
//! Without one, every collection is indexed from all its trees as it
//! ends, so each tree is parsed where its document is decoded and no XML
//! is kept. A checkpoint's verify runs the same walk into a
//! sink that checks only what building would check — a taken collection
//! name, a duplicate id, the size limit — and keeps only sizes. It
//! returns exactly the error a load of the same bytes would, without
//! building collections or indexes.
//!
//! The checksum is the CRC of `data` as written, and the writer writes
//! `data` in its compact rendering. So a load first CRCs the stored bytes
//! between the writer's envelope and the closing `}`; only a snapshot
//! laid out differently (reformatted, padded) is checked by re-rendering
//! its parsed `data`, and a mismatch reports that rendering's CRC. A
//! version 1 snapshot has no checksum. Past the checksum, every layout
//! takes the same walk.
//!
//! The walk gathers a collection's entries up to the first structurally
//! broken one, then decodes them on a [`WorkerPool`] in bounded rounds.
//! Each task unescapes each literal into one reused buffer and measures
//! it with [`measure_stored`] — the grammar that builds a stored
//! document's tree, run into a sink that builds nothing and returns the
//! compact size and whether the XML is canonical, with the parse's exact
//! errors — copying the XML into a `Box<str>` of the document's own when
//! open keeps it (or parsing its tree when open builds it). The sink
//! sees the documents in file order, so the error is
//! the one-at-a-time walk's: the first failing document's first failing
//! check — structural, XML, then the sink's.
//!
//! ## Atomicity
//!
//! [`save_json_with_vfs`] never writes the target file in place. It writes
//! a temp file, fsyncs it, and renames it over the target — so a crash at
//! any moment leaves either the complete old snapshot or the complete new
//! one, never a torn mixture. A checkpoint (`save_verified_json`, behind
//! [`crate::DurableWriter::checkpoint`]) also reads the temp file back
//! and verifies it *before* the rename, so a snapshot that would not
//! load never replaces one that does. The
//! protocol runs against any [`Vfs`], which is how the fault-injection
//! suite proves it.

use crate::collection::{check_size_limit, duplicate_id, DocumentId, StoredDocument};
use crate::crc32::crc32;
use crate::database::{Database, DatabaseConfig};
use crate::error::{DbError, DbResult};
use crate::parser::measure_stored;
use crate::segidx::FrozenIndex;
use crate::vfs::Vfs;
use std::collections::{BTreeSet, HashSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use toss_json::{write_escaped, Borrowed, RawStr};
use toss_pool::{partition_ranges, WorkerPool};
use toss_segment::Segment;
use toss_tree::serialize::{compact_len, write_xml, Style};

/// Snapshot format version written by this build.
pub(crate) const SNAPSHOT_VERSION: u32 = 2;

/// Append the inner `data` object (config + collections + journal
/// cursor) to `out`. Integers are written the way `Value::Int` renders
/// them, `as i64` casts included, so the bytes match the `Value` route.
fn write_data(db: &Database, last_seq: u64, out: &mut String) {
    out.push_str("{\"collection_size_limit\":");
    match db.config().collection_size_limit {
        Some(n) => {
            let _ = write!(out, "{}", n as i64);
        }
        None => out.push_str("null"),
    }
    // The journal cursor: every journal record with seq < last_seq is
    // already reflected in this snapshot and must be skipped on replay.
    // This is what makes checkpointing crash-idempotent.
    let _ = write!(out, ",\"last_seq\":{},\"collections\":[", last_seq as i64);
    let mut xml = String::new();
    for (i, c) in db.collections().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_escaped(out, c.name());
        // The id counter is stored explicitly: ids are monotonic and
        // never reused, so a gap above the largest live id (highest-
        // numbered document removed) must survive the round trip too.
        let _ = write!(out, ",\"next_id\":{},\"documents\":[", c.next_id() as i64);
        for (j, d) in c.documents().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":{},\"xml\":", d.id.0 as i64);
            // XML kept from the snapshot that is already the tree's
            // compact rendering is copied, and the tree need not exist
            match d.canonical_xml() {
                Some(kept) => write_escaped(out, kept),
                None => {
                    xml.clear();
                    write_xml(d.tree(), Style::Compact, &mut xml);
                    write_escaped(out, &xml);
                }
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push_str("]}");
}

/// Serialize a database to a checksummed (version 2) JSON snapshot that
/// records `last_seq` as the highest journal sequence it contains.
pub fn to_json_with_seq(db: &Database, last_seq: u64) -> DbResult<String> {
    // Reserve once instead of doubling up to the snapshot's size: the
    // documents' compact XML, plus per document its id, keys, quotes and
    // an escaped attribute-quote pair, plus the collection headers and
    // the envelope.
    let capacity = 160
        + db.collections()
            .map(|c| c.size_bytes() + 48 * c.documents().len() + 64 + 2 * c.name().len())
            .sum::<usize>();
    let mut out = String::with_capacity(capacity);
    write_data(db, last_seq, &mut out);
    out.insert_str(0, &envelope_prefix(crc32(out.as_bytes())));
    out.push('}');
    // hand back the estimate's slack
    out.shrink_to_fit();
    Ok(out)
}

/// Serialize a database to a checksummed (version 2) JSON snapshot.
pub fn to_json(db: &Database) -> DbResult<String> {
    to_json_with_seq(db, 0)
}

/// The version-2 envelope up to `data`'s value, exactly as the writer
/// puts it in front of the `data` it streamed.
fn envelope_prefix(checksum: u32) -> String {
    format!("{{\"version\":{SNAPSHOT_VERSION},\"checksum\":{checksum},\"data\":")
}

/// `data` as the writer stored it: the bytes between the writer's
/// envelope for `checksum` and the closing `}`. `None` when `text` is not
/// framed that way (reformatted by hand, padded, not this writer's).
fn stored_data(text: &str, checksum: u32) -> Option<&str> {
    text.strip_prefix(envelope_prefix(checksum).as_str())?
        .strip_suffix('}')
}

/// Snapshot bytes as text; anything else is corruption.
fn snapshot_text(bytes: Vec<u8>) -> DbResult<String> {
    String::from_utf8(bytes)
        .map_err(|_| DbError::snapshot_corruption("snapshot is not valid UTF-8"))
}

/// The snapshot's JSON, its strings left as literals in `json`: the
/// documents are unescaped later, each on the pool task that parses it.
fn parse_json(json: &str) -> DbResult<Borrowed<'_>> {
    Borrowed::parse(json).map_err(|e| DbError::Storage(format!("snapshot is not JSON: {e}")))
}

/// Check a parsed snapshot's envelope — the version, and for version 2
/// the checksum of `data` — and return its payload: the whole document
/// for version 1, `data` for version 2, with whether it is version 2 (the
/// only kind a segment may serve). `text` is what `value` was parsed
/// from.
///
/// The checksum is the CRC of `data` as written, and the writer writes
/// it in its compact rendering. So the stored bytes are checked first,
/// without rendering anything; an intact snapshot laid out some other way
/// passes on the CRC of `data` re-rendered compactly, and a mismatch
/// reports that re-rendering's CRC.
fn checked_payload<'v, 'a>(
    value: &'v Borrowed<'a>,
    text: &str,
) -> DbResult<(&'v Borrowed<'a>, bool)> {
    let version = value
        .get("version")
        .and_then(Borrowed::as_i64)
        .ok_or_else(|| DbError::Storage("snapshot missing version field".into()))?;
    match version {
        1 => Ok((value, false)),
        2 => {
            let expected = value
                .get("checksum")
                .and_then(Borrowed::as_i64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| DbError::Storage("snapshot missing checksum field".into()))?;
            let data = value
                .get("data")
                .ok_or_else(|| DbError::Storage("snapshot missing data field".into()))?;
            if stored_data(text, expected).is_some_and(|d| crc32(d.as_bytes()) == expected) {
                return Ok((data, true));
            }
            let actual = crc32(data.to_json().as_bytes());
            if actual != expected {
                return Err(DbError::snapshot_corruption(format!(
                    "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )));
            }
            Ok((data, true))
        }
        other => Err(DbError::Storage(format!(
            "unsupported snapshot version {other}"
        ))),
    }
}

fn malformed(m: &str) -> DbError {
    DbError::Storage(format!("malformed snapshot: {m}"))
}

/// The snapshot-wide fields of `data`: the collection size limit and the
/// journal cursor.
fn data_header(data: &Borrowed) -> DbResult<(Option<usize>, u64)> {
    let limit = match data.get("collection_size_limit") {
        None | Some(Borrowed::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| malformed("collection_size_limit is not an integer"))?,
        ),
    };
    // Absent in version-1 snapshots, which predate the journal.
    let last_seq = match data.get("last_seq") {
        None => 0,
        Some(v) => v
            .as_i64()
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| malformed("last_seq is not a non-negative integer"))?,
    };
    Ok((limit, last_seq))
}

/// Where the decoding walk delivers a snapshot's collections.
trait Restore {
    /// What [`Restore::document`] receives for one document, made on the
    /// pool worker that decoded it.
    type Doc: Send;
    /// Unescape document `id`'s `xml` literal and parse or measure the
    /// XML; runs on a pool worker, whose task reuses `unescaped` and
    /// `parse` for every document it decodes.
    fn decode(
        &self,
        id: DocumentId,
        xml: RawStr<'_>,
        unescaped: &mut String,
        parse: &mut String,
    ) -> DbResult<Self::Doc>;
    /// A collection starts; `Err` if the name is already taken.
    fn collection(&mut self, name: &str) -> DbResult<()>;
    /// One document of the current collection.
    fn document(&mut self, id: DocumentId, doc: Self::Doc) -> DbResult<()>;
    /// The current collection ends, with its stored id counter, if any.
    fn end_collection(&mut self, next_id: Option<u64>) -> DbResult<()>;
}

/// Documents decoded per pool round. A round's documents wait for the
/// sink together, so the bound caps how many decoded documents are in
/// flight.
const DECODE_ROUND: usize = 4096;
/// The smallest share of a round one pool task decodes.
const DECODE_CHUNK: usize = 128;

/// The one decoding walk over `data.collections`: every structural
/// check, every id and every XML parse happens here, for open and verify
/// alike. Documents are unescaped and measured on `pool`, but the sink sees
/// them in file order and the walk returns the error a
/// one-document-at-a-time walk would: the first failing document's first
/// failing check, structural, then XML, then the sink's.
fn walk_collections<S: Restore + Sync>(
    data: &Borrowed,
    pool: &WorkerPool,
    sink: &mut S,
) -> DbResult<()> {
    let collections = data
        .get("collections")
        .and_then(Borrowed::as_array)
        .ok_or_else(|| malformed("missing collections array"))?;
    for cs in collections {
        let name = cs
            .get("name")
            .and_then(Borrowed::as_str)
            .ok_or_else(|| malformed("collection missing name"))?;
        sink.collection(&name.decode())?;
        let documents = cs
            .get("documents")
            .and_then(Borrowed::as_array)
            .ok_or_else(|| malformed("collection missing documents array"))?;
        let (entries, fault) = document_entries(documents);
        for round in entries.chunks(DECODE_ROUND) {
            let decoder = &*sink;
            let tasks: Vec<_> = partition_ranges(round.len(), pool.workers() * 4, DECODE_CHUNK)
                .into_iter()
                .map(|(start, end)| {
                    let chunk = &round[start..end];
                    move || {
                        let (mut unescaped, mut parse) = (String::new(), String::new());
                        chunk
                            .iter()
                            .map(|&(id, xml)| decoder.decode(id, xml, &mut unescaped, &mut parse))
                            .collect::<Vec<_>>()
                    }
                })
                .collect();
            // one result per entry, the chunks in task order: file order
            let decoded = pool.run(tasks).into_iter().flatten();
            for (&(id, _), doc) in round.iter().zip(decoded) {
                sink.document(id, doc?)?;
            }
        }
        // every entry before the structural fault has passed
        if let Some(e) = fault {
            return Err(e);
        }
        let next_id = match cs.get("next_id") {
            None => None,
            Some(n) => Some(
                n.as_i64()
                    .and_then(|n| u64::try_from(n).ok())
                    .ok_or_else(|| malformed("next_id is not a non-negative integer"))?,
            ),
        };
        sink.end_collection(next_id)?;
    }
    Ok(())
}

/// A collection's entries in file order — each id and its `xml` literal,
/// still escaped — up to its first structurally broken entry, whose
/// error comes back beside them: it is the walk's error only if every
/// entry before it parses and is accepted.
fn document_entries<'a>(
    documents: &[Borrowed<'a>],
) -> (Vec<(DocumentId, RawStr<'a>)>, Option<DbError>) {
    let mut entries = Vec::with_capacity(documents.len());
    // The id `Collection::insert` would assign next, which is what an
    // id-less version-1 entry gets.
    let mut next = 0u64;
    for doc in documents {
        let (id, xml) = match doc {
            // Version-1 layout: bare XML strings, ids assigned 0..n.
            Borrowed::Str(xml) => (next, *xml),
            // Version-2 layout: explicit ids, preserved exactly.
            Borrowed::Object(_) => {
                let Some(id) = doc
                    .get("id")
                    .and_then(Borrowed::as_i64)
                    .and_then(|n| u64::try_from(n).ok())
                else {
                    return (entries, Some(malformed("document entry missing id")));
                };
                let Some(xml) = doc.get("xml").and_then(Borrowed::as_str) else {
                    return (entries, Some(malformed("document entry missing xml")));
                };
                (id, xml)
            }
            _ => {
                let e = malformed("document entry is neither string nor object");
                return (entries, Some(e));
            }
        };
        entries.push((DocumentId(id), xml));
        next = next.max(id + 1);
    }
    (entries, None)
}

/// Open's sink: builds the [`Database`]. With a segment to attach, each
/// document keeps its XML and builds its tree when something first reads
/// it. Without one, every collection is indexed from all its trees as
/// it ends, so the trees are built where the documents are decoded, on
/// the pool.
///
/// With a verified segment whose `last_seq` stamp matches the snapshot's
/// cursor exactly, collections attach frozen zero-copy indexes instead of
/// re-indexing their documents; any collection the segment can't serve
/// (absent sections, count mismatch) rebuilds as before.
struct Open<'s> {
    db: Database,
    seg: Option<&'s Arc<Segment>>,
    /// Collections that attached frozen.
    frozen: usize,
    current: String,
}

impl Restore for Open<'_> {
    type Doc = StoredDocument;

    fn decode(
        &self,
        id: DocumentId,
        xml: RawStr<'_>,
        unescaped: &mut String,
        parse: &mut String,
    ) -> DbResult<StoredDocument> {
        let xml = xml.text(unescaped);
        if self.seg.is_none() {
            let tree = crate::parser::parse_stored(xml)?;
            let size = compact_len(&tree);
            return Ok(StoredDocument::built(id, tree, size));
        }
        let measured = measure_stored(xml, parse)?;
        Ok(StoredDocument::from_xml(id, xml.into(), measured))
    }

    fn collection(&mut self, name: &str) -> DbResult<()> {
        // Index once, when every document is in place: a frozen segment
        // may attach instead (see `end_collection`).
        self.db.create_collection(name)?;
        name.clone_into(&mut self.current);
        Ok(())
    }

    fn document(&mut self, _id: DocumentId, doc: StoredDocument) -> DbResult<()> {
        self.db
            .collection_mut(&self.current)?
            .restore_document(doc)
            .map(drop)
    }

    fn end_collection(&mut self, next_id: Option<u64>) -> DbResult<()> {
        let coll = self.db.collection_mut(&self.current)?;
        if let Some(n) = next_id {
            coll.set_next_id_at_least(n);
        }
        let base = self
            .seg
            .and_then(|seg| FrozenIndex::attach(seg, &self.current));
        if base.is_some_and(|base| coll.attach_base(base)) {
            self.frozen += 1;
        } else {
            coll.index_documents();
        }
        Ok(())
    }
}

/// The checkpoint verify's sink: every check [`Open`] makes while
/// building — a taken collection name, a duplicate id, the size limit —
/// with nothing built. Each document is measured in the worker's reused
/// buffers; only its size comes back.
struct Verify {
    limit: Option<usize>,
    names: BTreeSet<String>,
    current: String,
    ids: HashSet<u64>,
    size: usize,
}

impl Restore for Verify {
    type Doc = usize;

    fn decode(
        &self,
        _id: DocumentId,
        xml: RawStr<'_>,
        unescaped: &mut String,
        parse: &mut String,
    ) -> DbResult<usize> {
        Ok(measure_stored(xml.text(unescaped), parse)?.size)
    }

    fn collection(&mut self, name: &str) -> DbResult<()> {
        if !self.names.insert(name.to_string()) {
            return Err(DbError::CollectionExists(name.to_string()));
        }
        name.clone_into(&mut self.current);
        self.ids.clear();
        self.size = 0;
        Ok(())
    }

    fn document(&mut self, id: DocumentId, size: usize) -> DbResult<()> {
        if !self.ids.insert(id.0) {
            return Err(duplicate_id(&self.current, id));
        }
        self.size += size;
        check_size_limit(&self.current, self.limit, self.size)
    }

    fn end_collection(&mut self, _next_id: Option<u64>) -> DbResult<()> {
        Ok(())
    }
}

/// Restore a database from a JSON snapshot produced by
/// [`to_json_with_seq`] (version 2, checksummed) or by older builds
/// (version 1, flat), discarding the journal cursor.
pub fn from_json(json: &str) -> DbResult<Database> {
    from_json_on(json, None, &WorkerPool::with_available_parallelism()).map(|(db, _, _)| db)
}

/// Restore a database and its journal cursor (0 for version 1) from a
/// JSON snapshot, parsing the documents on `pool`. A verified segment
/// sidecar `seg` lets collections attach frozen indexes instead of
/// re-indexing; also returns how many did (0 when `seg` is `None`,
/// stale, or unusable).
pub(crate) fn from_json_on(
    json: &str,
    seg: Option<&Arc<Segment>>,
    pool: &WorkerPool,
) -> DbResult<(Database, u64, usize)> {
    let value = parse_json(json)?;
    let (data, v2) = checked_payload(&value, json)?;
    let (limit, last_seq) = data_header(data)?;
    // v1 snapshots predate segments; never attach one to them. The
    // staleness rule: a segment serves this snapshot only when its stamp
    // equals the snapshot's cursor exactly. A stale sidecar (the residue
    // of a crash between snapshot rename and segment write) is silently
    // ignored — rebuild, never guess.
    let seg = match seg.filter(|_| v2) {
        Some(s) if s.last_seq() != last_seq => {
            toss_obs::metrics::counter("xmldb.segment.stale").inc();
            None
        }
        other => other,
    };
    let mut open = Open {
        db: Database::with_config(DatabaseConfig {
            collection_size_limit: limit,
        }),
        seg,
        frozen: 0,
        current: String::new(),
    };
    walk_collections(data, pool, &mut open)?;
    Ok((open.db, last_seq, open.frozen))
}

/// Check snapshot bytes exactly as a load would — UTF-8, JSON, version,
/// checksum, header fields, every document's id and XML, taken names,
/// duplicate ids, the size limit — and return the load's error, without
/// building a [`Database`].
fn verify_snapshot(bytes: Vec<u8>) -> DbResult<()> {
    verify_snapshot_on(bytes, &WorkerPool::with_available_parallelism())
}

/// [`verify_snapshot`], parsing the documents on `pool`.
fn verify_snapshot_on(bytes: Vec<u8>, pool: &WorkerPool) -> DbResult<()> {
    let text = snapshot_text(bytes)?;
    let value = parse_json(&text)?;
    let (data, _) = checked_payload(&value, &text)?;
    let (limit, _) = data_header(data)?;
    walk_collections(
        data,
        pool,
        &mut Verify {
            limit,
            names: BTreeSet::new(),
            current: String::new(),
            ids: HashSet::new(),
            size: 0,
        },
    )
}

/// Persist an already-serialized snapshot (produced by
/// [`to_json_with_seq`]) atomically through an arbitrary [`Vfs`]:
/// temp file → fsync → rename over the target. A live server serializes
/// under a short read lock and does this (slow) durable write with no
/// lock held at all.
pub fn save_json_with_vfs(json: &str, path: &Path, vfs: &dyn Vfs) -> DbResult<()> {
    save_checked(json, path, vfs, |_| Ok(()))
}

/// The checkpoint's write: [`save_json_with_vfs`] with a verify between
/// the fsync and the rename. The temp file is read back and must pass
/// every check a load makes (see [`verify_snapshot`]); if it does not,
/// the load's error is returned and the target is never replaced, so the
/// old snapshot and the journal records it needs stay usable. `json` is
/// freed once it is on disk, so the read-back never lives beside it.
pub(crate) fn save_verified_json(json: String, path: &Path, vfs: &dyn Vfs) -> DbResult<()> {
    save_checked(json, path, vfs, |tmp| {
        let bytes = vfs
            .read(tmp)
            .map_err(|e| DbError::Storage(format!("snapshot read-back failed: {e}")))?;
        verify_snapshot(bytes)
    })
}

/// temp file → fsync → drop `json` → `check` the temp file → rename over
/// the target.
fn save_checked(
    json: impl AsRef<str>,
    path: &Path,
    vfs: &dyn Vfs,
    check: impl FnOnce(&Path) -> DbResult<()>,
) -> DbResult<()> {
    let span = toss_obs::span("xmldb.snapshot.write");
    let len = json.as_ref().len();
    span.record("bytes", len);
    let tmp = path.with_extension("snap.tmp");
    vfs.write(&tmp, json.as_ref().as_bytes())
        .map_err(|e| DbError::Storage(format!("snapshot write failed: {e}")))?;
    vfs.sync(&tmp)
        .map_err(|e| DbError::Storage(format!("snapshot fsync failed: {e}")))?;
    drop(json);
    check(&tmp)?;
    vfs.rename(&tmp, path)
        .map_err(|e| DbError::Storage(format!("snapshot rename failed: {e}")))?;
    toss_obs::metrics::counter("xmldb.snapshot.writes").inc();
    toss_obs::metrics::histogram("xmldb.snapshot.write_ns").observe_duration(span.finish());
    Ok(())
}

/// Read the snapshot at `path` through `vfs` and decode it with
/// [`from_json_on`] on a pool of the machine's cores: the database, its
/// journal cursor and how many collections attached frozen from `seg`.
pub(crate) fn load(
    path: &Path,
    vfs: &dyn Vfs,
    seg: Option<&Arc<Segment>>,
) -> DbResult<(Database, u64, usize)> {
    let span = toss_obs::span("xmldb.snapshot.load");
    let bytes = vfs
        .read(path)
        .map_err(|e| DbError::Storage(format!("snapshot read failed: {e}")))?;
    span.record("bytes", bytes.len());
    let json = snapshot_text(bytes)?;
    let loaded = from_json_on(&json, seg, &WorkerPool::with_available_parallelism())?;
    toss_obs::metrics::counter("xmldb.snapshot.loads").inc();
    Ok(loaded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultMode, FaultVfs, StdVfs};
    use std::path::PathBuf;
    use toss_json::Value;
    use toss_tree::serialize::tree_to_xml;
    use toss_tree::TreeBuilder;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let c = db.create_collection("dblp").unwrap();
        c.insert_xml("<a><b>x &amp; y</b></a>").unwrap();
        c.insert_xml("<c k=\"v\"/>").unwrap();
        db.create_collection("empty").unwrap();
        db
    }

    /// Write `db`'s snapshot, cursor 0, to `path` atomically.
    fn save(db: &Database, path: &Path, vfs: &dyn Vfs) -> DbResult<()> {
        save_json_with_vfs(&to_json(db)?, path, vfs)
    }

    /// The database of the snapshot at `path`.
    fn load_db(path: &Path, vfs: &dyn Vfs) -> DbResult<Database> {
        load(path, vfs, None).map(|(db, _, _)| db)
    }

    /// A snapshot's database and journal cursor.
    fn with_cursor(json: &str) -> DbResult<(Database, u64)> {
        from_json_on(json, None, &WorkerPool::new(2)).map(|(db, seq, _)| (db, seq))
    }

    /// The `Value` route the streaming writer replaced: build the whole
    /// `data` object, render it for the CRC, render the envelope again.
    /// Kept as the oracle [`to_json_with_seq`] must equal byte for byte.
    fn data_value(db: &Database, last_seq: u64) -> Value {
        let collections: Vec<Value> = db
            .collections()
            .map(|c| {
                Value::object(vec![
                    ("name", c.name().into()),
                    ("next_id", (c.next_id() as i64).into()),
                    (
                        "documents",
                        Value::Array(
                            c.documents()
                                .iter()
                                .map(|d| {
                                    Value::object(vec![
                                        ("id", (d.id.0 as i64).into()),
                                        ("xml", tree_to_xml(d.tree(), Style::Compact).into()),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Value::object(vec![
            (
                "collection_size_limit",
                match db.config().collection_size_limit {
                    Some(n) => n.into(),
                    None => Value::Null,
                },
            ),
            ("last_seq", last_seq.into()),
            ("collections", Value::Array(collections)),
        ])
    }

    fn value_route_json(db: &Database, last_seq: u64) -> String {
        let data = data_value(db, last_seq);
        let checksum = crc32(data.to_json().as_bytes());
        Value::object(vec![
            ("version", (SNAPSHOT_VERSION as i64).into()),
            ("checksum", checksum.into()),
            ("data", data),
        ])
        .to_json()
    }

    /// A database from a script: per collection a name and documents of
    /// four kinds — 0 a built tree (attributes, mixed content, control
    /// characters allowed), 1 parsed XML with a CDATA section, 2 numeric
    /// leaves, 3 a document inserted and then removed (an id gap).
    fn scripted_db(colls: &[(String, Vec<(u8, String)>)], limited: bool) -> Database {
        let mut db = Database::with_config(DatabaseConfig {
            collection_size_limit: limited.then_some(1 << 30),
        });
        for (i, (name, docs)) in colls.iter().enumerate() {
            let c = db.create_collection(&format!("{i}{name}")).unwrap();
            for (kind, text) in docs {
                match kind {
                    0 => {
                        let t = TreeBuilder::new("p")
                            .attr("k", text.as_str())
                            .content(text.as_str())
                            .leaf("t", text.as_str())
                            .empty("e")
                            .build();
                        c.insert(t).unwrap();
                    }
                    1 => {
                        let cdata = text.replace(['\u{1}', '\u{1f}', '\u{8}'], "");
                        c.insert_xml(&format!("<p><![CDATA[{cdata}]]></p>")).unwrap();
                    }
                    2 => {
                        let t = TreeBuilder::new("n")
                            .leaf("i", -(text.len() as i64))
                            .leaf("r", text.len() as f64 / 8.0)
                            .build();
                        c.insert(t).unwrap();
                    }
                    _ => {
                        let id = c.insert_xml("<gone/>").unwrap();
                        c.remove(id).unwrap();
                    }
                }
            }
        }
        db
    }

    proptest::proptest! {
        /// The streaming writer is byte-identical to the `Value` route,
        /// and verifying its output agrees with loading it.
        #[test]
        fn streaming_writer_equals_the_value_route(
            colls in proptest::collection::vec(
                (
                    "[a\"\\\\é😀]{0,4}",
                    proptest::collection::vec(
                        (0u8..4, "[ab\"\\\\\u{1}\u{1f}\u{8}\n\t é漢😀<&>']{0,8}"),
                        0..6,
                    ),
                ),
                0..4,
            ),
            limited in 0u8..2,
            seq in 0usize..3,
        ) {
            let db = scripted_db(&colls, limited == 1);
            let last_seq = [0, 7, u32::MAX as u64 + 12_345][seq];
            let json = to_json_with_seq(&db, last_seq).unwrap();
            proptest::prop_assert_eq!(&json, &value_route_json(&db, last_seq));
            proptest::prop_assert_eq!(
                verify_snapshot(json.clone().into_bytes()),
                from_json(&json).map(|_| ())
            );
        }
    }

    /// `data` sealed in a v2 envelope with a correct checksum.
    fn sealed(data: &str) -> Vec<u8> {
        let data = Value::parse(data).unwrap().to_json();
        format!(
            r#"{{"version":2,"checksum":{},"data":{data}}}"#,
            crc32(data.as_bytes())
        )
        .into_bytes()
    }

    /// Snapshots a load refuses, one per check it makes.
    fn damaged_snapshots() -> Vec<(&'static str, Vec<u8>)> {
        let docs = |docs: &str| {
            sealed(&format!(
                r#"{{"collection_size_limit":null,"last_seq":0,"collections":[
                    {{"name":"c","next_id":9,"documents":[{docs}]}}]}}"#
            ))
        };
        let good = to_json(&sample_db()).unwrap();
        vec![
            ("utf-8", b"{\"version\":2,\xff}".to_vec()),
            ("json", b"{".to_vec()),
            ("version", br#"{"version":99}"#.to_vec()),
            ("no checksum", br#"{"version":2,"data":{}}"#.to_vec()),
            ("no data", br#"{"version":2,"checksum":0}"#.to_vec()),
            ("checksum", good.replacen("x &amp; y", "x &amp; z", 1).into_bytes()),
            ("limit", sealed(r#"{"collection_size_limit":"x","collections":[]}"#)),
            ("last_seq", sealed(r#"{"last_seq":-1,"collections":[]}"#)),
            ("collections", sealed(r#"{"last_seq":1}"#)),
            ("name", sealed(r#"{"collections":[{"documents":[]}]}"#)),
            (
                "taken name",
                sealed(r#"{"collections":[{"name":"c","documents":[]},{"name":"c","documents":[]}]}"#),
            ),
            ("documents", sealed(r#"{"collections":[{"name":"c"}]}"#)),
            ("id", docs(r#"{"xml":"<a/>"}"#)),
            ("negative id", docs(r#"{"id":-2,"xml":"<a/>"}"#)),
            ("xml", docs(r#"{"id":1}"#)),
            ("entry", docs("7")),
            ("parse", docs(r#"{"id":1,"xml":"<a/>"},{"id":2,"xml":"<a><b></a>"}"#)),
            ("duplicate", docs(r#"{"id":4,"xml":"<a/>"},{"id":4,"xml":"<b/>"}"#)),
            (
                "full",
                sealed(
                    r#"{"collection_size_limit":9,"collections":[{"name":"c","documents":[
                        {"id":0,"xml":"<abc/>"},{"id":1,"xml":"<abc/>"}]}]}"#,
                ),
            ),
            (
                "next_id",
                sealed(r#"{"collections":[{"name":"c","next_id":"n","documents":[]}]}"#),
            ),
            (
                "v1 parse",
                br#"{"version":1,"collections":[{"name":"c","documents":["<a/>","<b"]}]}"#.to_vec(),
            ),
            (
                "v1 full",
                br#"{"version":1,"collection_size_limit":5,"collections":[
                    {"name":"c","documents":["<a/>","<a/>"]}]}"#
                    .to_vec(),
            ),
        ]
    }

    #[test]
    fn verify_returns_the_load_error_before_the_rename() {
        for (label, bytes) in damaged_snapshots() {
            let vfs = FaultVfs::new();
            let path = PathBuf::from("snap.json");
            vfs.corrupt(&path, bytes.clone());
            let error = load(&path, &vfs, None).map(|_| ()).unwrap_err();
            assert_eq!(verify_snapshot(bytes.clone()), Err(error.clone()), "{label}");
            // The checkpoint write refuses the same bytes with the same
            // error, and the good snapshot it would have replaced stays.
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            save(&sample_db(), &path, &vfs).unwrap();
            assert_eq!(save_verified_json(text, &path, &vfs), Err(error), "{label}");
            let kept = load_db(&path, &vfs).unwrap();
            assert_eq!(kept.collection_names(), vec!["dblp", "empty"], "{label}");
        }
    }

    #[test]
    fn verify_accepts_what_loads() {
        let mut db = sample_db();
        db.collection_mut("dblp").unwrap().remove(DocumentId(0)).unwrap();
        for json in [
            to_json_with_seq(&db, u64::MAX >> 1).unwrap(),
            r#"{"version":1,"collection_size_limit":77,
                "collections":[{"name":"old","documents":["<a><b>1</b></a>"]}]}"#
                .to_string(),
        ] {
            from_json(&json).unwrap();
            verify_snapshot(json.into_bytes()).unwrap();
        }
    }

    /// The collection size limit of [`fault_snapshot`]: far above its
    /// small documents, below its one oversized document.
    const LIMIT: usize = 40_000;

    /// Sites for a pair of faults: the same round in different chunks,
    /// and different rounds of [`fault_snapshot`]'s collection.
    const SITES: [(usize, usize); 4] = [(150, 4200), (3000, 3900), (4500, 8300), (900, 8250)];

    /// Each way a document can fail the walk, and a piece of its error.
    const FAULTS: [(&str, &str); 6] = [
        ("id", "missing id"),
        ("xml", "missing xml"),
        ("entry", "neither string nor object"),
        ("parse", "Parse"),
        ("duplicate", "duplicate document id"),
        ("full", "CollectionFull"),
    ];

    /// A one-collection snapshot over two decode rounds long, with each
    /// `(kind, position)` fault replacing the document at that position.
    fn fault_snapshot(faults: &[(&str, usize)]) -> String {
        let n = 2 * DECODE_ROUND + 200;
        let docs: Vec<String> = (0..n)
            .map(|i| match faults.iter().find(|&&(_, at)| at == i).map(|&(k, _)| k) {
                None => format!(r#"{{"id":{i},"xml":"<a/>"}}"#),
                Some("id") => r#"{"xml":"<a/>"}"#.to_string(),
                Some("xml") => format!(r#"{{"id":{i}}}"#),
                Some("entry") => "7".to_string(),
                Some("parse") => format!(r#"{{"id":{i},"xml":"<a><b></a>"}}"#),
                Some("duplicate") => r#"{"id":0,"xml":"<a/>"}"#.to_string(),
                Some(_) => format!(r#"{{"id":{i},"xml":"<a>{}</a>"}}"#, "x".repeat(LIMIT)),
            })
            .collect();
        let data = format!(
            r#"{{"collection_size_limit":{LIMIT},"last_seq":0,"collections":[
                {{"name":"c","next_id":{n},"documents":[{}]}}]}}"#,
            docs.join(",")
        );
        String::from_utf8(sealed(&data)).unwrap()
    }

    /// The load's and the verify's error for `json` at 1, 2 and 7
    /// workers.
    fn errors_at_every_worker_count(json: &str) -> Vec<(DbError, DbError)> {
        [1, 2, 7]
            .into_iter()
            .map(|w| {
                let pool = WorkerPool::new(w);
                let load = from_json_on(json, None, &pool).map(|_| ()).unwrap_err();
                let verify = verify_snapshot_on(json.as_bytes().to_vec(), &pool).unwrap_err();
                (load, verify)
            })
            .collect()
    }

    /// The one-worker load's error for `fault` alone at `at`.
    fn one_worker_error(fault: (&str, &str), at: usize) -> DbError {
        let json = fault_snapshot(&[(fault.0, at)]);
        let error = from_json_on(&json, None, &WorkerPool::new(1)).map(|_| ()).unwrap_err();
        assert!(format!("{error:?}").contains(fault.1), "{fault:?}: {error:?}");
        error
    }

    #[test]
    fn the_decode_error_does_not_depend_on_the_worker_count() {
        for (&fault, &(at, _)) in FAULTS.iter().zip(SITES.iter().cycle()) {
            let expected = one_worker_error(fault, at);
            for (load, verify) in errors_at_every_worker_count(&fault_snapshot(&[(fault.0, at)])) {
                assert_eq!(load, expected, "{fault:?}@{at}");
                assert_eq!(verify, expected, "{fault:?}@{at}");
            }
        }
        // Each pair of faults in both orders: the first one's error wins.
        let pairs = FAULTS
            .iter()
            .enumerate()
            .flat_map(|(i, a)| FAULTS[i + 1..].iter().map(move |b| (*a, *b)));
        for ((a, b), &(x, y)) in pairs.zip(SITES.iter().cycle()) {
            for (first, second) in [(a, b), (b, a)] {
                let expected = one_worker_error(first, x);
                let json = fault_snapshot(&[(first.0, x), (second.0, y)]);
                for (load, verify) in errors_at_every_worker_count(&json) {
                    assert_eq!(load, expected, "{first:?}@{x} then {second:?}@{y}");
                    assert_eq!(verify, expected, "{first:?}@{x} then {second:?}@{y}");
                }
            }
        }
    }

    #[test]
    fn the_pooled_load_is_byte_identical_at_any_worker_count() {
        let mut db = Database::new();
        let c = db.create_collection("dblp").unwrap();
        for i in 0..2 * DECODE_ROUND + 300 {
            c.insert_xml(&format!("<p k=\"{i}\"><t>T &amp; {i}</t></p>")).unwrap();
        }
        c.remove(DocumentId(17)).unwrap();
        db.create_collection("small").unwrap().insert_xml("<a/>").unwrap();
        let json = to_json_with_seq(&db, 9).unwrap();
        for w in [1, 2, 7] {
            let pool = WorkerPool::new(w);
            let (back, seq, _) = from_json_on(&json, None, &pool).unwrap();
            assert_eq!(to_json_with_seq(&back, seq).unwrap(), json, "{w} workers");
            verify_snapshot_on(json.clone().into_bytes(), &pool).unwrap();
        }
    }

    /// The snapshot bytes are pinned: a change the writer and the reader
    /// make together round-trips, but fails here.
    #[test]
    fn the_snapshot_format_is_pinned() {
        let json = to_json_with_seq(&sample_db(), 3).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"version":2,"checksum":562589807,"data":{"collection_size_limit":5242880,"#,
                r#""last_seq":3,"collections":[{"name":"dblp","next_id":2,"documents":["#,
                r#"{"id":0,"xml":"<a><b>x &amp; y</b></a>"},{"id":1,"xml":"<c k=\"v\"/>"}]},"#,
                r#"{"name":"empty","next_id":0,"documents":[]}]}}"#
            )
        );
    }

    /// Documents whose `xml` literals hold every kind of character an
    /// escape can spell: ASCII, `/`, quotes, two- and three-byte
    /// characters and one outside the BMP.
    fn hostile_db() -> Database {
        let mut db = sample_db();
        let c = db.create_collection("mixed").unwrap();
        c.insert_xml("<p k=\"a/b\">é 😀 &amp; \"q\" 漢</p>").unwrap();
        let gone = c.insert_xml("<gone/>").unwrap();
        c.insert_xml("<p><t>x/y</t><n>12</n></p>").unwrap();
        c.remove(gone).unwrap();
        c.insert_xml("<p k='&lt;'>\\ 😀</p>").unwrap();
        db
    }

    /// The three layouts a snapshot can be read in: the writer's
    /// compact version 2, the same pretty-printed, and version 1 (bare
    /// XML strings, no checksum); with each layout's document strings.
    fn snapshot_layouts(db: &Database) -> Vec<(&'static str, String, Vec<String>)> {
        let compact = to_json_with_seq(db, 5).unwrap();
        let pretty = Value::parse(&compact).unwrap().to_json_pretty();
        let collections = db
            .collections()
            .map(|c| {
                let docs = c.documents().iter().map(|d| tree_to_xml(d.tree(), Style::Compact));
                Value::object(vec![
                    ("name", c.name().into()),
                    ("documents", Value::Array(docs.map(Value::Str).collect())),
                ])
            })
            .collect();
        let v1 = Value::object(vec![
            ("version", 1i64.into()),
            ("collection_size_limit", Value::Null),
            ("collections", Value::Array(collections)),
        ])
        .to_json();
        let xml: Vec<String> = db
            .collections()
            .flat_map(|c| c.documents().iter().map(|d| tree_to_xml(d.tree(), Style::Compact)))
            .collect();
        vec![("compact", compact, xml.clone()), ("pretty", pretty, xml.clone()), ("v1", v1, xml)]
    }

    /// Every document of `db`.
    fn all_documents(db: &Database) -> impl Iterator<Item = &StoredDocument> {
        db.collections().flat_map(|c| c.documents())
    }

    #[test]
    fn a_lazy_open_writes_the_snapshot_an_eager_one_does() {
        let mut layouts: Vec<(&str, String)> = snapshot_layouts(&hostile_db())
            .into_iter()
            .map(|(layout, text, _)| (layout, text))
            .collect();
        // documents stored as XML that is not their compact rendering
        let loose = sealed(
            r#"{"last_seq":5,"collections":[{"name":"c","next_id":4,"documents":[
                {"id":0,"xml":"<a ></a>"},{"id":1,"xml":"<b k='v'> x </b>"},
                {"id":2,"xml":"<c><d/> y <!--z--></c>"},{"id":3,"xml":"<e>&#65;</e>"}]}]}"#,
        );
        layouts.push(("loose", String::from_utf8(loose).unwrap()));
        let original = to_json_with_seq(&hostile_db(), 5).unwrap();
        for (layout, text) in layouts {
            // the segment a checkpoint of the same store writes; a version
            // 1 snapshot never attaches one
            let seg = crate::segidx::build_segment(&from_json(&text).unwrap(), 5);
            let seg = Arc::new(Segment::parse(seg).unwrap());
            for w in [1, 2, 7] {
                let (db, seq, frozen) =
                    from_json_on(&text, Some(&seg), &WorkerPool::new(w)).unwrap();
                assert_eq!(frozen > 0, !layout.contains("v1"), "{layout}");
                // with a segment the open builds no tree, and the writer
                // only those of XML it cannot copy; without one the open
                // builds them all and keeps no XML
                let built = || all_documents(&db).filter(|d| d.is_built()).count();
                assert_eq!(built() == 0, frozen > 0, "{layout}: {} trees built", built());
                let copied = all_documents(&db).all(|d| d.canonical_xml().is_some());
                assert_eq!(copied, frozen > 0 && layout != "loose", "{layout}");
                let lazy = to_json_with_seq(&db, seq).unwrap();
                assert_eq!(built() == 0, copied, "{layout}: {} trees built", built());
                // the parent's route: render every tree
                assert_eq!(lazy, value_route_json(&db, seq), "{layout}, {w} workers");
                assert!(all_documents(&db).all(StoredDocument::is_built), "{layout}");
                assert_eq!(
                    to_json_with_seq(&db, seq).unwrap(),
                    lazy,
                    "{layout}, {w} workers"
                );
                for d in all_documents(&db) {
                    assert_eq!(d.size_bytes, compact_len(d.tree()), "{layout}: {d:?}");
                }
                if copied {
                    assert_eq!(lazy, original, "{layout}, {w} workers");
                }
            }
        }
    }

    /// `c` spelled as a `\u` escape (a surrogate pair outside the BMP),
    /// or for `/` sometimes as `\/`; hex digits in either case.
    fn respell(c: char, rng: &mut impl rand::Rng) -> String {
        if c == '/' && rng.gen_bool(0.5) {
            return "\\/".to_string();
        }
        let mut units = [0u16; 2];
        let hex: String = c
            .encode_utf16(&mut units)
            .iter()
            .map(|u| format!("\\u{u:04x}"))
            .collect();
        if rng.gen_bool(0.5) {
            hex.to_uppercase().replace("\\U", "\\u")
        } else {
            hex
        }
    }

    /// `text` with the literal of `xml` (its first occurrence) written
    /// with some of its characters re-spelled as escapes: the same
    /// string, other bytes.
    fn respelled(text: &str, xml: &str, rng: &mut impl rand::Rng) -> String {
        let mut literal = String::new();
        write_escaped(&mut literal, xml);
        let chars: Vec<char> = xml.chars().collect();
        let picked: Vec<usize> = (0..rng.gen_range(1..4usize))
            .map(|_| rng.gen_range(0..chars.len()))
            .collect();
        let mut spelled = String::from("\"");
        for (i, &c) in chars.iter().enumerate() {
            if picked.contains(&i) {
                spelled.push_str(&respell(c, rng));
            } else {
                let mut one = String::new();
                write_escaped(&mut one, c.encode_utf8(&mut [0; 4]));
                spelled.push_str(&one[1..one.len() - 1]);
            }
        }
        spelled.push('"');
        text.replacen(&literal, &spelled, 1)
    }

    /// Load and verify `bytes` at 1, 2 and 7 workers: neither panics,
    /// both return `Value::parse`'s error for text it rejects, and the
    /// verify returns the load's error. The loads' snapshots come back.
    fn load_everywhere(bytes: &[u8], pools: &[WorkerPool]) -> Vec<DbResult<String>> {
        let Ok(text) = std::str::from_utf8(bytes) else {
            for pool in pools {
                assert_eq!(
                    verify_snapshot_on(bytes.to_vec(), pool),
                    Err(DbError::snapshot_corruption("snapshot is not valid UTF-8"))
                );
            }
            return Vec::new();
        };
        let json_error = Value::parse(text)
            .err()
            .map(|e| DbError::Storage(format!("snapshot is not JSON: {e}")));
        pools
            .iter()
            .map(|pool| {
                let loaded = from_json_on(text, None, pool);
                let verified = verify_snapshot_on(bytes.to_vec(), pool);
                assert_eq!(verified, loaded.as_ref().map(drop).map_err(Clone::clone), "{text}");
                if let Some(e) = &json_error {
                    assert_eq!(loaded.as_ref().err(), Some(e), "{text}");
                }
                loaded.and_then(|(db, seq, _)| to_json_with_seq(&db, seq))
            })
            .collect()
    }

    #[test]
    fn hostile_snapshot_bytes_fail_like_the_json_parse_or_load_the_same_store() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed_0057);
        let pools: Vec<WorkerPool> = [1, 2, 7].into_iter().map(WorkerPool::new).collect();
        for (layout, text, xml) in snapshot_layouts(&hostile_db()) {
            let [expected, ..] = &load_everywhere(text.as_bytes(), &pools)[..] else {
                unreachable!()
            };
            let expected = expected.as_ref().unwrap();
            for round in 0..150 {
                // truncated at any byte
                let cut = rng.gen_range(0..text.len());
                load_everywhere(&text.as_bytes()[..cut], &pools);
                // one to three bits flipped
                let mut flipped = text.clone().into_bytes();
                for _ in 0..rng.gen_range(1..4usize) {
                    let at = rng.gen_range(0..flipped.len());
                    flipped[at] ^= 1 << rng.gen_range(0..8u32);
                }
                load_everywhere(&flipped, &pools);
                // the same strings spelled with other escapes
                let doc = &xml[rng.gen_range(0..xml.len())];
                let same = respelled(&text, doc, &mut rng);
                assert_ne!(same, text, "{layout}: {doc}");
                for back in load_everywhere(same.as_bytes(), &pools) {
                    assert_eq!(back.as_ref(), Ok(expected), "{layout} round {round}: {same}");
                }
            }
        }
    }

    fn stored_checksum(json: &str) -> u32 {
        let value = Value::parse(json).unwrap();
        value.get("checksum").and_then(Value::as_i64).unwrap() as u32
    }

    #[test]
    fn the_writers_own_output_takes_the_stored_bytes_path() {
        let json = to_json_with_seq(&sample_db(), 3).unwrap();
        let checksum = stored_checksum(&json);
        let stored = stored_data(&json, checksum).expect("the writer's own envelope");
        let data = Value::parse(&json).unwrap().get("data").unwrap().to_json();
        assert_eq!(stored, data, "the writer stores the compact rendering");
        assert_eq!(crc32(stored.as_bytes()), checksum);
        // A `data` whose rendering cannot match passes only on the
        // stored bytes.
        let unrenderable = format!(r#"{{"version":2,"checksum":{checksum},"data":null}}"#);
        let unrenderable = Borrowed::parse(&unrenderable).unwrap();
        assert!(checked_payload(&unrenderable, &json).is_ok());
    }

    #[test]
    fn a_reformatted_intact_snapshot_loads_through_the_rendering() {
        let json = to_json_with_seq(&sample_db(), 4).unwrap();
        let checksum = stored_checksum(&json);
        for text in [
            format!(" {json}\n"),
            json.replacen("\"data\":", "\"data\" : ", 1),
            Value::parse(&json).unwrap().to_json_pretty(),
        ] {
            assert_eq!(stored_data(&text, checksum), None, "{text}");
            let (back, seq) = with_cursor(&text).unwrap();
            assert_eq!(to_json_with_seq(&back, seq).unwrap(), json);
            verify_snapshot(text.into_bytes()).unwrap();
        }
    }

    #[test]
    fn a_checksum_mismatch_reports_the_rendered_crc() {
        let broken = to_json(&sample_db()).unwrap().replacen("x &amp; y", "x &amp; z", 1);
        let stored = stored_checksum(&broken);
        let value = Value::parse(&broken).unwrap();
        let computed = crc32(value.get("data").unwrap().to_json().as_bytes());
        let error = DbError::snapshot_corruption(format!(
            "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        ));
        assert_eq!(from_json(&broken).unwrap_err(), error);
        assert_eq!(verify_snapshot(broken.into_bytes()), Err(error));
    }

    #[test]
    fn json_round_trip_preserves_documents() {
        let db = sample_db();
        let json = to_json(&db).unwrap();
        let db2 = from_json(&json).unwrap();
        assert_eq!(db2.collection_names(), vec!["dblp", "empty"]);
        let c = db2.collection("dblp").unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(
            c.documents()[0].tree().data(c.documents()[0].tree().root().unwrap()).unwrap().tag,
            "a"
        );
        // content with entities survived
        let t = c.documents()[0].tree();
        let b = t.child_by_tag(t.root().unwrap(), "b").unwrap();
        assert_eq!(t.data(b).unwrap().content_str(), "x & y");
    }

    #[test]
    fn round_trip_preserves_config() {
        let db = Database::with_config(DatabaseConfig {
            collection_size_limit: Some(123),
        });
        let db2 = from_json(&to_json(&db).unwrap()).unwrap();
        assert_eq!(db2.config().collection_size_limit, Some(123));
    }

    #[test]
    fn file_round_trip() {
        let db = sample_db();
        let dir = std::env::temp_dir().join("toss-xmldb-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        save(&db, &path, &StdVfs).unwrap();
        let db2 = load_db(&path, &StdVfs).unwrap();
        assert_eq!(db2.collection("dblp").unwrap().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_version_is_rejected() {
        let json = r#"{"version":99,"collection_size_limit":null,"collections":[]}"#;
        assert!(matches!(from_json(json), Err(DbError::Storage(_))));
    }

    #[test]
    fn malformed_json_is_storage_error() {
        assert!(matches!(from_json("{"), Err(DbError::Storage(_))));
    }

    #[test]
    fn indexes_rebuilt_on_load() {
        let db = sample_db();
        let db2 = from_json(&to_json(&db).unwrap()).unwrap();
        let c = db2.collection("dblp").unwrap();
        assert_eq!(c.index().by_tag("b").len(), 1);
    }

    #[test]
    fn legacy_v1_snapshots_still_load() {
        let v1 = r#"{"version":1,"collection_size_limit":77,
            "collections":[{"name":"old","documents":["<a><b>1</b></a>"]}]}"#;
        let (db, last_seq) = with_cursor(v1).unwrap();
        assert_eq!(db.config().collection_size_limit, Some(77));
        assert_eq!(db.collection("old").unwrap().len(), 1);
        assert_eq!(last_seq, 0, "v1 snapshots predate the journal");
    }

    #[test]
    fn document_ids_and_counter_survive_round_trip() {
        let mut db = Database::new();
        let c = db.create_collection("dblp").unwrap();
        c.insert_xml("<a/>").unwrap(); // id 0
        c.insert_xml("<b/>").unwrap(); // id 1
        c.insert_xml("<c/>").unwrap(); // id 2
        c.remove(DocumentId(1)).unwrap(); // gap in the middle
        c.remove(DocumentId(2)).unwrap(); // gap above the largest live id
        let db2 = from_json(&to_json(&db).unwrap()).unwrap();
        let c2 = db2.collection("dblp").unwrap();
        assert_eq!(
            c2.documents().iter().map(|d| d.id.0).collect::<Vec<_>>(),
            vec![0]
        );
        assert_eq!(c2.next_id(), 3, "id counter must not regress on load");
    }

    #[test]
    fn journal_cursor_round_trips() {
        let json = to_json_with_seq(&sample_db(), 41).unwrap();
        let (_, last_seq) = with_cursor(&json).unwrap();
        assert_eq!(last_seq, 41);
    }

    #[test]
    fn bit_flip_in_snapshot_is_corruption() {
        let json = to_json(&sample_db()).unwrap();
        // Flip a character inside a document payload, not the JSON
        // structure: parsing still succeeds, the checksum must catch it.
        let broken = json.replacen("x &amp; y", "x &amp; z", 1);
        assert_ne!(json, broken);
        let err = from_json(&broken).unwrap_err();
        assert!(
            matches!(
                err,
                DbError::Corruption {
                    site: crate::error::CorruptionSite::Snapshot,
                    ..
                }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn save_is_atomic_under_crash() {
        let vfs = FaultVfs::new();
        let path = PathBuf::from("snap.json");
        // Establish a durable old snapshot.
        let mut old = Database::new();
        old.create_collection("old").unwrap();
        save(&old, &path, &vfs).unwrap();
        // Crash the new save at every protocol step; the old snapshot
        // must remain loadable (or the new one, once the rename landed).
        let new = sample_db();
        for step in 0..3 {
            let base = vfs.op_count();
            vfs.fail_op(base + step, FaultMode::Error);
            assert!(save(&new, &path, &vfs).is_err());
            vfs.crash();
            let db = load_db(&path, &vfs).unwrap();
            assert_eq!(db.collection_names(), vec!["old"], "step {step}");
        }
        // No fault: the save completes and replaces the old snapshot.
        save(&new, &path, &vfs).unwrap();
        vfs.crash();
        let db = load_db(&path, &vfs).unwrap();
        assert_eq!(db.collection_names(), vec!["dblp", "empty"]);
    }

    #[test]
    fn torn_snapshot_write_preserves_old_file() {
        let vfs = FaultVfs::new();
        let path = PathBuf::from("snap.json");
        let mut old = Database::new();
        old.create_collection("old").unwrap();
        save(&old, &path, &vfs).unwrap();
        // Tear the temp-file write; the target is untouched.
        vfs.fail_op(vfs.op_count(), FaultMode::Tear { keep: 10 });
        assert!(save(&sample_db(), &path, &vfs).is_err());
        vfs.crash();
        let db = load_db(&path, &vfs).unwrap();
        assert_eq!(db.collection_names(), vec!["old"]);
    }
}
