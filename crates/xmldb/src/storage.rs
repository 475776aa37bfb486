//! Checksummed, atomically-written snapshot persistence.
//!
//! Databases serialize to a single JSON file: collection names, per-document
//! compact XML, and the configured size limit. On load the XML is re-parsed
//! and re-indexed, so the snapshot format stays independent of in-memory
//! layout (the same property Xindice got from its filer abstraction).
//!
//! ## Format
//!
//! Version 2 (written by [`to_json`]) wraps the payload with an embedded
//! CRC-32 so load can prove the bytes were not damaged after the write:
//!
//! ```json
//! {"version":2,"checksum":<crc32 of compact data JSON>,"data":{
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
//! ## Atomicity
//!
//! [`save`] never writes the target file in place. It writes a temp file,
//! fsyncs it, and renames it over the target — so a crash at any moment
//! leaves either the complete old snapshot or the complete new one, never
//! a torn mixture. The same protocol runs against any [`Vfs`] via
//! [`save_with_vfs`], which is how the fault-injection suite proves it.

use crate::crc32::crc32;
use crate::database::{Database, DatabaseConfig};
use crate::error::{DbError, DbResult};
use crate::segidx::FrozenIndex;
use crate::vfs::{StdVfs, Vfs};
use std::path::Path;
use std::sync::Arc;
use toss_json::Value;
use toss_segment::Segment;
use toss_tree::serialize::{tree_to_xml, Style};

/// Snapshot format version written by this build.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Build the inner `data` object (config + collections + journal cursor).
fn data_value(db: &Database, last_seq: u64) -> Value {
    let collections: Vec<Value> = db
        .collections()
        .map(|c| {
            Value::object(vec![
                ("name", c.name().into()),
                // The id counter is stored explicitly: ids are monotonic
                // and never reused, so a gap above the largest live id
                // (highest-numbered document removed) must survive the
                // round trip too.
                ("next_id", (c.next_id() as i64).into()),
                (
                    "documents",
                    Value::Array(
                        c.documents()
                            .iter()
                            .map(|d| {
                                Value::object(vec![
                                    ("id", (d.id.0 as i64).into()),
                                    ("xml", tree_to_xml(&d.tree, Style::Compact).into()),
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
        // The journal cursor: every journal record with seq < last_seq
        // is already reflected in this snapshot and must be skipped on
        // replay. This is what makes checkpointing crash-idempotent.
        ("last_seq", last_seq.into()),
        ("collections", Value::Array(collections)),
    ])
}

/// Serialize a database to a checksummed (version 2) JSON snapshot that
/// records `last_seq` as the highest journal sequence it contains.
pub fn to_json_with_seq(db: &Database, last_seq: u64) -> DbResult<String> {
    let data = data_value(db, last_seq);
    let checksum = crc32(data.to_json().as_bytes());
    let snap = Value::object(vec![
        ("version", (SNAPSHOT_VERSION as i64).into()),
        ("checksum", checksum.into()),
        ("data", data),
    ]);
    Ok(snap.to_json())
}

/// Serialize a database to a checksummed (version 2) JSON snapshot.
pub fn to_json(db: &Database) -> DbResult<String> {
    to_json_with_seq(db, 0)
}

/// Rebuild a database (and journal cursor) from the inner `data` object.
///
/// With a verified segment whose `last_seq` stamp matches the
/// snapshot's cursor exactly, collections attach frozen zero-copy
/// indexes instead of re-indexing their documents; any collection the
/// segment can't serve (absent sections, count mismatch) rebuilds as
/// before. Returns the number of collections that attached frozen.
fn db_from_data(data: &Value, seg: Option<&Arc<Segment>>) -> DbResult<(Database, u64, usize)> {
    let bad = |m: &str| DbError::Storage(format!("malformed snapshot: {m}"));
    let limit = match data.get("collection_size_limit") {
        None | Some(Value::Null) => None,
        Some(v) => Some(
            v.as_usize()
                .ok_or_else(|| bad("collection_size_limit is not an integer"))?,
        ),
    };
    // Absent in version-1 snapshots, which predate the journal.
    let last_seq = match data.get("last_seq") {
        None => 0,
        Some(v) => v
            .as_i64()
            .and_then(|n| u64::try_from(n).ok())
            .ok_or_else(|| bad("last_seq is not a non-negative integer"))?,
    };
    // The staleness rule: a segment serves this snapshot only when its
    // stamp equals the snapshot's cursor exactly. A stale sidecar (the
    // residue of a crash between snapshot rename and segment write) is
    // silently ignored — rebuild, never guess.
    let seg = match seg {
        Some(s) if s.last_seq() != last_seq => {
            toss_obs::metrics::counter("xmldb.segment.stale").inc();
            None
        }
        other => other,
    };
    let mut frozen = 0usize;
    let mut db = Database::with_config(DatabaseConfig {
        collection_size_limit: limit,
    });
    let collections = data
        .get("collections")
        .and_then(Value::as_array)
        .ok_or_else(|| bad("missing collections array"))?;
    for cs in collections {
        let name = cs
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("collection missing name"))?;
        let coll = db.create_collection(name)?;
        // Index once, when every document is in place: a frozen segment
        // may attach instead, and a rebuild walks `documents()` — so the
        // postings ascend by document even if the snapshot listed ids out
        // of order.
        coll.begin_deferred_restore();
        let documents = cs
            .get("documents")
            .and_then(Value::as_array)
            .ok_or_else(|| bad("collection missing documents array"))?;
        for doc in documents {
            match doc {
                // Version-1 layout: bare XML strings, ids assigned 0..n.
                Value::Str(xml) => {
                    coll.insert_xml(xml)?;
                }
                // Version-2 layout: explicit ids, preserved exactly.
                Value::Object(_) => {
                    let id = doc
                        .get("id")
                        .and_then(Value::as_i64)
                        .and_then(|n| u64::try_from(n).ok())
                        .ok_or_else(|| bad("document entry missing id"))?;
                    let xml = doc
                        .get("xml")
                        .and_then(Value::as_str)
                        .ok_or_else(|| bad("document entry missing xml"))?;
                    let tree = crate::parser::parse_document(xml)?;
                    coll.insert_with_id(crate::collection::DocumentId(id), tree)?;
                }
                _ => return Err(bad("document entry is neither string nor object")),
            }
        }
        if let Some(n) = cs.get("next_id") {
            let n = n
                .as_i64()
                .and_then(|n| u64::try_from(n).ok())
                .ok_or_else(|| bad("next_id is not a non-negative integer"))?;
            coll.set_next_id_at_least(n);
        }
        if let Some(seg) = seg {
            if FrozenIndex::attach(seg, name).is_some_and(|f| coll.attach_frozen(f)) {
                frozen += 1;
            }
        }
        // no-op when a frozen index attached; otherwise one rebuild
        coll.ensure_index();
    }
    Ok((db, last_seq, frozen))
}

/// Restore a database and its journal cursor from a JSON snapshot
/// produced by [`to_json_with_seq`] (version 2, checksummed) or by older
/// builds (version 1, flat, cursor 0).
pub fn from_json_with_seq(json: &str) -> DbResult<(Database, u64)> {
    from_json_with_seq_seg(json, None).map(|(db, seq, _)| (db, seq))
}

/// [`from_json_with_seq`] with an optional verified segment sidecar to
/// attach frozen indexes from; additionally returns how many collections
/// attached frozen (0 when `seg` is `None`, stale, or unusable).
pub fn from_json_with_seq_seg(
    json: &str,
    seg: Option<&Arc<Segment>>,
) -> DbResult<(Database, u64, usize)> {
    let value =
        Value::parse(json).map_err(|e| DbError::Storage(format!("snapshot is not JSON: {e}")))?;
    let version = value
        .get("version")
        .and_then(Value::as_i64)
        .ok_or_else(|| DbError::Storage("snapshot missing version field".into()))?;
    match version {
        // v1 snapshots predate segments; never attach one to them.
        1 => db_from_data(&value, None),
        2 => {
            let expected = value
                .get("checksum")
                .and_then(Value::as_i64)
                .and_then(|v| u32::try_from(v).ok())
                .ok_or_else(|| DbError::Storage("snapshot missing checksum field".into()))?;
            let data = value
                .get("data")
                .ok_or_else(|| DbError::Storage("snapshot missing data field".into()))?;
            let actual = crc32(data.to_json().as_bytes());
            if actual != expected {
                return Err(DbError::snapshot_corruption(format!(
                    "checksum mismatch: stored {expected:#010x}, computed {actual:#010x}"
                )));
            }
            db_from_data(data, seg)
        }
        other => Err(DbError::Storage(format!(
            "unsupported snapshot version {other}"
        ))),
    }
}

/// Restore a database from a JSON snapshot, discarding the journal cursor.
pub fn from_json(json: &str) -> DbResult<Database> {
    from_json_with_seq(json).map(|(db, _)| db)
}

/// Write a snapshot atomically through an arbitrary [`Vfs`]:
/// temp file → fsync → rename over the target.
pub fn save_with_vfs_seq(
    db: &Database,
    last_seq: u64,
    path: &Path,
    vfs: &dyn Vfs,
) -> DbResult<()> {
    let json = to_json_with_seq(db, last_seq)?;
    save_json_with_vfs(&json, path, vfs)
}

/// Persist an already-serialized snapshot (produced by
/// [`to_json_with_seq`]) with the same atomic protocol. Separated from
/// [`save_with_vfs_seq`] so a live server can serialize under a short
/// read lock and do the (slow) durable write with no lock held at all.
pub fn save_json_with_vfs(json: &str, path: &Path, vfs: &dyn Vfs) -> DbResult<()> {
    let span = toss_obs::span("xmldb.snapshot.write");
    span.record("bytes", json.len());
    let tmp = path.with_extension("snap.tmp");
    vfs.write(&tmp, json.as_bytes())
        .map_err(|e| DbError::Storage(format!("snapshot write failed: {e}")))?;
    vfs.sync(&tmp)
        .map_err(|e| DbError::Storage(format!("snapshot fsync failed: {e}")))?;
    vfs.rename(&tmp, path)
        .map_err(|e| DbError::Storage(format!("snapshot rename failed: {e}")))?;
    toss_obs::metrics::counter("xmldb.snapshot.writes").inc();
    toss_obs::metrics::counter("xmldb.snapshot.bytes_written").add(json.len() as u64);
    toss_obs::metrics::histogram("xmldb.snapshot.write_ns").observe_duration(span.finish());
    Ok(())
}

/// Write a snapshot atomically through an arbitrary [`Vfs`] with a zero
/// journal cursor (for databases not using a journal).
pub fn save_with_vfs(db: &Database, path: &Path, vfs: &dyn Vfs) -> DbResult<()> {
    save_with_vfs_seq(db, 0, path, vfs)
}

/// Load a snapshot and its journal cursor through an arbitrary [`Vfs`].
pub fn load_with_vfs_seq(path: &Path, vfs: &dyn Vfs) -> DbResult<(Database, u64)> {
    load_with_vfs_seq_seg(path, vfs, None).map(|(db, seq, _)| (db, seq))
}

/// [`load_with_vfs_seq`] attaching frozen indexes from an optional
/// verified segment; also returns the frozen-collection count.
pub fn load_with_vfs_seq_seg(
    path: &Path,
    vfs: &dyn Vfs,
    seg: Option<&Arc<Segment>>,
) -> DbResult<(Database, u64, usize)> {
    let span = toss_obs::span("xmldb.snapshot.load");
    let bytes = vfs
        .read(path)
        .map_err(|e| DbError::Storage(format!("snapshot read failed: {e}")))?;
    span.record("bytes", bytes.len());
    let json = String::from_utf8(bytes)
        .map_err(|_| DbError::snapshot_corruption("snapshot is not valid UTF-8"))?;
    let loaded = from_json_with_seq_seg(&json, seg)?;
    toss_obs::metrics::counter("xmldb.snapshot.loads").inc();
    toss_obs::metrics::histogram("xmldb.snapshot.load_ns").observe_duration(span.finish());
    Ok(loaded)
}

/// Load a snapshot through an arbitrary [`Vfs`].
pub fn load_with_vfs(path: &Path, vfs: &dyn Vfs) -> DbResult<Database> {
    load_with_vfs_seq(path, vfs).map(|(db, _)| db)
}

/// Write a snapshot to disk (atomically: temp file + fsync + rename).
pub fn save(db: &Database, path: &Path) -> DbResult<()> {
    save_with_vfs(db, path, &StdVfs)
}

/// Load a snapshot from disk.
pub fn load(path: &Path) -> DbResult<Database> {
    load_with_vfs(path, &StdVfs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultMode, FaultVfs};
    use std::path::PathBuf;

    fn sample_db() -> Database {
        let mut db = Database::new();
        let c = db.create_collection("dblp").unwrap();
        c.insert_xml("<a><b>x &amp; y</b></a>").unwrap();
        c.insert_xml("<c k=\"v\"/>").unwrap();
        db.create_collection("empty").unwrap();
        db
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
            c.documents()[0].tree.data(c.documents()[0].tree.root().unwrap()).unwrap().tag,
            "a"
        );
        // content with entities survived
        let t = &c.documents()[0].tree;
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
        save(&db, &path).unwrap();
        let db2 = load(&path).unwrap();
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
        let (db, last_seq) = from_json_with_seq(v1).unwrap();
        assert_eq!(db.config().collection_size_limit, Some(77));
        assert_eq!(db.collection("old").unwrap().len(), 1);
        assert_eq!(last_seq, 0, "v1 snapshots predate the journal");
    }

    #[test]
    fn document_ids_and_counter_survive_round_trip() {
        use crate::collection::DocumentId;
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
        let (_, last_seq) = from_json_with_seq(&json).unwrap();
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
        save_with_vfs(&old, &path, &vfs).unwrap();
        // Crash the new save at every protocol step; the old snapshot
        // must remain loadable (or the new one, once the rename landed).
        let new = sample_db();
        for step in 0..3 {
            let base = vfs.op_count();
            vfs.fail_op(base + step, FaultMode::Error);
            assert!(save_with_vfs(&new, &path, &vfs).is_err());
            vfs.crash();
            let db = load_with_vfs(&path, &vfs).unwrap();
            assert_eq!(db.collection_names(), vec!["old"], "step {step}");
        }
        // No fault: the save completes and replaces the old snapshot.
        save_with_vfs(&new, &path, &vfs).unwrap();
        vfs.crash();
        let db = load_with_vfs(&path, &vfs).unwrap();
        assert_eq!(db.collection_names(), vec!["dblp", "empty"]);
    }

    #[test]
    fn torn_snapshot_write_preserves_old_file() {
        let vfs = FaultVfs::new();
        let path = PathBuf::from("snap.json");
        let mut old = Database::new();
        old.create_collection("old").unwrap();
        save_with_vfs(&old, &path, &vfs).unwrap();
        // Tear the temp-file write; the target is untouched.
        vfs.fail_op(vfs.op_count(), FaultMode::Tear { keep: 10 });
        assert!(save_with_vfs(&sample_db(), &path, &vfs).is_err());
        vfs.crash();
        let db = load_with_vfs(&path, &vfs).unwrap();
        assert_eq!(db.collection_names(), vec!["old"]);
    }
}
