//! Fault-injection tests for the crash-safe persistence layer.
//!
//! The harness runs a fixed mutation workload against a
//! [`DurableDatabase`] on the in-memory [`FaultVfs`], injecting a failure
//! at *every* filesystem operation in turn (both clean errors and torn
//! writes), then simulates power loss and reopens. The invariant under
//! test is the WAL contract: the reopened database equals exactly the
//! prefix of operations that were acknowledged before the fault — nothing
//! acknowledged is lost, nothing unacknowledged survives.

use std::path::Path;
use std::sync::Arc;
use toss_tree::serialize::{tree_to_xml, Style};
use toss_xmldb::{
    Database, DatabaseConfig, DbError, DocumentId, DurableDatabase, FaultMode, FaultVfs, Vfs,
};

const STORE: &str = "store.json";

/// One step of the scripted workload.
#[derive(Debug, Clone)]
enum Step {
    Create(&'static str),
    Drop(&'static str),
    Insert(&'static str, &'static str),
    Remove(&'static str, u64),
    Replace(&'static str, u64, &'static str),
    Checkpoint,
}

/// A workload exercising every journal op plus mid-stream checkpoints.
fn workload() -> Vec<Step> {
    vec![
        Step::Create("dblp"),
        Step::Insert("dblp", "<article><title>TOSS</title></article>"),
        Step::Insert("dblp", "<article><title>TAX</title></article>"),
        Step::Create("sigmod"),
        Step::Insert("sigmod", "<paper><year>2004</year></paper>"),
        Step::Checkpoint,
        Step::Replace("dblp", 0, "<article><title>TOSS v2</title></article>"),
        Step::Remove("dblp", 1),
        Step::Insert("dblp", "<article><title>Xindice</title></article>"),
        Step::Drop("sigmod"),
        Step::Checkpoint,
        Step::Insert("dblp", "<note>post-checkpoint</note>"),
    ]
}

/// Apply one step to the durable database.
fn apply_durable(db: &mut DurableDatabase, step: &Step) -> Result<(), DbError> {
    match step {
        Step::Create(name) => db.create_collection(name),
        Step::Drop(name) => db.drop_collection(name),
        Step::Insert(coll, xml) => db.insert_xml(coll, xml).map(|_| ()),
        Step::Remove(coll, id) => db.remove_document(coll, DocumentId(*id)).map(|_| ()),
        Step::Replace(coll, id, xml) => db.replace_document(coll, DocumentId(*id), xml),
        Step::Checkpoint => db.checkpoint(),
    }
}

/// Mirror an *acknowledged* step onto the in-memory shadow model.
fn apply_shadow(db: &mut Database, step: &Step) {
    match step {
        Step::Create(name) => {
            db.create_collection(name).expect("shadow create");
        }
        Step::Drop(name) => {
            db.drop_collection(name).expect("shadow drop");
        }
        Step::Insert(coll, xml) => {
            db.collection_mut(coll)
                .expect("shadow collection")
                .insert_xml(xml)
                .expect("shadow insert");
        }
        Step::Remove(coll, id) => {
            db.collection_mut(coll)
                .expect("shadow collection")
                .remove(DocumentId(*id))
                .expect("shadow remove");
        }
        Step::Replace(coll, id, xml) => {
            let tree = toss_xmldb::parse_document(xml).expect("shadow parse");
            db.collection_mut(coll)
                .expect("shadow collection")
                .replace(DocumentId(*id), tree)
                .expect("shadow replace");
        }
        Step::Checkpoint => {}
    }
}

/// Deep equality of two databases: same collections, same document ids,
/// same serialized content.
fn assert_same_state(actual: &Database, expected: &Database, ctx: &str) {
    assert_eq!(
        actual.collection_names(),
        expected.collection_names(),
        "collection names differ ({ctx})"
    );
    for name in expected.collection_names() {
        let a = actual.collection(name).expect("collection exists");
        let e = expected.collection(name).expect("collection exists");
        let dump = |c: &toss_xmldb::Collection| -> Vec<(u64, String)> {
            c.documents()
                .iter()
                .map(|d| (d.id.0, tree_to_xml(d.tree(), Style::Compact)))
                .collect()
        };
        assert_eq!(dump(a), dump(e), "documents differ in `{name}` ({ctx})");
        assert_eq!(
            a.size_bytes(),
            e.size_bytes(),
            "size accounting differs in `{name}` ({ctx})"
        );
    }
}

/// Run the workload with a fault armed at absolute filesystem op
/// `fault_op`. Returns the shadow of acknowledged steps and whether the
/// workload ran to completion (fault never fired).
fn run_with_fault(vfs: Arc<FaultVfs>, fault_op: usize, mode: FaultMode) -> (Database, bool) {
    vfs.fail_op(fault_op, mode);
    let mut shadow = Database::with_config(DatabaseConfig::unlimited());
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    let mut db = match DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs) {
        Ok((db, _)) => db,
        Err(_) => return (shadow, false), // faulted during open: nothing acked
    };
    for step in workload() {
        match apply_durable(&mut db, &step) {
            Ok(()) => apply_shadow(&mut shadow, &step),
            Err(_) => return (shadow, false),
        }
    }
    (shadow, true)
}

/// The full matrix: for every filesystem operation the workload performs,
/// inject a fault there, crash, reopen, and check the committed prefix.
fn crash_matrix(mode: FaultMode) {
    let mut explored = 0usize;
    for fault_op in 0.. {
        let vfs = Arc::new(FaultVfs::new());
        let (shadow, completed) = run_with_fault(vfs.clone(), fault_op, mode);
        // A completed workload no longer proves the fault never fired:
        // best-effort writes (the `.seg` index sidecar) swallow their
        // fault and carry on. The op counter is the ground truth — the
        // fault fired iff the workload got past its armed index.
        let fault_was_beyond_workload = completed && vfs.op_count() <= fault_op;
        vfs.crash();
        let (reopened, _) =
            DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), vfs.clone())
                .unwrap_or_else(|e| panic!("reopen after fault at op {fault_op} ({mode:?}): {e}"));
        assert_same_state(
            reopened.db(),
            &shadow,
            &format!("fault at op {fault_op}, {mode:?}"),
        );
        if fault_was_beyond_workload {
            // Every earlier injection point has been exercised.
            explored = fault_op;
            break;
        }
    }
    assert!(
        explored > 20,
        "expected a non-trivial number of injection points, got {explored}"
    );
}

#[test]
fn crash_at_every_op_with_io_errors_recovers_committed_prefix() {
    crash_matrix(FaultMode::Error);
}

#[test]
fn crash_at_every_op_with_torn_writes_recovers_committed_prefix() {
    crash_matrix(FaultMode::Tear { keep: 3 });
}

/// Run the workload with a fault armed at `fault_op`, **continuing**
/// after the failed step instead of crashing (the ENOSPC-and-carry-on
/// shape: the process shrugs off one I/O error and keeps going).
/// Returns the shadow of acknowledged steps, after asserting the live
/// in-memory state matches it.
fn run_continuing_past_fault(vfs: Arc<FaultVfs>, fault_op: usize, mode: FaultMode) -> Database {
    vfs.fail_op(fault_op, mode);
    let mut shadow = Database::with_config(DatabaseConfig::unlimited());
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    let mut db = match DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
    {
        Ok((db, _)) => db,
        // Faulted during open: the one-shot fault is consumed, so a
        // retry must succeed on the residue the failed open left.
        Err(_) => DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs)
            .unwrap_or_else(|e| panic!("reopen after faulted open at op {fault_op}: {e}")).0,
    };
    for step in workload() {
        if apply_durable(&mut db, &step).is_ok() {
            apply_shadow(&mut shadow, &step);
        }
    }
    assert_same_state(
        db.db(),
        &shadow,
        &format!("live state after continuing past fault at op {fault_op}"),
    );
    shadow
}

/// The continue-after-fault matrix: inject a fault at every filesystem
/// operation, keep operating through it, then crash and reopen. Later
/// acknowledged operations must never be corrupted by residue (e.g. torn
/// journal bytes) of the earlier failed one.
fn continue_matrix(mode: FaultMode) {
    // A fault-free run establishes how many injection points exist.
    let clean = Arc::new(FaultVfs::new());
    run_continuing_past_fault(clean.clone(), usize::MAX, mode);
    let total_ops = clean.op_count();
    assert!(
        total_ops > 20,
        "expected a non-trivial number of injection points, got {total_ops}"
    );
    for fault_op in 0..total_ops {
        let vfs = Arc::new(FaultVfs::new());
        let shadow = run_continuing_past_fault(vfs.clone(), fault_op, mode);
        vfs.crash();
        let reopened = DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), vfs.clone())
            .unwrap_or_else(|e| {
                panic!("reopen after continuing past fault at op {fault_op} ({mode:?}): {e}")
            }).0;
        assert_same_state(
            reopened.db(),
            &shadow,
            &format!("continue past fault at op {fault_op}, {mode:?}"),
        );
    }
}

#[test]
fn continue_after_io_error_at_every_op_keeps_journal_valid() {
    continue_matrix(FaultMode::Error);
}

#[test]
fn continue_after_torn_write_at_every_op_keeps_journal_valid() {
    continue_matrix(FaultMode::Tear { keep: 3 });
}

#[test]
fn crash_and_resume_repeatedly_loses_nothing_acknowledged() {
    // Crash after each single successful step, reopening every time: the
    // database must carry the full acknowledged history forward.
    let vfs = Arc::new(FaultVfs::new());
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    let mut shadow = Database::with_config(DatabaseConfig::unlimited());
    for step in workload() {
        let mut db =
            DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
                .expect("reopen").0;
        assert_same_state(db.db(), &shadow, "resume point");
        apply_durable(&mut db, &step).expect("step applies");
        apply_shadow(&mut shadow, &step);
        vfs.crash();
    }
    let db = DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs)
        .expect("final reopen").0;
    assert_same_state(db.db(), &shadow, "final state");
}

#[test]
fn journal_truncated_at_every_byte_never_panics_and_opens_a_prefix() {
    // Build a journal with several uncheckpointed ops, then chop the WAL
    // at every possible byte length. Torn tails must be trimmed cleanly;
    // open must always succeed with some prefix of the history.
    let vfs = Arc::new(FaultVfs::new());
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    {
        let mut db =
            DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
                .expect("open").0;
        db.create_collection("c").expect("create");
        db.insert_xml("c", "<a><b>one</b></a>").expect("insert");
        db.insert_xml("c", "<a><b>two</b></a>").expect("insert");
        db.insert_xml("c", "<a><b>three</b></a>").expect("insert");
    }
    let wal = DurableDatabase::wal_path(Path::new(STORE));
    let full = vfs.read(&wal).expect("read wal");
    let mut doc_counts = std::collections::BTreeSet::new();
    for cut in 0..=full.len() {
        let vfs2 = Arc::new(FaultVfs::new());
        vfs2.corrupt(&wal, full[..cut].to_vec());
        let dyn2: Arc<dyn Vfs> = vfs2.clone();
        let db = DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn2)
            .unwrap_or_else(|e| panic!("open with wal cut at {cut}: {e}")).0;
        let n = db.db().collection("c").map(|c| c.len()).unwrap_or(0);
        doc_counts.insert(n);
        // After the torn tail was trimmed, a second open sees a clean
        // journal ending exactly on a record boundary.
        assert_eq!(
            db.pending_journal_ops()
                .unwrap_or_else(|e| panic!("rescan after trim at {cut}: {e}")),
            if db.db().collection("c").is_ok() { 1 + n } else { 0 },
        );
    }
    // Every prefix length 0..=3 must be reachable as the cut advances.
    assert_eq!(
        doc_counts.into_iter().collect::<Vec<_>>(),
        vec![0, 1, 2, 3],
        "cut positions should expose every committed prefix"
    );
}

#[test]
fn bit_flips_in_journal_are_detected_and_recoverable() {
    let vfs = Arc::new(FaultVfs::new());
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    {
        let mut db =
            DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
                .expect("open").0;
        db.create_collection("c").expect("create");
        db.insert_xml("c", "<a><b>payload</b></a>").expect("insert");
        db.insert_xml("c", "<a><b>payload two</b></a>").expect("insert");
    }
    let wal = DurableDatabase::wal_path(Path::new(STORE));
    let full = vfs.read(&wal).expect("read wal");
    // Flip one bit in every byte past the magic; each flip must be
    // rejected as corruption by a strict open — never misparsed.
    let mut corrupt_count = 0usize;
    for pos in 8..full.len() {
        let mut bytes = full.clone();
        bytes[pos] ^= 0x10;
        let vfs2 = Arc::new(FaultVfs::new());
        vfs2.corrupt(&wal, bytes);
        let dyn2: Arc<dyn Vfs> = vfs2.clone();
        match DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn2.clone()) {
            Err(DbError::Corruption { .. }) => {
                corrupt_count += 1;
                // Lenient recovery must still produce a working store.
                let (rec, _, report) =
                    DurableDatabase::recover_with(STORE, DatabaseConfig::unlimited(), dyn2)
                        .unwrap_or_else(|e| panic!("recover with flip at {pos}: {e}"));
                assert!(report.journal_error.is_some());
                assert!(rec.db().collection("c").map(|c| c.len()).unwrap_or(0) <= 2);
            }
            Err(e) => panic!("flip at {pos}: expected corruption, got {e}"),
            Ok((db, _)) => {
                // A flip in a length prefix can turn a record into a
                // plausible torn tail, which open trims as usual. The
                // surviving state must still be a valid prefix.
                assert!(db.db().collection("c").map(|c| c.len()).unwrap_or(0) <= 2);
            }
        }
    }
    assert!(
        corrupt_count > full.len() / 2,
        "most single-bit flips should be caught by the CRC, got {corrupt_count}/{}",
        full.len() - 8
    );
}

#[test]
fn bit_flipped_snapshot_is_corruption_and_recover_falls_back() {
    let vfs = Arc::new(FaultVfs::new());
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    {
        let mut db =
            DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
                .expect("open").0;
        db.create_collection("c").expect("create");
        db.insert_xml("c", "<a><b>snapshotted</b></a>").expect("insert");
        db.checkpoint().expect("checkpoint");
        db.insert_xml("c", "<a><b>journaled</b></a>").expect("insert");
    }
    // Corrupt the snapshot content without breaking JSON structure.
    let text =
        String::from_utf8(vfs.read(Path::new(STORE)).expect("read snapshot")).expect("utf8");
    let broken = text.replacen("snapshotted", "snapshotteD", 1);
    assert_ne!(text, broken);
    vfs.corrupt(Path::new(STORE), broken.into_bytes());

    let err = DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
        .expect_err("strict open must refuse a corrupt snapshot");
    assert!(matches!(err, DbError::Corruption { .. }), "got {err}");

    let (mut db, _, report) =
        DurableDatabase::recover_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
            .expect("recover");
    assert!(report.snapshot_error.is_some());
    assert!(!report.quarantined.is_empty(), "bad snapshot quarantined");
    // The snapshot-only history is gone; the journaled suffix could not
    // apply without it and is reported, not silently dropped.
    assert_eq!(report.skipped_ops.len(), 1);
    // The checkpoint after recovery re-persists a consistent (if empty)
    // store: strict opens work again.
    db.checkpoint().expect("re-persist");
    drop(db);
    DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs)
        .expect("store is consistent after recovery");
}

#[test]
fn size_limit_is_enforced_on_replay_with_shrunk_config() {
    // Journal ops recorded under an unlimited config, then replayed into
    // a database whose config now has a tiny limit (no snapshot exists,
    // so the open-time config applies): the oversized replay op must be
    // refused with CollectionFull — strictly on open, reported by recover.
    let vfs = Arc::new(FaultVfs::new());
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    {
        let mut db =
            DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
                .expect("open").0;
        db.create_collection("c").expect("create");
        db.insert_xml("c", "<a><b>0123456789012345678901234567890123456789</b></a>")
            .expect("insert");
    }
    vfs.crash();
    let tiny = DatabaseConfig {
        collection_size_limit: Some(16),
    };
    let err = DurableDatabase::open_with(STORE, tiny.clone(), dyn_vfs.clone())
        .expect_err("replay over the limit must fail a strict open");
    assert!(matches!(err, DbError::CollectionFull { .. }), "got {err}");

    let (db, _, report) = DurableDatabase::recover_with(STORE, tiny, dyn_vfs).expect("recover");
    assert_eq!(report.skipped_ops.len(), 1);
    assert!(matches!(
        report.skipped_ops[0].1,
        DbError::CollectionFull { limit: 16, .. }
    ));
    assert_eq!(db.db().collection("c").expect("collection").len(), 0);
}

#[test]
fn real_filesystem_round_trip_with_journal() {
    // The same machinery on StdVfs: mutate, drop without checkpoint,
    // reopen, and find everything (snapshot absent, journal replayed).
    let dir = std::env::temp_dir().join("toss-durability-test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let store = dir.join("real-store.json");
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(DurableDatabase::wal_path(&store)).ok();

    {
        let mut db = DurableDatabase::open(store.clone(), DatabaseConfig::unlimited())
            .expect("open fresh");
        db.create_collection("c").expect("create");
        db.insert_xml("c", "<a><b>alpha</b></a>").expect("insert");
        db.insert_xml("c", "<a><b>beta</b></a>").expect("insert");
        // no checkpoint: state lives only in the WAL
    }
    {
        let mut db =
            DurableDatabase::open(store.clone(), DatabaseConfig::unlimited()).expect("reopen");
        assert_eq!(db.db().collection("c").expect("collection").len(), 2);
        db.checkpoint().expect("checkpoint");
    }
    {
        let db = DurableDatabase::open(store.clone(), DatabaseConfig::unlimited())
            .expect("reopen after checkpoint");
        assert_eq!(db.db().collection("c").expect("collection").len(), 2);
        assert_eq!(db.pending_journal_ops().expect("scan"), 0);
    }
    std::fs::remove_file(&store).ok();
    std::fs::remove_file(DurableDatabase::wal_path(&store)).ok();
}

/// A reopened store builds a document's tree when something first reads
/// it. Querying one document, removing another whose tree was never
/// built, checkpointing and reopening leave exactly the documents an
/// eagerly built store holds.
#[test]
fn a_lazily_opened_store_queries_removes_and_checkpoints_like_an_eager_one() {
    let vfs = Arc::new(FaultVfs::new());
    let open = || {
        let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
        DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs)
            .expect("open")
            .0
    };
    let mut shadow = Database::with_config(DatabaseConfig::unlimited());
    let mut db = open();
    let mut steps = vec![Step::Create("dblp")];
    for xml in [
        "<article><title>TOSS</title></article>",
        "<article key=\"x\"><title>TAX</title><year>2001</year></article>",
        "<note>mixed <b>content</b></note>",
        "<article><title>Xindice &amp; TAX</title></article>",
    ] {
        steps.push(Step::Insert("dblp", xml));
    }
    steps.push(Step::Checkpoint);
    for step in &steps {
        apply_durable(&mut db, step).expect("workload step");
        apply_shadow(&mut shadow, step);
    }
    drop(db);

    let query = toss_xmldb::XPath::parse("//year[text()='2001']").expect("query parses");
    let answers = |db: &Database| query.eval_collection(db.collection("dblp").expect("dblp"));
    let mut db = open();
    assert!(
        db.db().collection("dblp").expect("dblp").is_frozen(),
        "the open took the segment"
    );
    // only the one document with a `year` is read
    assert_eq!(answers(db.db()).len(), 1);
    assert_eq!(answers(db.db()), answers(&shadow));
    for step in [Step::Remove("dblp", 3), Step::Checkpoint] {
        apply_durable(&mut db, &step).expect("workload step");
        apply_shadow(&mut shadow, &step);
    }
    assert_same_state(db.db(), &shadow, "after the checkpoint");
    drop(db);

    let db = open();
    assert_same_state(db.db(), &shadow, "reopened");
    assert_eq!(answers(db.db()), answers(&shadow));
}

/// Satellite for the live-write PR: a crash **mid-snapshot** — the
/// checkpoint dies while writing the temp file, before the atomic
/// rename — must fall back to the previous snapshot plus the journal
/// tail. The merely-partial temp file is not corruption: nothing is
/// quarantined and no `.corrupt` artifact appears.
#[test]
fn kill_mid_snapshot_falls_back_to_previous_snapshot_plus_journal_tail() {
    let vfs = Arc::new(FaultVfs::new());
    let mut shadow = Database::with_config(DatabaseConfig::unlimited());
    {
        let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
        let mut db =
            DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs).unwrap().0;
        // the full workload lands cleanly (ends with a journal tail
        // past the last good checkpoint)
        for step in workload() {
            apply_durable(&mut db, &step).expect("clean workload step");
            apply_shadow(&mut shadow, &step);
        }
        // the NEXT mutating fs op is the checkpoint's temp-snapshot
        // write: tear it a few bytes in, then kill the process
        vfs.fail_op(vfs.op_count(), FaultMode::Tear { keep: 5 });
        db.checkpoint()
            .expect_err("a torn temp-snapshot write must fail the checkpoint");
    }
    vfs.crash();

    let (recovered, _, report) =
        DurableDatabase::recover_with(STORE, DatabaseConfig::unlimited(), vfs.clone())
            .expect("recovery after mid-snapshot kill");
    assert!(
        report.snapshot_loaded,
        "the previous snapshot must still load: {report:?}"
    );
    assert!(report.snapshot_error.is_none(), "{report:?}");
    assert!(
        report.quarantined.is_empty(),
        "a partial temp file is not corruption: {report:?}"
    );
    assert_same_state(recovered.db(), &shadow, "mid-snapshot kill");
    // no .corrupt artifact was manufactured for the aborted temp file
    assert!(vfs.read(Path::new("store.json.corrupt")).is_err());
}

/// A checkpoint verifies the new snapshot *before* it renames it over
/// the old one. Hand `checkpoint_json_seg` a snapshot whose checksum is
/// right but one of whose documents does not parse: the checkpoint
/// fails with the parse error, and a reopen still finds the
/// pre-checkpoint state — the old snapshot with the journal replayed.
/// (Before the verify moved ahead of the rename, the bad snapshot
/// replaced the good one first and this reopen failed.)
#[test]
fn checkpoint_refuses_an_unloadable_snapshot_before_replacing_the_old_one() {
    let vfs = Arc::new(FaultVfs::new());
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    let mut shadow = Database::with_config(DatabaseConfig::unlimited());
    let mut db = DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs.clone())
        .expect("open").0;
    // ends with a journal tail past the last good checkpoint
    for step in workload() {
        apply_durable(&mut db, &step).expect("clean workload step");
        apply_shadow(&mut shadow, &step);
    }
    let (_, mut writer) = db.into_parts();
    let cursor = writer.next_seq();
    let data = format!(
        r#"{{"collection_size_limit":null,"last_seq":{cursor},"collections":[{{"name":"dblp","next_id":2,"documents":[{{"id":0,"xml":"<a/>"}},{{"id":1,"xml":"<a><b></a>"}}]}}]}}"#
    );
    let json = format!(
        r#"{{"version":2,"checksum":{},"data":{data}}}"#,
        toss_xmldb::crc32::crc32(data.as_bytes())
    );
    let err = writer
        .checkpoint_json_seg(json, cursor, None, None)
        .expect_err("a snapshot that does not load must fail the checkpoint");
    assert!(matches!(err, DbError::Parse { .. }), "got {err}");
    drop(writer);
    vfs.crash();
    let reopened = DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs)
        .expect("the old snapshot and its journal still open").0;
    assert_same_state(reopened.db(), &shadow, "after a refused checkpoint");
}
