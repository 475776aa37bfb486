//! Crash-safe database: write-ahead journal + checksummed snapshots.
//!
//! [`DurableDatabase`] wraps a [`Database`] with the classic WAL
//! discipline. Every mutation is:
//!
//! 1. **validated** against the in-memory state (so step 3 cannot fail),
//! 2. **journaled** — appended to the write-ahead log and fsynced,
//! 3. **applied** in memory.
//!
//! A crash before step 2 completes loses only the un-acknowledged
//! operation; a crash after it loses nothing: the next
//! [`DurableDatabase::open`] replays the journal over the newest
//! snapshot. [`DurableDatabase::checkpoint`] folds the journal into a new
//! atomic snapshot, verified before it replaces the old one, and
//! truncates it; sequence numbers make the protocol
//! idempotent, so a crash between those two steps merely leaves records
//! that the next replay skips.
//!
//! Each open reads the journal once and returns the records it
//! scanned. [`DurableDatabase::open_with`] is *strict*: damaged bytes
//! surface as [`DbError::Corruption`] and nothing is guessed;
//! [`DurableDatabase::open_read_only_with`] is as strict and writes
//! nothing. [`DurableDatabase::recover_with`] is *lenient*: it
//! quarantines damaged files, rebuilds the best state reachable from
//! the valid snapshot and journal prefix, and reports exactly what was
//! lost in a [`RecoveryReport`]; the caller's checkpoint then makes that
//! state durable again.

use crate::collection::check_size_limit;
use crate::database::{Database, DatabaseConfig};
use crate::error::{DbError, DbResult};
use crate::journal::{Journal, JournalOp, JournalRecord, JournalScan};
use crate::segidx::Segment;
use crate::storage;
use crate::vfs::{StdVfs, Vfs};
use crate::DocumentId;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use toss_tree::serialize::{tree_to_xml, Style};
use toss_tree::Tree;

/// What a lenient [`DurableDatabase::recover_with`] found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded successfully.
    pub snapshot_loaded: bool,
    /// Why the snapshot was discarded, if it was.
    pub snapshot_error: Option<DbError>,
    /// Corruption that cut the journal short, if any (the valid prefix
    /// before it was still replayed).
    pub journal_error: Option<DbError>,
    /// Bytes of torn journal tail trimmed (the residue of a crashed
    /// append — expected, not corruption).
    pub torn_tail_bytes: usize,
    /// Journal operations successfully replayed.
    pub replayed_ops: usize,
    /// Journal operations that no longer applied, with their sequence
    /// numbers and the reason (e.g. a size limit lowered since logging).
    pub skipped_ops: Vec<(u64, DbError)>,
    /// Copies of damaged files kept for forensics (`*.corrupt`).
    pub quarantined: Vec<PathBuf>,
}

impl RecoveryReport {
    /// True when recovery found nothing wrong at all.
    pub fn is_clean(&self) -> bool {
        self.snapshot_error.is_none()
            && self.journal_error.is_none()
            && self.torn_tail_bytes == 0
            && self.skipped_ops.is_empty()
    }

    /// Best-effort copy of the damaged file at `path` to `<path>.corrupt`
    /// for forensics, listed in [`RecoveryReport::quarantined`]. If that
    /// name is taken by an earlier corruption event, a numeric suffix is
    /// added (`.corrupt.1`, `.corrupt.2`, …) so no forensic copy is ever
    /// overwritten. Returns whether the copy was kept.
    pub fn quarantine(&mut self, vfs: &dyn Vfs, path: &Path) -> bool {
        let Ok(bytes) = vfs.read(path) else {
            return false;
        };
        let mut os = path.as_os_str().to_os_string();
        os.push(".corrupt");
        let base = PathBuf::from(os);
        let mut dest = base.clone();
        let mut n = 0u64;
        while vfs.exists(&dest) {
            n += 1;
            let mut os = base.as_os_str().to_os_string();
            os.push(format!(".{n}"));
            dest = PathBuf::from(os);
        }
        if vfs.write(&dest, &bytes).is_err() {
            return false;
        }
        let _ = vfs.sync(&dest);
        self.quarantined.push(dest);
        true
    }

    /// Fold this report into the global `xmldb.recovery.*` counters (see
    /// `docs/durability.md` for how to read them via `toss stats`).
    /// Called once per recovery run.
    pub(crate) fn publish_metrics(&self) {
        use toss_obs::metrics::counter;
        counter("xmldb.recovery.runs").inc();
        counter("xmldb.recovery.replayed_ops").add(self.replayed_ops as u64);
        counter("xmldb.recovery.skipped_ops").add(self.skipped_ops.len() as u64);
        counter("xmldb.recovery.torn_tail_bytes").add(self.torn_tail_bytes as u64);
        counter("xmldb.recovery.quarantined_files").add(self.quarantined.len() as u64);
        if self.snapshot_error.is_some() {
            counter("xmldb.recovery.snapshots_discarded").inc();
        }
        if self.journal_error.is_some() {
            counter("xmldb.recovery.journals_cut_short").inc();
        }
    }
}

/// A [`Database`] with crash-safe persistence: the database plus the
/// [`DurableWriter`] that journals its mutations and checkpoints it.
pub struct DurableDatabase {
    db: Database,
    writer: DurableWriter,
}

impl std::fmt::Debug for DurableDatabase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableDatabase")
            .field("snapshot_path", &self.writer.snapshot_path)
            .field("journal", &self.writer.journal)
            .field("collections", &self.db.collection_names())
            .finish()
    }
}

impl DurableDatabase {
    /// The journal path used for a snapshot at `snapshot`: the same file
    /// name with `.wal` appended (`store.json` → `store.json.wal`).
    pub fn wal_path(snapshot: &Path) -> PathBuf {
        let mut os = snapshot.as_os_str().to_os_string();
        os.push(".wal");
        PathBuf::from(os)
    }

    /// The ontology file of a snapshot at `snapshot`, which
    /// [`DurableWriter::checkpoint_json_seg`] writes: the extension
    /// replaced by `ont.json` (`store.json` → `store.ont.json`).
    pub fn ontology_path(snapshot: &Path) -> PathBuf {
        snapshot.with_extension("ont.json")
    }

    /// Open (or create) a durable database on the real filesystem.
    /// `config` applies only when no snapshot exists yet.
    pub fn open(snapshot: impl Into<PathBuf>, config: DatabaseConfig) -> DbResult<Self> {
        Self::open_with(snapshot, config, Arc::new(StdVfs)).map(|(this, _)| this)
    }

    /// Open against an explicit [`Vfs`] (the fault-injection harness uses
    /// this), returning the journal records the open scanned. Strict:
    /// corruption anywhere fails the open; only a torn journal tail — the
    /// normal residue of a crashed append — is tolerated, and it is
    /// trimmed before the call returns.
    pub fn open_with(
        snapshot: impl Into<PathBuf>,
        config: DatabaseConfig,
        vfs: Arc<dyn Vfs>,
    ) -> DbResult<(Self, Vec<JournalRecord>)> {
        let snapshot_path = snapshot.into();
        let journal = |wal: &Path, cursor| Journal::open(wal, vfs.clone(), cursor);
        let (db, journal, records) = load(&snapshot_path, config, &*vfs, None, journal)?;
        let writer = DurableWriter {
            journal,
            snapshot_path,
            vfs,
        };
        Ok((DurableDatabase { db, writer }, records))
    }

    /// Load the committed state through `vfs` **without mutating any
    /// on-disk file**: no `.wal` is created for a store that lacks one,
    /// and a torn journal tail is skipped rather than trimmed. Strict like
    /// [`DurableDatabase::open`] — corruption is an error — but safe on
    /// read-only media and for query paths that should not write.
    /// Returns a plain [`Database`], since nothing can be committed
    /// through it, and the journal records the open scanned.
    pub fn open_read_only_with(
        snapshot: &Path,
        config: DatabaseConfig,
        vfs: &dyn Vfs,
    ) -> DbResult<(Database, Vec<JournalRecord>)> {
        let journal = |wal: &Path, _| Ok(((), Journal::scan_file(wal, vfs)?));
        let (db, (), records) = load(snapshot, config, vfs, None, journal)?;
        Ok((db, records))
    }

    /// Lenient recovery against an explicit [`Vfs`]: fall back to the
    /// last valid state, quarantine damaged files, and report what
    /// happened, beside the journal records it scanned. Only I/O
    /// failures can make this return `Err`. It writes no snapshot: the
    /// caller's checkpoint makes the recovered state durable again.
    pub fn recover_with(
        snapshot: impl Into<PathBuf>,
        config: DatabaseConfig,
        vfs: Arc<dyn Vfs>,
    ) -> DbResult<(Self, Vec<JournalRecord>, RecoveryReport)> {
        let span = toss_obs::span("xmldb.recover");
        let snapshot_path = snapshot.into();
        let mut report = RecoveryReport::default();
        let journal = |wal: &Path, cursor| Journal::open(wal, vfs.clone(), cursor);
        let (db, journal, records) =
            load(&snapshot_path, config, &*vfs, Some(&mut report), journal)?;
        report.publish_metrics();
        span.record("replayed_ops", report.replayed_ops);
        span.record("clean", report.is_clean());
        drop(span);
        let writer = DurableWriter {
            journal,
            snapshot_path,
            vfs,
        };
        Ok((DurableDatabase { db, writer }, records, report))
    }

    /// The underlying database (for queries).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Consume the wrapper, returning the in-memory database. Anything
    /// not yet checkpointed stays recoverable from the journal.
    pub fn into_inner(self) -> Database {
        self.db
    }

    /// Number of operations currently recorded in the journal: those
    /// not yet folded into a snapshot by [`DurableDatabase::checkpoint`],
    /// plus the ontology records it keeps.
    /// O(1): the count is tracked incrementally, not rescanned.
    pub fn pending_journal_ops(&self) -> DbResult<usize> {
        self.writer.pending_journal_ops()
    }

    /// Create a collection, durably.
    pub fn create_collection(&mut self, name: &str) -> DbResult<()> {
        self.commit(JournalOp::CreateCollection { name: name.into() })?;
        Ok(())
    }

    /// Drop a collection, durably.
    pub fn drop_collection(&mut self, name: &str) -> DbResult<()> {
        self.commit(JournalOp::DropCollection { name: name.into() })?;
        Ok(())
    }

    /// Insert a document, durably; returns its id.
    ///
    /// The XML is canonicalized (parsed and re-serialized compactly)
    /// before journaling so the logged record replays byte-identically.
    /// [`DatabaseConfig::collection_size_limit`] is enforced here *and*
    /// on replay, through the same code path.
    pub fn insert_xml(&mut self, collection: &str, xml: &str) -> DbResult<DocumentId> {
        let tree = crate::parser::parse_document(xml)?;
        let canonical = tree_to_xml(&tree, Style::Compact);
        let id = self.commit(JournalOp::Insert {
            collection: collection.into(),
            xml: canonical,
        })?;
        id.ok_or_else(|| DbError::Storage("insert produced no document id".into()))
    }

    /// Remove a document, durably; returns the removed tree.
    pub fn remove_document(&mut self, collection: &str, id: DocumentId) -> DbResult<Tree> {
        let tree = self.db.collection(collection)?.get(id)?.tree().clone();
        self.commit(JournalOp::Remove {
            collection: collection.into(),
            doc_id: id.0,
        })?;
        Ok(tree)
    }

    /// Replace a document's content in place, durably.
    pub fn replace_document(
        &mut self,
        collection: &str,
        id: DocumentId,
        xml: &str,
    ) -> DbResult<()> {
        let tree = crate::parser::parse_document(xml)?;
        let canonical = tree_to_xml(&tree, Style::Compact);
        self.commit(JournalOp::Replace {
            collection: collection.into(),
            doc_id: id.0,
            xml: canonical,
        })?;
        Ok(())
    }

    /// Fold the journal into a fresh verified snapshot (plus its `.seg`
    /// index-segment sidecar) and truncate it — the one checkpoint
    /// routine, with no ontology, so it keeps the ontology records —
    /// then rebase every collection's index onto the segment
    /// just written, so the delta of writes since the last checkpoint
    /// starts empty again.
    pub fn checkpoint(&mut self) -> DbResult<()> {
        let seg = self.writer.checkpoint_segment(&self.db)?;
        if let Ok(seg) = Segment::parse(seg) {
            crate::segidx::rebase(&mut self.db, &Arc::new(seg));
        }
        Ok(())
    }

    /// The WAL discipline: validate, journal + fsync, apply.
    fn commit(&mut self, op: JournalOp) -> DbResult<Option<DocumentId>> {
        BatchValidator::new(&self.db).check(&op)?;
        self.writer.journal.append(&op)?;
        apply_op(&mut self.db, &op)
    }

    /// The journal's current records (a strict scan, which re-reads the
    /// whole file). An open already returns the records it replayed;
    /// this is for a caller that opened by [`DurableDatabase::open`].
    pub fn journal_records(&self) -> DbResult<Vec<JournalRecord>> {
        self.writer.journal_records()
    }

    /// Split into the in-memory [`Database`] and a [`DurableWriter`]
    /// owning the durability machinery (journal + snapshot path + vfs).
    ///
    /// This is how a live server shares the store: the database goes
    /// behind a read/write lock for concurrent readers, while a single
    /// writer thread owns the `DurableWriter` and runs the same
    /// validate → journal+fsync → apply discipline every
    /// `DurableDatabase` mutation runs — with [`DurableWriter::append_batch`]
    /// providing group commit.
    pub fn into_parts(self) -> (Database, DurableWriter) {
        (self.db, self.writer)
    }
}

/// The durability half of a split [`DurableDatabase`] (see
/// [`DurableDatabase::into_parts`]): the journal, the snapshot path, and
/// the vfs — but **not** the database, which the caller owns and mutates
/// via [`apply_op`] only after the corresponding journal append fsynced.
pub struct DurableWriter {
    journal: Journal,
    snapshot_path: PathBuf,
    vfs: Arc<dyn Vfs>,
}

impl std::fmt::Debug for DurableWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableWriter")
            .field("snapshot_path", &self.snapshot_path)
            .field("journal", &self.journal)
            .finish()
    }
}

impl DurableWriter {
    /// Group-commit a validated batch: one append, one fsync, all-or-
    /// nothing. Returns the sequence numbers. Only after this returns
    /// `Ok` may the caller apply the ops in memory (and acknowledge
    /// them to clients).
    pub fn append_batch(&mut self, ops: &[JournalOp]) -> DbResult<Vec<u64>> {
        self.journal.append_batch(ops)
    }

    /// [`DurableWriter::append_batch`] with each op's idempotency key
    /// journaled inside its record, so a restarted server can rebuild
    /// its dedupe table from [`DurableWriter::journal_keys`].
    pub fn append_batch_keyed(
        &mut self,
        ops: &[(JournalOp, Option<String>)],
    ) -> DbResult<Vec<u64>> {
        self.journal.append_batch_keyed(ops)
    }

    /// The journal's current records (strict scan, which re-reads the
    /// whole file).
    pub fn journal_records(&self) -> DbResult<Vec<JournalRecord>> {
        Ok(self.journal.scan()?.records)
    }

    /// The `(idempotency key, sequence number)` of every keyed record in
    /// the journal, in append order: a starting server reseeds its
    /// dedupe table from here. Tracked from the open's scan, each append
    /// and each rewrite, so this reads nothing.
    pub fn journal_keys(&self) -> &[(String, u64)] {
        self.journal.keys()
    }

    /// The sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.journal.next_seq()
    }

    /// Number of operations currently in the journal (not yet folded
    /// into a snapshot). O(1): tracked incrementally, not rescanned —
    /// the writer loop consults this after every committed batch.
    pub fn pending_journal_ops(&self) -> DbResult<usize> {
        Ok(self.journal.record_count())
    }

    /// Durability probe: append + fsync a [`JournalOp::Noop`]. A probe
    /// that succeeds proves the whole write path (open file, append,
    /// fsync) is healthy again — this is what clears degraded mode. If
    /// the journal was poisoned by an unrepaired append failure, one
    /// atomic repair (rewrite to the valid prefix) is attempted first,
    /// so a healed disk can actually recover.
    pub fn probe(&mut self) -> DbResult<u64> {
        match self.journal.append(&JournalOp::Noop) {
            Ok(seq) => Ok(seq),
            Err(first) => {
                let records = match self.journal.scan_lenient() {
                    Ok(scan) => scan.records,
                    Err(_) => return Err(first),
                };
                self.journal.rewrite(&records).map_err(|_| first)?;
                self.journal.append(&JournalOp::Noop)
            }
        }
    }

    /// The one checkpoint routine, from an already-serialized snapshot
    /// (produced by [`storage::to_json_with_seq`] with `cursor` as its
    /// `last_seq`, typically under a brief read lock on the live
    /// database):
    ///
    /// 1. when given `ontology` — opaque bytes to this crate, the
    ///    embedder's ontology as of `cursor` — write it over
    ///    [`DurableDatabase::ontology_path`] (temp file, fsync, rename);
    /// 2. write the snapshot to a temp file, fsync it and free `json`,
    ///    so only one copy of the snapshot is ever held;
    /// 3. **verify** it: read the temp file back and run every check a
    ///    load makes — UTF-8, JSON, version, checksum, header fields,
    ///    each document's id and XML, taken names, duplicate ids, the
    ///    size limit — without building a database. A failure returns
    ///    the load's error and leaves the old snapshot in place;
    /// 4. rename it over the old snapshot;
    /// 5. write the pre-built `.seg` index-segment bytes (stamped with
    ///    the same `cursor`) as a sidecar — best effort: a failure costs
    ///    the next open a rebuild, never the checkpoint;
    /// 6. only then truncate the journal, retaining any record with
    ///    `seq >= cursor` (appended after serialization), so nothing the
    ///    snapshot does not contain is ever dropped — and, without an
    ///    `ontology`, every [`JournalOp::AddTerm`]/[`JournalOp::AddEdge`]
    ///    record with its seq: the snapshot does not hold them.
    ///
    /// A crash or an error at any point leaves a recoverable store:
    /// before the rename the old snapshot + full journal stand; after
    /// it, the new snapshot's cursor makes stale journal records replay
    /// as no-ops. An ontology written at `cursor` covers every ontology
    /// record below it, whichever snapshot stands.
    pub fn checkpoint_json_seg(
        &mut self,
        json: String,
        cursor: u64,
        segment: Option<&[u8]>,
        ontology: Option<&str>,
    ) -> DbResult<()> {
        let span = toss_obs::span("xmldb.checkpoint");
        if let Some(ontology) = ontology {
            let path = DurableDatabase::ontology_path(&self.snapshot_path);
            storage::save_json_with_vfs(ontology, &path, &*self.vfs)?;
        }
        storage::save_verified_json(json, &self.snapshot_path, &*self.vfs)?;
        if let Some(bytes) = segment {
            crate::segidx::write_segment(&*self.vfs, &self.snapshot_path, bytes);
        }
        // Every record's seq is below `next_seq`: at that cursor, with
        // no ontology record to keep, there is no tail, and no need to
        // read the journal to find it.
        let kept_ontology = ontology.is_none() && self.journal.ontology_count() > 0;
        let tail: Vec<_> = if cursor >= self.journal.next_seq() && !kept_ontology {
            Vec::new()
        } else {
            self.journal
                .scan_lenient()?
                .records
                .into_iter()
                .filter(|r| r.seq >= cursor || (kept_ontology && r.op.is_ontology()))
                .collect()
        };
        span.record("retained", tail.len());
        self.journal.rewrite(&tail)
    }

    /// Serialize `db` (stamped with the current cursor) and checkpoint,
    /// including the `.seg` sidecar, with no ontology: it keeps every
    /// [`JournalOp::AddTerm`]/[`JournalOp::AddEdge`] record in the
    /// journal. An embedder that holds the store's ontology passes it to
    /// [`DurableWriter::checkpoint_json_seg`] instead.
    pub fn checkpoint(&mut self, db: &Database) -> DbResult<()> {
        self.checkpoint_segment(db).map(drop)
    }

    /// [`DurableWriter::checkpoint`], returning the `.seg` bytes it wrote.
    fn checkpoint_segment(&mut self, db: &Database) -> DbResult<Vec<u8>> {
        let cursor = self.journal.next_seq();
        let json = storage::to_json_with_seq(db, cursor)?;
        let seg = crate::segidx::build_segment(db, cursor);
        self.checkpoint_json_seg(json, cursor, Some(&seg), None)?;
        Ok(seg)
    }
}

/// Sequential validation of a write batch against a base [`Database`]
/// plus the accumulated effects of the batch's earlier ops — without
/// mutating anything.
///
/// The one write-validation rule: a single op is a batch of one. Ops
/// cannot be validated one by one against the base alone: an `Insert`
/// may target a collection a `CreateCollection` earlier in the same
/// batch brings into existence, and size-limit math must count bytes
/// earlier ops added. `BatchValidator` tracks that overlay. After every
/// op of a batch passes [`BatchValidator::check`] in order, applying
/// them in order with [`apply_op`] cannot fail.
pub struct BatchValidator<'a> {
    db: &'a Database,
    /// Collection-existence overlay: `true` = exists (created in batch),
    /// `false` = dropped in batch. Absent = defer to the base database.
    exists: std::collections::BTreeMap<String, bool>,
    /// Collections (re)created within the batch: they have no base
    /// documents and start at zero bytes.
    fresh: std::collections::BTreeSet<String>,
    /// Current size in bytes of collections the batch touched.
    sizes: std::collections::BTreeMap<String, usize>,
    /// Size overrides for documents replaced within the batch.
    doc_sizes: std::collections::BTreeMap<(String, u64), usize>,
    /// Documents removed within the batch.
    removed: std::collections::BTreeSet<(String, u64)>,
    /// How deep an op's XML may nest: the parser's limit for new writes,
    /// unlimited for journal records the store already holds.
    max_depth: usize,
    /// The measuring parse's decoding buffer, reused across the batch.
    buf: String,
}

impl<'a> BatchValidator<'a> {
    /// Start validating a batch of new writes against `db`'s current
    /// state.
    pub fn new(db: &'a Database) -> Self {
        BatchValidator {
            db,
            exists: Default::default(),
            fresh: Default::default(),
            sizes: Default::default(),
            doc_sizes: Default::default(),
            removed: Default::default(),
            max_depth: crate::parser::MAX_DEPTH,
            buf: String::new(),
        }
    }

    /// Start validating journal records being replayed: their documents
    /// were accepted when written, so they are not held to a depth
    /// limit introduced since.
    fn replaying(db: &'a Database) -> Self {
        BatchValidator {
            max_depth: usize::MAX,
            ..BatchValidator::new(db)
        }
    }

    /// The compact size of the tree `xml` parses to, or the error its
    /// parse would return, found without building the tree.
    fn measure(&mut self, xml: &str) -> DbResult<usize> {
        Ok(crate::parser::measure(xml, self.max_depth, &mut self.buf)?.size)
    }

    fn collection_exists(&self, name: &str) -> bool {
        match self.exists.get(name) {
            Some(&e) => e,
            None => self.db.collection(name).is_ok(),
        }
    }

    /// Current byte size of `name`, accounting for in-batch effects.
    fn cur_size(&self, name: &str) -> usize {
        if let Some(&s) = self.sizes.get(name) {
            return s;
        }
        if self.fresh.contains(name) {
            return 0;
        }
        self.db.collection(name).map(|c| c.size_bytes()).unwrap_or(0)
    }

    fn size_limit(&self, name: &str) -> Option<usize> {
        if self.fresh.contains(name) {
            // In-batch collections get the database-wide config limit,
            // exactly as `Database::create_collection` assigns it.
            self.db.config().collection_size_limit
        } else {
            self.db.collection(name).ok().and_then(|c| c.size_limit())
        }
    }

    /// Size of document `id` in `name`, honoring in-batch replaces;
    /// `Err(NoSuchDocument)` if it does not exist at this point of the
    /// batch (absent from base, in a fresh collection, or removed).
    fn doc_size(&self, name: &str, id: u64) -> DbResult<usize> {
        let key = (name.to_string(), id);
        if self.removed.contains(&key) {
            return Err(DbError::NoSuchDocument(id));
        }
        if let Some(&s) = self.doc_sizes.get(&key) {
            return Ok(s);
        }
        if self.fresh.contains(name) {
            return Err(DbError::NoSuchDocument(id));
        }
        Ok(self.db.collection(name)?.get(DocumentId(id))?.size_bytes)
    }

    /// Forget per-document overlay state for a collection that was
    /// dropped (its documents are gone with it).
    fn clear_collection(&mut self, name: &str) {
        self.doc_sizes.retain(|(c, _), _| c != name);
        self.removed.retain(|(c, _)| c != name);
        self.sizes.remove(name);
    }

    /// Validate the next op of the batch and fold its effects into the
    /// overlay. Ops must be checked in batch order.
    pub fn check(&mut self, op: &JournalOp) -> DbResult<()> {
        match op {
            JournalOp::CreateCollection { name } => {
                if self.collection_exists(name) {
                    return Err(DbError::CollectionExists(name.clone()));
                }
                self.exists.insert(name.clone(), true);
                self.fresh.insert(name.clone());
                self.clear_collection(name);
                self.sizes.insert(name.clone(), 0);
                Ok(())
            }
            JournalOp::DropCollection { name } => {
                if !self.collection_exists(name) {
                    return Err(DbError::NoSuchCollection(name.clone()));
                }
                self.exists.insert(name.clone(), false);
                self.fresh.remove(name);
                self.clear_collection(name);
                Ok(())
            }
            JournalOp::Insert { collection, xml } => {
                if !self.collection_exists(collection) {
                    return Err(DbError::NoSuchCollection(collection.clone()));
                }
                let size = self.measure(xml)?;
                let cur = self.cur_size(collection);
                check_size_limit(collection, self.size_limit(collection), cur + size)?;
                self.sizes.insert(collection.clone(), cur + size);
                Ok(())
            }
            JournalOp::Remove { collection, doc_id } => {
                if !self.collection_exists(collection) {
                    return Err(DbError::NoSuchCollection(collection.clone()));
                }
                let old = self.doc_size(collection, *doc_id)?;
                let cur = self.cur_size(collection);
                self.sizes
                    .insert(collection.clone(), cur.saturating_sub(old));
                self.removed.insert((collection.clone(), *doc_id));
                Ok(())
            }
            JournalOp::Replace {
                collection,
                doc_id,
                xml,
            } => {
                if !self.collection_exists(collection) {
                    return Err(DbError::NoSuchCollection(collection.clone()));
                }
                let old = self.doc_size(collection, *doc_id)?;
                let new_size = self.measure(xml)?;
                let attempted = self.cur_size(collection) - old + new_size;
                check_size_limit(collection, self.size_limit(collection), attempted)?;
                self.sizes.insert(collection.clone(), attempted);
                self.doc_sizes
                    .insert((collection.clone(), *doc_id), new_size);
                Ok(())
            }
            JournalOp::AddTerm { .. } | JournalOp::AddEdge { .. } | JournalOp::Noop => Ok(()),
        }
    }
}

/// A database loaded from a snapshot: the database, its journal cursor
/// (the first sequence not folded in) and its frozen-collection count.
type Loaded = (Database, u64, usize);

/// The snapshot at `path`, with its `.seg` sidecar attached, or `None`
/// when there is no snapshot yet. A verified sidecar lets collections
/// come up frozen (zero-copy) instead of re-indexing; any sidecar
/// problem falls back to a rebuild inside the loader.
fn load_snapshot(path: &Path, vfs: &dyn Vfs) -> DbResult<Option<Loaded>> {
    if !vfs.exists(path) {
        return Ok(None);
    }
    let seg = crate::segidx::load_segment(vfs, path);
    storage::load(path, vfs, seg.as_ref()).map(Some)
}

/// The starting state of a store that has no snapshot.
fn empty(config: DatabaseConfig) -> Loaded {
    (Database::with_config(config), 0, 0)
}

/// The one loader behind every open: load the snapshot (or start empty
/// under `config`), open the `.wal` by `journal` at the snapshot's
/// cursor and replay its scan from there, then publish the index
/// gauges. Strict with no `report`: a damaged snapshot, journal
/// corruption or an op that no longer applies fails the load. Lenient
/// with one: a damaged snapshot or journal is quarantined (never the
/// derived `.seg`, which the next checkpoint overwrites), replay stops
/// at the journal's valid prefix and skips what no longer applies, and
/// the report records it all.
fn load<J>(
    snapshot: &Path,
    config: DatabaseConfig,
    vfs: &dyn Vfs,
    mut report: Option<&mut RecoveryReport>,
    journal: impl FnOnce(&Path, u64) -> DbResult<(J, JournalScan)>,
) -> DbResult<(Database, J, Vec<JournalRecord>)> {
    let (mut db, cursor, frozen) = match (load_snapshot(snapshot, vfs), report.as_deref_mut()) {
        (Ok(loaded), report) => {
            if let Some(report) = report {
                report.snapshot_loaded = loaded.is_some();
            }
            loaded.unwrap_or_else(|| empty(config))
        }
        (Err(err), Some(report)) => {
            report.quarantine(vfs, snapshot);
            report.snapshot_error = Some(err);
            empty(config)
        }
        (Err(err), None) => return Err(err),
    };
    // an open leaves a corrupt journal as it found it, for the quarantine
    let wal = DurableDatabase::wal_path(snapshot);
    let (opened, scan) = journal(&wal, cursor)?;
    match (scan.corruption, report.as_deref_mut()) {
        (Some(err), None) => return Err(err),
        (corruption, Some(report)) => {
            if corruption.is_some() {
                report.quarantine(vfs, &wal);
            }
            report.journal_error = corruption;
            report.torn_tail_bytes = scan.torn_tail_bytes;
        }
        (None, None) => {}
    }
    for rec in scan.records.iter().filter(|rec| rec.seq >= cursor) {
        let checked = BatchValidator::replaying(&db).check(&rec.op);
        match (checked.and_then(|()| apply_op(&mut db, &rec.op)), report.as_deref_mut()) {
            (Ok(_), Some(report)) => report.replayed_ops += 1,
            (Ok(_), None) => {}
            (Err(err), Some(report)) => report.skipped_ops.push((rec.seq, err)),
            (Err(err), None) => return Err(err),
        }
    }
    publish_index_gauges(&db, frozen);
    Ok((db, opened, scan.records))
}

/// Publish the index-footprint gauges after a cold open.
///
/// * `toss.index.pointer_bytes` — approximate heap bytes of the pointer
///   deltas and tombstones;
/// * `toss.index.segment_bytes` — bytes of frozen segment sections
///   currently serving probes;
/// * `toss.index.cold_open_source` — 1 when *every* collection in the
///   loaded snapshot attached a frozen segment index ("segment"), 0
///   when any had to rebuild ("rebuilt").
///
/// `frozen_at_load` counts collections that attached frozen during the
/// snapshot load. Journal replay writes into the delta beside the
/// frozen base; the byte gauges reflect the post-replay state.
pub(crate) fn publish_index_gauges(db: &Database, frozen_at_load: usize) {
    use toss_obs::metrics::gauge;
    let (mut pointer, mut segment) = (0usize, 0usize);
    let mut total = 0usize;
    for c in db.collections() {
        let (p, s) = c.index_bytes();
        pointer += p;
        segment += s;
        total += 1;
    }
    gauge("toss.index.pointer_bytes").set(pointer as i64);
    gauge("toss.index.segment_bytes").set(segment as i64);
    gauge("toss.index.cold_open_source").set((total > 0 && frozen_at_load == total) as i64);
}

/// Apply a validated operation. Shared by live commits and replay, so
/// recovery reconstructs exactly the state the live path built. Its XML
/// is parsed without the depth limit: the validator already enforced it
/// on new writes, and replay must not.
///
/// Public so external write paths (the serving layer's single-writer
/// loop) can run the same validate → journal → apply discipline over a
/// database they own, validating with [`BatchValidator`].
pub fn apply_op(db: &mut Database, op: &JournalOp) -> DbResult<Option<DocumentId>> {
    match op {
        JournalOp::CreateCollection { name } => {
            db.create_collection(name)?;
            Ok(None)
        }
        JournalOp::DropCollection { name } => {
            db.drop_collection(name)?;
            Ok(None)
        }
        JournalOp::Insert { collection, xml } => {
            let tree = crate::parser::parse_stored(xml)?;
            let id = db.collection_mut(collection)?.insert(tree)?;
            Ok(Some(id))
        }
        JournalOp::Remove { collection, doc_id } => {
            db.collection_mut(collection)?.remove(DocumentId(*doc_id))?;
            Ok(None)
        }
        JournalOp::Replace {
            collection,
            doc_id,
            xml,
        } => {
            let tree = crate::parser::parse_stored(xml)?;
            db.collection_mut(collection)?
                .replace(DocumentId(*doc_id), tree)?;
            Ok(None)
        }
        JournalOp::AddTerm { .. } | JournalOp::AddEdge { .. } | JournalOp::Noop => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;

    fn mem() -> (Arc<FaultVfs>, Arc<dyn Vfs>) {
        let fs = Arc::new(FaultVfs::new());
        let dyn_fs: Arc<dyn Vfs> = fs.clone();
        (fs, dyn_fs)
    }

    fn open_mem(vfs: Arc<dyn Vfs>) -> DurableDatabase {
        DurableDatabase::open_with("store.json", DatabaseConfig::unlimited(), vfs).unwrap().0
    }

    #[test]
    fn mutations_survive_crash_without_checkpoint() {
        let (fs, vfs) = mem();
        let mut db = open_mem(vfs.clone());
        db.create_collection("dblp").unwrap();
        let id = db.insert_xml("dblp", "<a><b>1</b></a>").unwrap();
        db.insert_xml("dblp", "<c/>").unwrap();
        db.remove_document("dblp", id).unwrap();
        fs.crash();
        let db = open_mem(vfs);
        let coll = db.db().collection("dblp").unwrap();
        assert_eq!(coll.len(), 1);
        assert!(coll.get(id).is_err());
    }

    #[test]
    fn checkpoint_then_crash_preserves_everything() {
        let (fs, vfs) = mem();
        let mut db = open_mem(vfs.clone());
        db.create_collection("dblp").unwrap();
        db.insert_xml("dblp", "<a/>").unwrap();
        db.checkpoint().unwrap();
        assert_eq!(db.pending_journal_ops().unwrap(), 0);
        db.insert_xml("dblp", "<b/>").unwrap();
        assert_eq!(db.pending_journal_ops().unwrap(), 1);
        fs.crash();
        let db = open_mem(vfs);
        assert_eq!(db.db().collection("dblp").unwrap().len(), 2);
    }

    #[test]
    fn document_ids_are_stable_across_recovery() {
        let (fs, vfs) = mem();
        let mut db = open_mem(vfs.clone());
        db.create_collection("c").unwrap();
        let a = db.insert_xml("c", "<a/>").unwrap();
        let b = db.insert_xml("c", "<b/>").unwrap();
        db.remove_document("c", a).unwrap();
        let c = db.insert_xml("c", "<c/>").unwrap();
        assert!(c > b);
        fs.crash();
        let db = open_mem(vfs);
        let coll = db.db().collection("c").unwrap();
        assert!(coll.get(b).is_ok());
        assert!(coll.get(c).is_ok());
        assert!(coll.get(a).is_err());
    }

    #[test]
    fn replace_is_durable() {
        let (fs, vfs) = mem();
        let mut db = open_mem(vfs.clone());
        db.create_collection("c").unwrap();
        let id = db.insert_xml("c", "<a><t>old</t></a>").unwrap();
        db.replace_document("c", id, "<a><t>new</t></a>").unwrap();
        fs.crash();
        let db = open_mem(vfs);
        let coll = db.db().collection("c").unwrap();
        assert_eq!(coll.index().by_tag_content("t", "new").len(), 1);
        assert_eq!(coll.index().by_tag_content("t", "old").len(), 0);
    }

    #[test]
    fn size_limit_enforced_on_live_insert_and_replay() {
        let (fs, vfs) = mem();
        let mut db = DurableDatabase::open_with(
            "store.json",
            DatabaseConfig {
                collection_size_limit: Some(30),
            },
            vfs.clone(),
        )
        .unwrap()
        .0;
        db.create_collection("tiny").unwrap();
        db.insert_xml("tiny", "<a><b>123456</b></a>").unwrap(); // 20 bytes
        let err = db.insert_xml("tiny", "<a><b>123456</b></a>").unwrap_err();
        assert!(matches!(err, DbError::CollectionFull { limit: 30, .. }));
        // The rejected insert was never journaled: replay succeeds.
        fs.crash();
        let db = DurableDatabase::open_with(
            "store.json",
            DatabaseConfig::unlimited(),
            vfs,
        )
        .unwrap()
        .0;
        assert_eq!(db.db().collection("tiny").unwrap().len(), 1);
    }

    #[test]
    fn failed_commit_leaves_memory_and_disk_consistent() {
        use crate::vfs::FaultMode;
        let (fs, vfs) = mem();
        let mut db = open_mem(vfs.clone());
        db.create_collection("c").unwrap();
        fs.fail_op(fs.op_count(), FaultMode::Error);
        assert!(db.insert_xml("c", "<a/>").is_err());
        // In-memory state did not apply the failed op...
        assert_eq!(db.db().collection("c").unwrap().len(), 0);
        // ...and neither did the durable state.
        fs.crash();
        let db = open_mem(vfs);
        assert_eq!(db.db().collection("c").unwrap().len(), 0);
    }

    #[test]
    fn repeated_corruption_never_overwrites_quarantine_copies() {
        let (fs, vfs) = mem();
        {
            let mut db = open_mem(vfs.clone());
            db.create_collection("c").unwrap();
            db.checkpoint().unwrap();
        }
        fs.corrupt(Path::new("store.json"), b"first garbage".to_vec());
        let (_, _, r1) =
            DurableDatabase::recover_with("store.json", DatabaseConfig::unlimited(), vfs.clone())
                .unwrap();
        assert_eq!(r1.quarantined, vec![PathBuf::from("store.json.corrupt")]);
        fs.corrupt(Path::new("store.json"), b"second garbage".to_vec());
        let (_, _, r2) =
            DurableDatabase::recover_with("store.json", DatabaseConfig::unlimited(), vfs.clone())
                .unwrap();
        assert_eq!(r2.quarantined, vec![PathBuf::from("store.json.corrupt.1")]);
        // Both forensic copies survive, each with its own bytes.
        assert_eq!(
            vfs.read(Path::new("store.json.corrupt")).unwrap(),
            b"first garbage"
        );
        assert_eq!(
            vfs.read(Path::new("store.json.corrupt.1")).unwrap(),
            b"second garbage"
        );
    }

    #[test]
    fn read_only_open_sees_journaled_state_but_mutates_nothing() {
        let (fs, vfs) = mem();
        {
            let mut db = open_mem(vfs.clone());
            db.create_collection("c").unwrap();
            db.insert_xml("c", "<a/>").unwrap();
            // no checkpoint: state lives only in the WAL
        }
        // Leave a torn tail, as a crashed append would.
        let wal = DurableDatabase::wal_path(Path::new("store.json"));
        let mut bytes = vfs.read(&wal).unwrap();
        bytes.extend_from_slice(&[1, 2, 3]);
        fs.corrupt(&wal, bytes.clone());
        let before_ops = fs.op_count();
        let (db, records) = DurableDatabase::open_read_only_with(
            Path::new("store.json"),
            DatabaseConfig::unlimited(),
            &*vfs,
        )
        .unwrap();
        assert_eq!(db.collection("c").unwrap().len(), 1);
        assert_eq!(records.len(), 2, "the scanned journal comes back with the store");
        // No file was created, rewritten, or trimmed.
        assert_eq!(fs.op_count(), before_ops, "read-only open performed writes");
        assert_eq!(vfs.read(&wal).unwrap(), bytes, "torn tail was trimmed");
        // A store that never existed gains no snapshot and no WAL.
        let (db, _) = DurableDatabase::open_read_only_with(
            Path::new("missing.json"),
            DatabaseConfig::unlimited(),
            &*vfs,
        )
        .unwrap();
        assert!(db.collection_names().is_empty());
        assert!(!vfs.exists(Path::new("missing.json")));
        assert!(!vfs.exists(&DurableDatabase::wal_path(Path::new("missing.json"))));
    }

    #[test]
    fn read_only_open_is_strict_about_corruption() {
        let (fs, vfs) = mem();
        {
            let mut db = open_mem(vfs.clone());
            db.create_collection("c").unwrap();
            db.insert_xml("c", "<a/>").unwrap();
        }
        let wal = DurableDatabase::wal_path(Path::new("store.json"));
        let mut bytes = vfs.read(&wal).unwrap();
        // Flip a byte inside the first record's payload (magic is 8
        // bytes, the record header another 8): a complete record whose
        // CRC no longer matches is corruption, not a torn tail.
        bytes[18] ^= 0x40;
        fs.corrupt(&wal, bytes);
        let err = DurableDatabase::open_read_only_with(
            Path::new("store.json"),
            DatabaseConfig::unlimited(),
            &*vfs,
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Corruption { .. }), "got {err:?}");
    }

    /// `depth` nested `<a>` elements around one text leaf.
    fn nested(depth: usize) -> String {
        format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth))
    }

    #[test]
    fn documents_nested_past_the_parse_limit_still_open_but_are_not_accepted_anew() {
        // a store written before the parser's depth limit existed: one
        // 300-deep document in the snapshot, an insert and a replace of
        // such documents in the journal
        let (deep, deeper) = (nested(300), nested(301));
        let (_fs, vfs) = mem();
        let mut store = open_mem(vfs.clone());
        store.create_collection("d").unwrap();
        let (mut db, mut writer) = store.into_parts();
        let tree = crate::parser::parse_stored(&deep).unwrap();
        db.collection_mut("d").unwrap().insert(tree).unwrap();
        writer.checkpoint(&db).unwrap();
        writer
            .append_batch(&[
                JournalOp::Insert {
                    collection: "d".into(),
                    xml: deep.clone(),
                },
                JournalOp::Replace {
                    collection: "d".into(),
                    doc_id: 0,
                    xml: deeper.clone(),
                },
            ])
            .unwrap();
        drop(writer);

        let stored = |db: &Database| -> Vec<String> {
            let c = db.collection("d").unwrap();
            c.documents()
                .iter()
                .map(|d| tree_to_xml(d.tree(), Style::Compact))
                .collect()
        };
        let mut store = open_mem(vfs.clone());
        assert_eq!(stored(store.db()), [deeper.clone(), deep.clone()]);
        let (recovered, _, report) =
            DurableDatabase::recover_with("store.json", DatabaseConfig::unlimited(), vfs).unwrap();
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(stored(recovered.db()), [deeper.clone(), deep.clone()]);

        // new writes of such a document are refused, through the
        // store's own API and through a server's validator alike
        let refused = |r: DbResult<()>| {
            let e = r.unwrap_err();
            assert!(e.to_string().contains("exceeds the limit"), "{e}");
        };
        refused(store.insert_xml("d", &deep).map(drop));
        refused(store.replace_document("d", DocumentId(1), &deep));
        refused(BatchValidator::new(store.db()).check(&JournalOp::Insert {
            collection: "d".into(),
            xml: deep,
        }));
    }

    #[test]
    fn a_refused_write_gets_the_error_its_tree_parse_gave() {
        let mut db = Database::with_config(DatabaseConfig {
            collection_size_limit: Some(40),
        });
        db.create_collection("d").unwrap();
        let base = crate::parser::parse_document("<r>ab</r>").unwrap();
        db.collection_mut("d").unwrap().insert(base).unwrap();
        let mut v = BatchValidator::new(&db);
        let refused = |v: &mut BatchValidator, op: JournalOp| v.check(&op).unwrap_err().to_string();
        let insert = |xml: &str| JournalOp::Insert {
            collection: "d".into(),
            xml: xml.into(),
        };
        assert_eq!(
            refused(&mut v, insert(&nested(257))),
            "XML parse error at byte 768: element nesting depth 257 exceeds the limit of 256"
        );
        assert_eq!(
            refused(&mut v, insert("<r><s></r>")),
            "XML parse error at byte 9: mismatched end tag: expected </s>, found </r>"
        );
        // sizes are the compact rendering's: 22 bytes, then 29
        v.check(&insert("<r  k = 'v' >  some text  </r >")).unwrap();
        assert_eq!(
            refused(&mut v, insert("<r>0123456789</r>")),
            "collection `d` full: 48 bytes > limit 40 bytes"
        );
        assert_eq!(
            refused(
                &mut v,
                JournalOp::Replace {
                    collection: "d".into(),
                    doc_id: 0,
                    xml: "<r  k = 'v' > some longer text </r >".into(),
                }
            ),
            "collection `d` full: 51 bytes > limit 40 bytes"
        );
    }

    #[test]
    fn split_writer_batch_commit_survives_crash() {
        let (fs, vfs) = mem();
        {
            let mut db = open_mem(vfs.clone());
            db.create_collection("c").unwrap();
            db.checkpoint().unwrap();
        }
        let (mut db, mut writer) = open_mem(vfs.clone()).into_parts();
        let batch = vec![
            JournalOp::Insert {
                collection: "c".into(),
                xml: "<a/>".into(),
            },
            JournalOp::AddTerm {
                terms: vec!["index".into()],
            },
            JournalOp::Insert {
                collection: "c".into(),
                xml: "<b/>".into(),
            },
        ];
        let mut v = BatchValidator::new(&db);
        for op in &batch {
            v.check(op).unwrap();
        }
        let seqs = writer.append_batch(&batch).unwrap();
        assert_eq!(seqs.len(), 3);
        for op in &batch {
            apply_op(&mut db, op).unwrap();
        }
        assert_eq!(db.collection("c").unwrap().len(), 2);
        fs.crash();
        let reopened = open_mem(vfs.clone());
        assert_eq!(reopened.db().collection("c").unwrap().len(), 2);
        // The ontology op is replayable from the journal tail.
        let onto: Vec<_> = reopened
            .journal_records()
            .unwrap()
            .into_iter()
            .filter(|r| matches!(r.op, JournalOp::AddTerm { .. } | JournalOp::AddEdge { .. }))
            .collect();
        assert_eq!(onto.len(), 1);
    }

    #[test]
    fn batch_validator_tracks_in_batch_effects() {
        let mut base = Database::with_config(DatabaseConfig {
            collection_size_limit: Some(30),
        });
        base.create_collection("c").unwrap();
        let id = base.collection_mut("c").unwrap().insert_xml("<a><b>123456</b></a>").unwrap(); // 20 bytes

        // Insert into a collection created earlier in the same batch.
        let mut v = BatchValidator::new(&base);
        v.check(&JournalOp::CreateCollection { name: "d".into() }).unwrap();
        v.check(&JournalOp::Insert {
            collection: "d".into(),
            xml: "<x/>".into(),
        })
        .unwrap();

        // Size limits account for earlier batch inserts: a second 20-byte
        // doc into `c` (20/30 used) must overflow.
        let mut v = BatchValidator::new(&base);
        let big = JournalOp::Insert {
            collection: "c".into(),
            xml: "<a><b>123456</b></a>".into(),
        };
        let err = v.check(&big).unwrap_err();
        assert!(matches!(err, DbError::CollectionFull { limit: 30, .. }));
        // ...but removing the existing doc first makes room.
        let mut v = BatchValidator::new(&base);
        v.check(&JournalOp::Remove {
            collection: "c".into(),
            doc_id: id.0,
        })
        .unwrap();
        v.check(&big).unwrap();
        // Double-remove of the same doc inside one batch is rejected.
        let err = v
            .check(&JournalOp::Remove {
                collection: "c".into(),
                doc_id: id.0,
            })
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchDocument(_)));

        // Drop forgets the base docs; a recreated collection is empty.
        let mut v = BatchValidator::new(&base);
        v.check(&JournalOp::DropCollection { name: "c".into() }).unwrap();
        v.check(&JournalOp::CreateCollection { name: "c".into() }).unwrap();
        let err = v
            .check(&JournalOp::Remove {
                collection: "c".into(),
                doc_id: id.0,
            })
            .unwrap_err();
        assert!(matches!(err, DbError::NoSuchDocument(_)));

        // A validated batch applies without error.
        let mut db = base;
        let batch = vec![
            JournalOp::Remove {
                collection: "c".into(),
                doc_id: id.0,
            },
            big,
        ];
        let mut v = BatchValidator::new(&db);
        for op in &batch {
            v.check(op).unwrap();
        }
        for op in &batch {
            apply_op(&mut db, op).unwrap();
        }
        assert_eq!(db.collection("c").unwrap().len(), 1);
    }

    /// A [`Vfs`] that counts reads of the journal file.
    struct WalReads {
        inner: Arc<dyn Vfs>,
        count: std::sync::atomic::AtomicUsize,
    }

    impl WalReads {
        fn count(&self) -> usize {
            self.count.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Vfs for WalReads {
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            if path.extension().is_some_and(|e| e == "wal") {
                self.count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            self.inner.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.write(path, bytes)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.append(path, bytes)
        }
        fn sync(&self, path: &Path) -> std::io::Result<()> {
            self.inner.sync(path)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    /// A checkpoint with no ontology keeps the journal's
    /// `add_term`/`add_edge` records, with their seqs, through
    /// `DurableDatabase::checkpoint`, `recover_with` and a strict
    /// reopen; a checkpoint given the ontology writes it to the ontology
    /// file and folds them. With no ontology record in the journal, a
    /// checkpoint reads no journal bytes.
    #[test]
    fn sidecar_less_checkpoints_keep_ontology_records_with_their_seqs() {
        let (_fs, inner) = mem();
        let reads = Arc::new(WalReads {
            inner,
            count: Default::default(),
        });
        let vfs: Arc<dyn Vfs> = reads.clone();
        let mut db = open_mem(vfs.clone());
        db.create_collection("c").unwrap(); // seq 0
        db.insert_xml("c", "<a/>").unwrap(); // seq 1
        let before = reads.count();
        db.checkpoint().unwrap();
        assert_eq!(reads.count(), before, "no ontology record, no journal read");

        let term = JournalOp::AddTerm {
            terms: vec!["index".into()],
        };
        let edge = JournalOp::AddEdge {
            below: "b-tree".into(),
            above: "index".into(),
        };
        db.commit(term.clone()).unwrap(); // seq 2
        db.insert_xml("c", "<b/>").unwrap(); // seq 3
        db.commit(edge.clone()).unwrap(); // seq 4
        let kept = |db: &DurableDatabase| -> Vec<(u64, JournalOp)> {
            let records = db.journal_records().unwrap();
            records.into_iter().map(|r| (r.seq, r.op)).collect()
        };
        let ontology = vec![(2, term), (4, edge)];
        db.checkpoint().unwrap();
        assert_eq!(kept(&db), ontology);
        assert_eq!(db.pending_journal_ops().unwrap(), 2);
        // the next write continues after the snapshot cursor
        db.insert_xml("c", "<c/>").unwrap(); // seq 5
        let mut expected = ontology.clone();
        expected.push((
            5,
            JournalOp::Insert {
                collection: "c".into(),
                xml: "<c/>".into(),
            },
        ));
        assert_eq!(kept(&db), expected);
        drop(db);

        // recovery replays the insert; its caller's checkpoint keeps both
        let (mut db, _, report) =
            DurableDatabase::recover_with("store.json", DatabaseConfig::unlimited(), vfs.clone())
                .unwrap();
        assert_eq!((report.replayed_ops, report.skipped_ops.len()), (1, 0));
        db.checkpoint().unwrap();
        assert_eq!(kept(&db), ontology);
        assert_eq!(db.db().collection("c").unwrap().len(), 3);
        drop(db);
        let db = open_mem(vfs.clone());
        assert_eq!(kept(&db), ontology);
        assert_eq!(db.db().collection("c").unwrap().len(), 3);

        let (db, mut writer) = db.into_parts();
        let cursor = writer.next_seq();
        assert_eq!(cursor, 6);
        let json = storage::to_json_with_seq(&db, cursor).unwrap();
        let envelope = r#"{"cursor":6,"seo":{}}"#;
        writer
            .checkpoint_json_seg(json, cursor, None, Some(envelope))
            .unwrap();
        assert!(writer.journal_records().unwrap().is_empty());
        let ontology = DurableDatabase::ontology_path(Path::new("store.json"));
        assert_eq!(vfs.read(&ontology).unwrap(), envelope.as_bytes());
    }

    #[test]
    fn checkpoint_json_verifies_before_truncating() {
        use crate::vfs::FaultMode;
        let (fs, vfs) = mem();
        let mut db = open_mem(vfs.clone());
        db.create_collection("c").unwrap();
        db.insert_xml("c", "<a/>").unwrap();
        let (db, mut writer) = db.into_parts();
        let cursor = writer.next_seq();
        let json = storage::to_json_with_seq(&db, cursor).unwrap();
        // Fail the snapshot temp write: the checkpoint errors and the
        // journal still holds everything.
        fs.fail_op(fs.op_count(), FaultMode::Error);
        assert!(writer
            .checkpoint_json_seg(json.clone(), cursor, None, None)
            .is_err());
        assert_eq!(writer.pending_journal_ops().unwrap(), 2);
        // Unfaulted, the checkpoint lands and truncates.
        writer
            .checkpoint_json_seg(json, cursor, None, None)
            .unwrap();
        assert_eq!(writer.pending_journal_ops().unwrap(), 0);
        fs.crash();
        let db = open_mem(vfs);
        assert_eq!(db.db().collection("c").unwrap().len(), 1);
    }

    #[test]
    fn probe_recovers_poisoned_journal_after_heal() {
        use crate::vfs::FaultMode;
        let (fs, vfs) = mem();
        let mut db = open_mem(vfs.clone());
        db.create_collection("c").unwrap();
        let (_db, mut writer) = db.into_parts();
        // Sustained fault: the batch append tears AND the repair fails,
        // poisoning the journal — the ENOSPC shape.
        fs.fail_from(fs.op_count(), FaultMode::Error);
        assert!(writer
            .append_batch(&[JournalOp::Insert {
                collection: "c".into(),
                xml: "<a/>".into(),
            }])
            .is_err());
        // While the fault holds, probes keep failing.
        assert!(writer.probe().is_err());
        // Fault clears: the probe repairs the poisoned journal and lands.
        fs.heal();
        writer.probe().unwrap();
        // Writes work again and survive a crash.
        let batch = vec![JournalOp::Insert {
            collection: "c".into(),
            xml: "<a/>".into(),
        }];
        writer.append_batch(&batch).unwrap();
        fs.crash();
        let db = open_mem(vfs);
        assert_eq!(db.db().collection("c").unwrap().len(), 1);
    }

    #[test]
    fn recover_falls_back_on_corrupt_snapshot() {
        let (fs, vfs) = mem();
        let mut db = open_mem(vfs.clone());
        db.create_collection("c").unwrap();
        db.insert_xml("c", "<a/>").unwrap();
        db.checkpoint().unwrap();
        db.insert_xml("c", "<b/>").unwrap();
        // Corrupt the snapshot in place: flip a character inside a
        // document payload so the JSON still parses but the embedded
        // checksum no longer matches.
        let text = String::from_utf8(vfs.read(Path::new("store.json")).unwrap()).unwrap();
        let broken = text.replacen("<a/>", "<e/>", 1);
        assert_ne!(text, broken);
        fs.corrupt(Path::new("store.json"), broken.into_bytes());
        // Strict open refuses.
        let err = DurableDatabase::open_with(
            "store.json",
            DatabaseConfig::unlimited(),
            vfs.clone(),
        )
        .unwrap_err();
        assert!(matches!(err, DbError::Corruption { .. }));
        // Lenient recovery falls back to the journal suffix only (the
        // snapshot's contents are gone) and quarantines the bad file.
        let (mut db, _, report) =
            DurableDatabase::recover_with("store.json", DatabaseConfig::unlimited(), vfs.clone())
                .unwrap();
        assert!(report.snapshot_error.is_some());
        assert!(!report.quarantined.is_empty());
        // The pre-checkpoint state lived only in the snapshot, so the
        // post-checkpoint insert of <b/> has no collection to land in:
        // it is skipped and reported, not silently dropped.
        assert_eq!(report.skipped_ops.len(), 1);
        assert!(matches!(
            report.skipped_ops[0].1,
            DbError::NoSuchCollection(_)
        ));
        assert!(db.db().collection("c").is_err());
        // The caller's checkpoint re-persists: a strict open now succeeds.
        db.checkpoint().unwrap();
        drop(db);
        DurableDatabase::open_with("store.json", DatabaseConfig::unlimited(), vfs).unwrap();
    }
}
