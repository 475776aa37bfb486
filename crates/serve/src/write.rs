//! The live write path: a single writer thread draining mutation frames
//! into the WAL with **group commit**, then applying them to the shared
//! [`toss_core::Executor`] under a short write lock.
//!
//! ## The ack contract
//!
//! A write is acknowledged only after the journal batch containing it
//! has been appended **and fsynced** ([`toss_xmldb::DurableWriter::append_batch`]
//! is all-or-nothing: one append, one fsync, no sequence numbers
//! consumed on failure). `ack ⇒ fsynced ⇒ survives crash` — the crash
//! campaign in `tests/serve.rs` replays kill schedules against exactly
//! this invariant.
//!
//! ## Group commit
//!
//! The writer collects a batch for at most the *smallest*
//! [`BudgetClass::group_commit_window`] among its members (an
//! interactive write shrinks the window; batch writes ride along), then
//! validates the whole batch with [`toss_xmldb::BatchValidator`]
//! (sequential overlay: later ops may depend on earlier ones),
//! re-enhances the SEO when the batch touched the ontology (*before*
//! journaling — nothing fallible may run between fsync and ack),
//! journals it with a single fsync, applies it under the executor
//! write lock, bumps the revision **once** via
//! [`toss_core::Executor::note_write_batch`] — which also swaps in the
//! re-enhanced SEO, invalidating the version-keyed rewrite cache
//! exactly once — and only then acks every waiter.
//!
//! ## Idempotency
//!
//! Every mutation frame carries a client-generated key. Acknowledged
//! keys go into a bounded FIFO dedupe table; a replayed key (a retry of
//! a write whose ack was lost) is answered from the table without
//! re-applying. This is what makes resending a write under its key
//! safe. Three layers close the retry window:
//!
//! * **in-batch** — a retry that lands in the *same* group-commit batch
//!   as the original (the original was still queued when the client
//!   timed out) is parked during validation and collapsed onto the
//!   first job's outcome, never validated or applied twice;
//! * **in-process** — the bounded table answers replays for the most
//!   recent 1 024 acknowledged keys;
//! * **across restart** — each key is journaled inside its record
//!   ([`toss_xmldb::DurableWriter::append_batch_keyed`]), and the table
//!   is reseeded from the journal tail on startup, so a retry of a
//!   write acknowledged just before a crash still dedupes (the replayed
//!   ack carries the original `seq` but no `doc_id`). The reseed reads
//!   no file: the journal tracks its keys
//!   ([`toss_xmldb::DurableWriter::journal_keys`]).
//!
//! The guarantee is therefore *bounded*, not absolute: a key evicted
//! from the table (more than 1 024 newer acks) or folded out of the
//! journal by a checkpoint no longer dedupes.
//!
//! ## Degradation and self-healing
//!
//! When a journal append still fails after the retry/backoff budget
//! (ENOSPC, persistent I/O errors), the server flips to **read-only
//! degraded** state: writes are rejected with a typed `degraded` frame
//! carrying the reason and a retry hint, reads keep flowing, and the
//! `toss.serve.degraded` gauge goes to 1. The writer thread then probes
//! the journal on every idle tick ([`toss_xmldb::DurableWriter::probe`]
//! appends a `Noop`, repairing a poisoned journal first); the first
//! successful probe clears degraded state.
//!
//! One degradation is **fatal** and does not self-heal: a validated op
//! that fails to *apply* after its batch fsynced means the journal is
//! ahead of memory. Accepting more writes (or healing on a probe) would
//! compound the divergence, so the server stays read-only until a
//! restart replays the journal and reconverges. Nothing fallible runs
//! between fsync and apply — SEO re-enhancement happens *before* the
//! journal append — so this path is reachable only through a bug, and
//! it is contained rather than papered over.
//!
//! ## Checkpoints
//!
//! A checkpoint serializes the store, the `.seg` and the live SEO under
//! a *read* lock (readers keep running), then runs the store's one
//! checkpoint lock-free ([`crate::checkpoint_store`]): the ontology
//! sidecar, then the snapshot, verified by reloading it, then the
//! journal truncated to the records at or past the cursor.

use crate::budget::BudgetClass;
use crate::open::Checkpoint;
use crate::protocol::{ErrorCode, WriteOp};
use crate::service::Service;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use toss_obs::{QueryOutcomeKind, QueryRecord};
use toss_ontology::hierarchy::Hierarchy;
use toss_ontology::seo::Seo;
use toss_xmldb::{apply_op, BatchValidator, DurableWriter, JournalOp};

/// Rebuild a [`Seo`] from a grown hierarchy. The serving layer is
/// metric-agnostic: the embedder (CLI, tests) closes over whatever
/// metric and ε the original SEO was built with.
pub type Enhancer = Box<dyn Fn(&Hierarchy) -> Result<Seo, String> + Send>;

/// Ceiling on ops per group-commit batch.
const MAX_BATCH: usize = 64;

/// Bounded recent-keys dedupe table size (FIFO eviction).
const DEDUPE_CAPACITY: usize = 1024;

/// Tunables for the writer thread.
pub struct WriteConfig {
    /// Journal-append retries before flipping to degraded.
    pub append_retries: u32,
    /// Backoff between append retries.
    pub append_backoff: Duration,
    /// Auto-checkpoint once this many journal records accumulate
    /// (0 disables; explicit `checkpoint` frames always work).
    pub checkpoint_every: usize,
    /// Idle tick: degraded-mode probe cadence and queue poll interval.
    pub tick: Duration,
}

impl Default for WriteConfig {
    fn default() -> Self {
        WriteConfig {
            append_retries: 2,
            append_backoff: Duration::from_millis(5),
            checkpoint_every: 4096,
            tick: Duration::from_millis(50),
        }
    }
}

/// The durability half a writable server owns: the WAL writer split off
/// a [`toss_xmldb::DurableDatabase`], the live ontology hierarchy, and
/// the enhancer that rebuilds the SEO after ontology mutations.
pub struct WriteEngine {
    /// Journal + snapshot path + vfs (from `DurableDatabase::into_parts`).
    pub writer: DurableWriter,
    /// The authoritative hierarchy the ontology ops mutate.
    pub hierarchy: Hierarchy,
    /// Rebuilds the SEO from the hierarchy after ontology mutations.
    pub enhancer: Enhancer,
    /// Writer-thread tunables.
    pub config: WriteConfig,
}

/// Observable writer state, shared with connection threads (ingress
/// rejection) and the `stats` admin frame.
#[derive(Debug, Default)]
pub(crate) struct WriteState {
    degraded: AtomicBool,
    /// A fatal degradation (journal ahead of memory) that must not
    /// self-heal: the idle-tick probe skips it, only a restart clears it.
    fatal: AtomicBool,
    reason: Mutex<String>,
    /// Mutations applied (excluding dedupe hits and checkpoints).
    pub applied: AtomicU64,
    /// Replayed idempotency keys answered from the dedupe table.
    pub deduped: AtomicU64,
    /// Writes rejected by validation.
    pub rejected: AtomicU64,
    /// Group-commit batches fsynced.
    pub batches: AtomicU64,
    /// Checkpoints completed.
    pub checkpoints: AtomicU64,
    /// Duration of the most recent batch fsync, nanoseconds.
    pub last_fsync_ns: AtomicU64,
    /// Highest acknowledged journal sequence number.
    pub last_seq: AtomicU64,
}

impl WriteState {
    /// Whether the server is in read-only degraded mode.
    pub(crate) fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Acquire)
    }

    /// The degradation reason ("" when healthy).
    pub(crate) fn degraded_reason(&self) -> String {
        self.reason.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Whether the degradation is fatal (read-only until restart).
    pub(crate) fn is_fatal(&self) -> bool {
        self.fatal.load(Ordering::Acquire)
    }

    fn enter_degraded(&self, reason: String) {
        *self.reason.lock().unwrap_or_else(|e| e.into_inner()) = reason;
        self.degraded.store(true, Ordering::Release);
        toss_obs::metrics::gauge("toss.serve.degraded").set(1);
    }

    /// Degrade with no self-heal: the journal holds records memory did
    /// not apply, so writes stay off until a restart replays them.
    fn enter_fatal(&self, reason: String) {
        self.fatal.store(true, Ordering::Release);
        self.enter_degraded(reason);
    }

    fn clear_degraded(&self) {
        self.reason.lock().unwrap_or_else(|e| e.into_inner()).clear();
        self.degraded.store(false, Ordering::Release);
        toss_obs::metrics::gauge("toss.serve.degraded").set(0);
    }
}

/// One enqueued mutation: the frame's contents plus the channel its
/// connection thread blocks on until the batch fsyncs.
pub(crate) struct WriteJob {
    pub op: WriteOp,
    pub key: String,
    pub class: BudgetClass,
    pub query_id: u64,
    pub enqueued: Instant,
    pub reply: SyncSender<WriteResult>,
}

/// The writer thread's verdict on one job.
#[derive(Debug, Clone)]
pub(crate) enum WriteResult {
    /// Journaled, fsynced and applied (or collapsed onto a previously
    /// acknowledged write with the same key).
    Applied {
        seq: u64,
        doc_id: Option<u64>,
        deduped: bool,
        batch_size: u64,
        fsync_ns: u64,
    },
    /// A checkpoint completed; `folded` journal records were truncated.
    CheckpointDone { folded: u64 },
    /// Rejected (validation, degradation, internal fault).
    Failed {
        code: ErrorCode,
        message: String,
        retry_after_ms: Option<u64>,
    },
}

/// The outcome cached per acknowledged idempotency key.
#[derive(Debug, Clone, Copy)]
struct AckedOutcome {
    seq: u64,
    doc_id: Option<u64>,
}

/// Bounded FIFO map of recently acknowledged idempotency keys.
struct DedupeTable {
    capacity: usize,
    map: HashMap<String, AckedOutcome>,
    order: VecDeque<String>,
}

impl DedupeTable {
    fn new(capacity: usize) -> Self {
        DedupeTable {
            capacity,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, key: &str) -> Option<AckedOutcome> {
        self.map.get(key).copied()
    }

    fn insert(&mut self, key: String, outcome: AckedOutcome) {
        if self.map.insert(key.clone(), outcome).is_none() {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// Convert a wire mutation into its journal form. `Checkpoint` has no
/// journal form (it is a writer-thread action, not a logged op).
fn to_journal_op(op: &WriteOp) -> Option<JournalOp> {
    Some(match op {
        WriteOp::InsertDoc { collection, xml } => JournalOp::Insert {
            collection: collection.clone(),
            xml: xml.clone(),
        },
        WriteOp::DeleteDoc { collection, doc_id } => JournalOp::Remove {
            collection: collection.clone(),
            doc_id: *doc_id,
        },
        WriteOp::AddTerm { terms } => JournalOp::AddTerm {
            terms: terms.clone(),
        },
        WriteOp::AddEdge { below, above } => JournalOp::AddEdge {
            below: below.clone(),
            above: above.clone(),
        },
        WriteOp::Checkpoint => return None,
    })
}

/// Everything the writer thread owns while running.
pub(crate) struct WriterLoop {
    engine: WriteEngine,
    /// The server's service: its executor, and the telemetry every
    /// job's record goes to.
    service: Arc<Service>,
    state: Arc<WriteState>,
    dedupe: DedupeTable,
}

impl WriterLoop {
    pub(crate) fn new(engine: WriteEngine, service: Arc<Service>, state: Arc<WriteState>) -> Self {
        let mut dedupe = DedupeTable::new(DEDUPE_CAPACITY);
        // Reseed from the journal tail: every record journaled under an
        // idempotency key was acknowledged (or was about to be), so a
        // client retrying across our restart must dedupe, not re-apply.
        // Replayed outcomes keep their seq but not their doc id. The
        // journal tracks its keys, so this reads no file.
        for (key, seq) in engine.writer.journal_keys() {
            dedupe.insert(
                key.clone(),
                AckedOutcome {
                    seq: *seq,
                    doc_id: None,
                },
            );
        }
        WriterLoop {
            engine,
            service,
            state,
            dedupe,
        }
    }

    /// The thread body: drain jobs until every sender is gone (server
    /// drain drops the queue's sender after refusing new writes, so
    /// already-enqueued writes still commit and ack during shutdown).
    pub(crate) fn run(mut self, rx: Receiver<WriteJob>) {
        loop {
            match rx.recv_timeout(self.engine.config.tick) {
                Ok(job) => {
                    let (batch, checkpoint) = self.collect_batch(job, &rx);
                    if !batch.is_empty() {
                        self.commit_batch(batch);
                    }
                    if let Some(cp) = checkpoint {
                        self.run_checkpoint(cp);
                    }
                }
                Err(RecvTimeoutError::Timeout) => self.idle_tick(),
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
    }

    /// Collect one group-commit batch starting at `first`. The window
    /// is the smallest member's class window, measured from the first
    /// job; a `checkpoint` job closes the batch and is returned
    /// separately (it must run after the batch it arrived behind).
    fn collect_batch(
        &mut self,
        first: WriteJob,
        rx: &Receiver<WriteJob>,
    ) -> (Vec<WriteJob>, Option<WriteJob>) {
        let t0 = Instant::now();
        let mut window = first.class.group_commit_window();
        let mut batch = Vec::new();
        let mut next = Some(first);
        while let Some(job) = next.take() {
            if matches!(job.op, WriteOp::Checkpoint) {
                return (batch, Some(job)); // a checkpoint closes the batch
            }
            window = window.min(job.class.group_commit_window());
            batch.push(job);
            let left = window.saturating_sub(t0.elapsed());
            if batch.len() < MAX_BATCH && !left.is_zero() {
                next = rx.recv_timeout(left).ok();
            }
        }
        (batch, None)
    }

    /// Degraded-mode self-heal: probe the journal; the first successful
    /// probe clears the flag. Healthy idle ticks are free. A *fatal*
    /// degradation (journal ahead of memory) is never probed — a
    /// healthy disk would not make the divergence go away.
    fn idle_tick(&mut self) {
        if !self.state.is_degraded() || self.state.is_fatal() {
            return;
        }
        match self.engine.writer.probe() {
            Ok(_) => {
                self.state.clear_degraded();
                toss_obs::metrics::counter("toss.serve.write.probes_ok").inc();
            }
            Err(_) => {
                toss_obs::metrics::counter("toss.serve.write.probes_failed").inc();
            }
        }
    }

    /// Validate, journal (group commit), apply, ack.
    fn commit_batch(&mut self, batch: Vec<WriteJob>) {
        // Degraded ingress check is done by connection threads, but a
        // job can race the flag flip; reject here too.
        if self.state.is_degraded() {
            let reason = self.state.degraded_reason();
            for job in batch {
                self.finish(
                    job,
                    WriteResult::Failed {
                        code: ErrorCode::Degraded,
                        message: format!("server is read-only: {reason}"),
                        retry_after_ms: Some(500),
                    },
                );
            }
            return;
        }

        // Phase 1 — validate under a read lock (readers unaffected;
        // the single-writer invariant means nobody else mutates).
        // Dedupe hits are answered immediately; invalid ops are
        // rejected to their own clients and dropped from the batch. A
        // key repeated *within* the batch — a retry that caught up
        // with its still-queued original, e.g. after an ack timeout
        // while the writer sat in a long checkpoint — is parked and
        // collapsed onto the first job's outcome, never applied twice.
        let mut accepted: Vec<(WriteJob, JournalOp)> = Vec::new();
        let mut dups: Vec<WriteJob> = Vec::new();
        let mut outcomes: HashMap<String, WriteResult> = HashMap::new();
        let mut batch_keys: HashSet<String> = HashSet::new();
        let mut ontology_scratch: Option<Hierarchy> = None;
        {
            let exec = self.service.executor.read().unwrap_or_else(|e| e.into_inner());
            let mut validator = BatchValidator::new(&exec.db);
            for job in batch {
                if let Some(hit) = self.dedupe.get(&job.key) {
                    self.answer_dedupe_hit(job, hit);
                    continue;
                }
                if !batch_keys.insert(job.key.clone()) {
                    dups.push(job);
                    continue;
                }
                let Some(jop) = to_journal_op(&job.op) else {
                    continue; // checkpoint never reaches here
                };
                let verdict = match &jop {
                    JournalOp::AddTerm { .. } | JournalOp::AddEdge { .. } => {
                        // ontology ops validate against a scratch clone
                        // so in-batch edges see in-batch terms; a failed
                        // op must not leak half its effects into the
                        // scratch, hence the pre-op snapshot
                        let scratch = ontology_scratch
                            .get_or_insert_with(|| self.engine.hierarchy.clone());
                        let before = scratch.clone();
                        let r = match &jop {
                            JournalOp::AddTerm { terms } => {
                                for t in terms {
                                    scratch.add_term(t);
                                }
                                Ok(())
                            }
                            JournalOp::AddEdge { below, above } => scratch
                                .add_leq(below, above)
                                .map(|_| ())
                                .map_err(|e| e.to_string()),
                            _ => unreachable!(),
                        };
                        if r.is_err() {
                            *scratch = before;
                        }
                        r
                    }
                    other => validator.check(other).map_err(|e| e.to_string()),
                };
                match verdict {
                    Ok(()) => accepted.push((job, jop)),
                    Err(msg) => {
                        self.state.rejected.fetch_add(1, Ordering::Relaxed);
                        toss_obs::metrics::counter("toss.serve.write.rejected").inc();
                        let result = WriteResult::Failed {
                            code: ErrorCode::BadRequest,
                            message: msg,
                            retry_after_ms: None,
                        };
                        outcomes.insert(job.key.clone(), result.clone());
                        self.finish(job, result);
                    }
                }
            }
        }
        if !accepted.is_empty() {
            self.commit_accepted(accepted, ontology_scratch, &mut outcomes);
        }
        // Parked in-batch duplicates collapse onto their first job's
        // outcome: the original ack (as a dedupe hit) if it applied,
        // the identical failure otherwise.
        for job in dups {
            let result = match outcomes.get(&job.key) {
                Some(WriteResult::Applied { seq, doc_id, .. }) => {
                    self.state.deduped.fetch_add(1, Ordering::Relaxed);
                    toss_obs::metrics::counter("toss.serve.write.dedupe_hits").inc();
                    WriteResult::Applied {
                        seq: *seq,
                        doc_id: *doc_id,
                        deduped: true,
                        batch_size: 0,
                        fsync_ns: 0,
                    }
                }
                Some(other) => other.clone(),
                // unreachable — every first-occurrence job records an
                // outcome on every path — but a typed answer beats a
                // hung client if that ever changes
                None => WriteResult::Failed {
                    code: ErrorCode::Internal,
                    message: "duplicate of an unresolved write".into(),
                    retry_after_ms: None,
                },
            };
            self.finish(job, result);
        }
    }

    /// Answer a job whose key is already in the dedupe table: re-send
    /// the original ack, apply nothing.
    fn answer_dedupe_hit(&self, job: WriteJob, hit: AckedOutcome) {
        self.state.deduped.fetch_add(1, Ordering::Relaxed);
        toss_obs::metrics::counter("toss.serve.write.dedupe_hits").inc();
        self.finish(
            job,
            WriteResult::Applied {
                seq: hit.seq,
                doc_id: hit.doc_id,
                deduped: true,
                batch_size: 0,
                fsync_ns: 0,
            },
        );
    }

    /// Phases 2–4 for the validated jobs: enhance, group-commit,
    /// apply, ack. Every job's result is also recorded in `outcomes`
    /// under its key, so parked in-batch duplicates can collapse onto
    /// it.
    fn commit_accepted(
        &mut self,
        mut accepted: Vec<(WriteJob, JournalOp)>,
        ontology_scratch: Option<Hierarchy>,
        outcomes: &mut HashMap<String, WriteResult>,
    ) {
        // Phase 2a — re-enhance the SEO from the validated scratch
        // hierarchy BEFORE journaling anything: the enhancer is
        // arbitrary fallible embedder code, and nothing fallible may
        // run between fsync and ack — a failure there would leave ops
        // durable (silently replayed on restart) while their clients
        // hear "failed". Failing here costs nothing durable, and only
        // the ontology jobs fail; doc ops ride on.
        let mut new_seo: Option<Arc<Seo>> = None;
        let mut new_hierarchy: Option<Hierarchy> = None;
        if let Some(scratch) = ontology_scratch {
            match (self.engine.enhancer)(&scratch) {
                Ok(seo) => {
                    new_seo = Some(Arc::new(seo));
                    new_hierarchy = Some(scratch);
                }
                Err(e) => {
                    let msg = format!("SEO re-enhancement failed: {e}");
                    let (onto, rest): (Vec<_>, Vec<_>) =
                        accepted.into_iter().partition(|(_, op)| {
                            matches!(
                                op,
                                JournalOp::AddTerm { .. } | JournalOp::AddEdge { .. }
                            )
                        });
                    accepted = rest;
                    for (job, _) in onto {
                        self.state.rejected.fetch_add(1, Ordering::Relaxed);
                        let result = WriteResult::Failed {
                            code: ErrorCode::Internal,
                            message: msg.clone(),
                            retry_after_ms: None,
                        };
                        outcomes.insert(job.key.clone(), result.clone());
                        self.finish(job, result);
                    }
                    if accepted.is_empty() {
                        return;
                    }
                }
            }
        }

        // Phase 2 — group commit: one journal append + one fsync for
        // the whole batch, with a bounded retry/backoff budget. Each
        // record carries its job's idempotency key, so a restarted
        // server reseeds its dedupe table from the journal tail. Ack
        // nothing before this succeeds.
        let ops: Vec<(JournalOp, Option<String>)> = accepted
            .iter()
            .map(|(job, op)| (op.clone(), Some(job.key.clone())))
            .collect();
        let fsync_started = Instant::now();
        let mut attempt = 0;
        let seqs = loop {
            match self.engine.writer.append_batch_keyed(&ops) {
                Ok(seqs) => break Some(seqs),
                Err(e) if attempt < self.engine.config.append_retries => {
                    attempt += 1;
                    toss_obs::metrics::counter("toss.serve.write.append_retries").inc();
                    std::thread::sleep(self.engine.config.append_backoff);
                    let _ = e;
                }
                Err(e) => {
                    // past the budget: flip to read-only degraded, fail
                    // the whole batch with the typed frame. Nothing was
                    // acked, nothing was applied; the journal consumed
                    // no sequence numbers.
                    self.state.enter_degraded(e.to_string());
                    for (job, _) in accepted.drain(..) {
                        let result = WriteResult::Failed {
                            code: ErrorCode::Degraded,
                            message: format!("journal append failed: {e}"),
                            retry_after_ms: Some(500),
                        };
                        outcomes.insert(job.key.clone(), result.clone());
                        self.finish(job, result);
                    }
                    break None;
                }
            }
        };
        let Some(seqs) = seqs else { return };
        let fsync_ns =
            fsync_started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let batch_size = accepted.len() as u64;
        toss_obs::metrics::histogram("toss.serve.write.batch_fsync_ns")
            .observe(fsync_ns);
        toss_obs::metrics::histogram("toss.serve.write.batch_size").observe(batch_size);

        // Phase 3 — apply under the write lock. After validation (and
        // the pre-fsync enhancement above) nothing here can fail; the
        // revision bumps once per batch, and an ontology-touching
        // batch swaps in the re-enhanced SEO in the same breath (one
        // rewrite-cache invalidation).
        if let Some(h) = new_hierarchy {
            self.engine.hierarchy = h;
        }
        let mut doc_ids: Vec<Option<u64>> = Vec::with_capacity(accepted.len());
        let mut apply_err: Option<String> = None;
        {
            let mut exec = self.service.executor.write().unwrap_or_else(|e| e.into_inner());
            for (_, op) in &accepted {
                match apply_op(&mut exec.db, op) {
                    Ok(id) => doc_ids.push(id.map(|d| d.0)),
                    Err(e) => {
                        apply_err = Some(e.to_string());
                        break;
                    }
                }
            }
            // The revision bumps even on a fault: whatever prefix did
            // apply must still invalidate the version-keyed caches.
            exec.note_write_batch(new_seo);
        }
        if let Some(msg) = apply_err {
            // A validated op failed to apply after its batch fsynced:
            // the journal is now ahead of memory. That divergence is
            // fatal, not retryable — the server stops taking writes
            // (reads keep flowing) and stays read-only until a restart
            // replays the journal. The keys above were journaled, so a
            // client that retries one of these "failed" writes against
            // the restarted server dedupes instead of double-applying.
            self.state.enter_fatal(format!(
                "write apply diverged from journal ({msg}); restart to recover"
            ));
            for (job, _) in accepted {
                let result = WriteResult::Failed {
                    code: ErrorCode::Degraded,
                    message: format!(
                        "apply fault after commit ({msg}); the write is journaled \
                         and becomes visible after the server restarts"
                    ),
                    retry_after_ms: None,
                };
                outcomes.insert(job.key.clone(), result.clone());
                self.finish(job, result);
            }
            return;
        }

        // Phase 4 — ack everything, then remember the keys.
        self.state.batches.fetch_add(1, Ordering::Relaxed);
        self.state
            .applied
            .fetch_add(batch_size, Ordering::Relaxed);
        self.state.last_fsync_ns.store(fsync_ns, Ordering::Relaxed);
        if let Some(&last) = seqs.last() {
            self.state.last_seq.store(last, Ordering::Relaxed);
        }
        for (i, (job, _)) in accepted.into_iter().enumerate() {
            let outcome = AckedOutcome {
                seq: seqs[i],
                doc_id: doc_ids[i],
            };
            self.dedupe.insert(job.key.clone(), outcome);
            let result = WriteResult::Applied {
                seq: outcome.seq,
                doc_id: outcome.doc_id,
                deduped: false,
                batch_size,
                fsync_ns,
            };
            outcomes.insert(job.key.clone(), result.clone());
            self.finish(job, result);
        }

        // Opportunistic background checkpoint once the journal grows
        // past the configured threshold (an O(1) counter, not a scan).
        let every = self.engine.config.checkpoint_every;
        if every > 0 {
            if let Ok(pending) = self.engine.writer.pending_journal_ops() {
                if pending >= every {
                    // a failed opportunistic checkpoint loses nothing;
                    // the server stays writable and retries next batch
                    if self.checkpoint_now().is_err() {
                        toss_obs::metrics::counter(
                            "toss.serve.write.checkpoint_failures",
                        )
                        .inc();
                    }
                }
            }
        }
    }

    /// Serialize under a read lock, persist + verify + truncate
    /// lock-free. Returns how many journal records were folded away.
    fn checkpoint_now(&mut self) -> Result<u64, String> {
        let cursor = self.engine.writer.next_seq();
        let before = self
            .engine
            .writer
            .pending_journal_ops()
            .unwrap_or_default() as u64;
        // Readers keep running: only the serialization itself holds
        // the read lock, the I/O below does not.
        let checkpoint = {
            let exec = self.service.executor.read().unwrap_or_else(|e| e.into_inner());
            Checkpoint::build(&exec.db, Some(&exec.seo), cursor)?
        };
        let seg = checkpoint.write(&mut self.engine.writer)?;
        // Rebase the indexes onto the segment just written, so the
        // delta of writes since the last checkpoint starts empty again:
        // parse without a lock, attach under the write lock. This
        // thread is the only writer, so the database is still the one
        // the segment was built from.
        if let Ok(seg) = toss_xmldb::segidx::Segment::parse(seg) {
            let seg = Arc::new(seg);
            let mut exec = self.service.executor.write().unwrap_or_else(|e| e.into_inner());
            toss_xmldb::segidx::rebase(&mut exec.db, &seg);
        }
        self.state.checkpoints.fetch_add(1, Ordering::Relaxed);
        toss_obs::metrics::counter("toss.serve.write.checkpoints").inc();
        Ok(before)
    }

    fn run_checkpoint(&mut self, job: WriteJob) {
        match self.checkpoint_now() {
            Ok(folded) => self.finish(job, WriteResult::CheckpointDone { folded }),
            Err(msg) => {
                // a failed checkpoint loses nothing (the journal is
                // only truncated after the new snapshot verified); the
                // server stays writable
                toss_obs::metrics::counter("toss.serve.write.checkpoint_failures")
                    .inc();
                self.finish(
                    job,
                    WriteResult::Failed {
                        code: ErrorCode::Internal,
                        message: format!("checkpoint failed: {msg}"),
                        retry_after_ms: None,
                    },
                );
            }
        }
    }

    /// Stamp the job's telemetry record and send its result (the
    /// connection thread may have timed out and gone — a dead channel
    /// is fine, the outcome is already durable or already rejected).
    fn finish(&self, job: WriteJob, result: WriteResult) {
        let mut rec = write_record(job.query_id, job.class, &job.op, job.enqueued.elapsed());
        match &result {
            WriteResult::Applied {
                batch_size,
                fsync_ns,
                deduped,
                ..
            } => (rec.batch_size, rec.fsync_ns, rec.deduped) = (*batch_size, *fsync_ns, *deduped),
            WriteResult::CheckpointDone { .. } => {}
            WriteResult::Failed { code, .. } => {
                rec.outcome = QueryOutcomeKind::Error;
                rec.cause = code.as_str().to_string();
            }
        }
        self.service.record(job.class, rec);
        let _ = job.reply.send(result);
    }
}

/// The telemetry record of one write request — run by the writer, or
/// rejected at ingress — with outcome `ok` until the caller says
/// otherwise.
pub(crate) fn write_record(
    query_id: u64,
    class: BudgetClass,
    op: &WriteOp,
    total: Duration,
) -> QueryRecord {
    QueryRecord {
        query_id,
        class: class.as_str().to_string(),
        query: op.target(),
        op: op.verb().to_string(),
        total_ns: total.as_nanos().min(u64::MAX as u128) as u64,
        ..QueryRecord::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServerConfig;
    use std::sync::RwLock;
    use toss_core::Executor;
    use toss_ontology::sea::enhance;
    use toss_similarity::Levenshtein;
    use toss_xmldb::{DatabaseConfig, DurableDatabase, FaultVfs, Vfs};

    fn ok_enhancer() -> Enhancer {
        Box::new(|h| enhance(h, &Levenshtein, 1.0).map_err(|e| e.to_string()))
    }

    /// A writer loop over a durable store on `vfs` (fresh stores get a
    /// checkpointed `c` collection; reopened stores keep their journal
    /// tail intact so reseeding can be exercised).
    fn writer_fixture(
        vfs: Arc<FaultVfs>,
        enhancer: Enhancer,
    ) -> (WriterLoop, Arc<WriteState>, Arc<RwLock<Executor>>) {
        let dyn_vfs: Arc<dyn Vfs> = vfs;
        let mut d = DurableDatabase::open_with(
            "/write-unit.json",
            DatabaseConfig::unlimited(),
            dyn_vfs,
        )
        .unwrap()
        .0;
        if d.db().collection("c").is_err() {
            d.create_collection("c").unwrap();
            d.checkpoint().unwrap();
        }
        let (db, writer) = d.into_parts();
        let mut hierarchy = Hierarchy::default();
        hierarchy.add_leq("SIGMOD", "conference").unwrap();
        let seo = Arc::new(enhance(&hierarchy, &Levenshtein, 1.0).unwrap());
        let executor = Arc::new(RwLock::new(Executor::new(db, seo)));
        let state = Arc::new(WriteState::default());
        let engine = WriteEngine {
            writer,
            hierarchy,
            enhancer,
            config: WriteConfig::default(),
        };
        let service = Service::new(executor.clone(), &ServerConfig::default()).unwrap();
        let wl = WriterLoop::new(engine, Arc::new(service), state.clone());
        (wl, state, executor)
    }

    fn test_job(op: WriteOp, key: &str) -> (WriteJob, Receiver<WriteResult>) {
        // capacity 1: `finish` must never block on an unread reply
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        (
            WriteJob {
                op,
                key: key.into(),
                class: BudgetClass::Batch,
                query_id: 0,
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    fn insert(xml: &str) -> WriteOp {
        WriteOp::InsertDoc {
            collection: "c".into(),
            xml: xml.into(),
        }
    }

    /// The ack-timeout retry shape: the retry catches up with its
    /// still-queued original and both land in ONE group-commit batch.
    /// The duplicate must collapse onto the first job's ack, not be
    /// validated, journaled, and applied a second time.
    #[test]
    fn in_batch_duplicate_key_collapses_to_one_application() {
        let (mut wl, state, exec) =
            writer_fixture(Arc::new(FaultVfs::new()), ok_enhancer());
        let op = insert("<a/>");
        let (j1, r1) = test_job(op.clone(), "dup");
        let (j2, r2) = test_job(op, "dup");
        let (j3, r3) = test_job(insert("<b/>"), "other");
        wl.commit_batch(vec![j1, j2, j3]);

        let (seq1, id1) = match r1.recv().unwrap() {
            WriteResult::Applied {
                seq,
                doc_id,
                deduped: false,
                ..
            } => (seq, doc_id),
            other => panic!("the first occurrence must apply: {other:?}"),
        };
        match r2.recv().unwrap() {
            WriteResult::Applied {
                seq,
                doc_id,
                deduped: true,
                ..
            } => {
                assert_eq!(seq, seq1, "the duplicate replays the original ack");
                assert_eq!(doc_id, id1);
            }
            other => panic!("the in-batch duplicate must collapse: {other:?}"),
        }
        assert!(matches!(
            r3.recv().unwrap(),
            WriteResult::Applied { deduped: false, .. }
        ));

        // the dup pair applied exactly once: two docs, two journal
        // records, one dedupe hit
        let docs = {
            let exec = exec.read().unwrap();
            exec.db.collection("c").unwrap().documents().len()
        };
        assert_eq!(docs, 2, "a duplicated insert must not apply twice");
        assert_eq!(wl.engine.writer.journal_records().unwrap().len(), 2);
        assert_eq!(state.applied.load(Ordering::Relaxed), 2);
        assert_eq!(state.deduped.load(Ordering::Relaxed), 1);
    }

    /// A duplicate of a *rejected* write replays the rejection — the
    /// client sees the same typed error twice, not one error and one
    /// mystery apply.
    #[test]
    fn in_batch_duplicate_of_a_rejected_write_replays_the_rejection() {
        let (mut wl, state, _exec) =
            writer_fixture(Arc::new(FaultVfs::new()), ok_enhancer());
        let op = WriteOp::InsertDoc {
            collection: "missing".into(),
            xml: "<a/>".into(),
        };
        let (j1, r1) = test_job(op.clone(), "dup");
        let (j2, r2) = test_job(op, "dup");
        wl.commit_batch(vec![j1, j2]);
        for r in [r1, r2] {
            match r.recv().unwrap() {
                WriteResult::Failed {
                    code: ErrorCode::BadRequest,
                    ..
                } => {}
                other => panic!("both must see the rejection: {other:?}"),
            }
        }
        assert_eq!(state.rejected.load(Ordering::Relaxed), 1, "validated once");
    }

    /// The enhancer (arbitrary embedder code) fails: the ontology jobs
    /// fail *before* anything was journaled — nothing durable, the live
    /// hierarchy untouched, the server still writable — while pure doc
    /// ops in the same batch commit normally.
    #[test]
    fn enhancer_failure_fails_ontology_jobs_before_journaling_them() {
        let (mut wl, state, _exec) = writer_fixture(
            Arc::new(FaultVfs::new()),
            Box::new(|_| Err("embedder exploded".into())),
        );
        let (doc, rdoc) = test_job(insert("<a/>"), "k-doc");
        let (term, rterm) = test_job(
            WriteOp::AddTerm {
                terms: vec!["newterm".into()],
            },
            "k-term",
        );
        wl.commit_batch(vec![doc, term]);

        match rterm.recv().unwrap() {
            WriteResult::Failed {
                code: ErrorCode::Internal,
                message,
                ..
            } => assert!(message.contains("SEO re-enhancement failed"), "{message}"),
            other => panic!("the ontology op must fail with the enhancer: {other:?}"),
        }
        assert!(
            matches!(rdoc.recv().unwrap(), WriteResult::Applied { deduped: false, .. }),
            "doc ops ride on past an enhancer failure"
        );
        // the failed op left no durable trace and no live mutation
        let records = wl.engine.writer.journal_records().unwrap();
        assert_eq!(records.len(), 1, "only the doc op is durable");
        assert!(matches!(records[0].op, JournalOp::Insert { .. }));
        assert!(wl.engine.hierarchy.node_of("newterm").is_none());
        assert!(!state.is_degraded(), "an enhancer failure is not degradation");
    }

    /// Keys ride inside journal records, so a retry of a write that was
    /// acknowledged just before a restart dedupes against the reseeded
    /// table instead of re-applying.
    #[test]
    fn dedupe_reseeds_from_journaled_keys_after_restart() {
        let vfs = Arc::new(FaultVfs::new());
        let op = insert("<a/>");
        let seq1 = {
            let (mut wl, _state, _exec) = writer_fixture(vfs.clone(), ok_enhancer());
            let (j, r) = test_job(op.clone(), "survivor");
            wl.commit_batch(vec![j]);
            match r.recv().unwrap() {
                WriteResult::Applied {
                    seq,
                    deduped: false,
                    ..
                } => seq,
                other => panic!("the original must apply: {other:?}"),
            }
        };

        // "restart": a fresh writer loop over the same store replays
        // the journal and reseeds the dedupe table from its keys
        let (mut wl, state, exec) = writer_fixture(vfs, ok_enhancer());
        let (j, r) = test_job(op, "survivor");
        wl.commit_batch(vec![j]);
        match r.recv().unwrap() {
            WriteResult::Applied {
                seq,
                doc_id,
                deduped: true,
                ..
            } => {
                assert_eq!(seq, seq1, "the replayed ack keeps the original seq");
                assert_eq!(doc_id, None, "replayed-from-journal acks carry no doc id");
            }
            other => panic!("a key journaled before restart must dedupe: {other:?}"),
        }
        assert_eq!(state.deduped.load(Ordering::Relaxed), 1);
        let docs = {
            let exec = exec.read().unwrap();
            exec.db.collection("c").unwrap().documents().len()
        };
        assert_eq!(docs, 1, "one application across the restart");
    }

    #[test]
    fn dedupe_table_is_bounded_fifo() {
        let mut t = DedupeTable::new(3);
        for i in 0..5u64 {
            t.insert(
                format!("k{i}"),
                AckedOutcome {
                    seq: i,
                    doc_id: None,
                },
            );
        }
        // the two oldest keys were evicted
        assert!(t.get("k0").is_none());
        assert!(t.get("k1").is_none());
        for i in 2..5u64 {
            assert_eq!(t.get(&format!("k{i}")).unwrap().seq, i);
        }
        // re-inserting an existing key does not grow the order queue
        t.insert(
            "k4".into(),
            AckedOutcome {
                seq: 99,
                doc_id: Some(1),
            },
        );
        assert_eq!(t.get("k4").unwrap().seq, 99);
        assert_eq!(t.order.len(), 3);
    }

    #[test]
    fn journal_op_mapping_covers_every_mutation() {
        assert!(matches!(
            to_journal_op(&WriteOp::InsertDoc {
                collection: "c".into(),
                xml: "<a/>".into()
            }),
            Some(JournalOp::Insert { .. })
        ));
        assert!(matches!(
            to_journal_op(&WriteOp::DeleteDoc {
                collection: "c".into(),
                doc_id: 3
            }),
            Some(JournalOp::Remove { .. })
        ));
        assert!(matches!(
            to_journal_op(&WriteOp::AddTerm {
                terms: vec!["t".into()]
            }),
            Some(JournalOp::AddTerm { .. })
        ));
        assert!(matches!(
            to_journal_op(&WriteOp::AddEdge {
                below: "b".into(),
                above: "a".into()
            }),
            Some(JournalOp::AddEdge { .. })
        ));
        assert!(to_journal_op(&WriteOp::Checkpoint).is_none());
    }
}
