//! The flight recorder: a bounded in-memory ring of per-query
//! [`QueryRecord`]s, plus a sampling slow-query log.
//!
//! Aggregate metrics answer "how is the fleet doing"; the flight
//! recorder answers "what happened to *that* request". Every completed
//! query — served, degraded, shed, or failed — is stamped into a
//! fixed-capacity ring buffer the admin surface (`slow` frame,
//! `toss-cli top`) can read back without touching disk. The optional
//! [`SlowQueryLog`] persists a JSON line per *interesting* query:
//! slow-or-failed queries are always written, healthy ones are sampled
//! 1-in-N so the log (and its cost) stays bounded under load.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a recorded query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryOutcomeKind {
    /// Completed and returned answers (possibly degraded).
    #[default]
    Ok,
    /// Rejected by admission control (overloaded).
    Shed,
    /// Failed with an error.
    Error,
}

impl QueryOutcomeKind {
    /// Stable lowercase name (`ok`, `shed`, `error`).
    pub fn as_str(&self) -> &'static str {
        match self {
            QueryOutcomeKind::Ok => "ok",
            QueryOutcomeKind::Shed => "shed",
            QueryOutcomeKind::Error => "error",
        }
    }

    /// Parse the name produced by [`QueryOutcomeKind::as_str`].
    pub fn parse(s: &str) -> Option<QueryOutcomeKind> {
        match s {
            "ok" => Some(QueryOutcomeKind::Ok),
            "shed" => Some(QueryOutcomeKind::Shed),
            "error" => Some(QueryOutcomeKind::Error),
            _ => None,
        }
    }
}

/// One completed query, as stamped by the serving layer. The default
/// is an all-zero, all-empty record with outcome `Ok`; the serving
/// layer fills in what it knows and leaves the rest.
#[derive(Debug, Clone, Default)]
pub struct QueryRecord {
    /// The request's [`crate::QueryId`] value.
    pub query_id: u64,
    /// Budget class name (`interactive`, `batch`, `best_effort`).
    pub class: String,
    /// The query itself (XPath / condition description), possibly long.
    pub query: String,
    /// The plan the planner chose, as the executor renders it
    /// (`index-probe tag=author terms=2 candidates=4`, `scan`); empty
    /// when the query never reached the planner.
    pub plan: String,
    /// How the query ended.
    pub outcome: QueryOutcomeKind,
    /// Error or shed cause (`overloaded`, `budget_exhausted`, …); empty
    /// on success.
    pub cause: String,
    /// End-to-end wall time, ingress to response, in nanoseconds.
    pub total_ns: u64,
    /// Time spent queued in admission control.
    pub queue_wait_ns: u64,
    /// Rewrite (SEO/SEA expansion) phase.
    pub rewrite_ns: u64,
    /// Execution (scan/probe) phase.
    pub execute_ns: u64,
    /// Result-conversion phase.
    pub convert_ns: u64,
    /// Expansion terms charged against the budget.
    pub terms_used: u64,
    /// Documents scanned/probed, charged against the budget.
    pub docs_scanned: u64,
    /// Approximate memory charged, in bytes.
    pub memory_bytes: u64,
    /// Number of answer trees returned.
    pub answers: u64,
    /// Degradation notes (soft-limit clamps), empty when none.
    pub degraded: Vec<String>,
    /// Write verb (`insert_doc`, `delete_doc`, `add_term`, `add_edge`,
    /// `checkpoint`) for write-path records; empty for queries.
    pub op: String,
    /// For writes: how many ops shared this record's group-commit batch
    /// (1 for a lone write); 0 for queries.
    pub batch_size: u64,
    /// For writes: journal append + fsync latency of the batch, in
    /// nanoseconds; 0 for queries.
    pub fsync_ns: u64,
    /// For writes: the idempotency key matched the dedupe table, so the
    /// stored outcome was returned without re-applying.
    pub deduped: bool,
}

impl QueryRecord {
    /// Render as a single-line JSON object: a slow-query-log line, and
    /// the entry a server's `slow` frame carries.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!("{{\"query_id\":{}", self.query_id));
        out.push_str(",\"class\":");
        crate::push_json_str(&mut out, &self.class);
        out.push_str(",\"query\":");
        crate::push_json_str(&mut out, &self.query);
        out.push_str(",\"plan\":");
        crate::push_json_str(&mut out, &self.plan);
        out.push_str(",\"outcome\":");
        crate::push_json_str(&mut out, self.outcome.as_str());
        out.push_str(",\"cause\":");
        crate::push_json_str(&mut out, &self.cause);
        out.push_str(&format!(
            ",\"total_ns\":{},\"queue_wait_ns\":{},\"rewrite_ns\":{},\
             \"execute_ns\":{},\"convert_ns\":{},\"terms_used\":{},\
             \"docs_scanned\":{},\"memory_bytes\":{},\"answers\":{}",
            self.total_ns,
            self.queue_wait_ns,
            self.rewrite_ns,
            self.execute_ns,
            self.convert_ns,
            self.terms_used,
            self.docs_scanned,
            self.memory_bytes,
            self.answers
        ));
        out.push_str(",\"degraded\":[");
        for (i, d) in self.degraded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::push_json_str(&mut out, d);
        }
        out.push(']');
        if !self.op.is_empty() {
            out.push_str(",\"op\":");
            crate::push_json_str(&mut out, &self.op);
            out.push_str(&format!(
                ",\"batch_size\":{},\"fsync_ns\":{},\"deduped\":{}",
                self.batch_size, self.fsync_ns, self.deduped
            ));
        }
        out.push('}');
        out
    }
}

/// A bounded ring buffer of the most recent [`QueryRecord`]s.
///
/// Push is a short mutex hold (no allocation once the ring is warm);
/// readers get clones so the hot path never blocks on a slow admin
/// consumer.
pub struct FlightRecorder {
    ring: Mutex<VecDeque<QueryRecord>>,
    capacity: usize,
    recorded: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` queries (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            recorded: AtomicU64::new(0),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total records ever pushed (including ones since evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Push one record, evicting the oldest at capacity.
    pub fn record(&self, rec: QueryRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// The most recent `n` records, newest first.
    pub fn recent(&self, n: usize) -> Vec<QueryRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A JSON-lines log of interesting queries.
///
/// Queries slower than the threshold, shed, or failed are always
/// written; healthy fast ones are sampled deterministically 1-in-N
/// (`sample_every`; 0 disables sampling entirely) so logging cost stays
/// within the tracing overhead budget regardless of traffic.
pub struct SlowQueryLog {
    out: Mutex<Box<dyn Write + Send>>,
    threshold_ns: u64,
    sample_every: u64,
    seen: AtomicU64,
}

impl SlowQueryLog {
    /// Log to `path` (created/truncated), flagging queries with
    /// `total_ns > threshold_ns` as slow and sampling 1 in
    /// `sample_every` of the rest.
    pub fn create(
        path: &std::path::Path,
        threshold_ns: u64,
        sample_every: u64,
    ) -> std::io::Result<SlowQueryLog> {
        let file = std::fs::File::create(path)?;
        Ok(SlowQueryLog::to_writer(
            Box::new(std::io::BufWriter::new(file)),
            threshold_ns,
            sample_every,
        ))
    }

    /// Log to an arbitrary writer.
    pub(crate) fn to_writer(
        out: Box<dyn Write + Send>,
        threshold_ns: u64,
        sample_every: u64,
    ) -> SlowQueryLog {
        SlowQueryLog {
            out: Mutex::new(out),
            threshold_ns,
            sample_every,
            seen: AtomicU64::new(0),
        }
    }

    /// Decide-and-write: always logs slow/shed/error records, samples
    /// the rest. Returns whether the record was written.
    pub fn offer(&self, rec: &QueryRecord) -> bool {
        let n = self.seen.fetch_add(1, Ordering::Relaxed) + 1;
        let interesting = rec.outcome != QueryOutcomeKind::Ok
            || rec.total_ns > self.threshold_ns
            || !rec.degraded.is_empty();
        let sampled = self.sample_every > 0 && n.is_multiple_of(self.sample_every);
        if !(interesting || sampled) {
            return false;
        }
        let line = rec.to_json();
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        writeln!(out, "{line}").and_then(|_| out.flush()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rec(id: u64, total_ns: u64, outcome: QueryOutcomeKind) -> QueryRecord {
        QueryRecord {
            query_id: id,
            class: "interactive".into(),
            query: "//inproceedings[author=\"Smith\"]".into(),
            plan: "index-probe tag=author terms=1 candidates=1".into(),
            outcome,
            cause: String::new(),
            total_ns,
            queue_wait_ns: 10,
            rewrite_ns: 1,
            execute_ns: 2,
            convert_ns: 3,
            terms_used: 4,
            docs_scanned: 5,
            memory_bytes: 6,
            answers: 7,
            ..QueryRecord::default()
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let fr = FlightRecorder::new(3);
        for i in 0..5 {
            fr.record(rec(i, 100, QueryOutcomeKind::Ok));
        }
        assert_eq!(fr.len(), 3);
        assert_eq!(fr.recorded(), 5);
        let recent = fr.recent(10);
        let ids: Vec<u64> = recent.iter().map(|r| r.query_id).collect();
        assert_eq!(ids, vec![4, 3, 2]); // newest first, 0 and 1 evicted
        assert_eq!(fr.recent(1).len(), 1);
    }

    #[test]
    fn record_json_escapes_and_round_trips_fields() {
        let mut r = rec(42, 1_000, QueryOutcomeKind::Error);
        r.cause = "deadline \"exceeded\"".into();
        r.degraded = vec!["witnesses clamped".into()];
        let json = r.to_json();
        assert!(json.contains("\"query_id\":42"));
        assert!(json.contains("\"outcome\":\"error\""));
        assert!(json.contains("\\\"exceeded\\\""));
        assert!(json.contains("\"degraded\":[\"witnesses clamped\"]"));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn write_records_carry_op_fields() {
        let mut r = rec(7, 500, QueryOutcomeKind::Ok);
        r.op = "insert_doc".into();
        r.batch_size = 4;
        r.fsync_ns = 12_345;
        r.deduped = true;
        let json = r.to_json();
        assert!(json.contains("\"op\":\"insert_doc\""));
        assert!(json.contains("\"batch_size\":4"));
        assert!(json.contains("\"fsync_ns\":12345"));
        assert!(json.contains("\"deduped\":true"));
        // Query records stay byte-compatible with the PR-7 shape: no
        // write fields at all.
        let q = rec(8, 500, QueryOutcomeKind::Ok);
        assert!(!q.to_json().contains("\"op\""));
    }

    #[test]
    fn slow_log_always_keeps_interesting_samples_rest() {
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let log = SlowQueryLog::to_writer(Box::new(Shared(buf.clone())), 1_000_000, 10);
        // 100 fast+ok records: only the 1-in-10 samples land
        let written = (0..100)
            .filter(|&i| log.offer(&rec(i, 100, QueryOutcomeKind::Ok)))
            .count();
        assert_eq!(written, 10);
        // slow, shed and error records always land
        assert!(log.offer(&rec(200, 2_000_000, QueryOutcomeKind::Ok)));
        assert!(log.offer(&rec(201, 100, QueryOutcomeKind::Shed)));
        assert!(log.offer(&rec(202, 100, QueryOutcomeKind::Error)));
        let mut degraded = rec(203, 100, QueryOutcomeKind::Ok);
        degraded.degraded.push("terms clamped".into());
        assert!(log.offer(&degraded));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 14);
        assert!(text.lines().all(|l| l.starts_with("{\"query_id\":")));
    }

    #[test]
    fn sampling_disabled_with_zero() {
        let log = SlowQueryLog::to_writer(Box::new(std::io::sink()), 1_000_000, 0);
        for i in 0..50 {
            assert!(!log.offer(&rec(i, 100, QueryOutcomeKind::Ok)));
        }
    }

    #[test]
    fn outcome_kind_round_trips() {
        for k in [
            QueryOutcomeKind::Ok,
            QueryOutcomeKind::Shed,
            QueryOutcomeKind::Error,
        ] {
            assert_eq!(QueryOutcomeKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(QueryOutcomeKind::parse("nope"), None);
    }
}
