//! The wire protocol: length-prefixed JSON frames.
//!
//! One frame is a 4-byte big-endian payload length followed by that many
//! bytes of UTF-8 JSON. Requests and responses are single frames; a
//! connection carries any number of request/response pairs in order
//! (pipelining is allowed — the server answers in request order).
//!
//! The framing layer is where most network faults surface, so its error
//! type distinguishes the cases the server treats differently:
//!
//! * [`FrameError::Closed`] — EOF exactly on a frame boundary: the peer
//!   hung up cleanly between requests.
//! * [`FrameError::HalfFrame`] — EOF *inside* a frame: the peer dropped
//!   mid-request (or mid-response). Never answered, only counted.
//! * [`FrameError::Timeout`] — the per-frame read deadline expired
//!   (slow-loris clients trickle bytes forever; the overall deadline
//!   caps them regardless of per-`read` progress).
//! * [`FrameError::Oversize`] — the declared length is zero or exceeds
//!   the configured frame ceiling; the frame is rejected without
//!   buffering.
//!
//! Every response carries a `status` of `"ok"` or `"error"`; error
//! responses carry a stable machine-readable [`ErrorCode`] plus an
//! optional `retry_after_ms` hint that well-behaved clients honor
//! before retrying.

use crate::budget::BudgetClass;
use std::io::{self, Read, Write};
use std::time::{Duration, Instant};
use toss_core::{TossError, TossResult};
use toss_json::Value;

/// Default ceiling on a single frame's payload (1 MiB).
pub(crate) const DEFAULT_MAX_FRAME_BYTES: usize = 1 << 20;

/// A framing-layer failure.
#[derive(Debug)]
pub enum FrameError {
    /// EOF on a frame boundary: the peer closed cleanly.
    Closed,
    /// EOF inside a frame: the peer dropped mid-request/response.
    HalfFrame,
    /// The read deadline expired before the frame completed.
    Timeout,
    /// Declared payload length is zero or exceeds the configured
    /// ceiling.
    Oversize(usize),
    /// Any other I/O error (connection reset, …).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::HalfFrame => write!(f, "connection dropped mid-frame"),
            FrameError::Timeout => write!(f, "frame read timed out"),
            FrameError::Oversize(0) => write!(f, "frame is empty"),
            FrameError::Oversize(n) => write!(f, "frame of {n} bytes exceeds the limit"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One `read` into `buf`: whatever has arrived, `0` at EOF. A socket
/// read timeout surfaces as [`FrameError::Timeout`].
fn read_some(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    loop {
        return match r.read(buf) {
            Ok(n) => Ok(n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                Err(FrameError::Timeout)
            }
            Err(e) => Err(FrameError::Io(e)),
        };
    }
}

/// Fill `buf` from `r`, tolerating short reads. Returns how many bytes
/// were read before EOF (== `buf.len()` on success). `deadline` bounds
/// the *whole* fill: per-`read` socket timeouts alone would let a
/// slow-loris peer trickle one byte per timeout window forever.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    deadline: Option<Instant>,
) -> Result<usize, FrameError> {
    let mut done = 0;
    while done < buf.len() {
        if deadline.is_some_and(|at| Instant::now() >= at) {
            return Err(FrameError::Timeout);
        }
        match read_some(r, &mut buf[done..])? {
            0 => break,
            n => done += n,
        }
    }
    Ok(done)
}

/// Read one frame. `timeout` bounds the whole frame (prefix + payload)
/// from the first byte of the length prefix; `None` waits as long as the
/// underlying socket allows.
pub fn read_frame(
    r: &mut impl Read,
    max_bytes: usize,
    timeout: Option<Duration>,
) -> Result<Vec<u8>, FrameError> {
    let mut prefix = [0u8; 4];
    // The first read asks for the whole prefix and takes what has arrived
    // (normally all four bytes: two reads per frame). The deadline starts
    // when it returns: an idle connection waiting for its next request is
    // not "slow", only a started-but-unfinished frame is. The socket's own
    // read timeout bounds idle waits.
    let first = read_some(r, &mut prefix)?;
    if first == 0 {
        return Err(FrameError::Closed);
    }
    let deadline = timeout.map(|t| Instant::now() + t);
    if first + read_full(r, &mut prefix[first..], deadline)? != prefix.len() {
        return Err(FrameError::HalfFrame);
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len == 0 || len > max_bytes {
        return Err(FrameError::Oversize(len));
    }
    let mut payload = vec![0u8; len];
    if read_full(r, &mut payload, deadline)? != len {
        return Err(FrameError::HalfFrame);
    }
    Ok(payload)
}

/// Write one frame as a **single** `write_all` (length prefix and
/// payload in one buffer), so a response either reaches the kernel whole
/// or fails whole — the serving layer's "no partial frame" guarantee
/// rests on this plus never killing a socket between a request and its
/// response.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Stable machine-readable error codes carried by error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed frame/JSON/field, or a query shape the executor
    /// rejects (ill-typed, unsupported, unknown collection …).
    BadRequest,
    /// Admission control shed the request; retry after the hint.
    Overloaded,
    /// The query's deadline passed.
    BudgetExceeded,
    /// The query was cancelled (drain past its deadline, or an explicit
    /// cancel).
    Cancelled,
    /// A panic during execution was isolated; the server is still up.
    Internal,
    /// The server is draining; retry against another replica or after
    /// the hint.
    ShuttingDown,
    /// The journal is unhealthy (ENOSPC, persistent I/O errors): the
    /// server is serving reads but rejecting writes until a probe
    /// write succeeds again. Retry after the hint.
    Degraded,
}

impl ErrorCode {
    /// The wire string (`snake_case`).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::BudgetExceeded => "budget_exceeded",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::Internal => "internal",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Degraded => "degraded",
        }
    }

    /// Count one error frame under this code:
    /// `toss.serve.errors.<code>`.
    pub(crate) fn count(self) {
        toss_obs::metrics::counter(&format!("toss.serve.errors.{}", self.as_str())).inc();
    }

    /// Parse the wire string.
    pub(crate) fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad_request" => ErrorCode::BadRequest,
            "overloaded" => ErrorCode::Overloaded,
            "budget_exceeded" => ErrorCode::BudgetExceeded,
            "cancelled" => ErrorCode::Cancelled,
            "internal" => ErrorCode::Internal,
            "shutting_down" => ErrorCode::ShuttingDown,
            "degraded" => ErrorCode::Degraded,
            _ => return None,
        })
    }

    /// Whether a client may retry the same request verbatim and expect
    /// it to succeed once load/drain passes. Degraded mode is retryable
    /// because the server self-heals (probe writes clear it) — and
    /// write retries are idempotent under their key, so a replayed
    /// mutation never double-applies.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded | ErrorCode::ShuttingDown | ErrorCode::Degraded
        )
    }
}

/// Map an executor error to its wire code. Query-shape and store errors
/// are the client's fault (`bad_request`); the governance outcomes keep
/// their identity so clients can tell shed load (retry) from a blown
/// budget (don't).
pub(crate) fn error_code_of(e: &TossError) -> ErrorCode {
    match e {
        TossError::Overloaded(_) => ErrorCode::Overloaded,
        TossError::BudgetExceeded(_) => ErrorCode::BudgetExceeded,
        TossError::Cancelled => ErrorCode::Cancelled,
        TossError::Internal(_) => ErrorCode::Internal,
        _ => ErrorCode::BadRequest,
    }
}

/// One `tag=value` style predicate of a query request.
pub(crate) type Predicate = (String, String);


/// A parsed `query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Collection to query.
    pub collection: String,
    /// Root tag of the selection pattern.
    pub root: String,
    /// `tag = value` equality predicates.
    pub eq: Vec<Predicate>,
    /// `tag contains value` predicates.
    pub contains: Vec<Predicate>,
    /// `tag ~ value` similarity predicates.
    pub similar: Vec<Predicate>,
    /// `tag below term` ontology predicates.
    pub below: Vec<Predicate>,
    /// Run the TAX baseline (no SEO expansion) instead of TOSS.
    pub tax: bool,
    /// Deadline override in milliseconds (clamped to the class ceiling;
    /// 0 or absent = the class default).
    pub timeout_ms: Option<u64>,
    /// Soft expansion-term override (clamped to the class ceiling).
    pub max_terms: Option<u64>,
    /// Soft documents-scanned override (clamped to the class ceiling).
    pub max_docs: Option<u64>,
    /// Cap on serialized result trees in the response (default 100).
    pub max_results: usize,
    /// Budget class.
    pub class: BudgetClass,
}

impl QueryRequest {
    /// A query on `collection` rooted at `root`: no predicates yet (add
    /// at least one before sending), default class, default result cap.
    pub fn new(collection: &str, root: &str) -> QueryRequest {
        QueryRequest {
            collection: collection.to_string(),
            root: root.to_string(),
            eq: Vec::new(),
            contains: Vec::new(),
            similar: Vec::new(),
            below: Vec::new(),
            tax: false,
            timeout_ms: None,
            max_terms: None,
            max_docs: None,
            max_results: 100,
            class: BudgetClass::default(),
        }
    }
}

/// One mutation carried by a write frame (the serve-level mirror of
/// [`toss_xmldb::JournalOp`], minus the ops the protocol does not
/// expose).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteOp {
    /// Insert a document given as XML text.
    InsertDoc {
        /// Target collection.
        collection: String,
        /// The document's XML.
        xml: String,
    },
    /// Delete a document by id.
    DeleteDoc {
        /// Target collection.
        collection: String,
        /// The document id.
        doc_id: u64,
    },
    /// Add ontology terms (store no-op; grows the hierarchy).
    AddTerm {
        /// The terms to add.
        terms: Vec<String>,
    },
    /// Assert `below ≤ above` in the ontology.
    AddEdge {
        /// The lesser term.
        below: String,
        /// The greater term.
        above: String,
    },
    /// Fold the journal into a fresh verified snapshot.
    Checkpoint,
}

impl WriteOp {
    /// The wire verb.
    pub fn verb(&self) -> &'static str {
        match self {
            WriteOp::InsertDoc { .. } => "insert_doc",
            WriteOp::DeleteDoc { .. } => "delete_doc",
            WriteOp::AddTerm { .. } => "add_term",
            WriteOp::AddEdge { .. } => "add_edge",
            WriteOp::Checkpoint => "checkpoint",
        }
    }

    /// A short human-readable target, for telemetry records.
    pub(crate) fn target(&self) -> String {
        match self {
            WriteOp::InsertDoc { collection, .. } => collection.clone(),
            WriteOp::DeleteDoc {
                collection, doc_id, ..
            } => format!("{collection}/{doc_id}"),
            WriteOp::AddTerm { terms } => terms.join(","),
            WriteOp::AddEdge { below, above } => format!("{below}<={above}"),
            WriteOp::Checkpoint => String::new(),
        }
    }

    /// Approximate payload size, checked against the class's
    /// [`BudgetClass::max_write_bytes`] ceiling at admission.
    pub(crate) fn payload_bytes(&self) -> usize {
        match self {
            WriteOp::InsertDoc { xml, .. } => xml.len(),
            WriteOp::AddTerm { terms } => terms.iter().map(String::len).sum(),
            _ => 0,
        }
    }
}

/// A parsed mutation frame: the op, its client-generated idempotency
/// key (empty for `checkpoint`), and the budget class governing its
/// group-commit window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRequest {
    /// The mutation.
    pub op: WriteOp,
    /// Client-generated idempotency key: a retried send carries the
    /// same key, and the server's dedupe table collapses replays into
    /// the original's outcome.
    pub key: String,
    /// Budget class; writes default to `batch` (unlike queries).
    pub class: BudgetClass,
}

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered even while draining.
    Ping,
    /// Prometheus-text export of the process metrics registry.
    Metrics,
    /// Structured admin snapshot: per-budget-class windowed SLO figures
    /// (p50/p95/p99, error/shed rates), in-flight and connection gauges,
    /// flight-recorder occupancy. What `toss-cli top` polls.
    Stats,
    /// Recent flight-recorder entries, newest first: per-query phase
    /// timings, plan, budget consumption and outcome.
    Slow {
        /// Maximum entries to return.
        limit: usize,
        /// Only entries of this budget class, when set.
        class: Option<BudgetClass>,
    },
    /// Begin graceful shutdown (only honored when the server was
    /// started with the shutdown verb enabled).
    Shutdown,
    /// Execute a selection query.
    Query(Box<QueryRequest>),
    /// Apply a mutation (or trigger a checkpoint) through the single
    /// writer thread's group-commit WAL path.
    Write(Box<WriteRequest>),
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field `{key}`"))
}

fn predicates(v: &Value, key: &str) -> Result<Vec<Predicate>, String> {
    let Some(arr) = v.get(key) else {
        return Ok(Vec::new());
    };
    let arr = arr
        .as_array()
        .ok_or_else(|| format!("field `{key}` must be an array of [tag, value] pairs"))?;
    let mut out = Vec::with_capacity(arr.len());
    for pair in arr {
        match pair.as_array() {
            Some([t, val]) => match (t.as_str(), val.as_str()) {
                (Some(t), Some(val)) => out.push((t.to_string(), val.to_string())),
                _ => return Err(format!("`{key}` pairs must be two strings")),
            },
            _ => return Err(format!("`{key}` entries must be [tag, value] pairs")),
        }
    }
    Ok(out)
}

/// A non-negative integer field of a wire object, or 0 when it is absent,
/// negative or not an integer.
pub(crate) fn u64_or_zero(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_i64).unwrap_or(0).max(0) as u64
}

/// The optional `class` field; `None` when it is absent or null.
fn class_field(v: &Value) -> Result<Option<BudgetClass>, String> {
    match v.get("class") {
        None | Some(Value::Null) => Ok(None),
        Some(c) => {
            let s = c.as_str().ok_or("field `class` must be a string")?;
            BudgetClass::parse(s)
                .map(Some)
                .ok_or_else(|| format!("unknown budget class `{s}`"))
        }
    }
}

fn u64_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => x
            .as_i64()
            .and_then(|i| u64::try_from(i).ok())
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

impl Request {
    /// Parse a request frame payload.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "frame is not UTF-8".to_string())?;
        let v = Value::parse(text).map_err(|e| e.to_string())?;
        let verb = str_field(&v, "verb")?;
        match verb.as_str() {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "stats" => Ok(Request::Stats),
            "slow" => {
                let limit = u64_field(&v, "limit")?
                    .map(|n| n as usize)
                    .unwrap_or(20)
                    .max(1);
                let class = class_field(&v)?;
                Ok(Request::Slow { limit, class })
            }
            "shutdown" => Ok(Request::Shutdown),
            "query" => {
                let class = class_field(&v)?.unwrap_or(BudgetClass::Interactive);
                let q = QueryRequest {
                    collection: str_field(&v, "collection")?,
                    root: str_field(&v, "root")?,
                    eq: predicates(&v, "eq")?,
                    contains: predicates(&v, "contains")?,
                    similar: predicates(&v, "similar")?,
                    below: predicates(&v, "below")?,
                    tax: matches!(v.get("tax"), Some(Value::Bool(true))),
                    timeout_ms: u64_field(&v, "timeout_ms")?,
                    max_terms: u64_field(&v, "max_terms")?,
                    max_docs: u64_field(&v, "max_docs")?,
                    max_results: u64_field(&v, "max_results")?
                        .map(|n| n as usize)
                        .unwrap_or(100),
                    class,
                };
                if q.eq.is_empty()
                    && q.contains.is_empty()
                    && q.similar.is_empty()
                    && q.below.is_empty()
                {
                    return Err(
                        "query needs at least one of eq/contains/similar/below".to_string()
                    );
                }
                Ok(Request::Query(Box::new(q)))
            }
            "insert_doc" | "delete_doc" | "add_term" | "add_edge" | "checkpoint" => {
                let op = match verb.as_str() {
                    "insert_doc" => WriteOp::InsertDoc {
                        collection: str_field(&v, "collection")?,
                        xml: str_field(&v, "xml")?,
                    },
                    "delete_doc" => WriteOp::DeleteDoc {
                        collection: str_field(&v, "collection")?,
                        doc_id: u64_field(&v, "doc_id")?
                            .ok_or("missing field `doc_id`")?,
                    },
                    "add_term" => {
                        let arr = v
                            .get("terms")
                            .and_then(Value::as_array)
                            .ok_or("field `terms` must be an array of strings")?;
                        let terms: Vec<String> = arr
                            .iter()
                            .map(|t| {
                                t.as_str()
                                    .map(str::to_string)
                                    .ok_or("`terms` entries must be strings")
                            })
                            .collect::<Result<_, _>>()?;
                        if terms.is_empty() {
                            return Err("`terms` must not be empty".to_string());
                        }
                        WriteOp::AddTerm { terms }
                    }
                    "add_edge" => WriteOp::AddEdge {
                        below: str_field(&v, "below")?,
                        above: str_field(&v, "above")?,
                    },
                    _ => WriteOp::Checkpoint,
                };
                let key = match v.get("key") {
                    None | Some(Value::Null) if op == WriteOp::Checkpoint => String::new(),
                    None | Some(Value::Null) => {
                        return Err(format!(
                            "write verb `{verb}` requires an idempotency `key`"
                        ))
                    }
                    Some(k) => {
                        let k = k.as_str().ok_or("field `key` must be a string")?;
                        if k.is_empty() {
                            return Err("field `key` must be non-empty".to_string());
                        }
                        k.to_string()
                    }
                };
                // unlike queries, writes default to the batch class:
                // throughput-oriented group commit unless the client
                // explicitly asks for an interactive ack
                let class = class_field(&v)?.unwrap_or(BudgetClass::Batch);
                Ok(Request::Write(Box::new(WriteRequest { op, key, class })))
            }
            other => Err(format!("unknown verb `{other}`")),
        }
    }

    /// Serialize to a frame payload (the client side of [`Request::parse`]).
    pub fn to_payload(&self) -> String {
        fn pred_value(preds: &[Predicate]) -> Value {
            Value::Array(
                preds
                    .iter()
                    .map(|(t, v)| {
                        Value::Array(vec![Value::Str(t.clone()), Value::Str(v.clone())])
                    })
                    .collect(),
            )
        }
        let fields: Vec<(String, Value)> = match self {
            Request::Ping => vec![("verb".into(), Value::Str("ping".into()))],
            Request::Metrics => vec![("verb".into(), Value::Str("metrics".into()))],
            Request::Stats => vec![("verb".into(), Value::Str("stats".into()))],
            Request::Slow { limit, class } => {
                let mut f = vec![
                    ("verb".into(), Value::Str("slow".into())),
                    ("limit".into(), Value::Int(*limit as i64)),
                ];
                if let Some(c) = class {
                    f.push(("class".into(), Value::Str(c.as_str().into())));
                }
                f
            }
            Request::Shutdown => vec![("verb".into(), Value::Str("shutdown".into()))],
            Request::Query(q) => {
                let mut f: Vec<(String, Value)> = vec![
                    ("verb".into(), Value::Str("query".into())),
                    ("collection".into(), Value::Str(q.collection.clone())),
                    ("root".into(), Value::Str(q.root.clone())),
                    ("class".into(), Value::Str(q.class.as_str().into())),
                ];
                for (key, preds) in [
                    ("eq", &q.eq),
                    ("contains", &q.contains),
                    ("similar", &q.similar),
                    ("below", &q.below),
                ] {
                    if !preds.is_empty() {
                        f.push((key.into(), pred_value(preds)));
                    }
                }
                if q.tax {
                    f.push(("tax".into(), Value::Bool(true)));
                }
                for (key, v) in [
                    ("timeout_ms", q.timeout_ms),
                    ("max_terms", q.max_terms),
                    ("max_docs", q.max_docs),
                ] {
                    if let Some(n) = v {
                        f.push((key.into(), Value::Int(n as i64)));
                    }
                }
                f.push(("max_results".into(), Value::Int(q.max_results as i64)));
                f
            }
            Request::Write(w) => {
                let mut f: Vec<(String, Value)> =
                    vec![("verb".into(), Value::Str(w.op.verb().into()))];
                match &w.op {
                    WriteOp::InsertDoc { collection, xml } => {
                        f.push(("collection".into(), Value::Str(collection.clone())));
                        f.push(("xml".into(), Value::Str(xml.clone())));
                    }
                    WriteOp::DeleteDoc { collection, doc_id } => {
                        f.push(("collection".into(), Value::Str(collection.clone())));
                        f.push(("doc_id".into(), Value::Int(*doc_id as i64)));
                    }
                    WriteOp::AddTerm { terms } => {
                        f.push((
                            "terms".into(),
                            Value::Array(
                                terms.iter().map(|t| Value::Str(t.clone())).collect(),
                            ),
                        ));
                    }
                    WriteOp::AddEdge { below, above } => {
                        f.push(("below".into(), Value::Str(below.clone())));
                        f.push(("above".into(), Value::Str(above.clone())));
                    }
                    WriteOp::Checkpoint => {}
                }
                if !w.key.is_empty() {
                    f.push(("key".into(), Value::Str(w.key.clone())));
                }
                f.push(("class".into(), Value::Str(w.class.as_str().into())));
                f
            }
        };
        Value::Object(fields).to_json()
    }
}

/// Decode a `slow`-frame wire object — a [`toss_obs::QueryRecord::to_json`]
/// line — back into a flight-recorder entry; absent fields are zero.
pub(crate) fn record_from_value(v: &Value) -> Option<toss_obs::QueryRecord> {
    let u = |key: &str| u64_or_zero(v, key);
    let s = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    Some(toss_obs::QueryRecord {
        query_id: v.get("query_id").and_then(Value::as_i64)?.max(0) as u64,
        class: s("class"),
        query: s("query"),
        plan: s("plan"),
        outcome: toss_obs::QueryOutcomeKind::parse(
            v.get("outcome").and_then(Value::as_str).unwrap_or(""),
        )?,
        cause: s("cause"),
        total_ns: u("total_ns"),
        queue_wait_ns: u("queue_wait_ns"),
        rewrite_ns: u("rewrite_ns"),
        execute_ns: u("execute_ns"),
        convert_ns: u("convert_ns"),
        terms_used: u("terms_used"),
        docs_scanned: u("docs_scanned"),
        memory_bytes: u("memory_bytes"),
        answers: u("answers"),
        degraded: v
            .get("degraded")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default(),
        op: s("op"),
        batch_size: u("batch_size"),
        fsync_ns: u("fsync_ns"),
        deduped: matches!(v.get("deduped"), Some(Value::Bool(true))),
    })
}

/// Build an `ok` response payload from extra fields.
pub fn ok_payload(fields: Vec<(String, Value)>) -> String {
    let mut all = vec![("status".to_string(), Value::Str("ok".into()))];
    all.extend(fields);
    Value::Object(all).to_json()
}

/// Build an error response payload.
pub(crate) fn error_payload(code: ErrorCode, message: &str, retry_after_ms: Option<u64>) -> String {
    let mut fields = vec![
        ("status".to_string(), Value::Str("error".into())),
        ("code".to_string(), Value::Str(code.as_str().into())),
        ("message".to_string(), Value::Str(message.into())),
    ];
    if let Some(ms) = retry_after_ms {
        fields.push(("retry_after_ms".to_string(), Value::Int(ms as i64)));
    }
    Value::Object(fields).to_json()
}

/// The most predicates (`eq`, `contains`, `similar` and `below` pairs
/// together) one query may carry. Each one adds a pattern node and two
/// conjuncts to a condition that rewrite, cache keying and drop all walk
/// recursively, so an unbounded list could overflow a connection
/// thread's stack and abort the process.
pub(crate) const MAX_PREDICATES: usize = 64;

/// Compile a [`QueryRequest`] into the executor's query form. Shared by
/// the server and by in-process callers that want identical semantics.
/// More than `MAX_PREDICATES` (64) predicates is an unsupported shape.
pub fn build_query(
    q: &QueryRequest,
) -> TossResult<(toss_core::TossQuery, toss_core::executor::Mode)> {
    use toss_core::{TossCond, TossOp, TossTerm};
    let predicates = q.eq.len() + q.contains.len() + q.similar.len() + q.below.len();
    if predicates > MAX_PREDICATES {
        return Err(TossError::Unsupported(format!(
            "{predicates} predicates exceed the limit of {MAX_PREDICATES}"
        )));
    }
    let mut conds = vec![TossCond::eq(
        TossTerm::tag(1),
        TossTerm::str(&q.root),
    )];
    let mut edges = Vec::new();
    let mut next_label = 2u32;
    for (preds, op) in [
        (&q.eq, TossOp::Eq),
        (&q.contains, TossOp::Contains),
        (&q.similar, TossOp::Similar),
        (&q.below, TossOp::Below),
    ] {
        for (tag, value) in preds.iter() {
            let l = next_label;
            next_label += 1;
            edges.push(toss_core::tax::EdgeKind::ParentChild);
            conds.push(TossCond::eq(TossTerm::tag(l), TossTerm::str(tag)));
            let rhs = if matches!(op, TossOp::Below) {
                TossTerm::ty(value)
            } else {
                TossTerm::str(value)
            };
            conds.push(TossCond::cmp(TossTerm::content(l), op, rhs));
        }
    }
    let pattern =
        toss_core::algebra::TossPattern::spine(&edges, TossCond::all(conds))?;
    let query = toss_core::TossQuery {
        collection: q.collection.clone(),
        pattern,
        expand_labels: vec![1],
    };
    let mode = if q.tax {
        toss_core::executor::Mode::TaxBaseline
    } else {
        toss_core::executor::Mode::Toss
    };
    Ok((query, mode))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"verb\":\"ping\"}").unwrap();
        assert_eq!(&buf[..4], &15u32.to_be_bytes());
        let mut cur = io::Cursor::new(buf);
        let payload = read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES, None).unwrap();
        assert_eq!(payload, b"{\"verb\":\"ping\"}");
        // a second read on the exhausted stream is a clean close
        assert!(matches!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES, None),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn half_frames_and_oversize_are_distinguished() {
        // prefix promises 100 bytes, only 3 arrive
        let mut buf = 100u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"abc");
        let mut cur = io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES, None),
            Err(FrameError::HalfFrame)
        ));

        // truncated prefix
        let mut cur = io::Cursor::new(vec![0u8, 0]);
        assert!(matches!(
            read_frame(&mut cur, DEFAULT_MAX_FRAME_BYTES, None),
            Err(FrameError::HalfFrame)
        ));

        // oversize and zero-length frames are rejected without buffering
        let mut cur = io::Cursor::new(10_000u32.to_be_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cur, 1024, None),
            Err(FrameError::Oversize(10_000))
        ));
        let mut cur = io::Cursor::new(0u32.to_be_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut cur, 1024, None),
            Err(FrameError::Oversize(0))
        ));
    }

    /// Hands out at most `chunk` bytes per `read`, counting the calls.
    struct Trickle {
        data: io::Cursor<Vec<u8>>,
        chunk: usize,
        reads: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.chunk);
            self.data.read(&mut buf[..n])
        }
    }

    #[test]
    fn prefix_arriving_in_pieces_reads_the_same_frame() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        // reads: prefix pieces, then the payload in `chunk`-sized reads
        for (chunk, reads) in [(1, 4 + 5), (2, 2 + 3), (4, 1 + 2), (64, 1 + 1)] {
            let mut r = Trickle {
                data: io::Cursor::new(wire.clone()),
                chunk,
                reads: 0,
            };
            let got = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES, Some(Duration::from_secs(5)));
            assert_eq!(got.unwrap(), b"hello", "chunk={chunk}");
            assert_eq!(r.reads, reads, "chunk={chunk}");
            // and the stream is left at the frame boundary
            assert!(matches!(
                read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES, None),
                Err(FrameError::Closed)
            ));
        }
        // 1–3 prefix bytes then EOF is a half frame however they arrive
        for (cut, chunk) in [(1, 1), (2, 1), (3, 2), (3, 4)] {
            let mut r = Trickle {
                data: io::Cursor::new(wire[..cut].to_vec()),
                chunk,
                reads: 0,
            };
            assert!(
                matches!(
                    read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES, None),
                    Err(FrameError::HalfFrame)
                ),
                "cut={cut} chunk={chunk}"
            );
        }
    }

    #[test]
    fn request_parse_round_trip() {
        let q = QueryRequest {
            collection: "dblp".into(),
            root: "inproceedings".into(),
            eq: vec![("author".into(), "Jeff Ullman".into())],
            contains: vec![],
            similar: vec![("booktitle".into(), "SIGMOD".into())],
            below: vec![],
            tax: false,
            timeout_ms: Some(250),
            max_terms: None,
            max_docs: Some(1000),
            max_results: 10,
            class: BudgetClass::BestEffort,
        };
        let req = Request::Query(Box::new(q));
        let payload = req.to_payload();
        assert_eq!(Request::parse(payload.as_bytes()).unwrap(), req);
        for simple in [
            Request::Ping,
            Request::Metrics,
            Request::Stats,
            Request::Shutdown,
            Request::Slow {
                limit: 5,
                class: None,
            },
            Request::Slow {
                limit: 50,
                class: Some(BudgetClass::Batch),
            },
        ] {
            let p = simple.to_payload();
            assert_eq!(Request::parse(p.as_bytes()).unwrap(), simple);
        }
        // write verbs round-trip with their key and class
        for op in [
            WriteOp::InsertDoc {
                collection: "dblp".into(),
                xml: "<inproceedings/>".into(),
            },
            WriteOp::DeleteDoc {
                collection: "dblp".into(),
                doc_id: 42,
            },
            WriteOp::AddTerm {
                terms: vec!["PODS".into(), "ICDE".into()],
            },
            WriteOp::AddEdge {
                below: "PODS".into(),
                above: "conference".into(),
            },
        ] {
            let req = Request::Write(Box::new(WriteRequest {
                op,
                key: "wk-1".into(),
                class: BudgetClass::Interactive,
            }));
            let p = req.to_payload();
            assert_eq!(Request::parse(p.as_bytes()).unwrap(), req);
        }
        // checkpoint needs no key; writes default to the batch class
        let cp = Request::Write(Box::new(WriteRequest {
            op: WriteOp::Checkpoint,
            key: String::new(),
            class: BudgetClass::Batch,
        }));
        assert_eq!(Request::parse(cp.to_payload().as_bytes()).unwrap(), cp);
        match Request::parse(
            br#"{"verb":"insert_doc","collection":"c","xml":"<a/>","key":"k"}"#,
        )
        .unwrap()
        {
            Request::Write(w) => assert_eq!(w.class, BudgetClass::Batch),
            other => panic!("expected a write, got {other:?}"),
        }
        // a mutation without a key is rejected at parse time
        assert!(Request::parse(
            br#"{"verb":"insert_doc","collection":"c","xml":"<a/>"}"#
        )
        .is_err());
        assert!(Request::parse(
            br#"{"verb":"delete_doc","collection":"c","doc_id":1,"key":""}"#
        )
        .is_err());
        assert!(Request::parse(br#"{"verb":"add_term","terms":[],"key":"k"}"#).is_err());

        // `slow` defaults its limit and rejects unknown classes
        assert_eq!(
            Request::parse(b"{\"verb\":\"slow\"}").unwrap(),
            Request::Slow {
                limit: 20,
                class: None
            }
        );
        assert!(Request::parse(b"{\"verb\":\"slow\",\"class\":\"warp\"}").is_err());
    }

    #[test]
    fn flight_record_wire_round_trip() {
        let rec = toss_obs::QueryRecord {
            query_id: 99,
            class: "batch".into(),
            query: "//inproceedings[author=\"A\"]".into(),
            plan: "index-probe tag=author terms=1 candidates=1".into(),
            outcome: toss_obs::QueryOutcomeKind::Error,
            cause: "budget_exceeded".into(),
            total_ns: 123_456,
            queue_wait_ns: 789,
            rewrite_ns: 10,
            execute_ns: 20,
            convert_ns: 30,
            terms_used: 4,
            docs_scanned: 5,
            memory_bytes: 6,
            answers: 0,
            degraded: vec!["terms clamped".into()],
            op: "insert_doc".into(),
            batch_size: 7,
            fsync_ns: 42_000,
            deduped: true,
        };
        let v = Value::parse(&rec.to_json()).unwrap();
        let back = record_from_value(&v).unwrap();
        assert_eq!(back.query_id, rec.query_id);
        assert_eq!(back.class, rec.class);
        assert_eq!(back.plan, rec.plan);
        assert_eq!(back.outcome, rec.outcome);
        assert_eq!(back.total_ns, rec.total_ns);
        assert_eq!(back.queue_wait_ns, rec.queue_wait_ns);
        assert_eq!(back.degraded, rec.degraded);
        // the write fields survive the round trip too
        assert_eq!(back.op, rec.op);
        assert_eq!(back.batch_size, rec.batch_size);
        assert_eq!(back.fsync_ns, rec.fsync_ns);
        assert!(back.deduped);
        // a record without a parseable outcome is rejected
        assert!(record_from_value(&Value::Object(vec![(
            "query_id".into(),
            Value::Int(1)
        )]))
        .is_none());
    }

    #[test]
    fn request_parse_rejects_garbage() {
        assert!(Request::parse(b"\xff\xfe").is_err()); // not UTF-8
        assert!(Request::parse(b"nonsense").is_err()); // not JSON
        assert!(Request::parse(b"{\"verb\":\"frob\"}").is_err()); // unknown verb
        assert!(Request::parse(b"{}").is_err()); // missing verb
        // a query with no predicate is rejected at parse time
        assert!(Request::parse(
            b"{\"verb\":\"query\",\"collection\":\"c\",\"root\":\"r\"}"
        )
        .is_err());
        // malformed predicate shapes
        assert!(Request::parse(
            b"{\"verb\":\"query\",\"collection\":\"c\",\"root\":\"r\",\"eq\":[[1,2]]}"
        )
        .is_err());
        assert!(Request::parse(
            b"{\"verb\":\"query\",\"collection\":\"c\",\"root\":\"r\",\"class\":\"warp\",\
              \"eq\":[[\"a\",\"b\"]]}"
        )
        .is_err());
    }

    #[test]
    fn error_codes_round_trip_and_classify() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::Overloaded,
            ErrorCode::BudgetExceeded,
            ErrorCode::Cancelled,
            ErrorCode::Internal,
            ErrorCode::ShuttingDown,
            ErrorCode::Degraded,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert!(ErrorCode::Overloaded.is_retryable());
        assert!(ErrorCode::ShuttingDown.is_retryable());
        assert!(
            ErrorCode::Degraded.is_retryable(),
            "degraded self-heals, so clients may retry"
        );
        assert!(!ErrorCode::BudgetExceeded.is_retryable());
        assert!(!ErrorCode::Internal.is_retryable());
        assert_eq!(
            error_code_of(&TossError::Overloaded("x".into())),
            ErrorCode::Overloaded
        );
        assert_eq!(
            error_code_of(&TossError::Cancelled),
            ErrorCode::Cancelled
        );
        assert_eq!(
            error_code_of(&TossError::Internal("p".into())),
            ErrorCode::Internal
        );
        assert_eq!(
            error_code_of(&TossError::Unsupported("q".into())),
            ErrorCode::BadRequest
        );
    }

    #[test]
    fn error_payload_carries_retry_hint() {
        let p = error_payload(ErrorCode::Overloaded, "busy", Some(40));
        let v = Value::parse(&p).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("code").unwrap().as_str(), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").unwrap().as_i64(), Some(40));
        let p = error_payload(ErrorCode::Internal, "boom", None);
        assert!(Value::parse(&p).unwrap().get("retry_after_ms").is_none());
    }

    #[test]
    fn build_query_caps_the_predicate_count() {
        let mut q = QueryRequest::new("dblp", "inproceedings");
        // split across the four predicate kinds: the limit counts them all
        for i in 0..MAX_PREDICATES {
            let preds = match i % 4 {
                0 => &mut q.eq,
                1 => &mut q.contains,
                2 => &mut q.similar,
                _ => &mut q.below,
            };
            preds.push(("author".into(), format!("a{i}")));
        }
        build_query(&q).expect("the limit itself is accepted");
        q.eq.push(("author".into(), "one too many".into()));
        let err = build_query(&q).expect_err("limit + 1 is refused");
        assert_eq!(error_code_of(&err), ErrorCode::BadRequest);
        assert_eq!(
            err.to_string(),
            "unsupported query shape: 65 predicates exceed the limit of 64"
        );
    }
}
