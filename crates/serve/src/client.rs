//! `toss-client` — the client side of the protocol: one typed call per
//! verb, and typed errors that keep the server's error code and its
//! `retry_after_ms` hint. A caller that retries a write resends
//! [`Client::write_keyed`] with the same key, which the server's dedupe
//! table answers with the original ack.

use crate::budget::BudgetClass;
use crate::protocol::{
    read_frame, record_from_value, u64_or_zero, write_frame, ErrorCode, FrameError,
    QueryRequest, Request, WriteOp, WriteRequest, DEFAULT_MAX_FRAME_BYTES,
};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use toss_json::Value;
use toss_obs::QueryRecord;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure (connect, frame I/O, timeout).
    Io(io::Error),
    /// The server closed or sent something unintelligible.
    Protocol(String),
    /// A typed error response from the server.
    Server {
        /// The machine-readable code.
        code: ErrorCode,
        /// Human-readable cause.
        message: String,
        /// The server's suggested retry delay, if any.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server { code, message, .. } => {
                write!(f, "server error [{}]: {message}", code.as_str())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The parsed `ok` response to a `query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// The server-assigned query id — joins this reply to its
    /// flight-recorder entry (`slow` frame) and trace spans.
    pub query_id: u64,
    /// Total matching witness trees.
    pub answers: usize,
    /// How many serialized trees the response carries (≤ `max_results`).
    pub returned: usize,
    /// The compiled XPath the server ran.
    pub xpath: String,
    /// Degradation notice when a soft budget truncated the result.
    pub degraded: Option<String>,
    /// Serialized witness trees.
    pub results: Vec<String>,
    /// Server-side wall time in microseconds.
    pub server_us: u64,
}

/// The parsed `ok` response to a mutation frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReply {
    /// The server-assigned query id of the write.
    pub query_id: u64,
    /// The journal sequence number the mutation fsynced under.
    pub seq: u64,
    /// The assigned document id (inserts only).
    pub doc_id: Option<u64>,
    /// Whether the server collapsed this send onto a previously
    /// acknowledged write with the same idempotency key (i.e. this was
    /// a retry whose original ack was lost).
    pub deduped: bool,
    /// How many mutations shared this write's group-commit fsync.
    pub batch_size: u64,
    /// Duration of that fsynced batch append, nanoseconds.
    pub fsync_ns: u64,
    /// Server-side wall time in microseconds.
    pub server_us: u64,
}

/// The write-path block of the `stats` admin frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Whether this server has a write path at all.
    pub writable: bool,
    /// Whether it is currently read-only degraded.
    pub degraded: bool,
    /// The degradation reason ("" when healthy).
    pub reason: String,
    /// The executor revision (bumps once per applied batch).
    pub revision: u64,
    /// Mutations applied since start.
    pub applied: u64,
    /// Idempotency-key dedupe hits since start.
    pub deduped: u64,
    /// Writes rejected by validation since start.
    pub rejected: u64,
    /// Group-commit batches fsynced since start.
    pub batches: u64,
    /// Checkpoints completed since start.
    pub checkpoints: u64,
    /// Duration of the most recent batch fsync, nanoseconds.
    pub last_fsync_ns: u64,
    /// Highest acknowledged journal sequence number.
    pub last_seq: u64,
}

/// One budget class's windowed SLO figures, as returned by the `stats`
/// admin frame (mirrors the `toss.serve.window.<class>.*` gauges).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Requests completed inside the window.
    pub requests: u64,
    /// Failed requests inside the window.
    pub errors: u64,
    /// Requests shed by admission control inside the window.
    pub shed: u64,
    /// Windowed median latency, nanoseconds.
    pub p50_ns: u64,
    /// Windowed p95 latency, nanoseconds.
    pub p95_ns: u64,
    /// Windowed p99 latency, nanoseconds.
    pub p99_ns: u64,
    /// Error rate in basis points (1/10000).
    pub error_rate_bps: u64,
    /// Shed rate in basis points (1/10000).
    pub shed_rate_bps: u64,
    /// The span the window covers, milliseconds.
    pub window_ms: u64,
}

/// The parsed `stats` admin response.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// Server uptime, milliseconds.
    pub uptime_ms: u64,
    /// Queries executing right now.
    pub inflight: u64,
    /// Connections currently open.
    pub connections: u64,
    /// Per-class windows, in the server's (shed-first) class order.
    pub windows: Vec<(String, WindowStats)>,
    /// Flight-recorder entries pushed since start.
    pub flight_recorded: u64,
    /// Flight-recorder entries currently retained.
    pub flight_retained: u64,
    /// Flight-recorder ring capacity.
    pub flight_capacity: u64,
    /// The write path's state and counters.
    pub write: WriteStats,
}

impl StatsReply {
    /// Look up one class's window by wire name (`interactive`, …).
    pub fn window(&self, class: &str) -> Option<&WindowStats> {
        self.windows.iter().find(|(c, _)| c == class).map(|(_, w)| w)
    }
}

/// The client's I/O timeout: longer than every budget-class deadline,
/// so slow-but-progressing batch queries are not abandoned by their own
/// client.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A connected client. One request/response at a time per client; open
/// several clients for concurrency.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect, with a 60 s I/O timeout.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Client { stream })
    }

    /// Send one request and read its response value.
    pub(crate) fn call(&mut self, req: &Request) -> Result<Value, ClientError> {
        write_frame(&mut self.stream, req.to_payload().as_bytes())?;
        let payload = match read_frame(
            &mut self.stream,
            DEFAULT_MAX_FRAME_BYTES,
            Some(IO_TIMEOUT),
        ) {
            Ok(p) => p,
            Err(FrameError::Io(e)) => return Err(ClientError::Io(e)),
            Err(FrameError::Timeout) => {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "response timed out",
                )))
            }
            Err(e) => return Err(ClientError::Protocol(e.to_string())),
        };
        let text = std::str::from_utf8(&payload)
            .map_err(|_| ClientError::Protocol("response is not UTF-8".into()))?;
        let v = Value::parse(text).map_err(|e| ClientError::Protocol(e.to_string()))?;
        match v.get("status").and_then(Value::as_str) {
            Some("ok") => Ok(v),
            Some("error") => {
                let code = v
                    .get("code")
                    .and_then(Value::as_str)
                    .and_then(ErrorCode::parse)
                    .unwrap_or(ErrorCode::Internal);
                Err(ClientError::Server {
                    code,
                    message: v
                        .get("message")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    retry_after_ms: v
                        .get("retry_after_ms")
                        .and_then(Value::as_i64)
                        .and_then(|n| u64::try_from(n).ok()),
                })
            }
            _ => Err(ClientError::Protocol("response has no status".into())),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Ping).map(|_| ())
    }

    /// Fetch the server's Prometheus-text metrics export.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let v = self.call(&Request::Metrics)?;
        v.get("metrics")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics response lacks text".into()))
    }

    /// Fetch the structured admin snapshot: per-class windowed SLO
    /// figures, in-flight/connection gauges, flight-recorder occupancy.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        let v = self.call(&Request::Stats)?;
        let u = u64_or_zero;
        let windows = match v.get("windows") {
            Some(Value::Object(fields)) => fields
                .iter()
                .map(|(name, w)| {
                    (
                        name.clone(),
                        WindowStats {
                            requests: u(w, "requests"),
                            errors: u(w, "errors"),
                            shed: u(w, "shed"),
                            p50_ns: u(w, "p50_ns"),
                            p95_ns: u(w, "p95_ns"),
                            p99_ns: u(w, "p99_ns"),
                            error_rate_bps: u(w, "error_rate_bps"),
                            shed_rate_bps: u(w, "shed_rate_bps"),
                            window_ms: u(w, "window_ms"),
                        },
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        let flight = v.get("flight");
        let fu = |key: &str| flight.map_or(0, |f| u(f, key));
        let write = match v.get("write") {
            Some(wv) => WriteStats {
                writable: matches!(wv.get("writable"), Some(Value::Bool(true))),
                degraded: matches!(wv.get("degraded"), Some(Value::Bool(true))),
                reason: wv
                    .get("reason")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                revision: u(wv, "revision"),
                applied: u(wv, "applied"),
                deduped: u(wv, "deduped"),
                rejected: u(wv, "rejected"),
                batches: u(wv, "batches"),
                checkpoints: u(wv, "checkpoints"),
                last_fsync_ns: u(wv, "last_fsync_ns"),
                last_seq: u(wv, "last_seq"),
            },
            None => WriteStats::default(),
        };
        Ok(StatsReply {
            uptime_ms: u(&v, "uptime_ms"),
            inflight: u(&v, "inflight"),
            connections: u(&v, "connections"),
            windows,
            flight_recorded: fu("recorded"),
            flight_retained: fu("retained"),
            flight_capacity: fu("capacity"),
            write,
        })
    }

    /// Fetch recent flight-recorder entries, newest first, optionally
    /// filtered to one budget class.
    pub fn slow(
        &mut self,
        limit: usize,
        class: Option<BudgetClass>,
    ) -> Result<Vec<QueryRecord>, ClientError> {
        let v = self.call(&Request::Slow { limit, class })?;
        let entries = v
            .get("queries")
            .and_then(Value::as_array)
            .ok_or_else(|| ClientError::Protocol("slow response lacks queries".into()))?;
        Ok(entries.iter().filter_map(record_from_value).collect())
    }

    /// Request graceful server shutdown (only honored when the server
    /// enables the verb).
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.call(&Request::Shutdown).map(|_| ())
    }

    /// Run one query.
    pub fn query(&mut self, q: QueryRequest) -> Result<QueryReply, ClientError> {
        let v = self.call(&Request::Query(Box::new(q)))?;
        let results = v
            .get("results")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        Ok(QueryReply {
            query_id: u64_or_zero(&v, "query_id"),
            answers: u64_or_zero(&v, "answers") as usize,
            returned: results.len(),
            xpath: v
                .get("xpath")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string(),
            degraded: v
                .get("degraded")
                .and_then(Value::as_str)
                .map(str::to_string),
            results,
            server_us: u64_or_zero(&v, "server_us"),
        })
    }

    /// Send one mutation under an explicit idempotency key. Reusing the
    /// same key on a resend is what makes write retries safe: the
    /// server's dedupe table collapses the replay onto the original
    /// ack (`deduped: true`) instead of applying it twice.
    pub fn write_keyed(
        &mut self,
        op: WriteOp,
        class: BudgetClass,
        key: &str,
    ) -> Result<WriteReply, ClientError> {
        let v = self.call(&Request::Write(Box::new(WriteRequest {
            op,
            key: key.to_string(),
            class,
        })))?;
        let u = |k: &str| u64_or_zero(&v, k);
        Ok(WriteReply {
            query_id: u("query_id"),
            seq: u("seq"),
            doc_id: v
                .get("doc_id")
                .and_then(Value::as_i64)
                .and_then(|n| u64::try_from(n).ok()),
            deduped: matches!(v.get("deduped"), Some(Value::Bool(true))),
            batch_size: u("batch_size"),
            fsync_ns: u("fsync_ns"),
            server_us: u("server_us"),
        })
    }

    /// Ask the server to checkpoint now: snapshot, verify, fold the
    /// journal. Returns how many journal records were folded away.
    pub fn checkpoint(&mut self) -> Result<u64, ClientError> {
        let v = self.call(&Request::Write(Box::new(WriteRequest {
            op: WriteOp::Checkpoint,
            key: String::new(),
            class: BudgetClass::Batch,
        })))?;
        Ok(u64_or_zero(&v, "folded"))
    }
}

/// Generate a process-unique idempotency key: a per-process random
/// prefix (wall-clock seeded) plus a monotone counter. Uniqueness
/// across processes matters only probabilistically — a collision just
/// risks one spurious dedupe within the server's bounded key window.
pub fn next_write_key() -> String {
    static SEED: AtomicU64 = AtomicU64::new(0);
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let mut seed = SEED.load(Ordering::Relaxed);
    if seed == 0 {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15);
        let pid = std::process::id() as u64;
        let mut s = t ^ pid.rotate_left(32) ^ 0x2545f4914f6cdd1d;
        // splatter the bits so similar clocks still diverge
        s ^= s >> 33;
        s = s.wrapping_mul(0xff51afd7ed558ccd);
        s ^= s >> 33;
        if s == 0 {
            s = 1;
        }
        // first writer wins; everyone re-reads the published seed
        let _ = SEED.compare_exchange(0, s, Ordering::Relaxed, Ordering::Relaxed);
        seed = SEED.load(Ordering::Relaxed);
    }
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("wk-{seed:016x}-{n}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_keys_are_unique_and_stable_prefix() {
        let a = next_write_key();
        let b = next_write_key();
        assert_ne!(a, b, "each generated key must be fresh");
        assert!(a.starts_with("wk-") && b.starts_with("wk-"));
        // same process prefix — the counter is what varies
        assert_eq!(&a[..20], &b[..20]);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(next_write_key()), "key collision");
        }
    }

}
