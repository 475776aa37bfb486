//! The serving loop: thread-per-connection TCP front-end over a
//! [`Service`]. The server owns framing, connection limits, drain and
//! payload encoding; the [`Service`] runs each query.
//!
//! ## Robustness contract
//!
//! * **Backpressure, never unbounded queueing.** Connections above
//!   `max_connections` get one `overloaded` error frame (with a
//!   `retry_after_ms` hint) and a close; queries past the admission
//!   controller's queue-wait ceiling get an `overloaded` frame on a
//!   *live* connection. Nothing waits forever and nothing hangs.
//! * **Deadlines everywhere.** Every query runs under a hard class
//!   deadline; sockets carry read/write timeouts plus a whole-frame
//!   read deadline, so a slow-loris peer (trickling bytes) or a stalled
//!   reader (never draining its responses) is disconnected instead of
//!   pinning a thread.
//! * **Panic isolation.** Query panics are caught inside
//!   [`toss_core::AdmissionController::run_with_wait`] and surface as an `internal` error **frame** — the connection
//!   survives, the server survives.
//! * **No partial frames.** A response is written with a single
//!   `write_all`; drain kills only the *read* half of sockets, so a
//!   response in flight always completes (or fails whole on a dead
//!   peer).
//! * **Graceful drain.** [`Server::shutdown`] stops accepting, lets
//!   in-flight queries run up to the drain deadline, then cancels
//!   stragglers through their [`CancelToken`]s, and only force-closes
//!   sockets as a last resort. The report says which of those happened.
//!
//! Metrics: `toss.serve.*` (see `docs/serving.md` and
//! `docs/observability.md`).

use crate::budget::BudgetClass;
use crate::protocol::{
    error_payload, ok_payload, read_frame, write_frame, ErrorCode, FrameError, QueryRequest,
    Request, WriteRequest, DEFAULT_MAX_FRAME_BYTES,
};
use crate::service::{Door, Service};
use crate::write::{write_record, WriteEngine, WriteJob, WriteResult, WriteState, WriterLoop};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use toss_core::{CancelToken, Executor};
use toss_json::Value;
use toss_obs::{QueryId, QueryOutcomeKind, WindowSnapshot};
use toss_tree::serialize::{tree_to_xml, Style};

/// Tunables for a [`Server`]. The defaults are sized for a small
/// multi-tenant box; every test overrides what it probes.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection ceiling; excess connections are told `overloaded` and
    /// closed immediately.
    pub max_connections: usize,
    /// Concurrent query slots (the admission controller's width).
    pub max_concurrent_queries: usize,
    /// How long a query may wait for a slot before it is shed.
    pub max_queue_wait: Duration,
    /// Socket read timeout; also the idle keep-alive ceiling and the
    /// whole-frame read deadline (slow-loris kill).
    pub read_timeout: Duration,
    /// Socket write timeout (stalled-reader kill).
    pub write_timeout: Duration,
    /// How long [`Server::shutdown`] waits for in-flight queries before
    /// cancelling them.
    pub drain_deadline: Duration,
    /// Ceiling on a single request frame.
    pub max_frame_bytes: usize,
    /// Honor the `shutdown` protocol verb (off by default: a remote
    /// peer should not be able to stop the server unless deployment
    /// explicitly wires that up).
    pub allow_shutdown_verb: bool,
    /// Flight-recorder capacity: how many completed queries the `slow`
    /// admin frame can look back over.
    pub flight_capacity: usize,
    /// Slow-query JSON-lines log path; `None` disables the log.
    pub slow_query_log: Option<PathBuf>,
    /// Queries slower than this (or shed/failed/degraded ones) are
    /// always written to the slow-query log.
    pub slow_threshold: Duration,
    /// Additionally sample 1 in N healthy fast queries into the log
    /// (0 = only slow/failed ones), keeping log volume bounded.
    pub slow_sample_every: u64,
    /// Length of one SLO window bucket.
    pub window_bucket: Duration,
    /// Number of window buckets (windowed gauges cover
    /// `window_bucket × window_buckets` of trailing traffic).
    pub window_buckets: usize,
}

/// Depth of the writer thread's mutation queue; frames past it are shed
/// with `overloaded` instead of queueing unboundedly.
const WRITE_QUEUE_DEPTH: usize = 256;

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 256,
            max_concurrent_queries: 8,
            max_queue_wait: Duration::from_millis(100),
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            allow_shutdown_verb: false,
            flight_capacity: 512,
            slow_query_log: None,
            slow_threshold: Duration::from_millis(250),
            slow_sample_every: 128,
            window_bucket: Duration::from_secs(1),
            window_buckets: 10,
        }
    }
}

/// What [`Server::shutdown`] observed while draining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// In-flight queries that completed within the drain deadline.
    pub drained: usize,
    /// Queries still running at the deadline whose tokens were tripped.
    pub cancelled: usize,
    /// Sockets force-closed because their thread did not exit in the
    /// post-cancel grace period.
    pub forced_closes: usize,
    /// Wall time the whole drain took.
    pub duration: Duration,
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

/// Per-connection registry entry: a second handle on the socket (for
/// read-half drain and last-resort close) plus the in-flight query's
/// cancel token, if any.
struct ConnEntry {
    stream: TcpStream,
    token: Mutex<Option<CancelToken>>,
}

struct Shared {
    cfg: ServerConfig,
    /// The query path: executor, admission and query telemetry.
    service: Arc<Service>,
    /// Mutation queue into the writer thread; `None` on read-only
    /// servers, and taken (dropped) during drain so the writer exits
    /// after committing what was already enqueued.
    write_tx: Mutex<Option<mpsc::SyncSender<WriteJob>>>,
    /// Observable writer state (`None` on read-only servers).
    write_state: Option<Arc<WriteState>>,
    state: AtomicU8,
    shutdown_requested: AtomicBool,
    conns: Mutex<HashMap<u64, Arc<ConnEntry>>>,
    next_conn: AtomicU64,
    inflight: AtomicUsize,
    /// Notified whenever a connection unregisters or a query finishes;
    /// the drain loop and `wait_for_shutdown` sleep on it.
    change: Condvar,
    change_lock: Mutex<()>,
    started: Instant,
}

impl Shared {
    /// Refresh `toss.serve.degraded` (when writable) and the service's
    /// window gauges, and return the window snapshots; the `metrics` and
    /// `stats` frames call this just before they export.
    fn publish_gauges(&self) -> Vec<(BudgetClass, WindowSnapshot)> {
        if let Some(st) = &self.write_state {
            toss_obs::metrics::gauge("toss.serve.degraded").set(st.is_degraded() as i64);
        }
        self.service.publish_gauges()
    }

    fn state(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    fn notify(&self) {
        let _g = self.change_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.change.notify_all();
    }

    /// Block until `done()` or the deadline; returns whether `done()`.
    fn wait_until(&self, deadline: Instant, done: impl Fn() -> bool) -> bool {
        let mut guard = self.change_lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if done() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return done();
            }
            let (g, _) = self
                .change
                .wait_timeout(guard, (deadline - now).min(Duration::from_millis(50)))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }

    /// Count a request in flight, so a drain waits for it.
    fn begin(&self) {
        self.inflight.fetch_add(1, Ordering::AcqRel);
        toss_obs::metrics::gauge("toss.serve.inflight").inc();
    }

    /// Count a request out again and wake a waiting drain.
    fn end(&self) {
        self.inflight.fetch_sub(1, Ordering::AcqRel);
        toss_obs::metrics::gauge("toss.serve.inflight").dec();
        self.notify();
    }

    fn conn_count(&self) -> usize {
        self.conns.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The `retry_after_ms` hint for shed work: the queue-wait ceiling
    /// (after that long, a slot has either freed or the box is still
    /// saturated and the client should back off further on its own).
    fn retry_after_ms(&self) -> u64 {
        self.cfg.max_queue_wait.as_millis().max(10) as u64
    }

    /// The retry hint for work a drain refused or cancelled: the drain
    /// window, after which a replacement should be up.
    fn drain_hint_ms(&self) -> u64 {
        self.cfg.drain_deadline.as_millis().max(10) as u64
    }
}

/// A running server: accept loop + per-connection threads.
///
/// Start with [`Server::start`], stop with [`Server::shutdown`] (drains)
/// — or let a client's `shutdown` verb / another thread holding a
/// [`ShutdownHandle`] request it and call [`Server::serve_until_shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
    writer_thread: Option<thread::JoinHandle<()>>,
}

/// A cloneable handle that can request (not perform) shutdown from
/// another thread — e.g. a CLI signal/stdin watcher.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Request graceful shutdown; `serve_until_shutdown` picks it up.
    pub fn request_shutdown(&self) {
        self.shared.shutdown_requested.store(true, Ordering::Release);
        self.shared.notify();
    }
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `executor` under `cfg`, **read-only** (mutation frames get a
    /// typed `bad_request`; use [`Server::start_writable`] for the live
    /// write path).
    pub fn start(
        executor: Arc<RwLock<Executor>>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        Server::start_inner(executor, None, addr, cfg)
    }

    /// Bind `addr` and start serving with the live write path enabled:
    /// mutation frames flow through `engine`'s single writer thread
    /// (group-commit WAL, idempotency dedupe, background checkpoints,
    /// read-only degradation on persistent journal faults).
    pub fn start_writable(
        executor: Arc<RwLock<Executor>>,
        engine: WriteEngine,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        Server::start_inner(executor, Some(engine), addr, cfg)
    }

    fn start_inner(
        executor: Arc<RwLock<Executor>>,
        engine: Option<WriteEngine>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        // Nonblocking accept + poll: the accept loop must notice a
        // drain request even when no client ever connects again.
        listener.set_nonblocking(true)?;
        let service = Arc::new(Service::new(executor, &cfg)?);
        let (write_tx, write_state, writer) = match engine {
            Some(engine) => {
                let (tx, rx) = mpsc::sync_channel(WRITE_QUEUE_DEPTH);
                let state = Arc::new(WriteState::default());
                let writer = WriterLoop::new(engine, service.clone(), state.clone());
                (Some(tx), Some(state), Some((writer, rx)))
            }
            None => (None, None, None),
        };
        let shared = Arc::new(Shared {
            cfg,
            service,
            write_tx: Mutex::new(write_tx),
            write_state,
            state: AtomicU8::new(STATE_RUNNING),
            shutdown_requested: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            change: Condvar::new(),
            change_lock: Mutex::new(()),
            started: Instant::now(),
        });
        // Publish the windowed gauges (as zeros) up front so scrapes of
        // an idle server already see the full gauge set.
        shared.publish_gauges();
        let writer_thread = writer
            .map(|(writer, rx)| {
                thread::Builder::new()
                    .name("toss-serve-writer".into())
                    .spawn(move || writer.run(rx))
            })
            .transpose()?;
        let accept_shared = shared.clone();
        let accept_thread = thread::Builder::new()
            .name("toss-serve-accept".into())
            .spawn(move || accept_loop(accept_shared, listener))?;
        Ok(Server {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
            writer_thread,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently registered.
    pub fn connections(&self) -> usize {
        self.shared.conn_count()
    }

    /// Queries currently executing.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::Acquire)
    }

    /// A handle other threads can use to request shutdown.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: self.shared.clone(),
        }
    }

    /// Block until some [`ShutdownHandle`] (or the `shutdown` verb)
    /// requests shutdown, then drain and return the report.
    pub fn serve_until_shutdown(self) -> DrainReport {
        let sh = &self.shared;
        let requested = || sh.shutdown_requested.load(Ordering::Acquire);
        while !sh.wait_until(Instant::now() + Duration::from_secs(60), requested) {}
        self.shutdown()
    }

    /// Graceful shutdown: stop accepting, drain in-flight queries up to
    /// the drain deadline, cancel stragglers, force-close only what is
    /// left after a grace period. Idempotent with respect to a prior
    /// `shutdown` verb (the drain runs once, here).
    pub fn shutdown(mut self) -> DrainReport {
        let t0 = Instant::now();
        let drain_span = toss_obs::span("toss.serve.drain");
        let sh = &self.shared;
        let inflight_at_start = sh.inflight.load(Ordering::Acquire);
        sh.shutdown_requested.store(true, Ordering::Release);
        sh.state.store(STATE_DRAINING, Ordering::Release);
        sh.notify();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join(); // polls every 10 ms; prompt
        }

        // Kill the READ half of every registered socket: idle
        // connection threads wake with a clean EOF and exit; a thread
        // mid-query keeps its WRITE half, so its response still goes
        // out whole. New requests can no longer arrive.
        for entry in sh.conns.lock().unwrap_or_else(|e| e.into_inner()).values() {
            let _ = entry.stream.shutdown(Shutdown::Read);
        }

        // Phase 1: wait for in-flight queries up to the drain deadline.
        let deadline = t0 + sh.cfg.drain_deadline;
        sh.wait_until(deadline, || sh.inflight.load(Ordering::Acquire) == 0);

        // Stop the write path: new mutations were already refused once
        // the state left RUNNING; dropping the queue's sender lets the
        // writer thread commit and ack everything already enqueued,
        // then exit. Join it so every acknowledged write is fsynced
        // before the drain report returns.
        *sh.write_tx.lock().unwrap_or_else(|e| e.into_inner()) = None;
        if let Some(t) = self.writer_thread.take() {
            let _ = t.join();
        }

        // Phase 2: cancel stragglers through their tokens.
        let mut cancelled = 0usize;
        for entry in sh.conns.lock().unwrap_or_else(|e| e.into_inner()).values() {
            if let Some(tok) = entry
                .token
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .as_ref()
            {
                tok.cancel();
                cancelled += 1;
            }
        }
        if cancelled > 0 {
            toss_obs::metrics::counter("toss.serve.drain.cancelled").add(cancelled as u64);
        }

        // Phase 3: grace period for cancelled queries to observe the
        // token, write their `cancelled` frame whole, and unregister.
        let grace = Instant::now() + sh.cfg.drain_deadline.max(Duration::from_millis(250));
        sh.wait_until(grace, || sh.conn_count() == 0);

        // Phase 4: last resort — close whatever is left outright.
        let leftover: Vec<Arc<ConnEntry>> = sh
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        let forced_closes = leftover.len();
        for entry in &leftover {
            let _ = entry.stream.shutdown(Shutdown::Both);
        }
        if forced_closes > 0 {
            toss_obs::metrics::counter("toss.serve.drain.forced_closes")
                .add(forced_closes as u64);
            sh.wait_until(Instant::now() + Duration::from_millis(500), || {
                sh.conn_count() == 0
            });
        }

        // Nobody can ask for `metrics`/`stats` any more: leave this
        // server's gauges as of the drain for whoever exports the registry next
        // (`toss-cli serve` persists it to `<store>.stats.json` on exit).
        sh.publish_gauges();
        sh.state.store(STATE_STOPPED, Ordering::Release);
        let duration = t0.elapsed();
        drain_span.record("cancelled", cancelled);
        drain_span.record("forced_closes", forced_closes);
        drop(drain_span);
        toss_obs::metrics::histogram("toss.serve.drain_ns").observe_duration(duration);
        DrainReport {
            drained: inflight_at_start.saturating_sub(cancelled),
            cancelled,
            forced_closes,
            duration,
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.state() != STATE_RUNNING
            || shared.shutdown_requested.load(Ordering::Acquire)
        {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => on_accept(&shared, stream),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn on_accept(shared: &Arc<Shared>, stream: TcpStream) {
    toss_obs::metrics::counter("toss.serve.conns_accepted").inc();
    // Accepted sockets must be blocking regardless of what the
    // (nonblocking) listener hands us on any platform.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));

    // Connection backpressure: over the ceiling, the peer gets one
    // typed `overloaded` frame and a close instead of a silent hang.
    if shared.conn_count() >= shared.cfg.max_connections {
        toss_obs::metrics::counter("toss.serve.conns_rejected").inc();
        ErrorCode::Overloaded.count();
        let mut s = stream;
        let _ = write_frame(
            &mut s,
            error_payload(
                ErrorCode::Overloaded,
                "connection limit reached",
                Some(shared.retry_after_ms()),
            )
            .as_bytes(),
        );
        return; // dropped => closed
    }

    let Ok(registry_handle) = stream.try_clone() else {
        return; // cannot track it for drain: refuse rather than leak
    };
    let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    let entry = Arc::new(ConnEntry {
        stream: registry_handle,
        token: Mutex::new(None),
    });
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(id, entry.clone());
    toss_obs::metrics::gauge("toss.serve.connections_active").inc();

    let conn_shared = shared.clone();
    let spawned = thread::Builder::new()
        .name(format!("toss-serve-conn-{id}"))
        .spawn(move || {
            conn_loop(&conn_shared, stream, &entry);
            conn_shared
                .conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&id);
            toss_obs::metrics::gauge("toss.serve.connections_active").dec();
            conn_shared.notify();
        });
    if spawned.is_err() {
        // could not spawn: unregister and drop the socket
        shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id);
        toss_obs::metrics::gauge("toss.serve.connections_active").dec();
    }
}

fn conn_loop(shared: &Arc<Shared>, mut stream: TcpStream, entry: &Arc<ConnEntry>) {
    loop {
        let payload = match read_frame(
            &mut stream,
            shared.cfg.max_frame_bytes,
            Some(shared.cfg.read_timeout),
        ) {
            Ok(p) => p,
            Err(FrameError::Closed) => break,
            Err(FrameError::HalfFrame) => {
                toss_obs::metrics::counter("toss.serve.faults.half_frame").inc();
                break;
            }
            Err(FrameError::Timeout) => {
                toss_obs::metrics::counter("toss.serve.faults.read_timeout").inc();
                break;
            }
            Err(FrameError::Oversize(n)) => {
                toss_obs::metrics::counter("toss.serve.faults.oversize").inc();
                // tell the peer why before hanging up (best effort)
                let reason = if n == 0 {
                    "frame is empty: a request needs a JSON payload".to_string()
                } else {
                    format!(
                        "frame of {n} bytes exceeds the {} byte limit",
                        shared.cfg.max_frame_bytes
                    )
                };
                let _ = write_frame(
                    &mut stream,
                    error_payload(ErrorCode::BadRequest, &reason, None).as_bytes(),
                );
                break;
            }
            Err(FrameError::Io(_)) => {
                toss_obs::metrics::counter("toss.serve.faults.io").inc();
                break;
            }
        };

        let reply = handle_payload(shared, entry, &payload);
        if write_frame(&mut stream, reply.as_bytes()).is_err() {
            // stalled reader / dead peer: the write timeout fired or
            // the connection reset. Close; never retry a partial frame.
            toss_obs::metrics::counter("toss.serve.faults.write_failed").inc();
            break;
        }
    }
}

/// Parse and dispatch one request payload; always returns a whole
/// response payload (this function must never panic — query panics are
/// isolated further down, parse errors are typed frames).
fn handle_payload(shared: &Arc<Shared>, entry: &Arc<ConnEntry>, payload: &[u8]) -> String {
    toss_obs::metrics::counter("toss.serve.requests").inc();
    let req = match Request::parse(payload) {
        Ok(r) => r,
        Err(msg) => {
            ErrorCode::BadRequest.count();
            return error_payload(ErrorCode::BadRequest, &msg, None);
        }
    };
    match req {
        Request::Ping => ok_payload(vec![(
            "verb".into(),
            Value::Str("ping".into()),
        )]),
        Request::Metrics => {
            // refresh this server's gauges so the export is current
            shared.publish_gauges();
            ok_payload(vec![(
                "metrics".into(),
                Value::Str(toss_obs::metrics::snapshot().to_prometheus()),
            )])
        }
        Request::Stats => stats_payload(shared),
        Request::Slow { limit, class } => slow_payload(shared, limit, class),
        Request::Shutdown => {
            if shared.cfg.allow_shutdown_verb {
                shared.shutdown_requested.store(true, Ordering::Release);
                shared.notify();
                ok_payload(vec![("verb".into(), Value::Str("shutdown".into()))])
            } else {
                error_payload(
                    ErrorCode::BadRequest,
                    "shutdown verb not enabled on this server",
                    None,
                )
            }
        }
        Request::Query(q) => handle_query(shared, entry, &q),
        Request::Write(w) => handle_write(shared, &w),
    }
}

/// Dispatch one mutation frame into the writer thread's group-commit
/// queue and block (bounded by the class deadline) for its fsynced ack.
fn handle_write(shared: &Arc<Shared>, w: &WriteRequest) -> String {
    let qid = QueryId::next();
    let _ctx = toss_obs::set_current_query(qid);
    let started = Instant::now();
    // An answer the writer never gives (draining, degraded, oversize,
    // shed, a writer gone): its telemetry is stamped here.
    let reject = |code: ErrorCode, message: &str, retry: Option<u64>| {
        code.count();
        let mut rec = write_record(qid.0, w.class, &w.op, started.elapsed());
        rec.outcome = QueryOutcomeKind::Error;
        rec.cause = code.as_str().to_string();
        shared.service.record(w.class, rec);
        error_payload(code, message, retry)
    };

    let Some(state) = &shared.write_state else {
        ErrorCode::BadRequest.count();
        return error_payload(
            ErrorCode::BadRequest,
            "this server is read-only: no write path is configured",
            None,
        );
    };
    if shared.state() != STATE_RUNNING {
        let hint = Some(shared.drain_hint_ms());
        return reject(ErrorCode::ShuttingDown, "server is draining", hint);
    }
    // Read-only degraded mode: reject at ingress with the reason and a
    // retry hint. Reads keep flowing; the writer thread's probe loop
    // clears the flag once the journal is healthy again.
    if state.is_degraded() {
        let message = format!("server is read-only: {}", state.degraded_reason());
        return reject(ErrorCode::Degraded, &message, Some(500));
    }
    // The class's write-size ceiling (cheap pre-admission check; the
    // batch validator still owns semantic validation).
    let bytes = w.op.payload_bytes();
    if bytes > w.class.max_write_bytes() {
        let message = format!(
            "write of {bytes} bytes exceeds the {} byte ceiling of class `{}`",
            w.class.max_write_bytes(),
            w.class.as_str()
        );
        return reject(ErrorCode::BadRequest, &message, None);
    }

    let (reply_tx, reply_rx) = mpsc::sync_channel(1);
    let job = WriteJob {
        op: w.op.clone(),
        key: w.key.clone(),
        class: w.class,
        query_id: qid.0,
        enqueued: started,
        reply: reply_tx,
    };
    // `None`: the drain took the queue; `Some(Err(full))`: refused
    let sent = shared
        .write_tx
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map(|tx| tx.try_send(job).map_err(|e| matches!(e, mpsc::TrySendError::Full(_))));
    match sent {
        Some(Ok(())) => {}
        Some(Err(true)) => {
            toss_obs::metrics::counter("toss.serve.write.shed").inc();
            let hint = Some(shared.retry_after_ms());
            return reject(ErrorCode::Overloaded, "write queue is full", hint);
        }
        // The writer dropped its queue while the server still runs: it
        // is gone, and a retry cannot bring it back.
        Some(Err(false)) => {
            return reject(ErrorCode::Internal, "the writer has stopped", None);
        }
        None => {
            let hint = Some(shared.drain_hint_ms());
            return reject(ErrorCode::ShuttingDown, "server is draining", hint);
        }
    }

    // Count ourselves in flight so drain waits for the pending ack.
    shared.begin();
    let outcome = reply_rx.recv_timeout(w.class.max_deadline());
    shared.end();
    let elapsed = started.elapsed();
    toss_obs::metrics::histogram("toss.serve.request_ns").observe_duration(elapsed);

    match outcome {
        Ok(WriteResult::Applied {
            seq,
            doc_id,
            deduped,
            batch_size,
            fsync_ns,
        }) => ok_payload(vec![
            ("query_id".into(), Value::Int(qid.0 as i64)),
            ("verb".into(), Value::Str(w.op.verb().into())),
            ("seq".into(), Value::Int(seq as i64)),
            (
                "doc_id".into(),
                match doc_id {
                    Some(id) => Value::Int(id as i64),
                    None => Value::Null,
                },
            ),
            ("deduped".into(), Value::Bool(deduped)),
            ("batch_size".into(), Value::Int(batch_size as i64)),
            ("fsync_ns".into(), Value::Int(fsync_ns as i64)),
            ("server_us".into(), Value::Int(elapsed.as_micros() as i64)),
        ]),
        Ok(WriteResult::CheckpointDone { folded }) => ok_payload(vec![
            ("query_id".into(), Value::Int(qid.0 as i64)),
            ("verb".into(), Value::Str("checkpoint".into())),
            ("folded".into(), Value::Int(folded as i64)),
            ("server_us".into(), Value::Int(elapsed.as_micros() as i64)),
        ]),
        Ok(WriteResult::Failed {
            code,
            message,
            retry_after_ms,
        }) => {
            code.count();
            error_payload(code, &message, retry_after_ms)
        }
        // The ack did not arrive inside the class deadline. The write
        // may still commit — that is exactly what the idempotency key
        // is for: the client retries with the same key and either gets
        // the deduped original outcome or a fresh apply. The answer is
        // counted here; the writer still stamps the job's one flight
        // record when it gets to it.
        Err(mpsc::RecvTimeoutError::Timeout) => {
            ErrorCode::Overloaded.count();
            error_payload(
                ErrorCode::Overloaded,
                "write ack timed out; retry with the same idempotency key",
                Some(shared.retry_after_ms()),
            )
        }
        // The writer dropped the job's reply without answering (a writer
        // that panicked, say): it will stamp no record, and a retry
        // cannot fix the cause.
        Err(mpsc::RecvTimeoutError::Disconnected) => reject(
            ErrorCode::Internal,
            "the writer stopped without answering",
            None,
        ),
    }
}

/// One connection's side of a query: the drain check, the cancel token
/// the drain trips, and the in-flight count the drain waits on.
struct ConnDoor<'a> {
    shared: &'a Shared,
    entry: &'a ConnEntry,
}

impl Door for ConnDoor<'_> {
    fn open(&self) -> bool {
        self.shared.state() == STATE_RUNNING
    }

    fn enter(&self, token: CancelToken) {
        *self.entry.token.lock().unwrap_or_else(|e| e.into_inner()) = Some(token);
        self.shared.begin();
    }

    fn exit(&self) {
        *self.entry.token.lock().unwrap_or_else(|e| e.into_inner()) = None;
        self.shared.end();
    }
}

/// Run one `query` frame through the service and encode its reply.
fn handle_query(shared: &Shared, entry: &ConnEntry, q: &QueryRequest) -> String {
    let served = shared.service.run(q, &ConnDoor { shared, entry });
    match served.result {
        Ok(out) => {
            let results: Vec<Value> = out
                .forest
                .iter()
                .take(q.max_results)
                .map(|t| Value::Str(tree_to_xml(t, Style::Compact)))
                .collect();
            ok_payload(vec![
                ("query_id".into(), Value::Int(served.query_id.0 as i64)),
                ("answers".into(), Value::Int(out.forest.len() as i64)),
                ("returned".into(), Value::Int(results.len() as i64)),
                ("xpath".into(), Value::Str(out.xpath)),
                (
                    "degraded".into(),
                    out.degradation.map_or(Value::Null, |d| Value::Str(d.to_string())),
                ),
                ("results".into(), Value::Array(results)),
                ("server_us".into(), Value::Int(served.elapsed.as_micros() as i64)),
            ])
        }
        Err((code, message)) => {
            let retry = match code {
                ErrorCode::Overloaded => Some(shared.retry_after_ms()),
                // refused or cancelled by a drain: the peer should come
                // back once a replacement is up
                ErrorCode::ShuttingDown | ErrorCode::Cancelled
                    if shared.state() != STATE_RUNNING =>
                {
                    Some(shared.drain_hint_ms())
                }
                _ => None,
            };
            error_payload(code, &message, retry)
        }
    }
}

/// Build one class window's wire object for the `stats` frame.
fn window_value(s: &WindowSnapshot) -> Value {
    Value::Object(s.fields().map(|(k, v)| (k.into(), Value::Int(v))).collect())
}

/// The `stats` admin frame: per-class windowed SLO figures plus process
/// gauges, in one structured response (`toss-cli top` polls this).
fn stats_payload(shared: &Arc<Shared>) -> String {
    let windows = shared.publish_gauges();
    let window_fields: Vec<(String, Value)> = windows
        .iter()
        .map(|(class, s)| (class.as_str().to_string(), window_value(s)))
        .collect();
    ok_payload(vec![
        (
            "uptime_ms".into(),
            Value::Int(shared.started.elapsed().as_millis() as i64),
        ),
        (
            "inflight".into(),
            Value::Int(shared.inflight.load(Ordering::Acquire) as i64),
        ),
        (
            "connections".into(),
            Value::Int(shared.conn_count() as i64),
        ),
        ("windows".into(), Value::Object(window_fields)),
        ("write".into(), write_stats_value(shared)),
        (
            "flight".into(),
            Value::Object(vec![
                (
                    "recorded".into(),
                    Value::Int(shared.service.flight.recorded() as i64),
                ),
                ("retained".into(), Value::Int(shared.service.flight.len() as i64)),
                (
                    "capacity".into(),
                    Value::Int(shared.service.flight.capacity() as i64),
                ),
            ]),
        ),
    ])
}

/// The `stats` frame's write-path object: writability, degraded state
/// (with its reason), the executor revision, and the writer's counters.
fn write_stats_value(shared: &Arc<Shared>) -> Value {
    let revision = shared
        .service
        .executor
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .revision();
    match &shared.write_state {
        None => Value::Object(vec![
            ("writable".into(), Value::Bool(false)),
            ("revision".into(), Value::Int(revision as i64)),
        ]),
        Some(st) => {
            let u = |a: &AtomicU64| a.load(Ordering::Relaxed) as i64;
            Value::Object(vec![
                ("writable".into(), Value::Bool(true)),
                ("degraded".into(), Value::Bool(st.is_degraded())),
                ("fatal".into(), Value::Bool(st.is_fatal())),
                ("reason".into(), Value::Str(st.degraded_reason())),
                ("revision".into(), Value::Int(revision as i64)),
                ("applied".into(), Value::Int(u(&st.applied))),
                ("deduped".into(), Value::Int(u(&st.deduped))),
                ("rejected".into(), Value::Int(u(&st.rejected))),
                ("batches".into(), Value::Int(u(&st.batches))),
                ("checkpoints".into(), Value::Int(u(&st.checkpoints))),
                ("last_fsync_ns".into(), Value::Int(u(&st.last_fsync_ns))),
                ("last_seq".into(), Value::Int(u(&st.last_seq))),
            ])
        }
    }
}

/// The `slow` admin frame: recent flight-recorder entries, newest
/// first, optionally filtered to one budget class.
fn slow_payload(shared: &Arc<Shared>, limit: usize, class: Option<BudgetClass>) -> String {
    let entries: Vec<Value> = shared
        .service
        .recent(limit, class)
        .iter()
        .filter_map(|r| Value::parse(&r.to_json()).ok())
        .collect();
    ok_payload(vec![("queries".into(), Value::Array(entries))])
}
