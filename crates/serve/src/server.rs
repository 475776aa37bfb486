//! The serving loop: thread-per-connection TCP front-end over the
//! [`Executor`] and [`AdmissionController`].
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
//!   [`toss_core::AdmissionController::run`] and surface as an `internal` error **frame** — the connection
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
    error_code_of, error_payload, ok_payload, read_frame, record_to_value, write_frame,
    ErrorCode, FrameError, QueryRequest, Request, WriteRequest, DEFAULT_MAX_FRAME_BYTES,
};
use crate::write::{WriteEngine, WriteJob, WriteResult, WriteState, WriterLoop};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use toss_core::executor::QueryOutcome;
use toss_core::{AdmissionController, CancelToken, Executor, QueryGovernor};
use toss_json::Value;
use toss_obs::{
    FlightRecorder, QueryId, QueryOutcomeKind, QueryRecord, RollingWindow, SlowQueryLog,
    WindowSnapshot,
};
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
    /// The executor behind a read/write lock: connection threads read,
    /// the single writer thread takes the write lock briefly per
    /// applied batch. Read-only servers simply never write.
    executor: Arc<RwLock<Executor>>,
    /// Mutation queue into the writer thread; `None` on read-only
    /// servers, and taken (dropped) during drain so the writer exits
    /// after committing what was already enqueued.
    write_tx: Mutex<Option<mpsc::SyncSender<WriteJob>>>,
    /// Observable writer state (`None` on read-only servers).
    write_state: Option<Arc<WriteState>>,
    admission: AdmissionController,
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
    /// Ring of the most recent completed queries (the `slow` frame).
    flight: FlightRecorder,
    /// Optional JSON-lines log of slow/failed (+ sampled) queries.
    slow_log: Option<SlowQueryLog>,
    /// One rolling SLO window per budget class, in `BudgetClass::ALL`
    /// order.
    windows: Vec<(BudgetClass, RollingWindow)>,
}

impl Shared {
    fn window_for(&self, class: BudgetClass) -> &RollingWindow {
        // ALL covers every variant, so the lookup always succeeds.
        &self.windows.iter().find(|(c, _)| *c == class).unwrap().1
    }

    /// Refresh the registry gauges this server owns from its own state
    /// — `toss.serve.degraded` from its write state, when writable, and
    /// every class window's `toss.serve.window.<class>.*` — and return
    /// the window snapshots. The registry is process-global, so another
    /// server in the same process may have set these since; the
    /// `metrics` and `stats` frames call this just before they export.
    fn publish_gauges(&self) -> Vec<(BudgetClass, WindowSnapshot)> {
        if let Some(st) = &self.write_state {
            toss_obs::metrics::gauge("toss.serve.degraded").set(st.is_degraded() as i64);
        }
        self.windows
            .iter()
            .map(|(class, w)| {
                let snap = w.snapshot();
                snap.publish_gauges(&format!("toss.serve.window.{}", class.as_str()));
                (*class, snap)
            })
            .collect()
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

    fn conn_count(&self) -> usize {
        self.conns.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The `retry_after_ms` hint for shed work: the queue-wait ceiling
    /// (after that long, a slot has either freed or the box is still
    /// saturated and the client should back off further on its own).
    fn retry_after_ms(&self) -> u64 {
        self.cfg.max_queue_wait.as_millis().max(10) as u64
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
        let admission =
            AdmissionController::new(cfg.max_concurrent_queries, cfg.max_queue_wait);
        let slow_log = match &cfg.slow_query_log {
            Some(path) => Some(SlowQueryLog::create(
                path,
                cfg.slow_threshold.as_nanos().min(u64::MAX as u128) as u64,
                cfg.slow_sample_every,
            )?),
            None => None,
        };
        let windows = BudgetClass::ALL
            .iter()
            .map(|c| (*c, RollingWindow::new(cfg.window_bucket, cfg.window_buckets)))
            .collect();
        let write_state = engine.as_ref().map(|_| Arc::new(WriteState::default()));
        let (write_tx, write_rx) = match engine {
            Some(_) => {
                let (tx, rx) = mpsc::sync_channel(WRITE_QUEUE_DEPTH);
                (Some(tx), Some(rx))
            }
            None => (None, None),
        };
        let shared = Arc::new(Shared {
            flight: FlightRecorder::new(cfg.flight_capacity),
            slow_log,
            windows,
            cfg,
            executor: executor.clone(),
            write_tx: Mutex::new(write_tx),
            write_state: write_state.clone(),
            admission,
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
        let writer_thread = match (engine, write_rx, write_state) {
            (Some(engine), Some(rx), Some(state)) => {
                let stamp_shared = shared.clone();
                let stamp = Box::new(move |rec: QueryRecord| {
                    let class =
                        BudgetClass::parse(&rec.class).unwrap_or(BudgetClass::Batch);
                    let (total_ns, outcome) = (rec.total_ns, rec.outcome);
                    if let Some(log) = &stamp_shared.slow_log {
                        log.offer(&rec);
                    }
                    stamp_shared.flight.record(rec);
                    stamp_shared.window_for(class).record(total_ns, outcome);
                });
                let writer = WriterLoop::new(engine, executor, state, stamp);
                Some(
                    thread::Builder::new()
                        .name("toss-serve-writer".into())
                        .spawn(move || writer.run(rx))?,
                )
            }
            _ => None,
        };
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
        {
            let mut guard = self
                .shared
                .change_lock
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            while !self.shared.shutdown_requested.load(Ordering::Acquire) {
                let (g, _) = self
                    .shared
                    .change
                    .wait_timeout(guard, Duration::from_millis(200))
                    .unwrap_or_else(|e| e.into_inner());
                guard = g;
            }
        }
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
            toss_obs::metrics::counter("toss.serve.errors.bad_request").inc();
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

/// Stamp an ingress-rejected write (degraded, draining, oversize,
/// shed): the writer thread never saw it, so telemetry happens here.
fn stamp_write_rejection(shared: &Shared, qid: QueryId, w: &WriteRequest, code: ErrorCode, total: Duration) {
    let rec = QueryRecord {
        query_id: qid.0,
        class: w.class.as_str().to_string(),
        query: w.op.target(),
        op: w.op.verb().to_string(),
        outcome: QueryOutcomeKind::Error,
        cause: code.as_str().to_string(),
        total_ns: total.as_nanos().min(u64::MAX as u128) as u64,
        ..QueryRecord::default()
    };
    if let Some(log) = &shared.slow_log {
        log.offer(&rec);
    }
    shared.flight.record(rec);
    let win = shared.window_for(w.class);
    win.record(rec_total_ns(total), QueryOutcomeKind::Error);
}

fn rec_total_ns(total: Duration) -> u64 {
    total.as_nanos().min(u64::MAX as u128) as u64
}

/// Dispatch one mutation frame into the writer thread's group-commit
/// queue and block (bounded by the class deadline) for its fsynced ack.
fn handle_write(shared: &Arc<Shared>, w: &WriteRequest) -> String {
    let qid = QueryId::next();
    let _ctx = toss_obs::set_current_query(qid);
    let started = Instant::now();
    toss_obs::metrics::counter("toss.serve.write.requests").inc();

    let Some(state) = &shared.write_state else {
        toss_obs::metrics::counter("toss.serve.errors.bad_request").inc();
        return error_payload(
            ErrorCode::BadRequest,
            "this server is read-only: no write path is configured",
            None,
        );
    };
    if shared.state() != STATE_RUNNING {
        toss_obs::metrics::counter("toss.serve.errors.shutting_down").inc();
        stamp_write_rejection(shared, qid, w, ErrorCode::ShuttingDown, started.elapsed());
        return error_payload(
            ErrorCode::ShuttingDown,
            "server is draining",
            Some(shared.cfg.drain_deadline.as_millis().max(10) as u64),
        );
    }
    // Read-only degraded mode: reject at ingress with the reason and a
    // retry hint. Reads keep flowing; the writer thread's probe loop
    // clears the flag once the journal is healthy again.
    if state.is_degraded() {
        toss_obs::metrics::counter("toss.serve.errors.degraded").inc();
        stamp_write_rejection(shared, qid, w, ErrorCode::Degraded, started.elapsed());
        return error_payload(
            ErrorCode::Degraded,
            &format!("server is read-only: {}", state.degraded_reason()),
            Some(500),
        );
    }
    // The class's write-size ceiling (cheap pre-admission check; the
    // batch validator still owns semantic validation).
    let bytes = w.op.payload_bytes();
    if bytes > w.class.max_write_bytes() {
        toss_obs::metrics::counter("toss.serve.errors.bad_request").inc();
        stamp_write_rejection(shared, qid, w, ErrorCode::BadRequest, started.elapsed());
        return error_payload(
            ErrorCode::BadRequest,
            &format!(
                "write of {bytes} bytes exceeds the {} byte ceiling of class `{}`",
                w.class.max_write_bytes(),
                w.class.as_str()
            ),
            None,
        );
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
    {
        let guard = shared.write_tx.lock().unwrap_or_else(|e| e.into_inner());
        let Some(tx) = guard.as_ref() else {
            return error_payload(
                ErrorCode::ShuttingDown,
                "server is draining",
                Some(shared.cfg.drain_deadline.as_millis().max(10) as u64),
            );
        };
        match tx.try_send(job) {
            Ok(()) => {}
            Err(mpsc::TrySendError::Full(_)) => {
                toss_obs::metrics::counter("toss.serve.write.shed").inc();
                stamp_write_rejection(
                    shared,
                    qid,
                    w,
                    ErrorCode::Overloaded,
                    started.elapsed(),
                );
                return error_payload(
                    ErrorCode::Overloaded,
                    "write queue is full",
                    Some(shared.retry_after_ms()),
                );
            }
            Err(mpsc::TrySendError::Disconnected(_)) => {
                return error_payload(
                    ErrorCode::ShuttingDown,
                    "server is draining",
                    Some(shared.cfg.drain_deadline.as_millis().max(10) as u64),
                );
            }
        }
    }

    // Count ourselves in flight so drain waits for the pending ack.
    shared.inflight.fetch_add(1, Ordering::AcqRel);
    toss_obs::metrics::gauge("toss.serve.inflight").inc();
    let outcome = reply_rx.recv_timeout(w.class.max_deadline());
    shared.inflight.fetch_sub(1, Ordering::AcqRel);
    toss_obs::metrics::gauge("toss.serve.inflight").dec();
    shared.notify();
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
            toss_obs::metrics::counter(match code {
                ErrorCode::Degraded => "toss.serve.errors.degraded",
                ErrorCode::BadRequest => "toss.serve.errors.bad_request",
                ErrorCode::Internal => "toss.serve.errors.internal",
                _ => "toss.serve.errors.bad_request",
            })
            .inc();
            error_payload(code, &message, retry_after_ms)
        }
        // The ack did not arrive inside the class deadline. The write
        // may still commit — that is exactly what the idempotency key
        // is for: the client retries with the same key and either gets
        // the deduped original outcome or a fresh apply.
        Err(_) => {
            toss_obs::metrics::counter("toss.serve.write.ack_timeouts").inc();
            error_payload(
                ErrorCode::Overloaded,
                "write ack timed out; retry with the same idempotency key",
                Some(shared.retry_after_ms()),
            )
        }
    }
}

/// Stamp one finished query into the telemetry pipeline: the flight
/// recorder, the slow-query log, and the class's SLO window. The window's
/// registry gauges are refreshed when somebody reads them (the `metrics`
/// and `stats` frames call [`Shared::publish_gauges`]), not here.
#[allow(clippy::too_many_arguments)]
fn stamp_query(
    shared: &Shared,
    qid: QueryId,
    q: &QueryRequest,
    total: Duration,
    queue_wait: Duration,
    gov: Option<&QueryGovernor>,
    out: Option<&QueryOutcome>,
    outcome: QueryOutcomeKind,
    cause: &str,
) {
    let total_ns = total.as_nanos().min(u64::MAX as u128) as u64;
    let mut degraded = Vec::new();
    if let Some(d) = out.and_then(|o| o.degradation.as_ref()) {
        degraded.push(d.to_string());
    } else if let Some(d) = gov.and_then(|g| g.degradation()) {
        degraded.push(d.to_string());
    }
    let rec = QueryRecord {
        query_id: qid.0,
        class: q.class.as_str().to_string(),
        query: match out {
            Some(o) => o.xpath.clone(),
            None => format!("{}//{}", q.collection, q.root),
        },
        plan: out
            .and_then(|o| o.plan.as_ref())
            .map(|p| p.to_string())
            .unwrap_or_default(),
        outcome,
        cause: cause.to_string(),
        total_ns,
        queue_wait_ns: queue_wait.as_nanos().min(u64::MAX as u128) as u64,
        rewrite_ns: out
            .map(|o| o.rewrite_time().as_nanos() as u64)
            .unwrap_or(0),
        execute_ns: out
            .map(|o| o.execute_time().as_nanos() as u64)
            .unwrap_or(0),
        convert_ns: out
            .map(|o| o.convert_time().as_nanos() as u64)
            .unwrap_or(0),
        terms_used: gov.map(|g| g.terms_used()).unwrap_or(0),
        docs_scanned: gov.map(|g| g.docs_scanned()).unwrap_or(0),
        memory_bytes: gov.map(|g| g.memory_used()).unwrap_or(0),
        answers: out.map(|o| o.forest.len() as u64).unwrap_or(0),
        degraded,
        ..QueryRecord::default()
    };
    if let Some(log) = &shared.slow_log {
        log.offer(&rec);
    }
    shared.flight.record(rec);
    shared.window_for(q.class).record(total_ns, outcome);
}

fn handle_query(shared: &Arc<Shared>, entry: &Arc<ConnEntry>, q: &QueryRequest) -> String {
    // Ingress: every query request gets a process-unique id, set as the
    // thread's current query so every span underneath (admission,
    // planner, executor, xmldb) is stamped with it.
    let qid = QueryId::next();
    let _ctx = toss_obs::set_current_query(qid);
    let started = Instant::now();

    if shared.state() != STATE_RUNNING {
        toss_obs::metrics::counter("toss.serve.errors.shutting_down").inc();
        stamp_query(
            shared,
            qid,
            q,
            started.elapsed(),
            Duration::ZERO,
            None,
            None,
            QueryOutcomeKind::Error,
            ErrorCode::ShuttingDown.as_str(),
        );
        return error_payload(
            ErrorCode::ShuttingDown,
            "server is draining",
            Some(shared.cfg.drain_deadline.as_millis().max(10) as u64),
        );
    }
    let (query, mode) = match crate::protocol::build_query(q) {
        Ok(x) => x,
        Err(e) => {
            toss_obs::metrics::counter("toss.serve.errors.bad_request").inc();
            stamp_query(
                shared,
                qid,
                q,
                started.elapsed(),
                Duration::ZERO,
                None,
                None,
                QueryOutcomeKind::Error,
                ErrorCode::BadRequest.as_str(),
            );
            return error_payload(ErrorCode::BadRequest, &e.to_string(), None);
        }
    };
    let budget = q.class.budget(q.timeout_ms, q.max_terms, q.max_docs);
    let gov = QueryGovernor::new(budget);

    // Expose the token so drain can cancel us, and count ourselves
    // in-flight so drain waits for us.
    *entry.token.lock().unwrap_or_else(|e| e.into_inner()) = Some(gov.token());
    shared.inflight.fetch_add(1, Ordering::AcqRel);
    toss_obs::metrics::gauge("toss.serve.inflight").inc();

    // Hold the executor read lock for the query's whole execution:
    // in-flight reads keep a consistent snapshot (the writer thread's
    // apply phase takes the write lock, so a batch becomes visible
    // between queries, never inside one). The lock is taken *inside*
    // the admission closure — after the permit is granted — so a query
    // waiting in the admission queue does not hold a read guard that
    // would stall the writer's apply phase (and inflate write ack
    // latency into the client's retry window).
    let (queue_wait, result) = shared.admission.run_with_wait(&gov, || {
        let executor = shared.executor.read().unwrap_or_else(|e| e.into_inner());
        executor.select_governed(&query, mode, &gov)
    });
    let elapsed = started.elapsed();

    shared.inflight.fetch_sub(1, Ordering::AcqRel);
    toss_obs::metrics::gauge("toss.serve.inflight").dec();
    *entry.token.lock().unwrap_or_else(|e| e.into_inner()) = None;
    shared.notify();
    toss_obs::metrics::histogram("toss.serve.request_ns").observe_duration(elapsed);

    match result {
        Ok(out) => {
            stamp_query(
                shared,
                qid,
                q,
                elapsed,
                queue_wait,
                Some(&gov),
                Some(&out),
                QueryOutcomeKind::Ok,
                "",
            );
            let results: Vec<Value> = out
                .forest
                .iter()
                .take(q.max_results)
                .map(|t| Value::Str(tree_to_xml(t, Style::Compact)))
                .collect();
            ok_payload(vec![
                ("query_id".into(), Value::Int(qid.0 as i64)),
                ("answers".into(), Value::Int(out.forest.len() as i64)),
                ("returned".into(), Value::Int(results.len() as i64)),
                ("xpath".into(), Value::Str(out.xpath.clone())),
                (
                    "degraded".into(),
                    match &out.degradation {
                        Some(d) => Value::Str(d.to_string()),
                        None => Value::Null,
                    },
                ),
                ("results".into(), Value::Array(results)),
                ("server_us".into(), Value::Int(elapsed.as_micros() as i64)),
            ])
        }
        Err(e) => {
            let code = error_code_of(&e);
            toss_obs::metrics::counter(match code {
                ErrorCode::Overloaded => "toss.serve.errors.overloaded",
                ErrorCode::BudgetExceeded => "toss.serve.errors.budget_exceeded",
                ErrorCode::Cancelled => "toss.serve.errors.cancelled",
                ErrorCode::Internal => "toss.serve.errors.internal",
                _ => "toss.serve.errors.bad_request",
            })
            .inc();
            stamp_query(
                shared,
                qid,
                q,
                elapsed,
                queue_wait,
                Some(&gov),
                None,
                if code == ErrorCode::Overloaded {
                    QueryOutcomeKind::Shed
                } else {
                    QueryOutcomeKind::Error
                },
                code.as_str(),
            );
            let retry = match code {
                ErrorCode::Overloaded => Some(shared.retry_after_ms()),
                // cancelled-by-drain: the peer should come back once a
                // replacement is up; give it the drain window as a hint
                ErrorCode::Cancelled if shared.state() != STATE_RUNNING => {
                    Some(shared.cfg.drain_deadline.as_millis().max(10) as u64)
                }
                _ => None,
            };
            error_payload(code, &e.to_string(), retry)
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
                    Value::Int(shared.flight.recorded() as i64),
                ),
                ("retained".into(), Value::Int(shared.flight.len() as i64)),
                (
                    "capacity".into(),
                    Value::Int(shared.flight.capacity() as i64),
                ),
            ]),
        ),
    ])
}

/// The `stats` frame's write-path object: writability, degraded state
/// (with its reason), the executor revision, and the writer's counters.
fn write_stats_value(shared: &Arc<Shared>) -> Value {
    let revision = shared
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
    // With a class filter, look back over the whole ring so the limit
    // counts *matching* entries, not scanned ones.
    let lookback = if class.is_some() {
        shared.flight.capacity()
    } else {
        limit
    };
    let entries: Vec<Value> = shared
        .flight
        .recent(lookback)
        .into_iter()
        .filter(|r| class.is_none_or(|c| r.class == c.as_str()))
        .take(limit)
        .map(|r| record_to_value(&r))
        .collect();
    ok_payload(vec![("queries".into(), Value::Array(entries))])
}
