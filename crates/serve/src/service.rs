//! The in-process query service: the one request path behind every
//! front door. [`Service::query`] runs a [`QueryRequest`] exactly as the
//! TCP server runs a `query` frame — query id, class budget, admission
//! wait, the executor read guard, the [`QueryRecord`] in the flight
//! recorder, slow-query log and class SLO window — so `toss-cli query`
//! and a remote client get the same answer, budget and record.

use crate::budget::BudgetClass;
use crate::protocol::{build_query, error_code_of, ErrorCode, QueryRequest};
use crate::server::ServerConfig;
use std::io;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};
use toss_core::executor::QueryOutcome;
use toss_core::{AdmissionController, CancelToken, Executor, QueryGovernor};
use toss_obs::{
    FlightRecorder, QueryId, QueryOutcomeKind, QueryRecord, RollingWindow, SlowQueryLog,
    WindowSnapshot,
};

/// The executor plus everything that admits, bounds and records the
/// queries it runs.
pub struct Service {
    /// Queries read-lock it; a writable server's writer thread
    /// write-locks it briefly per applied batch.
    pub(crate) executor: Arc<RwLock<Executor>>,
    admission: AdmissionController,
    /// The most recent completed requests (the `slow` frame).
    pub(crate) flight: FlightRecorder,
    slow_log: Option<SlowQueryLog>,
    /// One rolling SLO window per class, in `BudgetClass::ALL` order.
    windows: Vec<(BudgetClass, RollingWindow)>,
}

/// One query as the service answered it.
pub struct Served {
    /// The id every span of the query carries.
    pub query_id: QueryId,
    /// Ingress to completion.
    pub elapsed: Duration,
    /// The answer, or the typed error and its message.
    pub result: Result<QueryOutcome, (ErrorCode, String)>,
}

/// A front door's part in a query; the in-process door `()` is always
/// open and has nothing to drain.
pub(crate) trait Door {
    /// Whether the door still takes queries (`false` while draining).
    fn open(&self) -> bool {
        true
    }
    /// The query is about to wait for admission; `token` cancels it.
    fn enter(&self, _token: CancelToken) {}
    /// The query has finished, shed or failed.
    fn exit(&self) {}
}

impl Door for () {}

impl Service {
    /// A service over `executor` with the admission width, queue wait,
    /// flight capacity, slow-query log and SLO windows of `cfg`. Fails
    /// only when the slow-query log cannot be opened.
    pub fn new(executor: Arc<RwLock<Executor>>, cfg: &ServerConfig) -> io::Result<Service> {
        let slow_log = match &cfg.slow_query_log {
            Some(path) => Some(SlowQueryLog::create(
                path,
                cfg.slow_threshold.as_nanos().min(u64::MAX as u128) as u64,
                cfg.slow_sample_every,
            )?),
            None => None,
        };
        let window = || RollingWindow::new(cfg.window_bucket, cfg.window_buckets);
        Ok(Service {
            executor,
            admission: AdmissionController::new(cfg.max_concurrent_queries, cfg.max_queue_wait),
            flight: FlightRecorder::new(cfg.flight_capacity),
            slow_log,
            windows: BudgetClass::ALL.iter().map(|c| (*c, window())).collect(),
        })
    }

    /// Run one query in-process.
    pub fn query(&self, q: &QueryRequest) -> Served {
        self.run(q, &())
    }

    /// The newest `limit` records, newest first, optionally only those
    /// of one class: what the `slow` frame returns.
    pub fn recent(&self, limit: usize, class: Option<BudgetClass>) -> Vec<QueryRecord> {
        // With a class filter, look back over the whole ring so the
        // limit counts *matching* entries, not scanned ones.
        let lookback = class.map_or(limit, |_| self.flight.capacity());
        self.flight
            .recent(lookback)
            .into_iter()
            .filter(|r| class.is_none_or(|c| r.class == c.as_str()))
            .take(limit)
            .collect()
    }

    /// Refresh every class window's `toss.serve.window.<class>.*`
    /// registry gauges and return the window snapshots. The registry is
    /// process-global, so whoever exports it calls this first.
    pub fn publish_gauges(&self) -> Vec<(BudgetClass, WindowSnapshot)> {
        self.windows
            .iter()
            .map(|(class, w)| {
                let snap = w.snapshot();
                snap.publish_gauges(&format!("toss.serve.window.{}", class.as_str()));
                (*class, snap)
            })
            .collect()
    }

    /// Stamp one finished request of `class` into the slow-query log,
    /// the flight recorder and the class's SLO window.
    pub(crate) fn record(&self, class: BudgetClass, rec: QueryRecord) {
        let (total_ns, outcome) = (rec.total_ns, rec.outcome);
        if let Some(log) = &self.slow_log {
            log.offer(&rec);
        }
        self.flight.record(rec);
        // ALL covers every variant, so the lookup always succeeds.
        let window = &self.windows.iter().find(|(c, _)| *c == class).unwrap().1;
        window.record(total_ns, outcome);
    }

    /// Run one query behind `door`.
    pub(crate) fn run(&self, q: &QueryRequest, door: &impl Door) -> Served {
        // Ingress: every query gets a process-unique id, set as the
        // thread's current query so every span underneath (admission,
        // planner, executor, xmldb) is stamped with it.
        let query_id = QueryId::next();
        let _ctx = toss_obs::set_current_query(query_id);
        let started = Instant::now();
        let refused = |code, message| {
            (
                None,
                Duration::ZERO,
                started.elapsed(),
                Err((code, message)),
            )
        };
        let (gov, queue_wait, elapsed, result) = if !door.open() {
            refused(ErrorCode::ShuttingDown, "server is draining".to_string())
        } else {
            match build_query(q) {
                Err(e) => refused(ErrorCode::BadRequest, e.to_string()),
                Ok((query, mode)) => {
                    let gov =
                        QueryGovernor::new(q.class.budget(q.timeout_ms, q.max_terms, q.max_docs));
                    door.enter(gov.token());
                    // Hold the executor read lock for the query's whole
                    // execution: in-flight reads keep a consistent
                    // snapshot (the writer's apply phase takes the write
                    // lock, so a batch becomes visible between queries,
                    // never inside one). The lock is taken *inside* the
                    // admission closure — after the permit is granted —
                    // so a query waiting in the admission queue does not
                    // hold a read guard that would stall the writer's
                    // apply phase (and inflate write ack latency into the
                    // client's retry window).
                    let (queue_wait, result) = self.admission.run_with_wait(&gov, || {
                        let executor = self.executor.read().unwrap_or_else(|e| e.into_inner());
                        executor.select_governed(&query, mode, &gov)
                    });
                    let elapsed = started.elapsed();
                    door.exit();
                    toss_obs::metrics::histogram("toss.serve.request_ns").observe_duration(elapsed);
                    let result = result.map_err(|e| (error_code_of(&e), e.to_string()));
                    (Some(gov), queue_wait, elapsed, result)
                }
            }
        };
        if let Err((code, _)) = &result {
            // toss.serve.errors.{shutting_down, bad_request, overloaded,
            // budget_exceeded, cancelled, internal}
            code.count();
        }
        self.stamp_query(query_id, q, elapsed, queue_wait, gov.as_ref(), &result);
        Served {
            query_id,
            elapsed,
            result,
        }
    }

    /// Build one finished query's [`QueryRecord`] and
    /// [`record`](Service::record) it. The window's registry gauges are
    /// refreshed when somebody reads them, not here.
    fn stamp_query(
        &self,
        qid: QueryId,
        q: &QueryRequest,
        total: Duration,
        queue_wait: Duration,
        gov: Option<&QueryGovernor>,
        result: &Result<QueryOutcome, (ErrorCode, String)>,
    ) {
        let out = result.as_ref().ok();
        let (outcome, cause) = match result {
            Ok(_) => (QueryOutcomeKind::Ok, ""),
            Err((ErrorCode::Overloaded, _)) => (QueryOutcomeKind::Shed, "overloaded"),
            Err((code, _)) => (QueryOutcomeKind::Error, code.as_str()),
        };
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
            total_ns: total.as_nanos().min(u64::MAX as u128) as u64,
            queue_wait_ns: queue_wait.as_nanos().min(u64::MAX as u128) as u64,
            rewrite_ns: out.map(|o| o.rewrite_time().as_nanos() as u64).unwrap_or(0),
            execute_ns: out.map(|o| o.execute_time().as_nanos() as u64).unwrap_or(0),
            convert_ns: out.map(|o| o.convert_time().as_nanos() as u64).unwrap_or(0),
            terms_used: gov.map(|g| g.terms_used()).unwrap_or(0),
            docs_scanned: gov.map(|g| g.docs_scanned()).unwrap_or(0),
            memory_bytes: gov.map(|g| g.memory_used()).unwrap_or(0),
            answers: out.map(|o| o.forest.len() as u64).unwrap_or(0),
            degraded,
            ..QueryRecord::default()
        };
        self.record(q.class, rec);
    }
}
