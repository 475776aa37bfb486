//! Fault-injection and drain chaos suite for the toss-serve network
//! layer (see `docs/serving.md`). The invariants, end to end over real
//! sockets:
//!
//! * every injected fault — dropped connection mid-request, half-written
//!   frame, garbage payload, oversize frame, slow-loris trickle, stalled
//!   reader — yields a clean typed error (or a clean close) and the
//!   server keeps serving;
//! * a panicking query becomes an `internal` error **frame** on a live
//!   connection — zero executor panics escape;
//! * overload is shed with a typed `overloaded` error carrying a
//!   `retry_after_ms` hint, and the shed path records queue-wait time;
//! * graceful drain completes or cancels every in-flight query within
//!   the drain deadline, and no client ever observes a partial frame.
//!
//! Metrics assertions are deltas (`after - before >= n`): the registry
//! is process-global and tests run in parallel, but other tests only
//! ever *add* to these counters.

use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::sync::{Arc, Barrier, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use toss_core::Executor;
use toss_ontology::hierarchy::{from_pairs, Hierarchy};
use toss_ontology::sea::enhance;
use toss_serve::protocol::{read_frame, write_frame, FrameError, Request};
use toss_serve::{
    next_write_key, BudgetClass, Client, ClientError, ErrorCode, OpenStore, QueryRequest,
    Server, ServerConfig, Service, WriteConfig, WriteOp,
};
use toss_similarity::{Levenshtein, StringMetric};
use toss_tree::serialize::{tree_to_xml, Style};
use toss_xmldb::{
    Database, DatabaseConfig, DurableDatabase, FaultMode, FaultSchedule, FaultVfs,
    ScheduledFault, Vfs,
};

/// Probe string that makes the metric panic (a poisoned query).
const PANIC_PROBE: &str = "zzz-panic-probe";
/// Probe string that makes the metric slow (pins an admission slot).
const SLOW_PROBE: &str = "zzz-slow-probe";

struct ChaosMetric;

impl StringMetric for ChaosMetric {
    fn distance(&self, a: &str, b: &str) -> f64 {
        if a == PANIC_PROBE || b == PANIC_PROBE {
            panic!("chaos: poisoned metric input");
        }
        if a == SLOW_PROBE || b == SLOW_PROBE {
            thread::sleep(Duration::from_millis(25));
        }
        Levenshtein.distance(a, b)
    }
    fn is_strong(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "chaos"
    }
}

fn chaos_hierarchy() -> Hierarchy {
    from_pairs(&[
        ("SIGMOD Conference", "conference"),
        ("VLDB", "conference"),
        ("conference", "venue"),
        ("Jeff Ullman", "author"),
        ("Jeff Ullmann", "author"),
        ("E. Codd", "author"),
    ])
    .unwrap()
}

/// A small store + SEO under the chaos metric. `pad` bytes of filler
/// per document let tests manufacture multi-megabyte responses.
fn executor(docs: usize, pad: usize) -> Arc<RwLock<Executor>> {
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    let c = db.create_collection("chaos").unwrap();
    let filler = "x".repeat(pad);
    for i in 0..docs {
        let author = match i % 3 {
            0 => "Jeff Ullman",
            1 => "Jeff Ullmann",
            _ => "E. Codd",
        };
        c.insert_xml(&format!(
            "<inproceedings key=\"p{i}\"><author>{author}</author>\
             <booktitle>SIGMOD Conference</booktitle><pad>{filler}</pad></inproceedings>"
        ))
        .unwrap();
    }
    let seo = Arc::new(enhance(&chaos_hierarchy(), &Levenshtein, 1.0).unwrap());
    Arc::new(RwLock::new(
        Executor::new(db, seo).with_probe_metric(Arc::new(ChaosMetric)),
    ))
}

fn start(cfg: ServerConfig) -> Server {
    Server::start(executor(30, 0), "127.0.0.1:0", cfg).unwrap()
}

/// Virtual snapshot path used by every writable-server fixture (each
/// test gets its own in-memory [`FaultVfs`], so paths never collide).
const SNAP: &str = "/serve-store.json";

/// Seed a durable store on `vfs`: the `chaos` collection with `docs`
/// documents, checkpointed so the journal starts empty.
fn seed_writable(vfs: &Arc<FaultVfs>, docs: usize) {
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    let mut d =
        DurableDatabase::open_with(SNAP, DatabaseConfig::unlimited(), dyn_vfs).unwrap();
    d.create_collection("chaos").unwrap();
    for i in 0..docs {
        let author = match i % 3 {
            0 => "Jeff Ullman",
            1 => "Jeff Ullmann",
            _ => "E. Codd",
        };
        d.insert_xml(
            "chaos",
            &format!(
                "<inproceedings key=\"p{i}\"><author>{author}</author>\
                 <booktitle>SIGMOD Conference</booktitle></inproceedings>"
            ),
        )
        .unwrap();
    }
    d.checkpoint().unwrap();
}

/// Open the seeded store by [`toss_serve::open_store`], the rule every
/// front door follows, with the chaos SEO as the baseline for a store
/// that has no ontology sidecar yet; `write` opens it writable.
fn open_seeded(vfs: &Arc<FaultVfs>, write: Option<WriteConfig>) -> OpenStore {
    toss_serve::open_store(
        vfs.clone(),
        Path::new(SNAP),
        enhance(&chaos_hierarchy(), &Levenshtein, 1.0).unwrap(),
        |epsilon| Box::new(move |h| enhance(h, &Levenshtein, epsilon).map_err(|e| e.to_string())),
        write,
    )
    .unwrap()
}

/// An executor over an opened store, probing with the chaos metric.
fn chaos_executor(opened: OpenStore) -> Executor {
    Executor::new(opened.db, Arc::new(opened.seo)).with_probe_metric(Arc::new(ChaosMetric))
}

/// Open the seeded store writable and serve it: the same startup path
/// `toss-cli serve --writable` runs — [`open_seeded`], then the server
/// over its write engine.
fn start_writable(vfs: &Arc<FaultVfs>, cfg: ServerConfig, wcfg: WriteConfig) -> Server {
    start_writable_with_executor(vfs, cfg, wcfg).0
}

/// [`start_writable`], also returning the executor the server shares.
fn start_writable_with_executor(
    vfs: &Arc<FaultVfs>,
    cfg: ServerConfig,
    wcfg: WriteConfig,
) -> (Server, Arc<RwLock<Executor>>) {
    let mut opened = open_seeded(vfs, Some(wcfg));
    let engine = opened.engine.take().expect("opened writable");
    let exec = Arc::new(RwLock::new(chaos_executor(opened)));
    let server = Server::start_writable(Arc::clone(&exec), engine, "127.0.0.1:0", cfg).unwrap();
    (server, exec)
}

fn insert_op(marker: &str, author: &str) -> WriteOp {
    WriteOp::InsertDoc {
        collection: "chaos".into(),
        xml: format!(
            "<inproceedings key=\"{marker}\"><author>{author}</author></inproceedings>"
        ),
    }
}

fn counter_value(name: &str) -> u64 {
    toss_obs::metrics::snapshot().counter(name).unwrap_or(0)
}

/// Poll until `name` has grown past `before` (parallel-test safe: other
/// tests only add). Panics after `deadline`.
fn await_counter_above(name: &str, before: u64, deadline: Duration) {
    let t0 = Instant::now();
    while counter_value(name) <= before {
        assert!(
            t0.elapsed() < deadline,
            "counter {name} never grew past {before} within {deadline:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

fn eq_query(author: &str) -> QueryRequest {
    let mut q = QueryRequest::new("chaos", "inproceedings");
    q.eq.push(("author".into(), author.into()));
    q
}

fn similar_query(probe: &str) -> QueryRequest {
    let mut q = QueryRequest::new("chaos", "inproceedings");
    q.similar.push(("author".into(), probe.into()));
    q
}

#[test]
fn ping_query_and_metrics_round_trip() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();

    let reply = client.query(eq_query("E. Codd")).unwrap();
    assert_eq!(reply.answers, 10, "30 docs, every third by Codd");
    assert_eq!(reply.returned, 10);
    assert!(!reply.xpath.is_empty());
    assert!(reply.results[0].contains("E. Codd"), "{}", reply.results[0]);

    // max_results caps the serialized trees, not the reported count
    let mut capped = eq_query("E. Codd");
    capped.max_results = 3;
    let reply = client.query(capped).unwrap();
    assert_eq!((reply.answers, reply.returned), (10, 3));

    let text = client.metrics().unwrap();
    assert!(text.contains("toss_serve_requests"), "{text}");
    assert!(text.contains("toss_serve_connections_active"), "{text}");
    server.shutdown();
}

/// The telemetry tentpole, end to end over a real socket: a query run
/// through `toss-client` is findable afterwards via the `slow` admin
/// frame by its server-assigned [`toss_obs::QueryId`], carrying
/// per-phase timings, the chosen plan and its budget class — and the
/// same traffic shows up in the `stats` frame's windowed SLOs and as
/// `toss.serve.window.*` gauges in the Prometheus export.
#[test]
fn query_is_findable_in_flight_recorder_with_phases_plan_and_class() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let reply = client.query(eq_query("E. Codd")).unwrap();
    assert!(reply.query_id > 0, "replies carry the server-assigned query id");

    let records = client.slow(100, None).unwrap();
    let rec = records
        .iter()
        .find(|r| r.query_id == reply.query_id)
        .unwrap_or_else(|| panic!("q{} not in the flight recorder", reply.query_id));
    assert_eq!(rec.class, "interactive", "default budget class is stamped");
    assert_eq!(rec.outcome, toss_obs::QueryOutcomeKind::Ok);
    assert!(rec.cause.is_empty());
    assert!(rec.total_ns > 0, "end-to-end timing recorded");
    assert!(
        rec.execute_ns > 0 && rec.total_ns >= rec.execute_ns,
        "phase timings recorded and consistent: {rec:?}"
    );
    assert!(!rec.plan.is_empty(), "the chosen plan is stamped: {rec:?}");
    assert!(rec.query.contains("inproceedings"), "{}", rec.query);
    assert_eq!(rec.answers, 10);

    // the class filter matches the stamped class
    let interactive = client.slow(100, Some(BudgetClass::Interactive)).unwrap();
    assert!(interactive.iter().any(|r| r.query_id == reply.query_id));
    let batch = client.slow(100, Some(BudgetClass::Batch)).unwrap();
    assert!(batch.iter().all(|r| r.query_id != reply.query_id));

    // a failed request is stamped too, with its cause
    let mut bad = QueryRequest::new("no-such-collection", "inproceedings");
    bad.eq.push(("author".into(), "x".into()));
    let err = client.query(bad).expect_err("unknown collection must fail");
    assert!(matches!(err, ClientError::Server { .. }), "{err:?}");
    let failed = client.slow(100, None).unwrap();
    let bad_rec = failed
        .iter()
        .find(|r| r.outcome != toss_obs::QueryOutcomeKind::Ok)
        .expect("the failed query is in the flight recorder");
    assert!(!bad_rec.cause.is_empty(), "{bad_rec:?}");

    // the same traffic is visible in the stats frame's windowed SLOs…
    let stats = client.stats().unwrap();
    assert!(stats.flight_recorded >= 2);
    assert!(stats.flight_capacity > 0);
    let w = stats.window("interactive").expect("interactive window");
    assert!(w.requests >= 1, "{stats:?}");
    assert!(w.p50_ns > 0 && w.p95_ns >= w.p50_ns, "{w:?}");
    assert!(w.window_ms > 0);

    // …and as per-class gauges in the Prometheus export
    let text = client.metrics().unwrap();
    assert!(text.contains("toss_serve_window_interactive_p95_ns"), "{text}");
    assert!(text.contains("toss_serve_window_batch_requests"), "{text}");

    // The gauges are refreshed by the `metrics` frame itself, not per
    // request: one more query, and the very next export counts it. (The
    // registry is process-wide and other tests' servers publish into the
    // same gauge names at start-up, so allow a few tries.)
    let before = client.stats().unwrap().window("interactive").unwrap().requests;
    client.query(eq_query("E. Codd")).unwrap();
    let exported_requests = |text: &str| -> u64 {
        text.lines()
            .find_map(|l| l.strip_prefix("toss_serve_window_interactive_requests "))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no interactive requests gauge in:\n{text}"))
    };
    let refreshed = (0..50).any(|_| exported_requests(&client.metrics().unwrap()) > before);
    assert!(refreshed, "the metrics frame must export the request stamped just before it");
    server.shutdown();
}

#[test]
fn garbage_and_unknown_requests_get_typed_errors_on_a_live_connection() {
    let server = start(ServerConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();

    for payload in [
        &b"not json at all"[..],
        br#"{"verb":"frobnicate"}"#,
        br#"{"verb":"query","collection":"chaos","root":"inproceedings"}"#,
        br#"{"verb":"query","collection":"chaos","root":"inproceedings",
             "eq":[["author","x"]],"class":"supersonic"}"#,
        // shutdown verb is disabled by default: bad_request, not a drain
        br#"{"verb":"shutdown"}"#,
    ] {
        write_frame(&mut s, payload).unwrap();
        let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(5))).unwrap();
        let v = toss_json::Value::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
        assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("error"));
        assert_eq!(v.get("code").and_then(|x| x.as_str()), Some("bad_request"));
    }
    // ...and the connection still works after every one of them
    write_frame(&mut s, Request::Ping.to_payload().as_bytes()).unwrap();
    let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(5))).unwrap();
    assert!(std::str::from_utf8(&resp).unwrap().contains("\"ok\""));
    assert_eq!(server.connections(), 1);
    server.shutdown();
}

/// A query frame far under the frame cap can still carry thousands of
/// predicates; each one deepens the condition every phase walks
/// recursively. The server refuses the frame instead of letting a
/// connection thread overflow its stack (which aborts the process), and
/// keeps serving.
#[test]
fn too_many_predicates_get_bad_request_and_the_server_keeps_serving() {
    let server = start(ServerConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let pairs: Vec<String> = (0..5_000)
        .map(|i| format!(r#"["author","a{i}"]"#))
        .collect();
    let payload = format!(
        r#"{{"verb":"query","collection":"chaos","root":"inproceedings","eq":[{}]}}"#,
        pairs.join(",")
    );
    write_frame(&mut s, payload.as_bytes()).unwrap();
    let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(30))).unwrap();
    let v = toss_json::Value::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(v.get("code").and_then(|x| x.as_str()), Some("bad_request"));
    let message = v.get("message").and_then(|x| x.as_str()).unwrap();
    assert!(
        message.contains("5000 predicates exceed the limit of 64"),
        "{message}"
    );
    // the same connection, and the server, still answer a normal query
    let normal = Request::Query(Box::new(eq_query("E. Codd"))).to_payload();
    write_frame(&mut s, normal.as_bytes()).unwrap();
    let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(30))).unwrap();
    let v = toss_json::Value::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(v.get("status").and_then(|x| x.as_str()), Some("ok"));
    assert_eq!(v.get("answers").and_then(|x| x.as_i64()), Some(10));
    server.shutdown();
}

#[test]
fn dropped_connection_mid_request_is_a_clean_half_frame_fault() {
    let server = start(ServerConfig::default());
    let before = counter_value("toss.serve.faults.half_frame");

    // claim a 100-byte frame, deliver 10 bytes, hang up
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(&100u32.to_be_bytes()).unwrap();
    s.write_all(b"0123456789").unwrap();
    drop(s);

    await_counter_above(
        "toss.serve.faults.half_frame",
        before,
        Duration::from_secs(5),
    );
    // the server took the fault and keeps serving
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(client.query(eq_query("E. Codd")).unwrap().answers, 10);
    server.shutdown();
}

#[test]
fn oversize_frame_is_refused_with_a_reason() {
    let cfg = ServerConfig {
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(&(1u32 << 21).to_be_bytes()).unwrap();
    // the refusal arrives as a whole error frame, then the socket closes
    let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(5))).unwrap();
    let text = std::str::from_utf8(&resp).unwrap();
    assert!(text.contains("bad_request") && text.contains("1024"), "{text}");
    match read_frame(&mut s, 1 << 20, Some(Duration::from_secs(5))) {
        Err(FrameError::Closed) => {}
        other => panic!("expected close after oversize refusal, got {other:?}"),
    }
    // a zero-length prefix is refused and closed the same way, but its
    // reason must not claim the limit was exceeded
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(&0u32.to_be_bytes()).unwrap();
    let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(5))).unwrap();
    let text = std::str::from_utf8(&resp).unwrap();
    assert!(text.contains("bad_request") && text.contains("empty"), "{text}");
    assert!(!text.contains("exceeds") && !text.contains("limit"), "{text}");
    match read_frame(&mut s, 1 << 20, Some(Duration::from_secs(5))) {
        Err(FrameError::Closed) => {}
        other => panic!("expected close after empty-frame refusal, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn slow_loris_client_is_disconnected() {
    let cfg = ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let before = counter_value("toss.serve.faults.read_timeout");

    // trickle: one prefix byte, then silence — the whole-frame deadline
    // must kill us rather than pin a connection thread forever
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    s.write_all(&[0u8]).unwrap();
    await_counter_above(
        "toss.serve.faults.read_timeout",
        before,
        Duration::from_secs(5),
    );
    // our socket is dead; a well-behaved client still gets served
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.ping().unwrap();
    server.shutdown();
}

#[test]
fn stalled_reader_is_disconnected_by_the_write_deadline() {
    let cfg = ServerConfig {
        write_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    // big documents => multi-megabyte responses that cannot fit in
    // kernel socket buffers once the reader stops draining
    let server = Server::start(executor(100, 20_000), "127.0.0.1:0", cfg).unwrap();
    let before = counter_value("toss.serve.faults.write_failed");

    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    let mut q = eq_query("E. Codd");
    q.max_results = 1000;
    let payload = Request::Query(Box::new(q)).to_payload();
    // pipeline many requests and never read a byte of the responses
    for _ in 0..12 {
        write_frame(&mut s, payload.as_bytes()).unwrap();
    }
    await_counter_above(
        "toss.serve.faults.write_failed",
        before,
        Duration::from_secs(30),
    );
    drop(s);
    server.shutdown();
}

#[test]
fn query_panic_is_isolated_as_an_internal_error_frame() {
    let server = start(ServerConfig::default());
    let panics_before = counter_value("toss.governor.panics");
    let mut client = Client::connect(server.local_addr()).unwrap();
    match client.query(similar_query(PANIC_PROBE)) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("poisoned query must yield a typed internal error, got {other:?}"),
    }
    assert!(counter_value("toss.governor.panics") > panics_before);
    // same connection, same server: both alive
    client.ping().unwrap();
    assert_eq!(client.query(eq_query("E. Codd")).unwrap().answers, 10);
    server.shutdown();
}

#[test]
fn budget_class_deadline_is_enforced_as_a_typed_error() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut q = similar_query(SLOW_PROBE); // ≥25 ms per metric probe
    q.timeout_ms = Some(1);
    q.class = BudgetClass::BestEffort;
    match client.query(q) {
        Err(ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::BudgetExceeded);
        }
        other => panic!("expected budget_exceeded, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn overload_is_shed_with_a_retry_hint_and_queue_wait_is_recorded() {
    let cfg = ServerConfig {
        max_concurrent_queries: 1,
        max_queue_wait: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let addr = server.local_addr();
    let wait_hist_before = toss_obs::metrics::snapshot()
        .histogram("toss.governor.queue_wait_ns")
        .map(|h| h.count)
        .unwrap_or(0);

    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let barrier = barrier.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                client.query(similar_query(SLOW_PROBE))
            })
        })
        .collect();
    let mut ok = 0;
    let mut shed = 0;
    for h in handles {
        match h.join().expect("client threads never panic") {
            Ok(_) => ok += 1,
            Err(ClientError::Server {
                code: ErrorCode::Overloaded,
                retry_after_ms,
                ..
            }) => {
                assert!(
                    retry_after_ms.unwrap_or(0) >= 10,
                    "shed load must carry a usable retry hint"
                );
                shed += 1;
            }
            Err(other) => panic!("unexpected failure under overload: {other:?}"),
        }
    }
    assert!(ok >= 1, "one slot exists, someone must win it");
    assert!(shed >= 1, "1 slot + 10ms queue for 6 slow queries must shed");
    // the rejection path records how long the shed query waited
    let wait_hist_after = toss_obs::metrics::snapshot()
        .histogram("toss.governor.queue_wait_ns")
        .map(|h| h.count)
        .unwrap_or(0);
    assert!(wait_hist_after > wait_hist_before);
    server.shutdown();
}

#[test]
fn connection_limit_rejects_with_overloaded_frame() {
    let cfg = ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let mut first = Client::connect(server.local_addr()).unwrap();
    first.ping().unwrap(); // guarantees registration completed

    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    let resp = read_frame(&mut second, 1 << 20, Some(Duration::from_secs(5))).unwrap();
    let v = toss_json::Value::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(v.get("code").and_then(|x| x.as_str()), Some("overloaded"));
    assert!(v.get("retry_after_ms").and_then(|x| x.as_i64()).unwrap_or(0) > 0);
    match read_frame(&mut second, 1 << 20, Some(Duration::from_secs(5))) {
        Err(FrameError::Closed) => {}
        other => panic!("rejected connection must be closed, got {other:?}"),
    }
    first.ping().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_verb_drains_when_enabled() {
    let cfg = ServerConfig {
        allow_shutdown_verb: true,
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let addr = server.local_addr();
    let waiter = thread::spawn(move || server.serve_until_shutdown());
    let mut client = Client::connect(addr).unwrap();
    client.shutdown_server().unwrap();
    let report = waiter.join().unwrap();
    assert_eq!(report.forced_closes, 0, "idle drain needs no force-close");
}

/// The chaos drain: slow queries in flight on several connections, then
/// `shutdown`. Every query completes or is cancelled within the drain
/// window; every client reads a *whole* frame; nothing panics.
#[test]
fn drain_completes_or_cancels_in_flight_queries_without_partial_frames() {
    let cfg = ServerConfig {
        drain_deadline: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let server = start(cfg);
    let addr = server.local_addr();
    let panics_before = counter_value("toss.governor.panics");

    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let barrier = barrier.clone();
            thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let mut q = similar_query(SLOW_PROBE); // runs for ~1s
                q.class = BudgetClass::Batch; // 30s deadline: only drain stops it
                barrier.wait();
                write_frame(&mut s, Request::Query(Box::new(q)).to_payload().as_bytes())
                    .unwrap();
                // The invariant under drain: a WHOLE frame, ok or typed
                // error. HalfFrame = a torn response; Closed = a dropped
                // in-flight query. Both are bugs.
                let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(10)))
                    .unwrap_or_else(|e| panic!("client {i}: partial/no frame: {e:?}"));
                let v =
                    toss_json::Value::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
                match v.get("status").and_then(|x| x.as_str()) {
                    Some("ok") => "ok",
                    Some("error") => {
                        let code = v.get("code").and_then(|x| x.as_str()).unwrap().to_string();
                        assert!(
                            code == "cancelled" || code == "shutting_down",
                            "client {i}: drain may only cancel, got {code}"
                        );
                        "cancelled"
                    }
                    other => panic!("client {i}: malformed status {other:?}"),
                }
            })
        })
        .collect();

    // wait until every query is actually executing, then pull the plug
    let t0 = Instant::now();
    while server.inflight() < n {
        assert!(t0.elapsed() < Duration::from_secs(10), "queries never started");
        thread::sleep(Duration::from_millis(10));
    }
    let report = server.shutdown();

    let outcomes: Vec<&str> = clients
        .into_iter()
        .map(|h| h.join().expect("no client panics"))
        .collect();
    let cancelled_seen = outcomes.iter().filter(|o| **o == "cancelled").count();
    assert_eq!(outcomes.len(), n);
    assert_eq!(
        report.drained + report.cancelled,
        n,
        "every in-flight query is accounted for: {report:?}"
    );
    assert!(
        report.cancelled >= cancelled_seen,
        "server-side cancels cover client-observed ones: {report:?} vs {cancelled_seen}"
    );
    assert_eq!(report.forced_closes, 0, "clean drain: {report:?}");
    assert!(
        report.duration < Duration::from_secs(3),
        "drain must be bounded: {report:?}"
    );
    assert_eq!(
        counter_value("toss.governor.panics"),
        panics_before,
        "zero executor panics through the whole drain"
    );
}

// ---------------------------------------------------------------------
// Live write path: mutation frames, group-commit WAL, dedupe, degraded
// mode, checkpoints, and the deterministic crash campaign
// (`docs/robustness.md`).
// ---------------------------------------------------------------------

#[test]
fn read_only_server_rejects_mutation_frames_with_a_typed_error() {
    let server = start(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client
        .write_keyed(insert_op("ro", "Nobody"), BudgetClass::Batch, &next_write_key())
        .expect_err("a read-only server must refuse writes");
    match err {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("read-only"), "{message}");
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    // rejecting the write never hurt the connection
    client.ping().unwrap();
    server.shutdown();
}

/// The tentpole round trip plus the retry satellite: a write is
/// acknowledged only after its batch fsyncs and is immediately visible
/// to reads; resending it under the **same idempotency key** (the
/// lost-ack retry shape) dedupes to one application and replays the
/// original ack. Write telemetry lands in the flight recorder (`op`,
/// batch size, fsync latency, dedupe flag) and the `stats` write block.
#[test]
fn writes_commit_live_and_a_retried_write_dedupes_to_one_application() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    let server = start_writable(&vfs, ServerConfig::default(), WriteConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let key = next_write_key();
    let op = insert_op("retry-dup", "Retry Author");
    let first = client
        .write_keyed(op.clone(), BudgetClass::Interactive, &key)
        .expect("first send commits");
    assert!(first.seq > 0, "acks carry the journal seq");
    assert!(!first.deduped, "a fresh key is not a replay");
    assert!(first.batch_size >= 1 && first.fsync_ns > 0, "{first:?}");
    let doc_id = first.doc_id.expect("inserts report the assigned doc id");

    // ack ⇒ visible: an in-flight read right after the ack sees the doc
    let reply = client.query(eq_query("Retry Author")).unwrap();
    assert_eq!(reply.answers, 1, "the committed write is readable");

    // the lost-ack retry: same op, same key, resent verbatim
    let second = client
        .write_keyed(op, BudgetClass::Interactive, &key)
        .expect("the replay is answered, not re-applied");
    assert!(second.deduped, "the dedupe table must recognize the key");
    assert_eq!(second.seq, first.seq, "the original ack is replayed");
    assert_eq!(second.doc_id, Some(doc_id));
    let reply = client.query(eq_query("Retry Author")).unwrap();
    assert_eq!(reply.answers, 1, "a retried write applies exactly once");

    // write telemetry: both sends are in the flight recorder with the
    // op verb stamped; the replay carries the dedupe flag
    let records = client.slow(200, None).unwrap();
    let wrec = records
        .iter()
        .find(|r| r.query_id == first.query_id)
        .expect("the write is findable by query id");
    assert_eq!(wrec.op, "insert_doc");
    assert!(wrec.batch_size >= 1, "{wrec:?}");
    assert!(wrec.fsync_ns > 0, "{wrec:?}");
    assert!(!wrec.deduped);
    let drec = records
        .iter()
        .find(|r| r.query_id == second.query_id)
        .expect("the replay is recorded too");
    assert!(drec.deduped, "{drec:?}");

    // ...and in the stats frame's write block
    let stats = client.stats().unwrap();
    assert!(stats.write.writable && !stats.write.degraded, "{:?}", stats.write);
    assert!(stats.write.applied >= 1 && stats.write.deduped >= 1, "{:?}", stats.write);
    assert!(stats.write.last_seq >= first.seq, "{:?}", stats.write);
    assert!(stats.write.revision >= 1, "applied batches bump the revision");
    server.shutdown();
}

/// Idempotency keys ride inside the journal records, so the dedupe
/// table survives a clean restart: a retry against the *restarted*
/// server (ack lost right before shutdown, from the client's view)
/// replays the original ack instead of applying a second time.
#[test]
fn retried_write_dedupes_across_a_server_restart() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 3);
    let key = next_write_key();
    let op = insert_op("restart-dup", "Restart Author");

    let server = start_writable(&vfs, ServerConfig::default(), WriteConfig::default());
    let first = Client::connect(server.local_addr())
        .unwrap()
        .write_keyed(op.clone(), BudgetClass::Interactive, &key)
        .expect("the original commits");
    assert!(!first.deduped);
    server.shutdown();

    // the client never saw the ack and retries against the restarted
    // server with the same key — the reseeded table must recognize it
    let server = start_writable(&vfs, ServerConfig::default(), WriteConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let second = client
        .write_keyed(op, BudgetClass::Interactive, &key)
        .expect("the replay is answered, not re-applied");
    assert!(second.deduped, "journaled keys must reseed the dedupe table");
    assert_eq!(second.seq, first.seq, "the original ack's seq is replayed");
    assert_eq!(second.doc_id, None, "replayed-from-journal acks carry no doc id");

    let reply = client.query(eq_query("Restart Author")).unwrap();
    assert_eq!(reply.answers, 1, "one application across the restart");
    server.shutdown();
}

/// Ontology mutations grow the live SEO: after `add_edge`, a `below`
/// query resolves through the re-enhanced ontology on the very next
/// read (revision-bumped visibility, rewrite cache invalidated).
#[test]
fn ontology_writes_grow_the_live_seo_for_below_queries() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    let server = start_writable(&vfs, ServerConfig::default(), WriteConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut probe = QueryRequest::new("chaos", "inproceedings");
    probe.below.push(("author".into(), "relational-pioneer".into()));
    let before = match client.query(probe.clone()) {
        Ok(reply) => reply.answers,
        Err(ClientError::Server { .. }) => 0, // unknown term: also fine
        Err(e) => panic!("transport failure: {e}"),
    };
    assert_eq!(before, 0, "the edge does not exist yet");

    let r = client
        .write_keyed(
            WriteOp::AddEdge {
                below: "E. Codd".into(),
                above: "relational-pioneer".into(),
            },
            BudgetClass::Interactive,
            &next_write_key(),
        )
        .expect("add_edge commits");
    assert!(r.seq > 0);

    let reply = client.query(probe).expect("below query after the edge");
    assert_eq!(reply.answers, 2, "E. Codd docs resolve below the new term");

    // an invalid edge (cycle) is rejected with a typed error and the
    // server stays healthy
    let err = client
        .write_keyed(
            WriteOp::AddEdge {
                below: "relational-pioneer".into(),
                above: "E. Codd".into(),
            },
            BudgetClass::Interactive,
            &next_write_key(),
        )
        .expect_err("a cycle must be rejected");
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected typed rejection, got {other:?}"),
    }
    client.ping().unwrap();
    server.shutdown();
}

/// One store, one ontology, whichever front door opens it: an edge a
/// writable server acknowledged answers the same `below` query after a
/// read-only open of the store — from the journal tail before any
/// checkpoint, from the ontology sidecar after a `checkpoint` frame has
/// folded it, and from the journal tail again after the CLI's
/// `db checkpoint` and `db recover` (`DurableDatabase::checkpoint`, then
/// `recover_with`), which write no sidecar and so keep the record.
#[test]
fn read_only_open_serves_the_ontology_the_writable_server_acked() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fold {
        None,
        ServingCheckpoint,
        CheckpointThenRecover,
    }
    for fold in [
        Fold::None,
        Fold::ServingCheckpoint,
        Fold::CheckpointThenRecover,
    ] {
        let vfs = Arc::new(FaultVfs::new());
        seed_writable(&vfs, 6);
        let wcfg = WriteConfig {
            checkpoint_every: 0, // only the explicit checkpoint frame
            ..WriteConfig::default()
        };
        let server = start_writable(&vfs, ServerConfig::default(), wcfg);
        let mut client = Client::connect(server.local_addr()).unwrap();
        let edge = WriteOp::AddEdge {
            below: "E. Codd".into(),
            above: "relational-pioneer".into(),
        };
        client
            .write_keyed(edge, BudgetClass::Interactive, &next_write_key())
            .expect("add_edge commits");
        let mut below = QueryRequest::new("chaos", "inproceedings");
        below.below.push(("author".into(), "relational-pioneer".into()));
        let live = client.query(below.clone()).expect("live below query").answers;
        assert_eq!(live, 2, "E. Codd docs resolve below the new term");
        if fold == Fold::ServingCheckpoint {
            client.checkpoint().expect("checkpoint frame");
            assert!(vfs.exists(&toss_serve::sidecar_path(Path::new(SNAP))));
        }
        server.shutdown();
        if fold == Fold::CheckpointThenRecover {
            let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
            DurableDatabase::open_with(SNAP, DatabaseConfig::unlimited(), dyn_vfs.clone())
                .unwrap()
                .checkpoint()
                .unwrap();
            DurableDatabase::recover_with(SNAP, DatabaseConfig::unlimited(), dyn_vfs).unwrap();
        }

        let opened = open_seeded(&vfs, None);
        assert!(opened.engine.is_none(), "a read-only open has no write path");
        let service = Service::new(
            Arc::new(RwLock::new(chaos_executor(opened))),
            &ServerConfig::default(),
        )
        .unwrap();
        let out = service.query(&below).result.expect("read-only below query");
        assert_eq!(out.forest.len(), live, "folded by: {fold:?}");
    }
}

/// Background checkpoint + restart: an explicit `checkpoint` frame
/// folds the journal after a verified snapshot; the ontology sidecar
/// is written first, so a crash after the checkpoint restores both the
/// documents and the grown ontology on the next (strict) startup. The
/// checkpoint also rebases the live index onto the segment it wrote:
/// the delta holding the insert empties, and every probe still answers
/// like an index rebuilt from the snapshot.
#[test]
fn checkpoint_survives_crash_and_sidecar_restores_the_ontology() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 3);
    let wcfg = WriteConfig {
        checkpoint_every: 0, // only explicit checkpoint frames
        ..WriteConfig::default()
    };
    let (server, exec) = start_writable_with_executor(&vfs, ServerConfig::default(), wcfg);
    let delta_bytes = || {
        let exec = exec.read().unwrap();
        let coll = exec.db.collection("chaos").unwrap();
        assert!(coll.is_frozen(), "writes land beside the frozen base");
        coll.index_bytes().0
    };
    {
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .write_keyed(insert_op("ck1", "Checkpoint Author"), BudgetClass::Interactive, &next_write_key())
            .unwrap();
        client
            .write_keyed(
                WriteOp::AddEdge {
                    below: "E. Codd".into(),
                    above: "relational-pioneer".into(),
                },
                BudgetClass::Interactive,
                &next_write_key(),
            )
            .unwrap();
        assert!(delta_bytes() > 0, "the insert is in the delta");
        let folded = client.checkpoint().expect("checkpoint frame");
        assert!(folded >= 2, "both journaled writes are folded, got {folded}");
        let stats = client.stats().unwrap();
        assert!(stats.write.checkpoints >= 1, "{:?}", stats.write);
        assert_eq!(delta_bytes(), 0, "the checkpoint rebased the index");
    }
    // a rebuild: the snapshot alone, without its `.seg` sidecar
    let rebuild_vfs = FaultVfs::new();
    rebuild_vfs.corrupt(Path::new(SNAP), vfs.read(Path::new(SNAP)).unwrap());
    let (rebuilt, _) = DurableDatabase::open_read_only_with(
        Path::new(SNAP),
        DatabaseConfig::unlimited(),
        &rebuild_vfs,
    )
    .unwrap();
    let rebuilt = rebuilt.collection("chaos").unwrap();
    assert!(!rebuilt.is_frozen());
    {
        let exec = exec.read().unwrap();
        let live = exec.db.collection("chaos").unwrap();
        for tag in ["inproceedings", "author", "booktitle"] {
            assert_eq!(
                live.index().by_tag(tag).to_vec(),
                rebuilt.index().by_tag(tag).to_vec()
            );
        }
        for author in ["Jeff Ullman", "E. Codd", "Checkpoint Author"] {
            assert_eq!(
                live.index().by_tag_content("author", author).to_vec(),
                rebuilt.index().by_tag_content("author", author).to_vec(),
            );
        }
    }
    server.shutdown();
    vfs.crash(); // power loss after the checkpoint: it must all be durable

    let server2 = start_writable(&vfs, ServerConfig::default(), WriteConfig::default());
    let mut client = Client::connect(server2.local_addr()).unwrap();
    let reply = client.query(eq_query("Checkpoint Author")).unwrap();
    assert_eq!(reply.answers, 1, "the checkpointed insert survived the crash");
    let mut below = QueryRequest::new("chaos", "inproceedings");
    below.below.push(("author".into(), "relational-pioneer".into()));
    let reply = client.query(below).expect("sidecar-restored ontology");
    assert_eq!(reply.answers, 1, "the ontology edge survived via the sidecar");
    server2.shutdown();
}

/// The graceful-degradation tentpole leg: sustained journal faults
/// (the ENOSPC shape) flip the server to read-only degraded — writes
/// get a typed `degraded` frame with a reason and a retry hint, reads
/// keep serving — and a healed disk self-heals it via probe writes.
#[test]
fn persistent_journal_faults_degrade_to_read_only_then_self_heal() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    let wcfg = WriteConfig {
        append_retries: 1,
        append_backoff: Duration::from_millis(1),
        tick: Duration::from_millis(10), // fast probe cadence
        checkpoint_every: 0,
    };
    let server = start_writable(&vfs, ServerConfig::default(), wcfg);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // healthy first: the write path works before the disk dies
    client
        .write_keyed(insert_op("pre-fault", "Healthy Author"), BudgetClass::Interactive, &next_write_key())
        .expect("healthy write");

    // the disk dies persistently: every mutating fs op fails from here
    vfs.fail_from(vfs.op_count(), FaultMode::Error);

    // the write that exhausts the retry budget gets the typed frame...
    let err = client
        .write_keyed(insert_op("lost-1", "Degraded Author"), BudgetClass::Interactive, &next_write_key())
        .expect_err("an unjournalable write must fail");
    match err {
        ClientError::Server { code, retry_after_ms, .. } => {
            assert_eq!(code, ErrorCode::Degraded);
            assert!(code.is_retryable(), "degraded is a retryable condition");
            assert!(retry_after_ms.unwrap_or(0) > 0, "degraded carries a retry hint");
        }
        other => panic!("expected degraded, got {other:?}"),
    }
    // ...and later writes are rejected at ingress, also typed
    let err = client
        .write_keyed(insert_op("lost-2", "Degraded Author"), BudgetClass::Interactive, &next_write_key())
        .expect_err("degraded mode rejects writes at ingress");
    match err {
        ClientError::Server { code, message, .. } => {
            assert_eq!(code, ErrorCode::Degraded);
            assert!(!message.is_empty(), "the degraded frame carries a reason");
        }
        other => panic!("expected degraded, got {other:?}"),
    }

    // reads keep serving the consistent pre-fault state
    let reply = client.query(eq_query("Healthy Author")).unwrap();
    assert_eq!(reply.answers, 1, "reads must survive degradation");
    let stats = client.stats().unwrap();
    assert!(stats.write.degraded, "{:?}", stats.write);
    assert!(!stats.write.reason.is_empty(), "{:?}", stats.write);
    // the degraded state is exported as a gauge for alerting. The
    // registry is process-global: another test's server starting or
    // exporting between this server's refresh and its export can leave
    // its own value there, so read a bounded number of times.
    let mut text = String::new();
    for _ in 0..50 {
        text = client.metrics().unwrap();
        if text.contains("toss_serve_degraded 1") {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    assert!(text.contains("toss_serve_degraded 1"), "{text}");

    // the disk comes back; a probe write self-heals the server
    vfs.heal();
    let t0 = Instant::now();
    let healed = loop {
        match client.write_keyed(
            insert_op("post-heal", "Healed Author"),
            BudgetClass::Interactive,
            &next_write_key(),
        ) {
            Ok(reply) => break reply,
            Err(ClientError::Server { code: ErrorCode::Degraded, .. })
                if t0.elapsed() < Duration::from_secs(10) =>
            {
                thread::sleep(Duration::from_millis(20));
            }
            Err(other) => panic!("unexpected failure while healing: {other:?}"),
        }
    };
    assert!(healed.seq > 0, "writes resume after self-heal");
    let stats = client.stats().unwrap();
    assert!(!stats.write.degraded, "self-heal must clear the state: {:?}", stats.write);
    let reply = client.query(eq_query("Healed Author")).unwrap();
    assert_eq!(reply.answers, 1);
    server.shutdown();
}

/// The deterministic crash campaign (`docs/robustness.md`): for each
/// seed, derive a fault schedule, arm it on the store's [`FaultVfs`],
/// drive a **live server** through interleaved reads and writes over
/// real sockets, then kill (drain + power loss) and recover. The
/// invariant, per seed: every *acknowledged* write survives — ack ⇒
/// fsynced ⇒ durable — nothing unsent appears, and reads never see a
/// transport failure while faults fire.
///
/// `TOSS_CRASH_SEEDS` overrides the seed count (verify.sh smoke runs
/// fewer; the default is the full campaign).
#[test]
fn crash_campaign_every_acknowledged_write_survives_kill_and_recover() {
    let seeds: u64 = std::env::var("TOSS_CRASH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50);
    for seed in 0..seeds {
        let vfs = Arc::new(FaultVfs::new());
        seed_writable(&vfs, 3);
        let wcfg = WriteConfig {
            append_retries: 1,
            append_backoff: Duration::from_millis(1),
            tick: Duration::from_millis(5),
            checkpoint_every: 4, // checkpoints land mid-campaign too
        };
        let server = start_writable(&vfs, ServerConfig::default(), wcfg);
        let addr = server.local_addr();

        // shift the schedule past the ops setup already performed, so
        // every seed's faults land inside the measured workload
        let base_op = vfs.op_count();
        let mut schedule = FaultSchedule::seeded(seed, 40);
        for ev in &mut schedule.events {
            match ev {
                ScheduledFault::Once { op, .. } | ScheduledFault::From { op, .. } => {
                    *op += base_op
                }
            }
        }
        schedule.arm(&vfs);

        let mut client = Client::connect(addr).unwrap();
        let mut acked: Vec<String> = Vec::new();
        let mut sent: Vec<String> = Vec::new();
        for i in 0..10 {
            let marker = format!("c{seed}x{i}");
            sent.push(marker.clone());
            match client.write_keyed(
                insert_op(&marker, "Campaign Author"),
                BudgetClass::Interactive,
                &next_write_key(),
            ) {
                Ok(reply) => {
                    assert!(reply.seq > 0, "seed {seed}: ack without a seq");
                    acked.push(marker);
                }
                // typed failure (degraded, rejected, …): not acked
                Err(ClientError::Server { .. }) => {}
                Err(e) => panic!("seed {seed}: write transport failure: {e}"),
            }
            // interleaved read: the consistent snapshot must keep
            // serving no matter what the fault schedule does to disk
            match client.query(eq_query("E. Codd")) {
                Ok(reply) => assert!(
                    reply.answers >= 1,
                    "seed {seed}: read lost the base documents"
                ),
                Err(ClientError::Server { .. }) => {}
                Err(e) => panic!("seed {seed}: read transport failure: {e}"),
            }
        }
        server.shutdown(); // drain: every enqueued write commits or fails
        vfs.crash(); // power loss: unsynced bytes are gone, faults cleared

        let (recovered, _report) = DurableDatabase::recover_with(
            SNAP,
            DatabaseConfig::unlimited(),
            vfs.clone() as Arc<dyn Vfs>,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        let coll = recovered
            .db()
            .collection("chaos")
            .unwrap_or_else(|_| panic!("seed {seed}: collection lost"));
        let dump: Vec<String> = coll
            .documents()
            .iter()
            .map(|d| tree_to_xml(&d.tree, Style::Compact))
            .collect();
        for marker in &acked {
            assert!(
                dump.iter().any(|x| x.contains(marker.as_str())),
                "seed {seed}: ACKNOWLEDGED write {marker} lost after crash \
                 (acked {}, recovered {} docs)",
                acked.len(),
                dump.len(),
            );
        }
        // nothing that was never sent can appear
        for doc in &dump {
            if let Some(pos) = doc.find("key=\"c") {
                let tail = &doc[pos + 5..];
                let marker: String =
                    tail.chars().take_while(|c| *c != '"').collect();
                assert!(
                    sent.contains(&marker),
                    "seed {seed}: phantom write {marker} appeared"
                );
            }
        }
    }
}
