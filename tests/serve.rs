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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use toss_core::Executor;
use toss_ontology::hierarchy::{from_pairs, Hierarchy};
use toss_ontology::sea::enhance;
use toss_ontology::seo::Seo;
use toss_segment::{Segment, SegmentBuilder};
use toss_serve::protocol::{read_frame, write_frame, FrameError, Request};
use toss_serve::{
    next_write_key, BudgetClass, Client, ClientError, Enhancer, ErrorCode, OpenStore,
    QueryRequest, Server, ServerConfig, Service, WriteConfig, WriteOp,
};
use toss_similarity::{Levenshtein, StringMetric};
use toss_tree::serialize::{tree_to_xml, Style};
use toss_xmldb::segidx::seg_path;
use toss_xmldb::{
    Database, DatabaseConfig, DurableDatabase, FaultMode, FaultSchedule, FaultVfs, JournalRecord,
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
    let (mut d, _) =
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

/// SEA under Levenshtein at `epsilon`, as the stores here re-enhance.
fn levenshtein_enhancer(epsilon: f64) -> Enhancer {
    Box::new(move |h| enhance(h, &Levenshtein, epsilon).map_err(|e| e.to_string()))
}

/// Open the seeded store by [`toss_serve::open_store`], the rule every
/// front door follows, with the chaos SEO as the baseline for a store
/// that has no ontology sidecar yet; `write` opens it writable.
fn open_seeded(vfs: &Arc<FaultVfs>, write: Option<WriteConfig>) -> OpenStore {
    try_open_seeded(vfs, write).unwrap()
}

/// [`open_seeded`], returning the open's error.
fn try_open_seeded(vfs: &Arc<FaultVfs>, write: Option<WriteConfig>) -> Result<OpenStore, String> {
    toss_serve::open_store(
        vfs.clone(),
        Path::new(SNAP),
        enhance(&chaos_hierarchy(), &Levenshtein, 1.0).unwrap(),
        levenshtein_enhancer,
        write,
    )
}

/// The seeded store opened by `DurableDatabase`, as `toss-cli load`
/// and `db checkpoint` open it, with the store's own ontology as
/// `toss-cli` reads it: [`cli_ontology`] over the records the open
/// replayed.
fn cli_open(vfs: Arc<dyn Vfs>) -> (DurableDatabase, Result<Option<Seo>, String>) {
    let (store, records) =
        DurableDatabase::open_with(SNAP, DatabaseConfig::unlimited(), vfs.clone()).unwrap();
    let seo = cli_ontology(&*vfs, &records);
    (store, seo)
}

/// `toss-cli`'s read of the store's own ontology:
/// [`toss_serve::store_ontology`] over the journal `records` an open
/// returned, with no baseline.
fn cli_ontology(vfs: &dyn Vfs, records: &[JournalRecord]) -> Result<Option<Seo>, String> {
    let ontology =
        toss_serve::store_ontology(vfs, Path::new(SNAP), records, None, levenshtein_enhancer)?;
    Ok(ontology.map(|o| o.seo))
}

/// `toss-cli`'s checkpoint: [`toss_serve::checkpoint_store`] with the
/// store's own ontology. Returns the journal records it kept.
fn cli_checkpoint(store: DurableDatabase, seo: Option<&Seo>) -> usize {
    let (db, mut writer) = store.into_parts();
    toss_serve::checkpoint_store(&mut writer, &db, seo).unwrap();
    writer.pending_journal_ops().unwrap()
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

/// A frame of nothing but `[` nests 500 000 levels deep. The JSON parser
/// refuses it at its depth cap instead of recursing once per level on a
/// connection thread's stack (which aborts the whole process), and the
/// server keeps serving.
#[test]
fn json_nested_past_the_cap_gets_bad_request_and_the_server_keeps_serving() {
    let server = start(ServerConfig::default());
    let mut s = TcpStream::connect(server.local_addr()).unwrap();
    write_frame(&mut s, &[b'['; 500_000]).unwrap();
    let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(30))).unwrap();
    let v = toss_json::Value::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(v.get("code").and_then(|x| x.as_str()), Some("bad_request"));
    let message = v.get("message").and_then(|x| x.as_str()).unwrap();
    assert!(
        message.contains("nesting depth 257 exceeds the limit of 256"),
        "{message}"
    );
    write_frame(&mut s, Request::Ping.to_payload().as_bytes()).unwrap();
    let resp = read_frame(&mut s, 1 << 20, Some(Duration::from_secs(5))).unwrap();
    assert!(std::str::from_utf8(&resp).unwrap().contains("\"ok\""));
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

    let before = counter_value("toss.serve.errors.overloaded");
    let mut second = TcpStream::connect(server.local_addr()).unwrap();
    let resp = read_frame(&mut second, 1 << 20, Some(Duration::from_secs(5))).unwrap();
    let v = toss_json::Value::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(v.get("code").and_then(|x| x.as_str()), Some("overloaded"));
    // counted under its code, beside `toss.serve.conns_rejected`
    assert!(counter_value("toss.serve.errors.overloaded") > before);
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

/// A write whose ack misses its class deadline is answered `overloaded`
/// with a retry hint and counted like every other `overloaded` answer;
/// the writer still commits it, and a resend with the same key dedupes.
#[test]
fn a_write_ack_timeout_is_counted_and_the_write_still_applies() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    let mut opened = open_seeded(&vfs, Some(WriteConfig::default()));
    let mut engine = opened.engine.take().expect("opened writable");
    // SEA outlasts the `best_effort` class deadline (250 ms)
    engine.enhancer = Box::new(|h| {
        thread::sleep(Duration::from_millis(400));
        enhance(h, &Levenshtein, 1.0).map_err(|e| e.to_string())
    });
    let exec = Arc::new(RwLock::new(chaos_executor(opened)));
    let server =
        Server::start_writable(exec, engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let before = counter_value("toss.serve.errors.overloaded");
    let key = next_write_key();
    let op = WriteOp::AddTerm {
        terms: vec!["ack-timeout-term".into()],
    };
    match client.write_keyed(op.clone(), BudgetClass::BestEffort, &key) {
        Err(ClientError::Server {
            code: ErrorCode::Overloaded,
            retry_after_ms: Some(_),
            ..
        }) => {}
        other => panic!("expected an overloaded ack timeout, got {other:?}"),
    }
    assert!(counter_value("toss.serve.errors.overloaded") > before);

    // the writer finishes the job after the answer went out
    let t0 = Instant::now();
    while client.stats().unwrap().write.applied < 1 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the timed-out write never applied"
        );
        thread::sleep(Duration::from_millis(20));
    }
    let resent = client
        .write_keyed(op, BudgetClass::Interactive, &key)
        .expect("the resend is answered");
    assert!(resent.deduped, "{resent:?}");
    server.shutdown();
}

/// A writer that dies drops the job's reply without answering: the
/// client is told `internal` with no retry hint, long before the class
/// deadline, and the answer is counted. The panic leaves the server
/// read-only and says why: `stats` shows it degraded with the panic's
/// message, and the next write is refused `degraded` at ingress.
#[test]
fn a_dead_writer_is_answered_internal_not_overloaded() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    let mut opened = open_seeded(&vfs, Some(WriteConfig::default()));
    let mut engine = opened.engine.take().expect("opened writable");
    engine.enhancer = Box::new(|_| panic!("the enhancer panics"));
    let exec = Arc::new(RwLock::new(chaos_executor(opened)));
    let server =
        Server::start_writable(exec, engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let before = counter_value("toss.serve.errors.internal");
    let op = WriteOp::AddTerm {
        terms: vec!["dead-writer-term".into()],
    };
    // the batch class waits up to 30 s for an ack
    let t0 = Instant::now();
    match client.write_keyed(op, BudgetClass::Batch, &next_write_key()) {
        Err(ClientError::Server {
            code: ErrorCode::Internal,
            retry_after_ms: None,
            ..
        }) => {}
        other => panic!("expected `internal` from a dead writer, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "answered after {:?}",
        t0.elapsed()
    );
    assert!(counter_value("toss.serve.errors.internal") > before);

    // the job is dropped while the writer unwinds, just before the
    // state flips, so the answer can overtake it
    let reason = "writer thread panicked: the enhancer panics";
    let t0 = Instant::now();
    let mut write = client.stats().unwrap().write;
    while !write.degraded {
        assert!(t0.elapsed() < Duration::from_secs(10), "{write:?}");
        thread::yield_now();
        write = client.stats().unwrap().write;
    }
    assert_eq!(write.reason, reason);
    // the process-global gauge, read until this server's export wins as
    // in `persistent_journal_faults_degrade_to_read_only_then_self_heal`
    while !client.metrics().unwrap().contains("toss_serve_degraded 1") {
        assert!(t0.elapsed() < Duration::from_secs(10), "toss.serve.degraded never read 1");
        thread::sleep(Duration::from_millis(20));
    }

    let before = counter_value("toss.serve.errors.degraded");
    match client.write_keyed(
        insert_op("after-death", "Nobody"),
        BudgetClass::Batch,
        &next_write_key(),
    ) {
        Err(ClientError::Server {
            code: ErrorCode::Degraded,
            message,
            ..
        }) => assert!(message.ends_with(reason), "{message}"),
        other => panic!("expected `degraded` once the writer is gone, got {other:?}"),
    }
    assert!(counter_value("toss.serve.errors.degraded") > before);
    server.shutdown();
}

/// A write queued behind the job a writer panics on is not dropped with
/// it: the dying writer refuses it `degraded`, with the panic's reason.
#[test]
fn a_write_queued_behind_a_writer_panic_is_refused_degraded() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    let mut opened = open_seeded(&vfs, Some(WriteConfig::default()));
    let mut engine = opened.engine.take().expect("opened writable");
    // the enhancer says it has the first job, then panics when released
    let (entered_tx, entered_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    engine.enhancer = Box::new(move |_| {
        entered_tx.send(()).ok();
        release_rx.recv().ok();
        panic!("the gated enhancer panics")
    });
    let exec = Arc::new(RwLock::new(chaos_executor(opened)));
    let server =
        Server::start_writable(exec, engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let write = move |op: WriteOp| {
        thread::spawn(move || {
            Client::connect(addr)
                .unwrap()
                .write_keyed(op, BudgetClass::Batch, &next_write_key())
        })
    };

    let first = write(WriteOp::AddTerm {
        terms: vec!["gated-term".into()],
    });
    entered_rx.recv_timeout(Duration::from_secs(10)).expect("the writer took the first job");
    let queued = write(insert_op("queued", "Queued Author"));
    // both writes are in flight once the second is in the queue
    let t0 = Instant::now();
    while server.inflight() < 2 {
        assert!(t0.elapsed() < Duration::from_secs(10), "the second write never queued");
        thread::yield_now();
    }
    release_tx.send(()).unwrap();

    match first.join().unwrap() {
        Err(ClientError::Server {
            code: ErrorCode::Internal,
            ..
        }) => {}
        other => panic!("expected `internal` for the dropped job, got {other:?}"),
    }
    match queued.join().unwrap() {
        Err(ClientError::Server {
            code: ErrorCode::Degraded,
            message,
            ..
        }) => assert!(
            message.ends_with("writer thread panicked: the gated enhancer panics"),
            "{message}"
        ),
        other => panic!("expected `degraded` for the queued job, got {other:?}"),
    }
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
/// read-only open of the store. Before any checkpoint it comes from the
/// journal tail past the sidecar the writable open seeded. After every
/// front door's checkpoint — the `checkpoint` frame, `toss-cli db
/// checkpoint`, `load` and `db recover` — it comes from the sidecar that
/// checkpoint wrote, the journal keeps no ontology record, and the open
/// re-runs no SEA (`replayed == 0`).
#[test]
fn read_only_open_serves_the_ontology_the_writable_server_acked() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Door {
        None,
        CheckpointFrame,
        DbCheckpoint,
        Load,
        DbRecover,
    }
    for door in [
        Door::None,
        Door::CheckpointFrame,
        Door::DbCheckpoint,
        Door::Load,
        Door::DbRecover,
    ] {
        let vfs = Arc::new(FaultVfs::new());
        seed_writable(&vfs, 6);
        let sidecar = toss_serve::sidecar_path(Path::new(SNAP));
        assert!(
            !vfs.exists(&sidecar),
            "a fresh store has no ontology of its own"
        );
        let wcfg = WriteConfig {
            checkpoint_every: 0, // only the explicit checkpoint frame
            ..WriteConfig::default()
        };
        let server = start_writable(&vfs, ServerConfig::default(), wcfg);
        assert!(
            vfs.exists(&sidecar),
            "the writable open seeds the store's ontology"
        );
        let mut client = Client::connect(server.local_addr()).unwrap();
        let edge = WriteOp::AddEdge {
            below: "E. Codd".into(),
            above: "relational-pioneer".into(),
        };
        client
            .write_keyed(edge, BudgetClass::Interactive, &next_write_key())
            .expect("add_edge commits");
        let mut below = QueryRequest::new("chaos", "inproceedings");
        below
            .below
            .push(("author".into(), "relational-pioneer".into()));
        let live = client
            .query(below.clone())
            .expect("live below query")
            .answers;
        assert_eq!(live, 2, "E. Codd docs resolve below the new term");
        if door == Door::CheckpointFrame {
            client.checkpoint().expect("checkpoint frame");
        }
        server.shutdown();
        let kept = match door {
            Door::None | Door::CheckpointFrame => None,
            Door::DbCheckpoint => {
                let (store, seo) = cli_open(vfs.clone());
                Some(cli_checkpoint(store, seo.unwrap().as_ref()))
            }
            Door::Load => {
                let (mut store, seo) = cli_open(vfs.clone());
                store
                    .insert_xml(
                        "chaos",
                        "<inproceedings key=\"l1\"><author>Loaded Author</author></inproceedings>",
                    )
                    .unwrap();
                Some(cli_checkpoint(store, seo.unwrap().as_ref()))
            }
            Door::DbRecover => {
                let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
                let (store, records, report) =
                    DurableDatabase::recover_with(SNAP, DatabaseConfig::unlimited(), dyn_vfs)
                        .unwrap();
                assert!(report.is_clean(), "{report:?}");
                let seo = cli_ontology(&*vfs, &records).unwrap();
                Some(cli_checkpoint(store, seo.as_ref()))
            }
        };
        assert_eq!(kept.unwrap_or(0), 0, "{door:?} left journal records");

        let opened = open_seeded(&vfs, None);
        assert!(
            opened.engine.is_none(),
            "a read-only open has no write path"
        );
        let want_replayed = usize::from(door == Door::None);
        assert_eq!(opened.replayed, want_replayed, "replayed after {door:?}");
        let service = Service::new(
            Arc::new(RwLock::new(chaos_executor(opened))),
            &ServerConfig::default(),
        )
        .unwrap();
        let out = service.query(&below).result.expect("read-only below query");
        assert_eq!(out.forest.len(), live, "checkpointed by: {door:?}");
    }
}

/// A [`Vfs`] over a [`FaultVfs`] that counts reads of the store's
/// journal and `.seg` index sidecar, and renames onto its snapshot (one
/// per snapshot written).
struct CountingVfs {
    inner: Arc<FaultVfs>,
    wal_reads: AtomicUsize,
    seg_reads: AtomicUsize,
    snapshot_writes: AtomicUsize,
}

impl CountingVfs {
    fn new(inner: Arc<FaultVfs>) -> Self {
        CountingVfs {
            inner,
            wal_reads: AtomicUsize::new(0),
            seg_reads: AtomicUsize::new(0),
            snapshot_writes: AtomicUsize::new(0),
        }
    }

    /// (journal reads, `.seg` reads, snapshot writes) since the last call.
    fn take(&self) -> (usize, usize, usize) {
        (
            self.wal_reads.swap(0, Ordering::SeqCst),
            self.seg_reads.swap(0, Ordering::SeqCst),
            self.snapshot_writes.swap(0, Ordering::SeqCst),
        )
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        if path == DurableDatabase::wal_path(Path::new(SNAP)) {
            self.wal_reads.fetch_add(1, Ordering::SeqCst);
        }
        if path == seg_path(Path::new(SNAP)) {
            self.seg_reads.fetch_add(1, Ordering::SeqCst);
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
        if to == Path::new(SNAP) {
            self.snapshot_writes.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// Every open reads the journal once and hands the records it replayed
/// on: a read-only and a writable `open_store`, the CLI's open with the
/// store's ontology and its checkpoint, and `db recover`'s recovery
/// with its checkpoint, which is the one snapshot it writes. Starting a
/// writable server reads the journal once more, to reseed its dedupe
/// table. Every `open_store` reads the `.seg` once, also when the
/// store's ontology sidecar is at the `.seg`'s cursor.
#[test]
fn every_open_reads_the_journal_once_and_recover_writes_the_snapshot_once() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    // a sidecar, and a journal tail past it: an acked edge and insert
    let wcfg = WriteConfig {
        checkpoint_every: 0,
        ..WriteConfig::default()
    };
    let server = start_writable(&vfs, ServerConfig::default(), wcfg);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let edge = WriteOp::AddEdge {
        below: "E. Codd".into(),
        above: "relational-pioneer".into(),
    };
    for op in [edge, insert_op("k1", "Keyed Author")] {
        client
            .write_keyed(op, BudgetClass::Interactive, &next_write_key())
            .unwrap();
    }
    server.shutdown();

    let counted = Arc::new(CountingVfs::new(vfs.clone()));
    let dyn_vfs: Arc<dyn Vfs> = counted.clone();
    let open = |write| {
        let baseline = enhance(&chaos_hierarchy(), &Levenshtein, 1.0).unwrap();
        toss_serve::open_store(
            dyn_vfs.clone(),
            Path::new(SNAP),
            baseline,
            levenshtein_enhancer,
            write,
        )
        .unwrap()
    };
    assert_eq!(open(None).replayed, 1);
    assert_eq!(counted.take(), (1, 1, 0), "read-only open_store");

    let mut opened = open(Some(WriteConfig::default()));
    assert_eq!(counted.take(), (1, 1, 0), "writable open_store");
    let engine = opened.engine.take().unwrap();
    let exec = Arc::new(RwLock::new(chaos_executor(opened)));
    let server = Server::start_writable(exec, engine, "127.0.0.1:0", ServerConfig::default());
    let (reads, _, _) = counted.take();
    assert_eq!(reads, 0, "start_writable read the journal {reads} more times");
    server.unwrap().shutdown();

    let (store, seo) = cli_open(dyn_vfs.clone());
    assert_eq!(cli_checkpoint(store, seo.unwrap().as_ref()), 0);
    assert_eq!(counted.take(), (1, 1, 1), "the CLI's open and checkpoint");

    // a new tail for recovery to replay: an insert and a term
    let (store, _) =
        DurableDatabase::open_with(SNAP, DatabaseConfig::unlimited(), vfs.clone()).unwrap();
    let (_, mut writer) = store.into_parts();
    let tail = [
        toss_xmldb::JournalOp::Insert {
            collection: "chaos".into(),
            xml: "<inproceedings key=\"r1\"><author>Recovered Author</author></inproceedings>"
                .into(),
        },
        toss_xmldb::JournalOp::AddTerm {
            terms: vec!["PODS".into()],
        },
    ];
    writer.append_batch(&tail).unwrap();
    drop(writer);
    let (store, records, report) =
        DurableDatabase::recover_with(SNAP, DatabaseConfig::unlimited(), dyn_vfs.clone())
            .unwrap();
    assert!(report.is_clean(), "{report:?}");
    assert_eq!(report.replayed_ops, 2);
    let seo = cli_ontology(&*dyn_vfs, &records).unwrap();
    assert_eq!(cli_checkpoint(store, seo.as_ref()), 0);
    assert_eq!(counted.take(), (1, 1, 1), "recover_with and its checkpoint");

    let opened = open(None);
    assert_eq!(opened.replayed, 0, "the checkpoint folded the term");
    assert_eq!(
        counted.take(),
        (1, 1, 0),
        "open_store with the ontology sidecar at the `.seg`'s cursor"
    );
    assert!(opened.seo.original().node_of("PODS").is_some());
    assert_eq!(opened.db.collection("chaos").unwrap().len(), 8);
    let service = Service::new(
        Arc::new(RwLock::new(chaos_executor(opened))),
        &ServerConfig::default(),
    )
    .unwrap();
    let mut below = QueryRequest::new("chaos", "inproceedings");
    below
        .below
        .push(("author".into(), "relational-pioneer".into()));
    let out = service.query(&below).result.unwrap();
    assert_eq!(out.forest.len(), 2, "the acked edge survives recovery");
}

/// A `.seg` written while the SEO's reachability closure was still
/// stored has one more section, of the retired kind 4. A store with
/// such a file opens with every collection frozen on it and answers a
/// `below` query as before; its next checkpoint drops the section.
#[test]
fn a_seg_with_a_retired_closure_section_still_attaches_frozen() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    let wcfg = WriteConfig {
        checkpoint_every: 0,
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
        .unwrap();
    client.checkpoint().expect("checkpoint frame");
    server.shutdown();

    let mut below = QueryRequest::new("chaos", "inproceedings");
    below
        .below
        .push(("author".into(), "relational-pioneer".into()));
    let answers = |opened: OpenStore| -> Vec<String> {
        let service = Service::new(
            Arc::new(RwLock::new(chaos_executor(opened))),
            &ServerConfig::default(),
        )
        .unwrap();
        let out = service.query(&below).result.unwrap();
        out.forest
            .iter()
            .map(|t| tree_to_xml(t, Style::Compact))
            .collect()
    };
    let before = answers(open_seeded(&vfs, None));
    assert_eq!(before.len(), 2);

    // rewrite the `.seg` as the store's previous writer did: the same
    // sections plus a closure section, whose bytes nothing reads
    const RETIRED_REACH: u32 = 4;
    let path = seg_path(Path::new(SNAP));
    let seg = Segment::parse(vfs.read(&path).unwrap()).unwrap();
    let mut old = SegmentBuilder::new(seg.last_seq());
    for (kind, name, payload) in seg.sections() {
        assert_ne!(kind, RETIRED_REACH, "a checkpoint wrote a closure section");
        old.add_section(kind, name, payload.to_vec());
    }
    old.add_section(RETIRED_REACH, "seo.enhanced", vec![0xA5; 4096]);
    vfs.corrupt(&path, old.finish());

    let opened = open_seeded(&vfs, None);
    assert_eq!(opened.replayed, 0, "the sidecar is at the `.seg`'s cursor");
    for coll in opened.db.collections() {
        let (pointer, segment) = coll.index_bytes();
        assert!(coll.is_frozen(), "{} attached no segment", coll.name());
        assert_eq!(pointer, 0, "{} rebuilt its index", coll.name());
        assert!(segment > 0, "{} has no segment bytes", coll.name());
    }
    assert_eq!(answers(opened), before, "the same answers after the reopen");

    let (store, seo) = cli_open(vfs.clone());
    assert_eq!(cli_checkpoint(store, seo.unwrap().as_ref()), 0);
    let seg = Segment::parse(vfs.read(&path).unwrap()).unwrap();
    assert!(seg.sections().all(|(kind, ..)| kind != RETIRED_REACH));
}

/// A writable server reseeds its dedupe table from the keys its journal
/// tracked since the open, not from a second read of the file: a journal
/// damaged after the store opened still starts the server, and a retry
/// of the write journaled under that key replays the original ack
/// instead of applying twice.
#[test]
fn a_journal_damaged_after_the_open_still_dedupes_its_acked_keys() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 3);
    let mut opened = open_seeded(&vfs, Some(WriteConfig::default()));
    let mut engine = opened.engine.take().unwrap();
    let (key, op) = (next_write_key(), vec!["PODS".to_string()]);
    let seqs = engine
        .writer
        .append_batch_keyed(&[(
            toss_xmldb::JournalOp::AddTerm { terms: op.clone() },
            Some(key.clone()),
        )])
        .unwrap();
    let wal = DurableDatabase::wal_path(Path::new(SNAP));
    let mut bytes = vfs.read(&wal).unwrap();
    bytes[18] ^= 0x40; // inside the record's payload: a CRC mismatch
    vfs.corrupt(&wal, bytes);
    let exec = Arc::new(RwLock::new(chaos_executor(opened)));
    let server =
        Server::start_writable(exec, engine, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let retry = client
        .write_keyed(WriteOp::AddTerm { terms: op }, BudgetClass::Interactive, &key)
        .unwrap();
    assert!(retry.deduped, "{retry:?}");
    assert_eq!(retry.seq, seqs[0]);
    server.shutdown();
}

/// A damaged ontology sidecar is an error, as a damaged snapshot is:
/// after a checkpoint folded the acked edge into the sidecar, its
/// journal record is gone, so an open that fell back to the baseline
/// would silently drop the edge. Every open — read-only, writable, the
/// CLI's read of the store's ontology — fails naming the file, and the
/// writable open's seed does not overwrite it.
#[test]
fn a_damaged_ontology_sidecar_fails_every_open_and_is_never_overwritten() {
    let vfs = Arc::new(FaultVfs::new());
    seed_writable(&vfs, 6);
    let wcfg = WriteConfig {
        checkpoint_every: 0,
        ..WriteConfig::default()
    };
    let server = start_writable(&vfs, ServerConfig::default(), wcfg);
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .write_keyed(
            WriteOp::AddEdge {
                below: "E. Codd".into(),
                above: "relational-pioneer".into(),
            },
            BudgetClass::Interactive,
            &next_write_key(),
        )
        .expect("add_edge commits");
    client.checkpoint().expect("checkpoint frame");
    server.shutdown();

    let sidecar = toss_serve::sidecar_path(Path::new(SNAP));
    let mut damaged = vfs.read(&sidecar).unwrap();
    damaged.truncate(40);
    vfs.corrupt(&sidecar, damaged.clone());
    let names_the_file = |err: String| {
        assert!(err.contains(&sidecar.display().to_string()), "{err}");
    };
    names_the_file(
        try_open_seeded(&vfs, None)
            .err()
            .expect("read-only open fails"),
    );
    names_the_file(
        try_open_seeded(&vfs, Some(WriteConfig::default()))
            .err()
            .expect("writable open fails"),
    );
    names_the_file(cli_open(vfs.clone()).1.expect_err("the CLI's read fails"));
    assert_eq!(
        vfs.read(&sidecar).unwrap(),
        damaged,
        "no open rewrote the sidecar"
    );
    assert!(toss_serve::load_sidecar(&*vfs, Path::new(SNAP)).is_none());
}

/// Fault sweep over one checkpoint that carries the ontology: every I/O
/// op it makes — the sidecar's temp write, fsync and rename, the
/// snapshot's write, fsync and rename (its verify reads between them),
/// the `.seg` write and fsync, the journal rewrite — fails in turn, and
/// the process is killed after each. After a crash and a reopen, the
/// acked insert and the acked `add_edge` answer, nothing phantom
/// appears, and the edge is in the replayed journal tail or in the
/// sidecar — never in neither.
#[test]
fn every_fault_in_an_ontology_checkpoint_keeps_the_acked_writes() {
    let insert = toss_xmldb::JournalOp::Insert {
        collection: "chaos".into(),
        xml: "<inproceedings key=\"s1\"><author>Sweep Author</author></inproceedings>".into(),
    };
    let edge = toss_xmldb::JournalOp::AddEdge {
        below: "E. Codd".into(),
        above: "relational-pioneer".into(),
    };
    // A writable open, one acked batch (an insert and the edge), and the
    // checkpoint as the writer thread runs it; `arm` injects the fault
    // once the batch is acked. Returns the checkpoint's result and how
    // many mutating ops it made.
    let run = |vfs: &Arc<FaultVfs>, arm: &dyn Fn(usize)| {
        seed_writable(vfs, 6);
        let mut opened = open_seeded(vfs, Some(WriteConfig::default()));
        let mut engine = opened.engine.take().unwrap();
        engine
            .writer
            .append_batch(&[insert.clone(), edge.clone()])
            .expect("acked");
        toss_xmldb::apply_op(&mut opened.db, &insert).unwrap();
        engine
            .hierarchy
            .add_leq("E. Codd", "relational-pioneer")
            .unwrap();
        let seo = (engine.enhancer)(&engine.hierarchy).unwrap();
        let start = vfs.op_count();
        arm(start);
        let result = toss_serve::checkpoint_store(&mut engine.writer, &opened.db, Some(&seo));
        (result, vfs.op_count() - start)
    };
    let clean = Arc::new(FaultVfs::new());
    let (result, ops) = run(&clean, &|_| {});
    result.expect("an unfaulted checkpoint lands");
    assert_eq!(
        ops, 11,
        "sidecar 3 + snapshot 3 + .seg 2 + journal rewrite 3"
    );

    let mut below = QueryRequest::new("chaos", "inproceedings");
    below
        .below
        .push(("author".into(), "relational-pioneer".into()));
    for k in 0..=ops {
        for kill in [false, true] {
            if k == ops && !kill {
                continue; // a one-shot fault past the last op never fires
            }
            let vfs = Arc::new(FaultVfs::new());
            // the checkpoint fails, or lands when only the best-effort
            // `.seg` write was hit; either way it must leave the writes
            let _ = run(&vfs, &|start| {
                if kill {
                    vfs.fail_from(start + k, FaultMode::Error);
                } else {
                    vfs.fail_op(start + k, FaultMode::Error);
                }
            });
            vfs.crash();
            let case = if kill { "killed after op" } else { "failed op" };
            let opened = try_open_seeded(&vfs, None)
                .unwrap_or_else(|e| panic!("{case} {k}: reopen failed: {e}"));
            let in_sidecar = toss_serve::load_sidecar(&*vfs, Path::new(SNAP))
                .is_some_and(|(_, seo)| seo.original().leq_terms("E. Codd", "relational-pioneer"));
            assert!(
                opened.replayed > 0 || in_sidecar,
                "{case} {k}: the edge is in neither the journal tail nor the sidecar"
            );
            assert_eq!(
                opened.db.collection("chaos").unwrap().len(),
                7,
                "{case} {k}"
            );
            let service = Service::new(
                Arc::new(RwLock::new(chaos_executor(opened))),
                &ServerConfig::default(),
            )
            .unwrap();
            let sweep = service.query(&eq_query("Sweep Author")).result.unwrap();
            assert_eq!(sweep.forest.len(), 1, "{case} {k}: the acked insert");
            let found = service.query(&below).result.unwrap();
            assert_eq!(found.forest.len(), 2, "{case} {k}: the acked edge");
        }
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
/// `TOSS_CRASH_SEEDS` overrides the seed count (a quick local run can
/// ask for fewer, e.g. `TOSS_CRASH_SEEDS=10`); the default is the full
/// 50-seed campaign, which `scripts/verify.sh` runs in its release step.
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

        let (recovered, _, _report) = DurableDatabase::recover_with(
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
            .map(|d| tree_to_xml(d.tree(), Style::Compact))
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
