//! Serving-layer load benchmark — `BENCH_serve.json`.
//!
//! An **open-loop** load generator against a real `toss-serve` TCP
//! server on an ephemeral port: requests are released on a fixed
//! schedule (arrival times do not depend on completion times, so server
//! slowdowns show up as queueing latency instead of silently throttling
//! the offered load), fanned across several persistent connections.
//! Reports sustained QPS and p50/p95/p99 end-to-end latency.
//!
//! The run doubles as a smoke test of the robustness contract:
//!
//! * one **injected fault** (a connection dropped mid-frame) lands in
//!   the middle of the load — the server must keep serving through it;
//! * the run ends with a **graceful drain** while queries are still in
//!   flight — the drain must complete or cancel them within the drain
//!   deadline without force-closing anything.
//!
//! Any violated invariant panics the binary (so `verify.sh` fails).
//! `--quick` shrinks the request count for the CI smoke step; the JSON
//! schema is identical in both modes.

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use toss_core::Executor;
use toss_json::Value;
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_serve::{
    next_write_key, BudgetClass, Client, ClientError, QueryRequest, Server, ServerConfig,
    WriteConfig, WriteEngine, WriteOp,
};
use toss_similarity::{Levenshtein, StringMetric};
use toss_xmldb::{DatabaseConfig, DurableDatabase};

/// Probe prefix that makes [`GatedMetric`] sleep per comparison: the
/// drain-phase queries use it so they are *deterministically* still in
/// flight when the shutdown lands. Load-phase probes never match it.
const DRAIN_PROBE_PREFIX: &str = "zzz-drain-probe";

struct GatedMetric;

impl StringMetric for GatedMetric {
    fn distance(&self, a: &str, b: &str) -> f64 {
        if a.starts_with(DRAIN_PROBE_PREFIX) || b.starts_with(DRAIN_PROBE_PREFIX) {
            thread::sleep(Duration::from_millis(25));
        }
        Levenshtein.distance(a, b)
    }
    fn is_strong(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "drain-gated levenshtein"
    }
}

/// A durable store of `docs` bibliography-style documents with rotating
/// author spellings, enhanced at ε = 1 so similarity queries do real
/// expansion — split into the executor half (behind the server's lock)
/// and the [`WriteEngine`] the mixed read/write leg commits through.
fn setup(docs: usize) -> (Arc<std::sync::RwLock<Executor>>, WriteEngine) {
    let dir =
        std::env::temp_dir().join(format!("toss-bench-serve-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("bench tmp dir");
    let mut durable =
        DurableDatabase::open(dir.join("store.json"), DatabaseConfig::unlimited())
            .expect("open durable store");
    durable.create_collection("bench").unwrap();
    let authors = ["Jeff Ullman", "Jeff Ullmann", "E. Codd", "M. Stonebraker"];
    for i in 0..docs {
        durable
            .insert_xml(
                "bench",
                &format!(
                    "<inproceedings key=\"p{i}\"><author>{}</author>\
                     <booktitle>SIGMOD Conference</booktitle>\
                     <year>{}</year></inproceedings>",
                    authors[i % authors.len()],
                    1990 + (i % 30),
                ),
            )
            .unwrap();
    }
    // fold the build into the snapshot so the measured leg starts with
    // an empty journal
    durable.checkpoint().expect("checkpoint the build");
    let h = from_pairs(&[
        ("SIGMOD Conference", "conference"),
        ("VLDB", "conference"),
        ("conference", "venue"),
        ("Jeff Ullman", "author"),
        ("Jeff Ullmann", "author"),
        ("E. Codd", "author"),
        ("M. Stonebraker", "author"),
    ])
    .unwrap();
    let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
    let (db, writer) = durable.into_parts();
    let engine = WriteEngine {
        writer,
        hierarchy: h,
        enhancer: Box::new(|h| enhance(h, &Levenshtein, 1.0).map_err(|e| e.to_string())),
        config: WriteConfig::default(),
    };
    let exec = Executor::new(db, seo).with_probe_metric(Arc::new(GatedMetric));
    (Arc::new(std::sync::RwLock::new(exec)), engine)
}

fn query() -> QueryRequest {
    let mut q = QueryRequest::new("bench", "inproceedings");
    q.similar.push(("author".into(), "Jeff Ullman".into()));
    q.max_results = 5;
    q
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil() as usize;
    sorted_us[rank.clamp(1, sorted_us.len()) - 1]
}

/// Drop a connection mid-frame while the load is running: claim a big
/// frame, deliver a sliver of it, hang up. The server must log a
/// half-frame fault and keep serving.
fn inject_half_frame_fault(addr: std::net::SocketAddr) {
    let mut s = TcpStream::connect(addr).expect("fault injector connects");
    s.write_all(&4096u32.to_be_bytes()).unwrap();
    s.write_all(b"{\"verb\":\"qu").unwrap();
    // dropped here: the server sees EOF mid-frame
}

fn counter(name: &str) -> u64 {
    toss_obs::metrics::snapshot().counter(name).unwrap_or(0)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (docs, total_requests, target_qps, conns) =
        if quick { (100, 100, 400, 4) } else { (500, 3000, 600, 8) };
    eprintln!(
        "bench_serve: {total_requests} requests at {target_qps}/s over {conns} conn(s), \
         {docs}-doc store, quick={quick}"
    );

    let (executor, engine) = setup(docs);
    let server = Server::start_writable(
        executor,
        engine,
        "127.0.0.1:0",
        ServerConfig {
            drain_deadline: Duration::from_secs(2),
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr();

    let half_frames_before = counter("toss.serve.faults.half_frame");
    let interval = Duration::from_secs(1).div_f64(target_qps as f64);
    let next = Arc::new(AtomicUsize::new(0));
    let latencies = Arc::new(Mutex::new(Vec::<u64>::with_capacity(total_requests)));
    let errors = Arc::new(AtomicUsize::new(0));

    // Open loop: request k is *due* at start + k·interval no matter how
    // the previous ones fared; each worker claims the next due slot.
    let t0 = Instant::now();
    let workers: Vec<_> = (0..conns)
        .map(|_| {
            let next = next.clone();
            let latencies = latencies.clone();
            let errors = errors.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("worker connects");
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= total_requests {
                        break;
                    }
                    // the fault lands mid-run, exactly once (slot
                    // total/2 is claimed by exactly one worker)
                    if k == total_requests / 2 {
                        inject_half_frame_fault(addr);
                    }
                    let due = interval.mul_f64(k as f64);
                    let now = t0.elapsed();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    match client.query(query()) {
                        Ok(reply) => {
                            assert!(reply.answers > 0, "request {k}: no answers");
                            latencies
                                .lock()
                                .unwrap()
                                .push(sent.elapsed().as_micros() as u64);
                        }
                        Err(ClientError::Server { .. }) => {
                            // typed server-side rejection (e.g. shed
                            // load): counted, never a crash
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("request {k}: transport failure: {e}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no worker panics");
    }
    let load_wall = t0.elapsed();

    let half_frames_after = counter("toss.serve.faults.half_frame");
    assert!(
        half_frames_after > half_frames_before,
        "the injected mid-frame drop must be logged as a half-frame fault"
    );

    let mut sorted = latencies.lock().unwrap().clone();
    sorted.sort_unstable();
    let completed = sorted.len();
    let errored = errors.load(Ordering::Relaxed);
    assert_eq!(completed + errored, total_requests, "every request accounted for");
    assert!(
        completed >= total_requests * 9 / 10,
        "≥90% of requests must succeed at this load, got {completed}/{total_requests}"
    );
    let qps = completed as f64 / load_wall.as_secs_f64();
    let (p50, p95, p99) = (
        percentile(&sorted, 50.0),
        percentile(&sorted, 95.0),
        percentile(&sorted, 99.0),
    );
    eprintln!(
        "sustained {qps:.0} QPS over {load_wall:?}: p50 {p50} µs, p95 {p95} µs, \
         p99 {p99} µs, {errored} typed rejection(s)"
    );

    // Mixed read/write leg: every third request is an insert through
    // the group-commit write path (batch class, fresh idempotency key),
    // the rest are the same similarity reads. Same open-loop schedule,
    // so fsync batching shows up as write latency, not hidden throttle.
    let (mixed_total, mixed_qps) = if quick { (60, 150) } else { (600, 300) };
    let mixed_interval = Duration::from_secs(1).div_f64(mixed_qps as f64);
    let mixed_next = Arc::new(AtomicUsize::new(0));
    let write_lat = Arc::new(Mutex::new(Vec::<u64>::new()));
    let read_lat = Arc::new(Mutex::new(Vec::<u64>::new()));
    let mixed_errors = Arc::new(AtomicUsize::new(0));
    let t1 = Instant::now();
    let mixed_workers: Vec<_> = (0..conns)
        .map(|_| {
            let next = mixed_next.clone();
            let write_lat = write_lat.clone();
            let read_lat = read_lat.clone();
            let errors = mixed_errors.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("mixed worker connects");
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= mixed_total {
                        break;
                    }
                    let due = mixed_interval.mul_f64(k as f64);
                    let now = t1.elapsed();
                    if due > now {
                        thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    if k.is_multiple_of(3) {
                        let op = WriteOp::InsertDoc {
                            collection: "bench".into(),
                            xml: format!(
                                "<inproceedings key=\"w{k}\"><author>Jeff Ullman\
                                 </author><year>2026</year></inproceedings>"
                            ),
                        };
                        match client.write_keyed(op, BudgetClass::Batch, &next_write_key())
                        {
                            Ok(reply) => {
                                assert!(reply.seq > 0, "write {k}: no journal seq");
                                assert!(!reply.deduped, "write {k}: fresh key deduped");
                                write_lat
                                    .lock()
                                    .unwrap()
                                    .push(sent.elapsed().as_micros() as u64);
                            }
                            Err(ClientError::Server { .. }) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("write {k}: transport failure: {e}"),
                        }
                    } else {
                        match client.query(query()) {
                            Ok(reply) => {
                                assert!(reply.answers > 0, "mixed read {k}: no answers");
                                read_lat
                                    .lock()
                                    .unwrap()
                                    .push(sent.elapsed().as_micros() as u64);
                            }
                            Err(ClientError::Server { .. }) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("mixed read {k}: transport failure: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for w in mixed_workers {
        w.join().expect("no mixed-leg worker panics");
    }
    let mixed_wall = t1.elapsed();
    let mut wsorted = write_lat.lock().unwrap().clone();
    wsorted.sort_unstable();
    let mut rsorted = read_lat.lock().unwrap().clone();
    rsorted.sort_unstable();
    let mixed_errored = mixed_errors.load(Ordering::Relaxed);
    assert!(
        !wsorted.is_empty(),
        "the mixed leg must have acknowledged writes"
    );
    let (wp50, wp95) = (percentile(&wsorted, 50.0), percentile(&wsorted, 95.0));
    let (rp50, rp95) = (percentile(&rsorted, 50.0), percentile(&rsorted, 95.0));

    // Group-commit evidence: the fsync/batch histograms the writer
    // thread feeds, plus the live `stats` write block.
    let snap = toss_obs::metrics::snapshot();
    let fsync_h = snap.histogram("toss.serve.write.batch_fsync_ns");
    let batch_h = snap.histogram("toss.serve.write.batch_size");
    let (fsync_batches, mean_fsync_us) = fsync_h
        .map(|h| (h.count, h.mean() / 1e3))
        .unwrap_or((0, 0.0));
    let mean_batch = batch_h.map(|h| h.mean()).unwrap_or(0.0);
    let wstats = Client::connect(addr)
        .expect("stats client connects")
        .stats()
        .expect("stats frame")
        .write;
    assert!(wstats.writable, "the bench server must report a write path");
    assert!(!wstats.degraded, "healthy run must not end degraded");
    assert_eq!(
        wstats.applied as usize,
        wsorted.len(),
        "every acknowledged write is applied exactly once"
    );
    assert!(fsync_batches > 0, "group commit must have fsynced batches");
    eprintln!(
        "mixed leg {mixed_wall:?}: {} writes (p50 {wp50} µs, p95 {wp95} µs) + \
         {} reads (p50 {rp50} µs, p95 {rp95} µs), {mixed_errored} rejection(s); \
         {} batches, mean batch {mean_batch:.2}, mean fsync {mean_fsync_us:.0} µs",
        wsorted.len(),
        rsorted.len(),
        fsync_batches,
    );

    // Graceful-drain finale: put slow-ish queries in flight on fresh
    // connections, then shut down while they run.
    let drain_clients: Vec<_> = (0..8)
        .map(|i| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).expect("drain client connects");
                let mut q = QueryRequest::new("bench", "inproceedings");
                // unique slow probes: every drain query misses the
                // rewrite cache and spends ≥100 ms inside the gated
                // metric, so the shutdown provably catches it in flight
                q.similar
                    .push(("author".into(), format!("{DRAIN_PROBE_PREFIX}-{i}")));
                q.class = BudgetClass::Batch;
                // ok, cancelled and shutting_down are all clean ends;
                // transport errors / torn frames are not
                match client.query(q) {
                    Ok(_) | Err(ClientError::Server { .. }) => {}
                    Err(e) => panic!("drain client: transport failure: {e}"),
                }
            })
        })
        .collect();
    // wait until every drain query is executing (each spends ≥100 ms in
    // the gated metric, so all eight overlap) before pulling the plug —
    // a request still in flight toward a drained socket would be reset,
    // which is a different scenario than the one measured here
    let poll = Instant::now();
    while server.inflight() < 8 && poll.elapsed() < Duration::from_secs(10) {
        thread::sleep(Duration::from_micros(200));
    }
    assert_eq!(server.inflight(), 8, "drain queries never all started");
    let report = server.shutdown();
    for c in drain_clients {
        c.join().expect("no drain-client panics");
    }
    eprintln!(
        "drain: {} completed, {} cancelled, {} forced, in {:?}",
        report.drained, report.cancelled, report.forced_closes, report.duration
    );
    assert_eq!(report.forced_closes, 0, "drain must never force-close: {report:?}");
    assert!(
        report.drained + report.cancelled >= 1,
        "the drain must have seen at least one in-flight query: {report:?}"
    );
    assert!(
        report.duration < Duration::from_secs(6),
        "drain must be bounded: {report:?}"
    );

    let out_value = Value::Object(vec![
        ("bench".into(), Value::Str("serve".into())),
        ("quick".into(), Value::Bool(quick)),
        ("docs".into(), Value::Int(docs as i64)),
        ("connections".into(), Value::Int(conns as i64)),
        ("target_qps".into(), Value::Int(target_qps as i64)),
        ("requests".into(), Value::Int(total_requests as i64)),
        ("completed".into(), Value::Int(completed as i64)),
        ("typed_rejections".into(), Value::Int(errored as i64)),
        ("faults_injected".into(), Value::Int(1)),
        ("sustained_qps".into(), Value::Float(qps)),
        ("p50_us".into(), Value::Int(p50 as i64)),
        ("p95_us".into(), Value::Int(p95 as i64)),
        ("p99_us".into(), Value::Int(p99 as i64)),
        (
            "mixed".into(),
            Value::Object(vec![
                ("requests".into(), Value::Int(mixed_total as i64)),
                ("writes".into(), Value::Int(wsorted.len() as i64)),
                ("reads".into(), Value::Int(rsorted.len() as i64)),
                ("typed_rejections".into(), Value::Int(mixed_errored as i64)),
                ("write_p50_us".into(), Value::Int(wp50 as i64)),
                ("write_p95_us".into(), Value::Int(wp95 as i64)),
                ("read_p50_us".into(), Value::Int(rp50 as i64)),
                ("read_p95_us".into(), Value::Int(rp95 as i64)),
                ("fsync_batches".into(), Value::Int(fsync_batches as i64)),
                ("mean_batch_size".into(), Value::Float(mean_batch)),
                ("mean_fsync_us".into(), Value::Float(mean_fsync_us)),
                ("applied".into(), Value::Int(wstats.applied as i64)),
                ("checkpoints".into(), Value::Int(wstats.checkpoints as i64)),
            ]),
        ),
        (
            "drain".into(),
            Value::Object(vec![
                ("drained".into(), Value::Int(report.drained as i64)),
                ("cancelled".into(), Value::Int(report.cancelled as i64)),
                ("forced_closes".into(), Value::Int(report.forced_closes as i64)),
                (
                    "duration_ms".into(),
                    Value::Int(report.duration.as_millis() as i64),
                ),
            ]),
        ),
    ]);
    let out = toss_bench::write_bench("serve", quick, &out_value).expect("write BENCH_serve.json");
    eprintln!("wrote {}", out.display());
}
