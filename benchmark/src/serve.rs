//! The four wire workloads: `serve-cold`, `serve-hot`, `serve-tax`
//! (read-only server) and `serve-mixed` (writable server, readers beside
//! one writer). Closed loop: a connection sends its next request only
//! after the previous reply.
//!
//! Every workload keeps [`connections`] connections busy, each with its
//! own load-generator thread: all of them reading on the read-only
//! workloads, one of them writing on `serve-mixed`.

use crate::inputs::{self, PlannedWrite, WriteStream};
use crate::metrics::{registry_counter, Report};
use crate::stats::{self, Slices};
use crate::store::{self, SetupTimes, StoreFiles};
use crate::trace::Tracer;
use crate::Ctx;
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread;
use std::time::{Duration, Instant};
use toss_core::governor::QueryGovernor;
use toss_core::{Executor, QueryPlan};
use toss_datagen::{ground_truth, Corpus, QuerySpec};
use toss_json::Value;
use toss_ontology::Seo;
use toss_serve::protocol::{build_query, ok_payload};
use toss_serve::{
    BudgetClass, Client, QueryReply, QueryRequest, Request, Server, ServerConfig, WriteConfig,
    WriteEngine, WriteOp,
};
use toss_similarity::StringMetric;
use toss_tree::serialize::{tree_to_xml, Style};
use toss_tree::Forest;
use toss_xmldb::{DocumentId, StdVfs, XPath};

/// Which read-only workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadKind {
    Cold,
    Hot,
    Tax,
}

/// Slices a measured window is reported in.
pub const SLICES: usize = 5;
/// `serve-cold` checks every this-many-th pool spec against an
/// in-process reference after the window: a reference for all 4096
/// would add 11 s of set-up to every run.
const COLD_VERIFY_EVERY: usize = 16;
/// A read counts as "after an ontology write" when it starts within
/// this long of the ontology op's ack.
const AFTER_ONT: Duration = Duration::from_millis(250);

/// One spec of a read pool with its wire request and, when computed,
/// the reference answer count.
struct PoolEntry {
    spec: QuerySpec,
    request: QueryRequest,
    reference: Option<usize>,
}

/// A store on disk, an executor over it and a server in front.
struct Stack {
    dir: PathBuf,
    files: StoreFiles,
    corpus: Corpus,
    executor: Arc<RwLock<Executor>>,
    server: Option<Server>,
    addr: SocketAddr,
    times: SetupTimes,
    ontology_terms: usize,
    /// Durations of the SEA re-runs the write path asked for, ms.
    sea_reruns: Arc<Mutex<Vec<f64>>>,
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Generate, mine, fuse, enhance, load, checkpoint, reopen, serve: the
/// whole of `setup_s`.
fn build_stack(cx: &Ctx, papers: usize, cap: usize, writable: bool) -> Stack {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let corpus = inputs::corpus(cx.seed, papers);
    times.generate_s = t.elapsed().as_secs_f64();
    let seo = store::build_seo(&corpus, cap, &mut times);
    let ontology_terms = seo.original().term_count();
    let dir = cx.scratch_dir();
    let files = store::build_store(&dir, &corpus, &seo, &mut times);
    // reopen, so the collections attach to the `.seg` sidecar and serve
    // frozen — what `toss-cli serve` finds after a restart
    let t = Instant::now();
    let (db, writer) = store::open_store(&files).into_parts();
    times.load_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let sea_reruns = Arc::new(Mutex::new(Vec::new()));
    let hierarchy = seo.original().clone();
    let executor = Arc::new(RwLock::new(store::executor(db, Arc::new(seo))));
    let server = if writable {
        let reruns = sea_reruns.clone();
        let engine = WriteEngine {
            writer,
            hierarchy,
            enhancer: Box::new(move |h| {
                let t = Instant::now();
                let seo = store::re_enhance(h);
                reruns
                    .lock()
                    .expect("no panic while holding the re-run log")
                    .push(t.elapsed().as_secs_f64() * 1e3);
                seo
            }),
            config: WriteConfig::default(),
        };
        Server::start_writable(
            executor.clone(),
            engine,
            "127.0.0.1:0",
            ServerConfig::default(),
        )
    } else {
        Server::start(executor.clone(), "127.0.0.1:0", ServerConfig::default())
    }
    .expect("bind an ephemeral port");
    times.start_ms = t.elapsed().as_secs_f64() * 1e3;
    Stack {
        dir,
        files,
        corpus,
        addr: server.local_addr(),
        executor,
        server: Some(server),
        times,
        ontology_terms,
        sea_reruns,
    }
}

/// Paper ids of returned witness trees, from the `key` attribute
/// (`conf/gen/<id>`).
fn answered_paper_ids(forest: &Forest) -> BTreeSet<usize> {
    forest
        .iter()
        .filter_map(|t| {
            let key = t.data(t.root()?).ok()?.attr_value("key")?;
            key.rsplit('/').next()?.parse().ok()
        })
        .collect()
}

/// Ungoverned in-process answer to a wire request.
fn reference_answer(exec: &Executor, request: &QueryRequest) -> Forest {
    let (query, mode) = build_query(request).expect("pool requests compile");
    exec.select(&query, mode)
        .expect("reference select succeeds")
        .forest
}

fn recall(answered: &BTreeSet<usize>, truth: &BTreeSet<usize>) -> f64 {
    answered.intersection(truth).count() as f64 / truth.len().max(1) as f64
}

/// Build a read pool. With `with_reference`, every spec gets its
/// reference answer count, TOSS recall ≥ TAX recall is checked per
/// query, and the mean answer quality √(precision·recall) of the
/// rendering the workload sends is returned.
fn build_pool(
    stack: &Stack,
    cx: &Ctx,
    kind: ReadKind,
    report: &mut Report,
) -> (Vec<PoolEntry>, Option<f64>) {
    let count = if kind == ReadKind::Cold {
        inputs::COLD_POOL
    } else {
        inputs::HOT_POOL
    };
    let specs = inputs::query_pool(&stack.corpus, cx.seed ^ 0x9e37_79b9, count);
    let exec = stack.executor.read().expect("executor lock");
    let mut qualities = Vec::new();
    let pool = specs
        .into_iter()
        .map(|spec| {
            let (toss, tax) = (inputs::toss_request(&spec), inputs::tax_request(&spec));
            let request = if kind == ReadKind::Tax {
                tax.clone()
            } else {
                toss.clone()
            };
            let reference = (kind != ReadKind::Cold).then(|| {
                let truth = ground_truth(&stack.corpus, &spec);
                let toss_ids = answered_paper_ids(&reference_answer(&exec, &toss));
                let tax_ids = answered_paper_ids(&reference_answer(&exec, &tax));
                let (rt, rx) = (recall(&toss_ids, &truth), recall(&tax_ids, &truth));
                report.check(rt >= rx, || {
                    format!("query {}: TOSS recall {rt} < TAX recall {rx}", spec.id)
                });
                let sent = if kind == ReadKind::Tax {
                    &tax_ids
                } else {
                    &toss_ids
                };
                let precision = sent.intersection(&truth).count() as f64 / sent.len().max(1) as f64;
                qualities.push((precision * recall(sent, &truth)).sqrt());
                reference_answer(&exec, &request).len()
            });
            PoolEntry {
                spec,
                request,
                reference,
            }
        })
        .collect();
    (pool, stats::mean(&qualities))
}

/// Why a reply is wrong, if it is.
fn reply_fault(entry: &PoolEntry, reply: &QueryReply) -> Option<String> {
    if let Some(d) = &reply.degraded {
        return Some(format!("query {} degraded: {d}", entry.spec.id));
    }
    if reply.returned != reply.answers.min(entry.request.max_results) {
        return Some(format!(
            "query {}: {} of {} answers returned",
            entry.spec.id, reply.returned, reply.answers
        ));
    }
    match entry.reference {
        Some(want) if want != reply.answers => Some(format!(
            "query {}: {} answers, reference has {want}",
            entry.spec.id, reply.answers
        )),
        _ => None,
    }
}

/// The measured window of a pass: where it starts and how long it is.
/// In a traced pass every other operation of a connection runs with
/// span recording on; comparing the two halves' mean latency gives the
/// tracing overhead free of drift between windows.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: Instant,
    seconds: f64,
    traced: bool,
}

impl Window {
    fn end(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds)
    }
}

/// What the reading connection observed, over one window or — after
/// [`ReadLog::append`] — over the windows of several instances.
struct ReadLog {
    lat_us: Vec<f64>,
    server_us: Vec<f64>,
    /// Latencies of reads that started right after an ontology ack.
    after_ont_us: Vec<f64>,
    slices: Slices,
    /// Seconds of window behind the log.
    window_s: f64,
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
    /// (pool index, answers) of the replies `serve-cold` verifies later.
    to_verify: Vec<(usize, usize)>,
    /// Latency sum and count of the ops sent with span recording off
    /// and on (a traced pass alternates).
    untraced: (f64, u64),
    traced: (f64, u64),
}

impl ReadLog {
    fn new(window: &Window) -> ReadLog {
        ReadLog {
            lat_us: Vec::new(),
            server_us: Vec::new(),
            after_ont_us: Vec::new(),
            slices: Slices::new(window.seconds, SLICES),
            window_s: window.seconds,
            attempted: 0,
            failed: 0,
            faults: Vec::new(),
            to_verify: Vec::new(),
            untraced: (0.0, 0),
            traced: (0.0, 0),
        }
    }

    /// Add the window of another instance after this one's, or — with
    /// `same_window` — another connection's log of the same window.
    fn add(&mut self, other: ReadLog, same_window: bool) {
        self.lat_us.extend(other.lat_us);
        self.server_us.extend(other.server_us);
        self.after_ont_us.extend(other.after_ont_us);
        if same_window {
            self.slices.merge(&other.slices);
        } else {
            self.slices.append(other.slices);
            self.window_s += other.window_s;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.faults.extend(other.faults);
        self.to_verify.extend(other.to_verify);
        for (mine, theirs) in [
            (&mut self.untraced, other.untraced),
            (&mut self.traced, other.traced),
        ] {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }
}

/// Nanoseconds since `epoch` of the latest ontology ack (0 = none yet).
type OntClock = Arc<AtomicU64>;

/// The reading connection and its walk through the pool: spec 0, 1, 2,
/// …, wrapping. On `serve-cold` the pool is far larger than the rewrite
/// cache, so a wrapped walk still misses.
struct Reader {
    client: Client,
    addr: SocketAddr,
    next: usize,
    stride: usize,
    epoch: Instant,
    ont_clock: Option<OntClock>,
}

impl Reader {
    /// Reader `index` of `of`: it draws specs `index`, `index + of`, ….
    fn connect(
        stack: &Stack,
        cx: &Ctx,
        index: usize,
        of: usize,
        ont_clock: Option<OntClock>,
    ) -> Reader {
        Reader {
            client: Client::connect(stack.addr).expect("reader connects"),
            addr: stack.addr,
            next: index,
            stride: of,
            epoch: cx.epoch,
            ont_clock,
        }
    }

    fn draw(&mut self, pool_len: usize) -> usize {
        let i = self.next % pool_len;
        self.next += self.stride;
        i
    }

    /// Warm-up: one pass over a small pool (so every hot spec is
    /// cached), then reads until `until`.
    fn warm_up(&mut self, pool: &[PoolEntry], until: Instant) {
        let once = if pool.len() <= inputs::HOT_POOL {
            pool.len().div_ceil(self.stride)
        } else {
            0
        };
        let mut sent = 0;
        while sent < once || Instant::now() < until {
            let idx = self.draw(pool.len());
            self.client.query(pool[idx].request.clone()).ok();
            sent += 1;
        }
    }

    /// Send reads until the window closes; a read completed after it
    /// closed is not part of it.
    fn window(&mut self, pool: &[PoolEntry], window: &Window, tracer: &mut Tracer) -> ReadLog {
        let mut log = ReadLog::new(window);
        let end = window.end();
        loop {
            let t0 = Instant::now();
            if t0 >= end {
                break;
            }
            let idx = self.draw(pool.len());
            let entry = &pool[idx];
            let request = entry.request.clone();
            let trace_this = window.traced && log.attempted % 2 == 1;
            tracer.set_enabled(trace_this);
            let result = tracer.span("wire.query", idx as u64, |_| self.client.query(request));
            let lat = t0.elapsed();
            if !log.slices.record((t0 + lat - window.start).as_secs_f64()) {
                break;
            }
            log.attempted += 1;
            match result {
                Ok(reply) => {
                    log.lat_us.push(lat.as_secs_f64() * 1e6);
                    let class = if trace_this {
                        &mut log.traced
                    } else {
                        &mut log.untraced
                    };
                    class.0 += lat.as_secs_f64();
                    class.1 += 1;
                    log.server_us.push(reply.server_us as f64);
                    if let Some(clock) = &self.ont_clock {
                        let acked = clock.load(Ordering::Relaxed);
                        let started = (t0 - self.epoch).as_nanos() as u64;
                        if acked > 0
                            && started >= acked
                            && started - acked <= AFTER_ONT.as_nanos() as u64
                        {
                            log.after_ont_us.push(lat.as_secs_f64() * 1e6);
                        }
                    }
                    if let Some(fault) = reply_fault(entry, &reply) {
                        log.failed += 1;
                        log.faults.push(fault);
                    } else if entry.reference.is_none() && idx.is_multiple_of(COLD_VERIFY_EVERY) {
                        log.to_verify.push((idx, reply.answers));
                    }
                }
                Err(e) => {
                    log.failed += 1;
                    log.faults.push(format!("query {}: {e}", entry.spec.id));
                    // a transport error leaves the stream unusable
                    if let Ok(fresh) = Client::connect(self.addr) {
                        self.client = fresh;
                    }
                }
            }
        }
        log
    }
}

/// The window of one instance: it opens after the warm-up and lasts the
/// instance's share of the pass's time.
/// Connections a workload keeps busy: twice the cores. With both cores
/// always holding a runnable thread the virtual CPUs never halt, and
/// the hypervisor's wake-up latency stays out of the numbers: with one
/// connection the same `serve-tax` binary answered in 39 µs or in
/// 110 µs (p50) for minutes at a time, depending on what the machine
/// had been doing before; with two connections throughput flipped
/// between two thread placements (20.8k against 27–29k requests/s).
fn connections() -> usize {
    2 * thread::available_parallelism().map_or(1, |n| n.get())
}

fn connect_readers(stack: &Stack, cx: &Ctx, n: usize, ont_clock: Option<OntClock>) -> Vec<Reader> {
    (0..n)
        .map(|i| Reader::connect(stack, cx, i, n, ont_clock.clone()))
        .collect()
}

/// Warm the readers up and run them through the window, each on its own
/// thread. Returns the merged log and the rewrite cache's (hits, misses)
/// over the window — the references and the warm-up are not part of
/// the measured traffic; the readers' spans go to `tracer`.
fn run_readers(
    stack: &Stack,
    pool: &[PoolEntry],
    readers: &mut [Reader],
    window: &Window,
    tracer: &mut Tracer,
) -> (ReadLog, (u64, u64)) {
    let (logs, before) = thread::scope(|scope| {
        let handles: Vec<_> = readers
            .iter_mut()
            .map(|reader| {
                scope.spawn(move || {
                    reader.warm_up(pool, window.start);
                    let mut spans = Tracer::new(false, reader.epoch);
                    (reader.window(pool, window, &mut spans), spans)
                })
            })
            .collect();
        sleep_until(window.start);
        let before = cache_counts(stack);
        let logs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread does not panic"))
            .collect();
        (logs, before)
    });
    let after = cache_counts(stack);
    let mut merged: Option<ReadLog> = None;
    for (log, spans) in logs {
        tracer.absorb(spans);
        match &mut merged {
            Some(m) => m.add(log, true),
            None => merged = Some(log),
        }
    }
    (
        merged.expect("at least one reader"),
        (after.0 - before.0, after.1 - before.1),
    )
}

fn sleep_until(t: Instant) {
    if let Some(d) = t.checked_duration_since(Instant::now()) {
        thread::sleep(d);
    }
}

fn plan_window(cx: &Ctx) -> Window {
    Window {
        start: Instant::now() + Duration::from_secs_f64(cx.warm_s()),
        seconds: cx.window_s(),
        traced: cx.trace,
    }
}

/// Record the read-side end-to-end metrics of a pass.
fn report_reads(report: &mut Report, log: &ReadLog) {
    let lat = stats::sorted(log.lat_us.clone());
    report.set_throughput(log.slices.total() as usize, log.window_s, &log.slices);
    if !lat.is_empty() {
        report.set("op_p50_us", stats::percentile(&lat, 50.0), lat.len());
        if let Some(p) = stats::tail_percentile(lat.len(), 99.0) {
            report.set("read_p99_us", stats::percentile(&lat, p), lat.len());
        }
    }
    report.attempted += log.attempted;
    report.failed += log.failed;
    for f in log.faults.iter().take(5) {
        report.check(false, || f.clone());
    }
}

/// Per-request samples of the in-process decomposition.
#[derive(Default)]
struct Decomposition {
    wire_us: Vec<f64>,
    rewrite_us: Vec<f64>,
    execute_us: Vec<f64>,
    convert_us: Vec<f64>,
    select_unaccounted_us: Vec<f64>,
    response_bytes: Vec<f64>,
    xpath_bytes: Vec<f64>,
    probe_scan_us: Vec<f64>,
    answers: Vec<f64>,
    index_probes: usize,
    candidates: usize,
    probed_answers: usize,
}

/// The server's handling of one query, replayed in-process call by call
/// on the same executor, each call in its own span.
fn decomposed_request(
    exec: &Executor,
    request: &QueryRequest,
    op: u64,
    tracer: &mut Tracer,
    d: &mut Decomposition,
) -> (String, String) {
    tracer.span("request.decomposed", op, |t| {
        let payload = t.span("serve.request_encode", op, |_| {
            Request::Query(Box::new(request.clone())).to_payload()
        });
        let parsed = t.span("serve.request_parse", op, |_| {
            Request::parse(payload.as_bytes()).expect("own payload parses")
        });
        let Request::Query(q) = parsed else {
            unreachable!("a query payload parses to a query")
        };
        let (query, mode) = t.span("serve.build_query", op, |_| {
            build_query(&q).expect("pool requests compile")
        });
        let gov = QueryGovernor::new(q.class.budget(q.timeout_ms, q.max_terms, q.max_docs));
        let started = Instant::now();
        let out = t.span("core.select", op, |_| {
            exec.select_governed(&query, mode, &gov)
                .expect("select succeeds")
        });
        let select_us = started.elapsed().as_secs_f64() * 1e6;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let phases = us(out.rewrite_time()) + us(out.execute_time()) + us(out.convert_time());
        d.rewrite_us.push(us(out.rewrite_time()));
        d.execute_us.push(us(out.execute_time()));
        d.convert_us.push(us(out.convert_time()));
        d.select_unaccounted_us.push(select_us - phases);
        d.answers.push(out.forest.len() as f64);
        d.xpath_bytes.push(out.xpath.len() as f64);
        if let Some(QueryPlan::IndexProbe { candidates, .. }) = &out.plan {
            d.index_probes += 1;
            d.candidates += candidates;
            d.probed_answers += out.forest.len();
        }
        let results: Vec<Value> = t.span("tree.serialize", op, |_| {
            out.forest
                .iter()
                .take(q.max_results)
                .map(|tree| Value::Str(tree_to_xml(tree, Style::Compact)))
                .collect()
        });
        let response = t.span("serve.response_encode", op, |_| {
            ok_payload(vec![
                ("query_id".into(), Value::Int(op as i64)),
                ("answers".into(), Value::Int(out.forest.len() as i64)),
                ("returned".into(), Value::Int(results.len() as i64)),
                ("xpath".into(), Value::Str(out.xpath.clone())),
                ("degraded".into(), Value::Null),
                ("results".into(), Value::Array(results)),
                ("server_us".into(), Value::Int(select_us as i64)),
            ])
        });
        d.response_bytes.push(response.len() as f64);
        t.span("json.response_decode", op, |_| {
            std::hint::black_box(Value::parse(&response).expect("own response parses"));
        });
        (query.collection, out.xpath)
    })
}

/// How many decomposed requests also run their emitted XPath
/// stand-alone against the collection: a full scan, 90 ms at 16k docs.
const XPATH_EVALS: u64 = 5;

/// The decomposition phase of a traced pass, after the window: the
/// reading connection alone, carrying on through the pool (so cold
/// specs stay unseen). First requests back to back over the wire, then
/// further requests replayed in-process call by call, so the layer
/// medians can be summed against a wire median taken under the same
/// conditions.
fn decompose(
    stack: &Stack,
    pool: &[PoolEntry],
    reader: &mut Reader,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    tracer.set_enabled(true);
    let mut pings = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        reader.client.ping().expect("ping");
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.set_median("serve.ping_rtt_us", &pings);

    let mut d = Decomposition::default();
    let mut op = 0u64;
    let half = Duration::from_secs_f64(seconds / 2.0);
    let until = Instant::now() + half;
    while Instant::now() < until {
        op += 1;
        let entry = &pool[reader.draw(pool.len())];
        let (reply, s) = tracer.timed("wire.query.alone", op, |_| {
            reader.client.query(entry.request.clone())
        });
        if reply.is_ok() {
            d.wire_us.push(s * 1e6);
        }
    }

    let metric = store::experiment_metric();
    let exec = stack.executor.read().expect("executor lock");
    let terms = exec.seo.original().all_terms();
    let until = Instant::now() + half;
    let first_local = op + 1;
    while Instant::now() < until {
        op += 1;
        let local = &pool[reader.draw(pool.len())];
        let (collection, xpath) = decomposed_request(&exec, &local.request, op, tracer, &mut d);
        if let Some((_, probe)) = local.request.similar.first() {
            let ((), s) = tracer.timed("similarity.probe_scan", op, |_| {
                for term in &terms {
                    std::hint::black_box(metric.distance(probe, term));
                }
            });
            d.probe_scan_us.push(s * 1e6);
        }
        if op - first_local < XPATH_EVALS {
            tracer.span("xmldb.xpath_eval", op, |_| {
                let parsed = XPath::parse(&xpath).expect("emitted XPath parses");
                let coll = exec
                    .db
                    .collection(&collection)
                    .expect("queried collection exists");
                std::hint::black_box(parsed.eval_collection(coll));
            });
        }
    }
    drop(exec);

    let own = tracer.self_us_by_name();
    let layer = |name: &str| own.get(name).map(Vec::as_slice).unwrap_or(&[]);
    let mut accounted = 0.0;
    for (span, metric_name) in [
        ("serve.request_encode", "serve.request_encode_us"),
        ("serve.request_parse", "serve.request_parse_us"),
        ("serve.build_query", "serve.build_query_us"),
        ("core.select", "core.select_us_p50"),
        ("tree.serialize", "tree.serialize_us"),
        ("serve.response_encode", "serve.response_encode_us"),
        ("json.response_decode", "json.response_decode_us"),
    ] {
        report.set_median(metric_name, layer(span));
        accounted += stats::median(layer(span)).unwrap_or(0.0);
    }
    report.set_median("xmldb.xpath_eval_us", layer("xmldb.xpath_eval"));
    report.set_median("serve.wire_p50_us", &d.wire_us);
    if let Some(wire) = stats::median(&d.wire_us) {
        report.set("serve.unaccounted_us", wire - accounted, d.wire_us.len());
    }
    report.set_median("core.rewrite_us_p50", &d.rewrite_us);
    report.set_median("core.execute_us_p50", &d.execute_us);
    report.set_median("core.convert_us_p50", &d.convert_us);
    report.set_median("core.select_unaccounted_us", &d.select_unaccounted_us);
    report.set_mean("json.response_bytes", &d.response_bytes);
    report.set_mean("core.xpath_bytes_mean", &d.xpath_bytes);
    report.set_mean("core.answers_mean", &d.answers);
    report.set_median("similarity.probe_scan_us", &d.probe_scan_us);
    if let (Some(scan), false) = (stats::median(&d.probe_scan_us), terms.is_empty()) {
        report.set(
            "similarity.distance_ns",
            scan * 1e3 / terms.len() as f64,
            d.probe_scan_us.len(),
        );
    }
    if !d.answers.is_empty() {
        report.set(
            "core.plan.index_probe_frac",
            d.index_probes as f64 / d.answers.len() as f64,
            d.answers.len(),
        );
    }
    if d.probed_answers > 0 {
        report.set(
            "core.candidates_per_answer",
            d.candidates as f64 / d.probed_answers as f64,
            d.index_probes,
        );
    }
}

/// Wire-side layer metrics of a traced pass's window, and the tracing
/// overhead: closed loop, so throughput is connections ÷ mean latency,
/// and the overhead is what recording spans adds to the mean.
fn report_traced_window(report: &mut Report, log: &ReadLog) {
    report.set_median("serve.server_us_p50", &log.server_us);
    let overhead: Vec<f64> = log
        .lat_us
        .iter()
        .zip(&log.server_us)
        .map(|(lat, server)| lat - server)
        .collect();
    report.set_median("serve.wire_overhead_us", &overhead);
    if let Some(frac) = stats::trace_overhead(log.untraced, log.traced) {
        let n = (log.traced.1 + log.untraced.1) as usize;
        report.set("obs.trace_overhead_frac", frac, n);
    }
}

/// Rewrite-cache hits and misses so far on the stack's executor.
fn cache_counts(stack: &Stack) -> (u64, u64) {
    let exec = stack.executor.read().expect("executor lock");
    (exec.rewrite_cache.hits(), exec.rewrite_cache.misses())
}

/// Print the request-stream checksum, once per pass.
fn print_checksum(cx: &Ctx, pool: &[PoolEntry], writes: Option<(WriteStream, usize)>) {
    let requests: Vec<QueryRequest> = pool.iter().map(|e| e.request.clone()).collect();
    println!(
        "{} request-stream checksum {:016x}",
        cx.workload,
        inputs::stream_checksum(&requests, writes)
    );
}

/// `serve-cold`, `serve-hot`, `serve-tax`. A timed pass measures
/// [`Ctx::instances`] stacks, each set up from scratch, for an equal
/// share of the time, and reports over all of them.
pub fn run_read(cx: &Ctx, kind: ReadKind, report: &mut Report) {
    let (papers, cap) = if kind == ReadKind::Tax {
        (inputs::TAX_PAPERS, inputs::TAX_CAP)
    } else {
        (inputs::BIG_PAPERS, inputs::BIG_CAP)
    };
    let mut setups = Vec::new();
    let mut total: Option<ReadLog> = None;
    let (mut hits, mut misses) = (0, 0);
    for instance in 0..cx.instances() {
        let t = Instant::now();
        let stack = build_stack(cx, papers, cap, false);
        setups.push(t.elapsed().as_secs_f64());
        stack.times.report(report, stack.ontology_terms);
        let (pool, quality) = build_pool(&stack, cx, kind, report);
        if let Some(q) = quality {
            report.set("answer_quality", q, pool.len());
        }
        if instance == 0 {
            print_checksum(cx, &pool, None);
        }

        let window = plan_window(cx);
        let mut readers = connect_readers(&stack, cx, connections(), None);
        let mut tracer = Tracer::new(false, cx.epoch);
        let (log, cache) = run_readers(&stack, &pool, &mut readers, &window, &mut tracer);
        hits += cache.0;
        misses += cache.1;
        let reader = &mut readers[0];

        if cx.trace {
            report_traced_window(report, &log);
            decompose(&stack, &pool, reader, cx.seconds / 3.0, &mut tracer, report);
            cx.write_trace(&tracer);
        }
        // serve-cold: the sampled replies against an in-process reference
        let exec = stack.executor.read().expect("executor lock");
        for &(idx, answers) in &log.to_verify {
            let want = reference_answer(&exec, &pool[idx].request).len();
            report.check(want == answers, || {
                format!("query {idx}: {answers} answers over the wire, {want} in-process")
            });
            report.failed += u64::from(want != answers);
        }
        drop(exec);
        match &mut total {
            Some(t) => t.add(log, false),
            None => total = Some(log),
        }
    }
    let total = total.expect("a pass has an instance");
    report.set_median("setup_s", &setups);
    report_reads(report, &total);
    if hits + misses > 0 {
        let n = (hits + misses) as usize;
        report.set("core.rewrite_cache.hit_ratio", hits as f64 / n as f64, n);
    }
    report.set_failed_frac();
}

/// What the writing connection observed, over one window or — after
/// [`WriteLog::append`] — over the windows of several instances.
#[derive(Default)]
struct WriteLog {
    /// Client-observed ack latency of every mutation in the window, µs.
    ack_us: Vec<f64>,
    doc_ack_us: Vec<f64>,
    server_us: Vec<f64>,
    fsync_us: Vec<f64>,
    commit_wait_us: Vec<f64>,
    batch_sizes: Vec<f64>,
    ont_ack_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    faults: Vec<String>,
}

impl WriteLog {
    fn append(&mut self, other: WriteLog) {
        self.ack_us.extend(other.ack_us);
        self.doc_ack_us.extend(other.doc_ack_us);
        self.server_us.extend(other.server_us);
        self.fsync_us.extend(other.fsync_us);
        self.commit_wait_us.extend(other.commit_wait_us);
        self.batch_sizes.extend(other.batch_sizes);
        self.ont_ack_ms.extend(other.ont_ack_ms);
        self.checkpoint_ms.extend(other.checkpoint_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.faults.extend(other.faults);
    }
}

/// What the server acknowledged, for the post-crash audit.
#[derive(Default)]
struct Acked {
    /// insert ordinal → document id.
    inserts: Vec<Option<u64>>,
    deleted: BTreeSet<u64>,
    terms: Vec<String>,
    xml_bytes: u64,
}

/// The writing connection: the seed-fixed stream, closed loop.
struct Writer {
    addr: SocketAddr,
    client: Client,
    seed: u64,
    stream: WriteStream,
    /// Frames sent so far; the next frame's index in the stream.
    frames: usize,
    acked: Acked,
    epoch: Instant,
    ont_clock: OntClock,
}

impl Writer {
    /// Send frames until `window` closes; acks of frames sent and
    /// answered inside the window count towards it.
    fn run(&mut self, window: &Window, tracer: &mut Tracer) -> WriteLog {
        let mut log = WriteLog::default();
        let end = window.end();
        loop {
            let t0 = Instant::now();
            if t0 >= end {
                break;
            }
            let planned = self.stream.next_write();
            let k = self.frames;
            self.frames += 1;
            log.attempted += 1;
            let outcome = match &planned {
                PlannedWrite::Checkpoint => {
                    let r = tracer.span("wire.checkpoint", k as u64, |_| self.client.checkpoint());
                    r.map(|_| log.checkpoint_ms.push(t0.elapsed().as_secs_f64() * 1e3))
                        .map_err(|e| format!("checkpoint frame {k}: {e}"))
                }
                PlannedWrite::DeleteInsert { ordinal } => {
                    match self.acked.inserts.get(*ordinal).copied().flatten() {
                        Some(doc_id) => self.mutate(
                            k,
                            &planned,
                            delete_op(doc_id),
                            t0,
                            window,
                            tracer,
                            &mut log,
                        ),
                        // the insert it names was never acknowledged
                        None => Err(format!(
                            "delete frame {k}: insert {ordinal} has no document id"
                        )),
                    }
                }
                PlannedWrite::Insert { xml } => {
                    let op = WriteOp::InsertDoc {
                        collection: "dblp".into(),
                        xml: xml.clone(),
                    };
                    let sent = self.mutate(k, &planned, op, t0, window, tracer, &mut log);
                    if sent.is_err() {
                        // keep insert ordinals aligned with the stream
                        self.acked.inserts.push(None);
                    }
                    sent
                }
                PlannedWrite::AddTerm { term } => {
                    let op = WriteOp::AddTerm {
                        terms: vec![term.clone()],
                    };
                    self.mutate(k, &planned, op, t0, window, tracer, &mut log)
                }
                PlannedWrite::AddEdge { below, above } => {
                    let op = WriteOp::AddEdge {
                        below: below.clone(),
                        above: above.clone(),
                    };
                    self.mutate(k, &planned, op, t0, window, tracer, &mut log)
                }
            };
            if let Err(fault) = outcome {
                log.failed += 1;
                log.faults.push(fault);
            }
        }
        log
    }

    /// Send one mutation frame and book its acknowledgement.
    #[allow(clippy::too_many_arguments)]
    fn mutate(
        &mut self,
        k: usize,
        planned: &PlannedWrite,
        op: WriteOp,
        t0: Instant,
        window: &Window,
        tracer: &mut Tracer,
        log: &mut WriteLog,
    ) -> Result<(), String> {
        let key = WriteStream::key(self.seed, k);
        let verb = op.verb();
        let result = tracer.span("wire.write", k as u64, |_| {
            self.client.write_keyed(op, BudgetClass::Batch, &key)
        });
        let lat = t0.elapsed();
        let reply = result.map_err(|e| {
            // a transport error leaves the stream unusable
            if let Ok(fresh) = Client::connect(self.addr) {
                self.client = fresh;
            }
            format!("write frame {k} ({verb}): {e}")
        })?;
        if reply.deduped {
            return Err(format!("write frame {k} ({verb}): fresh key deduped"));
        }
        let is_ontology = match planned {
            PlannedWrite::Insert { xml } => {
                self.acked.inserts.push(reply.doc_id);
                self.acked.xml_bytes += xml.len() as u64;
                if reply.doc_id.is_none() {
                    return Err(format!("insert frame {k}: ack without a document id"));
                }
                false
            }
            PlannedWrite::DeleteInsert { ordinal } => {
                let doc_id = self.acked.inserts[*ordinal].expect("resolved before sending");
                self.acked.deleted.insert(doc_id);
                false
            }
            PlannedWrite::AddTerm { term } | PlannedWrite::AddEdge { below: term, .. } => {
                self.acked.terms.push(term.clone());
                let now = (Instant::now() - self.epoch).as_nanos() as u64;
                self.ont_clock.store(now, Ordering::Relaxed);
                true
            }
            PlannedWrite::Checkpoint => unreachable!("checkpoints are not mutations"),
        };
        if t0 >= window.start && t0 + lat < window.end() {
            let us = lat.as_secs_f64() * 1e6;
            log.ack_us.push(us);
            if is_ontology {
                log.ont_ack_ms.push(us / 1e3);
            } else {
                let fsync_us = reply.fsync_ns as f64 / 1e3;
                log.doc_ack_us.push(us);
                log.server_us.push(reply.server_us as f64);
                log.fsync_us.push(fsync_us);
                log.commit_wait_us.push(reply.server_us as f64 - fsync_us);
                log.batch_sizes.push(reply.batch_size as f64);
            }
        }
        Ok(())
    }
}

fn delete_op(doc_id: u64) -> WriteOp {
    WriteOp::DeleteDoc {
        collection: "dblp".into(),
        doc_id,
    }
}

/// How many `add_edge` ops a run can need: one per 200 mutations.
const ONTOLOGY_EDGES: usize = 64;

/// The `(below, above)` pairs the write stream's `add_edge` ops assert:
/// `below` is an existing ontology author with one letter appended,
/// `above` that author's single parent. A pair is kept only if the new
/// term gains no neighbour its author lacks — among the ontology's
/// terms and among the read probes — so SEA merges it into the
/// author's class, no class grows otherwise, and no read answer moves.
fn ontology_edges(seo: &Seo, corpus: &Corpus, pool: &[PoolEntry]) -> Vec<(String, String)> {
    let metric = store::experiment_metric();
    let near = |a: &str, b: &str| {
        metric.distance(a, b) <= store::EPSILON || metric.distance(b, a) <= store::EPSILON
    };
    let stored: BTreeSet<&str> = corpus
        .papers
        .iter()
        .flat_map(|p| p.dblp_authors.iter().map(String::as_str))
        .collect();
    let h = seo.original();
    let terms = h.all_terms();
    terms
        .iter()
        .filter(|author| stored.contains(author.as_str()))
        .filter_map(|author| {
            let parents = h.parents(h.node_of(author)?);
            let [parent] = parents.as_slice() else {
                return None;
            };
            let above = h.terms_of(*parent).ok()?.first()?.clone();
            let below = format!("{author}a");
            let harmless = h.node_of(&below).is_none()
                && terms.iter().all(|t| !near(&below, t) || near(author, t))
                && pool.iter().all(|e| {
                    !near(&below, &e.spec.author_probe) || near(author, &e.spec.author_probe)
                });
            harmless.then_some((below, above))
        })
        .take(ONTOLOGY_EDGES)
        .collect()
}

/// Everything acked must be in the files: reopen them (the server is
/// gone, and it took no final checkpoint) and look.
fn crash_audit(files: &StoreFiles, acked: &Acked, report: &mut Report) {
    let reopened = store::open_store(files);
    let records = reopened.journal_records().expect("journal scans");
    let dblp = reopened.db().collection("dblp").expect("dblp survives");
    let live: Vec<u64> = acked
        .inserts
        .iter()
        .flatten()
        .copied()
        .filter(|id| !acked.deleted.contains(id))
        .collect();
    let want_docs = files.docs.0 + live.len();
    report.check(dblp.len() == want_docs, || {
        format!(
            "after the crash dblp holds {} documents, acked state says {want_docs}",
            dblp.len()
        )
    });
    let missing = live
        .iter()
        .filter(|&&id| dblp.get(DocumentId(id)).is_err())
        .count();
    report.check(missing == 0, || {
        format!("{missing} acked inserts are gone after the crash")
    });
    let undead = acked
        .deleted
        .iter()
        .filter(|&&id| dblp.get(DocumentId(id)).is_ok())
        .count();
    report.check(undead == 0, || {
        format!("{undead} acked deletes came back after the crash")
    });
    let (cursor, seo) = toss_serve::load_sidecar(&StdVfs, &files.snapshot)
        .expect("the ontology sidecar is readable");
    let mut hierarchy = seo.original().clone();
    toss_serve::recover_ontology(&mut hierarchy, &records, cursor);
    let lost: Vec<&String> = acked
        .terms
        .iter()
        .filter(|t| hierarchy.node_of(t).is_none())
        .collect();
    report.check(lost.is_empty(), || {
        format!("acked ontology terms lost in the crash: {lost:?}")
    });
}

/// `serve-mixed`: one connection writes, the others read the hot pool.
/// Instances as in [`run_read`].
pub fn run_mixed(cx: &Ctx, report: &mut Report) {
    let mut setups = Vec::new();
    let mut reads: Option<ReadLog> = None;
    let mut writes = WriteLog::default();
    let mut first_write_ms = Vec::new();
    let mut sea_reruns = Vec::new();
    let mut disk_ratio = Vec::new();
    for instance in 0..cx.instances() {
        let t = Instant::now();
        let mut stack = build_stack(cx, inputs::BIG_PAPERS, inputs::BIG_CAP, true);
        setups.push(t.elapsed().as_secs_f64());
        stack.times.report(report, stack.ontology_terms);
        let (pool, quality) = build_pool(&stack, cx, ReadKind::Hot, report);
        if let Some(q) = quality {
            report.set("answer_quality", q, pool.len());
        }
        let edges = {
            let exec = stack.executor.read().expect("executor lock");
            ontology_edges(&exec.seo, &stack.corpus, &pool)
        };
        if instance == 0 {
            print_checksum(
                cx,
                &pool,
                Some((WriteStream::new(cx.seed, edges.clone()), 1000)),
            );
        }

        // the writer's warm-up starts with the first write after the
        // frozen open (it thaws the collection) and writes on until the
        // window opens
        let window = plan_window(cx);
        let ont_clock: OntClock = Arc::new(AtomicU64::new(0));
        let writer = {
            let (addr, seed, epoch, ont_clock) = (stack.addr, cx.seed, cx.epoch, ont_clock.clone());
            thread::spawn(move || {
                let mut writer = Writer {
                    addr,
                    client: Client::connect(addr).expect("writer connects"),
                    seed,
                    stream: WriteStream::new(seed, edges),
                    frames: 0,
                    acked: Acked::default(),
                    epoch,
                    ont_clock,
                };
                let now = Instant::now();
                let warm = Window {
                    start: now,
                    seconds: (window.start - now).as_secs_f64(),
                    traced: false,
                };
                let warm_log = writer.run(&warm, &mut Tracer::new(false, epoch));
                let mut tracer = Tracer::new(window.traced, epoch);
                let log = writer.run(&window, &mut tracer);
                (warm_log, log, writer.acked, tracer)
            })
        };
        let mut readers = connect_readers(&stack, cx, connections() - 1, Some(ont_clock));
        let mut tracer = Tracer::new(false, cx.epoch);
        let (read_log, _) = run_readers(&stack, &pool, &mut readers, &window, &mut tracer);
        let (warm_log, write_log, acked, write_spans) =
            writer.join().expect("writer thread does not panic");
        tracer.absorb(write_spans);

        if let Some(us) = warm_log.ack_us.first() {
            first_write_ms.push(us / 1e3);
        }
        {
            let exec = stack.executor.read().expect("executor lock");
            let (pointer, segment) = store::index_bytes(&exec.db);
            report.set("xmldb.index.pointer_bytes", pointer as f64, 1);
            report.set("xmldb.index.segment_bytes", segment as f64, 1);
        }
        let user_bytes = stack.files.xml_bytes + acked.xml_bytes;
        disk_ratio.push(store::disk_bytes(&stack.files.snapshot) as f64 / user_bytes as f64);
        if cx.trace {
            report_traced_window(report, &read_log);
            decompose(
                &stack,
                &pool,
                &mut readers[0],
                cx.seconds / 3.0,
                &mut tracer,
                report,
            );
            cx.write_trace(&tracer);
        }
        drop(readers);
        sea_reruns.extend(stack.sea_reruns.lock().expect("re-run log").iter());
        stack.server.take().expect("server is running").shutdown();
        crash_audit(&stack.files, &acked, report);

        // of the warm-up only what went wrong counts
        report.attempted += warm_log.attempted;
        report.failed += warm_log.failed;
        for f in warm_log.faults.iter().take(5) {
            report.check(false, || f.clone());
        }
        writes.append(write_log);
        match &mut reads {
            Some(r) => r.add(read_log, false),
            None => reads = Some(read_log),
        }
    }
    let reads = reads.expect("a pass has an instance");
    report.set_median("setup_s", &setups);
    report_reads(report, &reads);
    report.set_median("serve.read_after_ont_write_p50_us", &reads.after_ont_us);
    report.set(
        "writes_per_s",
        writes.ack_us.len() as f64 / reads.window_s,
        writes.ack_us.len(),
    );
    let acks = stats::sorted(writes.ack_us.clone());
    if !acks.is_empty() {
        report.set(
            "write_ack_p50_us",
            stats::percentile(&acks, 50.0),
            acks.len(),
        );
        if let Some(p) = stats::tail_percentile(acks.len(), 95.0) {
            report.set("write_ack_p95_us", stats::percentile(&acks, p), acks.len());
        }
    }
    report.set_median("serve.write.doc_ack_us_p50", &writes.doc_ack_us);
    report.set_median("serve.write.server_us_p50", &writes.server_us);
    report.set_median("serve.write.fsync_us_p50", &writes.fsync_us);
    report.set_median("serve.write.commit_wait_us_p50", &writes.commit_wait_us);
    report.set_mean("serve.write.batch_size_mean", &writes.batch_sizes);
    report.set_median("serve.write.ont_ack_ms_p50", &writes.ont_ack_ms);
    report.set_median("serve.checkpoint_ms_p50", &writes.checkpoint_ms);
    report.set_median("serve.write.first_write_ms", &first_write_ms);
    report.set_median("ontology.sea_rerun_ms", &sea_reruns);
    report.set_median("disk_bytes_per_user_byte", &disk_ratio);
    report.attempted += writes.attempted;
    report.failed += writes.failed;
    for f in writes.faults.iter().take(5) {
        report.check(false, || f.clone());
    }
    for name in ["xmldb.segment.loads", "xmldb.segment.thaws"] {
        report.set(name, registry_counter(name) as f64, 1);
    }
    report.set_failed_frac();
}
