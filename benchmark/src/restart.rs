//! `restart`: the big store's files on disk, one thread cycling
//! open → ontology sidecar → executor → first query answered (one cold
//! open) → 100 inserts → checkpoint → drop.

use crate::inputs;
use crate::metrics::{registry_counter, Report};
use crate::stats::{self, Slices};
use crate::store::{self, SetupTimes, StoreFiles};
use crate::trace::Tracer;
use crate::Ctx;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use toss_datagen::Corpus;
use toss_serve::protocol::build_query;
use toss_serve::QueryRequest;
use toss_xmldb::{apply_op, DatabaseConfig, DurableDatabase, JournalOp, StdVfs};

/// Documents inserted per cycle, each with its own journal fsync.
const INSERTS_PER_CYCLE: usize = 100;

struct Files {
    dir: PathBuf,
    files: StoreFiles,
    corpus: Corpus,
    times: SetupTimes,
    ontology_terms: usize,
}

impl Drop for Files {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn build(cx: &Ctx) -> Files {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let corpus = inputs::corpus(cx.seed, inputs::BIG_PAPERS);
    times.generate_s = t.elapsed().as_secs_f64();
    let seo = store::build_seo(&corpus, inputs::BIG_CAP, &mut times);
    let dir = cx.scratch_dir();
    let files = store::build_store(&dir, &corpus, &seo, &mut times);
    Files {
        dir,
        files,
        corpus,
        times,
        ontology_terms: seo.original().term_count(),
    }
}

/// What one cycle measured; seconds unless the name says otherwise.
#[derive(Default)]
struct Cycle {
    open_s: f64,
    sidecar_s: f64,
    first_query_s: f64,
    cold_open_s: f64,
    /// The first insert after the frozen open: it thaws the collection.
    thaw_s: f64,
    insert_s: Vec<f64>,
    checkpoint_s: f64,
    total_s: f64,
    wal_bytes: u64,
    segment_index_bytes: usize,
    pointer_index_bytes: usize,
    docs_at_open: usize,
    answers: usize,
    segment_loads: u64,
}

fn segment_loads() -> u64 {
    registry_counter("xmldb.segment.loads")
}

fn one_cycle(
    snapshot: &Path,
    first: &QueryRequest,
    inserts: &[String],
    op: u64,
    tracer: &mut Tracer,
) -> Cycle {
    let mut c = Cycle::default();
    let loads_before = segment_loads();
    let started = Instant::now();
    tracer.span("restart.cycle", op, |t| {
        let (durable, s) = t.timed("xmldb.open", op, |_| {
            DurableDatabase::open(snapshot, DatabaseConfig::unlimited()).expect("store reopens")
        });
        c.open_s = s;
        let ((_, seo), s) = t.timed("serve.load_sidecar", op, |_| {
            toss_serve::load_sidecar(&StdVfs, snapshot).expect("ontology sidecar loads")
        });
        c.sidecar_s = s;
        let (db, mut writer) = durable.into_parts();
        let mut exec = t.span("core.executor_new", op, |_| {
            store::executor(db, Arc::new(seo))
        });
        let (answers, s) = t.timed("xmldb.first_query", op, |_| {
            let (query, mode) = build_query(first).expect("pool requests compile");
            exec.select(&query, mode)
                .expect("first query answers")
                .forest
                .len()
        });
        c.first_query_s = s;
        c.answers = answers;
        c.cold_open_s = started.elapsed().as_secs_f64();
        c.docs_at_open = exec.db.collection("dblp").expect("dblp exists").len();
        c.segment_index_bytes = store::index_bytes(&exec.db).1;

        t.span("xmldb.inserts", op, |t| {
            for xml in inserts {
                let journaled = JournalOp::Insert {
                    collection: "dblp".into(),
                    xml: xml.clone(),
                };
                let ((), s) = t.timed("xmldb.insert", op, |_| {
                    writer
                        .append_batch(std::slice::from_ref(&journaled))
                        .expect("journal an insert");
                    apply_op(&mut exec.db, &journaled).expect("apply a journaled insert");
                });
                c.insert_s.push(s);
            }
        });
        c.thaw_s = c.insert_s[0];
        c.wal_bytes = std::fs::metadata(DurableDatabase::wal_path(snapshot))
            .map(|m| m.len())
            .unwrap_or(0);
        c.pointer_index_bytes = store::index_bytes(&exec.db).0;
        let ((), s) = t.timed("xmldb.checkpoint", op, |_| {
            writer.checkpoint(&exec.db).expect("checkpoint");
        });
        c.checkpoint_s = s;
    });
    c.total_s = started.elapsed().as_secs_f64();
    c.segment_loads = segment_loads() - loads_before;
    c
}

/// The documents cycle `n` inserts.
fn cycle_inserts(seed: u64, n: usize) -> Vec<String> {
    (0..INSERTS_PER_CYCLE)
        .map(|i| inputs::written_doc("r", n * INSERTS_PER_CYCLE + i, seed))
        .collect()
}

/// XML bytes one cycle inserts (the same for every cycle of a seed up
/// to the digits of its counters; cycle 0 stands for all).
fn cycle_xml_bytes(seed: u64) -> u64 {
    cycle_inserts(seed, 0).iter().map(|x| x.len() as u64).sum()
}

fn copy_store(from: &Path, to_dir: &Path, with_segment: bool) -> PathBuf {
    std::fs::create_dir_all(to_dir).expect("create side dir");
    let to = to_dir.join("store.json");
    let mut pairs = vec![
        (from.to_path_buf(), to.clone()),
        (
            DurableDatabase::wal_path(from),
            DurableDatabase::wal_path(&to),
        ),
        (
            toss_serve::sidecar_path(from),
            toss_serve::sidecar_path(&to),
        ),
    ];
    if with_segment {
        pairs.push((
            toss_xmldb::segidx::seg_path(from),
            toss_xmldb::segidx::seg_path(&to),
        ));
    }
    for (src, dst) in pairs {
        std::fs::copy(&src, &dst).unwrap_or_else(|e| panic!("copy {}: {e}", src.display()));
    }
    to
}

/// One-off probes of the layers a cold open is made of, on copies of
/// the final store files.
fn layer_probes(cx: &Ctx, snapshot: &Path, report: &mut Report) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let text = std::fs::read_to_string(snapshot).expect("read the snapshot");
    report.set("xmldb.snapshot_bytes", text.len() as f64, 1);
    let parses: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(toss_json::Value::parse(&text).expect("snapshot is JSON"));
            ms(t)
        })
        .collect();
    report.set_median("json.snapshot_parse_ms", &parses);
    drop(text);

    let seg = std::fs::read(toss_xmldb::segidx::seg_path(snapshot)).expect("read the segment");
    report.set("segment.bytes", seg.len() as f64, 1);
    let parses: Vec<f64> = (0..3)
        .map(|_| {
            let bytes = seg.clone();
            let t = Instant::now();
            std::hint::black_box(
                toss_segment::container::Segment::parse(bytes).expect("segment parses"),
            );
            ms(t)
        })
        .collect();
    report.set_median("segment.parse_ms", &parses);

    let side = cx.scratch_dir().with_extension("side");
    let open =
        |path: &Path| DurableDatabase::open(path, DatabaseConfig::unlimited()).expect("copy opens");
    // `.seg` removed: the open rebuilds every index from the documents
    let rebuilt = copy_store(snapshot, &side.join("rebuild"), false);
    let t = Instant::now();
    let durable = open(&rebuilt);
    report.set("xmldb.open_rebuild_ms", ms(t), 1);
    let t = Instant::now();
    std::hint::black_box(toss_xmldb::segidx::build_segment(durable.db(), 0));
    report.set("segment.build_ms", ms(t), 1);
    drop(durable);
    // 100 journaled, un-checkpointed inserts: the open replays them
    let replayed = copy_store(snapshot, &side.join("replay"), true);
    let mut durable = open(&replayed);
    for xml in cycle_inserts(cx.seed, 1_000_000) {
        durable
            .insert_xml("dblp", &xml)
            .expect("insert into the copy");
    }
    drop(durable);
    let t = Instant::now();
    let durable = open(&replayed);
    report.set("xmldb.open_replay_ms", ms(t), 1);
    drop(durable);
    std::fs::remove_dir_all(&side).ok();
}

/// The cycles of one instance: one warm-up cycle, then cycles until the
/// instance's share of the window has elapsed; the cycle in flight
/// finishes, and rates divide by the time really spent. Returns each
/// cycle with the second it finished in and whether it ran traced, and
/// the seconds spent.
fn run_instance(
    cx: &Ctx,
    state: &Files,
    pool: &[QueryRequest],
    tracer: &mut Tracer,
    report: &mut Report,
) -> (Vec<(Cycle, f64, bool)>, f64) {
    // the first query of cycle n is pool spec n; its reference answer
    // comes from one untimed open of the same files
    let snapshot = &state.files.snapshot;
    let references: Vec<usize> = {
        let (_, seo) = toss_serve::load_sidecar(&StdVfs, snapshot).expect("ontology sidecar loads");
        let exec = store::executor(store::open_store(&state.files).into_inner(), Arc::new(seo));
        pool.iter()
            .map(|q| {
                let (query, mode) = build_query(q).expect("pool requests compile");
                exec.select(&query, mode)
                    .expect("reference select")
                    .forest
                    .len()
            })
            .collect()
    };

    let mut n = 0usize;
    let mut run_cycle = |traced: bool, tracer: &mut Tracer, report: &mut Report| {
        tracer.set_enabled(traced);
        let inserts = cycle_inserts(cx.seed, n);
        let c = one_cycle(snapshot, &pool[n % pool.len()], &inserts, n as u64, tracer);
        let want_docs = state.files.docs.0 + n * INSERTS_PER_CYCLE;
        report.check(c.docs_at_open == want_docs, || {
            format!(
                "cycle {n}: opened with {} documents, expected {want_docs}",
                c.docs_at_open
            )
        });
        let want = references[n % pool.len()];
        report.check(c.answers == want, || {
            format!(
                "cycle {n}: first query gave {} answers, reference has {want}",
                c.answers
            )
        });
        report.check(c.segment_loads == 1, || {
            format!(
                "cycle {n}: {} segment loads — the open did not take the segment path",
                c.segment_loads
            )
        });
        report.attempted += 1;
        if c.docs_at_open != want_docs || c.answers != want || c.segment_loads != 1 {
            report.failed += 1;
        }
        n += 1;
        c
    };
    run_cycle(false, tracer, report);
    let window = Instant::now();
    let mut cycles: Vec<(Cycle, f64, bool)> = Vec::new();
    while window.elapsed().as_secs_f64() < cx.window_s() {
        // a traced pass alternates traced and untraced cycles, so the
        // tracing overhead is compared on neighbouring cycles
        let traced = cx.trace && cycles.len() % 2 == 1;
        let c = run_cycle(traced, tracer, report);
        cycles.push((c, window.elapsed().as_secs_f64(), traced));
    }
    (cycles, window.elapsed().as_secs_f64())
}

pub fn run(cx: &Ctx, report: &mut Report) {
    let mut tracer = Tracer::new(false, cx.epoch);
    let mut setups = Vec::new();
    let mut cycles: Vec<(Cycle, f64, bool)> = Vec::new();
    let mut slices = Slices::default();
    let mut elapsed = 0.0;
    let mut disk_ratio = Vec::new();
    for instance in 0..cx.instances() {
        let t = Instant::now();
        let state = build(cx);
        setups.push(t.elapsed().as_secs_f64());
        state.times.report(report, state.ontology_terms);
        let pool: Vec<QueryRequest> =
            inputs::query_pool(&state.corpus, cx.seed ^ 0x9e37_79b9, inputs::HOT_POOL)
                .iter()
                .map(inputs::toss_request)
                .collect();
        if instance == 0 {
            println!(
                "{} request-stream checksum {:016x}",
                cx.workload,
                inputs::stream_checksum(&pool, None)
            );
        }
        let (ran, spent) = run_instance(cx, &state, &pool, &mut tracer, report);
        let mut these = Slices::new(spent, crate::serve::SLICES);
        for (_, done_at, _) in &ran {
            these.record(*done_at);
        }
        slices.append(these);
        let user_bytes = state.files.xml_bytes + (ran.len() as u64 + 1) * cycle_xml_bytes(cx.seed);
        disk_ratio.push(store::disk_bytes(&state.files.snapshot) as f64 / user_bytes as f64);
        elapsed += spent;
        cycles.extend(ran);
        if cx.trace {
            layer_probes(cx, &state.files.snapshot, report);
        }
    }

    report.set_median("setup_s", &setups);
    report.set_throughput(cycles.len(), elapsed, &slices);
    let col =
        |f: &dyn Fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(|(c, _, _)| f(c)).collect() };
    let cold_open_ms = col(&|c| c.cold_open_s * 1e3);
    report.set_median("cold_open_p50_ms", &cold_open_ms);
    report.set(
        "op_p50_us",
        stats::median(&cold_open_ms).expect("a cycle ran") * 1e3,
        cycles.len(),
    );
    report.set_median("checkpoint_p50_ms", &col(&|c| c.checkpoint_s * 1e3));
    report.set_median("xmldb.checkpoint_ms_p50", &col(&|c| c.checkpoint_s * 1e3));
    report.set_median("xmldb.open_ms_p50", &col(&|c| c.open_s * 1e3));
    report.set_median("serve.load_sidecar_ms", &col(&|c| c.sidecar_s * 1e3));
    report.set_median("xmldb.first_query_us", &col(&|c| c.first_query_s * 1e6));
    report.set_median("xmldb.thaw_ms", &col(&|c| c.thaw_s * 1e3));
    let inserts: Vec<f64> = cycles
        .iter()
        .flat_map(|(c, _, _)| c.insert_s[1..].iter().map(|s| s * 1e6))
        .collect();
    report.set_median("xmldb.insert_us_p50", &inserts);
    report.set_median(
        "xmldb.index.segment_bytes",
        &col(&|c| c.segment_index_bytes as f64),
    );
    report.set_median(
        "xmldb.index.pointer_bytes",
        &col(&|c| c.pointer_index_bytes as f64),
    );
    let cycle_xml = cycle_xml_bytes(cx.seed);
    report.set_median(
        "xmldb.wal_bytes_per_user_byte",
        &col(&|c| c.wal_bytes as f64 / cycle_xml as f64),
    );
    for name in ["xmldb.segment.loads", "xmldb.segment.thaws"] {
        report.set(name, registry_counter(name) as f64, 1);
    }
    report.set_median("disk_bytes_per_user_byte", &disk_ratio);
    report.set_failed_frac();

    if cx.trace {
        let spent = |traced: bool| {
            let of = cycles.iter().filter(|c| c.2 == traced);
            (of.clone().map(|c| c.0.total_s).sum(), of.count() as u64)
        };
        if let Some(frac) = stats::trace_overhead(spent(false), spent(true)) {
            report.set("obs.trace_overhead_frac", frac, cycles.len());
        }
        cx.write_trace(&tracer);
    }
}
