//! Index-segment benchmark — `BENCH_segments.json`.
//!
//! Measures what the `.seg` sidecar buys at three store shapes
//! (10k/50k/100k docs; `--quick` runs one small shape for CI):
//!
//! * **index memory** — the pointer `CollectionIndex`'s approximate heap
//!   footprint vs the segment's section bytes for the same postings;
//! * **cold open to first probe** — time from `DurableDatabase::open`
//!   to a completed `//tag` probe, with the sidecar present (zero-copy
//!   attach) vs deleted (full rebuild from documents);
//! * **probe latency** — a fixed schedule of `by_tag`, `by_tag_content`
//!   and `by_tag_content_any` probes against the frozen index vs the
//!   pointer index.
//!
//! Every shape asserts **result equivalence**: the frozen index must
//! return byte-identical postings (same documents, same nodes, same
//! order) for every probe the schedule runs. The binary also asserts
//! the PR's two hot-path claims directly:
//!
//! * a pointer `by_tag_content` probe performs **zero allocations**
//!   (counted by a wrapping global allocator), and so does iterating a
//!   frozen postings block;
//! * at the largest shape the segment is ≥4× smaller than the pointer
//!   index, cold open with the sidecar beats the rebuild, and the
//!   frozen probe schedule stays within 1.2× of the pointer one.
//!
//! Everything runs on an in-memory [`FaultVfs`], so the cold-open
//! numbers compare CPU work (parse + attach vs parse + re-index), not
//! disk caches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use toss_json::Value;
use toss_xmldb::{DatabaseConfig, DurableDatabase, FaultVfs, Posting, Vfs};

/// Counts allocations so the bench can assert a probe path is
/// allocation-free. Dealloc/realloc pass straight through.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const STORE: &str = "/bench-segments/store.json";
const COLL: &str = "c";

/// One synthetic bibliography document. Authors/venues/years rotate
/// through small pools (long postings lists); titles are unique (the
/// worst case for per-key overhead in the pointer content map).
fn doc_xml(i: usize) -> String {
    format!(
        "<paper key=\"p{i}\"><author>A{}</author><venue>V{}</venue>\
         <year>{}</year><title>T-{}-{:x}</title></paper>",
        i % 211,
        i % 13,
        1980 + i % 40,
        i,
        (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

/// Build a durable store of `docs` documents and checkpoint it (which
/// writes the `.seg` sidecar). Returns the pointer index's approximate
/// heap bytes, measured on the live (just-built) index.
fn build_store(vfs: &Arc<FaultVfs>, docs: usize) -> usize {
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    let mut d =
        DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs)
            .expect("open fresh store");
    d.create_collection(COLL).expect("create collection");
    for i in 0..docs {
        d.insert_xml(COLL, &doc_xml(i)).expect("insert doc");
    }
    d.checkpoint().expect("checkpoint writes snapshot + segment");
    d.db().collection(COLL).expect("collection").index_bytes().0
}

/// Open the store and run one `//author` probe; returns the database
/// and the nanoseconds from open to the probe completing.
fn cold_open(vfs: &Arc<FaultVfs>) -> (DurableDatabase, u64) {
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    let t0 = Instant::now();
    let d = DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs)
        .expect("reopen store");
    let coll = d.db().collection(COLL).expect("collection");
    let n: usize = coll.index().by_tag("author").iter().map(|p| p.node.index()).sum();
    let ns = t0.elapsed().as_nanos() as u64;
    assert!(n > 0, "the cold probe must see postings");
    (d, ns)
}

fn gauge(name: &str) -> i64 {
    toss_obs::metrics::snapshot().gauge(name).unwrap_or(-1)
}

/// The fixed probe schedule: tag probes over the long lists, content
/// probes over hot keys (long lists), cold keys (unique titles) and
/// misses, and one multi-term `any` per round.
fn probe_schedule(docs: usize) -> Vec<(String, Option<String>)> {
    let mut probes = Vec::new();
    for r in 0..64usize {
        probes.push(("author".to_string(), None));
        probes.push((format!("tag-miss-{r}"), None));
        probes.push(("author".to_string(), Some(format!("A{}", r % 211))));
        probes.push(("venue".to_string(), Some(format!("V{}", r % 13))));
        probes.push(("year".to_string(), Some(format!("{}", 1980 + r % 40))));
        let i = (r * 97) % docs;
        probes.push((
            "title".to_string(),
            Some(format!(
                "T-{}-{:x}",
                i,
                (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            )),
        ));
        probes.push(("author".to_string(), Some(format!("nobody-{r}"))));
    }
    probes
}

/// Run the schedule against a collection. The checksum folds every
/// posting the probes produce, so two runs returning the same value saw
/// identical postings in identical order; tag/content splits let the
/// output show where a latency gap lives.
struct ProbeRun {
    checksum: u64,
    total_ns: u64,
    tag_ns: u64,
    content_ns: u64,
}

fn run_probes(
    coll: &toss_xmldb::Collection,
    probes: &[(String, Option<String>)],
    any_terms: &[String],
) -> ProbeRun {
    let t0 = Instant::now();
    let mut sum = 0u64;
    let mut tag_ns = 0u64;
    let mut content_ns = 0u64;
    let fold = |acc: &mut u64, p: Posting| {
        *acc = acc
            .wrapping_mul(0x100000001b3)
            .wrapping_add(p.doc.0 << 32 | p.node.index() as u64);
    };
    let index = coll.index();
    for (tag, content) in probes {
        match content {
            None => {
                let t = Instant::now();
                for p in index.by_tag(tag) {
                    fold(&mut sum, p);
                }
                tag_ns += t.elapsed().as_nanos() as u64;
            }
            Some(c) => {
                let t = Instant::now();
                for p in index.by_tag_content(tag, c) {
                    fold(&mut sum, p);
                }
                content_ns += t.elapsed().as_nanos() as u64;
            }
        }
    }
    for p in index.by_tag_content_any("author", any_terms) {
        fold(&mut sum, p);
    }
    sum = sum
        .wrapping_mul(0x100000001b3)
        .wrapping_add(index.tag_content_any_len("venue", any_terms) as u64);
    ProbeRun {
        checksum: sum,
        total_ns: t0.elapsed().as_nanos() as u64,
        tag_ns,
        content_ns,
    }
}

/// Assert the hot probe paths allocate nothing: the pointer
/// `by_tag_content` (two borrowed map lookups) and iterating a frozen
/// postings block (streaming decode).
fn assert_alloc_free(coll: &toss_xmldb::Collection, label: &str) {
    let index = coll.index();
    // warm up outside the counted window (lazy statics, first decode)
    let mut n = 0usize;
    for p in index.by_tag_content("venue", "V3") {
        n += p.node.index();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..100 {
        for p in index.by_tag_content("venue", "V3") {
            n += p.node.index();
        }
        for p in index.by_tag_content("author", "A7") {
            n += p.node.index();
        }
        for p in index.by_tag_content("author", "missing-key") {
            n += p.node.index();
        }
    }
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(n > 0, "probes must see postings");
    assert_eq!(
        delta, 0,
        "{label}: by_tag_content probes must be allocation-free, saw {delta} allocs"
    );
}

struct ShapeResult {
    docs: usize,
    pointer_bytes: usize,
    segment_bytes: usize,
    cold_open_segment_ns: u64,
    cold_open_rebuild_ns: u64,
    probe_pointer_ns: u64,
    probe_frozen_ns: u64,
    tag_pointer_ns: u64,
    tag_frozen_ns: u64,
    content_pointer_ns: u64,
    content_frozen_ns: u64,
}

fn run_shape(docs: usize) -> ShapeResult {
    let vfs = Arc::new(FaultVfs::new());
    let pointer_bytes = build_store(&vfs, docs);

    // Cold open WITH the sidecar: every collection must attach frozen.
    let (frozen_db, cold_open_segment_ns) = cold_open(&vfs);
    assert_eq!(
        gauge("toss.index.cold_open_source"),
        1,
        "a current sidecar must serve the cold open (no rebuild)"
    );
    let frozen_coll = frozen_db.db().collection(COLL).expect("collection");
    assert!(frozen_coll.is_frozen(), "collection must probe the segment");
    let segment_bytes = frozen_coll.index_bytes().1;
    assert!(segment_bytes > 0, "frozen index must report section bytes");

    // Cold open WITHOUT the sidecar: the rebuild path.
    vfs.remove(Path::new("/bench-segments/store.seg"))
        .expect("delete the segment sidecar");
    let (pointer_db, cold_open_rebuild_ns) = cold_open(&vfs);
    assert_eq!(
        gauge("toss.index.cold_open_source"),
        0,
        "without the sidecar the cold open must rebuild"
    );
    let pointer_coll = pointer_db.db().collection(COLL).expect("collection");
    assert!(!pointer_coll.is_frozen());

    // Equivalence: identical postings, identical order, on every probe
    // shape the schedule runs (plus explicit Vec comparison on a few).
    let probes = probe_schedule(docs);
    let any_terms: Vec<String> = (0..8).map(|i| format!("A{}", i * 17 % 211)).collect();
    for (tag, content) in [
        ("author", Some("A7")),
        ("year", Some("1999")),
        ("title", None),
        ("paper", None),
        ("absent", Some("x")),
    ] {
        let (a, b) = match content {
            None => (
                frozen_coll.index().by_tag(tag).to_vec(),
                pointer_coll.index().by_tag(tag).to_vec(),
            ),
            Some(c) => (
                frozen_coll.index().by_tag_content(tag, c).to_vec(),
                pointer_coll.index().by_tag_content(tag, c).to_vec(),
            ),
        };
        assert_eq!(a, b, "postings diverge on ({tag}, {content:?})");
    }

    // Warm both, then measure: schedule checksum must match exactly.
    let warm_f = run_probes(frozen_coll, &probes, &any_terms);
    let warm_p = run_probes(pointer_coll, &probes, &any_terms);
    assert_eq!(
        warm_f.checksum, warm_p.checksum,
        "probe schedules saw different postings"
    );
    let frozen = run_probes(frozen_coll, &probes, &any_terms);
    let pointer = run_probes(pointer_coll, &probes, &any_terms);
    assert_eq!(frozen.checksum, pointer.checksum);

    assert_alloc_free(pointer_coll, "pointer");
    assert_alloc_free(frozen_coll, "frozen");

    ShapeResult {
        docs,
        pointer_bytes,
        segment_bytes,
        cold_open_segment_ns,
        cold_open_rebuild_ns,
        probe_pointer_ns: pointer.total_ns,
        probe_frozen_ns: frozen.total_ns,
        tag_pointer_ns: pointer.tag_ns,
        tag_frozen_ns: frozen.tag_ns,
        content_pointer_ns: pointer.content_ns,
        content_frozen_ns: frozen.content_ns,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let shapes: &[usize] = if quick {
        &[2_000]
    } else {
        &[10_000, 50_000, 100_000]
    };
    let mut results = Vec::new();
    for &docs in shapes {
        eprintln!("bench_segments: shape {docs} docs");
        let r = run_shape(docs);
        eprintln!(
            "  index bytes {} -> {} ({:.1}x), cold open {}us (seg) vs {}us (rebuild), \
             probes {}us (frozen) vs {}us (pointer) [tag {}us/{}us, content {}us/{}us]",
            r.pointer_bytes,
            r.segment_bytes,
            r.pointer_bytes as f64 / r.segment_bytes as f64,
            r.cold_open_segment_ns / 1_000,
            r.cold_open_rebuild_ns / 1_000,
            r.probe_frozen_ns / 1_000,
            r.probe_pointer_ns / 1_000,
            r.tag_frozen_ns / 1_000,
            r.tag_pointer_ns / 1_000,
            r.content_frozen_ns / 1_000,
            r.content_pointer_ns / 1_000,
        );
        results.push(r);
    }

    // The PR's acceptance gates, checked at the largest shape (timing
    // gates only in the full run — the CI smoke's shape is too small
    // for stable ratios, but its equivalence assertions always run).
    let last = results.last().expect("at least one shape");
    let mem_ratio = last.pointer_bytes as f64 / last.segment_bytes as f64;
    let probe_ratio = last.probe_frozen_ns as f64 / last.probe_pointer_ns as f64;
    if !quick {
        assert!(
            mem_ratio >= 4.0,
            "segment must be >=4x smaller than the pointer index, got {mem_ratio:.2}x"
        );
        assert!(
            last.cold_open_segment_ns < last.cold_open_rebuild_ns,
            "cold open must be dominated by the segment load, not a rebuild"
        );
        assert!(
            probe_ratio <= 1.2,
            "frozen probes must stay within 1.2x of pointer probes, got {probe_ratio:.2}x"
        );
    }

    let out_value = Value::Object(vec![
        ("bench".into(), Value::Str("segments".into())),
        ("quick".into(), Value::Bool(quick)),
        (
            "shapes".into(),
            Value::Array(
                results
                    .iter()
                    .map(|r| {
                        Value::Object(vec![
                            ("docs".into(), Value::Int(r.docs as i64)),
                            (
                                "pointer_index_bytes".into(),
                                Value::Int(r.pointer_bytes as i64),
                            ),
                            (
                                "segment_bytes".into(),
                                Value::Int(r.segment_bytes as i64),
                            ),
                            (
                                "memory_ratio".into(),
                                Value::Float(
                                    r.pointer_bytes as f64 / r.segment_bytes as f64,
                                ),
                            ),
                            (
                                "cold_open_segment_us".into(),
                                Value::Int((r.cold_open_segment_ns / 1_000) as i64),
                            ),
                            (
                                "cold_open_rebuild_us".into(),
                                Value::Int((r.cold_open_rebuild_ns / 1_000) as i64),
                            ),
                            (
                                "probe_frozen_us".into(),
                                Value::Int((r.probe_frozen_ns / 1_000) as i64),
                            ),
                            (
                                "probe_pointer_us".into(),
                                Value::Int((r.probe_pointer_ns / 1_000) as i64),
                            ),
                            (
                                "probe_ratio".into(),
                                Value::Float(
                                    r.probe_frozen_ns as f64 / r.probe_pointer_ns as f64,
                                ),
                            ),
                            (
                                "tag_probe_frozen_us".into(),
                                Value::Int((r.tag_frozen_ns / 1_000) as i64),
                            ),
                            (
                                "tag_probe_pointer_us".into(),
                                Value::Int((r.tag_pointer_ns / 1_000) as i64),
                            ),
                            (
                                "content_probe_frozen_us".into(),
                                Value::Int((r.content_frozen_ns / 1_000) as i64),
                            ),
                            (
                                "content_probe_pointer_us".into(),
                                Value::Int((r.content_pointer_ns / 1_000) as i64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("equivalence_asserted".into(), Value::Bool(true)),
        ("alloc_free_probe_asserted".into(), Value::Bool(true)),
    ]);
    let out = toss_bench::write_bench("segments", quick, &out_value).expect("write BENCH_segments.json");
    eprintln!("wrote {}", out.display());
}
