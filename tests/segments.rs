//! Integration tests for the frozen index segment sidecar (`.seg`).
//!
//! Three invariants, end to end over the durable layer:
//!
//! * **Equivalence** — a collection probing its segment base plus the
//!   delta of later writes answers exactly like one that rebuilt its
//!   index from the documents, on every probe shape, for arbitrary
//!   generated documents and after every step of any interleaving of
//!   inserts, replaces and removes; the base stays attached throughout,
//!   and the segment a checkpoint then merges is byte-identical to one
//!   built from scratch;
//! * **Fault tolerance** — a truncated, bit-flipped, or stale `.seg` is
//!   detected (checksum / `last_seq` stamp) and silently falls back to a
//!   rebuild: the open succeeds, data is intact, and the snapshot is
//!   never quarantined (a lost sidecar must never cost durability);
//! * **Cold open** — a store restarted from a checkpoint with its
//!   sidecar answers its first probe-planned query straight from the
//!   segment: `toss.index.cold_open_source` reads 1, the planner takes
//!   an index probe, and the collection is still frozen afterwards, and
//!   after a write.
//!
//! The metrics registry is process-global and the cold-open gauge is
//! rewritten by every durable open, so each test holds [`test_lock`]
//! for its whole body — tests in this binary serialize, other binaries
//! are separate processes.

use proptest::prelude::*;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use toss_core::executor::Mode;
use toss_core::tax::EdgeKind;
use toss_core::{Executor, QueryPlan, TossCond, TossQuery, TossTerm};
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_similarity::Levenshtein;
use toss_xmldb::{apply_op, DatabaseConfig, DocumentId, DurableDatabase, FaultVfs, JournalOp, Vfs};

const STORE: &str = "/segments/store.json";
const SEG: &str = "/segments/store.seg";
const COLL: &str = "papers";

fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

fn open(vfs: &Arc<FaultVfs>) -> DurableDatabase {
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs)
        .expect("open durable store")
}

fn gauge(name: &str) -> i64 {
    toss_obs::metrics::snapshot().gauge(name).unwrap_or(-1)
}

fn counter(name: &str) -> u64 {
    toss_obs::metrics::snapshot().counter(name).unwrap_or(0)
}

/// Seed `docs` documents into a fresh store and checkpoint, so the
/// snapshot + `.seg` sidecar pair exists and the journal is empty.
fn seed(vfs: &Arc<FaultVfs>, docs: usize) {
    let mut db = open(vfs);
    db.create_collection(COLL).unwrap();
    for i in 0..docs {
        db.insert_xml(
            COLL,
            &format!(
                "<paper key=\"p{i}\"><author>A{}</author>\
                 <venue>V{}</venue><year>{}</year></paper>",
                i % 7,
                i % 3,
                1990 + i % 5
            ),
        )
        .unwrap();
    }
    db.checkpoint().unwrap();
}

/// Every probe shape the index API offers, on both tag alphabets the
/// tests use, compared between two collections as decoded vectors; each
/// side's O(1) `tag_content_any_len` must also count exactly what it
/// iterates.
fn assert_probes_equal(
    a: &toss_xmldb::Collection,
    b: &toss_xmldb::Collection,
    tags: &[&str],
    contents: &[&str],
    ctx: &str,
) {
    for tag in tags {
        assert_eq!(
            a.index().by_tag(tag).to_vec(),
            b.index().by_tag(tag).to_vec(),
            "{ctx}: by_tag({tag})"
        );
        for content in contents {
            assert_eq!(
                a.index().by_tag_content(tag, content).to_vec(),
                b.index().by_tag_content(tag, content).to_vec(),
                "{ctx}: by_tag_content({tag}, {content})"
            );
            for c in [a, b] {
                assert_eq!(
                    c.index().tag_content_any_len(tag, &[content]),
                    c.index().by_tag_content(tag, content).to_vec().len(),
                    "{ctx}: exact tag_content_any_len({tag}, [{content}])"
                );
            }
        }
        assert_eq!(
            a.index().by_tag_content_any(tag, contents),
            b.index().by_tag_content_any(tag, contents),
            "{ctx}: by_tag_content_any({tag})"
        );
        assert_eq!(
            a.index().tag_content_any_len(tag, contents),
            b.index().tag_content_any_len(tag, contents),
            "{ctx}: tag_content_any_len({tag})"
        );
    }
}

// ---------------------------------------------------------------------
// Equivalence: base ∪ delta probes ≡ rebuilt probes, write by write
// ---------------------------------------------------------------------

const TAGS: &[&str] = &["doc", "a", "b", "title", "absent"];
const WORDS: &[&str] = &["x", "y", "xy", "nothing"];

/// A generated document: 1–4 children, tags and contents drawn from
/// tiny alphabets so postings lists collide heavily across documents.
fn doc_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..3, 0usize..3), 1..5).prop_map(|kids| {
        let mut xml = String::from("<doc>");
        for (t, w) in kids {
            let tag = ["a", "b", "title"][t];
            let word = ["x", "y", "xy"][w];
            xml.push_str(&format!("<{tag}>{word}</{tag}>"));
        }
        xml.push_str("</doc>");
        xml
    })
}

/// A copy of `vfs`'s snapshot without its `.seg` sidecar: opening it
/// rebuilds every index from the documents.
fn without_segment(vfs: &FaultVfs) -> Arc<FaultVfs> {
    let copy = Arc::new(FaultVfs::new());
    copy.corrupt(Path::new(STORE), vfs.read(Path::new(STORE)).unwrap());
    copy
}

/// One write, applied to both twins of the equivalence test.
#[derive(Debug, Clone, Copy)]
enum Write<'a> {
    Insert(&'a str),
    Replace(DocumentId, &'a str),
    Remove(DocumentId),
}

fn apply(db: &mut DurableDatabase, write: Write<'_>) {
    match write {
        Write::Insert(xml) => drop(db.insert_xml(COLL, xml).unwrap()),
        Write::Replace(id, xml) => db.replace_document(COLL, id, xml).unwrap(),
        Write::Remove(id) => drop(db.remove_document(COLL, id).unwrap()),
    }
}

/// Check the base ∪ delta store `frozen` against `pointer`, which had
/// no segment at open and took the same writes, and then against a
/// rebuild after `frozen` checkpoints: the checkpoint rebases `frozen`
/// onto the segment it merged, which must be byte for byte the segment
/// built from scratch over the same documents.
fn check_writes(
    frozen: &mut DurableDatabase,
    pointer: &mut DurableDatabase,
    writes: &[Write<'_>],
    vfs: &FaultVfs,
) {
    for (step, &write) in writes.iter().enumerate() {
        apply(frozen, write);
        apply(pointer, write);
        let ctx = format!("after write {step} ({write:?})");
        let coll = frozen.db().collection(COLL).unwrap();
        assert!(coll.is_frozen(), "{ctx}: still frozen after a write");
        assert!(!pointer.db().collection(COLL).unwrap().is_frozen());
        assert_probes_equal(
            coll,
            pointer.db().collection(COLL).unwrap(),
            TAGS,
            WORDS,
            &ctx,
        );
    }

    frozen.checkpoint().unwrap();
    let coll = frozen.db().collection(COLL).unwrap();
    assert!(coll.is_frozen(), "the checkpoint rebases onto its segment");
    assert_eq!(coll.index_bytes().0, 0, "the rebase empties the delta");
    let merged = vfs.read(Path::new(SEG)).unwrap();
    let rebuilt = open(&without_segment(vfs));
    let rebuilt_coll = rebuilt.db().collection(COLL).unwrap();
    assert!(!rebuilt_coll.is_frozen());
    assert_probes_equal(coll, rebuilt_coll, TAGS, WORDS, "after the rebase");
    let last_seq = toss_segment::Segment::parse(merged.clone())
        .unwrap()
        .last_seq();
    assert!(
        merged == toss_xmldb::segidx::build_segment(rebuilt.db(), last_seq),
        "the merged segment is byte-identical to a rebuild's"
    );
}

/// Seed a store with `docs`, checkpoint, and open it twice: with the
/// sidecar (frozen base) and without (everything in the delta).
fn twins(vfs: &Arc<FaultVfs>, docs: &[String]) -> (DurableDatabase, DurableDatabase) {
    {
        let mut db = open(vfs);
        db.create_collection(COLL).unwrap();
        for xml in docs {
            db.insert_xml(COLL, xml).unwrap();
        }
        db.checkpoint().unwrap();
    }
    let frozen = open(vfs);
    assert!(frozen.db().collection(COLL).unwrap().is_frozen());
    let pointer = open(&without_segment(vfs));
    assert!(!pointer.db().collection(COLL).unwrap().is_frozen());
    assert_probes_equal(
        frozen.db().collection(COLL).unwrap(),
        pointer.db().collection(COLL).unwrap(),
        TAGS,
        WORDS,
        "after cold open",
    );
    (frozen, pointer)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generate a collection, checkpoint it, reopen it with its sidecar
    /// (a frozen base) and without (a rebuild), and drive both through
    /// a generated interleaving of inserts, replaces and removes whose
    /// targets are drawn from the live documents — base documents,
    /// documents written since, documents replaced twice, removed after
    /// a replace. After every write the two answer alike on every probe
    /// shape and the frozen one keeps its base (`check_writes`).
    #[test]
    fn base_plus_delta_equals_rebuild(
        docs in proptest::collection::vec(doc_strategy(), 1..20),
        script in proptest::collection::vec((0usize..3, 0usize..64, doc_strategy()), 0..16),
    ) {
        let _guard = test_lock();
        let vfs = Arc::new(FaultVfs::new());
        let (mut frozen, mut pointer) = twins(&vfs, &docs);
        let mut live: Vec<DocumentId> = (0..docs.len() as u64).map(DocumentId).collect();
        let mut next = docs.len() as u64;
        let mut writes = Vec::new();
        for (kind, pick, xml) in &script {
            let target = (!live.is_empty()).then(|| live[pick % live.len()]);
            match (kind, target) {
                (1, Some(id)) => writes.push(Write::Replace(id, xml)),
                (2, Some(id)) => {
                    live.retain(|&d| d != id);
                    writes.push(Write::Remove(id));
                }
                _ => {
                    live.push(DocumentId(next));
                    next += 1;
                    writes.push(Write::Insert(xml));
                }
            }
        }
        check_writes(&mut frozen, &mut pointer, &writes, &vfs);
    }
}

/// The corner cases of base ∪ delta, each at least once: a base
/// document replaced twice, then removed; a base document removed; a
/// delta document replaced, then removed; a key emptied in the base
/// and refilled by the delta; a key only the delta has.
#[test]
fn base_plus_delta_checkpoint_segment_is_byte_identical_to_a_rebuild() {
    let _guard = test_lock();
    let vfs = Arc::new(FaultVfs::new());
    let docs: Vec<String> = [
        "<doc><a>x</a><b>y</b></doc>",
        "<doc><a>y</a></doc>",
        "<doc><title>xy</title></doc>",
        "<doc><b>x</b><b>x</b></doc>",
    ]
    .map(String::from)
    .to_vec();
    let (mut frozen, mut pointer) = twins(&vfs, &docs);
    let writes = [
        Write::Replace(DocumentId(1), "<doc><b>y</b></doc>"),
        Write::Replace(DocumentId(1), "<doc><a>xy</a></doc>"),
        Write::Remove(DocumentId(2)),
        Write::Insert("<doc><title>xy</title><absent>nothing</absent></doc>"),
        Write::Replace(DocumentId(4), "<doc><a>x</a></doc>"),
        Write::Remove(DocumentId(1)),
        Write::Insert("<doc><b>x</b></doc>"),
        Write::Remove(DocumentId(5)),
        Write::Remove(DocumentId(3)),
    ];
    check_writes(&mut frozen, &mut pointer, &writes, &vfs);
}

// ---------------------------------------------------------------------
// Fault matrix: corrupt sidecars fall back to rebuild, silently
// ---------------------------------------------------------------------

/// Open after corrupting the sidecar: must succeed, must have rebuilt
/// (not frozen), must still hold all the data, and must not have
/// quarantined anything. `rejection_counter` names the metric that must
/// record the refused sidecar (`load_failures` for corruption at the
/// container layer, `stale` for a valid segment with the wrong
/// `last_seq` stamp).
fn assert_falls_back(vfs: &Arc<FaultVfs>, docs: usize, rejection_counter: &str, ctx: &str) {
    let rejections = counter(rejection_counter);
    let db = open(vfs);
    let coll = db.db().collection(COLL).unwrap();
    assert!(!coll.is_frozen(), "{ctx}: corrupt sidecar must not attach");
    assert_eq!(gauge("toss.index.cold_open_source"), 0, "{ctx}: rebuild");
    assert_eq!(coll.len(), docs, "{ctx}: documents survive");
    assert_eq!(
        coll.index().by_tag("author").to_vec().len(),
        docs,
        "{ctx}: rebuilt index answers"
    );
    assert!(
        counter(rejection_counter) > rejections,
        "{ctx}: the rejected sidecar is counted in {rejection_counter}"
    );
    // the snapshot itself is never quarantined for a sidecar fault
    assert!(
        vfs.read(Path::new("/segments/store.json.corrupt")).is_err(),
        "{ctx}: no quarantine artifact"
    );
    vfs.read(Path::new(STORE)).expect("snapshot intact");
}

#[test]
fn truncated_segment_falls_back_to_rebuild() {
    let _guard = test_lock();
    let vfs = Arc::new(FaultVfs::new());
    seed(&vfs, 12);
    let full = vfs.read(Path::new(SEG)).unwrap();
    assert!(full.len() > 64, "sidecar should be non-trivial");
    for cut in [0, 1, 40, full.len() / 2, full.len() - 1] {
        vfs.corrupt(Path::new(SEG), full[..cut].to_vec());
        assert_falls_back(&vfs, 12, "xmldb.segment.load_failures", &format!("truncated at {cut}"));
    }
}

#[test]
fn bit_flips_in_segment_fall_back_to_rebuild() {
    let _guard = test_lock();
    let vfs = Arc::new(FaultVfs::new());
    seed(&vfs, 12);
    let full = vfs.read(Path::new(SEG)).unwrap();
    // flip one bit at a spread of positions: header, directory, payload
    for pos in [0, 8, 16, full.len() / 3, full.len() / 2, full.len() - 1] {
        let mut bytes = full.clone();
        bytes[pos] ^= 0x10;
        vfs.corrupt(Path::new(SEG), bytes);
        assert_falls_back(&vfs, 12, "xmldb.segment.load_failures", &format!("bit flip at {pos}"));
    }
    // and an untouched sidecar still attaches afterwards
    vfs.corrupt(Path::new(SEG), full);
    let db = open(&vfs);
    assert!(db.db().collection(COLL).unwrap().is_frozen());
}

#[test]
fn stale_segment_from_an_older_checkpoint_falls_back() {
    let _guard = test_lock();
    let vfs = Arc::new(FaultVfs::new());
    seed(&vfs, 12);
    // keep the (valid, checksummed) sidecar of checkpoint 1, advance the
    // store to checkpoint 2, then put the old sidecar back: its
    // `last_seq` stamp no longer matches the snapshot, so attaching it
    // would serve deleted documents — it must be refused
    let stale = vfs.read(Path::new(SEG)).unwrap();
    {
        let mut db = open(&vfs);
        db.insert_xml(COLL, "<paper key=\"extra\"><author>Z</author></paper>")
            .unwrap();
        db.checkpoint().unwrap();
    }
    vfs.corrupt(Path::new(SEG), stale);
    assert_falls_back(&vfs, 13, "xmldb.segment.stale", "stale sidecar");
}

// ---------------------------------------------------------------------
// Cold open: first probe-planned query is answered from the segment
// ---------------------------------------------------------------------

#[test]
fn restarted_store_answers_first_probe_query_from_the_segment() {
    let _guard = test_lock();
    let vfs = Arc::new(FaultVfs::new());
    seed(&vfs, 30);

    // restart: open strictly from the checkpoint artifacts
    let db = open(&vfs);
    assert_eq!(
        gauge("toss.index.cold_open_source"),
        1,
        "the sidecar must serve this open"
    );
    let coll = db.db().collection(COLL).unwrap();
    assert!(coll.is_frozen());

    // run the first query through the full executor: a selective eq
    // predicate the planner answers with an index probe
    let (database, _writer) = db.into_parts();
    let h = from_pairs(&[("A1", "author"), ("A2", "author")]).unwrap();
    let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
    let mut ex = Executor::new(database, seo);
    let query = TossQuery {
        collection: COLL.into(),
        pattern: toss_core::algebra::TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("paper")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::eq(TossTerm::content(2), TossTerm::str("A3")),
            ]),
        )
        .unwrap(),
        expand_labels: vec![1],
    };
    let out = ex.select(&query, Mode::Toss).unwrap();
    assert!(
        matches!(out.plan, Some(QueryPlan::IndexProbe { .. })),
        "expected an index probe, got {:?}",
        out.plan.as_ref().map(|p| p.to_string())
    );
    // A3 authors: i % 7 == 3 over 30 docs → 4 papers
    assert_eq!(out.forest.len(), 4, "probe answers must be exact");

    // ...and neither answering it nor a write detaches the base
    assert!(
        ex.db.collection(COLL).unwrap().is_frozen(),
        "the collection still probes the segment after the query"
    );
    let insert = JournalOp::Insert {
        collection: COLL.into(),
        xml: "<paper key=\"late\"><author>A3</author></paper>".into(),
    };
    apply_op(&mut ex.db, &insert).unwrap();
    let coll = ex.db.collection(COLL).unwrap();
    assert!(
        coll.is_frozen(),
        "a write lands beside the base, which stays"
    );
    assert_eq!(
        coll.index().by_tag_content("author", "A3").to_vec().len(),
        5
    );
}
