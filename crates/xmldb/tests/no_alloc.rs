//! Index probes must not allocate: borrowed map lookups on the pointer
//! delta, a streaming decode on the frozen (`.seg`-backed) base, and a
//! merge cursor over the tombstones when a base and a delta both hold
//! postings. Parsing a document allocates only what its tree keeps, and
//! measuring one allocates nothing once its buffer is warm.
//!
//! The allocator counts per thread, so tests running beside each other
//! on other threads do not show up in a test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use toss_xmldb::{
    measure_stored, parse_document, Collection, DatabaseConfig, DurableDatabase, FaultVfs,
    Measured, Vfs,
};

struct CountingAlloc;

thread_local! {
    // const-initialised and without a destructor: reading it never
    // allocates, at any point of the thread's life
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations and reallocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const STORE: &str = "/no-alloc/store.json";
const COLL: &str = "c";

/// Authors/venues/years rotate through small pools (long postings
/// lists); titles are unique.
fn doc_xml(i: usize) -> String {
    format!(
        "<paper key=\"p{i}\"><author>A{}</author><venue>V{}</venue>\
         <year>{}</year><title>T-{i}</title></paper>",
        i % 211,
        i % 13,
        1980 + i % 40,
    )
}

fn open(vfs: &Arc<FaultVfs>) -> DurableDatabase {
    let dyn_vfs: Arc<dyn Vfs> = vfs.clone();
    DurableDatabase::open_with(STORE, DatabaseConfig::unlimited(), dyn_vfs).expect("open store").0
}

fn assert_alloc_free(coll: &Collection, label: &str) {
    let index = coll.index();
    // warm up outside the counted window (lazy statics, first decode)
    let mut n = 0usize;
    for p in index.by_tag_content("venue", "V3") {
        n += p.node.index();
    }
    let ((), delta) = allocs(|| {
        for _ in 0..100 {
            for p in index.by_tag("title") {
                n += p.node.index();
            }
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
    });
    assert!(n > 0, "probes must see postings");
    assert_eq!(
        delta, 0,
        "{label}: index probes must be allocation-free, saw {delta} allocs"
    );
}

/// Documents whose venue is `V3`, counted from the documents
/// themselves.
fn v3_docs(coll: &Collection) -> usize {
    coll.documents()
        .iter()
        .filter(|d| {
            let t = d.tree();
            let venue = t.child_by_tag(t.root().unwrap(), "venue");
            venue.and_then(|v| t.data(v).ok()?.content.as_ref().map(|c| c.render()))
                == Some("V3".into())
        })
        .count()
}

#[test]
fn by_tag_content_probes_do_not_allocate() {
    let vfs = Arc::new(FaultVfs::new());
    let mut pointer_db = open(&vfs);
    pointer_db.create_collection(COLL).expect("create collection");
    for i in 0..2_000 {
        pointer_db.insert_xml(COLL, &doc_xml(i)).expect("insert doc");
    }
    // never checkpointed: the whole index is the pointer delta
    let pointer_coll = pointer_db.db().collection(COLL).expect("collection");
    assert!(!pointer_coll.is_frozen());
    assert_alloc_free(pointer_coll, "pointer");
    pointer_db.checkpoint().expect("checkpoint writes snapshot + segment");
    drop(pointer_db);

    // a reopen attaches the segment the checkpoint wrote
    let mut db = open(&vfs);
    let frozen_coll = db.db().collection(COLL).expect("collection");
    assert!(frozen_coll.is_frozen(), "collection must probe the segment");
    assert_alloc_free(frozen_coll, "frozen");

    // base ∪ delta: tombstone base documents on the probed lists
    // (ids 3 and 16 hold V3, 7 holds A7; 29 is replaced) and write
    // new ones onto them
    for id in [3u64, 16, 7] {
        db.remove_document(COLL, toss_xmldb::DocumentId(id))
            .expect("remove a base doc");
    }
    db.replace_document(COLL, toss_xmldb::DocumentId(29), &doc_xml(7 + 211))
        .expect("replace a base doc");
    for i in 2_000..2_100 {
        db.insert_xml(COLL, &doc_xml(i)).expect("insert doc");
    }
    let layered = db.db().collection(COLL).expect("collection");
    assert!(layered.is_frozen(), "still frozen after a write");
    assert!(layered.index_bytes().0 > 0, "the writes are in the delta");
    let v3 = layered.index().by_tag_content("venue", "V3").to_vec();
    assert_eq!(v3.len(), v3_docs(layered), "tombstones filter the base");
    assert!(
        v3.iter().any(|p| p.doc.0 >= 2_000),
        "the delta holds V3 postings"
    );
    assert_alloc_free(layered, "base ∪ delta");
}

/// A dblp record: six elements, one attribute, five text runs (one a
/// number).
const RECORD: &str = "<inproceedings key=\"conf/gen/0\"><author>L. Jensen</author>\
    <title>Self-Tuning Query Optimization for Scientific Archives</title>\
    <year>2003</year><booktitle>EDBT</booktitle><pages>1-12</pages></inproceedings>";

#[test]
fn parsing_a_document_allocates_only_what_its_tree_keeps() {
    // warm up outside the counted window
    parse_document(RECORD).expect("the record parses");
    let (tree, n) = allocs(|| parse_document(RECORD).expect("the record parses"));
    assert_eq!(tree.node_count(), 6);
    // six tags, an attribute's name and value, five texts, one
    // attribute list and one arena
    assert!(n <= 15, "parsing the record took {n} allocations");
}

#[test]
fn measuring_a_document_allocates_nothing_once_the_buffer_is_warm() {
    // an attribute value and texts that decode through the buffer
    let decoded = RECORD
        .replace("L. Jensen", "L. &#74;ensen &amp; K")
        .replace("conf/gen/0", "conf&#47;gen/0");
    for record in [RECORD, decoded.as_str()] {
        let mut buf = String::new();
        // warm up outside the counted window
        measure_stored(record, &mut buf).expect("the record measures");
        let (measured, n) =
            allocs(|| measure_stored(record, &mut buf).expect("the record measures"));
        let tree = parse_document(record).expect("the record parses");
        let xml = toss_tree::serialize::tree_to_xml(&tree, toss_tree::serialize::Style::Compact);
        let expected = Measured {
            size: xml.len(),
            canonical: xml == record,
        };
        assert_eq!(measured, expected);
        assert_eq!(n, 0, "measuring the record took {n} allocations");
    }
}
