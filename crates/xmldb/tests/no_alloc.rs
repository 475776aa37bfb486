//! Index probes must not allocate: borrowed map lookups on the pointer
//! delta, a streaming decode on the frozen (`.seg`-backed) base, and a
//! merge cursor over the tombstones when a base and a delta both hold
//! postings.
//!
//! A **single** test on purpose: the counting global allocator's delta
//! would race with sibling tests in the same binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use toss_xmldb::{Collection, DatabaseConfig, DurableDatabase, FaultVfs, Vfs};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

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
    let before = ALLOCS.load(Ordering::Relaxed);
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
    let delta = ALLOCS.load(Ordering::Relaxed) - before;
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
            let t = &d.tree;
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
