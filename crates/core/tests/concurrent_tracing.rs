//! Span trees from concurrent queries on one shared [`Executor`] must
//! not interleave: span nesting is tracked per thread, so every thread's
//! records must reassemble into complete, well-formed
//! `select → rewrite/execute/convert` trees.

use std::sync::Arc;
use toss_core::algebra::TossPattern;
use toss_core::executor::Mode;
use toss_core::tax::EdgeKind;
use toss_core::{Executor, TossCond, TossQuery, TossTerm};
use toss_obs::sink::MemorySink;
use toss_obs::QueryTrace;
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_similarity::Levenshtein;
use toss_xmldb::{Database, DatabaseConfig};

fn setup() -> Executor {
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    let c = db.create_collection("dblp").unwrap();
    c.insert_xml(
        "<inproceedings key=\"p0\"><author>Jeff Ullmann</author>\
         <booktitle>SIGMOD Conference</booktitle><year>1999</year></inproceedings>",
    )
    .unwrap();
    c.insert_xml(
        "<inproceedings key=\"p1\"><author>Jeff Ullman</author>\
         <booktitle>VLDB</booktitle><year>2000</year></inproceedings>",
    )
    .unwrap();
    let h = from_pairs(&[
        ("Jeff Ullmann", "author"),
        ("Jeff Ullman", "author"),
        ("SIGMOD Conference", "conference"),
        ("VLDB", "conference"),
    ])
    .unwrap();
    let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
    Executor::new(db, seo)
}

fn author_query(probe: &str) -> TossQuery {
    TossQuery {
        collection: "dblp".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::similar(TossTerm::content(2), TossTerm::str(probe)),
            ]),
        )
        .unwrap(),
        expand_labels: vec![1],
    }
}

#[test]
fn concurrent_queries_produce_untangled_span_trees() {
    const THREADS: usize = 4;
    const QUERIES_PER_THREAD: usize = 5;

    let executor = Arc::new(setup());
    let sink = Arc::new(MemorySink::new());
    let _scope = toss_obs::install_sink_scoped(sink.clone());

    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let ex = executor.clone();
        handles.push(std::thread::spawn(move || {
            let tid = toss_obs::current_thread_id();
            for _ in 0..QUERIES_PER_THREAD {
                let out = ex
                    .select(&author_query("Jeff Ullmann"), Mode::Toss)
                    .expect("select succeeds");
                assert_eq!(out.forest.len(), 2);
            }
            tid
        }));
    }
    let thread_ids: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let records = sink.records();
    for &tid in &thread_ids {
        let trace = QueryTrace::for_thread(&records, tid);
        let selects: Vec<_> = trace
            .roots
            .iter()
            .filter(|r| r.record.name == "toss.query.select")
            .collect();
        assert_eq!(
            selects.len(),
            QUERIES_PER_THREAD,
            "thread {tid} should have one root select per query"
        );
        for root in selects {
            // every query tree carries the full three-phase skeleton, in
            // start order, with no spans leaked in from other threads
            let names: Vec<&str> = root.children.iter().map(|c| c.record.name).collect();
            assert_eq!(
                names,
                vec![
                    "toss.query.rewrite",
                    "toss.query.execute",
                    "toss.query.convert"
                ],
                "thread {tid} got an interleaved tree"
            );
            for child in &root.children {
                assert!(
                    child.children.iter().all(|g| g.record.thread == tid),
                    "a foreign thread's span nested under thread {tid}'s tree"
                );
            }
            assert!(
                root.find("xmldb.xpath.eval").is_some(),
                "store spans must nest under the execute phase"
            );
        }
    }

    // cross-check: every recorded toss.query.select belongs to a worker
    let total_selects = records
        .iter()
        .filter(|r| r.name == "toss.query.select" && thread_ids.contains(&r.thread))
        .count();
    assert_eq!(total_selects, THREADS * QUERIES_PER_THREAD);
}
