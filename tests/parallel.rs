//! Parallel-scan equivalence suite (see `docs/performance.md`):
//! `Candidates::eval` on 2 and 7 workers must return *exactly* what it
//! returns on one — same matches, same order — for every visit limit,
//! and must stop at an interrupt on every worker count; an executor
//! select must admit, charge, degrade and fail identically at every
//! worker count. The one-worker run is pinned to an independent
//! streaming scan by the unit tests in `crates/xmldb/src/xpath/eval.rs`.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use toss::core::algebra::TossPattern;
use toss::core::executor::Mode;
use toss::core::{
    DegradationInfo, Executor, Limit, QueryBudget, QueryGovernor, QueryPlan, TossCond,
    TossError, TossQuery, TossTerm, WorkerPool,
};
use toss::ontology::hierarchy::from_pairs;
use toss::ontology::sea::enhance;
use toss::similarity::Levenshtein;
use toss::tax::EdgeKind;
use toss::tree::serialize::{forest_to_xml, Style};
use toss::xmldb::{Collection, Database, DatabaseConfig, NodeRef, XPath};

/// Worker counts exercised everywhere: sequential, the smallest real
/// pool, and an odd count that never divides the partition count evenly.
const THREADS: [usize; 3] = [1, 2, 7];

fn build_db(docs: usize) -> Database {
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    let c = db.create_collection("c").unwrap();
    for i in 0..docs {
        if i % 5 == 4 {
            // a different root tag so candidate filtering is exercised
            c.insert_xml(&format!(
                "<article key=\"a{i}\"><author>A{i}</author>\
                 <journal>J{}</journal></article>",
                i % 3
            ))
            .unwrap();
        } else {
            c.insert_xml(&format!(
                "<inproceedings key=\"p{i}\"><author>A{i}</author>\
                 <booktitle>B{}</booktitle><year>{}</year></inproceedings>",
                i % 4,
                1990 + i % 10
            ))
            .unwrap();
        }
    }
    db
}

const QUERIES: [&str; 6] = [
    "//author",
    "//inproceedings[author='A3']",
    "/inproceedings/booktitle",
    "//inproceedings[booktitle='B1']/year",
    "//author | //year",
    "//inproceedings[not(booktitle='B1')]",
];

/// Evaluate the first `limit` visits of `xpath` over the whole
/// collection on `threads` workers, never interrupted.
fn scan(xpath: &XPath, coll: &Collection, limit: usize, threads: usize) -> Vec<NodeRef> {
    xpath
        .scan_candidates(coll)
        .eval(limit, &|| false, &WorkerPool::new(threads))
        .expect("never interrupted")
}

/// An interrupt poll that reports a stop from its `k+1`-th call on.
struct FlipAfter {
    k: usize,
    polls: AtomicUsize,
}

impl FlipAfter {
    fn new(k: usize) -> Self {
        FlipAfter {
            k,
            polls: AtomicUsize::new(0),
        }
    }

    fn poll(&self) -> bool {
        self.polls.fetch_add(1, Ordering::SeqCst) >= self.k
    }
}

#[test]
fn parallel_scan_equals_sequential_unbudgeted() {
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    for q in QUERIES {
        let xpath = XPath::parse(q).unwrap();
        let expected = xpath.eval_collection(coll);
        for threads in THREADS {
            assert_eq!(
                scan(&xpath, coll, usize::MAX, threads),
                expected,
                "query {q} threads {threads}"
            );
        }
    }
}

#[test]
fn soft_truncation_is_thread_count_invariant() {
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    for q in QUERIES {
        let xpath = XPath::parse(q).unwrap();
        let n = xpath.scan_candidates(coll).len();
        let full = scan(&xpath, coll, usize::MAX, 1);
        for limit in 0..=n + 1 {
            let baseline = scan(&xpath, coll, limit, 1);
            assert!(
                baseline.iter().all(|m| full.contains(m)),
                "query {q} limit {limit}: a cut scan finds a subset"
            );
            for threads in THREADS {
                let got = scan(&xpath, coll, limit, threads);
                assert_eq!(got, baseline, "query {q} limit {limit} threads {threads}");
            }
        }
    }
}

#[test]
fn pre_cancelled_budget_aborts_before_any_visit() {
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    let visits = XPath::parse("//author").unwrap();
    let visits = visits.scan_candidates(coll);
    for threads in THREADS {
        // the first poll on every worker reports the stop, and a poll
        // precedes every visit: nothing is evaluated
        let stop = FlipAfter::new(0);
        let out = visits.eval(usize::MAX, &|| stop.poll(), &WorkerPool::new(threads));
        assert_eq!(out, None, "threads {threads}");
        assert!(stop.polls.load(Ordering::SeqCst) <= threads);
    }
}

#[test]
fn index_probe_candidates_reproduce_the_scan_result() {
    // Filtering the scan to the content index's candidate documents must
    // not change the answer: the probe key (a booktitle term) is a
    // necessary condition for the query below.
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    let xpath = XPath::parse("//inproceedings[booktitle='B1']/year").unwrap();
    let expected = xpath.eval_collection(coll);
    let docs = coll.index().docs_with_tag_content_any("booktitle", &["B1"]);
    assert!(
        docs.len() < coll.documents().len(),
        "probe must be selective for this fixture"
    );
    let visits = xpath.probe_candidates(coll, &docs);
    assert_eq!(
        visits.len(),
        docs.len(),
        "every candidate is one visit, admitted like a scan visit"
    );
    for threads in THREADS {
        let pool = WorkerPool::new(threads);
        let got = visits.eval(usize::MAX, &|| false, &pool);
        assert_eq!(got, Some(expected.clone()), "threads {threads}");
    }
}

/// An executor over [`build_db`] on `threads` workers; `A1` and `A2`
/// fuse in its SEO.
fn executor(threads: usize) -> Executor {
    let h = from_pairs(&[("A1", "author"), ("A2", "author")]).unwrap();
    let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
    Executor::new(build_db(53), seo).with_threads(threads)
}

/// `inproceedings` with a `child` leaf, optionally similar to `value`.
fn query(child: &str, similar: Option<&str>) -> TossQuery {
    let mut conds = vec![
        TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
        TossCond::eq(TossTerm::tag(2), TossTerm::str(child)),
    ];
    if let Some(v) = similar {
        conds.push(TossCond::similar(TossTerm::content(2), TossTerm::str(v)));
    }
    TossQuery {
        collection: "c".into(),
        pattern: TossPattern::spine(&[EdgeKind::ParentChild], TossCond::all(conds)).unwrap(),
        expand_labels: vec![1],
    }
}

/// The tag-only query (no probe key: a parallel scan of 43 visits) and
/// the SEO-expanded author query (an index probe of 2 candidates).
fn executor_queries() -> [(TossQuery, usize); 2] {
    [(query("year", None), 43), (query("author", Some("A1")), 2)]
}

type Observed = (Result<(String, Option<DegradationInfo>), TossError>, u64);

/// One governed select: its forest and degradation (or its error), and
/// the documents the governor charged.
fn observe(ex: &Executor, q: &TossQuery, budget: &QueryBudget) -> Observed {
    let gov = QueryGovernor::new(budget.clone());
    let out = ex
        .select_governed(q, Mode::Toss, &gov)
        .map(|o| (forest_to_xml(&o.forest, Style::Compact), o.degradation));
    (out, gov.docs_scanned())
}

#[test]
fn charging_budgets_are_charged_identically() {
    for (q, demand) in executor_queries() {
        let plan = executor(2).select(&q, Mode::Toss).unwrap().plan;
        match demand {
            2 => assert!(matches!(plan, Some(QueryPlan::IndexProbe { .. })), "{plan:?}"),
            _ => assert!(matches!(plan, Some(QueryPlan::ParallelScan { .. })), "{plan:?}"),
        }
        for cap in [0u64, 1, 5, 26, 1000] {
            let budget = QueryBudget::unlimited().with_max_docs_scanned(Limit::soft(cap));
            let baseline = observe(&executor(1), &q, &budget);
            let (out, charged) = &baseline;
            assert_eq!(*charged, cap.min(demand as u64), "cap {cap}: one bulk admission");
            let (_, degradation) = out.as_ref().expect("a soft cap degrades");
            assert_eq!(degradation.is_some(), (cap as usize) < demand, "cap {cap}");
            for threads in THREADS {
                let got = observe(&executor(threads), &q, &budget);
                assert_eq!(got, baseline, "cap {cap} threads {threads}");
            }
        }
    }
}

#[test]
fn hard_abort_is_thread_count_invariant() {
    for (q, demand) in executor_queries() {
        for cap in [0u64, 1, 7, 52] {
            let budget = QueryBudget::unlimited().with_max_docs_scanned(Limit::hard(cap));
            let baseline = observe(&executor(1), &q, &budget);
            if (cap as usize) < demand {
                // fails before any document is evaluated: nothing charged,
                // the full demand reported
                match &baseline {
                    (Err(TossError::BudgetExceeded(b)), 0) => {
                        assert_eq!((b.limit, b.observed), (cap, demand as u64), "cap {cap}")
                    }
                    other => panic!("cap {cap}: expected a docs-scanned breach, got {other:?}"),
                }
            } else {
                assert!(baseline.0.is_ok(), "cap {cap} covers the demand");
            }
            for threads in THREADS {
                let got = observe(&executor(threads), &q, &budget);
                assert_eq!(got, baseline, "cap {cap} threads {threads}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random corpus, random cut, random query, every thread count: the
    /// partitioned run is indistinguishable from the one-worker run —
    /// for a visit limit, and for an interrupt after that many polls
    /// (which stops the scan exactly when it comes before the last visit).
    #[test]
    fn random_budgeted_scans_are_equivalent(
        docs in 0usize..40,
        cut in 0usize..45,
        interrupt_bit in 0usize..2,
        query_idx in 0usize..QUERIES.len(),
    ) {
        let db = build_db(docs);
        let coll = db.collection("c").unwrap();
        let xpath = XPath::parse(QUERIES[query_idx]).unwrap();
        let visits = xpath.scan_candidates(coll);
        let baseline = scan(&xpath, coll, cut, 1);
        for threads in THREADS {
            let pool = WorkerPool::new(threads);
            if interrupt_bit == 1 {
                let flip = FlipAfter::new(cut);
                let got = visits.eval(usize::MAX, &|| flip.poll(), &pool);
                let expected = (cut >= visits.len()).then(|| baseline.clone());
                prop_assert_eq!(got, expected, "threads {}", threads);
                prop_assert!(flip.polls.load(Ordering::SeqCst) <= cut + threads);
            } else {
                let got = visits.eval(cut, &|| false, &pool);
                prop_assert_eq!(got, Some(baseline.clone()), "threads {}", threads);
            }
        }
    }
}

/// Scaling guard for the index-probe path: retrieval must cost what its
/// candidates cost, not what the collection holds. The same 8-candidate
/// probe (postings merge, candidate enumeration, evaluation) runs on a
/// 1k- and a 64k-document collection; a per-request walk of the
/// collection — every root-tag posting, or a linear document lookup —
/// shows up as ≈ 64×. Release-only: a debug timing means nothing.
#[cfg(not(debug_assertions))]
#[test]
fn probe_cost_follows_the_candidates_not_the_collection() {
    use std::time::{Duration, Instant};

    fn best_of_5(docs: usize) -> Duration {
        let mut db = Database::with_config(DatabaseConfig::unlimited());
        let c = db.create_collection("c").unwrap();
        for i in 0..docs {
            // eight evenly spread documents share the probed author
            let author = if i % (docs / 8) == 0 { "Hot".to_string() } else { format!("A{i}") };
            c.insert_xml(&format!(
                "<inproceedings key=\"p{i}\"><author>{author}</author>\
                 <booktitle>B{}</booktitle></inproceedings>",
                i % 4
            ))
            .unwrap();
        }
        let coll = db.collection("c").unwrap();
        let xpath = XPath::parse("//inproceedings[author='Hot']").unwrap();
        let pool = WorkerPool::new(1);
        let probe = || {
            let docs = coll.index().docs_with_tag_content_any("author", &["Hot"]);
            let visits = xpath.probe_candidates(coll, &docs);
            assert_eq!(visits.len(), 8);
            let hits = visits.eval(usize::MAX, &|| false, &pool).unwrap();
            assert_eq!(hits.len(), 8);
        };
        (0..5)
            .map(|_| {
                let start = Instant::now();
                (0..200).for_each(|_| probe());
                start.elapsed()
            })
            .min()
            .unwrap()
    }

    let (small, large) = (best_of_5(1_000), best_of_5(64_000));
    assert!(
        large < small * 4,
        "8-candidate probe: {small:?} per 200 on 1k documents, {large:?} on 64k"
    );
}
