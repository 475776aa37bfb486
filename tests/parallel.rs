//! Candidate evaluation suite (see `docs/performance.md`): a visit
//! limit cuts the evaluation to a subset that grows with the limit, an
//! interrupt stops it before the next visit, the index probe's
//! candidates reproduce the scan, and an executor select admits its
//! visits in one charge under either plan, at every executor thread
//! count. `Candidates::eval` runs on the calling thread; it is pinned
//! to an independent streaming scan by the unit tests in
//! `crates/xmldb/src/xpath/eval.rs`.

use proptest::prelude::*;
use std::cell::Cell;
use std::sync::Arc;
use toss::core::algebra::TossPattern;
use toss::core::executor::Mode;
use toss::core::{
    DegradationInfo, Executor, QueryBudget, QueryGovernor, QueryPlan, TossCond, TossError,
    TossQuery, TossTerm,
};
use toss::ontology::hierarchy::from_pairs;
use toss::ontology::sea::enhance;
use toss::similarity::Levenshtein;
use toss::tax::EdgeKind;
use toss::tree::serialize::{forest_to_xml, Style};
use toss::xmldb::{Collection, Database, DatabaseConfig, NodeRef, XPath};

/// Executor thread counts: one, the smallest real pool, and an odd count.
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
/// collection, never interrupted.
fn scan(xpath: &XPath, coll: &Collection, limit: usize) -> Vec<NodeRef> {
    xpath
        .scan_candidates(coll)
        .eval(limit, &|| false)
        .expect("never interrupted")
}

/// An interrupt poll that reports a stop from its `k+1`-th call on.
struct FlipAfter {
    k: usize,
    polls: Cell<usize>,
}

impl FlipAfter {
    fn new(k: usize) -> Self {
        FlipAfter {
            k,
            polls: Cell::new(0),
        }
    }

    fn poll(&self) -> bool {
        let polls = self.polls.get();
        self.polls.set(polls + 1);
        polls >= self.k
    }
}

#[test]
fn a_limit_yields_a_subset_that_grows_with_it() {
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    for q in QUERIES {
        let xpath = XPath::parse(q).unwrap();
        let n = xpath.scan_candidates(coll).len();
        let full = xpath.eval_collection(coll);
        let mut previous = Vec::new();
        for limit in 0..=n + 1 {
            let cut = scan(&xpath, coll, limit);
            assert!(
                previous.iter().all(|m| cut.contains(m)),
                "query {q} limit {limit}: one more visit loses no match"
            );
            assert!(
                cut.iter().all(|m| full.contains(m)),
                "query {q} limit {limit}: a cut scan finds a subset"
            );
            previous = cut;
        }
        assert_eq!(previous, full, "query {q}: a limit past every visit cuts nothing");
    }
}

#[test]
fn pre_cancelled_budget_aborts_before_any_visit() {
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    let xpath = XPath::parse("//author").unwrap();
    // the first poll reports the stop, and a poll precedes every visit:
    // nothing is evaluated and nothing is polled again
    let stop = FlipAfter::new(0);
    let out = xpath.scan_candidates(coll).eval(usize::MAX, &|| stop.poll());
    assert_eq!(out, None);
    assert_eq!(stop.polls.get(), 1);
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
    assert_eq!(visits.eval(usize::MAX, &|| false), Some(expected));
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

/// An executor over [`build_db`] on `threads` workers; `A1` and `A2`
/// fuse in its SEO. The pool serves joins only, so a select must not
/// depend on `threads`.
fn executor(threads: usize) -> Executor {
    let h = from_pairs(&[("A1", "author"), ("A2", "author")]).unwrap();
    let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
    Executor::new(build_db(53), seo).with_threads(threads)
}

/// The tag-only query (no probe key: a scan of 43 visits) and the
/// SEO-expanded author query (an index probe of 2 candidates).
fn executor_queries() -> [(TossQuery, u64); 2] {
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

/// Under either plan a document budget is one bulk admission of the
/// plan's visits: it charges `min(cap, demand)` and degrades below the
/// demand, whatever the executor's thread count.
#[test]
fn charging_budgets_are_charged_identically() {
    for (q, demand) in executor_queries() {
        let plan = executor(1).select(&q, Mode::Toss).unwrap().plan;
        match demand {
            2 => assert!(matches!(plan, Some(QueryPlan::IndexProbe { .. })), "{plan:?}"),
            _ => assert_eq!(plan, Some(QueryPlan::Scan)),
        }
        for cap in [0u64, 1, 5, 26, 1000] {
            let budget = QueryBudget::unlimited().with_max_docs_scanned(cap);
            let baseline = observe(&executor(1), &q, &budget);
            let (out, charged) = &baseline;
            assert_eq!(*charged, cap.min(demand), "cap {cap}: one bulk admission");
            let (_, degradation) = out.as_ref().expect("a cap degrades");
            assert_eq!(degradation.is_some(), cap < demand, "cap {cap}");
            for threads in THREADS {
                let got = observe(&executor(threads), &q, &budget);
                assert_eq!(got, baseline, "cap {cap} threads {threads}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random corpus, random cut, random query: an interrupt after
    /// `cut` polls stops the scan exactly when it comes before the last
    /// visit, after polling once more, and otherwise returns what a
    /// limit of `cut` visits returns.
    #[test]
    fn random_budgeted_scans_are_equivalent(
        docs in 0usize..40,
        cut in 0usize..45,
        query_idx in 0usize..QUERIES.len(),
    ) {
        let db = build_db(docs);
        let coll = db.collection("c").unwrap();
        let xpath = XPath::parse(QUERIES[query_idx]).unwrap();
        let visits = xpath.scan_candidates(coll);
        let n = visits.len();
        let flip = FlipAfter::new(cut);
        let got = visits.eval(usize::MAX, &|| flip.poll());
        let expected = (cut >= n).then(|| scan(&xpath, coll, cut));
        prop_assert_eq!(got, expected);
        prop_assert_eq!(flip.polls.get(), n.min(cut + 1));
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
        let probe = || {
            let docs = coll.index().docs_with_tag_content_any("author", &["Hot"]);
            let visits = xpath.probe_candidates(coll, &docs);
            assert_eq!(visits.len(), 8);
            let hits = visits.eval(usize::MAX, &|| false).unwrap();
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
