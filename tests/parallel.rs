//! Parallel-scan equivalence suite (see `docs/performance.md`):
//! `Candidates::eval` on 2 and 7 workers must return *exactly* what it
//! returns on one — same matches, same order, same `ScanStatus`, same
//! budget charges — including mid-scan truncation, hard aborts,
//! cancellation and the index-probe candidate path. The one-worker run
//! is pinned to an independent streaming scan by the unit tests in
//! `crates/xmldb/src/xpath/eval.rs`.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use toss::core::WorkerPool;
use toss::xmldb::{
    Collection, Database, DatabaseConfig, NodeRef, ScanBudget, ScanControl, ScanStatus, XPath,
};

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

/// Stateless soft cap driven by the evaluator's own `docs_scanned`.
struct SoftCap(usize);
impl ScanBudget for SoftCap {
    fn before_document(&self, n: usize) -> ScanControl {
        if n >= self.0 {
            ScanControl::Truncate
        } else {
            ScanControl::Continue
        }
    }
    fn preflight(&self, n: usize) -> ScanControl {
        self.before_document(n)
    }
}

/// Stateless hard cap: aborts the scan at the limit.
struct HardCap(usize);
impl ScanBudget for HardCap {
    fn before_document(&self, n: usize) -> ScanControl {
        if n >= self.0 {
            ScanControl::Abort
        } else {
            ScanControl::Continue
        }
    }
    fn preflight(&self, n: usize) -> ScanControl {
        self.before_document(n)
    }
}

/// A charging budget in the style of the query governor's bridge: it
/// keeps its own shared counter (ignoring the evaluator's argument) and
/// only `before_document` charges it; `preflight` never does.
struct Charging {
    charged: AtomicUsize,
    cap: usize,
    hard: bool,
}
impl Charging {
    fn new(cap: usize, hard: bool) -> Self {
        Charging {
            charged: AtomicUsize::new(0),
            cap,
            hard,
        }
    }
    fn stop(&self) -> ScanControl {
        if self.hard {
            ScanControl::Abort
        } else {
            ScanControl::Truncate
        }
    }
}
impl ScanBudget for Charging {
    fn before_document(&self, _n: usize) -> ScanControl {
        if self.charged.load(Ordering::SeqCst) >= self.cap {
            return self.stop();
        }
        self.charged.fetch_add(1, Ordering::SeqCst);
        ScanControl::Continue
    }
    fn preflight(&self, _n: usize) -> ScanControl {
        if self.charged.load(Ordering::SeqCst) >= self.cap {
            self.stop()
        } else {
            ScanControl::Continue
        }
    }
}

/// Evaluate `xpath` over the whole collection on `threads` workers.
fn scan(
    xpath: &XPath,
    coll: &Collection,
    budget: &(dyn ScanBudget + Sync),
    threads: usize,
) -> (Vec<NodeRef>, ScanStatus) {
    xpath.scan_candidates(coll).eval(budget, &WorkerPool::new(threads))
}

#[test]
fn parallel_scan_equals_sequential_unbudgeted() {
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    for q in QUERIES {
        let xpath = XPath::parse(q).unwrap();
        let expected = xpath.eval_collection(coll);
        for threads in THREADS {
            let (got, status) = scan(&xpath, coll, &SoftCap(usize::MAX), threads);
            assert_eq!(got, expected, "query {q} threads {threads}");
            assert!(
                matches!(status, ScanStatus::Complete { .. }),
                "query {q} threads {threads}: {status:?}"
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
        for cap in [0, 1, 3, 26, 53, 1000] {
            let baseline = scan(&xpath, coll, &SoftCap(cap), 1);
            for threads in THREADS {
                let got = scan(&xpath, coll, &SoftCap(cap), threads);
                assert_eq!(got, baseline, "query {q} cap {cap} threads {threads}");
            }
        }
    }
}

#[test]
fn hard_abort_is_thread_count_invariant() {
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    for q in QUERIES {
        let xpath = XPath::parse(q).unwrap();
        for cap in [0, 1, 7, 52] {
            let baseline = scan(&xpath, coll, &HardCap(cap), 1);
            for threads in THREADS {
                let got = scan(&xpath, coll, &HardCap(cap), threads);
                assert_eq!(got.1, baseline.1, "query {q} cap {cap} threads {threads}");
                assert_eq!(got.0, baseline.0, "query {q} cap {cap} threads {threads}");
            }
        }
    }
}

#[test]
fn charging_budgets_are_charged_identically() {
    let db = build_db(53);
    let coll = db.collection("c").unwrap();
    for q in QUERIES {
        let xpath = XPath::parse(q).unwrap();
        for (cap, hard) in [(0, false), (5, false), (26, false), (5, true), (1000, false)]
        {
            let seq_budget = Charging::new(cap, hard);
            let baseline = scan(&xpath, coll, &seq_budget, 1);
            let seq_charged = seq_budget.charged.load(Ordering::SeqCst);
            for threads in THREADS {
                let budget = Charging::new(cap, hard);
                let got = scan(&xpath, coll, &budget, threads);
                assert_eq!(got, baseline, "query {q} cap {cap} threads {threads}");
                assert_eq!(
                    budget.charged.load(Ordering::SeqCst),
                    seq_charged,
                    "budget charges must not depend on threads \
                     (query {q} cap {cap} threads {threads})"
                );
            }
        }
    }
}

#[test]
fn pre_cancelled_budget_aborts_before_any_visit() {
    let db = build_db(20);
    let coll = db.collection("c").unwrap();
    let xpath = XPath::parse("//author").unwrap();
    for threads in THREADS {
        let (out, status) = scan(&xpath, coll, &HardCap(0), threads);
        assert!(out.is_empty());
        assert_eq!(status, ScanStatus::Aborted { docs_scanned: 0 });
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
    for threads in THREADS {
        let pool = WorkerPool::new(threads);
        let budget = Charging::new(usize::MAX, false);
        let (got, status) = xpath.probe_candidates(coll, &docs).eval(&budget, &pool);
        assert_eq!(got, expected, "threads {threads}");
        assert_eq!(status, ScanStatus::Complete { docs_scanned: docs.len() });
        assert_eq!(
            budget.charged.load(Ordering::SeqCst),
            docs.len(),
            "every candidate visit must be charged like a scan visit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random corpus, random budget, random query, every thread count:
    /// the partitioned run is indistinguishable from the one-worker run
    /// (result, order, status and charges).
    #[test]
    fn random_budgeted_scans_are_equivalent(
        docs in 0usize..40,
        cap in 0usize..45,
        hard_bit in 0usize..2,
        query_idx in 0usize..QUERIES.len(),
    ) {
        let hard = hard_bit == 1;
        let db = build_db(docs);
        let coll = db.collection("c").unwrap();
        let xpath = XPath::parse(QUERIES[query_idx]).unwrap();
        let seq_budget = Charging::new(cap, hard);
        let baseline = scan(&xpath, coll, &seq_budget, 1);
        for threads in THREADS {
            let budget = Charging::new(cap, hard);
            let got = scan(&xpath, coll, &budget, threads);
            prop_assert_eq!(&got, &baseline, "threads {}", threads);
            prop_assert_eq!(
                budget.charged.load(Ordering::SeqCst),
                seq_budget.charged.load(Ordering::SeqCst)
            );
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
            let (hits, status) =
                xpath.probe_candidates(coll, &docs).eval(&SoftCap(usize::MAX), &pool);
            assert_eq!(hits.len(), 8);
            assert_eq!(status, ScanStatus::Complete { docs_scanned: 8 });
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
