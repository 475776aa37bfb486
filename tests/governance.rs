//! Budget edge cases for the query governor (see `docs/robustness.md`):
//! zero budgets, exact-boundary budgets, a deadline that expired before
//! admission, and cancellation raised during rewrite — all through the
//! real executor against the real store — plus the same governance on
//! projection and join, join errors that do not depend on the worker
//! count, and a join-cardinality budget charged with the candidate pairs
//! the join generates.

use std::sync::Arc;
use std::time::Duration;
use toss_core::algebra::{JoinKey, TossPattern};
use toss_core::executor::Mode;
use toss_core::tax::{EdgeKind, ProjectEntry};
use toss_core::{
    AdmissionController, BudgetKind, CancelToken, Executor, QueryBudget, QueryGovernor,
    QueryOutcome, TossCond, TossError, TossQuery, TossResult, TossTerm,
};
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_similarity::{Levenshtein, StringMetric};
use toss_xmldb::{Database, DatabaseConfig, DbError};

fn executor() -> Executor {
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    let c = db.create_collection("dblp").unwrap();
    c.insert_xml(
        "<inproceedings key=\"p0\"><author>Jeff Ullmann</author>\
         <booktitle>SIGMOD Conference</booktitle></inproceedings>",
    )
    .unwrap();
    c.insert_xml(
        "<inproceedings key=\"p1\"><author>Jeff Ullman</author>\
         <booktitle>VLDB</booktitle></inproceedings>",
    )
    .unwrap();
    c.insert_xml(
        "<inproceedings key=\"p2\"><author>E. Codd</author>\
         <booktitle>TODS</booktitle></inproceedings>",
    )
    .unwrap();
    let h = from_pairs(&[
        ("SIGMOD Conference", "conference"),
        ("VLDB", "conference"),
        ("TODS", "periodical"),
        ("conference", "venue"),
        ("periodical", "venue"),
        ("Jeff Ullmann", "author"),
        ("Jeff Ullman", "author"),
        ("E. Codd", "author"),
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
fn zero_budgets_degrade_to_empty_not_error() {
    let ex = executor();
    let gov = QueryGovernor::new(
        QueryBudget::unlimited()
            .with_max_expansion_terms(0)
            .with_max_docs_scanned(0)
            .with_max_witnesses(0),
    );
    let out = ex
        .select_governed(&author_query("Jeff Ullmann"), Mode::Toss, &gov)
        .expect("zero budgets must degrade, not fail");
    assert_eq!(out.forest.len(), 0);
    let d = out.degradation.expect("zero budgets must report degradation");
    assert_eq!(d.work_done, 0);
    assert!(d.estimated_recall_loss > 0.0);
    assert_eq!(gov.docs_scanned(), 0, "a 0-doc budget must scan nothing");
}

#[test]
fn budget_exactly_at_demand_is_not_degraded() {
    let ex = executor();
    let q = author_query("Jeff Ullmann");

    // measure the unconstrained demand first
    let probe_gov = QueryGovernor::unlimited();
    let exact = ex.select_governed(&q, Mode::Toss, &probe_gov).unwrap();
    assert!(exact.degradation.is_none());
    let terms = probe_gov.terms_used();
    let docs = probe_gov.docs_scanned();
    let witnesses = exact.forest.len();
    assert!(witnesses > 0 && docs > 0);

    // a budget exactly at the boundary must change nothing
    let gov = QueryGovernor::new(
        QueryBudget::unlimited()
            .with_max_expansion_terms(terms)
            .with_max_docs_scanned(docs)
            .with_max_witnesses(witnesses as u64),
    );
    let out = ex.select_governed(&q, Mode::Toss, &gov).unwrap();
    assert_eq!(out.forest.len(), witnesses);
    assert!(
        out.degradation.is_none(),
        "exact-boundary budget must not degrade: {:?}",
        out.degradation
    );

    // one unit less must degrade (sanity check on the boundary)
    let gov = QueryGovernor::new(QueryBudget::unlimited().with_max_witnesses(witnesses as u64 - 1));
    let out = ex.select_governed(&q, Mode::Toss, &gov).unwrap();
    assert_eq!(out.forest.len(), witnesses - 1);
    assert!(out.degradation.is_some());
}

#[test]
fn expired_deadline_is_rejected_before_any_scan() {
    let ex = executor();
    let gov =
        QueryGovernor::new(QueryBudget::unlimited().with_deadline(Duration::ZERO));
    let admission = AdmissionController::new(1, Duration::from_millis(50));
    let err = admission
        .run_with_wait(&gov, || {
            ex.select_governed(&author_query("Jeff Ullmann"), Mode::Toss, &gov)
        })
        .1
        .unwrap_err();
    assert!(
        matches!(err, TossError::BudgetExceeded(_)),
        "expected a deadline breach, got {err:?}"
    );
    assert_eq!(
        gov.docs_scanned(),
        0,
        "an already-expired query must not touch the store"
    );
}

/// A probe metric that trips the cancel token the moment expansion
/// consults it: cancellation lands during rewrite, so the execute phase
/// must never start.
struct CancellingMetric(CancelToken);

impl StringMetric for CancellingMetric {
    fn distance(&self, a: &str, b: &str) -> f64 {
        self.0.cancel();
        Levenshtein.distance(a, b)
    }
    fn is_strong(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "cancelling-probe"
    }
}

#[test]
fn cancellation_between_rewrite_and_execute() {
    let gov = QueryGovernor::unlimited();
    let ex = executor().with_probe_metric(Arc::new(CancellingMetric(gov.token())));
    // an unknown probe string forces the metric to run during rewrite
    let err = ex
        .select_governed(&author_query("Geoff Ullmann"), Mode::Toss, &gov)
        .unwrap_err();
    assert!(matches!(err, TossError::Cancelled), "{err:?}");
    assert_eq!(
        gov.docs_scanned(),
        0,
        "cancellation during rewrite must stop the query before the scan"
    );
}

/// Run one operator over [`author_query`] (both sides, for the join).
fn run_op(ex: &Executor, op: &str, gov: &QueryGovernor) -> TossResult<QueryOutcome> {
    let q = author_query("Jeff Ullmann");
    match op {
        "select" => ex.select_governed(&q, Mode::Toss, gov),
        "project" => ex.project_governed(&q, &[ProjectEntry::subtree(2)], Mode::Toss, gov),
        "join" => {
            let key = JoinKey::child("author");
            ex.join_similarity_governed(&q, &q, &key, &key, Mode::Toss, gov)
        }
        other => unreachable!("no operator {other}"),
    }
}

#[test]
fn project_and_join_are_governed_like_select() {
    let ex = executor();
    let capped_docs = || QueryGovernor::new(QueryBudget::unlimited().with_max_docs_scanned(1));
    let tripped = |op| {
        let out = run_op(&ex, op, &capped_docs()).expect("a cap degrades");
        out.degradation.expect("the cap trips").tripped
    };
    let select_kind = tripped("select");
    assert_eq!(select_kind, BudgetKind::DocsScanned);

    for op in ["project", "join"] {
        // a document cap degrades exactly like the select's
        assert_eq!(tripped(op), select_kind, "{op}");

        // an already-expired deadline is rejected before any scan
        let gov = QueryGovernor::new(QueryBudget::unlimited().with_deadline(Duration::ZERO));
        match run_op(&ex, op, &gov) {
            Err(TossError::BudgetExceeded(_)) => {}
            other => panic!("{op}: expected a deadline breach, got {other:?}"),
        }
        assert_eq!(
            gov.docs_scanned(),
            0,
            "{op} touched the store after its deadline"
        );
    }
}

#[test]
fn join_side_errors_do_not_depend_on_worker_count() {
    let found = author_query("Jeff Ullmann");
    let missing = |name: &str| TossQuery {
        collection: name.into(),
        ..found.clone()
    };
    let key = JoinKey::child("author");
    let cases = [
        (missing("left-gone"), found.clone(), "left-gone"),
        (found.clone(), missing("right-gone"), "right-gone"),
        // both sides fail: the left error wins
        (missing("left-gone"), missing("right-gone"), "left-gone"),
    ];
    for (left, right, gone) in &cases {
        let expected = TossError::Db(DbError::NoSuchCollection(gone.to_string()));
        for threads in [1, 2, 7] {
            let ex = executor().with_threads(threads);
            let gov = QueryGovernor::unlimited();
            let join = ex.join_similarity_governed(left, right, &key, &key, Mode::Toss, &gov);
            assert_eq!(join.unwrap_err(), expected, "join @ {threads} threads");
        }
    }
}

/// Every `dblp` paper with its author, unfiltered: both sides of a
/// self-join.
fn papers() -> TossQuery {
    TossQuery {
        collection: "dblp".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
            ]),
        )
        .unwrap(),
        expand_labels: vec![1],
    }
}

/// The join-cardinality budget is charged with the candidate pairs the
/// signature join generates, not with |L| × |R|: a cap between the two
/// returns the full output undegraded, and a cap below the candidate
/// count keeps a prefix of the unlimited output with the same
/// degradation at every worker count.
#[test]
fn join_cardinality_charges_generated_candidates() {
    let (q, key) = (papers(), JoinKey::child("author"));
    let join = |threads: usize, budget: QueryBudget| {
        let gov = QueryGovernor::new(budget);
        let out = executor()
            .with_threads(threads)
            .join_similarity_governed(&q, &q, &key, &key, Mode::Toss, &gov);
        (out, gov)
    };
    let fingerprints = |out: &QueryOutcome| -> Vec<String> {
        out.forest.iter().map(toss_tree::eq::fingerprint).collect()
    };

    let (full, gov) = join(1, QueryBudget::unlimited());
    let full = full.unwrap();
    let candidates = gov.join_candidates();
    // Ullmann/Ullman fuse, Codd joins only himself: 4 + 1 of 3 × 3 pairs
    assert_eq!((candidates, full.forest.len()), (5, 5));
    let product = 3 * 3;

    for threads in [1, 2, 7] {
        let roomy = QueryBudget::unlimited().with_max_join_cardinality(product - 1);
        let (out, gov) = join(threads, roomy);
        let out = out.unwrap_or_else(|e| panic!("@ {threads} threads: {e:?}"));
        assert_eq!(fingerprints(&out), fingerprints(&full), "@ {threads} threads");
        assert!(out.degradation.is_none());
        assert_eq!(gov.join_candidates(), candidates);
    }

    let mut degradations = Vec::new();
    for threads in [1, 2, 7] {
        let tight = QueryBudget::unlimited().with_max_join_cardinality(3);
        let out = join(threads, tight).0.unwrap();
        let prefix = fingerprints(&full)[..out.forest.len()].to_vec();
        assert_eq!(fingerprints(&out), prefix, "@ {threads} threads");
        assert_eq!(out.forest.len(), 3);
        let info = out.degradation.expect("the cap trips");
        assert_eq!(info.tripped, BudgetKind::JoinCardinality);
        degradations.push(info);
    }
    assert!(degradations.windows(2).all(|w| w[0] == w[1]), "{degradations:?}");
}
