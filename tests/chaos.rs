//! Chaos harness for the query governance layer (see
//! `docs/robustness.md`): several threads of mixed well-behaved and
//! adversarial queries — poisoned (panicking) probe strings, slow
//! metrics that pin admission slots, tight deadlines, soft budgets —
//! run through one shared [`Executor`] and one [`AdmissionController`],
//! while a writer thread hammers a [`DurableDatabase`] under Vfs fault
//! injection. The invariants:
//!
//! * no panic ever escapes a query (every thread joins cleanly);
//! * deadline queries finish (or fail) within the deadline + 100 ms;
//! * every degraded outcome carries a well-formed `DegradationInfo`;
//! * admission sheds excess load instead of queueing unboundedly;
//! * the store recovers to a consistent state after injected faults.

use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};
use toss_core::algebra::{JoinKey, TossPattern};
use toss_core::executor::Mode;
use toss_core::tax::EdgeKind;
use toss_core::{
    AdmissionController, Executor, QueryBudget, QueryGovernor, TossCond, TossError, TossQuery,
    TossTerm,
};
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_similarity::{Levenshtein, StringMetric};
use toss_xmldb::{Database, DatabaseConfig, DurableDatabase, FaultMode, FaultVfs};

/// Probe string that makes the metric panic (a poisoned query).
const PANIC_PROBE: &str = "zzz-panic-probe";
/// Probe string that makes the metric slow (pins an admission slot).
const SLOW_PROBE: &str = "zzz-slow-probe";

struct ChaosMetric;

impl StringMetric for ChaosMetric {
    fn distance(&self, a: &str, b: &str) -> f64 {
        if a == PANIC_PROBE || b == PANIC_PROBE {
            panic!("chaos: poisoned metric input");
        }
        if a == SLOW_PROBE || b == SLOW_PROBE {
            thread::sleep(Duration::from_millis(20));
        }
        Levenshtein.distance(a, b)
    }
    fn is_strong(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        "chaos"
    }
}

/// Documents in the join collection: one per author, enough that both
/// phases of the similarity join fan out over four workers.
const JOIN_DOCS: usize = 300;

fn executor() -> Executor {
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    let j = db.create_collection("chaos-join").unwrap();
    for i in 0..JOIN_DOCS {
        j.insert_xml(&format!(
            "<inproceedings><author>Author {i}</author>\
             <booktitle>VLDB</booktitle></inproceedings>"
        ))
        .unwrap();
    }
    let c = db.create_collection("chaos").unwrap();
    for i in 0..30 {
        let author = match i % 3 {
            0 => "Jeff Ullman",
            1 => "Jeff Ullmann",
            _ => "E. Codd",
        };
        c.insert_xml(&format!(
            "<inproceedings key=\"p{i}\"><author>{author}</author>\
             <booktitle>SIGMOD Conference</booktitle></inproceedings>"
        ))
        .unwrap();
    }
    let h = from_pairs(&[
        ("SIGMOD Conference", "conference"),
        ("VLDB", "conference"),
        ("conference", "venue"),
        ("Jeff Ullman", "author"),
        ("Jeff Ullmann", "author"),
        ("E. Codd", "author"),
    ])
    .unwrap();
    let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
    Executor::new(db, seo).with_probe_metric(Arc::new(ChaosMetric))
}

fn author_query(probe: &str) -> TossQuery {
    TossQuery {
        collection: "chaos".into(),
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

/// Every document of the join collection, whole.
fn venue_query() -> TossQuery {
    TossQuery {
        collection: "chaos-join".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("booktitle")),
                TossCond::eq(TossTerm::content(2), TossTerm::str("VLDB")),
            ]),
        )
        .unwrap(),
        expand_labels: vec![1],
    }
}

#[derive(Default, Debug)]
struct Stats {
    ok: usize,
    degraded: usize,
    shed: usize,
    deadline: usize,
    internal: usize,
}

/// One governed query attempt; unexpected error kinds are test failures.
fn attempt(
    ex: &Executor,
    ctrl: &AdmissionController,
    query: &TossQuery,
    budget: QueryBudget,
    stats: &mut Stats,
) -> Result<(), String> {
    let gov = QueryGovernor::new(budget);
    match ctrl.run_with_wait(&gov, || ex.select_governed(query, Mode::Toss, &gov)).1 {
        Ok(out) => {
            stats.ok += 1;
            if let Some(d) = &out.degradation {
                stats.degraded += 1;
                // a degraded outcome must always be internally coherent
                if !(0.0..=1.0).contains(&d.estimated_recall_loss) {
                    return Err(format!("recall loss out of range: {d:?}"));
                }
                if d.work_done > d.demanded {
                    return Err(format!("work_done > demanded: {d:?}"));
                }
            }
            Ok(())
        }
        Err(TossError::Overloaded(_)) => {
            stats.shed += 1;
            Ok(())
        }
        Err(TossError::BudgetExceeded(_)) => {
            stats.deadline += 1;
            Ok(())
        }
        Err(TossError::Internal(_)) => {
            stats.internal += 1;
            Ok(())
        }
        Err(other) => Err(format!("unexpected query error: {other:?}")),
    }
}

#[test]
fn chaos_mixed_load_never_escapes_a_panic() {
    let ex = Arc::new(executor());
    let ctrl = Arc::new(AdmissionController::new(2, Duration::from_millis(50)));
    // 7 query threads + 1 faulted writer start together
    let barrier = Arc::new(Barrier::new(8));
    let mut handles: Vec<thread::JoinHandle<Result<Stats, String>>> = Vec::new();

    // two slow threads pin the admission slots in waves
    for _ in 0..2 {
        let (ex, ctrl, barrier) = (ex.clone(), ctrl.clone(), barrier.clone());
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut stats = Stats::default();
            let q = author_query(SLOW_PROBE);
            for _ in 0..5 {
                attempt(&ex, &ctrl, &q, QueryBudget::unlimited(), &mut stats)?;
            }
            Ok(stats)
        }));
    }

    // a poisoned thread: its queries panic inside the probe metric
    {
        let (ex, ctrl, barrier) = (ex.clone(), ctrl.clone(), barrier.clone());
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut stats = Stats::default();
            let q = author_query(PANIC_PROBE);
            // retry until a few panics were actually admitted and isolated
            // (attempts made while both slots are pinned are shed instead)
            for _ in 0..300 {
                attempt(&ex, &ctrl, &q, QueryBudget::unlimited(), &mut stats)?;
                if stats.internal >= 3 {
                    break;
                }
            }
            Ok(stats)
        }));
    }

    // a tight-deadline thread: every attempt must resolve promptly
    {
        let (ex, ctrl, barrier) = (ex.clone(), ctrl.clone(), barrier.clone());
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut stats = Stats::default();
            let q = author_query("Jeff Ullmann");
            let deadline = Duration::from_millis(5);
            for _ in 0..10 {
                let begun = Instant::now();
                attempt(
                    &ex,
                    &ctrl,
                    &q,
                    QueryBudget::unlimited().with_deadline(deadline),
                    &mut stats,
                )?;
                let took = begun.elapsed();
                // queue wait (≤ 50 ms before shedding) + cooperative
                // check granularity must stay within the 100 ms tolerance
                if took > deadline + Duration::from_millis(100) {
                    return Err(format!("deadline overshot: took {took:?}"));
                }
            }
            Ok(stats)
        }));
    }

    // two well-behaved threads under a soft document budget
    for _ in 0..2 {
        let (ex, ctrl, barrier) = (ex.clone(), ctrl.clone(), barrier.clone());
        handles.push(thread::spawn(move || {
            barrier.wait();
            let mut stats = Stats::default();
            let q = author_query("Jeff Ullmann");
            for _ in 0..15 {
                attempt(
                    &ex,
                    &ctrl,
                    &q,
                    QueryBudget::unlimited().with_max_docs_scanned(2),
                    &mut stats,
                )?;
            }
            Ok(stats)
        }));
    }

    // a 4-worker executor's selections (which run on the calling
    // thread) and similarity joins (whose grouping and lookup fan out
    // over its pool) while the shared admission controller is under the
    // same chaos; results must stay exact whenever nothing degraded
    {
        let (ctrl, barrier) = (ctrl.clone(), barrier.clone());
        handles.push(thread::spawn(move || {
            barrier.wait();
            let ex = executor().with_threads(4);
            let mut stats = Stats::default();
            let q = author_query("Jeff Ullmann");
            let (side, key) = (venue_query(), JoinKey::child("author"));
            for i in 0..15 {
                let budget = || {
                    if i % 3 == 2 {
                        QueryBudget::unlimited().with_max_docs_scanned(7)
                    } else {
                        QueryBudget::unlimited()
                    }
                };
                let gov = QueryGovernor::new(budget());
                let joined = ctrl.run_with_wait(&gov, || {
                    ex.join_similarity_governed(&side, &side, &key, &key, Mode::Toss, &gov)
                });
                match joined.1 {
                    Ok(out) => {
                        stats.ok += 1;
                        match &out.degradation {
                            Some(_) => stats.degraded += 1,
                            // each author is its own key: one pair per document
                            None if out.forest.len() != JOIN_DOCS => {
                                return Err(format!(
                                    "join returned {} pairs, expected {JOIN_DOCS}",
                                    out.forest.len()
                                ))
                            }
                            None => {}
                        }
                    }
                    Err(TossError::Overloaded(_)) => stats.shed += 1,
                    Err(other) => return Err(format!("unexpected join error: {other:?}")),
                }
                let gov = QueryGovernor::new(budget());
                match ctrl.run_with_wait(&gov, || ex.select_governed(&q, Mode::Toss, &gov)).1 {
                    Ok(out) => {
                        stats.ok += 1;
                        match &out.degradation {
                            Some(_) => stats.degraded += 1,
                            None => {
                                if out.forest.len() != 20 {
                                    return Err(format!(
                                        "select returned {} matches, expected 20",
                                        out.forest.len()
                                    ));
                                }
                            }
                        }
                    }
                    Err(TossError::Overloaded(_)) => stats.shed += 1,
                    Err(other) => {
                        return Err(format!("unexpected select error: {other:?}"))
                    }
                }
            }
            Ok(stats)
        }));
    }

    // the writer thread: durable inserts + checkpoints under injected
    // faults, recovering whenever an operation fails
    let writer = {
        let barrier = barrier.clone();
        thread::spawn(move || -> Result<(), String> {
            barrier.wait();
            let vfs = Arc::new(FaultVfs::new());
            let path = "/chaos/store.json";
            let (mut db, _) = DurableDatabase::open_with(
                path,
                DatabaseConfig::unlimited(),
                vfs.clone(),
            )
            .map_err(|e| e.to_string())?;
            db.create_collection("w").map_err(|e| e.to_string())?;
            let mut inserted = 0usize;
            for i in 0..40 {
                if i % 7 == 3 {
                    vfs.fail_op(vfs.op_count() + 1, FaultMode::Error);
                }
                match db.insert_xml("w", &format!("<d><n>{i}</n></d>")) {
                    Ok(_) => inserted += 1,
                    Err(_) => {
                        let (recovered, _, _report) = DurableDatabase::recover_with(
                            path,
                            DatabaseConfig::unlimited(),
                            vfs.clone(),
                        )
                        .map_err(|e| e.to_string())?;
                        db = recovered;
                        db.checkpoint().map_err(|e| e.to_string())?;
                    }
                }
                if i % 10 == 9 && db.checkpoint().is_err() {
                    let (recovered, _, _report) = DurableDatabase::recover_with(
                        path,
                        DatabaseConfig::unlimited(),
                        vfs.clone(),
                    )
                    .map_err(|e| e.to_string())?;
                    db = recovered;
                    db.checkpoint().map_err(|e| e.to_string())?;
                }
            }
            drop(db);
            // final recovery must produce a consistent store with every
            // successfully inserted document
            let (final_db, _, _report) = DurableDatabase::recover_with(
                path,
                DatabaseConfig::unlimited(),
                vfs,
            )
            .map_err(|e| e.to_string())?;
            let coll = final_db.db().collection("w").map_err(|e| e.to_string())?;
            if coll.documents().len() < inserted.saturating_sub(1) {
                return Err(format!(
                    "recovered {} docs, expected at least {}",
                    coll.documents().len(),
                    inserted.saturating_sub(1)
                ));
            }
            Ok(())
        })
    };

    let mut total = Stats::default();
    for h in handles {
        // a panicked join here means a panic escaped `isolate` — the
        // core invariant under test
        let stats = h.join().expect("no query thread may panic").expect("thread invariant");
        total.ok += stats.ok;
        total.degraded += stats.degraded;
        total.shed += stats.shed;
        total.deadline += stats.deadline;
        total.internal += stats.internal;
    }
    writer
        .join()
        .expect("writer thread may not panic")
        .expect("writer invariant");

    assert!(total.internal >= 1, "no poisoned query was isolated: {total:?}");
    assert!(
        total.degraded >= 1,
        "soft budgets never degraded anything: {total:?}"
    );

    // deterministic shedding check: with both slots held, any query is
    // shed after the bounded queue wait instead of queueing forever
    let p1 = ctrl.admit().unwrap();
    let p2 = ctrl.admit().unwrap();
    let gov = QueryGovernor::unlimited();
    let begun = Instant::now();
    let (_, out) = ctrl.run_with_wait(&gov, || {
        ex.select_governed(&author_query("Jeff Ullmann"), Mode::Toss, &gov)
    });
    assert!(matches!(out, Err(TossError::Overloaded(_))), "{out:?}");
    assert!(begun.elapsed() < Duration::from_millis(500), "unbounded queueing");
    drop((p1, p2));

    // and with the slots free again the same executor still answers
    // exactly (the chaos left no poisoned shared state behind)
    let gov = QueryGovernor::unlimited();
    let out = ctrl
        .run_with_wait(&gov, || {
            ex.select_governed(&author_query("Jeff Ullmann"), Mode::Toss, &gov)
        })
        .1
        .expect("post-chaos query must succeed");
    assert_eq!(out.forest.len(), 20, "both Ullman spellings across 30 docs");
    assert!(out.degradation.is_none());
}
