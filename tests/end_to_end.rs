//! End-to-end integration tests spanning every crate: datagen → store →
//! ontology maker → fusion → SEA → executor → quality scoring.

use std::collections::BTreeSet;
use std::sync::Arc;
use toss::core::algebra::{similarity_hash_join, toss_select, JoinKey, TossPattern};
use toss::core::executor::Mode;
use toss::core::quality::{precision, recall, QualityRow};
use toss::core::{
    enhance_sdb, make_ontology, suggest_constraints, Executor, MakerConfig, OesInstance,
    SeoInstance, TossCond, TossQuery, TossTerm,
};
use toss::datagen::{corpus::generate, ground_truth, queries::workload, CorpusConfig};
use toss::lexicon::data::bibliographic_lexicon;
use toss::similarity::combinators::{MinOf, MultiWordGate};
use toss::similarity::{Levenshtein, NameRules, StringMetric};
use toss::tax::EdgeKind;
use toss::xmldb::{Database, DatabaseConfig};

fn metric() -> impl StringMetric + Clone {
    MinOf::new(
        NameRules::with_costs(3.0, 2.0, 1000.0),
        MultiWordGate::new(Levenshtein),
    )
}

/// Build the full pipeline over a generated corpus.
fn build(papers: usize, seed: u64, epsilon: f64) -> (toss::datagen::Corpus, Executor) {
    let corpus = generate(CorpusConfig {
        papers,
        ..CorpusConfig::figure15(seed)
    });
    let lexicon = {
        let mut b = toss::lexicon::LexiconBuilder::from_base(bibliographic_lexicon());
        for v in &corpus.venues {
            b.add_line(&format!("isa: {} < {}", v.short, v.class)).unwrap();
            b.add_line(&format!("isa: {} < {}", v.long, v.class)).unwrap();
            b.add_line(&format!("syn: {} = {}", v.short, v.long)).unwrap();
        }
        b.build()
    };
    let cfg = MakerConfig::default();
    let o1 = make_ontology(&corpus.dblp, &lexicon, &cfg).unwrap();
    let o2 = make_ontology(&corpus.sigmod, &lexicon, &cfg).unwrap();
    let cs = suggest_constraints(&o1, 0, &o2, 1, &lexicon);
    let instances = vec![
        OesInstance::new("dblp", corpus.dblp.clone(), o1),
        OesInstance::new("sigmod", corpus.sigmod.clone(), o2),
    ];
    let sdb = enhance_sdb(&instances, &cs, &metric(), epsilon).unwrap();
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    for (name, forest) in [("dblp", &corpus.dblp), ("sigmod", &corpus.sigmod)] {
        let coll = db.create_collection(name).unwrap();
        for t in forest {
            coll.insert(t.clone()).unwrap();
        }
    }
    let ex = Executor::new(db, sdb.seo).with_probe_metric(Arc::new(metric()));
    (corpus, ex)
}

fn toss_query(probe: &str, class: &str) -> TossQuery {
    TossQuery {
        collection: "dblp".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild, EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::eq(TossTerm::tag(3), TossTerm::str("booktitle")),
                TossCond::similar(TossTerm::content(2), TossTerm::str(probe)),
                TossCond::below(TossTerm::content(3), TossTerm::ty(class)),
            ]),
        )
        .unwrap(),
        expand_labels: vec![1],
    }
}

fn ids(forest: &toss::tree::Forest) -> BTreeSet<usize> {
    forest
        .iter()
        .filter_map(|t| {
            let root = t.root()?;
            let key = t.data(root).ok()?.attr_value("key")?.to_string();
            key.rsplit('/').next()?.parse().ok()
        })
        .collect()
}

#[test]
fn toss_dominates_tax_on_recall_and_quality() {
    let (corpus, ex) = build(80, 31, 3.0);
    let mut toss_better = 0usize;
    let queries = workload(&corpus, 5, 8);
    for q in &queries {
        let truth = ground_truth(&corpus, q);
        let tq = toss_query(&q.author_probe, &q.venue_isa);
        let toss = ids(&ex.select(&tq, Mode::Toss).unwrap().forest);
        let tax = ids(&ex.select(&tq, Mode::TaxBaseline).unwrap().forest);
        let rt = QualityRow::score(q.id, &toss, &truth);
        let rx = QualityRow::score(q.id, &tax, &truth);
        assert!(rt.recall >= rx.recall, "query {}: TOSS recall regressed", q.id);
        if rt.quality > rx.quality {
            toss_better += 1;
        }
    }
    assert!(
        toss_better >= queries.len() / 2,
        "TOSS should win quality on most queries ({toss_better}/{})",
        queries.len()
    );
}

#[test]
fn epsilon_monotonicity_of_recall() {
    // recall at larger ε is at least recall at smaller ε for every query
    let (corpus, ex0) = build(60, 77, 0.0);
    let (_, ex2) = build(60, 77, 2.0);
    let (_, ex3) = build(60, 77, 3.0);
    for q in workload(&corpus, 9, 6) {
        let truth = ground_truth(&corpus, &q);
        let tq = toss_query(&q.author_probe, &q.venue_isa);
        let r0 = recall(&ids(&ex0.select(&tq, Mode::Toss).unwrap().forest), &truth);
        let r2 = recall(&ids(&ex2.select(&tq, Mode::Toss).unwrap().forest), &truth);
        let r3 = recall(&ids(&ex3.select(&tq, Mode::Toss).unwrap().forest), &truth);
        assert!(r2 >= r0 - 1e-12, "q{}: r2 {r2} < r0 {r0}", q.id);
        assert!(r3 >= r2 - 1e-12, "q{}: r3 {r3} < r2 {r2}", q.id);
    }
}

#[test]
fn tax_baseline_has_perfect_precision() {
    let (corpus, ex) = build(60, 13, 3.0);
    for q in workload(&corpus, 3, 6) {
        let truth = ground_truth(&corpus, &q);
        let tq = {
            // exact-match variant (the contains-needle trick is in the
            // bench harness; plain baseline expansion is exact + contains
            // on the lowercase class and may return nothing — precision
            // still must be 1.0)
            toss_query(&q.author_probe, &q.venue_isa)
        };
        let tax = ids(&ex.select(&tq, Mode::TaxBaseline).unwrap().forest);
        let p = precision(&tax, &truth);
        assert!(p >= 0.999, "query {}: TAX precision {p}", q.id);
    }
}

#[test]
fn executor_agrees_with_in_memory_algebra() {
    let (corpus, ex) = build(50, 99, 2.0);
    for q in workload(&corpus, 21, 4) {
        let tq = toss_query(&q.author_probe, &q.venue_isa);
        let via_store = ex.select(&tq, Mode::Toss).unwrap().forest;
        let in_mem = toss_select(
            &SeoInstance::new(corpus.dblp.clone(), ex.seo.clone()),
            &tq.pattern,
            &tq.expand_labels,
            &ex.hierarchy,
            &ex.conversions,
        )
        .unwrap()
        .forest;
        assert_eq!(via_store.len(), in_mem.len(), "query {}", q.id);
        for t in &via_store {
            assert!(in_mem.contains_tree(t));
        }
    }
}

#[test]
fn cross_corpus_title_join_matches_ground_truth_overlap() {
    let (corpus, ex) = build(60, 55, 2.0);
    let left = SeoInstance::new(corpus.dblp.clone(), ex.seo.clone());
    let right = SeoInstance::new(corpus.sigmod.clone(), ex.seo.clone());
    let joined = similarity_hash_join(
        &left,
        &right,
        &JoinKey::child("title"),
        &JoinKey::child("title"),
    )
    .unwrap();
    // ground truth: overlapping papers whose sigmod title is within ε=2
    // of the dblp title (graded truncation variants: k ≤ 2), or exact
    let expected = corpus
        .papers
        .iter()
        .filter(|p| p.in_sigmod)
        .filter(|p| {
            p.sigmod_title == p.dblp_title
                || toss::similarity::Levenshtein::raw(&p.sigmod_title, &p.dblp_title) <= 2
        })
        .count();
    assert!(
        joined.len() >= expected,
        "join found {} < expected {expected}",
        joined.len()
    );
}

#[test]
fn snapshot_round_trip_preserves_query_results() {
    let (corpus, ex) = build(40, 3, 3.0);
    let q = workload(&corpus, 1, 1).remove(0);
    let tq = toss_query(&q.author_probe, &q.venue_isa);
    let before = ids(&ex.select(&tq, Mode::Toss).unwrap().forest);
    // snapshot the store, reload, rewire the executor
    let json = toss::xmldb::storage::to_json(&ex.db).unwrap();
    let db2 = toss::xmldb::storage::from_json(&json).unwrap();
    let ex2 = Executor::new(db2, ex.seo.clone()).with_probe_metric(Arc::new(metric()));
    let after = ids(&ex2.select(&tq, Mode::Toss).unwrap().forest);
    assert_eq!(before, after);
}
