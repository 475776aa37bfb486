//! End-to-end system assembly for the experiments.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use toss_core::algebra::TossPattern;
use toss_core::tax::EdgeKind;
use toss_core::{
    enhance_sdb, make_ontology, suggest_constraints, Executor, MakerConfig, OesInstance,
    TossCond, TossQuery, TossTerm,
};
use toss_datagen::{Corpus, QuerySpec};
use toss_lexicon::{Lexicon, LexiconBuilder};
use toss_similarity::combinators::{MinOf, MultiWordGate};
use toss_similarity::{Levenshtein, NameRules, StringMetric};
use toss_tree::Forest;
use toss_xmldb::{Database, DatabaseConfig};

/// A fully assembled TOSS system over a generated corpus.
pub struct BuiltSystem {
    /// The query executor (store + SEO).
    pub executor: Executor,
    /// Number of terms in the fused ontology (the paper's "ontology
    /// size" axis).
    pub ontology_terms: usize,
    /// Time spent building ontologies + fusion + SEA (precomputation,
    /// reported separately from query time as in the paper).
    pub precompute_time: Duration,
    /// Serialized size of the DBLP collection in bytes.
    pub dblp_bytes: usize,
    /// Serialized size of the SIGMOD collection in bytes.
    pub sigmod_bytes: usize,
}

/// The experiment metric: bibliographic name rules (initials fire at
/// ε = 3, dropped middle names at ε = 2) combined with multi-word-gated
/// Levenshtein (typos and spacing at ε = 1) — the paper's "rule-based
/// similarity ... in our SIGMOD/DBLP application" plus its canonical
/// strong measure.
pub fn experiment_metric() -> impl StringMetric + Clone {
    MinOf::new(
        NameRules::with_costs(3.0, 2.0, 1000.0),
        MultiWordGate::new(Levenshtein),
    )
}

/// The domain lexicon for a corpus: the embedded bibliographic lexicon
/// plus administrator facts classifying the corpus's venue pool (short
/// and long renderings, and their synonymy) — the paper's "user-specified
/// rules" refining the automatic ontology.
pub fn corpus_lexicon(corpus: &Corpus) -> Lexicon {
    let mut b = LexiconBuilder::from_base(toss_lexicon::data::bibliographic_lexicon());
    for v in &corpus.venues {
        b.add_line(&format!("isa: {} < {}", v.short, v.class))
            .expect("generated fact is well-formed");
        b.add_line(&format!("isa: {} < {}", v.long, v.class))
            .expect("generated fact is well-formed");
        b.add_line(&format!("syn: {} = {}", v.short, v.long))
            .expect("generated fact is well-formed");
    }
    b.build()
}

/// Assemble the full pipeline: load both renderings into the store, mine
/// per-instance ontologies, fuse them under suggested constraints, run
/// SEA at `epsilon`, and wire the executor.
///
/// `max_terms_per_tag` caps the ontology size (0 = unlimited) — the
/// paper's independent ontology-size axis in Figure 16(a).
pub fn build_executor(corpus: &Corpus, epsilon: f64, max_terms_per_tag: usize) -> BuiltSystem {
    let lexicon = corpus_lexicon(corpus);
    let maker_cfg = MakerConfig {
        max_terms_per_tag,
        ..MakerConfig::default()
    };

    let t0 = Instant::now();
    let dblp_ont =
        make_ontology(&corpus.dblp, &lexicon, &maker_cfg).expect("ontology mining succeeds");
    let sigmod_ont =
        make_ontology(&corpus.sigmod, &lexicon, &maker_cfg).expect("ontology mining succeeds");
    let constraints = suggest_constraints(&dblp_ont, 0, &sigmod_ont, 1, &lexicon);
    let instances = vec![
        OesInstance::new("dblp", corpus.dblp.clone(), dblp_ont),
        OesInstance::new("sigmod", corpus.sigmod.clone(), sigmod_ont),
    ];
    let sdb = enhance_sdb(&instances, &constraints, &experiment_metric(), epsilon)
        .expect("similarity enhancement succeeds");
    let precompute_time = t0.elapsed();
    let ontology_terms = sdb.fusion.hierarchy.term_count();

    let mut db = Database::with_config(DatabaseConfig::unlimited());
    load_collection(&mut db, "dblp", &corpus.dblp);
    load_collection(&mut db, "sigmod", &corpus.sigmod);

    let probe_metric: Arc<dyn toss_similarity::StringMetric> = Arc::new(experiment_metric());
    BuiltSystem {
        executor: Executor::new(db, sdb.seo).with_probe_metric(probe_metric),
        ontology_terms,
        precompute_time,
        dblp_bytes: corpus.dblp_size_bytes(),
        sigmod_bytes: corpus.sigmod_size_bytes(),
    }
}

fn load_collection(db: &mut Database, name: &str, forest: &Forest) {
    let coll = db.create_collection(name).expect("fresh collection");
    for t in forest {
        coll.insert(t.clone()).expect("unlimited collection");
    }
}

/// Compile a Figure-15 workload query into a TOSS selection: pattern
/// `inproceedings(author, booktitle, year)` with the paper's stated shape
/// — 3 tag conditions plus `author ~ probe` and `booktitle below class`.
pub fn query_to_toss(q: &QuerySpec) -> TossQuery {
    let pattern = TossPattern::spine(
        &[
            EdgeKind::ParentChild,
            EdgeKind::ParentChild,
            EdgeKind::ParentChild,
        ],
        TossCond::all(vec![
            // 3 tag-matching conditions
            TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
            TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
            TossCond::eq(TossTerm::tag(3), TossTerm::str("booktitle")),
            // 1 similarTo condition
            TossCond::similar(TossTerm::content(2), TossTerm::str(&q.author_probe)),
            // 1 isa condition
            TossCond::below(TossTerm::content(3), TossTerm::ty(&q.venue_isa)),
        ]),
    )
    .expect("fixed spine is valid");
    TossQuery {
        collection: "dblp".into(),
        pattern,
        expand_labels: vec![1],
    }
}

/// The TAX baseline rendering of a workload query, built the way the
/// paper describes ("'contains' and exact match are used for TAX"): the
/// similarTo condition becomes exact author equality and the isa
/// condition becomes a substring test for the capitalized class word
/// (a reasonable TAX author would write `contains(booktitle,
/// 'Conference')`, which is what real DBLP booktitles can textually
/// match).
pub fn query_to_tax(q: &QuerySpec) -> TossQuery {
    let needle = capitalize(&q.venue_isa);
    let pattern = TossPattern::spine(
        &[
            EdgeKind::ParentChild,
            EdgeKind::ParentChild,
            EdgeKind::ParentChild,
        ],
        TossCond::all(vec![
            TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
            TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
            TossCond::eq(TossTerm::tag(3), TossTerm::str("booktitle")),
            TossCond::eq(TossTerm::content(2), TossTerm::str(&q.author_probe)),
            TossCond::cmp(
                TossTerm::content(3),
                toss_core::TossOp::Contains,
                TossTerm::str(&needle),
            ),
        ]),
    )
    .expect("fixed spine is valid");
    TossQuery {
        collection: "dblp".into(),
        pattern,
        expand_labels: vec![1],
    }
}

fn capitalize(s: &str) -> String {
    let mut cs = s.chars();
    match cs.next() {
        Some(c) => c.to_uppercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

/// Map returned witness trees back to paper ids via the `key` attribute
/// (`conf/gen/<id>`).
pub fn answered_paper_ids(forest: &Forest) -> BTreeSet<usize> {
    forest
        .iter()
        .filter_map(|t| {
            let root = t.root()?;
            let key = t.data(root).ok()?.attr_value("key")?.to_string();
            key.rsplit('/').next()?.parse().ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use toss_core::executor::Mode;
    use toss_core::quality::QualityRow;
    use toss_datagen::{corpus::generate, ground_truth, queries::workload, CorpusConfig};

    fn tiny_system() -> (Corpus, BuiltSystem) {
        let corpus = generate(CorpusConfig {
            papers: 40,
            ..CorpusConfig::figure15(7)
        });
        let sys = build_executor(&corpus, 3.0, 0);
        (corpus, sys)
    }

    #[test]
    fn pipeline_assembles() {
        let (corpus, sys) = tiny_system();
        assert!(sys.ontology_terms > corpus.papers.len());
        assert!(sys.dblp_bytes > 0);
        assert_eq!(
            sys.executor.db.collection("dblp").unwrap().len(),
            corpus.dblp.len()
        );
    }

    #[test]
    fn toss_recall_at_least_tax_recall() {
        let (corpus, sys) = tiny_system();
        for q in workload(&corpus, 3, 4) {
            let truth = ground_truth(&corpus, &q);
            let tq = query_to_toss(&q);
            let toss = sys.executor.select(&tq, Mode::Toss).unwrap();
            let tax = sys.executor.select(&tq, Mode::TaxBaseline).unwrap();
            let toss_ids = answered_paper_ids(&toss.forest);
            let tax_ids = answered_paper_ids(&tax.forest);
            let rt = QualityRow::score(q.id, &toss_ids, &truth);
            let rx = QualityRow::score(q.id, &tax_ids, &truth);
            assert!(
                rt.recall >= rx.recall,
                "query {}: toss recall {} < tax recall {}",
                q.id,
                rt.recall,
                rx.recall
            );
            // TAX baseline: whatever it returns is exact-rendering +
            // contains matches; its precision must be 1.0 on this corpus
            assert!(rx.precision >= 0.999, "tax precision {}", rx.precision);
        }
    }

    #[test]
    fn answered_ids_parse_keys() {
        let (corpus, sys) = tiny_system();
        let q = workload(&corpus, 3, 1).remove(0);
        let out = sys
            .executor
            .select(&query_to_toss(&q), Mode::Toss)
            .unwrap();
        let ids = answered_paper_ids(&out.forest);
        for id in ids {
            assert!(id < corpus.papers.len());
        }
    }
}
