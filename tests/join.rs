//! Similarity-join equivalence suite (see `docs/performance.md`): the
//! signature join's inverted-index lookup must return *exactly* the naive
//! product-then-select oracle's output — across random ontologies,
//! adversarial 100%-skew single-class workloads and zipf-skewed keys, at
//! every worker count, with a governor candidate tally equal to the
//! oracle's pair count and bit-identical at every worker count.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use toss::core::algebra::{similarity_join, JoinKey, TossPattern};
use toss::core::executor::Mode;
use toss::core::expand::seo_classes;
use toss::core::governor::{BudgetKind, QueryBudget, QueryGovernor};
use toss::core::{Executor, SeoInstance, TossCond, TossQuery, TossTerm, WorkerPool};
use toss::tax::{EdgeKind, PatternTree};
use toss::xmldb::{Database, DatabaseConfig};
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_ontology::Seo;
use toss_similarity::Levenshtein;
use toss_tree::eq::fingerprint;
use toss_tree::{Forest, NodeData, Tree, TreeBuilder};

const THREADS: [usize; 3] = [1, 2, 7];

/// Term pool: pairs differing in the last character (Levenshtein 1)
/// fuse when the random ontology draws ε = 1, stay apart at ε = 0.
const TERMS: [&str; 12] = [
    "alpha", "alphb", "beta", "betb", "gamma", "gammb", "delta", "deltb", "omega", "omegb",
    "kappa", "kappb",
];

/// xorshift64 — deterministic workload derivation from a proptest seed.
struct Rng(u64);
impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A random ontology over [`TERMS`]: each near-duplicate term pair
/// hangs under one of three random parents (same parent for both —
/// the SEA's consistency condition rejects ε-similar terms under
/// different parents), ε ∈ {0, 1} decides whether the pairs fuse into
/// shared enhanced classes.
fn random_seo(rng: &mut Rng) -> Arc<Seo> {
    let parents = ["animal", "vehicle", "mineral"];
    let pairs: Vec<(&str, &str)> = TERMS
        .chunks(2)
        .flat_map(|pair| {
            let parent = parents[rng.below(parents.len())];
            pair.iter().map(move |t| (*t, parent))
        })
        .collect();
    let h = from_pairs(&pairs).expect("hierarchy");
    let eps = if rng.below(2) == 0 { 0.0 } else { 1.0 };
    Arc::new(enhance(&h, &Levenshtein, eps).expect("enhance"))
}

/// The adversarial single-class SEO: ten terms, pairwise distance 1,
/// ε = 1 — the SEA fuses everything into one enhanced class, so every
/// ontology key joins every other (100% skew).
fn clique_seo() -> Arc<Seo> {
    let terms: Vec<String> = (0..10).map(|i| format!("m{i:x}")).collect();
    let pairs: Vec<(&str, &str)> = terms.iter().map(|t| (t.as_str(), "hub")).collect();
    let h = from_pairs(&pairs).expect("hierarchy");
    Arc::new(enhance(&h, &Levenshtein, 1.0).expect("enhance"))
}

fn doc(key: &str, flavor: usize) -> Tree {
    TreeBuilder::new("rec")
        .leaf("k", key)
        .leaf("v", format!("f{flavor}"))
        .build()
}

/// One side: ~60% keys drawn zipf-ish from the ontology terms (low
/// ranks favored, so duplicates — and tree groups — are common), the
/// rest unique out-of-ontology strings. `flavor` varies so identical
/// keys do not always mean identical trees.
fn random_side(rng: &mut Rng, n: usize, tag: &str) -> Forest {
    let trees = (0..n)
        .map(|i| {
            if rng.below(5) < 3 {
                let spread = 1 + rng.below(TERMS.len());
                let rank = rng.below(spread);
                doc(TERMS[rank], rng.below(2))
            } else {
                doc(&format!("u-{tag}-{i}"), 0)
            }
        })
        .collect();
    Forest::from_trees(trees)
}

/// All keys from the single fused class, zipf-skewed.
fn clique_side(rng: &mut Rng, n: usize) -> Forest {
    let trees = (0..n)
        .map(|_| {
            let spread = 1 + rng.below(10);
            let rank = rng.below(spread);
            doc(&format!("m{rank:x}"), rng.below(2))
        })
        .collect();
    Forest::from_trees(trees)
}

fn graft_pair(lt: &Tree, rt: &Tree) -> Tree {
    let mut t = Tree::with_root(NodeData::element(toss::tax::PROD_ROOT_TAG));
    let root = t.root().expect("with_root sets root");
    if let Some(lr) = lt.root() {
        t.graft(Some(root), lt, lr).expect("graft left");
    }
    if let Some(rr) = rt.root() {
        t.graft(Some(root), rt, rr).expect("graft right");
    }
    t
}

/// The naive oracle: product, then select pairs where some key pair
/// shares an enhanced class or matches exactly — grafted in (li, ri)
/// order and deduplicated keeping first occurrences, by fingerprint
/// string rather than by the tree identity the join uses.
fn oracle(l: &SeoInstance, r: &SeoInstance, key: &JoinKey) -> Vec<String> {
    let classes = seo_classes(&l.seo);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for lt in &l.forest {
        let lks = key.extract(lt);
        for rt in &r.forest {
            let rks = key.extract(rt);
            let hit = lks.iter().any(|kl| {
                rks.iter().any(|kr| {
                    if kl == kr {
                        return true;
                    }
                    let cl = classes.get(kl.as_ref()).map(Vec::as_slice).unwrap_or(&[]);
                    let cr = classes.get(kr.as_ref()).map(Vec::as_slice).unwrap_or(&[]);
                    cl.iter().any(|c| cr.contains(c))
                })
            });
            if hit {
                let fp = fingerprint(&graft_pair(lt, rt));
                if seen.insert(fp.clone()) {
                    out.push(fp);
                }
            }
        }
    }
    out
}

fn fp_list(inst: &SeoInstance) -> Vec<String> {
    inst.forest.iter().map(fingerprint).collect()
}

fn run(l: &SeoInstance, r: &SeoInstance, workers: usize, gov: &QueryGovernor) -> SeoInstance {
    let key = JoinKey::child("k");
    let pool = WorkerPool::new(workers);
    let (out, _) = similarity_join(l, r, &key, &key, &pool, gov).expect("join");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random ontology, random sides: join ≡ oracle.
    #[test]
    fn join_equals_oracle(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let seo = random_seo(&mut rng);
        let nl = 8 + rng.below(25);
        let nr = 8 + rng.below(25);
        let l = SeoInstance::new(random_side(&mut rng, nl, "l"), seo.clone());
        let r = SeoInstance::new(random_side(&mut rng, nr, "r"), seo.clone());
        let expected = oracle(&l, &r, &JoinKey::child("k"));

        let gov = QueryGovernor::unlimited();
        let joined = run(&l, &r, 1, &gov);
        prop_assert_eq!(gov.join_candidates(), expected.len() as u64);
        prop_assert_eq!(fp_list(&joined), expected);
    }

    /// Adversarial 100% skew: every key in one enhanced class,
    /// zipf-duplicated; the result must still match the oracle.
    #[test]
    fn single_class_adversarial_skew(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let seo = clique_seo();
        let nl = 20 + rng.below(40);
        let nr = 20 + rng.below(40);
        let l = SeoInstance::new(clique_side(&mut rng, nl), seo.clone());
        let r = SeoInstance::new(clique_side(&mut rng, nr), seo.clone());
        let expected = oracle(&l, &r, &JoinKey::child("k"));

        let gov = QueryGovernor::unlimited();
        let joined = run(&l, &r, 1, &gov);
        prop_assert_eq!(gov.join_candidates(), expected.len() as u64);
        prop_assert_eq!(fp_list(&joined), expected);
    }

    /// Worker-count independence: identical output *and* identical
    /// governor candidate tallies at 1, 2 and 7 workers.
    #[test]
    fn workers_do_not_change_output_or_tallies(seed in 1u64..u64::MAX) {
        let mut rng = Rng::new(seed);
        let seo = clique_seo();
        let nl = 30 + rng.below(30);
        let nr = 30 + rng.below(30);
        let l = SeoInstance::new(clique_side(&mut rng, nl), seo.clone());
        let r = SeoInstance::new(clique_side(&mut rng, nr), seo.clone());

        let mut outputs: Vec<(Vec<String>, u64)> = Vec::new();
        for &w in &THREADS {
            let gov = QueryGovernor::unlimited();
            let out = run(&l, &r, w, &gov);
            outputs.push((fp_list(&out), gov.join_candidates()));
        }
        for pair in outputs.windows(2) {
            prop_assert_eq!(&pair[0].0, &pair[1].0);
            prop_assert_eq!(pair[0].1, pair[1].1);
        }
    }
}

/// Satellite 2 boundary test: with exactly the produced candidate count
/// as the budget nothing degrades; one below, the cap truncates
/// deterministically (same output at every worker count).
#[test]
fn join_cardinality_boundary() {
    let mut rng = Rng::new(42);
    let seo = clique_seo();
    let l = SeoInstance::new(clique_side(&mut rng, 40), seo.clone());
    let r = SeoInstance::new(clique_side(&mut rng, 40), seo.clone());

    let unlimited = QueryGovernor::unlimited();
    let full = run(&l, &r, 1, &unlimited);
    let produced = unlimited.join_candidates();
    assert!(produced > 0, "workload must generate candidates");

    // exactly at the limit: no degradation, full output
    let at = QueryGovernor::new(QueryBudget::unlimited().with_max_join_cardinality(produced));
    let out_at = run(&l, &r, 1, &at);
    assert!(at.degradation().is_none());
    assert_eq!(fp_list(&out_at), fp_list(&full));

    // one below: degradation recorded, deterministic truncation
    let mut truncated: Vec<Vec<String>> = Vec::new();
    for &w in &THREADS {
        let soft =
            QueryGovernor::new(QueryBudget::unlimited().with_max_join_cardinality(produced - 1));
        let out = run(&l, &r, w, &soft);
        let info = soft.degradation().expect("soft cap must trip");
        assert_eq!(info.tripped, BudgetKind::JoinCardinality);
        assert!(out.len() <= full.len());
        truncated.push(fp_list(&out));
    }
    for pair in truncated.windows(2) {
        assert_eq!(pair[0], pair[1]);
    }
}

/// Emission fans out over the pool: with a few thousand distinct matched
/// pairs the grafts span several pool tasks (at least 1 024 pairs each),
/// and the output, the candidate tally and the memory charge stay
/// identical at every worker count and equal to the oracle. A soft
/// memory ceiling one byte below the join's charge degrades identically
/// at every worker count and keeps the full output.
#[test]
fn pooled_emission_is_identical_at_every_worker_count() {
    // one fused class, every tree distinct (the `v` leaf counts up):
    // every left tree matches every right tree
    let seo = clique_seo();
    let side = |n: usize, offset: usize| {
        let trees = (0..n)
            .map(|i| doc(&format!("m{:x}", i % 10), offset + i))
            .collect();
        Forest::from_trees(trees)
    };
    let l = SeoInstance::new(side(70, 0), seo.clone());
    let r = SeoInstance::new(side(70, 1000), seo);
    let expected = oracle(&l, &r, &JoinKey::child("k"));
    assert!(
        expected.len() >= 3 * 1024,
        "emission must span three chunks"
    );

    let mut full: Vec<(Vec<String>, u64, u64)> = Vec::new();
    for &w in &THREADS {
        let gov = QueryGovernor::unlimited();
        let out = run(&l, &r, w, &gov);
        assert!(gov.degradation().is_none());
        full.push((fp_list(&out), gov.join_candidates(), gov.memory_used()));
    }
    for (got, &w) in full.iter().zip(&THREADS) {
        assert_eq!(got, &full[0], "workers={w}");
    }
    let (fps, candidates, charge) = full.swap_remove(0);
    assert_eq!(fps, expected);
    assert_eq!(candidates, expected.len() as u64);
    assert!(charge > 0, "the join charges its index");

    let mut degraded = Vec::new();
    for &w in &THREADS {
        let soft = QueryGovernor::new(QueryBudget::unlimited().with_max_memory_bytes(charge - 1));
        let out = run(&l, &r, w, &soft);
        let info = soft.degradation().expect("soft memory ceiling must trip");
        assert_eq!(info.tripped, BudgetKind::Memory);
        assert_eq!(fp_list(&out), fps, "workers={w}");
        degraded.push((info, soft.join_candidates(), soft.memory_used()));
    }
    for (got, &w) in degraded.iter().zip(&THREADS) {
        assert_eq!(got, &degraded[0], "workers={w}");
    }
}

/// A stored record whose key sits one level down, under `meta`, beside
/// leaves a witness leaves out.
fn nested_doc(key: &str, i: usize) -> Tree {
    TreeBuilder::new("rec")
        .open("meta")
        .leaf("k", key)
        .leaf("src", format!("s{i}"))
        .close()
        .leaf("v", format!("f{i}"))
        .build()
}

/// `rec` with a `k` descendant: the witness is `rec` over `k` alone —
/// not the stored document, and identical for every record sharing a
/// key.
fn nested_side(collection: &str) -> TossQuery {
    let mut structure = PatternTree::new(1);
    let root = structure.root();
    structure
        .add_child(root, 2, EdgeKind::AncestorDescendant)
        .expect("fresh label");
    TossQuery {
        collection: collection.into(),
        pattern: TossPattern {
            structure,
            condition: TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("rec")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("k")),
            ]),
        },
        expand_labels: Vec::new(),
    }
}

/// The executor's join reads its sides as witness views: duplicate
/// witnesses group once and an ancestor-descendant edge makes each
/// witness a strict part of its document. Output, candidate tally and
/// memory charge equal the oracle's at every worker count — the
/// output the product-then-select oracle over the materialised side
/// selections, the tallies those of the same selections under one
/// governor followed by the forest join.
#[test]
fn executor_join_over_witness_views_equals_the_oracle() {
    let seo = clique_seo();
    let mut rng = Rng::new(7);
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    for (name, n) in [("left", 60), ("right", 50)] {
        let coll = db.create_collection(name).expect("fresh collection");
        for i in 0..n {
            let key = if rng.below(4) == 0 {
                format!("u-{name}-{i}")
            } else {
                let spread = 1 + rng.below(10);
                format!("m{:x}", rng.below(spread))
            };
            coll.insert(nested_doc(&key, i))
                .expect("unlimited collection");
        }
    }
    let (left, right, key) = (
        nested_side("left"),
        nested_side("right"),
        JoinKey::child("k"),
    );

    let stored: usize = ["left", "right"]
        .iter()
        .map(|c| db.collection(c).expect("collection").documents().len())
        .sum();
    let mut ex = Executor::new(db, seo.clone()).with_threads(1);
    let gov = QueryGovernor::unlimited();
    let sides = [&left, &right].map(|q| {
        ex.select_governed(q, Mode::Toss, &gov)
            .expect("side selection")
            .forest
    });
    assert!(
        sides.iter().map(Forest::len).sum::<usize>() < stored,
        "duplicate witnesses"
    );
    assert!(
        sides[0].iter().all(|w| w.node_count() == 2),
        "witness is rec over k"
    );
    let [l, r] = sides.map(|f| SeoInstance::new(f, seo.clone()));
    let expected = oracle(&l, &r, &key);
    similarity_join(&l, &r, &key, &key, &WorkerPool::new(1), &gov).expect("forest join");
    assert_eq!(gov.join_candidates(), expected.len() as u64);
    let expected_memory = gov.memory_used();

    for &w in &THREADS {
        ex.pool = WorkerPool::new(w);
        let gov = QueryGovernor::unlimited();
        let out = ex
            .join_similarity_governed(&left, &right, &key, &key, Mode::Toss, &gov)
            .expect("join");
        let fps: Vec<String> = out.forest.iter().map(fingerprint).collect();
        assert_eq!(fps, expected, "workers={w}");
        assert_eq!(gov.join_candidates(), expected.len() as u64, "workers={w}");
        assert_eq!(gov.memory_used(), expected_memory, "workers={w}");
    }
}
