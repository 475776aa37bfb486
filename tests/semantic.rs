//! Property-based tests of the semantic fast path: the reachability
//! index must agree with naive BFS on arbitrary DAGs, the
//! candidate-pruned SEA must be observationally identical to the
//! exhaustive all-pairs algorithm — byte-identical persisted SEOs on
//! consistent inputs, identical errors on inconsistent ones — and the
//! blocked `~` probe expansion must return exactly what a scan of every
//! ontology term returns.

use proptest::prelude::*;
use std::sync::Arc;
use toss::core::executor::Mode;
use toss::core::{
    Executor, QueryBudget, QueryGovernor, RewriteCache, TossCond, TossQuery, TossTerm,
};
use toss::ontology::hierarchy::{from_pairs, Hierarchy};
use toss::ontology::persist::seo_to_json;
use toss::ontology::{enhance, enhance_exhaustive, Seo};
use toss::similarity::combinators::{MinOf, MultiWordGate, Scaled};
use toss::similarity::{DamerauOsa, Jaro, Levenshtein, NameRules, StringMetric};
use toss::tax::EdgeKind;
use toss::xmldb::{Database, DatabaseConfig};

// ---------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------

/// Short lowercase words so random pairs land within small edit
/// distances often enough to exercise merging — and, on unlucky draws,
/// similarity-inconsistency errors.
fn word() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ab]{1,4}").expect("valid regex")
}

/// A random hierarchy: words under class roots plus random chains among
/// the words themselves (cyclic `add_leq` attempts are rejected by the
/// hierarchy, so the result is always a DAG of arbitrary shape).
fn hierarchy() -> impl Strategy<Value = Hierarchy> {
    (
        proptest::collection::vec((word(), 0usize..3), 1..14),
        proptest::collection::vec((word(), word()), 0..8),
    )
        .prop_map(|(unders, chains)| {
            let mut h = Hierarchy::new();
            let classes = ["classx", "classy", "classz"];
            for (w, c) in unders {
                let _ = h.add_leq(&w, classes[c]);
            }
            for (lo, hi) in chains {
                // may be rejected (cycle) or a no-op (same node): fine
                let _ = h.add_leq(&lo, &hi);
            }
            let _ = h.add_leq("classx", "classy");
            h
        })
}

// ---------------------------------------------------------------------
// ReachIndex vs naive BFS
// ---------------------------------------------------------------------

proptest! {
    /// `ReachIndex::leq` and both cones agree with BFS reachability on
    /// the underlying digraph, for every vertex pair.
    #[test]
    fn reach_index_matches_bfs(h in hierarchy()) {
        let ix = h.reach_index();
        let g = h.digraph();
        let n = g.len();
        for a in 0..n {
            let fwd = g.reachable_from(a); // forward = everything ≥ a
            for b in 0..n {
                let expect = a == b || fwd.contains(&b);
                prop_assert_eq!(
                    ix.leq(a, b),
                    expect,
                    "leq({}, {}) disagrees with BFS", a, b
                );
            }
            let mut above: Vec<u32> = fwd.into_iter().map(|v| v as u32).collect();
            if !above.contains(&(a as u32)) {
                above.push(a as u32);
            }
            above.sort_unstable();
            let above_cone = ix.above_cone(a);
            prop_assert_eq!(above_cone.as_ref(), &above[..]);
            let mut below: Vec<u32> = (0..n)
                .filter(|&v| v == a || g.reachable_from(v).contains(&a))
                .map(|v| v as u32)
                .collect();
            below.sort_unstable();
            let below_cone = ix.below_cone(a);
            prop_assert_eq!(below_cone.as_ref(), &below[..]);
        }
        // below_many is the union of the individual below-cones
        let targets: Vec<usize> = (0..n).step_by(2).collect();
        let mut union: Vec<usize> = targets
            .iter()
            .flat_map(|&t| {
                ix.below_cone(t).iter().map(|&v| v as usize).collect::<Vec<_>>()
            })
            .collect();
        union.sort_unstable();
        union.dedup();
        prop_assert_eq!(ix.below_many(&targets), union);
    }

    /// The hierarchy's public cone queries (index-served) agree with the
    /// quadratic definition in terms of `leq`.
    #[test]
    fn hierarchy_cones_agree_with_leq(h in hierarchy()) {
        let ids: Vec<_> = h.nodes().collect();
        for &a in &ids {
            let below: Vec<_> = ids.iter().copied().filter(|&x| h.leq(x, a)).collect();
            prop_assert_eq!(h.below(a), below);
            let above: Vec<_> = ids.iter().copied().filter(|&x| h.leq(a, x)).collect();
            prop_assert_eq!(h.above(a), above);
        }
    }
}

// ---------------------------------------------------------------------
// blocked SEA ≡ exhaustive SEA
// ---------------------------------------------------------------------

fn assert_sea_equivalent<M: StringMetric>(h: &Hierarchy, metric: &M, eps: f64) {
    let blocked = enhance(h, metric, eps);
    let exhaustive = enhance_exhaustive(h, metric, eps);
    match (blocked, exhaustive) {
        (Ok(b), Ok(e)) => assert_eq!(
            seo_to_json(&b),
            seo_to_json(&e),
            "blocked SEA diverged from exhaustive at eps={eps}"
        ),
        (Err(b), Err(e)) => assert_eq!(
            format!("{b:?}"),
            format!("{e:?}"),
            "blocked SEA must fail identically at eps={eps}"
        ),
        (b, e) => panic!(
            "blocked and exhaustive SEA disagree on success at eps={eps}: \
             blocked={b:?} exhaustive={e:?}"
        ),
    }
}

/// [`assert_sea_equivalent`] for a metric that declares a plan at `eps`,
/// so that `enhance` really takes the blocked branch.
fn assert_blocked_sea_equivalent<M: StringMetric>(h: &Hierarchy, metric: &M, eps: f64) {
    assert!(
        metric.blocking(eps).is_some(),
        "{} declares no plan at eps={eps}: nothing would be tested",
        metric.name()
    );
    assert_sea_equivalent(h, metric, eps);
}

/// Multi-word names of every kind the experiment metric tells apart:
/// given names and their initials (with and without a middle initial)
/// over a few shared surnames, near-miss spellings of those surnames,
/// and a few single-word schema terms.
fn multi_word_name() -> impl Strategy<Value = String> {
    const GIVEN: [&str; 4] = ["Jeff", "Jeffrey", "Jan", "Edgar"];
    const SURNAME: [&str; 4] = ["Ullman", "Ulman", "Codd", "Cod"];
    const MIDDLE: [&str; 3] = ["D", "E", "J"];
    const SCHEMA: [&str; 4] = ["title", "article", "author", "year"];
    (0usize..7, 0usize..4, 0usize..4, 0usize..3).prop_map(|(shape, g, s, m)| {
        let (given, surname, middle) = (GIVEN[g], SURNAME[s], MIDDLE[m]);
        let initial = &given[..1];
        match shape {
            0 => format!("{given} {surname}"),
            1 => format!("{initial}. {surname}"),
            2 => format!("{given} {middle}. {surname}"),
            3 => format!("{initial}. {middle}. {surname}"),
            // one letter off: appended, or a vowel swapped
            4 => format!("{given} {surname}{}", ["n", "s", "e"][m]),
            5 => format!("{given} {}", surname.replacen(['a', 'o', 'u'], "e", 1)),
            _ => SCHEMA[g].to_string(),
        }
    })
}

/// Names under class roots plus a few chains among the names, so that
/// overlapping cliques and similarity-inconsistent draws both occur.
fn multi_word_hierarchy() -> impl Strategy<Value = Hierarchy> {
    (
        proptest::collection::vec((multi_word_name(), 0usize..3), 1..16),
        proptest::collection::vec((multi_word_name(), multi_word_name()), 0..4),
    )
        .prop_map(|(unders, chains)| {
            let mut h = Hierarchy::new();
            let classes = ["classx", "classy", "classz"];
            for (name, c) in unders {
                let _ = h.add_leq(&name, classes[c]);
            }
            for (lo, hi) in chains {
                let _ = h.add_leq(&lo, &hi);
            }
            h
        })
}

proptest! {
    /// Candidate pruning is invisible: same persisted SEO bytes, or the
    /// same error, as the all-pairs loop — across metrics (with and
    /// without transpositions, i.e. B = 2 and B = 3 bigram bounds) and
    /// thresholds (including ε = 0 self-classes and fractional ε).
    #[test]
    fn blocked_sea_is_byte_identical_to_exhaustive(h in hierarchy()) {
        for eps in [0.0, 0.5, 1.0, 2.0] {
            assert_blocked_sea_equivalent(&h, &Levenshtein, eps);
            assert_blocked_sea_equivalent(&h, &DamerauOsa, eps);
        }
    }

    /// The same for the experiment metric, its rule half alone and a
    /// rescaled edit metric, on multi-word names. The thresholds sit on
    /// both sides of every branch point: the rule costs (2, 3), and at
    /// 1003 the `NameRules` fallback and the `MultiWordGate` offset
    /// (both 1000) come into reach.
    #[test]
    fn blocked_sea_on_names_is_byte_identical_to_exhaustive(h in multi_word_hierarchy()) {
        for eps in [0.0, 0.5, 1.0, 2.0, 3.0, 1003.0] {
            assert_blocked_sea_equivalent(&h, &experiment_metric(), eps);
            assert_blocked_sea_equivalent(&h, &NameRules::with_costs(3.0, 2.0, 1000.0), eps);
            assert_blocked_sea_equivalent(&h, &Scaled::new(Levenshtein, 0.5), eps);
        }
    }

    /// The executor's rewrite cache is invisible too: selecting the same
    /// query against a warm cache yields the same XPath (or the same
    /// error) as the cold select and as an uncached executor.
    #[test]
    fn rewrite_cache_is_transparent(h in hierarchy(), probe in word()) {
        let Ok(seo) = enhance(&h, &Levenshtein, 1.0) else {
            return Ok(()); // inconsistent draw: nothing to query
        };
        let seo = std::sync::Arc::new(seo);
        let q = TossQuery {
            collection: "none".into(),
            pattern: toss::core::algebra::TossPattern::spine(
                &[EdgeKind::ParentChild],
                TossCond::all(vec![
                    TossCond::similar(TossTerm::content(2), TossTerm::str(&probe)),
                    TossCond::below(TossTerm::content(2), TossTerm::ty("classy")),
                ]),
            )
            .expect("spine pattern builds"),
            expand_labels: vec![1],
        };
        // an executor over one empty collection: only phase 1 can differ
        let executor = || {
            let mut db = Database::with_config(DatabaseConfig::unlimited());
            db.create_collection("none").expect("fresh database");
            Executor::new(db, seo.clone())
        };
        let select = |ex: &Executor| {
            let out = ex.select(&q, Mode::Toss).map(|o| (o.xpath, o.forest.len()));
            format!("{out:?}")
        };
        let with_cache = executor();
        let cold = select(&with_cache);
        let warm = select(&with_cache);
        // an uncached executor (zero-capacity cache) is the reference
        let mut reference = executor();
        reference.rewrite_cache = RewriteCache::new(0);
        let uncached = select(&reference);
        prop_assert_eq!(&cold, &uncached);
        prop_assert_eq!(&warm, &uncached);
        if cold.starts_with("Ok") {
            prop_assert!(with_cache.rewrite_cache.hits() >= 1);
        }
    }
}

/// A metric that declares no plan (`Jaro`) takes the all-pairs loop in
/// `enhance` as well, and so equals `enhance_exhaustive`.
#[test]
fn unplanned_metric_sea_equals_exhaustive() {
    let h = from_pairs(&[
        ("Jeff Ullman", "author"),
        ("Jeff Ulman", "author"),
        ("J. Ullman", "author"),
        ("Edgar Codd", "author"),
        ("title", "schema"),
    ])
    .expect("flat hierarchy");
    for eps in [0.0, 0.1, 0.3, 1.0] {
        assert!(Jaro.blocking(eps).is_none());
        assert_sea_equivalent(&h, &Jaro, eps);
    }
}

// ---------------------------------------------------------------------
// blocked `~` probe expansion ≡ scan of every ontology term
// ---------------------------------------------------------------------

/// The same distances with no blocking plan declared: probe expansion
/// under it is the scan of every term, the reference the index must match.
struct Unplanned<M>(M);

impl<M: StringMetric> StringMetric for Unplanned<M> {
    fn distance(&self, a: &str, b: &str) -> f64 {
        self.0.distance(a, b)
    }
    fn name(&self) -> &str {
        self.0.name()
    }
    fn within(&self, a: &str, b: &str, epsilon: f64) -> bool {
        self.0.within(a, b, epsilon)
    }
}

/// The metric of every CLI, bench and benchmark path.
fn experiment_metric() -> impl StringMetric {
    MinOf::new(
        NameRules::with_costs(3.0, 2.0, 1000.0),
        MultiWordGate::new(Levenshtein),
    )
}

fn assert_probe_equals_scan<M: StringMetric>(seo: &Seo, metric: &M, probes: &[String]) {
    assert!(
        metric.blocking(seo.epsilon()).is_some(),
        "{} declares no plan at eps={}: nothing would be tested",
        metric.name(),
        seo.epsilon()
    );
    let scan = Unplanned(metric);
    assert!(scan.blocking(seo.epsilon()).is_none());
    for probe in probes {
        assert_eq!(
            seo.similar_terms_probe(probe, metric),
            seo.similar_terms_probe(probe, &scan),
            "{} at eps={}: blocked expansion of {probe:?} diverged from the scan",
            metric.name(),
            seo.epsilon()
        );
    }
}

/// Name-shaped terms: one to three short words over a tiny alphabet, with
/// initials and stray punctuation, so surname keys collide, initials
/// rules fire and edit distances stay within reach.
fn name_term() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[ab .]{1,7}").expect("valid regex")
}

/// A flat ontology of name-shaped terms and single words under class
/// roots (flat, so that nearly every draw is similarity consistent).
fn name_hierarchy() -> impl Strategy<Value = Hierarchy> {
    proptest::collection::vec((name_term(), word(), 0usize..2), 1..12).prop_map(|rows| {
        let mut h = Hierarchy::new();
        let classes = ["classx", "classy"];
        for (name, single, c) in rows {
            let _ = h.add_leq(&name, classes[c]);
            let _ = h.add_leq(&single, classes[1 - c]);
        }
        h
    })
}

/// Probes of every kind the rewrite can meet: name-shaped near misses
/// (and the empty string), arbitrary unicode, punctuation with no word
/// token, and single words.
fn probes() -> impl Strategy<Value = Vec<String>> {
    let some = |pattern: &str, n: std::ops::Range<usize>| {
        proptest::collection::vec(
            proptest::string::string_regex(pattern).expect("valid regex"),
            n,
        )
    };
    (
        some("[ab .]{0,8}", 4..8),
        some(".{0,6}", 2..4),
        some("[.,;!? -]{1,4}", 1..3),
        some("[ab]{1,4}", 1..3),
    )
        .prop_map(|(near, unicode, punctuation, single)| {
            [near, unicode, punctuation, single].concat()
        })
}

proptest! {
    /// For every metric that declares a plan, over thresholds on both
    /// sides of each combinator's branch point (NameRules' default
    /// fallback offset is 3): the indexed expansion is the scan's.
    #[test]
    fn blocked_probe_is_byte_identical_to_the_scan(
        h in name_hierarchy(),
        unknown in probes(),
        known in proptest::collection::vec(0usize..64, 2..4),
    ) {
        let terms = h.all_terms();
        let mut all = unknown;
        all.extend(known.iter().map(|&i| terms[i % terms.len()].clone()));
        for eps in [0.0, 0.5, 1.0, 2.0, 3.0, 4.0] {
            // the enhancement's own metric does not matter to a probe: SEA
            // runs once per threshold, each metric then probes the result
            let Ok(seo) = enhance(&h, &MultiWordGate::new(Levenshtein), eps) else {
                continue; // similarity-inconsistent draw
            };
            assert_probe_equals_scan(&seo, &Levenshtein, &all);
            assert_probe_equals_scan(&seo, &DamerauOsa, &all);
            assert_probe_equals_scan(&seo, &Scaled::new(Levenshtein, 0.7), &all);
            assert_probe_equals_scan(&seo, &MultiWordGate::new(Levenshtein), &all);
            assert_probe_equals_scan(&seo, &NameRules::default(), &all);
            assert_probe_equals_scan(&seo, &NameRules::with_costs(3.0, 2.0, 1000.0), &all);
            assert_probe_equals_scan(&seo, &MinOf::new(NameRules::default(), DamerauOsa), &all);
            assert_probe_equals_scan(&seo, &experiment_metric(), &all);
            // the form the executor hands to SEO probes: `blocking()` must
            // forward across the trait object
            let shared: &dyn StringMetric = &experiment_metric();
            assert_probe_equals_scan(&seo, &shared, &all);
        }
    }
}

/// The corpus the benchmark's stores are cut from: every author under
/// every name variant probes an ontology mined from the documents.
#[test]
fn blocked_probe_equals_scan_on_a_generated_corpus() {
    use toss::core::{make_ontology, MakerConfig};
    use toss::datagen::names::{render, VARIANTS};
    use toss::datagen::{corpus::generate, CorpusConfig};
    let corpus = generate(CorpusConfig::scalability(11, 2000));
    let lexicon = toss::lexicon::data::bibliographic_lexicon();
    // names and venues only, capped: the scan side of the comparison is
    // probes × terms metric calls, and this suite runs unoptimized
    let cfg = MakerConfig {
        term_tags: vec!["author".into(), "booktitle".into()],
        max_terms_per_tag: 150,
    };
    let ontology = make_ontology(&corpus.dblp, &lexicon, &cfg).expect("ontology mining succeeds");
    // the gated edit half of the experiment metric declares a plan, so
    // this SEA run is itself blocked (and quick)
    let seo = enhance(ontology.isa(), &MultiWordGate::new(Levenshtein), 3.0)
        .expect("gated enhancement is consistent");
    let mut probes: Vec<String> = corpus
        .authors
        .iter()
        .flat_map(|e| VARIANTS.iter().map(move |&v| render(e, v)))
        .collect();
    probes.sort();
    probes.dedup();
    let unknown = probes
        .iter()
        .filter(|p| seo.enhanced_nodes_of_term(p).is_empty())
        .count();
    assert!(unknown > probes.len() / 2, "most renderings must take the probe path");
    assert_probe_equals_scan(&seo, &experiment_metric(), &probes);
}

fn similar_author_query(probe: &str) -> TossQuery {
    TossQuery {
        collection: "dblp".into(),
        pattern: toss::core::algebra::TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::similar(TossTerm::content(2), TossTerm::str(probe)),
            ]),
        )
        .expect("spine pattern builds"),
        expand_labels: vec![1],
    }
}

fn author_hierarchy(authors: &[&str]) -> Hierarchy {
    let pairs: Vec<(&str, &str)> = authors.iter().map(|a| (*a, "author")).collect();
    from_pairs(&pairs).expect("flat hierarchy")
}

/// One `dblp` document per author, the SEO enhanced at ε = 1.
fn author_executor(authors: &[&str], metric: Arc<dyn StringMetric>) -> Executor {
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    let coll = db.create_collection("dblp").expect("fresh collection");
    for a in authors {
        coll.insert_xml(&format!("<inproceedings><author>{a}</author></inproceedings>"))
            .expect("well-formed document");
    }
    let seo = enhance(&author_hierarchy(authors), &Levenshtein, 1.0).expect("consistent");
    Executor::new(db, Arc::new(seo)).with_probe_metric(metric)
}

/// The expansion-term budget sees the same set either way: caps
/// truncate to the same terms and report the same degradation, and the
/// same number of terms is charged.
#[test]
fn probe_index_charges_and_truncates_like_the_scan() {
    let authors = ["Jeff Ullman", "Jeff Ullmann", "Jeff Ullmaa", "E. Codd"];
    let indexed = author_executor(&authors, Arc::new(Levenshtein));
    let scanned = author_executor(&authors, Arc::new(Unplanned(Levenshtein)));
    // not a term; one edit from each of the three Ullman spellings
    let q = similar_author_query("Jeff Ullmaan");
    for limit in [None, Some(2), Some(0)] {
        let budget = || match limit {
            Some(max) => QueryBudget::unlimited().with_max_expansion_terms(max),
            None => QueryBudget::unlimited(),
        };
        let (gi, gs) = (QueryGovernor::new(budget()), QueryGovernor::new(budget()));
        let oi = indexed.select_governed(&q, Mode::Toss, &gi);
        let os = scanned.select_governed(&q, Mode::Toss, &gs);
        assert_eq!(gi.terms_used(), gs.terms_used(), "charged terms under {limit:?}");
        let (i, s) = (oi.unwrap(), os.unwrap());
        assert_eq!(i.xpath, s.xpath, "expansion under {limit:?}");
        assert_eq!(i.forest.len(), s.forest.len());
        assert_eq!(
            format!("{:?}", i.degradation),
            format!("{:?}", s.degradation),
            "degradation under {limit:?}"
        );
        assert_eq!(i.degradation.is_some(), limit.is_some());
    }
}

/// A write batch swaps the SEO; the next probes — from any number of
/// threads at once, racing to compile the new ontology's index — see
/// the new term and agree with the scan.
#[test]
fn probes_right_after_an_seo_swap_see_the_new_ontology() {
    let before = ["Jeff Ullman", "E. Codd"];
    let after = ["Jeff Ullman", "Jeff Ullmean", "E. Codd"];
    let q = similar_author_query("Jeff Ullmaan");
    for threads in [1usize, 2, 7] {
        let mut indexed = author_executor(&before, Arc::new(Levenshtein));
        let mut scanned = author_executor(&before, Arc::new(Unplanned(Levenshtein)));
        let stale = indexed.select(&q, Mode::Toss).expect("select").xpath;
        assert!(stale.contains("Jeff Ullman") && !stale.contains("Jeff Ullmean"));

        let grown = Arc::new(
            enhance(&author_hierarchy(&after), &Levenshtein, 1.0).expect("consistent"),
        );
        indexed.note_write_batch(Some(grown.clone()));
        scanned.note_write_batch(Some(grown));
        let expected = scanned.select(&q, Mode::Toss).expect("select").xpath;
        assert!(expected.contains("Jeff Ullmean"));

        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        indexed.select(&q, Mode::Toss).expect("select").xpath
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("prober thread"), expected, "{threads} thread(s)");
            }
        });
    }
}
