//! The Similarity Enhancement Algorithm (paper Figure 12).
//!
//! Given a hierarchy `H`, a node similarity measure `d` (lifted from a
//! string measure per Definition 7) and a threshold ε, produce the
//! similarity enhancement `(H', μ)` of Definition 8 — or report similarity
//! inconsistency (Definition 9) when none exists.
//!
//! Construction (matching the proof sketch of Theorem 1, which pins down
//! the node set uniquely):
//!
//! 1. Build the ε-similarity graph over `H`'s nodes (`A ~ B` iff
//!    `d(A, B) ≤ ε`) and enumerate its **maximal cliques**. These are
//!    exactly the node sets satisfying conditions 2 (pairwise similar),
//!    3 (every similar pair co-resident somewhere) and 4 (no subsumed
//!    node) — each clique becomes one `H'` node whose term set is the
//!    union of its members' terms. The graph is a similarity self-join
//!    of `H`'s terms, filter and verify: a [`TermIndex`] compiled from the
//!    metric's [`BlockPlan`] at ε proposes the node pairs, and the exact
//!    `node_within` keeps those within ε. A metric with no plan is
//!    verified on all `n(n−1)/2` pairs.
//! 2. `μ(A)` = the cliques containing `A`.
//! 3. Required paths (condition 1, forward): for every `H`-path `A → B`
//!    and every `A₀ ∈ μ(A)`, `B₀ ∈ μ(B)` with `A₀ ≠ B₀`, `H'` must have a
//!    path `A₀ → B₀`. Take the transitive closure of these requirements.
//! 4. Validate condition 1's reverse direction on the closure: a path
//!    `A' → B'` in `H'` demands `a →* b` in `H` for *all* `a ∈ μ⁻¹(A')`,
//!    `b ∈ μ⁻¹(B')`. Any failure, or a cycle in the requirements, means
//!    no enhancement exists (the minimal requirement set is contained in
//!    every candidate `H'`, so failure is conclusive).
//! 5. Transitively reduce to obtain the Hasse diagram `H'`.

use crate::error::{OntologyError, OntologyResult};
use crate::graph::{DiGraph, UnGraph};
use crate::hierarchy::{HNodeId, Hierarchy};
use crate::seo::Seo;
use toss_similarity::node::node_within;
use toss_similarity::{BlockPlan, StringMetric, TermIndex};

/// Run the SEA algorithm: enhance `h` with similarity under `metric` and
/// threshold `epsilon`.
///
/// When the metric declares a blocking plan at ε
/// ([`StringMetric::blocking`]), only the node pairs a [`TermIndex`] over
/// `h`'s terms proposes reach the exact `node_within` check. A metric
/// without a plan (`Jaro`, or a `MinOf` with a plan-less side) uses the
/// exhaustive all-pairs loop. Output is identical either way — see [`enhance_exhaustive`] and
/// the equivalence proptests.
///
/// Returns [`OntologyError::SimilarityInconsistent`] when `(H, d, ε)` is
/// similarity inconsistent (Definition 9), and [`OntologyError::BadEpsilon`]
/// when ε is NaN, infinite or negative.
pub fn enhance<M: StringMetric>(
    h: &Hierarchy,
    metric: &M,
    epsilon: f64,
) -> OntologyResult<Seo> {
    enhance_impl(h, metric, epsilon, true)
}

/// The reference SEA: always runs the all-pairs ε-similarity loop,
/// ignoring any blocking plan the metric declares. Exists so the
/// equivalence tests can compare against [`enhance`]'s pruned path.
pub fn enhance_exhaustive<M: StringMetric>(
    h: &Hierarchy,
    metric: &M,
    epsilon: f64,
) -> OntologyResult<Seo> {
    enhance_impl(h, metric, epsilon, false)
}

fn enhance_impl<M: StringMetric>(
    h: &Hierarchy,
    metric: &M,
    epsilon: f64,
    blocked: bool,
) -> OntologyResult<Seo> {
    if !(epsilon.is_finite() && epsilon >= 0.0) {
        return Err(OntologyError::BadEpsilon(epsilon.to_string()));
    }
    let n = h.len();
    let obs_span = toss_obs::span("ontology.sea");
    obs_span.record("nodes", n);
    obs_span.record("epsilon", epsilon);

    // ---- step 1: ε-similarity graph and its maximal cliques -----------
    let sim_span = toss_obs::span("ontology.sea.similarity_graph");
    let mut sim = UnGraph::new(n);
    let mut sim_edges = 0usize;
    let mut verify = |a: usize, b: usize| {
        let ta = h.terms_of(HNodeId(a)).expect("dense ids");
        let tb = h.terms_of(HNodeId(b)).expect("dense ids");
        if node_within(metric, ta, tb, epsilon) {
            sim.add_edge(a, b);
            sim_edges += 1;
        }
    };
    let plan = if blocked {
        metric.blocking(epsilon)
    } else {
        None
    };
    match plan {
        Some(plan) => {
            let pairs = candidate_pairs(h, plan);
            sim_span.record("strategy", "blocked");
            sim_span.record("candidate_pairs", pairs.len());
            toss_obs::metrics::counter("toss.semantic.sea.blocked_runs").inc();
            toss_obs::metrics::counter("toss.semantic.sea.candidate_pairs").add(pairs.len() as u64);
            for (a, b) in pairs {
                verify(a, b);
            }
        }
        None => {
            sim_span.record("strategy", "exhaustive");
            for a in 0..n {
                for b in a + 1..n {
                    verify(a, b);
                }
            }
        }
    }
    sim_span.record("sim_edges", sim_edges);
    drop(sim_span);
    let clique_span = toss_obs::span("ontology.sea.cliques");
    let cliques = sim.maximal_cliques();
    clique_span.record("cliques", cliques.len());
    drop(clique_span);

    // ---- step 2: μ ------------------------------------------------------
    let mut mu: Vec<Vec<usize>> = vec![Vec::new(); n]; // original -> clique ids
    for (ci, clique) in cliques.iter().enumerate() {
        for &a in clique {
            mu[a].push(ci);
        }
    }

    // ---- step 3: required paths ----------------------------------------
    // Seeding the requirement graph with the *Hasse edges* alone gives the
    // same transitive closure as seeding with every closure pair: a path
    // A →* B decomposes into Hasse steps, and an induction on its length
    // shows every μ-image of A reaches every distinct μ-image of B through
    // the step edges (μ is total, so intermediate nodes always contribute
    // images to route through). Same closure ⇒ same cycles ⇒ the same
    // unique transitive reduction, at O(E·|μ|²) instead of O(V²·|μ|²).
    let mut req = DiGraph::new(cliques.len());
    for (u, v) in h.digraph().edges() {
        for &ca in &mu[u] {
            for &cb in &mu[v] {
                if ca != cb {
                    req.add_edge(ca, cb);
                }
            }
        }
    }
    if req.has_cycle() {
        return Err(OntologyError::SimilarityInconsistent(
            "required orderings between similarity cliques form a cycle".into(),
        ));
    }
    let closure = h.digraph().transitive_closure_bits();
    let req_closure = req.transitive_closure_bits();

    // ---- step 4: reverse direction of condition 1 -----------------------
    for ca in 0..cliques.len() {
        for cb in req_closure.iter_row(ca) {
            for &a in &cliques[ca] {
                for &b in &cliques[cb] {
                    if a != b && !closure.get(a, b) {
                        return Err(OntologyError::SimilarityInconsistent(format!(
                            "clique path {} → {} requires {} ≤ {} which does not hold in H",
                            render(h, &cliques[ca]),
                            render(h, &cliques[cb]),
                            h.render_node(HNodeId(a)),
                            h.render_node(HNodeId(b)),
                        )));
                    }
                }
            }
        }
    }

    // ---- step 5: materialize H' ------------------------------------------
    let reduced = req.transitive_reduction();
    let mut hp = Hierarchy::new();
    // Multiple cliques can share terms (overlapping cliques, e.g. the
    // paper's {A,B}/{A,C} case). Hierarchy requires globally unique terms,
    // so Seo derives each node's term set from the clique's members
    // itself; here each H' node is registered under a synthetic unique
    // alias.
    let clique_nodes: Vec<HNodeId> = (0..cliques.len())
        .map(|ci| {
            hp.add_node(vec![format!("\u{1}clique{ci}")])
                .expect("synthetic term is unique")
        })
        .collect();
    for (u, v) in reduced.edges() {
        hp.add_edge(clique_nodes[u], clique_nodes[v])
            .expect("req graph is acyclic");
    }

    if obs_span.is_recording() {
        obs_span.record("sim_edges", sim_edges);
        obs_span.record("cliques", cliques.len());
        obs_span.record(
            "merged_clusters",
            cliques.iter().filter(|c| c.len() > 1).count(),
        );
    }
    drop(obs_span);

    // H' node `ci` is clique `ci`, so `Seo::new` derives the same μ
    Ok(Seo::new(h.clone(), hp, cliques, epsilon))
}

/// The node pairs `(a, b)`, `a < b`, ascending and distinct, that `plan`
/// cannot rule out: every term of `h` goes into one [`TermIndex`], each
/// term probes it, and each candidate term maps to the node that owns it.
///
/// No pair within ε is missed. `node_within(A, B)` holds only if some
/// cross pair `(x, y)` is within ε — the min-lifting of Definition 7, or
/// under Lemma 1 the first pair — and `candidates(x)` is a superset of
/// the terms within ε of `x` (the plan's admissibility), so probing with
/// `x` proposes `(A, B)`.
fn candidate_pairs(h: &Hierarchy, plan: BlockPlan) -> Vec<(usize, usize)> {
    let mut terms: Vec<String> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    for node in 0..h.len() {
        for t in h.terms_of(HNodeId(node)).expect("dense ids") {
            terms.push(t.clone());
            owner.push(node);
        }
    }
    let index = TermIndex::build(plan, terms);
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (id, &a) in (0u32..).zip(&owner) {
        for c in index.candidates(index.term(id)) {
            let b = owner[c as usize];
            if a != b {
                pairs.push((a.min(b), a.max(b)));
            }
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

fn render(h: &Hierarchy, clique: &[usize]) -> String {
    let parts: Vec<String> = clique
        .iter()
        .map(|&a| h.render_node(HNodeId(a)))
        .collect();
    format!("[{}]", parts.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::from_pairs;
    use toss_similarity::Levenshtein;

    /// The paper's Example 11 toy isa hierarchy:
    /// relation, relational, model, models under a common root "concept",
    /// shaped so that relation/relational and model/models merge at ε=2.
    fn example11() -> Hierarchy {
        from_pairs(&[
            ("relation", "concept"),
            ("relational", "concept"),
            ("model", "concept"),
            ("models", "concept"),
        ])
        .unwrap()
    }

    #[test]
    fn example11_merges_similar_leaves() {
        let h = example11();
        let seo = enhance(&h, &Levenshtein, 2.0).unwrap();
        // relation+relational live together; model+models live together
        assert!(seo.similar_terms("relation").contains(&"relational".to_string()));
        assert!(seo.similar_terms("model").contains(&"models".to_string()));
        assert!(!seo.similar_terms("model").contains(&"relation".to_string()));
        // similar ~ holds exactly within nodes
        assert!(seo.similar("relation", "relational"));
        assert!(seo.similar("model", "models"));
        assert!(!seo.similar("relation", "models"));
    }

    #[test]
    fn epsilon_zero_is_identity_shape() {
        let h = example11();
        let seo = enhance(&h, &Levenshtein, 0.0).unwrap();
        assert_eq!(seo.enhanced().len(), h.len());
        for t in h.all_terms() {
            assert_eq!(seo.similar_terms(&t), vec![t.clone()]);
        }
        // ordering preserved
        assert!(seo.leq_terms("relation", "concept"));
        assert!(!seo.leq_terms("concept", "relation"));
    }

    #[test]
    fn overlapping_cliques_from_the_papers_discussion() {
        // A/B similar, A/C similar, B/C not: expect nodes {A,B} and {A,C}
        let mut h = Hierarchy::new();
        h.add_term("abcd");   // A
        h.add_term("abcde");  // B: d(A,B)=1
        h.add_term("abcf");   // C: d(A,C)=1, d(B,C)=2
        let seo = enhance(&h, &Levenshtein, 1.0).unwrap();
        assert_eq!(seo.enhanced().len(), 2);
        let sa = seo.similar_terms("abcd");
        assert!(sa.contains(&"abcde".to_string()) && sa.contains(&"abcf".to_string()));
        assert!(seo.similar("abcd", "abcde"));
        assert!(seo.similar("abcd", "abcf"));
        assert!(!seo.similar("abcde", "abcf"));
    }

    #[test]
    fn thresholds_no_seo_can_carry_are_refused() {
        let h = example11();
        for eps in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            for e in [
                enhance(&h, &Levenshtein, eps).unwrap_err(),
                enhance_exhaustive(&h, &Levenshtein, eps).unwrap_err(),
            ] {
                assert_eq!(e, OntologyError::BadEpsilon(eps.to_string()));
            }
        }
        assert_eq!(
            OntologyError::BadEpsilon("NaN".into()).to_string(),
            "ε must be a finite non-negative number, got NaN"
        );
    }

    #[test]
    fn ordering_is_preserved_through_enhancement() {
        let h = from_pairs(&[("cat", "animal"), ("animal", "entity")]).unwrap();
        let seo = enhance(&h, &Levenshtein, 1.0).unwrap();
        assert!(seo.leq_terms("cat", "entity"));
        assert!(seo.leq_terms("cat", "animal"));
        assert!(!seo.leq_terms("entity", "cat"));
    }

    #[test]
    fn inconsistency_when_merge_would_collapse_an_order() {
        // a ≤ b with d(a,b) ≤ ε merges a,b into one node — that is fine
        // (path of length zero). But a ≤ m ≤ b with d(a,b) ≤ ε and m far
        // from both forces clique {a,b} both above and below {m}: cycle.
        let mut h = Hierarchy::new();
        h.add_leq("aaaa", "zzzzzzzz").unwrap();
        h.add_leq("zzzzzzzz", "aaab").unwrap();
        let e = enhance(&h, &Levenshtein, 1.0).unwrap_err();
        assert!(matches!(e, OntologyError::SimilarityInconsistent(_)));
    }

    #[test]
    fn direct_edge_between_similar_nodes_is_consistent() {
        // a ≤ b and d(a,b) ≤ ε: clique {a,b}; required paths are within
        // one clique (length zero) → consistent.
        let mut h = Hierarchy::new();
        h.add_leq("model", "models").unwrap();
        let seo = enhance(&h, &Levenshtein, 1.0).unwrap();
        assert_eq!(seo.enhanced().len(), 1);
        assert!(seo.similar("model", "models"));
        assert!(seo.leq_terms("model", "models"));
        assert!(seo.leq_terms("models", "model")); // merged ⇒ both ways
    }

    #[test]
    fn partial_overlap_blocking_order_is_inconsistent() {
        // H: a → b. c similar to both a and b? Then cliques {a,c},{b,c}
        // (if a,b dissimilar). Path a→b requires {a,c}→{b,c}, whose
        // reverse check demands c→b and a→... c has no path to b: inconsistent.
        let mut h = Hierarchy::new();
        h.add_leq("xxxxxaaaa", "yyyyybbbb").unwrap(); // far apart
        h.add_term("xxxxxaaab"); // close to first only... need close to both — impossible with strong metric when endpoints far apart and ε small; use a medium ε
        // instead craft: a="aaaa", b="aaaaaaaa" (d=4), c="aaaaaa" (d=2 to both), ε=2
        let mut h2 = Hierarchy::new();
        h2.add_leq("aaaa", "aaaaaaaa").unwrap();
        h2.add_term("aaaaaa");
        let e = enhance(&h2, &Levenshtein, 2.0).unwrap_err();
        assert!(matches!(e, OntologyError::SimilarityInconsistent(_)));
        drop(h);
    }

    #[test]
    fn unrelated_chains_enhance_independently() {
        let h = from_pairs(&[("cat", "animal"), ("dog", "animal"), ("red", "color")]).unwrap();
        let seo = enhance(&h, &Levenshtein, 0.5).unwrap();
        assert!(seo.leq_terms("cat", "animal"));
        assert!(seo.leq_terms("red", "color"));
        assert!(!seo.leq_terms("cat", "color"));
    }

    #[test]
    fn mu_total_and_consistent_with_cliques() {
        let h = example11();
        let seo = enhance(&h, &Levenshtein, 2.0).unwrap();
        for node in h.nodes() {
            let images = seo.mu(node);
            assert!(!images.is_empty(), "μ must be total");
            for &img in images {
                assert!(
                    seo.members_of(img).contains(&node),
                    "μ image must contain its source"
                );
            }
        }
    }

    /// About a thousand bibliographic terms, generated deterministically:
    /// author names over shared surnames (full, initials, middle initial
    /// and near-miss spellings), venue names and single-word schema tags.
    fn bibliographic_hierarchy() -> Hierarchy {
        let given: Vec<&str> = "Jeffrey Jennifer Michael Hector Rakesh Surajit Elisa Gerhard \
            Christos David Joseph Laura Raghu Divesh Alon Serge Victor Moshe Philip Anastasia \
            Samuel Umeshwar Edward Maria"
            .split_whitespace()
            .collect();
        let surnames: Vec<&str> = "Ullman Widom Stonebraker Garcia-Molina Agrawal Chaudhuri \
            Bertino Weikum Faloutsos DeWitt Hellerstein Haas Ramakrishnan Srivastava Halevy \
            Abiteboul Vianu Vardi Bernstein Ailamaki Madden Dayal Hung Subrahmanian Gray Codd \
            Chen Naughton Jagadish Lakshmanan"
            .split_whitespace()
            .collect();
        let venues = [
            "International Conference on Very Large Data Bases",
            "ACM SIGMOD International Conference on Management of Data",
            "IEEE International Conference on Data Engineering",
            "Symposium on Principles of Database Systems",
            "International Conference on Database Theory",
            "Conference on Innovative Data Systems Research",
        ];
        let tags = "author title year booktitle article inproceedings journal pages volume \
            publisher editor series";
        let mut h = Hierarchy::new();
        for tag in tags.split_whitespace() {
            let _ = h.add_leq(tag, "schema");
        }
        for venue in venues {
            for year in 1995..2003 {
                let _ = h.add_leq(&format!("{venue} {year}"), "venue");
            }
        }
        // xorshift64: a fixed, dependency-free sequence
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut pick = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        while h.len() < 1000 {
            let first = given[pick(given.len())];
            let last = surnames[pick(surnames.len())];
            let middle = char::from(b'A' + pick(26) as u8);
            let name = match pick(5) {
                0 | 1 => format!("{first} {last}"),
                2 => format!("{}. {last}", &first[..1]),
                3 => format!("{first} {middle}. {last}"),
                // a near-miss spelling: one surname letter doubled
                _ => {
                    let at = 1 + pick(last.len() - 1);
                    format!("{first} {}{}", &last[..at], &last[at - 1..])
                }
            };
            let _ = h.add_leq(&name, "author");
        }
        h
    }

    /// A count, not a timing: the experiment metric must build the
    /// ε-graph from its plan, and the plan must prune. If a metric edit
    /// made `blocking()` return `None`, SEA would silently fall back to
    /// all pairs and this fails.
    #[test]
    fn experiment_metric_takes_the_blocked_branch_and_prunes() {
        use toss_similarity::combinators::{MinOf, MultiWordGate};
        use toss_similarity::NameRules;
        let h = bibliographic_hierarchy();
        let n = h.len();
        assert!((1000..1100).contains(&n), "{n} nodes");
        let metric = MinOf::new(
            NameRules::with_costs(3.0, 2.0, 1000.0),
            MultiWordGate::new(Levenshtein),
        );
        let plan = metric
            .blocking(3.0)
            .expect("the experiment metric declares a blocking plan at ε = 3");
        let candidates = candidate_pairs(&h, plan).len();
        let all_pairs = n * (n - 1) / 2;
        assert!(
            candidates * 10 < all_pairs,
            "{candidates} candidate pairs of {all_pairs}: the plan no longer prunes"
        );
    }
}
