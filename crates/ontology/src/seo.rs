//! Similarity Enhanced Ontologies — the `(H', μ)` pair of Definition 8.
//!
//! Because similarity cliques can overlap (the paper's `{A,B}` / `{A,C}`
//! discussion), one term may appear in several `H'` nodes; the enhanced
//! [`Hierarchy`] therefore carries synthetic node labels while [`Seo`]
//! itself owns the real term sets and the μ mapping.

use crate::hierarchy::{HNodeId, Hierarchy};
use crate::intern::{Sym, SymbolTable};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use toss_obs::metrics::Counter;
use toss_similarity::{BlockPlan, TermIndex};

/// Monotone source of SEO version stamps: every constructed enhancement
/// (fresh SEA runs, persistence loads, fused-and-re-enhanced ontologies)
/// gets a distinct version, so downstream caches keyed on it can never
/// serve a rewrite computed against a different enhancement.
static SEO_VERSION: AtomicU64 = AtomicU64::new(0);

/// The probe-expansion counters (`toss.semantic.probe.*`), resolved once.
struct ProbeCounters {
    indexed: Arc<Counter>,
    scanned: Arc<Counter>,
    candidates: Arc<Counter>,
    index_builds: Arc<Counter>,
}

fn probe_counters() -> &'static ProbeCounters {
    static COUNTERS: OnceLock<ProbeCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let counter = |name: &str| toss_obs::metrics::counter(&format!("toss.semantic.probe.{name}"));
        ProbeCounters {
            indexed: counter("indexed"),
            scanned: counter("scanned"),
            candidates: counter("candidates"),
            index_builds: counter("index_builds"),
        }
    })
}

/// A similarity enhancement of a hierarchy: the enhanced Hasse diagram
/// `H'`, the mapping `μ : H → 2^{H'}` and the member term sets of each
/// enhanced node.
#[derive(Debug, Clone)]
pub struct Seo {
    original: Hierarchy,
    enhanced: Hierarchy,
    /// For each enhanced node (by id order): which original nodes it
    /// contains (`μ⁻¹`).
    members: Vec<Vec<HNodeId>>,
    /// `μ`: original node → enhanced nodes containing it.
    mu: Vec<Vec<HNodeId>>,
    /// term → enhanced nodes whose member sets contain the term.
    term_to_enhanced: HashMap<String, Vec<HNodeId>>,
    /// term sets per enhanced node.
    terms: Vec<Vec<String>>,
    epsilon: f64,
    /// Process-unique version stamp for cache keys.
    version: u64,
    /// Vocabulary interned in lexicographic order, so symbol order is
    /// term order and sorted `Sym` cones resolve to sorted term lists.
    symbols: SymbolTable,
    /// Per enhanced node, its term set as ascending symbols.
    node_syms: Vec<Vec<Sym>>,
    /// Memoized below-cone term sets, indexed by `Sym`.
    below_memo: Vec<OnceLock<Arc<[Sym]>>>,
    /// Memoized similarity classes, indexed by `Sym`.
    similar_memo: Vec<OnceLock<Arc<[Sym]>>>,
    /// The lazily compiled candidate index behind
    /// [`Seo::similar_terms_probe`]. It lives and dies with this
    /// enhancement (clones have the same terms and share it) — a
    /// re-enhanced ontology starts empty — and it answers only for the
    /// plan it was compiled from, so a probe metric that declares a
    /// different plan compiles its own.
    probe_index: Arc<RwLock<Option<Arc<TermIndex>>>>,
}

impl Seo {
    /// Assemble an SEO from SEA's output or a stored one. `cliques`
    /// holds, per enhanced node in id order, the *original* node indices
    /// it merged; μ is derived. The caller is responsible for the parts
    /// actually satisfying Definition 8 (use [`Seo::validate`] after
    /// loading untrusted data).
    pub(crate) fn new(
        original: Hierarchy,
        enhanced: Hierarchy,
        cliques: Vec<Vec<usize>>,
        epsilon: f64,
    ) -> Self {
        let mut mu: Vec<Vec<HNodeId>> = vec![Vec::new(); original.len()];
        for (ci, clique) in cliques.iter().enumerate() {
            for &a in clique {
                if a < mu.len() {
                    mu[a].push(HNodeId(ci));
                }
            }
        }
        let members: Vec<Vec<HNodeId>> = cliques
            .iter()
            .map(|c| c.iter().map(|&i| HNodeId(i)).collect())
            .collect();
        let mut terms: Vec<Vec<String>> = Vec::with_capacity(members.len());
        let mut term_to_enhanced: HashMap<String, Vec<HNodeId>> = HashMap::new();
        for (ei, mems) in members.iter().enumerate() {
            let mut ts: Vec<String> = Vec::new();
            for &m in mems {
                for t in original.terms_of(m).expect("member ids are valid") {
                    if !ts.contains(t) {
                        ts.push(t.clone());
                    }
                }
            }
            ts.sort();
            for t in &ts {
                term_to_enhanced
                    .entry(t.clone())
                    .or_default()
                    .push(HNodeId(ei));
            }
            terms.push(ts);
        }
        // intern the vocabulary in lexicographic order: Sym order then
        // coincides with term order, so cones sorted by symbol resolve
        // straight to the sorted term lists the public API promises
        let mut vocab: Vec<&String> = term_to_enhanced.keys().collect();
        vocab.sort();
        let mut symbols = SymbolTable::new();
        for t in vocab {
            symbols.intern(t);
        }
        let node_syms: Vec<Vec<Sym>> = terms
            .iter()
            .map(|ts| {
                ts.iter()
                    .map(|t| symbols.lookup(t).expect("vocabulary is interned"))
                    .collect()
            })
            .collect();
        let n_syms = symbols.len();
        Seo {
            original,
            enhanced,
            members,
            mu,
            term_to_enhanced,
            terms,
            epsilon,
            version: SEO_VERSION.fetch_add(1, Ordering::Relaxed) + 1,
            symbols,
            node_syms,
            below_memo: (0..n_syms).map(|_| OnceLock::new()).collect(),
            similar_memo: (0..n_syms).map(|_| OnceLock::new()).collect(),
            probe_index: Arc::default(),
        }
    }

    /// The original hierarchy `H`.
    pub fn original(&self) -> &Hierarchy {
        &self.original
    }

    /// The enhanced hierarchy `H'` (node labels are synthetic; use
    /// [`Seo::terms_of_enhanced`] for the real term sets).
    pub fn enhanced(&self) -> &Hierarchy {
        &self.enhanced
    }

    /// The threshold ε the enhancement was built with.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Process-unique version stamp of this enhancement. Two `Seo` values
    /// never share a version (clones excepted), so caches keyed on it
    /// invalidate automatically when an ontology is fused and re-enhanced.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// `μ(a)`: enhanced nodes containing original node `a`.
    pub(crate) fn mu(&self, a: HNodeId) -> &[HNodeId] {
        self.mu.get(a.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `μ⁻¹(e)`: original nodes merged into enhanced node `e`.
    pub(crate) fn members_of(&self, e: HNodeId) -> &[HNodeId] {
        self.members.get(e.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Term set of an enhanced node.
    pub fn terms_of_enhanced(&self, e: HNodeId) -> &[String] {
        self.terms.get(e.0).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Enhanced nodes whose term set contains `term`.
    pub fn enhanced_nodes_of_term(&self, term: &str) -> &[HNodeId] {
        self.term_to_enhanced
            .get(term)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The paper's `~` operator: true iff some enhanced node contains
    /// both terms.
    pub fn similar(&self, a: &str, b: &str) -> bool {
        let ea = self.enhanced_nodes_of_term(a);
        if ea.is_empty() {
            return a == b;
        }
        self.enhanced_nodes_of_term(b).iter().any(|e| ea.contains(e))
    }

    /// All terms similar to `term`: the union of term sets of every
    /// enhanced node containing it (always includes `term` itself when
    /// the term is known; returns just `term` for unknown terms).
    pub fn similar_terms(&self, term: &str) -> Vec<String> {
        match self.similar_terms_interned(term) {
            Some(cone) => self.resolve_all(&cone),
            None => vec![term.to_string()],
        }
    }

    /// The similarity class of a known term as memoized symbols (sorted
    /// ascending — lexicographic term order), or `None` for unknown
    /// terms. Repeated calls return the same allocation.
    pub(crate) fn similar_terms_interned(&self, term: &str) -> Option<Arc<[Sym]>> {
        let sym = self.symbols.lookup(term)?;
        Some(Arc::clone(self.similar_memo[sym.index()].get_or_init(
            || {
                let mut syms: Vec<Sym> = self
                    .enhanced_nodes_of_term(term)
                    .iter()
                    .flat_map(|&e| self.node_syms[e.0].iter().copied())
                    .collect();
                syms.sort_unstable();
                syms.dedup();
                syms.into()
            },
        )))
    }

    /// Resolve a symbol cone back to owned term strings (order kept).
    fn resolve_all(&self, syms: &[Sym]) -> Vec<String> {
        syms.iter()
            .map(|&s| self.symbols.resolve(s).to_string())
            .collect()
    }

    /// Terms similar to a *probe* string that may be absent from the
    /// ontology: for a known probe this is [`Seo::similar_terms`]; for an
    /// unknown probe, the terms `t` with `d_s(probe, t) ≤ ε` under the
    /// supplied metric (plus the probe itself) — the node set SEA would
    /// have produced had the probe been a term. This is how a query for
    /// "J. Ullman" reaches documents that only ever wrote
    /// "Jeffrey D. Ullman".
    ///
    /// When the metric declares a blocking plan at ε
    /// ([`toss_similarity::StringMetric::blocking`]) only the candidates
    /// of a [`TermIndex`] over the ontology's terms reach `within`; the
    /// index is a superset of the within-ε terms, so the result is the
    /// one the scan of every term gives. A metric without a plan scans.
    pub fn similar_terms_probe<M: toss_similarity::StringMetric>(
        &self,
        probe: &str,
        metric: &M,
    ) -> Vec<String> {
        if !self.enhanced_nodes_of_term(probe).is_empty() {
            return self.similar_terms(probe);
        }
        let counters = probe_counters();
        let mut out = vec![probe.to_string()];
        let verified = match metric.blocking(self.epsilon) {
            Some(plan) => {
                let index = self.probe_index_for(plan);
                let candidates = index.candidates(probe);
                for &id in &candidates {
                    let t = index.term(id);
                    if metric.within(probe, t, self.epsilon) {
                        out.push(t.to_string());
                    }
                }
                counters.indexed.inc();
                toss_obs::record("probe_strategy", "indexed");
                candidates.len()
            }
            None => {
                let terms = self.original.all_terms();
                let scanned = terms.len();
                for t in terms {
                    if metric.within(probe, &t, self.epsilon) {
                        out.push(t);
                    }
                }
                counters.scanned.inc();
                toss_obs::record("probe_strategy", "scanned");
                scanned
            }
        };
        counters.candidates.add(verified as u64);
        toss_obs::record("probe_candidates", verified);
        out.sort();
        out.dedup();
        out
    }

    /// The candidate index for `plan`, compiled on first use. Racing
    /// first probes may each compile one; the last stored wins and all
    /// are equal.
    fn probe_index_for(&self, plan: BlockPlan) -> Arc<TermIndex> {
        if let Some(index) = self.compiled_probe_index().filter(|ix| *ix.plan() == plan) {
            return index;
        }
        let index = Arc::new(TermIndex::build(plan, self.original.all_terms()));
        probe_counters().index_builds.inc();
        *self.probe_index.write().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&index));
        index
    }

    fn compiled_probe_index(&self) -> Option<Arc<TermIndex>> {
        // the lock is held only to clone or store the `Arc`, so a
        // poisoned one still guards a valid value
        self.probe_index.read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Ordering on terms through the enhancement: `x ≤ y` iff some
    /// enhanced node containing `x` has a path (length ≥ 0) to some
    /// enhanced node containing `y`.
    pub fn leq_terms(&self, x: &str, y: &str) -> bool {
        let ex = self.enhanced_nodes_of_term(x);
        let ey = self.enhanced_nodes_of_term(y);
        if ex.is_empty() || ey.is_empty() {
            return false;
        }
        // force the shared reachability index so the nested ≤ probes are
        // bit tests rather than per-pair DFS walks
        let ix = self.enhanced.reach_index();
        ex.iter().any(|&a| ey.iter().any(|&b| ix.leq(a.0, b.0)))
    }

    /// All terms at or below `term` in the enhanced order — the term
    /// expansion the Query Executor uses for `isa`/`below` conditions.
    pub fn below_terms(&self, term: &str) -> Vec<String> {
        match self.below_terms_interned(term) {
            Some(cone) => self.resolve_all(&cone),
            None => vec![term.to_string()],
        }
    }

    /// The below-cone of a known term as memoized symbols (sorted
    /// ascending — lexicographic term order), or `None` for unknown
    /// terms. This is the allocation-free hot path: repeated calls
    /// return the same `Arc<[Sym]>`.
    pub(crate) fn below_terms_interned(&self, term: &str) -> Option<Arc<[Sym]>> {
        let sym = self.symbols.lookup(term)?;
        Some(Arc::clone(self.below_memo[sym.index()].get_or_init(
            || {
                let targets: Vec<usize> = self
                    .enhanced_nodes_of_term(term)
                    .iter()
                    .map(|e| e.0)
                    .collect();
                let mut syms: Vec<Sym> = self
                    .enhanced
                    .reach_index()
                    .below_many(&targets)
                    .into_iter()
                    .flat_map(|e| self.node_syms[e].iter().copied())
                    .collect();
                syms.sort_unstable();
                syms.dedup();
                syms.into()
            },
        )))
    }

    /// Number of enhanced nodes.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the enhancement has no nodes.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Validate the Definition-8 conditions against a metric — used by
    /// property tests (Theorem 2) and available to callers who construct
    /// enhancements through other routes.
    pub fn validate<M: toss_similarity::StringMetric>(
        &self,
        metric: &M,
    ) -> Result<(), String> {
        use toss_similarity::node::node_within;
        let h = &self.original;
        let n = h.len();
        // condition 2: members of one enhanced node pairwise within ε
        for (ei, mems) in self.members.iter().enumerate() {
            for &a in mems {
                for &b in mems {
                    if a != b
                        && !node_within(
                            metric,
                            h.terms_of(a).map_err(|e| e.to_string())?,
                            h.terms_of(b).map_err(|e| e.to_string())?,
                            self.epsilon,
                        )
                    {
                        return Err(format!(
                            "condition 2: node {ei} holds dissimilar {a} and {b}"
                        ));
                    }
                }
            }
        }
        // condition 3: similar pairs co-resident somewhere
        for a in 0..n {
            for b in 0..n {
                let (na, nb) = (HNodeId(a), HNodeId(b));
                if node_within(
                    metric,
                    h.terms_of(na).map_err(|e| e.to_string())?,
                    h.terms_of(nb).map_err(|e| e.to_string())?,
                    self.epsilon,
                ) {
                    let shared = self.mu(na).iter().any(|e| self.mu(nb).contains(e));
                    if !shared {
                        return Err(format!(
                            "condition 3: similar {na} and {nb} share no enhanced node"
                        ));
                    }
                }
            }
        }
        // condition 4: no member set subsumed by another
        for (i, mi) in self.members.iter().enumerate() {
            for (j, mj) in self.members.iter().enumerate() {
                if i != j && mi.iter().all(|m| mj.contains(m)) {
                    return Err(format!("condition 4: node {i} ⊆ node {j}"));
                }
            }
        }
        // condition 1, both directions
        for a in 0..n {
            for b in 0..n {
                let (na, nb) = (HNodeId(a), HNodeId(b));
                if h.leq(na, nb) {
                    for &ea in self.mu(na) {
                        for &eb in self.mu(nb) {
                            if !self.enhanced.leq(ea, eb) {
                                return Err(format!(
                                    "condition 1 fwd: {na}≤{nb} but {ea}̸≤{eb}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        for ea in self.enhanced.nodes() {
            for eb in self.enhanced.nodes() {
                if ea != eb && self.enhanced.leq(ea, eb) {
                    for &a in self.members_of(ea) {
                        for &b in self.members_of(eb) {
                            if a != b && !h.leq(a, b) {
                                return Err(format!(
                                    "condition 1 rev: {ea}≤{eb} but {a}̸≤{b}"
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::from_pairs;
    use crate::sea::enhance;
    use toss_similarity::Levenshtein;

    fn example11_seo() -> Seo {
        let h = from_pairs(&[
            ("relation", "concept"),
            ("relational", "concept"),
            ("model", "concept"),
            ("models", "concept"),
        ])
        .unwrap();
        enhance(&h, &Levenshtein, 2.0).unwrap()
    }

    #[test]
    fn validate_passes_for_sea_output() {
        let seo = example11_seo();
        seo.validate(&Levenshtein).unwrap();
    }

    #[test]
    fn unknown_terms_behave_identically() {
        let seo = example11_seo();
        assert!(seo.similar("ghost", "ghost"));
        assert!(!seo.similar("ghost", "relation"));
        assert_eq!(seo.similar_terms("ghost"), vec!["ghost".to_string()]);
        assert_eq!(seo.below_terms("ghost"), vec!["ghost".to_string()]);
        assert!(!seo.leq_terms("ghost", "concept"));
    }

    #[test]
    fn below_terms_expands_through_merged_nodes() {
        let seo = example11_seo();
        let below = seo.below_terms("concept");
        for t in ["relation", "relational", "model", "models", "concept"] {
            assert!(below.contains(&t.to_string()), "missing {t}");
        }
    }

    #[test]
    fn probe_expansion_for_unknown_terms() {
        let seo = example11_seo();
        // "relatio" is not a term; within ε=2 of both relation (1) and
        // relational (3 — too far)
        let got = seo.similar_terms_probe("relatio", &Levenshtein);
        assert!(got.contains(&"relatio".to_string()));
        assert!(got.contains(&"relation".to_string()));
        assert!(!got.contains(&"relational".to_string())); // d = 3 > ε
        // known probes defer to similar_terms
        let known = seo.similar_terms_probe("relation", &Levenshtein);
        assert_eq!(known, seo.similar_terms("relation"));
    }

    /// Levenshtein without its blocking hooks: declares no plan.
    struct Undeclared;
    impl toss_similarity::StringMetric for Undeclared {
        fn distance(&self, a: &str, b: &str) -> f64 {
            Levenshtein.distance(a, b)
        }
        fn name(&self) -> &str {
            "undeclared"
        }
    }

    #[test]
    fn indexed_probe_equals_the_scan_and_an_undeclared_metric_still_scans() {
        use toss_similarity::StringMetric;
        let seo = example11_seo();
        let counter = |name: &str| {
            toss_obs::metrics::snapshot()
                .counter(&format!("toss.semantic.probe.{name}"))
                .unwrap_or(0)
        };
        assert!(Levenshtein.blocking(seo.epsilon()).is_some());
        assert!(Undeclared.blocking(seo.epsilon()).is_none());
        let (indexed, scanned) = (counter("indexed"), counter("scanned"));
        for probe in ["relatio", "modelz", "", "concep", "zzzzzzzzzzzz", "rel ational"] {
            assert_eq!(
                seo.similar_terms_probe(probe, &Levenshtein),
                seo.similar_terms_probe(probe, &Undeclared),
                "probe {probe:?}"
            );
        }
        // counters are process-wide and other tests probe too: lower bounds
        assert!(counter("indexed") >= indexed + 6);
        assert!(counter("scanned") >= scanned + 6);
        assert!(counter("index_builds") >= 1);
    }

    #[test]
    fn probe_index_is_compiled_once_per_plan_and_survives_a_clone() {
        use toss_similarity::{combinators::Scaled, StringMetric};
        let seo = example11_seo();
        seo.similar_terms_probe("relatio", &Levenshtein);
        let first = seo.compiled_probe_index().expect("compiled on first probe");
        seo.similar_terms_probe("modelz", &Levenshtein);
        assert!(Arc::ptr_eq(&first, &seo.compiled_probe_index().unwrap()));
        assert!(Arc::ptr_eq(&first, &seo.clone().compiled_probe_index().unwrap()));
        // a metric declaring another plan compiles its own index
        let halved = Scaled::new(Levenshtein, 2.0);
        assert_ne!(halved.blocking(seo.epsilon()), Levenshtein.blocking(seo.epsilon()));
        assert_eq!(
            seo.similar_terms_probe("relatio", &halved),
            vec!["relatio".to_string(), "relation".to_string()]
        );
        assert!(!Arc::ptr_eq(&first, &seo.compiled_probe_index().unwrap()));
    }

    #[test]
    fn epsilon_is_recorded() {
        assert_eq!(example11_seo().epsilon(), 2.0);
    }

    #[test]
    fn versions_are_unique_per_enhancement() {
        let a = example11_seo();
        let b = example11_seo();
        assert_ne!(a.version(), b.version());
    }

    #[test]
    fn interned_cones_are_memoized_and_match_strings() {
        let seo = example11_seo();
        let c1 = seo.below_terms_interned("concept").unwrap();
        let c2 = seo.below_terms_interned("concept").unwrap();
        assert!(std::sync::Arc::ptr_eq(&c1, &c2), "cone is shared");
        assert_eq!(seo.resolve_all(&c1), seo.below_terms("concept"));
        let s1 = seo.similar_terms_interned("relation").unwrap();
        assert_eq!(seo.resolve_all(&s1), seo.similar_terms("relation"));
        assert!(seo.below_terms_interned("ghost").is_none());
    }

    #[test]
    fn similar_is_reflexive_for_known_terms() {
        let seo = example11_seo();
        for t in seo.original().all_terms() {
            assert!(seo.similar(&t, &t));
        }
    }
}
