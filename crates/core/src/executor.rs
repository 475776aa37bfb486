//! The Query Executor (Section 3, component 3; timed in Section 6).
//!
//! The executor owns the document store (`toss-xmldb`, standing in for
//! Xindice), the precomputed SEO, the type hierarchy and conversions. A
//! selection runs in the paper's three timed phases:
//!
//! 1. **rewrite** — expand the TOSS condition through the SEO and compile
//!    the pattern tree into an XPath syntax tree (built directly; its
//!    text is only shown);
//! 2. **execute** — choose index probe or scan from the postings of the
//!    probe keys the rewrite gives the prepared query
//!    (`rewrite::probe_keys`; nothing is read back out of the XPath),
//!    then evaluate the XPath over the chosen candidates, in order on
//!    the calling thread;
//! 3. **convert** — turn the matched documents back into TAX witness
//!    trees (a local selection pass that also applies any conjuncts the
//!    XPath fragment could not express, so results are exact). Witnesses
//!    are views of the stored documents ([`toss_tree::Views`]),
//!    deduplicated and clamped to the admitted count before any is
//!    copied; a selection materialises what it returns.
//!
//! Projection runs the same three phases with a TAX projection in phase
//! 3. A join retrieves each side by XPath, then combines the two sides'
//! witness views with the signature join — the paper's observation that
//! Xindice returns intermediate results which "our code" then combines.
//! No side forest is built: the join groups, signs and grafts straight
//! from the stored documents. Joins are the executor's only fan-out: the
//! two sides, and the signature join's signature, lookup and emission
//! tasks, run on [`Executor::pool`].
//!
//! Every operator has one entry, governed by a [`QueryGovernor`]; an
//! ungoverned run passes [`QueryGovernor::unlimited`]. The only
//! ungoverned convenience is [`Executor::select`].

use crate::algebra::TossPattern;
use crate::convert::Conversions;
use crate::error::TossResult;
use crate::expand::ExpandCtx;
use crate::governor::{DegradationInfo, QueryGovernor};
use crate::rewrite::{compile_xpath, probe_keys};
use crate::semcache::{fingerprint, CachedRewrite, RewriteCache};
use crate::tax::{Cond, Matcher, PatternTree};
use crate::typesys::TypeHierarchy;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;
use toss_ontology::Seo;
use toss_pool::WorkerPool;
use toss_tree::{Forest, Tree, Views};
use toss_xmldb::{Candidates, Collection, Database, NodeRef, XPath};

/// Which semantics to execute a query under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full TOSS semantics through the SEO.
    Toss,
    /// The paper's TAX baseline: exact match for `~`, `contains` for isa.
    TaxBaseline,
}

/// A TOSS selection query against one collection.
#[derive(Debug, Clone)]
pub struct TossQuery {
    /// Collection to query.
    pub collection: String,
    /// The pattern (structure + TOSS condition).
    pub pattern: TossPattern,
    /// Labels whose images contribute their descendant cones (`SL`).
    pub expand_labels: Vec<u32>,
}

/// A query result with the paper's phase timings.
///
/// The timings are the measured durations of the executor's tracing
/// spans (`toss.query.rewrite` / `.execute` / `.convert`); they are
/// captured whether or not a trace sink is installed.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The witness trees.
    pub forest: Forest,
    /// The XPath the rewriter produced.
    pub xpath: String,
    /// When a count budget tripped, the first trip: which dimension,
    /// how much work was skipped and an estimated recall loss. `None`
    /// means the result is exact (no budget interfered).
    pub degradation: Option<DegradationInfo>,
    /// The retrieval strategy phase 2 chose (`None` for joins, whose
    /// side selections carry their own plans in the trace).
    pub plan: Option<QueryPlan>,
    rewrite_time: Duration,
    execute_time: Duration,
    convert_time: Duration,
}

impl QueryOutcome {
    /// Phase 1: pattern parse + rewrite time.
    pub fn rewrite_time(&self) -> Duration {
        self.rewrite_time
    }

    /// Phase 2: XPath execution time in the store.
    pub fn execute_time(&self) -> Duration {
        self.execute_time
    }

    /// Phase 3: result parse-back / witness construction time.
    pub fn convert_time(&self) -> Duration {
        self.convert_time
    }

    /// Total wall time across the three phases.
    pub fn total_time(&self) -> Duration {
        self.rewrite_time + self.execute_time + self.convert_time
    }
}

/// The retrieval strategy phase 2 chose for a query. Recorded in the
/// `toss.query.execute` span, counted in the `toss.planner.*` metrics
/// and surfaced on [`QueryOutcome::plan`] (the CLI prints it under
/// `--explain`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryPlan {
    /// Batched content-index probe: a rewritten predicate's expanded
    /// terms were resolved through one merged postings lookup, and only
    /// the candidate documents were evaluated (and charged).
    IndexProbe {
        /// The probed child tag.
        tag: String,
        /// Number of probe terms (the exact value plus its expansions).
        terms: usize,
        /// Candidate documents the probe admitted.
        candidates: usize,
    },
    /// Scan over the collection's candidate documents.
    Scan,
    /// Keyed similarity join: identity groups + an inverted index
    /// from signature elements to right-side groups
    /// ([`crate::algebra::similarity_join`]).
    SimilarityJoin {
        /// Always `true`: there is one join. Kept for `benchmark/`,
        /// which destructures it; removed when a \[benchmark\] slice
        /// re-ports the read.
        refined: bool,
        /// Distinct signature groups across both sides.
        groups: usize,
        /// Matched group pairs the index lookup found and the commit
        /// frontier charged.
        candidates: usize,
        /// Worker threads available to the signature, lookup and
        /// emission fan-out.
        workers: usize,
    },
}

impl QueryPlan {
    /// Short strategy name (`index-probe` / `scan` / `simjoin`).
    pub(crate) fn strategy(&self) -> &'static str {
        match self {
            QueryPlan::IndexProbe { .. } => "index-probe",
            QueryPlan::Scan => "scan",
            QueryPlan::SimilarityJoin { .. } => "simjoin",
        }
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryPlan::IndexProbe {
                tag,
                terms,
                candidates,
            } => write!(f, "index-probe tag={tag} terms={terms} candidates={candidates}"),
            QueryPlan::Scan => write!(f, "scan"),
            QueryPlan::SimilarityJoin {
                groups,
                candidates,
                workers,
                ..
            } => write!(
                f,
                "simjoin groups={groups} candidates={candidates} workers={workers}"
            ),
        }
    }
}

/// The per-query planner: choose index-probe vs scan from the postings
/// statistics of the prepared query's probe keys, then enumerate the
/// chosen strategy's candidate visits — once; the same enumeration is
/// admitted and then evaluated. A probe is taken when its postings bound
/// proves the candidate set is at most half the collection — below that
/// the merged-postings lookup plus the filtered evaluation beats touching
/// every document; above it the scan's better locality wins and the
/// probe's merge would be pure overhead.
fn plan_retrieval<'a>(
    prepared: &'a PreparedQuery,
    coll: &'a Collection,
) -> (QueryPlan, Candidates<'a>) {
    let (xpath, index) = (&prepared.xpath, coll.index());
    let probe = {
        let _plan = toss_obs::span("toss.query.execute.plan");
        // `postings` bounds the candidate document count from above, so
        // this cheap statistic rejects unselective probes before any
        // postings list is materialized.
        probe_keys(&prepared.matcher)
            .into_iter()
            .map(|k| (index.tag_content_any_len(&k.tag, &k.terms), k))
            .min_by_key(|(postings, _)| *postings)
            .filter(|(postings, _)| 2 * postings <= coll.documents().len())
    };
    let _probe = toss_obs::span("toss.query.execute.probe");
    match probe {
        Some((_, key)) => {
            let docs = index.docs_with_tag_content_any(&key.tag, &key.terms);
            let plan = QueryPlan::IndexProbe {
                tag: key.tag.into_owned(),
                terms: key.terms.len(),
                candidates: docs.len(),
            };
            (plan, xpath.probe_candidates(coll, &docs))
        }
        None => (QueryPlan::Scan, xpath.scan_candidates(coll)),
    }
}

/// Approximate heap bytes of one witness-tree node (tag + content +
/// child vector bookkeeping) used for the memory budget. A coarse
/// constant is fine: the ceiling is an order-of-magnitude guard, not an
/// allocator ledger.
const APPROX_NODE_BYTES: u64 = 96;

fn approx_tree_bytes(t: &toss_tree::Tree) -> u64 {
    t.node_count() as u64 * APPROX_NODE_BYTES
}

/// Keep at most the governor-admitted number of witness trees.
fn clamp_witnesses(mut forest: Forest, gov: &QueryGovernor) -> TossResult<Forest> {
    let allowed = gov.admit_witnesses(forest.len())?;
    forest.trees_mut().truncate(allowed);
    Ok(forest)
}

/// Number of expansion terms the SEO rewrite introduced into a compiled
/// condition: the sizes of every `InSet` membership set plus the number
/// of renderings admitted by every `SharedClass` map.
pub(crate) fn expansion_terms(cond: &Cond) -> usize {
    match cond {
        Cond::True | Cond::Cmp { .. } => 0,
        Cond::And(a, b) | Cond::Or(a, b) => expansion_terms(a) + expansion_terms(b),
        Cond::Not(c) => expansion_terms(c),
        Cond::InSet { set, .. } => set.len(),
        Cond::SharedClass { classes, .. } => classes.len(),
    }
}

/// Everything phase 1 derives from a query, none of it from a request:
/// the pattern prepared as a TAX [`Matcher`] for phase 3, the XPath
/// compiled from its per-node conjuncts and the text it shows. Phase 2
/// reads its probe keys off the matcher.
/// Built once per rewrite-cache entry (see [`RewriteCache`]) and
/// shared by `Arc`; uncached compiles build one for the request.
#[derive(Debug)]
pub struct PreparedQuery {
    xpath_src: String,
    xpath: XPath,
    matcher: Matcher,
    n_expansion: usize,
}

impl PreparedQuery {
    fn new(compiled: PatternTree) -> TossResult<Self> {
        let n_expansion = expansion_terms(compiled.condition());
        let matcher = Matcher::new(compiled);
        let xpath = compile_xpath(&matcher)?;
        let xpath_src = xpath.to_string();
        Ok(PreparedQuery {
            xpath_src,
            xpath,
            matcher,
            n_expansion,
        })
    }
}

/// What the three phases of a selection or projection produced: phase
/// 3's distinct, governor-clamped views, after `keep` (which
/// materialises them, or keeps them as views for a join).
struct Phases<R> {
    out: R,
    xpath: String,
    degradation: Option<DegradationInfo>,
    plan: QueryPlan,
    rewrite_time: Duration,
    execute_time: Duration,
    convert_time: Duration,
}

impl Phases<Forest> {
    fn outcome(self) -> QueryOutcome {
        QueryOutcome {
            forest: self.out,
            xpath: self.xpath,
            degradation: self.degradation,
            plan: Some(self.plan),
            rewrite_time: self.rewrite_time,
            execute_time: self.execute_time,
            convert_time: self.convert_time,
        }
    }
}

/// The TAX operator phase 3 of a selection or projection applies.
#[derive(Clone, Copy)]
enum Convert<'a> {
    /// σ: witness trees, with the query's expand labels.
    Select,
    /// π: the listed pattern nodes and their hierarchy.
    Project(&'a [crate::tax::ProjectEntry]),
}

/// The TOSS Query Executor.
pub struct Executor {
    /// The document store.
    pub db: Database,
    /// The precomputed similarity enhanced (fused) ontology.
    pub seo: Arc<Seo>,
    /// Type hierarchy for typed-value comparisons.
    pub hierarchy: TypeHierarchy,
    /// Conversion functions.
    pub conversions: Conversions,
    /// Metric for on-the-fly probe expansion of `~` constants that are
    /// not ontology terms (None = known terms only).
    pub probe_metric: Option<Arc<dyn toss_similarity::StringMetric>>,
    /// Optional part-of SEO enabling `part_of` conditions.
    pub part_of_seo: Option<Arc<Seo>>,
    /// Worker pool for joins: the two sides of a join, and the
    /// signature join's signature, lookup and emission (graft) tasks.
    /// Selections and projections never use it. Defaults to the
    /// machine's available parallelism; a one-worker pool runs every
    /// task inline.
    pub pool: WorkerPool,
    /// Bounded cache of SEO-expanded conditions keyed on the normalized
    /// condition, the SEO version stamps, ε, the probe metric and the
    /// expansion-term budget class. Only exact (never truncated)
    /// expansions are stored.
    pub rewrite_cache: RewriteCache,
    /// Write-visibility revision: bumped exactly once per applied write
    /// batch by [`Executor::note_write_batch`]. Readers that captured a
    /// revision can tell whether a batch landed since; admin surfaces
    /// report it as the store's logical version.
    revision: std::sync::atomic::AtomicU64,
}

impl Executor {
    /// Build an executor over a store and a precomputed SEO.
    pub fn new(db: Database, seo: Arc<Seo>) -> Self {
        Executor {
            db,
            seo,
            hierarchy: TypeHierarchy::new(),
            conversions: Conversions::new(),
            probe_metric: None,
            part_of_seo: None,
            pool: WorkerPool::with_available_parallelism(),
            rewrite_cache: RewriteCache::default(),
            revision: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The current write-visibility revision (see
    /// [`Executor::note_write_batch`]).
    pub fn revision(&self) -> u64 {
        self.revision.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Record that one write batch was applied to `db` (and, when the
    /// batch carried ontology ops, install the freshly re-enhanced SEO).
    /// Called with exclusive access — the serving layer holds its write
    /// lock — **once per batch**, so every semantic-layer invalidation
    /// triggers exactly once per applied batch:
    ///
    /// * the revision counter bumps once;
    /// * swapping `seo` changes the SEO version stamp, which keys the
    ///   rewrite cache, so stale expansions can never be served (and
    ///   batches without ontology ops invalidate nothing);
    /// * the new SEO's hierarchies carry their own fresh `ReachIndex`
    ///   (built lazily on first use).
    ///
    /// Returns the new revision.
    pub fn note_write_batch(&mut self, new_seo: Option<Arc<Seo>>) -> u64 {
        if let Some(seo) = new_seo {
            self.seo = seo;
        }
        1 + self
            .revision
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel)
    }

    /// Size the join worker pool to `n` threads (builder style). `1`
    /// runs every join task inline — the two sides of a join one after
    /// the other — with results identical to any other worker count.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.pool = WorkerPool::new(n);
        self
    }

    /// Set the probe metric (builder style). Cached rewrites were
    /// expanded under the previous metric and [`StringMetric::name`] —
    /// the `#m:` part of their keys — is a label, not an identity, so
    /// they are dropped. The SEO's probe index needs no such care: it is
    /// looked up by the blocking plan the metric declares, never by name.
    ///
    /// [`StringMetric::name`]: toss_similarity::StringMetric::name
    pub fn with_probe_metric(
        mut self,
        metric: Arc<dyn toss_similarity::StringMetric>,
    ) -> Self {
        self.probe_metric = Some(metric);
        self.rewrite_cache.clear();
        self
    }

    fn ctx<'a>(&'a self, gov: &'a QueryGovernor) -> ExpandCtx<'a> {
        ExpandCtx {
            seo: &self.seo,
            hierarchy: &self.hierarchy,
            conversions: &self.conversions,
            probe_metric: self.probe_metric.as_deref(),
            part_of: self.part_of_seo.as_deref(),
            governor: Some(gov),
        }
    }

    /// Cache key for the Toss-mode rewrite of `pattern`: the normalized
    /// condition fingerprint, the pattern structure (the prepared form
    /// compiles labels, parents and edge kinds into its XPath and its
    /// matcher) plus every executor-side input the expansion depends on.
    /// SEO version stamps are unique per enhancement, so fusing and
    /// re-enhancing an ontology can never be served a stale expansion.
    fn rewrite_key(&self, pattern: &TossPattern, gov: &QueryGovernor) -> String {
        use std::fmt::Write as _;
        let mut key = fingerprint(&pattern.condition);
        key.push('^');
        let structure = &pattern.structure;
        for node in structure.preorder() {
            let _ = write!(key, "{}", structure.label(node));
            match structure.parent_edge(node) {
                None => key.push(';'),
                Some((parent, crate::tax::EdgeKind::ParentChild)) => {
                    let _ = write!(key, "/{};", parent.0);
                }
                Some((parent, crate::tax::EdgeKind::AncestorDescendant)) => {
                    let _ = write!(key, "//{};", parent.0);
                }
            }
        }
        let _ = write!(
            key,
            "@seo{}~eps{:016x}",
            self.seo.version(),
            self.seo.epsilon().to_bits()
        );
        if let Some(p) = &self.part_of_seo {
            let _ = write!(key, "+po{}", p.version());
        }
        if let Some(m) = &self.probe_metric {
            let _ = write!(key, "#m:{}", m.name());
        }
        match gov.budget().max_expansion_terms {
            Some(max) => {
                let _ = write!(key, "|b:{max}");
            }
            None => key.push_str("|b:unlimited"),
        }
        key
    }

    /// Toss-mode compile through the rewrite cache. A cached expansion
    /// is served only when the governor's remaining expansion-term
    /// headroom admits it in full, and is then charged through
    /// [`QueryGovernor::admit_expansion_terms`] exactly like a cold
    /// rewrite; the first such hit promotes the entry to its prepared
    /// form and later hits share it. Fresh expansions are stored only
    /// when the compile finished without truncation (the stored
    /// entry must be the *exact* expansion, valid for any query of the
    /// same budget class with enough headroom), and stored unprepared:
    /// a query that never comes back costs the cache what it always did.
    fn compile_toss_cached(
        &self,
        pattern: &TossPattern,
        gov: &QueryGovernor,
    ) -> TossResult<Arc<PreparedQuery>> {
        let key = self.rewrite_key(pattern, gov);
        if let Some(hit) = self.rewrite_cache.get(&key) {
            if gov.expansion_headroom() >= hit.terms as u64 {
                gov.admit_expansion_terms(hit.terms)?;
                let prepared = hit.promote(|| {
                    let mut p = pattern.structure.clone();
                    p.set_condition((*hit.cond).clone())?;
                    PreparedQuery::new(p)
                })?;
                self.rewrite_cache.record_hit();
                return Ok(prepared);
            }
        }
        self.rewrite_cache.record_miss();
        let truncations_before = gov.expansion_truncations();
        let compiled = pattern.compile(self.ctx(gov))?;
        if gov.expansion_truncations() == truncations_before {
            self.rewrite_cache.insert(
                key,
                CachedRewrite::new(
                    Arc::new(compiled.condition().clone()),
                    expansion_terms(compiled.condition()),
                ),
            );
        }
        Ok(Arc::new(PreparedQuery::new(compiled)?))
    }

    /// Phase 1 for either mode. Only Toss-mode compiles go through the
    /// cache: the TAX baseline never touches the SEO.
    fn compile(
        &self,
        pattern: &TossPattern,
        mode: Mode,
        gov: &QueryGovernor,
    ) -> TossResult<Arc<PreparedQuery>> {
        match mode {
            Mode::Toss => self.compile_toss_cached(pattern, gov),
            Mode::TaxBaseline => Ok(Arc::new(PreparedQuery::new(pattern.compile_baseline()?)?)),
        }
    }

    /// The matched documents as candidate trees, borrowed from the
    /// collection, charging the approximate-memory budget per tree. A
    /// tripped ceiling stops admitting further documents (graceful
    /// degradation).
    fn load_candidates_governed<'a>(
        &self,
        coll: &'a Collection,
        matches: &[NodeRef],
        gov: &QueryGovernor,
        cv: &toss_obs::SpanGuard,
    ) -> TossResult<Vec<&'a Tree>> {
        // `eval` returns matches sorted by (doc, node): adjacent dedup
        // leaves each document once, in document order
        let mut docs: Vec<_> = matches.iter().map(|m| m.doc).collect();
        docs.dedup();
        cv.record("candidate_docs", docs.len());
        let mut candidate = Vec::with_capacity(docs.len());
        for doc in docs {
            gov.check()?;
            let tree = coll.get(doc)?.tree();
            let fits = gov.charge_memory(approx_tree_bytes(tree));
            candidate.push(tree);
            if !fits {
                cv.record("memory_truncated_at", candidate.len());
                break;
            }
        }
        Ok(candidate)
    }

    /// Execute a selection query without budgets or a deadline:
    /// [`Executor::select_governed`] under [`QueryGovernor::unlimited`].
    pub fn select(&self, query: &TossQuery, mode: Mode) -> TossResult<QueryOutcome> {
        self.select_governed(query, mode, &QueryGovernor::unlimited())
    }

    /// Execute a selection query under a [`QueryGovernor`].
    ///
    /// Count-budget trips degrade the result (fewer expansion terms,
    /// documents, or witnesses than an exact run) and are reported in
    /// [`QueryOutcome::degradation`]; the deadline and cancellation
    /// return typed errors.
    pub fn select_governed(
        &self,
        query: &TossQuery,
        mode: Mode,
        gov: &QueryGovernor,
    ) -> TossResult<QueryOutcome> {
        let phases = self.run_unary(query, Convert::Select, mode, gov, |v| v.materialise())?;
        Ok(phases.outcome())
    }

    /// Execute a projection π_{P, PL} under a [`QueryGovernor`]: XPath
    /// retrieval as in [`Executor::select_governed`], then the local TAX
    /// projection keeps the matched nodes of the projection list (with
    /// subtrees where requested) and their hierarchical relationships.
    pub fn project_governed(
        &self,
        query: &TossQuery,
        list: &[crate::tax::ProjectEntry],
        mode: Mode,
        gov: &QueryGovernor,
    ) -> TossResult<QueryOutcome> {
        let phases = self.run_unary(query, Convert::Project(list), mode, gov, |v| {
            v.materialise()
        })?;
        Ok(phases.outcome())
    }

    /// The one body of selection and projection: the three phases,
    /// phase 3 applying `op` to the candidate documents borrowed from the
    /// collection, clamping its distinct views to the admitted witness
    /// count and handing them to `keep`. The deadline/cancel check at
    /// the top rejects an already-dead query before a single document is
    /// visited.
    fn run_unary<'a, R>(
        &'a self,
        query: &TossQuery,
        op: Convert<'_>,
        mode: Mode,
        gov: &QueryGovernor,
        keep: impl FnOnce(Views<'a>) -> R,
    ) -> TossResult<Phases<R>> {
        let (span_name, counter) = match op {
            Convert::Select => ("toss.query.select", "toss.query.selects"),
            Convert::Project(_) => ("toss.query.project", "toss.query.projects"),
        };
        let span = toss_obs::span(span_name);
        span.record("collection", query.collection.as_str());

        gov.check()?;

        // phase 1: rewrite, expansion terms budgeted
        let rw = toss_obs::span("toss.query.rewrite");
        let prepared = self.compile(&query.pattern, mode, gov)?;
        rw.record("expansion_terms", prepared.n_expansion);
        rw.record("xpath_len", prepared.xpath_src.len());
        let rewrite_time = rw.finish();

        // phase 2: plan, admit the plan's documents in one charge, then
        // evaluate exactly those, polling the governor for a stop
        gov.check()?;
        let ex = toss_obs::span("toss.query.execute");
        let coll = self.db.collection(&query.collection)?;
        let (plan, visits) = plan_retrieval(&prepared, coll);
        ex.record("plan", plan.strategy());
        match &plan {
            QueryPlan::IndexProbe {
                tag,
                terms,
                candidates,
            } => {
                ex.record("probe_tag", tag.as_str());
                ex.record("probe_terms", *terms);
                ex.record("probe_candidates", *candidates);
                toss_obs::metrics::counter("toss.planner.index_probe").inc();
                toss_obs::metrics::counter("toss.planner.probe_candidates")
                    .add(*candidates as u64);
            }
            QueryPlan::Scan => toss_obs::metrics::counter("toss.planner.scan").inc(),
            // retrieval planning never yields a join plan
            QueryPlan::SimilarityJoin { .. } => {}
        }
        let admitted = gov.admit_docs(visits.len())?;
        let matches = {
            let _residual = toss_obs::span("toss.query.execute.residual");
            visits.eval(admitted, &|| gov.interrupted())
        };
        let Some(matches) = matches else {
            // a stop is a cancellation or a passed deadline, both final
            gov.check()?;
            unreachable!("an interrupted scan leaves its governor failing `check`");
        };
        ex.record("matches", matches.len());
        let execute_time = ex.finish();

        // phase 3: the matched documents' distinct witness views, only
        // the admitted ones kept (and, for a select, materialised)
        let cv = toss_obs::span("toss.query.convert");
        let candidate = self.load_candidates_governed(coll, &matches, gov, &cv)?;
        let matcher = &prepared.matcher;
        let mut views = match op {
            Convert::Select => matcher.witnesses(candidate, &query.expand_labels)?,
            Convert::Project(list) => matcher.projections(candidate, list)?,
        };
        views.truncate(gov.admit_witnesses(views.len())?);
        let results = views.len();
        cv.record("witnesses", results);
        let out = keep(views);
        let convert_time = cv.finish();

        let degradation = gov.degradation();
        if let Some(d) = &degradation {
            span.record("degradation", d.to_string());
        }
        span.record("results", results);
        toss_obs::metrics::counter(counter).inc();
        toss_obs::metrics::counter("toss.query.expansion_terms")
            .add(prepared.n_expansion as u64);
        toss_obs::metrics::histogram("toss.query.rewrite_ns").observe_duration(rewrite_time);
        drop(span);

        Ok(Phases {
            out,
            xpath: prepared.xpath_src.clone(),
            degradation,
            plan,
            rewrite_time,
            execute_time,
            convert_time,
        })
    }

    /// Select both sides of a join as two tasks on the pool, each
    /// stopping at its distinct, governor-clamped witness views; a
    /// one-worker pool runs the two inline, left first. Both sides
    /// always run, so output and errors are the same at every worker
    /// count; the left side's error wins.
    fn join_sides(
        &self,
        left: &TossQuery,
        right: &TossQuery,
        mode: Mode,
        gov: &QueryGovernor,
    ) -> TossResult<(Phases<Views<'_>>, Phases<Views<'_>>)> {
        let tasks: Vec<_> = [left, right]
            .into_iter()
            .map(|side| move || self.run_unary(side, Convert::Select, mode, gov, |v| v))
            .collect();
        let mut sides = self.pool.run(tasks);
        let r = sides.pop().expect("two tasks yield two results");
        let l = sides.pop().expect("two tasks yield two results");
        Ok((l?, r?))
    }

    /// Execute a keyed similarity join (the Figure-16(b) shape: tag
    /// conditions select each side, one `~` condition relates one keyed
    /// leaf per side) under a [`QueryGovernor`]. One governor covers
    /// the whole request: both side selections, the join and its output.
    /// Retrieval runs through the store; the join itself is the
    /// signature join over the SEO (the one behind
    /// [`crate::algebra::similarity_join`]), fed the sides' witness views,
    /// which charges the join-cardinality budget with the candidate
    /// pairs it generates. Under [`Mode::TaxBaseline`] keys must match
    /// exactly (the SEO classes are ignored), per the paper's baseline
    /// protocol.
    pub fn join_similarity_governed(
        &self,
        left: &TossQuery,
        right: &TossQuery,
        left_key: &crate::algebra::JoinKey,
        right_key: &crate::algebra::JoinKey,
        mode: Mode,
        gov: &QueryGovernor,
    ) -> TossResult<QueryOutcome> {
        let span = toss_obs::span("toss.query.join_similarity");
        let (l, r) = self.join_sides(left, right, mode, gov)?;
        let combine = toss_obs::span("toss.query.convert");
        let seo = match mode {
            Mode::Toss => self.seo.clone(),
            // exact-match join: an empty SEO leaves only the
            // identical-string signature elements
            Mode::TaxBaseline => Arc::new(toss_ontology::enhance(
                &toss_ontology::Hierarchy::new(),
                &toss_similarity::Levenshtein,
                0.0,
            )?),
        };
        let (joined, jstats) =
            crate::algebra::join_views(&seo, &l.out, &r.out, left_key, right_key, &self.pool, gov)?;
        let plan = QueryPlan::SimilarityJoin {
            refined: true,
            groups: jstats.groups_left + jstats.groups_right,
            candidates: jstats.candidates as usize,
            workers: jstats.workers,
        };
        let forest = clamp_witnesses(joined, gov)?;
        combine.record("witnesses", forest.len());
        let convert_time = l.convert_time + r.convert_time + combine.finish();
        let degradation = gov.degradation();
        if let Some(d) = &degradation {
            span.record("degradation", d.to_string());
        }
        span.record("results", forest.len());
        span.record("plan", plan.strategy());
        drop(span);
        Ok(QueryOutcome {
            forest,
            xpath: format!("{} ⋈~ {}", l.xpath, r.xpath),
            degradation,
            plan: Some(plan),
            rewrite_time: l.rewrite_time + r.rewrite_time,
            execute_time: l.execute_time + r.execute_time,
            convert_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{TossCond, TossTerm};
    use crate::error::TossError;
    use crate::governor::QueryBudget;
    use crate::tax::EdgeKind;
    use toss_ontology::hierarchy::from_pairs;
    use toss_ontology::sea::enhance;
    use toss_similarity::Levenshtein;
    use toss_tree::serialize::{forest_to_xml, Style};
    use toss_xmldb::DatabaseConfig;

    fn setup() -> Executor {
        let mut db = Database::with_config(DatabaseConfig::unlimited());
        let c = db.create_collection("dblp").unwrap();
        c.insert_xml(
            "<inproceedings key=\"p0\"><author>Jeff Ullmann</author>\
             <booktitle>SIGMOD Conference</booktitle><year>1999</year></inproceedings>",
        )
        .unwrap();
        c.insert_xml(
            "<inproceedings key=\"p1\"><author>Jeff Ullman</author>\
             <booktitle>VLDB</booktitle><year>2000</year></inproceedings>",
        )
        .unwrap();
        c.insert_xml(
            "<inproceedings key=\"p2\"><author>E. Codd</author>\
             <booktitle>TODS</booktitle><year>1980</year></inproceedings>",
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

    fn venue_query(target: &str) -> TossQuery {
        TossQuery {
            collection: "dblp".into(),
            pattern: TossPattern::spine(
                &[EdgeKind::ParentChild],
                TossCond::all(vec![
                    TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                    TossCond::eq(TossTerm::tag(2), TossTerm::str("booktitle")),
                    TossCond::below(TossTerm::content(2), TossTerm::ty(target)),
                ]),
            )
            .unwrap(),
            expand_labels: vec![1],
        }
    }

    /// `n` documents with unique authors, a three-way booktitle split
    /// and one `venue` leaf shared by every document (so a venue probe
    /// is never selective). `A1`/`A2` fuse in the SEO (distance 1 at
    /// ε = 1.0), giving similarity queries a two-term batched probe.
    fn setup_wide(n: usize) -> Executor {
        let mut db = Database::with_config(DatabaseConfig::unlimited());
        let c = db.create_collection("wide").unwrap();
        for i in 0..n {
            c.insert_xml(&format!(
                "<inproceedings key=\"w{i}\"><author>A{i}</author>\
                 <booktitle>B{}</booktitle><venue>V</venue></inproceedings>",
                i % 3
            ))
            .unwrap();
        }
        let h = from_pairs(&[("A1", "author"), ("A2", "author")]).unwrap();
        let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
        Executor::new(db, seo)
    }

    fn wide_query(tag: &str, value: &str, op_similar: bool) -> TossQuery {
        let value_cond = if op_similar {
            TossCond::similar(TossTerm::content(2), TossTerm::str(value))
        } else {
            TossCond::eq(TossTerm::content(2), TossTerm::str(value))
        };
        TossQuery {
            collection: "wide".into(),
            pattern: TossPattern::spine(
                &[EdgeKind::ParentChild],
                TossCond::all(vec![
                    TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                    TossCond::eq(TossTerm::tag(2), TossTerm::str(tag)),
                    value_cond,
                ]),
            )
            .unwrap(),
            expand_labels: vec![1],
        }
    }

    #[test]
    fn planner_chooses_index_probe_for_selective_predicates() {
        let ex = setup_wide(20);
        let out = ex.select(&wide_query("author", "A7", false), Mode::Toss).unwrap();
        assert_eq!(out.forest.len(), 1);
        match out.plan.as_ref().expect("selects always carry a plan") {
            QueryPlan::IndexProbe {
                tag,
                terms,
                candidates,
                ..
            } => {
                assert_eq!(tag, "author");
                assert_eq!(*terms, 1);
                assert_eq!(*candidates, 1);
            }
            other => panic!("expected an index probe, got {other}"),
        }

        // the SEO-expanded similarity query probes both fused spellings
        let out = ex.select(&wide_query("author", "A1", true), Mode::Toss).unwrap();
        assert_eq!(out.forest.len(), 2, "A1 and A2 fuse in the SEO");
        match out.plan.as_ref().unwrap() {
            QueryPlan::IndexProbe {
                terms, candidates, ..
            } => {
                assert_eq!(*terms, 2);
                assert_eq!(*candidates, 2);
            }
            other => panic!("expected a batched index probe, got {other}"),
        }
    }

    #[test]
    fn planner_falls_back_to_scan_for_unselective_predicates() {
        let ex = setup_wide(20);
        // every document carries <venue>V</venue>: the postings statistic
        // proves the probe would admit the whole collection
        let out = ex.select(&wide_query("venue", "V", false), Mode::Toss).unwrap();
        assert_eq!(out.forest.len(), 20);
        assert!(
            matches!(out.plan, Some(QueryPlan::Scan)),
            "unselective probe must fall back to a scan: {:?}",
            out.plan
        );
    }

    #[test]
    fn index_probe_is_never_taken_under_negation() {
        let ex = setup_wide(20);
        // not(author='A7') compiles under Not: no probe key may be
        // extracted from it (the complement is the unselective side)
        let q = TossQuery {
            collection: "wide".into(),
            pattern: TossPattern::spine(
                &[EdgeKind::ParentChild],
                TossCond::all(vec![
                    TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                    TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                    TossCond::not(TossCond::eq(
                        TossTerm::content(2),
                        TossTerm::str("A7"),
                    )),
                ]),
            )
            .unwrap(),
            expand_labels: vec![1],
        };
        let out = ex.select(&q, Mode::Toss).unwrap();
        assert_eq!(out.forest.len(), 19);
        assert!(
            matches!(out.plan, Some(QueryPlan::Scan)),
            "negated predicates must not drive a probe: {:?}",
            out.plan
        );
    }

    #[test]
    fn index_probe_charges_docs_scanned_like_a_scan() {
        // the probe admits 2 candidate documents; both must be charged
        let ex = setup_wide(20);
        let q = wide_query("author", "A1", true);
        let gov = QueryGovernor::unlimited();
        let out = ex.select_governed(&q, Mode::Toss, &gov).unwrap();
        assert!(matches!(out.plan, Some(QueryPlan::IndexProbe { .. })));
        assert_eq!(
            gov.docs_scanned(),
            2,
            "index-served documents must be charged against the scan budget"
        );

        // and the scan budget really does bind the probe path
        let gov = QueryGovernor::new(QueryBudget::unlimited().with_max_docs_scanned(1));
        let out = ex.select_governed(&q, Mode::Toss, &gov).unwrap();
        assert_eq!(out.forest.len(), 1, "soft cap must truncate the probe");
        assert!(out.degradation.is_some());
        assert_eq!(gov.docs_scanned(), 1);
    }

    #[test]
    fn toss_similarity_select_beats_baseline() {
        let ex = setup();
        let toss = ex.select(&author_query("Jeff Ullmann"), Mode::Toss).unwrap();
        assert_eq!(toss.forest.len(), 2); // both Ullmann spellings
        let tax = ex
            .select(&author_query("Jeff Ullmann"), Mode::TaxBaseline)
            .unwrap();
        assert_eq!(tax.forest.len(), 1);
    }

    #[test]
    fn isa_select_through_store() {
        let ex = setup();
        let conf = ex.select(&venue_query("conference"), Mode::Toss).unwrap();
        assert_eq!(conf.forest.len(), 2);
        let venue = ex.select(&venue_query("venue"), Mode::Toss).unwrap();
        assert_eq!(venue.forest.len(), 3);
        // baseline: contains("conference") matches only the SIGMOD record
        let base = ex
            .select(&venue_query("conference"), Mode::TaxBaseline)
            .unwrap();
        assert_eq!(base.forest.len(), 0); // "SIGMOD Conference" ≠ contains "conference" (case)
    }

    #[test]
    fn phases_are_timed_and_xpath_recorded() {
        let ex = setup();
        let out = ex.select(&venue_query("conference"), Mode::Toss).unwrap();
        assert!(out.xpath.starts_with("//inproceedings[booktitle["));
        assert!(out.total_time() >= out.execute_time());
    }

    #[test]
    fn executor_matches_in_memory_path() {
        let ex = setup();
        let q = author_query("Jeff Ullmann");
        let via_store = ex.select(&q, Mode::Toss).unwrap().forest;
        // the paper's σ over the same documents as a forest
        let coll = ex.db.collection("dblp").unwrap();
        let forest: Forest = coll.documents().iter().map(|d| d.tree().clone()).collect();
        let in_mem = crate::algebra::toss_select(
            &crate::oes::SeoInstance::new(forest, ex.seo.clone()),
            &q.pattern,
            &q.expand_labels,
            &ex.hierarchy,
            &ex.conversions,
        )
        .unwrap()
        .forest;
        assert_eq!(via_store.len(), in_mem.len());
        for t in &via_store {
            assert!(in_mem.contains_tree(t));
        }
    }

    #[test]
    fn join_with_similarity_on_authors() {
        let mut ex = setup();
        // second collection with one author variant
        {
            let c = ex.db.create_collection("sigmod").unwrap();
            c.insert_xml(
                "<article><author>Jeff Ullman</author>\
                 <conference>ACM SIGMOD</conference></article>",
            )
            .unwrap();
        }
        let left = TossQuery {
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
        };
        let right = TossQuery {
            collection: "sigmod".into(),
            pattern: TossPattern::spine(
                &[EdgeKind::ParentChild],
                TossCond::all(vec![
                    TossCond::eq(TossTerm::tag(1), TossTerm::str("article")),
                    TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                ]),
            )
            .unwrap(),
            expand_labels: vec![1],
        };
        let key = crate::algebra::JoinKey::child("author");
        let unlimited = QueryGovernor::unlimited();
        let toss = ex
            .join_similarity_governed(&left, &right, &key, &key, Mode::Toss, &unlimited)
            .unwrap();
        // both dblp Ullmann papers join the single sigmod record
        assert!(toss.forest.len() >= 2, "got {}", toss.forest.len());
        let tax = ex
            .join_similarity_governed(&left, &right, &key, &key, Mode::TaxBaseline, &unlimited)
            .unwrap();
        assert!(tax.forest.len() < toss.forest.len());
    }

    #[test]
    fn missing_collection_errors() {
        let ex = setup();
        let mut q = venue_query("venue");
        q.collection = "nope".into();
        assert!(matches!(
            ex.select(&q, Mode::Toss),
            Err(TossError::Db(_))
        ));
    }

    /// The text a query shows is the rendering of the XPath it ran.
    #[test]
    fn shown_xpath_parses_to_the_executed_tree() {
        let ex = setup();
        let gov = QueryGovernor::unlimited();
        for q in [author_query("Jeff Ullmann"), venue_query("conference")] {
            for mode in [Mode::Toss, Mode::TaxBaseline] {
                let prepared = ex.compile(&q.pattern, mode, &gov).unwrap();
                let shown = ex.select(&q, mode).unwrap().xpath;
                assert_eq!(shown, prepared.xpath_src);
                assert_eq!(XPath::parse(&shown).unwrap(), prepared.xpath);
            }
        }
    }

    /// A `below` cone holding a value with both quote kinds answers as
    /// the in-memory σ does: the set gives the XPath no predicate rather
    /// than one that drops that member's documents.
    #[test]
    fn a_set_member_with_both_quotes_keeps_its_answers() {
        let mut db = Database::with_config(DatabaseConfig::unlimited());
        let c = db.create_collection("q").unwrap();
        for v in ["alpha", "x'y\"z", "omega"] {
            c.insert_xml(&format!("<r><b>{v}</b></r>")).unwrap();
        }
        let h = from_pairs(&[("alpha", "Thing"), ("x'y\"z", "Thing")]).unwrap();
        let ex = Executor::new(db, Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap()));
        let q = TossQuery {
            collection: "q".into(),
            pattern: TossPattern::spine(
                &[EdgeKind::ParentChild],
                TossCond::all(vec![
                    TossCond::eq(TossTerm::tag(1), TossTerm::str("r")),
                    TossCond::eq(TossTerm::tag(2), TossTerm::str("b")),
                    TossCond::below(TossTerm::content(2), TossTerm::ty("Thing")),
                ]),
            )
            .unwrap(),
            expand_labels: vec![1],
        };
        let via_store = ex.select(&q, Mode::Toss).unwrap().forest;
        let coll = ex.db.collection("q").unwrap();
        let forest: Forest = coll.documents().iter().map(|d| d.tree().clone()).collect();
        let in_mem = crate::algebra::toss_select(
            &crate::oes::SeoInstance::new(forest, ex.seo.clone()),
            &q.pattern,
            &q.expand_labels,
            &ex.hierarchy,
            &ex.conversions,
        )
        .unwrap()
        .forest;
        assert_eq!(in_mem.len(), 2);
        assert_eq!(via_store.len(), in_mem.len());
        for t in &via_store {
            assert!(in_mem.contains_tree(t));
        }
    }

    /// A pattern whose XPath would nest past the parser's depth limit is
    /// refused with the parser's error before anything walks the tree.
    #[test]
    fn a_too_deep_pattern_gets_the_depth_error() {
        let ex = setup();
        let mut structure = PatternTree::new(1);
        let mut node = structure.root();
        for label in 2..=200 {
            node = structure
                .add_child(node, label, EdgeKind::ParentChild)
                .unwrap();
        }
        let q = TossQuery {
            collection: "dblp".into(),
            pattern: TossPattern {
                structure,
                condition: TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
            },
            expand_labels: vec![],
        };
        match ex.select(&q, Mode::Toss) {
            Err(TossError::Db(toss_xmldb::DbError::XPathSyntax(m))) => {
                assert!(m.contains("depth limit of 128"), "{m}")
            }
            other => panic!("expected the depth-limit error, got {other:?}"),
        }
    }

    #[test]
    fn projection_through_executor() {
        // authors of conference papers — Example 5's shape with an isa
        // condition
        let ex = setup();
        let q = TossQuery {
            collection: "dblp".into(),
            pattern: TossPattern::spine(
                &[EdgeKind::ParentChild, EdgeKind::ParentChild],
                TossCond::all(vec![
                    TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                    TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                    TossCond::eq(TossTerm::tag(3), TossTerm::str("booktitle")),
                    TossCond::below(TossTerm::content(3), TossTerm::ty("conference")),
                ]),
            )
            .unwrap(),
            expand_labels: vec![],
        };
        let list = [crate::tax::ProjectEntry::subtree(2)];
        let out = ex
            .project_governed(&q, &list, Mode::Toss, &QueryGovernor::unlimited())
            .unwrap();
        let authors: Vec<String> = out
            .forest
            .iter()
            .map(|t| t.data(t.root().unwrap()).unwrap().content_str())
            .collect();
        assert_eq!(authors.len(), 2); // the two Ullmann conference papers
        assert!(authors.iter().all(|a| a.contains("Ullman")));
    }

    #[test]
    fn part_of_condition_through_executor() {
        // Example 12's shape: a wildcard node whose *tag* is part of
        // inproceedings and whose content mentions Microsoft
        let mut ex = setup();
        {
            let c = ex.db.collection_mut("dblp").unwrap();
            c.insert_xml(
                "<inproceedings key=\"p3\"><author>Surajit Chaudhuri</author>\
                 <title>Index Tool for Microsoft SQL Server</title>\
                 <booktitle>SIGMOD Conference</booktitle></inproceedings>",
            )
            .unwrap();
        }
        let part_of = from_pairs(&[
            ("author", "inproceedings"),
            ("title", "inproceedings"),
            ("booktitle", "inproceedings"),
            ("year", "inproceedings"),
        ])
        .unwrap();
        ex.part_of_seo = Some(Arc::new(enhance(&part_of, &Levenshtein, 0.0).unwrap()));
        let q = TossQuery {
            collection: "dblp".into(),
            pattern: TossPattern::spine(
                &[EdgeKind::AncestorDescendant],
                TossCond::all(vec![
                    TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                    TossCond::cmp(
                        TossTerm::tag(2),
                        crate::TossOp::PartOf,
                        TossTerm::ty("inproceedings"),
                    ),
                    TossCond::cmp(
                        TossTerm::content(2),
                        crate::TossOp::Contains,
                        TossTerm::str("Microsoft"),
                    ),
                ]),
            )
            .unwrap(),
            expand_labels: vec![1],
        };
        let out = ex.select(&q, Mode::Toss).unwrap();
        assert_eq!(out.forest.len(), 1);
        // without the part-of SEO the condition is unsupported
        let bare = setup();
        assert!(matches!(
            bare.select(&q, Mode::Toss),
            Err(TossError::Unsupported(_))
        ));
    }

    #[test]
    fn rewrite_cache_serves_repeated_queries_identically() {
        let ex = setup();
        let q = author_query("Jeff Ullman");
        let cold = ex.select(&q, Mode::Toss).unwrap();
        assert_eq!((ex.rewrite_cache.hits(), ex.rewrite_cache.misses()), (0, 1));
        let warm = ex.select(&q, Mode::Toss).unwrap();
        assert_eq!((ex.rewrite_cache.hits(), ex.rewrite_cache.misses()), (1, 1));
        assert_eq!(
            forest_to_xml(&cold.forest, Style::Compact),
            forest_to_xml(&warm.forest, Style::Compact),
            "a cache hit must produce byte-identical results"
        );
        assert_eq!(cold.xpath, warm.xpath);
        // a commuted condition normalizes onto the same entry
        let mut commuted = q.clone();
        let TossCond::And(a, b) = q.pattern.condition.clone() else {
            panic!("spine conditions are And chains");
        };
        commuted.pattern.condition = TossCond::And(b, a);
        let swapped = ex.select(&commuted, Mode::Toss).unwrap();
        assert_eq!(ex.rewrite_cache.hits(), 2);
        assert_eq!(
            forest_to_xml(&cold.forest, Style::Compact),
            forest_to_xml(&swapped.forest, Style::Compact),
        );
        // a different probe is a different key
        ex.select(&author_query("E. Codd"), Mode::Toss).unwrap();
        assert_eq!(ex.rewrite_cache.misses(), 2);
    }

    /// `(xpath, plan, forest, terms charged, docs charged)` of one select.
    fn observed(
        ex: &Executor,
        q: &TossQuery,
        budget: &QueryBudget,
    ) -> (String, Option<QueryPlan>, String, u64, u64) {
        let gov = QueryGovernor::new(budget.clone());
        let out = ex.select_governed(q, Mode::Toss, &gov).unwrap();
        assert!(out.degradation.is_none());
        (
            out.xpath,
            out.plan,
            forest_to_xml(&out.forest, Style::Compact),
            gov.terms_used(),
            gov.docs_scanned(),
        )
    }

    /// Whether a hit has promoted the query's cache entry: promoting an
    /// unpromoted entry runs `prepare`, which here fails and stores nothing.
    fn entry_is_promoted(ex: &Executor, q: &TossQuery, budget: &QueryBudget) -> bool {
        let gov = QueryGovernor::new(budget.clone());
        let key = ex.rewrite_key(&q.pattern, &gov);
        ex.rewrite_cache
            .get(&key)
            .expect("an exact rewrite is cached")
            .promote(|| Err(TossError::Internal("not promoted".into())))
            .is_ok()
    }

    #[test]
    fn miss_promotion_and_shared_hit_are_indistinguishable() {
        let budgets = [
            QueryBudget::unlimited(),
            QueryBudget::unlimited().with_max_expansion_terms(100),
        ];
        for budget in &budgets {
            let ex = setup_wide(40);
            for q in [
                wide_query("author", "A1", true), // probe-planned, SEO-expanded
                wide_query("venue", "V", false),  // scan-planned
            ] {
                let miss = observed(&ex, &q, budget);
                assert!(
                    !entry_is_promoted(&ex, &q, budget),
                    "an entry that never hit holds no prepared form"
                );
                let promoting = observed(&ex, &q, budget);
                assert!(entry_is_promoted(&ex, &q, budget));
                let shared = observed(&ex, &q, budget);
                assert_eq!(miss, promoting, "{budget:?}");
                assert_eq!(miss, shared, "{budget:?}");
            }
            assert_eq!(
                (ex.rewrite_cache.hits(), ex.rewrite_cache.misses()),
                (4, 2)
            );
        }
    }

    #[test]
    fn promotion_is_shared_not_repeated() {
        let ex = setup();
        let q = author_query("Jeff Ullman");
        let gov = QueryGovernor::unlimited();
        ex.select(&q, Mode::Toss).unwrap();
        let first = ex.compile(&q.pattern, Mode::Toss, &gov).unwrap();
        let second = ex.compile(&q.pattern, Mode::Toss, &gov).unwrap();
        assert!(
            Arc::ptr_eq(&first, &second),
            "every hit after the promoting one shares its prepared query"
        );
    }

    #[test]
    fn pattern_structure_is_part_of_the_cache_key() {
        let mut db = Database::with_config(DatabaseConfig::unlimited());
        let c = db.create_collection("nested").unwrap();
        c.insert_xml("<paper><author>Ann</author></paper>").unwrap();
        c.insert_xml("<paper><credits><author>Ann</author></credits></paper>")
            .unwrap();
        let seo = Arc::new(enhance(&from_pairs(&[("Ann", "author")]).unwrap(), &Levenshtein, 0.0).unwrap());
        let ex = Executor::new(db, seo);
        let query = |edge| TossQuery {
            collection: "nested".into(),
            pattern: TossPattern::spine(
                &[edge],
                TossCond::all(vec![
                    TossCond::eq(TossTerm::tag(1), TossTerm::str("paper")),
                    TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                    TossCond::similar(TossTerm::content(2), TossTerm::str("Ann")),
                ]),
            )
            .unwrap(),
            expand_labels: vec![1],
        };
        let (pc, ad) = (
            query(EdgeKind::ParentChild),
            query(EdgeKind::AncestorDescendant),
        );
        // same condition, different structure: interleaved and repeated so
        // each runs once cold, once promoting and once on the shared form
        for round in 0..3 {
            let child = ex.select(&pc, Mode::Toss).unwrap();
            let descendant = ex.select(&ad, Mode::Toss).unwrap();
            assert_eq!(child.forest.len(), 1, "round {round}");
            assert_eq!(descendant.forest.len(), 2, "round {round}");
            assert!(child.xpath.contains("[author["), "{}", child.xpath);
            assert!(descendant.xpath.contains("[.//author["), "{}", descendant.xpath);
        }
        assert_eq!(ex.rewrite_cache.len(), 2);
        assert_eq!((ex.rewrite_cache.hits(), ex.rewrite_cache.misses()), (4, 2));
    }

    #[test]
    fn commuted_conditions_share_one_promoted_entry() {
        let ex = setup();
        let q = author_query("Jeff Ullman");
        let TossCond::And(a, b) = q.pattern.condition.clone() else {
            panic!("spine conditions are And chains");
        };
        let mut commuted = q.clone();
        commuted.pattern.condition = TossCond::And(b, a);
        let gov = QueryGovernor::unlimited();
        ex.select(&q, Mode::Toss).unwrap();
        let via_commuted = ex.compile(&commuted.pattern, Mode::Toss, &gov).unwrap();
        let via_original = ex.compile(&q.pattern, Mode::Toss, &gov).unwrap();
        assert!(Arc::ptr_eq(&via_commuted, &via_original));
        assert_eq!(ex.rewrite_cache.len(), 1);
    }

    #[test]
    fn an_seo_swap_leaves_promoted_entries_unreachable() {
        let mut ex = setup();
        let q = venue_query("conference");
        for _ in 0..3 {
            assert_eq!(ex.select(&q, Mode::Toss).unwrap().forest.len(), 2);
        }
        assert_eq!((ex.rewrite_cache.hits(), ex.rewrite_cache.misses()), (2, 1));
        // the new ontology files TODS under conference: a stale prepared
        // query (old XPath, old matcher) would still answer 2
        let h = from_pairs(&[
            ("SIGMOD Conference", "conference"),
            ("VLDB", "conference"),
            ("TODS", "conference"),
        ])
        .unwrap();
        ex.note_write_batch(Some(Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap())));
        let out = ex.select(&q, Mode::Toss).unwrap();
        assert_eq!(out.forest.len(), 3);
        assert!(out.xpath.contains("TODS"));
        assert_eq!((ex.rewrite_cache.hits(), ex.rewrite_cache.misses()), (2, 2));
    }

    #[test]
    fn clamped_forests_are_prefixes_of_the_unclamped_ones() {
        let ex = setup_wide(12);
        let q = wide_query("venue", "V", false);
        let full = ex.select(&q, Mode::Toss).unwrap().forest;
        assert_eq!(full.len(), 12);
        let prefix = |f: &Forest, n: usize| -> Vec<String> {
            f.iter().take(n).map(toss_tree::eq::fingerprint).collect()
        };
        for cap in [0usize, 1, 5, 12, 40] {
            let gov = QueryGovernor::new(QueryBudget::unlimited().with_max_witnesses(cap as u64));
            let clamped = clamp_witnesses(full.clone(), &gov).unwrap();
            assert_eq!(clamped.len(), cap.min(12));
            assert_eq!(prefix(&clamped, usize::MAX), prefix(&full, cap));
        }
    }

    #[test]
    fn swapping_the_probe_metric_yields_fresh_expansions() {
        use toss_similarity::{BlockPlan, NameRules, StringMetric};
        /// Two rule sets that differ only in their costs, behind one name:
        /// neither the `#m:` key component nor the blocking plan (the
        /// surname key, for both, at ε = 1) tells them apart.
        struct Anonymous(NameRules);
        impl StringMetric for Anonymous {
            fn distance(&self, a: &str, b: &str) -> f64 {
                self.0.distance(a, b)
            }
            fn name(&self) -> &str {
                "anonymous"
            }
            fn blocking(&self, epsilon: f64) -> Option<BlockPlan> {
                self.0.blocking(epsilon)
            }
        }
        let initials_within = NameRules::with_costs(0.5, 1.0, 1000.0);
        let initials_beyond = NameRules::with_costs(3.0, 2.0, 1000.0);
        assert_ne!(initials_within.name(), initials_beyond.name());
        assert_eq!(initials_within.blocking(1.0), initials_beyond.blocking(1.0));

        let q = author_query("J. Ullman"); // not an ontology term
        let ex = setup().with_probe_metric(Arc::new(Anonymous(initials_within)));
        let out = ex.select(&q, Mode::Toss).unwrap();
        assert_eq!(out.forest.len(), 1, "initials rule at 0.5 ≤ ε reaches Jeff Ullman");
        assert!(out.xpath.contains("Jeff Ullman"));
        assert_eq!(ex.rewrite_cache.len(), 1);

        let ex = ex.with_probe_metric(Arc::new(Anonymous(initials_beyond)));
        assert_eq!(ex.rewrite_cache.len(), 0, "rewrites under the old metric are dropped");
        let out = ex.select(&q, Mode::Toss).unwrap();
        assert_eq!(out.forest.len(), 0, "initials rule at 3 > ε reaches nobody");
        assert!(!out.xpath.contains("Jeff Ullman"));
        assert_eq!((ex.rewrite_cache.hits(), ex.rewrite_cache.misses()), (0, 2));
    }

    #[test]
    fn truncated_expansions_are_never_cached() {
        let ex = setup();
        let q = venue_query("venue"); // expands to 6 below-cone terms
        let budget = || QueryBudget::unlimited().with_max_expansion_terms(2);
        for expected_misses in 1..=2 {
            let gov = QueryGovernor::new(budget());
            let out = ex.select_governed(&q, Mode::Toss, &gov).unwrap();
            assert!(out.degradation.is_some(), "soft(2) must truncate");
            assert_eq!(ex.rewrite_cache.hits(), 0, "truncated rewrites never hit");
            assert_eq!(ex.rewrite_cache.misses(), expected_misses);
        }
        assert_eq!(
            ex.rewrite_cache.len(),
            0,
            "an inexact expansion must not be stored"
        );
    }

    #[test]
    fn cache_hit_is_charged_and_respects_headroom() {
        let ex = setup();
        let q = venue_query("conference"); // expands to 3 below-cone terms
        let gov = QueryGovernor::new(QueryBudget::unlimited().with_max_expansion_terms(4));
        // cold: exact (3 ≤ 4), so the expansion is cached and charged
        ex.select_governed(&q, Mode::Toss, &gov).unwrap();
        assert_eq!(ex.rewrite_cache.misses(), 1);
        assert_eq!(gov.terms_used(), 3);
        // warm, same governor: headroom is 1 < 3, so the entry is
        // unservable — the query degrades through the cold path instead
        // of over-charging the budget
        let out = ex.select_governed(&q, Mode::Toss, &gov).unwrap();
        assert_eq!(ex.rewrite_cache.hits(), 0);
        assert_eq!(ex.rewrite_cache.misses(), 2);
        assert!(out.degradation.is_some());
        // a fresh governor of the same budget class has full headroom:
        // the hit is served and charged exactly like the cold rewrite
        let gov2 = QueryGovernor::new(QueryBudget::unlimited().with_max_expansion_terms(4));
        let warm = ex.select_governed(&q, Mode::Toss, &gov2).unwrap();
        assert_eq!(ex.rewrite_cache.hits(), 1);
        assert_eq!(gov2.terms_used(), 3);
        assert!(warm.degradation.is_none());
        assert_eq!(warm.forest.len(), 2, "SIGMOD + VLDB papers");
    }

    #[test]
    fn cache_keys_separate_modes_and_budget_classes() {
        let ex = setup();
        let q = author_query("Jeff Ullman");
        // the TAX baseline never touches the SEO or the cache
        ex.select(&q, Mode::TaxBaseline).unwrap();
        assert_eq!((ex.rewrite_cache.hits(), ex.rewrite_cache.misses()), (0, 0));
        // unlimited and budgeted compiles of the same condition are
        // distinct entries: a budget-class change can change the rewrite
        ex.select(&q, Mode::Toss).unwrap();
        let gov = QueryGovernor::new(QueryBudget::unlimited().with_max_expansion_terms(100));
        ex.select_governed(&q, Mode::Toss, &gov).unwrap();
        assert_eq!((ex.rewrite_cache.hits(), ex.rewrite_cache.misses()), (0, 2));
        assert_eq!(ex.rewrite_cache.len(), 2);
    }
}
