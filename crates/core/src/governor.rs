//! Query resource governance: budgets, deadlines, cancellation,
//! admission control and panic isolation.
//!
//! TOSS trades exact-match recall for quality by expanding conditions
//! through the SEO, but that expansion can blow up combinatorially and
//! a join on one hot similarity class pairs every tree with every other.
//! This module bounds
//! query *execution* so one adversarial or unlucky query cannot pin a
//! core, exhaust memory, or take a serving loop down:
//!
//! * [`QueryBudget`] — a declarative resource envelope: wall-clock
//!   deadline, SEO expansion terms, documents scanned, join candidate
//!   pairs, witness trees, approximate memory. Every count budget
//!   degrades: the query returns what was found so far, annotated with
//!   a [`DegradationInfo`]. The deadline is the one breach: it cancels
//!   with [`TossError::BudgetExceeded`].
//! * [`CancelToken`] — a shared flag checked cooperatively in every
//!   long-running loop; tripping it yields [`TossError::Cancelled`].
//! * [`QueryGovernor`] — one per query: owns the budget, the token and
//!   the start instant, tallies work done, and records the first
//!   degradation. Every counted dimension is charged through one
//!   admission rule (admit what fits, truncate the rest and record it):
//!   the expansion context admits terms, the executor admits a scan's
//!   documents in one bulk charge before the store evaluates any, then
//!   witnesses and join candidates. The store's scan only polls
//!   `QueryGovernor::interrupted`, which charges nothing.
//! * [`AdmissionController`] — bounded concurrent query slots with a
//!   wait-queue timeout; when the queue wait expires the query is shed
//!   with [`TossError::Overloaded`] instead of queueing unboundedly.
//! * `isolate` — `catch_unwind` around query execution (inside
//!   [`AdmissionController::run_with_wait`]) converting panics into
//!   [`TossError::Internal`] so a poisoned query cannot unwind through a
//!   serving loop.
//!
//! Every degradation, deadline, shed, cancel and panic is counted in the
//! `toss.governor.*` metric family (see `docs/robustness.md`).

use crate::error::{TossError, TossResult};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which count budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// SEO expansion terms introduced during rewrite.
    ExpansionTerms,
    /// Documents visited by the store scan.
    DocsScanned,
    /// Candidate pairs the similarity join generates.
    JoinCardinality,
    /// Witness trees in the result.
    Witnesses,
    /// Approximate bytes of intermediate results held in memory.
    Memory,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BudgetKind::ExpansionTerms => "expansion-terms",
            BudgetKind::DocsScanned => "docs-scanned",
            BudgetKind::JoinCardinality => "join-cardinality",
            BudgetKind::Witnesses => "witnesses",
            BudgetKind::Memory => "memory",
        };
        write!(f, "{s}")
    }
}

/// The per-query resource envelope. `None` means unlimited. Exceeding a
/// count cap degrades the query (see [`DegradationInfo`]); only the
/// deadline fails it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryBudget {
    /// Wall-clock deadline measured from [`QueryGovernor`] creation.
    /// Passing it fails the query with [`TossError::BudgetExceeded`].
    pub deadline: Option<Duration>,
    /// Cap on SEO expansion terms introduced during rewrite.
    pub max_expansion_terms: Option<u64>,
    /// Cap on documents visited by the store scan.
    pub max_docs_scanned: Option<u64>,
    /// Cap on the candidate pairs the similarity join generates,
    /// charged at its commit frontier.
    pub max_join_cardinality: Option<u64>,
    /// Cap on witness trees returned.
    pub max_witnesses: Option<u64>,
    /// Approximate ceiling on bytes of intermediate results.
    pub max_memory_bytes: Option<u64>,
}

impl QueryBudget {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Set the wall-clock deadline (builder style).
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the expansion-term cap (builder style).
    pub fn with_max_expansion_terms(mut self, max: u64) -> Self {
        self.max_expansion_terms = Some(max);
        self
    }

    /// Set the document-scan cap (builder style).
    pub fn with_max_docs_scanned(mut self, max: u64) -> Self {
        self.max_docs_scanned = Some(max);
        self
    }

    /// Set the join-cardinality cap (builder style).
    pub fn with_max_join_cardinality(mut self, max: u64) -> Self {
        self.max_join_cardinality = Some(max);
        self
    }

    /// Set the witness-count cap (builder style).
    pub fn with_max_witnesses(mut self, max: u64) -> Self {
        self.max_witnesses = Some(max);
        self
    }

    /// Set the approximate memory ceiling (builder style).
    pub fn with_max_memory_bytes(mut self, max: u64) -> Self {
        self.max_memory_bytes = Some(max);
        self
    }
}

/// A shared cooperative-cancellation flag. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to all clones.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub(crate) fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why and how much a query result was degraded: which count budget
/// tripped first, how much work was admitted versus demanded, and a
/// crude recall-loss estimate (the fraction of demanded work skipped —
/// an upper bound on the fraction of true answers that can be missing).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationInfo {
    /// The budget dimension that tripped.
    pub tripped: BudgetKind,
    /// The configured limit.
    pub limit: u64,
    /// The units of work the query demanded.
    pub demanded: u64,
    /// The units of work actually performed.
    pub work_done: u64,
    /// `1 − work_done / demanded`, clamped to `[0, 1]`.
    pub estimated_recall_loss: f64,
}

impl DegradationInfo {
    fn new(tripped: BudgetKind, limit: u64, demanded: u64, work_done: u64) -> Self {
        let loss = if demanded == 0 {
            0.0
        } else {
            (1.0 - work_done as f64 / demanded as f64).clamp(0.0, 1.0)
        };
        DegradationInfo {
            tripped,
            limit,
            demanded,
            work_done,
            estimated_recall_loss: loss,
        }
    }
}

impl fmt::Display for DegradationInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} budget tripped: did {} of {} (limit {}), est. recall loss {:.0}%",
            self.tripped,
            self.work_done,
            self.demanded,
            self.limit,
            self.estimated_recall_loss * 100.0
        )
    }
}

/// A passed deadline, carried by [`TossError::BudgetExceeded`].
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetBreach {
    /// The configured deadline, in nanoseconds.
    pub limit: u64,
    /// Nanoseconds elapsed when the deadline was seen to have passed.
    pub observed: u64,
}

impl fmt::Display for BudgetBreach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "deadline budget exceeded: {} > limit {}",
            self.observed, self.limit
        )
    }
}

/// The per-query governor: budget + token + work tallies.
///
/// One governor is created per query (or per query *request*: a join
/// threads the same governor through both sides and the combine phase).
/// All counters are atomic so the governor can be consulted from the
/// store's scan workers, the expansion context and both sides of a
/// join concurrently.
#[derive(Debug)]
pub struct QueryGovernor {
    budget: QueryBudget,
    token: CancelToken,
    start: Instant,
    deadline_at: Option<Instant>,
    terms_used: AtomicU64,
    docs_scanned: AtomicU64,
    witnesses_kept: AtomicU64,
    memory_bytes: AtomicU64,
    /// Candidate pairs the similarity join generated (cumulative across
    /// every join in the request). Charged against
    /// [`QueryBudget::max_join_cardinality`] at the probe commit
    /// frontier — see [`QueryGovernor::admit_join_candidates`].
    join_candidates: AtomicU64,
    /// How many times `admit_expansion_terms` truncated a request.
    /// The rewrite cache uses this to tell an exact expansion (cacheable)
    /// from a truncated one (never cached).
    terms_truncations: AtomicU64,
    degradation: Mutex<Option<DegradationInfo>>,
}

impl QueryGovernor {
    /// Govern with `budget` and a fresh cancel token; hand
    /// [`QueryGovernor::token`] to whatever may cancel.
    pub fn new(budget: QueryBudget) -> Self {
        let start = Instant::now();
        let deadline_at = budget.deadline.map(|d| start + d);
        QueryGovernor {
            budget,
            token: CancelToken::new(),
            start,
            deadline_at,
            terms_used: AtomicU64::new(0),
            docs_scanned: AtomicU64::new(0),
            witnesses_kept: AtomicU64::new(0),
            memory_bytes: AtomicU64::new(0),
            join_candidates: AtomicU64::new(0),
            terms_truncations: AtomicU64::new(0),
            degradation: Mutex::new(None),
        }
    }

    /// A governor with no limits (what ungoverned executor entry points
    /// use internally).
    pub fn unlimited() -> Self {
        Self::new(QueryBudget::unlimited())
    }

    /// The budget under enforcement.
    pub(crate) fn budget(&self) -> &QueryBudget {
        &self.budget
    }

    /// A clone of the cancel token (hand it to whatever may cancel).
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Wall time since the governor was created.
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Expansion terms admitted so far.
    pub fn terms_used(&self) -> u64 {
        self.terms_used.load(Ordering::Relaxed)
    }

    /// How many expansion terms could still be admitted without tripping
    /// the expansion-term budget (`u64::MAX` when unlimited). A peek —
    /// nothing is charged.
    pub(crate) fn expansion_headroom(&self) -> u64 {
        match self.budget.max_expansion_terms {
            Some(max) => max.saturating_sub(self.terms_used()),
            None => u64::MAX,
        }
    }

    /// How many times `admit_expansion_terms` truncated a request so
    /// far. A rewrite whose compile left this unchanged was admitted in
    /// full — the signal the rewrite cache uses to store only exact
    /// expansions.
    pub(crate) fn expansion_truncations(&self) -> u64 {
        self.terms_truncations.load(Ordering::Relaxed)
    }

    /// Documents scanned so far.
    pub fn docs_scanned(&self) -> u64 {
        self.docs_scanned.load(Ordering::Relaxed)
    }

    /// Approximate intermediate-result bytes charged so far.
    pub fn memory_used(&self) -> u64 {
        self.memory_bytes.load(Ordering::Relaxed)
    }

    /// The first count-budget trip, if any.
    pub fn degradation(&self) -> Option<DegradationInfo> {
        self.degradation
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Cooperative checkpoint: errors if the token is cancelled or the
    /// deadline has passed. Called at phase boundaries and inside every
    /// long-running loop.
    pub(crate) fn check(&self) -> TossResult<()> {
        if self.token.is_cancelled() {
            toss_obs::metrics::counter("toss.governor.cancelled").inc();
            return Err(TossError::Cancelled);
        }
        if let Some(at) = self.deadline_at {
            let now = Instant::now();
            if now >= at {
                toss_obs::metrics::counter("toss.governor.deadline_exceeded").inc();
                return Err(TossError::BudgetExceeded(BudgetBreach {
                    limit: self.budget.deadline.unwrap_or_default().as_nanos() as u64,
                    observed: self.elapsed().as_nanos() as u64,
                }));
            }
        }
        Ok(())
    }

    /// Whether the deadline has already passed (without raising).
    pub(crate) fn deadline_expired(&self) -> bool {
        matches!(self.deadline_at, Some(at) if Instant::now() >= at)
    }

    /// Record the first trip (later trips only bump the counter: the
    /// first truncation is the one that explains the result).
    fn trip(&self, info: DegradationInfo) {
        toss_obs::metrics::counter("toss.governor.degraded").inc();
        let mut slot = self.degradation.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(info);
        }
    }

    /// The one admission rule behind every `admit_*`: charge `requested`
    /// units against `tally` under the cap `max`. Returns how many may
    /// be used — all of them when unlimited or when they fit, otherwise
    /// what is left of the cap, recording the first overflow as
    /// degradation. One atomic update, so concurrent admissions (the two
    /// sides of a join) never lose a charge.
    fn admit(
        &self,
        kind: BudgetKind,
        max: Option<u64>,
        tally: &AtomicU64,
        requested: usize,
    ) -> TossResult<usize> {
        self.check()?;
        let requested = requested as u64;
        let cap = max.unwrap_or(u64::MAX);
        // the tally never passes the cap, so what is left is `cap - used`
        let update = tally.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
            Some(used.saturating_add(requested).min(cap))
        });
        let (Ok(used) | Err(used)) = update;
        let demanded = used.saturating_add(requested);
        if demanded <= cap {
            return Ok(requested as usize);
        }
        let allowed = cap.saturating_sub(used);
        self.trip(DegradationInfo::new(kind, cap, demanded, used + allowed));
        Ok(allowed as usize)
    }

    /// Admit up to `requested` new SEO expansion terms. Returns how many
    /// may actually be used; the overflow is recorded as degradation.
    pub(crate) fn admit_expansion_terms(&self, requested: usize) -> TossResult<usize> {
        let limit = self.budget.max_expansion_terms;
        let allowed = self.admit(BudgetKind::ExpansionTerms, limit, &self.terms_used, requested)?;
        if allowed < requested {
            self.terms_truncations.fetch_add(1, Ordering::Relaxed);
        }
        Ok(allowed)
    }

    /// Admit `requested` store visits in one charge, before any is
    /// evaluated; returns how many the scan may evaluate (a prefix, in
    /// visit order). A document cap truncates and records degradation.
    pub(crate) fn admit_docs(&self, requested: usize) -> TossResult<usize> {
        let limit = self.budget.max_docs_scanned;
        self.admit(BudgetKind::DocsScanned, limit, &self.docs_scanned, requested)
    }

    /// Whether the query must stop now: cancelled or past its deadline.
    /// The store's scan polls this before every visit, so it charges
    /// nothing, bumps no counter and takes no lock; the error that
    /// explains the stop comes from [`QueryGovernor::check`].
    pub(crate) fn interrupted(&self) -> bool {
        self.token.is_cancelled() || self.deadline_expired()
    }

    /// Candidate pairs the similarity join has charged so far.
    pub fn join_candidates(&self) -> u64 {
        self.join_candidates.load(Ordering::Relaxed)
    }

    /// Admit `produced` candidate pairs generated by the similarity
    /// join's inverted-index probe: the one charge against
    /// [`QueryBudget::max_join_cardinality`], cumulative across the
    /// request. The join charges the pairs it *actually generates*, so a
    /// selective join is charged for far less than |L|·|R|. Returns how
    /// many of the produced pairs may be kept; a cap truncates,
    /// recording degradation.
    ///
    /// Only ever called from the sequential commit frontier (probe tasks
    /// are speculative and never charge), so the tally is bit-identical
    /// at any worker count.
    pub(crate) fn admit_join_candidates(&self, produced: usize) -> TossResult<usize> {
        let limit = self.budget.max_join_cardinality;
        self.admit(BudgetKind::JoinCardinality, limit, &self.join_candidates, produced)
    }

    /// Non-charging companion to [`QueryGovernor::admit_join_candidates`]:
    /// *would* one more candidate pair be admitted right now? Probe tasks
    /// ask this between probe groups so a budget that was already
    /// exhausted before the join (or a cancelled or expired query) stops
    /// them early; the charging call on the commit frontier stays
    /// authoritative.
    pub(crate) fn join_candidates_preflight(&self) -> bool {
        let spent = matches!(
            self.budget.max_join_cardinality,
            Some(max) if self.join_candidates() >= max
        );
        !self.interrupted() && !spent
    }

    /// Admit `produced` witness trees; returns how many to keep.
    pub(crate) fn admit_witnesses(&self, produced: usize) -> TossResult<usize> {
        let limit = self.budget.max_witnesses;
        self.admit(BudgetKind::Witnesses, limit, &self.witnesses_kept, produced)
    }

    /// Charge `bytes` of approximate intermediate-result memory.
    /// Returns `false` once the ceiling is passed (the caller should
    /// stop accumulating), recording the trip as degradation.
    pub(crate) fn charge_memory(&self, bytes: u64) -> bool {
        let total = self.memory_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        match self.budget.max_memory_bytes {
            Some(max) if total > max => {
                self.trip(DegradationInfo::new(BudgetKind::Memory, max, total, max));
                false
            }
            _ => true,
        }
    }
}

/// Bounded concurrent query slots with a wait-queue timeout.
///
/// `max_concurrent` queries run at once; a query that cannot get a slot
/// waits at most `max_queue_wait` and is then shed with
/// [`TossError::Overloaded`] — the controller never queues unboundedly.
#[derive(Debug)]
pub struct AdmissionController {
    max_concurrent: usize,
    max_queue_wait: Duration,
    active: Mutex<usize>,
    freed: Condvar,
}

impl AdmissionController {
    /// `max_concurrent` slots, shedding after `max_queue_wait` in queue.
    pub fn new(max_concurrent: usize, max_queue_wait: Duration) -> Self {
        AdmissionController {
            max_concurrent: max_concurrent.max(1),
            max_queue_wait,
            active: Mutex::new(0),
            freed: Condvar::new(),
        }
    }

    /// Acquire a slot, waiting at most the configured queue timeout.
    /// Sheds with [`TossError::Overloaded`] when the wait expires.
    ///
    /// The `toss.governor.queue_wait_ns` histogram records the time spent
    /// queueing on **both** outcomes — admission and shedding — so load
    /// shed under overload is visible in the wait distribution instead of
    /// silently missing from it.
    pub fn admit(&self) -> TossResult<AdmissionPermit<'_>> {
        let enqueued = Instant::now();
        let mut active = self.active.lock().unwrap_or_else(|e| e.into_inner());
        while *active >= self.max_concurrent {
            let waited = enqueued.elapsed();
            if waited >= self.max_queue_wait {
                toss_obs::metrics::counter("toss.governor.shed").inc();
                toss_obs::metrics::histogram("toss.governor.queue_wait_ns")
                    .observe_duration(waited);
                return Err(TossError::Overloaded(format!(
                    "{} queries active, queue wait {:?} exceeded {:?}",
                    self.max_concurrent, waited, self.max_queue_wait
                )));
            }
            let (guard, _timeout) = self
                .freed
                .wait_timeout(active, self.max_queue_wait - waited)
                .unwrap_or_else(|e| e.into_inner());
            active = guard;
        }
        *active += 1;
        toss_obs::metrics::counter("toss.governor.admitted").inc();
        toss_obs::metrics::histogram("toss.governor.queue_wait_ns")
            .observe_duration(enqueued.elapsed());
        Ok(AdmissionPermit { ctrl: self })
    }

    /// The full governed entry point for a serving loop: reject an
    /// already-expired deadline or cancelled token *before* admission
    /// (and before any document is scanned), acquire a slot or shed,
    /// then run `f` with panic isolation. Also returns how long the
    /// request queued for a slot (zero when rejected before admission),
    /// the per-request figure beside the aggregate
    /// `toss.governor.queue_wait_ns` histogram.
    pub fn run_with_wait<T>(
        &self,
        governor: &QueryGovernor,
        f: impl FnOnce() -> TossResult<T>,
    ) -> (Duration, TossResult<T>) {
        if let Err(e) = governor.check() {
            return (Duration::ZERO, Err(e));
        }
        let enqueued = Instant::now();
        let permit = self.admit();
        let waited = enqueued.elapsed();
        match permit {
            Ok(_permit) => (waited, isolate(f)),
            Err(e) => (waited, Err(e)),
        }
    }
}

/// An acquired admission slot; released on drop.
#[derive(Debug)]
pub struct AdmissionPermit<'a> {
    ctrl: &'a AdmissionController,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut active = self.ctrl.active.lock().unwrap_or_else(|e| e.into_inner());
        *active = active.saturating_sub(1);
        drop(active);
        self.ctrl.freed.notify_one();
    }
}

/// Run `f`, converting a panic into [`TossError::Internal`] so one
/// poisoned query cannot unwind through a serving loop. Counted in
/// `toss.governor.panics`.
pub(crate) fn isolate<T>(f: impl FnOnce() -> TossResult<T>) -> TossResult<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => {
            toss_obs::metrics::counter("toss.governor.panics").inc();
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(TossError::Internal(format!("query panicked: {msg}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::thread;

    /// Queries currently holding a slot.
    fn active(ctrl: &AdmissionController) -> usize {
        *ctrl.active.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Serializes the tests that admit queries: every admit observes the
    /// process-global `toss.governor.queue_wait_ns` histogram, which
    /// `accepted_queries_record_queue_wait` counts exactly.
    static ADMISSIONS: Mutex<()> = Mutex::new(());

    fn admissions() -> std::sync::MutexGuard<'static, ()> {
        ADMISSIONS.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unlimited_governor_admits_everything() {
        let g = QueryGovernor::unlimited();
        assert!(g.check().is_ok());
        assert_eq!(g.admit_expansion_terms(1_000_000).unwrap(), 1_000_000);
        assert_eq!(g.admit_docs(1_000_000).unwrap(), 1_000_000);
        assert_eq!(g.admit_witnesses(500).unwrap(), 500);
        assert!(g.charge_memory(1 << 40));
        assert!(g.degradation().is_none());
    }

    #[test]
    fn term_cap_truncates_and_records() {
        let g = QueryGovernor::new(QueryBudget::unlimited().with_max_expansion_terms(10));
        assert_eq!(g.admit_expansion_terms(7).unwrap(), 7);
        assert_eq!(g.admit_expansion_terms(7).unwrap(), 3);
        assert_eq!(g.admit_expansion_terms(7).unwrap(), 0);
        let d = g.degradation().expect("degraded");
        assert_eq!(d.tripped, BudgetKind::ExpansionTerms);
        assert_eq!(d.limit, 10);
        assert_eq!(d.demanded, 14); // the first over-demand is recorded
        assert_eq!(d.work_done, 10);
        assert!(d.estimated_recall_loss > 0.0);
    }

    /// Threads released together by a barrier run fixed sequences of
    /// document and term admissions against one governor: the admitted
    /// totals and the tallies both come to `min(cap, demanded)`, and the
    /// governor keeps the first trip.
    #[test]
    fn concurrent_admissions_never_lose_a_charge() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 100;
        const CAP: u64 = 1_000;
        // thread `t`'s `i`-th admission of either kind asks for this many
        let ask = |t: usize, i: usize| 1 + (i + t) % 7;
        let g = QueryGovernor::new(
            QueryBudget::unlimited()
                .with_max_docs_scanned(CAP)
                .with_max_expansion_terms(CAP),
        );
        let start = std::sync::Barrier::new(THREADS);
        let admitted: Vec<(u64, u64)> = thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (g, start) = (&g, &start);
                    s.spawn(move || {
                        start.wait();
                        let (mut docs, mut terms) = (0, 0);
                        for i in 0..ROUNDS {
                            docs += g.admit_docs(ask(t, i)).unwrap() as u64;
                            terms += g.admit_expansion_terms(ask(t, i)).unwrap() as u64;
                        }
                        (docs, terms)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let demanded: u64 = (0..THREADS)
            .flat_map(|t| (0..ROUNDS).map(move |i| ask(t, i) as u64))
            .sum();
        assert!(demanded > CAP, "the sequences must overflow the cap");
        let expected = CAP.min(demanded);
        let docs: u64 = admitted.iter().map(|a| a.0).sum();
        let terms: u64 = admitted.iter().map(|a| a.1).sum();
        assert_eq!((docs, g.docs_scanned()), (expected, expected));
        assert_eq!((terms, g.terms_used()), (expected, expected));
        let d = g.degradation().expect("the first trip is kept");
        assert!(
            matches!(
                d.tripped,
                BudgetKind::DocsScanned | BudgetKind::ExpansionTerms
            ),
            "{d:?}"
        );
        assert_eq!((d.limit, d.work_done), (CAP, CAP));
        assert!(d.demanded > CAP && d.demanded <= CAP + 7, "{d:?}");
    }

    #[test]
    fn cancel_token_is_shared_and_prompt() {
        let g = QueryGovernor::unlimited();
        let t = g.token();
        assert!(g.check().is_ok());
        t.cancel();
        assert!(matches!(g.check(), Err(TossError::Cancelled)));
        assert!(g.interrupted());
    }

    #[test]
    fn expired_deadline_fails_checks() {
        let g = QueryGovernor::new(QueryBudget::unlimited().with_deadline(Duration::ZERO));
        match g.check() {
            Err(TossError::BudgetExceeded(b)) => {
                assert_eq!(b.limit, 0);
                let text = format!("deadline budget exceeded: {} > limit 0", b.observed);
                assert_eq!(TossError::BudgetExceeded(b).to_string(), text);
            }
            other => panic!("expected deadline breach, got {other:?}"),
        }
        assert!(g.deadline_expired());
        assert!(g.interrupted());
    }

    #[test]
    fn admit_docs_is_one_charge_per_scan() {
        // unlimited: everything, charged
        let g = QueryGovernor::unlimited();
        assert_eq!(g.admit_docs(30).unwrap(), 30);
        assert_eq!(g.docs_scanned(), 30);

        // fits, then exactly at the limit: no degradation
        let fits = QueryGovernor::new(QueryBudget::unlimited().with_max_docs_scanned(10));
        assert_eq!(fits.admit_docs(4).unwrap(), 4);
        assert_eq!(fits.admit_docs(6).unwrap(), 6);
        assert_eq!(fits.docs_scanned(), 10);
        assert!(fits.degradation().is_none());

        // over the cap: a prefix, and the select's degradation line
        let capped = QueryGovernor::new(QueryBudget::unlimited().with_max_docs_scanned(2));
        assert_eq!(capped.admit_docs(30).unwrap(), 2);
        assert_eq!(capped.docs_scanned(), 2);
        let d = capped.degradation().unwrap();
        assert_eq!(d.tripped, BudgetKind::DocsScanned);
        assert_eq!((d.limit, d.demanded, d.work_done), (2, 30, 2));
        assert!(d.to_string().contains("did 2 of 30 (limit 2)"), "{d}");
        // a second scan under the same governor is charged cumulatively
        assert_eq!(capped.admit_docs(5).unwrap(), 0);
        assert_eq!(capped.docs_scanned(), 2);

        // cancelled and expired: the query's own error, nothing charged
        let cancelled = QueryGovernor::unlimited();
        cancelled.token().cancel();
        assert!(matches!(cancelled.admit_docs(3), Err(TossError::Cancelled)));
        assert_eq!(cancelled.docs_scanned(), 0);
        let expired = QueryGovernor::new(QueryBudget::unlimited().with_deadline(Duration::ZERO));
        assert!(matches!(
            expired.admit_docs(3),
            Err(TossError::BudgetExceeded(_))
        ));
        assert_eq!(expired.docs_scanned(), 0);
    }

    #[test]
    fn interrupted_never_charges() {
        let g = QueryGovernor::new(QueryBudget::unlimited().with_max_docs_scanned(2));
        for _ in 0..10 {
            assert!(!g.interrupted());
        }
        g.token().cancel();
        for _ in 0..10 {
            assert!(g.interrupted());
        }
        assert_eq!(g.docs_scanned(), 0, "a poll must not charge");
        assert!(g.degradation().is_none());
        assert!(matches!(g.check(), Err(TossError::Cancelled)));
    }

    #[test]
    fn memory_ceiling_degrades_past_its_boundary() {
        let g = QueryGovernor::new(QueryBudget::unlimited().with_max_memory_bytes(100));
        assert!(g.charge_memory(60));
        assert!(!g.charge_memory(60));
        assert_eq!(g.degradation().unwrap().tripped, BudgetKind::Memory);

        let at = QueryGovernor::new(QueryBudget::unlimited().with_max_memory_bytes(100));
        assert!(at.charge_memory(100)); // boundary ok
        assert!(at.degradation().is_none());
        assert!(!at.charge_memory(1));
    }

    #[test]
    fn admission_sheds_rather_than_queueing() {
        let _admissions = admissions();
        let ctrl = Arc::new(AdmissionController::new(1, Duration::from_millis(20)));
        let p = ctrl.admit().unwrap();
        assert_eq!(active(&ctrl), 1);
        let c2 = ctrl.clone();
        let shed = thread::spawn(move || c2.admit().map(|_| ()))
            .join()
            .unwrap();
        assert!(matches!(shed, Err(TossError::Overloaded(_))));
        drop(p);
        assert_eq!(active(&ctrl), 0);
        let _again = ctrl.admit().unwrap(); // slot is reusable
    }

    #[test]
    fn shed_queries_record_queue_wait() {
        let _admissions = admissions();
        let hist = toss_obs::metrics::histogram("toss.governor.queue_wait_ns");
        let before = hist.count();
        let ctrl = Arc::new(AdmissionController::new(1, Duration::from_millis(5)));
        let p = ctrl.admit().unwrap(); // admitted: one observation
        let c2 = ctrl.clone();
        let shed = thread::spawn(move || c2.admit().map(|_| ()))
            .join()
            .unwrap();
        assert!(matches!(shed, Err(TossError::Overloaded(_))));
        drop(p);
        // both the admitted and the shed query observed their queue wait
        assert!(
            hist.count() >= before + 2,
            "shed queries must record queue wait (count {} -> {})",
            before,
            hist.count()
        );
    }

    #[test]
    fn accepted_queries_record_queue_wait() {
        let _admissions = admissions();
        let hist = toss_obs::metrics::histogram("toss.governor.queue_wait_ns");
        let before = hist.count();
        let ctrl = AdmissionController::new(2, Duration::from_millis(50));
        // an uncontended admit still observes its (tiny) queue wait
        let p = ctrl.admit().unwrap();
        assert_eq!(hist.count(), before + 1, "accepted path must observe wait");
        drop(p);
        // and the run_with_wait entry point reports the per-request wait
        let g = QueryGovernor::unlimited();
        let (wait, out) = ctrl.run_with_wait(&g, || Ok(7));
        assert_eq!(out.unwrap(), 7);
        assert!(wait < Duration::from_millis(50));
        assert!(hist.count() >= before + 2);
    }

    #[test]
    fn run_with_wait_reports_shed_wait() {
        let _admissions = admissions();
        let ctrl = Arc::new(AdmissionController::new(1, Duration::from_millis(5)));
        let p = ctrl.admit().unwrap();
        let c2 = ctrl.clone();
        let (wait, out) = thread::spawn(move || {
            let g = QueryGovernor::unlimited();
            let (w, r) = c2.run_with_wait(&g, || Ok(()));
            (w, r)
        })
        .join()
        .unwrap();
        assert!(matches!(out, Err(TossError::Overloaded(_))));
        assert!(wait >= Duration::from_millis(5), "shed after the ceiling");
        drop(p);
    }

    #[test]
    fn admission_run_rejects_expired_deadline_before_slot() {
        let _admissions = admissions();
        let ctrl = AdmissionController::new(1, Duration::from_millis(10));
        let g = QueryGovernor::new(
            QueryBudget::unlimited().with_deadline(Duration::ZERO),
        );
        let ran = AtomicUsize::new(0);
        let (_, out) = ctrl.run_with_wait(&g, || {
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(())
        });
        assert!(matches!(out, Err(TossError::BudgetExceeded(_))));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "body must not run");
        assert_eq!(active(&ctrl), 0, "no slot leaked");
    }

    #[test]
    fn isolate_catches_panics() {
        let ok = isolate(|| Ok::<_, TossError>(42));
        assert_eq!(ok.unwrap(), 42);
        let before = toss_obs::metrics::counter("toss.governor.panics").get();
        let out: TossResult<()> = isolate(|| panic!("poisoned query"));
        match out {
            Err(TossError::Internal(m)) => assert!(m.contains("poisoned query")),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert!(toss_obs::metrics::counter("toss.governor.panics").get() > before);
    }

    #[test]
    fn permit_released_even_on_panic_inside_run() {
        let _admissions = admissions();
        let ctrl = AdmissionController::new(1, Duration::from_millis(10));
        let g = QueryGovernor::unlimited();
        let (_, out): (_, TossResult<()>) = ctrl.run_with_wait(&g, || panic!("boom"));
        assert!(matches!(out, Err(TossError::Internal(_))));
        assert_eq!(active(&ctrl), 0, "slot must be released after a panic");
    }
}
