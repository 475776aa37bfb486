//! Bounded rewrite cache: what phase 1 of a query produces, kept per query.
//!
//! Rewriting a [`TossCond`] walks the ontology: every `~` atom expands to
//! a similarity class, every `below`/`isa` atom to a below-cone. With the
//! semantic index those walks are already lookups, but the assembled
//! [`Cond`] — term collection, governed dedup, set construction — is
//! still rebuilt per query, and so is everything derived from it: the
//! XPath text, its parsed AST and the matcher that converts candidates
//! back to witness trees.
//!
//! **What an entry holds.** A [`CachedRewrite`] is inserted on a miss with
//! the *finished* expansion (`cond`) and its expansion-term count
//! (`terms`) — nothing else, so a stream of queries that never repeat
//! retains exactly what it always did. On its **first servable hit** the
//! entry is *promoted*: the executor builds the query's
//! [`PreparedQuery`] (compiled pattern → XPath text → parsed XPath, plus
//! the TAX [`Matcher`](crate::tax::Matcher)) into the entry's
//! once-cell, and that hit and every later one share it by `Arc` — no
//! render, no re-parse, no condition clone, no per-tree conjunct split.
//! The map hands out the entry itself (`Arc<CachedRewrite>`), never a
//! copy, so there is one cell per entry however many readers race to
//! fill it. A promoted entry keeps its `cond`: the term sets that
//! dominate its size are shared by `Arc` with the matcher's conjuncts.
//!
//! **The key** is everything the entry depends on:
//!
//! * the normalized condition fingerprint (And/Or chains flattened and
//!   sorted, so `a ∧ b` and `b ∧ a` share an entry),
//! * the pattern structure — labels, parents, pc/ad edge kinds — because
//!   the prepared form compiles the structure into its XPath steps and
//!   its matcher (the same condition over a `pc` and an `ad` spine are
//!   different queries),
//! * the SEO version stamp (fused-and-re-enhanced ontologies get fresh
//!   stamps, so stale expansions can never be served),
//! * ε, the probe metric, the part-of SEO version,
//! * the budget class (expansion-term limit and its enforcement).
//!
//! Only *exact* (never soft-truncated) expansions are stored, and a hit
//! is served only when the governor's remaining expansion-term headroom
//! admits the whole cached expansion — which is then charged through
//! [`QueryGovernor::admit_expansion_terms`] exactly like a cold rewrite,
//! so accounting and degradation behavior are identical either way.
//!
//! The cache is FIFO-bounded: a `VecDeque` insertion order,
//! per-instance hit/miss/eviction tallies, and
//! `toss.semantic.rewrite_cache.*` global counters.
//!
//! [`QueryGovernor::admit_expansion_terms`]: crate::governor::QueryGovernor::admit_expansion_terms

use crate::condition::TossCond;
use crate::error::TossResult;
use crate::executor::PreparedQuery;
use crate::tax::Cond;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use toss_obs::metrics::Counter;

fn global_counter<'a>(cell: &'a OnceLock<Arc<Counter>>, name: &'static str) -> &'a Counter {
    cell.get_or_init(|| toss_obs::metrics::counter(name))
}

fn global_hits() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    global_counter(&C, "toss.semantic.rewrite_cache.hits")
}

fn global_misses() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    global_counter(&C, "toss.semantic.rewrite_cache.misses")
}

fn global_evictions() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    global_counter(&C, "toss.semantic.rewrite_cache.evictions")
}

/// A cached expansion: the rewritten condition, how many expansion terms
/// it carries (what the governor must admit to serve it) and, once the
/// entry has been hit, the query prepared from it.
#[derive(Debug)]
pub(crate) struct CachedRewrite {
    /// The fully expanded condition.
    pub(crate) cond: Arc<Cond>,
    /// Total expansion terms in `cond` (`InSet` + `SharedClass` sizes).
    pub(crate) terms: usize,
    /// Filled on the first servable hit, never on insert.
    prepared: OnceLock<Arc<PreparedQuery>>,
}

impl CachedRewrite {
    /// An unpromoted entry.
    pub(crate) fn new(cond: Arc<Cond>, terms: usize) -> Self {
        CachedRewrite {
            cond,
            terms,
            prepared: OnceLock::new(),
        }
    }

    /// The entry's prepared query, built by `prepare` if this is the
    /// first call to get that far. Racing first hits may each run
    /// `prepare`; one result is kept and all of them return it.
    pub(crate) fn promote(
        &self,
        prepare: impl FnOnce() -> TossResult<PreparedQuery>,
    ) -> TossResult<Arc<PreparedQuery>> {
        if let Some(p) = self.prepared.get() {
            return Ok(p.clone());
        }
        let built = Arc::new(prepare()?);
        Ok(self.prepared.get_or_init(|| built).clone())
    }
}

struct CacheState {
    map: HashMap<String, Arc<CachedRewrite>>,
    order: VecDeque<String>,
}

/// FIFO-bounded map from rewrite keys to expanded conditions.
pub struct RewriteCache {
    state: Mutex<CacheState>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for RewriteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RewriteCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

impl Default for RewriteCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl RewriteCache {
    /// Default bound: generous for repeated workloads, small enough that
    /// even pathological conditions stay a few MB.
    pub(crate) const DEFAULT_CAPACITY: usize = 512;

    /// A cache bounded to `capacity` entries (0 disables storage).
    pub fn new(capacity: usize) -> Self {
        RewriteCache {
            state: Mutex::new(CacheState {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a key without touching the hit/miss tallies — the caller
    /// decides whether a found entry can actually be *served* (budget
    /// headroom) and records the outcome via [`RewriteCache::record_hit`]
    /// / [`RewriteCache::record_miss`]. Every caller gets the same entry,
    /// so promoting it promotes it for all of them.
    pub(crate) fn get(&self, key: &str) -> Option<Arc<CachedRewrite>> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .get(key)
            .cloned()
    }

    /// Insert an exact expansion; FIFO-evicts past capacity.
    pub(crate) fn insert(&self, key: String, value: CachedRewrite) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.map.insert(key.clone(), Arc::new(value)).is_none() {
            state.order.push_back(key);
            while state.map.len() > self.capacity {
                let Some(oldest) = state.order.pop_front() else {
                    break;
                };
                state.map.remove(&oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                global_evictions().inc();
            }
        }
    }

    /// Drop every stored expansion (capacity and tallies are kept).
    pub(crate) fn clear(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.map.clear();
        state.order.clear();
    }

    /// Tally a served hit (instance + global counters).
    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        global_hits().inc();
    }

    /// Tally a miss — including found-but-unservable entries, which take
    /// the cold path (instance + global counters).
    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        global_misses().inc();
    }

    /// Served hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// FIFO evictions so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }
}

/// Canonical fingerprint of a condition: And/Or chains are flattened and
/// their operands sorted, so semantically identical orderings share a
/// cache entry; everything else renders through the stable `Debug` forms
/// of the term/operator enums.
pub(crate) fn fingerprint(cond: &TossCond) -> String {
    let mut out = String::new();
    render(cond, &mut out);
    out
}

fn render(cond: &TossCond, out: &mut String) {
    match cond {
        TossCond::True => out.push('T'),
        TossCond::Cmp { lhs, op, rhs } => {
            let _ = write!(out, "({lhs:?} {op:?} {rhs:?})");
        }
        TossCond::And(..) => render_chain(cond, out, "&"),
        TossCond::Or(..) => render_chain(cond, out, "|"),
        TossCond::Not(inner) => {
            out.push_str("!(");
            render(inner, out);
            out.push(')');
        }
    }
}

fn render_chain(cond: &TossCond, out: &mut String, op: &str) {
    let mut operands: Vec<&TossCond> = Vec::new();
    flatten(cond, op, &mut operands);
    let mut rendered: Vec<String> = operands
        .iter()
        .map(|c| {
            let mut s = String::new();
            render(c, &mut s);
            s
        })
        .collect();
    rendered.sort_unstable();
    out.push_str(op);
    out.push('[');
    out.push_str(&rendered.join(","));
    out.push(']');
}

fn flatten<'a>(cond: &'a TossCond, op: &str, out: &mut Vec<&'a TossCond>) {
    match (cond, op) {
        (TossCond::And(a, b), "&") | (TossCond::Or(a, b), "|") => {
            flatten(a, op, out);
            flatten(b, op, out);
        }
        _ => out.push(cond),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::TossTerm;

    fn atom(n: u32) -> TossCond {
        TossCond::similar(TossTerm::content(n), TossTerm::str(&format!("name{n}")))
    }

    #[test]
    fn fingerprint_normalizes_commutative_chains() {
        let ab = atom(1).and(atom(2));
        let ba = atom(2).and(atom(1));
        assert_eq!(fingerprint(&ab), fingerprint(&ba));
        // nested chains flatten: (a ∧ b) ∧ c == a ∧ (b ∧ c)
        let left = atom(1).and(atom(2)).and(atom(3));
        let right = atom(1).and(atom(2).and(atom(3)));
        assert_eq!(fingerprint(&left), fingerprint(&right));
        // but ∧ and ∨ stay distinct, and so do different atoms
        assert_ne!(fingerprint(&atom(1).and(atom(2))), fingerprint(&atom(1).or(atom(2))));
        assert_ne!(fingerprint(&atom(1)), fingerprint(&atom(2)));
        // negation nests
        assert_ne!(
            fingerprint(&TossCond::Not(Box::new(atom(1)))),
            fingerprint(&atom(1))
        );
    }

    #[test]
    fn fifo_eviction_is_bounded_and_tallied() {
        let cache = RewriteCache::new(2);
        let entry = || CachedRewrite::new(Arc::new(Cond::True), 0);
        cache.insert("a".into(), entry());
        cache.insert("b".into(), entry());
        cache.insert("c".into(), entry());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get("a").is_none(), "oldest entry evicted first");
        assert!(cache.get("b").is_some() && cache.get("c").is_some());
        // re-inserting an existing key does not grow the FIFO
        cache.insert("c".into(), entry());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = RewriteCache::new(0);
        cache.insert("a".into(), CachedRewrite::new(Arc::new(Cond::True), 0));
        assert!(cache.get("a").is_none());
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn tallies_are_explicit() {
        let cache = RewriteCache::new(4);
        cache.record_miss();
        cache.record_hit();
        cache.record_hit();
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }
}
