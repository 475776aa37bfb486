//! Blocking plans: a metric declares which pairs *could* be within ε,
//! and a [`TermIndex`] built from that declaration answers "which terms
//! could be within ε of this probe?" without touching the rest.
//!
//! A [`BlockPlan`] denotes a symmetric relation `P(a, b)` on strings.
//! The contract of [`crate::StringMetric::blocking`] is *admissibility*:
//!
//! > `a ≠ b ∧ within(a, b, ε)  ⇒  P(a, b)`
//!
//! so a candidate generator may skip every pair outside `P` and still
//! find each within-ε pair; the exact `within` then verifies the
//! survivors. Identity needs no plan (`d(x, x) = 0` for every metric):
//! the index always offers a term equal to the probe.
//!
//! | plan | `P(a, b)` |
//! |---|---|
//! | `Edits { max_len_diff: D, bigram_edits: L }` | `‖a│−│b‖ ≤ D` and, when `L` is given, `shared_bigrams(a, b) ≥ max(│a│, │b│) − 1 − L` (char lengths, bigram *multiset* intersection) |
//! | `SharedKey(k)` | `k(a) = k(b)` |
//! | `Gate(g, p)` | `g(a) ∧ g(b) ∧ p(a, b)` |
//! | `Any(ps)` | some `p ∈ ps` has `p(a, b)` |

use crate::combinators::multi_word;
use crate::tokenize::last_word;
use std::collections::{BTreeMap, HashMap};

/// A string → key function two strings must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermKey {
    /// [`last_word`]: the final lowercase word token (`""` when the
    /// string has no word token) — the surname under [`crate::NameRules`].
    LastWord,
}

impl TermKey {
    /// The key of `s`.
    pub fn of(self, s: &str) -> String {
        match self {
            TermKey::LastWord => last_word(s),
        }
    }
}

/// A predicate both strings of a pair must pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermGate {
    /// The string contains inner whitespace
    /// ([`crate::combinators::MultiWordGate`]'s rule).
    MultiWord,
}

impl TermGate {
    /// Whether `s` passes the gate.
    pub fn admits(self, s: &str) -> bool {
        match self {
            TermGate::MultiWord => multi_word(s),
        }
    }
}

/// Which pairs of distinct strings can be within ε — see the module
/// docs for the relation each variant denotes.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockPlan {
    /// Edit-like metrics: a char-length window plus, optionally, the
    /// q-gram count filter at q = 2.
    Edits {
        /// Largest char-length difference a within-ε pair can have.
        max_len_diff: usize,
        /// Most bigrams the edits of a within-ε pair can destroy
        /// (`B·ε`); `None` applies the length window alone.
        bigram_edits: Option<f64>,
    },
    /// Both strings map to the same key.
    SharedKey(TermKey),
    /// Both strings pass the gate and the inner plan holds.
    Gate(TermGate, Box<BlockPlan>),
    /// Any of the plans holds.
    Any(Vec<BlockPlan>),
}

impl BlockPlan {
    /// The one `Edits` constructor: the plan at threshold `epsilon` of an
    /// edit-like metric that promises, for every pair,
    ///
    /// * `d(a, b) ≥ c·‖a│ − │b‖` (`c` = `length_cost`, the least one
    ///   unit of length difference costs), which caps a within-ε pair's
    ///   length difference at `ε / c`; and
    /// * the q = 2 count filter `shared_bigrams(a, b) ≥ max(│a│, │b│) − 1
    ///   − B·d(a, b)` (`B` = `bigrams_per_edit`, the most bigrams one edit
    ///   can destroy: 2 for insert/delete/substitute, 3 once adjacent
    ///   transpositions are allowed), which with `d ≤ ε` bounds the loss
    ///   at `B·ε`. A non-positive `B` applies the length window alone.
    ///
    /// `None` when `c` carries no information (not positive) or ε is NaN.
    pub(crate) fn from_bounds(
        epsilon: f64,
        length_cost: f64,
        bigrams_per_edit: f64,
    ) -> Option<BlockPlan> {
        if epsilon.is_nan() || length_cost.is_nan() || length_cost <= 0.0 {
            return None;
        }
        Some(BlockPlan::Edits {
            // the slack keeps a quotient that rounded just under an
            // integer admissible; `as` saturates (ε < 0 → 0, ∞ → MAX)
            max_len_diff: (epsilon / length_cost + 1e-9).floor() as usize,
            bigram_edits: Some(bigrams_per_edit * epsilon)
                .filter(|l| bigrams_per_edit > 0.0 && !l.is_nan()),
        })
    }
}

/// Sorted `(bigram, multiplicity)` pairs; a bigram is two chars packed.
fn bigram_counts(chars: &[char]) -> Vec<(u64, u32)> {
    let mut keys: Vec<u64> = chars
        .windows(2)
        .map(|w| ((w[0] as u64) << 32) | w[1] as u64)
        .collect();
    keys.sort_unstable();
    let mut out: Vec<(u64, u32)> = Vec::new();
    for k in keys {
        match out.last_mut() {
            Some((prev, c)) if *prev == k => *c += 1,
            _ => out.push((k, 1)),
        }
    }
    out
}

/// Length buckets and inverted bigram postings over one term subset.
struct EditsIndex {
    max_len_diff: usize,
    bigram_edits: Option<f64>,
    /// Local slot → term id.
    ids: Vec<u32>,
    /// Local slot → char length.
    lens: Vec<usize>,
    /// Char length → local slots.
    by_len: BTreeMap<usize, Vec<u32>>,
    /// Bigram → `(local slot, multiplicity)`; empty without a filter.
    postings: HashMap<u64, Vec<(u32, u32)>>,
}

impl EditsIndex {
    fn build(
        max_len_diff: usize,
        bigram_edits: Option<f64>,
        terms: &[String],
        ids: &[u32],
    ) -> Self {
        let mut ix = EditsIndex {
            max_len_diff,
            bigram_edits,
            ids: ids.to_vec(),
            lens: Vec::with_capacity(ids.len()),
            by_len: BTreeMap::new(),
            postings: HashMap::new(),
        };
        for (slot, &id) in ids.iter().enumerate() {
            let slot = slot as u32;
            let chars: Vec<char> = terms[id as usize].chars().collect();
            ix.lens.push(chars.len());
            ix.by_len.entry(chars.len()).or_default().push(slot);
            if bigram_edits.is_some() {
                for (g, n) in bigram_counts(&chars) {
                    ix.postings.entry(g).or_default().push((slot, n));
                }
            }
        }
        ix
    }

    fn candidates(&self, probe: &str, out: &mut Vec<u32>) {
        let chars: Vec<char> = probe.chars().collect();
        let lp = chars.len();
        let lo = lp.saturating_sub(self.max_len_diff);
        let hi = lp.saturating_add(self.max_len_diff);
        // shared bigrams a term of char length `l` needs
        let need = |l: usize| match self.bigram_edits {
            Some(loss) => lp.max(l) as f64 - 1.0 - loss,
            None => f64::NEG_INFINITY,
        };
        // The count filter is only trusted above one full shared bigram:
        // such a term is on some posting list of the probe's bigrams, so
        // the inverted index cannot miss it. At or below, a within-ε term
        // may share no bigram at all (short strings), and the whole
        // length bucket goes through.
        for (&l, slots) in self.by_len.range(lo..=hi) {
            if need(l) <= 1.0 {
                out.extend(slots.iter().map(|&s| self.ids[s as usize]));
            }
        }
        if need(hi) <= 1.0 {
            return; // `need` grows with `l`: every bucket went wholesale
        }
        let mut shared = vec![0u32; self.ids.len()];
        let mut touched: Vec<u32> = Vec::new();
        for (g, in_probe) in bigram_counts(&chars) {
            for &(slot, in_term) in self.postings.get(&g).map_or(&[][..], Vec::as_slice) {
                if shared[slot as usize] == 0 {
                    touched.push(slot);
                }
                shared[slot as usize] += in_probe.min(in_term);
            }
        }
        for slot in touched {
            let l = self.lens[slot as usize];
            let n = need(l);
            if (lo..=hi).contains(&l) && n > 1.0 && f64::from(shared[slot as usize]) >= n - 1e-9 {
                out.push(self.ids[slot as usize]);
            }
        }
    }
}

/// One plan node compiled over the terms that reach it.
enum Node {
    Edits(EditsIndex),
    Key(TermKey, HashMap<String, Vec<u32>>),
    Gate(TermGate, Box<Node>),
    Any(Vec<Node>),
}

impl Node {
    fn build(plan: &BlockPlan, terms: &[String], ids: &[u32]) -> Node {
        match plan {
            BlockPlan::Edits {
                max_len_diff,
                bigram_edits,
            } => Node::Edits(EditsIndex::build(*max_len_diff, *bigram_edits, terms, ids)),
            BlockPlan::SharedKey(key) => {
                let mut postings: HashMap<String, Vec<u32>> = HashMap::new();
                for &id in ids {
                    postings
                        .entry(key.of(&terms[id as usize]))
                        .or_default()
                        .push(id);
                }
                Node::Key(*key, postings)
            }
            BlockPlan::Gate(gate, inner) => {
                // a term failing the gate pairs with nothing but itself
                let passing: Vec<u32> = ids
                    .iter()
                    .copied()
                    .filter(|&id| gate.admits(&terms[id as usize]))
                    .collect();
                Node::Gate(*gate, Box::new(Node::build(inner, terms, &passing)))
            }
            BlockPlan::Any(plans) => {
                Node::Any(plans.iter().map(|p| Node::build(p, terms, ids)).collect())
            }
        }
    }

    fn candidates(&self, probe: &str, out: &mut Vec<u32>) {
        match self {
            Node::Edits(ix) => ix.candidates(probe, out),
            Node::Key(key, postings) => {
                if let Some(ids) = postings.get(&key.of(probe)) {
                    out.extend_from_slice(ids);
                }
            }
            Node::Gate(gate, inner) => {
                if gate.admits(probe) {
                    inner.candidates(probe, out);
                }
            }
            Node::Any(nodes) => {
                for n in nodes {
                    n.candidates(probe, out);
                }
            }
        }
    }
}

/// A candidate index over a fixed term list, compiled from a
/// [`BlockPlan`]: key postings, length buckets and inverted bigram
/// postings, mirroring the plan's shape.
///
/// For the plan `metric.blocking(ε)` returned,
/// [`TermIndex::candidates`]`(probe)` is a superset of
/// `{ t : metric.within(probe, t, ε) }` — each plan node enumerates
/// every term its relation admits for the probe (the bigram filter falls
/// back to whole length buckets where it has no power), and a term equal
/// to the probe is always offered.
pub struct TermIndex {
    plan: BlockPlan,
    terms: Vec<String>,
    /// Term ids ordered by term string, for the identity lookup.
    by_term: Vec<u32>,
    root: Node,
}

impl TermIndex {
    /// Compile `plan` over `terms`; ids are positions in `terms`.
    pub fn build(plan: BlockPlan, terms: Vec<String>) -> TermIndex {
        let n = u32::try_from(terms.len()).expect("term ids fit in u32");
        let ids: Vec<u32> = (0..n).collect();
        let mut by_term = ids.clone();
        by_term.sort_by(|&a, &b| terms[a as usize].cmp(&terms[b as usize]));
        let root = Node::build(&plan, &terms, &ids);
        TermIndex {
            plan,
            terms,
            by_term,
            root,
        }
    }

    /// The plan this index was compiled from.
    pub fn plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// The term with id `id`.
    pub fn term(&self, id: u32) -> &str {
        &self.terms[id as usize]
    }

    /// Ids (ascending, distinct) of every term that can be within ε of
    /// `probe`; the caller verifies each with the metric's `within`.
    pub fn candidates(&self, probe: &str) -> Vec<u32> {
        let mut out = Vec::new();
        let first = self.by_term.partition_point(|&id| self.term(id) < probe);
        out.extend(
            self.by_term[first..]
                .iter()
                .copied()
                .take_while(|&id| self.term(id) == probe),
        );
        self.root.candidates(probe, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl std::fmt::Debug for TermIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermIndex")
            .field("plan", &self.plan)
            .field("terms", &self.terms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index(plan: BlockPlan, terms: &[&str]) -> TermIndex {
        TermIndex::build(plan, terms.iter().map(|t| t.to_string()).collect())
    }

    fn names(ix: &TermIndex, probe: &str) -> Vec<String> {
        ix.candidates(probe)
            .into_iter()
            .map(|id| ix.term(id).to_string())
            .collect()
    }

    #[test]
    fn from_bounds_needs_a_positive_length_bound() {
        assert_eq!(BlockPlan::from_bounds(2.0, 0.0, 2.0), None);
        assert_eq!(BlockPlan::from_bounds(2.0, f64::NAN, 2.0), None);
        assert_eq!(BlockPlan::from_bounds(f64::NAN, 1.0, 2.0), None);
        assert_eq!(
            BlockPlan::from_bounds(2.5, 1.0, 2.0),
            Some(BlockPlan::Edits {
                max_len_diff: 2,
                bigram_edits: Some(5.0)
            })
        );
        // a non-positive bigram bound carries no information
        assert_eq!(
            BlockPlan::from_bounds(-1.0, 1.0, 0.0),
            Some(BlockPlan::Edits {
                max_len_diff: 0,
                bigram_edits: None
            })
        );
    }

    #[test]
    fn edits_filters_by_length_and_shared_bigrams() {
        let plan = BlockPlan::Edits {
            max_len_diff: 1,
            bigram_edits: Some(2.0),
        };
        let ix = index(
            plan,
            &[
                "Jeff Ullman",
                "Jeff Ullmann",
                "Jeffrey Ullman",
                "Edgar F. Codd",
                "ab",
                "xyz",
            ],
        );
        // long probe: needs max(11, l) − 3 shared bigrams within ±1 chars
        assert_eq!(
            names(&ix, "Jeff Ullman"),
            vec!["Jeff Ullman", "Jeff Ullmann"]
        );
        assert_eq!(names(&ix, "Jeff Ullmen"), vec!["Jeff Ullman"]);
        // short probe: the filter has no power, the length buckets go whole
        assert_eq!(names(&ix, "qq"), vec!["ab", "xyz"]);
        // nothing in the length window
        assert!(names(&ix, "a string far longer than any term").is_empty());
    }

    #[test]
    fn length_window_alone_without_a_bigram_bound() {
        let plan = BlockPlan::Edits {
            max_len_diff: 0,
            bigram_edits: None,
        };
        let ix = index(plan, &["abc", "xyz", "abcd"]);
        assert_eq!(names(&ix, "qqq"), vec!["abc", "xyz"]);
    }

    #[test]
    fn infinite_threshold_admits_everything() {
        let plan = BlockPlan::from_bounds(f64::INFINITY, 1.0, 2.0).unwrap();
        let ix = index(plan, &["a", "relational model", ""]);
        assert_eq!(ix.candidates("anything at all").len(), 3);
    }

    #[test]
    fn shared_key_groups_by_last_word_and_by_its_absence() {
        let ix = index(
            BlockPlan::SharedKey(TermKey::LastWord),
            &["J. Ullman", "Jeffrey D. ULLMAN", "Edgar Codd", "---", "..."],
        );
        assert_eq!(
            names(&ix, "Jeff Ullman"),
            vec!["J. Ullman", "Jeffrey D. ULLMAN"]
        );
        assert_eq!(names(&ix, "?!"), vec!["---", "..."]);
        assert!(names(&ix, "Nobody").is_empty());
    }

    #[test]
    fn gate_drops_failing_terms_but_never_identity() {
        let plan = BlockPlan::Gate(
            TermGate::MultiWord,
            Box::new(BlockPlan::Edits {
                max_len_diff: 3,
                bigram_edits: None,
            }),
        );
        let ix = index(plan, &["title", "article", "relation model"]);
        // single-word probe: gated out, except the term equal to it
        assert_eq!(names(&ix, "title"), vec!["title"]);
        assert!(names(&ix, "titles").is_empty());
        // multi-word probe reaches multi-word terms only
        assert_eq!(names(&ix, "relation modes"), vec!["relation model"]);
    }

    #[test]
    fn any_unions_and_dedups() {
        let plan = BlockPlan::Any(vec![
            BlockPlan::SharedKey(TermKey::LastWord),
            BlockPlan::Edits {
                max_len_diff: 1,
                bigram_edits: None,
            },
        ]);
        let ix = index(plan, &["Jeff Ullman", "J. Ullman", "Jeff Ullmen", "Codd"]);
        assert_eq!(
            names(&ix, "Jeff Ullman"),
            vec!["Jeff Ullman", "J. Ullman", "Jeff Ullmen"]
        );
    }

    #[test]
    fn duplicate_terms_are_all_offered_for_identity() {
        let plan = BlockPlan::Gate(
            TermGate::MultiWord,
            Box::new(BlockPlan::SharedKey(TermKey::LastWord)),
        );
        let ix = index(plan, &["vldb", "sigmod", "vldb"]);
        assert_eq!(ix.candidates("vldb"), vec![0, 2]);
    }
}
