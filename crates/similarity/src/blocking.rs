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
//! | `Edits { max_len_diff: D, bigram_edits: L }` | `‖a│−│b‖ ≤ D` and, when `L` is given and `need = max(│a│, │b│) − 1 − L` exceeds 1, `shared_bigrams(a, b) ≥ need` (char lengths, bigram *multiset* intersection, 10⁻⁹ of float slack) |
//! | `SharedKey(k)` | `k(a) = k(b)` |
//! | `Gate(g, p)` | `g(a) ∧ g(b) ∧ p(a, b)` |
//! | `Any(ps)` | some `p ∈ ps` has `p(a, b)` |

use crate::combinators::multi_word;
use crate::tokenize::{last_word, lower, word_slices};

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

    /// The slice of `s` whose lowercased chars are its key.
    fn source(self, s: &str) -> &str {
        match self {
            TermKey::LastWord => word_slices(s).next_back().unwrap_or(""),
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

/// Values grouped under their distinct keys in one flat array: the
/// keys ascend, and key `i`'s values are `values[starts[i]..starts[i + 1]]`.
struct Postings<K, V> {
    keys: Vec<K>,
    starts: Vec<usize>,
    values: Vec<V>,
}

impl<K: PartialEq, V> Postings<K, V> {
    /// Group `(key, value)` pairs sorted by key.
    fn from_sorted(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut p = Postings {
            keys: Vec::new(),
            starts: Vec::new(),
            values: Vec::new(),
        };
        for (k, v) in entries {
            if p.keys.last() != Some(&k) {
                p.keys.push(k);
                p.starts.push(p.values.len());
            }
            p.values.push(v);
        }
        p.starts.push(p.values.len());
        p
    }

    /// The values of the key `cmp` orders as equal (`cmp` compares a
    /// stored key with the one sought).
    fn find(&self, cmp: impl FnMut(&K) -> std::cmp::Ordering) -> &[V] {
        match self.keys.binary_search_by(cmp) {
            Ok(at) => &self.values[self.starts[at]..self.starts[at + 1]],
            Err(_) => &[],
        }
    }
}

/// Inverted bigram postings over one term subset, in length order.
struct EditsIndex {
    max_len_diff: usize,
    bigram_edits: Option<f64>,
    /// Local slot → term id; slots ascend by term char length.
    ids: Vec<u32>,
    /// Local slot → char length (ascending).
    lens: Vec<usize>,
    /// Bigram → `(local slot, multiplicity)`, ascending by slot — so by
    /// length; empty without a filter.
    postings: Postings<u64, (u32, u32)>,
}

impl EditsIndex {
    fn build(
        max_len_diff: usize,
        bigram_edits: Option<f64>,
        terms: &[String],
        ids: &[u32],
    ) -> Self {
        let mut by_len: Vec<(usize, u32)> = ids
            .iter()
            .map(|&id| (terms[id as usize].chars().count(), id))
            .collect();
        by_len.sort_unstable();
        let mut entries: Vec<(u64, u32, u32)> = Vec::new();
        if bigram_edits.is_some() {
            for (slot, &(_, id)) in (0u32..).zip(&by_len) {
                let chars: Vec<char> = terms[id as usize].chars().collect();
                entries.extend(bigram_counts(&chars).into_iter().map(|(g, n)| (g, slot, n)));
            }
            entries.sort_unstable();
        }
        EditsIndex {
            max_len_diff,
            bigram_edits,
            ids: by_len.iter().map(|&(_, id)| id).collect(),
            lens: by_len.iter().map(|&(l, _)| l).collect(),
            postings: Postings::from_sorted(entries.into_iter().map(|(g, slot, n)| (g, (slot, n)))),
        }
    }

    fn candidates(&self, probe: &str, out: &mut Vec<u32>) {
        let chars: Vec<char> = probe.chars().collect();
        let lp = chars.len();
        // shared bigrams a term of char length `l` needs
        let need = |l: usize| match self.bigram_edits {
            Some(loss) => lp.max(l) as f64 - 1.0 - loss,
            None => f64::NEG_INFINITY,
        };
        // the length window, as a slot range
        let lo = self
            .lens
            .partition_point(|&l| l < lp.saturating_sub(self.max_len_diff));
        let hi = self
            .lens
            .partition_point(|&l| l <= lp.saturating_add(self.max_len_diff));
        // The count filter is only trusted above one full shared bigram:
        // such a term is on some posting list of the probe's bigrams, so
        // the inverted index cannot miss it. At or below, a within-ε term
        // may share no bigram at all (short strings), and it goes through
        // unfiltered. `need` grows with the length, so those terms are
        // the front of the window.
        let mid = lo + self.lens[lo..hi].partition_point(|&l| need(l) <= 1.0);
        out.extend_from_slice(&self.ids[lo..mid]);
        if mid == hi {
            return;
        }
        // count shared bigrams for the rest of the window only
        let mut shared = vec![0u32; hi - mid];
        let (mid, hi) = (mid as u32, hi as u32);
        for (g, in_probe) in bigram_counts(&chars) {
            let list = self.postings.find(|k| k.cmp(&g));
            let first = list.partition_point(|&(slot, _)| slot < mid);
            for &(slot, in_term) in list[first..].iter().take_while(|&&(slot, _)| slot < hi) {
                shared[(slot - mid) as usize] += in_probe.min(in_term);
            }
        }
        for (slot, &n) in (mid as usize..).zip(&shared) {
            if f64::from(n) >= need(self.lens[slot]) - 1e-9 {
                out.push(self.ids[slot]);
            }
        }
    }
}

/// One plan node compiled over the terms that reach it.
enum Node {
    Edits(EditsIndex),
    /// Key → term ids.
    Key(TermKey, Postings<String, u32>),
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
                let mut entries: Vec<(String, u32)> = ids
                    .iter()
                    .map(|&id| (key.of(&terms[id as usize]), id))
                    .collect();
                entries.sort_unstable();
                Node::Key(*key, Postings::from_sorted(entries))
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
                // the probe's key, compared char by char: no allocation
                let source = key.source(probe);
                out.extend_from_slice(postings.find(|k| k.chars().cmp(lower(source))));
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
/// [`BlockPlan`]: key postings, and length-ordered terms with inverted
/// bigram postings, mirroring the plan's shape.
///
/// [`TermIndex::candidates`]`(probe)` is exactly the terms `t` with
/// `P(probe, t)` (the module docs' relation) plus every term equal to
/// the probe — each plan node enumerates the terms its relation admits,
/// no more — so for the plan `metric.blocking(ε)` returned it is a
/// superset of `{ t : metric.within(probe, t, ε) }`.
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

    /// `P(a, b)` of the module docs' table, computed pair by pair.
    fn relation(plan: &BlockPlan, a: &str, b: &str) -> bool {
        match plan {
            BlockPlan::Edits {
                max_len_diff,
                bigram_edits,
            } => {
                let (ca, cb): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
                let need = |loss: f64| ca.len().max(cb.len()) as f64 - 1.0 - loss;
                let shared = || {
                    let (ga, gb) = (bigram_counts(&ca), bigram_counts(&cb));
                    ga.iter()
                        .filter_map(|&(g, n)| {
                            gb.iter().find(|&&(h, _)| h == g).map(|&(_, m)| n.min(m))
                        })
                        .sum::<u32>()
                };
                ca.len().abs_diff(cb.len()) <= *max_len_diff
                    && bigram_edits.is_none_or(|loss| {
                        need(loss) <= 1.0 || f64::from(shared()) >= need(loss) - 1e-9
                    })
            }
            BlockPlan::SharedKey(key) => key.of(a) == key.of(b),
            BlockPlan::Gate(gate, inner) => {
                gate.admits(a) && gate.admits(b) && relation(inner, a, b)
            }
            BlockPlan::Any(plans) => plans.iter().any(|p| relation(p, a, b)),
        }
    }

    /// Names over shared surnames (full, initials, middle initials, near
    /// misses, non-ASCII) beside 34–74-char titles and single-word tags,
    /// generated deterministically.
    fn mixed_corpus() -> Vec<String> {
        let given: Vec<&str> = "Jeffrey Jennifer Hector Élisa Jürgen Surajit Laura"
            .split(' ')
            .collect();
        let surnames: Vec<&str> = "Ullman Widom Garcia-Molina Bertino Müller Chaudhuri"
            .split(' ')
            .collect();
        let words: Vec<&str> = "efficient similarity joins over taxonomies XML query \
            processing semistructured data ontologies integration of the"
            .split_whitespace()
            .collect();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut pick = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let mut corpus: Vec<String> = ["title", "author", "article", "", "?!", "db"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        for _ in 0..120 {
            let (first, last) = (given[pick(given.len())], surnames[pick(surnames.len())]);
            corpus.push(match pick(4) {
                0 => format!("{first} {last}"),
                1 => format!("{}. {last}", first.chars().next().unwrap()),
                2 => format!("{first} {}. {last}", char::from(b'A' + pick(26) as u8)),
                _ => format!("{first} {last}{}", &last[last.len() - 1..]),
            });
        }
        while corpus.len() < 240 {
            let mut title = String::new();
            let target = 34 + pick(41);
            while title.chars().count() < target {
                title.push_str(words[pick(words.len())]);
                title.push(' ');
            }
            corpus.push(title.chars().take(target).collect());
        }
        corpus
    }

    #[test]
    fn candidates_are_exactly_the_plan_relation_plus_identity() {
        use crate::combinators::{MinOf, MultiWordGate};
        use crate::{DamerauOsa, Levenshtein, NameRules, StringMetric};
        let corpus = mixed_corpus();
        let experiment = MinOf::new(
            NameRules::with_costs(3.0, 2.0, 1000.0),
            MultiWordGate::new(Levenshtein),
        );
        let plans = [
            experiment.blocking(3.0).unwrap(),
            NameRules::default().blocking(5.0).unwrap(),
            Levenshtein.blocking(0.0).unwrap(),
            Levenshtein.blocking(1.0).unwrap(),
            Levenshtein.blocking(3.0).unwrap(),
            Levenshtein.blocking(12.0).unwrap(),
            DamerauOsa.blocking(2.0).unwrap(),
            BlockPlan::Edits {
                max_len_diff: 4,
                bigram_edits: None,
            },
        ];
        // every term, plus probes the index does not hold: an unknown
        // author, typos of titles, and strings of no word at all
        let mut probes = corpus.clone();
        let typos = corpus.iter().skip(126).step_by(9);
        probes.extend(typos.map(|t| t.replacen('e', "", 1)));
        probes.extend(["Jeff Ullmann", "J. Müler", "---", "x"].map(String::from));
        for plan in plans {
            let index = TermIndex::build(plan.clone(), corpus.clone());
            for probe in &probes {
                let expected: Vec<u32> = (0u32..)
                    .zip(&corpus)
                    .filter(|&(_, t)| t == probe || relation(&plan, probe, t))
                    .map(|(id, _)| id)
                    .collect();
                assert_eq!(index.candidates(probe), expected, "{plan:?} on {probe:?}");
            }
        }
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
