//! Rule-based name similarity.
//!
//! Section 4.3 of the paper: "In certain domains, rule based methods can
//! also be used to specify similarity between proper nouns (in our
//! SIGMOD/DBLP application for example, we could write a set of rules
//! describing when two names are considered similar)."
//!
//! [`NameRules`] encodes the bibliographic rules the running examples rely
//! on: matching surnames with compatible given names (full vs initial),
//! middle names that may be dropped, and a fallback to edit distance for
//! typo tolerance. Output is distance-like: `0.0` exact, `0.5` initials
//! match, `1.0` initials compatible with a dropped middle name, and
//! `3 + lev` when no rule fires (so it never collides with rule hits at
//! the thresholds the paper uses, ε ∈ {2, 3}).

use crate::blocking::{BlockPlan, TermKey};
use crate::levenshtein::Levenshtein;
use crate::tokenize::{lower, word_slices};
use crate::traits::StringMetric;

/// Rule-based similarity over person names, with configurable costs so a
/// deployment can decide which rules fire at which ε (e.g. cost 3 on
/// initials puts "J. Ullman" ~ "Jeff Ullman" exactly at the paper's
/// ε = 3 threshold, while a dropped middle name is caught at ε = 2).
#[derive(Debug, Clone)]
pub struct NameRules {
    /// Distance when surnames match and given names are initial-forms of
    /// each other.
    initials_cost: f64,
    /// Distance when surnames match and a middle name was dropped.
    dropped_middle_cost: f64,
    /// Offset added to the Levenshtein fallback when no rule fires.
    fallback_offset: f64,
    /// `name-rules(i,d,o)`: differently costed rule sets are different
    /// metrics, and whatever keys on the name must see that.
    name: String,
}

impl Default for NameRules {
    fn default() -> Self {
        NameRules::with_costs(0.5, 1.0, 3.0)
    }
}

impl NameRules {
    /// Build with explicit costs.
    pub fn with_costs(initials: f64, dropped_middle: f64, fallback_offset: f64) -> Self {
        NameRules {
            initials_cost: initials,
            dropped_middle_cost: dropped_middle,
            fallback_offset,
            name: format!("name-rules({initials},{dropped_middle},{fallback_offset})"),
        }
    }
}

/// How two name-token lists relate under the rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NameMatch {
    Exact,
    /// Same surname, every shared given-name position compatible
    /// (initial vs full form), same number of given tokens.
    Initials,
    /// Same surname, given names compatible after dropping middle names.
    DroppedMiddle,
    None,
}

/// Whether two word tokens are the same word once lowercased.
fn same_word(a: &str, b: &str) -> bool {
    if a.is_ascii() && b.is_ascii() {
        a.eq_ignore_ascii_case(b)
    } else {
        // not bytewise: some non-ASCII chars lowercase to ASCII ones
        lower(a).eq(lower(b))
    }
}

/// Whether `a` is an initial form of `b` or vice versa (or equal).
fn token_compatible(a: &str, b: &str) -> bool {
    same_word(a, b) || is_initial_of(a, b) || is_initial_of(b, a)
}

/// Whether `initial` lowercases to one char that `word` lowercased
/// starts with.
fn is_initial_of(initial: &str, word: &str) -> bool {
    let mut chars = lower(initial);
    match (chars.next(), chars.next()) {
        (Some(c), None) => lower(word).next() == Some(c),
        _ => false,
    }
}

/// Classify a pair by its word tokens, compared lowercased in place:
/// the surnames (final tokens) and then the first given names, which
/// every rule needs compatible, before anything is counted.
fn classify(a: &str, b: &str) -> NameMatch {
    let (mut ga, mut gb) = (word_slices(a), word_slices(b));
    match (ga.next_back(), gb.next_back()) {
        (None, None) => return NameMatch::Exact,
        (Some(x), Some(y)) if same_word(x, y) => {}
        _ => return NameMatch::None,
    }
    // what is left of `ga` and `gb` are the given names
    let (fa, fb) = match (ga.next(), gb.next()) {
        (None, None) => return NameMatch::Exact,
        (Some(x), Some(y)) if token_compatible(x, y) => (x, y),
        // including a surname-only match, e.g. "Ullman" vs "Jeff
        // Ullman": too weak a rule
        _ => return NameMatch::None,
    };
    let (na, nb) = (ga.clone().count(), gb.clone().count());
    if na == nb {
        if same_word(fa, fb) && ga.clone().zip(gb.clone()).all(|(x, y)| same_word(x, y)) {
            return NameMatch::Exact;
        }
        if ga.zip(gb).all(|(x, y)| token_compatible(x, y)) {
            return NameMatch::Initials;
        }
        return NameMatch::None;
    }
    // dropped middle names: the shorter given-name list must be a
    // compatible subsequence of the longer one starting at the first
    // token (checked above)
    let (short, mut long) = if na < nb { (ga, gb) } else { (gb, ga) };
    for s in short {
        if !long.any(|l| token_compatible(s, l)) {
            return NameMatch::None;
        }
    }
    NameMatch::DroppedMiddle
}

impl NameRules {
    /// The distance a rule hit costs; `None` when no rule fired.
    fn rule_cost(&self, m: NameMatch) -> Option<f64> {
        match m {
            NameMatch::Exact => Some(0.0),
            NameMatch::Initials => Some(self.initials_cost),
            NameMatch::DroppedMiddle => Some(self.dropped_middle_cost),
            NameMatch::None => None,
        }
    }
}

impl StringMetric for NameRules {
    fn distance(&self, a: &str, b: &str) -> f64 {
        // symmetrize via classify being symmetric by construction
        self.rule_cost(classify(a, b))
            .unwrap_or_else(|| self.fallback_offset + Levenshtein::raw(a, b) as f64)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn within(&self, a: &str, b: &str, epsilon: f64) -> bool {
        if let Some(cost) = self.rule_cost(classify(a, b)) {
            return cost <= epsilon;
        }
        // `offset + lev ≤ ε` needs `ε ≥ offset` (false for NaN) and lev
        // at most ε − offset: compute no edit distance past that bound,
        // with one edit of slack for the rounding of the subtraction
        epsilon >= self.fallback_offset && {
            let bound = ((epsilon - self.fallback_offset) as usize).saturating_add(1);
            Levenshtein::bounded(a, b, bound)
                .is_some_and(|lev| self.fallback_offset + lev as f64 <= epsilon)
        }
    }

    fn blocking(&self, epsilon: f64) -> Option<BlockPlan> {
        // every rule hit sits behind `classify`'s equal-surname check
        // (token lists that are both empty count as equal)
        let surname = BlockPlan::SharedKey(TermKey::LastWord);
        if epsilon < self.fallback_offset {
            // the fallback costs at least the offset: only rule hits fit
            Some(surname)
        } else {
            // ... or no rule fired and lev ≤ ε − offset
            Some(BlockPlan::Any(vec![
                surname,
                Levenshtein.blocking(epsilon - self.fallback_offset)?,
            ]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::words;
    use crate::traits::axioms;

    #[test]
    fn exact_names_match() {
        assert_eq!(NameRules::default().distance("Jeff Ullman", "Jeff Ullman"), 0.0);
        // case-insensitive via tokenization
        assert_eq!(NameRules::default().distance("jeff ullman", "Jeff Ullman"), 0.0);
    }

    #[test]
    fn initial_forms_are_close() {
        assert_eq!(NameRules::default().distance("J. Ullman", "Jeff Ullman"), 0.5);
        assert_eq!(NameRules::default().distance("E. Bertino", "Elisa Bertino"), 0.5);
    }

    #[test]
    fn dropped_middle_names() {
        assert_eq!(
            NameRules::default().distance("Jeffrey Ullman", "Jeffrey D. Ullman"),
            1.0
        );
        assert_eq!(NameRules::default().distance("J. Ullman", "Jeffrey D. Ullman"), 1.0);
    }

    #[test]
    fn different_surnames_fall_back_to_edit_distance() {
        let d = NameRules::default().distance("Marco Ferrari", "Mauro Ferrari");
        // same surname but 'marco'/'mauro' are not initial-compatible
        assert!(d >= 3.0);
        let far = NameRules::default().distance("Jeff Ullman", "Edgar Codd");
        assert!(far > d);
    }

    #[test]
    fn surname_only_is_not_enough() {
        assert!(NameRules::default().distance("Ullman", "Jeff Ullman") >= 3.0);
    }

    #[test]
    fn incompatible_first_names_do_not_match() {
        assert!(NameRules::default().distance("Bob Smith", "Alice Smith") >= 3.0);
    }

    #[test]
    fn axioms_hold() {
        axioms::assert_axioms(&NameRules::default());
        axioms::assert_within_consistent(&NameRules::default());
        // the experiment costs: the fallback sits past the 1000 offset
        axioms::assert_within_consistent(&NameRules::with_costs(3.0, 2.0, 1000.0));
    }

    #[test]
    fn name_tells_differently_costed_rules_apart() {
        assert_eq!(NameRules::default().name(), "name-rules(0.5,1,3)");
        assert_ne!(
            NameRules::default().name(),
            NameRules::with_costs(3.0, 2.0, 1000.0).name()
        );
    }

    #[test]
    fn blocking_plan_is_the_surname_until_the_fallback_is_in_reach() {
        // default costs: ε ≥ 3 makes the Levenshtein fallback live
        let m = NameRules::default();
        axioms::assert_blocking_plan(&m);
        assert_eq!(m.blocking(2.0), Some(BlockPlan::SharedKey(TermKey::LastWord)));
        assert_eq!(
            m.blocking(5.0),
            Some(BlockPlan::Any(vec![
                BlockPlan::SharedKey(TermKey::LastWord),
                Levenshtein.blocking(2.0).unwrap(),
            ]))
        );
        // different surnames, two edits apart: only the fallback finds it
        assert!(m.within("Jeff Ullman", "Jeff Ullmen", 5.0));
        // the experiment costs keep the fallback out of reach at ε = 3
        let m = NameRules::with_costs(3.0, 2.0, 1000.0);
        axioms::assert_blocking_plan(&m);
        assert_eq!(m.blocking(3.0), Some(BlockPlan::SharedKey(TermKey::LastWord)));
        // strings without a word token are all "exactly" each other
        assert!(m.within("---", "?!", 0.0));
    }

    /// The rules over [`words`]' lowercased token lists, as they read:
    /// the reference for `classify`, which compares in place.
    fn classify_lists(a: &str, b: &str) -> NameMatch {
        let compatible = |x: &String, y: &String| {
            let (short, long) = if x.len() <= y.len() { (x, y) } else { (y, x) };
            x == y || (short.chars().count() == 1 && long.starts_with(short.as_str()))
        };
        let (ta, tb) = (words(a), words(b));
        if ta == tb {
            return NameMatch::Exact;
        }
        if ta.is_empty() || tb.is_empty() || ta.last() != tb.last() {
            return NameMatch::None;
        }
        let (ga, gb) = (&ta[..ta.len() - 1], &tb[..tb.len() - 1]);
        if ga.len() == gb.len() {
            return match ga.iter().zip(gb).all(|(x, y)| compatible(x, y)) {
                true => NameMatch::Initials,
                false => NameMatch::None,
            };
        }
        let (short, long) = if ga.len() < gb.len() {
            (ga, gb)
        } else {
            (gb, ga)
        };
        match (short.first(), long.first()) {
            (Some(s), Some(l)) if compatible(s, l) => {}
            _ => return NameMatch::None,
        }
        let mut rest = long[1..].iter();
        match short[1..].iter().all(|s| rest.any(|l| compatible(s, l))) {
            true => NameMatch::DroppedMiddle,
            false => NameMatch::None,
        }
    }

    #[test]
    fn in_place_classification_matches_the_token_lists() {
        let mut names: Vec<String> = ["", "---", "Ullman", "ullman!", "SIGMOD Conference"]
            .map(String::from)
            .to_vec();
        // initials against full forms, case, non-ASCII, and chars whose
        // lowercase is ASCII (the Kelvin sign) or two chars long (İ)
        for given in "Jeffrey J. j JEFF Jürgen Ü. \u{212A}. K İlker i".split(' ') {
            for middle in ["", "D.", "David", "d"] {
                for surname in ["Ullman", "ULLMAN", "Müller", "Ullmann"] {
                    names.push(format!("{given} {middle} {surname}"));
                }
            }
        }
        for a in &names {
            for b in &names {
                assert_eq!(classify(a, b), classify_lists(a, b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn classification_is_symmetric() {
        let pairs = [
            ("J. Ullman", "Jeffrey D. Ullman"),
            ("Jeff Ullman", "J. Ullman"),
            ("GianLuigi Ferrari", "Gian Luigi Ferrari"),
        ];
        for (a, b) in pairs {
            assert_eq!(NameRules::default().distance(a, b), NameRules::default().distance(b, a));
        }
    }
}
