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
use crate::tokenize::words;
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

/// Whether `a` is an initial form of `b` or vice versa (or equal).
fn token_compatible(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    short.chars().count() == 1 && long.starts_with(short)
}

fn classify(a: &str, b: &str) -> NameMatch {
    let ta = words(a);
    let tb = words(b);
    if ta.is_empty() || tb.is_empty() {
        return if ta == tb { NameMatch::Exact } else { NameMatch::None };
    }
    if ta == tb {
        return NameMatch::Exact;
    }
    // surname = final token
    if ta.last() != tb.last() {
        return NameMatch::None;
    }
    let ga = &ta[..ta.len() - 1];
    let gb = &tb[..tb.len() - 1];
    if ga.len() == gb.len() {
        if ga
            .iter()
            .zip(gb.iter())
            .all(|(x, y)| token_compatible(x, y))
        {
            return NameMatch::Initials;
        }
        return NameMatch::None;
    }
    // dropped middle names: the shorter given-name list must be a
    // compatible subsequence of the longer one starting at the first token
    let (short, long) = if ga.len() < gb.len() { (ga, gb) } else { (gb, ga) };
    if short.is_empty() {
        // e.g. "Ullman" vs "Jeff Ullman" — surname-only is too weak a rule
        return NameMatch::None;
    }
    if !token_compatible(&short[0], &long[0]) {
        return NameMatch::None;
    }
    let mut li = 1;
    for s in &short[1..] {
        let mut found = false;
        while li < long.len() {
            if token_compatible(s, &long[li]) {
                found = true;
                li += 1;
                break;
            }
            li += 1;
        }
        if !found {
            return NameMatch::None;
        }
    }
    NameMatch::DroppedMiddle
}

impl StringMetric for NameRules {
    fn distance(&self, a: &str, b: &str) -> f64 {
        // symmetrize via classify being symmetric by construction
        match classify(a, b) {
            NameMatch::Exact => 0.0,
            NameMatch::Initials => self.initials_cost,
            NameMatch::DroppedMiddle => self.dropped_middle_cost,
            NameMatch::None => self.fallback_offset + Levenshtein::raw(a, b) as f64,
        }
    }

    fn name(&self) -> &str {
        &self.name
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
