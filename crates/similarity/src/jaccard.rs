//! Jaccard token distance.
//!
//! The paper's footnote defines Jaccard similarity between word sets as
//! `|S ∩ T| / |S ∪ T|`; we expose the corresponding *distance*
//! `1 − similarity`, which is a true metric (strong).

use crate::tokenize::words;
use crate::traits::StringMetric;
use std::collections::HashSet;

/// Jaccard distance over lowercase word tokens.
#[derive(Debug, Clone, Copy, Default)]
pub struct JaccardTokens;

impl JaccardTokens {
    /// Jaccard similarity `|S ∩ T| / |S ∪ T|` of the word sets; `1.0`
    /// when both strings tokenize to nothing.
    pub fn similarity(a: &str, b: &str) -> f64 {
        let sa: HashSet<String> = words(a).into_iter().collect();
        let sb: HashSet<String> = words(b).into_iter().collect();
        if sa.is_empty() && sb.is_empty() {
            return 1.0;
        }
        let inter = sa.intersection(&sb).count() as f64;
        let union = sa.union(&sb).count() as f64;
        inter / union
    }
}

impl StringMetric for JaccardTokens {
    fn distance(&self, a: &str, b: &str) -> f64 {
        1.0 - Self::similarity(a, b)
    }

    fn is_strong(&self) -> bool {
        // the Jaccard distance on sets satisfies the triangle inequality
        true
    }

    fn name(&self) -> &str {
        "jaccard-tokens"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::axioms;

    #[test]
    fn identical_token_sets_have_distance_zero() {
        assert_eq!(JaccardTokens.distance("a b c", "c b a"), 0.0);
        // sets, not multisets: how often a token repeats does not matter
        assert_eq!(JaccardTokens.distance("a a b", "a b b"), 0.0);
        // case and punctuation are normalized away
        assert_eq!(JaccardTokens.distance("J. Ullman", "j ullman"), 0.0);
    }

    #[test]
    fn disjoint_sets_have_distance_one() {
        assert_eq!(JaccardTokens.distance("a b", "c d"), 1.0);
    }

    #[test]
    fn partial_overlap() {
        // {sigmod, conference} vs {sigmod}: |∩|=1, |∪|=2
        let d = JaccardTokens.distance("SIGMOD Conference", "SIGMOD");
        assert!((d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_strings_are_identical() {
        assert_eq!(JaccardTokens.distance("", ""), 0.0);
        assert_eq!(JaccardTokens.distance("", "abc"), 1.0);
    }

    #[test]
    fn axioms_and_triangle_hold() {
        axioms::assert_axioms(&JaccardTokens);
        axioms::assert_triangle(&JaccardTokens);
        axioms::assert_within_consistent(&JaccardTokens);
    }
}
