//! The Jaro metric, expressed as a distance (`1 − similarity`) so it fits
//! the paper's distance convention. Cited as the "Jaro metric" \[9\] in
//! Definition 7's discussion. Not strong (the triangle inequality fails),
//! so it never enables the Lemma-1 fast path. It declares no blocking
//! plan, which makes it the metric the exhaustive paths are tested with.

use crate::traits::StringMetric;

/// Jaro distance: `1 − jaro_similarity`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Jaro;

impl Jaro {
    /// Jaro similarity in `[0, 1]`.
    pub fn similarity(a: &str, b: &str) -> f64 {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() && b.is_empty() {
            return 1.0;
        }
        if a.is_empty() || b.is_empty() {
            return 0.0;
        }
        let window = (a.len().max(b.len()) / 2).saturating_sub(1);
        let mut b_matched = vec![false; b.len()];
        let mut a_matches: Vec<char> = Vec::new();
        for (i, &ca) in a.iter().enumerate() {
            let lo = i.saturating_sub(window);
            let hi = (i + window + 1).min(b.len());
            for j in lo..hi {
                if !b_matched[j] && b[j] == ca {
                    b_matched[j] = true;
                    a_matches.push(ca);
                    break;
                }
            }
        }
        let m = a_matches.len();
        if m == 0 {
            return 0.0;
        }
        // transpositions: compare match sequences
        let b_matches: Vec<char> = b
            .iter()
            .zip(b_matched.iter())
            .filter(|(_, &mt)| mt)
            .map(|(&c, _)| c)
            .collect();
        let t = a_matches
            .iter()
            .zip(b_matches.iter())
            .filter(|(x, y)| x != y)
            .count() as f64
            / 2.0;
        let m = m as f64;
        (m / a.len() as f64 + m / b.len() as f64 + (m - t) / m) / 3.0
    }
}

impl StringMetric for Jaro {
    fn distance(&self, a: &str, b: &str) -> f64 {
        1.0 - Self::similarity(a, b)
    }

    fn name(&self) -> &str {
        "jaro"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::axioms;

    #[test]
    fn identical_strings_are_similarity_one() {
        assert!((Jaro::similarity("martha", "martha") - 1.0).abs() < 1e-12);
        assert_eq!(Jaro.distance("x", "x"), 0.0);
    }

    #[test]
    fn textbook_values() {
        // classic examples from the record-linkage literature
        let s = Jaro::similarity("martha", "marhta");
        assert!((s - 0.944444).abs() < 1e-4, "martha/marhta = {s}");
        let s = Jaro::similarity("dixon", "dicksonx");
        assert!((s - 0.766667).abs() < 1e-4, "dixon/dicksonx = {s}");
    }

    #[test]
    fn disjoint_strings_have_distance_one() {
        assert_eq!(Jaro.distance("abc", "xyz"), 1.0);
        assert_eq!(Jaro.distance("", "abc"), 1.0);
    }

    #[test]
    fn axioms_hold() {
        axioms::assert_axioms(&Jaro);
        axioms::assert_within_consistent(&Jaro);
    }

    #[test]
    fn name_variants_are_close() {
        let d = Jaro.distance("Jeffrey D. Ullman", "Jeffrey Ullman");
        assert!(d < 0.15, "got {d}");
    }
}
