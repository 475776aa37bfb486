//! Damerau-Levenshtein distance (optimal string alignment variant).
//!
//! Adds adjacent-transposition to the Levenshtein edit set — valuable for
//! typo-driven name variation ("Ferarri" vs "Ferrari"). The OSA variant is
//! *not* a true metric (the triangle inequality can fail when edits
//! overlap a transposed pair), so `is_strong()` is `false`; the SEA
//! algorithm treats it like any other non-strong measure.

use crate::blocking::BlockPlan;
use crate::traits::StringMetric;

/// Optimal-string-alignment Damerau-Levenshtein distance.
#[derive(Debug, Clone, Copy, Default)]
pub struct DamerauOsa;

impl DamerauOsa {
    /// Raw OSA distance.
    pub fn raw(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        if a.is_empty() {
            return b.len();
        }
        if b.is_empty() {
            return a.len();
        }
        let w = b.len() + 1;
        // three rows: i-2, i-1, i
        let mut row2: Vec<usize> = vec![0; w];
        let mut row1: Vec<usize> = (0..w).collect();
        let mut row0: Vec<usize> = vec![0; w];
        for i in 1..=a.len() {
            row0[0] = i;
            for j in 1..=b.len() {
                let cost = usize::from(a[i - 1] != b[j - 1]);
                let mut v = (row1[j - 1] + cost)
                    .min(row1[j] + 1)
                    .min(row0[j - 1] + 1);
                if i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1] {
                    v = v.min(row2[j - 2] + 1);
                }
                row0[j] = v;
            }
            std::mem::swap(&mut row2, &mut row1);
            std::mem::swap(&mut row1, &mut row0);
        }
        row1[b.len()]
    }
}

impl StringMetric for DamerauOsa {
    fn distance(&self, a: &str, b: &str) -> f64 {
        Self::raw(a, b) as f64
    }

    fn name(&self) -> &str {
        "damerau-osa"
    }

    fn blocking(&self, epsilon: f64) -> Option<BlockPlan> {
        // every operation (transpositions included) shifts length ≤ 1,
        // and a transposition can touch three bigrams (the two around
        // the swapped pair plus the pair itself)
        BlockPlan::from_bounds(epsilon, 1.0, 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::Levenshtein;
    use crate::traits::axioms;

    #[test]
    fn transposition_costs_one() {
        assert_eq!(DamerauOsa::raw("ca", "ac"), 1);
        assert_eq!(Levenshtein::raw("ca", "ac"), 2);
        assert_eq!(DamerauOsa::raw("Ferarri", "Ferrari"), 1);
    }

    #[test]
    fn never_exceeds_levenshtein() {
        for &a in axioms::SAMPLES {
            for &b in axioms::SAMPLES {
                assert!(DamerauOsa::raw(a, b) <= Levenshtein::raw(a, b));
            }
        }
    }

    #[test]
    fn empty_cases() {
        assert_eq!(DamerauOsa::raw("", ""), 0);
        assert_eq!(DamerauOsa::raw("", "abc"), 3);
        assert_eq!(DamerauOsa::raw("abc", ""), 3);
    }

    #[test]
    fn axioms_hold() {
        axioms::assert_axioms(&DamerauOsa);
        axioms::assert_within_consistent(&DamerauOsa);
    }

    #[test]
    fn blocking_bounds_hold() {
        axioms::assert_blocking_plan(&DamerauOsa);
        assert_eq!(
            DamerauOsa.blocking(2.0),
            Some(BlockPlan::Edits {
                max_len_diff: 2,
                bigram_edits: Some(6.0)
            })
        );
    }

    #[test]
    fn osa_is_declared_non_strong() {
        // the classic OSA counterexample: d(ca, abc) = 3 > d(ca, ac) + d(ac, abc) = 1 + 1
        assert!(!DamerauOsa.is_strong());
        let d_direct = DamerauOsa::raw("ca", "abc");
        let via = DamerauOsa::raw("ca", "ac") + DamerauOsa::raw("ac", "abc");
        assert!(d_direct > via, "expected triangle violation: {d_direct} vs {via}");
    }
}
