//! Levenshtein edit distance — the paper's canonical *strong* measure
//! (unit cost per insert, delete or substitute; footnote to Definition 7).

use crate::blocking::BlockPlan;
use crate::traits::StringMetric;

/// Unit-cost Levenshtein distance.
///
/// `distance` runs the classic two-row dynamic program in `O(|a|·|b|)`
/// time and `O(min(|a|,|b|))` space; `within` uses a banded variant that
/// bails out as soon as the band exceeds the threshold, which is what the
/// SEA algorithm's candidate verification calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Levenshtein;

impl Levenshtein {
    /// Raw edit distance between two strings (in `usize`).
    pub fn raw(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        // keep the shorter string in the inner dimension
        let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
        if short.is_empty() {
            return long.len();
        }
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut cur: Vec<usize> = vec![0; short.len() + 1];
        for (i, &lc) in long.iter().enumerate() {
            cur[0] = i + 1;
            for (j, &sc) in short.iter().enumerate() {
                let cost = usize::from(lc != sc);
                cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[short.len()]
    }

    /// Banded check: is the edit distance at most `k`? Runs in
    /// `O(k · min(|a|,|b|))` and exits early when the whole band exceeds
    /// `k`.
    pub fn raw_within(a: &str, b: &str, k: usize) -> bool {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let (short, long) = if a.len() <= b.len() { (&a, &b) } else { (&b, &a) };
        if long.len() - short.len() > k {
            return false;
        }
        if short.is_empty() {
            return long.len() <= k;
        }
        let inf = k + 1;
        let n = short.len();
        let mut prev: Vec<usize> = (0..=n).map(|j| j.min(inf)).collect();
        let mut cur: Vec<usize> = vec![inf; n + 1];
        for (i, &lc) in long.iter().enumerate() {
            cur.fill(inf);
            // only cells within `k` of the diagonal can hold values ≤ k
            let lo = (i + 1).saturating_sub(k);
            let hi = (i + 1 + k).min(n);
            if lo == 0 {
                cur[0] = i + 1; // i + 1 ≤ k here since lo == 0
            }
            let mut row_min = cur[0];
            for j in lo.max(1)..=hi {
                let cost = usize::from(lc != short[j - 1]);
                let v = (prev[j - 1].saturating_add(cost))
                    .min(prev[j].saturating_add(1))
                    .min(cur[j - 1].saturating_add(1))
                    .min(inf);
                cur[j] = v;
                row_min = row_min.min(v);
            }
            if row_min > k {
                return false;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        prev[n] <= k
    }
}

impl StringMetric for Levenshtein {
    fn distance(&self, a: &str, b: &str) -> f64 {
        Self::raw(a, b) as f64
    }

    fn is_strong(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "levenshtein"
    }

    fn within(&self, a: &str, b: &str, epsilon: f64) -> bool {
        if epsilon < 0.0 {
            return false;
        }
        Self::raw_within(a, b, epsilon.floor() as usize)
    }

    fn blocking(&self, epsilon: f64) -> Option<BlockPlan> {
        // every edit changes the length by at most one, and an
        // insert/delete/substitute touches at most two bigrams
        BlockPlan::from_bounds(epsilon, 1.0, 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::axioms;

    #[test]
    fn known_distances() {
        assert_eq!(Levenshtein::raw("kitten", "sitting"), 3);
        assert_eq!(Levenshtein::raw("", "abc"), 3);
        assert_eq!(Levenshtein::raw("abc", ""), 3);
        assert_eq!(Levenshtein::raw("abc", "abc"), 0);
        assert_eq!(Levenshtein::raw("flaw", "lawn"), 2);
    }

    #[test]
    fn paper_example_distances() {
        // Example 11: d(relation, relational)=2, d(model, models)=1
        assert_eq!(Levenshtein::raw("relation", "relational"), 2);
        assert_eq!(Levenshtein::raw("model", "models"), 1);
        // Section 2.2: GianLuigi vs Gian Luigi differ by one space
        assert_eq!(
            Levenshtein::raw("GianLuigi Ferrari", "Gian Luigi Ferrari"),
            1
        );
        assert_eq!(Levenshtein::raw("Marco Ferrari", "Mauro Ferrari"), 2);
    }

    #[test]
    fn unicode_is_per_char_not_per_byte() {
        // ü→u, ß→s, +s: three char-level edits (not byte-level)
        assert_eq!(Levenshtein::raw("Grüße", "Grusse"), 3);
        assert_eq!(Levenshtein::raw("é", "e"), 1);
    }

    #[test]
    fn axioms_hold() {
        axioms::assert_axioms(&Levenshtein);
        axioms::assert_triangle(&Levenshtein);
        axioms::assert_within_consistent(&Levenshtein);
    }

    #[test]
    fn blocking_bounds_hold() {
        axioms::assert_blocking_plan(&Levenshtein);
        assert_eq!(
            Levenshtein.blocking(2.0),
            Some(BlockPlan::Edits {
                max_len_diff: 2,
                bigram_edits: Some(4.0)
            })
        );
    }

    #[test]
    fn banded_within_matches_raw_exhaustively() {
        let words = [
            "", "a", "ab", "abc", "abcd", "hello", "hallo", "hull", "world",
            "word", "sword", "Jeff Ullman", "J. Ullman",
        ];
        for &a in &words {
            for &b in &words {
                let d = Levenshtein::raw(a, b);
                for k in 0..8 {
                    assert_eq!(
                        Levenshtein::raw_within(a, b, k),
                        d <= k,
                        "within({a:?},{b:?},{k}) should be {} (d={d})",
                        d <= k
                    );
                }
            }
        }
    }

    #[test]
    fn negative_epsilon_never_within() {
        assert!(!Levenshtein.within("a", "a", -1.0));
    }

    #[test]
    fn length_gap_short_circuits() {
        assert!(!Levenshtein::raw_within("ab", "abcdefgh", 3));
        assert!(Levenshtein::raw_within("ab", "abcde", 3));
    }
}
