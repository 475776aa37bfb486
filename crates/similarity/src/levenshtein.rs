//! Levenshtein edit distance — the paper's canonical *strong* measure
//! (unit cost per insert, delete or substitute; footnote to Definition 7).

use crate::blocking::BlockPlan;
use crate::traits::StringMetric;

/// Unit-cost Levenshtein distance.
///
/// `distance` and `within` share one kernel: a dynamic program over the
/// diagonal band that can still hold a path within the bound, after the
/// common prefix and suffix are stripped. ASCII pairs run on their bytes
/// with the two rows on the stack; other pairs compare `char`s.
#[derive(Debug, Clone, Copy, Default)]
pub struct Levenshtein;

/// Row length (cells) the kernel keeps on the stack; longer rows go to
/// the heap.
const STACK_ROW: usize = 128;

impl Levenshtein {
    /// Raw edit distance between two strings (in `usize`).
    pub fn raw(a: &str, b: &str) -> usize {
        Self::bounded(a, b, usize::MAX).expect("no distance exceeds the longer length")
    }

    /// Banded check: is the edit distance at most `k`? Strips the common
    /// prefix and suffix, then fills a diagonal band at most `k + 1`
    /// cells wide, one row per char of the longer rest: `O((k + 1) ·
    /// max(|a|, |b|))` time, less when a whole row of the band exceeds
    /// `k` and it stops. Allocates nothing for ASCII strings whose
    /// shorter rest is under 128 chars.
    pub fn raw_within(a: &str, b: &str, k: usize) -> bool {
        Self::bounded(a, b, k).is_some()
    }

    /// The edit distance when it is at most `k`, else `None`.
    pub(crate) fn bounded(a: &str, b: &str, k: usize) -> Option<usize> {
        if a.is_ascii() && b.is_ascii() {
            banded(a.as_bytes(), b.as_bytes(), k)
        } else {
            let a: Vec<char> = a.chars().collect();
            let b: Vec<char> = b.chars().collect();
            banded(&a, &b, k)
        }
    }
}

/// The kernel behind [`Levenshtein::bounded`].
///
/// A path of cost at most `k` through cell `(i, j)` pays at least
/// `|i − j|` to reach it and `|(m − n) − (i − j)|` to leave it, so only
/// the cells with `−(k − d)/2 ≤ i − j ≤ (k + d)/2` (`d = m − n`) are
/// computed; the cells beside the band count as `k + 1`. No distance
/// exceeds `m`, so `k` is capped there and no cell can overflow.
fn banded<T: Copy + PartialEq>(a: &[T], b: &[T], k: usize) -> Option<usize> {
    let prefix = a.iter().zip(b).take_while(|(x, y)| x == y).count();
    let (a, b) = (&a[prefix..], &b[prefix..]);
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    let (a, b) = (&a[..a.len() - suffix], &b[..b.len() - suffix]);
    // rows run over the longer string, columns over the shorter
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (short.len(), long.len());
    let d = m - n;
    if d > k {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    let k = k.min(m);
    let inf = k + 1;
    let (below, above) = ((k + d) / 2, (k - d) / 2);
    let mut stack = [0usize; 2 * STACK_ROW];
    let mut heap = Vec::new();
    let rows = if n < STACK_ROW {
        &mut stack[..2 * (n + 1)]
    } else {
        heap.resize(2 * (n + 1), 0);
        &mut heap[..]
    };
    let (mut prev, mut cur) = rows.split_at_mut(n + 1);
    // row 0's band; a row reads only cells the row before wrote, plus
    // one on each side of its band, which are set to `inf` as it starts
    for (j, cell) in (0..=above.min(n)).zip(prev.iter_mut()) {
        *cell = j;
    }
    for (i, &lc) in (1usize..).zip(long) {
        let lo = i.saturating_sub(below);
        let hi = (i + above).min(n);
        if i + above <= n {
            prev[hi] = inf;
        }
        let mut row_min = inf;
        if lo == 0 {
            cur[0] = i;
            row_min = i;
        } else {
            cur[lo - 1] = inf;
        }
        for j in lo.max(1)..=hi {
            let cost = usize::from(lc != short[j - 1]);
            let v = (prev[j - 1] + cost).min(prev[j] + 1).min(cur[j - 1] + 1);
            cur[j] = v;
            row_min = row_min.min(v);
        }
        if row_min > k {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    Some(prev[n]).filter(|&v| v <= k)
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
        // NaN and negative ε admit nothing; `as` floors, and saturates ∞
        // and every ε ≥ 2⁶⁴ to `usize::MAX`
        epsilon >= 0.0 && Self::raw_within(a, b, epsilon as usize)
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
    fn nan_is_never_within_and_huge_thresholds_saturate() {
        assert!(!Levenshtein.within("a", "a", f64::NAN));
        assert!(!Levenshtein.within("a", "b", f64::NAN));
        for eps in [1.8e19, 1e30, f64::MAX, f64::INFINITY] {
            assert!(Levenshtein.within("kitten", "sitting", eps));
            assert!(Levenshtein.within("", "Grüße", eps));
        }
        assert!(Levenshtein::raw_within("kitten", "sitting", usize::MAX));
        assert!(Levenshtein::raw_within("", "", usize::MAX));
    }

    /// The plain full-matrix dynamic program, over chars.
    fn reference(a: &str, b: &str) -> usize {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        let mut prev: Vec<usize> = (0..=b.len()).collect();
        for (i, &ca) in a.iter().enumerate() {
            let mut cur = vec![i + 1; b.len() + 1];
            for (j, &cb) in b.iter().enumerate() {
                cur[j + 1] = (prev[j] + usize::from(ca != cb))
                    .min(prev[j + 1] + 1)
                    .min(cur[j] + 1);
            }
            prev = cur;
        }
        prev[b.len()]
    }

    #[test]
    fn kernel_matches_the_full_matrix_on_generated_strings() {
        // xorshift64 over small alphabets, so pairs share prefixes,
        // suffixes and runs; lengths cross the stack row (128 cells)
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        let alphabets: [&[char]; 2] = [&['a', 'b', 'c', ' '], &['a', 'ü', 'ß', 'é', ' ']];
        for round in 0..400 {
            let alphabet = alphabets[round % 2];
            let len = [3, 12, 40, 150][round % 4];
            let a: String = (0..next(len) + 1)
                .map(|_| alphabet[next(alphabet.len())])
                .collect();
            // b: a few edits of a, or an unrelated string
            let mut b: Vec<char> = a.chars().collect();
            if round % 5 == 0 {
                b = (0..next(len) + 1)
                    .map(|_| alphabet[next(alphabet.len())])
                    .collect();
            } else {
                for _ in 0..next(6) {
                    let at = next(b.len() + 1);
                    match next(3) {
                        0 => b.insert(at, alphabet[next(alphabet.len())]),
                        1 if at < b.len() => drop(b.remove(at)),
                        _ if at < b.len() => b[at] = alphabet[next(alphabet.len())],
                        _ => {}
                    }
                }
            }
            let b: String = b.into_iter().collect();
            let d = reference(&a, &b);
            assert_eq!(Levenshtein::raw(&a, &b), d, "raw({a:?}, {b:?})");
            for k in [0, 1, 2, 3, 5, 8, d.saturating_sub(1), d, d + 1, usize::MAX] {
                assert_eq!(
                    Levenshtein::raw_within(&a, &b, k),
                    d <= k,
                    "raw_within({a:?}, {b:?}, {k}) with d = {d}"
                );
            }
        }
    }

    #[test]
    fn length_gap_short_circuits() {
        assert!(!Levenshtein::raw_within("ab", "abcdefgh", 3));
        assert!(Levenshtein::raw_within("ab", "abcde", 3));
    }
}
