//! Metric combinators: scaling, minimum-of and the multi-word gate, used
//! to tune measures to the paper's ε scale (ε ∈ {2, 3} assumes
//! edit-distance-like magnitudes) and to build the experiment metric.

use crate::blocking::{BlockPlan, TermGate};
use crate::traits::StringMetric;

/// Multiply an inner metric's distances by a constant factor — e.g.
/// `Scaled::new(Jaro, 10.0)` makes a `[0,1]` metric comparable to edit
/// distances at the paper's thresholds.
#[derive(Debug, Clone)]
pub struct Scaled<M> {
    inner: M,
    factor: f64,
    name: String,
}

impl<M: StringMetric> Scaled<M> {
    /// Build with a positive factor.
    pub fn new(inner: M, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let name = format!("{}x{}", inner.name(), factor);
        Scaled {
            inner,
            factor,
            name,
        }
    }
}

impl<M: StringMetric> StringMetric for Scaled<M> {
    fn distance(&self, a: &str, b: &str) -> f64 {
        self.inner.distance(a, b) * self.factor
    }

    fn is_strong(&self) -> bool {
        // positive scaling preserves the triangle inequality
        self.inner.is_strong()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn within(&self, a: &str, b: &str, epsilon: f64) -> bool {
        self.inner.within(a, b, epsilon / self.factor)
    }

    fn blocking(&self, epsilon: f64) -> Option<BlockPlan> {
        // the threshold `within` hands the inner metric
        self.inner.blocking(epsilon / self.factor)
    }
}

/// Minimum of two metrics — "similar under either notion". The minimum of
/// two metrics is generally *not* a metric, so this is never strong.
#[derive(Debug, Clone)]
pub struct MinOf<A, B> {
    a: A,
    b: B,
    name: String,
}

impl<A: StringMetric, B: StringMetric> MinOf<A, B> {
    /// Combine two metrics by taking the smaller distance.
    pub fn new(a: A, b: B) -> Self {
        let name = format!("min({},{})", a.name(), b.name());
        MinOf { a, b, name }
    }
}

impl<A: StringMetric, B: StringMetric> StringMetric for MinOf<A, B> {
    fn distance(&self, x: &str, y: &str) -> f64 {
        self.a.distance(x, y).min(self.b.distance(x, y))
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn within(&self, x: &str, y: &str, epsilon: f64) -> bool {
        self.a.within(x, y, epsilon) || self.b.within(x, y, epsilon)
    }

    fn blocking(&self, epsilon: f64) -> Option<BlockPlan> {
        // within under either side: the union of both plans
        Some(BlockPlan::Any(vec![
            self.a.blocking(epsilon)?,
            self.b.blocking(epsilon)?,
        ]))
    }
}

/// Gate an inner metric to multi-word strings: two *different* strings
/// are only eligible for similarity when **both** contain whitespace.
/// Single-word terms (schema tags like `title`/`article`, venue acronyms)
/// are pushed out of reach by adding a large offset.
///
/// This is a domain rule in the paper's Section-4.3 sense: bibliographic
/// *content* terms (names, titles, venue names) are multi-word, while
/// short single-word schema terms can sit 2–3 edits apart without being
/// remotely related — Levenshtein("article", "title") is 3, and merging
/// them would make the hierarchy similarity inconsistent.
#[derive(Debug, Clone)]
pub struct MultiWordGate<M> {
    inner: M,
    offset: f64,
    name: String,
}

impl<M: StringMetric> MultiWordGate<M> {
    /// Gate `inner` with the default offset of 1000.
    pub fn new(inner: M) -> Self {
        let name = format!("multiword({})", inner.name());
        MultiWordGate {
            inner,
            offset: 1000.0,
            name,
        }
    }
}

pub(crate) fn multi_word(s: &str) -> bool {
    s.trim().contains(char::is_whitespace)
}

impl<M: StringMetric> StringMetric for MultiWordGate<M> {
    fn distance(&self, a: &str, b: &str) -> f64 {
        if a == b {
            return 0.0;
        }
        if multi_word(a) && multi_word(b) {
            self.inner.distance(a, b)
        } else {
            self.offset + self.inner.distance(a, b)
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn within(&self, a: &str, b: &str, epsilon: f64) -> bool {
        if a == b {
            return epsilon >= 0.0;
        }
        if multi_word(a) && multi_word(b) {
            self.inner.within(a, b, epsilon)
        } else {
            epsilon >= self.offset && self.inner.within(a, b, epsilon - self.offset)
        }
    }

    fn blocking(&self, epsilon: f64) -> Option<BlockPlan> {
        let inner = self.inner.blocking(epsilon)?;
        if epsilon < self.offset {
            // a gated pair costs at least the offset: distinct strings
            // within ε are both multi-word and within ε under the inner
            Some(BlockPlan::Gate(TermGate::MultiWord, Box::new(inner)))
        } else {
            // d_gate ≥ d_inner: the inner plan alone stays admissible
            Some(inner)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaro::Jaro;
    use crate::levenshtein::Levenshtein;
    use crate::rules::NameRules;
    use crate::traits::axioms;

    #[test]
    fn scaled_scales_and_keeps_strength() {
        let m = Scaled::new(Levenshtein, 2.0);
        assert_eq!(m.distance("abc", "abd"), 2.0);
        assert!(m.is_strong());
        axioms::assert_axioms(&m);
        axioms::assert_triangle(&m);
        axioms::assert_within_consistent(&m);
        axioms::assert_blocking_plan(&m);
        axioms::assert_blocking_plan(&Scaled::new(Levenshtein, 0.1));
        // the plan is the inner metric's at the rescaled threshold
        assert_eq!(m.blocking(3.0), Levenshtein.blocking(1.5));
    }

    #[test]
    fn scaled_jaro_reaches_edit_scale() {
        let m = Scaled::new(Jaro, 10.0);
        let d = m.distance("Jeffrey D. Ullman", "Jeffrey Ullman");
        assert!(d < 3.0, "scaled jaro {d} should clear the paper's eps=3");
        assert!(!m.is_strong());
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn zero_scale_panics() {
        Scaled::new(Levenshtein, 0.0);
    }

    #[test]
    fn multiword_gate_blocks_single_word_merges() {
        let m = MultiWordGate::new(Levenshtein);
        // the pair that motivated the gate
        assert!(m.distance("article", "title") > 100.0);
        assert!(!m.within("article", "title", 3.0));
        // multi-word pairs pass through
        assert_eq!(m.distance("Jeff Ullman", "Jeff Ullmann"), 1.0);
        assert!(m.within("Jeff Ullman", "Jeff Ullmann", 2.0));
        // identity is free regardless of word count
        assert_eq!(m.distance("title", "title"), 0.0);
        assert!(m.within("title", "title", 0.0));
        // mixed pairs are gated too
        assert!(!m.within("VLDB", "Very Large DB", 3.0));
        axioms::assert_axioms(&m);
        axioms::assert_within_consistent(&m);
    }

    #[test]
    fn multiword_gate_plan_gates_below_the_offset_only() {
        let m = MultiWordGate::new(Levenshtein);
        axioms::assert_blocking_plan(&m);
        let inner = Levenshtein.blocking(3.0).unwrap();
        assert_eq!(
            m.blocking(3.0),
            Some(BlockPlan::Gate(TermGate::MultiWord, Box::new(inner)))
        );
        // at ε ≥ offset single-word pairs come back into reach
        assert_eq!(m.blocking(1003.0), Levenshtein.blocking(1003.0));
        assert!(m.within("title", "article", 1003.0));
        // no inner plan, no plan
        assert_eq!(MultiWordGate::new(Jaro).blocking(3.0), None);
    }

    #[test]
    fn min_of_takes_smaller_and_is_never_strong() {
        let m = MinOf::new(NameRules::default(), Levenshtein);
        // NameRules gives 0.5 for initials; Levenshtein gives more
        assert_eq!(m.distance("J. Ullman", "Jeff Ullman"), 0.5);
        assert!(!m.is_strong());
        axioms::assert_axioms(&m);
        axioms::assert_within_consistent(&m);
    }

    #[test]
    fn min_of_plan_is_the_union_and_needs_both_sides() {
        let m = MinOf::new(NameRules::default(), Levenshtein);
        axioms::assert_blocking_plan(&m);
        // the experiment metric of every CLI, bench and benchmark path
        let experiment = MinOf::new(
            NameRules::with_costs(3.0, 2.0, 1000.0),
            MultiWordGate::new(Levenshtein),
        );
        axioms::assert_blocking_plan(&experiment);
        axioms::assert_within_consistent(&experiment);
        assert!(matches!(experiment.blocking(3.0), Some(BlockPlan::Any(ps)) if ps.len() == 2));
        // one side without a plan leaves nothing to prune with
        assert_eq!(MinOf::new(Levenshtein, Jaro).blocking(3.0), None);
    }
}
