//! The [`StringMetric`] trait — the paper's `d_s`.

use crate::blocking::BlockPlan;

/// A string similarity measure per Definition 7: non-negative, zero on
/// identical strings, symmetric. Implementations report whether they are
/// **strong** (satisfy the triangle inequality), which unlocks the
/// Lemma-1 fast path for node distances and is what makes a similarity
/// enhancement's transitive merging sound.
pub trait StringMetric: Send + Sync {
    /// The distance `d_s(a, b)`: `0.0` means identical, larger means less
    /// similar. Must be symmetric and non-negative.
    fn distance(&self, a: &str, b: &str) -> f64;

    /// Whether this measure satisfies the triangle inequality.
    fn is_strong(&self) -> bool {
        false
    }

    /// A short stable name for reports and benchmarks.
    fn name(&self) -> &str;

    /// Whether `a` and `b` are within `epsilon` of each other.
    ///
    /// Implementations may override this with an early-exit algorithm
    /// (e.g. banded Levenshtein) — the SEA algorithm only ever needs the
    /// thresholded answer.
    fn within(&self, a: &str, b: &str, epsilon: f64) -> bool {
        self.distance(a, b) <= epsilon
    }

    /// Blocking plan at threshold `epsilon`: `Some(plan)` promises that
    /// every pair of distinct strings with `within(a, b, epsilon)` is in
    /// the plan's relation (see [`crate::blocking`]), so a
    /// [`crate::blocking::TermIndex`] built from it may stand in for
    /// calling `within` on every term. Two callers rely on it: the `~`
    /// probe expansion (`Seo::similar_terms_probe`) and SEA's ε-similarity
    /// graph (`toss_ontology::enhance`), a self-join of the ontology's
    /// terms. Edit metrics declare a [`BlockPlan::Edits`]; combinators
    /// compose their inner plans. The default, `None`, means no pair can
    /// be ruled out, and callers compare exhaustively.
    fn blocking(&self, _epsilon: f64) -> Option<BlockPlan> {
        None
    }
}

impl<M: StringMetric + ?Sized> StringMetric for &M {
    fn distance(&self, a: &str, b: &str) -> f64 {
        (**self).distance(a, b)
    }
    fn is_strong(&self) -> bool {
        (**self).is_strong()
    }
    fn name(&self) -> &str {
        (**self).name()
    }
    fn within(&self, a: &str, b: &str, epsilon: f64) -> bool {
        (**self).within(a, b, epsilon)
    }
    fn blocking(&self, epsilon: f64) -> Option<BlockPlan> {
        (**self).blocking(epsilon)
    }
}

#[cfg(test)]
pub(crate) mod axioms {
    //! Shared test helpers asserting the Definition-7 axioms on sample
    //! corpora; metric modules call these from their unit tests.
    use super::StringMetric;

    pub const SAMPLES: &[&str] = &[
        "",
        "a",
        "J. Ullman",
        "Jeffrey D. Ullman",
        "Jeff Ullman",
        "Marco Ferrari",
        "Mauro Ferrari",
        "GianLuigi Ferrari",
        "Gian Luigi Ferrari",
        "SIGMOD Conference",
        "ACM SIGMOD International Conference on Management of Data",
        "relational model",
        "relation models",
        "Jürgen Müller",
        "Élisa Bertino",
        "Efficient Similarity Joins over Taxonomies of XML Data Trees",
    ];

    /// `d(x,x) = 0` and symmetry and non-negativity on the sample corpus.
    pub fn assert_axioms<M: StringMetric>(m: &M) {
        for &x in SAMPLES {
            assert!(
                m.distance(x, x).abs() < 1e-12,
                "{}: d({x:?},{x:?}) != 0",
                m.name()
            );
            for &y in SAMPLES {
                let d1 = m.distance(x, y);
                let d2 = m.distance(y, x);
                assert!(d1 >= 0.0, "{}: negative distance", m.name());
                assert!(
                    (d1 - d2).abs() < 1e-12,
                    "{}: asymmetric on {x:?},{y:?}: {d1} vs {d2}",
                    m.name()
                );
            }
        }
    }

    /// Triangle inequality on the sample corpus — call only for metrics
    /// that claim `is_strong()`.
    pub fn assert_triangle<M: StringMetric>(m: &M) {
        assert!(m.is_strong(), "{} does not claim strength", m.name());
        for &x in SAMPLES {
            for &y in SAMPLES {
                for &z in SAMPLES {
                    let lhs = m.distance(x, z);
                    let rhs = m.distance(x, y) + m.distance(y, z);
                    assert!(
                        lhs <= rhs + 1e-9,
                        "{}: triangle violated: d({x:?},{z:?})={lhs} > {rhs}",
                        m.name()
                    );
                }
            }
        }
    }

    /// The declared blocking plan is admissible: at every threshold of
    /// the sweep the metric declares a plan, and an index built from it
    /// over the corpus offers, for each probe, every term `within` accepts.
    pub fn assert_blocking_plan<M: StringMetric>(m: &M) {
        use crate::blocking::TermIndex;
        // beyond SAMPLES: no word token at all, and single-word schema terms
        let corpus: Vec<String> = SAMPLES
            .iter()
            .chain(&["---", "?!", "title", "article", "ullman"])
            .map(|s| s.to_string())
            .collect();
        for eps in [0.0, 0.5, 1.0, 2.0, 3.0, 10.0, 1003.0] {
            let plan = m
                .blocking(eps)
                .unwrap_or_else(|| panic!("{}: no blocking plan at eps={eps}", m.name()));
            let index = TermIndex::build(plan, corpus.clone());
            for probe in &corpus {
                let candidates = index.candidates(probe);
                for (id, term) in corpus.iter().enumerate() {
                    assert!(
                        !m.within(probe, term, eps) || candidates.contains(&(id as u32)),
                        "{}: {term:?} is within {eps} of {probe:?} but {:?} does not offer it",
                        m.name(),
                        index.plan()
                    );
                }
            }
        }
    }

    /// `within` agrees with `distance` against a sweep of thresholds:
    /// the usual ones, NaN (never within), thresholds past every edit
    /// count, and the boundaries of the 1000 offsets that gate
    /// single-word pairs and push [`crate::NameRules`]' fallback away.
    pub fn assert_within_consistent<M: StringMetric>(m: &M) {
        let sweep = [
            0.0,
            0.5,
            1.0,
            2.0,
            3.0,
            10.0,
            999.0,
            1000.0,
            1000.5,
            1003.0,
            1e30,
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in SAMPLES {
            for &y in SAMPLES {
                let d = m.distance(x, y);
                for eps in sweep {
                    assert_eq!(
                        m.within(x, y, eps),
                        d <= eps,
                        "{}: within({x:?},{y:?},{eps}) disagrees with distance {d}",
                        m.name()
                    );
                }
            }
        }
    }
}
