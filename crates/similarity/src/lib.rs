//! # toss-similarity — string and node similarity measures
//!
//! Definition 7 of the TOSS paper: a *string similarity measure* `d_s`
//! maps two strings to a non-negative real with `d_s(X, X) = 0` and
//! symmetry; it is **strong** when it also satisfies the triangle
//! inequality. A *node similarity measure* `d` between ontology nodes
//! (sets of strings) is `d(A, B) = min over X∈A, Y∈B of d_s(X, Y)`.
//!
//! The paper names Levenshtein, Monge-Elkan, the Jaro metric, Jaccard and
//! cosine token distance, and rule-based measures for proper nouns; TOSS is
//! explicitly agnostic — any such implementation can be plugged in. This
//! crate keeps the measures something in the system runs, behind one
//! trait, [`StringMetric`]: the edit metrics ([`Levenshtein`],
//! [`DamerauOsa`]) and the bibliographic [`NameRules`] that the
//! experiment metric combines, [`JaccardTokens`] (strong), and [`Jaro`],
//! the reference metric that declares no blocking plan. Around them sit
//! the combinators, the node-level measure with the Lemma-1 fast path
//! for strong metrics, and metric-declared [`blocking`] plans that turn
//! "which terms are within ε of this probe?" into an index lookup plus a
//! few exact checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod combinators;
pub mod damerau;
pub mod jaccard;
pub mod jaro;
pub mod levenshtein;
pub mod node;
pub mod rules;
pub mod tokenize;
pub mod traits;

pub use blocking::{BlockPlan, TermIndex};
pub use damerau::DamerauOsa;
pub use jaccard::JaccardTokens;
pub use jaro::Jaro;
pub use levenshtein::Levenshtein;
pub use node::node_distance;
pub use rules::NameRules;
pub use traits::StringMetric;
