//! # toss-core — the TOSS system
//!
//! The paper's primary contribution (Sections 3, 5 and 6), assembled from
//! the substrate crates and the TAX algebra it extends:
//!
//! * [`typesys`] / [`convert`] — type hierarchies and conversion functions
//!   with the Section-5 closure constraints (identity, composition
//!   consistency, `τ₁ ≤_H τ₂ ⇒` a conversion exists).
//! * [`OesInstance`] / [`SeoInstance`] — ontology-extended and SEO
//!   semistructured instances.
//! * [`TossCond`] — TOSS selection conditions: TAX's comparisons plus
//!   `~` (similarTo), `instance_of`, `subtype_of`, `above` and `below`,
//!   with well-typedness checking.
//! * [`expand`] — the semantic-rewrite core: a TOSS condition plus an SEO
//!   becomes a plain TAX condition whose `~`/`isa` atoms are expanded into
//!   disjunctions over the SEO's term sets. This is exactly the paper's
//!   strategy ("transforms a user query into a query that takes the
//!   single similarity enhanced ontology into account").
//! * [`tax`] — the TAX algebra of Jagadish et al. that TOSS extends
//!   (Section 2): pattern trees with pc/ad edges, selection conditions,
//!   the [`tax::Matcher`] that enumerates embeddings and builds witness
//!   trees for σ and π, and ×.
//! * [`algebra`] — the TOSS operators σ, π, ×, join, ∪, ∩, −, delegating
//!   to TAX after expansion (Proposition 1's closure holds by
//!   construction).
//! * [`make_ontology`] / [`suggest_constraints`] — the Ontology Maker:
//!   mines tag structure and content terms from XML instances, consults
//!   the lexicon, and emits interoperation constraints between instances.
//! * [`enhance_sdb`] — the Similarity Enhancer: fuses the per-instance
//!   ontologies and runs the SEA algorithm to produce the single SEO.
//! * [`executor`] — the Query Executor: compiles TOSS selections into
//!   XPath against the `toss-xmldb` store, executes them, and converts
//!   results back into TAX witness trees, reporting the paper's three
//!   timed phases.
//! * [`quality`] — precision, recall and quality = √(precision · recall).
//! * [`governor`] — query resource governance: per-query budgets and
//!   deadlines, cooperative cancellation, admission control (load
//!   shedding) and panic isolation, so adversarial or unlucky queries
//!   degrade gracefully or are cancelled instead of pinning a core.
//! * [`RewriteCache`] — a bounded rewrite cache: repeated queries reuse
//!   their SEO expansion instead of re-walking the ontology, keyed on
//!   the normalized condition, SEO version, ε and budget class.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod algebra;
mod condition;
pub mod convert;
mod enhancer;
mod error;
pub mod executor;
pub mod expand;
pub mod governor;
mod maker;
mod oes;
pub mod quality;
mod rewrite;
mod semcache;
pub mod tax;
pub mod typesys;

pub use condition::{TossCond, TossOp, TossTerm};
pub use enhancer::{enhance_sdb, enhance_sdb_full};
pub use error::{TossError, TossResult};
pub use executor::{Executor, QueryOutcome, QueryPlan, TossQuery};
pub use toss_pool::WorkerPool;
pub use governor::{
    AdmissionController, BudgetKind, CancelToken, DegradationInfo, QueryBudget, QueryGovernor,
};
pub use maker::{make_ontology, suggest_constraints, MakerConfig};
pub use semcache::RewriteCache;
pub use oes::{OesInstance, SeoInstance};
