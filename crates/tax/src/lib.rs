//! # toss-tax — the TAX tree algebra
//!
//! Implements the algebra of Jagadish et al. that the TOSS paper extends
//! (recapitulated in Section 2):
//!
//! * [`pattern`] — pattern trees: integer-labelled nodes joined by
//!   parent-child (`pc`) or ancestor-descendant (`ad`) edges, with an
//!   attached selection condition.
//! * [`condition`] — TAX selection conditions over node attributes
//!   (`$i.tag`, `$i.content`) with `=`, `≠`, `<`, `≤`, `>`, `≥` and
//!   `contains`, closed under `and` / `or` / `not`.
//! * [`embedding`] — enumeration of all embeddings of a pattern tree into
//!   a data tree (structure-preserving, condition-satisfying total maps).
//! * [`witness`] — witness-tree construction: images of the pattern
//!   nodes (plus requested descendant cones) connected by closest-ancestor
//!   edges in source preorder.
//! * [`ops`] — the operators: selection σ, projection π, product ×, join,
//!   union, intersection and difference (set ops under the ordered-tree
//!   isomorphism of `toss_tree::eq`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition;
pub mod embedding;
pub mod error;
pub mod ops;
pub mod pattern;
#[cfg(test)]
mod reference;
pub mod witness;

pub use condition::{Attr, CmpOp, Cond, Term};
pub use embedding::{embeddings, Embedding, Matcher};
pub use error::{TaxError, TaxResult};
pub use ops::{join, product, project, select, ProjectEntry};
pub use pattern::{EdgeKind, PatternNodeId, PatternTree};
