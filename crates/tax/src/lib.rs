//! # toss-tax — the TAX tree algebra
//!
//! Implements the algebra of Jagadish et al. that the TOSS paper extends
//! (recapitulated in Section 2). Every module is private; the crate
//! exports, at its root:
//!
//! * pattern trees (Definition 2): [`PatternTree`], its node ids
//!   [`PatternNodeId`] and the [`EdgeKind`] of an edge (`pc` or `ad`);
//! * selection conditions: [`Cond`] over [`Term`]s (`$i.tag`,
//!   `$i.content` — [`Attr`] — or constants) compared by [`CmpOp`]
//!   (`=`, `≠`, `<`, `≤`, `>`, `≥`, `contains`), closed under
//!   `and` / `or` / `not`, plus the set-membership and shared-class
//!   atoms TOSS's SEO expansion compiles to;
//! * embeddings: [`Matcher`], a pattern prepared once and matched against
//!   many trees (its `select` and `project` run over borrowed trees), and
//!   [`embeddings`], the one-shot enumeration;
//! * the operators: selection [`select`], projection [`project`] (with
//!   [`ProjectEntry`] lists), product [`product`] (whose fresh roots are
//!   tagged [`PROD_ROOT_TAG`]) and [`join`] = product ∘ selection;
//! * [`TaxError`].
//!
//! Witness trees (the images of an embedding connected by closest
//! included ancestor, in source preorder) are built inside the crate.
//! Union, intersection and difference are not here: they are
//! `toss_tree::Forest::set_{union,intersection,difference}` under the
//! ordered-tree isomorphism of `toss_tree::eq`, called from `toss-core`'s
//! algebra.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod condition;
mod embedding;
mod error;
mod ops;
mod pattern;
#[cfg(test)]
mod reference;
mod witness;

pub use condition::{Attr, CmpOp, Cond, Term};
pub use embedding::{embeddings, Matcher};
pub use error::TaxError;
pub use ops::{join, product, project, select, ProjectEntry, PROD_ROOT_TAG};
pub use pattern::{EdgeKind, PatternNodeId, PatternTree};
