//! The TAX tree algebra.
//!
//! Implements the algebra of Jagadish et al. that the TOSS paper extends
//! (recapitulated in Section 2). Every submodule is private; this module
//! exports:
//!
//! * pattern trees (Definition 2): [`PatternTree`], its node ids
//!   (`PatternNodeId`) and the [`EdgeKind`] of an edge (`pc` or `ad`);
//! * selection conditions: [`Cond`] over [`Term`]s (`$i.tag`,
//!   `$i.content` — [`Attr`] — or constants) compared by [`CmpOp`]
//!   (`=`, `≠`, `<`, `≤`, `>`, `≥`, `contains`), closed under
//!   `and` / `or` / `not`, plus the set-membership and shared-class
//!   atoms TOSS's SEO expansion compiles to;
//! * [`Matcher`], the one way to evaluate a pattern: prepared once, it
//!   enumerates embeddings and runs selection and projection (with
//!   [`ProjectEntry`] lists) over borrowed trees;
//! * product [`product`], whose fresh roots are tagged
//!   [`PROD_ROOT_TAG`]; a join is a product followed by a
//!   [`Matcher::select`].
//!
//! Pattern errors are [`crate::TossError`]'s `DuplicateLabel`,
//! `UnknownLabel`, `InvalidPatternNode` and `Tree` variants. Witness
//! trees (the images of an embedding connected by closest included
//! ancestor, in source preorder) are walked inside this module, once,
//! into views of their source trees ([`toss_tree::Views`]), which are
//! deduplicated before anything is copied; [`Matcher::select`] and
//! [`Matcher::project`] materialise the distinct ones, and the executor
//! hands a join's side views to the join as they are. Union,
//! intersection and difference are not here: they are
//! `toss_tree::Forest::set_{union,intersection,difference}` under the
//! ordered-tree isomorphism of `toss_tree::eq`, called from
//! [`crate::algebra`].

mod condition;
mod embedding;
mod ops;
mod pattern;
#[cfg(test)]
mod reference;
mod witness;

pub use condition::{Attr, CmpOp, Cond, Term};
pub use embedding::Matcher;
pub use ops::{product, ProjectEntry, PROD_ROOT_TAG};
pub(crate) use pattern::PatternNodeId;
pub use pattern::{EdgeKind, PatternTree};
