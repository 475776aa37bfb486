//! The TOSS algebra (Section 5.1.2).
//!
//! Every operator takes SEO instances sharing one similarity enhanced
//! (fused) ontology, expands its TOSS condition into TAX machinery via
//! [`crate::expand`], and delegates to [`crate::tax`] — so Proposition 1
//! (closure: results are again SEO instances) holds by construction: the
//! output forest is paired with the same shared SEO.

mod hashjoin;
mod operators;
mod simjoin;

pub use hashjoin::{similarity_hash_join, JoinKey};
pub(crate) use simjoin::join_views;
pub use simjoin::similarity_join;
pub use operators::{
    toss_difference, toss_intersection, toss_join, toss_product, toss_project, toss_select,
    toss_union, TossPattern,
};
