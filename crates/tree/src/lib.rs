//! # toss-tree — the semistructured data model
//!
//! This crate implements the data model of Definition 1 in the TOSS paper
//! (Hung, Deng, Subrahmanian, SIGMOD 2004): a *semistructured instance* is a
//! set of rooted, ordered, directed trees whose objects carry two attributes
//! — a **tag** (the label of the edge to the parent) and a **content**. A
//! content is a [`Value`] (string, integer or real); the paper's named
//! types, their order and the conversions between them live in
//! `toss-core`'s type hierarchy.
//!
//! The central abstractions:
//!
//! * [`Tree`] — one rooted ordered tree, stored in an arena of
//!   [`NodeId`]-addressed [`NodeData`] slots.
//! * [`Forest`] — an ordered collection of trees; a semistructured database
//!   (SDB) is a [`Forest`] (the paper's finite set of instances).
//! * [`TreeBuilder`] — ergonomic construction of trees.
//! * [`View`] / [`Views`] — a tree read in place from a source tree (the
//!   source plus included nodes in preorder with their depths), many to
//!   one flat buffer; a witness stays a view until it is materialised.
//!   [`Preordered`] is the cursor both a [`Tree`] and a [`View`] offer.
//! * tree identity ([`eq`]): ordered-isomorphism equality and a keyed
//!   structural hash, used by deduplication and TAX's set-theoretic
//!   operators (union, intersection, difference).
//!
//! The XML serialization in [`serialize`] round-trips with the parser in the
//! `toss-xmldb` crate. `eq` and `serialize` are the only public modules;
//! everything else is re-exported at the root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arena;
mod builder;
pub mod eq;
mod error;
mod forest;
mod iter;
mod node;
pub mod serialize;
mod tree;
mod value;
mod view;

pub use arena::NodeId;
pub use builder::TreeBuilder;
pub use error::TreeError;
pub use forest::Forest;
pub use node::NodeData;
pub use tree::Tree;
pub use value::Value;
pub use view::{Preordered, View, Views};
