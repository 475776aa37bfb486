//! # toss-ontology — hierarchies, fusion and similarity enhancement
//!
//! Implements Section 4 of the TOSS paper:
//!
//! * [`hierarchy`] — Hasse diagrams of partial orders (Definition 3's
//!   hierarchies), with reachability, cones and transitive reduction;
//!   an [`Ontology`] names one hierarchy per relationship (Definition 3).
//! * [`Constraint`] — interoperation constraints between hierarchies
//!   (Definition 4): `x:i ≤ y:j` and `x:i ≠ y:j` (equality desugars to two
//!   `≤` constraints).
//! * [`fuse`] — the hierarchy graph (Definition 6) and the *canonical
//!   fusion* of several hierarchies under constraints (Definition 5),
//!   built by collapsing the strongly connected components of the
//!   hierarchy graph and transitively reducing the quotient.
//! * [`sea`] — the SEA algorithm (Figure 12): similarity enhancement of a
//!   hierarchy w.r.t. a node similarity measure and threshold ε, yielding
//!   a [`seo::Seo`] (Definitions 8–9, Theorems 1–2).
//! * [`persist`] — an SEO's `.ont.json` form; [`dot`] — its Graphviz
//!   rendering.
//! * [`ReachIndex`] — the semantic fast path: per-hierarchy reachability
//!   bitsets with memoized cones, built from a hierarchy on first use.
//!
//! Inside the crate, a small digraph toolkit (Tarjan SCC, transitive
//! closure and reduction, Bron-Kerbosch maximal cliques) does the graph
//! work, and a `u32` symbol table lets the SEO hand out cones without
//! re-allocating terms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod constraints;
pub mod dot;
mod error;
mod fusion;
mod graph;
pub mod hierarchy;
mod intern;
mod ontology;
pub mod persist;
mod reach;
pub mod sea;
pub mod seo;

pub use constraints::{Constraint, TermRef};
pub use error::OntologyError;
pub use fusion::{fuse, Fusion};
pub use hierarchy::Hierarchy;
pub use ontology::Ontology;
pub use reach::ReachIndex;
pub use sea::{enhance, enhance_exhaustive};
pub use seo::Seo;
