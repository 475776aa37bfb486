//! # toss — facade crate
//!
//! Re-exports the whole TOSS reproduction (SIGMOD 2004: "TOSS: An Extension
//! of TAX with Ontologies and Similarity Queries") as one dependency.
//!
//! * [`tree`] — the semistructured data model (ordered labelled trees).
//! * [`xmldb`] — the native XML document store (Xindice substitute) with an
//!   XPath-subset query engine.
//! * [`tax`] — the TAX pattern-tree algebra.
//! * [`similarity`] — pluggable string/node similarity measures.
//! * [`ontology`] — hierarchies, canonical fusion and the SEA algorithm
//!   producing Similarity Enhanced Ontologies.
//! * [`lexicon`] — the embedded lexical network (WordNet substitute) used by
//!   the Ontology Maker.
//! * [`datagen`] — DBLP/SIGMOD-style synthetic corpora with ground truth.
//! * [`core`] — the TOSS system itself: ontology-extended instances, the
//!   TOSS algebra, Ontology Maker, Similarity Enhancer and Query Executor.
//!
//! See the `examples/` directory for runnable end-to-end scenarios and
//! `DESIGN.md` for the experiment index.

#![forbid(unsafe_code)]

pub use toss_core as core;
pub use toss_core::tax;
pub use toss_datagen as datagen;
pub use toss_lexicon as lexicon;
pub use toss_ontology as ontology;
pub use toss_similarity as similarity;
pub use toss_tree as tree;
pub use toss_xmldb as xmldb;
