//! # toss-bench — the experiment harness
//!
//! Shared machinery for the figure-regeneration binaries (`fig15`,
//! `fig16a`, `fig16b`, `fig16c`): corpus → store → ontologies → fusion
//! → SEO → executor, query compilation from `toss-datagen` workload
//! specs, answer scoring against ground truth, and tabular/JSON
//! reporting.
//!
//! Engineering performance is measured by the standalone `benchmark/`
//! package (`BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod setup;

pub use report::{write_json, Table};
pub use setup::{
    answered_paper_ids, build_executor, corpus_lexicon, experiment_metric, query_to_tax,
    query_to_toss, BuiltSystem,
};
