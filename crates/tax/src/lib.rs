//! # toss-tax — a name kept for the benchmark
//!
//! The TAX algebra lives in `toss_core::tax`. This package only keeps
//! `toss_tax::EdgeKind` resolving for `benchmark/`, which names it.

#![forbid(unsafe_code)]

pub use toss_core::tax::EdgeKind;
