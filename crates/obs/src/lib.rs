//! # toss-obs — structured tracing, metrics and query profiling
//!
//! The paper's entire evaluation (Section 6, Figs 15–16) rests on phase
//! timings, yet most of the pipeline — SEO construction, the XPath
//! engine, the similarity probes, the WAL — is otherwise dark. This crate
//! is the observability substrate every layer of the workspace plugs
//! into. It is deliberately **dependency-free** (the build is offline)
//! and hand-rolls the two idioms it needs in the style of the `tracing`
//! and `metrics` crates:
//!
//! * [`span`] / [`SpanGuard`] — RAII-timed spans with key/value fields
//!   and thread-local parent/child nesting. With no sink installed
//!   (the default), creating a span is two atomic loads and **zero
//!   allocations**; `SpanGuard::finish` still returns the measured
//!   duration, so instrumented code can keep reporting wall times.
//! * [`sink`] — pluggable span consumers: [`sink::MemorySink`] (an
//!   in-memory collector for EXPLAIN and tests) and
//!   [`sink::JsonLinesSink`] (one JSON object per finished span, for
//!   `--trace-out`), installed with [`install_sink_scoped`]. The
//!   "no-op sink" is the absence of any sink.
//! * [`metrics`] — a global registry of named monotonic counters,
//!   up/down gauges and log-linear-bucketed histograms with
//!   Prometheus-text and JSON exporters.
//! * [`QueryTrace`] — reassembles the span records of one query into a
//!   human-readable EXPLAIN tree.
//! * [`QueryId`] / [`set_current_query`] — per-request id propagation:
//!   the serving layer sets the current query at ingress and every span
//!   collected underneath is stamped with it.
//! * [`FlightRecorder`] — a bounded ring of structured
//!   [`QueryRecord`]s, beside [`SlowQueryLog`], a sampling JSON-lines
//!   slow-query log.
//! * [`RollingWindow`] — rolling time-bucketed aggregation; its
//!   [`WindowSnapshot`] holds windowed p50/p95/p99, error-rate and
//!   shed-rate SLO figures under one field schema.
//!
//! Span and metric names are dot-separated, lowercase, and prefixed by
//! subsystem (`toss.query.rewrite`, `xmldb.journal.append`,
//! `ontology.sea`, `toss.semantic.probe.indexed`, …); see
//! `docs/observability.md` for the full naming scheme.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod context;
mod explain;
mod flight;
pub mod metrics;
pub mod sink;
mod span;
mod window;

pub use context::{set_current_query, QueryId};
pub use explain::QueryTrace;
pub use flight::{FlightRecorder, QueryOutcomeKind, QueryRecord, SlowQueryLog};
pub use sink::{install_sink_scoped, SinkScope};
pub use span::{
    current_thread_id, record, span, tracing_enabled, FieldValue, SpanGuard, SpanRecord,
};
pub use window::{RollingWindow, WindowSnapshot};

/// Append `s` to `out` as a JSON string literal (with quotes).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render a duration compactly (`412ns`, `3.2µs`, `1.24ms`, `2.50s`).
pub(crate) fn fmt_duration(d: std::time::Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn durations_format() {
        use std::time::Duration;
        assert_eq!(fmt_duration(Duration::from_nanos(412)), "412ns");
        assert_eq!(fmt_duration(Duration::from_nanos(3_200)), "3.2µs");
        assert_eq!(fmt_duration(Duration::from_micros(1_240)), "1.24ms");
        assert_eq!(fmt_duration(Duration::from_millis(2_500)), "2.50s");
    }
}
