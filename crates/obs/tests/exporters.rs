//! Golden tests for the exporters: the Prometheus text exposition, the
//! JSON export, the slow-query-log line and the `--trace-out` span line
//! are wire formats read by external scrapers, log pipelines and
//! `toss-cli stats`, so their exact bytes are pinned here — a change to
//! any of them is a breaking change and must show up as a deliberate
//! golden update, not an incidental diff.

use std::path::PathBuf;
use std::time::Duration;
use toss_obs::metrics::MetricsRegistry;
use toss_obs::sink::{JsonLinesSink, TraceSink};
use toss_obs::{
    FieldValue, QueryOutcomeKind, QueryRecord, RollingWindow, SlowQueryLog, SpanRecord,
};

/// A fresh path under the temp dir, unique to this process and `name`.
fn temp_file(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("toss-obs-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// An isolated registry with one counter, one gauge and one histogram
/// whose observations all land in exact (value < 16) buckets, so every
/// number in the goldens is derivable by hand.
fn golden_registry() -> MetricsRegistry {
    let r = MetricsRegistry::default();
    r.counter("golden.requests").add(2);
    r.gauge("golden.inflight").set(-3);
    let h = r.histogram("golden.latency_ns");
    for v in [1, 3, 3, 9] {
        h.observe(v);
    }
    r
}

#[test]
fn prometheus_exposition_golden() {
    let text = golden_registry().snapshot().to_prometheus();
    let expected = "\
# TYPE golden_requests counter
golden_requests 2
# TYPE golden_inflight gauge
golden_inflight -3
# TYPE golden_latency_ns histogram
golden_latency_ns_bucket{le=\"1\"} 1
golden_latency_ns_bucket{le=\"3\"} 3
golden_latency_ns_bucket{le=\"9\"} 4
golden_latency_ns_bucket{le=\"+Inf\"} 4
golden_latency_ns_sum 16
golden_latency_ns_count 4
";
    assert_eq!(text, expected);
}

#[test]
fn json_export_golden() {
    let text = golden_registry().snapshot().to_json();
    let expected = "\
{
  \"counters\": {
    \"golden.requests\": 2
  },
  \"gauges\": {
    \"golden.inflight\": -3
  },
  \"histograms\": {
    \"golden.latency_ns\": {\"count\": 4, \"sum\": 16, \"buckets\": [[1, 1], [3, 2], [9, 1]], \"p50\": 3, \"p95\": 9}
  }
}
";
    assert_eq!(text, expected);
}

/// Windowed SLO gauges flow through the same exporters: publishing a
/// window snapshot must surface the full per-class schema in both the
/// Prometheus text and the JSON document (this is what `slo`-dashboard
/// scrapers and `toss-cli stats` read).
#[test]
fn windowed_gauges_flow_through_both_exporters() {
    let w = RollingWindow::new(Duration::from_secs(1), 4);
    for _ in 0..18 {
        w.record(1_000, QueryOutcomeKind::Ok);
    }
    w.record(200_000, QueryOutcomeKind::Error);
    w.record(1_000, QueryOutcomeKind::Shed);
    w.snapshot().publish_gauges("toss.serve.window.golden_class");

    let snap = toss_obs::metrics::snapshot();
    for field in [
        "requests",
        "errors",
        "shed",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "error_rate_bps",
        "shed_rate_bps",
        "window_ms",
    ] {
        assert!(
            snap.gauge(&format!("toss.serve.window.golden_class.{field}")).is_some(),
            "window gauge {field} missing from the registry snapshot"
        );
    }
    assert_eq!(snap.gauge("toss.serve.window.golden_class.requests"), Some(20));
    assert_eq!(snap.gauge("toss.serve.window.golden_class.errors"), Some(1));
    assert_eq!(snap.gauge("toss.serve.window.golden_class.shed"), Some(1));
    assert_eq!(
        snap.gauge("toss.serve.window.golden_class.error_rate_bps"),
        Some(500)
    );
    assert_eq!(snap.gauge("toss.serve.window.golden_class.window_ms"), Some(4_000));
    // p99 rank lands on the one slow error: a log-linear bucket around
    // 200µs, within the 12.5% quantile error bound
    let p99 = snap
        .gauge("toss.serve.window.golden_class.p99_ns")
        .expect("p99 gauge");
    assert!(
        (175_000..=225_000).contains(&p99),
        "p99 {p99} outside the log-linear error bound around 200µs"
    );

    // Prometheus text: names are sanitized to the exposition charset
    let prom = snap.to_prometheus();
    assert!(prom.contains("# TYPE toss_serve_window_golden_class_p95_ns gauge"));
    assert!(prom.contains("toss_serve_window_golden_class_requests 20"));

    // JSON document: gauges appear under their dotted names (the
    // machine-readability of this document is pinned by the CLI's
    // `stats_document` round-trip test, which parses it)
    let json = snap.to_json();
    assert!(json.contains("\"toss.serve.window.golden_class.requests\": 20"));
    assert!(json.contains("\"toss.serve.window.golden_class.p99_ns\": "));
}

/// The slow-query log writes one `QueryRecord` per line, in a query
/// shape and in a write shape that appends the four write fields.
#[test]
fn slow_query_log_lines_golden() {
    let query = QueryRecord {
        query_id: 42,
        class: "interactive".into(),
        query: "//inproceedings[author=\"Smith\"]".into(),
        plan: "index-probe tag=author terms=1 candidates=1".into(),
        outcome: QueryOutcomeKind::Error,
        cause: "deadline \"exceeded\"".into(),
        total_ns: 1_500,
        queue_wait_ns: 10,
        rewrite_ns: 1,
        execute_ns: 2,
        convert_ns: 3,
        terms_used: 4,
        docs_scanned: 5,
        memory_bytes: 6,
        answers: 7,
        degraded: vec!["witnesses clamped".into(), "terms\tclamped".into()],
        ..QueryRecord::default()
    };
    let write = QueryRecord {
        query_id: 43,
        class: "batch".into(),
        outcome: QueryOutcomeKind::Ok,
        total_ns: 2_000_000,
        op: "insert_doc".into(),
        batch_size: 4,
        fsync_ns: 12_345,
        deduped: true,
        ..QueryRecord::default()
    };
    let path = temp_file("slow.jsonl");
    let log = SlowQueryLog::create(&path, 1_000_000, 0).expect("create the log");
    assert!(log.offer(&query), "an error is always logged");
    assert!(log.offer(&write), "a slow write is always logged");
    drop(log);
    let text = std::fs::read_to_string(&path).expect("read the log");
    let _ = std::fs::remove_file(&path);
    let expected = concat!(
        r#"{"query_id":42,"class":"interactive","query":"//inproceedings[author=\"Smith\"]","#,
        r#""plan":"index-probe tag=author terms=1 candidates=1","outcome":"error","cause":"deadline \"exceeded\"","#,
        r#""total_ns":1500,"queue_wait_ns":10,"rewrite_ns":1,"execute_ns":2,"convert_ns":3,"#,
        r#""terms_used":4,"docs_scanned":5,"memory_bytes":6,"answers":7,"#,
        r#""degraded":["witnesses clamped","terms\tclamped"]}"#,
        "\n",
        r#"{"query_id":43,"class":"batch","query":"","plan":"","outcome":"ok","cause":"","#,
        r#""total_ns":2000000,"queue_wait_ns":0,"rewrite_ns":0,"execute_ns":0,"convert_ns":0,"#,
        r#""terms_used":0,"docs_scanned":0,"memory_bytes":0,"answers":0,"degraded":[],"#,
        r#""op":"insert_doc","batch_size":4,"fsync_ns":12345,"deduped":true}"#,
        "\n",
    );
    assert_eq!(text, expected);
}

/// `--trace-out` writes one JSON object per finished span; a root span
/// has no `parent` key, and a non-finite float field is `null`.
#[test]
fn trace_out_span_lines_golden() {
    let child = SpanRecord {
        id: 3,
        parent: Some(1),
        name: "toss.query.execute",
        thread: 2,
        start_ns: 123,
        duration: Duration::from_nanos(4_567),
        fields: vec![
            ("docs_scanned", FieldValue::Uint(3)),
            ("delta", FieldValue::Int(-2)),
            ("ratio", FieldValue::Float(0.25)),
            ("nan", FieldValue::Float(f64::NAN)),
            ("indexed", FieldValue::Bool(true)),
            ("plan", FieldValue::Str("index \"probe\"\n".into())),
        ],
    };
    let root = SpanRecord {
        id: 1,
        parent: None,
        name: "toss.query.select",
        thread: 2,
        start_ns: 100,
        duration: Duration::from_micros(12),
        fields: Vec::new(),
    };
    let path = temp_file("spans.jsonl");
    let sink = JsonLinesSink::create(&path).expect("create the sink");
    sink.on_span(&child);
    sink.on_span(&root);
    drop(sink); // flushes
    let text = std::fs::read_to_string(&path).expect("read the spans");
    let _ = std::fs::remove_file(&path);
    let expected = concat!(
        r#"{"id":3,"parent":1,"name":"toss.query.execute","thread":2,"start_ns":123,"#,
        r#""dur_ns":4567,"fields":{"docs_scanned":3,"delta":-2,"ratio":0.25,"nan":null,"#,
        r#""indexed":true,"plan":"index \"probe\"\n"}}"#,
        "\n",
        r#"{"id":1,"name":"toss.query.select","thread":2,"start_ns":100,"dur_ns":12000,"#,
        r#""fields":{}}"#,
        "\n",
    );
    assert_eq!(text, expected);
}
