//! Observability baseline — `BENCH_observability.json`.
//!
//! Runs the Figure-15 selection workload through the instrumented
//! executor and records:
//!
//! * per-phase latency p50/p95/mean from the `toss.query.*_ns`
//!   histograms (the paper's rewrite / execute / convert split), on the
//!   log-linear buckets (≤12.5% quantile error);
//! * query throughput with the default **no-op** sink (tracing
//!   disabled — the production configuration), with a
//!   [`toss_obs::sink::MemorySink`] installed, and with the serving
//!   layer's per-request telemetry active (query-id context, a
//!   [`toss_obs::FlightRecorder`] stamp and a windowed SLO record per
//!   query), plus the relative overhead of each;
//! * the measured cost of one disabled `span()`/`finish()` pair, the
//!   number that must stay near zero for the no-op path to be free.
//!
//! `--quick` shrinks rounds and the span microbench for CI smoke runs.
//!
//! The JSON lands at the workspace root so successive runs form a
//! perf trajectory (`BENCH_*.json`).

use std::sync::Arc;
use std::time::{Duration, Instant};
use toss_bench::{build_executor, query_to_toss};
use toss_core::executor::Mode;
use toss_datagen::{corpus::generate, queries::workload, CorpusConfig};
use toss_json::Value;
use toss_obs::{FlightRecorder, QueryId, QueryOutcomeKind, QueryRecord, RollingWindow};

/// Queries drawn from the Figure-15 workload generator.
const QUERIES: usize = 6;

fn empty_histogram() -> toss_obs::metrics::HistogramSnapshot {
    toss_obs::metrics::HistogramSnapshot {
        count: 0,
        sum: 0,
        buckets: Vec::new(),
    }
}

fn phase_value(snap: &toss_obs::metrics::MetricsSnapshot, name: &str) -> Value {
    let h = snap.histogram(name).cloned().unwrap_or_else(empty_histogram);
    Value::object(vec![
        ("count", (h.count as i64).into()),
        ("p50_ns", h.p50().into()),
        ("p95_ns", h.p95().into()),
        ("mean_ns", h.mean().into()),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // timed repetitions of the whole workload per configuration, and
    // disabled-span microbench iterations
    let (rounds, spans): (usize, usize) =
        if quick { (3, 100_000) } else { (20, 1_000_000) };

    let corpus = generate(CorpusConfig::figure15(42));
    let sys = build_executor(&corpus, 3.0, 0);
    let queries: Vec<_> = workload(&corpus, 7, QUERIES)
        .iter()
        .map(query_to_toss)
        .collect();
    eprintln!(
        "corpus: {} papers, ontology {} terms, {} workload queries, {} round(s){}",
        corpus.papers.len(),
        sys.ontology_terms,
        queries.len(),
        rounds,
        if quick { " (quick)" } else { "" }
    );

    // ---- phase histograms over a clean registry -----------------------
    toss_obs::metrics::registry().reset();
    for q in &queries {
        for _ in 0..rounds {
            sys.executor.select(q, Mode::Toss).expect("select succeeds");
        }
    }
    let snap = toss_obs::metrics::snapshot();

    // Each throughput leg is timed as best-of-3 repetitions: quick mode
    // runs few rounds, so a single stray scheduler hiccup would swamp
    // the single-digit-percent overheads being measured.
    const REPS: usize = 3;
    let best_qps = |body: &mut dyn FnMut() -> usize| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..REPS {
            let t = Instant::now();
            let ran = body();
            best = best.max(ran as f64 / t.elapsed().as_secs_f64());
        }
        best
    };

    // ---- throughput, default no-op sink (tracing disabled) ------------
    assert!(
        !toss_obs::tracing_enabled(),
        "no sink is installed, tracing must be off"
    );
    let qps_noop = best_qps(&mut || {
        let mut ran = 0usize;
        for _ in 0..rounds {
            for q in &queries {
                sys.executor.select(q, Mode::Toss).expect("select succeeds");
                ran += 1;
            }
        }
        ran
    });

    // ---- throughput, MemorySink installed ------------------------------
    let sink = Arc::new(toss_obs::sink::MemorySink::new());
    let scope = toss_obs::install_sink_scoped(sink.clone());
    let qps_traced = best_qps(&mut || {
        let mut ran = 0usize;
        for _ in 0..rounds {
            for q in &queries {
                sys.executor.select(q, Mode::Toss).expect("select succeeds");
                ran += 1;
            }
            sink.drain(); // bound memory; drain cost is part of the overhead
        }
        ran
    });
    drop(scope);
    let overhead_pct = 100.0 * (1.0 - qps_traced / qps_noop);

    // ---- throughput, per-request telemetry (no sink) -------------------
    // what toss-serve adds around every query: a query-id context, a
    // flight-recorder stamp and a windowed SLO record
    let flight = FlightRecorder::new(512);
    let window = RollingWindow::new(Duration::from_secs(1), 10);
    let qps_flight = best_qps(&mut || {
        let mut ran = 0usize;
        for _ in 0..rounds {
            for q in &queries {
                let qid = QueryId::next();
                let _ctx = toss_obs::set_current_query(qid);
                let q0 = Instant::now();
                let out = sys.executor.select(q, Mode::Toss).expect("select succeeds");
                let total_ns = q0.elapsed().as_nanos() as u64;
                flight.record(QueryRecord {
                    query_id: qid.0,
                    class: "interactive".to_string(),
                    query: out.xpath.clone(),
                    plan: out.plan.as_ref().map(|p| p.to_string()).unwrap_or_default(),
                    outcome: QueryOutcomeKind::Ok,
                    cause: String::new(),
                    total_ns,
                    queue_wait_ns: 0,
                    rewrite_ns: out.rewrite_time().as_nanos() as u64,
                    execute_ns: out.execute_time().as_nanos() as u64,
                    convert_ns: out.convert_time().as_nanos() as u64,
                    terms_used: 0,
                    docs_scanned: 0,
                    memory_bytes: 0,
                    answers: out.forest.len() as u64,
                    degraded: Vec::new(),
                    ..QueryRecord::default()
                });
                window.record(total_ns, QueryOutcomeKind::Ok);
                ran += 1;
            }
        }
        ran
    });
    let flight_overhead_pct = 100.0 * (1.0 - qps_flight / qps_noop);
    assert_eq!(flight.recorded(), (rounds * queries.len() * REPS) as u64);

    // ---- disabled-path span cost ---------------------------------------
    let t3 = Instant::now();
    for _ in 0..spans {
        let s = toss_obs::span("bench.noop");
        toss_obs::record("k", 1u64);
        let _ = s.finish();
    }
    let disabled_span_ns = t3.elapsed().as_nanos() as f64 / spans as f64;

    let report = Value::object(vec![
        (
            "workload",
            Value::object(vec![
                ("papers", corpus.papers.len().into()),
                ("ontology_terms", sys.ontology_terms.into()),
                ("queries", queries.len().into()),
                ("rounds", rounds.into()),
                ("quick", quick.into()),
            ]),
        ),
        (
            "phases",
            Value::object(vec![
                ("rewrite", phase_value(&snap, "toss.query.rewrite_ns")),
                ("execute", phase_value(&snap, "toss.query.execute_ns")),
                ("convert", phase_value(&snap, "toss.query.convert_ns")),
                ("total", phase_value(&snap, "toss.query.total_ns")),
            ]),
        ),
        (
            "throughput",
            Value::object(vec![
                ("qps_noop_sink", qps_noop.into()),
                ("qps_memory_sink", qps_traced.into()),
                ("tracing_overhead_pct", overhead_pct.into()),
                ("qps_flight_recorder", qps_flight.into()),
                ("flight_overhead_pct", flight_overhead_pct.into()),
            ]),
        ),
        ("disabled_span_ns", disabled_span_ns.into()),
    ]);

    let out = toss_bench::write_bench("observability", quick, &report).expect("write BENCH_observability.json");

    println!(
        "no-op sink: {qps_noop:.0} q/s | memory sink: {qps_traced:.0} q/s \
         ({overhead_pct:.2}% overhead) | flight recorder: {qps_flight:.0} q/s \
         ({flight_overhead_pct:.2}% overhead) | disabled span {disabled_span_ns:.1}ns"
    );
    println!("wrote {}", out.display());
}
