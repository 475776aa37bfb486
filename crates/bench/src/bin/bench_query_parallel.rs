//! Parallel query execution — `BENCH_query_parallel.json`.
//!
//! Measures the two halves of the parallel retrieval path:
//!
//! * **thread sweep** — the Figure-15 similarity workload run through
//!   the executor at 1, 2, 4 and the machine's available worker count,
//!   recording wall time, throughput and speedup over one worker. The
//!   sweep is honest about hardware: `cores` records what the machine
//!   actually offers, and on a single-core container the partitioned
//!   scan cannot (and does not) beat one worker.
//! * **single-worker overhead** — the one-worker pool must delegate to
//!   the exact sequential evaluator, so two back-to-back single-worker
//!   runs bound the infrastructure overhead (the acceptance bar is a
//!   ≤ 5% regression against the pre-pool sequential path, which *is*
//!   the `workers == 1` code path).
//! * **index probe vs full scan** — the planner's batched SEO postings
//!   probe against the full partitioned scan for the same selective
//!   query, the algorithmic speedup that holds at any core count.
//!
//! `--quick` shrinks the corpus and round count for the `verify.sh`
//! smoke step; the JSON schema is identical in both modes.

use std::time::Instant;
use toss_bench::{build_executor, query_to_toss};
use toss_core::executor::Mode;
use toss_core::WorkerPool;
use toss_datagen::{corpus::generate, queries::workload, CorpusConfig};
use toss_json::Value;
use toss_xmldb::{ScanBudget, ScanControl, XPath};

struct NoBudget;
impl ScanBudget for NoBudget {
    fn before_document(&self, _n: usize) -> ScanControl {
        ScanControl::Continue
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (papers, rounds, probe_rounds): (usize, usize, usize) =
        if quick { (200, 3, 20) } else { (1200, 10, 200) };

    let corpus = generate(CorpusConfig::scalability(42, papers));
    let mut sys = build_executor(&corpus, 3.0, 0);
    let queries: Vec<_> = workload(&corpus, 7, 6).iter().map(query_to_toss).collect();
    let cores = WorkerPool::with_available_parallelism().workers();
    eprintln!(
        "corpus: {} papers, {} workload queries, {} core(s), {} round(s)",
        corpus.papers.len(),
        queries.len(),
        cores,
        rounds
    );

    // ---- thread sweep over the full workload --------------------------
    let mut sweep_threads = vec![1usize, 2, 4];
    if !sweep_threads.contains(&cores) {
        sweep_threads.push(cores);
    }
    let mut sweep = Vec::new();
    let mut t1_wall = 0.0f64;
    for &threads in &sweep_threads {
        sys.executor.pool = WorkerPool::new(threads);
        // warm-up pass so index builds and cache fills hit every config
        for q in &queries {
            sys.executor.select(q, Mode::Toss).expect("select succeeds");
        }
        let t0 = Instant::now();
        let mut ran = 0usize;
        for _ in 0..rounds {
            for q in &queries {
                sys.executor.select(q, Mode::Toss).expect("select succeeds");
                ran += 1;
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        if threads == 1 {
            t1_wall = wall;
        }
        sweep.push(Value::object(vec![
            ("threads", threads.into()),
            ("wall_ms", (wall * 1e3).into()),
            ("qps", (ran as f64 / wall).into()),
            ("speedup_vs_t1", (t1_wall / wall).into()),
        ]));
        eprintln!(
            "threads {threads}: {:.1} ms ({:.0} q/s, {:.2}x vs t1)",
            wall * 1e3,
            ran as f64 / wall,
            t1_wall / wall
        );
    }

    // ---- single-worker overhead: two t=1 runs bound the noise ---------
    sys.executor.pool = WorkerPool::new(1);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for q in &queries {
            sys.executor.select(q, Mode::Toss).expect("select succeeds");
        }
    }
    let t1_rerun = t0.elapsed().as_secs_f64();
    let regression_pct = 100.0 * (t1_wall / t1_rerun - 1.0);

    // ---- index probe vs forced full scan ------------------------------
    // A workload query's compiled XPath, evaluated both ways at the DB
    // layer: the full partitioned scan over every document vs the
    // content-index candidate set (the planner's batched probe).
    let probed = sys
        .executor
        .select(&queries[0], Mode::Toss)
        .expect("select succeeds");
    let xpath = XPath::parse(&probed.xpath).expect("executor emits parseable xpath");
    let coll = sys.executor.db.collection("dblp").expect("dblp exists");
    let total_docs = coll.documents().len();
    let pool = WorkerPool::new(1);

    let t0 = Instant::now();
    for _ in 0..probe_rounds {
        xpath.eval_collection_budgeted(coll, &NoBudget);
    }
    let scan_s = t0.elapsed().as_secs_f64();

    // the probe terms are the author spellings the planner extracted;
    // recompute the candidate set the way the executor does
    let candidates = xpath.count_scan_candidates(coll, None);
    let (scan_result, _) = xpath.eval_collection_budgeted(coll, &NoBudget);
    let mut probe_s = f64::NAN;
    let mut probe_docs_len = 0usize;
    if let Some(toss_core::QueryPlan::IndexProbe { tag, .. }) = &probed.plan {
        let terms: Vec<String> = probe_terms_of(&probed.xpath);
        let docs = coll.index().docs_with_tag_content_any(tag, &terms);
        probe_docs_len = docs.len();
        let (probe_result, _) =
            xpath.eval_collection_docs_budgeted(coll, &docs, &NoBudget, &pool);
        assert_eq!(probe_result, scan_result, "probe must reproduce the scan");
        let t0 = Instant::now();
        for _ in 0..probe_rounds {
            xpath.eval_collection_docs_budgeted(coll, &docs, &NoBudget, &pool);
        }
        probe_s = t0.elapsed().as_secs_f64();
    }
    let probe_speedup = scan_s / probe_s;
    eprintln!(
        "probe vs scan: scan {:.2} ms, probe {:.2} ms ({probe_speedup:.1}x, \
         {probe_docs_len}/{total_docs} candidate docs)",
        scan_s * 1e3 / probe_rounds as f64,
        probe_s * 1e3 / probe_rounds as f64,
    );

    // ---- planner counters over the whole run --------------------------
    let snap = toss_obs::metrics::snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as i64;

    let report = Value::object(vec![
        (
            "workload",
            Value::object(vec![
                ("papers", corpus.papers.len().into()),
                ("queries", queries.len().into()),
                ("rounds", rounds.into()),
                ("cores", cores.into()),
                ("quick", quick.into()),
            ]),
        ),
        ("thread_sweep", Value::Array(sweep)),
        (
            "t1_overhead",
            Value::object(vec![
                ("wall_ms_first", (t1_wall * 1e3).into()),
                ("wall_ms_rerun", (t1_rerun * 1e3).into()),
                ("regression_pct", regression_pct.into()),
            ]),
        ),
        (
            "probe_vs_scan",
            Value::object(vec![
                ("xpath", probed.xpath.as_str().into()),
                ("scan_ms", (scan_s * 1e3 / probe_rounds as f64).into()),
                ("probe_ms", (probe_s * 1e3 / probe_rounds as f64).into()),
                ("speedup", probe_speedup.into()),
                ("candidate_docs", probe_docs_len.into()),
                ("scan_candidates", candidates.into()),
                ("total_docs", total_docs.into()),
            ]),
        ),
        (
            "planner",
            Value::object(vec![
                ("index_probe", counter("toss.planner.index_probe").into()),
                ("parallel_scan", counter("toss.planner.parallel_scan").into()),
                (
                    "probe_candidates",
                    counter("toss.planner.probe_candidates").into(),
                ),
                ("pool_runs", counter("toss.pool.runs").into()),
                ("pool_partitions", counter("toss.pool.partitions").into()),
                (
                    "speculative_waste",
                    counter("toss.pool.speculative_waste").into(),
                ),
            ]),
        ),
    ]);

    let out = toss_bench::write_bench("query_parallel", quick, &report).expect("write BENCH_query_parallel.json");
    println!("wrote {}", out.display());
}

/// Extract the `text()='…'` literals of the first predicate group from a
/// compiled XPath string — the probe terms the planner batched. Kept
/// string-level on purpose: the bench treats the executor as a black box.
fn probe_terms_of(xpath: &str) -> Vec<String> {
    let mut terms = Vec::new();
    let mut rest = xpath;
    while let Some(i) = rest.find("text()='") {
        rest = &rest[i + "text()='".len()..];
        if let Some(j) = rest.find('\'') {
            terms.push(rest[..j].to_string());
            rest = &rest[j + 1..];
        } else {
            break;
        }
    }
    terms
}
