//! Semantic-layer fast path — `BENCH_semantic.json`.
//!
//! Measures the two halves of the semantic fast path:
//!
//! * **SEA blocking** — the candidate-pruned enhancement (`enhance`,
//!   length + q-gram count filters over an inverted bigram postings
//!   index) against the all-pairs loop (`enhance_exhaustive`) on
//!   synthetic hierarchies of growing vocabulary, asserting the two
//!   produce byte-identical persisted SEOs before trusting the timing.
//! * **rewrite cache** — a similarity + below-cone query compiled cold
//!   (first compile on a freshly enhanced SEO: reachability-index build,
//!   cone materialization and expansion included) vs warm (every later
//!   compile of the same condition, served from the executor's bounded
//!   rewrite cache).
//!
//! `cores` records what the machine actually offers; both measured paths
//! are single-threaded, so the numbers are algorithmic, not parallel.
//! `--quick` shrinks the sizes for the `verify.sh` smoke step; the JSON
//! schema is identical in both modes.

use std::sync::Arc;
use std::time::Instant;
use toss_core::executor::Mode;
use toss_core::{Executor, TossCond, TossTerm, WorkerPool};
use toss_json::Value;
use toss_ontology::persist::seo_to_json;
use toss_ontology::sea::{enhance, enhance_exhaustive};
use toss_ontology::Hierarchy;
use toss_similarity::Levenshtein;
use toss_tax::EdgeKind;
use toss_tree::Forest;
use toss_xmldb::{Database, DatabaseConfig};

const EPSILON: f64 = 1.0;

/// Digit-doubled index rendering: any two distinct indices differ in at
/// least one digit position, hence at least two characters — so base
/// terms never fuse with each other at ε = 1, only with their planted
/// near-duplicate variants (one trailing edit away).
fn term_name(i: usize) -> String {
    doubled("t", i, 5)
}

fn cat_name(c: usize) -> String {
    doubled("cat", c, 2)
}

fn doubled(prefix: &str, i: usize, width: usize) -> String {
    let mut s = String::from(prefix);
    for d in format!("{i:0width$}").chars() {
        s.push(d);
        s.push(d);
    }
    s
}

/// A synthetic ontology of `n` vocabulary terms: category roots under a
/// single root, leaf terms under the categories, and ~5% planted
/// near-duplicate leaves (distance 1 from their base, same category, so
/// the enhancement merges exactly those pairs and stays consistent).
fn synthetic(n: usize) -> Hierarchy {
    let cats = (n / 25).clamp(2, 40);
    let cat_names: Vec<String> = (0..cats).map(cat_name).collect();
    let mut pairs: Vec<(String, String)> = cat_names
        .iter()
        .map(|c| (c.clone(), "root".to_string()))
        .collect();
    let n_dups = n / 20;
    let n_base = n.saturating_sub(n_dups).max(1);
    for i in 0..n_base {
        pairs.push((term_name(i), cat_names[i % cats].clone()));
    }
    for i in 0..n_dups {
        // stride the duplicated bases across the vocabulary
        let base = (i * 19) % n_base;
        pairs.push((format!("{}x", term_name(base)), cat_names[base % cats].clone()));
    }
    let borrowed: Vec<(&str, &str)> = pairs
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    toss_ontology::hierarchy::from_pairs(&borrowed).expect("synthetic hierarchy is acyclic")
}

/// The rewrite-bench query: a below-cone over the whole vocabulary plus
/// a similarity probe — the two expensive expansion kinds.
fn rewrite_query(probe: &str) -> toss_core::TossQuery {
    toss_core::TossQuery {
        collection: "none".into(),
        pattern: toss_core::algebra::TossPattern::spine(
            &[EdgeKind::ParentChild, EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("paper")),
                TossCond::below(TossTerm::content(2), TossTerm::ty("root")),
                TossCond::similar(TossTerm::content(3), TossTerm::str(probe)),
            ]),
        )
        .expect("spine pattern builds"),
        expand_labels: vec![1],
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[usize] = if quick { &[50, 200] } else { &[50, 500, 5000] };
    let (cold_samples, warm_rounds): (usize, usize) = if quick { (3, 50) } else { (5, 500) };
    let cores = WorkerPool::with_available_parallelism().workers();
    eprintln!("sizes {sizes:?}, {cores} core(s), quick={quick}");

    // ---- SEA: blocked vs exhaustive, equivalence asserted -------------
    let mut sea = Vec::new();
    for &n in sizes {
        let h = synthetic(n);
        let terms = h.term_count();

        let t0 = Instant::now();
        let blocked = enhance(&h, &Levenshtein, EPSILON).expect("consistent");
        let blocked_s = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let exhaustive = enhance_exhaustive(&h, &Levenshtein, EPSILON).expect("consistent");
        let exhaustive_s = t0.elapsed().as_secs_f64();

        assert_eq!(
            seo_to_json(&blocked),
            seo_to_json(&exhaustive),
            "blocked SEA must be byte-identical to the exhaustive run at n={n}"
        );
        let speedup = exhaustive_s / blocked_s;
        eprintln!(
            "sea n={terms}: blocked {:.2} ms, exhaustive {:.2} ms ({speedup:.1}x)",
            blocked_s * 1e3,
            exhaustive_s * 1e3
        );
        sea.push(Value::object(vec![
            ("terms", terms.into()),
            ("blocked_ms", (blocked_s * 1e3).into()),
            ("exhaustive_ms", (exhaustive_s * 1e3).into()),
            ("speedup", speedup.into()),
            ("identical_seo", true.into()),
        ]));
    }

    // ---- rewrite: cold (fresh SEO) vs warm (cached) -------------------
    let n = *sizes.last().expect("sizes is non-empty");
    let h = synthetic(n);
    let probe = term_name(1);
    let query = rewrite_query(&probe);
    let empty = Forest::new();

    let mut cold_total = 0.0f64;
    let mut executor = None;
    for _ in 0..cold_samples {
        // a fresh enhancement gets a fresh SEO version: the first
        // compile pays the reachability index, the cone materialization
        // and the full expansion
        let seo = Arc::new(enhance(&h, &Levenshtein, EPSILON).expect("consistent"));
        let ex = Executor::new(Database::with_config(DatabaseConfig::unlimited()), seo)
            .with_probe_metric(Arc::new(Levenshtein));
        let t0 = Instant::now();
        ex.select_in_memory(&empty, &query.pattern, &query.expand_labels, Mode::Toss)
            .expect("compile succeeds");
        cold_total += t0.elapsed().as_secs_f64();
        executor = Some(ex);
    }
    let cold_ms = cold_total * 1e3 / cold_samples as f64;

    let ex = executor.expect("at least one cold sample ran");
    let t0 = Instant::now();
    for _ in 0..warm_rounds {
        ex.select_in_memory(&empty, &query.pattern, &query.expand_labels, Mode::Toss)
            .expect("compile succeeds");
    }
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3 / warm_rounds as f64;
    let rewrite_speedup = cold_ms / warm_ms;
    assert!(
        ex.rewrite_cache.hits() >= warm_rounds as u64,
        "warm compiles must be cache hits"
    );
    eprintln!(
        "rewrite n={n}: cold {cold_ms:.3} ms, warm {warm_ms:.4} ms ({rewrite_speedup:.0}x), \
         cache hits {} misses {}",
        ex.rewrite_cache.hits(),
        ex.rewrite_cache.misses()
    );

    let snap = toss_obs::metrics::snapshot();
    let counter = |n: &str| snap.counter(n).unwrap_or(0) as i64;
    let report = Value::object(vec![
        (
            "workload",
            Value::object(vec![
                ("sizes", Value::Array(sizes.iter().map(|&s| s.into()).collect())),
                ("epsilon", EPSILON.into()),
                ("metric", "levenshtein".into()),
                ("cores", cores.into()),
                ("quick", quick.into()),
            ]),
        ),
        ("sea_blocked_vs_exhaustive", Value::Array(sea)),
        (
            "rewrite_cache",
            Value::object(vec![
                ("terms", n.into()),
                ("cold_samples", cold_samples.into()),
                ("warm_rounds", warm_rounds.into()),
                ("cold_ms", cold_ms.into()),
                ("warm_ms", warm_ms.into()),
                ("speedup", rewrite_speedup.into()),
                ("hits", (ex.rewrite_cache.hits() as i64).into()),
                ("misses", (ex.rewrite_cache.misses() as i64).into()),
            ]),
        ),
        (
            "semantic_counters",
            Value::object(vec![
                ("index_builds", counter("toss.semantic.index_builds").into()),
                ("sea_blocked_runs", counter("toss.semantic.sea.blocked_runs").into()),
                (
                    "sea_candidate_pairs",
                    counter("toss.semantic.sea.candidate_pairs").into(),
                ),
                (
                    "rewrite_cache_hits",
                    counter("toss.semantic.rewrite_cache.hits").into(),
                ),
                (
                    "rewrite_cache_misses",
                    counter("toss.semantic.rewrite_cache.misses").into(),
                ),
            ]),
        ),
    ]);

    let out = toss_bench::write_bench("semantic", quick, &report).expect("write BENCH_semantic.json");
    println!("wrote {}", out.display());
}
