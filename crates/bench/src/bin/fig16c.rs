//! Figure 16(c) — TOSS computation time vs ε.
//!
//! Protocol (paper Section 6, "TOSS computation time vs ε"): evaluate a
//! conjunctive selection (on a ~1000-term-ontology DBLP corpus) and a
//! DBLP ⋈ SIGMOD join, sweeping the similarity threshold ε used to
//! generate the SEO. Reported time is query-evaluation time; the SEA
//! precomputation is reported alongside for reference.
//!
//! Expected shape: both curves increase roughly linearly with ε (denser
//! SEO nodes → larger expanded term sets → more output / more ontology
//! access).

use std::time::Duration;
use toss_json::Value;
use toss_bench::{build_executor, write_json, Table};
use toss_core::algebra::{JoinKey, TossPattern};
use toss_core::executor::Mode;
use toss_core::{QueryGovernor, TossCond, TossQuery, TossTerm};
use toss_datagen::{corpus::generate, CorpusConfig};
use toss_tax::EdgeKind;

/// A similarity selection: `author ~ probe` plus an isa condition. The
/// `~` expansion is what grows with ε — more name variants share SEO
/// nodes with the probe at larger thresholds, producing larger results.
fn selection_query(probe: &str) -> TossQuery {
    TossQuery {
        collection: "dblp".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild, EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::eq(TossTerm::tag(3), TossTerm::str("booktitle")),
                TossCond::similar(TossTerm::content(2), TossTerm::str(probe)),
            ]),
        )
        .expect("valid spine"),
        expand_labels: vec![1],
    }
}

fn join_sides() -> (TossQuery, TossQuery) {
    let left = TossQuery {
        collection: "dblp".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild, EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("title")),
                TossCond::eq(TossTerm::tag(3), TossTerm::str("year")),
            ]),
        )
        .expect("valid spine"),
        expand_labels: vec![1],
    };
    let right = TossQuery {
        collection: "sigmod".into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("article")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("title")),
            ]),
        )
        .expect("valid spine"),
        expand_labels: vec![1],
    };
    (left, right)
}

struct Point {
    epsilon: f64,
    workload: String,
    query_ms: f64,
    sea_ms: f64,
    ontology_terms: usize,
    results: usize,
}

impl Point {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("epsilon", self.epsilon.into()),
            ("workload", self.workload.as_str().into()),
            ("query_ms", self.query_ms.into()),
            ("sea_ms", self.sea_ms.into()),
            ("ontology_terms", self.ontology_terms.into()),
            ("results", self.results.into()),
        ])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    const REPS: u32 = 3;
    let epsilons = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
    // ~1000-term ontology, as in the paper's setup (1003 / 1709 terms)
    let corpus = generate(CorpusConfig::scalability(13, 6000));

    let mut points: Vec<Point> = Vec::new();
    let mut table = Table::new(&[
        "ε", "workload", "query ms", "SEA ms", "ont terms", "results",
    ]);

    // a fixed probe pool drawn from the workload generator, shared by
    // every ε so the comparison isolates the threshold
    let probes: Vec<String> = toss_datagen::queries::workload(&corpus, 77, 16)
        .into_iter()
        .map(|q| q.author_probe)
        .collect();

    for &eps in &epsilons {
        let sys = build_executor(&corpus, eps, 400);
        // selection: total time across the probe pool (best of REPS)
        let mut best = Duration::MAX;
        let mut results = 0usize;
        for _ in 0..REPS {
            let mut total = Duration::ZERO;
            let mut n = 0usize;
            for p in &probes {
                let out = sys
                    .executor
                    .select(&selection_query(p), Mode::Toss)
                    .expect("select");
                total += out.total_time();
                n += out.forest.len();
            }
            if total < best {
                best = total;
                results = n;
            }
        }
        table.row(vec![
            format!("{eps}"),
            "selection".into(),
            format!("{:.2}", ms(best)),
            format!("{:.1}", ms(sys.precompute_time)),
            sys.ontology_terms.to_string(),
            results.to_string(),
        ]);
        points.push(Point {
            epsilon: eps,
            workload: "selection".into(),
            query_ms: ms(best),
            sea_ms: ms(sys.precompute_time),
            ontology_terms: sys.ontology_terms,
            results,
        });

        // join
        let (left, right) = join_sides();
        let (lkey, rkey) = (JoinKey::child("title"), JoinKey::child("title"));
        let unlimited = QueryGovernor::unlimited();
        let mut best = Duration::MAX;
        let mut results = 0usize;
        for _ in 0..REPS {
            let out = sys
                .executor
                .join_similarity_governed(&left, &right, &lkey, &rkey, Mode::Toss, &unlimited)
                .expect("join");
            if out.total_time() < best {
                best = out.total_time();
                results = out.forest.len();
            }
        }
        table.row(vec![
            format!("{eps}"),
            "join".into(),
            format!("{:.2}", ms(best)),
            format!("{:.1}", ms(sys.precompute_time)),
            sys.ontology_terms.to_string(),
            results.to_string(),
        ]);
        points.push(Point {
            epsilon: eps,
            workload: "join".into(),
            query_ms: ms(best),
            sea_ms: ms(sys.precompute_time),
            ontology_terms: sys.ontology_terms,
            results,
        });
        eprintln!("ε={eps} done");
    }

    println!("\nFigure 16(c) — TOSS computation time vs ε");
    table.print();
    println!("\npaper shape: both workloads increase roughly linearly with ε");
    match write_json(
        "fig16c",
        &Value::Array(points.iter().map(Point::to_value).collect()),
    ) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
