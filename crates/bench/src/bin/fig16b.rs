//! Figure 16(b) — join scalability.
//!
//! Protocol (paper Section 6, "Scalability of join"): join the DBLP and
//! SIGMOD data with 5 tag-matching and 1 similarTo conditions (titles
//! similar across the two corpora), varying the total size of the two
//! XML files. TAX uses exact match for similarTo.
//!
//! Expected shape: roughly linear in total size, with a super-linear
//! tail where intermediate results dominate; TOSS above TAX by a gap
//! that grows with data size.

use std::time::Duration;
use toss_json::Value;
use toss_bench::{build_executor, write_json, Table};
use toss_core::algebra::{JoinKey, TossPattern};
use toss_core::executor::Mode;
use toss_core::tax::EdgeKind;
use toss_core::{QueryGovernor, TossCond, TossQuery, TossTerm};
use toss_datagen::{corpus::generate, CorpusConfig};

/// One side of the join: tag conditions only (the similarTo lives in the
/// keyed hash-join). DBLP side carries 3 tag conditions, SIGMOD side 2 —
/// the paper's 5 tag-matching conditions in total.
fn side(collection: &str, root: &str, tags: &[&str]) -> TossQuery {
    let mut conds = vec![TossCond::eq(TossTerm::tag(1), TossTerm::str(root))];
    let edges: Vec<EdgeKind> = tags.iter().map(|_| EdgeKind::ParentChild).collect();
    for (i, tag) in tags.iter().enumerate() {
        conds.push(TossCond::eq(
            TossTerm::tag((i + 2) as u32),
            TossTerm::str(tag),
        ));
    }
    TossQuery {
        collection: collection.into(),
        pattern: TossPattern::spine(&edges, TossCond::all(conds)).expect("valid spine"),
        expand_labels: vec![1],
    }
}

struct Point {
    papers: usize,
    total_bytes: usize,
    system: String,
    total_ms: f64,
    execute_ms: f64,
    convert_ms: f64,
    results: usize,
}

impl Point {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("papers", self.papers.into()),
            ("total_bytes", self.total_bytes.into()),
            ("system", self.system.as_str().into()),
            ("total_ms", self.total_ms.into()),
            ("execute_ms", self.execute_ms.into()),
            ("convert_ms", self.convert_ms.into()),
            ("results", self.results.into()),
        ])
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    const REPS: u32 = 3;
    let paper_counts = [500usize, 1000, 2000, 4000, 8000, 14000];

    let mut points: Vec<Point> = Vec::new();
    let mut table = Table::new(&[
        "papers", "total KB", "system", "total ms", "execute", "join/convert", "results",
    ]);

    for &papers in &paper_counts {
        let corpus = generate(CorpusConfig::scalability(7, papers));
        let sys = build_executor(&corpus, 3.0, 600);
        let left = side("dblp", "inproceedings", &["title", "year"]);
        let right = side("sigmod", "article", &["title"]);
        let lkey = JoinKey::child("title");
        let rkey = JoinKey::child("title");
        let unlimited = QueryGovernor::unlimited();
        let total_bytes = sys.dblp_bytes + sys.sigmod_bytes;

        for mode in [Mode::Toss, Mode::TaxBaseline] {
            let mut best: Option<(Duration, Duration, Duration, usize)> = None;
            for _ in 0..REPS {
                let out = sys
                    .executor
                    .join_similarity_governed(&left, &right, &lkey, &rkey, mode, &unlimited)
                    .expect("join succeeds");
                let cur = (
                    out.rewrite_time(),
                    out.execute_time(),
                    out.convert_time(),
                    out.forest.len(),
                );
                best = Some(match best {
                    Some(b) if b.0 + b.1 + b.2 <= cur.0 + cur.1 + cur.2 => b,
                    _ => cur,
                });
            }
            let (rw, ex, cv, n) = best.expect("at least one rep");
            let label = match mode {
                Mode::Toss => "TOSS",
                Mode::TaxBaseline => "TAX",
            };
            table.row(vec![
                papers.to_string(),
                (total_bytes / 1024).to_string(),
                label.to_string(),
                format!("{:.2}", ms(rw + ex + cv)),
                format!("{:.2}", ms(ex)),
                format!("{:.2}", ms(cv)),
                n.to_string(),
            ]);
            points.push(Point {
                papers,
                total_bytes,
                system: label.to_string(),
                total_ms: ms(rw + ex + cv),
                execute_ms: ms(ex),
                convert_ms: ms(cv),
                results: n,
            });
        }
        eprintln!("papers={papers} done");
    }

    println!("\nFigure 16(b) — join scalability (5 tag + 1 similarTo conditions)");
    table.print();
    println!(
        "\npaper shape: ~linear, super-linear at the last points (intermediate results); \
         TOSS−TAX gap 0.31–2.72 s growing with size"
    );
    match write_json(
        "fig16b",
        &Value::Array(points.iter().map(Point::to_value).collect()),
    ) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
