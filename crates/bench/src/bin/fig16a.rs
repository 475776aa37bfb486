//! Figure 16(a) — selection scalability.
//!
//! Protocol (paper Section 6, "Scalability of selection"): conjunctive
//! selection queries with 2 isa + 4 tag-matching conditions on the DBLP
//! data, varying the XML data size (up to the ~5 MB Xindice limit) and,
//! for TOSS, the ontology size. Reported time covers the paper's three
//! phases: rewrite, execute, convert.
//!
//! Expected shape: roughly linear in data size; TOSS above TAX by a gap
//! that grows with data size (more ontology accesses); TOSS curves for
//! different ontology sizes close to each other.

use std::time::Duration;
use toss_json::Value;
use toss_bench::{build_executor, write_json, Table};
use toss_core::algebra::TossPattern;
use toss_core::executor::Mode;
use toss_core::tax::EdgeKind;
use toss_core::{TossCond, TossOp, TossQuery, TossTerm};
use toss_datagen::{corpus::generate, CorpusConfig};

/// The 2-isa + 4-tag conjunctive selection of the experiment.
fn selection_query() -> TossQuery {
    let pattern = TossPattern::spine(
        &[
            EdgeKind::ParentChild,
            EdgeKind::ParentChild,
            EdgeKind::ParentChild,
        ],
        TossCond::all(vec![
            // 4 tag-matching conditions
            TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
            TossCond::eq(TossTerm::tag(2), TossTerm::str("booktitle")),
            TossCond::eq(TossTerm::tag(3), TossTerm::str("author")),
            TossCond::eq(TossTerm::tag(4), TossTerm::str("year")),
            // 2 isa conditions
            TossCond::below(TossTerm::content(2), TossTerm::ty("conference")),
            TossCond::below(TossTerm::content(3), TossTerm::ty("person")),
        ]),
    )
    .expect("fixed spine is valid");
    TossQuery {
        collection: "dblp".into(),
        pattern,
        expand_labels: vec![1],
    }
}

/// TAX baseline of the same query (isa → contains, per the paper).
fn tax_query() -> TossQuery {
    let mut q = selection_query();
    q.pattern.condition = TossCond::all(vec![
        TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
        TossCond::eq(TossTerm::tag(2), TossTerm::str("booktitle")),
        TossCond::eq(TossTerm::tag(3), TossTerm::str("author")),
        TossCond::eq(TossTerm::tag(4), TossTerm::str("year")),
        TossCond::cmp(
            TossTerm::content(2),
            TossOp::Contains,
            TossTerm::str("Conference"),
        ),
        TossCond::cmp(
            TossTerm::content(3),
            TossOp::Contains,
            TossTerm::str("Person"),
        ),
    ]);
    q
}

struct Point {
    papers: usize,
    dblp_bytes: usize,
    ontology_terms: usize,
    system: String,
    total_ms: f64,
    rewrite_ms: f64,
    execute_ms: f64,
    convert_ms: f64,
    results: usize,
}

impl Point {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("papers", self.papers.into()),
            ("dblp_bytes", self.dblp_bytes.into()),
            ("ontology_terms", self.ontology_terms.into()),
            ("system", self.system.as_str().into()),
            ("total_ms", self.total_ms.into()),
            ("rewrite_ms", self.rewrite_ms.into()),
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
    let paper_counts = [500usize, 1000, 2000, 4000, 8000, 16000];
    let term_caps = [100usize, 300, 1000];

    let mut points: Vec<Point> = Vec::new();
    let mut table = Table::new(&[
        "papers", "KB", "system", "ont terms", "total ms", "rewrite", "execute", "convert",
        "results",
    ]);

    for &papers in &paper_counts {
        let corpus = generate(CorpusConfig::scalability(42, papers));
        for &cap in &term_caps {
            let sys = build_executor(&corpus, 3.0, cap);
            let q = selection_query();
            // warm + measure
            let mut best: Option<(Duration, Duration, Duration, usize)> = None;
            for _ in 0..REPS {
                let out = sys.executor.select(&q, Mode::Toss).expect("toss select");
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
            let label = format!("TOSS({} terms)", sys.ontology_terms);
            table.row(vec![
                papers.to_string(),
                (sys.dblp_bytes / 1024).to_string(),
                label.clone(),
                sys.ontology_terms.to_string(),
                format!("{:.2}", ms(rw + ex + cv)),
                format!("{:.2}", ms(rw)),
                format!("{:.2}", ms(ex)),
                format!("{:.2}", ms(cv)),
                n.to_string(),
            ]);
            points.push(Point {
                papers,
                dblp_bytes: sys.dblp_bytes,
                ontology_terms: sys.ontology_terms,
                system: label,
                total_ms: ms(rw + ex + cv),
                rewrite_ms: ms(rw),
                execute_ms: ms(ex),
                convert_ms: ms(cv),
                results: n,
            });
        }
        // TAX baseline (ontology-free) on the largest-cap system's store
        let sys = build_executor(&corpus, 3.0, term_caps[0]);
        let q = tax_query();
        let mut best: Option<(Duration, Duration, Duration, usize)> = None;
        for _ in 0..REPS {
            let out = sys
                .executor
                .select(&q, Mode::TaxBaseline)
                .expect("tax select");
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
        table.row(vec![
            papers.to_string(),
            (sys.dblp_bytes / 1024).to_string(),
            "TAX".to_string(),
            "0".to_string(),
            format!("{:.2}", ms(rw + ex + cv)),
            format!("{:.2}", ms(rw)),
            format!("{:.2}", ms(ex)),
            format!("{:.2}", ms(cv)),
            n.to_string(),
        ]);
        points.push(Point {
            papers,
            dblp_bytes: sys.dblp_bytes,
            ontology_terms: 0,
            system: "TAX".to_string(),
            total_ms: ms(rw + ex + cv),
            rewrite_ms: ms(rw),
            execute_ms: ms(ex),
            convert_ms: ms(cv),
            results: n,
        });
        eprintln!("papers={papers} done");
    }

    println!("\nFigure 16(a) — selection scalability (2 isa + 4 tag conditions)");
    table.print();
    println!(
        "\npaper shape: ~linear in data size; TOSS−TAX gap 0.41–4.14 s growing with size \
         (Java/Xindice on a 1.4 GHz PC; absolute numbers differ)"
    );
    match write_json(
        "fig16a",
        &Value::Array(points.iter().map(Point::to_value).collect()),
    ) {
        Ok(p) => println!("results written to {}", p.display()),
        Err(e) => eprintln!("could not write results: {e}"),
    }
}
