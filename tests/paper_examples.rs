//! The paper's numbered examples, reproduced as integration tests.

use std::sync::Arc;
use toss::core::algebra::{toss_join, toss_select, TossPattern};
use toss::core::convert::Conversions;
use toss::core::typesys::TypeHierarchy;
use toss::core::{SeoInstance, TossCond, TossTerm};
use toss::ontology::hierarchy::from_pairs;
use toss::ontology::{enhance, fuse, Constraint};
use toss::similarity::Levenshtein;
use toss::tax::{product, Cond, EdgeKind, Matcher, PatternTree, ProjectEntry, Term, PROD_ROOT_TAG};
use toss::tree::{Forest, Tree, TreeBuilder};
use toss::xmldb::parse_forest;

/// A cut-down version of the paper's Figure 1 (DBLP fragment).
fn dblp() -> Forest {
    parse_forest(
        r#"<inproceedings>
             <author>Paolo Ciancarini</author>
             <title>Managing Complex Documents Over the WWW</title>
             <year>1999</year>
             <booktitle>SIGMOD Conference</booktitle>
           </inproceedings>
           <inproceedings>
             <author>Ernesto Damiani</author>
             <author>Pierangela Samarati</author>
             <title>Securing XML Documents</title>
             <year>2000</year>
             <booktitle>SIGMOD Conference</booktitle>
           </inproceedings>
           <inproceedings>
             <author>Sanjay Agrawal</author>
             <title>Materialized View and Index Selection Tool for Microsoft SQL Server 2000</title>
             <year>2000</year>
             <booktitle>SIGMOD Conference</booktitle>
           </inproceedings>"#,
    )
    .expect("figure 1 parses")
}

/// A cut-down version of Figure 2 (SIGMOD proceedings fragment).
fn sigmod() -> Forest {
    parse_forest(
        r#"<article>
             <author>E. Damiani</author>
             <author>P. Samarati</author>
             <title>Securing XML Document</title>
             <conference>ACM SIGMOD International Conference on Management of Data</conference>
             <confYear>2000</confYear>
           </article>
           <article>
             <author>S. Agrawal</author>
             <title>Materialized View and Index Selection Tool for Microsoft SQL Server 2000</title>
             <conference>ACM SIGMOD International Conference on Management of Data</conference>
             <confYear>2000</confYear>
           </article>"#,
    )
    .expect("figure 2 parses")
}

/// Example 1: tags and contents with their types.
#[test]
fn example1_attributes_and_types() {
    let f = dblp();
    let t = &f.trees()[0];
    let root = t.root().unwrap();
    let author = t.child_by_tag(root, "author").unwrap();
    let d = t.data(author).unwrap();
    assert_eq!(d.tag, "author");
    assert_eq!(d.content_str(), "Paolo Ciancarini");
    // t(o.tag) = string; year content lexes as int
    let year = t.child_by_tag(root, "year").unwrap();
    assert_eq!(
        t.data(year).unwrap().content,
        Some(toss::tree::Value::Int(1999))
    );
}

/// Examples 2–3: the Figure 3 pattern tree and its selection.
fn figure3_pattern() -> PatternTree {
    let mut p = PatternTree::new(1);
    let r = p.root();
    p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
    p.add_child(r, 3, EdgeKind::ParentChild).unwrap();
    p.set_condition(Cond::all(vec![
        Cond::eq(Term::tag(1), Term::str("inproceedings")),
        Cond::eq(Term::tag(2), Term::str("title")),
        Cond::eq(Term::tag(3), Term::str("year")),
        Cond::eq(Term::content(3), Term::int(1999)),
    ]))
    .unwrap();
    p
}

#[test]
fn example3_selection_with_expansion() {
    // σ_{P1}({$1}) keeps the full matched papers
    let out = Matcher::new(figure3_pattern())
        .select(&dblp(), &[1])
        .unwrap();
    assert_eq!(out.len(), 1);
    let t = &out.trees()[0];
    assert_eq!(t.node_count(), 5); // whole 1999 paper
}

/// Example 4: embeddings and witness trees without expansion.
#[test]
fn example4_witness_trees() {
    let f = dblp();
    let es = Matcher::new(figure3_pattern()).embeddings(&f.trees()[0]);
    assert_eq!(es.len(), 1);
    let out = Matcher::new(figure3_pattern()).select(&f, &[]).unwrap();
    assert_eq!(out.len(), 1);
    // witness: inproceedings with title + year children only
    let t = &out.trees()[0];
    assert_eq!(t.node_count(), 3);
}

/// Example 5: projection of the authors of 1999 papers.
#[test]
fn example5_projection() {
    let mut p = PatternTree::new(1);
    let r = p.root();
    p.add_child(r, 2, EdgeKind::ParentChild).unwrap();
    p.add_child(r, 3, EdgeKind::ParentChild).unwrap();
    p.set_condition(Cond::all(vec![
        Cond::eq(Term::tag(1), Term::str("inproceedings")),
        Cond::eq(Term::tag(2), Term::str("author")),
        Cond::eq(Term::tag(3), Term::str("year")),
        Cond::eq(Term::content(3), Term::int(1999)),
    ]))
    .unwrap();
    let out = Matcher::new(p)
        .project(&dblp(), &[ProjectEntry::subtree(2)])
        .unwrap();
    assert_eq!(out.len(), 1);
    assert_eq!(
        out.trees()[0]
            .data(out.trees()[0].root().unwrap())
            .unwrap()
            .content_str(),
        "Paolo Ciancarini"
    );
}

/// Example 6 / Figure 7: the join on equal titles across the two sources.
#[test]
fn example6_join_on_title_equality() {
    let mut p = PatternTree::new(1);
    let r = p.root();
    p.add_child(r, 2, EdgeKind::AncestorDescendant).unwrap();
    p.add_child(r, 3, EdgeKind::AncestorDescendant).unwrap();
    p.set_condition(Cond::all(vec![
        Cond::eq(Term::tag(1), Term::str(PROD_ROOT_TAG)),
        Cond::eq(Term::tag(2), Term::str("title")),
        Cond::eq(Term::tag(3), Term::str("title")),
        Cond::eq(Term::content(2), Term::content(3)),
        // force the two titles to come from different sides by content
        // inequality with themselves is impossible; instead require one
        // side's companion tag to be booktitle and the other conference
    ]))
    .unwrap();
    let out = Matcher::new(p)
        .select(&product(&dblp(), &sigmod()).unwrap(), &[])
        .unwrap();
    // "Materialized View ..." matches exactly across sources (the paper's
    // Figure 7 result); "Securing XML Documents" differs by one character
    // so equality misses it — exactly TAX's shortcoming
    let xml: Vec<String> = out
        .iter()
        .map(|t| toss::tree::serialize::tree_to_xml(t, toss::tree::serialize::Style::Compact))
        .collect();
    assert!(xml
        .iter()
        .any(|x| x.matches("Materialized View").count() == 2));
    assert!(!xml.iter().any(|x| x.matches("Securing XML").count() == 2));
}

/// Example 7: the part-of hierarchy over {article, author, title}.
#[test]
fn example7_hierarchy() {
    let h = from_pairs(&[("author", "article"), ("title", "article")]).unwrap();
    assert!(h.leq_terms("author", "article"));
    assert!(h.leq_terms("title", "article"));
    assert!(h.leq_terms("author", "author")); // reflexive
    assert!(!h.leq_terms("author", "title"));
    assert_eq!(h.edges().len(), 2); // the minimal Hasse edge set
}

/// Examples 9–10 / Figure 11: fusing the SIGMOD and DBLP hierarchies
/// under the interoperation constraints.
#[test]
fn example10_canonical_fusion() {
    let sigmod_h = from_pairs(&[
        ("article", "articles"),
        ("author", "article"),
        ("title", "article"),
        ("conference", "article"),
        ("year", "article"),
        ("confYear", "article"),
    ])
    .unwrap();
    let dblp_h = from_pairs(&[
        ("author", "inproceedings"),
        ("title", "inproceedings"),
        ("booktitle", "inproceedings"),
        ("year", "inproceedings"),
        ("pages", "inproceedings"),
    ])
    .unwrap();
    let mut cs = Vec::new();
    cs.extend(Constraint::eq("conference", 0, "booktitle", 1));
    cs.extend(Constraint::eq("confYear", 0, "year", 1));
    let fusion = fuse(&[sigmod_h, dblp_h], &cs).unwrap();
    let h = &fusion.hierarchy;
    // Figure 11: booktitle/conference fused; year/confYear fused
    assert_eq!(h.node_of("booktitle"), h.node_of("conference"));
    assert_eq!(h.node_of("year"), h.node_of("confYear"));
    // both parents preserved
    assert!(h.leq_terms("booktitle", "article"));
    assert!(h.leq_terms("booktitle", "inproceedings"));
}

/// Example 11 / Figure 13: the toy isa hierarchy enhanced at ε = 2.
#[test]
fn example11_similarity_enhancement() {
    let h = from_pairs(&[
        ("relation", "thing"),
        ("relational", "thing"),
        ("model", "thing"),
        ("models", "thing"),
    ])
    .unwrap();
    let seo = enhance(&h, &Levenshtein, 2.0).unwrap();
    // d(relation, relational) = 2 and d(model, models) = 1: two merged nodes
    assert!(seo.similar("relation", "relational"));
    assert!(seo.similar("model", "models"));
    assert!(!seo.similar("relation", "model"));
    // ≤' as in Figure 13(b): merged nodes still below the root
    assert!(seo.leq_terms("relation", "thing"));
    assert!(seo.leq_terms("models", "thing"));
}

/// Example 12: the wildcard part-of query shape — find papers related to
/// Microsoft wherever the word appears.
#[test]
fn example12_wildcard_condition() {
    let mut p = PatternTree::new(1);
    let r = p.root();
    p.add_child(r, 3, EdgeKind::AncestorDescendant).unwrap();
    p.set_condition(Cond::all(vec![
        Cond::eq(Term::tag(1), Term::str("inproceedings")),
        // #3.tag is a wildcard (no tag condition); content contains Microsoft
        Cond::contains(Term::content(3), Term::str("Microsoft")),
    ]))
    .unwrap();
    let out = Matcher::new(p).select(&dblp(), &[1]).unwrap();
    assert_eq!(out.len(), 1);
    let xml = toss::tree::serialize::tree_to_xml(
        &out.trees()[0],
        toss::tree::serialize::Style::Compact,
    );
    assert!(xml.contains("Microsoft SQL Server"));
}

/// Example 13: the similarity join on titles — TOSS finds both shared
/// papers where TAX (Example 6) found one.
#[test]
fn example13_similarity_join() {
    // ontology: every title string under "title"
    let mut pairs: Vec<(String, String)> = Vec::new();
    for f in [&dblp(), &sigmod()] {
        for t in f.iter() {
            let root = t.root().unwrap();
            for c in t.children(root) {
                let d = t.data(c).unwrap();
                if d.tag == "title" {
                    pairs.push((d.content_str(), "title".to_string()));
                }
            }
        }
    }
    let pair_refs: Vec<(&str, &str)> = pairs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let h = from_pairs(&pair_refs).unwrap();
    let seo = Arc::new(
        enhance(
            &h,
            &toss::similarity::combinators::MultiWordGate::new(Levenshtein),
            2.0,
        )
        .unwrap(),
    );

    let left = SeoInstance::new(dblp(), seo.clone());
    let right = SeoInstance::new(sigmod(), seo);
    // Figure 14's shape: the product root with two title descendants
    // related by ~
    let mut structure = PatternTree::new(1);
    let root = structure.root();
    structure.add_child(root, 2, EdgeKind::AncestorDescendant).unwrap();
    structure.add_child(root, 3, EdgeKind::AncestorDescendant).unwrap();
    let pattern2 = TossPattern {
        structure,
        condition: TossCond::all(vec![
            TossCond::eq(TossTerm::tag(1), TossTerm::str(PROD_ROOT_TAG)),
            TossCond::eq(TossTerm::tag(2), TossTerm::str("title")),
            TossCond::eq(TossTerm::tag(3), TossTerm::str("title")),
            TossCond::similar(TossTerm::content(2), TossTerm::content(3)),
        ]),
    };
    let th = TypeHierarchy::new();
    let cv = Conversions::new();
    let out = toss_join(&left, &right, &pattern2, &[], &th, &cv).unwrap();
    let xml: Vec<String> = out
        .forest
        .iter()
        .map(|t| toss::tree::serialize::tree_to_xml(t, toss::tree::serialize::Style::Compact))
        .collect();
    // the paper: "The result will contain two trees corresponding to the
    // papers titled 'Materialized View ...' and 'Securing XML ...'"
    assert!(xml.iter().any(|x| x.matches("Materialized View").count() == 2));
    assert!(xml.iter().any(|x| x.matches("Securing XML").count() == 2));
}

/// Proposition 1: TOSS algebra results are SEO instances sharing the SEO.
#[test]
fn proposition1_closure() {
    let h = from_pairs(&[("SIGMOD Conference", "conference")]).unwrap();
    let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
    let inst = SeoInstance::new(dblp(), seo.clone());
    let th = TypeHierarchy::new();
    let cv = Conversions::new();
    let pattern = TossPattern::spine(
        &[EdgeKind::ParentChild],
        TossCond::all(vec![
            TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
            TossCond::eq(TossTerm::tag(2), TossTerm::str("booktitle")),
            TossCond::below(TossTerm::content(2), TossTerm::ty("conference")),
        ]),
    )
    .unwrap();
    let out = toss_select(&inst, &pattern, &[1], &th, &cv).unwrap();
    assert!(Arc::ptr_eq(&out.seo, &seo));
    assert_eq!(out.len(), 3); // all three papers are SIGMOD Conference
}

/// The witness tree of Figure 7's shape can be constructed by hand too.
#[test]
fn figure7_shape() {
    let t: Tree = TreeBuilder::new(PROD_ROOT_TAG)
        .open("title")
        .content("Materialized View and Index Selection Tool for Microsoft SQL Server 2000")
        .close()
        .open("booktitle")
        .content("SIGMOD Conference")
        .close()
        .build();
    assert_eq!(t.node_count(), 3);
    assert_eq!(t.data(t.root().unwrap()).unwrap().tag, PROD_ROOT_TAG);
}
