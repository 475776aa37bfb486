//! The Ontology Maker (Section 3, component 1).
//!
//! "The Ontology Maker associates an ontology with each semistructured
//! instance. It uses WordNet to automatically identify isa, equivalent,
//! and part-of relationships between terms in an SDB. These can be edited
//! further and refined by a database administrator … leading to a set of
//! interoperation constraints describing relationships between the terms
//! in two ontologies."
//!
//! Given a forest and a lexicon, [`make_ontology`] builds:
//!
//! * the **part-of hierarchy** from the document structure itself (child
//!   tag part-of parent tag — exactly the paper's Figure 9 shape) plus
//!   lexicon holonym edges between known tags;
//! * the **isa hierarchy** from (a) lexicon hypernym chains between known
//!   terms, and (b) *content terms*: the distinct content strings of
//!   configured tags become terms placed below their lexical class when
//!   the lexicon knows them, else below the tag name itself ("each value
//!   of a type may also be viewed as a type").
//!
//! [`suggest_constraints`] then derives Example-10-style interoperation
//! constraints between two instances' ontologies: equality for lexicon
//! synonyms (`booktitle:1 = conference:2`, `confYear:1 = year:2`).

use crate::error::TossResult;
use std::collections::BTreeSet;
use toss_lexicon::Lexicon;
use toss_ontology::{Constraint, Ontology};
use toss_tree::Forest;

/// Hypernyms of a term expanded through the lexicon's synonym classes:
/// when `x isa C` and `C` has synonyms (e.g. the merged
/// booktitle/conference class), `x` gets an edge to *every* member so the
/// hierarchy agrees with whichever rendering a query uses.
fn expanded_hypernyms(lexicon: &Lexicon, term: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for h in lexicon.hypernyms(term) {
        for s in lexicon.synonyms(&h) {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        if !out.contains(&h) {
            out.push(h);
        }
    }
    out
}

/// Configuration for ontology mining.
#[derive(Debug, Clone)]
pub struct MakerConfig {
    /// Tags whose content strings become isa terms (the paper's
    /// experiments need author names, titles and venue names in the
    /// ontology so `~` and `isa` conditions can reach them).
    pub term_tags: Vec<String>,
    /// Cap on distinct content terms per tag (0 = unlimited) — a safety
    /// valve for very large corpora.
    pub max_terms_per_tag: usize,
}

impl Default for MakerConfig {
    fn default() -> Self {
        MakerConfig {
            term_tags: vec![
                "author".into(),
                "title".into(),
                "booktitle".into(),
                "conference".into(),
                "journal".into(),
            ],
            max_terms_per_tag: 0,
        }
    }
}

/// Build the ontology of one semistructured instance.
pub fn make_ontology(
    forest: &Forest,
    lexicon: &Lexicon,
    config: &MakerConfig,
) -> TossResult<Ontology> {
    let mut ontology = Ontology::new();

    // ---- collect structure and content -------------------------------
    let mut tags: BTreeSet<String> = BTreeSet::new();
    let mut edges: BTreeSet<(String, String)> = BTreeSet::new(); // (child, parent)
    let mut content: BTreeSet<(String, String)> = BTreeSet::new(); // (tag, text)
    for tree in forest {
        for node in tree.preorder() {
            let Ok(data) = tree.data(node) else { continue };
            tags.insert(data.tag.clone());
            if let Ok(Some(parent)) = tree.parent(node) {
                if let Ok(pd) = tree.data(parent) {
                    edges.insert((data.tag.clone(), pd.tag.clone()));
                }
            }
            if let Some(c) = &data.content {
                if config.term_tags.iter().any(|t| t == &data.tag) {
                    content.insert((data.tag.clone(), c.render()));
                }
            }
        }
    }

    // ---- part-of hierarchy --------------------------------------------
    {
        let part_of = ontology.part_of_mut();
        for (child, parent) in &edges {
            if child != parent {
                // structural edges can disagree with acyclicity when tags
                // nest both ways; first direction wins, the reverse is
                // skipped (a Hasse diagram cannot hold both)
                let _ = part_of.add_leq(child, parent);
            }
        }
        // lexicon holonyms between tags present in the instance
        for tag in &tags {
            for holo in lexicon.holonyms(tag) {
                if tags.contains(&holo) && &holo != tag {
                    let _ = part_of.add_leq(tag, &holo);
                }
            }
        }
        part_of.reduce();
    }

    // ---- isa hierarchy --------------------------------------------------
    {
        let isa = ontology.isa_mut();
        // lexicon chains from every tag
        for tag in &tags {
            for hyper in expanded_hypernyms(lexicon, tag) {
                if &hyper != tag {
                    let _ = isa.add_leq(tag, &hyper);
                }
            }
        }
        // content terms
        let mut per_tag_counts: std::collections::HashMap<&str, usize> =
            std::collections::HashMap::new();
        for (tag, text) in &content {
            if config.max_terms_per_tag > 0 {
                let n = per_tag_counts.entry(tag.as_str()).or_insert(0);
                if *n >= config.max_terms_per_tag {
                    continue;
                }
                *n += 1;
            }
            let hypers = expanded_hypernyms(lexicon, text);
            if hypers.is_empty() {
                // unknown content: a value viewed as a type, below its tag
                let _ = isa.add_leq(text, tag);
            } else {
                for h in hypers {
                    if &h != text {
                        let _ = isa.add_leq(text, &h);
                    }
                }
            }
        }
        // close lexicon chains upward from everything inserted so far
        // (e.g. content isa conference isa venue)
        let mut frontier: Vec<String> = isa.all_terms();
        let mut seen: BTreeSet<String> = frontier.iter().cloned().collect();
        while let Some(t) = frontier.pop() {
            for h in expanded_hypernyms(lexicon, &t) {
                if h != t {
                    let _ = isa.add_leq(&t, &h);
                    if seen.insert(h.clone()) {
                        frontier.push(h);
                    }
                }
            }
        }
        isa.reduce();
    }

    Ok(ontology)
}

/// Suggest Example-10-style interoperation constraints between the
/// ontologies of instances `i` and `j`: equality constraints for every
/// lexicon-synonym pair of terms appearing across the two (same-string
/// terms are implicitly equal in fusion and need no constraint).
pub fn suggest_constraints(
    left: &Ontology,
    left_index: usize,
    right: &Ontology,
    right_index: usize,
    lexicon: &Lexicon,
) -> Vec<Constraint> {
    let mut out = Vec::new();
    let collect = |o: &Ontology| -> BTreeSet<String> {
        o.relations()
            .iter()
            .filter_map(|r| o.hierarchy(r))
            .flat_map(|h| h.all_terms())
            .collect()
    };
    let left_terms: BTreeSet<String> = collect(left);
    let right_terms: BTreeSet<String> = collect(right);
    for lt in &left_terms {
        for syn in lexicon.synonyms(lt) {
            let syn_lower = syn.to_lowercase();
            for rt in &right_terms {
                if rt.to_lowercase() == syn_lower && rt != lt {
                    out.extend(Constraint::eq(lt.clone(), left_index, rt.clone(), right_index));
                }
            }
        }
    }
    out.sort_by_key(|c| format!("{c}"));
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use toss_lexicon::data::bibliographic_lexicon;
    use toss_tree::TreeBuilder;

    fn dblp_forest() -> Forest {
        Forest::from_trees(vec![TreeBuilder::new("inproceedings")
            .leaf("author", "J. Ullmann")
            .leaf("title", "On Databases")
            .leaf("booktitle", "SIGMOD Conference")
            .leaf("year", 1999i64)
            .build()])
    }

    fn sigmod_forest() -> Forest {
        Forest::from_trees(vec![TreeBuilder::new("article")
            .leaf("author", "Jeff Ullmann")
            .leaf("title", "On Databases")
            .leaf("conference", "ACM SIGMOD International Conference on Management of Data")
            .leaf("confYear", 1999i64)
            .build()])
    }

    #[test]
    fn part_of_mirrors_structure() {
        let lex = bibliographic_lexicon();
        let o = make_ontology(&dblp_forest(), &lex, &MakerConfig::default()).unwrap();
        let p = o.part_of();
        assert!(p.leq_terms("author", "inproceedings"));
        assert!(p.leq_terms("booktitle", "inproceedings"));
        assert!(!p.leq_terms("inproceedings", "author"));
    }

    #[test]
    fn isa_contains_content_terms() {
        let lex = bibliographic_lexicon();
        let o = make_ontology(&dblp_forest(), &lex, &MakerConfig::default()).unwrap();
        let isa = o.isa();
        // lexicon knows "SIGMOD Conference" isa conference
        assert!(isa.leq_terms("SIGMOD Conference", "conference"));
        // chains close upward: conference isa venue
        assert!(isa.leq_terms("SIGMOD Conference", "venue"));
        // author names are unknown to the lexicon: placed below their tag
        assert!(isa.leq_terms("J. Ullmann", "author"));
        // titles below title
        assert!(isa.leq_terms("On Databases", "title"));
        // year content not term-tagged: absent
        assert!(isa.node_of("1999").is_none());
    }

    #[test]
    fn tag_chains_from_lexicon() {
        let lex = bibliographic_lexicon();
        let o = make_ontology(&dblp_forest(), &lex, &MakerConfig::default()).unwrap();
        // author isa person via lexicon
        assert!(o.isa().leq_terms("author", "person"));
    }

    #[test]
    fn max_terms_cap_applies() {
        let lex = bibliographic_lexicon();
        let mut forest = Forest::new();
        for i in 0..10 {
            forest.push(
                TreeBuilder::new("inproceedings")
                    .leaf("author", format!("Author Number{i}"))
                    .build(),
            );
        }
        let capped = make_ontology(
            &forest,
            &lex,
            &MakerConfig {
                max_terms_per_tag: 3,
                ..MakerConfig::default()
            },
        )
        .unwrap();
        let count = capped
            .isa()
            .all_terms()
            .iter()
            .filter(|t| t.starts_with("Author Number"))
            .count();
        assert_eq!(count, 3);
    }

    #[test]
    fn constraints_reproduce_example10() {
        let lex = bibliographic_lexicon();
        let o1 = make_ontology(&dblp_forest(), &lex, &MakerConfig::default()).unwrap();
        let o2 = make_ontology(&sigmod_forest(), &lex, &MakerConfig::default()).unwrap();
        let cs = suggest_constraints(&o1, 0, &o2, 1, &lex);
        let rendered: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
        // booktitle:0 = conference:1 (as two ≤ constraints)
        assert!(rendered.iter().any(|s| s == "booktitle:0 ≤ conference:1"), "{rendered:?}");
        assert!(rendered.iter().any(|s| s == "conference:1 ≤ booktitle:0"));
        // year:0 = confYear:1
        assert!(rendered.iter().any(|s| s.contains("confYear")) || o1.isa().node_of("year").is_none());
    }

    #[test]
    fn empty_forest_gives_empty_hierarchies() {
        let lex = bibliographic_lexicon();
        let o = make_ontology(&Forest::new(), &lex, &MakerConfig::default()).unwrap();
        assert!(o.isa().is_empty());
        assert!(o.part_of().is_empty());
    }
}
