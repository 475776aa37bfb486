//! Graphviz DOT export for SEOs — the quickest way to eyeball what the
//! Ontology Maker mined and what SEA merged.

use crate::seo::Seo;
use std::fmt::Write as _;

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render an SEO as a DOT digraph: enhanced nodes labelled with their
/// merged term sets, multi-term (merged) nodes highlighted.
pub fn seo_to_dot(seo: &Seo, name: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", escape(name));
    let _ = writeln!(out, "  rankdir=BT;");
    let _ = writeln!(out, "  node [shape=box, fontsize=10];");
    for e in seo.enhanced().nodes() {
        let terms = seo.terms_of_enhanced(e);
        let label = terms.iter().map(|t| escape(t)).collect::<Vec<_>>().join("\\n");
        let style = if terms.len() > 1 {
            ", style=filled, fillcolor=lightyellow"
        } else {
            ""
        };
        let _ = writeln!(out, "  e{} [label=\"{}\"{}];", e.0, label, style);
    }
    for (a, b) in seo.enhanced().edges() {
        let _ = writeln!(out, "  e{} -> e{};", a.0, b.0);
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{from_pairs, Hierarchy};
    use crate::sea::enhance;
    use toss_similarity::Levenshtein;

    #[test]
    fn seo_dot_contains_nodes_and_edges() {
        let h = from_pairs(&[("author", "article"), ("title", "article")]).unwrap();
        let seo = enhance(&h, &Levenshtein, 0.0).unwrap();
        let dot = seo_to_dot(&seo, "part-of");
        assert!(dot.starts_with("digraph \"part-of\" {"));
        assert!(dot.contains("label=\"author\""));
        assert!(dot.ends_with("}\n"));
        // edge count matches, and nothing merged at ε = 0
        assert_eq!(dot.matches("->").count(), 2);
        assert!(!dot.contains("lightyellow"));
    }

    #[test]
    fn seo_dot_highlights_merged_nodes() {
        let h = from_pairs(&[("model", "concept"), ("models", "concept")]).unwrap();
        let seo = enhance(&h, &Levenshtein, 1.0).unwrap();
        let dot = seo_to_dot(&seo, "seo");
        assert!(dot.contains("model\\nmodels") || dot.contains("models\\nmodel"));
        assert!(dot.contains("lightyellow"));
    }

    #[test]
    fn labels_are_escaped() {
        let mut h = Hierarchy::new();
        h.add_leq("a\"quote", "top").unwrap();
        let seo = enhance(&h, &Levenshtein, 0.0).unwrap();
        let dot = seo_to_dot(&seo, "x\"y");
        assert!(dot.contains("a\\\"quote"));
        assert!(dot.contains("digraph \"x\\\"y\""));
    }
}
