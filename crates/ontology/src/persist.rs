//! Persistence for SEOs: the `.ont.json` format.
//!
//! The paper's architecture *precomputes* the similarity enhanced (fused)
//! ontology during integration and reuses it across queries; a deployment
//! therefore needs to save it. The JSON holds term lists, edge lists and
//! clique index lists, so the on-disk format is independent of in-memory
//! layout, and loading re-validates structure (acyclicity via the
//! hierarchy builder):
//!
//! ```text
//! {"original": {"nodes": [[term, …], …], "edges": [[below, above], …]},
//!  "enhanced_edges": [[below, above], …],
//!  "cliques": [[original node, …], …],
//!  "epsilon": ε}
//! ```

use crate::error::{OntologyError, OntologyResult};
use crate::hierarchy::{HNodeId, Hierarchy};
use crate::seo::Seo;
use toss_json::Value;

/// Serialize an SEO to JSON.
pub fn seo_to_json(seo: &Seo) -> String {
    let cliques = (0..seo.len())
        .map(|e| {
            Value::Array(
                seo.members_of(HNodeId(e))
                    .iter()
                    .map(|m| m.0.into())
                    .collect(),
            )
        })
        .collect();
    Value::object(vec![
        ("original", hierarchy_to_value(seo.original())),
        ("enhanced_edges", edges_to_value(seo.enhanced())),
        ("cliques", Value::Array(cliques)),
        ("epsilon", seo.epsilon().into()),
    ])
    .to_json()
}

fn hierarchy_to_value(h: &Hierarchy) -> Value {
    let nodes = h
        .nodes()
        .map(|n| {
            let terms = h.terms_of(n).expect("dense ids");
            Value::Array(terms.iter().map(|t| t.as_str().into()).collect())
        })
        .collect();
    Value::object(vec![
        ("nodes", Value::Array(nodes)),
        ("edges", edges_to_value(h)),
    ])
}

fn edges_to_value(h: &Hierarchy) -> Value {
    Value::Array(
        h.edges()
            .into_iter()
            .map(|(a, b)| Value::Array(vec![a.0.into(), b.0.into()]))
            .collect(),
    )
}

/// Load an SEO from JSON produced by [`seo_to_json`]. Every field is
/// decoded before anything is built; then structure (term uniqueness,
/// acyclicity, id ranges) is re-checked. Semantic validity against a
/// metric can be re-checked with [`Seo::validate`].
pub fn seo_from_json(json: &str) -> OntologyResult<Seo> {
    let value = Value::parse(json).map_err(|e| OntologyError::MalformedSeo(e.to_string()))?;
    seo_from_value(&value)
}

/// [`seo_from_json`] over an already-parsed value, for an SEO embedded in
/// a larger JSON document.
pub fn seo_from_value(value: &Value) -> OntologyResult<Seo> {
    let original = field(value, "original")?;
    let nodes = array(field(original, "nodes")?, "nodes")?
        .iter()
        .map(|terms| {
            array(terms, "nodes")?
                .iter()
                .map(|t| {
                    t.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| malformed("nodes"))
                })
                .collect()
        })
        .collect::<OntologyResult<Vec<Vec<String>>>>()?;
    let edges = pairs(field(original, "edges")?, "edges")?;
    let enhanced_edges = pairs(field(value, "enhanced_edges")?, "enhanced_edges")?;
    let cliques = array(field(value, "cliques")?, "cliques")?
        .iter()
        .map(|c| {
            array(c, "cliques")?
                .iter()
                .map(|m| m.as_usize().ok_or_else(|| malformed("cliques")))
                .collect()
        })
        .collect::<OntologyResult<Vec<Vec<usize>>>>()?;
    let epsilon = field(value, "epsilon")?
        .as_f64()
        .ok_or_else(|| malformed("epsilon"))?;

    let mut original = Hierarchy::new();
    for terms in nodes {
        original.add_node(terms)?;
    }
    add_edges(&mut original, edges)?;
    let mut enhanced = Hierarchy::new();
    for i in 0..cliques.len() {
        enhanced.add_node(vec![format!("\u{1}clique{i}")])?;
    }
    add_edges(&mut enhanced, enhanced_edges)?;
    if let Some(&m) = cliques.iter().flatten().find(|&&m| m >= original.len()) {
        return Err(OntologyError::InvalidNode(m));
    }
    Ok(Seo::new(original, enhanced, cliques, epsilon))
}

fn malformed(what: &str) -> OntologyError {
    OntologyError::MalformedSeo(format!("bad `{what}`"))
}

fn field<'v>(v: &'v Value, name: &str) -> OntologyResult<&'v Value> {
    v.get(name).ok_or_else(|| malformed(name))
}

fn array<'v>(v: &'v Value, what: &str) -> OntologyResult<&'v [Value]> {
    v.as_array().ok_or_else(|| malformed(what))
}

fn pairs(v: &Value, what: &str) -> OntologyResult<Vec<(usize, usize)>> {
    array(v, what)?
        .iter()
        .map(|pair| match pair.as_array() {
            Some([a, b]) => Ok((
                a.as_usize().ok_or_else(|| malformed(what))?,
                b.as_usize().ok_or_else(|| malformed(what))?,
            )),
            _ => Err(malformed(what)),
        })
        .collect()
}

fn add_edges(h: &mut Hierarchy, edges: Vec<(usize, usize)>) -> OntologyResult<()> {
    for (a, b) in edges {
        if a >= h.len() || b >= h.len() {
            return Err(OntologyError::InvalidNode(a.max(b)));
        }
        h.add_edge(HNodeId(a), HNodeId(b))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::from_pairs;
    use crate::sea::enhance;
    use toss_similarity::Levenshtein;

    fn sample_seo() -> Seo {
        let h = from_pairs(&[
            ("relation", "concept"),
            ("relational", "concept"),
            ("model", "concept"),
            ("models", "concept"),
        ])
        .unwrap();
        enhance(&h, &Levenshtein, 2.0).unwrap()
    }

    /// `sample_seo()`'s `.ont.json`, byte for byte: the format stored
    /// SEOs are read back with.
    const SAMPLE_JSON: &str = concat!(
        r#"{"original":{"nodes":[["relation"],["concept"],["relational"],["model"],["models"]],"#,
        r#""edges":[[0,1],[2,1],[3,1],[4,1]]},"enhanced_edges":[[0,1],[2,1]],"#,
        r#""cliques":[[0,2],[1],[3,4]],"epsilon":2}"#
    );

    /// `SAMPLE_JSON` with `from` replaced by `to` exactly once.
    fn edited(from: &str, to: &str) -> String {
        assert_eq!(SAMPLE_JSON.matches(from).count(), 1, "{from}");
        SAMPLE_JSON.replace(from, to)
    }

    #[test]
    fn the_json_format_is_pinned() {
        assert_eq!(seo_to_json(&sample_seo()), SAMPLE_JSON);
        assert_eq!(
            seo_to_json(&seo_from_json(SAMPLE_JSON).unwrap()),
            SAMPLE_JSON
        );
    }

    #[test]
    fn hierarchy_round_trip() {
        let h = from_pairs(&[("a", "b"), ("b", "c"), ("x", "c")]).unwrap();
        let seo = enhance(&h, &Levenshtein, 0.0).unwrap();
        let back = seo_from_json(&seo_to_json(&seo)).unwrap();
        let h2 = back.original();
        assert_eq!(h2.edges(), h.edges());
        for n in h.nodes() {
            assert_eq!(h2.terms_of(n).unwrap(), h.terms_of(n).unwrap());
        }
        assert!(h2.leq_terms("a", "c"));
        assert!(!h2.leq_terms("c", "a"));
    }

    #[test]
    fn seo_round_trip_preserves_semantics() {
        let seo = sample_seo();
        let json = seo_to_json(&seo);
        let back = seo_from_json(&json).unwrap();
        assert_eq!(back.epsilon(), 2.0);
        // similarity relation identical on every term pair
        for a in seo.original().all_terms() {
            for b in seo.original().all_terms() {
                assert_eq!(seo.similar(&a, &b), back.similar(&a, &b), "{a} ~ {b}");
                assert_eq!(seo.leq_terms(&a, &b), back.leq_terms(&a, &b), "{a} ≤ {b}");
            }
        }
        // and it still validates against the metric
        back.validate(&Levenshtein).unwrap();
    }

    #[test]
    fn corrupt_json_is_rejected() {
        assert!(seo_from_json("{").is_err());
        // out-of-range clique member
        let json = edited(r#""cliques":[[0,2]"#, r#""cliques":[[0,2,999]"#);
        assert_eq!(
            seo_from_json(&json).unwrap_err(),
            OntologyError::InvalidNode(999)
        );
        // a term stored in two nodes
        let json = edited(r#"["concept"],"#, r#"["relation"],"#);
        assert_eq!(
            seo_from_json(&json).unwrap_err(),
            OntologyError::DuplicateTerm("relation".into())
        );
    }

    #[test]
    fn cyclic_edges_rejected_on_load() {
        // a back edge among enhanced nodes forces a cycle
        let json = edited(
            r#""enhanced_edges":[[0,1]"#,
            r#""enhanced_edges":[[0,1],[1,0]"#,
        );
        assert!(matches!(
            seo_from_json(&json),
            Err(OntologyError::CycleDetected { .. })
        ));
    }

    #[test]
    fn malformed_json_says_so() {
        let message = |json: &str| seo_from_json(json).unwrap_err().to_string();
        assert_eq!(
            message("{"),
            "malformed SEO JSON: JSON error at byte 1: expected `\"`"
        );
        assert_eq!(
            message(&edited(r#"[["relation"]"#, r#"[[7]"#)),
            "malformed SEO JSON: bad `nodes`"
        );
        assert_eq!(
            message(&edited(r#""epsilon":2"#, r#""epsilon":"two""#)),
            "malformed SEO JSON: bad `epsilon`"
        );
        assert_eq!(
            message(&edited(r#""edges":[[0,1],"#, r#""edges":[[0],"#)),
            "malformed SEO JSON: bad `edges`"
        );
    }
}
