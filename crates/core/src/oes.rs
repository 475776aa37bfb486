//! Ontology-extended and SEO semistructured instances (Section 5).
//!
//! An **OES instance** `(V, E, t, H_isa)` pairs a semistructured instance
//! (a forest) with an ontology; an **SEO instance** additionally carries
//! the similarity enhancement of its hierarchy. Per the paper's
//! simplification we treat the `isa` hierarchy as primary but keep the
//! whole [`Ontology`] available (the "results extend to arbitrary
//! hierarchies such as part-of" remark).

use toss_ontology::{Ontology, Seo};
use toss_tree::Forest;

/// An ontology-extended semistructured instance.
#[derive(Debug, Clone)]
pub struct OesInstance {
    /// A name for the instance (e.g. its collection name).
    pub name: String,
    /// The data trees.
    pub forest: Forest,
    /// The associated ontology (isa + part-of + custom hierarchies).
    pub ontology: Ontology,
}

impl OesInstance {
    /// Pair a forest with an ontology.
    pub fn new(name: impl Into<String>, forest: Forest, ontology: Ontology) -> Self {
        OesInstance {
            name: name.into(),
            forest,
            ontology,
        }
    }
}

/// An SEO semistructured instance: the forest plus the *fused, similarity
/// enhanced* ontology shared by the whole SDB (Proposition 1: algebra
/// results are again SEO instances over the same SEO).
#[derive(Debug, Clone)]
pub struct SeoInstance {
    /// The data trees (operator input or output).
    pub forest: Forest,
    /// The shared similarity enhanced ontology.
    pub seo: std::sync::Arc<Seo>,
}

impl SeoInstance {
    /// Pair a forest with the shared SEO.
    pub fn new(forest: Forest, seo: std::sync::Arc<Seo>) -> Self {
        SeoInstance { forest, seo }
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.forest.len()
    }

    /// Whether the instance holds no trees.
    pub fn is_empty(&self) -> bool {
        self.forest.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use toss_ontology::hierarchy::from_pairs;
    use toss_ontology::sea::enhance;
    use toss_similarity::Levenshtein;
    use toss_tree::TreeBuilder;

    #[test]
    fn construction_and_sizes() {
        let f = Forest::from_trees(vec![TreeBuilder::new("a").build()]);
        let oes = OesInstance::new("dblp", f.clone(), Ontology::new());
        assert_eq!(oes.forest.len(), 1);

        let h = from_pairs(&[("a", "b")]).unwrap();
        let seo = Arc::new(enhance(&h, &Levenshtein, 0.0).unwrap());
        let si = SeoInstance::new(f, seo.clone());
        assert_eq!(si.len(), 1);
        // the SEO is shared, not cloned per instance
        let si2 = SeoInstance::new(Forest::new(), seo);
        assert!(si2.is_empty());
        assert!(Arc::ptr_eq(&si.seo, &si2.seo));
    }
}
