//! Operator implementations.

use crate::condition::TossCond;
use crate::convert::Conversions;
use crate::error::TossResult;
use crate::expand::{expand, ExpandCtx};
use crate::oes::SeoInstance;
use crate::typesys::TypeHierarchy;
use toss_tax::{EdgeKind, PatternTree, ProjectEntry};
use toss_tree::Forest;

/// A TOSS pattern: the structural pattern tree (labels + pc/ad edges,
/// *without* a condition) plus a TOSS condition over its labels.
#[derive(Debug, Clone)]
pub struct TossPattern {
    /// The structural skeleton. Its own TAX condition must be `True`; the
    /// TOSS condition below replaces it after expansion.
    pub structure: PatternTree,
    /// The TOSS selection condition.
    pub condition: TossCond,
}

impl TossPattern {
    /// Build a root-plus-children spine pattern: root label 1, children
    /// labelled 2.. with the given edge kinds.
    pub fn spine(child_edges: &[EdgeKind], condition: TossCond) -> TossResult<Self> {
        let mut structure = PatternTree::new(1);
        let root = structure.root();
        for (i, &kind) in child_edges.iter().enumerate() {
            structure.add_child(root, (i + 2) as u32, kind)?;
        }
        Ok(TossPattern {
            structure,
            condition,
        })
    }

    /// Compile to a plain TAX pattern by expanding the condition through
    /// the SEO.
    pub(crate) fn compile(&self, ctx: ExpandCtx<'_>) -> TossResult<PatternTree> {
        let mut p = self.structure.clone();
        p.set_condition(expand(&self.condition, ctx)?)?;
        Ok(p)
    }

    /// Compile against the TAX baseline semantics instead of the SEO.
    pub(crate) fn compile_baseline(&self) -> TossResult<PatternTree> {
        let mut p = self.structure.clone();
        p.set_condition(crate::expand::expand_tax_baseline(&self.condition)?)?;
        Ok(p)
    }
}

fn ctx_of<'a>(
    input: &'a SeoInstance,
    hierarchy: &'a TypeHierarchy,
    conversions: &'a Conversions,
) -> ExpandCtx<'a> {
    ExpandCtx {
        seo: &input.seo,
        hierarchy,
        conversions,
        probe_metric: None,
        part_of: None,
        governor: None,
    }
}

/// TOSS selection σ_{P, SL}.
pub fn toss_select(
    input: &SeoInstance,
    pattern: &TossPattern,
    expand_labels: &[u32],
    hierarchy: &TypeHierarchy,
    conversions: &Conversions,
) -> TossResult<SeoInstance> {
    let compiled = pattern.compile(ctx_of(input, hierarchy, conversions))?;
    let forest = toss_tax::select(&input.forest, &compiled, expand_labels)?;
    Ok(SeoInstance::new(forest, input.seo.clone()))
}

/// TOSS projection π_{P, PL}.
pub fn toss_project(
    input: &SeoInstance,
    pattern: &TossPattern,
    list: &[ProjectEntry],
    hierarchy: &TypeHierarchy,
    conversions: &Conversions,
) -> TossResult<SeoInstance> {
    let compiled = pattern.compile(ctx_of(input, hierarchy, conversions))?;
    let forest = toss_tax::project(&input.forest, &compiled, list)?;
    Ok(SeoInstance::new(forest, input.seo.clone()))
}

/// TOSS cross product (the SEOs must be the same shared ontology —
/// guaranteed when both inputs came from one [`crate::enhance_sdb`] run).
pub fn toss_product(left: &SeoInstance, right: &SeoInstance) -> TossResult<SeoInstance> {
    let forest = toss_tax::product(&left.forest, &right.forest)?;
    Ok(SeoInstance::new(forest, left.seo.clone()))
}

/// TOSS join: product then selection.
pub fn toss_join(
    left: &SeoInstance,
    right: &SeoInstance,
    pattern: &TossPattern,
    expand_labels: &[u32],
    hierarchy: &TypeHierarchy,
    conversions: &Conversions,
) -> TossResult<SeoInstance> {
    let prod = toss_product(left, right)?;
    toss_select(&prod, pattern, expand_labels, hierarchy, conversions)
}

/// Union under ordered-tree isomorphism.
pub fn toss_union(left: &SeoInstance, right: &SeoInstance) -> SeoInstance {
    SeoInstance::new(
        Forest::set_union(&left.forest, &right.forest),
        left.seo.clone(),
    )
}

/// Intersection under ordered-tree isomorphism.
pub fn toss_intersection(left: &SeoInstance, right: &SeoInstance) -> SeoInstance {
    SeoInstance::new(
        Forest::set_intersection(&left.forest, &right.forest),
        left.seo.clone(),
    )
}

/// Difference under ordered-tree isomorphism.
pub fn toss_difference(left: &SeoInstance, right: &SeoInstance) -> SeoInstance {
    SeoInstance::new(
        Forest::set_difference(&left.forest, &right.forest),
        left.seo.clone(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{TossCond, TossTerm};
    use std::sync::Arc;
    use toss_ontology::hierarchy::from_pairs;
    use toss_ontology::sea::enhance;
    use toss_similarity::Levenshtein;
    use toss_tree::TreeBuilder;

    fn instance() -> SeoInstance {
        let forest = Forest::from_trees(vec![
            TreeBuilder::new("inproceedings")
                .leaf("author", "J. Ullmann")
                .leaf("booktitle", "SIGMOD Conference")
                .build(),
            TreeBuilder::new("inproceedings")
                .leaf("author", "E. Codd")
                .leaf("booktitle", "TODS")
                .build(),
            TreeBuilder::new("inproceedings")
                .leaf("author", "J Ullmann")
                .leaf("booktitle", "VLDB")
                .build(),
        ]);
        let h = from_pairs(&[
            ("SIGMOD Conference", "conference"),
            ("VLDB", "conference"),
            ("TODS", "periodical"),
            ("conference", "venue"),
            ("periodical", "venue"),
            ("J. Ullmann", "author-name"),
            ("J Ullmann", "author-name"),
            ("E. Codd", "author-name"),
        ])
        .unwrap();
        let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
        SeoInstance::new(forest, seo)
    }

    fn venue_pattern(target: &str) -> TossPattern {
        TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("booktitle")),
                TossCond::below(TossTerm::content(2), TossTerm::ty(target)),
            ]),
        )
        .unwrap()
    }

    fn author_similar_pattern(probe: &str) -> TossPattern {
        TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::similar(TossTerm::content(2), TossTerm::str(probe)),
            ]),
        )
        .unwrap()
    }

    #[test]
    fn select_with_isa_condition() {
        let inst = instance();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let out = toss_select(&inst, &venue_pattern("conference"), &[1], &th, &cv).unwrap();
        assert_eq!(out.len(), 2); // SIGMOD + VLDB papers
        let all = toss_select(&inst, &venue_pattern("venue"), &[1], &th, &cv).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn select_with_similarity_beats_exact_match() {
        let inst = instance();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        // probe "J. Ullmann": similarity catches "J Ullmann" too (1 edit)
        let toss = toss_select(&inst, &author_similar_pattern("J. Ullmann"), &[1], &th, &cv)
            .unwrap();
        assert_eq!(toss.len(), 2);
        // the TAX baseline gets only the exact rendering
        let base = author_similar_pattern("J. Ullmann")
            .compile_baseline()
            .unwrap();
        let tax_out = toss_tax::select(&inst.forest, &base, &[1]).unwrap();
        assert_eq!(tax_out.len(), 1);
    }

    #[test]
    fn result_shares_the_seo() {
        let inst = instance();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let out = toss_select(&inst, &venue_pattern("venue"), &[1], &th, &cv).unwrap();
        assert!(Arc::ptr_eq(&out.seo, &inst.seo)); // Proposition 1 closure
    }

    #[test]
    fn join_on_similar_content() {
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let left = instance();
        let right = instance();
        // join papers whose authors are similar across the two instances
        let mut structure = PatternTree::new(1);
        let root = structure.root();
        structure
            .add_child(root, 2, EdgeKind::AncestorDescendant)
            .unwrap();
        structure
            .add_child(root, 3, EdgeKind::AncestorDescendant)
            .unwrap();
        let pattern = TossPattern {
            structure,
            condition: TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str(toss_tax::PROD_ROOT_TAG)),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::eq(TossTerm::tag(3), TossTerm::str("author")),
                TossCond::similar(TossTerm::content(2), TossTerm::content(3)),
            ]),
        };
        let out = toss_join(&left, &right, &pattern, &[], &th, &cv).unwrap();
        // pairs: (Ullmann, Ullmann) two variants × both orders + Codd-Codd
        assert!(!out.is_empty());
        // every result contains two author leaves with similar content
        for t in &out.forest {
            let authors: Vec<String> = t
                .preorder()
                .filter_map(|n| {
                    let d = t.data(n).ok()?;
                    (d.tag == "author").then(|| d.content_str())
                })
                .collect();
            // TAX embeddings may be non-injective: $2 and $3 can map to
            // the same author node, yielding a one-author witness
            assert!((1..=2).contains(&authors.len()), "{authors:?}");
        }
    }

    #[test]
    fn set_operators_share_seo_and_semantics() {
        let inst = instance();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let conf = toss_select(&inst, &venue_pattern("conference"), &[1], &th, &cv).unwrap();
        let all = toss_select(&inst, &venue_pattern("venue"), &[1], &th, &cv).unwrap();
        let diff = toss_difference(&all, &conf);
        assert_eq!(diff.len(), 1); // the TODS paper
        let inter = toss_intersection(&all, &conf);
        assert_eq!(inter.len(), 2);
        let uni = toss_union(&conf, &diff);
        assert_eq!(uni.len(), 3);
        assert!(Arc::ptr_eq(&uni.seo, &inst.seo));
    }

    #[test]
    fn product_pairs_all_trees() {
        let inst = instance();
        let prod = toss_product(&inst, &inst).unwrap();
        assert_eq!(prod.len(), 9);
    }
}
