//! Semantic expansion: TOSS conditions → TAX conditions via the SEO.
//!
//! This is the paper's query-transformation strategy made explicit: the
//! Query Executor "transforms a user query into a query that takes the
//! single similarity enhanced (fused) ontology into account". Each
//! ontology/similarity operator is rewritten into plain TAX machinery:
//!
//! * `X ~ s` (attribute vs string) → `X ∈ similar_terms(s)` — one
//!   [`crate::tax::Cond::InSet`] over the terms co-resident with `s` in
//!   some SEO node;
//! * `X ~ Y` (attribute vs attribute) → [`crate::tax::Cond::SharedClass`]
//!   over the SEO's enhanced nodes;
//! * `X below τ` / `X instance_of τ` / `X subtype_of τ` →
//!   `X ∈ below_terms(τ)` in the enhanced order (which already folds
//!   similarity in);
//! * `X above Y` → `Y below X`;
//! * `=, ≠, ≤, ≥` on unit-typed constants → constants converted to their
//!   least common supertype, then ordinary TAX comparison;
//! * everything else passes through unchanged.
//!
//! A second expander, `expand_tax_baseline`, produces the paper's TAX
//! baseline: `isa`-style conditions become `contains` and `~` becomes
//! exact equality ("For isa and similarTo conditions, 'contains' and
//! exact match are used for TAX respectively").

use crate::condition::{TossCond, TossOp, TossTerm};
use crate::convert::Conversions;
use crate::error::{TossError, TossResult};
use crate::governor::QueryGovernor;
use crate::tax::{CmpOp, Cond, Term};
use crate::typesys::TypeHierarchy;
use std::collections::HashMap;
use toss_ontology::Seo;
use toss_tree::Value;

/// Context for semantic expansion.
#[derive(Clone, Copy)]
pub struct ExpandCtx<'a> {
    /// The similarity enhanced (fused) ontology.
    pub seo: &'a Seo,
    /// The type hierarchy (for typed-value comparisons).
    pub hierarchy: &'a TypeHierarchy,
    /// Conversion functions.
    pub conversions: &'a Conversions,
    /// Optional metric for *probe* expansion: when a `~` constant is not
    /// an ontology term, terms within ε of it are found on the fly
    /// (`Seo::similar_terms_probe`). `None` restricts `~` to known terms.
    pub probe_metric: Option<&'a dyn toss_similarity::StringMetric>,
    /// Optional part-of SEO for `part_of` conditions (the Section-5
    /// multi-hierarchy extension). `None` makes `part_of` unsupported.
    pub part_of: Option<&'a Seo>,
    /// Optional query governor: every term set the SEO contributes is
    /// admitted against the expansion-term budget (a cap truncates the
    /// set), and deadline/cancel
    /// checks run between atoms. `None` expands without bounds.
    pub governor: Option<&'a QueryGovernor>,
}

impl<'a> ExpandCtx<'a> {
    /// A context with no governance (tests and in-memory paths).
    pub fn ungoverned(
        seo: &'a Seo,
        hierarchy: &'a TypeHierarchy,
        conversions: &'a Conversions,
    ) -> Self {
        ExpandCtx {
            seo,
            hierarchy,
            conversions,
            probe_metric: None,
            part_of: None,
            governor: None,
        }
    }

    /// Admit a freshly produced expansion set against the governor's
    /// term budget, truncating under its cap. Duplicate renderings
    /// (an SEO node can surface one term through several witnesses) are
    /// dropped first, keeping the first occurrence: duplicates would
    /// burn expansion budget and inflate the executor's batched index
    /// probes for no extra matches.
    fn admit_terms(&self, mut set: Vec<String>) -> TossResult<Vec<String>> {
        let mut seen = std::collections::HashSet::with_capacity(set.len());
        let first_occurrence: Vec<bool> = set.iter().map(|t| seen.insert(t.as_str())).collect();
        let mut keep = first_occurrence.into_iter();
        set.retain(|_| keep.next().expect("one flag per term"));
        if let Some(gov) = self.governor {
            let allowed = gov.admit_expansion_terms(set.len())?;
            if allowed < set.len() {
                set.truncate(allowed);
            }
        }
        Ok(set)
    }
}

impl std::fmt::Debug for ExpandCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpandCtx")
            .field("epsilon", &self.seo.epsilon())
            .field("has_probe_metric", &self.probe_metric.is_some())
            .finish()
    }
}

impl<'a> ExpandCtx<'a> {
    fn similar_terms(&self, s: &str) -> Vec<String> {
        match self.probe_metric {
            Some(m) => self.seo.similar_terms_probe(s, &m),
            None => self.seo.similar_terms(s),
        }
    }
}

fn to_tax_term(t: &TossTerm) -> TossResult<Term> {
    match t {
        TossTerm::Attr { label, attr } => Ok(Term::Attr {
            label: *label,
            attr: *attr,
        }),
        TossTerm::Value { value, .. } => Ok(Term::Const(value.clone())),
        TossTerm::Type(name) => Ok(Term::Const(Value::Str(name.clone()))),
    }
}

/// Rendered string of a constant term (for ontology lookups).
fn const_string(t: &TossTerm) -> Option<String> {
    match t {
        TossTerm::Value { value, .. } => Some(value.render()),
        TossTerm::Type(name) => Some(name.clone()),
        TossTerm::Attr { .. } => None,
    }
}

/// The SEO's enhanced nodes as a rendering → class-ids map, for
/// attribute-vs-attribute similarity.
pub fn seo_classes(seo: &Seo) -> HashMap<String, Vec<u32>> {
    let mut out: HashMap<String, Vec<u32>> = HashMap::new();
    for e in seo.enhanced().nodes() {
        for t in seo.terms_of_enhanced(e) {
            out.entry(t.clone()).or_default().push(e.0 as u32);
        }
    }
    out
}

const TRUE_FALSE: fn(bool) -> Cond = |b| {
    if b {
        Cond::True
    } else {
        Cond::Not(Box::new(Cond::True))
    }
};

/// Expand a TOSS condition into a TAX condition under the SEO.
pub fn expand(cond: &TossCond, ctx: ExpandCtx<'_>) -> TossResult<Cond> {
    match cond {
        TossCond::True => Ok(Cond::True),
        TossCond::And(a, b) => Ok(expand(a, ctx)?.and(expand(b, ctx)?)),
        TossCond::Or(a, b) => Ok(expand(a, ctx)?.or(expand(b, ctx)?)),
        TossCond::Not(c) => Ok(expand(c, ctx)?.not()),
        TossCond::Cmp { lhs, op, rhs } => expand_cmp(lhs, *op, rhs, ctx),
    }
}

fn expand_cmp(
    lhs: &TossTerm,
    op: TossOp,
    rhs: &TossTerm,
    ctx: ExpandCtx<'_>,
) -> TossResult<Cond> {
    if let Some(gov) = ctx.governor {
        gov.check()?;
    }
    match op {
        TossOp::Similar => match (const_string(lhs), const_string(rhs)) {
            (Some(a), Some(b)) => Ok(TRUE_FALSE(ctx.seo.similar(&a, &b))),
            (None, Some(s)) => Ok(Cond::in_set(
                to_tax_term(lhs)?,
                ctx.admit_terms(ctx.similar_terms(&s))?,
            )),
            (Some(s), None) => Ok(Cond::in_set(
                to_tax_term(rhs)?,
                ctx.admit_terms(ctx.similar_terms(&s))?,
            )),
            (None, None) => {
                let mut classes = seo_classes(ctx.seo);
                if let Some(gov) = ctx.governor {
                    let allowed = gov.admit_expansion_terms(classes.len())?;
                    if allowed < classes.len() {
                        // deterministic truncation: keep the lexically
                        // smallest term renderings
                        let mut keys: Vec<String> = classes.keys().cloned().collect();
                        keys.sort();
                        for k in keys.drain(allowed..) {
                            classes.remove(&k);
                        }
                    }
                }
                Ok(Cond::shared_class(
                    to_tax_term(lhs)?,
                    to_tax_term(rhs)?,
                    classes,
                ))
            }
        },
        TossOp::Below | TossOp::InstanceOf | TossOp::SubtypeOf => {
            let Some(target) = const_string(rhs) else {
                return Err(TossError::Unsupported(
                    "`below` requires a type/term on the right".into(),
                ));
            };
            match const_string(lhs) {
                Some(x) => Ok(TRUE_FALSE(ctx.seo.leq_terms(&x, &target))),
                None => Ok(Cond::in_set(
                    to_tax_term(lhs)?,
                    ctx.admit_terms(ctx.seo.below_terms(&target))?,
                )),
            }
        }
        TossOp::Above => expand_cmp(rhs, TossOp::Below, lhs, ctx),
        TossOp::PartOf => {
            let Some(part_of) = ctx.part_of else {
                return Err(TossError::Unsupported(
                    "`part_of` requires a part-of SEO in the expansion context".into(),
                ));
            };
            let Some(target) = const_string(rhs) else {
                return Err(TossError::Unsupported(
                    "`part_of` requires a term on the right".into(),
                ));
            };
            match const_string(lhs) {
                Some(x) => Ok(TRUE_FALSE(part_of.leq_terms(&x, &target))),
                None => Ok(Cond::in_set(
                    to_tax_term(lhs)?,
                    ctx.admit_terms(part_of.below_terms(&target))?,
                )),
            }
        }
        TossOp::Contains => Ok(Cond::contains(to_tax_term(lhs)?, to_tax_term(rhs)?)),
        TossOp::Eq | TossOp::Ne | TossOp::Le | TossOp::Ge => {
            let tax_op = match op {
                TossOp::Eq => CmpOp::Eq,
                TossOp::Ne => CmpOp::Ne,
                TossOp::Le => CmpOp::Le,
                _ => CmpOp::Ge,
            };
            // unit-typed constants: convert both to the least common
            // supertype first (conversion functions in action)
            if let (
                TossTerm::Value {
                    value: va,
                    ty: Some(ta),
                },
                TossTerm::Value {
                    value: vb,
                    ty: Some(tb),
                },
            ) = (lhs, rhs)
            {
                if ta != tb {
                    let lub = ctx
                        .hierarchy
                        .least_common_supertype(ta, tb)
                        .ok_or_else(|| {
                            TossError::IllTyped(format!(
                                "no least common supertype of {ta} and {tb}"
                            ))
                        })?;
                    let ca = ctx.conversions.convert(va, ta, &lub).ok_or_else(|| {
                        TossError::IllTyped(format!("missing conversion {ta}2{lub}"))
                    })?;
                    let cb = ctx.conversions.convert(vb, tb, &lub).ok_or_else(|| {
                        TossError::IllTyped(format!("missing conversion {tb}2{lub}"))
                    })?;
                    return Ok(Cond::cmp(Term::Const(ca), tax_op, Term::Const(cb)));
                }
            }
            Ok(Cond::cmp(to_tax_term(lhs)?, tax_op, to_tax_term(rhs)?))
        }
    }
}

/// The paper's TAX baseline: `~` → exact equality, `below`/`isa` →
/// substring `contains`, everything else unchanged.
pub(crate) fn expand_tax_baseline(cond: &TossCond) -> TossResult<Cond> {
    match cond {
        TossCond::True => Ok(Cond::True),
        TossCond::And(a, b) => Ok(expand_tax_baseline(a)?.and(expand_tax_baseline(b)?)),
        TossCond::Or(a, b) => Ok(expand_tax_baseline(a)?.or(expand_tax_baseline(b)?)),
        TossCond::Not(c) => Ok(expand_tax_baseline(c)?.not()),
        TossCond::Cmp { lhs, op, rhs } => match op {
            TossOp::Similar => Ok(Cond::eq(to_tax_term(lhs)?, to_tax_term(rhs)?)),
            TossOp::Below | TossOp::InstanceOf | TossOp::SubtypeOf => {
                Ok(Cond::contains(to_tax_term(lhs)?, to_tax_term(rhs)?))
            }
            TossOp::Above => Ok(Cond::contains(to_tax_term(rhs)?, to_tax_term(lhs)?)),
            TossOp::PartOf => Ok(Cond::contains(to_tax_term(lhs)?, to_tax_term(rhs)?)),
            TossOp::Contains => Ok(Cond::contains(to_tax_term(lhs)?, to_tax_term(rhs)?)),
            TossOp::Eq => Ok(Cond::eq(to_tax_term(lhs)?, to_tax_term(rhs)?)),
            TossOp::Ne => Ok(Cond::ne(to_tax_term(lhs)?, to_tax_term(rhs)?)),
            TossOp::Le => Ok(Cond::cmp(to_tax_term(lhs)?, CmpOp::Le, to_tax_term(rhs)?)),
            TossOp::Ge => Ok(Cond::cmp(to_tax_term(lhs)?, CmpOp::Ge, to_tax_term(rhs)?)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use toss_ontology::hierarchy::from_pairs;
    use toss_ontology::sea::enhance;
    use toss_similarity::Levenshtein;

    fn seo() -> Seo {
        let h = from_pairs(&[
            ("SIGMOD Conference", "conference"),
            ("VLDB", "conference"),
            ("TODS", "periodical"),
            ("conference", "venue"),
            ("periodical", "venue"),
            ("SIGMOD Conferense", "conference"), // a typo variant, 1 edit away
        ])
        .unwrap();
        enhance(&h, &Levenshtein, 2.0).unwrap()
    }

    fn ctx<'a>(
        seo: &'a Seo,
        th: &'a TypeHierarchy,
        cv: &'a Conversions,
    ) -> ExpandCtx<'a> {
        ExpandCtx::ungoverned(seo, th, cv)
    }

    #[test]
    fn similar_with_constant_becomes_in_set() {
        let s = seo();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let c = TossCond::similar(TossTerm::content(2), TossTerm::str("SIGMOD Conference"));
        let e = expand(&c, ctx(&s, &th, &cv)).unwrap();
        match e {
            Cond::InSet { set, .. } => {
                assert!(set.contains("SIGMOD Conference"));
                assert!(set.contains("SIGMOD Conferense"));
                assert!(!set.contains("VLDB"));
            }
            other => panic!("expected InSet, got {other:?}"),
        }
    }

    #[test]
    fn below_becomes_in_set_over_cone() {
        let s = seo();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let c = TossCond::below(TossTerm::content(3), TossTerm::ty("conference"));
        let e = expand(&c, ctx(&s, &th, &cv)).unwrap();
        match e {
            Cond::InSet { set, .. } => {
                assert!(set.contains("SIGMOD Conference"));
                assert!(set.contains("VLDB"));
                assert!(set.contains("conference"));
                assert!(!set.contains("TODS"));
                assert!(!set.contains("venue"));
            }
            other => panic!("expected InSet, got {other:?}"),
        }
    }

    #[test]
    fn constant_constant_similarity_folds() {
        let s = seo();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let t = expand(
            &TossCond::similar(
                TossTerm::str("SIGMOD Conference"),
                TossTerm::str("SIGMOD Conferense"),
            ),
            ctx(&s, &th, &cv),
        )
        .unwrap();
        assert_eq!(t, Cond::True);
        let f = expand(
            &TossCond::similar(TossTerm::str("SIGMOD Conference"), TossTerm::str("TODS")),
            ctx(&s, &th, &cv),
        )
        .unwrap();
        assert!(matches!(f, Cond::Not(_)));
    }

    #[test]
    fn attr_attr_similarity_becomes_shared_class() {
        let s = seo();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let c = TossCond::similar(TossTerm::content(2), TossTerm::content(3));
        let e = expand(&c, ctx(&s, &th, &cv)).unwrap();
        match e {
            Cond::SharedClass { classes, .. } => {
                // the typo variant shares a class with the real name
                let a = &classes["SIGMOD Conference"];
                let b = &classes["SIGMOD Conferense"];
                assert!(a.iter().any(|c| b.contains(c)));
            }
            other => panic!("expected SharedClass, got {other:?}"),
        }
    }

    #[test]
    fn above_swaps_to_below() {
        let s = seo();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let c = TossCond::cmp(TossTerm::ty("conference"), TossOp::Above, TossTerm::content(1));
        let e = expand(&c, ctx(&s, &th, &cv)).unwrap();
        assert!(matches!(e, Cond::InSet { .. }));
    }

    #[test]
    fn unit_constants_convert_before_comparing() {
        let s = seo();
        let mut th = TypeHierarchy::new();
        th.add_subtype("mm", "length").unwrap();
        th.add_subtype("cm", "length").unwrap();
        let mut cv = Conversions::new();
        cv.register("mm", "length", |x| x).unwrap();
        cv.register("cm", "length", |x| x * 10.0).unwrap();
        let c = TossCond::cmp(
            TossTerm::typed(Value::Int(30), "mm"),
            TossOp::Le,
            TossTerm::typed(Value::Int(5), "cm"),
        );
        let e = expand(&c, ctx(&s, &th, &cv)).unwrap();
        // 30 mm → 30 length, 5 cm → 50 length: 30 ≤ 50
        match e {
            Cond::Cmp { lhs, rhs, .. } => {
                assert_eq!(lhs, Term::Const(Value::Real(30.0)));
                assert_eq!(rhs, Term::Const(Value::Real(50.0)));
            }
            other => panic!("expected Cmp, got {other:?}"),
        }
    }

    #[test]
    fn baseline_uses_contains_and_exact_match() {
        let c = TossCond::all(vec![
            TossCond::similar(TossTerm::content(2), TossTerm::str("J. Ullman")),
            TossCond::below(TossTerm::content(3), TossTerm::ty("conference")),
        ]);
        let e = expand_tax_baseline(&c).unwrap();
        let cs = e.into_conjuncts();
        assert!(matches!(
            cs[0],
            Cond::Cmp {
                op: CmpOp::Eq,
                ..
            }
        ));
        assert!(matches!(
            cs[1],
            Cond::Cmp {
                op: CmpOp::Contains,
                ..
            }
        ));
    }

    #[test]
    fn soft_term_budget_truncates_expansion() {
        use crate::governor::{QueryBudget, QueryGovernor};
        let s = seo();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let gov = QueryGovernor::new(QueryBudget::unlimited().with_max_expansion_terms(1));
        let mut cx = ctx(&s, &th, &cv);
        cx.governor = Some(&gov);
        let c = TossCond::below(TossTerm::content(3), TossTerm::ty("conference"));
        let e = expand(&c, cx).unwrap();
        match e {
            Cond::InSet { set, .. } => assert_eq!(set.len(), 1),
            other => panic!("expected InSet, got {other:?}"),
        }
        assert!(gov.degradation().is_some());
    }

    #[test]
    fn admit_terms_dedups_before_charging_the_budget() {
        use crate::governor::{QueryBudget, QueryGovernor};
        let s = seo();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        // budget of 2: with duplicates charged, ["a", "a", "b"] would
        // truncate to ["a", "a"]; deduped first, both terms survive
        let gov = QueryGovernor::new(QueryBudget::unlimited().with_max_expansion_terms(2));
        let mut cx = ctx(&s, &th, &cv);
        cx.governor = Some(&gov);
        let admitted = cx
            .admit_terms(vec!["a".into(), "a".into(), "b".into()])
            .unwrap();
        assert_eq!(admitted, vec!["a".to_string(), "b".to_string()]);
        assert!(gov.degradation().is_none(), "2 unique terms fit a budget of 2");
        // order of first occurrence is preserved
        let cx2 = ctx(&s, &th, &cv);
        let admitted = cx2
            .admit_terms(vec!["z".into(), "m".into(), "z".into(), "a".into()])
            .unwrap();
        assert_eq!(
            admitted,
            vec!["z".to_string(), "m".to_string(), "a".to_string()]
        );
    }

    #[test]
    fn unknown_probe_still_matches_itself() {
        let s = seo();
        let th = TypeHierarchy::new();
        let cv = Conversions::new();
        let c = TossCond::similar(TossTerm::content(2), TossTerm::str("Unknown Name"));
        let e = expand(&c, ctx(&s, &th, &cv)).unwrap();
        match e {
            Cond::InSet { set, .. } => {
                assert_eq!(set.len(), 1);
                assert!(set.contains("Unknown Name"));
            }
            other => panic!("expected InSet, got {other:?}"),
        }
    }
}
