//! Conversion functions (Section 5, "Conversion Functions").
//!
//! For each pair of types there is at most one total conversion
//! `τᵢ2τⱼ : dom(τᵢ) → dom(τⱼ)`. The registry enforces the paper's closure
//! constraints at registration/validation time:
//!
//! 1. `τ2τ` exists and is the identity;
//! 2. if `τ₁2τ₂` and `τ₂2τ₃` exist then `τ₁2τ₃` exists and equals their
//!    composition (auto-composed when not given explicitly; rejected when
//!    an explicit registration disagrees with a composition);
//! 3. for every `τ₁ ≤_H τ₂` a conversion `τ₁2τ₂` must exist.

use crate::error::{TossError, TossResult};
use crate::typesys::TypeHierarchy;
use std::collections::HashMap;
use std::sync::Arc;
use toss_tree::Value;

/// A conversion function between numeric domains.
pub type ConvFn = Arc<dyn Fn(f64) -> f64 + Send + Sync>;

/// Registry of conversion functions, keyed by `(from, to)` type names.
#[derive(Clone, Default)]
pub struct Conversions {
    fns: HashMap<(String, String), ConvFn>,
}

impl std::fmt::Debug for Conversions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut keys: Vec<&(String, String)> = self.fns.keys().collect();
        keys.sort();
        f.debug_struct("Conversions").field("pairs", &keys).finish()
    }
}

/// Tolerance used when checking composition consistency on probe values.
const TOLERANCE: f64 = 1e-9;
/// Probe values used for extensional equality checks.
const PROBES: &[f64] = &[0.0, 1.0, 2.5, 10.0, 1000.0];

impl Conversions {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `from2to`. Errors if a registration for the pair exists
    /// with observably different behaviour ("at most one conversion
    /// function" per pair).
    pub fn register(
        &mut self,
        from: &str,
        to: &str,
        f: impl Fn(f64) -> f64 + Send + Sync + 'static,
    ) -> TossResult<()> {
        let key = (from.to_string(), to.to_string());
        let f: ConvFn = Arc::new(f);
        if let Some(existing) = self.fns.get(&key) {
            if !agree(existing, &f) {
                return Err(TossError::BadConversion(format!(
                    "{from}2{to} registered twice with different behaviour"
                )));
            }
            return Ok(());
        }
        self.fns.insert(key, f);
        Ok(())
    }

    /// Look up a conversion, falling back to the identity for `τ2τ`
    /// (constraint 1) and to transitive composition (constraint 2).
    pub(crate) fn lookup(&self, from: &str, to: &str) -> Option<ConvFn> {
        if from == to {
            return Some(Arc::new(|x| x));
        }
        if let Some(f) = self.fns.get(&(from.to_string(), to.to_string())) {
            return Some(f.clone());
        }
        // one-level composition search: from → mid → to
        for ((f1, t1), g) in &self.fns {
            if f1 == from {
                if let Some(h) = self.fns.get(&(t1.clone(), to.to_string())) {
                    let g = g.clone();
                    let h = h.clone();
                    return Some(Arc::new(move |x| h(g(x))));
                }
            }
        }
        None
    }

    /// Convert a numeric value between types; `None` when no conversion
    /// exists or the value is not numeric.
    pub(crate) fn convert(&self, v: &Value, from: &str, to: &str) -> Option<Value> {
        let f = self.lookup(from, to)?;
        Some(Value::Real(f(v.as_real()?)))
    }

    /// Validate the closure constraints against a type hierarchy:
    /// composition consistency on all composable pairs, and existence of
    /// a conversion for every `τ₁ ≤_H τ₂` (constraint 3).
    pub fn validate(&self, hierarchy: &TypeHierarchy) -> TossResult<()> {
        // constraint 2: explicit f: a→c must agree with every composition
        // a→b→c that exists
        for ((a, b), g) in &self.fns {
            for ((b2, c), h) in &self.fns {
                if b == b2 {
                    if let Some(direct) = self.fns.get(&(a.clone(), c.clone())) {
                        let composed: ConvFn = {
                            let g = g.clone();
                            let h = h.clone();
                            Arc::new(move |x| h(g(x)))
                        };
                        if !agree(direct, &composed) {
                            return Err(TossError::BadConversion(format!(
                                "{a}2{c} disagrees with {a}2{b} ∘ {b}2{c}"
                            )));
                        }
                    }
                }
            }
        }
        // constraint 3: τ₁ ≤_H τ₂ ⇒ conversion exists
        for below in hierarchy.order.nodes() {
            for above in hierarchy.order.nodes() {
                if below != above && hierarchy.order.leq(below, above) {
                    let b = hierarchy.order.terms_of(below).map_err(TossError::from)?;
                    let a = hierarchy.order.terms_of(above).map_err(TossError::from)?;
                    for bt in b {
                        for at in a {
                            if self.lookup(bt, at).is_none() {
                                return Err(TossError::BadConversion(format!(
                                    "{bt} ≤_H {at} but no conversion {bt}2{at} exists"
                                )));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn agree(f: &ConvFn, g: &ConvFn) -> bool {
    PROBES.iter().all(|&x| (f(x) - g(x)).abs() <= TOLERANCE * (1.0 + x.abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Conversions {
        let mut c = Conversions::new();
        c.register("mm", "cm", |x| x / 10.0).unwrap();
        c.register("cm", "m", |x| x / 100.0).unwrap();
        c
    }

    #[test]
    fn identity_is_implicit() {
        let c = registry();
        let f = c.lookup("mm", "mm").unwrap();
        assert_eq!(f(7.0), 7.0);
    }

    #[test]
    fn direct_and_composed_lookup() {
        let c = registry();
        assert_eq!(c.lookup("mm", "cm").unwrap()(25.0), 2.5);
        // mm → m composes through cm
        assert_eq!(c.lookup("mm", "m").unwrap()(1000.0), 1.0);
        assert!(c.lookup("m", "mm").is_none());
    }

    #[test]
    fn convert_values() {
        let c = registry();
        assert_eq!(
            c.convert(&Value::Int(30), "mm", "cm"),
            Some(Value::Real(3.0))
        );
        assert_eq!(c.convert(&Value::Str("x".into()), "mm", "cm"), None);
        // non-canonical numeric text is a string, so it does not convert
        assert_eq!(c.convert(&Value::parse_lexical("30.0"), "mm", "cm"), None);
        assert_eq!(c.convert(&Value::Int(1), "mm", "kg"), None);
    }

    #[test]
    fn duplicate_registration_must_agree() {
        let mut c = registry();
        // same behaviour: fine
        c.register("mm", "cm", |x| x * 0.1).unwrap();
        // different behaviour: rejected
        let e = c.register("mm", "cm", |x| x).unwrap_err();
        assert!(matches!(e, TossError::BadConversion(_)));
    }

    #[test]
    fn composition_consistency_validated() {
        let mut c = registry();
        // explicit mm→m that disagrees with the composition
        c.register("mm", "m", |x| x / 999.0).unwrap();
        let th = TypeHierarchy::new();
        let e = c.validate(&th).unwrap_err();
        assert!(matches!(e, TossError::BadConversion(_)));
        // consistent explicit version passes
        let mut c2 = registry();
        c2.register("mm", "m", |x| x / 1000.0).unwrap();
        c2.validate(&TypeHierarchy::new()).unwrap();
    }

    #[test]
    fn hierarchy_requires_conversions() {
        let mut th = TypeHierarchy::new();
        th.add_subtype("mm", "length").unwrap();
        let c = registry();
        let e = c.validate(&th).unwrap_err();
        assert!(e.to_string().contains("mm2length"));
        let mut c2 = registry();
        c2.register("mm", "length", |x| x).unwrap();
        c2.validate(&th).unwrap();
    }
}
