//! Typed values and conversion functions — Section 5's type system.
//!
//! TOSS compares values of *unit* types (the paper's `mm`, `USD`
//! examples) by converting both sides to their least common supertype
//! through registered conversion functions, whose closure constraints
//! (identity, composition consistency, hierarchy coverage) the registry
//! validates.
//!
//! ```text
//! cargo run --example unit_conversion
//! ```

use toss::core::convert::Conversions;
use toss::core::expand::{expand, ExpandCtx};
use toss::core::typesys::TypeHierarchy;
use toss::core::{TossCond, TossOp, TossTerm};
use toss::ontology::hierarchy::Hierarchy;
use toss::similarity::Levenshtein;
use toss::tree::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. a type hierarchy: mm ≤ length, cm ≤ length, inch ≤ length
    let mut th = TypeHierarchy::new();
    th.add_subtype("mm", "length")?;
    th.add_subtype("cm", "length")?;
    th.add_subtype("inch", "length")?;

    // 2. conversion functions to the common supertype (length in mm)
    let mut cv = Conversions::new();
    cv.register("mm", "length", |x| x)?;
    cv.register("cm", "length", |x| x * 10.0)?;
    cv.register("inch", "length", |x| x * 25.4)?;
    // Section 5's closure constraints are validated explicitly:
    cv.validate(&th)?;
    println!("conversion registry validates against the hierarchy");

    // 3. compare typed values — 30 mm ≤ 5 cm because 30 ≤ 50
    let seo = toss::ontology::enhance(&Hierarchy::new(), &Levenshtein, 0.0)?;
    let ctx = ExpandCtx::ungoverned(&seo, &th, &cv);
    let cases = [
        (Value::Int(30), "mm", TossOp::Le, Value::Int(5), "cm"),
        (Value::Int(2), "inch", TossOp::Ge, Value::Int(5), "cm"),
        (Value::Real(25.4), "mm", TossOp::Eq, Value::Int(1), "inch"),
    ];
    for (va, ta, op, vb, tb) in cases {
        let cond = TossCond::cmp(
            TossTerm::typed(va.clone(), ta),
            op,
            TossTerm::typed(vb.clone(), tb),
        );
        // well-typedness per the paper: least common supertype + conversions
        cond.well_typed(&th, &cv)?;
        let compiled = expand(&cond, ctx)?;
        println!("{va} {ta} {op:?} {vb} {tb}  ⇒  {compiled:?}");
    }

    // 4. an ill-typed comparison is rejected before evaluation
    let mut th2 = TypeHierarchy::new();
    th2.add_subtype("usd", "money")?;
    th2.add_subtype("mm", "length")?;
    let bad = TossCond::cmp(
        TossTerm::typed(Value::Int(1), "usd"),
        TossOp::Le,
        TossTerm::typed(Value::Int(1), "mm"),
    );
    let err = bad.well_typed(&th2, &cv).unwrap_err();
    println!("\nusd vs mm correctly rejected: {err}");
    Ok(())
}
