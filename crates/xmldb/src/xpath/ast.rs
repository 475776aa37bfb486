//! XPath abstract syntax.
//!
//! The parser builds this tree from text, and so does the TOSS rewriter
//! from a pattern tree, with no text in between. Both build `and` / `or`
//! chains with [`Expr::all`] / [`Expr::any`], and [`fmt::Display`]
//! renders a chain flat, so the parse of a rendered tree is that tree.

use std::fmt;

/// A full XPath expression: a union of one or more absolute paths.
#[derive(Debug, Clone, PartialEq)]
pub struct XPath {
    /// The union branches (at least one).
    pub paths: Vec<Path>,
}

/// An absolute location path.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The steps, each carrying the axis that *precedes* it.
    pub steps: Vec<Step>,
}

/// One location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The axis connecting this step to the previous context.
    pub axis: Axis,
    /// The node test.
    pub test: NameTest,
    /// Zero or more predicates, applied in order.
    pub predicates: Vec<Expr>,
}

/// Axis of a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `/` — children of the context node (or root elements at the start).
    Child,
    /// `//` — descendant-or-self, then children: i.e. all descendants at
    /// the start of a path, per XPath's `/descendant-or-self::node()/`.
    Descendant,
}

/// Element-name test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameTest {
    /// A specific tag name.
    Name(String),
    /// `*` — any element.
    Wildcard,
}

impl NameTest {
    /// Whether a tag satisfies the test.
    pub(crate) fn matches(&self, tag: &str) -> bool {
        match self {
            NameTest::Name(n) => n == tag,
            NameTest::Wildcard => true,
        }
    }
}

/// A predicate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `value = 'literal'`
    Eq(ValueExpr, String),
    /// `value != 'literal'`
    Ne(ValueExpr, String),
    /// `contains(value, 'literal')`
    Contains(ValueExpr, String),
    /// `starts-with(value, 'literal')`
    StartsWith(ValueExpr, String),
    /// `@name` with no comparison — attribute-existence test.
    AttrExists(String),
    /// Bare relative path — existence test.
    Exists(RelPath),
    /// `[n]` — 1-based position among the step's matches.
    Position(usize),
    /// `a and b`
    And(Box<Expr>, Box<Expr>),
    /// `a or b`
    Or(Box<Expr>, Box<Expr>),
    /// `not(e)`
    Not(Box<Expr>),
}

/// A binary connective's constructor, `Expr::And` or `Expr::Or`.
type Join = fn(Box<Expr>, Box<Expr>) -> Expr;

/// Join a chain's operands (at least one) with `join` into a balanced
/// tree, so that evaluating, walking and dropping it recurses
/// logarithmically, not once per operand: a left-deep `a and b and …`
/// of 20 000 operands overflows a 2 MB thread. The left half takes the
/// odd operand, so chains of up to three keep the left-deep shape. The
/// operands have no side effects, so the grouping does not change the
/// answer.
fn balanced(operands: Vec<Expr>, join: Join) -> Expr {
    fn fold(operands: &mut impl Iterator<Item = Expr>, n: usize, join: Join) -> Expr {
        if n == 1 {
            return operands.next().expect("one operand per count");
        }
        let left = fold(operands, n.div_ceil(2), join);
        let right = fold(operands, n / 2, join);
        join(Box::new(left), Box::new(right))
    }
    let n = operands.len();
    fold(&mut operands.into_iter(), n, join)
}

impl Expr {
    /// `a or b or …`: the operands joined into the balanced tree the
    /// parser builds for the same chain.
    ///
    /// # Panics
    /// On an empty `operands`.
    pub fn any(operands: Vec<Expr>) -> Expr {
        balanced(operands, Expr::Or)
    }

    /// `a and b and …`: the operands joined into the balanced tree the
    /// parser builds for the same chain.
    ///
    /// # Panics
    /// On an empty `operands`.
    pub fn all(operands: Vec<Expr>) -> Expr {
        balanced(operands, Expr::And)
    }

    /// How deep the parser nests below a predicate's `[` when it reads
    /// this expression's rendering: one level per parenthesised `or`
    /// chain, per `not(…)` and per step of a relative path.
    fn depth(&self) -> usize {
        match self {
            Expr::Eq(v, _) | Expr::Ne(v, _) | Expr::Contains(v, _) | Expr::StartsWith(v, _) => {
                v.depth()
            }
            Expr::AttrExists(_) | Expr::Position(_) => 0,
            Expr::Exists(p) => p.depth(),
            Expr::And(a, b) => a.depth().max(b.depth()),
            Expr::Or(..) => 1 + self.or_operands_depth(),
            Expr::Not(e) => 1 + e.depth(),
        }
    }

    /// The deepest operand of the `or` chain this node heads, which
    /// [`fmt::Display`] renders inside one pair of parentheses.
    fn or_operands_depth(&self) -> usize {
        match self {
            Expr::Or(a, b) => a.or_operands_depth().max(b.or_operands_depth()),
            other => other.depth(),
        }
    }

    /// Write the operands of the `or` chain this node heads, without the
    /// parentheses around them.
    fn fmt_or_operands(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Or(a, b) => {
                a.fmt_or_operands(f)?;
                f.write_str(" or ")?;
                b.fmt_or_operands(f)
            }
            other => write!(f, "{other}"),
        }
    }
}

/// A value inside a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueExpr {
    /// `text()` — the context node's own string-value.
    Text,
    /// `@name` — an attribute of the context node.
    Attr(String),
    /// A relative path; the comparison holds if *some* node reached by the
    /// path has the compared string-value (XPath existential semantics).
    Rel(RelPath),
}

/// A relative path used inside predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct RelPath {
    /// True for a `.//`-prefixed path (search all descendants), false for
    /// a plain child-first path.
    pub from_descendants: bool,
    /// Steps of the relative path.
    pub steps: Vec<Step>,
}

impl ValueExpr {
    fn depth(&self) -> usize {
        match self {
            ValueExpr::Text | ValueExpr::Attr(_) => 0,
            ValueExpr::Rel(p) => p.depth(),
        }
    }
}

impl RelPath {
    fn depth(&self) -> usize {
        self.steps.iter().map(Step::depth).max().unwrap_or(0)
    }
}

impl Step {
    /// The parser's nesting depth for this step's rendering: the step
    /// itself, then one level per predicate's `[`.
    fn depth(&self) -> usize {
        1 + self
            .predicates
            .iter()
            .map(|p| 1 + p.depth())
            .max()
            .unwrap_or(0)
    }
}

impl XPath {
    /// The deepest nesting the parser reaches when it reads this
    /// expression's rendering; [`MAX_EXPR_DEPTH`](super::MAX_EXPR_DEPTH)
    /// bounds it.
    pub(crate) fn depth(&self) -> usize {
        let steps = self.paths.iter().flat_map(|p| &p.steps);
        steps.map(Step::depth).max().unwrap_or(0)
    }
}

/// A string literal as XPath text: in `'…'`, or in `"…"` when it holds a
/// `'`. A literal holding both quote kinds has no XPath rendering; it is
/// written in `'…'` and does not parse back.
struct Literal<'a>(&'a str);

impl fmt::Display for Literal<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let quote = if self.0.contains('\'') { '"' } else { '\'' };
        write!(f, "{quote}{}{quote}", self.0)
    }
}

impl fmt::Display for XPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, p) in self.paths.iter().enumerate() {
            if i > 0 {
                f.write_str(" | ")?;
            }
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.steps {
            write!(f, "{}{s}", if s.axis == Axis::Child { "/" } else { "//" })?;
        }
        Ok(())
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.test {
            NameTest::Name(n) => f.write_str(n)?,
            NameTest::Wildcard => f.write_str("*")?,
        }
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Eq(v, s) => write!(f, "{v}={}", Literal(s)),
            Expr::Ne(v, s) => write!(f, "{v}!={}", Literal(s)),
            Expr::Contains(v, s) => write!(f, "contains({v},{})", Literal(s)),
            Expr::StartsWith(v, s) => write!(f, "starts-with({v},{})", Literal(s)),
            Expr::AttrExists(a) => write!(f, "@{a}"),
            Expr::Exists(p) => write!(f, "{p}"),
            Expr::Position(n) => write!(f, "{n}"),
            Expr::And(a, b) => write!(f, "{a} and {b}"),
            Expr::Or(..) => {
                f.write_str("(")?;
                self.fmt_or_operands(f)?;
                f.write_str(")")
            }
            Expr::Not(e) => write!(f, "not({e})"),
        }
    }
}

impl fmt::Display for ValueExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueExpr::Text => f.write_str("text()"),
            ValueExpr::Attr(a) => write!(f, "@{a}"),
            ValueExpr::Rel(p) => write!(f, "{p}"),
        }
    }
}

impl fmt::Display for RelPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.from_descendants {
            f.write_str(".//")?;
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                f.write_str(if s.axis == Axis::Child { "/" } else { "//" })?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nametest_matching() {
        assert!(NameTest::Name("a".into()).matches("a"));
        assert!(!NameTest::Name("a".into()).matches("b"));
        assert!(NameTest::Wildcard.matches("anything"));
    }

    #[test]
    fn display_round_trips_through_parser() {
        use crate::xpath::XPath;
        let cases = [
            "//inproceedings[author='X' and year='1999']",
            "/a//b[contains(c,'x')]",
            "//a[@k!='1']|//b[2]",
            "//a[.//b='v']",
            "//a[not(b='x')]",
            "//a[starts-with(b,'x') and @k]",
            "//a[b=\"O'Neil\"]",
            "//a[(b='1' or c='2' or d='3' or e='4') and f]",
        ];
        for src in cases {
            let p1 = XPath::parse(src).unwrap();
            let rendered = p1.to_string();
            let p2 = XPath::parse(&rendered).unwrap();
            assert_eq!(p1, p2, "round-trip failed for {src} -> {rendered}");
        }
    }
}
