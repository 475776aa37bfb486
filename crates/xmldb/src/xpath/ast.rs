//! XPath abstract syntax.

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
            Expr::Eq(v, s) => write!(f, "{v}='{s}'"),
            Expr::Ne(v, s) => write!(f, "{v}!='{s}'"),
            Expr::Contains(v, s) => write!(f, "contains({v},'{s}')"),
            Expr::StartsWith(v, s) => write!(f, "starts-with({v},'{s}')"),
            Expr::AttrExists(a) => write!(f, "@{a}"),
            Expr::Exists(p) => write!(f, "{p}"),
            Expr::Position(n) => write!(f, "{n}"),
            Expr::And(a, b) => write!(f, "{a} and {b}"),
            Expr::Or(a, b) => write!(f, "({a} or {b})"),
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
        ];
        for src in cases {
            let p1 = XPath::parse(src).unwrap();
            let rendered = p1.to_string();
            let p2 = XPath::parse(&rendered).unwrap();
            assert_eq!(p1, p2, "round-trip failed for {src} -> {rendered}");
        }
    }
}
