//! Recursive-descent XPath parser.

use super::ast::{Axis, Expr, NameTest, Path, RelPath, Step, ValueExpr, XPath};
use super::lexer::{tokenize, Token};
use crate::error::{DbError, DbResult};

/// Maximum nesting depth of predicate expressions. Parsing is
/// recursive-descent, so unbounded nesting (`//a[b[c[…]]]`,
/// `not(not(…))`, `(((…)))`) would overflow the stack; deeper inputs
/// are rejected with a parse error instead. The TOSS rewriter builds
/// its tree without text and holds it to the same limit
/// ([`XPath::check_depth`](super::XPath::check_depth)), so every tree
/// it hands the evaluator is one the parser could have built.
pub const MAX_EXPR_DEPTH: usize = 128;

/// The message of the error that refuses nesting past [`MAX_EXPR_DEPTH`].
pub(super) fn depth_limit_message() -> String {
    format!("expression nesting exceeds the depth limit of {MAX_EXPR_DEPTH}")
}

/// Parse an XPath expression string into an AST.
pub(crate) fn parse(input: &str) -> DbResult<XPath> {
    let tokens = tokenize(input)?;
    let mut p = P {
        tokens,
        pos: 0,
        depth: 0,
    };
    let x = p.xpath()?;
    if !p.at_end() {
        return Err(p.err("trailing tokens after expression"));
    }
    Ok(x)
}

struct P {
    tokens: Vec<Token>,
    pos: usize,
    /// Current recursion depth through `expr`/`step`.
    depth: usize,
}

impl P {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    /// Guard one level of expression/step recursion (paired with
    /// [`P::ascend`] on every return path).
    fn descend(&mut self) -> DbResult<()> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(self.err(&depth_limit_message()));
        }
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> DbError {
        DbError::XPathSyntax(format!("{msg} (at token {})", self.pos))
    }

    fn expect(&mut self, t: &Token, what: &str) -> DbResult<()> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn xpath(&mut self) -> DbResult<XPath> {
        let mut paths = vec![self.path()?];
        while self.peek() == Some(&Token::Pipe) {
            self.bump();
            paths.push(self.path()?);
        }
        Ok(XPath { paths })
    }

    fn path(&mut self) -> DbResult<Path> {
        let mut steps = Vec::new();
        loop {
            let axis = match self.peek() {
                Some(Token::Slash) => Axis::Child,
                Some(Token::DoubleSlash) => Axis::Descendant,
                _ if steps.is_empty() => return Err(self.err("path must start with / or //")),
                _ => break,
            };
            self.bump();
            steps.push(self.step(axis)?);
        }
        Ok(Path { steps })
    }

    fn step(&mut self, axis: Axis) -> DbResult<Step> {
        self.descend()?;
        let r = self.step_inner(axis);
        self.ascend();
        r
    }

    fn step_inner(&mut self, axis: Axis) -> DbResult<Step> {
        let test = match self.bump() {
            Some(Token::Name(n)) => NameTest::Name(n),
            Some(Token::Star) => NameTest::Wildcard,
            _ => return Err(self.err("expected a name or `*` after axis")),
        };
        let mut predicates = Vec::new();
        while self.peek() == Some(&Token::LBracket) {
            self.bump();
            predicates.push(self.expr()?);
            self.expect(&Token::RBracket, "expected `]` to close predicate")?;
        }
        Ok(Step {
            axis,
            test,
            predicates,
        })
    }

    fn expr(&mut self) -> DbResult<Expr> {
        self.descend()?;
        let r = self.or_expr();
        self.ascend();
        r
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut operands = vec![self.and_expr()?];
        while matches!(self.peek(), Some(Token::Name(n)) if n == "or") {
            self.bump();
            operands.push(self.and_expr()?);
        }
        Ok(Expr::any(operands))
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut operands = vec![self.unary()?];
        while matches!(self.peek(), Some(Token::Name(n)) if n == "and") {
            self.bump();
            operands.push(self.unary()?);
        }
        Ok(Expr::all(operands))
    }

    fn unary(&mut self) -> DbResult<Expr> {
        match self.peek() {
            Some(Token::Integer(n)) => {
                let n = *n;
                self.bump();
                if n == 0 {
                    return Err(self.err("positional predicates are 1-based"));
                }
                Ok(Expr::Position(n))
            }
            Some(Token::LParen) => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Token::RParen, "expected `)`")?;
                Ok(e)
            }
            Some(Token::Name(n)) if n == "not" && self.tokens.get(self.pos + 1) == Some(&Token::LParen) => {
                self.bump();
                self.bump();
                let e = self.expr()?;
                self.expect(&Token::RParen, "expected `)` after not(...)")?;
                Ok(Expr::Not(Box::new(e)))
            }
            _ => {
                if let Some(c) = self.try_contains()? {
                    return Ok(c);
                }
                let v = self.value()?;
                match self.peek() {
                    Some(Token::Eq) => {
                        self.bump();
                        let lit = self.literal()?;
                        Ok(Expr::Eq(v, lit))
                    }
                    Some(Token::Ne) => {
                        self.bump();
                        let lit = self.literal()?;
                        Ok(Expr::Ne(v, lit))
                    }
                    _ => match v {
                        ValueExpr::Rel(p) => Ok(Expr::Exists(p)),
                        ValueExpr::Attr(a) => Ok(Expr::AttrExists(a)),
                        other => Err(self.err(&format!(
                            "`{other}` must be compared with = or != in a predicate"
                        ))),
                    },
                }
            }
        }
    }

    fn literal(&mut self) -> DbResult<String> {
        match self.bump() {
            Some(Token::Literal(s)) => Ok(s),
            Some(Token::Integer(n)) => Ok(n.to_string()),
            _ => Err(self.err("expected a string literal")),
        }
    }

    fn value(&mut self) -> DbResult<ValueExpr> {
        match self.peek() {
            Some(Token::At) => {
                self.bump();
                match self.bump() {
                    Some(Token::Name(n)) => Ok(ValueExpr::Attr(n)),
                    _ => Err(self.err("expected attribute name after `@`")),
                }
            }
            Some(Token::Name(n)) if n == "text" && self.tokens.get(self.pos + 1) == Some(&Token::LParen) => {
                self.bump();
                self.bump();
                self.expect(&Token::RParen, "expected `)` after text(")?;
                Ok(ValueExpr::Text)
            }
            Some(Token::Name(n)) if n == "contains" && self.tokens.get(self.pos + 1) == Some(&Token::LParen) => {
                self.bump();
                self.bump();
                let inner = self.value()?;
                self.expect(&Token::Comma, "expected `,` in contains()")?;
                let lit = self.literal()?;
                self.expect(&Token::RParen, "expected `)` to close contains()")?;
                // contains() used as a value only appears directly as a
                // boolean; encode by wrapping at the unary level. We return
                // a marker through the Expr ladder instead: handled below.
                Err(DbError::XPathSyntax(
                    // contains as nested value is unsupported; the grammar
                    // only allows contains at predicate top level, which
                    // `unary` handles via this early path:
                    format!("internal: contains({inner:?}, {lit:?}) must be a predicate"),
                ))
            }
            _ => {
                let p = self.rel_path()?;
                Ok(ValueExpr::Rel(p))
            }
        }
    }

    fn rel_path(&mut self) -> DbResult<RelPath> {
        let mut from_descendants = false;
        if self.peek() == Some(&Token::Dot) {
            self.bump();
            self.expect(&Token::DoubleSlash, "expected `//` after `.`")?;
            from_descendants = true;
        }
        let mut steps = vec![self.step(Axis::Child)?];
        loop {
            let axis = match self.peek() {
                Some(Token::Slash) => Axis::Child,
                Some(Token::DoubleSlash) => Axis::Descendant,
                _ => break,
            };
            self.bump();
            steps.push(self.step(axis)?);
        }
        Ok(RelPath {
            from_descendants,
            steps,
        })
    }
}

impl P {
    /// Handle `contains(value, 'lit')` / `starts-with(value, 'lit')` as a
    /// complete predicate — called from `unary` before the generic value
    /// route.
    fn try_contains(&mut self) -> DbResult<Option<Expr>> {
        let func = match self.peek() {
            Some(Token::Name(n)) if n == "contains" || n == "starts-with" => n.clone(),
            _ => return Ok(None),
        };
        if self.tokens.get(self.pos + 1) != Some(&Token::LParen) {
            return Ok(None);
        }
        self.bump();
        self.bump();
        let v = self.value()?;
        self.expect(&Token::Comma, "expected `,` in the function call")?;
        let lit = self.literal()?;
        self.expect(&Token::RParen, "expected `)` to close the function call")?;
        Ok(Some(if func == "contains" {
            Expr::Contains(v, lit)
        } else {
            Expr::StartsWith(v, lit)
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_descendant() {
        let x = parse("//author").unwrap();
        assert_eq!(x.paths.len(), 1);
        let s = &x.paths[0].steps[0];
        assert_eq!(s.axis, Axis::Descendant);
        assert_eq!(s.test, NameTest::Name("author".into()));
    }

    #[test]
    fn parses_predicates_with_precedence() {
        let x = parse("//a[b='1' or c='2' and d='3']").unwrap();
        let p = &x.paths[0].steps[0].predicates[0];
        // and binds tighter than or
        match p {
            Expr::Or(_, rhs) => assert!(matches!(**rhs, Expr::And(_, _))),
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn parses_parenthesized_expression() {
        let x = parse("//a[(b='1' or c='2') and d='3']").unwrap();
        let p = &x.paths[0].steps[0].predicates[0];
        match p {
            Expr::And(lhs, _) => assert!(matches!(**lhs, Expr::Or(_, _))),
            other => panic!("expected And at top, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("//a b").is_err());
        assert!(parse("//a]").is_err());
    }

    #[test]
    fn rejects_relative_top_level() {
        assert!(parse("a/b").is_err());
    }

    #[test]
    fn rejects_zero_position() {
        assert!(parse("//a[0]").is_err());
    }

    #[test]
    fn multiple_predicates_on_one_step() {
        let x = parse("//a[b='1'][2]").unwrap();
        assert_eq!(x.paths[0].steps[0].predicates.len(), 2);
    }

    #[test]
    fn nested_rel_path_value() {
        let x = parse("//a[b/c='v']").unwrap();
        match &x.paths[0].steps[0].predicates[0] {
            Expr::Eq(ValueExpr::Rel(p), v) => {
                assert_eq!(p.steps.len(), 2);
                assert_eq!(v, "v");
                assert!(!p.from_descendants);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dot_doubleslash_rel_path() {
        let x = parse("//a[.//b='v']").unwrap();
        match &x.paths[0].steps[0].predicates[0] {
            Expr::Eq(ValueExpr::Rel(p), _) => assert!(p.from_descendants),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn contains_on_text_and_attr() {
        let x = parse("//a[contains(text(),'x') and contains(@k,'y')]").unwrap();
        match &x.paths[0].steps[0].predicates[0] {
            Expr::And(l, r) => {
                assert!(matches!(**l, Expr::Contains(ValueExpr::Text, _)));
                assert!(matches!(**r, Expr::Contains(ValueExpr::Attr(_), _)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bare_name_is_existence() {
        let x = parse("//a[b]").unwrap();
        assert!(matches!(
            x.paths[0].steps[0].predicates[0],
            Expr::Exists(_)
        ));
    }

    #[test]
    fn text_alone_is_an_error_but_attr_is_existence() {
        assert!(parse("//a[text()]").is_err());
        let x = parse("//a[@k]").unwrap();
        assert!(matches!(
            x.paths[0].steps[0].predicates[0],
            Expr::AttrExists(_)
        ));
    }

    #[test]
    fn starts_with_parses() {
        let x = parse("//a[starts-with(b,'pre')]").unwrap();
        assert!(matches!(
            x.paths[0].steps[0].predicates[0],
            Expr::StartsWith(_, _)
        ));
    }

    #[test]
    fn union_parses_both_branches() {
        let x = parse("//a|//b[c='1']").unwrap();
        assert_eq!(x.paths.len(), 2);
    }

    #[test]
    fn deeply_nested_predicate_is_rejected_not_overflowed() {
        // 10 000 levels of `a[a[a[…]]]` must come back as a parse error
        // (stack-safe), not a stack overflow.
        let mut q = String::from("//a");
        for _ in 0..10_000 {
            q.push_str("[a");
        }
        q.push_str("='v'");
        for _ in 0..10_000 {
            q.push(']');
        }
        let err = parse(&q).unwrap_err();
        assert!(
            err.to_string().contains("depth limit"),
            "unexpected error: {err}"
        );
        // same for pathological not() and paren nesting
        let not_bomb = format!("//a[{}b='v'{}]", "not(".repeat(10_000), ")".repeat(10_000));
        assert!(parse(&not_bomb).is_err());
        let paren_bomb = format!("//a[{}b='v'{}]", "(".repeat(10_000), ")".repeat(10_000));
        assert!(parse(&paren_bomb).is_err());
    }

    #[test]
    fn chains_fold_into_balanced_trees() {
        let x = |q: &str| {
            let mut x = parse(&format!("//x[{q}]")).unwrap();
            x.paths[0].steps[0].predicates.remove(0)
        };
        let leaf = |n: &str| {
            Expr::Exists(RelPath {
                from_descendants: false,
                steps: vec![Step {
                    axis: Axis::Child,
                    test: NameTest::Name(n.into()),
                    predicates: vec![],
                }],
            })
        };
        let and = |a, b| Expr::And(Box::new(a), Box::new(b));
        // up to three operands: left-deep, as a left fold builds them
        assert_eq!(x("a and b and c"), and(and(leaf("a"), leaf("b")), leaf("c")));
        // from four on: halves, the left one taking the odd operand
        assert_eq!(
            x("a and b and c and d and e"),
            and(and(and(leaf("a"), leaf("b")), leaf("c")), and(leaf("d"), leaf("e")))
        );
        // an `or` chain renders flat, so its text parses back to itself
        assert_eq!(x("a or b or c or d").to_string(), "(a or b or c or d)");
    }

    #[test]
    fn moderate_nesting_still_parses() {
        // nesting well inside the limit keeps working
        let mut q = String::from("//a");
        for _ in 0..30 {
            q.push_str("[a");
        }
        q.push_str("='v'");
        for _ in 0..30 {
            q.push(']');
        }
        assert!(parse(&q).is_ok());
    }
}
