//! The XPath-subset engine.
//!
//! Grammar (the fragment TOSS's Query Executor emits — Section 6 of the
//! paper says pattern trees are rewritten into XPath queries against
//! Xindice):
//!
//! ```text
//! xpath    := path ('|' path)*
//! path     := ('/' | '//') step (('/' | '//') step)*
//! step     := nametest pred*
//! nametest := NAME | '*'
//! pred     := '[' expr ']'
//! expr     := orexpr
//! orexpr   := andexpr ('or' andexpr)*
//! andexpr  := unary ('and' unary)*
//! unary    := 'not' '(' expr ')' | comparison | INTEGER | relpath
//! comparison := value ('=' | '!=') STRING
//! value    := 'text' '(' ')' | '@' NAME | relpath
//!           | 'contains' '(' value ',' STRING ')'
//! relpath  := ('.' '//')? step ('/' step)*
//! ```
//!
//! A bare `relpath` predicate tests existence; an `INTEGER` predicate
//! tests position among the step's matches (1-based, per XPath).
//!
//! Deviation from the W3C semantics, documented for users of positional
//! predicates: on a path-initial descendant step (`//a[2]`) the position
//! is taken within the *document-order list of all matches in the
//! document*, not per parent context (later steps are per-context, as in
//! the standard). The TOSS rewriter never emits positional predicates;
//! they exist for hand-written queries.

mod ast;
mod eval;
mod lexer;
mod parser;

pub use ast::{Axis, Expr, NameTest, Path, RelPath, Step, ValueExpr, XPath};
pub use eval::{Candidates, NodeRef};
pub use parser::MAX_EXPR_DEPTH;

use crate::error::{DbError, DbResult};

impl XPath {
    /// Parse an XPath expression.
    pub fn parse(input: &str) -> DbResult<XPath> {
        let span = toss_obs::span("xmldb.xpath.parse");
        span.record("src_len", input.len());
        toss_obs::metrics::counter("xmldb.xpath.parses").inc();
        parser::parse(input)
    }

    /// Refuse a tree built without the parser whose rendering nests past
    /// [`MAX_EXPR_DEPTH`], with the parser's depth-limit error: evaluating,
    /// walking and dropping a tree recurse once per nesting level, so a
    /// deeper one must never reach them.
    pub fn check_depth(&self) -> DbResult<()> {
        if self.depth() > MAX_EXPR_DEPTH {
            return Err(DbError::XPathSyntax(parser::depth_limit_message()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collection::Collection;

    fn sample_collection() -> Collection {
        let mut c = Collection::new("dblp", None);
        c.insert_xml(
            "<inproceedings key=\"1\"><author>Jeffrey D. Ullman</author>\
             <title>Principles of DB Systems</title><year>1988</year>\
             <booktitle>SIGMOD Conference</booktitle></inproceedings>",
        )
        .unwrap();
        c.insert_xml(
            "<inproceedings key=\"2\"><author>Serge Abiteboul</author>\
             <author>Victor Vianu</author>\
             <title>Queries and Computation on the Web</title><year>1997</year>\
             <booktitle>ICDT</booktitle></inproceedings>",
        )
        .unwrap();
        c.insert_xml(
            "<article><author>E. F. Codd</author>\
             <title>A Relational Model of Data</title><year>1970</year>\
             <journal>CACM</journal></article>",
        )
        .unwrap();
        c
    }

    fn eval(c: &Collection, q: &str) -> Vec<NodeRef> {
        XPath::parse(q).unwrap().eval_collection(c)
    }

    #[test]
    fn descendant_tag_query() {
        let c = sample_collection();
        assert_eq!(eval(&c, "//author").len(), 4);
        assert_eq!(eval(&c, "//inproceedings").len(), 2);
        assert_eq!(eval(&c, "//nonexistent").len(), 0);
    }

    #[test]
    fn child_axis_from_root() {
        let c = sample_collection();
        // root elements ARE inproceedings/article, so /inproceedings matches roots
        assert_eq!(eval(&c, "/inproceedings").len(), 2);
        assert_eq!(eval(&c, "/inproceedings/author").len(), 3);
        assert_eq!(eval(&c, "/article/journal").len(), 1);
    }

    #[test]
    fn equality_predicate() {
        let c = sample_collection();
        assert_eq!(eval(&c, "//inproceedings[author='Serge Abiteboul']").len(), 1);
        assert_eq!(eval(&c, "//inproceedings[author='Nobody']").len(), 0);
        assert_eq!(eval(&c, "//inproceedings[year='1988']").len(), 1);
    }

    #[test]
    fn contains_predicate() {
        let c = sample_collection();
        assert_eq!(eval(&c, "//inproceedings[contains(author,'Ullman')]").len(), 1);
        assert_eq!(eval(&c, "//inproceedings[contains(title,'Web')]").len(), 1);
        // doc1 (Jeffrey) and doc2 (Serge); "E. F. Codd" has no lowercase e
        assert_eq!(eval(&c, "//*[contains(author,'e')]").len(), 2);
    }

    #[test]
    fn boolean_connectives() {
        let c = sample_collection();
        assert_eq!(
            eval(&c, "//inproceedings[author='Serge Abiteboul' and year='1997']").len(),
            1
        );
        assert_eq!(
            eval(
                &c,
                "//inproceedings[author='Jeffrey D. Ullman' or author='Serge Abiteboul']"
            )
            .len(),
            2
        );
        assert_eq!(eval(&c, "//inproceedings[not(year='1988')]").len(), 1);
    }

    #[test]
    fn attribute_predicate() {
        let c = sample_collection();
        assert_eq!(eval(&c, "//inproceedings[@key='1']").len(), 1);
        assert_eq!(eval(&c, "//inproceedings[@key!='1']").len(), 1);
        assert_eq!(eval(&c, "//article[@key='1']").len(), 0);
    }

    #[test]
    fn text_predicate_and_existence() {
        let c = sample_collection();
        assert_eq!(eval(&c, "//year[text()='1970']").len(), 1);
        assert_eq!(eval(&c, "//inproceedings[booktitle]").len(), 2);
        assert_eq!(eval(&c, "//inproceedings[journal]").len(), 0);
    }

    #[test]
    fn positional_predicate() {
        let c = sample_collection();
        // second author of the two-author paper
        let refs = eval(&c, "/inproceedings/author[2]");
        assert_eq!(refs.len(), 1);
    }

    #[test]
    fn union_of_paths() {
        let c = sample_collection();
        assert_eq!(eval(&c, "//booktitle | //journal").len(), 3);
    }

    #[test]
    fn wildcard_step() {
        let c = sample_collection();
        // all children of roots: 4 + 5 + 4 across the three documents
        let n = eval(&c, "/*/*").len();
        assert_eq!(n, 13);
    }

    #[test]
    fn nested_relpath_predicate() {
        let c = sample_collection();
        assert_eq!(eval(&c, "//inproceedings[.//author='Victor Vianu']").len(), 1);
    }

    #[test]
    fn document_order_of_results() {
        let c = sample_collection();
        let refs = eval(&c, "//author");
        let mut sorted = refs.clone();
        sorted.sort();
        assert_eq!(refs, sorted);
    }

    /// A 200 000-operand `and` chain and `or` chain parse, evaluate and
    /// drop on a 2 MB thread, the stack size of pool workers and
    /// connection threads.
    #[test]
    fn long_and_or_chains_run_on_a_small_stack() {
        const OPERANDS: usize = 200_000;
        let run = || {
            let c = sample_collection();
            // true only for the Abiteboul–Vianu paper
            let and = ["author='Serge Abiteboul'", "author='Victor Vianu'"]
                .repeat(OPERANDS / 2)
                .join(" and ");
            let docs = |q: String| eval(&c, &q).iter().map(|h| h.doc.0).collect::<Vec<_>>();
            assert_eq!(docs(format!("//inproceedings[{and}]")), [1]);
            // only the last operand holds, and only for Ullman's paper
            let mut or: Vec<String> = (1..OPERANDS).map(|i| format!("year='y{i}'")).collect();
            or.push("author='Jeffrey D. Ullman'".into());
            assert_eq!(docs(format!("//inproceedings[{}]", or.join(" or "))), [0]);
        };
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(run)
            .unwrap()
            .join()
            .unwrap();
    }

    fn rel(name: &str, predicates: Vec<Expr>) -> RelPath {
        RelPath {
            from_descendants: false,
            steps: vec![Step {
                axis: Axis::Child,
                test: NameTest::Name(name.into()),
                predicates,
            }],
        }
    }

    /// `//r[…]` around `a='v'`, `levels` wrappers deep, cycling through
    /// a predicated step, `not(…)` and an `or` chain.
    fn nested(levels: usize) -> XPath {
        let leaf = |n: &str| Expr::Eq(ValueExpr::Rel(rel(n, vec![])), "v".into());
        let mut e = leaf("a");
        for i in 0..levels {
            e = match i % 3 {
                0 => Expr::Exists(rel("b", vec![e])),
                1 => Expr::Not(Box::new(e)),
                _ => Expr::any(vec![leaf("c"), e, leaf("d")]),
            };
        }
        XPath {
            paths: vec![Path {
                steps: vec![Step {
                    axis: Axis::Descendant,
                    test: NameTest::Name("r".into()),
                    predicates: vec![e],
                }],
            }],
        }
    }

    /// A tree built without the parser passes `check_depth` exactly when
    /// its rendering parses, and then parses back to itself.
    #[test]
    fn check_depth_refuses_exactly_what_the_parser_refuses() {
        let mut refused = 0;
        for levels in 0..150 {
            let x = nested(levels);
            match XPath::parse(&x.to_string()) {
                Ok(parsed) => {
                    assert_eq!(parsed, x, "at {levels} levels");
                    x.check_depth().unwrap();
                }
                Err(e) => {
                    refused += 1;
                    assert!(e.to_string().contains("depth limit"), "{e}");
                    let e = x.check_depth().unwrap_err();
                    assert!(e.to_string().contains("depth limit"), "{e}");
                }
            }
        }
        assert!(refused > 0, "the limit lies inside the tested range");
    }

    #[test]
    fn descendant_in_middle_of_path() {
        let mut c = Collection::new("x", None);
        c.insert_xml("<a><b><c><d>1</d></c></b></a>").unwrap();
        assert_eq!(eval(&c, "/a//d").len(), 1);
        assert_eq!(eval(&c, "/a//c/d").len(), 1);
        assert_eq!(eval(&c, "/a/d").len(), 0);
    }
}
