//! XPath tokenizer.

use crate::error::{DbError, DbResult};

/// One lexical token.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// `/` — child axis separator.
    Slash,
    /// `//` — descendant-or-self axis separator.
    DoubleSlash,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `@`
    At,
    /// `*`
    Star,
    /// `|`
    Pipe,
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `,`
    Comma,
    /// `.` (self, only used as `.//` prefix in relative paths)
    Dot,
    /// A name (element tag, attribute name, or function keyword).
    Name(String),
    /// A quoted string literal (quotes stripped).
    Literal(String),
    /// An unsigned integer (positional predicate).
    Integer(usize),
}

/// Tokenize an XPath expression.
pub(crate) fn tokenize(input: &str) -> DbResult<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    out.push(Token::DoubleSlash);
                    i += 2;
                } else {
                    out.push(Token::Slash);
                    i += 1;
                }
            }
            b'[' => {
                out.push(Token::LBracket);
                i += 1;
            }
            b']' => {
                out.push(Token::RBracket);
                i += 1;
            }
            b'(' => {
                out.push(Token::LParen);
                i += 1;
            }
            b')' => {
                out.push(Token::RParen);
                i += 1;
            }
            b'@' => {
                out.push(Token::At);
                i += 1;
            }
            b'*' => {
                out.push(Token::Star);
                i += 1;
            }
            b'|' => {
                out.push(Token::Pipe);
                i += 1;
            }
            b',' => {
                out.push(Token::Comma);
                i += 1;
            }
            b'=' => {
                out.push(Token::Eq);
                i += 1;
            }
            b'!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    out.push(Token::Ne);
                    i += 2;
                } else {
                    return Err(DbError::XPathSyntax(format!(
                        "unexpected `!` at offset {i}"
                    )));
                }
            }
            b'.' => {
                out.push(Token::Dot);
                i += 1;
            }
            b'\'' | b'"' => {
                let quote = b;
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != quote {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(DbError::XPathSyntax(format!(
                        "unterminated string literal at offset {i}"
                    )));
                }
                let lit = std::str::from_utf8(&bytes[start..j])
                    .map_err(|_| DbError::XPathSyntax("literal is not valid UTF-8".into()))?;
                out.push(Token::Literal(lit.to_string()));
                i = j + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let n: usize = std::str::from_utf8(&bytes[start..i])
                    .map_err(|_| DbError::XPathSyntax("number is not valid UTF-8".into()))?
                    .parse()
                    .map_err(|_| DbError::XPathSyntax("integer overflow".into()))?;
                out.push(Token::Integer(n));
            }
            _ if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => {
                let start = i;
                while i < bytes.len() {
                    let c = bytes[i];
                    if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') || c >= 0x80
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let name = std::str::from_utf8(&bytes[start..i])
                    .map_err(|_| DbError::XPathSyntax("name is not valid UTF-8".into()))?;
                out.push(Token::Name(name.to_string()));
            }
            _ => {
                return Err(DbError::XPathSyntax(format!(
                    "unexpected byte `{}` at offset {i}",
                    char::from(b)
                )))
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_full_query() {
        let toks = tokenize("//inproceedings[author='J. Ullman' and @key!=\"x\"]").unwrap();
        assert_eq!(toks[0], Token::DoubleSlash);
        assert_eq!(toks[1], Token::Name("inproceedings".into()));
        assert_eq!(toks[2], Token::LBracket);
        assert_eq!(toks[3], Token::Name("author".into()));
        assert_eq!(toks[4], Token::Eq);
        assert_eq!(toks[5], Token::Literal("J. Ullman".into()));
        assert_eq!(toks[6], Token::Name("and".into()));
        assert_eq!(toks[7], Token::At);
        assert_eq!(toks[8], Token::Name("key".into()));
        assert_eq!(toks[9], Token::Ne);
        assert_eq!(toks[10], Token::Literal("x".into()));
        assert_eq!(toks[11], Token::RBracket);
    }

    #[test]
    fn slash_vs_double_slash() {
        assert_eq!(
            tokenize("/a//b").unwrap(),
            vec![
                Token::Slash,
                Token::Name("a".into()),
                Token::DoubleSlash,
                Token::Name("b".into())
            ]
        );
    }

    #[test]
    fn integers_and_stars() {
        assert_eq!(
            tokenize("/*[2]").unwrap(),
            vec![
                Token::Slash,
                Token::Star,
                Token::LBracket,
                Token::Integer(2),
                Token::RBracket
            ]
        );
    }

    #[test]
    fn names_with_dots_stay_one_token_after_letters() {
        // `text()` — name then parens
        let toks = tokenize("text()").unwrap();
        assert_eq!(
            toks,
            vec![Token::Name("text".into()), Token::LParen, Token::RParen]
        );
    }

    #[test]
    fn dot_doubleslash_prefix() {
        let toks = tokenize(".//a").unwrap();
        assert_eq!(
            toks,
            vec![Token::Dot, Token::DoubleSlash, Token::Name("a".into())]
        );
    }

    #[test]
    fn unterminated_literal_errors() {
        assert!(tokenize("//a[b='x]").is_err());
    }

    #[test]
    fn lone_bang_errors() {
        assert!(tokenize("//a[b ! 'x']").is_err());
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            tokenize("  //  a ").unwrap(),
            vec![Token::DoubleSlash, Token::Name("a".into())]
        );
    }
}
