//! A hand-written XML parser producing `toss_tree::Tree` values.
//!
//! Supports the XML subset needed for bibliographic corpora (and then
//! some): elements with attributes, text content, CDATA sections,
//! comments, processing instructions, an XML declaration, DOCTYPE
//! (skipped), the five predefined entities and decimal/hex character
//! references. Namespaces are treated lexically (prefixes stay part of the
//! tag name), which matches how Xindice-era tools handled them.
//!
//! Whitespace-only text between elements is dropped; significant text is
//! stored on the enclosing element's `content` attribute as an `int` or
//! `real` when it is a number written in canonical form, else as a string
//! ([`Value::parse_lexical`]), so serializing the tree gives the text back.
//!
//! New XML ([`parse_document`], [`parse_forest`]) may nest elements at
//! most [`MAX_DEPTH`] levels; a document the store already holds is read
//! back without that limit ([`parse_stored`]).

use crate::error::{DbError, DbResult};
use toss_tree::{Forest, NodeData, Tree, Value};

/// Deepest element nesting a document may have (the root is level 1).
/// The parser, the serializer, tree equality, fingerprints and grafting
/// all recurse once per level, and a server parses inserts on threads
/// with std's default 2 MiB stack, so deeper input is a parse error
/// rather than a stack overflow that aborts the process.
const MAX_DEPTH: usize = 256;

/// Parse a single XML document into a tree.
///
/// Errors if the input contains no element, more than one top-level
/// element, elements nested deeper than 256 levels, or malformed markup.
pub fn parse_document(input: &str) -> DbResult<Tree> {
    single(parse_with_limit(input, MAX_DEPTH)?)
}

/// Parse a sequence of XML documents (e.g. a file of concatenated records)
/// into a forest, one tree per top-level element, each nested at most
/// 256 levels.
pub fn parse_forest(input: &str) -> DbResult<Forest> {
    parse_with_limit(input, MAX_DEPTH)
}

/// Parse a document the store has already accepted (a snapshot entry or
/// a journal record) without the depth limit: a store written before
/// the limit existed may hold deeper documents, and it must still open.
pub(crate) fn parse_stored(input: &str) -> DbResult<Tree> {
    single(parse_with_limit(input, usize::MAX)?)
}

fn single(mut f: Forest) -> DbResult<Tree> {
    match f.len() {
        0 => Err(err(0, "no root element found")),
        1 => Ok(f.trees_mut().remove(0)),
        n => Err(err(0, format!("expected one root element, found {n}"))),
    }
}

fn parse_with_limit(input: &str, max_depth: usize) -> DbResult<Forest> {
    let mut p = Parser::new(input, max_depth);
    let mut forest = Forest::new();
    loop {
        p.skip_misc()?;
        if p.at_end() {
            break;
        }
        let tree = p.parse_element_tree()?;
        forest.push(tree);
    }
    Ok(forest)
}

fn err(offset: usize, message: impl Into<String>) -> DbError {
    DbError::Parse {
        offset,
        message: message.into(),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, max_depth: usize) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
            max_depth,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// Skip whitespace, comments, PIs, the XML declaration and DOCTYPE.
    fn skip_misc(&mut self) -> DbResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_until("-->", "unterminated comment")?;
            } else if self.starts_with("<?") {
                self.skip_until("?>", "unterminated processing instruction")?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_until(&mut self, end: &str, msg: &str) -> DbResult<()> {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            if self.starts_with(end) {
                self.bump(end.len());
                return Ok(());
            }
            self.pos += 1;
        }
        Err(err(start, msg))
    }

    /// DOCTYPE may contain a bracketed internal subset.
    fn skip_doctype(&mut self) -> DbResult<()> {
        let start = self.pos;
        let mut depth = 0usize;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(err(start, "unterminated DOCTYPE"))
    }

    fn parse_name(&mut self) -> DbResult<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric()
                || matches!(b, b'_' | b'-' | b'.' | b':')
                || b >= 0x80;
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(err(start, "expected a name"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map(str::to_string)
            .map_err(|_| err(start, "name is not valid UTF-8"))
    }

    fn expect(&mut self, b: u8) -> DbResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(err(
                self.pos,
                format!("expected `{}`", char::from(b)),
            ))
        }
    }

    fn parse_attr_value(&mut self) -> DbResult<String> {
        let quote = self
            .peek()
            .filter(|&b| b == b'"' || b == b'\'')
            .ok_or_else(|| err(self.pos, "expected quoted attribute value"))?;
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err(start, "attribute value is not valid UTF-8"))?;
                self.pos += 1;
                return decode_entities(raw, start);
            }
            if b == b'<' {
                return Err(err(self.pos, "`<` not allowed in attribute value"));
            }
            self.pos += 1;
        }
        Err(err(start, "unterminated attribute value"))
    }

    /// Parse one element and its subtree into a new [`Tree`].
    fn parse_element_tree(&mut self) -> DbResult<Tree> {
        let mut tree = Tree::new();
        let root = self.parse_element_into(&mut tree, None, 1)?;
        debug_assert_eq!(tree.root(), Some(root));
        Ok(tree)
    }

    fn parse_element_into(
        &mut self,
        tree: &mut Tree,
        parent: Option<toss_tree::NodeId>,
        depth: usize,
    ) -> DbResult<toss_tree::NodeId> {
        if depth > self.max_depth {
            return Err(err(
                self.pos,
                format!(
                    "element nesting depth {depth} exceeds the limit of {}",
                    self.max_depth
                ),
            ));
        }
        self.expect(b'<')?;
        let tag = self.parse_name()?;
        let mut data = NodeData::element(tag.clone());

        // attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                Some(_) => {
                    let name = self.parse_name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    data.attrs.push((name, value));
                }
                None => return Err(err(self.pos, "unterminated start tag")),
            }
        }

        let node = match parent {
            Some(p) => tree.add_child(p, data)?,
            None => tree.set_root(data)?,
        };

        if self.peek() == Some(b'/') {
            self.bump(1);
            self.expect(b'>')?;
            return Ok(node); // empty element
        }
        self.expect(b'>')?;

        // children / text until matching end tag
        let mut text = String::new();
        loop {
            if self.at_end() {
                return Err(err(self.pos, format!("unterminated element <{tag}>")));
            }
            if self.starts_with("<!--") {
                self.skip_until("-->", "unterminated comment")?;
            } else if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                self.skip_until("]]>", "unterminated CDATA section")?;
                let raw = std::str::from_utf8(&self.bytes[start..self.pos - 3])
                    .map_err(|_| err(start, "CDATA is not valid UTF-8"))?;
                text.push_str(raw);
            } else if self.starts_with("<?") {
                self.skip_until("?>", "unterminated processing instruction")?;
            } else if self.starts_with("</") {
                self.bump(2);
                let end_tag = self.parse_name()?;
                if end_tag != tag {
                    return Err(err(
                        self.pos,
                        format!("mismatched end tag: expected </{tag}>, found </{end_tag}>"),
                    ));
                }
                self.skip_ws();
                self.expect(b'>')?;
                break;
            } else if self.peek() == Some(b'<') {
                self.parse_element_into(tree, Some(node), depth + 1)?;
            } else {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| err(start, "text is not valid UTF-8"))?;
                text.push_str(&decode_entities(raw, start)?);
            }
        }

        let trimmed = text.trim();
        if !trimmed.is_empty() {
            tree.data_mut(node)?.content = Some(Value::parse_lexical(trimmed));
        }
        Ok(node)
    }
}

/// Decode the five predefined entities plus numeric character references.
fn decode_entities(raw: &str, offset: usize) -> DbResult<String> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((i, ch)) = chars.next() {
        if ch != '&' {
            out.push(ch);
            continue;
        }
        let rest = &raw[i + 1..];
        let Some(semi) = rest.find(';') else {
            return Err(err(offset + i, "unterminated entity reference"));
        };
        let name = &rest[..semi];
        let decoded = match name {
            "amp" => '&',
            "lt" => '<',
            "gt" => '>',
            "quot" => '"',
            "apos" => '\'',
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                u32::from_str_radix(&name[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| err(offset + i, format!("bad character reference &{name};")))?
            }
            _ if name.starts_with('#') => name[1..]
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| err(offset + i, format!("bad character reference &{name};")))?,
            _ => {
                return Err(err(
                    offset + i,
                    format!("unknown entity reference &{name};"),
                ))
            }
        };
        out.push(decoded);
        // advance the iterator past the entity
        for _ in 0..semi + 1 {
            chars.next();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use toss_tree::serialize::{tree_to_xml, Style};

    #[test]
    fn simple_document() {
        let t = parse_document("<a><b>hello</b></a>").unwrap();
        let r = t.root().unwrap();
        assert_eq!(t.data(r).unwrap().tag, "a");
        let b = t.child_by_tag(r, "b").unwrap();
        assert_eq!(t.data(b).unwrap().content_str(), "hello");
    }

    #[test]
    fn numeric_content_gets_int_type() {
        let t = parse_document("<y>1999</y>").unwrap();
        let r = t.root().unwrap();
        assert_eq!(t.data(r).unwrap().content, Some(Value::Int(1999)));
    }

    #[test]
    fn attributes_parse_with_both_quote_styles() {
        let t = parse_document(r#"<a k="v1" j='v2'/>"#).unwrap();
        let d = t.data(t.root().unwrap()).unwrap();
        assert_eq!(d.attr_value("k"), Some("v1"));
        assert_eq!(d.attr_value("j"), Some("v2"));
    }

    #[test]
    fn entities_decode_in_text_and_attrs() {
        let t = parse_document(r#"<a k="&lt;&amp;&quot;">a &amp; b &#65; &#x42;</a>"#).unwrap();
        let d = t.data(t.root().unwrap()).unwrap();
        assert_eq!(d.attr_value("k"), Some("<&\""));
        assert_eq!(d.content_str(), "a & b A B");
    }

    #[test]
    fn cdata_is_literal() {
        let t = parse_document("<a><![CDATA[1 < 2 & x]]></a>").unwrap();
        assert_eq!(t.data(t.root().unwrap()).unwrap().content_str(), "1 < 2 & x");
    }

    #[test]
    fn comments_pis_doctype_are_skipped() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE dblp [ <!ELEMENT dblp (x)> ]>
<!-- a comment -->
<dblp><!-- inner --><x>1</x><?pi data?></dblp>"#;
        let t = parse_document(src).unwrap();
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn mismatched_tags_error() {
        let e = parse_document("<a><b></a></b>").unwrap_err();
        assert!(matches!(e, DbError::Parse { .. }));
        assert!(e.to_string().contains("mismatched end tag"));
    }

    #[test]
    fn unterminated_element_errors() {
        assert!(parse_document("<a><b>").is_err());
        assert!(parse_document("<a").is_err());
    }

    #[test]
    fn multiple_roots_rejected_by_parse_document() {
        assert!(parse_document("<a/><b/>").is_err());
        let f = parse_forest("<a/><b/>").unwrap();
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn empty_input_gives_no_root_error() {
        assert!(parse_document("   ").is_err());
        assert_eq!(parse_forest("").unwrap().len(), 0);
    }

    #[test]
    fn unknown_entity_is_an_error() {
        assert!(parse_document("<a>&nbsp;</a>").is_err());
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let t = parse_document("<a>\n  <b>x</b>\n</a>").unwrap();
        let r = t.root().unwrap();
        assert!(t.data(r).unwrap().content.is_none());
    }

    #[test]
    fn round_trip_with_serializer() {
        let sources = [
            "<article key=\"conf/sigmod/1\"><author>Dana Florescu</author><title>Storing &amp; Querying XML</title><year>1999</year></article>",
            // numeric-looking text that is not a canonical number stays text
            "<a><x>007</x><y>1.0</y><z>+5</z><w>1e3</w><v>-0</v></a>",
        ];
        for src in sources {
            let t = parse_document(src).unwrap();
            let xml = tree_to_xml(&t, Style::Compact);
            assert_eq!(xml, src);
            let t2 = parse_document(&xml).unwrap();
            assert!(toss_tree::eq::trees_equal(&t, &t2));
        }
    }

    /// `depth` nested `<a>` elements around one text leaf.
    fn nested(depth: usize) -> String {
        format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth))
    }

    #[test]
    fn nesting_at_the_cap_fits_a_default_thread_stack_and_deeper_is_refused() {
        // std's default spawned-thread stack, as a server's workers use
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let src = nested(MAX_DEPTH);
                let t = parse_document(&src).unwrap();
                assert_eq!(t.node_count(), MAX_DEPTH);
                let xml = tree_to_xml(&t, Style::Compact);
                assert_eq!(xml, src);
                assert_eq!(toss_tree::serialize::compact_len(&t), src.len());
                let copy = t.extract(t.root().unwrap()).unwrap();
                assert!(toss_tree::eq::trees_equal(&t, &copy));
                assert_eq!(
                    toss_tree::eq::fingerprint(&t),
                    toss_tree::eq::fingerprint(&copy)
                );

                let deeper = nested(MAX_DEPTH + 1);
                let e = parse_document(&deeper).unwrap_err();
                let DbError::Parse { offset, .. } = &e else {
                    panic!("expected a parse error, got {e}");
                };
                assert_eq!(*offset, 3 * MAX_DEPTH);
                assert!(
                    e.to_string().contains(&format!(
                        "depth {} exceeds the limit of {MAX_DEPTH}",
                        MAX_DEPTH + 1
                    )),
                    "{e}"
                );
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn deep_nesting_parses() {
        let mut src = String::new();
        for i in 0..200 {
            src.push_str(&format!("<n{i}>"));
        }
        for i in (0..200).rev() {
            src.push_str(&format!("</n{i}>"));
        }
        let t = parse_document(&src).unwrap();
        assert_eq!(t.node_count(), 200);
    }

    #[test]
    fn mixed_content_keeps_text_and_children() {
        let t = parse_document("<a>hello <b>x</b> world</a>").unwrap();
        let r = t.root().unwrap();
        assert_eq!(t.data(r).unwrap().content_str(), "hello  world");
        assert_eq!(t.children(r).count(), 1);
    }

    #[test]
    fn unicode_content_and_tags() {
        let t = parse_document("<a>Grüße an Łukasz</a>").unwrap();
        assert_eq!(
            t.data(t.root().unwrap()).unwrap().content_str(),
            "Grüße an Łukasz"
        );
    }
}
