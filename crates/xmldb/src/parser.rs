//! A hand-written XML parser producing `toss_tree::Tree` values.
//!
//! Supports the XML subset needed for bibliographic corpora (and then
//! some): elements with attributes, text content, CDATA sections,
//! comments, processing instructions, an XML declaration, DOCTYPE
//! (skipped), the five predefined entities and decimal/hex character
//! references. Namespaces are treated lexically (prefixes stay part of the
//! tag name), which matches how Xindice-era tools handled them.
//!
//! An element's text runs and CDATA sections are joined and trimmed of
//! XML whitespace (space, tab, CR, LF) at both ends; any other character,
//! a no-break space included, is content. Text that is empty after the
//! trim is dropped; what remains is stored on the element's `content`
//! attribute as an `int` or `real` when it is a number written in
//! canonical form, else as a string ([`Value::parse_lexical`]), so
//! serializing the tree gives the text back.
//!
//! One grammar runs into one of two sinks. A [`Tree`] builds the
//! document: the tree is all that parse allocates — one `String` per
//! tag, attribute name, attribute value and stored text, one attribute
//! list per element that has attributes (sized by counting its quoted
//! values first), and for [`parse_document`] one arena sized by counting
//! the start tags. [`measure_stored`] builds nothing: it runs the
//! serializer's compact forms over the same events into a writer that
//! counts the bytes and compares them with the input, so it returns the
//! tree's compact size and whether the input already is that rendering,
//! with exactly the errors the tree's parse would return. Text that
//! needs decoding or joining is built in one buffer that every element
//! of the parse shares.
//!
//! New XML ([`parse_document`], [`parse_forest`]) may nest elements at
//! most [`MAX_DEPTH`] levels; a document the store already holds is read
//! back without that limit ([`parse_stored`], [`measure_stored`]).

use crate::error::{DbError, DbResult};
use std::fmt;
use toss_tree::serialize;
use toss_tree::{Forest, NodeData, NodeId, Tree, Value};

/// Deepest element nesting a document may have (the root is level 1).
/// The parser, the serializer, tree equality, fingerprints and grafting
/// all recurse once per level, and a server parses inserts on threads
/// with std's default 2 MiB stack, so deeper input is a parse error
/// rather than a stack overflow that aborts the process.
pub(crate) const MAX_DEPTH: usize = 256;

/// Parse a single XML document into a tree.
///
/// Errors if the input contains no element, more than one top-level
/// element, elements nested deeper than 256 levels, or malformed markup.
pub fn parse_document(input: &str) -> DbResult<Tree> {
    parse_one(input, MAX_DEPTH)
}

/// Parse a sequence of XML documents (e.g. a file of concatenated records)
/// into a forest, one tree per top-level element, each nested at most
/// 256 levels.
pub fn parse_forest(input: &str) -> DbResult<Forest> {
    let mut p = Parser::new(input, MAX_DEPTH, String::new());
    let mut forest = Forest::new();
    while p.at_root()? {
        let mut tree = Tree::new();
        p.element(&mut tree, None, 1)?;
        forest.push(tree);
    }
    Ok(forest)
}

/// Parse a document the store has already accepted (a snapshot entry or
/// a journal record) without the depth limit: a store written before
/// the limit existed may hold deeper documents, and it must still open.
pub(crate) fn parse_stored(input: &str) -> DbResult<Tree> {
    parse_one(input, usize::MAX)
}

fn parse_one(input: &str, max_depth: usize) -> DbResult<Tree> {
    let mut tree = Tree::with_capacity(start_tags(input.as_bytes()));
    Parser::new(input, max_depth, String::new()).one_root(&mut tree)?;
    Ok(tree)
}

/// What [`measure_stored`] finds out about a document without building
/// its tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measured {
    /// The byte length of the tree's compact XML: what a collection's
    /// size limit is measured in.
    pub size: usize,
    /// Whether the input is, byte for byte, the tree's compact XML.
    pub canonical: bool,
}

/// Run a stored document through the grammar that reads it back (no
/// depth limit) without building its tree: its compact size and whether
/// it is canonical, or the error parsing it would return. `buf` is the
/// parse's decoding buffer, kept warm across calls; once it has grown,
/// a measure allocates nothing.
pub fn measure_stored(input: &str, buf: &mut String) -> DbResult<Measured> {
    measure(input, usize::MAX, buf)
}

/// [`measure_stored`] with a depth limit: `usize::MAX` for none.
pub(crate) fn measure(input: &str, max_depth: usize, buf: &mut String) -> DbResult<Measured> {
    let mut p = Parser::new(input, max_depth, std::mem::take(buf));
    let mut m = Measure::new(input);
    let parsed = p.one_root(&mut m);
    *buf = p.buf;
    parsed?;
    Ok(Measured {
        size: m.len,
        canonical: m.canonical && m.at == input.len(),
    })
}

/// How many `<` open an element: the node count of well-formed input
/// whose comments, CDATA sections and PIs hold no `<` followed by a name.
fn start_tags(bytes: &[u8]) -> usize {
    bytes
        .windows(2)
        .filter(|w| w[0] == b'<' && !matches!(w[1], b'/' | b'!' | b'?'))
        .count()
}

/// The quoted values in `bytes` up to the end of the start tag they
/// begin in: its attribute count when it is well formed.
fn quoted_values(bytes: &[u8]) -> usize {
    let mut n = 0;
    let mut quote = None;
    for &b in bytes {
        match (quote, b) {
            (Some(q), _) if b == q => {
                quote = None;
                n += 1;
            }
            (Some(_), _) => {}
            (None, b'"' | b'\'') => quote = Some(b),
            (None, b'>' | b'<') => break,
            (None, _) => {}
        }
    }
    n
}

fn err(offset: usize, message: impl Into<String>) -> DbError {
    DbError::Parse {
        offset,
        message: message.into(),
    }
}

/// XML whitespace, the only characters text is trimmed of.
fn is_xml_space(c: char) -> bool {
    matches!(c, ' ' | '\t' | '\r' | '\n')
}

/// What a parse builds. The parser reports each element to its sink, so
/// every sink sees one grammar with one set of errors.
trait Sink<'a> {
    /// The sink's state for one open element.
    type Node;
    /// An element named `tag`, whose `<` is at input offset `at`, starts
    /// under `parent`, or as a root.
    fn open(
        &mut self,
        parent: Option<&mut Self::Node>,
        tag: &'a str,
        at: usize,
    ) -> DbResult<Self::Node>;
    /// One attribute of the start tag, its value decoded. `count` counts
    /// the start tag's attributes (exactly, when it is well formed).
    fn attr(
        &mut self,
        node: &mut Self::Node,
        name: &'a str,
        value: &str,
        count: impl FnOnce() -> usize,
    ) -> DbResult<()>;
    /// The start tag ended with the `>` at input offset `gt`, not `/>`.
    fn body(&mut self, node: &mut Self::Node, gt: usize);
    /// The element ends, with its joined and trimmed text unless that is
    /// empty.
    fn close(&mut self, node: Self::Node, content: Option<&str>) -> DbResult<()>;
}

/// Builds the document.
impl<'a> Sink<'a> for Tree {
    type Node = NodeId;

    fn open(&mut self, parent: Option<&mut NodeId>, tag: &'a str, _at: usize) -> DbResult<NodeId> {
        let data = NodeData {
            tag: tag.to_owned(),
            content: None,
            attrs: Vec::new(),
        };
        Ok(match parent {
            Some(p) => self.add_child(*p, data)?,
            None => self.set_root(data)?,
        })
    }

    fn attr(
        &mut self,
        node: &mut NodeId,
        name: &'a str,
        value: &str,
        count: impl FnOnce() -> usize,
    ) -> DbResult<()> {
        let attrs = &mut self.data_mut(*node)?.attrs;
        if attrs.capacity() == 0 {
            attrs.reserve_exact(count());
        }
        attrs.push((name.to_owned(), value.to_owned()));
        Ok(())
    }

    fn body(&mut self, _node: &mut NodeId, _gt: usize) {}

    fn close(&mut self, node: NodeId, content: Option<&str>) -> DbResult<()> {
        if let Some(text) = content {
            self.data_mut(node)?.content = Some(Value::parse_lexical(text));
        }
        Ok(())
    }
}

/// Measures the document: its tree's compact rendering, written form by
/// form through the serializer's functions into this writer, which
/// counts the bytes and compares each one with the input byte at the
/// offset it would have if the input were that rendering.
///
/// Rendering order is parse order except for an element's text, which
/// the rendering puts before its children and the parse knows only at
/// the end tag. So the first child is compared from where it starts, and
/// the text, compared when the element closes, must end exactly there.
struct Measure<'a> {
    input: &'a [u8],
    /// Bytes rendered so far.
    len: usize,
    /// The input offset of the next rendered byte.
    at: usize,
    /// Whether every rendered byte so far matched the input.
    canonical: bool,
}

impl<'a> Measure<'a> {
    fn new(input: &'a str) -> Self {
        Measure {
            input: input.as_bytes(),
            len: 0,
            at: 0,
            canonical: true,
        }
    }
}

/// An open element as [`Measure`] sees it.
struct Element<'a> {
    tag: &'a str,
    /// The `>` ending the start tag, unless it ended `/>`.
    gt: Option<usize>,
    /// Where the first child element starts.
    first_child: Option<usize>,
}

impl fmt::Write for Measure<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.len += s.len();
        if self.canonical {
            let rest = self.input.get(self.at..).unwrap_or_default();
            self.canonical = rest.starts_with(s.as_bytes());
            self.at += s.len();
        }
        Ok(())
    }
}

impl<'a> Sink<'a> for Measure<'a> {
    type Node = Element<'a>;

    fn open(
        &mut self,
        parent: Option<&mut Element<'a>>,
        tag: &'a str,
        at: usize,
    ) -> DbResult<Element<'a>> {
        match parent {
            // the parent's text renders in front of it: checked at the
            // parent's end
            Some(p) if p.first_child.is_none() => {
                p.first_child = Some(at);
                self.at = at;
            }
            // a root starts the input, a later child where its sibling ends
            _ => self.canonical &= self.at == at,
        }
        let _ = serialize::open_tag(self, tag);
        Ok(Element {
            tag,
            gt: None,
            first_child: None,
        })
    }

    fn attr(
        &mut self,
        _node: &mut Element<'a>,
        name: &'a str,
        value: &str,
        _count: impl FnOnce() -> usize,
    ) -> DbResult<()> {
        let _ = serialize::attribute(self, name, value);
        Ok(())
    }

    fn body(&mut self, node: &mut Element<'a>, gt: usize) {
        // the rendering's `>` (or `/>`) goes right after the attributes
        self.canonical &= self.at == gt;
        node.gt = Some(gt);
    }

    fn close(&mut self, node: Element<'a>, content: Option<&str>) -> DbResult<()> {
        let empty = node.first_child.is_none() && content.is_none();
        let after_children = self.at;
        if let Some(gt) = node.gt {
            self.at = gt;
        }
        let _ = serialize::close_start_tag(self, empty);
        if !empty {
            if let Some(text) = content {
                let _ = serialize::text(self, text);
            }
            if let Some(first) = node.first_child {
                self.canonical &= self.at == first;
                self.at = after_children;
            }
            let _ = serialize::end_tag(self, node.tag);
        }
        Ok(())
    }
}

/// An element's text so far: nothing, one run that needs no decoding
/// (kept as a slice of the input), or everything from `mark` on in the
/// parser's shared buffer.
enum Text<'a> {
    Empty,
    Slice(&'a str),
    Joined { mark: usize },
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    max_depth: usize,
    /// Text being decoded or joined: each open element's from the mark
    /// it took, the innermost last.
    buf: String,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, max_depth: usize, mut buf: String) -> Self {
        buf.clear();
        Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            max_depth,
            buf,
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

    /// Skip what may stand between top-level elements; whether another
    /// one follows.
    fn at_root(&mut self) -> DbResult<bool> {
        self.skip_misc()?;
        Ok(!self.at_end())
    }

    /// The one top-level element of the input, into `sink`. Later roots
    /// are still parsed, so a malformed one fails with its own error and
    /// the count in the "expected one root" error is all of them.
    fn one_root<S: Sink<'a>>(&mut self, sink: &mut S) -> DbResult<()> {
        if !self.at_root()? {
            return Err(err(0, "no root element found"));
        }
        self.element(sink, None, 1)?;
        let mut roots = 1;
        while self.at_root()? {
            // parsed for its errors only
            self.element(&mut Measure::new(self.text), None, 1)?;
            roots += 1;
        }
        if roots > 1 {
            return Err(err(0, format!("expected one root element, found {roots}")));
        }
        Ok(())
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

    /// A name. It starts after an ASCII byte and ends at one (every
    /// non-ASCII byte is a name byte), so it is a whole `str` slice.
    fn name(&mut self) -> DbResult<&'a str> {
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
        Ok(&self.text[start..self.pos])
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

    /// A quoted attribute value: the slice between the quotes when it
    /// holds no reference, else its decoding on the end of the buffer.
    fn attr_value(&mut self) -> DbResult<Text<'a>> {
        let quote = self
            .peek()
            .filter(|&b| b == b'"' || b == b'\'')
            .ok_or_else(|| err(self.pos, "expected quoted attribute value"))?;
        self.pos += 1;
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let raw = &self.text[start..self.pos];
                self.pos += 1;
                if !raw.contains('&') {
                    return Ok(Text::Slice(raw));
                }
                let mark = self.buf.len();
                decode_entities(raw, start, &mut self.buf)?;
                return Ok(Text::Joined { mark });
            }
            if b == b'<' {
                return Err(err(self.pos, "`<` not allowed in attribute value"));
            }
            self.pos += 1;
        }
        Err(err(start, "unterminated attribute value"))
    }

    /// The string `text` holds.
    fn text_of(&self, text: &Text<'a>) -> &str {
        match *text {
            Text::Empty => "",
            Text::Slice(s) => s,
            Text::Joined { mark } => &self.buf[mark..],
        }
    }

    /// Give back the buffer space `text` took.
    fn release(&mut self, text: Text<'a>) {
        if let Text::Joined { mark } = text {
            self.buf.truncate(mark);
        }
    }

    /// Add one piece of an element's text: `raw` as written, decoded when
    /// `decode` (a text run) and taken literally otherwise (CDATA).
    fn add_text(
        &mut self,
        text: &mut Text<'a>,
        raw: &'a str,
        start: usize,
        decode: bool,
    ) -> DbResult<()> {
        let literal = !decode || !raw.contains('&');
        match text {
            // leading whitespace goes in the trim anyway
            Text::Empty if literal && raw.chars().all(is_xml_space) => return Ok(()),
            Text::Empty if literal => {
                *text = Text::Slice(raw);
                return Ok(());
            }
            Text::Empty => *text = Text::Joined { mark: self.buf.len() },
            Text::Slice(first) => {
                let mark = self.buf.len();
                self.buf.push_str(first);
                *text = Text::Joined { mark };
            }
            Text::Joined { .. } => {}
        }
        if literal {
            self.buf.push_str(raw);
            Ok(())
        } else {
            decode_entities(raw, start, &mut self.buf)
        }
    }

    /// Parse one element and its subtree into `sink`, under `parent` or
    /// as a root.
    fn element<S: Sink<'a>>(
        &mut self,
        sink: &mut S,
        parent: Option<&mut S::Node>,
        depth: usize,
    ) -> DbResult<()> {
        if depth > self.max_depth {
            return Err(err(
                self.pos,
                format!(
                    "element nesting depth {depth} exceeds the limit of {}",
                    self.max_depth
                ),
            ));
        }
        let at = self.pos;
        self.expect(b'<')?;
        let tag = self.name()?;
        let attrs = &self.bytes[self.pos..];
        let mut node = sink.open(parent, tag, at)?;
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') => break,
                Some(_) => {
                    let name = self.name()?;
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    sink.attr(&mut node, name, self.text_of(&value), || {
                        quoted_values(attrs)
                    })?;
                    self.release(value);
                }
                None => return Err(err(self.pos, "unterminated start tag")),
            }
        }

        if self.peek() == Some(b'/') {
            self.bump(1);
            self.expect(b'>')?;
            return sink.close(node, None); // empty element
        }
        sink.body(&mut node, self.pos);
        self.expect(b'>')?;

        // children / text until matching end tag
        let mut text = Text::Empty;
        loop {
            if self.at_end() {
                return Err(err(self.pos, format!("unterminated element <{tag}>")));
            }
            if self.starts_with("<!--") {
                self.skip_until("-->", "unterminated comment")?;
            } else if self.starts_with("<![CDATA[") {
                let start = self.pos + 9;
                self.skip_until("]]>", "unterminated CDATA section")?;
                self.add_text(&mut text, &self.text[start..self.pos - 3], start, false)?;
            } else if self.starts_with("<?") {
                self.skip_until("?>", "unterminated processing instruction")?;
            } else if self.starts_with("</") {
                self.bump(2);
                let end_tag = self.name()?;
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
                self.element(sink, Some(&mut node), depth + 1)?;
            } else {
                let start = self.pos;
                while let Some(b) = self.peek() {
                    if b == b'<' {
                        break;
                    }
                    self.pos += 1;
                }
                self.add_text(&mut text, &self.text[start..self.pos], start, true)?;
            }
        }

        let content = self.text_of(&text).trim_matches(is_xml_space);
        sink.close(node, (!content.is_empty()).then_some(content))?;
        self.release(text);
        Ok(())
    }
}

/// Append `raw` to `out` with the five predefined entities and numeric
/// character references decoded; `offset` is where `raw` starts in the
/// input, for errors.
fn decode_entities(raw: &str, offset: usize, out: &mut String) -> DbResult<()> {
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let at = offset + (raw.len() - rest.len()) + amp;
        let after = &rest[amp + 1..];
        let Some(semi) = after.find(';') else {
            return Err(err(at, "unterminated entity reference"));
        };
        let name = &after[..semi];
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
                    .ok_or_else(|| err(at, format!("bad character reference &{name};")))?
            }
            _ if name.starts_with('#') => name[1..]
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| err(at, format!("bad character reference &{name};")))?,
            _ => return Err(err(at, format!("unknown entity reference &{name};"))),
        };
        out.push(decoded);
        rest = &after[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
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

    /// Malformed inputs with the exact error each gets: the offset and
    /// message callers and stored error texts depend on.
    #[test]
    fn every_error_keeps_its_offset_and_message() {
        let deeper = nested(MAX_DEPTH + 1);
        let depth_message = format!(
            "element nesting depth {} exceeds the limit of {MAX_DEPTH}",
            MAX_DEPTH + 1
        );
        let cases: &[(&str, usize, &str)] = &[
            ("<a", 2, "unterminated start tag"),
            ("<a k=\"v\"", 8, "unterminated start tag"),
            ("<a k=\"v>", 6, "unterminated attribute value"),
            ("<a k='v", 6, "unterminated attribute value"),
            ("<a><!-- x</a>", 3, "unterminated comment"),
            ("<!-- x", 0, "unterminated comment"),
            ("<a><![CDATA[x</a>", 3, "unterminated CDATA section"),
            ("<a><?pi", 3, "unterminated processing instruction"),
            ("<!DOCTYPE [", 0, "unterminated DOCTYPE"),
            ("<a k=\"x<y\"/>", 7, "`<` not allowed in attribute value"),
            ("<a><b></a></b>", 9, "mismatched end tag: expected </b>, found </a>"),
            ("<a><b></b>", 10, "unterminated element <a>"),
            ("<a>&nbsp;</a>", 3, "unknown entity reference &nbsp;"),
            ("<a><b>&bogus;</b><c></d></a>", 6, "unknown entity reference &bogus;"),
            ("<a>&#xD800;</a>", 3, "bad character reference &#xD800;"),
            ("<a k=\"&#xZZ;\"/>", 6, "bad character reference &#xZZ;"),
            ("<a>&#99999999;</a>", 3, "bad character reference &#99999999;"),
            ("<a>x &amp y</a>", 5, "unterminated entity reference"),
            ("<a>\u{e9}&foo</a>", 5, "unterminated entity reference"),
            ("<a k=\"1\" k2=\"&amp\"/>", 13, "unterminated entity reference"),
            ("<a/><b/>", 0, "expected one root element, found 2"),
            ("<a/><b/><c/>", 0, "expected one root element, found 3"),
            ("<a/><b", 6, "unterminated start tag"),
            ("", 0, "no root element found"),
            ("   ", 0, "no root element found"),
            (&deeper, 3 * MAX_DEPTH, &depth_message),
            ("<a k\"v\"/>", 4, "expected `=`"),
            ("<a k=v/>", 5, "expected quoted attribute value"),
            ("<>", 1, "expected a name"),
            ("</a>", 1, "expected a name"),
            ("<a></ a>", 5, "expected a name"),
            ("x<a/>", 0, "expected `<`"),
            ("<a/>x", 4, "expected `<`"),
            ("<a/ >", 3, "expected `>`"),
            ("<a></a x>", 7, "expected `>`"),
            ("<a><!--x--></a><!-- y", 15, "unterminated comment"),
        ];
        assert_eq!(cases.len(), 36);
        let mut buf = String::new();
        for &(input, offset, message) in cases {
            let expected = DbError::Parse {
                offset,
                message: message.to_string(),
            };
            assert_eq!(parse_document(input).unwrap_err(), expected, "{input:?}");
            // the measuring sink runs the same grammar to the same error
            assert_eq!(
                measure(input, MAX_DEPTH, &mut buf).unwrap_err(),
                expected,
                "{input:?}"
            );
        }
    }

    /// Inputs that are their tree's compact XML, and inputs that parse to
    /// a tree whose compact XML differs: each measures to that XML's
    /// length, and is canonical exactly when it is that XML.
    #[test]
    fn measuring_gives_the_compact_length_and_whether_the_input_is_it() {
        let cases: &[(&str, bool)] = &[
            ("<a/>", true),
            (
                "<a k=\"v\" j=\"&lt;&amp;&quot;&apos;\"><b>1999</b><c/>x &amp; y</a>",
                false,
            ),
            (
                "<a k=\"v\" j=\"&lt;&amp;&quot;&apos;\">x &amp; y<b>1999</b><c/></a>",
                true,
            ),
            ("<a>hello<b>x</b><c>-0</c></a>", true),
            ("<a>\"it's\" &gt; é 😀</a>", true),
            ("<p><t>007</t><r>3.5</r><s>1.0</s></p>", true),
            ("<a></a>", false),
            ("<a><b></b></a>", false),
            ("<a />", false),
            ("<a k='v'/>", false),
            ("<a k=\"v\" />", false),
            ("<a  k=\"v\"/>", false),
            ("<a k = \"v\"/>", false),
            ("<a k=\"it's\"/>", false),
            ("<a k=\"&#65;\"/>", false),
            ("<a>&#65;</a>", false),
            ("<a>&quot;</a>", false),
            ("<a> x</a>", false),
            ("<a>x </a>", false),
            ("<a> </a>", false),
            ("<a>x<b/>y</a>", false),
            ("<a><b/>x</a>", false),
            ("<a><b/> <c/></a>", false),
            ("<a>x<!--c--><b/></a>", false),
            ("<a><!--c-->x</a>", false),
            ("<a>x<!--c--></a>", false),
            ("<a><![CDATA[x]]></a>", false),
            ("<a><?pi?>x</a>", false),
            ("<a>x</a >", false),
            (" <a/>", false),
            ("<a/>\n", false),
            ("<?xml version=\"1.0\"?><a/>", false),
            ("<a><b>x</b><b>x</b></a>", true),
            ("<a><b k=\"1\"><c>x</c></b>y</a>", false),
        ];
        let mut buf = String::new();
        for &(input, canonical) in cases {
            let tree = parse_document(input).unwrap();
            let xml = tree_to_xml(&tree, Style::Compact);
            assert_eq!(xml == input, canonical, "{input:?} renders as {xml:?}");
            let expected = Measured {
                size: xml.len(),
                canonical,
            };
            assert_eq!(
                measure(input, MAX_DEPTH, &mut buf),
                Ok(expected),
                "{input:?}"
            );
            assert_eq!(measure_stored(input, &mut buf), Ok(expected), "{input:?}");
        }
    }

    #[test]
    fn only_xml_whitespace_is_trimmed() {
        let content = |src: &str| {
            let t = parse_document(src).unwrap();
            t.data(t.root().unwrap()).unwrap().content.clone()
        };
        let s = |text: &str| Some(Value::Str(text.to_string()));
        assert_eq!(content("<a>x\u{a0}</a>"), s("x\u{a0}"));
        assert_eq!(content("<a>\u{2003}y</a>"), s("\u{2003}y"));
        assert_eq!(content("<a>\u{a0}</a>"), s("\u{a0}"));
        assert_eq!(content("<a> \t\r\n\u{a0}z\u{85} \n</a>"), s("\u{a0}z\u{85}"));
        assert_eq!(content("<a> \t\r\n </a>"), None);
        // references are decoded before the trim
        assert_eq!(content("<a>&#32;x&#160;</a>"), s("x\u{a0}"));
        assert_eq!(content("<a> <![CDATA[ 7 ]]> </a>"), Some(Value::Int(7)));
    }

    #[test]
    fn text_pieces_join_around_children_and_cdata() {
        let t = parse_document("<a>\n <b>x</b> one <![CDATA[<two>]]>&amp;<c/>\n</a>").unwrap();
        let r = t.root().unwrap();
        assert_eq!(t.data(r).unwrap().content_str(), "one <two>&");
        let b = t.child_by_tag(r, "b").unwrap();
        assert_eq!(t.data(b).unwrap().content_str(), "x");
        let t = parse_document("<a k=\"&lt;1\" j='2'><b k=\"&amp;\">&gt;</b></a>").unwrap();
        let d = t.data(t.root().unwrap()).unwrap();
        assert_eq!(d.attrs, vec![("k".into(), "<1".into()), ("j".into(), "2".into())]);
        assert_eq!(d.attrs.capacity(), 2);
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
