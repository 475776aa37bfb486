//! XML serialization of trees.
//!
//! Produces XML that the `toss-xmldb` parser round-trips: element tags,
//! attributes, text content with the five standard entity escapes, and
//! optional pretty-printing. Content and children can coexist (mixed
//! content is emitted with text first, matching how the model stores it).

use crate::arena::NodeId;
use crate::forest::Forest;
use crate::tree::Tree;
use crate::value::Value;
use std::fmt;

/// Write `s` with the XML escapes: `& < >` always, and `" '` too inside
/// (double-quote delimited) attribute values. Unescaped runs go out as
/// one slice — the escaped bytes are ASCII, so every cut is a char
/// boundary.
fn write_escaped<W: fmt::Write>(out: &mut W, s: &str, attr: bool) -> fmt::Result {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            b'\'' if attr => "&apos;",
            _ => continue,
        };
        out.write_str(&s[start..i])?;
        out.write_str(entity)?;
        start = i + 1;
    }
    out.write_str(&s[start..])
}

/// Serialization style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// No insignificant whitespace — the form used for storage and hashing.
    Compact,
    /// Two-space indentation per depth level.
    Pretty,
}

/// `<tag`: a start tag up to its attributes.
pub fn open_tag<W: fmt::Write>(out: &mut W, tag: &str) -> fmt::Result {
    out.write_char('<')?;
    out.write_str(tag)
}

/// ` name="value"`: one attribute, its value escaped.
pub fn attribute<W: fmt::Write>(out: &mut W, name: &str, value: &str) -> fmt::Result {
    out.write_char(' ')?;
    out.write_str(name)?;
    out.write_str("=\"")?;
    write_escaped(out, value, true)?;
    out.write_char('"')
}

/// The end of a start tag: `/>` for an element with neither content nor
/// children, which then has no end tag, else `>`.
pub fn close_start_tag<W: fmt::Write>(out: &mut W, empty: bool) -> fmt::Result {
    out.write_str(if empty { "/>" } else { ">" })
}

/// Text content, escaped. A number's rendering has nothing to escape, so
/// this is also the form of content parsed from `s`: a number is stored
/// only when it renders as the text it was read from
/// ([`Value::parse_lexical`]).
pub fn text<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    write_escaped(out, s, false)
}

/// `</tag>`.
pub fn end_tag<W: fmt::Write>(out: &mut W, tag: &str) -> fmt::Result {
    out.write_str("</")?;
    out.write_str(tag)?;
    out.write_char('>')
}

/// The one serializer: [`write_xml`] runs it into a `String`,
/// [`compact_len`] into a byte counter, so the two cannot disagree. Its
/// forms ([`open_tag`], [`attribute`], [`close_start_tag`], [`text`],
/// [`end_tag`]) are public for writers that render a document from
/// something other than a tree.
fn write_node<W: fmt::Write>(
    t: &Tree,
    n: NodeId,
    style: Style,
    depth: usize,
    out: &mut W,
) -> fmt::Result {
    let Ok(d) = t.data(n) else { return Ok(()) };
    let pretty = style == Style::Pretty;
    if pretty {
        for _ in 0..depth {
            out.write_str("  ")?;
        }
    }
    open_tag(out, &d.tag)?;
    for (k, v) in &d.attrs {
        attribute(out, k, v)?;
    }
    let mut kids = t.children(n).peekable();
    let has_kids = kids.peek().is_some();
    let empty = !has_kids && d.content.is_none();
    close_start_tag(out, empty)?;
    if empty {
        if pretty {
            out.write_char('\n')?;
        }
        return Ok(());
    }
    match &d.content {
        Some(Value::Str(s)) => text(out, s)?,
        // digits, signs, `.`, `e`, `inf`, `NaN`: nothing to escape
        Some(v) => write!(out, "{v}")?,
        None => {}
    }
    if has_kids {
        if pretty {
            out.write_char('\n')?;
        }
        for k in kids {
            write_node(t, k, style, depth + 1, out)?;
        }
        if pretty {
            for _ in 0..depth {
                out.write_str("  ")?;
            }
        }
    }
    end_tag(out, &d.tag)?;
    if pretty {
        out.write_char('\n')?;
    }
    Ok(())
}

/// Append one tree's serialization to `out` — [`tree_to_xml`] without
/// the fresh `String`, for callers that serialize many trees through one
/// buffer.
pub fn write_xml(t: &Tree, style: Style, out: &mut String) {
    if let Some(r) = t.root() {
        // writing into a `String` cannot fail
        let _ = write_node(t, r, style, 0, out);
    }
}

/// Serialize one tree.
pub fn tree_to_xml(t: &Tree, style: Style) -> String {
    let mut out = String::new();
    write_xml(t, style, &mut out);
    out
}

/// Byte length of `tree_to_xml(t, Style::Compact)`, counted without
/// building the string: what a collection's size limit is measured in.
pub fn compact_len(t: &Tree) -> usize {
    struct Count(usize);
    impl fmt::Write for Count {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut n = Count(0);
    if let Some(r) = t.root() {
        let _ = write_node(t, r, Style::Compact, 0, &mut n);
    }
    n.0
}

/// Serialize a forest as a sequence of documents separated by newlines
/// (compact) or directly concatenated pretty blocks.
pub fn forest_to_xml(f: &Forest, style: Style) -> String {
    let mut out = String::new();
    for (i, t) in f.iter().enumerate() {
        if i > 0 && style == Style::Compact {
            out.push('\n');
        }
        write_xml(t, style, &mut out);
    }
    out
}

/// Approximate on-disk size of the forest in bytes (compact XML length).
/// Used by the scalability harness to report data sizes the way the paper
/// does (bytes of XML).
pub fn xml_size_bytes(f: &Forest) -> usize {
    f.iter().map(compact_len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    #[test]
    fn compact_leaf() {
        let t = TreeBuilder::new("a").leaf("b", "x").build();
        assert_eq!(tree_to_xml(&t, Style::Compact), "<a><b>x</b></a>");
    }

    #[test]
    fn empty_element_self_closes() {
        let t = TreeBuilder::new("a").empty("b").build();
        assert_eq!(tree_to_xml(&t, Style::Compact), "<a><b/></a>");
    }

    #[test]
    fn attributes_and_escaping() {
        let t = TreeBuilder::new("a")
            .attr("k", "x\"<&")
            .leaf("b", "1 < 2 & 3")
            .build();
        let xml = tree_to_xml(&t, Style::Compact);
        assert_eq!(
            xml,
            "<a k=\"x&quot;&lt;&amp;\"><b>1 &lt; 2 &amp; 3</b></a>"
        );
    }

    #[test]
    fn pretty_is_indented() {
        let t = TreeBuilder::new("a").open("b").leaf("c", "x").close().build();
        let xml = tree_to_xml(&t, Style::Pretty);
        assert!(xml.contains("\n  <b>"));
        assert!(xml.contains("\n    <c>"));
    }

    #[test]
    fn mixed_content_emits_text_then_children() {
        let t = TreeBuilder::new("a").content("hello").leaf("b", "x").build();
        assert_eq!(tree_to_xml(&t, Style::Compact), "<a>hello<b>x</b></a>");
    }

    #[test]
    fn forest_serialization_and_size() {
        let f = Forest::from_trees(vec![
            TreeBuilder::new("a").build(),
            TreeBuilder::new("b").build(),
        ]);
        assert_eq!(forest_to_xml(&f, Style::Compact), "<a/>\n<b/>");
        assert_eq!(xml_size_bytes(&f), 8);
    }

    /// A tree from a script of builder steps: `(step, text)` where step
    /// 0 opens a child, 1 closes, 2 adds a text leaf, 3 an empty element,
    /// 4 an attribute, 5 sets (mixed) content, 6/7 numeric leaves.
    fn scripted_tree(steps: &[(u8, String)]) -> crate::Tree {
        let mut b = TreeBuilder::new("r");
        for (i, (step, text)) in steps.iter().enumerate() {
            b = match step {
                0 => b.open(format!("e{i}")),
                1 => b.close(),
                2 => b.leaf("t", text.as_str()),
                3 => b.empty("z"),
                4 => b.attr(format!("a{i}"), text.as_str()),
                5 => b.content(text.as_str()),
                6 => b.leaf("n", text.len() as i64 - 3),
                _ => b.leaf("x", text.len() as f64 / 4.0),
            };
        }
        b.build()
    }

    proptest::proptest! {
        /// `compact_len` counts exactly the bytes `tree_to_xml` writes,
        /// escapes, multi-byte text and numeric content included.
        #[test]
        fn compact_len_is_the_compact_xml_length(
            steps in proptest::collection::vec(
                (0u8..8, "[a-c&<>\"' é漢😀\\\\]{0,6}"),
                0..24,
            ),
        ) {
            let t = scripted_tree(&steps);
            proptest::prop_assert_eq!(compact_len(&t), tree_to_xml(&t, Style::Compact).len());
        }
    }

    #[test]
    fn compact_len_counts_escapes_and_multibyte_text() {
        let t = TreeBuilder::new("a")
            .attr("k", "'\"&")
            .content("é<")
            .leaf("n", -7i64)
            .empty("e")
            .build();
        let xml = tree_to_xml(&t, Style::Compact);
        assert_eq!(xml, "<a k=\"&apos;&quot;&amp;\">é&lt;<n>-7</n><e/></a>");
        assert_eq!(compact_len(&t), xml.len());
    }
}
