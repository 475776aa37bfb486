//! Golden bytes of the serializations other crates and stored snapshots
//! depend on: `tree_to_xml` in both styles and `eq::fingerprint`, for one
//! tree built through the public API that exercises attributes, every
//! escaped character, `Int`/`Real`/`Str` content, mixed content and an
//! empty element.

use toss_tree::eq::fingerprint;
use toss_tree::serialize::{tree_to_xml, Style};
use toss_tree::{Tree, TreeBuilder};

fn sample() -> Tree {
    TreeBuilder::new("inproceedings")
        .attr("key", "conf/x&y/1")
        .attr("note", "a<b>c\"d'e")
        .leaf("author", "O'Neil & <Smith> \"Jr\"")
        .leaf("year", 2004i64)
        .leaf("price", 12.5f64)
        .leaf("delta", -7i64)
        .open("venue")
        .content("SIGMOD (2004) | x=y @ a\\b")
        .leaf("booktitle", "SIGMOD Conference")
        .empty("pages")
        .close()
        .empty("ee")
        .build()
}

#[test]
fn compact_xml_is_pinned() {
    assert_eq!(tree_to_xml(&sample(), Style::Compact), COMPACT);
}

#[test]
fn pretty_xml_is_pinned() {
    assert_eq!(tree_to_xml(&sample(), Style::Pretty), PRETTY);
}

#[test]
fn fingerprint_is_pinned() {
    assert_eq!(fingerprint(&sample()), FINGERPRINT);
}

const COMPACT: &str = concat!(
    r#"<inproceedings key="conf/x&amp;y/1" note="a&lt;b&gt;c&quot;d&apos;e">"#,
    r#"<author>O'Neil &amp; &lt;Smith&gt; "Jr"</author>"#,
    "<year>2004</year><price>12.5</price><delta>-7</delta>",
    r"<venue>SIGMOD (2004) | x=y @ a\b",
    "<booktitle>SIGMOD Conference</booktitle><pages/></venue>",
    "<ee/></inproceedings>",
);

const PRETTY: &str = concat!(
    r#"<inproceedings key="conf/x&amp;y/1" note="a&lt;b&gt;c&quot;d&apos;e">"#,
    "\n",
    r#"  <author>O'Neil &amp; &lt;Smith&gt; "Jr"</author>"#,
    "\n",
    "  <year>2004</year>\n",
    "  <price>12.5</price>\n",
    "  <delta>-7</delta>\n",
    r"  <venue>SIGMOD (2004) | x=y @ a\b",
    "\n",
    "    <booktitle>SIGMOD Conference</booktitle>\n",
    "    <pages/>\n",
    "  </venue>\n",
    "  <ee/>\n",
    "</inproceedings>\n",
);

const FINGERPRINT: &str = concat!(
    r#"(inproceedings|@key=conf/x&y/1@note=a<b>c"d'e"#,
    r#"(author|O'Neil & <Smith> "Jr")"#,
    "(year|2004)(price|12.5)(delta|-7)",
    r"(venue|SIGMOD \(2004\) \| x\=y \@ a\\b",
    "(booktitle|SIGMOD Conference)(pages|))",
    "(ee|))",
);
