//! Node payloads: the tag and content attributes of one object.

use crate::value::Value;

/// The data stored at one object of a semistructured instance.
///
/// Per Definition 1, an object `o` has two attributes: `o.tag` (the label of
/// the edge between `o` and its parent) and `o.content` (possibly empty for
/// interior elements). A content's type is its [`Value`] variant; type
/// hierarchies over unit types live in `toss-core`.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeData {
    /// The element tag, e.g. `author`, `inproceedings`.
    pub tag: String,
    /// Text content of the object, if any.
    pub content: Option<Value>,
    /// XML attributes (`name="value"` pairs), preserved in document order.
    /// TAX folds attributes into the tree model; we retain them so XML
    /// round-trips losslessly.
    pub attrs: Vec<(String, String)>,
}

impl NodeData {
    /// Create an element node with a tag and no content.
    pub fn element(tag: impl Into<String>) -> Self {
        NodeData {
            tag: tag.into(),
            content: None,
            attrs: Vec::new(),
        }
    }

    /// Create a node with a tag and content.
    pub fn with_content(tag: impl Into<String>, content: impl Into<Value>) -> Self {
        NodeData {
            tag: tag.into(),
            content: Some(content.into()),
            attrs: Vec::new(),
        }
    }

    /// Content rendered as a string ("" when absent).
    pub fn content_str(&self) -> String {
        self.content.as_ref().map(Value::render).unwrap_or_default()
    }

    /// Value of a named XML attribute.
    pub fn attr_value(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn element_has_no_content() {
        let n = NodeData::element("article");
        assert_eq!(n.tag, "article");
        assert!(n.content.is_none());
        assert_eq!(n.content_str(), "");
    }

    #[test]
    fn with_content_keeps_the_value() {
        let n = NodeData::with_content("year", 1999i64);
        assert_eq!(n.content, Some(Value::Int(1999)));
        let s = NodeData::with_content("author", "Paolo Ciancarini");
        assert_eq!(s.content, Some(Value::Str("Paolo Ciancarini".into())));
    }

    #[test]
    fn attrs_are_ordered_and_queryable() {
        let mut n = NodeData::element("article");
        n.attrs.push(("key".into(), "a/1".into()));
        n.attrs.push(("mdate".into(), "2004".into()));
        assert_eq!(n.attr_value("key"), Some("a/1"));
        assert_eq!(n.attr_value("mdate"), Some("2004"));
        assert_eq!(n.attr_value("missing"), None);
        assert_eq!(n.attrs[0].0, "key");
    }
}
