//! EXPLAIN trees: reassemble flat span records into rendered trees.
//!
//! The CLI's `query --explain` drives this: run the query with a
//! [`crate::sink::MemorySink`] installed, then build a [`QueryTrace`]
//! from the collected records and print it. Records are grouped by
//! thread (span nesting is per-thread, so cross-thread records can never
//! be parent/child) and nested by parent id; roots are spans whose
//! parent is absent from the record set.

use crate::span::SpanRecord;

/// One node of an EXPLAIN tree.
#[derive(Debug, Clone)]
pub struct TraceNode {
    /// The finished span.
    pub record: SpanRecord,
    /// Child spans, in start order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Depth-first search for the first node named `name`.
    pub fn find(&self, name: &str) -> Option<&TraceNode> {
        if self.record.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// A forest of span trees reassembled from records.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Root spans, in start order.
    pub roots: Vec<TraceNode>,
}

impl QueryTrace {
    /// Build from one thread's records only.
    pub fn for_thread(records: &[SpanRecord], thread: u64) -> QueryTrace {
        use std::collections::HashMap;
        let kept: Vec<&SpanRecord> = records.iter().filter(|r| r.thread == thread).collect();
        let ids: std::collections::HashSet<u64> = kept.iter().map(|r| r.id).collect();
        // children listed per parent, then assembled bottom-up by id
        let mut children_of: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for r in &kept {
            match r.parent.filter(|p| ids.contains(p)) {
                Some(p) => children_of.entry(p).or_default().push(r),
                None => roots.push(r),
            }
        }
        fn assemble(
            r: &SpanRecord,
            children_of: &std::collections::HashMap<u64, Vec<&SpanRecord>>,
        ) -> TraceNode {
            let mut children: Vec<TraceNode> = children_of
                .get(&r.id)
                .map(|cs| cs.iter().map(|c| assemble(c, children_of)).collect())
                .unwrap_or_default();
            children.sort_by_key(|c| c.record.start_ns);
            TraceNode {
                record: r.clone(),
                children,
            }
        }
        let mut root_nodes: Vec<TraceNode> =
            roots.into_iter().map(|r| assemble(r, &children_of)).collect();
        root_nodes.sort_by_key(|n| n.record.start_ns);
        QueryTrace { roots: root_nodes }
    }

    /// Render as an indented tree:
    ///
    /// ```text
    /// toss.query.select  1.23ms  results=2
    /// ├─ toss.query.rewrite  411µs  expansion_terms=5 xpath_len=64
    /// ├─ toss.query.execute  550µs  plan=index-probe matches=2
    /// │  ├─ toss.query.execute.plan  12µs
    /// │  ├─ toss.query.execute.probe  96µs
    /// │  └─ toss.query.execute.residual  430µs
    /// │     └─ xmldb.xpath.eval  421µs  docs_scanned=3 docs_matched=2
    /// └─ toss.query.convert  270µs  witnesses=2
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            render_node(root, "", "", &mut out);
        }
        out
    }
}

fn render_node(node: &TraceNode, lead: &str, child_lead: &str, out: &mut String) {
    out.push_str(lead);
    out.push_str(node.record.name);
    out.push_str("  ");
    out.push_str(&crate::fmt_duration(node.record.duration));
    for (k, v) in &node.record.fields {
        out.push_str(&format!("  {k}={v}"));
    }
    out.push('\n');
    let n = node.children.len();
    for (i, child) in node.children.iter().enumerate() {
        let last = i + 1 == n;
        let branch = if last { "└─ " } else { "├─ " };
        let cont = if last { "   " } else { "│  " };
        render_node(
            child,
            &format!("{child_lead}{branch}"),
            &format!("{child_lead}{cont}"),
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FieldValue;
    use std::time::Duration;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, thread: u64, start: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread,
            start_ns: start,
            duration: Duration::from_micros(10 * id),
            fields: if name.ends_with("rewrite") {
                vec![("expansion_terms", FieldValue::Uint(5))]
            } else {
                Vec::new()
            },
        }
    }

    #[test]
    fn builds_nested_tree_in_start_order() {
        let records = vec![
            rec(2, Some(1), "toss.query.rewrite", 1, 10),
            rec(3, Some(1), "toss.query.execute", 1, 20),
            rec(4, Some(1), "toss.query.convert", 1, 30),
            rec(1, None, "toss.query.select", 1, 0),
        ];
        let t = QueryTrace::for_thread(&records, 1);
        assert_eq!(t.roots.len(), 1);
        let names: Vec<&str> = t.roots[0].children.iter().map(|c| c.record.name).collect();
        assert_eq!(
            names,
            vec!["toss.query.rewrite", "toss.query.execute", "toss.query.convert"]
        );
        assert!(t.roots[0].find("toss.query.execute").is_some());
        assert!(t.roots[0].find("nope").is_none());
    }

    #[test]
    fn threads_are_separated() {
        let records = vec![
            rec(1, None, "toss.query.select", 1, 0),
            rec(2, Some(1), "toss.query.rewrite", 1, 1),
            rec(3, None, "toss.query.select", 2, 0),
            rec(4, Some(3), "toss.query.rewrite", 2, 1),
        ];
        let t1 = QueryTrace::for_thread(&records, 1);
        assert_eq!(t1.roots.len(), 1);
        assert_eq!(t1.roots[0].record.id, 1);
        assert_eq!(t1.roots[0].children.len(), 1);
    }

    #[test]
    fn orphan_parent_becomes_root() {
        // parent id outside the record set (e.g. filtered away)
        let records = vec![rec(2, Some(99), "toss.query.rewrite", 1, 0)];
        let t = QueryTrace::for_thread(&records, 1);
        assert_eq!(t.roots.len(), 1);
    }

    #[test]
    fn render_shows_tree_and_fields() {
        let records = vec![
            rec(1, None, "toss.query.select", 1, 0),
            rec(2, Some(1), "toss.query.rewrite", 1, 1),
            rec(3, Some(1), "toss.query.execute", 1, 2),
        ];
        let text = QueryTrace::for_thread(&records, 1).render();
        assert!(text.starts_with("toss.query.select  10.0µs"), "{text}");
        assert!(text.contains("├─ toss.query.rewrite"));
        assert!(text.contains("expansion_terms=5"));
        assert!(text.contains("└─ toss.query.execute"));
    }
}
