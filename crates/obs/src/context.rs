//! Per-request query-id context.
//!
//! A [`QueryId`] names one request end-to-end: the serving layer assigns
//! it at ingress, sets it as the thread's *current* query with
//! [`set_current_query`], and every span opened while the guard is live
//! is stamped with a `query_id` field — so a flight-recorder entry, a
//! slow-query-log line, and a `--trace-out` span tree for the same
//! request can all be joined on one identifier without threading a
//! parameter through every signature.
//!
//! The context is thread-local (like span nesting): threads `toss-pool`
//! spawns for a query's fan-out do not inherit it, while tasks the
//! request thread runs itself (the pool's worker 0) do. That is fine —
//! the per-phase spans that matter for attribution open on the request
//! thread.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// A process-unique identifier for one query/request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "q{}", self.0)
    }
}

static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

impl QueryId {
    /// Allocate the next process-unique id (monotonic, never reused).
    pub fn next() -> QueryId {
        QueryId(NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed))
    }
}

thread_local! {
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Make `id` the calling thread's current query for the lifetime of the
/// returned guard. Nests: the previous current query (if any) is
/// restored when the guard drops.
#[must_use = "dropping the guard immediately clears the current query"]
pub fn set_current_query(id: QueryId) -> QueryIdGuard {
    let prev = CURRENT.with(|c| c.replace(Some(id.0)));
    QueryIdGuard { prev }
}

/// The calling thread's current query id, if one is set.
pub(crate) fn current_query_id() -> Option<QueryId> {
    CURRENT.with(|c| c.get()).map(QueryId)
}

/// RAII guard from [`set_current_query`]; restores the previous current
/// query on drop.
pub struct QueryIdGuard {
    prev: Option<u64>,
}

impl Drop for QueryIdGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_monotonic() {
        let a = QueryId::next();
        let b = QueryId::next();
        assert!(b.0 > a.0);
        assert_eq!(format!("{a}"), format!("q{}", a.0));
    }

    #[test]
    fn guard_nests_and_restores() {
        assert_eq!(current_query_id(), None);
        let outer = QueryId::next();
        let g1 = set_current_query(outer);
        assert_eq!(current_query_id(), Some(outer));
        {
            let inner = QueryId::next();
            let _g2 = set_current_query(inner);
            assert_eq!(current_query_id(), Some(inner));
        }
        assert_eq!(current_query_id(), Some(outer));
        drop(g1);
        assert_eq!(current_query_id(), None);
    }

    #[test]
    fn context_is_thread_local() {
        let _g = set_current_query(QueryId::next());
        let other = std::thread::spawn(current_query_id).join().unwrap();
        assert_eq!(other, None);
    }

    #[test]
    fn spans_inherit_query_id() {
        let sink = std::sync::Arc::new(crate::sink::MemorySink::new());
        let _scope = crate::install_sink_scoped(sink.clone());
        let me = crate::current_thread_id();
        let id = QueryId::next();
        {
            let _g = set_current_query(id);
            let s = crate::span("test.ctx.tagged");
            let _ = s.finish();
        }
        {
            let s = crate::span("test.ctx.untagged");
            let _ = s.finish();
        }
        let recs: Vec<_> = sink
            .records()
            .into_iter()
            .filter(|r| r.thread == me)
            .collect();
        let tagged = recs.iter().find(|r| r.name == "test.ctx.tagged").unwrap();
        let untagged = recs.iter().find(|r| r.name == "test.ctx.untagged").unwrap();
        assert_eq!(
            tagged.field("query_id"),
            Some(&crate::FieldValue::Uint(id.0))
        );
        assert_eq!(untagged.field("query_id"), None);
    }
}
