//! The span API: RAII timing, key/value fields, thread-local nesting.
//!
//! A span is opened with [`span`] and closed when its [`SpanGuard`] drops
//! (or explicitly via [`SpanGuard::finish`], which also returns the
//! measured duration). While open, a span is the *current* span of its
//! thread: spans opened beneath it become its children, and [`record`]
//! attaches fields to it from arbitrarily deep callees without threading
//! the guard through every signature.
//!
//! Nesting is tracked per thread (each thread has its own span stack),
//! so concurrent queries against a shared `Executor` produce disjoint,
//! well-formed trees — the consumer groups records by
//! [`SpanRecord::thread`].
//!
//! **Disabled-path cost.** When no sink is installed ([`tracing_enabled`]
//! is false), [`span`] reads one atomic and captures an `Instant`; no
//! span id is assigned, nothing is pushed on the stack, and nothing
//! allocates. The `Instant` is still captured so `finish()` can return
//! the duration instrumented code reports (e.g. `QueryOutcome`'s phase
//! times) whether or not tracing is on.

use crate::sink::dispatch;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Flipped by the sink registry: true iff at least one sink is installed.
pub(crate) static TRACING_ENABLED: AtomicBool = AtomicBool::new(false);

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: Cell<u64> = const { Cell::new(0) };
    static STACK: RefCell<Vec<ActiveSpan>> = const { RefCell::new(Vec::new()) };
}

/// Whether any sink is installed (spans are being collected).
pub fn tracing_enabled() -> bool {
    TRACING_ENABLED.load(Ordering::Relaxed)
}

/// A small, stable identifier for the calling thread (assigned on first
/// use; unrelated to the OS thread id). Span records carry it so trees
/// from concurrent queries can be separated.
pub fn current_thread_id() -> u64 {
    THREAD_ID.with(|c| {
        let mut id = c.get();
        if id == 0 {
            id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id
    })
}

/// A field value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer (counts, sizes).
    Uint(u64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Str(s) => write!(f, "{s}"),
            FieldValue::Int(i) => write!(f, "{i}"),
            FieldValue::Uint(u) => write!(f, "{u}"),
            FieldValue::Float(x) => write!(f, "{x}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for FieldValue {
    fn from(s: &str) -> Self {
        FieldValue::Str(s.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(s: String) -> Self {
        FieldValue::Str(s)
    }
}
impl From<i64> for FieldValue {
    fn from(i: i64) -> Self {
        FieldValue::Int(i)
    }
}
impl From<u64> for FieldValue {
    fn from(u: u64) -> Self {
        FieldValue::Uint(u)
    }
}
impl From<usize> for FieldValue {
    fn from(u: usize) -> Self {
        FieldValue::Uint(u as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(x: f64) -> Self {
        FieldValue::Float(x)
    }
}
impl From<bool> for FieldValue {
    fn from(b: bool) -> Self {
        FieldValue::Bool(b)
    }
}

/// A finished span, as delivered to sinks.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// The id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The span's dot-separated name (`toss.query.rewrite`, …).
    pub name: &'static str,
    /// The opening thread (see [`current_thread_id`]).
    pub thread: u64,
    /// Nanoseconds since the process's tracing epoch when the span
    /// opened (orders siblings; not wall-clock time).
    pub start_ns: u64,
    /// Wall time from open to close.
    pub duration: Duration,
    /// Fields recorded on the span, in recording order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

struct ActiveSpan {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Open a span. Close it by dropping the guard or calling
/// [`SpanGuard::finish`]. Names should follow the dot-separated scheme
/// in `docs/observability.md` and be string literals (they are kept as
/// `&'static str` so the disabled path never allocates).
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard {
            start: Instant::now(),
            id: None,
        };
    }
    let start_ns = epoch().elapsed().as_nanos() as u64;
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    // Stamp the current query id (set by the serving layer at ingress)
    // on every collected span so a request's tree is joinable with its
    // flight-recorder entry. Only paid on the enabled path.
    let query = crate::context::current_query_id();
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let parent = stack.last().map(|a| a.id);
        let mut fields = Vec::new();
        if let Some(q) = query {
            fields.push(("query_id", FieldValue::Uint(q.0)));
        }
        stack.push(ActiveSpan {
            id,
            parent,
            name,
            start_ns,
            fields,
        });
    });
    SpanGuard {
        start: Instant::now(),
        id: Some(id),
    }
}

/// Attach a field to the innermost open span of this thread (no-op when
/// tracing is off or no span is open). This is how deep callees — the
/// expander, the XPath evaluator — annotate the phase that called them.
pub fn record(key: &'static str, value: impl Into<FieldValue>) {
    if !tracing_enabled() {
        return;
    }
    // `value.into()` only runs on the enabled path, so disabled callers
    // pay nothing beyond the atomic load above.
    let value = value.into();
    STACK.with(|s| {
        if let Some(top) = s.borrow_mut().last_mut() {
            top.fields.push((key, value));
        }
    });
}

/// RAII handle for an open span. Dropping it closes the span; `finish`
/// closes it and returns the measured wall time.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    start: Instant,
    /// `Some(id)` iff the span was pushed on the thread-local stack.
    id: Option<u64>,
}

impl SpanGuard {
    /// Whether this span is actually being collected.
    pub fn is_recording(&self) -> bool {
        self.id.is_some()
    }

    /// Attach a field to *this* span (works even when it is no longer
    /// the innermost one, e.g. recording a result count computed after
    /// a child span closed).
    pub fn record(&self, key: &'static str, value: impl Into<FieldValue>) {
        let Some(id) = self.id else { return };
        let value = value.into();
        STACK.with(|s| {
            if let Some(active) = s.borrow_mut().iter_mut().rev().find(|a| a.id == id) {
                active.fields.push((key, value));
            }
        });
    }

    /// Close the span and return its wall time.
    pub fn finish(mut self) -> Duration {
        let elapsed = self.start.elapsed();
        self.close(elapsed);
        std::mem::forget(self);
        elapsed
    }

    fn close(&mut self, elapsed: Duration) {
        let Some(id) = self.id.take() else { return };
        let popped = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Well-formed RAII usage closes spans innermost-first, so the
            // span is the top of the stack. Guards moved across scopes can
            // close out of order; then everything above (children whose
            // guards leaked via mem::forget — not normal operation) is
            // discarded to keep the stack consistent.
            let pos = stack.iter().rposition(|a| a.id == id)?;
            stack.truncate(pos + 1);
            stack.pop()
        });
        if let Some(active) = popped {
            dispatch(&SpanRecord {
                id: active.id,
                parent: active.parent,
                name: active.name,
                thread: current_thread_id(),
                start_ns: active.start_ns,
                duration: elapsed,
                fields: active.fields,
            });
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        self.close(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;
    use std::sync::Arc;

    impl SpanRecord {
        /// Look up a recorded field by key (last write wins).
        pub(crate) fn field(&self, key: &str) -> Option<&FieldValue> {
            self.fields
                .iter()
                .rev()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v)
        }
    }

    #[test]
    fn disabled_spans_are_inert_but_still_time() {
        // no sink installed in this test → only if another test in this
        // process has one; guard on the flag, on both sides of the open
        // (a sink may come and go meanwhile), to stay hermetic.
        let before = tracing_enabled();
        let g = span("test.disabled");
        if !before && !tracing_enabled() {
            assert!(!g.is_recording());
        }
        let d = g.finish();
        assert!(d.as_nanos() > 0 || d.is_zero()); // returns a real duration
    }

    #[test]
    fn nesting_and_fields() {
        let sink = Arc::new(MemorySink::new());
        let _scope = crate::install_sink_scoped(sink.clone());
        let me = current_thread_id();
        {
            let root = span("test.root");
            root.record("k", 7u64);
            {
                let child = span("test.child");
                record("deep", "hello"); // attaches to the innermost = child
                drop(child);
            }
            let _ = root.finish();
        }
        let records: Vec<_> = sink
            .records()
            .into_iter()
            .filter(|r| r.thread == me)
            .collect();
        assert_eq!(records.len(), 2);
        let child = &records[0]; // children close first
        let root = &records[1];
        assert_eq!(child.name, "test.child");
        assert_eq!(root.name, "test.root");
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert_eq!(root.field("k"), Some(&FieldValue::Uint(7)));
        assert_eq!(child.field("deep"), Some(&FieldValue::Str("hello".into())));
        assert!(root.duration >= child.duration);
    }

    #[test]
    fn record_on_guard_after_child_closed() {
        let sink = Arc::new(MemorySink::new());
        let _scope = crate::install_sink_scoped(sink.clone());
        let me = current_thread_id();
        let root = span("test.late");
        {
            let _child = span("test.late.child");
        }
        root.record("late", true);
        drop(root);
        let root_rec = sink
            .records()
            .into_iter()
            .find(|r| r.thread == me && r.name == "test.late")
            .unwrap();
        assert_eq!(root_rec.field("late"), Some(&FieldValue::Bool(true)));
    }

    #[test]
    fn threads_get_distinct_ids() {
        let a = current_thread_id();
        let b = std::thread::spawn(current_thread_id).join().unwrap();
        assert_ne!(a, b);
        assert_eq!(a, current_thread_id());
    }
}
