//! Span sinks: where finished spans go.
//!
//! The default is **no sink** — tracing disabled, spans inert. Installing
//! a sink flips the global enabled flag; uninstalling the last one flips
//! it back. Multiple sinks may be active at once (e.g. an EXPLAIN
//! collector plus a `--trace-out` JSON-lines writer); each finished span
//! is delivered to all of them.

use crate::span::{SpanRecord, TRACING_ENABLED};
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// A consumer of finished spans. Implementations must be cheap and
/// non-blocking where possible: `on_span` runs on the traced thread.
pub trait TraceSink: Send + Sync {
    /// Called once per finished span.
    fn on_span(&self, record: &SpanRecord);
}

fn sinks() -> &'static RwLock<Vec<Arc<dyn TraceSink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn TraceSink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

fn lock_read() -> std::sync::RwLockReadGuard<'static, Vec<Arc<dyn TraceSink>>> {
    sinks().read().unwrap_or_else(|e| e.into_inner())
}

fn lock_write() -> std::sync::RwLockWriteGuard<'static, Vec<Arc<dyn TraceSink>>> {
    sinks().write().unwrap_or_else(|e| e.into_inner())
}

/// Install a sink process-wide. Tracing turns on with the first sink.
fn install_sink(sink: Arc<dyn TraceSink>) {
    let mut s = lock_write();
    s.push(sink);
    TRACING_ENABLED.store(true, Ordering::Relaxed);
}

/// Remove a previously installed sink (matched by identity). Tracing
/// turns off when the last sink goes.
fn uninstall_sink(sink: &Arc<dyn TraceSink>) {
    let mut s = lock_write();
    s.retain(|x| !Arc::ptr_eq(x, sink));
    if s.is_empty() {
        TRACING_ENABLED.store(false, Ordering::Relaxed);
    }
}

/// Install a sink for a lexical scope: the returned [`SinkScope`]
/// uninstalls it on drop. The test idiom:
///
/// ```
/// # use std::sync::Arc;
/// let sink = Arc::new(toss_obs::sink::MemorySink::new());
/// let _scope = toss_obs::install_sink_scoped(sink.clone());
/// // … traced work …
/// drop(_scope);
/// assert!(sink.records().len() < usize::MAX);
/// ```
pub fn install_sink_scoped(sink: Arc<dyn TraceSink>) -> SinkScope {
    install_sink(sink.clone());
    SinkScope { sink }
}

/// RAII guard that uninstalls its sink on drop.
pub struct SinkScope {
    sink: Arc<dyn TraceSink>,
}

impl Drop for SinkScope {
    fn drop(&mut self) {
        uninstall_sink(&self.sink);
    }
}

/// Deliver a finished span to every installed sink.
pub(crate) fn dispatch(record: &SpanRecord) {
    for sink in lock_read().iter() {
        sink.on_span(record);
    }
}

/// An in-memory collector: keeps every finished span for later
/// inspection (EXPLAIN trees, tests). Thread-safe.
#[derive(Default)]
pub struct MemorySink {
    records: Mutex<Vec<SpanRecord>>,
}

impl MemorySink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the collected records, in completion order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Number of collected records.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Take the collected records, leaving the sink empty.
    pub fn drain(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.records.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl TraceSink for MemorySink {
    fn on_span(&self, record: &SpanRecord) {
        self.records
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record.clone());
    }
}

/// Writes each finished span as one JSON object per line:
///
/// ```json
/// {"id":3,"parent":1,"name":"toss.query.execute","thread":1,
///  "start_ns":123,"dur_ns":4567,"fields":{"docs_scanned":3}}
/// ```
///
/// Lines are buffered by the underlying writer; dropping the sink
/// flushes them.
pub struct JsonLinesSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonLinesSink {
    /// Wrap any writer (a `File`, a `Vec<u8>` in tests, …).
    pub(crate) fn new(out: Box<dyn Write + Send>) -> Self {
        JsonLinesSink {
            out: Mutex::new(out),
        }
    }

    /// Create a sink appending to (or creating) the file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl TraceSink for JsonLinesSink {
    fn on_span(&self, record: &SpanRecord) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"id\":");
        line.push_str(&record.id.to_string());
        if let Some(p) = record.parent {
            line.push_str(",\"parent\":");
            line.push_str(&p.to_string());
        }
        line.push_str(",\"name\":");
        crate::push_json_str(&mut line, record.name);
        line.push_str(",\"thread\":");
        line.push_str(&record.thread.to_string());
        line.push_str(",\"start_ns\":");
        line.push_str(&record.start_ns.to_string());
        line.push_str(",\"dur_ns\":");
        line.push_str(&record.duration.as_nanos().to_string());
        line.push_str(",\"fields\":{");
        for (i, (k, v)) in record.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            crate::push_json_str(&mut line, k);
            line.push(':');
            match v {
                crate::FieldValue::Str(s) => crate::push_json_str(&mut line, s),
                crate::FieldValue::Int(i) => line.push_str(&i.to_string()),
                crate::FieldValue::Uint(u) => line.push_str(&u.to_string()),
                crate::FieldValue::Float(x) if x.is_finite() => line.push_str(&x.to_string()),
                crate::FieldValue::Float(_) => line.push_str("null"),
                crate::FieldValue::Bool(b) => line.push_str(&b.to_string()),
            }
        }
        line.push_str("}}\n");
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let _ = out.write_all(line.as_bytes());
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        let out = self.out.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = out.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn jsonlines_shape() {
        let rec = SpanRecord {
            id: 3,
            parent: Some(1),
            name: "toss.query.execute",
            thread: 1,
            start_ns: 123,
            duration: std::time::Duration::from_nanos(4567),
            fields: vec![
                ("docs_scanned", crate::FieldValue::Uint(3)),
                ("note", crate::FieldValue::Str("a\"b".into())),
            ],
        };
        // the sink owns its writer, so observe output through a shared Vec
        struct Shared(std::sync::Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let store = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = JsonLinesSink::new(Box::new(Shared(store.clone())));
        sink.on_span(&rec);
        let text = String::from_utf8(store.lock().unwrap().clone()).unwrap();
        assert!(text.starts_with("{\"id\":3,\"parent\":1,\"name\":\"toss.query.execute\""));
        assert!(text.contains("\"dur_ns\":4567"));
        assert!(text.contains("\"docs_scanned\":3"));
        assert!(text.contains("\"note\":\"a\\\"b\""));
        assert!(text.ends_with("}}\n"));
    }

    #[test]
    fn scoped_install_uninstalls() {
        // Every installed sink also receives the spans of tests running
        // beside this one, so count only this test's own.
        struct Counting(AtomicUsize);
        impl TraceSink for Counting {
            fn on_span(&self, record: &SpanRecord) {
                if matches!(record.name, "test.scoped" | "test.after") {
                    self.0.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let sink = Arc::new(Counting(AtomicUsize::new(0)));
        {
            let _scope = install_sink_scoped(sink.clone());
            let _ = crate::span("test.scoped").finish();
        }
        let seen = sink.0.load(Ordering::SeqCst);
        assert_eq!(seen, 1);
        // after the scope, this sink no longer receives spans (another
        // test's sink may still have tracing enabled — that's fine)
        let _ = crate::span("test.after").finish();
        assert_eq!(sink.0.load(Ordering::SeqCst), seen);
    }
}
