//! Bench-side tracing: spans recorded around the calls into each layer,
//! kept in memory, written out as JSON lines when the workload ends.
//!
//! A tracer belongs to one thread. A span is `{name, start, end,
//! parent, op_id}`; spans of one request share its `op_id`. A layer's
//! self time is its span's duration minus the part of that interval its
//! direct children cover. A disabled tracer runs the closure and
//! records nothing — that is the timed pass.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs closures. All
    /// tracers of one process share `epoch` so their spans line up.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Start or stop recording; spans already recorded stay.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Run `f` inside a span named `name` belonging to request `op_id`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// [`Tracer::span`] that also hands back the span's wall time in
    /// seconds — taken whether or not spans are being recorded, because
    /// the timed pass reports the same durations.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let t = Instant::now();
        let out = self.span(name, op_id, f);
        (out, t.elapsed().as_secs_f64())
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another thread's spans in, keeping parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            out.entry(span.name).or_default().push(self_ns as f64 / 1e3);
        }
        out
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, self_ns)) in self
            .spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .enumerate()
        {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{},\"self_ns\":{self_ns}}}\n",
                s.name, s.start_ns, s.end_ns, s.op_id
            ));
        }
        out
    }
}

/// Each span's duration minus the time its direct children cover.
/// Children of one parent never overlap (a tracer is single-threaded
/// and spans nest), so the covered time is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("request", 0, 100, None),
            // adjacent children: end of one is the start of the next
            span("parse", 10, 30, Some(0)),
            span("select", 30, 90, Some(0)),
            // nested grandchild is taken from `select`, not from `request`
            span("rewrite", 40, 60, Some(2)),
            // a second root is untouched
            span("other", 200, 250, None),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 40, 20, 50]);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut t = Tracer::new(true, Instant::now());
        let got = t.span("outer", 7, |t| {
            t.span("inner-a", 7, |_| 1) + t.span("inner-b", 7, |_| 2)
        });
        assert_eq!(got, 3);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("outer", None), ("inner-a", Some(0)), ("inner-b", Some(0))]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op_id == 7));
        let own = self_times_ns(t.spans());
        let outer = t.spans()[0].end_ns - t.spans()[0].start_ns;
        assert!(own[0] <= outer);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        assert_eq!(t.span("x", 0, |t| t.span("y", 0, |_| 5)), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", 1, |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("b", 2, |t| t.span("b-child", 2, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].parent, None);
    }
}
