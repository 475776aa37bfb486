//! Rolling time-windowed aggregation for SLO gauges.
//!
//! Cumulative histograms answer "since the process started"; an SLO
//! burn-rate alert needs "over the last N seconds". A [`RollingWindow`]
//! keeps a ring of fixed-length time buckets, each holding a latency
//! histogram plus outcome counts; recording touches only the current
//! bucket (stale buckets are lazily recycled in place), and a snapshot
//! merges the live buckets into windowed p50/p95/p99, error-rate and
//! shed-rate figures. [`WindowSnapshot::publish_gauges`] pushes those
//! into the global registry as plain gauges so they ride the existing
//! Prometheus/JSON exporters unchanged.

use crate::flight::QueryOutcomeKind;
use crate::metrics::{Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

struct Slot {
    /// Which bucket-length period this slot currently holds; slots are
    /// recycled in place when their period scrolls out of the window.
    period: u64,
    requests: u64,
    errors: u64,
    shed: u64,
    latency: Histogram,
}

impl Slot {
    fn recycle(&mut self, period: u64) {
        self.period = period;
        self.requests = 0;
        self.errors = 0;
        self.shed = 0;
        self.latency.reset();
    }
}

/// A ring of fixed-length time buckets over which latency quantiles and
/// outcome rates are computed.
pub struct RollingWindow {
    bucket_len: Duration,
    origin: Instant,
    slots: Mutex<Vec<Slot>>,
}

impl RollingWindow {
    /// A window of `buckets` buckets of `bucket_len` each (so e.g.
    /// 10 × 1s covers the trailing ~10 seconds). Minimums of 1ms and
    /// 2 buckets are enforced.
    pub fn new(bucket_len: Duration, buckets: usize) -> RollingWindow {
        let bucket_len = bucket_len.max(Duration::from_millis(1));
        let buckets = buckets.max(2);
        let slots = (0..buckets)
            .map(|_| Slot {
                period: u64::MAX, // never matches a real period → empty
                requests: 0,
                errors: 0,
                shed: 0,
                latency: Histogram::default(),
            })
            .collect();
        RollingWindow {
            bucket_len,
            origin: Instant::now(),
            slots: Mutex::new(slots),
        }
    }

    fn period_now(&self) -> u64 {
        (self.origin.elapsed().as_nanos() / self.bucket_len.as_nanos().max(1)) as u64
    }

    /// Record one completed request.
    pub fn record(&self, latency_ns: u64, outcome: QueryOutcomeKind) {
        self.record_at(self.period_now(), latency_ns, outcome);
    }

    fn record_at(&self, period: u64, latency_ns: u64, outcome: QueryOutcomeKind) {
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let idx = (period % slots.len() as u64) as usize;
        let slot = &mut slots[idx];
        if slot.period != period {
            slot.recycle(period);
        }
        slot.requests += 1;
        match outcome {
            QueryOutcomeKind::Ok => {}
            QueryOutcomeKind::Error => slot.errors += 1,
            QueryOutcomeKind::Shed => slot.shed += 1,
        }
        slot.latency.observe(latency_ns);
    }

    /// Aggregate the live buckets into one windowed view.
    pub fn snapshot(&self) -> WindowSnapshot {
        self.snapshot_at(self.period_now())
    }

    fn snapshot_at(&self, now: u64) -> WindowSnapshot {
        let slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let n = slots.len() as u64;
        let oldest_live = (now + 1).saturating_sub(n);
        let mut requests = 0u64;
        let mut errors = 0u64;
        let mut shed = 0u64;
        let mut sum = 0u64;
        let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
        for slot in slots.iter() {
            if slot.period > now || slot.period < oldest_live {
                continue; // stale (scrolled out) or never used
            }
            requests += slot.requests;
            errors += slot.errors;
            shed += slot.shed;
            let h = slot.latency.snapshot();
            sum += h.sum;
            for (upper, c) in h.buckets {
                *merged.entry(upper).or_insert(0) += c;
            }
        }
        let hist = HistogramSnapshot {
            count: merged.values().sum(),
            sum,
            buckets: merged.into_iter().collect(),
        };
        WindowSnapshot {
            requests,
            errors,
            shed,
            p50_ns: hist.p50(),
            p95_ns: hist.p95(),
            p99_ns: hist.p99(),
            // saturates: an operator may ask for a window longer than
            // a `Duration` can hold
            window: self
                .bucket_len
                .saturating_mul(u32::try_from(slots.len()).unwrap_or(u32::MAX)),
        }
    }
}

/// A point-in-time aggregate over a [`RollingWindow`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Requests completed inside the window.
    pub requests: u64,
    /// Of those, how many failed.
    pub errors: u64,
    /// Of those, how many were shed by admission control.
    pub shed: u64,
    /// Windowed median latency estimate, nanoseconds.
    pub p50_ns: f64,
    /// Windowed 95th-percentile latency estimate, nanoseconds.
    pub p95_ns: f64,
    /// Windowed 99th-percentile latency estimate, nanoseconds.
    pub p99_ns: f64,
    /// Time span the window covers.
    pub window: Duration,
}

impl WindowSnapshot {
    /// The window schema: the field names of [`WindowSnapshot::fields`],
    /// in order. The `stats` frame, the `toss.serve.window.<class>.*`
    /// gauges and the persisted stats document all use these names.
    pub const FIELDS: [&'static str; 9] = [
        "requests",
        "errors",
        "shed",
        "p50_ns",
        "p95_ns",
        "p99_ns",
        "error_rate_bps",
        "shed_rate_bps",
        "window_ms",
    ];

    /// This snapshot as `(field, value)` pairs in [`WindowSnapshot::FIELDS`]
    /// order, as every exporter writes it: latencies in whole
    /// nanoseconds, the error and shed rates in basis points (1/10000 of
    /// the window's requests; 0 when it is empty) and the span in
    /// milliseconds.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, i64)> {
        // errors and shed are counted among the requests, so an empty
        // window divides 0 by 1
        let bps = |n: u64| (n as f64 / self.requests.max(1) as f64 * 10_000.0).round() as i64;
        let values = [
            self.requests as i64,
            self.errors as i64,
            self.shed as i64,
            self.p50_ns as i64,
            self.p95_ns as i64,
            self.p99_ns as i64,
            bps(self.errors),
            bps(self.shed),
            self.window.as_millis().min(i64::MAX as u128) as i64,
        ];
        Self::FIELDS.into_iter().zip(values)
    }

    /// Publish this snapshot into the global metrics registry as one
    /// gauge per field, `{prefix}.{field}`, so windowed SLO figures flow
    /// through the existing Prometheus and JSON exports.
    pub fn publish_gauges(&self, prefix: &str) {
        for (field, value) in self.fields() {
            crate::metrics::gauge(&format!("{prefix}.{field}")).set(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field(s: &WindowSnapshot, name: &str) -> i64 {
        s.fields()
            .find(|(k, _)| *k == name)
            .expect("schema field")
            .1
    }

    #[test]
    fn empty_window_is_zero() {
        let w = RollingWindow::new(Duration::from_secs(1), 5);
        let s = w.snapshot();
        assert_eq!(s.requests, 0);
        assert_eq!(s.p95_ns, 0.0);
        assert_eq!(field(&s, "error_rate_bps"), 0);
        assert_eq!(field(&s, "window_ms"), 5_000);
    }

    #[test]
    fn aggregates_across_live_buckets() {
        let w = RollingWindow::new(Duration::from_secs(1), 5);
        w.record_at(10, 1_000, QueryOutcomeKind::Ok);
        w.record_at(11, 2_000, QueryOutcomeKind::Error);
        w.record_at(12, 100_000, QueryOutcomeKind::Shed);
        let s = w.snapshot_at(12);
        assert_eq!(s.requests, 3);
        assert_eq!(s.errors, 1);
        assert_eq!(s.shed, 1);
        assert_eq!(field(&s, "error_rate_bps"), 3_333);
        assert_eq!(field(&s, "shed_rate_bps"), 3_333);
        // p50 (rank 2 of 3) falls in the bucket holding 2_000
        assert!(s.p50_ns >= 1_750.0 && s.p50_ns <= 2_047.0, "p50 = {}", s.p50_ns);
    }

    #[test]
    fn old_buckets_scroll_out() {
        let w = RollingWindow::new(Duration::from_secs(1), 3);
        w.record_at(0, 1_000, QueryOutcomeKind::Error);
        w.record_at(1, 1_000, QueryOutcomeKind::Ok);
        assert_eq!(w.snapshot_at(1).requests, 2);
        // at period 3, period 0 has scrolled out of the 3-bucket window
        let s = w.snapshot_at(3);
        assert_eq!(s.requests, 1);
        assert_eq!(s.errors, 0);
        // far future: everything is stale
        assert_eq!(w.snapshot_at(100).requests, 0);
    }

    #[test]
    fn slot_recycling_resets_counts() {
        let w = RollingWindow::new(Duration::from_secs(1), 2);
        w.record_at(0, 1_000, QueryOutcomeKind::Error);
        // period 2 reuses slot 0 (2 % 2 == 0): the error must not leak
        w.record_at(2, 5_000, QueryOutcomeKind::Ok);
        let s = w.snapshot_at(2);
        assert_eq!(s.requests, 1);
        assert_eq!(s.errors, 0);
    }

    #[test]
    fn gauges_publish_through_registry() {
        let w = RollingWindow::new(Duration::from_secs(1), 4);
        w.record_at(5, 40_000, QueryOutcomeKind::Ok);
        w.record_at(5, 40_000, QueryOutcomeKind::Error);
        let s = w.snapshot_at(5);
        s.publish_gauges("test.window.unit");
        let snap = crate::metrics::snapshot();
        assert_eq!(snap.gauge("test.window.unit.requests"), Some(2));
        assert_eq!(snap.gauge("test.window.unit.error_rate_bps"), Some(5000));
        let p95 = snap.gauge("test.window.unit.p95_ns").unwrap();
        assert!((36_000..=45_000).contains(&p95), "p95 gauge = {p95}");
        assert!(snap.to_prometheus().contains("test_window_unit_p95_ns"));
    }

    #[test]
    fn an_overlong_window_saturates_instead_of_panicking() {
        // u64::MAX ms × 1001 buckets overflows a `Duration`
        let s = RollingWindow::new(Duration::from_millis(u64::MAX), 1001).snapshot();
        assert_eq!(s.window, Duration::MAX);
        assert_eq!(field(&s, "window_ms"), i64::MAX);
    }
}
