//! A global registry of named counters, gauges and log-linear-bucketed
//! histograms.
//!
//! Metrics are always on (unlike spans they are just atomic adds; there
//! is no sink to install) and cumulative for the life of the process.
//! Names follow the same dot-separated scheme as spans
//! (`xmldb.journal.appends`, `toss.query.rewrite_ns`, …).
//!
//! Hot paths should look a handle up once and cache it — e.g. in a
//! `OnceLock<Arc<Counter>>` — rather than calling [`counter`] per event;
//! the lookup takes a read lock and hashes the name, the cached handle
//! is a single atomic add.
//!
//! Histograms are log-linear: values `0..=15` get exact buckets, and
//! every octave above that is split into 4 sub-buckets (a shifted-index
//! scheme in the HdrHistogram family), so 256 buckets cover the full
//! `u64` range and quantile estimates are within 12.5% — tight enough
//! that percentiles no longer snap to power-of-two midpoints, while a
//! bucket index is still just a `leading_zeros` and a shift.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time level that can go up **and** down (active
/// connections, in-flight queries, queue depth). Unlike [`Counter`] the
/// exported value is the current level, not a cumulative total.
#[derive(Debug, Default)]
pub struct Gauge {
    value: std::sync::atomic::AtomicI64,
}

impl Gauge {
    /// Set the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub(crate) fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by 1.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current level.
    pub(crate) fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Values below this get their own exact bucket (index == value).
const EXACT: u64 = 16;
/// log₂(sub-buckets per octave): 4 sub-buckets ⇒ ≤12.5% relative error.
const SUB_BITS: u32 = 2;
/// 16 exact buckets + 60 octaves (2⁴..2⁶³) × 4 sub-buckets.
const BUCKETS: usize = 256;

/// A log-linear-bucketed histogram of `u64` observations.
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// Bucket index of a value. Values `< EXACT` map to their own bucket;
/// larger values land in sub-bucket `(v >> (⌊log₂ v⌋ − 2)) & 3` of
/// their octave, giving 4 equal-width linear slices per power of two.
fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        v as usize
    } else {
        let octave = 63 - v.leading_zeros(); // ≥ 4
        let sub = (v >> (octave - SUB_BITS)) & 3;
        (EXACT as u32 + (octave - 4) * 4) as usize + sub as usize
    }
}

/// Inclusive lower bound of bucket `i`.
fn bucket_lower(i: usize) -> u64 {
    if i < EXACT as usize {
        i as u64
    } else {
        let octave = 4 + ((i - EXACT as usize) / 4) as u32;
        let sub = ((i - EXACT as usize) % 4) as u64;
        (4 + sub) << (octave - SUB_BITS)
    }
}

/// Inclusive upper bound of bucket `i` (`0`, `1`, … `15`, `19`, `23`, …).
fn bucket_upper(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_lower(i + 1) - 1
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a duration, in nanoseconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub(crate) fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot the bucket counts.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, c)| (bucket_upper(i), c.load(Ordering::Relaxed)))
            .filter(|&(_, c)| c > 0)
            .collect();
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            buckets,
        }
    }

    /// Zero the histogram in place (rolling-window slots recycle a
    /// histogram per time bucket). Not atomic as a whole: concurrent
    /// observers may land in either epoch.
    pub(crate) fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// An immutable view of a histogram: `(upper_bound, count)` per
/// non-empty bucket, in increasing bound order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (0 ≤ q ≤ 1): exact for observations
    /// below 16, otherwise the midpoint of the log-linear bucket holding
    /// the rank — within 12.5% of the true value.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(upper, c) in &self.buckets {
            cumulative += c;
            if cumulative >= rank {
                let lower = bucket_lower(bucket_of(upper));
                if lower == upper {
                    return upper as f64; // exact bucket
                }
                return (lower as f64 + upper as f64) / 2.0;
            }
        }
        self.buckets.last().map(|&(u, _)| u as f64).unwrap_or(0.0)
    }

    /// Median estimate.
    pub(crate) fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub(crate) fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub(crate) fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Mean of the observations (exact — from sum and count).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The registry: name → counter/histogram.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The registry's read-then-write lookup: a read lock finds an existing
/// metric; only a new name takes the write lock.
fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(m) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return m.clone();
    }
    map.write()
        .unwrap_or_else(|e| e.into_inner())
        .entry(name.to_string())
        .or_default()
        .clone()
}

impl MetricsRegistry {
    /// Get or create the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Snapshot every metric, names sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: export(&self.counters, Counter::get),
            gauges: export(&self.gauges, Gauge::get),
            histograms: export(&self.histograms, Histogram::snapshot),
        }
    }
}

/// Every `(name, value)` of one map of the registry, names sorted.
fn export<T, V>(map: &RwLock<BTreeMap<String, Arc<T>>>, value: fn(&T) -> V) -> Vec<(String, V)> {
    let map = map.read().unwrap_or_else(|e| e.into_inner());
    map.iter().map(|(k, v)| (k.clone(), value(v))).collect()
}

/// The process-global registry.
pub(crate) fn registry() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::default)
}

/// Get or create a counter in the global registry.
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Get or create a gauge in the global registry.
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Get or create a histogram in the global registry.
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// Snapshot the global registry.
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

/// A point-in-time export of the whole registry.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)`, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)`, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// A metric name with dots (and any non-alphanumeric) mapped to `_`,
/// the Prometheus exposition charset.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

impl MetricsSnapshot {
    /// Value of a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Value of a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Render in the Prometheus text exposition format. Histogram
    /// buckets are emitted cumulatively with `le` labels, as Prometheus
    /// expects.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} counter\n{p} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} gauge\n{p} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let p = prom_name(name);
            out.push_str(&format!("# TYPE {p} histogram\n"));
            let mut cumulative = 0u64;
            for &(upper, c) in &h.buckets {
                cumulative += c;
                out.push_str(&format!("{p}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{p}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{p}_sum {}\n", h.sum));
            out.push_str(&format!("{p}_count {}\n", h.count));
        }
        out
    }

    /// Render as a JSON document:
    ///
    /// ```json
    /// {"counters":{"name":1},
    ///  "histograms":{"name":{"count":2,"sum":3,
    ///                        "buckets":[[1,1],[3,1]],
    ///                        "p50":1.0,"p95":3.5}}}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            crate::push_json_str(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            crate::push_json_str(&mut out, name);
            out.push_str(&format!(": {value}"));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            crate::push_json_str(&mut out, name);
            out.push_str(&format!(": {{\"count\": {}, \"sum\": {}, \"buckets\": [", h.count, h.sum));
            for (j, (upper, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{upper}, {c}]"));
            }
            out.push_str(&format!(
                "], \"p50\": {}, \"p95\": {}}}",
                h.p50(),
                h.p95()
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::default();
        let c = r.counter("t.count");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("t.count").get(), 5); // same handle by name
    }

    #[test]
    fn gauges_go_up_and_down() {
        let r = MetricsRegistry::default();
        let g = r.gauge("t.level");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(r.gauge("t.level").get(), 1); // same handle by name
        g.set(-3);
        assert_eq!(g.get(), -3);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("t.level"), Some(-3));
        assert!(snap.to_prometheus().contains("# TYPE t_level gauge\nt_level -3\n"));
        assert!(snap.to_json().contains("\"t.level\": -3"));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        for v in [0u64, 1, 2, 3, 900, 1000, 1100, 1_000_000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1_003_006);
        let s = h.snapshot();
        // p50 (rank 4 of 8) is the exact-bucketed value 3
        assert_eq!(s.p50(), 3.0, "p50 = {}", s.p50());
        // p95 (rank 8) falls in the log-linear bucket holding 1_000_000:
        // [917504, 1048575], so the estimate is within 12.5%
        assert!(
            s.p95() >= 917_504.0 && s.p95() <= 1_048_575.0,
            "p95 = {}",
            s.p95()
        );
        assert!((s.mean() - 125_375.75).abs() < 1e-6);
    }

    #[test]
    fn log_linear_quantiles_beat_factor_of_two() {
        // A tight cluster around 49 µs used to report the power-of-two
        // midpoint 49151.5 regardless of where in [32768, 65535] the
        // mass sat; log-linear buckets pin it to within 12.5%.
        let h = Histogram::default();
        for _ in 0..1000 {
            h.observe(49_000);
        }
        let p50 = h.snapshot().p50();
        let err = (p50 - 49_000.0).abs() / 49_000.0;
        assert!(err <= 0.125, "p50 = {p50}, relative error {err}");
    }

    #[test]
    fn zero_only_histogram() {
        let h = Histogram::default();
        h.observe(0);
        let s = h.snapshot();
        assert_eq!(s.p50(), 0.0);
        assert_eq!(s.buckets, vec![(0, 1)]);
    }

    #[test]
    fn bucket_maths() {
        // exact region: index == value
        for v in 0..16u64 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_lower(v as usize), v);
            assert_eq!(bucket_upper(v as usize), v);
        }
        // first log-linear octave: [16,19] [20,23] [24,27] [28,31]
        assert_eq!(bucket_of(16), 16);
        assert_eq!(bucket_of(19), 16);
        assert_eq!(bucket_of(20), 17);
        assert_eq!(bucket_of(31), 19);
        assert_eq!(bucket_of(32), 20);
        assert_eq!(bucket_upper(16), 19);
        assert_eq!(bucket_upper(17), 23);
        assert_eq!(bucket_lower(20), 32);
        // top bucket saturates
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_lower(BUCKETS - 1), 7u64 << 61);
        // every bucket is contiguous with its neighbour
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1), "bucket {i}");
            assert_eq!(bucket_of(bucket_lower(i)), i);
            assert_eq!(bucket_of(bucket_upper(i)), i);
        }
    }

    #[test]
    fn prometheus_rendering() {
        let r = MetricsRegistry::default();
        r.counter("a.b").add(2);
        let h = r.histogram("lat.ns");
        h.observe(1);
        h.observe(3);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE a_b counter\na_b 2\n"));
        assert!(text.contains("# TYPE lat_ns histogram\n"));
        assert!(text.contains("lat_ns_bucket{le=\"1\"} 1\n"));
        assert!(text.contains("lat_ns_bucket{le=\"3\"} 2\n"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_ns_sum 4\n"));
        assert!(text.contains("lat_ns_count 2\n"));
    }

    #[test]
    fn json_rendering() {
        let r = MetricsRegistry::default();
        r.counter("a.b").add(2);
        r.histogram("lat.ns").observe(3);
        let json = r.snapshot().to_json();
        assert!(json.contains("\"a.b\": 2"));
        assert!(json.contains("\"lat.ns\""));
        assert!(json.contains("\"buckets\": [[3, 1]]"));
    }

    #[test]
    fn global_registry_is_shared() {
        counter("test.obs.global").add(7);
        assert!(snapshot().counter("test.obs.global").unwrap_or(0) >= 7);
    }
}
