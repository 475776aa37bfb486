//! The harness's own arithmetic: percentiles, slice accounting, the
//! request-stream checksum and `/proc` parsing. Unit-tested below.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100):
/// the smallest value with at least `p` % of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort samples ascending (they are finite by construction).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are finite"));
    v
}

/// Median of unsorted samples; `None` when there are none.
pub fn median(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| percentile(&sorted(v.to_vec()), 50.0))
}

/// Mean of samples; `None` when there are none.
pub fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}

/// The highest of p99, p95, p90 and p75 that is at most `cap` and still
/// has at least ten of `n` samples beyond its rank; `None` when not
/// even p75 has.
pub fn tail_percentile(n: usize, cap: f64) -> Option<f64> {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .filter(|&p| p <= cap)
        .find(|&p| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
}

/// Completed operations per slice of a measured window. A completion at
/// `at_s` seconds after the window opened lands in slice
/// `floor(at_s / slice_s)`; completions at or past the window's end are
/// not part of the window. Windows of further instances can be put
/// after the first with [`Slices::append`]; completions are recorded
/// before that, into a single window.
#[derive(Debug, Clone, Default)]
pub struct Slices {
    /// Length of each slice, seconds (windows may differ in length).
    seconds: Vec<f64>,
    counts: Vec<u64>,
}

impl Slices {
    /// `n` slices covering a window of `window_s` seconds.
    pub fn new(window_s: f64, n: usize) -> Slices {
        assert!(n > 0 && window_s > 0.0);
        Slices {
            seconds: vec![window_s / n as f64; n],
            counts: vec![0; n],
        }
    }

    /// Count one completion; returns whether it fell inside the window.
    pub fn record(&mut self, at_s: f64) -> bool {
        let i = (at_s / self.seconds[0]).floor();
        if at_s < 0.0 || i >= self.counts.len() as f64 {
            return false;
        }
        self.counts[i as usize] += 1;
        true
    }

    /// Add another connection's counts of the same window, slice by slice.
    pub fn merge(&mut self, other: &Slices) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Put another window's slices after these.
    pub fn append(&mut self, other: Slices) {
        self.seconds.extend(other.seconds);
        self.counts.extend(other.counts);
    }

    /// Number of slices.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Completions inside the window.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Lowest and highest per-slice rate, operations per second.
    pub fn rate_min_max(&self) -> (f64, f64) {
        let rates = self
            .counts
            .iter()
            .zip(&self.seconds)
            .map(|(&c, s)| c as f64 / s);
        rates.fold((f64::INFINITY, 0.0), |(lo, hi), r| (lo.min(r), hi.max(r)))
    }
}

/// What recording spans costs: 1 − rate with recording on ÷ rate with
/// recording off, from the (summed duration, count) of the operations
/// run either way. Closed loop, so a rate is callers ÷ mean duration.
pub fn trace_overhead(untraced: (f64, u64), traced: (f64, u64)) -> Option<f64> {
    let mean = |(sum, n): (f64, u64)| (n > 0).then(|| sum / n as f64);
    Some(1.0 - mean(untraced)? / mean(traced)?)
}

/// FNV-1a, folded over byte strings: the order-sensitive checksum used
/// for the request stream and for join output forests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one item in; a terminator byte keeps item boundaries.
    pub fn item(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `VmHWM` (peak resident set) in kB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let n: u64 = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(n)
}

/// This process's peak resident set in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).unwrap_or(0) as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 has exactly 10 beyond it; of 999 only 9
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        assert_eq!(tail_percentile(999, 99.0), Some(95.0));
        // the cap wins over the sample count
        assert_eq!(tail_percentile(100_000, 95.0), Some(95.0));
        // 200 samples: p95 leaves exactly 10
        assert_eq!(tail_percentile(200, 99.0), Some(95.0));
        assert_eq!(tail_percentile(199, 99.0), Some(90.0));
        assert_eq!(tail_percentile(40, 99.0), Some(75.0));
        assert_eq!(tail_percentile(39, 99.0), None);
    }

    #[test]
    fn slices_account_for_every_completion_once() {
        let mut s = Slices::new(5.0, 5);
        for at in [0.0, 0.999, 1.0, 2.5, 4.999] {
            assert!(s.record(at));
        }
        // the window is half-open: its end and anything later is outside
        assert!(!s.record(5.0));
        assert!(!s.record(7.2));
        assert!(!s.record(-0.1));
        assert_eq!(s.counts, vec![2, 1, 1, 0, 1]);
        assert_eq!(s.total(), 5);
        let (lo, hi) = s.rate_min_max();
        assert_eq!((lo, hi), (0.0, 2.0));
        // a second window of another length keeps its own slice length
        let mut t = Slices::new(2.5, 5);
        t.record(1.7);
        s.append(t);
        assert_eq!(s.counts, vec![2, 1, 1, 0, 1, 0, 0, 0, 1, 0]);
        assert_eq!((s.len(), s.total()), (10, 6));
        assert_eq!(s.rate_min_max(), (0.0, 2.0));
    }

    #[test]
    fn trace_overhead_compares_mean_durations() {
        // untraced ops take 1.0 on average, traced ones 1.25: a fifth slower
        let frac = trace_overhead((4.0, 4), (5.0, 4)).unwrap();
        assert!((frac - 0.2).abs() < 1e-12);
        assert_eq!(trace_overhead((4.0, 4), (0.0, 0)), None);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 5 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb(""), None);
    }

    #[test]
    fn fnv_is_order_and_boundary_sensitive() {
        let sum = |items: &[&str]| {
            let mut f = Fnv::new();
            items.iter().for_each(|i| f.item(i.as_bytes()));
            f.0
        };
        assert_eq!(sum(&["a", "b"]), sum(&["a", "b"]));
        assert_ne!(sum(&["a", "b"]), sum(&["b", "a"]));
        assert_ne!(sum(&["ab", ""]), sum(&["a", "b"]));
    }
}
