//! The metric lists (mirrored by `BENCHMARK.json`; a unit test keeps
//! the two equal) and the per-run report a workload fills in.

use std::collections::BTreeMap;
use toss_json::Value;

/// The six workloads, in run order.
pub const WORKLOADS: [&str; 6] = [
    "serve-cold",
    "serve-hot",
    "serve-tax",
    "serve-mixed",
    "restart",
    "join",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// End-to-end metrics every workload reports, from the timed pass.
/// `op_p50_us` is the client-observed latency of the workload's primary
/// operation: a read on `serve-*`, open → first answer on `restart`,
/// one flat + one skew join on `join`.
pub const END_TO_END: [MetricDef; 4] = [
    lower("setup_s", "s"),
    higher("ops_per_s", "1/s"),
    lower("op_p50_us", "us"),
    lower("rss_peak_mb", "MB"),
];

/// Per-layer metrics, from the traced pass; 0 on a workload that does
/// not cross the layer. The first block are the user-visible metrics
/// that exist on some workloads only (or repeat too loosely for a
/// bound): they keep their end-to-end names and are also measured in
/// the timed pass, which is where `run` reports them from.
pub const PER_LAYER: [MetricDef; 84] = [
    // -- user-visible, also measured in the timed pass (USER_VISIBLE) --
    lower("read_p99_us", "us"),
    lower("failed_frac", "ratio"),
    higher("writes_per_s", "1/s"),
    lower("write_ack_p50_us", "us"),
    lower("write_ack_p95_us", "us"),
    lower("cold_open_p50_ms", "ms"),
    lower("checkpoint_p50_ms", "ms"),
    lower("join_flat_p50_ms", "ms"),
    lower("join_skew_p50_ms", "ms"),
    lower("disk_bytes_per_user_byte", "ratio"),
    higher("answer_quality", "ratio"),
    higher("ops_per_s_slice_min", "1/s"),
    higher("ops_per_s_slice_max", "1/s"),
    // serve: the wire path around the executor
    lower("serve.ping_rtt_us", "us"),
    lower("serve.request_encode_us", "us"),
    lower("serve.request_parse_us", "us"),
    lower("serve.build_query_us", "us"),
    lower("serve.response_encode_us", "us"),
    lower("serve.server_us_p50", "us"),
    lower("serve.wire_overhead_us", "us"),
    lower("serve.wire_p50_us", "us"),
    lower("serve.unaccounted_us", "us"),
    lower("json.response_decode_us", "us"),
    lower("json.response_bytes", "bytes"),
    lower("tree.serialize_us", "us"),
    // restart: what a cold open and a checkpoint are made of
    lower("json.snapshot_parse_ms", "ms"),
    lower("segment.parse_ms", "ms"),
    lower("segment.bytes", "bytes"),
    lower("segment.build_ms", "ms"),
    lower("xmldb.open_ms_p50", "ms"),
    lower("xmldb.open_rebuild_ms", "ms"),
    lower("xmldb.open_replay_ms", "ms"),
    lower("xmldb.first_query_us", "us"),
    lower("xmldb.snapshot_bytes", "bytes"),
    lower("serve.load_sidecar_ms", "ms"),
    lower("xmldb.insert_us_p50", "us"),
    lower("xmldb.thaw_ms", "ms"),
    lower("xmldb.checkpoint_ms_p50", "ms"),
    higher("xmldb.segment.loads", "count"),
    lower("xmldb.segment.thaws", "count"),
    lower("xmldb.index.pointer_bytes", "bytes"),
    lower("xmldb.index.segment_bytes", "bytes"),
    lower("xmldb.wal_bytes_per_user_byte", "ratio"),
    // core select: rewrite / execute / convert
    lower("core.rewrite_us_p50", "us"),
    higher("core.rewrite_cache.hit_ratio", "ratio"),
    lower("core.xpath_bytes_mean", "bytes"),
    lower("similarity.distance_ns", "ns"),
    lower("similarity.probe_scan_us", "us"),
    lower("ontology.terms", "count"),
    lower("core.execute_us_p50", "us"),
    lower("core.convert_us_p50", "us"),
    lower("core.select_us_p50", "us"),
    lower("core.select_unaccounted_us", "us"),
    higher("core.plan.index_probe_frac", "ratio"),
    lower("core.candidates_per_answer", "ratio"),
    lower("core.answers_mean", "count"),
    lower("xmldb.xpath_eval_us", "us"),
    // the live write path
    lower("serve.write.doc_ack_us_p50", "us"),
    lower("serve.write.server_us_p50", "us"),
    lower("serve.write.fsync_us_p50", "us"),
    lower("serve.write.commit_wait_us_p50", "us"),
    higher("serve.write.batch_size_mean", "count"),
    lower("serve.write.first_write_ms", "ms"),
    lower("serve.checkpoint_ms_p50", "ms"),
    lower("serve.write.ont_ack_ms_p50", "ms"),
    lower("ontology.sea_rerun_ms", "ms"),
    lower("serve.read_after_ont_write_p50_us", "us"),
    // the similarity join, per leg
    lower("core.join.flat.execute_ms_p50", "ms"),
    lower("core.join.flat.convert_ms_p50", "ms"),
    lower("core.join.flat.refined_frac", "ratio"),
    lower("core.join.flat.candidates", "count"),
    lower("core.join.flat.pairs", "count"),
    lower("core.join.skew.execute_ms_p50", "ms"),
    lower("core.join.skew.convert_ms_p50", "ms"),
    higher("core.join.skew.refined_frac", "ratio"),
    lower("core.join.skew.candidates", "count"),
    lower("core.join.skew.pairs", "count"),
    // what `setup_s` is made of
    lower("datagen.generate_s", "s"),
    lower("core.make_ontology_s", "s"),
    lower("ontology.fuse_s", "s"),
    lower("ontology.sea_s", "s"),
    lower("xmldb.load_s", "s"),
    lower("serve.start_ms", "ms"),
    // validity of the traced pass itself
    lower("obs.trace_overhead_frac", "ratio"),
];

/// How many leading entries of [`PER_LAYER`] are user-visible metrics
/// that `run` reports from the timed pass.
pub const USER_VISIBLE: usize = 13;

/// A counter of the process-wide `toss-obs` registry, as it stands.
pub fn registry_counter(name: &str) -> u64 {
    toss_obs::metrics::counter(name).get()
}

/// What one pass of one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    /// name → (value, samples behind it).
    values: BTreeMap<&'static str, (f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold, in words.
    pub check_failures: Vec<String>,
}

fn def_of(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

impl Report {
    /// Record a metric; the name must be in one of the lists.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let def = def_of(name).unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        assert!(value.is_finite(), "metric `{name}` is not finite");
        self.values.insert(def.name, (value, samples));
    }

    /// Record the median of `samples` under `name`, if there are any.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if let Some(m) = crate::stats::median(samples) {
            self.set(name, m, samples.len());
        }
    }

    /// Record the mean of `samples` under `name`, if there are any.
    pub fn set_mean(&mut self, name: &str, samples: &[f64]) {
        if let Some(m) = crate::stats::mean(samples) {
            self.set(name, m, samples.len());
        }
    }

    /// `failed_frac` from the counts so far.
    pub fn set_failed_frac(&mut self) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_frac", frac, self.attempted as usize);
    }

    /// `ops_per_s` over `seconds`, and the slowest and fastest slice.
    pub fn set_throughput(&mut self, ops: usize, seconds: f64, slices: &crate::stats::Slices) {
        let (lo, hi) = slices.rate_min_max();
        self.set("ops_per_s", ops as f64 / seconds, ops);
        self.set("ops_per_s_slice_min", lo, slices.len());
        self.set("ops_per_s_slice_max", hi, slices.len());
    }

    /// An output check: remember the failure, keep running.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// `workload metric value unit n=samples`, one line per recorded metric.
    pub fn print(&self, workload: &str) {
        for (name, (value, n)) in &self.values {
            let unit = def_of(name).expect("recorded metrics are declared").unit;
            println!("{workload} {name} {value} {unit} n={n}");
        }
        for f in &self.check_failures {
            println!("{workload} CHECK FAILED: {f}");
        }
    }

    fn metrics_value(&self, defs: &[MetricDef]) -> Value {
        Value::Object(
            defs.iter()
                .map(|d| {
                    let v = self.values.get(d.name).map_or(0.0, |v| v.0);
                    (
                        d.name.to_string(),
                        Value::object(vec![("value", Value::Float(v)), ("unit", d.unit.into())]),
                    )
                })
                .collect(),
        )
    }

    /// The one-line result object of the benchmark contract: the
    /// end-to-end metrics for a timed pass, every per-layer metric
    /// (0 where the workload does not cross the layer) for a traced one.
    pub fn contract_line(&self, traced: bool) -> String {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        Value::object(vec![
            ("correct", self.correct().into()),
            ("attempted", Value::Int(self.attempted.max(1) as i64)),
            ("failed", Value::Int(self.failed as i64)),
            ("metrics", self.metrics_value(defs)),
        ])
        .to_json()
    }

    /// Everything recorded, with sample counts — what `run` collects.
    pub fn detail(&self) -> Value {
        Value::Object(
            self.values
                .iter()
                .map(|(name, (value, n))| {
                    (
                        name.to_string(),
                        Value::object(vec![
                            ("value", Value::Float(*value)),
                            ("unit", def_of(name).expect("declared").unit.into()),
                            ("n", Value::Int(*n as i64)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` at the repo root lists exactly these metrics,
    /// units, directions and workloads.
    #[test]
    fn benchmark_json_matches_the_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let v = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String, bool)> = v
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k| {
                        m.get(k)
                            .and_then(Value::as_str)
                            .expect("string field")
                            .to_string()
                    };
                    (s("name"), s("unit"), s("better") == "higher")
                })
                .collect();
            let ours: Vec<(String, String, bool)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string(), d.higher_is_better))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn contract_line_has_every_metric_of_its_family() {
        let mut r = Report::default();
        r.set("ops_per_s", 12.5, 3);
        r.attempted = 10;
        let timed = Value::parse(&r.contract_line(false)).unwrap();
        let m = timed.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        assert_eq!(
            timed
                .get("metrics")
                .unwrap()
                .get("ops_per_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(12.5)
        );
        let traced = Value::parse(&r.contract_line(true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_object().unwrap().len(),
            PER_LAYER.len()
        );
        assert_eq!(traced.get("correct"), Some(&Value::Bool(true)));
        r.check(false, || "boom".into());
        assert!(!r.correct());
    }
}
