//! The TOSS benchmark. Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one pass of one
//!   workload in this process; the last line of standard output is the
//!   result object of the benchmark contract (see `BENCHMARK.json`).
//! * `run [--seed N] [--workload W] [--seconds S] [--quick]` — every
//!   workload twice, a timed pass then a traced pass, one child process
//!   per workload per pass; prints every metric and writes the result
//!   set (see `report.rs`).
//!
//! README.md in this directory has the metric and workload tables.

mod inputs;
mod join;
mod metrics;
mod report;
mod restart;
mod serve;
mod stats;
mod store;
mod trace;

use metrics::{Report, WORKLOADS};
use std::path::PathBuf;
use std::time::Instant;

/// A timed pass sets its workload up from scratch this many times,
/// measures each instance for an equal share of `--seconds`, and
/// reports over all of them (`setup_s` is the median set-up). Heap
/// layout, hash seeds and thread placement are drawn once per instance
/// and moved whole 5 s windows by 5–15 %; two draws per run average
/// that. (Two, not more: the big stores take 3 s and `join` 5 s to set
/// up, and the driver's 136 runs have to fit its hour.) A traced pass,
/// which reports neither `setup_s` nor bounded metrics, has one.
const INSTANCES: usize = 2;

/// What one pass of one workload runs under.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out/`: scratch stores and trace files; git-ignored.
    pub out_dir: PathBuf,
    /// Zero of every span's clock.
    pub epoch: Instant,
}

impl Ctx {
    /// A directory of this process's own for store files.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir
            .join(format!("{}-{}", self.workload, std::process::id()))
    }

    /// Warm-up before an instance's window: one slice's worth.
    pub fn warm_s(&self) -> f64 {
        (self.window_s() / serve::SLICES as f64).max(0.5)
    }

    /// Write a traced pass's spans to `out/trace-<workload>.jsonl`.
    pub fn write_trace(&self, tracer: &trace::Tracer) {
        let path = self.out_dir.join(format!("trace-{}.jsonl", self.workload));
        std::fs::write(path, tracer.to_jsonl()).expect("write the trace file");
    }

    /// How many instances of the workload this pass sets up and measures.
    pub fn instances(&self) -> usize {
        if self.trace {
            1
        } else {
            INSTANCES
        }
    }

    /// Measured seconds per instance. A traced pass keeps the last
    /// third of its time for layer probes outside the window.
    pub fn window_s(&self) -> f64 {
        if self.trace {
            self.seconds * 2.0 / 3.0
        } else {
            self.seconds / INSTANCES as f64
        }
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--name value` pairs and bare `--flags` after the subcommand.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == name)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot read `{v}`")))
            .transpose()
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

fn usage() -> String {
    format!(
        "usage:\n  toss-benchmark --workload <{}> --seed N --seconds S --trace 0|1 [--detail FILE]\n  \
         toss-benchmark run [--seed N] [--workload W] [--seconds S] [--quick]",
        WORKLOADS.join("|")
    )
}

/// One pass of one workload; returns the process exit code.
fn run_pass(args: &Args) -> Result<i32, String> {
    let workload = args.value("--workload").ok_or_else(usage)?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(5.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let cx = Ctx {
        workload,
        seed: args.parsed("--seed")?.unwrap_or(42),
        seconds,
        trace: match args.value("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        out_dir: out_dir(),
        epoch: Instant::now(),
    };
    std::fs::create_dir_all(&cx.out_dir).map_err(|e| format!("{}: {e}", cx.out_dir.display()))?;

    let mut report = Report::default();
    match cx.workload.as_str() {
        "serve-cold" => serve::run_read(&cx, serve::ReadKind::Cold, &mut report),
        "serve-hot" => serve::run_read(&cx, serve::ReadKind::Hot, &mut report),
        "serve-tax" => serve::run_read(&cx, serve::ReadKind::Tax, &mut report),
        "serve-mixed" => serve::run_mixed(&cx, &mut report),
        "restart" => restart::run(&cx, &mut report),
        "join" => join::run(&cx, &mut report),
        _ => unreachable!("checked against WORKLOADS"),
    }
    report.set("rss_peak_mb", stats::rss_peak_mb(), 1);
    report.print(&cx.workload);
    if let Some(path) = args.value("--detail") {
        std::fs::write(path, report::pass_detail(&report).to_json())
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report.contract_line(cx.trace));
    Ok(if report.correct() { 0 } else { 1 })
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let result = if argv.first().map(String::as_str) == Some("run") {
        argv.remove(0);
        report::run_all(&Args(argv))
    } else {
        run_pass(&Args(argv))
    };
    match result {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}
