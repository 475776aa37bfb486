//! Subcommand implementations.

use crate::args::{tag_value, Args};
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::Duration;
use toss_core::{
    enhance_sdb_full, make_ontology, suggest_constraints, Executor, MakerConfig, OesInstance,
};
use toss_lexicon::LexiconBuilder;
use toss_ontology::persist::{seo_from_json, seo_to_json};
use toss_ontology::seo::Seo;
use toss_serve::{
    BudgetClass, Enhancer, ErrorCode, QueryRequest, ServerConfig, Service, WriteConfig,
    WriteEngine,
};
use toss_similarity::combinators::{MinOf, MultiWordGate};
use toss_similarity::{Levenshtein, NameRules, StringMetric};
use toss_tree::serialize::{tree_to_xml, Style};
use toss_tree::Forest;
use toss_xmldb::{Database, DatabaseConfig, DurableDatabase, JournalRecord, StdVfs, XPath};

/// Usage text shown on errors.
pub const USAGE: &str = "\
usage:
  toss-cli load      --db <store.json> --collection <name> <file.xml>…
  toss-cli xpath     --db <store.json> --collection <name> <query>
  toss-cli build-seo --db <store.json> --epsilon <e> --out <seo.json>
                     [--rules <rules.txt>] [--max-terms <n>]
  toss-cli query     --db <store.json> --seo <seo.json> --collection <name>
                     --root <tag> [--eq tag=value]… [--contains tag=value]…
                     [--similar tag=value]… [--below tag=term]… [--tax] [--pretty]
                     [--explain] [--trace-out <spans.jsonl>]
                     [--timeout-ms <n>] [--max-terms <n>] [--max-docs <n>]
  toss-cli stats     --db <store.json> [--json]
  toss-cli db        checkpoint --db <store.json>
  toss-cli db        recover    --db <store.json>
  toss-cli dot       --seo <seo.json>
  toss-cli serve     --db <store.json> --seo <seo.json> [--addr <host:port>]
                     [--writable] [--checkpoint-every <n>]
                     [--max-conns <n>] [--max-concurrent <n>]
                     [--drain-ms <n>] [--allow-shutdown]
                     [--flight-capacity <n>] [--slow-log <file.jsonl>]
                     [--slow-threshold-ms <n>] [--slow-sample <n>]
                     [--window-ms <n>] [--window-buckets <n>]
  toss-cli top       [--addr <host:port>] [--interval-ms <n>]
                     [--iterations <n>] [--slow <n>]

query runs in-process through the same service as a server's `query`
frame, in budget class `batch`: --timeout-ms is a hard wall-clock
deadline (exit code 3 when exceeded); --max-terms / --max-docs are soft
budgets — the query degrades gracefully (exit 0, warning on stderr).
Each only tightens the class ceiling (30 s, 8192 terms, 2000000 docs);
0 means the ceiling. Exit code 4 means the query was shed under load.

query and serve open the store by one rule: the store's ontology
sidecar (<store>.ont.json) plus the journal tail past it; --seo is only
the baseline for a store with no sidecar. Every checkpoint (load, db
checkpoint, db recover, a server's) writes the sidecar of a store that
has one, a writable serve seeds it, and a damaged one is an error.
Every subcommand accepts only the flags listed for it above.

serve runs until stdin closes or reads a `shutdown` line, then drains
gracefully. With --writable the store opens through the WAL and accepts
mutation frames (insert_doc, delete_doc, add_term, add_edge,
checkpoint); writes are acknowledged only after their group-commit
batch fsyncs, and --checkpoint-every folds the journal once that many
records accumulate (0 disables auto-checkpoints). With
--allow-shutdown, clients may stop it via the protocol
`shutdown` verb. --slow-log appends always-sampled slow/failed queries
(and 1-in-<n> of the rest, --slow-sample; 0 disables sampling) as JSON
lines; --flight-capacity (at most 1048576) bounds the in-memory flight
recorder the `slow` admin frame reads. The SLO window gauges cover
--window-buckets (at most 3600) buckets of --window-ms each.

top polls a live server's `stats` frame every --interval-ms (default
1000) and renders per-class windowed SLOs plus the newest --slow
flight-recorder entries; --iterations 0 (the default) polls forever.";

/// Exit code for a usage or I/O error (usage text is printed).
pub const EXIT_USAGE: u8 = 1;
/// Exit code when the deadline or cancellation stopped the query.
pub const EXIT_BUDGET: u8 = 3;
/// Exit code when the query was shed by admission control.
pub const EXIT_OVERLOADED: u8 = 4;

/// Ceiling of `serve --flight-capacity`: the flight recorder reserves
/// its whole ring up front.
const MAX_FLIGHT_CAPACITY: u64 = 1 << 20;
/// Ceiling of `serve --window-buckets`: each bucket holds a latency
/// histogram (about 2 KB) per budget class.
const MAX_WINDOW_BUCKETS: u64 = 3_600;

/// A command failure: a message plus the process exit code it maps to.
#[derive(Debug)]
pub struct CliFailure {
    /// Process exit code (see the `EXIT_*` constants).
    pub code: u8,
    /// Human-readable cause.
    pub message: String,
}

impl From<String> for CliFailure {
    fn from(message: String) -> Self {
        CliFailure {
            code: EXIT_USAGE,
            message,
        }
    }
}

impl From<(ErrorCode, String)> for CliFailure {
    /// A failed query: budget and shed outcomes keep their exit codes.
    fn from((code, message): (ErrorCode, String)) -> Self {
        let code = match code {
            ErrorCode::BudgetExceeded | ErrorCode::Cancelled => EXIT_BUDGET,
            ErrorCode::Overloaded => EXIT_OVERLOADED,
            _ => EXIT_USAGE,
        };
        CliFailure { code, message }
    }
}

/// The default metric: bibliographic name rules + gated Levenshtein.
fn default_metric() -> impl StringMetric + Clone {
    MinOf::new(
        NameRules::with_costs(3.0, 2.0, 1000.0),
        MultiWordGate::new(Levenshtein),
    )
}

/// Dispatch a full argv (first element = subcommand).
pub fn run(argv: &[String]) -> Result<(), CliFailure> {
    let (cmd, rest) = argv
        .split_first()
        .ok_or_else(|| "no subcommand given".to_string())?;
    match cmd.as_str() {
        "load" => cmd_load(rest).map_err(CliFailure::from),
        "xpath" => cmd_xpath(rest).map_err(CliFailure::from),
        "build-seo" => cmd_build_seo(rest).map_err(CliFailure::from),
        "query" => cmd_query(rest),
        "stats" => cmd_stats(rest).map_err(CliFailure::from),
        "db" => cmd_db(rest).map_err(CliFailure::from),
        "dot" => cmd_dot(rest).map_err(CliFailure::from),
        "serve" => cmd_serve(rest).map_err(CliFailure::from),
        "top" => cmd_top(rest).map_err(CliFailure::from),
        other => Err(CliFailure::from(format!("unknown subcommand `{other}`"))),
    }
}

/// Open a store read-only for querying: journaled-but-not-checkpointed
/// mutations are visible, but nothing on disk is created or rewritten —
/// no `.wal` appears for a store that lacks one, and a torn journal tail
/// is skipped rather than trimmed, so querying works on read-only media.
fn load_db(path: &str) -> Result<Database, String> {
    DurableDatabase::open_read_only_with(Path::new(path), DatabaseConfig::unlimited(), &StdVfs)
        .map(|(db, _)| db)
        .map_err(|e| e.to_string())
}

/// Open `--db` the way every front door does ([`toss_serve::open_store`]:
/// the ontology sidecar and journal tail beat the `--seo` baseline) and
/// put an executor over it. `write` opens it writable and returns its
/// write engine.
fn open_executor(
    args: &Args,
    write: Option<WriteConfig>,
) -> Result<(Executor, Option<WriteEngine>), String> {
    let db_path = args.required("db")?;
    let seo_json = std::fs::read_to_string(args.required("seo")?).map_err(|e| e.to_string())?;
    let baseline = seo_from_json(&seo_json).map_err(|e| e.to_string())?;
    let opened = toss_serve::open_store(
        Arc::new(StdVfs),
        Path::new(db_path),
        baseline,
        enhancer,
        write,
    )?;
    if opened.replayed > 0 {
        eprintln!("replayed {} ontology journal record(s) past the sidecar", opened.replayed);
    }
    let executor = Executor::new(opened.db, Arc::new(opened.seo))
        .with_probe_metric(Arc::new(default_metric()));
    Ok((executor, opened.engine))
}

/// SEA with the default metric at `epsilon`: how a store's ontology is
/// re-enhanced after ontology writes.
fn enhancer(epsilon: f64) -> Enhancer {
    let metric = default_metric();
    Box::new(move |h| toss_ontology::enhance(h, &metric, epsilon).map_err(|e| e.to_string()))
}

/// The store's own ontology ([`toss_serve::store_ontology`]: its sidecar
/// plus the ontology tail of the journal `records` its open replayed);
/// `None` for a store with no sidecar.
fn own_ontology(db_path: &str, records: &[JournalRecord]) -> Result<Option<Seo>, String> {
    let ontology =
        toss_serve::store_ontology(&StdVfs, Path::new(db_path), records, None, enhancer)?;
    Ok(ontology.map(|o| o.seo))
}

/// Where a store's metrics snapshot lives.
fn stats_path(db_path: &str) -> String {
    format!("{db_path}.stats.json")
}

/// Persist the process's metrics registry next to the store so a later
/// `toss-cli stats --db <store>` can report on what this run did.
/// Best-effort: a failure to write stats never fails the command.
fn persist_stats(db_path: &str) {
    let snap = toss_obs::metrics::snapshot();
    if let Err(e) = std::fs::write(stats_path(db_path), stats_document(&snap)) {
        eprintln!("warning: could not write {}: {e}", stats_path(db_path));
    }
}

/// The `<db>.stats.json` document: the metrics snapshot JSON with a
/// top-level `windows` object spliced in, rebuilt from the
/// `toss.serve.window.<class>.<field>` gauges. The object uses the
/// exact per-class schema the live `stats` frame returns, so offline
/// `toss-cli stats --json` and a live `toss-cli top` read one shape.
fn stats_document(snap: &toss_obs::metrics::MetricsSnapshot) -> String {
    use toss_json::Value;
    let Ok(Value::Object(mut doc)) = Value::parse(&snap.to_json()) else {
        return snap.to_json();
    };
    doc.push(("windows".to_string(), windows_from_gauges(snap)));
    Value::Object(doc).to_json_pretty()
}

/// Group `toss.serve.window.<class>.<field>` gauges back into the
/// `stats`-frame `windows` object (`{class: {requests, …}}`), in the
/// frame's class and field order; classes that never published gauges
/// are simply absent.
fn windows_from_gauges(snap: &toss_obs::metrics::MetricsSnapshot) -> toss_json::Value {
    use toss_json::Value;
    let classes = BudgetClass::ALL.iter().filter_map(|class| {
        let fields: Vec<(String, Value)> = toss_obs::WindowSnapshot::FIELDS
            .iter()
            .filter_map(|f| {
                let level = snap.gauge(&format!("toss.serve.window.{}.{f}", class.as_str()))?;
                Some((f.to_string(), Value::Int(level)))
            })
            .collect();
        (!fields.is_empty()).then(|| (class.as_str().to_string(), Value::Object(fields)))
    });
    Value::Object(classes.collect())
}

/// Rebuild a [`toss_obs::metrics::MetricsSnapshot`] from the JSON that
/// [`persist_stats`] wrote.
fn snapshot_from_json(text: &str) -> Result<toss_obs::metrics::MetricsSnapshot, String> {
    use toss_json::Value;
    use toss_obs::metrics::{HistogramSnapshot, MetricsSnapshot};
    let v = Value::parse(text).map_err(|e| e.to_string())?;
    let num = |x: Option<&Value>| x.and_then(Value::as_f64).unwrap_or(0.0);
    let count = |x: Option<&Value>| num(x).max(0.0) as u64;
    let section = |key| v.get(key).and_then(Value::as_object).unwrap_or(&[]);
    let mut snap = MetricsSnapshot::default();
    for (name, x) in section("counters") {
        snap.counters.push((name.clone(), count(Some(x))));
    }
    for (name, x) in section("gauges") {
        snap.gauges.push((name.clone(), num(Some(x)) as i64));
    }
    for (name, h) in section("histograms") {
        let pairs = h.get("buckets").and_then(Value::as_array).unwrap_or(&[]);
        let buckets = pairs.iter().filter_map(|pair| match pair.as_array() {
            Some([upper, n]) => Some((count(Some(upper)), count(Some(n)))),
            _ => None,
        });
        snap.histograms.push((
            name.clone(),
            HistogramSnapshot {
                count: count(h.get("count")),
                sum: count(h.get("sum")),
                buckets: buckets.collect(),
            },
        ));
    }
    Ok(snap)
}

/// `toss-cli stats --db <store.json> [--json]` — print the metrics
/// snapshot the last instrumented command persisted beside the store.
/// Default output is the Prometheus text exposition format; `--json`
/// prints the snapshot JSON verbatim.
fn cmd_stats(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse(argv, &["db", "json"])?;
    let db_path = args.required("db")?;
    let path = stats_path(db_path);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!("{path}: {e} (run a query/load/recover against this store first)")
    })?;
    if args.switch("json") {
        print!("{text}");
    } else {
        let snap = snapshot_from_json(&text)?;
        print!("{}", snap.to_prometheus());
    }
    Ok(())
}

fn cmd_load(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse(argv, &["db", "collection"])?;
    let db_path = args.required("db")?.to_string();
    let coll_name = args.required("collection")?.to_string();
    if args.positionals().is_empty() {
        return Err("no XML files given".into());
    }
    // Every insert is journaled and fsynced before it applies, so a crash
    // mid-load keeps the documents inserted so far; the final checkpoint
    // folds the journal into a fresh atomic snapshot, with the store's
    // ontology, read before the first insert.
    let (mut db, records) =
        DurableDatabase::open_with(db_path.as_str(), DatabaseConfig::unlimited(), Arc::new(StdVfs))
            .map_err(|e| e.to_string())?;
    let seo = own_ontology(&db_path, &records)?;
    if db.db().collection(&coll_name).is_err() {
        db.create_collection(&coll_name).map_err(|e| e.to_string())?;
    }
    let mut docs = 0usize;
    for file in args.positionals() {
        let xml = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let forest = toss_xmldb::parse_forest(&xml).map_err(|e| format!("{file}: {e}"))?;
        for t in forest {
            let doc_xml = tree_to_xml(&t, Style::Compact);
            db.insert_xml(&coll_name, &doc_xml).map_err(|e| e.to_string())?;
            docs += 1;
        }
    }
    let (db, mut writer) = db.into_parts();
    toss_serve::checkpoint_store(&mut writer, &db, seo.as_ref())?;
    println!(
        "loaded {docs} document(s) into `{coll_name}`; store now {} bytes across {} collection(s)",
        db.total_size_bytes(),
        db.collection_names().len()
    );
    persist_stats(&db_path);
    Ok(())
}

fn cmd_db(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse(argv, &["db"])?;
    let [action] = args.positionals() else {
        return Err("expected `db checkpoint` or `db recover`".into());
    };
    let db_path = args.required("db")?;
    match action.as_str() {
        "checkpoint" => {
            let (db, records) =
                DurableDatabase::open_with(db_path, DatabaseConfig::unlimited(), Arc::new(StdVfs))
                    .map_err(|e| e.to_string())?;
            let pending = db.pending_journal_ops().map_err(|e| e.to_string())?;
            let seo = own_ontology(db_path, &records)?;
            let (db, mut writer) = db.into_parts();
            toss_serve::checkpoint_store(&mut writer, &db, seo.as_ref())?;
            let kept = writer.pending_journal_ops().map_err(|e| e.to_string())?;
            let journal = match kept {
                0 => "journal truncated".to_string(),
                n => format!("kept {n} ontology record(s): the store has no ontology sidecar"),
            };
            println!(
                "checkpointed {} journaled op(s) into {db_path}; {journal}",
                pending - kept
            );
            persist_stats(db_path);
            Ok(())
        }
        "recover" => {
            let (db, records, mut report) = DurableDatabase::recover_with(
                db_path,
                DatabaseConfig::unlimited(),
                Arc::new(StdVfs),
            )
            .map_err(|e| e.to_string())?;
            let damaged_sidecar =
                toss_serve::discard_damaged_sidecar(&StdVfs, Path::new(db_path), &mut report)?;
            // the one checkpoint makes the recovered state durable again,
            // with the store's own ontology when it has one
            let seo = own_ontology(db_path, &records)?;
            let (db, mut writer) = db.into_parts();
            toss_serve::checkpoint_store(&mut writer, &db, seo.as_ref())?;
            if report.is_clean() && damaged_sidecar.is_none() {
                println!("store is clean: nothing to repair");
            }
            if let Some(e) = &report.snapshot_error {
                println!("snapshot discarded: {e}");
            }
            if let Some(why) = &damaged_sidecar {
                println!("ontology sidecar discarded: {why}");
            }
            if let Some(e) = &report.journal_error {
                println!("journal cut short: {e}");
            }
            if report.torn_tail_bytes > 0 {
                println!("trimmed {} byte(s) of torn journal tail", report.torn_tail_bytes);
            }
            println!("replayed {} op(s)", report.replayed_ops);
            for (seq, err) in &report.skipped_ops {
                println!("skipped op #{seq}: {err}");
            }
            for path in &report.quarantined {
                println!("damaged file kept at {}", path.display());
            }
            println!(
                "recovered state: {} collection(s), {} bytes; re-persisted to {db_path}",
                db.collection_names().len(),
                db.total_size_bytes()
            );
            persist_stats(db_path);
            Ok(())
        }
        other => Err(format!(
            "unknown db action `{other}` (expected checkpoint or recover)"
        )),
    }
}

fn cmd_xpath(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse(argv, &["db", "collection"])?;
    let db = load_db(args.required("db")?)?;
    let coll = db
        .collection(args.required("collection")?)
        .map_err(|e| e.to_string())?;
    let [query] = args.positionals() else {
        return Err("exactly one XPath query expected".into());
    };
    let xpath = XPath::parse(query).map_err(|e| e.to_string())?;
    let matches = xpath.eval_collection(coll);
    println!("{} match(es)", matches.len());
    for m in matches.iter().take(50) {
        let doc = coll.get(m.doc).map_err(|e| e.to_string())?;
        let sub = doc.tree().extract(m.node).map_err(|e| e.to_string())?;
        println!("{} {}", m.doc, tree_to_xml(&sub, Style::Compact));
    }
    if matches.len() > 50 {
        println!("… ({} more)", matches.len() - 50);
    }
    persist_stats(args.required("db")?);
    Ok(())
}

fn cmd_build_seo(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse(argv, &["db", "epsilon", "out", "rules", "max-terms"])?;
    let raw_epsilon = args.required("epsilon")?;
    let epsilon: f64 = raw_epsilon
        .parse()
        .ok()
        .filter(|e: &f64| e.is_finite() && *e >= 0.0)
        .ok_or_else(|| {
            format!("--epsilon must be a finite non-negative number, got `{raw_epsilon}`")
        })?;
    let db = load_db(args.required("db")?)?;
    let out_path = args.required("out")?.to_string();
    let max_terms: usize = match args.one("max-terms")? {
        Some(v) => v.parse().map_err(|_| "max-terms must be an integer".to_string())?,
        None => 0,
    };

    let mut lex_builder = LexiconBuilder::from_base(toss_lexicon::data::bibliographic_lexicon());
    if let Some(rules_path) = args.one("rules")? {
        let text = std::fs::read_to_string(rules_path).map_err(|e| e.to_string())?;
        lex_builder.add_text(&text)?;
    }
    let lexicon = lex_builder.build();
    let cfg = MakerConfig {
        max_terms_per_tag: max_terms,
        ..MakerConfig::default()
    };

    let mut instances = Vec::new();
    for coll in db.collections() {
        let forest: Forest = coll.documents().iter().map(|d| d.tree().clone()).collect();
        let ontology = make_ontology(&forest, &lexicon, &cfg).map_err(|e| e.to_string())?;
        instances.push(OesInstance::new(coll.name(), forest, ontology));
    }
    if instances.is_empty() {
        return Err("the store has no collections".into());
    }
    let mut constraints = Vec::new();
    for i in 0..instances.len() {
        for j in i + 1..instances.len() {
            constraints.extend(suggest_constraints(
                &instances[i].ontology,
                i,
                &instances[j].ontology,
                j,
                &lexicon,
            ));
        }
    }
    let sdb = enhance_sdb_full(&instances, &constraints, &default_metric(), epsilon)
        .map_err(|e| e.to_string())?;
    std::fs::write(&out_path, seo_to_json(&sdb.seo)).map_err(|e| e.to_string())?;
    if let Some(part_of) = &sdb.part_of_seo {
        let part_path = format!("{out_path}.part-of");
        std::fs::write(&part_path, seo_to_json(part_of)).map_err(|e| e.to_string())?;
        println!("part-of SEO written to {part_path}");
    }
    println!(
        "SEO written to {out_path}: {} fused terms, {} enhanced nodes, ε = {epsilon}",
        sdb.fusion.hierarchy.term_count(),
        sdb.seo.len()
    );
    Ok(())
}

/// Parse an optional non-negative integer flag.
fn parse_u64_flag(args: &Args, name: &str) -> Result<Option<u64>, String> {
    match args.one(name)? {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("--{name} must be a non-negative integer")),
    }
}

/// Parse `--name` like [`parse_u64_flag`], refusing values above `max`.
fn parse_capped_flag(args: &Args, name: &str, max: u64) -> Result<Option<u64>, String> {
    match parse_u64_flag(args, name)? {
        Some(n) if n > max => Err(format!("--{name} must be at most {max}")),
        n => Ok(n),
    }
}

/// The `query` flags as the request a remote client would send: class
/// `batch`, with `--timeout-ms`, `--max-terms` and `--max-docs` as its
/// overrides (clamped to the class ceilings; 0 means the ceiling).
fn query_request(args: &Args) -> Result<QueryRequest, String> {
    let mut request = QueryRequest::new(args.required("collection")?, args.required("root")?);
    // one child per tag=value flag, under the root tag
    for (flag, preds) in [
        ("eq", &mut request.eq),
        ("contains", &mut request.contains),
        ("similar", &mut request.similar),
        ("below", &mut request.below),
    ] {
        for tv in args.many(flag) {
            let (tag, value) = tag_value(tv)?;
            preds.push((tag.to_string(), value.to_string()));
        }
    }
    if request.eq.is_empty()
        && request.contains.is_empty()
        && request.similar.is_empty()
        && request.below.is_empty()
    {
        return Err("give at least one of --eq/--contains/--similar/--below".into());
    }
    request.tax = args.switch("tax");
    request.class = BudgetClass::Batch;
    request.timeout_ms = parse_u64_flag(args, "timeout-ms")?;
    request.max_terms = parse_u64_flag(args, "max-terms")?;
    request.max_docs = parse_u64_flag(args, "max-docs")?;
    Ok(request)
}

/// `toss-cli query` — run one query in-process through a
/// [`Service`], the same path a server's `query` frame takes.
fn cmd_query(argv: &[String]) -> Result<(), CliFailure> {
    let args = &Args::parse(
        argv,
        &[
            "db", "seo", "collection", "root", "eq", "contains", "similar", "below", "tax",
            "pretty", "explain", "trace-out", "timeout-ms", "max-terms", "max-docs",
        ],
    )?;
    let request = query_request(args)?;
    // Optional trace consumers, installed before the store opens so its
    // spans (snapshot load, a journal-tail SEA re-run) are traced too.
    // Keeping the scopes alive for the whole query keeps tracing
    // enabled; they uninstall on drop.
    let mut scopes: Vec<toss_obs::SinkScope> = Vec::new();
    let memory = if args.switch("explain") {
        let sink = Arc::new(toss_obs::sink::MemorySink::new());
        scopes.push(toss_obs::install_sink_scoped(sink.clone()));
        Some(sink)
    } else {
        None
    };
    if let Some(path) = args.one("trace-out")? {
        let sink = toss_obs::sink::JsonLinesSink::create(Path::new(path))
            .map_err(|e| format!("{path}: {e}"))?;
        scopes.push(toss_obs::install_sink_scoped(Arc::new(sink)));
    }
    let (executor, _) = open_executor(args, None)?;
    let service = Service::new(Arc::new(RwLock::new(executor)), &ServerConfig::default())
        .map_err(|e| e.to_string())?;

    let served = service.query(&request);
    drop(scopes);
    let out = served.result?;

    println!(
        "{} answer(s) in {:?} (rewrite {:?}, execute {:?}, convert {:?})",
        out.forest.len(),
        out.total_time(),
        out.rewrite_time(),
        out.execute_time(),
        out.convert_time()
    );
    println!("xpath: {}", out.xpath);
    if let Some(d) = &out.degradation {
        eprintln!("warning: degraded result: {d}");
    }
    if let Some(sink) = memory {
        let records = sink.drain();
        let trace =
            toss_obs::QueryTrace::for_thread(&records, toss_obs::current_thread_id());
        println!("\nEXPLAIN");
        // the record the server's `slow` frame would carry for it
        if let Some(r) = service.recent(1, None).first() {
            println!(
                "query q{} class {} outcome {} answers {}\n\
                 queue wait {} ms, rewrite {} ms, execute {} ms, convert {} ms, total {} ms\n\
                 charged: {} expansion term(s), {} doc(s) scanned, {} byte(s)",
                r.query_id,
                r.class,
                r.outcome.as_str(),
                r.answers,
                fmt_ms(r.queue_wait_ns),
                fmt_ms(r.rewrite_ns),
                fmt_ms(r.execute_ns),
                fmt_ms(r.convert_ns),
                fmt_ms(r.total_ns),
                r.terms_used,
                r.docs_scanned,
                r.memory_bytes,
            );
            if !r.plan.is_empty() {
                println!("plan: {}", r.plan);
            }
        }
        print!("{}", trace.render());
        let total = out.total_time().as_nanos().max(1) as f64;
        let pct = |d: std::time::Duration| 100.0 * d.as_nanos() as f64 / total;
        println!(
            "phase share: rewrite {:.1}%, execute {:.1}%, convert {:.1}%",
            pct(out.rewrite_time()),
            pct(out.execute_time()),
            pct(out.convert_time())
        );
        let snap = toss_obs::metrics::snapshot();
        for name in [
            "toss.query.expansion_terms",
            "toss.planner.index_probe",
            "toss.planner.scan",
            "toss.planner.probe_candidates",
            "xmldb.xpath.docs_scanned",
            "xmldb.xpath.nodes_matched",
            "toss.semantic.rewrite_cache.hits",
            "toss.semantic.rewrite_cache.misses",
            "toss.semantic.rewrite_cache.evictions",
            "toss.semantic.probe.indexed",
            "toss.semantic.probe.scanned",
            "toss.semantic.probe.candidates",
            "toss.semantic.probe.index_builds",
            "toss.semantic.index_builds",
            "toss.semantic.sea.blocked_runs",
            "toss.semantic.sea.candidate_pairs",
            "toss.join.groups",
            "toss.join.candidates",
            "toss.join.pairs_emitted",
            "toss.governor.admitted",
            "toss.governor.shed",
            "toss.governor.degraded",
            "toss.governor.deadline_exceeded",
            "toss.governor.cancelled",
            "toss.governor.panics",
        ] {
            if let Some(v) = snap.counter(name) {
                println!("{name} = {v}");
            }
        }
        // Index residency: which index answered the probes this process
        // planned against, and what it costs in bytes. `cold_open_source`
        // is 1 when every collection attached its `.seg` sidecar frozen
        // (no rebuild), 0 when any was rebuilt from the snapshot.
        for name in [
            "toss.index.pointer_bytes",
            "toss.index.segment_bytes",
            "toss.index.cold_open_source",
        ] {
            if let Some(v) = snap.gauge(name) {
                println!("{name} = {v}");
            }
        }
        for name in ["xmldb.segment.loads", "xmldb.segment.load_failures"] {
            if let Some(v) = snap.counter(name) {
                println!("{name} = {v}");
            }
        }
        if let Some(h) = snap.histogram("toss.semantic.index_build_ns") {
            println!(
                "toss.semantic.index_build_ns: builds {}, total {:?}, mean {:?}",
                h.count,
                std::time::Duration::from_nanos(h.sum),
                std::time::Duration::from_nanos(h.mean() as u64)
            );
        }
        match &out.degradation {
            Some(d) => println!("degradation: {d}"),
            None => println!("degradation: none (exact result)"),
        }
    }
    let style = if args.switch("pretty") {
        Style::Pretty
    } else {
        Style::Compact
    };
    for t in &out.forest {
        println!("{}", tree_to_xml(t, style));
    }
    service.publish_gauges();
    persist_stats(args.required("db")?);
    Ok(())
}

fn cmd_dot(argv: &[String]) -> Result<(), String> {
    let args = &Args::parse(argv, &["seo"])?;
    let seo_json = std::fs::read_to_string(args.required("seo")?).map_err(|e| e.to_string())?;
    let seo = seo_from_json(&seo_json).map_err(|e| e.to_string())?;
    print!("{}", toss_ontology::dot::seo_to_dot(&seo, "seo"));
    Ok(())
}

/// `toss-cli serve` — run the toss-serve TCP front-end over a store +
/// SEO. Serves until stdin closes (or reads a `shutdown` line), then
/// drains gracefully and reports what the drain did. The store opens by
/// the rule every front door follows (see [`open_executor`]).
///
/// With `--writable`, the store is opened through the durable layer
/// (WAL + snapshot) and mutation frames are accepted: a single writer
/// thread group-commits them to the journal, the ontology grows live
/// (SEO re-enhanced with the same metric/ε the loaded SEO was built
/// with), and background checkpoints fold the journal.
fn cmd_serve(argv: &[String]) -> Result<(), String> {
    use toss_serve::Server;
    let args = &Args::parse(
        argv,
        &[
            "db", "seo", "addr", "writable", "checkpoint-every", "max-conns",
            "max-concurrent", "drain-ms", "allow-shutdown", "flight-capacity",
            "slow-log", "slow-threshold-ms", "slow-sample", "window-ms", "window-buckets",
        ],
    )?;
    // the server flags first: a bad one fails before any file is read
    let mut cfg = ServerConfig {
        allow_shutdown_verb: args.switch("allow-shutdown"),
        ..ServerConfig::default()
    };
    if let Some(n) = parse_u64_flag(args, "max-conns")? {
        cfg.max_connections = n.max(1) as usize;
    }
    if let Some(n) = parse_u64_flag(args, "max-concurrent")? {
        cfg.max_concurrent_queries = n.max(1) as usize;
    }
    if let Some(ms) = parse_u64_flag(args, "drain-ms")? {
        cfg.drain_deadline = Duration::from_millis(ms.max(1));
    }
    if let Some(n) = parse_capped_flag(args, "flight-capacity", MAX_FLIGHT_CAPACITY)? {
        cfg.flight_capacity = n.max(1) as usize;
    }
    if let Some(path) = args.one("slow-log")? {
        cfg.slow_query_log = Some(Path::new(path).to_path_buf());
    }
    if let Some(ms) = parse_u64_flag(args, "slow-threshold-ms")? {
        cfg.slow_threshold = Duration::from_millis(ms);
    }
    if let Some(n) = parse_u64_flag(args, "slow-sample")? {
        // 0 is meaningful: sample nothing but the always-kept slow/error
        // records
        cfg.slow_sample_every = n;
    }
    if let Some(ms) = parse_u64_flag(args, "window-ms")? {
        cfg.window_bucket = Duration::from_millis(ms.max(1));
    }
    if let Some(n) = parse_capped_flag(args, "window-buckets", MAX_WINDOW_BUCKETS)? {
        cfg.window_buckets = n.max(2) as usize;
    }
    let mut write = args.switch("writable").then(WriteConfig::default);
    if let (Some(w), Some(n)) = (&mut write, parse_u64_flag(args, "checkpoint-every")?) {
        w.checkpoint_every = n as usize;
    }
    let writable = write.is_some();
    let (executor, write_engine) = open_executor(args, write)?;

    let addr = args.one("addr")?.unwrap_or("127.0.0.1:7464");
    let executor = Arc::new(RwLock::new(executor));
    let server = match write_engine {
        Some(engine) => Server::start_writable(executor, engine, addr, cfg),
        None => Server::start(executor, addr, cfg),
    }
    .map_err(|e| format!("{addr}: {e}"))?;
    println!(
        "toss-serve listening on {}{}",
        server.local_addr(),
        if writable { " (writable)" } else { "" }
    );
    println!("budget classes: {}", budget_class_summary());
    println!("send EOF or a `shutdown` line on stdin to drain and exit");

    // Stdin watcher: the lowest-common-denominator shutdown signal that
    // needs no libc. Closing stdin (or a `shutdown` line) requests the
    // drain; `serve_until_shutdown` performs it.
    let handle = server.shutdown_handle();
    std::thread::Builder::new()
        .name("toss-serve-stdin".into())
        .spawn(move || {
            let stdin = std::io::stdin();
            let mut line = String::new();
            loop {
                line.clear();
                match std::io::BufRead::read_line(&mut stdin.lock(), &mut line) {
                    Ok(0) => break, // EOF
                    Ok(_) if line.trim() == "shutdown" => break,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            handle.request_shutdown();
        })
        .map_err(|e| e.to_string())?;

    let report = server.serve_until_shutdown();
    println!(
        "drained in {:?}: {} completed, {} cancelled, {} force-closed",
        report.duration, report.drained, report.cancelled, report.forced_closes
    );
    persist_stats(args.required("db")?);
    Ok(())
}

/// Each budget class's default deadline, term and document ceilings,
/// for the `serve` banner.
fn budget_class_summary() -> String {
    toss_serve::BudgetClass::ALL
        .iter()
        .map(|c| {
            let b = c.budget(None, None, None);
            format!(
                "{}: deadline {:?}, terms {}, docs {}",
                c.as_str(),
                b.deadline.unwrap(),
                b.max_expansion_terms.unwrap(),
                b.max_docs_scanned.unwrap(),
            )
        })
        .collect::<Vec<_>>()
        .join("; ")
}

/// Nanoseconds → a fixed-width milliseconds column.
fn fmt_ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// Render one `top` refresh: a header line, the per-class SLO table,
/// and (optionally) the newest flight-recorder entries.
fn render_top(
    addr: &str,
    stats: &toss_serve::StatsReply,
    recent: &[toss_obs::QueryRecord],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "toss-serve {addr} — up {:.1}s, {} in flight, {} conn(s), \
         flight {}/{} (lifetime {})",
        stats.uptime_ms as f64 / 1e3,
        stats.inflight,
        stats.connections,
        stats.flight_retained,
        stats.flight_capacity,
        stats.flight_recorded,
    );
    if stats.write.writable {
        let w = &stats.write;
        let health = if w.degraded {
            format!("  DEGRADED (read-only): {}", w.reason)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "writes: {} applied ({} deduped, {} rejected) in {} batch(es), \
             {} checkpoint(s), last fsync {} ms, seq {}, rev {}{}",
            w.applied,
            w.deduped,
            w.rejected,
            w.batches,
            w.checkpoints,
            fmt_ms(w.last_fsync_ns),
            w.last_seq,
            w.revision,
            health,
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:>7} {:>6} {:>6} {:>10} {:>10} {:>10} {:>7} {:>7}  {:>9}",
        "class", "req", "err", "shed", "p50 ms", "p95 ms", "p99 ms", "err%", "shed%", "window s"
    );
    for (class, w) in &stats.windows {
        let _ = writeln!(
            out,
            "{:<12} {:>7} {:>6} {:>6} {:>10} {:>10} {:>10} {:>7.2} {:>7.2}  {:>9.1}",
            class,
            w.requests,
            w.errors,
            w.shed,
            fmt_ms(w.p50_ns),
            fmt_ms(w.p95_ns),
            fmt_ms(w.p99_ns),
            w.error_rate_bps as f64 / 100.0,
            w.shed_rate_bps as f64 / 100.0,
            w.window_ms as f64 / 1e3,
        );
    }
    if !recent.is_empty() {
        let _ = writeln!(out, "\nrecent queries (newest first):");
        for r in recent {
            let degraded = if r.degraded.is_empty() {
                String::new()
            } else {
                format!("  degraded: {}", r.degraded.join("; "))
            };
            let cause = if r.cause.is_empty() {
                String::new()
            } else {
                format!(" ({})", r.cause)
            };
            // write records lead with their verb and carry the
            // group-commit figures a read query has no use for
            let what = if r.op.is_empty() {
                r.query.clone()
            } else {
                format!(
                    "{} {} [batch {}, fsync {} ms{}]",
                    r.op,
                    r.query,
                    r.batch_size,
                    fmt_ms(r.fsync_ns),
                    if r.deduped { ", deduped" } else { "" },
                )
            };
            let _ = writeln!(
                out,
                "  q{:<8} {:<12} {:>9} ms  {:<5}{} {}{}",
                r.query_id,
                r.class,
                fmt_ms(r.total_ns),
                r.outcome.as_str(),
                cause,
                what,
                degraded,
            );
        }
    }
    out
}

/// `toss-cli top` — poll a running server's `stats` (and `slow`) admin
/// frames and render a refreshing per-class SLO dashboard. The screen
/// is cleared between refreshes only when stdout is a terminal, so
/// piped output stays a readable log.
fn cmd_top(argv: &[String]) -> Result<(), String> {
    use std::io::IsTerminal;
    let args = &Args::parse(argv, &["addr", "interval-ms", "iterations", "slow"])?;
    let addr = args.one("addr")?.unwrap_or("127.0.0.1:7464").to_string();
    let interval = Duration::from_millis(
        parse_u64_flag(args, "interval-ms")?.unwrap_or(1_000).max(50),
    );
    let iterations = parse_u64_flag(args, "iterations")?.unwrap_or(0);
    let slow_n = parse_u64_flag(args, "slow")?.unwrap_or(5) as usize;
    let mut client =
        toss_serve::Client::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let clear = std::io::stdout().is_terminal();
    let mut tick = 0u64;
    loop {
        let stats = client.stats().map_err(|e| format!("{addr}: {e}"))?;
        let recent = if slow_n > 0 {
            client.slow(slow_n, None).map_err(|e| format!("{addr}: {e}"))?
        } else {
            Vec::new()
        };
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", render_top(&addr, &stats, &recent));
        tick += 1;
        if iterations > 0 && tick >= iterations {
            break;
        }
        std::thread::sleep(interval);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("toss-cli-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(run(&argv("frobnicate")).is_err());
        assert!(run(&[]).is_err());
    }

    #[test]
    fn end_to_end_load_build_query() {
        let xml_path = tmp("papers.xml");
        std::fs::write(
            &xml_path,
            "<inproceedings><author>Jeff Ullman</author>\
             <booktitle>SIGMOD Conference</booktitle></inproceedings>\
             <inproceedings><author>Jeff Ullmann</author>\
             <booktitle>VLDB</booktitle></inproceedings>",
        )
        .expect("write xml");
        let db_path = tmp("store.json");
        let seo_path = tmp("seo.json");
        std::fs::remove_file(&db_path).ok();

        run(&argv(&format!(
            "load --db {} --collection dblp {}",
            db_path.display(),
            xml_path.display()
        )))
        .expect("load");
        run(&argv(&format!(
            "xpath --db {} --collection dblp //author",
            db_path.display()
        )))
        .expect("xpath");
        run(&argv(&format!(
            "build-seo --db {} --epsilon 3 --out {}",
            db_path.display(),
            seo_path.display()
        )))
        .expect("build-seo");
        run(&argv(&format!(
            "query --db {} --seo {} --collection dblp --root inproceedings --similar author=Jeff~Ullman",
            db_path.display(),
            seo_path.display()
        ))
        .iter()
        .map(|s| s.replace('~', " "))
        .collect::<Vec<_>>())
        .expect("query");
        run(&argv(&format!("dot --seo {}", seo_path.display()))).expect("dot");
    }

    #[test]
    fn build_seo_refuses_an_epsilon_no_seo_can_carry() {
        let xml_path = tmp("epsilon.xml");
        std::fs::write(
            &xml_path,
            "<inproceedings><author>A</author></inproceedings>",
        )
        .expect("write xml");
        let db_path = tmp("epsilon-store.json");
        let seo_path = tmp("epsilon-seo.json");
        std::fs::remove_file(&db_path).ok();
        run(&argv(&format!(
            "load --db {} --collection dblp {}",
            db_path.display(),
            xml_path.display()
        )))
        .expect("load");
        for eps in ["nan", "inf", "-1", "x"] {
            std::fs::remove_file(&seo_path).ok();
            let err = run(&argv(&format!(
                "build-seo --db {} --epsilon {eps} --out {}",
                db_path.display(),
                seo_path.display()
            )))
            .expect_err("a threshold no stored SEO can carry");
            assert_eq!(err.code, EXIT_USAGE, "--epsilon {eps}");
            assert_eq!(
                err.message,
                format!("--epsilon must be a finite non-negative number, got `{eps}`")
            );
            assert!(!seo_path.exists(), "--epsilon {eps} wrote an SEO");
        }
    }

    /// Selections run on the calling thread, so neither front door takes
    /// a thread count: `--threads` is an unknown flag like any other.
    #[test]
    fn query_and_serve_refuse_a_thread_count() {
        let xml_path = tmp("threaded.xml");
        std::fs::write(
            &xml_path,
            "<inproceedings><author>A</author></inproceedings>\
             <inproceedings><author>B</author></inproceedings>",
        )
        .expect("write xml");
        let db_path = tmp("threaded-store.json");
        let seo_path = tmp("threaded-seo.json");
        std::fs::remove_file(&db_path).ok();
        run(&argv(&format!(
            "load --db {} --collection dblp {}",
            db_path.display(),
            xml_path.display()
        )))
        .expect("load");
        run(&argv(&format!(
            "build-seo --db {} --epsilon 1 --out {}",
            db_path.display(),
            seo_path.display()
        )))
        .expect("build-seo");
        let query = format!(
            "query --db {} --seo {} --collection dblp --root inproceedings --eq author=A",
            db_path.display(),
            seo_path.display()
        );
        run(&argv(&query)).expect("the query without --threads");
        let err = run(&argv(&format!("{query} --threads 4")))
            .expect_err("--threads is not a query flag");
        assert!(err.message.contains("unknown flag --threads"), "{}", err.message);
        let err = run(&argv(&format!(
            "serve --db {} --seo {} --threads 2",
            db_path.display(),
            seo_path.display()
        )))
        .expect_err("--threads is not a serve flag");
        assert!(err.message.contains("unknown flag --threads"), "{}", err.message);
    }

    #[test]
    fn db_checkpoint_and_recover_round_trip() {
        let xml_path = tmp("ckpt.xml");
        std::fs::write(&xml_path, "<a><b>1</b></a>").expect("write xml");
        let db_path = tmp("ckpt-store.json");
        std::fs::remove_file(&db_path).ok();
        std::fs::remove_file(DurableDatabase::wal_path(&db_path)).ok();

        run(&argv(&format!(
            "load --db {} --collection c {}",
            db_path.display(),
            xml_path.display()
        )))
        .expect("load");
        run(&argv(&format!("db checkpoint --db {}", db_path.display()))).expect("checkpoint");
        run(&argv(&format!("db recover --db {}", db_path.display()))).expect("recover");
        // the store still answers queries after checkpoint + recover
        run(&argv(&format!(
            "xpath --db {} --collection c //b",
            db_path.display()
        )))
        .expect("xpath");
        assert!(run(&argv(&format!("db frob --db {}", db_path.display()))).is_err());
        assert!(run(&argv("db")).is_err());
    }

    /// `db recover` sets a damaged ontology sidecar aside and writes the
    /// store without it, so strict opens work again.
    #[test]
    fn db_recover_discards_a_damaged_ontology_sidecar() {
        let xml_path = tmp("ont-damaged.xml");
        std::fs::write(&xml_path, "<a><b>1</b></a>").expect("write xml");
        let db_path = tmp("ont-damaged-store.json");
        let sidecar = DurableDatabase::ontology_path(&db_path);
        let corrupt = sidecar.with_extension("json.corrupt");
        for path in [&db_path, &sidecar, &corrupt] {
            std::fs::remove_file(path).ok();
        }
        std::fs::remove_file(DurableDatabase::wal_path(&db_path)).ok();
        let db = db_path.display();
        run(&argv(&format!("load --db {db} --collection c {}", xml_path.display())))
            .expect("load");
        std::fs::write(&sidecar, "{\"cursor\":").expect("damage the sidecar");
        assert!(run(&argv(&format!("db checkpoint --db {db}"))).is_err());

        run(&argv(&format!("db recover --db {db}"))).expect("recover");
        assert_eq!(std::fs::read(&corrupt).expect("quarantined"), b"{\"cursor\":");
        assert!(!sidecar.exists());
        run(&argv(&format!("db checkpoint --db {db}"))).expect("checkpoint");
        run(&argv(&format!("xpath --db {db} --collection c //b"))).expect("xpath");
    }

    #[test]
    fn query_requires_a_condition() {
        // missing condition flags must be a clean error (store/seo not read
        // before validation because required() runs first — so create them)
        let db_path = tmp("store2.json");
        let seo_path = tmp("seo2.json");
        std::fs::remove_file(&db_path).ok();
        let xml_path = tmp("one.xml");
        std::fs::write(&xml_path, "<a><b>1</b></a>").expect("write");
        run(&argv(&format!(
            "load --db {} --collection c {}",
            db_path.display(),
            xml_path.display()
        )))
        .expect("load");
        run(&argv(&format!(
            "build-seo --db {} --epsilon 1 --out {}",
            db_path.display(),
            seo_path.display()
        )))
        .expect("build-seo");
        let e = run(&argv(&format!(
            "query --db {} --seo {} --collection c --root a",
            db_path.display(),
            seo_path.display()
        )))
        .unwrap_err();
        assert!(e.message.contains("at least one"));
        assert_eq!(e.code, EXIT_USAGE);
    }

    /// Build a tiny store + SEO pair once per test that needs one.
    fn store_and_seo(prefix: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let xml_path = tmp(&format!("{prefix}.xml"));
        std::fs::write(
            &xml_path,
            "<inproceedings><author>Jeff Ullman</author></inproceedings>\
             <inproceedings><author>Jeff Ullmann</author></inproceedings>",
        )
        .expect("write xml");
        let db_path = tmp(&format!("{prefix}-store.json"));
        let seo_path = tmp(&format!("{prefix}-seo.json"));
        std::fs::remove_file(&db_path).ok();
        run(&argv(&format!(
            "load --db {} --collection dblp {}",
            db_path.display(),
            xml_path.display()
        )))
        .expect("load");
        run(&argv(&format!(
            "build-seo --db {} --epsilon 2 --out {}",
            db_path.display(),
            seo_path.display()
        )))
        .expect("build-seo");
        (db_path, seo_path)
    }

    /// Serializes the tests that read the process-global
    /// `toss.serve.window.*` gauges against the one that runs a server.
    static SERVE_GAUGES: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn zero_timeout_means_the_batch_class_ceiling() {
        let (db_path, seo_path) = store_and_seo("timeout");
        let line = format!(
            "query --db {} --seo {} --collection dblp --root inproceedings \
             --eq author=Jeff:Ullman --timeout-ms 0",
            db_path.display(),
            seo_path.display()
        );
        let line: Vec<String> = argv(&line).iter().map(|s| s.replace(':', " ")).collect();
        // --timeout-ms 0 asks for no override: the query runs under the
        // `batch` class's 30 s deadline, and completes
        let args = Args::parse(&line[1..], &["db", "seo", "collection", "root", "eq", "timeout-ms"])
            .expect("flags parse");
        let request = query_request(&args).expect("request");
        assert_eq!(request.class, BudgetClass::Batch);
        let budget = request
            .class
            .budget(request.timeout_ms, request.max_terms, request.max_docs);
        assert_eq!(budget.deadline, Some(Duration::from_secs(30)));
        run(&line).expect("--timeout-ms 0 must run under the class ceiling");
    }

    #[test]
    fn query_runs_through_the_service_telemetry() {
        let (db_path, seo_path) = store_and_seo("telemetry");
        let spans_path = tmp("telemetry-spans.jsonl");
        let _gauges = SERVE_GAUGES.lock().unwrap_or_else(|e| e.into_inner());
        run(&argv(&format!(
            "query --db {} --seo {} --collection dblp --root inproceedings \
             --contains author=Jeff --trace-out {}",
            db_path.display(),
            seo_path.display(),
            spans_path.display()
        )))
        .expect("query");
        // the store open is traced too: its snapshot load, on this thread
        let spans = std::fs::read_to_string(&spans_path).expect("trace-out file");
        let load = format!(
            "\"name\":\"xmldb.snapshot.load\",\"thread\":{},",
            toss_obs::current_thread_id()
        );
        assert!(spans.lines().any(|l| l.contains(&load)), "{spans}");
        // the query was recorded in the service's `batch` SLO window,
        // and the window reached the persisted stats document
        let text = std::fs::read_to_string(stats_path(&db_path.display().to_string()))
            .expect("stats document");
        let doc = toss_json::Value::parse(&text).expect("stats document parses");
        let requests = doc
            .get("gauges")
            .and_then(|g| g.get("toss.serve.window.batch.requests"))
            .and_then(|v| v.as_i64());
        assert_eq!(requests, Some(1), "{text}");
    }

    #[test]
    fn misspelt_query_flag_is_a_usage_error_naming_it() {
        // refused before any store is opened
        let e = run(&argv(&format!(
            "query --db {} --seo {} --collection dblp --root inproceedings \
             --eq author=A --timeout 1",
            tmp("no-such-store.json").display(),
            tmp("no-such-seo.json").display(),
        )))
        .unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.contains("--timeout"), "{}", e.message);
    }

    #[test]
    fn tiny_timeout_exits_with_budget_code() {
        let (db_path, seo_path) = store_and_seo("tiny-timeout");
        // a 0-duration deadline cannot be expressed any more; the
        // smallest expressible deadline (1 ms) still has to expire by
        // the time the governor's pre-scan admission check runs on a
        // similarity query that must expand terms first
        let e = run(&argv(&format!(
            "query --db {} --seo {} --collection dblp --root inproceedings \
             --similar author=Jeff:Ullman --timeout-ms 1 --max-docs 1",
            db_path.display(),
            seo_path.display()
        ))
        .iter()
        .map(|s| s.replace(':', " "))
        .collect::<Vec<_>>());
        match e {
            // on a fast machine the query may finish inside 1 ms — both
            // outcomes are legal; what must never happen is a hang or a
            // non-budget failure
            Ok(()) => {}
            Err(e) => assert_eq!(e.code, EXIT_BUDGET, "{}", e.message),
        }
    }

    #[test]
    fn soft_doc_budget_degrades_but_succeeds() {
        let (db_path, seo_path) = store_and_seo("maxdocs");
        // two documents in the store; a 1-doc soft budget degrades
        run(&argv(&format!(
            "query --db {} --seo {} --collection dblp --root inproceedings \
             --contains author=Jeff --max-docs 1",
            db_path.display(),
            seo_path.display()
        )))
        .expect("soft budget must not fail the query");
    }

    #[test]
    fn stats_document_carries_the_stats_frame_window_schema() {
        // publish one class's windowed gauges the way the server does,
        // then check the persisted document groups them back into the
        // live `stats`-frame shape
        let snap = toss_obs::RollingWindow::new(Duration::from_secs(1), 5).snapshot();
        snap.publish_gauges("toss.serve.window.interactive");
        let doc = stats_document(&toss_obs::metrics::snapshot());
        let v = toss_json::Value::parse(&doc).expect("stats document parses");
        let w = v
            .get("windows")
            .and_then(|w| w.get("interactive"))
            .expect("windows.interactive present");
        for field in [
            "requests", "errors", "shed", "p50_ns", "p95_ns", "p99_ns",
            "error_rate_bps", "shed_rate_bps", "window_ms",
        ] {
            assert!(w.get(field).is_some(), "windows.interactive.{field} missing");
        }
        assert_eq!(w.get("window_ms").and_then(|x| x.as_i64()), Some(5_000));
        // the classic snapshot sections survive the splice
        assert!(v.get("counters").is_some());
        assert!(v.get("gauges").is_some());
        assert!(snapshot_from_json(&doc).is_ok(), "stats reader still parses it");
    }

    #[test]
    fn top_polls_a_live_server_and_renders_every_class() {
        let (db_path, seo_path) = store_and_seo("top");
        let _gauges = SERVE_GAUGES.lock().unwrap_or_else(|e| e.into_inner());
        let db = load_db(&db_path.display().to_string()).expect("open store");
        let seo_json = std::fs::read_to_string(&seo_path).expect("read seo");
        let seo = Arc::new(seo_from_json(&seo_json).expect("parse seo"));
        let executor = Executor::new(db, seo).with_probe_metric(Arc::new(default_metric()));
        let server = toss_serve::Server::start(
            Arc::new(std::sync::RwLock::new(executor)),
            "127.0.0.1:0",
            toss_serve::ServerConfig::default(),
        )
        .expect("start server");
        let addr = server.local_addr().to_string();

        // drive one query through the wire so the dashboard has data
        let mut client = toss_serve::Client::connect(addr.as_str()).expect("connect");
        let mut q = toss_serve::QueryRequest::new("dblp", "inproceedings");
        q.eq.push(("author".into(), "Jeff Ullman".into()));
        let reply = client.query(q).expect("query");
        assert!(reply.query_id > 0, "replies carry the query id");

        // the subcommand itself: one non-interactive refresh
        run(&argv(&format!("top --addr {addr} --iterations 1 --slow 3")))
            .expect("top --iterations 1");

        // and the renderer shows every budget class plus the query we ran
        let stats = client.stats().expect("stats");
        let recent = client.slow(3, None).expect("slow");
        let screen = render_top(&addr, &stats, &recent);
        for class in ["best_effort", "interactive", "batch"] {
            assert!(screen.contains(class), "missing class {class} in:\n{screen}");
        }
        assert!(
            screen.contains(&format!("q{}", reply.query_id)),
            "recent queries must show q{}:\n{screen}",
            reply.query_id
        );
        server.shutdown();
    }

    #[test]
    fn bad_budget_flag_is_a_usage_error() {
        let (db_path, seo_path) = store_and_seo("badflag");
        let e = run(&argv(&format!(
            "query --db {} --seo {} --collection dblp --root inproceedings \
             --contains author=Jeff --timeout-ms many",
            db_path.display(),
            seo_path.display()
        )))
        .unwrap_err();
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.contains("timeout-ms"));
    }

    #[test]
    fn serve_refuses_flags_above_their_ceiling() {
        // refused before the (absent) store or SEO file is opened
        for (flag, value) in [
            ("flight-capacity", MAX_FLIGHT_CAPACITY + 1),
            ("window-buckets", MAX_WINDOW_BUCKETS + 1),
            ("flight-capacity", u64::MAX),
        ] {
            let e = run(&argv(&format!(
                "serve --db {} --seo {} --{flag} {value}",
                tmp("no-such-store.json").display(),
                tmp("no-such-seo.json").display(),
            )))
            .unwrap_err();
            assert_eq!(e.code, EXIT_USAGE);
            assert!(
                e.message.contains(&format!("--{flag} must be at most")),
                "{flag}: {}",
                e.message
            );
        }
    }
}
