//! Every metric and span name the product registers has a reader.
//!
//! `docs/observability.md`'s catalogue is the one list of them: a row
//! per name with its kind, what it measures and what reads it. The first
//! test checks that table against the product sources, and another
//! checks that every name the docs give exists. The others are
//! the reader the catalogue names for the spans and metrics that no
//! command, script or benchmark reads: they run each operation once
//! under a trace sink and assert the spans nest as catalogued and the
//! metrics moved. The registry is process-global and tests run in
//! parallel, so each reads only its own thread's spans, and metric
//! checks are lower bounds.

use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};
use toss_core::algebra::{JoinKey, TossPattern};
use toss_core::executor::Mode;
use toss_core::governor::QueryGovernor;
use toss_core::tax::{EdgeKind, ProjectEntry};
use toss_core::{Executor, TossCond, TossQuery, TossTerm};
use toss_obs::sink::MemorySink;
use toss_obs::{QueryTrace, SpanRecord};
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_ontology::{fuse, Constraint};
use toss_serve::{Server, ServerConfig};
use toss_similarity::Levenshtein;
use toss_xmldb::{Database, DatabaseConfig, DurableDatabase, FaultMode, FaultVfs, XPath};

const PREFIXES: [&str; 3] = ["toss.", "xmldb.", "ontology."];

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The metric and span names written as string literals in the product
/// code of `crates/*/src`, with the file that holds each. A file is read
/// up to its inline `#[cfg(test)] mod … {`; a file declared as
/// `#[cfg(test)] mod x;` is skipped, and so are comment lines. A name
/// built with `format!` keeps its `{…}` placeholders.
fn product_names(root: &Path) -> Vec<(String, PathBuf)> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    let mut test_modules = Vec::new();
    let mut names = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file).expect("readable source");
        let mut gated = false;
        for line in text.lines().map(str::trim) {
            let declared = line
                .strip_prefix("mod ")
                .or(line.strip_prefix("pub(crate) mod "));
            if gated {
                match declared.map(|rest| rest.trim_end_matches(';')) {
                    Some(rest) if rest.ends_with('{') => break,
                    Some(module) => test_modules.push(module_file(file, module)),
                    None => {}
                }
            }
            gated = line == "#[cfg(test)]";
            if line.starts_with("//") {
                continue;
            }
            for literal in line.split('"').skip(1).step_by(2) {
                let is_name = PREFIXES.iter().any(|p| literal.starts_with(p))
                    && literal.bytes().all(|b| {
                        b.is_ascii_lowercase() || b.is_ascii_digit() || b"_.{}".contains(&b)
                    });
                if is_name {
                    names.push((literal.to_string(), file.clone()));
                }
            }
        }
    }
    names.retain(|(_, file)| !test_modules.contains(file));
    names
}

/// The file of module `name` declared in `parent`.
fn module_file(parent: &Path, name: &str) -> PathBuf {
    let dir = parent.parent().expect("file in a dir");
    let stem = parent.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    let base = if ["lib", "main", "mod"].contains(&stem) {
        dir.to_path_buf()
    } else {
        dir.join(stem)
    };
    base.join(format!("{name}.rs"))
}

/// One catalogue row: its names (brace groups expanded) and its reader.
struct Row {
    pattern: String,
    names: Vec<String>,
    reader: String,
}

/// The rows of the `| name | kind | measures | reader |` table.
fn catalogue(doc: &str) -> Vec<Row> {
    let mut lines = doc
        .lines()
        .skip_while(|l| !l.starts_with("| name | kind | measures | reader |"))
        .skip(2);
    let mut rows = Vec::new();
    while let Some(line) = lines.next().filter(|l| l.starts_with('|')) {
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        assert_eq!(cells.len(), 4, "catalogue row needs four cells: {line}");
        let pattern = cells[0].trim_matches('`').to_string();
        rows.push(Row {
            names: expand_braces(&pattern),
            pattern,
            reader: cells[3].to_string(),
        });
    }
    assert!(
        !rows.is_empty(),
        "no catalogue table in docs/observability.md"
    );
    rows
}

/// `a.{b,c}.d` → `a.b.d`, `a.c.d`.
fn expand_braces(pattern: &str) -> Vec<String> {
    let Some(open) = pattern.find('{') else {
        return vec![pattern.to_string()];
    };
    let close = open + pattern[open..].find('}').expect("closed brace group");
    pattern[open + 1..close]
        .split(',')
        .flat_map(|alt| {
            expand_braces(&format!(
                "{}{alt}{}",
                &pattern[..open],
                &pattern[close + 1..]
            ))
        })
        .collect()
}

/// Whether `text` matches `pattern`, in which each run from `open` to
/// `close` stands for one or more characters.
fn glob(pattern: &str, open: char, close: char, text: &str) -> bool {
    match pattern.strip_prefix(open) {
        Some(rest) => {
            let rest = &rest[rest.find(close).expect("closed placeholder") + 1..];
            text.char_indices()
                .skip(1)
                .map(|(i, _)| i)
                .chain([text.len()])
                .any(|i| glob(rest, open, close, &text[i..]))
        }
        None => match (pattern.chars().next(), text.chars().next()) {
            (None, None) => true,
            (Some(p), Some(t)) if p == t => {
                glob(&pattern[p.len_utf8()..], open, close, &text[t.len_utf8()..])
            }
            _ => false,
        },
    }
}

/// Whether a source name (`{…}` placeholders) and a catalogue name
/// (`<…>` placeholders) can denote the same registered name.
fn covers(source: &str, catalogued: &str) -> bool {
    glob(source, '{', '}', catalogued) || glob(catalogued, '<', '>', source)
}

#[test]
fn every_registered_name_has_a_catalogue_row_with_a_reader() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("docs/observability.md")).expect("catalogue");
    let rows = catalogue(&doc);
    let sources = product_names(root);
    assert!(
        sources.len() > 50,
        "the scan found only {} names",
        sources.len()
    );
    let mut problems = Vec::new();
    for (name, file) in &sources {
        if !rows.iter().any(|r| r.names.iter().any(|n| covers(name, n))) {
            let file = file.strip_prefix(root).unwrap_or(file);
            problems.push(format!(
                "`{name}` ({}) has no catalogue row",
                file.display()
            ));
        }
    }
    for row in &rows {
        if row.reader.is_empty() {
            problems.push(format!("row `{}` names no reader", row.pattern));
        }
        for name in &row.names {
            if !sources.iter().any(|(s, _)| covers(s, name)) {
                problems.push(format!(
                    "row `{}`: no product code registers `{name}`",
                    row.pattern
                ));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "docs/observability.md catalogue:\n{}",
        problems.join("\n")
    );
}

#[test]
fn the_name_matcher_reads_both_placeholder_forms() {
    assert_eq!(expand_braces("a.{b,c}.d"), ["a.b.d", "a.c.d"]);
    assert!(covers(
        "toss.serve.window.{}",
        "toss.serve.window.<class>.p50_ns"
    ));
    assert!(covers(
        "toss.serve.errors.bad_request",
        "toss.serve.errors.<code>"
    ));
    assert!(covers(
        "toss.semantic.probe.{name}",
        "toss.semantic.probe.indexed"
    ));
    assert!(!covers("toss.join", "toss.join.emit"));
    assert!(!covers("toss.serve.errors.{}", "toss.serve.errors"));
}

/// The backticked names in markdown `text` that start with one of
/// [`PREFIXES`], outside fenced code blocks: each code span's leading
/// run of name characters, brace groups and placeholders included.
fn doc_names(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        }
        if fenced {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let end = span
                .find(|c: char| {
                    !(c.is_ascii_lowercase() || c.is_ascii_digit() || "_.{},<>*".contains(c))
                })
                .unwrap_or(span.len());
            let name = &span[..end];
            if PREFIXES.iter().any(|p| name.starts_with(p)) {
                names.push(name.to_string());
            }
        }
    }
    names
}

/// Every string literal in the benchmark's sources (`benchmark/src/*.rs`).
fn benchmark_literals(root: &Path) -> Vec<String> {
    let mut files = Vec::new();
    rust_files(&root.join("benchmark/src"), &mut files);
    let mut literals = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable benchmark source");
        for line in text.lines() {
            literals.extend(line.split('"').skip(1).step_by(2).map(str::to_string));
        }
    }
    literals
}

/// Whether a name a doc gives denotes something that exists: each of
/// its brace expansions is a catalogue name (a trailing `.*` matching
/// any catalogue name it prefixes) or a string the benchmark emits.
fn exists(name: &str, catalogued: &[String], benchmark: &[String]) -> bool {
    expand_braces(name)
        .iter()
        .all(|n| match n.strip_suffix('*') {
            Some(prefix) => catalogued.iter().any(|c| c.starts_with(prefix)),
            None => catalogued.iter().any(|c| glob(c, '<', '>', n)) || benchmark.contains(n),
        })
}

/// The docs name only metrics and spans that exist: what the product
/// registers (the catalogue, which the test above keeps honest) or what
/// the benchmark reports. ROADMAP.md and CHANGES.md are history and are
/// not read.
#[test]
fn every_name_the_docs_give_is_catalogued_or_a_benchmark_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(root.join("docs/observability.md")).expect("catalogue");
    let catalogued: Vec<String> = catalogue(&doc).into_iter().flat_map(|r| r.names).collect();
    let benchmark = benchmark_literals(root);
    assert!(exists("toss.governor.panics", &catalogued, &benchmark));
    assert!(exists("xmldb.open_ms_p50", &catalogued, &benchmark));
    assert!(!exists("toss.governor.made_up", &catalogued, &benchmark));

    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "md"))
        .collect();
    docs.sort();
    docs.extend(["README.md", "DESIGN.md"].map(|f| root.join(f)));
    let mut problems = Vec::new();
    for path in &docs {
        let text = std::fs::read_to_string(path).expect("readable doc");
        for name in doc_names(&text) {
            if !exists(&name, &catalogued, &benchmark) {
                let path = path.strip_prefix(root).unwrap_or(path);
                problems.push(format!("{}: `{name}`", path.display()));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "names no product code registers and the benchmark does not emit:\n{}",
        problems.join("\n")
    );
}

/// This thread's spans from `sink`, as trees.
fn my_spans(sink: &MemorySink) -> QueryTrace {
    let records: Vec<SpanRecord> = sink.records();
    QueryTrace::for_thread(&records, toss_obs::current_thread_id())
}

/// The names of `parent`'s children under the root named `root`.
fn children(trace: &QueryTrace, root: &str, parent: &str) -> Vec<&'static str> {
    let node = trace
        .roots
        .iter()
        .find(|r| r.record.name == root)
        .unwrap_or_else(|| panic!("no `{root}` root span"))
        .find(parent)
        .unwrap_or_else(|| panic!("no `{parent}` under `{root}`"));
    node.children.iter().map(|c| c.record.name).collect()
}

fn counter(name: &str) -> u64 {
    toss_obs::metrics::snapshot().counter(name).unwrap_or(0)
}

fn histogram_count(name: &str) -> u64 {
    toss_obs::metrics::snapshot()
        .histogram(name)
        .map_or(0, |h| h.count)
}

#[test]
fn store_spans_nest_as_catalogued_and_store_metrics_move() {
    let sink = Arc::new(MemorySink::new());
    let _scope = toss_obs::install_sink_scoped(sink.clone());
    let vfs = Arc::new(FaultVfs::new());
    let path = "/telemetry-store.json";
    let config = DatabaseConfig::unlimited;

    let (mut store, _) = DurableDatabase::open_with(path, config(), vfs.clone()).expect("open");
    store.create_collection("dblp").expect("create");
    store
        .insert_xml("dblp", "<inproceedings><author>A</author></inproceedings>")
        .expect("insert");
    vfs.fail_op(vfs.op_count(), FaultMode::Error);
    store
        .insert_xml("dblp", "<inproceedings><author>B</author></inproceedings>")
        .expect_err("the armed fault fails the append");
    store.checkpoint().expect("checkpoint");
    drop(store);
    DurableDatabase::open_with(path, config(), vfs.clone()).expect("reopen");
    DurableDatabase::recover_with(path, config(), vfs).expect("recover");
    XPath::parse("//inproceedings[author='A']").expect("valid XPath");

    let trace = my_spans(&sink);
    let roots: Vec<&str> = trace.roots.iter().map(|r| r.record.name).collect();
    for name in [
        "xmldb.journal.append",
        "xmldb.checkpoint",
        "xmldb.recover",
        "xmldb.xpath.parse",
    ] {
        assert!(roots.contains(&name), "no `{name}` root in {roots:?}");
    }
    assert_eq!(
        children(&trace, "xmldb.checkpoint", "xmldb.checkpoint"),
        ["xmldb.snapshot.write"]
    );
    assert!(children(&trace, "xmldb.recover", "xmldb.recover").contains(&"xmldb.snapshot.load"));
    for name in [
        "xmldb.journal.appends",
        "xmldb.journal.fsyncs",
        "xmldb.journal.bytes_appended",
        "xmldb.journal.append_failures",
        "xmldb.snapshot.loads",
        "xmldb.snapshot.writes",
        "xmldb.xpath.parses",
    ] {
        assert!(counter(name) > 0, "{name}");
    }
    for name in [
        "xmldb.journal.batch_ops",
        "xmldb.journal.append_ns",
        "xmldb.snapshot.write_ns",
    ] {
        assert!(histogram_count(name) > 0, "{name}");
    }
}

fn author_query(collection: &str) -> TossQuery {
    TossQuery {
        collection: collection.into(),
        pattern: TossPattern::spine(
            &[EdgeKind::ParentChild],
            TossCond::all(vec![
                TossCond::eq(TossTerm::tag(1), TossTerm::str("inproceedings")),
                TossCond::eq(TossTerm::tag(2), TossTerm::str("author")),
                TossCond::similar(TossTerm::content(2), TossTerm::str("Jeff Ullmann")),
            ]),
        )
        .expect("spine pattern"),
        expand_labels: vec![1],
    }
}

#[test]
fn ontology_query_join_and_drain_spans_nest_as_catalogued() {
    let sink = Arc::new(MemorySink::new());
    let _scope = toss_obs::install_sink_scoped(sink.clone());
    let projects = counter("toss.query.projects");
    let selects = counter("toss.query.selects");
    let rewrites = histogram_count("toss.query.rewrite_ns");

    let people = from_pairs(&[("Jeff Ullman", "author"), ("Jeff Ullmann", "author")]).expect("h");
    let venues = from_pairs(&[("SIGMOD", "conference")]).expect("h");
    let fused = fuse(
        &[people, venues],
        &[Constraint::leq("author", 0, "author", 0)],
    )
    .expect("fusion");
    let seo = Arc::new(enhance(&fused.hierarchy, &Levenshtein, 1.0).expect("enhance"));
    let mut db = Database::with_config(DatabaseConfig::unlimited());
    let dblp = db.create_collection("dblp").expect("fresh collection");
    for author in ["Jeff Ullman", "Jeff Ullmann"] {
        dblp.insert_xml(&format!(
            "<inproceedings><author>{author}</author></inproceedings>"
        ))
        .expect("insert");
    }
    // one worker: the join's side selects run on this thread, under it
    let ex = Executor::new(db, seo).with_threads(1);
    let gov = QueryGovernor::unlimited();
    let q = author_query("dblp");
    ex.project_governed(&q, &[ProjectEntry::subtree(2)], Mode::Toss, &gov)
        .expect("projection");
    let key = JoinKey::child("author");
    let joined = ex
        .join_similarity_governed(&q, &q, &key, &key, Mode::Toss, &gov)
        .expect("join");
    assert!(!joined.forest.is_empty());
    let server = Server::start(
        Arc::new(RwLock::new(ex)),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server");
    server.shutdown();

    let trace = my_spans(&sink);
    assert!(trace
        .roots
        .iter()
        .any(|r| r.record.name == "ontology.fusion"));
    assert_eq!(
        children(&trace, "ontology.sea", "ontology.sea"),
        ["ontology.sea.similarity_graph", "ontology.sea.cliques"]
    );
    assert_eq!(
        children(&trace, "toss.query.project", "toss.query.project"),
        [
            "toss.query.rewrite",
            "toss.query.execute",
            "toss.query.convert"
        ]
    );
    assert_eq!(
        children(
            &trace,
            "toss.query.join_similarity",
            "toss.query.join_similarity"
        ),
        [
            "toss.query.select",
            "toss.query.select",
            "toss.query.convert"
        ]
    );
    assert_eq!(
        children(&trace, "toss.query.join_similarity", "toss.join"),
        [
            "toss.join.signatures",
            "toss.join.index",
            "toss.join.probe",
            "toss.join.emit"
        ]
    );
    assert!(trace
        .roots
        .iter()
        .any(|r| r.record.name == "toss.serve.drain"));
    assert!(counter("toss.query.projects") > projects);
    assert!(counter("toss.query.selects") >= selects + 2);
    assert!(histogram_count("toss.query.rewrite_ns") >= rewrites + 3);
}
