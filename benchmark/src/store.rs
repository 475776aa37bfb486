//! Set-up: corpus → ontologies → fusion → SEA → durable store on disk,
//! reopened so collections serve frozen, the way `toss-cli serve` finds
//! them. Every stage is timed; the stage times are the per-layer
//! decomposition of `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use toss_core::{make_ontology, suggest_constraints, Executor, MakerConfig};
use toss_datagen::Corpus;
use toss_lexicon::{Lexicon, LexiconBuilder};
use toss_ontology::{Constraint, Hierarchy, Seo, TermRef};
use toss_similarity::combinators::{MinOf, MultiWordGate};
use toss_similarity::{Levenshtein, NameRules, StringMetric};
use toss_xmldb::{apply_op, DatabaseConfig, DurableDatabase, JournalOp, StdVfs};

/// The similarity threshold every workload enhances at.
pub const EPSILON: f64 = 3.0;

/// The experiment metric of `toss-bench` (`setup.rs`): bibliographic
/// name rules combined with multi-word-gated Levenshtein.
pub fn experiment_metric() -> impl StringMetric + Clone {
    MinOf::new(
        NameRules::with_costs(3.0, 2.0, 1000.0),
        MultiWordGate::new(Levenshtein),
    )
}

/// The corpus lexicon of `toss-bench`: the embedded bibliographic
/// lexicon plus isa/syn facts for the corpus's venue pool.
fn corpus_lexicon(corpus: &Corpus) -> Lexicon {
    let mut b = LexiconBuilder::from_base(toss_lexicon::data::bibliographic_lexicon());
    for v in &corpus.venues {
        for line in [
            format!("isa: {} < {}", v.short, v.class),
            format!("isa: {} < {}", v.long, v.class),
            format!("syn: {} = {}", v.short, v.long),
        ] {
            b.add_line(&line).expect("generated fact is well-formed");
        }
    }
    b.build()
}

/// Seconds spent in each set-up stage (0 for a stage a workload skips).
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub make_ontology_s: f64,
    pub fuse_s: f64,
    pub sea_s: f64,
    pub load_s: f64,
    pub start_ms: f64,
}

impl SetupTimes {
    /// Record the stages as the per-layer decomposition of `setup_s`.
    pub fn report(&self, report: &mut crate::metrics::Report, ontology_terms: usize) {
        report.set("datagen.generate_s", self.generate_s, 1);
        report.set("core.make_ontology_s", self.make_ontology_s, 1);
        report.set("ontology.fuse_s", self.fuse_s, 1);
        report.set("ontology.sea_s", self.sea_s, 1);
        report.set("xmldb.load_s", self.load_s, 1);
        report.set("serve.start_ms", self.start_ms, 1);
        report.set("ontology.terms", ontology_terms as f64, 1);
    }
}

/// Mine both renderings' ontologies, fuse them under suggested
/// constraints and run SEA at [`EPSILON`]: the `enhance_sdb` pipeline
/// of `toss-core`, unrolled so fusion and SEA are timed apart.
pub fn build_seo(corpus: &Corpus, max_terms_per_tag: usize, times: &mut SetupTimes) -> Seo {
    let lexicon = corpus_lexicon(corpus);
    let cfg = MakerConfig {
        max_terms_per_tag,
        ..MakerConfig::default()
    };
    let t = Instant::now();
    let dblp = make_ontology(&corpus.dblp, &lexicon, &cfg).expect("ontology mining succeeds");
    let sigmod = make_ontology(&corpus.sigmod, &lexicon, &cfg).expect("ontology mining succeeds");
    times.make_ontology_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let hierarchies = [dblp.isa().clone(), sigmod.isa().clone()];
    // only constraints whose endpoints exist in the isa hierarchies
    // take part in the isa fusion (as in `enhance_sdb`)
    let has = |tr: &TermRef| {
        hierarchies
            .get(tr.source)
            .is_some_and(|h| h.node_of(&tr.term).is_some())
    };
    let constraints: Vec<Constraint> = suggest_constraints(&dblp, 0, &sigmod, 1, &lexicon)
        .into_iter()
        .filter(|c| {
            let (a, b) = c.endpoints();
            has(a) && has(b)
        })
        .collect();
    let fusion = toss_ontology::fuse(&hierarchies, &constraints).expect("fusion succeeds");
    times.fuse_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let seo = toss_ontology::enhance(&fusion.hierarchy, &experiment_metric(), EPSILON)
        .expect("similarity enhancement succeeds");
    times.sea_s += t.elapsed().as_secs_f64();
    seo
}

/// Re-run SEA over a grown hierarchy — what the write path's enhancer
/// does after an ontology mutation.
pub fn re_enhance(h: &Hierarchy) -> Result<Seo, String> {
    toss_ontology::enhance(h, &experiment_metric(), EPSILON).map_err(|e| e.to_string())
}

/// Documents per journal fsync at load time. The load goes through the
/// group-commit discipline of the serving write path (`append_batch`
/// then `apply_op`): with one fsync per document the load measured the
/// disk (6 of 7.7 s here), not the store.
const LOAD_BATCH: usize = 256;

/// The files of one durable store.
#[derive(Debug, Clone)]
pub struct StoreFiles {
    /// `store.json`; the WAL, `.seg` and `.ont.json` sit beside it.
    pub snapshot: PathBuf,
    /// XML bytes inserted at build time (the "user bytes").
    pub xml_bytes: u64,
    /// Documents per collection at build time: (dblp, sigmod).
    pub docs: (usize, usize),
}

/// Serialize every tree of a forest as compact XML.
pub fn forest_xml(forest: &toss_tree::Forest) -> Vec<String> {
    use toss_tree::serialize::{tree_to_xml, Style};
    forest
        .iter()
        .map(|t| tree_to_xml(t, Style::Compact))
        .collect()
}

/// Load both renderings through the WAL into a fresh store under `dir`,
/// write the ontology sidecar the way a serving checkpoint does, and
/// checkpoint (snapshot + `.seg`).
pub fn build_store(dir: &Path, corpus: &Corpus, seo: &Seo, times: &mut SetupTimes) -> StoreFiles {
    std::fs::create_dir_all(dir).expect("create store dir");
    let snapshot = dir.join("store.json");
    let t = Instant::now();
    let (mut db, mut writer) = DurableDatabase::open(&snapshot, DatabaseConfig::unlimited())
        .expect("open fresh store")
        .into_parts();
    let mut xml_bytes = 0u64;
    let mut commit = |ops: &[JournalOp]| {
        writer.append_batch(ops).expect("journal the load batch");
        for op in ops {
            apply_op(&mut db, op).expect("apply a journaled op");
        }
    };
    for (name, forest) in [("dblp", &corpus.dblp), ("sigmod", &corpus.sigmod)] {
        commit(&[JournalOp::CreateCollection { name: name.into() }]);
        let inserts: Vec<JournalOp> = forest_xml(forest)
            .into_iter()
            .map(|xml| {
                xml_bytes += xml.len() as u64;
                JournalOp::Insert {
                    collection: name.into(),
                    xml,
                }
            })
            .collect();
        for batch in inserts.chunks(LOAD_BATCH) {
            commit(batch);
        }
    }
    writer.checkpoint(&db).expect("checkpoint the load");
    write_ontology_sidecar(&snapshot, seo, 0);
    times.load_s += t.elapsed().as_secs_f64();
    StoreFiles {
        snapshot,
        xml_bytes,
        docs: (corpus.dblp.len(), corpus.sigmod.len()),
    }
}

/// `<snapshot>.ont.json`, in the envelope `toss-serve`'s checkpoint writes.
fn write_ontology_sidecar(snapshot: &Path, seo: &Seo, cursor: u64) {
    let envelope = format!(
        "{{\"cursor\":{cursor},\"seo\":{}}}",
        toss_ontology::persist::seo_to_json(seo)
    );
    toss_xmldb::storage::save_json_with_vfs(
        &envelope,
        &toss_serve::sidecar_path(snapshot),
        &StdVfs,
    )
    .expect("write ontology sidecar");
}

/// Reopen a checkpointed store: collections attach to the `.seg`
/// sidecar and serve frozen.
pub fn open_store(files: &StoreFiles) -> DurableDatabase {
    DurableDatabase::open(&files.snapshot, DatabaseConfig::unlimited()).expect("reopen store")
}

/// An executor over `db` and `seo` with the experiment probe metric.
pub fn executor(db: toss_xmldb::Database, seo: Arc<Seo>) -> Executor {
    Executor::new(db, seo).with_probe_metric(Arc::new(experiment_metric()))
}

/// Index bytes over all collections: (pointer maps, frozen segment).
pub fn index_bytes(db: &toss_xmldb::Database) -> (usize, usize) {
    db.collections()
        .map(|c| c.index_bytes())
        .fold((0, 0), |(p, s), (cp, cs)| (p + cp, s + cs))
}

/// Bytes on disk for a store: snapshot + `.seg` + `.ont.json` + WAL.
pub fn disk_bytes(snapshot: &Path) -> u64 {
    let size = |p: PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    size(snapshot.to_path_buf())
        + size(toss_xmldb::segidx::seg_path(snapshot))
        + size(toss_serve::sidecar_path(snapshot))
        + size(DurableDatabase::wal_path(snapshot))
}
