//! Opening and checkpointing a store. A store's ontology is store state:
//! the `<store>.ont.json` sidecar plus the journal's ontology records
//! past its cursor ([`store_ontology`]). Every front door opens a store
//! by one rule ([`open_store`]), and every checkpoint that knows the
//! ontology writes it ([`checkpoint_store`]).

use crate::write::{Enhancer, WriteConfig, WriteEngine};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use toss_json::Value;
use toss_ontology::hierarchy::Hierarchy;
use toss_ontology::seo::Seo;
use toss_xmldb::segidx::build_segment;
use toss_xmldb::storage::{save_json_with_vfs, to_json_with_seq};
use toss_xmldb::{
    Database, DatabaseConfig, DurableDatabase, DurableWriter, JournalOp, JournalRecord,
    RecoveryReport, Vfs,
};

/// A store opened for serving.
pub struct OpenStore {
    /// Snapshot plus journal replay.
    pub db: Database,
    /// The ontology the store's own files imply.
    pub seo: Seo,
    /// The write path that continues the store, when opened writable.
    pub engine: Option<WriteEngine>,
    /// Ontology journal records replayed past the sidecar's cursor.
    pub replayed: usize,
}

/// Open the store at `snapshot` through `vfs`, writable when `write` is
/// given (strict through the WAL), read-only otherwise (nothing on disk
/// is created or trimmed). The served SEO is [`store_ontology`], with
/// `baseline` standing in for a missing sidecar; a writable open then
/// writes it as the sidecar, at the writer's cursor. The SEO's
/// reachability closure is not stored: its first cone query builds it.
///
/// `enhancer` is a factory over ε because this crate is metric-agnostic:
/// the embedder closes over the metric.
pub fn open_store(
    vfs: Arc<dyn Vfs>,
    snapshot: &Path,
    baseline: Seo,
    enhancer: impl FnOnce(f64) -> Enhancer,
    write: Option<WriteConfig>,
) -> Result<OpenStore, String> {
    let config = DatabaseConfig::unlimited();
    let (db, records, writer) = if write.is_some() {
        let (durable, records) =
            DurableDatabase::open_with(snapshot, config, vfs.clone()).map_err(|e| e.to_string())?;
        let (db, writer) = durable.into_parts();
        (db, records, Some(writer))
    } else {
        let (db, records) = DurableDatabase::open_read_only_with(snapshot, config, &*vfs)
            .map_err(|e| e.to_string())?;
        (db, records, None)
    };
    let ontology = store_ontology(&*vfs, snapshot, &records, Some(baseline), enhancer)?
        .expect("the baseline stands in for a missing sidecar");
    if let (None, Some(writer)) = (ontology.cursor, &writer) {
        let path = sidecar_path(snapshot);
        let envelope = envelope(&ontology.seo, writer.next_seq());
        save_json_with_vfs(&envelope, &path, &*vfs)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let engine = writer.zip(write).map(|(writer, config)| WriteEngine {
        writer,
        hierarchy: ontology.hierarchy,
        enhancer: ontology.enhancer,
        config,
    });
    Ok(OpenStore {
        db,
        seo: ontology.seo,
        engine,
        replayed: ontology.replayed,
    })
}

/// A store's ontology, as [`store_ontology`] reads it.
pub struct StoreOntology {
    /// The sidecar's (or baseline's) SEO plus the journal tail.
    pub seo: Seo,
    /// The hierarchy `seo` enhances.
    pub hierarchy: Hierarchy,
    /// Re-enhances a grown hierarchy at the SEO's ε.
    pub enhancer: Enhancer,
    /// The sidecar's journal cursor; `None` when the baseline stood in.
    pub cursor: Option<u64>,
    /// Ontology journal records replayed past that cursor.
    pub replayed: usize,
}

/// The ontology of the store at `snapshot`: its sidecar's SEO plus the
/// ontology records of its journal `records` from the sidecar's cursor
/// on, re-enhanced once by `enhancer(ε)` if there were any. `baseline`
/// stands in, at cursor 0, for a missing sidecar; with neither, the
/// store has no ontology of its own. A sidecar that does not decode is
/// an error naming the file: the records it covers may be folded away.
pub fn store_ontology(
    vfs: &dyn Vfs,
    snapshot: &Path,
    records: &[JournalRecord],
    baseline: Option<Seo>,
    enhancer: impl FnOnce(f64) -> Enhancer,
) -> Result<Option<StoreOntology>, String> {
    let (cursor, base) = match (read_sidecar(vfs, snapshot)?, baseline) {
        (Some((cursor, seo)), _) => (Some(cursor), seo),
        (None, Some(seo)) => (None, seo),
        (None, None) => return Ok(None),
    };
    let enhancer = enhancer(base.epsilon());
    let mut hierarchy = base.original().clone();
    let replayed = recover_ontology(&mut hierarchy, records, cursor.unwrap_or(0));
    let seo = if replayed > 0 {
        enhancer(&hierarchy)?
    } else {
        base
    };
    Ok(Some(StoreOntology {
        seo,
        hierarchy,
        enhancer,
        cursor,
        replayed,
    }))
}

/// Checkpoint the store `writer` continues from `db` at the writer's
/// cursor, carrying `seo` as the store's ontology when it has one.
pub fn checkpoint_store(
    writer: &mut DurableWriter,
    db: &Database,
    seo: Option<&Seo>,
) -> Result<(), String> {
    Checkpoint::build(db, seo, writer.next_seq())?.write(writer).map(drop)
}

/// A checkpoint serialized at one cursor: the snapshot JSON, the
/// sidecar's envelope and the `.seg` index sidecar. The writer thread
/// builds it under its read lock.
pub(crate) struct Checkpoint {
    cursor: u64,
    json: String,
    envelope: Option<String>,
    seg: Vec<u8>,
}

impl Checkpoint {
    pub(crate) fn build(db: &Database, seo: Option<&Seo>, cursor: u64) -> Result<Self, String> {
        Ok(Checkpoint {
            cursor,
            json: to_json_with_seq(db, cursor).map_err(|e| e.to_string())?,
            envelope: seo.map(|seo| envelope(seo, cursor)),
            seg: build_segment(db, cursor),
        })
    }

    /// Run the store's one checkpoint routine on it; returns the `.seg`
    /// bytes, which the indexes may rebase onto.
    pub(crate) fn write(self, writer: &mut DurableWriter) -> Result<Vec<u8>, String> {
        let envelope = self.envelope.as_deref();
        writer
            .checkpoint_json_seg(self.json, self.cursor, Some(&self.seg), envelope)
            .map_err(|e| e.to_string())?;
        Ok(self.seg)
    }
}

/// The sidecar's bytes: the SEO as of journal sequence `cursor`.
fn envelope(seo: &Seo, cursor: u64) -> String {
    let seo = toss_ontology::persist::seo_to_json(seo);
    format!("{{\"cursor\":{cursor},\"seo\":{seo}}}")
}

/// The sidecar path holding the persisted SEO next to the snapshot.
pub fn sidecar_path(snapshot: &Path) -> PathBuf {
    DurableDatabase::ontology_path(snapshot)
}

/// Load the ontology sidecar, returning its journal cursor and the
/// persisted SEO; `None` when it is absent or does not decode.
pub fn load_sidecar(vfs: &dyn Vfs, snapshot: &Path) -> Option<(u64, Seo)> {
    read_sidecar(vfs, snapshot).ok().flatten()
}

/// [`load_sidecar`], strict: a sidecar that does not decode is an error
/// naming the file.
fn read_sidecar(vfs: &dyn Vfs, snapshot: &Path) -> Result<Option<(u64, Seo)>, String> {
    let path = sidecar_path(snapshot);
    if !vfs.exists(&path) {
        return Ok(None);
    }
    let damaged = |why: String| format!("ontology sidecar {} is damaged: {why}", path.display());
    let bytes = vfs.read(&path).map_err(|e| damaged(e.to_string()))?;
    let text = String::from_utf8(bytes).map_err(|e| damaged(e.to_string()))?;
    let v = Value::parse(&text).map_err(|e| damaged(e.to_string()))?;
    let cursor = v.get("cursor").and_then(Value::as_i64).filter(|&c| c >= 0);
    let cursor = cursor.ok_or_else(|| damaged("bad `cursor`".into()))?;
    let seo = v.get("seo").ok_or_else(|| damaged("no `seo`".into()))?;
    let seo = toss_ontology::persist::seo_from_value(seo).map_err(|e| damaged(e.to_string()))?;
    Ok(Some((cursor as u64, seo)))
}

/// For `db recover`: set a damaged ontology sidecar aside the way
/// recovery sets aside a damaged snapshot — a `.corrupt` copy listed in
/// `report` — and remove it, so the recovered store's one checkpoint
/// runs without it. Returns why the sidecar was damaged; `None` when it
/// is absent or decodes. A sidecar no copy could be kept of stays where
/// it is, and is an error. Every other open stays strict
/// ([`store_ontology`]).
pub fn discard_damaged_sidecar(
    vfs: &dyn Vfs,
    snapshot: &Path,
    report: &mut RecoveryReport,
) -> Result<Option<String>, String> {
    let Err(why) = read_sidecar(vfs, snapshot) else {
        return Ok(None);
    };
    let path = sidecar_path(snapshot);
    if !report.quarantine(vfs, &path) {
        return Err(format!("{why}; no copy of it could be kept"));
    }
    vfs.remove(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(Some(why))
}

/// Replay the ontology tail of a journal scan onto `hierarchy`: every
/// `add_term`/`add_edge` record with `seq >= cursor` (doc ops and
/// no-ops are skipped — the store replay handled those). Returns how
/// many records mutated the hierarchy.
pub fn recover_ontology(
    hierarchy: &mut Hierarchy,
    records: &[JournalRecord],
    cursor: u64,
) -> usize {
    let mut applied = 0;
    for rec in records.iter().filter(|r| r.seq >= cursor) {
        match &rec.op {
            JournalOp::AddTerm { terms } => {
                for t in terms {
                    hierarchy.add_term(t);
                }
                applied += 1;
            }
            // a cycle here means the edge was journaled against a
            // different hierarchy state; skip rather than die — the
            // journal is replayed leniently, like store recovery
            JournalOp::AddEdge { below, above } if hierarchy.add_leq(below, above).is_ok() => {
                applied += 1;
            }
            _ => {}
        }
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ontology_replay_applies_tail_and_skips_cycles() {
        let mut h = Hierarchy::default();
        h.add_leq("SIGMOD", "conference").unwrap();
        let records = vec![
            JournalRecord {
                seq: 5,
                key: None,
                op: JournalOp::AddTerm {
                    terms: vec!["PODS".into()],
                },
            },
            JournalRecord {
                seq: 6,
                key: None,
                op: JournalOp::AddEdge {
                    below: "PODS".into(),
                    above: "conference".into(),
                },
            },
            // below the cursor: already folded into the sidecar
            JournalRecord {
                seq: 2,
                key: None,
                op: JournalOp::AddTerm {
                    terms: vec!["stale".into()],
                },
            },
            // a cycle is skipped, not fatal
            JournalRecord {
                seq: 7,
                key: None,
                op: JournalOp::AddEdge {
                    below: "conference".into(),
                    above: "PODS".into(),
                },
            },
            JournalRecord {
                seq: 8,
                key: None,
                op: JournalOp::Noop,
            },
        ];
        let applied = recover_ontology(&mut h, &records, 4);
        assert_eq!(applied, 2, "one term batch + one edge");
        assert!(h.node_of("PODS").is_some());
        assert!(
            h.node_of("stale").is_none(),
            "pre-cursor records are folded"
        );
    }
}
