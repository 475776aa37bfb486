//! Opening a store: the one rule every front door follows, so a store
//! answers a query with the same ontology whether a writable server, a
//! read-only server or `toss-cli query` opened it.

use crate::write::{load_sidecar, recover_ontology, Enhancer, WriteConfig, WriteEngine};
use std::path::Path;
use std::sync::Arc;
use toss_ontology::seo::Seo;
use toss_xmldb::segidx::{kinds, load_segment};
use toss_xmldb::{Database, DatabaseConfig, DurableDatabase, Vfs};

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
/// is created or trimmed). The served SEO is the `<store>.ont.json`
/// sidecar — `baseline` only for a store that has never checkpointed
/// one — plus the journal's ontology records past the sidecar's cursor,
/// re-enhanced by `enhancer(ε)` when there were any. When the SEO is
/// exactly the checkpointed one and the `.seg` index sidecar is stamped
/// at its cursor, its reachability closure is seeded from the `.seg`,
/// so the first ontology cone query skips the topo-order DP.
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
        let durable =
            DurableDatabase::open_with(snapshot, config, vfs.clone()).map_err(|e| e.to_string())?;
        let records = durable.journal_records().map_err(|e| e.to_string())?;
        let (db, writer) = durable.into_parts();
        (db, records, Some(writer))
    } else {
        let (db, records) = DurableDatabase::open_read_only_with(snapshot, config, &*vfs)
            .map_err(|e| e.to_string())?;
        (db, records, None)
    };
    let sidecar = load_sidecar(&*vfs, snapshot);
    let had_sidecar = sidecar.is_some();
    let (cursor, base) = sidecar.unwrap_or((0, baseline));
    let enhancer = enhancer(base.epsilon());
    let mut hierarchy = base.original().clone();
    let replayed = recover_ontology(&mut hierarchy, &records, cursor);
    let seo = if replayed > 0 {
        enhancer(&hierarchy)?
    } else {
        base
    };
    if had_sidecar && replayed == 0 {
        if let Some(ix) = load_segment(&*vfs, snapshot)
            .filter(|seg| seg.last_seq() == cursor)
            .and_then(|seg| {
                seg.section(kinds::REACH, "seo.enhanced")
                    .and_then(toss_ontology::ReachIndex::from_segment_payload)
            })
        {
            seo.enhanced().install_reach_index(Arc::new(ix));
        }
    }
    let engine = writer.zip(write).map(|(writer, config)| WriteEngine {
        writer,
        hierarchy,
        enhancer,
        config,
    });
    Ok(OpenStore {
        db,
        seo,
        engine,
        replayed,
    })
}
