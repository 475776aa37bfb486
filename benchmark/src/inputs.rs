//! Everything the program under test receives is made here, from the
//! seed alone: corpora, query pools, and the write-op stream. The same
//! seed gives a byte-identical request stream (see [`stream_checksum`]).

use crate::stats::Fnv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use toss_datagen::names::{render, NameVariant};
use toss_datagen::venues::class_below;
use toss_datagen::{corpus::generate, Corpus, CorpusConfig, QuerySpec};
use toss_serve::{BudgetClass, QueryRequest, Request, WriteOp, WriteRequest};

/// Papers in the big store (`serve-cold`, `serve-hot`, `serve-mixed`,
/// `restart`) and its per-tag ontology cap.
pub const BIG_PAPERS: usize = 16_000;
pub const BIG_CAP: usize = 300;
/// The paper-scale store of `serve-tax`: uncapped ontology.
pub const TAX_PAPERS: usize = 500;
pub const TAX_CAP: usize = 0;
/// The flat join leg: the paper's Fig-16(b) point.
pub const JOIN_PAPERS: usize = 2_000;
pub const JOIN_CAP: usize = 600;
/// The skew join leg: trees per side, and how many of them carry a hub
/// term. Through the executor identical trees collapse at selection, so
/// `BENCH_join`'s duplicate-heavy shape (2500 copies of 8 trees) would
/// reach the join as 8 × 8 and stay nested; the hub trees here are
/// pairwise distinct, and 160² = 25 600 units of bucket work is past
/// the planner's refine threshold (16 384).
pub const SKEW_SIDE: usize = 10_000;
pub const SKEW_HUB_TREES: usize = 160;

/// Distinct specs `serve-cold` draws from, and the pool every other
/// read workload cycles through.
pub const COLD_POOL: usize = 4096;
pub const HOT_POOL: usize = 64;

pub fn corpus(seed: u64, papers: usize) -> Corpus {
    generate(CorpusConfig::scalability(seed, papers))
}

/// A pool of `count` Figure-15 query specs with pairwise distinct
/// `(author_probe, venue_isa)`, every one with a non-empty ground truth.
///
/// Same shape as `toss_datagen::queries::workload` (half the probes
/// quote a stored rendering, half are independent variants; classes
/// rotate conference / venue / symposium / conference), but over a
/// per-author paper index: `workload` rescans the corpus per draw and
/// needs 9.5 s for 4096 specs at 16k papers.
pub fn query_pool(corpus: &Corpus, seed: u64, count: usize) -> Vec<QuerySpec> {
    let mut by_author: Vec<Vec<usize>> = vec![Vec::new(); corpus.authors.len()];
    for p in &corpus.papers {
        for &a in &p.authors {
            by_author[a].push(p.id);
        }
    }
    let classes = ["conference", "venue", "symposium", "conference"];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<QuerySpec> = Vec::with_capacity(count);
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    let mut draws = 0usize;
    while out.len() < count {
        draws += 1;
        assert!(
            draws < 1000 * count.max(1),
            "corpus too small for {count} distinct query specs"
        );
        let entity = rng.gen_range(0..corpus.authors.len());
        let papers = &by_author[entity];
        if papers.is_empty() {
            continue;
        }
        let probe = if rng.gen_bool(0.5) {
            let p = &corpus.papers[papers[rng.gen_range(0..papers.len())]];
            let idx = p
                .authors
                .iter()
                .position(|&a| a == entity)
                .expect("entity authored this paper");
            p.dblp_authors[idx].clone()
        } else {
            let variant = [
                NameVariant::Canonical,
                NameVariant::Initial,
                NameVariant::DropMiddle,
                NameVariant::AllInitials,
            ][rng.gen_range(0..4usize)];
            render(&corpus.authors[entity], variant)
        };
        let class = classes[out.len() % classes.len()];
        let satisfiable = papers
            .iter()
            .any(|&p| class_below(corpus.venues[corpus.papers[p].venue].class, class));
        if !satisfiable || !seen.insert((probe.clone(), class.to_string())) {
            continue;
        }
        out.push(QuerySpec {
            id: out.len(),
            venue_isa: class.to_string(),
            author_probe: probe,
            author_entity: entity,
        });
    }
    out
}

/// The Figure-15 TOSS query over the wire: `author ~ probe`,
/// `booktitle below class`, three tag conditions implied by the spine.
pub fn toss_request(spec: &QuerySpec) -> QueryRequest {
    let mut q = QueryRequest::new("dblp", "inproceedings");
    q.similar.push(("author".into(), spec.author_probe.clone()));
    q.below.push(("booktitle".into(), spec.venue_isa.clone()));
    q.max_results = 5;
    q.class = BudgetClass::Interactive;
    q
}

/// The TAX-baseline rendering: exact author, `contains` on the
/// capitalised class word (as `toss-bench`'s `query_to_tax`).
pub fn tax_request(spec: &QuerySpec) -> QueryRequest {
    let mut needle = spec.venue_isa.clone();
    if let Some(first) = needle.get_mut(0..1) {
        first.make_ascii_uppercase();
    }
    let mut q = QueryRequest::new("dblp", "inproceedings");
    q.eq.push(("author".into(), spec.author_probe.clone()));
    q.contains.push(("booktitle".into(), needle));
    q.tax = true;
    q.max_results = 5;
    q.class = BudgetClass::Interactive;
    q
}

/// A document the benchmark writes: `inproceedings` like the corpus's,
/// with an author no read probe can equal and the ontology does not
/// hold, so no read answer ever includes it.
pub fn written_doc(kind: &str, k: usize, seed: u64) -> String {
    format!(
        "<inproceedings key=\"bench/{kind}{k}\"><author>Qzx{k} Bench{kind}</author>\
         <title>Benchmark-written document {k} of seed {seed}</title>\
         <booktitle>SIGMOD Conference</booktitle><year>2026</year></inproceedings>"
    )
}

/// One step of the `serve-mixed` write stream. A delete names the
/// insert it undoes by that insert's ordinal in the stream; the runner
/// resolves it to the document id the server acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlannedWrite {
    Insert { xml: String },
    DeleteInsert { ordinal: usize },
    AddTerm { term: String },
    AddEdge { below: String, above: String },
    Checkpoint,
}

/// Position of the ontology op and the deletes inside each block of
/// 100 mutations; every other position is an insert.
const ONTOLOGY_AT: usize = 50;
const DELETES_AT: [usize; 3] = [20, 60, 90];
/// A `checkpoint` frame follows every this many mutations.
const CHECKPOINT_EVERY: usize = 150;

/// The seed-fixed write stream: per 100 mutations 96 `insert_doc`, 3
/// `delete_doc` of an earlier insert and 1 ontology op, plus a
/// `checkpoint` frame every 150. Ontology ops alternate `add_edge` —
/// an ε-close variant of an existing author, placed below that author's
/// parent so SEA can merge it into the author's class — and `add_term`
/// of an isolated term. (A bare `add_term` of an ε-close variant is
/// rejected: SEA finds it similar to a term whose ancestors it lacks.)
/// The caller supplies the `add_edge` pairs, having checked that none
/// of them can move a read answer.
#[derive(Debug)]
pub struct WriteStream {
    seed: u64,
    rng: StdRng,
    /// The `(below, above)` pair of each `add_edge`, in stream order.
    edges: Vec<(String, String)>,
    mutations: usize,
    inserts: usize,
    ontology_ops: usize,
    checkpoint_due: bool,
}

impl WriteStream {
    pub fn new(seed: u64, edges: Vec<(String, String)>) -> WriteStream {
        WriteStream {
            seed,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_57e4),
            edges,
            mutations: 0,
            inserts: 0,
            ontology_ops: 0,
            checkpoint_due: false,
        }
    }

    pub fn next_write(&mut self) -> PlannedWrite {
        if self.checkpoint_due {
            self.checkpoint_due = false;
            return PlannedWrite::Checkpoint;
        }
        let slot = self.mutations % 100;
        self.mutations += 1;
        self.checkpoint_due = self.mutations.is_multiple_of(CHECKPOINT_EVERY);
        if slot == ONTOLOGY_AT {
            let n = self.ontology_ops;
            self.ontology_ops += 1;
            return if n.is_multiple_of(2) {
                let (below, above) = self
                    .edges
                    .get(n / 2)
                    .expect("the write stream outran its add_edge pairs")
                    .clone();
                PlannedWrite::AddEdge { below, above }
            } else {
                // digits and punctuation: far from every name and venue
                PlannedWrite::AddTerm {
                    term: format!("#{:08}/{:06}#", self.seed % 100_000_000, n / 2),
                }
            };
        }
        if DELETES_AT.contains(&slot) && self.inserts > 0 {
            // one of the five latest inserts; at least 29 inserts lie
            // between two deletes, so no insert is deleted twice
            let back = 1 + self.rng.gen_range(0..5usize.min(self.inserts));
            return PlannedWrite::DeleteInsert {
                ordinal: self.inserts - back,
            };
        }
        let k = self.inserts;
        self.inserts += 1;
        PlannedWrite::Insert {
            xml: written_doc("w", k, self.seed),
        }
    }

    /// The idempotency key of the `k`-th frame of the stream.
    pub fn key(seed: u64, k: usize) -> String {
        format!("bench-{seed}-{k}")
    }
}

/// Order-sensitive checksum of a workload's request stream: the wire
/// payload of every read request of the pool, in draw order, then of
/// the first `writes` frames of the write stream (a delete is rendered
/// with the ordinal of the insert it undoes in place of a document id).
pub fn stream_checksum(reads: &[QueryRequest], stream: Option<(WriteStream, usize)>) -> u64 {
    let mut sum = Fnv::new();
    for q in reads {
        sum.item(Request::Query(Box::new(q.clone())).to_payload().as_bytes());
    }
    if let Some((mut stream, writes)) = stream {
        let seed = stream.seed;
        for k in 0..writes {
            let op = match stream.next_write() {
                PlannedWrite::Insert { xml } => WriteOp::InsertDoc {
                    collection: "dblp".into(),
                    xml,
                },
                PlannedWrite::DeleteInsert { ordinal } => WriteOp::DeleteDoc {
                    collection: "dblp".into(),
                    doc_id: ordinal as u64,
                },
                PlannedWrite::AddTerm { term } => WriteOp::AddTerm { terms: vec![term] },
                PlannedWrite::AddEdge { below, above } => WriteOp::AddEdge { below, above },
                PlannedWrite::Checkpoint => WriteOp::Checkpoint,
            };
            let frame = Request::Write(Box::new(WriteRequest {
                op,
                key: WriteStream::key(seed, k),
                class: BudgetClass::Batch,
            }));
            sum.item(frame.to_payload().as_bytes());
        }
    }
    sum.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        corpus(11, 400)
    }

    #[test]
    fn pool_is_distinct_satisfiable_and_seeded() {
        let c = small();
        let pool = query_pool(&c, 5, 64);
        assert_eq!(pool.len(), 64);
        let keys: BTreeSet<_> = pool
            .iter()
            .map(|q| (q.author_probe.clone(), q.venue_isa.clone()))
            .collect();
        assert_eq!(keys.len(), 64);
        for q in &pool {
            assert!(!toss_datagen::ground_truth(&c, q).is_empty());
        }
        assert_eq!(pool, query_pool(&c, 5, 64));
        assert_ne!(pool, query_pool(&c, 6, 64));
    }

    fn stream(seed: u64) -> WriteStream {
        let edge = |below: &str| (below.to_string(), "author".to_string());
        WriteStream::new(
            seed,
            (0..8).map(|i| edge(&format!("Ada Lovelace{i}"))).collect(),
        )
    }

    #[test]
    fn write_stream_mix_per_hundred_mutations() {
        let mut s = stream(3);
        let (mut ins, mut del, mut ont, mut ckpt) = (0, 0, 0, 0);
        let mut mutations = 0;
        while mutations < 300 {
            match s.next_write() {
                PlannedWrite::Insert { .. } => ins += 1,
                PlannedWrite::DeleteInsert { ordinal } => {
                    assert!(ordinal < ins, "a delete names an earlier insert");
                    del += 1;
                }
                PlannedWrite::AddTerm { .. } | PlannedWrite::AddEdge { .. } => ont += 1,
                PlannedWrite::Checkpoint => {
                    ckpt += 1;
                    continue;
                }
            }
            mutations += 1;
        }
        assert_eq!((ins, del, ont), (288, 9, 3));
        // a checkpoint frame follows mutation 150 (the one after 300 is
        // still pending)
        assert_eq!(ckpt, 1);
        assert_eq!(s.next_write(), PlannedWrite::Checkpoint);
    }

    #[test]
    fn ontology_ops_alternate_edge_and_term() {
        let mut s = stream(3);
        let mut onts = Vec::new();
        while onts.len() < 4 {
            if let w @ (PlannedWrite::AddTerm { .. } | PlannedWrite::AddEdge { .. }) =
                s.next_write()
            {
                onts.push(w);
            }
        }
        assert_eq!(
            onts,
            vec![
                PlannedWrite::AddEdge {
                    below: "Ada Lovelace0".into(),
                    above: "author".into()
                },
                PlannedWrite::AddTerm {
                    term: "#00000003/000000#".into()
                },
                PlannedWrite::AddEdge {
                    below: "Ada Lovelace1".into(),
                    above: "author".into()
                },
                PlannedWrite::AddTerm {
                    term: "#00000003/000001#".into()
                },
            ]
        );
    }

    #[test]
    fn same_seed_same_request_stream() {
        let c = small();
        let reads = |seed| -> Vec<QueryRequest> {
            query_pool(&c, seed, 32).iter().map(toss_request).collect()
        };
        let a = stream_checksum(&reads(9), Some((stream(9), 400)));
        let b = stream_checksum(&reads(9), Some((stream(9), 400)));
        assert_eq!(a, b);
        assert_ne!(a, stream_checksum(&reads(10), Some((stream(10), 400))));
        // the write stream alone moves the checksum too
        assert_ne!(a, stream_checksum(&reads(9), Some((stream(10), 400))));
        assert_ne!(a, stream_checksum(&reads(9), None));
    }

    #[test]
    fn tax_rendering_capitalises_the_class() {
        let q = QuerySpec {
            id: 0,
            venue_isa: "conference".into(),
            author_probe: "A. B".into(),
            author_entity: 0,
        };
        let t = tax_request(&q);
        assert!(t.tax);
        assert_eq!(t.contains, vec![("booktitle".into(), "Conference".into())]);
        assert_eq!(t.eq, vec![("author".into(), "A. B".into())]);
        let s = toss_request(&q);
        assert_eq!(s.similar.len() + s.below.len(), 2);
        assert_eq!(s.max_results, 5);
    }
}
