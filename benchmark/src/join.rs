//! `join`: one in-process caller of `Executor::join_similarity_governed`
//! alternating two legs. **Flat** is the paper's Fig-16(b) point
//! `dblp ⋈ sigmod` on `title`, which must stay on the nested path;
//! **skew** follows the `BENCH_join` shape — 10k × 10k trees with the
//! hot ones on hub terms that fuse into one SEO class — and must take
//! the refined signature path. One operation is one flat call plus one skew call.

use crate::inputs;
use crate::metrics::Report;
use crate::stats::{self, Fnv, Slices};
use crate::store::{self, SetupTimes};
use crate::trace::Tracer;
use crate::Ctx;
use std::sync::Arc;
use std::time::Instant;
use toss_core::algebra::{JoinKey, TossPattern};
use toss_core::executor::Mode;
use toss_core::governor::QueryGovernor;
use toss_core::{Executor, QueryPlan, TossCond, TossQuery, TossTerm};
use toss_ontology::hierarchy::from_pairs;
use toss_similarity::Levenshtein;
use toss_tax::EdgeKind;
use toss_tree::{Forest, Tree, TreeBuilder};
use toss_xmldb::{Database, DatabaseConfig};

/// The hub terms of the skew leg: pairwise Levenshtein distance 1, so
/// at ε = 1 SEA fuses them (and their parent) into one class. The left
/// side uses the first 8, the right side the last 8: every hub match
/// crosses the class, none is an identical string.
const HUBS: [&str; 16] = [
    "hub0", "hub1", "hub2", "hub3", "hub4", "hub5", "hub6", "hub7", "hub8", "hub9", "huba", "hubb",
    "hubc", "hubd", "hube", "hubf",
];
const HUBS_PER_SIDE: usize = 8;

/// One side of a join: tag conditions only (the `~` lives in the join).
fn side(collection: &str, root: &str, tags: &[&str]) -> TossQuery {
    let mut conds = vec![TossCond::eq(TossTerm::tag(1), TossTerm::str(root))];
    for (i, tag) in tags.iter().enumerate() {
        conds.push(TossCond::eq(
            TossTerm::tag((i + 2) as u32),
            TossTerm::str(tag),
        ));
    }
    let edges = vec![EdgeKind::ParentChild; tags.len()];
    TossQuery {
        collection: collection.into(),
        pattern: TossPattern::spine(&edges, TossCond::all(conds)).expect("valid spine"),
        expand_labels: vec![1],
    }
}

fn skew_doc(title: &str, series: &str) -> Tree {
    TreeBuilder::new("paper")
        .leaf("title", title)
        .leaf("series", series)
        .build()
}

/// One side of the skew leg: `hot` pairwise distinct trees titled with
/// a hub term (counts per hub fall off as 1/rank), spread through
/// unique keys outside the ontology; `tag` and the seed keep the two
/// sides and two seeds apart.
fn skew_side(n: usize, hot: usize, hubs: &[&str], tag: &str, seed: u64) -> Forest {
    let harmonic: f64 = (1..=hubs.len()).map(|k| 1.0 / k as f64).sum();
    let mut hot_keys: Vec<&str> = Vec::with_capacity(hot);
    for (k, hub) in hubs.iter().enumerate() {
        let count = ((hot as f64 / harmonic) / (k + 1) as f64) as usize;
        hot_keys.extend(std::iter::repeat_n(*hub, count.max(1)));
    }
    // rounding leaves a few short: they go to the first hub
    hot_keys.resize(hot, hubs[0]);
    let every = n / hot;
    let mut hot_keys = hot_keys.into_iter();
    Forest::from_trees(
        (0..n)
            .map(|i| {
                let unique = format!("{tag}-{seed}-{i}");
                match (i % every == 0).then(|| hot_keys.next()).flatten() {
                    Some(hub) => skew_doc(hub, &unique),
                    None => skew_doc(&format!("cold-{unique}"), &unique),
                }
            })
            .collect(),
    )
}

fn load(db: &mut Database, name: &str, forest: &Forest) {
    let coll = db.create_collection(name).expect("fresh collection");
    for t in forest {
        coll.insert(t.clone()).expect("unlimited collection");
    }
}

struct Legs {
    flat: Executor,
    skew: Executor,
    times: SetupTimes,
    ontology_terms: usize,
}

fn build(cx: &Ctx) -> Legs {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let corpus = inputs::corpus(cx.seed, inputs::JOIN_PAPERS);
    let (n, hot) = (inputs::SKEW_SIDE, inputs::SKEW_HUB_TREES);
    let left = skew_side(n, hot, &HUBS[..HUBS_PER_SIDE], "l", cx.seed);
    let right = skew_side(n, hot, &HUBS[HUBS_PER_SIDE..], "r", cx.seed);
    times.generate_s = t.elapsed().as_secs_f64();
    let seo = store::build_seo(&corpus, inputs::JOIN_CAP, &mut times);
    let ontology_terms = seo.original().term_count();

    let t = Instant::now();
    let pairs: Vec<(&str, &str)> = HUBS.iter().map(|h| (*h, "hubs")).collect();
    let hub_seo = toss_ontology::enhance(
        &from_pairs(&pairs).expect("hub hierarchy"),
        &Levenshtein,
        1.0,
    )
    .expect("enhance hubs");
    times.sea_s += t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut flat_db = Database::with_config(DatabaseConfig::unlimited());
    load(&mut flat_db, "dblp", &corpus.dblp);
    load(&mut flat_db, "sigmod", &corpus.sigmod);
    let mut skew_db = Database::with_config(DatabaseConfig::unlimited());
    load(&mut skew_db, "left", &left);
    load(&mut skew_db, "right", &right);
    times.load_s = t.elapsed().as_secs_f64();
    Legs {
        flat: store::executor(flat_db, Arc::new(seo)),
        skew: Executor::new(skew_db, Arc::new(hub_seo)),
        times,
        ontology_terms,
    }
}

/// What one join call measured.
struct Call {
    total_ms: f64,
    execute_ms: f64,
    convert_ms: f64,
    refined: bool,
    candidates: usize,
    pairs: usize,
    checksum: u64,
}

struct Leg<'a> {
    name: &'static str,
    exec: &'a Executor,
    left: TossQuery,
    right: TossQuery,
}

impl Leg<'_> {
    fn call(&self, op: u64, tracer: &mut Tracer) -> Call {
        let key = JoinKey::child("title");
        let (out, s) = tracer.timed(self.name, op, |_| {
            self.exec
                .join_similarity_governed(
                    &self.left,
                    &self.right,
                    &key,
                    &key,
                    Mode::Toss,
                    &QueryGovernor::unlimited(),
                )
                .expect("join succeeds")
        });
        let mut sum = Fnv::new();
        for t in &out.forest {
            sum.item(toss_tree::eq::fingerprint(t).as_bytes());
        }
        let (refined, candidates) = match out.plan {
            Some(QueryPlan::SimilarityJoin {
                refined,
                candidates,
                ..
            }) => (refined, candidates),
            _ => (false, 0),
        };
        Call {
            total_ms: s * 1e3,
            execute_ms: out.execute_time().as_secs_f64() * 1e3,
            convert_ms: out.convert_time().as_secs_f64() * 1e3,
            refined,
            candidates,
            pairs: out.forest.len(),
            checksum: sum.0,
        }
    }
}

fn report_leg(report: &mut Report, leg: &str, e2e: &str, calls: &[&Call]) {
    let col = |f: &dyn Fn(&Call) -> f64| -> Vec<f64> { calls.iter().map(|c| f(c)).collect() };
    report.set_median(e2e, &col(&|c| c.total_ms));
    report.set_median(
        &format!("core.join.{leg}.execute_ms_p50"),
        &col(&|c| c.execute_ms),
    );
    report.set_median(
        &format!("core.join.{leg}.convert_ms_p50"),
        &col(&|c| c.convert_ms),
    );
    report.set_mean(
        &format!("core.join.{leg}.refined_frac"),
        &col(&|c| f64::from(u8::from(c.refined))),
    );
    report.set_mean(
        &format!("core.join.{leg}.candidates"),
        &col(&|c| c.candidates as f64),
    );
    report.set_mean(&format!("core.join.{leg}.pairs"), &col(&|c| c.pairs as f64));
}

pub fn run(cx: &Ctx, report: &mut Report) {
    let mut tracer = Tracer::new(false, cx.epoch);
    let mut setups = Vec::new();
    let mut pairs: Vec<(Call, Call, bool)> = Vec::new();
    let mut slices = Slices::default();
    let mut elapsed = 0.0;
    for _ in 0..cx.instances() {
        let t = Instant::now();
        let legs = build(cx);
        setups.push(t.elapsed().as_secs_f64());
        legs.times.report(report, legs.ontology_terms);

        let flat = Leg {
            name: "core.join.flat",
            exec: &legs.flat,
            left: side("dblp", "inproceedings", &["title", "year"]),
            right: side("sigmod", "article", &["title"]),
        };
        let skew = Leg {
            name: "core.join.skew",
            exec: &legs.skew,
            left: side("left", "paper", &["title"]),
            right: side("right", "paper", &["title"]),
        };

        // one warm-up pair fixes the reference checksums; then pairs until
        // the instance's share of the window has elapsed, the pair in
        // flight finishing
        tracer.set_enabled(false);
        let reference = (flat.call(0, &mut tracer), skew.call(0, &mut tracer));
        // every hub tree of one side joins every hub tree of the other
        let analytic = inputs::SKEW_HUB_TREES * inputs::SKEW_HUB_TREES;
        report.check(reference.1.pairs == analytic, || {
            format!(
                "skew leg emitted {} pairs, the shape has {analytic}",
                reference.1.pairs
            )
        });
        let window = Instant::now();
        let mut done_at = Vec::new();
        while window.elapsed().as_secs_f64() < cx.window_s() {
            let op = pairs.len() as u64 + 1;
            // a traced pass alternates traced and untraced pairs
            let traced = cx.trace && op.is_multiple_of(2);
            tracer.set_enabled(traced);
            let (f, s) = tracer.span("join.pair", op, |t| (flat.call(op, t), skew.call(op, t)));
            let same = f.checksum == reference.0.checksum
                && s.checksum == reference.1.checksum
                && s.pairs == reference.1.pairs;
            report.check(same, || {
                format!("join pair {op}: output differs from the first call")
            });
            report.attempted += 1;
            report.failed += u64::from(!same);
            pairs.push((f, s, traced));
            done_at.push(window.elapsed().as_secs_f64());
        }
        let spent = window.elapsed().as_secs_f64();
        let mut these = Slices::new(spent, crate::serve::SLICES);
        for at in done_at {
            these.record(at);
        }
        slices.append(these);
        elapsed += spent;
    }

    report.set_median("setup_s", &setups);
    report.set_throughput(pairs.len(), elapsed, &slices);
    let pair_us: Vec<f64> = pairs
        .iter()
        .map(|p| (p.0.total_ms + p.1.total_ms) * 1e3)
        .collect();
    report.set_median("op_p50_us", &pair_us);
    report_leg(
        report,
        "flat",
        "join_flat_p50_ms",
        &pairs.iter().map(|p| &p.0).collect::<Vec<_>>(),
    );
    report_leg(
        report,
        "skew",
        "join_skew_p50_ms",
        &pairs.iter().map(|p| &p.1).collect::<Vec<_>>(),
    );
    report.set_failed_frac();

    if cx.trace {
        let spent = |traced: bool| {
            let of = pairs.iter().filter(|p| p.2 == traced);
            let ms: f64 = of.clone().map(|p| p.0.total_ms + p.1.total_ms).sum();
            (ms, of.count() as u64)
        };
        if let Some(frac) = stats::trace_overhead(spent(false), spent(true)) {
            report.set("obs.trace_overhead_frac", frac, pairs.len());
        }
        cx.write_trace(&tracer);
    }
}
