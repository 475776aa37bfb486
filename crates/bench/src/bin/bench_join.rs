//! Skew-adaptive similarity join — `BENCH_join.json`.
//!
//! ROADMAP item 2: one hot SEO class degenerates the nested hash join
//! to its full cross product. This bench measures the refined
//! signature path (`toss_core::algebra::simjoin`) against the pure
//! nested join on two workloads:
//!
//! * **skewed** — 10k × 10k trees; 25% of each side carries one of 8
//!   hot key terms (zipf-distributed duplicates) that all fuse into a
//!   single enhanced class, the rest carry unique out-of-ontology
//!   keys. The nested path verifies and grafts every hot pair
//!   (2500 × 2500 before dedup); the refined path signs, probes and
//!   verifies each *distinct* tree group once. Gate (full run):
//!   ≥ 50× speedup.
//! * **flat** — 10k × 10k unique keys with a 500-tree exact-string
//!   overlap. The planner must stay nested (its escape counter is the
//!   only overhead). Gate (full run): ≤ 1.1× regression for the
//!   auto-planned join vs the forced-nested join.
//!
//! Both workloads assert a **byte-identical-output** equality before
//! any timing is trusted: the folded FNV-1a checksum over the output
//! forest's canonical tree fingerprints (order-sensitive, so it also
//! proves emission order) must match between the refined and unrefined
//! paths. `--quick` shrinks sizes for the `verify.sh` smoke step and
//! skips the timing gates (planner-choice and equality gates always
//! run); the JSON schema is identical in both modes.

use std::sync::Arc;
use std::time::Instant;
use toss_core::algebra::{similarity_join_planned, JoinKey, JoinStats, SimJoinConfig};
use toss_core::governor::QueryGovernor;
use toss_core::{SeoInstance, WorkerPool};
use toss_json::Value;
use toss_ontology::hierarchy::from_pairs;
use toss_ontology::sea::enhance;
use toss_ontology::Seo;
use toss_similarity::Levenshtein;
use toss_tree::{Forest, Tree, TreeBuilder};

/// The 16 hot key terms: pairwise Levenshtein distance 1 (only the
/// final hex digit differs), so at ε = 1 the SEA fuses all of them —
/// and their parent — into one enhanced class. The left side uses the
/// first 8, the right side the last 8: every hot match crosses the
/// class, none shortcuts through an identical string.
const HUBS: [&str; 16] = [
    "hub0", "hub1", "hub2", "hub3", "hub4", "hub5", "hub6", "hub7", "hub8", "hub9", "huba",
    "hubb", "hubc", "hubd", "hube", "hubf",
];

fn hot_seo() -> Arc<Seo> {
    let pairs: Vec<(&str, &str)> = HUBS.iter().map(|h| (*h, "hubs")).collect();
    let h = from_pairs(&pairs).expect("hub hierarchy");
    Arc::new(enhance(&h, &Levenshtein, 1.0).expect("enhance hubs"))
}

fn doc(key: &str) -> Tree {
    TreeBuilder::new("paper")
        .leaf("title", key)
        .leaf("series", format!("s-{key}"))
        .build()
}

/// Zipf-ish counts over `ranks` hot terms summing to `total`:
/// rank k gets weight 1/(k+1), remainder goes to rank 0.
fn zipf_counts(total: usize, ranks: usize) -> Vec<usize> {
    let h: f64 = (1..=ranks).map(|k| 1.0 / k as f64).sum();
    let mut counts: Vec<usize> = (0..ranks)
        .map(|k| ((total as f64 / h) / (k + 1) as f64) as usize)
        .collect();
    let assigned: usize = counts.iter().sum();
    counts[0] += total - assigned;
    counts
}

/// One side of the skewed workload: `hot` zipf-duplicated hub-keyed
/// trees followed by unique cold out-of-ontology keys, interleaved
/// deterministically so the hot trees are not one contiguous block.
fn skewed_side(n: usize, hot: usize, hubs: &[&str], cold_tag: &str) -> Forest {
    let counts = zipf_counts(hot, hubs.len());
    let mut hot_keys: Vec<&str> = Vec::with_capacity(hot);
    for (k, &c) in counts.iter().enumerate() {
        hot_keys.extend(std::iter::repeat_n(hubs[k], c));
    }
    let mut trees: Vec<Tree> = Vec::with_capacity(n);
    let mut hi = 0;
    for i in 0..n {
        // every 4th tree is hot until the hot pool drains
        if i % 4 == 0 && hi < hot_keys.len() {
            trees.push(doc(hot_keys[hi]));
            hi += 1;
        } else {
            trees.push(doc(&format!("cold-{cold_tag}-{i}")));
        }
    }
    while hi < hot_keys.len() {
        trees.push(doc(hot_keys[hi]));
        hi += 1;
    }
    Forest::from_trees(trees)
}

fn flat_side(n: usize, offset: usize) -> Forest {
    Forest::from_trees((0..n).map(|i| doc(&format!("flat{}", i + offset))).collect())
}

/// Order-sensitive folded checksum of the output pair-set: FNV-1a over
/// every tree's canonical fingerprint in forest order.
fn forest_checksum(inst: &SeoInstance) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in &inst.forest {
        for b in toss_tree::eq::fingerprint(t).as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Run {
    ms: f64,
    checksum: u64,
    len: usize,
    stats: JoinStats,
}

fn run_join(
    l: &SeoInstance,
    r: &SeoInstance,
    cfg: &SimJoinConfig,
    pool: &WorkerPool,
    reps: usize,
) -> Run {
    let key = JoinKey::child("title");
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..reps {
        let gov = QueryGovernor::unlimited();
        let t0 = Instant::now();
        let res = similarity_join_planned(l, r, &key, &key, cfg, pool, &gov)
            .expect("join succeeds");
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        out = Some(res);
    }
    let (inst, stats) = out.expect("reps >= 1");
    Run {
        ms: best,
        checksum: forest_checksum(&inst),
        len: inst.len(),
        stats,
    }
}

fn stats_json(s: &JoinStats) -> Value {
    Value::object(vec![
        ("refined", s.refined.into()),
        ("nested_work", s.nested_work.into()),
        ("groups_left", s.groups_left.into()),
        ("groups_right", s.groups_right.into()),
        ("distinct_elements", s.distinct_elements.into()),
        ("candidates", s.candidates.into()),
        ("verified", s.verified.into()),
        ("pairs_emitted", s.pairs_emitted.into()),
        ("workers", s.workers.into()),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n = if quick { 1_500 } else { 10_000 };
    let hot = n / 4;
    let seo = hot_seo();
    let pool = WorkerPool::with_available_parallelism();

    // ---------- skewed ----------
    let l = SeoInstance::new(skewed_side(n, hot, &HUBS[..8], "l"), seo.clone());
    let r = SeoInstance::new(skewed_side(n, hot, &HUBS[8..], "r"), seo.clone());
    println!("skewed {n}x{n} ({hot} hot per side), workers={}", pool.workers());

    let nested = run_join(&l, &r, &SimJoinConfig::never_refine(), &pool, 1);
    let refined = run_join(&l, &r, &SimJoinConfig::default(), &pool, 3);
    let speedup = nested.ms / refined.ms.max(1e-6);
    let skew_equal = nested.checksum == refined.checksum && nested.len == refined.len;
    println!(
        "  nested {:.1} ms | refined {:.1} ms | speedup {:.1}x | {} pairs | equal={}",
        nested.ms, refined.ms, speedup, refined.len, skew_equal
    );
    assert!(skew_equal, "refined output must be byte-identical to nested");
    assert!(
        refined.stats.refined,
        "the planner must fire the refinement on the skewed workload"
    );
    assert!(!nested.stats.refined);
    if !quick {
        assert!(
            speedup >= 50.0,
            "skewed speedup {speedup:.1}x below the 50x gate"
        );
    }

    // ---------- flat ----------
    let lf = SeoInstance::new(flat_side(n, 0), seo.clone());
    let rf = SeoInstance::new(flat_side(n, n - 500), seo.clone());
    println!("flat {n}x{n} (500-key exact overlap)");

    let flat_nested = run_join(&lf, &rf, &SimJoinConfig::never_refine(), &pool, 3);
    let flat_auto = run_join(&lf, &rf, &SimJoinConfig::default(), &pool, 3);
    let flat_forced = run_join(&lf, &rf, &SimJoinConfig::always_refine(), &pool, 1);
    let ratio = flat_auto.ms / flat_nested.ms.max(1e-6);
    let flat_equal = flat_nested.checksum == flat_auto.checksum
        && flat_nested.checksum == flat_forced.checksum
        && flat_nested.len == flat_forced.len;
    println!(
        "  nested {:.1} ms | auto {:.1} ms | ratio {:.3}x | {} pairs | equal={}",
        flat_nested.ms, flat_auto.ms, ratio, flat_auto.len, flat_equal
    );
    assert!(flat_equal, "flat outputs must agree across all three paths");
    assert!(
        !flat_auto.stats.refined,
        "the planner must NOT fire the refinement on the flat workload"
    );
    if !quick {
        assert!(
            ratio <= 1.1,
            "flat auto/nested ratio {ratio:.3}x exceeds the 1.1x gate"
        );
    }

    let report = Value::object(vec![
        ("bench", "join".into()),
        ("quick", quick.into()),
        ("cores", toss_core::WorkerPool::with_available_parallelism().workers().into()),
        (
            "skewed",
            Value::object(vec![
                ("n_left", n.into()),
                ("n_right", n.into()),
                ("hot_per_side", hot.into()),
                ("nested_ms", nested.ms.into()),
                ("refined_ms", refined.ms.into()),
                ("speedup", speedup.into()),
                ("pairs", refined.len.into()),
                ("checksum_nested", format!("{:016x}", nested.checksum).into()),
                ("checksum_refined", format!("{:016x}", refined.checksum).into()),
                ("equal", skew_equal.into()),
                ("stats", stats_json(&refined.stats)),
            ]),
        ),
        (
            "flat",
            Value::object(vec![
                ("n", n.into()),
                ("overlap", 500usize.into()),
                ("nested_ms", flat_nested.ms.into()),
                ("auto_ms", flat_auto.ms.into()),
                ("ratio", ratio.into()),
                ("pairs", flat_auto.len.into()),
                (
                    "checksum_nested",
                    format!("{:016x}", flat_nested.checksum).into(),
                ),
                (
                    "checksum_refined",
                    format!("{:016x}", flat_forced.checksum).into(),
                ),
                ("equal", flat_equal.into()),
                ("auto_refined", flat_auto.stats.refined.into()),
            ]),
        ),
    ]);

    let out = toss_bench::write_bench("join", quick, &report).expect("write BENCH_join.json");
    println!("wrote {}", out.display());
}
