//! The similarity join: prefix-filtered signatures with an adaptive
//! overlap constraint.
//!
//! Bucketing both sides by key class and verifying every bucket-mate is
//! far from quadratic on flat inputs, but one *hot* class degenerates to
//! its full cross product: every left tree in the class is grafted
//! against every right tree, copies included. This join answers flat and
//! skewed inputs alike, in the style of *Efficient Taxonomic Similarity
//! Joins with Adaptive Overlap Constraint* (PAPERS.md):
//!
//! 1. **Signature generation.** Each tree's SEO node-set becomes a
//!    signature: the enhanced-class ids of all its key renderings plus
//!    the renderings themselves (identical strings join even outside
//!    the ontology, so the literal key is itself a signature element).
//!    Two trees join iff their signatures overlap in ≥ [`OVERLAP_T`]
//!    elements, which makes the similarity join an exact *set-overlap
//!    join*. Trees are first grouped by canonical fingerprint —
//!    duplicated trees (the very thing a skewed corpus is full of) are
//!    signed, probed, verified and charged **once per distinct tree**,
//!    not once per copy.
//! 2. **Prefix-filter inverted index.** Signature elements are
//!    renumbered rare-first: ascending by global frequency (how many
//!    distinct trees on either side carry the element), tie-broken by
//!    the SEO's per-class term frequency
//!    ([`crate::expand::seo_class_frequencies`]) and then by identity.
//!    Only the first `len − T + 1` elements of each build-side
//!    signature — its *prefix* — are indexed, and only the probe-side
//!    prefix is probed: two signatures overlapping in ≥ T elements must
//!    collide inside their prefixes. (At T = 1 the prefix is the whole
//!    signature; the machinery is written for general T.)
//! 3. **Adaptive overlap constraint.** Each surviving candidate pair is
//!    verified by a sorted-merge intersection whose required overlap
//!    tightens as elements are consumed: the walk bails the moment the
//!    elements remaining on either side can no longer supply the
//!    overlap still missing ([`verify_overlap`]).
//! 4. **Exact verification last.** Only verified group pairs are
//!    grafted into output trees, one per distinct (left-group,
//!    right-group) pair, ascending — groups are numbered by first
//!    occurrence, so this is the order in which product-then-select
//!    followed by a first-occurrence dedup keeps its pairs, and the
//!    output equals that oracle as a *sequence*, not merely as a set
//!    (asserted by `tests/join.rs` and the `join` workload of `benchmark/`).
//!
//! **Parallelism and governance.** Signature generation and the index
//! probe fan out through [`toss_pool::WorkerPool`], which returns task
//! results in task order. The join evaluates, then charges: probe tasks
//! never charge, and one sequential pass walks their results in task
//! order — the join's commit frontier — charging candidate pairs
//! against the join-cardinality budget
//! ([`QueryGovernor::admit_join_candidates`]) and truncating
//! deterministically when a soft limit trips — so governor tallies are
//! bit-identical at any worker count. The index and group structures
//! are charged once to the memory budget
//! ([`QueryGovernor::charge_memory`]). Every join pays both charges,
//! however small its inputs.

use super::hashjoin::JoinKey;
use crate::error::TossResult;
use crate::expand::{seo_class_frequencies, seo_classes};
use crate::governor::QueryGovernor;
use crate::oes::SeoInstance;
use std::collections::HashMap;
use toss_pool::{partition_ranges, WorkerPool};
use toss_tax::ops::PROD_ROOT_TAG;
use toss_tree::{Forest, NodeData, Tree};

/// Required signature overlap for the similarity-join predicate: two
/// trees join iff they share ≥ 1 element (an SEO class or an identical
/// key rendering). The prefix filter and the adaptive verifier are
/// written for general T and instantiated here.
const OVERLAP_T: usize = 1;

/// What one similarity join did (surfaced via `toss.join.*` counters,
/// the query plan and the `join` workload of `benchmark/`).
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Distinct probe-side (left) tree groups.
    pub groups_left: usize,
    /// Distinct build-side (right) tree groups.
    pub groups_right: usize,
    /// Distinct signature elements across both sides.
    pub distinct_elements: usize,
    /// Candidate group pairs the prefix-filtered probe generated (and
    /// the frontier charged against the join-cardinality budget).
    pub candidates: u64,
    /// Candidates surviving exact verification (== `candidates` at
    /// T = 1: the signatures are an exact encoding of the predicate).
    pub verified: u64,
    /// Output trees emitted (one per verified group pair kept).
    pub pairs_emitted: u64,
    /// Worker threads available to the signature and probe fan-out.
    pub workers: usize,
}

/// One side's distinct-tree group: the index of its first member (the
/// emission-order key: identical trees dedup to their first occurrence)
/// and the final rare-first signature.
struct Group {
    first: usize,
    sig: Vec<u32>,
}

/// A signature element before renumbering: an SEO enhanced-class id or
/// a literal key rendering.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Elem {
    Class(u32),
    Str(String),
}

/// The similarity join: signature groups → rare-first prefix index →
/// stamped probe with commit-frontier charging → exact verification →
/// ordered emission. Returns the joined instance plus what the probe did.
pub fn similarity_join(
    left: &SeoInstance,
    right: &SeoInstance,
    left_key: &JoinKey,
    right_key: &JoinKey,
    pool: &WorkerPool,
    gov: &QueryGovernor,
) -> TossResult<(SeoInstance, JoinStats)> {
    let mut stats = JoinStats {
        workers: pool.workers(),
        ..Default::default()
    };
    let span = toss_obs::span("toss.join");
    let classes = seo_classes(&left.seo);

    // --- 1. signatures + fingerprint grouping (pooled per side) ---
    let sig_span = toss_obs::span("toss.join.signatures");
    let lraw = side_groups(&left.forest, left_key, &classes, pool);
    let rraw = side_groups(&right.forest, right_key, &classes, pool);
    stats.groups_left = lraw.len();
    stats.groups_right = rraw.len();
    toss_obs::metrics::counter("toss.join.groups").add((lraw.len() + rraw.len()) as u64);
    sig_span.record("groups_left", lraw.len());
    sig_span.record("groups_right", rraw.len());
    drop(sig_span);

    // --- 2. rare-first element space + prefix-filter inverted index ---
    let index_span = toss_obs::span("toss.join.index");
    let class_freq = seo_class_frequencies(&left.seo);
    let rank = rank_elements(&lraw, &rraw, &class_freq);
    stats.distinct_elements = rank.len();
    let lgroups = finish_groups(lraw, &rank);
    let rgroups = finish_groups(rraw, &rank);
    // Postings over the build (right) side, one list per element rank.
    // Group ids ascend within each list because groups are visited in
    // id order — which is first-occurrence order.
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); rank.len()];
    for (g, grp) in rgroups.iter().enumerate() {
        for &e in &grp.sig[..prefix_len(grp.sig.len())] {
            postings[e as usize].push(g as u32);
        }
    }
    // Deterministic memory charge for the index + group structures
    // (independent of worker count). A tripped soft ceiling records
    // degradation and continues — the index is already built and the
    // candidate budget bounds what it can produce; a hard ceiling errors.
    let posting_entries: u64 = postings.iter().map(|p| p.len() as u64).sum();
    let index_bytes = posting_entries * 4
        + rank.len() as u64 * 40
        + (lgroups.len() + rgroups.len()) as u64 * 64;
    gov.charge_memory(index_bytes)?;
    index_span.record("elements", rank.len());
    index_span.record("posting_entries", posting_entries);
    drop(index_span);

    // --- 3. speculative probe fan-out (never charges) ---
    let probe_span = toss_obs::span("toss.join.probe");
    let nr = rgroups.len();
    let ranges = partition_ranges(lgroups.len(), pool.workers().max(1) * 4, 64);
    let postings_ref = &postings;
    let lgroups_ref = &lgroups;
    let rgroups_ref = &rgroups;
    let tasks: Vec<_> = ranges
        .into_iter()
        .map(|(s, e)| {
            move || {
                // Generation-stamped visited array: candidate dedup is
                // O(1) per posting entry, no clearing between probes.
                let mut stamp: Vec<u32> = vec![u32::MAX; nr];
                let mut out: Vec<(u32, Vec<u32>)> = Vec::new();
                for (lg, lgroup) in lgroups_ref.iter().enumerate().take(e).skip(s) {
                    if !gov.join_candidates_preflight() {
                        // Budget exhausted before this join (or the
                        // query was cancelled): stop speculating. The
                        // frontier below reproduces the decision
                        // deterministically.
                        break;
                    }
                    let sig = &lgroup.sig;
                    if sig.is_empty() {
                        continue;
                    }
                    let mut cands: Vec<u32> = Vec::new();
                    for &e_id in &sig[..prefix_len(sig.len())] {
                        for &rg in &postings_ref[e_id as usize] {
                            if stamp[rg as usize] != lg as u32 {
                                stamp[rg as usize] = lg as u32;
                                cands.push(rg);
                            }
                        }
                    }
                    if cands.is_empty() {
                        continue;
                    }
                    let generated = cands.len() as u32;
                    cands.sort_unstable();
                    // exact verification under the adaptive constraint
                    cands.retain(|&rg| {
                        verify_overlap(sig, &rgroups_ref[rg as usize].sig, OVERLAP_T)
                    });
                    debug_assert_eq!(
                        generated as usize,
                        cands.len(),
                        "at T = 1 every prefix collision is a real overlap"
                    );
                    out.push((lg as u32, cands));
                }
                out
            }
        })
        .collect();
    let per_range = pool.run(tasks);
    drop(probe_span);

    // --- commit frontier: charge candidates in task order ---
    let mut matched: Vec<(u32, u32)> = Vec::new();
    'frontier: for (lg, cands) in per_range.into_iter().flatten() {
        let allowed = gov.admit_join_candidates(cands.len())?;
        if allowed < cands.len() {
            stats.candidates += allowed as u64;
            stats.verified += allowed as u64;
            matched.extend(cands[..allowed].iter().map(|&rg| (lg, rg)));
            break 'frontier;
        }
        stats.candidates += cands.len() as u64;
        stats.verified += cands.len() as u64;
        matched.extend(cands.iter().map(|&rg| (lg, rg)));
    }
    toss_obs::metrics::counter("toss.join.candidates").add(stats.candidates);

    // --- 4. emission: one graft per verified group pair ---
    // Group ids are first-occurrence order on both sides, so ascending
    // (lg, rg) is exactly the order in which enumerating L × R (left
    // index ascending, right index ascending) first reaches each
    // distinct pair — i.e. the order a first-occurrence dedup of
    // product-then-select keeps. The frontier already yields (lg, rg)
    // sorted; the sort is a cheap invariant guard.
    let emit_span = toss_obs::span("toss.join.emit");
    matched.sort_unstable();
    let ltrees = left.forest.trees();
    let rtrees = right.forest.trees();
    let mut out = Forest::new();
    for (lg, rg) in matched {
        let lt = &ltrees[lgroups[lg as usize].first];
        let rt = &rtrees[rgroups[rg as usize].first];
        let mut t = Tree::with_root(NodeData::element(PROD_ROOT_TAG));
        let root = t.root().expect("with_root sets root");
        if let Some(lr) = lt.root() {
            t.graft(Some(root), lt, lr)?;
        }
        if let Some(rr) = rt.root() {
            t.graft(Some(root), rt, rr)?;
        }
        out.push(t);
    }
    stats.pairs_emitted = out.len() as u64;
    toss_obs::metrics::counter("toss.join.pairs_emitted").add(stats.pairs_emitted);
    emit_span.record("pairs", out.len());
    drop(emit_span);

    span.record("candidates", stats.candidates);
    span.record("results", out.len());
    // Distinct group pairs graft distinct trees (both sides of a
    // matched pair are non-empty: empty trees have empty signatures),
    // and dedup order is reproduced above — no final dedup pass needed.
    Ok((SeoInstance::new(out, left.seo.clone()), stats))
}

/// How many leading elements of a signature the prefix filter must
/// index/probe so that any pair with overlap ≥ [`OVERLAP_T`] collides:
/// `len − T + 1` (the whole signature at T = 1).
fn prefix_len(sig_len: usize) -> usize {
    if sig_len == 0 {
        0
    } else {
        // `max(1)`: even when T exceeds the signature length, one
        // element stays indexed (such a pair can never reach overlap T,
        // and verification rejects it).
        sig_len.saturating_sub(OVERLAP_T - 1).max(1)
    }
}

/// One side's trees, fingerprint-grouped, with the raw (un-renumbered)
/// signature of each group: sorted class ids + sorted key renderings.
struct RawGroup {
    first: usize,
    classes: Vec<u32>,
    keys: Vec<String>,
}

/// Fingerprint + key extraction fans out through the pool (tasks are
/// range-partitioned and results concatenate in task order, so the
/// outcome is identical at any worker count); grouping is sequential.
fn side_groups(
    forest: &Forest,
    key: &JoinKey,
    classes: &HashMap<String, Vec<u32>>,
    pool: &WorkerPool,
) -> Vec<RawGroup> {
    let trees = forest.trees();
    let ranges = partition_ranges(trees.len(), pool.workers().max(1) * 4, 128);
    let tasks: Vec<_> = ranges
        .into_iter()
        .map(|(s, e)| {
            move || {
                trees[s..e]
                    .iter()
                    .map(|t| (toss_tree::eq::fingerprint(t), key.extract(t)))
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    let signed: Vec<(String, Vec<String>)> = pool.run(tasks).into_iter().flatten().collect();

    let mut by_fp: HashMap<String, ()> = HashMap::with_capacity(signed.len());
    let mut groups: Vec<RawGroup> = Vec::new();
    for (i, (fp, keys)) in signed.into_iter().enumerate() {
        use std::collections::hash_map::Entry;
        match by_fp.entry(fp) {
            Entry::Occupied(_) => {} // identical tree ⇒ identical signature
            Entry::Vacant(v) => {
                v.insert(());
                let mut cls: Vec<u32> = keys
                    .iter()
                    .flat_map(|k| classes.get(k).map(Vec::as_slice).unwrap_or(&[]))
                    .copied()
                    .collect();
                cls.sort_unstable();
                cls.dedup();
                let mut ks = keys;
                ks.sort_unstable();
                groups.push(RawGroup {
                    first: i,
                    classes: cls,
                    keys: ks,
                });
            }
        }
    }
    groups
}

/// Build the rare-first element space: every distinct element across
/// both sides, ranked ascending by (global group frequency, SEO
/// per-class term frequency, identity). Returns element → rank.
fn rank_elements(
    lgroups: &[RawGroup],
    rgroups: &[RawGroup],
    class_freq: &[u32],
) -> HashMap<Elem, u32> {
    let mut freq: HashMap<Elem, u32> = HashMap::new();
    for g in rgroups.iter().chain(lgroups.iter()) {
        for &c in &g.classes {
            *freq.entry(Elem::Class(c)).or_insert(0) += 1;
        }
        for k in &g.keys {
            *freq.entry(Elem::Str(k.clone())).or_insert(0) += 1;
        }
    }
    let mut order: Vec<(u32, u32, Elem)> = freq
        .into_iter()
        .map(|(e, f)| {
            let tf = match &e {
                Elem::Class(c) => class_freq.get(*c as usize).copied().unwrap_or(0),
                // a literal string matches only its own rendering
                Elem::Str(_) => 1,
            };
            (f, tf, e)
        })
        .collect();
    order.sort_unstable();
    order
        .into_iter()
        .enumerate()
        .map(|(rank, (_, _, e))| (e, rank as u32))
        .collect()
}

/// Renumber each group's signature into rank space, sorted ascending —
/// which *is* the rare-first order, so prefixes are leading slices and
/// verification is a plain integer merge.
fn finish_groups(raw: Vec<RawGroup>, rank: &HashMap<Elem, u32>) -> Vec<Group> {
    raw.into_iter()
        .map(|g| {
            let mut sig: Vec<u32> = Vec::with_capacity(g.classes.len() + g.keys.len());
            for c in g.classes {
                sig.push(rank[&Elem::Class(c)]);
            }
            for k in g.keys {
                sig.push(rank[&Elem::Str(k)]);
            }
            sig.sort_unstable();
            sig.dedup();
            Group { first: g.first, sig }
        })
        .collect()
}

/// Exact verification with the adaptive overlap constraint: walk both
/// rank-sorted signatures, and bail the moment the elements remaining
/// on either side cannot supply the overlap still required — the
/// constraint tightens as matches are found and as mismatches rule
/// partial overlap out.
fn verify_overlap(a: &[u32], b: &[u32], t: usize) -> bool {
    let (mut i, mut j, mut found) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let need = t - found;
        if a.len() - i < need || b.len() - j < need {
            return false;
        }
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                found += 1;
                if found >= t {
                    return true;
                }
                i += 1;
                j += 1;
            }
        }
    }
    found >= t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::similarity_hash_join;
    use crate::error::TossError;
    use crate::governor::{Limit, QueryBudget};
    use std::sync::Arc;
    use toss_ontology::hierarchy::from_pairs;
    use toss_ontology::sea::enhance;
    use toss_similarity::Levenshtein;
    use toss_tree::TreeBuilder;

    fn fp_list(inst: &SeoInstance) -> Vec<String> {
        inst.forest.iter().map(toss_tree::eq::fingerprint).collect()
    }

    fn skewed_instances(n: usize) -> (SeoInstance, SeoInstance) {
        // one hot class: "huba".."hubd" are pairwise 1 edit apart
        let h = from_pairs(&[
            ("huba", "topic"),
            ("hubb", "topic"),
            ("hubc", "topic"),
            ("hubd", "topic"),
        ])
        .unwrap();
        let seo = Arc::new(enhance(&h, &Levenshtein, 1.0).unwrap());
        let hot = ["huba", "hubb", "hubc", "hubd"];
        let mk = |side: &str, i: usize| {
            let key = if i.is_multiple_of(2) {
                hot[i % hot.len()].to_string()
            } else {
                format!("cold-{side}-{i}")
            };
            TreeBuilder::new("doc").leaf("k", key).build()
        };
        let l: Forest = (0..n).map(|i| mk("l", i)).collect();
        let r: Forest = (0..n).map(|i| mk("r", i)).collect();
        (
            SeoInstance::new(l, seo.clone()),
            SeoInstance::new(r, seo),
        )
    }

    /// A flat join is governed like any other: it charges the candidate
    /// pairs it generates and a hard join-cardinality limit aborts it.
    #[test]
    fn flat_join_charges_candidates_and_obeys_hard_limit() {
        // unique keys, 50 of 500 shared between the sides
        let h = from_pairs(&[("a", "b")]).unwrap();
        let seo = Arc::new(enhance(&h, &Levenshtein, 0.0).unwrap());
        let lf: Forest = (0..500)
            .map(|i| TreeBuilder::new("doc").leaf("k", format!("u{i}")).build())
            .collect();
        let rf: Forest = (0..500)
            .map(|i| TreeBuilder::new("doc").leaf("k", format!("u{}", i + 450)).build())
            .collect();
        let (l, r) = (SeoInstance::new(lf, seo.clone()), SeoInstance::new(rf, seo));
        let key = JoinKey::child("k");
        let pool = WorkerPool::new(1);

        let gov = QueryGovernor::unlimited();
        let (out, stats) = similarity_join(&l, &r, &key, &key, &pool, &gov).unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(stats.candidates, 50);
        assert_eq!(gov.join_candidates(), 50);

        let hard =
            QueryGovernor::new(QueryBudget::unlimited().with_max_join_cardinality(Limit::hard(49)));
        let err = similarity_join(&l, &r, &key, &key, &pool, &hard).unwrap_err();
        assert!(matches!(err, TossError::BudgetExceeded(_)), "got {err:?}");
    }

    #[test]
    fn identical_output_at_every_worker_count_with_identical_tallies() {
        let (l, r) = skewed_instances(120);
        let key = JoinKey::child("k");
        let mut baseline: Option<(Vec<String>, u64)> = None;
        for workers in [1usize, 2, 7] {
            let pool = WorkerPool::new(workers);
            let gov = QueryGovernor::unlimited();
            let (out, _) = similarity_join(&l, &r, &key, &key, &pool, &gov).unwrap();
            let got = (fp_list(&out), gov.join_candidates());
            match &baseline {
                None => baseline = Some(got),
                Some(b) => assert_eq!(b, &got, "workers={workers}"),
            }
        }
    }

    #[test]
    fn refined_matches_public_hash_join_entry_point() {
        let (l, r) = skewed_instances(80);
        let key = JoinKey::child("k");
        let via_public = similarity_hash_join(&l, &r, &key, &key).unwrap();
        let (direct, _) = similarity_join(
            &l,
            &r,
            &key,
            &key,
            &WorkerPool::new(2),
            &QueryGovernor::unlimited(),
        )
        .unwrap();
        assert_eq!(fp_list(&via_public), fp_list(&direct));
    }

    #[test]
    fn verify_overlap_adaptive_bailout() {
        assert!(verify_overlap(&[1, 5, 9], &[0, 5, 7], 1));
        assert!(!verify_overlap(&[1, 2, 3], &[4, 5, 6], 1));
        assert!(verify_overlap(&[1, 2, 3, 4], &[2, 4, 8], 2));
        assert!(!verify_overlap(&[1, 2, 3, 4], &[4, 5, 6], 2));
        assert!(!verify_overlap(&[], &[1], 1));
    }

    #[test]
    fn prefix_is_full_signature_at_t1() {
        assert_eq!(prefix_len(0), 0);
        assert_eq!(prefix_len(1), 1);
        assert_eq!(prefix_len(5), 5);
    }
}
