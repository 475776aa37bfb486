//! The similarity join: an inverted index from signature elements to
//! build-side trees, probed with each probe-side tree's signature.
//!
//! Bucketing both sides by key class and verifying every bucket-mate is
//! far from quadratic on flat inputs, but one *hot* class degenerates to
//! its full cross product: every left tree in the class is grafted
//! against every right tree, copies included. This join answers flat and
//! skewed inputs alike:
//!
//! 1. **Signatures.** Each tree's signature is the set of enhanced-class
//!    ids of all its key renderings plus the renderings themselves
//!    (identical strings join even outside the ontology, so the literal
//!    key is itself a signature element). Two trees join iff their
//!    signatures share an element, which makes the similarity join an
//!    exact set-overlap join at threshold T = 1. Trees are first grouped
//!    by canonical fingerprint — duplicated trees (the very thing a
//!    skewed corpus is full of) are signed, probed and charged **once
//!    per distinct tree**, not once per copy.
//! 2. **Inverted index.** Signature elements are interned to dense ids,
//!    and the build (right) side gets one posting list per element.
//! 3. **Lookup.** A left group's matches are the union of its elements'
//!    posting lists. At T = 1 that union *is* the predicate: every right
//!    group it offers shares an element, so nothing is left to verify.
//!    (*Efficient Taxonomic Similarity Joins with Adaptive Overlap
//!    Constraint*, PAPERS.md, needs a prefix filter and an overlap
//!    verifier because its T exceeds 1; here the prefix is the whole
//!    signature and the verifier would accept every candidate.)
//! 4. **Emission.** One graft per matched (left-group, right-group)
//!    pair, ascending — groups are numbered by first occurrence, so this
//!    is the order in which product-then-select followed by a
//!    first-occurrence dedup keeps its pairs, and the output equals that
//!    oracle as a *sequence*, not merely as a set (asserted by
//!    `tests/join.rs` and the `join` workload of `benchmark/`).
//!
//! **Parallelism and governance.** Signature generation and the lookup
//! fan out through [`toss_pool::WorkerPool`], which returns task results
//! in task order. The join evaluates, then charges: lookup tasks never
//! charge, and one sequential pass walks their results in task order —
//! the join's commit frontier — charging matched pairs against the
//! join-cardinality budget ([`QueryGovernor::admit_join_candidates`])
//! and truncating deterministically when a soft limit trips — so
//! governor tallies are bit-identical at any worker count. The index and
//! group structures are charged once to the memory budget
//! ([`QueryGovernor::charge_memory`]). Every join pays both charges,
//! however small its inputs.

use super::hashjoin::JoinKey;
use crate::error::TossResult;
use crate::expand::seo_classes;
use crate::governor::QueryGovernor;
use crate::oes::SeoInstance;
use crate::tax::PROD_ROOT_TAG;
use std::collections::{HashMap, HashSet};
use toss_pool::{partition_ranges, WorkerPool};
use toss_tree::{Forest, NodeData, Tree};

/// What one similarity join did (surfaced via `toss.join.*` counters,
/// the query plan and the `join` workload of `benchmark/`).
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinStats {
    /// Distinct probe-side (left) tree groups.
    pub groups_left: usize,
    /// Distinct build-side (right) tree groups.
    pub groups_right: usize,
    /// Matched group pairs the lookup found and the frontier charged
    /// against the join-cardinality budget.
    pub candidates: u64,
    /// Output trees emitted (one per charged group pair).
    pub pairs_emitted: u64,
    /// Worker threads available to the signature and lookup fan-out.
    pub workers: usize,
}

/// One side's distinct-tree group: the index of its first member (the
/// emission-order key: identical trees dedup to their first occurrence)
/// and its signature as interned element ids.
struct Group {
    first: usize,
    sig: Vec<u32>,
}

/// A signature element before interning: an SEO enhanced-class id or a
/// literal key rendering.
#[derive(PartialEq, Eq, Hash)]
enum Elem {
    Class(u32),
    Str(String),
}

/// The similarity join: signature groups → inverted index over the right
/// side → lookup with commit-frontier charging → ordered emission.
/// Returns the joined instance plus what the lookup did.
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
    let mut ids: HashMap<Elem, u32> = HashMap::new();
    let lgroups = side_groups(&left.forest, left_key, &classes, pool, &mut ids);
    let rgroups = side_groups(&right.forest, right_key, &classes, pool, &mut ids);
    stats.groups_left = lgroups.len();
    stats.groups_right = rgroups.len();
    toss_obs::metrics::counter("toss.join.groups").add((lgroups.len() + rgroups.len()) as u64);
    sig_span.record("groups_left", lgroups.len());
    sig_span.record("groups_right", rgroups.len());
    drop(sig_span);

    // --- 2. inverted index over the build (right) side ---
    let index_span = toss_obs::span("toss.join.index");
    // Group ids ascend within each list because groups are visited in
    // id order — which is first-occurrence order.
    let mut postings: Vec<Vec<u32>> = vec![Vec::new(); ids.len()];
    for (g, grp) in rgroups.iter().enumerate() {
        for &e in &grp.sig {
            postings[e as usize].push(g as u32);
        }
    }
    // Deterministic memory charge for the index + group structures
    // (independent of worker count). A tripped soft ceiling records
    // degradation and continues — the index is already built and the
    // candidate budget bounds what it can produce; a hard ceiling errors.
    let posting_entries: u64 = postings.iter().map(|p| p.len() as u64).sum();
    let index_bytes =
        posting_entries * 4 + ids.len() as u64 * 40 + (lgroups.len() + rgroups.len()) as u64 * 64;
    gov.charge_memory(index_bytes)?;
    index_span.record("elements", ids.len());
    index_span.record("posting_entries", posting_entries);
    drop(index_span);

    // --- 3. speculative lookup fan-out (never charges) ---
    let probe_span = toss_obs::span("toss.join.probe");
    let nr = rgroups.len();
    let ranges = partition_ranges(lgroups.len(), pool.workers().max(1) * 4, 64);
    let (postings, lgroups_ref) = (&postings, &lgroups);
    let tasks: Vec<_> = ranges
        .into_iter()
        .map(|(s, e)| {
            move || {
                // Generation-stamped visited array: match dedup is O(1)
                // per posting entry, no clearing between lookups.
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
                    let mut matches: Vec<u32> = Vec::new();
                    for &el in &lgroup.sig {
                        for &rg in &postings[el as usize] {
                            if stamp[rg as usize] != lg as u32 {
                                stamp[rg as usize] = lg as u32;
                                matches.push(rg);
                            }
                        }
                    }
                    if !matches.is_empty() {
                        matches.sort_unstable();
                        out.push((lg as u32, matches));
                    }
                }
                out
            }
        })
        .collect();
    let per_range = pool.run(tasks);
    drop(probe_span);

    // --- commit frontier: charge matches in task order ---
    // Left groups ascend across tasks and right groups within each
    // list, so `matched` comes out in ascending (lg, rg) order.
    let mut matched: Vec<(u32, u32)> = Vec::new();
    for (lg, matches) in per_range.into_iter().flatten() {
        let allowed = gov.admit_join_candidates(matches.len())?;
        stats.candidates += allowed as u64;
        matched.extend(matches[..allowed].iter().map(|&rg| (lg, rg)));
        if allowed < matches.len() {
            break;
        }
    }
    toss_obs::metrics::counter("toss.join.candidates").add(stats.candidates);

    // --- 4. emission: one graft per matched group pair ---
    // Group ids are first-occurrence order on both sides, so ascending
    // (lg, rg) is exactly the order in which enumerating L × R (left
    // index ascending, right index ascending) first reaches each
    // distinct pair — i.e. the order a first-occurrence dedup of
    // product-then-select keeps.
    let emit_span = toss_obs::span("toss.join.emit");
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

/// One side's trees, fingerprint-grouped, each group signed with the
/// interned ids of its key renderings' classes and of the renderings
/// themselves. Fingerprint + key extraction fans out through the pool
/// (tasks are range-partitioned and results concatenate in task order,
/// so the outcome is identical at any worker count); grouping and
/// interning are sequential.
fn side_groups(
    forest: &Forest,
    key: &JoinKey,
    classes: &HashMap<String, Vec<u32>>,
    pool: &WorkerPool,
    ids: &mut HashMap<Elem, u32>,
) -> Vec<Group> {
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

    let mut seen: HashSet<String> = HashSet::with_capacity(signed.len());
    let mut groups: Vec<Group> = Vec::new();
    for (i, (fp, keys)) in signed.into_iter().enumerate() {
        // identical tree ⇒ identical signature
        if !seen.insert(fp) {
            continue;
        }
        let mut cls: Vec<u32> = keys
            .iter()
            .flat_map(|k| classes.get(k).map(Vec::as_slice).unwrap_or(&[]))
            .copied()
            .collect();
        cls.sort_unstable();
        cls.dedup();
        // `extract` already dropped repeated renderings, so the ids are
        // distinct without another pass
        let sig = cls
            .into_iter()
            .map(Elem::Class)
            .chain(keys.into_iter().map(Elem::Str))
            .map(|el| {
                let next = ids.len() as u32;
                *ids.entry(el).or_insert(next)
            })
            .collect();
        groups.push(Group { first: i, sig });
    }
    groups
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
    fn direct_call_matches_public_hash_join_entry_point() {
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
}
