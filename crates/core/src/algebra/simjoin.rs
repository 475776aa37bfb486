//! The similarity join: an inverted index from the build side's
//! signature elements to its trees, probed with each probe-side tree's
//! signature.
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
//!    exact set-overlap join at threshold T = 1. Each side arrives as
//!    distinct [`toss_tree::View`]s — read in place from the stored
//!    documents, deduplicated by identity ([`toss_tree::eq::TreeSet`]: a
//!    keyed structural hash, confirmed by comparison; nothing is
//!    rendered to text or copied) — so duplicated trees (the very thing
//!    a skewed corpus is full of) are probed and charged **once per
//!    distinct tree**, not once per copy. The executor's side selections
//!    hand over their witness views as they are; the public entry makes
//!    whole-tree views of its forests and groups them the same way.
//!    Nothing is interned: a signature is the view's borrowed key
//!    renderings and its sorted class ids, looked up in the SEO's own
//!    term index.
//! 2. **Inverted index.** Only the build (right) side is indexed: class
//!    ids post to a dense list per class, key renderings to a map keyed
//!    by the right side's borrowed strings.
//! 3. **Lookup.** A left group's matches are the union of the posting
//!    lists its classes and keys find. At T = 1 that union *is* the
//!    predicate: every right group it offers shares an element, so
//!    nothing is left to verify. (*Efficient Taxonomic Similarity Joins
//!    with Adaptive Overlap Constraint*, PAPERS.md, needs a prefix
//!    filter and an overlap verifier because its T exceeds 1; here the
//!    prefix is the whole signature and the verifier would accept every
//!    candidate.)
//! 4. **Emission.** One graft per matched (left-group, right-group)
//!    pair, copied straight from the two views, ascending — groups are
//!    numbered by first occurrence, so this
//!    is the order in which product-then-select followed by a
//!    first-occurrence dedup keeps its pairs, and the output equals that
//!    oracle as a *sequence*, not merely as a set (asserted by
//!    `tests/join.rs` and the `join` workload of `benchmark/`).
//!
//! **Parallelism and governance.** Signature generation, the lookup and
//! emission fan out through [`toss_pool::WorkerPool`], which returns
//! task results in task order; only the index build and the commit
//! frontier are sequential. The join evaluates,
//! then charges: lookup tasks never charge, and one sequential pass
//! walks their results in task order — the join's commit frontier —
//! charging matched pairs against the join-cardinality budget
//! ([`QueryGovernor::admit_join_candidates`]) and truncating
//! deterministically when the cap trips — so governor tallies are
//! bit-identical at any worker count. Emission tasks graft contiguous
//! ranges of the committed pairs and concatenate in task order. The
//! build-side index and both sides' groups are charged once to the
//! memory budget ([`QueryGovernor::charge_memory`]). Every join pays
//! both charges, however small its inputs.

use super::hashjoin::JoinKey;
use crate::error::TossResult;
use crate::governor::QueryGovernor;
use crate::oes::SeoInstance;
use crate::tax::PROD_ROOT_TAG;
use std::borrow::Cow;
use std::collections::HashMap;
use toss_ontology::Seo;
use toss_pool::{partition_ranges, WorkerPool};
use toss_tree::{Forest, NodeData, Tree, Views};

/// Fewest matched pairs one emission task grafts: a join with fewer
/// pairs than twice this (the flat leg's few hundred) emits inline and
/// spawns no thread.
const MIN_EMIT_CHUNK: usize = 1024;

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
    /// Worker threads available to the signature, lookup and emission
    /// fan-out.
    pub workers: usize,
}

/// One side's distinct-tree group — one distinct view, numbered by
/// first occurrence (the emission-order key: identical trees dedup to
/// their first occurrence) — signed with its distinct key renderings
/// and the sorted, deduplicated class ids they belong to.
struct Group<'t> {
    keys: Vec<Cow<'t, str>>,
    classes: Vec<u32>,
}

/// The similarity join over two SEO instances: whole-tree views of each
/// forest, grouped by identity, joined by the one join body the
/// executor also runs (over its sides' witness views). Returns the
/// joined instance plus what the lookup did.
pub fn similarity_join(
    left: &SeoInstance,
    right: &SeoInstance,
    left_key: &JoinKey,
    right_key: &JoinKey,
    pool: &WorkerPool,
    gov: &QueryGovernor,
) -> TossResult<(SeoInstance, JoinStats)> {
    let (l, r) = (distinct_whole(&left.forest), distinct_whole(&right.forest));
    let (out, stats) = join_views(&left.seo, &l, &r, left_key, right_key, pool, gov)?;
    Ok((SeoInstance::new(out, left.seo.clone()), stats))
}

/// Whole-tree views of `forest`'s distinct trees, first occurrences in
/// order.
fn distinct_whole(forest: &Forest) -> Views<'_> {
    let mut views = Views::new();
    for t in forest {
        views.push_whole(t);
    }
    views.dedup();
    views
}

/// The one similarity join: signatures of both sides' distinct views →
/// inverted index over the right side → lookup with commit-frontier
/// charging → ordered emission grafted from the views. `left` and
/// `right` must each hold distinct views (as [`Views::dedup`] leaves
/// them): every view is its own group.
pub(crate) fn join_views(
    seo: &Seo,
    left: &Views<'_>,
    right: &Views<'_>,
    left_key: &JoinKey,
    right_key: &JoinKey,
    pool: &WorkerPool,
    gov: &QueryGovernor,
) -> TossResult<(Forest, JoinStats)> {
    let mut stats = JoinStats {
        workers: pool.workers(),
        ..Default::default()
    };
    let span = toss_obs::span("toss.join");

    // --- 1. signatures (pooled per side) ---
    let sig_span = toss_obs::span("toss.join.signatures");
    let lgroups = signatures(left, left_key, seo, pool);
    let rgroups = signatures(right, right_key, seo, pool);
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
    let mut by_class: Vec<Vec<u32>> = Vec::new();
    let mut by_key: HashMap<&str, Vec<u32>> = HashMap::with_capacity(rgroups.len());
    for (g, grp) in rgroups.iter().enumerate() {
        for &c in &grp.classes {
            let c = c as usize;
            if c >= by_class.len() {
                by_class.resize_with(c + 1, Vec::new);
            }
            by_class[c].push(g as u32);
        }
        // `extract` already dropped repeated renderings, so a group
        // posts to each key once
        for k in &grp.keys {
            by_key.entry(k.as_ref()).or_default().push(g as u32);
        }
    }
    // Deterministic memory charge for the build-side index and both
    // sides' groups (independent of worker count): 4 bytes per posting
    // entry, a list header per class slot, a borrowed string plus list
    // header per key entry, and a fixed cost per group. A tripped
    // ceiling records degradation and continues — the index is already
    // built and the candidate budget bounds what it can produce.
    let posting_entries: u64 = by_class
        .iter()
        .chain(by_key.values())
        .map(|p| p.len() as u64)
        .sum();
    let index_bytes = posting_entries * 4
        + by_class.len() as u64 * 24
        + by_key.len() as u64 * 40
        + (lgroups.len() + rgroups.len()) as u64 * 64;
    gov.charge_memory(index_bytes);
    let class_elements = by_class.iter().filter(|p| !p.is_empty()).count();
    index_span.record("elements", class_elements + by_key.len());
    index_span.record("posting_entries", posting_entries);
    drop(index_span);

    // --- 3. speculative lookup fan-out (never charges) ---
    let probe_span = toss_obs::span("toss.join.probe");
    let nr = rgroups.len();
    let ranges = partition_ranges(lgroups.len(), pool.workers().max(1) * 4, 64);
    let (by_class, by_key, lgroups_ref) = (&by_class, &by_key, &lgroups);
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
                    let class_lists = lgroup
                        .classes
                        .iter()
                        .filter_map(|&c| by_class.get(c as usize));
                    let key_lists = lgroup.keys.iter().filter_map(|k| by_key.get(k.as_ref()));
                    let mut matches: Vec<u32> = Vec::new();
                    for &rg in class_lists.chain(key_lists).flatten() {
                        if stamp[rg as usize] != lg as u32 {
                            stamp[rg as usize] = lg as u32;
                            matches.push(rg);
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

    // --- 4. emission: one graft per matched group pair (pooled) ---
    // Group ids are first-occurrence order on both sides, so ascending
    // (lg, rg) is exactly the order in which enumerating L × R (left
    // index ascending, right index ascending) first reaches each
    // distinct pair — i.e. the order a first-occurrence dedup of
    // product-then-select keeps. Tasks graft contiguous ranges of
    // `matched` and concatenate in task order, so that order holds at
    // any worker count, and the first graft error in task order wins.
    let emit_span = toss_obs::span("toss.join.emit");
    let matched = &matched;
    let ranges = partition_ranges(matched.len(), pool.workers().max(1) * 4, MIN_EMIT_CHUNK);
    let tasks: Vec<_> = ranges
        .into_iter()
        .map(|(s, e)| {
            move || {
                matched[s..e]
                    .iter()
                    .map(|&(lg, rg)| {
                        let (lv, rv) = (view(left, lg), view(right, rg));
                        let mut t = Tree::with_capacity(1 + lv.len() + rv.len());
                        let root = t.set_root(NodeData::element(PROD_ROOT_TAG))?;
                        t.graft_preorder(Some(root), lv)?;
                        t.graft_preorder(Some(root), rv)?;
                        Ok(t)
                    })
                    .collect::<TossResult<Vec<Tree>>>()
            }
        })
        .collect();
    let mut trees: Vec<Tree> = Vec::with_capacity(matched.len());
    for part in pool.run(tasks) {
        trees.extend(part?);
    }
    let out = Forest::from_trees(trees);
    stats.pairs_emitted = out.len() as u64;
    toss_obs::metrics::counter("toss.join.pairs_emitted").add(stats.pairs_emitted);
    emit_span.record("pairs", out.len());
    drop(emit_span);

    span.record("candidates", stats.candidates);
    span.record("results", out.len());
    // Distinct group pairs graft distinct trees (both sides of a
    // matched pair are non-empty: empty trees have empty signatures),
    // and dedup order is reproduced above — no final dedup pass needed.
    Ok((out, stats))
}

/// Group `g`'s view.
fn view<'v, 't>(views: &'v Views<'t>, g: u32) -> toss_tree::View<'v> {
    views
        .get(g as usize)
        .expect("groups index their side's views")
}

/// One side's distinct views, each signed with its key renderings and
/// their classes. Key extraction and the class lookup fan out through
/// the pool (tasks are range-partitioned and results concatenate in
/// task order, so the outcome is identical at any worker count).
fn signatures<'v>(
    views: &'v Views<'_>,
    key: &JoinKey,
    seo: &Seo,
    pool: &WorkerPool,
) -> Vec<Group<'v>> {
    let ranges = partition_ranges(views.len(), pool.workers().max(1) * 4, 128);
    let tasks: Vec<_> = ranges
        .into_iter()
        .map(|(s, e)| {
            move || {
                (s..e)
                    .map(|i| {
                        let keys = key.extract(view(views, i as u32));
                        let mut classes: Vec<u32> = keys
                            .iter()
                            .flat_map(|k| seo.enhanced_nodes_of_term(k))
                            .map(|e| e.0 as u32)
                            .collect();
                        classes.sort_unstable();
                        classes.dedup();
                        Group { keys, classes }
                    })
                    .collect::<Vec<_>>()
            }
        })
        .collect();
    pool.run(tasks).into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::similarity_hash_join;
    use std::sync::Arc;
    use toss_ontology::hierarchy::from_pairs;
    use toss_ontology::sea::enhance;
    use toss_similarity::Levenshtein;
    use toss_tree::TreeBuilder;

    /// The join reads class ids off the SEO's own term index; they are
    /// the ids `seo_classes` lists (the `X ~ Y` expansion's map), in
    /// the same order, for every term of a fused SEO.
    #[test]
    fn term_index_gives_the_seo_classes_ids_in_order() {
        // "ab" is one edit from "aa" and from "bb", which are two apart:
        // at ε = 1 it sits in two similarity classes
        let a = from_pairs(&[
            ("aa", "pair"),
            ("ab", "pair"),
            ("bb", "pair"),
            ("pair", "venue"),
        ])
        .unwrap();
        let b = from_pairs(&[("bb", "pair"), ("VLDB", "journal"), ("journal", "venue")]).unwrap();
        let fused = toss_ontology::fuse(&[a, b], &[]).unwrap();
        let seo = enhance(&fused.hierarchy, &Levenshtein, 1.0).unwrap();
        let classes = crate::expand::seo_classes(&seo);
        let terms = seo.original().all_terms();
        assert!(terms.len() >= 6, "{terms:?}");
        assert!(
            classes.values().any(|ids| ids.len() > 1),
            "a term in two classes"
        );
        for term in terms.iter().chain(classes.keys()) {
            let ids: Vec<u32> = seo
                .enhanced_nodes_of_term(term)
                .iter()
                .map(|e| e.0 as u32)
                .collect();
            assert_eq!(Some(&ids), classes.get(term), "{term}");
        }
        assert!(seo.enhanced_nodes_of_term("not a term").is_empty());
    }

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
    /// pairs it generates.
    #[test]
    fn flat_join_charges_the_candidates_it_generates() {
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
