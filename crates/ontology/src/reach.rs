//! Precomputed reachability index for hierarchy graphs.
//!
//! A [`ReachIndex`] is built once per [`DiGraph`] snapshot and turns the
//! rewrite-time ontology operations into lookups:
//!
//! * `leq(a, b)` — one bit test against the ancestor bitset of `a`,
//!   instead of a fresh DFS;
//! * `below_cone(v)` / `above_cone(v)` — the full ≤-cone of a node,
//!   memoized as `Arc<[u32]>` so repeated queries are allocation-free;
//! * `below_many(targets)` — a word-parallel union of descendant rows,
//!   replacing the per-call reverse-adjacency rebuild + BFS.
//!
//! Edge direction follows the hierarchy convention: an edge `u → v`
//! means `u ≤ v`, so the *descendants* of `v` (its below-cone) are the
//! vertices that reach `v`, and the *ancestors* are the vertices `v`
//! reaches. Both cones include the node itself (≤ is reflexive).
//!
//! The index is a pure function of the graph; [`Hierarchy`] owns the
//! invalidation story (every mutation drops its cached index, so a
//! fused-and-re-enhanced ontology rebuilds on next use).
//!
//! [`Hierarchy`]: crate::hierarchy::Hierarchy

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use crate::graph::{iter_word_bits, BitMatrix, DiGraph};

/// Dense reachability bitsets plus memoized cones for one graph snapshot.
#[derive(Debug)]
pub struct ReachIndex {
    n: usize,
    /// Row `v`: bits `u` with `u ≤ v` (descendants of `v`, self included).
    desc: BitMatrix,
    /// Row `v`: bits `u` with `v ≤ u` (ancestors of `v`, self included).
    anc: BitMatrix,
    below_memo: Vec<OnceLock<Arc<[u32]>>>,
    above_memo: Vec<OnceLock<Arc<[u32]>>>,
}

impl ReachIndex {
    /// Build the index from a graph snapshot. `O(V·E/64 + V²/64)`.
    pub(crate) fn build(graph: &DiGraph) -> Self {
        let t0 = Instant::now();
        let n = graph.len();
        let closure = graph.transitive_closure_bits();
        // ancestors of u = closure row u (forward reachability) + self
        let mut anc = closure;
        // descendants of v = transpose of forward reachability + self
        let mut desc = BitMatrix::new(n);
        for u in 0..n {
            anc.set(u, u);
            desc.set(u, u);
        }
        for u in 0..n {
            for v in anc.iter_row(u) {
                if v != u {
                    desc.set(v, u);
                }
            }
        }
        let index = ReachIndex {
            n,
            desc,
            anc,
            below_memo: (0..n).map(|_| OnceLock::new()).collect(),
            above_memo: (0..n).map(|_| OnceLock::new()).collect(),
        };
        toss_obs::metrics::counter("toss.semantic.index_builds").inc();
        toss_obs::metrics::histogram("toss.semantic.index_build_ns")
            .observe_duration(t0.elapsed());
        index
    }

    /// Whether `a ≤ b` (reflexive). One bit test.
    pub fn leq(&self, a: usize, b: usize) -> bool {
        a == b || (a < self.n && b < self.n && self.desc.get(b, a))
    }

    /// The below-cone of `v`: every `u` with `u ≤ v`, ascending, self
    /// included. Memoized; repeated calls return the same allocation.
    pub fn below_cone(&self, v: usize) -> Arc<[u32]> {
        Arc::clone(self.below_memo[v].get_or_init(|| {
            self.desc.iter_row(v).map(|u| u as u32).collect()
        }))
    }

    /// The above-cone of `v`: every `u` with `v ≤ u`, ascending, self
    /// included. Memoized; repeated calls return the same allocation.
    pub fn above_cone(&self, v: usize) -> Arc<[u32]> {
        Arc::clone(self.above_memo[v].get_or_init(|| {
            self.anc.iter_row(v).map(|u| u as u32).collect()
        }))
    }

    /// Union of the below-cones of `targets` (out-of-range ids ignored),
    /// ascending. The multi-target form of [`ReachIndex::below_cone`];
    /// a word-parallel OR of descendant rows.
    pub fn below_many(&self, targets: &[usize]) -> Vec<usize> {
        let words = self.n.div_ceil(64);
        let mut acc = vec![0u64; words];
        for &t in targets {
            if t < self.n {
                self.desc.or_row_into(t, &mut acc);
            }
        }
        iter_word_bits(&acc).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // hierarchy orientation: leaves point at the root
        // 1 → 0, 2 → 0, 3 → 1, 3 → 2  (so 3 ≤ 1 ≤ 0 and 3 ≤ 2 ≤ 0)
        let mut g = DiGraph::new(4);
        g.add_edge(1, 0);
        g.add_edge(2, 0);
        g.add_edge(3, 1);
        g.add_edge(3, 2);
        g
    }

    #[test]
    fn leq_matches_reachability() {
        let g = diamond();
        let ix = ReachIndex::build(&g);
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    ix.leq(a, b),
                    a == b || g.has_path(a, b),
                    "leq({a},{b})"
                );
            }
        }
        // out-of-range is reflexive-only
        assert!(ix.leq(9, 9));
        assert!(!ix.leq(9, 0));
    }

    #[test]
    fn cones_are_sorted_and_reflexive() {
        let ix = ReachIndex::build(&diamond());
        assert_eq!(ix.below_cone(0).as_ref(), &[0, 1, 2, 3]);
        assert_eq!(ix.below_cone(1).as_ref(), &[1, 3]);
        assert_eq!(ix.above_cone(3).as_ref(), &[0, 1, 2, 3]);
        assert_eq!(ix.above_cone(0).as_ref(), &[0]);
    }

    #[test]
    fn cone_memoization_returns_shared_allocation() {
        let ix = ReachIndex::build(&diamond());
        let a = ix.below_cone(0);
        let b = ix.below_cone(0);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn below_many_unions_rows() {
        let ix = ReachIndex::build(&diamond());
        assert_eq!(ix.below_many(&[1, 2]), vec![1, 2, 3]);
        assert_eq!(ix.below_many(&[3]), vec![3]);
        assert_eq!(ix.below_many(&[]), Vec::<usize>::new());
        // out-of-range targets are ignored, matching below_many's old filter
        assert_eq!(ix.below_many(&[1, 42]), vec![1, 3]);
    }

    #[test]
    fn cyclic_graph_still_indexes() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        let ix = ReachIndex::build(&g);
        assert!(ix.leq(0, 1) && ix.leq(1, 0));
        assert!(ix.leq(0, 2) && !ix.leq(2, 0));
    }
}
