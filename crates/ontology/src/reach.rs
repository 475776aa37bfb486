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
    /// Topological order of the graph, when it is a DAG (it always is for
    /// hierarchies; kept optional so the index stays total on any input).
    topo: Option<Vec<usize>>,
    below_memo: Vec<OnceLock<Arc<[u32]>>>,
    above_memo: Vec<OnceLock<Arc<[u32]>>>,
}

impl ReachIndex {
    /// Build the index from a graph snapshot. `O(V·E/64 + V²/64)`.
    pub(crate) fn build(graph: &DiGraph) -> Self {
        let t0 = Instant::now();
        let n = graph.len();
        let topo = graph.topological_order();
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
        let index = ReachIndex::new(n, desc, anc, topo);
        toss_obs::metrics::counter("toss.semantic.index_builds").inc();
        toss_obs::metrics::histogram("toss.semantic.index_build_ns")
            .observe_duration(t0.elapsed());
        index
    }

    /// Number of nodes covered by the index.
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// A topological order of the indexed graph, if it is a DAG.
    #[cfg(test)]
    fn topological_order(&self) -> Option<&[usize]> {
        self.topo.as_deref()
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

    /// An index over `n × n` closure matrices, its cones not yet memoized.
    fn new(n: usize, desc: BitMatrix, anc: BitMatrix, topo: Option<Vec<usize>>) -> Self {
        ReachIndex {
            n,
            desc,
            anc,
            topo,
            below_memo: (0..n).map(|_| OnceLock::new()).collect(),
            above_memo: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Serialize into a segment-section payload:
    ///
    /// ```text
    /// 0   8   n (u64 LE)
    /// 8   1   has_topo (0/1)
    /// 9   7   padding
    /// 16  4n  topo order as u32 LE (present iff has_topo), padded to 8
    /// ..      desc bitmap rows (toss_segment::BitRowsRef layout)
    /// ..      anc bitmap rows
    /// ```
    pub fn to_segment_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.n as u64).to_le_bytes());
        out.push(self.topo.is_some() as u8);
        out.extend_from_slice(&[0u8; 7]);
        if let Some(topo) = &self.topo {
            for &v in topo {
                out.extend_from_slice(&(v as u32).to_le_bytes());
            }
            while out.len() % 8 != 0 {
                out.push(0);
            }
        }
        for m in [&self.desc, &self.anc] {
            let wpr = m.words_per_row();
            let mut b = toss_segment::BitRowsBuilder::new(self.n, wpr);
            let words = m.words();
            for r in 0..self.n {
                b.push_row(&words[r * wpr..(r + 1) * wpr]);
            }
            b.finish(&mut out);
        }
        out
    }

    /// Rebuild an index from [`ReachIndex::to_segment_payload`] bytes.
    /// `None` on any structural mismatch (truncation, wrong matrix
    /// shape) — the caller falls back to building one through
    /// [`Hierarchy::reach_index`](crate::Hierarchy::reach_index).
    pub fn from_segment_payload(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 16 {
            return None;
        }
        let n = u64::from_le_bytes(bytes[0..8].try_into().ok()?);
        let n = usize::try_from(n).ok()?;
        let has_topo = match bytes[8] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let mut at = 16usize;
        let topo = if has_topo {
            let end = at.checked_add(n.checked_mul(4)?)?;
            if end > bytes.len() {
                return None;
            }
            let order: Vec<usize> = bytes[at..end]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()) as usize)
                .collect();
            if order.iter().any(|&v| v >= n) {
                return None;
            }
            at = end.div_ceil(8) * 8;
            Some(order)
        } else {
            None
        };
        let matrix = |at: &mut usize| -> Option<BitMatrix> {
            let rows = toss_segment::BitRowsRef::parse(bytes.get(*at..)?)?;
            if rows.rows() != n || rows.words_per_row() != n.div_ceil(64) {
                return None;
            }
            *at += 16 + rows.rows() * rows.words_per_row() * 8;
            BitMatrix::from_words(n, rows.to_words())
        };
        let desc = matrix(&mut at)?;
        let anc = matrix(&mut at)?;
        // `matrix` checked both are n × n, and `topo` holds n entries
        let loaded = ReachIndex::new(n, desc, anc, topo);
        toss_obs::metrics::counter("toss.semantic.index_loads").inc();
        Some(loaded)
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
    fn segment_payload_round_trips() {
        let g = diamond();
        let ix = ReachIndex::build(&g);
        let payload = ix.to_segment_payload();
        let back = ReachIndex::from_segment_payload(&payload).unwrap();
        assert_eq!(back.len(), ix.len());
        assert_eq!(back.topological_order(), ix.topological_order());
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(back.leq(a, b), ix.leq(a, b), "leq({a},{b})");
            }
            assert_eq!(back.below_cone(a), ix.below_cone(a));
            assert_eq!(back.above_cone(a), ix.above_cone(a));
        }
        assert_eq!(back.below_many(&[1, 2]), ix.below_many(&[1, 2]));
    }

    #[test]
    fn segment_payload_round_trips_without_topo() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        let ix = ReachIndex::build(&g);
        assert!(ix.topological_order().is_none());
        let back =
            ReachIndex::from_segment_payload(&ix.to_segment_payload()).unwrap();
        assert!(back.topological_order().is_none());
        assert!(back.leq(0, 1) && back.leq(1, 0) && !back.leq(2, 0));
    }

    #[test]
    fn truncated_or_garbled_payload_is_rejected() {
        let ix = ReachIndex::build(&diamond());
        let payload = ix.to_segment_payload();
        for cut in [0, 8, 15, payload.len() - 1] {
            assert!(
                ReachIndex::from_segment_payload(&payload[..cut]).is_none(),
                "cut at {cut} must be rejected"
            );
        }
        let mut bad = payload.clone();
        bad[8] = 7; // invalid has_topo flag
        assert!(ReachIndex::from_segment_payload(&bad).is_none());
        // a 65-node index exercises the multi-word row path
        let mut big = DiGraph::new(65);
        for u in 0..64 {
            big.add_edge(u, u + 1);
        }
        let bix = ReachIndex::build(&big);
        let bp = bix.to_segment_payload();
        let bback = ReachIndex::from_segment_payload(&bp).unwrap();
        assert!(bback.leq(0, 64));
        assert_eq!(bback.below_cone(64).len(), 65);
    }

    #[test]
    fn cyclic_graph_still_indexes() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        let ix = ReachIndex::build(&g);
        assert!(ix.topological_order().is_none());
        assert!(ix.leq(0, 1) && ix.leq(1, 0));
        assert!(ix.leq(0, 2) && !ix.leq(2, 0));
    }
}
