//! A small digraph toolkit: Tarjan SCC, reachability, transitive closure
//! and reduction, cycle detection, and Bron-Kerbosch maximal cliques (used
//! by the SEA algorithm on the ε-similarity graph).

use std::collections::HashSet;

/// A dense `n × n` bit matrix; row-major, 64 bits per word. The closure
/// and reachability computations use it instead of `Vec<Vec<bool>>` so a
/// 5000-node hierarchy costs ~3 MB instead of ~25 MB and row unions are
/// word-parallel.
#[derive(Debug, Clone)]
pub(crate) struct BitMatrix {
    words: usize,
    bits: Vec<u64>,
}

impl BitMatrix {
    /// An all-zero `n × n` matrix.
    pub(crate) fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        BitMatrix {
            words,
            bits: vec![0u64; words * n],
        }
    }

    /// The bit at `(row, col)`.
    pub(crate) fn get(&self, row: usize, col: usize) -> bool {
        self.bits[row * self.words + col / 64] & (1u64 << (col % 64)) != 0
    }

    /// Set the bit at `(row, col)`.
    pub(crate) fn set(&mut self, row: usize, col: usize) {
        self.bits[row * self.words + col / 64] |= 1u64 << (col % 64);
    }

    /// The words of `row`.
    pub(crate) fn row(&self, row: usize) -> &[u64] {
        &self.bits[row * self.words..(row + 1) * self.words]
    }

    /// OR `row` of this matrix into `acc` (which must have row width).
    pub(crate) fn or_row_into(&self, row: usize, acc: &mut [u64]) {
        for (a, w) in acc.iter_mut().zip(self.row(row)) {
            *a |= w;
        }
    }

    /// Column indices of the set bits in `row`, ascending.
    pub(crate) fn iter_row(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        iter_word_bits(self.row(row))
    }
}

/// Iterate the set-bit indices of a word slice, ascending.
pub(crate) fn iter_word_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        let mut rest = w;
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            Some(i * 64 + bit)
        })
    })
}

/// A directed graph over dense `usize` vertex ids.
#[derive(Debug, Clone, Default)]
pub struct DiGraph {
    /// Forward adjacency lists.
    succ: Vec<Vec<usize>>,
}

impl DiGraph {
    /// A graph with `n` vertices and no edges.
    pub(crate) fn new(n: usize) -> Self {
        DiGraph {
            succ: vec![Vec::new(); n],
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.succ.len()
    }

    /// Add a vertex; returns its id.
    pub(crate) fn add_vertex(&mut self) -> usize {
        self.succ.push(Vec::new());
        self.succ.len() - 1
    }

    /// Add a directed edge `u → v` (idempotent).
    pub(crate) fn add_edge(&mut self, u: usize, v: usize) {
        if !self.succ[u].contains(&v) {
            self.succ[u].push(v);
        }
    }

    /// Successors of `u`.
    pub(crate) fn successors(&self, u: usize) -> &[usize] {
        &self.succ[u]
    }

    /// All edges as `(u, v)` pairs.
    pub(crate) fn edges(&self) -> Vec<(usize, usize)> {
        self.succ
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
            .collect()
    }

    /// Number of edges.
    pub(crate) fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Vertices reachable from `start` (excluding `start` unless it lies
    /// on a cycle through itself).
    pub fn reachable_from(&self, start: usize) -> HashSet<usize> {
        let mut seen = HashSet::new();
        let mut stack = self.succ[start].clone();
        while let Some(v) = stack.pop() {
            if seen.insert(v) {
                stack.extend_from_slice(&self.succ[v]);
            }
        }
        seen
    }

    /// Whether there is a non-empty path `u →+ v`.
    pub(crate) fn has_path(&self, u: usize, v: usize) -> bool {
        self.reachable_from(u).contains(&v)
    }

    /// Whether the graph contains a directed cycle.
    pub fn has_cycle(&self) -> bool {
        // colors: 0 = white, 1 = gray, 2 = black; iterative DFS
        let n = self.len();
        let mut color = vec![0u8; n];
        for s in 0..n {
            if color[s] != 0 {
                continue;
            }
            // stack of (vertex, next-successor-index)
            let mut stack: Vec<(usize, usize)> = vec![(s, 0)];
            color[s] = 1;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < self.succ[u].len() {
                    let v = self.succ[u][*i];
                    *i += 1;
                    match color[v] {
                        0 => {
                            color[v] = 1;
                            stack.push((v, 0));
                        }
                        1 => return true,
                        _ => {}
                    }
                } else {
                    color[u] = 2;
                    stack.pop();
                }
            }
        }
        false
    }

    /// Strongly connected components (Tarjan, iterative). Returns a vector
    /// mapping each vertex to its component index; components are numbered
    /// in reverse topological order (a component's successors have smaller
    /// indices).
    pub(crate) fn tarjan_scc(&self) -> Vec<usize> {
        let n = self.len();
        let mut index = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut comp = vec![usize::MAX; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0usize;
        let mut next_comp = 0usize;

        for s in 0..n {
            if index[s] != usize::MAX {
                continue;
            }
            // iterative Tarjan: call stack of (vertex, successor cursor)
            let mut call: Vec<(usize, usize)> = vec![(s, 0)];
            index[s] = next_index;
            lowlink[s] = next_index;
            next_index += 1;
            stack.push(s);
            on_stack[s] = true;

            while let Some(&mut (u, ref mut cursor)) = call.last_mut() {
                if *cursor < self.succ[u].len() {
                    let v = self.succ[u][*cursor];
                    *cursor += 1;
                    if index[v] == usize::MAX {
                        index[v] = next_index;
                        lowlink[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        call.push((v, 0));
                    } else if on_stack[v] {
                        lowlink[u] = lowlink[u].min(index[v]);
                    }
                } else {
                    call.pop();
                    if let Some(&(parent, _)) = call.last() {
                        lowlink[parent] = lowlink[parent].min(lowlink[u]);
                    }
                    if lowlink[u] == index[u] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            comp[w] = next_comp;
                            if w == u {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                }
            }
        }
        comp
    }

    /// Transitive closure as a boolean reachability matrix: the simple
    /// shape the tests check [`DiGraph::transitive_closure_bits`] against.
    #[cfg(test)]
    fn transitive_closure(&self) -> Vec<Vec<bool>> {
        let n = self.len();
        let bits = self.transitive_closure_bits();
        (0..n)
            .map(|u| (0..n).map(|v| bits.get(u, v)).collect())
            .collect()
    }

    /// Transitive closure as a [`BitMatrix`]: bit `(u, v)` is set iff
    /// there is a non-empty path `u →+ v`. DAGs use a bitset dynamic
    /// program over the reverse topological order (`O(V·E/64)`); cyclic
    /// graphs fall back to per-vertex DFS.
    pub(crate) fn transitive_closure_bits(&self) -> BitMatrix {
        let n = self.len();
        let mut out = BitMatrix::new(n);
        match self.topological_order() {
            Some(order) => {
                // process sinks first so successors' rows are complete
                let words = out.words;
                for &u in order.iter().rev() {
                    // collect into a scratch row to appease the borrow
                    // checker without cloning per-successor
                    let mut scratch = vec![0u64; words];
                    for &v in &self.succ[u] {
                        scratch[v / 64] |= 1u64 << (v % 64);
                        out.or_row_into(v, &mut scratch);
                    }
                    out.bits[u * words..(u + 1) * words].copy_from_slice(&scratch);
                }
            }
            None => {
                for u in 0..n {
                    for v in self.reachable_from(u) {
                        out.set(u, v);
                    }
                }
            }
        }
        out
    }

    /// A topological order of the vertices (Kahn), or `None` if cyclic.
    pub(crate) fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.len();
        let mut indeg = vec![0usize; n];
        for vs in &self.succ {
            for &v in vs {
                indeg[v] += 1;
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &self.succ[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Transitive reduction of a DAG: the unique minimal edge set with the
    /// same reachability (the Hasse diagram when the DAG encodes ≤).
    ///
    /// Panics in debug builds if the graph has a cycle.
    pub(crate) fn transitive_reduction(&self) -> DiGraph {
        debug_assert!(!self.has_cycle(), "transitive reduction requires a DAG");
        let closure = self.transitive_closure_bits();
        let mut out = DiGraph::new(self.len());
        for (u, v) in self.edges() {
            // u→v is redundant iff some other successor w of u reaches v
            let redundant = self.succ[u]
                .iter()
                .any(|&w| w != v && closure.get(w, v));
            if !redundant {
                out.add_edge(u, v);
            }
        }
        out
    }
}

/// An undirected graph used for clique enumeration.
#[derive(Debug, Clone)]
pub(crate) struct UnGraph {
    adj: Vec<HashSet<usize>>,
}

impl UnGraph {
    /// A graph with `n` vertices and no edges.
    pub(crate) fn new(n: usize) -> Self {
        UnGraph {
            adj: vec![HashSet::new(); n],
        }
    }

    /// Number of vertices.
    pub(crate) fn len(&self) -> usize {
        self.adj.len()
    }

    /// Add an undirected edge (self-loops ignored).
    pub(crate) fn add_edge(&mut self, u: usize, v: usize) {
        if u != v {
            self.adj[u].insert(v);
            self.adj[v].insert(u);
        }
    }

    /// All maximal cliques (Bron-Kerbosch with pivoting). Every vertex
    /// appears in at least one clique (isolated vertices yield singleton
    /// cliques). Cliques are returned with sorted members, in
    /// lexicographic order of their member lists, so output is
    /// deterministic.
    pub(crate) fn maximal_cliques(&self) -> Vec<Vec<usize>> {
        let n = self.len();
        if n == 0 {
            return Vec::new(); // the empty set is not a clique here
        }
        let mut cliques = Vec::new();
        let mut r: Vec<usize> = Vec::new();
        let p: HashSet<usize> = (0..n).collect();
        let x: HashSet<usize> = HashSet::new();
        self.bron_kerbosch(&mut r, p, x, &mut cliques);
        for c in &mut cliques {
            c.sort_unstable();
        }
        cliques.sort();
        cliques
    }

    fn bron_kerbosch(
        &self,
        r: &mut Vec<usize>,
        p: HashSet<usize>,
        x: HashSet<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if p.is_empty() && x.is_empty() {
            out.push(r.clone());
            return;
        }
        // pivot: vertex of P ∪ X with most neighbors in P
        let pivot = p
            .iter()
            .chain(x.iter())
            .max_by_key(|&&u| self.adj[u].intersection(&p).count())
            .copied()
            .expect("p or x nonempty");
        let candidates: Vec<usize> = p
            .iter()
            .filter(|&&v| !self.adj[pivot].contains(&v))
            .copied()
            .collect();
        let mut p = p;
        let mut x = x;
        for v in candidates {
            r.push(v);
            let np: HashSet<usize> = p.intersection(&self.adj[v]).copied().collect();
            let nx: HashSet<usize> = x.intersection(&self.adj[v]).copied().collect();
            self.bron_kerbosch(r, np, nx, out);
            r.pop();
            p.remove(&v);
            x.insert(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 → 1 → 3, 0 → 2 → 3, plus redundant 0 → 3
        let mut g = DiGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(1, 3);
        g.add_edge(2, 3);
        g.add_edge(0, 3);
        g
    }

    #[test]
    fn reachability_and_paths() {
        let g = diamond();
        assert!(g.has_path(0, 3));
        assert!(g.has_path(1, 3));
        assert!(!g.has_path(3, 0));
        assert!(!g.has_path(1, 2));
        assert_eq!(g.reachable_from(0).len(), 3);
    }

    #[test]
    fn cycle_detection() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(!g.has_cycle());
        g.add_edge(2, 0);
        assert!(g.has_cycle());
        // self loop
        let mut s = DiGraph::new(1);
        s.add_edge(0, 0);
        assert!(s.has_cycle());
    }

    #[test]
    fn tarjan_finds_components() {
        // two 2-cycles and an isolated vertex
        let mut g = DiGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 3);
        g.add_edge(3, 2);
        g.add_edge(1, 2); // bridge between components
        let comp = g.tarjan_scc();
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
        // reverse topological numbering: successors get smaller indices
        assert!(comp[2] < comp[0]);
    }

    #[test]
    fn tarjan_on_dag_gives_singletons() {
        let g = diamond();
        let comp = g.tarjan_scc();
        let distinct: HashSet<usize> = comp.iter().copied().collect();
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn transitive_reduction_removes_shortcut() {
        let g = diamond();
        let r = g.transitive_reduction();
        assert_eq!(r.edge_count(), 4);
        assert!(!r.edges().contains(&(0, 3)));
        // reachability preserved
        assert!(r.has_path(0, 3));
    }

    #[test]
    fn transitive_reduction_of_chain_is_identity() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        let r = g.transitive_reduction();
        assert_eq!(r.edge_count(), 2);
    }

    #[test]
    fn closure_matrix() {
        let g = diamond();
        let c = g.transitive_closure();
        assert!(c[0][3] && c[0][1] && c[0][2]);
        assert!(!c[3][0]);
        assert!(!c[0][0]); // no self loop
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order().unwrap();
        let pos = |v: usize| order.iter().position(|&x| x == v).unwrap();
        for (u, v) in g.edges() {
            assert!(pos(u) < pos(v), "{u} must precede {v}");
        }
        let mut cyc = DiGraph::new(2);
        cyc.add_edge(0, 1);
        cyc.add_edge(1, 0);
        assert!(cyc.topological_order().is_none());
    }

    #[test]
    fn closure_on_cyclic_graph_falls_back() {
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 2);
        let c = g.transitive_closure();
        assert!(c[0][0] && c[0][1] && c[0][2]);
        assert!(c[1][0] && c[1][1]);
        assert!(!c[2][0]);
    }

    #[test]
    fn closure_matches_dfs_on_random_dag() {
        // a larger layered DAG: bitset DP must agree with per-vertex DFS
        let mut g = DiGraph::new(80);
        for u in 0..79 {
            g.add_edge(u, u + 1);
            if u % 3 == 0 && u + 5 < 80 {
                g.add_edge(u, u + 5);
            }
        }
        let c = g.transitive_closure();
        for (u, row) in c.iter().enumerate() {
            let r = g.reachable_from(u);
            for (v, &reachable) in row.iter().enumerate() {
                assert_eq!(reachable, r.contains(&v), "mismatch at {u},{v}");
            }
        }
    }

    #[test]
    fn bit_closure_matches_bool_closure() {
        let g = diamond();
        let bools = g.transitive_closure();
        let bits = g.transitive_closure_bits();
        for (u, brow) in bools.iter().enumerate() {
            for (v, &b) in brow.iter().enumerate() {
                assert_eq!(b, bits.get(u, v));
            }
            let row: Vec<usize> = bits.iter_row(u).collect();
            let expect: Vec<usize> = (0..g.len()).filter(|&v| brow[v]).collect();
            assert_eq!(row, expect, "iter_row is the ascending set-bit list");
        }
    }

    #[test]
    fn bitmatrix_or_row_into_unions() {
        let mut m = BitMatrix::new(70);
        m.set(0, 3);
        m.set(0, 69);
        m.set(1, 3);
        m.set(1, 64);
        let mut acc = vec![0u64; 2];
        m.or_row_into(0, &mut acc);
        m.or_row_into(1, &mut acc);
        let got: Vec<usize> = iter_word_bits(&acc).collect();
        assert_eq!(got, vec![3, 64, 69]);
    }

    #[test]
    fn cliques_of_triangle_plus_pendant() {
        // triangle 0-1-2, pendant 3-0, isolated 4
        let mut g = UnGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        let cliques = g.maximal_cliques();
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![0, 3], vec![4]]);
    }

    #[test]
    fn every_vertex_is_in_some_clique() {
        let mut g = UnGraph::new(6);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let cliques = g.maximal_cliques();
        let covered: HashSet<usize> = cliques.iter().flatten().copied().collect();
        assert_eq!(covered.len(), 6);
    }

    #[test]
    fn clique_of_complete_graph_is_single() {
        let mut g = UnGraph::new(4);
        for u in 0..4 {
            for v in u + 1..4 {
                g.add_edge(u, v);
            }
        }
        assert_eq!(g.maximal_cliques(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn overlapping_cliques_enumerated() {
        // the paper's A-B / A-C example: d(A,B)<=ε, d(A,C)<=ε, d(B,C)>ε
        let mut g = UnGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        assert_eq!(g.maximal_cliques(), vec![vec![0, 1], vec![0, 2]]);
    }

    #[test]
    fn empty_graph_has_no_cliques() {
        let g = UnGraph::new(0);
        assert!(g.maximal_cliques().is_empty());
    }
}
