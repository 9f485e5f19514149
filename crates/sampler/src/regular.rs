//! Random regular graphs for the AEBA gossip layer.
//!
//! Theorem 5 runs Algorithm 5 on "a random k·log n regular graph". Its
//! proof explicitly compares the regular graph to the out-degree model
//! where each vertex draws `k·log n` endpoints uniformly at random ("Y is
//! the number of edges if G were generated by having k log n edges from
//! each vertex with endpoint selected uniformly at random") — so this
//! module offers both constructions.

use rand::Rng;

/// An undirected multigraph in which every vertex has (at least) the
/// requested degree, stored as one flat adjacency array: vertex `v`'s
/// neighbours are `adj[offsets[v]..offsets[v + 1]]`, in the order its
/// edges were drawn.
///
/// Adjacency is symmetric with multiplicity: `u` appears in `N(v)`
/// exactly as often as `v` appears in `N(u)`, because every drawn edge
/// is listed once on each side. Consumers rely on it: the committee
/// kernel (`ba_core::aeba`) computes every neighbour sum by scattering
/// from senders instead of gathering at receivers.
#[derive(Clone, Debug)]
pub struct RegularGraph {
    n: usize,
    offsets: Vec<usize>,
    adj: Vec<u32>,
}

impl RegularGraph {
    /// The out-degree model of Theorem 5's proof: each vertex draws
    /// `degree` endpoints uniformly at random; edges are used in both
    /// directions (so realized degrees are `degree` plus a Binomial
    /// in-degree, concentrated around `2·degree`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `degree == 0`.
    pub fn random_out_degree<R: Rng + ?Sized>(n: usize, degree: usize, rng: &mut R) -> Self {
        assert!(n >= 2, "graph needs at least two vertices");
        assert!(degree > 0, "degree must be positive");
        // Vertex v's draws are ends[v·degree..(v+1)·degree].
        let ends: Vec<u32> = (0..n)
            .flat_map(|v| (0..degree).map(move |_| v))
            .map(|v| {
                // Uniform endpoint, excluding self-loops.
                let mut u = rng.gen_range(0..n - 1);
                if u >= v {
                    u += 1;
                }
                u as u32
            })
            .collect();
        Self::from_edges(
            n,
            ends.chunks_exact(degree)
                .enumerate()
                .flat_map(|(v, us)| us.iter().map(move |&u| (v as u32, u))),
        )
    }

    /// Union of `degree` uniformly random permutation digraphs,
    /// symmetrized: a standard construction whose degree distribution is
    /// tightly concentrated at `2·degree` and which is an expander w.h.p.
    /// — the "random k log n regular graph" of Theorem 5 up to constant
    /// factors.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `degree == 0`.
    pub fn random_permutation_union<R: Rng + ?Sized>(n: usize, degree: usize, rng: &mut R) -> Self {
        assert!(n >= 2, "graph needs at least two vertices");
        assert!(degree > 0, "degree must be positive");
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * degree);
        let mut perm: Vec<usize> = (0..n).collect();
        for _ in 0..degree {
            // Fisher–Yates.
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            // Drop rare fixed points; degree loss is negligible.
            edges.extend(
                (0..n)
                    .filter(|&v| perm[v] != v)
                    .map(|v| (v as u32, perm[v] as u32)),
            );
        }
        Self::from_edges(n, edges.into_iter())
    }

    /// Lays out the undirected edge sequence `(v, u)`: each edge appends
    /// `u` to `v`'s list and then `v` to `u`'s, in sequence order. Two
    /// passes (count, then fill), so every list lands at its exact size.
    fn from_edges(n: usize, edges: impl Iterator<Item = (u32, u32)> + Clone) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for (v, u) in edges.clone() {
            offsets[v as usize + 1] += 1;
            offsets[u as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor = offsets[..n].to_vec();
        let mut adj = vec![0u32; offsets[n]];
        for (v, u) in edges {
            adj[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
            adj[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
        }
        RegularGraph { n, offsets, adj }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices (never true for constructed
    /// graphs; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Neighbor list of `v` (with multiplicity).
    ///
    /// # Panics
    ///
    /// Panics if `v ≥ n`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Realized degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Minimum realized degree over all vertices.
    pub fn min_degree(&self) -> usize {
        (0..self.n).map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// Whether the graph is connected (BFS).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut queue = std::collections::VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = queue.pop_front() {
            for &u in self.neighbors(v) {
                let u = u as usize;
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    queue.push_back(u);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    /// The per-vertex `Vec` push construction the flat layout replaced,
    /// kept as the oracle: `(out-degree model, permutation union)` lists.
    fn pushed_lists(n: usize, degree: usize, seed: u64, perm_union: bool) -> Vec<Vec<u32>> {
        let mut rng = rng(seed);
        let mut neighbors: Vec<Vec<u32>> = vec![Vec::new(); n];
        if !perm_union {
            for v in 0..n {
                for _ in 0..degree {
                    let mut u = rng.gen_range(0..n - 1);
                    if u >= v {
                        u += 1;
                    }
                    neighbors[v].push(u as u32);
                    neighbors[u].push(v as u32);
                }
            }
            return neighbors;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        for _ in 0..degree {
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                perm.swap(i, j);
            }
            for v in 0..n {
                let u = perm[v];
                if u == v {
                    continue;
                }
                neighbors[v].push(u as u32);
                neighbors[u].push(v as u32);
            }
        }
        neighbors
    }

    #[test]
    fn flat_layout_equals_pushed_lists() {
        for (n, degree, seed) in [
            (2usize, 5usize, 11u64),
            (7, 1, 12),
            (64, 6, 13),
            (300, 23, 14),
        ] {
            let g = RegularGraph::random_out_degree(n, degree, &mut rng(seed));
            let h = RegularGraph::random_permutation_union(n, degree, &mut rng(seed));
            for (graph, perm_union) in [(&g, false), (&h, true)] {
                let want = pushed_lists(n, degree, seed, perm_union);
                for (v, list) in want.iter().enumerate() {
                    assert_eq!(graph.neighbors(v), &list[..], "n{n} d{degree} v{v}");
                    assert_eq!(graph.degree(v), list.len());
                }
            }
        }
    }

    #[test]
    fn out_degree_model_basic() {
        let g = RegularGraph::random_out_degree(50, 6, &mut rng(1));
        assert_eq!(g.len(), 50);
        assert!(!g.is_empty());
        // Every vertex initiated 6 edges, so degree ≥ 6.
        assert!(g.min_degree() >= 6);
        // Total degree = 2 × edges = 2 × 50 × 6.
        let total: usize = (0..50).map(|v| g.degree(v)).sum();
        assert_eq!(total, 2 * 50 * 6);
    }

    #[test]
    fn no_self_loops() {
        let g = RegularGraph::random_out_degree(20, 8, &mut rng(2));
        for v in 0..20 {
            assert!(g.neighbors(v).iter().all(|&u| u as usize != v));
        }
        let g = RegularGraph::random_permutation_union(20, 8, &mut rng(3));
        for v in 0..20 {
            assert!(g.neighbors(v).iter().all(|&u| u as usize != v));
        }
    }

    #[test]
    fn permutation_union_degree_concentrated() {
        let g = RegularGraph::random_permutation_union(100, 5, &mut rng(4));
        // Each of 5 permutations contributes ≤ 2 to each vertex (one out,
        // one in), minus dropped fixed points.
        for v in 0..100 {
            assert!(g.degree(v) <= 10);
            assert!(g.degree(v) >= 5, "degree {} at {v}", g.degree(v));
        }
    }

    #[test]
    fn adequate_degree_gives_connectivity() {
        // log2(200) ≈ 7.6; degree 8 random graphs are connected w.h.p.
        let g = RegularGraph::random_out_degree(200, 8, &mut rng(5));
        assert!(g.is_connected());
        let g = RegularGraph::random_permutation_union(200, 8, &mut rng(6));
        assert!(g.is_connected());
    }

    /// The invariant the committee kernel's scatter rests on: `u` is
    /// listed in `N(v)` exactly as often as `v` in `N(u)`. Small `n`
    /// against large degree makes neighbours repeat, so multiplicities
    /// above one are exercised, not only presence.
    #[test]
    fn symmetry_of_edge_lists() {
        let mut repeated = 0;
        for (n, degree, seed) in [(2usize, 3usize, 7u64), (5, 4, 8), (9, 6, 9), (30, 4, 10)] {
            let g = RegularGraph::random_out_degree(n, degree, &mut rng(seed));
            let h = RegularGraph::random_permutation_union(n, degree, &mut rng(seed));
            for graph in [&g, &h] {
                let mut count = vec![vec![0usize; n]; n];
                for (v, row) in count.iter_mut().enumerate() {
                    for &u in graph.neighbors(v) {
                        row[u as usize] += 1;
                    }
                }
                for (v, row) in count.iter().enumerate() {
                    for (u, &c) in row.iter().enumerate() {
                        assert_eq!(c, count[u][v], "n{n} d{degree} ({v}, {u})");
                        repeated += usize::from(c > 1);
                    }
                }
            }
        }
        assert!(repeated > 0, "no repeated neighbour: multiplicity untested");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_graph_rejected() {
        let _ = RegularGraph::random_out_degree(1, 3, &mut rng(0));
    }

    #[test]
    #[should_panic(expected = "degree must be positive")]
    fn zero_degree_rejected() {
        let _ = RegularGraph::random_permutation_union(5, 0, &mut rng(0));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = RegularGraph::random_out_degree(40, 5, &mut rng(9));
        let b = RegularGraph::random_out_degree(40, 5, &mut rng(9));
        for v in 0..40 {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
    }
}
