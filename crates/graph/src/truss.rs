//! Truss decomposition (Wang & Cheng, PVLDB 2012).
//!
//! The *support* of an edge is the number of triangles containing it. A
//! subgraph is a *p-truss* when every edge has support at least `p − 2`
//! inside the subgraph. The *truss number* of an edge is the largest `p`
//! such that the edge belongs to a p-truss. The Medical Support module uses
//! these quantities to find dense, well-connected explanation subgraphs
//! around the suggested drugs (Definition 5 and Algorithm 1 of the paper).

use std::collections::BTreeSet;

use crate::ungraph::{bit, bits_of, norm_edge, words_for};
use crate::UnGraph;

/// Result of a truss decomposition: the truss number of every edge.
///
/// Truss numbers sit in one slot per edge, in ascending edge order. The
/// decomposition keeps the upper half of the graph's adjacency rows (bit `v`
/// of row `u` set for each edge `(u, v)`, `u < v`), each word paired with
/// the number of edges in the words before it, so the slot of an edge is
/// its word's count plus the bits below it in that word.
/// [`TrussDecomposition::truss`] is therefore one load and a popcount, and
/// the storage is 16 bytes per row word plus 4 bytes per edge (about 3 KB
/// for the 86-drug formulary) rather than a per-pair table.
#[derive(Debug, Clone, Default)]
pub struct TrussDecomposition {
    /// Words per row: ⌈n/64⌉.
    words: usize,
    /// Row `u` is `cells[u * words..(u + 1) * words]`: each upper-half
    /// adjacency word with the number of edges before it.
    cells: Vec<(u64, usize)>,
    /// Truss number of each edge, in ascending edge order.
    truss: Vec<u32>,
    // Cached at construction: the truss-aware Steiner distance evaluates
    // `max_truss` once per edge relaxation.
    max_truss: usize,
}

impl TrussDecomposition {
    /// Slot of edge `{u, v}`; `None` if the edge is not present.
    #[inline]
    fn slot(&self, u: usize, v: usize) -> Option<usize> {
        let (a, b) = norm_edge(u, v);
        let (i, mask) = bit(b);
        if i >= self.words {
            return None; // `b` out of range, and `a < b` with it
        }
        let &(word, before) = self.cells.get(a * self.words + i)?;
        (word & mask != 0).then(|| before + (word & (mask - 1)).count_ones() as usize)
    }

    /// Truss number of edge `{u, v}`; `None` if the edge is not present.
    pub fn truss(&self, u: usize, v: usize) -> Option<usize> {
        let slot = self.slot(u, v)?;
        self.truss.get(slot).map(|&t| t as usize)
    }

    /// Largest truss number over all edges (2 for a triangle-free graph,
    /// 0 for an edgeless graph). O(1): computed once at decomposition time.
    pub fn max_truss(&self) -> usize {
        self.max_truss
    }

    /// Smallest truss number over all edges (0 for an edgeless graph).
    pub fn min_truss(&self) -> usize {
        self.truss.iter().min().map_or(0, |&t| t as usize)
    }

    /// Iterator over `((u, v), truss)` entries in ascending edge order.
    pub fn iter(&self) -> impl Iterator<Item = ((usize, usize), usize)> + '_ {
        self.cells
            .chunks_exact(self.words.max(1))
            .enumerate()
            .flat_map(|(u, row)| {
                row.iter()
                    .enumerate()
                    .flat_map(move |(i, &(word, _))| bits_of(word, i).map(move |v| (u, v)))
            })
            .zip(&self.truss)
            .map(|(edge, &t)| (edge, t as usize))
    }

    /// Number of edges covered by the decomposition.
    pub fn len(&self) -> usize {
        self.truss.len()
    }

    /// True when the decomposition covers no edges.
    pub fn is_empty(&self) -> bool {
        self.truss.is_empty()
    }
}

/// Computes the truss number of every edge by peeling: at level `k`
/// (starting from 2), repeatedly remove every edge whose support has fallen
/// to `k − 2` or less and record `k` as its truss number; removing an edge
/// lowers the support of the two other edges of each triangle it closed,
/// and an edge whose support drops to `k − 2` joins the level's worklist.
/// Truss numbers do not depend on the order edges are peeled in.
pub fn truss_decomposition(graph: &UnGraph) -> TrussDecomposition {
    let n = graph.node_count();
    let words = words_for(n);
    let edges = graph.edges();
    let mut cells = vec![(0u64, 0usize); n.saturating_mul(words)];
    for &(u, v) in &edges {
        let (i, mask) = bit(v);
        if let Some((word, _)) = cells.get_mut(u * words + i) {
            *word |= mask;
        }
    }
    let mut before = 0;
    for (word, count) in &mut cells {
        *count = before;
        before += word.count_ones() as usize;
    }
    let mut d = TrussDecomposition {
        words,
        cells,
        truss: vec![0; edges.len()],
        max_truss: 0,
    };
    // While an edge is still in `work` its slot holds its support there;
    // once peeled, its truss number.
    let edges = graph.edges();
    for &(u, v) in &edges {
        if let Some(slot) = d.slot(u, v).and_then(|s| d.truss.get_mut(s)) {
            *slot = graph.edge_support(u, v) as u32;
        }
    }
    let mut work = graph.clone();
    let mut worklist: Vec<(usize, usize)> = Vec::new();
    let mut remaining = edges.len();
    let mut k = 2u32;
    while remaining > 0 {
        worklist.extend(edges.iter().copied().filter(|&(u, v)| {
            work.has_edge(u, v)
                && d.slot(u, v)
                    .and_then(|s| d.truss.get(s))
                    .is_some_and(|&s| s + 2 <= k)
        }));
        while let Some((u, v)) = worklist.pop() {
            if !work.remove_edge(u, v) {
                continue;
            }
            remaining -= 1;
            if let Some(slot) = d.slot(u, v).and_then(|s| d.truss.get_mut(s)) {
                *slot = k;
            }
            // Removing (u, v) destroys one triangle per common neighbour.
            for w in work.common(u, v) {
                for (a, b) in [(u, w), (v, w)] {
                    if let Some(support) = d.slot(a, b).and_then(|s| d.truss.get_mut(s)) {
                        *support = support.saturating_sub(1);
                        if *support + 2 == k {
                            worklist.push(norm_edge(a, b));
                        }
                    }
                }
            }
        }
        k += 1;
    }
    d.max_truss = d.truss.iter().max().map_or(0, |&t| t as usize);
    d
}

/// Returns the subgraph formed by all edges whose truss number is at least
/// `p` (node indices are preserved).
pub fn p_truss_subgraph(graph: &UnGraph, decomposition: &TrussDecomposition, p: usize) -> UnGraph {
    let mut sub = UnGraph::new(graph.node_count());
    for ((u, v), t) in decomposition.iter() {
        if t >= p {
            let _ = sub.add_edge(u, v);
        }
    }
    sub
}

/// Repeatedly removes edges whose support inside `sub` has fallen below
/// `p - 2`, restoring the p-truss property after node/edge deletions
/// (line 13 of Algorithm 1). Nodes left isolated are dropped from `nodes`.
pub fn maintain_p_truss(sub: &mut UnGraph, nodes: &mut BTreeSet<usize>, p: usize) {
    peel_below(sub, p);
    nodes.retain(|&v| sub.degree(v) > 0);
}

/// The edge half of [`maintain_p_truss`]: removes, in rounds, every edge
/// whose support inside `sub` is below `p − 2`, until none is left. The
/// result is the largest p-truss inside `sub`, whatever the removal order.
pub(crate) fn peel_below(sub: &mut UnGraph, p: usize) {
    if p <= 2 {
        return; // every edge has support >= 0
    }
    let mut violating: Vec<(usize, usize)> = Vec::new();
    loop {
        for u in 0..sub.node_count() {
            violating.extend(
                sub.neighbors(u)
                    .filter(|&v| u < v && sub.edge_support(u, v) + 2 < p)
                    .map(|v| (u, v)),
            );
        }
        if violating.is_empty() {
            break;
        }
        for (u, v) in violating.drain(..) {
            sub.remove_edge(u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles sharing an edge plus a pendant vertex.
    fn diamond_with_tail() -> UnGraph {
        UnGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn truss_numbers_of_known_graph() {
        let g = diamond_with_tail();
        let d = truss_decomposition(&g);
        // Every triangle edge is in a 3-truss; the shared edge (1,2) has
        // support 2 but is still only a 3-truss because its triangles are
        // not mutually reinforcing after peeling. The pendant edge is a 2-truss.
        assert_eq!(d.truss(3, 4), Some(2));
        assert_eq!(d.truss(0, 1), Some(3));
        assert_eq!(d.truss(1, 2), Some(3));
        assert_eq!(d.max_truss(), 3);
        assert_eq!(d.min_truss(), 2);
        assert_eq!(d.len(), g.edge_count());
    }

    #[test]
    fn four_clique_is_a_four_truss() {
        let g = UnGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap();
        let d = truss_decomposition(&g);
        for (u, v) in g.edges() {
            assert_eq!(d.truss(u, v), Some(4), "edge ({u},{v})");
        }
    }

    #[test]
    fn triangle_free_graph_has_truss_two() {
        let g = UnGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let d = truss_decomposition(&g);
        assert_eq!(d.max_truss(), 2);
        assert_eq!(d.min_truss(), 2);
    }

    #[test]
    fn empty_graph_decomposition() {
        let g = UnGraph::new(3);
        let d = truss_decomposition(&g);
        assert!(d.is_empty());
        assert_eq!(d.max_truss(), 0);
    }

    #[test]
    fn p_truss_subgraph_keeps_only_dense_edges() {
        let g = diamond_with_tail();
        let d = truss_decomposition(&g);
        let sub = p_truss_subgraph(&g, &d, 3);
        assert!(!sub.has_edge(3, 4));
        assert!(sub.has_edge(0, 1));
        assert_eq!(sub.edge_count(), 5);
    }

    #[test]
    fn maintain_p_truss_removes_broken_edges_and_isolated_nodes() {
        let g = diamond_with_tail();
        let d = truss_decomposition(&g);
        let mut sub = p_truss_subgraph(&g, &d, 3);
        let mut nodes: BTreeSet<usize> = sub.non_isolated_nodes().into_iter().collect();
        // Remove node 0: edges (1,2),(1,3),(2,3) still form a triangle (3-truss).
        sub.detach_node(0);
        nodes.remove(&0);
        maintain_p_truss(&mut sub, &mut nodes, 3);
        assert_eq!(nodes, [1, 2, 3].into_iter().collect());
        assert_eq!(sub.edge_count(), 3);
        // Now remove node 3; remaining edge (1,2) has no triangle and must go.
        sub.detach_node(3);
        nodes.remove(&3);
        maintain_p_truss(&mut sub, &mut nodes, 3);
        assert!(nodes.is_empty());
        assert_eq!(sub.edge_count(), 0);
    }

    #[test]
    fn decomposition_is_invariant_to_edge_insertion_order() {
        let edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)];
        let mut reversed = edges;
        reversed.reverse();
        let a = truss_decomposition(&UnGraph::from_edges(5, &edges).unwrap());
        let b = truss_decomposition(&UnGraph::from_edges(5, &reversed).unwrap());
        for (u, v) in UnGraph::from_edges(5, &edges).unwrap().edges() {
            assert_eq!(a.truss(u, v), b.truss(u, v));
        }
    }
}
