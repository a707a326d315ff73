//! Simple undirected graphs stored as dense adjacency bitsets.
//!
//! [`UnGraph`] is the structural backbone used by the Medical Support
//! module: truss decomposition, Steiner tree computation and the closest
//! truss community search all operate on it. Node identifiers are dense
//! `usize` indices (drug IDs in the DDI graph).
//!
//! Each node's neighbourhood is one row of ⌈n/64⌉ `u64` words, bit `v` set
//! when the edge to `v` exists. Neighbours therefore iterate in ascending
//! order, an edge's support is the popcount of two ANDed rows, and a search
//! restricted to a node set masks whole words at a time. The cost is
//! n·⌈n/64⌉·8 bytes — about 1.4 KB for the paper's 86-drug formulary — so
//! the type suits the small, dense interaction graphs it is built for, not
//! graphs with millions of nodes.

use std::collections::BTreeSet;

use crate::GraphError;

/// Number of `u64` words in a bitset over `n` nodes.
#[inline]
pub(crate) fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Word index and bit mask of node `v`.
#[inline]
pub(crate) fn bit(v: usize) -> (usize, u64) {
    (v / 64, 1u64 << (v % 64))
}

/// Set bits of one word, offset by `base`, in ascending order.
struct Ones {
    word: u64,
    base: usize,
}

impl Iterator for Ones {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let v = self.base + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(v)
    }
}

/// Nodes whose bits are set in `word`, the `index`-th word of a bitset, in
/// ascending order.
#[inline]
pub(crate) fn bits_of(word: u64, index: usize) -> impl Iterator<Item = usize> {
    Ones {
        word,
        base: index * 64,
    }
}

/// Nodes whose bits are set in a sequence of bitset words, in ascending
/// order.
pub(crate) fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words
        .into_iter()
        .enumerate()
        .flat_map(|(i, word)| bits_of(word, i))
}

/// A set of node indices below a fixed bound, one bit per node.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct NodeSet {
    words: Vec<u64>,
}

impl Clone for NodeSet {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
    }
}

impl NodeSet {
    /// The empty set over nodes `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            words: vec![0; words_for(n)],
        }
    }

    /// Every node of `0..n`.
    pub(crate) fn full(n: usize) -> Self {
        let mut set = Self::new(n);
        set.extend(0..n);
        set
    }

    /// The nodes of `nodes` below `n` (larger indices are dropped).
    pub(crate) fn from_nodes(n: usize, nodes: impl IntoIterator<Item = usize>) -> Self {
        let mut set = Self::new(n);
        set.extend(nodes);
        set
    }

    /// The backing words.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// The backing words, for word-at-a-time updates.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// True when `v` is in the set.
    pub(crate) fn contains(&self, v: usize) -> bool {
        let (i, mask) = bit(v);
        self.words.get(i).is_some_and(|w| w & mask != 0)
    }

    /// Adds `v`; returns whether it was newly added (false when present or
    /// out of range).
    pub(crate) fn insert(&mut self, v: usize) -> bool {
        let (i, mask) = bit(v);
        match self.words.get_mut(i) {
            Some(w) if *w & mask == 0 => {
                *w |= mask;
                true
            }
            _ => false,
        }
    }

    /// Adds every node of `nodes`.
    pub(crate) fn extend(&mut self, nodes: impl IntoIterator<Item = usize>) {
        for v in nodes {
            self.insert(v);
        }
    }

    /// Removes `v`; returns whether it was present.
    pub(crate) fn remove(&mut self, v: usize) -> bool {
        let (i, mask) = bit(v);
        match self.words.get_mut(i) {
            Some(w) if *w & mask != 0 => {
                *w &= !mask;
                true
            }
            _ => false,
        }
    }

    /// Keeps only the nodes for which `keep` holds.
    pub(crate) fn retain(&mut self, keep: impl Fn(usize) -> bool) {
        for (i, word) in self.words.iter_mut().enumerate() {
            for v in bits_of(*word, i) {
                if !keep(v) {
                    *word &= !bit(v).1;
                }
            }
        }
    }

    /// Number of nodes in the set.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set has no nodes.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The nodes in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        ones(self.words.iter().copied())
    }
}

/// An undirected simple graph over nodes `0..n`, stored as one adjacency
/// bitset row per node (see the module docs for the memory cost).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct UnGraph {
    n: usize,
    /// Words per row: ⌈n/64⌉.
    words: usize,
    /// Row `v` is `rows[v * words..(v + 1) * words]`.
    rows: Vec<u64>,
}

impl Clone for UnGraph {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            words: self.words,
            rows: self.rows.clone(),
        }
    }

    /// Reuses `self`'s row allocation, so copying a candidate community
    /// inside the search loop does not allocate.
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words = source.words;
        self.rows.clone_from(&source.rows);
    }
}

/// Normalises an edge so the smaller endpoint comes first.
#[inline]
pub fn norm_edge(u: usize, v: usize) -> (usize, usize) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl UnGraph {
    /// Creates a graph with `n` isolated nodes.
    ///
    /// The rows take n·⌈n/64⌉ words; a size that overflows `usize`
    /// saturates, so the allocation fails instead of wrapping to a short
    /// row table.
    pub fn new(n: usize) -> Self {
        let words = words_for(n);
        Self {
            n,
            words,
            rows: vec![0; n.saturating_mul(words)],
        }
    }

    /// Builds a graph from an edge list.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let mut g = Self::new(n);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes (including isolated ones).
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.rows
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum::<usize>()
            / 2
    }

    /// The adjacency row of `v` (empty when `v` is out of range).
    #[inline]
    pub(crate) fn row(&self, v: usize) -> &[u64] {
        let start = v.saturating_mul(self.words);
        self.rows
            .get(start..start.saturating_add(self.words))
            .unwrap_or(&[])
    }

    /// Sets or clears the bit of `v` in row `u`; both must be in range.
    #[inline]
    fn put(&mut self, u: usize, v: usize, on: bool) {
        let (i, mask) = bit(v);
        if let Some(w) = self.rows.get_mut(u * self.words + i) {
            if on {
                *w |= mask;
            } else {
                *w &= !mask;
            }
        }
    }

    /// Adds an undirected edge. Self-loops are rejected; duplicate edges are
    /// ignored (simple graph).
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), GraphError> {
        let n = self.node_count();
        if u >= n || v >= n {
            return Err(GraphError::NodeOutOfRange {
                node: u.max(v),
                nodes: n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        self.put(u, v, true);
        self.put(v, u, true);
        Ok(())
    }

    /// Removes an edge if present; returns whether it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        self.put(u, v, false);
        self.put(v, u, false);
        true
    }

    /// Removes a node by detaching all its incident edges (the node index
    /// remains valid but isolated).
    pub fn detach_node(&mut self, v: usize) {
        if v >= self.n {
            return;
        }
        for i in 0..self.words {
            let word = self.row(v).get(i).copied().unwrap_or(0);
            for u in bits_of(word, i) {
                self.put(u, v, false);
            }
        }
        let start = v * self.words;
        if let Some(row) = self.rows.get_mut(start..start + self.words) {
            row.fill(0);
        }
    }

    /// Keeps only the edges with both endpoints in `nodes`.
    pub(crate) fn retain_within(&mut self, nodes: &NodeSet) {
        let words = self.words.max(1);
        for (v, row) in self.rows.chunks_exact_mut(words).enumerate() {
            if nodes.contains(v) {
                for (w, &keep) in row.iter_mut().zip(nodes.words()) {
                    *w &= keep;
                }
            } else {
                row.fill(0);
            }
        }
    }

    /// True when the edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (i, mask) = bit(v);
        v < self.n && self.row(u).get(i).is_some_and(|w| w & mask != 0)
    }

    /// Neighbours of `v` in ascending order.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        ones(self.row(v).iter().copied())
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// All edges as normalised `(min, max)` pairs in ascending order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in 0..self.node_count() {
            out.extend(self.neighbors(u).filter(|&v| u < v).map(|v| (u, v)));
        }
        out
    }

    /// Nodes that have at least one incident edge.
    pub fn non_isolated_nodes(&self) -> Vec<usize> {
        (0..self.node_count())
            .filter(|&v| self.degree(v) > 0)
            .collect()
    }

    /// Number of triangles containing the edge `{u, v}` (its *support*).
    pub fn edge_support(&self, u: usize, v: usize) -> usize {
        if !self.has_edge(u, v) {
            return 0;
        }
        self.row(u)
            .iter()
            .zip(self.row(v))
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Common neighbours of `u` and `v` in ascending order.
    pub(crate) fn common(&self, u: usize, v: usize) -> impl Iterator<Item = usize> + '_ {
        ones(self.row(u).iter().zip(self.row(v)).map(|(a, b)| a & b))
    }

    /// Common neighbours of `u` and `v`.
    pub fn common_neighbors(&self, u: usize, v: usize) -> Vec<usize> {
        self.common(u, v).collect()
    }

    /// Induced subgraph on `nodes` (other nodes become isolated; indices are
    /// preserved so drug IDs stay meaningful).
    pub fn induced_subgraph(&self, nodes: &BTreeSet<usize>) -> UnGraph {
        let mut g = self.clone();
        g.retain_within(&NodeSet::from_nodes(self.n, nodes.iter().copied()));
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> UnGraph {
        // 0-1, 1-2, 0-2 triangle; 2-3 tail.
        UnGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]).unwrap()
    }

    #[test]
    fn edge_addition_and_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.degree(2), 3);
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut g = UnGraph::new(2);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 0).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_and_out_of_range_are_rejected() {
        let mut g = UnGraph::new(2);
        assert!(matches!(g.add_edge(0, 0), Err(GraphError::SelfLoop { .. })));
        assert!(matches!(
            g.add_edge(0, 5),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn remove_and_detach() {
        let mut g = triangle_plus_tail();
        assert!(g.remove_edge(2, 3));
        assert!(!g.remove_edge(2, 3));
        assert_eq!(g.edge_count(), 3);
        g.detach_node(2);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn support_counts_triangles() {
        let g = triangle_plus_tail();
        assert_eq!(g.edge_support(0, 1), 1); // triangle 0-1-2
        assert_eq!(g.edge_support(2, 3), 0);
        assert_eq!(g.common_neighbors(0, 1), vec![2]);
    }

    #[test]
    fn induced_subgraph_preserves_indices() {
        let g = triangle_plus_tail();
        let nodes: BTreeSet<usize> = [0, 1, 2].into_iter().collect();
        let sub = g.induced_subgraph(&nodes);
        assert_eq!(sub.edge_count(), 3);
        assert!(!sub.has_edge(2, 3));
        assert_eq!(sub.node_count(), 4);
    }

    #[test]
    fn edges_are_normalised_and_sorted() {
        let g = triangle_plus_tail();
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
        assert_eq!(norm_edge(5, 2), (2, 5));
    }

    #[test]
    fn rows_cross_word_boundaries() {
        // Nodes on both sides of the 64- and 128-bit word edges.
        let mut g = UnGraph::new(130);
        for (u, v) in [
            (0, 63),
            (63, 64),
            (64, 127),
            (127, 128),
            (128, 129),
            (0, 129),
        ] {
            g.add_edge(u, v).unwrap();
        }
        g.add_edge(0, 64).unwrap();
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![63, 64, 129]);
        assert_eq!(g.degree(64), 3);
        assert_eq!(g.edge_support(0, 63), 1); // triangle 0-63-64
        assert_eq!(g.common_neighbors(63, 64), vec![0]);
        assert!(!g.has_edge(129, 130));
        g.detach_node(64);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.edges().last(), Some(&(128, 129)));
    }

    #[test]
    fn node_set_basics() {
        let mut set = NodeSet::from_nodes(70, [69, 3, 64, 200]);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 64, 69]);
        assert!(set.insert(0));
        assert!(!set.insert(0));
        assert!(set.remove(64));
        assert!(!set.contains(64));
        set.retain(|v| v != 3);
        assert_eq!(set.len(), 2);
        assert_eq!(NodeSet::full(65).len(), 65);
        assert!(NodeSet::new(65).is_empty());
    }
}
