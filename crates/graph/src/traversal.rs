//! Graph traversal utilities: BFS distances, weighted shortest paths,
//! connectivity and diameters.
//!
//! These routines back the Steiner-tree computation and the "smallest
//! diameter / delete the furthest nodes" steps of the closest truss
//! community search (Algorithm 1 of the paper). Every breadth-first search
//! runs through `Bfs`, which works on whole adjacency words: each
//! dequeued node's row is masked with the not-yet-seen part of the allowed
//! node set, so one AND per 64 nodes replaces a set lookup per neighbour.

use std::collections::{BTreeSet, BinaryHeap};

use crate::ungraph::{bits_of, NodeSet};
use crate::UnGraph;

/// Unweighted single-source shortest-path distances (`usize::MAX` marks
/// unreachable nodes) together with BFS parents for path reconstruction.
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// Hop distance from the source to every node.
    pub dist: Vec<usize>,
    /// BFS parent of every node (`usize::MAX` for the source and unreachable nodes).
    pub parent: Vec<usize>,
}

/// Reusable buffers for breadth-first searches over graphs with a fixed
/// node count. The caller owns the distance buffer and reads it after each
/// [`Bfs::run`]; nothing is allocated per search.
#[derive(Debug)]
pub(crate) struct Bfs {
    /// Hop distance from the last source (`usize::MAX` = unreachable).
    pub(crate) dist: Vec<usize>,
    /// Allowed nodes not reached yet.
    unseen: NodeSet,
    /// Visit order; the queue is `queue[head..]`.
    queue: Vec<usize>,
}

impl Bfs {
    /// Buffers for graphs over `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            dist: vec![usize::MAX; n],
            unseen: NodeSet::new(n),
            queue: Vec::with_capacity(n),
        }
    }

    /// Breadth-first search from `source` over the nodes in `within`,
    /// writing hop distances into [`Bfs::dist`] and, when given, BFS parents
    /// into `parent`. Nodes are dequeued in discovery order and each one's
    /// neighbours are discovered in ascending order, so distances and
    /// parents are those of a plain queue-based BFS. Returns the source's
    /// eccentricity inside `within` (the distance of the last node reached).
    pub(crate) fn run(
        &mut self,
        graph: &UnGraph,
        source: usize,
        within: &NodeSet,
        mut parent: Option<&mut [usize]>,
    ) -> usize {
        let Bfs {
            dist,
            unseen,
            queue,
        } = self;
        dist.fill(usize::MAX);
        queue.clear();
        unseen.clone_from(within);
        match dist.get_mut(source) {
            Some(d) if unseen.remove(source) => *d = 0,
            _ => return 0,
        }
        queue.push(source);
        let mut head = 0;
        let mut eccentricity = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            eccentricity = dist.get(u).copied().unwrap_or(0);
            let next = eccentricity + 1;
            for (i, (free, &row)) in unseen.words_mut().iter_mut().zip(graph.row(u)).enumerate() {
                let found = row & *free;
                if found == 0 {
                    continue;
                }
                *free &= !found;
                for v in bits_of(found, i) {
                    if let Some(d) = dist.get_mut(v) {
                        *d = next;
                    }
                    if let Some(p) = parent.as_deref_mut().and_then(|p| p.get_mut(v)) {
                        *p = u;
                    }
                    queue.push(v);
                }
            }
        }
        eccentricity
    }

    /// True when the last [`Bfs::run`] reached every node of its `within`
    /// set (false when its source was not in the set).
    pub(crate) fn reached_all(&self) -> bool {
        self.unseen.is_empty()
    }
}

/// Breadth-first search from `source`, optionally restricted to a node set.
pub fn bfs(graph: &UnGraph, source: usize, within: Option<&BTreeSet<usize>>) -> BfsResult {
    let n = graph.node_count();
    let within = match within {
        Some(nodes) => NodeSet::from_nodes(n, nodes.iter().copied()),
        None => NodeSet::full(n),
    };
    let mut search = Bfs::new(n);
    let mut parent = vec![usize::MAX; n];
    search.run(graph, source, &within, Some(&mut parent));
    BfsResult {
        dist: search.dist,
        parent,
    }
}

/// Reconstructs the path from the BFS/Dijkstra source to `target` using the
/// parent array; returns `None` when `target` is unreachable.
pub fn reconstruct_path(parent: &[usize], source: usize, target: usize) -> Option<Vec<usize>> {
    if source == target {
        return Some(vec![source]);
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = parent.get(cur).copied().filter(|&p| p != usize::MAX)?;
        path.push(cur);
        if path.len() > parent.len() {
            return None; // defensive: malformed parent array
        }
    }
    path.reverse();
    Some(path)
}

/// Weighted single-source shortest paths (Dijkstra). `weight(u, v)` must be
/// non-negative; distances are `f64::INFINITY` for unreachable nodes.
pub fn dijkstra(
    graph: &UnGraph,
    source: usize,
    weight: impl Fn(usize, usize) -> f64,
) -> (Vec<f64>, Vec<usize>) {
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    if source >= n {
        return (dist, parent);
    }
    // Max-heap on reversed ordering of (dist, node).
    #[derive(PartialEq)]
    struct Entry(f64, usize);
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .partial_cmp(&self.0)
                .unwrap_or(std::cmp::Ordering::Equal)
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut heap = BinaryHeap::new();
    if let Some(d) = dist.get_mut(source) {
        *d = 0.0;
    }
    heap.push(Entry(0.0, source));
    while let Some(Entry(d, u)) = heap.pop() {
        if dist.get(u).is_some_and(|&best| d > best) {
            continue;
        }
        for v in graph.neighbors(u) {
            let w = weight(u, v);
            let nd = d + w.max(0.0);
            if let (Some(dv), Some(pv)) = (dist.get_mut(v), parent.get_mut(v)) {
                if nd < *dv {
                    *dv = nd;
                    *pv = u;
                    heap.push(Entry(nd, v));
                }
            }
        }
    }
    (dist, parent)
}

/// Connected component containing `source`, restricted to `within` when given.
pub fn component_of(
    graph: &UnGraph,
    source: usize,
    within: Option<&BTreeSet<usize>>,
) -> BTreeSet<usize> {
    let res = bfs(graph, source, within);
    res.dist
        .iter()
        .enumerate()
        .filter(|(_, &d)| d != usize::MAX)
        .map(|(v, _)| v)
        .collect()
}

/// All connected components over the non-isolated nodes of the graph.
pub fn connected_components(graph: &UnGraph) -> Vec<BTreeSet<usize>> {
    let mut seen = NodeSet::new(graph.node_count());
    let mut components = Vec::new();
    for v in graph.non_isolated_nodes() {
        if seen.contains(v) {
            continue;
        }
        let comp = component_of(graph, v, None);
        seen.extend(comp.iter().copied());
        components.push(comp);
    }
    components
}

/// True when every node of `targets` is reachable from the first target
/// inside the node set `within`.
pub fn all_connected(graph: &UnGraph, targets: &[usize], within: &BTreeSet<usize>) -> bool {
    match targets.first() {
        None => true,
        Some(&first) => {
            if targets.iter().any(|t| !within.contains(t)) {
                return false;
            }
            let comp = component_of(graph, first, Some(within));
            targets.iter().all(|t| comp.contains(t))
        }
    }
}

/// Hop diameter of the subgraph induced on `nodes` (0 for empty or singleton
/// sets, `usize::MAX` if the induced subgraph is disconnected).
pub fn diameter(graph: &UnGraph, nodes: &BTreeSet<usize>) -> usize {
    let set = NodeSet::from_nodes(graph.node_count(), nodes.iter().copied());
    diameter_within(graph, &set, &mut Bfs::new(graph.node_count()))
}

/// [`diameter`] over a node bitset, with caller-owned BFS buffers.
pub(crate) fn diameter_within(graph: &UnGraph, nodes: &NodeSet, search: &mut Bfs) -> usize {
    let mut best = 0usize;
    for v in nodes.iter() {
        let eccentricity = search.run(graph, v, nodes, None);
        if !search.reached_all() {
            return usize::MAX;
        }
        best = best.max(eccentricity);
    }
    best
}

/// Maximum hop distance from node `v` to any of the query nodes inside the
/// node set `within` (the *query distance* used to shrink the CTC).
pub fn query_distance(
    graph: &UnGraph,
    v: usize,
    query: &[usize],
    within: &BTreeSet<usize>,
) -> usize {
    let res = bfs(graph, v, Some(within));
    query
        .iter()
        .map(|&q| res.dist.get(q).copied().unwrap_or(usize::MAX))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> UnGraph {
        let edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        UnGraph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let res = bfs(&g, 0, None);
        assert_eq!(res.dist, vec![0, 1, 2, 3, 4]);
        let path = reconstruct_path(&res.parent, 0, 4).unwrap();
        assert_eq!(path, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bfs_respects_restriction() {
        let g = path_graph(5);
        let within: BTreeSet<usize> = [0, 1, 3, 4].into_iter().collect();
        let res = bfs(&g, 0, Some(&within));
        assert_eq!(res.dist[1], 1);
        assert_eq!(res.dist[3], usize::MAX); // 2 is excluded, so 3 unreachable
    }

    #[test]
    fn reconstruct_path_unreachable_is_none() {
        let g = UnGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let res = bfs(&g, 0, None);
        assert!(reconstruct_path(&res.parent, 0, 3).is_none());
        assert_eq!(reconstruct_path(&res.parent, 0, 0), Some(vec![0]));
    }

    #[test]
    fn dijkstra_prefers_lighter_paths() {
        // 0-1-2 with cheap edges, 0-2 expensive direct edge.
        let g = UnGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let (dist, parent) = dijkstra(&g, 0, |u, v| {
            if (u, v) == (0, 2) || (u, v) == (2, 0) {
                10.0
            } else {
                1.0
            }
        });
        assert!((dist[2] - 2.0).abs() < 1e-9);
        assert_eq!(reconstruct_path(&parent, 0, 2).unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn components_and_connectivity() {
        let g = UnGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 2);
        let within: BTreeSet<usize> = (0..6).collect();
        assert!(all_connected(&g, &[0, 2], &within));
        assert!(!all_connected(&g, &[0, 3], &within));
        assert!(all_connected(&g, &[], &within));
    }

    #[test]
    fn diameter_of_path_and_disconnected() {
        let g = path_graph(4);
        let nodes: BTreeSet<usize> = (0..4).collect();
        assert_eq!(diameter(&g, &nodes), 3);
        let g2 = UnGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&g2, &nodes), usize::MAX);
    }

    #[test]
    fn query_distance_is_max_over_queries() {
        let g = path_graph(5);
        let within: BTreeSet<usize> = (0..5).collect();
        assert_eq!(query_distance(&g, 2, &[0, 4], &within), 2);
        assert_eq!(query_distance(&g, 0, &[0, 4], &within), 4);
    }
}
