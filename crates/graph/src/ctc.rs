//! Closest Truss Community (CTC) search — Algorithm 1 of the paper.
//!
//! Given the DDI graph and the set of suggested drugs (the *query*), the
//! Medical Support module extracts a connected, dense subgraph that contains
//! every suggested drug and has small diameter. The procedure follows the
//! paper: truss decomposition → Steiner tree over the query → expansion into
//! a dense neighbourhood → maximal connected p-truss → iterative shrinking
//! by removing the furthest nodes while maintaining the truss property.
//!
//! Node sets are bitsets and subgraphs are [`UnGraph`] bitset rows over the
//! host graph's node range; the search allocates its buffers once per call
//! and reuses them across every shrink iteration.

use std::collections::BTreeSet;

use crate::steiner::steiner_tree;
use crate::traversal::{diameter_within, Bfs};
use crate::truss::{peel_below, truss_decomposition, TrussDecomposition};
use crate::ungraph::NodeSet;
use crate::{GraphError, UnGraph};

/// A dense explanation subgraph around a set of query drugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Community {
    /// Nodes of the community (always a superset of the reachable query nodes).
    pub nodes: BTreeSet<usize>,
    /// Edges of the community as normalised `(min, max)` pairs.
    pub edges: Vec<(usize, usize)>,
    /// Trussness `p` the community satisfies (every edge has support ≥ p − 2).
    pub trussness: usize,
    /// Hop diameter of the community (`usize::MAX` if it is a forest of parts).
    pub diameter: usize,
}

impl Community {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True when the community contains the node.
    pub fn contains(&self, v: usize) -> bool {
        self.nodes.contains(&v)
    }
}

/// Configuration of the CTC search.
#[derive(Debug, Clone)]
pub struct CtcConfig {
    /// Target size for the expanded candidate subgraph `G'₀`
    /// (`n₀` in Algorithm 1).
    pub expansion_size: usize,
    /// Maximum number of shrink iterations (defensive bound; the loop also
    /// stops when the query would become disconnected).
    pub max_shrink_iterations: usize,
}

impl Default for CtcConfig {
    fn default() -> Self {
        Self {
            expansion_size: 30,
            max_shrink_iterations: 100,
        }
    }
}

/// Distances between a candidate community and the query, from one BFS per
/// query node.
struct QueryDistance {
    /// Largest hop distance from any query node to any community node —
    /// Huang et al.'s query distance `dist(G', Q)`, minimised on line 15 of
    /// Algorithm 1 (`usize::MAX` when some node is unreachable).
    distance: usize,
    /// Whether every query node is reachable from the first one.
    connected: bool,
}

/// Measures the community `(sub, nodes)` against `query` (every query node
/// must be in `nodes`). Leaves in `furthest[v]` the largest hop distance
/// from any query node to community node `v`.
fn community_query_distance(
    sub: &UnGraph,
    nodes: &NodeSet,
    query: &[usize],
    search: &mut Bfs,
    furthest: &mut [usize],
) -> QueryDistance {
    furthest.fill(0);
    let mut connected = true;
    for (i, &q) in query.iter().enumerate() {
        search.run(sub, q, nodes, None);
        if i == 0 {
            connected = query
                .iter()
                .all(|&t| search.dist.get(t).is_some_and(|&d| d != usize::MAX));
        }
        for (f, &d) in furthest.iter_mut().zip(&search.dist) {
            *f = (*f).max(d);
        }
    }
    let distance = nodes
        .iter()
        .map(|v| furthest.get(v).copied().unwrap_or(usize::MAX))
        .max()
        .unwrap_or(0);
    QueryDistance {
        distance,
        connected,
    }
}

/// Runs the closest-truss-community search of Algorithm 1.
///
/// Query nodes that are isolated in `graph` are kept in the result (the MS
/// module still has to display them) but cannot contribute interactions.
pub fn closest_truss_community(
    graph: &UnGraph,
    query: &[usize],
    config: &CtcConfig,
) -> Result<Community, GraphError> {
    // Line 1: truss decomposition on the full graph.
    let decomposition = truss_decomposition(graph);
    closest_truss_community_with(graph, &decomposition, query, config)
}

/// [`closest_truss_community`] with a caller-provided truss decomposition of
/// `graph` (line 1 of Algorithm 1 hoisted out). Serving layers whose graph
/// is immutable decompose once and amortise it over every explanation; the
/// result is identical to recomputing per call.
pub fn closest_truss_community_with(
    graph: &UnGraph,
    decomposition: &TrussDecomposition,
    query: &[usize],
    config: &CtcConfig,
) -> Result<Community, GraphError> {
    let n = graph.node_count();
    let mut unique_query: Vec<usize> = Vec::new();
    for &q in query {
        if q >= n {
            return Err(GraphError::NodeOutOfRange { node: q, nodes: n });
        }
        if !unique_query.contains(&q) {
            unique_query.push(q);
        }
    }
    if unique_query.is_empty() {
        return Err(GraphError::EmptyQuery);
    }

    // Line 2: Steiner tree containing the suggested drugs.
    let tree = steiner_tree(graph, &unique_query, decomposition)?;

    // Lines 3-4: seed subgraph and its minimum truss level p'.
    let mut nodes = NodeSet::from_nodes(n, tree.nodes.iter().copied());
    let mut sub = UnGraph::from_edges(n, &tree.edges)?;
    let p_seed = tree
        .edges
        .iter()
        .filter_map(|&(u, v)| decomposition.truss(u, v))
        .min()
        .unwrap_or(2);

    // Lines 5-7: grow the subgraph with adjacent edges of truss >= p'.
    expand_candidate(
        graph,
        decomposition,
        &mut sub,
        &mut nodes,
        p_seed,
        config.expansion_size,
    );

    // Line 8: truss decomposition on the candidate subgraph.
    let local = truss_decomposition(&sub);

    // Line 9: maximum connected p-truss containing the query. When the
    // query has no triangles around it at all, the Steiner tree itself
    // stands as a (2-truss) explanation.
    let mut search = Bfs::new(n);
    let (p, mut cur_nodes, mut cur_sub) =
        max_connected_p_truss(&local, &unique_query, n, &mut search).unwrap_or((2, nodes, sub));
    // Query nodes with no interactions stay visible in the explanation.
    cur_nodes.extend(unique_query.iter().copied());

    // Lines 10-15: iterative shrinking, keeping the candidate with the
    // smallest query distance. The candidate is mutated in place (a
    // rejected step only ever precedes a `break`, so no rollback is
    // needed). One BFS per query node measures each state, and the same
    // distances pick the next victim — hop distances are symmetric, so the
    // node furthest from the query is the one with the largest distance.
    let mut furthest = vec![0usize; n];
    let mut best_distance = community_query_distance(
        &cur_sub,
        &cur_nodes,
        &unique_query,
        &mut search,
        &mut furthest,
    )
    .distance;
    let mut best_nodes = cur_nodes.clone();
    let mut best_sub = cur_sub.clone();
    for _ in 0..config.max_shrink_iterations {
        // The first non-query node (ascending) with the largest distance,
        // unreachable counting as infinite.
        let mut victim: Option<(usize, usize)> = None;
        for v in cur_nodes.iter() {
            if unique_query.contains(&v) {
                continue;
            }
            let d = furthest.get(v).copied().unwrap_or(usize::MAX);
            if victim.is_none_or(|(vd, _)| d > vd) {
                victim = Some((d, v));
            }
        }
        let Some((_, victim)) = victim else { break };
        cur_sub.detach_node(victim);
        cur_nodes.remove(victim);
        peel_below(&mut cur_sub, p);
        cur_nodes.retain(|v| cur_sub.degree(v) > 0);
        cur_nodes.extend(unique_query.iter().copied());
        let measured = community_query_distance(
            &cur_sub,
            &cur_nodes,
            &unique_query,
            &mut search,
            &mut furthest,
        );
        if !measured.connected && unique_query.len() > 1 {
            break;
        }
        if measured.distance <= best_distance {
            best_distance = measured.distance;
            best_nodes.clone_from(&cur_nodes);
            best_sub.clone_from(&cur_sub);
        }
        if cur_nodes.len() <= unique_query.len() {
            break;
        }
    }

    let edges: Vec<(usize, usize)> = best_sub
        .edges()
        .into_iter()
        .filter(|&(u, v)| best_nodes.contains(u) && best_nodes.contains(v))
        .collect();
    let diameter = diameter_within(&best_sub, &best_nodes, &mut search);
    Ok(Community {
        nodes: best_nodes.iter().collect(),
        edges,
        trussness: p,
        diameter,
    })
}

/// Lines 5-7 of Algorithm 1: breadth-first expansion of the seed subgraph by
/// adjacent edges whose (global) truss number is at least `p_seed`.
fn expand_candidate(
    graph: &UnGraph,
    decomposition: &TrussDecomposition,
    sub: &mut UnGraph,
    nodes: &mut NodeSet,
    p_seed: usize,
    target_size: usize,
) {
    let dense = |u: usize, v: usize| decomposition.truss(u, v).unwrap_or(0) >= p_seed;
    let mut size = nodes.len();
    let mut frontier: Vec<usize> = nodes.iter().collect();
    let mut next_frontier: Vec<usize> = Vec::new();
    while size < target_size {
        let mut added_any = false;
        next_frontier.clear();
        'grow: for &u in &frontier {
            for v in graph.neighbors(u) {
                if !dense(u, v) {
                    continue;
                }
                if !sub.has_edge(u, v) {
                    let _ = sub.add_edge(u, v);
                    added_any = true;
                }
                if nodes.insert(v) {
                    next_frontier.push(v);
                    added_any = true;
                    size += 1;
                    if size >= target_size {
                        break 'grow;
                    }
                }
            }
        }
        // Also close triangles among the current node set so the local truss
        // decomposition sees the full induced density.
        for u in nodes.iter() {
            for v in graph.neighbors(u) {
                if nodes.contains(v) && !sub.has_edge(u, v) && dense(u, v) {
                    let _ = sub.add_edge(u, v);
                    added_any = true;
                }
            }
        }
        if !added_any {
            break;
        }
        std::mem::swap(&mut frontier, &mut next_frontier);
        if frontier.is_empty() {
            break;
        }
    }
}

/// Line 9 of Algorithm 1: the connected p-truss with the largest `p` that
/// still contains every query node (restricted to the candidate subgraph),
/// as `(p, its nodes, its edges)`. Levels are tried from the top down, each
/// adding the edges of truss number exactly `p` to the previous level's.
fn max_connected_p_truss(
    local: &TrussDecomposition,
    query: &[usize],
    n: usize,
    search: &mut Bfs,
) -> Option<(usize, NodeSet, UnGraph)> {
    let &first = query.first()?;
    let mut candidate = UnGraph::new(n);
    let mut touched = NodeSet::new(n);
    for p in (2..=local.max_truss().max(2)).rev() {
        for ((u, v), t) in local.iter() {
            if t == p {
                let _ = candidate.add_edge(u, v);
                touched.insert(u);
                touched.insert(v);
            }
        }
        if !query.iter().all(|&q| touched.contains(q)) {
            continue;
        }
        search.run(&candidate, first, &touched, None);
        let reached = |q: &usize| search.dist.get(*q).is_some_and(|&d| d != usize::MAX);
        if query.iter().all(reached) {
            let comp = NodeSet::from_nodes(
                n,
                search
                    .dist
                    .iter()
                    .enumerate()
                    .filter(|&(_, &d)| d != usize::MAX)
                    .map(|(v, _)| v),
            );
            candidate.retain_within(&comp);
            return Some((p, comp, candidate));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::all_connected;

    /// A graph with a dense 4-clique {0,1,2,3}, a triangle {4,5,6} bridged to
    /// the clique, and a long sparse path 7-8-9.
    fn test_graph() -> UnGraph {
        UnGraph::from_edges(
            10,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3), // clique
                (3, 4),
                (4, 5),
                (4, 6),
                (5, 6), // bridge + triangle
                (6, 7),
                (7, 8),
                (8, 9), // sparse tail
            ],
        )
        .unwrap()
    }

    #[test]
    fn community_contains_all_query_nodes() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[0, 2], &CtcConfig::default()).unwrap();
        assert!(c.contains(0) && c.contains(2));
        assert!(c.trussness >= 3);
        assert!(c.edge_count() >= 1);
    }

    #[test]
    fn dense_clique_query_yields_clique_community() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[0, 1, 2, 3], &CtcConfig::default()).unwrap();
        assert_eq!(c.trussness, 4);
        assert!(c.nodes.is_superset(&[0, 1, 2, 3].into_iter().collect()));
        // The sparse tail must not be dragged in.
        assert!(!c.contains(8) && !c.contains(9));
    }

    #[test]
    fn cross_cluster_query_stays_connected() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[1, 5], &CtcConfig::default()).unwrap();
        let within = c.nodes.clone();
        let sub = UnGraph::from_edges(10, &c.edges).unwrap();
        assert!(all_connected(&sub, &[1, 5], &within));
        assert_ne!(c.diameter, usize::MAX);
    }

    #[test]
    fn isolated_query_node_is_preserved() {
        let mut g = test_graph();
        g.detach_node(9);
        let c = closest_truss_community(&g, &[0, 9], &CtcConfig::default()).unwrap();
        assert!(c.contains(9));
        assert!(c.contains(0));
    }

    #[test]
    fn empty_and_out_of_range_queries_error() {
        let g = test_graph();
        assert!(matches!(
            closest_truss_community(&g, &[], &CtcConfig::default()),
            Err(GraphError::EmptyQuery)
        ));
        assert!(matches!(
            closest_truss_community(&g, &[42], &CtcConfig::default()),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn single_node_query_returns_local_community() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[0], &CtcConfig::default()).unwrap();
        assert!(c.contains(0));
        // Node 0 lives in the 4-clique, so its community should be dense.
        assert!(c.trussness >= 3);
    }

    #[test]
    fn every_edge_satisfies_trussness_invariant() {
        let g = test_graph();
        let c = closest_truss_community(&g, &[0, 1, 2, 3], &CtcConfig::default()).unwrap();
        let sub = UnGraph::from_edges(10, &c.edges).unwrap();
        if c.trussness > 2 {
            for &(u, v) in &c.edges {
                assert!(
                    sub.edge_support(u, v) + 2 >= c.trussness,
                    "edge ({u},{v}) violates {}-truss",
                    c.trussness
                );
            }
        }
    }

    #[test]
    fn triangle_free_graph_falls_back_to_steiner_tree() {
        let g = UnGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        let c = closest_truss_community(&g, &[0, 4], &CtcConfig::default()).unwrap();
        assert!(c.contains(0) && c.contains(4));
        assert_eq!(c.trussness, 2);
    }
}
