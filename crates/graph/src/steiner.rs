//! Approximate Steiner trees (Mehlhorn-style 2-approximation).
//!
//! The closest-truss-community search starts from a Steiner tree connecting
//! the suggested drugs in the DDI graph (line 2 of Algorithm 1). Following
//! the paper, path lengths use a *truss-aware distance*: edges belonging to
//! denser trusses are cheaper, so the tree prefers routing through strongly
//! interacting drug clusters.

use std::collections::BTreeSet;

use crate::traversal::{dijkstra, reconstruct_path};
use crate::truss::TrussDecomposition;
use crate::{GraphError, UnGraph};

/// A tree (or forest, if the query is disconnected) embedded in the host graph.
#[derive(Debug, Clone)]
pub struct SteinerTree {
    /// Nodes spanned by the tree, including the query nodes.
    pub nodes: BTreeSet<usize>,
    /// Edges of the tree as normalised `(min, max)` pairs.
    pub edges: Vec<(usize, usize)>,
}

impl SteinerTree {
    /// Total number of edges in the tree.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Materialises the tree as an [`UnGraph`] over the host graph's node space.
    pub fn to_graph(&self, n: usize) -> Result<UnGraph, GraphError> {
        UnGraph::from_edges(n, &self.edges)
    }
}

/// Truss-aware edge weight: an edge in a denser truss is cheaper to cross.
/// Weight is `1 + (k_max − truss(e)) / (k_max + 1)` so every edge costs at
/// least 1 hop and at most 2.
pub fn truss_distance_weight(decomposition: &TrussDecomposition, u: usize, v: usize) -> f64 {
    let k_max = decomposition.max_truss().max(2) as f64;
    let t = decomposition.truss(u, v).unwrap_or(2) as f64;
    1.0 + (k_max - t).max(0.0) / (k_max + 1.0)
}

/// A query node's cheapest known link to the growing minimum spanning tree.
struct Link {
    in_tree: bool,
    cost: f64,
    from: usize,
}

/// Computes an approximate minimum Steiner tree connecting `query` in
/// `graph`, using Mehlhorn's construction: build the complete distance graph
/// over the query nodes, take its minimum spanning tree, expand each MST
/// edge into the underlying shortest path, and prune non-query leaves.
///
/// Query nodes in different connected components yield a forest containing
/// each reachable part (no error), because the MS module must still explain
/// drug suggestions whose DDI neighbourhoods are disconnected.
pub fn steiner_tree(
    graph: &UnGraph,
    query: &[usize],
    decomposition: &TrussDecomposition,
) -> Result<SteinerTree, GraphError> {
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
    let mut nodes: BTreeSet<usize> = unique_query.iter().copied().collect();
    if unique_query.len() == 1 {
        return Ok(SteinerTree {
            nodes,
            edges: vec![],
        });
    }

    // Shortest paths from every query node under the truss-aware metric.
    let weight = |u: usize, v: usize| truss_distance_weight(decomposition, u, v);
    let per_query: Vec<(Vec<f64>, Vec<usize>)> = unique_query
        .iter()
        .map(|&q| dijkstra(graph, q, weight))
        .collect();
    // Distance from the `from`-th to the `to`-th query node.
    let cost = |from: usize, to: usize| -> f64 {
        match (per_query.get(from), unique_query.get(to)) {
            (Some((dist, _)), Some(&target)) => dist.get(target).copied().unwrap_or(f64::INFINITY),
            _ => f64::INFINITY,
        }
    };

    // Prim's MST over the complete distance graph on the query nodes,
    // grown from the first query node.
    let mut links: Vec<Link> = (0..unique_query.len())
        .map(|j| Link {
            in_tree: j == 0,
            cost: if j == 0 { f64::INFINITY } else { cost(0, j) },
            from: 0,
        })
        .collect();
    let mut tree = UnGraph::new(n);
    for _ in 1..links.len() {
        // The first cheapest outside node; strict `<` keeps the earliest
        // among equal costs, and unreachable nodes are never picked.
        let mut pick: Option<(usize, f64)> = None;
        for (j, link) in links.iter().enumerate() {
            if !link.in_tree && link.cost < pick.map_or(f64::INFINITY, |(_, c)| c) {
                pick = Some((j, link.cost));
            }
        }
        let Some((pick, _)) = pick else {
            break; // remaining query nodes are unreachable; leave them isolated
        };
        let Some(link) = links.get_mut(pick) else {
            break;
        };
        link.in_tree = true;
        // Expand the MST edge (from -> pick) into its shortest path.
        let from = link.from;
        let path = match (
            per_query.get(from),
            unique_query.get(from),
            unique_query.get(pick),
        ) {
            (Some((_, parents)), Some(&source), Some(&target)) => {
                reconstruct_path(parents, source, target)
            }
            _ => None,
        };
        for pair in path.as_deref().unwrap_or_default().windows(2) {
            if let &[a, b] = pair {
                nodes.insert(a);
                nodes.insert(b);
                tree.add_edge(a, b)?;
            }
        }
        for (j, link) in links.iter_mut().enumerate() {
            if !link.in_tree {
                let c = cost(pick, j);
                if c < link.cost {
                    link.cost = c;
                    link.from = pick;
                }
            }
        }
    }

    // Prune non-query leaves in rounds (Mehlhorn's final clean-up).
    loop {
        let leaves: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|&v| tree.degree(v) == 1 && !unique_query.contains(&v))
            .collect();
        if leaves.is_empty() {
            break;
        }
        for v in leaves {
            tree.detach_node(v);
            nodes.remove(&v);
        }
    }
    Ok(SteinerTree {
        nodes,
        edges: tree.edges(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truss::truss_decomposition;

    fn grid_graph() -> UnGraph {
        // 0-1-2
        // |   |
        // 3-4-5   plus a dense triangle 1-4-6 to attract truss-aware paths
        UnGraph::from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (0, 3),
                (2, 5),
                (3, 4),
                (4, 5),
                (1, 4),
                (1, 6),
                (4, 6),
            ],
        )
        .unwrap()
    }

    #[test]
    fn steiner_tree_connects_all_query_nodes() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[0, 5, 6], &d).unwrap();
        let tree_graph = t.to_graph(g.node_count()).unwrap();
        let within = t.nodes.clone();
        assert!(crate::traversal::all_connected(
            &tree_graph,
            &[0, 5, 6],
            &within
        ));
        // A tree has |nodes| - 1 edges when connected.
        assert_eq!(t.edge_count(), t.nodes.len() - 1);
    }

    #[test]
    fn single_query_node_yields_trivial_tree() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[3], &d).unwrap();
        assert_eq!(t.nodes.len(), 1);
        assert_eq!(t.edge_count(), 0);
    }

    #[test]
    fn duplicate_query_nodes_are_deduplicated() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[2, 2, 2], &d).unwrap();
        assert_eq!(t.nodes.len(), 1);
    }

    #[test]
    fn empty_query_is_an_error_and_out_of_range_is_an_error() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        assert!(matches!(
            steiner_tree(&g, &[], &d),
            Err(GraphError::EmptyQuery)
        ));
        assert!(matches!(
            steiner_tree(&g, &[99], &d),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn disconnected_query_produces_partial_forest_without_error() {
        let g = UnGraph::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[0, 1, 4], &d).unwrap();
        assert!(t.nodes.contains(&0) && t.nodes.contains(&1) && t.nodes.contains(&4));
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn truss_distance_prefers_dense_edges() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        // (1,4) belongs to the triangle 1-4-6 (3-truss), (0,1) does not.
        assert!(truss_distance_weight(&d, 1, 4) < truss_distance_weight(&d, 0, 1));
        // Unknown edge falls back to the cheapest-possible truss of 2.
        assert!(truss_distance_weight(&d, 0, 5) >= 1.0);
    }

    #[test]
    fn steiner_tree_has_no_superfluous_leaves() {
        let g = grid_graph();
        let d = truss_decomposition(&g);
        let t = steiner_tree(&g, &[0, 2], &d).unwrap();
        let tree_graph = t.to_graph(g.node_count()).unwrap();
        for &v in &t.nodes {
            if v != 0 && v != 2 {
                assert!(tree_graph.degree(v) >= 2, "non-query leaf {v} left in tree");
            }
        }
    }
}
