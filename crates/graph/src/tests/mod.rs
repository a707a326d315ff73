//! Equivalence oracle: the dense-bitset search against the slow reference
//! in [`reference`] on random graphs and queries.
//!
//! Graphs have 2 to 200 nodes, so adjacency rows span one to four words
//! and the 64- and 128-node word boundaries are crossed, with 0 to 4n
//! edges in five shapes: uniform (often disconnected), bipartite
//! (triangle-free), one dense cluster among isolated nodes, planted groups
//! of eight, and a ring lattice linking each node to the next six (many
//! overlapping triangles, long paths). Queries hold 1–6 drugs, unsorted,
//! with repeats and occasionally an out-of-range index; they are drawn
//! from all nodes, from the non-isolated nodes, or from a window of eight
//! consecutive nodes, so dense connected communities are common.

mod reference;

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    bfs, closest_truss_community_with, diameter, steiner_tree, truss, truss_decomposition,
    CtcConfig, UnGraph,
};

const EXPANSION_SIZES: [usize; 4] = [1, 5, 30, 200];
const SHRINK_LIMITS: [usize; 3] = [0, 1, 100];

/// A random graph on `n` nodes from `edges_per_node · n` edge draws, in
/// one of five shapes (see the module docs).
fn random_graph(n: usize, shape: usize, edges_per_node: usize, seed: u64) -> UnGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = UnGraph::new(n);
    let m = edges_per_node * n;
    let cluster = rng.gen_range(3..=24usize).min(n);
    let start = rng.gen_range(0..=n - cluster);
    for _ in 0..m {
        let (u, v) = match shape {
            0 => (rng.gen_range(0..n), rng.gen_range(0..n)),
            1 => (
                2 * rng.gen_range(0..n.div_ceil(2)),
                2 * rng.gen_range(0..n / 2) + 1,
            ),
            2 => (
                start + rng.gen_range(0..cluster),
                start + rng.gen_range(0..cluster),
            ),
            3 => {
                let u = rng.gen_range(0..n);
                let v = if rng.gen_bool(0.75) {
                    ((u / 8) * 8 + rng.gen_range(0..8)).min(n - 1)
                } else {
                    rng.gen_range(0..n)
                };
                (u, v)
            }
            _ => {
                let u = rng.gen_range(0..n);
                (u, (u + rng.gen_range(1..=6)) % n)
            }
        };
        if u != v {
            g.add_edge(u, v).unwrap();
        }
    }
    g
}

/// Graph sizes weighted towards the word boundaries.
fn node_counts() -> impl Strategy<Value = usize> {
    prop_oneof![2usize..=200, 62usize..=67, 126usize..=131, 2usize..=12]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn bitset_search_matches_the_reference(
        n in node_counts(),
        shape in 0usize..5,
        edges_per_node in 0usize..=4,
        seed in any::<u64>(),
        locality in 0usize..3,
        raw in proptest::collection::vec(0usize..10_000, 1..=6),
        repeat in 0usize..12,
        out_of_range in 0usize..16,
        config in (0usize..4, 0usize..3),
    ) {
        let g = random_graph(n, shape, edges_per_node, seed);
        let linked = g.non_isolated_nodes();
        let mut query: Vec<usize> = match locality {
            0 => raw.iter().map(|d| d % n).collect(),
            1 if !linked.is_empty() => raw.iter().map(|d| linked[d % linked.len()]).collect(),
            _ => raw.iter().map(|d| (raw[0] + d % 8) % n).collect(),
        };
        let last = query.len() - 1;
        if repeat < last {
            query[last] = query[repeat];
        }
        if out_of_range == 0 {
            let pos = repeat % query.len();
            query[pos] = n + raw[0] % 3;
        }
        let config = CtcConfig {
            expansion_size: EXPANSION_SIZES[config.0],
            max_shrink_iterations: SHRINK_LIMITS[config.1],
        };

        let fast = truss_decomposition(&g);
        let slow = reference::truss_decomposition(&g);
        prop_assert_eq!(fast.len(), slow.len());
        prop_assert_eq!(fast.max_truss(), slow.max_truss());
        prop_assert_eq!(fast.min_truss(), slow.min_truss());
        let mut slow_entries: Vec<((usize, usize), usize)> =
            slow.iter().map(|(&e, &t)| (e, t)).collect();
        slow_entries.sort_unstable();
        prop_assert_eq!(fast.iter().collect::<Vec<_>>(), slow_entries);
        for u in 0..n {
            for v in 0..n {
                prop_assert_eq!(fast.truss(u, v), slow.truss(u, v), "truss({}, {})", u, v);
            }
        }

        match (
            steiner_tree(&g, &query, &fast),
            reference::steiner_tree(&g, &query, &slow),
        ) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.nodes, b.nodes);
                prop_assert_eq!(a.edges, b.edges);
            }
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }

        let a = closest_truss_community_with(&g, &fast, &query, &config);
        let b = reference::closest_truss_community_with(&g, &slow, &query, &config);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.nodes, &b.nodes, "nodes for {:?} ({:?})", query, config);
                prop_assert_eq!(&a.edges, &b.edges, "edges for {:?} ({:?})", query, config);
                prop_assert_eq!(a.trussness, b.trussness, "trussness for {:?}", query);
                prop_assert_eq!(a.diameter, b.diameter, "diameter for {:?}", query);
            }
            (a, b) => prop_assert_eq!(a.err(), b.err(), "error for {:?}", query),
        }
    }

    #[test]
    fn traversal_and_truss_maintenance_match_the_reference(
        n in node_counts(),
        shape in 0usize..5,
        edges_per_node in 0usize..=4,
        seed in any::<u64>(),
        members in proptest::collection::vec(any::<bool>(), 200),
        source in 0usize..10_000,
        p in 2usize..6,
    ) {
        let g = random_graph(n, shape, edges_per_node, seed);
        let within: BTreeSet<usize> = (0..n).filter(|&v| members[v]).collect();
        let source = source % n;
        for restriction in [None, Some(&within)] {
            let a = bfs(&g, source, restriction);
            let b = reference::bfs(&g, source, restriction);
            prop_assert_eq!(a.dist, b.dist);
            prop_assert_eq!(a.parent, b.parent);
        }
        let connected: BTreeSet<usize> = reference::component_of(&g, source, Some(&within));
        prop_assert_eq!(diameter(&g, &connected), reference::diameter(&g, &connected));
        prop_assert_eq!(diameter(&g, &within), reference::diameter(&g, &within));
        prop_assert_eq!(
            crate::traversal::all_connected(&g, &[source, (source + 1) % n], &within),
            reference::all_connected(&g, &[source, (source + 1) % n], &within)
        );

        let mut fast_sub = g.clone();
        let mut fast_nodes = within.clone();
        truss::maintain_p_truss(&mut fast_sub, &mut fast_nodes, p);
        let mut slow_sub = g.clone();
        let mut slow_nodes = within;
        reference::maintain_p_truss(&mut slow_sub, &mut slow_nodes, p);
        prop_assert_eq!(fast_sub, slow_sub);
        prop_assert_eq!(fast_nodes, slow_nodes);
    }
}
