//! The closest-truss-community search as it was written over
//! `Vec<BTreeSet<usize>>` adjacency and a `HashMap` of truss numbers,
//! kept verbatim as the slow reference the dense-bitset implementation is
//! checked against. Everything here goes through [`UnGraph`]'s public API,
//! whose meaning the bitset rows keep.

use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};

use crate::{norm_edge, BfsResult, Community, CtcConfig, GraphError, SteinerTree, UnGraph};

// ---------------------------------------------------------------- truss ---

/// Result of a truss decomposition: the truss number of every edge.
#[derive(Debug, Clone, Default)]
pub struct TrussDecomposition {
    truss: HashMap<(usize, usize), usize>,
    max_truss: usize,
}

impl TrussDecomposition {
    pub fn truss(&self, u: usize, v: usize) -> Option<usize> {
        self.truss.get(&norm_edge(u, v)).copied()
    }

    pub fn max_truss(&self) -> usize {
        self.max_truss
    }

    pub fn min_truss(&self) -> usize {
        self.truss.values().copied().min().unwrap_or(0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&(usize, usize), &usize)> {
        self.truss.iter()
    }

    pub fn len(&self) -> usize {
        self.truss.len()
    }
}

pub fn truss_decomposition(graph: &UnGraph) -> TrussDecomposition {
    let mut work = graph.clone();
    let mut support: HashMap<(usize, usize), usize> = HashMap::new();
    for (u, v) in work.edges() {
        support.insert((u, v), work.edge_support(u, v));
    }
    let mut truss: HashMap<(usize, usize), usize> = HashMap::new();
    let mut k = 2usize;

    while !support.is_empty() {
        // Peel every edge whose support is <= k - 2 at the current level.
        loop {
            let to_remove: Vec<(usize, usize)> = support
                .iter()
                .filter(|(_, &s)| s + 2 <= k)
                .map(|(&e, _)| e)
                .collect();
            if to_remove.is_empty() {
                break;
            }
            for (u, v) in to_remove {
                if support.remove(&(u, v)).is_none() {
                    continue;
                }
                truss.insert((u, v), k);
                // Removing (u, v) destroys one triangle per common neighbour.
                let common = work.common_neighbors(u, v);
                work.remove_edge(u, v);
                for w in common {
                    for e in [norm_edge(u, w), norm_edge(v, w)] {
                        if let Some(s) = support.get_mut(&e) {
                            *s = s.saturating_sub(1);
                        }
                    }
                }
            }
        }
        k += 1;
    }
    let max_truss = truss.values().copied().max().unwrap_or(0);
    TrussDecomposition { truss, max_truss }
}

pub fn maintain_p_truss(sub: &mut UnGraph, nodes: &mut BTreeSet<usize>, p: usize) {
    loop {
        let violating: Vec<(usize, usize)> = sub
            .edges()
            .into_iter()
            .filter(|&(u, v)| sub.edge_support(u, v) + 2 < p)
            .collect();
        if violating.is_empty() {
            break;
        }
        for (u, v) in violating {
            sub.remove_edge(u, v);
        }
    }
    nodes.retain(|&v| sub.degree(v) > 0);
}

// ------------------------------------------------------------ traversal ---

pub fn bfs(graph: &UnGraph, source: usize, within: Option<&BTreeSet<usize>>) -> BfsResult {
    let n = graph.node_count();
    let mut dist = vec![usize::MAX; n];
    let mut parent = vec![usize::MAX; n];
    if source >= n || within.is_some_and(|w| !w.contains(&source)) {
        return BfsResult { dist, parent };
    }
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in graph.neighbors(u) {
            if let Some(w) = within {
                if !w.contains(&v) {
                    continue;
                }
            }
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    BfsResult { dist, parent }
}

pub fn reconstruct_path(parent: &[usize], source: usize, target: usize) -> Option<Vec<usize>> {
    if source == target {
        return Some(vec![source]);
    }
    if parent[target] == usize::MAX {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = parent[cur];
        path.push(cur);
        if path.len() > parent.len() {
            return None; // defensive: malformed parent array
        }
    }
    path.reverse();
    Some(path)
}

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
    dist[source] = 0.0;
    heap.push(Entry(0.0, source));
    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for v in graph.neighbors(u) {
            let w = weight(u, v);
            let nd = d + w.max(0.0);
            if nd < dist[v] {
                dist[v] = nd;
                parent[v] = u;
                heap.push(Entry(nd, v));
            }
        }
    }
    (dist, parent)
}

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

pub fn diameter(graph: &UnGraph, nodes: &BTreeSet<usize>) -> usize {
    let mut best = 0usize;
    for &v in nodes {
        let res = bfs(graph, v, Some(nodes));
        for &u in nodes {
            if res.dist[u] == usize::MAX {
                return usize::MAX;
            }
            best = best.max(res.dist[u]);
        }
    }
    best
}

// -------------------------------------------------------------- steiner ---

pub fn truss_distance_weight(decomposition: &TrussDecomposition, u: usize, v: usize) -> f64 {
    let k_max = decomposition.max_truss().max(2) as f64;
    let t = decomposition.truss(u, v).unwrap_or(2) as f64;
    1.0 + (k_max - t).max(0.0) / (k_max + 1.0)
}

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
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
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

    // Prim's MST over the complete distance graph on the query nodes.
    let q = unique_query.len();
    let mut in_tree = vec![false; q];
    let mut best_cost = vec![f64::INFINITY; q];
    let mut best_from = vec![usize::MAX; q];
    in_tree[0] = true;
    for j in 1..q {
        best_cost[j] = per_query[0].0[unique_query[j]];
        best_from[j] = 0;
    }
    for _ in 1..q {
        let mut pick = usize::MAX;
        let mut pick_cost = f64::INFINITY;
        for j in 0..q {
            if !in_tree[j] && best_cost[j] < pick_cost {
                pick = j;
                pick_cost = best_cost[j];
            }
        }
        if pick == usize::MAX {
            break; // remaining query nodes are unreachable; leave them isolated
        }
        in_tree[pick] = true;
        // Expand the MST edge (best_from[pick] -> pick) into its shortest path.
        let from = best_from[pick];
        let (_, parents) = &per_query[from];
        if let Some(path) = reconstruct_path(parents, unique_query[from], unique_query[pick]) {
            for window in path.windows(2) {
                nodes.insert(window[0]);
                nodes.insert(window[1]);
                edges.insert(norm_edge(window[0], window[1]));
            }
        }
        for j in 0..q {
            if !in_tree[j] {
                let c = per_query[pick].0[unique_query[j]];
                if c < best_cost[j] {
                    best_cost[j] = c;
                    best_from[j] = pick;
                }
            }
        }
    }

    // Prune non-query leaves repeatedly (Mehlhorn's final clean-up).
    let mut tree = UnGraph::new(n);
    for &(u, v) in &edges {
        tree.add_edge(u, v)?;
    }
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
    let final_edges: Vec<(usize, usize)> = tree.edges();
    Ok(SteinerTree {
        nodes,
        edges: final_edges,
    })
}

// ------------------------------------------------------------------ ctc ---

fn community_query_distance(graph: &UnGraph, nodes: &BTreeSet<usize>, query: &[usize]) -> usize {
    let mut total = 0usize;
    for &q in query {
        if !nodes.contains(&q) {
            return usize::MAX;
        }
        let res = bfs(graph, q, Some(nodes));
        for &v in nodes {
            match res.dist[v] {
                usize::MAX => return usize::MAX,
                d => total = total.max(d),
            }
        }
    }
    total
}

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
    let mut nodes: BTreeSet<usize> = tree.nodes.clone();
    let mut sub = UnGraph::new(n);
    for &(u, v) in &tree.edges {
        sub.add_edge(u, v)?;
    }
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

    // Line 9: maximum connected p-truss containing the query.
    let (mut p, mut best_nodes, mut best_sub) = max_connected_p_truss(&local, &unique_query, n);
    if best_nodes.is_empty() {
        p = 2;
        best_nodes = nodes.clone();
        best_sub = sub.clone();
    }
    for &q in &unique_query {
        best_nodes.insert(q);
    }

    // Lines 10-15: iterative shrinking.
    let mut best_candidate = (
        community_query_distance(&best_sub, &best_nodes, &unique_query),
        best_nodes.clone(),
        best_sub.clone(),
    );
    let mut cur_nodes = best_nodes;
    let mut cur_sub = best_sub;
    for _ in 0..config.max_shrink_iterations {
        let from_query: Vec<BfsResult> = unique_query
            .iter()
            .map(|&q| bfs(&cur_sub, q, Some(&cur_nodes)))
            .collect();
        let mut furthest: Option<(usize, usize)> = None;
        for &v in &cur_nodes {
            if unique_query.contains(&v) {
                continue;
            }
            let d = from_query.iter().map(|res| res.dist[v]).max().unwrap_or(0);
            if furthest.is_none_or(|(fd, _)| d > fd) {
                furthest = Some((d, v));
            }
        }
        let Some((_, victim)) = furthest else { break };
        cur_sub.detach_node(victim);
        cur_nodes.remove(&victim);
        maintain_p_truss(&mut cur_sub, &mut cur_nodes, p);
        for &q in &unique_query {
            cur_nodes.insert(q);
        }
        if !all_connected(&cur_sub, &unique_query, &cur_nodes) && unique_query.len() > 1 {
            break;
        }
        let d = community_query_distance(&cur_sub, &cur_nodes, &unique_query);
        if d <= best_candidate.0 {
            best_candidate = (d, cur_nodes.clone(), cur_sub.clone());
        }
        if cur_nodes.len() <= unique_query.len() {
            break;
        }
    }

    let (_, final_nodes, final_sub) = best_candidate;
    let edges: Vec<(usize, usize)> = final_sub
        .edges()
        .into_iter()
        .filter(|&(u, v)| final_nodes.contains(&u) && final_nodes.contains(&v))
        .collect();
    let diam = diameter(&final_sub, &final_nodes);
    Ok(Community {
        nodes: final_nodes,
        edges,
        trussness: p,
        diameter: diam,
    })
}

fn expand_candidate(
    graph: &UnGraph,
    decomposition: &TrussDecomposition,
    sub: &mut UnGraph,
    nodes: &mut BTreeSet<usize>,
    p_seed: usize,
    target_size: usize,
) {
    let mut frontier: Vec<usize> = nodes.iter().copied().collect();
    while nodes.len() < target_size {
        let mut added_any = false;
        let mut next_frontier = Vec::new();
        for &u in &frontier {
            for v in graph.neighbors(u) {
                let t = decomposition.truss(u, v).unwrap_or(0);
                if t >= p_seed {
                    if !sub.has_edge(u, v) {
                        let _ = sub.add_edge(u, v);
                        added_any = true;
                    }
                    if nodes.insert(v) {
                        next_frontier.push(v);
                        added_any = true;
                        if nodes.len() >= target_size {
                            break;
                        }
                    }
                }
            }
            if nodes.len() >= target_size {
                break;
            }
        }
        let snapshot: Vec<usize> = nodes.iter().copied().collect();
        for &u in &snapshot {
            for v in graph.neighbors(u) {
                if nodes.contains(&v) && !sub.has_edge(u, v) {
                    let t = decomposition.truss(u, v).unwrap_or(0);
                    if t >= p_seed {
                        let _ = sub.add_edge(u, v);
                        added_any = true;
                    }
                }
            }
        }
        if !added_any {
            break;
        }
        frontier = next_frontier;
        if frontier.is_empty() {
            break;
        }
    }
}

fn max_connected_p_truss(
    local: &TrussDecomposition,
    query: &[usize],
    n: usize,
) -> (usize, BTreeSet<usize>, UnGraph) {
    let max_p = local.max_truss();
    for p in (2..=max_p.max(2)).rev() {
        let mut candidate = UnGraph::new(n);
        for (&(u, v), &t) in local.iter() {
            if t >= p {
                let _ = candidate.add_edge(u, v);
            }
        }
        let within: BTreeSet<usize> = candidate.non_isolated_nodes().into_iter().collect();
        if query.iter().all(|q| within.contains(q)) && all_connected(&candidate, query, &within) {
            let comp = component_of(&candidate, query[0], Some(&within));
            let pruned = candidate.induced_subgraph(&comp);
            return (p, comp, pruned);
        }
    }
    (2, BTreeSet::new(), UnGraph::new(n))
}
