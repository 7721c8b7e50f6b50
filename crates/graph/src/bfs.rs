//! Breadth-first single-source shortest paths for unit-weight graphs.
//!
//! BFS is *the* unit of computational cost in the paper: every algorithm is
//! granted a budget of `2m` single-source shortest-path computations, so BFS
//! throughput is pipeline throughput. Two kernels live here:
//!
//! * [`bfs_into`] — the default **direction-optimizing** kernel (Beamer,
//!   Asanović, Patterson: "Direction-Optimizing Breadth-First Search"). It
//!   runs classic top-down level expansion while the frontier is sparse and
//!   switches to a bottom-up sweep — every *unvisited* node scans its own
//!   adjacency for a frontier parent — once the frontier's outgoing-edge sum
//!   dominates the unexplored remainder. The frontier doubles as a `u64`-word
//!   bitset in bottom-up mode so the parent test is one AND per probe.
//! * [`bfs_scalar_into`] — the plain top-down kernel, kept as the test
//!   reference: the kernel-equivalence property tests and the conformance
//!   suites compare every production row against it.
//!
//! Both kernels produce bit-identical distance rows: BFS levels are uniquely
//! determined by the graph, so traversal direction never shows in the output.
//! The multi-source companion kernel lives in [`crate::msbfs`].
//!
//! The implementation avoids per-call allocation via [`BfsWorkspace`] so
//! that the cost model reflects graph traversal, not allocator churn.

use crate::graph::{Graph, NodeId};
use crate::INF;

/// Work performed by a traversal kernel, accumulated across calls.
///
/// `settled` counts nodes whose distance was finalized (the source
/// included); `relaxed` counts adjacency entries examined. Both are pure
/// diagnostics: they never influence the distances a kernel produces, only
/// report how much internal work producing them took — the number that
/// separates kernels the budget *ledger* cannot tell apart.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalWork {
    /// Nodes whose distance was finalized.
    pub settled: u64,
    /// Adjacency entries examined (edge relaxations / parent probes).
    pub relaxed: u64,
}

impl TraversalWork {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: TraversalWork) {
        self.settled += other.settled;
        self.relaxed += other.relaxed;
    }
}

/// Growth factor of the Beamer top-down → bottom-up switch: go bottom-up
/// when `frontier_edges > remaining_edges / ALPHA`. The published tuning
/// (α = 14) carries over well to the paper's social/web-like snapshots.
const ALPHA: usize = 14;

/// Shrink factor of the bottom-up → top-down switch: return to top-down
/// when the frontier holds fewer than `n / BETA` nodes (β = 24, ibid.).
const BETA: usize = 24;

/// Node count below which the hybrid heuristic is not worth its bitset
/// bookkeeping and [`bfs_into`] stays purely top-down.
const HYBRID_MIN_NODES: usize = 256;

/// Reusable scratch space for BFS: the distance row double-buffers as the
/// visited set (a node is visited iff its distance is finite), and the
/// bitset pair backs the bottom-up frontier of the hybrid kernel.
#[derive(Default)]
pub struct BfsWorkspace {
    frontier: Vec<NodeId>,
    next: Vec<NodeId>,
    /// Current frontier as a bitset, one bit per node (bottom-up mode).
    front_bits: Vec<u64>,
    /// Next frontier being built by the bottom-up sweep.
    next_bits: Vec<u64>,
}

impl BfsWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes unit-weight shortest-path distances from `src` into `dist`
/// with the direction-optimizing kernel.
///
/// `dist` is resized to `graph.num_nodes()` and fully overwritten;
/// unreachable nodes get [`INF`]. The result is bit-identical to
/// [`bfs_scalar_into`] — only the wall clock differs. Returns the
/// traversal work the call took (settled nodes, examined adjacency
/// entries).
pub fn bfs_into(
    graph: &Graph,
    src: NodeId,
    dist: &mut Vec<u32>,
    ws: &mut BfsWorkspace,
) -> TraversalWork {
    let mut work = TraversalWork::new();
    let n = graph.num_nodes();
    dist.clear();
    dist.resize(n, INF);
    ws.frontier.clear();
    ws.next.clear();

    dist[src.index()] = 0;
    work.settled += 1;
    ws.frontier.push(src);
    if n < HYBRID_MIN_NODES {
        top_down(graph, dist, ws, &mut work);
        return work;
    }

    // Split the workspace into disjoint field borrows so the traversal
    // closures can mutate one buffer while another is being iterated.
    let BfsWorkspace {
        frontier,
        next,
        front_bits,
        next_bits,
    } = ws;

    let total_arcs = graph.num_arcs();
    let mut frontier_edges = graph.degree(src);
    let mut remaining_edges = total_arcs - frontier_edges;
    let mut frontier_len = 1usize;
    let words = n.div_ceil(64);
    let mut bottom_up = false;
    let mut level: u32 = 0;

    while frontier_len > 0 {
        level += 1;
        if !bottom_up && frontier_edges * ALPHA > remaining_edges {
            // Frontier is edge-heavy: scanning unvisited nodes for a parent
            // is cheaper than expanding the frontier's adjacency.
            front_bits.clear();
            front_bits.resize(words, 0);
            for &u in frontier.iter() {
                front_bits[u.index() >> 6] |= 1u64 << (u.index() & 63);
            }
            bottom_up = true;
        } else if bottom_up && frontier_len * BETA < n {
            // Frontier thinned out again: back to top-down.
            frontier.clear();
            for (w, &word) in front_bits.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    frontier.push(NodeId::new((w << 6) | b));
                    bits &= bits - 1;
                }
            }
            bottom_up = false;
        }

        frontier_len = 0;
        frontier_edges = 0;
        if bottom_up {
            next_bits.clear();
            next_bits.resize(words, 0);
            for (v, d) in dist.iter_mut().enumerate() {
                if *d != INF {
                    continue;
                }
                // Probe this unvisited node's adjacency for a frontier
                // parent, counting every probe as one examined entry.
                let mut has_parent = false;
                for &u in graph.neighbors(NodeId::new(v)) {
                    work.relaxed += 1;
                    if front_bits[u.index() >> 6] & (1u64 << (u.index() & 63)) != 0 {
                        has_parent = true;
                        break;
                    }
                }
                if has_parent {
                    *d = level;
                    work.settled += 1;
                    next_bits[v >> 6] |= 1u64 << (v & 63);
                    frontier_len += 1;
                    let deg = graph.degree(NodeId::new(v));
                    frontier_edges += deg;
                    remaining_edges -= deg;
                }
            }
            std::mem::swap(front_bits, next_bits);
        } else {
            next.clear();
            for &u in frontier.iter() {
                for &v in graph.neighbors(u) {
                    work.relaxed += 1;
                    if dist[v.index()] == INF {
                        dist[v.index()] = level;
                        work.settled += 1;
                        next.push(v);
                        let deg = graph.degree(v);
                        frontier_edges += deg;
                        remaining_edges -= deg;
                    }
                }
            }
            frontier_len = next.len();
            std::mem::swap(frontier, next);
        }
    }
    work
}

/// The purely top-down level expansion over an already-seeded workspace
/// frontier (shared by the small-graph path and [`bfs_scalar_into`]).
fn top_down(graph: &Graph, dist: &mut [u32], ws: &mut BfsWorkspace, work: &mut TraversalWork) {
    let BfsWorkspace { frontier, next, .. } = ws;
    let mut level: u32 = 0;
    while !frontier.is_empty() {
        level += 1;
        for &u in frontier.iter() {
            for &v in graph.neighbors(u) {
                work.relaxed += 1;
                if dist[v.index()] == INF {
                    dist[v.index()] = level;
                    work.settled += 1;
                    next.push(v);
                }
            }
        }
        std::mem::swap(frontier, next);
        next.clear();
    }
}

/// The scalar (always top-down) reference kernel. Same output as
/// [`bfs_into`]; the equivalence and conformance tests check every
/// production kernel against it. Returns the traversal work the call took.
pub fn bfs_scalar_into(
    graph: &Graph,
    src: NodeId,
    dist: &mut Vec<u32>,
    ws: &mut BfsWorkspace,
) -> TraversalWork {
    let mut work = TraversalWork::new();
    let n = graph.num_nodes();
    dist.clear();
    dist.resize(n, INF);
    ws.frontier.clear();
    ws.next.clear();
    dist[src.index()] = 0;
    work.settled += 1;
    ws.frontier.push(src);
    top_down(graph, dist, ws, &mut work);
    work
}

/// Allocating convenience wrapper around [`bfs_into`].
pub fn bfs(graph: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = Vec::new();
    let mut ws = BfsWorkspace::new();
    bfs_into(graph, src, &mut dist, &mut ws);
    dist
}

/// BFS that stops once all nodes within `max_depth` hops are settled,
/// writing into a caller-provided row and workspace.
///
/// Distances beyond `max_depth` are left at [`INF`]. Bounded probes have
/// small frontiers by construction, so this stays top-down.
pub fn bfs_bounded_into(
    graph: &Graph,
    src: NodeId,
    max_depth: u32,
    dist: &mut Vec<u32>,
    ws: &mut BfsWorkspace,
) {
    let n = graph.num_nodes();
    dist.clear();
    dist.resize(n, INF);
    let BfsWorkspace { frontier, next, .. } = ws;
    frontier.clear();
    next.clear();
    dist[src.index()] = 0;
    frontier.push(src);
    let mut level = 0;
    while !frontier.is_empty() && level < max_depth {
        level += 1;
        for &u in frontier.iter() {
            for &v in graph.neighbors(u) {
                if dist[v.index()] == INF {
                    dist[v.index()] = level;
                    next.push(v);
                }
            }
        }
        std::mem::swap(frontier, next);
        next.clear();
    }
}

/// Allocating convenience wrapper around [`bfs_bounded_into`]. Used by
/// bounded neighborhood probes (e.g. the Selective Expansion variant of
/// the Incidence baseline).
pub fn bfs_bounded(graph: &Graph, src: NodeId, max_depth: u32) -> Vec<u32> {
    let mut dist = Vec::new();
    let mut ws = BfsWorkspace::new();
    bfs_bounded_into(graph, src, max_depth, &mut dist, &mut ws);
    dist
}

/// Returns the farthest node from `src` (smallest id breaks ties) and its
/// distance, considering only reachable nodes, reusing the caller's row
/// and workspace. Building block of the double-sweep diameter bound and
/// the greedy dispersion selectors.
pub fn farthest_node_into(
    graph: &Graph,
    src: NodeId,
    dist: &mut Vec<u32>,
    ws: &mut BfsWorkspace,
) -> (NodeId, u32) {
    bfs_into(graph, src, dist, ws);
    let mut best = (src, 0u32);
    for (i, &d) in dist.iter().enumerate() {
        if d != INF && d > best.1 {
            best = (NodeId::new(i), d);
        }
    }
    best
}

/// Allocating convenience wrapper around [`farthest_node_into`].
pub fn farthest_node(graph: &Graph, src: NodeId) -> (NodeId, u32) {
    let mut dist = Vec::new();
    let mut ws = BfsWorkspace::new();
    farthest_node_into(graph, src, &mut dist, &mut ws)
}

/// Computes the eccentricity of `src` (max finite distance from it),
/// reusing the caller's row and workspace.
pub fn eccentricity_into(
    graph: &Graph,
    src: NodeId,
    dist: &mut Vec<u32>,
    ws: &mut BfsWorkspace,
) -> u32 {
    farthest_node_into(graph, src, dist, ws).1
}

/// Allocating convenience wrapper around [`eccentricity_into`].
pub fn eccentricity(graph: &Graph, src: NodeId) -> u32 {
    let mut dist = Vec::new();
    let mut ws = BfsWorkspace::new();
    eccentricity_into(graph, src, &mut dist, &mut ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn path5() -> Graph {
        graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn bfs_on_path() {
        let g = path5();
        assert_eq!(bfs(&g, NodeId(0)), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs(&g, NodeId(2)), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_disconnected() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs(&g, NodeId(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], INF);
        assert_eq!(d[3], INF);
    }

    #[test]
    fn workspace_reuse_gives_same_results() {
        let g = path5();
        let mut ws = BfsWorkspace::new();
        let mut dist = Vec::new();
        bfs_into(&g, NodeId(0), &mut dist, &mut ws);
        let first = dist.clone();
        bfs_into(&g, NodeId(4), &mut dist, &mut ws);
        assert_eq!(dist, vec![4, 3, 2, 1, 0]);
        bfs_into(&g, NodeId(0), &mut dist, &mut ws);
        assert_eq!(dist, first);
    }

    #[test]
    fn hybrid_matches_scalar_above_cutoff() {
        // A graph large and dense enough to actually trigger the bottom-up
        // switch: two hub-and-spoke stars bridged by an edge.
        let n = 2 * HYBRID_MIN_NODES as u32;
        let mut edges: Vec<(u32, u32)> = (1..n / 2).map(|i| (0, i)).collect();
        edges.extend((n / 2 + 1..n).map(|i| (n / 2, i)));
        edges.push((0, n / 2));
        let g = graph_from_edges(n as usize, &edges);
        let mut ws = BfsWorkspace::new();
        let (mut hybrid, mut scalar) = (Vec::new(), Vec::new());
        for src in [0u32, 1, n / 2, n - 1] {
            bfs_into(&g, NodeId(src), &mut hybrid, &mut ws);
            bfs_scalar_into(&g, NodeId(src), &mut scalar, &mut ws);
            assert_eq!(hybrid, scalar, "src {src}");
        }
    }

    #[test]
    fn hybrid_matches_scalar_on_disconnected_large_graph() {
        // Hub component + a far path component + isolated nodes; the hub
        // expansion crosses the direction switch while whole components
        // stay unreachable.
        let n = 600u32;
        let mut edges: Vec<(u32, u32)> = (1..400).map(|i| (0, i)).collect();
        edges.extend((400..500 - 1).map(|i| (i, i + 1)));
        let g = graph_from_edges(n as usize, &edges);
        let mut ws = BfsWorkspace::new();
        let (mut hybrid, mut scalar) = (Vec::new(), Vec::new());
        for src in [0u32, 450, 599] {
            bfs_into(&g, NodeId(src), &mut hybrid, &mut ws);
            bfs_scalar_into(&g, NodeId(src), &mut scalar, &mut ws);
            assert_eq!(hybrid, scalar, "src {src}");
        }
    }

    #[test]
    fn bounded_bfs_truncates() {
        let g = path5();
        let d = bfs_bounded(&g, NodeId(0), 2);
        assert_eq!(d, vec![0, 1, 2, INF, INF]);
        let full = bfs_bounded(&g, NodeId(0), 100);
        assert_eq!(full, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bounded_into_reuses_buffers() {
        let g = path5();
        let mut ws = BfsWorkspace::new();
        let mut dist = Vec::new();
        bfs_bounded_into(&g, NodeId(0), 2, &mut dist, &mut ws);
        assert_eq!(dist, vec![0, 1, 2, INF, INF]);
        bfs_bounded_into(&g, NodeId(4), 1, &mut dist, &mut ws);
        assert_eq!(dist, vec![INF, INF, INF, 1, 0]);
    }

    #[test]
    fn farthest_and_eccentricity() {
        let g = path5();
        assert_eq!(farthest_node(&g, NodeId(0)), (NodeId(4), 4));
        assert_eq!(eccentricity(&g, NodeId(2)), 2);
        // Isolated source: eccentricity 0, farthest is itself.
        let g2 = graph_from_edges(3, &[(1, 2)]);
        assert_eq!(farthest_node(&g2, NodeId(0)), (NodeId(0), 0));
        assert_eq!(eccentricity(&g2, NodeId(0)), 0);
    }

    #[test]
    fn farthest_into_shares_workspace() {
        let g = path5();
        let mut ws = BfsWorkspace::new();
        let mut dist = Vec::new();
        let (far, d) = farthest_node_into(&g, NodeId(0), &mut dist, &mut ws);
        assert_eq!((far, d), (NodeId(4), 4));
        assert_eq!(eccentricity_into(&g, far, &mut dist, &mut ws), 4);
    }

    #[test]
    fn bfs_single_node_graph() {
        let g = graph_from_edges(1, &[]);
        assert_eq!(bfs(&g, NodeId(0)), vec![0]);
    }

    #[test]
    fn kernels_report_their_work() {
        let g = path5();
        let mut ws = BfsWorkspace::new();
        let mut dist = Vec::new();
        // Every node settles once; every adjacency entry is examined once.
        let hybrid = bfs_into(&g, NodeId(0), &mut dist, &mut ws);
        let scalar = bfs_scalar_into(&g, NodeId(0), &mut dist, &mut ws);
        let expected = TraversalWork {
            settled: 5,
            relaxed: 8,
        };
        assert_eq!(hybrid, expected);
        assert_eq!(scalar, expected);
    }
}
