//! Dijkstra single-source shortest paths for weighted graphs.
//!
//! The paper considers "undirected (weighted) graphs" in its problem
//! definition even though the evaluation is unweighted; the SSSP layer of
//! `cp-core` dispatches here whenever a snapshot carries edge weights, so
//! the full pipeline works on weighted inputs too.

use crate::bfs::TraversalWork;
use crate::graph::{Graph, NodeId};
use crate::INF;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes weighted shortest-path distances from `src`.
///
/// Distances are `u32` like the BFS path; the caller is responsible for
/// keeping total path weights below [`INF`] (the routine saturates instead
/// of overflowing, so a saturated path is simply treated as unreachable-ish
/// long but never wraps).
pub fn dijkstra(graph: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![INF; graph.num_nodes()];
    dijkstra_into(graph, src, &mut dist);
    dist
}

/// In-place variant of [`dijkstra`]; `dist` is resized and overwritten.
/// Returns the traversal work the call took (settled nodes, relaxed
/// edges).
pub fn dijkstra_into(graph: &Graph, src: NodeId, dist: &mut Vec<u32>) -> TraversalWork {
    let mut work = TraversalWork::new();
    dist.clear();
    dist.resize(graph.num_nodes(), INF);
    let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0, src)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue; // stale entry
        }
        work.settled += 1;
        for (v, e) in graph.neighbors_with_edge_ids(u) {
            work.relaxed += 1;
            let nd = d.saturating_add(graph.edge_weight(e)).min(INF - 1);
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::builder::{graph_from_edges, GraphBuilder};

    #[test]
    fn weighted_path() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(NodeId(0), NodeId(1), 5);
        b.add_weighted_edge(NodeId(1), NodeId(2), 1);
        b.add_weighted_edge(NodeId(0), NodeId(2), 10);
        b.add_weighted_edge(NodeId(2), NodeId(3), 2);
        let g = b.build();
        let d = dijkstra(&g, NodeId(0));
        assert_eq!(d, vec![0, 5, 6, 8]);
    }

    #[test]
    fn unreachable_is_inf() {
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(NodeId(0), NodeId(1), 3);
        let g = b.build();
        let d = dijkstra(&g, NodeId(0));
        assert_eq!(d[2], INF);
    }

    #[test]
    fn matches_bfs_on_unit_weights() {
        // A small fixed graph where all weights are 1: Dijkstra == BFS.
        let g = graph_from_edges(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (1, 5),
                (5, 6),
            ],
        );
        for s in 0..7 {
            assert_eq!(dijkstra(&g, NodeId(s)), bfs(&g, NodeId(s)), "src {s}");
        }
    }

    #[test]
    fn into_reports_work() {
        let mut b = GraphBuilder::new(4);
        b.add_weighted_edge(NodeId(0), NodeId(1), 5);
        b.add_weighted_edge(NodeId(1), NodeId(2), 1);
        b.add_weighted_edge(NodeId(0), NodeId(2), 10);
        b.add_weighted_edge(NodeId(2), NodeId(3), 2);
        let g = b.build();
        let mut dist = Vec::new();
        let work = dijkstra_into(&g, NodeId(0), &mut dist);
        assert_eq!(dist, dijkstra(&g, NodeId(0)));
        assert_eq!(work.settled, 4);
        assert_eq!(work.relaxed, 8);
    }

    #[test]
    fn stale_heap_entries_skipped() {
        // Triangle with a long direct edge forces a decrease-key situation.
        let mut b = GraphBuilder::new(3);
        b.add_weighted_edge(NodeId(0), NodeId(2), 100);
        b.add_weighted_edge(NodeId(0), NodeId(1), 1);
        b.add_weighted_edge(NodeId(1), NodeId(2), 1);
        let g = b.build();
        assert_eq!(dijkstra(&g, NodeId(0)), vec![0, 1, 2]);
    }
}
