//! Bit-parallel multi-source BFS (MS-BFS).
//!
//! The budget oracle's batched prefetch fixes its admitted source set
//! *before* any traversal runs, which is exactly the shape that lets many
//! sources share one sweep of the graph (Then et al., "The More the
//! Merrier: Efficient Multi-Source BFS Processing", VLDB 2014). Each node
//! carries one `u64` word per state — `seen` (discovered by source *b*) and
//! `visit` (in source *b*'s current frontier) — so one adjacency scan
//! advances up to [`WAVE_WIDTH`] BFS traversals at once:
//!
//! ```text
//! new = visit[u] & !seen[v]   // sources reaching v through u for the first time
//! ```
//!
//! All sources advance level-synchronously, so each bit is set exactly once
//! and the written distance is the true BFS level — the rows are
//! bit-identical to [`crate::bfs::bfs`] run per source, regardless of
//! traversal order within a level. That property is what lets the oracle
//! swap this kernel in without disturbing the paper's determinism contract
//! (one wave still *charges* one SSSP per source; see `cp-core`).

use crate::bfs::TraversalWork;
use crate::graph::{Graph, NodeId};
use crate::INF;

/// Maximum sources per wave: one bit per source in a `u64` word.
pub const WAVE_WIDTH: usize = 64;

/// Reusable scratch space for [`msbfs_into`]: three words per node plus the
/// frontier queues. Buffers grow on first use and are recycled across waves.
#[derive(Default)]
pub struct MsBfsWorkspace {
    /// `seen[v]` bit *b* set ⇔ source *b* has discovered `v`.
    seen: Vec<u64>,
    /// `visit[v]` bit *b* set ⇔ `v` is in source *b*'s current frontier.
    visit: Vec<u64>,
    /// Next-level visit words being accumulated.
    next: Vec<u64>,
    /// Nodes with a non-zero `visit` word this level.
    frontier: Vec<u32>,
    /// Nodes with a non-zero `next` word (next level's frontier).
    next_frontier: Vec<u32>,
}

impl MsBfsWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Advances up to [`WAVE_WIDTH`] BFS traversals in one graph sweep, writing
/// `rows[b]` = the distance row of `sources[b]`.
///
/// Each row is resized to `graph.num_nodes()` and fully overwritten;
/// unreachable nodes get [`INF`]. Duplicate and isolated sources are fine
/// (duplicates simply share every discovery). Returns the traversal work:
/// settled `(source, node)` pairs and adjacency entries scanned (one per
/// edge per sweep — the shared sweep is exactly what makes a wave cheaper
/// than per-source BFS).
///
/// # Panics
/// Panics if `sources.len() > WAVE_WIDTH` or `rows.len() != sources.len()`.
pub fn msbfs_into(
    graph: &Graph,
    sources: &[NodeId],
    rows: &mut [Vec<u32>],
    ws: &mut MsBfsWorkspace,
) -> TraversalWork {
    let mut work = TraversalWork::new();
    assert!(
        sources.len() <= WAVE_WIDTH,
        "wave of {} sources exceeds WAVE_WIDTH={WAVE_WIDTH}",
        sources.len()
    );
    assert_eq!(sources.len(), rows.len(), "one row per source");
    let n = graph.num_nodes();
    for row in rows.iter_mut() {
        row.clear();
        row.resize(n, INF);
    }
    // Split the workspace into disjoint field borrows so the adjacency
    // closure can mutate the wave state while the frontier is iterated.
    let MsBfsWorkspace {
        seen,
        visit,
        next,
        frontier,
        next_frontier,
    } = ws;
    seen.clear();
    seen.resize(n, 0);
    visit.clear();
    visit.resize(n, 0);
    next.clear();
    next.resize(n, 0);
    frontier.clear();
    next_frontier.clear();

    for (b, &s) in sources.iter().enumerate() {
        rows[b][s.index()] = 0;
        if visit[s.index()] == 0 {
            frontier.push(s.0);
        }
        seen[s.index()] |= 1u64 << b;
        visit[s.index()] |= 1u64 << b;
    }
    work.settled += sources.len() as u64;

    let mut level: u32 = 0;
    while !frontier.is_empty() {
        level += 1;
        for &uf in frontier.iter() {
            let u = uf as usize;
            let vis = visit[u];
            for &v in graph.neighbors(NodeId::new(u)) {
                let v = v.index();
                work.relaxed += 1;
                let new = vis & !seen[v];
                if new != 0 {
                    if next[v] == 0 {
                        next_frontier.push(v as u32);
                    }
                    next[v] |= new;
                    seen[v] |= new;
                    work.settled += u64::from(new.count_ones());
                    let mut bits = new;
                    while bits != 0 {
                        rows[bits.trailing_zeros() as usize][v] = level;
                        bits &= bits - 1;
                    }
                }
            }
        }
        // Roll the wave forward: retire this level's visit words, promote
        // the accumulated next words. A node can sit in both frontiers
        // (different sources reach it at different levels), so clear first.
        for &uf in frontier.iter() {
            visit[uf as usize] = 0;
        }
        for &vf in next_frontier.iter() {
            let v = vf as usize;
            visit[v] = next[v];
            next[v] = 0;
        }
        std::mem::swap(frontier, next_frontier);
        next_frontier.clear();
    }
    work
}

/// Allocating convenience wrapper: runs [`msbfs_into`] over `sources` in
/// chunks of [`WAVE_WIDTH`], returning one distance row per source (any
/// number of sources).
pub fn msbfs(graph: &Graph, sources: &[NodeId]) -> Vec<Vec<u32>> {
    let mut ws = MsBfsWorkspace::new();
    let mut rows: Vec<Vec<u32>> = (0..sources.len()).map(|_| Vec::new()).collect();
    for (chunk, out) in sources.chunks(WAVE_WIDTH).zip(rows.chunks_mut(WAVE_WIDTH)) {
        msbfs_into(graph, chunk, out, &mut ws);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use crate::builder::graph_from_edges;

    fn sample() -> Graph {
        graph_from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (6, 7)])
    }

    #[test]
    fn matches_per_source_bfs() {
        let g = sample();
        let sources: Vec<NodeId> = g.nodes().collect();
        let rows = msbfs(&g, &sources);
        for (b, &s) in sources.iter().enumerate() {
            assert_eq!(rows[b], bfs(&g, s), "source {s}");
        }
    }

    #[test]
    fn duplicate_and_isolated_sources() {
        let g = graph_from_edges(5, &[(0, 1), (1, 2)]); // 3, 4 isolated
        let sources = [NodeId(0), NodeId(3), NodeId(0), NodeId(4)];
        let rows = msbfs(&g, &sources);
        assert_eq!(rows[0], rows[2]);
        assert_eq!(rows[0], bfs(&g, NodeId(0)));
        assert_eq!(rows[1], bfs(&g, NodeId(3)));
        assert_eq!(rows[3], bfs(&g, NodeId(4)));
    }

    #[test]
    fn workspace_reuse_across_waves() {
        let g = sample();
        let mut ws = MsBfsWorkspace::new();
        let mut rows = vec![Vec::new(), Vec::new()];
        msbfs_into(&g, &[NodeId(0), NodeId(6)], &mut rows, &mut ws);
        assert_eq!(rows[0], bfs(&g, NodeId(0)));
        assert_eq!(rows[1], bfs(&g, NodeId(6)));
        msbfs_into(&g, &[NodeId(5), NodeId(7)], &mut rows, &mut ws);
        assert_eq!(rows[0], bfs(&g, NodeId(5)));
        assert_eq!(rows[1], bfs(&g, NodeId(7)));
    }

    #[test]
    fn empty_wave_is_noop() {
        let g = sample();
        assert!(msbfs(&g, &[]).is_empty());
    }

    #[test]
    fn chunking_beyond_wave_width() {
        // 70 sources on a ring: two waves, all rows still exact.
        let n = 70u32;
        let edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        let g = graph_from_edges(n as usize, &edges);
        let sources: Vec<NodeId> = (0..n).map(NodeId).collect();
        let rows = msbfs(&g, &sources);
        assert_eq!(rows.len(), 70);
        for (b, &s) in sources.iter().enumerate() {
            assert_eq!(rows[b], bfs(&g, s), "source {s}");
        }
    }

    #[test]
    fn wave_reports_shared_sweep_work() {
        // Path 0-1-2: two sources settle 3 nodes each, but the wave scans
        // each frontier node's adjacency once per level it is live in.
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let mut rows = vec![Vec::new(), Vec::new()];
        let work = msbfs_into(
            &g,
            &[NodeId(0), NodeId(2)],
            &mut rows,
            &mut MsBfsWorkspace::new(),
        );
        assert_eq!(rows[0], bfs(&g, NodeId(0)));
        assert_eq!(rows[1], bfs(&g, NodeId(2)));
        assert_eq!(work.settled, 6);
        assert!(work.relaxed > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds WAVE_WIDTH")]
    fn oversized_wave_panics() {
        let g = sample();
        let sources = vec![NodeId(0); WAVE_WIDTH + 1];
        let mut rows = vec![Vec::new(); WAVE_WIDTH + 1];
        msbfs_into(&g, &sources, &mut rows, &mut MsBfsWorkspace::new());
    }
}
