//! Brandes edge betweenness, exact and pivot-sampled, for requested edges.
//!
//! The Incidence baseline of Papadimitriou et al. ranks active nodes by the
//! *importance* of their new edges — an estimate of edge betweenness. The
//! paper grants that baseline the *actual* edge betweenness ("giving an
//! advantage to the Incidence algorithm"), so we implement exact Brandes;
//! the pivot-sampled variant is provided for larger graphs and for the
//! baseline's original shortest-path-tree-sampling spirit.
//!
//! Distances come in bit-parallel waves ([`msbfs_into`]). Each source's
//! nodes are bucketed by level, and σ and the dependencies are *pulled*
//! over CSR through a mask that is non-zero only on the adjacent level, so
//! every neighbour scan is a branch-free gather-sum. The exact variant
//! folds degree-1 vertices (Sariyüce et al., SDM 2013): a leaf `l` whose
//! neighbour `p` has degree > 1 sees every edge but `{l, p}` as `p` does, so
//! it is no source and `p` counts `1 + #leaves(p)` times, while `{l, p}`
//! carries `|component| − 1` pairs. Sources are cut into a fixed number of
//! blocks, summed in block order, so scores are bit-identical at any pool
//! width. Unweighted graphs only, as in the paper's evaluation.

use crate::components::components;
use crate::graph::{Graph, NodeId};
use crate::msbfs::{msbfs_into, MsBfsWorkspace, WAVE_WIDTH};
use crate::INF;

/// Source blocks per call; fixed, so the summation order is too.
const BLOCKS: usize = 32;

/// Exact betweenness of the requested edge ids, in request order: sums
/// over unordered source/target pairs, each pair `{s, t}` contributing its
/// dependency once.
pub fn betweenness_exact(graph: &Graph, edges: &[u32], threads: usize) -> Vec<f64> {
    let degree = |v: NodeId| graph.degree(v);
    let folded = |v: NodeId| degree(v) == 1 && degree(graph.neighbors(v)[0]) > 1;
    // Halved: each unordered pair is reached from both of its ends.
    let mut weight = vec![0.5; graph.num_nodes()];
    for v in graph.nodes().filter(|&v| folded(v)) {
        weight[graph.neighbors(v)[0].index()] += 0.5;
    }
    let sources: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| degree(v) > 0 && !folded(v))
        .collect();
    let ends = requested_ends(graph, edges);
    let mut scores = run_brandes(graph, &sources, &weight, &ends, threads);
    let is_leaf_edge = |&(u, v): &(NodeId, NodeId)| degree(u) == 1 || degree(v) == 1;
    let comps = components(graph);
    for (score, uv) in scores.iter_mut().zip(&ends) {
        if is_leaf_edge(uv) {
            *score = (comps.sizes[comps.label(uv.0) as usize] - 1) as f64;
        }
    }
    scores
}

/// Pivot-sampled betweenness of the requested edge ids: accumulates from
/// the given pivots (no folding) and scales by `n / |pivots|` to estimate
/// the exact scores.
pub fn betweenness_sampled(
    g: &Graph,
    pivots: &[NodeId],
    edges: &[u32],
    threads: usize,
) -> Vec<f64> {
    let weight = 0.5 * g.num_nodes() as f64 / pivots.len().max(1) as f64;
    let ends = requested_ends(g, edges);
    run_brandes(g, pivots, &vec![weight; g.num_nodes()], &ends, threads)
}

fn requested_ends(graph: &Graph, edges: &[u32]) -> Vec<(NodeId, NodeId)> {
    let table = graph.edge_endpoints_vec();
    edges.iter().map(|&e| table[e as usize]).collect()
}

/// Sums `weight[s] ×` the directed dependencies of every source `s` on
/// every requested edge.
fn run_brandes(
    graph: &Graph,
    sources: &[NodeId],
    weight: &[f64],
    ends: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<f64> {
    assert!(
        !graph.is_weighted(),
        "betweenness supports unweighted graphs only"
    );
    let waves = sources.len().div_ceil(WAVE_WIDTH);
    let blocks = BLOCKS.min(waves);
    let mut partials: Vec<Vec<f64>> = vec![Vec::new(); blocks];
    cp_exec::global().run_collect(
        &mut partials,
        threads,
        |k, acc, ctx| {
            let scratch = ctx.scratch.get_or(BrandesScratch::default);
            acc.resize(ends.len(), 0.0);
            let first = k * waves / blocks * WAVE_WIDTH;
            let last = ((k + 1) * waves / blocks * WAVE_WIDTH).min(sources.len());
            for start in (first..last).step_by(WAVE_WIDTH) {
                let wave = &sources[start..(start + WAVE_WIDTH).min(last)];
                scratch.wave(graph, wave, weight, ends, acc);
            }
        },
        // A wave of rows is 64 × n words per lane: release it with the
        // call rather than let it sit under every later peak.
        |_lane, scratch| {
            if let Some(s) = scratch.get_if::<BrandesScratch>() {
                *s = BrandesScratch::default();
            }
        },
    );
    let mut scores = vec![0.0; ends.len()];
    for partial in &partials {
        for (score, x) in scores.iter_mut().zip(partial) {
            *score += x;
        }
    }
    scores
}

/// Per-worker Brandes scratch, kept in the executor's
/// [`cp_exec::WorkerScratch`]: one wave of distance rows plus O(n) arrays.
#[derive(Default)]
struct BrandesScratch {
    bfs: MsBfsWorkspace,
    rows: Vec<Vec<u32>>,
    /// The reached nodes of one source, bucketed by level.
    order: Vec<u32>,
    /// Level `d` is `order[starts[d]..starts[d + 1]]`; one empty level last.
    starts: Vec<u32>,
    sigma: Vec<f64>,
    /// `(1 + δ[v]) / σ[v]`: the dependency a child passes up per path.
    coef: Vec<f64>,
    /// σ (forward) or `coef` (backward) on one level, zero elsewhere.
    mask: Vec<f64>,
}

impl BrandesScratch {
    /// Accumulates one wave of sources into `acc` (one entry per `ends`).
    fn wave(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        weight: &[f64],
        ends: &[(NodeId, NodeId)],
        acc: &mut [f64],
    ) {
        let n = g.num_nodes();
        let mut rows = std::mem::take(&mut self.rows);
        rows.resize_with(sources.len(), Vec::new);
        msbfs_into(g, sources, &mut rows, &mut self.bfs);
        if self.mask.len() != n {
            (self.sigma, self.coef, self.mask) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        }
        let (offsets, targets) = (g.arc_offsets(), g.arc_targets());
        let gather = |v: usize, mask: &[f64]| -> f64 {
            let mut sum = 0.0;
            for u in &targets[offsets[v]..offsets[v + 1]] {
                sum += mask[u.0 as usize];
            }
            sum
        };
        for (dist, s) in rows.iter().zip(sources) {
            bucket_by_level(dist, &mut self.order, &mut self.starts);
            let (sigma, coef, mask) = (&mut self.sigma, &mut self.coef, &mut self.mask);
            let (order, starts) = (&self.order, &self.starts);
            let level = |d: usize| {
                order[starts[d] as usize..starts[d + 1] as usize]
                    .iter()
                    .map(|&v| v as usize)
            };
            let levels = starts.len() - 2;
            sigma[s.index()] = 1.0;
            for d in 1..levels {
                level(d - 1).for_each(|u| mask[u] = sigma[u]);
                level(d).for_each(|v| sigma[v] = gather(v, mask));
                level(d - 1).for_each(|u| mask[u] = 0.0);
            }
            for d in (1..levels).rev() {
                level(d + 1).for_each(|w| mask[w] = coef[w]);
                level(d).for_each(|v| coef[v] = (1.0 + sigma[v] * gather(v, mask)) / sigma[v]);
                level(d + 1).for_each(|w| mask[w] = 0.0);
            }
            let w = weight[s.index()];
            for (x, &(a, b)) in acc.iter_mut().zip(ends) {
                let (a, b) = (a.index(), b.index());
                if dist[b] == dist[a].wrapping_add(1) {
                    *x += w * (sigma[a] * coef[b]);
                } else if dist[a] == dist[b].wrapping_add(1) {
                    *x += w * (sigma[b] * coef[a]);
                }
            }
        }
        self.rows = rows;
    }
}

/// Counting-sorts the reached nodes of `dist` by level into `order`, with
/// level `d` at `order[starts[d]..starts[d + 1]]` and one empty level last.
fn bucket_by_level(dist: &[u32], order: &mut Vec<u32>, starts: &mut Vec<u32>) {
    // Counts at `d + 2`; after the prefix sum `starts[d + 1]` is level `d`'s
    // first slot, and placing advances it to the level's end.
    starts.clear();
    for &d in dist.iter().filter(|&&d| d != INF) {
        let i = d as usize + 2;
        if i >= starts.len() {
            starts.resize(i + 1, 0);
        }
        starts[i] += 1;
    }
    for i in 1..starts.len() {
        starts[i] += starts[i - 1];
    }
    order.clear();
    order.resize(starts[starts.len() - 1] as usize, 0);
    for (v, &d) in dist.iter().enumerate().filter(|(_, &d)| d != INF) {
        let slot = &mut starts[d as usize + 1];
        order[*slot as usize] = v as u32;
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    fn all_edges(g: &Graph) -> Vec<u32> {
        (0..g.num_edges() as u32).collect()
    }

    /// Edge scores keyed by endpoints.
    fn score(g: &Graph, scores: &[f64], u: u32, v: u32) -> f64 {
        scores[g.edge_id(NodeId(u), NodeId(v)).unwrap() as usize]
    }

    #[test]
    fn path_graph_node_betweenness() {
        // A node's incident edge scores sum to twice its node betweenness
        // plus one per other node of its component. Path 0-1-2-3: node 1
        // lies on pairs {0,2},{0,3}; node 2 on {0,3},{1,3}.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = betweenness_exact(&g, &all_edges(&g), 2);
        for (v, node) in [0.0, 2.0, 2.0, 0.0].into_iter().enumerate() {
            let incident: f64 = g
                .neighbors_with_edge_ids(NodeId::new(v))
                .map(|(_, e)| b[e as usize])
                .sum();
            assert_close(incident, 2.0 * node + 3.0);
        }
    }

    #[test]
    fn path_graph_edge_betweenness() {
        // Edge {0,1} carries pairs {0,1},{0,2},{0,3} = 3; middle edge {1,2}
        // carries {0,2},{0,3},{1,2},{1,3} = 4.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = betweenness_exact(&g, &all_edges(&g), 1);
        assert_close(score(&g, &b, 0, 1), 3.0);
        assert_close(score(&g, &b, 1, 2), 4.0);
        assert_close(score(&g, &b, 2, 3), 3.0);
        // A requested subset, in request order, gets the same scores.
        let middle = g.edge_id(NodeId(1), NodeId(2)).unwrap();
        let first = g.edge_id(NodeId(0), NodeId(1)).unwrap();
        let sub = betweenness_exact(&g, &[middle, first, middle], 2);
        assert_eq!(sub, vec![4.0, 3.0, 4.0]);
    }

    #[test]
    fn star_center_has_all_betweenness() {
        // Every spoke carries its leaf's 4 pairs (1 to the centre + 3
        // leaves); every leaf is folded into the centre.
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let b = betweenness_exact(&g, &all_edges(&g), 2);
        assert_eq!(b, vec![4.0; 4]);
        let pivots: Vec<NodeId> = g.nodes().collect();
        let sampled = betweenness_sampled(&g, &pivots, &all_edges(&g), 2);
        for x in sampled {
            assert_close(x, 4.0);
        }
    }

    #[test]
    fn even_split_on_square() {
        // 4-cycle: each edge carries its own pair plus half of each of the
        // two opposite-corner pairs it can route.
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let b = betweenness_exact(&g, &all_edges(&g), 2);
        for x in b {
            assert_close(x, 2.0);
        }
    }

    #[test]
    fn full_sample_equals_exact() {
        let g = graph_from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6)]);
        let exact = betweenness_exact(&g, &all_edges(&g), 2);
        let pivots: Vec<NodeId> = g.nodes().collect();
        let sampled = betweenness_sampled(&g, &pivots, &all_edges(&g), 2);
        for (a, b) in exact.iter().zip(&sampled) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn empty_pivot_sample() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(
            betweenness_sampled(&g, &[], &all_edges(&g), 2),
            vec![0.0; 2]
        );
        assert!(betweenness_exact(&g, &[], 2).is_empty());
    }

    #[test]
    fn disconnected_components_independent() {
        // Two paths, a K2 and an isolated node: each edge only sees its
        // own component.
        let g = graph_from_edges(9, &[(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)]);
        let b = betweenness_exact(&g, &all_edges(&g), 2);
        for (u, v) in [(0, 1), (1, 2), (3, 4), (4, 5)] {
            assert_close(score(&g, &b, u, v), 2.0);
        }
        assert_close(score(&g, &b, 6, 7), 1.0);
    }
}
