//! The independent pipeline reference shared by the core conformance
//! suites.
//!
//! Rows come from the reference kernels (`bfs_scalar_into` on unweighted
//! graphs, Dijkstra on weighted ones); pairs come from a plain
//! per-element Δ loop over a run's own candidate set, cut by the run's
//! spec. Nothing here touches the oracle, its row cache, repair, the
//! multi-source waves or the blocked Δ-scan, so every configuration of
//! those must reproduce it exactly.

use cp_core::exact::{sort_pairs, ConvergingPair, TopKSpec};
use cp_graph::bfs::{bfs_scalar_into, BfsWorkspace};
use cp_graph::dijkstra::dijkstra;
use cp_graph::{distance_decrease, Graph, NodeId};

/// Distance row of `u` in `g` by the reference kernels.
pub fn reference_row(g: &Graph, u: NodeId, ws: &mut BfsWorkspace) -> Vec<u32> {
    if g.is_weighted() {
        return dijkstra(g, u);
    }
    let mut dist = Vec::new();
    bfs_scalar_into(g, u, &mut dist, ws);
    dist
}

/// The answer a pipeline run over `candidates` must report under `spec`,
/// plus the largest Δ over the candidates' rows: every pair with an
/// endpoint in `candidates` (each pair once), cut by `spec`, canonically
/// sorted. With every node as a candidate this is the exact all-pairs
/// answer.
pub fn reference_pairs(
    g1: &Graph,
    g2: &Graph,
    candidates: &[NodeId],
    spec: &TopKSpec,
) -> (Vec<ConvergingPair>, u32) {
    let mut in_m = vec![false; g1.num_nodes()];
    for &u in candidates {
        in_m[u.index()] = true;
    }
    let mut ws = BfsWorkspace::new();
    let mut pairs = Vec::new();
    let mut delta_max = 0;
    for &u in candidates {
        let d1 = reference_row(g1, u, &mut ws);
        let d2 = reference_row(g2, u, &mut ws);
        for v in 0..d1.len() {
            let Some(delta) = distance_decrease(d1[v], d2[v]) else {
                continue;
            };
            delta_max = delta_max.max(delta);
            // A pair with both endpoints in `M` is reported from its lower
            // endpoint only.
            if delta == 0 || v == u.index() || (in_m[v] && v < u.index()) {
                continue;
            }
            pairs.push(ConvergingPair::new(u, NodeId::new(v), delta));
        }
    }
    let floor = match *spec {
        TopKSpec::Threshold { delta_min } => delta_min.max(1),
        TopKSpec::ThresholdFromMax { slack } => delta_max.saturating_sub(slack).max(1),
        TopKSpec::TopK(_) => 1,
    };
    pairs.retain(|p| p.delta >= floor);
    sort_pairs(&mut pairs);
    if let TopKSpec::TopK(k) = *spec {
        pairs.truncate(k);
    }
    (pairs, delta_max)
}
