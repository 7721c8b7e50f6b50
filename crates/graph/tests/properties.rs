//! Property-based tests for the graph substrate.

use cp_graph::apsp::full_matrix;
use cp_graph::bfs::bfs;
use cp_graph::builder::graph_from_edges;
use cp_graph::components::components;
use cp_graph::diameter::{diameter_double_sweep, diameter_exact};
use cp_graph::dijkstra::dijkstra;
use cp_graph::rowpack::{fits_u16, pack_u16_into, widen_u16_into, RowRef, INF_U16};
use cp_graph::temporal::TemporalGraph;
use cp_graph::{NodeId, INF};
use proptest::prelude::*;

/// Strategy: a random edge list over up to `n` nodes.
fn edge_list(n: u32, max_edges: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..=n).prop_flat_map(move |nodes| {
        let edges = prop::collection::vec((0..nodes, 0..nodes), 0..max_edges);
        (Just(nodes as usize), edges)
    })
}

proptest! {
    #[test]
    fn builder_invariants_hold((n, edges) in edge_list(40, 120)) {
        let g = graph_from_edges(n, &edges);
        prop_assert_eq!(g.check_invariants(), Ok(()));
        // Handshake lemma.
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn bfs_distances_are_symmetric((n, edges) in edge_list(24, 60)) {
        let g = graph_from_edges(n, &edges);
        let matrix = full_matrix(&g, 2);
        for (u, row) in matrix.iter().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                prop_assert_eq!(duv, matrix[v][u], "asymmetry at ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn bfs_satisfies_triangle_inequality_over_edges((n, edges) in edge_list(24, 60)) {
        // For every edge (a, b): |d(s, a) - d(s, b)| <= 1.
        let g = graph_from_edges(n, &edges);
        let dist = bfs(&g, NodeId(0));
        for (a, b) in g.edges() {
            let (da, db) = (dist[a.index()], dist[b.index()]);
            match (da == INF, db == INF) {
                (false, false) => {
                    prop_assert!(da.abs_diff(db) <= 1, "edge ({a}, {b}): {da} vs {db}")
                }
                (true, true) => {}
                _ => prop_assert!(false, "edge spans reachable/unreachable"),
            }
        }
    }

    #[test]
    fn bfs_reachability_matches_components((n, edges) in edge_list(30, 50)) {
        let g = graph_from_edges(n, &edges);
        let comps = components(&g);
        let dist = bfs(&g, NodeId(0));
        for (v, &dv) in dist.iter().enumerate() {
            let same = comps.connected(NodeId(0), NodeId::new(v));
            prop_assert_eq!(dv != INF, same, "node {}", v);
        }
    }

    #[test]
    fn dijkstra_equals_bfs_on_unit_weights((n, edges) in edge_list(24, 60)) {
        let g = graph_from_edges(n, &edges);
        for s in [0usize, n / 2, n - 1] {
            prop_assert_eq!(dijkstra(&g, NodeId::new(s)), bfs(&g, NodeId::new(s)));
        }
    }

    #[test]
    fn double_sweep_is_a_lower_bound((n, edges) in edge_list(24, 60)) {
        let g = graph_from_edges(n, &edges);
        let exact = diameter_exact(&g, 2);
        for s in 0..n.min(5) {
            prop_assert!(diameter_double_sweep(&g, NodeId::new(s)) <= exact);
        }
    }

    #[test]
    fn snapshots_grow_monotonically((n, edges) in edge_list(24, 60)) {
        let pairs: Vec<(NodeId, NodeId)> = edges
            .iter()
            .map(|&(u, v)| (NodeId(u), NodeId(v)))
            .collect();
        let t = TemporalGraph::from_sequence(n, pairs);
        let cuts = [0.0, 0.25, 0.5, 0.75, 1.0];
        for w in cuts.windows(2) {
            let g_small = t.snapshot_at_fraction(w[0]);
            let g_big = t.snapshot_at_fraction(w[1]);
            prop_assert!(g_small.num_edges() <= g_big.num_edges());
            for (u, v) in g_small.edges() {
                prop_assert!(g_big.has_edge(u, v));
            }
        }
    }

    #[test]
    fn distances_never_increase_under_edge_addition((n, edges) in edge_list(20, 50)) {
        prop_assume!(edges.len() >= 2);
        let split = edges.len() / 2;
        let g1 = graph_from_edges(n, &edges[..split]);
        let g2 = graph_from_edges(n, &edges);
        let d1 = bfs(&g1, NodeId(0));
        let d2 = bfs(&g2, NodeId(0));
        for v in 0..n {
            if d1[v] != INF {
                prop_assert!(d2[v] <= d1[v], "distance to {} grew", v);
            }
        }
    }

    #[test]
    fn u16_row_packing_roundtrips(raw in prop::collection::vec((0u32..=u32::from(u16::MAX - 1), any::<bool>()), 0..200)) {
        // Any mix of packable finite distances (0..=65534, including the
        // sentinel boundary 65534) and INF holes survives pack → widen.
        let row: Vec<u32> = raw
            .iter()
            .map(|&(d, inf)| if inf { INF } else { d })
            .collect();
        let mut packed = Vec::new();
        pack_u16_into(&row, &mut packed);
        let mut widened = Vec::new();
        widen_u16_into(&packed, &mut widened);
        prop_assert_eq!(&widened, &row);
        // Element reads through RowRef agree at both widths, sentinel
        // mapping included.
        let r16 = RowRef::U16(&packed);
        let r32 = RowRef::U32(&row);
        prop_assert_eq!(r16.len(), r32.len());
        for i in 0..row.len() {
            prop_assert_eq!(r16.get(i), r32.get(i), "element {}", i);
            prop_assert_eq!(packed[i] == INF_U16, row[i] == INF);
        }
        prop_assert_eq!(r16.to_u32_vec(), row);
    }

    #[test]
    fn bfs_rows_of_small_graphs_always_pack((n, edges) in edge_list(40, 120)) {
        // Every unweighted graph small enough for u16 ids packs: real BFS
        // rows never reach the sentinel.
        let g = graph_from_edges(n, &edges);
        prop_assert!(fits_u16(&g));
        let row = bfs(&g, NodeId(0));
        let mut packed = Vec::new();
        pack_u16_into(&row, &mut packed);
        let mut widened = Vec::new();
        widen_u16_into(&packed, &mut widened);
        prop_assert_eq!(widened, row);
    }

    #[test]
    fn connected_pair_counts_are_consistent((n, edges) in edge_list(30, 40)) {
        let g = graph_from_edges(n, &edges);
        let comps = components(&g);
        let connected = comps.connected_pairs();
        let not_connected = comps.not_connected_active_pairs(&g);
        let active = g.num_active_nodes() as u64;
        // connected_pairs counts ALL nodes including isolated singletons
        // (each contributing 0), so the two partitions of active pairs add
        // up when no isolated node has a neighbor.
        prop_assert!(connected + not_connected >= active * active.saturating_sub(1) / 2);
    }
}

/// Brute-force node betweenness by enumerating shortest paths via BFS
/// layers (exponential in the worst case, fine at test sizes).
fn brute_betweenness(g: &cp_graph::Graph) -> Vec<f64> {
    let n = g.num_nodes();
    let mut score = vec![0.0f64; n];
    // For every ordered pair (s, t), count shortest paths through each node.
    for s in 0..n {
        let ds = bfs(g, NodeId::new(s));
        for t in 0..n {
            if t == s || ds[t] == INF {
                continue;
            }
            // sigma[v]: number of shortest s->v paths, via BFS order DP.
            let mut order: Vec<usize> = (0..n).filter(|&v| ds[v] != INF).collect();
            order.sort_by_key(|&v| ds[v]);
            let mut sigma = vec![0.0f64; n];
            sigma[s] = 1.0;
            for &v in &order {
                if v == s {
                    continue;
                }
                for &w in g.neighbors(NodeId::new(v)) {
                    if ds[w.index()] + 1 == ds[v] {
                        sigma[v] += sigma[w.index()];
                    }
                }
            }
            // paths through x: sigma_sx * sigma_xt / sigma_st, for x interior.
            let dt = bfs(g, NodeId::new(t));
            let mut sigma_t = vec![0.0f64; n];
            sigma_t[t] = 1.0;
            let mut order_t: Vec<usize> = (0..n).filter(|&v| dt[v] != INF).collect();
            order_t.sort_by_key(|&v| dt[v]);
            for &v in &order_t {
                if v == t {
                    continue;
                }
                for &w in g.neighbors(NodeId::new(v)) {
                    if dt[w.index()] + 1 == dt[v] {
                        sigma_t[v] += sigma_t[w.index()];
                    }
                }
            }
            for x in 0..n {
                if x == s || x == t {
                    continue;
                }
                if ds[x] != INF && dt[x] != INF && ds[x] + dt[x] == ds[t] {
                    score[x] += sigma[x] * sigma_t[x] / sigma[t];
                }
            }
        }
    }
    // Ordered pairs counted both directions; halve to match unordered.
    score.iter_mut().for_each(|v| *v *= 0.5);
    score
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn brandes_matches_brute_force((n, edges) in edge_list(10, 20)) {
        use cp_graph::betweenness::betweenness_exact;
        let g = graph_from_edges(n, &edges);
        let fast = betweenness_exact(&g, 2);
        let brute = brute_betweenness(&g);
        for (v, &expected) in brute.iter().enumerate() {
            prop_assert!(
                (fast.node[v] - expected).abs() < 1e-6,
                "node {}: brandes {} vs brute {}",
                v,
                fast.node[v],
                expected
            );
        }
    }

    #[test]
    fn edge_betweenness_sums_to_path_lengths((n, edges) in edge_list(10, 20)) {
        // Sum over edges of edge betweenness equals the sum over connected
        // pairs of their distance (every shortest path contributes its
        // length in edge traversals, split across tied paths).
        use cp_graph::betweenness::betweenness_exact;
        let g = graph_from_edges(n, &edges);
        let fast = betweenness_exact(&g, 2);
        let edge_total: f64 = fast.edge.iter().sum();
        let mut distance_total = 0.0f64;
        for u in 0..n {
            let d = bfs(&g, NodeId::new(u));
            for &dv in d.iter().skip(u + 1) {
                if dv != INF {
                    distance_total += dv as f64;
                }
            }
        }
        prop_assert!(
            (edge_total - distance_total).abs() < 1e-6,
            "edge sum {} vs distance sum {}",
            edge_total,
            distance_total
        );
    }
}

proptest! {
    /// A forward-only cursor over a random temporal stream cuts snapshots
    /// bit-identical to the from-scratch builder path at every prefix —
    /// including edge-id assignment (checked via `Graph` equality, which
    /// covers `arc_edge`).
    #[test]
    fn prefix_cursor_matches_builder_snapshots(
        (n, edges) in edge_list(30, 80),
        cuts in prop::collection::vec(0usize..100, 1..6),
    ) {
        let pairs: Vec<_> = edges
            .iter()
            .map(|&(u, v)| (NodeId(u), NodeId(v)))
            .collect();
        let t = TemporalGraph::from_sequence(n, pairs);
        let mut cuts = cuts;
        cuts.sort_unstable();
        let mut cursor = t.cursor();
        for &cut in &cuts {
            let count = cut.min(t.num_events());
            cursor.advance_to_prefix(count);
            // Reference: fold the same prefix through GraphBuilder.
            let mut b = cp_graph::GraphBuilder::with_capacity(n, count);
            for e in &t.events()[..count] {
                b.add_edge(e.u, e.v);
            }
            prop_assert_eq!(cursor.materialize(), b.build(), "prefix {}", count);
        }
    }
}
