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

/// Brute-force edge betweenness, indexed by edge id: for every connected
/// unordered pair `{s, t}`, count the shortest paths through each edge
/// `(a, b)` as `σ_sa · σ_bt / σ_st` (oriented either way), from per-node
/// BFS path counts.
fn brute_edge_betweenness(g: &cp_graph::Graph) -> Vec<f64> {
    let n = g.num_nodes();
    let rows: Vec<Vec<u32>> = (0..n).map(|s| bfs(g, NodeId::new(s))).collect();
    // sigma[s][v]: number of shortest s->v paths, by BFS-level DP.
    let sigma: Vec<Vec<f64>> = rows
        .iter()
        .enumerate()
        .map(|(s, ds)| {
            let mut order: Vec<usize> = (0..n).filter(|&v| ds[v] != INF).collect();
            order.sort_by_key(|&v| ds[v]);
            let mut sigma = vec![0.0f64; n];
            sigma[s] = 1.0;
            for &v in order.iter().skip(1) {
                for &w in g.neighbors(NodeId::new(v)) {
                    if ds[w.index()] + 1 == ds[v] {
                        sigma[v] += sigma[w.index()];
                    }
                }
            }
            sigma
        })
        .collect();
    let ends = g.edge_endpoints_vec();
    let mut score = vec![0.0f64; g.num_edges()];
    for s in 0..n {
        for t in (s + 1)..n {
            let d = rows[s][t];
            if d == INF {
                continue;
            }
            for (e, &(a, b)) in ends.iter().enumerate() {
                for (x, y) in [(a.index(), b.index()), (b.index(), a.index())] {
                    if rows[s][x] != INF && rows[t][y] != INF && rows[s][x] + 1 + rows[t][y] == d {
                        score[e] += sigma[s][x] * sigma[t][y] / sigma[s][t];
                    }
                }
            }
        }
    }
    score
}

/// Strategy: a random forest (node `i` hangs off a random earlier node or
/// starts a new tree) plus a few extra edges, K2 components and isolated
/// nodes — pendant vertices, stars, trees and leaves whose parent also has
/// degree 1 all occur routinely.
fn forest_like() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..14, 0usize..3, 0usize..3).prop_flat_map(|(tree, k2, isolated)| {
        // A draw of 850 or more starts a new tree.
        let parents = prop::collection::vec(0u32..1000, tree - 1);
        let extra = prop::collection::vec((0..tree as u32, 0..tree as u32), 0..3);
        (parents, extra).prop_map(move |(parents, extra)| {
            let mut edges = extra;
            for (i, p) in parents.into_iter().enumerate() {
                let child = i as u32 + 1;
                if p < 850 {
                    edges.push((p % child, child));
                }
            }
            for k in 0..k2 as u32 {
                edges.push((tree as u32 + 2 * k, tree as u32 + 2 * k + 1));
            }
            (tree + 2 * k2 + isolated, edges)
        })
    })
}

/// `fast` matches `expected` within `1e-9` relative (absolute below 1).
fn assert_close_rel(fast: f64, expected: f64, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        (fast - expected).abs() <= 1e-9 * expected.abs().max(1.0),
        "{}: kernel {} vs brute force {}",
        what,
        fast,
        expected
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn brandes_matches_brute_force((n, edges) in edge_list(10, 20)) {
        use cp_graph::betweenness::betweenness_exact;
        let g = graph_from_edges(n, &edges);
        let all: Vec<u32> = (0..g.num_edges() as u32).collect();
        let fast = betweenness_exact(&g, &all, 2);
        let brute = brute_edge_betweenness(&g);
        for (e, (&f, &b)) in fast.iter().zip(&brute).enumerate() {
            assert_close_rel(f, b, &format!("edge {e}"))?;
        }
    }

    #[test]
    fn requested_subsets_match_brute_force_on_forests(
        (n, edges) in forest_like(),
        picks in prop::collection::vec(0usize..1000, 0..12),
    ) {
        use cp_graph::betweenness::{betweenness_exact, betweenness_sampled};
        let g = graph_from_edges(n, &edges);
        let brute = brute_edge_betweenness(&g);
        let m = g.num_edges().max(1);
        let requested: Vec<u32> = picks
            .iter()
            .map(|&p| (p % m) as u32)
            .filter(|&e| (e as usize) < g.num_edges())
            .collect();
        let fast = betweenness_exact(&g, &requested, 2);
        prop_assert_eq!(fast.len(), requested.len());
        for (&e, &f) in requested.iter().zip(&fast) {
            assert_close_rel(f, brute[e as usize], &format!("exact edge {e}"))?;
        }
        // Unfolded, unit-weight sampling over every node is exact too.
        let pivots: Vec<NodeId> = g.nodes().collect();
        let sampled = betweenness_sampled(&g, &pivots, &requested, 2);
        for (&e, &f) in requested.iter().zip(&sampled) {
            assert_close_rel(f, brute[e as usize], &format!("sampled edge {e}"))?;
        }
    }

    #[test]
    fn edge_betweenness_sums_to_path_lengths((n, edges) in edge_list(10, 20)) {
        // Sum over edges of edge betweenness equals the sum over connected
        // pairs of their distance (every shortest path contributes its
        // length in edge traversals, split across tied paths).
        use cp_graph::betweenness::betweenness_exact;
        let g = graph_from_edges(n, &edges);
        let all: Vec<u32> = (0..g.num_edges() as u32).collect();
        let fast = betweenness_exact(&g, &all, 2);
        let edge_total: f64 = fast.iter().sum();
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

/// Edge scores are bit-identical at every pool width on the emulators
/// where per-lane merging once made them diverge.
#[test]
fn betweenness_is_bitwise_invariant_across_threads() {
    use cp_gen::datasets::{DatasetKind, DatasetProfile};
    use cp_graph::betweenness::betweenness_exact;
    for kind in [DatasetKind::InternetLinks, DatasetKind::Dblp] {
        let g = DatasetProfile::scaled(kind, 0.1)
            .generate(1)
            .snapshot_at_fraction(1.0);
        let all: Vec<u32> = (0..g.num_edges() as u32).collect();
        let bits = |threads| -> Vec<u64> {
            let scores = betweenness_exact(&g, &all, threads);
            scores.iter().map(|x| x.to_bits()).collect()
        };
        let single = bits(1);
        for threads in [2, 8] {
            assert!(
                single == bits(threads),
                "{}: {threads} threads",
                kind.name()
            );
        }
    }
}
