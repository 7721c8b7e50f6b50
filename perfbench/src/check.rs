//! Output checks that share no code path with the program's kernels.
//!
//! Distances come from a plain queue BFS over `Graph`'s public adjacency;
//! pairs come from an `M × V` Δ scan over a run's own candidate set, cut by
//! the run's spec. None of it depends on the pipeline's pruning, caching,
//! repair or scan kernels, so it stays valid whichever of them exist.

use crate::measure::Rng;
use cp_core::exact::{ConvergingPair, TopKSpec};
use cp_core::topk::BudgetedResult;
use cp_graph::{Graph, NodeId, INF};
use cp_query::{Answer, SeedTopK};
use std::collections::{HashSet, VecDeque};

/// Unweighted distances from `src` (`INF` where unreachable).
pub fn bfs(g: &Graph, src: NodeId) -> Vec<u32> {
    let mut dist = vec![INF; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[src.index()] = 0;
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let next = dist[u.index()] + 1;
        for &v in g.neighbors(u) {
            if dist[v.index()] == INF {
                dist[v.index()] = next;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// `Δ = d1 − d2` for a pair connected in the first snapshot, `None` for a
/// pair the problem excludes (disconnected in `G_t1`).
fn decrease(d1: u32, d2: u32) -> Option<u32> {
    (d1 != INF).then(|| d1.saturating_sub(d2))
}

/// The final Δ cut of `spec` once the largest observed decrease is known.
fn final_floor(spec: &TopKSpec, observed_max: u32) -> u32 {
    match *spec {
        TopKSpec::Threshold { delta_min } => delta_min.max(1),
        TopKSpec::ThresholdFromMax { slack } => observed_max.saturating_sub(slack).max(1),
        TopKSpec::TopK(_) => 1,
    }
}

/// The answer a run over `candidates` must report: every pair with one
/// endpoint in `candidates` whose Δ passes `spec`, sorted by pair.
/// `TopK` specs are not used by the workloads and are refused.
pub fn expected_pairs(
    g1: &Graph,
    g2: &Graph,
    candidates: &[NodeId],
    spec: &TopKSpec,
) -> Result<Vec<(NodeId, NodeId, u32)>, String> {
    if let TopKSpec::TopK(_) = spec {
        return Err("TopK specs are not checked".to_string());
    }
    let mut found = HashSet::new();
    let mut observed_max = 0;
    for &u in candidates {
        let (d1, d2) = (bfs(g1, u), bfs(g2, u));
        for v in 0..g1.num_nodes() {
            if v == u.index() {
                continue;
            }
            if let Some(delta) = decrease(d1[v], d2[v]) {
                observed_max = observed_max.max(delta);
                if delta > 0 {
                    let p = ConvergingPair::new(u, NodeId::new(v), delta);
                    found.insert((p.pair.0, p.pair.1, delta));
                }
            }
        }
    }
    let floor = final_floor(spec, observed_max);
    let mut pairs: Vec<_> = found.into_iter().filter(|p| p.2 >= floor).collect();
    pairs.sort_unstable();
    Ok(pairs)
}

fn sorted_triples(pairs: &[ConvergingPair]) -> Vec<(NodeId, NodeId, u32)> {
    let mut v: Vec<_> = pairs
        .iter()
        .map(|p| (p.pair.0, p.pair.1, p.delta))
        .collect();
    v.sort_unstable();
    v
}

/// Compares a reported pair list with the expected one.
pub fn compare_pairs(
    expected: &[(NodeId, NodeId, u32)],
    reported: &[ConvergingPair],
) -> Result<(), String> {
    let got = sorted_triples(reported);
    if got.len() != reported.len() || got.windows(2).any(|w| w[0] == w[1]) {
        return Err("duplicate pair in the reported list".to_string());
    }
    if got == expected {
        return Ok(());
    }
    let want: HashSet<_> = expected.iter().collect();
    let have: HashSet<_> = got.iter().collect();
    let missing = expected.iter().find(|p| !have.contains(p));
    let extra = got.iter().find(|p| !want.contains(p));
    Err(format!(
        "{} pairs reported, {} expected; first missing {missing:?}, first extra {extra:?}",
        got.len(),
        expected.len()
    ))
}

/// Full check of one budgeted run: the ledger stays within `2m` and the
/// pairs equal an independent scan over the run's candidate set.
pub fn check_run(
    g1: &Graph,
    g2: &Graph,
    result: &BudgetedResult,
    spec: &TopKSpec,
    m: u64,
) -> Result<(), String> {
    let spent = result.budget.total();
    if spent > 2 * m {
        return Err(format!("ledger {spent} exceeds 2m = {}", 2 * m));
    }
    compare_pairs(
        &expected_pairs(g1, g2, &result.candidates, spec)?,
        &result.pairs,
    )
}

/// Sampled check of an unbudgeted Incidence run at paper sizes, where a
/// full `M × V` rescan would cost as much as the run.
///
/// * The candidate set equals the nodes incident to an inserted edge that
///   already have an edge in `G_t1` (recomputed from the adjacency).
/// * The reported pairs are cut consistently: distinct, and every Δ at or
///   above `reported max − slack`.
/// * For `samples` seeded reported pairs, Δ matches a BFS.
/// * For `samples` seeded candidates, every pair of that row at or above
///   the cut is reported, and none exceeds the reported maximum.
pub fn check_incidence_sampled(
    g1: &Graph,
    g2: &Graph,
    result: &BudgetedResult,
    slack: u32,
    samples: usize,
    rng: &mut Rng,
) -> Result<(), String> {
    let mut active = HashSet::new();
    for u in g2.nodes() {
        if g1.degree(u) == 0 {
            continue;
        }
        if g2.neighbors(u).iter().any(|&v| !g1.has_edge(u, v)) {
            active.insert(u);
        }
    }
    let candidates: HashSet<NodeId> = result.candidates.iter().copied().collect();
    if candidates != active || candidates.len() != result.candidates.len() {
        return Err(format!(
            "candidate set of {} nodes differs from the {} active nodes",
            result.candidates.len(),
            active.len()
        ));
    }
    let triples = sorted_triples(&result.pairs);
    if triples
        .windows(2)
        .any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1))
    {
        return Err("duplicate pair in the reported list".to_string());
    }
    let reported_max = triples.iter().map(|p| p.2).max().unwrap_or(0);
    let floor = reported_max.saturating_sub(slack).max(1);
    if let Some(p) = triples.iter().find(|p| p.2 < floor) {
        return Err(format!("pair {p:?} below the cut {floor}"));
    }
    for _ in 0..samples.min(triples.len()) {
        let (a, b, delta) = triples[rng.below(triples.len())];
        let truth = decrease(bfs(g1, a)[b.index()], bfs(g2, a)[b.index()]);
        if truth != Some(delta) {
            return Err(format!(
                "pair ({a:?}, {b:?}) reported Δ {delta}, BFS gives {truth:?}"
            ));
        }
    }
    let reported: HashSet<(NodeId, NodeId)> = triples.iter().map(|p| (p.0, p.1)).collect();
    for _ in 0..samples.min(result.candidates.len()) {
        let u = result.candidates[rng.below(result.candidates.len())];
        let (d1, d2) = (bfs(g1, u), bfs(g2, u));
        for v in 0..g1.num_nodes() {
            let Some(delta) = decrease(d1[v], d2[v]) else {
                continue;
            };
            if v == u.index() || delta < floor {
                continue;
            }
            if delta > reported_max {
                return Err(format!("row {u:?} has Δ {delta} above the reported max"));
            }
            let p = ConvergingPair::new(u, NodeId::new(v), delta).pair;
            if !reported.contains(&p) {
                return Err(format!("pair {p:?} with Δ {delta} missing"));
            }
        }
    }
    Ok(())
}

/// Checks a query answer against the true value: `Exact` must match and
/// `Bounded` must bracket it.
pub fn check_answer(what: &str, answer: Answer, truth: u32) -> Result<(), String> {
    let ok = match answer {
        Answer::Exact(x) => x == truth,
        Answer::Bounded { lb, ub } => lb <= truth && truth <= ub,
        Answer::Unknown => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: answer {answer:?}, truth {truth}"))
    }
}

/// True distance and Δ between `u` and `v` in the published pair
/// (`d1`, `d2` are BFS rows from `u`). Δ is 0 for pairs disconnected in
/// `G_t1`, as the query layer reports them.
pub fn pair_truth(d1: &[u32], d2: &[u32], v: NodeId) -> (u32, u32) {
    let (a, b) = (d1[v.index()], d2[v.index()]);
    (b, decrease(a, b).unwrap_or(0))
}

/// Checks a per-seed top-k answer: every listed Δ is exact, and a
/// `complete` answer lists the true top `k` decreases of the seed's row.
pub fn check_seed_topk(
    u: NodeId,
    answer: &SeedTopK,
    d1: &[u32],
    d2: &[u32],
    k: usize,
) -> Result<(), String> {
    for p in &answer.pairs {
        let v = if p.pair.0 == u { p.pair.1 } else { p.pair.0 };
        let (_, delta) = pair_truth(d1, d2, v);
        if delta != p.delta {
            return Err(format!(
                "seed {u:?}: pair {:?} Δ {} vs truth {delta}",
                p.pair, p.delta
            ));
        }
    }
    if answer.complete {
        let mut row: Vec<u32> = (0..d1.len())
            .filter(|&v| v != u.index())
            .filter_map(|v| decrease(d1[v], d2[v]))
            .filter(|&d| d >= 1)
            .collect();
        row.sort_unstable_by(|a, b| b.cmp(a));
        row.truncate(k);
        let listed: Vec<u32> = answer.pairs.iter().map(|p| p.delta).collect();
        if listed != row {
            return Err(format!(
                "seed {u:?}: complete top-{k} {listed:?}, truth {row:?}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_core::selectors::SelectorKind;
    use cp_core::topk::budgeted_top_k;
    use cp_graph::TemporalGraph;

    fn ring_with_chords() -> (Graph, Graph) {
        let n = 40u32;
        let mut edges: Vec<(NodeId, NodeId)> =
            (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n))).collect();
        for (a, b) in [(0, 20), (5, 25), (10, 30), (3, 17), (8, 33), (12, 36)] {
            edges.push((NodeId(a), NodeId(b)));
        }
        TemporalGraph::from_sequence(n as usize, edges).snapshot_pair(0.8, 1.0)
    }

    #[test]
    fn bfs_matches_ring_distances() {
        let (_, g2) = ring_with_chords();
        let d = bfs(&g2, NodeId(0));
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[20], 1);
    }

    #[test]
    fn check_accepts_pipeline_output_and_rejects_corruption() {
        let (g1, g2) = ring_with_chords();
        for spec in [
            TopKSpec::ThresholdFromMax { slack: 1 },
            TopKSpec::Threshold { delta_min: 2 },
        ] {
            let mut sel = SelectorKind::MaxAvg.build(3);
            let result = budgeted_top_k(&g1, &g2, sel.as_mut(), 6, &spec);
            assert!(!result.pairs.is_empty(), "{spec:?}");
            check_run(&g1, &g2, &result, &spec, 6).expect("pipeline output passes");

            let mut wrong_delta = result.clone();
            wrong_delta.pairs[0].delta += 1;
            assert!(check_run(&g1, &g2, &wrong_delta, &spec, 6).is_err());

            let mut dropped = result.clone();
            dropped.pairs.pop();
            assert!(check_run(&g1, &g2, &dropped, &spec, 6).is_err());

            let mut duplicated = result.clone();
            duplicated.pairs.push(result.pairs[0]);
            assert!(check_run(&g1, &g2, &duplicated, &spec, 6).is_err());

            let mut overspent = result.clone();
            overspent.budget.topk = 13;
            overspent.budget.generation = 0;
            assert!(check_run(&g1, &g2, &overspent, &spec, 6).is_err());
        }
    }

    #[test]
    fn sampled_incidence_check_rejects_corruption() {
        let (g1, g2) = ring_with_chords();
        let spec = TopKSpec::ThresholdFromMax { slack: 1 };
        let full = cp_core::selectors::incidence_full(&g1, &g2, &spec).result;
        let mut rng = Rng::new(1, 0);
        check_incidence_sampled(&g1, &g2, &full, 1, 64, &mut rng).expect("passes");

        let mut dropped = full.clone();
        dropped.pairs.pop();
        let mut rng = Rng::new(1, 0);
        assert!(check_incidence_sampled(&g1, &g2, &dropped, 1, 64, &mut rng).is_err());

        let mut lost_candidate = full.clone();
        lost_candidate.candidates.pop();
        let mut rng = Rng::new(1, 0);
        assert!(check_incidence_sampled(&g1, &g2, &lost_candidate, 1, 64, &mut rng).is_err());
    }

    #[test]
    fn answers_must_match_or_bracket() {
        assert!(check_answer("d", Answer::Exact(3), 3).is_ok());
        assert!(check_answer("d", Answer::Exact(2), 3).is_err());
        assert!(check_answer("d", Answer::Bounded { lb: 1, ub: 4 }, 3).is_ok());
        assert!(check_answer("d", Answer::Bounded { lb: 4, ub: 9 }, 3).is_err());
        assert!(check_answer("d", Answer::Unknown, 3).is_ok());
    }
}
