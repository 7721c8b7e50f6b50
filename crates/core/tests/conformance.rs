//! Differential conformance of every shipped selector across the oracle's
//! configuration matrix.
//!
//! The contract: thread count and row-cache budget are pure wall-clock
//! (or memory) choices. Pipeline **results** — pairs, candidate set,
//! budget ledger — are bit-identical in every cell of the threads × cache
//! matrix, for every selector the Table 5 suite ships plus the local and
//! global classifiers, on every synthetic evolving-graph generator in
//! `cp-gen`. Pairs are checked against an independent recomputation
//! (`common::reference_pairs`: reference-kernel rows and a plain Δ loop
//! over the run's own candidate set); candidates and ledger against the
//! matrix's first cell.
//!
//! A second family of checks anchors the pipeline to ground truth: the
//! exact all-pairs solver vs. the same reference over every node, and vs.
//! the unbudgeted Incidence baseline, which by construction finds exactly
//! the converging pairs touching an active node (an endpoint of a new
//! edge).

mod common;

use common::reference_pairs;
use cp_core::exact::{exact_top_k, TopKSpec};
use cp_core::oracle::{RowCacheBudget, Snapshot, SnapshotOracle};
use cp_core::selectors::{
    active_nodes, incidence_full, ClassifierConfig, ClassifierSelector, IncidenceRanking,
    IncidenceSelector, SelectorKind,
};
use cp_core::topk::{run_pipeline, BudgetedResult};
use cp_core::CandidateSelector;
use cp_gen::affiliation::{affiliation, AffiliationParams};
use cp_gen::ba::barabasi_albert;
use cp_gen::core_tendril::{core_tendril, CoreTendrilParams};
use cp_gen::er::erdos_renyi;
use cp_gen::forest_fire::forest_fire;
use cp_gen::locality::{locality_pa, LocalityPaParams};
use cp_gen::ring_sbm::{ring_sbm, RingSbmParams};
use cp_gen::sbm::{sbm, SbmParams};
use cp_gen::seeded_rng;
use cp_gen::ws::watts_strogatz;
use cp_graph::{Graph, NodeId, TemporalGraph};
use std::collections::HashMap;

/// One small evolving graph per cp-gen generator.
fn generator_cases() -> Vec<(&'static str, TemporalGraph)> {
    vec![
        ("erdos_renyi", erdos_renyi(60, 140, &mut seeded_rng(7))),
        (
            "barabasi_albert",
            barabasi_albert(70, 2, &mut seeded_rng(11)),
        ),
        (
            "watts_strogatz",
            watts_strogatz(64, 4, 0.2, &mut seeded_rng(13)),
        ),
        ("forest_fire", forest_fire(60, 0.35, &mut seeded_rng(17))),
        (
            "sbm",
            sbm(
                SbmParams {
                    n: 80,
                    communities: 4,
                    intra_degree: 5.0,
                    inter_degree: 1.0,
                },
                &mut seeded_rng(19),
            ),
        ),
        (
            "affiliation",
            affiliation(
                AffiliationParams {
                    members: 60,
                    groups: 18,
                    group_min: 2,
                    group_max: 6,
                    newcomer_prob: 0.4,
                },
                &mut seeded_rng(23),
            ),
        ),
        (
            "core_tendril",
            core_tendril(
                CoreTendrilParams {
                    n: 80,
                    ..CoreTendrilParams::default()
                },
                &mut seeded_rng(29),
            ),
        ),
        (
            "ring_sbm",
            ring_sbm(
                RingSbmParams {
                    n: 80,
                    communities: 4,
                    intra_degree: 5.0,
                    adjacent_degree: 1.5,
                    far_degree: 0.3,
                },
                &mut seeded_rng(31),
            ),
        ),
        (
            "locality_pa",
            locality_pa(
                LocalityPaParams {
                    n: 70,
                    edges_per_node: 2,
                    window: 16,
                    global_prob: 0.15,
                    peering_frac: 0.2,
                    peering_global_prob: 0.1,
                },
                &mut seeded_rng(37),
            ),
        ),
    ]
}

/// A selector the suite ships: one of the Table 5 kinds, or a classifier
/// (trained once per generator, then reused — ranking reads the model,
/// never updates it).
enum Shipped {
    Kind(SelectorKind),
    Classifier(&'static str, ClassifierSelector),
}

impl Shipped {
    fn name(&self) -> &'static str {
        match self {
            Shipped::Kind(kind) => kind.name(),
            Shipped::Classifier(name, _) => name,
        }
    }
}

/// Every Table 5 selector plus both classifiers for generator `i` of
/// `cases`: the local one trained on the generator's own 40 % → 60 %
/// pair, the global one on the next two generators' 40 % → 60 % pairs
/// (graphs it then ranks without having seen).
fn shipped_selectors(cases: &[(&'static str, TemporalGraph)], i: usize) -> Vec<Shipped> {
    let mut out: Vec<Shipped> = SelectorKind::table5_suite()
        .into_iter()
        .map(Shipped::Kind)
        .collect();
    let (train_g1, train_g2) = cases[i].1.snapshot_pair(0.4, 0.6);
    out.push(Shipped::Classifier(
        "L-Classifier",
        ClassifierSelector::train_local(&train_g1, &train_g2, ClassifierConfig::default(), 3),
    ));
    let others: Vec<(Graph, Graph)> = [1, 2]
        .iter()
        .map(|k| cases[(i + k) % cases.len()].1.snapshot_pair(0.4, 0.6))
        .collect();
    let refs: Vec<(&Graph, &Graph)> = others.iter().map(|(a, b)| (a, b)).collect();
    out.push(Shipped::Classifier(
        "G-Classifier",
        ClassifierSelector::train_global(&refs, ClassifierConfig::default(), 3),
    ));
    out
}

/// One cell of the oracle's configuration matrix.
#[derive(Clone, Copy)]
struct Config {
    threads: usize,
    cache: RowCacheBudget,
}

impl Config {
    fn describe(&self) -> String {
        format!("threads={}/cache={}", self.threads, self.cache.describe())
    }
}

/// Runs the pipeline for one selector in one configuration. IncBet ranks
/// with its own Brandes pool, so its thread count follows the cell's too.
fn run_config(
    g1: &Graph,
    g2: &Graph,
    sel: &mut Shipped,
    m: u64,
    spec: &TopKSpec,
    cfg: Config,
) -> BudgetedResult {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m)
        .with_threads(cfg.threads)
        .with_row_cache(cfg.cache);
    match sel {
        Shipped::Kind(SelectorKind::IncBet) => {
            let mut incbet =
                IncidenceSelector::new(IncidenceRanking::Betweenness).with_threads(cfg.threads);
            run_pipeline(&mut oracle, &mut incbet, spec)
        }
        Shipped::Kind(kind) => run_pipeline(&mut oracle, kind.build(3).as_mut(), spec),
        Shipped::Classifier(_, classifier) => run_pipeline(&mut oracle, classifier, spec),
    }
}

/// Asserts one cell reproduces the independent reference pairs for its
/// own candidate set, and the first cell's candidates and ledger, with
/// coherent stats.
fn assert_cell_matches(
    got: &BudgetedResult,
    first: &BudgetedResult,
    g1: &Graph,
    g2: &Graph,
    spec: &TopKSpec,
    cfg: Config,
    ctx: &str,
) {
    let (want, _) = reference_pairs(g1, g2, &got.candidates, spec);
    assert_eq!(got.pairs, want, "pairs diverge from the reference: {ctx}");
    assert_eq!(
        got.candidates, first.candidates,
        "candidates diverge: {ctx}"
    );
    assert_eq!(got.budget, first.budget, "ledger diverges: {ctx}");
    // Charged rows add up to the ledger, and the disabled cache never
    // repairs.
    let ks = got.stats.kernel_stats;
    assert_eq!(
        ks.msbfs_rows + ks.bfs_rows + ks.dijkstra_rows + ks.repair_rows + got.stats.chained_rows,
        got.budget.total(),
        "kernel counters diverge from the ledger: {ctx}"
    );
    if cfg.cache == RowCacheBudget::Bytes(0) {
        assert_eq!(
            got.stats.repaired_rows, 0,
            "disabled cache must not repair: {ctx}"
        );
    }
}

/// The full differential matrix: threads {1,2,8} × cache budgets {off,
/// tiny, unbounded}, for every shipped selector on every generator. The
/// tiny budget (one row's worth of bytes beyond the pinned pair) forces
/// constant eviction, free recomputation, and donor-miss fallbacks in the
/// repair planner. IncBet sweeps the cache axis at one thread only: its
/// thread axis is [`incbet_is_invariant_across_threads`].
#[test]
fn every_shipped_selector_is_invariant_across_the_matrix() {
    let spec = TopKSpec::ThresholdFromMax { slack: 1 };
    let cases = generator_cases();
    for (i, (name, t)) in cases.iter().enumerate() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let tiny = RowCacheBudget::Bytes(3 * 4 * g1.num_nodes());
        for mut sel in shipped_selectors(&cases, i) {
            let threads_axis: &[usize] = match sel {
                Shipped::Kind(SelectorKind::IncBet) => &[1],
                _ => &[1, 2, 8],
            };
            for m in [4u64, 12] {
                let mut first: Option<BudgetedResult> = None;
                for &threads in threads_axis {
                    for cache in [RowCacheBudget::Bytes(0), tiny, RowCacheBudget::Unbounded] {
                        let cfg = Config { threads, cache };
                        let got = run_config(&g1, &g2, &mut sel, m, &spec, cfg);
                        let ctx = format!("{name}/{}/m={m}/{}", sel.name(), cfg.describe());
                        let first = first.get_or_insert_with(|| got.clone());
                        assert_cell_matches(&got, first, &g1, &g2, &spec, cfg, &ctx);
                    }
                }
            }
        }
    }
}

/// IncBet's thread axis: Brandes sums fixed source blocks in block order,
/// so its ranking (and with it the candidate set) is the same at any
/// thread count.
#[test]
fn incbet_is_invariant_across_threads() {
    let spec = TopKSpec::ThresholdFromMax { slack: 1 };
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let mut sel = Shipped::Kind(SelectorKind::IncBet);
        for m in [4u64, 12] {
            let single = Config {
                threads: 1,
                cache: RowCacheBudget::Bytes(0),
            };
            let first = run_config(&g1, &g2, &mut sel, m, &spec, single);
            for threads in [2usize, 8] {
                let cfg = Config { threads, ..single };
                let got = run_config(&g1, &g2, &mut sel, m, &spec, cfg);
                let ctx = format!("{name}/IncBet/m={m}/{}", cfg.describe());
                assert_cell_matches(&got, &first, &g1, &g2, &spec, cfg, &ctx);
            }
        }
    }
}

/// IncBet's full ranking is identical at threads {1, 2, 8} on the
/// emulators whose scores once diverged across thread counts (from scale
/// 0.1 up).
#[test]
fn incbet_ranking_is_invariant_across_threads_on_emulators() {
    use cp_gen::datasets::{DatasetKind, DatasetProfile};
    for kind in [DatasetKind::InternetLinks, DatasetKind::Dblp] {
        let t = DatasetProfile::scaled(kind, 0.1).generate(1);
        let (g1, g2) = t.snapshot_pair(0.8, 1.0);
        let rank = |threads| {
            let mut oracle = SnapshotOracle::unbounded(&g1, &g2);
            IncidenceSelector::new(IncidenceRanking::Betweenness)
                .with_threads(threads)
                .rank(&mut oracle)
        };
        let single = rank(1);
        for threads in [2, 8] {
            assert!(
                single == rank(threads),
                "{}: {threads} threads",
                kind.name()
            );
        }
    }
}

/// Ground truth anchoring: the unbudgeted Incidence baseline must find
/// exactly the exact solver's pairs that touch an active node — same
/// pairs, same Δ values. (Pairs with both endpoints inactive are invisible
/// to Incidence by design; the paper's Table 6 coverage gap.)
#[test]
fn incidence_baseline_matches_exact_ground_truth() {
    let spec = TopKSpec::Threshold { delta_min: 1 };
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let exact = exact_top_k(&g1, &g2, &spec, 2);
        let full = incidence_full(&g1, &g2, &spec);
        let active: std::collections::HashSet<NodeId> =
            active_nodes(&g1, &g2).into_iter().collect();
        let expected: HashMap<(NodeId, NodeId), u32> = exact
            .pairs
            .iter()
            .filter(|p| active.contains(&p.pair.0) || active.contains(&p.pair.1))
            .map(|p| (p.pair, p.delta))
            .collect();
        let got: HashMap<(NodeId, NodeId), u32> = full
            .result
            .pairs
            .iter()
            .map(|p| (p.pair, p.delta))
            .collect();
        assert_eq!(got, expected, "{name}: Incidence vs exact ground truth");
        // Sanity: the generators actually produce converging pairs here,
        // so the assertion above is not vacuous.
        assert!(
            !exact.pairs.is_empty(),
            "{name}: no converging pairs generated"
        );
    }
}

fn run_degree(
    g1: &Graph,
    g2: &Graph,
    m: u64,
    spec: &TopKSpec,
    threads: usize,
    cache: RowCacheBudget,
) -> BudgetedResult {
    let mut oracle = SnapshotOracle::with_budget(g1, g2, 2 * m)
        .with_threads(threads)
        .with_row_cache(cache);
    let mut sel = SelectorKind::Degree.build(3);
    run_pipeline(&mut oracle, sel.as_mut(), spec)
}

/// The Δ-scan matrix: threads {1,2,8} × cache budgets {off, tiny, 64k,
/// unbounded} × every spec shape, against the independent reference. The
/// blocked kernel's chunk skipping and rising floors must never change
/// pairs, candidates, or the ledger — and it must actually see chunks.
#[test]
fn delta_scan_matches_the_reference_across_the_matrix() {
    let specs = [
        TopKSpec::TopK(10),
        TopKSpec::ThresholdFromMax { slack: 1 },
        TopKSpec::Threshold { delta_min: 2 },
    ];
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        // One resident row pair plus change, at the packed (u16) width.
        let tiny = RowCacheBudget::Bytes(3 * 2 * g1.num_nodes());
        for spec in &specs {
            let first = run_degree(&g1, &g2, 12, spec, 1, RowCacheBudget::Bytes(0));
            let (want, _) = reference_pairs(&g1, &g2, &first.candidates, spec);
            for threads in [1usize, 2, 8] {
                for cache in [
                    RowCacheBudget::Bytes(0),
                    tiny,
                    RowCacheBudget::Bytes(64 * 1024),
                    RowCacheBudget::Unbounded,
                ] {
                    let got = run_degree(&g1, &g2, 12, spec, threads, cache);
                    let ctx = format!(
                        "{name}/{spec:?}/threads={threads}/cache={}",
                        cache.describe(),
                    );
                    assert_eq!(got.pairs, want, "pairs diverge from the reference: {ctx}");
                    assert_eq!(
                        got.candidates, first.candidates,
                        "candidates diverge: {ctx}"
                    );
                    assert_eq!(got.budget, first.budget, "ledger diverges: {ctx}");
                    if !got.candidates.is_empty() {
                        assert!(
                            got.stats.scan_chunks_scanned + got.stats.scan_chunks_skipped > 0,
                            "blocked kernel saw no chunks: {ctx}"
                        );
                    }
                }
            }
        }
    }
}

/// The exact baseline runs the same blocked Δ-scan; its answer, its Δmax
/// (which skipped chunks must still feed) and its Δmin equal an all-pairs
/// reference built from `bfs_scalar_into` rows, at any thread count.
#[test]
fn exact_solver_matches_the_all_pairs_reference() {
    let specs = [
        TopKSpec::TopK(25),
        TopKSpec::ThresholdFromMax { slack: 2 },
        TopKSpec::Threshold { delta_min: 1 },
    ];
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let all: Vec<NodeId> = g1.nodes().collect();
        for spec in &specs {
            let (want, delta_max) = reference_pairs(&g1, &g2, &all, spec);
            let delta_min = want.last().map_or(0, |p| p.delta);
            for threads in [1usize, 2, 8] {
                let got = exact_top_k(&g1, &g2, spec, threads);
                let ctx = format!("{name}/{spec:?}/threads={threads}");
                assert_eq!(got.pairs, want, "pairs diverge from the reference: {ctx}");
                assert_eq!(got.delta_max, delta_max, "Δmax diverges: {ctx}");
                assert_eq!(got.delta_min, delta_min, "Δmin diverges: {ctx}");
            }
        }
    }
}

/// The Δ scan's shared-read recomputes are accounted: with no row cache
/// the scan rebuilds every evicted candidate row through its worker
/// scratch, and each of those rebuilds lands in `recomputed_rows`. Only
/// the LRU's two pinned rows survive a `Bytes(0)` cache, so at least two
/// rows per scanned candidate, less those two, are recomputed — exactly
/// the candidate rows no longer resident after the run. The Degree
/// selector reads no rows while ranking, so the scan is the only source.
#[test]
fn scan_recomputes_count_toward_recomputed_rows() {
    let spec = TopKSpec::ThresholdFromMax { slack: 1 };
    let mut scanned_somewhere = false;
    for (name, t) in generator_cases() {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        for threads in [1usize, 2] {
            let run = |cache: RowCacheBudget| {
                let mut oracle = SnapshotOracle::with_budget(&g1, &g2, 2 * 12)
                    .with_threads(threads)
                    .with_row_cache(cache);
                let mut sel = SelectorKind::Degree.build(3);
                let res = run_pipeline(&mut oracle, sel.as_mut(), &spec);
                let evicted = res
                    .candidates
                    .iter()
                    .flat_map(|&u| [Snapshot::First, Snapshot::Second].map(|w| (w, u)))
                    .filter(|&(w, u)| oracle.cached_row(w, u).is_none())
                    .count() as u64;
                (res, evicted)
            };
            let ctx = format!("{name}/threads={threads}");
            let (cached, _) = run(RowCacheBudget::Unbounded);
            assert_eq!(cached.stats.recomputed_rows, 0, "{ctx}");
            let (res, evicted) = run(RowCacheBudget::Bytes(0));
            let scanned = res.candidates.len() as u64;
            assert_eq!(res.stats.recomputed_rows, evicted, "{ctx}");
            assert!(
                res.stats.recomputed_rows >= (2 * scanned).saturating_sub(2),
                "{ctx}: {} recomputes for {scanned} scanned candidates",
                res.stats.recomputed_rows
            );
            scanned_somewhere |= scanned > 2;
        }
    }
    assert!(scanned_somewhere, "no run scanned more than two candidates");
}

/// Weighted snapshots must keep full-width rows — Dijkstra distances can
/// exceed `u16` — while the pipeline still matches the reference on them.
#[test]
fn weighted_rows_take_the_u32_arena_path() {
    let weighted = |extra: &[(u32, u32, u32)]| {
        let mut b = cp_graph::GraphBuilder::new(16);
        for i in 0..15u32 {
            b.add_weighted_edge(NodeId(i), NodeId(i + 1), 2 + i % 4);
        }
        for &(u, v, w) in extra {
            b.add_weighted_edge(NodeId(u), NodeId(v), w);
        }
        b.build()
    };
    let g1 = weighted(&[]);
    let g2 = weighted(&[(0, 15, 1), (4, 11, 2)]);
    let spec = TopKSpec::ThresholdFromMax { slack: 1 };
    let first = run_degree(&g1, &g2, 8, &spec, 1, RowCacheBudget::Bytes(0));
    let (want, _) = reference_pairs(&g1, &g2, &first.candidates, &spec);
    assert_eq!(first.pairs, want, "cache off diverges from the reference");
    let got = run_degree(&g1, &g2, 8, &spec, 2, RowCacheBudget::Unbounded);
    assert_eq!(got.pairs, want, "cache on diverges from the reference");
    assert_eq!(got.candidates, first.candidates);
    assert_eq!(
        got.stats.arena.u16_rows, 0,
        "weighted rows must not be packed"
    );
    assert!(got.stats.arena.u32_rows > 0, "u32 arena must hold the rows");
    assert!(!want.is_empty(), "weighted case must not be vacuous");
}

/// The exact solver's top-k cut is reproduced by the budgeted pipeline
/// when the budget covers every node — full recovery independent of the
/// cache configuration.
#[test]
fn full_budget_recovers_exact_top_k_under_any_cache() {
    for (name, t) in generator_cases().into_iter().take(4) {
        let (g1, g2) = t.snapshot_pair(0.7, 1.0);
        let spec = TopKSpec::TopK(10);
        let exact = exact_top_k(&g1, &g2, &spec, 2);
        let n = g1.num_nodes() as u64;
        for cache in [RowCacheBudget::Bytes(0), RowCacheBudget::Unbounded] {
            let cfg = Config { threads: 2, cache };
            let got = run_config(
                &g1,
                &g2,
                &mut Shipped::Kind(SelectorKind::Degree),
                n,
                &spec,
                cfg,
            );
            assert_eq!(
                got.pairs,
                exact.pairs,
                "{name}/cache={}: full-budget pipeline must recover the exact top-k",
                cache.describe()
            );
        }
    }
}
