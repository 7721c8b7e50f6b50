//! The metric catalogue and the per-layer aggregates shared by workloads.

use crate::measure::{median, ratio, Metrics};
use crate::trace::{self, Span};
use cp_core::oracle::BudgetLedger;
use cp_core::topk::PipelineStats;
use std::collections::HashMap;
use std::time::Instant;

/// End-to-end metrics: every workload reports each of them, untraced.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("run_p50_ms", "ms"),
    ("run_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every workload reports each of them from its traced
/// run; a layer the workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("gen.generate_s", "s"),
    ("graph.snapshot_s", "s"),
    ("exact.truth_s", "s"),
    ("ml.train_s", "s"),
    ("selectors.rank_s", "s"),
    ("selectors.rank_s.incbet", "s"),
    ("selectors.rank_s.landmark", "s"),
    ("selectors.generation_sssp", "count"),
    ("selectors.candidate_set_changes", "count"),
    ("oracle.topk_s", "s"),
    ("oracle.admission_s", "s"),
    ("oracle.prefilter_yield", "fraction"),
    ("oracle.sssp_s", "s"),
    ("oracle.rows_per_s", "rows/s"),
    ("oracle.repair_ratio", "fraction"),
    ("oracle.cache_hit_ratio", "fraction"),
    ("oracle.recomputed_rows", "count"),
    ("oracle.relaxed_edges", "count"),
    ("oracle.arena_bytes", "bytes"),
    ("scan.scan_s", "s"),
    ("scan.chunk_skip_ratio", "fraction"),
    ("exec.batches", "count"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.parks", "count"),
    ("stream.ingest_us", "us"),
    ("stream.advance_s", "s"),
    ("stream.pipeline_s", "s"),
    ("stream.publish_s", "s"),
    ("stream.donor_hit_rate", "fraction"),
    ("stream.rejected_frac", "fraction"),
    ("query.topk_seed_us", "us"),
    ("query.delta_us", "us"),
    ("query.distance_us", "us"),
    ("query.exact_frac", "fraction"),
    ("query.bounded_frac", "fraction"),
    ("query.unknown_frac", "fraction"),
    ("query.epochs_seen", "fraction"),
    ("coverage_mean", "fraction"),
    ("failed_frac", "fraction"),
    ("review_p50_ms", "ms"),
    ("review_p90_ms", "ms"),
    ("stream_events_per_s", "events/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("query_qps", "requests/s"),
    ("bench.trace_overhead_frac", "fraction"),
];

/// Values a workload measured, by metric name.
pub type Values = HashMap<&'static str, f64>;

/// Emits `catalogue` in order, taking each value from `values` (0 where a
/// per-layer metric was not measured). An end-to-end metric must be
/// measured.
pub fn emit(
    catalogue: &[(&'static str, &'static str)],
    values: &Values,
    required: bool,
) -> Metrics {
    let mut m = Metrics::default();
    for &(name, unit) in catalogue {
        let v = values.get(name).copied();
        assert!(!required || v.is_some(), "workload did not measure {name}");
        m.put(name, v.unwrap_or(0.0), unit);
    }
    m
}

/// What the benchmark saw of one pipeline run from outside: the counters
/// the program returns, and what the forwarding selector observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunView {
    /// The run's instrumentation.
    pub stats: PipelineStats,
    /// The run's ledger.
    pub ledger: BudgetLedger,
    /// Oracle SSSP seconds spent inside `rank`.
    pub rank_sssp_secs: f64,
    /// Ranked nodes with an edge in `G_t1` (the ones admission considers).
    pub ranked_active: u64,
}

/// Per-pass oracle, scan and selector counters, summed over the pass's
/// runs (`oracle.arena_bytes` is the pass maximum).
pub fn oracle_layers(runs: &[RunView]) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&RunView) -> f64| runs.iter().map(f).sum::<f64>();
    let sssp = sum(&|r| r.stats.sssp_secs);
    let charged = sum(&|r| r.ledger.total() as f64);
    let hits = sum(&|r| r.stats.cache_hits as f64);
    let misses = sum(&|r| r.stats.cache_misses as f64);
    let scanned = sum(&|r| r.stats.scan_chunks_scanned as f64);
    let skipped = sum(&|r| r.stats.scan_chunks_skipped as f64);
    vec![
        (
            "selectors.generation_sssp",
            sum(&|r| r.ledger.generation as f64),
        ),
        (
            "oracle.admission_s",
            sum(&|r| (r.stats.prefetch_secs - (r.stats.sssp_secs - r.rank_sssp_secs)).max(0.0)),
        ),
        (
            "oracle.prefilter_yield",
            ratio(
                sum(&|r| r.stats.rows_prefiltered as f64),
                sum(&|r| r.ranked_active as f64),
            ),
        ),
        ("oracle.sssp_s", sssp),
        ("oracle.rows_per_s", ratio(charged, sssp)),
        (
            "oracle.repair_ratio",
            ratio(
                sum(&|r| r.stats.repaired_rows as f64),
                sum(&|r| r.stats.sssp_computed as f64),
            ),
        ),
        ("oracle.cache_hit_ratio", ratio(hits, hits + misses)),
        (
            "oracle.recomputed_rows",
            sum(&|r| r.stats.recomputed_rows as f64),
        ),
        (
            "oracle.relaxed_edges",
            sum(&|r| r.stats.relaxed_edges as f64),
        ),
        (
            "oracle.arena_bytes",
            runs.iter()
                .map(|r| r.stats.arena.slab_bytes as f64)
                .fold(0.0, f64::max),
        ),
        ("scan.scan_s", sum(&|r| r.stats.scan_secs)),
        ("scan.chunk_skip_ratio", ratio(skipped, scanned + skipped)),
    ]
}

/// Executor counters over one pass, from the global pool's statistics.
pub fn exec_layers(
    before: &cp_exec::ExecStats,
    after: &cp_exec::ExecStats,
) -> Vec<(&'static str, f64)> {
    let d = after.since(before);
    vec![
        ("exec.batches", d.batches_run as f64),
        ("exec.tasks", d.tasks_executed as f64),
        ("exec.steals", d.exec_steals as f64),
        ("exec.parks", d.parks as f64),
    ]
}

/// Selector spans of one pass: ranking time overall, for IncBet and for
/// the landmark family, and the runs' self time outside ranking.
pub fn selector_layers(pass: &[Span]) -> Vec<(&'static str, f64)> {
    const LANDMARK: [&str; 6] = ["SumDiff", "MaxDiff", "MMSD", "MMMD", "MASD", "MAMD"];
    let rank = trace::total(pass, "rank", |_| true);
    vec![
        ("selectors.rank_s", rank),
        (
            "selectors.rank_s.incbet",
            trace::total(pass, "rank", |t| t == "IncBet"),
        ),
        (
            "selectors.rank_s.landmark",
            trace::total(pass, "rank", |t| LANDMARK.contains(&t)),
        ),
        ("oracle.topk_s", trace::total(pass, "run", |_| true) - rank),
    ]
}

/// Generator seed of input instance `i` of a run seeded `seed`: runs with
/// different seeds draw disjoint instances.
pub fn instance_seed(seed: u64, instances: u64, i: u64) -> u64 {
    seed.wrapping_mul(instances).wrapping_add(i)
}

/// Sets up `instances` inputs with `make(instance, rep)`, timing each. A
/// cheap set-up is then repeated for timing alone (its product dropped)
/// until a second has been spent or ten repetitions made, and at least
/// three in any case, so `setup_s`, their median, rests on enough samples.
/// `rep` numbers the repetitions and is the id of their spans.
pub fn set_up<T>(instances: u64, mut make: impl FnMut(u64, u64) -> T) -> (Vec<T>, Vec<f64>) {
    let mut made = Vec::new();
    let mut secs: Vec<f64> = Vec::new();
    let done =
        |secs: &[f64]| secs.len() >= 3 && (secs.iter().sum::<f64>() >= 1.0 || secs.len() >= 10);
    while made.len() < instances as usize || !done(&secs) {
        let t0 = Instant::now();
        let product = make(made.len() as u64 % instances, secs.len() as u64);
        secs.push(t0.elapsed().as_secs_f64());
        if made.len() < instances as usize {
            made.push(product);
        }
    }
    (made, secs)
}

/// Set-up spans (ids are the repetition number) and the metric each feeds.
const SETUP_SPANS: [(&str, &str); 4] = [
    ("gen.generate", "gen.generate_s"),
    ("graph.snapshot", "graph.snapshot_s"),
    ("exact.truth", "exact.truth_s"),
    ("ml.train", "ml.train_s"),
];

/// Per-layer set-up time: each layer's spans summed per repetition, the
/// median over repetitions.
pub fn setup_layers(spans: &[Span], reps: u64) -> Vec<(&'static str, f64)> {
    SETUP_SPANS
        .iter()
        .map(|&(span, metric)| {
            let per_rep: Vec<f64> = (0..reps)
                .map(|rep| {
                    spans
                        .iter()
                        .filter(|s| s.name == span && s.id == rep)
                        .map(Span::secs)
                        .sum()
                })
                .collect();
            (metric, median(&per_rep))
        })
        .collect()
}

/// Per-pass figures, kept for the median over passes.
#[derive(Default, Debug)]
pub struct PerPass {
    values: HashMap<&'static str, Vec<f64>>,
}

impl PerPass {
    /// Records one pass's values.
    pub fn push(&mut self, figures: impl IntoIterator<Item = (&'static str, f64)>) {
        for (name, v) in figures {
            self.values.entry(name).or_default().push(v);
        }
    }

    /// The median of every recorded figure, into `out`.
    pub fn medians_into(&self, out: &mut Values) {
        for (&name, v) in &self.values {
            out.insert(name, median(v));
        }
    }
}

/// Whether two candidate sets hold the same nodes.
pub fn same_set(a: &[cp_graph::NodeId], b: &[cp_graph::NodeId]) -> bool {
    let mut a = a.to_vec();
    let mut b = b.to_vec();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn set_up_times_at_least_three_repetitions() {
        let mut calls = Vec::new();
        let (made, secs) = set_up(2, |i, rep| {
            calls.push((i, rep));
            i
        });
        assert_eq!(made, vec![0, 1]);
        assert_eq!(secs.len(), 10);
        assert_eq!(calls[..3], [(0, 0), (1, 1), (0, 2)]);
    }
}
