//! `incidence-full`: the paper's Table 6 baseline.
//!
//! Unbudgeted Incidence (`incidence_full`) on the four emulators at paper
//! sizes, on the evaluation pair, cut at Δmax − 1 of what it observes. It
//! computes SSSP rows from every active node in both snapshots, so row
//! computation, repair, the row arena and the executor carry the run while
//! ranking and the pre-filter do nothing.

use crate::args::Args;
use crate::check::check_incidence_sampled;
use crate::layers::{
    exec_layers, instance_seed, oracle_layers, same_set, selector_layers, set_up, setup_layers,
    PerPass, RunView, Values,
};
use crate::measure::{median, quantile, Rng, Tally};
use crate::probe::Probe;
use crate::schedule::Schedule;
use crate::trace::{Tracer, NONE};
use crate::Outcome;
use cp_core::exact::TopKSpec;
use cp_core::oracle::SnapshotOracle;
use cp_core::selectors::{incidence_full, IncidenceRanking, IncidenceSelector};
use cp_core::topk::{run_pipeline, BudgetedResult};
use cp_gen::datasets::{DatasetKind, DatasetProfile, EVAL_SNAPSHOTS};
use cp_graph::{Graph, NodeId};
use std::time::Instant;

const SLACK: u32 = 1;
const SPEC: TopKSpec = TopKSpec::ThresholdFromMax { slack: SLACK };

/// Input instances per run: each is the four emulators drawn from its own
/// generator seed.
const INSTANCES: u64 = 2;

/// Reported pairs and candidate rows re-derived by BFS per dataset and pass.
const CHECK_SAMPLES: usize = 24;

struct Dataset {
    tag: &'static str,
    g1: Graph,
    g2: Graph,
}

fn setup(args: &Args, seed: u64, tracer: &mut Tracer, rep: u64) -> Vec<Dataset> {
    let root = tracer.open("setup", "incidence-full", rep, NONE);
    let data = DatasetKind::ALL
        .iter()
        .map(|&kind| {
            let tag = kind.name();
            let profile = DatasetProfile::try_scaled(kind, args.scale).expect("scale validated");
            let span = tracer.open("gen.generate", tag, rep, root);
            let stream = profile.generate(seed);
            tracer.close(span);
            let span = tracer.open("graph.snapshot", tag, rep, root);
            let (g1, g2) = stream.snapshot_pair(EVAL_SNAPSHOTS.0, EVAL_SNAPSHOTS.1);
            tracer.close(span);
            Dataset { tag, g1, g2 }
        })
        .collect();
    tracer.close(root);
    data
}

/// The traced form of `incidence_full`: the same oracle, selector and
/// pipeline, with the selector behind the forwarding probe.
fn traced_incidence(
    ds: &Dataset,
    tracer: &mut Tracer,
    id: u64,
    parent: usize,
) -> (BudgetedResult, RunView) {
    let run = tracer.open("run", ds.tag, id, parent);
    let mut oracle = SnapshotOracle::unbounded(&ds.g1, &ds.g2);
    let mut selector = IncidenceSelector::new(IncidenceRanking::DegreeDiff);
    let mut probe = Probe::new(&mut selector, tracer, ds.tag, id, run);
    let result = run_pipeline(&mut oracle, &mut probe, &SPEC);
    let view = RunView {
        stats: result.stats,
        ledger: result.budget,
        rank_sssp_secs: probe.rank_sssp_secs,
        ranked_active: probe.ranked_active,
    };
    drop(oracle);
    tracer.close(run);
    (result, view)
}

/// Runs the workload.
pub fn run(args: &Args, origin: Instant) -> Outcome {
    let mut tracer = Tracer::new(args.trace, origin);
    let (sets, setup_secs) = set_up(INSTANCES, |i, rep| {
        setup(
            args,
            instance_seed(args.seed, INSTANCES, i),
            &mut tracer,
            rep,
        )
    });
    let data: Vec<Dataset> = sets.into_iter().flatten().collect();
    let mut values: Values = setup_layers(tracer.spans(), setup_secs.len() as u64)
        .into_iter()
        .collect();
    let mut layers = PerPass::default();
    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed, 0x1c);
    let mut schedule = Schedule::new(args.trace, args.seconds, 1);
    let mut latencies = Vec::new();
    let mut first_sets: Vec<Vec<NodeId>> = Vec::new();
    let mut changed = vec![false; data.len()];
    let mut pass_no = 0u64;
    while let Some(traced) = schedule.next_pass() {
        tracer.set_enabled(traced);
        let spans_before = tracer.spans().len();
        let exec_before = cp_exec::global().stats();
        let pass_span = tracer.open("pass", "incidence-full", pass_no, NONE);
        let started = Instant::now();
        let mut results = Vec::with_capacity(data.len());
        for (d, ds) in data.iter().enumerate() {
            let id = pass_no * 1000 + d as u64;
            let t0 = Instant::now();
            let (result, view) = if traced {
                traced_incidence(ds, &mut tracer, id, pass_span)
            } else {
                let result = incidence_full(&ds.g1, &ds.g2, &SPEC).result;
                let view = RunView {
                    stats: result.stats,
                    ledger: result.budget,
                    ..RunView::default()
                };
                (result, view)
            };
            results.push((result, view, t0.elapsed().as_secs_f64()));
        }
        let secs = started.elapsed().as_secs_f64();
        tracer.close(pass_span);
        let exec_after = cp_exec::global().stats();
        schedule.record(traced, secs);
        if traced {
            let views: Vec<RunView> = results.iter().map(|r| r.1).collect();
            layers.push(oracle_layers(&views));
            layers.push(exec_layers(&exec_before, &exec_after));
            layers.push(selector_layers(tracer.since(spans_before)));
        } else {
            latencies.extend(results.iter().map(|r| r.2 * 1e3));
        }
        for (d, (result, _, _)) in results.iter().enumerate() {
            let ds = &data[d];
            tally.record(
                &format!("pass {pass_no} {}", ds.tag),
                check_incidence_sampled(&ds.g1, &ds.g2, result, SLACK, CHECK_SAMPLES, &mut rng),
            );
            if pass_no == 0 {
                first_sets.push(result.candidates.clone());
            } else if !same_set(&first_sets[d], &result.candidates) {
                changed[d] = true;
            }
        }
        pass_no += 1;
    }
    tracer.set_enabled(args.trace);

    values.insert("setup_s", median(&setup_secs));
    values.insert("suite_s", schedule.suite_secs());
    values.insert("run_p50_ms", quantile(&latencies, 0.5));
    values.insert("run_p90_ms", quantile(&latencies, 0.9));
    values.insert(
        "selectors.candidate_set_changes",
        changed.iter().filter(|&&c| c).count() as f64,
    );
    values.insert("bench.trace_overhead_frac", schedule.trace_overhead());
    layers.medians_into(&mut values);
    eprintln!(
        "incidence-full: {pass_no} passes, {} runs timed untraced",
        latencies.len()
    );
    Outcome {
        values,
        tally,
        tracer,
    }
}
