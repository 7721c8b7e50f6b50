//! `table5`: the paper's Table 5 cell, as `run_selector` runs it.
//!
//! Four emulators at scale 0.25 on the evaluation pair, budget
//! `m = scaled_budget(100, scale)`, spec the exact truth at δ = Δmax − 1,
//! the 13 selectors of `SelectorKind::table5_suite()` plus the local
//! classifier: 56 `run_pipeline` calls per pass.

use crate::args::Args;
use crate::check::check_run;
use crate::layers::{
    exec_layers, instance_seed, oracle_layers, same_set, selector_layers, set_up, setup_layers,
    PerPass, RunView, Values,
};
use crate::measure::{median, quantile, Rng, Tally};
use crate::probe::Probe;
use crate::schedule::Schedule;
use crate::trace::{Tracer, NONE};
use crate::Outcome;
use cp_core::coverage::coverage;
use cp_core::exact::TopKSpec;
use cp_core::experiment::{run_budgeted, Snapshots};
use cp_core::selectors::{CandidateSelector, ClassifierConfig, ClassifierSelector, SelectorKind};
use cp_core::topk::BudgetedResult;
use cp_gen::datasets::{DatasetKind, DatasetProfile};
use cp_graph::NodeId;
use std::time::Instant;

/// δ = Δmax − 1.
const SLACK: u32 = 1;
/// Input instances per run: each is the four emulators drawn from its own
/// generator seed, so a run's figures average over several inputs.
const INSTANCES: u64 = 4;

struct Dataset {
    /// Generator and selector seed of the dataset's input instance.
    seed: u64,
    snaps: Snapshots,
    classifier: ClassifierSelector,
    spec: TopKSpec,
}

/// One selector of the suite: a built-in kind or the dataset's classifier.
#[derive(Clone, Copy)]
enum Entry {
    Kind(SelectorKind),
    Classifier,
}

impl Entry {
    fn tag(self) -> &'static str {
        match self {
            Entry::Kind(k) => k.name(),
            Entry::Classifier => "Local classifier",
        }
    }
}

struct Cell {
    /// Position in (dataset, selector) order.
    index: usize,
    dataset: usize,
    entry: Entry,
    result: BudgetedResult,
    view: RunView,
    /// Latency of the `run_budgeted` call.
    secs: f64,
}

fn setup(args: &Args, seed: u64, tracer: &mut Tracer, rep: u64) -> Vec<Dataset> {
    let root = tracer.open("setup", "table5", rep, NONE);
    let data = DatasetKind::ALL
        .iter()
        .map(|&kind| {
            let tag = kind.name();
            let profile = DatasetProfile::try_scaled(kind, args.scale).expect("scale validated");
            let span = tracer.open("gen.generate", tag, rep, root);
            let stream = profile.generate(seed);
            tracer.close(span);
            let span = tracer.open("graph.snapshot", tag, rep, root);
            let mut snaps = Snapshots::from_temporal(tag, &stream, args.threads);
            tracer.close(span);
            let span = tracer.open("exact.truth", tag, rep, root);
            let spec = snaps.truth(SLACK).spec();
            tracer.close(span);
            let span = tracer.open("ml.train", tag, rep, root);
            let config = ClassifierConfig {
                threads: args.threads,
                ..ClassifierConfig::default()
            };
            let classifier = snaps.local_classifier(config, seed);
            tracer.close(span);
            Dataset {
                seed,
                snaps,
                classifier,
                spec,
            }
        })
        .collect();
    tracer.close(root);
    data
}

/// Runs one pass; returns its cells in (dataset, selector) order and its
/// wall clock (output checks excluded). The runs go in a seeded random
/// order, so each group of similar runs spreads over the whole pass
/// instead of sitting in one stretch of it.
fn pass(
    data: &mut [Dataset],
    entries: &[Entry],
    m: u64,
    tracer: &mut Tracer,
    pass_no: u64,
    rng: &mut Rng,
) -> (Vec<Cell>, f64) {
    let mut order: Vec<usize> = (0..data.len() * entries.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let pass_span = tracer.open("pass", "table5", pass_no, NONE);
    let started = Instant::now();
    let mut cells = Vec::with_capacity(order.len());
    for cell in order {
        let (d, entry) = (cell / entries.len(), entries[cell % entries.len()]);
        let ds = &mut data[d];
        let id = pass_no * 1000 + cell as u64;
        let mut built;
        let selector: &mut dyn CandidateSelector = match entry {
            Entry::Kind(kind) => {
                built = kind.build(ds.seed);
                built.as_mut()
            }
            Entry::Classifier => &mut ds.classifier,
        };
        let t0 = Instant::now();
        let (result, view) = if tracer.enabled() {
            let run = tracer.open("run", entry.tag(), id, pass_span);
            let mut probe = Probe::new(selector, tracer, entry.tag(), id, run);
            let result = run_budgeted(&ds.snaps, &mut probe, m, &ds.spec);
            let view = RunView {
                stats: result.stats,
                ledger: result.budget,
                rank_sssp_secs: probe.rank_sssp_secs,
                ranked_active: probe.ranked_active,
            };
            tracer.close(run);
            (result, view)
        } else {
            let result = run_budgeted(&ds.snaps, selector, m, &ds.spec);
            let view = RunView {
                stats: result.stats,
                ledger: result.budget,
                ..RunView::default()
            };
            (result, view)
        };
        let secs = t0.elapsed().as_secs_f64();
        cells.push(Cell {
            index: cell,
            dataset: d,
            entry,
            result,
            view,
            secs,
        });
    }
    let secs = started.elapsed().as_secs_f64();
    tracer.close(pass_span);
    cells.sort_by_key(|c: &Cell| c.index);
    (cells, secs)
}

/// Runs the workload.
pub fn run(args: &Args, origin: Instant) -> Outcome {
    let mut tracer = Tracer::new(args.trace, origin);
    let m = cp_bench::scaled_budget(100, args.scale);
    let mut entries: Vec<Entry> = SelectorKind::table5_suite()
        .into_iter()
        .map(Entry::Kind)
        .collect();
    entries.push(Entry::Classifier);

    let (sets, setup_secs) = set_up(INSTANCES, |i, rep| {
        setup(
            args,
            instance_seed(args.seed, INSTANCES, i),
            &mut tracer,
            rep,
        )
    });
    let mut data: Vec<Dataset> = sets.into_iter().flatten().collect();
    let mut values: Values = setup_layers(tracer.spans(), setup_secs.len() as u64)
        .into_iter()
        .collect();
    let mut layers = PerPass::default();

    let mut tally = Tally::default();
    let mut rng = Rng::new(args.seed, 0x7ab5);
    let mut schedule = Schedule::new(args.trace, args.seconds, 1);
    let mut latencies = Vec::new();
    let mut coverages = Vec::new();
    let mut first_sets: Vec<Vec<NodeId>> = Vec::new();
    let mut changed = vec![false; data.len() * entries.len()];
    let mut pass_no = 0u64;
    while let Some(traced) = schedule.next_pass() {
        tracer.set_enabled(traced);
        let spans_before = tracer.spans().len();
        let exec_before = cp_exec::global().stats();
        let (cells, secs) = pass(&mut data, &entries, m, &mut tracer, pass_no, &mut rng);
        let exec_after = cp_exec::global().stats();
        schedule.record(traced, secs);
        if traced {
            let views: Vec<RunView> = cells.iter().map(|c| c.view).collect();
            layers.push(oracle_layers(&views));
            layers.push(exec_layers(&exec_before, &exec_after));
            layers.push(selector_layers(tracer.since(spans_before)));
        } else {
            latencies.extend(cells.iter().map(|c| c.secs * 1e3));
        }
        let mut cov = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            let ds = &mut data[cell.dataset];
            let what = format!("pass {pass_no} {} {}", ds.snaps.name, cell.entry.tag());
            tally.record(
                &what,
                check_run(&ds.snaps.g1, &ds.snaps.g2, &cell.result, &ds.spec, m),
            );
            cov += coverage(&cell.result.pairs, ds.snaps.truth(SLACK));
            if pass_no == 0 {
                first_sets.push(cell.result.candidates.clone());
            } else if !same_set(&first_sets[i], &cell.result.candidates) {
                changed[i] = true;
            }
        }
        coverages.push(cov / cells.len() as f64);
        pass_no += 1;
    }
    tracer.set_enabled(args.trace);

    values.insert("setup_s", median(&setup_secs));
    values.insert("suite_s", schedule.suite_secs());
    values.insert("run_p50_ms", quantile(&latencies, 0.5));
    values.insert("run_p90_ms", quantile(&latencies, 0.9));
    values.insert("coverage_mean", median(&coverages));
    values.insert(
        "selectors.candidate_set_changes",
        changed.iter().filter(|&&c| c).count() as f64,
    );
    values.insert("bench.trace_overhead_frac", schedule.trace_overhead());
    layers.medians_into(&mut values);
    eprintln!(
        "table5: {} passes, {} runs timed untraced, m = {m}",
        pass_no,
        latencies.len()
    );
    Outcome {
        values,
        tally,
        tracer,
    }
}
