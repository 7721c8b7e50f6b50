//! `stream-serve`: stream replay with reviews, beside a query reader.
//!
//! A `StreamEngine` (MMSD, l = 10, m = 25, Δmax − 1, one pipeline thread,
//! chaining on) is seeded with the first half of each of the Actors,
//! Facebook and DBLP emulators' event streams, for two input instances. The
//! writer replays the other halves through `ingest`, with a `review()` after
//! every 1/75 of each (≈450 reviews per pass); the six replays advance in
//! step. Meanwhile one reader thread sends closed-loop requests through the
//! engines' `QueryEngine`s: pin the epoch, `topk_for_seed(u, 10)`, then 8
//! `delta` and 8 `distance` lookups. Half the seeds are endpoints of the
//! epoch's pairs, half are uniform.

use crate::args::Args;
use crate::check::{bfs, check_answer, check_run, check_seed_topk, pair_truth};
use crate::layers::{
    exec_layers, instance_seed, oracle_layers, set_up, setup_layers, PerPass, RunView, Values,
};
use crate::measure::{median, quantile, ratio, Rng, Tally};
use crate::schedule::Schedule;
use crate::trace::{self, Tracer, NONE};
use crate::Outcome;
use cp_core::exact::TopKSpec;
use cp_core::selectors::{SelectorKind, DEFAULT_LANDMARKS};
use cp_core::topk::BudgetedResult;
use cp_gen::datasets::{DatasetKind, DatasetProfile};
use cp_graph::{Graph, NodeId, TimedEdge};
use cp_query::{Answer, QueryEngine};
use cp_stream::{StreamConfig, StreamEngine, StreamStats};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const DATASETS: [DatasetKind; 3] = [
    DatasetKind::Actors,
    DatasetKind::Facebook,
    DatasetKind::Dblp,
];
const SPEC: TopKSpec = TopKSpec::ThresholdFromMax { slack: 1 };
/// Input instances per pass: each is the three emulators drawn from its own
/// generator seed, so a run's figures average over two inputs.
const INSTANCES: u64 = 2;
/// Reviews per replay: 150 per dataset over the two instances.
const REVIEWS: usize = 75;
/// `k` of each request's per-seed top-k.
const SEED_K: usize = 10;
/// `delta` and `distance` lookups per request.
const LOOKUPS: usize = 8;
/// In traced passes, one request in this many records spans.
const SPAN_EVERY: u64 = 256;
/// One request in this many is checked against BFS truth.
const CHECK_EVERY: u64 = 128;

struct Feed {
    tag: &'static str,
    engine: StreamEngine,
    events: Vec<TimedEdge>,
}

fn setup(args: &Args, m: u64, tracer: &mut Tracer, rep: u64) -> Vec<Feed> {
    let root = tracer.open("setup", "stream-serve", rep, NONE);
    let mut feeds = Vec::new();
    for i in 0..INSTANCES {
        let seed = instance_seed(args.seed, INSTANCES, i);
        let mut config = StreamConfig::new(
            m,
            SelectorKind::Mmsd {
                landmarks: DEFAULT_LANDMARKS,
            },
            SPEC,
            seed,
        )
        .with_chaining(true);
        config.threads = Some(1);
        for kind in DATASETS {
            let tag = kind.name();
            let profile = DatasetProfile::try_scaled(kind, args.scale).expect("scale validated");
            let span = tracer.open("gen.generate", tag, rep, root);
            let stream = profile.generate(seed);
            tracer.close(span);
            let half = stream.num_events().div_ceil(2);
            let span = tracer.open("graph.snapshot", tag, rep, root);
            let initial = stream.snapshot_of_prefix(half);
            tracer.close(span);
            let span = tracer.open("stream.engine", tag, rep, root);
            let engine = StreamEngine::from_snapshot(&initial, config);
            tracer.close(span);
            feeds.push(Feed {
                tag,
                engine,
                events: stream.events()[half..].to_vec(),
            });
        }
    }
    tracer.close(root);
    feeds
}

/// What the reader saw during one pass.
#[derive(Default)]
struct ReaderOut {
    latencies_us: Vec<f64>,
    busy_secs: f64,
    answers: [u64; 3],
    epochs: usize,
    tally: Tally,
}

/// One dataset as the reader sees it: its query engine, and the graph of
/// every epoch published so far (index = review number; 0 is the seed
/// snapshot), for checking answers against BFS.
struct Tenant {
    tag: &'static str,
    qe: QueryEngine,
    graphs: Mutex<Vec<Arc<Graph>>>,
}

/// One request's targets: partners from the seed's top-k first, then
/// uniform nodes.
fn targets(
    u: NodeId,
    top: &[cp_core::exact::ConvergingPair],
    n: usize,
    rng: &mut Rng,
) -> [NodeId; LOOKUPS] {
    let mut out = [u; LOOKUPS];
    for (i, t) in out.iter_mut().enumerate() {
        *t = match top.get(i).filter(|_| i < LOOKUPS / 2) {
            Some(p) if p.pair.0 == u => p.pair.1,
            Some(p) => p.pair.0,
            None => NodeId::new(rng.below(n)),
        };
    }
    out
}

fn answer_kind(a: &Answer) -> usize {
    match a {
        Answer::Exact(_) => 0,
        Answer::Bounded { .. } => 1,
        Answer::Unknown => 2,
    }
}

/// The closed-loop reader: requests back to back until `stop`, each to a
/// dataset drawn at random.
fn reader(
    tenants: &[Tenant],
    stop: &AtomicBool,
    mut rng: Rng,
    tracer: &mut Tracer,
    traced: bool,
    id_base: u64,
) -> ReaderOut {
    let mut out = ReaderOut::default();
    let mut epochs = HashSet::new();
    let started = Instant::now();
    let mut check_secs = 0.0;
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let d = rng.below(tenants.len());
        let Tenant { tag, qe, graphs } = &tenants[d];
        tracer.set_enabled(traced && n.is_multiple_of(SPAN_EVERY));
        let id = id_base + n;
        let t0 = Instant::now();
        let req = tracer.open("request", tag, id, NONE);
        let view = qe.epoch();
        let snap = view.snapshot();
        let universe = snap.graph.num_nodes();
        let pairs = &snap.result.pairs;
        let u = if rng.next_u64() & 1 == 0 && !pairs.is_empty() {
            let p = pairs[rng.below(pairs.len())];
            if rng.next_u64() & 1 == 0 {
                p.pair.0
            } else {
                p.pair.1
            }
        } else {
            NodeId::new(rng.below(universe))
        };
        let span = tracer.open("topk_for_seed", tag, id, req);
        let top = view.topk_for_seed(u, SEED_K);
        tracer.close(span);
        let vs = targets(u, &top.pairs, universe, &mut rng);
        let mut deltas = [Answer::Unknown; LOOKUPS];
        for (a, &v) in deltas.iter_mut().zip(&vs) {
            let span = tracer.open("delta", tag, id, req);
            *a = view.delta(u, v);
            tracer.close(span);
        }
        let mut distances = [Answer::Unknown; LOOKUPS];
        for (a, &v) in distances.iter_mut().zip(&vs) {
            let span = tracer.open("distance", tag, id, req);
            *a = view.distance(u, v);
            tracer.close(span);
        }
        tracer.close(req);
        out.latencies_us.push(t0.elapsed().as_secs_f64() * 1e6);
        for a in deltas.iter().chain(&distances) {
            out.answers[answer_kind(a)] += 1;
        }
        let review = view.review();
        if review >= 1 {
            epochs.insert((d, review));
        }
        if n.is_multiple_of(CHECK_EVERY) && review >= 1 {
            let c0 = Instant::now();
            let g1 = graphs
                .lock()
                .expect("the writer never panics holding the graph list")
                .get(review as usize - 1)
                .cloned();
            let outcome = match g1 {
                None => Err(format!(
                    "epoch {review} published before its first snapshot"
                )),
                Some(g1) => {
                    let (d1, d2) = (bfs(&g1, u), bfs(&snap.graph, u));
                    check_seed_topk(u, &top, &d1, &d2, SEED_K).and_then(|()| {
                        vs.iter().zip(deltas.iter().zip(&distances)).try_for_each(
                            |(&v, (&da, &ds))| {
                                let (dist, delta) = pair_truth(&d1, &d2, v);
                                check_answer("delta", da, delta)?;
                                check_answer("distance", ds, dist)
                            },
                        )
                    })
                }
            };
            out.tally
                .record(&format!("{tag} epoch {review} seed {u:?}"), outcome);
            check_secs += c0.elapsed().as_secs_f64();
        }
        n += 1;
    }
    tracer.set_enabled(false);
    out.busy_secs = started.elapsed().as_secs_f64() - check_secs;
    out.epochs = epochs.len();
    out
}

/// A published review, kept for its output check.
struct Review {
    g1: Arc<Graph>,
    g2: Arc<Graph>,
    result: BudgetedResult,
    stats: StreamStats,
    secs: f64,
}

/// One pass over all datasets.
#[derive(Default)]
struct PassOut {
    replay_secs: f64,
    review_ms: Vec<f64>,
    offered: u64,
    rejected: u64,
    reviews: usize,
    views: Vec<RunView>,
    advance: f64,
    pipeline: f64,
    publish: f64,
    donor_hits: f64,
    charged: f64,
    selector: f64,
    reader: ReaderOut,
}

/// One pass: every feed's remaining events replayed in step, a review of
/// each after every 1/`REVIEWS` of its events, so every dataset's reviews
/// spread over the whole pass; the reader queries all the engines.
#[allow(clippy::too_many_arguments)]
fn pass(
    mut feeds: Vec<Feed>,
    args: &Args,
    m: u64,
    traced: bool,
    tracer: &mut Tracer,
    origin: Instant,
    pass_no: u64,
    tally: &mut Tally,
) -> PassOut {
    let mut out = PassOut::default();
    let tenants: Vec<Tenant> = feeds
        .iter()
        .map(|f| Tenant {
            tag: f.tag,
            qe: QueryEngine::new(f.engine.reader()),
            graphs: Mutex::new(vec![Arc::clone(f.engine.current_graph())]),
        })
        .collect();
    let mut reviews: Vec<Vec<Review>> = feeds.iter().map(|_| Vec::new()).collect();
    let stop = AtomicBool::new(false);
    let rng = Rng::new(args.seed, 0x5e00 + pass_no);
    let id_base = pass_no << 40;
    let mut reader_tracer = Tracer::new(false, origin);
    let (replay, reader_out) = std::thread::scope(|s| {
        let handle = s.spawn(|| reader(&tenants, &stop, rng, &mut reader_tracer, traced, id_base));
        let started = Instant::now();
        let mut prev: Vec<Arc<Graph>> = feeds
            .iter()
            .map(|f| Arc::clone(f.engine.current_graph()))
            .collect();
        for chunk in 0..REVIEWS {
            for (d, feed) in feeds.iter_mut().enumerate() {
                let len = feed.events.len();
                let every = len.div_ceil(REVIEWS).max(1);
                let (lo, hi) = ((chunk * every).min(len), ((chunk + 1) * every).min(len));
                if lo == hi {
                    continue;
                }
                let tag = feed.tag;
                let ids = id_base | (d as u64) << 32;
                for (i, &e) in feed.events[lo..hi].iter().enumerate() {
                    let t0 = traced.then(Instant::now);
                    if feed.engine.ingest(e).is_err() {
                        out.rejected += 1;
                    }
                    if let Some(t0) = t0 {
                        tracer.record(
                            "ingest",
                            tag,
                            ids | (lo + i) as u64,
                            NONE,
                            t0,
                            Instant::now(),
                        );
                    }
                }
                let t0 = Instant::now();
                let snap = feed.engine.review();
                let t1 = Instant::now();
                tracer.record("review", tag, ids | snap.review as u64, NONE, t0, t1);
                tenants[d]
                    .graphs
                    .lock()
                    .expect("the reader never panics holding the graph list")
                    .push(Arc::clone(&snap.graph));
                reviews[d].push(Review {
                    g1: std::mem::replace(&mut prev[d], Arc::clone(&snap.graph)),
                    g2: Arc::clone(&snap.graph),
                    result: snap.result.clone(),
                    stats: snap.stats.clone(),
                    secs: (t1 - t0).as_secs_f64(),
                });
            }
        }
        let replay = started.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        (replay, handle.join().expect("query reader panicked"))
    });
    tracer.absorb(reader_tracer);
    out.replay_secs = replay;
    out.offered = feeds.iter().map(|f| f.events.len() as u64).sum();
    for (feed, reviews) in feeds.iter().zip(&reviews) {
        out.reviews += reviews.len();
        for r in reviews {
            tally.record(
                &format!("pass {pass_no} {} review {}", feed.tag, r.stats.review),
                check_run(&r.g1, &r.g2, &r.result, &SPEC, m),
            );
            let p = &r.stats.pipeline;
            out.review_ms.push(r.secs * 1e3);
            out.advance += r.stats.advance_secs;
            out.pipeline += r.stats.pipeline_secs;
            out.publish += r.secs - r.stats.advance_secs - r.stats.pipeline_secs;
            out.donor_hits += (r.stats.donor_chain_hits + r.stats.repaired_rows) as f64;
            out.charged += p.sssp_computed as f64;
            out.selector += p.selector_secs;
            out.views.push(RunView {
                stats: *p,
                ledger: r.result.budget,
                // The engine builds its selector internally, so ranking is
                // visible only through the program's own counters: its
                // SSSP share is bounded by the selector's wall clock, and
                // the candidate set stands in for the ranked nodes.
                rank_sssp_secs: p.selector_secs.min(p.sssp_secs),
                ranked_active: r.result.candidates.len() as u64,
            });
        }
    }
    tally.absorb(reader_out.tally);
    out.reader = reader_out;
    out
}

/// Sets up once, appending the wall clock to `setup_secs`.
fn timed_setup(args: &Args, m: u64, tracer: &mut Tracer, setup_secs: &mut Vec<f64>) -> Vec<Feed> {
    let t0 = Instant::now();
    let feeds = setup(args, m, tracer, setup_secs.len() as u64);
    setup_secs.push(t0.elapsed().as_secs_f64());
    feeds
}

/// Runs the workload.
pub fn run(args: &Args, origin: Instant) -> Outcome {
    let mut tracer = Tracer::new(args.trace, origin);
    let m = cp_bench::scaled_budget(100, args.scale);
    // Every pass replays the same input on a fresh engine: two are set up
    // ahead (an untraced and a traced pass), more on demand.
    let (made, mut setup_secs) = set_up(2, |_, rep| setup(args, m, &mut tracer, rep));
    let mut ready: VecDeque<Vec<Feed>> = made.into();

    let mut tally = Tally::default();
    let mut layers = PerPass::default();
    let mut schedule = Schedule::new(args.trace, args.seconds, 1);
    let mut review_ms = Vec::new();
    let mut events_per_s = Vec::new();
    let mut query_us = Vec::new();
    let (mut requests, mut busy) = (0.0, 0.0);
    let mut pass_no = 0u64;
    while let Some(traced) = schedule.next_pass() {
        let feeds = match ready.pop_front() {
            Some(feeds) => feeds,
            None => {
                tracer.set_enabled(args.trace);
                timed_setup(args, m, &mut tracer, &mut setup_secs)
            }
        };
        tracer.set_enabled(traced);
        let spans_before = tracer.spans().len();
        let exec_before = cp_exec::global().stats();
        let out = pass(
            feeds,
            args,
            m,
            traced,
            &mut tracer,
            origin,
            pass_no,
            &mut tally,
        );
        let exec_after = cp_exec::global().stats();
        schedule.record(traced, out.replay_secs);
        if traced {
            let spans = tracer.since(spans_before);
            let us = |name: &str| median(&trace::lengths(spans, name)) * 1e6;
            let answers: u64 = out.reader.answers.iter().sum();
            let frac = |k: usize| ratio(out.reader.answers[k] as f64, answers as f64);
            layers.push(oracle_layers(&out.views));
            layers.push(exec_layers(&exec_before, &exec_after));
            layers.push([
                ("selectors.rank_s", out.selector),
                ("selectors.rank_s.landmark", out.selector),
                ("oracle.topk_s", out.pipeline - out.selector),
                ("stream.ingest_us", us("ingest")),
                ("stream.advance_s", out.advance),
                ("stream.pipeline_s", out.pipeline),
                ("stream.publish_s", out.publish),
                ("stream.donor_hit_rate", ratio(out.donor_hits, out.charged)),
                (
                    "stream.rejected_frac",
                    ratio(out.rejected as f64, out.offered as f64),
                ),
                ("query.topk_seed_us", us("topk_for_seed")),
                ("query.delta_us", us("delta")),
                ("query.distance_us", us("distance")),
                ("query.exact_frac", frac(0)),
                ("query.bounded_frac", frac(1)),
                ("query.unknown_frac", frac(2)),
                (
                    "query.epochs_seen",
                    ratio(out.reader.epochs as f64, out.reviews as f64),
                ),
            ]);
        } else {
            review_ms.extend_from_slice(&out.review_ms);
            events_per_s.push(ratio(out.offered as f64, out.replay_secs));
            query_us.extend_from_slice(&out.reader.latencies_us);
            requests += out.reader.latencies_us.len() as f64;
            busy += out.reader.busy_secs;
        }
        pass_no += 1;
    }
    tracer.set_enabled(args.trace);

    let mut values: Values = setup_layers(tracer.spans(), setup_secs.len() as u64)
        .into_iter()
        .collect();
    values.insert("setup_s", median(&setup_secs));
    values.insert("suite_s", schedule.suite_secs());
    values.insert("run_p50_ms", quantile(&review_ms, 0.5));
    values.insert("run_p90_ms", quantile(&review_ms, 0.9));
    values.insert("review_p50_ms", quantile(&review_ms, 0.5));
    values.insert("review_p90_ms", quantile(&review_ms, 0.9));
    values.insert("stream_events_per_s", median(&events_per_s));
    values.insert("query_p50_us", quantile(&query_us, 0.5));
    values.insert("query_p99_us", quantile(&query_us, 0.99));
    values.insert("query_qps", ratio(requests, busy));
    values.insert("bench.trace_overhead_frac", schedule.trace_overhead());
    layers.medians_into(&mut values);
    eprintln!(
        "stream-serve: {pass_no} passes, {} reviews and {} requests timed untraced",
        review_ms.len(),
        query_us.len()
    );
    Outcome {
        values,
        tally,
        tracer,
    }
}
