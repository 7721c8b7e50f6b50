//! Benchmarks Brandes edge betweenness (exact vs pivot-sampled) — the hidden
//! cost of the IncBet baseline that the paper's budget model does not even
//! charge for.

use cp_gen::datasets::{DatasetKind, DatasetProfile};
use cp_graph::betweenness::{betweenness_exact, betweenness_sampled};
use cp_graph::NodeId;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_betweenness(c: &mut Criterion) {
    let g = DatasetProfile::scaled(DatasetKind::Facebook, 0.05)
        .generate(17)
        .snapshot_at_fraction(1.0);
    let all: Vec<u32> = (0..g.num_edges() as u32).collect();
    let mut group = c.benchmark_group("betweenness");
    group.sample_size(10);
    group.bench_function("exact", |b| {
        b.iter(|| black_box(betweenness_exact(&g, &all, 4).len()));
    });
    for pivots in [16usize, 64] {
        let n = g.num_nodes();
        let pv: Vec<NodeId> = (0..pivots).map(|i| NodeId::new(i * n / pivots)).collect();
        group.bench_with_input(BenchmarkId::new("sampled", pivots), &pv, |b, pv| {
            b.iter(|| black_box(betweenness_sampled(&g, pv, &all, 4).len()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_betweenness);
criterion_main!(benches);
