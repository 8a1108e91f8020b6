//! Substrate benches: the power-iteration solver of Eq. 1 and graph
//! construction, which every experiment in §VI pays for at build time.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_bench::dblp_data;
use ci_graph::{build_graph, WeightConfig};
use ci_walk::{pagerank, PowerOptions};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let data = dblp_data();
    let weights = WeightConfig::dblp_default();

    let mut group = c.benchmark_group("substrate");
    group.sample_size(10);

    group.bench_function("build_graph/dblp", |b| {
        b.iter(|| std::hint::black_box(build_graph(&data.db, &weights, None)))
    });

    let graph = build_graph(&data.db, &weights, None);
    group.bench_function("pagerank/power_iteration", |b| {
        b.iter(|| std::hint::black_box(pagerank(&graph, PowerOptions::default())))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
