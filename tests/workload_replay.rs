//! Frozen-workload replay: a saved query workload reloads exactly and
//! produces identical evaluation results — the reproducibility property a
//! shared benchmark needs.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_datagen::{dblp_workload, generate_dblp, load_workload, save_workload, DblpConfig};
use ci_eval::{effectiveness_runner, JudgeConfig};
use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, EngineBuilder, Ranker};

#[test]
fn saved_workload_replays_identically() {
    let data = generate_dblp(DblpConfig {
        papers: 150,
        authors: 80,
        conferences: 6,
        ..Default::default()
    });
    let queries = dblp_workload(&data, 10, 5);

    let mut buf = Vec::new();
    save_workload(&queries, &mut buf).unwrap();
    let reloaded = load_workload(&mut buf.as_slice()).unwrap();
    assert_eq!(reloaded.len(), queries.len());

    let engine = EngineBuilder::new(CiRankConfig {
        weights: WeightConfig::dblp_default(),
        max_expansions: Some(2_000),
        ..Default::default()
    })
    .build(&data.db)
    .unwrap();
    let judge = JudgeConfig::default();
    let original = effectiveness_runner(
        &engine,
        &data.truth,
        &queries,
        &[Ranker::CiRank, Ranker::Spark],
        12,
        &judge,
    );
    let replayed = effectiveness_runner(
        &engine,
        &data.truth,
        &reloaded,
        &[Ranker::CiRank, Ranker::Spark],
        12,
        &judge,
    );
    for (a, b) in original.iter().zip(&replayed) {
        assert_eq!(a.evaluated, b.evaluated);
        assert_eq!(a.mrr.to_bits(), b.mrr.to_bits());
        assert_eq!(a.precision.to_bits(), b.precision.to_bits());
    }
}
