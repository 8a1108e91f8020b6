//! Concurrency contract of the snapshot architecture: one immutable
//! `EngineSnapshot` behind an `Arc` serves queries from many threads at
//! once, and every thread sees exactly the answers a single-threaded run
//! produces (the snapshot is never mutated; per-thread state lives in
//! each thread's `QuerySession`).

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use std::sync::Arc;
use std::thread;

use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, EngineBuilder, EngineSnapshot, QueryBudget};
use ci_storage::{schemas, Database, Value};

// Compile-time check: the snapshot must be shareable across threads
// without locks.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
    assert_send_sync::<Arc<EngineSnapshot>>();
};

/// A bibliography with several overlapping author/paper clusters so the
/// queries produce multi-answer result lists with real tie-breaking.
fn library_db() -> Database {
    let (mut db, t) = schemas::dblp();
    let authors: Vec<_> = (0..6)
        .map(|i| {
            db.insert(t.author, vec![Value::text(format!("author number{i}"))])
                .unwrap()
        })
        .collect();
    for i in 0..10 {
        let p = db
            .insert(
                t.paper,
                vec![
                    Value::text(format!("paper topic{} shared", i % 3)),
                    Value::int(1990 + i),
                ],
            )
            .unwrap();
        db.link(t.author_paper, authors[i as usize % 6], p).unwrap();
        db.link(t.author_paper, authors[(i as usize + 1) % 6], p)
            .unwrap();
        // Citation chains give the random walk something to rank.
        if i >= 3 {
            let cited = db
                .insert(
                    t.paper,
                    vec![Value::text(format!("cited work {i}")), Value::int(1980)],
                )
                .unwrap();
            db.link(t.cites, p, cited).unwrap();
        }
    }
    db
}

fn queries() -> Vec<&'static str> {
    vec![
        "number0 number1",
        "topic0 shared",
        "number2 topic1",
        "number4 number5",
        "shared topic2",
    ]
}

/// Flattened fingerprint of a result list: scores and node sets, enough
/// to detect any cross-thread divergence including tie-break order.
fn fingerprint(engine: &EngineSnapshot, query: &str) -> Vec<(u64, Vec<u32>)> {
    engine
        .session()
        .search_with_stats(query)
        .unwrap()
        .0
        .into_iter()
        .map(|a| {
            (
                a.score.to_bits(),
                a.nodes.iter().map(|n| n.node.0).collect(),
            )
        })
        .collect()
}

#[test]
fn parallel_queries_match_single_threaded_results() {
    let engine = Arc::new(
        EngineBuilder::new(CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        })
        .build(&library_db())
        .unwrap(),
    );

    // Ground truth, single-threaded.
    let expected: Vec<_> = queries().iter().map(|q| fingerprint(&engine, q)).collect();

    // 4+ threads, each running the whole workload several times against
    // the same shared snapshot.
    let handles: Vec<_> = (0..6)
        .map(|_| {
            let engine = Arc::clone(&engine);
            thread::spawn(move || {
                let mut runs = Vec::new();
                for _ in 0..3 {
                    let run: Vec<_> = queries().iter().map(|q| fingerprint(&engine, q)).collect();
                    runs.push(run);
                }
                runs
            })
        })
        .collect();

    for h in handles {
        for run in h.join().expect("query thread panicked") {
            assert_eq!(run, expected, "threaded results diverged");
        }
    }
}

#[test]
fn per_thread_sessions_have_independent_budgets() {
    let snapshot = Arc::new(
        EngineBuilder::new(CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..Default::default()
        })
        .build(&library_db())
        .unwrap(),
    );

    // One thread runs with an expired deadline (must truncate), another
    // unconstrained (must not) — sessions don't leak state through the
    // shared snapshot.
    let strict = {
        let snap = Arc::clone(&snapshot);
        thread::spawn(move || {
            let session = snap
                .session()
                .with_budget(QueryBudget::default().with_timeout(std::time::Duration::ZERO));
            let (_, stats) = session.search_with_stats("number0 number1").unwrap();
            stats.truncation
        })
    };
    let relaxed = {
        let snap = Arc::clone(&snapshot);
        thread::spawn(move || {
            let (answers, stats) = snap.session().search_with_stats("number0 number1").unwrap();
            (answers.len(), stats.truncation)
        })
    };
    assert_eq!(
        strict.join().unwrap(),
        Some(ci_rank::TruncationReason::Deadline)
    );
    let (n, truncation) = relaxed.join().unwrap();
    assert!(n > 0);
    assert_eq!(truncation, None);
}
