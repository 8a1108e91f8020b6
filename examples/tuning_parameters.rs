//! Parameter tuning walkthrough: sweeps the dampening parameters α and g
//! on a small DBLP workload and prints the resulting MRR grid — a
//! miniature of the paper's Figs. 6–7 usable on your own data.
//!
//! ```text
//! cargo run --release --example tuning_parameters
//! ```

// LINT-EXEMPT(example): examples are runnable documentation; panicking on
// unexpected states keeps them short and is the conventional idiom here.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]

use ci_datagen::{dblp_workload, generate_dblp, DblpConfig};
use ci_eval::{effectiveness_runner, JudgeConfig};
use ci_graph::WeightConfig;
use ci_rank::{CiRankConfig, EngineBuilder, Ranker};

fn main() {
    let data = generate_dblp(DblpConfig {
        papers: 250,
        authors: 120,
        conferences: 8,
        ..Default::default()
    });
    let queries = dblp_workload(&data, 12, 3);
    let judge = JudgeConfig::default();

    println!("MRR grid (rows: alpha, cols: g)\n");
    print!("{:>6}", "");
    for g in [5.0, 10.0, 20.0, 30.0] {
        print!("{g:>8}");
    }
    println!();
    for alpha in [0.05, 0.15, 0.25, 0.35] {
        print!("{alpha:>6}");
        for g in [5.0, 10.0, 20.0, 30.0] {
            let engine = EngineBuilder::new(CiRankConfig {
                weights: WeightConfig::dblp_default(),
                alpha,
                g,
                // Demo budget: pool quality barely changes, runtime does.
                max_expansions: Some(1_500),
                ..Default::default()
            })
            .build(&data.db)
            .unwrap();
            let res = effectiveness_runner(
                &engine,
                &data.truth,
                &queries,
                &[Ranker::CiRank],
                15,
                &judge,
            );
            print!("{:>8.3}", res[0].mrr);
        }
        println!();
    }
    println!("\nThe paper's recommended defaults are alpha = 0.15, g = 20.");
    println!("A flat grid is expected at demo scale — rankings are robust to");
    println!("the dampening parameters unless answers are near-tied (see the");
    println!("Fig. 6/7 discussion in EXPERIMENTS.md).");
}
