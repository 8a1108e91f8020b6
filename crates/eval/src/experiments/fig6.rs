//! Fig. 6 — the effect of the dampening parameter α on mean reciprocal
//! rank (g fixed at 20), on both datasets.
//!
//! Paper result: a plateau of best MRR for α ∈ [0.1, 0.25] (≈ 0.85 on
//! IMDB, ≈ 0.82 on DBLP), degrading outside that band.

use ci_rank::{EngineBuilder, Ranker};

use crate::setup::{effectiveness, EvalConfig, Harness};
use crate::table::Table;

/// The α values swept (the paper's x-axis spans 0.01–0.45).
pub const ALPHAS: &[f64] = &[0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40];

/// Runs the sweep and returns one row per α.
pub fn run(cfg: &EvalConfig) -> Table {
    let base = Harness::build(*cfg);
    let mut table = Table::new(
        "fig6",
        "Effect of alpha on mean reciprocal rank (g = 20)",
        vec!["alpha", "mrr_imdb", "mrr_dblp"],
    );
    for &alpha in ALPHAS {
        let imdb_engine = EngineBuilder::new(Harness::imdb_engine_config(&base.imdb, &|c| {
            c.alpha = alpha
        }))
        .build(&base.imdb.db)
        .expect("non-empty data");
        let dblp_engine = EngineBuilder::new(Harness::dblp_engine_config(&|c| c.alpha = alpha))
            .build(&base.dblp.db)
            .expect("non-empty data");
        let mrr_imdb = effectiveness(
            &imdb_engine,
            &base.imdb.truth,
            &base.imdb_user_log,
            &[Ranker::CiRank],
            cfg.pool_k(),
            &base.judge,
        )[0]
        .mrr;
        let mrr_dblp = effectiveness(
            &dblp_engine,
            &base.dblp.truth,
            &base.dblp_queries,
            &[Ranker::CiRank],
            cfg.pool_k(),
            &base.judge,
        )[0]
        .mrr;
        table.push_row(vec![
            format!("{alpha:.2}"),
            format!("{mrr_imdb:.4}"),
            format!("{mrr_dblp:.4}"),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::EvalScale;

    #[test]
    fn sweep_produces_a_row_per_alpha() {
        let cfg = EvalConfig {
            scale: EvalScale::Smoke,
            seed: 5,
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), ALPHAS.len());
        for r in &t.rows {
            let mrr: f64 = r[1].parse().unwrap();
            assert!((0.0..=1.0).contains(&mrr));
        }
    }
}
