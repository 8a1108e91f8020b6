//! Fig. 7 — the effect of the talk-group size g on mean reciprocal rank
//! (α fixed at 0.15), on both datasets.
//!
//! Paper result: g ∈ [10, 20] gives the best accuracy; very small g
//! over-dampens (the rate range widens), very large g flattens it.

use ci_rank::{EngineBuilder, Ranker};

use crate::setup::{effectiveness, EvalConfig, Harness};
use crate::table::Table;

/// The g values swept (the paper's x-axis: 2–40).
pub const GS: &[f64] = &[2.0, 5.0, 10.0, 20.0, 30.0, 40.0];

/// Runs the sweep and returns one row per g.
pub fn run(cfg: &EvalConfig) -> Table {
    let base = Harness::build(*cfg);
    let mut table = Table::new(
        "fig7",
        "Effect of g on mean reciprocal rank (alpha = 0.15)",
        vec!["g", "mrr_imdb", "mrr_dblp"],
    );
    for &g in GS {
        let imdb_engine = EngineBuilder::new(Harness::imdb_engine_config(&base.imdb, &|c| c.g = g))
            .build(&base.imdb.db)
            .expect("non-empty data");
        let dblp_engine = EngineBuilder::new(Harness::dblp_engine_config(&|c| c.g = g))
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
            format!("{g}"),
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
    fn sweep_produces_a_row_per_g() {
        let cfg = EvalConfig {
            scale: EvalScale::Smoke,
            seed: 5,
        };
        let t = run(&cfg);
        assert_eq!(t.rows.len(), GS.len());
    }
}
