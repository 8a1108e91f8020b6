//! The SPARK three-factor scoring function (Luo, Lin, Wang, Zhou,
//! SIGMOD 2007).

use std::collections::BTreeSet;

use ci_text::InvertedIndex;

/// Tuning constants of the SPARK scoring function.
#[derive(Debug, Clone, Copy)]
pub struct SparkParams {
    /// Pivoted-normalization slope of score_a (SPARK uses 0.2).
    pub s: f64,
    /// Size-normalization strength of score_c (SPARK uses 0.15).
    pub s1: f64,
    /// Lp-norm exponent of the completeness factor score_b (SPARK uses 2).
    pub p: f64,
}

impl Default for SparkParams {
    fn default() -> Self {
        SparkParams {
            s: 0.2,
            s1: 0.15,
            p: 2.0,
        }
    }
}

/// The SPARK scoring function (§II-B.1 of the CI-Rank paper):
/// `score = score_a · score_b · score_c`.
///
/// * `score_a` — tree-level TF-IDF: term frequencies are summed across the
///   tree (`tf_k(T) = Σ_v tf_k(v)`), and the document length is the total
///   text length `dl_T`.
/// * `score_b` — completeness: an Lp-normed extended-Boolean measure of
///   keyword coverage (1.0 when all keywords are present).
/// * `score_c` — size normalization: `1 + s1 − s1 · size(T)`, floored at a
///   small positive value.
///
/// The paper's `CN*(T)` statistics (the joined relation of the candidate
/// network) are approximated from the participating relations: the joined
/// tuple's average length is the sum of the member relations' average
/// lengths, its cardinality the maximum member cardinality, and keyword
/// document frequencies the maximum member frequency. These choices keep
/// every comparison in the paper's §II-B examples intact (only `dl_T`
/// differs between same-shape JTTs) and are recorded in DESIGN.md.
pub fn spark_score(
    index: &InvertedIndex,
    keywords: &[String],
    docs: &[u32],
    params: &SparkParams,
) -> f64 {
    assert!(!docs.is_empty(), "a tree has at least one node");
    score_a(index, keywords, docs, params.s)
        * score_b(index, keywords, docs, params.p)
        * score_c(docs.len(), params.s1)
}

fn cn_star(index: &InvertedIndex, docs: &[u32]) -> (f64, f64, BTreeSet<u16>) {
    let rels: BTreeSet<u16> = docs.iter().filter_map(|&d| index.doc_relation(d)).collect();
    let avdl: f64 = rels.iter().map(|&r| index.relation_stats(r).avdl()).sum();
    let n = rels
        .iter()
        .map(|&r| index.relation_stats(r).n_docs)
        .max()
        .unwrap_or(0) as f64;
    (avdl, n, rels)
}

fn score_a(index: &InvertedIndex, keywords: &[String], docs: &[u32], s: f64) -> f64 {
    let (avdl, n, rels) = cn_star(index, docs);
    let dl_t: f64 = docs.iter().map(|&d| index.doc_len(d) as f64).sum();
    let norm = (1.0 - s) + s * dl_t / avdl.max(f64::MIN_POSITIVE);
    let mut total = 0.0;
    let mut seen: Vec<&str> = Vec::new();
    for kw in keywords {
        if seen.contains(&kw.as_str()) {
            continue;
        }
        seen.push(kw);
        let tf_t: u32 = docs.iter().map(|&d| index.tf(kw, d)).sum();
        if tf_t == 0 {
            continue;
        }
        let df = rels
            .iter()
            .map(|&r| index.df_in_relation(kw, r))
            .max()
            .unwrap_or(0)
            .max(1) as f64;
        let idf = (n + 1.0) / df;
        total += (1.0 + (1.0 + (tf_t as f64).ln()).ln()) / norm * idf.ln().max(0.0);
    }
    total
}

fn score_b(index: &InvertedIndex, keywords: &[String], docs: &[u32], p: f64) -> f64 {
    let distinct: Vec<&str> = {
        let mut v: Vec<&str> = Vec::new();
        for kw in keywords {
            if !v.contains(&kw.as_str()) {
                v.push(kw);
            }
        }
        v
    };
    let miss: f64 = distinct
        .iter()
        .map(|kw| {
            let present = docs.iter().any(|&d| index.tf(kw, d) > 0);
            if present {
                0.0f64
            } else {
                1.0f64
            }
        })
        .map(|m| m.powf(p))
        .sum();
    1.0 - (miss / distinct.len() as f64).powf(1.0 / p)
}

fn score_c(size: usize, s1: f64) -> f64 {
    (1.0 + s1 - s1 * size as f64).max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_text::IndexBuilder;

    fn tsimmis_index() -> InvertedIndex {
        let mut b = IndexBuilder::new();
        b.add_doc(0, 0, "Yannis Papakonstantinou");
        b.add_doc(1, 0, "Jeffrey Ullman");
        b.add_doc(2, 1, "Capability Based Mediation in TSIMMIS");
        b.add_doc(
            3,
            1,
            "The TSIMMIS Project Integration of Heterogeneous Information Sources",
        );
        b.add_doc(4, 1, "Unrelated filler paper about databases");
        b.build()
    }

    fn q() -> Vec<String> {
        vec!["papakonstantinou".into(), "ullman".into()]
    }

    #[test]
    fn shorter_connector_title_wins_the_paper_example() {
        // §II-B: SPARK ranks the JTT through the *shorter*-titled paper (a)
        // higher, because only dl_T differs — the wrong outcome the paper
        // highlights (paper (b) is the important one).
        let idx = tsimmis_index();
        let via_short = spark_score(&idx, &q(), &[0, 2, 1], &SparkParams::default());
        let via_long = spark_score(&idx, &q(), &[0, 3, 1], &SparkParams::default());
        assert!(
            via_short > via_long,
            "SPARK prefers the shorter title: {via_short} vs {via_long}"
        );
    }

    #[test]
    fn completeness_factor_penalizes_missing_keywords() {
        let idx = tsimmis_index();
        let full = spark_score(&idx, &q(), &[0, 1], &SparkParams::default());
        let half = spark_score(&idx, &q(), &[0], &SparkParams::default());
        // score_b of the half answer is 1 − (1/2)^{1/2} ≈ 0.29.
        assert!(full > half);
        assert!(half > 0.0);
        assert!((score_b(&idx, &q(), &[0], 2.0) - (1.0 - 0.5f64.sqrt())).abs() < 1e-12);
        assert_eq!(score_b(&idx, &q(), &[0, 1], 2.0), 1.0);
    }

    #[test]
    fn size_normalization_decreases_with_size() {
        assert!(score_c(1, 0.15) > score_c(3, 0.15));
        assert!(score_c(3, 0.15) > score_c(8, 0.15));
        // Never negative.
        assert!(score_c(100, 0.15) > 0.0);
    }

    #[test]
    fn tree_level_tf_aggregates_across_nodes() {
        let mut b = IndexBuilder::new();
        b.add_doc(0, 0, "rust");
        b.add_doc(1, 0, "rust");
        b.add_doc(2, 0, "other");
        let idx = b.build();
        let q = vec!["rust".to_string()];
        let two = score_a(&idx, &q, &[0, 1], 0.2);
        let one_plus_free = score_a(&idx, &q, &[0, 2], 0.2);
        assert!(two > one_plus_free);
    }

    #[test]
    fn zero_for_no_matches() {
        let idx = tsimmis_index();
        let s = spark_score(&idx, &q(), &[4], &SparkParams::default());
        assert_eq!(s, 0.0);
    }
}
