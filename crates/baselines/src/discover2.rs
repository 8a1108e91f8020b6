//! The DISCOVER2 TF-IDF scoring function (Hristidis, Gravano,
//! Papakonstantinou, VLDB 2003).

use ci_text::InvertedIndex;

/// The DISCOVER2 scoring function (§II-B.1 of the CI-Rank paper):
///
/// ```text
/// score(T, Q) = Σ_{v ∈ T} score(v, Q) / size(T)
/// score(v, Q) = Σ_{k ∈ v ∩ Q}  (1 + ln(1 + ln(tf_k(v))))
///                              ─────────────────────────── · ln(idf_k)
///                              (1 − s) + s · dl_v / avdl_v
/// idf_k = (N_Rel(v) + 1) / df_k(Rel(v))
/// ```
///
/// `docs` are the tree's node ids; `s` is the slope constant (the standard
/// pivoted-normalization value is 0.2).
pub fn discover2_score(index: &InvertedIndex, keywords: &[String], docs: &[u32], s: f64) -> f64 {
    assert!(!docs.is_empty(), "a tree has at least one node");
    assert!((0.0..=1.0).contains(&s), "slope s must lie in [0, 1]");
    let total: f64 = docs
        .iter()
        .map(|&d| node_score(index, keywords, d, s))
        .sum();
    total / docs.len() as f64
}

fn node_score(index: &InvertedIndex, keywords: &[String], doc: u32, s: f64) -> f64 {
    let Some(rel) = index.doc_relation(doc) else {
        return 0.0;
    };
    let stats = index.relation_stats(rel);
    let avdl = stats.avdl().max(f64::MIN_POSITIVE);
    let dl = index.doc_len(doc) as f64;
    let norm = (1.0 - s) + s * dl / avdl;
    let mut score = 0.0;
    let mut seen: Vec<&str> = Vec::new();
    for kw in keywords {
        if seen.contains(&kw.as_str()) {
            continue;
        }
        seen.push(kw);
        let tf = index.tf(kw, doc);
        if tf == 0 {
            continue;
        }
        let df = index.df_in_relation(kw, rel).max(1) as f64;
        let idf = (stats.n_docs as f64 + 1.0) / df;
        score += (1.0 + (1.0 + (tf as f64).ln()).ln()) / norm * idf.ln();
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_text::IndexBuilder;

    /// The paper's TSIMMIS example: two author nodes (docs 0, 1) and two
    /// candidate connecting papers (docs 2, 3) that match no keyword.
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
    fn importance_blind_ties_the_two_jtts() {
        // §II-B: both JTTs score identically under DISCOVER2 because the
        // connecting papers match no keyword.
        let idx = tsimmis_index();
        let a = discover2_score(&idx, &q(), &[0, 2, 1], 0.2);
        let b = discover2_score(&idx, &q(), &[0, 3, 1], 0.2);
        assert!(a > 0.0);
        assert!((a - b).abs() < 1e-12, "DISCOVER2 cannot tell {a} from {b}");
    }

    #[test]
    fn matching_nodes_contribute() {
        let idx = tsimmis_index();
        let single = discover2_score(&idx, &q(), &[0], 0.2);
        let free_only = discover2_score(&idx, &q(), &[2], 0.2);
        assert!(single > 0.0);
        assert_eq!(free_only, 0.0);
    }

    #[test]
    fn size_normalization_penalizes_larger_trees() {
        let idx = tsimmis_index();
        let small = discover2_score(&idx, &q(), &[0, 1], 0.2);
        let large = discover2_score(&idx, &q(), &[0, 2, 3, 1], 0.2);
        assert!(small > large);
    }

    #[test]
    fn duplicate_keywords_count_once() {
        let idx = tsimmis_index();
        let q1 = vec!["ullman".to_string()];
        let q2 = vec!["ullman".to_string(), "ullman".to_string()];
        let a = discover2_score(&idx, &q1, &[1], 0.2);
        let b = discover2_score(&idx, &q2, &[1], 0.2);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn higher_tf_scores_higher() {
        let mut b = IndexBuilder::new();
        b.add_doc(0, 0, "rust rust rust systems");
        b.add_doc(1, 0, "rust systems ideas here");
        let idx = b.build();
        let q = vec!["rust".to_string()];
        assert!(discover2_score(&idx, &q, &[0], 0.2) > discover2_score(&idx, &q, &[1], 0.2));
    }
}
