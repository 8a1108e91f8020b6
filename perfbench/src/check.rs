//! The output check every query's answers must pass.

use ci_rwmp::{Jtt, Scorer};
use ci_search::{is_valid_answer, score_answer, QuerySpec};

/// What a query returned, reduced to what must repeat bit for bit: each
/// answer's score bits and node ids, in rank order.
pub type Fingerprint = Vec<(u64, Vec<u32>)>;

pub fn fingerprint<'a>(answers: impl Iterator<Item = (&'a Jtt, f64)>) -> Fingerprint {
    answers
        .map(|(tree, score)| (score.to_bits(), tree.nodes().iter().map(|n| n.0).collect()))
        .collect()
}

/// Checks one query's ranked answers: at most `k` of them, each a valid
/// answer (Definition 3) whose score re-computes bit-identically, in
/// descending score order.
pub fn check_answers<'a>(
    scorer: &Scorer<'_>,
    spec: &QuerySpec,
    k: usize,
    answers: impl Iterator<Item = (&'a Jtt, f64)>,
) -> Result<(), String> {
    let mut count = 0;
    let mut previous = f64::INFINITY;
    for (rank, (tree, score)) in answers.enumerate() {
        count += 1;
        if !is_valid_answer(tree, spec) {
            return Err(format!("answer {rank} is not a valid answer"));
        }
        match score_answer(scorer, spec, tree) {
            Some(s) if s.to_bits() == score.to_bits() => {}
            other => {
                return Err(format!(
                    "answer {rank} scored {score:?} but re-scores to {other:?}"
                ))
            }
        }
        if score > previous {
            return Err(format!("answer {rank} ({score:?}) outranks {previous:?}"));
        }
        previous = score;
    }
    if count > k {
        return Err(format!("{count} answers for k = {k}"));
    }
    Ok(())
}
