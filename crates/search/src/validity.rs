use ci_rwmp::Jtt;

use crate::query::{QuerySpec, MAX_KEYWORDS};

/// Checks whether a tree is a valid query answer (Definition 3).
///
/// Conditions, stated root-free (equivalent to the rooted definition for
/// every admissible root choice — see DESIGN.md):
///
/// 1. every keyword is contained in some tree node (AND semantics);
/// 2. there is an assignment `f: keywords → nodes` with `f(k)` containing
///    `k` whose image covers every *mandatory* node — the nodes of degree
///    ≤ 1 (leaves, and a single-child root, which is a degree-1 node).
///
/// Condition 2 is a bipartite matching: each mandatory node must be paired
/// with a distinct keyword it contains (Hall's condition, checked on the
/// nodes' keyword masks).
pub fn is_valid_answer(tree: &Jtt, query: &QuerySpec) -> bool {
    let mut covered = 0u32;
    for &v in tree.nodes() {
        covered |= query.mask_of(v);
    }
    if covered != query.full_mask() {
        return false;
    }
    let mut masks = [0u32; MAX_KEYWORDS];
    let mut n = 0;
    for pos in (0..tree.size()).filter(|&p| tree.adjacent(p).len() <= 1) {
        let Some(slot) = masks.get_mut(n) else {
            return false; // more mandatory nodes than keywords
        };
        *slot = query.mask_of(tree.node(pos));
        n += 1;
    }
    leaf_masks_matchable(masks.get(..n).unwrap_or(&[]))
}

/// Sentinel for "keyword not yet assigned" in the matching state.
const UNASSIGNED: usize = usize::MAX;

/// True if every node, given by its keyword mask, can be assigned a
/// distinct keyword it contains (Hall condition via augmenting paths).
/// Used both for final validity and as a monotone prune on candidate
/// trees (non-root leaves stay leaves under root-only extension). The
/// state is fixed-size: masks are `u32`, so at most [`MAX_KEYWORDS`]
/// nodes can be matched and longer inputs fail at once.
pub(crate) fn leaf_masks_matchable(masks: &[u32]) -> bool {
    if masks.len() > MAX_KEYWORDS {
        return false;
    }
    // keyword -> index (into `masks`) of the node it is assigned to.
    let mut owner = [UNASSIGNED; MAX_KEYWORDS];
    (0..masks.len()).all(|i| augment(i, masks, &mut owner, &mut 0))
}

/// Tries to assign node `i` a keyword, re-assigning earlier nodes along an
/// augmenting path; `seen` marks the keywords this search has visited.
fn augment(i: usize, masks: &[u32], owner: &mut [usize; MAX_KEYWORDS], seen: &mut u32) -> bool {
    let mut free = masks.get(i).copied().unwrap_or(0);
    while free != 0 {
        let k = free.trailing_zeros();
        free &= free - 1;
        if *seen & (1 << k) != 0 {
            continue;
        }
        *seen |= 1 << k;
        let Some(&other) = owner.get(k as usize) else {
            continue;
        };
        if other == UNASSIGNED || augment(other, masks, owner, seen) {
            if let Some(slot) = owner.get_mut(k as usize) {
                *slot = i;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MatcherInfo;
    use ci_graph::NodeId;
    use ci_rwmp::TreeError;

    fn query2(matchers: Vec<(u32, u32)>) -> QuerySpec {
        QuerySpec::new(
            vec!["a".into(), "b".into()],
            matchers
                .into_iter()
                .map(|(node, mask)| MatcherInfo {
                    node: NodeId(node),
                    mask,
                    match_count: mask.count_ones(),
                    word_count: 1,
                    gen: 1.0,
                })
                .collect(),
        )
    }

    #[test]
    fn chain_with_distinct_matcher_leaves_is_valid() -> Result<(), TreeError> {
        // 0(a) — 9(free) — 1(b)
        let q = query2(vec![(0, 0b01), (1, 0b10)]);
        let t = Jtt::new(vec![NodeId(0), NodeId(9), NodeId(1)], vec![(0, 1), (1, 2)])?;
        assert!(is_valid_answer(&t, &q));
        Ok(())
    }

    #[test]
    fn free_leaf_invalidates() -> Result<(), TreeError> {
        let q = query2(vec![(0, 0b01), (1, 0b10)]);
        // 0(a) — 1(b) — 9(free leaf)
        let t = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(9)], vec![(0, 1), (1, 2)])?;
        assert!(!is_valid_answer(&t, &q));
        Ok(())
    }

    #[test]
    fn missing_keyword_invalidates() {
        let q = query2(vec![(0, 0b01), (1, 0b10)]);
        let t = Jtt::singleton(NodeId(0));
        assert!(!is_valid_answer(&t, &q));
    }

    #[test]
    fn single_node_covering_all_keywords_is_valid() {
        let q = query2(vec![(0, 0b11)]);
        let t = Jtt::singleton(NodeId(0));
        assert!(is_valid_answer(&t, &q));
    }

    #[test]
    fn two_leaves_same_single_keyword_invalid() -> Result<(), TreeError> {
        // Both leaves match only keyword a; keyword b sits on the middle.
        let q = query2(vec![(0, 0b01), (1, 0b01), (2, 0b10)]);
        let t = Jtt::new(vec![NodeId(0), NodeId(2), NodeId(1)], vec![(0, 1), (1, 2)])?;
        assert!(!is_valid_answer(&t, &q));
        Ok(())
    }

    #[test]
    fn matching_untangles_overlapping_masks() -> Result<(), TreeError> {
        // Leaf x matches {a}, leaf y matches {a, b}: assign x→a, y→b.
        let q = query2(vec![(0, 0b01), (1, 0b11)]);
        let t = Jtt::new(vec![NodeId(0), NodeId(9), NodeId(1)], vec![(0, 1), (1, 2)])?;
        assert!(is_valid_answer(&t, &q));
        // Order of leaves must not matter.
        let t2 = Jtt::new(vec![NodeId(1), NodeId(9), NodeId(0)], vec![(0, 1), (1, 2)])?;
        assert!(is_valid_answer(&t2, &q));
        Ok(())
    }

    #[test]
    fn more_leaves_than_keywords_invalid() -> Result<(), TreeError> {
        // Star with 3 matcher leaves but only 2 keywords.
        let q = query2(vec![(0, 0b11), (1, 0b11), (2, 0b11)]);
        let t = Jtt::new(
            vec![NodeId(9), NodeId(0), NodeId(1), NodeId(2)],
            vec![(0, 1), (0, 2), (0, 3)],
        )?;
        assert!(!is_valid_answer(&t, &q));
        Ok(())
    }

    #[test]
    fn interior_matcher_covers_keyword_without_assignment() -> Result<(), TreeError> {
        // Chain 0(a) — 2(b, interior) — 1(a): leaves both match a… invalid
        // (two leaves, one keyword a between them).
        let q = query2(vec![(0, 0b01), (1, 0b01), (2, 0b10)]);
        let t = Jtt::new(vec![NodeId(0), NodeId(2), NodeId(1)], vec![(0, 1), (1, 2)])?;
        assert!(!is_valid_answer(&t, &q));
        // But 0(a) — 2(b interior) — 3(b leaf): leaf 3 takes b, leaf 0
        // takes a — valid.
        let q2 = query2(vec![(0, 0b01), (3, 0b10), (2, 0b10)]);
        let t2 = Jtt::new(vec![NodeId(0), NodeId(2), NodeId(3)], vec![(0, 1), (1, 2)])?;
        assert!(is_valid_answer(&t2, &q2));
        Ok(())
    }

    #[test]
    fn mask_matching_follows_hall() {
        assert!(leaf_masks_matchable(&[]));
        assert!(!leaf_masks_matchable(&[0]), "a free leaf takes no keyword");
        assert!(!leaf_masks_matchable(&[0b01, 0b01]));
        // The second node forces the first onto its other keyword.
        assert!(leaf_masks_matchable(&[0b11, 0b01]));
        assert!(!leaf_masks_matchable(&[0b11, 0b11, 0b11]));
        let distinct: Vec<u32> = (0..32).map(|k| 1u32 << k).collect();
        assert!(leaf_masks_matchable(&distinct));
        let too_many = vec![u32::MAX; MAX_KEYWORDS + 1];
        assert!(!leaf_masks_matchable(&too_many));
    }

    /// Exhaustive search for a system of distinct representatives.
    fn brute_force(masks: &[u32], used: u32) -> bool {
        match masks.split_first() {
            None => true,
            Some((&m, rest)) => (0..32)
                .filter(|&k| m & !used & (1 << k) != 0)
                .any(|k| brute_force(rest, used | (1 << k))),
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn mask_matching_agrees_with_brute_force(
                masks in proptest::collection::vec(0u32..16, 0..6),
            ) {
                prop_assert_eq!(leaf_masks_matchable(&masks), brute_force(&masks, 0));
            }
        }
    }
}
