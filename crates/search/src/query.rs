use std::collections::HashMap;

use ci_graph::NodeId;
use ci_rwmp::Scorer;

/// A non-free node of the query: which keywords it contains and its RWMP
/// message generation statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatcherInfo {
    /// The graph node.
    pub node: NodeId,
    /// Bitmask of matched keywords (bit `k` set ⇔ contains keyword `k`).
    pub mask: u32,
    /// Distinct matched keywords (`|v ∩ Q|` = `mask.count_ones()`).
    pub match_count: u32,
    /// Node word count (`|v|`), ≥ 1.
    pub word_count: u32,
    /// Message generation count `r_vv` (precomputed).
    pub gen: f64,
}

/// Hard cap on query keywords.
///
/// Keyword coverage is tracked as a `u32` bitmask everywhere (candidate
/// trees, matcher infos, the top-k dominance checks), so a query can name
/// at most 32 keywords — one bit per keyword, with the 32-keyword case
/// using the full `u32::MAX` mask. Raising the cap means widening every
/// mask in the search layer, not just this constant.
pub const MAX_KEYWORDS: usize = 32;

/// Width of a candidate's matcher signature (a `u64`): only the first
/// this many matchers of [`QuerySpec::matchers_sorted`] get a bit.
const SIG_BITS: usize = 64;

/// A resolved keyword query: the keyword list, every matcher with its
/// statistics, and per-keyword aggregates used by the search bounds.
///
/// Queries carry between 1 and [`MAX_KEYWORDS`] keywords; the cap comes
/// from the `u32` keyword bitmask (bit `k` ⇔ keyword `k`), and
/// [`QuerySpec::new`] panics beyond it.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    keywords: Vec<String>,
    /// Each matcher with its signature bit (see [`QuerySpec::sig_bit`]).
    matchers: HashMap<NodeId, (MatcherInfo, u64)>,
    /// Matchers of each keyword, sorted by descending generation count.
    per_keyword: Vec<Vec<NodeId>>,
    /// `R_k`: the largest generation count among keyword `k`'s matchers.
    best_gen: Vec<f64>,
    /// Every matcher node, sorted by descending generation count.
    all_sorted: Vec<NodeId>,
}

impl QuerySpec {
    /// Builds a query spec. `keyword_count` ≤ [`MAX_KEYWORDS`] (masks are
    /// `u32`); every matcher's mask must be a non-empty subset of the
    /// keyword range.
    pub fn new(keywords: Vec<String>, matchers: Vec<MatcherInfo>) -> Self {
        let kc = keywords.len();
        assert!(
            (1..=MAX_KEYWORDS).contains(&kc),
            "between 1 and 32 keywords supported"
        );
        let full = Self::full_mask_for(kc);
        let mut map = HashMap::with_capacity(matchers.len());
        let mut per_keyword = vec![Vec::new(); kc];
        let mut best_gen = vec![0.0f64; kc];
        for m in matchers {
            assert!(
                m.mask != 0 && m.mask & !full == 0,
                "matcher mask out of range"
            );
            assert_eq!(
                m.match_count,
                m.mask.count_ones(),
                "match_count must equal mask bits"
            );
            for k in 0..kc {
                if m.mask & (1 << k) != 0 {
                    if let Some(list) = per_keyword.get_mut(k) {
                        list.push(m.node);
                    }
                    if let Some(best) = best_gen.get_mut(k) {
                        *best = best.max(m.gen);
                    }
                }
            }
            map.insert(m.node, (m, 0));
        }
        let gen_of = |map: &HashMap<NodeId, (MatcherInfo, u64)>, v: &NodeId| {
            map.get(v).map_or(0.0, |(m, _)| m.gen)
        };
        for list in per_keyword.iter_mut() {
            list.sort_unstable_by(|a, b| {
                gen_of(&map, b)
                    .total_cmp(&gen_of(&map, a))
                    .then(a.0.cmp(&b.0))
            });
        }
        let mut all_sorted: Vec<NodeId> = map.keys().copied().collect();
        all_sorted.sort_unstable_by(|a, b| {
            gen_of(&map, b)
                .total_cmp(&gen_of(&map, a))
                .then(a.0.cmp(&b.0))
        });
        for (i, node) in all_sorted.iter().take(SIG_BITS).enumerate() {
            if let Some((_, bit)) = map.get_mut(node) {
                *bit = 1u64 << i;
            }
        }
        QuerySpec {
            keywords,
            matchers: map,
            per_keyword,
            best_gen,
            all_sorted,
        }
    }

    /// Convenience constructor: derives generation counts from the scorer
    /// given `(node, mask, word_count)` triples.
    pub fn from_matches(
        scorer: &Scorer<'_>,
        keywords: Vec<String>,
        matches: Vec<(NodeId, u32, u32)>,
    ) -> Self {
        let infos = matches
            .into_iter()
            .map(|(node, mask, word_count)| {
                let match_count = mask.count_ones();
                MatcherInfo {
                    node,
                    mask,
                    match_count,
                    word_count,
                    gen: scorer.generation(node, match_count, word_count),
                }
            })
            .collect();
        QuerySpec::new(keywords, infos)
    }

    fn full_mask_for(kc: usize) -> u32 {
        if kc == 32 {
            u32::MAX
        } else {
            (1u32 << kc) - 1
        }
    }

    /// Number of query keywords.
    pub fn keyword_count(&self) -> usize {
        self.keywords.len()
    }

    /// The keywords.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Bitmask with every keyword set.
    pub fn full_mask(&self) -> u32 {
        Self::full_mask_for(self.keywords.len())
    }

    /// Matcher info for a node, if it is a matcher.
    pub fn matcher(&self, node: NodeId) -> Option<&MatcherInfo> {
        self.matchers.get(&node).map(|(m, _)| m)
    }

    /// Keyword mask of a node (0 for free nodes).
    pub fn mask_of(&self, node: NodeId) -> u32 {
        self.matchers.get(&node).map_or(0, |(m, _)| m.mask)
    }

    /// Signature bit of a node: bit `i` for the `i`-th node of
    /// [`QuerySpec::matchers_sorted`] when `i < 64`, and 0 for free nodes
    /// and for matchers past the first 64. Two candidates whose
    /// signatures (ORs of these bits) intersect certainly share a node; a
    /// missing bit only hides a shared node, never invents one.
    pub fn sig_bit(&self, node: NodeId) -> u64 {
        self.matchers.get(&node).map_or(0, |&(_, bit)| bit)
    }

    /// All matchers.
    pub fn matchers(&self) -> impl Iterator<Item = &MatcherInfo> {
        self.matchers.values().map(|(m, _)| m)
    }

    /// Number of matcher nodes.
    pub fn matcher_count(&self) -> usize {
        self.matchers.len()
    }

    /// Matchers of keyword `k` (`En(k)`), sorted by descending generation.
    pub fn matchers_of(&self, k: usize) -> &[NodeId] {
        self.per_keyword.get(k).map_or(&[], Vec::as_slice)
    }

    /// `R_k`: the best generation count among matchers of keyword `k`
    /// (0.0 when the keyword matches nothing — the query is then
    /// unanswerable under AND semantics).
    pub fn best_gen(&self, k: usize) -> f64 {
        self.best_gen.get(k).copied().unwrap_or(0.0)
    }

    /// All matcher nodes, sorted by descending generation count.
    pub fn matchers_sorted(&self) -> &[NodeId] {
        &self.all_sorted
    }

    /// True if every keyword has at least one matcher.
    pub fn answerable(&self) -> bool {
        self.per_keyword.iter().all(|l| !l.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mi(node: u32, mask: u32, gen: f64) -> MatcherInfo {
        MatcherInfo {
            node: NodeId(node),
            mask,
            match_count: mask.count_ones(),
            word_count: 2,
            gen,
        }
    }

    #[test]
    fn aggregates_per_keyword() {
        let q = QuerySpec::new(
            vec!["a".into(), "b".into()],
            vec![mi(0, 0b01, 1.0), mi(1, 0b10, 3.0), mi(2, 0b11, 2.0)],
        );
        assert_eq!(q.full_mask(), 0b11);
        assert_eq!(q.matchers_of(0), &[NodeId(2), NodeId(0)]); // sorted by gen
        assert_eq!(q.matchers_of(1), &[NodeId(1), NodeId(2)]);
        assert_eq!(q.best_gen(0), 2.0);
        assert_eq!(q.best_gen(1), 3.0);
        assert!(q.answerable());
        assert_eq!(q.mask_of(NodeId(2)), 0b11);
        assert_eq!(q.mask_of(NodeId(9)), 0);
        // Signature bits follow `matchers_sorted` (descending generation).
        assert_eq!(q.matchers_sorted(), &[NodeId(1), NodeId(2), NodeId(0)]);
        assert_eq!(q.sig_bit(NodeId(1)), 0b001);
        assert_eq!(q.sig_bit(NodeId(2)), 0b010);
        assert_eq!(q.sig_bit(NodeId(0)), 0b100);
        assert_eq!(q.sig_bit(NodeId(9)), 0);
    }

    #[test]
    fn matchers_past_the_signature_width_get_no_bit() {
        let matchers: Vec<MatcherInfo> = (0..70u32)
            .map(|i| mi(i, 0b1, 100.0 - f64::from(i)))
            .collect();
        let q = QuerySpec::new(vec!["a".into()], matchers);
        assert_eq!(q.sig_bit(NodeId(0)), 1);
        assert_eq!(q.sig_bit(NodeId(63)), 1u64 << 63);
        assert_eq!(q.sig_bit(NodeId(64)), 0);
        assert_eq!(q.sig_bit(NodeId(69)), 0);
    }

    #[test]
    fn unanswerable_when_keyword_unmatched() {
        let q = QuerySpec::new(vec!["a".into(), "b".into()], vec![mi(0, 0b01, 1.0)]);
        assert!(!q.answerable());
        assert_eq!(q.best_gen(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "mask out of range")]
    fn oversized_mask_rejected() {
        QuerySpec::new(vec!["a".into()], vec![mi(0, 0b10, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "between 1 and 32")]
    fn empty_query_rejected() {
        QuerySpec::new(vec![], vec![]);
    }

    #[test]
    fn thirty_two_keywords_fill_the_mask_exactly() {
        // Boundary: 32 keywords is the largest query the u32 mask admits;
        // the full mask must be u32::MAX with no overflow in its
        // construction, and the last keyword's bit must round-trip.
        let keywords: Vec<String> = (0..MAX_KEYWORDS).map(|k| format!("k{k}")).collect();
        let matchers: Vec<MatcherInfo> = (0..MAX_KEYWORDS as u32)
            .map(|k| mi(k, 1u32 << k, 1.0 + f64::from(k)))
            .collect();
        let q = QuerySpec::new(keywords, matchers);
        assert_eq!(q.keyword_count(), MAX_KEYWORDS);
        assert_eq!(q.full_mask(), u32::MAX);
        assert!(q.answerable());
        assert_eq!(q.matchers_of(31), &[NodeId(31)]);
        assert_eq!(q.mask_of(NodeId(31)), 1u32 << 31);
    }

    #[test]
    #[should_panic(expected = "between 1 and 32")]
    fn thirty_three_keywords_rejected() {
        // Boundary: one past the mask width must fail loudly rather than
        // silently truncating keyword 32's coverage bit.
        let keywords: Vec<String> = (0..=MAX_KEYWORDS).map(|k| format!("k{k}")).collect();
        QuerySpec::new(keywords, vec![mi(0, 0b1, 1.0)]);
    }
}
