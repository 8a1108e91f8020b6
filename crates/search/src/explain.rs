//! Score explanation: the full decomposition of one answer's CI-Rank
//! score (`ci-obs`).
//!
//! [`explain_answer`] replays the exact arithmetic of
//! [`Scorer::score_tree`] over an answer tree and keeps every
//! intermediate the scoring discards: the per-source message generation
//! counts (§III-C.1), the flow each source delivers to every tree node
//! (Eq. 2 dampening applied hop by hop), which source's message type was
//! the Eq. 3 per-node minimum, and the Eq. 4 mean. The reported `score`
//! is **bit-identical** to [`crate::score_answer`] — explanation re-runs
//! the same operations in the same order, it never re-derives the score a
//! different way.
//!
//! In debug and `strict-invariants` builds the flow matrix is additionally
//! cross-checked bitwise against [`crate::compute_flows`], the flow
//! computation behind the search bound, whenever the tree admits a
//! candidate rooting (every tree produced by the branch-and-bound search
//! does), tying the explanation to the same ground truth the hot path is
//! checked against.
//!
//! The rendered form (the `ci-rank explain` CLI subcommand) and a worked
//! example live in `docs/observability.md`.

use ci_graph::NodeId;
use ci_rwmp::{Jtt, Scorer};

use crate::query::QuerySpec;

/// One tree node of an explained answer, with the flow it receives from
/// every message source.
#[derive(Debug, Clone)]
pub struct ExplainedNode {
    /// Tree position (position of [`ExplainedNode::node`] in the JTT).
    pub pos: usize,
    /// The graph node at this position.
    pub node: NodeId,
    /// Tree position of this node's parent under the explanation's
    /// rooting (position 0 is the root; `parent == pos` only for the
    /// root).
    pub parent: usize,
    /// Dampening rate `d_i` (Eq. 2) applied to every message passing
    /// through this node.
    pub dampening: f64,
    /// Node importance `p_i` (the random-walk stationary probability).
    pub importance: f64,
    /// Query keywords matched by this node (bit `k` ⇔ keyword `k`);
    /// `0` for a free connector node.
    pub mask: u32,
    /// Message flow arriving at this node from each source, indexed like
    /// [`ScoreExplanation::sources`]. Entry `s` is `f_{s,pos}` — the
    /// source's generation count diluted by weight splits and dampened at
    /// every hop of the path (Eq. 2). The source's own entry holds its
    /// full generation count.
    pub incoming: Vec<f64>,
}

/// One message source (matcher node) of an explained answer, with its
/// Eq. 3 node score and the source that produced its minimum.
#[derive(Debug, Clone)]
pub struct ExplainedSource {
    /// Tree position of the source.
    pub pos: usize,
    /// The matcher graph node.
    pub node: NodeId,
    /// Query keywords this source matches.
    pub mask: u32,
    /// Message generation count `r_ii = t · p_i · |v_i ∩ Q| / |v_i|`
    /// (§III-C.1).
    pub generation: f64,
    /// Eq. 3 node score: the minimum over the *other* sources of the flow
    /// they deliver to this node. For a single-matcher tree (where Eq. 3
    /// has no incoming messages) this is the generation count — the
    /// documented single-node convention.
    pub node_score: f64,
    /// Index (into [`ScoreExplanation::sources`]) of the source whose
    /// message type was the Eq. 3 minimum — the least-populous message
    /// type at this node. `None` for a single-matcher tree.
    pub min_source: Option<usize>,
}

/// Full decomposition of one answer's score. Produced by
/// [`explain_answer`]; rendered by the `ci-rank explain` subcommand.
#[derive(Debug, Clone)]
pub struct ScoreExplanation {
    /// Every tree node with its per-source incoming flows, in tree
    /// position order.
    pub nodes: Vec<ExplainedNode>,
    /// Every message source with its Eq. 3 score, in tree position order
    /// (the binding order of the scorer).
    pub sources: Vec<ExplainedSource>,
    /// The Eq. 4 tree score: the mean of the source node scores.
    /// Bit-identical to [`crate::score_answer`] on the same tree.
    pub score: f64,
}

impl ScoreExplanation {
    /// The explained source sitting at tree position `pos`, if any.
    pub fn source_at(&self, pos: usize) -> Option<&ExplainedSource> {
        self.sources.iter().find(|s| s.pos == pos)
    }
}

/// Decomposes the score of `tree` under `query`. Returns `None` when the
/// tree holds no matcher node (it is not an answer to the query — same
/// contract as [`crate::score_answer`]).
pub fn explain_answer(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    tree: &Jtt,
) -> Option<ScoreExplanation> {
    // Bindings exactly as `score_answer` collects them: tree positions
    // ascending, one per matcher node.
    let mut sources: Vec<ExplainedSource> = (0..tree.size())
        .filter_map(|pos| {
            let m = query.matcher(tree.node(pos))?;
            Some(ExplainedSource {
                pos,
                node: m.node,
                mask: m.mask,
                generation: scorer.generation(m.node, m.match_count, m.word_count),
                node_score: f64::NAN,
                min_source: None,
            })
        })
        .collect();
    if sources.is_empty() {
        return None;
    }

    // Flow of every source to every node — the same `flows_from` calls, in
    // the same order, `score_tree` makes (it skips them for a single
    // binding; here they still describe the one source's own generation).
    let flows: Vec<Vec<f64>> = sources
        .iter()
        .map(|s| scorer.flows_from(tree, s.pos, s.generation))
        .collect();
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    cross_check_flows(scorer, query, tree, &sources, &flows);

    let score = if let [only] = sources.as_mut_slice() {
        // Single non-free node: Eq. 3 is undefined (no incoming
        // messages); the scorer uses the generation count.
        only.node_score = only.generation;
        only.generation
    } else {
        for i in 0..sources.len() {
            let pos_i = sources.get(i).map_or(0, |s| s.pos);
            let mut min_flow = f64::INFINITY;
            let mut argmin = None;
            for (j, fj) in flows.iter().enumerate() {
                if i == j {
                    continue;
                }
                let f = fj.get(pos_i).copied().unwrap_or(0.0);
                // Strictly-less keeps the first minimizer on ties and
                // leaves `min_flow` bit-identical to the `f64::min` chain
                // in `score_tree` (no NaNs: flows are products of finite
                // non-negative factors).
                if f < min_flow {
                    min_flow = f;
                    argmin = Some(j);
                }
            }
            if let Some(s) = sources.get_mut(i) {
                s.node_score = min_flow;
                s.min_source = argmin;
            }
        }
        let sum: f64 = sources.iter().map(|s| s.node_score).sum();
        sum / sources.len() as f64
    };

    let parent = parent_positions(tree);
    let nodes = (0..tree.size())
        .map(|pos| {
            let node = tree.node(pos);
            ExplainedNode {
                pos,
                node,
                parent: parent.get(pos).copied().unwrap_or(pos),
                dampening: scorer.dampening(node),
                importance: scorer.importance(node),
                mask: query.mask_of(node),
                incoming: flows
                    .iter()
                    .map(|f| f.get(pos).copied().unwrap_or(0.0))
                    .collect(),
            }
        })
        .collect();

    Some(ScoreExplanation {
        nodes,
        sources,
        score,
    })
}

/// Parent position of every tree position under a position-0 rooting
/// (BFS; the root's parent is itself).
fn parent_positions(tree: &Jtt) -> Vec<usize> {
    let n = tree.size();
    let mut parent = vec![usize::MAX; n];
    if n == 0 {
        return parent;
    }
    if let Some(p) = parent.get_mut(0) {
        *p = 0;
    }
    let mut queue = vec![0usize];
    let mut head = 0;
    while head < queue.len() {
        let Some(&u) = queue.get(head) else { break };
        head += 1;
        for &v in tree.adjacent(u) {
            if parent.get(v).copied() == Some(usize::MAX) {
                if let Some(p) = parent.get_mut(v) {
                    *p = u;
                }
                queue.push(v);
            }
        }
    }
    // Disconnected positions cannot occur in a Jtt; self-parent any
    // leftover sentinel rather than exposing usize::MAX.
    for (i, p) in parent.iter_mut().enumerate() {
        if *p == usize::MAX {
            *p = i;
        }
    }
    parent
}

/// Strict-invariants cross-check: whenever the tree's position numbering
/// is a valid candidate rooting (`parent[i] < i` for every non-root, as
/// every tree the branch-and-bound search emits satisfies — candidates
/// preserve positions into their JTTs), rebuild the [`Candidate`] and
/// assert the incremental-flow machinery produces the explanation's flow
/// matrix *bit for bit*. This ties `explain` to the same [`FlowState`]
/// ground truth the query hot path is checked against.
#[cfg(any(debug_assertions, feature = "strict-invariants"))]
fn cross_check_flows(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    tree: &Jtt,
    sources: &[ExplainedSource],
    flows: &[Vec<f64>],
) {
    use crate::candidate::Candidate;
    use crate::flows::{compute_flows, FlowState};

    let n = tree.size();
    let mut parent = Vec::with_capacity(n);
    parent.push(0u32);
    for pos in 1..n {
        // The candidate parent is the unique adjacent position below
        // `pos`; more or fewer than one means this numbering is not a
        // candidate rooting and the check does not apply.
        let mut below = tree.adjacent(pos).iter().filter(|&&a| a < pos);
        let (Some(&p), None) = (below.next(), below.next()) else {
            return;
        };
        let Ok(p32) = u32::try_from(p) else { return };
        parent.push(p32);
    }
    let cand = Candidate {
        nodes: (0..n).map(|pos| tree.node(pos)).collect(),
        parent,
        mask: (0..n)
            .map(|pos| query.mask_of(tree.node(pos)))
            .fold(0, |a, m| a | m),
        depth: tree.distances_from(0).into_iter().max().unwrap_or(0),
        diameter: tree.diameter(),
        sig: (1..n).fold(0, |s, pos| s | query.sig_bit(tree.node(pos))),
    };
    let mut state = FlowState::default();
    compute_flows(scorer, query, &cand, &mut state);
    let expected: Vec<u32> = sources
        .iter()
        .filter_map(|s| u32::try_from(s.pos).ok())
        .collect();
    assert_eq!(
        state.sources(),
        expected.as_slice(),
        "explain: FlowState sources diverged from the scoring bindings"
    );
    for (s, row) in flows.iter().enumerate() {
        for (pos, &f) in row.iter().enumerate() {
            assert!(
                state.value(s, pos).to_bits() == f.to_bits(),
                "explain: flow f_[{s},{pos}] diverged bitwise from FlowState \
                 ({} vs {})",
                state.value(s, pos),
                f
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::answer::score_answer;
    use crate::bnb::bnb_search;
    use crate::SearchOptions;
    use ci_graph::GraphBuilder;
    use ci_index::NoIndex;
    use ci_rwmp::Dampening;

    /// The coauthor scenario of `bnb.rs`: two authors joined by two
    /// connector papers of different importance.
    fn setup() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 1.0, 1.0);
        b.add_pair(n[0], n[3], 1.0, 1.0);
        b.add_pair(n[3], n[2], 1.0, 1.0);
        (b.build(), vec![0.2, 0.05, 0.2, 0.55])
    }

    fn query_ab(scorer: &Scorer<'_>) -> QuerySpec {
        QuerySpec::from_matches(
            scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        )
    }

    #[test]
    fn explanation_score_is_bit_identical_to_scoring() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(!answers.is_empty());
        for a in &answers {
            let ex = explain_answer(&scorer, &q, &a.tree).expect("answers have matchers");
            assert_eq!(
                ex.score.to_bits(),
                a.score.to_bits(),
                "explanation must replay the exact score"
            );
            let rescore = score_answer(&scorer, &q, &a.tree).unwrap();
            assert_eq!(ex.score.to_bits(), rescore.to_bits());
        }
    }

    #[test]
    fn min_source_identifies_the_eq3_minimum() {
        // Star: destination matcher at the center, two sources of very
        // different importance — the weak source must be the argmin.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[1], n[0], 1.0, 1.0);
        b.add_pair(n[2], n[0], 1.0, 1.0);
        let g = b.build();
        let p = vec![0.1, 0.8, 0.1];
        let scorer = Scorer::new(&g, &p, 0.1, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into(), "c".into()],
            vec![(n[0], 0b001, 1), (n[1], 0b010, 1), (n[2], 0b100, 1)],
        );
        let tree = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (0, 2)]).unwrap();
        let ex = explain_answer(&scorer, &q, &tree).unwrap();
        assert_eq!(ex.sources.len(), 3);
        // Center (pos 0): its minimum comes from the weak source at n2
        // (source index 2), whose generation is the smallest flow.
        let center = ex.source_at(0).unwrap();
        assert_eq!(center.min_source, Some(2));
        // Its node score equals the flow source 2 delivers to position 0.
        let weak_flow = ex.nodes[0].incoming[2];
        assert_eq!(center.node_score.to_bits(), weak_flow.to_bits());
        // Free-node bookkeeping: every node reports its dampening and the
        // full incoming row.
        for node in &ex.nodes {
            assert_eq!(node.incoming.len(), ex.sources.len());
            assert!(node.dampening > 0.0 && node.dampening <= 1.0);
        }
    }

    #[test]
    fn single_matcher_tree_scores_by_generation() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(3), 0b11, 3)],
        );
        let tree = Jtt::singleton(NodeId(3));
        let ex = explain_answer(&scorer, &q, &tree).unwrap();
        assert_eq!(ex.sources.len(), 1);
        assert_eq!(ex.sources[0].min_source, None);
        assert_eq!(ex.score.to_bits(), ex.sources[0].generation.to_bits());
        let rescore = score_answer(&scorer, &q, &tree).unwrap();
        assert_eq!(ex.score.to_bits(), rescore.to_bits());
    }

    #[test]
    fn matcherless_tree_is_not_explained() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let tree = Jtt::singleton(NodeId(1)); // free connector node
        assert!(explain_answer(&scorer, &q, &tree).is_none());
    }

    #[test]
    fn parents_follow_the_position_zero_rooting() {
        let (g, p) = setup();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let tree = Jtt::new(vec![NodeId(0), NodeId(3), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let ex = explain_answer(&scorer, &q, &tree).unwrap();
        let parents: Vec<usize> = ex.nodes.iter().map(|n| n.parent).collect();
        assert_eq!(parents, vec![0, 0, 1]);
    }
}
