use ci_graph::{Graph, NodeId};

use crate::dampen::{dampening_rate, Dampening};
use crate::tree::Jtt;

/// Query-dependent information about a non-free node of a tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBinding {
    /// Position of the node within the JTT.
    pub pos: usize,
    /// Distinct query keywords matched by the node (`|v_i ∩ Q|`), ≥ 1.
    pub match_count: u32,
    /// Token count of the node (`|v_i|`), ≥ 1.
    pub word_count: u32,
}

/// Per-node and aggregate scores of a JTT.
#[derive(Debug, Clone)]
pub struct TreeScore {
    /// Eq. 3 score of each non-free node, in binding order.
    pub node_scores: Vec<f64>,
    /// Eq. 4 tree score: mean of the node scores.
    pub score: f64,
}

/// Evaluates the RWMP scoring function over a data graph.
///
/// Holds the node importance vector `p` (from `ci-walk`), the derived
/// `p_min` / total surfer count `t`, and the dampening configuration.
pub struct Scorer<'g> {
    graph: &'g Graph,
    p: &'g [f64],
    p_min: f64,
    /// [`Scorer::max_dampening`], computed once at construction.
    max_damp: f64,
    t: f64,
    dampening: Dampening,
    /// Precomputed per-node dampening rates, when the owner (an engine
    /// snapshot) has materialized them once; `None` falls back to computing
    /// the Eq. 2 formula on demand.
    damp: Option<&'g [f64]>,
}

impl<'g> Scorer<'g> {
    /// Creates a scorer. `p` must hold one strictly positive importance per
    /// graph node; `p_min` must be its minimum.
    pub fn new(graph: &'g Graph, p: &'g [f64], p_min: f64, dampening: Dampening) -> Self {
        assert_eq!(
            p.len(),
            graph.node_count(),
            "importance vector length mismatch"
        );
        assert!(p_min > 0.0, "p_min must be positive");
        let p_max = p.iter().cloned().fold(p_min, f64::max);
        Scorer {
            graph,
            p,
            p_min,
            max_damp: dampening_rate(dampening, p_max, p_min),
            t: 1.0 / p_min,
            dampening,
            damp: None,
        }
    }

    /// Like [`Scorer::new`], but [`Scorer::dampening`] reads from the given
    /// precomputed per-node vector instead of re-deriving Eq. 2 on every
    /// call. `damp` must be `dampening_vector()`-equivalent: one rate per
    /// node, computed with the same `dampening` configuration — the engine
    /// snapshot computes it once and shares it between scoring, the
    /// distance indexes, and score explanations.
    pub fn with_dampening_vector(
        graph: &'g Graph,
        p: &'g [f64],
        p_min: f64,
        dampening: Dampening,
        damp: &'g [f64],
    ) -> Self {
        assert_eq!(
            damp.len(),
            graph.node_count(),
            "dampening vector length mismatch"
        );
        let mut s = Scorer::new(graph, p, p_min, dampening);
        s.damp = Some(damp);
        s
    }

    /// Materializes the per-node dampening rates (Eq. 2) as a vector, for
    /// index builds and for [`Scorer::with_dampening_vector`].
    pub fn dampening_vector(&self) -> Vec<f64> {
        self.graph.nodes().map(|v| self.dampening(v)).collect()
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Importance of a node.
    #[inline]
    pub fn importance(&self, v: NodeId) -> f64 {
        self.p.get(v.idx()).copied().unwrap_or(0.0)
    }

    /// Total surfer count `t = 1/p_min`.
    pub fn total_surfers(&self) -> f64 {
        self.t
    }

    /// Dampening rate `d_i` of a node (Eq. 2); served from the precomputed
    /// vector when one was supplied at construction.
    #[inline]
    pub fn dampening(&self, v: NodeId) -> f64 {
        if let Some(damp) = self.damp {
            if let Some(&d) = damp.get(v.idx()) {
                return d;
            }
        }
        dampening_rate(self.dampening, self.importance(v), self.p_min)
    }

    /// The largest dampening rate any node can have — an upper bound on the
    /// per-hop retention of a message, used by the search bounds.
    pub fn max_dampening(&self) -> f64 {
        self.max_damp
    }

    /// Message generation count `r_ii = t · p_i · |v_i ∩ Q| / |v_i|`
    /// (§III-C.1).
    pub fn generation(&self, v: NodeId, match_count: u32, word_count: u32) -> f64 {
        assert!(word_count > 0, "word count must be positive for a matcher");
        self.t * self.importance(v) * match_count as f64 / word_count as f64
    }

    /// Propagates messages of one source through the tree.
    ///
    /// Returns, for each tree position `i`, the *leaving* message count
    /// `f_{src,i}` (received messages dampened by `d_i`); the source
    /// position itself carries its full generation count `gen`. Splits
    /// follow the paper's rule: the share over edge `(m,k)` is
    /// `w_mk / Σ_{n ∈ N(v_m) ∩ V(T)} w_mn` with the denominator summing the
    /// weights toward *all* tree neighbors of `v_m` — including the one the
    /// messages came from, whose share is sent back and discarded.
    pub fn flows_from(&self, tree: &Jtt, src: usize, gen: f64) -> Vec<f64> {
        let n = tree.size();
        let mut f = vec![0.0; n];
        if let Some(slot) = f.get_mut(src) {
            *slot = gen;
        }
        // Depth-first propagation outward from the source.
        let mut stack: Vec<(usize, usize)> = vec![(src, src)]; // (node, came_from)
        while let Some((m, from)) = stack.pop() {
            let vm = tree.node(m);
            let leaving = f.get(m).copied().unwrap_or(0.0);
            if leaving <= 0.0 {
                continue;
            }
            // Denominator: total raw weight from v_m to all tree neighbors.
            let denom: f64 = tree
                .adjacent(m)
                .iter()
                .filter_map(|&k| self.graph.edge_weight(vm, tree.node(k)))
                .sum();
            if denom <= 0.0 {
                continue;
            }
            for &k in tree.adjacent(m) {
                if k == from && m != src {
                    continue; // discarded back-flow
                }
                if m == src && k == from {
                    continue; // src sentinel: came_from == src itself
                }
                let vk = tree.node(k);
                let w = match self.graph.edge_weight(vm, vk) {
                    Some(w) => w,
                    None => continue,
                };
                let received = leaving * w / denom;
                if let Some(slot) = f.get_mut(k) {
                    *slot = received * self.dampening(vk);
                }
                stack.push((k, m));
            }
        }
        f
    }

    /// Scores a JTT (Eqs. 3–4). `bindings` lists the tree's non-free nodes
    /// with their match statistics; it must be non-empty.
    ///
    /// For a tree with a single non-free node the paper leaves the score
    /// undefined (no incoming messages); we use the node's own generation
    /// count, which preserves the importance ordering between single-node
    /// answers (see DESIGN.md).
    pub fn score_tree(&self, tree: &Jtt, bindings: &[NodeBinding]) -> TreeScore {
        assert!(
            !bindings.is_empty(),
            "a JTT needs at least one non-free node"
        );
        debug_assert!(
            bindings.iter().all(|b| b.pos < tree.size()),
            "binding position out of range"
        );
        if let [b] = bindings {
            let s = self.generation(tree.node(b.pos), b.match_count, b.word_count);
            return TreeScore {
                node_scores: vec![s],
                score: s,
            };
        }
        // Flows from every source to every tree node.
        let flows: Vec<Vec<f64>> = bindings
            .iter()
            .map(|b| {
                let gen = self.generation(tree.node(b.pos), b.match_count, b.word_count);
                self.flows_from(tree, b.pos, gen)
            })
            .collect();
        let mut node_scores = Vec::with_capacity(bindings.len());
        for (i, bi) in bindings.iter().enumerate() {
            let mut min_flow = f64::INFINITY;
            for (j, fj) in flows.iter().enumerate() {
                if i == j {
                    continue;
                }
                min_flow = min_flow.min(fj.get(bi.pos).copied().unwrap_or(0.0));
            }
            node_scores.push(min_flow);
        }
        let score = node_scores.iter().sum::<f64>() / node_scores.len() as f64;
        TreeScore { node_scores, score }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_graph::GraphBuilder;

    /// Path 0 — 1 — 2 with unit weights; importance p.
    fn path3(p: Vec<f64>) -> (Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 1.0, 1.0);
        (b.build(), p)
    }

    fn p_min(p: &[f64]) -> f64 {
        p.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn generation_formula() {
        let (g, p) = path3(vec![0.2, 0.3, 0.5]);
        let s = Scorer::new(&g, &p, p_min(&p), Dampening::paper_default());
        // t = 1/0.2 = 5; gen = 5 · 0.5 · 2 / 4 = 1.25.
        let gen = s.generation(NodeId(2), 2, 4);
        assert!((gen - 1.25).abs() < 1e-12);
        assert_eq!(s.total_surfers(), 5.0);
    }

    #[test]
    fn flows_on_a_path_dampen_at_each_node() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let f = s.flows_from(&tree, 0, 8.0);
        assert_eq!(f[0], 8.0);
        // Node 0's only tree neighbor is 1; all messages go there, then
        // dampen by d_1. Expected f1 = 8 · d(v1).
        let d1 = s.dampening(NodeId(1));
        assert!((f[1] - 8.0 * d1).abs() < 1e-9);
        // From node 1 (degree 2): denominator = w(1→0) + w(1→2) = 2, half
        // the leaving messages return toward the source and are discarded.
        let d2 = s.dampening(NodeId(2));
        assert!((f[2] - f[1] * 0.5 * d2).abs() < 1e-9);
        assert!(f[2] < f[1] && f[1] < f[0]);
    }

    #[test]
    fn asymmetric_weights_split_proportionally() {
        // Star: center 0 with leaves 1, 2, 3. w(0→1)=1, w(0→2)=2, w(0→3)=1.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[0], n[2], 2.0, 1.0);
        b.add_pair(n[0], n[3], 1.0, 1.0);
        let g = b.build();
        let p = vec![0.4, 0.2, 0.2, 0.2];
        let s = Scorer::new(&g, &p, 0.2, Dampening::paper_default());
        let tree = Jtt::new(vec![n[1], n[0], n[2], n[3]], vec![(0, 1), (1, 2), (1, 3)]).unwrap();
        // Source at leaf 1 (tree pos 0); messages pass through the center.
        let f = s.flows_from(&tree, 0, 10.0);
        // Center (tree pos 1) receives everything (its only path), dampened.
        let d_center = s.dampening(n[0]);
        assert!((f[1] - 10.0 * d_center).abs() < 1e-9);
        // Out of the center, denominator = 1 + 2 + 1 = 4; leaf 2 gets share
        // 2/4, leaf 3 gets 1/4 (the 1/4 toward the source is discarded).
        let d_leaf = s.dampening(n[2]);
        assert!((f[2] - f[1] * 0.5 * d_leaf).abs() < 1e-9);
        assert!((f[3] - f[1] * 0.25 * d_leaf).abs() < 1e-9);
    }

    #[test]
    fn single_non_free_node_scores_by_generation() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::singleton(NodeId(1));
        let score = s.score_tree(
            &tree,
            &[NodeBinding {
                pos: 0,
                match_count: 2,
                word_count: 2,
            }],
        );
        // gen = 4 · 0.5 · 2/2 = 2.
        assert!((score.score - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_matcher_chain_scores_min_flow_average() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let bind = [
            NodeBinding {
                pos: 0,
                match_count: 1,
                word_count: 2,
            },
            NodeBinding {
                pos: 2,
                match_count: 1,
                word_count: 2,
            },
        ];
        let ts = s.score_tree(&tree, &bind);
        // Symmetric ⇒ both node scores equal; score = node score.
        assert!((ts.node_scores[0] - ts.node_scores[1]).abs() < 1e-12);
        assert!((ts.score - ts.node_scores[0]).abs() < 1e-12);
        assert!(ts.score > 0.0);
    }

    #[test]
    fn important_connector_scores_higher() {
        // Two parallel 3-node chains differing only in the middle node's
        // importance — the paper's TSIMMIS example: the better-cited paper
        // must win.
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        // n0 — n1 — n2 (weak middle), n0 — n3 — n2 (strong middle).
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 1.0, 1.0);
        b.add_pair(n[0], n[3], 1.0, 1.0);
        b.add_pair(n[3], n[2], 1.0, 1.0);
        let g = b.build();
        let p = vec![0.2, 0.05, 0.2, 0.55];
        let s = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let bind = |t: &Jtt| {
            vec![
                NodeBinding {
                    pos: t.position(n[0]).unwrap(),
                    match_count: 1,
                    word_count: 2,
                },
                NodeBinding {
                    pos: t.position(n[2]).unwrap(),
                    match_count: 1,
                    word_count: 2,
                },
            ]
        };
        let weak = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (1, 2)]).unwrap();
        let strong = Jtt::new(vec![n[0], n[3], n[2]], vec![(0, 1), (1, 2)]).unwrap();
        let sw = s.score_tree(&weak, &bind(&weak)).score;
        let st = s.score_tree(&strong, &bind(&strong)).score;
        assert!(st > sw, "important connector {st} must beat {sw}");
    }

    #[test]
    fn smaller_trees_preferred_all_else_equal() {
        // Chain of 5 equal-importance nodes; matchers at the ends of a
        // 3-node subtree vs the full 5-node chain (Table I, property 2).
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5).map(|_| b.add_node(0, vec![])).collect();
        for w in n.windows(2) {
            b.add_pair(w[0], w[1], 1.0, 1.0);
        }
        let g = b.build();
        let p = vec![0.2; 5];
        let s = Scorer::new(&g, &p, 0.2, Dampening::paper_default());
        let short = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (1, 2)]).unwrap();
        let long = Jtt::new(
            vec![n[0], n[1], n[2], n[3], n[4]],
            vec![(0, 1), (1, 2), (2, 3), (3, 4)],
        )
        .unwrap();
        let b2 = |a: usize, b_: usize| {
            vec![
                NodeBinding {
                    pos: a,
                    match_count: 1,
                    word_count: 2,
                },
                NodeBinding {
                    pos: b_,
                    match_count: 1,
                    word_count: 2,
                },
            ]
        };
        let s_short = s.score_tree(&short, &b2(0, 2)).score;
        let s_long = s.score_tree(&long, &b2(0, 4)).score;
        assert!(s_short > s_long);
    }

    #[test]
    fn min_flow_selects_weakest_source() {
        // Star center is the destination matcher; two sources with very
        // different importance — the min picks the weaker flow (Eq. 3).
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..3).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[1], n[0], 1.0, 1.0);
        b.add_pair(n[2], n[0], 1.0, 1.0);
        let g = b.build();
        let p = vec![0.1, 0.8, 0.1];
        let s = Scorer::new(&g, &p, 0.1, Dampening::paper_default());
        let tree = Jtt::new(vec![n[0], n[1], n[2]], vec![(0, 1), (0, 2)]).unwrap();
        let bind = [
            NodeBinding {
                pos: 0,
                match_count: 1,
                word_count: 1,
            },
            NodeBinding {
                pos: 1,
                match_count: 1,
                word_count: 1,
            },
            NodeBinding {
                pos: 2,
                match_count: 1,
                word_count: 1,
            },
        ];
        let ts = s.score_tree(&tree, &bind);
        let f_weak = s.flows_from(&tree, 2, s.generation(n[2], 1, 1));
        // Node 0's score is min over sources 1 and 2 — the weak source 2.
        assert!((ts.node_scores[0] - f_weak[0]).abs() < 1e-12);
    }

    #[test]
    fn precomputed_dampening_matches_on_demand() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let on_demand = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        let damp = on_demand.dampening_vector();
        let precomputed =
            Scorer::with_dampening_vector(&g, &p, 0.25, Dampening::paper_default(), &damp);
        for v in g.nodes() {
            assert_eq!(on_demand.dampening(v), precomputed.dampening(v));
        }
        // Tree scores agree bit-for-bit too.
        let tree = Jtt::new(vec![NodeId(0), NodeId(1), NodeId(2)], vec![(0, 1), (1, 2)]).unwrap();
        let bind = [
            NodeBinding {
                pos: 0,
                match_count: 1,
                word_count: 2,
            },
            NodeBinding {
                pos: 2,
                match_count: 1,
                word_count: 2,
            },
        ];
        assert_eq!(
            on_demand.score_tree(&tree, &bind).score,
            precomputed.score_tree(&tree, &bind).score
        );
    }

    #[test]
    #[should_panic(expected = "at least one non-free")]
    fn empty_bindings_rejected() {
        let (g, p) = path3(vec![0.25, 0.5, 0.25]);
        let s = Scorer::new(&g, &p, 0.25, Dampening::paper_default());
        s.score_tree(&Jtt::singleton(NodeId(0)), &[]);
    }
}
