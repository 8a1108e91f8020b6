//! RWMP flow state for the branch-and-bound bound.
//!
//! The upper bound of §IV-B needs, for every matcher ("source") inside a
//! candidate, the per-node message flows [`Scorer::flows_from`] would
//! compute over the candidate's JTT. [`FlowState`] holds those flows for
//! one candidate (a flattened `sources × nodes` matrix) and
//! [`compute_flows`] fills it straight from the candidate's parent links,
//! without building a JTT or allocating once its buffers are warm.
//!
//! The search calls [`compute_flows`] in one place: admission, after the
//! structural, leaf, duplicate and distance prunes and just before the
//! bound, into a single buffer the search scratch owns. Flows feed nothing
//! but the bound, so candidates those cheaper prunes reject never pay for
//! them, and no candidate stores a matrix.
//!
//! Bit-identity with [`Scorer::flows_from`] is non-negotiable (the
//! replay-fingerprint tests depend on it) and rests on two facts:
//!
//! 1. per-node flows are closed-form in the parent flow
//!    (`received = leaving · w / denom; f = received · dampening`), so
//!    traversal order cannot change their bits — only the denominator
//!    summation order matters;
//! 2. candidates keep `parent[i] < i`, so the JTT adjacency list of a
//!    node — sorted ascending by [`ci_rwmp::Jtt::new`] — is exactly
//!    `[parent, children ascending]`, which is the order the functions
//!    here sum denominators in.

use ci_rwmp::Scorer;

use crate::candidate::Candidate;
use crate::query::QuerySpec;

fn pos_u32(p: usize) -> u32 {
    debug_assert!(u32::try_from(p).is_ok(), "tree positions fit in u32");
    u32::try_from(p).unwrap_or(u32::MAX)
}

/// Per-candidate flow matrix: for each source (matcher position, stored
/// ascending) the flow value at every tree position, flattened row-major.
/// The search scratch holds one and refills it for every bound — all
/// buffers keep their capacity.
#[derive(Debug, Default, Clone)]
pub struct FlowState {
    /// Matcher positions, ascending (row order of `values`).
    sources: Vec<u32>,
    /// `sources.len() × n` flow values, row-major.
    values: Vec<f64>,
    /// Number of tree positions (row width).
    n: usize,
    /// DFS scratch (`(node, came_from)` pairs); transient.
    stack: Vec<(u32, u32)>,
}

impl FlowState {
    /// Source positions, ascending.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Flow of source row `s` at tree position `pos`. Out-of-range reads
    /// return `+∞`, mirroring the bound code's "a missing flow entry must
    /// not lower the bound" convention.
    pub fn value(&self, s: usize, pos: usize) -> f64 {
        self.values
            .get(s.saturating_mul(self.n).saturating_add(pos))
            .copied()
            .unwrap_or(f64::INFINITY)
    }

    fn reset(&mut self, n: usize) {
        self.sources.clear();
        self.values.clear();
        self.n = n;
    }

    /// Appends a zeroed row and returns its start offset.
    fn push_row(&mut self) -> usize {
        let start = self.values.len();
        self.values.resize(start + self.n, 0.0);
        start
    }
}

/// Weight-split denominator of tree position `m`: the summed edge weights
/// toward all tree neighbors, in JTT adjacency order (`[parent, children
/// ascending]` — see the module docs).
fn denom_of(scorer: &Scorer<'_>, cand: &Candidate, m: usize) -> f64 {
    let graph = scorer.graph();
    let Some(&vm) = cand.nodes.get(m) else {
        return 0.0;
    };
    let mut denom = 0.0;
    if m != 0 {
        if let Some(&p) = cand.parent.get(m) {
            if let Some(&vp) = cand.nodes.get(p as usize) {
                if let Some(w) = graph.edge_weight(vm, vp) {
                    denom += w;
                }
            }
        }
    }
    for i in (m + 1)..cand.size() {
        if cand.parent.get(i).copied() != Some(pos_u32(m)) {
            continue;
        }
        if let Some(&vi) = cand.nodes.get(i) {
            if let Some(w) = graph.edge_weight(vm, vi) {
                denom += w;
            }
        }
    }
    denom
}

/// Drains the DFS stack, propagating flows outward exactly like
/// [`Scorer::flows_from`]: per node, `received = leaving · w / denom` and
/// `f[k] = received · dampening(v_k)`, discarding back-flow toward
/// `came_from`.
fn run_stack(scorer: &Scorer<'_>, cand: &Candidate, row: &mut [f64], stack: &mut Vec<(u32, u32)>) {
    while let Some((m32, from32)) = stack.pop() {
        let (m, from) = (m32 as usize, from32 as usize);
        let Some(&vm) = cand.nodes.get(m) else {
            continue;
        };
        let leaving = row.get(m).copied().unwrap_or(0.0);
        if leaving <= 0.0 {
            continue;
        }
        let denom = denom_of(scorer, cand, m);
        if denom <= 0.0 {
            continue;
        }
        // Neighbors in adjacency order: parent first, children ascending.
        let parent = cand.parent.get(m).copied().unwrap_or(0) as usize;
        if m != 0 && parent != from {
            step(scorer, cand, row, stack, m, vm, parent, leaving, denom);
        }
        for k in (m + 1)..cand.size() {
            if cand.parent.get(k).copied() != Some(m32) {
                continue;
            }
            if k == from {
                continue; // discarded back-flow
            }
            step(scorer, cand, row, stack, m, vm, k, leaving, denom);
        }
    }
}

// LINT-EXEMPT(hot-path): the flat argument list keeps the per-edge step
// inlineable from both call sites; bundling into a context struct would
// re-borrow per field on the innermost loop for no readability gain.
#[allow(clippy::too_many_arguments)]
fn step(
    scorer: &Scorer<'_>,
    cand: &Candidate,
    row: &mut [f64],
    stack: &mut Vec<(u32, u32)>,
    m: usize,
    vm: ci_graph::NodeId,
    k: usize,
    leaving: f64,
    denom: f64,
) {
    let Some(&vk) = cand.nodes.get(k) else {
        return;
    };
    let Some(w) = scorer.graph().edge_weight(vm, vk) else {
        return;
    };
    let received = leaving * w / denom;
    if let Some(slot) = row.get_mut(k) {
        *slot = received * scorer.dampening(vk);
    }
    stack.push((pos_u32(k), pos_u32(m)));
}

/// Computes a candidate's full [`FlowState`] into `out`: one row per
/// matcher position, each a full propagation from that source. Bit-identical
/// to `scorer.flows_from(&cand.to_jtt(), src, gen)` for every source — see
/// the module docs for why.
pub fn compute_flows(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    cand: &Candidate,
    out: &mut FlowState,
) {
    let n = cand.size();
    out.reset(n);
    for pos in 0..n {
        let Some(&v) = cand.nodes.get(pos) else {
            continue;
        };
        let Some(m) = query.matcher(v) else {
            continue;
        };
        out.sources.push(pos_u32(pos));
        let start = out.push_row();
        let Some(row) = out.values.get_mut(start..) else {
            continue;
        };
        if let Some(slot) = row.get_mut(pos) {
            *slot = m.gen;
        }
        out.stack.clear();
        out.stack.push((pos_u32(pos), pos_u32(pos)));
        run_stack(scorer, cand, row, &mut out.stack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MatcherInfo;
    use crate::query::QuerySpec;
    use ci_graph::{GraphBuilder, NodeId};
    use ci_rwmp::Dampening;
    use proptest::prelude::*;

    fn query(matchers: Vec<(u32, u32, f64)>) -> QuerySpec {
        QuerySpec::new(
            vec!["a".into(), "b".into(), "c".into()],
            matchers
                .into_iter()
                .map(|(node, mask, gen)| MatcherInfo {
                    node: NodeId(node),
                    mask,
                    match_count: mask.count_ones(),
                    word_count: 1,
                    gen,
                })
                .collect(),
        )
    }

    /// Weighted 6-node graph with a cycle and asymmetric weights.
    fn graph6() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..6).map(|_| b.add_node(0, vec![])).collect();
        b.add_pair(n[0], n[1], 1.0, 1.0);
        b.add_pair(n[1], n[2], 2.0, 0.5);
        b.add_pair(n[2], n[3], 1.5, 1.0);
        b.add_pair(n[1], n[4], 0.75, 2.0);
        b.add_pair(n[4], n[5], 1.0, 1.0);
        b.add_pair(n[0], n[5], 3.0, 0.25);
        (b.build(), vec![0.3, 0.1, 0.15, 0.2, 0.05, 0.2])
    }

    fn scorer<'a>(g: &'a ci_graph::Graph, p: &'a [f64]) -> Scorer<'a> {
        Scorer::new(g, p, 0.05, Dampening::paper_default())
    }

    fn assert_matches_flows_from(s: &Scorer<'_>, q: &QuerySpec, cand: &Candidate) {
        let mut fs = FlowState::default();
        compute_flows(s, q, cand, &mut fs);
        let tree = cand.to_jtt();
        let mut expected_sources = Vec::new();
        for (pos, &v) in cand.nodes.iter().enumerate() {
            let Some(m) = q.matcher(v) else { continue };
            expected_sources.push(pos as u32);
            let reference = s.flows_from(&tree, pos, m.gen);
            let row_idx = expected_sources.len() - 1;
            for (i, want) in reference.iter().enumerate() {
                assert_eq!(
                    fs.value(row_idx, i).to_bits(),
                    want.to_bits(),
                    "source pos {pos}, tree pos {i}"
                );
            }
        }
        assert_eq!(fs.sources(), expected_sources.as_slice());
    }

    #[test]
    fn from_scratch_matches_flows_from_bitwise() {
        let (g, p) = graph6();
        let s = scorer(&g, &p);
        let q = query(vec![(0, 0b001, 2.0), (3, 0b010, 1.5), (5, 0b100, 0.75)]);
        // Chain 3 → 2 → 1 grown to root 0, then merged shapes via grow.
        let c = Candidate::seed(NodeId(3), 0b010)
            .grow(NodeId(2), &q)
            .grow(NodeId(1), &q)
            .grow(NodeId(0), &q);
        assert_matches_flows_from(&s, &q, &c);
        // Star-ish: root 1 with subtrees toward 2—3 and 4—5.
        let left = Candidate::seed(NodeId(3), 0b010)
            .grow(NodeId(2), &q)
            .grow(NodeId(1), &q);
        let right = Candidate::seed(NodeId(5), 0b100)
            .grow(NodeId(4), &q)
            .grow(NodeId(1), &q);
        let merged = left.merge(&right).expect("disjoint");
        assert_matches_flows_from(&s, &q, &merged);
        // Single node.
        assert_matches_flows_from(&s, &q, &Candidate::seed(NodeId(5), 0b100));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random small trees over a random weighted graph: the flow state
        /// must match `Scorer::flows_from` bit for bit on every candidate
        /// of a random grow chain.
        #[test]
        fn flow_state_matches_reference(
            weights in proptest::collection::vec(1u32..8, 8),
            imp in proptest::collection::vec(1u32..100, 6),
            grow_order in proptest::collection::vec(0usize..6, 5),
            matcher_sel in proptest::collection::vec(0u8..8, 6),
        ) {
            let mut b = GraphBuilder::new();
            let n: Vec<NodeId> = (0..6).map(|_| b.add_node(0, vec![])).collect();
            // Ring + chords, weighted from the strategy.
            let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4), (2, 5)];
            for (i, &(x, y)) in edges.iter().enumerate() {
                let w = f64::from(weights[i % weights.len()]);
                b.add_pair(n[x], n[y], w, w * 0.5);
            }
            let g = b.build();
            let p: Vec<f64> = imp.iter().map(|&x| f64::from(x) / 100.0).collect();
            let p_min = p.iter().copied().fold(f64::INFINITY, f64::min);
            let s = Scorer::new(&g, &p, p_min, Dampening::paper_default());
            let matchers: Vec<(u32, u32, f64)> = matcher_sel
                .iter()
                .enumerate()
                .filter_map(|(i, &sel)| {
                    let mask = u32::from(sel) & 0b111;
                    (mask != 0).then_some((i as u32, mask, 0.5 + i as f64))
                })
                .collect();
            if matchers.is_empty() {
                return Ok(());
            }
            let seed_node = matchers[0].0;
            let q = query(matchers);
            let mut cand = Candidate::seed(NodeId(seed_node), q.mask_of(NodeId(seed_node)));
            assert_matches_flows_from(&s, &q, &cand);
            for &raw in &grow_order {
                let next = NodeId(raw as u32);
                if cand.contains(next) || s.graph().edge_weight(cand.root(), next).is_none() {
                    continue;
                }
                cand = cand.grow(next, &q);
                assert_matches_flows_from(&s, &q, &cand);
            }
        }
    }
}
