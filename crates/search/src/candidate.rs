use ci_graph::NodeId;
use ci_rwmp::Jtt;

use crate::query::QuerySpec;

/// A rooted candidate tree of the branch-and-bound search (§IV-B).
///
/// Position 0 is always the root. The *root-connection invariant* of the
/// paper's grow/merge construction — a candidate only ever attaches to the
/// rest of a larger tree through its root — is what makes the upper bounds
/// sound.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Graph nodes; `nodes[0]` is the root.
    pub nodes: Vec<NodeId>,
    /// Parent position per node; `parent[0] == 0`.
    pub parent: Vec<u32>,
    /// Union of matched keyword bits.
    pub mask: u32,
    /// Maximum root-to-leaf depth.
    pub depth: u32,
    /// Tree diameter.
    pub diameter: u32,
    /// Matcher signature: the OR of [`QuerySpec::sig_bit`] over the
    /// *non-root* nodes. Two same-rooted candidates whose signatures
    /// intersect share a non-root node, so their merge is certain to fail.
    pub sig: u64,
}

impl Candidate {
    /// Initial candidate: a single matcher node.
    pub fn seed(node: NodeId, mask: u32) -> Self {
        debug_assert!(mask != 0, "seed candidates are matcher nodes");
        Candidate {
            nodes: vec![node],
            parent: vec![0],
            mask,
            depth: 0,
            diameter: 0,
            sig: 0,
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        debug_assert!(!self.nodes.is_empty(), "candidates are never empty");
        self.nodes.first().copied().unwrap_or(NodeId(u32::MAX))
    }

    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph node appears in the candidate.
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// An empty candidate shell — only useful as the target of
    /// [`Candidate::set_seed`] / [`Candidate::grow_into`] /
    /// [`Candidate::merge_into`]. The search scratch pool holds these so
    /// candidate construction in the inner loop reuses their buffers.
    pub fn empty() -> Candidate {
        Candidate {
            nodes: Vec::new(),
            parent: Vec::new(),
            mask: 0,
            depth: 0,
            diameter: 0,
            sig: 0,
        }
    }

    /// Overwrites `self` with a seed candidate, reusing the buffers.
    pub fn set_seed(&mut self, node: NodeId, mask: u32) {
        debug_assert!(mask != 0, "seed candidates are matcher nodes");
        self.nodes.clear();
        self.nodes.push(node);
        self.parent.clear();
        self.parent.push(0);
        self.mask = mask;
        self.depth = 0;
        self.diameter = 0;
        self.sig = 0;
    }

    /// *Tree grow*: a new root `new_root` (a graph neighbor of the current
    /// root, not already contained) adopts this candidate as its single
    /// child subtree.
    pub fn grow(&self, new_root: NodeId, query: &QuerySpec) -> Candidate {
        let mut out = Candidate::empty();
        self.grow_into(new_root, query, &mut out);
        out
    }

    /// [`Candidate::grow`] into a reused buffer (no allocation once the
    /// target's buffers have grown to size).
    pub fn grow_into(&self, new_root: NodeId, query: &QuerySpec, out: &mut Candidate) {
        debug_assert!(!self.contains(new_root), "grow target already in tree");
        out.nodes.clear();
        out.nodes.push(new_root);
        out.nodes.extend_from_slice(&self.nodes);
        out.parent.clear();
        out.parent.push(0);
        // Old position i → new position i + 1; old root's parent is the new
        // root (position 0).
        out.parent.push(0);
        for &p in self.parent.get(1..).unwrap_or(&[]) {
            out.parent.push(p + 1);
        }
        out.mask = self.mask | query.mask_of(new_root);
        out.depth = self.depth + 1;
        out.diameter = self.diameter.max(self.depth + 1);
        out.sig = self.sig | query.sig_bit(self.root());
    }

    /// *Tree merge*: combines two candidates sharing the same root. Returns
    /// `None` when their non-root node sets intersect (the paper's sanity
    /// check against cycles).
    pub fn merge(&self, other: &Candidate) -> Option<Candidate> {
        let mut out = Candidate::empty();
        self.merge_into(other, &mut out).then_some(out)
    }

    /// [`Candidate::merge`] into a reused buffer; returns `false` (leaving
    /// `out` unspecified) when the non-root node sets intersect.
    pub fn merge_into(&self, other: &Candidate, out: &mut Candidate) -> bool {
        debug_assert_eq!(self.root(), other.root(), "merge requires equal roots");
        for v in other.nodes.get(1..).unwrap_or(&[]) {
            if self.nodes.contains(v) {
                return false;
            }
        }
        out.nodes.clear();
        out.nodes.extend_from_slice(&self.nodes);
        out.nodes
            .extend_from_slice(other.nodes.get(1..).unwrap_or(&[]));
        out.parent.clear();
        out.parent.extend_from_slice(&self.parent);
        let offset = u32::try_from(self.nodes.len())
            .unwrap_or(u32::MAX)
            .saturating_sub(1);
        for &p in other.parent.get(1..).unwrap_or(&[]) {
            out.parent.push(if p == 0 { 0 } else { p + offset });
        }
        out.mask = self.mask | other.mask;
        out.depth = self.depth.max(other.depth);
        out.diameter = self
            .diameter
            .max(other.diameter)
            .max(self.depth + other.depth);
        out.sig = self.sig | other.sig;
        true
    }

    /// Keyword masks of the candidate's degree-≤ 1 nodes, into reused
    /// buffers (`counts` is child-count scratch): the non-root leaves,
    /// which stay leaves in every extension, and, when `with_root`, the
    /// root if it has at most one child. With `with_root` these are the
    /// mandatory nodes of Definition 3 (see [`crate::is_valid_answer`]).
    pub fn leaf_masks_into(
        &self,
        query: &QuerySpec,
        with_root: bool,
        counts: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) {
        counts.clear();
        counts.resize(self.nodes.len(), 0);
        for &p in self.parent.iter().skip(1) {
            if let Some(slot) = counts.get_mut(p as usize) {
                *slot += 1;
            }
        }
        out.clear();
        if with_root && counts.first().is_some_and(|&c| c <= 1) {
            out.push(query.mask_of(self.root()));
        }
        out.extend(
            self.nodes
                .iter()
                .zip(counts.iter())
                .skip(1)
                .filter(|&(_, &c)| c == 0)
                .map(|(&v, _)| query.mask_of(v)),
        );
    }

    /// Converts to an (unrooted) [`Jtt`].
    pub fn to_jtt(&self) -> Jtt {
        let edges = self
            .parent
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &p)| (p as usize, i))
            .collect();
        // LINT-EXEMPT(invariant): seed/grow/merge maintain tree-ness by
        // construction (parent links always form a rooted tree over
        // distinct nodes); `Jtt::new` merely re-validates it.
        #[allow(clippy::expect_used)]
        Jtt::new(self.nodes.clone(), edges).expect("candidates are trees by construction")
    }

    /// Writes the candidate's dedup identity into `out`: the root, then
    /// one `child << 32 | parent` entry per non-root node, sorted. For a
    /// fixed root the parent map and the undirected edge set determine
    /// each other, so equal encodings ⇔ equal root and equal
    /// [`Jtt::canonical_key`]. Candidates with the same tree but different
    /// roots expand differently and are both kept.
    pub fn dedup_key_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.push(u64::from(self.root().0));
        for (&child, &p) in self.nodes.iter().zip(&self.parent).skip(1) {
            let parent = self.nodes.get(p as usize).map_or(u32::MAX, |v| v.0);
            out.push((u64::from(child.0) << 32) | u64::from(parent));
        }
        if let Some(links) = out.get_mut(1..) {
            links.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::MatcherInfo;

    fn query(keywords: usize, matchers: Vec<(u32, u32)>) -> QuerySpec {
        QuerySpec::new(
            (0..keywords).map(|i| format!("k{i}")).collect(),
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
    fn grow_chain_tracks_depth_and_diameter() {
        let q = query(2, vec![(0, 0b01), (3, 0b10)]);
        let c = Candidate::seed(NodeId(0), 0b01);
        let c = c.grow(NodeId(1), &q);
        assert_eq!(c.root(), NodeId(1));
        assert_eq!(c.depth, 1);
        assert_eq!(c.diameter, 1);
        let c = c.grow(NodeId(2), &q);
        assert_eq!(c.depth, 2);
        assert_eq!(c.diameter, 2);
        assert_eq!(c.nodes, vec![NodeId(2), NodeId(1), NodeId(0)]);
        assert_eq!(c.mask, 0b01);
        let jtt = c.to_jtt();
        assert_eq!(jtt.diameter(), 2);
    }

    #[test]
    fn merge_combines_subtrees_at_root() {
        let q = query(2, vec![(0, 0b01), (2, 0b10)]);
        let left = Candidate::seed(NodeId(0), 0b01).grow(NodeId(9), &q);
        let right = Candidate::seed(NodeId(2), 0b10).grow(NodeId(9), &q);
        let merged = left.merge(&right).expect("disjoint subtrees merge");
        assert_eq!(merged.root(), NodeId(9));
        assert_eq!(merged.size(), 3);
        assert_eq!(merged.mask, 0b11);
        assert_eq!(merged.depth, 1);
        assert_eq!(merged.diameter, 2);
        let jtt = merged.to_jtt();
        assert_eq!(jtt.diameter(), 2);
        assert_eq!(jtt.leaves().len(), 2);
    }

    #[test]
    fn merge_rejects_overlap() {
        let q = query(2, vec![(0, 0b01), (2, 0b10)]);
        let a = Candidate::seed(NodeId(0), 0b01).grow(NodeId(9), &q);
        let b = Candidate::seed(NodeId(2), 0b10)
            .grow(NodeId(0), &q)
            .grow(NodeId(9), &q);
        assert!(a.merge(&b).is_none());
    }

    #[test]
    fn merged_diameter_spans_both_depths() {
        let q = query(2, vec![(0, 0b01), (5, 0b10)]);
        let deep = Candidate::seed(NodeId(0), 0b01)
            .grow(NodeId(1), &q)
            .grow(NodeId(2), &q)
            .grow(NodeId(9), &q); // depth 3
        let shallow = Candidate::seed(NodeId(5), 0b10).grow(NodeId(9), &q); // depth 1
        let merged = deep.merge(&shallow).unwrap();
        assert_eq!(merged.depth, 3);
        assert_eq!(merged.diameter, 4);
        assert_eq!(merged.to_jtt().diameter(), 4);
    }

    #[test]
    fn leaf_masks_cover_frozen_leaves_and_a_low_degree_root() {
        let q = query(2, vec![(0, 0b01), (2, 0b10), (9, 0b11)]);
        let c = Candidate::seed(NodeId(0), 0b01).grow(NodeId(9), &q);
        let (mut counts, mut masks) = (Vec::new(), Vec::new());
        // Root 9 is extendable; node 0 is a frozen leaf.
        c.leaf_masks_into(&q, false, &mut counts, &mut masks);
        assert_eq!(masks, vec![0b01]);
        // As an answer, the single-child root is mandatory too.
        c.leaf_masks_into(&q, true, &mut counts, &mut masks);
        assert_eq!(masks, vec![0b11, 0b01]);
        let seed = Candidate::seed(NodeId(2), 0b10);
        seed.leaf_masks_into(&q, false, &mut counts, &mut masks);
        assert!(masks.is_empty());
        seed.leaf_masks_into(&q, true, &mut counts, &mut masks);
        assert_eq!(masks, vec![0b10]);
        // A root with two children is never mandatory.
        let star = c
            .merge(&Candidate::seed(NodeId(2), 0b10).grow(NodeId(9), &q))
            .unwrap();
        star.leaf_masks_into(&q, true, &mut counts, &mut masks);
        assert_eq!(masks, vec![0b01, 0b10]);
    }

    fn key(c: &Candidate) -> Vec<u64> {
        let mut out = Vec::new();
        c.dedup_key_into(&mut out);
        out
    }

    #[test]
    fn dedup_key_distinguishes_roots() {
        let q = query(2, vec![(0, 0b01), (1, 0b10)]);
        // Same undirected tree {0—1}, rooted at 0 vs at 1.
        let a = Candidate::seed(NodeId(0), 0b01).grow(NodeId(1), &q);
        let b = Candidate::seed(NodeId(1), 0b10).grow(NodeId(0), &q);
        assert_ne!(key(&a), key(&b));
        assert_eq!(a.to_jtt().canonical_key(), b.to_jtt().canonical_key());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        /// Shared root of the grow chains' final step; no chain visits it.
        const TOP: NodeId = NodeId(8);

        /// Matchers 0..5 (masks from `masks`), free nodes 5..8 and `TOP`.
        fn pool_query(masks: &[u32]) -> QuerySpec {
            query(2, (0..5u32).zip(masks.iter().copied()).collect())
        }

        /// Every candidate reachable from random grow chains over nodes
        /// 0..8 (each seeded at a matcher): each chain prefix, each chain
        /// grown into `TOP`, and every disjoint merge of those in both
        /// orders, pairwise and of all three.
        fn pool(q: &QuerySpec, chains: &[(u8, Vec<u8>)]) -> Vec<Candidate> {
            let mut out = Vec::new();
            let mut tops = Vec::new();
            for (seed, grows) in chains {
                let node = NodeId(u32::from(seed % 5));
                let mut c = Candidate::seed(node, q.mask_of(node));
                out.push(c.clone());
                for &g in grows {
                    let next = NodeId(u32::from(g % 8));
                    if !c.contains(next) {
                        c = c.grow(next, q);
                        out.push(c.clone());
                    }
                }
                let top = c.grow(TOP, q);
                out.push(top.clone());
                tops.push(top);
            }
            for (i, a) in tops.iter().enumerate() {
                for (j, b) in tops.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    if let Some(ab) = a.merge(b) {
                        for c in tops.iter().skip(j.max(i) + 1) {
                            out.extend(ab.merge(c));
                        }
                        out.push(ab);
                    }
                }
            }
            out
        }

        fn sig_of_nodes(q: &QuerySpec, c: &Candidate) -> u64 {
            c.nodes.iter().skip(1).fold(0, |s, &v| s | q.sig_bit(v))
        }

        fn chains() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
            proptest::collection::vec((0u8..5, proptest::collection::vec(0u8..8, 0..4)), 3)
        }

        proptest! {
            /// The flat dedup key and the `Jtt` canonical identity agree.
            #[test]
            fn flat_key_matches_canonical_identity(
                masks in proptest::collection::vec(1u32..4, 5),
                chains in chains(),
            ) {
                let q = pool_query(&masks);
                let cands = pool(&q, &chains);
                let keys: Vec<Vec<u64>> = cands.iter().map(key).collect();
                let ids: Vec<_> = cands
                    .iter()
                    .map(|c| (c.root(), c.to_jtt().canonical_key()))
                    .collect();
                for i in 0..cands.len() {
                    for j in 0..cands.len() {
                        prop_assert_eq!(keys[i] == keys[j], ids[i] == ids[j]);
                    }
                }
            }

            /// Signatures are the non-root matcher bits, and intersecting
            /// signatures imply a failing merge.
            #[test]
            fn signature_is_sound(
                masks in proptest::collection::vec(1u32..4, 5),
                chains in chains(),
            ) {
                let q = pool_query(&masks);
                let cands = pool(&q, &chains);
                let mut out = Candidate::empty();
                for a in &cands {
                    prop_assert_eq!(a.sig, sig_of_nodes(&q, a));
                    for b in cands.iter().filter(|b| b.root() == a.root()) {
                        if a.sig & b.sig != 0 {
                            prop_assert!(!a.merge_into(b, &mut out));
                        }
                    }
                }
            }
        }
    }
}
