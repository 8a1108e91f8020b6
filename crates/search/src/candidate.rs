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
        true
    }

    /// Non-root leaf positions (these stay leaves in every extension).
    pub fn frozen_leaves(&self) -> Vec<usize> {
        let mut counts = Vec::new();
        let mut out = Vec::new();
        self.frozen_leaves_into(&mut counts, &mut out);
        out
    }

    /// [`Candidate::frozen_leaves`] into reused buffers (`counts` is the
    /// child-count scratch, `out` receives the leaf positions).
    pub fn frozen_leaves_into(&self, counts: &mut Vec<u32>, out: &mut Vec<usize>) {
        counts.clear();
        counts.resize(self.nodes.len(), 0);
        for &p in self.parent.iter().skip(1) {
            if let Some(slot) = counts.get_mut(p as usize) {
                *slot += 1;
            }
        }
        out.clear();
        out.extend(
            counts
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(_, &c)| c == 0)
                .map(|(i, _)| i),
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

    /// Canonical identity including the root (candidates with the same tree
    /// but different roots expand differently and are both kept).
    pub fn dedup_key(&self) -> (NodeId, ci_rwmp::CanonicalKey) {
        (self.root(), self.to_jtt().canonical_key())
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
    fn frozen_leaves_exclude_root() {
        let q = query(2, vec![(0, 0b01), (2, 0b10)]);
        let c = Candidate::seed(NodeId(0), 0b01).grow(NodeId(9), &q);
        // Root 9 is extendable; node 0 is a frozen leaf.
        assert_eq!(c.frozen_leaves(), vec![1]);
        let seed = Candidate::seed(NodeId(2), 0b10);
        assert!(seed.frozen_leaves().is_empty());
    }

    #[test]
    fn dedup_key_distinguishes_roots() {
        let q = query(2, vec![(0, 0b01), (1, 0b10)]);
        // Same undirected tree {0—1}, rooted at 0 vs at 1.
        let a = Candidate::seed(NodeId(0), 0b01).grow(NodeId(1), &q);
        let b = Candidate::seed(NodeId(1), 0b10).grow(NodeId(0), &q);
        assert_ne!(a.dedup_key(), b.dedup_key());
        assert_eq!(a.to_jtt().canonical_key(), b.to_jtt().canonical_key());
    }
}
