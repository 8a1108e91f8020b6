//! Reusable branch-and-bound working memory.
//!
//! Every structure the search loop touches per candidate lives here and is
//! recycled across runs: the candidate arena, the priority queue, the
//! dedup set, the per-root partner chains, a freelist ("pool") of
//! candidate slots, and the one flow buffer admission computes each
//! bound's flows into. [`crate::bnb_search_in`] takes a
//! `&mut SearchScratch`; the engine's query session owns one per session,
//! so repeated queries reach a steady state where candidate construction
//! (grow/merge/seed) performs **no heap allocation at all** — slots come
//! from the pool and their `Vec` buffers retain capacity.
//! [`SearchScratch::slots_allocated`] counts slot constructions so tests
//! can assert that steady state.
//!
//! Slots hold no flow state: flows feed only the bound, which admission
//! computes once per surviving candidate. The popped candidate is read in
//! place through its arena index, not copied out.
//!
//! The per-root partner index is an intrusive linked list over arena
//! indices (`root_head[node] → links[idx].next → …`), dense by node id
//! with a run-generation stamp instead of per-run clearing — the same
//! design as the flat oracle cache, and for the same reason: no hashing
//! and no `HashMap` churn in the inner loop. Chains are built newest-first
//! and reversed into a buffer on read, preserving the admission-order
//! iteration the previous `HashMap<NodeId, Vec<usize>>` provided (the
//! merge order is observable through `SearchStats::merges` and the
//! replay fingerprints, so it must not change).
//!
//! Each link also carries its candidate's matcher signature
//! ([`Candidate::sig`]), so the chain walk drops partners that certainly
//! share a non-root node with the new candidate without touching their
//! arena slots; only the survivors reach the exact overlap check in
//! `Candidate::merge_into`.
//!
//! Admission's dedup identity is encoded flat ([`Candidate::dedup_key_into`])
//! into one reused key buffer and looked up by slice; the `seen` set
//! copies a key only when it is new.

use std::collections::{BinaryHeap, HashSet};

use ci_graph::NodeId;

use crate::bnb::HeapItem;
use crate::candidate::Candidate;
use crate::flows::FlowState;
use crate::trace::SearchTrace;

/// Sentinel for "no arena index" in the root chains.
pub(crate) const NO_IDX: u32 = u32::MAX;

/// A pooled candidate plus the bound components it was admitted with.
#[derive(Debug)]
pub(crate) struct CandSlot {
    pub(crate) cand: Candidate,
    /// Complete estimate `ce(C)` stored at admission, so tracing can
    /// report the bound decomposition at pop time without re-probing the
    /// oracle (an extra probe would perturb the cache counters).
    pub(crate) ce: f64,
    /// Damped potential estimate `pe(C)` stored at admission
    /// (`-inf` when the potential path was not applicable).
    pub(crate) pe: f64,
}

impl CandSlot {
    fn new() -> CandSlot {
        CandSlot {
            cand: Candidate::empty(),
            ce: f64::NAN,
            pe: f64::NAN,
        }
    }
}

/// One arena index's entry in its root's partner chain.
#[derive(Debug, Clone, Copy)]
struct ChainLink {
    /// Next-older arena index with the same root, or [`NO_IDX`].
    next: u32,
    /// The candidate's [`Candidate::sig`].
    sig: u64,
}

/// Reusable working memory for [`crate::bnb_search_in`]. One per query
/// session (sessions are single-threaded); `Default`/`new` give an empty
/// scratch that warms up over the first queries.
#[derive(Debug, Default)]
pub struct SearchScratch {
    /// Freelist of candidate slots (buffers keep their capacity).
    pool: Vec<CandSlot>,
    /// Total slots ever constructed — stable once the pool covers the
    /// working set (the steady-state no-allocation property).
    allocated: usize,
    /// Live candidates of the current run, append-only within a run.
    pub(crate) arena: Vec<CandSlot>,
    /// Max-heap over `(ub, arena idx)`.
    pub(crate) queue: BinaryHeap<HeapItem>,
    /// Dedup set over flat `(root, sorted child → parent links)` keys.
    pub(crate) seen: HashSet<Box<[u64]>>,
    /// Key buffer the candidate being admitted encodes its identity into.
    pub(crate) key_buf: Vec<u64>,
    /// Newest arena index rooted at a node, dense by node id.
    root_head: Vec<u32>,
    /// Run stamp per `root_head` entry (stale stamp ⇒ empty chain).
    root_gen: Vec<u64>,
    /// Current run stamp (bumped by [`SearchScratch::begin`]).
    run_gen: u64,
    /// Per-arena-index partner-index entry.
    links: Vec<ChainLink>,
    /// Registration cascade worklist.
    pub(crate) worklist: Vec<CandSlot>,
    /// Partner-index read buffer (admission order).
    pub(crate) partners: Vec<u32>,
    /// Flows of the candidate being admitted, computed just before its
    /// bound (the only reader).
    pub(crate) flows: FlowState,
    /// Child-count scratch for `leaf_masks_into`.
    pub(crate) counts_buf: Vec<u32>,
    /// Keyword masks of the admitted candidate's leaves.
    pub(crate) leaf_masks: Vec<u32>,
    /// Bounded per-run trace event buffer, re-armed by the search prologue
    /// from [`crate::SearchOptions::trace`]. Stays unallocated for scratches
    /// that only ever run at [`crate::TraceLevel::Off`].
    pub(crate) trace: SearchTrace,
}

impl SearchScratch {
    /// An empty scratch; equivalent to [`SearchScratch::default`].
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }

    /// Number of candidate slots constructed over the scratch's lifetime.
    /// Once warm, repeated identical searches leave this constant — the
    /// allocation-free steady state the pool exists for.
    pub fn slots_allocated(&self) -> usize {
        self.allocated
    }

    /// The trace recorded by the most recent run through this scratch —
    /// empty unless that run's [`crate::SearchOptions::trace`] enabled
    /// tracing.
    pub fn trace(&self) -> &SearchTrace {
        &self.trace
    }

    /// Prepares for a new run: recycles all live slots into the pool and
    /// empties every per-run structure, keeping allocations.
    pub(crate) fn begin(&mut self) {
        self.run_gen = self.run_gen.wrapping_add(1);
        if self.run_gen == 0 {
            // u64 wrap is unreachable in practice; stay correct anyway.
            self.root_gen.fill(0);
            self.run_gen = 1;
        }
        self.pool.append(&mut self.arena);
        self.pool.append(&mut self.worklist);
        self.queue.clear();
        self.seen.clear();
        self.links.clear();
        self.partners.clear();
    }

    /// Takes a slot from the pool, constructing one only when empty.
    pub(crate) fn acquire(&mut self) -> CandSlot {
        self.pool.pop().unwrap_or_else(|| {
            self.allocated += 1;
            CandSlot::new()
        })
    }

    /// Returns a slot to the pool.
    pub(crate) fn release(&mut self, slot: CandSlot) {
        self.pool.push(slot);
    }

    /// Head of the root chain for `node` in the current run.
    fn root_chain_head(&self, node: NodeId) -> Option<u32> {
        let id = usize::try_from(node.0).ok()?;
        if self.root_gen.get(id).copied() != Some(self.run_gen) {
            return None;
        }
        self.root_head.get(id).copied().filter(|&h| h != NO_IDX)
    }

    /// Links freshly admitted arena index `idx` (the current `arena.len() -
    /// 1`), whose signature is `sig`, into its root's chain. Must be
    /// called exactly once per arena push, in order.
    pub(crate) fn push_root_chain(&mut self, node: NodeId, idx: usize, sig: u64) {
        debug_assert_eq!(self.links.len(), idx, "one link per arena push");
        let idx32 = u32::try_from(idx).unwrap_or(NO_IDX);
        debug_assert!(idx32 != NO_IDX, "arena index fits in u32");
        let Ok(id) = usize::try_from(node.0) else {
            self.links.push(ChainLink { next: NO_IDX, sig });
            return;
        };
        if self.root_head.len() <= id {
            self.root_head.resize(id + 1, NO_IDX);
            self.root_gen.resize(id + 1, 0);
        }
        let prev = if self.root_gen.get(id).copied() == Some(self.run_gen) {
            self.root_head.get(id).copied().unwrap_or(NO_IDX)
        } else {
            NO_IDX
        };
        self.links.push(ChainLink { next: prev, sig });
        if let Some(h) = self.root_head.get_mut(id) {
            *h = idx32;
        }
        if let Some(g) = self.root_gen.get_mut(id) {
            *g = self.run_gen;
        }
    }

    /// Fills [`SearchScratch::partners`] with the merge partners of arena
    /// index `idx`, rooted at `node` with signature `sig`: every other
    /// arena index rooted at `node` whose signature is disjoint from
    /// `sig`, oldest (lowest index) first — admission order, matching the
    /// `Vec` the per-root `HashMap` used to hold. Returns the number of
    /// same-root pairs considered, i.e. including the ones the signature
    /// ruled out.
    pub(crate) fn collect_partners(&mut self, node: NodeId, idx: usize, sig: u64) -> usize {
        self.partners.clear();
        let mut considered = 0;
        let mut cur = self.root_chain_head(node);
        while let Some(i) = cur {
            let link = self.links.get(i as usize).copied();
            if i as usize != idx {
                considered += 1;
                if link.map_or(0, |l| l.sig) & sig == 0 {
                    self.partners.push(i);
                }
            }
            cur = link.map(|l| l.next).filter(|&nxt| nxt != NO_IDX);
        }
        self.partners.reverse();
        considered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_reuses_slots_across_runs() {
        let mut s = SearchScratch::new();
        s.begin();
        let a = s.acquire();
        let b = s.acquire();
        assert_eq!(s.slots_allocated(), 2);
        s.arena.push(a);
        s.worklist.push(b);
        s.begin(); // recycles both
        let _a = s.acquire();
        let _b = s.acquire();
        assert_eq!(s.slots_allocated(), 2, "no new slots in steady state");
        let _c = s.acquire();
        assert_eq!(s.slots_allocated(), 3);
    }

    #[test]
    fn root_chains_iterate_in_admission_order_and_reset_per_run() {
        let mut s = SearchScratch::new();
        s.begin();
        s.push_root_chain(NodeId(7), 0, 0);
        s.push_root_chain(NodeId(3), 1, 0);
        s.push_root_chain(NodeId(7), 2, 0);
        s.push_root_chain(NodeId(7), 3, 0);
        assert_eq!(s.collect_partners(NodeId(7), 3, 0), 2);
        assert_eq!(s.partners, vec![0, 2], "oldest first, self excluded");
        assert_eq!(s.collect_partners(NodeId(3), 4, 0), 1);
        assert_eq!(s.partners, vec![1]);
        assert_eq!(s.collect_partners(NodeId(99), 4, 0), 0);
        assert!(s.partners.is_empty());
        // A new run sees empty chains without any clearing pass.
        s.begin();
        assert_eq!(s.collect_partners(NodeId(7), 0, 0), 0);
        assert!(s.partners.is_empty());
        s.push_root_chain(NodeId(7), 0, 0);
        assert_eq!(s.collect_partners(NodeId(7), 1, 0), 1);
        assert_eq!(s.partners, vec![0]);
    }

    #[test]
    fn partner_walk_drops_intersecting_signatures() {
        let mut s = SearchScratch::new();
        s.begin();
        s.push_root_chain(NodeId(7), 0, 0b001);
        s.push_root_chain(NodeId(7), 1, 0b010);
        s.push_root_chain(NodeId(7), 2, 0);
        s.push_root_chain(NodeId(7), 3, 0b011);
        assert_eq!(s.collect_partners(NodeId(7), 3, 0b011), 3);
        assert_eq!(s.partners, vec![2], "only the disjoint partner remains");
        assert_eq!(s.collect_partners(NodeId(7), 0, 0b001), 3);
        assert_eq!(s.partners, vec![1, 2]);
    }
}
