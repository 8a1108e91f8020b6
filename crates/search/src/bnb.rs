use std::cmp::Ordering;
use std::time::Instant;

use ci_index::DistanceOracle;
use ci_rwmp::Scorer;

use crate::answer::{score_answer, Answer, TopK};
use crate::bounds::{bound_parts_from, distance_prune};
use crate::budget::TruncationReason;
use crate::candidate::Candidate;
use crate::flows::compute_flows;
use crate::query::QuerySpec;
use crate::scratch::{CandSlot, SearchScratch};
use crate::trace::{PruneReason, TraceEvent};
use crate::validity::{is_valid_answer, leaf_masks_matchable};
use crate::SearchOptions;

/// Counters describing one search run (either algorithm).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Candidates popped from the priority queue (grow steps).
    pub pops: usize,
    /// Candidates registered (enqueued) in total.
    pub registered: usize,
    /// Candidates rejected by the upper-bound test at registration.
    pub bound_pruned: usize,
    /// Candidates rejected by the distance-feasibility test.
    pub distance_pruned: usize,
    /// Same-root candidate pairs considered for a *tree merge*, including
    /// those [`SearchStats::merges_skipped`] counts.
    pub merges: usize,
    /// Pairs counted in [`SearchStats::merges`] that the candidates'
    /// matcher signatures ruled out before the exact overlap check (they
    /// share a non-root matcher node, so the merge could not succeed).
    /// Observational, like [`SearchStats::cache`]: not part of the replay
    /// fingerprints.
    pub merges_skipped: usize,
    /// Peak number of live candidates held in the arena — what
    /// [`crate::QueryBudget::max_candidates`] bounds.
    pub candidates_peak: usize,
    /// Why the run stopped early, if it did. `None` means the search space
    /// was exhausted and the top-k guarantee (Theorem 1) holds; any
    /// truncated run still returns only valid, exactly-scored answers.
    pub truncation: Option<TruncationReason>,
    /// Oracle-cache counters for the run, when a memoizing session ran it
    /// (`None` for a bare [`bnb_search`] over an unwrapped oracle). Purely
    /// observational: identical searches produce identical counters, and
    /// no cache configuration changes any other field or any answer.
    pub cache: Option<crate::cache::CacheStats>,
}

impl SearchStats {
    /// True if the run stopped before exhausting its search space — the
    /// top-k guarantee does not hold for a truncated run.
    pub fn truncated(&self) -> bool {
        self.truncation.is_some()
    }
}

#[derive(Debug)]
pub(crate) struct HeapItem {
    pub(crate) ub: f64,
    pub(crate) idx: usize,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.ub == other.ub && self.idx == other.idx
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on the upper bound; among equal bounds the *smallest*
        // arena index wins, i.e. pops follow registration order. Arena
        // indices grow monotonically within a run, so successive equal-`ub`
        // pops always carry increasing indices — asserted in the pop loop.
        self.ub
            .total_cmp(&other.ub)
            .then_with(|| other.idx.cmp(&self.idx))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Wall-clock polling stride: the deadline is re-read from the OS once per
/// this many budget checks, keeping `Instant::now` off the per-candidate
/// fast path. The first check of a run always polls, so an
/// already-expired deadline truncates deterministically before any work.
const DEADLINE_POLL_STRIDE: u32 = 64;

struct SearchRun<'a, O: DistanceOracle> {
    scorer: &'a Scorer<'a>,
    query: &'a QuerySpec,
    oracle: &'a O,
    opts: &'a SearchOptions,
    scratch: &'a mut SearchScratch,
    topk: TopK,
    stats: SearchStats,
    deadline_ticks: u32,
    /// Last oracle `(hits, misses)` snapshot emitted into the trace, so
    /// cache events record transitions, not every pop.
    last_cache: Option<(u64, u64)>,
    /// `(ub, idx)` of the previous pop, for the pop-order assertion.
    #[cfg(any(debug_assertions, feature = "strict-invariants"))]
    last_pop: Option<(f64, usize)>,
}

/// Branch-and-bound top-k search (Algorithm 1 of the paper).
///
/// Seeds one candidate per matcher node, repeatedly expands the candidate
/// with the highest upper bound (tree grow), merges same-rooted candidates,
/// and stops once the best remaining bound cannot beat the current top-k.
/// With an unlimited [`crate::QueryBudget`] (`opts.budget`) the result is
/// exactly the optimal top-k (Theorem 1); any budget axis can stop the run
/// early, which is reported through [`SearchStats::truncation`].
///
/// Generic over the oracle: the `dist_lb`/`retention_ub` probes in the
/// inner loop dispatch statically and inline per oracle type. The function
/// does **not** memoize oracle probes itself — wrap the oracle in
/// [`crate::CachedOracle`] when probes are expensive (the engine's query
/// session does this automatically, sharing one cache per session).
///
/// This wrapper allocates a fresh [`SearchScratch`] per call; repeated
/// callers should hold one and use [`bnb_search_in`], which reuses all
/// working memory (the engine's query session does).
pub fn bnb_search<O: DistanceOracle>(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    oracle: &O,
    opts: &SearchOptions,
) -> (Vec<Answer>, SearchStats) {
    let mut scratch = SearchScratch::new();
    bnb_search_in(scorer, query, oracle, opts, &mut scratch)
}

/// [`bnb_search`] over caller-owned working memory. Results and statistics
/// are bit-identical to a fresh-scratch run — the scratch only recycles
/// buffers, never state: every per-run structure is (generationally)
/// cleared by the run prologue.
pub fn bnb_search_in<O: DistanceOracle>(
    scorer: &Scorer<'_>,
    query: &QuerySpec,
    oracle: &O,
    opts: &SearchOptions,
    scratch: &mut SearchScratch,
) -> (Vec<Answer>, SearchStats) {
    scratch.begin();
    scratch.trace.begin(opts.trace);
    let mut run = SearchRun {
        scorer,
        query,
        oracle,
        opts,
        scratch,
        topk: TopK::new(opts.k),
        stats: SearchStats::default(),
        deadline_ticks: 0,
        last_cache: None,
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        last_pop: None,
    };
    if !query.answerable() || opts.k == 0 {
        return (Vec::new(), run.stats);
    }
    // Seed in the spec's deterministic matcher order (not `matchers()`,
    // whose iteration order is an implementation detail): registration
    // order is the heap's tie-break and the top-k's order among
    // equal-scored answers, so it must be reproducible run to run.
    for &node in query.matchers_sorted() {
        if let Some(m) = query.matcher(node) {
            let mut slot = run.scratch.acquire();
            slot.cand.set_seed(m.node, m.mask);
            run.register(slot);
        }
    }
    while let Some(HeapItem { ub, idx }) = run.scratch.queue.pop() {
        // Documented heap order (see `HeapItem::cmp`): equal-bound pops
        // follow candidate (arena) index order. Sound because anything
        // pushed after a pop has a larger index than everything popped
        // before it.
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        {
            if let Some((last_ub, last_idx)) = run.last_pop {
                if ub.total_cmp(&last_ub).is_eq() {
                    assert!(
                        idx > last_idx,
                        "equal-bound pops must follow candidate index order: \
                         idx {idx} after {last_idx} at ub {ub}"
                    );
                }
            }
            run.last_pop = Some((ub, idx));
        }
        if let Some(min) = run.topk.min_score() {
            if ub < min {
                break; // Lines 9–11: nothing left can beat the top-k.
            }
        }
        if run.stats.truncation.is_some() {
            break; // budget exhausted inside a registration cascade
        }
        if let Some(cap) = run.opts.budget.max_expansions {
            if run.stats.pops >= cap {
                run.truncate(TruncationReason::Expansions);
                break;
            }
        }
        if run.deadline_hit() {
            break;
        }
        run.stats.pops += 1;
        // The candidate is read in place through its arena index, which
        // stays valid while its expansions register; a reference would
        // not survive the arena reallocating underneath.
        let Some(pop) = run.scratch.arena.get(idx) else {
            debug_assert!(false, "queue references a missing arena slot");
            continue;
        };
        let root = pop.cand.root();
        // Pop-order soundness (Theorem 1): a popped candidate that is
        // itself a complete valid answer must be dominated by the bound it
        // was enqueued with — otherwise the best-first stop rule
        // (lines 9–11) could discard a better answer. Always checked in
        // debug builds, and in release under `strict-invariants`.
        #[cfg(any(debug_assertions, feature = "strict-invariants"))]
        if pop.cand.mask == run.query.full_mask() {
            let tree = pop.cand.to_jtt();
            if is_valid_answer(&tree, run.query) {
                if let Some(score) = score_answer(run.scorer, run.query, &tree) {
                    assert!(
                        ub >= score - 1e-9,
                        "admissibility violated at pop: ub(C) = {ub} < score(C) = {score}"
                    );
                }
            }
        }
        if run.scratch.trace.level().full() {
            let event = TraceEvent::Pop {
                idx,
                root,
                size: pop.cand.size(),
                mask: pop.cand.mask,
                ub,
                ce: pop.ce,
                pe: pop.pe,
            };
            run.scratch.trace.emit(event);
            run.trace_cache_transition();
        }
        for vj in run.scorer.graph().neighbors(root) {
            let fresh = run
                .scratch
                .arena
                .get(idx)
                .is_some_and(|pop| !pop.cand.contains(vj));
            if !fresh {
                continue;
            }
            if run.scratch.trace.level().full() {
                run.scratch.trace.emit(TraceEvent::Grow {
                    from_root: root,
                    added: vj,
                });
            }
            let mut slot = run.scratch.acquire();
            if let Some(pop) = run.scratch.arena.get(idx) {
                pop.cand.grow_into(vj, run.query, &mut slot.cand);
            }
            run.register(slot);
        }
    }
    (run.topk.into_sorted(), run.stats)
}

impl<'a, O: DistanceOracle> SearchRun<'a, O> {
    /// Records a budget truncation in the stats and, when tracing, in the
    /// trace buffer.
    fn truncate(&mut self, reason: TruncationReason) {
        self.stats.truncation = Some(reason);
        if self.scratch.trace.level().full() {
            self.scratch.trace.emit(TraceEvent::Truncated { reason });
        }
    }

    /// Emits a [`TraceEvent::Cache`] when the oracle's cumulative probe
    /// counters moved since the last emission. Observational only: reads
    /// counters the memoizing wrapper maintains anyway, never probes.
    fn trace_cache_transition(&mut self) {
        if !self.scratch.trace.level().full() {
            return;
        }
        if let Some((hits, misses)) = self.oracle.probe_counters() {
            if self.last_cache != Some((hits, misses)) {
                self.last_cache = Some((hits, misses));
                self.scratch.trace.emit(TraceEvent::Cache { hits, misses });
            }
        }
    }

    /// Records a [`TraceEvent::Prune`] for a rejected candidate (Full
    /// level only).
    fn trace_prune(&mut self, reason: PruneReason, cand: &Candidate) {
        if self.scratch.trace.level().full() {
            self.scratch.trace.emit(TraceEvent::Prune {
                reason,
                root: cand.root(),
                size: cand.size(),
                mask: cand.mask,
            });
        }
    }

    /// Polls the wall-clock deadline (strided — see
    /// [`DEADLINE_POLL_STRIDE`]) and records the truncation on expiry.
    fn deadline_hit(&mut self) -> bool {
        if self.opts.budget.deadline.is_none() {
            return false;
        }
        let tick = self.deadline_ticks;
        self.deadline_ticks = self.deadline_ticks.wrapping_add(1);
        if !tick.is_multiple_of(DEADLINE_POLL_STRIDE) {
            return false;
        }
        if self.opts.budget.deadline_exceeded(Instant::now()) {
            self.truncate(TruncationReason::Deadline);
            true
        } else {
            false
        }
    }

    /// Validates, bounds, enqueues, and eagerly merges a new candidate.
    ///
    /// Merge cascades at hub roots can register far more candidates than
    /// the pop cap ever touches, so the expansion budget also bounds total
    /// registrations (at 10× the pop cap), and the candidate-memory budget
    /// bounds the live arena directly.
    fn register(&mut self, slot: CandSlot) {
        let registration_cap = self
            .opts
            .budget
            .max_expansions
            .map(|m| m.saturating_mul(10));
        self.scratch.worklist.push(slot);
        while let Some(c) = self.scratch.worklist.pop() {
            if let Some(cap) = registration_cap {
                if self.stats.registered >= cap {
                    self.truncate(TruncationReason::Expansions);
                    self.recycle_worklist(c);
                    return;
                }
            }
            if let Some(cap) = self.opts.budget.max_candidates {
                if self.scratch.arena.len() >= cap {
                    self.truncate(TruncationReason::CandidateMemory);
                    self.recycle_worklist(c);
                    return;
                }
            }
            if self.deadline_hit() {
                self.recycle_worklist(c);
                return;
            }
            if let Some(idx) = self.admit(c) {
                // Merge with every known candidate sharing the root, in
                // admission order (the chain read reverses to oldest-first,
                // matching the per-root Vec this index used to be). The
                // walk drops partners whose signature intersects this
                // candidate's: they share a non-root node, so `merge_into`
                // would reject them, and dropping them registers nothing.
                let (root, sig) = match self.scratch.arena.get(idx) {
                    Some(s) => (s.cand.root(), s.cand.sig),
                    None => continue,
                };
                let considered = self.scratch.collect_partners(root, idx, sig);
                self.stats.merges += considered;
                self.stats.merges_skipped += considered - self.scratch.partners.len();
                for t in 0..self.scratch.partners.len() {
                    let Some(&p32) = self.scratch.partners.get(t) else {
                        break;
                    };
                    let p = p32 as usize;
                    let mut out = self.scratch.acquire();
                    let merged = match (self.scratch.arena.get(idx), self.scratch.arena.get(p)) {
                        (Some(a), Some(b)) => {
                            self.merge_allowed(&a.cand, &b.cand)
                                && a.cand.merge_into(&b.cand, &mut out.cand)
                        }
                        _ => false,
                    };
                    if self.scratch.trace.level().full() {
                        self.scratch.trace.emit(TraceEvent::Merge {
                            root,
                            idx,
                            partner: p,
                            merged,
                        });
                    }
                    if merged {
                        self.scratch.worklist.push(out);
                    } else {
                        self.scratch.release(out);
                    }
                }
            }
        }
    }

    /// Returns the in-flight slot and any queued worklist slots to the
    /// pool after a budget truncation (they will not be processed).
    fn recycle_worklist(&mut self, current: CandSlot) {
        self.scratch.release(current);
        while let Some(s) = self.scratch.worklist.pop() {
            self.scratch.release(s);
        }
    }

    /// Checks a candidate against all prunes; on success stores it, offers
    /// it to the top-k (if a valid complete answer), and returns its arena
    /// index. Rejected slots return to the pool.
    fn admit(&mut self, mut slot: CandSlot) -> Option<usize> {
        if slot.cand.diameter > self.opts.diameter || slot.cand.size() > self.opts.max_tree_nodes {
            self.trace_prune(PruneReason::Structural, &slot.cand);
            self.scratch.release(slot);
            return None;
        }
        // Non-root leaves stay leaves: their keyword assignment must be
        // feasible in any extension.
        if !self.leaves_matchable(&slot.cand, false) {
            self.trace_prune(PruneReason::InfeasibleLeaves, &slot.cand);
            self.scratch.release(slot);
            return None;
        }
        // Dedup on (root, canonical tree), encoded flat into the reused key
        // buffer; only a new identity is copied into the set.
        slot.cand.dedup_key_into(&mut self.scratch.key_buf);
        if self.scratch.seen.contains(self.scratch.key_buf.as_slice()) {
            self.trace_prune(PruneReason::Duplicate, &slot.cand);
            self.scratch.release(slot);
            return None;
        }
        self.scratch
            .seen
            .insert(self.scratch.key_buf.as_slice().into());
        if distance_prune(self.query, self.oracle, &slot.cand, self.opts.diameter) {
            self.stats.distance_pruned += 1;
            self.trace_prune(PruneReason::Distance, &slot.cand);
            self.scratch.release(slot);
            return None;
        }
        // Flows feed only the bound, so they are computed here, for the
        // candidates that survived every cheaper prune, into one buffer.
        compute_flows(self.scorer, self.query, &slot.cand, &mut self.scratch.flows);
        let parts = bound_parts_from(
            self.scorer,
            self.query,
            self.oracle,
            &slot.cand,
            &self.scratch.flows,
            self.opts.allow_redundant_matchers,
        );
        let ub = parts.ub();
        if let Some(min) = self.topk.min_score() {
            if ub < min {
                self.stats.bound_pruned += 1;
                self.trace_prune(PruneReason::Bound, &slot.cand);
                self.scratch.release(slot);
                return None;
            }
        }
        // Stored for pop-time tracing: re-deriving the parts there would
        // re-probe the oracle and perturb the cache counters.
        slot.ce = parts.ce;
        slot.pe = parts.pe;
        // Definition 3 on the candidate itself: with every keyword covered,
        // a valid answer needs only its degree-≤ 1 nodes matched. The `Jtt`
        // is built for the answers offered to the top-k alone.
        if slot.cand.mask == self.query.full_mask() {
            let valid = self.leaves_matchable(&slot.cand, true);
            debug_assert_eq!(
                valid,
                is_valid_answer(&slot.cand.to_jtt(), self.query),
                "candidate answer check disagrees with is_valid_answer"
            );
            if valid {
                let tree = slot.cand.to_jtt();
                if let Some(score) = score_answer(self.scorer, self.query, &tree) {
                    self.topk.offer(Answer { tree, score });
                }
            }
        }
        let idx = self.scratch.arena.len();
        let root = slot.cand.root();
        let size = slot.cand.size();
        let mask = slot.cand.mask;
        let sig = slot.cand.sig;
        self.scratch.arena.push(slot);
        self.stats.candidates_peak = self.stats.candidates_peak.max(self.scratch.arena.len());
        self.scratch.push_root_chain(root, idx, sig);
        self.scratch.queue.push(HeapItem { ub, idx });
        self.stats.registered += 1;
        if self.scratch.trace.level().full() {
            self.scratch.trace.emit(TraceEvent::Admit {
                idx,
                root,
                size,
                mask,
                ub,
            });
        }
        Some(idx)
    }

    /// Whether `cand`'s leaves — with `with_root`, its mandatory nodes
    /// (see [`Candidate::leaf_masks_into`]) — take distinct keywords.
    fn leaves_matchable(&mut self, cand: &Candidate, with_root: bool) -> bool {
        let SearchScratch {
            counts_buf,
            leaf_masks,
            ..
        } = &mut *self.scratch;
        cand.leaf_masks_into(self.query, with_root, counts_buf, leaf_masks);
        leaf_masks_matchable(leaf_masks)
    }

    fn merge_allowed(&self, a: &Candidate, b: &Candidate) -> bool {
        if self.opts.allow_redundant_matchers {
            true
        } else {
            // Paper wording: the merge must cover more keywords than
            // either operand.
            let union = a.mask | b.mask;
            union != a.mask && union != b.mask
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::QueryBudget;
    use crate::query::QuerySpec;
    use ci_graph::{GraphBuilder, NodeId};
    use ci_index::NoIndex;
    use ci_rwmp::Dampening;
    use std::time::Duration;

    /// The Papakonstantinou–Ullman scenario: two author nodes connected by
    /// two alternative paper nodes of very different importance.
    fn coauthor_graph() -> (ci_graph::Graph, Vec<f64>) {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|_| b.add_node(0, vec![])).collect();
        // 0 = author A, 2 = author B, 1 = weak paper, 3 = strong paper.
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
    fn zero_k_returns_no_answers_from_either_search() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            k: 0,
            ..SearchOptions::default()
        };
        let (answers, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert!(answers.is_empty());
        assert!(!stats.truncated());
        let (answers, stats) = crate::naive_search(&scorer, &q, &opts);
        assert!(answers.is_empty());
        assert!(!stats.truncated());
    }

    #[test]
    fn finds_both_answers_ranked_by_connector_importance() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["papakonstantinou".into(), "ullman".into()],
            vec![(NodeId(0), 0b01, 2), (NodeId(2), 0b10, 2)],
        );
        let (answers, stats) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(!stats.truncated());
        assert!(stats.candidates_peak > 0);
        assert_eq!(answers.len(), 2, "two connecting papers, two answers");
        // Best answer goes through the important paper (node 3).
        assert!(answers[0].tree.contains(NodeId(3)));
        assert!(answers[1].tree.contains(NodeId(1)));
        assert!(answers[0].score > answers[1].score);
    }

    #[test]
    fn respects_k() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            k: 1,
            ..Default::default()
        };
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert_eq!(answers.len(), 1);
        assert!(answers[0].tree.contains(NodeId(3)));
    }

    #[test]
    fn unanswerable_query_returns_empty() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "ghost".into()],
            vec![(NodeId(0), 0b01, 2)],
        );
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(answers.is_empty());
    }

    #[test]
    fn disconnected_matchers_yield_nothing() {
        let mut b = GraphBuilder::new();
        let x = b.add_node(0, vec![]);
        let y = b.add_node(0, vec![]);
        let z = b.add_node(0, vec![]);
        b.add_pair(x, y, 1.0, 1.0);
        let _ = z;
        let g = b.build();
        let p = vec![0.4, 0.3, 0.3];
        let scorer = Scorer::new(&g, &p, 0.3, Dampening::paper_default());
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(0), 0b01, 1), (NodeId(2), 0b10, 1)],
        );
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(answers.is_empty());
    }

    #[test]
    fn diameter_limits_answers() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        // Matchers are 2 hops apart; D = 1 forbids any answer.
        let opts = SearchOptions {
            diameter: 1,
            ..Default::default()
        };
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert!(answers.is_empty());
    }

    #[test]
    fn single_node_answer_found() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        // Node 3 matches both keywords.
        let q = QuerySpec::from_matches(
            &scorer,
            vec!["a".into(), "b".into()],
            vec![(NodeId(3), 0b11, 3), (NodeId(0), 0b01, 2)],
        );
        let (answers, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert!(!answers.is_empty());
        assert_eq!(answers[0].tree.size(), 1);
        assert_eq!(answers[0].tree.node(0), NodeId(3));
    }

    #[test]
    fn expansion_truncation_reported() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            budget: QueryBudget::default().with_max_expansions(1),
            ..Default::default()
        };
        let (_, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert!(stats.truncated());
        assert_eq!(stats.truncation, Some(TruncationReason::Expansions));
    }

    #[test]
    fn expired_deadline_truncates_deterministically() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            budget: QueryBudget::default().with_timeout(Duration::ZERO),
            ..Default::default()
        };
        let (answers, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert_eq!(stats.truncation, Some(TruncationReason::Deadline));
        // A truncated run returns only valid answers (possibly none).
        for a in &answers {
            assert!(is_valid_answer(&a.tree, &q));
        }
    }

    #[test]
    fn generous_deadline_matches_unbudgeted_run() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            budget: QueryBudget::default().with_timeout(Duration::from_secs(3600)),
            ..Default::default()
        };
        let (budgeted, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert!(!stats.truncated());
        let (exact, _) = bnb_search(&scorer, &q, &NoIndex, &SearchOptions::default());
        assert_eq!(budgeted.len(), exact.len());
        for (a, b) in budgeted.iter().zip(&exact) {
            assert!((a.score - b.score).abs() < 1e-12);
        }
    }

    #[test]
    fn candidate_memory_budget_truncates() {
        let (g, p) = coauthor_graph();
        let scorer = Scorer::new(&g, &p, 0.05, Dampening::paper_default());
        let q = query_ab(&scorer);
        let opts = SearchOptions {
            budget: QueryBudget::default().with_max_candidates(2),
            ..Default::default()
        };
        let (answers, stats) = bnb_search(&scorer, &q, &NoIndex, &opts);
        assert_eq!(stats.truncation, Some(TruncationReason::CandidateMemory));
        assert!(stats.candidates_peak <= 2);
        for a in &answers {
            assert!(is_valid_answer(&a.tree, &q));
        }
    }
}
