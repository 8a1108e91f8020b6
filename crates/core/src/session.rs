use std::cell::RefCell;
use std::time::Instant;

use ci_index::{DistanceOracle, OracleVisitor};
use ci_rwmp::Scorer;
use ci_search::{
    bnb_search_in, naive_search, Answer, CachedOracle, OracleCache, QueryBudget, QuerySpec,
    SearchOptions, SearchScratch, SearchStats, SearchTrace, TraceLevel,
};

use crate::snapshot::{EngineSnapshot, RankedAnswer};
use crate::Result;

/// Per-query mutable state over an immutable [`EngineSnapshot`].
///
/// A session owns everything a single caller needs that the shared
/// snapshot must not: the [`SearchOptions`] (including the
/// [`QueryBudget`] — expansion, wall-clock, and candidate-memory limits)
/// and an [`OracleCache`] that memoizes distance-oracle probes across the
/// session's runs. Sessions are cheap to create and intentionally
/// `!Sync`; snapshots are what cross threads, one session per thread.
///
/// ```
/// # use ci_rank::{CiRankConfig, EngineBuilder, QueryBudget};
/// # use ci_storage::{schemas, Value};
/// # use ci_graph::WeightConfig;
/// # let (mut db, t) = schemas::dblp();
/// # let a = db.insert(t.author, vec![Value::text("Yu")]).unwrap();
/// # let p = db.insert(t.paper, vec![Value::text("CI-Rank"), Value::int(2012)]).unwrap();
/// # db.link(t.author_paper, a, p).unwrap();
/// # let snap = EngineBuilder::new(CiRankConfig {
/// #     weights: WeightConfig::dblp_default(), ..Default::default()
/// # }).build(&db).unwrap();
/// let session = snap
///     .session()
///     .with_budget(QueryBudget::default().with_max_expansions(10_000));
/// let (answers, stats) = session.search_with_stats("yu").unwrap();
/// assert!(!answers.is_empty());
/// assert!(!stats.truncated());
/// ```
pub struct QuerySession<'s> {
    snap: &'s EngineSnapshot,
    opts: SearchOptions,
    cache: OracleCache,
    /// Branch-and-bound working memory, recycled across the session's
    /// queries (candidate arena, heap, flow buffers — see
    /// [`ci_search::SearchScratch`]).
    scratch: RefCell<SearchScratch>,
}

impl<'s> QuerySession<'s> {
    pub(crate) fn new(snap: &'s EngineSnapshot) -> Self {
        QuerySession {
            snap,
            opts: snap.config().search_options(),
            cache: OracleCache::new(),
            scratch: RefCell::new(SearchScratch::new()),
        }
    }

    /// The snapshot this session queries.
    pub fn snapshot(&self) -> &'s EngineSnapshot {
        self.snap
    }

    /// Replaces the session's resource budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.opts.budget = budget;
        self
    }

    /// Replaces the session's search options wholesale.
    pub fn with_options(mut self, opts: SearchOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the session's trace level. At [`TraceLevel::Off`] (the
    /// default) nothing is recorded and the query path costs one branch
    /// per emission site; no level changes answers or statistics.
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.opts.trace = level;
        self
    }

    /// The session's current search options.
    pub fn options(&self) -> &SearchOptions {
        &self.opts
    }

    /// The session's oracle cache (diagnostics: distinct pairs probed so
    /// far).
    pub fn oracle_cache(&self) -> &OracleCache {
        &self.cache
    }

    /// Diagnostics: candidate slots the session's search scratch has
    /// constructed so far. Constant across repeated identical queries once
    /// warm — the steady-state no-allocation property of the candidate
    /// pool (asserted by the query hot-path tests).
    pub fn scratch_slots_allocated(&self) -> usize {
        self.scratch.borrow().slots_allocated()
    }

    /// The trace recorded by the session's most recent branch-and-bound
    /// run — empty unless the session's trace level
    /// ([`QuerySession::with_trace`]) enabled recording.
    pub fn last_trace(&self) -> SearchTrace {
        self.scratch.borrow().trace().clone()
    }

    /// Branch-and-bound top-k under this session's options and budget,
    /// returning raw answers plus statistics.
    pub fn run_bnb(&self, spec: &QuerySpec) -> (Vec<Answer>, SearchStats) {
        self.run_bnb_with(spec, &self.opts)
    }

    fn run_bnb_with(&self, spec: &QuerySpec, opts: &SearchOptions) -> (Vec<Answer>, SearchStats) {
        let scorer = self.snap.scorer();
        self.snap.with_oracle(BnbRun {
            scorer: &scorer,
            spec,
            opts,
            cache: &self.cache,
            scratch: &self.scratch,
        })
    }

    /// Top-k search with the CI-Rank scoring function (branch-and-bound),
    /// returning the ranked answers and the run's statistics — check
    /// [`SearchStats::truncation`] to tell an exact top-k from one the
    /// budget cut short. Every call — success or error — is folded into
    /// the snapshot's [`crate::MetricsRegistry`].
    pub fn search_with_stats(&self, query: &str) -> Result<(Vec<RankedAnswer>, SearchStats)> {
        self.ranked(query, |spec| self.run_bnb(spec))
    }

    /// Top-k search with the naive algorithm of §IV-A (the Fig. 10
    /// comparison). The stats report whether enumeration caps or the
    /// budget cut the run short; recorded in the serving metrics like
    /// [`QuerySession::search_with_stats`].
    pub fn search_naive(&self, query: &str) -> Result<(Vec<RankedAnswer>, SearchStats)> {
        self.ranked(query, |spec| {
            naive_search(&self.snap.scorer(), spec, &self.opts)
        })
    }

    /// Resolves `query`, runs `search` on its spec, attaches display
    /// payloads to the answers, and records the call in the metrics.
    fn ranked(
        &self,
        query: &str,
        search: impl FnOnce(&QuerySpec) -> (Vec<Answer>, SearchStats),
    ) -> Result<(Vec<RankedAnswer>, SearchStats)> {
        let start = Instant::now();
        let spec = self
            .snap
            .query_spec(query)
            .inspect_err(|_| self.snap.metrics().record_error())?;
        let (answers, stats) = search(&spec);
        let ranked: Vec<RankedAnswer> = answers
            .into_iter()
            .map(|a| self.snap.to_ranked(&spec, a))
            .collect();
        self.snap
            .metrics()
            .record_search(&stats, ranked.len(), start.elapsed());
        Ok((ranked, stats))
    }

    /// Generates a candidate pool of up to `pool_k` answers (the top
    /// `pool_k` by CI score, via branch-and-bound). The evaluation harness
    /// re-ranks this common pool with every competing scoring function
    /// ([`EngineSnapshot::rank`]), mirroring the paper's §VI setup where
    /// all rankers score the same generated answers.
    pub fn candidate_pool(&self, query: &str, pool_k: usize) -> Result<Vec<Answer>> {
        let spec = self.snap.query_spec(query)?;
        let opts = SearchOptions {
            k: pool_k,
            ..self.opts.clone()
        };
        Ok(self.run_bnb_with(&spec, &opts).0)
    }
}

/// The monomorphizing search launcher: receives the snapshot's oracle at
/// its concrete type, layers the session's memo cache on top, and runs
/// branch-and-bound — bound probes inline all the way down.
struct BnbRun<'a> {
    scorer: &'a Scorer<'a>,
    spec: &'a QuerySpec,
    opts: &'a SearchOptions,
    cache: &'a OracleCache,
    scratch: &'a RefCell<SearchScratch>,
}

impl OracleVisitor for BnbRun<'_> {
    type Output = (Vec<Answer>, SearchStats);

    fn visit<O: DistanceOracle>(self, oracle: &O) -> Self::Output {
        // Shape the flat cache for this query: pre-assigning rows to the
        // keyword-match nodes keeps the slab at (matchers × touched roots)
        // without invalidating probes memoized by earlier runs in this
        // session.
        self.cache
            .begin_query(self.spec.matchers_sorted().iter().copied());
        let before = self.cache.stats();
        let cached = CachedOracle::new(oracle, self.cache);
        // Sessions are !Sync and never re-enter a search from inside a
        // search, so the scratch borrow cannot conflict.
        let mut scratch = self.scratch.borrow_mut();
        let (answers, mut stats) =
            bnb_search_in(self.scorer, self.spec, &cached, self.opts, &mut scratch);
        stats.cache = Some(self.cache.stats().delta_since(&before));
        (answers, stats)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crate::snapshot::tests::tsimmis_snapshot;
    use crate::{QueryBudget, TruncationReason};

    const QUERY: &str = "papakonstantinou ullman";

    #[test]
    fn naive_and_bnb_agree_end_to_end() {
        let snap = tsimmis_snapshot();
        let session = snap.session();
        let (bnb, _) = session.search_with_stats(QUERY).unwrap();
        let (naive, stats) = session.search_naive(QUERY).unwrap();
        assert!(!stats.truncated());
        assert_eq!(bnb.len(), naive.len());
        for (a, b) in bnb.iter().zip(&naive) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn session_budget_truncates_but_stays_valid() {
        // An already-expired deadline must deterministically yield a
        // truncated (possibly empty) but valid result, never an error.
        let snap = tsimmis_snapshot();
        let session = snap
            .session()
            .with_budget(QueryBudget::default().with_timeout(Duration::ZERO));
        let (answers, stats) = session.search_with_stats(QUERY).unwrap();
        assert_eq!(
            stats.truncation,
            Some(TruncationReason::Deadline),
            "expired deadline must be reported"
        );
        for a in &answers {
            assert!(a.score.is_finite());
            assert!(!a.nodes.is_empty());
        }
        // A generous budget returns the full answer set with no truncation.
        let generous = snap
            .session()
            .with_budget(QueryBudget::default().with_max_expansions(1_000_000));
        let (full, stats) = generous.search_with_stats(QUERY).unwrap();
        assert!(stats.truncation.is_none());
        assert_eq!(full.len(), 2);
    }

    #[test]
    fn session_oracle_cache_fills_across_runs() {
        let snap = tsimmis_snapshot();
        let session = snap.session();
        assert!(session.oracle_cache().is_empty());
        session.search_with_stats(QUERY).unwrap();
        let after_first = session.oracle_cache().len();
        assert!(after_first > 0, "bnb probes the oracle through the cache");
        // A repeat of the same query adds no new pairs.
        session.search_with_stats(QUERY).unwrap();
        assert_eq!(session.oracle_cache().len(), after_first);
    }

    #[test]
    fn candidate_pool_overrides_k_only() {
        let snap = tsimmis_snapshot();
        let session = snap.session();
        let (ranked, _) = session.search_with_stats(QUERY).unwrap();
        let pool = session.candidate_pool(QUERY, 1).unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(pool[0].score.to_bits(), ranked[0].score.to_bits());
        assert_eq!(session.candidate_pool(QUERY, 10).unwrap().len(), 2);
    }

    #[test]
    fn k_zero_returns_no_answers_without_panicking() {
        let snap = tsimmis_snapshot();
        let session = snap.session().with_options(ci_search::SearchOptions {
            k: 0,
            ..snap.config().search_options()
        });
        let (bnb, stats) = session.search_with_stats(QUERY).unwrap();
        assert!(bnb.is_empty());
        assert!(stats.truncation.is_none());
        let (naive, _) = session.search_naive(QUERY).unwrap();
        assert!(naive.is_empty());
        assert!(snap.session().candidate_pool(QUERY, 0).unwrap().is_empty());
    }
}
