use std::fmt;

use ci_baselines::BanksPrestige;
use ci_graph::{Graph, NodeId};
use ci_index::{DistIndex, OracleVisitor};
use ci_rwmp::{Dampening, Jtt, Scorer};
use ci_search::{Answer, QuerySpec, SearchStats, MAX_KEYWORDS};
use ci_text::{tokenize, InvertedIndex};
use ci_walk::Importance;

use crate::config::CiRankConfig;
use crate::error::CiRankError;
use crate::explain::ExplainReport;
use crate::metrics::MetricsRegistry;
use crate::ranker::{rank_pool, Ranker};
use crate::session::QuerySession;
use crate::Result;

/// One node of a ranked answer, with display metadata.
#[derive(Debug, Clone)]
pub struct AnswerNode {
    /// The graph node.
    pub node: NodeId,
    /// Name of the node's relation (table).
    pub relation: String,
    /// The node's text.
    pub text: String,
    /// True if the node matches a query keyword (non-free).
    pub is_matcher: bool,
}

/// A scored query answer with human-readable node payloads.
#[derive(Debug, Clone)]
pub struct RankedAnswer {
    /// Ranking score (higher is better). The scale depends on the ranker.
    pub score: f64,
    /// The underlying joined tuple tree.
    pub tree: Jtt,
    /// Node payloads, aligned with `tree` positions.
    pub nodes: Vec<AnswerNode>,
}

impl fmt::Display for RankedAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4}]", self.score)?;
        for (i, n) in self.nodes.iter().enumerate() {
            let marker = if n.is_matcher { "*" } else { "" };
            if i > 0 {
                write!(f, " —")?;
            }
            write!(f, " {}{}:{:?}", marker, n.relation, n.text)?;
        }
        Ok(())
    }
}

/// An immutable, query-ready view of one database: the data graph, text
/// index, importance and prestige vectors, the precomputed dampening
/// rates, and the configured distance index.
///
/// Snapshots are produced by [`crate::EngineBuilder::build`], never
/// mutated afterwards, and are `Send + Sync` — wrap one in an
/// [`std::sync::Arc`] and serve queries from as many threads as you like;
/// every query method takes `&self`. Per-query mutable state (budgets,
/// oracle caches) lives in [`QuerySession`], created per thread via
/// [`EngineSnapshot::session`].
pub struct EngineSnapshot {
    cfg: CiRankConfig,
    graph: Graph,
    text: InvertedIndex,
    importance: Importance,
    prestige: BanksPrestige,
    /// Per-node dampening rates (Eq. 2), computed once at build time and
    /// shared by the scorer, the distance index build, and `explain`.
    damp: Vec<f64>,
    dist: DistIndex,
    node_text: Vec<String>,
    relation_names: Vec<String>,
    /// Cumulative serving counters, fed by every [`QuerySession`] over
    /// this snapshot (relaxed atomics — see [`MetricsRegistry`]).
    metrics: MetricsRegistry,
}

// Compile-time proof that snapshots can be shared across threads; the
// concurrency integration test exercises this at runtime.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSnapshot>();
};

impl fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("nodes", &self.graph.node_count())
            .field("edges", &self.graph.edge_count())
            .field("terms", &self.text.term_count())
            .field("index", &self.dist.kind())
            .finish()
    }
}

impl EngineSnapshot {
    /// Final assembly from the builder's stage outputs.
    #[allow(clippy::too_many_arguments)] // one argument per pipeline stage
    pub(crate) fn assemble(
        cfg: CiRankConfig,
        graph: Graph,
        text: InvertedIndex,
        importance: Importance,
        prestige: BanksPrestige,
        damp: Vec<f64>,
        dist: DistIndex,
        node_text: Vec<String>,
        relation_names: Vec<String>,
    ) -> EngineSnapshot {
        debug_assert_eq!(damp.len(), graph.node_count());
        EngineSnapshot {
            cfg,
            graph,
            text,
            importance,
            prestige,
            damp,
            dist,
            node_text,
            relation_names,
            metrics: MetricsRegistry::new(),
        }
    }

    /// The snapshot's configuration.
    pub fn config(&self) -> &CiRankConfig {
        &self.cfg
    }

    /// The data graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Node importance values.
    pub fn importance(&self) -> &Importance {
        &self.importance
    }

    /// The inverted text index.
    pub fn text_index(&self) -> &InvertedIndex {
        &self.text
    }

    /// The precomputed per-node dampening rates (Eq. 2).
    pub fn dampening_vector(&self) -> &[f64] {
        &self.damp
    }

    /// The distance index backing the search.
    pub fn dist_index(&self) -> &DistIndex {
        &self.dist
    }

    /// The snapshot's serving metrics: cumulative counters over every
    /// query any session has run against it. Read with
    /// [`MetricsRegistry::snapshot`]; safe to call from any thread.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The concatenated text of one graph node.
    pub fn node_text(&self, v: NodeId) -> &str {
        self.node_text.get(v.idx()).map_or("", String::as_str)
    }

    /// Display name of a node's relation (table).
    fn relation_name(&self, v: NodeId) -> String {
        self.relation_names
            .get(self.graph.relation(v) as usize)
            .cloned()
            .unwrap_or_else(|| format!("rel{}", self.graph.relation(v)))
    }

    /// The RWMP scorer over this snapshot's graph and importance, reading
    /// the snapshot's precomputed dampening vector.
    pub fn scorer(&self) -> Scorer<'_> {
        Scorer::with_dampening_vector(
            &self.graph,
            self.importance.values(),
            self.importance.min(),
            Dampening::Logarithmic {
                alpha: self.cfg.alpha,
                g: self.cfg.g,
            },
            &self.damp,
        )
    }

    /// Resolves the distance index to a concretely-typed oracle and hands
    /// it to the visitor — the single `match` over index kinds on the
    /// query path (everything past it is monomorphized).
    pub fn with_oracle<V: OracleVisitor>(&self, visitor: V) -> V::Output {
        self.dist.with_oracle(&self.graph, visitor)
    }

    /// Opens a query session: per-query budget and oracle cache over this
    /// snapshot. Sessions are cheap; create one per thread or per query.
    pub fn session(&self) -> QuerySession<'_> {
        QuerySession::new(self)
    }

    /// Parses a query string into distinct keyword tokens, in order of
    /// first appearance. Linear in the query length.
    pub fn parse_query(&self, query: &str) -> Result<Vec<String>> {
        let tokens = tokenize(query);
        let mut seen = std::collections::HashSet::new();
        let keywords: Vec<String> = tokens
            .iter()
            .filter(|tok| seen.insert(tok.as_str()))
            .cloned()
            .collect();
        if keywords.is_empty() {
            return Err(CiRankError::EmptyQuery);
        }
        if keywords.len() > MAX_KEYWORDS {
            return Err(CiRankError::TooManyKeywords(keywords.len()));
        }
        Ok(keywords)
    }

    /// Resolves a query string against the text index.
    ///
    /// Matches are sorted by node id before the spec is built, so the
    /// resulting spec — and therefore tie-broken answer order — is
    /// deterministic regardless of hash-map iteration order.
    pub fn query_spec(&self, query: &str) -> Result<QuerySpec> {
        let keywords = self.parse_query(query)?;
        let scorer = self.scorer();
        let mut masks: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        for (k, kw) in keywords.iter().enumerate() {
            for doc in self.text.matching_docs(kw) {
                *masks.entry(doc).or_insert(0) |= 1 << k;
            }
        }
        let mut matches: Vec<(NodeId, u32, u32)> = masks
            .into_iter()
            .map(|(doc, mask)| (NodeId(doc), mask, self.text.doc_len(doc).max(1)))
            .collect();
        matches.sort_unstable_by_key(|&(v, _, _)| v.0);
        Ok(QuerySpec::from_matches(&scorer, keywords, matches))
    }

    /// One-shot branch-and-bound top-k on a fresh [`QuerySession`] — the
    /// same as `self.session().search_with_stats(query)`. Callers issuing
    /// many queries should hold a session, which keeps its oracle cache
    /// and candidate pool warm.
    pub fn search_with_stats(&self, query: &str) -> Result<(Vec<RankedAnswer>, SearchStats)> {
        self.session().search_with_stats(query)
    }

    /// Re-ranks a candidate pool (see [`QuerySession::candidate_pool`])
    /// with the chosen ranker.
    pub fn rank(&self, query: &str, pool: &[Answer], ranker: Ranker) -> Result<Vec<RankedAnswer>> {
        let spec = self.query_spec(query)?;
        let scorer = self.scorer();
        let ranked = rank_pool(
            &scorer,
            &spec,
            &self.text,
            &self.graph,
            &self.prestige,
            pool,
            ranker,
        );
        Ok(ranked
            .into_iter()
            .map(|(tree, score)| self.to_ranked(&spec, Answer { tree, score }))
            .collect())
    }

    /// Explains an answer's RWMP score: the full Eqs. 2–4 decomposition
    /// (per-source generation counts, hop-dampened flows into every tree
    /// node, the Eq. 3 minimum and its arg-min source, the Eq. 4 mean)
    /// paired with display metadata. The report's score is bit-identical
    /// to the score the search ranked the answer by; render it with
    /// [`ExplainReport::render`] (the `cirank explain` subcommand).
    ///
    /// Errors with [`CiRankError::NotAnAnswer`] when `tree` contains no
    /// node matching the query.
    pub fn explain(&self, query: &str, tree: &Jtt) -> Result<ExplainReport> {
        let spec = self.query_spec(query)?;
        let scorer = self.scorer();
        let explanation =
            ci_search::explain_answer(&scorer, &spec, tree).ok_or(CiRankError::NotAnAnswer)?;
        Ok(ExplainReport {
            explanation,
            nodes: self.answer_nodes(&spec, tree),
            keywords: spec.keywords().to_vec(),
        })
    }

    pub(crate) fn to_ranked(&self, spec: &QuerySpec, answer: Answer) -> RankedAnswer {
        RankedAnswer {
            score: answer.score,
            nodes: self.answer_nodes(spec, &answer.tree),
            tree: answer.tree,
        }
    }

    fn answer_nodes(&self, spec: &QuerySpec, tree: &Jtt) -> Vec<AnswerNode> {
        tree.nodes()
            .iter()
            .map(|&v| AnswerNode {
                node: v,
                relation: self.relation_name(v),
                text: self.node_text(v).to_owned(),
                is_matcher: spec.matcher(v).is_some(),
            })
            .collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::ImportanceMethod;
    use crate::{EngineBuilder, IndexKind};
    use ci_graph::WeightConfig;
    use ci_storage::{schemas, Database, Value};

    /// Two authors, two shared papers of very different citation counts
    /// — the paper's running example.
    fn tsimmis_db() -> Database {
        let (mut db, t) = schemas::dblp();
        let a1 = db
            .insert(t.author, vec![Value::text("Yannis Papakonstantinou")])
            .unwrap();
        let a2 = db
            .insert(t.author, vec![Value::text("Jeffrey Ullman")])
            .unwrap();
        let weak = db
            .insert(
                t.paper,
                vec![
                    Value::text("Capability Based Mediation in TSIMMIS"),
                    Value::int(1997),
                ],
            )
            .unwrap();
        let strong = db
            .insert(
                t.paper,
                vec![
                    Value::text(
                        "The TSIMMIS Project Integration of Heterogeneous Information Sources",
                    ),
                    Value::int(1995),
                ],
            )
            .unwrap();
        for p in [weak, strong] {
            db.link(t.author_paper, a1, p).unwrap();
            db.link(t.author_paper, a2, p).unwrap();
        }
        // Citations: 7 for the weak paper, 38 for the strong one.
        for i in 0..45 {
            let citing = db
                .insert(
                    t.paper,
                    vec![
                        Value::text(format!("citing paper {i}")),
                        Value::int(2000 + i),
                    ],
                )
                .unwrap();
            let target = if i < 7 { weak } else { strong };
            db.link(t.cites, citing, target).unwrap();
        }
        db
    }

    fn build(cfg: CiRankConfig) -> EngineSnapshot {
        EngineBuilder::new(CiRankConfig {
            weights: WeightConfig::dblp_default(),
            ..cfg
        })
        .build(&tsimmis_db())
        .unwrap()
    }

    /// The running example under the DBLP weights and default settings.
    pub(crate) fn tsimmis_snapshot() -> EngineSnapshot {
        build(CiRankConfig::default())
    }

    fn search(snap: &EngineSnapshot, query: &str) -> Vec<RankedAnswer> {
        snap.session().search_with_stats(query).unwrap().0
    }

    #[test]
    fn tsimmis_example_ranks_the_cited_paper_first() {
        let snap = tsimmis_snapshot();
        let (answers, stats) = snap.search_with_stats("papakonstantinou ullman").unwrap();
        assert!(stats.truncation.is_none());
        assert_eq!(answers.len(), 2, "two connecting papers");
        let top_paper = answers[0]
            .nodes
            .iter()
            .find(|n| n.relation == "paper")
            .expect("paper connects the authors");
        assert!(
            top_paper.text.contains("Heterogeneous"),
            "the 38-citation paper must rank first, got {:?}",
            top_paper.text
        );
        assert!(answers[0].score > answers[1].score);
    }

    #[test]
    fn empty_query_rejected() {
        let snap = tsimmis_snapshot();
        assert_eq!(
            snap.search_with_stats("  ...  ").unwrap_err(),
            CiRankError::EmptyQuery
        );
    }

    #[test]
    fn unmatched_keyword_yields_no_answers() {
        let snap = tsimmis_snapshot();
        assert!(search(&snap, "papakonstantinou zzzzz").is_empty());
    }

    #[test]
    fn explain_breaks_down_the_score() {
        let snap = tsimmis_snapshot();
        let answers = search(&snap, "papakonstantinou ullman");
        let report = snap
            .explain("papakonstantinou ullman", &answers[0].tree)
            .unwrap();
        let sources = &report.explanation.sources;
        assert_eq!(sources.len(), 2, "two matchers in the answer");
        for s in sources {
            assert!(s.generation > 0.0);
            assert!(s.node_score > 0.0);
            assert!(s.node_score <= s.generation * 10.0);
        }
        for x in &report.explanation.nodes {
            assert!(x.importance > 0.0);
            assert!(x.dampening > 0.0 && x.dampening < 1.0);
        }
        // The tree score is exactly the mean of node scores — and the
        // report's score replays the ranked score bit for bit.
        let mean: f64 = sources.iter().map(|s| s.node_score).sum::<f64>() / sources.len() as f64;
        assert!((mean - answers[0].score).abs() < 1e-9);
        assert_eq!(report.score().to_bits(), answers[0].score.to_bits());
        // A tree with no matchers is not an answer and cannot be explained.
        let err = snap.explain("zzzz qqqq", &answers[0].tree).unwrap_err();
        assert_eq!(err, CiRankError::NotAnAnswer);
    }

    #[test]
    fn ranked_answers_display() {
        let snap = tsimmis_snapshot();
        let answers = search(&snap, "tsimmis");
        assert!(!answers.is_empty());
        let s = answers[0].to_string();
        assert!(s.contains("paper"));
        assert!(s.starts_with('['));
    }

    #[test]
    fn index_kinds_agree() {
        for index in [
            IndexKind::None,
            IndexKind::Naive,
            IndexKind::Star { relations: None },
        ] {
            let snap = build(CiRankConfig {
                index,
                ..Default::default()
            });
            let answers = search(&snap, "papakonstantinou ullman");
            assert_eq!(answers.len(), 2);
            assert!(answers[0]
                .nodes
                .iter()
                .any(|n| n.text.contains("Heterogeneous")));
        }
    }

    #[test]
    fn personalized_importance_biases_results() {
        let base = tsimmis_snapshot();
        // Bias all teleport mass onto the weak paper's node.
        let weak_node = base
            .graph()
            .nodes()
            .find(|&v| base.node_text(v).contains("Capability"))
            .unwrap();
        let mut u = vec![0.0; base.graph().node_count()];
        u[weak_node.idx()] = 1.0;
        let biased = build(CiRankConfig {
            importance: ImportanceMethod::Personalized(u),
            ..Default::default()
        });
        let answers = search(&biased, "papakonstantinou ullman");
        let top_paper = answers[0]
            .nodes
            .iter()
            .find(|n| n.relation == "paper")
            .unwrap();
        assert!(
            top_paper.text.contains("Capability"),
            "feedback bias flips the ranking"
        );
    }

    #[test]
    fn dampening_vector_shared_by_scorer_index_and_explain() {
        // The snapshot stores the dampening rates once; the scorer serves
        // them verbatim, a fresh on-demand scorer agrees bit-for-bit, and
        // explanations expose the same values.
        let snap = tsimmis_snapshot();
        let stored = snap.dampening_vector();
        assert_eq!(stored.len(), snap.graph().node_count());
        let scorer = snap.scorer();
        let fresh = Scorer::new(
            snap.graph(),
            snap.importance().values(),
            snap.importance().min(),
            Dampening::Logarithmic {
                alpha: snap.config().alpha,
                g: snap.config().g,
            },
        );
        for v in snap.graph().nodes() {
            assert_eq!(stored[v.idx()], scorer.dampening(v));
            assert_eq!(stored[v.idx()], fresh.dampening(v));
        }
        let answers = search(&snap, "papakonstantinou ullman");
        let report = snap
            .explain("papakonstantinou ullman", &answers[0].tree)
            .unwrap();
        for x in &report.explanation.nodes {
            assert_eq!(x.dampening, stored[x.node.idx()]);
        }
    }

    #[test]
    fn query_spec_is_deterministic() {
        // Matcher resolution sorts by node id, so repeated resolution
        // yields identical specs (the HashMap it draws from has no
        // iteration-order guarantee).
        let snap = tsimmis_snapshot();
        let a = snap.query_spec("papakonstantinou ullman tsimmis").unwrap();
        for _ in 0..10 {
            let b = snap.query_spec("papakonstantinou ullman tsimmis").unwrap();
            assert_eq!(a.matchers_sorted(), b.matchers_sorted());
            assert_eq!(
                a.keywords(),
                b.keywords(),
                "keyword order is input order, not map order"
            );
        }
    }

    #[test]
    fn parse_query_enforces_the_keyword_cap() {
        // 32 distinct keywords pass; 33 trip TooManyKeywords (the u32
        // keyword-mask width, see ci_search::MAX_KEYWORDS).
        let snap = tsimmis_snapshot();
        let q32 = (0..32)
            .map(|i| format!("kw{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(snap.parse_query(&q32).unwrap().len(), 32);
        let q33 = (0..33)
            .map(|i| format!("kw{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        assert_eq!(
            snap.parse_query(&q33).unwrap_err(),
            CiRankError::TooManyKeywords(33)
        );
    }

    #[test]
    fn parse_query_rejects_huge_queries_in_linear_time() {
        // 200k distinct tokens, each given twice (about 3 MB): a quadratic
        // dedup takes minutes here, the set-based one milliseconds.
        let snap = tsimmis_snapshot();
        let huge = (0..200_000)
            .map(|i| format!("kw{i}"))
            .collect::<Vec<_>>()
            .join(" ");
        let repeated = format!("{huge} {huge}");
        assert_eq!(
            snap.parse_query(&repeated).unwrap_err(),
            CiRankError::TooManyKeywords(200_000)
        );
    }
}
