//! # CI-Rank
//!
//! A complete reproduction of *"CI-Rank: Ranking Keyword Search Results
//! Based on Collective Importance"* (Yu & Shi, ICDE 2012) as a Rust
//! library.
//!
//! CI-Rank answers keyword queries over a relational database with
//! *joined tuple trees* (JTTs) and ranks them by **collective importance**:
//! a Random Walk with Message Passing (RWMP) model that rewards answers
//! whose nodes are individually important *and* cohesively connected —
//! including the free connector nodes IR-style rankers ignore.
//!
//! The engine ties the subsystem crates together:
//!
//! * `ci-storage` — relational substrate;
//! * `ci-graph` — the weighted data graph (Table II edge weights,
//!   person merge);
//! * `ci-text` — keyword matching and IR statistics;
//! * `ci-walk` — random-walk node importance (Eq. 1);
//! * `ci-rwmp` — the RWMP scoring model (Eqs. 2–4);
//! * `ci-search` — naive and branch-and-bound top-k search (Algorithm 1);
//! * `ci-index` — naive and star indexing (§V);
//! * `ci-baselines` — DISCOVER2, SPARK, and BANKS for comparison.
//!
//! # Lifecycle: builder → snapshot → session
//!
//! There is one way to build and one way to query:
//!
//! 1. [`EngineBuilder`] runs the staged build pipeline (graph → text
//!    index → importance → prestige → dampening → distance index):
//!    `EngineBuilder::new(cfg).build(&db)` produces an…
//! 2. [`EngineSnapshot`] — an immutable, `Send + Sync`, query-ready view
//!    of one database. The snapshot owns everything queries share: the
//!    graph, the text index, the importance/prestige vectors, the
//!    precomputed dampening rates, and the distance index. Share it
//!    across threads behind an `Arc`; every method takes `&self`.
//! 3. [`QuerySession`] (from [`EngineSnapshot::session`]) runs the
//!    queries and holds what a single caller must *not* share: the
//!    per-query [`QueryBudget`] (expansion / wall-clock /
//!    candidate-memory limits, reported uniformly through
//!    [`ci_search::SearchStats::truncation`]) and a memo cache for
//!    distance-oracle probes. Sessions are cheap: open one per query,
//!    or keep one per thread so its caches stay warm.
//!
//! # Quickstart
//!
//! ```
//! use ci_rank::{CiRankConfig, EngineBuilder};
//! use ci_storage::{schemas, Value};
//! use ci_graph::WeightConfig;
//!
//! // A two-author, one-paper bibliography.
//! let (mut db, t) = schemas::dblp();
//! let yu = db.insert(t.author, vec![Value::text("Xiaohui Yu")]).unwrap();
//! let shi = db.insert(t.author, vec![Value::text("Huxia Shi")]).unwrap();
//! let paper = db
//!     .insert(t.paper, vec![Value::text("CI-Rank keyword search"), Value::int(2012)])
//!     .unwrap();
//! db.link(t.author_paper, yu, paper).unwrap();
//! db.link(t.author_paper, shi, paper).unwrap();
//!
//! let cfg = CiRankConfig {
//!     weights: WeightConfig::dblp_default(),
//!     ..Default::default()
//! };
//! let snap = EngineBuilder::new(cfg).build(&db).unwrap();
//! let (answers, stats) = snap.session().search_with_stats("yu shi").unwrap();
//! assert!(stats.truncation.is_none()); // an exact top-k
//! assert_eq!(answers.len(), 1);
//! assert_eq!(answers[0].nodes.len(), 3); // author — paper — author
//! ```

// Documentation is part of the public API: every public item in this
// crate must carry rustdoc (CI builds docs with `-D warnings`).
#![warn(missing_docs)]
// LINT-EXEMPT(tests): the workspace lint wall (workspace Cargo.toml) bans
// panicking constructs in library code; unit tests opt back in. Clippy still
// checks the non-test compilation of this crate, so library violations are
// caught even with this relaxation in place.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
    )
)]

mod builder;
mod config;
mod error;
mod explain;
pub mod feedback;
mod metrics;
mod ranker;
mod session;
mod snapshot;

// Budgets are enforced inside the search loops; re-exported so sessions
// can be configured without naming `ci_search`.
pub use ci_search::{QueryBudget, TruncationReason};

pub use builder::{BuildStage, EngineBuilder, StageReport};
pub use config::{CiRankConfig, ImportanceMethod, IndexKind};
pub use error::CiRankError;
pub use explain::ExplainReport;
pub use metrics::{MetricsRegistry, MetricsSnapshot, LATENCY_BUCKETS, LATENCY_BUCKET_BOUNDS_US};
pub use ranker::Ranker;
pub use session::QuerySession;
pub use snapshot::{AnswerNode, EngineSnapshot, RankedAnswer};

// The observability vocabulary of the search layer, re-exported so engine
// users can configure tracing and consume explanations without naming
// `ci_search` directly.
pub use ci_search::{
    ExplainedNode, ExplainedSource, ScoreExplanation, SearchTrace, TraceCounts, TraceEvent,
    TraceLevel,
};

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CiRankError>;
