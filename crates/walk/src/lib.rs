//! Random-walk node importance (§III-A of the paper).
//!
//! The importance of a node is the stationary probability of a random
//! surfer: `p = (1 − c)·M·p + c·u` (Eq. 1), where `M` is the column-
//! stochastic transition matrix built from normalized edge weights, `c` is
//! the teleportation constant (the paper uses the typical value 0.15), and
//! `u` the teleportation vector.
//!
//! Both solvers run power iteration:
//!
//! * [`pagerank`] — with a uniform teleport vector;
//! * [`pagerank_personalized`] — with a caller-supplied teleport vector,
//!   used for the user-feedback biasing the paper applies with its labeled
//!   AOL queries (and lists as future work to extend).
//!
//! The result is wrapped in [`Importance`], which also carries `p_min`
//! (the smallest importance), because RWMP's dampening function (Eq. 2) and
//! total surfer count `t = 1/p_min` are defined relative to it.
//!
//! # Example
//!
//! ```
//! use ci_graph::{GraphBuilder, NodeId};
//! use ci_walk::{pagerank, PowerOptions};
//!
//! let mut b = GraphBuilder::new();
//! let hub = b.add_node(0, vec![]);
//! for _ in 0..4 {
//!     let spoke = b.add_node(1, vec![]);
//!     b.add_pair(hub, spoke, 1.0, 1.0);
//! }
//! let graph = b.build();
//! let importance = pagerank(&graph, PowerOptions::default());
//! // The hub collects the walk's mass.
//! assert_eq!(importance.max(), importance.get(hub));
//! let total: f64 = importance.values().iter().sum();
//! assert!((total - 1.0).abs() < 1e-8);
//! ```

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
// Hot-path crate: lossy numeric casts and float equality are also denied
// here (ISSUE 1); use the checked conversion helpers instead.
#![deny(clippy::cast_possible_truncation, clippy::float_cmp)]
#![cfg_attr(test, allow(clippy::cast_possible_truncation, clippy::float_cmp))]
#![warn(missing_docs)]

mod importance;
mod power;

pub use importance::Importance;
pub use power::{
    pagerank, pagerank_personalized, pagerank_personalized_with_stats, pagerank_with_stats,
    Convergence, PowerOptions,
};
