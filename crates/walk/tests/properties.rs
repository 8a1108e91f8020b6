//! Property tests for the random-walk solvers.

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_graph::{GraphBuilder, NodeId};
use ci_walk::{pagerank, pagerank_personalized, PowerOptions};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct WalkCase {
    nodes: usize,
    edges: Vec<(usize, usize, u8)>,
    teleport: f64,
}

fn walk_case() -> impl Strategy<Value = WalkCase> {
    (2usize..15, 0.05f64..0.9).prop_flat_map(|(n, teleport)| {
        proptest::collection::vec((0..n, 0..n, 1u8..8), 1..3 * n).prop_map(move |edges| WalkCase {
            nodes: n,
            edges,
            teleport,
        })
    })
}

fn build(case: &WalkCase) -> ci_graph::Graph {
    let mut b = GraphBuilder::new();
    let nodes: Vec<NodeId> = (0..case.nodes).map(|_| b.add_node(0, vec![])).collect();
    for &(x, y, w) in &case.edges {
        if x != y {
            b.add_pair(nodes[x], nodes[y], w as f64, w as f64);
        }
    }
    b.build()
}

proptest! {
    /// The stationary vector is a strictly positive probability
    /// distribution regardless of graph shape (dangling nodes included).
    #[test]
    fn pagerank_is_a_distribution(case in walk_case()) {
        let g = build(&case);
        let imp = pagerank(&g, PowerOptions { teleport: case.teleport, ..Default::default() });
        let sum: f64 = imp.values().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        prop_assert!(imp.min() > 0.0);
        prop_assert!(imp.max() <= 1.0 + 1e-12);
        prop_assert!((imp.total_surfers() - 1.0 / imp.min()).abs() < 1e-9);
    }

    /// Personalization shifts mass toward the personalized node.
    #[test]
    fn personalization_shifts_mass(case in walk_case(), target_sel in 0usize..15) {
        let g = build(&case);
        let n = g.node_count();
        let target = NodeId((target_sel % n) as u32);
        let uniform = pagerank(&g, PowerOptions { teleport: case.teleport, ..Default::default() });
        let mut u = vec![0.0; n];
        u[target.idx()] = 1.0;
        let biased = pagerank_personalized(
            &g,
            PowerOptions { teleport: case.teleport, ..Default::default() },
            &u,
        );
        let sum: f64 = biased.values().iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6);
        prop_assert!(
            biased.get(target) > uniform.get(target) - 1e-9,
            "bias must not reduce the target's importance: {} vs {}",
            biased.get(target),
            uniform.get(target)
        );
    }
}
