use ci_graph::{Graph, NodeId};

use crate::importance::Importance;

/// Options for the power-iteration solvers.
#[derive(Debug, Clone, Copy)]
pub struct PowerOptions {
    /// Teleportation constant `c` of Eq. 1. The paper uses 0.15.
    pub teleport: f64,
    /// Convergence threshold on the L1 change between iterations.
    pub epsilon: f64,
    /// Iteration cap.
    pub max_iterations: usize,
    /// Worker threads for the per-iteration matvec, which gathers over a
    /// precomputed edge transpose in contiguous destination chunks. `1`
    /// (the default) runs the gather inline without spawning. Each slot
    /// adds its contributions in ascending source order whatever the chunk
    /// boundaries, so the iterates — and therefore importance, convergence
    /// counts, and residuals — are bit-identical at every thread count.
    pub threads: usize,
}

impl Default for PowerOptions {
    fn default() -> Self {
        PowerOptions {
            teleport: 0.15,
            epsilon: 1e-10,
            max_iterations: 200,
            threads: 1,
        }
    }
}

/// Convergence report of a power-iteration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Convergence {
    /// Iterations performed.
    pub iterations: usize,
    /// Final L1 change between successive iterates.
    pub residual: f64,
    /// True if the residual dropped below `epsilon` before the iteration
    /// cap.
    pub converged: bool,
}

/// Power iteration of Eq. 1 with a uniform teleport vector.
pub fn pagerank(graph: &Graph, opts: PowerOptions) -> Importance {
    pagerank_with_stats(graph, opts).0
}

/// Like [`pagerank`], also reporting convergence diagnostics.
pub fn pagerank_with_stats(graph: &Graph, opts: PowerOptions) -> (Importance, Convergence) {
    let n = graph.node_count();
    assert!(n > 0, "pagerank over an empty graph");
    let uniform = vec![1.0 / n as f64; n];
    solve(graph, opts, &uniform)
}

/// Power iteration of Eq. 1 with a personalized teleport vector (biased
/// random walk). `teleport_vector` must be non-negative and is normalized
/// internally; to keep every importance strictly positive (required by
/// RWMP's `p_min`), a small uniform floor is mixed in.
pub fn pagerank_personalized(
    graph: &Graph,
    opts: PowerOptions,
    teleport_vector: &[f64],
) -> Importance {
    pagerank_personalized_with_stats(graph, opts, teleport_vector).0
}

/// Like [`pagerank_personalized`], also reporting convergence diagnostics.
pub fn pagerank_personalized_with_stats(
    graph: &Graph,
    opts: PowerOptions,
    teleport_vector: &[f64],
) -> (Importance, Convergence) {
    let n = graph.node_count();
    assert_eq!(teleport_vector.len(), n, "teleport vector length mismatch");
    let sum: f64 = teleport_vector.iter().sum();
    assert!(sum > 0.0, "teleport vector must have positive mass");
    assert!(
        teleport_vector.iter().all(|&x| x >= 0.0),
        "teleport vector entries must be non-negative"
    );
    // Mix 99% personalization with a 1% uniform floor so p_min stays > 0.
    const FLOOR: f64 = 0.01;
    let u: Vec<f64> = teleport_vector
        .iter()
        .map(|&x| (1.0 - FLOOR) * x / sum + FLOOR / n as f64)
        .collect();
    solve(graph, opts, &u)
}

fn solve(graph: &Graph, opts: PowerOptions, u: &[f64]) -> (Importance, Convergence) {
    assert!(
        opts.teleport > 0.0 && opts.teleport < 1.0,
        "teleportation constant must lie in (0, 1)"
    );
    let n = graph.node_count();
    let c = opts.teleport;
    let threads = opts.threads.max(1).min(n.max(1));
    let transpose = Transpose::build(graph);
    let mut p = u.to_vec();
    let mut next = vec![0.0f64; n];
    let mut report = Convergence {
        iterations: 0,
        residual: f64::INFINITY,
        converged: false,
    };
    for _ in 0..opts.max_iterations {
        // Dangling nodes (no out-edges) teleport with probability 1: their
        // walk mass is redistributed via u. Summed serially over ascending
        // node ids, so the redistribution term is bit-identical at every
        // thread count.
        let mut dangling = 0.0;
        for v in graph.nodes() {
            if graph.out_degree(v) == 0 {
                dangling += p.get(v.idx()).copied().unwrap_or(0.0);
            }
        }
        let redistribute = c + (1.0 - c) * dangling;
        transpose.gather_matvec(threads, c, &p, u, redistribute, &mut next);
        let delta: f64 = next.iter().zip(p.iter()).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut p, &mut next);
        report.iterations += 1;
        report.residual = delta;
        if delta < opts.epsilon {
            report.converged = true;
            break;
        }
    }
    (Importance::new(p), report)
}

/// In-edge adjacency (CSR transpose) for the gather form of the matvec.
///
/// Built by scanning source nodes in ascending id order, so each
/// destination's in-edge list is sorted by (source id, source edge order).
/// A gather that walks the list front to back performs the same sequence
/// of f64 additions per slot however the destinations are split across
/// workers, making the result bit-equal at every thread count.
struct Transpose {
    /// Per-destination offsets into `srcs`/`weights` (`node_count + 1`).
    offsets: Vec<usize>,
    /// Source node of each in-edge.
    srcs: Vec<NodeId>,
    /// Normalized weight of each in-edge.
    weights: Vec<f64>,
}

impl Transpose {
    fn build(graph: &Graph) -> Transpose {
        let n = graph.node_count();
        let mut deg = vec![0usize; n];
        for v in graph.nodes() {
            for e in graph.edges(v) {
                if let Some(d) = deg.get_mut(e.to.idx()) {
                    *d += 1;
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        offsets.push(0);
        for d in &deg {
            total += d;
            offsets.push(total);
        }
        let mut cursor: Vec<usize> = offsets.iter().take(n).copied().collect();
        let mut srcs = vec![NodeId(0); total];
        let mut weights = vec![0.0f64; total];
        for v in graph.nodes() {
            for e in graph.edges(v) {
                if let Some(slot) = cursor.get_mut(e.to.idx()) {
                    let at = *slot;
                    *slot += 1;
                    if let Some(s) = srcs.get_mut(at) {
                        *s = v;
                    }
                    if let Some(w) = weights.get_mut(at) {
                        *w = e.norm_weight;
                    }
                }
            }
        }
        Transpose {
            offsets,
            srcs,
            weights,
        }
    }

    /// One matvec step of Eq. 1 in gather (pull) form: each destination
    /// slot sums `(1−c)·p_v·w` over its in-edges in ascending source
    /// order, then adds the teleport/dangling redistribution. With
    /// `threads > 1` the slots are split into contiguous, disjoint chunks
    /// over scoped workers; with one thread the loop runs inline.
    fn gather_matvec(
        &self,
        threads: usize,
        c: f64,
        p: &[f64],
        u: &[f64],
        redistribute: f64,
        next: &mut [f64],
    ) {
        let fill = |start: usize, out: &mut [f64]| {
            for (off, slot) in out.iter_mut().enumerate() {
                let j = start + off;
                let lo = self.offsets.get(j).copied().unwrap_or(0);
                let hi = self.offsets.get(j + 1).copied().unwrap_or(lo);
                let in_srcs = self.srcs.get(lo..hi).unwrap_or(&[]);
                let in_weights = self.weights.get(lo..hi).unwrap_or(&[]);
                let mut acc = 0.0f64;
                for (src, w) in in_srcs.iter().zip(in_weights) {
                    let mass = p.get(src.idx()).copied().unwrap_or(0.0);
                    acc += (1.0 - c) * mass * w;
                }
                *slot = acc + redistribute * u.get(j).copied().unwrap_or(0.0);
            }
        };
        if threads <= 1 {
            fill(0, next);
            return;
        }
        let chunk = next.len().div_ceil(threads).max(1);
        std::thread::scope(|s| {
            for (ci, out) in next.chunks_mut(chunk).enumerate() {
                let fill = &fill;
                s.spawn(move || fill(ci * chunk, out));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ci_graph::{GraphBuilder, NodeId};

    fn star(hub_spokes: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let hub = b.add_node(0, vec![]);
        for _ in 0..hub_spokes {
            let s = b.add_node(1, vec![]);
            b.add_pair(hub, s, 1.0, 1.0);
        }
        b.build()
    }

    #[test]
    fn probabilities_sum_to_one() {
        let g = star(5);
        let imp = pagerank(&g, PowerOptions::default());
        let s: f64 = imp.values().iter().sum();
        assert!((s - 1.0).abs() < 1e-8, "sum {s}");
    }

    #[test]
    fn hub_is_most_important() {
        let g = star(8);
        let imp = pagerank(&g, PowerOptions::default());
        let hub = imp.get(NodeId(0));
        for i in 1..=8 {
            assert!(hub > imp.get(NodeId(i as u32)));
        }
        assert_eq!(imp.max(), hub);
    }

    #[test]
    fn symmetric_nodes_get_equal_importance() {
        let g = star(4);
        let imp = pagerank(&g, PowerOptions::default());
        for i in 2..=4 {
            assert!((imp.get(NodeId(1)) - imp.get(NodeId(i))).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_nodes_handled() {
        // 0 → 1, 1 has no out-edges.
        let mut b = GraphBuilder::new();
        let a = b.add_node(0, vec![]);
        let d = b.add_node(0, vec![]);
        b.add_edge(a, d, 1.0);
        let g = b.build();
        let imp = pagerank(&g, PowerOptions::default());
        let s: f64 = imp.values().iter().sum();
        assert!((s - 1.0).abs() < 1e-8);
        assert!(imp.get(NodeId(1)) > imp.get(NodeId(0)));
    }

    #[test]
    fn edge_weights_steer_the_walk() {
        // Hub points to two nodes with weights 4:1.
        let mut b = GraphBuilder::new();
        let hub = b.add_node(0, vec![]);
        let heavy = b.add_node(0, vec![]);
        let light = b.add_node(0, vec![]);
        b.add_pair(hub, heavy, 4.0, 1.0);
        b.add_pair(hub, light, 1.0, 1.0);
        let g = b.build();
        let imp = pagerank(&g, PowerOptions::default());
        assert!(imp.get(NodeId(1)) > imp.get(NodeId(2)));
    }

    #[test]
    fn personalized_biases_toward_mass() {
        let g = star(4);
        // All teleport mass on spoke 3.
        let mut u = vec![0.0; g.node_count()];
        u[3] = 1.0;
        let imp = pagerank_personalized(&g, PowerOptions::default(), &u);
        for i in [1u32, 2, 4] {
            assert!(imp.get(NodeId(3)) > imp.get(NodeId(i)));
        }
        // Floor keeps everything positive.
        assert!(imp.min() > 0.0);
    }

    #[test]
    #[should_panic(expected = "teleport vector length")]
    fn personalized_length_checked() {
        let g = star(2);
        pagerank_personalized(&g, PowerOptions::default(), &[1.0]);
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn personalized_zero_mass_rejected() {
        let g = star(2);
        pagerank_personalized(&g, PowerOptions::default(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn convergence_report() {
        let g = star(4);
        let (_, report) = pagerank_with_stats(&g, PowerOptions::default());
        assert!(report.converged);
        assert!(report.iterations > 1);
        assert!(report.residual < 1e-10);
        // An impossible epsilon never converges but still reports.
        let (_, starved) = pagerank_with_stats(
            &g,
            PowerOptions {
                epsilon: 0.0,
                max_iterations: 5,
                ..Default::default()
            },
        );
        assert!(!starved.converged);
        assert_eq!(starved.iterations, 5);
    }

    /// Asymmetric weights, a dangling node, and a cycle: every code path
    /// of the matvec.
    fn lopsided() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..7).map(|i| b.add_node((i % 2) as u16, vec![])).collect();
        b.add_pair(n[0], n[1], 3.0, 1.0);
        b.add_pair(n[1], n[2], 2.0, 5.0);
        b.add_pair(n[2], n[3], 1.0, 1.0);
        b.add_pair(n[3], n[0], 4.0, 2.0);
        b.add_pair(n[2], n[4], 1.0, 7.0);
        b.add_edge(n[4], n[5], 2.0); // n5 left dangling on purpose
        b.add_pair(n[0], n[6], 1.0, 1.0);
        b.build()
    }

    /// The matvec in scatter (push) form: each source, in ascending id
    /// order, pushes `(1−c)·p_v·w` along its out-edges, then every slot
    /// adds the redistribution term.
    fn push_matvec(graph: &Graph, c: f64, p: &[f64], u: &[f64], redistribute: f64) -> Vec<f64> {
        let mut next = vec![0.0; graph.node_count()];
        for v in graph.nodes() {
            for e in graph.edges(v) {
                next[e.to.idx()] += (1.0 - c) * p[v.idx()] * e.norm_weight;
            }
        }
        for (slot, mass) in next.iter_mut().zip(u) {
            *slot += redistribute * mass;
        }
        next
    }

    #[test]
    fn gather_reproduces_the_scatter_addition_order() {
        // Same f64 additions per slot in the same order, so the pull form
        // equals the push form bit for bit at any worker count.
        let g = lopsided();
        let n = g.node_count();
        let p: Vec<f64> = (0..n).map(|i| 1.0 / (i as f64 + 1.7)).collect();
        let u = vec![1.0 / n as f64; n];
        let expected = push_matvec(&g, 0.15, &p, &u, 0.3);
        let transpose = Transpose::build(&g);
        for threads in [1, 2, 3, 8] {
            let mut next = vec![f64::NAN; n];
            transpose.gather_matvec(threads, 0.15, &p, &u, 0.3, &mut next);
            let got: Vec<u64> = next.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = expected.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{threads} threads diverged from the scatter");
        }
    }

    #[test]
    fn parallel_matvec_is_bit_identical() {
        // The inline single-thread gather and the chunked multi-thread one
        // agree bit for bit, residuals and iteration counts included.
        let g = lopsided();
        let (serial, serial_conv) = pagerank_with_stats(&g, PowerOptions::default());
        for threads in [2, 3, 8] {
            let (par, conv) = pagerank_with_stats(
                &g,
                PowerOptions {
                    threads,
                    ..Default::default()
                },
            );
            let serial_bits: Vec<u64> = serial.values().iter().map(|x| x.to_bits()).collect();
            let par_bits: Vec<u64> = par.values().iter().map(|x| x.to_bits()).collect();
            assert_eq!(par_bits, serial_bits, "{threads} threads diverged");
            assert_eq!(conv.iterations, serial_conv.iterations);
            assert_eq!(conv.residual.to_bits(), serial_conv.residual.to_bits());
            assert_eq!(conv.converged, serial_conv.converged);
        }
    }

    #[test]
    fn parallel_personalized_is_bit_identical() {
        let g = star(5);
        let mut u = vec![0.0; g.node_count()];
        u[2] = 0.7;
        u[4] = 0.3;
        let serial = pagerank_personalized(&g, PowerOptions::default(), &u);
        let par = pagerank_personalized(
            &g,
            PowerOptions {
                threads: 4,
                ..Default::default()
            },
            &u,
        );
        for (a, b) in serial.values().iter().zip(par.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn thread_count_exceeding_nodes_is_clamped() {
        let g = star(2); // 3 nodes, 64 requested threads
        let serial = pagerank(&g, PowerOptions::default());
        let par = pagerank(
            &g,
            PowerOptions {
                threads: 64,
                ..Default::default()
            },
        );
        for (a, b) in serial.values().iter().zip(par.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn higher_teleport_flattens_distribution() {
        let g = star(6);
        let low = pagerank(
            &g,
            PowerOptions {
                teleport: 0.05,
                ..Default::default()
            },
        );
        let high = pagerank(
            &g,
            PowerOptions {
                teleport: 0.9,
                ..Default::default()
            },
        );
        let spread_low = low.max() / low.min();
        let spread_high = high.max() / high.min();
        assert!(spread_low > spread_high);
    }
}
