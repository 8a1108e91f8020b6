//! Prints the deterministic replay fingerprints of the query hot path.
//!
//! The heavy lifting lives in `ci_rank_suite::fingerprint` (shared with
//! `tests/query_hot_path_determinism.rs`, which pins these hashes as
//! constants). The constants were captured *before* the hot-path
//! optimizations (flat oracle cache, candidate arena, flows computed once
//! per bound at admission) landed, so matching output proves the optimized
//! path is bit-identical to the original implementation.
//!
//! Usage: `cargo run --release --example query_fingerprint`

// LINT-EXEMPT(tests): examples opt out of the library lint wall.
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_rank_suite::fingerprint::{build, cases, workload_fingerprint};

fn main() {
    for (label, kind, data, queries) in cases() {
        let snap = build(&data.db, kind, 1).expect("fingerprint dataset is non-empty");
        let fp = workload_fingerprint(&snap, &queries);
        println!("{label}: 0x{fp:016x} ({} queries)", queries.len());
    }
}
