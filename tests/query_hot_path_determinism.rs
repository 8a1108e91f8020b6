//! Replay-fingerprint contract of the query hot path.
//!
//! The pinned constants below were captured with
//! `cargo run --release --example query_fingerprint` *before* the hot-path
//! optimizations landed (flat oracle cache, pooled candidate arena, flows
//! computed once per bound at admission into one reused buffer). Every
//! configuration this file replays must reproduce them exactly:
//!
//! * engines built at 1, 2, and 8 worker threads (the offline build is
//!   bit-deterministic, so the query layer sees identical inputs);
//! * a fresh `QuerySession` per query (the semantics the constants were
//!   captured under) and one session reused across the whole workload
//!   (warm oracle cache + warm candidate pool — both must be observably
//!   transparent).
//!
//! A warm reused session must also reach an allocation steady state: a
//! second replay of the same workload may not construct a single new
//! candidate slot ([`ci_rank::QuerySession::scratch_slots_allocated`]).

// LINT-EXEMPT(tests): integration tests may unwrap/index freely; the
// workspace lint wall applies to library code only (ISSUE 1).
#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]

use ci_rank_suite::fingerprint::{build, cases, workload_fingerprint, workload_fingerprint_reused};

/// Pre-optimization baselines, one per `fingerprint::cases()` entry.
const BASELINES: [(&str, u64); 3] = [
    ("zipf/naive", 0x2040_1ca2_234e_de89),
    ("zipf/star", 0xabd2_021b_5d69_7625),
    ("midsize/star", 0xe045_5ae3_d748_6160),
];

fn baseline(label: &str) -> u64 {
    BASELINES
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, fp)| fp)
        .unwrap_or_else(|| panic!("no baseline for {label}"))
}

#[test]
fn replay_matches_pre_optimization_baselines() {
    for (label, kind, data, queries) in cases() {
        for threads in [1usize, 2, 8] {
            let snap = build(&data.db, kind.clone(), threads).unwrap();
            let fresh = workload_fingerprint(&snap, &queries);
            assert_eq!(
                fresh,
                baseline(label),
                "{label}: fresh-session replay diverged from the \
                 pre-optimization baseline (build_threads={threads})"
            );

            let session = snap.session();
            let reused = workload_fingerprint_reused(&session, &queries);
            assert_eq!(
                reused,
                baseline(label),
                "{label}: warm reused-session replay diverged \
                 (build_threads={threads})"
            );
        }
    }
}

/// Observability contract (`ci-obs`): tracing is observational only.
///
/// The same workload replayed at [`ci_rank::TraceLevel::Off`] and
/// [`ci_rank::TraceLevel::Full`] must reproduce the pinned
/// pre-optimization fingerprints bit for bit — trace emission sits inside
/// the search loop, so any behavioral leak (an extra oracle probe, a
/// reordered admission) shows up as a changed hash. The disabled path
/// must also be allocation-free: a session that never traces must never
/// even allocate the event buffer.
#[test]
fn tracing_is_fingerprint_neutral() {
    use ci_rank::TraceLevel;
    for (label, kind, data, queries) in cases() {
        let snap = build(&data.db, kind, 1).unwrap();

        let off = snap.session();
        let off_fp = workload_fingerprint_reused(&off, &queries);
        assert_eq!(
            off_fp,
            baseline(label),
            "{label}: TraceLevel::Off replay diverged from the baseline"
        );
        let off_trace = off.last_trace();
        assert_eq!(
            off_trace.buffer_capacity(),
            0,
            "{label}: the Off path allocated a trace buffer"
        );
        assert!(off_trace.events().is_empty());
        assert_eq!(off_trace.dropped(), 0);

        let full = snap.session().with_trace(TraceLevel::Full);
        let full_fp = workload_fingerprint_reused(&full, &queries);
        assert_eq!(
            full_fp,
            baseline(label),
            "{label}: TraceLevel::Full changed the replay fingerprint"
        );
        let trace = full.last_trace();
        let counts = trace.counts();
        assert!(
            counts.pops > 0 && counts.admits > 0,
            "{label}: full tracing recorded the run ({counts:?})"
        );
    }
}

#[test]
fn warm_session_replays_without_allocating() {
    for (label, kind, data, queries) in cases() {
        let snap = build(&data.db, kind, 1).unwrap();
        let session = snap.session();
        // First replay warms the pool up to the workload's working set.
        let first = workload_fingerprint_reused(&session, &queries);
        let warm_slots = session.scratch_slots_allocated();
        assert!(warm_slots > 0, "{label}: the workload searches for real");
        // Steady state: an identical replay reuses every slot.
        let second = workload_fingerprint_reused(&session, &queries);
        assert_eq!(first, second, "{label}: warm replay changed results");
        assert_eq!(
            session.scratch_slots_allocated(),
            warm_slots,
            "{label}: steady-state replay constructed new candidate slots"
        );
    }
}
