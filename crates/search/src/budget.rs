use std::time::{Duration, Instant};

/// Per-query resource budget threaded through both search algorithms.
///
/// A budget never changes *which* answers are correct — it only allows a
/// run to stop early. Every early stop is reported through
/// [`crate::SearchStats::truncation`] instead of panicking or silently
/// capping, and the answers returned by a truncated run are always valid
/// (each one is a complete, scored JTT); only the top-k *optimality*
/// guarantee of Theorem 1 is forfeited.
///
/// The default budget is unlimited on every axis, preserving the exact
/// search semantics. (The oracle cache's memory is capped separately, at
/// [`crate::DEFAULT_CACHE_ENTRIES`] slots; that cap never truncates.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryBudget {
    /// Cap on branch-and-bound queue pops (grow steps). Also bounds total
    /// candidate registrations at 10× the cap, because merge cascades at
    /// hub roots can register far more candidates than the pop loop ever
    /// touches.
    pub max_expansions: Option<usize>,
    /// Wall-clock deadline. Checked at bounded intervals, so a run may
    /// overshoot by a few expansions but never hangs past the check.
    pub deadline: Option<Instant>,
    /// Cap on live candidates held in memory (the branch-and-bound arena,
    /// an upper bound on resident candidate memory).
    pub max_candidates: Option<usize>,
}

impl QueryBudget {
    /// Builder-style expansion cap.
    #[must_use]
    pub fn with_max_expansions(mut self, cap: usize) -> Self {
        self.max_expansions = Some(cap);
        self
    }

    /// Builder-style absolute deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Builder-style relative deadline (`now + timeout`).
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Builder-style candidate-memory cap.
    #[must_use]
    pub fn with_max_candidates(mut self, cap: usize) -> Self {
        self.max_candidates = Some(cap);
        self
    }

    /// True if no axis is bounded — the exactness-preserving default.
    pub fn is_unlimited(&self) -> bool {
        self.max_expansions.is_none() && self.deadline.is_none() && self.max_candidates.is_none()
    }

    /// True if the wall-clock deadline has passed.
    pub(crate) fn deadline_exceeded(&self, now: Instant) -> bool {
        self.deadline.is_some_and(|d| now >= d)
    }
}

/// Why a search run stopped before exhausting its search space.
///
/// Reported uniformly by both algorithms through
/// [`crate::SearchStats::truncation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationReason {
    /// [`QueryBudget::max_expansions`] (or its derived registration cap)
    /// was reached.
    Expansions,
    /// [`QueryBudget::deadline`] passed mid-run.
    Deadline,
    /// [`QueryBudget::max_candidates`] live candidates were reached.
    CandidateMemory,
    /// A naive-search enumeration cap was hit
    /// ([`crate::SearchOptions::naive_max_paths`] or
    /// [`crate::SearchOptions::naive_max_combinations`]).
    EnumerationCaps,
}

impl std::fmt::Display for TruncationReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TruncationReason::Expansions => f.write_str("expansion budget exhausted"),
            TruncationReason::Deadline => f.write_str("wall-clock deadline passed"),
            TruncationReason::CandidateMemory => f.write_str("candidate-memory budget exhausted"),
            TruncationReason::EnumerationCaps => f.write_str("naive enumeration cap hit"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unlimited() {
        let b = QueryBudget::default();
        assert!(b.is_unlimited(), "no axis is bounded");
        assert!(!b.deadline_exceeded(Instant::now()));
    }

    #[test]
    fn builders_set_each_axis() {
        let now = Instant::now();
        let b = QueryBudget::default()
            .with_max_expansions(10)
            .with_deadline(now)
            .with_max_candidates(100);
        assert_eq!(b.max_expansions, Some(10));
        assert_eq!(b.max_candidates, Some(100));
        assert!(!b.is_unlimited());
        assert!(b.deadline_exceeded(now));
        assert!(b.deadline_exceeded(now + Duration::from_millis(1)));
    }

    #[test]
    fn timeout_is_relative_to_now() {
        let b = QueryBudget::default().with_timeout(Duration::from_secs(3600));
        assert!(!b.deadline_exceeded(Instant::now()));
        let expired = QueryBudget::default().with_timeout(Duration::ZERO);
        assert!(expired.deadline_exceeded(Instant::now()));
    }

    #[test]
    fn reasons_display() {
        for (r, needle) in [
            (TruncationReason::Expansions, "expansion"),
            (TruncationReason::Deadline, "deadline"),
            (TruncationReason::CandidateMemory, "memory"),
            (TruncationReason::EnumerationCaps, "enumeration"),
        ] {
            assert!(r.to_string().contains(needle));
        }
    }
}
