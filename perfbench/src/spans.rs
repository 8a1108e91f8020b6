//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the log's
//! epoch), the span that caused it and the catalogue id of the query it
//! belongs to. Each client thread owns one log; logs are written out when
//! the run ends, never while it is measured.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span within its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub query: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One client's spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span now; close it with [`SpanLog::end`].
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        query: Option<usize>,
    ) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(name, now, now, parent, query)
    }

    pub fn end(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id) {
            s.end_ns = now;
        }
    }

    /// Records a span that already finished at `end` after running for
    /// `elapsed` (how build stages arrive through their stage reports).
    pub fn record_finished(
        &mut self,
        name: &'static str,
        end: Instant,
        elapsed: Duration,
        parent: Option<SpanId>,
    ) -> SpanId {
        let end_ns = self.ns(end);
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.push(
            name,
            end_ns.saturating_sub(elapsed_ns),
            end_ns,
            parent,
            None,
        )
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        query: Option<usize>,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The log as JSON lines, one span each, with its self time. Span ids
    /// are `<label>.<index>`.
    pub fn to_jsonl(&self, label: &str) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s
                .parent
                .map_or("null".to_string(), |p| format!("\"{label}.{p}\""));
            let query = s.query.map_or("null".to_string(), |q| q.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": \"{label}.{i}\", \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}, \"query\": {query}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once; a child that
/// sticks out of its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = s.parent.and_then(|p| children.get_mut(p)) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            query: None,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 10, 25, None)]), vec![15]);
    }

    #[test]
    fn nested_children_are_subtracted_one_level_at_a_time() {
        let spans = [
            span("query", 0, 100, None),
            span("text", 0, 10, Some(0)),
            span("search", 20, 90, Some(0)),
            span("inner", 30, 60, Some(2)),
        ];
        // query: 100 - (10 + 70); search: 70 - 30; leaves keep theirs.
        assert_eq!(self_times(&spans), vec![20, 10, 40, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span("client", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 45, Some(0)),
        ];
        // Union of the children is [10, 70): 60 ns.
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = [
            span("p", 50, 100, None),
            span("early", 0, 60, Some(0)),
            span("late", 90, 200, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn log_records_finished_spans_backwards_from_their_end() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(epoch);
        let root = log.begin("setup", None, None);
        let end = epoch + Duration::from_millis(5);
        let child = log.record_finished("build.graph", end, Duration::from_millis(2), Some(root));
        log.end(root);
        let s = &log.spans()[child];
        assert_eq!((s.start_ns, s.end_ns), (3_000_000, 5_000_000));
        assert_eq!(s.parent, Some(root));
        let lines = log.to_jsonl("1");
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"id\": \"1.1\""));
        assert!(lines.contains("\"parent\": \"1.0\""));
    }
}
