//! The closed loop: one client issues the catalogue's queries one after
//! another through the engine's public query API, each as soon as the
//! previous one returned.

use std::time::{Duration, Instant};

use ci_rank::{EngineSnapshot, QuerySession};
use ci_rwmp::Jtt;
use ci_search::{QuerySpec, SearchStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{check_answers, fingerprint, Fingerprint};
use crate::spans::SpanLog;
use crate::workload::K;

/// The query catalogue, resolved against the snapshot for the output
/// check, and the seed that orders each pass over it.
pub struct Catalogue<'a> {
    texts: &'a [String],
    specs: Vec<QuerySpec>,
    seed: u64,
}

impl<'a> Catalogue<'a> {
    pub fn new(snap: &EngineSnapshot, texts: &'a [String], seed: u64) -> Result<Self, String> {
        let specs = texts
            .iter()
            .map(|q| snap.query_spec(q).map_err(|e| format!("query {q:?}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Catalogue { texts, specs, seed })
    }

    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// Pass `pass`'s order: its own seeded shuffle of the catalogue.
    fn order(&self, pass: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (pass as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    }
}

/// How a query is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One timed `search_with_stats` call.
    Plain,
    /// `query_spec` then `run_bnb`, each in its own span under a `query`
    /// root span; the root span's duration is the sample.
    Traced,
}

/// One query as the client saw it.
pub struct Sample {
    pub query: usize,
    pub secs: f64,
    pub stats: SearchStats,
    pub matchers: usize,
    /// Why the output check failed, if it did.
    pub failure: Option<String>,
    pub fingerprint: Fingerprint,
}

/// Everything one phase of the loop did.
pub struct Phase {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// Time spent inside engine calls.
    pub busy: Duration,
    pub passes: usize,
}

/// Runs whole passes over the catalogue while `run_pass(p, elapsed)`
/// accepts pass `p`, which takes the order of pass `first_pass + p`.
/// `session` is the client's session for the whole phase; `None` opens a
/// fresh session per query.
pub fn run_phase(
    snap: &EngineSnapshot,
    cat: &Catalogue<'_>,
    session: Option<&QuerySession<'_>>,
    log: &mut SpanLog,
    mode: Mode,
    first_pass: usize,
    run_pass: impl Fn(usize, Duration) -> bool,
) -> Phase {
    let scorer = snap.scorer();
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut busy = Duration::ZERO;
    let mut passes = 0;
    while run_pass(passes, start.elapsed()) {
        for query in cat.order(first_pass + passes) {
            let text = &cat.texts[query];
            let (secs, outcome) = match mode {
                Mode::Plain => plain(snap, session, text),
                Mode::Traced => traced(snap, session, text, query, log),
            };
            busy += Duration::from_secs_f64(secs);
            let spec = &cat.specs[query];
            let (stats, failure, fingerprint) = match outcome {
                Ok((stats, answers)) => {
                    let answers = || answers.iter().map(|(t, s)| (t, *s));
                    let failure = check_answers(&scorer, spec, K, answers()).err();
                    (stats, failure, fingerprint(answers()))
                }
                Err(e) => (SearchStats::default(), Some(e), Vec::new()),
            };
            samples.push(Sample {
                query,
                secs,
                stats,
                matchers: spec.matcher_count(),
                failure,
                fingerprint,
            });
        }
        passes += 1;
    }
    Phase {
        samples,
        wall: start.elapsed(),
        busy,
        passes,
    }
}

/// A query's statistics and its ranked `(tree, score)` answers.
type Outcome = Result<(SearchStats, Vec<(Jtt, f64)>), String>;

fn plain(snap: &EngineSnapshot, session: Option<&QuerySession<'_>>, text: &str) -> (f64, Outcome) {
    let t0 = Instant::now();
    let result = match session {
        Some(s) => s.search_with_stats(text),
        None => snap.search_with_stats(text),
    };
    let secs = t0.elapsed().as_secs_f64();
    let outcome = result
        .map(|(ranked, stats)| {
            (
                stats,
                ranked.into_iter().map(|a| (a.tree, a.score)).collect(),
            )
        })
        .map_err(|e| e.to_string());
    (secs, outcome)
}

fn traced(
    snap: &EngineSnapshot,
    session: Option<&QuerySession<'_>>,
    text: &str,
    query: usize,
    log: &mut SpanLog,
) -> (f64, Outcome) {
    let t0 = Instant::now();
    let root = log.begin("query", None, Some(query));
    let span = log.begin("text.query_spec", Some(root), Some(query));
    let spec = snap.query_spec(text);
    log.end(span);
    let outcome = spec.map_err(|e| e.to_string()).map(|spec| {
        let span = log.begin("search.run_bnb", Some(root), Some(query));
        let (answers, stats) = match session {
            Some(s) => s.run_bnb(&spec),
            None => snap.session().run_bnb(&spec),
        };
        log.end(span);
        (
            stats,
            answers.into_iter().map(|a| (a.tree, a.score)).collect(),
        )
    });
    log.end(root);
    (t0.elapsed().as_secs_f64(), outcome)
}
