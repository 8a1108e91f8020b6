//! End-to-end and per-layer benchmark of the CI-Rank engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dblp_merge_warm --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Generates the workload's inputs, sets the engine up several times,
//! runs the workload's closed loop against the public engine API, checks
//! every answer, and prints one JSON result line last on stdout. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
//! replays the same passes split into their layer calls under spans and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod check;
mod serve;
mod spans;
mod stats;
mod workload;

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ci_search::{CacheStats, SearchStats};

use crate::check::Fingerprint;
use crate::serve::{run_phase, Catalogue, Mode, Phase};
use crate::spans::{self_times, SpanLog};
use crate::stats::{median, percentile, ratio, result_json, tail_is_supported, Metric};
use crate::workload::{prepare, set_up, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest latency samples per run: ten must lie beyond the p90.
const MIN_SAMPLES: usize = 100;
/// Generated inputs and span logs, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is one of {names:?}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let inputs = prepare(w, out_dir)?;

    let epoch = Instant::now();
    let mut setup_log = SpanLog::new(epoch);
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut snap = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = set_up(&inputs, args.trace.then_some(&mut setup_log))?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        snap = Some(built);
    }
    let snap = snap.ok_or("no set-up ran")?;
    if args.trace && !matches!(inputs.source, workload::Source::Dump(_)) {
        // Set-up loads no dump here; time the storage layer on its own.
        for _ in 0..SETUP_REPS {
            let span = setup_log.begin("storage.load", None, None);
            ci_storage::persist::load(&mut inputs.dump_bytes.as_slice())
                .map_err(|e| format!("load: {e}"))?;
            setup_log.end(span);
        }
    }

    let cat = Catalogue::new(&snap, &inputs.catalogue, args.seed)?;
    let session = w.warm().then(|| snap.session());
    let mut log = SpanLog::new(epoch);
    let mut checked = Checked::new(cat.len());

    if w.warm() {
        let warm_up = run_phase(
            &snap,
            &cat,
            session.as_ref(),
            &mut log,
            Mode::Plain,
            0,
            |p, _| p < 1,
        );
        checked.add(&warm_up);
    }

    let min_passes = MIN_SAMPLES.div_ceil(cat.len().max(1));
    let seconds = args.seconds;
    let measured = run_phase(
        &snap,
        &cat,
        session.as_ref(),
        &mut log,
        Mode::Plain,
        1,
        |p, elapsed| {
            // Whole passes, at least `min_passes`, as many as best fill the
            // window.
            let e = elapsed.as_secs_f64();
            p < min_passes || e + e / p as f64 / 2.0 < seconds
        },
    );
    checked.add(&measured);

    let mut metrics = if args.trace {
        // The same passes again, split into their layer calls. They start
        // from the measured passes' state: the warm session already holds
        // every probe of the catalogue, and cold queries start empty.
        let passes = measured.passes;
        let traced = run_phase(
            &snap,
            &cat,
            session.as_ref(),
            &mut log,
            Mode::Traced,
            1,
            |p, _| p < passes,
        );
        checked.add(&traced);
        write_spans(out_dir, args, &setup_log, &log)?;
        layer_metrics(&measured, &traced, &setup_log, &log)
    } else {
        end_to_end_metrics(&measured, &setup_secs, &checked)?
    };
    metrics.sort_by_key(|m| m.name);

    eprintln!(
        "perfbench: {} seed {}: {} queries in the catalogue, {} measured samples over {} \
         pass(es) in {:.2} s, {} attempted, {} failed, {} hardware thread(s)",
        w.name(),
        args.seed,
        cat.len(),
        measured.samples.len(),
        measured.passes,
        measured.wall.as_secs_f64(),
        checked.attempted,
        checked.failed,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    for m in &metrics {
        eprintln!("  {:40} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for f in checked.failures.iter().take(5) {
        eprintln!("  failed: {f}");
    }
    result_json(
        checked.failed == 0,
        checked.attempted,
        checked.failed,
        &metrics,
    )
}

/// Output-check tally over every query the run issued. Besides passing
/// the answer check, every query's answers must repeat bit for bit the
/// first answers the run saw for it, whichever pass, session or API path
/// produced them.
struct Checked {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    reference: Vec<Option<Fingerprint>>,
}

impl Checked {
    fn new(queries: usize) -> Self {
        Checked {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            reference: vec![None; queries],
        }
    }

    fn add(&mut self, phase: &Phase) {
        for s in &phase.samples {
            self.attempted += 1;
            let mut failure = s.failure.clone();
            if let Some(slot) = self.reference.get_mut(s.query) {
                match slot {
                    None if failure.is_none() => *slot = Some(s.fingerprint.clone()),
                    Some(want) if *want != s.fingerprint => {
                        failure = failure.or(Some("answers differ from the reference".into()))
                    }
                    _ => {}
                }
            }
            if let Some(why) = failure {
                self.failed += 1;
                self.failures.push(format!("query {}: {why}", s.query));
            }
        }
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn end_to_end_metrics(
    measured: &Phase,
    setup_secs: &[f64],
    checked: &Checked,
) -> Result<Vec<Metric>, String> {
    let latencies: Vec<f64> = measured.samples.iter().map(|s| s.secs * 1e3).collect();
    let n = latencies.len();
    if !tail_is_supported(n, 90.0) {
        return Err(format!("{n} samples cannot support a p90"));
    }
    let capped = measured
        .samples
        .iter()
        .filter(|s| s.stats.truncation.is_some())
        .count();
    Ok(vec![
        metric("latency_p50_ms", median(&latencies).unwrap_or(0.0), "ms"),
        metric(
            "latency_p90_ms",
            percentile(&latencies, 90.0).unwrap_or(0.0),
            "ms",
        ),
        metric("capped_frac", ratio(capped as f64, n as f64), "ratio"),
        metric("qps", ratio(n as f64, measured.wall.as_secs_f64()), "1/s"),
        metric("setup_s", median(setup_secs).unwrap_or(0.0), "s"),
        metric("peak_rss_mb", peak_rss_mb()?, "MB"),
        metric(
            "ok_frac",
            1.0 - ratio(checked.failed as f64, checked.attempted as f64),
            "ratio",
        ),
    ])
}

/// Self times (ms) of every span named `name`.
fn span_ms(log: &SpanLog, name: &str) -> Vec<f64> {
    log.spans()
        .iter()
        .zip(self_times(log.spans()))
        .filter(|(s, _)| s.name == name)
        .map(|(_, own)| own as f64 / 1e6)
        .collect()
}

fn layer_metrics(
    measured: &Phase,
    traced: &Phase,
    setup_log: &SpanLog,
    log: &SpanLog,
) -> Vec<Metric> {
    let samples = &traced.samples;
    let queries = samples.len() as f64;
    let sum =
        |f: fn(&SearchStats) -> usize| -> f64 { samples.iter().map(|s| f(&s.stats) as f64).sum() };
    let pops = sum(|s| s.pops);
    let registered = sum(|s| s.registered);
    let cache: Vec<CacheStats> = samples.iter().filter_map(|s| s.stats.cache).collect();
    let hits: f64 = cache.iter().map(|c| c.hits as f64).sum();
    let misses: f64 = cache.iter().map(|c| c.misses as f64).sum();
    let entries = cache.iter().map(|c| c.entries).max().unwrap_or(0) as f64;
    let latency_ms = |exact: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.stats.truncation.is_none() == exact)
            .map(|s| s.secs * 1e3)
            .collect()
    };
    let exact = latency_ms(true);
    let bnb_ms = span_ms(log, "search.run_bnb");
    let spec_ms = span_ms(log, "text.query_spec");
    let traced_secs: f64 = samples.iter().map(|s| s.secs).sum();
    let plain_secs: f64 = measured.samples.iter().map(|s| s.secs).sum();
    let peaks: Vec<f64> = samples
        .iter()
        .map(|s| s.stats.candidates_peak as f64)
        .collect();

    let mut out = vec![
        metric(
            "search.us_per_pop",
            ratio(bnb_ms.iter().sum::<f64>() * 1e3, pops),
            "us",
        ),
        metric(
            "search.merges_per_pop",
            ratio(sum(|s| s.merges), pops),
            "count",
        ),
        metric("search.run_bnb_ms", median(&bnb_ms).unwrap_or(0.0), "ms"),
        metric("search.pops_per_query", ratio(pops, queries), "count"),
        metric(
            "search.registered_per_pop",
            ratio(registered, pops),
            "count",
        ),
        metric(
            "search.bound_pruned_per_registered",
            ratio(sum(|s| s.bound_pruned), registered),
            "ratio",
        ),
        metric(
            "search.distance_pruned_per_registered",
            ratio(sum(|s| s.distance_pruned), registered),
            "ratio",
        ),
        metric(
            "search.candidates_peak_p50",
            median(&peaks).unwrap_or(0.0),
            "count",
        ),
        metric(
            "search.exact_frac",
            ratio(exact.len() as f64, queries),
            "ratio",
        ),
        metric(
            "search.exact_latency_p50_ms",
            median(&exact).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "search.capped_latency_p50_ms",
            median(&latency_ms(false)).unwrap_or(0.0),
            "ms",
        ),
        metric("cache.hit_rate", ratio(hits, hits + misses), "ratio"),
        metric("cache.misses_per_query", ratio(misses, queries), "count"),
        metric("cache.entries", entries, "count"),
        metric(
            "text.query_spec_us",
            median(&spec_ms).unwrap_or(0.0) * 1e3,
            "us",
        ),
        metric(
            "text.matchers_per_query",
            ratio(samples.iter().map(|s| s.matchers as f64).sum(), queries),
            "count",
        ),
        metric(
            "storage.load_ms",
            median(&span_ms(setup_log, "storage.load")).unwrap_or(0.0),
            "ms",
        ),
        metric(
            "serve.busy_frac",
            ratio(traced.busy.as_secs_f64(), traced.wall.as_secs_f64()),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            ratio(traced_secs, plain_secs) - 1.0,
            "ratio",
        ),
    ];
    for stage in ci_rank::BuildStage::ALL {
        let (span, name) = workload::stage_names(stage);
        let ms = median(&span_ms(setup_log, span)).unwrap_or(0.0);
        out.push(metric(name, ms, "ms"));
    }
    out
}

/// The spans of a traced run, one JSON object per line.
fn write_spans(
    out_dir: &Path,
    args: &Args,
    setup: &SpanLog,
    queries: &SpanLog,
) -> Result<(), String> {
    let text = setup.to_jsonl("setup") + &queries.to_jsonl("client");
    let path = out_dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("VmHWM: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}
