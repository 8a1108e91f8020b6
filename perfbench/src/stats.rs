//! Pure helpers: the percentile rule, metric names and the result line.

use std::fmt::Write as _;

/// Harrell–Davis estimate of the `p`-th percentile: a weighted mean of all
/// order statistics, the i-th (of n) weighted by the mass Beta(q(n+1),
/// (1-q)(n+1)) puts on ((i-1)/n, i/n], for q = p/100. Catalogue latencies
/// come in clusters, one per query; the nearest rank jumps from one
/// cluster to the next on the slightest noise, this estimate moves with it
/// smoothly. `None` on an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = p / 100.0;
    if q <= 0.0 || q >= 1.0 || sorted.len() <= 1 {
        let end = if q <= 0.5 {
            sorted.first()
        } else {
            sorted.last()
        };
        return end.copied();
    }
    let n = sorted.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    // Each order statistic's weight is the Beta density integrated by the
    // midpoint rule over its interval; the normalising constant cancels.
    const STEPS: usize = 64;
    let step = 1.0 / (n * STEPS as f64);
    let log_density: Vec<f64> = (0..sorted.len() * STEPS)
        .map(|j| {
            let t = (j as f64 + 0.5) * step;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let (mut total, mut weighted) = (0.0, 0.0);
    for (chunk, x) in log_density.chunks(STEPS).zip(&sorted) {
        let w: f64 = chunk.iter().map(|l| (l - peak).exp()).sum();
        total += w;
        weighted += w * x;
    }
    Some(weighted / total)
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n))
}

/// Samples that lie strictly beyond the `p`-th percentile's nearest rank,
/// `ceil(p/100 * n)`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// The reporting rule for a tail percentile: at least ten samples must lie
/// beyond it, or the value is set by a handful of outliers.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median, estimated like every other percentile.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A metric name is one or more of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object, every value with all its digits.
/// Errors if a metric name is invalid or a value is not finite.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(x: Option<f64>, want: f64, tol: f64) -> bool {
        x.is_some_and(|x| (x - want).abs() <= tol)
    }

    #[test]
    fn percentile_estimates_the_quantile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        // Symmetric data: the median is the middle, 50.5.
        assert!(close(median(&s), 50.5, 1e-9), "{:?}", median(&s));
        // Evenly spaced data: the i-th value sits at the middle of its
        // interval, so about q·n + 1/2.
        assert!(
            close(percentile(&s, 90.0), 90.5, 0.01),
            "{:?}",
            percentile(&s, 90.0)
        );
        // Order of the input does not matter.
        let rev: Vec<f64> = s.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 90.0), percentile(&s, 90.0));
        assert!(percentile(&s, 50.0) < percentile(&s, 90.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert!(close(percentile(&[3.0; 5], 90.0), 3.0, 1e-12));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_moves_smoothly_between_clusters() {
        // Two clusters of latencies 10% apart, split at the median. Moving
        // one sample across the gap flips the nearest rank from one cluster
        // to the other; the estimate moves by a fraction of the gap.
        let split = |low: usize| -> Vec<f64> {
            let mut s = vec![100.0; low];
            s.resize(100, 110.0);
            s
        };
        let (a, b) = (median(&split(50)).unwrap(), median(&split(51)).unwrap());
        assert!(a > 100.0 && a < 110.0, "{a}");
        assert!(a - b > 0.0 && a - b < 2.0, "{a} -> {b}");
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(tail_is_supported(100, 90.0));
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(!tail_is_supported(99, 90.0));
        assert!(tail_is_supported(1000, 99.0));
        assert!(!tail_is_supported(999, 99.0));
        assert_eq!(samples_beyond(0, 90.0), 0);
        assert!(!tail_is_supported(0, 50.0));
        assert!(tail_is_supported(20, 50.0));
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "latency_p50_ms",
            "search.us_per_pop",
            "a-b",
            "9x",
            "A.B_c-1",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", "has space", "quo\"te", "slash/", "ünï", "a:b", "{x}"] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_keeps_every_digit_and_rejects_bad_metrics() {
        let m = |name, value| Metric {
            name,
            value,
            unit: "ms",
        };
        let line = result_json(true, 3, 0, &[m("a", 0.1 + 0.2), m("b.c", 2.0)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.30000000000000004, \"unit\": \"ms\"}, \
             \"b.c\": {\"value\": 2.0, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(true, 1, 0, &[m("bad name", 1.0)]).is_err());
        assert!(result_json(true, 1, 0, &[m("nan", f64::NAN)]).is_err());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
