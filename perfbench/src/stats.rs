//! The reporting rules every metric goes through: the percentile rule,
//! the metric-name and unit grammar, and the result-line schema.

/// A tail percentile is reported only when at least this many samples lie
/// strictly beyond it; otherwise it would just be the maximum of a handful
/// of samples.
pub const TAIL_SUPPORT: usize = 10;

/// Tail percentiles tried, highest first, when choosing the tail to report.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 95.0, 90.0];

/// Nearest-rank percentile of an ascending-sorted, non-empty slice: the
/// smallest sample with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples. The
/// tolerance keeps binary rounding (99.9 % of 10000 is 9990.000000000002)
/// from pushing an exact rank up by one.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The median (nearest rank, so always an observed sample).
pub fn median(sorted: &[f64]) -> f64 {
    nearest_rank(sorted, 50.0)
}

/// The `p`-th percentile, or `None` when fewer than [`TAIL_SUPPORT`]
/// samples lie beyond it.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), p) >= TAIL_SUPPORT).then(|| nearest_rank(sorted, p))
}

/// A timing summary: sample count, median, and the highest percentile of
/// [`TAIL_LADDER`] with [`TAIL_SUPPORT`] samples beyond it (if any).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// `(percentile, value)` of the reported tail.
    pub tail: Option<(f64, f64)>,
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let tail = TAIL_LADDER
            .iter()
            .find_map(|&p| supported_percentile(&sorted, p).map(|v| (p, v)));
        Summary {
            n: sorted.len(),
            p50: median(&sorted),
            tail,
            sorted,
        }
    }

    /// The `p`-th percentile when [`TAIL_SUPPORT`] samples lie beyond it.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        supported_percentile(&self.sorted, p)
    }
}

/// Whether `name` is a valid metric or workload name: 1 to 64 characters
/// of `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 characters of
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric name (see [`valid_name`]).
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// The unit (see [`valid_unit`]).
    pub unit: &'static str,
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, each metric carrying
/// its value with all its digits and its unit.
///
/// # Errors
///
/// Rejects an invalid name or unit, a repeated name, a non-finite value,
/// and `attempted == 0`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    if attempted == 0 {
        return Err("a run must attempt at least one operation".into());
    }
    let mut body = Vec::with_capacity(metrics.len());
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} of {}", m.unit, m.name));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        // `{:?}` prints the shortest text that reads back as the same f64.
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// `(name, unit)` of each object in the array `section` of a JSON
/// document laid out one key per line (as `BENCHMARK.json` and
/// `spec.json` are); the unit is empty when an object has none.
#[cfg(test)]
pub fn json_entries(doc: &str, section: &str) -> Vec<(String, String)> {
    let value = |line: &str, key: &str| {
        let rest = line.trim().strip_prefix(&format!("\"{key}\": \""))?;
        Some(rest[..rest.find('"')?].to_string())
    };
    let start = doc
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} array"));
    let mut depth = 0;
    let mut entries = Vec::new();
    for line in doc[start..].lines() {
        depth += line.matches('[').count() as i64 - line.matches(']').count() as i64;
        if let Some(name) = value(line, "name") {
            entries.push((name, String::new()));
        }
        if let (Some(unit), Some(last)) = (value(line, "unit"), entries.last_mut()) {
            last.1 = unit;
        }
        if depth == 0 {
            break;
        }
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let s = ramp(100);
        assert_eq!(median(&s), 50.0);
        assert_eq!(nearest_rank(&s, 90.0), 90.0);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn a_tail_of_four_samples_is_never_reported() {
        let s = ramp(4);
        assert_eq!(supported_percentile(&s, 90.0), None);
        assert_eq!(supported_percentile(&s, 50.0), None);
        let summary = Summary::of(&s);
        assert_eq!(summary.n, 4);
        assert_eq!(summary.p50, 2.0);
        assert_eq!(summary.tail, None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 has exactly 10 beyond it, p95 only 5.
        let s = ramp(100);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(supported_percentile(&s, 90.0), Some(90.0));
        assert_eq!(supported_percentile(&s, 95.0), None);
        assert_eq!(Summary::of(&s).tail, Some((90.0, 90.0)));
        // 99 samples: p90 has only 9 beyond it.
        assert_eq!(Summary::of(&ramp(99)).tail, None);
    }

    #[test]
    fn summary_percentile_follows_the_rule() {
        let s = Summary::of(&ramp(100));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(s.percentile(95.0), None);
    }

    #[test]
    fn summary_reports_the_highest_supported_tail() {
        assert_eq!(Summary::of(&ramp(200)).tail, Some((95.0, 190.0)));
        assert_eq!(Summary::of(&ramp(1000)).tail, Some((99.0, 990.0)));
        assert_eq!(Summary::of(&ramp(10_000)).tail, Some((99.9, 9990.0)));
        // Order of the input does not matter.
        let mut rev = ramp(200);
        rev.reverse();
        assert_eq!(Summary::of(&rev), Summary::of(&ramp(200)));
    }

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "setup_s",
            "mee.hits_l0",
            "ledger.unattributed_share",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "ä", long.as_str()] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"a".repeat(64)));
    }

    #[test]
    fn unit_grammar() {
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "µs", "aaaaaaaaaaaaaaaaa"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn result_line_has_the_schema() {
        let line = result_line(
            true,
            12,
            1,
            &[
                Metric {
                    name: "latency_ms",
                    value: 1.2034,
                    unit: "ms",
                },
                Metric {
                    name: "setup_s",
                    value: 0.8127,
                    unit: "s",
                },
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let v = 0.1 + 0.2;
        let line = result_line(
            true,
            1,
            0,
            &[Metric {
                name: "x",
                value: v,
                unit: "s",
            }],
        )
        .unwrap();
        assert!(line.contains("0.30000000000000004"), "{line}");
    }

    #[test]
    fn result_line_rejects_bad_input() {
        let m = |name, value, unit| Metric { name, value, unit };
        assert!(result_line(true, 0, 0, &[]).is_err());
        assert!(result_line(true, 1, 0, &[m("_x", 1.0, "s")]).is_err());
        assert!(result_line(true, 1, 0, &[m("x", 1.0, "m s")]).is_err());
        assert!(result_line(true, 1, 0, &[m("x", f64::NAN, "s")]).is_err());
        assert!(result_line(true, 1, 0, &[m("x", 1.0, "s"), m("x", 2.0, "s")]).is_err());
    }
}
