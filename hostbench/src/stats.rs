//! Order statistics and the metric table the benchmark prints.

/// Sorted copy of `values` (NaNs are a caller bug and sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let v = sorted(values);
    let rank = (p / 100.0 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`th
/// percentile (assuming distinct values).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// First, second and third quartiles by the "exclusive" method, the
/// default of Python's `statistics.quantiles(values, n=4)`.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let v = sorted(values);
    let (ld, n) = (v.len(), 4usize);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Whether `name` is a valid metric name: it starts with a letter or a
/// digit and has at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Metrics in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` (inserting it on first use).
    ///
    /// # Panics
    ///
    /// Panics on an invalid name or a non-finite value: both are bugs in
    /// the benchmark, never properties of the measured program.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => *row = (name.to_string(), value, unit),
            None => self.rows.push((name.to_string(), value, unit)),
        }
    }

    /// Whether no metric is set.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit of
    /// each value.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles_leave_ten_samples_beyond_p99_at_1000() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(samples_beyond(999, 99.0) < 10);
        assert_eq!(samples_beyond(2400, 99.0), 24);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "wall_s",
            "sim.sparten.vgg.Layer12_s",
            "sim.unique_ratio",
            "9-a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_x", ".x", "a b", "a/b", "lat%", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn metrics_render_every_digit_in_order() {
        let mut m = Metrics::default();
        m.set("b", 0.1234567891234, "s");
        m.set("a", 3.0, "count");
        m.set("b", 1.5, "s");
        assert_eq!(
            m.to_json(),
            "{\"b\": {\"value\": 1.5, \"unit\": \"s\"}, \"a\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
        assert_eq!(m.get("a"), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_name_is_refused() {
        Metrics::default().set("bad name", 1.0, "s");
    }
}
