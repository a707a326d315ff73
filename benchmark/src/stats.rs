//! Order statistics and the result line.

/// The `q`-quantile (0..=1) of `values` by nearest rank on the sorted
/// values; `None` when empty.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Cuts `values` (in time order) into as many consecutive windows of at
/// least `min` values as fit and applies `f` to each window. The median of
/// the result is what gets reported: a rare stall then moves one window's
/// figure, not the reported one.
pub fn windowed(values: &[f64], min: usize, f: impl Fn(&[f64]) -> Option<f64>) -> Vec<f64> {
    let windows = values.len() / min.max(1);
    let per = values.len() / windows.max(1);
    (0..windows)
        .filter_map(|w| {
            let end = if w + 1 == windows {
                values.len()
            } else {
                (w + 1) * per
            };
            f(&values[w * per..end])
        })
        .collect()
}

/// The work completed in each whole one-second slice of a phase; `done`
/// holds each completion's offset from the phase start in seconds and
/// `weight` the work it carried.
pub fn per_second(done: &[f64], weight: f64) -> Vec<f64> {
    let slices = done.iter().fold(0.0f64, |a, &b| a.max(b)).floor() as usize;
    let mut counts = vec![0.0f64; slices];
    for &t in done {
        if let Some(slot) = counts.get_mut(t.floor() as usize) {
            *slot += weight;
        }
    }
    counts
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The last line of the output: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // `{:?}` prints the shortest representation that round-trips,
            // i.e. every digit the measurement has.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_by_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.99), Some(990.0));
        assert_eq!(quantile(&v, 0.5), Some(500.0));
        assert_eq!(median(&v), Some(500.5));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn windows_and_slices() {
        let mut v: Vec<f64> = (0..3000).map(|i| (i % 100) as f64).collect();
        // One stalled window does not move the median across windows.
        v[1000..1100].iter_mut().for_each(|x| *x = 1e6);
        let p99s = windowed(&v, 1000, |w| quantile(w, 0.99));
        assert_eq!(p99s, [98.0, 1e6, 98.0]);
        assert_eq!(median(&p99s), Some(98.0));
        assert!(windowed(&v[..999], 1000, median).is_empty());
        let done = [0.1, 0.2, 0.5, 1.1, 1.9, 2.5, 2.6, 2.7, 3.05];
        assert_eq!(per_second(&done, 2.0), [6.0, 4.0, 6.0]);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(true, 10, 0, &[Metric::new("p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
