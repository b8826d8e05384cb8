//! Order statistics over run samples.

/// The nearest-rank `p`-th percentile of `sorted` (ascending): the
/// smallest sample with at least `p`% of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let rank = rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p * n as f64 / 100.0).ceil() as usize).clamp(1, n))
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
fn beyond(n: usize, p: f64) -> usize {
    rank(n, p).map_or(0, |r| n - r)
}

/// True when `n` samples leave at least ten beyond the `p`-th
/// percentile — the least a reported tail percentile must rest on.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// The percentiles a tail latency is chosen from.
pub const LADDER: [f64; 3] = [90.0, 99.0, 99.9];

/// The highest percentile of `ladder` that `n` samples support (see
/// [`supports_percentile`]); the median when none does.
pub fn highest_supported(n: usize, ladder: &[f64]) -> f64 {
    ladder
        .iter()
        .copied()
        .filter(|&p| supports_percentile(n, p))
        .fold(50.0, f64::max)
}

/// The median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The mean of `values`; zero when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
