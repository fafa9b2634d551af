//! Order statistics over per-frame samples.

/// The `p`-th percentile (`0 < p <= 100`) of `samples` by the
/// nearest-rank rule: the smallest sample with at least `p`% of all
/// samples at or below it. `None` for an empty slice or a `p` outside
/// `(0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// How many samples lie strictly above the `p`-th percentile — the
/// evidence behind a tail estimate.
pub fn beyond(samples: &[f64], p: f64) -> usize {
    match percentile(samples, p) {
        Some(cut) => samples.iter().filter(|&&s| s > cut).count(),
        None => 0,
    }
}
