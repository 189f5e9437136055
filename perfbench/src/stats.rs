//! Seed derivation and order statistics.

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of item `index` in stream `stream` of a run seeded with `seed`.
/// Every per-operation input the benchmark generates comes from here, so
/// one workload seed fixes the whole input sequence.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(splitmix(seed ^ splitmix(stream)) ^ index)
}

/// A Fisher–Yates permutation of `0..n` drawn from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (derive(seed, 0, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// 1-based nearest rank of quantile `q` among `n` samples (the epsilon
/// keeps `0.9 × 100` from rounding up past 90).
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(q, sorted.len()) - 1]
}

/// The highest of the given percentiles that leaves at least ten samples
/// above it, as `(q, value)`.
pub fn tail_percentile(samples: &[f64], candidates: &[f64]) -> Option<(f64, f64)> {
    candidates
        .iter()
        .copied()
        .filter(|&q| samples.len().saturating_sub(rank(q, samples.len())) >= 10)
        .fold(None, |best: Option<f64>, q| {
            Some(best.map_or(q, |b| b.max(q)))
        })
        .map(|q| (q, percentile(samples, q)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_a_seeded_bijection() {
        let a = permutation(50, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, permutation(50, 7));
        assert_ne!(a, permutation(50, 8));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let pop: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&pop, &[0.9, 0.99]), Some((0.9, 90.0)));
        assert_eq!(tail_percentile(&pop[..50], &[0.9]), None);
    }
}
