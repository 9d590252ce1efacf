//! Order statistics for the reported figures.
//!
//! Timings are reported as medians over many operations, never as a
//! mean or a single sample. A percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie beyond it; a p99 over 200 samples rests on
//! two values and moves with every run.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for an empty slice or any non-finite value.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The `p`-th percentile (0 < p < 100) of `samples` by the nearest-rank
/// rule, or `None` when fewer than [`MIN_BEYOND`] samples lie strictly
/// above its rank. `samples` is sorted in place.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if !(p > 0.0 && p < 100.0) || samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(samples[rank - 1])
}

/// FNV-1a over a byte stream: the benchmark's own digest, independent
/// of the hashes the program uses.
pub fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_invalid() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
        assert_eq!(median(&[1.0, f64::INFINITY]), None);
    }

    #[test]
    fn median_ignores_input_order() {
        let a = [5.0, 9.0, 1.0, 3.0, 7.0];
        let mut b = a;
        b.reverse();
        assert_eq!(median(&a), median(&b));
    }

    #[test]
    fn percentile_nearest_rank() {
        let mut s: Vec<u64> = (1..=1000).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), Some(500));
        assert_eq!(percentile(&mut s, 99.0), Some(990));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p99 over 1000 samples: rank 990, exactly ten above it.
        let mut s: Vec<u64> = (0..1000).collect();
        assert!(percentile(&mut s, 99.0).is_some());
        // 999 samples: rank 990, nine above it — refused.
        let mut s: Vec<u64> = (0..999).collect();
        assert_eq!(percentile(&mut s, 99.0), None);
        // p50 needs only twenty samples.
        let mut s: Vec<u64> = (0..20).collect();
        assert_eq!(percentile(&mut s, 50.0), Some(9));
        let mut s: Vec<u64> = (0..19).collect();
        assert_eq!(percentile(&mut s, 50.0), None);
    }

    #[test]
    fn percentile_rejects_bad_input() {
        assert_eq!(percentile(&mut [], 50.0), None);
        let mut s: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&mut s, 0.0), None);
        assert_eq!(percentile(&mut s, 100.0), None);
        assert_eq!(percentile(&mut s, f64::NAN), None);
    }

    #[test]
    fn fnv_distinguishes_order() {
        assert_ne!(fnv64([1, 2]), fnv64([2, 1]));
        assert_eq!(fnv64([]), 0xcbf2_9ce4_8422_2325);
    }
}
