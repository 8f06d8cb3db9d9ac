//! Order statistics, the output digest and the seed splitter.

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolation percentile (`p` in `0..=1`) of a non-empty
/// sample; a single value is every percentile of itself.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Smallest and largest value of a non-empty sample.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// 64-bit FNV-1a over `bytes` — the digest every output check compares.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: derives the independent input seeds (fleet synthesis,
/// device streams, tenants, arrivals, exogenous load) from the one
/// `--seed` argument, and drives the arrival generator.
#[derive(Clone, Debug)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Next uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_single_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.8), 42.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(percentile(&[9.0], 0.8), 9.0);
    }

    #[test]
    fn min_max_spans_the_sample() {
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }

    #[test]
    fn digest_is_stable_and_input_sensitive() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fnv1a(b"report A"), fnv1a(b"report B"));
    }

    #[test]
    fn seed_splitter_is_deterministic_and_in_range() {
        let (mut a, mut b) = (SplitMix(11), SplitMix(11));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(SplitMix(11).next_u64(), SplitMix(12).next_u64());
        for _ in 0..1000 {
            let u = a.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
