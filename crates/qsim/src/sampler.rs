//! Shot sampling and measurement-count aggregation.
//!
//! Real NISQ backends return `counts`: a histogram of measured bitstrings
//! over `shots` repetitions (the paper uses 8192 shots per circuit). This
//! module provides the [`Counts`] histogram plus samplers that draw from a
//! probability distribution, optionally corrupted by per-qubit readout
//! (SPAM) error.

use rand::Rng;
use std::collections::HashMap;
use std::fmt;

/// Histogram of measured basis states.
///
/// Keys are basis indices in the little-endian convention (qubit 0 = least
/// significant bit), matching [`crate::statevector::StateVector`].
///
/// # Examples
///
/// ```
/// use qsim::sampler::Counts;
///
/// let mut counts = Counts::new(2);
/// counts.record(0b11, 60);
/// counts.record(0b00, 40);
/// assert_eq!(counts.total(), 100);
/// // <Z0 Z1> = (+1 * 60 + +1 * 40) / 100 since both bits agree.
/// assert!((counts.expectation_z_product(0b11) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    n_qubits: usize,
    map: HashMap<u64, u64>,
    total: u64,
}

impl Counts {
    /// Creates an empty histogram over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Counts {
            n_qubits,
            map: HashMap::new(),
            total: 0,
        }
    }

    /// Creates an empty histogram pre-sized for `distinct` distinct
    /// basis states — the hot path builds the whole histogram in one
    /// pass and knows the bin count up front, so sizing here avoids
    /// rehash-and-grow cycles per job. Capacity never affects equality.
    pub fn with_capacity(n_qubits: usize, distinct: usize) -> Self {
        Counts {
            n_qubits,
            map: HashMap::with_capacity(distinct),
            total: 0,
        }
    }

    /// Number of measured qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Adds `count` observations of `basis`.
    ///
    /// # Panics
    ///
    /// Panics if `basis` has bits outside the qubit range.
    pub fn record(&mut self, basis: u64, count: u64) {
        assert!(
            self.n_qubits >= 64 || basis < (1u64 << self.n_qubits),
            "basis state {basis:#b} out of range for {} qubits",
            self.n_qubits
        );
        *self.map.entry(basis).or_insert(0) += count;
        self.total += count;
    }

    /// Total number of shots recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count observed for a basis state (0 if never seen).
    pub fn get(&self, basis: u64) -> u64 {
        self.map.get(&basis).copied().unwrap_or(0)
    }

    /// Empirical probability of a basis state.
    pub fn probability(&self, basis: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.get(basis) as f64 / self.total as f64
        }
    }

    /// Iterates over `(basis, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.map.iter().map(|(&k, &v)| (k, v))
    }

    /// Returns `(basis, count)` pairs sorted by descending count, ties by
    /// ascending basis. Useful for stable report output.
    pub fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.iter().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Expectation of a product of Z operators over the qubits selected by
    /// `mask`: `sum_b counts(b) * (-1)^{popcount(b & mask)} / total`.
    ///
    /// This is how Pauli-string expectations are read out of hardware
    /// counts after basis rotation.
    pub fn expectation_z_product(&self, mask: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut acc: i64 = 0;
        for (basis, count) in self.iter() {
            let sign = if (basis & mask).count_ones().is_multiple_of(2) {
                1
            } else {
                -1
            };
            acc += sign * count as i64;
        }
        acc as f64 / self.total as f64
    }

    /// Fraction of shots for which `predicate(basis)` holds.
    pub fn fraction_where<F: Fn(u64) -> bool>(&self, predicate: F) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits: u64 = self
            .iter()
            .filter(|&(b, _)| predicate(b))
            .map(|(_, c)| c)
            .sum();
        hits as f64 / self.total as f64
    }

    /// Formats a basis index as a bitstring, most-significant qubit first
    /// (the order IBMQ prints).
    pub fn bitstring(&self, basis: u64) -> String {
        (0..self.n_qubits)
            .rev()
            .map(|q| if basis >> q & 1 == 1 { '1' } else { '0' })
            .collect()
    }

    /// Merges another histogram into this one.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn merge(&mut self, other: &Counts) {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit count mismatch");
        for (b, c) in other.iter() {
            self.record(b, c);
        }
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Counts({} shots:", self.total)?;
        for (b, c) in self.to_sorted_vec() {
            write!(f, " {}:{}", self.bitstring(b), c)?;
        }
        write!(f, ")")
    }
}

impl FromIterator<(u64, u64)> for Counts {
    /// Collects `(basis, count)` pairs; the qubit count is inferred as the
    /// smallest width holding the largest basis index.
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let pairs: Vec<(u64, u64)> = iter.into_iter().collect();
        let max = pairs.iter().map(|p| p.0).max().unwrap_or(0);
        let width = (64 - max.leading_zeros()).max(1) as usize;
        let mut c = Counts::new(width);
        for (b, n) in pairs {
            c.record(b, n);
        }
        c
    }
}

/// Draws `shots` basis-state indices from a probability distribution using
/// inverse-CDF sampling with binary search.
///
/// The distribution is normalized defensively (backend noise models can
/// leave ~1e-12 trace drift).
///
/// # Panics
///
/// Panics if `probs` is empty or sums to zero.
pub fn sample_indices<R: Rng + ?Sized>(probs: &[f64], shots: usize, rng: &mut R) -> Vec<usize> {
    let mut out = Vec::with_capacity(shots);
    ShotSampler::default().sample_indices_into(probs, shots, rng, &mut out);
    out
}

/// Reusable inverse-CDF shot sampler.
///
/// Holds the CDF, its guide table and a dense histogram as persistent
/// buffers so the hot path ([`ShotSampler::sample_counts`]) allocates
/// nothing after warmup: the CDF is rebuilt in place per distribution,
/// shots increment dense histogram slots (no per-shot hash-map insert),
/// and only the non-zero slots are folded into the returned [`Counts`].
/// Draws from the RNG in exactly the per-shot order of
/// [`sample_indices`], so seeded results are byte-identical to the
/// allocating path.
///
/// [`ShotSampler::sample_counts`] answers most shots from a guide table
/// instead of the binary search — the same index, always; the plain
/// search of [`ShotSampler::sample_indices_into`] is its oracle.
///
/// Float comparisons use `total_cmp`, so unlike the historical
/// `partial_cmp(..).unwrap()` the binary search can neither panic nor
/// silently scramble on a NaN needle. NaN *probabilities* are treated
/// as zero mass (`p.max(0.0)` maps NaN to `0.0` when building the
/// CDF); an all-NaN or all-non-positive distribution still fails
/// loudly at the `sum > 0` guard.
#[derive(Clone, Debug, Default)]
pub struct ShotSampler {
    cdf: Vec<f64>,
    /// `guide[b]` = first CDF index that a draw in bucket `b` of
    /// `guide.len()` equal slices of the unit interval can answer with.
    guide: Vec<u32>,
    hist: Vec<u64>,
}

/// CDF entries a guided lookup compares before giving up on the bucket.
const GUIDE_WINDOW: usize = 4;

impl ShotSampler {
    /// Creates a sampler; buffers are sized lazily.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the internal CDF for `probs` and returns the total mass
    /// (NaN entries contribute zero — see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or the total mass is not positive.
    fn build_cdf(&mut self, probs: &[f64]) -> f64 {
        assert!(!probs.is_empty(), "empty probability distribution");
        self.cdf.clear();
        let mut acc = 0.0;
        for &p in probs {
            acc += p.max(0.0);
            self.cdf.push(acc);
        }
        assert!(acc > 0.0, "probability distribution sums to zero");
        acc
    }

    /// Index of the outcome whose CDF step holds `r`: the search every
    /// sampling path answers with.
    #[inline]
    fn search(cdf: &[f64], r: f64) -> usize {
        match cdf.binary_search_by(|x| x.total_cmp(&r)) {
            Ok(i) => i,
            Err(i) => i,
        }
    }

    /// Builds the guide table over the current CDF of `n` entries (total
    /// mass `acc`) and pads the CDF with [`GUIDE_WINDOW`] `+inf` entries
    /// so a window read never leaves it.
    ///
    /// `k = guide.len()` is a power of two of at least `4 n`, and
    /// `guide[b]` is the first index with `cdf[i] >= (b / k) * acc`, found
    /// by one merge walk. A draw `u` in bucket `b` has `u >= b / k`
    /// exactly, and `u -> fl(u * acc)` is monotone, so every entry
    /// before `guide[b]` is below the needle: the search result lies at
    /// or after it.
    fn build_guide(&mut self, acc: f64) {
        let n = self.cdf.len();
        let k = (4 * n).next_power_of_two();
        self.cdf.resize(n + GUIDE_WINDOW, f64::INFINITY);
        self.guide.clear();
        // Exact: `k` is a power of two.
        let per_bucket = 1.0 / k as f64;
        let mut i = 0;
        self.guide.extend((0..k).map(|b| {
            let threshold = (b as f64 * per_bucket) * acc;
            // Stops by `n - 1` at the latest: `cdf[n - 1] == acc`, and
            // no threshold exceeds it (NaN, from a non-finite `acc`,
            // compares false at once).
            while self.cdf[i] < threshold {
                i += 1;
            }
            i as u32
        }));
    }

    /// Answers the draw `x` (needle `r`) from the guide table, when the
    /// window settles it: everything before the returned index is below
    /// `r` and the entry there is above it, which is where the search
    /// ends. `None` — ask the search — on an exact tie (the search may
    /// land on any equal entry), when more than a window of entries sit
    /// between the guide and the needle, and for a needle that is `inf`
    /// or NaN because the total mass is not finite.
    #[inline]
    fn guided(cdf: &[f64], guide: &[u32], x: u64, r: f64) -> Option<usize> {
        // The leading bits of the draw `r` was made from, so the draw
        // is at or above its bucket's lower edge exactly.
        let bucket = x >> (64 - guide.len().trailing_zeros());
        let g = guide[bucket as usize] as usize;
        let below = cdf[g..g + GUIDE_WINDOW].iter().filter(|&&c| c < r);
        let idx = g + below.count();
        (cdf[idx] > r).then_some(idx)
    }

    /// Draws `shots` basis indices into a reusable output buffer
    /// (cleared first). Same distribution and RNG stream as
    /// [`sample_indices`].
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or sums to zero.
    pub fn sample_indices_into<R: Rng + ?Sized>(
        &mut self,
        probs: &[f64],
        shots: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        let acc = self.build_cdf(probs);
        out.clear();
        out.reserve(shots);
        for _ in 0..shots {
            let r: f64 = rng.gen::<f64>() * acc;
            out.push(Self::search(&self.cdf, r).min(probs.len() - 1));
        }
    }

    /// Samples a [`Counts`] histogram over `n_qubits` qubits, writing
    /// shots directly into a dense histogram. Byte-identical to
    /// [`sample_counts`].
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^n_qubits` or the distribution is
    /// empty/zero.
    pub fn sample_counts<R: Rng + ?Sized>(
        &mut self,
        probs: &[f64],
        n_qubits: usize,
        shots: usize,
        rng: &mut R,
    ) -> Counts {
        assert_eq!(
            probs.len(),
            1usize << n_qubits,
            "distribution size mismatch"
        );
        let n = probs.len();
        let acc = self.build_cdf(probs);
        self.build_guide(acc);
        self.hist.clear();
        self.hist.resize(n, 0);
        let (cdf, guide) = (self.cdf.as_slice(), self.guide.as_slice());
        for _ in 0..shots {
            // The bits of `rng.gen::<f64>() * acc`.
            let x = rng.next_u64();
            let r = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * acc;
            let idx = Self::guided(cdf, guide, x, r).unwrap_or_else(|| Self::search(&cdf[..n], r));
            self.hist[idx.min(n - 1)] += 1;
        }
        let distinct = self.hist.iter().filter(|&&c| c > 0).count();
        let mut counts = Counts::with_capacity(n_qubits, distinct);
        for (basis, &c) in self.hist.iter().enumerate() {
            if c > 0 {
                counts.record(basis as u64, c);
            }
        }
        counts
    }
}

/// Samples a [`Counts`] histogram from a distribution over `n_qubits`
/// qubits.
///
/// # Panics
///
/// Panics if `probs.len() != 2^n_qubits`.
pub fn sample_counts<R: Rng + ?Sized>(
    probs: &[f64],
    n_qubits: usize,
    shots: usize,
    rng: &mut R,
) -> Counts {
    ShotSampler::default().sample_counts(probs, n_qubits, shots, rng)
}

/// Per-qubit symmetric readout (SPAM) error probabilities.
///
/// `flip[q]` is the probability that qubit `q`'s measured bit is reported
/// inverted — the `omega` of the paper's Eq. 2.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReadoutError {
    flip: Vec<f64>,
}

impl ReadoutError {
    /// Creates a readout error model from per-qubit flip probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 0.5]` (beyond 0.5 the
    /// assignment is better than random when inverted, which indicates a
    /// calibration bug upstream).
    pub fn new(flip: Vec<f64>) -> Self {
        assert!(
            flip.iter().all(|&p| (0.0..=0.5).contains(&p)),
            "readout flip probabilities must lie in [0, 0.5]"
        );
        ReadoutError { flip }
    }

    /// Uniform flip probability across `n` qubits.
    pub fn uniform(n: usize, p: f64) -> Self {
        ReadoutError::new(vec![p; n])
    }

    /// Number of qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.flip.len()
    }

    /// Flip probability for qubit `q`.
    pub fn flip_probability(&self, q: usize) -> f64 {
        self.flip[q]
    }

    /// Average flip probability (the scalar `omega` used by Eq. 2).
    pub fn mean_flip(&self) -> f64 {
        if self.flip.is_empty() {
            0.0
        } else {
            self.flip.iter().sum::<f64>() / self.flip.len() as f64
        }
    }

    /// Applies the confusion model exactly to a probability distribution.
    ///
    /// For each qubit the pair `(p_b0, p_b1)` mixes as a 2x2 stochastic
    /// matrix; total cost `O(n 2^n)`.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^num_qubits`.
    pub fn apply_to_distribution(&self, probs: &[f64]) -> Vec<f64> {
        let mut out = probs.to_vec();
        self.apply_in_place(&mut out);
        out
    }

    /// Applies the confusion model in place — the allocation-free twin
    /// of [`ReadoutError::apply_to_distribution`] used by the engines.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^num_qubits`.
    pub fn apply_in_place(&self, probs: &mut [f64]) {
        let n = self.flip.len();
        assert_eq!(probs.len(), 1usize << n, "distribution size mismatch");
        for (q, &f) in self.flip.iter().enumerate() {
            if f == 0.0 {
                continue;
            }
            let bit = 1usize << q;
            for i in 0..probs.len() {
                if i & bit == 0 {
                    let j = i | bit;
                    let p0 = probs[i];
                    let p1 = probs[j];
                    probs[i] = (1.0 - f) * p0 + f * p1;
                    probs[j] = f * p0 + (1.0 - f) * p1;
                }
            }
        }
    }

    /// Corrupts a single measured basis index by independently flipping
    /// each bit with its qubit's probability.
    pub fn corrupt<R: Rng + ?Sized>(&self, basis: u64, rng: &mut R) -> u64 {
        let mut b = basis;
        for (q, &f) in self.flip.iter().enumerate() {
            if f > 0.0 && rng.gen::<f64>() < f {
                b ^= 1 << q;
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_basic_accounting() {
        let mut c = Counts::new(3);
        c.record(0b101, 10);
        c.record(0b101, 5);
        c.record(0b000, 5);
        assert_eq!(c.total(), 20);
        assert_eq!(c.get(0b101), 15);
        assert_eq!(c.get(0b111), 0);
        assert!((c.probability(0b101) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn z_product_expectation_signs() {
        let mut c = Counts::new(2);
        c.record(0b00, 50);
        c.record(0b01, 50);
        // Z on qubit 0: (+1*50 + -1*50)/100 = 0.
        assert!(c.expectation_z_product(0b01).abs() < 1e-12);
        // Z on qubit 1: both states have bit1 = 0 -> +1.
        assert!((c.expectation_z_product(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bitstring_is_msb_first() {
        let c = Counts::new(4);
        assert_eq!(c.bitstring(0b0110), "0110");
        assert_eq!(c.bitstring(0b0001), "0001");
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Counts::new(2);
        a.record(0, 3);
        let mut b = Counts::new(2);
        b.record(0, 2);
        b.record(3, 5);
        a.merge(&b);
        assert_eq!(a.get(0), 5);
        assert_eq!(a.get(3), 5);
        assert_eq!(a.total(), 10);
    }

    #[test]
    fn from_iterator_infers_width() {
        let c: Counts = vec![(0b101u64, 7u64), (0b010, 3)].into_iter().collect();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.total(), 10);
    }

    #[test]
    fn sampling_converges_to_distribution() {
        let probs = [0.1, 0.2, 0.3, 0.4];
        let mut rng = StdRng::seed_from_u64(7);
        let c = sample_counts(&probs, 2, 100_000, &mut rng);
        for (i, &p) in probs.iter().enumerate() {
            let emp = c.probability(i as u64);
            assert!((emp - p).abs() < 0.01, "basis {i}: {emp} vs {p}");
        }
    }

    #[test]
    fn sampling_deterministic_with_seed() {
        let probs = [0.5, 0.5];
        let a = sample_indices(&probs, 100, &mut StdRng::seed_from_u64(42));
        let b = sample_indices(&probs, 100, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    /// `sample_counts` against its oracle: the histogram of the plain
    /// `sample_indices` loop from an equal generator, which must also be
    /// left in an equal state.
    fn assert_counts_match_indices<R>(probs: &[f64], shots: usize, rng: &R)
    where
        R: rand::RngCore + Clone + PartialEq + fmt::Debug,
    {
        let n_qubits = probs.len().trailing_zeros() as usize;
        let (mut fast_rng, mut slow_rng) = (rng.clone(), rng.clone());
        let fast = sample_counts(probs, n_qubits, shots, &mut fast_rng);
        let mut slow = Counts::new(n_qubits);
        for idx in sample_indices(probs, shots, &mut slow_rng) {
            slow.record(idx as u64, 1);
        }
        assert_eq!(fast, slow, "counts differ on {probs:?}");
        assert_eq!(fast.total(), shots as u64);
        assert_eq!(fast_rng, slow_rng, "generators diverged");
    }

    /// A generator that replays a script of raw draws, cycling.
    #[derive(Clone, Debug, PartialEq)]
    struct Scripted {
        draws: Vec<u64>,
        at: usize,
    }

    impl Scripted {
        fn new(draws: &[u64]) -> Self {
            Scripted {
                draws: draws.to_vec(),
                at: 0,
            }
        }
    }

    impl rand::RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            self.at += 1;
            self.draws[(self.at - 1) % self.draws.len()]
        }
    }

    /// The raw draw that `gen::<f64>()` turns into `u` (a multiple of
    /// `2^-53` in `[0, 1)`).
    fn draw_for(u: f64) -> u64 {
        ((u * (1u64 << 53) as f64) as u64) << 11
    }

    /// Whether the guide table settles the draw for `u` on `probs`, or
    /// hands it to the search.
    fn guide_settles(probs: &[f64], u: f64) -> bool {
        let mut sampler = ShotSampler::new();
        let acc = sampler.build_cdf(probs);
        sampler.build_guide(acc);
        ShotSampler::guided(&sampler.cdf, &sampler.guide, draw_for(u), u * acc).is_some()
    }

    #[test]
    fn sample_counts_equals_sample_indices_on_random_distributions() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [2usize, 4, 16, 128, 4096] {
            for round in 0..6 {
                // Flat, peaked (a few outcomes hold nearly all mass) and
                // unnormalized distributions alike.
                let probs: Vec<f64> = (0..n)
                    .map(|_| match round % 3 {
                        0 => rng.gen::<f64>(),
                        1 => rng.gen::<f64>().powi(12),
                        _ => 40.0 * rng.gen::<f64>(),
                    })
                    .collect();
                assert_counts_match_indices(&probs, 3000, &rng);
                rng.gen::<u64>();
            }
        }
    }

    #[test]
    fn sample_counts_equals_sample_indices_on_adversarial_distributions() {
        let tiny = 1e-18;
        let cases: Vec<Vec<f64>> = vec![
            // Zero-probability outcomes: duplicate CDF entries, leading,
            // interior and trailing.
            vec![0.0, 0.0, 0.0, 0.4, 0.0, 0.0, 0.6, 0.0],
            vec![0.0; 15].into_iter().chain([2.5]).collect(),
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0],
            // More than a window of near-zero outcomes inside one bucket,
            // at the front and in the middle.
            vec![tiny; 6].into_iter().chain([0.5; 2]).collect(),
            [0.5].into_iter().chain([1e-15; 6]).chain([0.5]).collect(),
            [0.5].into_iter().chain([1e-3; 6]).chain([0.494]).collect(),
            vec![1e-15; 4096],
            // NaN and negative entries carry no mass.
            vec![f64::NAN, 0.3, -0.2, 0.7],
            vec![-1.0, f64::NAN, f64::NAN, 1e-3],
            // A non-finite total: every needle is `inf` or NaN.
            vec![0.2, f64::INFINITY, 0.3, 0.1],
            vec![f64::INFINITY, 0.0],
        ];
        for probs in &cases {
            for (seed, shots) in [(1, 0), (2, 1), (3, 5000)] {
                assert_counts_match_indices(probs, shots, &StdRng::seed_from_u64(seed));
            }
            // The ends of the unit interval, and a few points inside.
            let edges = [
                0,
                u64::MAX,
                1 << 63,
                1 << 11,
                u64::MAX << 11,
                draw_for(0.52),
            ];
            assert_counts_match_indices(probs, 2 * edges.len(), &Scripted::new(&edges));
        }
    }

    #[test]
    fn sample_counts_hands_ties_and_long_windows_to_the_search() {
        // A needle of exactly 0 against leading zero-probability
        // outcomes, and exactly 0.5 against three equal CDF entries: the
        // search may land on any of them, so the guide must not answer.
        let leading = [0.0, 0.0, 0.5, 0.5];
        assert!(!guide_settles(&leading, 0.0));
        assert!(guide_settles(&leading, 0.25));
        assert_counts_match_indices(&leading, 4, &Scripted::new(&[0, u64::MAX]));
        let plateau = [0.5, 0.0, 0.0, 0.5];
        assert!(!guide_settles(&plateau, 0.5));
        assert_counts_match_indices(&plateau, 3, &Scripted::new(&[1 << 63, 0, u64::MAX]));
        // Six outcomes between the guide entry and the needle: the
        // window of four runs out.
        let crowded: Vec<f64> = [0.5].into_iter().chain([1e-3; 6]).chain([0.494]).collect();
        assert!(!guide_settles(&crowded, 0.52));
        assert!(guide_settles(&crowded, 0.49));
        assert_counts_match_indices(&crowded, 2, &Scripted::new(&[draw_for(0.52)]));
        // A non-finite total mass: no needle is ever settled.
        let unbounded = [0.2, f64::INFINITY, 0.3, 0.1];
        assert!(!guide_settles(&unbounded, 0.0) && !guide_settles(&unbounded, 0.7));
    }

    #[test]
    fn sample_indices_after_sample_counts_sees_an_unpadded_cdf() {
        // One sampler serving both calls: the guide's `+inf` padding
        // must not leak into the plain loop.
        let probs = [0.1, 0.2, 0.3, 0.4];
        let mut sampler = ShotSampler::new();
        sampler.sample_counts(&probs, 2, 64, &mut StdRng::seed_from_u64(5));
        let mut reused = Vec::new();
        sampler.sample_indices_into(&probs, 500, &mut StdRng::seed_from_u64(9), &mut reused);
        assert_eq!(
            reused,
            sample_indices(&probs, 500, &mut StdRng::seed_from_u64(9))
        );
    }

    #[test]
    fn readout_error_distribution_is_stochastic() {
        let ro = ReadoutError::new(vec![0.1, 0.05]);
        let probs = [1.0, 0.0, 0.0, 0.0];
        let out = ro.apply_to_distribution(&probs);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // P(00 stays) = 0.9 * 0.95
        assert!((out[0] - 0.9 * 0.95).abs() < 1e-12);
        // P(bit0 flips) = 0.1 * 0.95
        assert!((out[1] - 0.1 * 0.95).abs() < 1e-12);
        assert!((out[3] - 0.1 * 0.05).abs() < 1e-12);
    }

    #[test]
    fn readout_corrupt_statistics() {
        let ro = ReadoutError::uniform(1, 0.25);
        let mut rng = StdRng::seed_from_u64(3);
        let flips = (0..40_000).filter(|_| ro.corrupt(0, &mut rng) == 1).count();
        let rate = flips as f64 / 40_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 0.5]")]
    fn readout_error_rejects_bad_probability() {
        let _ = ReadoutError::new(vec![0.7]);
    }

    #[test]
    fn mean_flip_average() {
        let ro = ReadoutError::new(vec![0.1, 0.3]);
        assert!((ro.mean_flip() - 0.2).abs() < 1e-12);
    }
}
