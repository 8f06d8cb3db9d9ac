//! Shot sampling and measurement-count aggregation.
//!
//! Real NISQ backends return `counts`: a histogram of measured bitstrings
//! over `shots` repetitions (the paper uses 8192 shots per circuit). This
//! module provides the [`Counts`] histogram plus samplers that draw from a
//! probability distribution, optionally corrupted by per-qubit readout
//! (SPAM) error.

use rand::Rng;
use std::fmt;

/// Histogram of measured basis states.
///
/// Keys are basis indices in the little-endian convention (qubit 0 = least
/// significant bit), matching [`crate::statevector::StateVector`].
///
/// The outcomes live in one vector sorted by basis index, each with a
/// nonzero count — one canonical form per histogram, so equality does
/// not depend on the order outcomes were recorded in, and a sampler
/// that walks its dense histogram in index order emits the vector as
/// it goes. Lookups are binary searches.
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
    /// `(basis, count)` per observed outcome, ascending by basis.
    bins: Vec<(u64, u64)>,
    total: u64,
}

impl Counts {
    /// Creates an empty histogram over `n_qubits` qubits.
    pub fn new(n_qubits: usize) -> Self {
        Counts {
            n_qubits,
            bins: Vec::new(),
            total: 0,
        }
    }

    /// Creates an empty histogram with room for `distinct` distinct
    /// basis states. Capacity never affects equality.
    pub fn with_capacity(n_qubits: usize, distinct: usize) -> Self {
        Counts {
            n_qubits,
            bins: Vec::with_capacity(distinct),
            total: 0,
        }
    }

    /// Empties the histogram and makes it `n_qubits` wide, keeping its
    /// storage: a histogram refilled per job allocates only while it
    /// grows.
    pub fn reset(&mut self, n_qubits: usize) {
        self.n_qubits = n_qubits;
        self.bins.clear();
        self.total = 0;
    }

    /// Number of measured qubits.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of distinct outcomes observed.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether no outcome was recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Adds `count` observations of `basis`. A zero count records
    /// nothing: only observed outcomes are keys.
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
        if count == 0 {
            return;
        }
        // Outcomes recorded in ascending order append.
        match self.bins.last() {
            Some(&(last, _)) if last < basis => self.bins.push((basis, count)),
            None => self.bins.push((basis, count)),
            Some(_) => match self.bins.binary_search_by_key(&basis, |&(b, _)| b) {
                Ok(i) => self.bins[i].1 += count,
                Err(i) => self.bins.insert(i, (basis, count)),
            },
        }
        self.total += count;
    }

    /// Total number of shots recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count observed for a basis state (0 if never seen).
    pub fn get(&self, basis: u64) -> u64 {
        self.bins
            .binary_search_by_key(&basis, |&(b, _)| b)
            .map_or(0, |i| self.bins[i].1)
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
        self.bins.iter().copied()
    }

    /// Returns `(basis, count)` pairs sorted by descending count, ties by
    /// ascending basis. Useful for stable report output.
    pub fn to_sorted_vec(&self) -> Vec<(u64, u64)> {
        let mut v = self.bins.clone();
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
/// and only the non-zero slots are emitted, in index order, into the
/// [`Counts`] — a fresh one, or one the caller keeps
/// ([`ShotSampler::sample_counts_into`]).
/// Draws from the RNG in exactly the per-shot order of
/// [`sample_indices`], so seeded results are byte-identical to the
/// allocating path.
///
/// [`ShotSampler::sample_counts`] answers most shots from a guide table
/// instead of the binary search — the same index, always; the plain
/// search of [`ShotSampler::sample_indices_into`] is its oracle. A
/// shot whose bucket holds no CDF step costs one table load.
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
    /// `guide.len()` equal slices of the unit interval can answer with,
    /// flagged [`STEP`] unless it is the answer for every such draw.
    guide: Vec<u32>,
    hist: Vec<u64>,
}

/// CDF entries a guided lookup compares before giving up on the bucket.
const GUIDE_WINDOW: usize = 4;

/// Flag on the guide entry of a bucket that holds a CDF step: its
/// draws go to the window and, failing that, the search. A bucket
/// without one is settled.
const STEP: u32 = 1 << 31;

/// Most guide buckets the shot count alone asks for (16 KiB of table).
const MAX_SHOT_BUCKETS: usize = 4096;

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

    /// Guide buckets for `n` outcomes and `shots` draws: at least `4 n`,
    /// and one per eight shots up to [`MAX_SHOT_BUCKETS`], so a heavily
    /// sampled distribution leaves few buckets holding a CDF step. A
    /// power of two.
    fn guide_len(n: usize, shots: usize) -> usize {
        (4 * n)
            .max((shots / 8).min(MAX_SHOT_BUCKETS))
            .next_power_of_two()
    }

    /// Builds the guide table of `k` buckets (a power of two) over the
    /// current CDF of `n` entries (total mass `acc`) and pads the CDF
    /// with [`GUIDE_WINDOW`] `+inf` entries so a window read never
    /// leaves it.
    ///
    /// Bucket `b` holds the draws `b / k <= u < (b + 1) / k`, and `u ->
    /// fl(u * acc)` is monotone, so their needles have `lo_b <= r <=
    /// hi_b`, where `lo_b = fl((b / k) * acc)` and `hi_b = lo_{b + 1}`.
    /// Its entry starts from the first index `g` with `cdf[g] >= lo_b`:
    /// every entry before `g` is below every needle of the bucket, so
    /// the search ends at or after `g`. The bucket is **settled** when
    /// `cdf[g] > hi_b`: then `cdf[g - 1] < r < cdf[g]` for each of its
    /// needles, the search returns `g`, and the entry is `g` itself.
    /// Otherwise a CDF step lies in `[lo_b, hi_b]` and the entry is `g`
    /// flagged [`STEP`] — also on a tie with `hi_b`, and in every bucket
    /// of a non-finite total, where `hi_b` is `inf`.
    ///
    /// One merge walk: after a settled bucket the next starts at the
    /// same `g` (its `lo` is this `hi`, below `cdf[g]`), for one compare;
    /// after a step, `g` moves to the first entry at or above `hi_b`.
    /// That is at most `n - 1`, as `cdf[n - 1] == acc >= hi_b`, so
    /// `g < n` always. Bucket 0 starts at 0: `cdf[0] >= 0 = lo_0`.
    fn build_guide(&mut self, acc: f64, k: usize) {
        let n = self.cdf.len();
        assert!(n < STEP as usize, "too many outcomes for the guide table");
        self.cdf.resize(n + GUIDE_WINDOW, f64::INFINITY);
        self.guide.clear();
        // Exact: `k` is a power of two. Buckets count in `i64`, which
        // converts to `f64` in one instruction.
        let per_bucket = 1.0 / k as f64;
        let mut g = 0;
        self.guide.extend((1..=k as i64).map(|top| {
            let hi = (top as f64 * per_bucket) * acc;
            if self.cdf[g] > hi {
                return g as u32;
            }
            let entry = g as u32 | STEP;
            while self.cdf[g] < hi {
                g += 1;
            }
            entry
        }));
    }

    /// Answers the needle `r` of a draw in a bucket holding a step, whose
    /// first candidate is `g`, when the window decides it: everything
    /// before the returned index is below `r` and the entry there is
    /// above it, which is where the search ends. `None` — ask the
    /// search — on an exact tie (the search may land on any equal
    /// entry), when more than a window of entries sit between the guide
    /// and the needle, and for a needle that is `inf` or NaN because the
    /// total mass is not finite.
    #[inline]
    fn windowed(cdf: &[f64], g: usize, r: f64) -> Option<usize> {
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
        let mut counts = Counts::new(n_qubits);
        self.sample_counts_into(probs, n_qubits, shots, rng, &mut counts);
        counts
    }

    /// [`ShotSampler::sample_counts`] written into `out`, whose storage
    /// is reused: the dense histogram is walked in index order, so its
    /// nonzero slots are `out`'s sorted outcomes as they come.
    ///
    /// # Panics
    ///
    /// As [`ShotSampler::sample_counts`].
    pub fn sample_counts_into<R: Rng + ?Sized>(
        &mut self,
        probs: &[f64],
        n_qubits: usize,
        shots: usize,
        rng: &mut R,
        out: &mut Counts,
    ) {
        assert_eq!(
            probs.len(),
            1usize << n_qubits,
            "distribution size mismatch"
        );
        let n = probs.len();
        let acc = self.build_cdf(probs);
        let k = Self::guide_len(n, shots);
        self.build_guide(acc, k);
        self.hist.clear();
        self.hist.resize(n, 0);
        let (cdf, guide) = (self.cdf.as_slice(), self.guide.as_slice());
        let hist = self.hist.as_mut_slice();
        // The bucket of a draw is its leading bits.
        let shift = 64 - k.trailing_zeros();
        for _ in 0..shots {
            let x = rng.next_u64();
            let entry = guide[(x >> shift) as usize];
            let idx = if entry & STEP == 0 {
                entry as usize
            } else {
                // The bits of `rng.gen::<f64>() * acc`.
                let r = (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * acc;
                Self::windowed(cdf, (entry ^ STEP) as usize, r)
                    .unwrap_or_else(|| Self::search(&cdf[..n], r))
                    .min(n - 1)
            };
            hist[idx] += 1;
        }
        out.reset(n_qubits);
        out.bins
            .reserve_exact(self.hist.iter().filter(|&&c| c > 0).count());
        for (basis, &c) in self.hist.iter().enumerate() {
            if c > 0 {
                out.bins.push((basis as u64, c));
                out.total += c;
            }
        }
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

    /// Replaces the flip probabilities in place, keeping the storage.
    ///
    /// # Panics
    ///
    /// As [`ReadoutError::new`].
    pub fn set_flips(&mut self, flip: impl IntoIterator<Item = f64>) {
        let flip = flip.into_iter();
        self.flip.clear();
        self.flip.reserve_exact(flip.size_hint().0);
        self.flip.extend(flip);
        assert!(
            self.flip.iter().all(|&p| (0.0..=0.5).contains(&p)),
            "readout flip probabilities must lie in [0, 0.5]"
        );
    }

    /// Uniform flip probability across `n` qubits.
    pub fn uniform(n: usize, p: f64) -> Self {
        ReadoutError::new(vec![p; n])
    }

    /// Number of qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.flip.len()
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

    /// The CDF and guide table `sample_counts` builds for `shots` draws
    /// from `probs`, and the total mass.
    fn guided_sampler(probs: &[f64], shots: usize) -> (ShotSampler, f64) {
        let mut sampler = ShotSampler::new();
        let acc = sampler.build_cdf(probs);
        sampler.build_guide(acc, ShotSampler::guide_len(probs.len(), shots));
        (sampler, acc)
    }

    /// Whether bucket `b` of the guide table for `shots` draws from
    /// `probs` is settled.
    fn bucket_settles(probs: &[f64], shots: usize, b: usize) -> bool {
        guided_sampler(probs, shots).0.guide[b] & STEP == 0
    }

    /// Whether the guide table — a settled bucket or the window —
    /// answers the draw for `u` on `probs`, or hands it to the search.
    fn guide_answers(probs: &[f64], u: f64) -> bool {
        let (sampler, acc) = guided_sampler(probs, 0);
        let x = draw_for(u);
        let entry = sampler.guide[(x >> (64 - sampler.guide.len().trailing_zeros())) as usize];
        let g = (entry & !STEP) as usize;
        entry & STEP == 0 || ShotSampler::windowed(&sampler.cdf, g, u * acc).is_some()
    }

    /// A non-dyadic total, 0.7, whose first CDF step is exactly the
    /// upper edge of bucket 11 of 16, `fl((12 / 16) * 0.7)`, held by
    /// three equal entries.
    fn step_on_an_edge() -> [f64; 4] {
        let step = (12.0 / 16.0) * 0.7;
        [step, 0.0, 0.0, 0.7 - step]
    }

    /// Both edges of every one of `k` guide buckets: bucket `b`'s lower
    /// edge `b << shift` and its top `((b + 1) << shift) - 1`.
    fn bucket_edge_draws(k: usize) -> Vec<u64> {
        let shift = 64 - k.trailing_zeros();
        let top = u64::MAX >> k.trailing_zeros();
        (0..k as u64)
            .flat_map(|b| [b << shift, b << shift | top])
            .collect()
    }

    #[test]
    fn zero_count_records_nothing() {
        let mut c = Counts::new(2);
        c.record(3, 0);
        assert_eq!(c, Counts::new(2));
        assert_eq!(c.iter().count(), 0);
        assert!(!c.to_string().contains("11:0"), "{c}");
        c.record(3, 2);
        c.record(3, 0);
        assert_eq!(c.to_sorted_vec(), [(3, 2)]);
    }

    #[test]
    fn guide_len_follows_the_outcomes_then_the_shots() {
        // `4 n` while shots are few, then one bucket per eight shots,
        // then the cap; always a power of two.
        assert_eq!(ShotSampler::guide_len(16, 0), 64);
        assert_eq!(ShotSampler::guide_len(16, 256), 64);
        assert_eq!(ShotSampler::guide_len(16, 8192), 1024);
        assert_eq!(ShotSampler::guide_len(16, 40_000), 4096);
        assert_eq!(ShotSampler::guide_len(4, 128), 16);
        assert_eq!(ShotSampler::guide_len(128, 1024), 512);
        assert_eq!(ShotSampler::guide_len(4096, 40_000), 16_384);
        assert_eq!(ShotSampler::guide_len(2, 100), 16);
    }

    #[test]
    fn guide_entries_follow_their_definition() {
        // The merge walk against the rule written out per bucket: `g` is
        // the first index with `cdf[g] >= lo_b`, and the bucket is
        // settled iff `cdf[g] > hi_b`.
        let mut rng = StdRng::seed_from_u64(29);
        let mut cases = vec![
            step_on_an_edge().to_vec(),
            vec![0.0, 0.0, 0.5, 0.5],
            vec![0.5, 0.0, 0.0, 0.5],
            // A subnormal total: neighbouring bucket edges round together.
            vec![1e-320, 3e-321, 0.0, 1e-322],
        ];
        for n in [2usize, 16, 128] {
            cases.push((0..n).map(|_| rng.gen::<f64>()).collect());
            cases.push((0..n).map(|_| rng.gen::<f64>().powi(12)).collect());
            cases.push(
                (0..n)
                    .map(|i| if i % 3 == 0 { rng.gen() } else { 0.0 })
                    .collect(),
            );
        }
        for probs in &cases {
            for shots in [0, 8192, 40_000] {
                let (sampler, acc) = guided_sampler(probs, shots);
                let (k, cdf) = (sampler.guide.len(), &sampler.cdf[..probs.len()]);
                let edge = |b: usize| (b as f64 / k as f64) * acc;
                for (b, &entry) in sampler.guide.iter().enumerate() {
                    let g = cdf.iter().position(|&c| c >= edge(b)).unwrap();
                    let flag = if cdf[g] > edge(b + 1) { 0 } else { STEP };
                    assert_eq!(entry, g as u32 | flag, "bucket {b} of {k} on {probs:?}");
                }
            }
        }
    }

    #[test]
    fn sample_counts_equals_sample_indices_at_every_bucket_edge() {
        let mut rng = StdRng::seed_from_u64(23);
        let flat: Vec<f64> = (0..16).map(|_| rng.gen::<f64>()).collect();
        let peaked: Vec<f64> = (0..16).map(|_| rng.gen::<f64>().powi(12)).collect();
        let zero_runs = [0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.2, 0.5];
        let cases: [&[f64]; 5] = [
            &flat,
            &peaked,
            &zero_runs,
            &[0.25, 0.75],
            &step_on_an_edge(),
        ];
        for probs in cases {
            // Table sizes from each branch: `4 n`, shots / 8, the cap.
            for shots in [0, 8192, 40_000] {
                let k = ShotSampler::guide_len(probs.len(), shots);
                let draws = bucket_edge_draws(k);
                let shots = shots.max(draws.len());
                assert_eq!(ShotSampler::guide_len(probs.len(), shots), k);
                // Only a CDF step unsettles a bucket: the one it lies
                // in, or the two around an edge it lies on.
                let (sampler, _) = guided_sampler(probs, shots);
                let unsettled = sampler.guide.iter().filter(|&&e| e & STEP != 0);
                assert!(unsettled.count() <= 2 * probs.len(), "{probs:?} at k = {k}");
                assert_counts_match_indices(probs, shots, &Scripted::new(&draws));
            }
        }
    }

    #[test]
    fn a_step_on_a_bucket_edge_leaves_its_buckets_unsettled() {
        // The top draw of bucket 11 lands on the three equal entries,
        // where the search may return any of them; so do draws at bucket
        // 12's lower edge, which starts at the same threshold.
        let probs = step_on_an_edge();
        assert_eq!(probs.iter().sum::<f64>(), 0.7);
        assert_eq!(ShotSampler::guide_len(probs.len(), 2), 16);
        let top = (12u64 << 60) - 1;
        assert_eq!(
            (top >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 0.7,
            probs[0],
            "the top draw of bucket 11 is a tie"
        );
        assert!(bucket_settles(&probs, 2, 10) && bucket_settles(&probs, 2, 13));
        assert!(!bucket_settles(&probs, 2, 11) && !bucket_settles(&probs, 2, 12));
        assert_counts_match_indices(&probs, 2, &Scripted::new(&[top, 12 << 60]));
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
        assert!(!guide_answers(&leading, 0.0));
        assert!(guide_answers(&leading, 0.25));
        assert_counts_match_indices(&leading, 4, &Scripted::new(&[0, u64::MAX]));
        let plateau = [0.5, 0.0, 0.0, 0.5];
        assert!(!guide_answers(&plateau, 0.5));
        assert_counts_match_indices(&plateau, 3, &Scripted::new(&[1 << 63, 0, u64::MAX]));
        // Six outcomes between the guide entry and the needle: the
        // window of four runs out.
        let crowded: Vec<f64> = [0.5].into_iter().chain([1e-3; 6]).chain([0.494]).collect();
        assert!(!guide_answers(&crowded, 0.52));
        assert!(guide_answers(&crowded, 0.49));
        assert_counts_match_indices(&crowded, 2, &Scripted::new(&[draw_for(0.52)]));
        // A non-finite total mass: no needle is ever answered, and no
        // bucket is settled.
        let unbounded = [0.2, f64::INFINITY, 0.3, 0.1];
        assert!(!guide_answers(&unbounded, 0.0) && !guide_answers(&unbounded, 0.7));
        assert!((0..16).all(|b| !bucket_settles(&unbounded, 0, b)));
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
