//! Kraus-operator noise channels.
//!
//! The paper's three NISQ error classes (Section II-B) map onto completely
//! positive trace-preserving (CPTP) channels:
//!
//! * **Gate error** (depolarization) — [`KrausChannel::depolarizing_1q`] /
//!   [`KrausChannel::depolarizing_2q`], the paper's `gamma` (1q) and `beta` (CNOT)
//!   fidelity losses;
//! * **Coherence error** (T1 energy decay, T2 dephasing) —
//!   [`KrausChannel::thermal_relaxation`] built from [`KrausChannel::amplitude_damping`] and
//!   [`KrausChannel::phase_damping`];
//! * **SPAM error** — handled at the sampling layer by
//!   [`crate::sampler::ReadoutError`] (readout is classical confusion, not
//!   a unitary-domain channel).
//!
//! The density engine never sums Kraus terms: each channel is *lowered*
//! once to its local superoperator ([`SuperopTable`]) and applied as a
//! single in-place block sweep. The Kraus list stays the channel's
//! identity (interning, fingerprints) and what trajectories unravel.

use crate::complex::C64;
use crate::gates::Pauli;
use crate::matrix::CMatrix;

/// A noise channel in Kraus representation: `rho -> sum_k K_k rho K_k^dag`.
///
/// # Examples
///
/// ```
/// use qsim::noise::KrausChannel;
///
/// let ch = KrausChannel::depolarizing_1q(0.01);
/// assert!(ch.is_cptp(1e-12));
/// assert_eq!(ch.num_qubits(), 1);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct KrausChannel {
    n_qubits: usize,
    kraus: Vec<CMatrix>,
}

impl KrausChannel {
    /// Builds a channel from explicit Kraus operators.
    ///
    /// # Panics
    ///
    /// Panics if the operator list is empty, operators have mismatched or
    /// non-square power-of-4 shapes, or the channel is not trace preserving
    /// to within `1e-9`.
    pub fn new(kraus: Vec<CMatrix>) -> Self {
        assert!(
            !kraus.is_empty(),
            "channel needs at least one Kraus operator"
        );
        let dim = kraus[0].rows();
        assert!(
            kraus.iter().all(|k| k.rows() == dim && k.cols() == dim),
            "all Kraus operators must share a square shape"
        );
        assert!(
            dim.is_power_of_two() && dim >= 2,
            "Kraus dimension must be 2^n, got {dim}"
        );
        let n_qubits = dim.trailing_zeros() as usize;
        let ch = KrausChannel { n_qubits, kraus };
        assert!(
            ch.is_cptp(1e-9),
            "Kraus operators do not satisfy sum K^dag K = I"
        );
        ch
    }

    /// The identity (no-op) channel on `n_qubits`.
    pub fn identity(n_qubits: usize) -> Self {
        KrausChannel {
            n_qubits,
            kraus: vec![CMatrix::identity(1 << n_qubits)],
        }
    }

    /// Single-qubit depolarizing channel with error probability `p`:
    /// with probability `p` one of X/Y/Z is applied uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn depolarizing_1q(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut kraus = vec![CMatrix::identity(2).scale(C64::from_real((1.0 - p).sqrt()))];
        let w = C64::from_real((p / 3.0).sqrt());
        for pauli in [Pauli::X, Pauli::Y, Pauli::Z] {
            kraus.push(pauli.matrix().scale(w));
        }
        KrausChannel { n_qubits: 1, kraus }
    }

    /// Two-qubit depolarizing channel: with probability `p`, one of the 15
    /// non-identity Pauli pairs is applied uniformly. Models CNOT error.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn depolarizing_2q(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let mut kraus = vec![CMatrix::identity(4).scale(C64::from_real((1.0 - p).sqrt()))];
        let w = C64::from_real((p / 15.0).sqrt());
        for a in Pauli::ALL {
            for b in Pauli::ALL {
                if a == Pauli::I && b == Pauli::I {
                    continue;
                }
                kraus.push(a.matrix().kron(&b.matrix()).scale(w));
            }
        }
        KrausChannel { n_qubits: 2, kraus }
    }

    /// Amplitude damping (T1 energy relaxation) with decay probability
    /// `gamma = 1 - e^{-t/T1}`.
    ///
    /// # Panics
    ///
    /// Panics if `gamma` is outside `[0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Self {
        assert!((0.0..=1.0).contains(&gamma), "gamma out of range");
        let k0 = CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, (1.0 - gamma).sqrt()]);
        let k1 = CMatrix::from_real(2, 2, &[0.0, gamma.sqrt(), 0.0, 0.0]);
        KrausChannel {
            n_qubits: 1,
            kraus: vec![k0, k1],
        }
    }

    /// Phase damping (pure dephasing) with parameter `lambda`; off-diagonal
    /// density elements shrink by `sqrt(1 - lambda)`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is outside `[0, 1]`.
    pub fn phase_damping(lambda: f64) -> Self {
        assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
        let k0 = CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, (1.0 - lambda).sqrt()]);
        let k1 = CMatrix::from_real(2, 2, &[0.0, 0.0, 0.0, lambda.sqrt()]);
        KrausChannel {
            n_qubits: 1,
            kraus: vec![k0, k1],
        }
    }

    /// Bit-flip channel: X applied with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn bit_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        KrausChannel {
            n_qubits: 1,
            kraus: vec![
                CMatrix::identity(2).scale(C64::from_real((1.0 - p).sqrt())),
                Pauli::X.matrix().scale(C64::from_real(p.sqrt())),
            ],
        }
    }

    /// Phase-flip channel: Z applied with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn phase_flip(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        KrausChannel {
            n_qubits: 1,
            kraus: vec![
                CMatrix::identity(2).scale(C64::from_real((1.0 - p).sqrt())),
                Pauli::Z.matrix().scale(C64::from_real(p.sqrt())),
            ],
        }
    }

    /// Combined T1/T2 thermal relaxation over a gate of the given duration.
    ///
    /// Composes amplitude damping `gamma = 1 - e^{-t/T1}` with the pure
    /// dephasing remainder so that coherences decay as `e^{-t/T2}` overall.
    /// Durations and times must share units (the device layer uses
    /// nanoseconds).
    ///
    /// # Panics
    ///
    /// Panics if `t1 <= 0`, `t2 <= 0`, `duration < 0`, or `t2 > 2 t1`
    /// (physically impossible).
    pub fn thermal_relaxation(t1: f64, t2: f64, duration: f64) -> Self {
        assert!(t1 > 0.0 && t2 > 0.0, "T1/T2 must be positive");
        assert!(duration >= 0.0, "duration must be non-negative");
        assert!(t2 <= 2.0 * t1 + 1e-9, "T2 cannot exceed 2*T1");
        let gamma = 1.0 - (-duration / t1).exp();
        // Total coherence decay e^{-t/T2} = sqrt(1-gamma) * sqrt(1-lambda)
        // where sqrt(1-gamma) = e^{-t/(2 T1)} comes from amplitude damping.
        let target = (-duration / t2).exp();
        let from_t1 = (-duration / (2.0 * t1)).exp();
        let ratio = (target / from_t1).clamp(0.0, 1.0);
        let lambda = 1.0 - ratio * ratio;
        Self::amplitude_damping(gamma).compose(&Self::phase_damping(lambda))
    }

    /// Sequential composition: `other` applied **after** `self`
    /// (`rho -> other(self(rho))`). Kraus sets multiply pairwise;
    /// products that are exactly zero (e.g. the two decay operators of
    /// [`KrausChannel::thermal_relaxation`]) contribute nothing to the
    /// channel and are dropped.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn compose(&self, other: &KrausChannel) -> KrausChannel {
        assert_eq!(self.n_qubits, other.n_qubits, "channel arity mismatch");
        let mut kraus = Vec::with_capacity(self.kraus.len() * other.kraus.len());
        for b in &other.kraus {
            for a in &self.kraus {
                let product = b.clone() * a.clone();
                if product.as_slice().iter().any(|&z| z != C64::ZERO) {
                    kraus.push(product);
                }
            }
        }
        KrausChannel {
            n_qubits: self.n_qubits,
            kraus,
        }
    }

    /// Number of qubits the channel acts on.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Borrows the Kraus operators.
    pub fn operators(&self) -> &[CMatrix] {
        &self.kraus
    }

    /// Returns `true` when the channel is the identity up to `eps`:
    /// every Kraus operator is either entry-wise within `eps` of the
    /// identity or has Frobenius norm below `eps`.
    ///
    /// Program compilation uses this to elide near-zero-rate channels
    /// (e.g. thermal relaxation over a vanishing idle window) instead of
    /// paying a full Kraus sum for a no-op; see
    /// [`crate::program::ProgramBuilder`].
    pub fn is_near_identity(&self, eps: f64) -> bool {
        let dim = 1usize << self.n_qubits;
        self.kraus.iter().all(|k| {
            let mut frob_sq = 0.0;
            let mut near_id = true;
            for r in 0..dim {
                for c in 0..dim {
                    let z = k[(r, c)];
                    frob_sq += z.norm_sqr();
                    let id = if r == c { C64::ONE } else { C64::ZERO };
                    if !z.approx_eq(id, eps) {
                        near_id = false;
                    }
                }
            }
            near_id || frob_sq.sqrt() <= eps
        })
    }

    /// Checks the CPTP completeness relation `sum_k K_k^dag K_k = I` within
    /// `eps` per entry.
    pub fn is_cptp(&self, eps: f64) -> bool {
        let dim = 1usize << self.n_qubits;
        let mut acc = CMatrix::zeros(dim, dim);
        for k in &self.kraus {
            acc = acc + (k.dagger() * k.clone());
        }
        acc.approx_eq(&CMatrix::identity(dim), eps)
    }
}

/// Every interned channel of one program, lowered to its local
/// superoperator `S[(i,j),(i',j')] = sum_k K_k[i,i'] * conj(K_k[j,j'])`
/// — the matrix that maps a vectorized `2x2` (one-qubit) or `4x4`
/// (two-qubit) block of `rho` to the same block of `sum_k K rho K^dag`.
///
/// The sum over Kraus operators happens here, once; applying a channel
/// is then a single pass over the state
/// ([`crate::density::DensityMatrix::apply_superop_ctx`]). Only exact
/// zeros are dropped, so `S` is the Kraus sum re-associated: the result
/// matches `sum_k K rho K^dag` to rounding (~1e-16), not bit for bit.
///
/// Rows are kept sparse in one arena per table, sized for fleets that
/// hold thousands of programs: thermal relaxation has 5 nonzeros of
/// 16, two-qubit depolarizing 28 of 256, and both — like every Pauli
/// mixture and damping channel — are real, so imaginary parts are only
/// stored once a table meets a channel that has any.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuperopTable {
    /// Per channel: its offsets into `index` and into `re` / `im`.
    starts: Vec<(u32, u32)>,
    /// Per channel: the length of each of its `D` rows (`D` = 4 or 16),
    /// then the column of every nonzero, row by row.
    index: Vec<u8>,
    re: Vec<f64>,
    /// Empty while every channel pushed so far is real, else parallel
    /// to `re`.
    im: Vec<f64>,
}

/// One lowered channel borrowed from a [`SuperopTable`].
#[derive(Clone, Copy, Debug)]
pub struct Superop<'a> {
    row_len: &'a [u8],
    cols: &'a [u8],
    re: &'a [f64],
    im: &'a [f64],
}

/// One sparse row of a [`Superop`]: parallel `(columns, re, im)` slices,
/// `im` empty for a real table.
pub(crate) type SuperopRow<'a> = (&'a [u8], &'a [f64], &'a [f64]);

impl SuperopTable {
    /// Lowers `channel` and appends it; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the channel acts on more than two qubits.
    pub fn push(&mut self, channel: &KrausChannel) -> usize {
        let d = 1usize << channel.n_qubits;
        assert!(d <= 4, "only 1- and 2-qubit channels are supported");
        let mut s = [[C64::ZERO; 16]; 16];
        for k in &channel.kraus {
            for (i, ip) in (0..d).flat_map(|i| (0..d).map(move |ip| (i, ip))) {
                let a = k[(i, ip)];
                if a == C64::ZERO {
                    continue;
                }
                for (j, jp) in (0..d).flat_map(|j| (0..d).map(move |jp| (j, jp))) {
                    s[i * d + j][ip * d + jp] += a * k[(j, jp)].conj();
                }
            }
        }
        let dd = d * d;
        // The first complex channel backfills `im` for the real ones
        // before it.
        let complex = !self.im.is_empty()
            || s[..dd]
                .iter()
                .any(|row| row[..dd].iter().any(|z| z.im != 0.0));
        if complex {
            self.im.resize(self.re.len(), 0.0);
        }
        let lens = self.index.len();
        self.starts.push((lens as u32, self.re.len() as u32));
        self.index.resize(lens + dd, 0);
        for (r, row) in s[..dd].iter().enumerate() {
            for (c, &z) in row[..dd].iter().enumerate() {
                if z != C64::ZERO {
                    self.index[lens + r] += 1;
                    self.index.push(c as u8);
                    self.re.push(z.re);
                    if complex {
                        self.im.push(z.im);
                    }
                }
            }
        }
        self.starts.len() - 1
    }

    /// Borrows lowered channel `idx`.
    pub fn get(&self, idx: usize) -> Superop<'_> {
        let (i0, v0) = self.starts[idx];
        let (i1, v1) = self
            .starts
            .get(idx + 1)
            .map_or((self.index.len(), self.re.len()), |&(i, v)| {
                (i as usize, v as usize)
            });
        let (i0, v0) = (i0 as usize, v0 as usize);
        let (row_len, cols) = self.index[i0..i1].split_at(i1 - i0 - (v1 - v0));
        Superop {
            row_len,
            cols,
            re: &self.re[v0..v1],
            // Out of range exactly when the table is real.
            im: self.im.get(v0..v1).unwrap_or(&[]),
        }
    }
}

impl<'a> Superop<'a> {
    /// Number of qubits the channel acts on (1 or 2).
    pub fn num_qubits(&self) -> usize {
        self.row_len.len().trailing_zeros() as usize / 2
    }

    /// Nonzero entries of `S`.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The sparse rows of `S` (4 or 16 of them; the rest stay empty).
    pub(crate) fn rows(&self) -> [SuperopRow<'a>; 16] {
        let mut rows: [SuperopRow<'a>; 16] = [(&[], &[], &[]); 16];
        let mut e0 = 0;
        for (row, &len) in rows.iter_mut().zip(self.row_len) {
            let e1 = e0 + len as usize;
            let im = self.im.get(e0..e1).unwrap_or(&[]);
            *row = (&self.cols[e0..e1], &self.re[e0..e1], im);
            e0 = e1;
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityMatrix;

    #[test]
    fn all_builtin_channels_are_cptp() {
        let channels = [
            KrausChannel::identity(1),
            KrausChannel::depolarizing_1q(0.03),
            KrausChannel::amplitude_damping(0.2),
            KrausChannel::phase_damping(0.35),
            KrausChannel::bit_flip(0.1),
            KrausChannel::phase_flip(0.1),
            KrausChannel::thermal_relaxation(100_000.0, 80_000.0, 300.0),
        ];
        for ch in &channels {
            assert!(ch.is_cptp(1e-9), "{ch:?} not CPTP");
        }
        assert!(KrausChannel::depolarizing_2q(0.04).is_cptp(1e-9));
    }

    #[test]
    fn depolarizing_extremes() {
        // p = 0 is the identity channel.
        let ch = KrausChannel::depolarizing_1q(0.0);
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary_1q(&crate::gates::h(), 0);
        let before = rho.clone();
        rho.apply_channel(&ch, &[0]);
        assert!(rho.matrix().approx_eq(&before.matrix(), 1e-12));
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        // p = 1 with uniform Paulis: rho -> (X rho X + Y rho Y + Z rho Z)/3.
        // Applied to |+><+| the X-basis polarization shrinks to -1/3.
        let ch = KrausChannel::depolarizing_1q(1.0);
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary_1q(&crate::gates::h(), 0);
        rho.apply_channel(&ch, &[0]);
        let x_exp = rho.expectation_pauli(&[(0, Pauli::X)]);
        assert!((x_exp + 1.0 / 3.0).abs() < 1e-12, "got {x_exp}");
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        let gamma = 0.3;
        let ch = KrausChannel::amplitude_damping(gamma);
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary_1q(&crate::gates::x(), 0); // |1>
        rho.apply_channel(&ch, &[0]);
        // P(1) = 1 - gamma.
        let probs = rho.probabilities();
        assert!((probs[1] - (1.0 - gamma)).abs() < 1e-12);
        assert!((probs[0] - gamma).abs() < 1e-12);
    }

    #[test]
    fn phase_damping_kills_coherence_not_population() {
        let ch = KrausChannel::phase_damping(1.0);
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary_1q(&crate::gates::h(), 0);
        rho.apply_channel(&ch, &[0]);
        let probs = rho.probabilities();
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 0.5).abs() < 1e-12);
        assert!(rho.expectation_pauli(&[(0, Pauli::X)]).abs() < 1e-12);
    }

    #[test]
    fn thermal_relaxation_matches_exponentials() {
        let (t1, t2, dt) = (120_000.0, 90_000.0, 5_000.0);
        let ch = KrausChannel::thermal_relaxation(t1, t2, dt);
        // Excited-state population decays as e^{-t/T1}.
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary_1q(&crate::gates::x(), 0);
        rho.apply_channel(&ch, &[0]);
        assert!((rho.probabilities()[1] - (-dt / t1).exp()).abs() < 1e-10);
        // Coherence decays as e^{-t/T2}.
        let mut plus = DensityMatrix::new(1);
        plus.apply_unitary_1q(&crate::gates::h(), 0);
        plus.apply_channel(&ch, &[0]);
        let coherence = plus.expectation_pauli(&[(0, Pauli::X)]);
        assert!(
            (coherence - (-dt / t2).exp()).abs() < 1e-10,
            "coherence {coherence} vs {}",
            (-dt / t2).exp()
        );
    }

    #[test]
    fn compose_is_cptp_and_ordered() {
        // X-then-damp differs from damp-then-X on |0>.
        let flip = KrausChannel::new(vec![Pauli::X.matrix()]);
        let damp = KrausChannel::amplitude_damping(0.5);
        let a = flip.compose(&damp); // damp after flip
        let b = damp.compose(&flip); // flip after damp
        assert!(a.is_cptp(1e-9) && b.is_cptp(1e-9));
        let mut ra = DensityMatrix::new(1);
        ra.apply_channel(&a, &[0]);
        let mut rb = DensityMatrix::new(1);
        rb.apply_channel(&b, &[0]);
        // a: |0> -> |1> -> half decayed: P(1) = 0.5.
        assert!((ra.probabilities()[1] - 0.5).abs() < 1e-12);
        // b: |0> -> unaffected by damping -> flipped: P(1) = 1.
        assert!((rb.probabilities()[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn thermal_relaxation_carries_no_zero_operator() {
        let (t1, t2, dt) = (120_000.0, 90_000.0, 5_000.0);
        let ch = KrausChannel::thermal_relaxation(t1, t2, dt);
        // phase_damping.K1 * amplitude_damping.K1 is identically zero.
        assert_eq!(ch.operators().len(), 3);
        assert!(ch
            .operators()
            .iter()
            .all(|k| k.as_slice().iter().any(|&z| z != C64::ZERO)));
        assert!(ch.is_cptp(1e-12));
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary_1q(&crate::gates::x(), 0);
        rho.apply_channel(&ch, &[0]);
        assert!((rho.probabilities()[1] - (-dt / t1).exp()).abs() < 1e-10);
        // No dephasing remainder (T2 = 2 T1): the whole K1 column drops.
        let pure_t1 = KrausChannel::thermal_relaxation(t1, 2.0 * t1, dt);
        assert_eq!(pure_t1.operators().len(), 2);
        assert!(pure_t1.is_cptp(1e-12));
    }

    #[test]
    fn superop_table_keeps_real_channels_real_and_backfills() {
        let mut table = SuperopTable::default();
        let relax = table.push(&KrausChannel::thermal_relaxation(100.0, 80.0, 3.0));
        let depol = table.push(&KrausChannel::depolarizing_2q(0.02));
        assert!(table.im.is_empty(), "Pauli mixtures and damping are real");
        assert_eq!(table.get(relax).nnz(), 5);
        assert_eq!(table.get(depol).nnz(), 28);
        assert_eq!(
            (table.get(relax).num_qubits(), table.get(depol).num_qubits()),
            (1, 2)
        );
        // A complex channel switches the table over without disturbing
        // the real channels before it.
        let before = table
            .get(depol)
            .rows()
            .map(|(cols, re, _)| (cols.to_vec(), re.to_vec()));
        let skew = table.push(&KrausChannel::new(vec![
            crate::gates::rz(0.3) * crate::gates::ry(0.4),
        ]));
        assert_eq!(table.im.len(), table.re.len());
        assert!(table
            .get(skew)
            .rows()
            .iter()
            .any(|(_, _, im)| im.iter().any(|&v| v != 0.0)));
        let after = table.get(depol).rows();
        for ((cols, re), (a_cols, a_re, a_im)) in before.iter().zip(after) {
            assert_eq!((cols.as_slice(), re.as_slice()), (a_cols, a_re));
            assert!(a_im.iter().all(|&v| v == 0.0) && a_im.len() == a_re.len());
        }
    }

    #[test]
    #[should_panic(expected = "T2 cannot exceed")]
    fn thermal_relaxation_rejects_unphysical_t2() {
        let _ = KrausChannel::thermal_relaxation(50.0, 150.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "sum K^dag K = I")]
    fn new_rejects_non_cptp() {
        let _ = KrausChannel::new(vec![Pauli::X.matrix().scale(C64::from_real(0.5))]);
    }
}
