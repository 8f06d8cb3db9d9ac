//! Ideal (noiseless) state-vector simulation.
//!
//! This is the reproduction's stand-in for the paper's "ideal quantum
//! simulator" baseline: the reference every VQA training curve is compared
//! against. Qubit `0` is the least-significant bit of a basis index.

use crate::complex::C64;
use crate::gates::Pauli;
use crate::matrix::CMatrix;
use rand::Rng;

/// Errors produced by state construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// Amplitude vector length was not a power of two.
    NotPowerOfTwo(usize),
    /// Amplitude vector norm differed from 1 beyond tolerance.
    NotNormalized,
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::NotPowerOfTwo(n) => {
                write!(f, "amplitude vector length {n} is not a power of two")
            }
            StateError::NotNormalized => write!(f, "amplitude vector is not normalized"),
        }
    }
}

impl std::error::Error for StateError {}

/// A pure quantum state over `n` qubits.
///
/// # Examples
///
/// ```
/// use qsim::statevector::StateVector;
/// use qsim::gates;
///
/// // Build a Bell pair.
/// let mut sv = StateVector::new(2);
/// sv.apply_1q(&gates::h(), 0);
/// sv.apply_2q(&gates::cx(), 0, 1);
/// let p = sv.probabilities();
/// assert!((p[0] - 0.5).abs() < 1e-12);
/// assert!((p[3] - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
}

impl StateVector {
    /// Creates the all-zeros computational basis state `|0...0>`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(n_qubits <= 26, "state-vector simulator capped at 26 qubits");
        let mut amps = vec![C64::ZERO; 1 << n_qubits];
        amps[0] = C64::ONE;
        StateVector { n: n_qubits, amps }
    }

    /// Creates a state from explicit amplitudes.
    ///
    /// # Errors
    ///
    /// Returns [`StateError::NotPowerOfTwo`] if the length is not `2^n`, or
    /// [`StateError::NotNormalized`] if the squared norm deviates from 1 by
    /// more than `1e-8`.
    pub fn from_amplitudes(amps: Vec<C64>) -> Result<Self, StateError> {
        let len = amps.len();
        if len == 0 || !len.is_power_of_two() {
            return Err(StateError::NotPowerOfTwo(len));
        }
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        if (norm - 1.0).abs() > 1e-8 {
            return Err(StateError::NotNormalized);
        }
        Ok(StateVector {
            n: len.trailing_zeros() as usize,
            amps,
        })
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Borrows the amplitude vector (little-endian basis order).
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Applies a 2x2 unitary to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q >= num_qubits` or the matrix is not 2x2.
    pub fn apply_1q(&mut self, u: &CMatrix, q: usize) {
        assert!(
            q < self.n,
            "qubit {q} out of range for {}-qubit state",
            self.n
        );
        assert_eq!((u.rows(), u.cols()), (2, 2), "1q gate must be 2x2");
        let bit = 1usize << q;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        let dim = self.amps.len();
        let mut i = 0usize;
        while i < dim {
            if i & bit == 0 {
                let j = i | bit;
                let a0 = self.amps[i];
                let a1 = self.amps[j];
                self.amps[i] = u00 * a0 + u01 * a1;
                self.amps[j] = u10 * a0 + u11 * a1;
            }
            i += 1;
        }
    }

    /// Applies a 4x4 unitary to the ordered qubit pair `(q0, q1)`.
    ///
    /// The matrix is interpreted in the basis `|q1 q0>`, matching
    /// [`crate::gates::cx`] where `q0` is the control.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide, are out of range, or the matrix is
    /// not 4x4.
    pub fn apply_2q(&mut self, u: &CMatrix, q0: usize, q1: usize) {
        assert!(q0 != q1, "2q gate operands must differ");
        assert!(q0 < self.n && q1 < self.n, "qubit out of range");
        assert_eq!((u.rows(), u.cols()), (4, 4), "2q gate must be 4x4");
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        let dim = self.amps.len();
        for i in 0..dim {
            if i & b0 == 0 && i & b1 == 0 {
                let i00 = i;
                let i01 = i | b0;
                let i10 = i | b1;
                let i11 = i | b0 | b1;
                let a = [
                    self.amps[i00],
                    self.amps[i01],
                    self.amps[i10],
                    self.amps[i11],
                ];
                for (r, &idx) in [i00, i01, i10, i11].iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (c, &amp) in a.iter().enumerate() {
                        acc += u[(r, c)] * amp;
                    }
                    self.amps[idx] = acc;
                }
            }
        }
    }

    /// Measurement probabilities over all `2^n` basis states.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability of observing a specific basis state.
    ///
    /// # Panics
    ///
    /// Panics if `basis >= 2^n`.
    pub fn probability_of(&self, basis: usize) -> f64 {
        self.amps[basis].norm_sqr()
    }

    /// Inner product `<self|other>`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.n, other.n, "qubit count mismatch");
        self.amps
            .iter()
            .zip(&other.amps)
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// State fidelity `|<self|other>|^2`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Squared norm (should be 1 up to numerical drift).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Renormalizes to unit norm; useful after long gate sequences.
    pub fn normalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            for a in &mut self.amps {
                *a = *a / n;
            }
        }
    }

    /// Expectation value of a Pauli string `<psi| P |psi>`.
    ///
    /// `ops` pairs each qubit with a Pauli; omitted qubits act as identity.
    /// This avoids building the `2^n x 2^n` operator.
    ///
    /// # Panics
    ///
    /// Panics if a qubit index repeats or is out of range.
    pub fn expectation_pauli(&self, ops: &[(usize, Pauli)]) -> f64 {
        let mut seen = 0usize;
        let mut x_mask = 0usize;
        let mut y_mask = 0usize;
        let mut z_mask = 0usize;
        for &(q, p) in ops {
            assert!(q < self.n, "qubit {q} out of range");
            assert!(seen & (1 << q) == 0, "duplicate qubit {q} in Pauli string");
            seen |= 1 << q;
            match p {
                Pauli::I => {}
                Pauli::X => x_mask |= 1 << q,
                Pauli::Y => y_mask |= 1 << q,
                Pauli::Z => z_mask |= 1 << q,
            }
        }
        let flip = x_mask | y_mask;
        let mut acc = C64::ZERO;
        for (i, amp) in self.amps.iter().enumerate() {
            if amp.norm_sqr() == 0.0 {
                continue;
            }
            let j = i ^ flip;
            // P |i> = phase(i) |i ^ flip>, so the term is
            // conj(psi_j) * phase(i) * psi_i with
            // phase(i) = (-1)^{|i & z|} * i^{#Y} * (-1)^{|i & y|}:
            // Z|b> = (-1)^b |b>, Y|0> = i|1>, Y|1> = -i|0>.
            let mut phase = C64::ONE;
            if y_mask | z_mask != 0 {
                let neg = (i & z_mask).count_ones() + (i & y_mask).count_ones();
                if neg % 2 == 1 {
                    phase = -phase;
                }
                match y_mask.count_ones() % 4 {
                    0 => {}
                    1 => phase *= C64::I,
                    2 => phase = -phase,
                    3 => phase = -(phase * C64::I),
                    _ => unreachable!(),
                }
            }
            acc += self.amps[j].conj() * phase * *amp;
        }
        acc.re
    }

    /// Samples `shots` measurement outcomes in the computational basis.
    ///
    /// Returns raw basis indices; use [`crate::sampler::Counts`] to
    /// aggregate.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        crate::sampler::sample_indices(&self.probabilities(), shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use std::f64::consts::PI;

    #[test]
    fn initial_state_is_zero_ket() {
        let sv = StateVector::new(3);
        assert_eq!(sv.num_qubits(), 3);
        assert!((sv.probability_of(0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn from_amplitudes_validates() {
        assert_eq!(
            StateVector::from_amplitudes(vec![C64::ONE; 3]).unwrap_err(),
            StateError::NotPowerOfTwo(3)
        );
        assert_eq!(
            StateVector::from_amplitudes(vec![C64::ONE, C64::ONE]).unwrap_err(),
            StateError::NotNormalized
        );
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let ok = StateVector::from_amplitudes(vec![C64::from_real(s), C64::from_real(s)]);
        assert!(ok.is_ok());
    }

    #[test]
    fn x_flips_target_qubit_only() {
        let mut sv = StateVector::new(2);
        sv.apply_1q(&gates::x(), 1);
        assert!((sv.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_state_probabilities() {
        let n = 5;
        let mut sv = StateVector::new(n);
        sv.apply_1q(&gates::h(), 0);
        for q in 0..n - 1 {
            sv.apply_2q(&gates::cx(), q, q + 1);
        }
        let p = sv.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[(1 << n) - 1] - 0.5).abs() < 1e-12);
        let mid: f64 = p[1..(1 << n) - 1].iter().sum();
        assert!(mid < 1e-12);
    }

    #[test]
    fn cx_control_is_first_operand() {
        // |q0=1>, CX(q0 -> q1) should set q1.
        let mut sv = StateVector::new(2);
        sv.apply_1q(&gates::x(), 0);
        sv.apply_2q(&gates::cx(), 0, 1);
        assert!((sv.probability_of(0b11) - 1.0).abs() < 1e-12);
        // Reversed operand order: control q1 (still |0>), nothing happens.
        let mut sv2 = StateVector::new(2);
        sv2.apply_1q(&gates::x(), 0);
        sv2.apply_2q(&gates::cx(), 1, 0);
        assert!((sv2.probability_of(0b01) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_expectation_matches_analytic() {
        // <Z> after RY(theta) on |0> is cos(theta).
        for k in 0..8 {
            let theta = k as f64 * PI / 7.0;
            let mut sv = StateVector::new(1);
            sv.apply_1q(&gates::ry(theta), 0);
            let z = sv.expectation_pauli(&[(0, Pauli::Z)]);
            assert!((z - theta.cos()).abs() < 1e-12, "theta={theta}");
            let x = sv.expectation_pauli(&[(0, Pauli::X)]);
            assert!((x - theta.sin()).abs() < 1e-12);
        }
    }

    #[test]
    fn pauli_string_expectation_on_bell_state() {
        let mut sv = StateVector::new(2);
        sv.apply_1q(&gates::h(), 0);
        sv.apply_2q(&gates::cx(), 0, 1);
        // Bell state: <XX> = <ZZ> = 1, <YY> = -1, <Z0> = 0.
        assert!((sv.expectation_pauli(&[(0, Pauli::X), (1, Pauli::X)]) - 1.0).abs() < 1e-12);
        assert!((sv.expectation_pauli(&[(0, Pauli::Z), (1, Pauli::Z)]) - 1.0).abs() < 1e-12);
        assert!((sv.expectation_pauli(&[(0, Pauli::Y), (1, Pauli::Y)]) + 1.0).abs() < 1e-12);
        assert!(sv.expectation_pauli(&[(0, Pauli::Z)]).abs() < 1e-12);
    }

    #[test]
    fn expectation_matches_dense_operator() {
        // Cross-check the masked fast path against explicit matrices.
        let mut sv = StateVector::new(3);
        sv.apply_1q(&gates::ry(0.4), 0);
        sv.apply_1q(&gates::rx(1.1), 1);
        sv.apply_2q(&gates::cx(), 0, 2);
        sv.apply_1q(&gates::rz(0.9), 2);
        let strings: [&[(usize, Pauli)]; 4] = [
            &[(0, Pauli::X), (2, Pauli::Y)],
            &[(1, Pauli::Y)],
            &[(0, Pauli::Z), (1, Pauli::Z), (2, Pauli::Z)],
            &[(0, Pauli::Y), (1, Pauli::X), (2, Pauli::Z)],
        ];
        for ops in strings {
            let mut op = CMatrix::identity(1);
            for q in (0..3).rev() {
                let p = ops
                    .iter()
                    .find(|(qq, _)| *qq == q)
                    .map(|&(_, p)| p)
                    .unwrap_or(Pauli::I);
                op = op.kron(&p.matrix());
            }
            let dense = crate::linalg::expectation(&op, sv.amplitudes());
            let fast = sv.expectation_pauli(ops);
            assert!(
                (dense - fast).abs() < 1e-10,
                "mismatch on {ops:?}: {dense} vs {fast}"
            );
        }
    }

    #[test]
    fn fidelity_of_orthogonal_states() {
        let a = StateVector::new(2);
        let mut b = StateVector::new(2);
        b.apply_1q(&gates::x(), 0);
        assert!(a.fidelity(&b) < 1e-15);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitarity_preserves_norm() {
        let mut sv = StateVector::new(4);
        for q in 0..4 {
            sv.apply_1q(&gates::ry(0.3 * (q as f64 + 1.0)), q);
        }
        for q in 0..3 {
            sv.apply_2q(&gates::cx(), q, q + 1);
        }
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }
}
