//! Standard quantum gate matrices and the Pauli operator alphabet.
//!
//! All matrices use the little-endian qubit convention shared across the
//! workspace: in a two-qubit matrix the basis order is
//! `|q1 q0> = |00>, |01>, |10>, |11>` where `q0` is the *first* operand.

use crate::complex::C64;
use crate::matrix::CMatrix;
use std::fmt;

/// The single-qubit Pauli alphabet.
///
/// Used both by noise channels (Pauli error injection) and by the VQA
/// layer's Pauli-string Hamiltonians.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pauli {
    /// Identity.
    I,
    /// Bit flip.
    X,
    /// Bit + phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All four Paulis in canonical order.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// The 2x2 matrix of this Pauli.
    pub fn matrix(self) -> CMatrix {
        match self {
            Pauli::I => CMatrix::identity(2),
            Pauli::X => x(),
            Pauli::Y => y(),
            Pauli::Z => z(),
        }
    }

    /// One-letter label (`I`, `X`, `Y`, `Z`).
    pub fn label(self) -> char {
        match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        }
    }

    /// Parses a one-letter label.
    ///
    /// Returns `None` for anything other than `I`/`X`/`Y`/`Z` (case
    /// insensitive).
    pub fn from_label(c: char) -> Option<Pauli> {
        match c.to_ascii_uppercase() {
            'I' => Some(Pauli::I),
            'X' => Some(Pauli::X),
            'Y' => Some(Pauli::Y),
            'Z' => Some(Pauli::Z),
            _ => None,
        }
    }

    /// Returns `true` if `self` commutes with `other` as single-qubit
    /// operators (they commute iff either is `I` or they are equal).
    pub fn commutes_with(self, other: Pauli) -> bool {
        self == Pauli::I || other == Pauli::I || self == other
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Pauli X (NOT) gate.
pub fn x() -> CMatrix {
    CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
}

/// Pauli Y gate.
pub fn y() -> CMatrix {
    CMatrix::from_slice(
        2,
        2,
        &[
            C64::ZERO,
            C64::new(0.0, -1.0),
            C64::new(0.0, 1.0),
            C64::ZERO,
        ],
    )
}

/// Pauli Z gate.
pub fn z() -> CMatrix {
    CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0])
}

/// Hadamard gate.
pub fn h() -> CMatrix {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    CMatrix::from_real(2, 2, &[s, s, s, -s])
}

/// Phase gate S = sqrt(Z).
pub fn s() -> CMatrix {
    CMatrix::from_slice(2, 2, &[C64::ONE, C64::ZERO, C64::ZERO, C64::I])
}

/// Inverse phase gate S^dagger.
pub fn sdg() -> CMatrix {
    CMatrix::from_slice(2, 2, &[C64::ONE, C64::ZERO, C64::ZERO, -C64::I])
}

/// T gate (pi/8 phase).
pub fn t() -> CMatrix {
    CMatrix::from_slice(
        2,
        2,
        &[
            C64::ONE,
            C64::ZERO,
            C64::ZERO,
            C64::cis(std::f64::consts::FRAC_PI_4),
        ],
    )
}

/// Square root of X — a native IBMQ basis gate.
///
/// `SX = (1/2) [[1+i, 1-i], [1-i, 1+i]]`, satisfying `SX * SX = X`.
pub fn sx() -> CMatrix {
    let a = C64::new(0.5, 0.5);
    let b = C64::new(0.5, -0.5);
    CMatrix::from_slice(2, 2, &[a, b, b, a])
}

/// Inverse of [`sx`].
pub fn sxdg() -> CMatrix {
    sx().dagger()
}

/// Rotation about the X axis: `RX(theta) = exp(-i theta X / 2)`.
pub fn rx(theta: f64) -> CMatrix {
    let mut m = CMatrix::zeros(0, 0);
    rx_into(theta, &mut m);
    m
}

/// [`rx`] written into `out`, whose storage is reused.
pub fn rx_into(theta: f64, out: &mut CMatrix) {
    let c = C64::from_real((theta / 2.0).cos());
    let s = C64::new(0.0, -(theta / 2.0).sin());
    out.assign(2, 2, &[c, s, s, c]);
}

/// Rotation about the Y axis: `RY(theta) = exp(-i theta Y / 2)`.
pub fn ry(theta: f64) -> CMatrix {
    let mut m = CMatrix::zeros(0, 0);
    ry_into(theta, &mut m);
    m
}

/// [`ry`] written into `out`, whose storage is reused.
pub fn ry_into(theta: f64, out: &mut CMatrix) {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    let re = C64::from_real;
    out.assign(2, 2, &[re(c), re(-s), re(s), re(c)]);
}

/// Rotation about the Z axis: `RZ(theta) = exp(-i theta Z / 2)`.
///
/// On IBMQ hardware this is a "virtual" frame change with zero duration and
/// zero error; the device model honours that.
pub fn rz(theta: f64) -> CMatrix {
    let mut m = CMatrix::zeros(0, 0);
    rz_into(theta, &mut m);
    m
}

/// [`rz`] written into `out`, whose storage is reused.
pub fn rz_into(theta: f64, out: &mut CMatrix) {
    let (em, ep) = (C64::cis(-theta / 2.0), C64::cis(theta / 2.0));
    out.assign(2, 2, &[em, C64::ZERO, C64::ZERO, ep]);
}

/// Phase gate `P(lambda) = diag(1, e^{i lambda})` (equal to `RZ` up to
/// global phase).
pub fn p(lambda: f64) -> CMatrix {
    CMatrix::from_slice(2, 2, &[C64::ONE, C64::ZERO, C64::ZERO, C64::cis(lambda)])
}

/// General single-qubit gate `U(theta, phi, lambda)` (OpenQASM u3).
pub fn u(theta: f64, phi: f64, lambda: f64) -> CMatrix {
    let c = (theta / 2.0).cos();
    let s = (theta / 2.0).sin();
    CMatrix::from_slice(
        2,
        2,
        &[
            C64::from_real(c),
            -C64::cis(lambda) * s,
            C64::cis(phi) * s,
            C64::cis(phi + lambda) * c,
        ],
    )
}

/// CNOT with the **first operand as control** under the little-endian
/// convention: basis `|q1 q0>`, control = q0, target = q1.
///
/// `|00> -> |00>, |01> -> |11>, |10> -> |10>, |11> -> |01>`.
pub fn cx() -> CMatrix {
    CMatrix::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 1.0, 0.0, 0.0,
        ],
    )
}

/// Controlled-Z (symmetric in its operands).
pub fn cz() -> CMatrix {
    CMatrix::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 0.0, 0.0, -1.0,
        ],
    )
}

/// SWAP gate.
pub fn swap() -> CMatrix {
    CMatrix::from_real(
        4,
        4,
        &[
            1.0, 0.0, 0.0, 0.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 1.0, 0.0, 0.0, //
            0.0, 0.0, 0.0, 1.0,
        ],
    )
}

/// Two-qubit ZZ interaction `RZZ(theta) = exp(-i theta Z(x)Z / 2)`,
/// the parameterized gate of the QAOA cost layer (Fig. 10 of the paper).
pub fn rzz(theta: f64) -> CMatrix {
    let mut m = CMatrix::zeros(0, 0);
    rzz_into(theta, &mut m);
    m
}

/// [`rzz`] written into `out`, whose storage is reused.
pub fn rzz_into(theta: f64, out: &mut CMatrix) {
    let em = C64::cis(-theta / 2.0);
    let ep = C64::cis(theta / 2.0);
    let mut data = [C64::ZERO; 16];
    for (i, phase) in [em, ep, ep, em].into_iter().enumerate() {
        data[i * 5] = phase;
    }
    out.assign(4, 4, &data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn all_fixed_gates_are_unitary() {
        for g in [x(), y(), z(), h(), s(), sdg(), t(), sx(), sxdg()] {
            assert!(g.is_unitary(1e-12));
        }
        for g in [cx(), cz(), swap()] {
            assert!(g.is_unitary(1e-12));
        }
    }

    #[test]
    fn rotations_are_unitary_and_periodic() {
        for k in 0..8 {
            let t = k as f64 * PI / 4.0;
            assert!(rx(t).is_unitary(1e-12));
            assert!(ry(t).is_unitary(1e-12));
            assert!(rz(t).is_unitary(1e-12));
            assert!(rzz(t).is_unitary(1e-12));
        }
        // 4*pi periodicity: R(theta + 4pi) == R(theta) exactly.
        assert!(ry(0.3).approx_eq(&ry(0.3 + 4.0 * PI), 1e-9));
        // 2*pi shifts flip only the global sign.
        assert!(ry(0.3 + 2.0 * PI).approx_eq_up_to_phase(&ry(0.3), 1e-9));
    }

    #[test]
    fn sx_squares_to_x() {
        assert!(sx().pow(2).approx_eq(&x(), 1e-12));
        assert!((sx() * sxdg()).approx_eq(&CMatrix::identity(2), 1e-12));
    }

    #[test]
    fn rotation_special_angles() {
        assert!(rx(PI).approx_eq_up_to_phase(&x(), 1e-12));
        assert!(ry(PI).approx_eq_up_to_phase(&y(), 1e-12));
        assert!(rz(PI).approx_eq_up_to_phase(&z(), 1e-12));
        assert!(rx(PI / 2.0).approx_eq_up_to_phase(&sx(), 1e-12));
        assert!(rz(PI / 2.0).approx_eq_up_to_phase(&s(), 1e-12));
    }

    #[test]
    fn u_gate_reduces_to_rotations() {
        let th = 0.77;
        assert!(u(th, -PI / 2.0, PI / 2.0).approx_eq_up_to_phase(&rx(th), 1e-12));
        assert!(u(th, 0.0, 0.0).approx_eq_up_to_phase(&ry(th), 1e-12));
        assert!(u(0.0, 0.0, th).approx_eq_up_to_phase(&rz(th), 1e-12));
    }

    #[test]
    fn hadamard_conjugates_x_to_z() {
        let hxh = h() * x() * h();
        assert!(hxh.approx_eq(&z(), 1e-12));
    }

    #[test]
    fn cx_truth_table() {
        let m = cx();
        // control = q0 (low bit). |01> (q0=1) -> |11>.
        assert!(m[(3, 1)].approx_eq(C64::ONE, 0.0));
        assert!(m[(1, 3)].approx_eq(C64::ONE, 0.0));
        assert!(m[(0, 0)].approx_eq(C64::ONE, 0.0));
        assert!(m[(2, 2)].approx_eq(C64::ONE, 0.0));
    }

    #[test]
    fn swap_is_three_cnots() {
        // SWAP = CX(0,1) CX(1,0) CX(0,1); with our basis CX(1,0) is the
        // reversed-control CNOT obtained by conjugating with SWAP-free
        // reindexing: X(x)H style identity checked numerically instead.
        let cx01 = cx();
        let cx10 = {
            // reverse control/target by relabeling basis bits
            let mut m = CMatrix::zeros(4, 4);
            let flip = |i: usize| ((i & 1) << 1) | ((i >> 1) & 1);
            for r in 0..4 {
                for c in 0..4 {
                    m[(flip(r), flip(c))] = cx01[(r, c)];
                }
            }
            m
        };
        let prod = cx01.clone() * cx10 * cx01;
        assert!(prod.approx_eq(&swap(), 1e-12));
    }

    #[test]
    fn rzz_via_cnot_conjugation() {
        // RZZ(t) = CX * (I (x) RZ(t) on q1) * CX is the standard
        // decomposition with RZ on the target qubit.
        let t = 1.234;
        let rz_on_q1 = rz(t).kron(&CMatrix::identity(2));
        let prod = cx() * rz_on_q1 * cx();
        assert!(prod.approx_eq(&rzz(t), 1e-12));
    }

    #[test]
    fn pauli_labels_roundtrip() {
        for p in Pauli::ALL {
            assert_eq!(Pauli::from_label(p.label()), Some(p));
        }
        assert_eq!(Pauli::from_label('q'), None);
        assert_eq!(Pauli::from_label('x'), Some(Pauli::X));
    }

    #[test]
    fn pauli_commutation() {
        assert!(Pauli::I.commutes_with(Pauli::X));
        assert!(Pauli::X.commutes_with(Pauli::X));
        assert!(!Pauli::X.commutes_with(Pauli::Z));
    }
}
