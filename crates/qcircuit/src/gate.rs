//! The gate alphabet of the circuit IR.
//!
//! The set covers what the paper's workloads need: the VQE ansatz (Fig. 8:
//! RY/RZ/CNOT), the QAOA circuit (Fig. 10: H/RZZ/RX), the GHZ calibration
//! probe (H/CNOT), plus the IBMQ native basis {CX, RZ, SX, X} targeted by
//! the transpiler and the SWAPs it inserts.

use crate::param::Angle;
use qsim::gates;
use qsim::CMatrix;
use std::fmt;

/// One circuit operation.
///
/// Two-qubit gates order their operands: for [`Gate::Cx`] the first field
/// is the control. Matrices follow the `|q1 q0>` little-endian convention
/// of [`qsim::gates`], where the *first operand* is `q0`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli X.
    X(usize),
    /// Pauli Y.
    Y(usize),
    /// Pauli Z.
    Z(usize),
    /// Phase gate S.
    S(usize),
    /// Inverse phase gate.
    Sdg(usize),
    /// Square root of X (IBMQ native).
    Sx(usize),
    /// X-axis rotation.
    Rx(usize, Angle),
    /// Y-axis rotation.
    Ry(usize, Angle),
    /// Z-axis rotation (virtual on IBMQ hardware: zero duration/error).
    Rz(usize, Angle),
    /// CNOT; fields are `(control, target)`.
    Cx(usize, usize),
    /// Controlled-Z (symmetric).
    Cz(usize, usize),
    /// SWAP.
    Swap(usize, usize),
    /// Two-qubit ZZ rotation (QAOA cost layer).
    Rzz(usize, usize, Angle),
}

impl Gate {
    /// The qubits the gate acts on (1 or 2 entries, operand order).
    pub fn qubits(&self) -> Vec<usize> {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::Sx(q)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::Rz(q, _) => vec![q],
            Gate::Cx(a, b) | Gate::Cz(a, b) | Gate::Swap(a, b) | Gate::Rzz(a, b, _) => {
                vec![a, b]
            }
        }
    }

    /// Returns `true` for two-qubit gates.
    pub fn is_two_qubit(&self) -> bool {
        matches!(
            self,
            Gate::Cx(..) | Gate::Cz(..) | Gate::Swap(..) | Gate::Rzz(..)
        )
    }

    /// Returns `true` for gates that are "virtual" on IBMQ hardware (frame
    /// changes with zero duration and error) — only [`Gate::Rz`].
    pub fn is_virtual(&self) -> bool {
        matches!(self, Gate::Rz(..))
    }

    /// The symbolic or fixed angle, if the gate is parameterized.
    pub fn angle(&self) -> Option<Angle> {
        match *self {
            Gate::Rx(_, a) | Gate::Ry(_, a) | Gate::Rz(_, a) | Gate::Rzz(_, _, a) => Some(a),
            _ => None,
        }
    }

    /// Replaces the angle of a parameterized gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate has no angle.
    pub fn with_angle(self, angle: Angle) -> Gate {
        match self {
            Gate::Rx(q, _) => Gate::Rx(q, angle),
            Gate::Ry(q, _) => Gate::Ry(q, angle),
            Gate::Rz(q, _) => Gate::Rz(q, angle),
            Gate::Rzz(a, b, _) => Gate::Rzz(a, b, angle),
            g => panic!("gate {g} has no angle"),
        }
    }

    /// Remaps qubit operands through `f` (used by routing and layout).
    pub fn map_qubits<F: Fn(usize) -> usize>(self, f: F) -> Gate {
        match self {
            Gate::H(q) => Gate::H(f(q)),
            Gate::X(q) => Gate::X(f(q)),
            Gate::Y(q) => Gate::Y(f(q)),
            Gate::Z(q) => Gate::Z(f(q)),
            Gate::S(q) => Gate::S(f(q)),
            Gate::Sdg(q) => Gate::Sdg(f(q)),
            Gate::Sx(q) => Gate::Sx(f(q)),
            Gate::Rx(q, a) => Gate::Rx(f(q), a),
            Gate::Ry(q, a) => Gate::Ry(f(q), a),
            Gate::Rz(q, a) => Gate::Rz(f(q), a),
            Gate::Cx(a, b) => Gate::Cx(f(a), f(b)),
            Gate::Cz(a, b) => Gate::Cz(f(a), f(b)),
            Gate::Swap(a, b) => Gate::Swap(f(a), f(b)),
            Gate::Rzz(a, b, t) => Gate::Rzz(f(a), f(b), t),
        }
    }

    /// The unitary matrix of the gate, resolving symbolic angles against
    /// `params`.
    ///
    /// # Panics
    ///
    /// Panics if a symbolic angle's id is out of range of `params`.
    pub fn matrix(&self, params: &[f64]) -> CMatrix {
        match *self {
            Gate::H(_) => gates::h(),
            Gate::X(_) => gates::x(),
            Gate::Y(_) => gates::y(),
            Gate::Z(_) => gates::z(),
            Gate::S(_) => gates::s(),
            Gate::Sdg(_) => gates::sdg(),
            Gate::Sx(_) => gates::sx(),
            Gate::Rx(_, a) => gates::rx(a.resolve(params)),
            Gate::Ry(_, a) => gates::ry(a.resolve(params)),
            Gate::Rz(_, a) => gates::rz(a.resolve(params)),
            Gate::Cx(..) => gates::cx(),
            Gate::Cz(..) => gates::cz(),
            Gate::Swap(..) => gates::swap(),
            Gate::Rzz(_, _, a) => gates::rzz(a.resolve(params)),
        }
    }

    /// [`Gate::matrix`] written into `out`, whose storage is reused —
    /// without allocating for the rotations, the gates a rebind rewrites.
    ///
    /// # Panics
    ///
    /// As [`Gate::matrix`].
    pub fn matrix_into(&self, params: &[f64], out: &mut CMatrix) {
        match *self {
            Gate::Rx(_, a) => gates::rx_into(a.resolve(params), out),
            Gate::Ry(_, a) => gates::ry_into(a.resolve(params), out),
            Gate::Rz(_, a) => gates::rz_into(a.resolve(params), out),
            Gate::Rzz(_, _, a) => gates::rzz_into(a.resolve(params), out),
            _ => out.clone_from(&self.matrix(params)),
        }
    }

    /// Lower-case OpenQASM-style mnemonic.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::H(_) => "h",
            Gate::X(_) => "x",
            Gate::Y(_) => "y",
            Gate::Z(_) => "z",
            Gate::S(_) => "s",
            Gate::Sdg(_) => "sdg",
            Gate::Sx(_) => "sx",
            Gate::Rx(..) => "rx",
            Gate::Ry(..) => "ry",
            Gate::Rz(..) => "rz",
            Gate::Cx(..) => "cx",
            Gate::Cz(..) => "cz",
            Gate::Swap(..) => "swap",
            Gate::Rzz(..) => "rzz",
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.angle() {
            Some(a) => write!(f, "{}({}) {:?}", self.name(), a, self.qubits()),
            None => write!(f, "{} {:?}", self.name(), self.qubits()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_lists_and_arity() {
        assert_eq!(Gate::H(3).qubits(), vec![3]);
        assert_eq!(Gate::Cx(1, 2).qubits(), vec![1, 2]);
        assert!(Gate::Cx(0, 1).is_two_qubit());
        assert!(!Gate::Sx(0).is_two_qubit());
    }

    #[test]
    fn only_rz_is_virtual() {
        assert!(Gate::Rz(0, Angle::Fixed(0.1)).is_virtual());
        for g in [
            Gate::H(0),
            Gate::Sx(0),
            Gate::X(0),
            Gate::Rx(0, Angle::Fixed(0.3)),
            Gate::Cx(0, 1),
        ] {
            assert!(!g.is_virtual(), "{g} should not be virtual");
        }
    }

    #[test]
    fn angle_roundtrip() {
        let g = Gate::Ry(2, Angle::sym(4));
        assert_eq!(g.angle(), Some(Angle::sym(4)));
        let bound = g.with_angle(Angle::Fixed(0.7));
        assert_eq!(bound.angle(), Some(Angle::Fixed(0.7)));
        assert_eq!(Gate::X(0).angle(), None);
    }

    #[test]
    #[should_panic(expected = "has no angle")]
    fn with_angle_on_fixed_gate_panics() {
        let _ = Gate::H(0).with_angle(Angle::Fixed(0.0));
    }

    #[test]
    fn map_qubits_relabels() {
        let g = Gate::Cx(0, 1).map_qubits(|q| q + 5);
        assert_eq!(g, Gate::Cx(5, 6));
    }

    #[test]
    fn matrix_resolves_symbols() {
        let g = Gate::Ry(0, Angle::sym(0));
        let m = g.matrix(&[std::f64::consts::PI]);
        assert!(m.approx_eq_up_to_phase(&qsim::gates::y(), 1e-12));
    }

    #[test]
    fn display_contains_mnemonic() {
        let g = Gate::Rzz(0, 1, Angle::sym(1));
        let s = g.to_string();
        assert!(s.contains("rzz"));
        assert!(s.contains("theta[1]"));
    }
}
