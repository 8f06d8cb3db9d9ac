//! Pauli strings and Hamiltonians.
//!
//! VQE Hamiltonians arrive as weighted sums of Pauli strings (the paper
//! parallelizes VQE "at the Pauli string level", Section III-A). This
//! module provides the string/Hamiltonian algebra; measurement grouping
//! and counts-based estimation live in [`crate::measure`].

use qsim::linalg;
use qsim::{CMatrix, Pauli, StateVector, C64};
use std::fmt;

/// A tensor product of single-qubit Paulis over a fixed register width.
///
/// Internally stored qubit-0-first; [`PauliString::from_label`] accepts the
/// conventional big-endian label where the **leftmost character is the
/// highest qubit** (matching Qiskit's `Pauli("XY")` = X on qubit 1, Y on
/// qubit 0).
///
/// # Examples
///
/// ```
/// use qcircuit::pauli::PauliString;
/// use qsim::Pauli;
///
/// let p = PauliString::from_label("XZI").unwrap();
/// assert_eq!(p.num_qubits(), 3);
/// assert_eq!(p.pauli(0), Pauli::I);
/// assert_eq!(p.pauli(2), Pauli::X);
/// assert_eq!(p.to_string(), "XZI");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PauliString {
    paulis: Vec<Pauli>,
}

impl PauliString {
    /// The all-identity string over `n` qubits.
    pub fn identity(n: usize) -> Self {
        PauliString {
            paulis: vec![Pauli::I; n],
        }
    }

    /// Builds a string from a qubit-0-first Pauli list.
    pub fn new(paulis: Vec<Pauli>) -> Self {
        PauliString { paulis }
    }

    /// Builds a string from sparse `(qubit, pauli)` pairs over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if a qubit repeats or exceeds `n`.
    pub fn from_sparse(n: usize, ops: &[(usize, Pauli)]) -> Self {
        let mut paulis = vec![Pauli::I; n];
        for &(q, p) in ops {
            assert!(q < n, "qubit {q} out of range");
            assert!(paulis[q] == Pauli::I, "duplicate qubit {q}");
            paulis[q] = p;
        }
        PauliString { paulis }
    }

    /// Parses a big-endian label such as `"XXIZ"`.
    ///
    /// Returns `None` on any non-Pauli character.
    pub fn from_label(label: &str) -> Option<Self> {
        let mut paulis: Vec<Pauli> = label
            .chars()
            .map(Pauli::from_label)
            .collect::<Option<Vec<_>>>()?;
        paulis.reverse(); // label is MSB-first, storage is qubit-0-first
        Some(PauliString { paulis })
    }

    /// Register width.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.paulis.len()
    }

    /// Pauli on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[inline]
    pub fn pauli(&self, q: usize) -> Pauli {
        self.paulis[q]
    }

    /// Qubits with a non-identity Pauli, ascending.
    pub fn support(&self) -> Vec<usize> {
        self.paulis
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Pauli::I)
            .map(|(q, _)| q)
            .collect()
    }

    /// [`PauliString::support`] as a bit mask, bit `q` for qubit `q` —
    /// the Z-product mask a counts histogram reads the string off after
    /// basis rotation, without building the list.
    ///
    /// # Panics
    ///
    /// Panics if a non-identity factor sits on qubit 64 or above.
    pub fn support_mask(&self) -> u64 {
        self.paulis
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Pauli::I)
            .fold(0u64, |m, (q, _)| {
                m | 1u64.checked_shl(q as u32).expect("qubit below 64")
            })
    }

    /// Number of non-identity factors (the string's weight).
    pub fn weight(&self) -> usize {
        self.paulis.iter().filter(|p| **p != Pauli::I).count()
    }

    /// Returns `true` if the string is all-identity.
    pub fn is_identity(&self) -> bool {
        self.weight() == 0
    }

    /// Sparse `(qubit, pauli)` view of the non-identity factors.
    pub fn sparse_ops(&self) -> Vec<(usize, Pauli)> {
        self.paulis
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Pauli::I)
            .map(|(q, p)| (q, *p))
            .collect()
    }

    /// Qubit-wise commutation: `true` if on every qubit the factors
    /// commute. Strings that qubit-wise commute can share one measurement
    /// basis.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn commutes_qubitwise(&self, other: &PauliString) -> bool {
        assert_eq!(self.num_qubits(), other.num_qubits(), "width mismatch");
        self.paulis
            .iter()
            .zip(&other.paulis)
            .all(|(a, b)| a.commutes_with(*b))
    }

    /// Dense `2^n x 2^n` matrix (small registers only).
    ///
    /// # Panics
    ///
    /// Panics if `n > 12`.
    pub fn matrix(&self) -> CMatrix {
        assert!(
            self.num_qubits() <= 12,
            "dense Pauli matrix capped at 12 qubits"
        );
        let mut m = CMatrix::identity(1);
        for p in self.paulis.iter().rev() {
            m = m.kron(&p.matrix());
        }
        m
    }

    /// Expectation value on a pure state.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn expectation(&self, sv: &StateVector) -> f64 {
        assert_eq!(self.num_qubits(), sv.num_qubits(), "width mismatch");
        if self.is_identity() {
            return 1.0;
        }
        sv.expectation_pauli(&self.sparse_ops())
    }
}

impl fmt::Display for PauliString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in self.paulis.iter().rev() {
            write!(f, "{p}")?;
        }
        Ok(())
    }
}

/// One weighted term of a Hamiltonian.
#[derive(Clone, Debug, PartialEq)]
pub struct PauliTerm {
    /// Real coefficient (Hamiltonians are Hermitian).
    pub coefficient: f64,
    /// The Pauli string.
    pub string: PauliString,
}

impl fmt::Display for PauliTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.6} * {}", self.coefficient, self.string)
    }
}

/// A Hermitian operator expressed as a weighted sum of Pauli strings —
/// the `H` of Eq. 1 in the paper.
///
/// # Examples
///
/// ```
/// use qcircuit::pauli::Hamiltonian;
///
/// // H = 0.5 * ZZ - 1.0 * XI
/// let mut h = Hamiltonian::new(2);
/// h.add_label(0.5, "ZZ").unwrap();
/// h.add_label(-1.0, "XI").unwrap();
/// assert_eq!(h.num_terms(), 2);
/// let (e0, _) = h.ground_state();
/// assert!(e0 < 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Hamiltonian {
    n_qubits: usize,
    terms: Vec<PauliTerm>,
}

impl Hamiltonian {
    /// Creates an empty Hamiltonian over `n_qubits`.
    pub fn new(n_qubits: usize) -> Self {
        Hamiltonian {
            n_qubits,
            terms: Vec::new(),
        }
    }

    /// Adds a term. Duplicate strings are merged by summing coefficients.
    ///
    /// # Panics
    ///
    /// Panics if the string width disagrees with the Hamiltonian width.
    pub fn add_term(&mut self, coefficient: f64, string: PauliString) {
        assert_eq!(
            string.num_qubits(),
            self.n_qubits,
            "term width does not match Hamiltonian"
        );
        if let Some(t) = self.terms.iter_mut().find(|t| t.string == string) {
            t.coefficient += coefficient;
        } else {
            self.terms.push(PauliTerm {
                coefficient,
                string,
            });
        }
    }

    /// Adds a term from a big-endian label.
    ///
    /// # Errors
    ///
    /// Returns the offending label on parse failure or width mismatch.
    pub fn add_label<'a>(&mut self, coefficient: f64, label: &'a str) -> Result<(), &'a str> {
        let s = PauliString::from_label(label).ok_or(label)?;
        if s.num_qubits() != self.n_qubits {
            return Err(label);
        }
        self.add_term(coefficient, s);
        Ok(())
    }

    /// Register width.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of terms.
    #[inline]
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Borrows the terms.
    #[inline]
    pub fn terms(&self) -> &[PauliTerm] {
        &self.terms
    }

    /// Dense matrix representation (small registers only).
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > 12`.
    pub fn matrix(&self) -> CMatrix {
        let dim = 1usize << self.n_qubits;
        let mut m = CMatrix::zeros(dim, dim);
        for t in &self.terms {
            m = m + t.string.matrix().scale(C64::from_real(t.coefficient));
        }
        m
    }

    /// Exact smallest eigenvalue and ground state via dense
    /// diagonalization — the reference energy for every convergence figure.
    pub fn ground_state(&self) -> (f64, Vec<C64>) {
        linalg::ground_state(&self.matrix())
    }

    /// Exact largest eigenvalue (used to normalize error percentages).
    pub fn max_eigenvalue(&self) -> f64 {
        let eig = linalg::eigh(&self.matrix());
        *eig.values.last().expect("non-empty spectrum")
    }

    /// Expectation value on a pure state: `sum_i c_i <psi|P_i|psi>`.
    pub fn expectation(&self, sv: &StateVector) -> f64 {
        self.terms
            .iter()
            .map(|t| t.coefficient * t.string.expectation(sv))
            .sum()
    }
}

impl fmt::Display for Hamiltonian {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Hamiltonian[{} qubits, {} terms]",
            self.n_qubits,
            self.terms.len()
        )?;
        for t in &self.terms {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::gate::Gate;

    #[test]
    fn label_roundtrip_is_big_endian() {
        let p = PauliString::from_label("XYZ").unwrap();
        assert_eq!(p.pauli(2), Pauli::X);
        assert_eq!(p.pauli(1), Pauli::Y);
        assert_eq!(p.pauli(0), Pauli::Z);
        assert_eq!(p.to_string(), "XYZ");
        assert!(PauliString::from_label("XQ").is_none());
    }

    #[test]
    fn sparse_construction() {
        let p = PauliString::from_sparse(4, &[(0, Pauli::X), (3, Pauli::Z)]);
        assert_eq!(p.to_string(), "ZIIX");
        assert_eq!(p.support(), vec![0, 3]);
        assert_eq!(p.support_mask(), 0b1001);
        assert_eq!(PauliString::identity(3).support_mask(), 0);
        assert_eq!(p.weight(), 2);
    }

    #[test]
    fn qubitwise_commutation() {
        let a = PauliString::from_label("XIZ").unwrap();
        let b = PauliString::from_label("XZZ").unwrap();
        let c = PauliString::from_label("ZIZ").unwrap();
        assert!(a.commutes_qubitwise(&b));
        assert!(!a.commutes_qubitwise(&c)); // X vs Z on qubit 2
        assert!(b.commutes_qubitwise(&b));
    }

    #[test]
    fn matrix_of_zz() {
        let p = PauliString::from_label("ZZ").unwrap();
        let m = p.matrix();
        for (i, sign) in [(0usize, 1.0), (1, -1.0), (2, -1.0), (3, 1.0)] {
            assert!((m[(i, i)].re - sign).abs() < 1e-12);
        }
    }

    #[test]
    fn expectation_identity_is_one() {
        let sv = StateVector::new(3);
        assert_eq!(PauliString::identity(3).expectation(&sv), 1.0);
    }

    #[test]
    fn hamiltonian_merges_duplicate_terms() {
        let mut h = Hamiltonian::new(2);
        h.add_label(0.5, "ZZ").unwrap();
        h.add_label(0.25, "ZZ").unwrap();
        assert_eq!(h.num_terms(), 1);
        assert!((h.terms()[0].coefficient - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ground_state_of_zz() {
        let mut h = Hamiltonian::new(2);
        h.add_label(1.0, "ZZ").unwrap();
        let (e0, _) = h.ground_state();
        assert!((e0 + 1.0).abs() < 1e-9);
        assert!((h.max_eigenvalue() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn expectation_matches_dense() {
        let mut h = Hamiltonian::new(2);
        h.add_label(0.7, "XX").unwrap();
        h.add_label(-0.3, "ZI").unwrap();
        h.add_label(0.2, "YY").unwrap();
        let mut c = Circuit::new(2);
        c.push(Gate::H(0)).unwrap();
        c.push(Gate::Cx(0, 1)).unwrap();
        let sv = c.run_statevector(&[]).unwrap();
        let via_terms = h.expectation(&sv);
        let via_dense = qsim::linalg::expectation(&h.matrix(), sv.amplitudes());
        assert!((via_terms - via_dense).abs() < 1e-10);
        // Bell state: <XX> = 1, <YY> = -1, <ZI> = 0 -> 0.7 - 0.2 = 0.5.
        assert!((via_terms - 0.5).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "width does not match")]
    fn add_term_rejects_width_mismatch() {
        let mut h = Hamiltonian::new(2);
        h.add_term(1.0, PauliString::identity(3));
    }
}
