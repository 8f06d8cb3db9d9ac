//! Dense complex matrices.
//!
//! The transpiler, noise channels and the exact eigensolver all operate on
//! small dense matrices (2x2 gate blocks up to 2^n x 2^n Hamiltonians for
//! n <= ~10). `ndarray`/`nalgebra` are not available offline, so [`CMatrix`]
//! implements the required subset: multiplication, adjoints, Kronecker
//! products and the structural predicates (unitarity, Hermiticity) the test
//! suite leans on.

use crate::complex::C64;
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense, row-major complex matrix.
///
/// # Examples
///
/// ```
/// use qsim::matrix::CMatrix;
///
/// let x = CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0]);
/// assert!(x.is_unitary(1e-12));
/// assert!((x.clone() * x.clone()).approx_eq(&CMatrix::identity(2), 1e-12));
/// ```
#[derive(PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<C64>,
}

impl Clone for CMatrix {
    fn clone(&self) -> Self {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    /// Copies `source` into this matrix's storage, which is reused when
    /// it is large enough — so a table of matrices refilled with
    /// `Vec::clone_from` allocates nothing once warm.
    fn clone_from(&mut self, source: &Self) {
        self.assign(source.rows, source.cols, &source.data);
    }
}

impl CMatrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix {
            rows,
            cols,
            data: vec![C64::ZERO; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::ONE;
        }
        m
    }

    /// Creates a matrix from a row-major slice of complex entries.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_slice(rows: usize, cols: usize, data: &[C64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        CMatrix {
            rows,
            cols,
            data: data.to_vec(),
        }
    }

    /// Creates a matrix from a row-major slice of real entries.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_real(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        CMatrix {
            rows,
            cols,
            data: data.iter().map(|&x| C64::from_real(x)).collect(),
        }
    }

    /// Overwrites the matrix with the `rows x cols` row-major `data`,
    /// reusing its storage when it is large enough.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn assign(&mut self, rows: usize, cols: usize, data: &[C64]) {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {rows}x{cols}",
            data.len()
        );
        (self.rows, self.cols) = (rows, cols);
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Conjugate transpose (adjoint) `A^dagger`.
    pub fn dagger(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)].conj();
            }
        }
        out
    }

    /// Entry-wise complex conjugate.
    pub fn conj(&self) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|z| z.conj()).collect(),
        }
    }

    /// Transpose without conjugation.
    pub fn transpose(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Scales every entry by a complex factor.
    pub fn scale(&self, s: C64) -> CMatrix {
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&z| z * s).collect(),
        }
    }

    /// Matrix trace.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Kronecker (tensor) product `self (x) other`.
    ///
    /// With the convention used throughout this workspace, `kron(A, B)`
    /// places `A` on the *higher* qubit indices: a two-qubit operator acting
    /// as `A` on qubit 1 and `B` on qubit 0 is `A.kron(&B)`.
    pub fn kron(&self, other: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * other.rows, self.cols * other.cols);
        for ar in 0..self.rows {
            for ac in 0..self.cols {
                let a = self[(ar, ac)];
                for br in 0..other.rows {
                    for bc in 0..other.cols {
                        out[(ar * other.rows + br, ac * other.cols + bc)] = a * other[(br, bc)];
                    }
                }
            }
        }
        out
    }

    /// Matrix-vector product `A v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[C64]) -> Vec<C64> {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        let mut out = vec![C64::ZERO; self.rows];
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = C64::ZERO;
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            for (a, x) in row.iter().zip(v) {
                acc += *a * *x;
            }
            *slot = acc;
        }
        out
    }

    /// Frobenius norm `sqrt(sum |a_ij|^2)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Returns `true` if every entry is within `eps` of `other`'s.
    pub fn approx_eq(&self, other: &CMatrix, eps: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, eps))
    }

    /// Returns `true` if `self = e^{i phi} other` for some global phase
    /// `phi`, within tolerance `eps`.
    ///
    /// Quantum gates are physically equivalent up to global phase; the
    /// transpiler's basis-rewrite tests use this predicate.
    pub fn approx_eq_up_to_phase(&self, other: &CMatrix, eps: f64) -> bool {
        if self.rows != other.rows || self.cols != other.cols {
            return false;
        }
        // Find the entry of `other` with the largest modulus to fix the phase.
        let (k, pivot) = match other
            .data
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.norm_sqr().total_cmp(&b.1.norm_sqr()))
        {
            Some((k, z)) if z.norm_sqr() > eps * eps => (k, *z),
            _ => return self.approx_eq(other, eps),
        };
        let phase = self.data[k] / pivot;
        if (phase.abs() - 1.0).abs() > eps.max(1e-9) {
            return false;
        }
        self.approx_eq(&other.scale(phase), eps)
    }

    /// Returns `true` if `A^dagger A = I` within `eps` (Frobenius, per entry).
    pub fn is_unitary(&self, eps: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        (self.dagger() * self.clone()).approx_eq(&CMatrix::identity(self.rows), eps)
    }

    /// Returns `true` if `A = A^dagger` within `eps`.
    pub fn is_hermitian(&self, eps: f64) -> bool {
        self.is_square() && self.approx_eq(&self.dagger(), eps)
    }

    /// Raises a square matrix to a non-negative integer power.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn pow(&self, mut e: u32) -> CMatrix {
        assert!(self.is_square(), "pow of non-square matrix");
        let mut base = self.clone();
        let mut acc = CMatrix::identity(self.rows);
        while e > 0 {
            if e & 1 == 1 {
                acc = acc * base.clone();
            }
            base = base.clone() * base;
            e >>= 1;
        }
        acc
    }
}

impl Index<(usize, usize)> for CMatrix {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        &mut self.data[r * self.cols + c]
    }
}

impl Add for CMatrix {
    type Output = CMatrix;
    fn add(self, rhs: CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in add"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a + *b)
                .collect(),
        }
    }
}

impl Sub for CMatrix {
    type Output = CMatrix;
    fn sub(self, rhs: CMatrix) -> CMatrix {
        assert_eq!(
            (self.rows, self.cols),
            (rhs.rows, rhs.cols),
            "shape mismatch in sub"
        );
        CMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| *a - *b)
                .collect(),
        }
    }
}

impl Mul<&CMatrix> for &CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch in mul");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == C64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        out
    }
}

impl Mul for CMatrix {
    type Output = CMatrix;
    fn mul(self, rhs: CMatrix) -> CMatrix {
        &self * &rhs
    }
}

impl fmt::Debug for CMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMatrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pauli_x() -> CMatrix {
        CMatrix::from_real(2, 2, &[0.0, 1.0, 1.0, 0.0])
    }

    fn pauli_y() -> CMatrix {
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

    #[test]
    fn identity_is_multiplicative_unit() {
        let a = pauli_y();
        let i = CMatrix::identity(2);
        assert!((i.clone() * a.clone()).approx_eq(&a, 0.0));
        assert!((a.clone() * i).approx_eq(&a, 0.0));
    }

    #[test]
    fn pauli_algebra() {
        let x = pauli_x();
        let y = pauli_y();
        // XY = iZ
        let z = CMatrix::from_real(2, 2, &[1.0, 0.0, 0.0, -1.0]);
        assert!((x.clone() * y.clone()).approx_eq(&z.scale(C64::I), 1e-12));
        // X^2 = I
        assert!(x.pow(2).approx_eq(&CMatrix::identity(2), 1e-12));
        assert!(x.is_unitary(1e-12));
        assert!(x.is_hermitian(1e-12));
        assert!(y.is_hermitian(1e-12));
    }

    #[test]
    fn kron_shape_and_values() {
        let x = pauli_x();
        let i = CMatrix::identity(2);
        let xi = x.kron(&i);
        assert_eq!(xi.rows(), 4);
        // X on qubit 1: |00> -> |10>, i.e. column 0 maps to row 2.
        assert!(xi[(2, 0)].approx_eq(C64::ONE, 0.0));
        assert!(xi[(0, 0)].approx_eq(C64::ZERO, 0.0));
    }

    #[test]
    fn dagger_reverses_products() {
        let x = pauli_x();
        let y = pauli_y();
        let lhs = (x.clone() * y.clone()).dagger();
        let rhs = y.dagger() * x.dagger();
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn trace_of_pauli_is_zero() {
        assert!(pauli_x().trace().approx_eq(C64::ZERO, 0.0));
        assert!(CMatrix::identity(4)
            .trace()
            .approx_eq(C64::from_real(4.0), 0.0));
    }

    #[test]
    fn mul_vec_matches_matrix_mul() {
        let y = pauli_y();
        let v = vec![C64::new(1.0, 2.0), C64::new(-0.5, 0.25)];
        let got = y.mul_vec(&v);
        assert!(got[0].approx_eq(C64::new(0.0, -1.0) * v[1], 1e-12));
        assert!(got[1].approx_eq(C64::new(0.0, 1.0) * v[0], 1e-12));
    }

    #[test]
    fn phase_equivalence() {
        let x = pauli_x();
        let phased = x.scale(C64::cis(0.4));
        assert!(phased.approx_eq_up_to_phase(&x, 1e-12));
        assert!(!phased.approx_eq(&x, 1e-12));
        assert!(!pauli_y().approx_eq_up_to_phase(&x, 1e-9));
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((CMatrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mul_shape_mismatch_panics() {
        let _ = CMatrix::zeros(2, 3) * CMatrix::zeros(2, 3);
    }
}
