//! The pre-optimization density kernels: the full-matrix oracle.
//!
//! These are the implementations `qsim::density` shipped before the
//! engine layer landed: column-major iteration over the whole matrix, a
//! heap-allocated gather per two-qubit position, two passes per
//! unitary, and a full state clone per Kraus operator. Each reads the
//! state as the full Hermitian [`CMatrix`] of
//! [`DensityMatrix::matrix`] — the lower half mirrored from the live
//! upper one, whatever the live-half kernels left below the diagonal —
//! works on it, and stores the result back through
//! [`DensityMatrix::from_matrix`], whose upper half is then a valid live
//! half. [`apply_channel`] is the literal Kraus sum — the oracle the
//! lowered-superoperator sweep is tested against: equal to 1e-12 (the
//! sum is re-associated, so the states differ at the 1e-16 level), with
//! equal sampled counts on every pinned fixture.

use qsim::{CMatrix, DensityMatrix, KrausChannel, C64};

/// Runs `kernel` on the full Hermitian matrix of `rho` (row-major,
/// side `dim`) and stores the result back as the state.
fn on_full_matrix(rho: &mut DensityMatrix, kernel: impl FnOnce(&mut [C64], usize)) {
    let mut m = rho.matrix();
    let dim = m.rows();
    kernel(m.as_mut_slice(), dim);
    *rho = DensityMatrix::from_matrix(&m);
}

/// Pre-optimization [`DensityMatrix::apply_unitary_1q`].
///
/// # Panics
///
/// Same conditions as [`DensityMatrix::apply_unitary_1q`].
pub fn apply_unitary_1q(rho: &mut DensityMatrix, u: &CMatrix, q: usize) {
    assert!(q < rho.num_qubits(), "qubit {q} out of range");
    assert_eq!((u.rows(), u.cols()), (2, 2), "1q gate must be 2x2");
    on_full_matrix(rho, |mat, dim| unitary_1q(mat, dim, u, q));
}

fn unitary_1q(mat: &mut [C64], dim: usize, u: &CMatrix, q: usize) {
    let bit = 1usize << q;
    let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
    // Left multiply: rows mix in pairs for every column.
    for c in 0..dim {
        for r in 0..dim {
            if r & bit == 0 {
                let r1 = r | bit;
                let a0 = mat[r * dim + c];
                let a1 = mat[r1 * dim + c];
                mat[r * dim + c] = u00 * a0 + u01 * a1;
                mat[r1 * dim + c] = u10 * a0 + u11 * a1;
            }
        }
    }
    // Right multiply by U^dag: columns mix with conjugated coefficients.
    let (d00, d01, d10, d11) = (u00.conj(), u10.conj(), u01.conj(), u11.conj());
    for r in 0..dim {
        let row = r * dim;
        for c in 0..dim {
            if c & bit == 0 {
                let c1 = c | bit;
                let a0 = mat[row + c];
                let a1 = mat[row + c1];
                mat[row + c] = a0 * d00 + a1 * d10;
                mat[row + c1] = a0 * d01 + a1 * d11;
            }
        }
    }
}

/// Pre-optimization [`DensityMatrix::apply_unitary_2q`].
///
/// # Panics
///
/// Same conditions as [`DensityMatrix::apply_unitary_2q`].
pub fn apply_unitary_2q(rho: &mut DensityMatrix, u: &CMatrix, q0: usize, q1: usize) {
    assert!(q0 != q1, "2q gate operands must differ");
    let n = rho.num_qubits();
    assert!(q0 < n && q1 < n, "qubit out of range");
    assert_eq!((u.rows(), u.cols()), (4, 4), "2q gate must be 4x4");
    on_full_matrix(rho, |mat, dim| unitary_2q(mat, dim, u, q0, q1));
}

fn unitary_2q(mat: &mut [C64], dim: usize, u: &CMatrix, q0: usize, q1: usize) {
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    // Left multiply U.
    for c in 0..dim {
        for r in 0..dim {
            if r & b0 == 0 && r & b1 == 0 {
                let idx = [r, r | b0, r | b1, r | b0 | b1];
                let a: Vec<C64> = idx.iter().map(|&i| mat[i * dim + c]).collect();
                for (row_i, &i) in idx.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (col_j, &amp) in a.iter().enumerate() {
                        acc += u[(row_i, col_j)] * amp;
                    }
                    mat[i * dim + c] = acc;
                }
            }
        }
    }
    // Right multiply U^dag.
    for r in 0..dim {
        let row = r * dim;
        for c in 0..dim {
            if c & b0 == 0 && c & b1 == 0 {
                let idx = [c, c | b0, c | b1, c | b0 | b1];
                let a: Vec<C64> = idx.iter().map(|&j| mat[row + j]).collect();
                for (col_j, &j) in idx.iter().enumerate() {
                    let mut acc = C64::ZERO;
                    for (row_i, &amp) in a.iter().enumerate() {
                        // (rho U^dag)_{r j} = sum_i rho_{r i} conj(U_{j i})
                        acc += amp * u[(col_j, row_i)].conj();
                    }
                    mat[row + j] = acc;
                }
            }
        }
    }
}

/// Pre-optimization [`DensityMatrix::apply_channel`]: one full state
/// clone up front plus one per Kraus operator.
///
/// # Panics
///
/// Same conditions as [`DensityMatrix::apply_channel`].
pub fn apply_channel(rho: &mut DensityMatrix, channel: &KrausChannel, qubits: &[usize]) {
    assert_eq!(
        qubits.len(),
        channel.num_qubits(),
        "channel arity does not match qubit list"
    );
    for &q in qubits {
        assert!(q < rho.num_qubits(), "qubit {q} out of range");
    }
    if let [q0, q1] = qubits {
        assert!(q0 != q1, "2q gate operands must differ");
    }
    on_full_matrix(rho, |mat, dim| {
        let original = mat.to_vec();
        for z in mat.iter_mut() {
            *z = C64::ZERO;
        }
        for k in channel.operators() {
            let mut term = original.clone();
            match qubits {
                [q] => unitary_1q(&mut term, dim, k, *q),
                [q0, q1] => unitary_2q(&mut term, dim, k, *q0, *q1),
                _ => panic!("only 1- and 2-qubit channels are supported"),
            }
            for (dst, src) in mat.iter_mut().zip(&term) {
                *dst += *src;
            }
        }
    });
}
