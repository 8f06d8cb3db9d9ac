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

use qsim::{CMatrix, DensityMatrix, KrausChannel, Superop, C64};

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

/// The dense product a fused run's superoperator was computed as
/// before plans carried a product schedule: start from the identity
/// and, member after member, rewrite every row of the `D x D` product
/// (`D` = 4 over one qubit, 16 over two) as the member's sparse row
/// times the whole previous product — all `D` columns, structural zeros
/// included — in `f64` while every member is real. `members` are the
/// run's superoperators in application order, each with its operands
/// inside `support` (the run's qubits in operand order). Returns the
/// product's nonzero entries `(row, column, value)` row by row, in
/// column order, and whether any of them has an imaginary part.
///
/// # Panics
///
/// Panics on a support of more than two qubits or a member whose
/// operands are not in `support`.
pub fn dense_product(
    members: &[(Superop<'_>, &[usize])],
    support: &[usize],
) -> (Vec<(usize, usize, C64)>, bool) {
    let real = members.iter().all(|(s, _)| s.is_real());
    let dense = match (support.len(), real) {
        (1, true) => nonzeros(&product::<f64, 4>(members, support)),
        (1, false) => nonzeros(&product::<C64, 4>(members, support)),
        (2, true) => nonzeros(&product::<f64, 16>(members, support)),
        (2, false) => nonzeros(&product::<C64, 16>(members, support)),
        _ => panic!("a fused run acts on one or two qubits"),
    };
    let complex = dense.iter().any(|&(.., z)| z.im != 0.0);
    (dense, complex)
}

/// What [`dense_product`] accumulates in.
trait Scalar: Copy + std::ops::Add<Output = Self> + std::ops::Mul<Output = Self> {
    const ZERO: Self;
    const ONE: Self;
    fn of(z: C64) -> Self;
    fn widen(self) -> C64;
}

impl Scalar for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    fn of(z: C64) -> f64 {
        z.re
    }
    fn widen(self) -> C64 {
        C64::new(self, 0.0)
    }
}

impl Scalar for C64 {
    const ZERO: C64 = C64::ZERO;
    const ONE: C64 = C64::ONE;
    fn of(z: C64) -> C64 {
        z
    }
    fn widen(self) -> C64 {
        self
    }
}

fn product<S: Scalar, const D: usize>(
    members: &[(Superop<'_>, &[usize])],
    support: &[usize],
) -> [[S; D]; D] {
    let mut acc = [[S::ZERO; D]; D];
    for (e, row) in acc.iter_mut().enumerate() {
        row[e] = S::ONE;
    }
    for (s, operands) in members {
        let (map, offsets) = embedding(support, operands);
        let mut rows = vec![Vec::new(); 1 << (2 * s.num_qubits())];
        for (r, c, z) in s.entries() {
            rows[r].push((c, z));
        }
        let mut next = [[S::ZERO; D]; D];
        for (r_m, row) in rows.iter().enumerate() {
            for &off in offsets {
                let r = map[r_m] + off;
                for &(c_m, z) in row {
                    let (v, c) = (S::of(z), map[c_m] + off);
                    for (o, &a) in next[r].iter_mut().zip(&acc[c]) {
                        *o = *o + v * a;
                    }
                }
            }
        }
        acc = next;
    }
    acc
}

/// Where a member on `operands` embeds in a run over `support`: member
/// index `e` lands on `map[e] + off` for every `off` (block index
/// `i * d + j`, the first operand least significant).
fn embedding(support: &[usize], operands: &[usize]) -> ([usize; 16], &'static [usize]) {
    let swap = |i: usize| (i & 1) << 1 | i >> 1;
    let same = std::array::from_fn(|e| e);
    match (support, operands) {
        (_, _) if support == operands => (same, &[0]),
        (&[s0, s1], &[q0, q1]) if (q0, q1) == (s1, s0) => (
            std::array::from_fn(|e| swap(e >> 2) * 4 + swap(e & 3)),
            &[0],
        ),
        (&[s0, _], &[q]) if q == s0 => (
            std::array::from_fn(|e| 4 * (e >> 1 & 1) + (e & 1)),
            &[0, 2, 8, 10],
        ),
        (&[_, s1], &[q]) if q == s1 => (
            std::array::from_fn(|e| 8 * (e >> 1 & 1) + 2 * (e & 1)),
            &[0, 1, 4, 5],
        ),
        _ => panic!("operands {operands:?} are not in the run's support {support:?}"),
    }
}

/// The nonzero entries of a dense product, row by row.
fn nonzeros<S: Scalar, const D: usize>(product: &[[S; D]; D]) -> Vec<(usize, usize, C64)> {
    let entries = product
        .iter()
        .enumerate()
        .flat_map(|(r, row)| row.iter().enumerate().map(move |(c, &z)| (r, c, z.widen())));
    entries.filter(|&(.., z)| z != C64::ZERO).collect()
}
