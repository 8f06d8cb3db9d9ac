//! Density-matrix simulation with noise channels.
//!
//! The simulated QPU backends (crate `qdevice`) execute transpiled circuits
//! on a [`DensityMatrix`], interleaving gate unitaries with the Kraus
//! channels derived from calibration data. For the paper's 4-7 qubit
//! workloads an exact density-matrix treatment is cheap (`4^n` entries) and
//! — unlike per-shot Monte Carlo — deterministic given a seed only at the
//! sampling step.

use crate::complex::C64;
use crate::gates::Pauli;
use crate::matrix::CMatrix;
use crate::noise::{KrausChannel, Superop, SuperopTable};
use crate::statevector::StateVector;
use rand::Rng;

/// Raw row-major storage for the passes the borrow checker cannot
/// express: the pair and quad passes hold two or four disjoint rows of
/// one matrix at once, and the block sweep reads entries at offsets it
/// has already bounded.
struct RowPtr(*mut C64);

impl RowPtr {
    /// Mutable view of row `r`.
    ///
    /// # Safety
    ///
    /// Row `r` must be in bounds and not otherwise borrowed.
    #[inline(always)]
    unsafe fn row<'a>(&self, r: usize, dim: usize) -> &'a mut [C64] {
        std::slice::from_raw_parts_mut(self.0.add(r * dim), dim)
    }

    /// Mutable element at flat index `i`.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds and its row not otherwise borrowed.
    #[inline(always)]
    unsafe fn at<'a>(&self, i: usize) -> &'a mut C64 {
        &mut *self.0.add(i)
    }
}

/// Rows of a small operator when every row has at most one nonzero
/// entry: `rows[r] = Some((col, value))` or `None` for an all-zero row.
///
/// Every noise operator this workspace produces fits this shape —
/// scaled Paulis (depolarizing), damping products (thermal relaxation),
/// diagonal phases, CX/CZ/SWAP — and it admits an exact fast path: the
/// dense row product `sum_j u[r][j] * a[j]` collapses to a single
/// multiply. The skipped terms are all exact `0 * a[j]` products, so
/// the only representable difference versus the dense kernel is the
/// sign of exact zeros, which can never change a measurement
/// probability or a sampled count.
fn sparse_rows<const N: usize>(u: &CMatrix) -> Option<[Option<(usize, C64)>; N]> {
    let mut rows = [None; N];
    for (r, row) in rows.iter_mut().enumerate() {
        for c in 0..N {
            let z = u[(r, c)];
            if z != C64::ZERO {
                if row.is_some() {
                    return None;
                }
                *row = Some((c, z));
            }
        }
    }
    Some(rows)
}

/// Expands a base-row index `k` (enumeration of rows with bit `q`
/// clear) back to the row number: inserts a zero bit at position `q`.
/// Enumeration order is ascending, matching the serial `0..dim` filter.
#[inline(always)]
fn insert_bit(k: usize, q: usize) -> usize {
    ((k >> q) << (q + 1)) | (k & ((1usize << q) - 1))
}

/// Applies `rho -> U rho U^dag` for a 2x2 operator on qubit `q`, over
/// raw row-major storage: a left pass over base-row pairs, then a right
/// pass over single rows.
fn kernel_1q(mat: &mut [C64], dim: usize, u: &CMatrix, q: usize) {
    if u[(0, 1)] == C64::ZERO && u[(1, 0)] == C64::ZERO {
        return kernel_1q_diag(mat, dim, [u[(0, 0)], u[(1, 1)]], q);
    }
    if let Some(rows) = sparse_rows::<2>(u) {
        return kernel_1q_sparse(mat, dim, &rows, q);
    }
    let bit = 1usize << q;
    let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
    let p = RowPtr(mat.as_mut_ptr());
    // Left multiply: rows mix in pairs. Row-major storage, so walk row
    // pairs with contiguous inner slices (no per-element bounds checks).
    for k in 0..dim / 2 {
        let r = insert_bit(k, q);
        // SAFETY: distinct base rows yield disjoint (r, r|bit) pairs.
        let row0 = unsafe { p.row(r, dim) };
        let row1 = unsafe { p.row(r | bit, dim) };
        for (x0, x1) in row0.iter_mut().zip(row1.iter_mut()) {
            let a0 = *x0;
            let a1 = *x1;
            *x0 = u00 * a0 + u01 * a1;
            *x1 = u10 * a0 + u11 * a1;
        }
    }
    // Right multiply by U^dag: columns mix with conjugated coefficients.
    let (d00, d01, d10, d11) = (u00.conj(), u10.conj(), u01.conj(), u11.conj());
    for row in mat.chunks_exact_mut(dim) {
        for c in 0..dim {
            if c & bit == 0 {
                let c1 = c | bit;
                let a0 = row[c];
                let a1 = row[c1];
                row[c] = a0 * d00 + a1 * d10;
                row[c1] = a0 * d01 + a1 * d11;
            }
        }
    }
}

/// Diagonal-operator path for [`kernel_1q`] (every parameterized op left
/// on a transpiled tape is an RZ): `U rho U^dag` multiplies entry
/// `(r, c)` by `d[r_q] * conj(d[c_q])`, so one pass over the `lo`/`hi`
/// column runs of each row replaces the left and right passes — the
/// two-pass product `(d_r x) conj(d_c)` re-associated, equal to rounding
/// (~1e-16).
///
/// When both entries have unit modulus (every phase gate) the factor on
/// the half of the state with `r_q == c_q` is exactly 1 and that half —
/// the whole diagonal with it — is not touched at all.
fn kernel_1q_diag(mat: &mut [C64], dim: usize, d: [C64; 2], q: usize) {
    let bit = 1usize << q;
    let unit = d
        .iter()
        .all(|z| (z.norm_sqr() - 1.0).abs() <= 4.0 * f64::EPSILON);
    for (r, row) in mat.chunks_exact_mut(dim).enumerate() {
        let rq = usize::from(r & bit != 0);
        let f = [d[rq] * d[0].conj(), d[rq] * d[1].conj()];
        for run in row.chunks_exact_mut(2 * bit) {
            let (lo, hi) = run.split_at_mut(bit);
            for (cq, half) in [lo, hi].into_iter().enumerate() {
                if !(unit && cq == rq) {
                    half.iter_mut().for_each(|x| *x *= f[cq]);
                }
            }
        }
    }
}

/// Sparse-operator fast path for [`kernel_1q`]: one multiply per
/// element per pass instead of a full 2x2 product.
fn kernel_1q_sparse(mat: &mut [C64], dim: usize, rows: &[Option<(usize, C64)>; 2], q: usize) {
    let bit = 1usize << q;
    let p = RowPtr(mat.as_mut_ptr());
    // Left multiply: new[r] = u[r][c_r] * a[c_r].
    for k in 0..dim / 2 {
        let r = insert_bit(k, q);
        // SAFETY: distinct base rows yield disjoint (r, r|bit) pairs.
        let row0 = unsafe { p.row(r, dim) };
        let row1 = unsafe { p.row(r | bit, dim) };
        for (x0, x1) in row0.iter_mut().zip(row1.iter_mut()) {
            let a = [*x0, *x1];
            *x0 = rows[0].map_or(C64::ZERO, |(c, v)| v * a[c]);
            *x1 = rows[1].map_or(C64::ZERO, |(c, v)| v * a[c]);
        }
    }
    // Right multiply by U^dag: new[j] = a[c_j] * conj(u[j][c_j]).
    let d = [
        rows[0].map(|(c, v)| (c, v.conj())),
        rows[1].map(|(c, v)| (c, v.conj())),
    ];
    for row in mat.chunks_exact_mut(dim) {
        for c in 0..dim {
            if c & bit == 0 {
                let c1 = c | bit;
                let a = [row[c], row[c1]];
                row[c] = d[0].map_or(C64::ZERO, |(i, v)| a[i] * v);
                row[c1] = d[1].map_or(C64::ZERO, |(i, v)| a[i] * v);
            }
        }
    }
}

/// Applies `rho -> U rho U^dag` for a 4x4 operator on the pair
/// `(q0, q1)` over raw storage (see [`kernel_1q`]). The 4x4 matrix is
/// hoisted into locals once so the inner loops run on registers.
fn kernel_2q(mat: &mut [C64], dim: usize, u: &CMatrix, q0: usize, q1: usize) {
    if let Some(rows) = sparse_rows::<4>(u) {
        return kernel_2q_sparse(mat, dim, &rows, q0, q1);
    }
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    let (qa, qb) = if q0 < q1 { (q0, q1) } else { (q1, q0) };
    let mut m = [[C64::ZERO; 4]; 4];
    for (r, row) in m.iter_mut().enumerate() {
        for (c, entry) in row.iter_mut().enumerate() {
            *entry = u[(r, c)];
        }
    }
    let p = RowPtr(mat.as_mut_ptr());
    // Left multiply U.
    for k in 0..dim / 4 {
        let r = insert_bit(insert_bit(k, qa), qb);
        let idx = [r, r | b0, r | b1, r | b0 | b1];
        for c in 0..dim {
            // SAFETY: distinct base rows yield disjoint row quads.
            let a = unsafe {
                [
                    *p.at(idx[0] * dim + c),
                    *p.at(idx[1] * dim + c),
                    *p.at(idx[2] * dim + c),
                    *p.at(idx[3] * dim + c),
                ]
            };
            for (row_i, &i) in idx.iter().enumerate() {
                let mi = &m[row_i];
                // SAFETY: as above.
                unsafe {
                    *p.at(i * dim + c) = mi[0] * a[0] + mi[1] * a[1] + mi[2] * a[2] + mi[3] * a[3];
                }
            }
        }
    }
    // Right multiply U^dag: (rho U^dag)_{r j} = sum_i rho_{r i} conj(U_{j i}).
    let mut md = [[C64::ZERO; 4]; 4];
    for (j, row) in md.iter_mut().enumerate() {
        for (i, entry) in row.iter_mut().enumerate() {
            *entry = m[j][i].conj();
        }
    }
    for row in mat.chunks_exact_mut(dim) {
        for c in 0..dim {
            if c & b0 == 0 && c & b1 == 0 {
                let idx = [c, c | b0, c | b1, c | b0 | b1];
                let a = [row[idx[0]], row[idx[1]], row[idx[2]], row[idx[3]]];
                for (col_j, &j) in idx.iter().enumerate() {
                    let dj = &md[col_j];
                    row[j] = a[0] * dj[0] + a[1] * dj[1] + a[2] * dj[2] + a[3] * dj[3];
                }
            }
        }
    }
}

/// Sparse-operator fast path for [`kernel_2q`] (see [`sparse_rows`]).
fn kernel_2q_sparse(
    mat: &mut [C64],
    dim: usize,
    rows: &[Option<(usize, C64)>; 4],
    q0: usize,
    q1: usize,
) {
    let b0 = 1usize << q0;
    let b1 = 1usize << q1;
    let (qa, qb) = if q0 < q1 { (q0, q1) } else { (q1, q0) };
    let p = RowPtr(mat.as_mut_ptr());
    // Left multiply: new[r] = u[r][c_r] * a[c_r].
    for k in 0..dim / 4 {
        let r = insert_bit(insert_bit(k, qa), qb);
        let idx = [r, r | b0, r | b1, r | b0 | b1];
        for c in 0..dim {
            // SAFETY: distinct base rows yield disjoint row quads.
            let a = unsafe {
                [
                    *p.at(idx[0] * dim + c),
                    *p.at(idx[1] * dim + c),
                    *p.at(idx[2] * dim + c),
                    *p.at(idx[3] * dim + c),
                ]
            };
            for (row_i, &i) in idx.iter().enumerate() {
                // SAFETY: as above.
                unsafe {
                    *p.at(i * dim + c) = rows[row_i].map_or(C64::ZERO, |(j, v)| v * a[j]);
                }
            }
        }
    }
    // Right multiply by U^dag: new[j] = a[c_j] * conj(u[j][c_j]).
    let d = [
        rows[0].map(|(c, v)| (c, v.conj())),
        rows[1].map(|(c, v)| (c, v.conj())),
        rows[2].map(|(c, v)| (c, v.conj())),
        rows[3].map(|(c, v)| (c, v.conj())),
    ];
    for row in mat.chunks_exact_mut(dim) {
        for c in 0..dim {
            if c & b0 == 0 && c & b1 == 0 {
                let idx = [c, c | b0, c | b1, c | b0 | b1];
                let a = [row[idx[0]], row[idx[1]], row[idx[2]], row[idx[3]]];
                for (col_j, &j) in idx.iter().enumerate() {
                    row[j] = d[col_j].map_or(C64::ZERO, |(i, v)| a[i] * v);
                }
            }
        }
    }
}

/// Applies a lowered one-qubit channel in place: one sweep over the
/// `2x2` blocks of `rho` on qubit `q`, each overwritten with `m * block`
/// (`m` is the superoperator expanded dense, block entry `(i, j)` at
/// index `i * 2 + j` — see [`crate::noise::SuperopTable`]).
///
/// A stream kernel: each row pair `(r, r | bit)` is walked as column
/// runs of `2 * bit` split at `bit`, so the four entries of a block come
/// from four zipped contiguous slices and the inner loop is sixteen
/// multiply-adds with no index arithmetic. A fused gate cluster has all
/// sixteen entries; for bare relaxation (5 of 16) the exact `0 * x`
/// terms a sparse row would skip still cost less than skipping them,
/// and can only change the sign of exact zeros.
///
/// Walks base-row pairs exactly like the left pass of [`kernel_1q`].
fn kernel_superop_1q<C>(mat: &mut [C64], dim: usize, m: [[C; 4]; 4], q: usize)
where
    C: Copy + std::ops::Mul<C64, Output = C64>,
{
    let bit = 1usize << q;
    let p = RowPtr(mat.as_mut_ptr());
    for k in 0..dim / 2 {
        let r = insert_bit(k, q);
        // SAFETY: distinct base rows yield disjoint (r, r|bit) pairs.
        let row0 = unsafe { p.row(r, dim) };
        let row1 = unsafe { p.row(r | bit, dim) };
        let runs = row0
            .chunks_exact_mut(2 * bit)
            .zip(row1.chunks_exact_mut(2 * bit));
        for (run0, run1) in runs {
            let (lo0, hi0) = run0.split_at_mut(bit);
            let (lo1, hi1) = run1.split_at_mut(bit);
            for (((x0, x1), x2), x3) in lo0.iter_mut().zip(hi0).zip(lo1).zip(hi1) {
                let a = [*x0, *x1, *x2, *x3];
                let out =
                    |e: usize| m[e][0] * a[0] + m[e][1] * a[1] + m[e][2] * a[2] + m[e][3] * a[3];
                (*x0, *x1, *x2, *x3) = (out(0), out(1), out(2), out(3));
            }
        }
    }
}

/// Applies a lowered two-qubit channel in place: one sweep over the
/// `4x4` blocks of `rho` on the operand qubits, each block read whole
/// and overwritten with `S * block` (see
/// [`crate::noise::SuperopTable`]). `off[i]` is the index offset of
/// local basis state `i`; `sorted` lists the operand qubits ascending.
/// Walks row groups exactly like the left pass of [`kernel_2q`].
fn kernel_superop(
    mat: &mut [C64],
    dim: usize,
    s: Superop<'_>,
    off: [usize; 4],
    sorted: [usize; 2],
) {
    let base = |k: usize| insert_bit(insert_bit(k, sorted[0]), sorted[1]);
    // Flat offset of block entry `e = i * 4 + j` from the block origin.
    let at: [usize; 16] = std::array::from_fn(|e| off[e / 4] * dim + off[e % 4]);
    let rows = s.rows();
    let p = RowPtr(mat.as_mut_ptr());
    let mut block = [C64::ZERO; 16];
    for r in (0..dim / 4).map(base) {
        for c in (0..dim / 4).map(base) {
            let origin = r * dim + c;
            for e in 0..16 {
                // SAFETY: `r` and `c` have the operand bits clear and
                // `off` sets only those (all below `dim`: the caller
                // checked the qubits), so the index is in bounds.
                block[e] = unsafe { *p.at(origin + at[e]) };
            }
            for e in 0..16 {
                // Columns are below 16 by construction; the mask
                // only tells the compiler so.
                let (cols, re, im) = rows[e];
                let mut acc = C64::ZERO;
                if im.is_empty() {
                    for (&col, &v) in cols.iter().zip(re) {
                        acc += block[col as usize & 15] * v;
                    }
                } else {
                    for ((&col, &vr), &vi) in cols.iter().zip(re).zip(im) {
                        acc += C64::new(vr, vi) * block[col as usize & 15];
                    }
                }
                // SAFETY: as above.
                unsafe { *p.at(origin + at[e]) = acc };
            }
        }
    }
}

/// The pre-optimization density kernels, preserved verbatim.
///
/// These are the implementations this module shipped before the engine
/// layer landed: column-major iteration, a heap-allocated gather per
/// two-qubit position, and a full state clone per Kraus operator. The
/// unitary kernels compute the exact same floating-point results as the
/// current dense and sparse ones (element-wise the arithmetic is
/// unchanged; only iteration order and allocation differ); the one-pass
/// diagonal kernel re-associates and equals them to ~1e-16.
/// [`baseline::apply_channel`] is the literal Kraus sum — the oracle the
/// lowered-superoperator sweep is tested against: equal to 1e-12 (the
/// sum is re-associated, so the states differ at the 1e-16 level), with
/// equal sampled counts on every pinned fixture. Never use these on a
/// hot path.
pub mod baseline {
    use super::*;

    /// Pre-optimization [`DensityMatrix::apply_unitary_1q`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`DensityMatrix::apply_unitary_1q`].
    pub fn apply_unitary_1q(rho: &mut DensityMatrix, u: &CMatrix, q: usize) {
        assert!(q < rho.n, "qubit {q} out of range");
        assert_eq!((u.rows(), u.cols()), (2, 2), "1q gate must be 2x2");
        let dim = rho.dim();
        let bit = 1usize << q;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        // Left multiply: rows mix in pairs for every column.
        for c in 0..dim {
            for r in 0..dim {
                if r & bit == 0 {
                    let r1 = r | bit;
                    let a0 = rho.mat[r * dim + c];
                    let a1 = rho.mat[r1 * dim + c];
                    rho.mat[r * dim + c] = u00 * a0 + u01 * a1;
                    rho.mat[r1 * dim + c] = u10 * a0 + u11 * a1;
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
                    let a0 = rho.mat[row + c];
                    let a1 = rho.mat[row + c1];
                    rho.mat[row + c] = a0 * d00 + a1 * d10;
                    rho.mat[row + c1] = a0 * d01 + a1 * d11;
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
        assert!(q0 < rho.n && q1 < rho.n, "qubit out of range");
        assert_eq!((u.rows(), u.cols()), (4, 4), "2q gate must be 4x4");
        let dim = rho.dim();
        let b0 = 1usize << q0;
        let b1 = 1usize << q1;
        // Left multiply U.
        for c in 0..dim {
            for r in 0..dim {
                if r & b0 == 0 && r & b1 == 0 {
                    let idx = [r, r | b0, r | b1, r | b0 | b1];
                    let a: Vec<C64> = idx.iter().map(|&i| rho.mat[i * dim + c]).collect();
                    for (row_i, &i) in idx.iter().enumerate() {
                        let mut acc = C64::ZERO;
                        for (col_j, &amp) in a.iter().enumerate() {
                            acc += u[(row_i, col_j)] * amp;
                        }
                        rho.mat[i * dim + c] = acc;
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
                    let a: Vec<C64> = idx.iter().map(|&j| rho.mat[row + j]).collect();
                    for (col_j, &j) in idx.iter().enumerate() {
                        let mut acc = C64::ZERO;
                        for (row_i, &amp) in a.iter().enumerate() {
                            // (rho U^dag)_{r j} = sum_i rho_{r i} conj(U_{j i})
                            acc += amp * u[(col_j, row_i)].conj();
                        }
                        rho.mat[row + j] = acc;
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
        let original = rho.clone();
        for z in &mut rho.mat {
            *z = C64::ZERO;
        }
        for k in channel.operators() {
            let mut term = original.clone();
            match qubits {
                [q] => apply_unitary_1q(&mut term, k, *q),
                [q0, q1] => apply_unitary_2q(&mut term, k, *q0, *q1),
                _ => panic!("only 1- and 2-qubit channels are supported"),
            }
            for (dst, src) in rho.mat.iter_mut().zip(&term.mat) {
                *dst += *src;
            }
        }
    }
}

/// A mixed quantum state over `n` qubits, stored as a dense `2^n x 2^n`
/// row-major matrix.
///
/// # Examples
///
/// ```
/// use qsim::density::DensityMatrix;
/// use qsim::noise::KrausChannel;
/// use qsim::gates;
///
/// let mut rho = DensityMatrix::new(1);
/// rho.apply_unitary_1q(&gates::h(), 0);
/// rho.apply_channel(&KrausChannel::depolarizing_1q(0.05), &[0]);
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// assert!(rho.purity() < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DensityMatrix {
    n: usize,
    /// Row-major `2^n x 2^n` storage.
    mat: Vec<C64>,
}

impl DensityMatrix {
    /// Maximum qubit count accepted by the dense representation.
    pub const MAX_QUBITS: usize = 12;

    /// Creates `|0...0><0...0|`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > Self::MAX_QUBITS`.
    pub fn new(n_qubits: usize) -> Self {
        assert!(
            n_qubits <= Self::MAX_QUBITS,
            "density matrix capped at {} qubits",
            Self::MAX_QUBITS
        );
        let dim = 1usize << n_qubits;
        let mut mat = vec![C64::ZERO; dim * dim];
        mat[0] = C64::ONE;
        DensityMatrix { n: n_qubits, mat }
    }

    /// Builds the pure density matrix `|psi><psi|` of a state vector.
    pub fn from_statevector(sv: &StateVector) -> Self {
        let n = sv.num_qubits();
        let dim = 1usize << n;
        let amps = sv.amplitudes();
        let mut mat = vec![C64::ZERO; dim * dim];
        for r in 0..dim {
            for c in 0..dim {
                mat[r * dim + c] = amps[r] * amps[c].conj();
            }
        }
        DensityMatrix { n, mat }
    }

    /// Number of qubits.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Hilbert-space dimension `2^n`.
    #[inline]
    pub fn dim(&self) -> usize {
        1 << self.n
    }

    /// Returns the state as a [`CMatrix`] (copies).
    pub fn matrix(&self) -> CMatrix {
        CMatrix::from_slice(self.dim(), self.dim(), &self.mat)
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> C64 {
        self.mat[r * self.dim() + c]
    }

    /// Applies a 2x2 unitary to qubit `q`: `rho -> U rho U^dag`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `u` is not 2x2.
    pub fn apply_unitary_1q(&mut self, u: &CMatrix, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        assert_eq!((u.rows(), u.cols()), (2, 2), "1q gate must be 2x2");
        let dim = self.dim();
        kernel_1q(&mut self.mat, dim, u, q);
    }

    /// Applies a 4x4 unitary to the ordered pair `(q0, q1)` in the
    /// `|q1 q0>` basis convention of [`crate::gates`].
    ///
    /// # Panics
    ///
    /// Panics if operands coincide, are out of range, or `u` is not 4x4.
    pub fn apply_unitary_2q(&mut self, u: &CMatrix, q0: usize, q1: usize) {
        assert!(q0 != q1, "2q gate operands must differ");
        assert!(q0 < self.n && q1 < self.n, "qubit out of range");
        assert_eq!((u.rows(), u.cols()), (4, 4), "2q gate must be 4x4");
        let dim = self.dim();
        kernel_2q(&mut self.mat, dim, u, q0, q1);
    }

    /// Applies a Kraus channel to the listed qubits:
    /// `rho -> sum_k K_k rho K_k^dag`.
    ///
    /// One- and two-qubit channels are supported (matching every channel in
    /// [`crate::noise`]). This convenience form lowers the channel per
    /// call and runs the same sweep as [`DensityMatrix::apply_superop`];
    /// compiled programs lower each channel once instead.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len() != channel.num_qubits()` or arity is not 1
    /// or 2.
    pub fn apply_channel(&mut self, channel: &KrausChannel, qubits: &[usize]) {
        let mut table = SuperopTable::default();
        let idx = table.push(channel);
        self.apply_superop(table.get(idx), qubits);
    }

    /// Applies a lowered channel (see [`SuperopTable`]) to the listed
    /// qubits in one in-place sweep. Equal to the Kraus sum of
    /// [`baseline::apply_channel`] up to rounding.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len() != s.num_qubits()`, a qubit is out of
    /// range, or the operands of a two-qubit channel coincide.
    pub fn apply_superop(&mut self, s: Superop<'_>, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            s.num_qubits(),
            "channel arity does not match qubit list"
        );
        for &q in qubits {
            assert!(q < self.n, "qubit {q} out of range");
        }
        let dim = self.dim();
        match *qubits {
            [q] if s.is_real() => kernel_superop_1q(&mut self.mat, dim, s.dense_1q::<f64>(), q),
            [q] => kernel_superop_1q(&mut self.mat, dim, s.dense_1q::<C64>(), q),
            [q0, q1] => {
                assert!(q0 != q1, "2q channel operands must differ");
                let (b0, b1) = (1usize << q0, 1usize << q1);
                let sorted = [q0.min(q1), q0.max(q1)];
                kernel_superop(&mut self.mat, dim, s, [0, b0, b1, b0 | b1], sorted)
            }
            _ => panic!("only 1- and 2-qubit channels are supported"),
        }
    }

    /// Trace of the density matrix (1 for a valid state).
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.mat[i * dim + i].re).sum()
    }

    /// Purity `Tr(rho^2)`; 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        let dim = self.dim();
        let mut acc = 0.0;
        for r in 0..dim {
            for c in 0..dim {
                // Tr(rho^2) = sum_{r,c} rho_rc * rho_cr = sum |rho_rc|^2 (Hermitian).
                acc += (self.at(r, c) * self.at(c, r)).re;
            }
        }
        acc
    }

    /// Re-initializes to `|0...0><0...0|` over `n_qubits`, reusing the
    /// allocation when the size allows. The engine reset path: no fresh
    /// matrix per job.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits > Self::MAX_QUBITS`.
    pub fn reset_to(&mut self, n_qubits: usize) {
        assert!(
            n_qubits <= Self::MAX_QUBITS,
            "density matrix capped at {} qubits",
            Self::MAX_QUBITS
        );
        let dim = 1usize << n_qubits;
        self.n = n_qubits;
        self.mat.clear();
        self.mat.resize(dim * dim, C64::ZERO);
        self.mat[0] = C64::ONE;
    }

    /// Overwrites this state with a copy of `other`, reusing the
    /// allocation (how an engine resumes a forked suffix).
    pub fn copy_from(&mut self, other: &DensityMatrix) {
        self.n = other.n;
        self.mat.clear();
        self.mat.extend_from_slice(&other.mat);
    }

    /// Computational-basis measurement probabilities (the diagonal).
    pub fn probabilities(&self) -> Vec<f64> {
        let dim = self.dim();
        (0..dim)
            .map(|i| self.mat[i * dim + i].re.max(0.0))
            .collect()
    }

    /// Writes the measurement probabilities of the trace-normalized
    /// state into a reusable buffer, without normalizing the state:
    /// bit-equal to [`DensityMatrix::normalize`] then
    /// [`DensityMatrix::probabilities`], dividing `2^n` diagonal entries
    /// instead of `4^n`.
    pub fn normalized_probabilities_into(&self, out: &mut Vec<f64>) {
        let dim = self.dim();
        let t = self.trace();
        let t = if t > 0.0 { t } else { 1.0 };
        out.clear();
        out.extend((0..dim).map(|i| (self.mat[i * dim + i].re / t).max(0.0)));
    }

    /// Expectation value of a Pauli string.
    ///
    /// # Panics
    ///
    /// Panics if a qubit repeats or is out of range.
    pub fn expectation_pauli(&self, ops: &[(usize, Pauli)]) -> f64 {
        // Tr(P rho): apply P to a copy and take the trace.
        let mut seen = 0usize;
        let mut work = self.clone();
        for &(q, p) in ops {
            assert!(q < self.n, "qubit {q} out of range");
            assert!(seen & (1 << q) == 0, "duplicate qubit {q}");
            seen |= 1 << q;
            if p != Pauli::I {
                // Left-multiply only: Tr(P rho) via rho -> P rho.
                work.left_multiply_1q(&p.matrix(), q);
            }
        }
        let dim = work.dim();
        (0..dim).map(|i| work.mat[i * dim + i].re).sum()
    }

    /// Left multiplication `rho -> M rho` on one qubit (no right factor).
    fn left_multiply_1q(&mut self, m: &CMatrix, q: usize) {
        let dim = self.dim();
        let bit = 1usize << q;
        let (m00, m01, m10, m11) = (m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]);
        for c in 0..dim {
            for r in 0..dim {
                if r & bit == 0 {
                    let r1 = r | bit;
                    let a0 = self.mat[r * dim + c];
                    let a1 = self.mat[r1 * dim + c];
                    self.mat[r * dim + c] = m00 * a0 + m01 * a1;
                    self.mat[r1 * dim + c] = m10 * a0 + m11 * a1;
                }
            }
        }
    }

    /// Renormalizes the trace to 1 (guards against numerical drift in long
    /// channel sequences).
    pub fn normalize(&mut self) {
        let t = self.trace();
        if t > 0.0 {
            for z in &mut self.mat {
                *z = *z / t;
            }
        }
    }

    /// Fidelity with a pure reference state: `<psi| rho |psi>`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn fidelity_with_pure(&self, sv: &StateVector) -> f64 {
        assert_eq!(self.n, sv.num_qubits(), "qubit count mismatch");
        let dim = self.dim();
        let amps = sv.amplitudes();
        let mut acc = C64::ZERO;
        for r in 0..dim {
            for c in 0..dim {
                acc += amps[r].conj() * self.at(r, c) * amps[c];
            }
        }
        acc.re
    }

    /// Samples `shots` measurement outcomes.
    pub fn sample<R: Rng + ?Sized>(&self, shots: usize, rng: &mut R) -> Vec<usize> {
        crate::sampler::sample_indices(&self.probabilities(), shots, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;

    /// Runs the same gate list through both simulators and compares.
    fn cross_check(gates_1q: &[(CMatrix, usize)], gates_2q: &[(CMatrix, usize, usize)], n: usize) {
        let mut sv = StateVector::new(n);
        let mut dm = DensityMatrix::new(n);
        for (g, q) in gates_1q {
            sv.apply_1q(g, *q);
            dm.apply_unitary_1q(g, *q);
        }
        for (g, a, b) in gates_2q {
            sv.apply_2q(g, *a, *b);
            dm.apply_unitary_2q(g, *a, *b);
        }
        let pure = DensityMatrix::from_statevector(&sv);
        assert!(
            dm.matrix().approx_eq(&pure.matrix(), 1e-10),
            "density and statevector evolutions diverge"
        );
    }

    #[test]
    fn matches_statevector_on_unitary_circuit() {
        cross_check(
            &[
                (gates::h(), 0),
                (gates::ry(0.7), 1),
                (gates::rz(1.2), 2),
                (gates::sx(), 1),
            ],
            &[
                (gates::cx(), 0, 1),
                (gates::cx(), 1, 2),
                (gates::rzz(0.5), 0, 2),
            ],
            3,
        );
    }

    #[test]
    fn trace_and_purity_of_fresh_state() {
        let rho = DensityMatrix::new(3);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn channel_preserves_trace_and_reduces_purity() {
        let mut rho = DensityMatrix::new(2);
        rho.apply_unitary_1q(&gates::h(), 0);
        rho.apply_unitary_2q(&gates::cx(), 0, 1);
        let ch = KrausChannel::depolarizing_2q(0.1);
        rho.apply_channel(&ch, &[0, 1]);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.purity() < 1.0 - 1e-6);
    }

    #[test]
    fn bell_state_probabilities_with_noise() {
        let mut rho = DensityMatrix::new(2);
        rho.apply_unitary_1q(&gates::h(), 0);
        rho.apply_unitary_2q(&gates::cx(), 0, 1);
        rho.apply_channel(&KrausChannel::depolarizing_1q(0.05), &[0]);
        let p = rho.probabilities();
        // Noise symmetric between 00/11 and leaks into 01/10 equally.
        assert!((p[0] - p[3]).abs() < 1e-10);
        assert!((p[1] - p[2]).abs() < 1e-10);
        assert!(p[1] > 0.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn expectation_pauli_matches_statevector() {
        let mut sv = StateVector::new(2);
        sv.apply_1q(&gates::ry(0.9), 0);
        sv.apply_2q(&gates::cx(), 0, 1);
        let dm = DensityMatrix::from_statevector(&sv);
        for ops in [
            vec![(0usize, Pauli::Z)],
            vec![(0, Pauli::X), (1, Pauli::X)],
            vec![(0, Pauli::Y), (1, Pauli::Y)],
            vec![(0, Pauli::Z), (1, Pauli::Z)],
        ] {
            let a = sv.expectation_pauli(&ops);
            let b = dm.expectation_pauli(&ops);
            assert!((a - b).abs() < 1e-10, "mismatch on {ops:?}: {a} vs {b}");
        }
    }

    #[test]
    fn fidelity_with_pure_reference() {
        let mut sv = StateVector::new(1);
        sv.apply_1q(&gates::h(), 0);
        let mut rho = DensityMatrix::from_statevector(&sv);
        assert!((rho.fidelity_with_pure(&sv) - 1.0).abs() < 1e-12);
        rho.apply_channel(&KrausChannel::phase_damping(1.0), &[0]);
        assert!((rho.fidelity_with_pure(&sv) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_restores_unit_trace() {
        let mut rho = DensityMatrix::new(1);
        // Scale artificially through a non-TP hack: apply_operator via channel
        // isn't exposed, so simulate drift by scaling matrix.
        let m = rho.matrix().scale(C64::from_real(0.98));
        rho = DensityMatrix {
            n: 1,
            mat: m.as_slice().to_vec(),
        };
        rho.normalize();
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    /// A small noisy workload touching every kernel: sparse, diagonal
    /// and dense 1q/2q unitaries plus sparse channels (including an
    /// all-zero Kraus row via amplitude damping), a complex one-qubit
    /// cluster and a dense unitary channel.
    fn drive(apply: &mut dyn FnMut(Step<'_>), n: usize) {
        let dense_2q = gates::h().kron(&gates::ry(0.7));
        let (_, complex_1q, _) = one_qubit_clusters();
        for q in 0..n {
            apply(Step::U1(&gates::ry(0.3 + q as f64), q));
            apply(Step::U1(&gates::h(), q));
            apply(Step::U1(&gates::rz(0.4 + q as f64), q));
            apply(Step::U1(&gates::x(), q));
            apply(Step::Ch(&complex_1q, &[q]));
        }
        for q in 0..n.saturating_sub(1) {
            apply(Step::U2(&gates::cx(), q, q + 1));
            apply(Step::U2(&dense_2q, q, q + 1));
        }
        apply(Step::Ch(&KrausChannel::amplitude_damping(0.2), &[0]));
        apply(Step::Ch(&KrausChannel::depolarizing_1q(0.05), &[n / 2]));
        if n >= 2 {
            apply(Step::Ch(&KrausChannel::depolarizing_2q(0.1), &[0, n - 1]));
            let dense_ch = KrausChannel::new(vec![gates::h().kron(&gates::h())]);
            apply(Step::Ch(&dense_ch, &[n - 1, 0]));
        }
    }

    enum Step<'a> {
        U1(&'a CMatrix, usize),
        U2(&'a CMatrix, usize, usize),
        Ch(&'a KrausChannel, &'a [usize]),
    }

    #[test]
    fn lowered_channel_sweep_matches_baseline() {
        for n in 1..=5 {
            let mut fast = DensityMatrix::new(n);
            let mut slow = DensityMatrix::new(n);
            drive(
                &mut |step| match step {
                    Step::U1(u, q) => {
                        fast.apply_unitary_1q(u, q);
                        baseline::apply_unitary_1q(&mut slow, u, q);
                    }
                    Step::U2(u, a, b) => {
                        fast.apply_unitary_2q(u, a, b);
                        baseline::apply_unitary_2q(&mut slow, u, a, b);
                    }
                    Step::Ch(ch, qs) => {
                        fast.apply_channel(ch, qs);
                        baseline::apply_channel(&mut slow, ch, qs);
                    }
                },
                n,
            );
            assert!(
                fast.matrix().approx_eq(&slow.matrix(), 1e-12),
                "lowered channel sweep diverges from baseline at {n} qubits"
            );
            assert!((fast.trace() - 1.0).abs() < 1e-9);
        }
    }

    /// The three shapes a one-qubit superoperator comes in: real
    /// (relaxation alone), complex (`sx` + relaxation + depolarizing, a
    /// fused gate cluster) and fully dense (damping between two generic
    /// rotations).
    fn one_qubit_clusters() -> (KrausChannel, KrausChannel, KrausChannel) {
        let relax = KrausChannel::thermal_relaxation(90.0, 70.0, 12.0);
        let gate = |u: CMatrix| KrausChannel::new(vec![u]);
        let complex = gate(gates::sx())
            .compose(&relax)
            .compose(&KrausChannel::depolarizing_1q(0.03));
        let dense = gate(gates::rz(0.3) * gates::ry(0.7))
            .compose(&KrausChannel::amplitude_damping(0.2))
            .compose(&gate(gates::ry(-1.1) * gates::rz(2.2)));
        (relax, complex, dense)
    }

    /// An entangled mixed state with no zero and no symmetric entry.
    fn mixed_state(n: usize) -> DensityMatrix {
        let mut rho = DensityMatrix::new(n);
        for q in 0..n {
            rho.apply_unitary_1q(&(gates::rz(0.9 - q as f64) * gates::ry(0.5 + q as f64)), q);
        }
        for q in 1..n {
            rho.apply_unitary_2q(&gates::cx(), q - 1, q);
            rho.apply_unitary_1q(&gates::sx(), q);
        }
        rho.apply_channel(&KrausChannel::amplitude_damping(0.15), &[n - 1]);
        rho.apply_channel(&KrausChannel::depolarizing_1q(0.08), &[0]);
        rho
    }

    #[test]
    fn one_qubit_sweep_matches_kraus_sum_at_every_position() {
        let (real, complex, dense) = one_qubit_clusters();
        let mut table = SuperopTable::default();
        let lowered = [&real, &complex, &dense].map(|ch| table.push(ch));
        let [r, c, d] = lowered.map(|s| table.get(s));
        assert!(r.is_real() && !c.is_real() && d.nnz() == 16);
        for n in 1..=7 {
            let state = mixed_state(n);
            // q = 0: column runs of length 1; q = n - 1: one run per row.
            for q in 0..n {
                for ch in [&real, &complex, &dense] {
                    let (mut swept, mut summed) = (state.clone(), state.clone());
                    swept.apply_channel(ch, &[q]);
                    baseline::apply_channel(&mut summed, ch, &[q]);
                    let m = swept.matrix();
                    assert!(
                        m.approx_eq(&summed.matrix(), 1e-12),
                        "sweep != Kraus sum on qubit {q} of {n}"
                    );
                    assert!((swept.trace() - 1.0).abs() < 1e-12);
                    assert!(m.is_hermitian(1e-13));
                }
            }
        }
    }

    #[test]
    fn diagonal_pass_matches_two_pass_oracle() {
        let gamma: f64 = 0.3;
        let mut damp = CMatrix::identity(2);
        damp[(1, 1)] = C64::from_real((1.0 - gamma).sqrt());
        for n in 1..=7 {
            let state = mixed_state(n);
            let dim = state.dim();
            for q in 0..n {
                // Phase gates (unit modulus: half the state is skipped)
                // and a non-unit diagonal operator (no skip).
                let theta = 0.37 + 1.9 * (n * 7 + q) as f64;
                for u in [gates::rz(theta), gates::z(), gates::t(), damp.clone()] {
                    let (mut fast, mut slow) = (state.clone(), state.clone());
                    fast.apply_unitary_1q(&u, q);
                    baseline::apply_unitary_1q(&mut slow, &u, q);
                    assert!(
                        fast.matrix().approx_eq(&slow.matrix(), 1e-14),
                        "diagonal pass != two passes on qubit {q} of {n}"
                    );
                }
                // A phase gate never touches a probability.
                let mut phased = state.clone();
                phased.apply_unitary_1q(&gates::rz(theta), q);
                for i in 0..dim {
                    let (a, b) = (phased.at(i, i), state.at(i, i));
                    assert!(a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
                }
            }
        }
    }

    #[test]
    fn two_qubit_gate_on_noncontiguous_qubits() {
        // CX between qubits 0 and 2 of a 3-qubit register.
        let mut sv = StateVector::new(3);
        sv.apply_1q(&gates::x(), 0);
        sv.apply_2q(&gates::cx(), 0, 2);
        let mut dm = DensityMatrix::new(3);
        dm.apply_unitary_1q(&gates::x(), 0);
        dm.apply_unitary_2q(&gates::cx(), 0, 2);
        let probs = dm.probabilities();
        assert!((probs[0b101] - 1.0).abs() < 1e-12);
        assert!((sv.probability_of(0b101) - 1.0).abs() < 1e-12);
    }
}
