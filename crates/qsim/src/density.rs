//! Density-matrix simulation with noise channels.
//!
//! The simulated QPU backends (crate `qdevice`) execute transpiled circuits
//! on a [`DensityMatrix`], interleaving gate unitaries with the Kraus
//! channels derived from calibration data. For the paper's 4-7 qubit
//! workloads an exact density-matrix treatment is cheap (`4^n` entries) and
//! — unlike per-shot Monte Carlo — deterministic given a seed only at the
//! sampling step.
//!
//! # The live half
//!
//! `rho` is Hermitian and every operation here preserves that, and a
//! measurement reads only the diagonal. So only the **upper triangle**
//! of a [`DensityMatrix`] — entries `(r, c)` with `r <= c` — is live:
//! every in-place kernel reads and writes that half alone and reads an
//! entry below the diagonal as the conjugate of its twin above it. The
//! strictly-lower half of the storage is unspecified (stale, or never
//! written) and nothing reads it; the readers
//! ([`DensityMatrix::matrix`], [`DensityMatrix::purity`],
//! [`DensityMatrix::fidelity_with_pure`],
//! [`DensityMatrix::expectation_pauli`] and `==`) read through the
//! mirror. A sweep thereby visits only the blocks whose base row is at
//! most their base column, and a copy moves half the state.

use crate::complex::C64;
use crate::gates::Pauli;
use crate::matrix::CMatrix;
use crate::noise::{KrausChannel, Superop, SuperopRow, SuperopTable};
use crate::statevector::StateVector;
use rand::Rng;

/// Raw row-major storage for the passes the borrow checker cannot
/// express: the pair pass holds two disjoint rows of one matrix at once
/// and reaches into a third for mirrored entries, and the block sweep
/// reads entries at offsets it has already bounded.
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

/// Expands a base-row index `k` (enumeration of rows with bit `q`
/// clear) back to the row number: inserts a zero bit at position `q`.
/// Enumeration order is ascending, matching the serial `0..dim` filter.
#[inline(always)]
fn insert_bit(k: usize, q: usize) -> usize {
    ((k >> q) << (q + 1)) | (k & ((1usize << q) - 1))
}

/// Applies a diagonal `2x2` operator `diag(d)` on qubit `q` (every
/// parameterized op left on a transpiled tape is an RZ): `U rho U^dag`
/// multiplies entry `(r, c)` by `d[r_q] * conj(d[c_q])`, so one pass
/// over the live part of each row — from column `r` on, as runs of
/// `bit` columns sharing `c_q` — is the whole product (the two-pass
/// product `(d_r x) conj(d_c)` re-associated, equal to rounding,
/// ~1e-16).
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
        let rq = (r >> q) & 1;
        let (same, flip) = (d[rq] * d[rq].conj(), d[rq] * d[rq ^ 1].conj());
        // Columns `r..next` share `r_q`; from `next` on, runs of `bit`
        // columns alternate, the first with the other value.
        let next = ((r >> q) + 1) << q;
        if !unit {
            row[r..next].iter_mut().for_each(|x| *x *= same);
        }
        if unit && bit == 1 {
            // Runs of one column: a stride, not a loop per run.
            row[next..].iter_mut().step_by(2).for_each(|x| *x *= flip);
            continue;
        }
        for run in row[next..].chunks_mut(2 * bit) {
            let (other, rest) = run.split_at_mut(bit);
            other.iter_mut().for_each(|x| *x *= flip);
            if !unit {
                rest.iter_mut().for_each(|x| *x *= same);
            }
        }
    }
}

/// Applies a lowered one-qubit channel in place: one sweep over the live
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
/// Only blocks whose base column is at least `r` are live. In the row
/// pair's own column run the block entry `(r | bit, c)` lies below the
/// diagonal: it is read as `conj(rho[c][r | bit])` and written back the
/// same way, except on the diagonal block (`c == r`), where its twin is
/// the block's own `(r, r | bit)` entry and it is not written. Every
/// later run is live whole and streams.
fn kernel_superop_1q<C>(mat: &mut [C64], dim: usize, m: [[C; 4]; 4], q: usize)
where
    C: Copy + std::ops::Mul<C64, Output = C64>,
{
    let bit = 1usize << q;
    let out =
        |a: &[C64; 4], e: usize| m[e][0] * a[0] + m[e][1] * a[1] + m[e][2] * a[2] + m[e][3] * a[3];
    let step = |x0: &mut C64, x1: &mut C64, x2: &mut C64, x3: &mut C64| {
        let a = [*x0, *x1, *x2, *x3];
        (*x0, *x1, *x2, *x3) = (out(&a, 0), out(&a, 1), out(&a, 2), out(&a, 3));
    };
    let p = RowPtr(mat.as_mut_ptr());
    for k in 0..dim / 2 {
        let r = insert_bit(k, q);
        let start = r & !(2 * bit - 1);
        // SAFETY: distinct base rows yield disjoint (r, r|bit) pairs.
        let row0 = unsafe { p.row(r, dim) };
        let row1 = unsafe { p.row(r | bit, dim) };
        let (own0, later0) = row0[start..].split_at_mut(2 * bit);
        let (own1, later1) = row1[start..].split_at_mut(2 * bit);
        let (lo0, hi0) = own0.split_at_mut(bit);
        let hi1 = &mut own1[bit..];
        let first = r - start;
        let mut own_twin = hi0[first].conj();
        step(
            &mut lo0[first],
            &mut hi0[first],
            &mut own_twin,
            &mut hi1[first],
        );
        // Block `(r, c)` keeps its mirrored entry in row `c`.
        let twins = (r + 1..start + bit).map(|c| c * dim + (r | bit));
        let blocks = lo0[first + 1..]
            .iter_mut()
            .zip(&mut hi0[first + 1..])
            .zip(&mut hi1[first + 1..]);
        for (((x0, x1), x3), t) in blocks.zip(twins) {
            // SAFETY: row `c` has bit `q` clear and lies past `r`, so it
            // is neither row of the pair; its entry at column `r | bit` is
            // in bounds and belongs to this block alone.
            let twin = unsafe { p.at(t) };
            let mut x2 = twin.conj();
            step(x0, x1, &mut x2, x3);
            *twin = x2.conj();
        }
        if bit == 1 {
            let pairs = later0.as_chunks_mut::<2>().0.iter_mut();
            for ([x0, x1], [x2, x3]) in pairs.zip(later1.as_chunks_mut::<2>().0) {
                step(x0, x1, x2, x3);
            }
            continue;
        }
        let runs = later0
            .chunks_exact_mut(2 * bit)
            .zip(later1.chunks_exact_mut(2 * bit));
        for (run0, run1) in runs {
            let (lo0, hi0) = run0.split_at_mut(bit);
            let (lo1, hi1) = run1.split_at_mut(bit);
            for (((x0, x1), x2), x3) in lo0.iter_mut().zip(hi0).zip(lo1).zip(hi1) {
                step(x0, x1, x2, x3);
            }
        }
    }
}

/// One sparse row of a two-qubit superoperator times a gathered block.
#[inline(always)]
fn row_dot((cols, re, im): SuperopRow<'_>, block: &[C64; 16]) -> C64 {
    // Columns are below 16 by construction; the mask only tells the
    // compiler so.
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
    acc
}

/// Applies a lowered two-qubit channel in place: one sweep over the
/// live `4x4` blocks of `rho` on the operand qubits, each block read
/// whole and overwritten with `S * block` (see
/// [`crate::noise::SuperopTable`]). `off[i]` is the index offset of
/// local basis state `i`; `sorted` lists the operand qubits ascending.
///
/// Only blocks with base row `r` at most base column `c` are visited. A
/// block with `c >= r + off[3]` lies above the diagonal whole; any other
/// one indexes each entry through the mirror — an entry below the
/// diagonal is read as the conjugate of its twin and written back the
/// same way, unless the twin is in the block itself (`c == r`), where it
/// is written directly.
fn kernel_superop(
    mat: &mut [C64],
    dim: usize,
    s: Superop<'_>,
    off: [usize; 4],
    sorted: [usize; 2],
) {
    let base = |k: usize| insert_bit(insert_bit(k, sorted[0]), sorted[1]);
    // Flat offset of block entry `e = i * 4 + j` from the block origin,
    // and of its mirror twin from the transposed origin.
    let at: [usize; 16] = std::array::from_fn(|e| off[e / 4] * dim + off[e % 4]);
    let at_t: [usize; 16] = std::array::from_fn(|e| off[e % 4] * dim + off[e / 4]);
    // The six entries whose row offset exceeds their column offset (the
    // four offsets are distinct): by how much, and the entry's bit.
    let mut rises = [(0usize, 0u16); 6];
    let higher = (0..16).filter(|&e| off[e / 4] > off[e % 4]);
    for (rise, e) in rises.iter_mut().zip(higher) {
        *rise = (off[e / 4] - off[e % 4], 1 << e);
    }
    let rows = s.rows();
    let p = RowPtr(mat.as_mut_ptr());
    let mut block = [C64::ZERO; 16];
    // The last partial block's mirror pattern (bit `e` set: entry `e`
    // lives at its twin), and its entries in place first, then those
    // at their twins from `split` on.
    let (mut pattern, mut order, mut split) = (u16::MAX, [0usize; 16], 0);
    for kr in 0..dim / 4 {
        let r = base(kr);
        for c in (kr..dim / 4).map(base) {
            let (origin, twin) = (r * dim + c, c * dim + r);
            // SAFETY (every access below): `r` and `c` have the operand
            // bits clear and `off` sets only those (all below `dim`: the
            // caller checked the qubits), so each index is in bounds.
            if c >= r + off[3] {
                for e in 0..16 {
                    block[e] = unsafe { *p.at(origin + at[e]) };
                }
                for e in 0..16 {
                    let acc = row_dot(rows[e], &block);
                    unsafe { *p.at(origin + at[e]) = acc };
                }
                continue;
            }
            // Entry `e` lies below the diagonal when its row offset
            // exceeds its column offset by more than `c - r`: it lives
            // at its twin, conjugated.
            let below = rises
                .iter()
                .filter(|&&(rise, _)| rise > c - r)
                .fold(0u16, |mask, &(_, entry)| mask | entry);
            if below != pattern {
                // It changes only where `c - r` crosses a rise: order the
                // entries once per change, not per block.
                pattern = below;
                split = 16 - below.count_ones() as usize;
                let (mut direct, mut mirrored) = (0, split);
                for e in 0..16 {
                    let slot = if below >> e & 1 != 0 {
                        &mut mirrored
                    } else {
                        &mut direct
                    };
                    order[*slot] = e;
                    *slot += 1;
                }
            }
            let (direct, mirrored) = order.split_at(split);
            for &e in direct {
                block[e] = unsafe { *p.at(origin + at[e]) };
            }
            for &e in mirrored {
                block[e] = unsafe { *p.at(twin + at_t[e]) }.conj();
            }
            for &e in direct {
                let acc = row_dot(rows[e], &block);
                unsafe { *p.at(origin + at[e]) = acc };
            }
            if c != r {
                for &e in mirrored {
                    let acc = row_dot(rows[e], &block);
                    unsafe { *p.at(twin + at_t[e]) = acc.conj() };
                }
            }
        }
    }
}

/// A mixed quantum state over `n` qubits, stored as a dense `2^n x 2^n`
/// row-major matrix of which only the upper triangle (`r <= c`) is live:
/// the strictly-lower half of the storage is unspecified, and every
/// operation reads an entry there as the conjugate of its twin (see the
/// [module docs](self)).
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
/// assert!(rho.matrix().is_hermitian(0.0));
/// ```
#[derive(Clone)]
pub struct DensityMatrix {
    n: usize,
    /// Row-major `2^n x 2^n` storage; live on and above the diagonal.
    mat: Vec<C64>,
}

impl PartialEq for DensityMatrix {
    /// Equal qubit counts and equal live halves.
    fn eq(&self, other: &Self) -> bool {
        let dim = self.dim();
        self.n == other.n
            && (0..dim)
                .all(|r| self.mat[r * dim + r..][..dim - r] == other.mat[r * dim + r..][..dim - r])
    }
}

impl std::fmt::Debug for DensityMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DensityMatrix")
            .field("n", &self.n)
            .field("matrix", &self.matrix())
            .finish()
    }
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

    /// Takes `m` as a state: its upper triangle becomes the live half.
    /// Nothing reads `m` below the diagonal (it is stored as given and
    /// unspecified from then on), so only the upper triangle need hold
    /// numbers; whether they describe a physical state is the caller's.
    ///
    /// # Panics
    ///
    /// Panics unless `m` is square with a power-of-two side of at most
    /// `2^`[`Self::MAX_QUBITS`].
    pub fn from_matrix(m: &CMatrix) -> Self {
        let dim = m.rows();
        assert!(
            m.cols() == dim && dim.is_power_of_two(),
            "a state is a square 2^n x 2^n matrix"
        );
        let n = dim.trailing_zeros() as usize;
        assert!(
            n <= Self::MAX_QUBITS,
            "density matrix capped at {} qubits",
            Self::MAX_QUBITS
        );
        DensityMatrix {
            n,
            mat: m.as_slice().to_vec(),
        }
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

    /// Returns the state as a full Hermitian [`CMatrix`] (copies; the
    /// lower half is the mirror of the live one).
    pub fn matrix(&self) -> CMatrix {
        let dim = self.dim();
        let mut m = CMatrix::zeros(dim, dim);
        for r in 0..dim {
            for c in 0..dim {
                m[(r, c)] = self.at(r, c);
            }
        }
        m
    }

    /// Entry `(r, c)`, read through the mirror below the diagonal.
    #[inline]
    fn at(&self, r: usize, c: usize) -> C64 {
        let dim = self.dim();
        if r <= c {
            self.mat[r * dim + c]
        } else {
            self.mat[c * dim + r].conj()
        }
    }

    /// Applies a 2x2 unitary to qubit `q`: `rho -> U rho U^dag`. A
    /// diagonal `U` takes one phase pass; any other is lowered to
    /// `U (x) conj(U)` and applied as a one-qubit superoperator sweep.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `u` is not 2x2.
    pub fn apply_unitary_1q(&mut self, u: &CMatrix, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
        assert_eq!((u.rows(), u.cols()), (2, 2), "1q gate must be 2x2");
        if u[(0, 1)] == C64::ZERO && u[(1, 0)] == C64::ZERO {
            let dim = self.dim();
            kernel_1q_diag(&mut self.mat, dim, [u[(0, 0)], u[(1, 1)]], q);
        } else {
            self.apply_lowered(u, &[q]);
        }
    }

    /// Applies a 4x4 unitary to the ordered pair `(q0, q1)` in the
    /// `|q1 q0>` basis convention of [`crate::gates`], lowered to
    /// `U (x) conj(U)` and applied as a two-qubit superoperator sweep.
    ///
    /// # Panics
    ///
    /// Panics if operands coincide, are out of range, or `u` is not 4x4.
    pub fn apply_unitary_2q(&mut self, u: &CMatrix, q0: usize, q1: usize) {
        assert!(q0 != q1, "2q gate operands must differ");
        assert!(q0 < self.n && q1 < self.n, "qubit out of range");
        assert_eq!((u.rows(), u.cols()), (4, 4), "2q gate must be 4x4");
        self.apply_lowered(u, &[q0, q1]);
    }

    /// Lowers the unitary `u` and sweeps it over `qubits`.
    fn apply_lowered(&mut self, u: &CMatrix, qubits: &[usize]) {
        let mut table = SuperopTable::default();
        let idx = table.push_unitary(u);
        self.apply_superop(table.get(idx), qubits);
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
    /// qubits in one in-place sweep over the live half. Equal to the
    /// literal Kraus sum `sum_k K_k rho K_k^dag` up to rounding (to
    /// 1e-12 against the full-matrix kernels of the `eqc-oracle` crate).
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
        // Tr(rho^2) = sum_{r,c} |rho_rc|^2 (Hermitian): the diagonal once,
        // every live off-diagonal entry for itself and its mirror.
        let dim = self.dim();
        let mut acc = 0.0;
        for r in 0..dim {
            let row = &self.mat[r * dim..(r + 1) * dim];
            acc += row[r].norm_sqr();
            acc += 2.0 * row[r + 1..].iter().map(|z| z.norm_sqr()).sum::<f64>();
        }
        acc
    }

    /// Re-initializes to `|0...0><0...0|` over `n_qubits`, reusing the
    /// allocation when the size allows and writing only the live half.
    /// The engine reset path: no fresh matrix per job.
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
        self.mat.resize(dim * dim, C64::ZERO);
        for r in 0..dim {
            self.mat[r * dim + r..(r + 1) * dim].fill(C64::ZERO);
        }
        self.mat[0] = C64::ONE;
    }

    /// Overwrites this state with a copy of `other`'s live half, reusing
    /// the allocation (how an engine resumes a forked suffix).
    pub fn copy_from(&mut self, other: &DensityMatrix) {
        let dim = other.dim();
        self.n = other.n;
        self.mat.resize(dim * dim, C64::ZERO);
        for r in 0..dim {
            let live = r * dim + r..(r + 1) * dim;
            self.mat[live.clone()].copy_from_slice(&other.mat[live]);
        }
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
    /// instead of the live half.
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
        // P is a phased permutation, P|c> = P[c ^ flip][c] |c ^ flip>,
        // so Tr(P rho) = sum_c P[c ^ flip][c] rho[c][c ^ flip].
        let mut seen = 0usize;
        let mut flip = 0usize;
        let mut factors = Vec::with_capacity(ops.len());
        for &(q, p) in ops {
            assert!(q < self.n, "qubit {q} out of range");
            assert!(seen & (1 << q) == 0, "duplicate qubit {q}");
            seen |= 1 << q;
            if matches!(p, Pauli::X | Pauli::Y) {
                flip |= 1 << q;
            }
            if p != Pauli::I {
                factors.push((q, p.matrix()));
            }
        }
        let mut acc = C64::ZERO;
        for c in 0..self.dim() {
            let r = c ^ flip;
            let phase = factors
                .iter()
                .fold(C64::ONE, |z, (q, m)| z * m[((r >> q) & 1, (c >> q) & 1)]);
            acc += phase * self.at(c, r);
        }
        acc.re
    }

    /// Renormalizes the trace to 1 (guards against numerical drift in long
    /// channel sequences).
    pub fn normalize(&mut self) {
        let t = self.trace();
        if t > 0.0 {
            let dim = self.dim();
            for r in 0..dim {
                for z in &mut self.mat[r * dim + r..(r + 1) * dim] {
                    *z = *z / t;
                }
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

    /// `rho` with every entry below the diagonal NaN: a reader that
    /// looks there returns NaN.
    fn poisoned(rho: &DensityMatrix) -> DensityMatrix {
        let mut dirty = rho.clone();
        let dim = dirty.dim();
        for r in 1..dim {
            for c in 0..r {
                dirty.mat[r * dim + c] = C64::new(f64::NAN, f64::NAN);
            }
        }
        dirty
    }

    #[test]
    fn matrix_reads_the_lower_half_through_the_mirror() {
        for n in 1..=4 {
            let rho = mixed_state(n);
            let m = poisoned(&rho).matrix();
            assert!(m == rho.matrix() && m.is_hermitian(0.0));
            let dim = rho.dim();
            for r in 0..dim {
                for c in r..dim {
                    assert_eq!(m[(r, c)], rho.mat[r * dim + c]);
                }
            }
        }
    }

    #[test]
    fn purity_reads_only_the_live_half() {
        for n in 1..=4 {
            let rho = mixed_state(n);
            let m = rho.matrix();
            let exact = (m.clone() * m).trace().re;
            let purity = poisoned(&rho).purity();
            assert!((purity - exact).abs() < 1e-12, "{purity} vs {exact}");
            assert!(purity < 1.0);
        }
    }

    #[test]
    fn fidelity_reads_only_the_live_half() {
        for n in 1..=4 {
            let rho = mixed_state(n);
            let mut sv = StateVector::new(n);
            for q in 0..n {
                sv.apply_1q(&gates::ry(0.4 + q as f64), q);
            }
            let (m, amps) = (rho.matrix(), sv.amplitudes());
            let mut exact = C64::ZERO;
            for r in 0..rho.dim() {
                for c in 0..rho.dim() {
                    exact += amps[r].conj() * m[(r, c)] * amps[c];
                }
            }
            let fidelity = poisoned(&rho).fidelity_with_pure(&sv);
            assert!(
                (fidelity - exact.re).abs() < 1e-12,
                "{fidelity} vs {exact:?}"
            );
        }
    }

    #[test]
    fn pauli_expectations_read_only_the_live_half() {
        let mut sv = StateVector::new(3);
        sv.apply_1q(&gates::ry(0.9), 0);
        sv.apply_1q(&(gates::rz(0.6) * gates::ry(1.3)), 2);
        sv.apply_2q(&gates::cx(), 0, 1);
        sv.apply_2q(&gates::cx(), 2, 1);
        let dirty = poisoned(&DensityMatrix::from_statevector(&sv));
        for ops in [
            vec![(0usize, Pauli::Z)],
            vec![(1, Pauli::X), (0, Pauli::X)],
            vec![(0, Pauli::Y), (1, Pauli::Y)],
            vec![(2, Pauli::Y), (0, Pauli::X), (1, Pauli::Z)],
            vec![(0, Pauli::I), (2, Pauli::X)],
        ] {
            let (a, b) = (sv.expectation_pauli(&ops), dirty.expectation_pauli(&ops));
            assert!((a - b).abs() < 1e-12, "{ops:?}: {a} vs {b}");
        }
    }

    #[test]
    fn equality_compares_live_halves_only() {
        let rho = mixed_state(3);
        let dirty = poisoned(&rho);
        assert_eq!(dirty, rho);
        assert_eq!(dirty, poisoned(&dirty));
        let mut moved = dirty.clone();
        moved.mat[1] = moved.mat[1] * 0.5;
        assert_ne!(moved, rho);
        assert_ne!(DensityMatrix::new(2), DensityMatrix::new(3));
    }
}
