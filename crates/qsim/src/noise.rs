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
//! The density engine never sums Kraus terms: program compilation
//! *lowers* every fixed op — channel or gate unitary — once to its local
//! superoperator and multiplies each run of adjacent ones into a single
//! fused entry of the program's [`SuperopTable`], applied as one
//! in-place block sweep. The Kraus list stays what the reference
//! executors apply and unravel; a compiled program does not carry it.

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
        let mut kraus = Vec::with_capacity(16);
        kraus.push(CMatrix::identity(4).scale(C64::from_real((1.0 - p).sqrt())));
        let w = C64::from_real((p / 15.0).sqrt());
        // Built per task under drift: the four Pauli matrices once, and
        // each pair scaled in place.
        let paulis = Pauli::ALL.map(Pauli::matrix);
        for (a, pa) in Pauli::ALL.iter().zip(&paulis) {
            for (b, pb) in Pauli::ALL.iter().zip(&paulis) {
                if *a == Pauli::I && *b == Pauli::I {
                    continue;
                }
                let mut pair = pa.kron(pb);
                for z in pair.as_mut_slice() {
                    *z *= w;
                }
                kraus.push(pair);
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
        let (gamma, lambda) = relaxation_parameters(t1, t2, duration);
        Self::amplitude_damping(gamma).compose(&Self::phase_damping(lambda))
    }

    /// [`KrausChannel::is_near_identity`] of
    /// [`KrausChannel::depolarizing_1q`] (`num_qubits == 1`) or
    /// [`KrausChannel::depolarizing_2q`] (`num_qubits == 2`) at `p`,
    /// answered from `p` alone: the same comparisons on the same
    /// floats, without the Kraus list.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or `num_qubits` is not 1 or 2.
    pub fn depolarizing_is_near_identity(num_qubits: usize, p: f64, eps: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let (dim, paulis) = match num_qubits {
            1 => (2, 3.0),
            2 => (4, 15.0),
            _ => panic!("only 1- and 2-qubit channels are supported"),
        };
        let s = (1.0 - p).sqrt();
        let w = (p / paulis).sqrt();
        // Every operator is a scaled signed permutation: `dim` entries
        // of one magnitude, summed in row order.
        let small = |v: f64| (1..dim).fold(v * v, |acc, _| acc + v * v).sqrt() <= eps;
        let identity = ((s - 1.0).abs() <= eps && 0.0 <= eps) || small(s);
        // A pair with an X or Y has a zero diagonal; the diagonal pairs
        // (Z; IZ, ZI, ZZ) carry both `w` and `-w`.
        let flips = (1.0 <= eps && w <= eps) || small(w);
        let phases = ((w - 1.0).abs() <= eps && (-w - 1.0).abs() <= eps && 0.0 <= eps) || small(w);
        identity && flips && phases
    }

    /// [`KrausChannel::is_near_identity`] of
    /// [`KrausChannel::thermal_relaxation`] answered from its three
    /// arguments: the same comparisons on the same floats, without the
    /// Kraus list.
    ///
    /// # Panics
    ///
    /// Same conditions as [`KrausChannel::thermal_relaxation`].
    pub fn thermal_relaxation_is_near_identity(t1: f64, t2: f64, duration: f64, eps: f64) -> bool {
        RelaxationEntries::new(t1, t2, duration).is_near_identity(eps)
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
                let product = b * a;
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

/// The amplitude-damping `gamma` and phase-damping `lambda` that
/// [`KrausChannel::thermal_relaxation`] composes.
fn relaxation_parameters(t1: f64, t2: f64, duration: f64) -> (f64, f64) {
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
    (gamma, lambda)
}

/// The entries of [`KrausChannel::thermal_relaxation`]'s operators that
/// are not 0 or 1, as composing amplitude damping `[[1, 0], [0, a]]`,
/// `[[0, decay], [0, 0]]` with phase damping `diag(1, b)`, `diag(0, c)`
/// computes them: the list is `diag(1, keep)`, `decay` at `(0, 1)` and
/// `diag(0, dephase)` — the last two dropped when identically zero.
///
/// Its `exp`s and square roots are what judging
/// ([`RelaxationEntries::is_near_identity`]) and lowering
/// ([`SuperopTable::push_relaxation`]) a relaxation both read, so a
/// caller that does both works them out once.
#[derive(Clone, Copy, Debug)]
pub struct RelaxationEntries {
    /// `sqrt(gamma)`.
    decay: f64,
    /// `b * a`.
    keep: f64,
    /// `c * a`.
    dephase: f64,
}

impl RelaxationEntries {
    /// The entries of [`KrausChannel::thermal_relaxation`] at these
    /// arguments.
    ///
    /// # Panics
    ///
    /// Same conditions as [`KrausChannel::thermal_relaxation`].
    pub fn new(t1: f64, t2: f64, duration: f64) -> Self {
        let (gamma, lambda) = relaxation_parameters(t1, t2, duration);
        assert!((0.0..=1.0).contains(&gamma), "gamma out of range");
        assert!((0.0..=1.0).contains(&lambda), "lambda out of range");
        let a = (1.0 - gamma).sqrt();
        RelaxationEntries {
            decay: gamma.sqrt(),
            keep: (1.0 - lambda).sqrt() * a,
            dephase: lambda.sqrt() * a,
        }
    }

    /// [`KrausChannel::is_near_identity`] of the relaxation: the same
    /// comparisons on the same floats, without the Kraus list.
    pub fn is_near_identity(&self, eps: f64) -> bool {
        let RelaxationEntries {
            decay,
            keep,
            dephase,
        } = *self;
        // diag(1, keep), then — when they are not identically zero and
        // dropped — `decay` alone at (0, 1) and `dephase` alone at (1, 1).
        let small = |norm_sqr: f64| norm_sqr.sqrt() <= eps;
        let kept = ((keep - 1.0).abs() <= eps && 0.0 <= eps) || small(1.0 + keep * keep);
        let decayed = decay == 0.0 || (1.0 <= eps && decay <= eps) || small(decay * decay);
        let dephased = dephase == 0.0
            || (1.0 <= eps && (dephase - 1.0).abs() <= eps)
            || small(dephase * dephase);
        kept && decayed && dephased
    }
}

/// The local superoperators of one program, in sparse rows.
///
/// A superoperator `S` here is the matrix that maps a vectorized `2x2`
/// (one-qubit) or `4x4` (two-qubit) block of `rho` — entry `(i, j)` at
/// index `i * d + j`, first operand least significant — to the same
/// block of the output state. A channel lowers to
/// `S[(i,j),(i',j')] = sum_k K_k[i,i'] * conj(K_k[j,j'])`
/// ([`SuperopTable::push`]), a unitary to `U (x) conj(U)`
/// ([`SuperopTable::push_unitary`]), and a run of adjacent fixed ops to
/// the product of its members' superoperators, so applying the whole run
/// is a single pass over the state
/// ([`crate::density::DensityMatrix::apply_superop`]). Only exact
/// zeros are dropped, so `S` is the op-by-op result re-associated: equal
/// to rounding (~1e-16), not bit for bit.
///
/// The three channels the device layer schedules also lower straight
/// from their parameters — [`SuperopTable::push_depolarizing_1q`],
/// [`SuperopTable::push_depolarizing_2q`] and
/// [`SuperopTable::push_thermal_relaxation`] write the 6, 28 and 5
/// entries that [`SuperopTable::push`] of the Kraus list can arrive at,
/// each as the same sum in the same order, so every nonzero is bit for
/// bit the same and no Kraus list is built. Their layout is the
/// channel's, not its numbers': an entry that cancels to exactly zero
/// (one-qubit depolarizing at `p = 3/4`, a relaxation's decay
/// underflowing) is kept as an explicit zero, where the Kraus lowering
/// drops it. A fused run's product schedule indexes its members'
/// entries, so it holds for every fill only if each member's layout is
/// fixed; products themselves drop their exact zeros.
///
/// Rows are kept sparse in one arena per table, sized for fleets that
/// hold thousands of programs (sealed to exact size with the program). Realness is
/// per superoperator: thermal relaxation (5 nonzeros of 16), two-qubit
/// depolarizing (28 of 256), CX and every product of those are real and
/// store no imaginary parts, whatever else the table holds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SuperopTable {
    entries: Vec<Entry>,
    /// Per superoperator: the length of each of its `D` rows, then the
    /// column of every nonzero, row by row.
    index: Vec<u8>,
    /// Per superoperator: the real part of every nonzero in `index`
    /// order, then — unless all are zero — the imaginary parts.
    vals: Vec<f64>,
}

/// Where one superoperator starts in `index` / `vals`, and its row
/// count `D` (4 or 16).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry {
    index: u32,
    vals: u32,
    dd: u8,
}

/// One superoperator borrowed from a [`SuperopTable`].
#[derive(Clone, Copy, Debug)]
pub struct Superop<'a> {
    row_len: &'a [u8],
    cols: &'a [u8],
    re: &'a [f64],
    im: &'a [f64],
}

/// One sparse row of a [`Superop`]: parallel `(columns, re, im)` slices,
/// `im` empty for a real superoperator.
pub(crate) type SuperopRow<'a> = (&'a [u8], &'a [f64], &'a [f64]);

/// Where a member of a fused run sits inside the run's support
/// `(q0, q1)`: on both qubits in that order or reversed, or — a
/// one-qubit member of a two-qubit run — on one of them. A one-qubit
/// run has only `Whole` members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Placement {
    Whole,
    Swapped,
    OnFirst,
    OnSecond,
}

/// The superoperators the runs of one fill index: a plan's lowered
/// gates, then the fill's own channels, numbered on from the gates —
/// one index space over two tables, so a fill never copies the gates.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Members<'a> {
    gates: &'a SuperopTable,
    channels: &'a SuperopTable,
}

impl<'a> Members<'a> {
    pub(crate) fn new(gates: &'a SuperopTable, channels: &'a SuperopTable) -> Self {
        Members { gates, channels }
    }

    /// Borrows member `idx`.
    pub(crate) fn get(self, idx: usize) -> Superop<'a> {
        match idx.checked_sub(self.gates.len()) {
            None => self.gates.get(idx),
            Some(channel) => self.channels.get(channel),
        }
    }
}

/// One member of a fused run as a program's plan keeps it: the index of
/// its superoperator among the run's lowered members and where it sits,
/// in two bytes — fleets hold thousands of plans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RunMember(u16);

impl RunMember {
    /// Distinct members one plan can index.
    pub(crate) const MAX_MEMBERS: usize = 1 << 14;

    /// # Panics
    ///
    /// Panics if `member` is not below [`RunMember::MAX_MEMBERS`].
    pub(crate) fn new(member: usize, place: Placement) -> Self {
        assert!(
            member < Self::MAX_MEMBERS,
            "a fused program holds at most {} distinct fixed ops",
            Self::MAX_MEMBERS
        );
        RunMember((member as u16) << 2 | place as u16)
    }

    pub(crate) fn member(self) -> usize {
        (self.0 >> 2) as usize
    }

    pub(crate) fn place(self) -> Placement {
        match self.0 & 3 {
            0 => Placement::Whole,
            1 => Placement::Swapped,
            2 => Placement::OnFirst,
            _ => Placement::OnSecond,
        }
    }
}

impl Placement {
    /// The operands (and how many) of a member placed here in a run
    /// over `support`.
    pub(crate) fn operands(self, support: &[usize]) -> ([usize; 2], usize) {
        let (s0, s1) = (support[0], support[support.len() - 1]);
        match self {
            Placement::Whole => ([s0, s1], support.len()),
            Placement::Swapped => ([s1, s0], 2),
            Placement::OnFirst => ([s0, s0], 1),
            Placement::OnSecond => ([s1, s1], 1),
        }
    }

    /// Embeds a member's superoperator indices into its run's: member
    /// index `e` lands on `map[e] + off` for every `off` (the values of
    /// the ket/bra bits the member leaves alone).
    fn embedding(self) -> ([u8; 16], &'static [u8]) {
        // Local basis index bit 0 is the first operand; a block index
        // is `i * 4 + j` over two qubits, `a * 2 + b` over one.
        let swap = |i: usize| (i & 1) << 1 | i >> 1;
        match self {
            Placement::Whole => (std::array::from_fn(|e| e as u8), &[0]),
            Placement::Swapped => (
                std::array::from_fn(|e| (swap(e >> 2) * 4 + swap(e & 3)) as u8),
                &[0],
            ),
            Placement::OnFirst => (
                std::array::from_fn(|e| (4 * (e >> 1 & 1) + (e & 1)) as u8),
                &[0, 2, 8, 10],
            ),
            Placement::OnSecond => (
                std::array::from_fn(|e| (8 * (e >> 1 & 1) + 2 * (e & 1)) as u8),
                &[0, 1, 4, 5],
            ),
        }
    }
}

/// Whether a run multiplies two-qubit superoperators: a one-qubit
/// member is `Whole` only in a one-qubit run.
fn is_two_qubit(members: Members<'_>, run: &[RunMember]) -> bool {
    run[0].place() != Placement::Whole || members.get(run[0].member()).num_qubits() == 2
}

/// How a plan's fused runs multiply, worked out once from the layouts
/// of their members, which no fill changes: per member of a run (a
/// *step*), the entries of the partial product that can be nonzero
/// and, for each, its live terms in the order the dense row update
/// adds them. An entry is live when some term reaches a live entry of
/// the step before; the identity's diagonal starts the run.
///
/// A fill ([`SuperopTable::push_product`]) runs a step as one register
/// sum per live entry, so it skips the structural zeros — most of a
/// dense product's multiply-adds — and, adding the same terms in the
/// same order, equals the dense product bit for bit: a left-out term is
/// `v * 0`, and adding a signed zero to a sum that starts at `+0` and
/// never reaches `-0` changes nothing.
///
/// Runs whose members have the same layouts in the same placements —
/// the `gate, relaxation, depolarizing` cluster of another qubit —
/// multiply alike, so they share one *shape* of the schedule.
#[derive(Clone, Debug, Default)]
pub(crate) struct ProductSchedule {
    /// Per fused run, in plan order: its shape.
    shape_of: Vec<u16>,
    /// Per shape: where its data starts in the four lists below; it
    /// ends where the next shape's starts.
    shapes: Vec<[u32; 4]>,
    /// Per step: how many live entries it writes.
    steps: Vec<u16>,
    /// Per live entry: its flat index `r * D + j`, and how many terms it
    /// sums.
    outs: Vec<[u8; 2]>,
    /// Per term: the member entry's index among its nonzeros, and the
    /// flat index `c * D + j` of the partial-product entry it scales.
    terms: Vec<[u8; 2]>,
    /// Per shape: the live columns of each of the finished product's
    /// `D` rows.
    masks: Vec<u16>,
}

/// One shape of a [`ProductSchedule`], the four lists cut to it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct Shape<'a> {
    steps: &'a [u16],
    outs: &'a [[u8; 2]],
    terms: &'a [[u8; 2]],
    masks: &'a [u16],
}

impl ProductSchedule {
    /// Appends the schedule of `run` over `members` — the layouts every
    /// later fill must give them — as a new shape or an earlier one.
    pub(crate) fn plan(&mut self, members: Members<'_>, run: &[RunMember]) {
        let start = self.ends();
        if is_two_qubit(members, run) {
            self.plan_in::<16>(members, run);
        } else {
            self.plan_in::<4>(members, run);
        }
        let planned = self.cut(start, self.ends());
        let same = (0..self.shapes.len()).find(|&k| self.shape(k, start) == planned);
        let shape = match same {
            Some(k) => {
                let [steps, outs, terms, masks] = start.map(|at| at as usize);
                self.steps.truncate(steps);
                self.outs.truncate(outs);
                self.terms.truncate(terms);
                self.masks.truncate(masks);
                k
            }
            None => {
                self.shapes.push(start);
                self.shapes.len() - 1
            }
        };
        self.shape_of
            .push(u16::try_from(shape).expect("a plan holds at most 65 536 shapes"));
    }

    fn plan_in<const D: usize>(&mut self, members: Members<'_>, run: &[RunMember]) {
        let mut live: [u16; D] = std::array::from_fn(|e| 1 << e);
        for m in run {
            let s = members.get(m.member());
            let (map, offsets) = m.place().embedding();
            let first_out = self.outs.len();
            let mut next = [0u16; D];
            let mut e0 = 0;
            for (r_m, &len) in s.row_len.iter().enumerate() {
                let row = e0..e0 + len as usize;
                for &off in offsets {
                    let r = (map[r_m] + off) as usize;
                    let col = |e: usize| (map[s.cols[e] as usize] + off) as usize;
                    next[r] = row.clone().fold(0, |acc, e| acc | live[col(e)]);
                    let mut bits = next[r];
                    while bits != 0 {
                        let j = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let first_term = self.terms.len();
                        for e in row.clone().filter(|&e| live[col(e)] >> j & 1 != 0) {
                            self.terms.push([e as u8, (col(e) * D + j) as u8]);
                        }
                        let n = self.terms.len() - first_term;
                        self.outs.push([(r * D + j) as u8, n as u8]);
                    }
                }
                e0 = row.end;
            }
            self.steps.push((self.outs.len() - first_out) as u16);
            live = next;
        }
        self.masks.extend_from_slice(&live);
    }

    /// Where each of the four lists ends.
    fn ends(&self) -> [u32; 4] {
        let lens = [
            self.steps.len(),
            self.outs.len(),
            self.terms.len(),
            self.masks.len(),
        ];
        lens.map(|len| u32::try_from(len).expect("a schedule fits u32 offsets"))
    }

    /// The four lists cut to `start..end`.
    fn cut(&self, start: [u32; 4], end: [u32; 4]) -> Shape<'_> {
        let [s, o, t, m] = start.map(|at| at as usize);
        let [se, oe, te, me] = end.map(|at| at as usize);
        Shape {
            steps: &self.steps[s..se],
            outs: &self.outs[o..oe],
            terms: &self.terms[t..te],
            masks: &self.masks[m..me],
        }
    }

    /// Shape `k`, the last of which ends at `last_end`.
    fn shape(&self, k: usize, last_end: [u32; 4]) -> Shape<'_> {
        let end = self.shapes.get(k + 1).copied().unwrap_or(last_end);
        self.cut(self.shapes[k], end)
    }

    /// The shape fused run `run` multiplies by.
    pub(crate) fn of_run(&self, run: usize) -> Shape<'_> {
        self.shape(self.shape_of[run] as usize, self.ends())
    }

    /// Drops growth slack.
    pub(crate) fn seal(&mut self) {
        self.shape_of.shrink_to_fit();
        self.shapes.shrink_to_fit();
        self.steps.shrink_to_fit();
        self.outs.shrink_to_fit();
        self.terms.shrink_to_fit();
        self.masks.shrink_to_fit();
    }

    /// Heap bytes the schedule owns.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.shapes.capacity() * std::mem::size_of::<[u32; 4]>()
            + 2 * (self.shape_of.capacity()
                + self.steps.capacity()
                + self.outs.capacity()
                + self.terms.capacity()
                + self.masks.capacity())
    }
}

/// The coefficient type a product is accumulated in: `f64` while every
/// member is real, [`C64`] otherwise.
pub(crate) trait Coeff:
    Copy + Default + std::ops::Add<Output = Self> + std::ops::Mul<Output = Self>
{
    fn from_parts(re: f64, im: f64) -> Self;
    fn parts(self) -> (f64, f64);
}

impl Coeff for f64 {
    fn from_parts(re: f64, _im: f64) -> f64 {
        re
    }
    fn parts(self) -> (f64, f64) {
        (self, 0.0)
    }
}

impl Coeff for C64 {
    fn from_parts(re: f64, im: f64) -> C64 {
        C64::new(re, im)
    }
    fn parts(self) -> (f64, f64) {
        (self.re, self.im)
    }
}

impl SuperopTable {
    /// Lowers `channel` and appends it; returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the channel acts on more than two qubits.
    pub fn push(&mut self, channel: &KrausChannel) -> usize {
        match channel.n_qubits {
            1 => self.push_kron_conj::<4>(&channel.kraus),
            2 => self.push_kron_conj::<16>(&channel.kraus),
            _ => panic!("only 1- and 2-qubit channels are supported"),
        }
    }

    /// Lowers the unitary `u` (`2x2` or `4x4`) to `U (x) conj(U)` and
    /// appends it; returns its index.
    ///
    /// # Panics
    ///
    /// Panics on any other shape.
    pub fn push_unitary(&mut self, u: &CMatrix) -> usize {
        match (u.rows(), u.cols()) {
            (2, 2) => self.push_kron_conj::<4>(std::slice::from_ref(u)),
            (4, 4) => self.push_kron_conj::<16>(std::slice::from_ref(u)),
            _ => panic!("only 1- and 2-qubit unitaries are supported"),
        }
    }

    /// [`SuperopTable::push`] of [`KrausChannel::depolarizing_1q`] at
    /// `p`, bit for bit, without the Kraus list: `sqrt(1-p) I` puts
    /// `aa` on the diagonal, then X, Y and Z add or subtract `ww` in
    /// that order (X and Y cancel exactly where the block's two
    /// coherences would mix).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn push_depolarizing_1q(&mut self, p: f64) -> usize {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let (s, w) = ((1.0 - p).sqrt(), (p / 3.0).sqrt());
        let (aa, ww) = (s * s, w * w);
        let mut rows = [[0.0f64; 4]; 4];
        (rows[0][0], rows[0][3]) = (aa + ww, ww + ww);
        (rows[1][1], rows[2][2]) = (aa - ww, aa - ww);
        (rows[3][0], rows[3][3]) = (ww + ww, aa + ww);
        self.push_rows(&rows, &[0b1001, 0b0010, 0b0100, 0b1001])
    }

    /// [`SuperopTable::push`] of [`KrausChannel::depolarizing_2q`] at
    /// `p`, bit for bit, without the sixteen Kraus matrices. Entry
    /// `(i, j) -> (i, j)` is `aa` from `sqrt(1-p) II`, then `+- ww` from
    /// the diagonal pairs IZ, ZI, ZZ in list order (minus where the pair
    /// gives `i` and `j` opposite signs); population `(i, i)` reaches
    /// each other population `(i', i')` through the four pairs that map
    /// `i` to `i'`, `ww` each; every other sum cancels exactly.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn push_depolarizing_2q(&mut self, p: f64) -> usize {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let (s, w) = ((1.0 - p).sqrt(), (p / 15.0).sqrt());
        let (aa, ww) = (s * s, w * w);
        let add = |acc: f64, minus: bool| if minus { acc - ww } else { acc + ww };
        let mut rows = [[0.0f64; 16]; 16];
        let mut touched = [0u16; 16];
        for i in 0..4 {
            for j in 0..4 {
                let e = i * 4 + j;
                // Bit 0 of a basis index is the second (Z of IZ) factor.
                let (low, high) = ((i ^ j) & 1 != 0, (i ^ j) & 2 != 0);
                rows[e][e] = add(add(add(aa, low), high), low != high);
                touched[e] |= 1 << e;
                if i != j {
                    rows[i * 5][j * 5] = ((ww + ww) + ww) + ww;
                    touched[i * 5] |= 1 << (j * 5);
                }
            }
        }
        self.push_rows(&rows, &touched)
    }

    /// [`SuperopTable::push`] of [`KrausChannel::thermal_relaxation`],
    /// bit for bit, without composing the two damping channels:
    /// populations keep 1 and gain `decay^2`, coherences scale by
    /// `keep`, the excited population by `keep^2 + dephase^2` (see
    /// `RelaxationEntries`).
    ///
    /// # Panics
    ///
    /// Same conditions as [`KrausChannel::thermal_relaxation`].
    pub fn push_thermal_relaxation(&mut self, t1: f64, t2: f64, duration: f64) -> usize {
        self.push_relaxation(&RelaxationEntries::new(t1, t2, duration))
    }

    /// [`SuperopTable::push_thermal_relaxation`] from entries already
    /// worked out.
    pub fn push_relaxation(&mut self, entries: &RelaxationEntries) -> usize {
        let RelaxationEntries {
            decay,
            keep,
            dephase,
        } = *entries;
        let mut rows = [[0.0f64; 4]; 4];
        (rows[0][0], rows[0][3]) = (1.0, decay * decay);
        (rows[1][1], rows[2][2]) = (keep, keep);
        rows[3][3] = keep * keep + dephase * dephase;
        self.push_rows(&rows, &[0b1001, 0b0010, 0b0100, 0b1000])
    }

    /// Appends `sum_m m (x) conj(m)` over `d x d` matrices (`D = d * d`):
    /// `S[i * d + j][i' * d + j'] = sum_m m[i, i'] * conj(m[j, j'])`.
    /// Only the nonzero entries of each `m` are paired up — a scaled
    /// Pauli pair has 4 of 16 — which skips nothing but exact `0 * z`
    /// terms.
    fn push_kron_conj<const D: usize>(&mut self, matrices: &[CMatrix]) -> usize {
        let d = D.isqrt();
        let mut s = [[C64::ZERO; D]; D];
        let mut touched = [0u16; D];
        let mut nonzero = [(0usize, 0usize, C64::ZERO); D];
        for m in matrices {
            let mut n = 0;
            for (e, &z) in m.as_slice().iter().enumerate() {
                if z != C64::ZERO {
                    nonzero[n] = (e / d, e % d, z);
                    n += 1;
                }
            }
            for &(i, ip, a) in &nonzero[..n] {
                for &(j, jp, b) in &nonzero[..n] {
                    s[i * d + j][ip * d + jp] += a * b.conj();
                    touched[i * d + j] |= 1 << (ip * d + jp);
                }
            }
        }
        self.push_nonzero_rows(&s, &touched)
    }

    /// Multiplies the members of `run` — applied in slice order, each
    /// embedded at its [`Placement`] in the run's support — into one
    /// superoperator by the run's `shape` of its plan's schedule, and
    /// appends it; returns its index.
    ///
    /// Runs once per distinct run per fill of a program's fused table,
    /// and a program is refilled per task under drift. Each live entry
    /// of each partial product sums its live terms in a register, in
    /// `f64` when no member has an imaginary part; an entry the
    /// schedule leaves out is a structural zero, which the dense row
    /// update would only have added `0 * x` terms to.
    pub(crate) fn push_product(
        &mut self,
        members: Members<'_>,
        run: &[RunMember],
        shape: Shape<'_>,
    ) -> usize {
        let real = run.iter().all(|m| members.get(m.member()).im.is_empty());
        match (is_two_qubit(members, run), real) {
            (false, true) => self.push_product_in::<f64, 4>(members, run, shape),
            (false, false) => self.push_product_in::<C64, 4>(members, run, shape),
            (true, true) => self.push_product_in::<f64, 16>(members, run, shape),
            (true, false) => self.push_product_in::<C64, 16>(members, run, shape),
        }
    }

    fn push_product_in<S: Coeff, const D: usize>(
        &mut self,
        members: Members<'_>,
        run: &[RunMember],
        shape: Shape<'_>,
    ) -> usize {
        // Two partial products, read and written by turns: a step reads
        // only entries the one before wrote (the identity's, at first).
        let mut products = [[[S::default(); D]; D]; 2];
        for (e, row) in products[0].iter_mut().enumerate() {
            row[e] = S::from_parts(1.0, 0.0);
        }
        let [mut acc, mut next] = products.each_mut();
        let (mut outs, mut terms) = (shape.outs, shape.terms);
        for (m, &n_outs) in run.iter().zip(shape.steps) {
            let s = members.get(m.member());
            let (src, dst) = (acc.as_flattened(), next.as_flattened_mut());
            let (step, rest) = outs.split_at(n_outs as usize);
            for &[out, n] in step {
                let (sum, rest) = terms.split_at(n as usize);
                let mut o = S::default();
                for &[e, c] in sum {
                    let e = e as usize;
                    let v = S::from_parts(s.re[e], s.im.get(e).copied().unwrap_or(0.0));
                    o = o + v * src[c as usize];
                }
                dst[out as usize] = o;
                terms = rest;
            }
            outs = rest;
            std::mem::swap(&mut acc, &mut next);
        }
        let mask = shape
            .masks
            .try_into()
            .expect("a shape ends in one mask per row");
        self.push_nonzero_rows(acc, mask)
    }

    /// Appends the superoperator with the given dense rows: entry
    /// `(r, c)` for every `c` set in `touched[r]`, zero or not. Every
    /// other entry is zero.
    fn push_rows<S: Coeff, const D: usize>(
        &mut self,
        rows: &[[S; D]; D],
        touched: &[u16; D],
    ) -> usize {
        let lens = self.index.len();
        self.entries.push(Entry {
            index: lens as u32,
            vals: self.vals.len() as u32,
            dd: D as u8,
        });
        let nnz: usize = touched.iter().map(|m| m.count_ones() as usize).sum();
        self.index.reserve(D + nnz);
        self.vals.reserve(nnz);
        let mut complex = false;
        self.index
            .extend(touched.iter().map(|m| m.count_ones() as u8));
        for (row, &mask) in rows.iter().zip(touched) {
            let mut bits = mask;
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (re, im) = row[c].parts();
                self.index.push(c as u8);
                self.vals.push(re);
                complex |= im != 0.0;
            }
        }
        if complex {
            // The imaginary parts, same order.
            for (row, &mask) in rows.iter().zip(touched) {
                let mut bits = mask;
                while bits != 0 {
                    let c = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.vals.push(row[c].parts().1);
                }
            }
        }
        self.entries.len() - 1
    }

    /// [`SuperopTable::push_rows`] of the entries set in `touched` that
    /// are not exactly zero.
    fn push_nonzero_rows<S: Coeff, const D: usize>(
        &mut self,
        rows: &[[S; D]; D],
        touched: &[u16; D],
    ) -> usize {
        let nonzero = std::array::from_fn(|r| {
            let (mut bits, mut kept) = (touched[r], 0);
            while bits != 0 {
                let c = bits.trailing_zeros();
                bits &= bits - 1;
                let (re, im) = rows[r][c as usize].parts();
                if re != 0.0 || im != 0.0 {
                    kept |= 1 << c;
                }
            }
            kept
        });
        self.push_rows(rows, &nonzero)
    }

    /// Number of superoperators held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds no superoperator.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// An empty table with room for `n` superoperators of the sizes
    /// programs are made of (a 16-row index with a Pauli mixture's 28
    /// columns, a one-qubit unitary's 16 complex values) — a table
    /// filled and dropped per refresh should not grow as it goes.
    pub(crate) fn with_capacity(n: usize) -> Self {
        SuperopTable {
            entries: Vec::with_capacity(n),
            index: Vec::with_capacity(n * 44),
            vals: Vec::with_capacity(n * 32),
        }
    }

    /// Lengths of the table's three buffers: what
    /// [`SuperopTable::with_room`] reserves for a table filled alike.
    pub(crate) fn room(&self) -> [usize; 3] {
        [self.entries.len(), self.index.len(), self.vals.len()]
    }

    /// An empty table with exactly the [`SuperopTable::room`] of one
    /// filled before — a fresh program of a known plan fills without
    /// growing.
    pub(crate) fn with_room([entries, index, vals]: [usize; 3]) -> Self {
        SuperopTable {
            entries: Vec::with_capacity(entries),
            index: Vec::with_capacity(index),
            vals: Vec::with_capacity(vals),
        }
    }

    /// Empties the table, keeping its allocations for the next fill.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
        self.vals.clear();
    }

    /// Heap bytes the table owns.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
            + self.index.capacity()
            + self.vals.capacity() * std::mem::size_of::<f64>()
    }

    /// Drops growth slack: a sealed table owns exactly the bytes it
    /// uses, which is what thousands of live programs multiply.
    pub(crate) fn seal(&mut self) {
        self.entries.shrink_to_fit();
        self.index.shrink_to_fit();
        self.vals.shrink_to_fit();
    }

    /// Borrows superoperator `idx`.
    pub fn get(&self, idx: usize) -> Superop<'_> {
        let Entry { index, vals, dd } = self.entries[idx];
        let (i1, v1) = self
            .entries
            .get(idx + 1)
            .map_or((self.index.len(), self.vals.len()), |e| {
                (e.index as usize, e.vals as usize)
            });
        let (row_len, cols) = self.index[index as usize..i1].split_at(dd as usize);
        // Real parts, then the imaginary parts or nothing.
        let (re, im) = self.vals[vals as usize..v1].split_at(cols.len());
        Superop {
            row_len,
            cols,
            re,
            im,
        }
    }
}

impl<'a> Superop<'a> {
    /// Number of qubits the superoperator acts on (1 or 2).
    pub fn num_qubits(&self) -> usize {
        self.row_len.len().trailing_zeros() as usize / 2
    }

    /// Nonzero entries of `S`.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Whether every entry of `S` is real (no imaginary parts stored;
    /// the sweep then multiplies by `f64` coefficients).
    pub fn is_real(&self) -> bool {
        self.im.is_empty()
    }

    /// The stored entries of `S` as `(row, column, value)`, row by row
    /// and in column order within a row — a real superoperator's with
    /// zero imaginary parts.
    pub fn entries(self) -> impl Iterator<Item = (usize, usize, C64)> + 'a {
        let rows = (self.row_len.iter().enumerate())
            .flat_map(|(r, &len)| std::iter::repeat_n(r, len as usize));
        rows.zip(self.cols).enumerate().map(move |(e, (r, &c))| {
            let im = self.im.get(e).copied().unwrap_or(0.0);
            (r, c as usize, C64::new(self.re[e], im))
        })
    }

    /// A one-qubit `S` expanded to a dense `4x4` (absent entries zero),
    /// in `f64` for a real superoperator, [`C64`] otherwise.
    pub(crate) fn dense_1q<C: Coeff>(&self) -> [[C; 4]; 4] {
        let mut m = [[C::default(); 4]; 4];
        for (dense, (cols, re, im)) in m.iter_mut().zip(self.rows()) {
            for (e, &col) in cols.iter().enumerate() {
                let im = im.get(e).copied().unwrap_or(0.0);
                dense[col as usize & 3] = C::from_parts(re[e], im);
            }
        }
        m
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
    fn realness_is_per_superoperator() {
        let mut table = SuperopTable::default();
        let relax = table.push(&KrausChannel::thermal_relaxation(100.0, 80.0, 3.0));
        let skew = table.push_unitary(&(crate::gates::rz(0.3) * crate::gates::ry(0.4)));
        let depol = table.push(&KrausChannel::depolarizing_2q(0.02));
        let cx = table.push_unitary(&crate::gates::cx());
        // Pauli mixtures, damping and CX are real and stay so around a
        // complex neighbour.
        for (idx, nnz, qubits) in [(relax, 5, 1), (depol, 28, 2), (cx, 16, 2)] {
            let s = table.get(idx);
            assert!(
                s.is_real(),
                "superoperator {idx} must store no imaginary parts"
            );
            assert_eq!((s.nnz(), s.num_qubits()), (nnz, qubits));
        }
        let s = table.get(skew);
        assert!(!s.is_real());
        assert!(s
            .rows()
            .iter()
            .any(|(_, _, im)| im.iter().any(|&v| v != 0.0)));
        // Sealing trims slack without touching content.
        let before = table.clone();
        table.seal();
        assert_eq!(table, before);
        assert_eq!(table.vals.capacity(), table.vals.len());
        assert_eq!(table.index.capacity(), table.index.len());
    }

    /// The nonzero entries of `table`'s first superoperator, as bits,
    /// and whether it stores imaginary parts.
    fn nonzeros(table: &SuperopTable) -> (Vec<(usize, usize, u64, u64)>, bool) {
        let s = table.get(0);
        let entries = s.entries().filter(|&(.., z)| z != C64::ZERO);
        let bits = entries.map(|(r, c, z)| (r, c, z.re.to_bits(), z.im.to_bits()));
        (bits.collect(), s.is_real())
    }

    /// `closed` holds every nonzero the Kraus lowering of `channel`
    /// holds, bit for bit, with the same realness, and explicit zeros
    /// only where its layout of `nnz` entries has more.
    fn assert_closed_form(closed: &SuperopTable, channel: &KrausChannel, nnz: usize, what: &str) {
        let mut lowered = SuperopTable::default();
        lowered.push(channel);
        assert_eq!(nonzeros(closed), nonzeros(&lowered), "{what}");
        assert_eq!(closed.get(0).nnz(), nnz, "{what}: the layout is the key's");
    }

    #[test]
    fn closed_forms_equal_the_kraus_lowering_at_the_edges() {
        let thresholds = [0.0, 1e-12, 1e-3, 0.3, 1.0, 2.5];
        for p in [0.0, 1e-30, 1e-3, 0.02, 0.5, 0.75, 15.0 / 16.0, 1.0] {
            let mut one = SuperopTable::default();
            one.push_depolarizing_1q(p);
            let what = format!("1q p={p}");
            assert_closed_form(&one, &KrausChannel::depolarizing_1q(p), 6, &what);
            let mut two = SuperopTable::default();
            two.push_depolarizing_2q(p);
            let what = format!("2q p={p}");
            assert_closed_form(&two, &KrausChannel::depolarizing_2q(p), 28, &what);
            for eps in thresholds {
                for (n, ch) in [
                    (1, KrausChannel::depolarizing_1q(p)),
                    (2, KrausChannel::depolarizing_2q(p)),
                ] {
                    assert_eq!(
                        KrausChannel::depolarizing_is_near_identity(n, p, eps),
                        ch.is_near_identity(eps),
                        "{n}q p={p} eps={eps}"
                    );
                }
            }
        }
        // T2 at, below and far below 2 T1; no time, a vanishing idle
        // window, and a wait long enough to zero the coherences.
        for (t1, t2, dt) in [
            (100.0, 80.0, 3.0),
            (100.0, 200.0, 3.0),
            (100.0, 80.0, 0.0),
            (100.0, 80.0, 1e-9),
            (100.0, 1e-3, 1e5),
            (500.0, 1000.0, 1e5),
        ] {
            let mut t = SuperopTable::default();
            t.push_thermal_relaxation(t1, t2, dt);
            let ch = KrausChannel::thermal_relaxation(t1, t2, dt);
            assert_closed_form(&t, &ch, 5, &format!("T1={t1} T2={t2} dt={dt}"));
            for eps in thresholds {
                assert_eq!(
                    KrausChannel::thermal_relaxation_is_near_identity(t1, t2, dt, eps),
                    ch.is_near_identity(eps),
                    "T1={t1} T2={t2} dt={dt} eps={eps}"
                );
            }
        }
    }

    /// Applies `run` member by member, then as one product, to the same
    /// random-ish state; the fused sweep must agree to rounding.
    fn assert_product_matches_members(
        members: &SuperopTable,
        run: &[(usize, Placement)],
        support: &[usize],
    ) -> SuperopTable {
        let n = 3;
        let mut rho = DensityMatrix::new(n);
        for q in 0..n {
            rho.apply_unitary_1q(&crate::gates::ry(0.4 + q as f64), q);
            rho.apply_unitary_1q(&crate::gates::rz(1.1 - q as f64), q);
        }
        rho.apply_unitary_2q(&crate::gates::cx(), 0, 2);
        rho.apply_unitary_2q(&crate::gates::cx(), 1, 0);
        let mut stepped = rho.clone();
        for &(m, place) in run {
            let (qs, n) = place.operands(support);
            stepped.apply_superop(members.get(m), &qs[..n]);
        }
        let mut fused = SuperopTable::default();
        let packed: Vec<RunMember> = run.iter().map(|&(m, p)| RunMember::new(m, p)).collect();
        let none = SuperopTable::default();
        let members = Members::new(members, &none);
        let mut schedule = ProductSchedule::default();
        schedule.plan(members, &packed);
        let entry = fused.push_product(members, &packed, schedule.of_run(0));
        rho.apply_superop(fused.get(entry), support);
        assert!(
            rho.matrix().approx_eq(&stepped.matrix(), 1e-13),
            "fused product diverges from its members on {support:?}"
        );
        fused
    }

    #[test]
    fn products_match_member_by_member_application_at_every_placement() {
        let mut members = SuperopTable::default();
        let sx = members.push_unitary(&crate::gates::sx());
        let relax = members.push(&KrausChannel::thermal_relaxation(100.0, 80.0, 3.0));
        let depol1 = members.push(&KrausChannel::depolarizing_1q(0.01));
        let cx = members.push_unitary(&crate::gates::cx());
        let depol2 = members.push(&KrausChannel::depolarizing_2q(0.02));
        use Placement::*;
        // A one-qubit cluster: complex, dense 4x4.
        let one = [(sx, Whole), (relax, Whole), (depol1, Whole)];
        let fused = assert_product_matches_members(&members, &one, &[1]);
        assert_eq!(fused.get(0).nnz(), 16);
        assert!(!fused.get(0).is_real());
        // A CX cluster with idle catch-up on either operand, on every
        // ordered pair: real, and far sparser than 256.
        let two = [
            (relax, OnSecond),
            (cx, Whole),
            (relax, OnFirst),
            (relax, OnSecond),
            (depol2, Whole),
        ];
        for support in [[0, 1], [1, 0], [0, 2], [2, 0], [1, 2], [2, 1]] {
            let fused = assert_product_matches_members(&members, &two, &support);
            assert!(fused.get(0).is_real(), "a CX run has no imaginary part");
            assert!(fused.get(0).nnz() <= 48, "nnz {}", fused.get(0).nnz());
        }
        // Reversed operand order inside a run, and a one-qubit run
        // grown from either side.
        let mixed = [
            (sx, OnFirst),
            (depol1, OnFirst),
            (cx, Whole),
            (cx, Swapped),
            (sx, OnSecond),
            (depol2, Swapped),
        ];
        for support in [[0, 1], [2, 1], [2, 0]] {
            assert_product_matches_members(&members, &mixed, &support);
        }
    }

    #[test]
    fn runs_of_one_shape_share_their_schedule() {
        let mut members = SuperopTable::default();
        let sx = members.push_unitary(&crate::gates::sx());
        let relax = [(100.0, 80.0, 3.0), (90.0, 20.0, 7.0)]
            .map(|(t1, t2, dt)| members.push_thermal_relaxation(t1, t2, dt));
        let depol = [0.01, 0.75].map(|p| members.push_depolarizing_1q(p));
        let cx = members.push_unitary(&crate::gates::cx());
        let none = SuperopTable::default();
        let members = Members::new(&members, &none);
        let pack = |run: &[(usize, Placement)]| -> Vec<RunMember> {
            run.iter().map(|&(m, p)| RunMember::new(m, p)).collect()
        };
        use Placement::*;
        // The cluster of two qubits on their own channels (one of which
        // cancels an entry to zero), then a CX run.
        let runs = [
            pack(&[(sx, Whole), (relax[0], Whole), (depol[0], Whole)]),
            pack(&[(sx, Whole), (relax[1], Whole), (depol[1], Whole)]),
            pack(&[(cx, Whole), (relax[0], OnFirst), (relax[1], OnSecond)]),
        ];
        let mut schedule = ProductSchedule::default();
        for run in &runs {
            schedule.plan(members, run);
        }
        assert_eq!(schedule.shape_of, [0, 0, 1]);
        assert_eq!(schedule.shapes.len(), 2);
        // Each run's product by the shared shape is its own product.
        for (i, run) in runs.iter().enumerate() {
            let mut alone = ProductSchedule::default();
            alone.plan(members, run);
            let (mut shared, mut own) = (SuperopTable::default(), SuperopTable::default());
            shared.push_product(members, run, schedule.of_run(i));
            own.push_product(members, run, alone.of_run(0));
            assert_eq!(shared, own, "run {i}");
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
