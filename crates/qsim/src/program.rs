//! Compiled programs and allocation-free simulation engines.
//!
//! The trainers in this workspace execute the *same* circuit structure
//! millions of times (8192-shot jobs per parameter-shift term, per epoch,
//! per device). The naive path re-derives everything per job: gate
//! matrices are re-materialized per op, Kraus channels are rebuilt per
//! schedule event, every channel application clones the full density
//! matrix once per Kraus operator, and every shot costs one hash-map
//! insert. This module is the engine room that removes all of that:
//!
//! * [`CompiledProgram`] — a flat op-tape of pre-resolved gate matrices
//!   and interned Kraus channels, built once (per noise epoch) by
//!   [`ProgramBuilder`] and replayed many times;
//! * [`SimEngine`] — the engine abstraction: run a compiled program for
//!   `shots` measurements;
//! * [`DensityEngine`] — exact density-matrix evolution over a
//!   persistent state: every channel was lowered to its local
//!   superoperator at compile time and applies as one in-place block
//!   sweep (no Kraus sum, no state copy), and sampling writes a dense
//!   histogram instead of one hash-map insert per shot;
//! * [`TrajectoryEngine`] — Monte-Carlo quantum-trajectory unraveling
//!   that replays the tape per trajectory with a reusable candidate
//!   buffer instead of cloning the state per Kraus operator.
//!
//! The trajectory engine is **bit-for-bit equivalent** to the
//! straightforward implementation it replaces (same floating-point
//! operations, same RNG draw sequence). The density engine's unitary
//! passes and sampling are too; its channel sweep re-associates the
//! Kraus sum, so its state equals the straightforward one to 1e-12
//! rather than bit for bit — sampled counts are equal on every pinned
//! fixture, and every production path (serial, worker-team, folded,
//! group-fork, resumed) is byte-identical to every other because they
//! share the one kernel and op order.
//!
//! # Examples
//!
//! ```
//! use qsim::program::{DensityEngine, ProgramBuilder, SimEngine};
//! use qsim::sampler::ReadoutError;
//! use qsim::{gates, KrausChannel};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // Compile a noisy Bell pair once...
//! let mut b = ProgramBuilder::new(2);
//! let _ = b.push_unitary(gates::h(), &[0]);
//! let _ = b.push_unitary(gates::cx(), &[0, 1]);
//! b.push_channel(&KrausChannel::depolarizing_1q(0.02), &[0]);
//! let program = b.finish(ReadoutError::uniform(2, 0.0), 500.0);
//!
//! // ...then replay it as often as needed without reallocating.
//! let mut engine = DensityEngine::new();
//! let mut rng = StdRng::seed_from_u64(7);
//! let counts = engine.run(&program, 4096, &mut rng);
//! assert_eq!(counts.total(), 4096);
//! ```

use crate::density::DensityMatrix;
use crate::matrix::CMatrix;
use crate::noise::{KrausChannel, SuperopTable};
use crate::parallel::ParallelCtx;
use crate::sampler::{Counts, ReadoutError, ShotSampler};
use crate::statevector::StateVector;
use rand::rngs::StdRng;
use rand::{Rng, RngCore};

/// One instruction of a compiled program's flat op-tape.
///
/// Unitary ops index into [`CompiledProgram`]'s matrix table (so a
/// rebind only swaps small matrices, never the tape); channel ops index
/// into the interned channel table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TapeOp {
    /// Apply the 2x2 matrix in `slot` to qubit `q`.
    Unitary1q {
        /// Matrix-table slot.
        slot: usize,
        /// Target qubit.
        q: usize,
    },
    /// Apply the 4x4 matrix in `slot` to the ordered pair `(q0, q1)`.
    Unitary2q {
        /// Matrix-table slot.
        slot: usize,
        /// First operand (least-significant in the matrix basis).
        q0: usize,
        /// Second operand.
        q1: usize,
    },
    /// Apply the 1-qubit Kraus channel `channel` to qubit `q`.
    Channel1q {
        /// Channel-table index.
        channel: usize,
        /// Target qubit.
        q: usize,
    },
    /// Apply the 2-qubit Kraus channel `channel` to `(q0, q1)`.
    Channel2q {
        /// Channel-table index.
        channel: usize,
        /// First operand.
        q0: usize,
        /// Second operand.
        q1: usize,
    },
}

/// A circuit + noise schedule compiled to an executable form: a flat
/// op-tape over a table of pre-resolved gate matrices and a table of
/// interned Kraus channels, each lowered once to the superoperator the
/// density engine sweeps with.
///
/// Build once with [`ProgramBuilder`] (typically per calibration epoch),
/// rebind parameterized gates cheaply with
/// [`CompiledProgram::set_unitary`], and execute with any [`SimEngine`].
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    n_qubits: usize,
    ops: Vec<TapeOp>,
    unitaries: Vec<CMatrix>,
    channels: Vec<KrausChannel>,
    /// `channels`, lowered index for index.
    superops: SuperopTable,
    readout: ReadoutError,
    duration_ns: f64,
    skipped_channels: usize,
}

impl CompiledProgram {
    /// Number of qubits the program acts on.
    #[inline]
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The op-tape in execution order.
    #[inline]
    pub fn ops(&self) -> &[TapeOp] {
        &self.ops
    }

    /// Number of distinct (interned) Kraus channels.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of matrix-table slots.
    #[inline]
    pub fn num_unitaries(&self) -> usize {
        self.unitaries.len()
    }

    /// Channels elided by the identity fast-path during compilation.
    #[inline]
    pub fn skipped_channels(&self) -> usize {
        self.skipped_channels
    }

    /// The readout confusion model applied at sampling time.
    #[inline]
    pub fn readout(&self) -> &ReadoutError {
        &self.readout
    }

    /// Scheduled wall-clock duration of one repetition, nanoseconds
    /// (readout included).
    #[inline]
    pub fn duration_ns(&self) -> f64 {
        self.duration_ns
    }

    /// Replaces the matrix in `slot` — the rebind path for parameterized
    /// gates (the tape and channel table are untouched).
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or the replacement has a
    /// different shape.
    pub fn set_unitary(&mut self, slot: usize, m: CMatrix) {
        let old = &self.unitaries[slot];
        assert_eq!(
            (old.rows(), old.cols()),
            (m.rows(), m.cols()),
            "rebind must preserve the matrix shape of slot {slot}"
        );
        self.unitaries[slot] = m;
    }

    /// Borrows the matrix in `slot`.
    pub fn unitary(&self, slot: usize) -> &CMatrix {
        &self.unitaries[slot]
    }

    /// Borrows an interned channel.
    pub fn channel(&self, idx: usize) -> &KrausChannel {
        &self.channels[idx]
    }

    /// Tape index of the first unitary op using any of `slots`
    /// (`ops.len()` when none does) — the divergence point a batched
    /// shift group forks at, and the boundary the shared-prefix cache
    /// keys on.
    pub fn first_op_using(&self, slots: &[usize]) -> usize {
        self.ops
            .iter()
            .position(|op| {
                matches!(
                    *op,
                    TapeOp::Unitary1q { slot: s, .. } | TapeOp::Unitary2q { slot: s, .. }
                    if slots.contains(&s)
                )
            })
            .unwrap_or(self.ops.len())
    }

    /// Appends a value-exact fingerprint of `ops[..k]` to `out`: op
    /// kinds, qubit wiring, the bit patterns of every resolved matrix
    /// entry and every Kraus operator entry, and the qubit count. Two
    /// programs with equal fingerprints evolve `|0..0><0..0|` through
    /// bit-identical floating-point work over that prefix — the
    /// cross-template shared-prefix cache compares these (full content,
    /// not a hash), so sharing is exact, never approximate.
    pub fn prefix_fingerprint(&self, k: usize, out: &mut Vec<u64>) {
        out.push(self.n_qubits as u64);
        for op in &self.ops[..k] {
            match *op {
                TapeOp::Unitary1q { slot, q } => {
                    out.push(1);
                    out.push(q as u64);
                    for c in self.unitaries[slot].as_slice() {
                        out.push(c.re.to_bits());
                        out.push(c.im.to_bits());
                    }
                }
                TapeOp::Unitary2q { slot, q0, q1 } => {
                    out.push(2);
                    out.push((q0 as u64) << 32 | q1 as u64);
                    for c in self.unitaries[slot].as_slice() {
                        out.push(c.re.to_bits());
                        out.push(c.im.to_bits());
                    }
                }
                TapeOp::Channel1q { channel, q } => {
                    out.push(3);
                    out.push(q as u64);
                    for m in self.channels[channel].operators() {
                        for c in m.as_slice() {
                            out.push(c.re.to_bits());
                            out.push(c.im.to_bits());
                        }
                    }
                }
                TapeOp::Channel2q { channel, q0, q1 } => {
                    out.push(4);
                    out.push((q0 as u64) << 32 | q1 as u64);
                    for m in self.channels[channel].operators() {
                        for c in m.as_slice() {
                            out.push(c.re.to_bits());
                            out.push(c.im.to_bits());
                        }
                    }
                }
            }
        }
    }
}

/// Builds a [`CompiledProgram`] op by op, interning channels and
/// eliding near-identity ones.
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    n_qubits: usize,
    ops: Vec<TapeOp>,
    unitaries: Vec<CMatrix>,
    /// Whether the slot may be shared with later identical pushes
    /// (false for parameterized placeholders, which must stay unique so
    /// a rebind cannot alias an unrelated gate).
    shareable: Vec<bool>,
    channels: Vec<KrausChannel>,
    superops: SuperopTable,
    identity_epsilon: f64,
    skipped_channels: usize,
}

impl ProgramBuilder {
    /// Default epsilon below which a channel's non-identity content is
    /// treated as zero and the channel is elided (see
    /// [`KrausChannel::is_near_identity`]). Far below every physical
    /// error rate the device layer produces, so eliding at this level
    /// cannot change sampled counts in practice.
    pub const DEFAULT_IDENTITY_EPSILON: f64 = 1e-12;

    /// Starts a program over `n_qubits`.
    pub fn new(n_qubits: usize) -> Self {
        ProgramBuilder {
            n_qubits,
            ops: Vec::new(),
            unitaries: Vec::new(),
            shareable: Vec::new(),
            channels: Vec::new(),
            superops: SuperopTable::default(),
            identity_epsilon: Self::DEFAULT_IDENTITY_EPSILON,
            skipped_channels: 0,
        }
    }

    /// Overrides the identity fast-path threshold (builder style). Zero
    /// disables elision entirely.
    pub fn with_identity_epsilon(mut self, eps: f64) -> Self {
        self.identity_epsilon = eps;
        self
    }

    /// Appends a resolved gate matrix acting on `qubits` (1 or 2
    /// entries, operand order), sharing an existing slot when an
    /// identical shareable matrix was pushed before. Returns the slot.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range qubit, duplicate operands, or a matrix
    /// shape that does not match the operand count.
    pub fn push_unitary(&mut self, m: CMatrix, qubits: &[usize]) -> usize {
        self.push_unitary_slot(m, qubits, true)
    }

    /// Appends a *placeholder* matrix for a parameterized gate. The slot
    /// is never shared, so [`CompiledProgram::set_unitary`] on it cannot
    /// affect any other op. Returns the slot.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ProgramBuilder::push_unitary`].
    pub fn push_parameterized(&mut self, placeholder: CMatrix, qubits: &[usize]) -> usize {
        self.push_unitary_slot(placeholder, qubits, false)
    }

    fn push_unitary_slot(&mut self, m: CMatrix, qubits: &[usize], share: bool) -> usize {
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        let dim = 1usize << qubits.len();
        assert_eq!(
            (m.rows(), m.cols()),
            (dim, dim),
            "matrix shape must match the {}-qubit operand list",
            qubits.len()
        );
        let slot = if share {
            self.unitaries
                .iter()
                .enumerate()
                .position(|(i, u)| self.shareable[i] && *u == m)
                .unwrap_or_else(|| {
                    self.unitaries.push(m);
                    self.shareable.push(true);
                    self.unitaries.len() - 1
                })
        } else {
            self.unitaries.push(m);
            self.shareable.push(false);
            self.unitaries.len() - 1
        };
        match *qubits {
            [q] => self.ops.push(TapeOp::Unitary1q { slot, q }),
            [q0, q1] => {
                assert!(q0 != q1, "2q operands must differ");
                self.ops.push(TapeOp::Unitary2q { slot, q0, q1 });
            }
            _ => panic!("only 1- and 2-qubit unitaries are supported"),
        }
        slot
    }

    /// Appends a Kraus channel acting on `qubits`, interning it against
    /// previously pushed identical channels; a channel seen for the
    /// first time is lowered to its superoperator here. Channels within
    /// `identity_epsilon` of the identity are elided entirely (the
    /// fast-path for near-zero-rate noise).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or out-of-range qubits.
    pub fn push_channel(&mut self, channel: &KrausChannel, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            channel.num_qubits(),
            "channel arity does not match the qubit list"
        );
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        if self.identity_epsilon > 0.0 && channel.is_near_identity(self.identity_epsilon) {
            self.skipped_channels += 1;
            return;
        }
        let idx = self
            .channels
            .iter()
            .position(|c| c == channel)
            .unwrap_or_else(|| {
                self.channels.push(channel.clone());
                self.superops.push(channel)
            });
        match *qubits {
            [q] => self.ops.push(TapeOp::Channel1q { channel: idx, q }),
            [q0, q1] => {
                assert!(q0 != q1, "2q channel operands must differ");
                self.ops.push(TapeOp::Channel2q {
                    channel: idx,
                    q0,
                    q1,
                });
            }
            _ => panic!("only 1- and 2-qubit channels are supported"),
        }
    }

    /// Seals the program with its readout model and scheduled duration.
    pub fn finish(self, readout: ReadoutError, duration_ns: f64) -> CompiledProgram {
        CompiledProgram {
            n_qubits: self.n_qubits,
            ops: self.ops,
            unitaries: self.unitaries,
            channels: self.channels,
            superops: self.superops,
            readout,
            duration_ns,
            skipped_channels: self.skipped_channels,
        }
    }
}

/// A simulation engine: executes a [`CompiledProgram`] for `shots`
/// measurements.
///
/// Engines own their scratch state, so a long-lived engine executes an
/// unbounded stream of programs without per-job allocation. The RNG is
/// taken as a trait object so engines stay object-safe (backends hold
/// them behind one field regardless of the generator type).
pub trait SimEngine {
    /// Runs the program and returns the measured counts.
    fn run(&mut self, program: &CompiledProgram, shots: usize, rng: &mut dyn RngCore) -> Counts;
}

/// Exact density-matrix engine over a persistent state.
///
/// Equivalent to evolving a fresh [`DensityMatrix`] per job, but: the
/// state allocation is reused, channels apply as the program's lowered
/// superoperators (one in-place sweep each), probabilities and the
/// sampling CDF live in reusable buffers, and counts are assembled from
/// a dense histogram (no per-shot hash-map insert).
#[derive(Clone, Debug, Default)]
pub struct DensityEngine {
    rho: Option<DensityMatrix>,
    fork: Option<DensityMatrix>,
    probs: Vec<f64>,
    sampler: ShotSampler,
    ctx: ParallelCtx,
}

impl DensityEngine {
    /// Creates an engine; buffers are sized lazily on first use.
    /// Execution is serial until [`DensityEngine::set_parallel_ctx`]
    /// attaches a worker team.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches (or detaches, with a serial context) the worker team
    /// the kernel passes fan out over. Results are byte-identical at
    /// any worker count.
    pub fn set_parallel_ctx(&mut self, ctx: ParallelCtx) {
        self.ctx = ctx;
    }

    /// The engine's current parallel context.
    pub fn parallel_ctx(&self) -> &ParallelCtx {
        &self.ctx
    }

    /// Resets the persistent state to `|0...0><0...0|` over `n` qubits.
    fn reset(&mut self, n: usize) {
        match &mut self.rho {
            Some(r) => r.reset_to(n),
            None => {
                self.rho = Some(DensityMatrix::new(n));
            }
        }
    }

    /// Replays a tape segment over the persistent state.
    fn evolve_ops(&mut self, program: &CompiledProgram, ops: &[TapeOp]) {
        let rho = self.rho.as_mut().expect("state initialized by reset");
        for op in ops {
            match *op {
                TapeOp::Unitary1q { slot, q } => {
                    rho.apply_unitary_1q_ctx(program.unitary(slot), q, &self.ctx)
                }
                TapeOp::Unitary2q { slot, q0, q1 } => {
                    rho.apply_unitary_2q_ctx(program.unitary(slot), q0, q1, &self.ctx)
                }
                TapeOp::Channel1q { channel, q } => {
                    rho.apply_superop_ctx(program.superops.get(channel), &[q], &self.ctx)
                }
                TapeOp::Channel2q { channel, q0, q1 } => {
                    rho.apply_superop_ctx(program.superops.get(channel), &[q0, q1], &self.ctx)
                }
            }
        }
    }

    /// Reads the trace-normalized diagonal and applies readout
    /// confusion — the post-evolution half of a run, leaving the
    /// distribution in `self.probs`. The state itself stays
    /// unnormalized: every caller overwrites or drops it next.
    fn finish_probs(&mut self, program: &CompiledProgram) {
        let rho = self.rho.as_ref().expect("state initialized by reset");
        rho.normalized_probabilities_into(&mut self.probs);
        program.readout().apply_in_place(&mut self.probs);
    }

    /// Generic-RNG entry point (monomorphized callers avoid the trait
    /// object).
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds [`DensityMatrix::MAX_QUBITS`].
    pub fn run_program<R: RngCore + ?Sized>(
        &mut self,
        program: &CompiledProgram,
        shots: usize,
        rng: &mut R,
    ) -> Counts {
        let n = program.num_qubits();
        self.reset(n);
        self.evolve_ops(program, program.ops());
        self.finish_probs(program);
        self.sampler.sample_counts(&self.probs, n, shots, rng)
    }

    /// Evolves the program and writes its post-readout measurement
    /// distribution into `out` *without sampling* — the batched
    /// execution path: a backend evolves many runs RNG-free first, then
    /// consumes the RNG in run order via
    /// [`DensityEngine::sample_probs`], preserving the exact draw
    /// sequence of interleaved [`DensityEngine::run_program`] calls.
    ///
    /// # Panics
    ///
    /// Panics if the program exceeds [`DensityMatrix::MAX_QUBITS`].
    pub fn evolve_probs(&mut self, program: &CompiledProgram, out: &mut Vec<f64>) {
        self.reset(program.num_qubits());
        self.evolve_ops(program, program.ops());
        self.finish_probs(program);
        out.clear();
        out.extend_from_slice(&self.probs);
    }

    /// Evolves a forward/backward parameter-shift pair in one pass.
    ///
    /// The two programs of a shift pair are identical except for the
    /// matrix in `slot` (parameterized slots are never shared), so the
    /// tape prefix before the op using `slot` is evolved *once*, the
    /// state forked, and only the remainder runs twice: `fwd` receives
    /// the distribution of the program as currently bound, `bck` the
    /// distribution with `alt` substituted in `slot`. Byte-identical to
    /// two full [`DensityEngine::evolve_probs`] calls — the shared
    /// prefix computes the identical floating-point state either way.
    ///
    /// # Panics
    ///
    /// Panics if no tape op uses `slot`.
    pub fn evolve_shift_pair_probs(
        &mut self,
        program: &CompiledProgram,
        slot: usize,
        alt: &CMatrix,
        fwd: &mut Vec<f64>,
        bck: &mut Vec<f64>,
    ) {
        let ops = program.ops();
        let split = ops
            .iter()
            .position(|op| {
                matches!(
                    *op,
                    TapeOp::Unitary1q { slot: s, .. } | TapeOp::Unitary2q { slot: s, .. }
                    if s == slot
                )
            })
            .expect("shift slot must appear on the tape");
        self.reset(program.num_qubits());
        self.evolve_ops(program, &ops[..split]);
        let rho = self.rho.as_ref().expect("state initialized by reset");
        match &mut self.fork {
            Some(f) => f.copy_from(rho),
            None => self.fork = Some(rho.clone()),
        }
        // Forward: finish the tape as bound.
        self.evolve_ops(program, &ops[split..]);
        self.finish_probs(program);
        fwd.clear();
        fwd.extend_from_slice(&self.probs);
        // Backward: restore the prefix, swap in the alternative matrix
        // at the split op, finish the remainder.
        let rho = self.rho.as_mut().expect("state initialized by reset");
        rho.copy_from(self.fork.as_ref().expect("fork snapshot taken above"));
        match ops[split] {
            TapeOp::Unitary1q { q, .. } => rho.apply_unitary_1q_ctx(alt, q, &self.ctx),
            TapeOp::Unitary2q { q0, q1, .. } => rho.apply_unitary_2q_ctx(alt, q0, q1, &self.ctx),
            _ => unreachable!("split op is a unitary by construction"),
        }
        self.evolve_ops(program, &ops[split + 1..]);
        self.finish_probs(program);
        bck.clear();
        bck.extend_from_slice(&self.probs);
    }

    /// Walks the base-bound tape **once**, forking an N-way shift group
    /// off it — the generalization of
    /// [`DensityEngine::evolve_shift_pair_probs`] from one
    /// forward/backward pair to a whole batch of variants.
    ///
    /// Each variant diverges from the base binding at exactly one tape
    /// op (the op using its `slot`); when the walk reaches that op the
    /// current state is forked, the variant's matrix applied, and the
    /// forked state parked in `forks` as `(variant_index, resume_op,
    /// state)` for [`DensityEngine::resume_probs`] to finish — on this
    /// engine or on any pipeline lane's engine, in any order, since the
    /// suffix evolutions are independent. The walk itself continues with
    /// the base matrix.
    ///
    /// `resume` starts the walk from a cached prefix state instead of
    /// `|0..0><0..0|` (the shared-prefix cache's hit path: the state is
    /// a bit-exact snapshot of the same walk, so resuming is
    /// byte-identical to re-evolving). `capture_at` clones the state
    /// reached *before* that op index and returns it (the cache's
    /// insert path). `base` receives the base binding's own
    /// distribution; when `None` the walk stops at the last point any
    /// output needs.
    ///
    /// Byte-identity: every variant's suffix sees exactly the
    /// floating-point state a full [`DensityEngine::evolve_probs`] of
    /// its binding would have computed, because the shared prefix
    /// performs identical operations in identical order — the same
    /// argument (and the same oracle pinning) as the pair-folded path.
    ///
    /// # Panics
    ///
    /// Panics if a variant's slot never appears on the tape at or after
    /// the walk's start, or if `capture_at`/`resume` indices are out of
    /// range.
    pub fn evolve_group_forks(
        &mut self,
        program: &CompiledProgram,
        variants: &[(usize, CMatrix)],
        resume: Option<(&DensityMatrix, usize)>,
        capture_at: Option<usize>,
        forks: &mut Vec<(usize, usize, DensityMatrix)>,
        base: Option<&mut Vec<f64>>,
    ) -> Option<DensityMatrix> {
        let ops = program.ops();
        let start = match resume {
            Some((state, at)) => {
                assert!(at <= ops.len(), "resume index out of range");
                self.reset(program.num_qubits());
                self.rho
                    .as_mut()
                    .expect("state initialized by reset")
                    .copy_from(state);
                at
            }
            None => {
                self.reset(program.num_qubits());
                0
            }
        };
        let splits: Vec<usize> = variants
            .iter()
            .map(|&(slot, _)| {
                start
                    + ops[start..]
                        .iter()
                        .position(|op| {
                            matches!(
                                *op,
                                TapeOp::Unitary1q { slot: s, .. } | TapeOp::Unitary2q { slot: s, .. }
                                if s == slot
                            )
                        })
                        .expect("variant slot must appear on the tape after the walk start")
            })
            .collect();
        // Walk no further than the outputs require: through the whole
        // tape when the base distribution is wanted, else to the last
        // fork/capture point.
        let end = match base {
            Some(_) => ops.len(),
            None => splits
                .iter()
                .copied()
                .chain(capture_at)
                .max()
                .unwrap_or(start),
        };
        assert!(end <= ops.len(), "capture index out of range");
        forks.clear();
        for t in start..=end {
            if capture_at == Some(t) {
                let rho = self.rho.as_ref().expect("state initialized by reset");
                match &mut self.fork {
                    Some(f) => f.copy_from(rho),
                    None => self.fork = Some(rho.clone()),
                }
            }
            for (v, (_, matrix)) in variants.iter().enumerate() {
                if splits[v] != t {
                    continue;
                }
                let rho = self.rho.as_ref().expect("state initialized by reset");
                let mut state = rho.clone();
                match ops[t] {
                    TapeOp::Unitary1q { q, .. } => state.apply_unitary_1q_ctx(matrix, q, &self.ctx),
                    TapeOp::Unitary2q { q0, q1, .. } => {
                        state.apply_unitary_2q_ctx(matrix, q0, q1, &self.ctx)
                    }
                    _ => unreachable!("split op is a unitary by construction"),
                }
                forks.push((v, t + 1, state));
            }
            if t < end {
                self.evolve_ops(program, &ops[t..t + 1]);
            }
        }
        let captured = capture_at.map(|_| self.fork.take().expect("capture point on the walk"));
        if let Some(out) = base {
            debug_assert_eq!(end, ops.len());
            self.finish_probs(program);
            out.clear();
            out.extend_from_slice(&self.probs);
        }
        captured
    }

    /// Finishes one forked variant: restores `state`, replays
    /// `ops[resume_at..]`, and writes the post-readout distribution into
    /// `out` — the suffix half of [`DensityEngine::evolve_group_forks`],
    /// safe to run on any engine (pipeline lanes keep one scratch engine
    /// each).
    pub fn resume_probs(
        &mut self,
        program: &CompiledProgram,
        state: &DensityMatrix,
        resume_at: usize,
        out: &mut Vec<f64>,
    ) {
        self.reset(program.num_qubits());
        self.rho
            .as_mut()
            .expect("state initialized by reset")
            .copy_from(state);
        self.evolve_ops(program, &program.ops()[resume_at..]);
        self.finish_probs(program);
        out.clear();
        out.extend_from_slice(&self.probs);
    }

    /// Samples `shots` measurements from a distribution produced by
    /// [`DensityEngine::evolve_probs`] or
    /// [`DensityEngine::evolve_shift_pair_probs`]. Draw order is
    /// exactly the sampling stage of [`DensityEngine::run_program`].
    pub fn sample_probs<R: RngCore + ?Sized>(
        &mut self,
        probs: &[f64],
        n_qubits: usize,
        shots: usize,
        rng: &mut R,
    ) -> Counts {
        self.sampler.sample_counts(probs, n_qubits, shots, rng)
    }
}

impl SimEngine for DensityEngine {
    fn run(&mut self, program: &CompiledProgram, shots: usize, rng: &mut dyn RngCore) -> Counts {
        self.run_program(program, shots, rng)
    }
}

/// Monte-Carlo quantum-trajectory engine with reusable state and
/// candidate buffers.
///
/// Each trajectory replays the op-tape on a pure state; channels are
/// unraveled by Born-probability selection into a persistent candidate
/// buffer (no per-operator state clones), and each trajectory
/// contributes `shots / trajectories` samples (remainder spread over
/// the first trajectories), exactly like the straightforward
/// implementation it replaces.
#[derive(Clone, Debug)]
pub struct TrajectoryEngine {
    trajectories: usize,
    state: Option<StateVector>,
    candidate: Option<StateVector>,
    probs: Vec<f64>,
    sampler: ShotSampler,
    indices: Vec<usize>,
    hist: Vec<u64>,
    ctx: ParallelCtx,
    lanes: Vec<TrajLane>,
}

/// Per-worker scratch for the parallel trajectory fan-out: each lane
/// owns a full set of the serial engine's reusable buffers plus the
/// prefix-advanced RNG clone its chunk of trajectories consumes.
#[derive(Clone, Debug, Default)]
struct TrajLane {
    state: Option<StateVector>,
    candidate: Option<StateVector>,
    probs: Vec<f64>,
    sampler: ShotSampler,
    indices: Vec<usize>,
    hist: Vec<u64>,
    rng: Option<StdRng>,
}

/// Runs one trajectory — evolve the tape with stochastic channel
/// unraveling, then sample this trajectory's share of shots into
/// `hist`. This is the serial loop body verbatim; the parallel path
/// calls it per lane with a prefix-advanced RNG clone, so both paths
/// execute identical operations on identical draws.
#[allow(clippy::too_many_arguments)]
fn run_trajectory<R: RngCore + ?Sized>(
    program: &CompiledProgram,
    state_slot: &mut Option<StateVector>,
    candidate_slot: &mut Option<StateVector>,
    probs: &mut Vec<f64>,
    sampler: &mut ShotSampler,
    indices: &mut Vec<usize>,
    hist: &mut [u64],
    traj_shots: usize,
    rng: &mut R,
) {
    let n = program.num_qubits();
    let state = match state_slot {
        Some(s) => {
            s.reset_to(n);
            s
        }
        None => state_slot.insert(StateVector::new(n)),
    };
    let candidate = match candidate_slot {
        Some(s) => {
            s.reset_to(n);
            s
        }
        None => candidate_slot.insert(StateVector::new(n)),
    };
    for op in program.ops() {
        match *op {
            TapeOp::Unitary1q { slot, q } => state.apply_1q(program.unitary(slot), q),
            TapeOp::Unitary2q { slot, q0, q1 } => state.apply_2q(program.unitary(slot), q0, q1),
            TapeOp::Channel1q { channel, q } => {
                unravel_channel(state, candidate, program.channel(channel), &[q], rng)
            }
            TapeOp::Channel2q { channel, q0, q1 } => {
                unravel_channel(state, candidate, program.channel(channel), &[q0, q1], rng)
            }
        }
    }
    if traj_shots == 0 {
        return;
    }
    let readout = program.readout();
    state.probabilities_into(probs);
    sampler.sample_indices_into(probs, traj_shots, rng, indices);
    for &idx in indices.iter() {
        let corrupted = readout.corrupt(idx as u64, rng);
        hist[corrupted as usize] += 1;
    }
}

impl TrajectoryEngine {
    /// Creates an engine running `trajectories` unravelings per job.
    /// Execution is serial until [`TrajectoryEngine::set_parallel_ctx`]
    /// attaches a worker team.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories == 0`.
    pub fn new(trajectories: usize) -> Self {
        assert!(trajectories > 0, "need at least one trajectory");
        TrajectoryEngine {
            trajectories,
            state: None,
            candidate: None,
            probs: Vec::new(),
            sampler: ShotSampler::default(),
            indices: Vec::new(),
            hist: Vec::new(),
            ctx: ParallelCtx::SERIAL,
            lanes: Vec::new(),
        }
    }

    /// Attaches (or detaches, with a serial context) the worker team
    /// that [`TrajectoryEngine::run_program_par`] fans trajectories
    /// over.
    pub fn set_parallel_ctx(&mut self, ctx: ParallelCtx) {
        self.ctx = ctx;
    }

    /// The engine's current parallel context.
    pub fn parallel_ctx(&self) -> &ParallelCtx {
        &self.ctx
    }

    /// Trajectories per job.
    pub fn trajectories(&self) -> usize {
        self.trajectories
    }

    /// Changes the trajectory count (scratch buffers are kept).
    ///
    /// # Panics
    ///
    /// Panics if `trajectories == 0`.
    pub fn set_trajectories(&mut self, trajectories: usize) {
        assert!(trajectories > 0, "need at least one trajectory");
        self.trajectories = trajectories;
    }

    /// Generic-RNG entry point.
    pub fn run_program<R: RngCore + ?Sized>(
        &mut self,
        program: &CompiledProgram,
        shots: usize,
        rng: &mut R,
    ) -> Counts {
        let n = program.num_qubits();
        let base = shots / self.trajectories;
        let extra = shots % self.trajectories;
        self.hist.clear();
        self.hist.resize(1usize << n, 0);
        for t in 0..self.trajectories {
            let traj_shots = base + usize::from(t < extra);
            run_trajectory(
                program,
                &mut self.state,
                &mut self.candidate,
                &mut self.probs,
                &mut self.sampler,
                &mut self.indices,
                &mut self.hist,
                traj_shots,
                rng,
            );
        }
        self.collect_counts(n)
    }

    /// Parallel entry point: fans independent trajectories over the
    /// attached worker team in contiguous chunks.
    ///
    /// Trajectories consume a statically known number of RNG draws
    /// (one per channel op, plus — when the trajectory samples — one
    /// per shot and one per readout qubit with a nonzero flip
    /// probability per shot), so each lane starts from a clone of the
    /// caller's [`StdRng`] advanced past the preceding trajectories'
    /// draws. Counts are byte-identical to
    /// [`TrajectoryEngine::run_program`] with the same seed, and the
    /// caller's RNG leaves having consumed the exact serial stream.
    /// Falls back to the serial path when no team is attached.
    pub fn run_program_par(
        &mut self,
        program: &CompiledProgram,
        shots: usize,
        rng: &mut StdRng,
    ) -> Counts {
        if !self.ctx.is_parallel() || self.trajectories < 2 {
            return self.run_program(program, shots, rng);
        }
        let n = program.num_qubits();
        let dim = 1usize << n;
        let total_traj = self.trajectories;
        let base = shots / total_traj;
        let extra = shots % total_traj;
        let readout = program.readout();
        let channel_draws = program
            .ops()
            .iter()
            .filter(|op| matches!(op, TapeOp::Channel1q { .. } | TapeOp::Channel2q { .. }))
            .count() as u64;
        let flip_qubits = (0..readout.num_qubits())
            .filter(|&q| readout.flip_probability(q) > 0.0)
            .count() as u64;
        let n_chunks = self.ctx.workers().min(total_traj);
        let per = total_traj.div_ceil(n_chunks);
        let n_chunks = total_traj.div_ceil(per);
        if self.lanes.len() < n_chunks {
            self.lanes.resize_with(n_chunks, TrajLane::default);
        }
        let mut skipped: u64 = 0;
        for c in 0..n_chunks {
            let t0 = c * per;
            let t1 = (t0 + per).min(total_traj);
            let lane = &mut self.lanes[c];
            lane.hist.clear();
            lane.hist.resize(dim, 0);
            let mut lane_rng = rng.clone();
            for _ in 0..skipped {
                let _: f64 = lane_rng.gen();
            }
            lane.rng = Some(lane_rng);
            // Draws this chunk will consume, skipped by later lanes:
            // channel unravelings for every trajectory plus sampling
            // draws for the chunk's shot share.
            let chunk_shots =
                ((t1 - t0) * base + extra.min(t1).saturating_sub(extra.min(t0))) as u64;
            skipped += (t1 - t0) as u64 * channel_draws + chunk_shots * (1 + flip_qubits);
        }
        let lanes_ptr = LanePtr(self.lanes.as_mut_ptr());
        self.ctx.run(n_chunks, |c| {
            // SAFETY: `run` hands each chunk index to exactly one
            // worker, so each lane is mutated by a single thread.
            let lane = unsafe { lanes_ptr.lane(c) };
            let rng = lane.rng.as_mut().expect("lane rng seeded above");
            let t0 = c * per;
            let t1 = (t0 + per).min(total_traj);
            for t in t0..t1 {
                let traj_shots = base + usize::from(t < extra);
                run_trajectory(
                    program,
                    &mut lane.state,
                    &mut lane.candidate,
                    &mut lane.probs,
                    &mut lane.sampler,
                    &mut lane.indices,
                    &mut lane.hist,
                    traj_shots,
                    rng,
                );
            }
        });
        // The last lane's RNG has consumed exactly the full serial
        // stream; hand it back so the caller observes the same draws as
        // the serial path.
        *rng = self.lanes[n_chunks - 1]
            .rng
            .take()
            .expect("lane rng seeded above");
        self.hist.clear();
        self.hist.resize(dim, 0);
        for lane in &self.lanes[..n_chunks] {
            for (h, l) in self.hist.iter_mut().zip(&lane.hist) {
                *h += *l;
            }
        }
        self.collect_counts(n)
    }

    /// Builds the `Counts` histogram from `self.hist` in ascending
    /// basis-state order (shared by the serial and parallel paths).
    fn collect_counts(&self, n: usize) -> Counts {
        let distinct = self.hist.iter().filter(|&&c| c > 0).count();
        let mut counts = Counts::with_capacity(n, distinct);
        for (basis, &c) in self.hist.iter().enumerate() {
            if c > 0 {
                counts.record(basis as u64, c);
            }
        }
        counts
    }
}

/// Shares the lane array across the team; chunk indices are claimed
/// exactly once, so lanes are never aliased.
struct LanePtr(*mut TrajLane);
unsafe impl Sync for LanePtr {}

impl LanePtr {
    /// # Safety
    ///
    /// `c` must be in bounds and each index dereferenced by at most one
    /// thread at a time.
    #[allow(clippy::mut_from_ref)]
    unsafe fn lane<'a>(&self, c: usize) -> &'a mut TrajLane {
        &mut *self.0.add(c)
    }
}

impl SimEngine for TrajectoryEngine {
    fn run(&mut self, program: &CompiledProgram, shots: usize, rng: &mut dyn RngCore) -> Counts {
        self.run_program(program, shots, rng)
    }
}

/// Stochastically applies one Kraus operator of `ch` selected with its
/// Born probability, writing candidates into the reusable `candidate`
/// buffer and swapping the accepted one into `state`.
fn unravel_channel<R: RngCore + ?Sized>(
    state: &mut StateVector,
    candidate: &mut StateVector,
    ch: &KrausChannel,
    qs: &[usize],
    rng: &mut R,
) {
    let r: f64 = rng.gen();
    let mut acc = 0.0;
    let ops = ch.operators();
    for (i, k) in ops.iter().enumerate() {
        candidate.copy_from(state);
        match *qs {
            [q] => candidate.apply_1q(k, q),
            [a, b] => candidate.apply_2q(k, a, b),
            _ => unreachable!("channels are 1- or 2-qubit"),
        }
        let p = candidate.norm_sqr();
        acc += p;
        if r < acc || i == ops.len() - 1 {
            candidate.normalize();
            std::mem::swap(state, candidate);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_program(noise_p: f64) -> CompiledProgram {
        let mut b = ProgramBuilder::new(2);
        b.push_unitary(gates::h(), &[0]);
        b.push_unitary(gates::cx(), &[0, 1]);
        if noise_p > 0.0 {
            b.push_channel(&KrausChannel::depolarizing_1q(noise_p), &[0]);
        }
        b.finish(ReadoutError::uniform(2, 0.0), 465.0)
    }

    #[test]
    fn density_engine_matches_direct_evolution() {
        let prog = bell_program(0.05);
        let mut engine = DensityEngine::new();
        let counts = engine.run_program(&prog, 50_000, &mut StdRng::seed_from_u64(1));

        // Direct evolution of the same ops.
        let mut rho = DensityMatrix::new(2);
        rho.apply_unitary_1q(&gates::h(), 0);
        rho.apply_unitary_2q(&gates::cx(), 0, 1);
        rho.apply_channel(&KrausChannel::depolarizing_1q(0.05), &[0]);
        rho.normalize();
        let probs = rho.probabilities();
        let direct =
            crate::sampler::sample_counts(&probs, 2, 50_000, &mut StdRng::seed_from_u64(1));
        assert_eq!(counts, direct, "engine must be byte-identical");
    }

    #[test]
    fn engine_is_reusable_across_program_sizes() {
        let mut engine = DensityEngine::new();
        let mut rng = StdRng::seed_from_u64(2);
        let small = bell_program(0.0);
        let mut b = ProgramBuilder::new(3);
        b.push_unitary(gates::h(), &[0]);
        b.push_unitary(gates::cx(), &[0, 1]);
        b.push_unitary(gates::cx(), &[1, 2]);
        let big = b.finish(ReadoutError::uniform(3, 0.0), 900.0);
        let c1 = engine.run_program(&small, 1000, &mut rng);
        let c2 = engine.run_program(&big, 1000, &mut rng);
        let c3 = engine.run_program(&small, 1000, &mut rng);
        assert_eq!(c1.num_qubits(), 2);
        assert_eq!(c2.num_qubits(), 3);
        assert_eq!(c3.num_qubits(), 2);
        assert_eq!(c1.total() + c2.total() + c3.total(), 3000);
    }

    #[test]
    fn trajectory_engine_agrees_with_density_statistics() {
        let prog = bell_program(0.05);
        let dens = DensityEngine::new().run_program(&prog, 40_000, &mut StdRng::seed_from_u64(3));
        let traj =
            TrajectoryEngine::new(300).run_program(&prog, 40_000, &mut StdRng::seed_from_u64(4));
        let d = dens.probability(0) + dens.probability(0b11);
        let t = traj.probability(0) + traj.probability(0b11);
        assert!((d - t).abs() < 0.03, "density {d} vs trajectories {t}");
    }

    #[test]
    fn interning_dedupes_channels_and_unitaries() {
        let mut b = ProgramBuilder::new(2);
        let s1 = b.push_unitary(gates::h(), &[0]);
        let s2 = b.push_unitary(gates::h(), &[1]);
        assert_eq!(s1, s2, "identical fixed gates share a slot");
        let ch = KrausChannel::depolarizing_1q(0.01);
        b.push_channel(&ch, &[0]);
        b.push_channel(&ch, &[1]);
        let prog = b.finish(ReadoutError::uniform(2, 0.0), 100.0);
        assert_eq!(prog.num_channels(), 1, "identical channels are interned");
        assert_eq!(prog.num_unitaries(), 1);
        assert_eq!(prog.ops().len(), 4);
    }

    #[test]
    fn parameterized_slots_are_never_shared() {
        let mut b = ProgramBuilder::new(1);
        let p1 = b.push_parameterized(CMatrix::identity(2), &[0]);
        let fixed = b.push_unitary(CMatrix::identity(2), &[0]);
        let p2 = b.push_parameterized(CMatrix::identity(2), &[0]);
        assert_ne!(p1, fixed, "fixed gate must not alias a rebind slot");
        assert_ne!(p1, p2, "two parameterized gates must not alias");
        let mut prog = b.finish(ReadoutError::uniform(1, 0.0), 35.0);
        prog.set_unitary(p1, gates::x());
        assert_eq!(prog.unitary(fixed), &CMatrix::identity(2));
    }

    #[test]
    fn identity_fast_path_elides_near_zero_channels() {
        let mut b = ProgramBuilder::new(1);
        b.push_channel(&KrausChannel::depolarizing_1q(0.0), &[0]);
        b.push_channel(&KrausChannel::depolarizing_1q(1e-30), &[0]);
        b.push_channel(&KrausChannel::depolarizing_1q(0.1), &[0]);
        let prog = b.finish(ReadoutError::uniform(1, 0.0), 35.0);
        assert_eq!(prog.skipped_channels(), 2);
        assert_eq!(prog.num_channels(), 1);
        assert_eq!(prog.ops().len(), 1);
    }

    #[test]
    fn rebind_changes_results_without_recompiling() {
        let mut b = ProgramBuilder::new(1);
        let slot = b.push_parameterized(CMatrix::identity(2), &[0]);
        let mut prog = b.finish(ReadoutError::uniform(1, 0.0), 35.0);
        let mut engine = DensityEngine::new();
        prog.set_unitary(slot, gates::x());
        let ones = engine.run_program(&prog, 100, &mut StdRng::seed_from_u64(5));
        assert_eq!(ones.get(1), 100);
        prog.set_unitary(slot, CMatrix::identity(2));
        let zeros = engine.run_program(&prog, 100, &mut StdRng::seed_from_u64(5));
        assert_eq!(zeros.get(0), 100);
    }

    fn noisy_program() -> CompiledProgram {
        let mut b = ProgramBuilder::new(3);
        b.push_unitary(gates::h(), &[0]);
        b.push_unitary(gates::cx(), &[0, 1]);
        b.push_unitary(gates::ry(0.3), &[2]);
        b.push_channel(&KrausChannel::depolarizing_1q(0.05), &[0]);
        b.push_channel(&KrausChannel::amplitude_damping(0.1), &[2]);
        b.push_channel(&KrausChannel::depolarizing_2q(0.02), &[1, 2]);
        b.finish(ReadoutError::new(vec![0.02, 0.0, 0.01]), 700.0)
    }

    #[test]
    fn parallel_trajectory_engine_is_bit_identical_to_serial() {
        let prog = noisy_program();
        let ctx = crate::parallel::ParallelCtx::with_workers(4);
        // (trajectories, shots): even split, remainder spread, and
        // more trajectories than shots (zero-shot trajectories).
        for &(traj, shots) in &[(8usize, 1024usize), (7, 1000), (16, 10)] {
            let mut serial = TrajectoryEngine::new(traj);
            let mut s_rng = StdRng::seed_from_u64(11);
            let s_counts = serial.run_program(&prog, shots, &mut s_rng);
            let s_after: f64 = s_rng.gen();

            let mut par = TrajectoryEngine::new(traj);
            par.set_parallel_ctx(ctx.clone());
            let mut p_rng = StdRng::seed_from_u64(11);
            let p_counts = par.run_program_par(&prog, shots, &mut p_rng);
            let p_after: f64 = p_rng.gen();

            assert_eq!(s_counts, p_counts, "traj={traj} shots={shots}");
            assert_eq!(
                s_after.to_bits(),
                p_after.to_bits(),
                "caller RNG must leave at the same stream position"
            );
        }
    }

    #[test]
    fn evolve_then_sample_matches_run_program() {
        let prog = noisy_program();
        let mut engine = DensityEngine::new();
        let direct = engine.run_program(&prog, 4096, &mut StdRng::seed_from_u64(21));
        let mut probs = Vec::new();
        engine.evolve_probs(&prog, &mut probs);
        let split = engine.sample_probs(&probs, 3, 4096, &mut StdRng::seed_from_u64(21));
        assert_eq!(direct, split, "evolve/sample split must be byte-identical");
    }

    #[test]
    fn shift_pair_fold_matches_two_full_evolutions() {
        let mut b = ProgramBuilder::new(2);
        b.push_unitary(gates::h(), &[0]);
        let slot = b.push_parameterized(CMatrix::identity(2), &[1]);
        b.push_unitary(gates::cx(), &[0, 1]);
        b.push_channel(&KrausChannel::depolarizing_1q(0.03), &[1]);
        let mut prog = b.finish(ReadoutError::new(vec![0.01, 0.02]), 500.0);

        let fwd_mat = gates::ry(0.7 + std::f64::consts::FRAC_PI_2);
        let bck_mat = gates::ry(0.7 - std::f64::consts::FRAC_PI_2);
        let mut engine = DensityEngine::new();

        prog.set_unitary(slot, fwd_mat.clone());
        let mut fwd_ref = Vec::new();
        engine.evolve_probs(&prog, &mut fwd_ref);
        prog.set_unitary(slot, bck_mat.clone());
        let mut bck_ref = Vec::new();
        engine.evolve_probs(&prog, &mut bck_ref);

        prog.set_unitary(slot, fwd_mat);
        let (mut fwd, mut bck) = (Vec::new(), Vec::new());
        engine.evolve_shift_pair_probs(&prog, slot, &bck_mat, &mut fwd, &mut bck);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fwd), bits(&fwd_ref), "forward leg");
        assert_eq!(bits(&bck), bits(&bck_ref), "backward leg");
    }

    /// Two parameterized slots with fixed ops before, between and after
    /// them — forks must land at different tape positions.
    fn two_slot_program() -> (CompiledProgram, usize, usize) {
        let mut b = ProgramBuilder::new(3);
        b.push_unitary(gates::h(), &[0]);
        b.push_unitary(gates::cx(), &[0, 1]);
        b.push_channel(&KrausChannel::depolarizing_1q(0.03), &[0]);
        let s0 = b.push_parameterized(gates::ry(0.4), &[1]);
        b.push_unitary(gates::cx(), &[1, 2]);
        let s1 = b.push_parameterized(gates::ry(-0.2), &[2]);
        b.push_channel(&KrausChannel::amplitude_damping(0.05), &[2]);
        let prog = b.finish(ReadoutError::new(vec![0.01, 0.0, 0.02]), 600.0);
        (prog, s0, s1)
    }

    #[test]
    fn group_forks_match_full_evolutions() {
        let (mut prog, s0, s1) = two_slot_program();
        let d = std::f64::consts::FRAC_PI_2;
        // N-way group off one base walk: ± shifts on both slots.
        let variants = vec![
            (s0, gates::ry(0.4 + d)),
            (s0, gates::ry(0.4 - d)),
            (s1, gates::ry(-0.2 + d)),
            (s1, gates::ry(-0.2 - d)),
        ];
        let mut engine = DensityEngine::new();

        // Reference: one full evolution per binding.
        let base_matrices = [prog.unitary(s0).clone(), prog.unitary(s1).clone()];
        let mut refs = Vec::new();
        for (slot, m) in &variants {
            prog.set_unitary(*slot, m.clone());
            let mut p = Vec::new();
            engine.evolve_probs(&prog, &mut p);
            refs.push(p);
            let base = if *slot == s0 { 0 } else { 1 };
            prog.set_unitary(*slot, base_matrices[base].clone());
        }
        let mut base_ref = Vec::new();
        engine.evolve_probs(&prog, &mut base_ref);

        // Group-forked: one base walk + resumed suffixes.
        let mut forks = Vec::new();
        let mut base = Vec::new();
        let captured =
            engine.evolve_group_forks(&prog, &variants, None, None, &mut forks, Some(&mut base));
        assert!(captured.is_none(), "no capture requested");
        assert_eq!(forks.len(), variants.len());
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base), bits(&base_ref), "base binding");
        let mut out = Vec::new();
        for (v, resume_at, state) in &forks {
            engine.resume_probs(&prog, state, *resume_at, &mut out);
            assert_eq!(bits(&out), bits(&refs[*v]), "variant {v}");
        }
    }

    #[test]
    fn group_forks_resume_from_captured_prefix_byte_identically() {
        let (prog, s0, s1) = two_slot_program();
        let d = std::f64::consts::FRAC_PI_2;
        let variants = vec![(s0, gates::ry(0.4 + d)), (s1, gates::ry(-0.2 - d))];
        let k = prog.first_op_using(&[s0, s1]);
        assert!(k > 0 && k < prog.ops().len(), "prefix must be nontrivial");
        let mut engine = DensityEngine::new();

        // Cold walk: capture the prefix state and record all outputs.
        let mut forks = Vec::new();
        let mut base = Vec::new();
        let captured = engine
            .evolve_group_forks(&prog, &variants, None, Some(k), &mut forks, Some(&mut base))
            .expect("capture requested");
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let cold_base = bits(&base);
        let mut cold_forks = Vec::new();
        let mut out = Vec::new();
        for (_, at, state) in &forks {
            engine.resume_probs(&prog, state, *at, &mut out);
            cold_forks.push(bits(&out));
        }

        // Warm walk: resume from the captured state (the cache hit path).
        let warm = engine.evolve_group_forks(
            &prog,
            &variants,
            Some((&captured, k)),
            None,
            &mut forks,
            Some(&mut base),
        );
        assert!(warm.is_none());
        assert_eq!(bits(&base), cold_base, "base after resume");
        for (i, (_, at, state)) in forks.iter().enumerate() {
            engine.resume_probs(&prog, state, *at, &mut out);
            assert_eq!(bits(&out), cold_forks[i], "fork {i} after resume");
        }
    }

    #[test]
    fn engines_work_behind_the_trait_object() {
        let prog = bell_program(0.02);
        let mut engines: Vec<Box<dyn SimEngine>> = vec![
            Box::new(DensityEngine::new()),
            Box::new(TrajectoryEngine::new(64)),
        ];
        let mut rng = StdRng::seed_from_u64(6);
        for e in &mut engines {
            let counts = e.run(&prog, 2048, &mut rng);
            assert_eq!(counts.total(), 2048);
        }
    }
}
