//! Compiled programs and the allocation-free density engine.
//!
//! The trainers in this workspace execute the *same* circuit structure
//! millions of times (8192-shot jobs per parameter-shift term, per epoch,
//! per device). The naive path re-derives everything per job: gate
//! matrices are re-materialized per op, Kraus channels are rebuilt per
//! schedule event, every channel application clones the full density
//! matrix once per Kraus operator, and every shot costs one hash-map
//! insert. This module is the engine room that removes all of that:
//!
//! * [`CompiledProgram`] — a flat op-tape over pre-resolved gate
//!   matrices and a table of fused superoperators, built once by
//!   [`ProgramBuilder`] and replayed many times; it also keeps the plan
//!   its fused table is a product of, so new channel numbers — a
//!   drifting device has new ones per job — are a
//!   [`CompiledProgram::refresh`], not a rebuild;
//! * [`DensityEngine`] — exact density-matrix evolution over a
//!   persistent state. Its programs are *fused*: every maximal run of
//!   adjacent fixed ops (gate unitaries and channels) nested in one
//!   support of at most two qubits — `gate, relaxation, relaxation,
//!   depolarizing`, or a whole routed SWAP chain — was multiplied into
//!   one local superoperator at compile time and applies as one
//!   in-place block sweep (no Kraus sum, no state copy, one pass instead
//!   of one or two per op); only parameterized gates stay unitary ops.
//!   Sampling writes a dense histogram instead of one hash-map insert
//!   per shot.
//!
//! The engine's sampling is **bit-for-bit equivalent** to the
//! straightforward implementation it replaces (the guide-table lookup
//! returns the index the binary search returns, draw for draw). A
//! diagonal gate — every parameterized RZ — takes one phase pass that
//! re-associates `(d_r x) conj(d_c)` into `x (d_r conj(d_c))` and skips
//! the entries whose factor is exactly 1, so it equals the two-pass
//! oracle to ~1e-16; any other unitary op sweeps as `U (x) conj(U)`, and
//! a fused sweep re-associates the products and sums of its run, so the
//! state equals op-by-op application (and the straightforward oracle)
//! to 1e-12 rather than bit for bit — sampled counts are equal on every
//! pinned fixture, and a full evolution and a group-fork walk with
//! resumed suffixes are byte-identical to each other because they share
//! the one tape, the one kernel set and the op order. Every sweep reads
//! and writes only the upper triangle of the state (see
//! [`crate::density`]).
//! Forks and resumes always fall between tape ops: a parameterized slot
//! ends a run and is never inside a fused entry.
//!
//! # Examples
//!
//! ```
//! use qsim::program::{DensityEngine, ProgramBuilder};
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
//! let counts = engine.run_program(&program, 4096, &mut rng);
//! assert_eq!(counts.total(), 4096);
//! ```

use crate::density::DensityMatrix;
use crate::matrix::CMatrix;
use crate::noise::{KrausChannel, Placement, RunMember, SuperopTable};
use crate::sampler::{Counts, ReadoutError, ShotSampler};
use rand::RngCore;

/// One instruction of a compiled program's flat op-tape.
///
/// Unitary ops index into [`CompiledProgram`]'s matrix table (so a
/// rebind only swaps small matrices, never the tape); channel ops index
/// into its table of fused superoperators.
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
    /// Apply the 1-qubit fused superoperator `channel` to qubit `q`.
    Channel1q {
        /// Channel-table index.
        channel: usize,
        /// Target qubit.
        q: usize,
    },
    /// Apply the 2-qubit fused superoperator `channel` to `(q0, q1)`.
    Channel2q {
        /// Channel-table index.
        channel: usize,
        /// First operand.
        q0: usize,
        /// Second operand.
        q1: usize,
    },
}

impl TapeOp {
    /// The matrix-table slot of a unitary op (`None` for a channel op).
    pub fn unitary_slot(&self) -> Option<usize> {
        match *self {
            TapeOp::Unitary1q { slot, .. } | TapeOp::Unitary2q { slot, .. } => Some(slot),
            _ => None,
        }
    }
}

/// Where the superoperator of one fused-run member comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Member {
    /// The fixed gate in this matrix-table slot: lowered when the
    /// builder finishes, never again (its matrix never changes).
    Unitary(u16),
    /// The channel pushed under this caller key, whose numbers the
    /// caller lowers on request
    /// ([`ProgramBuilder::push_deferred_channel`]).
    Deferred(u16),
    /// A channel pushed as a Kraus list (index into the builder's
    /// copies): lowered when the builder finishes, never again.
    Given(u16),
}

/// The half of a program that no channel's *numbers* enter:
/// which fixed ops each fused entry is the product of. Built once by
/// [`ProgramBuilder`]; every fill of the fused table — the builder's own
/// and each [`CompiledProgram::refresh`] — lowers the members and
/// multiplies the runs in this order, so it is one arithmetic whoever
/// runs it. Kept small: a fleet holds one per (device, template).
#[derive(Clone, Debug, Default)]
struct FusionPlan {
    /// Every distinct fixed op of a fused run, each once, in first-use
    /// order — while the builder plans. A finished plan keeps only the
    /// channels here, and its runs index the members of a fill: the
    /// gates, then these.
    members: Vec<Member>,
    /// The superoperators of a finished plan's distinct fixed gates, in
    /// first-use order: a gate's matrix never changes after planning,
    /// so it is lowered once, and each fill copies it.
    gates: SuperopTable,
    /// The distinct fused runs back to back, in fused-entry order.
    runs: Vec<RunMember>,
    /// Per fused entry: where its run ends in `runs`.
    bounds: Vec<u32>,
}

impl FusionPlan {
    /// Records a new member; returns its index.
    fn add_member(&mut self, member: Member) -> usize {
        self.members.push(member);
        self.members.len() - 1
    }

    /// Finishes the plan's members: lowers every fixed gate into
    /// `gates`, keeps only the channels in `members`, and renumbers the
    /// runs to index the gates first, then the channels — each run
    /// multiplies the same superoperators in the same order as before.
    fn lower_gates(&mut self, unitaries: &[CMatrix]) {
        let is_gate = |m: &&Member| matches!(m, Member::Unitary(_));
        let members = self.members.iter().enumerate();
        let gates_first = members.clone().filter(|(_, m)| is_gate(m));
        let channels = members.filter(|(_, m)| !is_gate(m));
        let mut renumbered = vec![0; self.members.len()];
        for (new, (old, member)) in gates_first.chain(channels).enumerate() {
            renumbered[old] = new;
            if let Member::Unitary(slot) = *member {
                self.gates.push_unitary(&unitaries[slot as usize]);
            }
        }
        self.members.retain(|m| !is_gate(&m));
        for run in &mut self.runs {
            *run = RunMember::new(renumbered[run.member()], run.place());
        }
        self.gates.seal();
    }
}

/// A circuit + noise schedule compiled to an executable form: a flat
/// op-tape over a table of pre-resolved gate matrices and a table of
/// fused superoperators.
///
/// Build once with [`ProgramBuilder`], rebind parameterized gates
/// cheaply with [`CompiledProgram::set_unitary`], bring deferred
/// channels up to new numbers with [`CompiledProgram::refresh`], and
/// execute with a [`DensityEngine`].
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    n_qubits: usize,
    ops: Vec<TapeOp>,
    unitaries: Vec<CMatrix>,
    /// The fused superoperators and the plan they are products of.
    superops: SuperopTable,
    plan: FusionPlan,
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

    /// Entries of the channel table: the distinct fused runs.
    #[inline]
    pub fn num_channels(&self) -> usize {
        self.superops.len()
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
    /// gates (the tape and channel table are untouched: a parameterized
    /// slot is never inside a fused run).
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

    /// The fused superoperators [`DensityEngine`] sweeps with.
    pub fn superops(&self) -> &SuperopTable {
        &self.superops
    }

    /// Re-derives the fused superoperators, in place, for new channel
    /// numbers under the same plan: the tape, the matrix table and
    /// which ops each fused entry multiplies are kept; `lower(key,
    /// table)` pushes the superoperator of the deferred channel `key`
    /// onto `table` (exactly one per call), and `readout` replaces the
    /// readout model. This is the routine
    /// [`ProgramBuilder::finish_with`] fills a new program with, so a
    /// refreshed program equals, bit for bit, one built from scratch
    /// with the same pushes and the same `lower`.
    ///
    /// The caller vouches that the plan still holds: the same pushes in
    /// the same order with the same elision verdicts.
    ///
    /// # Panics
    ///
    /// Panics on a program holding channels pushed as Kraus lists
    /// ([`ProgramBuilder::push_channel`]): those were lowered when the
    /// builder finished and their numbers are gone.
    pub fn refresh(&mut self, readout: ReadoutError, lower: impl FnMut(usize, &mut SuperopTable)) {
        self.readout = readout;
        self.fill_fused(&[], lower);
    }

    /// Lowers every plan member — into a table that lives for this call
    /// only: a fleet holds thousands of programs and each needs its
    /// members for microseconds; the fixed gates are copied from the
    /// plan, which lowered them once — and multiplies every run into
    /// the fused table.
    fn fill_fused(
        &mut self,
        given: &[KrausChannel],
        mut lower: impl FnMut(usize, &mut SuperopTable),
    ) {
        let CompiledProgram {
            superops: fused,
            plan,
            ..
        } = self;
        let mut members = SuperopTable::with_capacity(plan.gates.len() + plan.members.len());
        members.extend_from(&plan.gates);
        for member in &plan.members {
            match *member {
                Member::Unitary(_) => unreachable!("a finished plan's gates are lowered"),
                Member::Deferred(key) => lower(key as usize, &mut members),
                Member::Given(idx) => {
                    let channel = given
                        .get(idx as usize)
                        .expect("channels pushed as Kraus lists are lowered once, by the builder");
                    members.push(channel);
                }
            }
        }
        assert_eq!(
            members.len(),
            plan.gates.len() + plan.members.len(),
            "`lower` must push exactly one superoperator per call"
        );
        fused.clear();
        let mut start = 0;
        for &end in &plan.bounds {
            let run = &plan.runs[start..end as usize];
            // A one-qubit member is `Whole` only in a one-qubit run.
            let two_qubit = run[0].place() != Placement::Whole
                || members.get(run[0].member()).num_qubits() == 2;
            fused.push_product(&members, run, two_qubit);
            start = end as usize;
        }
        fused.seal();
    }

    /// Heap bytes the fusion plan owns: what a program carries beyond
    /// its tape and tables so that [`CompiledProgram::refresh`] can
    /// re-derive them.
    pub fn plan_heap_bytes(&self) -> usize {
        let plan = &self.plan;
        plan.members.capacity() * std::mem::size_of::<Member>()
            + plan.runs.capacity() * std::mem::size_of::<RunMember>()
            + plan.bounds.capacity() * std::mem::size_of::<u32>()
            + plan.gates.heap_bytes()
    }
}

/// A fixed op in the open run: the matrix-table slot of a unitary, or a
/// channel's index among the plan's members.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fixed {
    Unitary(usize),
    Channel(usize),
}

/// What interning decided for one distinct channel.
#[derive(Clone, Copy, Debug)]
enum Interned {
    /// Near-identity: elided from the tape.
    Skipped,
    /// Index into the plan's members.
    Kept(usize),
}

/// The builder's fusing state: the open run of adjacent fixed
/// ops and the plan recorded so far. Nothing is multiplied here — the
/// numbers enter when the builder finishes. Every list is reused across
/// runs: planning allocates per program, not per run.
#[derive(Clone, Debug, Default)]
struct Fuser {
    /// The open run's support (operand order of the two-qubit member
    /// that set it) and how many of the two entries are live.
    support: [usize; 2],
    arity: usize,
    /// The open run's members in tape order.
    run: Vec<(Fixed, Placement)>,
    plan: FusionPlan,
    /// Member index of the unitary in each matrix-table slot, once a
    /// fused run holds it.
    unitary_member: Vec<Option<usize>>,
    /// Scratch: the open run with every member resolved to its index
    /// in `plan.members`.
    resolved: Vec<RunMember>,
    /// The channels pushed as Kraus lists, for the builder's own fill.
    given: Vec<KrausChannel>,
}

impl Fuser {
    /// Where an op on `qubits` sits in the open run, growing a
    /// one-qubit run into a two-qubit op on its qubit; `None` when the
    /// op does not fit (or no run is open).
    fn place(&mut self, qubits: &[usize]) -> Option<Placement> {
        let [s0, s1] = self.support;
        match (self.arity, qubits) {
            (1, &[q]) if q == s0 => Some(Placement::Whole),
            (2, &[q]) if q == s0 => Some(Placement::OnFirst),
            (2, &[q]) if q == s1 => Some(Placement::OnSecond),
            (2, &[q0, q1]) if (q0, q1) == (s0, s1) => Some(Placement::Whole),
            (2, &[q0, q1]) if (q0, q1) == (s1, s0) => Some(Placement::Swapped),
            (1, &[q0, q1]) if s0 == q0 || s0 == q1 => {
                let grown = if s0 == q0 {
                    Placement::OnFirst
                } else {
                    Placement::OnSecond
                };
                for member in &mut self.run {
                    member.1 = grown;
                }
                (self.support, self.arity) = ([q0, q1], 2);
                Some(Placement::Whole)
            }
            _ => None,
        }
    }

    /// The fused entry of the open run: the entry of an identical run
    /// already planned — the same `gate, relaxation, depolarizing`
    /// cluster recurs on a qubit several times per template and is
    /// multiplied once — or a new one.
    fn entry_of_open_run(&mut self, unitaries: usize) -> usize {
        self.unitary_member.resize(unitaries, None);
        self.resolved.clear();
        for &(op, place) in &self.run {
            let member = match op {
                Fixed::Channel(member) => member,
                Fixed::Unitary(slot) => *self.unitary_member[slot]
                    .get_or_insert_with(|| self.plan.add_member(Member::Unitary(narrow(slot)))),
            };
            self.resolved.push(RunMember::new(member, place));
        }
        let mut start = 0;
        for (entry, &end) in self.plan.bounds.iter().enumerate() {
            if self.plan.runs[start..end as usize] == self.resolved[..] {
                return entry;
            }
            start = end as usize;
        }
        self.plan.runs.extend_from_slice(&self.resolved);
        let end = u32::try_from(self.plan.runs.len()).expect("fused runs fit u32 offsets");
        self.plan.bounds.push(end);
        self.plan.bounds.len() - 1
    }
}

/// A slot, key or list index as a plan member stores it.
fn narrow(index: usize) -> u16 {
    u16::try_from(index).expect("a fused program indexes at most 65 536 slots and channel keys")
}

/// Builds a [`CompiledProgram`] op by op, interning channels and
/// eliding near-identity ones.
///
/// The builder fuses every maximal run of adjacent *fixed* ops —
/// shareable unitaries and channels — whose supports nest inside one
/// support of at most two qubits into a single channel-table entry: a
/// one-qubit run grows into the two-qubit op that follows it on a
/// shared qubit (either operand order), further ops on those qubits
/// join, anything else ends the run. A parameterized slot always ends a
/// run and stays a unitary op, so every fork and resume point sits
/// between tape ops; so does a gate pushed with
/// [`ProgramBuilder::push_unfused_unitary`]; a run without a channel
/// stays unitary ops, which are cheaper than a dense superoperator.
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    n_qubits: usize,
    ops: Vec<TapeOp>,
    unitaries: Vec<CMatrix>,
    /// Whether the slot may be shared with later identical pushes
    /// (false for parameterized placeholders, which must stay unique so
    /// a rebind cannot alias an unrelated gate).
    shareable: Vec<bool>,
    /// Deferred channels, indexed by caller key.
    by_key: Vec<Option<Interned>>,
    /// Channels pushed as Kraus lists, interned by content.
    by_content: Vec<(KrausChannel, Interned)>,
    fuser: Fuser,
    skipped_channels: usize,
}

impl ProgramBuilder {
    /// The epsilon below which a channel's non-identity content is
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
            by_key: Vec::new(),
            by_content: Vec::new(),
            fuser: Fuser::default(),
            skipped_channels: 0,
        }
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
        let slot = self.intern_unitary(m, qubits);
        self.push_fixed(Fixed::Unitary(slot), qubits);
        slot
    }

    /// [`ProgramBuilder::push_unitary`] for a gate that must stay a tape
    /// op of its own: the slot is shared like any fixed matrix, but the
    /// op ends the open run and never joins one. For a diagonal phase
    /// between real clusters — alone it is one pass over half the
    /// state, inside a run it would make the whole sweep complex.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ProgramBuilder::push_unitary`].
    pub fn push_unfused_unitary(&mut self, m: CMatrix, qubits: &[usize]) -> usize {
        let slot = self.intern_unitary(m, qubits);
        self.flush_run();
        self.ops.push(unitary_op(slot, qubits));
        slot
    }

    /// The matrix-table slot of the fixed matrix `m`: that of an
    /// identical shareable matrix pushed before, or a new one.
    fn intern_unitary(&mut self, m: CMatrix, qubits: &[usize]) -> usize {
        self.check_operands(qubits, "unitaries");
        self.check_shape(&m, qubits);
        self.unitaries
            .iter()
            .enumerate()
            .position(|(i, u)| self.shareable[i] && *u == m)
            .unwrap_or_else(|| {
                self.unitaries.push(m);
                self.shareable.push(true);
                self.unitaries.len() - 1
            })
    }

    /// Appends a *placeholder* matrix for a parameterized gate. The slot
    /// is never shared, so [`CompiledProgram::set_unitary`] on it cannot
    /// affect any other op, and the op is never fused. Returns the slot.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ProgramBuilder::push_unitary`].
    pub fn push_parameterized(&mut self, placeholder: CMatrix, qubits: &[usize]) -> usize {
        self.check_operands(qubits, "unitaries");
        self.check_shape(&placeholder, qubits);
        self.unitaries.push(placeholder);
        self.shareable.push(false);
        let slot = self.unitaries.len() - 1;
        self.flush_run();
        self.ops.push(unitary_op(slot, qubits));
        slot
    }

    fn check_operands(&self, qubits: &[usize], what: &str) {
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        match *qubits {
            [_] => {}
            [q0, q1] => assert!(q0 != q1, "2q operands must differ"),
            _ => panic!("only 1- and 2-qubit {what} are supported"),
        }
    }

    fn check_shape(&self, m: &CMatrix, qubits: &[usize]) {
        let dim = 1usize << qubits.len();
        assert_eq!(
            (m.rows(), m.cols()),
            (dim, dim),
            "matrix shape must match the {}-qubit operand list",
            qubits.len()
        );
    }

    /// Appends a Kraus channel acting on `qubits`, interning it by
    /// content against previously pushed channels. Channels within
    /// [`ProgramBuilder::DEFAULT_IDENTITY_EPSILON`] of the identity are
    /// elided entirely (the fast-path for near-zero-rate noise).
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or out-of-range qubits.
    pub fn push_channel(&mut self, channel: &KrausChannel, qubits: &[usize]) {
        self.check_channel(channel.num_qubits(), qubits);
        let interned = match self.by_content.iter().find(|(c, _)| c == channel) {
            Some(&(_, interned)) => interned,
            None => {
                let interned = self.intern(channel);
                self.by_content.push((channel.clone(), interned));
                interned
            }
        };
        self.place_channel(interned, qubits);
    }

    /// Appends a channel the caller knows only by `key` so far: what it
    /// acts on and whether it is `elided` (near-identity, see
    /// [`ProgramBuilder::DEFAULT_IDENTITY_EPSILON`]) are fixed now, its
    /// numbers arrive when the program is filled —
    /// [`ProgramBuilder::finish_with`] and every later
    /// [`CompiledProgram::refresh`] ask a `lower` callback for the
    /// superoperator of `key`. Pushes under an equal key must name the
    /// same channel with the same verdict. Keys should be small and
    /// dense (they index a table).
    ///
    /// # Panics
    ///
    /// Panics on more than two or out-of-range qubits.
    pub fn push_deferred_channel(&mut self, key: usize, qubits: &[usize], elided: bool) {
        self.check_channel(qubits.len(), qubits);
        if self.by_key.len() <= key {
            self.by_key.resize(key + 1, None);
        }
        let plan = &mut self.fuser.plan;
        let interned = *self.by_key[key].get_or_insert_with(|| {
            if elided {
                Interned::Skipped
            } else {
                Interned::Kept(plan.add_member(Member::Deferred(narrow(key))))
            }
        });
        self.place_channel(interned, qubits);
    }

    fn check_channel(&self, arity: usize, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            arity,
            "channel arity does not match the qubit list"
        );
        self.check_operands(qubits, "channels");
    }

    /// First sight of a Kraus-list channel: elide it, or keep it as a
    /// plan member.
    fn intern(&mut self, channel: &KrausChannel) -> Interned {
        if channel.is_near_identity(Self::DEFAULT_IDENTITY_EPSILON) {
            return Interned::Skipped;
        }
        let fuser = &mut self.fuser;
        fuser.given.push(channel.clone());
        Interned::Kept(
            fuser
                .plan
                .add_member(Member::Given(narrow(fuser.given.len() - 1))),
        )
    }

    fn place_channel(&mut self, interned: Interned, qubits: &[usize]) {
        match interned {
            Interned::Skipped => self.skipped_channels += 1,
            Interned::Kept(idx) => self.push_fixed(Fixed::Channel(idx), qubits),
        }
    }

    /// Appends a fixed op to the open run, ending the run first if the
    /// op does not fit.
    fn push_fixed(&mut self, op: Fixed, qubits: &[usize]) {
        let place = match self.fuser.place(qubits) {
            Some(place) => place,
            None => {
                self.flush_run();
                Placement::Whole
            }
        };
        let fuser = &mut self.fuser;
        if fuser.run.is_empty() {
            fuser.support = [qubits[0], qubits[qubits.len() - 1]];
            fuser.arity = qubits.len();
        }
        fuser.run.push((op, place));
    }

    /// Ends the open run, if any: one channel-table sweep when it holds
    /// a channel, its unitary ops unchanged when it does not.
    fn flush_run(&mut self) {
        let fuser = &mut self.fuser;
        if fuser
            .run
            .iter()
            .any(|(op, _)| matches!(op, Fixed::Channel(_)))
        {
            let entry = fuser.entry_of_open_run(self.unitaries.len());
            self.ops
                .push(channel_op(entry, &fuser.support[..fuser.arity]));
        } else {
            for &(op, place) in &fuser.run {
                let Fixed::Unitary(slot) = op else {
                    unreachable!("run holds no channel")
                };
                let (qubits, n) = place.operands(&fuser.support[..fuser.arity]);
                self.ops.push(unitary_op(slot, &qubits[..n]));
            }
        }
        fuser.run.clear();
        fuser.arity = 0;
    }

    /// Seals the program with its readout model and scheduled duration;
    /// the tape and tables keep no growth slack.
    ///
    /// # Panics
    ///
    /// Panics if a channel was deferred
    /// ([`ProgramBuilder::push_deferred_channel`]): use
    /// [`ProgramBuilder::finish_with`].
    pub fn finish(self, readout: ReadoutError, duration_ns: f64) -> CompiledProgram {
        self.finish_with(readout, duration_ns, |key, _| {
            panic!("deferred channel {key} needs ProgramBuilder::finish_with")
        })
    }

    /// [`ProgramBuilder::finish`] for a program with deferred channels:
    /// seals the plan, then fills the fused table exactly as
    /// [`CompiledProgram::refresh`] will — `lower(key, table)` pushes
    /// the superoperator of the deferred channel `key` onto `table`.
    pub fn finish_with(
        mut self,
        readout: ReadoutError,
        duration_ns: f64,
        lower: impl FnMut(usize, &mut SuperopTable),
    ) -> CompiledProgram {
        self.flush_run();
        self.ops.shrink_to_fit();
        self.unitaries.shrink_to_fit();
        let Fuser {
            mut plan, given, ..
        } = self.fuser;
        plan.lower_gates(&self.unitaries);
        plan.members.shrink_to_fit();
        plan.runs.shrink_to_fit();
        plan.bounds.shrink_to_fit();
        let mut program = CompiledProgram {
            n_qubits: self.n_qubits,
            ops: self.ops,
            unitaries: self.unitaries,
            superops: SuperopTable::default(),
            plan,
            readout,
            duration_ns,
            skipped_channels: self.skipped_channels,
        };
        program.fill_fused(&given, lower);
        program
    }
}

fn unitary_op(slot: usize, qubits: &[usize]) -> TapeOp {
    match *qubits {
        [q] => TapeOp::Unitary1q { slot, q },
        [q0, q1] => TapeOp::Unitary2q { slot, q0, q1 },
        _ => unreachable!("operand count checked on push"),
    }
}

fn channel_op(channel: usize, qubits: &[usize]) -> TapeOp {
    match *qubits {
        [q] => TapeOp::Channel1q { channel, q },
        [q0, q1] => TapeOp::Channel2q { channel, q0, q1 },
        _ => unreachable!("operand count checked on push"),
    }
}

/// Exact density-matrix engine over a persistent state.
///
/// Equivalent to evolving a fresh [`DensityMatrix`] per job, but: the
/// state allocation is reused, channels apply as the program's lowered
/// superoperators (one in-place sweep each), probabilities and the
/// sampling CDF live in reusable buffers, and counts are assembled from
/// a dense histogram (no per-shot hash-map insert).
///
/// Fork states recycle too: [`DensityEngine::resume_probs`] takes a
/// fork as its state and keeps the state it replaces as a spare, and
/// [`DensityEngine::evolve_group_forks`] fills its forks from the
/// spares. Once warm, a walk of `k` forks allocates nothing, and an
/// engine that resumes its own forks holds at most `k + 1` states for
/// the largest such `k`.
#[derive(Clone, Debug, Default)]
pub struct DensityEngine {
    rho: Option<DensityMatrix>,
    /// States a resumed fork replaced, waiting to be the next forks.
    spares: Vec<DensityMatrix>,
    probs: Vec<f64>,
    sampler: ShotSampler,
}

impl DensityEngine {
    /// Creates an engine; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The unnormalized state the last evolution left (`None` before
    /// the first). It is the state of the tape as given: a program that
    /// `qdevice` compiled carries its RZs as a per-qubit frame and drops
    /// the frame still owed at the end, so its diagonal (every
    /// probability) is the circuit's and its off-diagonals are in the
    /// frame of the plan — see `qdevice::compile`. Only its upper
    /// triangle is live: the storage below the diagonal is unspecified
    /// (the engine never writes it), and [`DensityMatrix`]'s readers
    /// read that half through the mirror.
    pub fn state(&self) -> Option<&DensityMatrix> {
        self.rho.as_ref()
    }

    /// Spare states held for the next forks (memory telemetry): after a
    /// walk of `k` forks whose suffixes all resumed here, at most `k`.
    pub fn spare_states(&self) -> usize {
        self.spares.len()
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
        let superops = program.superops();
        let rho = self.rho.as_mut().expect("state initialized by reset");
        for op in ops {
            match *op {
                TapeOp::Unitary1q { slot, q } => rho.apply_unitary_1q(program.unitary(slot), q),
                TapeOp::Unitary2q { slot, q0, q1 } => {
                    rho.apply_unitary_2q(program.unitary(slot), q0, q1)
                }
                TapeOp::Channel1q { channel, q } => rho.apply_superop(superops.get(channel), &[q]),
                TapeOp::Channel2q { channel, q0, q1 } => {
                    rho.apply_superop(superops.get(channel), &[q0, q1])
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

    /// Walks the base-bound tape **once** from `|0..0><0..0|`, forking
    /// an N-way shift group off it.
    ///
    /// Each variant diverges from the base binding at exactly one tape
    /// op (the op using its `slot`); when the walk reaches that op the
    /// current state is forked, the variant's matrix applied, and the
    /// forked state parked in `forks` as `(variant_index, resume_op,
    /// state)` for [`DensityEngine::resume_probs`] to finish, in any
    /// order, since the suffix evolutions are independent. A fork is a
    /// spare state overwritten with the walk's live half (a fresh clone
    /// only when no spare is left). The walk itself continues with the
    /// base matrix. `base` receives the base binding's own
    /// distribution; when `None` the walk stops at the last fork.
    ///
    /// Byte-identity: every variant's suffix sees exactly the
    /// floating-point state a full [`DensityEngine::evolve_probs`] of
    /// its binding would have computed, because the shared prefix
    /// performs identical operations in identical order.
    ///
    /// # Panics
    ///
    /// Panics if a variant's slot never appears on the tape.
    pub fn evolve_group_forks(
        &mut self,
        program: &CompiledProgram,
        variants: &[(usize, CMatrix)],
        forks: &mut Vec<(usize, usize, DensityMatrix)>,
        base: Option<&mut Vec<f64>>,
    ) {
        let ops = program.ops();
        self.reset(program.num_qubits());
        let splits: Vec<usize> = variants
            .iter()
            .map(|&(slot, _)| {
                ops.iter()
                    .position(|op| op.unitary_slot() == Some(slot))
                    .expect("variant slot must appear on the tape")
            })
            .collect();
        // Walk no further than the outputs require.
        let end = match base {
            Some(_) => ops.len(),
            None => splits.iter().copied().max().unwrap_or(0),
        };
        forks.clear();
        for t in 0..=end {
            for (v, (_, matrix)) in variants.iter().enumerate() {
                if splits[v] != t {
                    continue;
                }
                let rho = self.rho.as_ref().expect("state initialized by reset");
                let mut state = match self.spares.pop() {
                    Some(mut spare) => {
                        spare.copy_from(rho);
                        spare
                    }
                    None => rho.clone(),
                };
                match ops[t] {
                    TapeOp::Unitary1q { q, .. } => state.apply_unitary_1q(matrix, q),
                    TapeOp::Unitary2q { q0, q1, .. } => state.apply_unitary_2q(matrix, q0, q1),
                    _ => unreachable!("split op is a unitary by construction"),
                }
                forks.push((v, t + 1, state));
            }
            if t < end {
                self.evolve_ops(program, &ops[t..t + 1]);
            }
        }
        if let Some(out) = base {
            self.finish_probs(program);
            out.clear();
            out.extend_from_slice(&self.probs);
        }
    }

    /// Finishes one forked variant: takes `state` as the engine's state
    /// (the one it replaces becomes a spare for the next fork), replays
    /// `ops[resume_at..]`, and writes the post-readout distribution into
    /// `out` — the suffix half of [`DensityEngine::evolve_group_forks`].
    /// It may run on any engine, not only the one that forked `state`.
    pub fn resume_probs(
        &mut self,
        program: &CompiledProgram,
        state: DensityMatrix,
        resume_at: usize,
        out: &mut Vec<f64>,
    ) {
        if let Some(old) = self.rho.replace(state) {
            self.spares.push(old);
        }
        self.evolve_ops(program, &program.ops()[resume_at..]);
        self.finish_probs(program);
        out.clear();
        out.extend_from_slice(&self.probs);
    }

    /// Samples `shots` measurements from a distribution produced by
    /// [`DensityEngine::evolve_probs`] or
    /// [`DensityEngine::resume_probs`]. Draw order is exactly the
    /// sampling stage of [`DensityEngine::run_program`].
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
    fn a_gate_cluster_is_one_sweep_and_is_composed_once() {
        let relax = KrausChannel::thermal_relaxation(100.0, 80.0, 3.0);
        let depol = KrausChannel::depolarizing_1q(0.01);
        let mut b = ProgramBuilder::new(2);
        let mut slots = Vec::new();
        for q in [0, 0, 1] {
            b.push_unitary(gates::sx(), &[q]);
            b.push_channel(&relax, &[q]);
            b.push_channel(&depol, &[q]);
            slots.push(b.push_parameterized(gates::rz(0.3), &[q]));
        }
        let prog = b.finish(ReadoutError::uniform(2, 0.0), 100.0);
        let expected: Vec<TapeOp> = [0, 0, 1]
            .iter()
            .zip(&slots)
            .flat_map(|(&q, &slot)| {
                [
                    TapeOp::Channel1q { channel: 0, q },
                    TapeOp::Unitary1q { slot, q },
                ]
            })
            .collect();
        assert_eq!(prog.ops(), expected, "9 fixed pushes are 3 sweeps");
        assert_eq!(prog.num_channels(), 1, "the recurring cluster is one entry");
        let s = prog.superops().get(0);
        assert_eq!((s.num_qubits(), s.nnz()), (1, 16));
    }

    /// A noisy two-qubit program whose three channels are deferred
    /// under keys 0 (relaxation), 1 and 2 (one- and two-qubit
    /// depolarizing), filled with the numbers `(t2, p1, p2)`.
    fn deferred_program(numbers: (f64, f64, f64)) -> CompiledProgram {
        let mut b = ProgramBuilder::new(2);
        for q in [0, 1, 0] {
            b.push_unitary(gates::sx(), &[q]);
            b.push_deferred_channel(0, &[q], false);
            b.push_deferred_channel(1, &[q], false);
            b.push_parameterized(gates::rz(0.3), &[q]);
        }
        b.push_unitary(gates::cx(), &[1, 0]);
        b.push_deferred_channel(0, &[0], false);
        b.push_deferred_channel(2, &[0, 1], false);
        b.push_deferred_channel(3, &[1], true);
        b.finish_with(ReadoutError::uniform(2, 0.01), 100.0, lower(numbers))
    }

    fn lower((t2, p1, p2): (f64, f64, f64)) -> impl FnMut(usize, &mut SuperopTable) {
        move |key, table| {
            match key {
                0 => table.push_thermal_relaxation(100.0, t2, 3.0),
                1 => table.push_depolarizing_1q(p1),
                2 => table.push_depolarizing_2q(p2),
                _ => unreachable!("key {key} was elided"),
            };
        }
    }

    #[test]
    fn a_refreshed_program_equals_one_built_from_the_new_numbers() {
        let (before, after) = ((80.0, 0.01, 0.02), (55.0, 0.013, 0.031));
        let mut program = deferred_program(before);
        assert_eq!(program.skipped_channels(), 1);
        assert_eq!(
            program.num_channels(),
            2,
            "the recurring cluster, the CX run"
        );
        let tape = program.ops().to_vec();
        program.refresh(ReadoutError::uniform(2, 0.02), lower(after));
        let fresh = deferred_program(after);
        assert_eq!(program.ops(), tape, "a refresh leaves the tape alone");
        assert_eq!(program.superops(), fresh.superops());
        assert_ne!(program.superops(), deferred_program(before).superops());
        assert_eq!(program.readout(), &ReadoutError::uniform(2, 0.02));
        // The same program from Kraus lists holds the same table: one
        // arithmetic, wherever the members' numbers come from.
        let (t2, p1, p2) = after;
        let relax = KrausChannel::thermal_relaxation(100.0, t2, 3.0);
        let mut b = ProgramBuilder::new(2);
        for q in [0, 1, 0] {
            b.push_unitary(gates::sx(), &[q]);
            b.push_channel(&relax, &[q]);
            b.push_channel(&KrausChannel::depolarizing_1q(p1), &[q]);
            b.push_parameterized(gates::rz(0.3), &[q]);
        }
        b.push_unitary(gates::cx(), &[1, 0]);
        b.push_channel(&relax, &[0]);
        b.push_channel(&KrausChannel::depolarizing_2q(p2), &[0, 1]);
        let given = b.finish(ReadoutError::uniform(2, 0.02), 100.0);
        assert_eq!(given.ops(), fresh.ops());
        assert_eq!(given.superops(), fresh.superops());
    }

    #[test]
    #[should_panic(expected = "lowered once, by the builder")]
    fn a_program_built_from_kraus_lists_cannot_be_refreshed() {
        bell_program(0.05).refresh(ReadoutError::uniform(2, 0.0), |_, _| {});
    }

    #[test]
    #[should_panic(expected = "needs ProgramBuilder::finish_with")]
    fn deferred_channels_need_their_numbers_to_finish() {
        let mut b = ProgramBuilder::new(1);
        b.push_deferred_channel(0, &[0], false);
        let _ = b.finish(ReadoutError::uniform(1, 0.0), 35.0);
    }

    #[test]
    fn a_one_qubit_run_grows_into_the_two_qubit_op_in_either_order() {
        let relax = KrausChannel::thermal_relaxation(100.0, 80.0, 3.0);
        let depol2 = KrausChannel::depolarizing_2q(0.02);
        for (idle, reversed) in [(0, false), (1, false), (1, true)] {
            let mut b = ProgramBuilder::new(3);
            b.push_channel(&relax, &[idle]);
            b.push_unitary(gates::cx(), &[0, 1]);
            b.push_channel(&relax, &[0]);
            b.push_channel(&relax, &[1]);
            let pair: &[usize] = if reversed { &[1, 0] } else { &[0, 1] };
            b.push_channel(&depol2, pair);
            // Outside the support: ends the run.
            b.push_channel(&relax, &[2]);
            let prog = b.finish(ReadoutError::uniform(3, 0.0), 100.0);
            assert_eq!(
                prog.ops(),
                [
                    TapeOp::Channel2q {
                        channel: 0,
                        q0: 0,
                        q1: 1
                    },
                    TapeOp::Channel1q { channel: 1, q: 2 },
                ],
                "idle on {idle}, reversed {reversed}"
            );
            assert!(prog.superops().get(0).is_real(), "a CX run is real");
        }
    }

    #[test]
    fn an_unfused_unitary_splits_the_run_and_keeps_both_halves_real() {
        let relax = KrausChannel::thermal_relaxation(100.0, 80.0, 3.0);
        let cluster = |b: &mut ProgramBuilder, unfused: bool| {
            b.push_unitary(gates::ry(0.5), &[0]);
            b.push_channel(&relax, &[0]);
            if unfused {
                b.push_unfused_unitary(gates::rz(0.3), &[0]);
            } else {
                b.push_unitary(gates::rz(0.3), &[0]);
            }
            b.push_unitary(gates::cx(), &[0, 1]);
            b.push_channel(&relax, &[1]);
        };
        let mut b = ProgramBuilder::new(2);
        cluster(&mut b, true);
        // The same matrix again shares the slot.
        let rz = b.push_unfused_unitary(gates::rz(0.3), &[1]);
        let split = b.finish(ReadoutError::uniform(2, 0.0), 100.0);
        assert_eq!(
            split.ops(),
            [
                TapeOp::Channel1q { channel: 0, q: 0 },
                TapeOp::Unitary1q { slot: rz, q: 0 },
                TapeOp::Channel2q {
                    channel: 1,
                    q0: 0,
                    q1: 1
                },
                TapeOp::Unitary1q { slot: rz, q: 1 },
            ]
        );
        assert!((0..2).all(|i| split.superops().get(i).is_real()));
        // Pushed as an ordinary unitary it joins the run and the one
        // sweep is complex.
        let mut b = ProgramBuilder::new(2);
        cluster(&mut b, false);
        let fused = b.finish(ReadoutError::uniform(2, 0.0), 100.0);
        assert_eq!(fused.ops().len(), 1);
        assert!(!fused.superops().get(0).is_real());
        // Either way it is the same evolution (the trailing phase on
        // qubit 1 moves no probability).
        let mut fused_probs = Vec::new();
        DensityEngine::new().evolve_probs(&fused, &mut fused_probs);
        let mut split_probs = Vec::new();
        DensityEngine::new().evolve_probs(&split, &mut split_probs);
        for (a, b) in split_probs.iter().zip(&fused_probs) {
            assert!((a - b).abs() < 1e-15, "{split_probs:?} vs {fused_probs:?}");
        }
    }

    #[test]
    fn ideal_noise_compiles_to_unitary_ops_only() {
        let mut b = ProgramBuilder::new(2);
        let h = b.push_unitary(gates::h(), &[0]);
        let cx = b.push_unitary(gates::cx(), &[0, 1]);
        let rz = b.push_unitary(gates::rz(0.4), &[1]);
        let p = b.push_parameterized(gates::ry(0.1), &[1]);
        b.push_unitary(gates::cx(), &[1, 0]);
        // Elided channels do not make a run noisy.
        b.push_channel(&KrausChannel::depolarizing_1q(0.0), &[0]);
        let prog = b.finish(ReadoutError::uniform(2, 0.0), 100.0);
        assert_eq!(
            prog.ops(),
            [
                TapeOp::Unitary1q { slot: h, q: 0 },
                TapeOp::Unitary2q {
                    slot: cx,
                    q0: 0,
                    q1: 1
                },
                TapeOp::Unitary1q { slot: rz, q: 1 },
                TapeOp::Unitary1q { slot: p, q: 1 },
                TapeOp::Unitary2q {
                    slot: cx,
                    q0: 1,
                    q1: 0
                },
            ]
        );
        assert_eq!(prog.num_channels(), 0);
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

        // One walk, both legs forked at the slot, no base wanted.
        let variants = [(slot, fwd_mat), (slot, bck_mat)];
        let mut forks = Vec::new();
        engine.evolve_group_forks(&prog, &variants, &mut forks, None);
        assert_eq!(forks.len(), 2);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let mut out = Vec::new();
        for ((v, at, state), reference) in forks.into_iter().zip([&fwd_ref, &bck_ref]) {
            engine.resume_probs(&prog, state, at, &mut out);
            assert_eq!(bits(&out), bits(reference), "leg {v}");
        }
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
        engine.evolve_group_forks(&prog, &variants, &mut forks, Some(&mut base));
        assert_eq!(forks.len(), variants.len());
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base), bits(&base_ref), "base binding");
        let mut out = Vec::new();
        for (v, resume_at, state) in forks {
            engine.resume_probs(&prog, state, resume_at, &mut out);
            assert_eq!(bits(&out), bits(&refs[v]), "variant {v}");
        }
    }
}
