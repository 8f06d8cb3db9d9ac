//! Circuit + noise → executable program compilation.
//!
//! This is the device-side half of the engine layer ([`qsim::program`]
//! is the simulation half), and it is two steps. **Plan**: walk a
//! compacted physical circuit through the noisy schedule once, resolving
//! every fixed gate matrix and handing every channel to the program
//! builder under the index of its *key* — where it acts, not what its
//! numbers are — producing the structure of a [`CompiledProgram`]:
//! tape, matrix table, and which fixed ops each fused sweep multiplies.
//! **Refresh**: lower each kept key to its superoperator under the
//! [`NoiseModel`] of the moment (closed forms, no Kraus list), multiply
//! the runs into the program's fused table in place, set the readout
//! model. A cold compile is plan then refresh; there is one numeric
//! routine, so a refreshed program equals a cold one bit for bit.
//!
//! # The real gauge
//!
//! On IBMQ hardware RZ is virtual — a change of reference frame, free
//! and exact — and every physical one-qubit gate is an SX or an X. A
//! plan lowers gates the same way. The walk carries a *frame*
//! per qubit: the RZ angle owed on it before its next op that does not
//! commute with RZ. A fixed `RZ(a)` adds `a` to the frame and emits
//! nothing. A parameterized RZ takes the frame as a constant offset of
//! its rebind slot. `SX = e^{i pi/4} RZ(-pi/2) RY(pi/2) RZ(pi/2)` adds
//! `pi/2`, settles, pushes the real `RY(pi/2)` and leaves `-pi/2`; `X`
//! pushes itself and negates the frame (`X RZ(a) = RZ(-a) X`); a CX
//! settles its target only (RZ on the control commutes with it); any
//! other gate settles its operands and is pushed as it is. Every noise
//! channel of the schedule commutes with RZ (the contract on
//! `noise_model::ChannelKey`), so the frame passes through all of them,
//! and every fused cluster — `RY` or `X` or `CX` times relaxations and
//! depolarizing — is a **real** superoperator: its sweep multiplies by
//! `f64`s, at about a third of what the same cluster costs around the
//! complex SX matrix.
//!
//! *Settling* a frame puts the RZ it stands for on the tape: folded
//! into the offset of the qubit's last parameterized RZ when only ops
//! that commute with RZ came since (free), otherwise as one diagonal
//! unitary that stays its own tape op — a phase pass over half the
//! state — and never joins a fused run, which it would turn complex. A
//! pass within the elision threshold
//! ([`ProgramBuilder::DEFAULT_IDENTITY_EPSILON`]) of a whole turn is
//! elided like any near-identity channel. Two frames are dropped
//! outright, which is exact for every measurement probability: one
//! owed on a qubit still diagonal in Z (`|0>` and nothing but RZ, X,
//! CX controls and channels since — an RZ moves only coherences, and
//! there are none), and one still owed when the circuit ends
//! (relaxation and the Z-basis readout read no phase). The final *state's* off-diagonals are therefore in
//! the frame of the plan, not the lab's; nothing above `qsim` reads
//! them.
//!
//! Offsets and passes are constants of the plan: they depend on the
//! circuit alone, so a refresh leaves them alone. The pre-engine
//! reference executors (the dev-only `eqc-oracle` crate's walks of
//! [`crate::noise_model::schedule`]), which apply Kraus operators gate
//! for gate, keep the true matrices.
//!
//! Two entry points:
//!
//! * [`compile_bound`] — one-shot compilation of a fully bound circuit
//!   (the compatibility path behind
//!   [`crate::noise_model::execute_density`]);
//! * [`CompiledTemplate`] — the hot path: a *symbolic* circuit template
//!   planned once and rebound per job. Every catalog device drifts
//!   continuously, so in practice every job arrives with a new
//!   [`NoiseToken`] (measured: compiles = tasks on every benchmark
//!   workload); what a job pays is the refresh — the plan is rebuilt
//!   only when the new noise would schedule differently. Rebinding swaps
//!   only the small rotation matrices of parameterized gates. Equal
//!   tokens guarantee bit-identical noise, so skipping even the refresh
//!   on a token match is exact, never approximate.

use crate::noise_model::{walk, ChannelKey, KeyNumbers, NoiseModel, SiteOp, Verdict};
use qcircuit::{Angle, Circuit, Gate};
use qsim::{gates, CMatrix, CompiledProgram, ProgramBuilder, C64};
use std::f64::consts::FRAC_PI_2;
use std::sync::Arc;

/// Identifies one noise epoch of one backend: the calibration cycle plus
/// the exact drift factors in effect. Two equal tokens from the same
/// backend imply bit-identical noise, which is what makes token-keyed
/// program caching exact. Without drift the factors are constant, so the
/// token — and therefore the compiled program and the backend's
/// [`NoiseModel`] — changes only at recalibration. With drift the
/// factors are continuous in the job's start time: every job has its own
/// token, and a [`CompiledTemplate`] answers each with a refresh of the
/// program it planned once.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseToken {
    /// Backend identity — unique per device, shared by its clones
    /// (sound: a clone carries bit-identical noise); see the
    /// `backend` module's "Noise belongs to the device".
    /// Distinguishes equal cycles of different devices, so a template
    /// accidentally run through two backends recompiles instead of
    /// replaying the wrong device's channels.
    pub backend: u64,
    /// Calibration cycle index.
    pub cycle: u64,
    /// Bit pattern of the drift error factor.
    pub error_factor_bits: u64,
    /// Bit pattern of the drift coherence factor.
    pub coherence_factor_bits: u64,
}

impl NoiseToken {
    /// Builds a token from a backend identity, cycle and drift factors.
    pub fn new(backend: u64, cycle: u64, error_factor: f64, coherence_factor: f64) -> Self {
        NoiseToken {
            backend,
            cycle,
            error_factor_bits: error_factor.to_bits(),
            coherence_factor_bits: coherence_factor.to_bits(),
        }
    }
}

/// A compiled program together with what it was planned from.
///
/// The *plan* is everything that is a function of the circuit and of
/// which channels the schedule emits — the tape, the matrix table and
/// rebind slots, the channel keys with a [`Verdict`] each, and (inside
/// the program) which fixed ops every fused sweep multiplies. It is
/// built by one schedule walk in the real gauge (see the module doc):
/// its fixed RZs are frame — rebind-slot offsets and the odd diagonal
/// pass — and its SXs are `RY(pi/2)`. The
/// *numbers* — the keys' superoperators under the noise of the moment,
/// the run products, the readout model — are a
/// [`Plan::refresh_if_holds`] away, and that is all a new drift step
/// costs while the plan holds.
#[derive(Clone, Debug)]
struct Plan {
    program: CompiledProgram,
    /// One entry per parameterized gate, in schedule order.
    param_slots: Vec<RebindSlot>,
    /// The distinct channel keys in first-visit order — the key space of
    /// the program's deferred channels — and what the plan does with
    /// each.
    keys: Vec<ChannelKey>,
    verdicts: Vec<Verdict>,
    /// The gate and readout times the walk ran on: every key's duration
    /// and the program's own derive from these three.
    gate_times_ns: [f64; 3],
}

/// Where a parameterized gate's matrix goes, and from what angle.
#[derive(Clone, Copy, Debug)]
struct RebindSlot {
    /// Matrix-table slot of the program.
    slot: usize,
    /// The gate, as an index into the circuit's gate list.
    gate_idx: usize,
    /// Radians added to the gate's resolved angle: the frame the plan
    /// folded into this RZ (0 for any other gate). A constant of the
    /// plan.
    offset: f64,
}

impl RebindSlot {
    /// The matrix the slot holds under `params`, with `delta` more on
    /// the angle — the one arithmetic behind both
    /// [`CompiledTemplate::bind`] and [`CompiledTemplate::shift_matrix`],
    /// which the group-fork walk needs to agree bit for bit.
    fn matrix(&self, circuit: &Circuit, params: &[f64], delta: Option<f64>) -> CMatrix {
        let g = circuit.gates()[self.gate_idx];
        let angle = g.angle().expect("rebind slot maps to a parameterized gate");
        let mut value = angle.resolve(params) + self.offset;
        if let Some(delta) = delta {
            value += delta;
        }
        g.with_angle(Angle::Fixed(value)).matrix(&[])
    }
}

/// The per-qubit RZ frame of a plan (see the module doc).
struct Frames {
    /// The RZ angle owed on each qubit before its next op that does not
    /// commute with RZ.
    owed: Vec<f64>,
    /// The rebind slot (index into the plan's list) of the last
    /// parameterized RZ on each qubit, while only ops that commute with
    /// RZ have come since: a frame settled now folds into its offset.
    open: Vec<Option<usize>>,
    /// Whether each qubit is still diagonal in Z — `|0>` and nothing but
    /// RZ, X, CX controls and channels since — so that an RZ on it
    /// changes nothing.
    diagonal: Vec<bool>,
}

impl Frames {
    fn new(n_qubits: usize) -> Self {
        Frames {
            owed: vec![0.0; n_qubits],
            open: vec![None; n_qubits],
            diagonal: vec![true; n_qubits],
        }
    }

    /// Discharges the frame owed on `q`, ahead of an op that does not
    /// commute with RZ: nothing on a qubit still diagonal in Z, a larger
    /// offset on the open rebind slot, else one diagonal pass of its own
    /// — unless the pass is the identity to within the elision threshold
    /// (frames add up to a multiple of 2 pi, give or take rounding, as
    /// often as not: `H` leaves `-pi/2 + pi/2`).
    fn settle(&mut self, q: usize, builder: &mut ProgramBuilder, slots: &mut [RebindSlot]) {
        let owed = std::mem::take(&mut self.owed[q]);
        let open = self.open[q].take();
        if std::mem::take(&mut self.diagonal[q]) || owed == 0.0 {
            return;
        }
        match open {
            Some(i) => slots[i].offset += owed,
            // What the pass multiplies a coherence by, less one.
            None if (C64::cis(owed) - C64::ONE).abs()
                < ProgramBuilder::DEFAULT_IDENTITY_EPSILON => {}
            None => {
                builder.push_unfused_unitary(gates::rz(owed), &[q]);
            }
        }
    }

    /// Pushes one gate of the walk in the real gauge.
    fn push_gate(
        &mut self,
        builder: &mut ProgramBuilder,
        slots: &mut Vec<RebindSlot>,
        gate_idx: usize,
        g: &Gate,
        qs: &[usize],
    ) {
        match *g {
            Gate::Rz(q, Angle::Fixed(a)) => self.owed[q] += a,
            Gate::Rz(q, _) => {
                push_plain(builder, slots, gate_idx, g, qs);
                let last = slots.len() - 1;
                slots[last].offset = std::mem::take(&mut self.owed[q]);
                self.open[q] = Some(last);
            }
            // SX = e^{i pi/4} RZ(-pi/2) RY(pi/2) RZ(pi/2).
            Gate::Sx(q) => {
                self.owed[q] += FRAC_PI_2;
                self.settle(q, builder, slots);
                builder.push_unitary(gates::ry(FRAC_PI_2), qs);
                self.owed[q] = -FRAC_PI_2;
            }
            // X RZ(a) = RZ(-a) X, and X keeps a diagonal qubit diagonal.
            Gate::X(q) => {
                push_plain(builder, slots, gate_idx, g, qs);
                self.owed[q] = -self.owed[q];
                self.open[q] = None;
            }
            // RZ on the control commutes with CX.
            Gate::Cx(_, target) => {
                self.settle(target, builder, slots);
                push_plain(builder, slots, gate_idx, g, qs);
            }
            _ => {
                for &q in qs {
                    self.settle(q, builder, slots);
                }
                push_plain(builder, slots, gate_idx, g, qs);
            }
        }
    }
}

/// Pushes a gate under its own matrix: resolved and interned at once
/// when fixed, as a unique placeholder slot that
/// [`CompiledTemplate::bind`] fills per job when parameterized.
fn push_plain(
    builder: &mut ProgramBuilder,
    slots: &mut Vec<RebindSlot>,
    gate_idx: usize,
    g: &Gate,
    qs: &[usize],
) {
    if g.angle().and_then(Angle::param).is_some() {
        let slot = builder.push_parameterized(CMatrix::identity(1 << qs.len()), qs);
        slots.push(RebindSlot {
            slot,
            gate_idx,
            offset: 0.0,
        });
    } else {
        builder.push_unitary(g.matrix(&[]), qs);
    }
}

fn gate_times_ns(noise: &NoiseModel) -> [f64; 3] {
    [
        noise.gate_time_1q_ns,
        noise.gate_time_2q_ns,
        noise.readout_time_ns,
    ]
}

impl Plan {
    /// Walks the schedule once and builds the program, filled with the
    /// numbers of `noise` — each key evaluated once, on its first
    /// visit, for its verdict and its lowering both.
    fn new(circuit: &Circuit, noise: &NoiseModel) -> Plan {
        let mut builder = ProgramBuilder::new(circuit.num_qubits());
        let mut param_slots = Vec::new();
        let (mut keys, mut verdicts, mut numbers) = (Vec::new(), Vec::new(), Vec::new());
        // The real gauge: a frame still owed when the walk ends is
        // dropped with `frames`.
        let mut frames = Frames::new(circuit.num_qubits());
        let duration = walk(circuit, noise, |op| match op {
            SiteOp::Unitary(gate_idx, g, qs) => {
                frames.push_gate(&mut builder, &mut param_slots, gate_idx, g, qs)
            }
            SiteOp::Channel(idx, key, qs) => {
                if idx == keys.len() {
                    let evaluated = key.evaluate(noise);
                    keys.push(key);
                    verdicts.push(evaluated.verdict(ProgramBuilder::DEFAULT_IDENTITY_EPSILON));
                    numbers.push(evaluated);
                }
                if verdicts[idx] != Verdict::Absent {
                    let elided = verdicts[idx] == Verdict::Elided;
                    builder.push_deferred_channel(idx, qs, elided);
                }
            }
        });
        keys.shrink_to_fit();
        verdicts.shrink_to_fit();
        let program = builder.finish_with(noise.readout(), duration, |key, table| {
            numbers[key].lower(table)
        });
        param_slots.shrink_to_fit();
        Plan {
            program,
            param_slots,
            keys,
            verdicts,
            gate_times_ns: gate_times_ns(noise),
        }
    }

    /// Re-derives the program's numbers from `noise`, in place, if a
    /// walk under `noise` would plan this program again as it is: the
    /// same gate times (hence the same keys in the same order, and the
    /// same duration) and the same verdict on every key — which covers
    /// a T1 turning finite, an error rate leaving zero and a channel
    /// crossing the elision threshold. Each key is evaluated once, for
    /// its verdict and its lowering both. Returns whether the plan held;
    /// a plan that broke is left as it was, for the caller to replace.
    fn refresh_if_holds(&mut self, noise: &NoiseModel) -> bool {
        if self.gate_times_ns.map(f64::to_bits) != gate_times_ns(noise).map(f64::to_bits) {
            return false;
        }
        let numbers: Vec<KeyNumbers> = self.keys.iter().map(|key| key.evaluate(noise)).collect();
        let holds = numbers
            .iter()
            .zip(&self.verdicts)
            .all(|(evaluated, &planned)| {
                evaluated.verdict(ProgramBuilder::DEFAULT_IDENTITY_EPSILON) == planned
            });
        if holds {
            self.program
                .refresh(noise.readout(), |key, table| numbers[key].lower(table));
        }
        holds
    }
}

/// Compiles a fully bound circuit into a ready-to-run program. (A
/// symbolic circuit compiles through [`CompiledTemplate`], the one
/// holder of the rebind slots: a plan keeps part of a parameterized
/// RZ's angle in its slot.)
///
/// # Panics
///
/// Panics if the circuit still has unbound parameters, or references
/// qubits out of range of the noise model (mirroring the executors it
/// feeds).
pub fn compile_bound(circuit: &Circuit, noise: &NoiseModel) -> CompiledProgram {
    assert_eq!(
        circuit.num_params(),
        0,
        "compile_bound requires a fully bound circuit"
    );
    Plan::new(circuit, noise).program
}

/// What one [`CompiledTemplate::ensure_compiled`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compile {
    /// The program already matched the token: nothing rebuilt.
    Hit,
    /// A token miss on a plan that still holds: numbers re-derived in
    /// place.
    Refresh,
    /// The structure was planned: the first compile, or noise that no
    /// longer fits the plan.
    Plan,
}

/// A symbolic circuit template planned once and refreshed per noise
/// token — the unit a device caches per problem template.
///
/// Created once per (template, device) from the transpiled compact
/// circuit and its active physical qubits, which it holds by `Arc`: the
/// devices of one architecture share them; every clone of the device
/// shares the template itself (see [`crate::backend::DeviceTemplate`]).
/// On each job the backend calls
/// [`CompiledTemplate::ensure_compiled`] with the noise of the moment. A
/// matching [`NoiseToken`] is a cache hit (nothing rebuilt). A mismatch
/// — on a drifting device, every job — is a *compile*: the structure
/// planned by the first one is kept (tape, matrix table, rebind slots,
/// channel keys, which ops each fused sweep multiplies) and only its
/// numbers are re-derived, in place, from the new noise. The plan is
/// rebuilt only when the new noise would schedule differently: changed
/// gate times, a T1 turning finite or infinite, an error rate reaching
/// or leaving zero, a channel crossing the elision threshold.
/// [`CompiledTemplate::bind`] then resolves the parameterized gates for
/// the job's parameter vector and optional parameter-shift, touching
/// only the rebind slots.
#[derive(Clone, Debug)]
pub struct CompiledTemplate {
    circuit: Arc<Circuit>,
    active_physical: Arc<[usize]>,
    plan: Option<Plan>,
    token: Option<NoiseToken>,
    compiles: u64,
    plans: u64,
    cache_hits: u64,
}

impl CompiledTemplate {
    /// Wraps a symbolic compact circuit and the physical qubits backing
    /// its compact register (from
    /// [`transpile::Transpiled::compact_for_simulation`] /
    /// [`transpile::Transpiled::active_qubits`]).
    pub fn new(circuit: Circuit, active_physical: Vec<usize>) -> Self {
        Self::shared(Arc::new(circuit), active_physical.into())
    }

    /// [`CompiledTemplate::new`] over a circuit and active set that the
    /// architecture's other devices hold too.
    pub(crate) fn shared(circuit: Arc<Circuit>, active_physical: Arc<[usize]>) -> Self {
        assert_eq!(
            circuit.num_qubits(),
            active_physical.len(),
            "compact circuit width must match active qubit list"
        );
        CompiledTemplate {
            circuit,
            active_physical,
            plan: None,
            token: None,
            compiles: 0,
            plans: 0,
            cache_hits: 0,
        }
    }

    /// The symbolic compact circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Physical qubit behind each compact qubit.
    pub fn active_physical(&self) -> &[usize] {
        &self.active_physical
    }

    /// Times the program was brought up to a new noise token — planned
    /// or refreshed; on a drifting device, once per job.
    pub fn compiles(&self) -> u64 {
        self.compiles
    }

    /// Times the structure was planned (the schedule walked): the first
    /// compile, and every later one whose noise no longer fit the plan.
    /// Telemetry: `compiles() - plans()`
    /// token misses were served by a refresh.
    pub fn plans(&self) -> u64 {
        self.plans
    }

    /// Jobs served from the cached program without recompiling.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Compiles against `noise` unless the cached program already
    /// matches `token`. On a token miss a program whose plan still
    /// holds under `noise` is refreshed in place; anything else is
    /// planned anew. Either way the result equals, bit for bit, a fresh
    /// template compiled against `noise`. Returns which of the three it
    /// did.
    pub fn ensure_compiled(&mut self, noise: &NoiseModel, token: NoiseToken) -> Compile {
        if self.token == Some(token) {
            self.cache_hits += 1;
            return Compile::Hit;
        }
        let refreshed = self
            .plan
            .as_mut()
            .is_some_and(|plan| plan.refresh_if_holds(noise));
        let outcome = if refreshed {
            Compile::Refresh
        } else {
            self.plan = Some(Plan::new(&self.circuit, noise));
            self.plans += 1;
            Compile::Plan
        };
        self.token = Some(token);
        self.compiles += 1;
        outcome
    }

    /// Forgets the noise token the program was compiled for, so the
    /// next [`CompiledTemplate::ensure_compiled`] refreshes (or plans)
    /// instead of trusting the program as it is.
    pub(crate) fn forget_token(&mut self) {
        self.token = None;
    }

    /// Resolves every parameterized gate against `params`, adding
    /// `delta` to the occurrence at `gate_idx` when
    /// `shift = Some((gate_idx, delta))` — the compiled twin of
    /// [`Circuit::bind_with_shift`] (and of [`Circuit::bind`] when
    /// `shift` is `None`), except that an RZ's angle also carries the
    /// frame the plan folded into its slot.
    ///
    /// # Panics
    ///
    /// Panics if the template was never compiled or `params` does not
    /// cover the circuit's parameters.
    pub fn bind(&mut self, params: &[f64], shift: Option<(usize, f64)>) {
        assert!(
            params.len() >= self.circuit.num_params(),
            "expected {} parameters, got {}",
            self.circuit.num_params(),
            params.len()
        );
        let plan = self
            .plan
            .as_mut()
            .expect("bind requires a compiled template");
        for rebind in &plan.param_slots {
            let delta = shift
                .filter(|&(shift_idx, _)| shift_idx == rebind.gate_idx)
                .map(|(_, delta)| delta);
            plan.program
                .set_unitary(rebind.slot, rebind.matrix(&self.circuit, params, delta));
        }
    }

    /// The matrix [`CompiledTemplate::bind`] with `Some((gate_idx,
    /// delta))` would place in the shifted occurrence's rebind slot,
    /// together with that slot — computed without touching the bound
    /// program. Bit-identical to what `bind` writes (one routine
    /// resolves the angle, adds the slot's offset, then `delta`, for
    /// both), so the backend binds a template's base once and describes
    /// every shifted run as a `(slot, matrix)` variant of one group-fork
    /// walk.
    ///
    /// # Panics
    ///
    /// Panics if `gate_idx` is not a parameterized gate occurrence.
    pub fn shift_matrix(&self, params: &[f64], gate_idx: usize, delta: f64) -> (usize, CMatrix) {
        let rebind = self
            .plan
            .iter()
            .flat_map(|p| &p.param_slots)
            .find(|rebind| rebind.gate_idx == gate_idx)
            .expect("shift index must name a parameterized gate occurrence");
        (
            rebind.slot,
            rebind.matrix(&self.circuit, params, Some(delta)),
        )
    }

    /// The compiled program (panics if never compiled).
    pub fn program(&self) -> &CompiledProgram {
        &self
            .plan
            .as_ref()
            .expect("template has not been compiled yet")
            .program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::noise_model::execute_density;
    use qcircuit::CircuitBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noisy_model(n: usize) -> NoiseModel {
        let cal = Calibration::uniform(n, 80.0, 60.0, 0.002, 0.02, 0.03);
        let active: Vec<usize> = (0..n).collect();
        NoiseModel::from_calibration(&cal, &active)
    }

    fn ansatz(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new(n);
        for q in 0..n {
            b.ry_sym(q, q);
        }
        for q in 0..n - 1 {
            b.cx(q, q + 1);
        }
        for q in 0..n {
            b.rz_sym(q, n + q);
        }
        b.build()
    }

    #[test]
    fn shifted_bind_matches_bind_with_shift() {
        let noise = noisy_model(2);
        let template = ansatz(2);
        let params = [0.4, -0.2, 0.9, 0.1];
        let occ = template.occurrences_of(qcircuit::ParamId(1));
        assert!(!occ.is_empty());

        let mut compiled = CompiledTemplate::new(template.clone(), vec![0, 1]);
        compiled.ensure_compiled(&noise, NoiseToken::new(0, 0, 1.0, 1.0));
        compiled.bind(&params, Some((occ[0], 0.5)));
        let via_template = qsim::DensityEngine::new().run_program(
            compiled.program(),
            10_000,
            &mut StdRng::seed_from_u64(11),
        );

        let shifted = template.bind_with_shift(&params, occ[0], 0.5).unwrap();
        let (direct, _) = execute_density(&shifted, &noise, 10_000, &mut StdRng::seed_from_u64(11));
        assert_eq!(via_template, direct);
    }

    /// A circuit from a gate list.
    fn circuit(n: usize, gates: &[Gate]) -> Circuit {
        let mut c = Circuit::new(n);
        c.extend(gates.iter().copied()).expect("valid gates");
        c
    }

    /// A template compiled against the ideal model — no channels, so
    /// every gate and every settled frame is a unitary op on the tape.
    fn noiseless(c: Circuit) -> CompiledTemplate {
        let n = c.num_qubits();
        let mut template = CompiledTemplate::new(c, (0..n).collect());
        template.ensure_compiled(&NoiseModel::ideal(n), NoiseToken::new(0, 0, 1.0, 1.0));
        template
    }

    /// The tape as `(operands, matrix)` per op.
    fn tape(template: &CompiledTemplate) -> Vec<(Vec<usize>, CMatrix)> {
        let program = template.program();
        let ops = program.ops().iter().map(|op| match *op {
            qsim::program::TapeOp::Unitary1q { slot, q } => {
                (vec![q], program.unitary(slot).clone())
            }
            qsim::program::TapeOp::Unitary2q { slot, q0, q1 } => {
                (vec![q0, q1], program.unitary(slot).clone())
            }
            _ => panic!("the ideal model schedules no channel"),
        });
        ops.collect()
    }

    fn rz_fixed(q: usize, a: f64) -> Gate {
        Gate::Rz(q, Angle::Fixed(a))
    }

    #[test]
    fn a_frame_on_either_end_of_a_qubit_emits_nothing() {
        let c = circuit(
            2,
            &[
                rz_fixed(0, 0.3),
                Gate::X(1),
                rz_fixed(1, 1.1),
                Gate::Sx(0),
                rz_fixed(0, 0.9),
            ],
        );
        let ry = gates::ry(FRAC_PI_2);
        assert_eq!(tape(&noiseless(c)), [(vec![1], gates::x()), (vec![0], ry)]);
    }

    #[test]
    fn x_negates_the_frame_and_sx_settles_it() {
        let c = circuit(1, &[Gate::Sx(0), rz_fixed(0, 0.3), Gate::X(0), Gate::Sx(0)]);
        let ry = gates::ry(FRAC_PI_2);
        // -pi/2 after the SX, +0.3, negated by the X, +pi/2 into the SX.
        let owed = -(-FRAC_PI_2 + 0.3) + FRAC_PI_2;
        assert_eq!(
            tape(&noiseless(c)),
            [
                (vec![0], ry.clone()),
                (vec![0], gates::x()),
                (vec![0], gates::rz(owed)),
                (vec![0], ry)
            ]
        );
    }

    #[test]
    fn a_cx_settles_its_target_and_not_its_control() {
        let c = circuit(
            2,
            &[
                Gate::Sx(0),
                Gate::Sx(1),
                rz_fixed(0, 0.4),
                rz_fixed(1, 0.7),
                Gate::Cx(0, 1),
                Gate::Sx(0),
            ],
        );
        let ry = gates::ry(FRAC_PI_2);
        assert_eq!(
            tape(&noiseless(c)),
            [
                (vec![0], ry.clone()),
                (vec![1], ry.clone()),
                (vec![1], gates::rz(-FRAC_PI_2 + 0.7)),
                (vec![0, 1], gates::cx()),
                // The control's frame crossed the CX and meets the SX.
                (vec![0], gates::rz(-FRAC_PI_2 + 0.4 + FRAC_PI_2)),
                (vec![0], ry)
            ]
        );
    }

    #[test]
    fn a_frame_that_adds_up_to_a_turn_emits_nothing() {
        // -pi/2 after the SX, + pi/2 + 3 pi/2, + pi/2 into the next SX:
        // a whole turn, which moves no coherence.
        let c = circuit(
            1,
            &[
                Gate::Sx(0),
                rz_fixed(0, FRAC_PI_2),
                rz_fixed(0, 3.0 * FRAC_PI_2),
                Gate::Sx(0),
            ],
        );
        let ry = gates::ry(FRAC_PI_2);
        assert_eq!(tape(&noiseless(c)), [(vec![0], ry.clone()), (vec![0], ry)]);
    }

    #[test]
    fn a_transpiled_ry_rz_pair_is_two_real_clusters_and_two_slots() {
        // RY(t0) RZ(t1) in the native basis: SX RZ(t0 + pi) SX RZ(pi),
        // then the RZ. Every fixed RZ lands in a rebind slot.
        use std::f64::consts::PI;
        let c = circuit(
            1,
            &[
                Gate::Sx(0),
                Gate::Rz(0, Angle::affine(0, 1.0, PI)),
                Gate::Sx(0),
                rz_fixed(0, PI),
                Gate::Rz(0, Angle::sym(1)),
            ],
        );
        let mut template = CompiledTemplate::new(c, vec![0]);
        template.ensure_compiled(&noisy_model(1), NoiseToken::new(0, 0, 1.0, 1.0));
        let plan = template.plan.as_ref().expect("compiled");
        let offsets: Vec<f64> = plan.param_slots.iter().map(|s| s.offset).collect();
        assert_eq!(offsets, [-FRAC_PI_2 + FRAC_PI_2, -FRAC_PI_2 + PI]);
        let program = template.program();
        let slots: Vec<usize> = plan.param_slots.iter().map(|s| s.slot).collect();
        let unitaries: Vec<usize> = program
            .ops()
            .iter()
            .filter_map(|op| op.unitary_slot())
            .collect();
        assert_eq!(unitaries, slots, "the rebind slots and no standalone pass");
        // SX cluster, slot, SX cluster, slot, relaxation up to readout.
        assert_eq!(program.ops().len(), 5);
        assert_eq!(
            program.num_channels(),
            2,
            "the two SX clusters are one entry"
        );
        assert!((0..program.num_channels()).all(|i| program.superops().get(i).is_real()));
        // And it is RY RZ: the textbook pair's distribution, less noise.
        let params = [0.83, -1.9];
        template.bind(&params, None);
        let mut probs = Vec::new();
        qsim::DensityEngine::new().evolve_probs(template.program(), &mut probs);
        let mut b = CircuitBuilder::new(1);
        b.ry(0, params[0]).rz(0, params[1]);
        let ideal = b
            .build()
            .run_statevector(&[])
            .expect("bound")
            .probabilities();
        assert!((probs[1] - ideal[1]).abs() < 0.05, "{probs:?} vs {ideal:?}");
    }

    #[test]
    fn bind_writes_the_matrix_shift_matrix_returns_under_an_offset() {
        use std::f64::consts::PI;
        let c = circuit(
            2,
            &[
                Gate::Sx(0),
                rz_fixed(0, 0.37),
                Gate::Rz(0, Angle::affine(0, 1.0, PI)),
                Gate::Sx(0),
                Gate::Sx(1),
                Gate::Rz(1, Angle::sym(1)),
                Gate::Cx(0, 1),
                Gate::Rz(1, Angle::sym(2)),
                rz_fixed(1, -1.2),
                Gate::Sx(1),
                Gate::Ry(0, Angle::sym(3)),
            ],
        );
        let mut template = CompiledTemplate::new(c.clone(), vec![0, 1]);
        template.ensure_compiled(&noisy_model(2), NoiseToken::new(0, 0, 1.0, 1.0));
        let rebinds = template
            .plan
            .as_ref()
            .expect("compiled")
            .param_slots
            .clone();
        let offsets: Vec<f64> = rebinds.iter().map(|s| s.offset).collect();
        assert_eq!(
            offsets,
            [
                -FRAC_PI_2 + 0.37 + FRAC_PI_2,
                -FRAC_PI_2,
                -1.2 + FRAC_PI_2,
                0.0
            ],
            "the frame before each RZ plus what settled into it; none on the RY"
        );
        let params = [0.4, -0.2, 0.9, 0.1];
        let bits = |m: &CMatrix| -> Vec<(u64, u64)> {
            let entry = |z: &C64| (z.re.to_bits(), z.im.to_bits());
            m.as_slice().iter().map(entry).collect()
        };
        for rebind in &rebinds {
            for delta in [FRAC_PI_2, -FRAC_PI_2, 0.3] {
                let (slot, matrix) = template.shift_matrix(&params, rebind.gate_idx, delta);
                assert_eq!(slot, rebind.slot);
                template.bind(&params, Some((rebind.gate_idx, delta)));
                let bound = template.program().unitary(slot);
                assert_eq!(bits(bound), bits(&matrix), "gate {}", rebind.gate_idx);
                // And the offset is in it.
                let g = c.gates()[rebind.gate_idx];
                let value = g.angle().expect("parameterized").resolve(&params);
                let expected = g
                    .with_angle(Angle::Fixed(value + rebind.offset + delta))
                    .matrix(&[]);
                assert_eq!(bits(bound), bits(&expected));
            }
        }
    }

    #[test]
    fn token_mismatch_recompiles_and_match_hits() {
        let noise = noisy_model(2);
        let mut compiled = CompiledTemplate::new(ansatz(2), vec![0, 1]);
        let t0 = NoiseToken::new(7, 0, 1.0, 1.0);
        assert_eq!(compiled.ensure_compiled(&noise, t0), Compile::Plan);
        assert_eq!(compiled.ensure_compiled(&noise, t0), Compile::Hit);
        assert_eq!(compiled.compiles(), 1);
        assert_eq!(compiled.cache_hits(), 1);
        let t1 = NoiseToken::new(7, 1, 1.0, 1.0);
        assert_eq!(compiled.ensure_compiled(&noise, t1), Compile::Refresh);
        assert_eq!(compiled.compiles(), 2, "new cycle must recompile");
        let drifted = NoiseToken::new(7, 1, 1.25, 1.0);
        compiled.ensure_compiled(&noise, drifted);
        assert_eq!(compiled.compiles(), 3, "changed drift must recompile");
        assert_eq!(compiled.plans(), 1, "token misses on a plan that holds");
        compiled.ensure_compiled(&noise, drifted);
        assert_eq!((compiled.compiles(), compiled.cache_hits()), (3, 2));
    }

    /// A template compiled from scratch against `noise`.
    fn cold(template: &CompiledTemplate, noise: &NoiseModel) -> CompiledTemplate {
        let mut fresh =
            CompiledTemplate::shared(template.circuit.clone(), template.active_physical.clone());
        fresh.ensure_compiled(noise, NoiseToken::new(0, 0, 1.0, 1.0));
        fresh
    }

    fn assert_same_program(a: &CompiledProgram, b: &CompiledProgram, what: &str) {
        assert_eq!(a.ops(), b.ops(), "{what}: tape");
        assert_eq!(a.superops(), b.superops(), "{what}: fused superoperators");
        assert_eq!(a.readout(), b.readout(), "{what}: readout");
        assert_eq!(a.duration_ns().to_bits(), b.duration_ns().to_bits());
        assert_eq!(a.skipped_channels(), b.skipped_channels(), "{what}");
    }

    #[test]
    fn noise_that_breaks_the_plan_replans_and_drift_alone_does_not() {
        let base = Calibration::uniform(3, 80.0, 60.0, 0.002, 0.02, 0.03);
        let model = |cal: &Calibration| NoiseModel::from_calibration(cal, &[0, 1, 2]);
        let mut drifted = base.clone();
        drifted.degrade(1.7, 1.3);
        // Each change moves something the plan is a function of.
        type Change = fn(&mut Calibration);
        let breaking: [(&str, Change); 5] = [
            ("T1 turns infinite", |c| {
                c.qubit_mut(1).t1_us = f64::INFINITY
            }),
            ("a 1q error rate reaches zero", |c| {
                c.qubit_mut(0).gate_error_1q = 0.0
            }),
            ("a CX error rate reaches zero", |c| {
                c.set_cx_error(1, 2, 0.0)
            }),
            ("a channel drops below the elision threshold", |c| {
                c.qubit_mut(2).gate_error_1q = 1e-30
            }),
            ("a gate time changes", |c| c.gate_time_2q_ns *= 1.5),
        ];
        let mut token = 0;
        let mut next_token = || {
            token += 1;
            NoiseToken::new(3, token, 1.0, 1.0)
        };
        for (what, change) in breaking {
            let mut changed = base.clone();
            change(&mut changed);
            let mut template = CompiledTemplate::new(ansatz(3), vec![0, 1, 2]);
            // There, on drifted numbers, and back again.
            let steps = [
                (&base, 1),
                (&drifted, 1),
                (&changed, 2),
                (&changed, 2),
                (&base, 3),
            ];
            for (i, (cal, plans)) in steps.into_iter().enumerate() {
                let noise = model(cal);
                template.ensure_compiled(&noise, next_token());
                assert_eq!(template.plans(), plans, "{what}, step {i}");
                assert_eq!(template.compiles(), i as u64 + 1);
                let fresh = cold(&template, &noise);
                assert_same_program(template.program(), fresh.program(), what);
            }
        }
    }

    #[test]
    fn a_plan_stays_under_a_kibibyte_and_owns_no_scratch() {
        // QAOA ring-4 (the `service_stream` template: one per device,
        // each planned and never refreshed) routed onto belem.
        let mut b = CircuitBuilder::new(4);
        for q in 0..4 {
            b.h(q);
        }
        for q in 0..4 {
            b.rzz_sym(q, (q + 1) % 4, 0);
        }
        for q in 0..4 {
            b.rx_sym(q, 1);
        }
        let spec = crate::catalog::by_name("belem").expect("catalog device");
        let routed = transpile::transpile(
            &b.build(),
            &spec.topology(),
            &transpile::TranspileOptions::default(),
        )
        .expect("ring-4 fits belem");
        let (compact, _) = routed.compact_for_simulation().expect("compacts");
        let active = routed.active_qubits();
        let noise = NoiseModel::from_calibration(&spec.calibration(), &active);
        let mut template = CompiledTemplate::new(compact, active);
        template.ensure_compiled(&noise, NoiseToken::new(0, 0, 1.0, 1.0));
        let plan = template.plan.as_ref().expect("compiled");
        assert!(plan.program.ops().len() >= 30, "a routed ring, not a toy");
        let heap = plan.program.plan_heap_bytes()
            + plan.keys.capacity() * std::mem::size_of::<ChannelKey>()
            + plan.verdicts.capacity() * std::mem::size_of::<Verdict>();
        assert!(heap <= 1024, "plan owns {heap} bytes of heap");
        // The members a refresh lowers live for that call only: the
        // program holds its fused table and the plan's fixed gates,
        // lowered once, and no third table.
        let debug = format!("{template:?}");
        assert_eq!(debug.matches("SuperopTable").count(), 2, "{debug}");
    }

    #[test]
    fn near_identity_channels_are_elided_from_programs() {
        // Infinite coherence (no relaxation channels) plus vanishingly
        // small — but nonzero — gate errors: the scheduler still emits
        // the depolarizing channels (p > 0), but compilation elides them
        // as near-identity instead of paying a Kraus sum per gate.
        let cal = Calibration::uniform(2, f64::INFINITY, f64::INFINITY, 1e-30, 1e-30, 0.02);
        let noise = NoiseModel::from_calibration(&cal, &[0, 1]);
        let mut b = CircuitBuilder::new(2);
        b.h(0).cx(0, 1);
        let program = compile_bound(&b.build(), &noise);
        assert!(
            program.skipped_channels() > 0,
            "near-zero depolarizing channels should be elided"
        );
        assert_eq!(program.num_channels(), 0);
    }
}
