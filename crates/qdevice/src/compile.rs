//! Circuit + noise → executable program compilation.
//!
//! This is the device-side half of the engine layer ([`qsim::program`]
//! is the simulation half): it walks a compacted physical circuit
//! through the noisy schedule **once**, resolving every fixed gate
//! matrix and handing every channel to the program builder under the
//! schedule's own channel index (so interning compares an integer, not
//! Kraus matrices) — producing a [`CompiledProgram`] lowered for the
//! one engine that will replay it ([`Lowering`]): fused superoperator
//! sweeps for the density engine, the plain Kraus tape for
//! trajectories.
//!
//! Two entry points:
//!
//! * [`compile_bound`] — one-shot compilation of a fully bound circuit
//!   (the compatibility path behind
//!   [`crate::noise_model::execute_density`]);
//! * [`CompiledTemplate`] — the hot path: a *symbolic* circuit template
//!   compiled once per noise epoch (in practice once per calibration
//!   cycle) and rebound per job. Rebinding swaps only the small rotation
//!   matrices of parameterized gates; the tape, the channel table and
//!   all fixed matrices are reused. A [`NoiseToken`] identifies the
//!   noise epoch: equal tokens guarantee bit-identical noise, so caching
//!   on the token (and the lowering) is exact, never approximate.

use crate::noise_model::{schedule, NoiseModel, ScheduledOp};
use qcircuit::{Angle, Circuit};
use qsim::{CMatrix, CompiledProgram, Lowering, ProgramBuilder};

/// Options governing program compilation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompileOptions {
    /// Channels whose non-identity content falls below this norm are
    /// elided from the tape (see [`qsim::KrausChannel::is_near_identity`]).
    /// The default ([`ProgramBuilder::DEFAULT_IDENTITY_EPSILON`]) sits
    /// far below every physical error rate the device layer produces;
    /// set to `0.0` to disable elision entirely.
    pub identity_epsilon: f64,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            identity_epsilon: ProgramBuilder::DEFAULT_IDENTITY_EPSILON,
        }
    }
}

/// Identifies one noise epoch of one backend: the calibration cycle plus
/// the exact drift factors in effect. Two equal tokens from the same
/// backend imply bit-identical noise, which is what makes token-keyed
/// program caching exact. Without drift the factors are constant, so the
/// token — and therefore the compiled program and the backend's
/// [`NoiseModel`] — changes only at recalibration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoiseToken {
    /// Backend identity — a unique per-construction id (clones share
    /// it, which is sound: a clone carries bit-identical noise).
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

/// Compiles a circuit (symbolic angles allowed) against a noise model,
/// lowered for one engine.
///
/// Returns the program plus the rebind map: one `(slot, gate_idx)` pair
/// per parameterized gate, in schedule order. Fixed gates are resolved
/// and interned immediately; parameterized gates get a unique
/// placeholder slot that [`CompiledTemplate::bind`] fills per job.
///
/// # Panics
///
/// Panics if the circuit references out-of-range qubits for the noise
/// model (mirroring the executors it feeds).
pub fn compile(
    circuit: &Circuit,
    noise: &NoiseModel,
    options: &CompileOptions,
    lowering: Lowering,
) -> (CompiledProgram, Vec<(usize, usize)>) {
    let mut builder = ProgramBuilder::for_lowering(circuit.num_qubits(), lowering)
        .with_identity_epsilon(options.identity_epsilon);
    let mut param_slots = Vec::new();
    let duration = schedule(circuit, noise, |op| match op {
        ScheduledOp::Unitary(gate_idx, g, qs) => {
            let symbolic = g.angle().and_then(Angle::param).is_some();
            if symbolic {
                let slot = builder.push_parameterized(CMatrix::identity(1 << qs.len()), qs);
                param_slots.push((slot, gate_idx));
            } else {
                builder.push_unitary(g.matrix(&[]), qs);
            }
        }
        ScheduledOp::Channel(key, ch, qs) => builder.push_keyed_channel(key, ch, qs),
    });
    (builder.finish(noise.readout(), duration), param_slots)
}

/// Compiles a fully bound circuit into a ready-to-run program.
///
/// # Panics
///
/// Panics if the circuit still has unbound parameters.
pub fn compile_bound(
    circuit: &Circuit,
    noise: &NoiseModel,
    options: &CompileOptions,
    lowering: Lowering,
) -> CompiledProgram {
    assert_eq!(
        circuit.num_params(),
        0,
        "compile_bound requires a fully bound circuit"
    );
    compile(circuit, noise, options, lowering).0
}

/// A symbolic circuit template compiled once per noise epoch and
/// rebound per job — the unit the ensemble clients cache.
///
/// Created once per (template, device) pair from the transpiled compact
/// circuit and its active physical qubits. On each job the backend calls
/// [`CompiledTemplate::ensure_compiled`] with the current epoch's noise:
/// a matching [`NoiseToken`] is a cache hit (nothing rebuilt), a
/// mismatch — typically a recalibration — recompiles the tape and
/// channel set. [`CompiledTemplate::bind`] then resolves the
/// parameterized gates for the job's parameter vector and optional
/// parameter-shift, touching only the rebind slots.
#[derive(Clone, Debug)]
pub struct CompiledTemplate {
    circuit: Circuit,
    active_physical: Vec<usize>,
    options: CompileOptions,
    program: Option<CompiledProgram>,
    param_slots: Vec<(usize, usize)>,
    token: Option<NoiseToken>,
    compiles: u64,
    cache_hits: u64,
}

impl CompiledTemplate {
    /// Wraps a symbolic compact circuit and the physical qubits backing
    /// its compact register (from
    /// [`transpile::Transpiled::compact_for_simulation`] /
    /// [`transpile::Transpiled::active_qubits`]).
    pub fn new(circuit: Circuit, active_physical: Vec<usize>) -> Self {
        assert_eq!(
            circuit.num_qubits(),
            active_physical.len(),
            "compact circuit width must match active qubit list"
        );
        CompiledTemplate {
            circuit,
            active_physical,
            options: CompileOptions::default(),
            program: None,
            param_slots: Vec::new(),
            token: None,
            compiles: 0,
            cache_hits: 0,
        }
    }

    /// Overrides the compile options (builder style); invalidates any
    /// cached program.
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self.program = None;
        self.token = None;
        self
    }

    /// The symbolic compact circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Physical qubit behind each compact qubit.
    pub fn active_physical(&self) -> &[usize] {
        &self.active_physical
    }

    /// Times the template was (re)compiled — once per noise epoch seen.
    pub fn compiles(&self) -> u64 {
        self.compiles
    }

    /// Jobs served from the cached program without recompiling.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Compiles against `noise` for the density engine unless the
    /// cached program already matches `token` (and is density-lowered).
    pub fn ensure_compiled(&mut self, noise: &NoiseModel, token: NoiseToken) {
        self.ensure_lowered(noise, token, Lowering::Density);
    }

    /// [`CompiledTemplate::ensure_compiled`] for the engine of the
    /// caller's choosing: a cached program is a hit only when it matches
    /// `token` *and* was lowered for `lowering` — a backend switched
    /// between simulators recompiles instead of handing an engine the
    /// other one's tape.
    pub fn ensure_lowered(&mut self, noise: &NoiseModel, token: NoiseToken, lowering: Lowering) {
        let cached = self.program.as_ref().map(CompiledProgram::lowering);
        if self.token == Some(token) && cached == Some(lowering) {
            self.cache_hits += 1;
            return;
        }
        let (program, param_slots) = compile(&self.circuit, noise, &self.options, lowering);
        self.program = Some(program);
        self.param_slots = param_slots;
        self.token = Some(token);
        self.compiles += 1;
    }

    /// Resolves every parameterized gate against `params`, adding
    /// `delta` to the occurrence at `gate_idx` when
    /// `shift = Some((gate_idx, delta))` — the compiled twin of
    /// [`Circuit::bind_with_shift`] (and of [`Circuit::bind`] when
    /// `shift` is `None`), bit-identical in the matrices it produces.
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
        let program = self
            .program
            .as_mut()
            .expect("bind requires a compiled template");
        for &(slot, gate_idx) in &self.param_slots {
            let g = self.circuit.gates()[gate_idx];
            let angle = g.angle().expect("rebind slot maps to a parameterized gate");
            let mut value = angle.resolve(params);
            if let Some((shift_idx, delta)) = shift {
                if shift_idx == gate_idx {
                    value += delta;
                }
            }
            program.set_unitary(slot, g.with_angle(Angle::Fixed(value)).matrix(&[]));
        }
    }

    /// The matrix [`CompiledTemplate::bind`] with `Some((gate_idx,
    /// delta))` would place in the shifted occurrence's rebind slot,
    /// together with that slot — computed without touching the bound
    /// program. Bit-identical to what `bind` writes (`value += delta`
    /// is IEEE `value + delta`), so the backend binds a template's
    /// base once and describes every shifted run as a `(slot, matrix)`
    /// variant of one group-fork walk.
    ///
    /// # Panics
    ///
    /// Panics if `gate_idx` is not a parameterized gate occurrence.
    pub fn shift_matrix(&self, params: &[f64], gate_idx: usize, delta: f64) -> (usize, CMatrix) {
        let &(slot, _) = self
            .param_slots
            .iter()
            .find(|&&(_, g)| g == gate_idx)
            .expect("shift index must name a parameterized gate occurrence");
        let g = self.circuit.gates()[gate_idx];
        let angle = g.angle().expect("rebind slot maps to a parameterized gate");
        let value = angle.resolve(params) + delta;
        (slot, g.with_angle(Angle::Fixed(value)).matrix(&[]))
    }

    /// The compiled program (panics if never compiled).
    pub fn program(&self) -> &CompiledProgram {
        self.program
            .as_ref()
            .expect("template has not been compiled yet")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::noise_model::{execute_density, reference};
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
    fn compiled_template_matches_bind_then_execute() {
        let noise = noisy_model(3);
        let template = ansatz(3);
        let params: Vec<f64> = (0..6).map(|i| 0.3 * i as f64 - 0.7).collect();

        let mut compiled = CompiledTemplate::new(template.clone(), vec![0, 1, 2]);
        compiled.ensure_compiled(&noise, NoiseToken::new(0, 0, 1.0, 1.0));
        compiled.bind(&params, None);
        let engine_counts = qsim::DensityEngine::new().run_program(
            compiled.program(),
            20_000,
            &mut StdRng::seed_from_u64(9),
        );

        let bound = template.bind(&params).unwrap();
        let (direct, duration) =
            reference::execute_density(&bound, &noise, 20_000, &mut StdRng::seed_from_u64(9));
        assert_eq!(
            engine_counts, direct,
            "template path must be byte-identical"
        );
        assert_eq!(compiled.program().duration_ns(), duration);
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

    #[test]
    fn token_mismatch_recompiles_and_match_hits() {
        let noise = noisy_model(2);
        let mut compiled = CompiledTemplate::new(ansatz(2), vec![0, 1]);
        let t0 = NoiseToken::new(7, 0, 1.0, 1.0);
        compiled.ensure_compiled(&noise, t0);
        compiled.ensure_compiled(&noise, t0);
        assert_eq!(compiled.compiles(), 1);
        assert_eq!(compiled.cache_hits(), 1);
        let t1 = NoiseToken::new(7, 1, 1.0, 1.0);
        compiled.ensure_compiled(&noise, t1);
        assert_eq!(compiled.compiles(), 2, "new cycle must recompile");
        let drifted = NoiseToken::new(7, 1, 1.25, 1.0);
        compiled.ensure_compiled(&noise, drifted);
        assert_eq!(compiled.compiles(), 3, "changed drift must recompile");
        compiled.ensure_lowered(&noise, drifted, Lowering::Trajectory);
        assert_eq!(compiled.compiles(), 4, "another engine must recompile");
        assert_eq!(compiled.program().lowering(), Lowering::Trajectory);
        compiled.ensure_lowered(&noise, drifted, Lowering::Trajectory);
        assert_eq!((compiled.compiles(), compiled.cache_hits()), (4, 2));
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
        let program = compile_bound(
            &b.build(),
            &noise,
            &CompileOptions::default(),
            Lowering::Density,
        );
        assert!(
            program.skipped_channels() > 0,
            "near-zero depolarizing channels should be elided"
        );
        assert_eq!(program.num_channels(), 0);
    }
}
