//! Circuit + noise → executable program compilation.
//!
//! This is the device-side half of the engine layer ([`qsim::program`]
//! is the simulation half), and it is two steps. **Plan**: walk a
//! compacted physical circuit through the noisy schedule once, resolving
//! every fixed gate matrix and handing every channel to the program
//! builder under the index of its *key* — where it acts, not what its
//! numbers are — producing the structure of a [`CompiledProgram`] for
//! the one engine that will replay it ([`Lowering`]): tape, matrix
//! table, and for the density engine which fixed ops each fused sweep
//! multiplies. **Refresh**: lower each kept key to its superoperator
//! under the [`NoiseModel`] of the moment (closed forms, no Kraus list),
//! multiply the runs into the program's fused table in place, set the
//! readout model. A cold compile is plan then refresh; there is one
//! numeric routine, so a refreshed program equals a cold one bit for
//! bit. Trajectory programs carry Kraus lists instead and are planned
//! whole each time.
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
//!   on a token (and lowering) match is exact, never approximate.

use crate::noise_model::{schedule, walk, ChannelKey, NoiseModel, ScheduledOp, SiteOp, Verdict};
use qcircuit::{Angle, Circuit, Gate};
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
/// [`NoiseModel`] — changes only at recalibration. With drift the
/// factors are continuous in the job's start time: every job has its own
/// token, and a [`CompiledTemplate`] answers each with a refresh of the
/// program it planned once.
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

/// A compiled program together with what it was planned from.
///
/// The *plan* is everything that is a function of the circuit and of
/// which channels the schedule emits — the tape, the matrix table and
/// rebind slots, the channel keys with a [`Verdict`] each, and (inside
/// the density program) which fixed ops every fused sweep multiplies. It
/// is built by one schedule walk. The *numbers* — the keys'
/// superoperators under the noise of the moment, the run products, the
/// readout model — are a [`Plan::refresh`] away, and that is all a new
/// drift step costs while the plan [holds](Plan::holds).
#[derive(Clone, Debug)]
struct Plan {
    program: CompiledProgram,
    /// One `(slot, gate_idx)` pair per parameterized gate, in schedule
    /// order.
    param_slots: Vec<(usize, usize)>,
    /// The distinct channel keys in first-visit order — the key space of
    /// the program's deferred channels — and what the plan does with
    /// each. Empty for a trajectory program, which is never refreshed.
    keys: Vec<ChannelKey>,
    verdicts: Vec<Verdict>,
    /// The gate and readout times the walk ran on: every key's duration
    /// and the program's own derive from these three.
    gate_times_ns: [f64; 3],
}

fn gate_times_ns(noise: &NoiseModel) -> [f64; 3] {
    [
        noise.gate_time_1q_ns,
        noise.gate_time_2q_ns,
        noise.readout_time_ns,
    ]
}

impl Plan {
    /// Walks the schedule once and builds the program for `lowering`,
    /// filled with the numbers of `noise`.
    fn new(
        circuit: &Circuit,
        noise: &NoiseModel,
        options: &CompileOptions,
        lowering: Lowering,
    ) -> Plan {
        let mut builder = ProgramBuilder::for_lowering(circuit.num_qubits(), lowering)
            .with_identity_epsilon(options.identity_epsilon);
        let mut param_slots = Vec::new();
        // Fixed gates are resolved and interned immediately;
        // parameterized gates get a unique placeholder slot that
        // `CompiledTemplate::bind` fills per job.
        let mut push_gate = |builder: &mut ProgramBuilder, gate_idx, g: &Gate, qs: &[usize]| {
            if g.angle().and_then(Angle::param).is_some() {
                let slot = builder.push_parameterized(CMatrix::identity(1 << qs.len()), qs);
                param_slots.push((slot, gate_idx));
            } else {
                builder.push_unitary(g.matrix(&[]), qs);
            }
        };
        let (mut keys, mut verdicts) = (Vec::new(), Vec::new());
        let program = match lowering {
            Lowering::Density => {
                let duration = walk(circuit, noise, |op| match op {
                    SiteOp::Unitary(gate_idx, g, qs) => push_gate(&mut builder, gate_idx, g, qs),
                    SiteOp::Channel(idx, key, qs) => {
                        if idx == keys.len() {
                            keys.push(key);
                            verdicts.push(key.verdict(noise, options.identity_epsilon));
                        }
                        if verdicts[idx] != Verdict::Absent {
                            let elided = verdicts[idx] == Verdict::Elided;
                            builder.push_deferred_channel(idx, qs, elided);
                        }
                    }
                });
                keys.shrink_to_fit();
                verdicts.shrink_to_fit();
                builder.finish_with(noise.readout(), duration, |key, table| {
                    keys[key].lower(noise, table)
                })
            }
            Lowering::Trajectory => {
                let duration = schedule(circuit, noise, |op| match op {
                    ScheduledOp::Unitary(gate_idx, g, qs) => {
                        push_gate(&mut builder, gate_idx, g, qs)
                    }
                    ScheduledOp::Channel(key, ch, qs) => builder.push_keyed_channel(key, ch, qs),
                });
                builder.finish(noise.readout(), duration)
            }
        };
        param_slots.shrink_to_fit();
        Plan {
            program,
            param_slots,
            keys,
            verdicts,
            gate_times_ns: gate_times_ns(noise),
        }
    }

    /// Whether this is a density program that a walk under `noise`
    /// would plan again as it is: the same gate times (hence the same
    /// keys in the same order, and the same duration) and the same
    /// verdict on every key — which covers a T1 turning finite, an error
    /// rate leaving zero and a channel crossing the elision threshold.
    /// Costs one predicate per key. A trajectory program holds its
    /// numbers in its Kraus tape: it never holds.
    fn holds(&self, noise: &NoiseModel, options: &CompileOptions) -> bool {
        self.program.lowering() == Lowering::Density
            && self.gate_times_ns.map(f64::to_bits) == gate_times_ns(noise).map(f64::to_bits)
            && self
                .keys
                .iter()
                .zip(&self.verdicts)
                .all(|(key, &planned)| key.verdict(noise, options.identity_epsilon) == planned)
    }

    /// Re-derives the program's numbers from `noise`, in place.
    fn refresh(&mut self, noise: &NoiseModel) {
        let keys = &self.keys;
        self.program
            .refresh(noise.readout(), |key, table| keys[key].lower(noise, table));
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
    let plan = Plan::new(circuit, noise, options, lowering);
    (plan.program, plan.param_slots)
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

/// A symbolic circuit template planned once and refreshed per noise
/// token — the unit the ensemble clients cache.
///
/// Created once per (template, device) pair from the transpiled compact
/// circuit and its active physical qubits. On each job the backend calls
/// [`CompiledTemplate::ensure_compiled`] with the noise of the moment. A
/// matching [`NoiseToken`] is a cache hit (nothing rebuilt). A mismatch
/// — on a drifting device, every job — is a *compile*: the structure
/// planned by the first one is kept (tape, matrix table, rebind slots,
/// channel keys, which ops each fused sweep multiplies) and only its
/// numbers are re-derived, in place, from the new noise. The plan is
/// rebuilt only when the new noise would schedule differently: changed
/// gate times, a T1 turning finite or infinite, an error rate reaching
/// or leaving zero, a channel crossing the elision threshold — or
/// another engine asking (trajectory programs are rebuilt per token).
/// [`CompiledTemplate::bind`] then resolves the parameterized gates for
/// the job's parameter vector and optional parameter-shift, touching
/// only the rebind slots.
#[derive(Clone, Debug)]
pub struct CompiledTemplate {
    circuit: Circuit,
    active_physical: Vec<usize>,
    options: CompileOptions,
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
        assert_eq!(
            circuit.num_qubits(),
            active_physical.len(),
            "compact circuit width must match active qubit list"
        );
        CompiledTemplate {
            circuit,
            active_physical,
            options: CompileOptions::default(),
            plan: None,
            token: None,
            compiles: 0,
            plans: 0,
            cache_hits: 0,
        }
    }

    /// Overrides the compile options (builder style); drops any cached
    /// program and its plan — the elision threshold is part of both.
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self.plan = None;
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

    /// Times the program was brought up to a new noise token — planned
    /// or refreshed; on a drifting device, once per job.
    pub fn compiles(&self) -> u64 {
        self.compiles
    }

    /// Times the structure was planned (the schedule walked): the first
    /// compile, and every later one whose noise no longer fit the plan
    /// or asked for another engine. Telemetry: `compiles() - plans()`
    /// token misses were served by a refresh.
    pub fn plans(&self) -> u64 {
        self.plans
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
    /// between simulators re-plans instead of handing an engine the
    /// other one's tape. On a token miss a density program whose plan
    /// still holds under `noise` is refreshed in place; anything else is
    /// planned anew. Either way the result equals, bit for bit, a fresh
    /// template compiled against `noise`.
    pub fn ensure_lowered(&mut self, noise: &NoiseModel, token: NoiseToken, lowering: Lowering) {
        let cached = self.plan.as_ref().map(|p| p.program.lowering());
        if self.token == Some(token) && cached == Some(lowering) {
            self.cache_hits += 1;
            return;
        }
        match &mut self.plan {
            Some(plan) if cached == Some(lowering) && plan.holds(noise, &self.options) => {
                plan.refresh(noise)
            }
            _ => {
                self.plan = Some(Plan::new(&self.circuit, noise, &self.options, lowering));
                self.plans += 1;
            }
        }
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
        let plan = self
            .plan
            .as_mut()
            .expect("bind requires a compiled template");
        for &(slot, gate_idx) in &plan.param_slots {
            let g = self.circuit.gates()[gate_idx];
            let angle = g.angle().expect("rebind slot maps to a parameterized gate");
            let mut value = angle.resolve(params);
            if let Some((shift_idx, delta)) = shift {
                if shift_idx == gate_idx {
                    value += delta;
                }
            }
            plan.program
                .set_unitary(slot, g.with_angle(Angle::Fixed(value)).matrix(&[]));
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
            .plan
            .iter()
            .flat_map(|p| &p.param_slots)
            .find(|&&(_, g)| g == gate_idx)
            .expect("shift index must name a parameterized gate occurrence");
        let g = self.circuit.gates()[gate_idx];
        let angle = g.angle().expect("rebind slot maps to a parameterized gate");
        let value = angle.resolve(params) + delta;
        (slot, g.with_angle(Angle::Fixed(value)).matrix(&[]))
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
        assert_eq!(compiled.plans(), 1, "token misses on a plan that holds");
        compiled.ensure_lowered(&noise, drifted, Lowering::Trajectory);
        assert_eq!(compiled.compiles(), 4, "another engine must recompile");
        assert_eq!(compiled.plans(), 2, "another engine is another plan");
        assert_eq!(compiled.program().lowering(), Lowering::Trajectory);
        compiled.ensure_lowered(&noise, drifted, Lowering::Trajectory);
        assert_eq!((compiled.compiles(), compiled.cache_hits()), (4, 2));
        // Trajectory programs carry Kraus lists: every token re-plans.
        compiled.ensure_lowered(&noise, t1, Lowering::Trajectory);
        assert_eq!((compiled.compiles(), compiled.plans()), (5, 3));
        compiled.ensure_compiled(&noise, t1);
        assert_eq!((compiled.compiles(), compiled.plans()), (6, 4));
    }

    /// A template compiled from scratch against `noise`.
    fn cold(template: &CompiledTemplate, noise: &NoiseModel) -> CompiledTemplate {
        let mut fresh =
            CompiledTemplate::new(template.circuit.clone(), template.active_physical.clone())
                .with_options(template.options);
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
    fn the_elision_threshold_is_part_of_the_plan() {
        let mut cal = Calibration::uniform(3, 80.0, 60.0, 0.002, 0.02, 0.03);
        cal.qubit_mut(0).gate_error_1q = 1e-5;
        let noise = NoiseModel::from_calibration(&cal, &[0, 1, 2]);
        let token = NoiseToken::new(0, 0, 1.0, 1.0);
        let mut template = CompiledTemplate::new(ansatz(3), vec![0, 1, 2]);
        template.ensure_compiled(&noise, token);
        assert_eq!(template.program().skipped_channels(), 0);
        // New options drop the program *and* its plan: the next compile
        // plans under the new threshold instead of refreshing verdicts
        // reached under the old one.
        let coarse = CompileOptions {
            identity_epsilon: 0.05,
        };
        let mut template = template.with_options(coarse);
        template.ensure_compiled(&noise, NoiseToken::new(0, 1, 1.0, 1.0));
        assert_eq!((template.compiles(), template.plans()), (2, 2));
        assert!(template.program().skipped_channels() > 0);
        let fresh = cold(&template, &noise);
        assert_same_program(template.program(), fresh.program(), "coarse threshold");
        // And a refresh under the coarse threshold judges with it.
        let mut louder = cal.clone();
        louder.qubit_mut(0).gate_error_1q = 0.4;
        let noise = NoiseModel::from_calibration(&louder, &[0, 1, 2]);
        template.ensure_compiled(&noise, NoiseToken::new(0, 2, 1.0, 1.0));
        assert_eq!(template.plans(), 3, "the channel crossed 0.05");
        let fresh = cold(&template, &noise);
        assert_same_program(template.program(), fresh.program(), "crossed");
    }

    #[test]
    fn a_plan_stays_under_a_kibibyte_and_owns_no_scratch() {
        // QAOA ring-4 (the `service_stream` template: 1 024 of them live
        // at once, each planned and never refreshed) routed onto belem.
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
        // The members a refresh lowers live for that call only.
        let debug = format!("{template:?}");
        assert_eq!(debug.matches("SuperopTable").count(), 1, "{debug}");
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
