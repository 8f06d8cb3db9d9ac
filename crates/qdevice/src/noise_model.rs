//! From calibration data to executable noise.
//!
//! [`NoiseModel`] instantiates the paper's three error classes for one
//! (compacted) physical circuit: depolarizing gate error, T1/T2 thermal
//! relaxation scheduled along per-qubit timelines (including idle decay),
//! and readout confusion at measurement.
//!
//! [`execute_density`] runs a bound circuit under the model by exact
//! density-matrix evolution, every paper device fitting the engine's
//! qubit cap. It is a thin compatibility wrapper over the
//! compiled-program engine layer ([`crate::compile`] +
//! [`qsim::program`]): the circuit and noise schedule compile to a flat
//! op-tape once, then the engine replays it. [`schedule`] delivers the
//! same noisy schedule with every channel as its Kraus list: the
//! pre-engine executors of the dev-only `eqc-oracle` crate walk it as
//! test ground truth (the density one as the bit-equivalence oracle,
//! the Monte-Carlo trajectory one as an independent statistical
//! cross-check).

use crate::calibration::Calibration;
use qcircuit::{Circuit, Gate};
use qsim::sampler::ReadoutError;
use qsim::{Counts, DensityEngine, DensityMatrix, KrausChannel, RelaxationEntries, SuperopTable};
use rand::Rng;

/// Per-qubit noise figures of a compacted circuit register.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QubitNoise {
    /// T1 in nanoseconds.
    pub t1_ns: f64,
    /// T2 in nanoseconds.
    pub t2_ns: f64,
    /// Depolarizing probability per physical 1q gate.
    pub gate_error_1q: f64,
    /// Readout flip probability.
    pub readout_error: f64,
}

/// A noise model aligned with a compacted physical circuit: index `i`
/// refers to compact qubit `i`, which hosts physical qubit
/// `active_physical[i]`.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseModel {
    qubits: Vec<QubitNoise>,
    /// CX error of every compact pair `lo < hi`, row by row: `(0, 1)`,
    /// `(0, 2)`, ..., `(1, 2)`, ... — built per job under drift and read
    /// per two-qubit gate, so a flat upper triangle and no hashing.
    /// Empty when no pair was ever registered (the ideal model).
    cx_errors: Vec<f64>,
    /// 1q gate duration (ns).
    pub gate_time_1q_ns: f64,
    /// CX duration (ns).
    pub gate_time_2q_ns: f64,
    /// Readout duration (ns).
    pub readout_time_ns: f64,
}

impl NoiseModel {
    /// Projects a device calibration onto the active physical qubits of a
    /// compacted circuit: `active_physical[i]` is the physical qubit
    /// hosting compact qubit `i`.
    ///
    /// # Panics
    ///
    /// Panics if an active qubit is outside the calibration.
    pub fn from_calibration(cal: &Calibration, active_physical: &[usize]) -> Self {
        let qubits = active_physical
            .iter()
            .map(|&p| {
                let qc = cal.qubit(p);
                QubitNoise {
                    t1_ns: qc.t1_us * 1e3,
                    t2_ns: qc.t2_us.min(2.0 * qc.t1_us) * 1e3,
                    gate_error_1q: qc.gate_error_1q,
                    readout_error: qc.readout_error,
                }
            })
            .collect();
        let mut cx_errors = Vec::new();
        for (i, &pi) in active_physical.iter().enumerate() {
            for &pj in &active_physical[i + 1..] {
                cx_errors.push(cal.cx_error(pi, pj));
            }
        }
        NoiseModel {
            qubits,
            cx_errors,
            gate_time_1q_ns: cal.gate_time_1q_ns,
            gate_time_2q_ns: cal.gate_time_2q_ns,
            readout_time_ns: cal.readout_time_ns,
        }
    }

    /// Assembles a model from pre-projected parts — the per-cycle noise
    /// cache rebuilds drifted models through this without touching a
    /// [`Calibration`]. `cx_errors` is the upper triangle, row by row.
    pub(crate) fn from_parts(
        qubits: Vec<QubitNoise>,
        cx_errors: Vec<f64>,
        gate_time_1q_ns: f64,
        gate_time_2q_ns: f64,
        readout_time_ns: f64,
    ) -> Self {
        debug_assert_eq!(
            cx_errors.len(),
            qubits.len() * qubits.len().saturating_sub(1) / 2
        );
        NoiseModel {
            qubits,
            cx_errors,
            gate_time_1q_ns,
            gate_time_2q_ns,
            readout_time_ns,
        }
    }

    /// An ideal (noise-free) model over `n` compact qubits; useful for
    /// testing and the paper's ideal-simulator baseline.
    pub fn ideal(n: usize) -> Self {
        NoiseModel {
            qubits: vec![
                QubitNoise {
                    t1_ns: f64::INFINITY,
                    t2_ns: f64::INFINITY,
                    gate_error_1q: 0.0,
                    readout_error: 0.0,
                };
                n
            ],
            cx_errors: Vec::new(),
            gate_time_1q_ns: Calibration::DEFAULT_T1Q_NS,
            gate_time_2q_ns: Calibration::DEFAULT_T2Q_NS,
            readout_time_ns: Calibration::DEFAULT_READOUT_NS,
        }
    }

    /// Number of compact qubits covered.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// Noise figures of compact qubit `q`.
    pub fn qubit(&self, q: usize) -> &QubitNoise {
        &self.qubits[q]
    }

    /// CX error between two compact qubits (0 when never registered —
    /// e.g. the ideal model).
    pub fn cx_error(&self, a: usize, b: usize) -> f64 {
        let (lo, hi, n) = (a.min(b), a.max(b), self.qubits.len());
        if lo == hi || hi >= n {
            return 0.0;
        }
        let row_start = lo * (2 * n - lo - 1) / 2;
        self.cx_errors
            .get(row_start + hi - lo - 1)
            .copied()
            .unwrap_or(0.0)
    }

    /// The readout confusion model across the register.
    pub fn readout(&self) -> ReadoutError {
        ReadoutError::new(
            self.qubits
                .iter()
                .map(|q| q.readout_error.min(0.5))
                .collect(),
        )
    }
}

/// A channel of the noisy schedule, named by *where* it acts rather than
/// by its numbers: under one [`NoiseModel`] equal keys are the identical
/// channel, and which keys a circuit's schedule visits depends on the
/// circuit and the three gate times only — not on a single error rate or
/// coherence time — so a compiled template keeps its keys across drift
/// and asks each for fresh numbers.
///
/// **Phase covariance.** Every key's channel commutes with `RZ(phi)` on
/// each of its operands, for every `phi`: relaxation damps and dephases
/// about Z, and a uniform Pauli mixture is invariant under any local
/// unitary. The density compiler relies on it — the RZ frame it carries
/// per qubit ([`crate::compile`]) passes through every channel of the
/// schedule unsettled — and `tests/properties.rs` holds each lowered
/// superoperator to it. A future key that is not covariant (a coherent
/// over-rotation, crosstalk) must make that walk settle the frame on its
/// operands first.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ChannelKey {
    /// Thermal relaxation of compact qubit `q` over `duration_ns`.
    Relaxation { q: u8, duration_ns: f64 },
    /// The depolarizing error of a one-qubit gate on `q`.
    Depolarizing1q { q: u8 },
    /// The depolarizing error of a CX on the pair `lo < hi`.
    Depolarizing2q { lo: u8, hi: u8 },
}

/// What a program does with one [`ChannelKey`] under one noise model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The model has no such channel (infinite T1, zero error rate):
    /// the schedule does not emit it.
    Absent,
    /// Emitted, but within the elision threshold of the identity.
    Elided,
    /// Emitted and applied.
    Kept,
}

/// The numbers behind one [`ChannelKey`] under one [`NoiseModel`].
#[derive(Clone, Copy)]
enum ChannelNumbers {
    Relaxation {
        t1_ns: f64,
        t2_ns: f64,
        duration_ns: f64,
    },
    Depolarizing {
        qubits: usize,
        p: f64,
    },
}

impl ChannelKey {
    fn numbers(&self, noise: &NoiseModel) -> ChannelNumbers {
        match *self {
            ChannelKey::Relaxation { q, duration_ns } => {
                let QubitNoise { t1_ns, t2_ns, .. } = noise.qubits[q as usize];
                ChannelNumbers::Relaxation {
                    t1_ns,
                    t2_ns,
                    duration_ns,
                }
            }
            ChannelKey::Depolarizing1q { q } => ChannelNumbers::Depolarizing {
                qubits: 1,
                p: noise.qubits[q as usize].gate_error_1q,
            },
            ChannelKey::Depolarizing2q { lo, hi } => ChannelNumbers::Depolarizing {
                qubits: 2,
                p: noise.cx_error(lo as usize, hi as usize),
            },
        }
    }

    /// This key's numbers under `noise`, worked out as far as judging
    /// ([`KeyNumbers::verdict`]) and lowering ([`KeyNumbers::lower`])
    /// share them — a relaxation's `exp`s and square roots once for
    /// both.
    pub(crate) fn evaluate(&self, noise: &NoiseModel) -> KeyNumbers {
        match self.numbers(noise) {
            numbers if !numbers.occur() => KeyNumbers::Absent,
            ChannelNumbers::Relaxation {
                t1_ns,
                t2_ns,
                duration_ns,
            } => KeyNumbers::Relaxation(RelaxationEntries::new(t1_ns, t2_ns, duration_ns)),
            ChannelNumbers::Depolarizing { qubits, p } => KeyNumbers::Depolarizing { qubits, p },
        }
    }
}

/// One [`ChannelKey`] evaluated under one [`NoiseModel`]
/// ([`ChannelKey::evaluate`]).
#[derive(Clone, Copy, Debug)]
pub(crate) enum KeyNumbers {
    /// The model has no such channel (infinite T1, zero error rate).
    Absent,
    Relaxation(RelaxationEntries),
    Depolarizing {
        qubits: usize,
        p: f64,
    },
}

impl KeyNumbers {
    /// What a density program with elision threshold `identity_epsilon`
    /// (0 disables elision) does with the channel — from the
    /// closed-form predicates, which answer exactly what
    /// [`KrausChannel::is_near_identity`] of the Kraus list would.
    pub(crate) fn verdict(&self, identity_epsilon: f64) -> Verdict {
        let eps = identity_epsilon;
        let near_identity = match *self {
            KeyNumbers::Absent => return Verdict::Absent,
            _ if eps <= 0.0 => false,
            KeyNumbers::Relaxation(entries) => entries.is_near_identity(eps),
            KeyNumbers::Depolarizing { qubits, p } => {
                KrausChannel::depolarizing_is_near_identity(qubits, p, eps)
            }
        };
        if near_identity {
            Verdict::Elided
        } else {
            Verdict::Kept
        }
    }

    /// Pushes the channel's superoperator onto `table`, Kraus-free — bit
    /// for bit what lowering the Kraus list pushes.
    ///
    /// # Panics
    ///
    /// Panics on an absent channel: there is nothing to lower.
    pub(crate) fn lower(&self, table: &mut SuperopTable) {
        match *self {
            KeyNumbers::Absent => panic!("an absent channel is never lowered"),
            KeyNumbers::Relaxation(entries) => table.push_relaxation(&entries),
            KeyNumbers::Depolarizing { qubits: 1, p } => table.push_depolarizing_1q(p),
            KeyNumbers::Depolarizing { p, .. } => table.push_depolarizing_2q(p),
        };
    }
}

impl ChannelNumbers {
    /// Whether the schedule emits the channel: a qubit relaxes when its
    /// T1 is finite, a gate depolarizes when its error rate is positive.
    fn occur(self) -> bool {
        match self {
            ChannelNumbers::Relaxation { t1_ns, .. } => t1_ns.is_finite(),
            ChannelNumbers::Depolarizing { p, .. } => p > 0.0,
        }
    }

    /// The channel as a Kraus list, for [`schedule`].
    fn kraus(self) -> KrausChannel {
        match self {
            ChannelNumbers::Relaxation {
                t1_ns,
                t2_ns,
                duration_ns,
            } => KrausChannel::thermal_relaxation(t1_ns, t2_ns, duration_ns),
            ChannelNumbers::Depolarizing { qubits: 1, p } => KrausChannel::depolarizing_1q(p),
            ChannelNumbers::Depolarizing { p, .. } => KrausChannel::depolarizing_2q(p),
        }
    }
}

/// One event of the structural walk, delivered in execution order.
pub(crate) enum SiteOp<'a> {
    /// A gate unitary: index into the circuit's gate list, the gate,
    /// its compact operands.
    Unitary(usize, &'a Gate, &'a [usize]),
    /// A place where `noise` *may* put a channel (see
    /// [`ChannelKey::verdict`]): the key's index among the walk's
    /// distinct keys in first-visit order, the key, its operands. A
    /// circuit visits a handful of distinct keys over hundreds of gates,
    /// so consumers build, judge or lower each once, by index.
    Channel(usize, ChannelKey, &'a [usize]),
}

/// The distinct channel keys one [`walk`] has visited so far.
#[derive(Default)]
struct Sites(Vec<ChannelKey>);

impl Sites {
    fn visit(&mut self, key: ChannelKey, qs: &[usize], apply: &mut impl FnMut(SiteOp<'_>)) {
        let idx = self.0.iter().position(|k| *k == key).unwrap_or_else(|| {
            self.0.push(key);
            self.0.len() - 1
        });
        apply(SiteOp::Channel(idx, key, qs));
    }

    /// Thermal relaxation of `q` over `duration_ns`, when time passes.
    fn relax(&mut self, q: usize, duration_ns: f64, apply: &mut impl FnMut(SiteOp<'_>)) {
        if duration_ns > 0.0 {
            let q = compact(q);
            self.visit(
                ChannelKey::Relaxation { q, duration_ns },
                &[q as usize],
                apply,
            );
        }
    }
}

/// A compact qubit index as a [`ChannelKey`] stores it.
fn compact(q: usize) -> u8 {
    u8::try_from(q).expect("compact registers hold at most 256 qubits")
}

/// Walks the circuit with per-qubit timelines — the one schedule walk —
/// invoking the callback for every gate unitary and every *site* of a
/// noise channel in execution order: idle catch-up and gate-concurrent
/// relaxation per operand, the gate's depolarizing error, relaxation up
/// to the end of readout. It reads only the three gate times of `noise`;
/// whether a site carries a channel is the consumer's question to the
/// key. Returns the scheduled duration (ns), readout included.
pub(crate) fn walk<F>(circuit: &Circuit, noise: &NoiseModel, mut apply: F) -> f64
where
    F: FnMut(SiteOp<'_>),
{
    let n = circuit.num_qubits();
    let mut qubit_time = vec![0.0f64; n];
    let mut sites = Sites::default();
    for (gate_idx, g) in circuit.gates().iter().enumerate() {
        let qs = g.qubits();
        if g.is_virtual() {
            // Virtual RZ: perfect, instantaneous frame change.
            apply(SiteOp::Unitary(gate_idx, g, &qs));
            continue;
        }
        let start = qs.iter().map(|&q| qubit_time[q]).fold(0.0, f64::max);
        // Idle decay catch-up for operands that were waiting.
        for &q in &qs {
            sites.relax(q, start - qubit_time[q], &mut apply);
        }
        apply(SiteOp::Unitary(gate_idx, g, &qs));
        let dur = if g.is_two_qubit() {
            noise.gate_time_2q_ns
        } else {
            noise.gate_time_1q_ns
        };
        // Gate-concurrent relaxation and depolarizing error.
        for &q in &qs {
            sites.relax(q, dur, &mut apply);
            qubit_time[q] = start + dur;
        }
        let key = match qs[..] {
            [q] => ChannelKey::Depolarizing1q { q: compact(q) },
            [a, b] => ChannelKey::Depolarizing2q {
                lo: compact(a.min(b)),
                hi: compact(a.max(b)),
            },
            _ => unreachable!(),
        };
        sites.visit(key, &qs, &mut apply);
    }
    // Measurement: align all qubits to the end, decay over the alignment
    // gap plus the readout window.
    let end = qubit_time.iter().copied().fold(0.0, f64::max);
    for (q, &t) in qubit_time.iter().enumerate().take(n) {
        sites.relax(q, end - t + noise.readout_time_ns, &mut apply);
    }
    end + noise.readout_time_ns
}

/// One event of the noisy schedule, delivered in execution order.
#[derive(Clone, Debug)]
pub enum ScheduledOp<'a> {
    /// Apply a gate unitary to the listed compact qubits (operand
    /// order).
    Unitary(&'a Gate, &'a [usize]),
    /// Apply a noise channel to the listed compact qubits.
    Channel(&'a KrausChannel, &'a [usize]),
}

/// The noisy schedule of a bound, compacted circuit under `noise`, in
/// execution order: every gate unitary and every channel the model
/// emits, materialized as a Kraus list built once per distinct site
/// (idle catch-up and gate-concurrent relaxation per operand, each
/// gate's depolarizing error, relaxation up to the end of readout).
/// This is the noise model in Kraus form, for reference executors that
/// apply it operator by operator; compiled programs never come through
/// here — they lower each channel Kraus-free from the same walk.
/// Returns the scheduled duration (ns), readout included.
pub fn schedule<F>(circuit: &Circuit, noise: &NoiseModel, mut apply: F) -> f64
where
    F: FnMut(ScheduledOp<'_>),
{
    let mut built: Vec<Option<KrausChannel>> = Vec::new();
    walk(circuit, noise, |op| match op {
        SiteOp::Unitary(_, g, qs) => apply(ScheduledOp::Unitary(g, qs)),
        SiteOp::Channel(idx, key, qs) => {
            let numbers = key.numbers(noise);
            if numbers.occur() {
                if built.len() <= idx {
                    built.resize(idx + 1, None);
                }
                let ch = built[idx].get_or_insert_with(|| numbers.kraus());
                apply(ScheduledOp::Channel(ch, qs));
            }
        }
    })
}

/// Executes a bound, compacted physical circuit on the exact
/// density-matrix simulator under `noise`, sampling `shots` measurements
/// through the readout confusion model.
///
/// Compatibility wrapper: compiles the circuit into a
/// [`qsim::CompiledProgram`] and runs a fresh [`DensityEngine`].
/// Repeated executions of the same structure should compile once and
/// hold a long-lived engine instead (see [`crate::compile`] and
/// [`crate::QpuBackend`]). Equal to the pre-engine executor (the
/// `eqc-oracle` crate's `reference::execute_density`, a walk of
/// [`schedule`]) up to rounding in the distribution (~1e-15: fused sweeps and the
/// compiler's RZ frame re-associate the arithmetic), with equal counts
/// on every pinned fixture.
///
/// Returns the counts histogram and the scheduled circuit duration in
/// nanoseconds.
///
/// # Panics
///
/// Panics if the circuit still has unbound parameters, or exceeds
/// [`DensityMatrix::MAX_QUBITS`].
pub fn execute_density<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: usize,
    rng: &mut R,
) -> (Counts, f64) {
    assert!(
        circuit.num_qubits() <= DensityMatrix::MAX_QUBITS,
        "{} qubits exceed the density engine cap",
        circuit.num_qubits()
    );
    let program = crate::compile::compile_bound(circuit, noise);
    let counts = DensityEngine::new().run_program(&program, shots, rng);
    (counts, program.duration_ns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::CircuitBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ghz(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new(n);
        b.h(0);
        for q in 0..n - 1 {
            b.cx(q, q + 1);
        }
        b.build()
    }

    fn noisy_model(n: usize) -> NoiseModel {
        let cal = Calibration::uniform(n, 80.0, 60.0, 0.002, 0.02, 0.03);
        let active: Vec<usize> = (0..n).collect();
        NoiseModel::from_calibration(&cal, &active)
    }

    #[test]
    fn ideal_model_reproduces_statevector() {
        let c = ghz(3);
        let mut rng = StdRng::seed_from_u64(1);
        let (counts, duration) = execute_density(&c, &NoiseModel::ideal(3), 20_000, &mut rng);
        let p0 = counts.probability(0);
        let p7 = counts.probability(0b111);
        assert!((p0 - 0.5).abs() < 0.02);
        assert!((p7 - 0.5).abs() < 0.02);
        assert_eq!(counts.total(), 20_000);
        assert!(duration > 0.0);
    }

    #[test]
    fn noise_leaks_into_forbidden_states() {
        let c = ghz(3);
        let mut rng = StdRng::seed_from_u64(2);
        let (counts, _) = execute_density(&c, &noisy_model(3), 50_000, &mut rng);
        let bad = counts.fraction_where(|b| b != 0 && b != 0b111);
        assert!(bad > 0.02, "expected visible GHZ error, got {bad}");
        assert!(bad < 0.5, "noise unreasonably high: {bad}");
    }

    #[test]
    fn worse_calibration_worse_fidelity() {
        let c = ghz(4);
        let mk = |cx: f64| {
            let cal = Calibration::uniform(4, 80.0, 60.0, 0.001, cx, 0.02);
            NoiseModel::from_calibration(&cal, &[0, 1, 2, 3])
        };
        let mut rng = StdRng::seed_from_u64(3);
        let (good, _) = execute_density(&c, &mk(0.005), 40_000, &mut rng);
        let (bad, _) = execute_density(&c, &mk(0.05), 40_000, &mut rng);
        let err = |c: &Counts| c.fraction_where(|b| b != 0 && b != 0b1111);
        // Roughly 3 extra CX errors of 4.5% each separate the two models;
        // the readout/decoherence floor is shared.
        assert!(
            err(&bad) > err(&good) + 0.05,
            "{} vs {}",
            err(&bad),
            err(&good)
        );
    }

    #[test]
    fn duration_accounts_for_depth_and_readout() {
        let c = ghz(3); // depth: H + 2 CX sequential on the chain
        let noise = NoiseModel::ideal(3);
        let mut rng = StdRng::seed_from_u64(5);
        let (_, dur) = execute_density(&c, &noise, 1, &mut rng);
        let expected = noise.gate_time_1q_ns + 2.0 * noise.gate_time_2q_ns + noise.readout_time_ns;
        assert!(
            (dur - expected).abs() < 1e-9,
            "duration {dur} vs {expected}"
        );
    }

    #[test]
    fn readout_error_alone_flips_bits() {
        let mut b = CircuitBuilder::new(2);
        b.x(0);
        let c = b.build();
        let cal = Calibration::uniform(2, 1e6, 1e6, 0.0, 0.0, 0.1);
        let noise = NoiseModel::from_calibration(&cal, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(6);
        let (counts, _) = execute_density(&c, &noise, 50_000, &mut rng);
        // P(correct |01>) = 0.9 * 0.9.
        assert!((counts.probability(0b01) - 0.81).abs() < 0.01);
    }

    #[test]
    fn from_calibration_projects_active_qubits() {
        let mut cal = Calibration::uniform(5, 100.0, 80.0, 0.001, 0.01, 0.02);
        cal.qubit_mut(3).t1_us = 40.0;
        cal.set_cx_error(1, 3, 0.09);
        let noise = NoiseModel::from_calibration(&cal, &[1, 3]);
        assert_eq!(noise.num_qubits(), 2);
        assert!((noise.qubit(1).t1_ns - 40_000.0).abs() < 1e-9);
        assert!((noise.cx_error(0, 1) - 0.09).abs() < 1e-12);
    }

    #[test]
    fn cx_errors_index_the_upper_triangle() {
        let mut cal = Calibration::uniform(6, 100.0, 80.0, 0.001, 0.01, 0.02);
        for a in 0..6 {
            for b in a + 1..6 {
                cal.set_cx_error(a, b, 0.001 * (10 * a + b) as f64);
            }
        }
        let active = [4, 0, 5, 2];
        let noise = NoiseModel::from_calibration(&cal, &active);
        for (i, &pi) in active.iter().enumerate() {
            for (j, &pj) in active.iter().enumerate() {
                let expected = if i == j { 0.0 } else { cal.cx_error(pi, pj) };
                assert_eq!(
                    noise.cx_error(i, j).to_bits(),
                    expected.to_bits(),
                    "({i}, {j})"
                );
            }
            assert_eq!(noise.cx_error(i, active.len()), 0.0, "out of range");
        }
        assert_eq!(NoiseModel::ideal(3).cx_error(0, 2), 0.0);
    }

    #[test]
    fn every_key_of_a_walk_lowers_to_its_kraus_list() {
        // Belem-like figures, one qubit that never decays and one gate
        // that never errs: the walk visits their sites all the same.
        let mut cal = Calibration::uniform(3, 80.0, 60.0, 0.002, 0.02, 0.03);
        cal.qubit_mut(2).t1_us = f64::INFINITY;
        cal.qubit_mut(0).gate_error_1q = 0.0;
        let noise = NoiseModel::from_calibration(&cal, &[0, 1, 2]);
        let (mut visited, mut absent) = (0, 0);
        walk(&ghz(3), &noise, |op| {
            let SiteOp::Channel(_, key, qs) = op else {
                return;
            };
            visited += 1;
            let (numbers, evaluated) = (key.numbers(&noise), key.evaluate(&noise));
            if !numbers.occur() {
                absent += 1;
                assert_eq!(evaluated.verdict(1e-12), Verdict::Absent);
                return;
            }
            let kraus = numbers.kraus();
            assert_eq!(kraus.num_qubits(), qs.len());
            let (mut closed, mut lowered) = (SuperopTable::default(), SuperopTable::default());
            evaluated.lower(&mut closed);
            lowered.push(&kraus);
            assert_eq!(closed, lowered, "{key:?}");
            for eps in [0.0, 1e-12, 1e-3, 0.3] {
                let elided = eps > 0.0 && kraus.is_near_identity(eps);
                let expected = if elided {
                    Verdict::Elided
                } else {
                    Verdict::Kept
                };
                assert_eq!(evaluated.verdict(eps), expected, "{key:?} at {eps}");
            }
        });
        assert!(
            visited > absent && absent >= 2,
            "{visited} sites, {absent} absent"
        );
    }

    #[test]
    fn unbound_circuit_rejected() {
        let mut b = CircuitBuilder::new(1);
        b.ry_sym(0, 0);
        let c = b.build();
        let result = std::panic::catch_unwind(move || {
            let mut rng = StdRng::seed_from_u64(0);
            execute_density(&c, &NoiseModel::ideal(1), 10, &mut rng)
        });
        assert!(result.is_err());
    }
}
