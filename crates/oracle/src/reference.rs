//! The pre-engine executors, preserved verbatim.
//!
//! These walk the schedule gate by gate ([`qdevice::noise_model::schedule`],
//! every channel as its Kraus list), re-materialize every matrix, clone
//! the state per Kraus operator and insert shots one by one — exactly
//! the code the engine layer replaced. [`execute_density`] is the
//! bit-equivalence oracle the equivalence suites and the `engine`
//! criterion bench run against the compiled path, demanding identical
//! counts; [`density_distribution`] is its exact distribution, for
//! tolerance checks; and [`execute_trajectories`] unravels the same
//! schedule by Monte-Carlo quantum trajectories, an independent
//! statistical cross-check of the density engine.

use crate::baseline;
use qcircuit::Circuit;
use qdevice::noise_model::{schedule, NoiseModel, ScheduledOp};
use qsim::sampler::sample_indices;
use qsim::{Counts, DensityMatrix, KrausChannel, StateVector};
use rand::Rng;

/// Pre-engine shot aggregation: one histogram insert per shot.
fn sample_counts_legacy<R: Rng + ?Sized>(
    probs: &[f64],
    n_qubits: usize,
    shots: usize,
    rng: &mut R,
) -> Counts {
    assert_eq!(
        probs.len(),
        1usize << n_qubits,
        "distribution size mismatch"
    );
    let mut counts = Counts::new(n_qubits);
    for idx in sample_indices(probs, shots, rng) {
        counts.record(idx as u64, 1);
    }
    counts
}

/// The pre-engine density executor of a bound circuit — what
/// [`qdevice::compile_bound`] plus a [`qsim::DensityEngine`] replaced:
/// direct schedule walk with the preserved pre-optimization kernels and
/// per-operator clones. Returns the counts and the scheduled duration
/// (ns).
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
    let (probs, duration) = evolve_density(circuit, noise);
    let counts = sample_counts_legacy(&probs, circuit.num_qubits(), shots, rng);
    (counts, duration)
}

/// The post-readout measurement distribution [`execute_density`]
/// samples from: the literal Kraus sum of the schedule (true gate
/// matrices, no frame, no fusion) on a density matrix with the
/// preserved pre-engine kernels.
///
/// # Panics
///
/// Same conditions as [`execute_density`].
pub fn density_distribution(circuit: &Circuit, noise: &NoiseModel) -> Vec<f64> {
    evolve_density(circuit, noise).0
}

/// The evolution half of [`execute_density`]: the distribution and the
/// scheduled duration.
fn evolve_density(circuit: &Circuit, noise: &NoiseModel) -> (Vec<f64>, f64) {
    assert_eq!(
        circuit.num_params(),
        0,
        "execute_density requires a fully bound circuit"
    );
    let mut rho = DensityMatrix::new(circuit.num_qubits());
    let duration = schedule(circuit, noise, |op| match op {
        ScheduledOp::Unitary(g, qs) => {
            let m = g.matrix(&[]);
            match *qs {
                [q] => baseline::apply_unitary_1q(&mut rho, &m, q),
                [a, b] => baseline::apply_unitary_2q(&mut rho, &m, a, b),
                _ => unreachable!(),
            }
        }
        ScheduledOp::Channel(ch, qs) => baseline::apply_channel(&mut rho, ch, qs),
    });
    rho.normalize();
    let probs = noise.readout().apply_to_distribution(&rho.probabilities());
    (probs, duration)
}

/// Monte-Carlo quantum trajectories: each trajectory re-walks the
/// schedule on a pure state, unravelling every channel by
/// Born-probability selection of one Kraus operator (a state clone per
/// candidate), then contributes `shots / trajectories` measurement
/// samples (the remainder spread over the first trajectories). Exact in
/// expectation; variance shrinks with more trajectories.
///
/// # Panics
///
/// Panics if the circuit has unbound parameters or `trajectories == 0`.
pub fn execute_trajectories<R: Rng + ?Sized>(
    circuit: &Circuit,
    noise: &NoiseModel,
    shots: usize,
    trajectories: usize,
    rng: &mut R,
) -> (Counts, f64) {
    assert!(trajectories > 0, "need at least one trajectory");
    assert_eq!(
        circuit.num_params(),
        0,
        "execute_trajectories requires a fully bound circuit"
    );
    let n = circuit.num_qubits();
    let readout = noise.readout();
    let mut counts = Counts::new(n);
    let base = shots / trajectories;
    let extra = shots % trajectories;
    let mut duration = 0.0;
    for t in 0..trajectories {
        let mut sv = StateVector::new(n);
        duration = schedule(circuit, noise, |op| match op {
            ScheduledOp::Unitary(g, qs) => {
                let m = g.matrix(&[]);
                match *qs {
                    [q] => sv.apply_1q(&m, q),
                    [a, b] => sv.apply_2q(&m, a, b),
                    _ => unreachable!(),
                }
            }
            ScheduledOp::Channel(ch, qs) => apply_channel_trajectory(&mut sv, ch, qs, rng),
        });
        let traj_shots = base + usize::from(t < extra);
        if traj_shots == 0 {
            continue;
        }
        for idx in sv.sample(traj_shots, rng) {
            let corrupted = readout.corrupt(idx as u64, rng);
            counts.record(corrupted, 1);
        }
    }
    (counts, duration)
}

/// Stochastically applies one Kraus operator of `ch`, selected with its
/// Born probability, renormalizing the state (standard
/// quantum-trajectory unraveling).
fn apply_channel_trajectory<R: Rng + ?Sized>(
    sv: &mut StateVector,
    ch: &KrausChannel,
    qs: &[usize],
    rng: &mut R,
) {
    let r: f64 = rng.gen();
    let mut acc = 0.0;
    let ops = ch.operators();
    for (i, k) in ops.iter().enumerate() {
        let mut cand = sv.clone();
        match qs[..] {
            [q] => cand.apply_1q(k, q),
            [a, b] => cand.apply_2q(k, a, b),
            _ => unreachable!(),
        }
        let p = cand.norm_sqr();
        acc += p;
        if r < acc || i == ops.len() - 1 {
            cand.normalize();
            *sv = cand;
            return;
        }
    }
}
