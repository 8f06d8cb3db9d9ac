//! # eqc-oracle — test ground truth for the EQC reproduction
//!
//! The production simulator (`qsim`'s compiled-program density engine,
//! driven by `qdevice`'s per-cycle noise cache and compiled templates)
//! claims the counts and timing of the straightforward pre-engine path.
//! That path lives here, outside every library crate, so release builds
//! and the benchmark compile none of it:
//!
//! * [`baseline`] — the full-matrix density kernels: two passes per
//!   unitary, a state clone per Kraus operator;
//! * [`mod@reference`] — the executors that walk
//!   [`qdevice::noise_model::schedule`] with those kernels (and a
//!   Monte-Carlo trajectory unravelling of the same schedule);
//! * [`execute`] and [`execute_templates`] — the pre-engine job runners:
//!   every job books through [`QpuBackend::execute_with`], so queueing,
//!   ledger and timing are the device's own, and each run binds a fresh
//!   circuit, rebuilds its [`NoiseModel`] from the device's *actual*
//!   calibration at the job's start and samples from the device's RNG.
//!
//! Only tests, the figure harnesses that report the legacy path and the
//! criterion benches depend on this crate; it is never published.
//!
//! ```
//! use qcircuit::CircuitBuilder;
//! use qdevice::{catalog, SimTime};
//!
//! let spec = catalog::by_name("belem").unwrap();
//! let (mut engine, mut oracle) = (spec.backend(7), spec.backend(7));
//! let mut b = CircuitBuilder::new(2);
//! b.h(0).cx(0, 1);
//! let circuit = b.build();
//! let fast = engine.execute(&circuit, &[0, 1], 1024, SimTime::ZERO);
//! let slow = eqc_oracle::execute(&mut oracle, &circuit, &[0, 1], 1024, SimTime::ZERO);
//! assert_eq!(fast.counts, slow.counts);
//! assert_eq!(fast.completed, slow.completed);
//! ```

#![warn(missing_docs)]

pub mod baseline;
pub mod reference;

use qcircuit::Circuit;
use qdevice::{CompiledTemplate, JobResult, NoiseModel, QpuBackend, SimTime, TemplateRun};
use qsim::Counts;

/// One bound circuit on the pre-engine path at `started`: the noise
/// model rebuilt from the actual calibration, the Kraus walk, sampling
/// from the device's RNG. Returns what [`QpuBackend::execute_with`]
/// books: counts, circuit duration, readout time.
fn run_bound(
    backend: &mut QpuBackend,
    circuit: &Circuit,
    active_physical: &[usize],
    shots: usize,
    started: SimTime,
) -> (Counts, f64, f64) {
    let cal = backend.actual_calibration(started);
    let noise = NoiseModel::from_calibration(&cal, active_physical);
    let (counts, duration) = reference::execute_density(circuit, &noise, shots, backend.shot_rng());
    (counts, duration, cal.readout_time_ns)
}

/// The pre-engine twin of [`QpuBackend::execute`]: one bound, compacted
/// circuit as one job.
///
/// # Panics
///
/// As [`QpuBackend::execute`].
pub fn execute(
    backend: &mut QpuBackend,
    circuit: &Circuit,
    active_physical: &[usize],
    shots: usize,
    submit: SimTime,
) -> JobResult {
    assert_eq!(
        circuit.num_qubits(),
        active_physical.len(),
        "compact circuit width must match active qubit list"
    );
    let (_, job) = backend.execute_with(shots, submit, |be, started| {
        vec![run_bound(be, circuit, active_physical, shots, started)]
    });
    job
}

/// The pre-engine twin of [`QpuBackend::execute_templates`]: the client
/// flow before compiled templates. Every run binds a fresh circuit from
/// its template (shifted when the run says so) and executes it on its
/// own, in run order, as one job. The templates are read, never
/// compiled.
///
/// # Panics
///
/// Panics on an empty run list, an out-of-range template index or a
/// parameter vector that does not cover a template.
pub fn execute_templates(
    backend: &mut QpuBackend,
    templates: &[&CompiledTemplate],
    runs: &[TemplateRun],
    params: &[f64],
    shots: usize,
    submit: SimTime,
) -> (Vec<Counts>, JobResult) {
    assert!(!runs.is_empty(), "batch must contain at least one run");
    backend.execute_with(shots, submit, |be, started| {
        runs.iter()
            .map(|run| {
                let template = templates[run.template];
                let bound = match run.shift {
                    Some((gate_idx, delta)) => {
                        template.circuit().bind_with_shift(params, gate_idx, delta)
                    }
                    None => template.circuit().bind(params),
                }
                .expect("parameter vector covers template");
                run_bound(be, &bound, template.active_physical(), shots, started)
            })
            .collect()
    })
}
