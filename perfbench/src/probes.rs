//! Replay probes: each lower layer's public entry point timed in
//! isolation on the workload's own circuits, devices and shot count.
//! A probe reports the median microseconds per call; the caller
//! multiplies by the call counts the run's own counters report.

use crate::stats::median;
use crate::workloads::{Shape, Workload, TENANT_SEED};
use eqc_core::policy::arbiter::{ArbiterContext, TenantArbiter, TenantLoad};
use eqc_core::policy::scheduler::{FleetOccupancy, ScheduleContext, Scheduler};
use eqc_core::{ContentionAware, EarliestDeadlineFirst, FairShare, Unshared};
use qcircuit::ParamId;
use qdevice::{
    CompiledTemplate, DeviceQueue, LoadModel, NoiseModel, NoiseToken, QpuBackend, SimTime,
    TemplateRun,
};
use qsim::{Counts, DensityEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use transpile::{transpile, TranspileOptions, Transpiled};
use vqa::{GradientTask, VqaProblem};

/// Devices sampled per workload: enough to average over the fleet's
/// topologies without transpiling hundreds of clients again.
const PROBE_DEVICES: usize = 10;

/// Median microseconds per call of `f` over `samples` timed batches of
/// `batch` calls each (`batch > 1` for sub-microsecond operations, so
/// the clock read does not dominate). `f` receives the call index.
fn median_us(samples: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut us = Vec::with_capacity(samples);
    for s in 0..samples {
        let start = Instant::now();
        for b in 0..batch {
            f(s * batch + b);
        }
        us.push(start.elapsed().as_secs_f64() * 1e6 / batch as f64);
    }
    median(&us)
}

/// One problem template prepared for one device, as `ClientNode` does.
struct ProbeTemplate {
    transpiled: Transpiled,
    compiled: CompiledTemplate,
    logical_bits: Vec<usize>,
}

struct ProbeDevice {
    backend: QpuBackend,
    templates: Vec<ProbeTemplate>,
}

fn prepare(w: &Workload) -> Vec<ProbeDevice> {
    let options = TranspileOptions::default();
    w.specs
        .iter()
        .take(PROBE_DEVICES)
        .enumerate()
        .map(|(i, spec)| {
            let backend = spec.backend(w.device_seed + i as u64);
            let templates = w
                .problem
                .templates()
                .iter()
                .map(|t| {
                    let transpiled =
                        transpile(t, backend.topology(), &options).expect("template fits device");
                    let (compact, logical_bits) =
                        transpiled.compact_for_simulation().expect("compacts");
                    let compiled = CompiledTemplate::new(compact, transpiled.active_qubits());
                    ProbeTemplate {
                        transpiled,
                        compiled,
                        logical_bits,
                    }
                })
                .collect();
            ProbeDevice { backend, templates }
        })
        .collect()
}

/// The batch `ClientNode::run_task` submits for `task`: per occurrence
/// of the parameter, the forward then the backward shift of every
/// template in the slice. Returns the slice's template indices
/// (ascending, deduplicated) and the runs over their local positions.
fn task_batch(
    problem: &dyn VqaProblem,
    device: &ProbeDevice,
    task: GradientTask,
) -> (Vec<usize>, Vec<TemplateRun>) {
    let slice = problem.slice_templates(task.slice);
    let mut unique = slice.clone();
    unique.sort_unstable();
    unique.dedup();
    let local = |ti: usize| unique.binary_search(&ti).expect("slice template");
    let occurrences = |ti: usize| {
        device.templates[ti]
            .compiled
            .circuit()
            .occurrences_of(task.param)
    };
    let mut runs = Vec::new();
    for k in 0..occurrences(slice[0]).len() {
        for delta in [vqa::gradient::SHIFT, -vqa::gradient::SHIFT] {
            for &ti in &slice {
                runs.push(TemplateRun {
                    template: local(ti),
                    shift: Some((occurrences(ti)[k], delta)),
                });
            }
        }
    }
    (unique, runs)
}

/// Runs every probe for `w`; keys are per-layer metric names.
pub fn run(w: &Workload) -> BTreeMap<&'static str, f64> {
    let problem = w.problem.as_ref();
    let shots = w.cfg.shots;
    let params = problem.initial_point(TENANT_SEED);
    // >= 200 calls per probe, >= 20 where one call is a 7-qubit
    // evolution (tens of milliseconds).
    let heavy = problem.num_qubits() >= 7;
    let calls = if heavy { 20 } else { 200 };
    let mut devices = prepare(w);
    let n_dev = devices.len();
    let n_tpl = problem.templates().len();
    // Call `i` of a probe works on (device, template) pair `i`, cycling
    // through every pair.
    let pair = |i: usize| ((i / n_tpl) % n_dev, i % n_tpl);
    let mut out = BTreeMap::new();

    // transpile
    let options = TranspileOptions::default();
    out.insert(
        "transpile.transpile_us",
        median_us(calls, 1, |i| {
            let (d, t) = pair(i);
            black_box(
                transpile(
                    &problem.templates()[t],
                    devices[d].backend.topology(),
                    &options,
                )
                .expect("template fits device"),
            );
        }),
    );

    // qdevice: calibration, noise build, cold compile, bind
    let at = |i: usize| SimTime::from_secs(60.0 * i as f64);
    out.insert(
        "qdevice.calibration_us",
        median_us(calls, 1, |i| {
            black_box(devices[i % n_dev].backend.actual_calibration(at(i)));
        }),
    );
    let cals: Vec<_> = devices
        .iter()
        .map(|d| d.backend.actual_calibration(SimTime::ZERO))
        .collect();
    out.insert(
        "qdevice.noise_build_us",
        median_us(calls, 1, |i| {
            let (d, t) = pair(i);
            let active = devices[d].templates[t].compiled.active_physical();
            black_box(NoiseModel::from_calibration(&cals[d], active));
        }),
    );
    let noises: Vec<Vec<NoiseModel>> = devices
        .iter()
        .zip(&cals)
        .map(|(d, cal)| {
            d.templates
                .iter()
                .map(|t| NoiseModel::from_calibration(cal, t.compiled.active_physical()))
                .collect()
        })
        .collect();
    out.insert(
        "qdevice.compile_us",
        median_us(calls.max(n_dev * n_tpl), 1, |i| {
            let (d, t) = pair(i);
            // A fresh token per call: every compile is cold.
            let token = NoiseToken::new(u64::MAX, i as u64 + 1, 1.0, 1.0);
            devices[d].templates[t]
                .compiled
                .ensure_compiled(&noises[d][t], token);
        }),
    );
    let shifts: Vec<Vec<Option<(usize, f64)>>> = devices
        .iter()
        .map(|d| {
            d.templates
                .iter()
                .map(|t| {
                    (0..problem.num_params())
                        .find_map(|p| {
                            t.compiled
                                .circuit()
                                .occurrences_of(ParamId(p))
                                .first()
                                .copied()
                        })
                        .map(|gate| (gate, vqa::gradient::SHIFT))
                })
                .collect()
        })
        .collect();
    out.insert(
        "qdevice.bind_us",
        median_us(calls.max(n_dev * n_tpl), 16, |i| {
            let (d, t) = pair(i);
            devices[d].templates[t].compiled.bind(&params, shifts[d][t]);
        }),
    );

    // qsim: evolve and sample on the bound programs
    let mut engine = DensityEngine::new();
    let mut probs = Vec::new();
    let evolve_us = median_us(calls, 1, |i| {
        let (d, t) = pair(i);
        engine.evolve_probs(devices[d].templates[t].compiled.program(), &mut probs);
    });
    out.insert("qsim.evolve_us", evolve_us);
    let (ops, qubits): (Vec<f64>, Vec<f64>) = devices
        .iter()
        .flat_map(|d| d.templates.iter())
        .map(|t| {
            let p = t.compiled.program();
            (p.ops().len() as f64, p.num_qubits() as f64)
        })
        .unzip();
    let tape_ops = ops.iter().sum::<f64>() / ops.len() as f64;
    out.insert("qsim.tape_ops", tape_ops);
    out.insert("qsim.evolve_ns_per_op", evolve_us * 1e3 / tape_ops);
    // Computed, not measured: a density matrix is 4^n complex doubles.
    let widest = qubits.iter().copied().fold(0.0, f64::max);
    out.insert("qsim.state_bytes", 16.0 * 4f64.powf(widest));
    let mut rng = StdRng::seed_from_u64(w.device_seed);
    let n_qubits = devices[0].templates[0].compiled.program().num_qubits();
    engine.evolve_probs(devices[0].templates[0].compiled.program(), &mut probs);
    let sample_us = median_us(calls.max(200), 1, |_| {
        black_box(engine.sample_probs(&probs, n_qubits, shots, &mut rng));
    });
    out.insert("qsim.sample_us", sample_us);
    out.insert("qsim.sample_ns_per_shot", sample_us * 1e3 / shots as f64);

    // qdevice: one task-shaped batch through the backend, the device
    // timeline advancing as in a run (so drift recompiles as it does
    // there), against the sum of its parts.
    let tasks = problem.tasks();
    let mut submit = vec![SimTime::ZERO; n_dev];
    let mut batch_runs = Vec::new();
    let mut batch_templates = Vec::new();
    let mut last_counts: Vec<Counts> = Vec::new();
    let mut last = (0usize, tasks[0]);
    let execute_us = median_us(calls, 1, |i| {
        let (d, task) = (i % n_dev, tasks[i % tasks.len()]);
        let (unique, runs) = task_batch(problem, &devices[d], task);
        let ProbeDevice { backend, templates } = &mut devices[d];
        let mut refs: Vec<&mut CompiledTemplate> = templates
            .iter_mut()
            .enumerate()
            .filter(|(ti, _)| unique.contains(ti))
            .map(|(_, t)| &mut t.compiled)
            .collect();
        let (counts, timing) =
            backend.execute_templates(&mut refs, &runs, &params, shots, submit[d]);
        submit[d] = timing.completed;
        batch_runs.push(runs.len() as f64);
        batch_templates.push(unique.len() as f64);
        last_counts = counts;
        last = (d, task);
    });
    out.insert("qdevice.execute_us", execute_us);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let parts = mean(&batch_templates)
        * (out["qdevice.noise_build_us"] + out["qdevice.compile_us"])
        + mean(&batch_runs) * (out["qdevice.bind_us"] + evolve_us + sample_us);
    out.insert("qdevice.execute_overhead_share", 1.0 - parts / execute_us);

    // qdevice: ledger booking (write side) and snapshot read
    let load = match &w.shape {
        Shape::Tenants { load, .. } => *load,
        _ => LoadModel::None,
    };
    let mut ledger = DeviceQueue::new(w.specs[0].queue(), load).expect("valid queue model");
    out.insert(
        "qdevice.queue.book_us",
        median_us(200, 16, |i| {
            black_box(ledger.enqueue(SimTime::from_secs(30.0 * i as f64), 1.0));
        }),
    );
    let handle = ledger.read_handle();
    out.insert(
        "qdevice.queue.read_us",
        median_us(200, 64, |_| {
            black_box(handle.read());
        }),
    );

    // vqa: slice loss on the last batch's forward counts, ideal loss
    let (d, task) = last;
    let slice = problem.slice_templates(task.slice);
    let logical: Vec<Counts> = slice
        .iter()
        .zip(&last_counts)
        .map(|(&ti, c)| {
            let t = &devices[d].templates[ti];
            t.transpiled.remap_counts(c, &t.logical_bits)
        })
        .collect();
    out.insert(
        "vqa.slice_loss_us",
        median_us(200, 16, |_| {
            black_box(problem.slice_loss(task.slice, &logical));
        }),
    );
    out.insert(
        "vqa.ideal_loss_us",
        median_us(calls, 1, |_| {
            black_box(problem.ideal_loss(&params));
        }),
    );

    // policy: one scheduler pick over the whole fleet with an occupancy
    // snapshot, one arbiter allocation at the workload's tenant count
    let width = w.specs.len();
    let candidates: Vec<usize> = (0..width).collect();
    let waits: Vec<f64> = w
        .specs
        .iter()
        .map(|s| s.queue().wait_s(SimTime::ZERO))
        .collect();
    let mut occupancy = FleetOccupancy::with_devices(width);
    for d in 0..width {
        occupancy.booked_until_s[d] = 7.0 * (d % 13) as f64;
        occupancy.jobs_booked[d] = (d % 5) as u64;
    }
    let scheduler = ContentionAware::default();
    out.insert(
        "policy.scheduler.pick_us",
        median_us(200, 16, |_| {
            black_box(scheduler.pick(&ScheduleContext {
                candidates: &candidates,
                queue_wait_s: &waits,
                now_hours: 0.0,
                occupancy: Some(&occupancy),
            }));
        }),
    );
    let arbiter: &dyn TenantArbiter = match &w.shape {
        Shape::Single { .. } => &Unshared,
        Shape::Tenants { .. } => &FairShare,
        Shape::Service { .. } => &EarliestDeadlineFirst,
    };
    let loads: Vec<TenantLoad> = (0..w.tenants())
        .map(|t| TenantLoad {
            tenant: t,
            weight: 1.0,
            priority: 0,
            in_flight: t % 3,
            ready: 1 + t % 2,
            complete: false,
            remaining_epochs: 1 + t % 4,
            elapsed_h: 0.001 * t as f64,
            deadline_h: (t % 4 != 0).then_some(0.01 * (1 + t % 3) as f64),
        })
        .collect();
    out.insert(
        "policy.arbiter.allocate_us",
        median_us(200, 16, |i| {
            black_box(arbiter.allocate(&ArbiterContext {
                loads: &loads,
                total_slots: width,
                round: i as u64,
            }));
        }),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_us_counts_every_call() {
        let mut calls = 0;
        let us = median_us(5, 4, |i| {
            assert_eq!(i, calls);
            calls += 1;
        });
        assert_eq!(calls, 20);
        assert!(us.is_finite() && us >= 0.0);
    }

    #[test]
    fn task_batch_mirrors_the_client_shape() {
        let w = Workload::build("service_stream", 11, true, 2).expect("known workload");
        let devices = prepare(&w);
        let problem = w.problem.as_ref();
        let task = problem.tasks()[0];
        let (unique, runs) = task_batch(problem, &devices[0], task);
        let occurrences = devices[0].templates[unique[0]]
            .compiled
            .circuit()
            .occurrences_of(task.param)
            .len();
        assert!(occurrences >= 1);
        assert_eq!(
            runs.len(),
            2 * occurrences * problem.slice_templates(task.slice).len()
        );
        assert!(runs
            .iter()
            .all(|r| r.template < unique.len() && r.shift.is_some()));
    }
}
