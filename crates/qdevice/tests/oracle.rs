//! The device layer held to the pre-engine executors of `eqc-oracle`:
//! a compiled template against the Kraus walk of the bound circuit, and
//! the exact density engine against Monte-Carlo trajectories.

use eqc_oracle::reference;
use qcircuit::{Circuit, CircuitBuilder};
use qdevice::{compile_bound, Calibration, CompiledTemplate, NoiseModel, NoiseToken};
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

fn ghz(n: usize) -> Circuit {
    let mut b = CircuitBuilder::new(n);
    b.h(0);
    for q in 0..n - 1 {
        b.cx(q, q + 1);
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
fn trajectories_agree_with_density() {
    let c = ghz(3);
    let noise = noisy_model(3);
    let mut rng = StdRng::seed_from_u64(4);
    let program = compile_bound(&c, &noise);
    let dens = qsim::DensityEngine::new().run_program(&program, 40_000, &mut rng);
    let d_dur = program.duration_ns();
    let (traj, t_dur) = reference::execute_trajectories(&c, &noise, 40_000, 400, &mut rng);
    assert_eq!(d_dur, t_dur, "schedules must agree");
    // Compare the GHZ success probabilities within sampling noise.
    let ds = dens.probability(0) + dens.probability(0b111);
    let ts = traj.probability(0) + traj.probability(0b111);
    assert!((ds - ts).abs() < 0.03, "density {ds} vs trajectories {ts}");
}
