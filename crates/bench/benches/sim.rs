//! Simulation-engine microbenchmarks: noiseless state-vector and noisy
//! density-matrix GHZ preparation across widths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qcircuit::CircuitBuilder;
use qdevice::noise_model::NoiseModel;
use qdevice::{compile_bound, Calibration};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ghz(n: usize) -> qcircuit::Circuit {
    let mut b = CircuitBuilder::new(n);
    b.h(0);
    for q in 0..n - 1 {
        b.cx(q, q + 1);
    }
    b.build()
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector_ghz");
    for n in [4usize, 8, 12, 16] {
        let circuit = ghz(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| circuit.run_statevector(&[]).unwrap())
        });
    }
    group.finish();
}

fn bench_density_noisy(c: &mut Criterion) {
    let mut group = c.benchmark_group("density_noisy_ghz");
    let mut rng = StdRng::seed_from_u64(1);
    for n in [3usize, 4, 5, 6] {
        let circuit = ghz(n);
        let cal = Calibration::uniform(n, 90.0, 70.0, 0.001, 0.01, 0.02);
        let active: Vec<usize> = (0..n).collect();
        let noise = NoiseModel::from_calibration(&cal, &active);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let program = compile_bound(&circuit, &noise);
                qsim::DensityEngine::new().run_program(&program, 1024, &mut rng)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_statevector, bench_density_noisy);
criterion_main!(benches);
