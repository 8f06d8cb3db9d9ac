//! Fleet-scale executor benchmarks: how each substrate's wall-clock
//! scales with ensemble width on [`qdevice::catalog::fleet`]-synthesized
//! device sets.
//!
//! The discrete-event executor is the single-threaded baseline; the
//! pooled executor trains the same fleet with a bounded worker pool and
//! produces the exact DES report, so the bench compares pure substrate
//! overhead, not different training runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use eqc_bench::fleet_ensemble;
use eqc_core::{EqcConfig, PooledExecutor};
use vqa::QaoaProblem;

fn bench_fleet_scaling(c: &mut Criterion) {
    let problem = QaoaProblem::maxcut_ring4();
    let mut group = c.benchmark_group("fleet");
    group.sample_size(5);
    for clients in [8usize, 64, 256] {
        let ensemble = fleet_ensemble(
            clients,
            EqcConfig::paper_qaoa().with_epochs(2).with_shots(128),
        );
        group.bench_with_input(
            BenchmarkId::new("des", clients),
            &ensemble,
            |b, ensemble| b.iter(|| ensemble.train(&problem).expect("trains")),
        );
        group.bench_with_input(
            BenchmarkId::new("pooled", clients),
            &ensemble,
            |b, ensemble| {
                b.iter(|| {
                    ensemble
                        .train_with(&PooledExecutor::new(), &problem)
                        .expect("trains")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(fleet, bench_fleet_scaling);
criterion_main!(fleet);
