//! End-to-end executor benchmarks: discrete-event vs sequential
//! substrates on one `Ensemble` (DESIGN.md ablation #1) and
//! weighted vs unweighted training (ablation #2), measured in wall-clock
//! per training run.

use criterion::{criterion_group, criterion_main, Criterion};
use eqc_bench::{band, ensemble_for};
use eqc_core::{EqcConfig, SequentialExecutor};
use vqa::QaoaProblem;

const DEVICES: [&str; 4] = ["belem", "manila", "bogota", "quito"];

fn small_config() -> EqcConfig {
    EqcConfig::paper_qaoa().with_epochs(5).with_shots(512)
}

fn bench_executors(c: &mut Criterion) {
    let problem = QaoaProblem::maxcut_ring4();
    let mut group = c.benchmark_group("executor_ablation");
    group.sample_size(10);
    group.bench_function("des_unweighted", |b| {
        b.iter(|| {
            ensemble_for(&DEVICES, 1, small_config())
                .train(&problem)
                .expect("trains")
        })
    });
    group.bench_function("des_weighted", |b| {
        b.iter(|| {
            ensemble_for(&DEVICES, 1, small_config().with_weights(band(0.5, 1.5)))
                .train(&problem)
                .expect("trains")
        })
    });
    group.bench_function("sequential_sync", |b| {
        b.iter(|| {
            ensemble_for(&DEVICES, 1, small_config())
                .train_with(&SequentialExecutor::new(), &problem)
                .expect("trains")
        })
    });
    group.finish();
}

fn bench_client_task(c: &mut Criterion) {
    // One gradient task end-to-end on one device (transpile excluded).
    let problem = QaoaProblem::maxcut_ring4();
    let params = vqa::VqaProblem::initial_point(&problem, 1);
    let task = vqa::VqaProblem::tasks(&problem)[0];
    let mut group = c.benchmark_group("client_task");
    group.sample_size(20);
    for shots in [1024usize, 8192] {
        group.bench_with_input(
            criterion::BenchmarkId::new("qaoa_full_gradient", shots),
            &shots,
            |b, &s| {
                let backend = qdevice::catalog::by_name("bogota")
                    .expect("catalog device")
                    .backend(3);
                let mut client = eqc_core::ClientNode::new(0, backend, &problem).expect("fits");
                let mut t = qdevice::SimTime::ZERO;
                b.iter(|| {
                    let r = client.run_task(&problem, task, &params, s, t);
                    t = r.completed;
                    r
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_executors, bench_client_task);
criterion_main!(benches);
