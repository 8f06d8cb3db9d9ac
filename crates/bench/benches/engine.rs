//! Compiled-engine microbenchmarks: gate kernels, channel application
//! (Kraus-sum oracle vs lowered superoperator sweep),
//! and end-to-end job throughput — old (pre-engine reference) path vs
//! the compiled-program engine.
//!
//! The headline number is `job_throughput/*`: one 4-qubit VQE job at
//! 8192 shots on a catalog backend, executed through
//! `eqc_oracle::execute` (per-job noise rebuild, per-operator clones,
//! per-shot map inserts) versus the engine path
//! (per-cycle noise cache, compiled tape, lowered channels), versus the
//! client-style template path (compile once, rebind per job). The
//! engine must clear >= 2x over legacy; the template path (a shift
//! pair walks its shared tape prefix once) adds more.
//! `compile/*` is what a drifting device pays per
//! job before it can bind — a fresh template (`first_*`: plan + fill)
//! against a long-lived one meeting a new noise token (`token_miss_*`:
//! a refresh of the plan) — on the four benchmark templates;
//! `evolve/*` is one evolution of each of the four, bound, with its
//! tape census (how many sweeps of which kind) printed beside it.
//! `job/warm_shift_pair_*` is one warm `ClientNode::run_task` (a shift
//! pair per slice template) on a drifting device for the first three,
//! with its heap allocations per task printed beside it.

use criterion::{criterion_group, criterion_main, Criterion};
use eqc_bench::{benchmark_templates, probe_params, tape_census, template_fixture};
use eqc_core::ClientNode;
use eqc_oracle::{baseline, reference};
use qcircuit::CircuitBuilder;
use qdevice::noise_model::NoiseModel;
use qdevice::{
    catalog, compile_bound, Calibration, CompiledTemplate, DriftModel, NoiseToken, QpuBackend,
    QueueModel, SimTime, TemplateRun,
};
use qsim::noise::Superop;
use qsim::program::{CompiledProgram, ProgramBuilder, TapeOp};
use qsim::sampler::{ReadoutError, ShotSampler};
use qsim::{gates, DensityEngine, DensityMatrix, KrausChannel, SuperopTable};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};

/// The 4-qubit hardware-efficient VQE ansatz shape (RY layer, CX chain,
/// RZ layer) the paper's Fig. 8 workload transpiles to.
fn vqe_circuit_bound(n: usize) -> qcircuit::Circuit {
    let mut b = CircuitBuilder::new(n);
    for q in 0..n {
        b.ry(q, 0.3 + 0.2 * q as f64);
    }
    for q in 0..n - 1 {
        b.cx(q, q + 1);
    }
    for q in 0..n {
        b.rz(q, 0.1 * q as f64 - 0.4);
    }
    b.build()
}

/// The same ansatz with symbolic parameters, for the template path.
fn vqe_circuit_symbolic(n: usize) -> qcircuit::Circuit {
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

fn bench_gate_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_kernel");
    let mut rho = DensityMatrix::new(5);
    rho.apply_unitary_1q(&gates::h(), 0);
    // A non-diagonal unitary sweeps as its lowering `U (x) conj(U)`, the
    // same half-state block sweep a channel takes; lowered once here, as
    // a compiled program lowers its fixed gates.
    let mut lowered = SuperopTable::default();
    let ry = lowered.push_unitary(&gates::ry(0.7));
    let cx = lowered.push_unitary(&gates::cx());
    group.bench_function("unitary_1q_5q", |b| {
        b.iter(|| rho.apply_superop(lowered.get(ry), &[2]))
    });
    group.bench_function("unitary_2q_5q", |b| {
        b.iter(|| rho.apply_superop(lowered.get(cx), &[1, 3]))
    });

    // The three sweeps a transpiled 7-qubit tape is made of: the
    // parameterized RZ, a fused one-qubit cluster (complex: sx +
    // relaxation + depolarizing; real: relaxation alone) and a fused
    // two-qubit cluster (cx + relaxation on both + depolarizing). One
    // pass is 7–60 us, so take more samples than the default ten.
    group.sample_size(100);
    let relax = KrausChannel::thermal_relaxation(120e3, 90e3, 300.0);
    let depol1 = KrausChannel::depolarizing_1q(0.001);
    let depol2 = KrausChannel::depolarizing_2q(0.01);
    let complex_1q = fused_cluster(7, |b| {
        b.push_unitary(gates::sx(), &[3]);
        b.push_channel(&relax, &[3]);
        b.push_channel(&depol1, &[3]);
    });
    let real_1q = fused_cluster(7, |b| b.push_channel(&relax, &[3]));
    let fused_2q = fused_cluster(7, |b| {
        b.push_unitary(gates::cx(), &[2, 4]);
        b.push_channel(&relax, &[2]);
        b.push_channel(&relax, &[4]);
        b.push_channel(&depol2, &[2, 4]);
    });
    let rz = gates::rz(0.37);
    let mut rho = DensityMatrix::new(7);
    for q in 0..7 {
        rho.apply_unitary_1q(&gates::h(), q);
    }
    group.bench_function("rz_7q", |b| b.iter(|| rho.apply_unitary_1q(&rz, 3)));
    let clusters = [
        ("fused_1q_complex", &complex_1q),
        ("fused_1q_real", &real_1q),
        ("fused_2q", &fused_2q),
    ];
    for (name, program) in clusters {
        let (s, qubits) = only_sweep(program);
        group.bench_function(format!("{name}_7q"), |b| {
            b.iter(|| rho.apply_superop(s, &qubits))
        });
    }
    group.finish();
}

/// A density-lowered program holding just the ops `push` appends — one
/// fused run, as the engine would sweep it.
fn fused_cluster(n: usize, push: impl FnOnce(&mut ProgramBuilder)) -> CompiledProgram {
    let mut b = ProgramBuilder::new(n);
    push(&mut b);
    b.finish(ReadoutError::uniform(n, 0.0), 0.0)
}

/// The single superoperator sweep of a [`fused_cluster`] program.
fn only_sweep(program: &CompiledProgram) -> (Superop<'_>, Vec<usize>) {
    match *program.ops() {
        [TapeOp::Channel1q { channel, q }] => (program.superops().get(channel), vec![q]),
        [TapeOp::Channel2q { channel, q0, q1 }] => (program.superops().get(channel), vec![q0, q1]),
        ref ops => panic!("expected one fused sweep, got {ops:?}"),
    }
}

fn bench_sampler(c: &mut Criterion) {
    // `ShotSampler::sample_counts` (guide table) beside the plain
    // `sample_indices` loop it must reproduce draw for draw, at the two
    // shapes the benchmark workloads sample: 16 outcomes x 8192 shots
    // and 128 outcomes x 1024 shots (random distributions).
    let mut group = c.benchmark_group("sampler");
    let mut sampler = ShotSampler::new();
    let mut indices = Vec::new();
    for (n_qubits, shots) in [(4usize, 8192usize), (7, 1024)] {
        let mut rng = StdRng::seed_from_u64(5);
        let probs: Vec<f64> = (0..1usize << n_qubits).map(|_| rng.gen::<f64>()).collect();
        group.bench_function(format!("sample_indices_{n_qubits}q_{shots}"), |b| {
            b.iter(|| sampler.sample_indices_into(&probs, shots, &mut rng, &mut indices))
        });
        group.bench_function(format!("sample_counts_{n_qubits}q_{shots}"), |b| {
            b.iter(|| sampler.sample_counts(&probs, n_qubits, shots, &mut rng))
        });
    }
    // `vqe4_paper`'s real input: the engine's noisy Heisenberg-4
    // distribution on belem (bound as the `evolve` group binds it), at
    // the paper's 8192 shots.
    let (_, problem, device) = benchmark_templates()
        .into_iter()
        .find(|(name, ..)| *name == "heisenberg4")
        .expect("benchmark template");
    let (mut template, noises) = template_fixture(problem.as_ref(), device);
    template.ensure_compiled(&noises[0], NoiseToken::new(0, 0, 1.0, 1.0));
    template.bind(&probe_params(problem.num_params()), None);
    let n_qubits = template.program().num_qubits();
    let mut probs = Vec::new();
    DensityEngine::new().evolve_probs(template.program(), &mut probs);
    let mut rng = StdRng::seed_from_u64(5);
    group.bench_function("sample_counts_heisenberg4_8192", |b| {
        b.iter(|| sampler.sample_counts(&probs, n_qubits, 8192, &mut rng))
    });
    group.finish();
}

fn bench_channel_application(c: &mut Criterion) {
    let mut group = c.benchmark_group("channel_apply");
    let ch1 = KrausChannel::depolarizing_1q(0.01);
    let ch2 = KrausChannel::depolarizing_2q(0.02);
    let mut rho = DensityMatrix::new(5);
    rho.apply_unitary_1q(&gates::h(), 0);
    let mut table = SuperopTable::default();
    let (s1, s2) = (table.push(&ch1), table.push(&ch2));
    // The Kraus-sum oracle (per-operator clones) vs the lowered
    // superoperator sweep the engine replays (lowering is paid once per
    // compiled program, so it stays outside the loop).
    group.bench_function("depol_1q_baseline", |b| {
        b.iter(|| baseline::apply_channel(&mut rho, &ch1, &[2]))
    });
    group.bench_function("depol_1q_lowered", |b| {
        b.iter(|| rho.apply_superop(table.get(s1), &[2]))
    });
    group.bench_function("depol_2q_baseline", |b| {
        b.iter(|| baseline::apply_channel(&mut rho, &ch2, &[1, 3]))
    });
    group.bench_function("depol_2q_lowered", |b| {
        b.iter(|| rho.apply_superop(table.get(s2), &[1, 3]))
    });
    group.finish();
}

fn bench_execute_density_paths(c: &mut Criterion) {
    // Single-function view of the same gap: reference executor vs the
    // one-shot compile plus a fresh engine, at a fixed noise model.
    let circuit = vqe_circuit_bound(4);
    let cal = Calibration::uniform(4, 85.0, 65.0, 0.002, 0.015, 0.025);
    let noise = NoiseModel::from_calibration(&cal, &[0, 1, 2, 3]);
    let mut group = c.benchmark_group("execute_density");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    group.bench_function("reference_8192", |b| {
        b.iter(|| reference::execute_density(&circuit, &noise, 8192, &mut rng))
    });
    group.bench_function("engine_8192", |b| {
        b.iter(|| {
            let program = compile_bound(&circuit, &noise);
            DensityEngine::new().run_program(&program, 8192, &mut rng)
        })
    });
    group.finish();
}

fn backend(seed: u64) -> QpuBackend {
    let spec = catalog::by_name("belem").expect("catalog device");
    QpuBackend::new(
        &spec.name,
        spec.topology(),
        spec.calibration(),
        DriftModel::none(),
        QueueModel::light(1.0),
        24.0,
        seed,
    )
}

fn bench_job_throughput(c: &mut Criterion) {
    // The acceptance metric: one 4-qubit VQE job, 8192 shots, full
    // backend path (queue, calibration, noise, sampling).
    let circuit = vqe_circuit_bound(4);
    let active = [0usize, 1, 2, 3];
    let mut group = c.benchmark_group("job_throughput");
    group.sample_size(20);

    let mut legacy = backend(2);
    group.bench_function("legacy_4q_vqe_8192", |b| {
        b.iter(|| eqc_oracle::execute(&mut legacy, &circuit, &active, 8192, SimTime::ZERO))
    });

    let mut engine = backend(2);
    group.bench_function("engine_4q_vqe_8192", |b| {
        b.iter(|| engine.execute(&circuit, &active, 8192, SimTime::ZERO))
    });

    // The client-style hot path: symbolic template compiled once per
    // calibration cycle, one forward/backward shift pair per job (a
    // fork group of two over one shared-prefix walk).
    let params: Vec<f64> = (0..8).map(|i| 0.25 * i as f64 - 0.9).collect();
    let runs = [
        TemplateRun {
            template: 0,
            shift: Some((0, vqa::gradient::SHIFT)),
        },
        TemplateRun {
            template: 0,
            shift: Some((0, -vqa::gradient::SHIFT)),
        },
    ];
    let mut client = backend(2);
    let mut template = CompiledTemplate::new(vqe_circuit_symbolic(4), active.to_vec());
    group.bench_function("template_shift_pair_8192", |b| {
        b.iter(|| {
            let mut refs = [&mut template];
            client.execute_templates(&mut refs, &runs, &params, 8192, SimTime::ZERO)
        })
    });
    group.finish();
}

fn bench_compile(c: &mut Criterion) {
    // What a drifting device pays per job before it can bind: `first_*`
    // plans and fills a fresh template (the cold compile of the first
    // device of an architecture to run it), `adopt_*` is a template's
    // first compile when a sibling — another device of the
    // architecture — already made the plan (a refresh onto it, into
    // new buffers), `token_miss_*` brings a long-lived template up to
    // the next drift step (a refresh of the same plan). One call is
    // 3-50 us: many samples.
    let mut group = c.benchmark_group("compile");
    group.sample_size(2000);
    for (name, problem, device) in &benchmark_templates() {
        let (fresh, noises) = template_fixture(problem.as_ref(), device);
        let mut step = 0u64;
        let mut next = || {
            step += 1;
            (
                &noises[step as usize % noises.len()],
                NoiseToken::new(0, step, 1.0, 1.0),
            )
        };
        group.bench_function(format!("first_{name}"), |b| {
            b.iter(|| {
                let (noise, token) = next();
                let mut template = fresh.clone();
                template.ensure_compiled(noise, token);
                assert_eq!(template.plans(), 1, "{name}: no sibling plan is live");
                template
            })
        });
        let mut template = fresh.clone();
        let (noise, token) = next();
        template.ensure_compiled(noise, token);
        group.bench_function(format!("adopt_{name}"), |b| {
            b.iter(|| {
                let (noise, token) = next();
                let mut sibling = template.sibling();
                sibling.ensure_compiled(noise, token);
                assert_eq!(sibling.plans(), 0, "{name}: a sibling's plan holds");
                sibling
            })
        });
        group.bench_function(format!("token_miss_{name}"), |b| {
            b.iter(|| {
                let (noise, token) = next();
                template.ensure_compiled(noise, token);
            })
        });
        assert_eq!(template.plans(), 1, "{name}: drift alone must not re-plan");
    }
    group.finish();
}

/// Counts the heap allocations (`alloc`, `alloc_zeroed`, `realloc`)
/// of the calling thread, for the `job` group's allocation rows.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count_allocation() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn bench_warm_job(c: &mut Criterion) {
    // One warm client task on a drifting device — the fleet's unit of
    // work: a shift pair per slice template, the noise re-degraded and
    // the template's numbers refreshed (the noise token moves every
    // job), bound, evolved, sampled, remapped and reduced to a
    // gradient. Printed beside each row: the task's heap allocations
    // once warm.
    let mut group = c.benchmark_group("job");
    group.sample_size(2000);
    for (name, problem, device) in benchmark_templates().iter().take(3) {
        let problem = problem.as_ref();
        let spec = catalog::by_name(device).expect("catalog device");
        let drifting = QpuBackend::new(
            &spec.name,
            spec.topology(),
            spec.calibration(),
            DriftModel::linear(0.08, 0.02),
            QueueModel::light(3.0),
            24.0,
            2,
        );
        let mut client = ClientNode::new(0, drifting, problem).expect("template fits device");
        let task = problem.tasks()[0];
        let params = probe_params(problem.num_params());
        let mut submit = SimTime::ZERO;
        let mut job = || {
            let result = client.run_task(problem, task, &params, 1024, submit);
            submit = result.completed;
            result.gradient
        };
        for _ in 0..8 {
            job();
        }
        let before = ALLOCATIONS.with(|n| n.get());
        for _ in 0..100 {
            job();
        }
        let per_task = (ALLOCATIONS.with(|n| n.get()) - before) as f64 / 100.0;
        println!("job/warm_shift_pair_{name}: {per_task} heap allocations per task");
        group.bench_function(format!("warm_shift_pair_{name}"), |b| b.iter(&mut job));
    }
    group.finish();
}

fn bench_evolve(c: &mut Criterion) {
    // One full evolution of each benchmark template, bound, on a warm
    // engine — what a run pays between bind and sampling, and the sum
    // the tape census (`eqc_bench::tape_census`, printed per row) splits
    // by kind of sweep. 1.4 us (H2) to 1.7 ms (TFIM-7).
    let mut group = c.benchmark_group("evolve");
    for (name, problem, device) in &benchmark_templates() {
        let (mut template, noises) = template_fixture(problem.as_ref(), device);
        template.ensure_compiled(&noises[0], NoiseToken::new(0, 0, 1.0, 1.0));
        template.bind(&probe_params(problem.num_params()), None);
        let program = template.program();
        println!("evolve/{name}: {:?}", tape_census(program));
        group.sample_size(if program.num_qubits() >= 7 { 200 } else { 5000 });
        let mut engine = DensityEngine::new();
        let mut probs = Vec::new();
        group.bench_function(*name, |b| {
            b.iter(|| engine.evolve_probs(program, &mut probs))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gate_kernels,
    bench_sampler,
    bench_channel_application,
    bench_execute_density_paths,
    bench_job_throughput,
    bench_warm_job,
    bench_compile,
    bench_evolve
);
criterion_main!(benches);
