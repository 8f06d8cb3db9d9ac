//! The compiled-engine equivalence suite.
//!
//! The engine layer (compiled programs + allocation-free engines + the
//! per-cycle noise cache) claims **byte-identical** results to the
//! pre-engine path, which survives verbatim behind
//! `QpuBackend::with_legacy_execution` as the oracle. This suite holds
//! it to that claim at every level: raw counts per job (under drift,
//! across recalibration boundaries),
//! and full `TrainingReport`s for VQE and QAOA ensembles — plus the
//! cache-discipline guarantees (noise models built once per calibration
//! cycle, templates compiled once per noise epoch).

use eqc::prelude::*;
use qcircuit::CircuitBuilder;
use qdevice::{catalog, DriftModel, QpuBackend, QueueModel};

fn vqe_circuit(n: usize) -> qcircuit::Circuit {
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

/// A drifting, episodic backend recalibrating every 3 virtual minutes,
/// so even a short training run crosses several recalibration
/// boundaries (and the continuous drift forces a model re-degrade on
/// every job — the cache's hardest regime).
fn stress_backend(seed: u64) -> QpuBackend {
    let spec = catalog::by_name("belem").expect("catalog device");
    QpuBackend::new(
        &spec.name,
        spec.topology(),
        spec.calibration(),
        DriftModel::linear(0.08, 0.02)
            .with_episode(0.05, 0.12, 3.0)
            .expect("valid episode"),
        QueueModel::light(3.0),
        0.05, // recalibrate every 3 virtual minutes
        seed,
    )
    .with_downtime_hours(0.0)
}

#[test]
fn density_engine_is_byte_identical_to_reference_across_cycles() {
    let mut engine = stress_backend(11);
    let mut legacy = stress_backend(11).with_legacy_execution();
    let circuit = vqe_circuit(4);
    let active = [0, 1, 2, 3];
    let mut t = SimTime::ZERO;
    for job in 0..10 {
        let a = engine.execute(&circuit, &active, 2048, t);
        let b = legacy.execute(&circuit, &active, 2048, t);
        assert_eq!(a.counts, b.counts, "counts diverge at job {job}");
        assert_eq!(
            a.completed.as_secs().to_bits(),
            b.completed.as_secs().to_bits(),
            "timing diverges at job {job}"
        );
        // Jump ~1.7 virtual hours per job: crosses cycle boundaries and
        // the drift episode.
        t = a.completed + 6000.0;
    }
    assert!(
        engine.reported_calibration_builds() >= 3,
        "the walk should have crossed several recalibrations, saw {}",
        engine.reported_calibration_builds()
    );
}

fn fleet(legacy: bool) -> Ensemble {
    let mut builder = Ensemble::builder();
    for (i, name) in ["belem", "manila", "bogota"].iter().enumerate() {
        let spec = catalog::by_name(name).expect("catalog device");
        let mut backend = spec.backend(300 + i as u64);
        if legacy {
            backend = backend.with_legacy_execution();
        }
        builder = builder.backend(backend);
    }
    builder
        .config(EqcConfig::paper_qaoa().with_epochs(6).with_shots(512))
        .build()
        .expect("fleet builds")
}

#[test]
fn qaoa_training_report_identical_on_engine_and_legacy_paths() {
    let problem = QaoaProblem::maxcut_ring4();
    let fast = fleet(false).train(&problem).expect("engine path trains");
    let slow = fleet(true).train(&problem).expect("legacy path trains");
    assert_eq!(fast, slow, "structurally identical reports");
    assert_eq!(
        format!("{fast:?}"),
        format!("{slow:?}"),
        "byte-identical debug serialization"
    );
}

#[test]
fn vqe_training_report_identical_across_recalibration_boundary() {
    // Short calibration cycles + drift: the run crosses recalibrations,
    // so the per-cycle caches invalidate mid-training. The report must
    // still match the uncached path byte for byte.
    let problem = VqeProblem::heisenberg_4q();
    let mk = |legacy: bool| {
        let mut backend = stress_backend(77);
        if legacy {
            backend = backend.with_legacy_execution();
        }
        Ensemble::builder()
            .backend(backend)
            .config(EqcConfig::paper_vqe().with_epochs(3).with_shots(256))
            .build()
            .expect("builds")
            .train(&problem)
            .expect("trains")
    };
    let fast = mk(false);
    let slow = mk(true);
    assert_eq!(fast, slow);
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
    assert!(fast.total_hours > 0.1, "run must span multiple cycles");
}

#[test]
fn noise_model_is_built_once_per_cycle_without_drift() {
    let spec = catalog::by_name("manila").expect("catalog device");
    let mut backend = QpuBackend::new(
        &spec.name,
        spec.topology(),
        spec.calibration(),
        DriftModel::none(),
        QueueModel::light(1.0),
        24.0,
        5,
    );
    let circuit = vqe_circuit(4);
    let active = [0, 1, 2, 3];
    let mut t = SimTime::ZERO;
    for _ in 0..8 {
        let r = backend.execute(&circuit, &active, 256, t);
        t = r.completed;
    }
    assert!(t.as_hours() < 24.0, "all jobs must fall in cycle 0");
    assert_eq!(
        backend.noise_model_builds(),
        1,
        "stable cycle + no drift => exactly one NoiseModel construction"
    );
    assert_eq!(backend.reported_calibration_builds(), 1);

    // Crossing into the next cycle invalidates exactly once.
    let r = backend.execute(&circuit, &active, 256, SimTime::from_hours(25.0));
    assert!(r.counts.total() == 256);
    assert_eq!(backend.noise_model_builds(), 2);
    assert_eq!(backend.reported_calibration_builds(), 2);
}

#[test]
fn client_compiles_templates_once_per_calibration_cycle() {
    let problem = VqeProblem::heisenberg_4q();
    let spec = catalog::by_name("bogota").expect("catalog device");
    let backend = QpuBackend::new(
        &spec.name,
        spec.topology(),
        spec.calibration(),
        DriftModel::none(),
        QueueModel::light(1.0),
        24.0,
        9,
    );
    let mut client = ClientNode::new(0, backend, &problem).expect("transpiles");
    let params = problem.initial_point(3);
    let task = vqa::GradientTask {
        param: qcircuit::ParamId(0),
        slice: vqa::TaskSlice::Full,
    };
    for _ in 0..5 {
        client.run_task(&problem, task, &params, 128, SimTime::ZERO);
    }
    let compiles_cycle0 = client.programs_compiled();
    assert!(
        compiles_cycle0 >= 1,
        "at least the slice's template compiles"
    );
    assert!(
        client.program_cache_hits() > 0,
        "repeat jobs in one cycle must hit the program cache"
    );
    // Same cycle, more work: no recompilation.
    client.run_task(&problem, task, &params, 128, SimTime::ZERO);
    assert_eq!(client.programs_compiled(), compiles_cycle0);
    // Next calibration cycle: exactly one recompile per touched template.
    client.run_task(&problem, task, &params, 128, SimTime::from_hours(30.0));
    assert!(client.programs_compiled() > compiles_cycle0);
    // ... as a refresh: recalibration jitters the numbers, not what the
    // schedule emits, so the plans of the first cycle are still the plans.
    assert_eq!(client.programs_planned(), compiles_cycle0);
}

#[test]
fn template_recompiles_when_moved_across_backends() {
    // Two backends with the *same* seed but different calibrations must
    // not share a noise epoch: a template dragged from one to the other
    // has to recompile instead of replaying the first device's
    // channels (the NoiseToken backend-identity guard).
    use qdevice::{CompiledTemplate, TemplateRun};
    let mk = |name: &str| {
        let spec = catalog::by_name(name).expect("catalog device");
        QpuBackend::new(
            &spec.name,
            spec.topology(),
            spec.calibration(),
            DriftModel::none(),
            QueueModel::light(1.0),
            24.0,
            5, // identical seed on purpose
        )
    };
    let mut belem = mk("belem");
    let mut manila = mk("manila");
    let mut template = CompiledTemplate::new(vqe_circuit(4), vec![0, 1, 2, 3]);
    let runs = [TemplateRun {
        template: 0,
        shift: None,
    }];
    belem.execute_templates(&mut [&mut template], &runs, &[], 64, SimTime::ZERO);
    assert_eq!(template.compiles(), 1);
    manila.execute_templates(&mut [&mut template], &runs, &[], 64, SimTime::ZERO);
    assert_eq!(
        template.compiles(),
        2,
        "a different backend in the same cycle must force a recompile"
    );
}

/// One `execute_templates` job against the legacy oracle's: per-run
/// counts and completion-time bits.
fn assert_matches_legacy(
    path: &str,
    batch: usize,
    got: &(Vec<qsim::Counts>, qdevice::JobResult),
    legacy: &(Vec<qsim::Counts>, qdevice::JobResult),
) {
    assert_eq!(
        got.0, legacy.0,
        "{path} vs legacy counts diverge at batch {batch}"
    );
    assert_eq!(
        got.1.completed.as_secs().to_bits(),
        legacy.1.completed.as_secs().to_bits(),
        "{path} vs legacy timing diverges at batch {batch}"
    );
}

/// A parameterized template circuit: one `Ry(theta_q)` per qubit, a CX
/// chain, one `Rz(theta_{n+q})` per qubit — every rotation is a
/// shift-rule target.
fn sym_circuit(n: usize) -> qcircuit::Circuit {
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
fn shift_pair_folding_is_byte_identical_across_recompile() {
    // A forward/backward shift pair is a fork group of two: its shared
    // tape prefix is walked once. It must reproduce the legacy
    // run-at-a-time oracle even while the drifting backend recompiles
    // the template across noise epochs mid-walk.
    use qdevice::{CompiledTemplate, TemplateRun};
    use std::f64::consts::FRAC_PI_2;
    let mut engine = stress_backend(33);
    let mut legacy = stress_backend(33).with_legacy_execution();
    let circuit = sym_circuit(4);
    // Gate layout: ry_sym at 0..4, cx at 4..7, rz_sym at 7..11.
    let runs = [
        TemplateRun {
            template: 0,
            shift: Some((1, FRAC_PI_2)),
        },
        TemplateRun {
            template: 0,
            shift: None,
        },
        TemplateRun {
            template: 0,
            shift: Some((1, -FRAC_PI_2)),
        },
        TemplateRun {
            template: 0,
            shift: Some((9, FRAC_PI_2)),
        },
        TemplateRun {
            template: 0,
            shift: Some((9, -FRAC_PI_2)),
        },
        TemplateRun {
            template: 0,
            shift: Some((0, FRAC_PI_2)), // unpaired: a lone fork
        },
    ];
    let params: Vec<f64> = (0..8).map(|i| 0.2 + 0.15 * i as f64).collect();
    let mut template = CompiledTemplate::new(circuit.clone(), vec![0, 1, 2, 3]);
    let mut template_legacy = CompiledTemplate::new(circuit, vec![0, 1, 2, 3]);
    let mut t = SimTime::ZERO;
    for batch in 0..4 {
        let a = engine.execute_templates(&mut [&mut template], &runs, &params, 512, t);
        let c = legacy.execute_templates(&mut [&mut template_legacy], &runs, &params, 512, t);
        assert_matches_legacy("engine", batch, &a, &c);
        // Jump past the 3-minute recalibration period between batches.
        t = a.1.completed + 600.0;
    }
    assert!(
        template.compiles() >= 2,
        "the walk must straddle a noise-epoch recompile, saw {} compiles",
        template.compiles()
    );
    assert_eq!(
        engine.batched_jobs(),
        4 * runs.len() as u64,
        "every run of every batch goes through the one density path"
    );
}

#[test]
fn drifting_backend_plans_once_and_refreshes_per_job() {
    // Every catalog device drifts continuously, so every job lands on a
    // fresh noise token. The template's structure is planned by the
    // first job; each later job — across recalibrations too — only
    // re-derives the numbers, and the results stay the legacy oracle's.
    use qdevice::{CompiledTemplate, TemplateRun};
    use std::f64::consts::FRAC_PI_2;
    let mut engine = stress_backend(41);
    let mut legacy = stress_backend(41).with_legacy_execution();
    let circuit = sym_circuit(4);
    let runs = [FRAC_PI_2, -FRAC_PI_2].map(|delta| TemplateRun {
        template: 0,
        shift: Some((2, delta)),
    });
    let params: Vec<f64> = (0..8).map(|i| 0.2 + 0.15 * i as f64).collect();
    let mut template = CompiledTemplate::new(circuit.clone(), vec![0, 1, 2, 3]);
    let mut template_legacy = CompiledTemplate::new(circuit, vec![0, 1, 2, 3]);
    let mut t = SimTime::ZERO;
    for job in 0..8 {
        let got = engine.execute_templates(&mut [&mut template], &runs, &params, 512, t);
        let oracle = legacy.execute_templates(&mut [&mut template_legacy], &runs, &params, 512, t);
        assert_matches_legacy("engine", job, &got, &oracle);
        // Odd jobs follow within the cycle, even ones jump a
        // recalibration boundary (3 virtual minutes).
        t = got.1.completed + if job % 2 == 0 { 5.0 } else { 400.0 };
    }
    assert_eq!(template.compiles(), 8, "one token per job under drift");
    assert_eq!(template.plans(), 1, "the structure is planned once");
    assert_eq!(template.cache_hits(), 8, "the pair's second run hits");
}

/// A template with a *fixed* ansatz prefix (H layer + CX chain) ahead
/// of the first parameterized rotation. `extra_rz` appends a second
/// symbolic layer so two such circuits share the prefix but diverge in
/// the suffix.
fn prefixed_circuit(n: usize, first_param: usize, extra_rz: bool) -> qcircuit::Circuit {
    let mut b = CircuitBuilder::new(n);
    for q in 0..n {
        b.h(q);
    }
    for q in 0..n - 1 {
        b.cx(q, q + 1);
    }
    for q in 0..n {
        b.ry_sym(q, first_param + q);
    }
    if extra_rz {
        for q in 0..n {
            b.rz_sym(q, first_param + n + q);
        }
    }
    b.build()
}

#[test]
fn batched_group_fork_is_byte_identical_across_templates_and_recompile() {
    // Runs group by template: each group binds its base once and forks
    // every shifted run N-way off one walk — two templates interleaved
    // in one batch, across batches. It must reproduce the legacy
    // run-at-a-time oracle while the drifting backend recompiles
    // mid-walk.
    use qdevice::{CompiledTemplate, TemplateRun};
    use std::f64::consts::FRAC_PI_2;
    let mut engine = stress_backend(47);
    let mut legacy = stress_backend(47).with_legacy_execution();
    // Two templates sharing an identical fixed prefix (H + CX chain).
    let circuit_a = prefixed_circuit(4, 0, false);
    let circuit_b = prefixed_circuit(4, 0, true);
    // Gate layout: h at 0..4, cx at 4..7, ry_sym at 7..11 (rz_sym at
    // 11..15 in circuit_b only).
    let runs = [
        TemplateRun {
            template: 0,
            shift: Some((7, FRAC_PI_2)),
        },
        TemplateRun {
            template: 1,
            shift: Some((12, FRAC_PI_2)),
        },
        TemplateRun {
            template: 0,
            shift: None,
        },
        TemplateRun {
            template: 0,
            shift: Some((7, -FRAC_PI_2)),
        },
        TemplateRun {
            template: 1,
            shift: Some((12, -FRAC_PI_2)),
        },
        TemplateRun {
            template: 1,
            shift: None,
        },
        TemplateRun {
            template: 1,
            shift: Some((9, FRAC_PI_2)), // unpaired: a lone fork
        },
    ];
    let params: Vec<f64> = (0..8).map(|i| 0.15 + 0.11 * i as f64).collect();
    let [mut ta, mut tc] = [0, 1].map(|_| {
        [
            CompiledTemplate::new(circuit_a.clone(), vec![0, 1, 2, 3]),
            CompiledTemplate::new(circuit_b.clone(), vec![0, 1, 2, 3]),
        ]
    });
    let mut t = SimTime::ZERO;
    for batch in 0..4 {
        let [a0, a1] = &mut ta;
        let a = engine.execute_templates(&mut [a0, a1], &runs, &params, 512, t);
        let [c0, c1] = &mut tc;
        let c = legacy.execute_templates(&mut [c0, c1], &runs, &params, 512, t);
        assert_matches_legacy("engine", batch, &a, &c);
        t = a.1.completed + 600.0;
    }
    assert!(
        ta[0].compiles() >= 2,
        "the walk must straddle a noise-epoch recompile, saw {} compiles",
        ta[0].compiles()
    );
    assert_eq!(
        engine.batched_jobs(),
        4 * runs.len() as u64,
        "every run of every batch goes through the one density path"
    );
}

fn parallel_fleet(par: SimParallelism) -> Ensemble {
    let mut builder = Ensemble::builder();
    for (i, name) in ["belem", "manila", "bogota"].iter().enumerate() {
        let spec = catalog::by_name(name).expect("catalog device");
        builder = builder.backend(spec.backend(300 + i as u64));
    }
    builder
        .config(
            EqcConfig::paper_qaoa()
                .with_epochs(6)
                .with_shots(512)
                .with_sim_parallelism(par),
        )
        .build()
        .expect("fleet builds")
}

#[test]
fn qaoa_training_report_identical_under_pipeline_lanes() {
    // Four lanes put the three clients' tasks on a three-worker pool;
    // the report must be the inline one byte for byte.
    let problem = QaoaProblem::maxcut_ring4();
    let fast = parallel_fleet(SimParallelism::Pipeline { lanes: 4 })
        .train(&problem)
        .expect("pooled path trains");
    let slow = parallel_fleet(SimParallelism::Serial)
        .train(&problem)
        .expect("serial path trains");
    assert_eq!(fast, slow, "structurally identical reports");
    assert_eq!(format!("{fast:?}"), format!("{slow:?}"));
}

#[test]
fn engine_telemetry_reports_lanes_and_folded_pairs() {
    let problem = QaoaProblem::maxcut_ring4();
    let ensemble = parallel_fleet(SimParallelism::Serial);
    let mut session = ensemble.session(&problem).expect("session binds");
    let report = DiscreteEventExecutor::new()
        .run(&mut session)
        .expect("trains");
    assert!(report.epochs > 0);
    let telem = session.engine_telemetry();
    assert!(
        telem.batched_jobs > 0,
        "shift-rule gradient batches evolve through the group-fork walk"
    );
    assert!(telem.jobs > 0);
    assert_eq!(
        telem.pipeline_lanes, 1,
        "no pipeline: suffixes resume inline"
    );
    assert_eq!(
        (telem.folded_pairs, telem.prefix_hits),
        (0, 0),
        "retired counters stay zero"
    );
    assert_eq!(
        format!("{telem}"),
        format!(
            "{} jobs, 1 pipeline lanes, {} batched runs",
            telem.jobs, telem.batched_jobs
        ),
    );
}

/// A problem that records the threads its slice losses are computed on:
/// a client task computes them wherever it runs.
struct ThreadTracing<P> {
    inner: P,
    threads: std::sync::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
}

impl<P: VqaProblem> VqaProblem for ThreadTracing<P> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn num_qubits(&self) -> usize {
        self.inner.num_qubits()
    }
    fn num_params(&self) -> usize {
        self.inner.num_params()
    }
    fn granularity(&self) -> vqa::TaskGranularity {
        self.inner.granularity()
    }
    fn initial_point(&self, seed: u64) -> Vec<f64> {
        self.inner.initial_point(seed)
    }
    fn templates(&self) -> &[Circuit] {
        self.inner.templates()
    }
    fn tasks(&self) -> Vec<vqa::GradientTask> {
        self.inner.tasks()
    }
    fn slice_templates(&self, slice: vqa::TaskSlice) -> Vec<usize> {
        self.inner.slice_templates(slice)
    }
    fn slice_loss(&self, slice: vqa::TaskSlice, counts: &[Counts]) -> f64 {
        let me = std::thread::current().id();
        self.threads.lock().expect("thread set").insert(me);
        self.inner.slice_loss(slice, counts)
    }
    fn loss_slices(&self) -> Vec<vqa::TaskSlice> {
        self.inner.loss_slices()
    }
    fn ideal_loss(&self, params: &[f64]) -> f64 {
        self.inner.ideal_loss(params)
    }
    fn reference_minimum(&self) -> f64 {
        self.inner.reference_minimum()
    }
}

#[test]
fn pipeline_lanes_run_whole_client_tasks_on_the_pool() {
    // `Pipeline { lanes }` asks the discrete-event executor for whole
    // client tasks on the worker pool: never more workers than clients,
    // the serial report byte for byte, and one lane runs inline.
    let run = |par: SimParallelism| {
        let problem = ThreadTracing {
            inner: QaoaProblem::maxcut_ring4(),
            threads: Default::default(),
        };
        let ensemble = Ensemble::builder()
            .device("belem")
            .device("manila")
            .config(
                EqcConfig::paper_qaoa()
                    .with_epochs(4)
                    .with_shots(256)
                    .with_sim_parallelism(par),
            )
            .build()
            .expect("ensemble builds");
        let mut session = ensemble.session(&problem).expect("session binds");
        let report = DiscreteEventExecutor::new()
            .run(&mut session)
            .expect("trains");
        let lanes = session.engine_telemetry().pipeline_lanes;
        let threads = problem.threads.lock().expect("thread set").clone();
        (format!("{report:?}"), lanes, threads)
    };
    let me = std::thread::current().id();
    let (serial, serial_lanes, serial_threads) = run(SimParallelism::Serial);
    let (one, one_lanes, one_threads) = run(SimParallelism::Pipeline { lanes: 1 });
    let (pooled, pooled_lanes, pooled_threads) = run(SimParallelism::Pipeline { lanes: 8 });
    assert_eq!(one, serial, "one lane is the serial run");
    assert_eq!(pooled, serial, "the pool replays the serial report");
    assert_eq!(
        (serial_lanes, one_lanes, pooled_lanes),
        (1, 1, 2),
        "8 lanes resolve to one worker per client"
    );
    let inline = std::collections::HashSet::from([me]);
    assert_eq!(serial_threads, inline);
    assert_eq!(one_threads, inline, "one lane spawns nothing");
    assert!(
        !pooled_threads.contains(&me) && (1..=2).contains(&pooled_threads.len()),
        "client tasks run on the two pool workers, not the caller: {pooled_threads:?}"
    );
}

#[test]
fn wrapper_executors_match_reference_functions() {
    // The public execute_density wrapper (used by external callers and
    // the figure harnesses) is a thin shim over the engine; it must
    // reproduce the preserved reference implementation byte for byte.
    use qdevice::noise_model::{execute_density, reference, NoiseModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let circuit = vqe_circuit(4);
    let cal = qdevice::Calibration::uniform(4, 85.0, 65.0, 0.002, 0.015, 0.025);
    let noise = NoiseModel::from_calibration(&cal, &[0, 1, 2, 3]);

    let (a, da) = execute_density(&circuit, &noise, 30_000, &mut StdRng::seed_from_u64(21));
    let (b, db) =
        reference::execute_density(&circuit, &noise, 30_000, &mut StdRng::seed_from_u64(21));
    assert_eq!(a, b, "density wrapper must be byte-identical");
    assert_eq!(da.to_bits(), db.to_bits());
}
