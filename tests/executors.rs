//! Executor equivalence and determinism: the three substrates drive
//! the same master loop, and the pooled substrate must reproduce the
//! discrete-event executor byte for byte at any fleet width.

use eqc::prelude::*;

fn qaoa_ensemble(names: &[&str], epochs: usize) -> Ensemble {
    Ensemble::builder()
        .devices(names.iter().copied())
        .device_seed(7)
        .config(EqcConfig::paper_qaoa().with_epochs(epochs).with_shots(512))
        .build()
        .expect("catalog devices resolve")
}

#[test]
fn discrete_event_reports_are_byte_identical_per_seed() {
    let problem = QaoaProblem::maxcut_ring4();
    let ensemble = qaoa_ensemble(&["belem", "manila", "bogota"], 8);
    let a = ensemble.train(&problem).expect("trains");
    let b = ensemble.train(&problem).expect("trains");
    assert_eq!(a, b, "structurally identical");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "byte-identical debug serialization"
    );
}

/// Builds the qaoa fleet on an explicit simulation engine.
fn engine_ensemble(simulator: qdevice::SimulatorKind, epochs: usize) -> Ensemble {
    let mut builder = Ensemble::builder();
    for (i, name) in ["belem", "manila"].iter().enumerate() {
        let spec = qdevice::catalog::by_name(name).expect("catalog device");
        builder = builder.backend(spec.backend(7 + i as u64).with_simulator(simulator));
    }
    builder
        .config(EqcConfig::paper_qaoa().with_epochs(epochs).with_shots(256))
        .build()
        .expect("fleet builds")
}

#[test]
fn discrete_event_is_deterministic_on_both_engines() {
    // The determinism guarantee is engine-independent: the density
    // engine and the trajectory engine must each reproduce their full
    // report byte for byte under a fixed seed.
    let problem = QaoaProblem::maxcut_ring4();
    for simulator in [
        qdevice::SimulatorKind::Density,
        qdevice::SimulatorKind::Trajectories(24),
    ] {
        let ensemble = engine_ensemble(simulator, 4);
        let a = ensemble.train(&problem).expect("trains");
        let b = ensemble.train(&problem).expect("trains");
        assert_eq!(a, b, "{simulator:?} must replay identically");
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn engines_agree_statistically_but_not_bitwise() {
    // Sanity check that the two engines are genuinely different
    // unravelings of the same physics: close in distribution, not equal
    // in bits.
    let problem = QaoaProblem::maxcut_ring4();
    let dens = engine_ensemble(qdevice::SimulatorKind::Density, 4)
        .train(&problem)
        .expect("trains");
    let traj = engine_ensemble(qdevice::SimulatorKind::Trajectories(64), 4)
        .train(&problem)
        .expect("trains");
    assert_ne!(dens.final_params, traj.final_params);
    assert!(
        (dens.final_loss - traj.final_loss).abs() < 0.5,
        "density {} vs trajectories {}",
        dens.final_loss,
        traj.final_loss
    );
}

/// An independent re-implementation of the pre-0.2
/// `SingleDeviceTrainer::train` loop (uncapped, unweighted): walk the
/// cyclic task list, chain each submission on the previous completion,
/// gather consecutive same-parameter slices locally, apply plain SGD,
/// record the ideal loss after every full cycle.
fn reference_single_device_sgd(
    problem: &dyn VqaProblem,
    mut client: ClientNode,
    cfg: EqcConfig,
) -> (Vec<f64>, Vec<(usize, f64, f64)>) {
    let mut theta = vqa::VqaProblem::initial_point(problem, cfg.seed);
    let tasks = vqa::VqaProblem::tasks(problem);
    let mut now = SimTime::ZERO;
    let mut history = Vec::new();
    for epoch in 1..=cfg.epochs {
        let mut idx = 0usize;
        while idx < tasks.len() {
            let param = tasks[idx].param;
            let mut grad = 0.0;
            while idx < tasks.len() && tasks[idx].param == param {
                let r = client.run_task(problem, tasks[idx], &theta, cfg.shots, now);
                now = r.completed;
                grad += r.gradient;
                idx += 1;
            }
            theta[param.index()] -= cfg.learning_rate * grad;
        }
        history.push((epoch, now.as_hours(), problem.ideal_loss(&theta)));
    }
    (theta, history)
}

#[test]
fn sequential_on_ideal_matches_reference_single_device_sgd() {
    // Compare the SequentialExecutor against an independent
    // re-implementation of the historical single-device trainer's loop,
    // on the same ideal backend stream — not against itself.
    let problem = VqeProblem::heisenberg_4q();
    let cfg = EqcConfig::paper_vqe().with_epochs(4).with_shots(256);

    let client = ClientNode::new(
        0,
        ideal_backend(vqa::VqaProblem::num_qubits(&problem), cfg.seed ^ 0x5eed),
        &problem,
    )
    .expect("ideal fits");
    let (ref_params, ref_history) = reference_single_device_sgd(&problem, client, cfg);

    let new = Ensemble::builder()
        .backend(ideal_backend(
            vqa::VqaProblem::num_qubits(&problem),
            cfg.seed ^ 0x5eed,
        ))
        .config(cfg)
        .build()
        .expect("builds")
        .train_with(&SequentialExecutor::new(), &problem)
        .expect("trains");

    assert_eq!(new.final_params, ref_params, "identical final parameters");
    assert_eq!(new.trainer, "ideal");
    let new_history: Vec<(usize, f64, f64)> = new
        .history
        .iter()
        .map(|h| (h.epoch, h.virtual_hours, h.ideal_loss))
        .collect();
    assert_eq!(new_history, ref_history, "identical loss trajectory");
}

#[test]
fn executors_are_interchangeable_behind_the_trait() {
    // The extension point: training code written against `dyn Executor`
    // works with every substrate.
    let problem = QaoaProblem::maxcut_ring4();
    let executors: Vec<Box<dyn Executor>> = vec![
        Box::new(DiscreteEventExecutor::new()),
        Box::new(PooledExecutor::new()),
        Box::new(SequentialExecutor::new()),
    ];
    let ensemble = qaoa_ensemble(&["belem", "manila"], 3);
    for executor in &executors {
        let report = ensemble
            .train_with(executor.as_ref(), &problem)
            .expect("every substrate trains");
        assert_eq!(report.epochs, 3);
        assert_eq!(report.clients.len(), 2);
    }
}

#[test]
fn pooled_deterministic_is_byte_identical_to_discrete_event_on_the_figure_fleet() {
    // The fig-harness workload: the paper's 8-device QAOA fleet (queue
    // spreads from seconds to minutes, Casablanca's drift episode
    // included) with the weighting system on — the densest exercise of
    // the master loop. The pool must replay the DES report exactly,
    // byte for byte.
    let problem = QaoaProblem::maxcut_ring4();
    let names: Vec<String> = qdevice::catalog::qaoa_devices()
        .iter()
        .map(|d| d.name.clone())
        .collect();
    let ensemble = Ensemble::builder()
        .devices(names.iter().map(String::as_str))
        .device_seed(0xF1612)
        .config(
            EqcConfig::paper_qaoa()
                .with_epochs(6)
                .with_shots(512)
                .with_weights(WeightBounds::new(0.5, 1.5).expect("valid band")),
        )
        .build()
        .expect("fleet builds");

    let des = ensemble.train(&problem).expect("DES trains");
    for workers in [1usize, 4] {
        let pooled = ensemble
            .train_with(&PooledExecutor::new().workers(workers), &problem)
            .expect("pooled trains");
        assert_eq!(des, pooled, "structurally identical at {workers} workers");
        assert_eq!(
            format!("{des:?}"),
            format!("{pooled:?}"),
            "byte-identical debug serialization at {workers} workers"
        );
    }
}

#[test]
fn pooled_trains_a_256_client_fleet_with_a_bounded_worker_count() {
    // Where a thread per client would mean 256 OS threads, the pool
    // spawns at most `available_parallelism` workers — and still
    // produces the exact deterministic report.
    let base: Vec<qdevice::DeviceSpec> = ["belem", "manila", "bogota", "quito", "lima"]
        .iter()
        .map(|n| qdevice::catalog::by_name(n).expect("catalog device"))
        .collect();
    let n = 256;
    let ensemble = Ensemble::builder()
        .specs(qdevice::catalog::fleet(&base, n, 0xF1EE7))
        .device_seed(11)
        .config(EqcConfig::paper_qaoa().with_epochs(1).with_shots(32))
        .build()
        .expect("fleet builds");
    let problem = QaoaProblem::maxcut_ring4();

    let pooled_exec = PooledExecutor::new();
    let pooled = ensemble
        .train_with(&pooled_exec, &problem)
        .expect("pooled trains");
    let telemetry = pooled_exec.telemetry().expect("ran");
    let cap = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4);
    assert!(
        telemetry.workers_spawned <= cap,
        "{} workers exceed the machine's parallelism {cap}",
        telemetry.workers_spawned
    );
    assert!(
        telemetry.workers_spawned < n,
        "pool must not scale threads with clients"
    );
    assert_eq!(pooled.clients.len(), n, "every fleet member reports");
    assert_eq!(pooled.epochs, 1);

    let des = ensemble.train(&problem).expect("DES trains");
    assert_eq!(
        format!("{des:?}"),
        format!("{pooled:?}"),
        "byte-identical at fleet scale"
    );
}

#[test]
fn pooled_executor_returns_all_clients_on_error() {
    // The pool keeps clients behind mutexes, so even the client whose
    // task panicked is recovered — an errored session keeps its fleet.
    let qaoa = QaoaProblem::maxcut_ring4();
    let vqe = VqeProblem::heisenberg_4q();
    let cfg = EqcConfig::paper_qaoa().with_epochs(2).with_shots(64);

    let good = ClientNode::new(
        0,
        qdevice::catalog::by_name("belem")
            .expect("catalog")
            .backend(1),
        &qaoa,
    )
    .expect("transpiles");
    let bad = ClientNode::new(
        1,
        qdevice::catalog::by_name("manila")
            .expect("catalog")
            .backend(2),
        &vqe,
    )
    .expect("transpiles");

    let mut session = EnsembleSession::from_clients(&qaoa, cfg, vec![good, bad]).expect("builds");
    let err = PooledExecutor::new()
        .workers(2)
        .run(&mut session)
        .unwrap_err();
    assert!(matches!(err, EqcError::Internal(_)), "{err:?}");
    assert_eq!(
        session.num_clients(),
        2,
        "every client recovered, panicked one included"
    );
}
