//! Baseline behavior of the session API, ported from the deleted
//! pre-0.2 trainer shims' equivalence tests (`EqcTrainer`,
//! `SingleDeviceTrainer`, `SyncEnsembleTrainer`, `train_ideal`,
//! `train_threaded`): convergence of every entry point, the
//! ensemble-vs-single speedups the paper reports, weighting traces,
//! gather semantics, staleness tracking and typed-error rejection —
//! all through `Ensemble` / `EnsembleSession` directly.

use eqc_core::{
    ClientNode, Ensemble, EnsembleSession, EqcConfig, EqcError, Executor, PooledExecutor,
    SequentialExecutor, WeightBounds,
};
use qdevice::{catalog, DriftModel, QpuBackend, QueueModel};
use vqa::{QaoaProblem, VqaProblem, VqeProblem};

/// Low-noise catalog backends, as the pre-0.2 test suite used.
fn quiet_backend(name: &str, seed: u64) -> QpuBackend {
    let spec = catalog::by_name(name).unwrap();
    let mut cal = spec.calibration();
    cal.degrade(0.05, 1.0);
    QpuBackend::new(
        &spec.name,
        spec.topology(),
        cal,
        DriftModel::none(),
        QueueModel::light(2.0),
        24.0,
        seed,
    )
}

fn quiet_ensemble(names: &[&str], config: EqcConfig) -> Ensemble {
    let mut b = Ensemble::builder().config(config);
    for (i, name) in names.iter().enumerate() {
        b = b.backend(quiet_backend(name, 100 + i as u64));
    }
    b.build().expect("valid ensemble")
}

fn quiet_clients(problem: &dyn VqaProblem, names: &[&str]) -> Vec<ClientNode> {
    names
        .iter()
        .enumerate()
        .map(|(i, n)| ClientNode::new(i, quiet_backend(n, 100 + i as u64), problem).unwrap())
        .collect()
}

#[test]
fn ideal_baseline_converges_on_qaoa() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(40).with_shots(4096);
    let report = Ensemble::builder()
        .ideal_device()
        .device_seed(cfg.seed)
        .config(cfg)
        .build()
        .unwrap()
        .train_with(&SequentialExecutor::new(), &problem)
        .unwrap();
    assert_eq!(report.epochs, 40);
    assert_eq!(report.trainer, "ideal");
    // p=1 optimum is -0.75; expect to get near it.
    assert!(
        report.converged_loss(5) < -0.65,
        "converged {}",
        report.converged_loss(5)
    );
    assert!(report.history.last().unwrap().ideal_loss < report.history[0].ideal_loss);
}

#[test]
fn eqc_trains_qaoa_across_ensemble() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(30).with_shots(2048);
    let report = quiet_ensemble(&["belem", "manila", "bogota"], cfg)
        .train(&problem)
        .unwrap();
    assert_eq!(report.epochs, 30);
    assert!(
        report.converged_loss(5) < -0.6,
        "converged {}",
        report.converged_loss(5)
    );
    for c in &report.clients {
        assert!(c.tasks_completed > 0, "{} idle", c.device);
    }
    assert!(report.total_hours > 0.0);
}

#[test]
fn from_clients_matches_the_builder_path() {
    // `EnsembleSession::from_clients` (the hand-built-client entry the
    // shims delegated through) must be a delegate of the same core, not
    // a parallel implementation: identical inputs, identical reports.
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(6).with_shots(256);

    let mut session =
        EnsembleSession::from_clients(&problem, cfg, quiet_clients(&problem, &["belem", "manila"]))
            .unwrap();
    let via_session = eqc_core::DiscreteEventExecutor::new()
        .run(&mut session)
        .unwrap();
    let via_builder = quiet_ensemble(&["belem", "manila"], cfg)
        .train(&problem)
        .unwrap();
    assert_eq!(via_session.final_params, via_builder.final_params);
    assert_eq!(via_session.history, via_builder.history);

    let mut single =
        EnsembleSession::from_clients(&problem, cfg, quiet_clients(&problem, &["belem"])).unwrap();
    let single_session = SequentialExecutor::new().run(&mut single).unwrap();
    let single_builder = quiet_ensemble(&["belem"], cfg)
        .train_with(&SequentialExecutor::new(), &problem)
        .unwrap();
    assert_eq!(single_session.final_params, single_builder.final_params);
    assert_eq!(single_session.history, single_builder.history);
}

#[test]
fn invalid_input_is_rejected_without_panicking() {
    let problem = QaoaProblem::maxcut_ring4();
    let bad = EqcConfig::paper_qaoa().with_epochs(0);
    assert!(matches!(
        EnsembleSession::from_clients(&problem, bad, quiet_clients(&problem, &["belem"])),
        Err(EqcError::InvalidConfig(_))
    ));
    let cfg = EqcConfig::paper_qaoa().with_epochs(2).with_shots(64);
    assert!(matches!(
        EnsembleSession::from_clients(&problem, cfg, Vec::new()),
        Err(EqcError::EmptyEnsemble)
    ));
}

#[test]
fn eqc_faster_than_single_device() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(8).with_shots(512);
    let ensemble = quiet_ensemble(&["belem", "manila", "bogota", "quito"], cfg)
        .train(&problem)
        .unwrap();
    let single = quiet_ensemble(&["belem"], cfg)
        .train_with(&SequentialExecutor::new(), &problem)
        .unwrap();
    assert!(
        ensemble.epochs_per_hour() > 1.5 * single.epochs_per_hour(),
        "ensemble {:.2} vs single {:.2} epochs/h",
        ensemble.epochs_per_hour(),
        single.epochs_per_hour()
    );
}

#[test]
fn weighted_run_produces_traces_in_band() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa()
        .with_epochs(6)
        .with_shots(512)
        .with_weights(WeightBounds::new(0.5, 1.5).unwrap());
    let report = quiet_ensemble(&["belem", "x2", "bogota"], cfg)
        .train(&problem)
        .unwrap();
    assert!(!report.weight_trace.is_empty());
    for sample in &report.weight_trace {
        for &w in &sample.weights {
            assert!((0.5..=1.5).contains(&w), "weight {w} out of band");
        }
    }
}

#[test]
fn vqe_gather_semantics_update_counts() {
    // VQE: 16 params x 3 groups; 2 epochs = 32 parameter updates from
    // 96 slice tasks.
    let problem = VqeProblem::heisenberg_4q();
    let cfg = EqcConfig::paper_vqe().with_epochs(2).with_shots(128);
    let report = quiet_ensemble(&["belem", "manila"], cfg)
        .train(&problem)
        .unwrap();
    assert_eq!(report.epochs, 2);
    assert_eq!(report.updates_applied, 32);
    let total_tasks: u64 = report.clients.iter().map(|c| c.tasks_completed).sum();
    assert!(total_tasks >= 96, "only {total_tasks} tasks ran");
}

#[test]
fn staleness_is_tracked() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(10).with_shots(256);
    let report = quiet_ensemble(&["belem", "manila", "bogota", "quito"], cfg)
        .train(&problem)
        .unwrap();
    // With 4 async clients over 2 parameters, some updates must land
    // on parameters moved since dispatch.
    assert!(
        report.max_staleness >= 1,
        "staleness {}",
        report.max_staleness
    );
}

#[test]
fn sync_ensemble_converges_without_staleness() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(20).with_shots(1024);
    let report = quiet_ensemble(&["belem", "manila", "bogota"], cfg)
        .train_with(&SequentialExecutor::new(), &problem)
        .unwrap();
    assert_eq!(report.epochs, 20);
    assert_eq!(report.max_staleness, 0);
    assert!(
        report.converged_loss(5) < -0.55,
        "{}",
        report.converged_loss(5)
    );
}

#[test]
fn async_beats_sync_on_heterogeneous_fleet() {
    // With a slow straggler in the ensemble, the async executor should
    // deliver clearly more epochs/hour than barrier-synchronized SGD.
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(8).with_shots(512);
    let mk = || {
        let spec = catalog::by_name("quito").unwrap();
        let slow = QpuBackend::new(
            "slowpoke",
            spec.topology(),
            spec.calibration(),
            DriftModel::none(),
            QueueModel::congested(400.0, 0.1, 0.0),
            24.0,
            9,
        );
        let mut b = Ensemble::builder().config(cfg);
        for (i, name) in ["belem", "manila", "bogota"].iter().enumerate() {
            b = b.backend(quiet_backend(name, 100 + i as u64));
        }
        b.backend(slow).build().expect("valid ensemble")
    };
    let sync = mk()
        .train_with(&SequentialExecutor::new(), &problem)
        .unwrap();
    let asyn = mk().train(&problem).unwrap();
    assert!(
        asyn.epochs_per_hour() > 1.5 * sync.epochs_per_hour(),
        "async {:.2} vs sync {:.2}",
        asyn.epochs_per_hour(),
        sync.epochs_per_hour()
    );
}

#[test]
fn single_device_history_is_monotone_in_time() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(5).with_shots(256);
    let report = quiet_ensemble(&["manila"], cfg)
        .train_with(&SequentialExecutor::new(), &problem)
        .unwrap();
    for w in report.history.windows(2) {
        assert!(w[1].virtual_hours > w[0].virtual_hours);
    }
}

#[test]
fn pooled_eqc_converges() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(25).with_shots(1024);
    let mut b = Ensemble::builder().config(cfg);
    for (i, name) in ["belem", "manila", "bogota"].iter().enumerate() {
        let spec = catalog::by_name(name).unwrap();
        let mut cal = spec.calibration();
        cal.degrade(0.05, 1.0);
        b = b.backend(QpuBackend::new(
            &spec.name,
            spec.topology(),
            cal,
            DriftModel::none(),
            QueueModel::light(1.0),
            24.0,
            200 + i as u64,
        ));
    }
    let report = b
        .build()
        .unwrap()
        .train_with(&PooledExecutor::new().workers(2), &problem)
        .unwrap();
    assert_eq!(report.epochs, 25);
    assert!(
        report.converged_loss(5) < -0.55,
        "converged {}",
        report.converged_loss(5)
    );
    let total: u64 = report.clients.iter().map(|c| c.tasks_completed).sum();
    assert!(total >= 50, "tasks {total}");
}

#[test]
fn pooled_all_clients_participate_and_weights_trace() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa()
        .with_epochs(6)
        .with_shots(256)
        .with_weights(WeightBounds::new(0.5, 1.5).unwrap());
    let report = quiet_ensemble(&["belem", "x2", "bogota", "quito"], cfg)
        .train_with(&PooledExecutor::new().workers(2), &problem)
        .unwrap();
    for c in &report.clients {
        assert!(c.tasks_completed > 0, "{} never ran", c.device);
    }
    assert!(!report.weight_trace.is_empty());
}
