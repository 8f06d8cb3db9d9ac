//! End-to-end integration: problem -> transpile -> simulated devices ->
//! EQC training through the `Ensemble` session API, spanning every crate
//! in the workspace.

use eqc::prelude::*;

fn ensemble(names: &[&str], seed: u64, cfg: EqcConfig) -> Ensemble {
    Ensemble::builder()
        .devices(names.iter().copied())
        .device_seed(seed)
        .config(cfg)
        .build()
        .expect("catalog devices resolve")
}

#[test]
fn qaoa_end_to_end_on_ensemble() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(25).with_shots(2048);
    let report = ensemble(&["belem", "manila", "bogota"], 3, cfg)
        .train(&problem)
        .expect("trains");
    assert_eq!(report.epochs, 25);
    // Real noisy devices: should still clearly beat random parameters.
    let start = report
        .history
        .first()
        .expect("history populated")
        .ideal_loss;
    assert!(
        report.converged_loss(5) < start - 0.1,
        "no learning: start {start}, converged {}",
        report.converged_loss(5)
    );
    assert!(report.total_hours > 0.0);
}

#[test]
fn vqe_end_to_end_single_vs_ensemble_speed() {
    let problem = VqeProblem::heisenberg_4q();
    let cfg = EqcConfig::paper_vqe().with_epochs(3).with_shots(512);
    let single = ensemble(&["bogota"], 11, cfg)
        .train_with(&SequentialExecutor::new(), &problem)
        .expect("trains");
    let eqc = ensemble(&["lima", "belem", "quito", "manila", "bogota"], 11, cfg)
        .train(&problem)
        .expect("trains");
    assert!(
        eqc.epochs_per_hour() > 2.0 * single.epochs_per_hour(),
        "ensemble {:.1} vs single {:.1}",
        eqc.epochs_per_hour(),
        single.epochs_per_hour()
    );
}

#[test]
fn qnn_end_to_end_data_parallel() {
    let problem = QnnProblem::synthetic(4, 21);
    let cfg = EqcConfig::paper_qaoa()
        .with_epochs(8)
        .with_shots(1024)
        .with_learning_rate(0.5);
    let report = ensemble(&["belem", "manila"], 5, cfg)
        .train(&problem)
        .expect("trains");
    assert_eq!(report.epochs, 8);
    let start = report.history.first().expect("history").ideal_loss;
    let end = report.final_loss;
    assert!(
        end <= start + 0.02,
        "QNN loss should not increase: {start} -> {end}"
    );
}

#[test]
fn deterministic_given_seeds() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(4).with_shots(256);
    let a = ensemble(&["belem", "x2"], 9, cfg)
        .train(&problem)
        .expect("trains");
    let b = ensemble(&["belem", "x2"], 9, cfg)
        .train(&problem)
        .expect("trains");
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(&b.history) {
        assert_eq!(x.virtual_hours, y.virtual_hours);
        assert_eq!(x.ideal_loss, y.ideal_loss);
    }
}

// "Threaded" is the two-worker pool: the multi-threaded substrate next
// to the single-threaded discrete-event one.
#[test]
fn threaded_and_des_executors_both_learn() {
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(15).with_shots(1024);
    let des = ensemble(&["belem", "manila"], 2, cfg)
        .train(&problem)
        .expect("trains");
    let pooled = ensemble(&["belem", "manila"], 2, cfg)
        .train_with(&PooledExecutor::new().workers(2), &problem)
        .expect("trains");
    for (label, r) in [("des", &des), ("pooled", &pooled)] {
        assert!(
            r.converged_loss(4) < -0.4,
            "{label} failed to learn: {}",
            r.converged_loss(4)
        );
    }
}

#[test]
fn time_cap_terminates_early() {
    let problem = VqeProblem::heisenberg_4q();
    let cfg = EqcConfig::paper_vqe()
        .with_epochs(50)
        .with_shots(256)
        .with_time_cap_hours(2.0);
    let report = ensemble(&["santiago"], 4, cfg)
        .train_with(&SequentialExecutor::new(), &problem)
        .expect("trains");
    assert!(
        report.epochs < 50,
        "santiago cannot finish 50 epochs in 2 h"
    );
}

#[test]
fn multiprogrammed_slots_join_the_ensemble() {
    // Paper Section VII: co-resident programs on a big device train
    // alongside ordinary devices in one EQC ensemble.
    use qdevice::multiprog::{split, MultiprogramConfig};
    let problem = VqeProblem::heisenberg_4q();
    let mut builder = Ensemble::builder()
        .device("belem")
        .device("manila")
        .device_seed(80)
        .config(EqcConfig::paper_vqe().with_epochs(2).with_shots(512));
    let spec = catalog::by_name("toronto").expect("catalog device");
    let slots = split(&spec, &MultiprogramConfig::default(), 0xCAFE);
    assert!(slots.len() >= 2);
    let mut n_clients = 2;
    for s in slots {
        builder = builder.backend(s.backend);
        n_clients += 1;
    }
    let report = builder
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    assert_eq!(report.epochs, 2);
    assert_eq!(report.clients.len(), n_clients);
    // The co-resident slots actually contributed work.
    let slot_tasks: u64 = report
        .clients
        .iter()
        .filter(|c| c.device.contains("/mp"))
        .map(|c| c.tasks_completed)
        .sum();
    assert!(slot_tasks > 0, "multiprogrammed slots never ran");
}

#[test]
fn weighted_training_tracks_device_quality() {
    let problem = VqeProblem::heisenberg_4q();
    let cfg = EqcConfig::paper_vqe()
        .with_epochs(3)
        .with_shots(512)
        .with_weights(WeightBounds::new(0.5, 1.5).expect("valid band"));
    let report = ensemble(&["x2", "bogota", "manila"], 6, cfg)
        .train(&problem)
        .expect("trains");
    let x2 = report
        .clients
        .iter()
        .find(|c| c.device == "x2")
        .expect("x2 present");
    let bogota = report
        .clients
        .iter()
        .find(|c| c.device == "bogota")
        .expect("bogota present");
    // The noisiest device must carry a lower mean P_correct.
    assert!(
        x2.mean_p_correct < bogota.mean_p_correct,
        "x2 {} vs bogota {}",
        x2.mean_p_correct,
        bogota.mean_p_correct
    );
}
