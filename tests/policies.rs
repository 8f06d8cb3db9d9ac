//! The policy layer end to end: the default stack is byte-identical to
//! the pre-policy master loop on every deterministic substrate, and
//! each non-default policy (EquiEnsemble, StalenessDecay, LeastLoaded,
//! DriftEviction) changes training in exactly the way it advertises.

use eqc::prelude::*;
// The flaky-device fixture (reported calibration swinging between
// 1.8-second recalibration cycles) is shared with the `fig_policies`
// harness and the `policy_stacks` example.
use eqc_bench::flaky_backend;

fn qaoa_ensemble(names: &[&str], epochs: usize) -> EnsembleBuilder {
    Ensemble::builder()
        .devices(names.iter().copied())
        .device_seed(7)
        .config(
            EqcConfig::paper_qaoa()
                .with_epochs(epochs)
                .with_shots(256)
                .with_weights(WeightBounds::new(0.5, 1.5).expect("valid band")),
        )
}

#[test]
fn explicit_default_stack_is_byte_identical_on_deterministic_executors() {
    // The refactor oracle: spelling out Cyclic + FidelityWeighted +
    // AlwaysHealthy must reproduce the implicit default — which carries
    // the pre-policy master loop's behavior — byte for byte, on every
    // substrate with a deterministic report.
    let problem = QaoaProblem::maxcut_ring4();
    let implicit = qaoa_ensemble(&["belem", "manila", "bogota"], 6)
        .build()
        .expect("builds");
    let explicit = qaoa_ensemble(&["belem", "manila", "bogota"], 6)
        .policies(PolicyConfig::default())
        .scheduler(Cyclic)
        .weighting(FidelityWeighted)
        .health(AlwaysHealthy)
        .build()
        .expect("builds");

    let executors: Vec<(&str, Box<dyn Executor>)> = vec![
        ("discrete-event", Box::new(DiscreteEventExecutor::new())),
        ("pooled", Box::new(PooledExecutor::new())),
        ("sequential", Box::new(SequentialExecutor::new())),
    ];
    for (name, executor) in &executors {
        let a = implicit
            .train_with(executor.as_ref(), &problem)
            .expect("implicit trains");
        let b = explicit
            .train_with(executor.as_ref(), &problem)
            .expect("explicit trains");
        assert_eq!(a, b, "{name}: explicit default stack must be a no-op");
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{name}: byte-identical debug serialization"
        );
    }
}

#[test]
fn default_policy_telemetry_is_recorded() {
    let problem = QaoaProblem::maxcut_ring4();
    let report = qaoa_ensemble(&["belem", "manila"], 3)
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    assert_eq!(report.policy.scheduler, "cyclic");
    assert_eq!(report.policy.weighting, "fidelity");
    assert_eq!(report.policy.health, "always-healthy");
    assert_eq!(report.policy.evictions, 0);
    assert_eq!(report.policy.readmissions, 0);
    assert!(report.policy.eviction_log.is_empty());
    assert_eq!(report.policy.weight_provenance.len(), 2);
    for (i, p) in report.policy.weight_provenance.iter().enumerate() {
        assert_eq!(p.client, i);
        assert_eq!(p.policy, "fidelity");
        assert!(p.samples > 0, "client {i} absorbed no results");
        assert!(
            (0.5..=1.5).contains(&p.min_weight) && (0.5..=1.5).contains(&p.max_weight),
            "weights out of the configured band: [{}, {}]",
            p.min_weight,
            p.max_weight
        );
    }
}

#[test]
fn equi_ensemble_neutralizes_the_weight_band() {
    // Uniform weighting with a band configured must train exactly like
    // fidelity weighting with no band: both apply w = 1 everywhere.
    let problem = QaoaProblem::maxcut_ring4();
    let unweighted_cfg = EqcConfig::paper_qaoa().with_epochs(5).with_shots(256);
    let fidelity_no_band = Ensemble::builder()
        .devices(["belem", "x2", "bogota"])
        .device_seed(7)
        .config(unweighted_cfg)
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    let equi_with_band = qaoa_ensemble(&["belem", "x2", "bogota"], 5)
        .weighting(EquiEnsemble)
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");

    assert_eq!(equi_with_band.policy.weighting, "equi-ensemble");
    assert_eq!(equi_with_band.final_params, fidelity_no_band.final_params);
    assert_eq!(equi_with_band.update_log, fidelity_no_band.update_log);
    assert!(equi_with_band.weight_trace.is_empty());
    for c in &equi_with_band.clients {
        assert_eq!(c.mean_weight, 1.0, "{} not uniform", c.device);
    }
}

#[test]
fn staleness_decay_attenuates_delayed_updates() {
    let problem = QaoaProblem::maxcut_ring4();
    let decayed = qaoa_ensemble(&["belem", "manila", "bogota", "quito"], 8)
        .weighting(StalenessDecay::new(0.5).expect("valid decay"))
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    assert_eq!(decayed.policy.weighting, "staleness-decay");
    assert_eq!(decayed.epochs, 8);
    // Four async clients over two parameters guarantee stale results,
    // and every stale result must have been attenuated below 1.
    assert!(decayed.max_staleness >= 1);
    let min_weight = decayed
        .policy
        .weight_provenance
        .iter()
        .map(|p| p.min_weight)
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_weight < 1.0,
        "staleness decay never attenuated anything (min weight {min_weight})"
    );
    let max_weight = decayed
        .policy
        .weight_provenance
        .iter()
        .map(|p| p.max_weight)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max_weight <= 1.0,
        "decay can only attenuate, got {max_weight}"
    );

    // And it changes the trajectory relative to the default stack.
    let default = qaoa_ensemble(&["belem", "manila", "bogota", "quito"], 8)
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    assert_ne!(decayed.final_params, default.final_params);
}

#[test]
fn least_loaded_scheduler_is_deterministic_and_changes_the_assignment() {
    // One congested device in an otherwise quiet fleet: at prime time
    // the least-loaded scheduler hands the first task to a quiet device
    // instead of client 0, so the task-to-client mapping — and hence
    // the whole deterministic trajectory — shifts.
    let problem = QaoaProblem::maxcut_ring4();
    let build = |least_loaded: bool| {
        let spec = catalog::by_name("quito").expect("catalog");
        let congested = QpuBackend::new(
            "congested",
            spec.topology(),
            spec.calibration(),
            qdevice::DriftModel::none(),
            qdevice::QueueModel::congested(600.0, 0.2, 0.0),
            24.0,
            5,
        );
        let mut b = Ensemble::builder()
            .backend(congested)
            .device("belem")
            .device("manila")
            .config(EqcConfig::paper_qaoa().with_epochs(4).with_shots(128));
        if least_loaded {
            b = b.scheduler(LeastLoaded);
        }
        b.build().expect("builds")
    };
    let cyclic = build(false).train(&problem).expect("trains");
    let least = build(true).train(&problem).expect("trains");
    let least_again = build(true).train(&problem).expect("trains");
    assert_eq!(least, least_again, "least-loaded must stay deterministic");
    assert_eq!(least.policy.scheduler, "least-loaded");
    assert_ne!(
        cyclic.update_log, least.update_log,
        "scheduling policy must be observable in the trajectory"
    );
}

#[test]
fn composed_weighting_band_rescale_times_decay() {
    // The composed cell: weights must sit inside band * decay — never
    // above the fidelity band alone — and the trajectory must differ
    // from both parts on a fleet with staleness and quality spread.
    let problem = QaoaProblem::maxcut_ring4();
    let names = ["belem", "x2", "bogota", "quito"];
    let composed = qaoa_ensemble(&names, 8)
        .weighting(Composed(
            FidelityWeighted,
            StalenessDecay::new(0.5).expect("valid"),
        ))
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    assert_eq!(composed.policy.weighting, "fidelity*staleness-decay");
    assert_eq!(composed.epochs, 8);
    for p in &composed.policy.weight_provenance {
        assert_eq!(p.policy, "fidelity*staleness-decay");
        assert!(
            p.max_weight <= 1.5 + 1e-12,
            "composition can only attenuate the band: {}",
            p.max_weight
        );
    }
    // Staleness existed, so some weight fell below the band floor the
    // pure fidelity policy could never leave.
    assert!(composed.max_staleness >= 1);
    let min_weight = composed
        .policy
        .weight_provenance
        .iter()
        .map(|p| p.min_weight)
        .fold(f64::INFINITY, f64::min);
    assert!(
        min_weight < 0.5,
        "decay should push below the band floor somewhere, got {min_weight}"
    );
    // The band trace still records the fidelity component, in band.
    assert!(!composed.weight_trace.is_empty());
    for sample in &composed.weight_trace {
        for &w in &sample.weights {
            assert!((0.5..=1.5).contains(&w), "trace weight {w} out of band");
        }
    }
    // And it is a genuinely new cell: different from both parts.
    let fidelity = qaoa_ensemble(&names, 8)
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    let decay = qaoa_ensemble(&names, 8)
        .weighting(StalenessDecay::new(0.5).expect("valid"))
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    assert_ne!(composed.final_params, fidelity.final_params);
    assert_ne!(composed.final_params, decay.final_params);
}

#[test]
fn lookahead_scheduler_routes_around_an_upcoming_peak() {
    // A device that is the cheapest queue *right now* but sits just
    // before a steep congestion ramp (short-period cycle, deep
    // amplitude): the instantaneous LeastLoaded primes it first, while
    // the lookahead variant — forecasting at now + expected job latency
    // — sees the 30-minute-ahead wait explode and primes the stable
    // devices first. Deterministically.
    let problem = QaoaProblem::maxcut_ring4();
    let horizon_s = 1800.0;
    let build = |lookahead: bool| {
        let spec = catalog::by_name("quito").expect("catalog");
        // Wait ~2 s at t=0 (cheapest in the fleet), ~117 s half an hour
        // later: a 2-hour congestion cycle crossing its trough now.
        let trap = QpuBackend::new(
            "trap",
            spec.topology(),
            spec.calibration(),
            qdevice::DriftModel::none(),
            qdevice::QueueModel {
                overhead_s: 1.0,
                mean_wait_s: 30.0,
                diurnal_amplitude: 3.0,
                phase_hours: 1.65,
                period_hours: 2.0,
                reset_time_us: 250.0,
            },
            24.0,
            5,
        );
        let mut b = Ensemble::builder()
            .backend(trap)
            .device("belem")
            .device("manila")
            .device_seed(7)
            .config(EqcConfig::paper_qaoa().with_epochs(4).with_shots(128));
        b = if lookahead {
            b.scheduler(LookaheadLeastLoaded::new(horizon_s).expect("valid horizon"))
        } else {
            b.scheduler(LeastLoaded)
        };
        b.build().expect("builds")
    };
    let instant = build(false).train(&problem).expect("trains");
    let ahead = build(true).train(&problem).expect("trains");
    let ahead_again = build(true).train(&problem).expect("trains");
    assert_eq!(ahead, ahead_again, "lookahead must stay deterministic");
    assert_eq!(ahead.policy.scheduler, "lookahead-least-loaded");
    assert_eq!(instant.policy.scheduler, "least-loaded");
    assert_ne!(
        instant.update_log, ahead.update_log,
        "the forecast must change the assignment"
    );
}

#[test]
fn drift_eviction_benches_and_readmits_the_flaky_device() {
    let problem = QaoaProblem::maxcut_ring4();
    let build = || {
        Ensemble::builder()
            .device("belem")
            .device("manila")
            .backend(flaky_backend(42))
            .device_seed(7)
            .config(EqcConfig::paper_qaoa().with_epochs(12).with_shots(128))
            .health(DriftEviction::default())
            .build()
            .expect("builds")
    };
    let report = build().train(&problem).expect("trains");
    assert_eq!(report.policy.health, "drift-eviction");
    assert_eq!(report.epochs, 12, "training must survive evictions");
    assert!(
        report.policy.evictions >= 1,
        "flaky device never evicted: {:?}",
        report.policy
    );
    assert!(
        report.policy.readmissions >= 1,
        "flaky device never recalibrated back in: {:?}",
        report.policy
    );
    // The log interleaves: a client must be evicted before it can
    // rejoin, and every event names the flaky client (id 2).
    let mut benched = false;
    for ev in &report.policy.eviction_log {
        assert_eq!(ev.client, 2, "only the flaky device should flap");
        match ev.change {
            MembershipChange::Evicted => {
                assert!(!benched, "double eviction without re-admission");
                benched = true;
            }
            MembershipChange::Readmitted => {
                assert!(benched, "re-admission without a prior eviction");
                benched = false;
            }
        }
    }
    // The evicted client's schedule share was rerouted, not dropped:
    // the full epoch budget completed and the healthy clients worked.
    assert_eq!(
        report.updates_applied,
        (12 * vqa::VqaProblem::num_params(&problem)) as u64
    );
    for c in &report.clients {
        assert!(c.tasks_completed > 0, "{} idle", c.device);
    }

    // The deterministic pool must replay the eviction decisions — and
    // therefore the whole report — byte for byte.
    let pooled = build()
        .train_with(&PooledExecutor::new().workers(2), &problem)
        .expect("pooled trains");
    let des = build().train(&problem).expect("DES trains");
    assert_eq!(
        format!("{des:?}"),
        format!("{pooled:?}"),
        "pool must replay evictions byte-identically"
    );

    // The sequential substrate honors eviction too.
    let sequential = build()
        .train_with(&SequentialExecutor::new(), &problem)
        .expect("sequential trains");
    assert_eq!(sequential.epochs, 12);
}

#[test]
fn drift_eviction_never_benches_the_last_active_client() {
    let problem = QaoaProblem::maxcut_ring4();
    let report = Ensemble::builder()
        .backend(flaky_backend(9))
        .config(EqcConfig::paper_qaoa().with_epochs(4).with_shots(128))
        .health(DriftEviction::default())
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    assert_eq!(report.epochs, 4);
    assert_eq!(
        report.policy.evictions, 0,
        "a single-device ensemble can never evict"
    );
}

#[test]
fn policy_session_api_works_from_clients() {
    // The shim-level session constructor accepts an explicit stack too.
    let problem = QaoaProblem::maxcut_ring4();
    let cfg = EqcConfig::paper_qaoa().with_epochs(2).with_shots(128);
    let clients: Vec<ClientNode> = ["belem", "manila"]
        .iter()
        .enumerate()
        .map(|(i, n)| {
            ClientNode::new(
                i,
                catalog::by_name(n).expect("catalog").backend(7 + i as u64),
                &problem,
            )
            .expect("transpiles")
        })
        .collect();
    let policies = PolicyConfig::default().with_weighting(EquiEnsemble);
    let mut session = EnsembleSession::from_clients_with_policies(&problem, cfg, policies, clients)
        .expect("builds");
    let report = DiscreteEventExecutor::new()
        .run(&mut session)
        .expect("trains");
    assert_eq!(report.policy.weighting, "equi-ensemble");
    assert_eq!(report.epochs, 2);
}
