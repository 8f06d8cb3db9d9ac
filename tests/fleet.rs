//! The multi-tenant fleet end to end: single-tenant runs replay the
//! standalone session API byte for byte on every deterministic
//! substrate, `Unshared` tenants are invariant to co-tenants, the
//! pooled fleet substrate replays the discrete-event fleet exactly,
//! and the arbiters split capacity the way they advertise.

use eqc::prelude::*;
use proptest::prelude::*;

fn cfg(epochs: usize) -> EqcConfig {
    EqcConfig::paper_qaoa()
        .with_epochs(epochs)
        .with_shots(256)
        .with_weights(WeightBounds::new(0.5, 1.5).expect("valid band"))
}

fn fleet_devices() -> Vec<&'static str> {
    vec!["belem", "manila", "bogota", "quito"]
}

fn builder() -> FleetBuilder {
    FleetRuntime::builder()
        .devices(fleet_devices())
        .device_seed(7)
}

fn standalone(config: EqcConfig) -> Ensemble {
    Ensemble::builder()
        .devices(fleet_devices())
        .device_seed(7)
        .config(config)
        .build()
        .expect("builds")
}

#[test]
fn single_tenant_fleet_equals_standalone_across_executors() {
    // The acceptance oracle: one tenant on the fleet must be
    // byte-identical to today's `Ensemble::train` — on the
    // discrete-event fleet substrate, the pooled fleet substrate, and
    // through both deterministic single-session executors (which are
    // now fleet-of-one wrappers themselves).
    let problem = QaoaProblem::maxcut_ring4();
    let config = cfg(5);
    let ensemble = standalone(config);
    let des = ensemble.train(&problem).expect("DES trains");
    let pooled_exec = PooledExecutor::new().workers(3);
    let pooled = ensemble
        .train_with(&pooled_exec, &problem)
        .expect("pooled trains");
    assert_eq!(
        format!("{des:?}"),
        format!("{pooled:?}"),
        "deterministic pool must stay byte-identical to DES"
    );

    for (name, fleet_builder) in [
        ("discrete-event fleet", builder()),
        ("pooled fleet", builder().pooled_workers(3)),
    ] {
        let mut fleet = fleet_builder.build().expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(config))
            .expect("admits");
        let outcome = fleet.run().expect("runs");
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(
            format!("{des:?}"),
            format!("{:?}", outcome.reports[0]),
            "{name}: single-tenant fleet must replay the standalone session byte for byte"
        );
        assert!(outcome.telemetry.tenants[0].results_absorbed > 0);
        assert!(outcome.telemetry.tenants[0].epochs_per_hour > 0.0);
    }
}

#[test]
fn unshared_tenant_reports_are_invariant_to_co_tenants() {
    // With capacity sharing disabled, a tenant's byte-exact trajectory
    // must not depend on who else is on the fleet.
    let problem = QaoaProblem::maxcut_ring4();
    let vqe = VqeProblem::heisenberg_4q();

    let solo = {
        let mut fleet = builder().arbiter(Unshared).build().expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(cfg(4)))
            .expect("admits");
        fleet.run().expect("runs").reports.remove(0)
    };

    let mut fleet = builder().arbiter(Unshared).build().expect("builds");
    let a = fleet
        .admit(&problem, TenantConfig::new(cfg(4)))
        .expect("admits");
    fleet
        .admit(&problem, TenantConfig::new(cfg(3).with_seed(11)))
        .expect("admits");
    fleet
        .admit(
            &vqe,
            TenantConfig::new(EqcConfig::paper_vqe().with_epochs(1).with_shots(64)),
        )
        .expect("admits a different problem");
    let outcome = fleet.run().expect("runs");
    assert_eq!(
        format!("{solo:?}"),
        format!("{:?}", outcome.report(a)),
        "co-tenants must not perturb an unshared tenant"
    );
    // Every tenant trained its own problem to its own budget.
    assert_eq!(outcome.reports[0].problem, outcome.reports[1].problem);
    assert_ne!(
        outcome.reports[0].final_params,
        outcome.reports[1].final_params
    );
    assert_eq!(outcome.reports[2].epochs, 1);
    assert_ne!(outcome.reports[2].problem, outcome.reports[0].problem);
}

#[test]
fn fleet_runs_replay_byte_identically_and_pooled_matches_des() {
    // A genuinely shared fleet (FairShare, more tenant demand than
    // devices) must still be deterministic: same tenants, same seeds,
    // same outcome — and the pooled substrate must replay the
    // discrete-event fleet exactly, telemetry included.
    let problem = QaoaProblem::maxcut_ring4();
    let run = |fleet_builder: FleetBuilder| {
        let mut fleet = fleet_builder.arbiter(FairShare).build().expect("builds");
        for t in 0..3u64 {
            fleet
                .admit(
                    &problem,
                    TenantConfig::new(cfg(3).with_seed(7 + t)).weight((t + 1) as f64),
                )
                .expect("admits");
        }
        fleet.run().expect("runs")
    };
    let des_a = run(builder());
    let des_b = run(builder());
    assert_eq!(des_a, des_b, "fleet replay must be deterministic");

    let pooled = run(builder().pooled_workers(2));
    assert_eq!(
        des_a.reports, pooled.reports,
        "pooled fleet reports replay DES"
    );
    assert_eq!(
        des_a.telemetry, pooled.telemetry,
        "pooled fleet telemetry (grants, waits, shares) replays DES"
    );
    assert!(pooled.pool.is_some(), "pooled runs carry pool telemetry");
    assert!(des_a.pool.is_none());
}

#[test]
fn pooled_tenants_of_mixed_widths_replay_des() {
    // H2 (two qubits) and QAOA ring-4 (four) tenants share the fleet,
    // so a pool worker's thread-local simulator runs both widths in
    // turn and forks into spare states the other width left. The
    // pooled run must still be the discrete-event run byte for byte.
    let qaoa = QaoaProblem::maxcut_ring4();
    let h2 = VqeProblem::h2();
    let run = |fleet_builder: FleetBuilder| {
        let mut fleet = fleet_builder.arbiter(FairShare).build().expect("builds");
        for t in 0..2u64 {
            fleet
                .admit(&qaoa, TenantConfig::new(cfg(3).with_seed(5 + t)))
                .expect("admits QAOA");
            fleet
                .admit(
                    &h2,
                    TenantConfig::new(
                        EqcConfig::paper_vqe()
                            .with_epochs(3)
                            .with_shots(128)
                            .with_seed(9 + t),
                    ),
                )
                .expect("admits H2");
        }
        fleet.run().expect("runs")
    };
    let des = run(builder());
    let pooled = run(builder().pooled_workers(2));
    assert_eq!(
        format!("{:?}", des.reports),
        format!("{:?}", pooled.reports),
        "pooled reports replay DES across widths"
    );
    assert_eq!(des.telemetry, pooled.telemetry);
    assert_ne!(des.reports[0].problem, des.reports[1].problem);
    assert!(des.reports.iter().all(|r| r.epochs == 3));
    assert_eq!(pooled.pool.expect("pooled telemetry").workers_spawned, 2);
}

#[test]
fn ideal_slots_of_mixed_widths_are_separate_devices() {
    // The ideal slot is sized per tenant: an H2 tenant gets a 2-qubit
    // ideal device, a QAOA ring-4 tenant a 4-qubit one. They are two
    // devices, not clones of one, so neither may read the other's noise
    // artifacts. Both tenants must train to the end on every substrate.
    // On the byte-isolated ones (`Unshared`, private ledgers) each report
    // is its standalone `Ensemble::train` over the same devices; on the
    // shared substrate the tenants contend for belem's ledger by design,
    // so there the oracle is a replay.
    let h2 = VqeProblem::h2();
    let qaoa = QaoaProblem::maxcut_ring4();
    let tenants: [(&dyn VqaProblem, EqcConfig); 2] = [
        (&h2, EqcConfig::paper_vqe().with_epochs(3).with_shots(128)),
        (&qaoa, cfg(3).with_seed(11)),
    ];
    let run = |fleet_builder: FleetBuilder| {
        let mut fleet = fleet_builder
            .ideal_device()
            .device("belem")
            .arbiter(Unshared)
            .build()
            .expect("builds");
        for (problem, config) in tenants {
            fleet
                .admit(problem, TenantConfig::new(config))
                .expect("admits");
        }
        fleet.run().expect("mixed-width ideal slots run")
    };
    let standalone: Vec<String> = tenants
        .iter()
        .map(|&(problem, config)| {
            let report = Ensemble::builder()
                .ideal_device()
                .device("belem")
                .config(config)
                .build()
                .expect("builds")
                .train(problem)
                .expect("trains");
            format!("{report:?}")
        })
        .collect();
    for (name, fleet_builder) in [
        ("discrete-event", FleetRuntime::builder()),
        ("pooled", FleetRuntime::builder().pooled_workers(2)),
    ] {
        let outcome = run(fleet_builder);
        let reports: Vec<String> = outcome.reports.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(reports, standalone, "{name} fleet vs standalone sessions");
    }
    let shared = run(FleetRuntime::builder().shared());
    for (report, (_, config)) in shared.reports.iter().zip(tenants) {
        assert_eq!(report.epochs, config.epochs);
    }
    assert_eq!(
        format!("{shared:?}"),
        format!("{:?}", run(FleetRuntime::builder().shared())),
        "the shared run replays"
    );
}

/// The distinct architecture caches behind `clients`, each once.
fn architectures(clients: &[ClientNode]) -> Vec<&qdevice::ArchitectureTemplates> {
    let mut distinct: Vec<&qdevice::ArchitectureTemplates> = Vec::new();
    for c in clients {
        let a = c.backend().architecture_templates();
        if !distinct.iter().any(|d| std::ptr::eq(*d, a)) {
            distinct.push(a);
        }
    }
    distinct
}

/// `(architectures, transpiles, device builds)` of a fresh session of
/// `problem` over `ensemble`'s devices.
fn session_transpiles(ensemble: &Ensemble, problem: &VqeProblem) -> (usize, u64, u64) {
    let mut session = ensemble.session(problem).expect("templates fit");
    let (clients, _) = session.split_mut();
    let templates = problem.templates().len() as u64;
    for c in clients.iter() {
        let cache = c.backend().device_template_cache();
        assert_eq!(
            (cache.builds(), cache.hits()),
            (templates, 0),
            "one build per (device, template) on {}",
            c.backend().name()
        );
    }
    let architectures = architectures(clients);
    let transpiles = architectures.iter().map(|a| a.transpiles()).sum();
    let builds = clients
        .iter()
        .map(|c| c.backend().device_template_cache().builds())
        .sum();
    (architectures.len(), transpiles, builds)
}

#[test]
fn devices_on_one_coupling_map_transpile_once_between_them() {
    // T-shape (belem, quito, lima), line (manila, bogota) and H-shape
    // (lagos, casablanca): three coupling maps over seven devices.
    let problem = VqeProblem::heisenberg_4q();
    let ensemble = Ensemble::builder()
        .devices([
            "belem",
            "manila",
            "lagos",
            "quito",
            "bogota",
            "casablanca",
            "lima",
        ])
        .device_seed(7)
        .config(cfg(1))
        .build()
        .expect("builds");
    let templates = problem.templates().len() as u64;
    assert_eq!(
        session_transpiles(&ensemble, &problem),
        (3, 3 * templates, 7 * templates),
        "(distinct maps x templates) transpiles, (devices x templates) builds"
    );
}

#[test]
fn a_wide_fleet_transpiles_per_coupling_map_not_per_device() {
    // 256 perturbed belem/quito/lima (T-shape) and manila/bogota (line)
    // devices: two coupling maps, three Heisenberg-4 templates.
    let problem = VqeProblem::heisenberg_4q();
    assert_eq!(problem.templates().len(), 3);
    let ensemble = Ensemble::builder()
        .specs(eqc_bench::fleet_specs(256))
        .device_seed(11)
        .config(cfg(1))
        .build()
        .expect("builds");
    assert_eq!(session_transpiles(&ensemble, &problem), (2, 6, 768));
}

#[test]
fn co_tenants_share_each_devices_templates() {
    // Three tenants on one problem: each device transpiles and plans
    // each template once, for the first tenant's clone, and hands the
    // same entry to the other two. Sharing must not show in any result:
    // on the byte-isolated substrates each report is its standalone
    // `Ensemble::train`; on the shared substrate the tenants contend
    // for the ledgers by design, so there the oracle is a replay.
    let problem = VqeProblem::h2();
    let configs = [7, 8, 9].map(|seed| {
        EqcConfig::paper_vqe()
            .with_epochs(3)
            .with_shots(128)
            .with_seed(seed)
    });
    // `.devices(fleet_devices()).device_seed(7)`, built fresh per run so
    // every run starts from empty caches.
    let devices = || -> Vec<QpuBackend> {
        fleet_devices()
            .into_iter()
            .zip(7..)
            .map(|(name, seed)| catalog::by_name(name).expect("catalog").backend(seed))
            .collect()
    };
    let run = |fleet_builder: FleetBuilder| {
        let devices = devices();
        let mut fleet = devices
            .iter()
            .fold(fleet_builder, |b, d| b.backend(d.clone()))
            .arbiter(Unshared)
            .build()
            .expect("builds");
        for config in configs {
            fleet
                .admit(&problem, TenantConfig::new(config))
                .expect("admits");
        }
        let outcome = fleet.run().expect("runs");
        let per_device = problem.templates().len() as u64;
        for d in &devices {
            let cache = d.device_template_cache();
            assert_eq!(
                (cache.builds(), cache.hits()),
                (per_device, 2 * per_device),
                "1 build and 2 hits per (device, template) on {}",
                d.name()
            );
        }
        outcome
    };
    let standalone: Vec<String> = configs
        .iter()
        .map(|&config| {
            let report = devices()
                .into_iter()
                .fold(Ensemble::builder(), |b, d| b.backend(d))
                .config(config)
                .build()
                .expect("builds")
                .train(&problem)
                .expect("trains");
            format!("{report:?}")
        })
        .collect();
    for (name, fleet_builder) in [
        ("discrete-event", FleetRuntime::builder()),
        ("pooled", FleetRuntime::builder().pooled_workers(2)),
    ] {
        let outcome = run(fleet_builder);
        let reports: Vec<String> = outcome.reports.iter().map(|r| format!("{r:?}")).collect();
        assert_eq!(reports, standalone, "{name} fleet vs standalone sessions");
    }
    let shared = run(FleetRuntime::builder().shared());
    assert!(shared.reports.iter().all(|r| r.epochs == 3));
    assert_eq!(
        format!("{shared:?}"),
        format!("{:?}", run(FleetRuntime::builder().shared())),
        "the shared run replays"
    );
}

#[test]
fn fair_share_splits_capacity_by_weight() {
    // Two identical tenants, weights 3:1, on a fleet they each could
    // saturate: the heavy tenant must hold more concurrent capacity,
    // finish sooner in its own virtual time, and both must train to
    // completion with nonzero throughput.
    let problem = QaoaProblem::maxcut_ring4();
    let mut fleet = builder().arbiter(FairShare).build().expect("builds");
    let heavy = fleet
        .admit(
            &problem,
            TenantConfig::new(cfg(4)).weight(3.0).label("heavy"),
        )
        .expect("admits");
    let light = fleet
        .admit(
            &problem,
            TenantConfig::new(cfg(4)).weight(1.0).label("light"),
        )
        .expect("admits");
    let outcome = fleet.run().expect("runs");

    assert_eq!(outcome.telemetry.arbiter, "fair-share");
    assert_eq!(outcome.telemetry.devices, 4);
    for id in [heavy, light] {
        assert_eq!(outcome.report(id).epochs, 4, "every tenant completes");
        assert!(outcome.tenant(id).results_absorbed > 0);
        assert!(
            outcome.tenant(id).epochs_per_hour > 0.0,
            "nonzero throughput"
        );
    }
    assert_eq!(outcome.tenant(heavy).label, "heavy");
    let heavy_share: u64 = outcome.tenant(heavy).client_share.iter().sum();
    let light_share: u64 = outcome.tenant(light).client_share.iter().sum();
    assert!(heavy_share > 0 && light_share > 0, "both used the pool");
    assert!(
        outcome.tenant(heavy).virtual_hours <= outcome.tenant(light).virtual_hours,
        "3x the capacity share should not finish later: heavy {:.3} h vs light {:.3} h",
        outcome.tenant(heavy).virtual_hours,
        outcome.tenant(light).virtual_hours
    );
    // The constrained tenants actually waited for capacity somewhere.
    let waited: u64 = outcome
        .telemetry
        .tenants
        .iter()
        .map(|t| t.wait_rounds)
        .sum();
    assert!(
        waited > 0,
        "shared fleet with excess demand must defer work"
    );
}

#[test]
fn priority_arbiter_starves_visibly_but_everyone_finishes() {
    let problem = QaoaProblem::maxcut_ring4();
    let mut fleet = builder().arbiter(PriorityArbiter).build().expect("builds");
    let high = fleet
        .admit(&problem, TenantConfig::new(cfg(3)).priority(10))
        .expect("admits");
    let low = fleet
        .admit(&problem, TenantConfig::new(cfg(3).with_seed(11)))
        .expect("admits");
    let outcome = fleet.run().expect("runs");
    assert_eq!(outcome.telemetry.arbiter, "priority");
    assert_eq!(outcome.report(high).epochs, 3);
    assert_eq!(
        outcome.report(low).epochs,
        3,
        "leftover capacity still serves"
    );
    assert_eq!(outcome.tenant(high).starved_rounds, 0);
    assert!(
        outcome.tenant(low).starved_rounds > 0,
        "the low-priority tenant's starvation must be accounted: {:?}",
        outcome.tenant(low)
    );
    assert!(outcome.tenant(low).wait_rounds >= outcome.tenant(high).wait_rounds);
}

#[test]
fn tenants_carry_their_own_policy_stacks() {
    // Per-tenant policies: one tenant on the default stack, one on
    // equi-ensemble weighting — in the same fleet run, each report must
    // carry its own stack's telemetry and trajectory.
    let problem = QaoaProblem::maxcut_ring4();
    let mut fleet = builder().build().expect("builds");
    let fidelity = fleet
        .admit(&problem, TenantConfig::new(cfg(3)))
        .expect("admits");
    let equi = fleet
        .admit(
            &problem,
            TenantConfig::new(cfg(3))
                .policies(PolicyConfig::default().with_weighting(EquiEnsemble)),
        )
        .expect("admits");
    let outcome = fleet.run().expect("runs");
    assert_eq!(outcome.report(fidelity).policy.weighting, "fidelity");
    assert_eq!(outcome.report(equi).policy.weighting, "equi-ensemble");
    assert!(outcome.report(equi).weight_trace.is_empty());
    assert!(!outcome.report(fidelity).weight_trace.is_empty());
    assert_ne!(
        outcome.report(fidelity).final_params,
        outcome.report(equi).final_params
    );
}

#[test]
fn streaming_service_at_t_zero_replays_the_batch_runtime() {
    // The service acceptance oracle: a streaming run whose tenants all
    // arrive at t = 0 must replay `FleetRuntime::run` byte for byte —
    // reports and fleet telemetry — on both deterministic substrates.
    // (Pool telemetry's steal counters are wall-clock scheduling noise,
    // excluded here exactly as in the batch pooled-vs-DES test.)
    let problem = QaoaProblem::maxcut_ring4();
    let tenants = |t: u64| TenantConfig::new(cfg(3).with_seed(7 + t)).weight((t + 1) as f64);

    for (name, batch_builder, service_builder) in [
        ("discrete-event", builder(), builder()),
        (
            "pooled",
            builder().pooled_workers(2),
            builder().pooled_workers(2),
        ),
    ] {
        let batch = {
            let mut fleet = batch_builder.arbiter(FairShare).build().expect("builds");
            for t in 0..3u64 {
                fleet.admit(&problem, tenants(t)).expect("admits");
            }
            fleet.run().expect("runs")
        };
        let mut service = service_builder
            .arbiter(FairShare)
            .service()
            .expect("builds");
        let handles: Vec<TenantHandle> = (0..3u64)
            .map(|t| service.admit(&problem, tenants(t)).expect("admits"))
            .collect();
        let streamed = service.close().expect("closes");
        assert_eq!(
            format!("{:?}", batch.reports),
            format!("{:?}", streamed.fleet.reports),
            "{name}: t = 0 streaming must replay the batch reports byte for byte"
        );
        assert_eq!(
            format!("{:?}", batch.telemetry),
            format!("{:?}", streamed.fleet.telemetry),
            "{name}: t = 0 streaming must replay the batch telemetry byte for byte"
        );
        assert_eq!(batch.pool.is_some(), streamed.fleet.pool.is_some());
        for (i, &h) in handles.iter().enumerate() {
            assert_eq!(streamed.try_report(h).expect("fresh"), &batch.reports[i]);
        }
        assert_eq!(streamed.service.admissions, 3);
        assert_eq!(streamed.service.retirements, 3);
        assert_eq!(streamed.service.idle_virtual_hours, 0.0);
        assert_eq!(streamed.service.deadline_hits, 0);
        assert_eq!(streamed.service.deadline_misses, 0);
    }
}

#[test]
fn staggered_service_replays_and_pooled_matches_des() {
    // Mid-run admissions: tenants arriving while co-tenants are in
    // flight must still be deterministic (two DES runs byte-identical)
    // and substrate-independent (pooled streaming replays DES exactly,
    // service telemetry included).
    let problem = QaoaProblem::maxcut_ring4();
    let run = |fleet_builder: FleetBuilder| {
        let mut service = fleet_builder.arbiter(FairShare).service().expect("builds");
        for (t, arrival_h) in [(0u64, 0.0), (1, 0.3), (2, 0.7)] {
            service
                .admit_at(
                    &problem,
                    TenantConfig::new(cfg(3).with_seed(7 + t)).weight((t + 1) as f64),
                    arrival_h,
                )
                .expect("admits");
        }
        service.close().expect("closes")
    };
    let des_a = run(builder());
    let des_b = run(builder());
    assert_eq!(des_a, des_b, "streaming replay must be deterministic");

    let pooled = run(builder().pooled_workers(2));
    assert_eq!(
        des_a.fleet.reports, pooled.fleet.reports,
        "pooled streaming reports replay DES"
    );
    assert_eq!(
        des_a.fleet.telemetry, pooled.fleet.telemetry,
        "pooled streaming fleet telemetry replays DES"
    );
    assert_eq!(
        des_a.service, pooled.service,
        "pooled streaming service telemetry replays DES"
    );
    assert!(pooled.fleet.pool.is_some());

    // Arrivals actually landed mid-run: the last tenant arrived after
    // the fleet clock started and everyone still trained to budget.
    for record in &des_a.service.tenants {
        assert_eq!(record.epochs, 3);
        assert!(record.retired_h > record.arrival_h);
    }
    assert_eq!(des_a.service.tenants[2].arrival_h, 0.7);
}

#[test]
fn edf_meets_deadlines_where_fair_share_misses() {
    // The SLO fixture: tenant A's deadline sits between its solo
    // makespan and its fair-share-pair makespan, so the deadline is
    // capacity-feasible — EDF must meet it (A has the only finite
    // slack, so it holds full demand) while FairShare, splitting
    // capacity evenly, must miss it.
    let problem = QaoaProblem::maxcut_ring4();
    let a_cfg = || TenantConfig::new(cfg(4)).label("slo");
    let b_cfg = || TenantConfig::new(cfg(4).with_seed(11)).label("besteffort");

    let makespan = |arbiter: FairShare, pair: bool| {
        let mut service = builder().arbiter(arbiter).service().expect("builds");
        let a = service.admit(&problem, a_cfg()).expect("admits");
        if pair {
            service.admit(&problem, b_cfg()).expect("admits");
        }
        let outcome = service.close().expect("closes");
        outcome.try_report(a).expect("fresh").total_hours
    };
    let solo_h = makespan(FairShare, false);
    let fair_h = makespan(FairShare, true);
    assert!(
        fair_h > solo_h,
        "fixture needs real contention: solo {solo_h:.3} h vs shared {fair_h:.3} h"
    );
    let deadline_h = (solo_h + fair_h) / 2.0;

    let outcomes: Vec<ServiceOutcome> = [false, true]
        .into_iter()
        .map(|edf| {
            let fleet_builder = if edf {
                builder().arbiter(EarliestDeadlineFirst)
            } else {
                builder().arbiter(FairShare)
            };
            let mut service = fleet_builder.service().expect("builds");
            let a = service
                .admit(&problem, a_cfg().deadline(deadline_h))
                .expect("admits");
            service.admit(&problem, b_cfg()).expect("admits");
            let outcome = service.close().expect("closes");
            assert_eq!(
                outcome.record(a).expect("recorded").deadline_h,
                Some(deadline_h)
            );
            outcome
        })
        .collect();
    let (fair, edf) = (&outcomes[0], &outcomes[1]);

    assert_eq!(
        (fair.service.deadline_hits, fair.service.deadline_misses),
        (0, 1),
        "fair share must miss the feasible deadline: {}",
        fair.service
    );
    assert_eq!(
        (edf.service.deadline_hits, edf.service.deadline_misses),
        (1, 0),
        "EDF must meet the feasible deadline: {}",
        edf.service
    );
    // EDF grants the SLO tenant its full demand, so it replays its solo
    // trajectory exactly; the best-effort tenant still completes.
    assert_eq!(edf.fleet.reports[0].total_hours, solo_h);
    assert_eq!(edf.fleet.reports[1].epochs, 4);
    assert_eq!(edf.fleet.telemetry.arbiter, "edf");
}

#[test]
fn service_idles_deterministically_between_arrivals() {
    // An empty fleet fast-forwards to the next admission: the gap is
    // accounted as idle hours, the fleet clock lands on the arrival,
    // and tenants retired by earlier drains stay pollable.
    let problem = QaoaProblem::maxcut_ring4();
    let mut service = builder().service().expect("builds");
    let first = service
        .admit(&problem, TenantConfig::new(cfg(2)))
        .expect("admits");
    assert_eq!(service.drain().expect("drains"), vec![first]);
    let resume_h = service.now_h();
    assert!(resume_h > 0.0);

    let second = service
        .admit_at(&problem, TenantConfig::new(cfg(2)), resume_h + 5.0)
        .expect("admits into the future");
    assert!(service.poll(second).is_none());
    assert_eq!(service.drain().expect("drains"), vec![second]);
    assert!(service.poll(first).is_some(), "earlier retirees persist");

    let outcome = service.close().expect("closes");
    assert!(
        (outcome.service.idle_virtual_hours - 5.0).abs() < 1e-6,
        "the inter-arrival gap is idle time: {}",
        outcome.service
    );
    assert!(outcome.service.span_virtual_hours > 5.0);
    assert_eq!(
        format!("{:?}", outcome.fleet.reports[0]),
        format!("{:?}", outcome.fleet.reports[1]),
        "same seed, own virtual clock: arrival time must not leak into the report"
    );
}

#[test]
fn tenants_cannot_ask_for_pipeline_lanes() {
    // A fleet's parallelism is its substrate's: a tenant asking for
    // pipeline lanes is refused with a typed error naming the knob that
    // does it, while one lane is a plain inline tenant.
    let problem = QaoaProblem::maxcut_ring4();
    let mut service = builder().service().expect("builds");
    let lanes =
        |lanes| TenantConfig::new(cfg(1).with_sim_parallelism(SimParallelism::Pipeline { lanes }));
    match service.admit_at(&problem, lanes(2), 0.0) {
        Err(EqcError::InvalidConfig(msg)) => {
            assert!(msg.contains("FleetBuilder::pooled_workers"), "{msg}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    assert_eq!(service.num_pending(), 0, "a refused tenant is not queued");
    service
        .admit_at(&problem, lanes(1), 0.0)
        .expect("one lane admits");
    assert_eq!(service.close().expect("closes").fleet.reports.len(), 1);
}

#[test]
fn stale_tenant_ids_surface_as_typed_errors() {
    // `try_report` / `try_tenant` return the typed error the panicking
    // accessors throw, so callers holding handles across batches can
    // recover instead of crashing.
    let problem = QaoaProblem::maxcut_ring4();
    let mut fleet = builder().build().expect("builds");
    let stale = fleet
        .admit(&problem, TenantConfig::new(cfg(2)))
        .expect("admits");
    let first = fleet.run().expect("first batch");
    assert!(first.try_report(stale).is_ok());

    fleet
        .admit(&problem, TenantConfig::new(cfg(2)))
        .expect("admits again");
    let second = fleet.run().expect("second batch");
    assert_eq!(
        second.try_report(stale).unwrap_err(),
        EqcError::StaleTenant {
            held: 0,
            outcome: 1
        }
    );
    assert_eq!(
        second.try_tenant(stale).unwrap_err(),
        EqcError::StaleTenant {
            held: 0,
            outcome: 1
        }
    );
}

#[test]
fn des_builder_round_trips_the_substrate() {
    // `pooled()` is no longer a one-way door: `.des()` undoes it, and
    // the round-tripped fleet is byte-identical to one that never left
    // the discrete-event substrate.
    let problem = QaoaProblem::maxcut_ring4();
    let run = |fleet_builder: FleetBuilder| {
        let mut fleet = fleet_builder.build().expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(cfg(3)))
            .expect("admits");
        fleet.run().expect("runs")
    };
    let des = run(builder());
    let round_tripped = run(builder().pooled_workers(2).des());
    assert_eq!(des, round_tripped, "des() must undo pooled_workers()");
    assert!(round_tripped.pool.is_none(), "no pool telemetry on DES");
}

#[test]
fn fleet_outlives_its_tenant_batches() {
    let problem = QaoaProblem::maxcut_ring4();
    let mut fleet = builder().build().expect("builds");
    assert_eq!(fleet.run().unwrap_err(), EqcError::NoTenants);
    fleet
        .admit(&problem, TenantConfig::new(cfg(2)))
        .expect("admits");
    let first = fleet.run().expect("first batch");
    assert_eq!(fleet.num_tenants(), 0, "run consumes the batch");
    fleet
        .admit(&problem, TenantConfig::new(cfg(2)))
        .expect("admits again");
    let second = fleet.run().expect("second batch");
    assert_eq!(
        first.reports, second.reports,
        "devices persist across batches: identical replay"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The one fleet stepper, driven over random fleet shapes on every
    /// axis: whatever the tenant count, pool width, arbiter and arrival
    /// pattern, the pooled execution axis must replay the inline one,
    /// an all-zero-arrival service must replay `FleetRuntime::run`, and
    /// a lone tenant on zero-load shared ledgers must replay private
    /// ones — compared on the whole outcome, telemetry included.
    #[test]
    fn one_stepper_replays_itself_on_every_axis(
        tenants in 1..=4usize,
        clients in 2..=4usize,
        arbiter in 0..4usize,
        pattern in 0..3usize,
    ) {
        let problem = QaoaProblem::maxcut_ring4();
        let fleet = || {
            let b = FleetRuntime::builder()
                .devices(fleet_devices().into_iter().take(clients))
                .device_seed(7);
            match arbiter {
                0 => b.arbiter(Unshared),
                1 => b.arbiter(FairShare),
                2 => b.arbiter(PriorityArbiter),
                _ => b.arbiter(EarliestDeadlineFirst),
            }
        };
        let tenant = |t: usize| {
            let config = EqcConfig::paper_qaoa()
                .with_epochs(1 + t % 2)
                .with_shots(64)
                .with_seed(7 + t as u64);
            TenantConfig::new(config)
                .weight((1 + t % 3) as f64)
                .priority((t % 2) as i64)
                .deadline([1.0e-6, 1.0e6][t % 2])
        };
        // All at zero; staggered into each other's runs; or far enough
        // apart that the fleet empties between tenants.
        let arrival_h = |t: usize| [0.0, 1.0e-4, 1.0e4][pattern] * t as f64;
        let serve = |b: FleetBuilder| {
            let mut service = b.service().expect("builds");
            for t in 0..tenants {
                service
                    .admit_at(&problem, tenant(t), arrival_h(t))
                    .expect("admits");
            }
            service.close().expect("closes")
        };
        let whole = |o: &ServiceOutcome| {
            format!("{:?}\n{:?}\n{:?}", o.fleet.reports, o.fleet.telemetry, o.service)
        };

        let inline = serve(fleet());
        prop_assert_eq!(inline.service.retirements, tenants);
        prop_assert_eq!(
            inline.service.idle_virtual_hours > 0.0,
            pattern == 2 && tenants > 1,
            "only the gapped pattern may idle the fleet: {}", inline.service
        );
        let pooled = serve(fleet().pooled_workers(2));
        prop_assert_eq!(whole(&inline), whole(&pooled), "pooled must replay inline");
        prop_assert!(pooled.fleet.pool.is_some() && inline.fleet.pool.is_none());

        if pattern == 0 {
            let mut batch = fleet().build().expect("builds");
            for t in 0..tenants {
                batch.admit(&problem, tenant(t)).expect("admits");
            }
            let batch = batch.run().expect("runs");
            prop_assert_eq!(
                format!("{:?}\n{:?}", batch.reports, batch.telemetry),
                format!("{:?}\n{:?}", inline.fleet.reports, inline.fleet.telemetry),
                "a t = 0 service must replay the batch runtime"
            );
        }

        if tenants == 1 {
            // Occupancy rows are the one deliberate divergence: private
            // ledgers have no per-device timeline to report.
            let mut shared = serve(fleet().shared());
            prop_assert_eq!(shared.fleet.telemetry.occupancy.len(), clients);
            shared.fleet.telemetry.occupancy.clear();
            prop_assert_eq!(whole(&inline), whole(&shared), "zero-load shared must replay DES");
        }
    }
}
