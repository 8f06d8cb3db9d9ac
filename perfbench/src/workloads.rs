//! The named workloads: input generation from the seed, the timed
//! set-up and run of each, and the simulated results read off the
//! reports. Only the library crates' public API is used, and none of
//! the entry points slated for deletion (legacy execution, unfolded
//! shifts, `Workers`/`Tuned` parallelism, `ThreadedExecutor`,
//! arrival-order pooling, `core::weighting`).

use crate::manifest::WORKLOADS;
use crate::stats::{fnv1a, SplitMix};
use crate::trace::Tracer;
use eqc_core::{
    ClientNode, ContentionAware, DiscreteEventExecutor, EarliestDeadlineFirst, Ensemble,
    EnsembleSession, EqcConfig, EqcError, Executor, FleetRuntime, FleetService, FleetTelemetry,
    PolicyConfig, PooledExecutor, SimParallelism, TenantConfig, TrainingReport,
};
use qdevice::{catalog, DeviceSpec, LoadModel, SimTime};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use vqa::{QaoaProblem, VqaProblem, VqeProblem};

/// Frozen workload parameters (`quick` cuts epochs tenfold for the
/// smoke pass; it never produces a baseline).
///
/// The optimisation start point is part of the frozen problem (the
/// paper configuration's seed 7, tenant `t` starts from `7 + t`), not
/// of `--seed`: the start point alone moves `loss_gap` by +-35 % on the
/// wide workloads, which would swamp any bound. `--seed` drives fleet
/// synthesis, device noise streams, arrivals and exogenous load.
pub const TENANT_SEED: u64 = 7;
pub const VQE4_EPOCHS: usize = 100;
pub const VQE4_SHOTS: usize = 8192;
pub const VQE7_DEVICES: usize = 4;
pub const VQE7_SHOTS: usize = 1024;
pub const FLEET_DEVICES: usize = 256;
pub const FLEET_EPOCHS: usize = 80;
pub const FLEET_SHOTS: usize = 256;
pub const ORCH_TENANTS: usize = 32;
pub const ORCH_DEVICES: usize = 64;
pub const ORCH_EPOCHS: usize = 64;
pub const ORCH_SHOTS: usize = 128;
pub const ORCH_JOBS_PER_HOUR: f64 = 120.0;
pub const ORCH_MEAN_JOB_S: f64 = 20.0;
pub const STREAM_TENANTS: usize = 64;
pub const STREAM_DEVICES: usize = 16;
pub const STREAM_EPOCHS: usize = 2;
pub const STREAM_SHOTS: usize = 64;
pub const STREAM_MEAN_GAP_H: f64 = 0.0002;
/// Deadline of streaming tenant `t` (`t % 4 != 0`) as a multiple of
/// the solo makespan measured in set-up.
pub const STREAM_DEADLINE_FACTORS: [f64; 3] = [1.0, 2.0, 4.0];

/// How a workload drives the stack.
#[derive(Clone, Debug, PartialEq)]
pub enum Shape {
    /// One `Ensemble` session under the DES or the pooled executor.
    Single { pooled: bool },
    /// A closed tenant batch on the shared-queue `FleetRuntime`.
    Tenants { tenants: usize, load: LoadModel },
    /// Streaming admission into a `FleetService` under EDF.
    Service { arrivals_h: Vec<f64> },
}

/// Which executor drains a single-tenant session. A DES run handed a
/// tracer goes through [`traced_des`], the same protocol with a span
/// per call; the pool's loop is crate-private and cannot be traced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    Des,
    Pooled,
}

/// One workload's generated inputs.
pub struct Workload {
    pub name: &'static str,
    pub problem: Box<dyn VqaProblem>,
    pub specs: Vec<DeviceSpec>,
    pub device_seed: u64,
    pub cfg: EqcConfig,
    pub shape: Shape,
    /// Pool workers / pipeline lanes (`min(nproc, 4)`).
    pub lanes: usize,
}

/// The simulated side of one rep: everything deterministic per seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sim {
    pub digest: u64,
    pub failed: usize,
    pub circuits: u64,
    pub tasks: u64,
    pub epochs_per_virtual_hour: f64,
    pub loss_gap: f64,
    pub turnaround_h: Vec<f64>,
    pub slo_hit_share: f64,
    /// Counters the run itself reports, by per-layer metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

/// A workload built in set-up, ready for the timed call.
pub enum Prepared<'w> {
    Single(Box<EnsembleSession<'w>>),
    Tenants(Box<FleetRuntime<'w>>),
    Service(Box<FleetService<'w>>),
}

/// A span when tracing, a plain call otherwise.
fn spanned<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tr) => tr.span(name, |_| f()),
        None => f(),
    }
}

/// The pinned wide-fleet recipe (`eqc_bench::fleet_specs`, re-seeded):
/// `n` perturbed 5-qubit devices, all inside the density-engine cap.
fn fleet_specs(n: usize, seed: u64) -> Vec<DeviceSpec> {
    let base: Vec<DeviceSpec> = ["belem", "manila", "bogota", "quito", "lima"]
        .iter()
        .map(|name| catalog::by_name(name).expect("catalog device"))
        .collect();
    catalog::fleet(&base, n, seed)
}

/// Arrival times with gaps uniform in `0.5..1.5 x mean_gap_h`, fixed by
/// the seed: the service workload is open-loop on the virtual clock.
/// (Exponential gaps were tried first: with 64 arrivals their count
/// variance moved the turnaround percentiles +-38 % between seeds.)
fn jittered_arrivals(n: usize, mean_gap_h: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += (0.5 + rng.next_f64()) * mean_gap_h;
            at
        })
        .collect()
}

impl Workload {
    /// Generates the named workload's inputs from `seed` alone.
    pub fn build(name: &str, seed: u64, quick: bool, lanes: usize) -> Option<Workload> {
        let name = WORKLOADS.iter().map(|w| w.name).find(|&n| n == name)?;
        let mut split = SplitMix(seed);
        let synth_seed = split.next_u64();
        let device_seed = split.next_u64() >> 16;
        let arrival_seed = split.next_u64();
        let load_seed = split.next_u64();
        let cut = |epochs: usize| if quick { (epochs / 10).max(1) } else { epochs };
        let vqe = |epochs: usize, shots: usize| {
            EqcConfig::paper_vqe()
                .with_epochs(cut(epochs))
                .with_shots(shots)
                .with_seed(TENANT_SEED)
        };
        let (problem, specs, cfg, shape): (Box<dyn VqaProblem>, _, _, _) = match name {
            "vqe4_paper" => (
                Box::new(VqeProblem::heisenberg_4q()),
                catalog::vqe_ensemble(),
                vqe(VQE4_EPOCHS, VQE4_SHOTS),
                Shape::Single { pooled: false },
            ),
            "vqe7_kernel" => {
                let base = ["lagos", "casablanca"].map(|n| catalog::by_name(n).expect("catalog"));
                // One epoch cannot be cut tenfold, so the quick pass
                // shrinks the register instead (4^n state: ~16x less).
                let n = if quick { 5 } else { 7 };
                (
                    Box::new(VqeProblem::new(
                        "tfim7",
                        vqa::hamiltonians::transverse_field_ising(n, 1.0, 0.8),
                        vqa::ansatz::hardware_efficient_layers(n, 1),
                    )),
                    // Catalog devices, not a synthesized fleet: with four
                    // devices and one epoch a synthesized queue profile
                    // alone moved the virtual clock +-20 % between seeds.
                    base.iter().cycle().take(VQE7_DEVICES).cloned().collect(),
                    vqe(1, VQE7_SHOTS).with_sim_parallelism(SimParallelism::Pipeline { lanes }),
                    Shape::Single { pooled: false },
                )
            }
            "fleet256_wide" | "fleet256_pooled" => {
                let pooled = name == "fleet256_pooled";
                (
                    Box::new(VqeProblem::heisenberg_4q()),
                    fleet_specs(FLEET_DEVICES, synth_seed),
                    vqe(FLEET_EPOCHS, FLEET_SHOTS),
                    Shape::Single { pooled },
                )
            }
            "tenants32_orch" => (
                Box::new(VqeProblem::h2()),
                fleet_specs(ORCH_DEVICES, synth_seed),
                vqe(ORCH_EPOCHS, ORCH_SHOTS),
                Shape::Tenants {
                    tenants: ORCH_TENANTS,
                    load: LoadModel::Poisson {
                        jobs_per_hour: ORCH_JOBS_PER_HOUR,
                        mean_job_s: ORCH_MEAN_JOB_S,
                        seed: load_seed,
                    },
                },
            ),
            "service_stream" => (
                Box::new(QaoaProblem::maxcut_ring4()),
                fleet_specs(STREAM_DEVICES, synth_seed),
                EqcConfig::paper_qaoa()
                    .with_epochs(STREAM_EPOCHS)
                    .with_shots(STREAM_SHOTS)
                    .with_seed(TENANT_SEED),
                Shape::Service {
                    arrivals_h: jittered_arrivals(
                        if quick {
                            STREAM_TENANTS / 8
                        } else {
                            STREAM_TENANTS
                        },
                        STREAM_MEAN_GAP_H,
                        arrival_seed,
                    ),
                },
            ),
            other => unreachable!("workload {other} is named in the manifest but not built"),
        };
        Some(Workload {
            name,
            problem,
            specs,
            device_seed,
            cfg,
            shape,
            lanes,
        })
    }

    /// Tenants trained per rep.
    pub fn tenants(&self) -> usize {
        match &self.shape {
            Shape::Single { .. } => 1,
            Shape::Tenants { tenants, .. } => *tenants,
            Shape::Service { arrivals_h } => arrivals_h.len(),
        }
    }

    fn tenant_config(&self, t: usize) -> TenantConfig {
        TenantConfig::new(self.cfg.with_seed(TENANT_SEED + t as u64)).label(format!("tenant{t}"))
    }

    fn fleet_builder(&self) -> eqc_core::FleetBuilder {
        FleetRuntime::builder()
            .specs(self.specs.iter().cloned())
            .device_seed(self.device_seed)
    }

    /// The set-up half of a rep: devices, ensemble / fleet, `session()`
    /// or every admission. Spans (when traced) wrap each library call.
    pub fn setup(&self, mut tracer: Option<&mut Tracer>) -> Result<Prepared<'_>, EqcError> {
        let problem = self.problem.as_ref();
        match &self.shape {
            Shape::Single { .. } => {
                let ensemble = Ensemble::builder()
                    .specs(self.specs.iter().cloned())
                    .device_seed(self.device_seed)
                    .config(self.cfg)
                    .build()?;
                let session = spanned(&mut tracer, "core.session", || ensemble.session(problem))?;
                Ok(Prepared::Single(Box::new(session)))
            }
            Shape::Tenants { tenants, load } => {
                let mut fleet = self.fleet_builder().shared_with_load(*load).build()?;
                for t in 0..*tenants {
                    let mut tenant = self.tenant_config(t);
                    if t % 2 == 1 {
                        tenant = tenant.policies(
                            PolicyConfig::default().with_scheduler(ContentionAware::default()),
                        );
                    }
                    spanned(&mut tracer, "core.fleet.admit", || {
                        fleet.admit(problem, tenant)
                    })?;
                }
                Ok(Prepared::Tenants(Box::new(fleet)))
            }
            Shape::Service { arrivals_h } => {
                // The deadline yardstick: one tenant alone on the fleet.
                let solo_h = {
                    let mut fleet = self.fleet_builder().build()?;
                    fleet.admit(problem, self.tenant_config(0))?;
                    fleet.run()?.reports[0].total_hours
                };
                let mut service = self
                    .fleet_builder()
                    .arbiter(EarliestDeadlineFirst)
                    .service()?;
                for (t, &at_h) in arrivals_h.iter().enumerate() {
                    let mut tenant = self.tenant_config(t);
                    if t % 4 != 0 {
                        tenant = tenant.deadline(solo_h * STREAM_DEADLINE_FACTORS[t % 3]);
                    }
                    spanned(&mut tracer, "core.service.admit", || {
                        service.admit_at(problem, tenant, at_h)
                    })?;
                }
                Ok(Prepared::Service(Box::new(service)))
            }
        }
    }

    /// The timed half of a rep. `exec` picks the single-tenant
    /// executor; the fleet shapes ignore it.
    pub fn run(
        &self,
        prepared: Prepared<'_>,
        exec: Exec,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Outcome, EqcError> {
        let start = std::time::Instant::now();
        match prepared {
            Prepared::Single(mut session) => {
                let pool = PooledExecutor::new().workers(self.lanes);
                let report = match (exec, tracer) {
                    (Exec::Des, None) => DiscreteEventExecutor::new().run(&mut session),
                    (Exec::Des, Some(tr)) => traced_des(&mut session, tr),
                    (Exec::Pooled, _) => pool.run(&mut session),
                }?;
                let wall_s = start.elapsed().as_secs_f64();
                let mut sim = self.sim_of(&[&report], fnv1a(format!("{report:?}").as_bytes()));
                sim.epochs_per_virtual_hour = report.epochs_per_hour();
                sim.turnaround_h = vec![report.total_hours];
                sim.slo_hit_share = 1.0;
                single_counters(&mut sim, &mut session, pool.telemetry());
                Ok(Outcome { wall_s, sim })
            }
            Prepared::Tenants(mut fleet) => {
                let outcome = spanned(&mut tracer, "core.fleet.run", || fleet.run())?;
                let wall_s = start.elapsed().as_secs_f64();
                let reports: Vec<&TrainingReport> = outcome.reports.iter().collect();
                let mut sim = self.sim_of(&reports, fnv1a(format!("{outcome:?}").as_bytes()));
                sim.turnaround_h = reports.iter().map(|r| r.total_hours).collect();
                let span_h = sim.turnaround_h.iter().copied().fold(0.0, f64::max);
                let epochs: usize = reports.iter().map(|r| r.epochs).sum();
                sim.epochs_per_virtual_hour = epochs as f64 / span_h;
                sim.slo_hit_share = 1.0;
                fleet_counters(&mut sim, &outcome.telemetry, &reports);
                Ok(Outcome { wall_s, sim })
            }
            Prepared::Service(service) => {
                let outcome = spanned(&mut tracer, "core.service.close", || service.close())?;
                let wall_s = start.elapsed().as_secs_f64();
                let reports: Vec<&TrainingReport> = outcome.fleet.reports.iter().collect();
                let mut sim = self.sim_of(&reports, fnv1a(format!("{outcome:?}").as_bytes()));
                let s = &outcome.service;
                sim.turnaround_h = s
                    .tenants
                    .iter()
                    .map(|r| r.retired_h - r.arrival_h)
                    .collect();
                sim.epochs_per_virtual_hour = s.sustained_epochs_per_hour;
                let with_deadline = s.deadline_hits + s.deadline_misses;
                sim.slo_hit_share = if with_deadline == 0 {
                    1.0
                } else {
                    s.deadline_hits as f64 / with_deadline as f64
                };
                fleet_counters(&mut sim, &outcome.fleet.telemetry, &reports);
                Ok(Outcome { wall_s, sim })
            }
        }
    }

    /// Output checks and simulated results common to every shape: each
    /// tenant trains its full epoch budget, ends on a finite loss and
    /// respects the variational bound.
    fn sim_of(&self, reports: &[&TrainingReport], digest: u64) -> Sim {
        let problem = self.problem.as_ref();
        let floor = problem.reference_minimum();
        let mut sim = Sim {
            digest,
            ..Sim::default()
        };
        let mut gap_sum = 0.0;
        for r in reports {
            let gap = problem.ideal_loss(&r.final_params) - floor;
            let ok = r.epochs == self.cfg.epochs
                && r.final_loss.is_finite()
                && gap.is_finite()
                && gap >= -1e-9;
            sim.failed += usize::from(!ok);
            // Mean over the whole history, not the end point: the area
            // under the convergence curve rises with slower convergence
            // as well as with a worse end, and the end point alone
            // moves +-40 % between seeds on the 256-way fleet.
            gap_sum += r.converged_loss(r.epochs) - floor;
            sim.circuits += r.clients.iter().map(|c| c.circuits_run).sum::<u64>();
            sim.tasks += r.clients.iter().map(|c| c.tasks_completed).sum::<u64>();
        }
        sim.loss_gap = gap_sum / reports.len() as f64;
        sim
    }
}

/// Wall time and simulated results of one timed call.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub wall_s: f64,
    pub sim: Sim,
}

/// Counters a drained single-tenant session exposes beside its report.
fn single_counters(
    sim: &mut Sim,
    session: &mut EnsembleSession<'_>,
    pool: Option<eqc_core::PoolTelemetry>,
) {
    let engine = session.engine_telemetry();
    let (clients, _) = session.split_mut();
    let sum = |f: fn(&ClientNode) -> u64| clients.iter().map(f).sum::<u64>() as f64;
    let c = &mut sim.counters;
    c.insert("core.clients", clients.len() as f64);
    c.insert("qdevice.compiles", sum(ClientNode::programs_compiled));
    c.insert(
        "qdevice.compile_cache_hits",
        sum(ClientNode::program_cache_hits),
    );
    c.insert(
        "qdevice.noise_builds",
        sum(|c| c.backend().noise_model_builds()),
    );
    c.insert("qsim.pipeline.lanes", engine.pipeline_lanes as f64);
    c.insert("qsim.pipeline.jobs", engine.batched_jobs as f64);
    c.insert("qsim.prefix.hits", engine.prefix_hits as f64);
    c.insert("qsim.folded_pairs", engine.folded_pairs as f64);
    if let Some(p) = pool {
        c.insert("core.pool.workers", p.workers_spawned as f64);
        c.insert("core.pool.tasks_stolen", p.tasks_stolen as f64);
        c.insert("core.pool.queue_depth_max", p.queue_depth_max as f64);
    }
}

/// Counters a fleet run reports through its telemetry and reports.
fn fleet_counters(sim: &mut Sim, t: &FleetTelemetry, reports: &[&TrainingReport]) {
    let activated: usize = reports
        .iter()
        .map(|r| r.clients.iter().filter(|c| c.tasks_completed >= 1).count())
        .sum();
    let c = &mut sim.counters;
    c.insert(
        "core.clients",
        reports.iter().map(|r| r.clients.len()).sum::<usize>() as f64,
    );
    c.insert("core.fleet.grant_rounds", t.grant_rounds as f64);
    c.insert("core.fleet.snapshot_rebuilds", t.snapshot_rebuilds as f64);
    c.insert("core.fleet.snapshot_reuses", t.snapshot_reuses as f64);
    c.insert(
        "core.fleet.results_absorbed",
        t.tenants.iter().map(|t| t.results_absorbed).sum::<u64>() as f64,
    );
    c.insert("core.fleet.clients_activated", activated as f64);
    c.insert(
        "core.fleet.queue_wait_virtual_h",
        t.tenants.iter().map(|t| t.queue_wait_hours).sum(),
    );
    c.insert("qdevice.shared_noise.builds", t.shared_noise_builds as f64);
    c.insert("qdevice.shared_noise.hits", t.shared_noise_hits as f64);
    c.insert(
        "qdevice.queue.jobs",
        t.occupancy.iter().map(|d| d.jobs).sum::<u64>() as f64,
    );
}

/// A completed task waiting for absorption, earliest completion first,
/// ties toward the lower client id — the DES total order.
struct Pending {
    completed: SimTime,
    client: usize,
    result: eqc_core::ClientTaskResult,
    cycle: usize,
    dispatched_at_update: u64,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        // `BinaryHeap` is a max-heap: reversed for earliest-first.
        other
            .completed
            .as_secs()
            .total_cmp(&self.completed.as_secs())
            .then_with(|| other.client.cmp(&self.client))
    }
}

/// The bench-side executor: `DiscreteEventExecutor`'s loop written
/// against the public session protocol, with a span around every call
/// into the master loop and the clients. Its report must be
/// byte-identical to the untraced executor's (checked by the caller).
pub fn traced_des(
    session: &mut EnsembleSession<'_>,
    tracer: &mut Tracer,
) -> Result<TrainingReport, EqcError> {
    tracer.span("core.run", |tr| {
        session.begin()?;
        let problem = session.problem();
        let shots = session.config().shots;
        let n = session.num_clients();
        {
            let (clients, master) = session.split_mut();
            let mut heap: BinaryHeap<Pending> = BinaryHeap::with_capacity(n);
            let mut order = tr.span("core.pick", |_| master.prime_order())?;
            loop {
                for &client in &order {
                    let a = tr.span("core.assign", |_| master.next_assignment())?;
                    let submit = master.now();
                    let result = tr.span("core.client_task", |_| {
                        clients[client].run_task(problem, a.task, &a.params, shots, submit)
                    });
                    heap.push(Pending {
                        completed: result.completed,
                        client,
                        result,
                        cycle: a.cycle,
                        dispatched_at_update: a.dispatched_at_update,
                    });
                }
                let Some(ev) = heap.pop() else {
                    return Err(EqcError::Internal(
                        "event queue drained before the epoch budget".into(),
                    ));
                };
                tr.span("core.absorb", |_| {
                    master.absorb(
                        ev.client,
                        ev.cycle,
                        ev.dispatched_at_update,
                        &ev.result,
                        problem,
                    )
                })?;
                if master.is_complete() {
                    break;
                }
                order = tr.span("core.pick", |_| master.dispatch_order(ev.client))?;
            }
        }
        tr.span("core.finish", |_| session.finish(format!("eqc[{n}]")))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_derive_from_the_seed_alone() {
        for name in WORKLOADS.map(|w| w.name) {
            let a = Workload::build(name, 11, true, 2).expect("known workload");
            let b = Workload::build(name, 11, true, 2).expect("known workload");
            let c = Workload::build(name, 12, true, 2).expect("known workload");
            assert_eq!(a.name, name);
            assert_eq!(a.device_seed, b.device_seed);
            assert_eq!(a.shape, b.shape);
            assert_ne!(a.device_seed, c.device_seed);
        }
        assert!(Workload::build("nope", 11, true, 2).is_none());
    }

    #[test]
    fn arrivals_are_increasing_and_seeded() {
        let a = jittered_arrivals(64, STREAM_MEAN_GAP_H, 5);
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[0] > 0.0);
        assert_eq!(a, jittered_arrivals(64, STREAM_MEAN_GAP_H, 5));
        assert_ne!(a, jittered_arrivals(64, STREAM_MEAN_GAP_H, 6));
    }

    #[test]
    fn traced_executor_replays_the_des_report() {
        let w = Workload::build("vqe4_paper", 11, true, 2).expect("known workload");
        let run = |tracer: Option<&mut Tracer>| {
            let prepared = w.setup(None).expect("set-up");
            w.run(prepared, Exec::Des, tracer).expect("runs").sim
        };
        let (des, traced) = (run(None), run(Some(&mut Tracer::new())));
        assert_eq!(des, traced, "tracing must be invisible to the results");
        assert_eq!(des.failed, 0);
    }
}
