//! The always-on fleet service: streaming admission over the fleet's
//! lane machinery.
//!
//! [`FleetRuntime::run`](super::FleetRuntime::run) drives one closed
//! batch of tenants to completion and stops; the paper's premise,
//! though, is a cloud of drifting QPUs serving variational workloads
//! *continuously*. A [`FleetService`] keeps the fleet clock alive
//! across admissions: [`FleetService::admit`] lands a tenant on a
//! seeded admission queue (arrival times in virtual hours on the fleet
//! clock), [`FleetService::drain`] drives the fleet to quiescence —
//! activating tenants as their arrival times come due, retiring each
//! one the moment its last gather absorbs, idling deterministically
//! over an empty fleet until the next arrival — and
//! [`FleetService::close`] returns the collected
//! [`FleetOutcome`] plus the service-level
//! [`ServiceTelemetry`] (admissions, retirements, deadline hits and
//! misses, idle hours, sustained epochs/h).
//!
//! Determinism is inherited, not re-implemented: the service drives
//! the same resumable stepper the batch runtime wraps, so a service
//! run whose tenants all arrive at `t = 0` replays
//! [`FleetRuntime::run`](super::FleetRuntime::run) byte for byte, and
//! the DES and pooled streaming drives stay byte-identical to each
//! other (both pinned by tests). Each tenant's own virtual clock
//! starts at zero regardless of its arrival time, so its
//! [`TrainingReport`] is exactly what the same session would produce
//! standalone.
//!
//! ```
//! use eqc_core::policy::arbiter::EarliestDeadlineFirst;
//! use eqc_core::{EqcConfig, FleetRuntime, TenantConfig};
//! use vqa::QaoaProblem;
//!
//! let problem = QaoaProblem::maxcut_ring4();
//! let cfg = EqcConfig::paper_qaoa().with_epochs(2).with_shots(128);
//! let mut service = FleetRuntime::builder()
//!     .devices(["belem", "manila"])
//!     .arbiter(EarliestDeadlineFirst)
//!     .service()?;
//! let a = service.admit(&problem, TenantConfig::new(cfg).deadline(2000.0))?;
//! let b = service.admit_at(&problem, TenantConfig::new(cfg.with_seed(11)), 1.5)?;
//! let retired = service.drain()?;
//! assert_eq!(retired.len(), 2);
//! assert!(service.poll(a).is_some() && service.poll(b).is_some());
//! let outcome = service.close()?;
//! assert_eq!(outcome.try_report(a)?.epochs, 2);
//! assert_eq!(outcome.service.admissions, 2);
//! # Ok::<(), eqc_core::EqcError>(())
//! ```

use super::{
    drive, ledgers_for, occupancy_rows, queue_wait_hours, Arrival, DriveClock, Execution,
    FleetOutcome, Lane, LaneCounters, OccupancyTracker, Substrate, TenantId,
};
use crate::client::ClientNode;
use crate::config::{ServiceConfig, TenantConfig};
use crate::ensemble::{clients_for, probes_for, Device};
use crate::error::EqcError;
use crate::master::MasterLoop;
use crate::policy::arbiter::TenantArbiter;
use crate::pool::resolve_workers;
use crate::report::{
    FleetTelemetry, PoolTelemetry, ServiceTelemetry, ServiceTenantRecord, TenantTelemetry,
    TrainingReport,
};
use qdevice::DeviceQueue;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use vqa::VqaProblem;

/// Handle to one tenant admitted to a [`FleetService`], valid for the
/// service's whole lifetime (the service never recycles indices, so
/// handles cannot go stale the way batch [`TenantId`]s can).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TenantHandle {
    id: TenantId,
}

impl TenantHandle {
    /// The underlying fleet tenant id (service generation 0).
    pub fn id(self) -> TenantId {
        self.id
    }

    /// The tenant's index in service admission order — indexes
    /// [`FleetOutcome::reports`] and [`ServiceTelemetry::tenants`] of
    /// the closed service's outcome.
    pub fn index(self) -> usize {
        self.id.index()
    }
}

/// A tenant admitted but not yet driven: its session halves plus the
/// arbiter-facing knobs and its fleet-clock arrival time. Owned by the
/// fleet — the ownership inversion this module exists for.
struct PendingTenant<'p> {
    /// Admission index (never recycled within a session).
    index: usize,
    label: String,
    problem: &'p dyn VqaProblem,
    shots: usize,
    weight: f64,
    priority: i64,
    deadline_h: Option<f64>,
    arrival_h: f64,
    clients: Vec<ClientNode>,
    master: MasterLoop,
}

/// Everything a retired tenant leaves behind.
struct RetiredTenant {
    report: TrainingReport,
    telemetry: TenantTelemetry,
    record: ServiceTenantRecord,
}

/// The result of closing a [`FleetService`]: the accumulated
/// [`FleetOutcome`] (reports + fleet telemetry in admission order)
/// plus the service-level [`ServiceTelemetry`].
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceOutcome {
    /// Reports and fleet telemetry, indexed by admission order —
    /// exactly the shape one big [`FleetRuntime::run`] batch produces.
    ///
    /// [`FleetRuntime::run`]: super::FleetRuntime::run
    pub fleet: FleetOutcome,
    /// Service-level telemetry: admissions, retirements, SLO outcomes,
    /// idle hours, sustained throughput.
    pub service: ServiceTelemetry,
}

impl ServiceOutcome {
    /// The training report of one tenant, via the fleet outcome's
    /// typed stale-handle check.
    ///
    /// # Errors
    ///
    /// [`EqcError::StaleTenant`] as
    /// [`FleetOutcome::try_report`] (unreachable for handles minted by
    /// the service that produced this outcome).
    pub fn try_report(&self, handle: TenantHandle) -> Result<&TrainingReport, EqcError> {
        self.fleet.try_report(handle.id)
    }

    /// The fleet telemetry of one tenant, via the typed stale-handle
    /// check.
    ///
    /// # Errors
    ///
    /// As [`ServiceOutcome::try_report`].
    pub fn try_tenant(&self, handle: TenantHandle) -> Result<&TenantTelemetry, EqcError> {
        self.fleet.try_tenant(handle.id)
    }

    /// The service lifecycle record of one tenant.
    pub fn record(&self, handle: TenantHandle) -> Option<&ServiceTenantRecord> {
        self.service.tenants.get(handle.index())
    }
}

/// What one fleet session accumulates across drains. Everything here
/// outlives any one tenant batch — the devices' queue timelines are
/// keyed by the fleet clock — and is reset as a whole when a session
/// ends ([`FleetService::finish`]). Noise caches are not session state:
/// they persist with the devices.
#[derive(Default)]
struct SessionState {
    /// One slot per admission, filled at retirement.
    retired: Vec<Option<RetiredTenant>>,
    /// The fleet clock, persistent across drains.
    clock: DriveClock,
    /// Pool telemetry merged across pooled drains.
    pool: Option<PoolTelemetry>,
    /// The shared substrate's per-device occupancy ledgers and the
    /// occupancy view over them, built at the session's first
    /// admission (the tracker's reuse/rebuild counters span the
    /// session).
    shared: Option<(Vec<Arc<Mutex<DeviceQueue>>>, OccupancyTracker)>,
    /// Each device's shared noise-cache `(builds, hits)` when the
    /// session admitted its first tenant; [`FleetService::finish`]
    /// reports the session's difference.
    noise_at_start: Vec<(u64, u64)>,
    /// Per-device queue-wait seconds accumulated across retired tenants
    /// in lane order (a deterministic f64 reduction order).
    occupancy_queued_s: Vec<f64>,
}

/// The always-on fleet drive: a streaming [`FleetRuntime`] whose
/// tenants arrive on a virtual-time admission queue and retire
/// individually. Build with [`FleetBuilder::service`].
///
/// [`FleetRuntime`]: super::FleetRuntime
/// [`FleetBuilder::service`]: super::FleetBuilder::service
pub struct FleetService<'p> {
    devices: Vec<Device>,
    arbiter: Arc<dyn TenantArbiter>,
    substrate: Substrate,
    config: ServiceConfig,
    /// Session generation, bumped by every [`FleetService::finish`];
    /// stamped into issued [`TenantId`]s and outcomes so a batch
    /// runtime's stale handles are detected instead of misattributed.
    batch: u64,
    /// The admission queue: tenants waiting for the next drain.
    pending: Vec<PendingTenant<'p>>,
    state: SessionState,
}

impl std::fmt::Debug for FleetService<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetService")
            .field("devices", &self.devices.len())
            .field("arbiter", &self.arbiter.name())
            .field("substrate", &self.substrate)
            .field("pending", &self.pending.len())
            .field("admissions", &self.state.retired.len())
            .field("batch", &self.batch)
            .field("now_h", &self.now_h())
            .finish()
    }
}

impl<'p> FleetService<'p> {
    pub(crate) fn from_parts(
        devices: Vec<Device>,
        arbiter: Arc<dyn TenantArbiter>,
        substrate: Substrate,
        config: ServiceConfig,
    ) -> Self {
        FleetService {
            devices,
            arbiter,
            substrate,
            config,
            batch: 0,
            pending: Vec::new(),
            state: SessionState::default(),
        }
    }

    /// Devices in the shared pool (= concurrent-task slots).
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Tenants waiting in the admission queue for the next drain.
    pub fn num_pending(&self) -> usize {
        self.pending.len()
    }

    /// Tenants admitted over the service lifetime so far.
    pub fn admissions(&self) -> usize {
        self.state.retired.len()
    }

    /// The arbiter policy's name.
    pub fn arbiter_name(&self) -> &'static str {
        self.arbiter.name()
    }

    /// The fleet clock, in virtual hours since the service started.
    pub fn now_h(&self) -> f64 {
        self.state.clock.now_s / 3600.0
    }

    /// Admits a tenant arriving *now* (at the current fleet clock).
    ///
    /// # Errors
    ///
    /// As [`FleetService::admit_at`].
    pub fn admit(
        &mut self,
        problem: &'p dyn VqaProblem,
        tenant: TenantConfig,
    ) -> Result<TenantHandle, EqcError> {
        let now = self.now_h();
        self.admit_at(problem, tenant, now)
    }

    /// Admits a tenant arriving at `arrival_h` virtual hours on the
    /// fleet clock: fetches the problem's templates from every fleet
    /// device, which transpiles each once for all its tenants (seeded
    /// exactly as a standalone [`Ensemble`](crate::Ensemble) over the
    /// same devices), queues
    /// the tenant for the next [`FleetService::drain`], and returns a
    /// handle valid for the service's whole lifetime.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] for a bad tenant description, a
    /// tenant asking for
    /// [`SimParallelism::Pipeline`](crate::SimParallelism::Pipeline) of
    /// more than one lane (a fleet runs tasks in parallel through
    /// [`FleetBuilder::pooled_workers`](super::FleetBuilder::pooled_workers)
    /// instead) or an arrival before the fleet clock,
    /// [`EqcError::AdmissionQueueFull`] at the configured pending cap,
    /// [`EqcError::EmptyProblem`] / [`EqcError::Transpile`] as in
    /// [`FleetRuntime::admit`](super::FleetRuntime::admit).
    pub fn admit_at(
        &mut self,
        problem: &'p dyn VqaProblem,
        tenant: TenantConfig,
        arrival_h: f64,
    ) -> Result<TenantHandle, EqcError> {
        tenant.validate()?;
        if !(arrival_h.is_finite() && arrival_h >= 0.0) {
            return Err(EqcError::InvalidConfig(format!(
                "tenant arrival must be a finite non-negative virtual hour, got {arrival_h}"
            )));
        }
        if arrival_h < self.now_h() {
            return Err(EqcError::InvalidConfig(format!(
                "tenant arrival at {arrival_h} h is behind the fleet clock ({} h)",
                self.now_h()
            )));
        }
        let lanes = tenant.config.sim_parallelism.lanes();
        if lanes > 1 {
            return Err(EqcError::InvalidConfig(format!(
                "a fleet tenant cannot ask for {lanes} pipeline lanes: a fleet's \
                 parallelism is its substrate's, set it with FleetBuilder::pooled_workers"
            )));
        }
        if let Some(cap) = self.config.max_pending {
            if self.pending.len() >= cap {
                return Err(EqcError::AdmissionQueueFull { capacity: cap });
            }
        }
        if problem.num_params() == 0 || problem.tasks().is_empty() {
            return Err(EqcError::EmptyProblem(problem.name()));
        }
        let mut clients = clients_for(&self.devices, problem)?;
        let probes = probes_for(&tenant.policies, &clients);
        let master = MasterLoop::new(
            problem,
            tenant.config,
            tenant.policies,
            clients.len(),
            probes,
        );
        if self.state.retired.is_empty() {
            self.start_session()?;
        }
        // Every clone of physical device `d` resolves its start times
        // through ledger `d` (shared substrate).
        if let Some((ledgers, _)) = &self.state.shared {
            for (client, ledger) in clients.iter_mut().zip(ledgers) {
                client.backend_mut().attach_shared_queue(Arc::clone(ledger));
            }
        }
        let index = self.state.retired.len();
        self.pending.push(PendingTenant {
            index,
            label: tenant.label.unwrap_or_else(|| format!("tenant{index}")),
            problem,
            shots: tenant.config.shots,
            weight: tenant.weight,
            priority: tenant.priority,
            deadline_h: tenant.deadline_h,
            arrival_h,
            clients,
            master,
        });
        self.state.retired.push(None);
        Ok(self.handle(index))
    }

    /// Opens a session at its first admission: snapshots the devices'
    /// noise-cache counters and, on the shared substrate, builds the
    /// per-device ledgers.
    fn start_session(&mut self) -> Result<(), EqcError> {
        self.state.noise_at_start = self.devices.iter().map(Device::noise_counts).collect();
        if let Substrate::Shared { load } = self.substrate {
            let ledgers = ledgers_for(&self.devices, load)?;
            let tracker = OccupancyTracker::new(&ledgers)?;
            self.state.shared = Some((ledgers, tracker));
        }
        Ok(())
    }

    fn handle(&self, index: usize) -> TenantHandle {
        TenantHandle {
            id: TenantId {
                index,
                batch: self.batch,
            },
        }
    }

    /// Drives the fleet to quiescence: activates queued tenants as
    /// their arrival times come due (idling deterministically over an
    /// empty fleet), retires each the moment its last gather absorbs,
    /// and returns the retired tenants' handles in retirement order.
    /// Poll retired reports with [`FleetService::poll`]; the fleet
    /// clock keeps running for later admissions.
    ///
    /// This is the fleet's one drain path — the batch
    /// [`FleetRuntime::run`](super::FleetRuntime::run) is a drain whose
    /// tenants all arrive at fleet time zero.
    ///
    /// # Errors
    ///
    /// [`EqcError::Internal`] if the drive or the pooled substrate
    /// fails (the failed drain's tenants are discarded).
    pub fn drain(&mut self) -> Result<Vec<TenantHandle>, EqcError> {
        if self.pending.is_empty() {
            return Ok(Vec::new());
        }
        let slots = self.devices.len();
        let state = &mut self.state;
        let execution = match self.substrate {
            Substrate::Pooled { workers } => {
                let total = self.pending.iter().map(|p| p.clients.len()).sum();
                Execution::Pool(resolve_workers(workers, total)?)
            }
            Substrate::DiscreteEvent | Substrate::Shared { .. } => {
                Execution::Inline(state.shared.as_mut().map(|(_, tracker)| tracker))
            }
        };
        let mut batch = std::mem::take(&mut self.pending);
        // Stable by arrival: simultaneous arrivals activate in
        // admission order.
        batch.sort_by(|a, b| a.arrival_h.total_cmp(&b.arrival_h));
        let mut arrivals: VecDeque<Arrival> = batch
            .iter()
            .enumerate()
            .map(|(lane, p)| Arrival {
                lane,
                at_s: p.arrival_h * 3600.0,
            })
            .collect();
        let mut retired_at: Vec<(usize, f64)> = Vec::with_capacity(batch.len());
        let mut lanes: Vec<Lane<'_, 'p>> = batch
            .iter_mut()
            .map(|p| {
                Lane::new(
                    p.problem,
                    p.shots,
                    &mut p.clients,
                    &mut p.master,
                    p.weight,
                    p.priority,
                )
                .with_deadline(p.deadline_h)
                .arriving_at(p.arrival_h * 3600.0)
            })
            .collect();
        let (driven, pool) = drive(
            &mut lanes,
            self.arbiter.as_ref(),
            slots,
            execution,
            &mut state.clock,
            &mut arrivals,
            &mut |lane, at_s| retired_at.push((lane, at_s)),
        );
        let counters: Vec<LaneCounters> = lanes
            .iter_mut()
            .map(|l| std::mem::take(&mut l.counters))
            .collect();
        drop(lanes);
        if let Some(telemetry) = pool {
            state.pool = Some(match state.pool.take() {
                None => telemetry,
                Some(prev) => PoolTelemetry {
                    workers_spawned: prev.workers_spawned.max(telemetry.workers_spawned),
                    queue_depth_max: prev.queue_depth_max.max(telemetry.queue_depth_max),
                    tasks_stolen: prev.tasks_stolen + telemetry.tasks_stolen,
                },
            });
        }
        driven?;
        debug_assert_eq!(retired_at.len(), batch.len(), "drain retires every lane");
        if state.shared.is_some() {
            // Accumulate in lane order, not retirement order, so the
            // per-device sums do not depend on who finished first.
            state.occupancy_queued_s.resize(slots, 0.0);
            for p in &batch {
                for (d, client) in p.clients.iter().enumerate() {
                    state.occupancy_queued_s[d] += client.backend().queued_seconds();
                }
            }
        }

        // Retirement *times* were recorded eagerly; the reports are
        // assembled here, which is byte-identical because a retired
        // lane's master and clients receive no further work.
        let mut handles = Vec::with_capacity(retired_at.len());
        for (lane, at_s) in retired_at {
            let p = &batch[lane];
            let report =
                p.master
                    .report(p.problem, format!("eqc[{}]", p.clients.len()), &p.clients)?;
            let c = &counters[lane];
            let telemetry = TenantTelemetry {
                tenant: p.index,
                label: p.label.clone(),
                weight: p.weight,
                priority: p.priority,
                results_absorbed: c.results_absorbed,
                epochs: report.epochs,
                virtual_hours: report.total_hours,
                epochs_per_hour: report.epochs_per_hour(),
                wait_virtual_hours: c.wait_virtual_hours,
                wait_rounds: c.wait_rounds,
                starved_rounds: c.starved_rounds,
                client_share: c.client_share.clone(),
                queue_wait_hours: queue_wait_hours(&p.clients),
            };
            let record = ServiceTenantRecord {
                tenant: p.index,
                label: p.label.clone(),
                arrival_h: p.arrival_h,
                retired_h: at_s / 3600.0,
                deadline_h: p.deadline_h,
                deadline_met: p.deadline_h.map(|d| report.total_hours <= d),
                epochs: report.epochs,
            };
            self.state.retired[p.index] = Some(RetiredTenant {
                report,
                telemetry,
                record,
            });
            handles.push(self.handle(p.index));
        }
        Ok(handles)
    }

    /// The retired tenant's training report, or `None` while the
    /// tenant is still pending or in flight.
    pub fn poll(&self, handle: TenantHandle) -> Option<&TrainingReport> {
        self.state
            .retired
            .get(handle.index())
            .and_then(|r| r.as_ref())
            .map(|r| &r.report)
    }

    /// Drains any remaining admissions and closes the service,
    /// returning every tenant's report and telemetry (admission order)
    /// plus the service-level telemetry.
    ///
    /// # Errors
    ///
    /// [`EqcError::NoTenants`] when nothing was ever admitted;
    /// [`EqcError::Internal`] as [`FleetService::drain`].
    pub fn close(mut self) -> Result<ServiceOutcome, EqcError> {
        self.finish()
    }

    /// Ends the current session: drains any remaining admissions,
    /// collects the outcome and resets the session state (ledgers,
    /// fleet clock), leaving the device pool ready for a fresh session
    /// under the next generation of handles — on failure too. Noise
    /// caches persist with the devices; the outcome counts this
    /// session's builds and hits. [`FleetService::close`] and every
    /// [`FleetRuntime::run`](super::FleetRuntime::run) end here.
    pub(crate) fn finish(&mut self) -> Result<ServiceOutcome, EqcError> {
        let drained = self.drain();
        let state = std::mem::take(&mut self.state);
        let batch = self.batch;
        self.batch += 1;
        drained?;
        if state.retired.is_empty() {
            return Err(EqcError::NoTenants);
        }
        let admissions = state.retired.len();
        let (occupancy, (snapshot_rebuilds, snapshot_reuses)) = match &state.shared {
            Some((ledgers, tracker)) => (
                occupancy_rows(&self.devices, ledgers, &state.occupancy_queued_s)?,
                tracker.counters(),
            ),
            None => (Vec::new(), (0, 0)),
        };
        let mut reports = Vec::with_capacity(admissions);
        let mut per_tenant = Vec::with_capacity(admissions);
        let mut records = Vec::with_capacity(admissions);
        let mut epochs_total = 0u64;
        let (mut hits, mut misses) = (0usize, 0usize);
        for slot in state.retired {
            let r = slot.ok_or_else(|| {
                EqcError::Internal("service closed with an unretired tenant".into())
            })?;
            epochs_total += r.record.epochs as u64;
            match r.record.deadline_met {
                Some(true) => hits += 1,
                Some(false) => misses += 1,
                None => {}
            }
            reports.push(r.report);
            per_tenant.push(r.telemetry);
            records.push(r.record);
        }
        let span_h = state.clock.now_s / 3600.0;
        let (mut noise_builds, mut noise_hits) = (0, 0);
        for (device, (builds, hits)) in self.devices.iter().zip(&state.noise_at_start) {
            let (now_builds, now_hits) = device.noise_counts();
            noise_builds += now_builds - builds;
            noise_hits += now_hits - hits;
        }
        Ok(ServiceOutcome {
            fleet: FleetOutcome {
                reports,
                telemetry: FleetTelemetry {
                    arbiter: self.arbiter.name().to_string(),
                    devices: self.devices.len(),
                    grant_rounds: state.clock.round,
                    tenants: per_tenant,
                    occupancy,
                    snapshot_rebuilds,
                    snapshot_reuses,
                    shared_noise_builds: noise_builds,
                    shared_noise_hits: noise_hits,
                },
                pool: state.pool,
                batch,
            },
            service: ServiceTelemetry {
                arbiter: self.arbiter.name().to_string(),
                devices: self.devices.len(),
                admissions,
                retirements: records.len(),
                deadline_hits: hits,
                deadline_misses: misses,
                idle_virtual_hours: state.clock.idle_s / 3600.0,
                span_virtual_hours: span_h,
                sustained_epochs_per_hour: if span_h > 0.0 {
                    epochs_total as f64 / span_h
                } else {
                    0.0
                },
                tenants: records,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::FleetRuntime;
    use super::*;
    use crate::config::EqcConfig;
    use vqa::QaoaProblem;

    fn service_cfg(epochs: usize) -> EqcConfig {
        EqcConfig::paper_qaoa().with_epochs(epochs).with_shots(128)
    }

    fn builder() -> super::super::FleetBuilder {
        FleetRuntime::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
    }

    #[test]
    fn admission_queue_cap_is_enforced() {
        let problem = QaoaProblem::maxcut_ring4();
        let mut service = builder()
            .service_with(ServiceConfig::default().with_max_pending(1))
            .expect("builds");
        service
            .admit(&problem, TenantConfig::new(service_cfg(1)))
            .expect("first admission fits");
        assert_eq!(
            service
                .admit(&problem, TenantConfig::new(service_cfg(1)))
                .unwrap_err(),
            EqcError::AdmissionQueueFull { capacity: 1 }
        );
        service.drain().expect("drains");
        service
            .admit(&problem, TenantConfig::new(service_cfg(1)))
            .expect("queue freed by the drain");
    }

    #[test]
    fn arrivals_behind_the_clock_are_rejected() {
        let problem = QaoaProblem::maxcut_ring4();
        let mut service = builder().service().expect("builds");
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                service.admit_at(&problem, TenantConfig::new(service_cfg(1)), bad),
                Err(EqcError::InvalidConfig(_))
            ));
        }
        service
            .admit(&problem, TenantConfig::new(service_cfg(1)))
            .expect("admits");
        service.drain().expect("drains");
        assert!(service.now_h() > 0.0);
        assert!(matches!(
            service.admit_at(&problem, TenantConfig::new(service_cfg(1)), 0.0),
            Err(EqcError::InvalidConfig(_))
        ));
    }

    #[test]
    fn poll_flips_at_retirement_and_close_collects_everything() {
        let problem = QaoaProblem::maxcut_ring4();
        let mut service = builder().service().expect("builds");
        let h = service
            .admit(&problem, TenantConfig::new(service_cfg(2)))
            .expect("admits");
        assert!(service.poll(h).is_none(), "not driven yet");
        assert_eq!(service.num_pending(), 1);
        let retired = service.drain().expect("drains");
        assert_eq!(retired, vec![h]);
        assert_eq!(service.num_pending(), 0);
        let report = service.poll(h).expect("retired");
        assert_eq!(report.epochs, 2);
        let outcome = service.close().expect("closes");
        assert_eq!(outcome.fleet.reports.len(), 1);
        assert_eq!(outcome.try_report(h).expect("fresh handle").epochs, 2);
        assert_eq!(outcome.record(h).expect("recorded").epochs, 2);
        assert!(outcome.record(h).expect("recorded").deadline_met.is_none());
        assert_eq!(outcome.service.admissions, 1);
        assert_eq!(outcome.service.retirements, 1);
        assert!(outcome.service.sustained_epochs_per_hour > 0.0);
    }

    #[test]
    fn zero_arrival_shared_service_replays_the_batch_runtime() {
        let problem = QaoaProblem::maxcut_ring4();
        let cfg = service_cfg(2);
        let run = {
            let mut fleet = builder().shared().build().expect("builds");
            fleet
                .admit(&problem, TenantConfig::new(cfg))
                .expect("admits");
            fleet
                .admit(&problem, TenantConfig::new(cfg.with_seed(11)))
                .expect("admits");
            fleet.run().expect("runs")
        };
        let mut service = builder().shared().service().expect("builds");
        service
            .admit(&problem, TenantConfig::new(cfg))
            .expect("admits");
        service
            .admit(&problem, TenantConfig::new(cfg.with_seed(11)))
            .expect("admits");
        let outcome = service.close().expect("closes");
        assert_eq!(
            format!("{:?}", run.reports),
            format!("{:?}", outcome.fleet.reports),
            "both tenants at t=0: the streaming drain must replay the batch runtime"
        );
        assert_eq!(run.telemetry.tenants, outcome.fleet.telemetry.tenants);
        assert_eq!(
            run.telemetry.occupancy, outcome.fleet.telemetry.occupancy,
            "per-device ledgers must agree between batch run and streamed drain"
        );
    }

    #[test]
    fn closing_an_unused_service_is_a_typed_error() {
        let service = builder().service().expect("builds");
        assert_eq!(service.close().unwrap_err(), EqcError::NoTenants);
    }

    #[test]
    fn zero_pending_cap_and_zero_workers_are_rejected() {
        assert!(matches!(
            builder()
                .service_with(ServiceConfig::default().with_max_pending(0))
                .map(|_| ())
                .unwrap_err(),
            EqcError::InvalidConfig(_)
        ));
        assert!(matches!(
            builder()
                .pooled_workers(0)
                .service()
                .map(|_| ())
                .unwrap_err(),
            EqcError::InvalidConfig(_)
        ));
    }

    #[test]
    fn deadline_outcomes_land_in_the_records() {
        let problem = QaoaProblem::maxcut_ring4();
        let mut service = builder().service().expect("builds");
        let met = service
            .admit(
                &problem,
                TenantConfig::new(service_cfg(1))
                    .deadline(1.0e6)
                    .label("ok"),
            )
            .expect("admits");
        let blown = service
            .admit(
                &problem,
                TenantConfig::new(service_cfg(1).with_seed(11)).deadline(1.0e-6),
            )
            .expect("admits");
        let outcome = service.close().expect("closes");
        assert_eq!(outcome.record(met).unwrap().deadline_met, Some(true));
        assert_eq!(outcome.record(blown).unwrap().deadline_met, Some(false));
        assert_eq!(outcome.service.deadline_hits, 1);
        assert_eq!(outcome.service.deadline_misses, 1);
        assert_eq!(outcome.record(met).unwrap().label, "ok");
    }
}
