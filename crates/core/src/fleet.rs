//! The multi-tenant fleet runtime: many concurrent training sessions
//! over one shared device pool.
//!
//! EQC's premise is that NISQ devices are a shared, queue-contended
//! resource — yet a standalone [`Ensemble`](crate::Ensemble) session
//! exclusively owns its clients for the whole run. This module inverts
//! that ownership: a [`FleetRuntime`] is the long-lived resource that
//! owns the devices, training sessions are *tenants* that borrow
//! capacity from it ([`FleetRuntime::admit`]), and a
//! [`TenantArbiter`] policy arbitrates fleet capacity between them each
//! grant round — the paper's multi-programming idea (Figs. 11/12)
//! lifted from intra-chip to fleet level.
//!
//! Each tenant carries its own [`VqaProblem`], [`EqcConfig`] and policy
//! stack ([`TenantConfig`]); per the equi-ensemble result
//! (arXiv:2509.17982), policy choice is tenant-specific. A tenant's
//! [`MasterLoop`] dispatch stays per-tenant, while client checkout
//! moves to the fleet: tenants publish *ready* clients, and the grant
//! loop dispatches them only up to the capacity the arbiter allocates.
//!
//! ## Determinism
//!
//! The fleet drive is a seeded multi-lane discrete-event loop: the
//! globally earliest event (virtual completion time, ties broken by
//! tenant id then client id) is absorbed next, and each absorb is
//! followed by exactly one arbiter grant round. Consequences, all
//! pinned by tests:
//!
//! * same tenants, same seeds → byte-identical [`FleetOutcome`];
//! * a **single-tenant** fleet run is byte-identical to today's
//!   standalone [`Ensemble::train`](crate::Ensemble::train) — the
//!   [`DiscreteEventExecutor`](crate::DiscreteEventExecutor) and the
//!   [`PooledExecutor`](crate::PooledExecutor) are in fact thin "fleet
//!   of one tenant" wrappers over this module's drive loop;
//! * under the [`Unshared`] arbiter (capacity sharing disabled), every
//!   tenant's report is byte-identical *regardless of co-tenants*,
//!   because no tenant ever constrains another's dispatches and every
//!   tenant owns independent client state.
//!
//! ## One drive, one execution choice
//!
//! Every fleet mode — batch or streaming, any substrate — and both
//! single-session executors run the same resumable stepper, `drive`:
//! `next event → arrival-or-absorb → grant → round += 1`. A dispatch
//! always books its task on the drive thread
//! ([`ClientNode::book_task`]) and queues its event at the exact
//! completion the booking settles, the way the paper's client learns
//! its job's place in the device queue at submission. What varies is
//! where the simulation that computes the result runs:
//!
//! * **Inline** at dispatch (the reference), over private per-clone
//!   queues (the default) or [`FleetBuilder::shared`]: one
//!   [`DeviceQueue`] timeline per physical device, with an occupancy
//!   view feeding occupancy-aware schedulers. The view rides only the
//!   inline drive: a task that runs circuits booked its client's
//!   device, so the dispatch marks that device and the next refresh
//!   copies only the marked ones. With zero load and one tenant the
//!   shared ledgers replay the private ones byte for byte.
//! * **Pooled**, [`FleetBuilder::pooled`]: simulations run on the
//!   bounded worker pool ([`crate::pool`]'s sharded work-stealing
//!   run-queue), and each result comes back into its client's slot.
//!   Both drives hold the same events at the same times, so they take
//!   the same steps in the same order by construction; the pooled one
//!   waits only when the event it absorbs next still has its result
//!   out — parallel wall-clock, byte-identical outcome. That pool is
//!   the process's one thread substrate: the
//!   [`PooledExecutor`](crate::PooledExecutor) rides it with its own
//!   worker count, the
//!   [`DiscreteEventExecutor`](crate::DiscreteEventExecutor) when its
//!   session asks for [`SimParallelism::Pipeline`] of more than one
//!   lane, and the simulator below runs each task's jobs serially. A
//!   fleet tenant cannot ask for lanes of its own: the fleet's
//!   parallelism is its substrate's.
//!
//! ## Streaming
//!
//! The stepper also accepts tenant **arrivals** at future virtual
//! times. The [`service`] submodule layers the always-on
//! [`FleetService`] on that seam: admissions
//! land mid-run, each tenant retires the moment its last gather
//! absorbs. A batch is the special case where every tenant arrives at
//! `t = 0`, so [`FleetRuntime`] is a front over a service it drains
//! once per [`FleetRuntime::run`].
//!
//! ```
//! use eqc_core::policy::arbiter::FairShare;
//! use eqc_core::{EqcConfig, FleetRuntime, TenantConfig};
//! use vqa::QaoaProblem;
//!
//! let problem = QaoaProblem::maxcut_ring4();
//! let mut fleet = FleetRuntime::builder()
//!     .devices(["belem", "manila", "bogota", "quito"])
//!     .arbiter(FairShare)
//!     .build()?;
//! let cfg = EqcConfig::paper_qaoa().with_epochs(2).with_shots(128);
//! let a = fleet.admit(&problem, TenantConfig::new(cfg).weight(2.0))?;
//! let b = fleet.admit(&problem, TenantConfig::new(cfg.with_seed(11)))?;
//! let outcome = fleet.run()?;
//! assert_eq!(outcome.reports.len(), 2);
//! assert!(outcome.telemetry.tenants[a.index()].results_absorbed > 0);
//! assert!(outcome.telemetry.tenants[b.index()].results_absorbed > 0);
//! # Ok::<(), eqc_core::EqcError>(())
//! ```
//!
//! [`VqaProblem`]: vqa::VqaProblem
//! [`EqcConfig`]: crate::EqcConfig
//! [`MasterLoop`]: crate::MasterLoop
//! [`SimParallelism::Pipeline`]: crate::SimParallelism::Pipeline

pub mod service;

use crate::client::{ClientNode, ClientTaskResult, TaskBooking};
use crate::config::{ServiceConfig, TenantConfig};
use crate::ensemble::{resolve_devices, Device, DeviceChoice};
use crate::error::EqcError;
use crate::executor::Event;
use crate::master::{Assignment, MasterLoop};
use crate::policy::arbiter::{ArbiterContext, FairShare, TenantArbiter, TenantLoad, Unshared};
use crate::policy::FleetOccupancy;
use crate::pool::RunQueue;
use crate::report::{
    DeviceOccupancy, FleetTelemetry, PoolTelemetry, TenantTelemetry, TrainingReport,
};
use qdevice::{DeviceQueue, LoadModel, QueueReadHandle, SimTime};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use vqa::VqaProblem;

pub use service::{FleetService, ServiceOutcome, TenantHandle};

/// Handle to one admitted tenant, valid for the next [`FleetRuntime::run`].
///
/// The id carries the fleet's batch generation: indexing a
/// [`FleetOutcome`] from a *different* batch (a stale id held across
/// [`FleetRuntime::run`] calls) panics with a batch-mismatch message
/// instead of silently returning another tenant's report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TenantId {
    index: usize,
    batch: u64,
}

impl TenantId {
    /// The tenant's index into [`FleetOutcome::reports`] and
    /// [`FleetTelemetry::tenants`].
    pub fn index(self) -> usize {
        self.index
    }
}

/// The result of one fleet run: every tenant's training report plus the
/// fleet-level multiplexing telemetry.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetOutcome {
    /// One report per tenant, indexed by [`TenantId::index`]. Each is
    /// exactly what the tenant's session produces — under [`Unshared`],
    /// byte-identical to the same session run standalone.
    pub reports: Vec<TrainingReport>,
    /// Fleet-level telemetry: arbiter, grant rounds, per-tenant
    /// throughput / waits / client-share histograms.
    pub telemetry: FleetTelemetry,
    /// Worker-pool counters when the fleet ran on the pooled substrate.
    pub pool: Option<PoolTelemetry>,
    /// The tenant-batch generation this outcome belongs to (checked by
    /// [`FleetOutcome::report`] / [`FleetOutcome::tenant`] against the
    /// id's generation).
    batch: u64,
}

impl FleetOutcome {
    /// The training report of one tenant.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued for a different tenant batch (stale
    /// handle across [`FleetRuntime::run`] calls) — misattribution is
    /// never silent. Use [`FleetOutcome::try_report`] to handle the
    /// mismatch as a value instead.
    pub fn report(&self, id: TenantId) -> &TrainingReport {
        self.try_report(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The telemetry of one tenant.
    ///
    /// # Panics
    ///
    /// As [`FleetOutcome::report`]; [`FleetOutcome::try_tenant`] is the
    /// non-panicking variant.
    pub fn tenant(&self, id: TenantId) -> &TenantTelemetry {
        self.try_tenant(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The training report of one tenant, rejecting stale handles as a
    /// typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`EqcError::StaleTenant`] when `id` was issued for a different
    /// tenant batch.
    pub fn try_report(&self, id: TenantId) -> Result<&TrainingReport, EqcError> {
        self.check_batch(id)?;
        Ok(&self.reports[id.index()])
    }

    /// The telemetry of one tenant, rejecting stale handles as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// As [`FleetOutcome::try_report`].
    pub fn try_tenant(&self, id: TenantId) -> Result<&TenantTelemetry, EqcError> {
        self.check_batch(id)?;
        Ok(&self.telemetry.tenants[id.index()])
    }

    fn check_batch(&self, id: TenantId) -> Result<(), EqcError> {
        if id.batch == self.batch {
            Ok(())
        } else {
            Err(EqcError::StaleTenant {
                held: id.batch,
                outcome: self.batch,
            })
        }
    }
}

/// Which substrate executes dispatched tasks.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Substrate {
    /// Single-threaded: tasks run inline at dispatch (the reference).
    DiscreteEvent,
    /// Bounded worker pool; `None` resolves to the machine's available
    /// parallelism. Byte-identical outcome to [`Substrate::DiscreteEvent`].
    Pooled { workers: Option<usize> },
    /// One shared [`DeviceQueue`] timeline per *physical* device: every
    /// tenant's clone of device `i` resolves its start times through
    /// ledger `i`, so co-tenant bookings (and the optional exogenous
    /// `load`) lengthen each other's waits. With `LoadModel::None` and a
    /// single tenant this replays [`Substrate::DiscreteEvent`] byte for
    /// byte (pinned by tests).
    Shared { load: LoadModel },
}

impl Substrate {
    /// Validates substrate parameters at build time: pooled worker
    /// counts must be positive, exogenous load generators well-formed.
    pub(crate) fn validate(&self) -> Result<(), EqcError> {
        match self {
            Substrate::Pooled { workers } => crate::pool::resolve_workers(*workers, 1).map(drop),
            Substrate::Shared { load } => load
                .validate()
                .map_err(|e| EqcError::InvalidConfig(e.to_string())),
            _ => Ok(()),
        }
    }
}

/// The long-lived multi-tenant runtime. Build with
/// [`FleetRuntime::builder`], populate with [`FleetRuntime::admit`],
/// drain with [`FleetRuntime::run`]. Devices persist across runs; each
/// run consumes the tenants admitted since the previous one.
///
/// A batch is a stream whose tenants all arrive at fleet time zero, so
/// the runtime is a front over a [`FleetService`] it drains and resets
/// once per run: ledgers and the fleet clock start fresh each run,
/// caches persist with the devices, and identical admissions replay
/// identically (pinned by `fleet_is_reusable_across_runs`).
#[derive(Debug)]
pub struct FleetRuntime<'p> {
    service: FleetService<'p>,
}

impl<'p> FleetRuntime<'p> {
    /// Starts building a fleet.
    pub fn builder() -> FleetBuilder {
        FleetBuilder {
            devices: Vec::new(),
            device_seed: 0,
            arbiter: Arc::new(FairShare),
            substrate: Substrate::DiscreteEvent,
        }
    }

    /// Devices in the shared pool (= concurrent-task slots).
    pub fn num_devices(&self) -> usize {
        self.service.num_devices()
    }

    /// Tenants admitted and waiting for the next run.
    pub fn num_tenants(&self) -> usize {
        self.service.num_pending()
    }

    /// The arbiter policy's name.
    pub fn arbiter_name(&self) -> &'static str {
        self.service.arbiter_name()
    }

    /// Admits a tenant: fetches the problem's templates from every
    /// fleet device, which transpiles each once for all its tenants
    /// (the tenant's clients are seeded exactly as a
    /// standalone [`Ensemble`](crate::Ensemble) over the same devices
    /// would seed them) and initializes its master state. The returned
    /// id indexes the next [`FleetRuntime::run`]'s outcome.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] for a bad tenant description,
    /// [`EqcError::EmptyProblem`] / [`EqcError::Transpile`] as in
    /// [`Ensemble::session`](crate::Ensemble::session).
    pub fn admit(
        &mut self,
        problem: &'p dyn VqaProblem,
        tenant: TenantConfig,
    ) -> Result<TenantId, EqcError> {
        Ok(self.service.admit_at(problem, tenant, 0.0)?.id())
    }

    /// Drives every admitted tenant to completion, multiplexing fleet
    /// capacity between them via the configured arbiter, and consumes
    /// the tenant set (devices persist — admit again to run again). A
    /// failed run discards its tenants.
    ///
    /// # Errors
    ///
    /// [`EqcError::NoTenants`] with nothing admitted;
    /// [`EqcError::Internal`] if the drive or the pooled substrate
    /// fails.
    pub fn run(&mut self) -> Result<FleetOutcome, EqcError> {
        Ok(self.service.finish()?.fleet)
    }
}

/// Builder for [`FleetRuntime`] — the same device surface as
/// [`Ensemble::builder`](crate::Ensemble::builder), plus the arbiter
/// and substrate choices.
#[derive(Clone, Debug)]
pub struct FleetBuilder {
    devices: Vec<DeviceChoice>,
    device_seed: u64,
    arbiter: Arc<dyn TenantArbiter>,
    substrate: Substrate,
}

impl FleetBuilder {
    /// Adds a device from the Table I catalog by name.
    pub fn device(mut self, name: impl Into<String>) -> Self {
        self.devices.push(DeviceChoice::Named(name.into()));
        self
    }

    /// Adds several catalog devices at once.
    pub fn devices<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for name in names {
            self.devices.push(DeviceChoice::Named(name.into()));
        }
        self
    }

    /// Adds a device from an explicit spec (synthesized fleets,
    /// hand-tuned variants).
    pub fn spec(mut self, spec: qdevice::DeviceSpec) -> Self {
        self.devices.push(DeviceChoice::Spec(Box::new(spec)));
        self
    }

    /// Adds several spec-described devices at once.
    pub fn specs<I>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = qdevice::DeviceSpec>,
    {
        for spec in specs {
            self.devices.push(DeviceChoice::Spec(Box::new(spec)));
        }
        self
    }

    /// Adds a custom backend.
    pub fn backend(mut self, backend: qdevice::QpuBackend) -> Self {
        self.devices.push(DeviceChoice::Custom(Box::new(backend)));
        self
    }

    /// Adds the noiseless zero-latency ideal device, sized per tenant
    /// problem at admission.
    pub fn ideal_device(mut self) -> Self {
        self.devices.push(DeviceChoice::Ideal);
        self
    }

    /// Base seed for device noise streams (device `i` draws from
    /// `device_seed + i`), exactly as
    /// [`EnsembleBuilder::device_seed`](crate::EnsembleBuilder::device_seed).
    pub fn device_seed(mut self, seed: u64) -> Self {
        self.device_seed = seed;
        self
    }

    /// Sets the tenant-capacity arbiter (defaults to
    /// [`FairShare`]).
    pub fn arbiter(mut self, arbiter: impl TenantArbiter + 'static) -> Self {
        self.arbiter = Arc::new(arbiter);
        self
    }

    /// Runs the fleet on the bounded worker-pool substrate (one worker
    /// per hardware thread), byte-identical to the single-threaded
    /// discrete-event default.
    pub fn pooled(mut self) -> Self {
        self.substrate = Substrate::Pooled { workers: None };
        self
    }

    /// Runs the fleet on the pooled substrate with an explicit worker
    /// count.
    pub fn pooled_workers(mut self, workers: usize) -> Self {
        self.substrate = Substrate::Pooled {
            workers: Some(workers),
        };
        self
    }

    /// Reverts to the single-threaded discrete-event substrate (the
    /// default) — the inverse of [`FleetBuilder::pooled`], so substrate
    /// choice can be toggled on a shared builder.
    pub fn des(mut self) -> Self {
        self.substrate = Substrate::DiscreteEvent;
        self
    }

    /// Runs the fleet on the shared-queue substrate: one occupancy
    /// ledger per physical device, across tenants, with no exogenous
    /// load. A zero-load single-tenant shared run replays the
    /// discrete-event substrate byte for byte; with co-tenants, each
    /// tenant's bookings lengthen the others' waits.
    pub fn shared(self) -> Self {
        self.shared_with_load(LoadModel::None)
    }

    /// Runs the fleet on the shared-queue substrate with an exogenous
    /// [`LoadModel`] pressuring every device's ledger (the rest of the
    /// cloud's users). The Poisson generator's seed is offset per device
    /// so devices draw independent arrival streams.
    pub fn shared_with_load(mut self, load: LoadModel) -> Self {
        self.substrate = Substrate::Shared { load };
        self
    }

    /// Validates and resolves the fleet's device pool.
    ///
    /// # Errors
    ///
    /// [`EqcError::EmptyEnsemble`] with no devices,
    /// [`EqcError::UnknownDevice`] for names missing from the catalog,
    /// [`EqcError::InvalidConfig`] for a zero pooled worker count or a
    /// malformed shared-substrate load generator.
    pub fn build<'p>(self) -> Result<FleetRuntime<'p>, EqcError> {
        Ok(FleetRuntime {
            service: self.service()?,
        })
    }

    /// Builds an always-on [`FleetService`] over the same device pool,
    /// arbiter and substrate, with the default [`ServiceConfig`].
    ///
    /// # Errors
    ///
    /// As [`FleetBuilder::build`].
    pub fn service<'p>(self) -> Result<FleetService<'p>, EqcError> {
        self.service_with(ServiceConfig::default())
    }

    /// Builds an always-on [`FleetService`] with an explicit
    /// [`ServiceConfig`].
    ///
    /// # Errors
    ///
    /// As [`FleetBuilder::build`], plus [`EqcError::InvalidConfig`] for
    /// an invalid service configuration.
    pub fn service_with<'p>(self, config: ServiceConfig) -> Result<FleetService<'p>, EqcError> {
        config.validate()?;
        self.substrate.validate()?;
        Ok(FleetService::from_parts(
            resolve_devices(self.devices, self.device_seed)?,
            self.arbiter,
            self.substrate,
            config,
        ))
    }
}

/// An idle client waiting for a capacity grant.
struct ReadyClient {
    client: usize,
    /// The tenant's virtual clock when the client became ready.
    enqueued_hours: f64,
    /// The grant round in which the client first becomes eligible.
    enqueued_round: u64,
}

/// Per-lane drive counters, drained into [`TenantTelemetry`] after a
/// run.
#[derive(Clone, Debug, Default)]
pub(crate) struct LaneCounters {
    pub(crate) results_absorbed: u64,
    pub(crate) wait_virtual_hours: f64,
    pub(crate) wait_rounds: u64,
    pub(crate) starved_rounds: u64,
    pub(crate) client_share: Vec<u64>,
}

/// One tenant's lane through a fleet drive: the session halves
/// (clients + master) plus the drive-local event heap, result slots,
/// ready queue and in-flight accounting. The single-session executors
/// build a lane directly from an
/// [`EnsembleSession`](crate::EnsembleSession) — they are fleets of one
/// tenant.
pub(crate) struct Lane<'a, 'p> {
    problem: &'p dyn VqaProblem,
    shots: usize,
    weight: f64,
    priority: i64,
    /// Deadline budget in virtual hours on the tenant's own clock, for
    /// the arbiter's SLO introspection.
    deadline_h: Option<f64>,
    /// The lane's arrival offset on the fleet clock, in virtual
    /// seconds: the tenant's local clock starts at zero (so its report
    /// stays byte-identical to a standalone run), and the fleet orders
    /// its events at `offset_s + local completion`. Zero for batch
    /// lanes, making the global order coincide with the local one.
    offset_s: f64,
    /// Whether the lane's arrival has been processed. Only arrived
    /// lanes hold ready clients or receive grants.
    arrived: bool,
    clients: &'a mut Vec<ClientNode>,
    master: &'a mut MasterLoop,
    heap: BinaryHeap<Event>,
    /// Per client, the result of its task in flight once the task's
    /// simulation has returned it.
    results: Vec<Option<ClientTaskResult>>,
    ready: VecDeque<ReadyClient>,
    in_flight: usize,
    done: bool,
    counters: LaneCounters,
}

impl<'a, 'p> Lane<'a, 'p> {
    /// Builds a lane over a session's halves with arbiter knobs.
    pub(crate) fn new(
        problem: &'p dyn VqaProblem,
        shots: usize,
        clients: &'a mut Vec<ClientNode>,
        master: &'a mut MasterLoop,
        weight: f64,
        priority: i64,
    ) -> Self {
        let n = clients.len();
        Lane {
            problem,
            shots,
            weight,
            priority,
            deadline_h: None,
            offset_s: 0.0,
            arrived: false,
            clients,
            master,
            heap: BinaryHeap::new(),
            results: vec![None; n],
            ready: VecDeque::new(),
            in_flight: 0,
            done: false,
            counters: LaneCounters {
                client_share: vec![0; n],
                ..LaneCounters::default()
            },
        }
    }

    /// Builder-style deadline budget for the arbiter's SLO view.
    pub(crate) fn with_deadline(mut self, deadline_h: Option<f64>) -> Self {
        self.deadline_h = deadline_h;
        self
    }

    /// Builder-style arrival offset on the fleet clock (virtual
    /// seconds).
    pub(crate) fn arriving_at(mut self, offset_s: f64) -> Self {
        self.offset_s = offset_s;
        self
    }

    /// Processes the lane's arrival: queues its initial
    /// one-task-per-client fan-out in scheduler-policy order (the
    /// executors' prime loop), eligible from grant round `round`. A
    /// tenant whose goal is already met retires at arrival.
    fn activate(&mut self, round: u64) -> Result<(), EqcError> {
        self.arrived = true;
        self.done = self.master.is_complete();
        if self.done {
            return Ok(());
        }
        let now_h = self.master.now().as_hours();
        for client in self.master.prime_order()? {
            self.ready.push_back(ReadyClient {
                client,
                enqueued_hours: now_h,
                enqueued_round: round,
            });
        }
        Ok(())
    }

    /// Records the wait a ready client accumulated before dispatch and
    /// takes the next assignment off the tenant's schedule.
    fn take_assignment(
        &mut self,
        r: &ReadyClient,
        round: u64,
    ) -> Result<(Assignment, SimTime), EqcError> {
        let a = self.master.next_assignment()?;
        let submit = self.master.now();
        self.counters.wait_virtual_hours += (submit.as_hours() - r.enqueued_hours).max(0.0);
        self.counters.wait_rounds += round.saturating_sub(r.enqueued_round);
        self.counters.client_share[r.client] += 1;
        self.in_flight += 1;
        Ok((a, submit))
    }

    /// Queues a booked task's event and returns its completion time on
    /// the fleet clock, for the caller to index.
    fn push_event(
        &mut self,
        client: usize,
        completed: SimTime,
        cycle: usize,
        dispatched_at_update: u64,
    ) -> f64 {
        self.heap.push(Event {
            completed,
            client,
            cycle,
            dispatched_at_update,
        });
        self.offset_s + completed.as_secs()
    }

    /// Marks every client the master wants dispatched after absorbing
    /// `freed`'s result as ready for the given grant round.
    fn enqueue_dispatches(&mut self, freed: usize, round: u64) -> Result<(), EqcError> {
        let now_h = self.master.now().as_hours();
        for client in self.master.dispatch_order(freed)? {
            self.ready.push_back(ReadyClient {
                client,
                enqueued_hours: now_h,
                enqueued_round: round,
            });
        }
        Ok(())
    }
}

/// Reusable per-round grant buffers: the arbiter's load snapshot and
/// a lane's ready clients in id order, sorted once per grant and kept
/// in step with its picks. One instance lives for a whole drive, so
/// the drive's share of a grant round allocates nothing once warm
/// (the arbiter's caps are the round's one allocation).
#[derive(Debug, Default)]
pub(crate) struct GrantScratch {
    loads: Vec<TenantLoad>,
    candidates: Vec<usize>,
}

/// Fills the arbiter's load snapshot in place (the buffer keeps its
/// capacity across rounds).
fn fill_loads(lanes: &[Lane<'_, '_>], loads: &mut Vec<TenantLoad>) {
    loads.clear();
    loads.extend(lanes.iter().enumerate().map(|(t, lane)| {
        TenantLoad {
            tenant: t,
            weight: lane.weight,
            priority: lane.priority,
            in_flight: lane.in_flight,
            ready: lane.ready.len(),
            complete: lane.done,
            remaining_epochs: lane
                .master
                .epoch_budget()
                .saturating_sub(lane.master.epochs_completed()),
            elapsed_h: lane.master.now().as_hours(),
            deadline_h: lane.deadline_h,
        }
    }));
}

/// The lane holding the globally next event to absorb: earliest virtual
/// completion *on the fleet clock* (the lane's arrival offset plus the
/// event's local completion), ties broken toward the lower tenant id
/// (within a lane the heap already breaks ties toward the lower client
/// id). The comparator is a total order — no two candidates share a
/// lane index — so the pick is deterministic. With every offset zero
/// (the batch case) this coincides with the local-time order.
///
/// Kept as the from-scratch oracle the [`HeadIndex`] (the stepper's hot
/// path) is pinned against.
#[cfg(test)]
fn next_lane(lanes: &[Lane<'_, '_>]) -> Option<usize> {
    lanes
        .iter()
        .enumerate()
        .filter(|(_, lane)| !lane.done)
        .filter_map(|(t, lane)| {
            lane.heap
                .peek()
                .map(|e| (t, lane.offset_s + e.completed.as_secs()))
        })
        .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(t, _)| t)
}

/// Maps a global time onto the unsigned key whose `<` is exactly
/// [`f64::total_cmp`] (sign-flip trick: negatives reverse, positives
/// shift above them).
fn order_key(global_s: f64) -> u64 {
    let b = global_s.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 0x8000_0000_0000_0000
    }
}

/// Indexed replacement for the per-round linear min-scan over lane
/// heads: a lazy min-heap keyed by `(total-order bits of the global
/// completion, lane)` — exactly the fleet's `(completed, tenant,
/// client)` total order, the within-lane client tiebreak living in each
/// lane's own heap.
///
/// The index is *lazy*: mutations push fresh entries and never remove
/// old ones; [`HeadIndex::next`] validates the top against the live
/// lane head and discards entries that no longer describe it. Every
/// head mutation (dispatch push, absorb pop) is
/// [`note`](HeadIndex::note)d — the current head of a non-done lane
/// then always has a live entry, so the pick equals [`next_lane`]'s
/// (pinned by a test).
struct HeadIndex {
    heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
}

impl HeadIndex {
    /// Indexes the heads the lanes hold already (a resumed stream's).
    fn new(lanes: &[Lane<'_, '_>]) -> Self {
        let mut index = HeadIndex {
            heap: BinaryHeap::with_capacity(lanes.len().saturating_mul(2)),
        };
        for t in 0..lanes.len() {
            index.note(lanes, t);
        }
        index
    }

    /// Re-indexes lane `t`'s current head (after an absorb pop or a
    /// retirement).
    fn note(&mut self, lanes: &[Lane<'_, '_>], t: usize) {
        if lanes[t].done {
            return;
        }
        if let Some(e) = lanes[t].heap.peek() {
            self.note_at(t, lanes[t].offset_s + e.completed.as_secs());
        }
    }

    /// Indexes a just-pushed event on lane `t` at global time
    /// `global_s` (cheaper than re-peeking the lane heap when the
    /// dispatcher already knows the completion).
    fn note_at(&mut self, t: usize, global_s: f64) {
        self.heap.push(std::cmp::Reverse((order_key(global_s), t)));
    }

    /// The globally next `(lane, global completion seconds)`, or `None`
    /// when no non-done lane holds an event. Peeks only — the winning
    /// entry stays indexed until a mutation invalidates it.
    fn next(&mut self, lanes: &[Lane<'_, '_>]) -> Option<(usize, f64)> {
        loop {
            let &std::cmp::Reverse((key, t)) = self.heap.peek()?;
            if lanes[t].done {
                self.heap.pop();
                continue;
            }
            let Some(e) = lanes[t].heap.peek() else {
                self.heap.pop();
                continue;
            };
            let global_s = lanes[t].offset_s + e.completed.as_secs();
            if order_key(global_s) != key {
                self.heap.pop();
                continue;
            }
            return Some((t, global_s));
        }
    }
}

/// Absorbs lane `t`'s earliest event — waiting on `exec` while that
/// event's own result is still being simulated — and queues the
/// follow-up dispatches (the freed client plus any re-admissions) for
/// grant round `round`. Returns the absorbed event's local completion
/// time.
fn absorb_next(
    lanes: &mut [Lane<'_, '_>],
    t: usize,
    round: u64,
    exec: &mut Exec<'_>,
) -> Result<SimTime, EqcError> {
    let client = lanes[t]
        .heap
        .peek()
        .expect("next_lane implies a head")
        .client;
    while lanes[t].results[client].is_none() {
        exec.receive(lanes)?;
    }
    let lane = &mut lanes[t];
    let ev = lane.heap.pop().expect("peeked");
    let result = lane.results[client].take().expect("received");
    let completed = ev.completed;
    lane.in_flight -= 1;
    lane.master.absorb(
        ev.client,
        ev.cycle,
        ev.dispatched_at_update,
        &result,
        lane.problem,
    )?;
    lane.counters.results_absorbed += 1;
    if lane.master.is_complete() {
        lane.done = true;
        lane.ready.clear();
        lane.heap.clear();
    } else {
        lane.enqueue_dispatches(ev.client, round)?;
    }
    Ok(completed)
}

/// The fleet clock a streaming drive advances across calls: grant
/// rounds, the latest absorbed global event time (virtual seconds) and
/// the virtual time the fleet sat empty waiting for an arrival.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DriveClock {
    pub(crate) round: u64,
    pub(crate) now_s: f64,
    pub(crate) idle_s: f64,
}

/// A pending tenant arrival: lane index and fleet-clock arrival time in
/// virtual seconds. Arrival queues must be sorted ascending by `at_s`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Arrival {
    pub(crate) lane: usize,
    pub(crate) at_s: f64,
}

/// The batch case: every lane arrives at fleet time zero, in lane
/// order.
fn arrivals_at_zero(n: usize) -> VecDeque<Arrival> {
    (0..n).map(|lane| Arrival { lane, at_s: 0.0 }).collect()
}

/// Whether the streaming drive has nothing left to do: no pending
/// arrivals and every arrived lane retired.
fn quiescent(lanes: &[Lane<'_, '_>], arrivals: &VecDeque<Arrival>) -> bool {
    arrivals.is_empty() && lanes.iter().all(|l| !l.arrived || l.done)
}

/// Processes every arrival due at the queue head's arrival time (ties
/// activate together, in queue order), accounting idle fleet hours when
/// the clock has to jump forward over an empty fleet. Tenants whose
/// goal is already met retire at activation.
fn activate_due(
    lanes: &mut [Lane<'_, '_>],
    arrivals: &mut VecDeque<Arrival>,
    clock: &mut DriveClock,
    on_retire: &mut dyn FnMut(usize, f64),
) -> Result<(), EqcError> {
    let head = arrivals.front().expect("caller checked a pending arrival");
    let at_s = head.at_s;
    let fleet_empty = lanes.iter().all(|l| !l.arrived || l.done);
    if fleet_empty && at_s > clock.now_s {
        clock.idle_s += at_s - clock.now_s;
    }
    clock.now_s = clock.now_s.max(at_s);
    while let Some(a) = arrivals.front() {
        if a.at_s > at_s {
            break;
        }
        let a = arrivals.pop_front().expect("peeked");
        lanes[a.lane].activate(clock.round)?;
        if lanes[a.lane].done {
            on_retire(a.lane, clock.now_s);
        }
    }
    Ok(())
}

/// One shared occupancy ledger per physical device, over the device's
/// own base queue model and the fleet's exogenous load generator. The
/// Poisson variant's seed is offset by the device index so devices draw
/// independent arrival streams.
pub(crate) fn ledgers_for(
    devices: &[Device],
    load: LoadModel,
) -> Result<Vec<Arc<Mutex<DeviceQueue>>>, EqcError> {
    devices
        .iter()
        .enumerate()
        .map(|(d, dev)| {
            let load = match load {
                LoadModel::Poisson {
                    jobs_per_hour,
                    mean_job_s,
                    seed,
                } => LoadModel::Poisson {
                    jobs_per_hour,
                    mean_job_s,
                    seed: seed.wrapping_add(d as u64),
                },
                other => other,
            };
            DeviceQueue::new(dev.base_queue(), load)
                .map(|q| Arc::new(Mutex::new(q)))
                .map_err(|e| EqcError::InvalidConfig(e.to_string()))
        })
        .collect()
}

/// One tenant's total device-queue wait (admission to start, all jobs
/// on all devices), in hours.
pub(crate) fn queue_wait_hours(clients: &[ClientNode]) -> f64 {
    clients
        .iter()
        .map(|c| c.backend().queued_seconds())
        .sum::<f64>()
        / 3600.0
}

/// The per-device occupancy histogram read off the shared ledgers after
/// a drive, with queue-wait hours supplied per device (summed across
/// tenants by the caller, in a deterministic order).
pub(crate) fn occupancy_rows(
    devices: &[Device],
    ledgers: &[Arc<Mutex<DeviceQueue>>],
    queued_s: &[f64],
) -> Result<Vec<DeviceOccupancy>, EqcError> {
    devices
        .iter()
        .zip(ledgers)
        .enumerate()
        .map(|(d, (dev, ledger))| {
            // Copy the scalars under the lock; assemble the row (label
            // allocation included) outside the critical section.
            let (jobs, booked_s) = {
                let q = ledger
                    .lock()
                    .map_err(|_| EqcError::LedgerPoisoned { device: d })?;
                (q.jobs_booked(), q.booked_busy_s())
            };
            Ok(DeviceOccupancy {
                device: dev.label(),
                jobs,
                booked_hours: booked_s / 3600.0,
                queued_hours: queued_s.get(d).copied().unwrap_or(0.0) / 3600.0,
            })
        })
        .collect()
}

/// A point-in-time [`FleetOccupancy`] snapshot of the shared ledgers.
/// Each device's three scalars are copied under its lock and the
/// snapshot assembled outside the critical section, so a ledger is
/// never held while another is taken (or while vectors grow). A
/// poisoned ledger surfaces as [`EqcError::LedgerPoisoned`], not a
/// panic.
///
/// Kept as the lock-and-allocate oracle the
/// [`OccupancyTracker`] (the drives' hot path) is pinned against.
#[cfg(test)]
fn occupancy_snapshot(ledgers: &[Arc<Mutex<DeviceQueue>>]) -> Result<FleetOccupancy, EqcError> {
    let mut scalars = Vec::with_capacity(ledgers.len());
    for (d, ledger) in ledgers.iter().enumerate() {
        let copied = {
            let q = ledger
                .lock()
                .map_err(|_| EqcError::LedgerPoisoned { device: d })?;
            (q.horizon_s(), q.backlog_s(), q.jobs_booked())
        };
        scalars.push(copied);
    }
    let mut occ = FleetOccupancy::with_devices(ledgers.len());
    for (d, (horizon_s, backlog_s, jobs)) in scalars.into_iter().enumerate() {
        occ.booked_until_s[d] = horizon_s;
        occ.backlog_s[d] = backlog_s;
        occ.jobs_booked[d] = jobs;
    }
    Ok(occ)
}

/// [`FleetOccupancy`] maintenance over the ledgers' read handles: one
/// long-lived fleet view per drive, refreshed per decision point by
/// copying only the devices booked since the last refresh. The drive
/// knows what it booked — an inline task that ran circuits booked its
/// client's device, and client `i` is device `i` — so each dispatch
/// marks that device and nothing else is ever read. The steady state
/// (nothing booked since the last look) touches no ledger, and no
/// refresh allocates.
pub(crate) struct OccupancyTracker {
    handles: Vec<QueueReadHandle>,
    /// Devices booked since the last refresh, each listed once;
    /// `stale[d]` says whether `d` is listed.
    marked: Vec<usize>,
    stale: Vec<bool>,
    view: FleetOccupancy,
    rebuilds: u64,
    reuses: u64,
}

impl OccupancyTracker {
    /// Takes one read handle per ledger (each lock is held once, here,
    /// never again), with every device stale so the first refresh
    /// copies them all. A poisoned ledger surfaces as
    /// [`EqcError::LedgerPoisoned`].
    pub(crate) fn new(ledgers: &[Arc<Mutex<DeviceQueue>>]) -> Result<Self, EqcError> {
        let handles = ledgers
            .iter()
            .enumerate()
            .map(|(d, ledger)| {
                ledger
                    .lock()
                    .map(|q| q.read_handle())
                    .map_err(|_| EqcError::LedgerPoisoned { device: d })
            })
            .collect::<Result<Vec<_>, EqcError>>()?;
        let n = handles.len();
        Ok(OccupancyTracker {
            handles,
            marked: (0..n).collect(),
            stale: vec![true; n],
            view: FleetOccupancy::with_devices(n),
            rebuilds: 0,
            reuses: 0,
        })
    }

    /// Notes that a dispatch booked device `d`.
    fn mark(&mut self, d: usize) {
        if !std::mem::replace(&mut self.stale[d], true) {
            self.marked.push(d);
        }
    }

    /// Brings the fleet view up to date and returns it, copying only
    /// the marked devices.
    fn refresh(&mut self) -> &FleetOccupancy {
        let copied = self.marked.len();
        for d in self.marked.drain(..) {
            let s = self.handles[d].read();
            self.view.booked_until_s[d] = s.booked_until_s;
            self.view.backlog_s[d] = s.backlog_s;
            self.view.jobs_booked[d] = s.jobs_booked;
            self.stale[d] = false;
        }
        self.rebuilds += copied as u64;
        self.reuses += (self.handles.len() - copied) as u64;
        &self.view
    }

    /// Per-device refreshes performed / skipped so far.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.rebuilds, self.reuses)
    }
}

/// Refreshes the fleet view ahead of a step whenever a live lane's
/// scheduler consults queue estimates, and installs it into the
/// `acting` lanes — the ones the step activates or absorbs into, the
/// only lanes that can consult [`MasterLoop::pick_client`] before
/// [`grant`] re-installs the view ahead of each of its picks. Lanes
/// under estimate-free schedulers (the paper's cyclic default) are
/// never touched — their decision sequence, and hence the zero-load
/// single-tenant oracle, stays byte-exact.
fn refresh_occupancy(
    lanes: &mut [Lane<'_, '_>],
    tracker: &mut OccupancyTracker,
    acting: impl IntoIterator<Item = usize>,
) {
    if !lanes.iter().any(|l| !l.done && l.master.wants_occupancy()) {
        return;
    }
    let view = tracker.refresh();
    for t in acting {
        let lane = &mut lanes[t];
        if !lane.done && lane.master.wants_occupancy() {
            lane.master.install_fleet_occupancy(view, lane.offset_s);
        }
    }
}

/// One booked task's simulation travelling through the fleet's
/// run-queue.
struct FleetTask {
    lane: usize,
    client: usize,
    flat: usize,
    booking: TaskBooking,
    params: Vec<f64>,
}

/// Worker-to-coordinator protocol: what a worker computed.
enum FleetMsg {
    Done {
        lane: usize,
        client: usize,
        result: ClientTaskResult,
    },
    Panicked {
        lane: usize,
        client: usize,
    },
}

/// How a drive executes its dispatches — the one choice its callers
/// make. The occupancy view rides only the inline drive, the one that
/// runs over shared ledgers.
pub(crate) enum Execution<'t> {
    /// Tasks run inline at dispatch, refreshing the tracker over shared
    /// ledgers, when there is one, ahead of each scheduling decision.
    Inline(Option<&'t mut OccupancyTracker>),
    /// Tasks are booked at dispatch and simulated on a pool of this
    /// many workers.
    Pool(usize),
}

/// The execution back end a drive runs against, built from its
/// [`Execution`] by [`with_exec`]. Both book every dispatch on the drive
/// thread, so they take the same steps; only when a result arrives
/// differs.
enum Exec<'w> {
    /// Tasks are simulated at dispatch: every result is in its slot
    /// before the next step is chosen.
    Inline {
        tracker: Option<&'w mut OccupancyTracker>,
    },
    /// Tasks are simulated on the worker pool. The drive waits for a
    /// result only when the event it absorbs next is still out.
    Pool {
        /// Each lane's first index in the flat client layout.
        offsets: &'w [usize],
        clients: &'w [Mutex<ClientNode>],
        runq: &'w RunQueue<FleetTask>,
        result_rx: &'w mpsc::Receiver<FleetMsg>,
    },
}

impl Exec<'_> {
    /// The occupancy tracker, on an inline drive over shared ledgers.
    fn tracker(&mut self) -> Option<&mut OccupancyTracker> {
        match self {
            Exec::Inline { tracker } => tracker.as_deref_mut(),
            Exec::Pool { .. } => None,
        }
    }

    /// Dispatches lane `t`'s ready client `r`: books its task on this
    /// thread and queues and indexes its event at the booked
    /// completion. Inline the task is simulated now, and a task that
    /// runs circuits marks the device it booked stale for the tracker;
    /// on the pool its simulation is queued for the workers.
    fn dispatch(
        &mut self,
        lane: &mut Lane<'_, '_>,
        t: usize,
        r: ReadyClient,
        round: u64,
        head: &mut HeadIndex,
    ) -> Result<(), EqcError> {
        let client = r.client;
        let (assignment, submit) = lane.take_assignment(&r, round)?;
        let (problem, shots, task) = (lane.problem, lane.shots, assignment.task);
        let completed = match self {
            Exec::Inline { tracker } => {
                let node = &mut lane.clients[client];
                let result = node.run_task(problem, task, &assignment.params, shots, submit);
                if let Some(tracker) = tracker.as_deref_mut() {
                    if result.circuits_run > 0 {
                        tracker.mark(client);
                    }
                }
                let completed = result.completed;
                lane.results[client] = Some(result);
                completed
            }
            Exec::Pool {
                offsets,
                clients,
                runq,
                ..
            } => {
                let flat = offsets[t] + client;
                // The client is idle: no worker holds its lock.
                let booking = clients[flat]
                    .lock()
                    .map_err(|_| EqcError::Internal(format!("client {flat} poisoned")))?
                    .book_task(problem, task, shots, submit);
                runq.push(
                    flat,
                    FleetTask {
                        lane: t,
                        client,
                        flat,
                        booking,
                        params: assignment.params,
                    },
                );
                booking.completed
            }
        };
        let global_s = lane.push_event(
            client,
            completed,
            assignment.cycle,
            assignment.dispatched_at_update,
        );
        head.note_at(t, global_s);
        Ok(())
    }

    /// Blocks until one more pooled simulation returns and files its
    /// result in its client's slot (a retired lane's is dropped).
    /// Inline every result is filed at dispatch, so being asked to
    /// wait means an event's result never came.
    fn receive(&mut self, lanes: &mut [Lane<'_, '_>]) -> Result<(), EqcError> {
        let Exec::Pool { result_rx, .. } = self else {
            return Err(EqcError::Internal(
                "an event's result was never computed".into(),
            ));
        };
        match result_rx.recv() {
            Ok(FleetMsg::Done {
                lane,
                client,
                result,
            }) => {
                if !lanes[lane].done {
                    lanes[lane].results[client] = Some(result);
                }
                Ok(())
            }
            Ok(FleetMsg::Panicked { lane, client }) => Err(EqcError::Internal(format!(
                "fleet task for tenant {lane} client {client} panicked"
            ))),
            Err(_) => Err(EqcError::Internal("fleet workers exited early".into())),
        }
    }
}

/// One arbiter grant round — a single implementation for every execution
/// (the pooled drive's byte-for-byte replay of the inline one depends
/// on it): allocate capacity, dispatch ready clients up to each lane's
/// cap through `exec`, and account starvation (pending work, nothing
/// running, nothing granted). Dispatch is FIFO, except that over shared
/// ledgers a lane whose scheduler consults occupancy picks *which*
/// ready client each grant dispatches via [`MasterLoop::pick_client`]
/// over the whole ready set (refreshing the tracker per pick, so a
/// co-tenant's booking earlier in the same round is already visible).
#[allow(clippy::too_many_arguments)]
fn grant(
    lanes: &mut [Lane<'_, '_>],
    arbiter: &dyn TenantArbiter,
    slots: usize,
    round: u64,
    scratch: &mut GrantScratch,
    head: &mut HeadIndex,
    exec: &mut Exec<'_>,
) -> Result<(), EqcError> {
    fill_loads(lanes, &mut scratch.loads);
    let caps = arbiter.allocate(&ArbiterContext {
        loads: &scratch.loads,
        total_slots: slots,
        round,
    });
    for (t, lane) in lanes.iter_mut().enumerate() {
        if lane.done || !lane.arrived {
            continue;
        }
        let cap = caps.get(t).copied().unwrap_or(0);
        let picks = exec.tracker().is_some() && lane.master.wants_occupancy();
        // The ready set in id order, kept in step with each pick.
        let candidates = &mut scratch.candidates;
        candidates.clear();
        if picks && lane.in_flight < cap {
            candidates.extend(lane.ready.iter().map(|r| r.client));
            candidates.sort_unstable();
        }
        let mut granted = 0usize;
        while lane.in_flight < cap && !lane.ready.is_empty() {
            let idx = match exec.tracker() {
                Some(tracker) if picks && lane.ready.len() > 1 => {
                    lane.master
                        .install_fleet_occupancy(tracker.refresh(), lane.offset_s);
                    let pick = lane.master.pick_client(candidates)?;
                    let at = candidates
                        .binary_search(&pick)
                        .expect("picked client comes from the ready set");
                    candidates.remove(at);
                    lane.ready
                        .iter()
                        .position(|r| r.client == pick)
                        .expect("picked client comes from the ready set")
                }
                _ => 0,
            };
            let r = lane.ready.remove(idx).expect("index within the ready set");
            exec.dispatch(lane, t, r, round, head)?;
            granted += 1;
        }
        if granted == 0 && lane.in_flight == 0 && !lane.ready.is_empty() {
            lane.counters.starved_rounds += 1;
        }
    }
    Ok(())
}

/// The one resumable fleet stepper, behind every substrate, both fleet
/// modes and both single-session executors. Its one choice is
/// `execution`: inline, with the occupancy tracker over shared ledgers
/// refreshed ahead of each scheduling decision point when there is
/// one, or on an `n`-worker pool, whose telemetry is returned on every
/// path. Batch callers feed
/// [`arrivals_at_zero`] and a fresh clock; the streaming [`service`]
/// keeps the clock across calls and feeds admissions as future
/// arrivals.
///
/// Steps are taken in the fleet total order over *global* times
/// (arrival offset + local completion, ties broken by tenant then
/// client id). An arrival due at or before the next event goes first —
/// so a tenant is live for the grant round that precedes any later
/// absorb — and `on_retire` fires the moment a lane's last gather
/// absorbs: co-tenants never pause. With one lane and the [`Unshared`]
/// arbiter this is exactly Algorithm 1's loop (prime, pop-earliest,
/// absorb, re-dispatch the freed client).
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive(
    lanes: &mut [Lane<'_, '_>],
    arbiter: &dyn TenantArbiter,
    slots: usize,
    execution: Execution<'_>,
    clock: &mut DriveClock,
    arrivals: &mut VecDeque<Arrival>,
    on_retire: &mut dyn FnMut(usize, f64),
) -> (Result<(), EqcError>, Option<PoolTelemetry>) {
    with_exec(lanes, execution, |lanes, exec| {
        let mut head = HeadIndex::new(lanes);
        let mut scratch = GrantScratch::default();
        while !quiescent(lanes, arrivals) {
            let next_event = head.next(lanes);
            #[cfg(test)]
            assert_eq!(
                next_event.map(|(t, _)| t),
                next_lane(lanes),
                "head index diverged from the linear-scan oracle"
            );
            let arrival = arrivals
                .front()
                .map(|a| a.at_s)
                .filter(|&at_s| next_event.is_none_or(|(_, e)| at_s <= e));
            if arrival.is_none() && next_event.is_none() {
                return Err(EqcError::Internal(
                    "event queue drained before the epoch budget".into(),
                ));
            }
            if let Some(tracker) = exec.tracker() {
                match arrival {
                    Some(at_s) => {
                        let due = arrivals.iter().take_while(|a| a.at_s <= at_s);
                        refresh_occupancy(lanes, tracker, due.map(|a| a.lane));
                    }
                    None => refresh_occupancy(lanes, tracker, next_event.map(|(t, _)| t)),
                }
            }
            if arrival.is_some() {
                activate_due(lanes, arrivals, clock, on_retire)?;
            } else {
                let (t, _) = next_event.expect("an event is next");
                let completed = absorb_next(lanes, t, clock.round, exec)?;
                head.note(lanes, t);
                clock.now_s = clock.now_s.max(lanes[t].offset_s + completed.as_secs());
                if lanes[t].done {
                    on_retire(t, clock.now_s);
                }
                if quiescent(lanes, arrivals) {
                    break;
                }
            }
            grant(
                lanes,
                arbiter,
                slots,
                clock.round,
                &mut scratch,
                &mut head,
                exec,
            )?;
            clock.round += 1;
        }
        Ok(())
    })
}

/// Runs `body` against the execution back end `execution` selects:
/// [`Exec::Inline`] with its tracker; for [`Execution::Pool`] of `n`,
/// the lanes' clients are flattened into one mutex-guarded pool that
/// the drive books on and any of `n` scoped worker threads simulates
/// on, and handed back to their lanes on every path — poisoned mutexes
/// still surrender their client.
fn with_exec(
    lanes: &mut [Lane<'_, '_>],
    execution: Execution<'_>,
    body: impl FnOnce(&mut [Lane<'_, '_>], &mut Exec<'_>) -> Result<(), EqcError>,
) -> (Result<(), EqcError>, Option<PoolTelemetry>) {
    let workers = match execution {
        Execution::Inline(tracker) => return (body(lanes, &mut Exec::Inline { tracker }), None),
        Execution::Pool(workers) => workers,
    };
    // The clients move straight into one flat pool, remembering each
    // lane's offset; each lane keeps its vector's capacity to take its
    // clients back, so no intermediate copy is held.
    let mut offsets = Vec::with_capacity(lanes.len());
    let mut meta: Vec<(&dyn VqaProblem, usize)> = Vec::with_capacity(lanes.len());
    let total = lanes.iter().map(|lane| lane.clients.len()).sum();
    let mut clients: Vec<Mutex<ClientNode>> = Vec::with_capacity(total);
    for lane in lanes.iter_mut() {
        offsets.push(clients.len());
        meta.push((lane.problem, lane.shots));
        clients.extend(lane.clients.drain(..).map(Mutex::new));
    }
    let runq: RunQueue<FleetTask> = RunQueue::new(workers);
    let (result_tx, result_rx) = mpsc::channel::<FleetMsg>();

    let driven: Result<(), EqcError> = thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let result_tx = result_tx.clone();
            let (runq, clients, meta) = (&runq, &clients, &meta);
            handles.push(scope.spawn(move || {
                crate::pool::drain_tasks(
                    w,
                    runq,
                    &result_tx,
                    |task: &FleetTask| {
                        let (problem, shots) = meta[task.lane];
                        let mut node = clients[task.flat]
                            .lock()
                            .unwrap_or_else(|_| panic!("client {} poisoned", task.flat));
                        node.simulate_task(problem, &task.booking, &task.params, shots)
                    },
                    |task, result| FleetMsg::Done {
                        lane: task.lane,
                        client: task.client,
                        result,
                    },
                    |task| FleetMsg::Panicked {
                        lane: task.lane,
                        client: task.client,
                    },
                )
            }));
        }
        drop(result_tx);

        let outcome = body(
            lanes,
            &mut Exec::Pool {
                offsets: &offsets,
                clients: &clients,
                runq: &runq,
                result_rx: &result_rx,
            },
        );

        runq.close();
        let mut join_failure = None;
        for (w, h) in handles.into_iter().enumerate() {
            if h.join().is_err() {
                join_failure = Some(EqcError::Internal(format!("fleet worker {w} panicked")));
            }
        }
        outcome.and_then(|()| join_failure.map_or(Ok(()), Err))
    });

    for (i, lane) in lanes.iter_mut().enumerate().rev() {
        let mine = clients.drain(offsets[i]..);
        lane.clients
            .extend(mine.map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner())));
    }
    let (queue_depth_max, tasks_stolen) = runq.counters();
    let telemetry = PoolTelemetry {
        workers_spawned: workers,
        queue_depth_max,
        tasks_stolen,
    };
    (driven, Some(telemetry))
}

/// Drains a standalone session as a fleet of one tenant: a single lane
/// arriving at fleet time zero under the [`Unshared`] arbiter (weight
/// and priority are irrelevant there), inline without an occupancy
/// view or on a pool of `workers`. The one entry point of the
/// single-session executors.
pub(crate) fn drive_session(
    session: &mut crate::ensemble::EnsembleSession<'_>,
    workers: Option<usize>,
) -> (Result<(), EqcError>, Option<PoolTelemetry>) {
    let problem = session.problem();
    let shots = session.config().shots;
    let (clients, master) = session.split_mut();
    let slots = clients.len();
    let mut lanes = [Lane::new(problem, shots, clients, master, 1.0, 0)];
    drive(
        &mut lanes,
        &Unshared,
        slots,
        workers.map_or(Execution::Inline(None), Execution::Pool),
        &mut DriveClock::default(),
        &mut arrivals_at_zero(1),
        &mut |_, _| {},
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EqcConfig, PolicyConfig};
    use crate::ensemble::Ensemble;
    use crate::policy::arbiter::{FairShare, PriorityArbiter, Unshared};
    use crate::policy::ContentionAware;
    use proptest::prelude::*;
    use qdevice::QpuBackend;
    use vqa::QaoaProblem;

    fn fleet_cfg(epochs: usize) -> EqcConfig {
        EqcConfig::paper_qaoa().with_epochs(epochs).with_shots(128)
    }

    /// A fresh ledger over catalog device `name`'s queue model.
    fn ledger(name: &str, load: LoadModel) -> DeviceQueue {
        let queue = qdevice::catalog::by_name(name)
            .expect("catalog device")
            .queue();
        DeviceQueue::new(queue, load).expect("valid queue model")
    }

    #[test]
    fn poisoned_ledger_surfaces_as_typed_error_not_panic() {
        let ledgers: Vec<Arc<Mutex<DeviceQueue>>> = (0..3)
            .map(|_| {
                let queue = ledger("belem", LoadModel::None);
                Arc::new(Mutex::new(queue))
            })
            .collect();
        // Poison the middle ledger by panicking while holding its lock.
        let poisoned = ledgers[1].clone();
        let _ = std::panic::catch_unwind(move || {
            let _guard = poisoned.lock().expect("first lock");
            panic!("poison the ledger");
        });
        match occupancy_snapshot(&ledgers) {
            Err(EqcError::LedgerPoisoned { device: 1 }) => {}
            other => panic!("expected LedgerPoisoned for device 1, got {other:?}"),
        }
        match occupancy_rows(&[], &ledgers[1..], &[]) {
            Ok(rows) => assert!(rows.is_empty(), "no devices zipped, no rows"),
            Err(e) => panic!("zip with no devices must not lock: {e}"),
        }
    }

    #[test]
    fn no_tenants_is_a_typed_error() {
        let mut fleet = FleetRuntime::builder()
            .device("belem")
            .build()
            .expect("builds");
        assert_eq!(fleet.run().unwrap_err(), EqcError::NoTenants);
    }

    #[test]
    fn empty_fleet_and_bad_tenants_are_typed_errors() {
        assert_eq!(
            FleetRuntime::builder().build::<'static>().unwrap_err(),
            EqcError::EmptyEnsemble
        );
        assert!(matches!(
            FleetRuntime::builder()
                .device("belem")
                .pooled_workers(0)
                .build::<'static>()
                .unwrap_err(),
            EqcError::InvalidConfig(_)
        ));
        let problem = QaoaProblem::maxcut_ring4();
        let mut fleet = FleetRuntime::builder()
            .device("belem")
            .build()
            .expect("builds");
        assert!(matches!(
            fleet.admit(&problem, TenantConfig::new(fleet_cfg(2)).weight(0.0)),
            Err(EqcError::InvalidConfig(_))
        ));
        assert_eq!(fleet.num_tenants(), 0, "rejected tenants are not admitted");
    }

    #[test]
    fn single_tenant_fleet_matches_standalone_ensemble() {
        let problem = QaoaProblem::maxcut_ring4();
        let cfg = fleet_cfg(3);
        let standalone = Ensemble::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
            .config(cfg)
            .build()
            .expect("builds")
            .train(&problem)
            .expect("trains");
        let mut fleet = FleetRuntime::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
            .build()
            .expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(cfg))
            .expect("admits");
        let outcome = fleet.run().expect("runs");
        assert_eq!(outcome.reports.len(), 1);
        assert_eq!(
            format!("{standalone:?}"),
            format!("{:?}", outcome.reports[0]),
            "single-tenant fleet must replay the standalone session byte for byte"
        );
        assert!(outcome.telemetry.tenants[0].results_absorbed > 0);
        assert_eq!(outcome.telemetry.tenants[0].wait_virtual_hours, 0.0);
    }

    #[test]
    #[should_panic(expected = "TenantId from fleet batch 0")]
    fn stale_tenant_id_is_rejected_not_misattributed() {
        let problem = QaoaProblem::maxcut_ring4();
        let mut fleet = FleetRuntime::builder()
            .device("belem")
            .build()
            .expect("builds");
        let stale = fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(1)))
            .expect("admits");
        fleet.run().expect("first batch");
        fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(1)))
            .expect("admits again");
        let second = fleet.run().expect("second batch");
        // Indexing the second batch's outcome with the first batch's
        // handle must fail loudly, not return the wrong tenant.
        let _ = second.report(stale);
    }

    #[test]
    fn fleet_is_reusable_across_runs() {
        let problem = QaoaProblem::maxcut_ring4();
        // `.devices(["belem", "manila"]).device_seed(7)`, with a handle
        // on each device kept to read its architecture's template cache.
        let devices: Vec<QpuBackend> = ["belem", "manila"]
            .iter()
            .zip(7..)
            .map(|(name, seed)| {
                qdevice::catalog::by_name(name)
                    .expect("catalog")
                    .backend(seed)
            })
            .collect();
        let transpiles = || -> Vec<u64> {
            devices
                .iter()
                .map(|d| d.architecture_templates().transpiles())
                .collect()
        };
        let mut fleet = devices
            .iter()
            .fold(FleetRuntime::builder(), |b, d| b.backend(d.clone()))
            .build()
            .expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(2)))
            .expect("admits");
        let first = fleet.run().expect("first run");
        assert_eq!(fleet.num_tenants(), 0, "run consumes the tenant batch");
        let built = transpiles();
        fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(2)))
            .expect("re-admits");
        let second = fleet.run().expect("second run");
        assert_eq!(
            first.reports, second.reports,
            "persistent devices, fresh tenants: identical replay"
        );
        // The noise caches persist with the devices, and the telemetry
        // counts each session's own lookups: the replay builds nothing.
        let (t1, t2) = (&first.telemetry, &second.telemetry);
        assert!(t1.shared_noise_builds > 0);
        assert_eq!(t2.shared_noise_builds, 0);
        assert_eq!(
            t2.shared_noise_hits,
            t1.shared_noise_builds + t1.shared_noise_hits
        );
        // So do the transpiles: the replay makes none, and its tenant's
        // clients find every template transpiled.
        assert_eq!(transpiles(), built, "the replay transpiles 0 templates");
        let per_device = problem.templates().len() as u64;
        assert_eq!(built, [per_device; 2]);
        for d in &devices {
            assert_eq!(d.architecture_templates().hits(), per_device);
        }
    }

    #[test]
    fn shared_substrate_single_tenant_replays_des() {
        let problem = QaoaProblem::maxcut_ring4();
        let cfg = fleet_cfg(3);
        let des = {
            let mut fleet = FleetRuntime::builder()
                .devices(["belem", "manila"])
                .device_seed(7)
                .build()
                .expect("builds");
            fleet
                .admit(&problem, TenantConfig::new(cfg))
                .expect("admits");
            fleet.run().expect("runs")
        };
        let mut fleet = FleetRuntime::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
            .shared()
            .build()
            .expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(cfg))
            .expect("admits");
        let shared = fleet.run().expect("runs");
        assert_eq!(
            format!("{:?}", des.reports),
            format!("{:?}", shared.reports),
            "zero exogenous load, one tenant: the shared ledger must replay DES byte for byte"
        );
        assert_eq!(des.telemetry.tenants, shared.telemetry.tenants);
        assert_eq!(des.telemetry.grant_rounds, shared.telemetry.grant_rounds);
        // Occupancy is the one deliberate divergence: the byte-isolated
        // substrate has no per-device ledger to report.
        assert!(des.telemetry.occupancy.is_empty());
        assert_eq!(shared.telemetry.occupancy.len(), 2);
        for row in &shared.telemetry.occupancy {
            assert!(row.jobs > 0, "every device served jobs: {row:?}");
            assert!(row.booked_hours > 0.0);
        }
        assert!(shared.telemetry.tenants[0].queue_wait_hours > 0.0);
    }

    #[test]
    fn co_tenant_load_lengthens_waits_on_shared_substrate() {
        let problem = QaoaProblem::maxcut_ring4();
        let solo_wait = {
            let mut fleet = FleetRuntime::builder()
                .devices(["belem", "manila"])
                .device_seed(7)
                .arbiter(Unshared)
                .shared()
                .build()
                .expect("builds");
            fleet
                .admit(&problem, TenantConfig::new(fleet_cfg(2).with_seed(11)))
                .expect("admits");
            fleet.run().expect("runs").telemetry.tenants[0].queue_wait_hours
        };
        // Same tenant B, but tenant A now books into the same device
        // ledgers. The arbiter is still Unshared — the ledger is the
        // only coupling — so any extra wait is pure queue contention.
        let mut fleet = FleetRuntime::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
            .arbiter(Unshared)
            .shared()
            .build()
            .expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(3)))
            .expect("admits");
        fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(2).with_seed(11)))
            .expect("admits");
        let joint = fleet.run().expect("runs");
        let joint_wait = joint.telemetry.tenants[1].queue_wait_hours;
        assert!(
            joint_wait > solo_wait,
            "co-tenant load must lengthen B's queue waits: solo {solo_wait} vs joint {joint_wait}"
        );
    }

    #[test]
    fn contention_aware_routes_around_co_tenant_pressure() {
        let problem = QaoaProblem::maxcut_ring4();
        let wait_with = |scheduler: PolicyConfig| {
            let mut fleet = FleetRuntime::builder()
                .devices(["belem", "manila", "bogota", "quito"])
                .device_seed(7)
                .arbiter(FairShare)
                .shared()
                .build()
                .expect("builds");
            fleet
                .admit(&problem, TenantConfig::new(fleet_cfg(3)))
                .expect("admits");
            fleet
                .admit(
                    &problem,
                    TenantConfig::new(fleet_cfg(2).with_seed(11)).policies(scheduler),
                )
                .expect("admits");
            fleet.run().expect("runs").telemetry.tenants[1].queue_wait_hours
        };
        let fifo = wait_with(PolicyConfig::default());
        let aware = wait_with(PolicyConfig::default().with_scheduler(ContentionAware::default()));
        assert!(
            aware < fifo,
            "contention-aware dispatch should route around the co-tenant's \
             booked devices: aware {aware} vs cyclic {fifo}"
        );
    }

    #[test]
    fn unshared_tenants_are_isolated_and_priority_accounts_starvation() {
        let problem = QaoaProblem::maxcut_ring4();
        let solo = {
            let mut fleet = FleetRuntime::builder()
                .devices(["belem", "manila"])
                .device_seed(7)
                .arbiter(Unshared)
                .build()
                .expect("builds");
            fleet
                .admit(&problem, TenantConfig::new(fleet_cfg(3)))
                .expect("admits");
            fleet.run().expect("runs").reports.remove(0)
        };
        let mut fleet = FleetRuntime::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
            .arbiter(Unshared)
            .build()
            .expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(3)))
            .expect("admits");
        fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(2).with_seed(11)))
            .expect("admits");
        let outcome = fleet.run().expect("runs");
        assert_eq!(
            format!("{solo:?}"),
            format!("{:?}", outcome.reports[0]),
            "unshared tenants must be byte-identical regardless of co-tenants"
        );

        // Strict priority on the same pair: the low-priority tenant
        // stalls (and its starvation is accounted) until the
        // high-priority tenant completes, but still finishes.
        let mut fleet = FleetRuntime::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
            .arbiter(PriorityArbiter)
            .build()
            .expect("builds");
        let high = fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(3)).priority(5))
            .expect("admits");
        let low = fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(2).with_seed(11)))
            .expect("admits");
        let outcome = fleet.run().expect("runs");
        assert_eq!(outcome.report(high).epochs, 3);
        assert_eq!(outcome.report(low).epochs, 2);
        assert!(
            outcome.tenant(low).starved_rounds > 0,
            "low priority should report starvation: {:?}",
            outcome.tenant(low)
        );
        assert!(outcome.tenant(low).wait_rounds > 0);
        assert_eq!(outcome.tenant(high).starved_rounds, 0);
    }

    #[test]
    fn noise_sharing_is_byte_invisible_and_builds_less() {
        // Two co-tenants under `Unshared` on the discrete-event
        // substrate: every clone of a physical device resolves its noise
        // builds through that device's one cache. Each tenant's report
        // must still be its standalone `Ensemble::train` byte for byte —
        // a session on devices of its own — while the second tenant's
        // clones are served the first one's builds.
        let problem = QaoaProblem::maxcut_ring4();
        let configs = [fleet_cfg(3), fleet_cfg(2).with_seed(11)];
        let mut fleet = FleetRuntime::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
            .arbiter(Unshared)
            .build()
            .expect("builds");
        let ids: Vec<TenantId> = configs
            .iter()
            .map(|&cfg| {
                fleet
                    .admit(&problem, TenantConfig::new(cfg))
                    .expect("admits")
            })
            .collect();
        let outcome = fleet.run().expect("runs");
        for (id, cfg) in ids.into_iter().zip(configs) {
            let standalone = Ensemble::builder()
                .devices(["belem", "manila"])
                .device_seed(7)
                .config(cfg)
                .build()
                .expect("builds")
                .train(&problem)
                .expect("trains");
            assert_eq!(
                format!("{standalone:?}"),
                format!("{:?}", outcome.report(id)),
                "a shared noise cache must be invisible in the training results"
            );
        }
        assert!(
            outcome.telemetry.shared_noise_hits > 0,
            "co-tenant clones must hit each other's builds"
        );
    }

    #[test]
    fn shared_drive_hot_path_counters_are_live() {
        // A contention-aware tenant forces per-pick occupancy refreshes,
        // so both tracker counters and both noise-cache counters must
        // move on a multi-tenant shared run.
        let problem = QaoaProblem::maxcut_ring4();
        let mut fleet = FleetRuntime::builder()
            .devices(["belem", "manila", "bogota", "quito"])
            .device_seed(7)
            .arbiter(FairShare)
            .shared()
            .build()
            .expect("builds");
        fleet
            .admit(&problem, TenantConfig::new(fleet_cfg(2)))
            .expect("admits");
        fleet
            .admit(
                &problem,
                TenantConfig::new(fleet_cfg(2).with_seed(11))
                    .policies(PolicyConfig::default().with_scheduler(ContentionAware::default())),
            )
            .expect("admits");
        let outcome = fleet.run().expect("runs");
        let t = &outcome.telemetry;
        assert!(
            t.snapshot_rebuilds > 0,
            "refreshes must copy changed devices"
        );
        assert!(
            t.snapshot_reuses > 0,
            "most refreshes should find most devices unchanged: {t:?}"
        );
        assert!(t.shared_noise_builds > 0);
        assert!(
            t.shared_noise_hits > 0,
            "co-tenants must share noise builds"
        );
        let printed = format!("{t}");
        assert!(
            printed.contains("snapshot_rebuilds=") && printed.contains("shared_noise_hits="),
            "telemetry display must surface the hot-path counters: {printed}"
        );
    }

    #[test]
    fn a_dispatch_that_runs_no_circuit_leaves_every_device_clean() {
        // Parameter 0 is absent from this ansatz and its Hamiltonian
        // measures in one group, so the cyclic schedule's first task
        // returns at its submit time without a job, and its second
        // (parameter 1) books its client's device.
        let mut ansatz = qcircuit::CircuitBuilder::new(2);
        ansatz.ry_sym(0, 1).ry_sym(1, 1).cx(0, 1);
        let graph = vqa::Graph::from_edges(2, &[(0, 1)]);
        let problem = vqa::VqeProblem::new(
            "param-0-absent",
            vqa::hamiltonians::maxcut(&graph),
            ansatz.build(),
        );
        let ensemble = Ensemble::builder()
            .devices(["belem", "manila"])
            .device_seed(7)
            .config(fleet_cfg(1))
            .build()
            .expect("builds");
        let mut session = ensemble.session(&problem).expect("a fresh session");
        let (clients, master) = session.split_mut();
        let ledgers: Vec<Arc<Mutex<DeviceQueue>>> = clients
            .iter_mut()
            .map(|client| {
                let queue = ledger("belem", LoadModel::None);
                let ledger = Arc::new(Mutex::new(queue));
                client
                    .backend_mut()
                    .attach_shared_queue(Arc::clone(&ledger));
                ledger
            })
            .collect();
        let mut tracker = OccupancyTracker::new(&ledgers).expect("fresh ledgers");
        tracker.refresh();
        let mut lanes = [Lane::new(&problem, 128, clients, master, 1.0, 0)];
        lanes[0].activate(0).expect("activates");
        let mut head = HeadIndex::new(&lanes);
        let mut exec = Exec::Inline {
            tracker: Some(&mut tracker),
        };
        let mut dispatch = |lane: &mut Lane<'_, '_>, exec: &mut Exec<'_>| {
            let r = lane.ready.pop_front().expect("a ready client");
            let client = r.client;
            exec.dispatch(lane, 0, r, 0, &mut head).expect("dispatches");
            let event = lane
                .heap
                .iter()
                .find(|e| e.client == client)
                .expect("queued");
            let result = lane.results[client].clone().expect("simulated at dispatch");
            (client, event.completed, result)
        };

        let (_, completed, result) = dispatch(&mut lanes[0], &mut exec);
        assert_eq!(result.circuits_run, 0, "parameter 0 runs no circuit");
        assert_eq!(
            (completed, result.completed, result.gradient),
            (result.submitted, result.submitted, 0.0),
            "it completes at its submit time with a zero gradient"
        );
        assert_eq!(tracker_marks(&mut exec), (vec![], vec![false; 2]));

        let (client, completed, result) = dispatch(&mut lanes[0], &mut exec);
        assert!(result.circuits_run > 0, "parameter 1 runs its shift pair");
        assert!(completed == result.completed && completed > result.submitted);
        let mut stale = vec![false; 2];
        stale[client] = true;
        assert_eq!(tracker_marks(&mut exec), (vec![client], stale));
    }

    /// The tracker's marked devices and stale flags.
    fn tracker_marks(exec: &mut Exec<'_>) -> (Vec<usize>, Vec<bool>) {
        let tracker = exec.tracker().expect("inline over shared ledgers");
        (tracker.marked.clone(), tracker.stale.clone())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random `admit`/`book`/`enqueue`/`decay_to` interleavings over
        /// ledgers with three different load models, each op marking
        /// the ledger it touched as a dispatch marks the device it
        /// booked: after every mutation, the tracker's refreshed view
        /// must equal the from-scratch lock-and-allocate oracle field
        /// for field.
        #[test]
        fn incremental_occupancy_refresh_matches_the_snapshot_oracle(
            ops in proptest::collection::vec(
                (0..3usize, 0..4u32, 0.0..400.0f64, 0.0..1.0f64),
                2..60,
            ),
        ) {
            use qdevice::LoadCurve;
            let ledgers: Vec<Arc<Mutex<DeviceQueue>>> = [
                ledger("belem", LoadModel::None),
                ledger(
                    "manila",
                    LoadModel::Bursty {
                        burst_busy_s: 40.0,
                        interval_s: 90.0,
                        phase_s: 10.0,
                    },
                ),
                ledger(
                    "lima",
                    LoadModel::Diurnal {
                        busy_per_hour: 120.0,
                        curve: LoadCurve::daily(0.5, 0.0),
                    },
                ),
            ]
            .into_iter()
            .map(|q| Arc::new(Mutex::new(q)))
            .collect();
            let n_ops = ops.len();
            let mut tracker = OccupancyTracker::new(&ledgers).expect("fresh ledgers");
            for (d, kind, t, x) in ops {
                let t = SimTime::from_secs(t);
                {
                    let mut q = ledgers[d].lock().expect("not poisoned");
                    match kind {
                        0 => {
                            let _ = q.admit(t, x);
                        }
                        1 => q.book(t, x * 50.0),
                        2 => {
                            let _ = q.enqueue(t, x * 50.0);
                        }
                        _ => q.decay_to(t),
                    }
                }
                tracker.mark(d);
                let oracle = occupancy_snapshot(&ledgers).expect("not poisoned");
                let view = tracker.refresh();
                prop_assert_eq!(&view.booked_until_s, &oracle.booked_until_s);
                prop_assert_eq!(&view.backlog_s, &oracle.backlog_s);
                prop_assert_eq!(&view.jobs_booked, &oracle.jobs_booked);
            }
            // The first refresh copies every device; each later one
            // copies the one ledger its op touched and reuses the
            // other two.
            let later = n_ops as u64 - 1;
            prop_assert_eq!(tracker.counters(), (3 + later, 2 * later));
        }
    }
}
