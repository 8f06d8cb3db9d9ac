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
//! ## One drive, two axes
//!
//! Every fleet mode — batch or streaming, any substrate — and both
//! single-session executors run the same resumable stepper, `drive`:
//! `next event → arrival-or-absorb → grant → round += 1`. Only two
//! things vary, and they are orthogonal:
//!
//! * **Ledger ownership.** Private per-clone queues (the default), or
//!   [`FleetBuilder::shared`]: one [`DeviceQueue`] timeline per
//!   physical device, with an incremental occupancy view feeding
//!   occupancy-aware schedulers. With zero load and one tenant the
//!   shared ledgers replay the private ones byte for byte.
//! * **Execution.** Inline at dispatch (the reference), or
//!   [`FleetBuilder::pooled`]: tasks run on the bounded worker pool
//!   ([`crate::pool`]'s sharded work-stealing run-queue) while the
//!   coordinator absorbs them in the exact discrete-event total order
//!   via conservative queue-model lookahead — parallel wall-clock,
//!   byte-identical outcome. That pool is the process's one thread
//!   substrate: the [`PooledExecutor`](crate::PooledExecutor) rides it
//!   with its own worker count, the
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

use crate::client::{ClientNode, ClientTaskResult};
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
use qdevice::{DeviceQueue, LoadModel, QueueModel, QueueReadHandle, SimTime};
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
            Substrate::Pooled { workers: Some(0) } => Err(EqcError::InvalidConfig(
                "pool worker count must be positive".into(),
            )),
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
/// (clients + master) plus the drive-local event heap, ready queue and
/// in-flight accounting. The single-session executors build a lane
/// directly from an [`EnsembleSession`](crate::EnsembleSession) — they
/// are fleets of one tenant.
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

    /// Queues a completed task's event and returns its completion time
    /// on the fleet clock, for the caller to index.
    fn push_event(
        &mut self,
        client: usize,
        result: ClientTaskResult,
        cycle: usize,
        dispatched_at_update: u64,
    ) -> f64 {
        let global_s = self.offset_s + result.completed.as_secs();
        self.heap.push(Event {
            completed: result.completed,
            client,
            result,
            cycle,
            dispatched_at_update,
        });
        global_s
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
/// the shared grant loop's sorted candidate list. One instance lives
/// for a whole drive, so the steady state of every grant round is
/// allocation-free.
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
/// head mutation (dispatch push, absorb pop, pooled receive) must be
/// [`note`](HeadIndex::note)d — the current head of a non-done lane
/// then always has a live entry, so the pick equals [`next_lane`]'s
/// (pinned by a test). A drained index rebuilds from the lanes as a
/// safety net.
struct HeadIndex {
    heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
}

impl HeadIndex {
    fn new(lanes: &[Lane<'_, '_>]) -> Self {
        let mut index = HeadIndex {
            heap: BinaryHeap::with_capacity(lanes.len().saturating_mul(2)),
        };
        index.rebuild(lanes);
        index
    }

    fn rebuild(&mut self, lanes: &[Lane<'_, '_>]) {
        for t in 0..lanes.len() {
            self.note(lanes, t);
        }
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
        let mut rebuilt = false;
        loop {
            let Some(&std::cmp::Reverse((key, t))) = self.heap.peek() else {
                // A missed note would strand a head; rebuilding from
                // the lanes (once) restores the invariant.
                if rebuilt || !lanes.iter().any(|l| !l.done && !l.heap.is_empty()) {
                    return None;
                }
                self.rebuild(lanes);
                rebuilt = true;
                continue;
            };
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

/// Absorbs lane `t`'s earliest event and queues the follow-up
/// dispatches (the freed client plus any re-admissions) for grant round
/// `round`. Returns the absorbed event's local completion time.
fn absorb_next(lanes: &mut [Lane<'_, '_>], t: usize, round: u64) -> Result<SimTime, EqcError> {
    let lane = &mut lanes[t];
    let ev = lane.heap.pop().expect("next_lane implies a head");
    let completed = ev.completed;
    lane.in_flight -= 1;
    lane.master.absorb(
        ev.client,
        ev.cycle,
        ev.dispatched_at_update,
        &ev.result,
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
/// Kept as the lock-and-allocate oracle the incremental
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

/// Incremental [`FleetOccupancy`] maintenance over the ledgers'
/// lock-free read handles: one long-lived fleet view per drive,
/// refreshed per decision point by copying only the devices whose
/// published version changed since the last refresh. The steady state
/// (no co-tenant booked since the last look) is allocation-free and
/// lock-free — the old path locked all N ledgers and allocated a fresh
/// [`FleetOccupancy`] per scheduler pick.
pub(crate) struct OccupancyTracker {
    handles: Vec<QueueReadHandle>,
    /// Last version folded into `view` per device (`u64::MAX` forces
    /// the first refresh to copy everything).
    versions: Vec<u64>,
    view: FleetOccupancy,
    rebuilds: u64,
    reuses: u64,
}

impl OccupancyTracker {
    /// Takes one read handle per ledger (each lock is held once, here,
    /// never again). A poisoned ledger surfaces as
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
            versions: vec![u64::MAX; n],
            view: FleetOccupancy::with_devices(n),
            rebuilds: 0,
            reuses: 0,
        })
    }

    /// Brings the fleet view up to date and returns it. Devices whose
    /// published version is unchanged are skipped entirely.
    fn refresh(&mut self) -> &FleetOccupancy {
        for (d, handle) in self.handles.iter().enumerate() {
            if handle.version() == self.versions[d] {
                self.reuses += 1;
                continue;
            }
            let s = handle.read();
            self.view.booked_until_s[d] = s.booked_until_s;
            self.view.backlog_s[d] = s.backlog_s;
            self.view.jobs_booked[d] = s.jobs_booked;
            self.versions[d] = s.version;
            self.rebuilds += 1;
        }
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

/// What the coordinator knows about one in-flight task's eventual
/// virtual completion time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum InflightBound {
    /// Completion is strictly later than this many virtual seconds
    /// (normal tasks: queue-wait floor plus overhead, execution still to
    /// come).
    Above(f64),
    /// Completion is exactly this many virtual seconds (a task whose
    /// parameter is absent from the circuit returns at its submit time
    /// without touching the device).
    Exactly(f64),
}

impl InflightBound {
    /// The bound shifted onto the fleet clock by a lane's arrival
    /// offset (a zero offset is exact float identity, preserving the
    /// batch replay).
    fn offset_by(self, offset_s: f64) -> InflightBound {
        match self {
            InflightBound::Above(lb) => InflightBound::Above(lb + offset_s),
            InflightBound::Exactly(t) => InflightBound::Exactly(t + offset_s),
        }
    }

    /// The earliest completion the bound still allows, in the bound's
    /// own clock.
    fn floor_s(self) -> f64 {
        match self {
            InflightBound::Above(lb) => lb,
            InflightBound::Exactly(t) => t,
        }
    }
}

/// Completion bound for a task dispatched at `submit` on a device with
/// queue model `queue`. `QpuBackend::start_time` waits at least
/// `0.8 * wait_s(submit) + overhead_s` after submission, and execution
/// only adds to that.
pub(crate) fn bound_for(queue: &QueueModel, submit: SimTime, instant: bool) -> InflightBound {
    if instant {
        InflightBound::Exactly(submit.as_secs())
    } else {
        InflightBound::Above(submit.as_secs() + 0.8 * queue.wait_s(submit) + queue.overhead_s)
    }
}

/// Whether `assignment` will return instantly (its parameter does not
/// occur in the slice's circuits, so clients skip the device — see
/// [`ClientNode::run_task`]). Transpilation preserves occurrence
/// structure, so this is client-independent.
pub(crate) fn is_instant(problem: &dyn VqaProblem, assignment: &Assignment) -> bool {
    let templates = problem.slice_templates(assignment.task.slice);
    templates.first().is_none_or(|&t| {
        problem.templates()[t]
            .occurrences_of(assignment.task.param)
            .is_empty()
    })
}

/// Whether event `(completed, at)` precedes every completion the bound
/// at `bound_at` still allows, under the fleet's `(completed, tenant,
/// client)` total order.
pub(crate) fn precedes(
    completed: f64,
    at: (usize, usize),
    bound: InflightBound,
    bound_at: (usize, usize),
) -> bool {
    match bound {
        // Strict `<`: do not lean on execution time being non-zero.
        InflightBound::Above(lb) => completed < lb,
        InflightBound::Exactly(t) => completed < t || (completed == t && at < bound_at),
    }
}

/// One dispatched task travelling through the fleet's run-queue.
struct FleetTask {
    lane: usize,
    client: usize,
    flat: usize,
    assignment: Assignment,
    submit: SimTime,
}

/// Worker-to-coordinator protocol.
enum FleetMsg {
    Done {
        lane: usize,
        client: usize,
        result: ClientTaskResult,
        cycle: usize,
        dispatched_at_update: u64,
    },
    Panicked {
        lane: usize,
        client: usize,
    },
}

/// Maps a flat client index back to `(lane, client)`.
fn locate(offsets: &[usize], flat: usize) -> (usize, usize) {
    let lane = offsets.partition_point(|&o| o <= flat) - 1;
    (lane, flat - offsets[lane])
}

/// Where dispatched tasks execute — the drive's second axis (the first
/// being whether an [`OccupancyTracker`] over shared ledgers rides
/// along).
enum Exec<'w> {
    /// Tasks run inline at dispatch, so every completion is queued
    /// before the next step is chosen: the earliest known step is
    /// always provably next and there is never anything to wait for.
    Inline,
    /// Tasks run on the worker pool. The coordinator takes a step only
    /// once the conservative queue-model lookahead proves no in-flight
    /// task can precede it, and otherwise blocks on the next worker
    /// result — the drive therefore replays [`Exec::Inline`]'s
    /// activate/grant/absorb sequence exactly.
    Pool {
        /// Each lane's first index in the flat client layout.
        offsets: &'w [usize],
        queue_models: &'w [Vec<QueueModel>],
        runq: &'w RunQueue<FleetTask>,
        result_rx: &'w mpsc::Receiver<FleetMsg>,
        /// Completion bound of each client's in-flight task, by flat
        /// index.
        bounds: Vec<Option<InflightBound>>,
        in_system: usize,
    },
}

impl Exec<'_> {
    /// Dispatches lane `t`'s ready client `r`: inline the task runs now
    /// and its completion is queued and indexed; on the pool it is
    /// queued for the workers with its completion bound registered for
    /// the lookahead (its event enters the head index on receive — a
    /// pooled dispatch does not yet know its event time).
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
        match self {
            Exec::Inline => {
                let result = lane.clients[client].run_task(
                    lane.problem,
                    assignment.task,
                    &assignment.params,
                    lane.shots,
                    submit,
                );
                let global_s = lane.push_event(
                    client,
                    result,
                    assignment.cycle,
                    assignment.dispatched_at_update,
                );
                head.note_at(t, global_s);
            }
            Exec::Pool {
                offsets,
                queue_models,
                runq,
                bounds,
                in_system,
                ..
            } => {
                let instant = is_instant(lane.problem, &assignment);
                let flat = offsets[t] + client;
                bounds[flat] = Some(bound_for(&queue_models[t][client], submit, instant));
                *in_system += 1;
                runq.push(
                    flat,
                    FleetTask {
                        lane: t,
                        client,
                        flat,
                        assignment,
                        submit,
                    },
                );
            }
        }
        Ok(())
    }

    /// Whether the step at fleet time `global_s` — lane event
    /// `Some((tenant, client))`, or an arrival (`None`), which wins
    /// ties with events — provably precedes every completion a live
    /// in-flight task still allows. (Bounds of retired lanes are
    /// ignored: their remaining events are discarded on receive,
    /// exactly as the inline drive never pops a done lane's heap.)
    fn provably_next(
        &self,
        lanes: &[Lane<'_, '_>],
        global_s: f64,
        at: Option<(usize, usize)>,
    ) -> bool {
        let Exec::Pool {
            offsets, bounds, ..
        } = self
        else {
            return true;
        };
        bounds.iter().enumerate().all(|(flat, b)| {
            let Some(bound) = b else {
                return true;
            };
            let bound_at = locate(offsets, flat);
            let lane = &lanes[bound_at.0];
            if lane.done {
                return true;
            }
            let bound = bound.offset_by(lane.offset_s);
            match at {
                Some(at) => precedes(global_s, at, bound, bound_at),
                None => bound.floor_s() >= global_s,
            }
        })
    }

    /// Called when no step is provably next: blocks until one more
    /// in-flight task's completion is known. With nothing in flight
    /// (always, inline) every bound is clear and any known step is
    /// provable, so being asked to wait means the fleet ran out of
    /// events before its tenants completed.
    fn wait(&mut self, lanes: &mut [Lane<'_, '_>], head: &mut HeadIndex) -> Result<(), EqcError> {
        let Exec::Pool {
            offsets,
            result_rx,
            bounds,
            in_system: in_system @ 1..,
            ..
        } = self
        else {
            return Err(EqcError::Internal(
                "event queue drained before the epoch budget".into(),
            ));
        };
        match result_rx.recv() {
            Ok(FleetMsg::Done {
                lane,
                client,
                result,
                cycle,
                dispatched_at_update,
            }) => {
                bounds[offsets[lane] + client] = None;
                *in_system -= 1;
                if !lanes[lane].done {
                    let global_s =
                        lanes[lane].push_event(client, result, cycle, dispatched_at_update);
                    head.note_at(lane, global_s);
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

/// One arbiter grant round — a single implementation on every axis
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
    mut tracker: Option<&mut OccupancyTracker>,
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
        let mut granted = 0usize;
        while lane.in_flight < cap && !lane.ready.is_empty() {
            let idx = match tracker.as_deref_mut() {
                Some(tracker) if lane.master.wants_occupancy() && lane.ready.len() > 1 => {
                    lane.master
                        .install_fleet_occupancy(tracker.refresh(), lane.offset_s);
                    let candidates = &mut scratch.candidates;
                    candidates.clear();
                    candidates.extend(lane.ready.iter().map(|r| r.client));
                    candidates.sort_unstable();
                    let pick = lane.master.pick_client(candidates)?;
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
/// modes and both single-session executors. Its two axes are the
/// arguments the callers already hold: `tracker` (`Some` over shared
/// ledgers, refreshed ahead of each scheduling decision point) and
/// `workers` (`None` executes inline, `Some(n)` on an `n`-worker pool,
/// whose telemetry is returned on every path). Batch callers feed
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
    mut tracker: Option<&mut OccupancyTracker>,
    workers: Option<usize>,
    clock: &mut DriveClock,
    arrivals: &mut VecDeque<Arrival>,
    on_retire: &mut dyn FnMut(usize, f64),
) -> (Result<(), EqcError>, Option<PoolTelemetry>) {
    with_exec(lanes, workers, |lanes, exec| {
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
            let proven = match (arrival, next_event) {
                (Some(at_s), _) => exec.provably_next(lanes, at_s, None),
                (None, Some((t, e))) => {
                    let client = lanes[t].heap.peek().expect("indexed head").client;
                    exec.provably_next(lanes, e, Some((t, client)))
                }
                (None, None) => false,
            };
            if !proven {
                exec.wait(lanes, &mut head)?;
                continue;
            }
            if let Some(tracker) = tracker.as_deref_mut() {
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
                let (t, _) = next_event.expect("an event was proven next");
                let completed = absorb_next(lanes, t, clock.round)?;
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
                tracker.as_deref_mut(),
                &mut scratch,
                &mut head,
                exec,
            )?;
            clock.round += 1;
        }
        Ok(())
    })
}

/// Runs `body` against the execution back end `workers` selects:
/// [`Exec::Inline`] for `None`; for `Some(n)`, the lanes' clients are
/// flattened into one mutex-guarded pool any of `n` scoped worker
/// threads can execute against, and handed back to their lanes on every
/// path — poisoned mutexes still surrender their client.
fn with_exec(
    lanes: &mut [Lane<'_, '_>],
    workers: Option<usize>,
    body: impl FnOnce(&mut [Lane<'_, '_>], &mut Exec<'_>) -> Result<(), EqcError>,
) -> (Result<(), EqcError>, Option<PoolTelemetry>) {
    let Some(workers) = workers else {
        return (body(lanes, &mut Exec::Inline), None);
    };
    // Remember each lane's offset and queue models (the lookahead
    // inputs) while flattening.
    let mut offsets = Vec::with_capacity(lanes.len());
    let mut queue_models: Vec<Vec<QueueModel>> = Vec::with_capacity(lanes.len());
    let mut meta: Vec<(&dyn VqaProblem, usize)> = Vec::with_capacity(lanes.len());
    let mut flat: Vec<ClientNode> = Vec::new();
    for lane in lanes.iter_mut() {
        offsets.push(flat.len());
        queue_models.push(
            lane.clients
                .iter()
                .map(|c| c.backend().queue().clone())
                .collect(),
        );
        meta.push((lane.problem, lane.shots));
        flat.append(lane.clients);
    }
    let clients: Vec<Mutex<ClientNode>> = flat.into_iter().map(Mutex::new).collect();
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
                        node.run_task(
                            problem,
                            task.assignment.task,
                            &task.assignment.params,
                            shots,
                            task.submit,
                        )
                    },
                    |task, result| FleetMsg::Done {
                        lane: task.lane,
                        client: task.client,
                        result,
                        cycle: task.assignment.cycle,
                        dispatched_at_update: task.assignment.dispatched_at_update,
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
                queue_models: &queue_models,
                runq: &runq,
                result_rx: &result_rx,
                bounds: vec![None; clients.len()],
                in_system: 0,
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

    let mut recovered: Vec<ClientNode> = clients
        .into_iter()
        .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
        .collect();
    for (i, lane) in lanes.iter_mut().enumerate().rev() {
        *lane.clients = recovered.split_off(offsets[i]);
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
/// and priority are irrelevant there), on the execution axis `workers`
/// selects. The one entry point of the single-session executors.
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
        None,
        workers,
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

    #[test]
    fn poisoned_ledger_surfaces_as_typed_error_not_panic() {
        let ledgers: Vec<Arc<Mutex<DeviceQueue>>> = (0..3)
            .map(|_| {
                let queue = DeviceQueue::new(QueueModel::light(5.0), LoadModel::None)
                    .expect("valid queue model");
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
    fn precedes_respects_the_fleet_total_order() {
        // Strictly-later bounds admit strictly-earlier events only.
        assert!(precedes(5.0, (1, 9), InflightBound::Above(10.0), (0, 0)));
        assert!(!precedes(10.0, (0, 0), InflightBound::Above(10.0), (1, 9)));
        // Exact bounds tie-break on (tenant, client) like the merge does.
        assert!(precedes(10.0, (0, 5), InflightBound::Exactly(10.0), (1, 2)));
        assert!(precedes(10.0, (1, 1), InflightBound::Exactly(10.0), (1, 2)));
        assert!(!precedes(
            10.0,
            (1, 3),
            InflightBound::Exactly(10.0),
            (1, 2)
        ));
        assert!(precedes(9.0, (7, 7), InflightBound::Exactly(10.0), (0, 0)));
    }

    #[test]
    fn locate_inverts_the_flat_layout() {
        let offsets = [0usize, 3, 5];
        assert_eq!(locate(&offsets, 0), (0, 0));
        assert_eq!(locate(&offsets, 2), (0, 2));
        assert_eq!(locate(&offsets, 3), (1, 0));
        assert_eq!(locate(&offsets, 4), (1, 1));
        assert_eq!(locate(&offsets, 5), (2, 0));
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
        // on each device kept to read its template cache.
        let devices: Vec<QpuBackend> = ["belem", "manila"]
            .iter()
            .zip(7..)
            .map(|(name, seed)| {
                qdevice::catalog::by_name(name)
                    .expect("catalog")
                    .backend(seed)
            })
            .collect();
        let template_builds = || -> Vec<u64> {
            devices
                .iter()
                .map(|d| d.device_template_cache().builds())
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
        let built = template_builds();
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
        // So do the templates: the replay builds none, and its tenant's
        // clients find every template prepared.
        assert_eq!(template_builds(), built, "the replay builds 0 templates");
        let per_device = problem.templates().len() as u64;
        assert_eq!(built, [per_device; 2]);
        for d in &devices {
            assert_eq!(d.device_template_cache().hits(), per_device);
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
    fn tracker_refreshes_never_tear_under_concurrent_bookings() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // One booking thread per ledger while a reader refreshes the
        // incremental view in a loop. Every per-device triple the view
        // shows must be one its ledger published (recorded before
        // publication, as in `qdevice`'s torn-read test), and no device's
        // version may go backwards.
        const DEVICES: usize = 4;
        const BOOKINGS: u64 = 500;
        let ledgers: Vec<Arc<Mutex<DeviceQueue>>> = (0..DEVICES)
            .map(|d| {
                let q = DeviceQueue::new(QueueModel::light(2.0 + d as f64), LoadModel::None);
                Arc::new(Mutex::new(q.expect("valid queue model")))
            })
            .collect();
        let published: Vec<Mutex<Vec<(f64, f64, u64)>>> = ledgers
            .iter()
            .map(|ledger| {
                let s = ledger.lock().expect("fresh ledger").read_handle().read();
                Mutex::new(vec![(s.booked_until_s, s.backlog_s, s.jobs_booked)])
            })
            .collect();
        let done = AtomicBool::new(false);
        let tracker = OccupancyTracker::new(&ledgers).expect("fresh ledgers");
        let (mut tracker, refreshes) = thread::scope(|s| {
            let (published, done) = (&published, &done);
            let reader = s.spawn(move || {
                let mut tracker = tracker;
                let mut last = [0u64; DEVICES];
                let mut refreshes = 0u64;
                loop {
                    // At least one refresh after the writers finish.
                    let finished = done.load(Ordering::Acquire);
                    let view = tracker.refresh();
                    for (d, history) in published.iter().enumerate() {
                        let triple = (
                            view.booked_until_s[d],
                            view.backlog_s[d],
                            view.jobs_booked[d],
                        );
                        assert!(
                            history.lock().expect("history lock").contains(&triple),
                            "device {d}: {triple:?} was never published"
                        );
                    }
                    for (d, last) in last.iter_mut().enumerate() {
                        assert!(tracker.versions[d] >= *last, "device {d} went backwards");
                        *last = tracker.versions[d];
                    }
                    refreshes += 1;
                    if finished {
                        return (tracker, refreshes);
                    }
                }
            });
            let writers: Vec<_> = ledgers
                .iter()
                .zip(published)
                .map(|(ledger, history)| {
                    s.spawn(move || {
                        for i in 0..BOOKINGS {
                            let mut q = ledger.lock().expect("ledger lock");
                            let start =
                                q.admit(SimTime::from_secs(i as f64 * 3.0), (i % 5) as f64 / 5.0);
                            let horizon = (start.as_secs() + 1.5).max(q.horizon_s());
                            history.lock().expect("history lock").push((
                                horizon,
                                q.backlog_s(),
                                q.jobs_booked() + 1,
                            ));
                            q.book(start, 1.5);
                        }
                    })
                })
                .collect();
            for writer in writers {
                writer.join().expect("writer thread");
            }
            done.store(true, Ordering::Release);
            reader.join().expect("reader thread")
        });
        assert!(refreshes > 0);
        let oracle = occupancy_snapshot(&ledgers).expect("not poisoned");
        assert_eq!(tracker.refresh(), &oracle, "the last refresh is the oracle");
        assert_eq!(oracle.jobs_booked, [BOOKINGS; DEVICES]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random `admit`/`book`/`enqueue`/`decay_to` interleavings over
        /// ledgers with three different load models: after every
        /// mutation, the incremental tracker's refreshed view must equal
        /// the from-scratch lock-and-allocate oracle field for field
        /// (`decay_to` publishing only on backlog change included).
        #[test]
        fn incremental_occupancy_refresh_matches_the_snapshot_oracle(
            ops in proptest::collection::vec(
                (0..3usize, 0..4u32, 0.0..400.0f64, 0.0..1.0f64),
                2..60,
            ),
        ) {
            use qdevice::LoadCurve;
            let ledgers: Vec<Arc<Mutex<DeviceQueue>>> = [
                DeviceQueue::new(QueueModel::light(5.0), LoadModel::None),
                DeviceQueue::new(
                    QueueModel::light(30.0),
                    LoadModel::Bursty {
                        burst_busy_s: 40.0,
                        interval_s: 90.0,
                        phase_s: 10.0,
                    },
                ),
                DeviceQueue::new(
                    QueueModel::congested(20.0, 0.5, 3.0),
                    LoadModel::Diurnal {
                        busy_per_hour: 120.0,
                        curve: LoadCurve::daily(0.5, 0.0),
                    },
                ),
            ]
            .into_iter()
            .map(|q| Arc::new(Mutex::new(q.expect("valid queue model"))))
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
                let oracle = occupancy_snapshot(&ledgers).expect("not poisoned");
                let view = tracker.refresh();
                prop_assert_eq!(&view.booked_until_s, &oracle.booked_until_s);
                prop_assert_eq!(&view.backlog_s, &oracle.backlog_s);
                prop_assert_eq!(&view.jobs_booked, &oracle.jobs_booked);
            }
            let (rebuilds, reuses) = tracker.counters();
            prop_assert!(rebuilds >= ledgers.len() as u64, "first refresh copies every device");
            // Each op touches one ledger, so every later refresh reuses
            // at least the other two devices' copies.
            prop_assert!(reuses >= 2 * (n_ops as u64 - 1));
        }
    }
}
