//! # eqc-core — the EQC framework (the paper's primary contribution)
//!
//! Ensembled Quantum Computing for variational quantum algorithms
//! (Stein et al., ISCA 2022): instead of training a VQA against one noisy
//! QPU, a master node asynchronously distributes gradient tasks across a
//! *quantum ensemble*, weighting each device's contribution by an analytic
//! quality score computed from its transpiled circuit and live calibration
//! (Eq. 2).
//!
//! ## The session API
//!
//! All training flows through one composable surface:
//!
//! 1. [`Ensemble::builder`] describes the fleet — catalog devices by
//!    name, custom [`QpuBackend`](qdevice::QpuBackend)s, or the ideal
//!    simulator — plus an [`EqcConfig`] and seeds;
//! 2. [`Ensemble::session`] binds a [`VqaProblem`](vqa::VqaProblem)
//!    (each device prepares the problem's templates once — Algorithm 2 —
//!    and the devices built on one coupling map transpile them once
//!    between them);
//! 3. an [`Executor`] drains the session into a [`TrainingReport`].
//!
//! ```
//! use eqc_core::{Ensemble, EqcConfig};
//! use vqa::QaoaProblem;
//!
//! let problem = QaoaProblem::maxcut_ring4();
//! let report = Ensemble::builder()
//!     .device("belem")
//!     .device("manila")
//!     .config(EqcConfig::paper_qaoa().with_epochs(3).with_shots(256))
//!     .build()?
//!     .train(&problem)?;
//! assert_eq!(report.epochs, 3);
//! # Ok::<(), eqc_core::EqcError>(())
//! ```
//!
//! ## Executors — the extension axis
//!
//! The execution substrate is a strategy, not a fork of the codebase:
//! every executor drives the same extracted master loop
//! ([`MasterLoop`]: cyclic schedule, per-parameter gathers, weighted
//! ASGD updates, staleness tracking), so a future async / sharded /
//! remote substrate is a new [`Executor`] impl.
//!
//! * [`DiscreteEventExecutor`] — deterministic virtual time (default);
//! * [`PooledExecutor`] — any number of clients over a bounded worker
//!   pool, byte-identical to the discrete-event executor, which makes
//!   100–1000 client fleets ([`qdevice::catalog::fleet`]) reproducible
//!   *and* parallel;
//! * [`SequentialExecutor`] — the single-device baseline and the
//!   synchronous-ensemble ablation.
//!
//! Failures are values: every constructor and training entry point
//! returns [`EqcError`] instead of panicking.
//!
//! ## Policies — the master's decision axes
//!
//! Orthogonal to *where* tasks run is *what the master decides*: which
//! client gets the next slice ([`Scheduler`]: [`Cyclic`],
//! [`LeastLoaded`]), how much each gradient counts ([`Weighting`]:
//! [`FidelityWeighted`], [`EquiEnsemble`], [`StalenessDecay`]), and
//! whether a drifting client keeps participating ([`ClientHealth`]:
//! [`AlwaysHealthy`], [`DriftEviction`] with recalibration
//! re-admission). A [`PolicyConfig`] bundles one of each; the default
//! stack reproduces the paper's Algorithm 1 byte for byte.
//!
//! ## The multi-tenant fleet
//!
//! A standalone session owns its clients for the whole run; the
//! [`FleetRuntime`] inverts that: the fleet is the long-lived resource
//! that owns the device pool, sessions are *tenants* that borrow
//! capacity ([`FleetRuntime::admit`]), and a
//! [`TenantArbiter`] ([`Unshared`],
//! [`FairShare`], [`PriorityArbiter`]) arbitrates fleet capacity
//! between them. Single-tenant fleet runs are byte-identical to
//! standalone sessions — the deterministic executors are in fact thin
//! fleet-of-one wrappers over the same drive loop.
//!
//! ## Modules
//!
//! * [`ensemble`] — the builder/session surface;
//! * [`fleet`] — the multi-tenant [`FleetRuntime`] and its drive loop;
//! * [`executor`] — the [`Executor`] trait and its substrates;
//! * [`pool`] — the bounded worker-pool substrate behind
//!   [`PooledExecutor`] and the pooled fleet;
//! * [`master`] — the shared master loop (Algorithm 1);
//! * [`policy`] — the pluggable scheduler / weighting / health /
//!   arbiter layer;
//! * [`client`] — the client node (Algorithm 2): transpile once, serve
//!   batched shift-rule jobs, report gradients + `P_correct`;
//! * [`weighting`] — Eq. 2 and the bounded linear weight normalization of
//!   Figs. 5/9/12;
//! * [`convergence`] — the appendix ASGD bound (Eq. 14);
//! * [`stats`] — the estimators behind Fig. 4 (R^2, Pearson, p-value);
//! * [`report`] — per-epoch histories, device statistics and fleet
//!   telemetry for every figure harness.

#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod convergence;
pub mod ensemble;
pub mod error;
pub mod executor;
pub mod fleet;
pub mod master;
pub mod policy;
pub mod pool;
pub mod report;
pub mod stats;
pub mod weighting;

pub use client::{ClientNode, ClientTaskResult, TaskBooking};
pub use config::{EqcConfig, PolicyConfig, ServiceConfig, SimParallelism, TenantConfig};
pub use convergence::ConvergenceParams;
pub use ensemble::{ideal_backend, Ensemble, EnsembleBuilder, EnsembleSession};
pub use error::EqcError;
pub use executor::{DiscreteEventExecutor, Executor, SequentialExecutor};
pub use fleet::{
    FleetBuilder, FleetOutcome, FleetRuntime, FleetService, ServiceOutcome, TenantHandle, TenantId,
};
pub use master::{Assignment, MasterLoop};
pub use policy::{
    AlwaysHealthy, ArbiterContext, ClientHealth, Composed, ContentionAware, Cyclic, DriftEviction,
    EarliestDeadlineFirst, EquiEnsemble, FairShare, FidelityWeighted, FleetOccupancy,
    HealthContext, HealthVerdict, LeastLoaded, LookaheadLeastLoaded, PriorityArbiter,
    ScheduleContext, Scheduler, StalenessDecay, TenantArbiter, TenantLoad, Unshared, WeightContext,
    WeightDecision, Weighting,
};
pub use pool::PooledExecutor;
pub use report::{
    ClientStats, DeviceOccupancy, EngineTelemetry, EpochRecord, EvictionEvent, FleetTelemetry,
    MembershipChange, PolicyTelemetry, PoolTelemetry, ServiceTelemetry, ServiceTenantRecord,
    TenantTelemetry, TrainingReport, WeightProvenance, WeightSample,
};
pub use weighting::{normalize_weights, p_correct, WeightBounds};
