//! # eqc — Ensembled Quantum Computing for Variational Quantum Algorithms
//!
//! A from-scratch Rust reproduction of *"EQC: Ensembled Quantum Computing
//! for Variational Quantum Algorithms"* (Stein et al., ISCA 2022,
//! arXiv:2111.14940), including every substrate the paper depends on:
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | Simulation | [`qsim`] | complex linear algebra, state vectors, density matrices, Kraus noise |
//! | Circuits | [`qcircuit`] | gate IR, symbolic parameters, Pauli Hamiltonians, measurement planning |
//! | Transpiler | [`transpile`] | topologies, layout, SWAP routing, IBM basis rewriting, peephole |
//! | Devices | [`qdevice`] | Table I catalog, calibration drift, cloud queues, noisy execution |
//! | Workloads | [`vqa`] | Heisenberg VQE, MaxCut QAOA, QNN; parameter-shift gradients |
//! | Framework | [`eqc_core`] | `Ensemble` session API, pluggable executors, Eq. 2 weighting |
//!
//! ## Quickstart: train a QAOA MaxCut on a simulated ensemble
//!
//! ```
//! use eqc::prelude::*;
//!
//! let problem = QaoaProblem::maxcut_ring4();
//! let report = Ensemble::builder()
//!     .device("belem")
//!     .device("manila")
//!     .device("bogota")
//!     .config(EqcConfig::paper_qaoa().with_epochs(5).with_shots(512))
//!     .build()?
//!     .train(&problem)?;
//! println!("{report}");
//! assert_eq!(report.epochs, 5);
//! # Ok::<(), EqcError>(())
//! ```
//!
//! Training always runs through an [`Executor`](eqc_core::Executor):
//! the default above is the deterministic [`DiscreteEventExecutor`]
//! (same seed, same report); swap in the [`PooledExecutor`] for the
//! same report from a bounded worker pool, or the
//! [`SequentialExecutor`] for the paper's single-machine and
//! synchronous baselines:
//!
//! ```
//! use eqc::prelude::*;
//!
//! let problem = QaoaProblem::maxcut_ring4();
//! let ensemble = Ensemble::builder()
//!     .device("belem")
//!     .config(EqcConfig::paper_qaoa().with_epochs(2).with_shots(256))
//!     .build()?;
//! let single = ensemble.train_with(&SequentialExecutor::new(), &problem)?;
//! assert!(single.trainer.starts_with("single:"));
//! # Ok::<(), EqcError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harnesses regenerating every table and figure of the paper.
//!
//! [`DiscreteEventExecutor`]: eqc_core::DiscreteEventExecutor
//! [`PooledExecutor`]: eqc_core::PooledExecutor
//! [`SequentialExecutor`]: eqc_core::SequentialExecutor

#![warn(missing_docs)]

pub use eqc_core;
pub use qcircuit;
pub use qdevice;
pub use qsim;
pub use transpile;
pub use vqa;

/// Convenient single-import surface for applications.
///
/// The deprecated pre-0.2 trainer shims (`EqcTrainer`,
/// `SingleDeviceTrainer`, `SyncEnsembleTrainer`, `train_ideal`,
/// `train_threaded`) are gone — every entry point flows through the
/// [`Ensemble`](eqc_core::Ensemble) session API (or the multi-tenant
/// [`FleetRuntime`](eqc_core::FleetRuntime) on a shared device pool).
pub mod prelude {
    pub use eqc_core::policy::{
        AlwaysHealthy, ClientHealth, Composed, ContentionAware, Cyclic, DriftEviction,
        EarliestDeadlineFirst, EquiEnsemble, FairShare, FidelityWeighted, FleetOccupancy,
        LeastLoaded, LookaheadLeastLoaded, PriorityArbiter, Scheduler, StalenessDecay,
        TenantArbiter, Unshared, Weighting,
    };
    pub use eqc_core::{
        ideal_backend, ClientNode, DeviceOccupancy, DiscreteEventExecutor, EngineTelemetry,
        Ensemble, EnsembleBuilder, EnsembleSession, EqcConfig, EqcError, EvictionEvent, Executor,
        FleetBuilder, FleetOutcome, FleetRuntime, FleetService, FleetTelemetry, MembershipChange,
        PolicyConfig, PolicyTelemetry, PoolTelemetry, PooledExecutor, SequentialExecutor,
        ServiceConfig, ServiceOutcome, ServiceTelemetry, ServiceTenantRecord, SimParallelism,
        TenantConfig, TenantHandle, TenantId, TenantTelemetry, TrainingReport, WeightBounds,
        WeightProvenance,
    };
    pub use qcircuit::{Circuit, CircuitBuilder, Gate, Hamiltonian, PauliString};
    pub use qdevice::{catalog, DeviceSpec, LoadCurve, LoadModel, QpuBackend, SimTime};
    pub use qsim::{Counts, DensityMatrix, StateVector};
    pub use transpile::{transpile, Topology, TranspileOptions};
    pub use vqa::{Graph, QaoaProblem, QnnProblem, VqaProblem, VqeProblem};
}
