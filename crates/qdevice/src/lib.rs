//! # qdevice — simulated NISQ devices for the EQC reproduction
//!
//! The paper evaluates on 10 real IBMQ QPUs; this crate is their
//! simulation stand-in (the `repro_why` substitution). Each
//! [`backend::QpuBackend`] combines:
//!
//! * a Table I topology and [`calibration::Calibration`] baseline
//!   ([`mod@catalog`]);
//! * a [`drift::DriftModel`] separating *reported* from *actual* noise —
//!   the stale-calibration effect behind Fig. 4 and Casablanca's Fig. 6
//!   divergence;
//! * a [`queue::QueueModel`] reproducing cloud congestion (seconds on x2,
//!   months on Manhattan) over virtual time ([`clock::SimTime`]);
//! * a [`noise_model::NoiseModel`] that executes circuits on an exact
//!   density-matrix engine;
//! * a [`compile`] layer that lowers circuit + noise into the flat
//!   [`qsim::CompiledProgram`] op-tape the allocation-free density
//!   engine replays, with per-calibration-cycle caching of noise models and
//!   compiled templates (byte-identical to the uncached path).
//!
//! ```
//! use qdevice::catalog;
//! use qdevice::clock::SimTime;
//! use qcircuit::CircuitBuilder;
//!
//! let mut backend = qdevice::catalog::by_name("bogota").unwrap().backend(7);
//! let mut b = CircuitBuilder::new(2);
//! b.h(0).cx(0, 1);
//! let job = backend.execute(&b.build(), &[0, 1], 1024, SimTime::ZERO);
//! assert_eq!(job.counts.total(), 1024);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod calibration;
pub mod catalog;
pub mod clock;
pub mod compile;
pub mod drift;
pub mod error;
pub mod multiprog;
pub mod noise_model;
pub mod queue;

pub use backend::{
    ArchitectureTemplates, DeviceTemplate, JobResult, QpuBackend, SharedNoiseCache,
    SharedTemplateCache, TemplateLocks, TemplateRun,
};
pub use calibration::{Calibration, QubitCalibration};
pub use catalog::{by_name, catalog, DeviceSpec, TopologyClass};
pub use clock::SimTime;
pub use compile::{compile_bound, Compile, CompiledTemplate, NoiseToken};
pub use drift::{DriftEpisode, DriftModel};
pub use error::DeviceError;
pub use multiprog::{split as multiprogram_split, MultiprogramConfig, ProgramSlot};
pub use noise_model::NoiseModel;
pub use queue::{DeviceQueue, LedgerSnapshot, LoadCurve, LoadModel, QueueModel, QueueReadHandle};
