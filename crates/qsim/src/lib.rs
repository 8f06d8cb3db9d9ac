//! # qsim — quantum simulation substrate for the EQC reproduction
//!
//! This crate is the from-scratch replacement for the real IBMQ hardware
//! used by the EQC paper (Stein et al., ISCA 2022). It provides:
//!
//! * [`complex::C64`] / [`matrix::CMatrix`] — the numerical base layer
//!   (`num-complex`/`ndarray` are not available offline);
//! * [`gates`] — standard gate matrices in a little-endian convention;
//! * [`statevector::StateVector`] — ideal simulation, the "ideal
//!   simulator" baseline of the paper's figures;
//! * [`density::DensityMatrix`] + [`noise::KrausChannel`] — noisy
//!   simulation with depolarizing, thermal-relaxation (T1/T2) and dephasing
//!   channels, the physics behind each simulated QPU;
//! * [`sampler`] — shot sampling and SPAM/readout corruption, producing the
//!   `Counts` histograms a cloud backend would return;
//! * [`program`] — the execution engine layer: circuits + noise compile
//!   once into a [`program::CompiledProgram`] (a flat op-tape over
//!   resolved gate matrices and fused superoperators) that the
//!   allocation-free [`program::DensityEngine`] replays for every job,
//!   with the naive path's counts;
//! * [`linalg`] — exact Hermitian eigendecomposition for ground-truth
//!   reference energies.
//!
//! ## The engine layer
//!
//! Ensemble training executes the same circuit structure millions of
//! times. The engine layer splits that work into a *compile* phase
//! (resolve gate matrices, intern channels, elide near-identity ones,
//! and plan every run of adjacent fixed ops on at most two qubits as
//! one local superoperator: planned once per program, multiplied out
//! again whenever the noise's numbers change)
//! and a *replay* phase (per job: walk the tape over a
//! persistent state, rebind only the parameterized rotation matrices). A
//! whole `gate, relaxation, relaxation, depolarizing` cluster applies as
//! one in-place block sweep instead of one or two state passes per op,
//! and shot sampling writes a dense histogram through a cached CDF
//! instead of one hash-map insert per shot. See [`program`] for the
//! guarantees and examples.
//!
//! The crate spawns no thread and takes no lock: every kernel is a
//! serial loop over state the caller owns. Parallelism lives one layer
//! up, where `eqc_core` runs whole client tasks — each on its own
//! backend and engine — on its worker pool.
//!
//! ## Quickstart
//!
//! ```
//! use qsim::statevector::StateVector;
//! use qsim::gates;
//!
//! // A noiseless Bell pair.
//! let mut sv = StateVector::new(2);
//! sv.apply_1q(&gates::h(), 0);
//! sv.apply_2q(&gates::cx(), 0, 1);
//! assert!((sv.probability_of(0b00) - 0.5).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod complex;
pub mod density;
pub mod gates;
pub mod linalg;
pub mod matrix;
pub mod noise;
pub mod program;
pub mod sampler;
pub mod statevector;

pub use complex::C64;
pub use density::DensityMatrix;
pub use gates::Pauli;
pub use matrix::CMatrix;
pub use noise::{KrausChannel, RelaxationEntries, Superop, SuperopTable};
pub use program::{CompiledProgram, DensityEngine, ProgramBuilder};
pub use sampler::{Counts, ReadoutError, ShotSampler};
pub use statevector::StateVector;
