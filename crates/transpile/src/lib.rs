//! # transpile — topology-aware transpiler for the EQC reproduction
//!
//! Reproduces the role Qiskit's transpiler plays in the paper: mapping a
//! logical VQA circuit onto a physical device (Fig. 3), which determines
//! the `G1`/`G2`/`CD` structural costs that feed the paper's device
//! quality model (Eq. 2).
//!
//! Pipeline: [`layout`] (initial placement) → [`router`] (SWAP insertion)
//! → [`basis`] (IBMQ native basis {CX, RZ, SX, X}) → [`optimize`]
//! (peephole) → [`pass::CircuitMetrics`].
//!
//! ```
//! use qcircuit::CircuitBuilder;
//! use transpile::{transpile, Topology, TranspileOptions};
//!
//! let mut b = CircuitBuilder::new(3);
//! b.h(0).cx(0, 1).cx(0, 2);
//! let t = transpile(&b.build(), &Topology::line(5), &TranspileOptions::default())?;
//! assert!(t.metrics.g2 >= 2);
//! # Ok::<(), transpile::TranspileError>(())
//! ```

#![warn(missing_docs)]

pub mod basis;
pub mod layout;
pub mod optimize;
pub mod pass;
pub mod router;
pub mod topology;

pub use layout::{noise_aware_layout, Layout, LayoutError, LayoutStrategy};
pub use pass::{
    remap_counts, remap_counts_into, transpile, CircuitMetrics, TranspileError, TranspileOptions,
    Transpiled,
};
pub use router::{RouteError, RoutingStrategy};
pub use topology::Topology;
