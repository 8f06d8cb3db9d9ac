//! The transpilation pipeline and its output artifact.
//!
//! `layout -> route -> basis rewrite -> peephole optimize -> metrics`,
//! mirroring what the paper's client node does once per (circuit, device)
//! pair (Algorithm 2: `C_Transpiled <- Transpile(C, Q)`). The resulting
//! [`Transpiled`] carries everything downstream layers need: the physical
//! circuit, layout tracking for measurement remapping, and the structural
//! metrics consumed by the paper's Eq. 2.

use crate::basis;
use crate::layout::{choose_layout, Layout, LayoutError, LayoutStrategy};
use crate::optimize;
use crate::router::{route, RouteError, RoutingStrategy};
use crate::topology::Topology;
use qcircuit::{Circuit, CircuitError};
use qsim::Counts;
use std::fmt;

/// Structural metrics of a transpiled circuit — the inputs to the paper's
/// analytic model (Eq. 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CircuitMetrics {
    /// Physical single-qubit gate count (`G1`); RZ is virtual and excluded.
    pub g1: usize,
    /// Two-qubit gate count (`G2`), after SWAP decomposition.
    pub g2: usize,
    /// Measurement count (`M`): one per logical qubit.
    pub measurements: usize,
    /// Critical depth (`CD`): longest physical-gate chain.
    pub critical_depth: usize,
    /// Full depth including virtual gates.
    pub depth: usize,
    /// SWAPs the router inserted (before decomposition into 3 CX).
    pub swaps_inserted: usize,
}

impl fmt::Display for CircuitMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "G1={} G2={} M={} CD={} depth={} swaps={}",
            self.g1,
            self.g2,
            self.measurements,
            self.critical_depth,
            self.depth,
            self.swaps_inserted
        )
    }
}

/// Transpilation options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranspileOptions {
    /// Initial layout strategy.
    pub layout: LayoutStrategy,
    /// Routing strategy.
    pub routing: RoutingStrategy,
    /// 0 = no peephole pass, 1+ = peephole to fixpoint.
    pub optimization_level: u8,
}

impl Default for TranspileOptions {
    fn default() -> Self {
        TranspileOptions {
            layout: LayoutStrategy::Greedy,
            routing: RoutingStrategy::ShortestPath,
            optimization_level: 1,
        }
    }
}

/// Errors raised by the pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum TranspileError {
    /// Layout selection failed.
    Layout(LayoutError),
    /// Routing failed.
    Route(RouteError),
    /// Circuit reconstruction failed.
    Circuit(CircuitError),
}

impl fmt::Display for TranspileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranspileError::Layout(e) => write!(f, "layout: {e}"),
            TranspileError::Route(e) => write!(f, "routing: {e}"),
            TranspileError::Circuit(e) => write!(f, "circuit: {e}"),
        }
    }
}

impl std::error::Error for TranspileError {}

impl From<LayoutError> for TranspileError {
    fn from(e: LayoutError) -> Self {
        TranspileError::Layout(e)
    }
}

impl From<RouteError> for TranspileError {
    fn from(e: RouteError) -> Self {
        TranspileError::Route(e)
    }
}

impl From<CircuitError> for TranspileError {
    fn from(e: CircuitError) -> Self {
        TranspileError::Circuit(e)
    }
}

/// The output of transpilation.
#[derive(Clone, Debug)]
pub struct Transpiled {
    /// Physical circuit over the device's full qubit register, in the
    /// native basis.
    pub circuit: Circuit,
    /// Logical-to-physical layout at circuit start.
    pub initial_layout: Layout,
    /// Layout after routing swaps: logical qubit `l` is *measured* on
    /// physical qubit `final_layout.physical(l)`.
    pub final_layout: Layout,
    /// Structural metrics for Eq. 2.
    pub metrics: CircuitMetrics,
    /// Number of logical qubits of the source circuit.
    pub logical_qubits: usize,
}

impl Transpiled {
    /// The physical qubits the circuit actually touches (gates or
    /// measurement homes), ascending.
    pub fn active_qubits(&self) -> Vec<usize> {
        let mut used: Vec<usize> = self
            .circuit
            .gates()
            .iter()
            .flat_map(|g| g.qubits())
            .chain((0..self.logical_qubits).map(|l| self.final_layout.physical(l)))
            .collect();
        used.sort_unstable();
        used.dedup();
        used
    }

    /// Produces a simulation-sized copy: physical qubits are relabeled to
    /// a dense `0..k` range so a density-matrix simulator only pays for
    /// the `k` active qubits (a 65-qubit Manhattan register would
    /// otherwise be unsimulable). Returns the compacted circuit and, for
    /// each logical qubit, its bit position in the compacted register.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError`] (cannot occur for well-formed inputs).
    pub fn compact_for_simulation(&self) -> Result<(Circuit, Vec<usize>), TranspileError> {
        let active = self.active_qubits();
        let position = |p: usize| active.binary_search(&p).expect("active qubit");
        let mut compact = Circuit::new(active.len());
        for g in self.circuit.gates() {
            compact.push(g.map_qubits(position))?;
        }
        let logical_bits = (0..self.logical_qubits)
            .map(|l| position(self.final_layout.physical(l)))
            .collect();
        Ok((compact, logical_bits))
    }

    /// Remaps a counts histogram from *compacted physical* bit order back
    /// to logical bit order, given the `logical_bits` vector from
    /// [`Transpiled::compact_for_simulation`] (see [`remap_counts`]).
    pub fn remap_counts(&self, compact_counts: &Counts, logical_bits: &[usize]) -> Counts {
        remap_counts(compact_counts, logical_bits)
    }
}

/// Remaps a counts histogram from *compacted physical* bit order back to
/// logical bit order: bit `logical_bits[l]` of each outcome becomes bit
/// `l`. `logical_bits` holds one entry per logical qubit, as
/// [`Transpiled::compact_for_simulation`] returns it, so the result is
/// `logical_bits.len()` qubits wide. Needs no transpilation artifact:
/// a caller that keeps only `logical_bits` can remap.
pub fn remap_counts(compact_counts: &Counts, logical_bits: &[usize]) -> Counts {
    let mut out = Counts::with_capacity(logical_bits.len(), compact_counts.len());
    remap_counts_into(compact_counts, logical_bits, &mut out);
    out
}

/// [`remap_counts`] written into `out`, whose storage is reused.
pub fn remap_counts_into(compact_counts: &Counts, logical_bits: &[usize], out: &mut Counts) {
    out.reset(logical_bits.len());
    for (basis, count) in compact_counts.iter() {
        let mut logical = 0u64;
        for (l, &bit) in logical_bits.iter().enumerate() {
            if basis >> bit & 1 == 1 {
                logical |= 1 << l;
            }
        }
        out.record(logical, count);
    }
}

/// Runs the full pipeline.
///
/// # Errors
///
/// Returns [`TranspileError`] if the device is too small, the topology is
/// disconnected under the circuit's demands, or reconstruction fails.
///
/// # Examples
///
/// ```
/// use qcircuit::CircuitBuilder;
/// use transpile::{transpile, Topology, TranspileOptions};
///
/// let mut b = CircuitBuilder::new(4);
/// for q in 0..4 {
///     b.cx(q, (q + 1) % 4);
/// }
/// let t = transpile(&b.build(), &Topology::t_shape(), &TranspileOptions::default())?;
/// // The 4-ring does not embed in a T-shape: routing must add SWAPs,
/// // which surface as extra CX gates in G2.
/// assert!(t.metrics.g2 > 4);
/// # Ok::<(), transpile::TranspileError>(())
/// ```
pub fn transpile(
    circuit: &Circuit,
    topology: &Topology,
    options: &TranspileOptions,
) -> Result<Transpiled, TranspileError> {
    let layout = choose_layout(circuit, topology, options.layout)?;
    let routed = route(circuit, topology, &layout, options.routing)?;
    // Peephole both before and after basis rewriting: composite-level
    // identities (H H, SWAP SWAP) only exist pre-rewrite, RZ merging and
    // SX fusion only post-rewrite.
    let mut physical = routed.circuit.clone();
    if options.optimization_level >= 1 {
        physical = optimize::optimize(&physical)?;
    }
    physical = basis::rewrite_to_basis(&physical)?;
    if options.optimization_level >= 1 {
        physical = optimize::optimize(&physical)?;
    }
    let metrics = CircuitMetrics {
        g1: physical.g1_count(),
        g2: physical.g2_count(),
        measurements: circuit.num_qubits(),
        critical_depth: physical.critical_depth(),
        depth: physical.depth(),
        swaps_inserted: routed.swaps_inserted,
    };
    Ok(Transpiled {
        circuit: physical,
        initial_layout: routed.initial_layout,
        final_layout: routed.final_layout,
        metrics,
        logical_qubits: circuit.num_qubits(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::CircuitBuilder;

    fn entangler(n: usize) -> Circuit {
        let mut b = CircuitBuilder::new(n);
        for q in 0..n {
            b.h(q);
        }
        for q in 0..n {
            b.cx(q, (q + 1) % n);
        }
        b.build()
    }

    #[test]
    fn transpiled_is_in_basis_and_respects_coupling() {
        let c = entangler(4);
        for topo in [
            Topology::line(5),
            Topology::t_shape(),
            Topology::fully_connected(5),
            Topology::h_shape(),
            Topology::heavy_hex_27(),
        ] {
            let t = transpile(&c, &topo, &TranspileOptions::default()).unwrap();
            assert!(crate::basis::is_in_basis(&t.circuit), "{}", topo.name());
            for g in t.circuit.gates() {
                let qs = g.qubits();
                if qs.len() == 2 {
                    assert!(topo.are_adjacent(qs[0], qs[1]));
                }
            }
        }
    }

    #[test]
    fn fully_connected_needs_fewest_cx() {
        // Fig. 3 of the paper: the same circuit transpiles to different
        // structures; better connectivity means fewer G2 gates.
        let c = entangler(4);
        let full = transpile(
            &c,
            &Topology::fully_connected(5),
            &TranspileOptions::default(),
        )
        .unwrap()
        .metrics;
        let line = transpile(&c, &Topology::line(5), &TranspileOptions::default())
            .unwrap()
            .metrics;
        assert!(full.g2 <= line.g2);
        assert_eq!(full.swaps_inserted, 0);
        assert!(line.swaps_inserted > 0);
    }

    #[test]
    fn metrics_count_swap_expansion() {
        let mut b = CircuitBuilder::new(5);
        b.cx(0, 4);
        let t = transpile(
            &b.build(),
            &Topology::line(5),
            &TranspileOptions {
                layout: LayoutStrategy::Trivial,
                ..Default::default()
            },
        )
        .unwrap();
        // 3 swaps -> 9 CX, plus the original CX = 10... minus peephole
        // cancellations at the junction. At least 3 CX must survive.
        assert_eq!(t.metrics.swaps_inserted, 3);
        assert!(t.metrics.g2 >= 4);
    }

    #[test]
    fn compact_simulation_roundtrip_preserves_distribution() {
        let c = entangler(4);
        let topo = Topology::heavy_hex_27();
        let t = transpile(&c, &topo, &TranspileOptions::default()).unwrap();
        let (compact, logical_bits) = t.compact_for_simulation().unwrap();
        assert!(
            compact.num_qubits() <= 8,
            "compaction should shrink the register"
        );

        // Ideal probabilities of the logical circuit...
        let logical_probs = c.run_statevector(&[]).unwrap().probabilities();
        // ...must match the compacted physical circuit after bit remapping.
        let sv = compact.run_statevector(&[]).unwrap();
        let mut remapped = vec![0.0; 1 << 4];
        for (basis, p) in sv.probabilities().iter().enumerate() {
            let mut logical = 0usize;
            for (l, &bit) in logical_bits.iter().enumerate() {
                if basis >> bit & 1 == 1 {
                    logical |= 1 << l;
                }
            }
            remapped[logical] += p;
        }
        for (a, b) in logical_probs.iter().zip(&remapped) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn remap_counts_moves_bits() {
        let c = entangler(2);
        let t = transpile(&c, &Topology::line(3), &TranspileOptions::default()).unwrap();
        let (_, logical_bits) = t.compact_for_simulation().unwrap();
        let mut counts = Counts::new(logical_bits.iter().max().unwrap() + 1);
        // All shots observed with every active bit set.
        let all_set = logical_bits.iter().fold(0u64, |m, &b| m | (1 << b));
        counts.record(all_set, 100);
        let logical = t.remap_counts(&counts, &logical_bits);
        assert_eq!(logical.get(0b11), 100);
    }

    proptest::proptest! {
        /// The free function is the artifact's remap, on random
        /// circuits, devices, layouts and counts: the layout the
        /// transpiler chose, and a random injection of the logical
        /// qubits into a wider compact register.
        #[test]
        fn free_remap_equals_the_artifact_remap(
            n in 2usize..=4,
            device in 0usize..3,
            extra in 0usize..4,
            keys in proptest::collection::vec(0u32..1 << 20, 8),
            outcomes in proptest::collection::vec((0u64..1 << 8, 1u64..100), 0..40),
        ) {
            let topology = [Topology::line(5), Topology::t_shape(), Topology::heavy_hex_27()];
            let t = transpile(&entangler(n), &topology[device], &TranspileOptions::default())
                .unwrap();
            let (compact, chosen) = t.compact_for_simulation().unwrap();
            let width = n + extra;
            let mut order: Vec<usize> = (0..width).collect();
            order.sort_by_key(|&i| (keys[i], i));
            for (bits, k) in [(chosen, compact.num_qubits()), (order[..n].to_vec(), width)] {
                let mut counts = Counts::new(k);
                for &(basis, count) in &outcomes {
                    counts.record(basis & ((1 << k) - 1), count);
                }
                proptest::prop_assert_eq!(
                    remap_counts(&counts, &bits),
                    t.remap_counts(&counts, &bits),
                    "layout {:?}", bits
                );
            }
        }
    }

    #[test]
    fn optimization_level_zero_skips_peephole() {
        let mut b = CircuitBuilder::new(2);
        b.h(0).h(0).cx(0, 1);
        let c = b.build();
        let topo = Topology::line(2);
        let raw = transpile(
            &c,
            &topo,
            &TranspileOptions {
                optimization_level: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let opt = transpile(&c, &topo, &TranspileOptions::default()).unwrap();
        assert!(opt.metrics.g1 < raw.metrics.g1);
        // H H should fully cancel at level 1.
        assert_eq!(opt.metrics.g1, 0);
    }

    #[test]
    fn symbolic_template_survives_full_pipeline() {
        let mut b = CircuitBuilder::new(4);
        for q in 0..4 {
            b.ry_sym(q, q);
        }
        for q in 0..3 {
            b.cx(q, q + 1);
        }
        let c = b.build();
        let t = transpile(&c, &Topology::t_shape(), &TranspileOptions::default()).unwrap();
        assert_eq!(t.circuit.num_params(), 4);
        // Bind and compare against the logical circuit through compaction.
        let params = [0.4, -0.2, 1.0, 0.05];
        let (compact, logical_bits) = t.compact_for_simulation().unwrap();
        let phys_sv = compact.run_statevector(&params).unwrap();
        let log_probs = c.run_statevector(&params).unwrap().probabilities();
        let mut remapped = vec![0.0; 1 << 4];
        for (basis, p) in phys_sv.probabilities().iter().enumerate() {
            let mut logical = 0usize;
            for (l, &bit) in logical_bits.iter().enumerate() {
                if basis >> bit & 1 == 1 {
                    logical |= 1 << l;
                }
            }
            remapped[logical] += p;
        }
        for (a, b) in log_probs.iter().zip(&remapped) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn metrics_display_is_informative() {
        let c = entangler(3);
        let t = transpile(&c, &Topology::line(3), &TranspileOptions::default()).unwrap();
        let s = t.metrics.to_string();
        assert!(s.contains("G1=") && s.contains("G2=") && s.contains("CD="));
    }
}
