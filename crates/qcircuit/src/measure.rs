//! Measurement planning: basis rotations, qubit-wise commuting grouping
//! and expectation estimation from hardware counts.
//!
//! A NISQ device only measures in the computational (Z) basis, so each
//! Pauli string needs basis-change gates appended before measurement:
//! `X -> H`, `Y -> Sdg, H`. Strings that qubit-wise commute share one
//! measurement setting; grouping them cuts the number of circuit
//! executions per loss evaluation, which matters when every execution
//! costs minutes of queue time (Section II of the paper).

use crate::circuit::{Circuit, CircuitError};
use crate::gate::Gate;
use crate::pauli::Hamiltonian;
use qsim::{Counts, Pauli};

/// A set of Hamiltonian terms measurable with one circuit execution.
#[derive(Clone, Debug, PartialEq)]
pub struct MeasurementGroup {
    /// Per-qubit measurement basis. `I` means the qubit is unconstrained
    /// by every term in the group (measured in Z, ignored in estimation).
    basis: Vec<Pauli>,
    /// Indices into the originating Hamiltonian's term list.
    term_indices: Vec<usize>,
}

impl MeasurementGroup {
    /// Per-qubit measurement basis.
    pub fn basis(&self) -> &[Pauli] {
        &self.basis
    }

    /// Indices of the Hamiltonian terms covered by this group.
    pub fn term_indices(&self) -> &[usize] {
        &self.term_indices
    }

    /// The basis-rotation gates to append before measurement.
    pub fn rotation_gates(&self) -> Vec<Gate> {
        let mut gates = Vec::new();
        for (q, p) in self.basis.iter().enumerate() {
            match p {
                Pauli::I | Pauli::Z => {}
                Pauli::X => gates.push(Gate::H(q)),
                Pauli::Y => {
                    gates.push(Gate::Sdg(q));
                    gates.push(Gate::H(q));
                }
            }
        }
        gates
    }
}

/// A full measurement plan for a Hamiltonian: groups of qubit-wise
/// commuting terms, each with a shared basis.
///
/// # Examples
///
/// ```
/// use qcircuit::pauli::Hamiltonian;
/// use qcircuit::measure::MeasurementPlan;
///
/// let mut h = Hamiltonian::new(2);
/// h.add_label(1.0, "XX").unwrap();
/// h.add_label(1.0, "YY").unwrap();
/// h.add_label(1.0, "ZZ").unwrap();
/// h.add_label(0.5, "ZI").unwrap();
/// // ZZ and ZI share the Z basis; XX and YY need their own settings.
/// let plan = MeasurementPlan::grouped(&h);
/// assert_eq!(plan.groups().len(), 3);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MeasurementPlan {
    n_qubits: usize,
    groups: Vec<MeasurementGroup>,
}

impl MeasurementPlan {
    /// Greedy qubit-wise-commuting grouping: each term joins the first
    /// group whose basis it is compatible with.
    pub fn grouped(h: &Hamiltonian) -> Self {
        let n = h.num_qubits();
        let mut groups: Vec<MeasurementGroup> = Vec::new();
        for (idx, term) in h.terms().iter().enumerate() {
            if term.string.is_identity() {
                // Constant offset: measurable with any group; track in the
                // first group (create one if none exists).
                if groups.is_empty() {
                    groups.push(MeasurementGroup {
                        basis: vec![Pauli::I; n],
                        term_indices: Vec::new(),
                    });
                }
                groups[0].term_indices.push(idx);
                continue;
            }
            let slot = groups.iter_mut().find(|g| {
                (0..n).all(|q| {
                    let need = term.string.pauli(q);
                    need == Pauli::I || g.basis[q] == Pauli::I || g.basis[q] == need
                })
            });
            match slot {
                Some(g) => {
                    for q in 0..n {
                        let need = term.string.pauli(q);
                        if need != Pauli::I {
                            g.basis[q] = need;
                        }
                    }
                    g.term_indices.push(idx);
                }
                None => {
                    let mut basis = vec![Pauli::I; n];
                    for (q, p) in term.string.sparse_ops() {
                        basis[q] = p;
                    }
                    groups.push(MeasurementGroup {
                        basis,
                        term_indices: vec![idx],
                    });
                }
            }
        }
        MeasurementPlan {
            n_qubits: n,
            groups,
        }
    }

    /// One group per term — the ungrouped baseline (ablation: measurement
    /// grouping on/off).
    pub fn per_term(h: &Hamiltonian) -> Self {
        let n = h.num_qubits();
        let groups = h
            .terms()
            .iter()
            .enumerate()
            .map(|(idx, term)| {
                let mut basis = vec![Pauli::I; n];
                for (q, p) in term.string.sparse_ops() {
                    basis[q] = p;
                }
                MeasurementGroup {
                    basis,
                    term_indices: vec![idx],
                }
            })
            .collect();
        MeasurementPlan {
            n_qubits: n,
            groups,
        }
    }

    /// Register width.
    pub fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The measurement groups.
    pub fn groups(&self) -> &[MeasurementGroup] {
        &self.groups
    }

    /// Builds the executable circuit for one group: `base` followed by the
    /// group's basis rotations.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError`] if the rotations do not fit `base`
    /// (width mismatch).
    pub fn circuit_for_group(
        &self,
        base: &Circuit,
        group: &MeasurementGroup,
    ) -> Result<Circuit, CircuitError> {
        let mut c = base.clone();
        c.extend(group.rotation_gates())?;
        Ok(c)
    }

    /// Estimates `<H>` from one [`Counts`] histogram per group.
    ///
    /// `counts[k]` must correspond to `groups()[k]`'s circuit. Bits are
    /// interpreted little-endian (qubit 0 = LSB), matching
    /// [`qsim::Counts`].
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != groups().len()`.
    pub fn expectation_from_counts(&self, h: &Hamiltonian, counts: &[Counts]) -> f64 {
        assert_eq!(
            counts.len(),
            self.groups.len(),
            "need one Counts histogram per measurement group"
        );
        let mut acc = 0.0;
        for (g, c) in self.groups.iter().zip(counts) {
            for &idx in &g.term_indices {
                let term = &h.terms()[idx];
                if term.string.is_identity() {
                    acc += term.coefficient;
                    continue;
                }
                let mask = term.string.support_mask();
                acc += term.coefficient * c.expectation_z_product(mask);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::sampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn heisenberg_pair() -> Hamiltonian {
        let mut h = Hamiltonian::new(2);
        h.add_label(1.0, "XX").unwrap();
        h.add_label(1.0, "YY").unwrap();
        h.add_label(1.0, "ZZ").unwrap();
        h
    }

    #[test]
    fn grouping_is_a_partition_of_terms() {
        let h = heisenberg_pair();
        let plan = MeasurementPlan::grouped(&h);
        let mut seen: Vec<usize> = plan
            .groups()
            .iter()
            .flat_map(|g| g.term_indices().iter().copied())
            .collect();
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn grouped_never_exceeds_per_term() {
        let mut h = heisenberg_pair();
        h.add_label(0.5, "ZI").unwrap();
        h.add_label(0.5, "IZ").unwrap();
        let grouped = MeasurementPlan::grouped(&h);
        let per_term = MeasurementPlan::per_term(&h);
        assert!(grouped.groups().len() <= per_term.groups().len());
        // ZZ, ZI, IZ share one setting -> exactly 3 groups.
        assert_eq!(grouped.groups().len(), 3);
        assert_eq!(per_term.groups().len(), 5);
    }

    #[test]
    fn rotation_gates_match_basis() {
        let mut h = Hamiltonian::new(3);
        h.add_label(1.0, "XYZ").unwrap();
        let plan = MeasurementPlan::grouped(&h);
        let gates = plan.groups()[0].rotation_gates();
        // qubit 2 = X -> H(2); qubit 1 = Y -> Sdg(1), H(1); qubit 0 = Z -> none.
        assert_eq!(gates, vec![Gate::Sdg(1), Gate::H(1), Gate::H(2)]);
    }

    #[test]
    fn counts_estimation_matches_statevector_for_bell() {
        // Exact distribution sampling at high shots should reproduce the
        // analytic expectation of the Heisenberg pair on a Bell state.
        let h = heisenberg_pair();
        let plan = MeasurementPlan::grouped(&h);
        let mut base = Circuit::new(2);
        base.push(Gate::H(0)).unwrap();
        base.push(Gate::Cx(0, 1)).unwrap();

        let mut rng = StdRng::seed_from_u64(11);
        let mut all_counts = Vec::new();
        for g in plan.groups() {
            let circ = plan.circuit_for_group(&base, g).unwrap();
            let sv = circ.run_statevector(&[]).unwrap();
            all_counts.push(sampler::sample_counts(
                &sv.probabilities(),
                2,
                200_000,
                &mut rng,
            ));
        }
        let est = plan.expectation_from_counts(&h, &all_counts);
        let exact = h.expectation(&base.run_statevector(&[]).unwrap());
        // Bell: XX=1, YY=-1, ZZ=1 -> 1.
        assert!((exact - 1.0).abs() < 1e-10);
        assert!(
            (est - exact).abs() < 0.02,
            "estimate {est} vs exact {exact}"
        );
    }

    #[test]
    fn identity_term_contributes_constant() {
        let mut h = Hamiltonian::new(1);
        h.add_label(2.5, "I").unwrap();
        h.add_label(1.0, "Z").unwrap();
        let plan = MeasurementPlan::grouped(&h);
        let mut counts = Counts::new(1);
        counts.record(0, 100); // always |0>: <Z> = +1
        let est = plan.expectation_from_counts(&h, &[counts]);
        assert!((est - 3.5).abs() < 1e-12);
    }

    #[test]
    fn basis_conflict_forces_new_group() {
        let mut h = Hamiltonian::new(1);
        h.add_label(1.0, "X").unwrap();
        h.add_label(1.0, "Z").unwrap();
        let plan = MeasurementPlan::grouped(&h);
        assert_eq!(plan.groups().len(), 2);
    }
}
