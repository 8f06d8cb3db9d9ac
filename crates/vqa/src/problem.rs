//! VQA problem definitions and task decomposition.
//!
//! Section III-A of the paper decomposes each VQA family into parallel
//! gradient tasks differently:
//!
//! * **VQE** — parallelized at the *Pauli string level*: a task computes
//!   one parameter's gradient contribution from one qubit-wise-commuting
//!   measurement group;
//! * **QAOA** — parallelized at the *parameter level*: a task computes
//!   one parameter's full gradient;
//! * **QNN** — parallelized at the *data point level*: a task computes one
//!   parameter's gradient on one data point, and the full gradient is the
//!   dataset average.
//!
//! [`VqaProblem`] captures the common shape: symbolic circuit templates
//! (transpiled once per device by the client), a task list cycled by the
//! master, and per-slice losses that are **affine in the measured
//! expectation values** so the parameter-shift rule distributes over
//! slices exactly.

use crate::ansatz;
use crate::graph::Graph;
use crate::hamiltonians;
use qcircuit::measure::MeasurementPlan;
use qcircuit::pauli::Hamiltonian;
use qcircuit::{Circuit, ParamId};
use qsim::Counts;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How a problem's gradient work splits into parallel tasks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskGranularity {
    /// One task per parameter (QAOA).
    Parameter,
    /// One task per (parameter, measurement group) (VQE).
    PauliGroup,
    /// One task per (parameter, data point) (QNN).
    DataPoint,
}

/// The data slice a task's loss is evaluated over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskSlice {
    /// The whole loss (all measurement groups / the full dataset).
    Full,
    /// One qubit-wise-commuting measurement group.
    Group(usize),
    /// One data point of a QNN dataset.
    DataPoint(usize),
}

/// One schedulable unit of gradient work: differentiate `param` on
/// `slice`. Summing a parameter's slice gradients yields its full
/// gradient.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GradientTask {
    /// The parameter to differentiate.
    pub param: ParamId,
    /// The loss slice to differentiate over.
    pub slice: TaskSlice,
}

/// A variational problem as seen by the EQC framework.
///
/// Implementations must keep every `slice_loss` **affine** in the
/// measurement expectations (energies and margin losses are; squared
/// errors are not), which makes the parameter-shift rule exact per slice.
pub trait VqaProblem: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Logical qubit count of the circuits.
    fn num_qubits(&self) -> usize;

    /// Number of trainable parameters.
    fn num_params(&self) -> usize;

    /// The paper's decomposition class for this problem.
    fn granularity(&self) -> TaskGranularity;

    /// A deterministic random starting point.
    fn initial_point(&self, seed: u64) -> Vec<f64>;

    /// All distinct symbolic circuit templates, measurement rotations
    /// included. Clients transpile each once per device.
    fn templates(&self) -> &[Circuit];

    /// The ordered task list of one optimization cycle (epoch).
    ///
    /// All slices of a parameter must be listed contiguously (the
    /// paper's cyclic per-parameter walk): barrier-style executors
    /// detect parameter-group boundaries from this ordering.
    fn tasks(&self) -> Vec<GradientTask>;

    /// Indices into [`VqaProblem::templates`] needed to evaluate `slice`.
    fn slice_templates(&self, slice: TaskSlice) -> Vec<usize>;

    /// Loss contribution of `slice`, given one counts histogram per
    /// template from [`VqaProblem::slice_templates`] (logical bit order).
    /// Full loss = sum of slice losses over [`VqaProblem::loss_slices`].
    fn slice_loss(&self, slice: TaskSlice, counts: &[Counts]) -> f64;

    /// The canonical slice decomposition whose losses sum to the full
    /// loss.
    fn loss_slices(&self) -> Vec<TaskSlice>;

    /// Exact (noiseless, infinite-shot) loss via state-vector simulation —
    /// the paper's ideal-simulator reference.
    fn ideal_loss(&self, params: &[f64]) -> f64;

    /// The exact optimum (ground energy or equivalent) the loss is
    /// compared against in error percentages.
    fn reference_minimum(&self) -> f64;
}

// ---------------------------------------------------------------------
// VQE
// ---------------------------------------------------------------------

/// A VQE problem: minimize `<psi(theta)| H |psi(theta)>` (paper Eq. 1).
#[derive(Clone, Debug)]
pub struct VqeProblem {
    name: String,
    hamiltonian: Hamiltonian,
    ansatz: Circuit,
    plan: MeasurementPlan,
    templates: Vec<Circuit>,
    reference: f64,
}

impl VqeProblem {
    /// Builds a VQE problem from a Hamiltonian and ansatz.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree.
    pub fn new(name: &str, hamiltonian: Hamiltonian, ansatz: Circuit) -> Self {
        assert_eq!(
            hamiltonian.num_qubits(),
            ansatz.num_qubits(),
            "Hamiltonian and ansatz widths must match"
        );
        let plan = MeasurementPlan::grouped(&hamiltonian);
        let templates = plan
            .groups()
            .iter()
            .map(|g| {
                let mut c = ansatz.clone();
                c.extend(g.rotation_gates())
                    .expect("rotations fit the ansatz");
                c
            })
            .collect();
        let reference = hamiltonian.ground_state().0;
        VqeProblem {
            name: name.to_string(),
            hamiltonian,
            ansatz,
            plan,
            templates,
            reference,
        }
    }

    /// The paper's VQE benchmark: 4-qubit Heisenberg model on the square
    /// lattice (ring) with `J = B = 1` (Eq. 3) under the Fig. 8
    /// hardware-efficient ansatz.
    pub fn heisenberg_4q() -> Self {
        VqeProblem::new(
            "vqe-heisenberg-4q",
            hamiltonians::heisenberg(&Graph::ring(4), 1.0, 1.0),
            ansatz::hardware_efficient(4),
        )
    }

    /// Extension workload: 2-qubit H2 molecule VQE.
    pub fn h2() -> Self {
        VqeProblem::new(
            "vqe-h2",
            hamiltonians::h2_molecule(),
            ansatz::hardware_efficient(2),
        )
    }

    /// The problem Hamiltonian.
    pub fn hamiltonian(&self) -> &Hamiltonian {
        &self.hamiltonian
    }

    /// The bare ansatz (no measurement rotations).
    pub fn ansatz(&self) -> &Circuit {
        &self.ansatz
    }

    /// The measurement plan.
    pub fn plan(&self) -> &MeasurementPlan {
        &self.plan
    }

    fn group_loss(&self, group: usize, counts: &Counts) -> f64 {
        let g = &self.plan.groups()[group];
        let mut acc = 0.0;
        for &idx in g.term_indices() {
            let term = &self.hamiltonian.terms()[idx];
            if term.string.is_identity() {
                acc += term.coefficient;
            } else {
                let mask = term.string.support_mask();
                acc += term.coefficient * counts.expectation_z_product(mask);
            }
        }
        acc
    }
}

impl VqaProblem for VqeProblem {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn num_qubits(&self) -> usize {
        self.ansatz.num_qubits()
    }

    fn num_params(&self) -> usize {
        self.ansatz.num_params()
    }

    fn granularity(&self) -> TaskGranularity {
        TaskGranularity::PauliGroup
    }

    fn initial_point(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.num_params())
            .map(|_| rng.gen_range(-0.8..0.8))
            .collect()
    }

    fn templates(&self) -> &[Circuit] {
        &self.templates
    }

    fn tasks(&self) -> Vec<GradientTask> {
        let groups = self.plan.groups().len();
        (0..self.num_params())
            .flat_map(|p| {
                (0..groups).map(move |g| GradientTask {
                    param: ParamId(p),
                    slice: TaskSlice::Group(g),
                })
            })
            .collect()
    }

    fn slice_templates(&self, slice: TaskSlice) -> Vec<usize> {
        match slice {
            TaskSlice::Full => (0..self.templates.len()).collect(),
            TaskSlice::Group(g) => vec![g],
            TaskSlice::DataPoint(_) => panic!("VQE has no data points"),
        }
    }

    fn slice_loss(&self, slice: TaskSlice, counts: &[Counts]) -> f64 {
        match slice {
            TaskSlice::Full => {
                assert_eq!(counts.len(), self.plan.groups().len());
                (0..counts.len())
                    .map(|g| self.group_loss(g, &counts[g]))
                    .sum()
            }
            TaskSlice::Group(g) => {
                assert_eq!(counts.len(), 1);
                self.group_loss(g, &counts[0])
            }
            TaskSlice::DataPoint(_) => panic!("VQE has no data points"),
        }
    }

    fn loss_slices(&self) -> Vec<TaskSlice> {
        (0..self.plan.groups().len())
            .map(TaskSlice::Group)
            .collect()
    }

    fn ideal_loss(&self, params: &[f64]) -> f64 {
        let sv = self
            .ansatz
            .run_statevector(params)
            .expect("parameter count matches");
        self.hamiltonian.expectation(&sv)
    }

    fn reference_minimum(&self) -> f64 {
        self.reference
    }
}

// ---------------------------------------------------------------------
// QAOA
// ---------------------------------------------------------------------

/// A QAOA MaxCut problem: minimize `<H>/|E|` for the spin Hamiltonian of
/// Eq. 7 (the per-edge normalization matches the cost scale of the
/// paper's Figs. 11-12, where the p=1 optimum on the 4-ring sits at
/// -0.75).
#[derive(Clone, Debug)]
pub struct QaoaProblem {
    name: String,
    graph: Graph,
    hamiltonian: Hamiltonian,
    plan: MeasurementPlan,
    templates: Vec<Circuit>,
    ansatz: Circuit,
    rounds: usize,
    norm: f64,
    reference: f64,
}

impl QaoaProblem {
    /// Builds a QAOA MaxCut problem with `p` rounds.
    pub fn maxcut(name: &str, graph: Graph, p: usize) -> Self {
        let hamiltonian = hamiltonians::maxcut(&graph);
        let ansatz = ansatz::qaoa(&graph, p);
        let plan = MeasurementPlan::grouped(&hamiltonian);
        let templates: Vec<Circuit> = plan
            .groups()
            .iter()
            .map(|g| {
                let mut c = ansatz.clone();
                c.extend(g.rotation_gates()).expect("rotations fit");
                c
            })
            .collect();
        let norm = graph.num_edges() as f64;
        let reference = hamiltonian.ground_state().0 / norm;
        QaoaProblem {
            name: name.to_string(),
            graph,
            hamiltonian,
            plan,
            templates,
            ansatz,
            rounds: p,
            norm,
            reference,
        }
    }

    /// The paper's benchmark: MaxCut on the unweighted 4-node ring with
    /// `p = 1` (2 parameters, 8 asynchronous workers in Section V-E).
    pub fn maxcut_ring4() -> Self {
        QaoaProblem::maxcut("qaoa-maxcut-ring4", Graph::ring(4), 1)
    }

    /// The problem graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of QAOA rounds.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The bare ansatz.
    pub fn ansatz(&self) -> &Circuit {
        &self.ansatz
    }
}

impl VqaProblem for QaoaProblem {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn num_qubits(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_params(&self) -> usize {
        2 * self.rounds
    }

    fn granularity(&self) -> TaskGranularity {
        TaskGranularity::Parameter
    }

    fn initial_point(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.num_params())
            .map(|_| rng.gen_range(0.1..0.6))
            .collect()
    }

    fn templates(&self) -> &[Circuit] {
        &self.templates
    }

    fn tasks(&self) -> Vec<GradientTask> {
        (0..self.num_params())
            .map(|p| GradientTask {
                param: ParamId(p),
                slice: TaskSlice::Full,
            })
            .collect()
    }

    fn slice_templates(&self, slice: TaskSlice) -> Vec<usize> {
        match slice {
            TaskSlice::Full => (0..self.templates.len()).collect(),
            TaskSlice::Group(g) => vec![g],
            TaskSlice::DataPoint(_) => panic!("QAOA has no data points"),
        }
    }

    fn slice_loss(&self, slice: TaskSlice, counts: &[Counts]) -> f64 {
        let raw = match slice {
            TaskSlice::Full => self.plan.expectation_from_counts(&self.hamiltonian, counts),
            TaskSlice::Group(g) => {
                // MaxCut groups into a single Z-basis group; delegate to
                // the plan when asked for sub-slices anyway.
                assert_eq!(counts.len(), 1);
                let mut acc = 0.0;
                for &idx in self.plan.groups()[g].term_indices() {
                    let term = &self.hamiltonian.terms()[idx];
                    if term.string.is_identity() {
                        acc += term.coefficient;
                    } else {
                        let mask = term.string.support_mask();
                        acc += term.coefficient * counts[0].expectation_z_product(mask);
                    }
                }
                acc
            }
            TaskSlice::DataPoint(_) => panic!("QAOA has no data points"),
        };
        raw / self.norm
    }

    fn loss_slices(&self) -> Vec<TaskSlice> {
        vec![TaskSlice::Full]
    }

    fn ideal_loss(&self, params: &[f64]) -> f64 {
        let sv = self.ansatz.run_statevector(params).expect("bound");
        self.hamiltonian.expectation(&sv) / self.norm
    }

    fn reference_minimum(&self) -> f64 {
        self.reference
    }
}

// ---------------------------------------------------------------------
// QNN
// ---------------------------------------------------------------------

/// A toy quantum binary classifier trained with the margin loss
/// `L = mean_i (1 - y_i <Z_0>_i) / 2` (affine in the expectations, so the
/// shift rule distributes over data points exactly — the paper's QNN
/// decomposition).
///
/// Features are angle-encoded per data point; the trainable block is a
/// hardware-efficient layer. Each data point yields its own template
/// (encoding is baked in), matching the paper's dataset-level
/// parallelism.
#[derive(Clone, Debug)]
pub struct QnnProblem {
    name: String,
    templates: Vec<Circuit>,
    labels: Vec<f64>,
    num_params: usize,
    n_qubits: usize,
}

impl QnnProblem {
    /// Builds the classifier over a dataset of `(features, label)` pairs
    /// with labels in `{-1, +1}`. Features are mapped to `RY(pi * x)`
    /// encodings.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty, features are not 2-dimensional, or
    /// labels are not +/-1.
    pub fn new(name: &str, dataset: &[([f64; 2], f64)]) -> Self {
        assert!(!dataset.is_empty(), "dataset must be non-empty");
        let n_qubits = 2;
        let trainable = ansatz::hardware_efficient(n_qubits);
        let num_params = trainable.num_params();
        let mut templates = Vec::with_capacity(dataset.len());
        let mut labels = Vec::with_capacity(dataset.len());
        for &(x, y) in dataset {
            assert!(y == 1.0 || y == -1.0, "labels must be +/-1, got {y}");
            let mut c = Circuit::new(n_qubits);
            use qcircuit::{Angle, Gate};
            c.push(Gate::Ry(0, Angle::Fixed(std::f64::consts::PI * x[0])))
                .expect("valid");
            c.push(Gate::Ry(1, Angle::Fixed(std::f64::consts::PI * x[1])))
                .expect("valid");
            c.extend(trainable.gates().iter().copied()).expect("valid");
            templates.push(c);
            labels.push(y);
        }
        QnnProblem {
            name: name.to_string(),
            templates,
            labels,
            num_params,
            n_qubits,
        }
    }

    /// A deterministic synthetic two-blob dataset of `n` points.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n);
        for i in 0..n {
            let label = if i % 2 == 0 { 1.0 } else { -1.0 };
            let center: f64 = if label > 0.0 { 0.25 } else { 0.75 };
            let x = [
                (center + rng.gen_range(-0.15..0.15f64)).clamp(0.0, 1.0),
                (center + rng.gen_range(-0.15..0.15f64)).clamp(0.0, 1.0),
            ];
            data.push((x, label));
        }
        QnnProblem::new("qnn-synthetic", &data)
    }

    /// Number of data points.
    pub fn num_data_points(&self) -> usize {
        self.labels.len()
    }

    /// Label of data point `i`.
    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// Classification accuracy of `params` on the training set (ideal
    /// simulation).
    pub fn accuracy(&self, params: &[f64]) -> f64 {
        let mut correct = 0usize;
        for (t, &y) in self.templates.iter().zip(&self.labels) {
            let sv = t.run_statevector(params).expect("bound");
            let z = sv.expectation_pauli(&[(0, qsim::Pauli::Z)]);
            if z.signum() == y.signum() {
                correct += 1;
            }
        }
        correct as f64 / self.labels.len() as f64
    }

    fn point_loss_from_z(&self, i: usize, z: f64) -> f64 {
        (1.0 - self.labels[i] * z) / (2.0 * self.labels.len() as f64)
    }
}

impl VqaProblem for QnnProblem {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn num_qubits(&self) -> usize {
        self.n_qubits
    }

    fn num_params(&self) -> usize {
        self.num_params
    }

    fn granularity(&self) -> TaskGranularity {
        TaskGranularity::DataPoint
    }

    fn initial_point(&self, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..self.num_params)
            .map(|_| rng.gen_range(-0.5..0.5))
            .collect()
    }

    fn templates(&self) -> &[Circuit] {
        &self.templates
    }

    fn tasks(&self) -> Vec<GradientTask> {
        (0..self.num_params)
            .flat_map(|p| {
                (0..self.labels.len()).map(move |d| GradientTask {
                    param: ParamId(p),
                    slice: TaskSlice::DataPoint(d),
                })
            })
            .collect()
    }

    fn slice_templates(&self, slice: TaskSlice) -> Vec<usize> {
        match slice {
            TaskSlice::Full => (0..self.templates.len()).collect(),
            TaskSlice::DataPoint(d) => vec![d],
            TaskSlice::Group(_) => panic!("QNN has no measurement groups"),
        }
    }

    fn slice_loss(&self, slice: TaskSlice, counts: &[Counts]) -> f64 {
        match slice {
            TaskSlice::Full => counts
                .iter()
                .enumerate()
                .map(|(i, c)| self.point_loss_from_z(i, c.expectation_z_product(0b1)))
                .sum(),
            TaskSlice::DataPoint(d) => {
                assert_eq!(counts.len(), 1);
                self.point_loss_from_z(d, counts[0].expectation_z_product(0b1))
            }
            TaskSlice::Group(_) => panic!("QNN has no measurement groups"),
        }
    }

    fn loss_slices(&self) -> Vec<TaskSlice> {
        (0..self.labels.len()).map(TaskSlice::DataPoint).collect()
    }

    fn ideal_loss(&self, params: &[f64]) -> f64 {
        self.templates
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let sv = t.run_statevector(params).expect("bound");
                self.point_loss_from_z(i, sv.expectation_pauli(&[(0, qsim::Pauli::Z)]))
            })
            .sum()
    }

    fn reference_minimum(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim::sampler::sample_counts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn counts_for(problem: &dyn VqaProblem, slice: TaskSlice, params: &[f64]) -> Vec<Counts> {
        let mut rng = StdRng::seed_from_u64(123);
        problem
            .slice_templates(slice)
            .into_iter()
            .map(|t| {
                let sv = problem.templates()[t].run_statevector(params).unwrap();
                sample_counts(&sv.probabilities(), sv.num_qubits(), 400_000, &mut rng)
            })
            .collect()
    }

    #[test]
    fn vqe_heisenberg_shape() {
        let p = VqeProblem::heisenberg_4q();
        assert_eq!(p.num_params(), 16);
        assert_eq!(p.num_qubits(), 4);
        // XX group, YY group, ZZ+Z group.
        assert_eq!(p.templates().len(), 3);
        assert_eq!(p.tasks().len(), 48);
        assert_eq!(p.granularity(), TaskGranularity::PauliGroup);
        assert!((p.reference_minimum() + 8.0).abs() < 1e-8);
    }

    #[test]
    fn vqe_slice_losses_sum_to_ideal() {
        let p = VqeProblem::heisenberg_4q();
        let params = p.initial_point(3);
        let total: f64 = p
            .loss_slices()
            .into_iter()
            .map(|s| p.slice_loss(s, &counts_for(&p, s, &params)))
            .sum();
        let ideal = p.ideal_loss(&params);
        assert!(
            (total - ideal).abs() < 0.05,
            "sampled {total} vs ideal {ideal}"
        );
    }

    #[test]
    fn qaoa_ring4_shape_and_reference() {
        let p = QaoaProblem::maxcut_ring4();
        assert_eq!(p.num_params(), 2);
        assert_eq!(p.granularity(), TaskGranularity::Parameter);
        assert_eq!(p.tasks().len(), 2);
        // Normalized max cut of the 4-ring: -4/4 = -1.
        assert!((p.reference_minimum() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn qaoa_full_slice_matches_ideal() {
        let p = QaoaProblem::maxcut_ring4();
        let params = [0.8, 0.4];
        let counts = counts_for(&p, TaskSlice::Full, &params);
        let est = p.slice_loss(TaskSlice::Full, &counts);
        let ideal = p.ideal_loss(&params);
        assert!((est - ideal).abs() < 0.02, "{est} vs {ideal}");
    }

    #[test]
    fn qaoa_p1_optimum_on_ring_is_three_quarters() {
        // Scan the 2-parameter landscape: the best normalized cost of
        // p=1 QAOA on an even ring is -0.75 (approximation ratio 3/4).
        let p = QaoaProblem::maxcut_ring4();
        let mut best = 0.0f64;
        for i in 0..40 {
            for j in 0..40 {
                let beta = i as f64 * std::f64::consts::PI / 40.0;
                let alpha = j as f64 * std::f64::consts::PI / 40.0;
                best = best.min(p.ideal_loss(&[beta, alpha]));
            }
        }
        assert!((best + 0.75).abs() < 0.01, "best {best}");
    }

    #[test]
    fn qnn_dataset_decomposition() {
        let p = QnnProblem::synthetic(8, 5);
        assert_eq!(p.num_data_points(), 8);
        assert_eq!(p.granularity(), TaskGranularity::DataPoint);
        assert_eq!(p.tasks().len(), 8 * p.num_params());
        assert_eq!(p.templates().len(), 8);
        // Loss decomposes over data points.
        let params = p.initial_point(1);
        let total: f64 = p
            .loss_slices()
            .into_iter()
            .map(|s| {
                let counts = counts_for(&p, s, &params);
                p.slice_loss(s, &counts)
            })
            .sum();
        assert!((total - p.ideal_loss(&params)).abs() < 0.02);
    }

    #[test]
    fn qnn_loss_bounds_and_accuracy() {
        let p = QnnProblem::synthetic(8, 5);
        let params = p.initial_point(1);
        let loss = p.ideal_loss(&params);
        assert!(
            (0.0..=1.0).contains(&loss),
            "margin loss in [0,1], got {loss}"
        );
        let acc = p.accuracy(&params);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn initial_points_are_seeded_deterministically() {
        let p = VqeProblem::heisenberg_4q();
        assert_eq!(p.initial_point(7), p.initial_point(7));
        assert_ne!(p.initial_point(7), p.initial_point(8));
    }

    #[test]
    fn vqe_gradient_through_slices_matches_direct() {
        // Differentiating slice-by-slice and summing must equal the
        // shift-rule gradient of the full ideal loss.
        let p = VqeProblem::heisenberg_4q();
        let params = p.initial_point(11);
        let direct = crate::gradient::shift_gradient(p.ansatz(), &params, |c| {
            p.hamiltonian()
                .expectation(&c.run_statevector(&[]).unwrap())
        });
        // Slice route: for parameter 0, sum group gradients evaluated on
        // the *templates* (rotations appended).
        let param = ParamId(0);
        let mut acc = 0.0;
        for (g, template) in p.templates().iter().enumerate() {
            let pairs = crate::gradient::shift_plan(template, param, &params);
            let fwd: Vec<f64> = pairs
                .iter()
                .map(|pair| {
                    let sv = pair.forward.run_statevector(&[]).unwrap();
                    let mut rng = StdRng::seed_from_u64(0);
                    let counts = sample_counts(&sv.probabilities(), 4, 1, &mut rng);
                    let _ = counts; // exact path below instead
                    exact_group_loss(&p, g, &sv)
                })
                .collect();
            let bck: Vec<f64> = pairs
                .iter()
                .map(|pair| {
                    let sv = pair.backward.run_statevector(&[]).unwrap();
                    exact_group_loss(&p, g, &sv)
                })
                .collect();
            acc += crate::gradient::combine_shift_losses(&pairs, &fwd, &bck);
        }
        assert!(
            (acc - direct[0]).abs() < 1e-8,
            "slice-sum {acc} vs direct {}",
            direct[0]
        );
    }

    /// Exact expectation of one measurement group's terms, evaluated on a
    /// state that already includes the group's basis rotations.
    fn exact_group_loss(p: &VqeProblem, group: usize, sv: &qsim::StateVector) -> f64 {
        let g = &p.plan().groups()[group];
        let mut acc = 0.0;
        for &idx in g.term_indices() {
            let term = &p.hamiltonian().terms()[idx];
            if term.string.is_identity() {
                acc += term.coefficient;
            } else {
                let ops: Vec<(usize, qsim::Pauli)> = term
                    .string
                    .support()
                    .into_iter()
                    .map(|q| (q, qsim::Pauli::Z))
                    .collect();
                acc += term.coefficient * sv.expectation_pauli(&ops);
            }
        }
        acc
    }
}
