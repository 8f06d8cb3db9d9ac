//! The EQC client node (Algorithm 2 of the paper).
//!
//! One client manages one QPU: it transpiles the problem's circuit
//! templates once for its device's topology — and wraps each in a
//! [`CompiledTemplate`] that the backend plans once and refreshes per
//! noise token (per job, under drift) — then serves gradient tasks: the
//! per-occurrence forward/backward shift pairs go to the device as
//! **one** batched engine call ([`QpuBackend::execute_templates`]), the
//! loss is read off the returned counts, and the gradient is reported
//! together with the device's current `P_correct`.

use crate::weighting;
use qcircuit::ParamId;
use qdevice::{CompiledTemplate, QpuBackend, SimTime, TemplateRun};
use qsim::Counts;
use transpile::{transpile, CircuitMetrics, TranspileError, TranspileOptions, Transpiled};
use vqa::{GradientTask, VqaProblem};

/// A problem template prepared for one device.
#[derive(Clone, Debug)]
struct PreparedTemplate {
    /// Compiled form of the compacted symbolic physical circuit: the
    /// op-tape planned once, its channel numbers refreshed per noise
    /// token, its rotations rebound per job.
    compiled: CompiledTemplate,
    /// Gate indices of each parameter's occurrences in the compact
    /// circuit, indexed by [`ParamId`] (precomputed: the hot path reads
    /// them per task).
    occurrences: Vec<Vec<usize>>,
    /// Bit position of each logical qubit in the compact register.
    logical_bits: Vec<usize>,
    /// Full transpilation artifact (metrics, layouts).
    transpiled: Transpiled,
}

/// The result of one gradient task executed on one device.
#[derive(Clone, Debug)]
pub struct ClientTaskResult {
    /// The task that was executed.
    pub task: GradientTask,
    /// Unweighted gradient contribution of the task's slice.
    pub gradient: f64,
    /// The device's Eq. 2 score at submission, from *reported*
    /// calibration.
    pub p_correct: f64,
    /// Virtual submission time.
    pub submitted: SimTime,
    /// Virtual completion time.
    pub completed: SimTime,
    /// Circuits executed for this task.
    pub circuits_run: usize,
}

/// A client node paired with one backend.
#[derive(Clone, Debug)]
pub struct ClientNode {
    id: usize,
    backend: QpuBackend,
    templates: Vec<PreparedTemplate>,
    circuits_run: u64,
    tasks_completed: u64,
}

impl ClientNode {
    /// Creates a client by transpiling every problem template for the
    /// backend's topology.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError`] if a template does not fit the device.
    pub fn new(
        id: usize,
        backend: QpuBackend,
        problem: &dyn VqaProblem,
    ) -> Result<Self, TranspileError> {
        let options = TranspileOptions::default();
        let mut templates = Vec::with_capacity(problem.templates().len());
        for template in problem.templates() {
            let transpiled = transpile(template, backend.topology(), &options)?;
            let (compact, logical_bits) = transpiled.compact_for_simulation()?;
            let active_physical = transpiled.active_qubits();
            // The transpiler must preserve parameter occurrences, or the
            // shift rule would silently drop gradient terms — and the
            // pooled executor's deterministic lookahead classifies
            // instant (zero-occurrence) tasks from the *un-transpiled*
            // templates, so this invariant is load-bearing in release
            // builds too (a hard assert, not a debug assert).
            for p in 0..template.num_params() {
                assert_eq!(
                    compact.occurrences_of(ParamId(p)).len(),
                    template.occurrences_of(ParamId(p)).len(),
                    "transpilation changed occurrence structure"
                );
            }
            let occurrences = (0..compact.num_params())
                .map(|p| compact.occurrences_of(ParamId(p)))
                .collect();
            templates.push(PreparedTemplate {
                compiled: CompiledTemplate::new(compact, active_physical),
                occurrences,
                logical_bits,
                transpiled,
            });
        }
        Ok(ClientNode {
            id,
            backend,
            templates,
            circuits_run: 0,
            tasks_completed: 0,
        })
    }

    /// Client id within the ensemble.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Device name.
    pub fn device_name(&self) -> String {
        self.backend.name().to_string()
    }

    /// Total circuits executed by this client.
    pub fn circuits_run(&self) -> u64 {
        self.circuits_run
    }

    /// Total gradient tasks completed.
    pub fn tasks_completed(&self) -> u64 {
        self.tasks_completed
    }

    /// Times this client's templates were brought up to a new noise
    /// token — with a stable calibration one compile per template per
    /// calibration cycle touched, however many jobs ran; on a drifting
    /// device one per template per job.
    pub fn programs_compiled(&self) -> u64 {
        self.templates.iter().map(|t| t.compiled.compiles()).sum()
    }

    /// How many of those compiles planned the program's structure
    /// instead of refreshing its numbers — once per template unless the
    /// noise changed what the schedule emits (telemetry; see
    /// [`qdevice::CompiledTemplate::plans`]).
    pub fn programs_planned(&self) -> u64 {
        self.templates.iter().map(|t| t.compiled.plans()).sum()
    }

    /// Jobs served from cached compiled programs without recompiling.
    pub fn program_cache_hits(&self) -> u64 {
        self.templates.iter().map(|t| t.compiled.cache_hits()).sum()
    }

    /// Density runs the backend evolved through its group-fork walk
    /// (engine telemetry; does not affect results).
    pub fn batched_jobs(&self) -> u64 {
        self.backend.batched_jobs()
    }

    /// Borrows the backend (e.g. for calibration queries in reports).
    pub fn backend(&self) -> &QpuBackend {
        &self.backend
    }

    /// Mutably borrows the backend — the fleet's shared substrate uses
    /// this to attach/detach the per-device occupancy ledger.
    pub(crate) fn backend_mut(&mut self) -> &mut QpuBackend {
        &mut self.backend
    }

    /// Number of problem templates this client prepared.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// Transpiled metrics of template `t` (inputs to Eq. 2).
    pub fn template_metrics(&self, t: usize) -> &CircuitMetrics {
        &self.templates[t].transpiled.metrics
    }

    /// The device's current Eq. 2 score for the given templates, from the
    /// *reported* (possibly stale) calibration — exactly what Algorithm 2
    /// computes at circuit induction time.
    pub fn p_correct_at(&self, template_indices: &[usize], t: SimTime) -> f64 {
        let cal = self.backend.reported_calibration(t);
        Self::mean_p_correct(&self.templates, &cal, template_indices)
    }

    /// The shared Eq. 2 scoring body behind [`ClientNode::p_correct_at`]
    /// and the task hot path (which reads the calibration from the
    /// backend's per-cycle cache instead of rebuilding it).
    fn mean_p_correct(
        templates: &[PreparedTemplate],
        cal: &qdevice::Calibration,
        template_indices: &[usize],
    ) -> f64 {
        let mean: f64 = template_indices
            .iter()
            .map(|&i| weighting::p_correct(&templates[i].transpiled.metrics, cal))
            .sum::<f64>()
            / template_indices.len().max(1) as f64;
        weighting::bound_p_correct(mean)
    }

    /// Gate indices where `param` occurs in a template's compact circuit
    /// (empty when the parameter is absent).
    fn occurrence_list(&self, template: usize, param: ParamId) -> &[usize] {
        self.templates[template]
            .occurrences
            .get(param.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Maps slice template indices onto unique local slots for one
    /// batched engine call; returns `(unique_originals, local_of_each)`.
    fn local_slots(template_indices: &[usize]) -> (Vec<usize>, Vec<usize>) {
        let mut unique: Vec<usize> = Vec::new();
        let local = template_indices
            .iter()
            .map(|&ti| match unique.iter().position(|&u| u == ti) {
                Some(l) => l,
                None => {
                    unique.push(ti);
                    unique.len() - 1
                }
            })
            .collect();
        (unique, local)
    }

    /// Splits the client into its backend and the mutable compiled
    /// templates for the given unique slice indices — the borrow
    /// protocol behind every batched engine call.
    fn backend_and_templates(
        &mut self,
        unique: &[usize],
    ) -> (&mut QpuBackend, Vec<&mut CompiledTemplate>) {
        let ClientNode {
            backend, templates, ..
        } = self;
        let mut slots: Vec<Option<&mut CompiledTemplate>> = templates
            .iter_mut()
            .map(|p| Some(&mut p.compiled))
            .collect();
        let refs = unique
            .iter()
            .map(|&ti| slots[ti].take().expect("slice templates are deduplicated"))
            .collect();
        (backend, refs)
    }

    /// Executes one gradient task: the per-occurrence forward/backward
    /// shift pairs of every template in the slice go to the backend as
    /// **one** batched engine call over the client's compiled templates,
    /// then the gradient is assembled from the returned counts.
    ///
    /// # Panics
    ///
    /// Panics if the parameter vector is too short for the templates or
    /// occurrence structures disagree across the slice's templates.
    pub fn run_task(
        &mut self,
        problem: &dyn VqaProblem,
        task: GradientTask,
        params: &[f64],
        shots: usize,
        submit: SimTime,
    ) -> ClientTaskResult {
        let template_indices = problem.slice_templates(task.slice);
        let p_correct = {
            let ClientNode {
                backend, templates, ..
            } = &mut *self;
            Self::mean_p_correct(templates, backend.reported_at(submit), &template_indices)
        };

        // Occurrence structure from the first template; all templates of a
        // slice share the ansatz so the structure must agree.
        let n_occurrences = self.occurrence_list(template_indices[0], task.param).len();
        let n_templates = template_indices.len();
        if n_occurrences == 0 {
            // Parameter absent from the circuit: zero gradient, no job.
            return ClientTaskResult {
                task,
                gradient: 0.0,
                p_correct,
                submitted: submit,
                completed: submit,
                circuits_run: 0,
            };
        }

        // Build the batch: for each occurrence, forward then backward
        // shifts of every template in the slice.
        let (unique, local) = Self::local_slots(&template_indices);
        let mut runs: Vec<TemplateRun> = Vec::with_capacity(n_occurrences * 2 * n_templates);
        for k in 0..n_occurrences {
            for (j, &ti) in template_indices.iter().enumerate() {
                let occ = self.occurrence_list(ti, task.param);
                assert_eq!(
                    occ.len(),
                    n_occurrences,
                    "occurrence structure differs across slice templates"
                );
                runs.push(TemplateRun {
                    template: local[j],
                    shift: Some((occ[k], vqa::gradient::SHIFT)),
                });
            }
            for (j, &ti) in template_indices.iter().enumerate() {
                let occ = self.occurrence_list(ti, task.param);
                runs.push(TemplateRun {
                    template: local[j],
                    shift: Some((occ[k], -vqa::gradient::SHIFT)),
                });
            }
        }
        let (raw_counts, timing) = {
            let (backend, mut template_refs) = self.backend_and_templates(&unique);
            backend.execute_templates(&mut template_refs, &runs, params, shots, submit)
        };
        self.circuits_run += raw_counts.len() as u64;
        self.tasks_completed += 1;

        // Reassemble: per occurrence, the forward template counts then the
        // backward template counts.
        let occurrences = self.occurrence_list(template_indices[0], task.param);
        let first_circuit = self.templates[template_indices[0]].compiled.circuit();
        let mut gradient = 0.0;
        let per_occ = 2 * n_templates;
        for (k, &occ_idx) in occurrences.iter().enumerate() {
            let base = k * per_occ;
            let fwd_counts: Vec<Counts> = (0..n_templates)
                .map(|j| self.remap(template_indices[j], &raw_counts[base + j]))
                .collect();
            let bck_counts: Vec<Counts> = (0..n_templates)
                .map(|j| self.remap(template_indices[j], &raw_counts[base + n_templates + j]))
                .collect();
            let loss_fwd = problem.slice_loss(task.slice, &fwd_counts);
            let loss_bck = problem.slice_loss(task.slice, &bck_counts);
            let scale = first_circuit.gates()[occ_idx]
                .angle()
                .expect("occurrence is parameterized")
                .gradient_scale();
            gradient += scale * (loss_fwd - loss_bck) / 2.0;
        }

        ClientTaskResult {
            task,
            gradient,
            p_correct,
            submitted: submit,
            completed: timing.completed,
            circuits_run: runs.len(),
        }
    }

    /// Evaluates the full noisy loss at `params` by running every loss
    /// slice's templates once (one batched engine call per slice). Used
    /// for measured-energy reporting.
    pub fn evaluate_loss(
        &mut self,
        problem: &dyn VqaProblem,
        params: &[f64],
        shots: usize,
        submit: SimTime,
    ) -> (f64, SimTime) {
        let mut total = 0.0;
        let mut t = submit;
        for slice in problem.loss_slices() {
            let template_indices = problem.slice_templates(slice);
            let (unique, local) = Self::local_slots(&template_indices);
            let runs: Vec<TemplateRun> = local
                .iter()
                .map(|&l| TemplateRun {
                    template: l,
                    shift: None,
                })
                .collect();
            let (raw, timing) = {
                let (backend, mut template_refs) = self.backend_and_templates(&unique);
                backend.execute_templates(&mut template_refs, &runs, params, shots, t)
            };
            self.circuits_run += raw.len() as u64;
            let logical: Vec<Counts> = template_indices
                .iter()
                .zip(&raw)
                .map(|(&ti, c)| self.remap(ti, c))
                .collect();
            total += problem.slice_loss(slice, &logical);
            t = timing.completed;
        }
        (total, t)
    }

    fn remap(&self, template: usize, counts: &Counts) -> Counts {
        let prep = &self.templates[template];
        prep.transpiled.remap_counts(counts, &prep.logical_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::ParamId;
    use qdevice::catalog;
    use vqa::{QaoaProblem, TaskSlice, VqeProblem};

    fn quiet_backend(name: &str, seed: u64) -> QpuBackend {
        // Low-noise backend for gradient accuracy tests.
        let spec = catalog::by_name(name).unwrap();
        let mut cal = spec.calibration();
        cal.degrade(0.01, 1.0); // ~100x cleaner
        QpuBackend::new(
            &spec.name,
            spec.topology(),
            cal,
            qdevice::DriftModel::none(),
            qdevice::QueueModel::light(1.0),
            24.0,
            seed,
        )
    }

    #[test]
    fn client_transpiles_all_templates() {
        let problem = VqeProblem::heisenberg_4q();
        let client = ClientNode::new(0, catalog::by_name("bogota").unwrap().backend(1), &problem);
        let client = client.unwrap();
        assert_eq!(client.device_name(), "bogota");
        assert!(client.template_metrics(0).g2 >= 3);
    }

    #[test]
    fn gradient_matches_ideal_on_quiet_device() {
        let problem = QaoaProblem::maxcut_ring4();
        let mut client = ClientNode::new(0, quiet_backend("manila", 3), &problem).unwrap();
        let params = [0.7, 0.3];
        let task = GradientTask {
            param: ParamId(0),
            slice: TaskSlice::Full,
        };
        let r = client.run_task(&problem, task, &params, 60_000, SimTime::ZERO);
        // Ideal gradient via statevector.
        let ideal = vqa::gradient::shift_gradient(problem.ansatz(), &params, |c| {
            let sv = c.run_statevector(&[]).unwrap();
            // normalized MaxCut loss
            let h = vqa::hamiltonians::maxcut(problem.graph());
            h.expectation(&sv) / problem.graph().num_edges() as f64
        });
        assert!(
            (r.gradient - ideal[0]).abs() < 0.05,
            "device {} vs ideal {}",
            r.gradient,
            ideal[0]
        );
        // beta occurs on 4 edges -> 8 circuits in one batch.
        assert_eq!(r.circuits_run, 8);
        assert!(r.completed > r.submitted);
    }

    #[test]
    fn vqe_group_task_gradient_is_partial() {
        let problem = VqeProblem::heisenberg_4q();
        let mut client = ClientNode::new(0, quiet_backend("bogota", 5), &problem).unwrap();
        let params = problem.initial_point(2);
        let mut total = 0.0;
        for g in 0..3 {
            let task = GradientTask {
                param: ParamId(0),
                slice: TaskSlice::Group(g),
            };
            let r = client.run_task(&problem, task, &params, 120_000, SimTime::ZERO);
            total += r.gradient;
            assert_eq!(r.circuits_run, 2); // 1 occurrence x fwd/bck x 1 template
        }
        let ideal = vqa::gradient::shift_gradient(problem.ansatz(), &params, |c| {
            problem
                .hamiltonian()
                .expectation(&c.run_statevector(&[]).unwrap())
        });
        assert!(
            (total - ideal[0]).abs() < 0.12,
            "summed groups {total} vs ideal {}",
            ideal[0]
        );
    }

    #[test]
    fn p_correct_reflects_device_quality() {
        let problem = VqeProblem::heisenberg_4q();
        let good =
            ClientNode::new(0, catalog::by_name("bogota").unwrap().backend(1), &problem).unwrap();
        let bad = ClientNode::new(1, catalog::by_name("x2").unwrap().backend(1), &problem).unwrap();
        let t = SimTime::ZERO;
        assert!(good.p_correct_at(&[0], t) > bad.p_correct_at(&[0], t));
    }

    #[test]
    fn evaluate_loss_close_to_ideal_on_quiet_device() {
        let problem = VqeProblem::heisenberg_4q();
        let mut client = ClientNode::new(0, quiet_backend("manila", 9), &problem).unwrap();
        let params = problem.initial_point(4);
        let (loss, done) = client.evaluate_loss(&problem, &params, 60_000, SimTime::ZERO);
        let ideal = problem.ideal_loss(&params);
        assert!((loss - ideal).abs() < 0.2, "noisy {loss} vs ideal {ideal}");
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn missing_parameter_returns_zero_gradient() {
        // QAOA has 2 params; ask for a parameter beyond the template's
        // occurrence list by constructing a task for an unused ParamId.
        let problem = QaoaProblem::maxcut_ring4();
        let mut client = ClientNode::new(0, quiet_backend("belem", 2), &problem).unwrap();
        let r = client.run_task(
            &problem,
            GradientTask {
                param: ParamId(5),
                slice: TaskSlice::Full,
            },
            &[0.1, 0.2, 0.0, 0.0, 0.0, 0.0],
            128,
            SimTime::ZERO,
        );
        assert_eq!(r.gradient, 0.0);
        assert_eq!(r.circuits_run, 0);
    }
}
