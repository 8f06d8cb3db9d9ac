//! The EQC client node (Algorithm 2 of the paper).
//!
//! One client manages one QPU: it takes the problem's circuit templates
//! transpiled once for its device's topology — each wrapped in a
//! [`CompiledTemplate`] that the backend plans once and refreshes per
//! noise token (per job, under drift) — then serves gradient tasks: the
//! per-occurrence forward/backward shift pairs go to the device as
//! **one** batched engine call ([`QpuBackend::execute_templates`]), the
//! loss is read off the returned counts, and the gradient is reported
//! together with the device's current `P_correct`.
//!
//! A fleet holds one client per (tenant, device) pair, but a template's
//! compiled program belongs to the device and its transpilation to the
//! device's architecture: the client fetches each template's
//! [`DeviceTemplate`] from its backend, which prepares it on the first
//! request of any clone of the device — over the transpile of the first
//! device on its coupling map — and shares it with the rest (see
//! [`qdevice::backend`](mod@qdevice::backend)). A task locks its
//! slice's distinct entries for the one job it submits. The simulator
//! belongs to the executing thread, not to the client's backend.

use crate::weighting;
use qdevice::{
    CompiledTemplate, DeviceTemplate, JobResult, QpuBackend, SimTime, TemplateLocks, TemplateRun,
};
use qsim::Counts;
use std::sync::Arc;
use transpile::{remap_counts, CircuitMetrics, TranspileError};
use vqa::{GradientTask, VqaProblem};

/// What this client's own jobs did to the compiled templates they ran
/// (telemetry: the templates are the device's, so their own counters
/// sum every clone's jobs).
#[derive(Clone, Copy, Debug, Default)]
struct CompileTally {
    compiled: u64,
    planned: u64,
    hits: u64,
}

impl CompileTally {
    /// The counters of `templates`, summed.
    fn of(templates: &[&mut CompiledTemplate]) -> Self {
        templates
            .iter()
            .fold(Self::default(), |sum, t| CompileTally {
                compiled: sum.compiled + t.compiles(),
                planned: sum.planned + t.plans(),
                hits: sum.hits + t.cache_hits(),
            })
    }

    /// Runs one job on `backend` over the locked templates and adds
    /// what its compiles did — exact, because no other job touches the
    /// templates while they are locked.
    fn execute(
        &mut self,
        backend: &mut QpuBackend,
        locks: &mut TemplateLocks<'_>,
        runs: &[TemplateRun],
        params: &[f64],
        shots: usize,
        submit: SimTime,
    ) -> (Vec<Counts>, JobResult) {
        let mut templates = locks.templates();
        let before = Self::of(&templates);
        let job = backend.execute_templates(&mut templates, runs, params, shots, submit);
        let after = Self::of(&templates);
        self.compiled += after.compiled - before.compiled;
        self.planned += after.planned - before.planned;
        self.hits += after.hits - before.hits;
        job
    }
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
    /// The device's entry for each problem template, by template index.
    templates: Vec<Arc<DeviceTemplate>>,
    circuits_run: u64,
    tasks_completed: u64,
    compiles: CompileTally,
}

impl ClientNode {
    /// Creates a client over the backend's prepared entry of every
    /// problem template (transpiled on the device's first request).
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError`] if a template does not fit the device.
    pub fn new(
        id: usize,
        backend: QpuBackend,
        problem: &dyn VqaProblem,
    ) -> Result<Self, TranspileError> {
        let templates = problem
            .templates()
            .iter()
            .map(|template| backend.template(template))
            .collect::<Result<_, _>>()?;
        Ok(ClientNode {
            id,
            backend,
            templates,
            circuits_run: 0,
            tasks_completed: 0,
            compiles: CompileTally::default(),
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

    /// Times this client's jobs brought a template up to a new noise
    /// token — with a stable calibration at most one compile per
    /// template per calibration cycle touched, however many jobs ran
    /// (a co-tenant's job may have compiled it first); on a drifting
    /// device one per template per job.
    pub fn programs_compiled(&self) -> u64 {
        self.compiles.compiled
    }

    /// How many of those compiles planned the program's structure
    /// instead of refreshing its numbers — once per template and device
    /// unless the noise changed what the schedule emits (telemetry; see
    /// [`qdevice::CompiledTemplate::plans`]).
    pub fn programs_planned(&self) -> u64 {
        self.compiles.planned
    }

    /// Template runs of this client's jobs served from the compiled
    /// program without recompiling.
    pub fn program_cache_hits(&self) -> u64 {
        self.compiles.hits
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
    /// this to attach the per-device occupancy ledger at admission.
    pub(crate) fn backend_mut(&mut self) -> &mut QpuBackend {
        &mut self.backend
    }

    /// Number of problem templates this client prepared.
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// Metrics of template `t` after transpilation (inputs to Eq. 2).
    pub fn template_metrics(&self, t: usize) -> &CircuitMetrics {
        self.templates[t].metrics()
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
        templates: &[Arc<DeviceTemplate>],
        cal: &qdevice::Calibration,
        template_indices: &[usize],
    ) -> f64 {
        let mean: f64 = template_indices
            .iter()
            .map(|&i| weighting::p_correct(templates[i].metrics(), cal))
            .sum::<f64>()
            / template_indices.len().max(1) as f64;
        weighting::bound_p_correct(mean)
    }

    /// Executes one gradient task: the per-occurrence forward/backward
    /// shift pairs of every template in the slice go to the backend as
    /// **one** batched engine call over the slice's locked templates,
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
        let p_correct = Self::mean_p_correct(
            &self.templates,
            self.backend.reported_at(submit),
            &template_indices,
        );

        // Occurrence structure from the first template; all templates of a
        // slice share the ansatz so the structure must agree.
        let slice: Vec<&Arc<DeviceTemplate>> = template_indices
            .iter()
            .map(|&ti| &self.templates[ti])
            .collect();
        let occurrences = slice[0].occurrences(task.param);
        let n_occurrences = occurrences.len();
        let n_templates = slice.len();
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
        let mut locks = TemplateLocks::new(slice.iter().copied());
        let local = locks.slots().to_vec();
        let mut runs: Vec<TemplateRun> = Vec::with_capacity(n_occurrences * 2 * n_templates);
        for k in 0..n_occurrences {
            for (j, entry) in slice.iter().enumerate() {
                let occ = entry.occurrences(task.param);
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
            for (j, entry) in slice.iter().enumerate() {
                runs.push(TemplateRun {
                    template: local[j],
                    shift: Some((entry.occurrences(task.param)[k], -vqa::gradient::SHIFT)),
                });
            }
        }
        let (raw_counts, timing) =
            self.compiles
                .execute(&mut self.backend, &mut locks, &runs, params, shots, submit);
        let first_circuit = locks.template(local[0]).circuit();
        let scales: Vec<f64> = occurrences
            .iter()
            .map(|&occ_idx| {
                first_circuit.gates()[occ_idx]
                    .angle()
                    .expect("occurrence is parameterized")
                    .gradient_scale()
            })
            .collect();
        drop(locks);
        self.circuits_run += raw_counts.len() as u64;
        self.tasks_completed += 1;

        // Reassemble: per occurrence, the forward template counts then the
        // backward template counts.
        let mut gradient = 0.0;
        let per_occ = 2 * n_templates;
        for (k, scale) in scales.into_iter().enumerate() {
            let base = k * per_occ;
            let fwd_counts: Vec<Counts> = (0..n_templates)
                .map(|j| remap(slice[j], &raw_counts[base + j]))
                .collect();
            let bck_counts: Vec<Counts> = (0..n_templates)
                .map(|j| remap(slice[j], &raw_counts[base + n_templates + j]))
                .collect();
            let loss_fwd = problem.slice_loss(task.slice, &fwd_counts);
            let loss_bck = problem.slice_loss(task.slice, &bck_counts);
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
            let entries: Vec<&Arc<DeviceTemplate>> = problem
                .slice_templates(slice)
                .into_iter()
                .map(|ti| &self.templates[ti])
                .collect();
            let mut locks = TemplateLocks::new(entries.iter().copied());
            let runs: Vec<TemplateRun> = locks
                .slots()
                .iter()
                .map(|&l| TemplateRun {
                    template: l,
                    shift: None,
                })
                .collect();
            let (raw, timing) =
                self.compiles
                    .execute(&mut self.backend, &mut locks, &runs, params, shots, t);
            drop(locks);
            self.circuits_run += raw.len() as u64;
            let logical: Vec<Counts> = entries
                .iter()
                .zip(&raw)
                .map(|(entry, c)| remap(entry, c))
                .collect();
            total += problem.slice_loss(slice, &logical);
            t = timing.completed;
        }
        (total, t)
    }
}

/// `counts` over the compact register, remapped to the template's
/// logical bit order.
fn remap(entry: &DeviceTemplate, counts: &Counts) -> Counts {
    remap_counts(counts, entry.logical_bits())
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
    fn a_client_keeps_no_layout_and_no_full_register_circuit() {
        // Memory guard: per template a client holds the device's entry
        // — the compiled template (whose circuit is the compact one),
        // the metrics and the logical bit order — and the device's
        // cache prints counts, not entries: no layout, and no circuit
        // over the 27-qubit register the transpiler routed on.
        let problem = VqeProblem::h2();
        let backend = catalog::by_name("toronto").unwrap().backend(1);
        let client = ClientNode::new(0, backend, &problem).unwrap();
        let debug = format!("{client:?}");
        assert!(!debug.to_lowercase().contains("layout"), "{debug}");
        assert_eq!(
            debug.matches("Circuit {").count(),
            client.num_templates(),
            "one compact circuit per template: {debug}"
        );
        assert!(!debug.contains("n_qubits: 27"), "{debug}");
    }

    #[test]
    fn clones_of_a_device_share_its_templates_and_count_their_own_jobs() {
        let problem = VqeProblem::h2();
        let device = quiet_backend("belem", 4);
        let mut clients: Vec<ClientNode> = (0..3)
            .map(|id| ClientNode::new(id, device.clone(), &problem).unwrap())
            .collect();
        let n = problem.templates().len() as u64;
        let cache = device.device_template_cache();
        assert_eq!((cache.builds(), cache.hits()), (n, 2 * n));
        for (a, b) in clients[0].templates.iter().zip(&clients[2].templates) {
            assert!(Arc::ptr_eq(a, b));
        }
        // A steady device in one cycle: the first client's job compiles
        // its slice, the others' jobs hit what it compiled.
        let task = GradientTask {
            param: ParamId(0),
            slice: TaskSlice::Group(0),
        };
        let params = problem.initial_point(3);
        for client in &mut clients {
            client.run_task(&problem, task, &params, 64, SimTime::ZERO);
        }
        let tally = |c: &ClientNode| {
            (
                c.programs_compiled(),
                c.programs_planned(),
                c.program_cache_hits(),
            )
        };
        assert_eq!(tally(&clients[0]), (1, 1, 1), "plan, then the pair's hit");
        assert_eq!(tally(&clients[1]), (0, 0, 2));
        assert_eq!(tally(&clients[2]), (0, 0, 2));
    }

    /// A problem that lists its one circuit twice: both indices resolve
    /// to one device entry.
    struct Twice(QaoaProblem, Vec<qcircuit::Circuit>);

    impl VqaProblem for Twice {
        fn name(&self) -> String {
            "twice".into()
        }
        fn num_qubits(&self) -> usize {
            self.0.num_qubits()
        }
        fn num_params(&self) -> usize {
            self.0.num_params()
        }
        fn granularity(&self) -> vqa::TaskGranularity {
            self.0.granularity()
        }
        fn initial_point(&self, seed: u64) -> Vec<f64> {
            self.0.initial_point(seed)
        }
        fn templates(&self) -> &[qcircuit::Circuit] {
            &self.1
        }
        fn tasks(&self) -> Vec<GradientTask> {
            self.0.tasks()
        }
        fn slice_templates(&self, _: TaskSlice) -> Vec<usize> {
            vec![0, 1]
        }
        fn slice_loss(&self, slice: TaskSlice, counts: &[Counts]) -> f64 {
            counts
                .iter()
                .map(|c| self.0.slice_loss(slice, std::slice::from_ref(c)))
                .sum::<f64>()
                / 2.0
        }
        fn loss_slices(&self) -> Vec<TaskSlice> {
            self.0.loss_slices()
        }
        fn ideal_loss(&self, params: &[f64]) -> f64 {
            self.0.ideal_loss(params)
        }
        fn reference_minimum(&self) -> f64 {
            self.0.reference_minimum()
        }
    }

    #[test]
    fn a_problem_listing_one_circuit_twice_locks_it_once() {
        let qaoa = QaoaProblem::maxcut_ring4();
        let circuit = qaoa.templates()[0].clone();
        let problem = Twice(qaoa, vec![circuit.clone(), circuit]);
        // On its own thread, so a self-deadlock fails the test instead
        // of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut client = ClientNode::new(0, quiet_backend("belem", 6), &problem).unwrap();
            assert!(Arc::ptr_eq(&client.templates[0], &client.templates[1]));
            let task = GradientTask {
                param: ParamId(1),
                slice: TaskSlice::Full,
            };
            let r = client.run_task(&problem, task, &[0.7, 0.3], 256, SimTime::ZERO);
            let (loss, _) = client.evaluate_loss(&problem, &[0.7, 0.3], 256, r.completed);
            tx.send((r.circuits_run, loss.is_finite())).unwrap();
        });
        let (circuits, finite) = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the job must not deadlock on its own entry");
        // 4 occurrences: 4 shift pairs of both listed copies.
        assert_eq!((circuits, finite), (16, true));
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
