//! The EQC client node (Algorithm 2 of the paper).
//!
//! One client manages one QPU: it takes the problem's circuit templates
//! transpiled once for its device's topology — each planned once per
//! architecture and schedule signature, and refreshed per noise token
//! (per job, under drift) — then
//! serves gradient tasks: the per-occurrence forward/backward shift
//! pairs go to the device as **one** job, the loss is read off the
//! counts it hands back — the executing thread's buffers, so a client
//! keeps none — and the gradient is reported together with the
//! device's current `P_correct`.
//!
//! A task runs in halves, the way Algorithm 2 submits a job and waits
//! for its counts: [`ClientNode::book_task`] books the job, settling its
//! completion from run times the client fixes per template
//! ([`QpuBackend::run_times`]); [`ClientNode::simulate_task`] scores the
//! device (Eq. 2), runs the circuits and returns the result.
//! [`ClientNode::run_task`] is both; the pooled fleet drive books on its
//! own thread and simulates on a worker.
//!
//! A fleet holds one client per (tenant, device) pair, but a template's
//! transpilation and plans belong to the device's architecture: the
//! client fetches each template's [`DeviceTemplate`] from its backend —
//! the transpile of the first device on its coupling map to ask for it
//! — and owns only a [`PlanPointer`] to the plan its jobs last ran on
//! (see [`qdevice::backend`](mod@qdevice::backend)). The numbers a job
//! runs on, like the simulator, belong to the executing thread, not to
//! the client or its backend; a client only tallies what its own jobs'
//! compiles did.

use crate::weighting;
use qdevice::{Compile, DeviceTemplate, PlanPointer, QpuBackend, SimTime, TemplateRun};
use qsim::Counts;
use transpile::{CircuitMetrics, TranspileError};
use vqa::{GradientTask, VqaProblem};

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

/// A gradient task booked on its device: when its job runs.
#[derive(Clone, Copy, Debug)]
pub struct TaskBooking {
    /// The task that was booked.
    pub task: GradientTask,
    /// Virtual submission time.
    pub submitted: SimTime,
    /// Virtual time the job starts, after its queue wait.
    pub started: SimTime,
    /// Virtual completion time.
    pub completed: SimTime,
    /// Circuits the job executes.
    pub circuits_run: usize,
}

/// A client node paired with one backend.
#[derive(Clone, Debug)]
pub struct ClientNode {
    id: usize,
    backend: QpuBackend,
    /// The architecture's entry for each problem template, by template
    /// index, and this client's pointer to the plan it last ran on.
    templates: Vec<DeviceTemplate>,
    plans: Vec<PlanPointer>,
    /// Each template's [`QpuBackend::run_times`], what its jobs book.
    run_times: Vec<(f64, f64)>,
    circuits_run: u64,
    tasks_completed: u64,
    /// This client's own jobs' compile outcomes, by [`Compile`] variant.
    compiles: [u64; 3],
}

impl ClientNode {
    /// Creates a client over an entry of every problem template,
    /// prepared by the backend (transpiled on the first request of any
    /// device of its architecture).
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError`] if a template does not fit the device.
    pub fn new(
        id: usize,
        backend: QpuBackend,
        problem: &dyn VqaProblem,
    ) -> Result<Self, TranspileError> {
        let templates: Vec<_> = problem
            .templates()
            .iter()
            .map(|template| backend.template(template))
            .collect::<Result<_, _>>()?;
        Ok(ClientNode {
            id,
            plans: vec![PlanPointer::default(); templates.len()],
            run_times: templates.iter().map(|t| backend.run_times(t)).collect(),
            backend,
            templates,
            circuits_run: 0,
            tasks_completed: 0,
            compiles: [0; 3],
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

    /// Times this client's own jobs brought a template's numbers up to
    /// a new noise token, planned or refreshed: on a drifting device one
    /// per template per job; on a steady one, once per cycle while the
    /// executing thread's memo holds the numbers (a co-tenant's job on
    /// that thread may have compiled them first), again once it drops
    /// them.
    pub fn programs_compiled(&self) -> u64 {
        self.compiles[Compile::Refresh as usize] + self.programs_planned()
    }

    /// How many of those compiles planned the program's structure
    /// instead of refreshing its numbers: a job whose noise fit none of
    /// the plans its device's architecture holds for the template —
    /// once per (architecture, schedule signature, template) across a
    /// fleet, by whichever device's job gets there first (telemetry;
    /// see [`qdevice::CompiledTemplate::plans`]).
    pub fn programs_planned(&self) -> u64 {
        self.compiles[Compile::Plan as usize]
    }

    /// Runs of this client's own jobs served by the numbers the
    /// executing thread's memo holds: a shift pair's second run, and on
    /// a steady device later jobs in the cycle.
    pub fn program_cache_hits(&self) -> u64 {
        self.compiles[Compile::Hit as usize]
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
        templates: &[DeviceTemplate],
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

    /// Executes one gradient task: books it ([`ClientNode::book_task`])
    /// and simulates it at once ([`ClientNode::simulate_task`]).
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
        let slice = problem.slice_templates(task.slice);
        let booking = self.book(&slice, task, shots, submit);
        self.simulate(problem, &slice, &booking, params, shots)
    }

    /// The booking half of a task submitted at `submit`: the job of the
    /// per-occurrence shift pairs of the slice's templates, drawn a start
    /// and booked. A task whose parameter does not occur runs no job: it
    /// completes at `submit`, drawing nothing.
    pub fn book_task(
        &mut self,
        problem: &dyn VqaProblem,
        task: GradientTask,
        shots: usize,
        submit: SimTime,
    ) -> TaskBooking {
        self.book(&problem.slice_templates(task.slice), task, shots, submit)
    }

    /// The simulation half of a task [`ClientNode::book_task`] booked:
    /// the device's Eq. 2 score at submission, then its job at the
    /// booked start, as **one** batched engine call, and the gradient
    /// assembled from the counts (zero for no job).
    pub fn simulate_task(
        &mut self,
        problem: &dyn VqaProblem,
        booking: &TaskBooking,
        params: &[f64],
        shots: usize,
    ) -> ClientTaskResult {
        let slice = problem.slice_templates(booking.task.slice);
        self.simulate(problem, &slice, booking, params, shots)
    }

    /// [`ClientNode::book_task`] over the slice's template indices.
    fn book(
        &mut self,
        slice: &[usize],
        task: GradientTask,
        shots: usize,
        submit: SimTime,
    ) -> TaskBooking {
        let runs = shift_runs(&self.templates, slice, task);
        let circuits_run = runs.clone().count();
        let (started, completed) = if circuits_run == 0 {
            (submit, submit)
        } else {
            let run_times = &self.run_times;
            let times = runs.map(|run| run_times[run.template]);
            let timing = self.backend.book_job(submit, shots, times);
            (timing.started, timing.completed)
        };
        TaskBooking {
            task,
            submitted: submit,
            started,
            completed,
            circuits_run,
        }
    }

    /// [`ClientNode::simulate_task`] over the slice's template indices.
    fn simulate(
        &mut self,
        problem: &dyn VqaProblem,
        slice: &[usize],
        booking: &TaskBooking,
        params: &[f64],
        shots: usize,
    ) -> ClientTaskResult {
        let reported = self.backend.reported_at(booking.submitted);
        let p_correct = Self::mean_p_correct(&self.templates, reported, slice);
        let result = |gradient| ClientTaskResult {
            task: booking.task,
            gradient,
            p_correct,
            submitted: booking.submitted,
            completed: booking.completed,
            circuits_run: booking.circuits_run,
        };
        if booking.circuits_run == 0 {
            return result(0.0);
        }
        let task = booking.task;
        // Occurrence structure from the first template; all templates of a
        // slice share the ansatz so the structure must agree.
        let first = &self.templates[slice[0]];
        let occurrences = first.occurrences(task.param);
        let n_templates = slice.len();
        // Reassemble: per occurrence, the forward template counts then the
        // backward template counts.
        let gradient = |counts: &[Counts]| {
            let loss =
                |first: usize| problem.slice_loss(task.slice, &counts[first..][..n_templates]);
            let mut gradient = 0.0;
            for (k, &occ) in occurrences.iter().enumerate() {
                let angle = first.circuit().gates()[occ].angle();
                let scale = angle.expect("occurrence is parameterized").gradient_scale();
                let fwd = k * 2 * n_templates;
                gradient += scale * (loss(fwd) - loss(fwd + n_templates)) / 2.0;
            }
            gradient
        };
        let (compiles, gradient) = self.backend.simulate_device_templates(
            &self.templates,
            &mut self.plans,
            shift_runs(&self.templates, slice, task),
            params,
            shots,
            booking.started,
            gradient,
        );
        self.tally(compiles, booking.circuits_run);
        self.tasks_completed += 1;
        result(gradient)
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
            let runs = template_indices.iter().map(|&template| TemplateRun {
                template,
                shift: None,
            });
            let times = runs.clone().map(|run| self.run_times[run.template]);
            let timing = self.backend.book_job(t, shots, times);
            let (compiles, loss) = self.backend.simulate_device_templates(
                &self.templates,
                &mut self.plans,
                runs,
                params,
                shots,
                timing.started,
                |counts| problem.slice_loss(slice, counts),
            );
            self.tally(compiles, template_indices.len());
            total += loss;
            t = timing.completed;
        }
        (total, t)
    }

    /// Books a job's compile outcomes and circuits on this client.
    fn tally(&mut self, compiles: [u64; 3], circuits: usize) {
        for (tally, n) in self.compiles.iter_mut().zip(compiles) {
            *tally += n;
        }
        self.circuits_run += circuits as u64;
    }
}

/// A gradient task's runs, in job order: per occurrence of the task's
/// parameter, the forward then the backward shift of every template in
/// `slice` (none when the parameter does not occur).
fn shift_runs<'a>(
    templates: &'a [DeviceTemplate],
    slice: &'a [usize],
    task: GradientTask,
) -> impl Iterator<Item = TemplateRun> + Clone + 'a {
    let n_occurrences = templates[slice[0]].occurrences(task.param).len();
    (0..n_occurrences).flat_map(move |k| {
        [vqa::gradient::SHIFT, -vqa::gradient::SHIFT]
            .into_iter()
            .flat_map(move |delta| {
                slice.iter().map(move |&ti| {
                    let occ = templates[ti].occurrences(task.param);
                    assert_eq!(
                        occ.len(),
                        n_occurrences,
                        "occurrence structure differs across slice templates"
                    );
                    TemplateRun {
                        template: ti,
                        shift: Some((occ[k], delta)),
                    }
                })
            })
    })
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
        // Memory guard: per template a client holds the architecture's
        // entry — the compact circuit, the metrics and the logical bit
        // order — and a plan pointer, and the architecture's cache
        // prints counts, not entries: no layout, and no circuit over
        // the 27-qubit register the transpiler routed on.
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
        // One transpile per template, for the first client; the others
        // hold the same architecture entries, whose compact circuit is
        // one `Arc`.
        let n = problem.templates().len() as u64;
        let architecture = device.architecture_templates();
        assert_eq!((architecture.transpiles(), architecture.hits()), (n, 2 * n));
        for (a, b) in clients[0].templates.iter().zip(&clients[2].templates) {
            assert!(std::ptr::eq(a.circuit(), b.circuit()));
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
    /// to one architecture entry.
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
    fn a_problem_listing_one_circuit_twice_runs_it_once_per_job() {
        let qaoa = QaoaProblem::maxcut_ring4();
        let circuit = qaoa.templates()[0].clone();
        let problem = Twice(qaoa, vec![circuit.clone(), circuit]);
        let mut client = ClientNode::new(0, quiet_backend("belem", 6), &problem).unwrap();
        let [a, b] = [0, 1].map(|t| client.templates[t].circuit());
        assert!(std::ptr::eq(a, b));
        let task = GradientTask {
            param: ParamId(1),
            slice: TaskSlice::Full,
        };
        let r = client.run_task(&problem, task, &[0.7, 0.3], 256, SimTime::ZERO);
        // One program for both listed copies: one plan, every other run
        // a hit.
        assert_eq!(
            (client.programs_compiled(), client.programs_planned()),
            (1, 1)
        );
        let (loss, _) = client.evaluate_loss(&problem, &[0.7, 0.3], 256, r.completed);
        // 4 occurrences: 4 shift pairs of both listed copies.
        assert_eq!((r.circuits_run, loss.is_finite()), (16, true));
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
