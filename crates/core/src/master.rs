//! The shared master-loop core behind every [`Executor`].
//!
//! Algorithm 1 of the paper is one state machine regardless of the
//! execution substrate: walk the cyclic task schedule, gather each
//! (cycle, parameter)'s slice gradients, apply the weighted ASGD update
//! `theta <- theta - w * alpha * g` (Eqs. 4/12), track staleness, and
//! record epoch history. [`MasterLoop`] owns that state machine; the
//! executors in [`crate::executor`] differ only in *how* tasks reach
//! devices and in which order results come back.
//!
//! The three policy decisions the loop makes — which client gets the
//! next task, how much a gradient counts, and whether a drifting client
//! keeps participating — are delegated to the [`crate::policy`] stack
//! ([`PolicyConfig`]): the master owns the bookkeeping (weighting
//! state, health baselines, the eviction set) and hands each policy an
//! immutable context snapshot. Executors interact with the health layer
//! through three queries: [`MasterLoop::is_active`] (may this client be
//! dispatched?), [`MasterLoop::drain_readmitted`] (who rejoined since
//! the last absorb?), and [`MasterLoop::pick_client`] (which idle
//! client gets the next task?).
//!
//! [`Executor`]: crate::executor::Executor

use crate::client::{ClientNode, ClientTaskResult};
use crate::config::{EqcConfig, PolicyConfig};
use crate::error::EqcError;
use crate::policy::health::HealthProbe;
use crate::policy::{FleetOccupancy, HealthContext, HealthVerdict, ScheduleContext, WeightContext};
use crate::report::{
    ClientStats, EpochRecord, EvictionEvent, MembershipChange, PolicyTelemetry, TrainingReport,
    WeightProvenance, WeightSample,
};
use qdevice::SimTime;
use vqa::{GradientTask, VqaProblem};

/// A task handed to a client, with everything the master needs to file
/// the result when it returns.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// The gradient task to execute.
    pub task: GradientTask,
    /// Snapshot of the parameters at dispatch time.
    pub params: Vec<f64>,
    /// Cycle index of the task (gather key component).
    pub cycle: usize,
    /// Parameter-update counter at dispatch time (staleness tracking).
    pub dispatched_at_update: u64,
}

/// Accumulates the slice gradients of one (cycle, parameter) gather.
struct Gather {
    remaining: usize,
    weighted_sum: f64,
}

/// The master node's full optimization state, shared by every executor.
pub struct MasterLoop {
    config: EqcConfig,
    policies: PolicyConfig,
    n_clients: usize,

    // Cyclic schedule.
    tasks: Vec<GradientTask>,
    tasks_per_cycle: usize,
    params_per_cycle: usize,
    /// Slices per parameter, indexed by parameter.
    slices_per_param: Vec<usize>,
    cursor: usize,

    // Optimization state.
    theta: Vec<f64>,
    update_count: u64,
    epochs_recorded: usize,
    terminated: bool,
    /// The open gathers by `(cycle, parameter)`: a handful at a time,
    /// found by a scan.
    gathers: Vec<((usize, usize), Gather)>,

    // Weighting state.
    last_p: Vec<f64>,
    p_seen: Vec<bool>,
    p_sums: Vec<f64>,
    absorbed: Vec<u64>,
    w_sums: Vec<f64>,
    w_counts: Vec<u64>,
    w_min: Vec<f64>,
    w_max: Vec<f64>,
    weight_trace: Vec<WeightSample>,

    // Health state.
    probes: Vec<HealthProbe>,
    active: Vec<bool>,
    active_count: usize,
    baseline_p: Vec<f64>,
    readmitted_pending: Vec<usize>,
    evictions: u64,
    readmissions: u64,
    eviction_log: Vec<EvictionEvent>,

    // History and staleness telemetry.
    history: Vec<EpochRecord>,
    update_log: Vec<(usize, usize)>,
    staleness_max: u64,
    staleness_sum: u64,
    staleness_n: u64,
    now: SimTime,

    // Shared-substrate occupancy view (fleet drives only; `None` for
    // standalone sessions and byte-isolated substrates).
    fleet_occupancy: Option<FleetOccupancy>,
    /// Scratch of every scheduler consultation: the candidates' waits.
    queue_wait_s: Vec<f64>,
}

impl MasterLoop {
    /// Builds the master state for `problem` under `config` and
    /// `policies`.
    ///
    /// `probes` gives the health/scheduling layer a per-client window
    /// onto each device's reported calibration and queue model. It may
    /// be empty (unit tests, bare shims), in which case queue estimates
    /// read as zero and re-admission probes echo the client's baseline.
    ///
    /// The caller (the session constructor) has already validated the
    /// configuration and checked that the problem has a non-empty
    /// schedule.
    pub(crate) fn new(
        problem: &dyn VqaProblem,
        config: EqcConfig,
        policies: PolicyConfig,
        n_clients: usize,
        probes: Vec<HealthProbe>,
    ) -> Self {
        let tasks = problem.tasks();
        let tasks_per_cycle = tasks.len();
        let params_per_cycle = problem.num_params();
        let params = tasks.iter().map(|t| t.param.index() + 1).max();
        let mut slices_per_param = vec![0; params.unwrap_or(0)];
        for t in &tasks {
            slices_per_param[t.param.index()] += 1;
        }
        MasterLoop {
            config,
            policies,
            n_clients,
            theta: problem.initial_point(config.seed),
            tasks,
            tasks_per_cycle,
            params_per_cycle,
            slices_per_param,
            cursor: 0,
            update_count: 0,
            epochs_recorded: 0,
            terminated: false,
            gathers: Vec::new(),
            last_p: vec![1.0; n_clients],
            p_seen: vec![false; n_clients],
            p_sums: vec![0.0; n_clients],
            absorbed: vec![0; n_clients],
            w_sums: vec![0.0; n_clients],
            w_counts: vec![0; n_clients],
            w_min: vec![f64::INFINITY; n_clients],
            w_max: vec![f64::NEG_INFINITY; n_clients],
            weight_trace: Vec::new(),
            probes,
            active: vec![true; n_clients],
            active_count: n_clients,
            baseline_p: vec![0.0; n_clients],
            readmitted_pending: Vec::new(),
            evictions: 0,
            readmissions: 0,
            eviction_log: Vec::new(),
            history: Vec::new(),
            update_log: Vec::new(),
            staleness_max: 0,
            staleness_sum: 0,
            staleness_n: 0,
            now: SimTime::ZERO,
            fleet_occupancy: None,
            queue_wait_s: Vec::new(),
        }
    }

    /// Refreshes the installed occupancy snapshot *in place* from the
    /// fleet's shared view, shifting booked horizons by the tenant's
    /// arrival offset. Reuses the existing snapshot's buffers, so
    /// steady-state refreshes are allocation-free.
    pub(crate) fn install_fleet_occupancy(&mut self, fleet_view: &FleetOccupancy, offset_s: f64) {
        self.fleet_occupancy
            .get_or_insert_with(FleetOccupancy::default)
            .copy_shifted_from(fleet_view, offset_s);
    }

    /// Whether refreshing the occupancy snapshot can affect this loop's
    /// decisions. Schedulers that never read queue estimates (e.g. the
    /// paper's cyclic default) keep their decision sequence regardless
    /// of occupancy, so the fleet skips the refresh entirely — which is
    /// also what keeps the shared-substrate oracle byte-exact.
    pub(crate) fn wants_occupancy(&self) -> bool {
        self.policies.scheduler.needs_queue_estimates()
    }

    /// Whether the training goal is met (epoch budget reached or the
    /// virtual-time cap crossed).
    pub fn is_complete(&self) -> bool {
        self.terminated || self.epochs_recorded >= self.config.epochs
    }

    /// The latest virtual time observed across absorbed results.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Epochs recorded so far — the progress half of the deadline
    /// introspection consumed by capacity arbiters.
    pub fn epochs_completed(&self) -> usize {
        self.epochs_recorded
    }

    /// The configured epoch budget this loop is training towards.
    pub fn epoch_budget(&self) -> usize {
        self.config.epochs
    }

    /// Whether `client` is currently in the rotation (not evicted by
    /// the health policy). Executors must not dispatch to inactive
    /// clients.
    pub fn is_active(&self, client: usize) -> bool {
        self.active.get(client).copied().unwrap_or(false)
    }

    /// Number of clients currently in the rotation.
    pub fn active_clients(&self) -> usize {
        self.active_count
    }

    /// Clients re-admitted by the health policy since the last drain.
    /// Executors fold these back into their idle sets (re-routing the
    /// schedule share an evicted client gave up).
    pub fn drain_readmitted(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.readmitted_pending)
    }

    /// The dispatch protocol shared by every one-task-in-flight
    /// executor: which clients get the next tasks, in scheduler-policy
    /// order, after `freed`'s result was absorbed — the freed client
    /// itself (unless the health policy benched it) plus every client
    /// re-admitted since the last dispatch. May be empty.
    ///
    /// # Errors
    ///
    /// Propagates [`MasterLoop::pick_client`] failures.
    pub fn dispatch_order(&mut self, freed: usize) -> Result<Vec<usize>, EqcError> {
        let mut idle = self.drain_readmitted();
        if self.is_active(freed) {
            idle.push(freed);
        }
        self.policy_order(idle)
    }

    /// The priming protocol: every active client, in scheduler-policy
    /// order, for the executor's initial one-task-per-client fan-out.
    ///
    /// # Errors
    ///
    /// Propagates [`MasterLoop::pick_client`] failures.
    pub fn prime_order(&mut self) -> Result<Vec<usize>, EqcError> {
        let idle: Vec<usize> = (0..self.n_clients).filter(|&c| self.active[c]).collect();
        self.policy_order(idle)
    }

    /// Orders an idle set by repeated scheduler consultation (dispatch
    /// does not feed back into [`MasterLoop::pick_client`], so the
    /// order can be fixed up front).
    fn policy_order(&mut self, mut idle: Vec<usize>) -> Result<Vec<usize>, EqcError> {
        idle.sort_unstable();
        // A client both freed and re-admitted in one absorb (possible
        // only under a health policy that flaps within a single probe)
        // must still be dispatched exactly once.
        idle.dedup();
        if idle.len() <= 1 {
            return Ok(idle);
        }
        let mut order = Vec::with_capacity(idle.len());
        while !idle.is_empty() {
            let c = self.pick_client(&idle)?;
            idle.retain(|&x| x != c);
            order.push(c);
        }
        Ok(order)
    }

    /// Monotone counter of health-membership changes (evictions +
    /// re-admissions); executors that cache an active-client list
    /// refresh it when this moves.
    pub fn membership_generation(&self) -> u64 {
        self.evictions + self.readmissions
    }

    /// Consults the scheduler policy for the next assignment's client.
    ///
    /// `candidates` are the executor's idle, active clients in
    /// ascending id order. With a single candidate the scheduler is
    /// bypassed (there is no decision to make — and no queue estimate
    /// to pay for on the hot path).
    ///
    /// # Errors
    ///
    /// [`EqcError::Internal`] when called with no candidates.
    pub fn pick_client(&mut self, candidates: &[usize]) -> Result<usize, EqcError> {
        let first = *candidates
            .first()
            .ok_or_else(|| EqcError::Internal("scheduler consulted with no idle clients".into()))?;
        if candidates.len() == 1 {
            return Ok(first);
        }
        let waits = &mut self.queue_wait_s;
        waits.clear();
        if self.policies.scheduler.needs_queue_estimates() {
            // Predictive schedulers evaluate the queue models ahead of
            // the current virtual time (where the job would actually
            // queue); instantaneous ones read them at `now` exactly.
            let horizon = self.policies.scheduler.lookahead_s();
            let at = if horizon.is_finite() && horizon > 0.0 {
                self.now + horizon
            } else {
                self.now
            };
            let at_s = at.as_secs();
            waits.extend(candidates.iter().map(|&c| {
                let base = self.probes.get(c).map_or(0.0, |p| p.queue_wait_s(at));
                // On the shared substrate the per-device ledger's
                // cross-tenant pressure stacks on top of the
                // client's own base-load estimate.
                match &self.fleet_occupancy {
                    Some(occ) => base + occ.pressure_s(c, at_s),
                    None => base,
                }
            }));
        } else {
            waits.resize(candidates.len(), 0.0);
        }
        let pick = self.policies.scheduler.pick(&ScheduleContext {
            candidates,
            queue_wait_s: waits,
            now_hours: self.now.as_hours(),
            occupancy: self.fleet_occupancy.as_ref(),
        });
        // An out-of-set pick would corrupt the executor's idle
        // bookkeeping; fall back to the first candidate instead.
        Ok(if candidates.contains(&pick) {
            pick
        } else {
            first
        })
    }

    /// The (cycle, parameter) group the next assignment belongs to, or
    /// `None` on an empty schedule. Executors with barrier semantics
    /// use this to detect group boundaries without consuming the
    /// assignment.
    ///
    /// Group detection relies on [`VqaProblem::tasks`] listing all
    /// slices of a parameter contiguously (which every shipped problem
    /// does; the schedule is the paper's cyclic per-parameter walk).
    pub fn next_group(&self) -> Option<(usize, usize)> {
        if self.tasks_per_cycle == 0 {
            return None;
        }
        let cycle = self.cursor / self.tasks_per_cycle;
        let param = self.tasks[self.cursor % self.tasks_per_cycle].param.index();
        Some((cycle, param))
    }

    /// Takes the next task off the cyclic schedule, registering its
    /// gather (Algorithm 1's dispatch step).
    ///
    /// # Errors
    ///
    /// [`EqcError::EmptySchedule`] when the problem produced no tasks
    /// (unreachable through the session constructors, which reject
    /// empty problems up front).
    pub fn next_assignment(&mut self) -> Result<Assignment, EqcError> {
        if self.tasks_per_cycle == 0 {
            return Err(EqcError::EmptySchedule);
        }
        let cycle = self.cursor / self.tasks_per_cycle;
        let task = self.tasks[self.cursor % self.tasks_per_cycle];
        self.cursor += 1;
        let key = (cycle, task.param.index());
        if self.gather(key).is_none() {
            let gather = Gather {
                remaining: self.slices_per_param[key.1],
                weighted_sum: 0.0,
            };
            self.gathers.push((key, gather));
        }
        Ok(Assignment {
            task,
            params: self.theta.clone(),
            cycle,
            dispatched_at_update: self.update_count,
        })
    }

    /// Where the open gather of `key` sits in `gathers`.
    fn gather(&self, key: (usize, usize)) -> Option<usize> {
        self.gathers.iter().position(|&(k, _)| k == key)
    }

    /// Files one completed task: updates the weighting state, folds the
    /// policy-weighted gradient into its gather and, when the gather
    /// completes, applies the ASGD update and records staleness / epoch
    /// history. Afterwards the health policy rules on the reporting
    /// client and every evicted client is probed for re-admission.
    ///
    /// Results completing past the virtual-time cap are discarded and
    /// mark the run terminated (the paper's 2-week cutoff).
    ///
    /// # Errors
    ///
    /// [`EqcError::UnknownGather`] when the result does not match any
    /// gather registered by [`MasterLoop::next_assignment`].
    pub fn absorb(
        &mut self,
        client: usize,
        cycle: usize,
        dispatched_at_update: u64,
        result: &ClientTaskResult,
        problem: &dyn VqaProblem,
    ) -> Result<(), EqcError> {
        if self.is_complete() {
            return Ok(());
        }

        // Reject an orphaned result *before* it can touch any state —
        // the virtual clock and termination flag included — so an
        // erroring caller leaves the master exactly as it found it.
        let key = (cycle, result.task.param.index());
        let Some(gather) = self.gather(key) else {
            return Err(EqcError::UnknownGather {
                cycle,
                param: key.1,
            });
        };

        self.now = self.now.max(result.completed);
        if let Some(cap) = self.config.max_virtual_hours {
            if result.completed.as_hours() > cap {
                self.terminated = true;
                return Ok(());
            }
        }

        // Fresh P_correct for the reporting client.
        self.last_p[client] = result.p_correct;
        self.p_seen[client] = true;
        self.p_sums[client] += result.p_correct;
        self.absorbed[client] += 1;

        let decision = self.policies.weighting.weight(&WeightContext {
            client,
            n_clients: self.n_clients,
            last_p_correct: &self.last_p,
            reported: &self.p_seen,
            bounds: self.config.weight_bounds,
            staleness: self.update_count.saturating_sub(dispatched_at_update),
        });
        if let Some(weights) = decision.ensemble_trace {
            self.weight_trace.push(WeightSample {
                virtual_hours: self.now.as_hours(),
                weights,
            });
        }
        let w = decision.weight;
        self.w_sums[client] += w;
        self.w_counts[client] += 1;
        self.w_min[client] = self.w_min[client].min(w);
        self.w_max[client] = self.w_max[client].max(w);

        // Fold the weighted slice gradient into its gather.
        let done = {
            let g = &mut self.gathers[gather].1;
            g.weighted_sum += w * result.gradient;
            g.remaining -= 1;
            g.remaining == 0
        };
        if done {
            let (_, g) = self.gathers.swap_remove(gather);
            let mut step = self.config.learning_rate * g.weighted_sum;
            if let Some(clip) = self.config.gradient_clip {
                step = step.clamp(-clip, clip);
            }
            self.theta[key.1] -= step;
            self.update_count += 1;
            self.update_log.push(key);

            let staleness = self.update_count.saturating_sub(dispatched_at_update + 1);
            self.staleness_max = self.staleness_max.max(staleness);
            self.staleness_sum += staleness;
            self.staleness_n += 1;

            // Epoch boundary: every parameter updated once more.
            if self.update_count as usize / self.params_per_cycle > self.epochs_recorded {
                self.epochs_recorded = self.update_count as usize / self.params_per_cycle;
                self.history.push(EpochRecord {
                    epoch: self.epochs_recorded,
                    virtual_hours: self.now.as_hours(),
                    ideal_loss: problem.ideal_loss(&self.theta),
                });
            }
        }

        // Health: verdict on the reporting client, then re-admission
        // probes for the benched ones.
        self.consult_health(client, result.p_correct);
        self.poll_readmissions();
        Ok(())
    }

    /// Asks the health policy about the reporting client and applies an
    /// eviction verdict (refusing to bench the last active client).
    ///
    /// Both the score and the baseline live in probe space — the
    /// all-template mean over the *reported* calibration — so the
    /// on-result threshold and the re-admission threshold compare the
    /// same quantity even on problems whose templates score very
    /// differently. A master built without probes (unit tests, bare
    /// shims) falls back to per-result scores on both sides.
    fn consult_health(&mut self, client: usize, result_p: f64) {
        if !self.policies.health.monitors() || !self.active[client] {
            return;
        }
        let p_correct = self
            .probes
            .get(client)
            .map_or(result_p, |p| p.p_correct_at(self.now));
        self.baseline_p[client] = self.baseline_p[client].max(p_correct);
        let ctx = HealthContext {
            client,
            p_correct,
            baseline_p: self.baseline_p[client],
            now_hours: self.now.as_hours(),
            active_clients: self.active_count,
            n_clients: self.n_clients,
        };
        if self.policies.health.on_result(&ctx) == HealthVerdict::Evict && self.active_count > 1 {
            self.active[client] = false;
            self.active_count -= 1;
            self.evictions += 1;
            self.eviction_log.push(EvictionEvent {
                client,
                virtual_hours: self.now.as_hours(),
                change: MembershipChange::Evicted,
            });
        }
    }

    /// Probes every evicted client's reported calibration at the
    /// current virtual time and re-admits the recovered ones.
    fn poll_readmissions(&mut self) {
        if self.evictions == self.readmissions {
            return; // nobody benched — the common (and default) case
        }
        for client in 0..self.n_clients {
            if self.active[client] {
                continue;
            }
            let p_correct = self
                .probes
                .get(client)
                .map_or(self.baseline_p[client], |p| p.p_correct_at(self.now));
            let ctx = HealthContext {
                client,
                p_correct,
                baseline_p: self.baseline_p[client],
                now_hours: self.now.as_hours(),
                active_clients: self.active_count,
                n_clients: self.n_clients,
            };
            if self.policies.health.readmit(&ctx) {
                self.active[client] = true;
                self.active_count += 1;
                self.readmissions += 1;
                self.eviction_log.push(EvictionEvent {
                    client,
                    virtual_hours: self.now.as_hours(),
                    change: MembershipChange::Readmitted,
                });
                self.readmitted_pending.push(client);
            }
        }
    }

    /// Assembles the final [`TrainingReport`] from the master state and
    /// the (returned) clients' counters.
    ///
    /// # Errors
    ///
    /// [`EqcError::ClientCountMismatch`] when `clients` does not cover
    /// the fleet the master was built for.
    pub fn report(
        &self,
        problem: &dyn VqaProblem,
        trainer: String,
        clients: &[ClientNode],
    ) -> Result<TrainingReport, EqcError> {
        if clients.len() != self.n_clients {
            return Err(EqcError::ClientCountMismatch {
                expected: self.n_clients,
                got: clients.len(),
            });
        }
        let final_loss = problem.ideal_loss(&self.theta);
        let client_stats = clients
            .iter()
            .enumerate()
            .map(|(i, c)| ClientStats {
                device: c.device_name(),
                tasks_completed: c.tasks_completed(),
                circuits_run: c.circuits_run(),
                mean_p_correct: if self.absorbed[i] > 0 {
                    self.p_sums[i] / self.absorbed[i] as f64
                } else {
                    0.0
                },
                mean_weight: if self.w_counts[i] > 0 {
                    self.w_sums[i] / self.w_counts[i] as f64
                } else {
                    1.0
                },
                utilization: c.backend().utilization(self.now),
            })
            .collect();
        let weight_provenance = (0..self.n_clients)
            .map(|i| WeightProvenance {
                client: i,
                policy: self.policies.weighting.label(),
                samples: self.w_counts[i],
                min_weight: if self.w_counts[i] > 0 {
                    self.w_min[i]
                } else {
                    1.0
                },
                max_weight: if self.w_counts[i] > 0 {
                    self.w_max[i]
                } else {
                    1.0
                },
            })
            .collect();
        Ok(TrainingReport {
            problem: problem.name(),
            trainer,
            epochs: self.epochs_recorded,
            history: self.history.clone(),
            final_params: self.theta.clone(),
            final_loss,
            reference_minimum: problem.reference_minimum(),
            total_hours: self.now.as_hours(),
            clients: client_stats,
            weight_trace: self.weight_trace.clone(),
            updates_applied: self.update_count,
            update_log: self.update_log.clone(),
            max_staleness: self.staleness_max as usize,
            mean_staleness: if self.staleness_n > 0 {
                self.staleness_sum as f64 / self.staleness_n as f64
            } else {
                0.0
            },
            policy: PolicyTelemetry {
                scheduler: self.policies.scheduler.name().to_string(),
                weighting: self.policies.weighting.label(),
                health: self.policies.health.name().to_string(),
                evictions: self.evictions,
                readmissions: self.readmissions,
                eviction_log: self.eviction_log.clone(),
                weight_provenance,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::ParamId;
    use vqa::{QaoaProblem, TaskSlice};

    fn master(n_clients: usize) -> (QaoaProblem, MasterLoop) {
        let problem = QaoaProblem::maxcut_ring4();
        let cfg = EqcConfig::paper_qaoa().with_epochs(2).with_shots(64);
        let master = MasterLoop::new(
            &problem,
            cfg,
            PolicyConfig::default(),
            n_clients,
            Vec::new(),
        );
        (problem, master)
    }

    #[test]
    fn schedule_cycles_through_every_parameter() {
        let (problem, mut master) = master(2);
        let tasks_per_cycle = vqa::VqaProblem::tasks(&problem).len();
        let mut seen_params = std::collections::HashSet::new();
        for _ in 0..tasks_per_cycle {
            let a = master.next_assignment().expect("schedule is non-empty");
            assert_eq!(a.cycle, 0);
            seen_params.insert(a.task.param.index());
        }
        assert_eq!(seen_params.len(), vqa::VqaProblem::num_params(&problem));
        let (cycle, _) = master.next_group().expect("schedule is non-empty");
        assert_eq!(cycle, 1, "second cycle starts after one full pass");
    }

    #[test]
    fn empty_schedule_is_a_typed_error() {
        let (_, mut m) = master(1);
        m.tasks.clear();
        m.tasks_per_cycle = 0;
        assert_eq!(m.next_assignment().unwrap_err(), EqcError::EmptySchedule);
        assert_eq!(m.next_group(), None);
    }

    #[test]
    fn orphaned_result_is_a_typed_error() {
        let (problem, mut m) = master(1);
        let result = ClientTaskResult {
            task: GradientTask {
                param: ParamId(0),
                slice: TaskSlice::Full,
            },
            gradient: 0.1,
            p_correct: 0.9,
            submitted: SimTime::ZERO,
            completed: SimTime::from_secs(1.0),
            circuits_run: 2,
        };
        // No dispatch registered the (7, 0) gather.
        let err = m.absorb(0, 7, 0, &result, &problem).unwrap_err();
        assert_eq!(err, EqcError::UnknownGather { cycle: 7, param: 0 });
        // The rejected result must not have leaked into any state the
        // report reads — the virtual clock and termination included.
        assert!(!m.p_seen[0], "orphaned result recorded as seen");
        assert_eq!(m.absorbed[0], 0);
        assert_eq!(m.baseline_p[0], 0.0);
        assert!(m.weight_trace.is_empty());
        assert_eq!(m.now(), SimTime::ZERO, "orphan advanced the clock");
        assert!(!m.terminated);
    }

    #[test]
    fn report_rejects_a_mismatched_fleet() {
        let (problem, m) = master(2);
        let err = m.report(&problem, "eqc[2]".into(), &[]).unwrap_err();
        assert_eq!(
            err,
            EqcError::ClientCountMismatch {
                expected: 2,
                got: 0
            }
        );
    }

    #[test]
    fn scheduler_falls_back_on_an_out_of_set_pick() {
        #[derive(Debug)]
        struct Rogue;
        impl crate::policy::Scheduler for Rogue {
            fn name(&self) -> &'static str {
                "rogue"
            }
            fn pick(&self, _ctx: &ScheduleContext<'_>) -> usize {
                usize::MAX
            }
        }
        let problem = QaoaProblem::maxcut_ring4();
        let cfg = EqcConfig::paper_qaoa().with_epochs(1).with_shots(64);
        let policies = PolicyConfig::default().with_scheduler(Rogue);
        let mut m = MasterLoop::new(&problem, cfg, policies, 3, Vec::new());
        assert_eq!(m.pick_client(&[1, 2]).unwrap(), 1, "fallback to first");
        assert!(m.pick_client(&[]).is_err(), "no candidates is an error");
    }
}
