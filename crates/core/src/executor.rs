//! Pluggable execution substrates for the EQC master loop.
//!
//! The [`Executor`] trait is the framework's extension axis: an executor
//! decides *where and in what order* the master's assignments run —
//! deterministic virtual time, a worker pool, or a synchronous
//! baseline — while [`MasterLoop`](crate::MasterLoop) owns the
//! optimization semantics (cyclic schedule, gathers, weighted ASGD,
//! staleness). Adding a future async / sharded / remote substrate is a
//! new `impl Executor`, not a new trainer.
//!
//! Ships with three implementations. The matrix that picks one:
//!
//! | Executor | Deterministic | Parallel | Scale (clients) |
//! |---|---|---|---|
//! | [`DiscreteEventExecutor`] | yes (byte-identical per seed) | when the session asks for `lanes > 1` (worker pool), else one thread | any |
//! | [`PooledExecutor`] | yes (byte-identical to DES) | yes (bounded pool) | 100–1000+ |
//! | [`SequentialExecutor`] | yes | no (barrier per parameter) | baseline / ablation |
//!
//! The first two are one loop: both hand the session to the
//! [`crate::fleet`] drive as a fleet of one tenant and differ only in
//! its execution axis (inline vs worker pool).
//!
//! * [`DiscreteEventExecutor`] — the default: a deterministic
//!   discrete-event loop over virtual completion times (reproducible
//!   per seed, used by every figure harness). A session configured with
//!   [`SimParallelism::Pipeline`](crate::SimParallelism::Pipeline) of
//!   more than one lane runs its client tasks on that many pool workers,
//!   with the same report;
//! * [`PooledExecutor`] (see [`crate::pool`]) — any number of clients
//!   multiplexed over a bounded worker pool with sharded run-queues and
//!   work stealing, replaying the discrete-event total order exactly,
//!   so fleet-scale ensembles (see [`qdevice::catalog::fleet`]) train
//!   in parallel and stay reproducible;
//! * [`SequentialExecutor`] — barrier-synchronized dispatch that
//!   subsumes the paper's single-machine baseline (one client: ordinary
//!   sequential SGD) and the synchronous-ensemble ablation (many
//!   clients: data-parallel SGD with a barrier per parameter).

use crate::ensemble::EnsembleSession;
use crate::error::EqcError;
pub use crate::pool::PooledExecutor;
use crate::report::TrainingReport;
use qdevice::SimTime;
use std::cmp::Ordering;

use crate::client::ClientTaskResult;

/// An execution substrate for an [`EnsembleSession`].
///
/// Implementors drive the session's [`MasterLoop`](crate::MasterLoop):
/// call [`EnsembleSession::begin`] once, pull assignments with
/// `next_assignment`, run them on clients, feed results back through
/// `absorb`, and assemble the report with [`EnsembleSession::finish`].
pub trait Executor {
    /// Drains the session into a training report.
    ///
    /// # Errors
    ///
    /// [`EqcError::SessionConsumed`] when the session already trained;
    /// [`EqcError::Internal`] if the substrate itself fails (e.g. a
    /// worker thread panics).
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError>;
}

/// A completed task waiting in the event queue, ordered by completion
/// time (earliest first). The same total order drives the
/// [`DiscreteEventExecutor`] heap and the [`PooledExecutor`]'s
/// deterministic absorption queue.
pub(crate) struct Event {
    pub(crate) completed: SimTime,
    pub(crate) client: usize,
    pub(crate) result: ClientTaskResult,
    pub(crate) cycle: usize,
    pub(crate) dispatched_at_update: u64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert for earliest-first. The
        // ordering is total (`total_cmp`, not `partial_cmp`) so a NaN
        // completion time cannot silently scramble the queue, and ties
        // break on client id for determinism.
        other
            .completed
            .as_secs()
            .total_cmp(&self.completed.as_secs())
            .then_with(|| other.client.cmp(&self.client))
    }
}

/// The default executor: Algorithm 1 over deterministic virtual time.
///
/// A discrete-event loop pops the earliest-finishing client, absorbs its
/// result, and immediately hands that client the next task in the cyclic
/// schedule. Same seed, same report — byte for byte.
///
/// When the session's [`SimParallelism`](crate::SimParallelism) asks for
/// more than one lane, client tasks run on a worker pool of that many
/// workers (at most one per client) — the pooled drive, byte-identical
/// to the inline one.
///
/// Since the multi-tenant fleet landed, this is a thin wrapper: the
/// session rides the [`crate::fleet`] drive loop as a fleet of one
/// tenant under the [`Unshared`](crate::policy::arbiter::Unshared)
/// arbiter, which degenerates to exactly the historical
/// prime/pop-earliest/absorb/re-dispatch loop.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiscreteEventExecutor;

impl DiscreteEventExecutor {
    /// Creates the executor.
    pub fn new() -> Self {
        DiscreteEventExecutor
    }
}

impl Executor for DiscreteEventExecutor {
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError> {
        session.begin()?;
        let n = session.num_clients();
        let workers = session.config().sim_parallelism.pool_workers(n);
        crate::fleet::drive_session(session, workers).0?;
        session.finish(format!("eqc[{n}]"))
    }
}

/// Barrier-synchronized dispatch: every parameter's slices fan out
/// round-robin across the fleet, a barrier waits for the slowest slice,
/// then the update applies.
///
/// With one client this is exactly the paper's per-machine baseline
/// (ordinary sequential SGD — submit every slice, wait, update, move
/// on); with several it is the staleness ablation's synchronous
/// data-parallel SGD, whose barriers eliminate staleness but cap
/// throughput at the slowest participating device.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialExecutor;

impl SequentialExecutor {
    /// Creates the executor.
    pub fn new() -> Self {
        SequentialExecutor
    }
}

impl Executor for SequentialExecutor {
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError> {
        session.begin()?;
        let problem = session.problem();
        let cfg = session.config();
        let (clients, master) = session.split_mut();
        let n = clients.len();

        // Per-client virtual-time cursors plus the barrier front.
        let mut local: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut barrier = SimTime::ZERO;
        // Round-robin offset, reset each cycle so the client-to-slice
        // assignment repeats identically every epoch.
        let mut param_round = 0usize;
        let mut current_cycle = 0usize;
        // The active-client rotation, refreshed only when the health
        // policy changes membership — the steady state allocates
        // nothing per slice.
        let mut active: Vec<usize> = (0..n).collect();
        let mut membership = master.membership_generation();

        while !master.is_complete() {
            let group = master.next_group().ok_or(EqcError::EmptySchedule)?;
            if group.0 != current_cycle {
                current_cycle = group.0;
                param_round = 0;
            }
            let group_start = barrier;
            let mut k = 0usize;
            // Fan the group's slices round-robin across the *active*
            // fleet (the barrier model leaves no idle-client choice for
            // the scheduler policy, but eviction/re-admission is
            // honored: benched clients drop out of the rotation and
            // re-admitted ones rejoin on the next slice); each client
            // chains its own slices serially.
            while !master.is_complete() && master.next_group() == Some(group) {
                let a = master.next_assignment()?;
                if master.membership_generation() != membership {
                    membership = master.membership_generation();
                    active.clear();
                    active.extend((0..n).filter(|&c| master.is_active(c)));
                }
                let ci = active[(param_round + k) % active.len()];
                let submit = local[ci].max(group_start);
                let r = clients[ci].run_task(problem, a.task, &a.params, cfg.shots, submit);
                local[ci] = r.completed;
                barrier = barrier.max(r.completed);
                master.absorb(ci, a.cycle, a.dispatched_at_update, &r, problem)?;
                master.drain_readmitted(); // rejoin via the active filter
                k += 1;
            }
            param_round += 1;
        }

        let label = if n == 1 {
            let device = clients[0].device_name();
            if device == "ideal" {
                "ideal".to_string()
            } else {
                format!("single:{device}")
            }
        } else {
            format!("sync[{n}]")
        };
        session.finish(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EqcConfig;
    use crate::ensemble::Ensemble;
    use std::collections::BinaryHeap;
    use vqa::QaoaProblem;

    fn small_ensemble(names: &[&str], epochs: usize) -> Ensemble {
        Ensemble::builder()
            .devices(names.iter().copied())
            .device_seed(100)
            .config(EqcConfig::paper_qaoa().with_epochs(epochs).with_shots(256))
            .build()
            .expect("catalog devices")
    }

    #[test]
    fn event_ordering_is_total_and_earliest_first() {
        fn ev(completed: f64, client: usize) -> Event {
            Event {
                completed: SimTime::from_secs(completed),
                client,
                result: ClientTaskResult {
                    task: vqa::GradientTask {
                        param: qcircuit::ParamId(0),
                        slice: vqa::TaskSlice::Full,
                    },
                    gradient: 0.0,
                    p_correct: 1.0,
                    submitted: SimTime::ZERO,
                    completed: SimTime::from_secs(completed),
                    circuits_run: 0,
                },
                cycle: 0,
                dispatched_at_update: 0,
            }
        }
        let mut heap = BinaryHeap::new();
        heap.push(ev(30.0, 0));
        heap.push(ev(10.0, 2));
        heap.push(ev(10.0, 1));
        heap.push(ev(20.0, 0));
        let order: Vec<(f64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.completed.as_secs(), e.client))
            .collect();
        // Earliest first; equal times break toward the lower client id.
        assert_eq!(order, vec![(10.0, 1), (10.0, 2), (20.0, 0), (30.0, 0)]);
    }

    #[test]
    fn discrete_event_is_deterministic() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila"], 4);
        let a = ensemble.train(&problem).unwrap();
        let b = ensemble.train(&problem).unwrap();
        assert_eq!(a, b, "same seed must reproduce the full report");
    }

    #[test]
    fn sequential_single_client_matches_discrete_event() {
        // With one device there is no concurrency: both substrates must
        // walk the same schedule and land on identical parameters.
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["manila"], 5);
        let des = ensemble.train(&problem).unwrap();
        let seq = ensemble
            .train_with(&SequentialExecutor::new(), &problem)
            .unwrap();
        assert_eq!(des.final_params, seq.final_params);
        assert_eq!(des.total_hours, seq.total_hours);
    }

    #[test]
    fn sequential_many_clients_has_zero_staleness() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila", "bogota"], 6);
        let report = ensemble
            .train_with(&SequentialExecutor::new(), &problem)
            .unwrap();
        assert_eq!(report.max_staleness, 0);
        assert_eq!(report.trainer, "sync[3]");
        assert_eq!(report.epochs, 6);
    }
}
