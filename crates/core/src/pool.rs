//! The bounded worker-pool substrate: fleet-scale ensembles without
//! fleet-scale threads.
//!
//! [`PooledExecutor`] multiplexes *any* number of clients over a
//! bounded pool (default: [`std::thread::available_parallelism`]
//! workers), so the 100–1000 client fleets of
//! [`qdevice::catalog::fleet`] train in parallel with the thread
//! footprint of a laptop.
//!
//! ## Architecture
//!
//! | Piece | Lives in | Role |
//! |---|---|---|
//! | [`RunQueue`] | [`qsim::parallel`] | sharded work-stealing run-queue, generic over its task type |
//! | worker pool + lookahead coordinator | [`crate::fleet`] | the fleet drive's *worker pool* execution axis |
//! | [`PooledExecutor`] | here | the single-session front: a fleet of one tenant on that axis |
//!
//! * **Sharded run-queue** — dispatched tasks land on the shard of
//!   their client (`client % workers`), so a client's jobs tend to stay
//!   on one worker (warm compiled-template and engine-scratch caches).
//!   Idle workers steal from the deepest foreign shard; the
//!   [`PoolTelemetry`] counters (`workers_spawned`, `queue_depth_max`,
//!   `tasks_stolen`) expose the pool's behaviour after a run.
//! * **Clients behind mutexes** — the coordinator keeps at most one
//!   task per client in flight, so the per-client locks are never
//!   contended; they exist to let any worker execute any client's task.
//!
//! ## Determinism
//!
//! Results are absorbed in exactly the
//! [`DiscreteEventExecutor`](crate::DiscreteEventExecutor) total order
//! — earliest virtual completion first, client id breaking ties — with
//! each absorb immediately re-dispatching the freed client, exactly as
//! Algorithm 1 does. The report is therefore **byte-identical** to the
//! discrete-event executor's (including the `eqc[n]` trainer label);
//! only wall-clock and the pool telemetry differ.
//!
//! Parallelism and exact ordering coexist through conservative
//! lookahead, the classic discrete-event trick: a task dispatched at
//! virtual time `t` on a device with queue model `q` cannot complete
//! before `t + 0.8·q.wait(t) + q.overhead` (0.8 is the jitter floor,
//! and execution time is strictly positive), so any event already in
//! the heap that precedes every in-flight task's bound is safe to
//! absorb without waiting. In the common regime — many devices with
//! comparable latencies — the heap always holds events below the
//! bounds, workers stay saturated, and the coordinator never blocks
//! except at the tail.

use crate::config::PoolConfig;
use crate::ensemble::EnsembleSession;
use crate::error::EqcError;
use crate::executor::Executor;
use crate::report::{PoolTelemetry, TrainingReport};
use std::sync::Mutex;

pub(crate) use qsim::parallel::{drain_tasks, RunQueue};

/// An [`Executor`] over a bounded worker pool with a sharded,
/// work-stealing run-queue (see the [module docs](self)).
///
/// ```
/// use eqc_core::{Ensemble, EqcConfig, PooledExecutor};
/// use vqa::QaoaProblem;
///
/// let problem = QaoaProblem::maxcut_ring4();
/// let ensemble = Ensemble::builder()
///     .device("belem")
///     .device("manila")
///     .config(EqcConfig::paper_qaoa().with_epochs(2).with_shots(128))
///     .build()?;
/// let pooled = PooledExecutor::new();
/// let a = ensemble.train_with(&pooled, &problem)?;
/// let b = ensemble.train(&problem)?; // discrete-event executor
/// assert_eq!(a, b, "the pool replays the DES order exactly");
/// assert!(pooled.telemetry().expect("ran").workers_spawned <= 2);
/// # Ok::<(), eqc_core::EqcError>(())
/// ```
#[derive(Debug, Default)]
pub struct PooledExecutor {
    config: PoolConfig,
    telemetry: Mutex<Option<PoolTelemetry>>,
}

impl PooledExecutor {
    /// Creates the executor with [`PoolConfig::default`] (one worker
    /// per hardware thread).
    pub fn new() -> Self {
        Self::with_config(PoolConfig::default())
    }

    /// Creates the executor with an explicit configuration (validated
    /// when [`Executor::run`] is called).
    pub fn with_config(config: PoolConfig) -> Self {
        PooledExecutor {
            config,
            telemetry: Mutex::new(None),
        }
    }

    /// Overrides the worker count (builder style).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = Some(workers);
        self
    }

    /// The pool counters of the most recent [`Executor::run`] on this
    /// executor, or `None` before the first run.
    pub fn telemetry(&self) -> Option<PoolTelemetry> {
        *self.telemetry.lock().expect("telemetry lock")
    }
}

impl Executor for PooledExecutor {
    fn run(&self, session: &mut EnsembleSession<'_>) -> Result<TrainingReport, EqcError> {
        self.config.validate()?;
        session.begin()?;
        let n = session.num_clients();
        let workers = self.config.resolved_workers(n);
        let (driven, telemetry) = crate::fleet::drive_session(session, Some(workers));
        *self.telemetry.lock().expect("telemetry lock") = telemetry;
        driven?;
        session.finish(format!("eqc[{n}]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EqcConfig;
    use crate::ensemble::Ensemble;
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
    fn deterministic_pool_matches_discrete_event_byte_for_byte() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila", "bogota"], 5);
        let des = ensemble.train(&problem).expect("trains");
        let pooled_exec = PooledExecutor::new().workers(3);
        let pooled = ensemble.train_with(&pooled_exec, &problem).expect("trains");
        assert_eq!(des, pooled, "structurally identical reports");
        assert_eq!(format!("{des:?}"), format!("{pooled:?}"), "byte-identical");
        let t = pooled_exec.telemetry().expect("ran");
        assert_eq!(t.workers_spawned, 3);
        assert!(t.queue_depth_max >= 1);
    }

    #[test]
    fn single_worker_pool_is_still_deterministic_and_identical() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem", "manila"], 4);
        let des = ensemble.train(&problem).expect("trains");
        let pooled = ensemble
            .train_with(&PooledExecutor::new().workers(1), &problem)
            .expect("trains");
        assert_eq!(des, pooled);
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let problem = QaoaProblem::maxcut_ring4();
        let ensemble = small_ensemble(&["belem"], 1);
        let err = ensemble
            .train_with(&PooledExecutor::new().workers(0), &problem)
            .unwrap_err();
        assert!(matches!(err, EqcError::InvalidConfig(_)), "{err:?}");
    }
}
