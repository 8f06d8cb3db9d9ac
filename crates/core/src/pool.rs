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
//! | `RunQueue` + `drain_tasks` | here | sharded work-stealing run-queue and the worker protocol over it |
//! | worker pool + booking coordinator | [`crate::fleet`] | the fleet drive's *pooled* execution choice |
//! | [`PooledExecutor`] | here | the single-session front: a fleet of one tenant on that choice |
//!
//! This pool is the process's one thread substrate. The
//! [`DiscreteEventExecutor`](crate::DiscreteEventExecutor) rides it too
//! when a session asks for
//! [`SimParallelism::Pipeline`](crate::SimParallelism::Pipeline) with
//! more than one lane; the simulator below spawns nothing.
//!
//! * **Sharded run-queue** — dispatched tasks land on the shard of
//!   their client (`client % workers`), so a client's jobs tend to stay
//!   on one worker (warm compiled-template and engine-scratch caches).
//!   Idle workers steal from the deepest foreign shard; the
//!   [`PoolTelemetry`] counters (`workers_spawned`, `queue_depth_max`,
//!   `tasks_stolen`) expose the pool's behaviour after a run.
//! * **Clients behind mutexes** — the coordinator keeps at most one
//!   task per client in flight and books it before a worker sees it, so
//!   the per-client locks are never contended; they exist to let the
//!   coordinator book and any worker simulate any client's task.
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
//! Parallelism and exact ordering coexist because a task's completion
//! is known when it is dispatched: the coordinator books every task on
//! its own thread (jitter draw, queue admission, execution time from
//! durations fixed per device and template) and queues its event at
//! that completion; only the simulation, which computes the result,
//! goes to a worker. The event queue holds exactly the discrete-event
//! executor's events, and the coordinator waits only when the event it
//! absorbs next still has its result out.

use crate::ensemble::EnsembleSession;
use crate::error::EqcError;
use crate::executor::Executor;
use crate::report::{PoolTelemetry, TrainingReport};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Condvar, Mutex};

/// All mutable run-queue state, guarded by one mutex: queue operations
/// are microseconds against task executions of milliseconds, so a
/// single lock is uncontended in practice and keeps the
/// steal/shutdown/drain invariants trivially correct.
struct ShardState<T> {
    queues: Vec<VecDeque<T>>,
    queued: usize,
    shutdown: bool,
    depth_max: usize,
    stolen: u64,
}

impl<T> ShardState<T> {
    /// The next task for `worker`: own shard first, else steal from the
    /// back of the deepest foreign shard. `None` when every shard is
    /// empty.
    fn take(&mut self, worker: usize) -> Option<T> {
        if self.queued == 0 {
            return None;
        }
        if let Some(t) = self.queues[worker].pop_front() {
            self.queued -= 1;
            return Some(t);
        }
        let victim = (0..self.queues.len())
            .filter(|&i| i != worker)
            .max_by_key(|&i| self.queues[i].len())
            .expect("queued > 0 implies a non-empty shard");
        let t = self.queues[victim]
            .pop_back()
            .expect("deepest shard is non-empty under the lock");
        self.queued -= 1;
        self.stolen += 1;
        Some(t)
    }
}

/// The sharded, work-stealing run-queue shared by the fleet drive's
/// coordinator and its workers, generic over the task type.
pub(crate) struct RunQueue<T> {
    state: Mutex<ShardState<T>>,
    signal: Condvar,
}

impl<T> RunQueue<T> {
    /// Creates a queue with one shard per worker.
    pub(crate) fn new(workers: usize) -> Self {
        RunQueue {
            state: Mutex::new(ShardState {
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
                queued: 0,
                shutdown: false,
                depth_max: 0,
                stolen: 0,
            }),
            signal: Condvar::new(),
        }
    }

    /// Queues a task on the shard `key % workers` — callers key by
    /// client id so a client's jobs stay cache-warm on one worker.
    pub(crate) fn push(&self, key: usize, task: T) {
        let mut s = self.state.lock().expect("run-queue lock");
        let shard = key % s.queues.len();
        s.queues[shard].push_back(task);
        s.queued += 1;
        s.depth_max = s.depth_max.max(s.queued);
        self.signal.notify_one();
    }

    /// Blocks for the next task: own shard first, else steal from the
    /// deepest foreign shard. Returns `None` only after [`Self::close`]
    /// **and** a fully drained queue — every dispatched task executes,
    /// which the pooled drive's client-counter equivalence relies on.
    pub(crate) fn pop(&self, worker: usize) -> Option<T> {
        let mut s = self.state.lock().expect("run-queue lock");
        loop {
            if let Some(t) = s.take(worker) {
                return Some(t);
            }
            if s.shutdown {
                return None;
            }
            s = self.signal.wait(s).expect("run-queue lock");
        }
    }

    /// Signals workers to exit once the queue drains.
    pub(crate) fn close(&self) {
        self.state.lock().expect("run-queue lock").shutdown = true;
        self.signal.notify_all();
    }

    /// `(queue_depth_max, tasks_stolen)` counters.
    pub(crate) fn counters(&self) -> (usize, u64) {
        let s = self.state.lock().expect("run-queue lock");
        (s.depth_max, s.stolen)
    }
}

/// The worker protocol over a [`RunQueue`]: pop tasks until the queue
/// closes, execute each under panic containment, and report every
/// outcome. The coordinator may already have failed and stopped
/// listening, so sends are best-effort and the drain continues
/// regardless — every dispatched task executes.
pub(crate) fn drain_tasks<T, R, M>(
    worker: usize,
    runq: &RunQueue<T>,
    result_tx: &mpsc::Sender<M>,
    execute: impl Fn(&T) -> R,
    done: impl Fn(&T, R) -> M,
    panicked: impl Fn(&T) -> M,
) {
    while let Some(task) = runq.pop(worker) {
        let msg = match catch_unwind(AssertUnwindSafe(|| execute(&task))) {
            Ok(result) => done(&task, result),
            Err(_) => panicked(&task),
        };
        let _ = result_tx.send(msg);
    }
}

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
    /// Worker threads to spawn; `None` resolves to the machine's
    /// available parallelism (see [`resolve_workers`]).
    workers: Option<usize>,
    telemetry: Mutex<Option<PoolTelemetry>>,
}

/// The worker count a pool spawns for `n_clients` clients: `requested`,
/// or the machine's available parallelism when `None`, capped at one
/// worker per client and at least 1.
///
/// # Errors
///
/// [`EqcError::InvalidConfig`] when `requested` is zero.
pub(crate) fn resolve_workers(
    requested: Option<usize>,
    n_clients: usize,
) -> Result<usize, EqcError> {
    if requested == Some(0) {
        return Err(EqcError::InvalidConfig(
            "pool worker count must be positive".into(),
        ));
    }
    let detected = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    };
    Ok(requested.unwrap_or_else(detected).min(n_clients).max(1))
}

impl PooledExecutor {
    /// Creates the executor with one worker per hardware thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the worker count (builder style; a zero count is
    /// rejected when [`Executor::run`] is called).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
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
        let n = session.num_clients();
        let workers = resolve_workers(self.workers, n)?;
        session.begin()?;
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
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;
    use vqa::QaoaProblem;

    #[test]
    fn run_queue_drains_in_fifo_order_per_shard() {
        let q: RunQueue<usize> = RunQueue::new(2);
        q.push(0, 10);
        q.push(0, 11);
        assert_eq!(q.pop(0), Some(10));
        assert_eq!(q.pop(0), Some(11));
        q.close();
        assert_eq!(q.pop(0), None);
    }

    #[test]
    fn run_queue_steals_from_deepest_shard() {
        let q: RunQueue<usize> = RunQueue::new(2);
        q.push(1, 7);
        q.push(1, 8);
        // Worker 0's shard is empty: it must steal from shard 1's back.
        assert_eq!(q.pop(0), Some(8));
        assert_eq!(q.counters().1, 1, "one steal recorded");
    }

    #[test]
    fn concurrent_producers_and_stealing_workers_run_every_task_once() {
        // Four producers push keyed tasks while three workers drain them
        // (own shard, then steal); one task panics. Every task must come
        // back exactly once, the panic as the one `Panicked`, and no
        // worker may leave before `close()` and a drained queue.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 1_000;
        const WORKERS: usize = 3;
        const POISONED: usize = 2_345;
        enum Msg {
            Done(usize),
            Panicked(usize),
        }
        let runq: RunQueue<usize> = RunQueue::new(WORKERS);
        let closed = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel();
        thread::scope(|s| {
            for w in 0..WORKERS {
                let tx = tx.clone();
                let (runq, closed) = (&runq, &closed);
                s.spawn(move || {
                    drain_tasks(
                        w,
                        runq,
                        &tx,
                        |&id| assert!(id != POISONED, "task {id} panics"),
                        |&id, ()| Msg::Done(id),
                        |&id| Msg::Panicked(id),
                    );
                    assert!(
                        closed.load(Ordering::Acquire),
                        "worker {w} left before close()"
                    );
                    let queued = runq.state.lock().expect("run-queue lock").queued;
                    assert_eq!(queued, 0, "worker {w} left before the drain");
                });
            }
            drop(tx);
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let runq = &runq;
                    s.spawn(move || {
                        for id in p * PER_PRODUCER..(p + 1) * PER_PRODUCER {
                            runq.push(id, id);
                        }
                    })
                })
                .collect();
            for producer in producers {
                producer.join().expect("producer thread");
            }
            closed.store(true, Ordering::Release);
            runq.close();
        });
        let total = PRODUCERS * PER_PRODUCER;
        let mut seen = vec![0u32; total];
        let mut panicked = Vec::new();
        for msg in rx {
            let id = match msg {
                Msg::Done(id) => id,
                Msg::Panicked(id) => {
                    panicked.push(id);
                    id
                }
            };
            seen[id] += 1;
        }
        assert!(seen.iter().all(|&n| n == 1), "every task id exactly once");
        assert_eq!(panicked, [POISONED], "exactly one Panicked");
        let (depth_max, stolen) = runq.counters();
        assert!(depth_max >= 1);
        assert!(stolen <= total as u64, "{stolen} steals of {total} tasks");
    }

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
    fn the_worker_count_resolves_in_one_place() {
        let detected = resolve_workers(None, 1000).expect("detects");
        assert!(detected >= 1);
        assert!(
            resolve_workers(None, 2).expect("detects") <= 2,
            "never more workers than clients"
        );
        assert_eq!(resolve_workers(Some(8), 256).ok(), Some(8));
        assert_eq!(resolve_workers(Some(8), 3).ok(), Some(3));
        assert!(matches!(
            resolve_workers(Some(0), 4),
            Err(EqcError::InvalidConfig(_))
        ));
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
