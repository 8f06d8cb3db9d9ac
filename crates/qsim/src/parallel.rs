//! The shared task- and job-level parallel substrate: a work-stealing
//! run-queue and the batched simulation-job pipeline built on it.
//!
//! Two layers of parallelism ride on this module, both over whole units
//! of work:
//!
//! * **Task level** — [`RunQueue`] is the sharded, work-stealing queue
//!   that the `eqc_core` pooled executor and multi-tenant fleet drives
//!   dispatch client tasks through. It started as `eqc_core::pool`'s
//!   private scaffolding and moved here so every crate in the workspace
//!   can ride the same substrate.
//! * **Job level** — [`BatchPipeline`] fans whole simulation jobs (the
//!   forked suffix evolutions of a template batch) from every client of
//!   a session over persistent lanes.
//!
//! The density kernels themselves are serial loops: at the paper's 4–7
//! qubits one kernel pass is shorter than a worker wake-up, so whole
//! jobs are the one unit of simulator parallelism.
//!
//! ## Determinism
//!
//! A [`BatchPipeline::run_jobs`] call guarantees every job in `0..n` is
//! executed exactly once and has returned before the call returns. Each
//! job writes a disjoint output and performs identical floating-point
//! work whichever lane runs it, so results are byte-identical at any
//! lane count, which the equivalence suites pin.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

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

/// The sharded, work-stealing run-queue shared by a coordinator and its
/// workers — generic over the task type so the single-session pool, the
/// multi-tenant fleet and any future dispatcher ride the same substrate.
pub struct RunQueue<T> {
    state: Mutex<ShardState<T>>,
    signal: Condvar,
}

impl<T> RunQueue<T> {
    /// Creates a queue with one shard per worker.
    pub fn new(workers: usize) -> Self {
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
    pub fn push(&self, key: usize, task: T) {
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
    pub fn pop(&self, worker: usize) -> Option<T> {
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

    /// Non-blocking [`RunQueue::pop`]: returns `None` immediately when
    /// every shard is empty instead of waiting — the submitter-helping
    /// path of [`BatchPipeline`] uses this so a thread that still has a
    /// batch in flight can lend a hand without parking on the queue.
    pub fn try_pop(&self, worker: usize) -> Option<T> {
        self.state.lock().expect("run-queue lock").take(worker)
    }

    /// Signals workers to exit once the queue drains.
    pub fn close(&self) {
        self.state.lock().expect("run-queue lock").shutdown = true;
        self.signal.notify_all();
    }

    /// `(queue_depth_max, tasks_stolen)` counters.
    pub fn counters(&self) -> (usize, u64) {
        let s = self.state.lock().expect("run-queue lock");
        (s.depth_max, s.stolen)
    }
}

/// The worker protocol shared by every [`RunQueue`] consumer: pop tasks
/// until the queue closes, execute each under panic containment, and
/// report every outcome. The coordinator may already have failed and
/// stopped listening, so sends are best-effort and the drain continues
/// regardless — every dispatched task executes.
pub fn drain_tasks<T, R, M>(
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

/// One batch of index-parallel simulation jobs in flight on a
/// [`BatchPipeline`]: the type-erased job closure plus the completion
/// latch its submitter blocks on. The raw pointer's referent is only
/// guaranteed alive while the submitting [`BatchPipeline::run_jobs`]
/// call is blocked — the submitter does not return until `remaining`
/// reaches zero, after which no lane dereferences it.
struct BatchGroup {
    f: *const (dyn Fn(usize) + Sync),
    /// `(jobs not yet completed, any job panicked)`.
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

// SAFETY: the closure behind `f` is `Sync`, and the lifetime-erasure
// contract above keeps the pointer valid for every dereference.
unsafe impl Send for BatchGroup {}
unsafe impl Sync for BatchGroup {}

/// One simulation job queued on a [`BatchPipeline`]: an index into its
/// batch's closure.
struct PipelineJob {
    group: Arc<BatchGroup>,
    index: usize,
}

impl PipelineJob {
    /// Executes the job under panic containment and settles the batch
    /// latch.
    fn run(self) {
        // SAFETY: see the `BatchGroup` lifetime-erasure contract.
        let f = unsafe { &*self.group.f };
        let index = self.index;
        let panicked = catch_unwind(AssertUnwindSafe(|| f(index))).is_err();
        let mut s = self.group.state.lock().expect("pipeline batch lock");
        s.0 -= 1;
        s.1 |= panicked;
        if s.0 == 0 {
            self.group.done.notify_all();
        }
    }
}

/// The fleet-wide batched job pipeline: persistent lanes draining a
/// cross-client [`RunQueue`] of simulation jobs.
///
/// A `BatchPipeline` fans whole *simulation jobs* — one independent
/// density evolution each — so small-circuit fleets parallelize at the
/// job level. One pipeline is shared by every client
/// (and, on the multi-tenant fleet drives, every tenant): concurrent
/// [`BatchPipeline::run_jobs`] submitters enqueue their batches into
/// the shared queue and the lanes interleave jobs from all of them; a
/// submitting thread helps drain the queue while its own batch is in
/// flight, so `lanes(1)` spawns no threads and runs inline.
///
/// Determinism: every job writes a disjoint output and performs
/// identical floating-point work regardless of which lane runs it, so
/// results are byte-identical at any lane count, pinned by the engine
/// equivalence suites.
pub struct BatchPipeline {
    queue: Arc<RunQueue<PipelineJob>>,
    handles: Vec<JoinHandle<()>>,
    lanes: usize,
    batch_seq: AtomicUsize,
    jobs: std::sync::atomic::AtomicU64,
    batches: std::sync::atomic::AtomicU64,
}

impl BatchPipeline {
    /// Creates a pipeline with `lanes` total lanes of execution: the
    /// submitting thread plus `lanes - 1` spawned workers. `lanes <= 1`
    /// spawns nothing and [`BatchPipeline::run_jobs`] executes inline
    /// (still counting jobs and batches).
    pub fn new(lanes: usize) -> Arc<Self> {
        let lanes = lanes.max(1);
        let shards = lanes.max(2); // shard count also serves submitters
        let queue = Arc::new(RunQueue::<PipelineJob>::new(shards));
        let handles = (1..lanes)
            .map(|w| {
                let queue = queue.clone();
                thread::Builder::new()
                    .name("qsim-pipeline".into())
                    .spawn(move || {
                        while let Some(job) = queue.pop(w % shards) {
                            job.run();
                        }
                    })
                    .expect("spawn pipeline lane")
            })
            .collect();
        Arc::new(BatchPipeline {
            queue,
            handles,
            lanes,
            batch_seq: AtomicUsize::new(0),
            jobs: std::sync::atomic::AtomicU64::new(0),
            batches: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Total lanes of execution (submitter included).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Simulation jobs executed through the pipeline so far.
    pub fn jobs_executed(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Batches submitted so far.
    pub fn batches_submitted(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Runs `f(0), ..., f(n - 1)` as `n` independent jobs on the shared
    /// lanes, blocking until every job of *this batch* has completed.
    /// The submitting thread helps drain the queue (possibly executing
    /// other submitters' jobs) while it waits.
    ///
    /// # Panics
    ///
    /// Re-raises (as a single panic) if any job of this batch panicked.
    pub fn run_jobs(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.jobs.fetch_add(n as u64, Ordering::Relaxed);
        if n == 0 {
            return;
        }
        if self.handles.is_empty() {
            for i in 0..n {
                f(i);
            }
            return;
        }
        // SAFETY: erases `f`'s lifetime; valid because this call blocks
        // until the batch latch reaches zero, after which no lane
        // dereferences it.
        let erased = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const (dyn Fn(usize) + Sync))
        };
        let group = Arc::new(BatchGroup {
            f: erased,
            state: Mutex::new((n, false)),
            done: Condvar::new(),
        });
        let key = self.batch_seq.fetch_add(1, Ordering::Relaxed);
        for index in 0..n {
            self.queue.push(
                key,
                PipelineJob {
                    group: group.clone(),
                    index,
                },
            );
        }
        // Help drain until this batch settles: the queue may hold our
        // jobs, other submitters' jobs (executing them is what makes
        // the pipeline fleet-wide), or nothing (our jobs are on lanes —
        // park on the latch).
        let shards = self.lanes.max(2);
        loop {
            {
                let s = group.state.lock().expect("pipeline batch lock");
                if s.0 == 0 {
                    break;
                }
            }
            match self.queue.try_pop(key % shards) {
                Some(job) => job.run(),
                None => {
                    let mut s = group.state.lock().expect("pipeline batch lock");
                    while s.0 > 0 {
                        s = group.done.wait(s).expect("pipeline batch lock");
                    }
                    break;
                }
            }
        }
        let panicked = group.state.lock().expect("pipeline batch lock").1;
        assert!(!panicked, "pipeline job panicked");
    }
}

impl Drop for BatchPipeline {
    fn drop(&mut self) {
        self.queue.close();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for BatchPipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BatchPipeline")
            .field("lanes", &self.lanes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    fn try_pop_is_nonblocking_and_steals() {
        let q: RunQueue<usize> = RunQueue::new(2);
        assert_eq!(q.try_pop(0), None, "empty queue returns immediately");
        q.push(1, 9);
        assert_eq!(q.try_pop(0), Some(9), "steals from the foreign shard");
        assert_eq!(q.try_pop(0), None);
    }

    #[test]
    fn pipeline_executes_every_job_exactly_once() {
        for lanes in [1, 2, 4] {
            let pipeline = BatchPipeline::new(lanes);
            let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
            pipeline.run_jobs(257, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "every job ran exactly once at {lanes} lanes"
            );
            assert_eq!(pipeline.jobs_executed(), 257);
            assert_eq!(pipeline.batches_submitted(), 1);
            assert_eq!(pipeline.lanes(), lanes);
        }
    }

    #[test]
    fn pipeline_panic_is_reraised_and_pipeline_survives() {
        let pipeline = BatchPipeline::new(2);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pipeline.run_jobs(8, &|i| assert!(i != 3, "boom"));
        }));
        assert!(caught.is_err(), "panic must propagate to the submitter");
        let count = AtomicU64::new(0);
        pipeline.run_jobs(8, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn pipeline_contains_a_panic_to_its_batch_under_concurrent_submitters() {
        const JOBS: usize = 64;
        const PANICKING: usize = 2;
        let pipeline = BatchPipeline::new(3);
        let hits: Vec<Vec<AtomicU64>> = (0..4)
            .map(|_| (0..JOBS).map(|_| AtomicU64::new(0)).collect())
            .collect();
        let panicked: Vec<bool> = thread::scope(|s| {
            let submitters: Vec<_> = hits
                .iter()
                .enumerate()
                .map(|(b, batch)| {
                    let pipeline = &pipeline;
                    s.spawn(move || {
                        catch_unwind(AssertUnwindSafe(|| {
                            pipeline.run_jobs(JOBS, &|i| {
                                batch[i].fetch_add(1, Ordering::Relaxed);
                                assert!(!(b == PANICKING && i == 17), "boom");
                            });
                        }))
                        .is_err()
                    })
                })
                .collect();
            submitters
                .into_iter()
                .map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        let expected: Vec<bool> = (0..4).map(|b| b == PANICKING).collect();
        assert_eq!(panicked, expected, "only the panicking batch re-raises");
        for (b, batch) in hits.iter().enumerate() {
            assert!(
                batch.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "batch {b} ran every job exactly once"
            );
        }
        let count = AtomicU64::new(0);
        pipeline.run_jobs(JOBS, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), JOBS as u64);
        assert_eq!(pipeline.batches_submitted(), 5);
        assert_eq!(pipeline.jobs_executed(), 5 * JOBS as u64);
    }
}
