//! The shared data-parallel substrate: a work-stealing run-queue and a
//! persistent worker team behind a serial-by-default [`ParallelCtx`].
//!
//! Two layers of parallelism ride on this module:
//!
//! * **Task level** — [`RunQueue`] is the sharded, work-stealing queue
//!   that the `eqc_core` pooled executor and multi-tenant fleet drives
//!   dispatch client tasks through. It started as `eqc_core::pool`'s
//!   private scaffolding and moved here so every crate in the workspace
//!   can ride the same substrate.
//! * **Data level** — [`WorkerTeam`] is a persistent team of threads
//!   that splits one *index-parallel* job (`for i in 0..n { f(i) }`)
//!   across cores: density-kernel row blocks and independent
//!   trajectories fan out over it. [`ParallelCtx`] is the handle the
//!   engines hold: serial by default (zero threads, zero overhead, and
//!   byte-identical behavior to the pre-parallel engines), or backed by
//!   a shared team.
//!
//! ## Determinism
//!
//! A [`ParallelCtx::run`] call guarantees every index in `0..n` is
//! executed exactly once and has returned before the call returns. The
//! kernels built on it partition work so that each index touches a
//! disjoint slice of the output and performs *identical* floating-point
//! operations to the serial loop — results are therefore byte-identical
//! to serial execution regardless of worker count or interleaving,
//! which the equivalence suites pin.

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
            if s.queued > 0 {
                if let Some(t) = s.queues[worker].pop_front() {
                    s.queued -= 1;
                    return Some(t);
                }
                let victim = (0..s.queues.len())
                    .filter(|&i| i != worker)
                    .max_by_key(|&i| s.queues[i].len())
                    .expect("queued > 0 implies a non-empty shard");
                let t = s.queues[victim]
                    .pop_back()
                    .expect("deepest shard is non-empty under the lock");
                s.queued -= 1;
                s.stolen += 1;
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
        let mut s = self.state.lock().expect("run-queue lock");
        if s.queued == 0 {
            return None;
        }
        if let Some(t) = s.queues[worker].pop_front() {
            s.queued -= 1;
            return Some(t);
        }
        let victim = (0..s.queues.len())
            .filter(|&i| i != worker)
            .max_by_key(|&i| s.queues[i].len())
            .expect("queued > 0 implies a non-empty shard");
        let t = s.queues[victim]
            .pop_back()
            .expect("deepest shard is non-empty under the lock");
        s.queued -= 1;
        s.stolen += 1;
        Some(t)
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

/// One published index-parallel job: a type-erased closure pointer plus
/// the index count. The raw pointer's referent is only guaranteed alive
/// while the submitting [`WorkerTeam::for_each_index`] call is blocked —
/// workers never dereference it after their share of indices is drained,
/// and the submitter does not return until every index has completed.
#[derive(Clone, Copy)]
struct Job {
    f: *const (dyn Fn(usize) + Sync),
    n: usize,
}

// SAFETY: the closure behind `f` is `Sync`, and the lifetime-erasure
// contract above keeps the pointer valid for every dereference.
unsafe impl Send for Job {}

/// Team state behind the mutex: the current job (one at a time — the
/// submit lock serializes submitters), its claim counter, and the
/// count of indices not yet completed.
struct TeamState {
    epoch: u64,
    job: Option<Job>,
    next: Arc<AtomicUsize>,
    pending: usize,
    panicked: bool,
    shutdown: bool,
}

struct TeamShared {
    state: Mutex<TeamState>,
    work: Condvar,
    done: Condvar,
}

/// Claims and executes indices of `job` until the counter passes `n`.
/// Returns how many indices this thread completed and whether any of
/// them panicked (panicking indices still count as completed so the
/// submitter can unblock and re-raise).
fn run_indices(job: Job, next: &AtomicUsize) -> (usize, bool) {
    // SAFETY: see the `Job` lifetime-erasure contract.
    let f = unsafe { &*job.f };
    let mut completed = 0usize;
    let mut panicked = false;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= job.n {
            break;
        }
        if catch_unwind(AssertUnwindSafe(|| f(i))).is_err() {
            panicked = true;
        }
        completed += 1;
    }
    (completed, panicked)
}

fn worker_loop(shared: Arc<TeamShared>) {
    let mut last_epoch = 0u64;
    loop {
        let (epoch, job, next) = {
            let mut g = shared.state.lock().expect("team lock");
            loop {
                if g.shutdown {
                    return;
                }
                if g.epoch != last_epoch {
                    if let Some(job) = g.job {
                        break (g.epoch, job, g.next.clone());
                    }
                }
                g = shared.work.wait(g).expect("team lock");
            }
        };
        last_epoch = epoch;
        let (completed, panicked) = run_indices(job, &next);
        if completed > 0 {
            let mut g = shared.state.lock().expect("team lock");
            g.pending -= completed;
            if panicked {
                g.panicked = true;
            }
            if g.pending == 0 {
                shared.done.notify_all();
            }
        }
    }
}

/// A persistent team of worker threads executing index-parallel jobs.
///
/// One job runs at a time (concurrent submitters serialize on an
/// internal lock); the submitting thread participates in the job, so a
/// team of `threads` workers yields `threads + 1` lanes of execution.
/// Threads park on a condvar between jobs and are joined on drop.
pub struct WorkerTeam {
    shared: Arc<TeamShared>,
    submit: Mutex<()>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerTeam {
    /// Spawns `threads` worker threads (the submitter participates too,
    /// so total parallelism is `threads + 1`).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(TeamShared {
            state: Mutex::new(TeamState {
                epoch: 0,
                job: None,
                next: Arc::new(AtomicUsize::new(0)),
                pending: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|_| {
                let shared = shared.clone();
                thread::Builder::new()
                    .name("qsim-worker".into())
                    .spawn(move || worker_loop(shared))
                    .expect("spawn qsim worker")
            })
            .collect();
        WorkerTeam {
            shared,
            submit: Mutex::new(()),
            handles,
            threads,
        }
    }

    /// Worker threads in the team (excluding submitters).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), ..., f(n - 1)` across the team, blocking until
    /// every index has completed. Indices are claimed dynamically; the
    /// submitting thread participates.
    ///
    /// # Panics
    ///
    /// Re-raises (as a single panic) if any index panicked.
    pub fn for_each_index(&self, n: usize, f: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        // Poison-tolerant: a previous job's re-raised panic unwinds
        // through this guard, but the team itself stays consistent.
        let _guard = self.submit.lock().unwrap_or_else(|p| p.into_inner());
        let next = Arc::new(AtomicUsize::new(0));
        // SAFETY: erases `f`'s lifetime; valid because this call blocks
        // until `pending == 0`, after which no worker dereferences it.
        let erased = unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const (dyn Fn(usize) + Sync))
        };
        let job = Job { f: erased, n };
        {
            let mut g = self.shared.state.lock().expect("team lock");
            g.epoch += 1;
            g.job = Some(job);
            g.next = next.clone();
            g.pending = n;
            g.panicked = false;
            self.shared.work.notify_all();
        }
        let (completed, panicked) = run_indices(job, &next);
        let mut g = self.shared.state.lock().expect("team lock");
        g.pending -= completed;
        if panicked {
            g.panicked = true;
        }
        while g.pending > 0 {
            g = self.shared.done.wait(g).expect("team lock");
        }
        g.job = None;
        let poisoned = g.panicked;
        drop(g);
        assert!(!poisoned, "worker-team job panicked");
    }
}

impl Drop for WorkerTeam {
    fn drop(&mut self) {
        self.shared.state.lock().expect("team lock").shutdown = true;
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl fmt::Debug for WorkerTeam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerTeam")
            .field("threads", &self.threads)
            .finish()
    }
}

/// The engines' handle onto data-level parallelism: either serial (the
/// default — no threads, no locks, behavior byte-identical to the
/// pre-parallel engines) or a shared [`WorkerTeam`].
///
/// Cloning is cheap and shares the underlying team, so one team built
/// per session serves every backend and engine of that session.
#[derive(Clone, Debug)]
pub struct ParallelCtx {
    team: Option<Arc<WorkerTeam>>,
    min_dim: usize,
}

/// Default minimum Hilbert dimension before kernel passes fan out over
/// an attached team: below this the per-job dispatch overhead exceeds
/// the arithmetic. `64` means 6+ qubit states parallelize; 4-5 qubit
/// workloads stay on the serial fast path even under a team.
pub const DEFAULT_PAR_MIN_DIM: usize = 64;

impl Default for ParallelCtx {
    fn default() -> Self {
        Self::SERIAL
    }
}

impl ParallelCtx {
    /// The serial context as a constant (no team, zero overhead).
    pub const SERIAL: ParallelCtx = ParallelCtx {
        team: None,
        min_dim: DEFAULT_PAR_MIN_DIM,
    };

    /// Serial execution (the default).
    pub fn serial() -> Self {
        Self::SERIAL
    }

    /// A context with `total` lanes of parallelism: the submitting
    /// thread plus `total - 1` team workers. `total <= 1` yields the
    /// serial context.
    pub fn with_workers(total: usize) -> Self {
        if total <= 1 {
            Self::serial()
        } else {
            ParallelCtx {
                team: Some(Arc::new(WorkerTeam::new(total - 1))),
                min_dim: DEFAULT_PAR_MIN_DIM,
            }
        }
    }

    /// Wraps an existing team.
    pub fn from_team(team: Arc<WorkerTeam>) -> Self {
        ParallelCtx {
            team: Some(team),
            min_dim: DEFAULT_PAR_MIN_DIM,
        }
    }

    /// Overrides the fan-out threshold: kernel passes on states of
    /// Hilbert dimension below `min_dim` stay on the serial fast path
    /// even when a team is attached. Results are byte-identical at any
    /// setting — this only moves the overhead/arithmetic break-even.
    pub fn with_min_dim(mut self, min_dim: usize) -> Self {
        self.min_dim = min_dim;
        self
    }

    /// The fan-out threshold kernel passes compare dimensions against.
    pub fn min_dim(&self) -> usize {
        self.min_dim
    }

    /// Lanes of parallelism (1 when serial).
    pub fn workers(&self) -> usize {
        self.team.as_ref().map_or(1, |t| t.threads() + 1)
    }

    /// Whether a worker team is attached.
    pub fn is_parallel(&self) -> bool {
        self.team.is_some()
    }

    /// Runs `f(0..n)`, fanning indices over the team when one is
    /// attached and `n > 1`, serially otherwise. Each index executes
    /// exactly once and the call returns only after all have completed,
    /// so partition-disjoint kernels are byte-identical either way.
    pub fn run(&self, n: usize, f: impl Fn(usize) + Sync) {
        match &self.team {
            Some(team) if n > 1 => team.for_each_index(n, &f),
            _ => {
                for i in 0..n {
                    f(i);
                }
            }
        }
    }

    /// Splits `0..len` into contiguous chunks (roughly two per lane)
    /// and runs `f(start, end)` for each — the partitioned-loop shape
    /// the density kernels use. Serial contexts make a single
    /// `f(0, len)` call.
    pub fn run_chunks(&self, len: usize, f: impl Fn(usize, usize) + Sync) {
        if len == 0 {
            return;
        }
        let lanes = self.workers();
        if lanes <= 1 || len < 2 {
            return f(0, len);
        }
        let chunks = (lanes * 2).min(len);
        let per = len.div_ceil(chunks);
        let n = len.div_ceil(per);
        self.run(n, |i| {
            let start = i * per;
            let end = (start + per).min(len);
            f(start, end);
        });
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
/// Where [`WorkerTeam`] fans the *rows of one kernel pass* across
/// threads (inert below [`DEFAULT_PAR_MIN_DIM`], i.e. on 4–5 qubit
/// states), a `BatchPipeline` fans whole *simulation jobs* — one
/// independent density evolution each — so small-circuit fleets
/// parallelize at the job level. One pipeline is shared by every client
/// (and, on the multi-tenant fleet drives, every tenant): concurrent
/// [`BatchPipeline::run_jobs`] submitters enqueue their batches into
/// the shared queue and the lanes interleave jobs from all of them; a
/// submitting thread helps drain the queue while its own batch is in
/// flight, so `lanes(1)` spawns no threads and runs inline.
///
/// Determinism: every job writes a disjoint output and performs
/// identical floating-point work regardless of which lane runs it, so
/// results are byte-identical at any lane count — the same contract as
/// [`ParallelCtx::run`], pinned by the engine equivalence suites.
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
    fn team_executes_every_index_exactly_once() {
        let team = WorkerTeam::new(3);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        team.for_each_index(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // The team is reusable for a second job.
        team.for_each_index(1000, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 2));
    }

    #[test]
    fn serial_ctx_is_inline_and_ordered() {
        let ctx = ParallelCtx::serial();
        assert_eq!(ctx.workers(), 1);
        assert!(!ctx.is_parallel());
        let log = Mutex::new(Vec::new());
        ctx.run(5, |i| log.lock().unwrap().push(i));
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_chunks_cover_the_range_disjointly() {
        let ctx = ParallelCtx::with_workers(4);
        assert_eq!(ctx.workers(), 4);
        let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
        ctx.run_chunks(257, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn with_workers_one_is_serial() {
        assert!(!ParallelCtx::with_workers(1).is_parallel());
        assert!(ParallelCtx::with_workers(2).is_parallel());
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
    fn pipeline_interleaves_concurrent_submitters() {
        let pipeline = BatchPipeline::new(3);
        let total = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    pipeline.run_jobs(50, &|_| {
                        total.fetch_add(1, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 200);
        assert_eq!(pipeline.jobs_executed(), 200);
        assert_eq!(pipeline.batches_submitted(), 4);
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
    fn team_panic_is_reraised_and_team_survives() {
        let ctx = ParallelCtx::with_workers(3);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ctx.run(16, |i| {
                assert!(i != 7, "boom");
            });
        }));
        assert!(caught.is_err(), "panic must propagate to the submitter");
        // The team remains usable after a panicked job.
        let count = AtomicU64::new(0);
        ctx.run(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }
}
