//! Heap-allocation budgets of the warm job path.
//!
//! A counting global allocator tallies, per thread, every `alloc`,
//! `alloc_zeroed` and `realloc`. The budgets pin what a warm job costs
//! the allocator once the per-thread scratch, the client's buffers and
//! the device's caches have reached their working size: a client task
//! on a drifting device (whose numbers are refreshed on every job), and
//! one fair-share grant round.

use eqc::prelude::*;
use eqc_core::policy::arbiter::{ArbiterContext, TenantLoad};
use qdevice::{DriftModel, QueueModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also serves thread teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on the calling thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// A catalog device whose noise drifts continuously within one long
/// calibration cycle: every job moves the noise token, so every job
/// refreshes its template's numbers and re-degrades its noise model.
fn drifting_backend(name: &str, seed: u64) -> QpuBackend {
    let spec = catalog::by_name(name).expect("catalog device");
    QpuBackend::new(
        &spec.name,
        spec.topology(),
        spec.calibration(),
        DriftModel::linear(0.08, 0.02),
        QueueModel::light(3.0),
        24.0,
        seed,
    )
}

/// Heap allocations a warm client task may make: the list of its
/// slice's templates, which `VqaProblem::slice_templates` returns as a
/// fresh `Vec`.
const WARM_TASK_BUDGET: u64 = 1;

/// Allocations of `jobs` warm shift-pair tasks of `problem` on one
/// client, after `warmup` tasks have sized every buffer.
fn warm_task_allocations(problem: &dyn VqaProblem, device: &str, warmup: usize) -> Vec<u64> {
    let mut client = ClientNode::new(0, drifting_backend(device, 7), problem).expect("fits");
    let tasks = problem.tasks();
    let params = problem.initial_point(3);
    let mut submit = SimTime::ZERO;
    let mut counts = Vec::new();
    for i in 0..warmup + 16 {
        let task = tasks[i % tasks.len()];
        let (n, result) = allocations(|| client.run_task(problem, task, &params, 256, submit));
        assert!(result.circuits_run > 0 || result.gradient == 0.0);
        submit = result.completed;
        if i >= warmup {
            counts.push(n);
        }
    }
    assert!(
        submit.as_hours() < 24.0,
        "the jobs stay inside one calibration cycle"
    );
    assert_eq!(
        client.programs_compiled(),
        client.tasks_completed(),
        "every job refreshed its template"
    );
    counts
}

#[test]
fn a_warm_h2_shift_pair_task_on_a_drifting_device_allocates_at_most_once() {
    let problem = VqeProblem::h2();
    let per_job = warm_task_allocations(&problem, "manila", 2 * problem.tasks().len());
    let worst = per_job.iter().copied().max().expect("jobs ran");
    println!("warm H2 task allocations: {per_job:?}");
    assert!(
        worst <= WARM_TASK_BUDGET,
        "a warm H2 task allocated {worst} times (per job: {per_job:?})"
    );
}

#[test]
fn warm_tasks_of_wider_templates_stay_within_the_same_budget() {
    let heisenberg = VqeProblem::heisenberg_4q();
    let qaoa = QaoaProblem::maxcut_ring4();
    for (problem, device) in [
        (&heisenberg as &dyn VqaProblem, "bogota"),
        (&qaoa as &dyn VqaProblem, "belem"),
    ] {
        let per_job = warm_task_allocations(problem, device, 3 * problem.tasks().len());
        let worst = per_job.iter().copied().max().expect("jobs ran");
        println!("warm {} task allocations: {per_job:?}", problem.name());
        assert!(
            worst <= WARM_TASK_BUDGET,
            "a warm {} task allocated {worst} times (per job: {per_job:?})",
            problem.name()
        );
    }
}

#[test]
fn a_fair_share_round_allocates_only_the_caps_it_returns() {
    let mut rng = StdRng::seed_from_u64(5);
    for round in 0..200u64 {
        let tenants = rng.gen_range(1..40usize);
        let loads: Vec<TenantLoad> = (0..tenants)
            .map(|tenant| TenantLoad {
                tenant,
                weight: rng.gen_range(0.2..4.0),
                priority: 0,
                in_flight: rng.gen_range(0..6usize),
                ready: rng.gen_range(0..6usize),
                complete: rng.gen_range(0..8u32) == 0,
                remaining_epochs: 1,
                elapsed_h: 0.0,
                deadline_h: None,
            })
            .collect();
        let ctx = ArbiterContext {
            loads: &loads,
            total_slots: rng.gen_range(0..80usize),
            round,
        };
        let (n, caps) = allocations(|| FairShare.allocate(&ctx));
        assert_eq!(caps.len(), tenants);
        assert!(
            n <= 1,
            "round {round}: FairShare::allocate allocated {n} times"
        );
    }
}
