//! Engine parallelism: the same training run under the serial density
//! engine and under a worker team, byte-identical by construction.
//!
//! `SimParallelism` is the one knob: `Serial` (the default) runs every
//! density pass on the session thread; `Workers(n)` fans density
//! row-blocks over a persistent worker team. Results never depend on the lane
//! count — the worker team partitions work deterministically, so a
//! parallel run is a drop-in replacement wherever a report has been
//! pinned byte-for-byte. How runs evolve is orthogonal: each gradient
//! task is one walk of its template with every shifted run forked off
//! it, and the session's `EngineTelemetry` counts those runs.
//!
//! Run with: `cargo run --release --example parallel_engine`

use eqc::prelude::*;
use std::error::Error;

fn train(par: SimParallelism) -> Result<(TrainingReport, EngineTelemetry), Box<dyn Error>> {
    let problem = QaoaProblem::maxcut_ring4();
    let ensemble = Ensemble::builder()
        .device("belem")
        .device("manila")
        .device("bogota")
        .config(
            EqcConfig::paper_qaoa()
                .with_epochs(12)
                .with_shots(1024)
                .with_sim_parallelism(par),
        )
        .build()?;
    let mut session = ensemble.session(&problem)?;
    let report = DiscreteEventExecutor::new().run(&mut session)?;
    let telemetry = session.engine_telemetry();
    Ok((report, telemetry))
}

fn main() -> Result<(), Box<dyn Error>> {
    let lanes = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));

    let (serial_report, serial_telemetry) = train(SimParallelism::Serial)?;
    println!("serial engines:   {serial_telemetry}");

    let (parallel_report, parallel_telemetry) = train(SimParallelism::Workers(lanes))?;
    println!("worker-team ({lanes}): {parallel_telemetry}");

    assert_eq!(
        serial_report, parallel_report,
        "worker-team training must replay the serial report byte for byte"
    );
    assert_eq!(
        serial_telemetry.batched_jobs,
        parallel_telemetry.batched_jobs
    );
    assert!(
        serial_telemetry.batched_jobs > 0,
        "shift-rule gradients evolve through the group-fork walk"
    );

    println!("\nreports are byte-identical; {parallel_report}");
    println!(
        "normalized MaxCut cost converged to {:.4}",
        parallel_report.converged_loss(5)
    );
    Ok(())
}
