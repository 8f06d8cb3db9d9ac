//! Simulation parallelism: the same training run serial and over a
//! shared job pipeline, byte-identical by construction.
//!
//! `SimParallelism` is the one knob: `Serial` (the default) evolves
//! every job on the session thread; `Pipeline { lanes }` fans whole
//! simulation jobs — the shifted runs forked off each gradient task's
//! template walk — from every client over one shared `BatchPipeline`.
//! Results never depend on the lane count: a job writes its own output
//! and does the same arithmetic on any lane, so a pipelined run is a
//! drop-in replacement wherever a report has been pinned byte-for-byte.
//! The session's `EngineTelemetry` counts the forked runs and the lanes
//! they ran on.
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
    let lanes = std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4));

    let (serial_report, serial_telemetry) = train(SimParallelism::Serial)?;
    println!("serial:          {serial_telemetry}");

    let (piped_report, piped_telemetry) = train(SimParallelism::Pipeline { lanes })?;
    println!("pipeline ({lanes} lanes): {piped_telemetry}");

    assert_eq!(
        format!("{serial_report:?}"),
        format!("{piped_report:?}"),
        "pipelined training must replay the serial report byte for byte"
    );
    assert_eq!(serial_telemetry.batched_jobs, piped_telemetry.batched_jobs);
    assert!(
        serial_telemetry.batched_jobs > 0,
        "shift-rule gradients evolve through the group-fork walk"
    );
    assert_eq!(
        (
            serial_telemetry.pipeline_lanes,
            piped_telemetry.pipeline_lanes
        ),
        (1, lanes)
    );

    println!(
        "\nreports are byte-identical over {} pipeline lanes; {piped_report}",
        piped_telemetry.pipeline_lanes
    );
    println!(
        "normalized MaxCut cost converged to {:.4}",
        piped_report.converged_loss(5)
    );
    Ok(())
}
