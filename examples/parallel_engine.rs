//! Task parallelism: the same training run inline and with its client
//! tasks on the worker pool, byte-identical by construction.
//!
//! `SimParallelism` is the one knob: `Serial` (the default) runs every
//! gradient task on the calling thread; `Pipeline { lanes }` hands the
//! discrete-event executor a pool of `lanes` workers (at most one per
//! client) that run whole client tasks while the calling thread absorbs
//! their results in the discrete-event order. Results never depend on
//! the worker count, so a pooled run is a drop-in replacement wherever a
//! report has been pinned byte for byte. The session's `EngineTelemetry`
//! counts the runs evolved and the workers they ran on.
//!
//! Run with: `cargo run --release --example parallel_engine`

use eqc::prelude::*;
use std::error::Error;

const DEVICES: [&str; 3] = ["belem", "manila", "bogota"];

fn train(par: SimParallelism) -> Result<(TrainingReport, EngineTelemetry), Box<dyn Error>> {
    let problem = QaoaProblem::maxcut_ring4();
    let ensemble = Ensemble::builder()
        .devices(DEVICES)
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
    println!("serial:        {serial_telemetry}");

    let (pooled_report, pooled_telemetry) = train(SimParallelism::Pipeline { lanes })?;
    println!("pool ({lanes} lanes): {pooled_telemetry}");

    assert_eq!(
        format!("{serial_report:?}"),
        format!("{pooled_report:?}"),
        "pooled training must replay the serial report byte for byte"
    );
    assert_eq!(serial_telemetry.batched_jobs, pooled_telemetry.batched_jobs);
    assert!(
        serial_telemetry.batched_jobs > 0,
        "shift-rule gradients evolve through the group-fork walk"
    );
    assert_eq!(
        (
            serial_telemetry.pipeline_lanes,
            pooled_telemetry.pipeline_lanes
        ),
        (1, lanes.min(DEVICES.len())),
        "never more pool workers than clients"
    );

    println!(
        "\nreports are byte-identical on {} pool workers; {pooled_report}",
        pooled_telemetry.pipeline_lanes
    );
    println!(
        "normalized MaxCut cost converged to {:.4}",
        pooled_report.converged_loss(5)
    );
    Ok(())
}
