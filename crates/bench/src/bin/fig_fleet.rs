//! Fleet scaling: DES vs Pooled on synthesized device fleets.
//!
//! The paper's evaluation tops out at ten QPUs; the ensemble-VQE
//! follow-ups argue accuracy keeps improving as the ensemble widens, so
//! this harness measures the *system* side of that direction: how each
//! execution substrate behaves as the fleet grows from 8 to 256 virtual
//! devices ([`qdevice::catalog::fleet`]). The pooled executor trains
//! the same fleet with at most `available_parallelism` workers — and a
//! report byte-identical to the discrete-event executor's (asserted
//! here on every size).
//!
//! Run with: `cargo run --release -p eqc-bench --bin fig_fleet`
//!
//! Environment:
//! * `EQC_FLEET_CLIENTS` — run a single fleet size instead of 8/64/256
//!   (the CI mega-smoke passes 1024);
//! * `EQC_EPOCHS` / `EQC_SHOTS` — the usual budget overrides.
//!
//! Emits one machine-readable JSON line per size
//! (`{"bench":"fleet64",...}`) for the perf-trajectory dashboard.

use eqc_bench::{
    env_param, epochs_or, fleet_ensemble, markdown_table, shots_or, tenant_fleet_builder,
    write_bench_snapshot, write_csv, BenchRow,
};
use eqc_core::{
    ContentionAware, EqcConfig, PolicyConfig, PooledExecutor, TenantConfig, TrainingReport,
};
use std::time::Instant;
use vqa::QaoaProblem;

fn timed<F: FnOnce() -> TrainingReport>(f: F) -> (TrainingReport, u128) {
    let start = Instant::now();
    let report = f();
    (report, start.elapsed().as_millis())
}

fn main() {
    let epochs = epochs_or(4);
    let shots = shots_or(256);
    let cfg = EqcConfig::paper_qaoa()
        .with_epochs(epochs)
        .with_shots(shots);
    let problem = QaoaProblem::maxcut_ring4();
    let sizes: Vec<usize> = match env_param("EQC_FLEET_CLIENTS", 0) {
        0 => vec![8, 64, 256],
        n => vec![n],
    };
    let commit = std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".into());
    println!("# Fleet scaling — DES vs Pooled ({epochs} epochs, {shots} shots)\n");

    let mut rows = Vec::new();
    let mut bench_rows = Vec::new();
    let mut csv = String::from("clients,executor,threads,elapsed_ms,epochs_per_hour,final_loss\n");
    for &n in &sizes {
        let ensemble = fleet_ensemble(n, cfg);
        let (des, des_ms) = timed(|| ensemble.train(&problem).expect("DES trains"));

        let pooled_exec = PooledExecutor::new();
        let (pooled, pooled_ms) = timed(|| {
            ensemble
                .train_with(&pooled_exec, &problem)
                .expect("pooled trains")
        });
        let telemetry = pooled_exec.telemetry().expect("pool ran");

        // The acceptance bar of the pooled substrate: a fleet of any
        // width trains under a bounded pool, byte-identical to DES.
        assert_eq!(
            format!("{des:?}"),
            format!("{pooled:?}"),
            "deterministic pool must replay the DES report at {n} clients"
        );

        let table_rows = [
            ("des", &des, 1usize, des_ms),
            ("pooled", &pooled, telemetry.workers_spawned, pooled_ms),
        ];
        for (label, _, _, ms) in &table_rows {
            bench_rows.push(BenchRow::new(
                &format!("fleet{n}"),
                label,
                ms * 1000,
                des_ms as f64 / (*ms).max(1) as f64,
            ));
        }
        for (label, report, threads, ms) in table_rows {
            rows.push(vec![
                n.to_string(),
                label.to_string(),
                threads.to_string(),
                format!("{ms}"),
                format!("{:.3}", report.epochs_per_hour()),
                format!("{:.4}", report.final_loss),
            ]);
            csv.push_str(&format!(
                "{n},{label},{threads},{ms},{:.6},{:.6}\n",
                report.epochs_per_hour(),
                report.final_loss
            ));
        }
        println!(
            "fleet[{n}]: pool ran {} workers, queue depth <= {}, {} tasks stolen",
            telemetry.workers_spawned, telemetry.queue_depth_max, telemetry.tasks_stolen
        );
        println!(
            "{{\"bench\":\"fleet{n}\",\"clients\":{n},\"epochs\":{epochs},\"shots\":{shots},\
             \"des_ms\":{des_ms},\"pooled_ms\":{pooled_ms},\
             \"workers\":{},\"stolen\":{},\"commit\":\"{commit}\"}}",
            telemetry.workers_spawned, telemetry.tasks_stolen
        );
    }

    // One small multi-tenant cell on the shared-queue substrate: the
    // single-tenant scaling rows above never touch the fleet-drive hot
    // path (occupancy snapshots, cross-tenant noise cache), so this is
    // where its counters get printed for the CI smoke to grep.
    {
        let tenants = 4usize;
        let mut fleet = tenant_fleet_builder(8)
            .shared()
            .build()
            .expect("shared fleet builds");
        for t in 0..tenants {
            let mut tenant =
                TenantConfig::new(cfg.with_seed(7 + t as u64)).label(format!("tenant{t}"));
            if t == tenants - 1 {
                tenant = tenant
                    .policies(PolicyConfig::default().with_scheduler(ContentionAware::default()));
            }
            fleet.admit(&problem, tenant).expect("admits");
        }
        let start = Instant::now();
        let outcome = fleet.run().expect("shared fleet runs");
        let shared_ms = start.elapsed().as_millis();
        let t = &outcome.telemetry;
        assert!(t.snapshot_rebuilds > 0 && t.shared_noise_hits > 0);
        println!(
            "\nshared[{tenants} tenants x 8 devices]: {shared_ms} ms wall, hot path: \
             snapshot_rebuilds={} snapshot_reuses={} shared_noise_builds={} \
             shared_noise_hits={}",
            t.snapshot_rebuilds, t.snapshot_reuses, t.shared_noise_builds, t.shared_noise_hits,
        );
        println!(
            "{{\"bench\":\"fleet_shared{tenants}\",\"tenants\":{tenants},\"devices\":8,\
             \"epochs\":{epochs},\"shots\":{shots},\"wall_ms\":{shared_ms},\
             \"snapshot_rebuilds\":{},\"snapshot_reuses\":{},\"shared_noise_builds\":{},\
             \"shared_noise_hits\":{},\"commit\":\"{commit}\"}}",
            t.snapshot_rebuilds, t.snapshot_reuses, t.shared_noise_builds, t.shared_noise_hits,
        );
    }

    println!("\n## Wall-clock per substrate (same training, same fleet)\n");
    println!(
        "{}",
        markdown_table(
            &[
                "clients",
                "executor",
                "OS threads",
                "wall ms",
                "epochs/h",
                "final loss"
            ],
            &rows
        )
    );
    write_csv("fig_fleet.csv", &csv);
    write_bench_snapshot("BENCH_fleet.json", &bench_rows);
}
