//! Ablation suite for the design choices called out in DESIGN.md:
//!
//! 1. async (EQC) vs barrier-synchronized ensemble SGD — staleness vs
//!    stragglers;
//! 2. weighting on/off at matched budgets;
//! 3. qubit-wise-commuting measurement grouping vs per-term circuits;
//! 4. routing strategies (SWAP counts);
//! 5. density-matrix engine vs the Monte-Carlo-trajectory reference
//!    executor (accuracy).
//!
//! Run with: `cargo run --release -p eqc-bench --bin ablations`

use eqc_bench::{band, ensemble_for, epochs_or, markdown_table, shots_or, train_eqc, write_csv};
use eqc_core::{EqcConfig, SequentialExecutor};
use qcircuit::measure::MeasurementPlan;
use qdevice::noise_model::{execute_density, reference, NoiseModel};
use qdevice::SimTime;
use rand::rngs::StdRng;
use rand::SeedableRng;
use transpile::{transpile, RoutingStrategy, Topology, TranspileOptions};
use vqa::VqeProblem;

fn main() {
    let epochs = epochs_or(40);
    let shots = shots_or(4096);
    println!("# Ablation suite ({epochs} epochs, {shots} shots where applicable)\n");
    let mut csv = String::from("ablation,variant,metric,value\n");

    // ---- 1. Async vs sync ----------------------------------------------
    let problem = VqeProblem::heisenberg_4q();
    let names: Vec<String> = qdevice::catalog::vqe_ensemble()
        .iter()
        .map(|d| d.name.clone())
        .collect();
    let cfg = EqcConfig::paper_vqe().with_epochs(epochs).with_shots(shots);
    let asyn = train_eqc(&problem, &names, 0xAB1, cfg);
    let sync = ensemble_for(&names, 0xAB1, cfg)
        .train_with(&SequentialExecutor::new(), &problem)
        .expect("sync ensemble trains");
    println!("## 1. Asynchronous (EQC) vs synchronous ensemble SGD\n");
    println!(
        "{}",
        markdown_table(
            &["executor", "epochs/h", "converged energy", "max staleness"],
            &[
                vec![
                    "async (EQC)".into(),
                    format!("{:.2}", asyn.epochs_per_hour()),
                    format!("{:.4}", asyn.converged_loss(10)),
                    asyn.max_staleness.to_string(),
                ],
                vec![
                    "sync barrier".into(),
                    format!("{:.2}", sync.epochs_per_hour()),
                    format!("{:.4}", sync.converged_loss(10)),
                    "0".into(),
                ],
            ]
        )
    );
    csv.push_str(&format!(
        "async_vs_sync,async,eph,{:.4}\n",
        asyn.epochs_per_hour()
    ));
    csv.push_str(&format!(
        "async_vs_sync,sync,eph,{:.4}\n",
        sync.epochs_per_hour()
    ));

    // ---- 2. Weighting on/off -------------------------------------------
    let unweighted = train_eqc(&problem, &names, 0xAB2, cfg);
    let weighted = train_eqc(&problem, &names, 0xAB2, cfg.with_weights(band(0.5, 1.5)));
    println!("## 2. Weighting ablation (same seeds)\n");
    println!(
        "{}",
        markdown_table(
            &["variant", "converged energy"],
            &[
                vec![
                    "unweighted".into(),
                    format!("{:.4}", unweighted.converged_loss(10))
                ],
                vec![
                    "weighted 0.5-1.5".into(),
                    format!("{:.4}", weighted.converged_loss(10))
                ],
            ]
        )
    );
    csv.push_str(&format!(
        "weighting,off,converged,{:.6}\n",
        unweighted.converged_loss(10)
    ));
    csv.push_str(&format!(
        "weighting,on,converged,{:.6}\n",
        weighted.converged_loss(10)
    ));

    // ---- 3. Measurement grouping ---------------------------------------
    let h = problem.hamiltonian();
    let grouped = MeasurementPlan::grouped(h).groups().len();
    let per_term = MeasurementPlan::per_term(h).groups().len();
    println!("## 3. Measurement grouping\n");
    println!(
        "Heisenberg 4q: {grouped} circuits per loss evaluation grouped vs {per_term} per-term \
         ({:.1}x fewer executions)\n",
        per_term as f64 / grouped as f64
    );
    csv.push_str(&format!("grouping,grouped,circuits,{grouped}\n"));
    csv.push_str(&format!("grouping,per_term,circuits,{per_term}\n"));

    // ---- 4. Routing strategies -----------------------------------------
    println!("## 4. Routing strategy (Fig. 8 ansatz, SWAPs inserted)\n");
    let circuit = vqa::ansatz::hardware_efficient(4);
    let mut rows = Vec::new();
    for topo in [
        Topology::line(5),
        Topology::t_shape(),
        Topology::heavy_hex_27(),
    ] {
        let mut cells = vec![topo.name().to_string()];
        for strategy in [RoutingStrategy::ShortestPath, RoutingStrategy::MeetInMiddle] {
            let options = TranspileOptions {
                routing: strategy,
                ..Default::default()
            };
            let t = transpile(&circuit, &topo, &options).expect("fits");
            cells.push(format!(
                "{} swaps / G2={}",
                t.metrics.swaps_inserted, t.metrics.g2
            ));
            csv.push_str(&format!(
                "routing,{}-{:?},g2,{}\n",
                topo.name(),
                strategy,
                t.metrics.g2
            ));
        }
        rows.push(cells);
    }
    println!(
        "{}",
        markdown_table(&["topology", "shortest-path", "meet-in-middle"], &rows)
    );

    // ---- 5. Density vs trajectories ------------------------------------
    println!("## 5. Noise engine: density matrix vs trajectories (5q GHZ)\n");
    let mut b = qcircuit::CircuitBuilder::new(5);
    b.h(0);
    for q in 0..4 {
        b.cx(q, q + 1);
    }
    let ghz = b.build();
    let cal = qdevice::Calibration::uniform(5, 80.0, 60.0, 0.001, 0.015, 0.025);
    let noise = NoiseModel::from_calibration(&cal, &[0, 1, 2, 3, 4]);
    let mut rng = StdRng::seed_from_u64(5);
    let (dens, _) = execute_density(&ghz, &noise, 40_000, &mut rng);
    let err_d = 1.0 - dens.fraction_where(|x| x == 0 || x == 0b11111);
    let mut rows = vec![vec!["density (exact)".to_string(), format!("{err_d:.4}")]];
    csv.push_str(&format!("engine,density,ghz_error,{err_d:.6}\n"));
    for traj in [16usize, 64, 256] {
        let (tr, _) = reference::execute_trajectories(&ghz, &noise, 40_000, traj, &mut rng);
        let err_t = 1.0 - tr.fraction_where(|x| x == 0 || x == 0b11111);
        rows.push(vec![format!("trajectories({traj})"), format!("{err_t:.4}")]);
        csv.push_str(&format!("engine,traj{traj},ghz_error,{err_t:.6}\n"));
    }
    println!("{}", markdown_table(&["engine", "GHZ error"], &rows));
    println!("Trajectory estimates converge to the exact density result as the\ntrajectory count grows; the backends run the exact engine.\n");
    write_csv("ablations.csv", &csv);

    let _ = SimTime::ZERO; // silence unused import when asserts compile out
    assert!(asyn.epochs_per_hour() > sync.epochs_per_hour());
}
