//! Engine-path perf trajectory on the Fig. 4 workload: the legacy
//! oracle vs the production engine.
//!
//! The Fig. 4 harness is the densest engine-bound workload in the
//! repo: 6 catalog devices x 7 calibration ages, one 5-qubit GHZ-class
//! probe each. This harness re-runs that 42-job sweep as the *client*
//! sees it — a compiled template executing parameter-shift pairs — once
//! per execution path:
//!
//! * `legacy` — the pre-engine reference of the `eqc-oracle` crate
//!   (per-run bind + noise rebuild + Kraus walk);
//! * `engine` — the production path: one group-fork walk per template,
//!   forked suffixes resumed on the thread's engine.
//!
//! Both must produce equal counts (asserted), and the engine must stay
//! at least 2x ahead of the legacy oracle (the one tripwire; it
//! measures ~20x).
//!
//! A second section prints the tape census of the 7-qubit fixtures —
//! the deep probe on casablanca and the benchmark's TFIM-7 template as
//! lagos compiles it — by kind of sweep
//! (`{"bench":"fig_engine_gauge",...}`, one line each): the real gauge
//! must leave no complex one-qubit sweep (asserted).
//!
//! A third section times what a drifting device pays per job before it
//! can bind: 10 000 compiles of a 4-qubit template, each on a fresh
//! template (`first`) or all on one (`token_miss`, a refresh of the plan
//! the first compile built) — the refreshed program must equal the cold
//! one (asserted) and must not cost more (asserted).
//!
//! Emits one machine-readable JSON line (`{"bench":"fig_engine",...}`)
//! for the perf-trajectory dashboard and refreshes the repo-root
//! `BENCH_engine.json` snapshot.
//!
//! Run with: `cargo run --release -p eqc-bench --bin fig_engine`

use eqc_bench::{
    benchmark_templates, drift_steps, markdown_table, probe_params, shots_or, tape_census,
    template_fixture, write_bench_snapshot, write_csv, BenchRow,
};
use qdevice::{catalog, CompiledTemplate, NoiseToken, QpuBackend, SimTime, TemplateRun};
use qsim::Counts;
use std::time::Instant;

/// The 5-qubit GHZ-backbone probe with one symbolic RY per qubit, so
/// every qubit contributes a parameter-shift pair.
fn probe() -> qcircuit::Circuit {
    let mut b = qcircuit::CircuitBuilder::new(5);
    b.h(0);
    for q in 0..4 {
        b.cx(q, q + 1);
    }
    for q in 0..5 {
        b.ry_sym(q, q);
    }
    b.build()
}

/// Gate indices of the symbolic RY layer (after H + 4 CX).
const RY_GATES: [usize; 5] = [5, 6, 7, 8, 9];

enum Mode {
    Legacy,
    Engine,
}

/// Runs the full 6-device x 7-age sweep under one execution path and
/// returns (all counts in sweep order, elapsed ms).
fn sweep(mode: &Mode, shots: usize) -> (Vec<Counts>, u128) {
    let devices = ["lima", "x2", "belem", "quito", "manila", "bogota"];
    let ages_h = [0.02, 4.0, 8.0, 12.0, 16.0, 20.0, 23.0];
    let params = [0.3, -0.7, 1.1, 0.4, -0.2];
    let runs: Vec<TemplateRun> = RY_GATES
        .iter()
        .flat_map(|&g| {
            [
                TemplateRun {
                    template: 0,
                    shift: Some((g, vqa::gradient::SHIFT)),
                },
                TemplateRun {
                    template: 0,
                    shift: Some((g, -vqa::gradient::SHIFT)),
                },
            ]
        })
        .collect();
    let circuit = probe();
    let mut backends: Vec<QpuBackend> = devices
        .iter()
        .map(|name| {
            let spec = catalog::by_name(name).expect("catalog device");
            spec.backend(0xF164 + name.len() as u64)
        })
        .collect();
    let mut all = Vec::new();
    let start = Instant::now();
    for backend in &mut backends {
        let mut template = CompiledTemplate::new(circuit.clone(), vec![0, 1, 2, 3, 4]);
        for &age in &ages_h {
            let submit = SimTime::from_hours(age);
            let (counts, _) = match mode {
                Mode::Legacy => eqc_oracle::execute_templates(
                    backend,
                    &[&template],
                    &runs,
                    &params,
                    shots,
                    submit,
                ),
                Mode::Engine => {
                    backend.execute_templates(&mut [&mut template], &runs, &params, shots, submit)
                }
            };
            all.extend(counts);
        }
    }
    (all, start.elapsed().as_millis())
}

/// An `n`-qubit ansatz with a deep fixed body (H + 6 layers of a CX
/// chain) ahead of a symbolic RY layer and a symbolic RZ layer.
fn deep_probe(n: usize) -> qcircuit::Circuit {
    let mut b = qcircuit::CircuitBuilder::new(n);
    b.h(0);
    for _ in 0..6 {
        for q in 0..n - 1 {
            b.cx(q, q + 1);
        }
    }
    for q in 0..n {
        b.ry_sym(q, q);
    }
    for q in 0..n {
        b.rz_sym(q, n + q);
    }
    b.build()
}

/// The compile-section probe: 10 000 compiles of one 4-qubit template
/// (the deep probe) on belem, stepping through sixteen
/// drifted noise models under fresh tokens — each on a fresh template
/// (`first`: plan + fill, what a (device, template) pays once) or all
/// on one long-lived template (`token_miss`: a refresh of the plan, what
/// every later job pays under drift). Returns (elapsed us, the last
/// template compiled).
fn compile_bench(long_lived: bool) -> (u128, CompiledTemplate) {
    const COMPILES: u64 = 10_000;
    let active = vec![0, 1, 2, 3];
    let backend = catalog::by_name("belem")
        .expect("catalog device")
        .backend(0xC0DE);
    let noises = drift_steps(&backend, &active, 16);
    let fresh = CompiledTemplate::new(deep_probe(4), active);
    let mut template = fresh.clone();
    let start = Instant::now();
    for i in 0..COMPILES {
        if !long_lived {
            template = fresh.clone();
        }
        let noise = &noises[i as usize % noises.len()];
        template.ensure_compiled(noise, NoiseToken::new(0, i, 1.0, 1.0));
    }
    let elapsed = start.elapsed().as_micros();
    let compiles = if long_lived { COMPILES } else { 1 };
    assert_eq!(
        (template.compiles(), template.plans()),
        (compiles, 1),
        "drift alone must not re-plan"
    );
    (elapsed, template)
}

fn main() {
    let shots = shots_or(8192);
    let jobs = 6 * 7;
    let runs_per_job = RY_GATES.len() * 2;
    let commit = std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".into());
    println!(
        "# Engine perf trajectory — Fig. 4 workload as shift-pair batches \
         ({jobs} jobs x {runs_per_job} runs, {shots} shots)\n"
    );

    let (legacy_counts, legacy_ms) = sweep(&Mode::Legacy, shots);
    let (engine_counts, engine_ms) = sweep(&Mode::Engine, shots);
    assert_eq!(legacy_counts, engine_counts, "engine diverged from legacy");

    let per_run = |ms: u128| ms as f64 * 1000.0 / (jobs * runs_per_job) as f64;
    let mut rows = Vec::new();
    let mut bench_rows = Vec::new();
    let mut csv = String::from("path,elapsed_ms,per_run_us,speedup_vs_legacy\n");
    for (label, ms) in [("legacy", legacy_ms), ("engine", engine_ms)] {
        let speedup = legacy_ms as f64 / ms.max(1) as f64;
        rows.push(vec![
            label.to_string(),
            format!("{ms}"),
            format!("{:.1}", per_run(ms)),
            format!("{speedup:.2}x"),
        ]);
        csv.push_str(&format!("{label},{ms},{:.3},{speedup:.4}\n", per_run(ms)));
        bench_rows.push(BenchRow::new("fig_engine", label, ms * 1000, speedup));
    }
    println!(
        "{}",
        markdown_table(
            &["path", "wall ms", "per-run us", "speedup vs legacy"],
            &rows
        )
    );
    println!(
        "{{\"bench\":\"fig_engine\",\"jobs\":{jobs},\"runs_per_job\":{runs_per_job},\
         \"shots\":{shots},\"legacy_ms\":{legacy_ms},\"engine_ms\":{engine_ms},\
         \"commit\":\"{commit}\"}}"
    );
    write_csv("fig_engine.csv", &csv);
    assert!(
        2 * engine_ms <= legacy_ms,
        "the engine must stay >= 2x ahead of the legacy oracle; got {engine_ms} ms vs {legacy_ms} ms"
    );

    // --- Gauge section: what the 7-qubit tapes are made of ---
    println!("\n# Tape census — 7 qubits, sweeps by kind\n");
    let casablanca = catalog::by_name("casablanca")
        .expect("catalog device")
        .backend(0xBA7C);
    let active: Vec<usize> = (0..7).collect();
    let probe_noise = drift_steps(&casablanca, &active, 1);
    let probe = CompiledTemplate::new(deep_probe(7), active);
    let (_, tfim7, lagos) = benchmark_templates()
        .into_iter()
        .find(|(name, ..)| *name == "tfim7")
        .expect("the 7-qubit benchmark template");
    let (tfim7, tfim7_noise) = template_fixture(tfim7.as_ref(), lagos);
    for (fixture, mut template, noise) in [
        ("deep_probe7_casablanca", probe, &probe_noise[0]),
        ("tfim7_lagos", tfim7, &tfim7_noise[0]),
    ] {
        template.ensure_compiled(noise, NoiseToken::new(0, 0, 1.0, 1.0));
        template.bind(&probe_params(template.circuit().num_params()), None);
        let ops = template.program().ops().len();
        let census = tape_census(template.program());
        println!(
            "{{\"bench\":\"fig_engine_gauge\",\"fixture\":\"{fixture}\",\"ops\":{ops},\
             \"complex_1q\":{},\"real_1q\":{},\"two_qubit\":{},\"diag\":{},\
             \"dense_1q\":{},\"commit\":\"{commit}\"}}",
            census.complex_1q, census.real_1q, census.two_qubit, census.diag, census.dense_1q
        );
        assert_eq!(
            census.complex_1q, 0,
            "{fixture}: the real gauge leaves no complex one-qubit sweep"
        );
    }
    // --- Compile section: plan once, refresh per drift step ---
    println!("\n# Compile under drift — 4-qubit template, 10000 noise tokens per side\n");
    let (first_us, cold) = compile_bench(false);
    let (miss_us, refreshed) = compile_bench(true);
    let (a, b) = (refreshed.program(), cold.program());
    assert!(
        a.ops() == b.ops()
            && a.superops() == b.superops()
            && a.readout() == b.readout()
            && a.duration_ns().to_bits() == b.duration_ns().to_bits(),
        "a refreshed program diverged from a cold compile"
    );
    let miss_speedup = first_us as f64 / miss_us.max(1) as f64;
    println!(
        "{}",
        markdown_table(
            &["path", "wall us", "per-compile us", "speedup vs first"],
            &[
                vec![
                    "first".into(),
                    first_us.to_string(),
                    format!("{:.2}", first_us as f64 / 1e4),
                    "1.00x".into(),
                ],
                vec![
                    "token_miss".into(),
                    miss_us.to_string(),
                    format!("{:.2}", miss_us as f64 / 1e4),
                    format!("{miss_speedup:.2}x"),
                ],
            ]
        )
    );
    assert!(
        miss_us <= first_us,
        "a refresh must not cost more than a cold compile; got {miss_us} us vs {first_us} us"
    );
    bench_rows.push(BenchRow::new("fig_engine_compile", "first", first_us, 1.0));
    bench_rows.push(BenchRow::new(
        "fig_engine_compile",
        "token_miss",
        miss_us,
        miss_speedup,
    ));
    write_bench_snapshot("BENCH_engine.json", &bench_rows);
}
