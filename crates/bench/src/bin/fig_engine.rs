//! Engine-path perf trajectory on the Fig. 4 workload: legacy vs
//! compiled engine vs worker-team engine vs folded shift pairs vs the
//! fleet-wide batched pipeline.
//!
//! The Fig. 4 harness is the densest engine-bound workload in the
//! repo: 6 catalog devices x 7 calibration ages, one 5-qubit GHZ-class
//! probe each. This harness re-runs that 42-job sweep as the *client*
//! sees it — a compiled template executing parameter-shift pairs — once
//! per execution path:
//!
//! * `legacy`   — the pre-engine reference (per-run bind + noise rebuild);
//! * `engine`   — the compiled path with shift-pair folding disabled
//!   (the PR-2 baseline, now with the lowered channel sweep);
//! * `parallel` — the same plus a worker team on the density kernels
//!   (the 5-qubit probe sits below the parallel row-block threshold, so
//!   this row doubles as the "parallelism costs nothing when it cannot
//!   help" guard);
//! * `folded`   — shift-pair folding on: each forward/backward pair
//!   evolves its shared tape prefix once;
//! * `batched`  — the fleet-wide batched pipeline: whole shift batches
//!   group-fork over one shared-prefix walk, prefixes cached across
//!   batches within a noise epoch, suffixes fanned over a shared
//!   [`qsim::BatchPipeline`] worker team.
//!
//! Every path must produce byte-identical counts (asserted). A second
//! section times the batched pipeline against the PR-7 folded path on
//! the workload it was built for — small circuits (4 qubits, below the
//! row-block parallel threshold) over many clients with a deep fixed
//! body, and the same batch at 7 qubits — and asserts that batching
//! does not lose at 4 qubits and keeps >= 2x at 7. (Cluster fusion made
//! the evolution both paths share ~2x cheaper, so the per-job pipeline
//! overhead is a larger share of what is left: the margin narrowed from
//! 2.0x / 5.5x.)
//!
//! Emits one machine-readable JSON line (`{"bench":"fig_engine",...}`)
//! for the perf-trajectory dashboard and refreshes the repo-root
//! `BENCH_engine.json` snapshot.
//!
//! Run with: `cargo run --release -p eqc-bench --bin fig_engine`

use eqc_bench::{env_param, markdown_table, shots_or, write_bench_snapshot, write_csv, BenchRow};
use qdevice::{catalog, CompiledTemplate, QpuBackend, SimTime, TemplateRun};
use qsim::{BatchPipeline, Counts, ParallelCtx};
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
    Parallel(usize),
    Folded,
    Batched(usize),
}

/// Pipeline counters drained from a backend set after a sweep:
/// (prefix hits, batched jobs, pipeline lanes).
type PipeStats = (u64, u64, usize);

fn drain_stats(backends: &[QpuBackend]) -> PipeStats {
    (
        backends.iter().map(QpuBackend::prefix_hits).sum(),
        backends.iter().map(QpuBackend::batched_jobs).sum(),
        backends
            .iter()
            .map(QpuBackend::pipeline_lanes)
            .max()
            .unwrap_or(0),
    )
}

/// Runs the full 6-device x 7-age sweep under one execution path and
/// returns (all counts in sweep order, elapsed ms, pipeline counters).
fn sweep(mode: &Mode, shots: usize) -> (Vec<Counts>, u128, PipeStats) {
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
    // One pipeline for the whole fleet of backends (the tentpole
    // wiring: many clients, one worker team).
    let pipeline = match *mode {
        Mode::Batched(lanes) => Some(BatchPipeline::new(lanes)),
        _ => None,
    };
    let mut backends: Vec<QpuBackend> = devices
        .iter()
        .map(|name| {
            let spec = catalog::by_name(name).expect("catalog device");
            let mut backend = spec.backend(0xF164 + name.len() as u64);
            match *mode {
                Mode::Legacy => backend = backend.with_legacy_execution().without_shift_fold(),
                Mode::Engine => backend = backend.without_shift_fold(),
                Mode::Parallel(workers) => {
                    backend = backend.without_shift_fold();
                    backend.set_parallelism(ParallelCtx::with_workers(workers));
                }
                Mode::Folded => {}
                Mode::Batched(_) => {
                    backend.set_batch_pipeline(pipeline.as_ref().expect("built above").clone());
                }
            }
            backend
        })
        .collect();
    let mut all = Vec::new();
    let start = Instant::now();
    for backend in &mut backends {
        let mut template = CompiledTemplate::new(circuit.clone(), vec![0, 1, 2, 3, 4]);
        for &age in &ages_h {
            let (counts, _) = backend.execute_templates(
                &mut [&mut template],
                &runs,
                &params,
                shots,
                SimTime::from_hours(age),
            );
            all.extend(counts);
        }
    }
    let elapsed = start.elapsed().as_millis();
    (all, elapsed, drain_stats(&backends))
}

/// The pipeline-section probes: two `n`-qubit ansaetze sharing a deep
/// fixed body (H + 6 layers of a CX chain) before their symbolic
/// layers diverge (one trailing RY layer; the second template adds an
/// RZ layer). The deep shared body is the point: pair folding
/// re-walks it once per shift pair per template, the batched pipeline
/// walks it once per noise epoch and serves the sibling template from
/// the shared-prefix cache.
fn deep_probe(n: usize, with_rz: bool) -> qcircuit::Circuit {
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
    if with_rz {
        for q in 0..n {
            b.rz_sym(q, n + q);
        }
    }
    b.build()
}

/// Trains the pipeline workload — `clients` independent `n`-qubit
/// clients, each submitting `batches` shift batches over both deep
/// probes at one fixed calibration age — under the folded or batched
/// path. Returns (counts in submission order, elapsed us, pipeline
/// counters).
fn pipeline_bench(
    batched: bool,
    n: usize,
    clients: usize,
    batches: usize,
    shots: usize,
) -> (Vec<Counts>, u128, PipeStats) {
    let params: Vec<f64> = (0..2 * n).map(|i| 0.3 - 0.17 * i as f64).collect();
    // Symbolic RY layer starts right after the body (H + 6 CX chains).
    let ry_gates: Vec<usize> = (0..n).map(|q| 1 + 6 * (n - 1) + q).collect();
    let runs: Vec<TemplateRun> = (0..2usize)
        .flat_map(|t| {
            ry_gates
                .iter()
                .flat_map(move |&g| {
                    [
                        TemplateRun {
                            template: t,
                            shift: Some((g, vqa::gradient::SHIFT)),
                        },
                        TemplateRun {
                            template: t,
                            shift: Some((g, -vqa::gradient::SHIFT)),
                        },
                    ]
                })
                .chain([TemplateRun {
                    template: t,
                    shift: None,
                }])
                .collect::<Vec<_>>()
        })
        .collect();
    let pipeline = batched.then(|| BatchPipeline::new(2));
    let device = if n <= 5 { "belem" } else { "casablanca" };
    let spec = catalog::by_name(device).expect("catalog device");
    let mut backends: Vec<QpuBackend> = (0..clients)
        .map(|i| {
            let mut backend = spec.backend(0xBA7C + i as u64);
            if let Some(p) = &pipeline {
                backend.set_batch_pipeline(p.clone());
            }
            backend
        })
        .collect();
    let active: Vec<usize> = (0..n).collect();
    let mut templates: Vec<(CompiledTemplate, CompiledTemplate)> = (0..clients)
        .map(|_| {
            (
                CompiledTemplate::new(deep_probe(n, false), active.clone()),
                CompiledTemplate::new(deep_probe(n, true), active.clone()),
            )
        })
        .collect();
    let mut all = Vec::new();
    let start = Instant::now();
    for _ in 0..batches {
        for (backend, (ta, tb)) in backends.iter_mut().zip(&mut templates) {
            let (counts, _) = backend.execute_templates(
                &mut [ta, tb],
                &runs,
                &params,
                shots,
                SimTime::from_hours(0.1),
            );
            all.extend(counts);
        }
    }
    let elapsed = start.elapsed().as_micros();
    (all, elapsed, drain_stats(&backends))
}

fn main() {
    let shots = shots_or(8192);
    let jobs = 6 * 7;
    let runs_per_job = RY_GATES.len() * 2;
    let workers = std::thread::available_parallelism()
        .map(|n| n.get().min(4))
        .unwrap_or(2);
    let commit = std::env::var("GITHUB_SHA").unwrap_or_else(|_| "local".into());
    println!(
        "# Engine perf trajectory — Fig. 4 workload as shift-pair batches \
         ({jobs} jobs x {runs_per_job} runs, {shots} shots)\n"
    );

    let (legacy_counts, legacy_ms, _) = sweep(&Mode::Legacy, shots);
    let (engine_counts, engine_ms, _) = sweep(&Mode::Engine, shots);
    let (parallel_counts, parallel_ms, _) = sweep(&Mode::Parallel(workers), shots);
    let (folded_counts, folded_ms, _) = sweep(&Mode::Folded, shots);
    let (batched_counts, batched_ms, batched_stats) = sweep(&Mode::Batched(workers), shots);

    // Every path is an oracle for every other path.
    assert_eq!(legacy_counts, engine_counts, "engine diverged from legacy");
    assert_eq!(engine_counts, parallel_counts, "worker team changed bits");
    assert_eq!(engine_counts, folded_counts, "folding changed bits");
    assert_eq!(
        engine_counts, batched_counts,
        "batched pipeline changed bits"
    );

    let per_run = |ms: u128| ms as f64 * 1000.0 / (jobs * runs_per_job) as f64;
    let mut rows = Vec::new();
    let mut bench_rows = Vec::new();
    let mut csv = String::from("path,elapsed_ms,per_run_us,speedup_vs_legacy\n");
    for (label, ms) in [
        ("legacy", legacy_ms),
        ("engine", engine_ms),
        ("parallel", parallel_ms),
        ("folded", folded_ms),
        ("batched", batched_ms),
    ] {
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
        "sweep telemetry: pipeline_lanes={} batched_jobs={} prefix_hits={}",
        batched_stats.2, batched_stats.1, batched_stats.0
    );
    println!(
        "{{\"bench\":\"fig_engine\",\"jobs\":{jobs},\"runs_per_job\":{runs_per_job},\
         \"shots\":{shots},\"legacy_ms\":{legacy_ms},\"engine_ms\":{engine_ms},\
         \"parallel_ms\":{parallel_ms},\"folded_ms\":{folded_ms},\"batched_ms\":{batched_ms},\
         \"workers\":{workers},\"commit\":\"{commit}\"}}"
    );
    write_csv("fig_engine.csv", &csv);

    // --- Pipeline section: the batched substrate on its home turf ---
    // Small clients (4 qubits sit below the row-block parallel floor,
    // so PR-3 worker teams never helped them; 7 qubits show the same
    // batch on a heavier state), deep fixed body, many clients sharing
    // one pipeline, several batches inside one noise epoch.
    let clients = env_param("EQC_PIPE_CLIENTS", 8).max(8);
    let batches = env_param("EQC_PIPE_BATCHES", 6);
    let pipe_shots = env_param("EQC_PIPE_SHOTS", 512);
    for n in [4usize, 7] {
        println!(
            "\n# Batched pipeline vs PR-7 folded path — {n} qubits x {clients} clients, \
             {batches} batches, {pipe_shots} shots\n"
        );
        let (pf_counts, folded_us, _) = pipeline_bench(false, n, clients, batches, pipe_shots);
        let (pb_counts, batched_us, (hits, bjobs, lanes)) =
            pipeline_bench(true, n, clients, batches, pipe_shots);
        assert_eq!(pf_counts, pb_counts, "pipeline section changed bits");
        let pipe_speedup = folded_us as f64 / batched_us.max(1) as f64;
        println!(
            "{}",
            markdown_table(
                &["path", "wall us", "speedup vs folded"],
                &[
                    vec!["folded".into(), folded_us.to_string(), "1.00x".into()],
                    vec![
                        "batched".into(),
                        batched_us.to_string(),
                        format!("{pipe_speedup:.2}x"),
                    ],
                ]
            )
        );
        println!(
            "pipeline telemetry: pipeline_lanes={lanes} batched_jobs={bjobs} prefix_hits={hits}"
        );
        println!(
            "{{\"bench\":\"fig_engine_pipeline{n}\",\"qubits\":{n},\"clients\":{clients},\
             \"batches\":{batches},\"shots\":{pipe_shots},\"folded_us\":{folded_us},\
             \"batched_us\":{batched_us},\"speedup\":{pipe_speedup:.4},\"prefix_hits\":{hits},\
             \"batched_jobs\":{bjobs},\"pipeline_lanes\":{lanes},\"commit\":\"{commit}\"}}"
        );
        assert!(hits > 0, "batched path must hit the shared-prefix cache");
        assert!(bjobs > 0 && lanes > 0, "pipeline counters must be live");
        // The floor: batching never loses on the small states worker
        // teams could never touch, and keeps a 2x win where the state
        // is large enough for shared prefixes to dominate.
        let floor = if n == 4 { 1.0 } else { 2.0 };
        assert!(
            pipe_speedup >= floor,
            "batched pipeline must hold >= {floor}x over the folded path at {n} qubits x \
             {clients} clients; got {pipe_speedup:.2}x ({folded_us} us vs {batched_us} us)"
        );
        let series = format!("fig_engine_pipeline{n}");
        bench_rows.push(BenchRow::new(&series, "folded", folded_us, 1.0));
        bench_rows.push(BenchRow::new(&series, "batched", batched_us, pipe_speedup));
    }
    write_bench_snapshot("BENCH_engine.json", &bench_rows);
}
