//! Shared harness utilities for the experiment binaries.
//!
//! Every `fig*`/`table1` binary regenerates one table or figure of the
//! EQC paper: it runs the experiment on the simulated device fleet,
//! prints the series/rows the paper reports, and writes CSVs under
//! `results/`. Binaries honour two environment overrides for quick
//! passes: `EQC_EPOCHS` and `EQC_SHOTS`.

use eqc_core::{Ensemble, EqcConfig, SequentialExecutor, TrainingReport};
use std::fs;
use std::path::PathBuf;
use vqa::VqaProblem;

/// Reads a `usize` parameter from the environment with a default.
pub fn env_param(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Epoch budget for figure runs (`EQC_EPOCHS`, default = paper value).
pub fn epochs_or(default: usize) -> usize {
    env_param("EQC_EPOCHS", default)
}

/// Shot budget for figure runs (`EQC_SHOTS`, default 8192 as in the
/// paper).
pub fn shots_or(default: usize) -> usize {
    env_param("EQC_SHOTS", default)
}

/// Builds an [`Ensemble`] over the named catalog devices (device `i`
/// seeds its noise stream from `seed_base + i`).
///
/// # Panics
///
/// Panics if a name is missing from the catalog or the configuration is
/// invalid — harness binaries treat both as programmer errors.
pub fn ensemble_for<S: AsRef<str> + std::fmt::Debug>(
    names: &[S],
    seed_base: u64,
    config: EqcConfig,
) -> Ensemble {
    Ensemble::builder()
        .devices(names.iter().map(S::as_ref))
        .device_seed(seed_base)
        .config(config)
        .build()
        .unwrap_or_else(|e| panic!("ensemble over {names:?}: {e}"))
}

/// Trains with the default deterministic discrete-event executor.
///
/// # Panics
///
/// Panics on any [`eqc_core::EqcError`] (harness-level fatal).
pub fn train_eqc<S: AsRef<str> + std::fmt::Debug>(
    problem: &dyn VqaProblem,
    names: &[S],
    seed_base: u64,
    config: EqcConfig,
) -> TrainingReport {
    ensemble_for(names, seed_base, config)
        .train(problem)
        .unwrap_or_else(|e| panic!("EQC training failed: {e}"))
}

/// Trains the paper's single-machine baseline on one catalog device.
///
/// # Panics
///
/// Panics on any [`eqc_core::EqcError`] (harness-level fatal).
pub fn train_single(
    problem: &dyn VqaProblem,
    name: &str,
    seed: u64,
    config: EqcConfig,
) -> TrainingReport {
    ensemble_for(&[name], seed, config)
        .train_with(&SequentialExecutor::new(), problem)
        .unwrap_or_else(|e| panic!("single-device training on {name} failed: {e}"))
}

/// Trains the ideal-simulator baseline (trainer label `ideal`).
///
/// # Panics
///
/// Panics on any [`eqc_core::EqcError`] (harness-level fatal).
pub fn train_ideal_baseline(problem: &dyn VqaProblem, config: EqcConfig) -> TrainingReport {
    Ensemble::builder()
        .ideal_device()
        .device_seed(config.seed)
        .config(config)
        .build()
        .and_then(|e| e.train_with(&SequentialExecutor::new(), problem))
        .unwrap_or_else(|e| panic!("ideal training failed: {e}"))
}

/// The pinned fleet population every fleet-scale harness shares: `n`
/// perturbed 5-qubit devices (every member inside the density-engine
/// cap) synthesized from one base list and seed. `fig_fleet`,
/// `fig_tenants`, the `fleet` criterion bench and the policy fleet all
/// draw from this single definition, so their cross-harness
/// byte-equality oracles hold by construction.
pub fn fleet_specs(n: usize) -> Vec<qdevice::DeviceSpec> {
    let base: Vec<qdevice::DeviceSpec> = ["belem", "manila", "bogota", "quito", "lima"]
        .iter()
        .map(|name| qdevice::catalog::by_name(name).expect("catalog device"))
        .collect();
    qdevice::catalog::fleet(&base, n, 0xF1EE7)
}

/// The device-stream seed paired with [`fleet_specs`] everywhere.
const FLEET_DEVICE_SEED: u64 = 11;

/// The shared fleet-scaling workload: an [`Ensemble`] over
/// [`fleet_specs`]`(n)`, so the `fig_fleet` harness and the `fleet`
/// criterion bench measure exactly the same fleet.
///
/// # Panics
///
/// Panics on any [`eqc_core::EqcError`] (harness-level fatal).
pub fn fleet_ensemble(n: usize, config: EqcConfig) -> Ensemble {
    Ensemble::builder()
        .specs(fleet_specs(n))
        .device_seed(FLEET_DEVICE_SEED)
        .config(config)
        .build()
        .unwrap_or_else(|e| panic!("fleet of {n} failed to build: {e}"))
}

/// The multi-tenant counterpart of [`fleet_ensemble`]: a
/// [`FleetRuntime`](eqc_core::FleetRuntime) builder over the *same*
/// pinned population ([`fleet_specs`]`(n)`, same device seed), so the
/// `fig_tenants` harness can assert a single tenant on the fleet
/// replays [`fleet_ensemble`]`.train(..)` byte for byte.
pub fn tenant_fleet_builder(n: usize) -> eqc_core::FleetBuilder {
    eqc_core::FleetRuntime::builder()
        .specs(fleet_specs(n))
        .device_seed(FLEET_DEVICE_SEED)
}

/// A device whose *reported* calibration swings wildly between
/// recalibration cycles (1.8 virtual seconds apart, no maintenance
/// window, lognormal jitter sigma 2.0 — so even short smoke runs span
/// many good and bad cycles): the scenario knob behind the
/// drift-eviction ablations in `fig_policies` and the policy tests.
pub fn flaky_backend(seed: u64) -> qdevice::QpuBackend {
    let spec = qdevice::catalog::by_name("quito").expect("catalog device");
    qdevice::QpuBackend::new(
        "flaky",
        spec.topology(),
        spec.calibration(),
        qdevice::DriftModel::none(),
        qdevice::QueueModel::light(3.0),
        0.0005,
        seed,
    )
    .with_downtime_hours(0.0)
    .with_recal_jitter(2.0)
}

/// The noise `backend` applies to the compact register `active` at
/// `steps` successive drift steps, one virtual minute apart: distinct
/// models of one structure, as successive jobs on a drifting device see
/// them — what the compile benches step a template through.
pub fn drift_steps(
    backend: &qdevice::QpuBackend,
    active: &[usize],
    steps: usize,
) -> Vec<qdevice::NoiseModel> {
    (0..steps)
        .map(|step| {
            let at = qdevice::SimTime::from_secs(60.0 * step as f64);
            qdevice::NoiseModel::from_calibration(&backend.actual_calibration(at), active)
        })
        .collect()
}

/// The four templates the repository's benchmark workloads run, each
/// with the catalog device the engine benches put it on: H2,
/// Heisenberg-4 and QAOA ring-4 on belem, TFIM-7 on lagos.
pub fn benchmark_templates() -> [(&'static str, Box<dyn VqaProblem>, &'static str); 4] {
    let tfim7 = vqa::VqeProblem::new(
        "tfim7",
        vqa::hamiltonians::transverse_field_ising(7, 1.0, 0.8),
        vqa::ansatz::hardware_efficient_layers(7, 1),
    );
    [
        ("h2", Box::new(vqa::VqeProblem::h2()), "belem"),
        (
            "heisenberg4",
            Box::new(vqa::VqeProblem::heisenberg_4q()),
            "belem",
        ),
        (
            "qaoa_ring4",
            Box::new(vqa::QaoaProblem::maxcut_ring4()),
            "belem",
        ),
        ("tfim7", Box::new(tfim7), "lagos"),
    ]
}

/// One problem template prepared for one catalog device as a client
/// prepares it (transpiled, compacted, not yet compiled), with the
/// device's noise at sixteen successive [`drift_steps`].
pub fn template_fixture(
    problem: &dyn VqaProblem,
    device: &str,
) -> (qdevice::CompiledTemplate, Vec<qdevice::NoiseModel>) {
    let backend = qdevice::catalog::by_name(device)
        .expect("catalog device")
        .backend(2);
    let transpiled = transpile::transpile(
        &problem.templates()[0],
        backend.topology(),
        &transpile::TranspileOptions::default(),
    )
    .expect("template fits device");
    let (compact, _) = transpiled.compact_for_simulation().expect("compacts");
    let template = qdevice::CompiledTemplate::new(compact, transpiled.active_qubits());
    let noises = drift_steps(&backend, template.active_physical(), 16);
    (template, noises)
}

/// A fixed, unremarkable parameter vector for timing and census
/// fixtures: distinct angles, none a multiple of pi/2.
pub fn probe_params(n: usize) -> Vec<f64> {
    (0..n).map(|i| 0.3 - 0.17 * i as f64).collect()
}

/// How many tape ops of a density program take each kind of sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TapeCensus {
    /// Fused one-qubit sweeps with complex coefficients.
    pub complex_1q: usize,
    /// Fused one-qubit sweeps with real coefficients.
    pub real_1q: usize,
    /// Two-qubit ops: fused sweeps and bare unitaries.
    pub two_qubit: usize,
    /// One-qubit diagonal unitaries (one phase pass each): rebind slots
    /// holding an RZ and settled frames.
    pub diag: usize,
    /// Any other one-qubit unitary op.
    pub dense_1q: usize,
}

/// The [`TapeCensus`] of a density-lowered program as currently bound.
pub fn tape_census(program: &qsim::CompiledProgram) -> TapeCensus {
    use qsim::program::TapeOp;
    let zero = qsim::C64::ZERO;
    let mut census = TapeCensus::default();
    for op in program.ops() {
        match *op {
            TapeOp::Channel1q { channel, .. } if program.superops().get(channel).is_real() => {
                census.real_1q += 1
            }
            TapeOp::Channel1q { .. } => census.complex_1q += 1,
            TapeOp::Channel2q { .. } | TapeOp::Unitary2q { .. } => census.two_qubit += 1,
            TapeOp::Unitary1q { slot, .. } => {
                let u = program.unitary(slot);
                if u[(0, 1)] == zero && u[(1, 0)] == zero {
                    census.diag += 1
                } else {
                    census.dense_1q += 1
                }
            }
        }
    }
    census
}

/// The policy-ablation fleet: `n - 1` synthesized stable devices (the
/// [`fleet_ensemble`] population) plus one [`flaky_backend`] member, as
/// a builder so harnesses can attach a policy stack before `build()`.
///
/// # Panics
///
/// Panics if `n < 2` (the flaky member needs at least one stable peer).
pub fn policy_fleet_builder(n: usize, config: EqcConfig) -> eqc_core::EnsembleBuilder {
    assert!(n >= 2, "policy fleet needs >= 2 devices, got {n}");
    Ensemble::builder()
        .specs(fleet_specs(n - 1))
        .backend(flaky_backend(42))
        .device_seed(FLEET_DEVICE_SEED)
        .config(config)
}

/// A weight band literal for harness code.
///
/// # Panics
///
/// Panics on an invalid band (harness-level fatal).
pub fn band(lo: f64, hi: f64) -> eqc_core::WeightBounds {
    eqc_core::WeightBounds::new(lo, hi).expect("valid weight band")
}

/// One measured row of a repo-root `BENCH_*.json` perf snapshot: which
/// harness produced it, which execution path it timed, the wall-clock
/// in microseconds, and the speedup against that harness's slowest
/// reference path (`legacy` for the engine sweeps, `des`/`unshared`
/// for the fleet harnesses).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRow {
    /// Harness/series name (e.g. `fig_engine`, `fleet64`, `contention8`).
    pub bench: String,
    /// Execution-path label within the bench (e.g. `engine`, `pipeline`).
    pub path: String,
    /// Measured wall clock, microseconds.
    pub wall_us: u128,
    /// Speedup versus the bench's reference path (reference row = 1.0).
    pub speedup_vs_legacy: f64,
}

impl BenchRow {
    /// A row literal.
    pub fn new(bench: &str, path: &str, wall_us: u128, speedup_vs_legacy: f64) -> Self {
        BenchRow {
            bench: bench.to_string(),
            path: path.to_string(),
            wall_us,
            speedup_vs_legacy,
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"bench\":\"{}\",\"path\":\"{}\",\"wall_us\":{},\"speedup_vs_legacy\":{:.4}}}",
            self.bench, self.path, self.wall_us, self.speedup_vs_legacy
        )
    }
}

/// Extracts the `"bench"` value from one row line of a snapshot file.
fn bench_of_line(line: &str) -> Option<&str> {
    let rest = line.split("\"bench\":\"").nth(1)?;
    rest.split('"').next()
}

/// Merges fresh rows into an existing snapshot body: every old row
/// whose bench name is re-measured by `rows` is replaced; rows of
/// benches not in this run (e.g. `fig_fleet` sizes measured by an
/// earlier pass, or `fig_contention` rows sharing the fleet snapshot)
/// survive. Returns the full JSON document (one row object per line).
pub fn merge_bench_rows(existing: &str, rows: &[BenchRow]) -> String {
    let fresh: Vec<&str> = rows.iter().map(|r| r.bench.as_str()).collect();
    let mut lines: Vec<String> = existing
        .lines()
        .map(str::trim)
        .filter(|l| l.starts_with('{'))
        .filter(|l| bench_of_line(l).is_none_or(|b| !fresh.contains(&b)))
        .map(|l| l.trim_end_matches(',').to_string())
        .collect();
    lines.extend(rows.iter().map(BenchRow::json));
    let mut out = String::from("[\n");
    let n = lines.len();
    for (i, line) in lines.into_iter().enumerate() {
        out.push_str(&line);
        out.push_str(if i + 1 < n { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Writes (merging) a repo-root `BENCH_*.json` snapshot and reports its
/// path on stdout. Rows from benches not re-measured in this run are
/// preserved, so `fig_fleet` and `fig_contention` can share one file.
pub fn write_bench_snapshot(file: &str, rows: &[BenchRow]) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    let existing = fs::read_to_string(&path).unwrap_or_default();
    fs::write(&path, merge_bench_rows(&existing, rows)).expect("write bench snapshot");
    println!("  [wrote {}]", path.display());
}

/// The `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results");
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a CSV artifact and reports its path on stdout.
pub fn write_csv(name: &str, content: &str) {
    let path = results_dir().join(name);
    fs::write(&path, content).expect("write results file");
    println!("  [wrote {}]", path.display());
}

/// Renders a markdown table.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for h in headers {
        out.push_str(&format!(" {h} |"));
    }
    out.push('\n');
    out.push('|');
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row {
            out.push_str(&format!(" {cell} |"));
        }
        out.push('\n');
    }
    out
}

/// Downsamples an epoch history to at most `n` evenly spaced points for
/// terminal-friendly series output.
pub fn downsample<T: Clone>(xs: &[T], n: usize) -> Vec<T> {
    if xs.len() <= n || n == 0 {
        return xs.to_vec();
    }
    let step = xs.len() as f64 / n as f64;
    (0..n)
        .map(|i| xs[((i as f64 + 0.5) * step) as usize % xs.len()].clone())
        .collect()
}

/// Renders an ASCII sparkline of a series (low = worst, high = best) for
/// quick visual inspection of convergence curves in the terminal.
pub fn sparkline(values: &[f64]) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    values
        .iter()
        .map(|v| LEVELS[(((v - min) / span) * 7.0).round() as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_param_default_and_parse() {
        assert_eq!(env_param("EQC_DOES_NOT_EXIST", 17), 17);
        std::env::set_var("EQC_TEST_PARAM_X", "42");
        assert_eq!(env_param("EQC_TEST_PARAM_X", 1), 42);
        std::env::set_var("EQC_TEST_PARAM_X", "junk");
        assert_eq!(env_param("EQC_TEST_PARAM_X", 3), 3);
    }

    #[test]
    fn markdown_table_shape() {
        let t = markdown_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(t.lines().count(), 3);
        assert!(t.contains("| 1 | 2 |"));
    }

    #[test]
    fn downsample_limits_length() {
        let xs: Vec<usize> = (0..100).collect();
        let d = downsample(&xs, 10);
        assert_eq!(d.len(), 10);
        let short = downsample(&xs[..5], 10);
        assert_eq!(short.len(), 5);
    }

    #[test]
    fn sparkline_monotone() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        let first = s.chars().next().unwrap();
        let last = s.chars().last().unwrap();
        assert_ne!(first, last);
    }

    #[test]
    fn bench_rows_merge_by_bench_name() {
        let first = merge_bench_rows(
            "",
            &[
                BenchRow::new("fleet8", "des", 1000, 1.0),
                BenchRow::new("fleet8", "pooled", 500, 2.0),
            ],
        );
        assert!(first.starts_with("[\n"));
        assert!(first.ends_with("]\n"));
        assert!(first.contains("\"bench\":\"fleet8\",\"path\":\"pooled\",\"wall_us\":500"));

        // A later harness re-measures fleet8 and adds contention2: the
        // stale fleet8 rows are replaced, nothing else is lost.
        let second = merge_bench_rows(
            &first,
            &[
                BenchRow::new("fleet8", "des", 1200, 1.0),
                BenchRow::new("contention2", "shared", 900, 0.9),
            ],
        );
        assert!(!second.contains("\"wall_us\":500"));
        assert!(second.contains("\"wall_us\":1200"));
        assert!(second.contains("\"bench\":\"contention2\""));
        assert_eq!(second.matches("fleet8").count(), 1);

        // Merging fresh contention rows keeps the fleet8 snapshot.
        let third = merge_bench_rows(&second, &[BenchRow::new("contention2", "shared", 800, 1.1)]);
        assert!(third.contains("\"wall_us\":1200"));
        assert!(third.contains("\"wall_us\":800"));
        assert!(!third.contains("\"wall_us\":900"));
    }

    #[test]
    fn ensemble_for_builds_fleet() {
        let problem = vqa::QaoaProblem::maxcut_ring4();
        let cfg = EqcConfig::paper_qaoa().with_epochs(1).with_shots(64);
        let ensemble = ensemble_for(&["belem", "manila"], 0, cfg);
        assert_eq!(ensemble.num_devices(), 2);
        let report = ensemble.train(&problem).expect("trains");
        assert_eq!(report.clients.len(), 2);
        assert_eq!(report.clients[0].device, "belem");
    }

    #[test]
    fn ideal_baseline_is_labeled() {
        let problem = vqa::QaoaProblem::maxcut_ring4();
        let cfg = EqcConfig::paper_qaoa().with_epochs(1).with_shots(64);
        assert_eq!(train_ideal_baseline(&problem, cfg).trainer, "ideal");
    }
}
