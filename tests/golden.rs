//! Golden outputs: the results of six small fixtures, pinned bit for
//! bit in `tests/golden.json`.
//!
//! Every executor and drive here is deterministic, and the equivalence
//! suites compare paths against each other within one commit. This file
//! compares each path against what it produced when the file was
//! blessed, so a change that moves a result — on any path, by any
//! amount — fails here until it is blessed on purpose:
//!
//! ```text
//! EQC_BLESS=1 cargo test --test golden
//! ```
//!
//! rewrites the file; the diff is the list of values that moved. The
//! values are named, not a hash of a report's `Debug` text, so a new
//! telemetry field moves nothing and a failure names the first value
//! that did. Floats are stored as their bit patterns (with the decimal
//! beside them for the reader). They rest on IEEE-754 determinism and
//! on the platform's `libm` (`exp`, `sin`, `cos`); the file records the
//! target it was blessed on, and a failure names both targets.

use eqc::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The seeds every fixture runs at.
const SEEDS: [u64; 2] = [11, 23];

/// The named values of every fixture, in file order.
#[derive(Default)]
struct Golden {
    values: Vec<(String, String)>,
}

impl Golden {
    fn put(&mut self, key: String, value: String) {
        assert!(
            !self.values.iter().any(|(k, _)| *k == key),
            "duplicate golden key {key}"
        );
        self.values.push((key, value));
    }

    fn float(&mut self, key: String, v: f64) {
        self.put(key, bits(v));
    }

    fn count(&mut self, key: String, v: u64) {
        self.put(key, v.to_string());
    }

    /// A training report's results: final parameters and loss, virtual
    /// hours, and one hash over the per-epoch history.
    fn report(&mut self, at: &str, report: &TrainingReport) {
        let params: Vec<String> = report.final_params.iter().map(|&p| bits(p)).collect();
        self.put(format!("{at}.final_params"), params.join(" "));
        self.float(format!("{at}.final_loss"), report.final_loss);
        self.float(format!("{at}.virtual_hours"), report.total_hours);
        self.put(format!("{at}.history_fnv"), history_fnv(report));
    }

    /// A fleet run: every tenant's report, absorbed results and queue
    /// waits, and the fleet's snapshot and shared-noise counters.
    fn fleet(&mut self, at: &str, outcome: &FleetOutcome) {
        for (t, (report, tenant)) in outcome
            .reports
            .iter()
            .zip(&outcome.telemetry.tenants)
            .enumerate()
        {
            let at = format!("{at}.tenant{t}");
            self.report(&at, report);
            self.count(format!("{at}.results_absorbed"), tenant.results_absorbed);
            self.float(
                format!("{at}.wait_virtual_hours"),
                tenant.wait_virtual_hours,
            );
            self.float(format!("{at}.queue_wait_hours"), tenant.queue_wait_hours);
        }
        let t = &outcome.telemetry;
        self.count(format!("{at}.grant_rounds"), t.grant_rounds);
        self.count(format!("{at}.snapshot_rebuilds"), t.snapshot_rebuilds);
        self.count(format!("{at}.snapshot_reuses"), t.snapshot_reuses);
        self.count(format!("{at}.shared_noise_builds"), t.shared_noise_builds);
        self.count(format!("{at}.shared_noise_hits"), t.shared_noise_hits);
    }

    /// A streamed service: its fleet outcome plus the service clock.
    fn service(&mut self, at: &str, outcome: &ServiceOutcome) {
        self.fleet(at, &outcome.fleet);
        let s = &outcome.service;
        self.float(format!("{at}.idle_virtual_hours"), s.idle_virtual_hours);
        self.float(format!("{at}.span_virtual_hours"), s.span_virtual_hours);
        self.count(format!("{at}.deadline_hits"), s.deadline_hits as u64);
        self.count(format!("{at}.deadline_misses"), s.deadline_misses as u64);
    }
}

/// A float's bit pattern, with its decimal for the reader.
fn bits(v: f64) -> String {
    format!("{:#018x} ({v:e})", v.to_bits())
}

/// FNV-1a over the per-epoch history: each epoch's index, virtual
/// hours and ideal loss, as bits.
fn history_fnv(report: &TrainingReport) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for record in &report.history {
        let words = [
            record.epoch as u64,
            record.virtual_hours.to_bits(),
            record.ideal_loss.to_bits(),
        ];
        for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The platform the values were computed on.
fn target() -> String {
    let env = if cfg!(target_env = "gnu") {
        "gnu"
    } else if cfg!(target_env = "musl") {
        "musl"
    } else if cfg!(target_env = "msvc") {
        "msvc"
    } else {
        "none"
    };
    format!("{}-{}-{env}", std::env::consts::ARCH, std::env::consts::OS)
}

fn catalog_session(seed: u64) -> Ensemble {
    Ensemble::builder()
        .devices(["belem", "manila", "bogota", "quito"])
        .device_seed(seed)
        .config(
            EqcConfig::paper_qaoa()
                .with_epochs(5)
                .with_shots(256)
                .with_seed(seed),
        )
        .build()
        .expect("builds")
}

/// One DES session on catalog devices, the same session on a 2-worker
/// pool and on three pipeline lanes.
fn sessions(golden: &mut Golden, seed: u64) {
    let problem = QaoaProblem::maxcut_ring4();
    let ensemble = catalog_session(seed);
    let des = ensemble.train(&problem).expect("trains");
    golden.report(&format!("des_catalog.seed{seed}"), &des);
    let pooled = ensemble
        .train_with(&PooledExecutor::new().workers(2), &problem)
        .expect("trains");
    golden.report(&format!("pooled_catalog.seed{seed}"), &pooled);
    let piped = Ensemble::builder()
        .devices(["belem", "manila", "bogota", "quito"])
        .device_seed(seed)
        .config(
            EqcConfig::paper_qaoa()
                .with_epochs(5)
                .with_shots(256)
                .with_seed(seed)
                .with_sim_parallelism(SimParallelism::Pipeline { lanes: 3 }),
        )
        .build()
        .expect("builds")
        .train(&problem)
        .expect("trains");
    golden.report(&format!("pipeline_catalog.seed{seed}"), &piped);
}

/// A pooled fleet of synthesized devices on two coupling maps.
fn synthesized_fleet(golden: &mut Golden, seed: u64) {
    let problem = VqeProblem::heisenberg_4q();
    let mut fleet = FleetRuntime::builder()
        .specs(eqc_bench::fleet_specs(24))
        .device_seed(seed)
        .pooled_workers(2)
        .build()
        .expect("builds");
    let config = EqcConfig::paper_vqe()
        .with_epochs(2)
        .with_shots(64)
        .with_seed(seed);
    fleet
        .admit(&problem, TenantConfig::new(config))
        .expect("admits");
    let outcome = fleet.run().expect("runs");
    golden.fleet(&format!("pooled_synthesized.seed{seed}"), &outcome);
}

/// Shared-ledger tenants under Poisson load, two of them
/// contention-aware.
fn shared_tenants(golden: &mut Golden, seed: u64) {
    let problem = QaoaProblem::maxcut_ring4();
    let load = LoadModel::Poisson {
        jobs_per_hour: 40.0,
        mean_job_s: 30.0,
        seed,
    };
    let mut fleet = FleetRuntime::builder()
        .devices(["belem", "manila", "bogota", "quito"])
        .device_seed(seed)
        .arbiter(FairShare)
        .shared_with_load(load)
        .build()
        .expect("builds");
    let aware = || PolicyConfig::default().with_scheduler(ContentionAware::default());
    for (t, policies) in [aware(), PolicyConfig::default(), aware()]
        .into_iter()
        .enumerate()
    {
        let config = EqcConfig::paper_qaoa()
            .with_epochs(4)
            .with_shots(128)
            .with_seed(seed + t as u64);
        fleet
            .admit(&problem, TenantConfig::new(config).policies(policies))
            .expect("admits");
    }
    let outcome = fleet.run().expect("runs");
    golden.fleet(&format!("shared_contention.seed{seed}"), &outcome);
}

/// A service under EDF whose tenants arrive while earlier ones still
/// run, one of them on a tight deadline, inline and on a 2-worker pool.
fn staggered_service(golden: &mut Golden, seed: u64) {
    let problem = QaoaProblem::maxcut_ring4();
    let serve = |builder: FleetBuilder| {
        let mut service = builder
            .devices(["belem", "manila", "bogota"])
            .device_seed(seed)
            .arbiter(EarliestDeadlineFirst)
            .service()
            .expect("builds");
        for (t, arrival_h) in [0.0, 1.0e-3, 2.0e-3].into_iter().enumerate() {
            let config = EqcConfig::paper_qaoa()
                .with_epochs(4)
                .with_shots(128)
                .with_seed(seed + t as u64);
            let tenant = TenantConfig::new(config).deadline([1.0e6, 4.0e-3][t % 2]);
            service
                .admit_at(&problem, tenant, arrival_h)
                .expect("admits");
        }
        service.close().expect("closes")
    };
    let inline = serve(FleetRuntime::builder());
    golden.service(&format!("edf_service_des.seed{seed}"), &inline);
    let pooled = serve(FleetRuntime::builder().pooled_workers(2));
    golden.service(&format!("edf_service_pooled.seed{seed}"), &pooled);
}

fn compute() -> Golden {
    let mut golden = Golden::default();
    for seed in SEEDS {
        sessions(&mut golden, seed);
        synthesized_fleet(&mut golden, seed);
        shared_tenants(&mut golden, seed);
        staggered_service(&mut golden, seed);
    }
    golden
}

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden.json")
}

/// The file: one flat JSON object, one `"key": "value"` per line, the
/// target first.
fn render(golden: &Golden) -> String {
    let mut out = String::from("{\n");
    let _ = write!(out, "  \"target\": \"{}\"", target());
    for (key, value) in &golden.values {
        let _ = write!(out, ",\n  \"{key}\": \"{value}\"");
    }
    out.push_str("\n}\n");
    out
}

/// Reads back what [`render`] wrote (keys and values hold no quotes or
/// escapes).
fn parse(text: &str) -> Vec<(String, String)> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            let (key, value) = line.split_once("\": \"")?;
            let key = key.strip_prefix('"')?;
            let value = value.strip_suffix('"')?;
            Some((key.to_string(), value.to_string()))
        })
        .collect()
}

#[test]
fn golden_outputs_have_not_moved() {
    let golden = compute();
    if std::env::var_os("EQC_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(path(), render(&golden)).expect("writes tests/golden.json");
        return;
    }
    let text = std::fs::read_to_string(path())
        .expect("tests/golden.json is missing: bless it with EQC_BLESS=1");
    let mut stored = parse(&text).into_iter();
    let (_, blessed_on) = stored
        .next()
        .filter(|(key, _)| key == "target")
        .expect("tests/golden.json starts with its target");
    let stored: Vec<_> = stored.collect();
    for (i, (key, value)) in golden.values.iter().enumerate() {
        let Some((stored_key, stored_value)) = stored.get(i) else {
            panic!("{key} is new: bless tests/golden.json with EQC_BLESS=1");
        };
        assert_eq!(
            key, stored_key,
            "the fixture list changed at {key}: bless tests/golden.json with EQC_BLESS=1"
        );
        assert_eq!(
            value,
            stored_value,
            "{key} moved (blessed on {blessed_on}, running on {})",
            target()
        );
    }
    assert_eq!(
        stored.len(),
        golden.values.len(),
        "tests/golden.json holds values no fixture computes any more"
    );
}
