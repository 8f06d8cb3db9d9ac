//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! is generated from these tables (`benchmark manifest`), and a unit
//! test keeps the committed file equal to them.

use crate::json::Value;

/// Seconds one driver run measures (`BENCHMARK.json: run_seconds`).
pub const RUN_SECONDS: u64 = 12;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a metric is read on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Wall clock / memory of the simulating host: noisy, compared
    /// within `bound`.
    Host,
    /// The simulated (virtual) clock or the simulated result:
    /// deterministic per seed, compared exactly by `compare`.
    Simulated,
}

#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
    pub meaning: &'static str,
}

#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

#[derive(Clone, Copy, Debug)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "vqe4_paper",
        why: "The paper's Fig. 6 user: 10 catalog devices, 100 epochs x 8192 shots under DES; small states, heavy sampling, one recompile per task under drift.",
    },
    WorkloadDef {
        name: "vqe7_kernel",
        why: "7-qubit TFIM on 4 catalog devices through the batched pipeline: qsim evolution is nearly all the work, so kernel changes show and orchestration changes must not.",
    },
    WorkloadDef {
        name: "fleet256_wide",
        why: "Heisenberg-4q on 256 synthesized devices under DES: low shots, so width (client build, priming, master loop) is what is left.",
    },
    WorkloadDef {
        name: "fleet256_pooled",
        why: "The same 256-device session under the deterministic PooledExecutor: the same core layer used through the worker pool, so a gain for one drive that costs the other shows.",
    },
    WorkloadDef {
        name: "tenants32_orch",
        why: "32 H2 tenants x 64 shared-queue devices under Poisson load: kernels are nearly free, so arbiter rounds, ledger bookings, snapshots and absorb dominate.",
    },
    WorkloadDef {
        name: "service_stream",
        why: "64 QAOA tenants streamed into a 16-device EDF service on seeded arrival times: admission, per-tenant retirement and cold compiles per (tenant, device) pair.",
    },
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: Clock,
    meaning: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        clock,
        meaning,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    e2e(
        "wall_s",
        "s",
        Better::Lower,
        0.25,
        Clock::Host,
        "the timed call on state built in set-up: Executor::run / FleetRuntime::run / FleetService::close",
    ),
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        Clock::Host,
        "build devices, ensemble or fleet, session() or every admission, arrival generation",
    ),
    e2e(
        "circuits_per_s",
        "1/s",
        Better::Higher,
        0.25,
        Clock::Host,
        "circuits simulated (from the reports) per second of wall_s",
    ),
    e2e(
        "peak_rss_mb",
        "MB",
        Better::Lower,
        0.10,
        Clock::Host,
        "VmHWM of the workload's process",
    ),
    e2e(
        "epochs_per_virtual_hour",
        "1/h",
        Better::Higher,
        0.20,
        Clock::Simulated,
        "the paper's throughput on the simulated clock (sum over tenants / fleet span; sustained rate for the service)",
    ),
    e2e(
        "loss_gap",
        "loss",
        Better::Lower,
        0.25,
        Clock::Simulated,
        "ideal loss above the reference minimum, mean over every epoch and tenant (area under the convergence curve)",
    ),
    e2e(
        "turnaround_virtual_h_p50",
        "h",
        Better::Lower,
        0.25,
        Clock::Simulated,
        "median over tenants of virtual hours from arrival to retirement (the makespan for one tenant)",
    ),
    e2e(
        "turnaround_virtual_h_p80",
        "h",
        Better::Lower,
        0.25,
        Clock::Simulated,
        "80th percentile of the same: the highest with ten of 64 tenants beyond it",
    ),
    e2e(
        "slo_hit_share",
        "share",
        Better::Higher,
        0.10,
        Clock::Simulated,
        "tenants that met their deadline / tenants with one (1 where no tenant has one)",
    ),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

pub const PER_LAYER: [PerLayer; 64] = [
    layer("core.session_s", "s", Lower),
    layer("core.clients", "count", Lower),
    layer("core.pick_s", "s", Lower),
    layer("core.picks", "count", Lower),
    layer("core.assign_s", "s", Lower),
    layer("core.assigns", "count", Lower),
    layer("core.client_task_s", "s", Lower),
    layer("core.client_tasks", "count", Lower),
    layer("core.absorb_s", "s", Lower),
    layer("core.absorbs", "count", Lower),
    layer("core.finish_s", "s", Lower),
    layer("core.pool.workers", "count", Higher),
    layer("core.pool.tasks_stolen", "count", Lower),
    layer("core.pool.queue_depth_max", "count", Lower),
    layer("core.pool.speedup", "ratio", Higher),
    layer("core.pool.efficiency", "ratio", Higher),
    layer("core.fleet.admit_s", "s", Lower),
    layer("core.fleet.run_s", "s", Lower),
    layer("core.service.admit_s", "s", Lower),
    layer("core.service.close_s", "s", Lower),
    layer("core.fleet.grant_rounds", "count", Lower),
    layer("core.fleet.snapshot_rebuilds", "count", Lower),
    layer("core.fleet.snapshot_reuses", "count", Higher),
    layer("core.fleet.results_absorbed", "count", Lower),
    layer("core.fleet.clients_activated", "count", Lower),
    layer("core.fleet.queue_wait_virtual_h", "h", Lower),
    layer("core.fleet.unattributed_s", "s", Lower),
    layer("policy.scheduler.pick_us", "us", Lower),
    layer("policy.scheduler.picks", "count", Lower),
    layer("policy.arbiter.allocate_us", "us", Lower),
    layer("transpile.transpile_us", "us", Lower),
    layer("transpile.calls", "count", Lower),
    layer("qdevice.calibration_us", "us", Lower),
    layer("qdevice.noise_build_us", "us", Lower),
    layer("qdevice.noise_builds", "count", Lower),
    layer("qdevice.shared_noise.builds", "count", Lower),
    layer("qdevice.shared_noise.hits", "count", Higher),
    layer("qdevice.compile_us", "us", Lower),
    layer("qdevice.compiles", "count", Lower),
    layer("qdevice.compile_cache_hits", "count", Higher),
    layer("qdevice.compile_hit_ratio", "ratio", Higher),
    layer("qdevice.bind_us", "us", Lower),
    layer("qdevice.execute_us", "us", Lower),
    layer("qdevice.execute_overhead_share", "share", Lower),
    layer("qdevice.queue.book_us", "us", Lower),
    layer("qdevice.queue.read_us", "us", Lower),
    layer("qdevice.queue.jobs", "count", Lower),
    layer("qsim.evolve_us", "us", Lower),
    layer("qsim.tape_ops", "count", Lower),
    layer("qsim.evolve_ns_per_op", "ns", Lower),
    layer("qsim.state_bytes", "B", Lower),
    layer("qsim.sample_us", "us", Lower),
    layer("qsim.sample_ns_per_shot", "ns", Lower),
    layer("qsim.pipeline.lanes", "count", Higher),
    layer("qsim.pipeline.jobs", "count", Lower),
    layer("qsim.prefix.hits", "count", Higher),
    layer("qsim.folded_pairs", "count", Higher),
    layer("qsim.pipeline.speedup", "ratio", Higher),
    layer("vqa.slice_loss_us", "us", Lower),
    layer("vqa.ideal_loss_us", "us", Lower),
    layer("vqa.tasks", "count", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("trace.attributed_share", "share", Higher),
    layer("trace.spans", "count", Lower),
];

/// The end-to-end definition of `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn benchmark_json() -> String {
    let strs = |items: &[&str]| Value::Arr(items.iter().map(|s| Value::str(*s)).collect());
    Value::obj([
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--bin",
                "benchmark",
                "--",
            ]),
        ),
        ("paths", strs(&["perfbench"])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .encode_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for w in &WORKLOADS {
            assert!(
                crate::workloads::Workload::build(w.name, 11, true, 1).is_some(),
                "{} is buildable",
                w.name
            );
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in &END_TO_END {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(
                unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
