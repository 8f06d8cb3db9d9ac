//! Training reports: per-epoch history, timing, device statistics.
//!
//! Reports carry everything the figure harnesses print: energy-vs-epoch
//! curves (Figs. 6, 9, 11, 12), epochs/hour (Fig. 6-right, Fig. 1-middle),
//! final error vs the exact reference (Fig. 1-left) and weight traces
//! (Fig. 5). Serialization is CSV/markdown via own writers — no JSON
//! serializer exists offline.

use std::fmt;

/// One recorded epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpochRecord {
    /// Epoch index (1-based: recorded after the epoch completes).
    pub epoch: usize,
    /// Virtual hours since training start.
    pub virtual_hours: f64,
    /// Exact (ideal-simulator) loss of the parameters at this epoch.
    pub ideal_loss: f64,
}

/// Per-client statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct ClientStats {
    /// Device name.
    pub device: String,
    /// Gradient tasks completed.
    pub tasks_completed: u64,
    /// Circuits executed.
    pub circuits_run: u64,
    /// Mean Eq. 2 score across the run.
    pub mean_p_correct: f64,
    /// Mean applied weight across the run (1.0 when unweighted).
    pub mean_weight: f64,
    /// Fraction of the run's virtual timeline the device spent executing
    /// shots (the paper's utilization motivation, Section I).
    pub utilization: f64,
}

/// Substrate-side counters of one [`PooledExecutor`](crate::PooledExecutor)
/// run.
///
/// Telemetry lives beside the [`TrainingReport`] rather than inside it:
/// the report describes the *training*, which the deterministic pool
/// reproduces byte-for-byte against the discrete-event executor, while
/// these counters describe the *machinery* (and legitimately vary with
/// core count and scheduling). Read them with
/// [`PooledExecutor::telemetry`](crate::PooledExecutor::telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolTelemetry {
    /// OS worker threads the pool spawned (bounded by the configured or
    /// detected parallelism — never one per client).
    pub workers_spawned: usize,
    /// High-water mark of tasks queued across every shard at once.
    pub queue_depth_max: usize,
    /// Tasks executed by a worker other than their home shard's owner.
    pub tasks_stolen: u64,
}

impl fmt::Display for PoolTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} workers, queue depth <= {}, {} stolen",
            self.workers_spawned, self.queue_depth_max, self.tasks_stolen
        )
    }
}

/// Engine-side counters of one session's clients.
///
/// Like [`PoolTelemetry`], engine telemetry lives *beside* the
/// [`TrainingReport`]: the report is byte-identical at any
/// [`SimParallelism`](crate::SimParallelism) setting, while these
/// counters describe the simulation machinery. Read with
/// [`EnsembleSession::engine_telemetry`](crate::EnsembleSession::engine_telemetry).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTelemetry {
    /// Retired with pair folding (a pair is a fork group of two):
    /// always 0. Kept only because the frozen benchmark reads it.
    pub folded_pairs: u64,
    /// Jobs executed across all client backends.
    pub jobs: u64,
    /// Retired with the prefix cache (it never hit on a training
    /// run): always 0. Kept only because the frozen benchmark reads it.
    pub prefix_hits: u64,
    /// Density runs evolved through the backends' group-fork walk,
    /// summed over clients (0 on the legacy path).
    pub batched_jobs: u64,
    /// Pool workers the session's client tasks run on under the
    /// discrete-event executor: the resolved worker count of its
    /// [`SimParallelism`](crate::SimParallelism) setting (1 inline).
    /// Named for the job pipeline it once counted; kept because the
    /// frozen benchmark reads it.
    pub pipeline_lanes: usize,
}

impl fmt::Display for EngineTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs, {} pipeline lanes, {} batched runs",
            self.jobs, self.pipeline_lanes, self.batched_jobs
        )
    }
}

/// Per-tenant counters of one multi-tenant
/// [`FleetRuntime`](crate::fleet::FleetRuntime) run.
///
/// Like [`PoolTelemetry`], fleet telemetry lives *beside* the
/// [`TrainingReport`]s rather than inside them: each tenant's report is
/// byte-identical to what the same session would produce standalone
/// (under the [`Unshared`](crate::policy::arbiter::Unshared) arbiter),
/// while these counters describe the multiplexing machinery —
/// throughput, capacity waits and how the device pool was shared.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantTelemetry {
    /// Tenant index within the fleet run.
    pub tenant: usize,
    /// The tenant's label (defaults to `tenant<i>`).
    pub label: String,
    /// Configured fair-share weight.
    pub weight: f64,
    /// Configured priority.
    pub priority: i64,
    /// Results the tenant's master absorbed.
    pub results_absorbed: u64,
    /// Epochs the tenant completed.
    pub epochs: usize,
    /// The tenant's own virtual makespan, hours.
    pub virtual_hours: f64,
    /// Training speed in epochs per virtual hour (the per-tenant
    /// throughput the acceptance telemetry reads).
    pub epochs_per_hour: f64,
    /// Total capacity-wait accumulated by deferred dispatches, measured
    /// on the tenant's own virtual clock (hours). Zero under
    /// [`Unshared`](crate::policy::arbiter::Unshared).
    pub wait_virtual_hours: f64,
    /// Total grant rounds deferred dispatches waited for capacity —
    /// the arbiter-level wait measure (meaningful even while the
    /// tenant's virtual clock stands still, e.g. a priority-starved
    /// tenant that never got to prime).
    pub wait_rounds: u64,
    /// Grant rounds in which the tenant had pending work but nothing in
    /// flight and received no capacity — the starvation signal
    /// [`PriorityArbiter`](crate::policy::arbiter::PriorityArbiter)
    /// runs make visible.
    pub starved_rounds: u64,
    /// Tasks dispatched per fleet device (indexed by device/client id):
    /// the client-share histogram of how this tenant used the pool.
    pub client_share: Vec<u64>,
    /// Total device-queue wait this tenant's jobs accrued, hours
    /// (admission-to-start, summed over every job on every device). On
    /// the shared substrate this includes cross-tenant contention; on
    /// byte-isolated substrates it is the tenant's own base-load wait.
    pub queue_wait_hours: f64,
}

/// Per-device occupancy histogram of one fleet run on the shared
/// substrate: how much work landed on each physical device's queue
/// timeline, summed across every tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceOccupancy {
    /// Device display name.
    pub device: String,
    /// Jobs booked onto the device's shared ledger (all tenants).
    pub jobs: u64,
    /// Execution hours booked onto the ledger (all tenants).
    pub booked_hours: f64,
    /// Queue-wait hours jobs spent between admission and start on this
    /// device (all tenants).
    pub queued_hours: f64,
}

/// Fleet-level telemetry of one [`FleetRuntime`](crate::fleet::FleetRuntime)
/// run: which arbiter multiplexed the pool and what each tenant got.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetTelemetry {
    /// Arbiter policy name.
    pub arbiter: String,
    /// Devices in the shared pool (= concurrent-task slots).
    pub devices: usize,
    /// Grant rounds the fleet ran.
    pub grant_rounds: u64,
    /// Per-tenant counters, indexed by tenant id.
    pub tenants: Vec<TenantTelemetry>,
    /// Per-device queue-occupancy histogram (shared substrate only;
    /// empty on byte-isolated substrates, where no cross-tenant queue
    /// timeline exists).
    pub occupancy: Vec<DeviceOccupancy>,
    /// Per-device copies the incremental occupancy view performed
    /// because a ledger's published version moved (shared substrate
    /// with queue-estimate schedulers only; 0 otherwise).
    pub snapshot_rebuilds: u64,
    /// Per-device copies the incremental occupancy view *skipped*
    /// because the ledger's version was unchanged — the allocation- and
    /// lock-free steady state of the snapshot path.
    pub snapshot_reuses: u64,
    /// Noise artifacts (reported calibrations, projections, models)
    /// built once fleet-wide in the cross-tenant shared noise cache.
    pub shared_noise_builds: u64,
    /// Shared-noise-cache lookups served from an artifact some clone
    /// (usually a co-tenant's) already built for the same noise epoch.
    pub shared_noise_hits: u64,
}

impl fmt::Display for FleetTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fleet[{} devices, {} arbiter]: {} tenants over {} grant rounds",
            self.devices,
            self.arbiter,
            self.tenants.len(),
            self.grant_rounds
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "  {}: {} results, {} epochs in {:.2} h ({:.2} epochs/h), \
                 waited {:.3} h / {} rounds, starved {} rounds",
                t.label,
                t.results_absorbed,
                t.epochs,
                t.virtual_hours,
                t.epochs_per_hour,
                t.wait_virtual_hours,
                t.wait_rounds,
                t.starved_rounds
            )?;
        }
        for d in &self.occupancy {
            writeln!(
                f,
                "  queue[{}]: {} jobs, {:.2} h booked, {:.3} h queued",
                d.device, d.jobs, d.booked_hours, d.queued_hours
            )?;
        }
        writeln!(
            f,
            "  hot path: snapshot_rebuilds={} snapshot_reuses={} \
             shared_noise_builds={} shared_noise_hits={}",
            self.snapshot_rebuilds,
            self.snapshot_reuses,
            self.shared_noise_builds,
            self.shared_noise_hits
        )?;
        Ok(())
    }
}

/// One tenant's lifecycle on the always-on
/// [`FleetService`](crate::fleet::service::FleetService): when it
/// arrived, when its last gather absorbed, and how it fared against its
/// SLO.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceTenantRecord {
    /// Tenant index in service admission order.
    pub tenant: usize,
    /// The tenant's label (defaults to `tenant<i>`).
    pub label: String,
    /// Arrival time on the fleet clock, virtual hours.
    pub arrival_h: f64,
    /// Retirement time on the fleet clock, virtual hours — the moment
    /// the tenant's last gather absorbed.
    pub retired_h: f64,
    /// Configured deadline budget (virtual hours from arrival), if any.
    pub deadline_h: Option<f64>,
    /// Whether the deadline was met (`None` when no SLO was set):
    /// makespan on the tenant's own clock within the budget.
    pub deadline_met: Option<bool>,
    /// Epochs the tenant completed before retiring.
    pub epochs: usize,
}

/// Service-level telemetry of one
/// [`FleetService`](crate::fleet::service::FleetService) lifetime:
/// admissions, retirements, SLO outcomes, idle time and sustained
/// throughput on the fleet clock.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceTelemetry {
    /// Arbiter policy name.
    pub arbiter: String,
    /// Devices in the shared pool (= concurrent-task slots).
    pub devices: usize,
    /// Tenants admitted over the service lifetime.
    pub admissions: usize,
    /// Tenants retired (every admission retires by `close()`).
    pub retirements: usize,
    /// Tenants whose configured deadline was met.
    pub deadline_hits: usize,
    /// Tenants whose configured deadline was missed.
    pub deadline_misses: usize,
    /// Virtual hours the fleet sat empty between a retirement and the
    /// next arrival.
    pub idle_virtual_hours: f64,
    /// Fleet-clock span from the first arrival to the last retirement,
    /// virtual hours.
    pub span_virtual_hours: f64,
    /// Epochs completed across all tenants per fleet-clock virtual
    /// hour — the service's sustained throughput.
    pub sustained_epochs_per_hour: f64,
    /// Per-tenant lifecycle records, indexed by admission order.
    pub tenants: Vec<ServiceTenantRecord>,
}

impl fmt::Display for ServiceTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "service[{} devices, {} arbiter]: {} admitted, {} retired; \
             {} deadline hits / {} misses; idle {:.2} h of {:.2} h span; \
             sustained {:.2} epochs/h",
            self.devices,
            self.arbiter,
            self.admissions,
            self.retirements,
            self.deadline_hits,
            self.deadline_misses,
            self.idle_virtual_hours,
            self.span_virtual_hours,
            self.sustained_epochs_per_hour
        )?;
        for t in &self.tenants {
            write!(
                f,
                "  {}: arrived {:.2} h, retired {:.2} h, {} epochs",
                t.label, t.arrival_h, t.retired_h, t.epochs
            )?;
            match (t.deadline_h, t.deadline_met) {
                (Some(d), Some(true)) => writeln!(f, ", met {d:.2} h deadline")?,
                (Some(d), _) => writeln!(f, ", missed {d:.2} h deadline")?,
                _ => writeln!(f)?,
            }
        }
        Ok(())
    }
}

/// What happened to one client's ensemble membership, as recorded in
/// [`PolicyTelemetry::eviction_log`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipChange {
    /// The health policy benched the client.
    Evicted,
    /// A recalibration probe cleared the client to rejoin.
    Readmitted,
}

/// One eviction or re-admission event on the virtual timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct EvictionEvent {
    /// The affected client.
    pub client: usize,
    /// Virtual hours at the decision.
    pub virtual_hours: f64,
    /// Whether the client left or rejoined the rotation.
    pub change: MembershipChange,
}

/// Where one client's applied weights came from: which weighting policy
/// produced them and their observed range. One entry per client.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightProvenance {
    /// Client id.
    pub client: usize,
    /// Name of the [`Weighting`](crate::policy::Weighting) policy that
    /// produced every weight this client's gradients were scaled by.
    pub policy: String,
    /// Results absorbed (weights applied) for this client.
    pub samples: u64,
    /// Smallest applied weight (1.0 when no result was absorbed).
    pub min_weight: f64,
    /// Largest applied weight (1.0 when no result was absorbed).
    pub max_weight: f64,
}

/// Per-policy telemetry of one training run: which policy stack ran,
/// what the health layer did, and where each client's weights came
/// from. Produced by the master, so it is part of the byte-equivalence
/// surface the deterministic executors must reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyTelemetry {
    /// Scheduler policy name.
    pub scheduler: String,
    /// Weighting policy name.
    pub weighting: String,
    /// Health policy name.
    pub health: String,
    /// Total evictions across the run.
    pub evictions: u64,
    /// Total re-admissions across the run.
    pub readmissions: u64,
    /// Every membership change in decision order.
    pub eviction_log: Vec<EvictionEvent>,
    /// Per-client weight provenance.
    pub weight_provenance: Vec<WeightProvenance>,
}

/// One weight-trace sample: the ensemble's weights at a virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct WeightSample {
    /// Virtual hours since start.
    pub virtual_hours: f64,
    /// Weight per client, indexed by client id.
    pub weights: Vec<f64>,
}

/// The full record of a training run.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainingReport {
    /// Problem name.
    pub problem: String,
    /// Trainer label (`eqc`, `single:<device>`, `ideal`, ...).
    pub trainer: String,
    /// Epochs completed.
    pub epochs: usize,
    /// Per-epoch history.
    pub history: Vec<EpochRecord>,
    /// Final parameters.
    pub final_params: Vec<f64>,
    /// Final ideal loss.
    pub final_loss: f64,
    /// Exact optimum for error normalization.
    pub reference_minimum: f64,
    /// Total virtual hours of the run.
    pub total_hours: f64,
    /// Per-client statistics (one entry for single-device runs).
    pub clients: Vec<ClientStats>,
    /// Weight trace over time (empty when unweighted).
    pub weight_trace: Vec<WeightSample>,
    /// Parameter updates applied (gathers completed).
    pub updates_applied: u64,
    /// The (cycle, parameter) key of every applied update, in
    /// application order — the executor-equivalence tests compare these
    /// across substrates.
    pub update_log: Vec<(usize, usize)>,
    /// Maximum observed update staleness (ASGD delay `D` of Eq. 12-14).
    pub max_staleness: usize,
    /// Mean observed update staleness.
    pub mean_staleness: f64,
    /// The policy stack that drove the run and what it did.
    pub policy: PolicyTelemetry,
}

impl TrainingReport {
    /// Relative error of the final loss vs the reference minimum, in
    /// percent: `|final - ref| / |ref| * 100` (how Fig. 1/9 report error).
    pub fn error_vs_reference_pct(&self) -> f64 {
        if self.reference_minimum == 0.0 {
            return (self.final_loss.abs()) * 100.0;
        }
        (self.final_loss - self.reference_minimum).abs() / self.reference_minimum.abs() * 100.0
    }

    /// Mean training speed in epochs per virtual hour.
    pub fn epochs_per_hour(&self) -> f64 {
        if self.total_hours <= 0.0 {
            return f64::INFINITY;
        }
        self.epochs as f64 / self.total_hours
    }

    /// First epoch whose ideal loss stays within `tol` of the best loss
    /// seen over the rest of the run — a simple convergence-epoch
    /// estimator for the "converges at epoch N" comparisons.
    pub fn convergence_epoch(&self, tol: f64) -> Option<usize> {
        if self.history.is_empty() {
            return None;
        }
        let best = self
            .history
            .iter()
            .map(|r| r.ideal_loss)
            .fold(f64::INFINITY, f64::min);
        self.history
            .iter()
            .find(|r| r.ideal_loss <= best + tol)
            .map(|r| r.epoch)
    }

    /// Mean ideal loss over the final `n` epochs (converged-energy
    /// estimate, robust to per-epoch shot noise).
    pub fn converged_loss(&self, n: usize) -> f64 {
        if self.history.is_empty() {
            return self.final_loss;
        }
        let tail = &self.history[self.history.len().saturating_sub(n)..];
        tail.iter().map(|r| r.ideal_loss).sum::<f64>() / tail.len() as f64
    }

    /// Relative error of [`TrainingReport::converged_loss`] vs the
    /// reference, percent.
    pub fn converged_error_pct(&self, n: usize) -> f64 {
        if self.reference_minimum == 0.0 {
            return self.converged_loss(n).abs() * 100.0;
        }
        (self.converged_loss(n) - self.reference_minimum).abs() / self.reference_minimum.abs()
            * 100.0
    }

    /// Renders the epoch history as CSV (`epoch,hours,ideal_loss`).
    pub fn history_csv(&self) -> String {
        let mut out = String::from("epoch,virtual_hours,ideal_loss\n");
        for r in &self.history {
            out.push_str(&format!(
                "{},{:.6},{:.8}\n",
                r.epoch, r.virtual_hours, r.ideal_loss
            ));
        }
        out
    }

    /// Renders a one-line markdown summary row:
    /// `| trainer | epochs | eph | final | err% |`.
    pub fn summary_row(&self) -> String {
        format!(
            "| {} | {} | {:.3} | {:.4} | {:.3}% |",
            self.trainer,
            self.epochs,
            self.epochs_per_hour(),
            self.final_loss,
            self.error_vs_reference_pct()
        )
    }
}

impl fmt::Display for TrainingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} on {}: {} epochs in {:.2} h ({:.2} epochs/h)",
            self.trainer,
            self.problem,
            self.epochs,
            self.total_hours,
            self.epochs_per_hour()
        )?;
        writeln!(
            f,
            "  final loss {:.5} (reference {:.5}, error {:.3}%)",
            self.final_loss,
            self.reference_minimum,
            self.error_vs_reference_pct()
        )?;
        for c in &self.clients {
            writeln!(
                f,
                "  {}: {} tasks, {} circuits, mean P_correct {:.4}, mean weight {:.3}, util {:.1}%",
                c.device,
                c.tasks_completed,
                c.circuits_run,
                c.mean_p_correct,
                c.mean_weight,
                c.utilization * 100.0
            )?;
        }
        if self.policy.evictions > 0 || self.policy.readmissions > 0 {
            writeln!(
                f,
                "  policy {}/{}/{}: {} evictions, {} readmissions",
                self.policy.scheduler,
                self.policy.weighting,
                self.policy.health,
                self.policy.evictions,
                self.policy.readmissions
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> TrainingReport {
        TrainingReport {
            problem: "test".into(),
            trainer: "eqc".into(),
            epochs: 4,
            history: vec![
                EpochRecord {
                    epoch: 1,
                    virtual_hours: 0.5,
                    ideal_loss: -1.0,
                },
                EpochRecord {
                    epoch: 2,
                    virtual_hours: 1.0,
                    ideal_loss: -3.0,
                },
                EpochRecord {
                    epoch: 3,
                    virtual_hours: 1.5,
                    ideal_loss: -3.9,
                },
                EpochRecord {
                    epoch: 4,
                    virtual_hours: 2.0,
                    ideal_loss: -3.95,
                },
            ],
            final_params: vec![0.0; 4],
            final_loss: -3.95,
            reference_minimum: -4.0,
            total_hours: 2.0,
            clients: vec![],
            weight_trace: vec![],
            updates_applied: 16,
            update_log: (0..4).flat_map(|c| (0..4).map(move |p| (c, p))).collect(),
            max_staleness: 3,
            mean_staleness: 1.2,
            policy: PolicyTelemetry {
                scheduler: "cyclic".into(),
                weighting: "fidelity".into(),
                health: "always-healthy".into(),
                evictions: 0,
                readmissions: 0,
                eviction_log: vec![],
                weight_provenance: vec![],
            },
        }
    }

    #[test]
    fn error_and_speed() {
        let r = sample_report();
        assert!((r.error_vs_reference_pct() - 1.25).abs() < 1e-9);
        assert!((r.epochs_per_hour() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn convergence_epoch_detection() {
        let r = sample_report();
        assert_eq!(r.convergence_epoch(0.1), Some(3));
        assert_eq!(r.convergence_epoch(5.0), Some(1));
    }

    #[test]
    fn converged_loss_tail_mean() {
        let r = sample_report();
        assert!((r.converged_loss(2) + 3.925).abs() < 1e-12);
        assert!((r.converged_error_pct(2) - 1.875).abs() < 1e-9);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_report().history_csv();
        assert!(csv.starts_with("epoch,virtual_hours,ideal_loss\n"));
        assert_eq!(csv.lines().count(), 5);
    }

    #[test]
    fn display_mentions_key_numbers() {
        let s = sample_report().to_string();
        assert!(s.contains("epochs/h"));
        assert!(s.contains("error 1.250%"));
    }

    #[test]
    fn service_telemetry_display_names_slo_outcomes() {
        let t = ServiceTelemetry {
            arbiter: "edf".into(),
            devices: 4,
            admissions: 2,
            retirements: 2,
            deadline_hits: 1,
            deadline_misses: 1,
            idle_virtual_hours: 0.5,
            span_virtual_hours: 12.0,
            sustained_epochs_per_hour: 0.66,
            tenants: vec![
                ServiceTenantRecord {
                    tenant: 0,
                    label: "met".into(),
                    arrival_h: 0.0,
                    retired_h: 4.0,
                    deadline_h: Some(5.0),
                    deadline_met: Some(true),
                    epochs: 4,
                },
                ServiceTenantRecord {
                    tenant: 1,
                    label: "blown".into(),
                    arrival_h: 1.0,
                    retired_h: 12.0,
                    deadline_h: Some(2.0),
                    deadline_met: Some(false),
                    epochs: 4,
                },
            ],
        };
        let s = t.to_string();
        assert!(s.contains("1 deadline hits / 1 misses"));
        assert!(s.contains("met 5.00 h deadline"));
        assert!(s.contains("missed 2.00 h deadline"));
        assert!(s.contains("idle 0.50 h"));
    }
}
