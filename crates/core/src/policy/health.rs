//! Client participation policies: eviction and re-admission.
//!
//! "These volatile systems vary in spatial and temporal noise" (Section
//! II-B): a device whose calibration degrades mid-run — Casablanca's
//! Fig. 6 divergence is the canonical example — keeps injecting noisy
//! gradients under the seed master loop, because weighting can only
//! attenuate it, never bench it. A [`ClientHealth`] policy decides per
//! absorbed result whether the reporting client stays in the rotation,
//! and — via the master's per-client probes of *reported* calibration —
//! whether an evicted client has recalibrated well enough to rejoin.
//! The master reroutes an evicted client's share of the cyclic schedule
//! to the remaining fleet simply by never offering it as a scheduling
//! candidate until re-admission.

use crate::weighting as eq2;
use qdevice::{QpuBackend, SimTime};
use std::fmt;
use transpile::CircuitMetrics;

/// Snapshot handed to a [`ClientHealth`] decision.
///
/// `p_correct` and `baseline_p` are measured in the *same* units for
/// both [`ClientHealth::on_result`] and [`ClientHealth::readmit`]: the
/// all-template mean probe of the client's reported calibration (see
/// `HealthProbe`), so relative thresholds compare like with like even
/// on problems whose templates score very differently. (Only a bare
/// master with no probes — unit tests, hand-built shims — falls back
/// to per-result scores.)
#[derive(Clone, Debug)]
pub struct HealthContext {
    /// The client under consideration.
    pub client: usize,
    /// The client's current all-template Eq. 2 score from *reported*
    /// calibration, probed at the decision's virtual time.
    pub p_correct: f64,
    /// The best such score this client has ever shown (its healthy
    /// baseline; `0` until it first reports).
    pub baseline_p: f64,
    /// Current virtual time, hours.
    pub now_hours: f64,
    /// Clients currently active (eviction is refused when this is 1:
    /// the fleet never talks itself down to zero devices).
    pub active_clients: usize,
    /// Fleet width.
    pub n_clients: usize,
}

/// Verdict on the reporting client after one absorbed result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthVerdict {
    /// Keep the client in the rotation.
    Healthy,
    /// Bench the client: no further tasks until re-admission.
    Evict,
}

/// Decides which clients participate in the ensemble.
///
/// Implementations must be deterministic pure functions of the context
/// (see [`Scheduler`](crate::policy::Scheduler) for why).
pub trait ClientHealth: fmt::Debug + Send + Sync {
    /// Policy name as reported in [`PolicyTelemetry`](crate::report::PolicyTelemetry).
    fn name(&self) -> &'static str;

    /// Whether this policy can ever evict. When `false` (only
    /// [`AlwaysHealthy`] ships that way) the master skips health
    /// bookkeeping — baselines, per-absorb probes, backend probe
    /// clones — entirely, so the default stack pays nothing.
    fn monitors(&self) -> bool {
        true
    }

    /// Verdict on the reporting client after its result is absorbed.
    fn on_result(&self, ctx: &HealthContext) -> HealthVerdict;

    /// Whether an evicted client may rejoin, given a fresh probe of its
    /// reported calibration. Called once per evicted client per
    /// absorbed result.
    fn readmit(&self, ctx: &HealthContext) -> bool;
}

/// The seed behavior: every client always participates.
#[derive(Clone, Copy, Debug, Default)]
pub struct AlwaysHealthy;

impl ClientHealth for AlwaysHealthy {
    fn name(&self) -> &'static str {
        "always-healthy"
    }

    fn monitors(&self) -> bool {
        false
    }

    fn on_result(&self, _ctx: &HealthContext) -> HealthVerdict {
        HealthVerdict::Healthy
    }

    fn readmit(&self, _ctx: &HealthContext) -> bool {
        true
    }
}

/// Drift-aware eviction: bench a client whose reported `P_correct`
/// falls below `evict_below` times its own healthy baseline, and
/// re-admit it once a probe of its reported calibration recovers to
/// `readmit_above` times the baseline (i.e. after a recalibration cycle
/// restores the device). Thresholds are *relative* to each client's
/// best observed score, so a permanently mediocre device is not
/// confused with a good device mid-degradation.
#[derive(Clone, Copy, Debug)]
pub struct DriftEviction {
    evict_below: f64,
    readmit_above: f64,
}

impl DriftEviction {
    /// Creates the policy.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] unless
    /// `0 < evict_below <= readmit_above` and both are finite — a
    /// re-admission bar below the eviction bar would flap a client in
    /// and out on every probe.
    ///
    /// [`EqcError::InvalidConfig`]: crate::EqcError
    pub fn new(evict_below: f64, readmit_above: f64) -> Result<Self, crate::error::EqcError> {
        if !(evict_below.is_finite() && evict_below > 0.0) {
            return Err(crate::error::EqcError::InvalidConfig(format!(
                "eviction threshold must be positive and finite, got {evict_below}"
            )));
        }
        if !(readmit_above.is_finite() && readmit_above >= evict_below) {
            return Err(crate::error::EqcError::InvalidConfig(format!(
                "re-admission threshold must be finite and >= the eviction \
                 threshold, got {readmit_above} < {evict_below}"
            )));
        }
        Ok(DriftEviction {
            evict_below,
            readmit_above,
        })
    }

    /// The fraction of baseline below which a client is evicted.
    pub fn evict_below(&self) -> f64 {
        self.evict_below
    }

    /// The fraction of baseline a probe must recover to for
    /// re-admission.
    pub fn readmit_above(&self) -> f64 {
        self.readmit_above
    }
}

impl Default for DriftEviction {
    /// Evict below 60% of baseline, re-admit at 85% — wide enough apart
    /// that per-cycle calibration jitter does not flap a healthy device.
    fn default() -> Self {
        DriftEviction {
            evict_below: 0.6,
            readmit_above: 0.85,
        }
    }
}

impl ClientHealth for DriftEviction {
    fn name(&self) -> &'static str {
        "drift-eviction"
    }

    fn on_result(&self, ctx: &HealthContext) -> HealthVerdict {
        if ctx.active_clients > 1
            && ctx.baseline_p > 0.0
            && ctx.p_correct < self.evict_below * ctx.baseline_p
        {
            HealthVerdict::Evict
        } else {
            HealthVerdict::Healthy
        }
    }

    fn readmit(&self, ctx: &HealthContext) -> bool {
        ctx.baseline_p > 0.0 && ctx.p_correct >= self.readmit_above * ctx.baseline_p
    }
}

/// The master's window onto one client's device for health probing and
/// queue estimation: a clone of the backend (whose reported calibration
/// is a pure function of virtual time) plus the client's transpiled
/// circuit metrics (the Eq. 2 inputs). Built once per session, so the
/// master can score an *evicted* client — whose `ClientNode` may be
/// checked out by a worker thread — without touching it.
#[derive(Clone, Debug)]
pub(crate) struct HealthProbe {
    backend: QpuBackend,
    metrics: Vec<CircuitMetrics>,
}

impl HealthProbe {
    pub(crate) fn new(backend: QpuBackend, metrics: Vec<CircuitMetrics>) -> Self {
        HealthProbe { backend, metrics }
    }

    /// The device's Eq. 2 score over all templates from the calibration
    /// it *reports* at `t` — the same figure Algorithm 2's clients
    /// compute at circuit induction time.
    pub(crate) fn p_correct_at(&self, t: SimTime) -> f64 {
        let cal = self.backend.reported_calibration(t);
        let mean = self
            .metrics
            .iter()
            .map(|m| eq2::p_correct(m, &cal))
            .sum::<f64>()
            / self.metrics.len().max(1) as f64;
        eq2::bound_p_correct(mean)
    }

    /// Estimated queue wait (seconds) for a job submitted at `t`.
    pub(crate) fn queue_wait_s(&self, t: SimTime) -> f64 {
        self.backend.queue().wait_s(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(p: f64, baseline: f64, active: usize) -> HealthContext {
        HealthContext {
            client: 0,
            p_correct: p,
            baseline_p: baseline,
            now_hours: 1.0,
            active_clients: active,
            n_clients: 3,
        }
    }

    #[test]
    fn always_healthy_never_evicts() {
        assert_eq!(
            AlwaysHealthy.on_result(&ctx(0.0, 0.9, 3)),
            HealthVerdict::Healthy
        );
        assert!(AlwaysHealthy.readmit(&ctx(0.0, 0.9, 3)));
    }

    #[test]
    fn drift_eviction_triggers_relative_to_baseline() {
        let policy = DriftEviction::new(0.6, 0.85).unwrap();
        // Above threshold: healthy.
        assert_eq!(policy.on_result(&ctx(0.8, 0.9, 3)), HealthVerdict::Healthy);
        // Degraded past 60% of baseline: evicted.
        assert_eq!(policy.on_result(&ctx(0.5, 0.9, 3)), HealthVerdict::Evict);
        // A mediocre device near its own baseline is not evicted.
        assert_eq!(policy.on_result(&ctx(0.3, 0.32, 3)), HealthVerdict::Healthy);
        // Never evict the last active client.
        assert_eq!(policy.on_result(&ctx(0.1, 0.9, 1)), HealthVerdict::Healthy);
        // No baseline yet: nothing to judge against.
        assert_eq!(policy.on_result(&ctx(0.1, 0.0, 3)), HealthVerdict::Healthy);
    }

    #[test]
    fn drift_eviction_readmits_on_recovery() {
        let policy = DriftEviction::default();
        assert!(!policy.readmit(&ctx(0.5, 0.9, 2)));
        assert!(policy.readmit(&ctx(0.87, 0.9, 2)));
    }

    #[test]
    fn drift_eviction_rejects_flapping_thresholds() {
        assert!(DriftEviction::new(0.0, 0.9).is_err());
        assert!(DriftEviction::new(-0.2, 0.9).is_err());
        assert!(DriftEviction::new(0.9, 0.6).is_err(), "readmit below evict");
        assert!(DriftEviction::new(f64::NAN, 0.9).is_err());
        assert!(DriftEviction::new(0.6, f64::INFINITY).is_err());
    }
}
