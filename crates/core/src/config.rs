//! Training configuration.

use crate::error::EqcError;
use crate::policy::{AlwaysHealthy, ClientHealth, Cyclic, FidelityWeighted, Scheduler, Weighting};
use crate::weighting::WeightBounds;
use std::sync::Arc;

/// Parallelism of a discrete-event session: whole client tasks on the
/// fleet drive's worker pool, or none.
///
/// Results are **byte-identical at any setting**: the pool absorbs
/// results in the discrete-event total order (see [`crate::pool`]), so
/// this is purely a wall-clock knob. Whole gradient tasks are the
/// paper's unit of parallelism across devices and the only one the
/// process has: the simulator below spawns no thread, because finer
/// units (one kernel pass, one task's forked suffixes) measured no
/// better on the paper's 4–7 qubit circuits.
///
/// The variant keeps the name `Pipeline { lanes }` from the lanes
/// design because the frozen benchmark names it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimParallelism {
    /// Everything on the calling thread (the default).
    #[default]
    Serial,
    /// Whole client tasks on a worker pool of `lanes` workers (never
    /// more than one per client). The
    /// [`DiscreteEventExecutor`](crate::DiscreteEventExecutor) honours
    /// it; `lanes: 1` spawns nothing and runs exactly what `Serial`
    /// runs. The [`PooledExecutor`](crate::PooledExecutor) keeps its own
    /// worker count, the [`SequentialExecutor`](crate::SequentialExecutor)
    /// stays inline, and a fleet service refuses `lanes > 1`: a fleet's
    /// parallelism is its substrate's.
    Pipeline {
        /// Pool workers to run client tasks on.
        lanes: usize,
    },
}

impl SimParallelism {
    /// Lanes of parallelism this setting resolves to (1 when serial).
    pub fn lanes(&self) -> usize {
        match *self {
            SimParallelism::Serial => 1,
            SimParallelism::Pipeline { lanes } => lanes.max(1),
        }
    }

    /// The pool a discrete-event session of `n_clients` clients runs
    /// on: `None` (inline) at one lane, else the resolved worker count.
    pub(crate) fn pool_workers(&self, n_clients: usize) -> Option<usize> {
        let lanes = self.lanes();
        (lanes > 1).then(|| {
            PoolConfig {
                workers: Some(lanes),
            }
            .resolved_workers(n_clients)
        })
    }
}

/// Configuration of an EQC (or baseline) training run.
///
/// Defaults follow the paper's evaluation: learning rate 0.1 (Section
/// V-B), 8192 shots, no gradient clipping.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EqcConfig {
    /// ASGD learning rate `alpha` (paper: 0.1).
    pub learning_rate: f64,
    /// Epochs to train; one epoch cycles every parameter once
    /// (Algorithm 1's `epsilon`).
    pub epochs: usize,
    /// Shots per circuit execution (paper: 8192).
    pub shots: usize,
    /// Weight band for the adaptive weighting system; `None` trains
    /// unweighted (`w = 1`).
    pub weight_bounds: Option<WeightBounds>,
    /// Seed for initial parameters and any sampling the trainer owns.
    pub seed: u64,
    /// Optional clip on each applied parameter update's magnitude.
    pub gradient_clip: Option<f64>,
    /// Optional cap on virtual training time; training stops once a
    /// completed task crosses it (the paper terminates single-machine
    /// experiments "beyond 2-weeks of running time", Fig. 6).
    pub max_virtual_hours: Option<f64>,
    /// Task-level parallelism of a discrete-event session (default
    /// serial; byte-identical results at any setting).
    pub sim_parallelism: SimParallelism,
}

impl EqcConfig {
    /// The paper's VQE setup: `alpha = 0.1`, 8192 shots, 250 epochs,
    /// unweighted.
    pub fn paper_vqe() -> Self {
        EqcConfig {
            learning_rate: 0.1,
            epochs: 250,
            shots: 8192,
            weight_bounds: None,
            seed: 7,
            gradient_clip: None,
            max_virtual_hours: None,
            sim_parallelism: SimParallelism::Serial,
        }
    }

    /// The paper's QAOA setup: 50 iterations over 2 parameters.
    pub fn paper_qaoa() -> Self {
        EqcConfig {
            learning_rate: 0.1,
            epochs: 50,
            shots: 8192,
            weight_bounds: None,
            seed: 7,
            gradient_clip: None,
            max_virtual_hours: None,
            sim_parallelism: SimParallelism::Serial,
        }
    }

    /// Builder-style override of the epoch budget.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style override of the shot budget.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Builder-style weighting activation.
    pub fn with_weights(mut self, bounds: WeightBounds) -> Self {
        self.weight_bounds = Some(bounds);
        self
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style learning-rate override.
    pub fn with_learning_rate(mut self, alpha: f64) -> Self {
        self.learning_rate = alpha;
        self
    }

    /// Builder-style virtual-time cap (hours).
    pub fn with_time_cap_hours(mut self, hours: f64) -> Self {
        self.max_virtual_hours = Some(hours);
        self
    }

    /// Builder-style simulation-parallelism override (see
    /// [`SimParallelism`]; byte-identical results at any setting).
    pub fn with_sim_parallelism(mut self, parallelism: SimParallelism) -> Self {
        self.sim_parallelism = parallelism;
        self
    }

    /// Validates ranges; called by [`Ensemble::builder`] and every
    /// session constructor before training starts.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] naming the offending field on a
    /// non-positive learning rate, zero epochs, zero shots, or a
    /// non-positive gradient clip / time cap.
    ///
    /// [`Ensemble::builder`]: crate::Ensemble::builder
    pub fn validate(&self) -> Result<(), EqcError> {
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(EqcError::InvalidConfig(format!(
                "learning rate must be positive and finite, got {}",
                self.learning_rate
            )));
        }
        if self.epochs == 0 {
            return Err(EqcError::InvalidConfig(
                "epoch budget must be positive".into(),
            ));
        }
        if self.shots == 0 {
            return Err(EqcError::InvalidConfig(
                "shot budget must be positive".into(),
            ));
        }
        if let Some(c) = self.gradient_clip {
            if c.is_nan() || c <= 0.0 {
                return Err(EqcError::InvalidConfig(format!(
                    "gradient clip must be positive, got {c}"
                )));
            }
        }
        if self.sim_parallelism == (SimParallelism::Pipeline { lanes: 0 }) {
            return Err(EqcError::InvalidConfig(
                "pipeline lanes must be positive".into(),
            ));
        }
        if let Some(h) = self.max_virtual_hours {
            if h.is_nan() || h <= 0.0 {
                return Err(EqcError::InvalidConfig(format!(
                    "virtual-time cap must be positive, got {h}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for EqcConfig {
    fn default() -> Self {
        EqcConfig::paper_vqe()
    }
}

/// The master node's policy stack: one implementation per decision axis
/// (see [`crate::policy`]). Policies are shared immutable values
/// (`Arc`), so a `PolicyConfig` clones cheaply with its
/// [`Ensemble`](crate::Ensemble) and one stack can drive any number of
/// sessions concurrently.
///
/// The default stack — [`Cyclic`] + [`FidelityWeighted`] +
/// [`AlwaysHealthy`] — reproduces the pre-policy master loop byte for
/// byte; the executor equivalence tests pin that as the refactor
/// oracle.
///
/// ```
/// use eqc_core::policy::{DriftEviction, EquiEnsemble, LeastLoaded};
/// use eqc_core::PolicyConfig;
///
/// let policies = PolicyConfig::default()
///     .with_scheduler(LeastLoaded)
///     .with_weighting(EquiEnsemble)
///     .with_health(DriftEviction::default());
/// assert_eq!(policies.health.name(), "drift-eviction");
/// ```
#[derive(Clone, Debug)]
pub struct PolicyConfig {
    /// Task → client assignment policy.
    pub scheduler: Arc<dyn Scheduler>,
    /// Gradient weighting policy.
    pub weighting: Arc<dyn Weighting>,
    /// Participation (eviction / re-admission) policy.
    pub health: Arc<dyn ClientHealth>,
}

impl PolicyConfig {
    /// Builder-style scheduler override.
    pub fn with_scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.scheduler = Arc::new(scheduler);
        self
    }

    /// Builder-style weighting override.
    pub fn with_weighting(mut self, weighting: impl Weighting + 'static) -> Self {
        self.weighting = Arc::new(weighting);
        self
    }

    /// Builder-style health override.
    pub fn with_health(mut self, health: impl ClientHealth + 'static) -> Self {
        self.health = Arc::new(health);
        self
    }
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            scheduler: Arc::new(Cyclic),
            weighting: Arc::new(FidelityWeighted),
            health: Arc::new(AlwaysHealthy),
        }
    }
}

/// How one tenant participates in a multi-tenant
/// [`FleetRuntime`](crate::fleet::FleetRuntime): its training
/// configuration, its own policy stack (the equi-ensemble result —
/// arXiv:2509.17982 — shows policy choice is tenant-specific), and the
/// knobs the fleet's [`TenantArbiter`](crate::policy::TenantArbiter)
/// reads (fair-share weight, priority).
///
/// ```
/// use eqc_core::policy::EquiEnsemble;
/// use eqc_core::{EqcConfig, PolicyConfig, TenantConfig};
///
/// let tenant = TenantConfig::new(EqcConfig::paper_qaoa().with_epochs(3))
///     .policies(PolicyConfig::default().with_weighting(EquiEnsemble))
///     .weight(2.0)
///     .priority(1)
///     .label("qaoa-prod");
/// assert!(tenant.validate().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// The tenant's training configuration.
    pub config: EqcConfig,
    /// The tenant's own policy stack (scheduler / weighting / health).
    pub policies: PolicyConfig,
    /// Fair-share weight: under
    /// [`FairShare`](crate::policy::arbiter::FairShare), fleet capacity
    /// splits proportionally to these. Must be positive and finite.
    pub weight: f64,
    /// Priority: under
    /// [`PriorityArbiter`](crate::policy::arbiter::PriorityArbiter),
    /// higher-priority tenants are served first.
    pub priority: i64,
    /// Telemetry label; defaults to `tenant<i>` at admission.
    pub label: Option<String>,
    /// Deadline budget in virtual hours on the tenant's own clock:
    /// under
    /// [`EarliestDeadlineFirst`](crate::policy::arbiter::EarliestDeadlineFirst)
    /// the tenant's SLO is to finish its epoch budget within this many
    /// virtual hours of its arrival. `None` (the default) means no SLO.
    pub deadline_h: Option<f64>,
}

impl TenantConfig {
    /// Creates a tenant description with the default policy stack,
    /// weight 1 and priority 0.
    pub fn new(config: EqcConfig) -> Self {
        TenantConfig {
            config,
            policies: PolicyConfig::default(),
            weight: 1.0,
            priority: 0,
            label: None,
            deadline_h: None,
        }
    }

    /// Builder-style policy-stack override.
    pub fn policies(mut self, policies: PolicyConfig) -> Self {
        self.policies = policies;
        self
    }

    /// Builder-style fair-share weight override.
    pub fn weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// Builder-style priority override.
    pub fn priority(mut self, priority: i64) -> Self {
        self.priority = priority;
        self
    }

    /// Builder-style telemetry label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// Builder-style deadline budget (virtual hours from arrival).
    pub fn deadline(mut self, hours: f64) -> Self {
        self.deadline_h = Some(hours);
        self
    }

    /// Validates the tenant description.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] on an invalid training
    /// configuration, a non-positive / non-finite fair-share weight, or
    /// a non-positive / non-finite deadline budget.
    pub fn validate(&self) -> Result<(), EqcError> {
        self.config.validate()?;
        if !(self.weight.is_finite() && self.weight > 0.0) {
            return Err(EqcError::InvalidConfig(format!(
                "tenant fair-share weight must be positive and finite, got {}",
                self.weight
            )));
        }
        if let Some(d) = self.deadline_h {
            if !(d.is_finite() && d > 0.0) {
                return Err(EqcError::InvalidConfig(format!(
                    "tenant deadline must be positive and finite virtual hours, got {d}"
                )));
            }
        }
        Ok(())
    }
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig::new(EqcConfig::default())
    }
}

/// Configuration of the bounded worker pool behind
/// [`PooledExecutor`](crate::PooledExecutor).
///
/// Defaults to one worker per hardware thread
/// ([`std::thread::available_parallelism`]); absorption always follows
/// the discrete-event total order, so the pool is a drop-in for the
/// discrete-event executor on fleets of any width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolConfig {
    /// Worker threads to spawn; `None` resolves to the machine's
    /// available parallelism. Never more than one worker per client.
    pub workers: Option<usize>,
}

impl PoolConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] when an explicit worker count is
    /// zero.
    pub fn validate(&self) -> Result<(), EqcError> {
        if self.workers == Some(0) {
            return Err(EqcError::InvalidConfig(
                "pool worker count must be positive".into(),
            ));
        }
        Ok(())
    }

    /// The worker count the pool actually spawns for `n_clients`
    /// clients: the configured (or detected) parallelism, capped at one
    /// worker per client.
    pub fn resolved_workers(&self, n_clients: usize) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
        };
        self.workers.unwrap_or_else(hw).min(n_clients).max(1)
    }
}

/// Configuration of the always-on
/// [`FleetService`](crate::fleet::service::FleetService).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Cap on tenants waiting in the admission queue between drains;
    /// admissions beyond it fail with
    /// [`EqcError::AdmissionQueueFull`]. `None` (the default) leaves
    /// the queue unbounded.
    pub max_pending: Option<usize>,
}

impl ServiceConfig {
    /// Builder-style admission-queue bound.
    pub fn with_max_pending(mut self, cap: usize) -> Self {
        self.max_pending = Some(cap);
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] when an explicit pending cap is
    /// zero (such a service could never admit anyone).
    pub fn validate(&self) -> Result<(), EqcError> {
        if self.max_pending == Some(0) {
            return Err(EqcError::InvalidConfig(
                "service admission-queue capacity must be positive".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = EqcConfig::paper_vqe();
        assert_eq!(c.learning_rate, 0.1);
        assert_eq!(c.shots, 8192);
        assert_eq!(c.epochs, 250);
        assert!(c.weight_bounds.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = EqcConfig::paper_qaoa()
            .with_epochs(10)
            .with_shots(128)
            .with_seed(3)
            .with_learning_rate(0.2)
            .with_weights(WeightBounds::new(0.25, 1.75).expect("valid band"));
        assert_eq!(c.epochs, 10);
        assert_eq!(c.shots, 128);
        assert_eq!(c.seed, 3);
        assert_eq!(c.learning_rate, 0.2);
        assert!(c.weight_bounds.is_some());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn pool_config_resolves_and_validates() {
        let d = PoolConfig::default();
        assert!(d.validate().is_ok());
        assert!(d.resolved_workers(1000) >= 1);
        assert!(
            d.resolved_workers(2) <= 2,
            "never more workers than clients"
        );
        let explicit = PoolConfig { workers: Some(8) };
        assert_eq!(explicit.resolved_workers(256), 8);
        assert_eq!(explicit.resolved_workers(3), 3);
        assert!(matches!(
            PoolConfig { workers: Some(0) }.validate(),
            Err(EqcError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tenant_config_validates_weight_and_config() {
        let good = TenantConfig::new(EqcConfig::paper_qaoa().with_epochs(2));
        assert!(good.validate().is_ok());
        assert_eq!(good.weight, 1.0);
        assert_eq!(good.priority, 0);
        for bad_weight in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    TenantConfig::default().weight(bad_weight).validate(),
                    Err(EqcError::InvalidConfig(_))
                ),
                "weight {bad_weight} should be rejected"
            );
        }
        assert!(matches!(
            TenantConfig::new(EqcConfig::paper_qaoa().with_epochs(0)).validate(),
            Err(EqcError::InvalidConfig(_))
        ));
        let labeled = TenantConfig::default().label("prod").priority(3);
        assert_eq!(labeled.label.as_deref(), Some("prod"));
        assert_eq!(labeled.priority, 3);
    }

    #[test]
    fn tenant_deadlines_validate() {
        let slo = TenantConfig::default().deadline(12.5);
        assert_eq!(slo.deadline_h, Some(12.5));
        assert!(slo.validate().is_ok());
        assert!(TenantConfig::default().deadline_h.is_none());
        for bad in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    TenantConfig::default().deadline(bad).validate(),
                    Err(EqcError::InvalidConfig(_))
                ),
                "deadline {bad} should be rejected"
            );
        }
    }

    #[test]
    fn service_config_validates_the_pending_cap() {
        assert!(ServiceConfig::default().validate().is_ok());
        assert!(ServiceConfig::default().max_pending.is_none());
        let bounded = ServiceConfig::default().with_max_pending(4);
        assert_eq!(bounded.max_pending, Some(4));
        assert!(bounded.validate().is_ok());
        assert!(matches!(
            ServiceConfig::default().with_max_pending(0).validate(),
            Err(EqcError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pipeline_parallelism_validates_and_resolves() {
        use crate::error::EqcError;
        let piped = SimParallelism::Pipeline { lanes: 3 };
        assert_eq!(piped.lanes(), 3);
        assert_eq!(SimParallelism::Serial.lanes(), 1);
        assert!(EqcConfig::paper_qaoa()
            .with_sim_parallelism(piped)
            .validate()
            .is_ok());
        assert!(matches!(
            EqcConfig::paper_qaoa()
                .with_sim_parallelism(SimParallelism::Pipeline { lanes: 0 })
                .validate(),
            Err(EqcError::InvalidConfig(_))
        ));
        assert_eq!(SimParallelism::Serial.pool_workers(8), None);
        assert_eq!(
            SimParallelism::Pipeline { lanes: 1 }.pool_workers(8),
            None,
            "one lane runs inline"
        );
        assert_eq!(piped.pool_workers(8), Some(3));
        assert_eq!(piped.pool_workers(2), Some(2), "one worker per client");
    }

    #[test]
    fn invalid_fields_become_typed_errors() {
        use crate::error::EqcError;
        for bad in [
            EqcConfig::paper_vqe().with_epochs(0),
            EqcConfig::paper_vqe().with_shots(0),
            EqcConfig::paper_vqe().with_learning_rate(0.0),
            EqcConfig::paper_vqe().with_learning_rate(-0.3),
            EqcConfig::paper_vqe().with_time_cap_hours(0.0),
        ] {
            assert!(
                matches!(bad.validate(), Err(EqcError::InvalidConfig(_))),
                "{bad:?} should be rejected"
            );
        }
    }
}
