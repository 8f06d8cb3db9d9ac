//! The `Ensemble` session API — the single entry point to EQC training.
//!
//! An [`Ensemble`] is a reusable description of a device fleet plus a
//! training configuration, built with [`Ensemble::builder`]. Binding it
//! to a problem yields an [`EnsembleSession`]: each device transpiles
//! the problem's templates once and wraps them as compiled templates
//! ([`qdevice::CompiledTemplate`]) that its backend re-lowers at most
//! once per calibration cycle — per job only the parameter-shift pair
//! is rebound and submitted as one batched engine call. Any
//! [`Executor`] drains the session into a
//! [`TrainingReport`]:
//!
//! ```
//! use eqc_core::{DiscreteEventExecutor, Ensemble, EqcConfig, Executor};
//! use vqa::QaoaProblem;
//!
//! let problem = QaoaProblem::maxcut_ring4();
//! let ensemble = Ensemble::builder()
//!     .device("belem")
//!     .device("manila")
//!     .config(EqcConfig::paper_qaoa().with_epochs(3).with_shots(256))
//!     .build()?;
//! let report = ensemble.train(&problem)?; // discrete-event by default
//! assert_eq!(report.epochs, 3);
//!
//! // Equivalent, choosing the executor explicitly:
//! let mut session = ensemble.session(&problem)?;
//! let report = DiscreteEventExecutor::new().run(&mut session)?;
//! assert_eq!(report.epochs, 3);
//! # Ok::<(), eqc_core::EqcError>(())
//! ```

use crate::client::ClientNode;
use crate::config::{EqcConfig, PolicyConfig};
use crate::error::EqcError;
use crate::executor::{DiscreteEventExecutor, Executor};
use crate::master::MasterLoop;
use crate::policy::health::HealthProbe;
use crate::policy::{ClientHealth, Scheduler, Weighting};
use crate::report::TrainingReport;
use qdevice::{Calibration, DriftModel, QpuBackend, QueueModel};
use transpile::Topology;
use vqa::VqaProblem;

/// A noiseless, zero-queue backend: the paper's ideal simulator baseline.
///
/// Fully connected topology (no routing), perfect gates, no drift, no
/// queue wait. Shot noise remains — the ideal baseline in the paper also
/// samples 8192 shots.
pub fn ideal_backend(n_qubits: usize, seed: u64) -> QpuBackend {
    let cal = Calibration::uniform(n_qubits, f64::INFINITY, f64::INFINITY, 0.0, 0.0, 0.0);
    let queue = ideal_queue();
    QpuBackend::new(
        "ideal",
        Topology::fully_connected(n_qubits.max(2)),
        cal,
        DriftModel::none(),
        queue,
        24.0,
        seed,
    )
    .with_downtime_hours(0.0)
}

/// The zero-wait queue model of the ideal simulator — also the base
/// load curve of an ideal device's shared-substrate ledger.
pub(crate) fn ideal_queue() -> QueueModel {
    QueueModel {
        overhead_s: 0.0,
        mean_wait_s: 0.0,
        diurnal_amplitude: 0.0,
        phase_hours: 0.0,
        period_hours: 24.0,
        reset_time_us: 0.0,
    }
}

/// One device slot of an ensemble or fleet, resolved lazily where
/// needed.
#[derive(Clone, Debug)]
pub(crate) enum Device {
    /// A concrete backend (catalog-resolved or user-supplied).
    Backend(Box<QpuBackend>),
    /// A noiseless zero-latency device, sized to the problem at session
    /// time.
    Ideal { seed: u64 },
}

impl Device {
    /// The device's base-load queue model — the exogenous wait curve a
    /// shared-substrate ledger starts from.
    pub(crate) fn base_queue(&self) -> QueueModel {
        match self {
            Device::Backend(b) => b.queue().clone(),
            Device::Ideal { .. } => ideal_queue(),
        }
    }

    /// The device's shared noise-cache `(builds, hits)` so far. An ideal
    /// slot is a per-tenant device that shares nothing: `(0, 0)`.
    pub(crate) fn noise_counts(&self) -> (u64, u64) {
        match self {
            Device::Backend(b) => {
                let cache = b.device_noise_cache();
                (cache.builds(), cache.hits())
            }
            Device::Ideal { .. } => (0, 0),
        }
    }

    /// The device's display name (occupancy telemetry rows).
    pub(crate) fn label(&self) -> String {
        match self {
            Device::Backend(b) => b.name().to_string(),
            Device::Ideal { .. } => "ideal".to_string(),
        }
    }
}

/// A device request before catalog resolution, shared by
/// [`EnsembleBuilder`] and [`FleetBuilder`](crate::fleet::FleetBuilder).
#[derive(Clone, Debug)]
pub(crate) enum DeviceChoice {
    /// A Table I catalog device by name.
    Named(String),
    /// An explicit spec (synthesized fleets, hand-tuned variants).
    Spec(Box<qdevice::DeviceSpec>),
    /// A fully custom backend.
    Custom(Box<QpuBackend>),
    /// The ideal simulator, sized at session time.
    Ideal,
}

/// Resolves device requests into concrete device slots: catalog lookup,
/// per-position noise seeding (`device_seed + i`, the ideal simulator
/// xors `0x5eed`). One resolution path for ensembles and fleets, so a
/// single-tenant fleet sees byte-identical devices to a standalone
/// ensemble built from the same requests.
///
/// The backends minted here share their architectures
/// ([`QpuBackend::share_architectures`]): devices on one coupling map
/// transpile each template once between them. A custom backend shares
/// too unless it is cloned elsewhere; the scope is this call, so a
/// later build transpiles afresh and nothing outlives its devices.
pub(crate) fn resolve_devices(
    choices: Vec<DeviceChoice>,
    device_seed: u64,
) -> Result<Vec<Device>, EqcError> {
    if choices.is_empty() {
        return Err(EqcError::EmptyEnsemble);
    }
    let mut devices = Vec::with_capacity(choices.len());
    for (i, choice) in choices.into_iter().enumerate() {
        devices.push(match choice {
            DeviceChoice::Named(name) => {
                let spec = qdevice::catalog::by_name(&name)
                    .ok_or_else(|| EqcError::UnknownDevice(name.clone()))?;
                Device::Backend(Box::new(spec.backend(device_seed + i as u64)))
            }
            DeviceChoice::Spec(spec) => {
                Device::Backend(Box::new(spec.backend(device_seed + i as u64)))
            }
            DeviceChoice::Custom(backend) => Device::Backend(backend),
            DeviceChoice::Ideal => Device::Ideal {
                seed: (device_seed + i as u64) ^ 0x5eed,
            },
        });
    }
    QpuBackend::share_architectures(devices.iter_mut().filter_map(|d| match d {
        Device::Backend(b) => Some(&mut **b),
        Device::Ideal { .. } => None,
    }));
    Ok(devices)
}

/// One client per device slot over the slot's prepared templates of
/// `problem` (prepared on the device's first request, transpiled on its
/// architecture's first) — the client-construction path shared by
/// [`Ensemble::session`] and
/// [`FleetRuntime::admit`](crate::fleet::FleetRuntime::admit).
pub(crate) fn clients_for(
    devices: &[Device],
    problem: &dyn VqaProblem,
) -> Result<Vec<ClientNode>, EqcError> {
    let mut clients = Vec::with_capacity(devices.len());
    for (i, device) in devices.iter().enumerate() {
        let backend = match device {
            Device::Backend(b) => (**b).clone(),
            Device::Ideal { seed } => ideal_backend(problem.num_qubits(), *seed),
        };
        let device_name = backend.name().to_string();
        let client =
            ClientNode::new(i, backend, problem).map_err(|source| EqcError::Transpile {
                device: device_name,
                source,
            })?;
        clients.push(client);
    }
    Ok(clients)
}

/// Builds the health/scheduling probes for a client set under a policy
/// stack. Probes cost a backend clone per client; skipped when the
/// stack can never consult one (the default: `AlwaysHealthy` never
/// evicts and `Cyclic` ignores queue estimates).
pub(crate) fn probes_for(policies: &PolicyConfig, clients: &[ClientNode]) -> Vec<HealthProbe> {
    if policies.health.monitors() || policies.scheduler.needs_queue_estimates() {
        clients
            .iter()
            .map(|c| {
                let metrics = (0..c.num_templates())
                    .map(|t| *c.template_metrics(t))
                    .collect();
                HealthProbe::new(c.backend().clone(), metrics)
            })
            .collect()
    } else {
        Vec::new()
    }
}

/// A reusable fleet + configuration + policy stack. Create with
/// [`Ensemble::builder`].
#[derive(Clone, Debug)]
pub struct Ensemble {
    devices: Vec<Device>,
    config: EqcConfig,
    policies: PolicyConfig,
}

impl Ensemble {
    /// Starts building an ensemble.
    pub fn builder() -> EnsembleBuilder {
        EnsembleBuilder {
            devices: Vec::new(),
            config: EqcConfig::default(),
            policies: PolicyConfig::default(),
            device_seed: 0,
            seed: None,
        }
    }

    /// The training configuration the ensemble was built with.
    pub fn config(&self) -> EqcConfig {
        self.config
    }

    /// The master's policy stack.
    pub fn policies(&self) -> &PolicyConfig {
        &self.policies
    }

    /// Number of devices in the fleet.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Binds the ensemble to a problem: fetches every template's
    /// prepared entry from every device (transpiled on the device's
    /// first request, so a reused ensemble transpiles nothing) and
    /// initializes the master state.
    ///
    /// # Errors
    ///
    /// [`EqcError::Transpile`] if a template does not fit a device;
    /// [`EqcError::EmptyProblem`] if the problem has no parameters or no
    /// gradient tasks.
    pub fn session<'p>(
        &self,
        problem: &'p dyn VqaProblem,
    ) -> Result<EnsembleSession<'p>, EqcError> {
        if problem.num_params() == 0 || problem.tasks().is_empty() {
            return Err(EqcError::EmptyProblem(problem.name()));
        }
        let clients = clients_for(&self.devices, problem)?;
        EnsembleSession::assemble(problem, self.config, self.policies.clone(), clients)
    }

    /// Trains with the default (deterministic discrete-event) executor.
    pub fn train(&self, problem: &dyn VqaProblem) -> Result<TrainingReport, EqcError> {
        self.train_with(&DiscreteEventExecutor::new(), problem)
    }

    /// Trains with an explicit executor.
    pub fn train_with<E: Executor + ?Sized>(
        &self,
        executor: &E,
        problem: &dyn VqaProblem,
    ) -> Result<TrainingReport, EqcError> {
        let mut session = self.session(problem)?;
        executor.run(&mut session)
    }
}

/// Builder for [`Ensemble`] — devices by catalog name, custom backends
/// or the ideal simulator, plus configuration and seeds.
#[derive(Clone, Debug)]
pub struct EnsembleBuilder {
    devices: Vec<DeviceChoice>,
    config: EqcConfig,
    policies: PolicyConfig,
    device_seed: u64,
    seed: Option<u64>,
}

impl EnsembleBuilder {
    /// Adds a device from the Table I catalog by name.
    pub fn device(mut self, name: impl Into<String>) -> Self {
        self.devices.push(DeviceChoice::Named(name.into()));
        self
    }

    /// Adds several catalog devices at once.
    pub fn devices<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for name in names {
            self.devices.push(DeviceChoice::Named(name.into()));
        }
        self
    }

    /// Adds a device from an explicit spec — the entry point for
    /// synthesized fleets ([`qdevice::catalog::fleet`]) and hand-tuned
    /// variants. The device's noise stream is seeded like a named
    /// catalog device (`device_seed + position`).
    pub fn spec(mut self, spec: qdevice::DeviceSpec) -> Self {
        self.devices.push(DeviceChoice::Spec(Box::new(spec)));
        self
    }

    /// Adds several spec-described devices at once:
    ///
    /// ```
    /// use eqc_core::{Ensemble, EqcConfig};
    /// let base = qdevice::catalog::qaoa_devices();
    /// let ensemble = Ensemble::builder()
    ///     .specs(qdevice::catalog::fleet(&base, 64, 7))
    ///     .config(EqcConfig::paper_qaoa().with_epochs(2))
    ///     .build()?;
    /// assert_eq!(ensemble.num_devices(), 64);
    /// # Ok::<(), eqc_core::EqcError>(())
    /// ```
    pub fn specs<I>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = qdevice::DeviceSpec>,
    {
        for spec in specs {
            self.devices.push(DeviceChoice::Spec(Box::new(spec)));
        }
        self
    }

    /// Adds a custom backend (degraded calibrations, multiprogramming
    /// slots, broken devices, ...).
    pub fn backend(mut self, backend: QpuBackend) -> Self {
        self.devices.push(DeviceChoice::Custom(Box::new(backend)));
        self
    }

    /// Adds the paper's noiseless zero-latency ideal device, sized to
    /// the problem when a session is created.
    pub fn ideal_device(mut self) -> Self {
        self.devices.push(DeviceChoice::Ideal);
        self
    }

    /// Sets the training configuration (defaults to
    /// [`EqcConfig::default`]).
    pub fn config(mut self, config: EqcConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the whole policy stack at once (defaults to
    /// [`PolicyConfig::default`]: `Cyclic` + `FidelityWeighted` +
    /// `AlwaysHealthy`, the seed master loop's behavior).
    pub fn policies(mut self, policies: PolicyConfig) -> Self {
        self.policies = policies;
        self
    }

    /// Overrides the task → client scheduling policy.
    pub fn scheduler(mut self, scheduler: impl Scheduler + 'static) -> Self {
        self.policies = self.policies.with_scheduler(scheduler);
        self
    }

    /// Overrides the gradient-weighting policy.
    pub fn weighting(mut self, weighting: impl Weighting + 'static) -> Self {
        self.policies = self.policies.with_weighting(weighting);
        self
    }

    /// Overrides the client-health (eviction / re-admission) policy.
    pub fn health(mut self, health: impl ClientHealth + 'static) -> Self {
        self.policies = self.policies.with_health(health);
        self
    }

    /// Sets the master seed: initial parameters *and* the base seed for
    /// catalog-device noise streams. Overrides `config.seed`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets only the base seed for catalog-device noise streams
    /// (device `i` draws from `device_seed + i`), leaving the
    /// parameter-initialization seed to the configuration. The figure
    /// harnesses use this to pin fleets independently of `config.seed`.
    pub fn device_seed(mut self, seed: u64) -> Self {
        self.device_seed = seed;
        self
    }

    /// Validates and resolves the ensemble.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] for out-of-range configuration,
    /// [`EqcError::EmptyEnsemble`] when no device was added, and
    /// [`EqcError::UnknownDevice`] for names missing from the catalog.
    pub fn build(self) -> Result<Ensemble, EqcError> {
        let mut config = self.config;
        let device_seed = match self.seed {
            Some(s) => {
                config.seed = s;
                s
            }
            None => self.device_seed,
        };
        config.validate()?;
        Ok(Ensemble {
            devices: resolve_devices(self.devices, device_seed)?,
            config,
            policies: self.policies,
        })
    }
}

/// An ensemble bound to one problem: transpiled clients plus the master
/// state, ready for one [`Executor::run`].
pub struct EnsembleSession<'p> {
    problem: &'p dyn VqaProblem,
    config: EqcConfig,
    clients: Vec<ClientNode>,
    master: MasterLoop,
    consumed: bool,
}

impl<'p> EnsembleSession<'p> {
    /// Builds a session directly from pre-constructed clients — the
    /// delegation path for the deprecated trainer shims and for tests
    /// that need hand-tuned [`ClientNode`]s.
    ///
    /// # Errors
    ///
    /// [`EqcError::InvalidConfig`] / [`EqcError::EmptyEnsemble`] /
    /// [`EqcError::EmptyProblem`] as in [`Ensemble::session`].
    pub fn from_clients(
        problem: &'p dyn VqaProblem,
        config: EqcConfig,
        clients: Vec<ClientNode>,
    ) -> Result<Self, EqcError> {
        Self::assemble(problem, config, PolicyConfig::default(), clients)
    }

    /// [`EnsembleSession::from_clients`] with an explicit policy stack.
    ///
    /// # Errors
    ///
    /// As [`EnsembleSession::from_clients`].
    pub fn from_clients_with_policies(
        problem: &'p dyn VqaProblem,
        config: EqcConfig,
        policies: PolicyConfig,
        clients: Vec<ClientNode>,
    ) -> Result<Self, EqcError> {
        Self::assemble(problem, config, policies, clients)
    }

    /// The shared constructor: validates, builds per-client health
    /// probes (a backend clone + transpiled metrics per client, so the
    /// master can score and queue-estimate devices whose `ClientNode`
    /// is checked out by a worker thread), and initializes the master.
    fn assemble(
        problem: &'p dyn VqaProblem,
        config: EqcConfig,
        policies: PolicyConfig,
        clients: Vec<ClientNode>,
    ) -> Result<Self, EqcError> {
        config.validate()?;
        if clients.is_empty() {
            return Err(EqcError::EmptyEnsemble);
        }
        if problem.num_params() == 0 || problem.tasks().is_empty() {
            return Err(EqcError::EmptyProblem(problem.name()));
        }
        let probes = probes_for(&policies, &clients);
        let master = MasterLoop::new(problem, config, policies, clients.len(), probes);
        Ok(EnsembleSession {
            problem,
            config,
            clients,
            master,
            consumed: false,
        })
    }

    /// The bound problem (the returned reference outlives the session).
    pub fn problem(&self) -> &'p dyn VqaProblem {
        self.problem
    }

    /// The training configuration.
    pub fn config(&self) -> EqcConfig {
        self.config
    }

    /// Number of clients in the session.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Marks the session consumed; executors call this exactly once at
    /// the top of [`Executor::run`].
    ///
    /// # Errors
    ///
    /// [`EqcError::SessionConsumed`] if the session already trained.
    pub fn begin(&mut self) -> Result<(), EqcError> {
        if self.consumed {
            return Err(EqcError::SessionConsumed);
        }
        self.consumed = true;
        Ok(())
    }

    /// Splits the session into its clients and master state — the two
    /// halves every executor drives against each other.
    pub fn split_mut(&mut self) -> (&mut Vec<ClientNode>, &mut MasterLoop) {
        (&mut self.clients, &mut self.master)
    }

    /// Engine-side telemetry across this session's clients: the pool
    /// workers its [`SimParallelism`](crate::SimParallelism) setting
    /// resolves to, runs evolved and jobs executed. Lives beside the
    /// report (see [`EngineTelemetry`](crate::report::EngineTelemetry))
    /// because the report itself is byte-identical at any setting.
    pub fn engine_telemetry(&self) -> crate::report::EngineTelemetry {
        crate::report::EngineTelemetry {
            folded_pairs: 0,
            jobs: self
                .clients
                .iter()
                .map(|c| c.backend().jobs_executed())
                .sum(),
            prefix_hits: 0,
            batched_jobs: self.clients.iter().map(ClientNode::batched_jobs).sum(),
            pipeline_lanes: self
                .config
                .sim_parallelism
                .pool_workers(self.clients.len())
                .unwrap_or(1),
        }
    }

    /// Assembles the training report under the given trainer label.
    ///
    /// # Errors
    ///
    /// [`EqcError::ClientCountMismatch`] when the executor failed to
    /// hand every client back before reporting.
    pub fn finish(&self, trainer: String) -> Result<TrainingReport, EqcError> {
        self.master.report(self.problem, trainer, &self.clients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_device_is_a_typed_error() {
        let err = Ensemble::builder().device("atlantis").build().unwrap_err();
        assert_eq!(err, EqcError::UnknownDevice("atlantis".into()));
    }

    #[test]
    fn empty_ensemble_is_a_typed_error() {
        let err = Ensemble::builder().build().unwrap_err();
        assert_eq!(err, EqcError::EmptyEnsemble);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let err = Ensemble::builder()
            .device("belem")
            .config(EqcConfig::paper_qaoa().with_epochs(0))
            .build()
            .unwrap_err();
        assert!(matches!(err, EqcError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn session_is_single_use() {
        let problem = vqa::QaoaProblem::maxcut_ring4();
        let ensemble = Ensemble::builder()
            .device("belem")
            .config(EqcConfig::paper_qaoa().with_epochs(1).with_shots(64))
            .build()
            .unwrap();
        let mut session = ensemble.session(&problem).unwrap();
        let first = DiscreteEventExecutor::new().run(&mut session);
        assert!(first.is_ok());
        let second = DiscreteEventExecutor::new().run(&mut session);
        assert_eq!(second.unwrap_err(), EqcError::SessionConsumed);
    }

    #[test]
    fn ensemble_is_reusable_across_sessions() {
        let problem = vqa::QaoaProblem::maxcut_ring4();
        let ensemble = Ensemble::builder()
            .device("belem")
            .device("manila")
            .config(EqcConfig::paper_qaoa().with_epochs(2).with_shots(128))
            .build()
            .unwrap();
        let a = ensemble.train(&problem).unwrap();
        let b = ensemble.train(&problem).unwrap();
        assert_eq!(a.final_params, b.final_params, "fresh session, same stream");
    }

    #[test]
    fn ideal_device_resolves_at_session_time() {
        let problem = vqa::QaoaProblem::maxcut_ring4();
        let report = Ensemble::builder()
            .ideal_device()
            .config(EqcConfig::paper_qaoa().with_epochs(2).with_shots(256))
            .build()
            .unwrap()
            .train(&problem)
            .unwrap();
        assert_eq!(report.clients.len(), 1);
        assert_eq!(report.clients[0].device, "ideal");
    }
}
