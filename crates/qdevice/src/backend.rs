//! The simulated QPU backend.
//!
//! One [`QpuBackend`] stands in for one IBMQ cloud device: it owns a
//! topology, a recalibration schedule with per-cycle jitter, a drift model
//! separating *reported* from *actual* noise, a queue latency model, and a
//! seeded RNG for shot sampling. Executing a job advances virtual time
//! only — a 40-hour training run simulates in milliseconds.
//!
//! ## Execution engine and noise caching
//!
//! Every execution path routes through the compiled-program density
//! engine of [`qsim::program`]; circuits wider than
//! [`DensityMatrix::MAX_QUBITS`] active qubits are rejected (every paper
//! device is narrower). The backend keeps a per-calibration-cycle noise
//! cache: the *reported* calibration (clone + jitter) is rebuilt once
//! per cycle, each active-qubit set's [`NoiseModel`] is projected once
//! per cycle and re-degraded only when the drift factors actually
//! change (they never do under [`DriftModel::none`], so the model is
//! then built exactly once per cycle), and ensemble clients additionally
//! keep one compiled program per template: planned once, its numbers
//! refreshed per noise token — per job, on a drifting device (see
//! [`crate::compile::CompiledTemplate`]). All caches key on values, not
//! time, so caching never changes a result. The uncached pre-engine path
//! survives behind [`QpuBackend::with_legacy_execution`] as the
//! equivalence oracle for tests and benchmarks (equal counts and timing
//! on every pinned fixture; states agree to 1e-12, see
//! [`qsim::program`]).
//!
//! Template jobs ([`QpuBackend::execute_templates`], the training hot
//! path) have one density implementation: one walk per template from
//! `|0..0><0..0|`, every shifted run forked off it at the op its shift
//! rebinds, the forked suffixes resumed one after another on the
//! backend's own engine, then one sampling loop in run order. A backend
//! holds no state besides its engine's own; forks live for one call.
//! Parallelism is one layer up: `eqc_core` runs whole client tasks —
//! one backend each — on its worker pool.

use crate::calibration::{Calibration, QubitCalibration};
use crate::clock::SimTime;
use crate::compile::{CompileOptions, CompiledTemplate, NoiseToken};
use crate::drift::DriftModel;
use crate::noise_model::{reference, NoiseModel, QubitNoise};
use crate::queue::{DeviceQueue, QueueModel};
use qcircuit::Circuit;
use qsim::{Counts, DensityEngine, DensityMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use transpile::Topology;

/// Panics unless a circuit on `n` active qubits fits the density engine.
fn assert_density_fits(n: usize) {
    assert!(
        n <= DensityMatrix::MAX_QUBITS,
        "{n} active qubits exceed DensityMatrix::MAX_QUBITS = {}; \
         transpile the circuit onto fewer active qubits",
        DensityMatrix::MAX_QUBITS
    );
}

/// The result of one executed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Measured counts over the *compact* register (see
    /// [`transpile::Transpiled::compact_for_simulation`]).
    pub counts: Counts,
    /// Virtual time the job was submitted.
    pub submitted: SimTime,
    /// Virtual time the job started executing (after queue wait).
    pub started: SimTime,
    /// Virtual time results became available.
    pub completed: SimTime,
    /// Scheduled duration of one circuit repetition, nanoseconds.
    pub circuit_duration_ns: f64,
}

/// One run of a batched template job: which template to execute and an
/// optional parameter-shift `(gate_idx, delta)` applied on top of the
/// shared parameter vector (see [`QpuBackend::execute_templates`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TemplateRun {
    /// Index into the template list passed alongside the runs.
    pub template: usize,
    /// Optional `(gate_idx, delta)` parameter shift.
    pub shift: Option<(usize, f64)>,
}

/// Reported calibration figures projected onto one active-qubit set, in
/// calibration units. The per-cycle cache re-degrades these with the
/// drift factors of the moment using exactly the arithmetic of
/// [`Calibration::degrade`] followed by [`NoiseModel::from_calibration`],
/// so cached models are bit-identical to models built from scratch.
#[derive(Clone, Debug)]
struct BaseNoise {
    qubits: Vec<QubitCalibration>,
    /// Reported CX error of every compact pair `lo < hi`, row by row
    /// (the order [`NoiseModel`] keeps them in).
    cx: Vec<f64>,
    gate_time_1q_ns: f64,
    gate_time_2q_ns: f64,
    readout_time_ns: f64,
}

impl BaseNoise {
    fn project(cal: &Calibration, active: &[usize]) -> Self {
        let qubits = active.iter().map(|&p| *cal.qubit(p)).collect();
        let mut cx = Vec::new();
        for (i, &pi) in active.iter().enumerate() {
            for &pj in &active[i + 1..] {
                cx.push(cal.cx_error(pi, pj));
            }
        }
        BaseNoise {
            qubits,
            cx,
            gate_time_1q_ns: cal.gate_time_1q_ns,
            gate_time_2q_ns: cal.gate_time_2q_ns,
            readout_time_ns: cal.readout_time_ns,
        }
    }

    /// `NoiseModel::from_calibration(degrade(reported, ef, cf), active)`
    /// without cloning a calibration — operation for operation the same
    /// float arithmetic, so the result is bit-identical.
    fn drifted_model(&self, ef: f64, cf: f64) -> NoiseModel {
        let qubits = self
            .qubits
            .iter()
            .map(|q| {
                let t1_us = (q.t1_us / cf).max(1.0);
                let t2_us = (q.t2_us / cf).max(1.0).min(2.0 * t1_us);
                QubitNoise {
                    t1_ns: t1_us * 1e3,
                    t2_ns: t2_us.min(2.0 * t1_us) * 1e3,
                    gate_error_1q: (q.gate_error_1q * ef).clamp(0.0, 0.5),
                    readout_error: (q.readout_error * ef).clamp(0.0, 0.5),
                }
            })
            .collect();
        let cx = self.cx.iter().map(|&v| (v * ef).clamp(0.0, 0.75)).collect();
        NoiseModel::from_parts(
            qubits,
            cx,
            self.gate_time_1q_ns,
            self.gate_time_2q_ns,
            self.readout_time_ns,
        )
    }
}

/// One cached noise model: the active set it covers, the projected base
/// figures, and the model materialized for the last-seen drift factors.
/// Base and model are `Arc`'d so co-tenant clones of the same physical
/// device can share one build through a [`SharedNoiseCache`].
#[derive(Clone, Debug)]
struct NoiseEntry {
    active: Vec<usize>,
    base: Arc<BaseNoise>,
    factors: (f64, f64),
    model: Arc<NoiseModel>,
}

/// The per-calibration-cycle noise cache (see the module docs).
#[derive(Clone, Debug, Default)]
struct NoiseCache {
    cycle: Option<u64>,
    reported: Option<Arc<Calibration>>,
    entries: Vec<NoiseEntry>,
    reported_builds: u64,
    model_builds: u64,
}

/// Fleet-wide noise artifacts shared by every clone of one *physical*
/// device (across tenants and clients). Clones of a device share its
/// seed, base calibration and drift model, so the reported calibration
/// of a cycle, the projected `BaseNoise` of a `(cycle, active)` pair
/// and the drifted model of a `(cycle, factors, active)` triple are all
/// pure functions of their keys — a shared build is bit-identical to a
/// private one. The fleet drives attach one cache per physical device so
/// each artifact is built once fleet-wide instead of once per clone.
///
/// Builds happen *under* the cache lock: exactly one build per key even
/// when pooled workers race, so the `builds`/`hits` totals are
/// deterministic. Entries are value-keyed and never evicted — a clone
/// consults the cache only on a per-clone first-use miss (never on a
/// drift-factor refresh), so growth is bounded by cycles touched, not
/// jobs executed.
#[derive(Debug, Default)]
pub struct SharedNoiseCache {
    state: Mutex<SharedNoiseState>,
}

/// `(cycle, ef bits, cf bits, active set)` — the key of one drifted
/// model in a [`SharedNoiseCache`].
type SharedModelKey = (u64, u64, u64, Vec<usize>);

#[derive(Debug, Default)]
struct SharedNoiseState {
    /// `(cycle, reported calibration)`.
    reported: Vec<(u64, Arc<Calibration>)>,
    /// `(cycle, active set, projected base figures)`.
    bases: Vec<(u64, Vec<usize>, Arc<BaseNoise>)>,
    /// Drifted models by [`SharedModelKey`].
    models: Vec<(SharedModelKey, Arc<NoiseModel>)>,
    builds: u64,
    hits: u64,
}

impl SharedNoiseCache {
    /// Artifacts built into the cache so far (telemetry).
    pub fn builds(&self) -> u64 {
        self.state.lock().expect("shared noise lock").builds
    }

    /// Lookups served from the cache so far (telemetry).
    pub fn hits(&self) -> u64 {
        self.state.lock().expect("shared noise lock").hits
    }

    /// The reported calibration of `cycle`, building it with `build` on
    /// the first fleet-wide request.
    fn reported(&self, cycle: u64, build: impl FnOnce() -> Calibration) -> Arc<Calibration> {
        let mut s = self.state.lock().expect("shared noise lock");
        match s.reported.iter().position(|(c, _)| *c == cycle) {
            Some(i) => {
                s.hits += 1;
                Arc::clone(&s.reported[i].1)
            }
            None => {
                let cal = Arc::new(build());
                s.builds += 1;
                s.reported.push((cycle, Arc::clone(&cal)));
                cal
            }
        }
    }

    /// The projected base figures and drifted model for
    /// `(cycle, active, factors)`, building whichever piece is missing.
    fn base_and_model(
        &self,
        cycle: u64,
        active: &[usize],
        factors: (f64, f64),
        build_base: impl FnOnce() -> BaseNoise,
    ) -> (Arc<BaseNoise>, Arc<NoiseModel>) {
        let mut s = self.state.lock().expect("shared noise lock");
        let base = match s
            .bases
            .iter()
            .position(|(c, a, _)| *c == cycle && a == active)
        {
            Some(i) => {
                s.hits += 1;
                Arc::clone(&s.bases[i].2)
            }
            None => {
                let base = Arc::new(build_base());
                s.builds += 1;
                s.bases.push((cycle, active.to_vec(), Arc::clone(&base)));
                base
            }
        };
        let (efb, cfb) = (factors.0.to_bits(), factors.1.to_bits());
        let model = match s
            .models
            .iter()
            .position(|((c, e, f, a), _)| *c == cycle && *e == efb && *f == cfb && a == active)
        {
            Some(i) => {
                s.hits += 1;
                Arc::clone(&s.models[i].1)
            }
            None => {
                let model = Arc::new(base.drifted_model(factors.0, factors.1));
                s.builds += 1;
                s.models
                    .push(((cycle, efb, cfb, active.to_vec()), Arc::clone(&model)));
                model
            }
        };
        (base, model)
    }
}

/// Source of unique per-construction backend identities for
/// [`NoiseToken`]s. Clones share their original's identity, which is
/// correct: a clone has the same calibration, seed and drift, hence
/// bit-identical noise per (cycle, factors).
static NEXT_BACKEND_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A simulated cloud QPU.
#[derive(Clone, Debug)]
pub struct QpuBackend {
    name: String,
    topology: Topology,
    base_calibration: Calibration,
    drift: DriftModel,
    queue: QueueModel,
    /// Hours between recalibrations.
    cal_period_hours: f64,
    /// Maintenance downtime at the start of each calibration cycle, hours.
    downtime_hours: f64,
    /// Per-cycle jitter magnitude on error rates (lognormal sigma).
    recal_jitter: f64,
    seed: u64,
    /// Unique per-construction identity (see [`NEXT_BACKEND_INSTANCE`]).
    instance_id: u64,
    rng: StdRng,
    busy_until: SimTime,
    jobs_executed: u64,
    /// Accumulated execution time (seconds the QPU actually ran shots).
    busy_seconds: f64,
    /// Accumulated queue wait (seconds between submission and start).
    queued_seconds: f64,
    /// Shared occupancy ledger of the *physical* device behind this
    /// (possibly per-tenant cloned) backend. When attached, job start
    /// times resolve through the ledger's global timeline instead of
    /// this clone's private `busy_until`, and completed jobs book their
    /// occupancy back — the fleet's shared-queue substrate. Clones share
    /// the attachment.
    shared_queue: Option<Arc<Mutex<DeviceQueue>>>,
    /// Fleet-wide noise-artifact cache of the *physical* device behind
    /// this clone. When attached, per-clone cache misses resolve through
    /// it so each (cycle, active, factors) artifact is built once
    /// fleet-wide. Values are bit-identical either way; clones share the
    /// attachment.
    shared_noise: Option<Arc<SharedNoiseCache>>,
    /// Route execution through the preserved pre-engine path (the
    /// bit-equivalence oracle; slow).
    legacy_execution: bool,
    noise_cache: NoiseCache,
    density_engine: DensityEngine,
    /// Per-run distribution scratch of
    /// [`QpuBackend::execute_templates`]' evolve-then-sample split
    /// (reused across calls).
    run_probs: Vec<Vec<f64>>,
    /// Density runs executed through [`QpuBackend::execute_templates`]
    /// (telemetry).
    batched_jobs: u64,
}

impl QpuBackend {
    /// Creates a backend.
    ///
    /// `seed` drives both shot sampling and the per-cycle recalibration
    /// jitter; two backends built with the same arguments behave
    /// identically.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        topology: Topology,
        base_calibration: Calibration,
        drift: DriftModel,
        queue: QueueModel,
        cal_period_hours: f64,
        seed: u64,
    ) -> Self {
        assert!(
            cal_period_hours > 0.0,
            "calibration period must be positive"
        );
        assert_eq!(
            base_calibration.num_qubits(),
            topology.num_qubits(),
            "calibration width must match topology"
        );
        QpuBackend {
            name: name.to_string(),
            topology,
            base_calibration,
            drift,
            queue,
            cal_period_hours,
            downtime_hours: 0.25,
            recal_jitter: 0.12,
            seed,
            instance_id: NEXT_BACKEND_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            rng: StdRng::seed_from_u64(seed),
            busy_until: SimTime::ZERO,
            jobs_executed: 0,
            busy_seconds: 0.0,
            queued_seconds: 0.0,
            shared_queue: None,
            shared_noise: None,
            legacy_execution: false,
            noise_cache: NoiseCache::default(),
            density_engine: DensityEngine::new(),
            run_probs: Vec::new(),
            batched_jobs: 0,
        }
    }

    /// Routes execution through the preserved pre-engine path (builder
    /// style): per-job `NoiseModel` reconstruction, per-operator state
    /// clones, per-shot histogram inserts. Orders of magnitude slower —
    /// it exists so equivalence tests and benchmarks can demand
    /// byte-identical results from the engine path.
    pub fn with_legacy_execution(mut self) -> Self {
        self.legacy_execution = true;
        self
    }

    /// Density runs executed through [`QpuBackend::execute_templates`]
    /// (telemetry).
    pub fn batched_jobs(&self) -> u64 {
        self.batched_jobs
    }

    /// Overrides the maintenance downtime (builder style).
    pub fn with_downtime_hours(mut self, hours: f64) -> Self {
        self.downtime_hours = hours.max(0.0);
        self
    }

    /// Overrides the per-cycle recalibration jitter magnitude (builder
    /// style; lognormal sigma, default `0.12`). Large values make a
    /// device's *reported* calibration swing wildly from one
    /// recalibration to the next — the scenario knob behind the
    /// drift-eviction policy tests and the `fig_policies` harness's
    /// flaky fleet member.
    pub fn with_recal_jitter(mut self, sigma: f64) -> Self {
        self.recal_jitter = sigma.max(0.0);
        self
    }

    /// Device name (e.g. `"ibmq_bogota"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Coupling graph.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Queue latency model.
    pub fn queue(&self) -> &QueueModel {
        &self.queue
    }

    /// Jobs executed so far.
    pub fn jobs_executed(&self) -> u64 {
        self.jobs_executed
    }

    /// Seconds the QPU spent actually executing shots (queue waits
    /// excluded).
    pub fn busy_seconds(&self) -> f64 {
        self.busy_seconds
    }

    /// Seconds this backend's jobs spent waiting between submission and
    /// start — the capacity-wait figure contention telemetry reports.
    pub fn queued_seconds(&self) -> f64 {
        self.queued_seconds
    }

    /// Routes this backend's queue waits through a shared [`DeviceQueue`]
    /// ledger (the physical device's global timeline across tenants).
    /// Replaces any previous attachment.
    pub fn attach_shared_queue(&mut self, ledger: Arc<Mutex<DeviceQueue>>) {
        self.shared_queue = Some(ledger);
    }

    /// Detaches the shared ledger, reverting to this clone's private
    /// `busy_until` serialization.
    pub fn detach_shared_queue(&mut self) {
        self.shared_queue = None;
    }

    /// The attached shared ledger, if any.
    pub fn shared_queue(&self) -> Option<&Arc<Mutex<DeviceQueue>>> {
        self.shared_queue.as_ref()
    }

    /// Routes this clone's per-cycle noise-cache misses through the
    /// physical device's fleet-wide [`SharedNoiseCache`]. Replaces any
    /// previous attachment. Results are bit-identical with or without
    /// the attachment (see [`SharedNoiseCache`]).
    pub fn attach_shared_noise(&mut self, cache: Arc<SharedNoiseCache>) {
        self.shared_noise = Some(cache);
    }

    /// Detaches the shared noise cache, reverting to per-clone builds.
    pub fn detach_shared_noise(&mut self) {
        self.shared_noise = None;
    }

    /// The attached shared noise cache, if any.
    pub fn shared_noise(&self) -> Option<&Arc<SharedNoiseCache>> {
        self.shared_noise.as_ref()
    }

    /// Fraction of the elapsed virtual timeline the QPU spent executing —
    /// the utilization figure of the paper's third motivation
    /// ("quantum computers can be underutilized", Section I).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.as_secs() <= 0.0 {
            0.0
        } else {
            (self.busy_seconds / now.as_secs()).min(1.0)
        }
    }

    /// Index of the calibration cycle containing `t`.
    fn cycle_of(&self, t: SimTime) -> u64 {
        (t.as_hours() / self.cal_period_hours).floor() as u64
    }

    /// Hours elapsed within the calibration cycle containing `t` — the
    /// "time since calibration" of the paper's Fig. 4.
    pub fn hours_since_calibration(&self, t: SimTime) -> f64 {
        t.as_hours() - self.cycle_of(t) as f64 * self.cal_period_hours
    }

    /// The calibration the device *reports* at `t`: the base profile with
    /// this cycle's deterministic jitter, frozen for the whole cycle.
    ///
    /// This is what the paper's client nodes read when computing
    /// `P_correct` (Eq. 2).
    pub fn reported_calibration(&self, t: SimTime) -> Calibration {
        let cycle = self.cycle_of(t);
        let mut cal = self.base_calibration.clone();
        // Deterministic per-cycle jitter independent of query order.
        let mut jrng = StdRng::seed_from_u64(self.seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let jitter = |r: &mut StdRng, sigma: f64| -> f64 {
            // Cheap lognormal-ish factor from a uniform sample.
            let u: f64 = r.gen::<f64>() * 2.0 - 1.0;
            (sigma * u).exp()
        };
        let ef = jitter(&mut jrng, self.recal_jitter);
        let cf = jitter(&mut jrng, self.recal_jitter / 2.0);
        cal.degrade(ef, cf);
        cal.calibrated_at_hours = cycle as f64 * self.cal_period_hours;
        cal
    }

    /// The *actual* noise at `t`: the reported calibration plus drift
    /// accumulated since the cycle started. The gap between reported and
    /// actual is exactly the paper's stale-calibration effect.
    pub fn actual_calibration(&self, t: SimTime) -> Calibration {
        let reported = self.reported_calibration(t);
        self.drift
            .apply(&reported, self.hours_since_calibration(t), t.as_hours())
    }

    /// Virtual time at which a job submitted at `t` would start, given
    /// queue wait, device serialization and maintenance downtime.
    ///
    /// The jitter uniform always comes from this clone's own RNG (one
    /// draw per job, preserving the stream), but the serialization floor
    /// comes from the shared [`DeviceQueue`] when one is attached — that
    /// is how co-tenant bookings lengthen this tenant's waits.
    fn start_time(&mut self, submit: SimTime) -> SimTime {
        let u: f64 = self.rng.gen();
        let mut start = match &self.shared_queue {
            Some(ledger) => ledger.lock().expect("shared queue lock").admit(submit, u),
            None => {
                let wait = self.queue.wait_with_jitter_s(submit, u) + self.queue.overhead_s;
                (submit + wait).max(self.busy_until)
            }
        };
        // Defer out of maintenance windows, which occupy the tail of each
        // calibration cycle (the device goes down, recalibrates, and the
        // next cycle starts fresh).
        if self.downtime_hours > 0.0 {
            let in_cycle = self.hours_since_calibration(start);
            if in_cycle >= self.cal_period_hours - self.downtime_hours {
                let next_cycle_start = (self.cycle_of(start) + 1) as f64 * self.cal_period_hours;
                start = SimTime::from_hours(next_cycle_start);
            }
        }
        start
    }

    /// The common job epilogue: advances this clone's `busy_until`,
    /// accumulates wait/busy telemetry and books the occupancy into the
    /// shared ledger when one is attached. Returns the completion time.
    fn record_job(&mut self, submit: SimTime, started: SimTime, exec_s: f64) -> SimTime {
        let completed = started + exec_s;
        self.busy_until = completed;
        self.jobs_executed += 1;
        self.busy_seconds += exec_s;
        self.queued_seconds += started - submit;
        if let Some(ledger) = &self.shared_queue {
            ledger
                .lock()
                .expect("shared queue lock")
                .book(started, exec_s);
        }
        completed
    }

    /// Ensures the noise cache covers the cycle containing `t`,
    /// rebuilding the reported calibration (once per cycle) on a miss —
    /// served from the fleet-wide [`SharedNoiseCache`] when one is
    /// attached, so the rebuild happens once per cycle *fleet-wide*.
    fn ensure_cycle(&mut self, t: SimTime) {
        let cycle = self.cycle_of(t);
        if self.noise_cache.cycle != Some(cycle) {
            let reported = match self.shared_noise.clone() {
                Some(shared) => shared.reported(cycle, || self.reported_calibration(t)),
                None => Arc::new(self.reported_calibration(t)),
            };
            self.noise_cache.cycle = Some(cycle);
            self.noise_cache.reported = Some(reported);
            self.noise_cache.entries.clear();
            self.noise_cache.reported_builds += 1;
        }
    }

    /// The calibration the device reports at `t`, served from the
    /// per-cycle cache — same values as
    /// [`QpuBackend::reported_calibration`] without the per-query clone
    /// and jitter replay. Clients on the hot path (Eq. 2 scoring per
    /// task) use this.
    pub fn reported_at(&mut self, t: SimTime) -> &Calibration {
        self.ensure_cycle(t);
        self.noise_cache
            .reported
            .as_deref()
            .expect("cycle cache populated")
    }

    /// Index of the cached noise entry for `active` at `started`,
    /// projecting the model on first use in the cycle and re-degrading
    /// it only when the drift factors changed.
    fn noise_entry(&mut self, started: SimTime, active: &[usize]) -> usize {
        self.ensure_cycle(started);
        let cycle = self.cycle_of(started);
        let factors = self
            .drift
            .factors(self.hours_since_calibration(started), started.as_hours());
        let shared = self.shared_noise.clone();
        let cache = &mut self.noise_cache;
        match cache.entries.iter().position(|e| e.active == active) {
            Some(i) => {
                // Drift-factor refreshes stay per-clone: on a drifting
                // device the factors change per job, so routing them
                // through the shared cache would serialize every job on
                // its lock for entries no other clone can hit.
                if cache.entries[i].factors != factors {
                    cache.entries[i].model =
                        Arc::new(cache.entries[i].base.drifted_model(factors.0, factors.1));
                    cache.entries[i].factors = factors;
                    cache.model_builds += 1;
                }
                i
            }
            None => {
                let reported = cache.reported.as_deref().expect("cycle cache populated");
                let (base, model) = match &shared {
                    Some(shared) => shared.base_and_model(cycle, active, factors, || {
                        BaseNoise::project(reported, active)
                    }),
                    None => {
                        let base = Arc::new(BaseNoise::project(reported, active));
                        let model = Arc::new(base.drifted_model(factors.0, factors.1));
                        (base, model)
                    }
                };
                cache.model_builds += 1;
                cache.entries.push(NoiseEntry {
                    active: active.to_vec(),
                    base,
                    factors,
                    model,
                });
                cache.entries.len() - 1
            }
        }
    }

    /// The noise epoch token at `started` (see [`NoiseToken`]).
    fn noise_token(&self, started: SimTime) -> NoiseToken {
        let (ef, cf) = self
            .drift
            .factors(self.hours_since_calibration(started), started.as_hours());
        NoiseToken::new(self.instance_id, self.cycle_of(started), ef, cf)
    }

    /// `NoiseModel`s constructed so far (cache telemetry: at most one
    /// per calibration cycle per active set while drift factors are
    /// stable, e.g. under [`DriftModel::none`]).
    pub fn noise_model_builds(&self) -> u64 {
        self.noise_cache.model_builds
    }

    /// Reported-calibration reconstructions so far (cache telemetry: at
    /// most one per calibration cycle touched).
    pub fn reported_calibration_builds(&self) -> u64 {
        self.noise_cache.reported_builds
    }

    /// Compiles and runs one bound circuit on the density engine
    /// against a cached noise entry — the single dispatch point for
    /// every engine-path execution.
    fn run_circuit(&mut self, circuit: &Circuit, entry: usize, shots: usize) -> (Counts, f64) {
        assert_density_fits(circuit.num_qubits());
        let noise = &*self.noise_cache.entries[entry].model;
        let program = crate::compile::compile_bound(circuit, noise, &CompileOptions::default());
        let counts = self
            .density_engine
            .run_program(&program, shots, &mut self.rng);
        (counts, program.duration_ns())
    }

    /// [`run_circuit`](Self::run_circuit)'s pre-engine twin, used when
    /// [`QpuBackend::with_legacy_execution`] is set.
    fn run_circuit_reference(
        &mut self,
        circuit: &Circuit,
        noise: &NoiseModel,
        shots: usize,
    ) -> (Counts, f64) {
        assert_density_fits(circuit.num_qubits());
        reference::execute_density(circuit, noise, shots, &mut self.rng)
    }

    /// Executes a fully bound, compacted physical circuit.
    ///
    /// `active_physical[i]` names the physical qubit behind compact qubit
    /// `i` (from [`transpile::Transpiled::compact_for_simulation`]).
    /// Returns the counts and the virtual timing of the job.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has unbound parameters, if an active qubit is
    /// out of range, or if the density engine is asked for more than
    /// [`DensityMatrix::MAX_QUBITS`] qubits.
    pub fn execute(
        &mut self,
        circuit: &Circuit,
        active_physical: &[usize],
        shots: usize,
        submit: SimTime,
    ) -> JobResult {
        assert_eq!(
            circuit.num_qubits(),
            active_physical.len(),
            "compact circuit width must match active qubit list"
        );
        let started = self.start_time(submit);
        let (counts, circuit_duration_ns, readout_time_ns) = if self.legacy_execution {
            let cal = self.actual_calibration(started);
            let noise = NoiseModel::from_calibration(&cal, active_physical);
            let (counts, duration) = self.run_circuit_reference(circuit, &noise, shots);
            (counts, duration, cal.readout_time_ns)
        } else {
            let entry = self.noise_entry(started, active_physical);
            let (counts, duration) = self.run_circuit(circuit, entry, shots);
            let readout = self.noise_cache.entries[entry].model.readout_time_ns;
            (counts, duration, readout)
        };
        let exec_s = self
            .queue
            .execution_s(circuit_duration_ns, readout_time_ns, shots);
        let completed = self.record_job(submit, started, exec_s);
        JobResult {
            counts,
            submitted: submit,
            started,
            completed,
            circuit_duration_ns,
        }
    }

    /// Executes several circuits as **one** cloud job: a single queue wait
    /// covers the whole batch, then the circuits run back-to-back.
    ///
    /// This mirrors how the paper's client submits the forward and
    /// backward shift circuits together (Algorithm 2:
    /// `Job <- Submit C_Transpiled(theta)_FWD,BCK`).
    ///
    /// Returns one counts histogram per circuit plus the batch timing.
    ///
    /// # Panics
    ///
    /// Same conditions as [`QpuBackend::execute`]; additionally panics on
    /// an empty batch.
    pub fn execute_batch(
        &mut self,
        batch: &[(&Circuit, &[usize])],
        shots: usize,
        submit: SimTime,
    ) -> (Vec<Counts>, JobResult) {
        assert!(!batch.is_empty(), "batch must contain at least one circuit");
        let started = self.start_time(submit);
        let mut all_counts = Vec::with_capacity(batch.len());
        let mut total_exec_s = 0.0;
        let mut last_duration_ns = 0.0;
        let legacy_cal = self
            .legacy_execution
            .then(|| self.actual_calibration(started));
        for (circuit, active_physical) in batch {
            assert_eq!(
                circuit.num_qubits(),
                active_physical.len(),
                "compact circuit width must match active qubit list"
            );
            let (counts, duration_ns, readout_time_ns) = match &legacy_cal {
                Some(cal) => {
                    let noise = NoiseModel::from_calibration(cal, active_physical);
                    let (counts, duration) = self.run_circuit_reference(circuit, &noise, shots);
                    (counts, duration, cal.readout_time_ns)
                }
                None => {
                    let entry = self.noise_entry(started, active_physical);
                    let (counts, duration) = self.run_circuit(circuit, entry, shots);
                    let readout = self.noise_cache.entries[entry].model.readout_time_ns;
                    (counts, duration, readout)
                }
            };
            total_exec_s += self.queue.execution_s(duration_ns, readout_time_ns, shots);
            last_duration_ns = duration_ns;
            all_counts.push(counts);
        }
        let completed = self.record_job(submit, started, total_exec_s);
        let timing = JobResult {
            counts: all_counts.last().cloned().expect("non-empty batch"),
            submitted: submit,
            started,
            completed,
            circuit_duration_ns: last_duration_ns,
        };
        (all_counts, timing)
    }

    /// Executes a batch of *compiled template* runs as one cloud job —
    /// the ensemble-client hot path for parameter-shift pairs.
    ///
    /// Each [`TemplateRun`] names a template (by index into `templates`)
    /// and an optional shift; the shared `params` vector binds every
    /// run. Templates compile at most once per noise token: on a
    /// drifting device that is once per job, and what it costs is a
    /// refresh of the numbers in a program planned by the template's
    /// first job (see [`CompiledTemplate`]). Runs group by template:
    /// each group binds its
    /// base once and walks the tape once, forking every shifted member
    /// at the op its shift rebinds (a forward/backward pair is a group
    /// of two, an unshifted run is the walk itself); the forked suffixes
    /// then resume on the same engine. Evolution is RNG-free and
    /// sampling consumes the RNG in run order, so counts and timing are
    /// bit-identical to evolving every run on its own.
    ///
    /// Binding each circuit with [`Circuit::bind_with_shift`] and
    /// calling [`QpuBackend::execute_batch`] is *not* bit-identical: a
    /// bound circuit has no parameterized slot, so its rotations fuse
    /// into the neighbouring clusters and the evolved state agrees to
    /// ~1e-16 — equal counts on every pinned fixture, not equal bits.
    ///
    /// # Panics
    ///
    /// Panics on an empty run list, an out-of-range template index, a
    /// parameter vector that does not cover a template, or the density
    /// cap (as in [`QpuBackend::execute`]).
    pub fn execute_templates(
        &mut self,
        templates: &mut [&mut CompiledTemplate],
        runs: &[TemplateRun],
        params: &[f64],
        shots: usize,
        submit: SimTime,
    ) -> (Vec<Counts>, JobResult) {
        assert!(!runs.is_empty(), "batch must contain at least one run");
        let started = self.start_time(submit);
        let mut all_counts = Vec::with_capacity(runs.len());
        let mut total_exec_s = 0.0;
        let mut last_duration_ns = 0.0;
        if self.legacy_execution {
            // The pre-engine client flow: bind a fresh circuit per run,
            // rebuild the noise model per run, walk the schedule.
            let cal = self.actual_calibration(started);
            for run in runs {
                let template = &*templates[run.template];
                let bound = match run.shift {
                    Some((gate_idx, delta)) => {
                        template.circuit().bind_with_shift(params, gate_idx, delta)
                    }
                    None => template.circuit().bind(params),
                }
                .expect("parameter vector covers template");
                let noise = NoiseModel::from_calibration(&cal, template.active_physical());
                let (counts, duration) = self.run_circuit_reference(&bound, &noise, shots);
                total_exec_s += self.queue.execution_s(duration, cal.readout_time_ns, shots);
                last_duration_ns = duration;
                all_counts.push(counts);
            }
        } else {
            let token = self.noise_token(started);
            // Density evolution is RNG-free, so the batch splits
            // into an evolution phase — one walk per template,
            // every shifted run forked off it — and a sampling
            // phase that consumes the RNG in run order. Each
            // run's distribution is bit for bit what evolving
            // it on its own would give (the group-fork contract
            // of [`DensityEngine::evolve_group_forks`]); the
            // whole batch follows because sampling, `f64`
            // accumulation and every counter sequence stay in
            // run order.
            //
            // Bookkeeping pass — per run, so the noise and
            // compile counters do not depend on the grouping.
            let mut meta = Vec::with_capacity(runs.len());
            for run in runs {
                let entry = self.noise_entry(started, templates[run.template].active_physical());
                let noise = &*self.noise_cache.entries[entry].model;
                let template = &mut *templates[run.template];
                template.ensure_compiled(noise, token);
                let program = template.program();
                assert_density_fits(program.num_qubits());
                meta.push((
                    program.duration_ns(),
                    noise.readout_time_ns,
                    program.num_qubits(),
                ));
            }
            if self.run_probs.len() < runs.len() {
                self.run_probs.resize_with(runs.len(), Vec::new);
            }
            // Group runs by template, in first-appearance order.
            let mut group_of: Vec<Option<usize>> = vec![None; templates.len()];
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for (i, run) in runs.iter().enumerate() {
                let g = *group_of[run.template].get_or_insert_with(|| {
                    groups.push((run.template, Vec::new()));
                    groups.len() - 1
                });
                groups[g].1.push(i);
            }
            // Phase A1 — per group: bind the base once and fork
            // every shifted member off one walk (which stops at
            // the last fork when no member is unshifted).
            // Unshifted members share the base distribution:
            // evolution is deterministic, so a copy is what
            // re-evolving would give.
            let mut suffixes: Vec<(usize, usize, usize, DensityMatrix)> = Vec::new();
            let mut forks = Vec::new();
            for &(t, ref members) in &groups {
                let template = &mut *templates[t];
                template.bind(params, None);
                let mut variants = Vec::new();
                let mut variant_run = Vec::new();
                let mut base_runs = Vec::new();
                for &i in members {
                    match runs[i].shift {
                        Some((g, d)) => {
                            variants.push(template.shift_matrix(params, g, d));
                            variant_run.push(i);
                        }
                        None => base_runs.push(i),
                    }
                }
                self.density_engine.evolve_group_forks(
                    template.program(),
                    &variants,
                    &mut forks,
                    base_runs.first().map(|&i| &mut self.run_probs[i]),
                );
                if base_runs.len() > 1 {
                    let src = self.run_probs[base_runs[0]].clone();
                    for &i in &base_runs[1..] {
                        self.run_probs[i].clone_from(&src);
                    }
                }
                for (v, at, state) in forks.drain(..) {
                    suffixes.push((variant_run[v], t, at, state));
                }
            }
            // Phase A2 — resume every fork's suffix on this
            // backend's own engine (its walks are done).
            for &(run_idx, t, at, ref state) in &suffixes {
                self.density_engine.resume_probs(
                    templates[t].program(),
                    state,
                    at,
                    &mut self.run_probs[run_idx],
                );
            }
            self.batched_jobs += runs.len() as u64;
            // Phase B — sample every run's distribution in run
            // order.
            for (i, &(duration_ns, readout_ns, n_qubits)) in meta.iter().enumerate() {
                let counts = self.density_engine.sample_probs(
                    &self.run_probs[i],
                    n_qubits,
                    shots,
                    &mut self.rng,
                );
                total_exec_s += self.queue.execution_s(duration_ns, readout_ns, shots);
                last_duration_ns = duration_ns;
                all_counts.push(counts);
            }
        }
        let completed = self.record_job(submit, started, total_exec_s);
        let timing = JobResult {
            counts: all_counts.last().cloned().expect("non-empty batch"),
            submitted: submit,
            started,
            completed,
            circuit_duration_ns: last_duration_ns,
        };
        (all_counts, timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::CircuitBuilder;

    fn small_backend(seed: u64) -> QpuBackend {
        QpuBackend::new(
            "test_device",
            Topology::line(3),
            Calibration::uniform(3, 90.0, 70.0, 0.001, 0.01, 0.02),
            DriftModel::linear(0.05, 0.01),
            QueueModel::light(5.0),
            24.0,
            seed,
        )
    }

    fn bell_compact() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        b.h(0).cx(0, 1);
        b.build()
    }

    #[test]
    fn execute_advances_virtual_time() {
        let mut be = small_backend(1);
        let r = be.execute(&bell_compact(), &[0, 1], 1024, SimTime::ZERO);
        assert!(r.started.as_secs() > 0.0);
        assert!(r.completed > r.started);
        assert_eq!(r.counts.total(), 1024);
        assert_eq!(be.jobs_executed(), 1);
    }

    #[test]
    fn device_serializes_jobs() {
        let mut be = small_backend(2);
        let a = be.execute(&bell_compact(), &[0, 1], 1024, SimTime::ZERO);
        let b = be.execute(&bell_compact(), &[0, 1], 1024, SimTime::ZERO);
        assert!(
            b.started >= a.completed,
            "second job must wait for the first"
        );
    }

    #[test]
    fn reported_calibration_is_frozen_within_cycle() {
        let be = small_backend(3);
        let a = be.reported_calibration(SimTime::from_hours(1.0));
        let b = be.reported_calibration(SimTime::from_hours(23.0));
        assert_eq!(a, b);
        // New cycle -> new jitter.
        let c = be.reported_calibration(SimTime::from_hours(25.0));
        assert_ne!(a.mean_cx_error(), c.mean_cx_error());
    }

    #[test]
    fn recal_jitter_widens_the_reported_swing() {
        // The same device with a larger jitter sigma reports a wider
        // spread of error rates across recalibration cycles.
        let spread = |sigma: f64| {
            let be = small_backend(11).with_recal_jitter(sigma);
            let errors: Vec<f64> = (0..8)
                .map(|cycle| {
                    be.reported_calibration(SimTime::from_hours(cycle as f64 * 24.0 + 1.0))
                        .mean_cx_error()
                })
                .collect();
            let max = errors.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let min = errors.iter().copied().fold(f64::INFINITY, f64::min);
            max / min
        };
        assert!(spread(0.0) == 1.0, "zero jitter reports a flat calibration");
        assert!(
            spread(2.0) > 4.0 * spread(0.12),
            "large sigma must widen the cycle-to-cycle swing"
        );
    }

    #[test]
    fn actual_noise_degrades_with_staleness() {
        let be = small_backend(4);
        let fresh = be.actual_calibration(SimTime::from_hours(0.1));
        let stale = be.actual_calibration(SimTime::from_hours(20.0));
        assert!(stale.mean_cx_error() > fresh.mean_cx_error());
        // Reported stays flat.
        let rf = be.reported_calibration(SimTime::from_hours(0.1));
        let rs = be.reported_calibration(SimTime::from_hours(20.0));
        assert_eq!(rf.mean_cx_error(), rs.mean_cx_error());
    }

    #[test]
    fn determinism_under_same_seed() {
        let mut a = small_backend(7);
        let mut b = small_backend(7);
        let ra = a.execute(&bell_compact(), &[0, 1], 2048, SimTime::ZERO);
        let rb = b.execute(&bell_compact(), &[0, 1], 2048, SimTime::ZERO);
        assert_eq!(ra.counts, rb.counts);
        assert_eq!(ra.completed.as_secs(), rb.completed.as_secs());
    }

    #[test]
    fn downtime_defers_jobs() {
        let mut be = small_backend(5).with_downtime_hours(1.0);
        // Submit inside the maintenance tail of the first cycle: the job
        // must start after recalibration at hour 24.
        let r = be.execute(&bell_compact(), &[0, 1], 16, SimTime::from_hours(23.5));
        assert!(
            r.started.as_hours() >= 24.0,
            "started {}",
            r.started.as_hours()
        );
        // A job submitted at cycle start runs promptly.
        let mut be2 = small_backend(5).with_downtime_hours(1.0);
        let r2 = be2.execute(&bell_compact(), &[0, 1], 16, SimTime::ZERO);
        assert!(
            r2.started.as_hours() < 0.1,
            "started {}",
            r2.started.as_hours()
        );
    }

    #[test]
    fn hours_since_calibration_wraps() {
        let be = small_backend(6);
        assert!((be.hours_since_calibration(SimTime::from_hours(30.0)) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn shared_ledger_makes_clones_contend() {
        use crate::queue::{DeviceQueue, LoadModel};
        // Two clones of one physical device (e.g. two tenants): without
        // a shared ledger their timelines are independent; with one, the
        // second clone's job queues behind the first clone's booking.
        let base = small_backend(21);
        let mut iso_a = base.clone();
        let mut iso_b = base.clone();
        let ia = iso_a.execute(&bell_compact(), &[0, 1], 1024, SimTime::ZERO);
        let ib = iso_b.execute(&bell_compact(), &[0, 1], 1024, SimTime::ZERO);
        assert!(ib.started < ia.completed, "isolated clones overlap");

        let ledger = Arc::new(Mutex::new(
            DeviceQueue::new(base.queue().clone(), LoadModel::None).unwrap(),
        ));
        let mut shared = base.clone();
        shared.attach_shared_queue(ledger.clone());
        let mut sh_a = shared.clone();
        let mut sh_b = shared;
        let sa = sh_a.execute(&bell_compact(), &[0, 1], 1024, SimTime::ZERO);
        let sb = sh_b.execute(&bell_compact(), &[0, 1], 1024, SimTime::ZERO);
        assert!(
            sb.started >= sa.completed,
            "shared clones must serialize on one timeline"
        );
        assert_eq!(ledger.lock().unwrap().jobs_booked(), 2);
        assert!(sh_b.queued_seconds() > sh_a.queued_seconds());
    }

    #[test]
    fn shared_ledger_single_clone_replays_isolated_path() {
        use crate::queue::{DeviceQueue, LoadModel};
        // One clone + zero exogenous load: the ledger's arithmetic is
        // bit-identical to the private busy_until path — the fleet-level
        // equivalence oracle, pinned here at the backend level.
        let mut iso = small_backend(22);
        let mut shared = small_backend(22);
        shared.attach_shared_queue(Arc::new(Mutex::new(
            DeviceQueue::new(shared.queue().clone(), LoadModel::None).unwrap(),
        )));
        for i in 0..4 {
            let at = SimTime::from_hours(i as f64 * 2.0);
            let a = iso.execute(&bell_compact(), &[0, 1], 512, at);
            let b = shared.execute(&bell_compact(), &[0, 1], 512, at);
            assert_eq!(a.counts, b.counts);
            assert_eq!(a.started, b.started);
            assert_eq!(a.completed, b.completed);
        }
    }

    #[test]
    fn a_backend_keeps_no_state_besides_its_engines() {
        // Memory guard: forks are parked for one call only and resume
        // on the backend's own engine.
        let mut b = CircuitBuilder::new(2);
        b.h(0).ry_sym(0, 0).cx(0, 1).ry_sym(1, 1);
        let circuit = b.build();
        let shifted = |g: usize, d: f64| TemplateRun {
            template: 0,
            shift: Some((g, d)),
        };
        // Gate layout: h at 0, ry_sym at 1 and 3, cx at 2.
        let runs = [
            shifted(1, 0.5),
            shifted(1, -0.5),
            shifted(3, 0.5),
            shifted(3, -0.5),
        ];
        let mut be = small_backend(41);
        let mut template = CompiledTemplate::new(circuit, vec![0, 1]);
        be.execute_templates(&mut [&mut template], &runs, &[0.3, 0.7], 64, SimTime::ZERO);
        assert_eq!(
            format!("{be:?}").matches("DensityMatrix").count(),
            1,
            "the engine's own state and nothing else"
        );
    }

    #[test]
    fn shared_noise_cache_is_bit_invisible_across_recalibration() {
        // Three identical clones of one physical device (the fleet's
        // co-tenant view), each running jobs that straddle the hour-24
        // recalibration boundary. Whether the per-cycle noise artifacts
        // are built per clone or once through a fleet-wide shared cache
        // must be invisible in the results, bit for bit.
        let hours = [1.0, 23.0, 25.0, 30.0];
        let run = |caches: &[Arc<SharedNoiseCache>]| -> Vec<JobResult> {
            let mut results = Vec::new();
            for cache in caches {
                let mut be = small_backend(7);
                be.attach_shared_noise(Arc::clone(cache));
                for h in hours {
                    results.push(be.execute(&bell_compact(), &[0, 1], 256, SimTime::from_hours(h)));
                }
            }
            results
        };
        let detached: Vec<JobResult> = (0..3)
            .flat_map(|_| {
                let mut be = small_backend(7);
                hours.map(|h| be.execute(&bell_compact(), &[0, 1], 256, SimTime::from_hours(h)))
            })
            .collect();
        let private_caches: Vec<Arc<SharedNoiseCache>> =
            (0..3).map(|_| Arc::<SharedNoiseCache>::default()).collect();
        let private = run(&private_caches);
        let shared_cache = Arc::<SharedNoiseCache>::default();
        let shared = run(&[
            Arc::clone(&shared_cache),
            Arc::clone(&shared_cache),
            Arc::clone(&shared_cache),
        ]);
        let same = |a: &[JobResult], b: &[JobResult]| {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    x.counts == y.counts
                        && x.submitted == y.submitted
                        && x.started == y.started
                        && x.completed == y.completed
                        && x.circuit_duration_ns.to_bits() == y.circuit_duration_ns.to_bits()
                })
        };
        assert!(
            same(&detached, &private),
            "a private cache must replay the cache-free path byte for byte"
        );
        assert!(
            same(&private, &shared),
            "cross-clone sharing must replay per-clone builds byte for byte"
        );
        let private_builds: u64 = private_caches.iter().map(|c| c.builds()).sum();
        assert!(
            shared_cache.builds() < private_builds,
            "sharing must build strictly fewer artifacts: shared {} vs per-clone {}",
            shared_cache.builds(),
            private_builds
        );
        assert!(
            shared_cache.hits() > 0,
            "later clones must hit the first clone's builds"
        );
        assert_eq!(
            private_caches.iter().map(|c| c.hits()).sum::<u64>(),
            0,
            "a single-clone cache has no cross-clone hits to serve"
        );
    }

    /// A GHZ chain one qubit wider than the density engine takes, laid
    /// on the first physical qubits of a 27-qubit heavy-hex device.
    fn over_cap_job() -> (QpuBackend, CircuitBuilder, Vec<usize>) {
        let n = DensityMatrix::MAX_QUBITS + 1;
        let backend = crate::catalog::by_name("toronto")
            .expect("27-qubit heavy-hex device")
            .backend(5);
        let mut b = CircuitBuilder::new(n);
        b.h(0);
        for q in 0..n - 1 {
            b.cx(q, q + 1);
        }
        (backend, b, (0..n).collect())
    }

    #[test]
    #[should_panic(expected = "13 active qubits exceed DensityMatrix::MAX_QUBITS = 12; \
                               transpile the circuit onto fewer active qubits")]
    fn execute_rejects_a_circuit_wider_than_the_density_cap() {
        let (mut be, b, active) = over_cap_job();
        be.execute(&b.build(), &active, 64, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "13 active qubits exceed DensityMatrix::MAX_QUBITS = 12; \
                               transpile the circuit onto fewer active qubits")]
    fn execute_templates_rejects_a_template_wider_than_the_density_cap() {
        let (mut be, mut b, active) = over_cap_job();
        b.ry_sym(0, 0);
        let mut template = CompiledTemplate::new(b.build(), active);
        let runs = [TemplateRun {
            template: 0,
            shift: None,
        }];
        be.execute_templates(&mut [&mut template], &runs, &[0.3], 64, SimTime::ZERO);
    }
}
