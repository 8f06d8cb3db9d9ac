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
//! then built exactly once per cycle), and the device additionally keeps
//! one compiled program per problem template: planned once, its numbers
//! refreshed per noise token — per job, on a drifting device (see
//! [`crate::compile::CompiledTemplate`]). All caches key on values, not
//! time, so caching never changes a result. The uncached pre-engine path
//! is test ground truth and ships in no library: the dev-only
//! `eqc-oracle` crate runs it through [`QpuBackend::execute_with`] and
//! holds this one to equal counts and timing on every pinned fixture
//! (states agree to 1e-12, see [`qsim::program`]).
//!
//! ## Noise and templates belong to the device
//!
//! A clone of a backend is the same machine: same seed, calibration,
//! jitter and drift, hence the same noise at every instant — the
//! paper's per-device calibration and drift. So every clone shares its
//! device's identity: the id in its [`NoiseToken`]s, one
//! [`SharedNoiseCache`] of the per-cycle noise artifacts and one
//! [`SharedTemplateCache`] of prepared problem templates. A fleet's
//! (tenant × device) clones thus build each noise artifact and plan
//! each template once per device, with nothing to attach. Only two
//! things give a backend a fresh identity: [`QpuBackend::new`] (two
//! backends built alike share nothing) and
//! [`QpuBackend::with_recal_jitter`], which changes the noise. Each
//! clone keeps its own cache of the current cycle in front of the
//! shared noise cache, so it takes the shared lock only on its first
//! use of a cycle or an active set.
//!
//! A [`DeviceTemplate`] is what the paper's client derives from a
//! template once per device (Algorithm 2): the transpiled compact
//! circuit as a [`CompiledTemplate`], each parameter's occurrences, the
//! logical bit order and the Eq. 2 metrics. Sharing it is exact: a
//! template's plan and numbers are a pure function of (circuit, active
//! qubits, [`NoiseToken`]), tokens are per device, and
//! [`CompiledTemplate::bind`] rewrites every rebind slot on every job,
//! so whichever clone refreshed or bound an entry last leaves nothing a
//! job can see. Its compiled template sits behind its own lock, held
//! for a whole job through [`TemplateLocks`]. Lock order: a job takes
//! its entries' locks first — each distinct entry once, in address
//! order — and the noise cache's and the queue ledger's locks only
//! under them; neither of those is ever held while an entry is locked.
//!
//! ## Transpile output belongs to the architecture
//!
//! Of what a device derives from a template, only the plan and its
//! numbers depend on the device's noise. The compact circuit, the
//! active physical qubits, the occurrence lists, the logical bit order
//! and the Eq. 2 metrics are a pure function of (template,
//! [`Topology`]) — the paper's "architecture and transpilation" input,
//! apart from its "runtime conditions". They live in one entry of an
//! [`ArchitectureTemplates`] cache, keyed like the device's by the
//! template's bits, and every device of the architecture holds that
//! entry by `Arc`; only its [`CompiledTemplate`]'s plan, numbers and
//! token are its own. The cache is shared by the devices minted
//! together ([`QpuBackend::share_architectures`]: one ensemble or
//! fleet) whose topologies are equal as values — name included, since
//! the router treats topologies named `full*` apart — so a fleet
//! transpiles each template once per coupling map, not once per
//! device. [`QpuBackend::with_recal_jitter`] keeps the architecture
//! cache: jitter moves the noise, not the coupling map. Lock order: a
//! device's template cache lock first, then the architecture cache's,
//! never the reverse; jobs never take the architecture lock.
//!
//! ## One booking entry
//!
//! Every job books through [`QpuBackend::execute_with`]: it draws the
//! start time, hands the simulation to its caller's closure, then sums
//! the circuits' execution seconds, books the occupancy and assembles
//! the [`JobResult`]. [`QpuBackend::execute`] and
//! [`QpuBackend::execute_templates`] are its two production callers.
//!
//! Template jobs ([`QpuBackend::execute_templates`], the training hot
//! path) have one density implementation: one walk per template from
//! `|0..0><0..0|`, every shifted run forked off it at the op its shift
//! rebinds, the forked suffixes resumed one after another, then one
//! sampling loop in run order.
//!
//! ## Simulation scratch belongs to the thread
//!
//! A backend holds device state only: calibration, drift, RNG, queue
//! timeline and the device's caches. The simulator — one [`DensityEngine`] with
//! its state, spare fork states and sampler tables, plus the per-run
//! distribution buffers — is a thread-local scratch that serves every
//! backend executing on that thread. Nothing in it carries from one
//! call to the next as a result: each walk resets the state, evolution
//! is RNG-free, and sampling draws from the backend's own RNG, so which
//! thread runs a job never shows in its counts. Memory then scales with
//! threads, not with the (tenant × device) clones of a fleet.
//! Parallelism is one layer up: `eqc_core` runs whole client tasks —
//! one backend each — on its scoped worker pool, so each worker has its
//! own scratch and frees it when the drive ends; an inline drive uses
//! the caller's.

use crate::calibration::{Calibration, QubitCalibration};
use crate::clock::SimTime;
use crate::compile::{CompiledTemplate, NoiseToken};
use crate::drift::DriftModel;
use crate::noise_model::{NoiseModel, QubitNoise};
use crate::queue::{DeviceQueue, QueueModel};
use qcircuit::{Angle, Circuit, ParamId};
use qsim::{Counts, DensityEngine, DensityMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use transpile::{transpile, CircuitMetrics, Topology, TranspileError, TranspileOptions};

/// The executing thread's simulator (see the module docs).
#[derive(Default)]
struct Scratch {
    engine: DensityEngine,
    /// Per-run distributions of [`QpuBackend::execute_templates`]'
    /// evolve-then-sample split (reused across calls).
    run_probs: Vec<Vec<f64>>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Runs `f` on the executing thread's scratch.
fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Spare fork states the executing thread's engine holds.
#[cfg(test)]
fn thread_spare_states() -> usize {
    with_scratch(|s| s.engine.spare_states())
}

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
/// Base and model are `Arc`'d so the clones of one device share one
/// build through its [`SharedNoiseCache`].
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

/// The noise artifacts of one device, shared by all its clones (see
/// the module docs: a clone is the same machine). Clones share seed,
/// base calibration, jitter and drift model, so the reported
/// calibration of a cycle, the projected `BaseNoise` of a
/// `(cycle, active)` pair and the drifted model of a
/// `(cycle, factors, active)` triple are all pure functions of their
/// keys: whichever clone builds an artifact, every clone reads the same
/// bits. A fleet gives each tenant one clone per device, so each
/// artifact is built once per device instead of once per clone.
///
/// Builds happen *under* the cache lock: exactly one build per key even
/// when pooled workers race, so the `builds`/`hits` totals are
/// deterministic. Entries are value-keyed and never evicted — a clone
/// consults the cache only on its own first use of a cycle or active
/// set (never on a drift-factor refresh), so growth is bounded by
/// cycles touched, not jobs executed. The cache lives as long as the
/// device's last clone.
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

/// One problem template transpiled for one architecture: everything a
/// device derives from the template that depends on the coupling map
/// alone (see the module docs), shared by every device of the
/// architecture through its [`ArchitectureTemplates`].
struct ArchitectureTemplate {
    /// The logical template: the key of this entry and of every
    /// device's [`DeviceTemplate`] built from it.
    template: Circuit,
    /// The compacted symbolic physical circuit and the physical qubit
    /// behind each compact qubit: what each device's
    /// [`CompiledTemplate`] plans from, held by `Arc` there too.
    circuit: Arc<Circuit>,
    active_physical: Arc<[usize]>,
    /// Gate indices of the parameters' occurrences in the compact
    /// circuit, parameter after parameter: two allocations per entry
    /// instead of one per parameter.
    occurrences: Vec<usize>,
    /// Where each parameter's occurrences end in `occurrences`, indexed
    /// by [`ParamId`].
    occurrence_ends: Vec<usize>,
    /// Bit position of each logical qubit in the compact register.
    logical_bits: Vec<usize>,
    /// Structural metrics of the transpiled circuit (Eq. 2 inputs).
    metrics: CircuitMetrics,
}

impl ArchitectureTemplate {
    /// Transpiles `template` for `topology` and compacts it. The
    /// transpiler's full-register circuit and layouts are dropped here.
    fn transpile(template: &Circuit, topology: &Topology) -> Result<Self, TranspileError> {
        let transpiled = transpile(template, topology, &TranspileOptions::default())?;
        let (compact, logical_bits) = transpiled.compact_for_simulation()?;
        // The transpiler must preserve parameter occurrences, or the
        // shift rule would silently drop gradient terms — and the
        // pooled executor's deterministic lookahead classifies instant
        // (zero-occurrence) tasks from the *un-transpiled* templates, so
        // this invariant is load-bearing in release builds too (a hard
        // assert, not a debug assert).
        for p in 0..template.num_params() {
            assert_eq!(
                compact.occurrences_of(ParamId(p)).len(),
                template.occurrences_of(ParamId(p)).len(),
                "transpilation changed occurrence structure"
            );
        }
        let mut occurrences = Vec::new();
        let mut occurrence_ends = Vec::with_capacity(compact.num_params());
        for p in 0..compact.num_params() {
            occurrences.extend(compact.occurrences_of(ParamId(p)));
            occurrence_ends.push(occurrences.len());
        }
        Ok(ArchitectureTemplate {
            template: template.clone(),
            circuit: Arc::new(compact),
            active_physical: transpiled.active_qubits().into(),
            occurrences,
            occurrence_ends,
            logical_bits,
            metrics: transpiled.metrics,
        })
    }
}

/// One problem template prepared for one device, shared by all its
/// clones (see the module docs): the architecture's transpiled entry
/// and the device's own compiled template, which alone changes after
/// preparation and so alone sits behind a lock.
pub struct DeviceTemplate {
    /// Compiled form of the compacted symbolic physical circuit: the
    /// op-tape planned once, its channel numbers refreshed per noise
    /// token, its rotations rebound per job.
    compiled: Mutex<CompiledTemplate>,
    architecture: Arc<ArchitectureTemplate>,
}

impl fmt::Debug for DeviceTemplate {
    /// The compiled template (whose circuit is the compact one) and the
    /// architecture's figures — the logical template and a second copy
    /// of the compact circuit's `Arc` are left out.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = &*self.architecture;
        f.debug_struct("DeviceTemplate")
            .field("compiled", &self.compiled)
            .field("occurrences", &a.occurrences)
            .field("occurrence_ends", &a.occurrence_ends)
            .field("logical_bits", &a.logical_bits)
            .field("metrics", &a.metrics)
            .finish()
    }
}

impl DeviceTemplate {
    /// A device's entry over the architecture's: a compiled template
    /// not yet planned.
    fn new(architecture: Arc<ArchitectureTemplate>) -> Self {
        let compiled = CompiledTemplate::shared(
            Arc::clone(&architecture.circuit),
            Arc::clone(&architecture.active_physical),
        );
        DeviceTemplate {
            compiled: Mutex::new(compiled),
            architecture,
        }
    }

    /// Gate indices where `param` occurs in the compact circuit (empty
    /// when the parameter is absent).
    pub fn occurrences(&self, param: ParamId) -> &[usize] {
        let a = &*self.architecture;
        let p = param.index();
        let Some(&end) = a.occurrence_ends.get(p) else {
            return &[];
        };
        let start = p.checked_sub(1).map_or(0, |q| a.occurrence_ends[q]);
        &a.occurrences[start..end]
    }

    /// Bit position of each logical qubit in the compact register (for
    /// [`transpile::remap_counts`]).
    pub fn logical_bits(&self) -> &[usize] {
        &self.architecture.logical_bits
    }

    /// Metrics of the transpiled circuit (inputs to Eq. 2).
    pub fn metrics(&self) -> &CircuitMetrics {
        &self.architecture.metrics
    }

    /// Locks the compiled template. A lock poisoned by a job that
    /// panicked mid-compile, -bind or -evolution is recovered with its
    /// noise token forgotten, so the next job refreshes the program
    /// instead of reusing it as the panic left it (every bind rewrites
    /// all rebind slots anyway). Jobs lock through [`TemplateLocks`].
    fn lock(&self) -> MutexGuard<'_, CompiledTemplate> {
        self.compiled.lock().unwrap_or_else(|poisoned| {
            self.compiled.clear_poison();
            let mut compiled = poisoned.into_inner();
            compiled.forget_token();
            compiled
        })
    }
}

/// The entries of a template cache, one per logical template (compared
/// bit for bit), and its counters.
///
/// Entries are built *under* the cache's lock — exactly one build per
/// key even when callers race, so the `builds`/`hits` totals are
/// deterministic — and never evicted. A build that fails is returned
/// as its error and not cached.
struct TemplateEntries<T> {
    entries: Vec<Arc<T>>,
    builds: u64,
    hits: u64,
}

impl<T> Default for TemplateEntries<T> {
    fn default() -> Self {
        TemplateEntries {
            entries: Vec::new(),
            builds: 0,
            hits: 0,
        }
    }
}

impl<T> TemplateEntries<T> {
    /// The entry whose `key` is `template`, built with `build` on the
    /// first request.
    fn get_or_build(
        &mut self,
        template: &Circuit,
        key: impl Fn(&T) -> &Circuit,
        build: impl FnOnce() -> Result<T, TranspileError>,
    ) -> Result<Arc<T>, TranspileError> {
        if let Some(entry) = self.entries.iter().find(|e| same_bits(key(e), template)) {
            self.hits += 1;
            return Ok(Arc::clone(entry));
        }
        let entry = Arc::new(build()?);
        self.builds += 1;
        self.entries.push(Arc::clone(&entry));
        Ok(entry)
    }
}

impl<T> fmt::Debug for TemplateEntries<T> {
    /// Counts only: every device's client already prints the entries
    /// it holds.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemplateEntries")
            .field("entries", &self.entries.len())
            .field("builds", &self.builds)
            .field("hits", &self.hits)
            .finish()
    }
}

/// The prepared templates of one device, shared by all its clones (see
/// the module docs): one [`DeviceTemplate`] per logical template,
/// compared bit for bit; every clone asking for a template gets the
/// same `Arc`. Preparing an entry transpiles nothing the device's
/// [`ArchitectureTemplates`] already holds.
///
/// Like [`SharedNoiseCache`], entries are prepared *under* the cache
/// lock — exactly one per key even when clones race, so the
/// `builds`/`hits` totals are deterministic — and never evicted. A
/// template that does not fit the device is returned as an error and
/// not cached.
#[derive(Debug, Default)]
pub struct SharedTemplateCache {
    state: Mutex<TemplateEntries<DeviceTemplate>>,
}

impl SharedTemplateCache {
    /// Templates prepared for the device so far — one per (device,
    /// template) (telemetry).
    pub fn builds(&self) -> u64 {
        self.state.lock().expect("shared template lock").builds
    }

    /// Lookups served by an existing entry so far (telemetry).
    pub fn hits(&self) -> u64 {
        self.state.lock().expect("shared template lock").hits
    }

    /// The entry for `template`, preparing it over the architecture's
    /// entry on the first device-wide request. The architecture's lock
    /// is taken under this cache's, never the reverse.
    fn get_or_prepare(
        &self,
        template: &Circuit,
        architecture: &ArchitectureTemplates,
        topology: &Topology,
    ) -> Result<Arc<DeviceTemplate>, TranspileError> {
        let mut s = self.state.lock().expect("shared template lock");
        s.get_or_build(
            template,
            |entry| &entry.architecture.template,
            || {
                Ok(DeviceTemplate::new(
                    architecture.get_or_transpile(template, topology)?,
                ))
            },
        )
    }
}

/// The transpiled templates of one architecture, shared by the devices
/// minted together on an equal [`Topology`] (see the module docs): one
/// transpile per (architecture, template), where a
/// [`SharedTemplateCache`] counts one preparation per (device,
/// template). Entries are keyed, built and kept like the device
/// cache's; a template that does not fit is an error and not cached.
#[derive(Debug, Default)]
pub struct ArchitectureTemplates {
    state: Mutex<TemplateEntries<ArchitectureTemplate>>,
}

impl ArchitectureTemplates {
    /// Templates transpiled for the architecture so far (telemetry).
    pub fn transpiles(&self) -> u64 {
        self.state
            .lock()
            .expect("architecture template lock")
            .builds
    }

    /// Lookups served by an existing entry so far (telemetry).
    pub fn hits(&self) -> u64 {
        self.state.lock().expect("architecture template lock").hits
    }

    /// The entry for `template`, transpiling it for `topology` on the
    /// first request of any device of the architecture.
    fn get_or_transpile(
        &self,
        template: &Circuit,
        topology: &Topology,
    ) -> Result<Arc<ArchitectureTemplate>, TranspileError> {
        let mut s = self.state.lock().expect("architecture template lock");
        s.get_or_build(
            template,
            |entry| &entry.template,
            || ArchitectureTemplate::transpile(template, topology),
        )
    }
}

/// Whether two circuits are the same bits: width, parameter count, and
/// gate for gate the same kind, operands and angle bits (`0.0` and
/// `-0.0` differ; `PartialEq` on the angles would merge them).
fn same_bits(a: &Circuit, b: &Circuit) -> bool {
    fn angle_bits(angle: Option<Angle>) -> Option<(u8, usize, u64, u64)> {
        angle.map(|angle| match angle {
            Angle::Fixed(v) => (0, 0, v.to_bits(), 0),
            Angle::Sym(p) => (1, p.index(), 0, 0),
            Angle::Affine { id, scale, offset } => {
                (2, id.index(), scale.to_bits(), offset.to_bits())
            }
        })
    }
    a.num_qubits() == b.num_qubits()
        && a.num_params() == b.num_params()
        && a.len() == b.len()
        && a.gates().iter().zip(b.gates()).all(|(x, y)| {
            std::mem::discriminant(x) == std::mem::discriminant(y)
                && x.qubits() == y.qubits()
                && angle_bits(x.angle()) == angle_bits(y.angle())
        })
}

/// The distinct [`DeviceTemplate`]s of one job, locked until dropped —
/// how a client hands its entries to [`QpuBackend::execute_templates`].
///
/// Entries are deduplicated by identity ([`Arc::ptr_eq`]), not by the
/// caller's template index, so a problem that lists one circuit twice
/// locks its entry once instead of deadlocking on itself. They are
/// locked in address order, one order for every job, so two jobs whose
/// slices list shared entries in opposite orders cannot deadlock each
/// other.
pub struct TemplateLocks<'a> {
    /// One guard per distinct entry, in first-appearance order.
    guards: Vec<MutexGuard<'a, CompiledTemplate>>,
    slots: Vec<usize>,
}

impl<'a> TemplateLocks<'a> {
    /// Locks each distinct entry among `entries` once.
    pub fn new(entries: impl IntoIterator<Item = &'a Arc<DeviceTemplate>>) -> Self {
        let mut distinct: Vec<&'a Arc<DeviceTemplate>> = Vec::new();
        let slots = entries
            .into_iter()
            .map(
                |entry| match distinct.iter().position(|d| Arc::ptr_eq(d, entry)) {
                    Some(slot) => slot,
                    None => {
                        distinct.push(entry);
                        distinct.len() - 1
                    }
                },
            )
            .collect();
        let mut order: Vec<usize> = (0..distinct.len()).collect();
        order.sort_by_key(|&slot| Arc::as_ptr(distinct[slot]));
        let mut guards: Vec<Option<MutexGuard<'a, CompiledTemplate>>> =
            distinct.iter().map(|_| None).collect();
        for slot in order {
            guards[slot] = Some(distinct[slot].lock());
        }
        TemplateLocks {
            guards: guards.into_iter().flatten().collect(),
            slots,
        }
    }

    /// Per entry passed to [`TemplateLocks::new`], in order, its slot:
    /// the index of its distinct entry — the [`TemplateRun::template`]
    /// of its runs.
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// The compiled template locked in `slot`.
    pub fn template(&self, slot: usize) -> &CompiledTemplate {
        &self.guards[slot]
    }

    /// Every locked template by slot: the template list of
    /// [`QpuBackend::execute_templates`].
    pub fn templates(&mut self) -> Vec<&mut CompiledTemplate> {
        self.guards.iter_mut().map(|guard| &mut **guard).collect()
    }
}

/// Who a backend is: one per [`QpuBackend::new`] (and per
/// [`QpuBackend::with_recal_jitter`]), shared by every clone.
#[derive(Debug)]
struct DeviceIdentity {
    /// Unique per identity — the backend id of every [`NoiseToken`].
    id: u64,
    noise: SharedNoiseCache,
    templates: SharedTemplateCache,
    /// The transpiled templates of the device's architecture, shared
    /// with the devices it was minted with.
    architecture: Arc<ArchitectureTemplates>,
}

impl DeviceIdentity {
    fn fresh(architecture: Arc<ArchitectureTemplates>) -> Arc<Self> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        Arc::new(DeviceIdentity {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            noise: SharedNoiseCache::default(),
            templates: SharedTemplateCache::default(),
            architecture,
        })
    }
}

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
    /// The device this backend is a clone of, and its noise artifacts.
    identity: Arc<DeviceIdentity>,
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
    noise_cache: NoiseCache,
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
            identity: DeviceIdentity::fresh(Arc::default()),
            rng: StdRng::seed_from_u64(seed),
            busy_until: SimTime::ZERO,
            jobs_executed: 0,
            busy_seconds: 0.0,
            queued_seconds: 0.0,
            shared_queue: None,
            noise_cache: NoiseCache::default(),
            batched_jobs: 0,
        }
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
    ///
    /// The jitter changes the device's noise, so the result is a new
    /// device: a fresh identity (new [`NoiseToken`] id, empty
    /// [`SharedNoiseCache`] and [`SharedTemplateCache`]) that no earlier
    /// clone shares. The coupling map is unchanged, so it keeps its
    /// [`ArchitectureTemplates`].
    pub fn with_recal_jitter(mut self, sigma: f64) -> Self {
        self.recal_jitter = sigma.max(0.0);
        self.identity = DeviceIdentity::fresh(Arc::clone(&self.identity.architecture));
        self.noise_cache = NoiseCache::default();
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

    /// The attached shared ledger, if any.
    pub fn shared_queue(&self) -> Option<&Arc<Mutex<DeviceQueue>>> {
        self.shared_queue.as_ref()
    }

    /// The noise artifacts this backend shares with every clone of its
    /// device (telemetry: [`SharedNoiseCache::builds`] and
    /// [`SharedNoiseCache::hits`]).
    pub fn device_noise_cache(&self) -> &SharedNoiseCache {
        &self.identity.noise
    }

    /// The device's prepared `template`: wrapped in a
    /// [`CompiledTemplate`] on the first request of any clone of the
    /// device, over the architecture's entry — transpiled for this
    /// topology and compacted on the first request of any device that
    /// shares the architecture; later requests share those entries.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError`] if the template does not fit the
    /// device; nothing is cached then, at either level.
    pub fn template(&self, template: &Circuit) -> Result<Arc<DeviceTemplate>, TranspileError> {
        let identity = &*self.identity;
        identity
            .templates
            .get_or_prepare(template, &identity.architecture, &self.topology)
    }

    /// The prepared templates this backend shares with every clone of
    /// its device (telemetry: [`SharedTemplateCache::builds`] and
    /// [`SharedTemplateCache::hits`]).
    pub fn device_template_cache(&self) -> &SharedTemplateCache {
        &self.identity.templates
    }

    /// The transpiled templates this backend shares with every device
    /// of its architecture (telemetry: [`ArchitectureTemplates::transpiles`]
    /// and [`ArchitectureTemplates::hits`]).
    pub fn architecture_templates(&self) -> &ArchitectureTemplates {
        &self.identity.architecture
    }

    /// Makes the devices minted together share their architectures:
    /// each backend that no other holds a clone of takes the
    /// [`ArchitectureTemplates`] of the first earlier such backend whose
    /// topology equals its own, name included, so one transpile per
    /// (coupling map, template) serves them all. A backend already
    /// cloned elsewhere keeps its own cache — its clones were not minted
    /// here — and no backend joins a cache that something outside the
    /// call holds too, so nothing outlives the devices passed in.
    /// Sharing never changes a result: an architecture entry is a pure
    /// function of (template, topology).
    pub fn share_architectures<'a>(backends: impl IntoIterator<Item = &'a mut QpuBackend>) {
        let mut firsts: Vec<&'a QpuBackend> = Vec::new();
        for backend in backends {
            let Some(identity) = Arc::get_mut(&mut backend.identity) else {
                continue;
            };
            match firsts
                .iter()
                .find(|first| first.topology == backend.topology)
            {
                Some(first) => {
                    identity.architecture = Arc::clone(&first.identity.architecture);
                }
                None if Arc::strong_count(&identity.architecture) == 1 => firsts.push(backend),
                None => {}
            }
        }
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

    /// Ensures the noise cache covers the cycle containing `t`, reading
    /// the reported calibration from the device's [`SharedNoiseCache`]
    /// on a miss — so it is rebuilt once per cycle per device, not per
    /// clone.
    fn ensure_cycle(&mut self, t: SimTime) {
        let cycle = self.cycle_of(t);
        if self.noise_cache.cycle != Some(cycle) {
            let reported = self
                .identity
                .noise
                .reported(cycle, || self.reported_calibration(t));
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
                let (base, model) =
                    self.identity
                        .noise
                        .base_and_model(cycle, active, factors, || {
                            BaseNoise::project(reported, active)
                        });
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
        NoiseToken::new(self.identity.id, self.cycle_of(started), ef, cf)
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

    /// The device's seeded RNG. Each job draws its start-time jitter
    /// from it first ([`QpuBackend::execute_with`] does), then every
    /// shot of its circuits in order; a simulation handed to
    /// `execute_with` samples from it.
    pub fn shot_rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Books one cloud job — the one entry every job goes through.
    ///
    /// Draws the start time of a job submitted at `submit` (queue wait,
    /// device serialization, maintenance downtime), then calls
    /// `simulate(self, started)`, which runs the job's circuits and
    /// returns `(counts, circuit_duration_ns, readout_time_ns)` per
    /// circuit, in order. The job occupies the device for the sum of
    /// the circuits' [`QueueModel::execution_s`] at `shots` each, summed
    /// in that order: one ledger booking, one [`JobResult`] whose counts
    /// and circuit duration are the last circuit's. A single queue wait
    /// covers the whole job, the way the paper's client submits the
    /// forward and backward shift circuits together (Algorithm 2:
    /// `Job <- Submit C_Transpiled(theta)_FWD,BCK`).
    ///
    /// Returns one histogram per circuit plus the job's timing.
    ///
    /// # Panics
    ///
    /// Panics if `simulate` returns no circuit.
    pub fn execute_with(
        &mut self,
        shots: usize,
        submit: SimTime,
        simulate: impl FnOnce(&mut Self, SimTime) -> Vec<(Counts, f64, f64)>,
    ) -> (Vec<Counts>, JobResult) {
        let started = self.start_time(submit);
        let circuits = simulate(self, started);
        let mut exec_s = 0.0;
        let mut circuit_duration_ns = 0.0;
        let mut all_counts = Vec::with_capacity(circuits.len());
        for (counts, duration_ns, readout_ns) in circuits {
            exec_s += self.queue.execution_s(duration_ns, readout_ns, shots);
            circuit_duration_ns = duration_ns;
            all_counts.push(counts);
        }
        let counts = all_counts.last().cloned().expect("a job runs a circuit");
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
        let timing = JobResult {
            counts,
            submitted: submit,
            started,
            completed,
            circuit_duration_ns,
        };
        (all_counts, timing)
    }

    /// Executes a fully bound, compacted physical circuit as one job.
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
        let (_, job) = self.execute_with(shots, submit, |be, started| {
            let entry = be.noise_entry(started, active_physical);
            assert_density_fits(circuit.num_qubits());
            let noise = &*be.noise_cache.entries[entry].model;
            let program = crate::compile::compile_bound(circuit, noise);
            let counts = with_scratch(|s| s.engine.run_program(&program, shots, &mut be.rng));
            vec![(counts, program.duration_ns(), noise.readout_time_ns)]
        });
        job
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
    /// then resume on the thread's engine, each fork in a spare state the
    /// previous resumes left. Evolution is RNG-free and
    /// sampling consumes the RNG in run order, so counts and timing are
    /// bit-identical to evolving every run on its own.
    ///
    /// Binding each run with [`Circuit::bind_with_shift`] and calling
    /// [`QpuBackend::execute`] on the bound circuit is *not*
    /// bit-identical: a bound circuit has no parameterized slot, so its
    /// rotations fuse into the neighbouring clusters and the evolved
    /// state agrees to ~1e-16 — equal counts on every pinned fixture,
    /// not equal bits.
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
        let job = self.execute_with(shots, submit, |be, started| {
            be.simulate_templates(templates, runs, params, shots, started)
        });
        self.batched_jobs += runs.len() as u64;
        job
    }

    /// The simulation half of [`QpuBackend::execute_templates`].
    ///
    /// Density evolution is RNG-free, so the batch splits into an
    /// evolution phase — one walk per template, every shifted run
    /// forked off it — and a sampling phase that consumes the RNG in
    /// run order. Each run's distribution is bit for bit what evolving
    /// it on its own would give (the group-fork contract of
    /// [`DensityEngine::evolve_group_forks`]); the whole batch follows
    /// because sampling, `f64` accumulation and every counter sequence
    /// stay in run order.
    fn simulate_templates(
        &mut self,
        templates: &mut [&mut CompiledTemplate],
        runs: &[TemplateRun],
        params: &[f64],
        shots: usize,
        started: SimTime,
    ) -> Vec<(Counts, f64, f64)> {
        let token = self.noise_token(started);
        // Bookkeeping pass — per run, so the noise and compile counters
        // do not depend on the grouping.
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
        let rng = &mut self.rng;
        with_scratch(|Scratch { engine, run_probs }| {
            if run_probs.len() < runs.len() {
                run_probs.resize_with(runs.len(), Vec::new);
            }
            // Phase A1 — per group: bind the base once and fork every
            // shifted member off one walk (which stops at the last fork
            // when no member is unshifted). Unshifted members share the
            // base distribution: evolution is deterministic, so a copy
            // is what re-evolving would give.
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
                engine.evolve_group_forks(
                    template.program(),
                    &variants,
                    &mut forks,
                    base_runs.first().map(|&i| &mut run_probs[i]),
                );
                if base_runs.len() > 1 {
                    let src = run_probs[base_runs[0]].clone();
                    for &i in &base_runs[1..] {
                        run_probs[i].clone_from(&src);
                    }
                }
                for (v, at, state) in forks.drain(..) {
                    suffixes.push((variant_run[v], t, at, state));
                }
            }
            // Phase A2 — resume every fork's suffix; each resumed fork
            // becomes the engine's state, and the state it replaces a
            // spare for the next call's forks.
            for (run_idx, t, at, state) in suffixes {
                engine.resume_probs(templates[t].program(), state, at, &mut run_probs[run_idx]);
            }
            // Phase B — sample every run's distribution in run order.
            meta.iter()
                .enumerate()
                .map(|(i, &(duration_ns, readout_ns, n_qubits))| {
                    let counts = engine.sample_probs(&run_probs[i], n_qubits, shots, rng);
                    (counts, duration_ns, readout_ns)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::CircuitBuilder;

    fn line_backend(n: usize, seed: u64) -> QpuBackend {
        QpuBackend::new(
            "test_device",
            Topology::line(n),
            Calibration::uniform(n, 90.0, 70.0, 0.001, 0.01, 0.02),
            DriftModel::linear(0.05, 0.01),
            QueueModel::light(5.0),
            24.0,
            seed,
        )
    }

    fn small_backend(seed: u64) -> QpuBackend {
        line_backend(3, seed)
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

    /// Template jobs on one backend of an `n`-qubit line: an `Ry(theta_q)`
    /// layer and a CX chain, shifted both ways on its first and last
    /// rotation (four forks) beside one unshifted run.
    struct WidthFixture {
        be: QpuBackend,
        template: CompiledTemplate,
        followup: Circuit,
        params: Vec<f64>,
        runs: Vec<TemplateRun>,
        submit: SimTime,
    }

    impl WidthFixture {
        const FORKS: usize = 4;

        fn new(n: usize, seed: u64) -> Self {
            let mut b = CircuitBuilder::new(n);
            for q in 0..n {
                b.ry_sym(q, q);
            }
            for q in 0..n - 1 {
                b.cx(q, q + 1);
            }
            let circuit = b.build();
            let params: Vec<f64> = (0..n).map(|q| 0.3 + 0.2 * q as f64).collect();
            let mut runs: Vec<TemplateRun> = [0, n - 1]
                .into_iter()
                .flat_map(|g| {
                    [0.5, -0.5].map(|d| TemplateRun {
                        template: 0,
                        shift: Some((g, d)),
                    })
                })
                .collect();
            runs.push(TemplateRun {
                template: 0,
                shift: None,
            });
            WidthFixture {
                be: line_backend(n, seed),
                template: CompiledTemplate::new(circuit.clone(), (0..n).collect()),
                followup: circuit.bind(&params).expect("params cover the circuit"),
                params,
                runs,
                submit: SimTime::ZERO,
            }
        }

        /// One template job, then a bound follow-up job: the per-run
        /// counts, the job's completion-time bits, and the follow-up's
        /// counts (which see the RNG state the job left).
        fn call(&mut self) -> (Vec<Counts>, u64, Counts) {
            let active: Vec<usize> = (0..self.params.len()).collect();
            let (counts, timing) = self.be.execute_templates(
                &mut [&mut self.template],
                &self.runs,
                &self.params,
                256,
                self.submit,
            );
            let next = self
                .be
                .execute(&self.followup, &active, 256, timing.completed);
            self.submit = next.completed;
            (counts, timing.completed.as_secs().to_bits(), next.counts)
        }
    }

    #[test]
    fn a_backend_holds_no_simulator_state() {
        // Memory guard: the simulator belongs to the thread, so a
        // backend that has run template and bound jobs holds no state,
        // engine or distribution buffer of its own.
        let mut fixture = WidthFixture::new(2, 41);
        fixture.call();
        let debug = format!("{:?}", fixture.be);
        for simulator in ["DensityMatrix", "DensityEngine", "run_probs"] {
            assert!(!debug.contains(simulator), "{simulator} in {debug}");
        }
    }

    #[test]
    fn thread_scratch_never_leaks_between_backends_widths_or_threads() {
        // One thread interleaves a 7-qubit backend, a 2-qubit one and
        // the 7-qubit one again, so each later job forks into spares of
        // the other width. Every job must equal the same backend's job
        // run alone on a freshly spawned thread, whose scratch is cold:
        // counts, timing bits, and the RNG state the follow-up sees.
        let (mut wide, mut narrow) = (WidthFixture::new(7, 51), WidthFixture::new(2, 52));
        let interleaved = [wide.call(), narrow.call(), wide.call()];
        let alone = |n: usize, seed: u64, calls: usize| {
            std::thread::spawn(move || {
                let mut fixture = WidthFixture::new(n, seed);
                (0..calls).map(|_| fixture.call()).collect::<Vec<_>>()
            })
            .join()
            .expect("jobs run")
        };
        let (wide_alone, narrow_alone) = (alone(7, 51, 2), alone(2, 52, 1));
        assert_eq!(interleaved[0], wide_alone[0], "first 7-qubit job");
        assert_eq!(interleaved[1], narrow_alone[0], "2-qubit job");
        assert_eq!(interleaved[2], wide_alone[1], "second 7-qubit job");
    }

    #[test]
    fn a_thread_keeps_at_most_one_call_of_spare_states() {
        // Memory guard: every call forks from the spares the last one
        // left, so however many calls and backends a thread runs, it
        // holds no more spares than one call has forks.
        std::thread::spawn(|| {
            let mut fixtures = [
                WidthFixture::new(7, 61),
                WidthFixture::new(2, 62),
                WidthFixture::new(7, 63),
            ];
            for _ in 0..3 {
                for fixture in &mut fixtures {
                    fixture.call();
                    assert!(thread_spare_states() <= WidthFixture::FORKS);
                }
            }
            assert_eq!(thread_spare_states(), WidthFixture::FORKS);
        })
        .join()
        .expect("the spares stay bounded");
    }

    /// `(counts, submitted, started, completed, duration)` bits of a job.
    fn job_bits(r: &JobResult) -> (Counts, [u64; 4]) {
        let secs = |t: SimTime| t.as_secs().to_bits();
        let duration = r.circuit_duration_ns.to_bits();
        let bits = [
            secs(r.submitted),
            secs(r.started),
            secs(r.completed),
            duration,
        ];
        (r.counts.clone(), bits)
    }

    #[test]
    fn a_second_clones_first_job_hits_the_devices_cache() {
        let device = small_backend(7);
        let (mut first, mut second) = (device.clone(), device.clone());
        let mut twin = small_backend(7);
        let at = SimTime::from_hours(1.0);
        first.execute(&bell_compact(), &[0, 1], 256, at);
        let builds = device.device_noise_cache().builds();
        assert!(builds > 0 && device.device_noise_cache().hits() == 0);
        let shared = second.execute(&bell_compact(), &[0, 1], 256, at);
        assert_eq!(
            device.device_noise_cache().builds(),
            builds,
            "nothing rebuilt"
        );
        assert!(
            device.device_noise_cache().hits() > 0,
            "served the first clone's builds"
        );
        let alone = twin.execute(&bell_compact(), &[0, 1], 256, at);
        assert_eq!(job_bits(&shared), job_bits(&alone));
    }

    #[test]
    fn separately_built_backends_share_nothing() {
        let (mut a, mut b) = (small_backend(7), small_backend(7));
        let at = SimTime::from_hours(1.0);
        let ra = a.execute(&bell_compact(), &[0, 1], 256, at);
        let rb = b.execute(&bell_compact(), &[0, 1], 256, at);
        assert_eq!(job_bits(&ra), job_bits(&rb), "built alike, run alike");
        for be in [&a, &b] {
            assert!(be.device_noise_cache().builds() > 0);
            assert_eq!(be.device_noise_cache().hits(), 0, "{}", be.name());
        }
        assert_ne!(a.noise_token(at).backend, b.noise_token(at).backend);
        let (ea, eb) = (a.template(&ry_template()), b.template(&ry_template()));
        assert!(!Arc::ptr_eq(&ea.unwrap(), &eb.unwrap()));
        for be in [&a, &b] {
            let cache = be.device_template_cache();
            assert_eq!((cache.builds(), cache.hits()), (1, 0), "{}", be.name());
        }
    }

    #[test]
    fn recal_jitter_on_a_clone_makes_a_new_device() {
        let mut device = small_backend(7);
        let at = SimTime::from_hours(1.0);
        device.execute(&bell_compact(), &[0, 1], 256, at);
        let clone = device.clone();
        assert_eq!(clone.noise_token(at), device.noise_token(at));
        device.template(&ry_template()).expect("fits");
        assert_eq!(clone.device_template_cache().builds(), 1);
        let jittered = device.clone().with_recal_jitter(0.5);
        assert_ne!(
            jittered.noise_token(at).backend,
            device.noise_token(at).backend
        );
        for (builds, hits) in [
            (
                jittered.device_noise_cache().builds(),
                jittered.device_noise_cache().hits(),
            ),
            (
                jittered.device_template_cache().builds(),
                jittered.device_template_cache().hits(),
            ),
        ] {
            assert_eq!((builds, hits), (0, 0), "a new device starts empty");
        }
        assert_eq!(jittered.reported_calibration_builds(), 0);
        // The coupling map is the same: the new device prepares its own
        // entry over the architecture's transpile.
        let architecture = jittered.architecture_templates();
        assert!(std::ptr::eq(architecture, device.architecture_templates()));
        let (mine, theirs) = (
            jittered.template(&ry_template()),
            device.template(&ry_template()),
        );
        let (mine, theirs) = (mine.expect("fits"), theirs.expect("fits"));
        assert!(!Arc::ptr_eq(&mine, &theirs));
        assert!(Arc::ptr_eq(&mine.architecture, &theirs.architecture));
        assert_eq!((architecture.transpiles(), architecture.hits()), (1, 1));
        assert_eq!(jittered.device_template_cache().builds(), 1);
    }

    #[test]
    fn shared_noise_cache_is_bit_invisible_across_recalibration() {
        // Three clones of one device (a fleet's co-tenant view) against
        // three separately built twins, each running jobs that straddle
        // the hour-24 recalibration boundary. Whether the per-cycle noise
        // artifacts are built per backend or once for the whole clone
        // family must be invisible in the results, bit for bit.
        let hours = [1.0, 23.0, 25.0, 30.0];
        let run = |backends: Vec<QpuBackend>| -> Vec<(Counts, [u64; 4])> {
            backends
                .into_iter()
                .flat_map(|mut be| {
                    hours.map(|h| {
                        job_bits(&be.execute(&bell_compact(), &[0, 1], 256, SimTime::from_hours(h)))
                    })
                })
                .collect()
        };
        let twins: Vec<QpuBackend> = (0..3).map(|_| small_backend(7)).collect();
        let device = small_backend(7);
        let clones: Vec<QpuBackend> = (0..3).map(|_| device.clone()).collect();
        let separate = run(twins.clone());
        assert_eq!(separate, run(clones), "clones must replay separate builds");
        let twin_builds: u64 = twins
            .iter()
            .map(|be| be.device_noise_cache().builds())
            .sum();
        let cache = device.device_noise_cache();
        assert!(
            cache.builds() < twin_builds,
            "clones must build strictly fewer artifacts: {} vs {twin_builds}",
            cache.builds()
        );
        assert!(
            cache.hits() > 0,
            "later clones hit the first clone's builds"
        );
        assert!(
            twins.iter().all(|be| be.device_noise_cache().hits() == 0),
            "a device with one clone has nothing to share"
        );
    }

    /// `Ry(theta_0)` on qubit 0, then a CX: a one-parameter template
    /// that fits the 3-qubit line.
    fn ry_template() -> Circuit {
        let mut b = CircuitBuilder::new(2);
        b.ry_sym(0, 0).cx(0, 1);
        b.build()
    }

    /// A 3-qubit line whose noise holds still within a calibration
    /// cycle, so a template's token does too.
    fn steady_backend(seed: u64) -> QpuBackend {
        QpuBackend::new(
            "steady_device",
            Topology::line(3),
            Calibration::uniform(3, 90.0, 70.0, 0.001, 0.01, 0.02),
            DriftModel::none(),
            QueueModel::light(5.0),
            24.0,
            seed,
        )
    }

    /// One shift pair and an unshifted run of `entry` as one job.
    fn template_job(
        be: &mut QpuBackend,
        entry: &Arc<DeviceTemplate>,
        at: SimTime,
    ) -> (Vec<Counts>, u64) {
        let occ = entry.occurrences(ParamId(0))[0];
        let runs = [0.5, -0.5]
            .map(|d| TemplateRun {
                template: 0,
                shift: Some((occ, d)),
            })
            .into_iter()
            .chain([TemplateRun {
                template: 0,
                shift: None,
            }])
            .collect::<Vec<_>>();
        let mut locks = TemplateLocks::new([entry]);
        let (counts, job) = be.execute_templates(&mut locks.templates(), &runs, &[0.4], 256, at);
        (counts, job.completed.as_secs().to_bits())
    }

    /// `(compiles, plans, cache_hits)` of an entry's template.
    fn compile_counts(entry: &DeviceTemplate) -> (u64, u64, u64) {
        let t = entry.lock();
        (t.compiles(), t.plans(), t.cache_hits())
    }

    #[test]
    fn clones_share_one_entry_per_template() {
        let device = steady_backend(7);
        let (mut a, mut b) = (device.clone(), device.clone());
        let ea = a.template(&ry_template()).expect("fits");
        let eb = b.template(&ry_template()).expect("fits");
        assert!(Arc::ptr_eq(&ea, &eb), "clones share the device's entry");
        let cache = device.device_template_cache();
        assert_eq!((cache.builds(), cache.hits()), (1, 1));
        // The key is the circuit's bits: an angle of -0.0 is another
        // template, though `==` on the angles calls it equal.
        let signed = |angle: f64| {
            let mut b = CircuitBuilder::new(2);
            b.rz(0, angle).ry_sym(0, 0).cx(0, 1);
            b.build()
        };
        assert_eq!(signed(0.0), signed(-0.0));
        let (plus, minus) = (a.template(&signed(0.0)), a.template(&signed(-0.0)));
        assert!(!Arc::ptr_eq(&plus.unwrap(), &minus.unwrap()));
        assert_eq!((cache.builds(), cache.hits()), (3, 1));
        // Jobs of both clones on the shared entry replay two separately
        // built twins on their own entries, bit for bit, across the
        // hour-24 recalibration.
        let (mut ta, mut tb) = (steady_backend(7), steady_backend(7));
        let (fa, fb) = (ta.template(&ry_template()), tb.template(&ry_template()));
        let (fa, fb) = (fa.expect("fits"), fb.expect("fits"));
        for h in [1.0, 2.0, 25.0] {
            let at = SimTime::from_hours(h);
            assert_eq!(
                template_job(&mut a, &ea, at),
                template_job(&mut ta, &fa, at)
            );
            assert_eq!(
                template_job(&mut b, &eb, at),
                template_job(&mut tb, &fb, at)
            );
        }
        // One plan for the device: the second clone's jobs in a cycle
        // hit what the first clone's compiled.
        let (compiles, plans, _) = compile_counts(&ea);
        assert_eq!((compiles, plans), (2, 1), "one compile per cycle");
    }

    /// Runs `f` on its own thread and returns its result, failing after
    /// a minute: a lock test that deadlocks fails instead of hanging.
    fn within_a_minute<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{what}: {e}"))
    }

    #[test]
    fn template_locks_take_each_distinct_entry_once() {
        // A problem that lists one circuit twice resolves both indices
        // to one entry; a job over it locks that entry once (a second
        // lock on one thread would deadlock) and runs both indices from
        // one slot.
        let mut device = steady_backend(9);
        let (first, again) = (
            device.template(&ry_template()),
            device.template(&ry_template()),
        );
        let (first, again) = (first.expect("fits"), again.expect("fits"));
        let other = device.template(&bell_compact()).expect("fits");
        let entries = [&first, &other, &again].map(Arc::clone);
        let (slots, locked) = within_a_minute("a repeated entry must lock once", move || {
            let mut locks = TemplateLocks::new(&entries);
            (locks.slots().to_vec(), locks.templates().len())
        });
        assert_eq!((slots, locked), (vec![0, 1, 0], 2));
        // Slices that list shared entries in opposite orders lock them
        // in one order, so concurrent jobs cannot deadlock each other.
        let workers = [[&first, &other], [&other, &first]].map(|order| {
            let order = order.map(Arc::clone);
            std::thread::spawn(move || {
                for _ in 0..2_000 {
                    let mut locks = TemplateLocks::new(&order);
                    assert_eq!(locks.templates().len(), 2);
                }
            })
        });
        within_a_minute("opposite slice orders must not deadlock", move || {
            for worker in workers {
                worker.join().expect("no panic");
            }
        });
        let (counts, _) = template_job(&mut device, &again, SimTime::from_hours(1.0));
        assert_eq!(counts.len(), 3);
    }

    #[test]
    fn a_job_takes_its_entries_before_the_noise_lock() {
        let device = small_backend(13);
        let entry = device.template(&ry_template()).expect("fits");
        let noise = device.identity.noise.state.lock().expect("noise lock");
        // With the noise lock held, a clone still fetches and locks the
        // entry: taking an entry never waits on the noise cache.
        let clone = device.clone();
        let again = within_a_minute("an entry must not wait on noise", move || {
            let again = clone.template(&ry_template()).expect("fits");
            drop(TemplateLocks::new([&again]));
            again
        });
        assert!(Arc::ptr_eq(&entry, &again));
        // A job locks its entry first, then waits for the noise lock on
        // its first use of the cycle.
        let job = {
            let (mut be, entry) = (device.clone(), Arc::clone(&entry));
            std::thread::spawn(move || template_job(&mut be, &entry, SimTime::from_hours(1.0)))
        };
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while entry.compiled.try_lock().is_ok() {
            assert!(
                std::time::Instant::now() < deadline,
                "the job never took its entry"
            );
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !job.is_finished(),
            "the job holds its entry and waits for noise"
        );
        drop(noise);
        let (counts, _) = job.join().expect("the job completes");
        assert_eq!(counts.len(), 3);
        assert!(!entry.compiled.is_poisoned());
    }

    #[test]
    fn a_poisoned_entry_is_refreshed_not_reused() {
        let (mut device, mut twin) = (steady_backend(17), steady_backend(17));
        let entry = device.template(&ry_template()).expect("fits");
        let fresh = twin.template(&ry_template()).expect("fits");
        let at = SimTime::from_hours(1.0);
        assert_eq!(
            template_job(&mut device, &entry, at),
            template_job(&mut twin, &fresh, at)
        );
        let (compiles, plans, _) = compile_counts(&entry);
        // A job panics with the entry locked, after scribbling on it.
        let poisoner = Arc::clone(&entry);
        let panicked = std::panic::catch_unwind(move || {
            let mut template = poisoner.lock();
            template.bind(&[9.9], None);
            panic!("a job panics mid-bind");
        });
        assert!(panicked.is_err() && entry.compiled.is_poisoned());
        // Same token as the last job, so only the forgotten token makes
        // the next job refresh: a compile, not a plan and not a hit.
        let next = SimTime::from_hours(2.0);
        assert_eq!(
            template_job(&mut device, &entry, next),
            template_job(&mut twin, &fresh, next)
        );
        assert!(!entry.compiled.is_poisoned(), "recovered once");
        let (after, after_plans, _) = compile_counts(&entry);
        assert_eq!((after, after_plans), (compiles + 1, plans));
        assert_eq!(compile_counts(&fresh).0, compiles, "the twin hit");
    }

    #[test]
    fn a_template_that_does_not_fit_is_an_error_and_not_cached() {
        let device = steady_backend(19);
        let mut b = CircuitBuilder::new(4);
        b.ry_sym(0, 0).cx(0, 1).cx(1, 2).cx(2, 3);
        let wide = b.build();
        for _ in 0..2 {
            assert!(
                device.template(&wide).is_err(),
                "4 qubits on a 3-qubit line"
            );
        }
        let (cache, architecture) = (
            device.device_template_cache(),
            device.architecture_templates(),
        );
        assert_eq!((cache.builds(), cache.hits()), (0, 0));
        assert_eq!((architecture.transpiles(), architecture.hits()), (0, 0));
        device.template(&ry_template()).expect("fits");
        assert_eq!((cache.builds(), cache.hits()), (1, 0));
        assert_eq!((architecture.transpiles(), architecture.hits()), (1, 0));
    }

    /// A 3-qubit line calibrated by `scale` (T1, T2 and error rates),
    /// drifting, so that devices built on one coupling map differ in
    /// noise.
    fn calibrated_line(scale: f64, seed: u64) -> QpuBackend {
        QpuBackend::new(
            "calibrated_line",
            Topology::line(3),
            Calibration::uniform(3, 90.0 * scale, 70.0 * scale, 0.001 / scale, 0.01, 0.02),
            DriftModel::linear(0.05, 0.01),
            QueueModel::light(5.0),
            24.0,
            seed,
        )
    }

    /// Asserts two entries carry the same transpile output, bit for bit.
    fn assert_same_transpile(a: &DeviceTemplate, b: &DeviceTemplate) {
        let (x, y) = (&*a.architecture, &*b.architecture);
        assert!(same_bits(&x.circuit, &y.circuit), "compact circuit");
        assert_eq!(x.active_physical, y.active_physical, "active qubits");
        for p in 0..x.template.num_params() {
            assert_eq!(a.occurrences(ParamId(p)), b.occurrences(ParamId(p)));
        }
        assert_eq!(a.logical_bits(), b.logical_bits());
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn devices_minted_together_on_one_topology_transpile_once() {
        let (mut a, mut b) = (calibrated_line(1.0, 3), calibrated_line(0.5, 4));
        QpuBackend::share_architectures([&mut a, &mut b]);
        let architecture = a.architecture_templates();
        assert!(std::ptr::eq(architecture, b.architecture_templates()));
        let (ea, eb) = (a.template(&ry_template()), b.template(&ry_template()));
        let (ea, eb) = (ea.expect("fits"), eb.expect("fits"));
        assert_eq!((architecture.transpiles(), architecture.hits()), (1, 1));
        assert!(Arc::ptr_eq(&ea.architecture, &eb.architecture));
        assert!(!Arc::ptr_eq(&ea, &eb), "each device prepares its own");
        for be in [&a, &b] {
            let cache = be.device_template_cache();
            assert_eq!((cache.builds(), cache.hits()), (1, 0));
        }
        // The shared transpile is a lone device's, bit for bit.
        let lone = calibrated_line(1.0, 3).template(&ry_template());
        let lone = lone.expect("fits");
        assert_same_transpile(&ea, &lone);
        assert_same_transpile(&eb, &lone);
        // Each device's jobs replay an unshared twin's across the
        // hour-24 recalibration: counts and completion bits.
        let (mut ta, mut tb) = (calibrated_line(1.0, 3), calibrated_line(0.5, 4));
        let (fa, fb) = (ta.template(&ry_template()), tb.template(&ry_template()));
        let (fa, fb) = (fa.expect("fits"), fb.expect("fits"));
        assert!(!Arc::ptr_eq(&fa.architecture, &fb.architecture));
        for h in [1.0, 23.0, 25.0, 30.0] {
            let at = SimTime::from_hours(h);
            assert_eq!(
                template_job(&mut a, &ea, at),
                template_job(&mut ta, &fa, at)
            );
            assert_eq!(
                template_job(&mut b, &eb, at),
                template_job(&mut tb, &fb, at)
            );
        }
    }

    #[test]
    fn unequal_topologies_never_share() {
        let on = |topology: Topology| {
            let n = topology.num_qubits();
            QpuBackend::new(
                "any",
                topology,
                Calibration::uniform(n, 90.0, 70.0, 0.001, 0.01, 0.02),
                DriftModel::none(),
                QueueModel::light(5.0),
                24.0,
                7,
            )
        };
        let mut devices = [
            on(Topology::fully_connected(5)),
            on(Topology::line(5)),
            on(Topology::line(3)),
            on(Topology::line(5)),
        ];
        QpuBackend::share_architectures(&mut devices);
        for d in &devices {
            d.template(&ry_template()).expect("fits");
        }
        let transpiles: Vec<u64> = devices
            .iter()
            .map(|d| d.architecture_templates().transpiles())
            .collect();
        assert_eq!(transpiles, [1, 1, 1, 1], "each distinct map transpiles");
        let shared = |i: usize, j: usize| {
            std::ptr::eq(
                devices[i].architecture_templates(),
                devices[j].architecture_templates(),
            )
        };
        assert!(!shared(0, 1), "fully connected is not a line of its width");
        assert!(!shared(1, 2), "nor is a narrower line");
        assert!(shared(1, 3), "equal maps share");
        assert_eq!(devices[1].architecture_templates().hits(), 1);
    }

    #[test]
    fn a_device_cloned_elsewhere_keeps_its_own_architecture() {
        let held = steady_backend(5);
        let (mut clone, mut lone) = (held.clone(), steady_backend(6));
        // A new device re-jittered from the held one is not cloned, but
        // its architecture cache is held outside: nobody joins it.
        let (mut jittered, mut later) = (held.clone().with_recal_jitter(0.5), steady_backend(7));
        QpuBackend::share_architectures([&mut clone, &mut jittered, &mut lone, &mut later]);
        let same = |a: &QpuBackend, b: &QpuBackend| {
            std::ptr::eq(a.architecture_templates(), b.architecture_templates())
        };
        assert!(same(&clone, &held) && same(&jittered, &held));
        assert!(
            !same(&lone, &held),
            "nothing minted here joins the held cache"
        );
        assert!(same(&later, &lone), "the lone devices share theirs");
    }

    #[test]
    fn a_job_never_takes_the_architecture_lock() {
        let device = steady_backend(23);
        let entry = device.template(&ry_template()).expect("fits");
        let architecture = device.identity.architecture.state.lock().expect("lock");
        // With the architecture lock held, a clone still fetches the
        // prepared entry from the device's cache and runs a job on it.
        let clone = device.clone();
        let (again, counts) =
            within_a_minute("a job must not wait on the architecture", move || {
                let mut be = clone;
                let again = be.template(&ry_template()).expect("fits");
                let (counts, _) = template_job(&mut be, &again, SimTime::from_hours(1.0));
                (again, counts)
            });
        assert!(Arc::ptr_eq(&entry, &again));
        assert_eq!(counts.len(), 3);
        drop(architecture);
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
