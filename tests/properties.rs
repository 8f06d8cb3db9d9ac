//! Cross-crate property-based tests: invariants that must hold for
//! arbitrary circuits, topologies and parameters.

use proptest::prelude::*;
use qcircuit::{Angle, Circuit, Gate};
use transpile::{transpile, Topology, TranspileOptions};

/// Strategy: a random circuit over `n` qubits with 1q rotations, H and CX.
fn arb_circuit(n: usize, max_gates: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        (0..n).prop_map(Gate::H),
        (0..n).prop_map(Gate::X),
        (0..n, -3.0..3.0f64).prop_map(|(q, a)| Gate::Ry(q, Angle::Fixed(a))),
        (0..n, -3.0..3.0f64).prop_map(|(q, a)| Gate::Rz(q, Angle::Fixed(a))),
        (0..n, 0..n).prop_filter_map("distinct operands", move |(a, b)| {
            (a != b).then_some(Gate::Cx(a, b))
        }),
    ];
    proptest::collection::vec(gate, 1..max_gates).prop_map(move |gates| {
        let mut c = Circuit::new(n);
        for g in gates {
            c.push(g).expect("generated gates are valid");
        }
        c
    })
}

/// Remaps ideal logical probabilities through a transpiled layout and
/// compares with the compacted physical circuit's distribution.
fn distributions_match(circuit: &Circuit, topology: &Topology) -> Result<(), String> {
    let t = transpile(circuit, topology, &TranspileOptions::default())
        .map_err(|e| format!("transpile: {e}"))?;
    let (compact, logical_bits) = t
        .compact_for_simulation()
        .map_err(|e| format!("compact: {e}"))?;
    let n = circuit.num_qubits();
    let logical = circuit
        .run_statevector(&[])
        .map_err(|e| format!("logical run: {e}"))?
        .probabilities();
    let physical = compact
        .run_statevector(&[])
        .map_err(|e| format!("physical run: {e}"))?
        .probabilities();
    let mut remapped = vec![0.0; 1 << n];
    for (basis, p) in physical.iter().enumerate() {
        let mut log_basis = 0usize;
        for (l, &bit) in logical_bits.iter().enumerate() {
            if basis >> bit & 1 == 1 {
                log_basis |= 1 << l;
            }
        }
        remapped[log_basis] += p;
    }
    for (i, (a, b)) in logical.iter().zip(&remapped).enumerate() {
        if (a - b).abs() > 1e-8 {
            return Err(format!("basis {i}: logical {a} vs physical {b}"));
        }
    }
    Ok(())
}

/// A pseudorandom circuit over `n` qubits derived from a seed — used
/// where the engine-equivalence properties need the qubit count and the
/// circuit drawn together (the shim has no `prop_flat_map`).
fn seeded_circuit(n: usize, seed: u64, gates: usize) -> Circuit {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        let g = match rng.gen_range(0..5usize) {
            0 => Gate::H(q),
            1 => Gate::X(q),
            2 => Gate::Ry(q, Angle::Fixed(rng.gen_range(-3.0..3.0))),
            3 => Gate::Rz(q, Angle::Fixed(rng.gen_range(-3.0..3.0))),
            _ if n >= 2 => {
                let q2 = (q + rng.gen_range(1..n)) % n;
                Gate::Cx(q, q2)
            }
            _ => Gate::H(q),
        };
        c.push(g).expect("generated gates are valid");
    }
    c
}

/// A 7-qubit drifting backend for the engine-parallelism properties.
fn seven_qubit_backend(seed: u64) -> qdevice::QpuBackend {
    let spec = qdevice::catalog::by_name("casablanca").expect("7-qubit device");
    spec.backend(seed)
}

/// A pseudorandom *parameterized* circuit: like [`seeded_circuit`] but
/// roughly a third of the rotations are symbolic (fresh parameter
/// each). Returns the circuit, its parameter count, and the gate
/// indices of the symbolic occurrences (shift-rule targets).
fn seeded_sym_circuit(n: usize, seed: u64, gates: usize) -> (Circuit, usize, Vec<usize>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let mut params = 0usize;
    let mut sym_gates = Vec::new();
    for _ in 0..gates {
        let q = rng.gen_range(0..n);
        let g = match rng.gen_range(0..6usize) {
            0 => Gate::H(q),
            1 => Gate::Ry(q, Angle::Fixed(rng.gen_range(-3.0..3.0))),
            2 => Gate::Rz(q, Angle::Fixed(rng.gen_range(-3.0..3.0))),
            3 | 4 => {
                let id = params;
                params += 1;
                sym_gates.push(c.gates().len());
                if rng.gen_bool(0.5) {
                    Gate::Ry(q, Angle::sym(id))
                } else {
                    Gate::Rz(q, Angle::sym(id))
                }
            }
            _ if n >= 2 => {
                let q2 = (q + rng.gen_range(1..n)) % n;
                Gate::Cx(q, q2)
            }
            _ => Gate::H(q),
        };
        c.push(g).expect("generated gates are valid");
    }
    if params == 0 {
        sym_gates.push(c.gates().len());
        c.push(Gate::Ry(0, Angle::sym(0))).expect("valid gate");
        params = 1;
    }
    (c, params, sym_gates)
}

/// A pseudorandom circuit in the IBMQ native basis — SX, X, fixed and
/// parameterized RZ in every position, CX in both directions — over
/// `n` qubits, one of which (when there are two or more) is sometimes
/// left idle. Returns the circuit, its parameter count and the gate
/// indices of the parameterized RZs.
fn seeded_native_circuit(n: usize, seed: u64, gates: usize) -> (Circuit, usize, Vec<usize>) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let idle = (n >= 2 && rng.gen_bool(0.3)).then(|| rng.gen_range(0..n));
    let live: Vec<usize> = (0..n).filter(|&q| Some(q) != idle).collect();
    let mut c = Circuit::new(n);
    let mut params = 0usize;
    let mut sym_gates = Vec::new();
    for _ in 0..gates {
        let q = live[rng.gen_range(0..live.len())];
        let g = match rng.gen_range(0..7usize) {
            0 | 1 => Gate::Sx(q),
            2 => Gate::X(q),
            3 => Gate::Rz(q, Angle::Fixed(rng.gen_range(-7.0..7.0))),
            4 => {
                sym_gates.push(c.gates().len());
                params += 1;
                if rng.gen_bool(0.5) {
                    Gate::Rz(q, Angle::sym(params - 1))
                } else {
                    let (scale, offset) = (rng.gen_range(-2.0..2.0), rng.gen_range(-4.0..4.0));
                    Gate::Rz(q, Angle::affine(params - 1, scale, offset))
                }
            }
            _ if live.len() >= 2 => {
                let q2 = live[rng.gen_range(0..live.len())];
                if q2 == q {
                    continue;
                }
                Gate::Cx(q, q2)
            }
            _ => Gate::Sx(q),
        };
        c.push(g).expect("generated gates are valid");
    }
    (c, params, sym_gates)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Transpilation preserves measurement statistics on every topology
    /// shape of Table I.
    #[test]
    fn transpile_preserves_distribution_line(c in arb_circuit(4, 14)) {
        distributions_match(&c, &Topology::line(5)).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn transpile_preserves_distribution_t_shape(c in arb_circuit(4, 14)) {
        distributions_match(&c, &Topology::t_shape()).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn transpile_preserves_distribution_heavy_hex(c in arb_circuit(4, 10)) {
        distributions_match(&c, &Topology::heavy_hex_27()).map_err(TestCaseError::fail)?;
    }

    /// Transpiled circuits only use native gates on coupled pairs.
    #[test]
    fn transpiled_respects_basis_and_coupling(c in arb_circuit(5, 16)) {
        let topo = Topology::t_shape();
        let t = transpile(&c, &topo, &TranspileOptions::default()).expect("fits");
        for g in t.circuit.gates() {
            prop_assert!(matches!(g, Gate::X(_) | Gate::Sx(_) | Gate::Rz(..) | Gate::Cx(..)));
            let qs = g.qubits();
            if qs.len() == 2 {
                prop_assert!(topo.are_adjacent(qs[0], qs[1]));
            }
        }
    }

    /// The peephole optimizer never changes the unitary (up to phase).
    #[test]
    fn peephole_preserves_unitary(c in arb_circuit(3, 12)) {
        let optimized = transpile::optimize::optimize(&c).expect("optimizes");
        let u0 = c.unitary(&[]).expect("bound");
        let u1 = optimized.unitary(&[]).expect("bound");
        prop_assert!(u1.approx_eq_up_to_phase(&u0, 1e-8));
    }

    /// Counts sampled from any circuit distribution sum to the shot
    /// budget and respect the register width.
    #[test]
    fn sampled_counts_are_consistent(c in arb_circuit(3, 10), shots in 1usize..2000) {
        use rand::SeedableRng;
        let sv = c.run_statevector(&[]).expect("bound");
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let counts = qsim::sampler::sample_counts(&sv.probabilities(), 3, shots, &mut rng);
        prop_assert_eq!(counts.total(), shots as u64);
        for (basis, _) in counts.iter() {
            prop_assert!(basis < 8);
        }
    }

    /// Weight normalization maps any score set into the band.
    #[test]
    fn weights_stay_in_band(ps in proptest::collection::vec(0.0..1.0f64, 2..12)) {
        let bounds = eqc_core::WeightBounds::new(0.25, 1.75).expect("valid band");
        let ws = eqc_core::normalize_weights(&ps, bounds);
        for w in ws {
            prop_assert!((0.25..=1.75).contains(&w));
        }
    }

    /// Eq. 2 stays within [0, 1] for arbitrary circuit metrics and
    /// calibration quality.
    #[test]
    fn p_correct_is_a_probability(
        g1 in 0usize..200,
        g2 in 0usize..100,
        cd in 0usize..150,
        err_scale in 0.1..20.0f64,
    ) {
        let metrics = transpile::CircuitMetrics {
            g1,
            g2,
            measurements: 5,
            critical_depth: cd,
            depth: cd + 1,
            swaps_inserted: 0,
        };
        let mut cal = qdevice::Calibration::uniform(5, 90.0, 70.0, 0.001, 0.01, 0.02);
        cal.degrade(err_scale, 1.0);
        let p = eqc_core::p_correct(&metrics, &cal);
        prop_assert!((0.0..=1.0).contains(&p), "p = {}", p);
    }

    /// The group-fork walk against an oracle that needs no second path:
    /// the same runs spread over one template object per run make every
    /// group a singleton — nothing shared, so run-at-a-time evolution
    /// through the same public call. Any run list (random order,
    /// backward before forward, repeated and lone shifts, unshifted runs
    /// anywhere) on one template must match it bit for bit: counts, job
    /// timing, and the RNG state a follow-up job observes.
    #[test]
    fn grouped_runs_are_byte_identical_to_one_template_per_run(
        n in 2usize..8,
        seed in 0u64..128,
        len in 1usize..=12,
    ) {
        use qdevice::{CompiledTemplate, SimTime, TemplateRun};
        use rand::{Rng, SeedableRng};
        use std::f64::consts::FRAC_PI_2;
        let (circuit, num_params, sym_gates) = seeded_sym_circuit(n, seed, 12);
        let active: Vec<usize> = (0..n).collect();
        let params: Vec<f64> = (0..num_params).map(|i| 0.3 + 0.17 * i as f64).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
        let shifts: Vec<Option<(usize, f64)>> = (0..len)
            .map(|_| {
                let g = sym_gates[rng.gen_range(0..sym_gates.len())];
                match rng.gen_range(0..5usize) {
                    0 => None,
                    1 | 2 => Some((g, FRAC_PI_2)),
                    _ => Some((g, -FRAC_PI_2)),
                }
            })
            .collect();
        let followup = circuit.bind(&params).expect("params cover the circuit");
        // `spread`: one template object per run instead of one for all.
        let job = |spread: bool| {
            let mut backend = seven_qubit_backend(seed);
            let mut templates: Vec<CompiledTemplate> = (0..if spread { len } else { 1 })
                .map(|_| CompiledTemplate::new(circuit.clone(), active.clone()))
                .collect();
            let runs: Vec<TemplateRun> = shifts
                .iter()
                .enumerate()
                .map(|(i, &shift)| TemplateRun { template: if spread { i } else { 0 }, shift })
                .collect();
            let mut refs: Vec<&mut CompiledTemplate> = templates.iter_mut().collect();
            let (counts, timing) =
                backend.execute_templates(&mut refs, &runs, &params, 256, SimTime::ZERO);
            let next = backend.execute(&followup, &active, 256, timing.completed);
            (counts, timing.completed.as_secs().to_bits(), next.counts)
        };
        prop_assert_eq!(job(false), job(true), "one template vs one per run");
    }

    /// Plan once, refresh per drift step: a long-lived template brought
    /// up to each step of a random drift sequence holds, bit for bit,
    /// the program a fresh template compiled at that step holds — tape,
    /// fused superoperators, readout, duration, elision count — and the
    /// structure was planned exactly once.
    #[test]
    fn refreshed_template_equals_a_cold_compile_at_every_drift_step(
        n in 2usize..8,
        seed in 0u64..256,
        steps in 1usize..=8,
    ) {
        use qdevice::{Calibration, CompiledTemplate, NoiseModel, NoiseToken};
        use rand::{Rng, SeedableRng};
        let (circuit, _, _) = seeded_sym_circuit(n, seed, 14);
        let active: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xd21f7);
        let mut cal = Calibration::uniform(n, 100.0, 80.0, 1e-3, 1e-2, 0.02);
        for q in 0..n {
            let qubit = cal.qubit_mut(q);
            qubit.t1_us = rng.gen_range(30.0..200.0);
            qubit.t2_us = qubit.t1_us * rng.gen_range(0.3..2.0);
            qubit.gate_error_1q = rng.gen_range(1e-4..5e-3);
            qubit.readout_error = rng.gen_range(5e-3..5e-2);
            for q2 in q + 1..n {
                cal.set_cx_error(q, q2, rng.gen_range(4e-3..6e-2));
            }
        }
        let mut lived = CompiledTemplate::new(circuit.clone(), active.clone());
        for step in 0..steps {
            let (ef, cf) = (rng.gen_range(1.0..4.0), rng.gen_range(1.0..2.5));
            let mut drifted = cal.clone();
            drifted.degrade(ef, cf);
            let noise = NoiseModel::from_calibration(&drifted, &active);
            let token = NoiseToken::new(0, 0, ef, cf);
            lived.ensure_compiled(&noise, token);
            let mut cold = CompiledTemplate::new(circuit.clone(), active.clone());
            cold.ensure_compiled(&noise, token);
            let (a, b) = (lived.program(), cold.program());
            prop_assert_eq!(a.ops(), b.ops(), "step {}", step);
            prop_assert_eq!(a.superops(), b.superops(), "step {}", step);
            prop_assert_eq!(
                format!("{:?}", a.superops()),
                format!("{:?}", b.superops()),
                "step {}", step
            );
            prop_assert_eq!(a.readout(), b.readout(), "step {}", step);
            prop_assert_eq!(a.duration_ns().to_bits(), b.duration_ns().to_bits());
            prop_assert_eq!(a.skipped_channels(), b.skipped_channels());
        }
        prop_assert_eq!((lived.compiles(), lived.plans()), (steps as u64, 1));
    }

    /// The real gauge against an oracle that shares none of it: over
    /// random native-basis circuits and random calibrations, the
    /// density-compiled program — SX as a real rotation, every fixed RZ
    /// carried as a frame — gives the Kraus-sum distribution to 1e-12
    /// and the pre-engine reference's seeded counts, for the base
    /// binding and for a `shift_matrix` variant of every parameter forked
    /// off the base walk.
    #[test]
    fn real_gauge_program_matches_the_kraus_sum_reference(
        n in 1usize..=4,
        seed in 0u64..4096,
    ) {
        use qdevice::noise_model::reference;
        use qdevice::{Calibration, CompiledTemplate, NoiseModel, NoiseToken};
        use rand::{Rng, SeedableRng};
        let (circuit, num_params, sym_gates) = seeded_native_circuit(n, seed, 18);
        let active: Vec<usize> = (0..n).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6a06e);
        let mut cal = Calibration::uniform(n, 100.0, 80.0, 1e-3, 1e-2, 0.02);
        for q in 0..n {
            let qubit = cal.qubit_mut(q);
            qubit.t1_us = rng.gen_range(30.0..200.0);
            qubit.t2_us = qubit.t1_us * rng.gen_range(0.3..2.0);
            qubit.gate_error_1q = rng.gen_range(1e-4..2e-2);
            qubit.readout_error = rng.gen_range(5e-3..5e-2);
            for q2 in q + 1..n {
                cal.set_cx_error(q, q2, rng.gen_range(4e-3..6e-2));
            }
        }
        let noise = NoiseModel::from_calibration(&cal, &active);
        let params: Vec<f64> = (0..num_params).map(|_| rng.gen_range(-3.2..3.2)).collect();
        let shots = 4096;

        let mut template = CompiledTemplate::new(circuit.clone(), active);
        template.ensure_compiled(&noise, NoiseToken::new(0, 0, 1.0, 1.0));
        template.bind(&params, None);
        let program = template.program();
        let mut engine = qsim::DensityEngine::new();
        let mut probs = Vec::new();
        let check = |what: &str,
                     engine: &mut qsim::DensityEngine,
                     probs: &[f64],
                     bound: &Circuit|
         -> Result<(), TestCaseError> {
            let oracle = reference::density_distribution(bound, &noise);
            for (i, (a, b)) in probs.iter().zip(&oracle).enumerate() {
                prop_assert!((a - b).abs() <= 1e-12, "{}: p[{}] = {} vs {}", what, i, a, b);
            }
            let mut draw = rand::rngs::StdRng::seed_from_u64(seed);
            let counts = engine.sample_probs(probs, n, shots, &mut draw);
            let mut draw = rand::rngs::StdRng::seed_from_u64(seed);
            let (expected, _) = reference::execute_density(bound, &noise, shots, &mut draw);
            prop_assert_eq!(counts, expected, "{}: seeded counts", what);
            Ok(())
        };
        engine.evolve_probs(program, &mut probs);
        check("base", &mut engine, &probs, &circuit.bind(&params).expect("binds"))?;

        let mut forks = Vec::new();
        for (i, &g) in sym_gates.iter().enumerate() {
            let delta = if i % 2 == 0 { vqa::gradient::SHIFT } else { -vqa::gradient::SHIFT };
            let variant = template.shift_matrix(&params, g, delta);
            engine.evolve_group_forks(program, &[variant], &mut forks, None);
            let (_, resume_at, state) = forks.pop().expect("one fork per variant");
            engine.resume_probs(program, &state, resume_at, &mut probs);
            let shifted = circuit.bind_with_shift(&params, g, delta).expect("binds");
            check(&format!("gate {g} shifted"), &mut engine, &probs, &shifted)?;
        }
    }

    /// A whole training session with its client tasks on a worker pool
    /// (`Pipeline { lanes }`, lanes > 1) produces a `TrainingReport`
    /// identical to the inline session, for any client count and lane
    /// count.
    #[test]
    fn pipeline_training_report_identical_to_serial(
        clients in 2usize..7,
        lanes in 1usize..5,
        device_seed in 0u64..64,
    ) {
        use eqc_core::{Ensemble, EqcConfig, SimParallelism};
        let problem = vqa::VqeProblem::heisenberg_4q();
        let session = |par: SimParallelism| {
            let mut b = Ensemble::builder();
            for i in 0..clients {
                let spec = qdevice::catalog::by_name("belem").expect("catalog device");
                b = b.backend(spec.backend(device_seed + i as u64));
            }
            b.config(
                EqcConfig::paper_vqe()
                    .with_epochs(2)
                    .with_shots(128)
                    .with_sim_parallelism(par),
            )
            .build()
            .expect("fleet builds")
            .train(&problem)
            .expect("trains")
        };
        let serial = session(SimParallelism::Serial);
        let piped = session(SimParallelism::Pipeline { lanes });
        prop_assert_eq!(&serial, &piped);
        prop_assert_eq!(format!("{serial:?}"), format!("{piped:?}"));
    }

    /// The half-state sweeps — permutation-like and dense unitaries
    /// lowered to `U (x) conj(U)`, and lowered channels — agree with the
    /// full-matrix baseline kernels on arbitrary circuits.
    #[test]
    fn sparse_kernels_match_dense_baseline(n in 2usize..8, seed in 0u64..256) {
        use qsim::density::baseline;
        use qsim::{DensityMatrix, KrausChannel};
        let circuit = seeded_circuit(n, seed, 12);
        let mut fast = DensityMatrix::new(n);
        let mut dense = DensityMatrix::new(n);
        let dep1 = KrausChannel::depolarizing_1q(0.02);
        let dep2 = KrausChannel::depolarizing_2q(0.015);
        let damp = KrausChannel::amplitude_damping(0.05);
        for g in circuit.gates() {
            let qs = g.qubits();
            let u = g.matrix(&[]);
            if qs.len() == 1 {
                fast.apply_unitary_1q(&u, qs[0]);
                baseline::apply_unitary_1q(&mut dense, &u, qs[0]);
                fast.apply_channel(&dep1, &qs);
                baseline::apply_channel(&mut dense, &dep1, &qs);
                fast.apply_channel(&damp, &qs);
                baseline::apply_channel(&mut dense, &damp, &qs);
            } else {
                fast.apply_unitary_2q(&u, qs[0], qs[1]);
                baseline::apply_unitary_2q(&mut dense, &u, qs[0], qs[1]);
                fast.apply_channel(&dep2, &qs);
                baseline::apply_channel(&mut dense, &dep2, &qs);
            }
        }
        prop_assert!(
            fast.matrix().approx_eq(&dense.matrix(), 1e-12),
            "fast kernels drifted from the dense baseline"
        );
    }
}

/// Zero complex sweeps where the gauge applies: on each of the
/// benchmark's templates as its device compiles it, every fused sweep —
/// one-qubit and two-qubit — has real coefficients, and every unitary op
/// left on the tape is a one-qubit diagonal pass (nothing is lowered to
/// a sweep per call).
#[test]
fn benchmark_templates_compile_to_real_sweeps_only() {
    for (name, problem, device) in eqc_bench::benchmark_templates() {
        let (mut template, noises) = eqc_bench::template_fixture(problem.as_ref(), device);
        template.ensure_compiled(&noises[0], qdevice::NoiseToken::new(0, 0, 1.0, 1.0));
        let program = template.program();
        let census = eqc_bench::tape_census(program);
        assert_eq!(census.complex_1q, 0, "{name} on {device}: {census:?}");
        assert_eq!(census.dense_1q, 0, "{name} on {device}: {census:?}");
        assert!(census.real_1q > 0 && census.two_qubit > 0 && census.diag > 0);
        for i in 0..program.num_channels() {
            assert!(program.superops().get(i).is_real(), "{name} entry {i}");
        }
        let bare_2q = program
            .ops()
            .iter()
            .filter(|op| matches!(op, qsim::program::TapeOp::Unitary2q { .. }))
            .count();
        assert_eq!(bare_2q, 0, "{name} on {device}");
    }
}

/// The chi-square statistic of `counts` against `probs` over the
/// outcomes expected at least five times (the rest pooled into one more
/// bin when that reaches five), with its degrees of freedom.
fn chi_square(counts: &qsim::Counts, probs: &[f64]) -> (f64, usize) {
    let shots = counts.total() as f64;
    let (mut stat, mut bins) = (0.0, 0);
    let (mut rest_seen, mut rest_expected) = (0.0, 0.0);
    for (i, &p) in probs.iter().enumerate() {
        let (seen, expected) = (counts.get(i as u64) as f64, shots * p);
        if expected >= 5.0 {
            stat += (seen - expected).powi(2) / expected;
            bins += 1;
        } else {
            rest_seen += seen;
            rest_expected += expected;
        }
    }
    if rest_expected >= 5.0 {
        stat += (rest_seen - rest_expected).powi(2) / rest_expected;
        bins += 1;
    }
    // Bins that sum to the shot count lose a degree of freedom; a dropped
    // remainder breaks that constraint.
    let dropped = rest_expected > 0.0 && rest_expected < 5.0;
    (stat, if dropped { bins } else { bins - 1 })
}

/// The 0.999 quantile of the chi-square distribution with `df` degrees
/// of freedom (Wilson–Hilferty).
fn chi_square_999(df: usize) -> f64 {
    const Z_999: f64 = 3.090_232_306;
    let k = df as f64;
    let h = 2.0 / (9.0 * k);
    k * (1.0 - h + Z_999 * h.sqrt()).powi(3)
}

/// Shot histograms against exact probabilities, an oracle independent of
/// the sampler's own search: 10^5 seeded shots on a uniform
/// distribution, a one-hot one with a geometric tail, and the noisy
/// distribution the density engine computes for the TFIM-7 template on
/// lagos all stay below the chi-square 0.999 quantile.
#[test]
fn sampled_counts_fit_exact_probabilities_under_chi_square() {
    use rand::SeedableRng;
    let n = 7;
    let dim = 1usize << n;
    let uniform = vec![1.0 / dim as f64; dim];
    let mut one_hot = vec![0.0; dim];
    one_hot[0] = 0.9;
    let tail: f64 = (1..dim).map(|k| 0.7f64.powi(k as i32)).sum();
    for (k, p) in one_hot.iter_mut().enumerate().skip(1) {
        *p = 0.1 * 0.7f64.powi(k as i32) / tail;
    }
    let (_, problem, device) = eqc_bench::benchmark_templates()
        .into_iter()
        .find(|(name, ..)| *name == "tfim7")
        .expect("the TFIM-7 benchmark template");
    let (mut template, noises) = eqc_bench::template_fixture(problem.as_ref(), device);
    template.ensure_compiled(&noises[0], qdevice::NoiseToken::new(0, 0, 1.0, 1.0));
    template.bind(&eqc_bench::probe_params(problem.num_params()), None);
    let mut engine = qsim::DensityEngine::new();
    let mut tfim7 = Vec::new();
    engine.evolve_probs(template.program(), &mut tfim7);
    assert_eq!(tfim7.len(), dim);
    let mut sampler = qsim::ShotSampler::new();
    for (name, probs) in [("uniform", uniform), ("one-hot", one_hot), ("tfim7", tfim7)] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2111);
        let counts = sampler.sample_counts(&probs, n, 100_000, &mut rng);
        let (stat, df) = chi_square(&counts, &probs);
        assert!(df >= 3, "{name}: {df} bins");
        let bound = chi_square_999(df);
        assert!(
            stat < bound,
            "{name}: chi2 = {stat} over {df} dof, 0.999 quantile {bound}"
        );
    }
}
