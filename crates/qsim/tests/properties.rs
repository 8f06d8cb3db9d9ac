//! Property-based tests of the simulation substrate's core invariants.

use proptest::prelude::*;
use qsim::density::baseline;
use qsim::noise::{KrausChannel, SuperopTable};
use qsim::program::{DensityEngine, ProgramBuilder};
use qsim::statevector::StateVector;
use qsim::{gates, CMatrix, DensityMatrix, ParallelCtx, Pauli, ReadoutError, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: angles in a couple of periods.
fn angle() -> impl Strategy<Value = f64> {
    -7.0..7.0f64
}

/// Builds a random 1q unitary from three Euler angles.
fn unitary_1q(a: f64, b: f64, c: f64) -> CMatrix {
    gates::rz(a) * gates::ry(b) * gates::rz(c)
}

/// A random 1q unitary (three Euler angles).
fn random_1q(rng: &mut StdRng) -> CMatrix {
    let mut a = || rng.gen_range(-7.0..7.0);
    unitary_1q(a(), a(), a())
}

/// A random entangling 2q unitary: local rotations around CX and RZZ.
fn random_2q(rng: &mut StdRng) -> CMatrix {
    let local = |rng: &mut StdRng| random_1q(rng).kron(&random_1q(rng));
    local(rng) * gates::cx() * local(rng) * gates::rzz(rng.gen_range(-3.0..3.0)) * local(rng)
}

/// A random *dense* CPTP channel on `n_qubits` with `rank` Kraus
/// operators: the `d x d` row blocks of a random isometry (Gram-Schmidt
/// on random complex columns), so `sum K^dag K = I` by construction and
/// every operator entry is generically nonzero and complex.
fn random_channel(n_qubits: usize, rank: usize, rng: &mut StdRng) -> KrausChannel {
    let d = 1usize << n_qubits;
    let mut cols: Vec<Vec<C64>> = Vec::new();
    while cols.len() < d {
        let mut v: Vec<C64> = (0..rank * d)
            .map(|_| C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        for u in &cols {
            let overlap: C64 = u.iter().zip(&v).map(|(a, b)| a.conj() * *b).sum();
            for (x, a) in v.iter_mut().zip(u) {
                *x -= overlap * *a;
            }
        }
        let norm = v.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
        if norm > 1e-3 {
            cols.push(v.into_iter().map(|z| z / norm).collect());
        }
    }
    let kraus = (0..rank)
        .map(|k| {
            let mut m = CMatrix::zeros(d, d);
            for (c, col) in cols.iter().enumerate() {
                for r in 0..d {
                    m[(r, c)] = col[k * d + r];
                }
            }
            m
        })
        .collect();
    KrausChannel::new(kraus)
}

/// A random mixed `n`-qubit state: a layer of rotations, an entangling
/// chain, and a little workspace noise so it is neither pure nor sparse.
fn random_state(n: usize, rng: &mut StdRng) -> DensityMatrix {
    let mut rho = DensityMatrix::new(n);
    for q in 0..n {
        rho.apply_unitary_1q(&random_1q(rng), q);
    }
    for q in 1..n {
        rho.apply_unitary_2q(&random_2q(rng), q - 1, q);
    }
    rho.apply_channel(&KrausChannel::depolarizing_1q(0.1), &[n - 1]);
    rho.apply_channel(&KrausChannel::amplitude_damping(0.2), &[0]);
    rho
}

/// One random tape step: a 1q/2q unitary or a channel — this
/// workspace's monomial ones and random dense ones — on random operands
/// (either operand order).
enum Step {
    U1(CMatrix, usize),
    U2(CMatrix, usize, usize),
    Ch(KrausChannel, Vec<usize>),
}

fn random_tape(n: usize, len: usize, rng: &mut StdRng) -> Vec<Step> {
    (0..len)
        .map(|_| {
            let q0 = rng.gen_range(0..n);
            let q1 = (q0 + rng.gen_range(1..n.max(2))) % n;
            let two = n > 1 && rng.gen_range(0..2) == 1;
            match (rng.gen_range(0..5usize), two) {
                (0 | 1, false) => Step::U1(random_1q(rng), q0),
                (0 | 1, true) => Step::U2(random_2q(rng), q0, q1),
                (2, false) => Step::Ch(
                    KrausChannel::thermal_relaxation(90.0, 70.0, rng.gen_range(0.1..30.0)),
                    vec![q0],
                ),
                (3, false) => Step::Ch(
                    KrausChannel::depolarizing_1q(rng.gen_range(0.0..0.3)),
                    vec![q0],
                ),
                (2 | 3, true) => Step::Ch(
                    KrausChannel::depolarizing_2q(rng.gen_range(0.0..0.3)),
                    vec![q0, q1],
                ),
                (_, false) => Step::Ch(random_channel(1, rng.gen_range(1..=4usize), rng), vec![q0]),
                (_, true) => Step::Ch(
                    random_channel(2, rng.gen_range(1..=3usize), rng),
                    vec![q0, q1],
                ),
            }
        })
        .collect()
}

fn bits(rho: &DensityMatrix) -> Vec<(u64, u64)> {
    let m = rho.matrix();
    m.as_slice()
        .iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lowered superoperator sweep equals the literal Kraus sum for
    /// random dense CPTP channels on every qubit placement, both
    /// operand orders included.
    #[test]
    fn lowered_sweep_matches_kraus_sum(n in 1usize..=6, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = random_state(n, &mut rng);
        let ch1 = random_channel(1, rng.gen_range(1..=4usize), &mut rng);
        let ch2 = random_channel(2, rng.gen_range(1..=4usize), &mut rng);
        let mut placements: Vec<(&KrausChannel, Vec<usize>)> =
            (0..n).map(|q| (&ch1, vec![q])).collect();
        for q0 in 0..n {
            for q1 in (0..n).filter(|&q1| q1 != q0) {
                placements.push((&ch2, vec![q0, q1]));
            }
        }
        for (ch, qs) in placements {
            let (mut swept, mut summed) = (state.clone(), state.clone());
            swept.apply_channel(ch, &qs);
            baseline::apply_channel(&mut summed, ch, &qs);
            prop_assert!(
                swept.matrix().approx_eq(&summed.matrix(), 1e-12),
                "sweep != Kraus sum on qubits {:?} of {}", qs, n
            );
        }
    }

    /// Unit trace, Hermiticity and a non-negative diagonal survive
    /// random tapes of unitaries and channels.
    #[test]
    fn density_invariants_survive_random_tapes(n in 1usize..=5, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rho = DensityMatrix::new(n);
        for step in random_tape(n, 24, &mut rng) {
            match step {
                Step::U1(u, q) => rho.apply_unitary_1q(&u, q),
                Step::U2(u, a, b) => rho.apply_unitary_2q(&u, a, b),
                Step::Ch(ch, qs) => rho.apply_channel(&ch, &qs),
            }
        }
        prop_assert!((rho.trace() - 1.0).abs() < 1e-10, "trace {}", rho.trace());
        let m = rho.matrix();
        prop_assert!(m.is_hermitian(1e-12));
        let dim = 1usize << n;
        prop_assert!((0..dim).all(|i| m[(i, i)].re >= -1e-12));
        prop_assert!(rho.purity() <= 1.0 + 1e-10);
    }

    /// Serial and worker-team sweeps (and unitary passes) agree bit for
    /// bit at every width, below and above the default fan-out
    /// threshold.
    #[test]
    fn team_sweeps_are_bit_identical_to_serial(n in 1usize..=7, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctx = ParallelCtx::with_workers(4).with_min_dim(2);
        let mut serial = DensityMatrix::new(n);
        let mut team = DensityMatrix::new(n);
        for step in random_tape(n, 16, &mut rng) {
            match step {
                Step::U1(u, q) => {
                    serial.apply_unitary_1q(&u, q);
                    team.apply_unitary_1q_ctx(&u, q, &ctx);
                }
                Step::U2(u, a, b) => {
                    serial.apply_unitary_2q(&u, a, b);
                    team.apply_unitary_2q_ctx(&u, a, b, &ctx);
                }
                Step::Ch(ch, qs) => {
                    let mut table = SuperopTable::default();
                    let s = table.push(&ch);
                    serial.apply_superop_ctx(table.get(s), &qs, &ParallelCtx::SERIAL);
                    team.apply_superop_ctx(table.get(s), &qs, &ctx);
                }
            }
        }
        prop_assert_eq!(bits(&serial), bits(&team));
    }

    /// A noise-free compiled program through the density engine
    /// reproduces exact state-vector probabilities.
    #[test]
    fn noise_free_engine_matches_statevector(n in 1usize..=6, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sv = StateVector::new(n);
        let mut builder = ProgramBuilder::new(n);
        for step in random_tape(n, 20, &mut rng) {
            match step {
                Step::U1(u, q) => {
                    sv.apply_1q(&u, q);
                    builder.push_unitary(u, &[q]);
                }
                Step::U2(u, a, b) => {
                    sv.apply_2q(&u, a, b);
                    builder.push_unitary(u, &[a, b]);
                }
                Step::Ch(..) => {}
            }
        }
        let program = builder.finish(ReadoutError::uniform(n, 0.0), 0.0);
        let mut probs = Vec::new();
        DensityEngine::new().evolve_probs(&program, &mut probs);
        for (p, exact) in probs.iter().zip(sv.probabilities()) {
            prop_assert!((p - exact).abs() < 1e-10, "{} vs {}", p, exact);
        }
    }

    /// Euler-composed matrices are always unitary.
    #[test]
    fn euler_composition_is_unitary(a in angle(), b in angle(), c in angle()) {
        prop_assert!(unitary_1q(a, b, c).is_unitary(1e-9));
    }

    /// Unitary evolution preserves the norm of any reachable state.
    #[test]
    fn statevector_norm_preserved(
        a in angle(), b in angle(), c in angle(),
        q in 0usize..4,
        ctrl in 0usize..4,
    ) {
        let mut sv = StateVector::new(4);
        sv.apply_1q(&unitary_1q(a, b, c), q);
        if ctrl != q {
            sv.apply_2q(&gates::cx(), ctrl, q);
        }
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }

    /// Pauli expectations of physical states always lie in [-1, 1].
    #[test]
    fn pauli_expectations_bounded(a in angle(), b in angle(), c in angle()) {
        let mut sv = StateVector::new(2);
        sv.apply_1q(&unitary_1q(a, b, c), 0);
        sv.apply_2q(&gates::cx(), 0, 1);
        for p in [Pauli::X, Pauli::Y, Pauli::Z] {
            let e = sv.expectation_pauli(&[(0, p), (1, p)]);
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&e), "{:?}: {}", p, e);
        }
    }

    /// Depolarizing channels are CPTP for every probability.
    #[test]
    fn depolarizing_cptp(p in 0.0..1.0f64) {
        prop_assert!(KrausChannel::depolarizing_1q(p).is_cptp(1e-9));
        prop_assert!(KrausChannel::depolarizing_2q(p).is_cptp(1e-9));
    }

    /// Thermal relaxation is CPTP across physical (T1, T2, t) combinations.
    #[test]
    fn thermal_relaxation_cptp(
        t1 in 1.0..500_000.0f64,
        ratio in 0.05..2.0f64,
        dt in 0.0..100_000.0f64,
    ) {
        let t2 = t1 * ratio.min(2.0);
        prop_assert!(KrausChannel::thermal_relaxation(t1, t2, dt).is_cptp(1e-8));
    }

    /// Channels preserve trace and never raise purity above 1 (plus
    /// monotone decay of the excited state under amplitude damping).
    #[test]
    fn channel_trace_and_purity(gamma in 0.0..1.0f64, a in angle(), b in angle()) {
        let mut rho = DensityMatrix::new(1);
        rho.apply_unitary_1q(&unitary_1q(a, b, 0.0), 0);
        rho.apply_channel(&KrausChannel::amplitude_damping(gamma), &[0]);
        prop_assert!((rho.trace() - 1.0).abs() < 1e-9);
        prop_assert!(rho.purity() <= 1.0 + 1e-9);
    }

    /// Composition of two CPTP channels stays CPTP.
    #[test]
    fn composition_cptp(p in 0.0..1.0f64, lam in 0.0..1.0f64) {
        let ch = KrausChannel::depolarizing_1q(p).compose(&KrausChannel::phase_damping(lam));
        prop_assert!(ch.is_cptp(1e-8));
    }

    /// Sampled counts always total the shot budget and stay in range.
    #[test]
    fn sampling_accounts_for_all_shots(a in angle(), shots in 1usize..4000) {
        use rand::SeedableRng;
        let mut sv = StateVector::new(3);
        sv.apply_1q(&gates::ry(a), 0);
        sv.apply_2q(&gates::cx(), 0, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let counts = qsim::sampler::sample_counts(&sv.probabilities(), 3, shots, &mut rng);
        prop_assert_eq!(counts.total(), shots as u64);
        for (basis, count) in counts.iter() {
            prop_assert!(basis < 8);
            prop_assert!(count > 0);
        }
    }

    /// Readout confusion keeps distributions normalized for any flips.
    #[test]
    fn readout_is_stochastic(
        f0 in 0.0..0.5f64,
        f1 in 0.0..0.5f64,
        a in angle(),
    ) {
        let mut sv = StateVector::new(2);
        sv.apply_1q(&gates::ry(a), 0);
        sv.apply_2q(&gates::cx(), 0, 1);
        let ro = qsim::ReadoutError::new(vec![f0, f1]);
        let out = ro.apply_to_distribution(&sv.probabilities());
        let total: f64 = out.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(out.iter().all(|&p| p >= -1e-12));
    }

    /// The Hermitian eigensolver reconstructs its input.
    #[test]
    fn eigh_reconstructs(
        d0 in -2.0..2.0f64,
        d1 in -2.0..2.0f64,
        re in -1.0..1.0f64,
        im in -1.0..1.0f64,
    ) {
        let m = CMatrix::from_slice(2, 2, &[
            C64::from_real(d0), C64::new(re, im),
            C64::new(re, -im), C64::from_real(d1),
        ]);
        let eig = qsim::linalg::eigh(&m);
        let mut diag = CMatrix::zeros(2, 2);
        diag[(0, 0)] = C64::from_real(eig.values[0]);
        diag[(1, 1)] = C64::from_real(eig.values[1]);
        let recon = eig.vectors.clone() * diag * eig.vectors.dagger();
        prop_assert!(recon.approx_eq(&m, 1e-8));
        // Trace is preserved by similarity.
        prop_assert!((eig.values[0] + eig.values[1] - (d0 + d1)).abs() < 1e-8);
    }
}
