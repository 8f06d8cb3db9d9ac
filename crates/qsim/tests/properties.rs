//! Property-based tests of the simulation substrate's core invariants.

use eqc_oracle::baseline;
use proptest::prelude::*;
use qsim::noise::{KrausChannel, SuperopTable};
use qsim::program::{CompiledProgram, DensityEngine, ProgramBuilder, TapeOp};
use qsim::statevector::StateVector;
use qsim::{gates, CMatrix, DensityMatrix, Pauli, ReadoutError, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Strategy: error probabilities over `[0, 1]` — uniform, log-uniform
/// down to 1e-30, and the exact values with a branch of their own: the
/// ends and the device layer's clamps (0.5 one-qubit, 0.75 CX).
fn probability() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(0.5),
        Just(0.75),
        Just(1.0),
        0.0..=1.0f64,
        (-30.0..0.0f64).prop_map(|e| 10f64.powf(e)),
    ]
}

/// Strategy: elision thresholds — off, the default, coarse ones, and
/// past 1 where even a Pauli flip counts as near-identity.
fn threshold() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1e-12),
        Just(1e-3),
        Just(0.3),
        Just(1.0),
        (-15.0..0.5f64).prop_map(|e| 10f64.powf(e)),
    ]
}

/// `closed` holds every nonzero that lowering `channel`'s Kraus list
/// gives — position, value bits (which tell apart every pair of floats
/// `==` does not) and whether imaginary parts are stored — and besides
/// them only explicit zeros: a closed form keeps its channel's layout
/// whatever the numbers.
fn assert_same_table(closed: &SuperopTable, channel: &KrausChannel) {
    let mut lowered = SuperopTable::default();
    lowered.push(channel);
    let nonzeros = |t: &SuperopTable| {
        let entries = t.get(0).entries().filter(|&(.., z)| z != C64::ZERO);
        let bits = entries.map(|(r, c, z)| (r, c, z.re.to_bits(), z.im.to_bits()));
        bits.collect::<Vec<_>>()
    };
    assert_eq!(nonzeros(closed), nonzeros(&lowered));
    assert_eq!(closed.get(0).is_real(), lowered.get(0).is_real());
}

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

/// The three shapes a one-qubit superoperator comes in, at random
/// rates: real (relaxation alone), complex (a gate + relaxation +
/// depolarizing, as a fused cluster lowers) and a random dense CPTP one.
fn one_qubit_channels(rng: &mut StdRng) -> [KrausChannel; 3] {
    let relax = KrausChannel::thermal_relaxation(90.0, 70.0, rng.gen_range(0.1..30.0));
    let cluster = KrausChannel::new(vec![gates::sx()])
        .compose(&relax)
        .compose(&KrausChannel::depolarizing_1q(rng.gen_range(0.001..0.3)));
    let dense = random_channel(1, rng.gen_range(1..=4usize), rng);
    [relax, cluster, dense]
}

/// A phase gate at a random angle and a non-unit diagonal operator
/// (`diag(1, sqrt(1 - g))`, the no-jump branch of amplitude damping).
fn diagonal_operators(rng: &mut StdRng) -> [CMatrix; 2] {
    let mut damp = CMatrix::identity(2);
    damp[(1, 1)] = C64::from_real((1.0 - rng.gen_range(0.01..0.9f64)).sqrt());
    [gates::rz(rng.gen_range(-7.0..7.0)), damp]
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

/// A random tape built to exercise run fusion: bursts of ops on one
/// qubit pair in either operand order — one-qubit runs, two-qubit runs,
/// one-qubit runs growing into the two-qubit op that follows, dense and
/// monomial members — with parameterized gates (`true`) cutting
/// through. Every pair of an `n`-qubit register comes up.
fn clustered_tape(n: usize, bursts: usize, rng: &mut StdRng) -> Vec<(Step, bool)> {
    let mut tape = Vec::new();
    for _ in 0..bursts {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        for _ in 0..rng.gen_range(1..=6usize) {
            let (x, y) = if rng.gen_range(0..2) == 0 {
                (a, b)
            } else {
                (b, a)
            };
            let kind = rng.gen_range(0..10usize);
            let step = match kind {
                0 | 8 => Step::U1(random_1q(rng), x),
                1 | 9 => Step::U2(random_2q(rng), x, y),
                2 => Step::Ch(
                    KrausChannel::thermal_relaxation(90.0, 70.0, rng.gen_range(0.1..30.0)),
                    vec![x],
                ),
                3 => Step::Ch(
                    KrausChannel::depolarizing_1q(rng.gen_range(0.01..0.3)),
                    vec![x],
                ),
                4 => Step::Ch(
                    KrausChannel::depolarizing_2q(rng.gen_range(0.01..0.3)),
                    vec![x, y],
                ),
                5 => Step::Ch(random_channel(1, rng.gen_range(1..=4usize), rng), vec![x]),
                6 => Step::Ch(
                    random_channel(2, rng.gen_range(1..=3usize), rng),
                    vec![x, y],
                ),
                _ => Step::U2(gates::cx(), x, y),
            };
            tape.push((step, kind >= 8));
        }
    }
    tape
}

/// Compiles a [`clustered_tape`] for the density engine; returns the
/// program and the slot of every parameterized gate in tape order.
fn compile_tape(n: usize, tape: &[(Step, bool)]) -> (CompiledProgram, Vec<usize>) {
    let mut builder = ProgramBuilder::new(n);
    let mut slots = Vec::new();
    for (step, parameterized) in tape {
        match (step, parameterized) {
            (Step::U1(u, q), false) => drop(builder.push_unitary(u.clone(), &[*q])),
            (Step::U2(u, a, b), false) => drop(builder.push_unitary(u.clone(), &[*a, *b])),
            (Step::U1(u, q), true) => slots.push(builder.push_parameterized(u.clone(), &[*q])),
            (Step::U2(u, a, b), true) => {
                slots.push(builder.push_parameterized(u.clone(), &[*a, *b]))
            }
            (Step::Ch(ch, qs), _) => builder.push_channel(ch, qs),
        }
    }
    (builder.finish(ReadoutError::uniform(n, 0.01), 0.0), slots)
}

/// The (unnormalized) state a full evolution of `program` leaves.
fn final_state(engine: &mut DensityEngine, program: &CompiledProgram) -> DensityMatrix {
    engine.evolve_probs(program, &mut Vec::new());
    engine.state().expect("just evolved").clone()
}

fn prob_bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|x| x.to_bits()).collect()
}

/// A program built push by push beside a full-matrix replay of the same
/// pushes through `baseline`.
struct Replayed {
    builder: ProgramBuilder,
    oracle: DensityMatrix,
}

impl Replayed {
    fn new(n: usize) -> Self {
        Replayed {
            builder: ProgramBuilder::new(n),
            oracle: DensityMatrix::new(n),
        }
    }

    fn replay(&mut self, u: &CMatrix, qs: &[usize]) {
        match *qs {
            [q] => baseline::apply_unitary_1q(&mut self.oracle, u, q),
            [a, b] => baseline::apply_unitary_2q(&mut self.oracle, u, a, b),
            _ => unreachable!("one or two operands"),
        }
    }

    fn unitary(&mut self, u: CMatrix, qs: &[usize]) {
        self.replay(&u, qs);
        self.builder.push_unitary(u, qs);
    }

    /// A unitary that stays a tape op of its own.
    fn unfused(&mut self, u: CMatrix, q: usize) {
        self.replay(&u, &[q]);
        self.builder.push_unfused_unitary(u, &[q]);
    }

    fn parameterized(&mut self, u: CMatrix, q: usize) -> usize {
        self.replay(&u, &[q]);
        self.builder.push_parameterized(u, &[q])
    }

    fn channel(&mut self, ch: &KrausChannel, qs: &[usize]) {
        baseline::apply_channel(&mut self.oracle, ch, qs);
        self.builder.push_channel(ch, qs);
    }
}

/// A tape with every kind of tape op on every qubit, `q = 0` and
/// `q = n - 1` (where every block sits in its own column run) included:
/// unit and non-unit diagonal passes; real, complex and dense one-qubit
/// sweeps; bare one- and two-qubit unitaries (lowered to sweeps); real
/// and dense two-qubit sweeps on random pairs, on the two edge pairs and
/// in both operand orders; and one parameterized RY. Unfused diagonal
/// ops keep neighbouring runs apart, so each sweep is its own tape op.
/// Returns the replay and the parameterized slot.
fn every_sweep_tape(n: usize, rng: &mut StdRng) -> (Replayed, usize) {
    let mut tape = Replayed::new(n);
    let [phase, damp] = diagonal_operators(rng);
    let separate = |tape: &mut Replayed| {
        for q in 0..n {
            let d = if q % 2 == 0 { &phase } else { &damp };
            tape.unfused(d.clone(), q);
        }
    };
    for q in 0..n {
        tape.unitary(random_1q(rng), &[q]);
    }
    separate(&mut tape);
    for ch in one_qubit_channels(rng) {
        for q in 0..n {
            tape.channel(&ch, &[q]);
        }
        separate(&mut tape);
    }
    let slot = tape.parameterized(gates::ry(rng.gen_range(-3.0..3.0)), rng.gen_range(0..n));
    if n >= 2 {
        let mut pairs = vec![(0, n - 1), (n - 1, n - 2)];
        for _ in 0..3 {
            let a = rng.gen_range(0..n);
            pairs.push((a, (a + rng.gen_range(1..n)) % n));
        }
        for (a, b) in pairs {
            tape.unitary(random_2q(rng), &[a, b]);
            separate(&mut tape);
            tape.unitary(gates::cx(), &[a, b]);
            tape.channel(
                &KrausChannel::depolarizing_2q(rng.gen_range(0.01..0.3)),
                &[b, a],
            );
            separate(&mut tape);
            tape.channel(&random_channel(2, rng.gen_range(1..=3usize), rng), &[b, a]);
            separate(&mut tape);
        }
    }
    (tape, slot)
}

/// `|0..0><0..0|` with every entry below the diagonal NaN.
fn poisoned_ground_state(n: usize) -> DensityMatrix {
    let dim = 1usize << n;
    let mut m = CMatrix::zeros(dim, dim);
    m[(0, 0)] = C64::ONE;
    for r in 1..dim {
        for c in 0..r {
            m[(r, c)] = C64::new(f64::NAN, f64::NAN);
        }
    }
    DensityMatrix::from_matrix(&m)
}

/// The numbers of a deferred channel, lowered from its closed form:
/// a refresh may change them, never its kind or operands.
#[derive(Clone, Copy, Debug)]
enum Closed {
    Depolarizing(usize, f64),
    Relaxation(f64, f64, f64),
}

impl Closed {
    /// Random numbers for a channel on `qubits`: depolarizing at the
    /// rates where an entry cancels to exactly zero (3/4 on one qubit,
    /// 15/16 on two) as often as at a random one; relaxation over an
    /// ordinary idle window or one so short its decay is (nearly) zero.
    fn random(qubits: usize, depolarizing: bool, rng: &mut StdRng) -> Self {
        if qubits == 2 || depolarizing {
            let p = match rng.gen_range(0..3) {
                0 => [0.75, 15.0 / 16.0][qubits - 1],
                _ => rng.gen_range(1e-4..1.0),
            };
            return Closed::Depolarizing(qubits, p);
        }
        let t1 = rng.gen_range(50.0..200.0);
        let t2 = t1 * rng.gen_range(0.05..2.0);
        let dt = match rng.gen_bool(0.5) {
            true => rng.gen_range(1.0..500.0),
            false => t1 * 10f64.powf(rng.gen_range(-20.0..-12.0)),
        };
        Closed::Relaxation(t1, t2, dt)
    }

    /// The same kind of channel at new numbers.
    fn redraw(self, rng: &mut StdRng) -> Self {
        match self {
            Closed::Depolarizing(qubits, _) => Closed::random(qubits, true, rng),
            Closed::Relaxation(..) => Closed::random(1, false, rng),
        }
    }

    fn lower(self, table: &mut SuperopTable) -> usize {
        match self {
            Closed::Depolarizing(1, p) => table.push_depolarizing_1q(p),
            Closed::Depolarizing(_, p) => table.push_depolarizing_2q(p),
            Closed::Relaxation(t1, t2, dt) => table.push_thermal_relaxation(t1, t2, dt),
        }
    }
}

/// One member of a random fused run.
#[derive(Clone, Debug)]
enum Member {
    Gate(CMatrix),
    Kraus(KrausChannel),
    /// A deferred channel: its key indexes the run's numbers.
    Deferred(usize),
}

/// A run's members in order, each with its operands.
type Run = Vec<(Member, Vec<usize>)>;

/// A random run of 1 to 16 members that the builder fuses into one
/// entry: on one qubit (`D = 4`) or on a pair (`D = 16`), grown from an
/// optional one-qubit prefix, with members in all four placements;
/// fixed gates (complex ones unless `real`), Kraus lists (unless
/// `deferred_only`) and deferred channels; at least one channel.
/// Returns the members with their operands, the run's support and the
/// deferred channels' numbers.
fn random_run(
    two_qubit: bool,
    real: bool,
    deferred_only: bool,
    rng: &mut StdRng,
) -> (Run, Vec<usize>, Vec<Closed>) {
    let len = rng.gen_range(1..=16usize);
    let (a, b) = (rng.gen_range(0..3usize), rng.gen_range(1..3usize));
    let (s0, s1) = (a, (a + b) % 3);
    let prefix = if two_qubit {
        rng.gen_range(0..len)
    } else {
        len
    };
    let grown = match rng.gen_bool(0.5) {
        true => vec![s0, s1],
        false => vec![s1, s0],
    };
    let mut closed = Vec::new();
    let mut member = |qs: &[usize], rng: &mut StdRng, channel: bool| {
        let kind = if channel {
            rng.gen_range(1..3)
        } else {
            rng.gen_range(0..3)
        };
        let kind = if kind == 1 && deferred_only { 2 } else { kind };
        let m =
            match (kind, qs.len()) {
                (0, 1) if !real && rng.gen_bool(0.5) => Member::Gate(random_1q(rng)),
                (0, 1) => Member::Gate(gates::ry(rng.gen_range(-3.0..3.0))),
                (0, _) if !real && rng.gen_bool(0.5) => Member::Gate(random_2q(rng)),
                (0, _) => Member::Gate(gates::cx()),
                (1, n) => match Closed::random(n, rng.gen_bool(0.5), rng) {
                    Closed::Depolarizing(1, p) => Member::Kraus(KrausChannel::depolarizing_1q(p)),
                    Closed::Depolarizing(_, p) => Member::Kraus(KrausChannel::depolarizing_2q(p)),
                    // A Kraus relaxation over an ordinary window: a vanishing
                    // one would be elided as the identity.
                    Closed::Relaxation(t1, t2, _) => Member::Kraus(
                        KrausChannel::thermal_relaxation(t1, t2, rng.gen_range(1.0..500.0)),
                    ),
                },
                (_, n) => {
                    closed.push(Closed::random(n, rng.gen_bool(0.5), rng));
                    Member::Deferred(closed.len() - 1)
                }
            };
        (m, qs.to_vec())
    };
    let mut ops = Vec::new();
    for i in 0..len {
        let qs = if i < prefix {
            vec![s0]
        } else if i == prefix {
            grown.clone()
        } else {
            let (g0, g1) = (grown[0], grown[1]);
            [vec![g0], vec![g1], vec![g0, g1], vec![g1, g0]][rng.gen_range(0..4usize)].clone()
        };
        ops.push(member(&qs, rng, false));
    }
    if ops.iter().all(|(m, _)| matches!(m, Member::Gate(_))) {
        let i = rng.gen_range(0..len);
        let qs = ops[i].1.clone();
        ops[i] = member(&qs, rng, true);
    }
    let support = if two_qubit { grown } else { vec![s0] };
    (ops, support, closed)
}

/// Fused entry `entry`, compiled by the builder and multiplied by its
/// plan's schedule, equals the dense product of its run's members,
/// entry for entry and bit for bit, with the same realness.
fn assert_product_is_dense(
    program: &CompiledProgram,
    entry: usize,
    ops: &[(Member, Vec<usize>)],
    support: &[usize],
    closed: &[Closed],
) {
    let mut table = SuperopTable::default();
    for (member, _) in ops {
        match member {
            Member::Gate(u) => table.push_unitary(u),
            Member::Kraus(ch) => table.push(ch),
            Member::Deferred(key) => closed[*key].lower(&mut table),
        };
    }
    let members: Vec<_> = (ops.iter().enumerate())
        .map(|(i, (_, qs))| (table.get(i), qs.as_slice()))
        .collect();
    let (dense, complex) = baseline::dense_product(&members, support);
    let bits = |(r, c, z): (usize, usize, C64)| (r, c, z.re.to_bits(), z.im.to_bits());
    let fused = program.superops().get(entry);
    assert_eq!(
        fused.entries().map(bits).collect::<Vec<_>>(),
        dense.into_iter().map(bits).collect::<Vec<_>>(),
        "run {ops:?} on {support:?}"
    );
    assert_eq!(fused.is_real(), !complex);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No kernel reads below the diagonal: an evolution from a state
    /// whose lower half is NaN gives finite probabilities, bit-equal to
    /// an unpoisoned run, and a live half equal to the full-matrix
    /// `baseline` replay of the same pushes — for the whole tape and for
    /// a non-diagonal fork off it. The poisoned engine keeps its NaN:
    /// reset, resume and fork copies write the live half only.
    #[test]
    fn no_kernel_reads_below_the_diagonal(n in 1usize..=7, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (tape, slot) = every_sweep_tape(n, &mut rng);
        let program = tape.builder.finish(ReadoutError::uniform(n, 0.01), 0.0);
        let (mut clean, mut dirty) = (DensityEngine::new(), DensityEngine::new());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        clean.evolve_probs(&program, &mut want);
        dirty.resume_probs(&program, poisoned_ground_state(n), 0, &mut got);
        prop_assert!(got.iter().all(|p| p.is_finite()), "{:?}", got);
        prop_assert_eq!(prob_bits(&got), prob_bits(&want));
        let live = dirty.state().expect("just evolved").matrix();
        prop_assert!(live.approx_eq(&tape.oracle.matrix(), 1e-12), "n = {}", n);

        let variant = [(slot, gates::ry(rng.gen_range(-3.0..3.0)))];
        let (mut clean_forks, mut dirty_forks) = (Vec::new(), Vec::new());
        clean.evolve_group_forks(&program, &variant, &mut clean_forks, Some(&mut want));
        dirty.evolve_group_forks(&program, &variant, &mut dirty_forks, Some(&mut got));
        prop_assert!(got.iter().all(|p| p.is_finite()));
        prop_assert_eq!(prob_bits(&got), prob_bits(&want), "base of the fork walk");
        let ((_, at, clean_fork), (_, _, dirty_fork)) = (clean_forks.remove(0), dirty_forks.remove(0));
        clean.resume_probs(&program, clean_fork, at, &mut want);
        dirty.resume_probs(&program, dirty_fork, at, &mut got);
        prop_assert!(got.iter().all(|p| p.is_finite()));
        prop_assert_eq!(prob_bits(&got), prob_bits(&want), "forked RY variant");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `ShotSampler::sample_counts` — guide table, settled buckets and
    /// all — is the histogram of its oracle, the plain `sample_indices`
    /// search loop, from an equal generator, which it leaves in an equal
    /// state. The shot counts put the table size on every branch of its
    /// rule (`4 n`, one bucket per eight shots, the cap) at every width;
    /// the distributions are flat, peaked, or runs of zero-probability
    /// outcomes (equal CDF entries) between random ones.
    #[test]
    fn sample_counts_is_the_histogram_of_sample_indices(
        n in 1usize..=7,
        shots in prop_oneof![
            Just(0usize), Just(1), Just(7), Just(64), Just(1024), Just(8192), Just(40_000)
        ],
        shape in 0usize..3,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let run = 1usize << rng.gen_range(0..n);
        let probs: Vec<f64> = (0..1usize << n)
            .map(|i| {
                let u = rng.gen::<f64>();
                match shape {
                    0 => u,
                    1 => u.powi(16),
                    _ if (i / run).is_multiple_of(2) => 0.0,
                    _ => u,
                }
            })
            .collect();
        let (mut fast_rng, mut slow_rng) = (rng.clone(), rng);
        let fast = qsim::sampler::sample_counts(&probs, n, shots, &mut fast_rng);
        let mut hist = vec![0u64; probs.len()];
        for idx in qsim::sampler::sample_indices(&probs, shots, &mut slow_rng) {
            hist[idx] += 1;
        }
        let mut slow = qsim::Counts::new(n);
        for (basis, &count) in hist.iter().enumerate() {
            slow.record(basis as u64, count);
        }
        prop_assert_eq!(fast, slow, "{:?}", probs);
        prop_assert_eq!(fast_rng, slow_rng, "generators diverged");
    }

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

    /// The one-qubit stream sweep equals the literal Kraus sum — and
    /// keeps unit trace and Hermiticity — for a real, a complex and a
    /// random dense superoperator on every qubit, `q = 0` (column runs
    /// of length 1) and `q = n - 1` (one run per row) included.
    #[test]
    fn one_qubit_stream_sweep_matches_kraus_sum(n in 1usize..=7, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = random_state(n, &mut rng);
        let channels = one_qubit_channels(&mut rng);
        let mut table = SuperopTable::default();
        let (relax, cluster) = (table.push(&channels[0]), table.push(&channels[1]));
        prop_assert!(table.get(relax).is_real() && !table.get(cluster).is_real());
        for q in 0..n {
            for ch in &channels {
                let (mut swept, mut summed) = (state.clone(), state.clone());
                swept.apply_channel(ch, &[q]);
                baseline::apply_channel(&mut summed, ch, &[q]);
                let m = swept.matrix();
                prop_assert!(
                    m.approx_eq(&summed.matrix(), 1e-12),
                    "sweep != Kraus sum on qubit {} of {}", q, n
                );
                prop_assert!((swept.trace() - 1.0).abs() < 1e-12, "trace {}", swept.trace());
                prop_assert!(m.is_hermitian(1e-13));
            }
        }
    }

    /// The one-pass diagonal kernel equals the two-pass oracle on every
    /// qubit, for a phase gate (half the state skipped) and a non-unit
    /// diagonal operator (no skip) alike; and a phase gate leaves every
    /// diagonal entry — every probability — bit for bit alone.
    #[test]
    fn diagonal_pass_matches_two_pass_oracle(n in 1usize..=7, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = random_state(n, &mut rng);
        let before = state.matrix();
        for q in 0..n {
            let [rz, damp] = diagonal_operators(&mut rng);
            for u in [&rz, &damp] {
                let (mut fast, mut slow) = (state.clone(), state.clone());
                fast.apply_unitary_1q(u, q);
                baseline::apply_unitary_1q(&mut slow, u, q);
                prop_assert!(
                    fast.matrix().approx_eq(&slow.matrix(), 1e-14),
                    "diagonal pass != two passes on qubit {} of {}", q, n
                );
            }
            let mut phased = state.clone();
            phased.apply_unitary_1q(&rz, q);
            let after = phased.matrix();
            for i in 0..1usize << n {
                let (a, b) = (after[(i, i)], before[(i, i)]);
                prop_assert_eq!((a.re.to_bits(), a.im.to_bits()), (b.re.to_bits(), b.im.to_bits()));
            }
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

    /// A fused program leaves the state op-by-op application of the
    /// oracle kernels leaves — to rounding, with unit trace and
    /// Hermiticity intact — whatever runs the tape fuses.
    #[test]
    fn fused_program_matches_op_by_op_application(n in 3usize..=5, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tape = clustered_tape(n, 8, &mut rng);
        let (program, _) = compile_tape(n, &tape);
        let mut oracle = DensityMatrix::new(n);
        for (step, _) in &tape {
            match step {
                Step::U1(u, q) => baseline::apply_unitary_1q(&mut oracle, u, *q),
                Step::U2(u, a, b) => baseline::apply_unitary_2q(&mut oracle, u, *a, *b),
                Step::Ch(ch, qs) => baseline::apply_channel(&mut oracle, ch, qs),
            }
        }
        prop_assert!(program.ops().len() <= tape.len());
        let fused = final_state(&mut DensityEngine::new(), &program);
        prop_assert!(
            fused.matrix().approx_eq(&oracle.matrix(), 1e-12),
            "fused tape of {} sweeps diverges from its {} ops", program.ops().len(), tape.len()
        );
        prop_assert!((fused.trace() - 1.0).abs() < 1e-12, "trace {}", fused.trace());
        prop_assert!(fused.matrix().is_hermitian(1e-13));
    }

    /// Fusion never swallows a parameterized gate: each rebind slot is
    /// exactly one unitary op of the tape, in push order; and without a
    /// channel nothing is fused at all.
    #[test]
    fn parameterized_slots_stay_unitary_ops(n in 3usize..=5, seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tape = clustered_tape(n, 8, &mut rng);
        let (program, slots) = compile_tape(n, &tape);
        for &slot in &slots {
            let uses = program.ops().iter().filter(|op| op.unitary_slot() == Some(slot)).count();
            prop_assert_eq!(uses, 1, "slot {} must be one unitary op", slot);
        }
        let first = program.ops().iter().find_map(|op| op.unitary_slot().filter(|s| slots.contains(s)));
        prop_assert_eq!(first, slots.first().copied());
        let ideal: Vec<(Step, bool)> = tape
            .into_iter()
            .filter(|(step, _)| !matches!(step, Step::Ch(..)))
            .collect();
        let (program, _) = compile_tape(n, &ideal);
        prop_assert_eq!(program.ops().len(), ideal.len());
        prop_assert!(program.ops().iter().all(|op| op.unitary_slot().is_some()));
        prop_assert_eq!(program.num_channels(), 0);
    }

    /// Group forks with resumed suffixes reproduce a full evolution of
    /// the same fused program bit for bit.
    #[test]
    fn fork_and_resume_paths_are_byte_identical_on_fused_programs(
        n in 3usize..=5,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tape = clustered_tape(n, 8, &mut rng);
        // At least one parameterized gate, behind a nonempty prefix.
        tape.insert(tape.len() / 2, (Step::U1(random_1q(&mut rng), rng.gen_range(0..n)), true));
        let (mut program, slots) = compile_tape(n, &tape);
        let variants: Vec<(usize, CMatrix)> = slots
            .iter()
            .map(|&slot| {
                let alt = if program.unitary(slot).rows() == 2 {
                    random_1q(&mut rng)
                } else {
                    random_2q(&mut rng)
                };
                (slot, alt)
            })
            .collect();
        let mut engine = DensityEngine::new();
        // Reference: one full evolution per binding.
        let mut base_ref = Vec::new();
        engine.evolve_probs(&program, &mut base_ref);
        let mut refs = Vec::new();
        for (slot, alt) in &variants {
            let base = program.unitary(*slot).clone();
            program.set_unitary(*slot, alt.clone());
            let mut p = Vec::new();
            engine.evolve_probs(&program, &mut p);
            refs.push(p);
            program.set_unitary(*slot, base);
        }
        // Group forks off one base walk: the first walk clones its
        // forks, the second fills them from the spares the first left.
        for walk in 0..2 {
            let (mut forks, mut base, mut out) = (Vec::new(), Vec::new(), Vec::new());
            engine.evolve_group_forks(&program, &variants, &mut forks, Some(&mut base));
            prop_assert_eq!(prob_bits(&base), prob_bits(&base_ref), "walk {}", walk);
            prop_assert_eq!(forks.len(), variants.len());
            for (v, at, state) in forks {
                engine.resume_probs(&program, state, at, &mut out);
                prop_assert_eq!(prob_bits(&out), prob_bits(&refs[v]), "walk {} variant {}", walk, v);
            }
            prop_assert!(engine.spare_states() <= variants.len());
        }
    }

    /// A fused run's product, multiplied by its plan's schedule, is the
    /// dense product of its members bit for bit — on one qubit and on
    /// two, every placement, real and complex members, runs of up to
    /// 16 — as the builder fills it and after refreshes that move the
    /// deferred channels onto and off numbers with exact-zero entries.
    /// A twin run on other deferred channels shares the first one's
    /// shape of the schedule.
    #[test]
    fn scheduled_products_equal_the_dense_product(seed in 0u64..1 << 32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (two_qubit, real, deferred_only) = (rng.gen_bool(0.5), rng.gen_bool(0.5), rng.gen_bool(0.5));
        let (ops, support, mut closed) = random_run(two_qubit, real, deferred_only, &mut rng);
        let twin: Run = ops
            .iter()
            .map(|(member, qs)| {
                let member = match member {
                    Member::Deferred(key) => {
                        closed.push(closed[*key].redraw(&mut rng));
                        Member::Deferred(closed.len() - 1)
                    }
                    other => other.clone(),
                };
                (member, qs.clone())
            })
            .collect();
        let runs = [ops, twin];
        let mut b = ProgramBuilder::new(3);
        for (i, ops) in runs.iter().enumerate() {
            if i > 0 {
                // A parameterized gate ends the first run.
                b.push_parameterized(CMatrix::identity(2), &[support[0]]);
            }
            for (member, qs) in ops {
                match member {
                    Member::Gate(u) => {
                        b.push_unitary(u.clone(), qs);
                    }
                    Member::Kraus(ch) => b.push_channel(ch, qs),
                    Member::Deferred(key) => b.push_deferred_channel(*key, qs, false),
                }
            }
        }
        let numbers = closed.clone();
        let mut program = b.finish_with(ReadoutError::uniform(3, 0.0), 0.0, |key, table| {
            numbers[key].lower(table);
        });
        let entries: Vec<usize> = program
            .ops()
            .iter()
            .filter_map(|op| match *op {
                TapeOp::Channel1q { channel, .. } | TapeOp::Channel2q { channel, .. } => Some(channel),
                _ => None,
            })
            .collect();
        prop_assert_eq!(entries.len(), 2, "one fused entry per run: {:?}", program.ops());
        for (&entry, ops) in entries.iter().zip(&runs) {
            assert_product_is_dense(&program, entry, ops, &support, &closed);
        }
        if !deferred_only {
            return Ok(());
        }
        for _ in 0..3 {
            closed.iter_mut().for_each(|c| *c = c.redraw(&mut rng));
            program.refresh([0.0; 3], |key, table| {
                closed[key].lower(table);
            });
            for (&entry, ops) in entries.iter().zip(&runs) {
                assert_product_is_dense(&program, entry, ops, &support, &closed);
            }
        }
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

    /// The closed-form depolarizing superoperators are the Kraus
    /// lowering bit for bit — values and realness — in a layout of 6
    /// and 28 entries whatever `p`,
    /// and the closed-form near-identity predicate is
    /// `KrausChannel::is_near_identity`, over all of `[0, 1]` with the
    /// ends, the device layer's clamps and vanishing rates weighted in.
    #[test]
    fn closed_form_depolarizing_is_the_kraus_lowering(p in probability(), eps in threshold()) {
        let channels = [KrausChannel::depolarizing_1q(p), KrausChannel::depolarizing_2q(p)];
        for (ch, nnz) in channels.iter().zip([6, 28]) {
            let mut closed = SuperopTable::default();
            match ch.num_qubits() {
                1 => closed.push_depolarizing_1q(p),
                _ => closed.push_depolarizing_2q(p),
            };
            assert_same_table(&closed, ch);
            prop_assert_eq!(closed.get(0).nnz(), nnz);
            prop_assert_eq!(
                KrausChannel::depolarizing_is_near_identity(ch.num_qubits(), p, eps),
                ch.is_near_identity(eps),
                "{} qubits, p = {}, eps = {}", ch.num_qubits(), p, eps
            );
        }
    }

    /// The same for thermal relaxation, over `T2` in `(0, 2 T1]` and
    /// durations from a vanishing idle window (1e-9 ns) to 1e5 ns.
    #[test]
    fn closed_form_relaxation_is_the_kraus_lowering(
        t1 in 100.0..1e6f64,
        ratio in prop_oneof![Just(2.0), Just(1.0), 1e-6..2.0f64],
        log_dt in -9.0..5.0f64,
        eps in threshold(),
    ) {
        let (t2, dt) = (t1 * ratio, 10f64.powf(log_dt));
        let ch = KrausChannel::thermal_relaxation(t1, t2, dt);
        let mut closed = SuperopTable::default();
        closed.push_thermal_relaxation(t1, t2, dt);
        assert_same_table(&closed, &ch);
        prop_assert_eq!(closed.get(0).nnz(), 5);
        prop_assert_eq!(
            KrausChannel::thermal_relaxation_is_near_identity(t1, t2, dt, eps),
            ch.is_near_identity(eps),
            "T1 = {}, T2 = {}, dt = {}, eps = {}", t1, t2, dt, eps
        );
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

/// The `(basis, count)` pairs of a [`qsim::Counts`] model: nonzero
/// counts by basis, and the total.
fn counts_model(records: &[(u64, u64)]) -> (BTreeMap<u64, u64>, u64) {
    let mut model = BTreeMap::new();
    for &(b, c) in records.iter().filter(|r| r.1 > 0) {
        *model.entry(b).or_insert(0) += c;
    }
    let total = model.values().sum();
    (model, total)
}

/// `records` as outcomes of an `n_qubits`-wide register.
fn masked(records: &[(u64, u64)], n_qubits: usize) -> Vec<(u64, u64)> {
    let mask = (1u64 << n_qubits) - 1;
    records.iter().map(|&(b, c)| (b & mask, c)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted-vector [`qsim::Counts`] against a `BTreeMap` model over
    /// random `record` / `merge` / `from_iter` sequences: equality does
    /// not depend on the order outcomes were recorded in; `get`,
    /// `total`, `to_sorted_vec` and `Display` read what the model holds;
    /// a zero count records nothing; `from_iter` infers the width of
    /// the largest outcome.
    #[test]
    fn counts_agree_with_a_btreemap_model(
        n_qubits in 1usize..9,
        first in proptest::collection::vec((0u64..512, 0u64..6), 0..40),
        second in proptest::collection::vec((0u64..512, 0u64..6), 0..20),
    ) {
        let (first, second) = (masked(&first, n_qubits), masked(&second, n_qubits));
        let record = |records: &mut dyn Iterator<Item = &(u64, u64)>| {
            let mut c = qsim::Counts::new(n_qubits);
            for &(b, n) in records {
                c.record(b, n);
            }
            c
        };
        let forward = record(&mut first.iter());
        let backward = record(&mut first.iter().rev());
        prop_assert_eq!(&forward, &backward, "equality depends on record order");

        let mut merged = forward.clone();
        merged.merge(&record(&mut second.iter()));
        let all: Vec<(u64, u64)> = first.iter().chain(&second).copied().collect();
        prop_assert_eq!(&merged, &record(&mut all.iter()), "merge is recording the rest");

        let (model, total) = counts_model(&all);
        prop_assert_eq!(merged.total(), total);
        prop_assert_eq!(merged.len(), model.len());
        for b in 0..1u64 << n_qubits {
            prop_assert_eq!(merged.get(b), model.get(&b).copied().unwrap_or(0), "basis {}", b);
        }
        let mut sorted: Vec<(u64, u64)> = model.iter().map(|(&b, &c)| (b, c)).collect();
        sorted.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        prop_assert_eq!(merged.to_sorted_vec(), sorted.clone());
        let mut shown = format!("Counts({total} shots:");
        for (b, c) in &sorted {
            shown += &format!(" {:0width$b}:{c}", b, width = n_qubits);
        }
        prop_assert_eq!(merged.to_string(), shown + ")");
        let mut iterated: Vec<(u64, u64)> = merged.iter().collect();
        iterated.sort_unstable();
        prop_assert_eq!(iterated, model.iter().map(|(&b, &c)| (b, c)).collect::<Vec<_>>());

        let mut zero = merged.clone();
        for &(b, _) in &second {
            zero.record(b, 0);
        }
        prop_assert_eq!(&zero, &merged, "a zero count recorded something");

        let collected: qsim::Counts = all.iter().copied().collect();
        let widest = all.iter().map(|r| r.0).max().unwrap_or(0);
        let width = (64 - widest.leading_zeros()).max(1) as usize;
        prop_assert_eq!(collected.num_qubits(), width);
        prop_assert_eq!(collected.total(), total);
        prop_assert_eq!(collected.to_sorted_vec(), sorted);
    }
}
