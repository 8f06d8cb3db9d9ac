//! The live-half density kernels held to the full-matrix kernels of
//! `eqc-oracle`: the lowered channel sweep, the one-qubit superoperator
//! sweep at every position, and the diagonal phase pass.

use eqc_oracle::baseline;
use qsim::{gates, CMatrix, DensityMatrix, KrausChannel, SuperopTable, C64};

/// A small noisy workload touching every kernel: permutation-like,
/// diagonal and dense 1q/2q unitaries plus sparse channels (including an
/// all-zero Kraus row via amplitude damping), a complex one-qubit
/// cluster and a dense unitary channel.
fn drive(apply: &mut dyn FnMut(Step<'_>), n: usize) {
    let dense_2q = gates::h().kron(&gates::ry(0.7));
    let (_, complex_1q, _) = one_qubit_clusters();
    for q in 0..n {
        apply(Step::U1(&gates::ry(0.3 + q as f64), q));
        apply(Step::U1(&gates::h(), q));
        apply(Step::U1(&gates::rz(0.4 + q as f64), q));
        apply(Step::U1(&gates::x(), q));
        apply(Step::Ch(&complex_1q, &[q]));
    }
    for q in 0..n.saturating_sub(1) {
        apply(Step::U2(&gates::cx(), q, q + 1));
        apply(Step::U2(&dense_2q, q, q + 1));
    }
    apply(Step::Ch(&KrausChannel::amplitude_damping(0.2), &[0]));
    apply(Step::Ch(&KrausChannel::depolarizing_1q(0.05), &[n / 2]));
    if n >= 2 {
        apply(Step::Ch(&KrausChannel::depolarizing_2q(0.1), &[0, n - 1]));
        let dense_ch = KrausChannel::new(vec![gates::h().kron(&gates::h())]);
        apply(Step::Ch(&dense_ch, &[n - 1, 0]));
    }
}

enum Step<'a> {
    U1(&'a CMatrix, usize),
    U2(&'a CMatrix, usize, usize),
    Ch(&'a KrausChannel, &'a [usize]),
}

#[test]
fn lowered_channel_sweep_matches_baseline() {
    for n in 1..=5 {
        let mut fast = DensityMatrix::new(n);
        let mut slow = DensityMatrix::new(n);
        drive(
            &mut |step| match step {
                Step::U1(u, q) => {
                    fast.apply_unitary_1q(u, q);
                    baseline::apply_unitary_1q(&mut slow, u, q);
                }
                Step::U2(u, a, b) => {
                    fast.apply_unitary_2q(u, a, b);
                    baseline::apply_unitary_2q(&mut slow, u, a, b);
                }
                Step::Ch(ch, qs) => {
                    fast.apply_channel(ch, qs);
                    baseline::apply_channel(&mut slow, ch, qs);
                }
            },
            n,
        );
        assert!(
            fast.matrix().approx_eq(&slow.matrix(), 1e-12),
            "lowered channel sweep diverges from baseline at {n} qubits"
        );
        assert!((fast.trace() - 1.0).abs() < 1e-9);
    }
}

/// The three shapes a one-qubit superoperator comes in: real
/// (relaxation alone), complex (`sx` + relaxation + depolarizing, a
/// fused gate cluster) and fully dense (damping between two generic
/// rotations).
fn one_qubit_clusters() -> (KrausChannel, KrausChannel, KrausChannel) {
    let relax = KrausChannel::thermal_relaxation(90.0, 70.0, 12.0);
    let gate = |u: CMatrix| KrausChannel::new(vec![u]);
    let complex = gate(gates::sx())
        .compose(&relax)
        .compose(&KrausChannel::depolarizing_1q(0.03));
    let dense = gate(gates::rz(0.3) * gates::ry(0.7))
        .compose(&KrausChannel::amplitude_damping(0.2))
        .compose(&gate(gates::ry(-1.1) * gates::rz(2.2)));
    (relax, complex, dense)
}

/// An entangled mixed state with no zero and no symmetric entry.
fn mixed_state(n: usize) -> DensityMatrix {
    let mut rho = DensityMatrix::new(n);
    for q in 0..n {
        rho.apply_unitary_1q(&(gates::rz(0.9 - q as f64) * gates::ry(0.5 + q as f64)), q);
    }
    for q in 1..n {
        rho.apply_unitary_2q(&gates::cx(), q - 1, q);
        rho.apply_unitary_1q(&gates::sx(), q);
    }
    rho.apply_channel(&KrausChannel::amplitude_damping(0.15), &[n - 1]);
    rho.apply_channel(&KrausChannel::depolarizing_1q(0.08), &[0]);
    rho
}

#[test]
fn one_qubit_sweep_matches_kraus_sum_at_every_position() {
    let (real, complex, dense) = one_qubit_clusters();
    let mut table = SuperopTable::default();
    let lowered = [&real, &complex, &dense].map(|ch| table.push(ch));
    let [r, c, d] = lowered.map(|s| table.get(s));
    assert!(r.is_real() && !c.is_real() && d.nnz() == 16);
    for n in 1..=7 {
        let state = mixed_state(n);
        // q = 0: column runs of length 1; q = n - 1: one run per row.
        for q in 0..n {
            for ch in [&real, &complex, &dense] {
                let (mut swept, mut summed) = (state.clone(), state.clone());
                swept.apply_channel(ch, &[q]);
                baseline::apply_channel(&mut summed, ch, &[q]);
                let m = swept.matrix();
                assert!(
                    m.approx_eq(&summed.matrix(), 1e-12),
                    "sweep != Kraus sum on qubit {q} of {n}"
                );
                assert!((swept.trace() - 1.0).abs() < 1e-12);
                assert!(m.is_hermitian(1e-13));
            }
        }
    }
}

#[test]
fn diagonal_pass_matches_two_pass_oracle() {
    let gamma: f64 = 0.3;
    let mut damp = CMatrix::identity(2);
    damp[(1, 1)] = C64::from_real((1.0 - gamma).sqrt());
    for n in 1..=7 {
        let state = mixed_state(n);
        let dim = state.dim();
        for q in 0..n {
            // Phase gates (unit modulus: half the state is skipped)
            // and a non-unit diagonal operator (no skip).
            let theta = 0.37 + 1.9 * (n * 7 + q) as f64;
            for u in [gates::rz(theta), gates::z(), gates::t(), damp.clone()] {
                let (mut fast, mut slow) = (state.clone(), state.clone());
                fast.apply_unitary_1q(&u, q);
                baseline::apply_unitary_1q(&mut slow, &u, q);
                assert!(
                    fast.matrix().approx_eq(&slow.matrix(), 1e-14),
                    "diagonal pass != two passes on qubit {q} of {n}"
                );
            }
            // A phase gate never touches a probability.
            let mut phased = state.clone();
            phased.apply_unitary_1q(&gates::rz(theta), q);
            let (after, before) = (phased.matrix(), state.matrix());
            for i in 0..dim {
                let (a, b) = (after[(i, i)], before[(i, i)]);
                assert!(a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            }
        }
    }
}
