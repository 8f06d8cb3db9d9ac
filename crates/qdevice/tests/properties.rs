//! Property-based tests of the device layer: timing, drift and noise
//! invariants across randomized configurations.

use proptest::prelude::*;
use qcircuit::{Circuit, Gate};
use qdevice::{
    Calibration, CompiledTemplate, DeviceQueue, DriftModel, LoadCurve, LoadModel, NoiseModel,
    QpuBackend, QueueModel, SimTime, TemplateRun,
};
use std::sync::{Arc, Mutex};
use transpile::Topology;

fn small_backend(cx_error: f64, readout: f64, wait: f64, seed: u64) -> QpuBackend {
    QpuBackend::new(
        "prop",
        Topology::line(3),
        Calibration::uniform(3, 90.0, 70.0, 0.001, cx_error, readout),
        DriftModel::linear(0.02, 0.002),
        QueueModel::light(wait),
        24.0,
        seed,
    )
}

fn bell3() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(Gate::H(0)).unwrap();
    c.push(Gate::Cx(0, 1)).unwrap();
    c.push(Gate::Cx(1, 2)).unwrap();
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Jobs never complete before submission, never start before
    /// submission, and counts always match the shot budget.
    #[test]
    fn job_timing_invariants(
        wait in 0.5..30.0f64,
        shots in 1usize..4096,
        submit_h in 0.0..100.0f64,
        seed in 0u64..1000,
    ) {
        let mut be = small_backend(0.01, 0.02, wait, seed);
        let t = SimTime::from_hours(submit_h);
        let job = be.execute(&bell3(), &[0, 1, 2], shots, t);
        prop_assert!(job.started >= t);
        prop_assert!(job.completed > job.started);
        prop_assert_eq!(job.counts.total(), shots as u64);
        prop_assert!(job.circuit_duration_ns > 0.0);
    }

    /// Sequential jobs on one device never overlap.
    #[test]
    fn device_serialization(seed in 0u64..500, wait in 0.5..5.0f64) {
        let mut be = small_backend(0.01, 0.02, wait, seed);
        let a = be.execute(&bell3(), &[0, 1, 2], 64, SimTime::ZERO);
        let b = be.execute(&bell3(), &[0, 1, 2], 64, SimTime::ZERO);
        prop_assert!(b.started >= a.completed);
    }

    /// Reported calibration is piecewise constant over a cycle; actual
    /// calibration is monotonically worse within a cycle.
    #[test]
    fn drift_monotone_within_cycle(h1 in 0.1..11.0f64, dh in 0.1..11.0f64) {
        let be = small_backend(0.01, 0.02, 1.0, 3);
        let h2 = (h1 + dh).min(23.0);
        let a = be.actual_calibration(SimTime::from_hours(h1));
        let b = be.actual_calibration(SimTime::from_hours(h2));
        prop_assert!(b.mean_cx_error() >= a.mean_cx_error() - 1e-12);
        let ra = be.reported_calibration(SimTime::from_hours(h1));
        let rb = be.reported_calibration(SimTime::from_hours(h2));
        prop_assert_eq!(ra.mean_cx_error(), rb.mean_cx_error());
    }

    /// Utilization is a fraction and busy time accumulates.
    #[test]
    fn utilization_is_fractional(shots in 64usize..2048, seed in 0u64..100) {
        let mut be = small_backend(0.01, 0.02, 1.0, seed);
        let j1 = be.execute(&bell3(), &[0, 1, 2], shots, SimTime::ZERO);
        let busy1 = be.busy_seconds();
        let j2 = be.execute(&bell3(), &[0, 1, 2], shots, j1.completed);
        let busy2 = be.busy_seconds();
        prop_assert!(busy2 > busy1);
        let u = be.utilization(j2.completed);
        prop_assert!((0.0..=1.0).contains(&u), "utilization {}", u);
    }

    /// Higher noise never *reduces* the GHZ error beyond sampling jitter.
    #[test]
    fn noise_ordering(seed in 0u64..50) {
        let ghz_err = |cx: f64, ro: f64| {
            let mut be = small_backend(cx, ro, 1.0, seed);
            let job = be.execute(&bell3(), &[0, 1, 2], 20_000, SimTime::ZERO);
            1.0 - job.counts.fraction_where(|b| b == 0 || b == 0b111)
        };
        let clean = ghz_err(0.002, 0.005);
        let dirty = ghz_err(0.05, 0.05);
        prop_assert!(dirty > clean, "dirty {} vs clean {}", dirty, clean);
    }

    /// Queue waits respect the configured band around the mean.
    #[test]
    fn queue_wait_bounds(mean in 1.0..100.0f64, amp in 0.0..2.0f64, h in 0.0..48.0f64) {
        let q = QueueModel::congested(mean, amp, 0.0);
        let w = q.wait_s(SimTime::from_hours(h));
        prop_assert!(w >= mean * (-amp).exp() - 1e-9);
        prop_assert!(w <= mean * amp.exp() + 1e-9);
    }

    /// Shared-ledger admissions never start a job before its submission
    /// and the exogenous backlog never decays below zero, whatever the
    /// load model and however the query times jump around.
    #[test]
    fn ledger_waits_are_never_negative(
        mean in 1.0..100.0f64,
        busy in 0.0..3600.0f64,
        amp in 0.0..1.5f64,
        submits in proptest::collection::vec(0.0..200.0f64, 1..12),
        u in 0.0..1.0f64,
    ) {
        for load in [
            LoadModel::None,
            LoadModel::Diurnal { busy_per_hour: busy, curve: LoadCurve::daily(amp, 3.0) },
            LoadModel::Bursty { burst_busy_s: busy, interval_s: 7200.0, phase_s: 5.0 },
            LoadModel::Poisson { jobs_per_hour: 4.0, mean_job_s: busy.max(1.0), seed: 9 },
        ] {
            let mut q = DeviceQueue::new(QueueModel::light(mean), load).expect("valid ledger");
            for &h in &submits {
                let submit = SimTime::from_hours(h);
                let start = q.admit(submit, u);
                prop_assert!(
                    start >= submit,
                    "start {:?} precedes submission {:?} under {:?}", start, submit, load
                );
                prop_assert!(q.backlog_s() >= 0.0);
            }
        }
    }

    /// The diurnal congestion curve — and the exogenous load rate built
    /// on it — repeats exactly one period later.
    #[test]
    fn diurnal_curve_is_periodic(
        amp in 0.0..2.0f64,
        phase in 0.0..24.0f64,
        busy in 0.0..3600.0f64,
        h in 0.0..100.0f64,
        k in 1u32..4,
    ) {
        let curve = LoadCurve::daily(amp, phase);
        let t = SimTime::from_hours(h);
        let shifted = SimTime::from_hours(h + 24.0 * f64::from(k));
        let (a, b) = (curve.factor(t), curve.factor(shifted));
        prop_assert!((a - b).abs() <= 1e-9 * a.max(1.0), "factor {} vs {} one period on", a, b);
        let load = LoadModel::Diurnal { busy_per_hour: busy, curve };
        let (ra, rb) = (load.rate_at(t), load.rate_at(shifted));
        prop_assert!((ra - rb).abs() <= 1e-9 * ra.max(1.0), "rate {} vs {} one period on", ra, rb);
    }

    /// Bookings derived from admissions occupy disjoint intervals: the
    /// ledger serializes the device no matter the submission pattern.
    #[test]
    fn booked_intervals_never_overlap(
        jobs in proptest::collection::vec((0.0..5.0f64, 1.0..3600.0f64, 0.0..1.0f64), 1..16),
        busy in 0.0..1800.0f64,
    ) {
        let mut q = DeviceQueue::new(
            QueueModel::light(30.0),
            LoadModel::Diurnal { busy_per_hour: busy, curve: LoadCurve::daily(0.8, 3.0) },
        ).expect("valid ledger");
        let mut t_h = 0.0;
        for &(dt, dur, u) in &jobs {
            t_h += dt;
            let start = q.admit(SimTime::from_hours(t_h), u);
            q.book(start, dur);
        }
        let booked = q.booked();
        prop_assert_eq!(booked.len() as u64, q.jobs_booked());
        for w in booked.windows(2) {
            prop_assert!(
                w[1].0 >= w[0].1 - 1e-6,
                "interval {:?} overlaps its predecessor {:?}", w[1], w[0]
            );
        }
        for &(s, e) in booked {
            prop_assert!(e >= s, "inverted interval ({}, {})", s, e);
        }
    }

    /// Phase covariance, the contract the compiler's RZ frame rides on:
    /// the superoperator each channel key lowers to — thermal
    /// relaxation, one- and two-qubit depolarizing, straight from their
    /// numbers as `ChannelKey::lower` pushes them — commutes with
    /// `RZ(phi)` (on a block, `diag(1, e^{i phi}, e^{-i phi}, 1)`) on
    /// each of its operands, in either operand order.
    #[test]
    fn every_lowered_channel_commutes_with_rz_on_its_operands(
        p in 0.0..1.0f64,
        t1 in 10.0..500.0f64,
        t2_over_t1 in 0.05..2.0f64,
        duration in 1.0..2000.0f64,
        phi in -7.0..7.0f64,
    ) {
        use qsim::{gates, DensityMatrix, StateVector, SuperopTable};
        let mut table = SuperopTable::default();
        let relaxation = table.push_thermal_relaxation(t1 * 1e3, t1 * t2_over_t1 * 1e3, duration);
        let depolarizing_1q = table.push_depolarizing_1q(p);
        let depolarizing_2q = table.push_depolarizing_2q(p);
        let sites: [(usize, &[usize]); 6] = [
            (relaxation, &[0]),
            (relaxation, &[1]),
            (depolarizing_1q, &[0]),
            (depolarizing_1q, &[1]),
            (depolarizing_2q, &[0, 1]),
            (depolarizing_2q, &[1, 0]),
        ];
        let rz = gates::rz(phi);
        // |0>, |1>, |+>, |+i> on each qubit: sixteen pure states whose
        // projectors span every 4x4 matrix, so agreeing on all of them
        // is agreeing as linear maps.
        let preps = [
            vec![],
            vec![gates::x()],
            vec![gates::h()],
            vec![gates::h(), gates::s()],
        ];
        for (prep0, prep1) in preps.iter().flat_map(|a| preps.iter().map(move |b| (a, b))) {
            let mut sv = StateVector::new(2);
            prep0.iter().for_each(|u| sv.apply_1q(u, 0));
            prep1.iter().for_each(|u| sv.apply_1q(u, 1));
            let rho = DensityMatrix::from_statevector(&sv);
            for (channel, qubits) in sites {
                for &q in qubits {
                    let (mut phase_first, mut channel_first) = (rho.clone(), rho.clone());
                    phase_first.apply_unitary_1q(&rz, q);
                    phase_first.apply_superop(table.get(channel), qubits);
                    channel_first.apply_superop(table.get(channel), qubits);
                    channel_first.apply_unitary_1q(&rz, q);
                    prop_assert!(
                        phase_first.matrix().approx_eq(&channel_first.matrix(), 1e-14),
                        "channel {} on {:?} against RZ({}) on {}", channel, qubits, phi, q
                    );
                }
            }
        }
    }

    /// A template job of `k` runs returns one histogram of `shots` per
    /// run and one time window, whose length is the runs' execution
    /// seconds summed in run order.
    #[test]
    fn batch_invariants(k in 1usize..6, shots in 16usize..512) {
        let mut be = small_backend(0.01, 0.02, 1.0, 9);
        let mut template = CompiledTemplate::new(bell3(), vec![0, 1, 2]);
        let runs = vec![TemplateRun { template: 0, shift: None }; k];
        let (counts, timing) =
            be.execute_templates(&mut [&mut template], &runs, &[], shots, SimTime::ZERO);
        prop_assert_eq!(counts.len(), k);
        for c in &counts {
            prop_assert_eq!(c.total(), shots as u64);
        }
        prop_assert!(timing.completed > timing.started);
        let readout_ns = be.reported_calibration(timing.started).readout_time_ns;
        let per_run = be.queue().execution_s(timing.circuit_duration_ns, readout_ns, shots);
        let window = (0..k).fold(0.0, |sum, _| sum + per_run);
        prop_assert_eq!(
            timing.completed.as_secs().to_bits(),
            (timing.started + window).as_secs().to_bits()
        );
    }

    /// A job whose `execute_with` simulation returns `k` circuits is one
    /// job: one ledger booking and one start-time draw, so a follow-up
    /// job sees the device exactly as a twin that ran the same `k` runs
    /// through `execute_templates` left it.
    #[test]
    fn execute_with_books_k_circuits_as_one_job(
        k in 1usize..6,
        shots in 16usize..512,
        seed in 0u64..100,
    ) {
        let active = [0usize, 1, 2];
        let mut be = small_backend(0.01, 0.02, 1.0, seed);
        let ledger = Arc::new(Mutex::new(
            DeviceQueue::new(be.queue().clone(), LoadModel::None).expect("valid ledger"),
        ));
        be.attach_shared_queue(Arc::clone(&ledger));
        let (counts, job) = be.execute_with(shots, SimTime::ZERO, |be, started| {
            let noise = NoiseModel::from_calibration(&be.actual_calibration(started), &active);
            (0..k)
                .map(|_| {
                    let program = qdevice::compile_bound(&bell3(), &noise);
                    let c = qsim::DensityEngine::new().run_program(&program, shots, be.shot_rng());
                    (c, program.duration_ns(), noise.readout_time_ns)
                })
                .collect()
        });
        prop_assert_eq!(ledger.lock().expect("ledger").jobs_booked(), 1);
        prop_assert_eq!(be.jobs_executed(), 1);

        let mut twin = small_backend(0.01, 0.02, 1.0, seed);
        let mut template = CompiledTemplate::new(bell3(), active.to_vec());
        let runs = vec![TemplateRun { template: 0, shift: None }; k];
        let (twin_counts, twin_job) =
            twin.execute_templates(&mut [&mut template], &runs, &[], shots, SimTime::ZERO);
        prop_assert_eq!(&counts, &twin_counts);
        prop_assert_eq!(job.completed.as_secs().to_bits(), twin_job.completed.as_secs().to_bits());

        let next = be.execute(&bell3(), &active, shots, job.completed);
        let twin_next = twin.execute(&bell3(), &active, shots, twin_job.completed);
        prop_assert_eq!(next.counts, twin_next.counts);
        prop_assert_eq!(next.started.as_secs().to_bits(), twin_next.started.as_secs().to_bits());
        prop_assert_eq!(ledger.lock().expect("ledger").jobs_booked(), 2);
    }
}
