//! Device calibration data.
//!
//! "Each quantum computer, when calibrated, reports the gate fidelity,
//! measurement fidelity, gate times, state anharmonicity, and T1/T2 decay
//! constants" (Section IV of the paper). [`Calibration`] is that report:
//! the paper's Eq. 2 reads `gamma` (1q gate error), `beta` (CNOT error),
//! `omega` (readout error), `T1`, `T2` and the mean gate times from it.

use std::collections::HashMap;
use std::fmt;

/// Per-qubit coherence and readout figures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QubitCalibration {
    /// Energy relaxation time constant, microseconds.
    pub t1_us: f64,
    /// Dephasing time constant, microseconds (`T2 <= 2 T1`).
    pub t2_us: f64,
    /// Symmetric readout flip probability (the paper's per-qubit `omega`).
    pub readout_error: f64,
    /// Single-qubit (SX/X) depolarizing error (the paper's `gamma`).
    pub gate_error_1q: f64,
}

/// A full calibration snapshot for one device.
///
/// # Examples
///
/// ```
/// use qdevice::calibration::Calibration;
///
/// let cal = Calibration::uniform(3, 100.0, 80.0, 0.001, 0.01, 0.02);
/// assert_eq!(cal.num_qubits(), 3);
/// assert!((cal.mean_t1_us() - 100.0).abs() < 1e-12);
/// assert!((cal.mean_cx_error() - 0.01).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Calibration {
    qubits: Vec<QubitCalibration>,
    /// CNOT depolarizing error per coupled pair, keyed `(min, max)`.
    cx_errors: HashMap<(usize, usize), f64>,
    /// Fallback CX error for pairs without explicit entries.
    default_cx_error: f64,
    /// Duration of a physical 1q gate (SX/X), nanoseconds.
    pub gate_time_1q_ns: f64,
    /// Duration of a CX gate, nanoseconds.
    pub gate_time_2q_ns: f64,
    /// Readout duration, nanoseconds.
    pub readout_time_ns: f64,
    /// Virtual-time hour at which this snapshot was taken.
    pub calibrated_at_hours: f64,
}

impl Calibration {
    /// IBMQ-typical gate durations (35 ns 1q, 430 ns CX, 4 us readout).
    pub const DEFAULT_T1Q_NS: f64 = 35.0;
    /// Default CX duration in nanoseconds.
    pub const DEFAULT_T2Q_NS: f64 = 430.0;
    /// Default readout duration in nanoseconds.
    pub const DEFAULT_READOUT_NS: f64 = 4000.0;

    /// Builds a calibration from explicit per-qubit data.
    pub fn new(qubits: Vec<QubitCalibration>) -> Self {
        Calibration {
            qubits,
            cx_errors: HashMap::new(),
            default_cx_error: 0.01,
            gate_time_1q_ns: Self::DEFAULT_T1Q_NS,
            gate_time_2q_ns: Self::DEFAULT_T2Q_NS,
            readout_time_ns: Self::DEFAULT_READOUT_NS,
            calibrated_at_hours: 0.0,
        }
    }

    /// Uniform calibration: every qubit identical, every edge sharing one
    /// CX error. The `cx_error` applies to any pair queried later.
    pub fn uniform(
        n: usize,
        t1_us: f64,
        t2_us: f64,
        gate_error_1q: f64,
        cx_error: f64,
        readout_error: f64,
    ) -> Self {
        let mut cal = Calibration::new(vec![
            QubitCalibration {
                t1_us,
                t2_us,
                readout_error,
                gate_error_1q,
            };
            n
        ]);
        cal.default_cx_error = cx_error;
        cal
    }

    /// Number of calibrated qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// The one-qubit gate, two-qubit gate and readout times (ns), which
    /// [`Calibration::degrade`] never moves.
    pub fn times_ns(&self) -> [f64; 3] {
        [
            self.gate_time_1q_ns,
            self.gate_time_2q_ns,
            self.readout_time_ns,
        ]
    }

    /// Per-qubit figures.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn qubit(&self, q: usize) -> &QubitCalibration {
        &self.qubits[q]
    }

    /// Mutable access for drift application.
    pub fn qubit_mut(&mut self, q: usize) -> &mut QubitCalibration {
        &mut self.qubits[q]
    }

    /// Sets the CX error of a coupled pair (order-insensitive).
    pub fn set_cx_error(&mut self, a: usize, b: usize, error: f64) {
        self.cx_errors.insert((a.min(b), a.max(b)), error);
    }

    /// CX error of a pair; falls back to the default if the pair was never
    /// set explicitly.
    pub fn cx_error(&self, a: usize, b: usize) -> f64 {
        self.cx_errors
            .get(&(a.min(b), a.max(b)))
            .copied()
            .unwrap_or(self.default_cx_error)
    }

    /// Iterates explicitly set CX errors.
    pub fn cx_errors(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.cx_errors.iter().map(|(&k, &v)| (k, v))
    }

    /// Mean T1 across qubits, microseconds (Eq. 2's `T1`).
    pub fn mean_t1_us(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.t1_us))
    }

    /// Mean T2 across qubits, microseconds (Eq. 2's `T2`).
    pub fn mean_t2_us(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.t2_us))
    }

    /// Mean 1q gate error (Eq. 2's `gamma`).
    pub fn mean_gate_error_1q(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.gate_error_1q))
    }

    /// Mean readout error (Eq. 2's `omega`).
    pub fn mean_readout_error(&self) -> f64 {
        mean(self.qubits.iter().map(|q| q.readout_error))
    }

    /// Mean CX error over explicitly set pairs, or the default when none
    /// are set (Eq. 2's `beta`).
    pub fn mean_cx_error(&self) -> f64 {
        if self.cx_errors.is_empty() {
            self.default_cx_error
        } else {
            mean(self.cx_errors.values().copied())
        }
    }

    /// Scales every error figure by `factor` and coherence times by
    /// `1/coherence_factor`, clamping to physical ranges. Used by drift.
    pub fn degrade(&mut self, error_factor: f64, coherence_factor: f64) {
        for q in &mut self.qubits {
            q.gate_error_1q = (q.gate_error_1q * error_factor).clamp(0.0, 0.5);
            q.readout_error = (q.readout_error * error_factor).clamp(0.0, 0.5);
            q.t1_us = (q.t1_us / coherence_factor).max(1.0);
            q.t2_us = (q.t2_us / coherence_factor).max(1.0).min(2.0 * q.t1_us);
        }
        for v in self.cx_errors.values_mut() {
            *v = (*v * error_factor).clamp(0.0, 0.75);
        }
        self.default_cx_error = (self.default_cx_error * error_factor).clamp(0.0, 0.75);
    }

    /// Default CX error applied to pairs without explicit entries.
    pub fn default_cx_error(&self) -> f64 {
        self.default_cx_error
    }
}

fn mean<I: Iterator<Item = f64>>(it: I) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

impl fmt::Display for Calibration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Calibration[{} qubits, T1={:.1}us T2={:.1}us g1={:.4} cx={:.4} ro={:.4}]",
            self.num_qubits(),
            self.mean_t1_us(),
            self.mean_t2_us(),
            self.mean_gate_error_1q(),
            self.mean_cx_error(),
            self.mean_readout_error()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_means() {
        let cal = Calibration::uniform(4, 120.0, 90.0, 0.0005, 0.012, 0.02);
        assert!((cal.mean_t1_us() - 120.0).abs() < 1e-12);
        assert!((cal.mean_t2_us() - 90.0).abs() < 1e-12);
        assert!((cal.mean_gate_error_1q() - 0.0005).abs() < 1e-12);
        assert!((cal.mean_readout_error() - 0.02).abs() < 1e-12);
        assert!((cal.mean_cx_error() - 0.012).abs() < 1e-12);
    }

    #[test]
    fn cx_error_is_order_insensitive() {
        let mut cal = Calibration::uniform(3, 100.0, 80.0, 0.001, 0.01, 0.02);
        cal.set_cx_error(2, 1, 0.03);
        assert_eq!(cal.cx_error(1, 2), 0.03);
        assert_eq!(cal.cx_error(2, 1), 0.03);
        assert_eq!(cal.cx_error(0, 1), 0.01); // default
    }

    #[test]
    fn degrade_scales_and_clamps() {
        let mut cal = Calibration::uniform(2, 100.0, 80.0, 0.01, 0.05, 0.1);
        cal.degrade(3.0, 2.0);
        assert!((cal.mean_gate_error_1q() - 0.03).abs() < 1e-12);
        assert!((cal.mean_readout_error() - 0.3).abs() < 1e-12);
        assert!((cal.mean_t1_us() - 50.0).abs() < 1e-12);
        // Extreme degradation clamps.
        cal.degrade(1e6, 1e6);
        assert!(cal.mean_gate_error_1q() <= 0.5);
        assert!(cal.mean_t1_us() >= 1.0);
        assert!(cal.qubit(0).t2_us <= 2.0 * cal.qubit(0).t1_us);
    }

    #[test]
    fn display_summarizes() {
        let cal = Calibration::uniform(2, 100.0, 80.0, 0.001, 0.01, 0.02);
        let s = cal.to_string();
        assert!(s.contains("2 qubits"));
        assert!(s.contains("T1=100.0"));
    }
}
