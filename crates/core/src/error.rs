//! Typed errors for the EQC framework.
//!
//! Every public constructor and training entry point returns
//! [`EqcError`] instead of panicking: invalid configurations, empty
//! ensembles, unknown catalog devices and transpilation failures all
//! surface as values the caller can match on.

use qdevice::DeviceError;
use std::fmt;
use transpile::TranspileError;

/// Everything that can go wrong building or training an ensemble.
#[derive(Clone, Debug, PartialEq)]
pub enum EqcError {
    /// A configuration field is out of range (the message names it).
    InvalidConfig(String),
    /// The ensemble was built without any devices.
    EmptyEnsemble,
    /// The problem defines no parameters or no gradient tasks, so no
    /// training schedule exists.
    EmptyProblem(String),
    /// A device name was not found in the [`mod@qdevice::catalog`].
    UnknownDevice(String),
    /// A problem template does not fit a device's topology.
    Transpile {
        /// The device whose topology rejected the circuit.
        device: String,
        /// The underlying transpiler error.
        source: TranspileError,
    },
    /// A device description was invalid (drift episode, queue model or
    /// multiprogramming configuration out of range).
    Device(DeviceError),
    /// The session already ran; build a fresh session to train again.
    SessionConsumed,
    /// The fleet was asked to run with no admitted tenants.
    NoTenants,
    /// The master was asked for an assignment but its cyclic schedule
    /// holds no tasks.
    EmptySchedule,
    /// A result was filed for a `(cycle, parameter)` gather that was
    /// never registered by a dispatch.
    UnknownGather {
        /// Cycle index of the orphaned result.
        cycle: usize,
        /// Parameter index of the orphaned result.
        param: usize,
    },
    /// A report was requested over a different number of clients than
    /// the master was built for.
    ClientCountMismatch {
        /// Clients the master tracks.
        expected: usize,
        /// Clients handed to the report.
        got: usize,
    },
    /// A [`TenantId`](crate::fleet::TenantId) minted by one tenant
    /// batch was used on the outcome of another batch.
    StaleTenant {
        /// Batch generation the id was minted in.
        held: u64,
        /// Batch generation of the outcome it was used on.
        outcome: u64,
    },
    /// The service's admission queue is at its configured capacity.
    AdmissionQueueFull {
        /// The `max_pending` bound that rejected the admission.
        capacity: usize,
    },
    /// A shared per-device occupancy ledger's mutex was poisoned — a
    /// thread panicked while holding it, so its queue timeline can no
    /// longer be trusted.
    LedgerPoisoned {
        /// Pool index of the device whose ledger is poisoned.
        device: usize,
    },
    /// An internal invariant broke (e.g. a worker thread panicked).
    Internal(String),
}

impl From<DeviceError> for EqcError {
    fn from(source: DeviceError) -> Self {
        EqcError::Device(source)
    }
}

impl fmt::Display for EqcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EqcError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EqcError::EmptyEnsemble => write!(f, "ensemble has no devices"),
            EqcError::EmptyProblem(name) => {
                write!(f, "problem {name} defines no trainable schedule")
            }
            EqcError::UnknownDevice(name) => {
                write!(f, "device {name:?} is not in the catalog")
            }
            EqcError::Transpile { device, source } => {
                write!(f, "transpilation failed for {device}: {source}")
            }
            EqcError::Device(source) => write!(f, "invalid device description: {source}"),
            EqcError::SessionConsumed => {
                write!(f, "session already trained; create a new session")
            }
            EqcError::NoTenants => {
                write!(f, "fleet has no admitted tenants; call admit first")
            }
            EqcError::EmptySchedule => {
                write!(f, "the cyclic schedule holds no tasks to assign")
            }
            EqcError::UnknownGather { cycle, param } => {
                write!(
                    f,
                    "result filed for unregistered gather (cycle {cycle}, parameter {param})"
                )
            }
            EqcError::ClientCountMismatch { expected, got } => {
                write!(
                    f,
                    "report requested over {got} clients but the master tracks {expected}"
                )
            }
            EqcError::StaleTenant { held, outcome } => {
                write!(
                    f,
                    "TenantId from fleet batch {held} used on the outcome of batch {outcome}"
                )
            }
            EqcError::AdmissionQueueFull { capacity } => {
                write!(
                    f,
                    "admission queue is at capacity ({capacity} tenants pending); drain first"
                )
            }
            EqcError::LedgerPoisoned { device } => {
                write!(
                    f,
                    "occupancy ledger of device {device} is poisoned (a holder panicked)"
                )
            }
            EqcError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for EqcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EqcError::Transpile { source, .. } => Some(source),
            EqcError::Device(source) => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(EqcError::EmptyEnsemble.to_string().contains("no devices"));
        assert!(EqcError::UnknownDevice("atlantis".into())
            .to_string()
            .contains("atlantis"));
        assert!(EqcError::InvalidConfig("epochs must be positive".into())
            .to_string()
            .contains("epochs"));
        assert_eq!(
            EqcError::StaleTenant {
                held: 0,
                outcome: 2
            }
            .to_string(),
            "TenantId from fleet batch 0 used on the outcome of batch 2"
        );
        assert!(EqcError::AdmissionQueueFull { capacity: 8 }
            .to_string()
            .contains("8 tenants pending"));
    }

    #[test]
    fn errors_compare_and_clone() {
        let e = EqcError::UnknownDevice("x".into());
        assert_eq!(e.clone(), e);
        assert_ne!(e, EqcError::EmptyEnsemble);
    }
}
