//! Snapshot and log-compaction vocabulary shared by the storage layer,
//! the protocol state machine, and the replica runtime.

use std::error::Error;
use std::fmt;

use crate::Slot;

/// A point-in-time capture of a replicated service's state.
///
/// `applied_upto` is an *exclusive* watermark: the snapshot reflects the
/// execution of every decided slot below it, and the first slot a
/// restored replica still has to execute is exactly `applied_upto`.
/// `state_hash` is the service's order-independent digest at that point,
/// recorded so a restore can be verified end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotBlob {
    /// First slot NOT covered by this snapshot (exclusive watermark).
    pub applied_upto: Slot,
    /// The service's state digest when the snapshot was taken.
    pub state_hash: u64,
    /// The service-defined serialized state.
    pub state: Vec<u8>,
}

/// Governs when a replica's log garbage-collects delivered slots.
///
/// Set on the protocol core with `PaxosReplica::set_compaction` and
/// threaded through `ReplicaBuilder`, so every layer — protocol log,
/// catch-up serving, and snapshot transfer — agrees on what history
/// still exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompactionPolicy {
    /// Never garbage-collect (unbounded memory; tests and short runs).
    KeepAll,
    /// Keep the most recent `n` delivered slots (the pre-snapshot
    /// behaviour; stragglers older than `n` slots can never catch up).
    KeepSlots(u64),
    /// Compact everything below the snapshot watermark: history is
    /// dropped only once a snapshot covers it, so a straggler can always
    /// recover via snapshot transfer plus the retained tail.
    #[default]
    SnapshotDriven,
}

/// Error restoring a service from snapshot bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    detail: String,
}

impl SnapshotError {
    /// Creates a restore error with the given explanation.
    pub fn new(detail: impl Into<String>) -> Self {
        SnapshotError {
            detail: detail.into(),
        }
    }

    /// The explanation of what went wrong.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot restore failed: {}", self.detail)
    }
}

impl Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_snapshot_driven() {
        assert_eq!(
            CompactionPolicy::default(),
            CompactionPolicy::SnapshotDriven
        );
    }

    #[test]
    fn snapshot_error_displays_detail() {
        let e = SnapshotError::new("truncated header");
        assert_eq!(e.to_string(), "snapshot restore failed: truncated header");
        assert_eq!(e.detail(), "truncated header");
    }

    #[test]
    fn blob_is_comparable() {
        let a = SnapshotBlob {
            applied_upto: Slot(5),
            state_hash: 42,
            state: vec![1, 2, 3],
        };
        assert_eq!(a.clone(), a);
    }
}
