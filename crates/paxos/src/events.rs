//! Events consumed and actions produced by the protocol state machine.

use smr_types::{ReplicaId, Slot, SnapshotBlob, View};
use smr_wire::{Batch, ProtocolMsg};

/// An input to [`crate::PaxosReplica::handle`] — one item popped from the
/// Protocol thread's DispatcherQueue, or a batch it sealed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// Emitted once at startup, before any other event.
    Init,
    /// A sealed batch, ready to be proposed. Callers
    /// should only submit proposals while [`crate::PaxosReplica::window_open`]
    /// returns true (flow control); the core buffers a small number of
    /// excess proposals and drops the rest when not leading.
    Proposal(Batch),
    /// A protocol message received from a peer.
    Message {
        /// The sending replica.
        from: ReplicaId,
        /// The message.
        msg: ProtocolMsg,
    },
    /// Suspect the leader of `view` now, as the core itself does on a
    /// [`Event::Tick`] that finds the leader silent. Stale suspicions (of
    /// older views) are ignored.
    Suspect {
        /// The view whose leader is suspected.
        view: View,
    },
    /// The periodic deadline: resends of unanswered Propose and Prepare
    /// messages, heartbeats on idle links, suspicion of a silent leader,
    /// the leader's quorum check, catch-up re-issue. The real runtime
    /// delivers one every `heartbeat_interval / 2`, which is also the
    /// precision of every resend.
    Tick,
}

/// Destination of an outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Target {
    /// Every peer (all replicas except the sender).
    All,
    /// A single replica.
    One(ReplicaId),
}

/// An output of the protocol state machine, to be effected by the caller
/// (send a message, deliver a decision, publish a role change).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send `msg` to `to`.
    Send {
        /// Destination.
        to: Target,
        /// The message.
        msg: ProtocolMsg,
    },
    /// Deliver the decided `batch` of `slot` to the service. Emitted in
    /// strictly increasing, gap-free slot order.
    Deliver {
        /// The decided slot.
        slot: Slot,
        /// The decided value.
        batch: Batch,
    },
    /// The view changed.
    LeaderChanged {
        /// The new view.
        view: View,
        /// Its leader.
        leader: ReplicaId,
    },
    /// [`crate::PaxosReplica::serving`] changed. `false`: this replica
    /// stopped leading, or it leads but has heard from fewer than a
    /// majority within the suspicion window, so it must stop admitting
    /// client requests and point its clients elsewhere. `true`: it leads
    /// with a quorum in contact again.
    ServingChanged {
        /// The new value.
        serving: bool,
    },
    /// A straggler asked for slots this replica has compacted: ship the
    /// latest service snapshot to `to`. The runtime materializes the blob
    /// (the protocol core does not hold service state) and sends a
    /// [`ProtocolMsg::Snapshot`]; if no snapshot exists yet the action is
    /// a no-op.
    SendSnapshot {
        /// The straggling replica.
        to: Target,
    },
    /// A peer's snapshot superseded part of this replica's log: the
    /// service must restore from `snapshot` before consuming any further
    /// [`Action::Deliver`]. Emitted strictly before deliveries of slots at
    /// or above `snapshot.applied_upto`.
    InstallSnapshot {
        /// The snapshot to restore from.
        snapshot: SnapshotBlob,
    },
}

impl Action {
    /// Short name of the action kind, for logs and tests.
    pub fn kind(&self) -> &'static str {
        match self {
            Action::Send { .. } => "Send",
            Action::Deliver { .. } => "Deliver",
            Action::LeaderChanged { .. } => "LeaderChanged",
            Action::ServingChanged { .. } => "ServingChanged",
            Action::SendSnapshot { .. } => "SendSnapshot",
            Action::InstallSnapshot { .. } => "InstallSnapshot",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_kind_names() {
        assert_eq!(
            Action::ServingChanged { serving: true }.kind(),
            "ServingChanged"
        );
        assert_eq!(
            Action::LeaderChanged {
                view: View(1),
                leader: ReplicaId(1)
            }
            .kind(),
            "LeaderChanged"
        );
    }
}
