//! Pure, deterministic MultiPaxos replication core.
//!
//! This crate implements the *logic* of the replication protocol the paper
//! builds on (§III-A: leader-based Paxos with the batching and pipelining
//! optimizations of ref. \[12\]) as a side-effect-free state machine:
//! events in ([`Event`]), actions out ([`Action`]). It performs no I/O,
//! spawns no threads, and reads no clocks — the caller supplies
//! timestamps. This is what makes the same protocol code usable by
//!
//! * the real threaded runtime (`smr-core`), where the Protocol thread
//!   feeds it events popped from the DispatcherQueue, and
//! * the discrete-event simulator (`smr-sim-jpaxos`), where virtual
//!   threads feed it events in virtual time,
//!
//! and what makes the safety property ("no two replicas decide
//! differently") directly checkable by property-based tests.
//!
//! # Protocol sketch
//!
//! Views rotate round-robin: the leader of view `v` is replica `v mod n`.
//! View 0 is prepared by convention (nothing can have been accepted
//! earlier), so a fresh cluster starts ordering immediately. A leader
//! assigns consecutive slots to batches and sends `Propose` (Phase 2a);
//! acceptors accept and send `Accept` (Phase 2b) to every replica that
//! can use it, so every replica learns decisions directly: with n = 3 a
//! follower's own vote and the leader's already decide the slot, so the
//! `Accept` goes to the leader only; for n ≥ 4 it goes to all replicas.
//! A replica suspects a leader
//! it has not heard from for longer than its adaptive threshold (checked
//! on [`Event::Tick`]), advances to the next view, and the new leader
//! runs `Prepare`/`Promise` (Phase 1) over the unstable log suffix
//! before proposing again. A leader that hears from no quorum stops
//! admitting client requests ([`Action::ServingChanged`]) without
//! changing view. Catch-up fills log gaps from peers.
//!
//! Retransmission (§V-C4) is core state too: each undecided slot of the
//! leader's view, and the Prepare of a view being prepared, carries a
//! resend deadline with exponential backoff
//! ([`smr_types::RetransmitPolicy`]). [`Event::Tick`] resends what is
//! overdue; a decision or a view change drops the deadline.
//!
//! # Examples
//!
//! Single-replica cluster deciding a batch immediately:
//!
//! ```
//! use smr_paxos::{Action, Event, PaxosReplica};
//! use smr_types::{ClusterConfig, ReplicaId};
//! use smr_wire::Batch;
//!
//! let mut replica = PaxosReplica::new(ReplicaId(0), ClusterConfig::new(1));
//! let mut actions = Vec::new();
//! replica.handle(Event::Init, 0, &mut actions);
//! replica.handle(Event::Proposal(Batch::empty()), 0, &mut actions);
//! assert!(actions.iter().any(|a| matches!(a, Action::Deliver { .. })));
//! ```

mod batcher;
mod detector;
mod events;
mod log;
mod replica;

pub use batcher::BatchBuilder;
pub use events::{Action, Event, Target};
pub use log::{Instance, Log};
pub use replica::{PaxosReplica, ReplicaRole};
