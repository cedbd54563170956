//! The paper's contribution: a multi-core scalable threading architecture
//! for replicated state machines.
//!
//! A [`Replica`] is a set of cooperating threads wired by bounded,
//! instrumented queues, reproducing Fig. 3 of the paper:
//!
//! ```text
//! ClientIO-0..k ──RequestQueue─────────────────────────────▶ Protocol
//!      ▲  │                                                  │ ▲
//!      │  └─RequestsReady────────────────────────────────┐   │ │ DispatcherQueue
//!      │ per-thread reply queues                         │   │ │ (its one wait)
//! ServiceManager ("Replica" thread) ◀──DecisionQueue─────┼───┘ │
//!      └─SnapshotPublished───────────────────────────────┤     │
//! ReplicaIORcv-p ──Message───────────────────────────────┴─────┘
//! ReplicaIOSnd-p ◀──SendQueue-p── Protocol
//! Protocol        (batching — §V-C1, while the window has room;
//!                  Tick every heartbeat/2: failure detection — §V-C3,
//!                  retransmission — §V-C4)
//! ```
//!
//! Module-by-module correspondence with the paper:
//!
//! * **ClientIO** (§V-A): a configurable pool of threads, each running
//!   one epoll readiness loop over a subset of client connections
//!   (round-robin assignment), doing decode/encode, reply-cache probes,
//!   and redirects. Never blocks on a full RequestQueue — it pauses
//!   *reading* instead, which is what lets TCP backpressure propagate to
//!   clients (§V-E) without deadlock — nor on a slow reader's socket.
//! * **ReplicaIO** (§V-B): one sender + one receiver thread per peer,
//!   blocking I/O, dedicated SendQueues so the Protocol thread never
//!   blocks on a socket.
//! * **ReplicationCore** (§V-C): one Protocol thread around the pure
//!   [`smr_paxos::PaxosReplica`] state machine, under the no-lock rule
//!   (queues and atomics). It also forms batches, popping the
//!   RequestQueue only while the pipelining window has room; the paper's
//!   separate Batcher thread pays only once the Protocol thread saturates
//!   a core (ARCHITECTURE.md). Failure detection (heartbeats, adaptive
//!   suspicion, the leader's quorum check) and retransmission (resend
//!   deadlines with backoff on undecided slots and on a pending Prepare)
//!   run inside the core on the Protocol thread's periodic tick.
//! * **ServiceManager** (§V-D): the "Replica" thread executing decided
//!   batches against the [`Service`] and routing replies through the
//!   sharded [`ShardedReplyCache`]. One loop serves every execution mode
//!   and carries the WAL and snapshot cadence when durability is on.
//! * **Parallel execution** (beyond the paper): an opt-in
//!   [`ParallelExecutor`] behind the same ServiceManager loop that runs
//!   non-conflicting decided commands concurrently on a worker pool,
//!   scheduling by the per-key footprints a [`ConflictAwareService`]
//!   declares. Enable it per replica with
//!   [`ReplicaBuilder::with_parallel_service`] or per cluster with
//!   [`InProcessCluster::start_parallel`]; the sequential path stays the
//!   default.
//! * **Durability & recovery** (beyond the paper): services implementing
//!   [`SnapshotService`] (or [`SharedSnapshotService`] in parallel mode)
//!   can persist a write-ahead log and periodic snapshots via
//!   [`ReplicaBuilder::with_durability`]; on restart the replica rebuilds
//!   its state from disk before serving. Snapshots also drive log
//!   compaction ([`smr_types::CompactionPolicy`]) and let lagging peers
//!   catch up by state transfer instead of slot-by-slot replay.
//!
//! # Examples
//!
//! ```
//! use smr_core::{InProcessCluster, KvService};
//! use smr_types::ClusterConfig;
//!
//! let cluster = InProcessCluster::start(ClusterConfig::new(3), |_id| {
//!     Box::new(KvService::new())
//! });
//! let mut client = cluster.client();
//! client.execute(&KvService::put(b"k", b"v")).unwrap();
//! let got = client.execute(&KvService::get(b"k")).unwrap();
//! assert_eq!(KvService::decode_value(&got), Some(b"v".to_vec()));
//! cluster.shutdown();
//! ```

mod client;
mod cluster;
mod exec;
mod reply_cache;
mod runtime;
mod service;
mod shared;

pub use client::{Connector, SmrClient};
pub use cluster::InProcessCluster;
pub use exec::ParallelExecutor;
pub use reply_cache::{
    CacheOutcome, CoarseReplyCache, ExecuteOutcome, ReplyCache, ShardedReplyCache,
};
pub use runtime::{EventedIoOptions, Replica, ReplicaBuilder};
pub use service::{
    ConcurrentKvService, ConflictAwareService, KvService, LockService, NullService,
    RecoverableService, SequencerService, Service, ServiceState, SharedSnapshotService,
    SnapshotService,
};
pub use shared::SharedState;
