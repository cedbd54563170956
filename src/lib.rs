//! # smr — high-throughput state machine replication for multi-core systems
//!
//! A Rust reproduction of *Santos & Schiper, "Achieving High-Throughput
//! State Machine Replication in Multi-core Systems" (ICDCS 2013)*: a
//! Paxos-based replicated state machine whose throughput scales with the
//! number of cores, built as a pipeline of single-purpose threads joined
//! by bounded queues (SEDA/Actor hybrid), plus the simulation
//! infrastructure that regenerates every figure and table of the paper's
//! evaluation.
//!
//! This crate is a facade: it re-exports the workspace's crates under
//! one name and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quick start
//!
//! ```
//! use smr::core::{InProcessCluster, KvService};
//! use smr::types::ClusterConfig;
//!
//! // A 3-replica cluster in this process, over the in-memory fabric.
//! let cluster = InProcessCluster::start(ClusterConfig::new(3), |_id| {
//!     Box::new(KvService::new())
//! });
//! let mut client = cluster.client();
//! client.execute(&KvService::put(b"greeting", b"hello"))?;
//! let reply = client.execute(&KvService::get(b"greeting"))?;
//! assert_eq!(KvService::decode_value(&reply), Some(b"hello".to_vec()));
//! cluster.shutdown();
//! # Ok::<(), smr::types::SmrError>(())
//! ```
//!
//! ## Map of the workspace
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `smr-types` | Ids, configuration (`WND`, `BSZ`, queue bounds), errors |
//! | [`wire`] | `smr-wire` | Message types, binary codec, CRC framing |
//! | [`queue`] | `smr-queue` | Instrumented bounded queues, queue registry and depth sampler |
//! | [`metrics`] | `smr-metrics` | Per-thread busy/blocked/waiting/other accounting |
//! | [`paxos`] | `smr-paxos` | Pure MultiPaxos state machine (events in, actions out) |
//! | [`net`] | `smr-net` | In-memory (fault-injecting) and TCP transports |
//! | [`storage`] | `smr-storage` | Durable log + snapshot files, CRC-framed, crash recovery |
//! | [`core`] | `smr-core` | **The paper's architecture**: the threaded replica runtime |
//! | [`sim`] | `smr-sim` | Deterministic discrete-event kernel (cores, locks, NICs) |
//! | [`sim_jpaxos`] | `smr-sim-jpaxos` | The evaluation testbed model (Figs. 4–11, Tables I–III) |
//! | [`sim_zab`] | `smr-sim-zab` | The ZooKeeper baseline model (Figs. 1, 12–14) |
//!
//! ## Reproducing the paper
//!
//! Each binary in `smr-bench` regenerates one figure/table, e.g.:
//!
//! ```text
//! cargo run --release -p smr-bench --bin fig04_05_parapluie
//! cargo run --release -p smr-bench --bin fig12_13_14_vs_zookeeper
//! ```

pub use smr_core as core;
pub use smr_metrics as metrics;
pub use smr_net as net;
pub use smr_paxos as paxos;
pub use smr_queue as queue;
pub use smr_sim as sim;
pub use smr_sim_jpaxos as sim_jpaxos;
pub use smr_sim_zab as sim_zab;
pub use smr_storage as storage;
pub use smr_types as types;
pub use smr_wire as wire;

/// The items most applications need, in one import.
pub mod prelude {
    pub use smr_core::{
        InProcessCluster, KvService, LockService, NullService, ReplicaBuilder, SequencerService,
        Service, ServiceState, SmrClient, SnapshotService,
    };
    pub use smr_types::{ClientId, ClusterConfig, CompactionPolicy, ReplicaId, SmrError};
}
