//! The JPaxos threading architecture expressed on the simulation kernel.
//!
//! This crate reproduces the paper's evaluation setup: the exact thread
//! ensemble of Fig. 3 (ClientIO pool, Batcher, Protocol, ReplicaIO
//! sender/receiver pairs, ServiceManager), the same inter-module bounded
//! queues, 1800 closed-loop clients on six machines, and the Grid5000
//! cluster profiles (24-core *parapluie*, 8-core *edel*). The protocol
//! logic is the **same** [`smr_paxos::PaxosReplica`] state machine the
//! real threaded runtime uses — only the substrate (threads, queues,
//! clocks, NICs) is simulated.
//!
//! The cost model ([`CostModel`]) assigns CPU time to each stage; its
//! calibration rationale is documented field by field. We do not claim
//! absolute-number fidelity to the paper's hardware, but the shapes
//! (scaling knees, plateau causes, contention signatures) are
//! reproduced.
//!
//! # Examples
//!
//! ```
//! use smr_sim_jpaxos::{ExperimentConfig, run_experiment};
//!
//! let mut config = ExperimentConfig::parapluie(3, 4);
//! config.clients = 120;
//! config.warmup_ns = 100_000_000; // short demonstration run
//! config.duration_ns = 300_000_000;
//! let result = run_experiment(&config);
//! assert!(result.throughput_rps > 0.0);
//! ```

mod costs;
mod experiment;
mod model;

pub use costs::{ClusterProfile, CostModel};
pub use experiment::{
    run_experiment, ExperimentConfig, ExperimentResult, ReplicaReport, ThreadReport,
};
