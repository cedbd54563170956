//! Instrumented bounded queues — the connective tissue of the threading
//! architecture.
//!
//! Every arrow in the paper's Fig. 3 (RequestQueue, ProposalQueue,
//! DispatcherQueue, DecisionQueue, per-peer SendQueues, per-client reply
//! queues) is one of these queues. Two properties matter:
//!
//! 1. **Backpressure** (§V-E): queues are bounded, so a slow stage fills
//!    its input queue and stalls the stage before it, all the way to the
//!    clients' TCP connections.
//! 2. **Observability** (§VI-B): time spent *waiting* on an empty/full
//!    queue and time spent *blocked* on the queue's internal lock are
//!    accounted to the calling thread via [`smr_metrics::ThreadHandle`],
//!    which is how the per-thread profiles of Figs. 8/14 are produced.
//!
//! For Table I-style statistics, each queue exposes a type-erased
//! [`QueueProbe`] (depth gauge, high-watermark, push/pop counters) that
//! registers in a [`QueueRegistry`]; an opt-in [`DepthSampler`] thread
//! turns the live depths into mean ± std-dev.

mod bounded;
mod mutex_core;
mod registry;

pub use bounded::{BoundedQueue, PopError, PushError, QueueStats};
pub use mutex_core::MutexBoundedQueue;
pub use registry::{DepthSampler, QueueProbe, QueueRegistry};
