//! Slot-lifecycle latency breakdown: stage stamps and their histograms.
//!
//! A batch crosses the pipeline of Fig. 3 through fixed stage
//! boundaries: request **intake** (ClientIO decodes it; a batch's
//! intake is the mean over its requests) → batch
//! **sealed** (the Protocol thread closes the batch) → **proposed** (it
//! starts the ballot) → **decided** (consensus) → **executed**
//! (ServiceManager ran it) → **reply enqueued** (handed to ClientIO).
//! Each boundary stamps the batch with [`SharedState::now_ns`], and
//! each transition feeds one histogram here, giving the per-stage
//! latency breakdown the paper's evaluation methodology calls for.
//!
//! All recording is guarded by [`StageMetrics::enabled`]: with stage
//! metrics off, stamps stay zero and no histogram locks are touched, so
//! the hot path pays one branch and a `u64` copy per boundary.

use smr_metrics::{MetricsRegistry, SharedHistogram};
use smr_types::RequestId;

use crate::shared::SharedState;

/// Stamps a sealed batch carries until the Protocol thread proposes it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BatchStamp {
    /// Mean of the batch's requests' intake stamps (when each left its
    /// ClientIO thread; see [`IntakeMean`]).
    pub intake_ns: u64,
    /// When the batch was sealed.
    pub sealed_ns: u64,
}

/// The full stage clock a batch accumulates by decision time; carried
/// with `Decision::Apply` into the ServiceManager.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StageClock {
    /// Mean of the batch's requests' intake stamps.
    pub intake_ns: u64,
    /// When the batch was sealed. Not consumed by a transition
    /// (sealed→proposed is recorded before the clock is built) but
    /// carried so the clock is the complete stage record.
    #[allow(dead_code)]
    pub sealed_ns: u64,
    /// When the Protocol thread proposed the batch.
    pub proposed_ns: u64,
    /// When consensus decided the batch.
    pub decided_ns: u64,
}

/// Per-transition latency histograms, shared across the pipeline's
/// threads. All histograms live in the replica's [`MetricsRegistry`]
/// under `stage.*` / `wal.*` names, so they appear in the metrics
/// export automatically.
#[derive(Debug, Clone)]
pub(crate) struct StageMetrics {
    /// Whether stage stamping and recording is on. Off ⇒ every record_*
    /// call is a single branch.
    pub enabled: bool,
    /// Request intake → batch sealed (RequestQueue wait + fill time),
    /// from the batch's mean intake.
    pub intake_to_sealed: SharedHistogram,
    /// Batch sealed → proposed (window gating: a batch sealed while the
    /// window was full waits for it to open).
    pub sealed_to_proposed: SharedHistogram,
    /// Proposed → decided (consensus round trips).
    pub proposed_to_decided: SharedHistogram,
    /// Decided → executed (DecisionQueue wait + WAL append + execution).
    pub decided_to_executed: SharedHistogram,
    /// Executed → reply enqueued on the ClientIO reply queues.
    pub executed_to_reply: SharedHistogram,
    /// Intake → reply enqueued: the mean replica residence time of the
    /// batch's requests.
    pub intake_to_reply: SharedHistogram,
    /// One WAL append (buffered write of one decided record).
    pub wal_append: SharedHistogram,
    /// One WAL sync — the group-commit flush covering a drained burst.
    pub wal_fsync: SharedHistogram,
}

impl StageMetrics {
    /// Wires the stage histograms into `registry` under their canonical
    /// names.
    pub fn new(registry: &MetricsRegistry, enabled: bool) -> Self {
        StageMetrics {
            enabled,
            intake_to_sealed: registry.histogram("stage.intake_to_sealed"),
            sealed_to_proposed: registry.histogram("stage.sealed_to_proposed"),
            proposed_to_decided: registry.histogram("stage.proposed_to_decided"),
            decided_to_executed: registry.histogram("stage.decided_to_executed"),
            executed_to_reply: registry.histogram("stage.executed_to_reply"),
            intake_to_reply: registry.histogram("stage.intake_to_reply"),
            wal_append: registry.histogram("wal.append"),
            wal_fsync: registry.histogram("wal.fsync"),
        }
    }

    /// Current stamp, or 0 when stage metrics are off.
    pub fn stamp(&self, shared: &SharedState) -> u64 {
        if self.enabled {
            shared.now_ns()
        } else {
            0
        }
    }

    /// Records a batch sealing: intake → sealed.
    pub fn record_sealed(&self, stamp: BatchStamp) {
        if self.enabled {
            self.intake_to_sealed
                .record(stamp.sealed_ns.saturating_sub(stamp.intake_ns));
        }
    }

    /// Records a proposal, upgrading the batch stamp to a full clock.
    pub fn record_proposed(&self, stamp: BatchStamp, proposed_ns: u64) -> StageClock {
        if self.enabled {
            self.sealed_to_proposed
                .record(proposed_ns.saturating_sub(stamp.sealed_ns));
        }
        StageClock {
            intake_ns: stamp.intake_ns,
            sealed_ns: stamp.sealed_ns,
            proposed_ns,
            decided_ns: 0,
        }
    }

    /// Records a decision: proposed → decided. Returns the completed
    /// clock to carry into the ServiceManager.
    pub fn record_decided(&self, mut clock: StageClock, decided_ns: u64) -> StageClock {
        clock.decided_ns = decided_ns;
        if self.enabled {
            self.proposed_to_decided
                .record(decided_ns.saturating_sub(clock.proposed_ns));
        }
        clock
    }

    /// Records a batch execution: decided → executed.
    pub fn record_executed(&self, clock: &StageClock, executed_ns: u64) {
        if self.enabled {
            self.decided_to_executed
                .record(executed_ns.saturating_sub(clock.decided_ns));
        }
    }

    /// Records the reply hand-over: executed → reply enqueued, plus the
    /// end-to-end intake → reply residence time.
    pub fn record_replied(&self, clock: &StageClock, executed_ns: u64, replied_ns: u64) {
        if self.enabled {
            self.executed_to_reply
                .record(replied_ns.saturating_sub(executed_ns));
            self.intake_to_reply
                .record(replied_ns.saturating_sub(clock.intake_ns));
        }
    }

    /// Records one buffered WAL append.
    pub fn record_wal_append(&self, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.wal_append.record(end_ns.saturating_sub(start_ns));
        }
    }

    /// Records one WAL sync — the group-commit flush of a drained burst.
    pub fn record_wal_fsync(&self, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.wal_fsync.record(end_ns.saturating_sub(start_ns));
        }
    }
}

/// Running mean of the intake stamps of the requests in the Protocol
/// thread's open batch. A sealed batch's intake time is the mean over its
/// requests, so `stage.intake_to_sealed` and `stage.intake_to_reply`
/// measure the average request of a batch rather than its oldest, and
/// add up with the clients' mean latency.
#[derive(Debug, Default)]
pub(crate) struct IntakeMean {
    sum: u128,
    count: u64,
}

impl IntakeMean {
    /// Adds one request's intake stamp to the open batch.
    pub fn add(&mut self, intake_ns: u64) {
        self.sum += u128::from(intake_ns);
        self.count += 1;
    }

    /// Returns the mean stamp of the batch just sealed and starts the
    /// next one empty. 0 when the batch had no stamps or all were 0
    /// (stage metrics off).
    pub fn take(&mut self) -> u64 {
        let mean = match self.count {
            0 => 0,
            n => (self.sum / u128::from(n)) as u64,
        };
        *self = IntakeMean::default();
        mean
    }
}

/// Key a proposed batch is tracked under while consensus is in flight:
/// its first request's id (unique — request ids enter the pipeline
/// once; retries are deduplicated at the ClientIO cache probe).
pub(crate) fn batch_key(batch: &smr_wire::Batch) -> Option<RequestId> {
    batch.requests.first().map(|r| r.id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intake_mean_of_one_batch() {
        let mut open = IntakeMean::default();
        for stamp in [100, 200, 600] {
            open.add(stamp);
        }
        assert_eq!(open.take(), 300);
        assert_eq!(open.take(), 0, "take starts the next batch empty");
    }

    #[test]
    fn overflowing_request_opens_the_next_batch_mean() {
        // The Protocol thread's order when a request overflows a sealed batch:
        // seal the open batch, then the request starts the next sum.
        let mut open = IntakeMean::default();
        open.add(100);
        open.add(300);
        let sealed = open.take();
        open.add(1_000);
        assert_eq!(sealed, 200, "the overflowing request is not in it");
        open.add(2_000);
        assert_eq!(open.take(), 1_500);
    }

    #[test]
    fn intake_mean_of_zero_stamps_is_zero() {
        let mut open = IntakeMean::default();
        for _ in 0..5 {
            open.add(0);
        }
        assert_eq!(open.take(), 0);
    }

    #[test]
    fn disabled_stage_metrics_record_nothing() {
        let registry = MetricsRegistry::new();
        let stage = StageMetrics::new(&registry, false);
        let shared = SharedState::new();
        assert_eq!(stage.stamp(&shared), 0);
        stage.record_sealed(BatchStamp {
            intake_ns: 5,
            sealed_ns: 10,
        });
        let clock = stage.record_proposed(BatchStamp::default(), 20);
        let clock = stage.record_decided(clock, 30);
        stage.record_executed(&clock, 40);
        stage.record_replied(&clock, 40, 50);
        assert!(
            registry.histogram_summaries().is_empty(),
            "no samples recorded while disabled"
        );
    }

    #[test]
    fn enabled_stage_metrics_feed_all_transitions() {
        let registry = MetricsRegistry::new();
        let stage = StageMetrics::new(&registry, true);
        let stamp = BatchStamp {
            intake_ns: 100,
            sealed_ns: 250,
        };
        stage.record_sealed(stamp);
        let clock = stage.record_proposed(stamp, 400);
        let clock = stage.record_decided(clock, 900);
        stage.record_executed(&clock, 1_100);
        stage.record_replied(&clock, 1_100, 1_200);
        let names: Vec<String> = registry
            .histogram_summaries()
            .into_iter()
            .map(|h| h.name)
            .collect();
        assert_eq!(
            names,
            vec![
                "stage.decided_to_executed",
                "stage.executed_to_reply",
                "stage.intake_to_reply",
                "stage.intake_to_sealed",
                "stage.proposed_to_decided",
                "stage.sealed_to_proposed",
            ]
        );
        assert_eq!(
            registry
                .histogram("stage.intake_to_reply")
                .snapshot()
                .max_ns(),
            1_100,
            "end-to-end = replied - intake"
        );
    }

    #[test]
    fn clock_survives_the_pipeline() {
        let registry = MetricsRegistry::new();
        let stage = StageMetrics::new(&registry, true);
        let stamp = BatchStamp {
            intake_ns: 1,
            sealed_ns: 2,
        };
        let clock = stage.record_decided(stage.record_proposed(stamp, 3), 4);
        assert_eq!(clock.intake_ns, 1);
        assert_eq!(clock.sealed_ns, 2);
        assert_eq!(clock.proposed_ns, 3);
        assert_eq!(clock.decided_ns, 4);
    }
}
