//! The ServiceManager module (§V-D): the "Replica" thread of the paper's
//! per-thread profiles, in both execution modes (sequential by default,
//! dependency-aware parallel opt-in), with optional durability: decided
//! batches are appended to the write-ahead log before execution, and
//! periodic snapshots bound both recovery time and log growth.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use smr_metrics::ThreadHandle;
use smr_storage::Storage;
use smr_types::{RequestId, Slot, SnapshotBlob};
use smr_wire::{Batch, Reply};

use crate::exec::ParallelExecutor;
use crate::reply_cache::ExecuteOutcome;
use crate::service::{ConflictAwareService, RecoverableService, Service, SharedSnapshotOps};

use super::stage::StageClock;
use super::{Ctx, Decision};

/// How long the parallel manager waits for worker completions before
/// re-checking the DecisionQueue for new work.
const COMPLETION_POLL: Duration = Duration::from_millis(1);

/// The durability/snapshot harness a snapshot-capable ServiceManager
/// carries: the (optional) on-disk storage, the apply watermark (next
/// slot to execute), and the snapshot cadence.
pub(crate) struct SnapshotRig {
    /// On-disk log + snapshots; `None` when the service is
    /// snapshot-capable but durability was not requested (snapshots then
    /// live only in memory, for transfer and compaction).
    pub storage: Option<Storage>,
    /// Next slot this replica will apply (everything below is covered by
    /// executed batches or an installed snapshot).
    pub watermark: Slot,
    /// Watermark of the most recent snapshot taken or installed.
    pub last_snapshot: Slot,
    /// Take a snapshot every this many applied slots.
    pub every: u64,
}

impl SnapshotRig {
    /// Whether enough slots have been applied since the last snapshot.
    fn snapshot_due(&self) -> bool {
        self.watermark.0.saturating_sub(self.last_snapshot.0) >= self.every
    }

    /// Persists (when durable) and publishes `blob`, advancing
    /// `last_snapshot`. Returns `false` on a storage error, which is
    /// fatal for the manager thread.
    fn commit_snapshot(&mut self, ctx: &Ctx, blob: SnapshotBlob) -> bool {
        let blob = Arc::new(blob);
        if let Some(storage) = self.storage.as_mut() {
            if let Err(e) = storage.install_snapshot(&blob) {
                eprintln!("smr-core: replica {}: snapshot write failed: {e}", ctx.me.0);
                return false;
            }
        }
        self.last_snapshot = blob.applied_upto;
        ctx.snapshots.publish(blob);
        true
    }
}

/// Executes decided batches in log order, updates the reply cache, and
/// hands replies to the ClientIO threads owning the clients' connections.
/// The thread parks on the first decision (so an idle replica costs
/// nothing; `close` wakes it for shutdown), then drains whatever else is
/// queued in one lock acquisition. Replies are grouped per ClientIO
/// thread and flushed after every decided batch, so reply latency is
/// bounded by one batch's execution no matter how deep the drained
/// backlog is.
pub(crate) fn run_service_manager(ctx: &Ctx, mut service: Box<dyn Service>) {
    let handle = ctx.metrics.register_thread("Replica");
    let mut decisions: Vec<Decision> = Vec::new();
    let mut replies: Vec<(RequestId, Option<Vec<u8>>)> = Vec::new();
    let mut outboxes: Vec<Vec<(u64, Reply)>> =
        (0..ctx.reply_qs.len()).map(|_| Vec::new()).collect();
    loop {
        match ctx.decision_q.pop_with(&handle) {
            Ok(first) => decisions.push(first),
            Err(_) => return,
        }
        // Batch up the backlog behind the first decision; an error here
        // (empty or closed) still leaves that decision to execute.
        let _ = ctx.decision_q.try_pop_all(&mut decisions);
        for decision in decisions.drain(..) {
            let Decision::Apply(_slot, batch, clock) = decision else {
                // Snapshot installs are gated out by the Protocol thread
                // for services that cannot restore one.
                continue;
            };
            execute_batch(ctx, service.as_mut(), batch, &mut replies);
            let executed_ns = clock.map_or(0, |_| ctx.shared.now_ns());
            if !route_replies(ctx, &handle, &mut replies, &mut outboxes) {
                return;
            }
            if let Some(clock) = clock {
                ctx.stage.record_executed(&clock, executed_ns);
                ctx.stage
                    .record_replied(&clock, executed_ns, ctx.shared.now_ns());
            }
        }
    }
}

/// The snapshot-capable sequential "Replica" thread: the same log-order
/// execution as [`run_service_manager`] plus the durability protocol —
/// append to the WAL *before* executing, sync once per drained burst,
/// snapshot every `rig.every` applied slots, and install snapshots
/// shipped by peers (replacing local state wholesale).
pub(crate) fn run_durable_service_manager(
    ctx: &Ctx,
    mut service: Box<dyn RecoverableService>,
    mut rig: SnapshotRig,
) {
    let handle = ctx.metrics.register_thread("Replica");
    let wal_appended = ctx.metrics.counter("wal.appended_bytes");
    let wal_synced = ctx.metrics.counter("wal.synced_bytes");
    let mut decisions: Vec<Decision> = Vec::new();
    let mut replies: Vec<(RequestId, Option<Vec<u8>>)> = Vec::new();
    let mut outboxes: Vec<Vec<(u64, Reply)>> =
        (0..ctx.reply_qs.len()).map(|_| Vec::new()).collect();
    loop {
        match ctx.decision_q.pop_with(&handle) {
            Ok(first) => decisions.push(first),
            Err(_) => return,
        }
        let _ = ctx.decision_q.try_pop_all(&mut decisions);
        let mut appended = false;
        for decision in decisions.drain(..) {
            match decision {
                Decision::Install(blob) => {
                    if blob.applied_upto <= rig.watermark {
                        continue; // already at or past this state
                    }
                    if let Err(e) = service.restore(&blob.state) {
                        eprintln!("smr-core: replica {}: {e}", ctx.me.0);
                        return;
                    }
                    if service.state_hash() != blob.state_hash {
                        eprintln!(
                            "smr-core: replica {}: snapshot hash mismatch after restore",
                            ctx.me.0
                        );
                        return;
                    }
                    rig.watermark = blob.applied_upto;
                    if !rig.commit_snapshot(ctx, blob) {
                        return;
                    }
                }
                Decision::Apply(slot, batch, clock) => {
                    if slot < rig.watermark {
                        continue; // covered by an installed snapshot
                    }
                    if let Some(storage) = rig.storage.as_mut() {
                        // WAL before execution: a crash after the append
                        // re-executes (dedup'd by slot), never loses.
                        let t0 = ctx.stage.stamp(&ctx.shared);
                        match storage.append(slot, &batch) {
                            Ok(bytes) => wal_appended.add(bytes as u64),
                            Err(e) => {
                                eprintln!("smr-core: replica {}: wal append failed: {e}", ctx.me.0);
                                return;
                            }
                        }
                        ctx.stage
                            .record_wal_append(t0, ctx.stage.stamp(&ctx.shared));
                        appended = true;
                    }
                    execute_batch(ctx, service.as_mut(), batch, &mut replies);
                    rig.watermark = slot.next();
                    let executed_ns = clock.map_or(0, |_| ctx.shared.now_ns());
                    if !route_replies(ctx, &handle, &mut replies, &mut outboxes) {
                        return;
                    }
                    if let Some(clock) = clock {
                        ctx.stage.record_executed(&clock, executed_ns);
                        ctx.stage
                            .record_replied(&clock, executed_ns, ctx.shared.now_ns());
                    }
                }
            }
        }
        if appended {
            if let Some(storage) = rig.storage.as_mut() {
                // Group commit (§V-D): one flush covers the whole burst.
                let t0 = ctx.stage.stamp(&ctx.shared);
                match storage.sync() {
                    Ok(bytes) => wal_synced.add(bytes),
                    Err(e) => {
                        eprintln!("smr-core: replica {}: wal sync failed: {e}", ctx.me.0);
                        return;
                    }
                }
                ctx.stage.record_wal_fsync(t0, ctx.stage.stamp(&ctx.shared));
            }
        }
        if rig.snapshot_due() {
            let blob = SnapshotBlob {
                applied_upto: rig.watermark,
                state_hash: service.state_hash(),
                state: service.snapshot(),
            };
            if !rig.commit_snapshot(ctx, blob) {
                return;
            }
        }
    }
}

/// The parallel-mode "Replica" thread: same inputs and outputs as
/// [`run_service_manager`], but decided commands are fed to a
/// [`ParallelExecutor`] that runs non-conflicting ones concurrently on a
/// worker pool. At-most-once bookkeeping moves into the workers (the
/// executor owns the reply-cache interaction), which is safe because the
/// executor chains same-client commands.
///
/// The loop alternates between two waits: empty executor → park on the
/// DecisionQueue exactly like the sequential path; work in flight →
/// drain the DecisionQueue without blocking and wait briefly for worker
/// completions instead, so new decisions keep feeding the DAG while
/// earlier commands are still executing.
pub(crate) fn run_parallel_service_manager(
    ctx: &Ctx,
    service: Arc<dyn ConflictAwareService>,
    workers: usize,
) {
    let handle = ctx.metrics.register_thread("Replica");
    let mut exec =
        ParallelExecutor::with_reply_cache(service, workers, Some(Arc::clone(&ctx.cache)));
    let mut decisions: Vec<Decision> = Vec::new();
    let mut replies: Vec<(RequestId, Option<Vec<u8>>)> = Vec::new();
    let mut outboxes: Vec<Vec<(u64, Reply)>> =
        (0..ctx.reply_qs.len()).map(|_| Vec::new()).collect();
    let mut clocks = PendingClocks::default();
    loop {
        if exec.pending() == 0 {
            // Idle: park until something is decided (or shutdown).
            match ctx.decision_q.pop_with(&handle) {
                Ok(first) => decisions.push(first),
                Err(_) => return,
            }
        }
        let _ = ctx.decision_q.try_pop_all(&mut decisions);
        for decision in decisions.drain(..) {
            let Decision::Apply(_slot, batch, clock) = decision else {
                continue; // gated out by the Protocol thread (see above)
            };
            clocks.track(&batch, clock);
            for request in batch.requests {
                exec.submit(request);
            }
        }
        if exec.poll_with(&mut replies, COMPLETION_POLL, &handle) > 0 {
            let executed_ns = clocks.note_executed(ctx, &replies);
            if !route_replies(ctx, &handle, &mut replies, &mut outboxes) {
                return;
            }
            clocks.note_replied(ctx, executed_ns);
        }
    }
}

/// The snapshot-capable parallel "Replica" thread: parallel execution
/// with the durability protocol of [`run_durable_service_manager`].
/// Snapshots are only taken (and peer snapshots only installed) at a
/// quiescent point — the executor drained — so the shared service state
/// is a consistent prefix of the decided log.
pub(crate) fn run_durable_parallel_service_manager(
    ctx: &Ctx,
    service: Arc<dyn ConflictAwareService>,
    workers: usize,
    ops: Box<dyn SharedSnapshotOps>,
    mut rig: SnapshotRig,
) {
    let handle = ctx.metrics.register_thread("Replica");
    let wal_appended = ctx.metrics.counter("wal.appended_bytes");
    let wal_synced = ctx.metrics.counter("wal.synced_bytes");
    let mut exec =
        ParallelExecutor::with_reply_cache(service, workers, Some(Arc::clone(&ctx.cache)));
    let mut decisions: Vec<Decision> = Vec::new();
    let mut replies: Vec<(RequestId, Option<Vec<u8>>)> = Vec::new();
    let mut outboxes: Vec<Vec<(u64, Reply)>> =
        (0..ctx.reply_qs.len()).map(|_| Vec::new()).collect();
    let mut clocks = PendingClocks::default();
    loop {
        if exec.pending() == 0 {
            match ctx.decision_q.pop_with(&handle) {
                Ok(first) => decisions.push(first),
                Err(_) => return,
            }
        }
        let _ = ctx.decision_q.try_pop_all(&mut decisions);
        let mut appended = false;
        for decision in decisions.drain(..) {
            match decision {
                Decision::Install(blob) => {
                    if blob.applied_upto <= rig.watermark {
                        continue;
                    }
                    // Quiesce: everything submitted so far must finish
                    // (and its replies flush) before state is replaced.
                    exec.wait_idle(&mut replies);
                    if !route_replies(ctx, &handle, &mut replies, &mut outboxes) {
                        return;
                    }
                    // Batches swallowed by the quiesce go unrecorded.
                    clocks.clear();
                    if let Err(e) = ops.restore(&blob.state) {
                        eprintln!("smr-core: replica {}: {e}", ctx.me.0);
                        return;
                    }
                    if ops.state_hash() != blob.state_hash {
                        eprintln!(
                            "smr-core: replica {}: snapshot hash mismatch after restore",
                            ctx.me.0
                        );
                        return;
                    }
                    rig.watermark = blob.applied_upto;
                    if !rig.commit_snapshot(ctx, blob) {
                        return;
                    }
                }
                Decision::Apply(slot, batch, clock) => {
                    if slot < rig.watermark {
                        continue;
                    }
                    if let Some(storage) = rig.storage.as_mut() {
                        let t0 = ctx.stage.stamp(&ctx.shared);
                        match storage.append(slot, &batch) {
                            Ok(bytes) => wal_appended.add(bytes as u64),
                            Err(e) => {
                                eprintln!("smr-core: replica {}: wal append failed: {e}", ctx.me.0);
                                return;
                            }
                        }
                        ctx.stage
                            .record_wal_append(t0, ctx.stage.stamp(&ctx.shared));
                        appended = true;
                    }
                    clocks.track(&batch, clock);
                    for request in batch.requests {
                        exec.submit(request);
                    }
                    rig.watermark = slot.next();
                }
            }
        }
        if appended {
            if let Some(storage) = rig.storage.as_mut() {
                let t0 = ctx.stage.stamp(&ctx.shared);
                match storage.sync() {
                    Ok(bytes) => wal_synced.add(bytes),
                    Err(e) => {
                        eprintln!("smr-core: replica {}: wal sync failed: {e}", ctx.me.0);
                        return;
                    }
                }
                ctx.stage.record_wal_fsync(t0, ctx.stage.stamp(&ctx.shared));
            }
        }
        if rig.snapshot_due() && exec.pending() == 0 {
            let blob = SnapshotBlob {
                applied_upto: rig.watermark,
                state_hash: ops.state_hash(),
                state: ops.snapshot(),
            };
            if !rig.commit_snapshot(ctx, blob) {
                return;
            }
        }
        if exec.poll_with(&mut replies, COMPLETION_POLL, &handle) > 0 {
            let executed_ns = clocks.note_executed(ctx, &replies);
            if !route_replies(ctx, &handle, &mut replies, &mut outboxes) {
                return;
            }
            clocks.note_replied(ctx, executed_ns);
        }
    }
}

/// Stage-clock bookkeeping for the parallel managers. A batch's clock is
/// keyed by its *last* request's id and recorded when that request's
/// reply surfaces from the worker pool: the closest parallel analogue of
/// "batch executed" (an approximation — workers may reorder
/// non-conflicting requests, so the keyed request is not always the
/// final one to finish; see ARCHITECTURE.md).
#[derive(Default)]
struct PendingClocks {
    by_last: HashMap<RequestId, StageClock>,
    /// Clocks whose batch finished this poll round, awaiting the
    /// reply-enqueue stamp.
    done: Vec<StageClock>,
}

impl PendingClocks {
    /// Starts tracking `batch`'s clock, if it carries one (leaders with
    /// stage metrics on; `None` otherwise, making every later probe a
    /// no-op on the empty map).
    fn track(&mut self, batch: &Batch, clock: Option<StageClock>) {
        if let Some(clock) = clock {
            if let Some(last) = batch.requests.last() {
                self.by_last.insert(last.id, clock);
            }
        }
    }

    /// Records decided → executed for every tracked batch whose keyed
    /// reply is in `replies`; returns the shared "executed" stamp taken
    /// once for the poll round (0 if nothing completed).
    fn note_executed(&mut self, ctx: &Ctx, replies: &[(RequestId, Option<Vec<u8>>)]) -> u64 {
        if self.by_last.is_empty() {
            return 0;
        }
        let mut executed_ns = 0;
        for (id, _) in replies {
            if let Some(clock) = self.by_last.remove(id) {
                if executed_ns == 0 {
                    executed_ns = ctx.shared.now_ns();
                }
                ctx.stage.record_executed(&clock, executed_ns);
                self.done.push(clock);
            }
        }
        executed_ns
    }

    /// Records executed → reply (and end-to-end) for the batches
    /// collected by [`PendingClocks::note_executed`], stamped after the
    /// replies were handed to the ClientIO queues.
    fn note_replied(&mut self, ctx: &Ctx, executed_ns: u64) {
        if self.done.is_empty() {
            return;
        }
        let replied_ns = ctx.shared.now_ns();
        for clock in self.done.drain(..) {
            ctx.stage.record_replied(&clock, executed_ns, replied_ns);
        }
    }

    /// Drops all tracked clocks (quiesce points flush replies without
    /// routing them through the usual probe).
    fn clear(&mut self) {
        self.by_last.clear();
        self.done.clear();
    }
}

/// Executes every request of one decided batch through the reply cache
/// (at-most-once), collecting the reply payloads.
fn execute_batch(
    ctx: &Ctx,
    service: &mut dyn Service,
    batch: Batch,
    replies: &mut Vec<(RequestId, Option<Vec<u8>>)>,
) {
    for request in batch.requests {
        let reply_payload = match ctx.cache.check_execute(request.id) {
            ExecuteOutcome::Fresh => {
                let reply = service.execute(&request.payload);
                ctx.cache.record(request.id, reply.clone());
                Some(reply)
            }
            // Ordered twice (client retry raced the pipeline):
            // do not re-execute; resend the cached reply.
            ExecuteOutcome::Duplicate(cached) => cached,
        };
        replies.push((request.id, reply_payload));
    }
}

/// Routes a burst of executed replies to the ClientIO threads owning the
/// clients' connections: `None` payloads (duplicates the reply cache
/// suppressed) and departed clients are skipped, the rest are grouped
/// per ClientIO thread and flushed with one bulk push each. Returns
/// `false` when a reply queue has closed (shutdown).
fn route_replies(
    ctx: &Ctx,
    handle: &ThreadHandle,
    replies: &mut Vec<(RequestId, Option<Vec<u8>>)>,
    outboxes: &mut [Vec<(u64, Reply)>],
) -> bool {
    for (id, payload) in replies.drain(..) {
        let Some(payload) = payload else {
            continue;
        };
        let Some((cio, conn)) = ctx.shared.client_route(id.client) else {
            continue; // client gone or connected elsewhere
        };
        outboxes[cio].push((conn, Reply::new(id, payload)));
    }
    for (cio, outbox) in outboxes.iter_mut().enumerate() {
        if !outbox.is_empty() {
            // Ring before a potentially blocking push: if the queue is
            // full, the drain this push waits for needs the ClientIO
            // thread out of epoll_wait.
            ctx.io_wakers[cio].ring();
            if ctx.reply_qs[cio]
                .push_many_with(outbox.drain(..), handle)
                .is_err()
            {
                return false;
            }
            ctx.io_wakers[cio].ring();
        }
    }
    true
}
