//! The ServiceManager module (§V-D): the "Replica" thread of the paper's
//! per-thread profiles. One loop serves every execution mode: a
//! [`ServiceMode`] runs batches in place (sequential, the default) or
//! hands them to a dependency-aware [`ParallelExecutor`] (opt-in), and
//! the same loop carries the durability protocol: decided batches are
//! appended to the write-ahead log before execution, and periodic
//! snapshots bound both recovery time and log growth.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use smr_metrics::ThreadHandle;
use smr_storage::Storage;
use smr_types::{RequestId, Slot, SnapshotBlob};
use smr_wire::{Batch, Reply};

use crate::exec::ParallelExecutor;
use crate::reply_cache::{ExecuteOutcome, ReplyCache};
use crate::service::{ConflictAwareService, RecoverableService, Service, SharedSnapshotService};

use super::stage::StageClock;
use super::{Ctx, Decision};

/// How long the manager waits for worker completions, with parallel
/// work in flight, before re-checking the DecisionQueue for new work.
const COMPLETION_POLL: Duration = Duration::from_millis(1);

/// `(request id, reply payload)` pairs of executed requests; the payload
/// is `None` when the reply cache suppressed a duplicate's reply.
type Replies = Vec<(RequestId, Option<Vec<u8>>)>;

/// How the ServiceManager executes decided commands.
pub(crate) enum ServiceMode {
    /// One thread, strict log order (the paper's architecture; default).
    Sequential(Box<dyn Service>),
    /// One thread, strict log order, with snapshot/restore — unlocks
    /// durability, snapshot-driven compaction, and snapshot transfer.
    SequentialSnapshot(Box<dyn RecoverableService>),
    /// Dependency-aware parallel execution on a worker pool (see
    /// [`crate::ParallelExecutor`]). `snapshot` is a second handle on
    /// the same service when it supports snapshot/restore.
    Parallel {
        service: Arc<dyn ConflictAwareService>,
        workers: usize,
        snapshot: Option<Arc<dyn SharedSnapshotService + Send>>,
    },
}

impl ServiceMode {
    /// Whether this mode can produce and restore snapshots.
    pub(crate) fn snapshot_capable(&self) -> bool {
        match self {
            ServiceMode::Sequential(_) => false,
            ServiceMode::SequentialSnapshot(_) => true,
            ServiceMode::Parallel { snapshot, .. } => snapshot.is_some(),
        }
    }

    /// The worker pool parallel mode executes on; `None` for the
    /// sequential modes, which execute on the calling thread.
    fn parallel_executor(&self, cache: &Arc<dyn ReplyCache>) -> Option<ParallelExecutor> {
        match self {
            ServiceMode::Parallel {
                service, workers, ..
            } => Some(ParallelExecutor::with_reply_cache(
                Arc::clone(service),
                *workers,
                Some(Arc::clone(cache)),
            )),
            _ => None,
        }
    }

    /// Executes every request of one decided batch on the calling thread
    /// through the reply cache (at-most-once), appending the replies.
    pub(crate) fn execute_batch(
        &mut self,
        cache: &dyn ReplyCache,
        batch: Batch,
        replies: &mut Replies,
    ) {
        for request in batch.requests {
            let reply_payload = match cache.check_execute(request.id) {
                ExecuteOutcome::Fresh => {
                    let reply = match self {
                        ServiceMode::Sequential(s) => s.execute(&request.payload),
                        ServiceMode::SequentialSnapshot(s) => s.execute(&request.payload),
                        ServiceMode::Parallel { service, .. } => service.execute(&request.payload),
                    };
                    cache.record(request.id, reply.clone());
                    Some(reply)
                }
                // Ordered twice (client retry raced the pipeline):
                // do not re-execute; resend the cached reply.
                ExecuteOutcome::Duplicate(cached) => cached,
            };
            replies.push((request.id, reply_payload));
        }
    }

    /// Captures the service state as of `applied_upto`; `None` when the
    /// service cannot snapshot. Parallel callers must quiesce first.
    pub(crate) fn snapshot(&self, applied_upto: Slot) -> Option<SnapshotBlob> {
        let (state_hash, state) = match self {
            ServiceMode::Sequential(_) | ServiceMode::Parallel { snapshot: None, .. } => {
                return None
            }
            ServiceMode::SequentialSnapshot(s) => (s.state_hash(), s.snapshot()),
            ServiceMode::Parallel {
                snapshot: Some(s), ..
            } => (s.state_hash(), SharedSnapshotService::snapshot(&**s)),
        };
        Some(SnapshotBlob {
            applied_upto,
            state_hash,
            state,
        })
    }

    /// Replaces the service state with `blob`'s and verifies it against
    /// the blob's `state_hash`. Parallel callers must quiesce first.
    pub(crate) fn restore(&mut self, blob: &SnapshotBlob) -> Result<(), String> {
        let state_hash = match self {
            ServiceMode::Sequential(_) | ServiceMode::Parallel { snapshot: None, .. } => {
                return Err("service cannot restore a snapshot".into())
            }
            ServiceMode::SequentialSnapshot(s) => {
                s.restore(&blob.state).map_err(|e| e.to_string())?;
                s.state_hash()
            }
            ServiceMode::Parallel {
                snapshot: Some(s), ..
            } => {
                s.restore_shared(&blob.state).map_err(|e| e.to_string())?;
                s.state_hash()
            }
        };
        if state_hash != blob.state_hash {
            return Err("snapshot hash mismatch after restore".into());
        }
        Ok(())
    }
}

/// The durability/snapshot harness of the ServiceManager: the (optional)
/// on-disk storage, the apply watermark (next slot to execute), and the
/// snapshot cadence.
pub(crate) struct SnapshotRig {
    /// On-disk log + snapshots; `None` when durability was not requested
    /// (snapshots then live only in memory, for transfer and compaction).
    pub storage: Option<Storage>,
    /// Next slot this replica will apply (everything below is covered by
    /// executed batches or an installed snapshot).
    pub watermark: Slot,
    /// Watermark of the most recent snapshot taken or installed.
    pub last_snapshot: Slot,
    /// Take a snapshot every this many applied slots (when the service
    /// can snapshot at all).
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
        ctx.publish_snapshot(blob);
        true
    }
}

/// The "Replica" thread: executes decided batches in log order, updates
/// the reply cache, and hands replies to the ClientIO threads owning the
/// clients' connections.
///
/// With nothing executing, the thread parks on the DecisionQueue (an idle
/// replica costs nothing; `close` wakes it for shutdown), then drains
/// whatever else is queued in one lock acquisition. Sequential modes
/// execute each batch in place and route its replies before the next one
/// runs, so reply latency is bounded by one batch's execution no matter
/// how deep the drained backlog is. Parallel mode feeds the batch to its
/// [`ParallelExecutor`] instead and, with work in flight, waits briefly
/// on worker completions rather than on the DecisionQueue, so new
/// decisions keep extending the dependency graph while earlier commands
/// still execute.
///
/// Durability rides on the same loop: a batch is appended to the WAL
/// *before* it executes, one sync covers the drained burst, every
/// `rig.every` applied slots the state is snapshotted at the end of the
/// burst, and peers' snapshots are installed in place of local state.
/// Both snapshots and installs first drain the executor, so the state
/// they capture or replace is a consistent prefix of the decided log.
pub(crate) fn run_service_manager(ctx: &Ctx, mut mode: ServiceMode, mut rig: SnapshotRig) {
    let handle = ctx.metrics.register_thread("Replica");
    let wal_appended = ctx.metrics.counter("wal.appended_bytes");
    let wal_synced = ctx.metrics.counter("wal.synced_bytes");
    let mut exec = mode.parallel_executor(&ctx.cache);
    let mut decisions: Vec<Decision> = Vec::new();
    let mut out = Outbound::new(ctx);
    loop {
        if exec.as_ref().map_or(true, |e| e.pending() == 0) {
            // Idle: park until something is decided (or shutdown).
            match ctx.decision_q.pop_with(&handle) {
                Ok(first) => decisions.push(first),
                Err(_) => return,
            }
        }
        // Batch up the backlog behind the first decision; an error here
        // (empty or closed) still leaves that decision to execute.
        let _ = ctx.decision_q.try_pop_all(&mut decisions);
        let mut appended = false;
        for decision in decisions.drain(..) {
            match decision {
                Decision::Install(blob) => {
                    // Installs reach only snapshot-capable services: the
                    // Protocol thread gates them out for the rest.
                    if blob.applied_upto <= rig.watermark {
                        continue; // already at or past this state
                    }
                    if !out.quiesce(ctx, &handle, exec.as_mut()) {
                        return;
                    }
                    if let Err(e) = mode.restore(&blob) {
                        eprintln!("smr-core: replica {}: {e}", ctx.me.0);
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
                    rig.watermark = slot.next();
                    out.clocks.track(&batch, clock);
                    match exec.as_mut() {
                        Some(exec) => {
                            for request in batch.requests {
                                exec.submit(request);
                            }
                        }
                        None => {
                            mode.execute_batch(&*ctx.cache, batch, &mut out.replies);
                            if !out.flush(ctx, &handle) {
                                return;
                            }
                        }
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
        if rig.snapshot_due() && mode.snapshot_capable() {
            if !out.quiesce(ctx, &handle, exec.as_mut()) {
                return;
            }
            if let Some(blob) = mode.snapshot(rig.watermark) {
                if !rig.commit_snapshot(ctx, blob) {
                    return;
                }
            }
        }
        if let Some(exec) = exec.as_mut() {
            if exec.poll_with(&mut out.replies, COMPLETION_POLL, &handle) > 0
                && !out.flush(ctx, &handle)
            {
                return;
            }
        }
    }
}

/// Replies on their way from the Replica thread to the ClientIO threads,
/// with the stage clocks of the batches that produced them.
struct Outbound {
    replies: Replies,
    /// One buffer per ClientIO thread, reused across flushes.
    outboxes: Vec<Vec<(u64, Reply)>>,
    clocks: PendingClocks,
}

impl Outbound {
    fn new(ctx: &Ctx) -> Self {
        Outbound {
            replies: Vec::new(),
            outboxes: (0..ctx.reply_qs.len()).map(|_| Vec::new()).collect(),
            clocks: PendingClocks::default(),
        }
    }

    /// Records the executed stage of every batch whose keyed reply is
    /// among the collected replies, routes the replies, then records the
    /// reply stage. Returns `false` when a reply queue has closed
    /// (shutdown).
    fn flush(&mut self, ctx: &Ctx, handle: &ThreadHandle) -> bool {
        let executed_ns = self.clocks.note_executed(ctx, &self.replies);
        if !route_replies(ctx, handle, &mut self.replies, &mut self.outboxes) {
            return false;
        }
        self.clocks.note_replied(ctx, executed_ns);
        true
    }

    /// Runs everything submitted to `exec` to completion and flushes its
    /// replies, so the service state is a consistent prefix of the
    /// decided log. Sequential modes never leave work in flight.
    fn quiesce(
        &mut self,
        ctx: &Ctx,
        handle: &ThreadHandle,
        exec: Option<&mut ParallelExecutor>,
    ) -> bool {
        if let Some(exec) = exec {
            exec.wait_idle(&mut self.replies);
        }
        self.flush(ctx, handle)
    }
}

/// Stage-clock bookkeeping. A batch's clock is keyed by its *last*
/// request's id and recorded when that request's reply is flushed. In
/// the sequential modes that is right after the batch executes; in
/// parallel mode it is the closest analogue of "batch executed" (an
/// approximation — workers may reorder non-conflicting requests, so the
/// keyed request is not always the final one to finish; see
/// ARCHITECTURE.md).
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
}

/// Routes a burst of executed replies to the ClientIO threads owning the
/// clients' connections: `None` payloads (duplicates the reply cache
/// suppressed) and departed clients are skipped, the rest are grouped
/// per ClientIO thread and flushed with one bulk push each. Returns
/// `false` when a reply queue has closed (shutdown).
fn route_replies(
    ctx: &Ctx,
    handle: &ThreadHandle,
    replies: &mut Replies,
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
        if outbox.is_empty() {
            continue;
        }
        let queue = &ctx.reply_qs[cio];
        // This thread is the queue's only producer, so its room only
        // grows while the push runs (slots ClientIO has claimed free
        // without it waking).
        if queue.capacity() - queue.len() < outbox.len() {
            // Ring before a push that may block: the drain it waits for
            // needs the ClientIO thread out of epoll_wait.
            ctx.io_wakers[cio].ring();
        }
        if queue.push_many_with(outbox.drain(..), handle).is_err() {
            return false;
        }
        ctx.io_wakers[cio].ring();
    }
    true
}
