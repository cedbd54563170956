//! The ReplicationCore thread (§V-C): the Protocol thread, which also
//! forms batches (§V-C1), runs failure detection (§V-C3) and
//! retransmission (§V-C4).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use smr_metrics::ThreadHandle;
use smr_paxos::{Action, BatchBuilder, Event, PaxosReplica};
use smr_queue::PopError;
use smr_types::{RequestId, Slot};
use smr_wire::{Batch, ProtocolMsg, Request};

use super::stage::{batch_key, BatchStamp, IntakeMean, StageClock};
use super::{Ctx, Decision, Input};

/// Most inputs the Protocol thread drains from the DispatcherQueue
/// between pipelining-window checks.
const EVENT_BURST: usize = 256;

/// The Protocol thread (§V-C2): the single-threaded event loop around the
/// pure Paxos state machine. Owns the log; everything it publishes goes
/// through queues or the shared atomics.
///
/// It also forms the batches it proposes (§V-C1): it pops the
/// RequestQueue only while the pipelining window has room, so with the
/// window closed requests wait there and ClientIO parks on it (§V-E).
///
/// It is also the failure detector (§V-C3) and the retransmitter
/// (§V-C4): every `heartbeat_interval / 2` it hands the core an
/// [`Event::Tick`], on which the core resends overdue Propose and
/// Prepare messages, heartbeats idle links, suspects a silent leader and
/// re-checks its own quorum.
///
/// Its only wait is the DispatcherQueue pop, bounded by the next tick and
/// by the open batch's deadline. Everything that has work for it pushes
/// there: the ReplicaIO receivers (peer messages), ClientIO
/// ([`Input::RequestsReady`]) and the ServiceManager
/// ([`Input::SnapshotPublished`]). Shutdown closes the queue, which ends
/// the wait at once.
pub(crate) fn run_protocol(ctx: &Ctx) {
    let handle = ctx.metrics.register_thread("Protocol");
    // Every way out of the loop is shutdown.
    let _ = protocol_loop(ctx, &handle);
}

/// The Protocol thread's loop. Returns `Err(())` once the replica shuts
/// down, and never otherwise.
fn protocol_loop(ctx: &Ctx, handle: &ThreadHandle) -> Result<(), ()> {
    let mut core = PaxosReplica::new(ctx.me, ctx.config.clone());
    core.set_compaction(ctx.compaction);
    let mut state = ProtocolState {
        core,
        actions: Vec::new(),
        deliveries: Vec::new(),
        pending_clocks: HashMap::new(),
        seen_watermark: Slot::ZERO,
        builder: BatchBuilder::new(ctx.config.batch()),
        open_intake: IntakeMean::default(),
        sealed: VecDeque::new(),
        burst: Vec::new(),
    };
    let mut inputs: Vec<Input> = Vec::new();
    state.handle(ctx, Event::Init)?;
    // A snapshot recovered from disk is published before this thread
    // starts: fast-forward past it.
    state.note_snapshot(ctx);
    let tick_every = ctx.config.heartbeat_interval() / 2;
    let mut next_tick = Instant::now() + tick_every;
    loop {
        if ctx.is_shutdown() {
            return Err(());
        }
        // Clear the notice before popping the RequestQueue (see
        // `Ctx::notify_requests`).
        ctx.requests_ready.swap(false, Ordering::SeqCst);
        state.fill_window(ctx)?;
        // Wait for input until the next tick or the open batch's deadline
        // is due, then drain it in bulk: one lock acquisition moves the
        // whole burst.
        let mut wait = next_tick.saturating_duration_since(Instant::now());
        if let Some(deadline) = state.builder.next_deadline() {
            let until = deadline.saturating_sub(ctx.shared.now_ns());
            wait = wait.min(Duration::from_nanos(until));
        }
        match ctx
            .dispatcher_q
            .pop_wait_all_with(&mut inputs, EVENT_BURST, wait, handle)
        {
            Ok(_) => {
                for input in inputs.drain(..) {
                    match input {
                        // A service that cannot restore a snapshot must
                        // not install one: drop peer snapshots on the
                        // floor and keep catching up slot by slot.
                        Input::Message {
                            msg: ProtocolMsg::Snapshot { .. },
                            ..
                        } if !ctx.snapshot_capable => {}
                        Input::Message { from, msg } => {
                            state.handle(ctx, Event::Message { from, msg })?;
                        }
                        // The next pass pops the RequestQueue.
                        Input::RequestsReady => {}
                        Input::SnapshotPublished => state.note_snapshot(ctx),
                    }
                }
                publish(ctx, &state.core);
            }
            Err(PopError::Empty) => {}
            Err(PopError::Closed) => return Err(()),
        }
        let now = Instant::now();
        if now >= next_tick {
            next_tick = now + tick_every;
            state.handle(ctx, Event::Tick)?;
            // Catches a `SnapshotPublished` a full DispatcherQueue
            // refused (see `Ctx::publish_snapshot`).
            state.note_snapshot(ctx);
        }
    }
}

/// What the Protocol thread owns besides its queues: the core and the
/// buffers its actions pass through.
struct ProtocolState {
    core: PaxosReplica,
    actions: Vec<Action>,
    deliveries: Vec<Decision>,
    // Stage clocks of batches this replica proposed, keyed by the
    // batch's first request id and tagged with the slot the proposal
    // took; probed when the decision comes back as a `Deliver`. Cleared
    // on leader change (a dethroned leader's un-decided proposals would
    // otherwise linger) and swept against the applied watermark when it
    // advances — a batch whose delivery this replica observed via a
    // snapshot install or catch-up fast-forward never produces a
    // `Deliver` action, so without the sweep its entry would sit in the
    // map for the leader's whole lifetime.
    pending_clocks: HashMap<RequestId, (Slot, StageClock)>,
    /// Watermark of the newest published snapshot the core has noted.
    seen_watermark: Slot,
    /// Forms batches from the requests popped off the RequestQueue.
    builder: BatchBuilder,
    /// Intake stamps of the batch open in `builder`.
    open_intake: IntakeMean,
    /// Sealed batches the pipelining window could not take yet, oldest
    /// first. At most one RequestQueue drain's worth.
    sealed: VecDeque<(Batch, BatchStamp)>,
    /// Scratch buffer for one RequestQueue drain, paired with intake
    /// stamps.
    burst: Vec<(Request, u64)>,
}

impl ProtocolState {
    /// Hands `event` to the core and carries out the resulting actions.
    /// Returns `Err(())` when the replica is shutting down.
    fn handle(&mut self, ctx: &Ctx, event: Event) -> Result<(), ()> {
        self.core
            .handle(event, ctx.shared.now_ns(), &mut self.actions);
        apply_actions(
            ctx,
            &mut self.actions,
            &mut self.deliveries,
            &mut self.pending_clocks,
        )
    }

    /// Proposes while the pipelining window has room: first the sealed
    /// batches that waited for it, then batches formed from the
    /// RequestQueue, which is popped only while the window is open. Each
    /// pop is preceded by a store of the open batch's room, which
    /// ClientIO reads to decide whether its requests need a notice (see
    /// `Ctx::notify_requests`). An open batch whose delay has expired is
    /// sealed, window or not, but only after the pop, so that requests
    /// queued without a notice join it. Returns `Err(())` when the replica
    /// is shutting down.
    fn fill_window(&mut self, ctx: &Ctx) -> Result<(), ()> {
        loop {
            while self.core.window_open() {
                let Some((batch, stamp)) = self.sealed.pop_front() else {
                    break;
                };
                self.propose(ctx, batch, stamp)?;
            }
            if self.core.window_open() {
                ctx.batch_gauge.publish(&self.builder);
                match ctx.request_q.try_pop_all(&mut self.burst) {
                    Ok(_) => {
                        self.batch_burst(ctx);
                        continue;
                    }
                    Err(PopError::Empty) => {}
                    Err(PopError::Closed) => return Err(()),
                }
            }
            let now = ctx.shared.now_ns();
            let Some(batch) = self.builder.poll_timeout(now) else {
                return Ok(());
            };
            self.seal(ctx, batch, now);
        }
    }

    /// Feeds the drained requests to the builder, sealing every batch
    /// they complete. Each request arrives paired with its intake stamp;
    /// the mean of a batch's stamps becomes the batch's intake time.
    fn batch_burst(&mut self, ctx: &Ctx) {
        let now = ctx.shared.now_ns();
        let mut burst = std::mem::take(&mut self.burst);
        let bytes = burst.iter().map(|(req, _)| req.wire_size()).sum();
        ctx.batch_gauge.popped(burst.len(), bytes);
        for (req, intake_ns) in burst.drain(..) {
            let Some(batch) = self.builder.push(req, now) else {
                self.open_intake.add(intake_ns);
                continue;
            };
            // The request either closed the sealed batch or overflowed
            // it and opened the next one.
            let overflowed = self.builder.pending_len() > 0;
            if !overflowed {
                self.open_intake.add(intake_ns);
            }
            self.seal(ctx, batch, now);
            if overflowed {
                self.open_intake.add(intake_ns);
            }
        }
        self.burst = burst;
    }

    /// Stamps a just-sealed batch, records intake → sealed, and queues it
    /// for the window.
    fn seal(&mut self, ctx: &Ctx, batch: Batch, now: u64) {
        let stamp = BatchStamp {
            intake_ns: self.open_intake.take(),
            sealed_ns: now,
        };
        ctx.stage.record_sealed(stamp);
        self.sealed.push_back((batch, stamp));
    }

    /// Proposes `batch`. The caller has checked that the window is open.
    /// Returns `Err(())` when the replica is shutting down.
    fn propose(&mut self, ctx: &Ctx, batch: Batch, stamp: BatchStamp) -> Result<(), ()> {
        if ctx.stage.enabled {
            let clock = ctx.stage.record_proposed(stamp, ctx.shared.now_ns());
            if let Some(key) = batch_key(&batch) {
                // The window is open, so handle() proposes this batch
                // into exactly next_slot(): tag the entry with it so the
                // watermark sweep can tell which proposals a snapshot has
                // overtaken.
                let slot = self.core.next_slot();
                self.pending_clocks.insert(key, (slot, clock));
            }
        }
        self.handle(ctx, Event::Proposal(batch))?;
        publish(ctx, &self.core);
        Ok(())
    }

    /// Fast-forwards and compacts the log up to the newest snapshot the
    /// ServiceManager published, if it is newer than the last one noted.
    fn note_snapshot(&mut self, ctx: &Ctx) {
        let watermark = ctx.snapshots.watermark();
        if watermark <= self.seen_watermark {
            return;
        }
        self.seen_watermark = watermark;
        sweep_pending_clocks(&mut self.pending_clocks, watermark);
        self.core.note_snapshot(watermark);
        publish(ctx, &self.core);
    }
}

fn publish(ctx: &Ctx, core: &PaxosReplica) {
    ctx.shared.set_decided_upto(core.decided_upto());
}

/// Carries out the state machine's actions. `deliveries` is a reusable
/// scratch buffer: `Deliver` decisions and snapshot installs are staged
/// there (relative order preserved) and handed to the DecisionQueue in
/// one bulk push per action batch. `pending_clocks` tracks the stage
/// clocks of locally proposed batches; a delivery of one of them
/// records proposed → decided and forwards the clock with the decision.
/// Returns `Err(())` when the replica is shutting down.
fn apply_actions(
    ctx: &Ctx,
    actions: &mut Vec<Action>,
    deliveries: &mut Vec<Decision>,
    pending_clocks: &mut HashMap<RequestId, (Slot, StageClock)>,
) -> Result<(), ()> {
    for action in actions.drain(..) {
        match action {
            Action::Send { to, msg } => ctx.send(to, &msg),
            Action::Deliver { slot, batch } => {
                // Follower deliveries (and anything proposed before a
                // leader change) have no clock entry and ride as `None`.
                let clock = batch_key(&batch)
                    .and_then(|key| pending_clocks.remove(&key))
                    .map(|(_, clock)| ctx.stage.record_decided(clock, ctx.shared.now_ns()));
                deliveries.push(Decision::Apply(slot, batch, clock));
            }
            Action::SendSnapshot { to } => {
                // Materialize the newest published snapshot; nothing to
                // send if none exists yet (the peer falls back to slot
                // catch-up from other replicas).
                if let Some(blob) = ctx.snapshots.latest() {
                    ctx.send(
                        to,
                        &ProtocolMsg::Snapshot {
                            applied_upto: blob.applied_upto,
                            state_hash: blob.state_hash,
                            state: blob.state.clone(),
                        },
                    );
                }
            }
            Action::InstallSnapshot { snapshot } => {
                deliveries.push(Decision::Install(snapshot));
            }
            Action::LeaderChanged { view, leader } => {
                pending_clocks.clear();
                ctx.shared.set_view(view, leader, ctx.me);
            }
            Action::ServingChanged { serving } => {
                ctx.shared.set_serving(serving);
                if !serving {
                    // Every ClientIO thread redirects all of its
                    // connections; each may be in epoll_wait.
                    for waker in &ctx.io_wakers {
                        waker.ring();
                    }
                }
            }
        }
    }
    if !deliveries.is_empty() && ctx.decision_q.push_many(deliveries.drain(..)).is_err() {
        return Err(());
    }
    Ok(())
}

/// Drops pending stage clocks for proposals the applied watermark has
/// overtaken. `applied_upto` is exclusive (the snapshot covers slots
/// `< applied_upto`): a proposal in a covered slot was delivered through
/// the snapshot-install or catch-up fast-forward path, which never emits
/// the `Action::Deliver` that would otherwise remove its entry — so on a
/// long-lived leader whose followers recover via snapshots, the map
/// would grow without bound.
fn sweep_pending_clocks(
    pending_clocks: &mut HashMap<RequestId, (Slot, StageClock)>,
    applied_upto: Slot,
) {
    pending_clocks.retain(|_, (slot, _)| *slot >= applied_upto);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_types::{ClientId, SeqNum};

    fn rid(n: u64) -> RequestId {
        RequestId::new(ClientId(n), SeqNum(0))
    }

    /// Regression for the pending-clocks leak: entries whose slot the
    /// applied watermark has overtaken (delivered via snapshot install
    /// or catch-up fast-forward, so no `Action::Deliver` ever removes
    /// them) must be swept when the watermark advances; in-flight
    /// proposals at or above the watermark must survive.
    #[test]
    fn watermark_sweep_drops_only_overtaken_clocks() {
        let mut pending: HashMap<RequestId, (Slot, StageClock)> = HashMap::new();
        for s in 0..10u64 {
            pending.insert(rid(s), (Slot(s), StageClock::default()));
        }
        // Watermark advanced to 7: slots 0..7 are covered by the
        // snapshot (exclusive bound), 7..10 are still in flight.
        sweep_pending_clocks(&mut pending, Slot(7));
        assert_eq!(pending.len(), 3);
        for s in 0..7u64 {
            assert!(!pending.contains_key(&rid(s)), "slot {s} swept");
        }
        for s in 7..10u64 {
            assert!(pending.contains_key(&rid(s)), "slot {s} retained");
        }
        // A stale (non-advancing) watermark sweeps nothing further.
        sweep_pending_clocks(&mut pending, Slot(7));
        assert_eq!(pending.len(), 3);
        // Repeated advances keep the map bounded by the window size, not
        // the leader's lifetime.
        sweep_pending_clocks(&mut pending, Slot(10));
        assert!(pending.is_empty());
    }
}
