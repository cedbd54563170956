//! ReplicationCore threads (§V-C): the Batcher, and the Protocol thread,
//! which also runs failure detection (§V-C3) and retransmission (§V-C4).

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use smr_metrics::ThreadHandle;
use smr_paxos::{Action, BatchBuilder, Event, PaxosReplica};
use smr_queue::PopError;
use smr_types::{RequestId, Slot};
use smr_wire::{Batch, ProtocolMsg, Request};

use super::stage::{batch_key, BatchStamp, IntakeMean, StageClock};
use super::{Ctx, Decision, Input};

/// Most requests the Batcher moves out of the RequestQueue per lock
/// acquisition.
const REQUEST_BURST: usize = 1024;

/// Most inputs the Protocol thread drains from the DispatcherQueue
/// between pipelining-window checks.
const EVENT_BURST: usize = 256;

/// The Batcher thread (§V-C1): drains the RequestQueue into batches
/// according to the batching policy and feeds the ProposalQueue. Bursts
/// move under one RequestQueue lock acquisition, and every batch they
/// complete is handed to the ProposalQueue in one bulk push, followed by
/// a wakeup of the Protocol thread ([`announce_proposal`]).
///
/// With a batch open the thread waits for requests until the batch's
/// deadline; with none open nothing can time out, so it waits for the
/// next request, and shutdown closes the RequestQueue to end that wait.
///
/// Each request arrives paired with its intake stamp; the mean of a
/// batch's stamps becomes the batch's intake time, and sealing records
/// the intake → sealed transition.
pub(crate) fn run_batcher(ctx: &Ctx) {
    let handle = ctx.metrics.register_thread("Batcher");
    let mut builder = BatchBuilder::new(ctx.config.batch());
    let mut burst: Vec<(Request, u64)> = Vec::new();
    let mut completed: Vec<(Batch, BatchStamp)> = Vec::new();
    // Intake stamps of the batch currently open in the builder.
    let mut open_intake = IntakeMean::default();
    loop {
        let popped = match builder.next_deadline() {
            Some(deadline) => {
                let wait = deadline.saturating_sub(ctx.shared.now_ns()).max(1);
                ctx.request_q.pop_wait_all_with(
                    &mut burst,
                    REQUEST_BURST,
                    Duration::from_nanos(wait),
                    &handle,
                )
            }
            None => ctx.request_q.pop_with(&handle).map(|first| {
                burst.push(first);
                1 + ctx.request_q.try_pop_all(&mut burst).unwrap_or(0)
            }),
        };
        match popped {
            Ok(_) => {
                let now = ctx.shared.now_ns();
                for (req, intake_ns) in burst.drain(..) {
                    let Some(batch) = builder.push(req, now) else {
                        open_intake.add(intake_ns);
                        continue;
                    };
                    // The request either closed the sealed batch or
                    // overflowed it and opened the next one.
                    let overflowed = builder.pending_len() > 0;
                    if !overflowed {
                        open_intake.add(intake_ns);
                    }
                    let stamp = BatchStamp {
                        intake_ns: open_intake.take(),
                        sealed_ns: now,
                    };
                    completed.push((batch, stamp));
                    if overflowed {
                        open_intake.add(intake_ns);
                    }
                }
                if !completed.is_empty() {
                    for (_, stamp) in &completed {
                        ctx.stage.record_sealed(*stamp);
                    }
                    if ctx
                        .proposal_q
                        .push_many_with(completed.drain(..), &handle)
                        .is_err()
                        || announce_proposal(ctx, &handle).is_err()
                    {
                        return;
                    }
                }
            }
            Err(PopError::Empty) => {
                let now = ctx.shared.now_ns();
                if let Some(batch) = builder.poll_timeout(now) {
                    let stamp = BatchStamp {
                        intake_ns: open_intake.take(),
                        sealed_ns: now,
                    };
                    ctx.stage.record_sealed(stamp);
                    if ctx.proposal_q.push_with((batch, stamp), &handle).is_err()
                        || announce_proposal(ctx, &handle).is_err()
                    {
                        return;
                    }
                }
            }
            Err(PopError::Closed) => return,
        }
    }
}

/// Wakes the Protocol thread after the Batcher pushed to the
/// ProposalQueue, keeping at most one [`Input::ProposalReady`] queued.
///
/// No wakeup is lost. The Batcher sets `proposal_ready` *after* its
/// push; the Protocol thread clears it when it handles the
/// `ProposalReady`, and drains the ProposalQueue *after* that clear.
/// Both are `SeqCst` read-modify-writes of the flag. If the swap below
/// reads `false`, it queues a fresh `ProposalReady`. If it reads `true`,
/// the `ProposalReady` queued by an earlier swap is not yet handled: its
/// clear comes after this swap in the flag's order, reads this swap's
/// write, and so the drain that follows the clear sees the batch pushed
/// before it. A batch the drain leaves behind because the pipelining
/// window is closed waits for the event that reopens the window, which
/// every pass of the Protocol loop follows with a drain.
///
/// The push may block on a full DispatcherQueue, which only the Protocol
/// thread drains, and the Protocol thread never waits for the Batcher.
fn announce_proposal(ctx: &Ctx, handle: &ThreadHandle) -> Result<(), ()> {
    if ctx.proposal_ready.swap(true, Ordering::SeqCst) {
        return Ok(());
    }
    ctx.dispatcher_q
        .push_with(Input::ProposalReady, handle)
        .map_err(|_| ())
}

/// The Protocol thread (§V-C2): the single-threaded event loop around the
/// pure Paxos state machine. Owns the log; everything it publishes goes
/// through queues or the shared atomics.
///
/// It is also the failure detector (§V-C3) and the retransmitter
/// (§V-C4): every `heartbeat_interval / 2` it hands the core an
/// [`Event::Tick`], on which the core resends overdue Propose and
/// Prepare messages, heartbeats idle links, suspects a silent leader and
/// re-checks its own quorum.
///
/// Its only wait is the DispatcherQueue pop, bounded by the next tick.
/// Everything that has work for it pushes there: the ReplicaIO receivers
/// (peer messages), the Batcher ([`Input::ProposalReady`]) and the
/// ServiceManager ([`Input::SnapshotPublished`]). Shutdown closes the
/// queue, which ends the wait at once.
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
        // Pull proposals whenever the pipelining window has room. The
        // Batcher prepares batches concurrently (§V-C1), so starting a new
        // ballot is one queue pop, not a batch construction. This stays a
        // per-item pop on purpose: the window check gates every proposal.
        while state.core.window_open() {
            match ctx.proposal_q.try_pop() {
                Ok((batch, stamp)) => {
                    if ctx.stage.enabled {
                        let clock = ctx.stage.record_proposed(stamp, ctx.shared.now_ns());
                        if let Some(key) = batch_key(&batch) {
                            // window_open() held above, so handle() will
                            // propose this batch immediately into
                            // exactly next_slot() — tag the entry with
                            // it so the watermark sweep can tell which
                            // proposals a snapshot has overtaken.
                            let slot = state.core.next_slot();
                            state.pending_clocks.insert(key, (slot, clock));
                        }
                    }
                    state.handle(ctx, Event::Proposal(batch))?;
                    publish(ctx, &state.core);
                }
                Err(PopError::Empty) => break,
                Err(PopError::Closed) => return Err(()),
            }
        }
        // Wait for input until the next tick is due, then drain it in
        // bulk: one lock acquisition moves the whole burst.
        let wait = next_tick.saturating_duration_since(Instant::now());
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
                        // The drain at the top of the next pass follows
                        // this clear (see `announce_proposal`).
                        Input::ProposalReady => {
                            ctx.proposal_ready.swap(false, Ordering::SeqCst);
                        }
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
