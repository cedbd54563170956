//! ReplicationCore threads (§V-C): the Batcher, and the Protocol thread,
//! which also runs failure detection (§V-C3) and retransmission (§V-C4).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use smr_paxos::{Action, BatchBuilder, Event, PaxosReplica};
use smr_queue::PopError;
use smr_types::{RequestId, Slot};
use smr_wire::{Batch, ProtocolMsg, Request};

use super::stage::{batch_key, BatchStamp, IntakeMean, StageClock};
use super::{Ctx, Decision};

/// Most requests the Batcher moves out of the RequestQueue per lock
/// acquisition.
const REQUEST_BURST: usize = 1024;

/// Most events the Protocol thread drains from the DispatcherQueue
/// between pipelining-window checks.
const EVENT_BURST: usize = 256;

/// The Batcher thread (§V-C1): drains the RequestQueue into batches
/// according to the batching policy and feeds the ProposalQueue. Bursts
/// move under one RequestQueue lock acquisition, and every batch they
/// complete is handed to the ProposalQueue in one bulk push.
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
        let now = ctx.shared.now_ns();
        // Wait at most until the open batch's deadline.
        let wait = match builder.next_deadline() {
            Some(deadline) => Duration::from_nanos(deadline.saturating_sub(now).max(1)),
            None => Duration::from_millis(10),
        };
        match ctx
            .request_q
            .pop_wait_all_with(&mut burst, REQUEST_BURST, wait, &handle)
        {
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
                    if ctx.proposal_q.push_with((batch, stamp), &handle).is_err() {
                        return;
                    }
                }
            }
            Err(PopError::Closed) => return,
        }
    }
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
/// The loop still parks at most 1 ms on the DispatcherQueue, because
/// nothing else wakes it when the Batcher hands over a proposal.
pub(crate) fn run_protocol(ctx: &Ctx) {
    let handle = ctx.metrics.register_thread("Protocol");
    let mut core = PaxosReplica::new(ctx.me, ctx.config.clone());
    core.set_compaction(ctx.compaction);
    let mut actions = Vec::new();
    let mut deliveries: Vec<Decision> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    // Stage clocks of batches this replica proposed, keyed by the
    // batch's first request id and tagged with the slot the proposal
    // took; probed when the decision comes back as a `Deliver`. Cleared
    // on leader change (a dethroned leader's un-decided proposals would
    // otherwise linger) and swept against the applied watermark when it
    // advances — a batch whose delivery this replica observed via a
    // snapshot install or catch-up fast-forward never produces a
    // `Deliver` action, so without the sweep its entry would sit in the
    // map for the leader's whole lifetime.
    let mut pending_clocks: HashMap<RequestId, (Slot, StageClock)> = HashMap::new();
    core.handle(Event::Init, ctx.shared.now_ns(), &mut actions);
    if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks).is_err() {
        return;
    }
    // The ServiceManager publishes snapshots through the SnapshotStore;
    // the watermark atomic is the Protocol thread's cue to fast-forward
    // past recovered state and compact the in-memory log.
    let mut seen_watermark = ctx.snapshots.watermark();
    if seen_watermark > Slot::ZERO {
        core.note_snapshot(seen_watermark);
        publish(ctx, &core);
    }
    let tick_every = ctx.config.heartbeat_interval() / 2;
    let mut last_tick = Instant::now();
    loop {
        if ctx.is_shutdown() {
            return;
        }
        let watermark = ctx.snapshots.watermark();
        if watermark > seen_watermark {
            seen_watermark = watermark;
            sweep_pending_clocks(&mut pending_clocks, watermark);
            core.note_snapshot(watermark);
            if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks).is_err() {
                return;
            }
            publish(ctx, &core);
        }
        // Pull proposals whenever the pipelining window has room. The
        // Batcher prepares batches concurrently (§V-C1), so starting a new
        // ballot is one queue pop, not a batch construction. This stays a
        // per-item pop on purpose: the window check gates every proposal.
        while core.window_open() {
            match ctx.proposal_q.try_pop() {
                Ok((batch, stamp)) => {
                    let now = ctx.shared.now_ns();
                    if ctx.stage.enabled {
                        let clock = ctx.stage.record_proposed(stamp, now);
                        if let Some(key) = batch_key(&batch) {
                            // window_open() held above, so handle() will
                            // propose this batch immediately into
                            // exactly next_slot() — tag the entry with
                            // it so the watermark sweep can tell which
                            // proposals a snapshot has overtaken.
                            pending_clocks.insert(key, (core.next_slot(), clock));
                        }
                    }
                    core.handle(Event::Proposal(batch), now, &mut actions);
                    if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks)
                        .is_err()
                    {
                        return;
                    }
                    publish(ctx, &core);
                }
                Err(PopError::Empty) => break,
                Err(PopError::Closed) => return,
            }
        }
        // Drain the DispatcherQueue in bulk between window checks: one
        // lock acquisition moves the whole burst of peer messages.
        match ctx.dispatcher_q.pop_wait_all_with(
            &mut events,
            EVENT_BURST,
            Duration::from_millis(1),
            &handle,
        ) {
            Ok(_) => {
                for event in events.drain(..) {
                    // A service that cannot restore a snapshot must not
                    // install one: drop peer snapshots on the floor and
                    // keep catching up slot by slot.
                    if !ctx.snapshot_capable
                        && matches!(
                            &event,
                            Event::Message {
                                msg: ProtocolMsg::Snapshot { .. },
                                ..
                            }
                        )
                    {
                        continue;
                    }
                    core.handle(event, ctx.shared.now_ns(), &mut actions);
                    if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks)
                        .is_err()
                    {
                        return;
                    }
                }
                publish(ctx, &core);
            }
            Err(PopError::Empty) => {}
            Err(PopError::Closed) => return,
        }
        if last_tick.elapsed() >= tick_every {
            last_tick = Instant::now();
            core.handle(Event::Tick, ctx.shared.now_ns(), &mut actions);
            if apply_actions(ctx, &mut actions, &mut deliveries, &mut pending_clocks).is_err() {
                return;
            }
        }
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
