//! The protocol state machine driven by the Protocol thread.

use std::collections::{BTreeMap, HashMap, VecDeque};

use smr_types::{
    ClusterConfig, CompactionPolicy, ReplicaId, RetransmitPolicy, Slot, SnapshotBlob, View,
};
use smr_wire::{AcceptedEntry, Batch, ProtocolMsg};

use crate::detector::Detector;
use crate::events::{Action, Event, Target};
use crate::log::Log;

/// Role of a replica with respect to the current view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaRole {
    /// Accepting proposals from the view's leader.
    Follower,
    /// This replica leads the view and is running Phase 1.
    Preparing,
    /// This replica leads the view and is in the Phase 2 steady state.
    Leading,
}

/// Maximum slots per catch-up query/reply, bounding message size.
const CATCHUP_CHUNK: u64 = 256;

/// How long (ns) to wait for a catch-up reply before re-issuing.
const CATCHUP_TIMEOUT_NS: u64 = 200_000_000;

/// The resend schedule of one unanswered message (§V-C4): a Propose
/// whose slot is undecided, or the Prepare of the view being prepared.
#[derive(Debug, Clone, Copy)]
struct Resend {
    /// When the message is next resent.
    due_ns: u64,
    /// Resends so far.
    attempt: u32,
}

impl Resend {
    /// The schedule of a message first sent at `now_ns`.
    fn first(now_ns: u64, policy: RetransmitPolicy) -> Self {
        Resend {
            due_ns: now_ns.saturating_add(policy.interval(0).as_nanos() as u64),
            attempt: 0,
        }
    }

    /// Whether the message is due at `now_ns`; if so, schedules the next
    /// resend with backoff.
    fn fire(&mut self, now_ns: u64, policy: RetransmitPolicy) -> bool {
        if now_ns < self.due_ns {
            return false;
        }
        self.attempt += 1;
        self.due_ns = now_ns.saturating_add(policy.interval(self.attempt).as_nanos() as u64);
        true
    }
}

/// The MultiPaxos state machine of one replica.
///
/// Feed it [`Event`]s via [`PaxosReplica::handle`]; it appends [`Action`]s
/// for the caller to carry out. See the crate docs for the protocol
/// sketch.
#[derive(Debug)]
pub struct PaxosReplica {
    me: ReplicaId,
    config: ClusterConfig,
    view: View,
    role: ReplicaRole,
    log: Log,
    /// Peers' Phase 1b responses while preparing.
    promises: HashMap<ReplicaId, Vec<AcceptedEntry>>,
    prepare_first_unstable: Slot,
    /// Next slot this leader will assign.
    next_slot: Slot,
    /// Slots proposed in the current view and not yet decided (the
    /// paper's "parallel ballots in execution", bounded by `WND`), each
    /// with its resend schedule. The log holds their values.
    my_inflight: BTreeMap<Slot, Resend>,
    /// Resend schedule of this view's Prepare while preparing.
    prepare_resend: Option<Resend>,
    /// Proposals buffered while preparing or while the window is full.
    pending_proposals: VecDeque<Batch>,
    dropped_proposals: u64,
    /// Outstanding catch-up query: (first slot asked, issue time ns).
    catchup_inflight: Option<(Slot, u64)>,
    /// Highest `decided_upto` heard from each replica.
    peer_decided_upto: Vec<Slot>,
    /// When delivered slots are garbage collected.
    policy: CompactionPolicy,
    /// First slot NOT covered by the newest service snapshot (exclusive).
    /// Under [`CompactionPolicy::SnapshotDriven`] nothing below this is
    /// ever compacted until a snapshot covers it.
    snapshot_watermark: Slot,
    /// Per-peer liveness: heartbeats, suspicion, the quorum check.
    detector: Detector,
    /// Whether this replica admits client requests: it leads the view
    /// and has heard from a quorum within the suspicion window.
    serving: bool,
}

impl PaxosReplica {
    /// Creates the state machine for replica `me` of `config`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is not a member of `config`.
    pub fn new(me: ReplicaId, config: ClusterConfig) -> Self {
        assert!(
            config.contains(me),
            "replica {me} not in cluster of {}",
            config.n()
        );
        let n = config.n();
        PaxosReplica {
            me,
            view: View::ZERO,
            role: ReplicaRole::Follower,
            log: Log::new(),
            promises: HashMap::new(),
            prepare_first_unstable: Slot::ZERO,
            next_slot: Slot::ZERO,
            my_inflight: BTreeMap::new(),
            prepare_resend: None,
            pending_proposals: VecDeque::new(),
            dropped_proposals: 0,
            catchup_inflight: None,
            peer_decided_upto: vec![Slot::ZERO; n],
            // Historical default: bounded slot retention. Snapshot-capable
            // runtimes switch to `SnapshotDriven` via `set_compaction`.
            policy: CompactionPolicy::KeepSlots(4096),
            snapshot_watermark: Slot::ZERO,
            detector: Detector::new(me, &config),
            serving: false,
            config,
        }
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.me
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Current role.
    pub fn role(&self) -> ReplicaRole {
        self.role
    }

    /// Leader of the current view.
    pub fn leader(&self) -> ReplicaId {
        self.view.leader(self.config.n())
    }

    /// Whether this replica leads the current view (preparing or leading).
    pub fn is_leader(&self) -> bool {
        self.leader() == self.me
    }

    /// Whether this replica admits client requests: it leads the current
    /// view and, as of the last event handled, has heard from a majority
    /// (itself included) within each peer's suspicion threshold. Changes
    /// are also reported as [`Action::ServingChanged`].
    pub fn serving(&self) -> bool {
        self.serving
    }

    /// Number of parallel ballots currently executing (Table I's
    /// "avg parallel ballots" samples this).
    pub fn in_flight(&self) -> usize {
        self.my_inflight.len()
    }

    /// Whether a new proposal would be admitted immediately (pipelining
    /// window `WND` not exhausted).
    pub fn window_open(&self) -> bool {
        self.role == ReplicaRole::Leading && self.my_inflight.len() < self.config.window()
    }

    /// The slot this leader will assign to its next immediate proposal.
    /// Exact only while [`PaxosReplica::window_open`] holds (a proposal
    /// handled then is never buffered, so it takes exactly this slot);
    /// callers tracking per-proposal state key it by this value.
    pub fn next_slot(&self) -> Slot {
        self.next_slot
    }

    /// First slot not known decided.
    pub fn decided_upto(&self) -> Slot {
        self.log.first_gap()
    }

    /// Proposals buffered awaiting leadership/window.
    pub fn pending_proposals(&self) -> usize {
        self.pending_proposals.len()
    }

    /// Proposals dropped because this replica was not leading.
    pub fn dropped_proposals(&self) -> u64 {
        self.dropped_proposals
    }

    /// Read access to the log (tests, catch-up serving, snapshots).
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Sets the log-compaction policy.
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.policy = policy;
    }

    /// The active log-compaction policy.
    pub fn compaction(&self) -> CompactionPolicy {
        self.policy
    }

    /// First slot not covered by the newest known service snapshot.
    pub fn snapshot_watermark(&self) -> Slot {
        self.snapshot_watermark
    }

    /// Records that a service snapshot now covers every slot below
    /// `applied_upto`.
    ///
    /// Two callers: the runtime after the ServiceManager persists a local
    /// snapshot (steady state — the log already delivered those slots, so
    /// this only licenses compaction), and recovery/snapshot-install paths
    /// where the service state is AHEAD of the log (the log fast-forwards
    /// so ordering resumes at the watermark instead of slot 0).
    pub fn note_snapshot(&mut self, applied_upto: Slot) {
        if applied_upto <= self.snapshot_watermark {
            return;
        }
        self.snapshot_watermark = applied_upto;
        if applied_upto > self.log.delivered_upto() {
            self.log.fast_forward(applied_upto);
            self.next_slot = self.next_slot.max(applied_upto);
        }
        self.compact();
    }

    /// Garbage-collects the log according to the active policy.
    fn compact(&mut self) {
        match self.policy {
            CompactionPolicy::KeepAll => {}
            CompactionPolicy::KeepSlots(n) => {
                let keep_from = Slot(self.log.first_gap().0.saturating_sub(n));
                self.log.truncate_below(keep_from);
            }
            CompactionPolicy::SnapshotDriven => {
                // Never drop history a snapshot does not cover: before the
                // first snapshot the log is kept whole.
                self.log.truncate_below(self.snapshot_watermark);
            }
        }
    }

    /// Processes one event, appending resulting actions to `out`.
    ///
    /// `now_ns` is a monotonic timestamp supplied by the caller (real or
    /// virtual time). It also drives failure detection: every message
    /// stamps its sender's arrival, every emitted send stamps the link,
    /// and [`Event::Tick`] acts on the stamps.
    pub fn handle(&mut self, event: Event, now_ns: u64, out: &mut Vec<Action>) {
        let first = out.len();
        let view = self.view;
        match event {
            Event::Init => self.on_init(now_ns, out),
            Event::Proposal(batch) => self.on_proposal(batch, now_ns, out),
            Event::Message { from, msg } => self.on_message(from, msg, now_ns, out),
            Event::Suspect { view } => self.on_suspect(view, now_ns, out),
            Event::Tick => self.on_tick(now_ns, out),
        }
        if self.view != view {
            self.detector.view_started(now_ns);
        }
        self.detector.note_sends(&out[first..], now_ns);
        self.update_serving(now_ns, out);
    }

    /// The periodic deadline (§V-C3, §V-C4): resend overdue Propose and
    /// Prepare messages, re-issue a stalled catch-up, heartbeat idle
    /// links (a leader to every peer, a follower to its leader, so an
    /// idle leader still sees its quorum), and suspect a leader silent
    /// past its threshold.
    fn on_tick(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        self.resend_overdue(now_ns, out);
        self.maybe_catchup(None, now_ns, out);
        let leader = self.leader();
        let heartbeat = ProtocolMsg::Heartbeat {
            view: self.view,
            decided_upto: self.log.first_gap(),
        };
        for peer in self.config.peers(self.me) {
            if (self.me == leader || peer == leader) && self.detector.heartbeat_due(peer, now_ns) {
                out.push(Action::Send {
                    to: Target::One(peer),
                    msg: heartbeat.clone(),
                });
            }
        }
        if self.me != leader && !self.detector.alive(leader, now_ns) {
            self.on_suspect(self.view, now_ns, out);
        }
    }

    /// Resends every message whose resend is due at `now_ns` to all
    /// peers: the Prepare while preparing, and the Propose of each
    /// undecided slot of this view, rebuilt from the log. A slot that
    /// left the log or was decided by catch-up is dropped instead.
    fn resend_overdue(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        let policy = self.config.retransmit();
        let view = self.view;
        if let Some(resend) = self.prepare_resend.as_mut() {
            if resend.fire(now_ns, policy) {
                out.push(Action::Send {
                    to: Target::All,
                    msg: ProtocolMsg::Prepare {
                        view,
                        first_unstable: self.prepare_first_unstable,
                    },
                });
            }
        }
        let log = &self.log;
        self.my_inflight.retain(|&slot, resend| {
            let Some(batch) = log
                .get(slot)
                .filter(|i| !i.decided)
                .and_then(|i| i.value.as_ref())
            else {
                return false;
            };
            if resend.fire(now_ns, policy) {
                out.push(Action::Send {
                    to: Target::All,
                    msg: ProtocolMsg::Propose {
                        view,
                        slot,
                        batch: batch.clone(),
                    },
                });
            }
            true
        });
    }

    /// Re-evaluates [`PaxosReplica::serving`], reporting a change. A
    /// leader that has heard from fewer than a majority within the
    /// suspicion window stops admitting requests but keeps its view: it
    /// starts no election, follows a higher view when it hears one, and
    /// serves again as soon as contact returns.
    fn update_serving(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        let serving = self.is_leader() && {
            let alive = self
                .config
                .peers(self.me)
                .filter(|p| self.detector.alive(*p, now_ns))
                .count();
            1 + alive >= self.config.majority()
        };
        if serving != self.serving {
            self.serving = serving;
            out.push(Action::ServingChanged { serving });
        }
    }

    fn on_init(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        self.detector.view_started(now_ns);
        // View 0 is prepared by convention: nothing can have been accepted
        // in an earlier view, so Phase 1 is vacuous.
        if self.is_leader() {
            self.role = ReplicaRole::Leading;
        }
        out.push(Action::LeaderChanged {
            view: self.view,
            leader: self.leader(),
        });
    }

    fn on_proposal(&mut self, batch: Batch, now_ns: u64, out: &mut Vec<Action>) {
        match self.role {
            ReplicaRole::Leading if self.window_open() => self.propose(batch, now_ns, out),
            ReplicaRole::Leading | ReplicaRole::Preparing => {
                if self.pending_proposals.len() < 2 * self.config.window() {
                    self.pending_proposals.push_back(batch);
                } else {
                    self.dropped_proposals += 1;
                }
            }
            ReplicaRole::Follower => {
                // Not our job to order this; the client will retransmit to
                // the real leader and the reply cache deduplicates.
                self.dropped_proposals += 1;
            }
        }
    }

    fn propose(&mut self, batch: Batch, now_ns: u64, out: &mut Vec<Action>) {
        let slot = self.next_slot;
        self.next_slot = slot.next();
        debug_assert!(
            !self.log.get(slot).is_some_and(|i| i.decided),
            "proposing into a decided slot"
        );
        self.send_propose(slot, batch, now_ns, out);
        self.try_decide(slot, now_ns, out);
    }

    /// Accepts `batch` into `slot` in this view, sends the Propose to
    /// every peer and schedules its resend until the slot decides.
    fn send_propose(&mut self, slot: Slot, batch: Batch, now_ns: u64, out: &mut Vec<Action>) {
        let view = self.view;
        let inst = self.log.entry(slot);
        inst.value = Some(batch.clone());
        inst.accepted_view = Some(view);
        inst.record_vote(self.me, view);
        self.my_inflight
            .insert(slot, Resend::first(now_ns, self.config.retransmit()));
        out.push(Action::Send {
            to: Target::All,
            msg: ProtocolMsg::Propose { view, slot, batch },
        });
    }

    fn on_suspect(&mut self, suspected: View, now_ns: u64, out: &mut Vec<Action>) {
        if suspected != self.view {
            return; // stale suspicion
        }
        let next = self.view.next();
        self.advance_view(next, out);
        if self.is_leader() {
            self.start_prepare(now_ns, out);
        } else {
            // Nudge the natural next leader in case its own detector is
            // slower than ours.
            out.push(Action::Send {
                to: Target::One(next.leader(self.config.n())),
                msg: ProtocolMsg::Suspect {
                    view: suspected,
                    from: self.me,
                },
            });
        }
    }

    /// Moves to `view` (strictly higher), resetting per-view state and
    /// dropping every pending resend.
    fn advance_view(&mut self, view: View, out: &mut Vec<Action>) {
        debug_assert!(view > self.view);
        self.view = view;
        self.role = ReplicaRole::Follower;
        self.my_inflight.clear();
        self.prepare_resend = None;
        self.promises.clear();
        out.push(Action::LeaderChanged {
            view,
            leader: self.leader(),
        });
    }

    fn start_prepare(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        debug_assert!(self.is_leader());
        self.role = ReplicaRole::Preparing;
        self.promises.clear();
        self.prepare_first_unstable = self.log.first_gap();
        self.prepare_resend = Some(Resend::first(now_ns, self.config.retransmit()));
        out.push(Action::Send {
            to: Target::All,
            msg: ProtocolMsg::Prepare {
                view: self.view,
                first_unstable: self.prepare_first_unstable,
            },
        });
        // A single-replica cluster has its majority already.
        if 1 + self.promises.len() >= self.config.majority() {
            self.finish_prepare(now_ns, out);
        }
    }

    fn finish_prepare(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        self.role = ReplicaRole::Leading;
        self.prepare_resend = None;
        let fu = self.prepare_first_unstable;

        // Slots the quorum reports decided are final, but a peer that has
        // compacted them holds neither value nor vote, so its promise is
        // silent about them. Below the reported decided frontier that
        // silence must NOT be read as "nothing was accepted": refilling
        // such a hole with a no-op would overwrite decided history.
        // Known values are still re-proposed anywhere; unknown slots
        // below the frontier are left to catch-up (snapshot transfer
        // once compacted).
        let decided_elsewhere = self
            .peer_decided_upto
            .iter()
            .copied()
            .max()
            .unwrap_or(Slot::ZERO);

        // Choose, per slot, the value accepted in the highest view among
        // the quorum's reports and our own log.
        let mut best: HashMap<u64, (View, Batch)> = HashMap::new();
        for (slot, view, batch) in self.log.accepted_from(fu) {
            best.insert(slot.0, (view, batch));
        }
        for entries in self.promises.values() {
            for e in entries {
                if e.slot < fu {
                    continue;
                }
                match best.get(&e.slot.0) {
                    Some((v, _)) if *v >= e.view => {}
                    _ => {
                        best.insert(e.slot.0, (e.view, e.batch.clone()));
                    }
                }
            }
        }
        let refill_from = fu.max(decided_elsewhere);
        let max_slot = best.keys().max().copied().map(Slot);
        let stop = max_slot.map_or(fu, |m| m.next()).max(refill_from);
        self.next_slot = stop;
        // Below the frontier, re-propose only slots whose value is known
        // (a hole there is a compacted decided slot, not a free slot);
        // from the frontier up, re-propose every unstable slot with
        // holes becoming no-ops so the log stays gap-free and later
        // decisions can execute.
        let mut salvage: Vec<u64> = best
            .keys()
            .copied()
            .filter(|s| fu.0 <= *s && *s < refill_from.0)
            .collect();
        salvage.sort_unstable();
        let unstable = salvage.into_iter().chain(refill_from.0..stop.0).map(Slot);
        for slot in unstable {
            if self.log.get(slot).is_some_and(|i| i.decided) {
                continue;
            }
            let batch = best
                .get(&slot.0)
                .map(|(_, b)| b.clone())
                .unwrap_or_else(Batch::empty);
            self.send_propose(slot, batch, now_ns, out);
            self.try_decide(slot, now_ns, out);
        }
        self.drain_pending(now_ns, out);
    }

    fn drain_pending(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        while self.window_open() {
            match self.pending_proposals.pop_front() {
                Some(batch) => self.propose(batch, now_ns, out),
                None => break,
            }
        }
    }

    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: ProtocolMsg,
        now_ns: u64,
        out: &mut Vec<Action>,
    ) {
        if !self.config.contains(from) {
            return;
        }
        self.detector.note_recv(from, now_ns);
        match msg {
            ProtocolMsg::Prepare {
                view,
                first_unstable,
            } => self.on_prepare(from, view, first_unstable, out),
            ProtocolMsg::Promise {
                view,
                decided_upto,
                accepted,
            } => self.on_promise(from, view, decided_upto, accepted, now_ns, out),
            ProtocolMsg::Propose { view, slot, batch } => {
                self.on_propose_msg(from, view, slot, batch, now_ns, out)
            }
            ProtocolMsg::Accept { view, slot } => self.on_accept(from, view, slot, now_ns, out),
            ProtocolMsg::CatchupQuery { from: lo, to } => self.on_catchup_query(from, lo, to, out),
            ProtocolMsg::CatchupReply {
                decided_upto,
                entries,
            } => self.on_catchup_reply(from, decided_upto, entries, now_ns, out),
            ProtocolMsg::Heartbeat { view, decided_upto } => {
                self.on_heartbeat(from, view, decided_upto, now_ns, out)
            }
            ProtocolMsg::Snapshot {
                applied_upto,
                state_hash,
                state,
            } => self.on_snapshot_msg(from, applied_upto, state_hash, state, now_ns, out),
            ProtocolMsg::Suspect {
                view,
                from: reporter,
            } => {
                // A peer suspects `view`'s leader and we are next in line.
                if view == self.view
                    && reporter != self.me
                    && self.view.next().leader(self.config.n()) == self.me
                {
                    self.on_suspect(view, now_ns, out);
                }
            }
        }
    }

    fn on_prepare(
        &mut self,
        from: ReplicaId,
        view: View,
        first_unstable: Slot,
        out: &mut Vec<Action>,
    ) {
        if view < self.view || view.leader(self.config.n()) != from {
            return;
        }
        if view > self.view {
            self.advance_view(view, out);
        }
        // (view == self.view case: duplicate Prepare → idempotent re-promise.)
        let accepted = self
            .log
            .accepted_from(first_unstable)
            .into_iter()
            .map(|(slot, view, batch)| AcceptedEntry { slot, view, batch })
            .collect();
        out.push(Action::Send {
            to: Target::One(from),
            msg: ProtocolMsg::Promise {
                view,
                decided_upto: self.log.first_gap(),
                accepted,
            },
        });
    }

    fn on_promise(
        &mut self,
        from: ReplicaId,
        view: View,
        decided_upto: Slot,
        accepted: Vec<AcceptedEntry>,
        now_ns: u64,
        out: &mut Vec<Action>,
    ) {
        self.note_peer_progress(from, decided_upto);
        if view != self.view || self.role != ReplicaRole::Preparing {
            return;
        }
        self.promises.entry(from).or_insert(accepted);
        if 1 + self.promises.len() >= self.config.majority() {
            self.finish_prepare(now_ns, out);
            self.maybe_catchup(None, now_ns, out);
        }
    }

    /// A follower accepts the leader's `batch` for `slot` (Phase 2b),
    /// counting its own vote and the leader's implicit one, and answers
    /// with an `Accept`.
    ///
    /// With a majority of two (n ≤ 3) those two votes already decide the
    /// slot here, so the `Accept` goes to the leader only: another
    /// follower either saw the Propose and decided on it, or it did not,
    /// and then one vote is below a majority and cannot decide the slot
    /// or start a catch-up. For n ≥ 4 a follower needs other followers'
    /// votes to decide, so the `Accept` goes to every peer.
    fn on_propose_msg(
        &mut self,
        from: ReplicaId,
        view: View,
        slot: Slot,
        batch: Batch,
        now_ns: u64,
        out: &mut Vec<Action>,
    ) {
        if view < self.view || view.leader(self.config.n()) != from {
            return;
        }
        if view > self.view {
            self.advance_view(view, out);
        }
        if slot < self.log.truncated_below() {
            // Long decided and garbage collected; tell the sender it can
            // stop retransmitting.
            out.push(Action::Send {
                to: Target::One(from),
                msg: ProtocolMsg::Accept { view, slot },
            });
            return;
        }
        let me = self.me;
        let inst = self.log.entry(slot);
        if inst.decided {
            debug_assert!(
                inst.value.as_ref() == Some(&batch),
                "paxos safety: decided value re-proposed differently"
            );
            out.push(Action::Send {
                to: Target::One(from),
                msg: ProtocolMsg::Accept { view, slot },
            });
            return;
        }
        // Accept: record our vote and the proposer's implicit vote.
        inst.value = Some(batch);
        inst.accepted_view = Some(view);
        inst.record_vote(me, view);
        inst.record_vote(from, view);
        let to = if self.config.majority() <= 2 {
            Target::One(from)
        } else {
            Target::All
        };
        out.push(Action::Send {
            to,
            msg: ProtocolMsg::Accept { view, slot },
        });
        self.try_decide(slot, now_ns, out);
        // A slot far beyond our decided frontier implies we missed traffic.
        if slot.0 > self.log.first_gap().0 + 2 * self.config.window() as u64 {
            self.maybe_catchup(Some(slot), now_ns, out);
        }
    }

    fn on_accept(
        &mut self,
        from: ReplicaId,
        view: View,
        slot: Slot,
        now_ns: u64,
        out: &mut Vec<Action>,
    ) {
        if view < self.view {
            return;
        }
        if view > self.view {
            // Someone accepted in a higher view; follow along.
            self.advance_view(view, out);
        }
        if slot < self.log.truncated_below() {
            return;
        }
        let majority = self.config.majority();
        let inst = self.log.entry(slot);
        inst.record_vote(from, view);
        let missing_value = inst.value.is_none() && inst.votes_in(view) >= majority;
        self.try_decide(slot, now_ns, out);
        if missing_value {
            // A majority accepted a proposal we never saw: fetch it.
            self.maybe_catchup(Some(slot.next()), now_ns, out);
        }
    }

    fn try_decide(&mut self, slot: Slot, now_ns: u64, out: &mut Vec<Action>) {
        let majority = self.config.majority();
        let decidable = self.log.get(slot).is_some_and(|i| i.decidable(majority));
        if !decidable {
            return;
        }
        self.log.mark_decided(slot);
        self.my_inflight.remove(&slot);
        for (slot, batch) in self.log.take_deliverable() {
            out.push(Action::Deliver { slot, batch });
        }
        self.compact();
        if self.role == ReplicaRole::Leading {
            self.drain_pending(now_ns, out);
        }
    }

    fn on_heartbeat(
        &mut self,
        from: ReplicaId,
        view: View,
        decided_upto: Slot,
        now_ns: u64,
        out: &mut Vec<Action>,
    ) {
        if view > self.view && view.leader(self.config.n()) == from {
            self.advance_view(view, out);
        }
        self.note_peer_progress(from, decided_upto);
        if decided_upto > self.log.first_gap() {
            self.maybe_catchup(None, now_ns, out);
        }
    }

    fn on_catchup_query(&mut self, from: ReplicaId, lo: Slot, to: Slot, out: &mut Vec<Action>) {
        // The straggler wants slots we have already compacted, and a
        // snapshot covers them: ship state instead of history. The runtime
        // materializes the blob; we still serve whatever retained tail we
        // have so the straggler converges in one round.
        if lo < self.log.truncated_below() && self.snapshot_watermark > lo {
            out.push(Action::SendSnapshot {
                to: Target::One(from),
            });
        }
        let to = Slot(to.0.min(lo.0.saturating_add(CATCHUP_CHUNK)));
        let entries = self.log.decided_range(lo, to, CATCHUP_CHUNK as usize);
        out.push(Action::Send {
            to: Target::One(from),
            msg: ProtocolMsg::CatchupReply {
                decided_upto: self.log.first_gap(),
                entries,
            },
        });
    }

    fn on_snapshot_msg(
        &mut self,
        from: ReplicaId,
        applied_upto: Slot,
        state_hash: u64,
        state: Vec<u8>,
        now_ns: u64,
        out: &mut Vec<Action>,
    ) {
        self.note_peer_progress(from, applied_upto);
        if applied_upto <= self.log.first_gap() {
            return; // stale: we already know everything it covers
        }
        self.catchup_inflight = None;
        self.snapshot_watermark = self.snapshot_watermark.max(applied_upto);
        self.log.fast_forward(applied_upto);
        self.next_slot = self.next_slot.max(applied_upto);
        out.push(Action::InstallSnapshot {
            snapshot: SnapshotBlob {
                applied_upto,
                state_hash,
                state,
            },
        });
        // Anything decided at or above the watermark delivers on top of
        // the restored state, then normal catch-up fetches the tail.
        for (slot, batch) in self.log.take_deliverable() {
            out.push(Action::Deliver { slot, batch });
        }
        self.compact();
        self.maybe_catchup(None, now_ns, out);
    }

    fn on_catchup_reply(
        &mut self,
        from: ReplicaId,
        decided_upto: Slot,
        entries: Vec<(Slot, Batch)>,
        now_ns: u64,
        out: &mut Vec<Action>,
    ) {
        self.catchup_inflight = None;
        self.note_peer_progress(from, decided_upto);
        for (slot, batch) in entries {
            if slot < self.log.truncated_below() {
                continue;
            }
            let inst = self.log.entry(slot);
            if inst.decided {
                continue;
            }
            inst.value = Some(batch);
            if inst.accepted_view.is_none() {
                inst.accepted_view = Some(View::ZERO);
            }
            self.log.mark_decided(slot);
        }
        for (slot, batch) in self.log.take_deliverable() {
            out.push(Action::Deliver { slot, batch });
        }
        if decided_upto > self.log.first_gap() {
            self.catchup_now(now_ns, out);
        }
    }

    fn note_peer_progress(&mut self, peer: ReplicaId, decided_upto: Slot) {
        let entry = &mut self.peer_decided_upto[peer.index()];
        *entry = (*entry).max(decided_upto);
    }

    /// Issues a catch-up query if we are behind and none is outstanding
    /// (or the outstanding one timed out).
    fn maybe_catchup(&mut self, hint: Option<Slot>, now_ns: u64, out: &mut Vec<Action>) {
        let known_best = self
            .peer_decided_upto
            .iter()
            .copied()
            .max()
            .unwrap_or(Slot::ZERO);
        let target = hint.map_or(known_best, |h| h.max(known_best));
        if target <= self.log.first_gap() {
            return;
        }
        if let Some((_, issued)) = self.catchup_inflight {
            if now_ns.saturating_sub(issued) < CATCHUP_TIMEOUT_NS {
                return;
            }
        }
        self.catchup_now(now_ns, out);
    }

    fn catchup_now(&mut self, now_ns: u64, out: &mut Vec<Action>) {
        let from = self.log.first_gap();
        let known_best = self
            .peer_decided_upto
            .iter()
            .copied()
            .max()
            .unwrap_or(Slot::ZERO);
        let to = Slot(known_best.0.max(from.0 + 1).min(from.0 + CATCHUP_CHUNK));
        // Ask the most advanced peer; ties go to the lowest id.
        let peer = self
            .config
            .peers(self.me)
            .max_by_key(|p| (self.peer_decided_upto[p.index()], std::cmp::Reverse(p.0)))
            .unwrap_or(self.leader());
        if peer == self.me {
            return;
        }
        self.catchup_inflight = Some((from, now_ns));
        out.push(Action::Send {
            to: Target::One(peer),
            msg: ProtocolMsg::CatchupQuery { from, to },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smr_types::{ClientId, RequestId, SeqNum};
    use smr_wire::Request;

    fn batch(tag: u64) -> Batch {
        Batch::new(vec![Request::new(
            RequestId::new(ClientId(tag), SeqNum(tag)),
            tag.to_le_bytes().to_vec(),
        )])
    }

    /// In-memory cluster that synchronously pumps every Send action.
    struct TestNet {
        replicas: Vec<PaxosReplica>,
        delivered: Vec<Vec<(Slot, Batch)>>,
        now: u64,
    }

    impl TestNet {
        fn new(n: usize) -> Self {
            let config = ClusterConfig::new(n);
            let mut replicas: Vec<PaxosReplica> = (0..n as u16)
                .map(|i| PaxosReplica::new(ReplicaId(i), config.clone()))
                .collect();
            let mut net = TestNet {
                replicas: Vec::new(),
                delivered: vec![Vec::new(); n],
                now: 0,
            };
            let mut inbox = Vec::new();
            for r in replicas.iter_mut() {
                let mut acts = Vec::new();
                r.handle(Event::Init, 0, &mut acts);
                inbox.push(acts);
            }
            net.replicas = replicas;
            for (i, acts) in inbox.into_iter().enumerate() {
                net.route(ReplicaId(i as u16), acts);
            }
            net
        }

        fn event(&mut self, to: ReplicaId, event: Event) {
            self.now += 1;
            let mut acts = Vec::new();
            self.replicas[to.index()].handle(event, self.now, &mut acts);
            self.route(to, acts);
        }

        fn route(&mut self, from: ReplicaId, actions: Vec<Action>) {
            let n = self.replicas.len();
            for action in actions {
                match action {
                    Action::Send { to, msg } => {
                        let targets: Vec<ReplicaId> = match to {
                            Target::All => (0..n as u16)
                                .map(ReplicaId)
                                .filter(|r| *r != from)
                                .collect(),
                            Target::One(r) => vec![r],
                        };
                        for t in targets {
                            self.event(
                                t,
                                Event::Message {
                                    from,
                                    msg: msg.clone(),
                                },
                            );
                        }
                    }
                    Action::Deliver { slot, batch } => {
                        self.delivered[from.index()].push((slot, batch));
                    }
                    _ => {}
                }
            }
        }

        fn leader(&self) -> ReplicaId {
            self.replicas[0].leader()
        }
    }

    #[test]
    fn three_replicas_order_and_deliver() {
        let mut net = TestNet::new(3);
        let leader = net.leader();
        assert_eq!(leader, ReplicaId(0));
        for i in 0..5 {
            net.event(leader, Event::Proposal(batch(i)));
        }
        for r in 0..3 {
            assert_eq!(
                net.delivered[r].len(),
                5,
                "replica {r} delivered everything"
            );
            for (i, (slot, b)) in net.delivered[r].iter().enumerate() {
                assert_eq!(slot.0, i as u64);
                assert_eq!(b, &batch(i as u64));
            }
        }
    }

    /// Hands a fresh Propose from the view-0 leader to replica 1 of an
    /// `n`-replica cluster; returns where its `Accept` goes and what it
    /// delivered.
    fn follower_accept(n: usize) -> (Target, Vec<Slot>) {
        let mut follower = PaxosReplica::new(ReplicaId(1), ClusterConfig::new(n));
        let mut out = Vec::new();
        follower.handle(Event::Init, 0, &mut out);
        out.clear();
        let propose = ProtocolMsg::Propose {
            view: View(0),
            slot: Slot(0),
            batch: batch(0),
        };
        follower.handle(
            Event::Message {
                from: ReplicaId(0),
                msg: propose,
            },
            1,
            &mut out,
        );
        let mut targets = out.iter().filter_map(|a| match a {
            Action::Send {
                to,
                msg: ProtocolMsg::Accept { .. },
            } => Some(*to),
            _ => None,
        });
        let target = targets.next().expect("the follower accepted");
        assert_eq!(targets.next(), None, "one Accept per Propose");
        let delivered = out
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        (target, delivered)
    }

    #[test]
    fn n3_follower_sends_its_accept_to_the_leader_only() {
        let (target, delivered) = follower_accept(3);
        assert_eq!(target, Target::One(ReplicaId(0)));
        // Its own vote and the leader's are a majority: decided already.
        assert_eq!(delivered, vec![Slot(0)]);
    }

    #[test]
    fn n5_follower_broadcasts_its_accept() {
        let (target, delivered) = follower_accept(5);
        assert_eq!(target, Target::All);
        // Two votes of five: it needs another follower's Accept.
        assert!(delivered.is_empty());
    }

    #[test]
    fn replicas_agree_pairwise() {
        let mut net = TestNet::new(5);
        for i in 0..10 {
            net.event(ReplicaId(0), Event::Proposal(batch(i)));
        }
        let reference = net.delivered[0].clone();
        assert_eq!(reference.len(), 10);
        for r in 1..5 {
            assert_eq!(net.delivered[r], reference);
        }
    }

    #[test]
    fn single_replica_decides_alone() {
        let mut net = TestNet::new(1);
        net.event(ReplicaId(0), Event::Proposal(batch(9)));
        assert_eq!(net.delivered[0], vec![(Slot(0), batch(9))]);
    }

    #[test]
    fn follower_drops_proposals() {
        let mut net = TestNet::new(3);
        net.event(ReplicaId(1), Event::Proposal(batch(1)));
        assert_eq!(net.replicas[1].dropped_proposals(), 1);
        assert!(net.delivered.iter().all(|d| d.is_empty()));
    }

    #[test]
    fn window_limits_inflight() {
        let config = ClusterConfig::builder(3).window(2).build().unwrap();
        let mut leader = PaxosReplica::new(ReplicaId(0), config);
        let mut out = Vec::new();
        leader.handle(Event::Init, 0, &mut out);
        for i in 0..5 {
            leader.handle(Event::Proposal(batch(i)), 0, &mut out);
        }
        // No accepts arrive, so only WND=2 proposals go out.
        assert_eq!(leader.in_flight(), 2);
        assert!(!leader.window_open());
        assert_eq!(leader.pending_proposals(), 3);
        let proposes = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: ProtocolMsg::Propose { .. },
                        to: Target::All
                    }
                )
            })
            .count();
        assert_eq!(proposes, 2);
    }

    #[test]
    fn view_change_elects_next_replica() {
        let mut net = TestNet::new(3);
        for i in 0..3 {
            net.event(ReplicaId(0), Event::Proposal(batch(i)));
        }
        // Replica 1 suspects the leader of view 0 and takes over.
        net.event(ReplicaId(1), Event::Suspect { view: View(0) });
        assert_eq!(net.replicas[1].view(), View(1));
        assert_eq!(net.replicas[1].role(), ReplicaRole::Leading);
        assert_eq!(net.replicas[2].view(), View(1));
        // The new leader keeps ordering.
        for i in 3..6 {
            net.event(ReplicaId(1), Event::Proposal(batch(i)));
        }
        for r in [1usize, 2] {
            let tags: Vec<u64> = net.delivered[r]
                .iter()
                .map(|(_, b)| b.requests[0].id.client.0)
                .collect();
            assert_eq!(
                tags,
                vec![0, 1, 2, 3, 4, 5],
                "replica {r} order preserved across views"
            );
        }
    }

    #[test]
    fn view_change_preserves_decided_values() {
        // Decide slots under leader 0, change view, verify leader 1
        // re-proposals do not overwrite them.
        let mut net = TestNet::new(3);
        for i in 0..4 {
            net.event(ReplicaId(0), Event::Proposal(batch(i)));
        }
        let before = net.delivered[2].clone();
        net.event(ReplicaId(2), Event::Suspect { view: View(0) });
        net.event(ReplicaId(1), Event::Suspect { view: View(0) });
        for i in 4..6 {
            net.event(ReplicaId(1), Event::Proposal(batch(i)));
        }
        assert_eq!(&net.delivered[2][..before.len()], &before[..]);
        for r in 1..3 {
            assert_eq!(net.delivered[r].len(), 6);
        }
    }

    #[test]
    fn suspect_message_triggers_next_leader() {
        let mut net = TestNet::new(3);
        // Replica 2 suspects; it is not next in line (1 is), so it sends a
        // Suspect message that makes replica 1 take over.
        net.event(ReplicaId(2), Event::Suspect { view: View(0) });
        assert_eq!(net.replicas[1].role(), ReplicaRole::Leading);
        assert_eq!(net.replicas[1].view(), View(1));
    }

    #[test]
    fn stale_suspicion_ignored() {
        let mut net = TestNet::new(3);
        net.event(ReplicaId(1), Event::Suspect { view: View(0) });
        let v = net.replicas[1].view();
        net.event(ReplicaId(1), Event::Suspect { view: View(0) });
        assert_eq!(
            net.replicas[1].view(),
            v,
            "second suspicion of view 0 is stale"
        );
    }

    #[test]
    fn heartbeat_triggers_catchup() {
        let config = ClusterConfig::new(3);
        let mut straggler = PaxosReplica::new(ReplicaId(2), config);
        let mut out = Vec::new();
        straggler.handle(Event::Init, 0, &mut out);
        out.clear();
        straggler.handle(
            Event::Message {
                from: ReplicaId(0),
                msg: ProtocolMsg::Heartbeat {
                    view: View(0),
                    decided_upto: Slot(10),
                },
            },
            1,
            &mut out,
        );
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: ProtocolMsg::CatchupQuery { .. },
                    ..
                }
            )),
            "straggler asks for missing slots: {out:?}"
        );
    }

    #[test]
    fn catchup_roundtrip_fills_gap() {
        let mut net = TestNet::new(3);
        for i in 0..4 {
            net.event(ReplicaId(0), Event::Proposal(batch(i)));
        }
        // Build a detached straggler that saw nothing.
        let mut straggler = PaxosReplica::new(ReplicaId(2), net.replicas[0].config().clone());
        let mut acts = Vec::new();
        straggler.handle(Event::Init, 0, &mut acts);
        acts.clear();
        straggler.handle(
            Event::Message {
                from: ReplicaId(0),
                msg: ProtocolMsg::Heartbeat {
                    view: View(0),
                    decided_upto: Slot(4),
                },
            },
            1,
            &mut acts,
        );
        let query = acts
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    to: Target::One(p),
                    msg: ProtocolMsg::CatchupQuery { from, to },
                } => Some((*p, *from, *to)),
                _ => None,
            })
            .expect("catch-up query issued");
        // Serve the query from replica 0's real log.
        let mut serve = Vec::new();
        net.replicas[0].handle(
            Event::Message {
                from: ReplicaId(2),
                msg: ProtocolMsg::CatchupQuery {
                    from: query.1,
                    to: query.2,
                },
            },
            2,
            &mut serve,
        );
        let reply = serve
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: m @ ProtocolMsg::CatchupReply { .. },
                    ..
                } => Some(m.clone()),
                _ => None,
            })
            .expect("catch-up reply produced");
        let mut final_acts = Vec::new();
        straggler.handle(
            Event::Message {
                from: query.0,
                msg: reply,
            },
            3,
            &mut final_acts,
        );
        let delivered: Vec<Slot> = final_acts
            .iter()
            .filter_map(|a| match a {
                Action::Deliver { slot, .. } => Some(*slot),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![Slot(0), Slot(1), Slot(2), Slot(3)]);
    }

    #[test]
    fn decide_cancels_retransmission() {
        let mut net = TestNet::new(3);
        net.event(ReplicaId(0), Event::Proposal(batch(0)));
        // Accepts came back at once and the slot decided.
        assert_eq!(net.replicas[0].in_flight(), 0);
        // Past every resend deadline, a tick resends nothing.
        let later = net.now + net.replicas[0].config().retransmit().max.as_nanos() as u64;
        let mut acts = Vec::new();
        net.replicas[0].handle(Event::Tick, later, &mut acts);
        assert!(
            !acts.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: ProtocolMsg::Propose { .. },
                    ..
                }
            )),
            "a decided slot is not resent: {acts:?}"
        );
    }

    #[test]
    fn duplicate_propose_is_idempotent() {
        let mut net = TestNet::new(3);
        net.event(ReplicaId(0), Event::Proposal(batch(0)));
        let delivered_before = net.delivered[1].len();
        // Re-deliver the same Propose (retransmission after decide).
        net.event(
            ReplicaId(1),
            Event::Message {
                from: ReplicaId(0),
                msg: ProtocolMsg::Propose {
                    view: View(0),
                    slot: Slot(0),
                    batch: batch(0),
                },
            },
        );
        assert_eq!(
            net.delivered[1].len(),
            delivered_before,
            "no double delivery"
        );
    }

    #[test]
    fn old_view_messages_ignored() {
        let mut net = TestNet::new(3);
        net.event(ReplicaId(1), Event::Suspect { view: View(0) });
        assert_eq!(net.replicas[2].view(), View(1));
        // A stale propose from deposed leader 0 in view 0.
        let before = net.delivered[2].len();
        net.event(
            ReplicaId(2),
            Event::Message {
                from: ReplicaId(0),
                msg: ProtocolMsg::Propose {
                    view: View(0),
                    slot: Slot(99),
                    batch: batch(9),
                },
            },
        );
        assert_eq!(net.delivered[2].len(), before);
        assert!(net.replicas[2].log().get(Slot(99)).is_none());
    }

    #[test]
    fn non_leader_prepare_rejected() {
        let mut net = TestNet::new(3);
        // Replica 2 claims a Prepare for view 1, but view 1 is led by 1.
        net.event(
            ReplicaId(0),
            Event::Message {
                from: ReplicaId(2),
                msg: ProtocolMsg::Prepare {
                    view: View(1),
                    first_unstable: Slot(0),
                },
            },
        );
        assert_eq!(net.replicas[0].view(), View(0), "bogus prepare ignored");
    }

    #[test]
    fn snapshot_driven_holds_history_until_watermark() {
        let mut net = TestNet::new(3);
        net.replicas[0].set_compaction(CompactionPolicy::SnapshotDriven);
        for i in 0..6 {
            net.event(ReplicaId(0), Event::Proposal(batch(i)));
        }
        // No snapshot yet: nothing may be compacted.
        assert_eq!(net.replicas[0].log().truncated_below(), Slot(0));
        net.replicas[0].note_snapshot(Slot(4));
        assert_eq!(net.replicas[0].log().truncated_below(), Slot(4));
        assert_eq!(net.replicas[0].snapshot_watermark(), Slot(4));
        // Stale watermark never regresses.
        net.replicas[0].note_snapshot(Slot(2));
        assert_eq!(net.replicas[0].snapshot_watermark(), Slot(4));
    }

    #[test]
    fn note_snapshot_fast_forwards_fresh_log() {
        // Recovery: the service restored to slot 10, the log is empty.
        let mut r = PaxosReplica::new(ReplicaId(0), ClusterConfig::new(3));
        r.set_compaction(CompactionPolicy::SnapshotDriven);
        let mut out = Vec::new();
        r.handle(Event::Init, 0, &mut out);
        r.note_snapshot(Slot(10));
        assert_eq!(r.decided_upto(), Slot(10));
        assert_eq!(r.log().delivered_upto(), Slot(10));
        assert_eq!(r.log().truncated_below(), Slot(10));
        // A recovered leader must not propose into covered slots.
        out.clear();
        r.handle(Event::Proposal(batch(1)), 1, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: ProtocolMsg::Propose { slot, .. },
                ..
            } if *slot >= Slot(10)
        )));
    }

    #[test]
    fn compacted_catchup_query_ships_snapshot() {
        let mut net = TestNet::new(3);
        net.replicas[0].set_compaction(CompactionPolicy::SnapshotDriven);
        for i in 0..6 {
            net.event(ReplicaId(0), Event::Proposal(batch(i)));
        }
        net.replicas[0].note_snapshot(Slot(4));
        // A straggler asks for slot 0, long compacted.
        let mut out = Vec::new();
        net.replicas[0].handle(
            Event::Message {
                from: ReplicaId(2),
                msg: ProtocolMsg::CatchupQuery {
                    from: Slot(0),
                    to: Slot(6),
                },
            },
            99,
            &mut out,
        );
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::SendSnapshot {
                    to: Target::One(ReplicaId(2))
                }
            )),
            "compacted range answered by snapshot: {out:?}"
        );
        // The retained tail still rides along in a CatchupReply.
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: ProtocolMsg::CatchupReply { .. },
                ..
            }
        )));
    }

    #[test]
    fn retained_catchup_query_does_not_ship_snapshot() {
        let mut net = TestNet::new(3);
        net.replicas[0].set_compaction(CompactionPolicy::SnapshotDriven);
        for i in 0..6 {
            net.event(ReplicaId(0), Event::Proposal(batch(i)));
        }
        net.replicas[0].note_snapshot(Slot(4));
        let mut out = Vec::new();
        net.replicas[0].handle(
            Event::Message {
                from: ReplicaId(2),
                msg: ProtocolMsg::CatchupQuery {
                    from: Slot(4),
                    to: Slot(6),
                },
            },
            99,
            &mut out,
        );
        assert!(
            !out.iter().any(|a| matches!(a, Action::SendSnapshot { .. })),
            "retained range served by replay alone: {out:?}"
        );
    }

    #[test]
    fn new_leader_never_noops_compacted_decided_slots() {
        // A laggard wins leadership after its peers decided AND
        // compacted the slots it missed. Their promises are silent about
        // the compacted range, but that silence must not be refilled
        // with no-ops — the range is decided history, recoverable only
        // by catch-up (snapshot transfer).
        let mut r = PaxosReplica::new(ReplicaId(2), ClusterConfig::new(3));
        let mut out = Vec::new();
        r.handle(Event::Init, 0, &mut out);
        out.clear();
        // Climb to view 2, which this replica leads, and start preparing.
        r.handle(Event::Suspect { view: View(0) }, 1, &mut out);
        out.clear();
        r.handle(Event::Suspect { view: View(1) }, 2, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: ProtocolMsg::Prepare { .. },
                ..
            }
        )));
        out.clear();
        // Peers decided up to slot 20 and compacted below 18: their
        // promises carry only the retained tail.
        let accepted: Vec<AcceptedEntry> = (18..20)
            .map(|s| AcceptedEntry {
                slot: Slot(s),
                view: View(0),
                batch: batch(s),
            })
            .collect();
        for peer in [0u16, 1] {
            r.handle(
                Event::Message {
                    from: ReplicaId(peer),
                    msg: ProtocolMsg::Promise {
                        view: View(2),
                        decided_upto: Slot(20),
                        accepted: accepted.clone(),
                    },
                },
                3,
                &mut out,
            );
        }
        let proposed: Vec<(Slot, bool)> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    msg: ProtocolMsg::Propose { slot, batch, .. },
                    ..
                } => Some((*slot, batch.requests.is_empty())),
                _ => None,
            })
            .collect();
        // The retained tail is re-proposed; nothing below the quorum's
        // decided frontier becomes a no-op.
        assert!(proposed.iter().any(|(s, _)| *s == Slot(18)), "{proposed:?}");
        assert!(
            proposed.iter().all(|(s, empty)| !empty || *s >= Slot(20)),
            "no-op refill below the decided frontier: {proposed:?}"
        );
        // The compacted gap is chased via catch-up instead.
        assert!(
            out.iter().any(|a| matches!(
                a,
                Action::Send {
                    msg: ProtocolMsg::CatchupQuery { .. },
                    ..
                }
            )),
            "gap recovered via catch-up: {out:?}"
        );
        // New client proposals land above the decided frontier, never in
        // slots the cluster already burned.
        out.clear();
        r.handle(Event::Proposal(batch(99)), 4, &mut out);
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Send {
                msg: ProtocolMsg::Propose { slot, .. },
                ..
            } if *slot >= Slot(20)
        )));
    }

    #[test]
    fn snapshot_message_installs_and_fast_forwards() {
        let mut r = PaxosReplica::new(ReplicaId(2), ClusterConfig::new(3));
        r.set_compaction(CompactionPolicy::SnapshotDriven);
        let mut out = Vec::new();
        r.handle(Event::Init, 0, &mut out);
        out.clear();
        r.handle(
            Event::Message {
                from: ReplicaId(0),
                msg: ProtocolMsg::Snapshot {
                    applied_upto: Slot(8),
                    state_hash: 77,
                    state: vec![1, 2, 3],
                },
            },
            1,
            &mut out,
        );
        let install = out
            .iter()
            .find_map(|a| match a {
                Action::InstallSnapshot { snapshot } => Some(snapshot.clone()),
                _ => None,
            })
            .expect("snapshot installed: {out:?}");
        assert_eq!(install.applied_upto, Slot(8));
        assert_eq!(install.state_hash, 77);
        assert_eq!(r.decided_upto(), Slot(8));
        assert_eq!(r.snapshot_watermark(), Slot(8));
        // A second, stale snapshot is ignored.
        out.clear();
        r.handle(
            Event::Message {
                from: ReplicaId(1),
                msg: ProtocolMsg::Snapshot {
                    applied_upto: Slot(4),
                    state_hash: 5,
                    state: vec![],
                },
            },
            2,
            &mut out,
        );
        assert!(out.is_empty(), "stale snapshot ignored: {out:?}");
        assert_eq!(r.decided_upto(), Slot(8));
    }

    #[test]
    fn init_reports_leader() {
        let mut r = PaxosReplica::new(ReplicaId(1), ClusterConfig::new(3));
        let mut out = Vec::new();
        r.handle(Event::Init, 0, &mut out);
        assert_eq!(
            out,
            vec![Action::LeaderChanged {
                view: View(0),
                leader: ReplicaId(0)
            }]
        );
        assert_eq!(r.role(), ReplicaRole::Follower);
    }
}
