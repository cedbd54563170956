//! Liveness-oriented scenario tests: the protocol keeps making progress
//! through cascaded view changes, log truncation, and long runs.

use smr_paxos::{Action, Event, PaxosReplica, ReplicaRole, Target};
use smr_types::{ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum, Slot, View};
use smr_wire::{Batch, ProtocolMsg, Request};

fn batch(tag: u64) -> Batch {
    Batch::new(vec![Request::new(
        RequestId::new(ClientId(tag), SeqNum(0)),
        vec![0u8; 16],
    )])
}

/// Synchronous lossless cluster pump (like the unit-test harness, but
/// reusable across scenario tests).
struct Net {
    replicas: Vec<PaxosReplica>,
    delivered: Vec<Vec<(Slot, Batch)>>,
    now: u64,
}

impl Net {
    fn new(n: usize, window: usize) -> Self {
        let config = ClusterConfig::builder(n).window(window).build().unwrap();
        let mut net = Net {
            replicas: (0..n as u16)
                .map(|i| PaxosReplica::new(ReplicaId(i), config.clone()))
                .collect(),
            delivered: vec![Vec::new(); n],
            now: 0,
        };
        for i in 0..n {
            net.event(ReplicaId(i as u16), Event::Init);
        }
        net
    }

    fn event(&mut self, at: ReplicaId, event: Event) {
        self.now += 1;
        let mut actions = Vec::new();
        self.replicas[at.index()].handle(event, self.now, &mut actions);
        let n = self.replicas.len();
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    let targets: Vec<ReplicaId> = match to {
                        Target::All => (0..n as u16).map(ReplicaId).filter(|r| *r != at).collect(),
                        Target::One(r) => vec![r],
                    };
                    for t in targets {
                        self.event(
                            t,
                            Event::Message {
                                from: at,
                                msg: msg.clone(),
                            },
                        );
                    }
                }
                Action::Deliver { slot, batch } => self.delivered[at.index()].push((slot, batch)),
                _ => {}
            }
        }
    }
}

#[test]
fn cascaded_view_changes_converge() {
    let mut net = Net::new(5, 10);
    let mut tag = 0;
    // Rotate leadership through every replica, ordering work in between.
    for round in 0..5u64 {
        let leader = net.replicas[0].leader();
        for _ in 0..4 {
            net.event(leader, Event::Proposal(batch(tag)));
            tag += 1;
        }
        // Everyone suspects; the next leader takes over.
        let view = View(round);
        for r in 0..5u16 {
            net.event(ReplicaId(r), Event::Suspect { view });
        }
    }
    let leader = net.replicas[0].leader();
    for _ in 0..4 {
        net.event(leader, Event::Proposal(batch(tag)));
        tag += 1;
    }
    // All replicas agree on a common prefix and delivered everything
    // that any replica delivered.
    let longest = net.delivered.iter().map(|d| d.len()).max().unwrap();
    assert!(
        longest >= tag as usize - 4,
        "nearly all proposals survived the churn"
    );
    for r in 1..5 {
        let common = net.delivered[0].len().min(net.delivered[r].len());
        assert_eq!(&net.delivered[0][..common], &net.delivered[r][..common]);
    }
}

#[test]
fn long_run_truncates_log() {
    let mut net = Net::new(3, 10);
    let mut core_retention_check = 0u64;
    for tag in 0..6_000u64 {
        net.event(ReplicaId(0), Event::Proposal(batch(tag)));
        core_retention_check = tag;
    }
    let _ = core_retention_check;
    // Retention default is 4096 slots: the log must not grow unboundedly.
    for r in 0..3 {
        assert!(
            net.replicas[r].log().len() <= 4_200,
            "replica {r} log GC'd: {} entries",
            net.replicas[r].log().len()
        );
        assert_eq!(net.delivered[r].len(), 6_000);
    }
    assert!(net.replicas[0].log().truncated_below() > Slot(1_000));
}

#[test]
fn deposed_leader_rejoins_as_follower() {
    let mut net = Net::new(3, 10);
    for tag in 0..3 {
        net.event(ReplicaId(0), Event::Proposal(batch(tag)));
    }
    net.event(ReplicaId(1), Event::Suspect { view: View(0) });
    assert_eq!(
        net.replicas[0].role(),
        ReplicaRole::Follower,
        "old leader stepped down"
    );
    assert_eq!(net.replicas[0].leader(), ReplicaId(1));
    // The old leader's stale proposal is rejected by peers and dropped.
    net.event(ReplicaId(0), Event::Proposal(batch(99)));
    assert!(net.replicas[0].dropped_proposals() > 0);
    // New leader orders on.
    for tag in 3..6 {
        net.event(ReplicaId(1), Event::Proposal(batch(tag)));
    }
    assert_eq!(net.delivered[0].len(), 6);
}

#[test]
fn window_reopens_after_decides() {
    let config = ClusterConfig::builder(3).window(3).build().unwrap();
    let mut leader = PaxosReplica::new(ReplicaId(0), config);
    let mut out = Vec::new();
    leader.handle(Event::Init, 0, &mut out);
    out.clear();
    for tag in 0..3 {
        leader.handle(Event::Proposal(batch(tag)), 0, &mut out);
    }
    assert!(!leader.window_open());
    // One accept decides slot 0 (majority = leader + 1).
    leader.handle(
        Event::Message {
            from: ReplicaId(1),
            msg: ProtocolMsg::Accept {
                view: View(0),
                slot: Slot(0),
            },
        },
        1,
        &mut out,
    );
    assert_eq!(leader.in_flight(), 2);
    assert!(leader.window_open(), "window reopened after the decide");
}

#[test]
fn heartbeats_advance_follower_knowledge() {
    let config = ClusterConfig::new(3);
    let mut follower = PaxosReplica::new(ReplicaId(1), config);
    let mut out = Vec::new();
    follower.handle(Event::Init, 0, &mut out);
    out.clear();
    follower.handle(
        Event::Message {
            from: ReplicaId(0),
            msg: ProtocolMsg::Heartbeat {
                view: View(0),
                decided_upto: Slot(0),
            },
        },
        1,
        &mut out,
    );
    assert!(
        out.iter().all(|a| !matches!(a, Action::Send { .. })),
        "nothing to catch up"
    );
}

const MS: u64 = 1_000_000;

/// A clocked cluster for failure-detection and retransmission scenarios:
/// every replica gets an [`Event::Tick`] each `tick` of virtual time
/// (half the default heartbeat interval, as in the runtime), messages are
/// delivered at once, one replica can be cut off from all of its peers,
/// and messages of one kind can be lost on every link.
struct Clocked {
    replicas: Vec<PaxosReplica>,
    now: u64,
    tick: u64,
    cut: Option<ReplicaId>,
    /// Messages for which this returns true are lost on every link.
    lose: fn(&ProtocolMsg) -> bool,
    /// Every message sent, lost or not: (time, sender, message).
    sent: Vec<(u64, ReplicaId, ProtocolMsg)>,
    /// `ServingChanged` actions seen, per replica, with their time.
    serving_changes: Vec<Vec<(u64, bool)>>,
}

impl Clocked {
    fn new(n: usize) -> Self {
        let config = ClusterConfig::new(n);
        let tick = config.heartbeat_interval().as_nanos() as u64 / 2;
        let mut net = Clocked {
            replicas: (0..n as u16)
                .map(|i| PaxosReplica::new(ReplicaId(i), config.clone()))
                .collect(),
            now: 0,
            tick,
            cut: None,
            lose: |_| false,
            sent: Vec::new(),
            serving_changes: vec![Vec::new(); n],
        };
        for i in 0..n as u16 {
            net.event(ReplicaId(i), Event::Init);
        }
        net
    }

    fn event(&mut self, at: ReplicaId, event: Event) {
        let mut actions = Vec::new();
        self.replicas[at.index()].handle(event, self.now, &mut actions);
        let n = self.replicas.len();
        for a in actions {
            match a {
                Action::Send { to, msg } => {
                    self.sent.push((self.now, at, msg.clone()));
                    let targets: Vec<ReplicaId> = match to {
                        Target::All => (0..n as u16).map(ReplicaId).filter(|r| *r != at).collect(),
                        Target::One(r) => vec![r],
                    };
                    for t in targets {
                        if self.cut != Some(at) && self.cut != Some(t) && !(self.lose)(&msg) {
                            self.event(
                                t,
                                Event::Message {
                                    from: at,
                                    msg: msg.clone(),
                                },
                            );
                        }
                    }
                }
                Action::ServingChanged { serving } => {
                    self.serving_changes[at.index()].push((self.now, serving));
                }
                _ => {}
            }
        }
    }

    /// Advances virtual time to `until`, ticking every replica on the way.
    fn run_until(&mut self, until: u64) {
        while self.now + self.tick <= until {
            self.now += self.tick;
            for r in 0..self.replicas.len() as u16 {
                self.event(ReplicaId(r), Event::Tick);
            }
        }
    }

    fn views(&self) -> Vec<View> {
        self.replicas.iter().map(|r| r.view()).collect()
    }

    /// Times at which `from` sent a message matching `kind` since `since`.
    fn sends(&self, from: ReplicaId, since: u64, kind: fn(&ProtocolMsg) -> bool) -> Vec<u64> {
        self.sent
            .iter()
            .filter(|(t, r, m)| *t >= since && *r == from && kind(m))
            .map(|(t, _, _)| *t)
            .collect()
    }

    /// The first tick at or after `t`.
    fn tick_at_or_after(&self, t: u64) -> u64 {
        t.div_ceil(self.tick) * self.tick
    }
}

fn is_propose(m: &ProtocolMsg) -> bool {
    matches!(m, ProtocolMsg::Propose { .. })
}

fn is_prepare(m: &ProtocolMsg) -> bool {
    matches!(m, ProtocolMsg::Prepare { .. })
}

/// The resend interval after `attempt` resends, in ns.
fn resend_interval(attempt: u32) -> u64 {
    ClusterConfig::new(3)
        .retransmit()
        .interval(attempt)
        .as_nanos() as u64
}

#[test]
fn idle_cluster_keeps_its_leader() {
    let mut net = Clocked::new(3);
    net.run_until(2_000 * MS);
    assert_eq!(net.views(), vec![View(0); 3], "heartbeats keep view 0");
    assert!(net.replicas[0].serving());
    assert_eq!(net.serving_changes[0], vec![(0, true)]);
}

#[test]
fn leader_without_quorum_stops_serving_without_changing_view() {
    let mut net = Clocked::new(3);
    let floor = ClusterConfig::new(3).suspect_timeout().as_nanos() as u64;
    net.run_until(200 * MS);
    net.cut = Some(ReplicaId(0));
    let cut_at = net.now;
    net.run_until(cut_at + floor + net.tick);
    let old = &net.replicas[0];
    assert!(!old.serving(), "no quorum contact: stop serving");
    assert_eq!(old.view(), View(0), "the cut-off leader keeps its view");
    assert_eq!(old.role(), ReplicaRole::Leading, "and starts no election");
    let (at, serving) = *net.serving_changes[0].last().unwrap();
    assert!(!serving && at > cut_at && at <= cut_at + floor + net.tick);
    // The survivors elected replica 1 in view 1, and it serves.
    assert_eq!(net.replicas[1].view(), View(1));
    assert_eq!(net.replicas[2].view(), View(1));
    assert!(net.replicas[1].serving());
    // Healing causes no second view change: the old leader follows
    // view 1 and stays out of service.
    net.cut = None;
    net.run_until(cut_at + 1_000 * MS);
    assert_eq!(net.views(), vec![View(1); 3]);
    assert_eq!(net.replicas[0].role(), ReplicaRole::Follower);
    assert!(!net.replicas[0].serving());
    assert!(net.replicas[1].serving());
}

#[test]
fn follower_suspects_a_silent_leader_within_the_floor() {
    let mut net = Clocked::new(3);
    let floor = ClusterConfig::new(3).suspect_timeout().as_nanos() as u64;
    net.run_until(200 * MS);
    net.cut = Some(ReplicaId(0));
    let cut_at = net.now;
    let mut suspected_at = None;
    while suspected_at.is_none() && net.now < cut_at + 2 * floor {
        net.run_until(net.now + net.tick);
        if net.replicas[1].view() > View(0) {
            suspected_at = Some(net.now);
        }
    }
    let at = suspected_at.expect("the follower suspected the leader");
    // The last heartbeat arrived at most one heartbeat interval before
    // the cut; suspicion comes one tick after the floor has passed.
    assert!(
        at - cut_at <= floor + net.tick,
        "suspected after {} ms",
        (at - cut_at) / MS
    );
    assert!(at - cut_at >= floor - 2 * net.tick, "suspected too early");
}

/// Feeds follower 1 heartbeats from leader 0 spaced `gap` apart for one
/// second, then silence; returns how long after the last heartbeat the
/// follower suspected the leader.
fn suspicion_delay_after_gaps(gap: u64) -> u64 {
    let config = ClusterConfig::new(3);
    let tick = config.heartbeat_interval().as_nanos() as u64 / 2;
    let mut follower = PaxosReplica::new(ReplicaId(1), config);
    let mut out = Vec::new();
    follower.handle(Event::Init, 0, &mut out);
    let mut now = 0;
    let mut last_heartbeat = 0;
    while now < 1_000 * MS || follower.view() == View(0) {
        now += tick;
        if now < 1_000 * MS && now - last_heartbeat >= gap {
            last_heartbeat = now;
            let msg = ProtocolMsg::Heartbeat {
                view: View(0),
                decided_upto: Slot(0),
            };
            follower.handle(
                Event::Message {
                    from: ReplicaId(0),
                    msg,
                },
                now,
                &mut out,
            );
        }
        follower.handle(Event::Tick, now, &mut out);
        assert!(now < 10_000 * MS, "never suspected");
    }
    now - last_heartbeat
}

#[test]
fn suspicion_threshold_rises_under_gap_bursts() {
    // Regular 20 ms gaps: suspicion right after the 100 ms floor.
    let regular = suspicion_delay_after_gaps(20 * MS);
    assert!((100 * MS..=110 * MS).contains(&regular), "{regular}");
    // A sender seen stalling 60 ms at a time earns a 2 x 60 ms threshold:
    // a 110 ms silence from it is not yet a failure.
    let bursty = suspicion_delay_after_gaps(60 * MS);
    assert!((120 * MS..=130 * MS).contains(&bursty), "{bursty}");
}

#[test]
fn lost_propose_is_resent_with_backoff() {
    let mut net = Clocked::new(3);
    net.run_until(200 * MS);
    net.lose = is_propose;
    let at = net.now;
    net.event(ReplicaId(0), Event::Proposal(batch(1)));
    net.run_until(at + 1_000 * MS);
    let sends = net.sends(ReplicaId(0), at, is_propose);
    assert_eq!(sends[0], at, "first send");
    let first = net.tick_at_or_after(at + resend_interval(0));
    assert_eq!(
        sends[1], first,
        "first resend on the first tick after interval(0)"
    );
    let second = net.tick_at_or_after(first + resend_interval(1));
    assert_eq!(sends[2], second, "second resend after interval(1)");
    assert_eq!(net.replicas[0].in_flight(), 1, "still undecided");
    assert_eq!(net.views(), vec![View(0); 3], "resends need no view change");
}

#[test]
fn resends_stop_once_the_slot_decides() {
    let mut net = Clocked::new(3);
    net.run_until(200 * MS);
    net.lose = is_propose;
    let at = net.now;
    net.event(ReplicaId(0), Event::Proposal(batch(1)));
    net.run_until(at + 150 * MS);
    assert_eq!(net.replicas[0].decided_upto(), Slot(0));
    // Heal: the next resend gets through and the slot decides.
    net.lose = |_| false;
    let healed = net.now;
    net.run_until(healed + 1_000 * MS);
    assert_eq!(
        net.replicas[0].decided_upto(),
        Slot(1),
        "decided by a resend"
    );
    assert_eq!(net.replicas[0].in_flight(), 0);
    let after = net.sends(ReplicaId(0), healed, is_propose);
    assert_eq!(
        after.len(),
        1,
        "one resend decided it, then none: {after:?}"
    );
    net.run_until(healed + 5_000 * MS);
    assert_eq!(net.sends(ReplicaId(0), healed, is_propose), after);
}

#[test]
fn lost_prepare_is_resent_while_preparing() {
    let mut net = Clocked::new(3);
    net.run_until(200 * MS);
    net.lose = is_prepare;
    let at = net.now;
    net.event(ReplicaId(1), Event::Suspect { view: View(0) });
    assert_eq!(net.replicas[1].role(), ReplicaRole::Preparing);
    net.run_until(at + 300 * MS);
    let sends = net.sends(ReplicaId(1), at, is_prepare);
    let first = net.tick_at_or_after(at + resend_interval(0));
    let second = net.tick_at_or_after(first + resend_interval(1));
    assert_eq!(sends, vec![at, first, second]);
    assert_eq!(net.replicas[1].role(), ReplicaRole::Preparing);
    // Heal: the next resend gathers the promises, and resends stop.
    net.lose = |_| false;
    let healed = net.now;
    net.run_until(healed + 2_000 * MS);
    assert_eq!(net.replicas[1].role(), ReplicaRole::Leading);
    assert_eq!(net.replicas[1].view(), View(1));
    assert_eq!(net.sends(ReplicaId(1), healed, is_prepare).len(), 1);
}

#[test]
fn view_change_drops_every_pending_resend() {
    let mut net = Clocked::new(3);
    net.run_until(200 * MS);
    net.lose = is_propose;
    let at = net.now;
    net.event(ReplicaId(0), Event::Proposal(batch(1)));
    net.event(ReplicaId(0), Event::Proposal(batch(2)));
    net.run_until(at + resend_interval(0));
    assert_eq!(net.replicas[0].in_flight(), 2);
    assert_eq!(
        net.sends(ReplicaId(0), at, is_propose).len(),
        4,
        "both slots sent and resent once"
    );
    // Replica 1 takes over; its Prepare reaches replica 0.
    let changed = net.now + 1;
    net.now = changed;
    net.event(ReplicaId(1), Event::Suspect { view: View(0) });
    assert_eq!(net.replicas[0].view(), View(1));
    assert_eq!(net.replicas[0].in_flight(), 0);
    net.run_until(changed + 5_000 * MS);
    assert!(
        net.sends(ReplicaId(0), changed, is_propose).is_empty(),
        "the deposed leader resends nothing"
    );
}
