//! Property-based safety tests: under arbitrary message delivery order,
//! duplication, loss, and leader churn, Paxos must never let two replicas
//! deliver different values for the same slot, and delivered sequences
//! must be prefix-consistent.

use proptest::prelude::*;

use smr_paxos::{Action, Event, PaxosReplica, Target};
use smr_types::{ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum, Slot};
use smr_wire::{Batch, ProtocolMsg, Request};

fn batch(tag: u64) -> Batch {
    Batch::new(vec![Request::new(
        RequestId::new(ClientId(tag), SeqNum(tag)),
        tag.to_le_bytes().to_vec(),
    )])
}

/// A chaotic scheduler: applies a script of operations to a cluster,
/// buffering messages in a pool delivered in arbitrary (script-chosen)
/// order, with duplication and loss.
struct Chaos {
    replicas: Vec<PaxosReplica>,
    /// (to, from, msg) triples awaiting delivery.
    pool: Vec<(ReplicaId, ReplicaId, ProtocolMsg)>,
    /// With three replicas, a copy of every follower→leader `Accept`
    /// addressed to the third replica, which the protocol never sends it
    /// (`None`: no copies are made).
    shadows: Option<Vec<(ReplicaId, ReplicaId, ProtocolMsg)>>,
    /// Shadow copies delivered so far.
    shadows_delivered: usize,
    delivered: Vec<Vec<(Slot, Batch)>>,
    now: u64,
    next_tag: u64,
}

impl Chaos {
    fn new(n: usize) -> Self {
        let config = ClusterConfig::builder(n).window(4).build().unwrap();
        let mut chaos = Chaos {
            replicas: (0..n as u16)
                .map(|i| PaxosReplica::new(ReplicaId(i), config.clone()))
                .collect(),
            pool: Vec::new(),
            shadows: None,
            shadows_delivered: 0,
            delivered: vec![Vec::new(); n],
            now: 0,
            next_tag: 0,
        };
        for i in 0..n {
            chaos.apply(ReplicaId(i as u16), Event::Init);
        }
        chaos
    }

    /// A three-replica cluster that also keeps shadow copies of the
    /// followers' `Accept`s (see [`Chaos::step_with_shadows`]).
    fn with_shadow_accepts() -> Self {
        let mut chaos = Chaos::new(3);
        chaos.shadows = Some(Vec::new());
        chaos
    }

    fn apply(&mut self, at: ReplicaId, event: Event) {
        let actions = self.handle(at, event);
        self.route(at, actions);
    }

    fn handle(&mut self, at: ReplicaId, event: Event) -> Vec<Action> {
        self.now += 1;
        let mut actions = Vec::new();
        self.replicas[at.index()].handle(event, self.now, &mut actions);
        actions
    }

    fn route(&mut self, at: ReplicaId, actions: Vec<Action>) {
        let n = self.replicas.len();
        for action in actions {
            match action {
                Action::Send { to, msg } => match to {
                    Target::All => {
                        for r in 0..n as u16 {
                            if ReplicaId(r) != at {
                                self.pool.push((ReplicaId(r), at, msg.clone()));
                            }
                        }
                    }
                    Target::One(r) => {
                        if let (Some(shadows), ProtocolMsg::Accept { .. }) =
                            (self.shadows.as_mut(), &msg)
                        {
                            let third = ReplicaId(3 - at.0 - r.0);
                            shadows.push((third, at, msg.clone()));
                        }
                        self.pool.push((r, at, msg));
                    }
                },
                Action::Deliver { slot, batch } => {
                    self.delivered[at.index()].push((slot, batch));
                }
                _ => {}
            }
        }
    }

    fn step(&mut self, op: u8, pick: usize) {
        let n = self.replicas.len();
        match op % 10 {
            // Deliver a pooled message (and remove it).
            0..=4 => {
                if self.pool.is_empty() {
                    return;
                }
                let idx = pick % self.pool.len();
                let (to, from, msg) = self.pool.swap_remove(idx);
                self.apply(to, Event::Message { from, msg });
            }
            // Deliver a duplicate (keep the original in the pool).
            5 => {
                if self.pool.is_empty() {
                    return;
                }
                let idx = pick % self.pool.len();
                let (to, from, msg) = self.pool[idx].clone();
                self.apply(to, Event::Message { from, msg });
            }
            // Drop a message.
            6 => {
                if self.pool.is_empty() {
                    return;
                }
                let idx = pick % self.pool.len();
                self.pool.swap_remove(idx);
            }
            // Propose at whichever replica currently thinks it leads.
            7 | 8 => {
                let tag = self.next_tag;
                self.next_tag += 1;
                let at = ReplicaId((pick % n) as u16);
                self.apply(at, Event::Proposal(batch(tag)));
            }
            // Suspect the current leader at a random replica.
            9 => {
                let at = ReplicaId((pick % n) as u16);
                let view = self.replicas[at.index()].view();
                self.apply(at, Event::Suspect { view });
            }
            _ => unreachable!(),
        }
    }

    /// Like [`Chaos::step`], but two more ops deliver a shadow `Accept`
    /// (removing it, or keeping it as a duplicate). Undelivered shadows
    /// are lost. A shadow may teach its receiver a view, nothing else:
    /// it must never decide a slot or start a catch-up there.
    fn step_with_shadows(&mut self, op: u8, pick: usize) {
        let shadows = self.shadows.as_mut().expect("shadow copies enabled");
        let op = op % 12;
        if op < 10 {
            return self.step(op, pick);
        }
        if shadows.is_empty() {
            return;
        }
        let idx = pick % shadows.len();
        let (to, from, msg) = if op == 10 {
            shadows.swap_remove(idx)
        } else {
            shadows[idx].clone()
        };
        let actions = self.handle(to, Event::Message { from, msg });
        for action in &actions {
            match action {
                Action::Deliver { slot, .. } => {
                    panic!("a shadow Accept from {from} decided {slot} at {to}")
                }
                Action::Send {
                    msg: msg @ ProtocolMsg::CatchupQuery { .. },
                    ..
                } => panic!("a shadow Accept from {from} made {to} send {msg:?}"),
                _ => {}
            }
        }
        self.shadows_delivered += 1;
        self.route(to, actions);
    }

    fn check_safety(&self) {
        // Pairwise prefix consistency of delivered sequences.
        for a in 0..self.delivered.len() {
            for b in (a + 1)..self.delivered.len() {
                let (da, db) = (&self.delivered[a], &self.delivered[b]);
                let common = da.len().min(db.len());
                assert_eq!(
                    &da[..common],
                    &db[..common],
                    "replicas {a} and {b} diverge within their common prefix"
                );
            }
        }
        // Delivered slots are consecutive from 0 at each replica.
        for (r, seq) in self.delivered.iter().enumerate() {
            for (i, (slot, _)) in seq.iter().enumerate() {
                assert_eq!(slot.0, i as u64, "replica {r} delivered slots out of order");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn chaotic_schedules_preserve_agreement_n3(
        script in proptest::collection::vec((any::<u8>(), any::<usize>()), 0..400)
    ) {
        let mut chaos = Chaos::new(3);
        for (op, pick) in script {
            chaos.step(op, pick);
        }
        chaos.check_safety();
    }

    #[test]
    fn chaotic_schedules_preserve_agreement_n5(
        script in proptest::collection::vec((any::<u8>(), any::<usize>()), 0..400)
    ) {
        let mut chaos = Chaos::new(5);
        for (op, pick) in script {
            chaos.step(op, pick);
        }
        chaos.check_safety();
    }

    #[test]
    fn another_followers_accept_is_inert_n3(
        script in proptest::collection::vec((any::<u8>(), any::<usize>()), 0..400)
    ) {
        let mut chaos = Chaos::with_shadow_accepts();
        for (op, pick) in script {
            chaos.step_with_shadows(op, pick);
        }
        chaos.check_safety();
    }

    #[test]
    fn draining_the_pool_reaches_agreement(
        script in proptest::collection::vec((any::<u8>(), any::<usize>()), 0..200)
    ) {
        // After arbitrary chaos (without drops), drain every message:
        // replicas that share the highest view must converge on a common
        // delivered prefix; all must stay consistent.
        let mut chaos = Chaos::new(3);
        for (op, pick) in script {
            let op = if op % 10 == 6 { 0 } else { op }; // no drops
            chaos.step(op, pick);
        }
        let mut budget = 100_000;
        while !chaos.pool.is_empty() && budget > 0 {
            chaos.step(0, 0);
            budget -= 1;
        }
        prop_assert!(budget > 0, "message pool drained");
        chaos.check_safety();
    }
}

/// A long deterministic pseudo-random script of `(op, pick)` steps.
fn seeded_script(seed: u64) -> impl Iterator<Item = (u8, usize)> {
    let mut state = seed;
    (0..20_000).map(move |_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u8, (state >> 17) as usize)
    })
}

#[test]
fn long_seeded_chaos_run() {
    // A long deterministic pseudo-random run as a cheap regression net.
    let mut chaos = Chaos::new(3);
    for (op, pick) in seeded_script(0x9E3779B97F4A7C15) {
        chaos.step(op, pick);
    }
    chaos.check_safety();
    assert!(
        chaos.delivered.iter().any(|d| !d.is_empty()),
        "chaos run should still make progress"
    );
}

#[test]
fn long_seeded_chaos_run_with_shadow_accepts() {
    let mut chaos = Chaos::with_shadow_accepts();
    for (op, pick) in seeded_script(0x2545F4914F6CDD1D) {
        chaos.step_with_shadows(op, pick);
    }
    chaos.check_safety();
    assert!(
        chaos.shadows_delivered > 100,
        "only {} shadow Accepts delivered",
        chaos.shadows_delivered
    );
    assert!(
        chaos.delivered.iter().any(|d| !d.is_empty()),
        "chaos run should still make progress"
    );
}
