//! Failure detection inside the protocol core (§V-C3).
//!
//! The core stamps, per peer, when it last heard from and last sent to
//! that peer, using the `now_ns` its caller passes to
//! [`crate::PaxosReplica::handle`]. On each [`crate::Event::Tick`] it
//! heartbeats idle links, a follower suspects a silent leader, and a
//! leader checks that it still hears from a quorum. Everything here is
//! pure arithmetic on caller-supplied timestamps, so deterministic tests
//! drive it like any other protocol input.

use smr_types::{ClusterConfig, ReplicaId};

use crate::events::{Action, Target};

/// A peer is suspected only after a silence this many times longer than
/// the longest inter-arrival gap recently seen from it (and never before
/// the configured `suspect_timeout`, the floor). A burst of slow gaps —
/// a loaded host, hypervisor steal — therefore raises the threshold
/// instead of starting an election.
const GAP_MULTIPLIER: u64 = 2;

/// Inter-arrival gaps remembered per peer. Under load a link carries a
/// frame every few milliseconds, so this is a fraction of a second of
/// history; on an idle link (heartbeats only) about a second.
const GAP_HISTORY: usize = 32;

/// What the detector knows about one peer.
#[derive(Debug, Clone, Default)]
struct PeerClock {
    /// When the last message from the peer was handled (0 = never).
    last_recv_ns: u64,
    /// When the core last emitted a message to the peer (0 = never).
    last_send_ns: u64,
    /// The most recent inter-arrival gaps, as a ring.
    gaps: [u64; GAP_HISTORY],
    next_gap: usize,
}

impl PeerClock {
    /// Records a message from the peer at `now_ns`. A gap longer than
    /// the threshold in force is an outage the detector would already
    /// have acted on, not jitter, so it is not remembered: a healed
    /// partition must not leave a long threshold behind.
    fn note_recv(&mut self, now_ns: u64, floor_ns: u64) {
        if self.last_recv_ns != 0 {
            let gap = now_ns.saturating_sub(self.last_recv_ns);
            if gap <= self.threshold_ns(floor_ns) {
                self.gaps[self.next_gap] = gap;
                self.next_gap = (self.next_gap + 1) % GAP_HISTORY;
            }
        }
        self.last_recv_ns = self.last_recv_ns.max(now_ns);
    }

    /// Records a message emitted to the peer at `now_ns`.
    fn note_send(&mut self, now_ns: u64) {
        self.last_send_ns = self.last_send_ns.max(now_ns);
    }

    /// How long the peer may stay silent before it is suspected:
    /// `max(floor, GAP_MULTIPLIER × longest recent gap)`.
    fn threshold_ns(&self, floor_ns: u64) -> u64 {
        let longest = self.gaps.iter().copied().max().unwrap_or(0);
        floor_ns.max(longest.saturating_mul(GAP_MULTIPLIER))
    }

    /// Whether the peer has been heard from within its threshold,
    /// counting silence from no earlier than `since_ns`.
    fn alive(&self, now_ns: u64, since_ns: u64, floor_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_recv_ns.max(since_ns)) <= self.threshold_ns(floor_ns)
    }

    /// Whether nothing was sent to the peer for at least `idle_ns`.
    fn send_idle(&self, now_ns: u64, idle_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_send_ns) >= idle_ns
    }
}

/// Per-replica failure-detector state owned by the protocol core.
#[derive(Debug, Clone)]
pub(crate) struct Detector {
    me: ReplicaId,
    /// Send a heartbeat on a link idle this long.
    heartbeat_ns: u64,
    /// The suspicion floor (`suspect_timeout`).
    floor_ns: u64,
    /// Indexed by replica id (own entry unused).
    peers: Vec<PeerClock>,
    /// When the current view began here: a peer's silence is never
    /// counted from before it, so a new view gets a full threshold.
    view_since_ns: u64,
}

impl Detector {
    pub(crate) fn new(me: ReplicaId, config: &ClusterConfig) -> Self {
        Detector {
            me,
            heartbeat_ns: config.heartbeat_interval().as_nanos() as u64,
            floor_ns: config.suspect_timeout().as_nanos() as u64,
            peers: vec![PeerClock::default(); config.n()],
            view_since_ns: 0,
        }
    }

    /// A message from `peer` was handled at `now_ns`.
    pub(crate) fn note_recv(&mut self, peer: ReplicaId, now_ns: u64) {
        self.peers[peer.index()].note_recv(now_ns, self.floor_ns);
    }

    /// Stamps the links every `Send` in `actions` goes out on.
    pub(crate) fn note_sends(&mut self, actions: &[Action], now_ns: u64) {
        for action in actions {
            match action {
                Action::Send {
                    to: Target::All, ..
                } => {
                    for (i, peer) in self.peers.iter_mut().enumerate() {
                        if i != self.me.index() {
                            peer.note_send(now_ns);
                        }
                    }
                }
                Action::Send {
                    to: Target::One(peer),
                    ..
                } => self.peers[peer.index()].note_send(now_ns),
                _ => {}
            }
        }
    }

    /// A new view began at `now_ns`.
    pub(crate) fn view_started(&mut self, now_ns: u64) {
        self.view_since_ns = now_ns;
    }

    /// Whether `peer` counts as alive at `now_ns`.
    pub(crate) fn alive(&self, peer: ReplicaId, now_ns: u64) -> bool {
        self.peers[peer.index()].alive(now_ns, self.view_since_ns, self.floor_ns)
    }

    /// Whether the link to `peer` has been idle for a heartbeat interval.
    pub(crate) fn heartbeat_due(&self, peer: ReplicaId, now_ns: u64) -> bool {
        self.peers[peer.index()].send_idle(now_ns, self.heartbeat_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;
    const FLOOR: u64 = 100 * MS;

    /// Feeds `count` arrivals spaced `gap` apart, starting after `at`;
    /// returns the time of the last one.
    fn feed(clock: &mut PeerClock, mut at: u64, gap: u64, count: usize) -> u64 {
        for _ in 0..count {
            at += gap;
            clock.note_recv(at, FLOOR);
        }
        at
    }

    #[test]
    fn threshold_rises_with_a_gap_burst_and_falls_back_to_the_floor() {
        let mut clock = PeerClock::default();
        let t = feed(&mut clock, 0, 5 * MS, 50);
        assert_eq!(clock.threshold_ns(FLOOR), FLOOR, "short gaps: the floor");
        // A burst of 60 ms gaps (a stalled sender): the threshold rises
        // past the floor, so a 110 ms silence is not yet suspicious.
        let t = feed(&mut clock, t, 60 * MS, 5);
        assert_eq!(clock.threshold_ns(FLOOR), 120 * MS);
        assert!(clock.alive(t + 110 * MS, 0, FLOOR));
        // Back to short gaps: once the burst has left the history the
        // threshold is the floor again.
        let t = feed(&mut clock, t, 5 * MS, GAP_HISTORY);
        assert_eq!(clock.threshold_ns(FLOOR), FLOOR);
        assert!(!clock.alive(t + 110 * MS, 0, FLOOR));
    }

    #[test]
    fn an_outage_longer_than_the_threshold_is_not_remembered() {
        let mut clock = PeerClock::default();
        let t = feed(&mut clock, 0, 5 * MS, 10);
        // A healed partition: 800 ms of silence, then traffic again.
        feed(&mut clock, t, 800 * MS, 1);
        assert_eq!(clock.threshold_ns(FLOOR), FLOOR);
    }

    #[test]
    fn silence_counts_from_the_later_of_last_receive_and_since() {
        let mut clock = PeerClock::default();
        clock.note_recv(10 * MS, FLOOR);
        assert!(clock.alive(110 * MS, 0, FLOOR));
        assert!(!clock.alive(111 * MS, 0, FLOOR));
        // A view that began at 50 ms grants a full threshold from there.
        assert!(clock.alive(150 * MS, 50 * MS, FLOOR));
    }

    #[test]
    fn send_idleness() {
        let mut clock = PeerClock::default();
        clock.note_send(10 * MS);
        assert!(!clock.send_idle(29 * MS, 20 * MS));
        assert!(clock.send_idle(30 * MS, 20 * MS));
    }
}
