//! Lock-free state shared between modules.
//!
//! The paper's no-lock rule (§V-C): cross-module coordination happens
//! through queues, or through shared variables only when they can be read
//! and written atomically without exposing inconsistent state. This
//! module collects exactly those variables:
//!
//! * the current view / leader / leadership flag, written by the Protocol
//!   thread, read by ClientIO (redirect hints) and tests;
//! * the serving flag and the step-down count, written by the Protocol
//!   thread, read by ClientIO: only a serving leader admits requests, and
//!   each step-down makes every ClientIO thread redirect all of its
//!   connections at once;
//! * the decided frontier, written by the Protocol thread;
//! * the client connection table, written by ClientIO threads, read by
//!   the ServiceManager to route replies (sharded like the reply cache),
//!   pruned when a connection closes, and cleared by a step-down so that
//!   only the serving leader replies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use smr_types::{ClientId, ReplicaId, Slot, View};

/// Atomically readable replica state.
#[derive(Debug)]
pub struct SharedState {
    view: AtomicU64,
    leader: AtomicU16,
    is_leader: AtomicBool,
    serving: AtomicBool,
    step_downs: AtomicU64,
    decided_upto: AtomicU64,
    start: Instant,
    client_table: Vec<Mutex<HashMap<u64, (usize, u64)>>>,
}

impl Default for SharedState {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedState {
    /// Creates the shared state of one replica.
    pub fn new() -> Self {
        SharedState {
            view: AtomicU64::new(0),
            leader: AtomicU16::new(0),
            is_leader: AtomicBool::new(false),
            serving: AtomicBool::new(false),
            step_downs: AtomicU64::new(0),
            decided_upto: AtomicU64::new(0),
            start: Instant::now(),
            client_table: (0..64).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Monotonic nanoseconds since this replica started.
    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Publishes a view change (Protocol thread only).
    pub fn set_view(&self, view: View, leader: ReplicaId, me: ReplicaId) {
        self.view.store(view.0, Ordering::Release);
        self.leader.store(leader.0, Ordering::Release);
        self.is_leader.store(leader == me, Ordering::Release);
    }

    /// Current view.
    pub fn view(&self) -> View {
        View(self.view.load(Ordering::Acquire))
    }

    /// Best-known leader.
    pub fn leader(&self) -> ReplicaId {
        ReplicaId(self.leader.load(Ordering::Acquire))
    }

    /// Whether this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.is_leader.load(Ordering::Acquire)
    }

    /// Publishes the decided frontier (Protocol thread only).
    pub fn set_decided_upto(&self, slot: Slot) {
        self.decided_upto.store(slot.0, Ordering::Release);
    }

    /// The decided frontier.
    pub fn decided_upto(&self) -> Slot {
        Slot(self.decided_upto.load(Ordering::Acquire))
    }

    /// Publishes whether this replica admits client requests (Protocol
    /// thread only). Losing it ends every client route — a replica that
    /// is not serving must not answer clients — and then bumps the
    /// step-down count, whose `Release` pairs with the `Acquire` in
    /// [`SharedState::step_downs`]: a ClientIO thread that sees the new
    /// count also sees `serving == false`.
    pub fn set_serving(&self, serving: bool) {
        self.serving.store(serving, Ordering::Release);
        if !serving {
            for shard in &self.client_table {
                shard.lock().clear();
            }
            self.step_downs.fetch_add(1, Ordering::Release);
        }
    }

    /// Whether this replica admits client requests: it leads and has
    /// heard from a quorum within the suspicion window.
    pub fn is_serving(&self) -> bool {
        self.serving.load(Ordering::Acquire)
    }

    /// How many times this replica has stopped serving. A ClientIO
    /// thread that sees the count change redirects every connection it
    /// owns.
    pub fn step_downs(&self) -> u64 {
        self.step_downs.load(Ordering::Acquire)
    }

    /// Records that `client` is served by ClientIO thread `cio` over
    /// connection `conn` (ClientIO threads).
    pub fn bind_client(&self, client: ClientId, cio: usize, conn: u64) {
        let shard = client.0 as usize % self.client_table.len();
        self.client_table[shard]
            .lock()
            .insert(client.0, (cio, conn));
    }

    /// Looks up the route to `client` (ServiceManager thread).
    pub fn client_route(&self, client: ClientId) -> Option<(usize, u64)> {
        let shard = client.0 as usize % self.client_table.len();
        self.client_table[shard].lock().get(&client.0).copied()
    }

    /// Forgets every route over connection `conn` of ClientIO thread
    /// `cio` (on disconnect). A client that has since been bound to
    /// another connection keeps that route. Closes are rare, so this
    /// scans every shard rather than indexing routes by connection.
    pub fn unbind_conn(&self, cio: usize, conn: u64) {
        for shard in &self.client_table {
            shard.lock().retain(|_, route| *route != (cio, conn));
        }
    }

    /// Number of client routes held (tests and diagnostics).
    pub fn client_routes(&self) -> usize {
        self.client_table.iter().map(|s| s.lock().len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_roundtrip() {
        let s = SharedState::new();
        s.set_view(View(4), ReplicaId(1), ReplicaId(1));
        assert_eq!(s.view(), View(4));
        assert_eq!(s.leader(), ReplicaId(1));
        assert!(s.is_leader());
        s.set_view(View(5), ReplicaId(2), ReplicaId(1));
        assert!(!s.is_leader());
    }

    #[test]
    fn stepping_down_clears_routes_and_counts() {
        let s = SharedState::new();
        s.set_serving(true);
        s.bind_client(ClientId(9), 2, 77);
        assert!(s.is_serving());
        assert_eq!(s.step_downs(), 0);
        s.set_serving(false);
        assert!(!s.is_serving());
        assert_eq!(s.step_downs(), 1);
        assert_eq!(
            s.client_route(ClientId(9)),
            None,
            "only a serving leader replies"
        );
    }

    #[test]
    fn client_routes() {
        let s = SharedState::new();
        assert_eq!(s.client_route(ClientId(9)), None);
        s.bind_client(ClientId(9), 2, 77);
        s.bind_client(ClientId(73), 2, 77);
        s.bind_client(ClientId(10), 2, 78);
        assert_eq!(s.client_route(ClientId(9)), Some((2, 77)));
        s.unbind_conn(2, 77);
        assert_eq!(s.client_route(ClientId(9)), None);
        assert_eq!(s.client_route(ClientId(73)), None);
        assert_eq!(s.client_route(ClientId(10)), Some((2, 78)));
        assert_eq!(s.client_routes(), 1);
    }

    #[test]
    fn unbinding_a_closed_conn_keeps_a_rebound_route() {
        let s = SharedState::new();
        s.bind_client(ClientId(9), 0, 5);
        // The client reconnected on another ClientIO thread before its
        // old connection was buried.
        s.bind_client(ClientId(9), 1, 6);
        s.unbind_conn(0, 5);
        assert_eq!(s.client_route(ClientId(9)), Some((1, 6)));
        // Same connection id on a different ClientIO thread is another
        // connection.
        s.unbind_conn(0, 6);
        assert_eq!(s.client_route(ClientId(9)), Some((1, 6)));
    }

    #[test]
    fn decided_upto_roundtrip() {
        let s = SharedState::new();
        s.set_decided_upto(Slot(42));
        assert_eq!(s.decided_upto(), Slot(42));
    }
}
