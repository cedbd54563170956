//! In-process transport with fault injection.
//!
//! A [`MemoryHub`] owns the full fabric of a simulated deployment: an
//! `n × n` matrix of bounded frame queues for replica links, plus
//! per-connection queue pairs for clients. Tests use the fault-injection
//! switches ([`MemoryHub::set_loss`], [`MemoryHub::partition`],
//! [`MemoryHub::isolate`]) to exercise retransmission, failure detection
//! and catch-up.
//!
//! A client connection also carries a readiness signal for the server's
//! readiness loop: on Linux, one eventfd per connection, exposed as
//! [`ClientConn::raw_fd`] of the server half and written by the client
//! half (see [`MemoryClientEndpoint`]). Each replica's listener has one
//! too, owned by the hub and written on every connect (see
//! [`MemoryClientListener`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mio::unix::EventFd;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use smr_queue::{BoundedQueue, PopError, PushError};
use smr_types::ReplicaId;

use crate::error::NetError;
use crate::traits::{ClientConn, ClientEndpoint, ClientListener, ReplicaNetwork};

/// Capacity of each directed replica link, in frames. Roughly models the
/// socket buffer: when full, senders block (TCP backpressure analogue).
const LINK_CAPACITY: usize = 4096;

/// Capacity of each client connection direction, in frames.
const CLIENT_CAPACITY: usize = 64;

struct Fault {
    /// Probability in \[0, 1\] that a replica-link frame is dropped, as
    /// the bits of an `f64`: every replica frame reads it, so it is an
    /// atomic rather than a lock the senders would contend on.
    loss: AtomicU64,
    /// `blocked[a][b]` — frames from a to b are silently dropped.
    blocked: Vec<Vec<AtomicBool>>,
    rng: Mutex<SmallRng>,
}

struct HubInner {
    n: usize,
    /// `links[from][to]`: directed frame queues between replicas.
    links: Vec<Vec<BoundedQueue<Vec<u8>>>>,
    /// Pending client connections per replica.
    pending_conns: Vec<BoundedQueue<MemoryServerConn>>,
    /// Per replica: written after every push to (and close of) its
    /// `pending_conns`; `None` where no eventfd could be made. Owned
    /// here, so a restarted replica's listener reuses it.
    accept_signals: Vec<Option<EventFd>>,
    fault: Fault,
    next_conn_id: AtomicU64,
    shutdown: AtomicBool,
}

/// The in-memory fabric of one simulated deployment.
///
/// # Examples
///
/// ```
/// use smr_net::memory::MemoryHub;
/// use smr_net::ReplicaNetwork;
/// use smr_types::ReplicaId;
///
/// let hub = MemoryHub::new(3, 42);
/// let net0 = hub.replica_network(ReplicaId(0));
/// let net1 = hub.replica_network(ReplicaId(1));
/// net0.send_to(ReplicaId(1), b"hello".to_vec())?;
/// assert_eq!(net1.recv_from(ReplicaId(0))?, b"hello");
/// # Ok::<(), smr_net::NetError>(())
/// ```
#[derive(Clone)]
pub struct MemoryHub {
    inner: Arc<HubInner>,
}

impl std::fmt::Debug for MemoryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryHub")
            .field("n", &self.inner.n)
            .finish()
    }
}

impl MemoryHub {
    /// Creates a fabric for `n` replicas; `seed` drives loss injection.
    pub fn new(n: usize, seed: u64) -> Self {
        let links = (0..n)
            .map(|from| {
                (0..n)
                    .map(|to| BoundedQueue::new(format!("link-{from}-{to}"), LINK_CAPACITY))
                    .collect()
            })
            .collect();
        let pending_conns = (0..n)
            .map(|r| BoundedQueue::new(format!("accept-{r}"), 1024))
            .collect();
        let blocked = (0..n)
            .map(|_| (0..n).map(|_| AtomicBool::new(false)).collect())
            .collect();
        MemoryHub {
            inner: Arc::new(HubInner {
                n,
                links,
                pending_conns,
                accept_signals: (0..n).map(|_| EventFd::new().ok()).collect(),
                fault: Fault {
                    loss: AtomicU64::new(0.0f64.to_bits()),
                    blocked,
                    rng: Mutex::new(SmallRng::seed_from_u64(seed)),
                },
                next_conn_id: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// Number of replicas.
    pub fn n(&self) -> usize {
        self.inner.n
    }

    /// The [`ReplicaNetwork`] endpoint of `replica`.
    ///
    /// Endpoints are detachable: shutting one down (what a [`Replica`]
    /// does when it stops) only detaches that endpoint — the hub's links
    /// stay open, so a fresh endpoint from this method reattaches the
    /// same replica id. That is what lets a test kill a replica and
    /// restart it in place to exercise crash recovery.
    ///
    /// [`Replica`]: https://docs.rs/smr-core
    pub fn replica_network(&self, replica: ReplicaId) -> MemoryReplicaNetwork {
        assert!(replica.index() < self.inner.n, "unknown replica {replica}");
        MemoryReplicaNetwork {
            hub: self.clone(),
            me: replica,
            detached: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The [`ClientListener`] of `replica`.
    pub fn client_listener(&self, replica: ReplicaId) -> MemoryClientListener {
        assert!(replica.index() < self.inner.n, "unknown replica {replica}");
        MemoryClientListener {
            hub: self.clone(),
            replica,
        }
    }

    /// Opens a client connection to `replica`, returning the client-side
    /// endpoint.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] after shutdown.
    pub fn connect_client(&self, replica: ReplicaId) -> Result<MemoryClientEndpoint, NetError> {
        if self.inner.shutdown.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let id = self.inner.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let c2s = BoundedQueue::new(format!("conn-{id}-c2s"), CLIENT_CAPACITY);
        let s2c = BoundedQueue::new(format!("conn-{id}-s2c"), CLIENT_CAPACITY);
        // No eventfd (another OS, or out of descriptors): the server scans
        // the connection instead.
        let signal = EventFd::new().ok().map(Arc::new);
        let server = MemoryServerConn {
            id,
            incoming: c2s.clone(),
            outgoing: s2c.clone(),
            signal: signal.clone(),
        };
        self.inner.pending_conns[replica.index()]
            .push(server)
            .map_err(|_| NetError::Closed)?;
        self.ring_listener(replica.index());
        Ok(MemoryClientEndpoint {
            outgoing: c2s,
            incoming: s2c,
            signal,
        })
    }

    /// Sets the probability that any replica-link frame is dropped.
    pub fn set_loss(&self, probability: f64) {
        let loss = probability.clamp(0.0, 1.0);
        self.inner
            .fault
            .loss
            .store(loss.to_bits(), Ordering::Relaxed);
    }

    /// Blocks (or unblocks) both directions between `a` and `b`.
    pub fn partition(&self, a: ReplicaId, b: ReplicaId, blocked: bool) {
        self.inner.fault.blocked[a.index()][b.index()].store(blocked, Ordering::Release);
        self.inner.fault.blocked[b.index()][a.index()].store(blocked, Ordering::Release);
    }

    /// Blocks (or unblocks) all links to and from `replica` — a crash
    /// from the network's point of view.
    pub fn isolate(&self, replica: ReplicaId, blocked: bool) {
        for other in 0..self.inner.n {
            if other != replica.index() {
                self.inner.fault.blocked[replica.index()][other].store(blocked, Ordering::Release);
                self.inner.fault.blocked[other][replica.index()].store(blocked, Ordering::Release);
            }
        }
    }

    /// Closes every link touching `replica` and its client accept queue —
    /// a permanent, replica-local shutdown (the rest of the fabric keeps
    /// working).
    pub fn close_replica(&self, replica: ReplicaId) {
        for other in 0..self.inner.n {
            self.inner.links[replica.index()][other].close();
            self.inner.links[other][replica.index()].close();
        }
        self.inner.pending_conns[replica.index()].close();
        self.ring_listener(replica.index());
    }

    /// Shuts the whole fabric down.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for row in &self.inner.links {
            for q in row {
                q.close();
            }
        }
        for (r, q) in self.inner.pending_conns.iter().enumerate() {
            q.close();
            self.ring_listener(r);
        }
    }

    /// Writes replica `r`'s listener eventfd, if it has one.
    fn ring_listener(&self, r: usize) {
        if let Some(signal) = &self.inner.accept_signals[r] {
            let _ = signal.notify();
        }
    }

    fn should_drop(&self, from: ReplicaId, to: ReplicaId) -> bool {
        if self.inner.fault.blocked[from.index()][to.index()].load(Ordering::Acquire) {
            return true;
        }
        let loss = f64::from_bits(self.inner.fault.loss.load(Ordering::Relaxed));
        loss > 0.0 && self.inner.fault.rng.lock().gen_bool(loss)
    }
}

/// One replica's endpoint into a [`MemoryHub`].
///
/// Cloning shares the detach flag: shutting down any clone detaches them
/// all. Get a fresh endpoint from [`MemoryHub::replica_network`] to
/// rejoin the fabric after a simulated crash.
#[derive(Clone)]
pub struct MemoryReplicaNetwork {
    hub: MemoryHub,
    me: ReplicaId,
    /// Set on shutdown: this endpoint stops sending and receiving, but
    /// the hub's links stay open for a successor endpoint.
    detached: Arc<AtomicBool>,
}

impl std::fmt::Debug for MemoryReplicaNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryReplicaNetwork")
            .field("me", &self.me)
            .finish()
    }
}

impl ReplicaNetwork for MemoryReplicaNetwork {
    fn send_to(&self, peer: ReplicaId, frame: Vec<u8>) -> Result<(), NetError> {
        if self.detached.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        if self.hub.should_drop(self.me, peer) {
            return Ok(()); // lost in transit, like UDP under a dead link
        }
        match self.hub.inner.links[self.me.index()][peer.index()].push(frame) {
            Ok(()) => Ok(()),
            Err(PushError::Closed(_)) | Err(PushError::Full(_)) => Err(NetError::Closed),
        }
    }

    fn recv_from(&self, peer: ReplicaId) -> Result<Vec<u8>, NetError> {
        // Poll so a detach (replica-local shutdown) unblocks the
        // receiver threads without closing the shared link queues.
        loop {
            if self.detached.load(Ordering::Acquire) {
                return Err(NetError::Closed);
            }
            match self.hub.inner.links[peer.index()][self.me.index()]
                .pop_timeout(Duration::from_millis(25))
            {
                Ok(frame) => return Ok(frame),
                Err(PopError::Empty) => continue,
                Err(PopError::Closed) => return Err(NetError::Closed),
            }
        }
    }

    fn shutdown(&self) {
        self.detached.store(true, Ordering::Release);
    }
}

/// Server side of an in-memory client connection.
#[derive(Debug)]
pub struct MemoryServerConn {
    id: u64,
    incoming: BoundedQueue<Vec<u8>>,
    outgoing: BoundedQueue<Vec<u8>>,
    /// Shared with the client half, which writes it; closed when both
    /// halves are gone.
    signal: Option<Arc<EventFd>>,
}

impl ClientConn for MemoryServerConn {
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        match self.incoming.try_pop() {
            Ok(frame) => Ok(Some(frame)),
            Err(PopError::Empty) => Ok(None),
            Err(PopError::Closed) => Err(NetError::Closed),
        }
    }

    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        self.outgoing.push(frame).map_err(|_| NetError::Closed)
    }

    fn id(&self) -> u64 {
        self.id
    }

    /// The connection's eventfd. Registered edge-triggered, it is
    /// readable after every write by the client half (see
    /// [`MemoryClientEndpoint`]); it is always writable, so writable
    /// interest on it carries no information.
    fn raw_fd(&self) -> Option<i32> {
        self.signal.as_deref().map(EventFd::as_raw_fd)
    }

    fn try_send(
        &mut self,
        frame: Vec<u8>,
        _max_buffered: usize,
    ) -> Result<Option<Vec<u8>>, NetError> {
        // The bounded queue is the outbound buffer: `Full` is the
        // slow-reader signal (a blocking `send` here would stall the
        // whole evented loop on one unread client).
        match self.outgoing.try_push(frame) {
            Ok(()) => Ok(None),
            Err(PushError::Full(frame)) => Ok(Some(frame)),
            Err(PushError::Closed(_)) => Err(NetError::Closed),
        }
    }
}

/// Dropping either half closes the connection: the other half drains
/// what was already queued and then reads [`NetError::Closed`], as a
/// socket peer reads EOF.
impl Drop for MemoryServerConn {
    fn drop(&mut self) {
        self.incoming.close();
        self.outgoing.close();
    }
}

/// Listener handing out the server halves of client connections.
///
/// Its [`ClientListener::raw_fd`] is the replica's eventfd, which the hub
/// writes after every [`MemoryHub::connect_client`] push and when it
/// closes the replica's accept queue. Registered edge-triggered, every
/// write is a new edge, so a reader that accepts until `None` after each
/// edge misses no connection.
#[derive(Debug)]
pub struct MemoryClientListener {
    hub: MemoryHub,
    replica: ReplicaId,
}

impl MemoryClientListener {
    fn pending(&self) -> &BoundedQueue<MemoryServerConn> {
        &self.hub.inner.pending_conns[self.replica.index()]
    }
}

/// A popped connection, or what an empty or closed accept queue means.
fn accepted(
    popped: Result<MemoryServerConn, PopError>,
) -> Result<Option<Box<dyn ClientConn>>, NetError> {
    match popped {
        Ok(conn) => Ok(Some(Box::new(conn))),
        Err(PopError::Empty) => Ok(None),
        Err(PopError::Closed) => Err(NetError::Closed),
    }
}

impl ClientListener for MemoryClientListener {
    fn accept_timeout(&self, timeout: Duration) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        accepted(self.pending().pop_timeout(timeout))
    }

    fn raw_fd(&self) -> Option<i32> {
        self.hub.inner.accept_signals[self.replica.index()]
            .as_ref()
            .map(EventFd::as_raw_fd)
    }

    fn try_accept(&self) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        accepted(self.pending().try_pop())
    }
}

/// Client side of an in-memory connection.
///
/// It writes the connection's eventfd (the server half's
/// [`ClientConn::raw_fd`]) whenever the server has something to do that
/// an edge-triggered reader would otherwise miss:
///
/// - (a) a `send` took the client → server queue from empty to
///   non-empty. The endpoint is that queue's only producer, so a length
///   of 1 after the push means the server has not claimed the frame; a
///   length above 1 means an older frame is still unclaimed, and a
///   server that drains until empty claims this one too before it
///   stops reading. A send onto a non-empty queue writes nothing.
/// - (b) a receive popped from a queue that was full a moment ago (its
///   length after the pop is at least capacity − 1). A server whose
///   `try_send` found the queue full is waiting to retry its backlog;
///   the first pop after that refusal sees that length, whatever the
///   server pushed in between.
/// - (c) the endpoint is dropped: both queues close first, so the read
///   the write triggers sees the hang-up.
#[derive(Debug)]
pub struct MemoryClientEndpoint {
    outgoing: BoundedQueue<Vec<u8>>,
    incoming: BoundedQueue<Vec<u8>>,
    signal: Option<Arc<EventFd>>,
}

impl MemoryClientEndpoint {
    /// Writes the connection's eventfd, if it has one.
    fn ring(&self) {
        if let Some(signal) = &self.signal {
            let _ = signal.notify();
        }
    }
}

impl ClientEndpoint for MemoryClientEndpoint {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        self.outgoing.push(frame).map_err(|_| NetError::Closed)?;
        if self.outgoing.len() == 1 {
            self.ring(); // (a)
        }
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        match self.incoming.pop_timeout(timeout) {
            Ok(frame) => {
                if self.incoming.len() + 1 >= self.incoming.capacity() {
                    self.ring(); // (b)
                }
                Ok(Some(frame))
            }
            Err(PopError::Empty) => Ok(None),
            Err(PopError::Closed) => Err(NetError::Closed),
        }
    }
}

impl Drop for MemoryClientEndpoint {
    fn drop(&mut self) {
        self.outgoing.close();
        self.incoming.close();
        self.ring(); // (c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_travel_between_replicas() {
        let hub = MemoryHub::new(3, 1);
        let n0 = hub.replica_network(ReplicaId(0));
        let n2 = hub.replica_network(ReplicaId(2));
        n0.send_to(ReplicaId(2), vec![1, 2, 3]).unwrap();
        assert_eq!(n2.recv_from(ReplicaId(0)).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn links_are_directed_and_fifo() {
        let hub = MemoryHub::new(2, 1);
        let n0 = hub.replica_network(ReplicaId(0));
        let n1 = hub.replica_network(ReplicaId(1));
        n0.send_to(ReplicaId(1), vec![1]).unwrap();
        n0.send_to(ReplicaId(1), vec![2]).unwrap();
        assert_eq!(n1.recv_from(ReplicaId(0)).unwrap(), vec![1]);
        assert_eq!(n1.recv_from(ReplicaId(0)).unwrap(), vec![2]);
    }

    #[test]
    fn partition_drops_frames() {
        let hub = MemoryHub::new(2, 1);
        let n0 = hub.replica_network(ReplicaId(0));
        hub.partition(ReplicaId(0), ReplicaId(1), true);
        n0.send_to(ReplicaId(1), vec![9]).unwrap();
        hub.partition(ReplicaId(0), ReplicaId(1), false);
        n0.send_to(ReplicaId(1), vec![10]).unwrap();
        let n1 = hub.replica_network(ReplicaId(1));
        assert_eq!(
            n1.recv_from(ReplicaId(0)).unwrap(),
            vec![10],
            "partitioned frame was lost"
        );
    }

    #[test]
    fn full_loss_drops_everything() {
        let hub = MemoryHub::new(2, 7);
        hub.set_loss(1.0);
        let n0 = hub.replica_network(ReplicaId(0));
        for _ in 0..10 {
            n0.send_to(ReplicaId(1), vec![0]).unwrap();
        }
        assert_eq!(hub.inner.links[0][1].len(), 0);
    }

    #[test]
    fn client_roundtrip() {
        let hub = MemoryHub::new(1, 1);
        let listener = hub.client_listener(ReplicaId(0));
        let mut client = hub.connect_client(ReplicaId(0)).unwrap();
        client.send(b"ping".to_vec()).unwrap();
        let mut server = listener
            .accept_timeout(Duration::from_secs(1))
            .unwrap()
            .expect("connection pending");
        assert_eq!(server.try_recv().unwrap().unwrap(), b"ping");
        server.send(b"pong".to_vec()).unwrap();
        assert_eq!(
            client
                .recv_timeout(Duration::from_secs(1))
                .unwrap()
                .unwrap(),
            b"pong"
        );
    }

    #[test]
    fn dropping_either_half_closes_the_connection() {
        let hub = MemoryHub::new(1, 1);
        let listener = hub.client_listener(ReplicaId(0));

        // Client half dropped: the server drains what was sent, then
        // both its receive and its send report Closed.
        let mut client = hub.connect_client(ReplicaId(0)).unwrap();
        client.send(b"last".to_vec()).unwrap();
        let mut server = listener
            .accept_timeout(Duration::from_secs(1))
            .unwrap()
            .expect("connection pending");
        drop(client);
        assert_eq!(server.try_recv().unwrap().unwrap(), b"last");
        assert_eq!(server.try_recv(), Err(NetError::Closed));
        assert_eq!(server.send(b"x".to_vec()), Err(NetError::Closed));
        assert_eq!(server.try_send(b"x".to_vec(), 1024), Err(NetError::Closed));

        // Server half dropped: the client's send and receive report
        // Closed.
        let mut client = hub.connect_client(ReplicaId(0)).unwrap();
        let server = listener
            .accept_timeout(Duration::from_secs(1))
            .unwrap()
            .expect("connection pending");
        drop(server);
        assert_eq!(client.send(b"x".to_vec()), Err(NetError::Closed));
        assert_eq!(
            client.recv_timeout(Duration::from_millis(10)),
            Err(NetError::Closed)
        );
    }

    #[test]
    fn accept_times_out_when_no_clients() {
        let hub = MemoryHub::new(1, 1);
        let listener = hub.client_listener(ReplicaId(0));
        assert!(listener
            .accept_timeout(Duration::from_millis(10))
            .unwrap()
            .is_none());
    }

    #[test]
    fn shutdown_unblocks_receivers() {
        let hub = MemoryHub::new(2, 1);
        let n1 = hub.replica_network(ReplicaId(1));
        let h = std::thread::spawn(move || n1.recv_from(ReplicaId(0)));
        std::thread::sleep(Duration::from_millis(20));
        hub.shutdown();
        assert_eq!(h.join().unwrap(), Err(NetError::Closed));
    }

    #[test]
    fn detached_endpoint_can_be_replaced() {
        let hub = MemoryHub::new(2, 1);
        let n0 = hub.replica_network(ReplicaId(0));
        let n1 = hub.replica_network(ReplicaId(1));
        n0.send_to(ReplicaId(1), vec![1]).unwrap();
        n1.shutdown();
        assert_eq!(n1.recv_from(ReplicaId(0)), Err(NetError::Closed));
        assert_eq!(n1.send_to(ReplicaId(0), vec![2]), Err(NetError::Closed));
        // A successor endpoint rejoins the fabric and still sees the
        // frame that was in flight when the old endpoint detached.
        let n1b = hub.replica_network(ReplicaId(1));
        assert_eq!(n1b.recv_from(ReplicaId(0)).unwrap(), vec![1]);
    }

    /// The connection's eventfd, registered edge-triggered on a fresh
    /// poller, as the ClientIO loop registers it.
    #[cfg(target_os = "linux")]
    mod eventfd_edges {
        use super::*;
        use mio::unix::SourceFd;
        use mio::{Events, Interest, Poll, Token};

        /// A connection and a poller watching its server half's eventfd.
        fn watched() -> (MemoryClientEndpoint, Box<dyn ClientConn>, Poll) {
            let hub = MemoryHub::new(1, 1);
            let listener = hub.client_listener(ReplicaId(0));
            let client = hub.connect_client(ReplicaId(0)).unwrap();
            let server = listener
                .accept_timeout(Duration::from_secs(1))
                .unwrap()
                .expect("connection pending");
            let fd = server
                .raw_fd()
                .expect("an in-memory connection has an eventfd");
            let poll = Poll::new().unwrap();
            poll.registry()
                .register(&mut SourceFd(&fd), Token(0), Interest::READABLE)
                .unwrap();
            (client, server, poll)
        }

        /// Whether a readable edge arrives within `wait`.
        fn edge(poll: &mut Poll, wait: Duration) -> bool {
            let mut events = Events::with_capacity(4);
            poll.poll(&mut events, Some(wait)).unwrap();
            let readable = events.iter().any(|e| e.is_readable());
            readable
        }

        #[test]
        fn send_onto_an_empty_queue_rings_and_onto_a_nonempty_one_does_not() {
            let (mut client, mut server, mut poll) = watched();
            assert!(
                !edge(&mut poll, Duration::from_millis(20)),
                "quiet at first"
            );
            client.send(b"a".to_vec()).unwrap();
            assert!(edge(&mut poll, Duration::from_secs(2)), "empty → non-empty");
            client.send(b"b".to_vec()).unwrap();
            assert!(
                !edge(&mut poll, Duration::from_millis(20)),
                "a send onto a non-empty queue writes nothing"
            );
            // Drained, the queue is empty again: the next send rings.
            assert_eq!(server.try_recv().unwrap().unwrap(), b"a");
            assert_eq!(server.try_recv().unwrap().unwrap(), b"b");
            assert_eq!(server.try_recv().unwrap(), None);
            client.send(b"c".to_vec()).unwrap();
            assert!(edge(&mut poll, Duration::from_secs(2)), "empty again");
        }

        #[test]
        fn receive_from_a_full_queue_rings() {
            let (mut client, mut server, mut poll) = watched();
            for i in 0..CLIENT_CAPACITY {
                assert_eq!(server.try_send(vec![i as u8], 0).unwrap(), None);
            }
            assert!(server.try_send(vec![0], 0).unwrap().is_some(), "full");
            assert!(
                !edge(&mut poll, Duration::from_millis(20)),
                "server pushes are silent"
            );
            let wait = Duration::from_secs(1);
            assert_eq!(client.recv_timeout(wait).unwrap().unwrap(), vec![0]);
            assert!(
                edge(&mut poll, Duration::from_secs(2)),
                "room in a full queue"
            );
            assert_eq!(client.recv_timeout(wait).unwrap().unwrap(), vec![1]);
            assert!(
                !edge(&mut poll, Duration::from_millis(20)),
                "a receive from a queue with room writes nothing"
            );
        }

        /// The listener's eventfd: every connect is a new edge, whether
        /// or not the connections before it were accepted.
        #[test]
        fn every_connect_rings_the_listener() {
            let hub = MemoryHub::new(2, 1);
            let listener = hub.client_listener(ReplicaId(1));
            let fd = listener
                .raw_fd()
                .expect("an in-memory listener has an eventfd");
            let mut poll = Poll::new().unwrap();
            poll.registry()
                .register(&mut SourceFd(&fd), Token(0), Interest::READABLE)
                .unwrap();
            assert!(
                !edge(&mut poll, Duration::from_millis(20)),
                "quiet at first"
            );
            let _first = hub.connect_client(ReplicaId(1)).unwrap();
            assert!(edge(&mut poll, Duration::from_secs(2)), "first connect");
            let _second = hub.connect_client(ReplicaId(1)).unwrap();
            assert!(
                edge(&mut poll, Duration::from_secs(2)),
                "second connect, the first still pending"
            );
            let _elsewhere = hub.connect_client(ReplicaId(0)).unwrap();
            assert!(
                !edge(&mut poll, Duration::from_millis(20)),
                "another replica's connect"
            );
            assert!(listener.try_accept().unwrap().is_some());
            assert!(listener.try_accept().unwrap().is_some());
            assert!(listener.try_accept().unwrap().is_none());
            // A listener made later (a restarted replica) reuses the fd.
            assert_eq!(hub.client_listener(ReplicaId(1)).raw_fd(), Some(fd));
            hub.close_replica(ReplicaId(1));
            assert!(edge(&mut poll, Duration::from_secs(2)), "close");
            assert_eq!(listener.try_accept().err(), Some(NetError::Closed));
        }

        #[test]
        fn dropping_the_client_half_rings() {
            let (client, mut server, mut poll) = watched();
            drop(client);
            assert!(edge(&mut poll, Duration::from_secs(2)), "hang-up");
            assert_eq!(server.try_recv(), Err(NetError::Closed));
        }
    }

    #[test]
    fn isolate_blocks_both_directions() {
        let hub = MemoryHub::new(3, 1);
        hub.isolate(ReplicaId(1), true);
        let n0 = hub.replica_network(ReplicaId(0));
        n0.send_to(ReplicaId(1), vec![1]).unwrap();
        assert_eq!(hub.inner.links[0][1].len(), 0);
        // 0 <-> 2 unaffected.
        n0.send_to(ReplicaId(2), vec![2]).unwrap();
        assert_eq!(hub.inner.links[0][2].len(), 1);
    }
}
