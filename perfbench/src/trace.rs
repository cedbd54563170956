//! Decorators over the runtime's public seams, injected through
//! `ReplicaBuilder::with_*`: the replica network, the client listener and
//! its connections, the service, and the reply cache. They count work
//! where it crosses a seam and forward everything else untouched; the
//! program itself is not instrumented.
//!
//! Every decorator is present in every run, because the benchmark needs
//! two of them for its own checks (the service handle for state digests,
//! the network cut for failover over TCP). Counting is switched on only in
//! the traced run; untraced, each call pays one relaxed load.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smr_core::{CacheOutcome, ExecuteOutcome, ReplyCache, Service, ServiceState, SnapshotService};
use smr_net::{ClientConn, ClientListener, NetError, ReplicaNetwork};
use smr_types::{ReplicaId, RequestId, SnapshotError};

/// Wire tags of the protocol messages the network decorator classifies
/// (the first byte of every encoded `ProtocolMsg`).
const TAG_PREPARE: u8 = 1;
const TAG_PROPOSE: u8 = 3;
const TAG_HEARTBEAT: u8 = 7;
/// tag (1) + view (8) + slot (8): the Propose header before the batch.
const PROPOSE_HEADER: usize = 17;

/// A protocol event seen on the wire, for the failover timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireKind {
    /// A replica started a view change.
    Prepare,
    /// The first Propose of a view: the new leader is ordering.
    FirstPropose,
}

/// One protocol event seen on the wire.
#[derive(Debug, Clone, Copy)]
pub struct WireEvent {
    /// When the frame was handed to the network.
    pub at: Instant,
    /// What it was.
    pub kind: WireKind,
    /// The view it carried.
    pub view: u64,
}

/// Counters of one replica, written by its decorators.
#[derive(Debug)]
pub struct Tap {
    on: Arc<AtomicBool>,
    /// Peer frames sent.
    pub frames: AtomicU64,
    /// Peer bytes sent.
    pub bytes: AtomicU64,
    /// Nanoseconds spent inside `send_to`.
    pub send_wait_ns: AtomicU64,
    /// Heartbeat frames sent.
    pub heartbeats: AtomicU64,
    /// Propose frames sent.
    pub proposes: AtomicU64,
    /// Requests carried by those Propose frames.
    pub propose_requests: AtomicU64,
    /// Batch bytes carried by those Propose frames.
    pub propose_bytes: AtomicU64,
    /// Propose frames sent again for a (peer, view, slot) already sent.
    pub retransmits: AtomicU64,
    seen: Mutex<HashSet<(u16, u64, u64)>>,
    last_propose_view: AtomicU64,
    events: Mutex<Vec<WireEvent>>,
    /// `try_recv` calls on client connections.
    pub recv_polls: AtomicU64,
    /// Of those, calls that found nothing.
    pub recv_empty: AtomicU64,
    /// Frames written to clients.
    pub out_frames: AtomicU64,
    /// Bytes written to clients.
    pub out_bytes: AtomicU64,
    /// Service executions.
    pub exec_calls: AtomicU64,
    /// Nanoseconds inside the service.
    pub exec_ns: AtomicU64,
    /// Reply-cache lookups on the ClientIO path.
    pub lookups: AtomicU64,
    /// Of those, hits (a resent request answered from the cache).
    pub hits: AtomicU64,
    /// Nanoseconds inside those lookups.
    pub lookup_ns: AtomicU64,
    /// Service snapshots taken (durable replicas, every 1024 slots).
    pub snapshots: AtomicU64,
    /// Nanoseconds spent serializing them.
    pub snapshot_ns: AtomicU64,
}

fn add(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

impl Tap {
    /// A tap that counts while `on` is set.
    pub fn new(on: Arc<AtomicBool>) -> Arc<Self> {
        Arc::new(Tap {
            on,
            frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            send_wait_ns: AtomicU64::new(0),
            heartbeats: AtomicU64::new(0),
            proposes: AtomicU64::new(0),
            propose_requests: AtomicU64::new(0),
            propose_bytes: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            seen: Mutex::new(HashSet::new()),
            last_propose_view: AtomicU64::new(u64::MAX),
            events: Mutex::new(Vec::new()),
            recv_polls: AtomicU64::new(0),
            recv_empty: AtomicU64::new(0),
            out_frames: AtomicU64::new(0),
            out_bytes: AtomicU64::new(0),
            exec_calls: AtomicU64::new(0),
            exec_ns: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            lookup_ns: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            snapshot_ns: AtomicU64::new(0),
        })
    }

    fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Protocol events seen so far.
    pub fn events(&self) -> Vec<WireEvent> {
        self.events.lock().expect("tap lock poisoned").clone()
    }

    /// Reads the whole tap as named counter values.
    pub fn counts(&self) -> TapCounts {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        TapCounts {
            frames: g(&self.frames),
            bytes: g(&self.bytes),
            send_wait_ns: g(&self.send_wait_ns),
            heartbeats: g(&self.heartbeats),
            proposes: g(&self.proposes),
            propose_requests: g(&self.propose_requests),
            propose_bytes: g(&self.propose_bytes),
            retransmits: g(&self.retransmits),
            recv_polls: g(&self.recv_polls),
            recv_empty: g(&self.recv_empty),
            out_frames: g(&self.out_frames),
            out_bytes: g(&self.out_bytes),
            exec_calls: g(&self.exec_calls),
            exec_ns: g(&self.exec_ns),
            lookups: g(&self.lookups),
            hits: g(&self.hits),
            lookup_ns: g(&self.lookup_ns),
            snapshots: g(&self.snapshots),
            snapshot_ns: g(&self.snapshot_ns),
        }
    }

    /// Classifies one outbound peer frame by its header bytes.
    fn note_frame(&self, peer: ReplicaId, frame: &[u8]) {
        add(&self.frames, 1);
        add(&self.bytes, frame.len() as u64);
        let u64_at = |at: usize| {
            frame
                .get(at..at + 8)
                .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        };
        match frame.first() {
            Some(&TAG_HEARTBEAT) => add(&self.heartbeats, 1),
            Some(&TAG_PREPARE) => self.push_event(WireKind::Prepare, u64_at(1)),
            Some(&TAG_PROPOSE) => {
                let (view, slot) = (u64_at(1), u64_at(9));
                let requests = frame
                    .get(PROPOSE_HEADER..PROPOSE_HEADER + 4)
                    .map_or(0, |b| u32::from_le_bytes(b.try_into().expect("4 bytes")));
                add(&self.proposes, 1);
                add(&self.propose_requests, u64::from(requests));
                add(
                    &self.propose_bytes,
                    frame.len().saturating_sub(PROPOSE_HEADER) as u64,
                );
                let fresh = self
                    .seen
                    .lock()
                    .expect("tap lock poisoned")
                    .insert((peer.0, view, slot));
                if !fresh {
                    add(&self.retransmits, 1);
                }
                if self.last_propose_view.swap(view, Ordering::Relaxed) != view {
                    self.push_event(WireKind::FirstPropose, view);
                }
            }
            _ => {}
        }
    }

    fn push_event(&self, kind: WireKind, view: u64) {
        self.events
            .lock()
            .expect("tap lock poisoned")
            .push(WireEvent {
                at: Instant::now(),
                kind,
                view,
            });
    }
}

/// A point-in-time copy of a [`Tap`].
#[derive(Debug, Clone, Copy, Default)]
#[allow(missing_docs)]
pub struct TapCounts {
    pub frames: u64,
    pub bytes: u64,
    pub send_wait_ns: u64,
    pub heartbeats: u64,
    pub proposes: u64,
    pub propose_requests: u64,
    pub propose_bytes: u64,
    pub retransmits: u64,
    pub recv_polls: u64,
    pub recv_empty: u64,
    pub out_frames: u64,
    pub out_bytes: u64,
    pub exec_calls: u64,
    pub exec_ns: u64,
    pub lookups: u64,
    pub hits: u64,
    pub lookup_ns: u64,
    pub snapshots: u64,
    pub snapshot_ns: u64,
}

/// The replica network, counted per frame; `cut` drops every frame to
/// and from the replica (a network crash, for transports that have no
/// fault injection of their own).
pub struct TracedNet {
    inner: Arc<dyn ReplicaNetwork>,
    tap: Arc<Tap>,
    cut: Arc<AtomicBool>,
}

impl TracedNet {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ReplicaNetwork>, tap: Arc<Tap>, cut: Arc<AtomicBool>) -> Self {
        TracedNet { inner, tap, cut }
    }
}

impl ReplicaNetwork for TracedNet {
    fn send_to(&self, peer: ReplicaId, frame: Vec<u8>) -> Result<(), NetError> {
        if self.cut.load(Ordering::Relaxed) {
            return Ok(());
        }
        if !self.tap.on() {
            return self.inner.send_to(peer, frame);
        }
        self.tap.note_frame(peer, &frame);
        let t = Instant::now();
        let sent = self.inner.send_to(peer, frame);
        add(&self.tap.send_wait_ns, elapsed_ns(t));
        sent
    }

    fn recv_from(&self, peer: ReplicaId) -> Result<Vec<u8>, NetError> {
        loop {
            let frame = self.inner.recv_from(peer)?;
            if !self.cut.load(Ordering::Relaxed) {
                return Ok(frame);
            }
        }
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// The client listener; wraps every accepted connection.
pub struct TracedListener {
    inner: Box<dyn ClientListener>,
    tap: Arc<Tap>,
}

impl TracedListener {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ClientListener>, tap: Arc<Tap>) -> Self {
        TracedListener { inner, tap }
    }

    fn wrap(&self, conn: Option<Box<dyn ClientConn>>) -> Option<Box<dyn ClientConn>> {
        conn.map(|c| Box::new(TracedConn::new(c, Arc::clone(&self.tap))) as Box<dyn ClientConn>)
    }
}

impl ClientListener for TracedListener {
    fn accept_timeout(&self, timeout: Duration) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        self.inner.accept_timeout(timeout).map(|c| self.wrap(c))
    }

    fn raw_fd(&self) -> Option<i32> {
        self.inner.raw_fd()
    }

    fn try_accept(&self) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        self.inner.try_accept().map(|c| self.wrap(c))
    }
}

/// One client connection, counted per poll and per frame out. Forwards
/// every trait method, including the evented path's `raw_fd`, `try_send`,
/// `flush_out` and `has_backlog`.
pub struct TracedConn {
    inner: Box<dyn ClientConn>,
    tap: Arc<Tap>,
}

impl TracedConn {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn ClientConn>, tap: Arc<Tap>) -> Self {
        TracedConn { inner, tap }
    }

    fn note_out(&self, len: usize) {
        if self.tap.on() {
            add(&self.tap.out_frames, 1);
            add(&self.tap.out_bytes, len as u64);
        }
    }
}

impl ClientConn for TracedConn {
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        let got = self.inner.try_recv();
        if self.tap.on() {
            add(&self.tap.recv_polls, 1);
            if matches!(got, Ok(None)) {
                add(&self.tap.recv_empty, 1);
            }
        }
        got
    }

    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        let len = frame.len();
        self.inner.send(frame)?;
        self.note_out(len);
        Ok(())
    }

    fn id(&self) -> u64 {
        self.inner.id()
    }

    fn raw_fd(&self) -> Option<i32> {
        self.inner.raw_fd()
    }

    fn try_send(
        &mut self,
        frame: Vec<u8>,
        max_buffered: usize,
    ) -> Result<Option<Vec<u8>>, NetError> {
        let len = frame.len();
        let back = self.inner.try_send(frame, max_buffered)?;
        if back.is_none() {
            self.note_out(len);
        }
        Ok(back)
    }

    fn flush_out(&mut self) -> Result<bool, NetError> {
        self.inner.flush_out()
    }

    fn has_backlog(&self) -> bool {
        self.inner.has_backlog()
    }
}

/// The replicated service behind a lock the benchmark also holds, so it
/// can read the state digest of every replica after a run.
pub struct TracedService<S> {
    inner: Arc<Mutex<S>>,
    tap: Arc<Tap>,
}

/// Reads one replica's state digest.
pub type StateHash = Arc<dyn Fn() -> u64 + Send + Sync>;

impl<S: ServiceState + Send + 'static> TracedService<S> {
    /// Wraps `service`; the returned handle reads its digest.
    pub fn new(service: S, tap: Arc<Tap>) -> (Self, StateHash) {
        let inner = Arc::new(Mutex::new(service));
        let handle = Arc::clone(&inner);
        let hash: StateHash =
            Arc::new(move || handle.lock().expect("service lock poisoned").state_hash());
        (TracedService { inner, tap }, hash)
    }
}

impl<S: Service> Service for TracedService<S> {
    fn execute(&mut self, request: &[u8]) -> Vec<u8> {
        let mut s = self.inner.lock().expect("service lock poisoned");
        if !self.tap.on() {
            return s.execute(request);
        }
        let t = Instant::now();
        let reply = s.execute(request);
        add(&self.tap.exec_ns, elapsed_ns(t));
        add(&self.tap.exec_calls, 1);
        reply
    }
}

impl<S: ServiceState> ServiceState for TracedService<S> {
    fn state_hash(&self) -> u64 {
        self.inner
            .lock()
            .expect("service lock poisoned")
            .state_hash()
    }
}

impl<S: SnapshotService> SnapshotService for TracedService<S> {
    fn snapshot(&self) -> Vec<u8> {
        let t = Instant::now();
        let blob = self.inner.lock().expect("service lock poisoned").snapshot();
        if self.tap.on() {
            add(&self.tap.snapshot_ns, elapsed_ns(t));
            add(&self.tap.snapshots, 1);
        }
        blob
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.inner
            .lock()
            .expect("service lock poisoned")
            .restore(bytes)
    }
}

/// The reply cache, with its ClientIO-path lookups timed.
pub struct TracedCache<C> {
    inner: C,
    tap: Arc<Tap>,
}

impl<C> TracedCache<C> {
    /// Wraps `inner`.
    pub fn new(inner: C, tap: Arc<Tap>) -> Self {
        TracedCache { inner, tap }
    }
}

impl<C: ReplyCache> ReplyCache for TracedCache<C> {
    fn lookup(&self, id: RequestId) -> CacheOutcome {
        if !self.tap.on() {
            return self.inner.lookup(id);
        }
        let t = Instant::now();
        let out = self.inner.lookup(id);
        add(&self.tap.lookup_ns, elapsed_ns(t));
        add(&self.tap.lookups, 1);
        if matches!(out, CacheOutcome::Hit(_)) {
            add(&self.tap.hits, 1);
        }
        out
    }

    fn check_execute(&self, id: RequestId) -> ExecuteOutcome {
        self.inner.check_execute(id)
    }

    fn record(&self, id: RequestId, reply: Vec<u8>) {
        self.inner.record(id, reply);
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connection that records which methods reached it.
    #[derive(Default)]
    struct Probe {
        calls: Arc<Mutex<Vec<&'static str>>>,
    }

    impl ClientConn for Probe {
        fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
            self.calls.lock().unwrap().push("try_recv");
            Ok(None)
        }
        fn send(&mut self, _frame: Vec<u8>) -> Result<(), NetError> {
            self.calls.lock().unwrap().push("send");
            Ok(())
        }
        fn id(&self) -> u64 {
            41
        }
        fn raw_fd(&self) -> Option<i32> {
            self.calls.lock().unwrap().push("raw_fd");
            Some(7)
        }
        fn try_send(
            &mut self,
            frame: Vec<u8>,
            max_buffered: usize,
        ) -> Result<Option<Vec<u8>>, NetError> {
            self.calls.lock().unwrap().push("try_send");
            // Hand the frame back when the caller allows no buffering.
            Ok((max_buffered == 0).then_some(frame))
        }
        fn flush_out(&mut self) -> Result<bool, NetError> {
            self.calls.lock().unwrap().push("flush_out");
            Ok(false)
        }
        fn has_backlog(&self) -> bool {
            self.calls.lock().unwrap().push("has_backlog");
            true
        }
    }

    #[test]
    fn conn_decorator_forwards_the_evented_methods() {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let on = Arc::new(AtomicBool::new(true));
        let tap = Tap::new(on);
        let mut conn = TracedConn::new(
            Box::new(Probe {
                calls: Arc::clone(&calls),
            }),
            Arc::clone(&tap),
        );
        assert_eq!(conn.id(), 41);
        assert_eq!(conn.raw_fd(), Some(7));
        assert_eq!(conn.try_send(vec![1, 2, 3], 1024).unwrap(), None);
        assert_eq!(conn.try_send(vec![9], 0).unwrap(), Some(vec![9]));
        assert!(!conn.flush_out().unwrap());
        assert!(conn.has_backlog());
        assert_eq!(conn.try_recv().unwrap(), None);
        conn.send(vec![0; 5]).unwrap();
        assert_eq!(
            *calls.lock().unwrap(),
            [
                "raw_fd",
                "try_send",
                "try_send",
                "flush_out",
                "has_backlog",
                "try_recv",
                "send"
            ]
        );
        let c = tap.counts();
        // The handed-back frame was not written.
        assert_eq!((c.out_frames, c.out_bytes), (2, 8));
        assert_eq!((c.recv_polls, c.recv_empty), (1, 1));
    }

    #[test]
    fn evented_client_io_serves_through_the_traced_listener() {
        use smr_core::{EventedIoOptions, KvService, ReplicaBuilder, ShardedReplyCache, SmrClient};
        use smr_net::tcp::{TcpClientEndpoint, TcpClientListener};
        use smr_types::{ClientId, ClusterConfig};

        let hub = smr_net::memory::MemoryHub::new(1, 1);
        let tap = Tap::new(Arc::new(AtomicBool::new(true)));
        let listener = TcpClientListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let (service, hash) = TracedService::new(KvService::new(), Arc::clone(&tap));
        let replica = ReplicaBuilder::new(ReplicaId(0), ClusterConfig::new(1))
            .with_service(Box::new(service))
            .with_network(Arc::new(hub.replica_network(ReplicaId(0))))
            .with_client_listener(Box::new(TracedListener::new(
                Box::new(listener),
                Arc::clone(&tap),
            )))
            .with_reply_cache(Arc::new(TracedCache::new(
                ShardedReplyCache::new(4),
                Arc::clone(&tap),
            )))
            .with_evented_client_io(1, EventedIoOptions::default())
            .start()
            .unwrap();
        let mut client = SmrClient::new(
            ClientId(1),
            1,
            Box::new(move |_| TcpClientEndpoint::connect(addr).map(|ep| Box::new(ep) as _)),
        )
        .with_timeouts(Duration::from_millis(500), Duration::from_secs(20));
        for i in 0..20u8 {
            client.execute(&KvService::put(&[i], &[i; 10])).unwrap();
        }
        let got = client.execute(&KvService::get(&[7])).unwrap();
        assert_eq!(KvService::decode_value(&got), Some(vec![7; 10]));
        let c = tap.counts();
        // Every reply went out through the decorator's try_send path.
        assert_eq!(c.out_frames, 21);
        assert_eq!(c.exec_calls, 21);
        assert_eq!(c.lookups, 21);
        assert_ne!(hash(), 0);
        replica.shutdown();
        hub.shutdown();
    }

    #[test]
    fn network_decorator_classifies_propose_frames_and_retransmits() {
        use smr_types::{ClientId, SeqNum, Slot, View};
        use smr_wire::{Batch, Codec, ProtocolMsg, Request};
        let hub = smr_net::memory::MemoryHub::new(2, 1);
        let tap = Tap::new(Arc::new(AtomicBool::new(true)));
        let net = TracedNet::new(
            Arc::new(hub.replica_network(ReplicaId(0))),
            Arc::clone(&tap),
            Arc::new(AtomicBool::new(false)),
        );
        let batch = Batch::new(vec![
            Request::new(RequestId::new(ClientId(1), SeqNum(0)), vec![0; 128]),
            Request::new(RequestId::new(ClientId(2), SeqNum(0)), vec![0; 128]),
        ]);
        let propose = ProtocolMsg::Propose {
            view: View(3),
            slot: Slot(9),
            batch: batch.clone(),
        }
        .encode_to_vec();
        net.send_to(ReplicaId(1), propose.clone()).unwrap();
        net.send_to(ReplicaId(1), propose).unwrap();
        let c = tap.counts();
        assert_eq!((c.proposes, c.propose_requests), (2, 4));
        assert_eq!(c.propose_bytes, 2 * batch.encoded_len() as u64);
        assert_eq!(c.retransmits, 1);
        let events = tap.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            (events[0].kind, events[0].view),
            (WireKind::FirstPropose, 3)
        );
        hub.shutdown();
    }
}
