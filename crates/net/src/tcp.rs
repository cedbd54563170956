//! TCP transport: framed streams, reconnection, and non-blocking client
//! connections.
//!
//! Connection topology (mirrors §V-B): every replica maintains one
//! *outgoing* socket per peer, used exclusively for sending; the matching
//! incoming socket on the peer side is used exclusively for receiving. A
//! short handshake frame carrying the sender's replica id binds an
//! accepted socket to its peer slot. Broken links reconnect lazily on the
//! next send.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use parking_lot::{Condvar, Mutex};

use smr_types::ReplicaId;
use smr_wire::{Frame, FrameDecoder};

use crate::error::NetError;
use crate::traits::{ClientConn, ClientEndpoint, ClientListener, ReplicaNetwork};

/// How long accept/read loops sleep between shutdown checks.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Handshake frame: `b"SMR" + replica id` (little-endian u16).
fn handshake_frame(me: ReplicaId) -> Vec<u8> {
    let mut payload = b"SMR".to_vec();
    payload.extend_from_slice(&me.0.to_le_bytes());
    Frame::encode_to_vec(&payload)
}

fn parse_handshake(payload: &[u8]) -> Option<ReplicaId> {
    if payload.len() == 5 && &payload[..3] == b"SMR" {
        Some(ReplicaId(u16::from_le_bytes([payload[3], payload[4]])))
    } else {
        None
    }
}

/// Read buffer of a replica link: one peer frame carries a whole batch.
const PEER_READ_BUF: usize = 64 * 1024;

/// Read buffer of a client connection: client frames are single requests
/// and replies.
const CLIENT_READ_BUF: usize = 16 * 1024;

/// The read side of one framed stream: a decoder plus a read buffer
/// allocated once per stream, so a read call does not zero a fresh
/// buffer every time.
struct FrameReader {
    decoder: FrameDecoder,
    buf: Box<[u8]>,
}

impl FrameReader {
    fn new(buf_len: usize) -> Self {
        FrameReader {
            decoder: FrameDecoder::new(),
            buf: vec![0u8; buf_len].into_boxed_slice(),
        }
    }

    /// The next complete frame already received, if any.
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        self.decoder
            .next_frame()
            .map_err(|e| NetError::BadFrame(e.to_string()))
    }

    /// One `read` from `stream` into the decoder; returns what `read`
    /// returned (0 = the peer closed).
    fn fill_from(&mut self, stream: &mut TcpStream) -> std::io::Result<usize> {
        let n = stream.read(&mut self.buf)?;
        self.decoder.extend(&self.buf[..n]);
        Ok(n)
    }
}

impl std::fmt::Debug for FrameReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameReader")
            .field("buffered", &self.decoder.buffered())
            .field("buf_len", &self.buf.len())
            .finish()
    }
}

struct PeerSlot {
    /// Incoming stream + its reader, installed by the acceptor.
    incoming: Mutex<Option<(TcpStream, FrameReader)>>,
    incoming_ready: Condvar,
    /// Outgoing stream, owned by the sender.
    outgoing: Mutex<Option<TcpStream>>,
}

impl Default for PeerSlot {
    fn default() -> Self {
        PeerSlot {
            incoming: Mutex::new(None),
            incoming_ready: Condvar::new(),
            outgoing: Mutex::new(None),
        }
    }
}

struct TcpNetInner {
    me: ReplicaId,
    peers: Vec<SocketAddr>,
    slots: HashMap<u16, PeerSlot>,
    shutdown: AtomicBool,
    /// Encoded once at bind so reconnect attempts don't allocate.
    handshake: Vec<u8>,
}

/// TCP implementation of [`ReplicaNetwork`].
///
/// Binds `peers[me]` and spawns an acceptor thread that routes incoming
/// sockets to per-peer slots based on the handshake.
pub struct TcpReplicaNetwork {
    inner: Arc<TcpNetInner>,
    acceptor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for TcpReplicaNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpReplicaNetwork")
            .field("me", &self.inner.me)
            .finish()
    }
}

impl TcpReplicaNetwork {
    /// Binds the local address and starts accepting peer connections.
    ///
    /// `peers[i]` is the replica-to-replica address of replica `i`.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if binding fails.
    pub fn bind(me: ReplicaId, peers: Vec<SocketAddr>) -> Result<Self, NetError> {
        let listener = TcpListener::bind(peers[me.index()])?;
        listener.set_nonblocking(true)?;
        let slots = (0..peers.len() as u16)
            .filter(|r| *r != me.0)
            .map(|r| (r, PeerSlot::default()))
            .collect();
        let inner = Arc::new(TcpNetInner {
            me,
            peers,
            slots,
            shutdown: AtomicBool::new(false),
            handshake: handshake_frame(me),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("tcp-acceptor-{me}"))
                .spawn(move || accept_loop(&inner, listener))
                .expect("spawn acceptor")
        };
        Ok(TcpReplicaNetwork {
            inner,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }
}

/// Parks a nonblocking listener on epoll readiness. Returns `None` when
/// epoll is unavailable (non-Linux), in which case callers sleep-poll.
struct AcceptParker {
    poll: mio::Poll,
    events: mio::Events,
}

impl AcceptParker {
    #[cfg(unix)]
    fn new(listener: &TcpListener) -> Option<AcceptParker> {
        if !mio::SUPPORTED {
            return None;
        }
        let poll = mio::Poll::new().ok()?;
        let fd = listener.as_raw_fd();
        poll.registry()
            .register(
                &mut mio::unix::SourceFd(&fd),
                mio::Token(0),
                mio::Interest::READABLE,
            )
            .ok()?;
        Some(AcceptParker {
            poll,
            events: mio::Events::with_capacity(4),
        })
    }

    #[cfg(not(unix))]
    fn new(_listener: &TcpListener) -> Option<AcceptParker> {
        None
    }

    /// Blocks until the listener is readable or `timeout` elapses. The
    /// registration is edge-triggered, so callers must accept to
    /// `WouldBlock` before parking again.
    fn park(&mut self, timeout: Duration) {
        let _ = self.poll.poll(&mut self.events, Some(timeout));
    }
}

fn accept_loop(inner: &TcpNetInner, listener: TcpListener) {
    // Bounded park so the shutdown flag is still observed promptly even
    // though nothing rings an eventfd for it.
    const PARK_INTERVAL: Duration = Duration::from_millis(100);
    let mut parker = AcceptParker::new(&listener);
    while !inner.shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut stream, _addr)) => {
                // Read the handshake (blocking with a deadline).
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let mut reader = FrameReader::new(PEER_READ_BUF);
                let peer = loop {
                    match reader.fill_from(&mut stream) {
                        Ok(0) => break None,
                        Ok(_) => match reader.next_frame() {
                            Ok(Some(p)) => break parse_handshake(&p),
                            Ok(None) => continue,
                            Err(_) => break None,
                        },
                        Err(_) => break None,
                    }
                };
                if let Some(peer) = peer {
                    if let Some(slot) = inner.slots.get(&peer.0) {
                        let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                        let _ = stream.set_nodelay(true);
                        *slot.incoming.lock() = Some((stream, reader));
                        slot.incoming_ready.notify_all();
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => match parker.as_mut() {
                Some(p) => p.park(PARK_INTERVAL),
                None => std::thread::sleep(POLL_INTERVAL),
            },
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

impl ReplicaNetwork for TcpReplicaNetwork {
    fn send_to(&self, peer: ReplicaId, frame: Vec<u8>) -> Result<(), NetError> {
        let inner = &self.inner;
        if inner.shutdown.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let slot = inner.slots.get(&peer.0).ok_or(NetError::Closed)?;
        let mut outgoing = slot.outgoing.lock();
        if outgoing.is_none() {
            // (Re)connect lazily, with a handshake.
            match TcpStream::connect_timeout(&inner.peers[peer.index()], Duration::from_millis(500))
            {
                Ok(mut stream) => {
                    stream.set_nodelay(true).ok();
                    if stream.write_all(&inner.handshake).is_ok() {
                        *outgoing = Some(stream);
                    }
                }
                Err(e) => return Err(NetError::Io(format!("connect {peer}: {e}"))),
            }
        }
        let wire = Frame::encode_to_vec(&frame);
        if let Some(stream) = outgoing.as_mut() {
            if let Err(e) = stream.write_all(&wire) {
                *outgoing = None;
                return Err(NetError::Io(format!("send to {peer}: {e}")));
            }
            Ok(())
        } else {
            Err(NetError::Io(format!("no connection to {peer}")))
        }
    }

    fn recv_from(&self, peer: ReplicaId) -> Result<Vec<u8>, NetError> {
        let inner = &self.inner;
        let slot = inner.slots.get(&peer.0).ok_or(NetError::Closed)?;
        loop {
            if inner.shutdown.load(Ordering::Acquire) {
                return Err(NetError::Closed);
            }
            let mut guard = slot.incoming.lock();
            match guard.as_mut() {
                None => {
                    // Wait for the acceptor to install a stream.
                    slot.incoming_ready.wait_for(&mut guard, POLL_INTERVAL);
                }
                Some((stream, reader)) => {
                    if let Some(frame) = reader.next_frame()? {
                        return Ok(frame);
                    }
                    match reader.fill_from(stream) {
                        Ok(0) => *guard = None, // peer closed; await reconnect
                        Ok(_) => {}
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut => {}
                        Err(_) => *guard = None,
                    }
                }
            }
        }
    }

    fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        for slot in self.inner.slots.values() {
            slot.incoming_ready.notify_all();
            *slot.incoming.lock() = None;
            *slot.outgoing.lock() = None;
        }
        if let Some(h) = self.acceptor.lock().take() {
            let _ = h.join();
        }
    }
}

static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(1);

/// Server side of a TCP client connection (non-blocking reads, buffered
/// coalesced writes).
#[derive(Debug)]
pub struct TcpServerConn {
    id: u64,
    stream: TcpStream,
    reader: FrameReader,
    /// Framed bytes queued for the client but not yet written. Filled by
    /// `try_send` (one append per reply), drained by `flush_out` (one
    /// write burst per batch) — that asymmetry is the reply coalescing.
    out: BytesMut,
    closed: bool,
}

impl TcpServerConn {
    /// Writes as much of `out` as the socket accepts right now.
    /// `Ok(true)` = drained, `Ok(false)` = `WouldBlock` with a backlog.
    fn flush_pending(&mut self) -> Result<bool, NetError> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => {
                    self.closed = true;
                    return Err(NetError::Io("write returned 0".into()));
                }
                Ok(n) => {
                    let _ = self.out.split_to(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.closed = true;
                    return Err(NetError::Io(e.to_string()));
                }
            }
        }
        Ok(true)
    }
}

impl ClientConn for TcpServerConn {
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.closed {
            return Err(NetError::Closed);
        }
        // Loop until a complete frame or a read that proves the kernel
        // buffer is drained (`WouldBlock`). Returning `None` on a partial
        // frame while bytes remain buffered would wedge an edge-triggered
        // caller: no new readable edge fires for bytes already received.
        loop {
            if let Some(frame) = self.reader.next_frame()? {
                return Ok(Some(frame));
            }
            match self.reader.fill_from(&mut self.stream) {
                Ok(0) => {
                    self.closed = true;
                    return Err(NetError::Closed);
                }
                Ok(_) => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    self.closed = true;
                    return Err(NetError::Io(e.to_string()));
                }
            }
        }
    }

    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        if self.closed {
            return Err(NetError::Closed);
        }
        Frame::encode(&frame, &mut self.out);
        // The socket is non-blocking (shared mode with reads); spin
        // briefly on WouldBlock. Replies are small, so this is rare.
        let start = Instant::now();
        loop {
            if self.flush_pending()? {
                return Ok(());
            }
            if start.elapsed() > Duration::from_secs(5) {
                return Err(NetError::Io("send stalled".into()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn id(&self) -> u64 {
        self.id
    }

    fn raw_fd(&self) -> Option<i32> {
        #[cfg(unix)]
        {
            Some(self.stream.as_raw_fd())
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    fn try_send(
        &mut self,
        frame: Vec<u8>,
        max_buffered: usize,
    ) -> Result<Option<Vec<u8>>, NetError> {
        if self.closed {
            return Err(NetError::Closed);
        }
        if self.out.len() >= max_buffered {
            // One opportunistic flush before declaring the reader slow.
            self.flush_pending()?;
            if self.out.len() >= max_buffered {
                return Ok(Some(frame));
            }
        }
        Frame::encode(&frame, &mut self.out);
        Ok(None)
    }

    fn flush_out(&mut self) -> Result<bool, NetError> {
        if self.closed {
            return Err(NetError::Closed);
        }
        self.flush_pending()
    }

    fn has_backlog(&self) -> bool {
        !self.out.is_empty()
    }
}

/// TCP implementation of [`ClientListener`].
#[derive(Debug)]
pub struct TcpClientListener {
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl TcpClientListener {
    /// Binds the client-facing address of a replica.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if binding fails.
    pub fn bind(addr: SocketAddr) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpClientListener {
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The locally bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] if the socket is gone.
    pub fn local_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Signals shutdown to accept loops.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }
}

impl ClientListener for TcpClientListener {
    fn accept_timeout(&self, timeout: Duration) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return Err(NetError::Closed);
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(true)?;
                    stream.set_nodelay(true)?;
                    return Ok(Some(Box::new(TcpServerConn {
                        id: NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed),
                        stream,
                        reader: FrameReader::new(CLIENT_READ_BUF),
                        out: BytesMut::new(),
                        closed: false,
                    })));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(POLL_INTERVAL.min(timeout));
                }
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
    }

    fn raw_fd(&self) -> Option<i32> {
        #[cfg(unix)]
        {
            Some(self.listener.as_raw_fd())
        }
        #[cfg(not(unix))]
        {
            None
        }
    }
}

/// Client side of a TCP connection to a replica.
#[derive(Debug)]
pub struct TcpClientEndpoint {
    stream: TcpStream,
    reader: FrameReader,
}

impl TcpClientEndpoint {
    /// Connects to a replica's client-facing address.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connection failure.
    pub fn connect(addr: SocketAddr) -> Result<Self, NetError> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
        stream.set_nodelay(true)?;
        Ok(TcpClientEndpoint {
            stream,
            reader: FrameReader::new(CLIENT_READ_BUF),
        })
    }
}

impl ClientEndpoint for TcpClientEndpoint {
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError> {
        let wire = Frame::encode_to_vec(&frame);
        self.stream.write_all(&wire)?;
        Ok(())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError> {
        if let Some(frame) = self.reader.next_frame()? {
            return Ok(Some(frame));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            self.stream.set_read_timeout(Some(remaining))?;
            match self.reader.fill_from(&mut self.stream) {
                Ok(0) => return Err(NetError::Closed),
                Ok(_) => {
                    if let Some(frame) = self.reader.next_frame()? {
                        return Ok(Some(frame));
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(NetError::Io(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn free_addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap()
            })
            .collect()
    }

    #[test]
    fn replica_frames_roundtrip() {
        let addrs = free_addrs(2);
        let n0 = TcpReplicaNetwork::bind(ReplicaId(0), addrs.clone()).unwrap();
        let n1 = TcpReplicaNetwork::bind(ReplicaId(1), addrs).unwrap();
        // Retry the first send: the acceptor may still be warming up.
        let mut sent = false;
        for _ in 0..50 {
            if n0.send_to(ReplicaId(1), b"hello peer".to_vec()).is_ok() {
                sent = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(sent);
        assert_eq!(n1.recv_from(ReplicaId(0)).unwrap(), b"hello peer");
        n0.shutdown();
        n1.shutdown();
    }

    #[test]
    fn client_roundtrip_over_tcp() {
        let listener = TcpClientListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpClientEndpoint::connect(addr).unwrap();
        client.send(b"request".to_vec()).unwrap();
        let mut conn = listener
            .accept_timeout(Duration::from_secs(2))
            .unwrap()
            .expect("client connected");
        // try_recv is non-blocking; poll briefly.
        let mut got = None;
        for _ in 0..100 {
            if let Some(f) = conn.try_recv().unwrap() {
                got = Some(f);
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(got.unwrap(), b"request");
        conn.send(b"reply".to_vec()).unwrap();
        assert_eq!(
            client
                .recv_timeout(Duration::from_secs(2))
                .unwrap()
                .unwrap(),
            b"reply"
        );
    }

    #[test]
    fn recv_timeout_expires() {
        let listener = TcpClientListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpClientEndpoint::connect(addr).unwrap();
        let start = Instant::now();
        assert!(client
            .recv_timeout(Duration::from_millis(50))
            .unwrap()
            .is_none());
        assert!(start.elapsed() >= Duration::from_millis(45));
    }

    /// Two frames in one write, then one frame split across two writes,
    /// sent on `stream`: the byte streams a reader must reassemble.
    fn write_coalesced_then_split(stream: &mut TcpStream) {
        let mut both = Frame::encode_to_vec(b"first");
        both.extend_from_slice(&Frame::encode_to_vec(b"second"));
        stream.write_all(&both).unwrap();
        let split = Frame::encode_to_vec(&[7u8; 300]);
        stream.write_all(&split[..5]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(30));
        stream.write_all(&split[5..]).unwrap();
    }

    #[test]
    fn recv_from_decodes_coalesced_and_split_frames() {
        let addrs = free_addrs(2);
        let n1 = TcpReplicaNetwork::bind(ReplicaId(1), addrs.clone()).unwrap();
        let mut raw = TcpStream::connect(addrs[1]).unwrap();
        raw.set_nodelay(true).unwrap();
        raw.write_all(&handshake_frame(ReplicaId(0))).unwrap();
        write_coalesced_then_split(&mut raw);
        assert_eq!(n1.recv_from(ReplicaId(0)).unwrap(), b"first");
        assert_eq!(n1.recv_from(ReplicaId(0)).unwrap(), b"second");
        assert_eq!(n1.recv_from(ReplicaId(0)).unwrap(), vec![7u8; 300]);
        n1.shutdown();
    }

    #[test]
    fn try_recv_decodes_coalesced_and_split_frames() {
        let listener = TcpClientListener::bind("127.0.0.1:0".parse().unwrap()).unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        raw.set_nodelay(true).unwrap();
        let mut conn = listener
            .accept_timeout(Duration::from_secs(2))
            .unwrap()
            .expect("client connected");
        write_coalesced_then_split(&mut raw);
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(2);
        while got.len() < 3 && Instant::now() < deadline {
            match conn.try_recv().unwrap() {
                Some(frame) => got.push(frame),
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
        assert_eq!(
            got,
            vec![b"first".to_vec(), b"second".to_vec(), vec![7u8; 300]]
        );
    }

    #[test]
    fn handshake_parses() {
        assert_eq!(parse_handshake(b"SMR\x05\x00"), Some(ReplicaId(5)));
        assert_eq!(parse_handshake(b"XXX\x05\x00"), None);
        assert_eq!(parse_handshake(b"SMR"), None);
    }
}
