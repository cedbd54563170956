//! Transport traits implemented by the in-memory and TCP backends.

use std::time::Duration;

use smr_types::ReplicaId;

use crate::error::NetError;

/// Replica-to-replica fabric seen from one replica.
///
/// One ReplicaIOSnd thread calls [`ReplicaNetwork::send_to`] per peer, and
/// one ReplicaIORcv thread blocks in [`ReplicaNetwork::recv_from`] per
/// peer (§V-B: two threads per socket).
pub trait ReplicaNetwork: Send + Sync + 'static {
    /// Sends one frame to `peer`, blocking for flow control.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] after shutdown; [`NetError::Io`] when the link
    /// is irrecoverably broken (the caller may retry later — transports
    /// reconnect internally where possible).
    fn send_to(&self, peer: ReplicaId, frame: Vec<u8>) -> Result<(), NetError>;

    /// Blocks until the next frame from `peer` arrives.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] after shutdown.
    fn recv_from(&self, peer: ReplicaId) -> Result<Vec<u8>, NetError>;

    /// Shuts the fabric down, unblocking all senders and receivers.
    fn shutdown(&self);
}

/// Server side of one client connection, owned by a ClientIO thread.
pub trait ClientConn: Send + 'static {
    /// Non-blocking read of the next complete frame, if any.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the client disconnected.
    fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError>;

    /// Sends one frame to the client.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the client disconnected.
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError>;

    /// Stable identifier for logs.
    fn id(&self) -> u64;

    /// Raw file descriptor for readiness registration: a TCP socket, or
    /// the eventfd of an in-memory connection. `None` means the
    /// connection has no descriptor (an in-memory one where no eventfd
    /// could be made) — the ClientIO loop scans such connections on its
    /// tick instead of registering them with epoll.
    fn raw_fd(&self) -> Option<i32> {
        None
    }

    /// Queues one frame into the connection's outbound buffer without
    /// blocking. Returns `Ok(Some(frame))` — handing the frame back —
    /// when more than `max_buffered` bytes are already queued (slow
    /// reader); the caller decides whether to stash it or drop the
    /// connection. The default forwards to the blocking
    /// [`ClientConn::send`], which is correct for transports without an
    /// outbound buffer.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the client disconnected.
    fn try_send(
        &mut self,
        frame: Vec<u8>,
        max_buffered: usize,
    ) -> Result<Option<Vec<u8>>, NetError> {
        let _ = max_buffered;
        self.send(frame).map(|()| None)
    }

    /// Flushes buffered outbound bytes without blocking. `Ok(true)` means
    /// the buffer drained completely; `Ok(false)` means the socket went
    /// `WouldBlock` and the caller should re-arm writable interest.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] / [`NetError::Io`] when the connection broke.
    fn flush_out(&mut self) -> Result<bool, NetError> {
        Ok(true)
    }

    /// Whether outbound bytes remain buffered (i.e. the last
    /// [`ClientConn::flush_out`] returned `Ok(false)`).
    fn has_backlog(&self) -> bool {
        false
    }
}

/// Accepts incoming client connections. The first ClientIO thread owns
/// the listener and deals what it accepts to the ClientIO threads
/// round-robin (§V-A).
pub trait ClientListener: Send + 'static {
    /// Waits up to `timeout` for a connection.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] after shutdown.
    fn accept_timeout(&self, timeout: Duration) -> Result<Option<Box<dyn ClientConn>>, NetError>;

    /// Raw file descriptor that turns readable when a connection is
    /// pending (the listening socket, or the in-memory hub's eventfd), so
    /// ClientIO registers it beside its connections; `None` means the
    /// listener is scanned every tick. Registered edge-triggered: the
    /// reader calls [`ClientListener::try_accept`] until it returns
    /// `None` after every edge.
    fn raw_fd(&self) -> Option<i32> {
        None
    }

    /// Accepts one pending connection without blocking.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] after shutdown; [`NetError::Io`] on an accept
    /// error (say, out of descriptors), after which accepting may be
    /// retried.
    fn try_accept(&self) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        self.accept_timeout(Duration::ZERO)
    }
}

/// Client side of a connection to one replica.
pub trait ClientEndpoint: Send + 'static {
    /// Sends one frame to the replica.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] / [`NetError::Io`] when the connection broke.
    fn send(&mut self, frame: Vec<u8>) -> Result<(), NetError>;

    /// Waits up to `timeout` for the next frame from the replica.
    ///
    /// # Errors
    ///
    /// [`NetError::Closed`] when the connection broke.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, NetError>;
}
