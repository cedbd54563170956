//! The ClientIO module (§V-A): the pool, whose first thread also accepts.
//!
//! Each pool thread runs one readiness loop over its share of the
//! connections. It owns an epoll instance (via the vendored `mio` shim)
//! and a slab of connections; the slab index is the epoll token. Reads
//! drain edge-triggered readiness through [`classify_frame`] into the
//! RequestQueue, and a pass that queued any request hands the decision
//! to tell the Protocol thread to [`Ctx::notify_requests`], which sends
//! at most one notice per batch. Replies coalesce into per-connection
//! outbound buffers flushed once per burst, and a slow reader gets a
//! bounded overflow queue plus writable-interest re-arm instead of a
//! blocking write. A reader whose overflow passes
//! [`EventedIoOptions::max_overflow_frames`] is dropped and counted in
//! `clientio.overflow_drops`.
//!
//! A TCP connection registers its socket. An in-memory connection
//! registers its eventfd, which the client half writes when it queues a
//! frame on an empty queue, frees room in a full one, or hangs up (see
//! `smr_net::memory::MemoryClientEndpoint`). An eventfd is always
//! writable, so a memory connection with a backlog is not armed for
//! writable; its reader's next pop rings it, and any edge on a
//! connection with a backlog retries the flush.
//!
//! Connections and listeners without a file descriptor (in-memory ones
//! with no eventfd) are scanned every [`EventedIoOptions::tick`]. Where
//! epoll is unavailable (non-Linux targets, or `epoll_create1` fails)
//! the same loop runs with no poller: everything is scanned that way,
//! and the wait step sleeps one tick.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;

use smr_metrics::ThreadState;
use smr_net::{ClientConn, ClientListener, NetError};
use smr_queue::{PopError, PushError};
use smr_wire::{ClientMsg, Codec, Reply, Request};

use crate::reply_cache::CacheOutcome;

use super::Ctx;

/// Token reserved for the cross-thread waker; connection tokens are slab
/// indices, which can never reach it.
const WAKER_TOKEN: mio::Token = mio::Token(usize::MAX);

/// Token reserved for ClientIO-0's listener, beside [`WAKER_TOKEN`].
const LISTENER_TOKEN: mio::Token = mio::Token(usize::MAX - 1);

/// The ClientIO pool's slow-reader limits and scan tick
/// ([`ReplicaBuilder::with_evented_client_io`]).
///
/// [`ReplicaBuilder::with_evented_client_io`]: super::ReplicaBuilder::with_evented_client_io
#[derive(Debug, Clone)]
pub struct EventedIoOptions {
    /// Per-connection outbound buffer cap in bytes. Replies beyond it go
    /// to the overflow queue instead of growing the buffer without bound
    /// — the slow-reader threshold.
    pub max_outbound_bytes: usize,
    /// Encoded reply frames a slow reader may accumulate in overflow
    /// before the connection is dropped.
    pub max_overflow_frames: usize,
    /// Wait bound while work that produces no readiness event is
    /// outstanding: fd-less connections or listener to scan, parked
    /// requests, fd-less flush retries, or an accept to retry after an
    /// error. Without epoll, every wait is one tick.
    pub tick: Duration,
}

impl Default for EventedIoOptions {
    fn default() -> Self {
        EventedIoOptions {
            max_outbound_bytes: 256 * 1024,
            max_overflow_frames: 1024,
            tick: Duration::from_millis(1),
        }
    }
}

/// Rings a ClientIO thread out of `epoll_wait`; a no-op for a thread that
/// runs without epoll.
pub(crate) struct IoWaker(Option<mio::Waker>);

impl IoWaker {
    /// Wakes the owning ClientIO thread, if it waits on epoll.
    pub(crate) fn ring(&self) {
        if let Some(w) = &self.0 {
            let _ = w.wake();
        }
    }
}

/// A ClientIO thread's poller and the waker other threads ring, or
/// neither where epoll is unavailable. Made before any thread runs, so no
/// ring finds its waker missing and an idle loop can wait untimed.
pub(crate) fn poller() -> (Option<mio::Poll>, IoWaker) {
    let made = mio::Poll::new().and_then(|poll| {
        let waker = mio::Waker::new(poll.registry(), WAKER_TOKEN)?;
        Ok((poll, waker))
    });
    made.map_or((None, IoWaker(None)), |(p, w)| (Some(p), IoWaker(Some(w))))
}

/// Registers `fd` for readable edges under `token`; false without a
/// poller or when registration fails (the source is then scanned).
fn register(poll: Option<&mio::Poll>, fd: i32, token: mio::Token) -> bool {
    let (source, interest) = (&mut mio::unix::SourceFd(&fd), mio::Interest::READABLE);
    poll.is_some_and(|p| p.registry().register(source, token, interest).is_ok())
}

/// One connection owned by a pool thread.
struct Conn {
    conn: Box<dyn ClientConn>,
    /// Registered fd, or `None` for scanned (fd-less, or no epoll)
    /// connections.
    fd: Option<i32>,
    /// Edge-triggered readiness: set by an event, cleared only once a
    /// read drains to `WouldBlock` — it survives a backpressure pause so
    /// buffered bytes are not forgotten.
    readable: bool,
    /// Currently registered with writable interest (flush hit
    /// `WouldBlock` and is waiting for the socket to accept more).
    writable_armed: bool,
    /// Queued in `dirty` for a flush attempt this iteration.
    needs_flush: bool,
    /// A stamped request awaiting RequestQueue space (§V-E). While
    /// present the connection is not read.
    pending: Option<(Request, u64)>,
    /// Encoded reply frames that did not fit the transport's outbound
    /// buffer, drained ahead of new replies to preserve order.
    overflow: VecDeque<Vec<u8>>,
    /// The overflow passed the cap: the connection is dropped as a slow
    /// reader (and counted as one when it is buried).
    overflowed: bool,
}

impl Conn {
    /// Queues one encoded frame behind any overflow; returns false when
    /// the connection must be dropped (broken, or overflow past the cap).
    fn queue_frame(&mut self, frame: Vec<u8>, opts: &EventedIoOptions) -> bool {
        if !self.overflow.is_empty() {
            if self.overflow.len() >= opts.max_overflow_frames {
                self.overflowed = true; // slow reader past the drop threshold
                return false;
            }
            self.overflow.push_back(frame);
            return true;
        }
        match self.conn.try_send(frame, opts.max_outbound_bytes) {
            Ok(None) => true,
            Ok(Some(refused)) => {
                self.overflow.push_back(refused);
                true
            }
            Err(_) => false,
        }
    }

    /// Moves overflow into the transport buffer and flushes it, until
    /// both are empty or the transport stops taking frames.
    /// `Ok(true)` = everything drained, `Ok(false)` = backlog remains
    /// (socket or in-memory queue full), `Err(())` = connection broke.
    fn flush(&mut self, opts: &EventedIoOptions) -> Result<bool, ()> {
        loop {
            let mut moved = false;
            while let Some(frame) = self.overflow.pop_front() {
                match self.conn.try_send(frame, opts.max_outbound_bytes) {
                    Ok(None) => moved = true,
                    Ok(Some(refused)) => {
                        self.overflow.push_front(refused);
                        break;
                    }
                    Err(_) => return Err(()),
                }
            }
            let drained = self.conn.flush_out().map_err(|_| ())?;
            // A socket that drained its buffer takes the next frames.
            if !drained || !moved || self.overflow.is_empty() {
                return Ok(drained && self.overflow.is_empty());
            }
        }
    }
}

/// Re-registers a connection's fd for `interest`. Only fd-backed
/// connections call it, and those exist only when the loop has a poller.
fn rearm(poll: Option<&mio::Poll>, fd: i32, slot: usize, interest: mio::Interest) {
    if let Some(poll) = poll {
        let _ =
            poll.registry()
                .reregister(&mut mio::unix::SourceFd(&fd), mio::Token(slot), interest);
    }
}

/// One pool thread's connections: a slab whose index is the epoll token,
/// plus work lists of slab indices. An index may go stale when its
/// connection dies; scans skip empty slots, and [`Slab::bury`] purges the
/// lists eagerly so a recycled slot is never misattributed.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    free: Vec<usize>,
    by_id: HashMap<u64, usize>,
    /// Scanned connections, read every iteration.
    polled: Vec<usize>,
    /// fd-backed connections flagged readable by an edge.
    read_list: Vec<usize>,
    /// Connections holding a request the RequestQueue refused.
    parked: Vec<usize>,
    /// Connections needing a flush attempt this iteration.
    dirty: Vec<usize>,
    /// Connections that broke or overflowed, buried at the iteration's end.
    dead: Vec<usize>,
    /// A request entered the RequestQueue this iteration.
    pushed: bool,
}

impl Slab {
    /// Takes over an accepted connection, registering its fd when the
    /// loop has a poller; otherwise the connection is scanned.
    fn adopt(&mut self, conn: Box<dyn ClientConn>, poll: Option<&mio::Poll>) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.by_id.insert(conn.id(), slot);
        let fd = conn
            .raw_fd()
            .filter(|&fd| register(poll, fd, mio::Token(slot)));
        if fd.is_some() {
            self.read_list.push(slot);
        } else {
            self.polled.push(slot); // no fd, no poller, or registration failed
        }
        self.slots[slot] = Some(Conn {
            conn,
            fd,
            // Conservatively readable: bytes may have arrived before
            // registration; the first drain settles it.
            readable: true,
            writable_armed: false,
            needs_flush: false,
            pending: None,
            overflow: VecDeque::new(),
            overflowed: false,
        });
    }

    /// Queues `frame` on the connection in `slot` for this iteration's
    /// flush; returns false (and marks the connection dead) when it must
    /// be dropped.
    fn queue(&mut self, slot: usize, frame: Vec<u8>, opts: &EventedIoOptions) -> bool {
        let Some(st) = self.slots[slot].as_mut() else {
            return false;
        };
        if !st.queue_frame(frame, opts) {
            self.dead.push(slot);
            return false;
        }
        if !st.needs_flush {
            st.needs_flush = true;
            self.dirty.push(slot);
        }
        true
    }

    /// Drains one connection's inbound frames through [`classify_frame`],
    /// queueing responses and parking on backpressure.
    fn read(
        &mut self,
        ctx: &Ctx,
        index: usize,
        opts: &EventedIoOptions,
        slot: usize,
    ) -> ReadOutcome {
        loop {
            let Some(st) = self.slots[slot].as_mut() else {
                return ReadOutcome::Dead;
            };
            if st.pending.is_some() {
                return ReadOutcome::Paused;
            }
            let frame = match st.conn.try_recv() {
                Ok(Some(frame)) => frame,
                Ok(None) => return ReadOutcome::Drained,
                Err(_) => {
                    self.dead.push(slot);
                    return ReadOutcome::Dead;
                }
            };
            match classify_frame(ctx, index, st.conn.id(), &frame) {
                FrameAction::Respond(f) => {
                    if !self.queue(slot, f, opts) {
                        return ReadOutcome::Dead;
                    }
                }
                FrameAction::Continue => {}
                FrameAction::Queued => self.pushed = true,
                FrameAction::Park(req) => {
                    st.pending = Some(req);
                    self.parked.push(slot);
                    return ReadOutcome::Paused;
                }
                FrameAction::Drop => {
                    self.dead.push(slot);
                    return ReadOutcome::Dead;
                }
            }
        }
    }

    /// Removes a connection: deregisters its fd, frees the slot, and
    /// purges it from every work list so the recycled index starts clean.
    /// Returns the connection; dropping it closes it.
    fn bury(&mut self, slot: usize, poll: Option<&mio::Poll>) -> Option<Conn> {
        // None: already buried (queued dead twice in one burst).
        let st = self.slots[slot].take()?;
        if let (Some(fd), Some(poll)) = (st.fd, poll) {
            let _ = poll.registry().deregister(&mut mio::unix::SourceFd(&fd));
        }
        self.by_id.remove(&st.conn.id());
        for list in [
            &mut self.polled,
            &mut self.read_list,
            &mut self.parked,
            &mut self.dirty,
        ] {
            list.retain(|s| *s != slot);
        }
        self.free.push(slot);
        Some(st)
    }
}

/// What one connection's read drain ended with.
enum ReadOutcome {
    /// `try_recv` returned `None`: the kernel/queue buffer is empty.
    Drained,
    /// Stopped mid-drain on RequestQueue backpressure; bytes may remain.
    Paused,
    /// The connection broke or misbehaved and was queued for burial.
    Dead,
}

/// One thread of the ClientIO pool: the readiness loop over its share of
/// the connections (see the module docs). ClientIO-0 gets the listener.
pub(crate) fn run_client_io(
    ctx: &Ctx,
    index: usize,
    opts: &EventedIoOptions,
    mut poll: Option<mio::Poll>,
    listener: Option<Box<dyn ClientListener>>,
) {
    let handle = ctx.metrics.register_thread(format!("ClientIO-{index}"));
    let overflow_drops = ctx.metrics.counter("clientio.overflow_drops");
    // ClientIO-0's listener and its fd (`None`: scanned). `accept_ready`:
    // it may hold connections (at start, after an edge or an accept
    // error, and always while scanned).
    let listener = listener.map(|l| {
        let fd = l
            .raw_fd()
            .filter(|&fd| register(poll.as_ref(), fd, LISTENER_TOKEN));
        (l, fd)
    });
    let mut accept_ready = listener.is_some();
    let mut deal_to = 0;
    let accept_errors = ctx.metrics.counter("clientio.accept_errors");

    let mut slab = Slab::default();
    let mut next_dirty: Vec<usize> = Vec::new();
    let mut adopted: Vec<Box<dyn ClientConn>> = Vec::new();
    let mut replies: Vec<(u64, Reply)> = Vec::new();
    let mut events = mio::Events::with_capacity(256);
    let mut step_downs = ctx.shared.step_downs();

    while !ctx.is_shutdown() {
        // 1. ClientIO-0 accepts until the listener is empty and deals
        // round-robin (§V-A), adopting its own share; then every thread
        // adopts what was dealt to it.
        while let Some((l, fd)) = listener.as_ref().filter(|_| accept_ready) {
            let mut conn = match l.try_accept() {
                Ok(Some(conn)) => conn,
                Ok(None) => {
                    accept_ready = fd.is_none();
                    break;
                }
                Err(NetError::Closed) => {
                    if let (Some(fd), Some(poll)) = (fd, poll.as_ref()) {
                        let _ = poll.registry().deregister(&mut mio::unix::SourceFd(fd));
                    }
                    accept_ready = false; // for good
                    break;
                }
                Err(_) => {
                    accept_errors.inc(); // transient (EMFILE): stay ready
                    break;
                }
            };
            let to = deal_to;
            deal_to = (to + 1) % ctx.intake_qs.len();
            if to != index {
                match ctx.intake_qs[to].try_push(conn) {
                    Ok(()) => {
                        ctx.io_wakers[to].ring();
                        continue;
                    }
                    // That thread is far behind, or the replica is stopping.
                    Err(PushError::Full(c) | PushError::Closed(c)) => conn = c,
                }
            }
            slab.adopt(conn, poll.as_ref());
        }
        if ctx.intake_qs[index].try_pop_all(&mut adopted).is_ok() {
            for conn in adopted.drain(..) {
                slab.adopt(conn, poll.as_ref());
            }
        }

        // 2. Coalesce outbound frames into the per-connection buffers
        // (flushed in phase 5): one redirect on every connection when
        // this replica has stopped serving, then the replies queued by
        // the ServiceManager.
        if let Some(frame) = step_down_redirect(ctx, &mut step_downs) {
            for slot in 0..slab.slots.len() {
                slab.queue(slot, frame.clone(), opts);
            }
        }
        match ctx.reply_qs[index].try_pop_all(&mut replies) {
            Ok(_) => {
                for (conn_id, reply) in replies.drain(..) {
                    // A reply to a departed client has no slot.
                    if let Some(&slot) = slab.by_id.get(&conn_id) {
                        slab.queue(slot, ClientMsg::Reply(reply).encode_to_vec(), opts);
                    }
                }
            }
            Err(PopError::Empty) => {}
            Err(PopError::Closed) => return,
        }

        // 3. Retry requests parked on a full RequestQueue (§V-E).
        let mut i = 0;
        while i < slab.parked.len() {
            let slot = slab.parked[i];
            let Some(st) = slab.slots[slot].as_mut() else {
                slab.parked.swap_remove(i);
                continue;
            };
            let Some(req) = st.pending.take() else {
                slab.parked.swap_remove(i);
                continue;
            };
            match ctx.queue_request(req) {
                Ok(()) => {
                    slab.parked.swap_remove(i);
                    slab.pushed = true;
                }
                Err(PushError::Full(req)) => {
                    st.pending = Some(req);
                    i += 1;
                }
                Err(PushError::Closed(_)) => return,
            }
        }

        // 4. Reads. Scanned connections are read every iteration (a
        // try_recv on an empty in-memory queue is one atomic load);
        // fd-backed connections only when flagged readable by an edge.
        for i in 0..slab.polled.len() {
            slab.read(ctx, index, opts, slab.polled[i]);
        }
        let mut i = 0;
        while i < slab.read_list.len() {
            let slot = slab.read_list[i];
            match slab.read(ctx, index, opts, slot) {
                ReadOutcome::Paused => i += 1, // backpressure: stays readable
                ReadOutcome::Drained | ReadOutcome::Dead => {
                    if let Some(st) = slab.slots[slot].as_mut() {
                        st.readable = false;
                    }
                    slab.read_list.swap_remove(i);
                }
            }
        }

        // At most one notice covers every request this iteration queued,
        // and none is sent while they join the open batch.
        if std::mem::take(&mut slab.pushed) {
            ctx.notify_requests();
        }

        // 5. Flush: one write burst per connection touched this
        // iteration, plus those a writable edge re-armed.
        for slot in slab.dirty.drain(..) {
            let Some(st) = slab.slots[slot].as_mut() else {
                continue;
            };
            st.needs_flush = false;
            match (st.flush(opts), st.fd) {
                (Ok(true), fd) => {
                    if let Some(fd) = fd.filter(|_| st.writable_armed) {
                        // Backlog cleared: stop watching for writable.
                        rearm(poll.as_ref(), fd, slot, mio::Interest::READABLE);
                        st.writable_armed = false;
                    }
                }
                (Ok(false), Some(fd)) => {
                    // Without a backlog of its own the transport is an
                    // in-memory queue, always writable by epoll's
                    // account: its reader's next pop rings the fd.
                    if !st.writable_armed && st.conn.has_backlog() {
                        // Socket full: re-arm instead of blocking. The
                        // MOD delivers an edge even if the socket became
                        // writable in between.
                        rearm(
                            poll.as_ref(),
                            fd,
                            slot,
                            mio::Interest::READABLE | mio::Interest::WRITABLE,
                        );
                        st.writable_armed = true;
                    }
                }
                (Ok(false), None) => {
                    // No fd to arm: retry on the next tick.
                    st.needs_flush = true;
                    next_dirty.push(slot);
                }
                (Err(()), _) => slab.dead.push(slot),
            }
        }
        std::mem::swap(&mut slab.dirty, &mut next_dirty);

        // 6. Bury connections that broke or overflowed in any phase
        // above, and drop the client routes that pointed at them.
        while let Some(slot) = slab.dead.pop() {
            if let Some(st) = slab.bury(slot, poll.as_ref()) {
                if st.overflowed {
                    overflow_drops.inc();
                }
                ctx.shared.unbind_conn(index, st.conn.id());
            }
        }

        // 7. Wait. Work that no readiness event announces (scans, parked
        // requests and accepts to retry, fd-less flush backlogs) bounds
        // the wait to one tick; otherwise a waker or an event ends it.
        let Some(poll) = poll.as_mut() else {
            let _g = handle.enter(ThreadState::Other); // asleep for one tick
            std::thread::sleep(opts.tick);
            continue;
        };
        let scans = !slab.polled.is_empty()
            || !slab.parked.is_empty()
            || !slab.dirty.is_empty()
            || accept_ready;
        {
            let _g = handle.enter(ThreadState::Other); // blocked in epoll_wait
            let _ = poll.poll(&mut events, scans.then_some(opts.tick));
        }
        for ev in events.iter() {
            if ev.token() == WAKER_TOKEN {
                if let Some(waker) = &ctx.io_wakers[index].0 {
                    waker.clear();
                }
                continue;
            }
            if ev.token() == LISTENER_TOKEN {
                accept_ready = true;
                continue;
            }
            let slot = ev.token().0;
            let Some(st) = slab.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
                continue; // event raced a burial
            };
            if (ev.is_readable() || ev.is_read_closed() || ev.is_error()) && !st.readable {
                st.readable = true;
                slab.read_list.push(slot);
            }
            // An edge on a connection with a backlog may mean its reader
            // made room (an in-memory reader rings on a pop).
            if (ev.is_writable() || !st.overflow.is_empty()) && !st.needs_flush {
                st.needs_flush = true;
                slab.dirty.push(slot);
            }
        }
    }
}

/// The redirect a replica that is not serving answers with: a hint at the
/// best-known leader, or none when this replica leads the view but has
/// lost its quorum (§VI-E).
fn redirect_frame(ctx: &Ctx) -> Vec<u8> {
    let leader = ctx.shared.leader();
    let hint = if leader == ctx.me { None } else { Some(leader) };
    ClientMsg::Redirect { leader: hint }.encode_to_vec()
}

/// Returns the redirect to write on every connection when this replica
/// has stepped down since the count in `seen` (which it updates), and is
/// still not serving.
fn step_down_redirect(ctx: &Ctx, seen: &mut u64) -> Option<Vec<u8>> {
    let now = ctx.shared.step_downs();
    if now == *seen {
        return None;
    }
    *seen = now;
    (!ctx.shared.is_serving()).then(|| redirect_frame(ctx))
}

/// What the loop must do with one inbound frame, as decided by
/// [`classify_frame`].
enum FrameAction {
    /// Write this pre-encoded frame (cache-hit reply or leader redirect)
    /// back to the client.
    Respond(Vec<u8>),
    /// Nothing further: stale duplicate ignored.
    Continue,
    /// The request was accepted into the RequestQueue.
    Queued,
    /// The RequestQueue is full (§V-E): hold the stamped request and stop
    /// reading this connection until it fits.
    Park((Request, u64)),
    /// Drop the connection (undecodable frame, non-request message, or
    /// closed RequestQueue).
    Drop,
}

/// Processes one inbound frame up to (and including) the RequestQueue
/// push — decode, reply-cache probe, leader check, client binding —
/// stamping intake for the stage-latency breakdown.
fn classify_frame(ctx: &Ctx, index: usize, conn_id: u64, frame: &[u8]) -> FrameAction {
    let msg = match ClientMsg::decode(frame) {
        Ok(m) => m,
        Err(_) => return FrameAction::Drop, // garbage: drop the connection
    };
    let ClientMsg::Request(request) = msg else {
        return FrameAction::Drop; // clients only send requests
    };
    match ctx.cache.lookup(request.id) {
        CacheOutcome::Hit(reply) => {
            let frame = ClientMsg::Reply(Reply::new(request.id, reply)).encode_to_vec();
            return FrameAction::Respond(frame);
        }
        CacheOutcome::Stale => return FrameAction::Continue, // outdated duplicate
        CacheOutcome::Miss => {}
    }
    if !ctx.shared.is_serving() {
        // §VI-E: only a leader in contact with its quorum orders
        // requests; point the client elsewhere.
        return FrameAction::Respond(redirect_frame(ctx));
    }
    // Remember how to route the reply back (§V-D hand-over).
    ctx.shared.bind_client(request.id.client, index, conn_id);
    let stamp = ctx.stage.stamp(&ctx.shared);
    match ctx.queue_request((request, stamp)) {
        Ok(()) => FrameAction::Queued,
        Err(PushError::Full(pending)) => FrameAction::Park(pending),
        Err(PushError::Closed(_)) => FrameAction::Drop,
    }
}
