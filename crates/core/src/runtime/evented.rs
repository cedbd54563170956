//! Evented ClientIO: the readiness-loop client path.
//!
//! Each pool thread owns one epoll instance (via the vendored `mio` shim)
//! and a slab of connections; the slab index is the epoll token. Reads
//! drain edge-triggered readiness into per-connection frame decoders
//! feeding the RequestQueue, replies coalesce into per-connection
//! outbound buffers flushed once per burst, and slow readers get a
//! bounded overflow queue plus writable-interest re-arm instead of a
//! blocking write. The protocol pipeline above is untouched: the same
//! intake/reply queues, stage stamps, and backpressure contract as the
//! thread-per-connection path, so both modes are interchangeable behind
//! [`ReplicaBuilder::with_evented_client_io`].
//!
//! [`ReplicaBuilder::with_evented_client_io`]: super::ReplicaBuilder::with_evented_client_io

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use smr_metrics::ThreadState;
use smr_net::{ClientConn, ClientListener};
use smr_queue::{PopError, PushError};
use smr_wire::{ClientMsg, Codec, Reply, Request};

use super::client_io::{
    classify_frame, run_acceptor, run_client_io, step_down_redirect, FrameAction,
};
use super::Ctx;

/// Token reserved for the cross-thread waker; connection tokens are slab
/// indices, which can never reach it.
const WAKER_TOKEN: mio::Token = mio::Token(usize::MAX);

/// Poll timeout when nothing is outstanding; bounds how stale the
/// shutdown check can get (wakers cover every other wake-up source).
const IDLE_TIMEOUT: Duration = Duration::from_millis(100);

/// Tuning knobs for the evented ClientIO path
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
    /// Poll timeout while work that produces no readiness event is
    /// outstanding: fd-less (in-memory) connections to scan, parked
    /// requests waiting for RequestQueue space, or fd-less flush retries.
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

/// A slot another thread can ring to kick an evented ClientIO thread out
/// of `epoll_wait`. Empty (a no-op) in threaded mode and until the
/// evented thread installs its waker.
pub(crate) struct IoWaker(Mutex<Option<Arc<mio::Waker>>>);

impl IoWaker {
    /// An uninstalled waker; `ring` is a no-op until `install`.
    pub(crate) fn empty() -> Self {
        IoWaker(Mutex::new(None))
    }

    fn install(&self, waker: Arc<mio::Waker>) {
        *self.0.lock() = Some(waker);
    }

    /// Wakes the owning evented thread, if one exists.
    pub(crate) fn ring(&self) {
        if let Some(w) = self.0.lock().as_ref() {
            let _ = w.wake();
        }
    }
}

/// One connection owned by an evented pool thread.
struct EvConn {
    conn: Box<dyn ClientConn>,
    /// Registered fd, or `None` for poll-scanned (in-memory) connections.
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
}

impl EvConn {
    /// Queues one encoded frame behind any overflow; returns false when
    /// the connection must be dropped (broken, or overflow past the cap).
    fn queue_frame(&mut self, frame: Vec<u8>, opts: &EventedIoOptions) -> bool {
        if !self.overflow.is_empty() {
            if self.overflow.len() >= opts.max_overflow_frames {
                return false; // slow reader past the drop threshold
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

    /// Moves overflow into the transport buffer and flushes it.
    /// `Ok(true)` = everything drained, `Ok(false)` = backlog remains
    /// (socket full), `Err(())` = connection broke.
    fn flush(&mut self, opts: &EventedIoOptions) -> Result<bool, ()> {
        while let Some(frame) = self.overflow.pop_front() {
            match self.conn.try_send(frame, opts.max_outbound_bytes) {
                Ok(None) => {}
                Ok(Some(refused)) => {
                    self.overflow.push_front(refused);
                    break;
                }
                Err(_) => return Err(()),
            }
        }
        match self.conn.flush_out() {
            Ok(drained) => Ok(drained && self.overflow.is_empty()),
            Err(_) => Err(()),
        }
    }
}

fn interest_both() -> mio::Interest {
    mio::Interest::READABLE | mio::Interest::WRITABLE
}

/// The readiness loop replacing `run_client_io` when the builder selects
/// evented mode. Falls back to the threaded loop body (minus the
/// dedicated threads — this thread still owns only its share of
/// connections) on platforms without epoll.
pub(crate) fn run_evented_client_io(ctx: &Ctx, index: usize, opts: &EventedIoOptions) {
    if !mio::SUPPORTED {
        return run_client_io(ctx, index);
    }
    let mut poll = match mio::Poll::new() {
        Ok(p) => p,
        Err(_) => return run_client_io(ctx, index),
    };
    let waker = match mio::Waker::new(poll.registry(), WAKER_TOKEN) {
        Ok(w) => Arc::new(w),
        Err(_) => return run_client_io(ctx, index),
    };
    ctx.io_wakers[index].install(Arc::clone(&waker));

    let handle = ctx.metrics.register_thread(format!("ClientIO-{index}"));
    let mut slots: Vec<Option<EvConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    // Work lists, all holding slab indices. An index may go stale when
    // its connection dies; scans skip empty slots, and `kill` purges the
    // lists eagerly so a recycled slot is never misattributed.
    let mut polled: Vec<usize> = Vec::new(); // fd-less conns, scanned per tick
    let mut read_list: Vec<usize> = Vec::new(); // fd conns with readable set
    let mut parked: Vec<usize> = Vec::new(); // conns holding a pending request
    let mut dirty: Vec<usize> = Vec::new(); // conns needing a flush attempt
    let mut next_dirty: Vec<usize> = Vec::new();
    let mut dead: Vec<usize> = Vec::new();
    let mut adopted: Vec<Box<dyn ClientConn>> = Vec::new();
    let mut replies: Vec<(u64, Reply)> = Vec::new();
    let mut events = mio::Events::with_capacity(256);
    let mut step_downs = ctx.shared.step_downs();

    while !ctx.is_shutdown() {
        // 1. Adopt newly accepted connections dealt by the acceptor.
        if ctx.intake_qs[index].try_pop_all(&mut adopted).is_ok() {
            for conn in adopted.drain(..) {
                let slot = free.pop().unwrap_or_else(|| {
                    slots.push(None);
                    slots.len() - 1
                });
                by_id.insert(conn.id(), slot);
                let raw = conn.raw_fd();
                slots[slot] = Some(EvConn {
                    conn,
                    fd: None,
                    // Conservatively readable: bytes may have arrived
                    // before registration; the first drain settles it.
                    readable: true,
                    writable_armed: false,
                    needs_flush: false,
                    pending: None,
                    overflow: VecDeque::new(),
                });
                let registered = raw.is_some_and(|fd| {
                    poll.registry()
                        .register(
                            &mut mio::unix::SourceFd(&fd),
                            mio::Token(slot),
                            mio::Interest::READABLE,
                        )
                        .is_ok()
                });
                if registered {
                    slots[slot].as_mut().expect("just inserted").fd = raw;
                    read_list.push(slot);
                } else {
                    polled.push(slot); // no fd (or registration failed): scan
                }
            }
        }

        // 2. Coalesce outbound frames into the per-connection buffers
        // (flushed in phase 5): one redirect on every connection when
        // this replica has stopped serving, then the replies queued by
        // the ServiceManager.
        if let Some(frame) = step_down_redirect(ctx, &mut step_downs) {
            for (slot, st) in slots.iter_mut().enumerate() {
                let Some(st) = st.as_mut() else {
                    continue;
                };
                if !st.queue_frame(frame.clone(), opts) {
                    dead.push(slot);
                } else if !st.needs_flush {
                    st.needs_flush = true;
                    dirty.push(slot);
                }
            }
        }
        match ctx.reply_qs[index].try_pop_all(&mut replies) {
            Ok(_) => {
                for (conn_id, reply) in replies.drain(..) {
                    let Some(&slot) = by_id.get(&conn_id) else {
                        continue; // client departed
                    };
                    let Some(st) = slots[slot].as_mut() else {
                        continue;
                    };
                    let frame = ClientMsg::Reply(reply).encode_to_vec();
                    if !st.queue_frame(frame, opts) {
                        dead.push(slot);
                    } else if !st.needs_flush {
                        st.needs_flush = true;
                        dirty.push(slot);
                    }
                }
            }
            Err(PopError::Empty) => {}
            Err(PopError::Closed) => return,
        }

        // 3. Retry requests parked on a full RequestQueue (§V-E).
        let mut i = 0;
        while i < parked.len() {
            let slot = parked[i];
            let Some(st) = slots[slot].as_mut() else {
                parked.swap_remove(i);
                continue;
            };
            let Some(req) = st.pending.take() else {
                parked.swap_remove(i);
                continue;
            };
            match ctx.request_q.try_push(req) {
                Ok(()) => {
                    parked.swap_remove(i);
                }
                Err(PushError::Full(req)) => {
                    st.pending = Some(req);
                    i += 1;
                }
                Err(PushError::Closed(_)) => return,
            }
        }

        // 4. Reads. fd-less connections are scanned every iteration (a
        // try_recv on an empty in-memory queue is one atomic load);
        // fd-backed connections only when flagged readable by an edge.
        let mut i = 0;
        while i < polled.len() {
            let slot = polled[i];
            if slots[slot].is_none() {
                polled.swap_remove(i);
                continue;
            }
            read_slot(
                ctx,
                index,
                opts,
                &mut slots,
                slot,
                &mut parked,
                &mut dirty,
                &mut dead,
            );
            i += 1;
        }
        let mut i = 0;
        while i < read_list.len() {
            let slot = read_list[i];
            let Some(st) = slots[slot].as_ref() else {
                read_list.swap_remove(i);
                continue;
            };
            if st.pending.is_some() {
                i += 1; // paused on backpressure; stays readable
                continue;
            }
            match read_slot(
                ctx,
                index,
                opts,
                &mut slots,
                slot,
                &mut parked,
                &mut dirty,
                &mut dead,
            ) {
                ReadOutcome::Drained | ReadOutcome::Dead => {
                    if let Some(st) = slots[slot].as_mut() {
                        st.readable = false;
                    }
                    read_list.swap_remove(i);
                }
                ReadOutcome::Paused => i += 1,
            }
        }

        // 5. Flush: one write burst per connection touched this
        // iteration, plus those a writable edge re-armed.
        for slot in dirty.drain(..) {
            let Some(st) = slots[slot].as_mut() else {
                continue;
            };
            st.needs_flush = false;
            match st.flush(opts) {
                Ok(true) => {
                    if st.writable_armed {
                        // Backlog cleared: stop watching for writable.
                        if let Some(fd) = st.fd {
                            let _ = poll.registry().reregister(
                                &mut mio::unix::SourceFd(&fd),
                                mio::Token(slot),
                                mio::Interest::READABLE,
                            );
                        }
                        st.writable_armed = false;
                    }
                }
                Ok(false) => match st.fd {
                    Some(fd) => {
                        if !st.writable_armed {
                            // Socket full: re-arm instead of blocking.
                            // The MOD delivers an edge even if the
                            // socket became writable in between.
                            let _ = poll.registry().reregister(
                                &mut mio::unix::SourceFd(&fd),
                                mio::Token(slot),
                                interest_both(),
                            );
                            st.writable_armed = true;
                        }
                    }
                    None => {
                        // No fd to arm: retry on the next tick.
                        st.needs_flush = true;
                        next_dirty.push(slot);
                    }
                },
                Err(()) => dead.push(slot),
            }
        }
        std::mem::swap(&mut dirty, &mut next_dirty);

        // 6. Bury connections that broke in any phase above, and drop
        // the client routes that pointed at them.
        for slot in dead.drain(..) {
            if let Some(id) = kill(
                &poll,
                &mut slots,
                &mut free,
                &mut by_id,
                slot,
                [&mut polled, &mut read_list, &mut parked, &mut dirty],
            ) {
                ctx.shared.unbind_conn(index, id);
            }
        }

        // 7. Park on epoll. Ticking work (fd-less scans, parked-request
        // retries, fd-less flush backlogs) bounds the sleep; otherwise
        // only a waker or a connection event need wake us early.
        let timeout = if polled.is_empty() && parked.is_empty() && dirty.is_empty() {
            IDLE_TIMEOUT
        } else {
            opts.tick
        };
        {
            let _g = handle.enter(ThreadState::Other); // blocked in epoll_wait
            let _ = poll.poll(&mut events, Some(timeout));
        }
        for ev in events.iter() {
            if ev.token() == WAKER_TOKEN {
                waker.clear();
                continue;
            }
            let slot = ev.token().0;
            let Some(st) = slots.get_mut(slot).and_then(|s| s.as_mut()) else {
                continue; // event raced a kill
            };
            if (ev.is_readable() || ev.is_read_closed() || ev.is_error()) && !st.readable {
                st.readable = true;
                read_list.push(slot);
            }
            if ev.is_writable() && !st.needs_flush {
                st.needs_flush = true;
                dirty.push(slot);
            }
        }
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

/// Drains one connection's inbound frames through [`classify_frame`],
/// coalescing responses and parking on backpressure.
#[allow(clippy::too_many_arguments)]
fn read_slot(
    ctx: &Ctx,
    index: usize,
    opts: &EventedIoOptions,
    slots: &mut [Option<EvConn>],
    slot: usize,
    parked: &mut Vec<usize>,
    dirty: &mut Vec<usize>,
    dead: &mut Vec<usize>,
) -> ReadOutcome {
    let Some(st) = slots[slot].as_mut() else {
        return ReadOutcome::Dead;
    };
    if st.pending.is_some() {
        return ReadOutcome::Paused;
    }
    loop {
        match st.conn.try_recv() {
            Ok(Some(frame)) => match classify_frame(ctx, index, st.conn.id(), &frame) {
                FrameAction::Respond(f) => {
                    if !st.queue_frame(f, opts) {
                        dead.push(slot);
                        return ReadOutcome::Dead;
                    }
                    if !st.needs_flush {
                        st.needs_flush = true;
                        dirty.push(slot);
                    }
                }
                FrameAction::Continue => {}
                FrameAction::Park(req) => {
                    st.pending = Some(req);
                    parked.push(slot);
                    return ReadOutcome::Paused;
                }
                FrameAction::Drop => {
                    dead.push(slot);
                    return ReadOutcome::Dead;
                }
            },
            Ok(None) => return ReadOutcome::Drained,
            Err(_) => {
                dead.push(slot);
                return ReadOutcome::Dead;
            }
        }
    }
}

/// Removes a connection: deregisters its fd, frees the slab slot, and
/// purges it from every work list so the recycled index starts clean.
/// Returns the id of the connection it removed.
fn kill(
    poll: &mio::Poll,
    slots: &mut [Option<EvConn>],
    free: &mut Vec<usize>,
    by_id: &mut HashMap<u64, usize>,
    slot: usize,
    lists: [&mut Vec<usize>; 4],
) -> Option<u64> {
    let Some(st) = slots[slot].take() else {
        return None; // already buried (e.g. queued dead twice in one burst)
    };
    if let Some(fd) = st.fd {
        let _ = poll.registry().deregister(&mut mio::unix::SourceFd(&fd));
    }
    by_id.remove(&st.conn.id());
    for list in lists {
        list.retain(|s| *s != slot);
    }
    free.push(slot);
    Some(st.conn.id())
}

/// The acceptor in evented mode: parks on listener readiness instead of
/// sleep-polling, accepts in bursts, and rings the adopting pool thread's
/// waker. Falls back to the threaded acceptor when the listener has no fd
/// (in-memory transport) or epoll is unavailable.
pub(crate) fn run_evented_acceptor(ctx: &Ctx, listener: Box<dyn ClientListener>) {
    let Some(fd) = listener.raw_fd().filter(|_| mio::SUPPORTED) else {
        return run_acceptor(ctx, listener);
    };
    let Ok(mut poll) = mio::Poll::new() else {
        return run_acceptor(ctx, listener);
    };
    if poll
        .registry()
        .register(
            &mut mio::unix::SourceFd(&fd),
            mio::Token(0),
            mio::Interest::READABLE,
        )
        .is_err()
    {
        return run_acceptor(ctx, listener);
    }
    let handle = ctx.metrics.register_thread("ClientAcceptor");
    let k = ctx.intake_qs.len();
    let mut next = 0usize;
    let mut events = mio::Events::with_capacity(8);
    while !ctx.is_shutdown() {
        // Accept to WouldBlock (required by edge-triggering), fanning
        // connections across the pool round-robin (§V-A).
        loop {
            match listener.try_accept() {
                Ok(Some(conn)) => {
                    if ctx.intake_qs[next].push(conn).is_err() {
                        return;
                    }
                    ctx.io_wakers[next].ring();
                    next = (next + 1) % k;
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
        let _g = handle.enter(ThreadState::Other); // blocked in epoll_wait
        let _ = poll.poll(&mut events, Some(IDLE_TIMEOUT));
    }
}
