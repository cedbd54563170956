//! The ClientIO module (§V-A): the acceptor thread and the ClientIO pool.

use std::collections::HashMap;
use std::time::Duration;

use smr_metrics::ThreadState;
use smr_net::{ClientConn, ClientListener};
use smr_queue::{PopError, PushError};
use smr_wire::{ClientMsg, Codec, Reply, Request};

use crate::reply_cache::CacheOutcome;

use super::Ctx;

/// Accepts client connections and deals them to ClientIO threads
/// round-robin (§V-A).
pub(crate) fn run_acceptor(ctx: &Ctx, listener: Box<dyn ClientListener>) {
    let handle = ctx.metrics.register_thread("ClientAcceptor");
    let k = ctx.intake_qs.len();
    let mut next = 0usize;
    while !ctx.is_shutdown() {
        let accepted = {
            let _g = handle.enter(ThreadState::Other); // blocked in accept(2)
            listener.accept_timeout(Duration::from_millis(100))
        };
        match accepted {
            Ok(Some(conn)) => {
                if ctx.intake_qs[next].push(conn).is_err() {
                    break;
                }
                // No-op in threaded mode; wakes an evented pool thread
                // out of epoll_wait to adopt the connection.
                ctx.io_wakers[next].ring();
                next = (next + 1) % k;
            }
            Ok(None) => {}
            Err(_) => break,
        }
    }
}

struct ConnState {
    conn: Box<dyn ClientConn>,
    /// Outbound bytes the transport could not write yet (TCP only);
    /// flushed on every loop pass until drained.
    backlog: bool,
    /// A decoded request (with its intake stamp) that could not yet be
    /// pushed to the RequestQueue. While present, the connection is not
    /// read — this is the backpressure point of §V-E: paused reads fill
    /// the client's TCP buffers and eventually block the client.
    pending: Option<(Request, u64)>,
}

/// Most replies drained per wakeup while parked on an idle ReplyQueue
/// (bounds how long the thread defers its connection scan when a reply
/// burst lands; the busy path's `try_pop_all` drains everything queued).
const REPLY_BURST: usize = 1024;

/// Outbound bytes a connection may buffer before its client counts as a
/// slow reader and is dropped (the evented path's default cap). On the
/// in-memory transport the connection's bounded queue is the buffer.
const MAX_OUTBOUND_BYTES: usize = 256 * 1024;

impl ConnState {
    /// Queues one frame without blocking and pushes out what the
    /// transport will take. Returns false when the connection must be
    /// dropped: it broke, or its reader fell so far behind that the
    /// outbound buffer is full. A thread that blocked here instead would
    /// stall every other connection it owns, and shutdown with it.
    fn send(&mut self, frame: Vec<u8>) -> bool {
        match self.conn.try_send(frame, MAX_OUTBOUND_BYTES) {
            Ok(None) => self.flush(),
            Ok(Some(_)) | Err(_) => false,
        }
    }

    /// Writes buffered outbound bytes without blocking; returns false
    /// when the connection broke.
    fn flush(&mut self) -> bool {
        match self.conn.flush_out() {
            Ok(drained) => {
                self.backlog = !drained;
                true
            }
            Err(_) => false,
        }
    }
}

/// One thread of the ClientIO pool: owns a subset of connections, decodes
/// requests, probes the reply cache, forwards to the Batcher, and writes
/// replies handed over by the ServiceManager. Replies and newly accepted
/// connections are drained in bulk — one lock acquisition per burst.
pub(crate) fn run_client_io(ctx: &Ctx, index: usize) {
    let handle = ctx.metrics.register_thread(format!("ClientIO-{index}"));
    let mut conns: HashMap<u64, ConnState> = HashMap::new();
    let mut dead: Vec<u64> = Vec::new();
    let mut adopted: Vec<Box<dyn ClientConn>> = Vec::new();
    let mut replies: Vec<(u64, Reply)> = Vec::new();
    let mut step_downs = ctx.shared.step_downs();

    while !ctx.is_shutdown() {
        let mut did_work = false;

        // This replica stopped serving: tell every client at once rather
        // than letting each find out by timing out.
        if let Some(frame) = step_down_redirect(ctx, &mut step_downs) {
            did_work = true;
            for (id, state) in conns.iter_mut() {
                if !state.send(frame.clone()) {
                    dead.push(*id);
                }
            }
        }

        // Adopt newly accepted connections.
        if ctx.intake_qs[index].try_pop_all(&mut adopted).is_ok() {
            did_work = true;
            for conn in adopted.drain(..) {
                conns.insert(
                    conn.id(),
                    ConnState {
                        conn,
                        backlog: false,
                        pending: None,
                    },
                );
            }
        }

        // Write replies queued by the ServiceManager.
        match ctx.reply_qs[index].try_pop_all(&mut replies) {
            Ok(_) => {
                did_work = true;
                for (conn_id, reply) in replies.drain(..) {
                    deliver_reply(&mut conns, &mut dead, conn_id, reply);
                }
            }
            Err(PopError::Empty) => {}
            Err(PopError::Closed) => return,
        }

        // Retry pushes that were paused on a full RequestQueue, and
        // writes the socket could not take earlier.
        for (id, state) in conns.iter_mut() {
            if let Some(req) = state.pending.take() {
                match ctx.request_q.try_push(req) {
                    Ok(()) => did_work = true,
                    Err(PushError::Full(req)) => state.pending = Some(req),
                    Err(PushError::Closed(_)) => return,
                }
            }
            if state.backlog && !state.flush() {
                dead.push(*id);
            }
        }

        // Read from connections that are not paused.
        for (id, state) in conns.iter_mut() {
            if state.pending.is_some() {
                continue;
            }
            loop {
                match state.conn.try_recv() {
                    Ok(Some(frame)) => {
                        did_work = true;
                        if !handle_frame(ctx, index, state, &frame) {
                            dead.push(*id);
                            break;
                        }
                        if state.pending.is_some() {
                            break; // backpressure: stop reading this conn
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        dead.push(*id);
                        break;
                    }
                }
            }
        }
        for id in dead.drain(..) {
            if conns.remove(&id).is_some() {
                ctx.shared.unbind_conn(index, id);
            }
        }

        if !did_work {
            // Park on the reply queue: the most likely source of new work
            // when all connections are idle.
            match ctx.reply_qs[index].pop_wait_all_with(
                &mut replies,
                REPLY_BURST,
                Duration::from_millis(1),
                &handle,
            ) {
                Ok(_) => {
                    for (conn_id, reply) in replies.drain(..) {
                        deliver_reply(&mut conns, &mut dead, conn_id, reply);
                    }
                }
                Err(PopError::Empty) => {}
                Err(PopError::Closed) => return,
            }
        }
    }
}

fn deliver_reply(
    conns: &mut HashMap<u64, ConnState>,
    dead: &mut Vec<u64>,
    conn_id: u64,
    reply: Reply,
) {
    if let Some(state) = conns.get_mut(&conn_id) {
        if !state.send(ClientMsg::Reply(reply).encode_to_vec()) {
            dead.push(conn_id);
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
pub(crate) fn step_down_redirect(ctx: &Ctx, seen: &mut u64) -> Option<Vec<u8>> {
    let now = ctx.shared.step_downs();
    if now == *seen {
        return None;
    }
    *seen = now;
    (!ctx.shared.is_serving()).then(|| redirect_frame(ctx))
}

/// What a ClientIO loop must do with one inbound frame, as decided by
/// [`classify_frame`]. The threaded and evented paths share the
/// classification (decode, reply-cache probe, leader check, client
/// binding, RequestQueue push) and differ only in how they write
/// responses and park backpressured requests.
pub(crate) enum FrameAction {
    /// Write this pre-encoded frame (cache-hit reply or leader redirect)
    /// back to the client.
    Respond(Vec<u8>),
    /// Nothing further: stale duplicate ignored or request accepted into
    /// the RequestQueue.
    Continue,
    /// The RequestQueue is full (§V-E): hold the stamped request and stop
    /// reading this connection until it fits.
    Park((Request, u64)),
    /// Drop the connection (undecodable frame, non-request message, or
    /// closed RequestQueue).
    Drop,
}

/// Processes one inbound frame up to (and including) the RequestQueue
/// push, stamping intake for the stage-latency breakdown.
pub(crate) fn classify_frame(ctx: &Ctx, index: usize, conn_id: u64, frame: &[u8]) -> FrameAction {
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
    match ctx.request_q.try_push((request, stamp)) {
        Ok(()) => FrameAction::Continue,
        Err(PushError::Full(pending)) => FrameAction::Park(pending),
        Err(PushError::Closed(_)) => FrameAction::Drop,
    }
}

/// Processes one inbound frame; returns false if the connection should be
/// dropped.
fn handle_frame(ctx: &Ctx, index: usize, state: &mut ConnState, frame: &[u8]) -> bool {
    match classify_frame(ctx, index, state.conn.id(), frame) {
        FrameAction::Respond(f) => state.send(f),
        FrameAction::Continue => true,
        FrameAction::Park(pending) => {
            state.pending = Some(pending);
            true
        }
        FrameAction::Drop => false,
    }
}
