//! The ReplicaIO module (§V-B): one blocking sender and one blocking
//! receiver thread per peer.

use std::time::Duration;

use smr_metrics::ThreadState;
use smr_types::ReplicaId;
use smr_wire::{Codec, ProtocolMsg};

use super::{Ctx, Input};

/// Sender thread for one peer: drains the peer's SendQueue, serializes,
/// and writes to the network. Having a dedicated thread means the
/// Protocol thread never blocks on a slow or dead peer (§V-B), avoiding
/// the distributed-deadlock scenario the paper describes.
pub(crate) fn run_sender(ctx: &Ctx, peer: ReplicaId) {
    let handle = ctx
        .metrics
        .register_thread(format!("ReplicaIOSnd-{}", peer.0));
    loop {
        match ctx.send_qs[peer.index()].pop_with(&handle) {
            Ok(msg) => {
                let frame = msg.encode_to_vec();
                let sent = {
                    let _g = handle.enter(ThreadState::Other); // in send(2)
                    ctx.network.send_to(peer, frame)
                };
                if sent.is_err() {
                    if ctx.is_shutdown() {
                        return;
                    }
                    // Link down: drop the frame (retransmission recovers)
                    // and back off so reconnects aren't a busy loop.
                    let _g = handle.enter(ThreadState::Other);
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            Err(_) => return,
        }
    }
}

/// Receiver thread for one peer: blocks on the socket, deserializes, and
/// feeds the DispatcherQueue. The Protocol thread stamps arrivals for
/// failure detection when it handles them (§V-C3).
pub(crate) fn run_receiver(ctx: &Ctx, peer: ReplicaId) {
    let handle = ctx
        .metrics
        .register_thread(format!("ReplicaIORcv-{}", peer.0));
    loop {
        let frame = {
            let _g = handle.enter(ThreadState::Other); // blocked in recv(2)
            ctx.network.recv_from(peer)
        };
        match frame {
            Ok(frame) => match ProtocolMsg::decode(&frame) {
                Ok(msg) => {
                    if ctx
                        .dispatcher_q
                        .push_with(Input::Message { from: peer, msg }, &handle)
                        .is_err()
                    {
                        return;
                    }
                }
                Err(_) => {
                    // Corrupt frame: drop it; retransmission recovers.
                }
            },
            Err(_) => {
                if ctx.is_shutdown() {
                    return;
                }
                let _g = handle.enter(ThreadState::Other);
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}
