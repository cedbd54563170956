//! The simulated replica: the thread ensemble of Fig. 3 as sim tasks.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use smr_metrics::RunningStats;
use smr_paxos::{Action, BatchBuilder, Event, PaxosReplica, Target};
use smr_sim::{ConnId, Delivery, NodeId, Port, SimCtx, SimMutex, SimNet, SimQueue};
use smr_types::{ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum};
use smr_wire::{Batch, Codec, ProtocolMsg, Request};

use crate::costs::CostModel;

/// Receiving port for protocol messages from replica `q`.
pub(crate) fn peer_port(q: ReplicaId) -> Port {
    100 + q.0 as u32
}

/// Receiving port of ClientIO thread `i` at the leader.
pub(crate) fn cio_port(i: usize) -> Port {
    200 + i as u32
}

/// Receiving port of client `idx` on its own machine.
pub(crate) fn client_port(idx: usize) -> Port {
    1_000 + idx as u32
}

/// Directed replica connection id (for ACK scoping and coalescing).
pub(crate) fn replica_conn(from: ReplicaId, to: ReplicaId) -> ConnId {
    1_000_000 + from.0 as u64 * 256 + to.0 as u64
}

/// Messages on the simulated wire (and the SM→ClientIO hand-over).
#[derive(Debug, Clone)]
pub(crate) enum SimMsg {
    /// Client → leader.
    Request(Request),
    /// Leader → client.
    Reply(RequestId),
    /// Replica ↔ replica.
    Proto(ProtocolMsg),
    /// ServiceManager → ClientIO (local hand-over, not on the wire).
    ReplyOut(RequestId),
}

/// DispatcherQueue items.
pub(crate) enum Dispatch {
    Msg(ReplicaId, ProtocolMsg),
    ProposalReady,
}

/// Wire size of a client request frame (payload + headers).
pub(crate) fn request_bytes(payload: usize) -> usize {
    payload + 29
}

/// Wire size of a reply frame (8-byte answer + headers).
pub(crate) const REPLY_BYTES: usize = 37;

/// Critical-section length of a blocking queue operation (JPaxos used
/// JDK `LinkedBlockingQueue`s: one lock acquisition + signal per op).
/// This is what puts the Batcher ~15% in `blocked` in Fig. 8 — it
/// contends with every ClientIO thread on the RequestQueue and with the
/// Protocol thread on the ProposalQueue.
const QUEUE_CS_NS: u64 = 800;

/// Protocol-level statistics collected at the leader's Protocol thread.
#[derive(Debug, Default)]
pub(crate) struct ProtoStats {
    pub batch_requests: RunningStats,
    pub batch_bytes: RunningStats,
    pub window: RunningStats,
    pub instance_latency_ns: RunningStats,
    pub decided_batches: u64,
}

/// Everything the experiment harness needs to observe one replica.
pub(crate) struct ReplicaHandles {
    pub request_q: SimQueue<Request>,
    pub proposal_q: SimQueue<Batch>,
    pub dispatcher_q: SimQueue<Dispatch>,
    pub proto_stats: Rc<RefCell<ProtoStats>>,
}

/// Where each client lives, indexed by client id (= connection id).
pub(crate) struct ClientPlacement {
    pub node: NodeId,
    pub port: Port,
}

pub(crate) struct ReplicaParams {
    pub me: ReplicaId,
    pub node: NodeId,
    pub replica_nodes: Vec<NodeId>,
    pub config: ClusterConfig,
    pub costs: CostModel,
    pub cio_threads: usize,
    /// Clients table (only the leader replies).
    pub clients: Rc<Vec<ClientPlacement>>,
    pub serves_clients: bool,
    /// Gate for statistics: set true after warmup.
    pub measuring: Rc<Cell<bool>>,
}

/// Spawns the full thread ensemble of one replica. Thread names match
/// the paper's per-thread profiles (Fig. 8).
pub(crate) fn spawn_replica(
    ctx: &SimCtx,
    net: &SimNet<SimMsg>,
    p: ReplicaParams,
) -> ReplicaHandles {
    let cfg = &p.config;
    let request_q = SimQueue::new(ctx, "RequestQueue", cfg.request_queue_capacity());
    let proposal_q = SimQueue::new(ctx, "ProposalQueue", cfg.proposal_queue_capacity());
    let dispatcher_q: SimQueue<Dispatch> =
        SimQueue::new(ctx, "DispatcherQueue", cfg.dispatcher_queue_capacity());
    let decision_q: SimQueue<(u64, Batch)> =
        SimQueue::new(ctx, "DecisionQueue", cfg.decision_queue_capacity());
    let send_qs: Vec<SimQueue<ProtocolMsg>> = (0..cfg.n())
        .map(|q| SimQueue::new(ctx, format!("SendQueue-{q}"), cfg.send_queue_capacity()))
        .collect();
    let cio_qs: Vec<SimQueue<Delivery<SimMsg>>> = (0..p.cio_threads)
        .map(|i| SimQueue::new(ctx, format!("CioQueue-{i}"), 1_000_000))
        .collect();
    let proto_stats = Rc::new(RefCell::new(ProtoStats::default()));
    // The two hot queue locks of the ReplicationCore boundary.
    let rq_lock = SimMutex::new(ctx);
    let pq_lock = SimMutex::new(ctx);

    for (i, q) in cio_qs.iter().enumerate() {
        net.bind(p.node, cio_port(i), q.clone());
    }

    // --- ClientIO pool (§V-A) ------------------------------------------
    for (i, cio_q) in cio_qs.iter().enumerate() {
        let ctx2 = ctx.clone();
        let q = cio_q.clone();
        let request_q = request_q.clone();
        let net = net.clone();
        let clients = Rc::clone(&p.clients);
        let costs = p.costs;
        let node = p.node;
        let rq_lock = rq_lock.clone();
        ctx.spawn(p.node, format!("ClientIO-{i}"), async move {
            while let Some(d) = q.pop().await {
                match d.payload {
                    SimMsg::Request(req) => {
                        ctx2.cpu(costs.client_io_request_ns).await;
                        {
                            let _g = rq_lock.lock().await;
                            ctx2.cpu(QUEUE_CS_NS).await;
                        }
                        if !request_q.push(req).await {
                            return;
                        }
                    }
                    SimMsg::ReplyOut(id) => {
                        ctx2.cpu(costs.client_io_reply_ns).await;
                        let idx = id.client.0 as usize;
                        let place = &clients[idx];
                        net.send(
                            node,
                            place.node,
                            id.client.0,
                            place.port,
                            SimMsg::Reply(id),
                            REPLY_BYTES,
                            false,
                        );
                    }
                    _ => {}
                }
            }
        });
    }

    // --- Batcher (§V-C1) -----------------------------------------------
    {
        let ctx2 = ctx.clone();
        let request_q = request_q.clone();
        let proposal_q = proposal_q.clone();
        let dispatcher_q = dispatcher_q.clone();
        let costs = p.costs;
        let policy = cfg.batch();
        let rq_lock = rq_lock.clone();
        let pq_lock = pq_lock.clone();
        ctx.spawn(p.node, "Batcher", async move {
            let mut builder = BatchBuilder::new(policy);
            while let Some(req) = request_q.pop().await {
                {
                    let _g = rq_lock.lock().await;
                    ctx2.cpu(QUEUE_CS_NS).await;
                }
                ctx2.cpu(costs.batcher_per_request_ns).await;
                let mut ready = builder.push(req, ctx2.now());
                // Idle flush stands in for the batch timeout: at light
                // load a partial batch ships as soon as no request is
                // waiting.
                if ready.is_none() && request_q.is_empty() {
                    ready = builder.flush();
                }
                if let Some(batch) = ready {
                    ctx2.cpu(costs.batcher_per_batch_ns).await;
                    {
                        let _g = pq_lock.lock().await;
                        ctx2.cpu(QUEUE_CS_NS).await;
                    }
                    if !proposal_q.push(batch).await {
                        return;
                    }
                    if !dispatcher_q.push(Dispatch::ProposalReady).await {
                        return;
                    }
                }
            }
        });
    }

    // --- Protocol (§V-C2) ----------------------------------------------
    {
        let ctx2 = ctx.clone();
        let me = p.me;
        let config = cfg.clone();
        let proposal_q = proposal_q.clone();
        let dispatcher_q = dispatcher_q.clone();
        let decision_q = decision_q.clone();
        let send_qs = send_qs.clone();
        let costs = p.costs;
        let stats = Rc::clone(&proto_stats);
        let measuring = Rc::clone(&p.measuring);
        let pq_lock = pq_lock.clone();
        ctx.spawn(p.node, "Protocol", async move {
            let mut core = PaxosReplica::new(me, config.clone());
            let mut actions = Vec::new();
            let mut propose_times: HashMap<u64, u64> = HashMap::new();
            core.handle(Event::Init, 0, &mut actions);
            route_actions(
                &ctx2,
                &core,
                &mut actions,
                &send_qs,
                &decision_q,
                &stats,
                &measuring,
                &mut propose_times,
                me,
                &config,
            )
            .await;
            while let Some(item) = dispatcher_q.pop().await {
                match item {
                    Dispatch::Msg(from, msg) => {
                        ctx2.cpu(costs.protocol_per_msg_ns).await;
                        core.handle(Event::Message { from, msg }, ctx2.now(), &mut actions);
                        route_actions(
                            &ctx2,
                            &core,
                            &mut actions,
                            &send_qs,
                            &decision_q,
                            &stats,
                            &measuring,
                            &mut propose_times,
                            me,
                            &config,
                        )
                        .await;
                    }
                    Dispatch::ProposalReady => {}
                }
                // Start new ballots while the window has room (§V-C2:
                // taking a prepared batch is one queue pop).
                while core.window_open() {
                    let Some(batch) = proposal_q.try_pop() else {
                        break;
                    };
                    {
                        let _g = pq_lock.lock().await;
                        ctx2.cpu(QUEUE_CS_NS).await;
                    }
                    ctx2.cpu(costs.protocol_per_batch_ns).await;
                    core.handle(Event::Proposal(batch), ctx2.now(), &mut actions);
                    route_actions(
                        &ctx2,
                        &core,
                        &mut actions,
                        &send_qs,
                        &decision_q,
                        &stats,
                        &measuring,
                        &mut propose_times,
                        me,
                        &config,
                    )
                    .await;
                }
            }
        });
    }

    // --- ReplicaIO (§V-B): a sender and a receiver per peer -------------
    for q_id in cfg.peers(p.me) {
        // Sender.
        {
            let ctx2 = ctx.clone();
            let send_q = send_qs[q_id.index()].clone();
            let net = net.clone();
            let costs = p.costs;
            let me = p.me;
            let my_node = p.node;
            let peer_node = p.replica_nodes[q_id.index()];
            ctx.spawn(p.node, format!("ReplicaIOSnd-{}", q_id.0), async move {
                while let Some(msg) = send_q.pop().await {
                    ctx2.cpu(costs.replica_io_snd_ns).await;
                    let bytes = msg.encoded_len() + 8;
                    net.send(
                        my_node,
                        peer_node,
                        replica_conn(me, q_id),
                        peer_port(me),
                        SimMsg::Proto(msg),
                        bytes,
                        true,
                    );
                }
            });
        }
        // Receiver.
        {
            let ctx2 = ctx.clone();
            let ep: SimQueue<Delivery<SimMsg>> =
                SimQueue::new(ctx, format!("PeerIn-{}", q_id.0), 1_000_000);
            net.bind(p.node, peer_port(q_id), ep.clone());
            let dispatcher_q = dispatcher_q.clone();
            let costs = p.costs;
            ctx.spawn(p.node, format!("ReplicaIORcv-{}", q_id.0), async move {
                while let Some(d) = ep.pop().await {
                    if let SimMsg::Proto(msg) = d.payload {
                        ctx2.cpu(costs.replica_io_rcv_ns).await;
                        if !dispatcher_q.push(Dispatch::Msg(q_id, msg)).await {
                            return;
                        }
                    }
                }
            });
        }
    }

    // --- ServiceManager (§V-D), the paper's "Replica" thread ------------
    {
        let ctx2 = ctx.clone();
        let decision_q = decision_q.clone();
        let cio_qs = cio_qs.clone();
        let costs = p.costs;
        let serves = p.serves_clients;
        let node = p.node;
        let k = p.cio_threads;
        ctx.spawn(p.node, "Replica", async move {
            while let Some((_slot, batch)) = decision_q.pop().await {
                for req in batch.requests {
                    ctx2.cpu(costs.service_per_request_ns).await;
                    if serves {
                        let cio = req.id.client.0 as usize % k;
                        let _ = cio_qs[cio].try_push(Delivery {
                            src: node,
                            conn: req.id.client.0,
                            payload: SimMsg::ReplyOut(req.id),
                        });
                    }
                }
            }
        });
    }

    ReplicaHandles {
        request_q,
        proposal_q,
        dispatcher_q,
        proto_stats,
    }
}

/// Routes the protocol core's actions to queues and records leader-side
/// statistics.
#[allow(clippy::too_many_arguments)]
async fn route_actions(
    ctx: &SimCtx,
    core: &PaxosReplica,
    actions: &mut Vec<Action>,
    send_qs: &[SimQueue<ProtocolMsg>],
    decision_q: &SimQueue<(u64, Batch)>,
    stats: &Rc<RefCell<ProtoStats>>,
    measuring: &Rc<Cell<bool>>,
    propose_times: &mut HashMap<u64, u64>,
    me: ReplicaId,
    config: &ClusterConfig,
) {
    let drained: Vec<Action> = std::mem::take(actions);
    for action in drained {
        match action {
            Action::Send { to, msg } => {
                if let ProtocolMsg::Propose { slot, .. } = &msg {
                    propose_times.insert(slot.0, ctx.now());
                    if measuring.get() {
                        stats.borrow_mut().window.record(core.in_flight() as f64);
                    }
                }
                match to {
                    Target::All => {
                        for q in config.peers(me) {
                            let _ = send_qs[q.index()].try_push(msg.clone());
                        }
                    }
                    Target::One(q) => {
                        let _ = send_qs[q.index()].try_push(msg);
                    }
                }
            }
            Action::Deliver { slot, batch } => {
                if measuring.get() {
                    let mut s = stats.borrow_mut();
                    s.decided_batches += 1;
                    s.batch_requests.record(batch.len() as f64);
                    s.batch_bytes.record(batch.encoded_len() as f64);
                    if let Some(t0) = propose_times.remove(&slot.0) {
                        s.instance_latency_ns.record((ctx.now() - t0) as f64);
                    }
                } else {
                    propose_times.remove(&slot.0);
                }
                decision_q.push((slot.0, batch)).await;
            }
            // No failures are injected in the performance experiments, so
            // view-change bookkeeping and snapshot transfer are not
            // modeled.
            Action::LeaderChanged { .. }
            | Action::ServingChanged { .. }
            | Action::SendSnapshot { .. }
            | Action::InstallSnapshot { .. } => {}
        }
    }
}

/// Spawns one closed-loop client (§VI: persistent connection, next
/// request only after the previous reply).
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_client(
    ctx: &SimCtx,
    net: &SimNet<SimMsg>,
    idx: usize,
    my_node: NodeId,
    leader_node: NodeId,
    cio_threads: usize,
    payload: usize,
    completed: Rc<Cell<u64>>,
    measuring: Rc<Cell<bool>>,
) {
    let inbox: SimQueue<Delivery<SimMsg>> = SimQueue::new(ctx, format!("client-{idx}"), 16);
    net.bind(my_node, client_port(idx), inbox.clone());
    let ctx2 = ctx.clone();
    let net = net.clone();
    ctx.spawn(my_node, format!("client-{idx}"), async move {
        // Stagger start-up to avoid a synchronized thundering herd.
        ctx2.sleep((idx as u64 * 37_373) % 3_000_000).await;
        let mut seq = 0u64;
        loop {
            let req = Request::new(
                RequestId::new(ClientId(idx as u64), SeqNum(seq)),
                vec![0u8; payload],
            );
            seq += 1;
            net.send(
                my_node,
                leader_node,
                idx as u64,
                cio_port(idx % cio_threads),
                SimMsg::Request(req),
                request_bytes(payload),
                false,
            );
            let Some(delivery) = inbox.pop().await else {
                return;
            };
            if let SimMsg::Reply(id) = delivery.payload {
                debug_assert_eq!(id.client.0, idx as u64, "reply routed to its client");
                if measuring.get() {
                    completed.set(completed.get() + 1);
                }
            }
        }
    });
}
