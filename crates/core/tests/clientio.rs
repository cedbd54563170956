//! End-to-end tests of ClientIO, the readiness-loop client path: it must
//! return the replies a local copy of the service computes and leave the
//! replicas converged, isolate slow readers behind per-connection
//! outbound buffering (and drop, and count, one that passes its overflow
//! cap), tolerate large numbers of idle connections, and forget the
//! routes of closed connections. Its first thread accepts: connections
//! are dealt round-robin, a new one is served without waiting for a
//! tick, a failed accept does not end accepting, and a request waiting
//! at start is answered rather than redirected.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smr_core::{
    ConcurrentKvService, ConflictAwareService, EventedIoOptions, InProcessCluster, KvService,
    ReplicaBuilder, ServiceState, SmrClient,
};
use smr_net::memory::{MemoryClientEndpoint, MemoryClientListener, MemoryHub};
use smr_net::{ClientConn, ClientEndpoint, ClientListener, NetError};
use smr_types::{ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum};
use smr_wire::{ClientMsg, Codec, Request};

fn small_config(n: usize) -> ClusterConfig {
    ClusterConfig::builder(n)
        .heartbeat_interval(Duration::from_millis(40))
        .suspect_timeout(Duration::from_millis(200))
        .build()
        .unwrap()
}

fn workload() -> Vec<Vec<u8>> {
    // Conflict-heavy: 8 keys, interleaved puts/gets/deletes.
    let mut ops = Vec::new();
    for round in 0..30u8 {
        for key in 0..8u8 {
            let k = [b'k', key];
            ops.push(match (round + key) % 4 {
                0 | 1 => KvService::put(&k, &[round, key]),
                2 => KvService::get(&k),
                _ => KvService::delete(&k),
            });
        }
    }
    ops
}

/// Waits until every replica's service has converged to one state hash
/// (followers apply decisions asynchronously) and returns it.
fn converged_hash(services: &[Arc<ConcurrentKvService>]) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let hashes: Vec<u64> = services.iter().map(|s| s.state_hash()).collect();
        if hashes.windows(2).all(|w| w[0] == w[1]) {
            return hashes[0];
        }
        assert!(
            Instant::now() < deadline,
            "replicas did not converge: {hashes:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn replies_match_a_local_oracle_and_replicas_converge() {
    let ops = workload();
    let services: Vec<Arc<ConcurrentKvService>> = (0..3)
        .map(|_| Arc::new(ConcurrentKvService::default()))
        .collect();
    let cluster = {
        let services = services.clone();
        InProcessCluster::start_with(small_config(3), move |id, builder| {
            builder
                .with_service(Box::new(Arc::clone(&services[id.index()])))
                .with_evented_client_io(2, EventedIoOptions::default())
        })
    };
    // One client issues the ops in order, so the log holds them in that
    // order and a local copy applying them sequentially is the oracle.
    let oracle = ConcurrentKvService::default();
    let mut client = cluster.client();
    for (i, op) in ops.iter().enumerate() {
        let reply = client.execute(op).unwrap();
        assert_eq!(reply, oracle.execute(op), "reply to op {i}");
    }
    let hash = converged_hash(&services);
    cluster.shutdown();

    assert_eq!(
        hash,
        oracle.state_hash(),
        "replicas hold the oracle's state"
    );
    assert_eq!(
        services[0].entries(),
        oracle.entries(),
        "bit-identical entries"
    );
}

/// An in-memory connection rings its eventfd when it queues a request, so
/// ClientIO reads it at once rather than on its scan tick. With a 10 s
/// tick, a request that waited for a scan would take seconds; sequential
/// requests must come back in a few batch delays (5 ms) instead.
#[test]
fn in_memory_requests_wake_client_io_before_its_tick() {
    let cluster = InProcessCluster::start_with(small_config(1), |_, builder| {
        builder
            .with_service(Box::new(KvService::new()))
            .with_evented_client_io(
                1,
                EventedIoOptions {
                    tick: Duration::from_secs(10),
                    ..Default::default()
                },
            )
    });
    let mut client = cluster.client();
    client
        .execute(&KvService::put(b"warmup", b"1"))
        .expect("warm-up op");
    let rounds = 20u32;
    let started = Instant::now();
    for i in 0..rounds {
        client
            .execute(&KvService::put(b"k", &i.to_le_bytes()))
            .unwrap();
    }
    let mean = started.elapsed() / rounds;
    assert!(
        mean < Duration::from_millis(50),
        "mean round trip {mean:?} against a 10 s scan tick"
    );
    cluster.shutdown();
}

#[test]
fn slow_reader_does_not_stall_other_clients() {
    // Single replica, single ClientIO thread: the slow reader and
    // the healthy client share one loop, so any blocking send to the slow
    // reader would stall the healthy client's replies.
    let cluster = InProcessCluster::start_with(small_config(1), |_, builder| {
        builder
            .with_service(Box::new(KvService::new()))
            .with_evented_client_io(1, EventedIoOptions::default())
    });

    // Establish leadership first: a raw connection gets a Redirect (not a
    // Reply) for anything sent before the election settles, and unlike a
    // real client it never retries.
    let mut client = cluster.client();
    client
        .execute(&KvService::put(b"warmup", b"1"))
        .expect("warm-up op");

    // A raw connection that sends requests but never reads replies. The
    // in-memory outbound queue holds 64 frames; past that, `try_send`
    // refuses and the loop must park replies in the connection's
    // overflow buffer instead of blocking.
    const SLOW_REQUESTS: u64 = 120;
    let mut slow = cluster
        .hub()
        .connect_client(ReplicaId(0))
        .expect("connect raw client");
    for seq in 0..SLOW_REQUESTS {
        let request = Request::new(
            RequestId::new(ClientId(7777), SeqNum(seq)),
            KvService::put(b"slow", &seq.to_le_bytes()),
        );
        slow.send(ClientMsg::Request(request).encode_to_vec())
            .expect("slow client send");
    }

    // While the slow reader's replies pile up, a normal client must keep
    // making progress on the same ClientIO thread.
    for i in 0..40u32 {
        client
            .execute(&KvService::put(b"healthy", &i.to_le_bytes()))
            .expect("healthy client must not be stalled by the slow reader");
    }

    // Once the slow reader finally drains, every buffered reply must
    // arrive: nothing was dropped while it overflowed the transport.
    let mut got = 0u64;
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < SLOW_REQUESTS {
        match slow.recv_timeout(Duration::from_millis(500)) {
            Ok(Some(frame)) => {
                if let Ok(ClientMsg::Reply(_)) = ClientMsg::decode(&frame) {
                    got += 1;
                }
            }
            Ok(None) => {}
            Err(e) => panic!("slow client connection died: {e}"),
        }
        assert!(
            Instant::now() < deadline,
            "slow reader only recovered {got}/{SLOW_REQUESTS} replies"
        );
    }

    cluster.shutdown();
}

#[test]
fn a_reader_that_stopped_blocks_neither_clients_nor_shutdown() {
    // One replica, one ClientIO thread: the client that stops reading
    // and the healthy client share it.
    let config = ClusterConfig::builder(1)
        .client_io_threads(1)
        .build()
        .unwrap();
    let cluster = InProcessCluster::start(config, |_| Box::new(KvService::new()));
    let mut client = cluster.client();
    client
        .execute(&KvService::put(b"warmup", b"1"))
        .expect("warm-up op");

    // More requests than the connection's 64-frame outbound queue holds,
    // and no reads: a blocking send would wedge the thread here.
    let mut stalled = cluster
        .hub()
        .connect_client(ReplicaId(0))
        .expect("connect raw client");
    for seq in 0..120u64 {
        let request = Request::new(
            RequestId::new(ClientId(7777), SeqNum(seq)),
            KvService::put(b"stalled", &seq.to_le_bytes()),
        );
        stalled
            .send(ClientMsg::Request(request).encode_to_vec())
            .expect("stalled client send");
    }
    for i in 0..40u32 {
        client
            .execute(&KvService::put(b"healthy", &i.to_le_bytes()))
            .expect("healthy client must not be stalled by the stopped reader");
    }
    // The stopped reader stays connected (its overflow is far below the
    // default cap) through the shutdown, which must still finish
    // promptly.
    let started = Instant::now();
    cluster.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(2), "shutdown took {took:?}");
    drop(stalled);
}

#[test]
fn many_idle_connections_do_not_stall_active_clients() {
    const IDLE_CONNS: usize = 500;
    const OPS: u32 = 60;

    fn start() -> InProcessCluster {
        InProcessCluster::start_with(small_config(1), |_, builder| {
            builder
                .with_service(Box::new(KvService::new()))
                .with_evented_client_io(2, EventedIoOptions::default())
        })
    }

    fn timed_ops(cluster: &InProcessCluster) -> Duration {
        let mut client = cluster.client();
        let start = Instant::now();
        for i in 0..OPS {
            client
                .execute(&KvService::put(b"active", &i.to_le_bytes()))
                .unwrap();
        }
        start.elapsed()
    }

    // Baseline: no idle connections.
    let cluster = start();
    let baseline = timed_ops(&cluster);
    cluster.shutdown();

    // Same cluster shape with 500 connected-but-silent clients adopted
    // into the ClientIO loops before the workload starts.
    let cluster = start();
    let idle: Vec<_> = (0..IDLE_CONNS)
        .map(|_| cluster.hub().connect_client(ReplicaId(0)).unwrap())
        .collect();
    // Give ClientIO-0 a moment to deal all of them over the pool.
    std::thread::sleep(Duration::from_millis(200));
    let with_idle = timed_ops(&cluster);
    drop(idle);
    cluster.shutdown();

    // Idle connections cost at most a readiness check each; allow a
    // generous noise factor for a loaded single-core CI host.
    assert!(
        with_idle <= baseline * 4 + Duration::from_secs(2),
        "500 idle connections degraded throughput: baseline {baseline:?}, with idle {with_idle:?}"
    );
}

/// Opens and closes 200 connections, each sending one request under its
/// own client id, and checks that the replica's client table ends empty:
/// a closed connection takes its routes with it.
fn closed_connections_leave_no_routes(cluster: InProcessCluster) {
    const CONNS: u64 = 200;
    let mut client = cluster.client();
    client
        .execute(&KvService::put(b"warmup", b"1"))
        .expect("warm-up op");
    drop(client);
    for i in 0..CONNS {
        let mut conn = cluster
            .hub()
            .connect_client(ReplicaId(0))
            .expect("connect raw client");
        let request = Request::new(
            RequestId::new(ClientId(10_000 + i), SeqNum(0)),
            KvService::put(b"k", &i.to_le_bytes()),
        );
        conn.send(ClientMsg::Request(request).encode_to_vec())
            .expect("send request");
        match conn.recv_timeout(Duration::from_secs(5)) {
            Ok(Some(frame)) => assert!(
                matches!(ClientMsg::decode(&frame), Ok(ClientMsg::Reply(_))),
                "connection {i} got no reply"
            ),
            other => panic!("connection {i}: {other:?}"),
        }
    }
    let shared = cluster.replica(ReplicaId(0)).shared();
    let deadline = Instant::now() + Duration::from_secs(5);
    while shared.client_routes() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} client routes outlived their connections",
            shared.client_routes()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

// There is one ClientIO loop. The `threaded_`/`evented_` test pairs
// keep the names of the two loops it replaced and cover its two ways of
// being configured: `threaded_` starts from the defaults (the pool has
// `ClusterConfig::client_io_threads` threads), `evented_` sets the pool
// and its options through `with_evented_client_io`.

#[test]
fn threaded_client_io_forgets_routes_of_closed_connections() {
    let cluster = InProcessCluster::start(small_config(1), |_| Box::new(KvService::new()));
    closed_connections_leave_no_routes(cluster);
}

#[test]
fn evented_client_io_forgets_routes_of_closed_connections() {
    let cluster = InProcessCluster::start_with(small_config(1), |_, builder| {
        builder
            .with_service(Box::new(KvService::new()))
            .with_evented_client_io(2, EventedIoOptions::default())
    });
    closed_connections_leave_no_routes(cluster);
}

#[test]
fn reader_past_its_overflow_cap_is_dropped_and_counted() {
    // One replica, one ClientIO thread, and a cap of 4 overflow frames.
    let cluster = InProcessCluster::start_with(small_config(1), |_, builder| {
        builder
            .with_service(Box::new(KvService::new()))
            .with_evented_client_io(
                1,
                EventedIoOptions {
                    max_overflow_frames: 4,
                    ..Default::default()
                },
            )
    });
    let mut client = cluster.client();
    client
        .execute(&KvService::put(b"warmup", b"1"))
        .expect("warm-up op");

    // 120 replies, and no reads: the connection's 64-frame outbound
    // queue fills, then its overflow passes the cap.
    const STALLED: ClientId = ClientId(7777);
    let mut stalled = cluster
        .hub()
        .connect_client(ReplicaId(0))
        .expect("connect raw client");
    for seq in 0..120u64 {
        let request = Request::new(
            RequestId::new(STALLED, SeqNum(seq)),
            KvService::put(b"stalled", &seq.to_le_bytes()),
        );
        stalled
            .send(ClientMsg::Request(request).encode_to_vec())
            .expect("stalled client send");
    }
    for i in 0..40u32 {
        client
            .execute(&KvService::put(b"healthy", &i.to_le_bytes()))
            .expect("healthy client must not be stalled by the dropped reader");
    }

    // The replica closed the stalled connection: what it had queued
    // drains, then the connection reads as closed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while stalled.recv_timeout(Duration::from_millis(100)).is_ok() {
        assert!(
            Instant::now() < deadline,
            "stalled connection was never closed"
        );
    }
    let replica = cluster.replica(ReplicaId(0));
    assert_eq!(
        replica
            .metrics_snapshot()
            .counter("clientio.overflow_drops"),
        Some(1),
        "one connection dropped for passing its overflow cap"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    while replica.shared().client_route(STALLED).is_some() {
        assert!(
            Instant::now() < deadline,
            "the dropped connection's route outlived it"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

/// Sends one request under `client` on `conn` and waits for its reply.
fn request_reply(conn: &mut MemoryClientEndpoint, client: ClientId) {
    let request = Request::new(
        RequestId::new(client, SeqNum(0)),
        KvService::put(b"k", &client.0.to_le_bytes()),
    );
    conn.send(ClientMsg::Request(request).encode_to_vec())
        .expect("send request");
    match conn.recv_timeout(Duration::from_secs(5)) {
        Ok(Some(frame)) => assert!(
            matches!(ClientMsg::decode(&frame), Ok(ClientMsg::Reply(_))),
            "client {client:?} got no reply"
        ),
        other => panic!("client {client:?}: {other:?}"),
    }
}

/// Waits until the single replica of `cluster` orders requests, so a raw
/// connection is not redirected.
fn await_serving(cluster: &InProcessCluster) {
    let shared = cluster.replica(ReplicaId(0)).shared();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !shared.is_serving() {
        assert!(Instant::now() < deadline, "the replica never served");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// ClientIO-0 deals accepted connections over the pool round-robin
/// (§V-A), itself first: four connections of a pool of two land on
/// threads 0, 1, 0, 1, as the client routes they bind show.
#[test]
fn accepted_connections_are_dealt_round_robin() {
    let cluster = InProcessCluster::start_with(small_config(1), |_, builder| {
        builder
            .with_service(Box::new(KvService::new()))
            .with_evented_client_io(2, EventedIoOptions::default())
    });
    await_serving(&cluster);
    let clients: Vec<ClientId> = (0..4).map(|i| ClientId(500 + i)).collect();
    let mut conns = Vec::new();
    for &client in &clients {
        let mut conn = cluster
            .hub()
            .connect_client(ReplicaId(0))
            .expect("connect raw client");
        request_reply(&mut conn, client);
        conns.push(conn); // an open connection keeps its route
    }
    let shared = cluster.replica(ReplicaId(0)).shared();
    let threads: Vec<usize> = clients
        .iter()
        .map(|&c| {
            shared
                .client_route(c)
                .expect("route of an open connection")
                .0
        })
        .collect();
    assert_eq!(threads, [0, 1, 0, 1]);
    drop(conns);
    cluster.shutdown();
}

/// The in-memory listener rings its eventfd on every connect, and an idle
/// ClientIO waits on it: with a 10 s tick, a connection opened to a replica
/// that has been idle is answered in a few batch delays. (Without epoll
/// the listener is scanned every tick, so this holds only on Linux.)
#[cfg(target_os = "linux")]
#[test]
fn a_connection_to_an_idle_replica_is_served_before_the_tick() {
    let cluster = InProcessCluster::start_with(small_config(1), |_, builder| {
        builder
            .with_service(Box::new(KvService::new()))
            .with_evented_client_io(
                1,
                EventedIoOptions {
                    tick: Duration::from_secs(10),
                    ..Default::default()
                },
            )
    });
    cluster
        .client()
        .execute(&KvService::put(b"warmup", b"1"))
        .expect("warm-up op");
    std::thread::sleep(Duration::from_millis(100)); // idle
    let started = Instant::now();
    let mut conn = cluster
        .hub()
        .connect_client(ReplicaId(0))
        .expect("connect raw client");
    request_reply(&mut conn, ClientId(900));
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(50),
        "first reply after {took:?} against a 10 s scan tick"
    );
    drop(conn);
    cluster.shutdown();
}

/// The hub's listener, except that its first accept fails with an I/O
/// error, as `accept(2)` does with `EMFILE` when descriptors run out.
struct FailsOnce {
    inner: MemoryClientListener,
    failed: Arc<AtomicBool>,
}

impl FailsOnce {
    fn first_fails(&self) -> Result<(), NetError> {
        if self.failed.swap(true, Ordering::SeqCst) {
            Ok(())
        } else {
            Err(NetError::Io("Too many open files".into()))
        }
    }
}

impl ClientListener for FailsOnce {
    fn accept_timeout(&self, timeout: Duration) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        self.first_fails()?;
        self.inner.accept_timeout(timeout)
    }

    fn raw_fd(&self) -> Option<i32> {
        self.inner.raw_fd()
    }

    fn try_accept(&self) -> Result<Option<Box<dyn ClientConn>>, NetError> {
        self.first_fails()?;
        self.inner.try_accept()
    }
}

/// A failed accept is counted in `clientio.accept_errors` and retried; a
/// client that connects after it is still answered.
#[test]
fn a_failed_accept_does_not_end_accepting() {
    let hub = MemoryHub::new(1, 1);
    let failed = Arc::new(AtomicBool::new(false));
    let replica = ReplicaBuilder::new(ReplicaId(0), small_config(1))
        .with_service(Box::new(KvService::new()))
        .with_network(Arc::new(hub.replica_network(ReplicaId(0))))
        .with_client_listener(Box::new(FailsOnce {
            inner: hub.client_listener(ReplicaId(0)),
            failed: Arc::clone(&failed),
        }))
        .start()
        .expect("replica starts");
    let deadline = Instant::now() + Duration::from_secs(5);
    while !failed.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "the listener was never used");
        std::thread::sleep(Duration::from_millis(5));
    }
    let connector_hub = hub.clone();
    let mut client = SmrClient::new(
        ClientId(1),
        1,
        Box::new(move |r| connector_hub.connect_client(r).map(|ep| Box::new(ep) as _)),
    )
    .with_timeouts(Duration::from_millis(500), Duration::from_secs(5));
    client
        .execute(&KvService::put(b"after", b"the error"))
        .expect("a client connecting after a failed accept is answered");
    assert_eq!(
        replica.metrics_snapshot().counter("clientio.accept_errors"),
        Some(1)
    );
    replica.shutdown();
    hub.shutdown();
}

/// A request that is waiting when a single replica starts is answered,
/// not redirected: the replica handles the Protocol core's `Init`, which
/// makes it the serving leader, before ClientIO-0 takes its first
/// connection.
#[test]
fn a_request_waiting_at_start_is_not_redirected() {
    let hub = MemoryHub::new(1, 1);
    let mut conn = hub.connect_client(ReplicaId(0)).expect("connect");
    let request = Request::new(
        RequestId::new(ClientId(1), SeqNum(0)),
        KvService::put(b"k", b"v"),
    );
    conn.send(ClientMsg::Request(request).encode_to_vec())
        .expect("send request");
    let replica = ReplicaBuilder::new(ReplicaId(0), small_config(1))
        .with_service(Box::new(KvService::new()))
        .with_network(Arc::new(hub.replica_network(ReplicaId(0))))
        .with_client_listener(Box::new(hub.client_listener(ReplicaId(0))))
        .start()
        .expect("replica starts");
    let frame = conn
        .recv_timeout(Duration::from_secs(5))
        .expect("connection open")
        .expect("an answer");
    assert!(
        matches!(ClientMsg::decode(&frame), Ok(ClientMsg::Reply(_))),
        "{:?}",
        ClientMsg::decode(&frame)
    );
    replica.shutdown();
    hub.shutdown();
}
