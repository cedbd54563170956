//! End-to-end tests of ClientIO, the readiness-loop client path: it must
//! return the replies a local copy of the service computes and leave the
//! replicas converged, isolate slow readers behind per-connection
//! outbound buffering (and drop, and count, one that passes its overflow
//! cap), tolerate large numbers of idle connections, and forget the
//! routes of closed connections.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smr_core::{
    ConcurrentKvService, ConflictAwareService, EventedIoOptions, InProcessCluster, KvService,
    ServiceState,
};
use smr_net::ClientEndpoint;
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
    // Give the acceptor a moment to fan all of them into the pool.
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
