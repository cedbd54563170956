//! End-to-end tests of the evented ClientIO mode: the readiness-loop
//! client path must be indistinguishable from the thread-per-connection
//! default (same replies, same state), must isolate slow readers behind
//! per-connection outbound buffering, and must tolerate large numbers of
//! idle connections.

use std::sync::Arc;
use std::time::{Duration, Instant};

use smr_core::{ConcurrentKvService, EventedIoOptions, InProcessCluster, KvService, ServiceState};
use smr_types::{ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum};
use smr_wire::{ClientMsg, Codec, Request};

fn small_config(n: usize) -> ClusterConfig {
    ClusterConfig::builder(n)
        .heartbeat_interval(Duration::from_millis(40))
        .suspect_timeout(Duration::from_millis(200))
        .build()
        .unwrap()
}

/// Runs `ops` through a fresh cluster and returns the replies.
fn run_workload(cluster: &InProcessCluster, ops: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut client = cluster.client();
    ops.iter().map(|op| client.execute(op).unwrap()).collect()
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
fn evented_and_threaded_modes_produce_identical_state_and_replies() {
    let ops = workload();

    // Thread-per-connection mode (the compat default).
    let thr_services: Vec<Arc<ConcurrentKvService>> = (0..3)
        .map(|_| Arc::new(ConcurrentKvService::default()))
        .collect();
    let thr_cluster = {
        let services = thr_services.clone();
        InProcessCluster::start(small_config(3), move |id: ReplicaId| {
            Box::new(Arc::clone(&services[id.index()]))
        })
    };
    let thr_replies = run_workload(&thr_cluster, &ops);
    let thr_hash = converged_hash(&thr_services);
    thr_cluster.shutdown();

    // Evented mode: same service type, same workload, readiness-loop
    // ClientIO with a 2-thread pool.
    let ev_services: Vec<Arc<ConcurrentKvService>> = (0..3)
        .map(|_| Arc::new(ConcurrentKvService::default()))
        .collect();
    let ev_cluster = {
        let services = ev_services.clone();
        InProcessCluster::start_with(small_config(3), move |id, builder| {
            builder
                .with_service(Box::new(Arc::clone(&services[id.index()])))
                .with_evented_client_io(2, EventedIoOptions::default())
        })
    };
    let ev_replies = run_workload(&ev_cluster, &ops);
    let ev_hash = converged_hash(&ev_services);
    ev_cluster.shutdown();

    assert_eq!(thr_replies, ev_replies, "same replies in both modes");
    assert_eq!(thr_hash, ev_hash, "same final state in both modes");
    assert_eq!(
        thr_services[0].entries(),
        ev_services[0].entries(),
        "bit-identical entries"
    );
}

#[test]
fn slow_reader_does_not_stall_other_clients() {
    // Single replica, single evented ClientIO thread: the slow reader and
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
    // refuses and the evented loop must park replies in the connection's
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
        use smr_net::ClientEndpoint;
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
        use smr_net::ClientEndpoint;
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
fn threaded_client_io_drops_a_reader_that_stopped_instead_of_blocking() {
    // One replica, one thread-per-connection ClientIO thread: the client
    // that stops reading and the healthy client share it.
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
        use smr_net::ClientEndpoint;
        stalled
            .send(ClientMsg::Request(request).encode_to_vec())
            .expect("stalled client send");
    }
    for i in 0..40u32 {
        client
            .execute(&KvService::put(b"healthy", &i.to_le_bytes()))
            .expect("healthy client must not be stalled by the stopped reader");
    }
    // The stopped reader stays connected (never dropped) through the
    // shutdown, which must still finish promptly.
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

    fn start_evented() -> InProcessCluster {
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
    let cluster = start_evented();
    let baseline = timed_ops(&cluster);
    cluster.shutdown();

    // Same cluster shape with 500 connected-but-silent clients adopted
    // into the evented loops before the workload starts.
    let cluster = start_evented();
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
    use smr_net::ClientEndpoint;
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
