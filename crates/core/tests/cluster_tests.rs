//! End-to-end integration tests of the threaded replica runtime over the
//! in-memory fabric: ordering, concurrency, failover, catch-up, and
//! at-most-once semantics.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use smr_core::{EventedIoOptions, InProcessCluster, KvService, NullService, SequencerService};
use smr_net::memory::MemoryHub;
use smr_net::{ClientEndpoint, NetError, ReplicaNetwork};
use smr_types::{BatchPolicy, ClientId, ClusterConfig, ReplicaId, RequestId, SeqNum, View};
use smr_wire::{ClientMsg, Codec, Request};

fn small_config(n: usize) -> ClusterConfig {
    ClusterConfig::builder(n)
        .heartbeat_interval(Duration::from_millis(40))
        .suspect_timeout(Duration::from_millis(200))
        .build()
        .unwrap()
}

#[test]
fn null_service_roundtrip() {
    let cluster = InProcessCluster::start(small_config(3), |_| Box::new(NullService::new(8)));
    let mut client = cluster.client();
    for _ in 0..20 {
        let reply = client.execute(&[7u8; 128]).unwrap();
        assert_eq!(reply.len(), 8);
    }
    cluster.shutdown();
}

#[test]
fn kv_state_is_replicated_consistently() {
    let cluster = InProcessCluster::start(small_config(3), |_| Box::new(KvService::new()));
    let mut client = cluster.client();
    for i in 0..50u32 {
        let key = format!("key-{}", i % 10);
        let value = format!("value-{i}");
        client
            .execute(&KvService::put(key.as_bytes(), value.as_bytes()))
            .unwrap();
    }
    for i in 40..50u32 {
        let key = format!("key-{}", i % 10);
        let got = client.execute(&KvService::get(key.as_bytes())).unwrap();
        assert_eq!(
            KvService::decode_value(&got),
            Some(format!("value-{i}").into_bytes())
        );
    }
    cluster.shutdown();
}

#[test]
fn many_concurrent_clients_get_unique_sequence_numbers() {
    // The sequencer service hands out gap-free unique numbers only if
    // every replica executes the same total order exactly once.
    let cluster = Arc::new(InProcessCluster::start(small_config(3), |_| {
        Box::new(SequencerService::new())
    }));
    let clients = 16;
    let per_client = 25;
    let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = (0..clients)
        .map(|_| {
            let cluster = Arc::clone(&cluster);
            let seen = Arc::clone(&seen);
            std::thread::spawn(move || {
                let mut client = cluster.client();
                for _ in 0..per_client {
                    let reply = client.execute(b"ticket").unwrap();
                    let n = SequencerService::decode(&reply).unwrap();
                    seen.lock().unwrap().push(n);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let mut values = seen.lock().unwrap().clone();
    values.sort_unstable();
    let unique: HashSet<u64> = values.iter().copied().collect();
    assert_eq!(unique.len(), clients * per_client, "every ticket unique");
    assert_eq!(
        *values.last().unwrap(),
        (clients * per_client - 1) as u64,
        "gap-free"
    );
    Arc::into_inner(cluster)
        .expect("all clients done")
        .shutdown();
}

#[test]
fn leader_crash_elects_new_leader_and_keeps_serving() {
    let cluster = InProcessCluster::start(small_config(3), |_| Box::new(KvService::new()));
    let mut client = cluster.client();
    client
        .execute(&KvService::put(b"before", b"crash"))
        .unwrap();
    // Kill the leader (replica 0 leads view 0) at the network level.
    cluster.crash(ReplicaId(0));
    // The cluster must recover: new leader elected, old data preserved.
    let got = client.execute(&KvService::get(b"before")).unwrap();
    assert_eq!(KvService::decode_value(&got), Some(b"crash".to_vec()));
    client.execute(&KvService::put(b"after", b"crash")).unwrap();
    let got = client.execute(&KvService::get(b"after")).unwrap();
    assert_eq!(KvService::decode_value(&got), Some(b"crash".to_vec()));
    // A new leader is in place on the survivors.
    let v1 = cluster.replica(ReplicaId(1)).shared().view();
    let v2 = cluster.replica(ReplicaId(2)).shared().view();
    assert!(
        v1.0 > 0 || v2.0 > 0,
        "view advanced past the crashed leader"
    );
    cluster.shutdown();
}

/// Cuts off the leader of view 0 under closed-loop client load and
/// checks the failover budget: a request sent after the cut is answered
/// by the new leader within 300 ms, a connection whose request the old
/// leader admitted is redirected without asking again, and healing
/// causes no second view change.
fn isolated_leader_fails_over(cluster: InProcessCluster) {
    let cluster = Arc::new(cluster);
    cluster
        .client()
        .execute(&KvService::put(b"warm", b"up"))
        .unwrap();
    // A raw connection to the leader, served once so that its ClientIO
    // thread owns it.
    let mut raw = cluster.hub().connect_client(ReplicaId(0)).unwrap();
    let raw_request = |seq: u64| {
        let request = Request::new(
            RequestId::new(ClientId(9_999), SeqNum(seq)),
            KvService::put(b"raw", &seq.to_le_bytes()),
        );
        ClientMsg::Request(request).encode_to_vec()
    };
    raw.send(raw_request(0)).unwrap();
    let first = raw.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
    assert!(matches!(ClientMsg::decode(&first), Ok(ClientMsg::Reply(_))));
    let stop = Arc::new(AtomicBool::new(false));
    let load: Vec<_> = (0..3)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = cluster.client();
                let mut i = 0u32;
                while !stop.load(Ordering::Relaxed) {
                    let key = format!("load-{t}-{}", i % 16);
                    client
                        .execute(&KvService::put(key.as_bytes(), &i.to_le_bytes()))
                        .expect("load client served across the failover");
                    i += 1;
                }
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    cluster.crash(ReplicaId(0)); // leader of view 0
    let cut = Instant::now();
    raw.send(raw_request(1)).unwrap();
    // A client that starts at the old leader, as its connected clients do.
    let mut probe = cluster.client();
    probe
        .execute(&KvService::put(b"after", b"cut"))
        .expect("request sent after the cut");
    let answered = cut.elapsed();
    assert!(
        answered <= Duration::from_millis(300),
        "answered {answered:?} after the cut"
    );
    // Only a serving leader admits requests, and it is a new one.
    let old = cluster.replica(ReplicaId(0)).shared();
    assert!(!old.is_serving(), "the cut-off leader stopped serving");
    assert_eq!(old.view(), View(0), "and kept its view");
    assert!((1..3).any(|r| cluster.replica(ReplicaId(r)).shared().is_serving()));
    // The raw connection's request was admitted before the step-down and
    // can never be decided there: the step-down itself tells it to move.
    let frame = raw.recv_timeout(Duration::from_secs(2)).unwrap();
    let frame = frame.expect("redirected without sending again");
    assert!(
        matches!(
            ClientMsg::decode(&frame),
            Ok(ClientMsg::Redirect { leader: None })
        ),
        "{:?}",
        ClientMsg::decode(&frame)
    );

    cluster.heal(ReplicaId(0));
    std::thread::sleep(Duration::from_millis(400));
    stop.store(true, Ordering::Relaxed);
    for t in load {
        t.join().unwrap();
    }
    for r in 0..3 {
        assert_eq!(
            cluster.replica(ReplicaId(r)).shared().view(),
            View(1),
            "replica {r}: healing caused no second view change"
        );
    }
    Arc::into_inner(cluster)
        .expect("load clients done")
        .shutdown();
}

// Default failure-detector settings: 20 ms heartbeats, 100 ms floor.
// There is one ClientIO loop; the pair keeps the names of the two loops
// it replaced and covers its two ways of being configured: from the
// defaults, and through `with_evented_client_io`.

#[test]
fn isolated_leader_fails_over_within_300ms_threaded_client_io() {
    isolated_leader_fails_over(InProcessCluster::start(ClusterConfig::new(3), |_| {
        Box::new(KvService::new())
    }));
}

#[test]
fn isolated_leader_fails_over_within_300ms_evented_client_io() {
    isolated_leader_fails_over(InProcessCluster::start_with(
        ClusterConfig::new(3),
        |_, builder| {
            builder
                .with_service(Box::new(KvService::new()))
                .with_evented_client_io(2, EventedIoOptions::default())
        },
    ));
}

#[test]
fn minority_crash_does_not_block_n5() {
    let cluster = InProcessCluster::start(small_config(5), |_| Box::new(NullService::new(8)));
    let mut client = cluster.client();
    client.execute(b"warmup").unwrap();
    cluster.crash(ReplicaId(3));
    cluster.crash(ReplicaId(4));
    for _ in 0..10 {
        client.execute(&[1u8; 64]).unwrap();
    }
    cluster.shutdown();
}

#[test]
fn healed_replica_catches_up() {
    let cluster = InProcessCluster::start(small_config(3), |_| Box::new(NullService::new(8)));
    let mut client = cluster.client();
    client.execute(b"w").unwrap();
    // Partition replica 2 away, then push traffic through the other two.
    cluster.crash(ReplicaId(2));
    for _ in 0..30 {
        client.execute(&[2u8; 64]).unwrap();
    }
    let frontier_leader = cluster.replica(ReplicaId(0)).shared().decided_upto();
    assert!(frontier_leader.0 > 0);
    // Heal and wait for catch-up (driven by heartbeats + catch-up query).
    cluster.heal(ReplicaId(2));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let behind = cluster.replica(ReplicaId(2)).shared().decided_upto();
        if behind >= frontier_leader {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "replica 2 stuck at {behind} < {frontier_leader}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    cluster.shutdown();
}

#[test]
fn lossy_network_still_makes_progress() {
    let cluster = InProcessCluster::start(small_config(3), |_| Box::new(NullService::new(8)));
    cluster.hub().set_loss(0.05); // 5% frame loss on replica links
    let mut client = cluster.client();
    for _ in 0..30 {
        client.execute(&[3u8; 64]).unwrap();
    }
    cluster.shutdown();
}

#[test]
fn per_thread_profiles_are_collected() {
    let cluster = InProcessCluster::start(small_config(3), |_| Box::new(NullService::new(8)));
    let mut client = cluster.client();
    for _ in 0..50 {
        client.execute(&[0u8; 128]).unwrap();
    }
    let snapshot = cluster.replica(ReplicaId(0)).metrics().snapshot();
    let names: Vec<&str> = snapshot.threads.iter().map(|t| t.name.as_str()).collect();
    for expected in ["ClientIO-0", "Protocol", "Replica"] {
        assert!(
            names.contains(&expected),
            "profile for {expected} missing: {names:?}"
        );
    }
    // Batching, failure detection and retransmission run inside the
    // Protocol thread.
    assert!(!names.contains(&"Batcher"), "{names:?}");
    assert!(!names.contains(&"FailureDetector"), "{names:?}");
    assert!(!names.contains(&"Retransmitter"), "{names:?}");
    // The paper's key property: time is overwhelmingly waiting, not
    // blocked, at low load.
    let table = snapshot.render_table();
    assert!(table.contains("busy%"));
    cluster.shutdown();
}

#[test]
fn duplicate_requests_execute_once() {
    // A sequencer makes duplicate execution visible: re-executing would
    // burn a ticket.
    let cluster = InProcessCluster::start(small_config(3), |_| Box::new(SequencerService::new()));
    let mut c1 = cluster.client();
    let first = SequencerService::decode(&c1.execute(b"t").unwrap()).unwrap();
    let second = SequencerService::decode(&c1.execute(b"t").unwrap()).unwrap();
    assert_eq!((first, second), (0, 1));
    // A fresh client continues the sequence: still no gaps.
    let mut c2 = cluster.client();
    let third = SequencerService::decode(&c2.execute(b"t").unwrap()).unwrap();
    assert_eq!(third, 2);
    cluster.shutdown();
}

/// The metrics snapshot exports the ReplicationCore's queues with their
/// depths: requests go from the RequestQueue straight to the Protocol
/// thread, so there is no ProposalQueue.
#[test]
fn queue_lengths_observable() {
    let cluster = InProcessCluster::start(small_config(3), |_| Box::new(NullService::new(8)));
    cluster.client().execute(&[1u8; 16]).unwrap();
    let snapshot = cluster.replica(ReplicaId(0)).metrics_snapshot();
    let names: Vec<&str> = snapshot.queues.iter().map(|q| q.name.as_str()).collect();
    for expected in ["RequestQueue", "DispatcherQueue", "DecisionQueue"] {
        let queue = snapshot.queue(expected);
        let queue = queue.unwrap_or_else(|| panic!("{expected} missing: {names:?}"));
        assert!(queue.depth <= queue.capacity, "{queue:?}");
    }
    assert!(!names.contains(&"ProposalQueue"), "{names:?}");
    cluster.shutdown();
}

/// Times the DispatcherQueue's pops had to wait, on replica `id`.
fn dispatcher_pop_waits(cluster: &InProcessCluster, id: ReplicaId) -> u64 {
    cluster
        .replica(id)
        .metrics_snapshot()
        .queues
        .iter()
        .find(|q| q.name == "DispatcherQueue")
        .expect("DispatcherQueue is registered")
        .pop_waits
}

/// An idle Protocol thread has no open batch whose deadline could bound
/// its wait, so it wakes for its ticks (every `heartbeat_interval / 2`,
/// 10 ms by default) and for heartbeats, not on a fixed short park: over
/// one second each replica's DispatcherQueue pop waits at most 400 times
/// (a 1 ms park would wait ~1000 times).
#[test]
fn idle_protocol_thread_wakes_for_ticks_not_a_short_park() {
    let cluster = InProcessCluster::start(ClusterConfig::new(3), |_| Box::new(NullService::new(8)));
    cluster.client().execute(&[1u8; 16]).unwrap();
    let ids: Vec<ReplicaId> = cluster.config().replicas().collect();
    let before: Vec<u64> = ids
        .iter()
        .map(|&id| dispatcher_pop_waits(&cluster, id))
        .collect();
    let started = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let elapsed = started.elapsed();
    for (&id, before) in ids.iter().zip(before) {
        let waits = dispatcher_pop_waits(&cluster, id) - before;
        assert!(
            waits <= 400,
            "replica {id}: {waits} DispatcherQueue pop waits in {elapsed:?} of idling"
        );
    }
    cluster.shutdown();
}

/// ClientIO wakes the Protocol thread when it queues a request, and the
/// open batch's deadline bounds the Protocol thread's wait. With a 400 ms
/// heartbeat the Protocol thread ticks every 200 ms, and on an idle
/// cluster nothing else would wake it: a request that waited for the tick
/// would take 100 ms on average. Sequential requests must instead come
/// back in a small fraction of a tick.
#[test]
fn proposals_wake_the_protocol_thread_between_ticks() {
    let config = ClusterConfig::builder(3)
        .heartbeat_interval(Duration::from_millis(400))
        .suspect_timeout(Duration::from_secs(2))
        .batch(BatchPolicy {
            timeout: Duration::from_millis(1),
            ..BatchPolicy::default()
        })
        .build()
        .unwrap();
    let cluster = InProcessCluster::start(config, |_| Box::new(NullService::new(8)));
    let mut client = cluster.client();
    client.execute(&[1u8; 16]).unwrap();
    let rounds = 20u32;
    let started = Instant::now();
    for _ in 0..rounds {
        client.execute(&[2u8; 16]).unwrap();
    }
    let mean = started.elapsed() / rounds;
    assert!(
        mean < Duration::from_millis(50),
        "mean round trip {mean:?} against a 200 ms tick"
    );
    cluster.shutdown();
}

/// A DispatcherQueue of capacity 1 is often full of peer messages, so it
/// refuses many of ClientIO's request notices. None may strand a request:
/// the Protocol thread clears the notice flag at the top of every pass,
/// and a full queue means a pass is coming. A stranded request would wait
/// for the 200 ms tick; four concurrent clients must instead see a mean
/// round trip far below it.
#[test]
fn refused_request_notices_strand_no_request() {
    let config = ClusterConfig::builder(3)
        .heartbeat_interval(Duration::from_millis(400))
        .suspect_timeout(Duration::from_secs(2))
        .dispatcher_queue_capacity(1)
        .batch(BatchPolicy {
            timeout: Duration::from_millis(1),
            ..BatchPolicy::default()
        })
        .build()
        .unwrap();
    let cluster = InProcessCluster::start(config, |_| Box::new(NullService::new(8)));
    cluster.client().execute(&[1u8; 16]).unwrap();
    let (clients, rounds) = (4u32, 200u32);
    let total: Duration = std::thread::scope(|s| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                let mut client = cluster.client();
                s.spawn(move || {
                    let started = Instant::now();
                    for _ in 0..rounds {
                        client.execute(&[2u8; 16]).unwrap();
                    }
                    started.elapsed()
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).sum()
    });
    let mean = total / (clients * rounds);
    assert!(
        mean < Duration::from_millis(50),
        "mean round trip {mean:?} against a 200 ms tick"
    );
    cluster.shutdown();
}

/// Items pushed to the DispatcherQueue of replica `id` so far.
fn dispatcher_pushes(cluster: &InProcessCluster, id: ReplicaId) -> u64 {
    cluster
        .replica(id)
        .metrics_snapshot()
        .queue("DispatcherQueue")
        .expect("DispatcherQueue is registered")
        .pushed
}

/// ClientIO tells the Protocol thread about requests once per batch, not
/// once per request: the first request opens a batch, and the requests
/// that join it before its deadline, which cannot fill it, send no
/// notice. A lone replica has no peer messages, so its DispatcherQueue
/// carries only the notices. Twenty requests arrive a little apart, each
/// on its own connection, and all of them must be answered by the 200 ms
/// batch deadline: the Protocol thread pops them on that deadline before
/// it seals the batch. The 4 s heartbeat keeps the 2 s tick, whose pass
/// would pop them too, out of the batch's window in most runs.
#[test]
fn requests_joining_an_open_batch_send_no_notice() {
    let config = ClusterConfig::builder(1)
        .heartbeat_interval(Duration::from_secs(4))
        .suspect_timeout(Duration::from_secs(10))
        .batch(BatchPolicy {
            max_bytes: 1 << 20,
            timeout: Duration::from_millis(200),
            ..BatchPolicy::default()
        })
        .build()
        .unwrap();
    let cluster = InProcessCluster::start(config, |_| Box::new(NullService::new(8)));
    cluster.client().execute(&[1u8; 16]).unwrap();
    let mut conns: Vec<_> = (0..20)
        .map(|_| cluster.hub().connect_client(ReplicaId(0)).unwrap())
        .collect();
    // Let ClientIO adopt the connections before counting.
    std::thread::sleep(Duration::from_millis(50));
    let before = dispatcher_pushes(&cluster, ReplicaId(0));
    let started = Instant::now();
    for (i, conn) in conns.iter_mut().enumerate() {
        let request = Request::new(
            RequestId::new(ClientId(5000 + i as u64), SeqNum(0)),
            vec![2u8; 16],
        );
        conn.send(ClientMsg::Request(request).encode_to_vec())
            .unwrap();
        std::thread::sleep(Duration::from_micros(500));
    }
    for (i, conn) in conns.iter_mut().enumerate() {
        match conn.recv_timeout(Duration::from_secs(2)) {
            Ok(Some(frame)) => assert!(
                matches!(ClientMsg::decode(&frame), Ok(ClientMsg::Reply(_))),
                "connection {i} got no reply"
            ),
            other => panic!("connection {i}: {other:?}"),
        }
    }
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(300),
        "20 requests answered in {took:?} against a 200 ms batch delay"
    );
    let notices = dispatcher_pushes(&cluster, ReplicaId(0)) - before;
    assert!(notices <= 4, "{notices} request notices for one batch");
    cluster.shutdown();
}

/// A replica network that counts the frames its replica sends.
struct CountingNetwork {
    inner: Arc<dyn ReplicaNetwork>,
    frames: Arc<AtomicU64>,
}

impl ReplicaNetwork for CountingNetwork {
    fn send_to(&self, peer: ReplicaId, frame: Vec<u8>) -> Result<(), NetError> {
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.inner.send_to(peer, frame)
    }

    fn recv_from(&self, peer: ReplicaId) -> Result<Vec<u8>, NetError> {
        self.inner.recv_from(peer)
    }

    fn shutdown(&self) {
        self.inner.shutdown();
    }
}

/// With three replicas a consensus instance is four peer frames: the
/// leader's Propose to each follower and each follower's Accept back to
/// the leader. A follower decides on the Propose, so the other follower's
/// Accept would carry nothing (broadcasting it costs six frames). The
/// 400 ms heartbeat keeps heartbeats out of the count.
#[test]
fn n3_instance_costs_four_peer_frames() {
    let config = ClusterConfig::builder(3)
        .heartbeat_interval(Duration::from_millis(400))
        .suspect_timeout(Duration::from_secs(2))
        .batch(BatchPolicy {
            timeout: Duration::from_millis(1),
            ..BatchPolicy::default()
        })
        .build()
        .unwrap();
    let fabric = MemoryHub::new(3, 7);
    let frames = Arc::new(AtomicU64::new(0));
    let cluster = InProcessCluster::start_with(config, |id, builder| {
        let network = CountingNetwork {
            inner: Arc::new(fabric.replica_network(id)),
            frames: Arc::clone(&frames),
        };
        builder
            .with_service(Box::new(NullService::new(8)))
            .with_network(Arc::new(network))
    });
    let ids: Vec<ReplicaId> = cluster.config().replicas().collect();
    let decided = |id: ReplicaId| cluster.replica(id).shared().decided_upto().0;
    // Every replica has decided everything the leader has, and the
    // frames that did it have left the senders.
    let settle = || {
        let deadline = Instant::now() + Duration::from_secs(5);
        while ids.iter().any(|&id| decided(id) < decided(ReplicaId(0))) {
            assert!(Instant::now() < deadline, "followers caught up");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut client = cluster.client();
    client.execute(&[1u8; 16]).unwrap();
    settle();
    let (frames_before, slots_before) = (frames.load(Ordering::Relaxed), decided(ReplicaId(0)));
    for _ in 0..50 {
        client.execute(&[2u8; 16]).unwrap();
    }
    settle();
    let sent = frames.load(Ordering::Relaxed) - frames_before;
    let slots = decided(ReplicaId(0)) - slots_before;
    assert!(slots >= 50, "{slots} slots decided for 50 requests");
    let per_slot = sent as f64 / slots as f64;
    assert!(
        per_slot <= 4.5,
        "{sent} peer frames for {slots} slots: {per_slot:.2} per slot"
    );
    cluster.shutdown();
    fabric.shutdown();
}
