//! Crash recovery and snapshot-transfer integration tests: replicas are
//! killed outright (threads stopped, in-memory state discarded) and
//! brought back from their durable directories, or isolated long enough
//! for the rest of the cluster to compact the slots they missed.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smr::core::{ConcurrentKvService, InProcessCluster, KvService, ServiceState};
use smr::prelude::{ClusterConfig, ReplicaId};
use smr::types::Slot;

fn config(n: usize) -> ClusterConfig {
    ClusterConfig::builder(n)
        .heartbeat_interval(Duration::from_millis(40))
        .suspect_timeout(Duration::from_millis(200))
        .build()
        .unwrap()
}

/// A unique, disposable directory under the system temp dir.
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("smr-recovery-{tag}-{}-{n}", std::process::id()))
}

/// Looks a key up in a service's state via its entries dump.
fn lookup(svc: &ConcurrentKvService, key: &[u8]) -> Option<Vec<u8>> {
    svc.entries()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Polls `cond` until it holds or `deadline` elapses.
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    cond()
}

/// The headline acceptance test: a replica killed mid-workload comes
/// back from its durable directory and converges to a `state_hash`
/// identical to a peer that never crashed.
#[test]
fn killed_replica_recovers_from_disk() {
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("kill-{i}"))).collect();
    // Shared handles so the test can read each replica's state digest;
    // execution is sequential (Arc<ConcurrentKvService> adapts to a
    // sequential RecoverableService via the blanket impls).
    let services: Vec<Arc<ConcurrentKvService>> = (0..3)
        .map(|_| Arc::new(ConcurrentKvService::default()))
        .collect();
    let mut cluster = {
        let services = services.clone();
        let dirs = dirs.clone();
        InProcessCluster::start_with(config(3), move |id, b| {
            b.with_snapshot_service(Box::new(Arc::clone(&services[id.index()])))
                .with_durability(dirs[id.index()].clone())
                .with_snapshot_every(8)
        })
    };

    let mut client = cluster.client();
    for i in 0..30u32 {
        client
            .execute(&KvService::put(format!("k{i}").as_bytes(), b"before"))
            .unwrap();
    }

    // Kill follower 2: threads stop, its in-memory state is gone.
    cluster.stop_replica(ReplicaId(2));
    for i in 30..60u32 {
        client
            .execute(&KvService::put(format!("k{i}").as_bytes(), b"after"))
            .unwrap();
    }

    // Restart from the same durable directory with a *fresh* (empty)
    // service instance: everything it ends up holding came from disk
    // and catch-up, not from surviving memory.
    let fresh = Arc::new(ConcurrentKvService::default());
    {
        let fresh = Arc::clone(&fresh);
        let dir = dirs[2].clone();
        cluster.restart_replica(ReplicaId(2), move |_, b| {
            b.with_snapshot_service(Box::new(fresh))
                .with_durability(dir)
                .with_snapshot_every(8)
        });
    }

    assert!(
        wait_until(Duration::from_secs(20), || {
            fresh.state_hash() == services[0].state_hash()
        }),
        "recovered replica converged to the never-crashed peer's state \
         (recovered {:#x}, peer {:#x})",
        fresh.state_hash(),
        services[0].state_hash()
    );
    // Spot-check contents, not just the digest.
    assert_eq!(lookup(&fresh, b"k5"), Some(b"before".to_vec()));
    assert_eq!(lookup(&fresh, b"k45"), Some(b"after".to_vec()));
    cluster.shutdown();
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// A replica isolated long enough for its peers to compact the slots it
/// missed catches up by snapshot transfer: the leader's snapshot
/// watermark passes the laggard's position, the compacted range cannot
/// be replayed, and the cluster still converges. Sequential execution.
#[test]
fn lagging_replica_catches_up_via_snapshot_transfer() {
    lagging_replica_catches_up(false);
}

/// [`lagging_replica_catches_up_via_snapshot_transfer`] in parallel
/// execution mode: the ServiceManager must drain its executor to take
/// the snapshots that compaction and the transfer depend on.
#[test]
fn lagging_parallel_replica_catches_up_via_snapshot_transfer() {
    lagging_replica_catches_up(true);
}

fn lagging_replica_catches_up(parallel: bool) {
    // Snapshot-capable but NOT durable: snapshots live in memory only,
    // serving compaction and peer transfer.
    let services: Vec<Arc<ConcurrentKvService>> = (0..3)
        .map(|_| Arc::new(ConcurrentKvService::default()))
        .collect();
    let cluster = {
        let services = services.clone();
        InProcessCluster::start_with(config(3), move |id, b| {
            let service = Arc::clone(&services[id.index()]);
            if parallel {
                b.with_parallel_snapshot_service(service, 2)
            } else {
                b.with_snapshot_service(Box::new(service))
            }
            .with_snapshot_every(8)
        })
    };

    let mut client = cluster.client();
    for i in 0..10u32 {
        client
            .execute(&KvService::put(format!("warm{i}").as_bytes(), b"w"))
            .unwrap();
    }
    let lag_point = cluster.replica(ReplicaId(2)).shared().decided_upto();

    cluster.crash(ReplicaId(2)); // isolate, threads keep running
    for i in 0..200u32 {
        client
            .execute(&KvService::put(format!("k{i}").as_bytes(), b"x"))
            .unwrap();
    }
    // The live replicas snapshotted well past the laggard's position —
    // under SnapshotDriven compaction (the default for snapshot-capable
    // services) the slots it missed are gone from their logs.
    assert!(
        wait_until(Duration::from_secs(10), || {
            cluster.replica(ReplicaId(0)).snapshot_watermark() > Slot(lag_point.0 + 50)
        }),
        "leader watermark {} never passed lag point {lag_point}",
        cluster.replica(ReplicaId(0)).snapshot_watermark()
    );

    cluster.heal(ReplicaId(2));
    assert!(
        wait_until(Duration::from_secs(20), || {
            services[2].state_hash() == services[0].state_hash()
        }),
        "lagging replica converged after snapshot transfer"
    );
    // It really did install a snapshot: its own watermark jumped past
    // everything that was compacted away.
    assert!(
        cluster.replica(ReplicaId(2)).snapshot_watermark() > lag_point,
        "laggard's watermark advanced by installing the transferred snapshot"
    );
    assert_eq!(lookup(&services[2], b"k150"), Some(b"x".to_vec()));
    cluster.shutdown();
}

/// A crash that tears the last WAL record (partial write) must not keep
/// the replica down: the torn tail is truncated on open, the intact
/// prefix is replayed, and the missing suffix comes back from the
/// cluster. Runs in parallel execution mode, and the replica has
/// snapshotted before it is killed, so its restart covers the parallel
/// restore-then-replay branch of recovery.
#[test]
fn torn_wal_tail_recovers_and_rejoins() {
    let dirs: Vec<PathBuf> = (0..3).map(|i| temp_dir(&format!("torn-{i}"))).collect();
    let services: Vec<Arc<ConcurrentKvService>> = (0..3)
        .map(|_| Arc::new(ConcurrentKvService::default()))
        .collect();
    let mut cluster = {
        let services = services.clone();
        let dirs = dirs.clone();
        InProcessCluster::start_with(config(3), move |id, b| {
            b.with_parallel_snapshot_service(Arc::clone(&services[id.index()]), 2)
                .with_durability(dirs[id.index()].clone())
                .with_snapshot_every(16)
        })
    };

    let mut client = cluster.client();
    for i in 0..40u32 {
        client
            .execute(&KvService::put(format!("k{i}").as_bytes(), b"v"))
            .unwrap();
    }
    // Replica 2 snapshotted before the crash, so its restart restores a
    // snapshot and then replays the tail behind it.
    assert!(
        wait_until(Duration::from_secs(10), || {
            cluster.replica(ReplicaId(2)).snapshot_watermark() > Slot::ZERO
        }),
        "replica 2 took a snapshot before the crash"
    );
    cluster.stop_replica(ReplicaId(2));

    // Tear the newest WAL segment: append garbage, simulating a record
    // that was mid-write when the power went out.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(&dirs[2])
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "log")).then_some(p)
        })
        .collect();
    segments.sort();
    let newest = segments
        .last()
        .expect("replica wrote at least one WAL segment");
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(newest)
        .unwrap();
    f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01]).unwrap();
    drop(f);

    let fresh = Arc::new(ConcurrentKvService::default());
    {
        let fresh = Arc::clone(&fresh);
        let dir = dirs[2].clone();
        cluster.restart_replica(ReplicaId(2), move |_, b| {
            b.with_parallel_snapshot_service(fresh, 2)
                .with_durability(dir)
                .with_snapshot_every(16)
        });
    }
    assert!(
        wait_until(Duration::from_secs(20), || {
            fresh.state_hash() == services[0].state_hash()
        }),
        "replica with a torn WAL tail rejoined and converged"
    );
    cluster.shutdown();
    for d in dirs {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// Durability without a snapshot-capable service is a configuration
/// error, reported at `start()`.
#[test]
fn durability_requires_snapshot_capable_service() {
    use smr::core::ReplicaBuilder;
    use smr::net::memory::MemoryHub;

    let cfg = config(3);
    let hub = MemoryHub::new(3, 1);
    let err = ReplicaBuilder::new(ReplicaId(0), cfg)
        .with_service(Box::new(KvService::new()))
        .with_durability(temp_dir("invalid"))
        .with_network(Arc::new(hub.replica_network(ReplicaId(0))))
        .with_client_listener(Box::new(hub.client_listener(ReplicaId(0))))
        .start()
        .expect_err("plain with_service cannot be durable");
    assert!(err.to_string().contains("snapshot-capable"));
}
