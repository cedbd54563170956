//! Figure 8: per-thread CPU utilization of the leader process at 1 core
//! and at the maximum core count, on both clusters — plus a live
//! durable-cluster run with the slot-lifecycle latency breakdown and
//! WAL group-commit timing.
//!
//! Paper reference points: at 1 core the ClientIO and Batcher threads
//! account for most of the busy time (~80% combined) and JPaxos is
//! CPU-bound; at full core count every thread sits between ~30 and ~60%
//! busy (well balanced, no single-thread bottleneck), the Batcher shows
//! ~15% blocked (it contends on both of its queues), and the "Replica"
//! (ServiceManager) thread is the busiest.
//!
//! The simulated JPaxos replica has the paper's Batcher thread; the live
//! cluster has none, because its Protocol thread forms batches itself, so
//! its profile lists no Batcher.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smr_core::{InProcessCluster, NullService};
use smr_metrics::MetricsSnapshot;
use smr_sim_jpaxos::{run_experiment, ExperimentConfig, ThreadReport};
use smr_types::ClusterConfig;

/// Closed-loop clients driving the live cluster.
const LIVE_CLIENTS: usize = 8;
/// Measurement window for the live cluster.
const LIVE_WINDOW: Duration = Duration::from_millis(1500);
/// Depth-sampling period for the live cluster's queue statistics.
const SAMPLE_PERIOD: Duration = Duration::from_millis(1);

const HELP: &str = "\
fig08_thread_profile: per-thread profile of the leader (Fig. 8)

usage: fig08_thread_profile [--help]

Sections and columns:

  Fig 8a-8d (simulator): leader per-thread state profile.
    thread    thread name (paper Fig. 3; 'Replica' = ServiceManager)
    busy%     share of the run spent executing on-CPU work
    blocked%  share spent contending on a queue's internal lock
    waiting%  share parked on an empty/full queue (no work available)
    other%    everything else (syscalls, sleeps, accept loops)

  Live durable cluster: a real in-process 3-replica cluster with a
  write-ahead log, driven by closed-loop clients. Prints the same
  thread table measured on the real pipeline, then:

    stage latency breakdown (one row per pipeline transition):
      stage         intake>sealed, sealed>proposed, proposed>decided,
                    decided>executed, executed>reply, intake>reply
                    (end-to-end replica residence time)
      count         batches measured
      p50/p95/p99us percentiles, microseconds (power-of-two bucketed
                    histograms: values are bucket midpoints, max exact)
      max_us        largest observed value, exact

    WAL / group commit (leader, per drained decision burst):
      wal.append    buffered append of one decided batch (same
                    percentile columns)
      wal.fsync     flush covering the whole burst -- the group-commit
                    sync whose cost is amortized across the burst
      plus appended/synced byte totals from the named counters

    queue depths (Table I methodology):
      queue         registered queue name
      depth/hwm     instantaneous depth and exact high watermark
      mean+-stddev  sampled depth statistics (1ms sampler)
";

fn show(title: &str, threads: &[ThreadReport]) {
    smr_bench::banner(
        title,
        "leader per-thread busy/blocked/waiting/other (% of run)",
    );
    let mut rows = Vec::new();
    for t in threads {
        rows.push(vec![
            t.name.clone(),
            smr_bench::fmt(100.0 * t.busy, 1),
            smr_bench::fmt(100.0 * t.blocked, 1),
            smr_bench::fmt(100.0 * t.waiting, 1),
            smr_bench::fmt(100.0 * t.other, 1),
        ]);
    }
    println!(
        "{}",
        smr_bench::render_table(
            &["thread", "busy%", "blocked%", "waiting%", "other%"],
            &rows
        )
    );
}

/// Runs a 3-replica durable in-process cluster under closed-loop load
/// and returns the leader's metrics snapshot plus measured throughput.
fn live_durable_snapshot() -> (MetricsSnapshot, f64) {
    let wal_root = std::env::temp_dir().join(format!("fig08-wal-{}", std::process::id()));
    let cluster = InProcessCluster::start_with(ClusterConfig::new(3), |id, builder| {
        builder
            .with_snapshot_service(Box::new(NullService::default()))
            .with_durability(wal_root.join(format!("replica-{}", id.0)))
            .with_queue_sampler(SAMPLE_PERIOD)
    });
    let mut warm = cluster.client();
    for _ in 0..50 {
        warm.execute(&[0u8; 128]).expect("warm-up request");
    }
    let stop = Arc::new(AtomicBool::new(false));
    let workers: Vec<_> = (0..LIVE_CLIENTS)
        .map(|_| {
            let mut client = cluster.client();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let payload = [0u8; 128];
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if client.execute(&payload).is_err() {
                        break;
                    }
                    done += 1;
                }
                done
            })
        })
        .collect();
    let start = std::time::Instant::now();
    std::thread::sleep(LIVE_WINDOW);
    stop.store(true, Ordering::Relaxed);
    let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let rps = total as f64 / start.elapsed().as_secs_f64();
    let leader = cluster
        .config()
        .replicas()
        .find(|id| cluster.replica(*id).shared().is_leader())
        .expect("a leader is elected");
    let snapshot = cluster.replica(leader).metrics_snapshot();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&wal_root);
    (snapshot, rps)
}

fn us(ns: f64) -> String {
    smr_bench::fmt(ns / 1_000.0, 1)
}

fn show_live(snap: &MetricsSnapshot, rps: f64) {
    smr_bench::banner(
        &format!(
            "Live durable cluster, n=3 ({} req/s x1000)",
            smr_bench::kreq(rps)
        ),
        "real pipeline: thread profile, stage latency, WAL group commit",
    );

    let mut rows = Vec::new();
    for t in &snap.threads {
        let wall = t.wall_ns.max(1) as f64;
        rows.push(vec![
            t.name.clone(),
            smr_bench::fmt(100.0 * t.busy_ns as f64 / wall, 1),
            smr_bench::fmt(100.0 * t.blocked_ns as f64 / wall, 1),
            smr_bench::fmt(100.0 * t.waiting_ns as f64 / wall, 1),
            smr_bench::fmt(100.0 * t.other_ns as f64 / wall, 1),
        ]);
    }
    println!(
        "{}",
        smr_bench::render_table(
            &["thread", "busy%", "blocked%", "waiting%", "other%"],
            &rows
        )
    );

    let mut rows = Vec::new();
    for name in [
        "stage.intake_to_sealed",
        "stage.sealed_to_proposed",
        "stage.proposed_to_decided",
        "stage.decided_to_executed",
        "stage.executed_to_reply",
        "stage.intake_to_reply",
        "wal.append",
        "wal.fsync",
    ] {
        let Some(h) = snap.histogram(name) else {
            continue;
        };
        rows.push(vec![
            name.into(),
            h.count.to_string(),
            us(h.p50_ns),
            us(h.p95_ns),
            us(h.p99_ns),
            us(h.max_ns as f64),
        ]);
    }
    println!(
        "{}",
        smr_bench::render_table(
            &["stage", "count", "p50us", "p95us", "p99us", "max_us"],
            &rows
        )
    );
    println!(
        "wal bytes: appended {} / synced {} (group commit amortizes one fsync per burst)",
        snap.counter("wal.appended_bytes").unwrap_or(0),
        snap.counter("wal.synced_bytes").unwrap_or(0),
    );

    let mut rows = Vec::new();
    for q in &snap.queues {
        rows.push(vec![
            q.name.clone(),
            q.depth.to_string(),
            q.high_watermark.to_string(),
            format!(
                "{} +- {}",
                smr_bench::fmt(q.depth_mean, 2),
                smr_bench::fmt(q.depth_stddev, 2)
            ),
        ]);
    }
    println!(
        "{}",
        smr_bench::render_table(&["queue", "depth", "hwm", "mean+-stddev"], &rows)
    );
}

fn main() {
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    let cases: Vec<(&str, ExperimentConfig)> = vec![
        (
            "Fig 8a: parapluie, 1 core",
            ExperimentConfig::parapluie(3, 1),
        ),
        (
            "Fig 8b: parapluie, 24 cores",
            ExperimentConfig::parapluie(3, 24),
        ),
        ("Fig 8c: edel, 1 core", ExperimentConfig::edel(3, 1)),
        ("Fig 8d: edel, 8 cores", ExperimentConfig::edel(3, 8)),
    ];
    for (title, cfg) in cases {
        let r = run_experiment(&cfg);
        let leader = r.replicas.last().unwrap();
        show(
            &format!(
                "{title} ({} req/s x1000)",
                smr_bench::kreq(r.throughput_rps)
            ),
            &leader.threads,
        );
    }
    let (snap, rps) = live_durable_snapshot();
    show_live(&snap, rps);
}
