//! Per-layer numbers of the traced run, read from outside the program:
//! per-thread CPU time and wakeups from `/proc/self/task`, the counters,
//! histograms and queue statistics the replicas already export through
//! `Replica::metrics_snapshot()`, the decorators' taps, and the bytes the
//! process wrote to storage. Each is a difference between two snapshots
//! taken at the edges of the measured window.

use std::collections::BTreeMap;
use std::time::Instant;

use smr_metrics::MetricsSnapshot;

use crate::cluster::Cluster;
use crate::sys::{self, TaskSample};
use crate::trace::{TapCounts, WireEvent, WireKind};

/// Every per-layer metric the traced run prints, with its unit, grouped
/// by the module it describes.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Batcher
    ("batch.requests_per_batch", "count"),
    ("batch.bytes_per_batch", "B"),
    ("stage.intake_to_sealed_mean_us", "us"),
    ("cpu.batcher_us_per_op", "us"),
    ("wakeups.batcher_per_op", "count"),
    // Protocol
    ("cpu.protocol_leader_us_per_op", "us"),
    ("wakeups.protocol_per_op", "count"),
    ("stage.sealed_to_proposed_mean_us", "us"),
    ("stage.proposed_to_decided_mean_us", "us"),
    ("replication.follower_lag_slots_max", "slots"),
    // ReplicaIO and peer links
    ("net.peer_frames_per_op", "count"),
    ("net.peer_bytes_per_op", "B"),
    ("net.send_wait_us_per_op", "us"),
    ("net.retransmit_frames_per_op", "count"),
    ("net.heartbeat_frames_per_s", "1/s"),
    ("net.send_drops", "count"),
    ("cpu.replicaio_snd_us_per_op", "us"),
    ("cpu.replicaio_rcv_us_per_op", "us"),
    // ClientIO
    ("clientio.recv_polls_per_op", "count"),
    ("clientio.empty_poll_share", "share"),
    ("clientio.reply_frames_per_op", "count"),
    ("clientio.bytes_out_per_op", "B"),
    ("cpu.clientio_us_per_op", "us"),
    ("wakeups.clientio_per_op", "count"),
    // Queues
    ("queue.request_q.push_waits_per_op", "count"),
    ("queue.request_q.high_watermark", "count"),
    ("queue.proposal_q.push_waits_per_op", "count"),
    ("queue.proposal_q.high_watermark", "count"),
    ("queue.dispatcher_q.push_waits_per_op", "count"),
    ("queue.dispatcher_q.high_watermark", "count"),
    ("queue.decision_q.push_waits_per_op", "count"),
    ("queue.decision_q.high_watermark", "count"),
    // Execution
    ("exec.ns_per_op", "ns"),
    ("exec.calls_per_op", "count"),
    ("stage.decided_to_executed_mean_us", "us"),
    ("stage.executed_to_reply_mean_us", "us"),
    ("cpu.replica_us_per_op", "us"),
    ("wakeups.replica_per_op", "count"),
    // Reply cache
    ("reply_cache.hit_share", "share"),
    ("reply_cache.lookup_ns", "ns"),
    // Storage
    ("wal.fsyncs_per_op", "count"),
    ("wal.fsync_mean_us", "us"),
    ("wal.append_mean_us", "us"),
    ("wal.bytes_per_op", "B"),
    ("wal.snapshots_per_s", "1/s"),
    ("wal.snapshot_mean_us", "us"),
    // Failover
    ("failover.detect_ms", "ms"),
    ("failover.elect_ms", "ms"),
    ("failover.view_changes", "count"),
    ("failover.catchup_ms", "ms"),
    // Background timers and the generator
    ("cpu.timers_us_per_s", "us/s"),
    ("cpu.generator_us_per_op", "us"),
    ("gen.late_p99_us", "us"),
    ("gen.cap_late_share", "share"),
    ("stage.transport_gap_us", "us"),
    // Whole-run comparisons
    ("capacity.closed_loop_rps", "1/s"),
    ("replication.n1_over_n3_throughput", "ratio"),
    ("trace.throughput_rps", "1/s"),
    ("trace.untraced_throughput_rps", "1/s"),
    ("trace.cpu_us_per_req", "us"),
    ("trace.untraced_cpu_us_per_req", "us"),
    ("trace.overhead_share", "share"),
];

/// Everything the per-layer numbers are differences of.
pub struct LayerSnap {
    tasks: BTreeMap<u32, TaskSample>,
    metrics: Vec<MetricsSnapshot>,
    taps: Vec<TapCounts>,
    io_write: u64,
}

/// Takes a snapshot of every source at once.
pub fn snap(cluster: &Cluster) -> LayerSnap {
    let tids: Vec<u32> = cluster.tids.iter().flatten().copied().collect();
    LayerSnap {
        tasks: sys::sample_tasks(&tids),
        metrics: (0..cluster.n)
            .map(|r| cluster.replica(r).metrics_snapshot())
            .collect(),
        taps: cluster.taps.iter().map(|t| t.counts()).collect(),
        io_write: sys::io_write_bytes(),
    }
}

/// The thread roles the per-thread numbers are grouped by, named after
/// the runtime's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Role {
    Batcher,
    Protocol,
    Snd,
    Rcv,
    ClientIo,
    Replica,
    Timers,
    Other,
}

fn role(thread: &str) -> Role {
    match thread {
        "Batcher" => Role::Batcher,
        "Protocol" => Role::Protocol,
        "Replica" => Role::Replica,
        "FailureDetector" | "Retransmitter" => Role::Timers,
        "ClientAcceptor" => Role::ClientIo,
        t if t.starts_with("ReplicaIOSnd") => Role::Snd,
        t if t.starts_with("ReplicaIORcv") => Role::Rcv,
        t if t.starts_with("ClientIO") => Role::ClientIo,
        _ => Role::Other,
    }
}

/// CPU nanoseconds and wakeups per role, summed over the given replicas.
fn thread_deltas(
    a: &LayerSnap,
    b: &LayerSnap,
    cluster: &Cluster,
    replicas: &[usize],
) -> BTreeMap<Role, (u64, u64)> {
    let mut out = BTreeMap::new();
    for &r in replicas {
        for tid in &cluster.tids[r] {
            let (Some(ta), Some(tb)) = (a.tasks.get(tid), b.tasks.get(tid)) else {
                continue;
            };
            let e = out.entry(role(&tb.name)).or_insert((0, 0));
            e.0 += tb.cpu_ns.saturating_sub(ta.cpu_ns);
            e.1 += tb.wakeups.saturating_sub(ta.wakeups);
        }
    }
    out
}

/// (samples, total ns) of a histogram over the window, summed over
/// replicas (stage clocks run only on the replica that proposed a batch).
fn hist_delta(a: &LayerSnap, b: &LayerSnap, name: &str) -> (u64, f64) {
    let total = |s: &MetricsSnapshot| {
        s.histogram(name)
            .map_or((0, 0.0), |h| (h.count, h.count as f64 * h.mean_ns))
    };
    a.metrics
        .iter()
        .zip(&b.metrics)
        .fold((0, 0.0), |(n, ns), (ma, mb)| {
            let ((ca, sa), (cb, sb)) = (total(ma), total(mb));
            (n + cb.saturating_sub(ca), ns + (sb - sa).max(0.0))
        })
}

fn hist_mean_us(a: &LayerSnap, b: &LayerSnap, name: &str) -> f64 {
    let (n, ns) = hist_delta(a, b, name);
    if n == 0 {
        0.0
    } else {
        ns / n as f64 / 1000.0
    }
}

fn counter_delta(a: &LayerSnap, b: &LayerSnap, name: &str) -> u64 {
    a.metrics
        .iter()
        .zip(&b.metrics)
        .map(|(ma, mb)| {
            mb.counter(name)
                .unwrap_or(0)
                .saturating_sub(ma.counter(name).unwrap_or(0))
        })
        .sum()
}

fn tap_delta(a: &LayerSnap, b: &LayerSnap, f: impl Fn(&TapCounts) -> u64) -> u64 {
    a.taps
        .iter()
        .zip(&b.taps)
        .map(|(ta, tb)| f(tb).saturating_sub(f(ta)))
        .sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The failover timeline of one injected crash.
#[derive(Debug, Clone, Default)]
pub struct Failover {
    /// Crash instant, the crashed leader, and its view then.
    pub crash: Option<(Instant, usize, u64)>,
    /// Heal to the old leader's log matching the leader's at the heal.
    pub catchup_ms: f64,
}

/// Detection, election and view-change numbers from the wire events
/// the taps saw after the crash.
pub fn failover_numbers(f: &Failover, events: &[WireEvent]) -> (f64, f64, f64) {
    let Some((crash, _, old_view)) = f.crash else {
        return (0.0, 0.0, 0.0);
    };
    let after: Vec<&WireEvent> = events.iter().filter(|e| e.at >= crash).collect();
    let ms =
        |e: Option<&&WireEvent>| e.map_or(0.0, |e| e.at.duration_since(crash).as_secs_f64() * 1e3);
    let detect = ms(after
        .iter()
        .filter(|e| e.kind == WireKind::Prepare)
        .min_by_key(|e| e.at));
    let elect = ms(after
        .iter()
        .filter(|e| e.kind == WireKind::FirstPropose && e.view > old_view)
        .min_by_key(|e| e.at));
    let mut views: Vec<u64> = after
        .iter()
        .filter(|e| e.kind == WireKind::Prepare)
        .map(|e| e.view)
        .collect();
    views.sort_unstable();
    views.dedup();
    (detect, elect, views.len() as f64)
}

/// Inputs of the per-layer table besides the two snapshots.
pub struct Context<'a> {
    /// The cluster measured.
    pub cluster: &'a Cluster,
    /// Leader during the window.
    pub leader: usize,
    /// Requests completed in the window.
    pub ops: u64,
    /// Window length in seconds.
    pub window_s: f64,
    /// Mean client-observed latency in the window, microseconds.
    pub client_mean_us: f64,
    /// Largest follower lag sampled during the window.
    pub lag_max: u64,
    /// Generator thread CPU inside the window.
    pub generator_cpu_ns: u64,
    /// Open-loop lateness p99, microseconds (0 for closed loops).
    pub late_p99_us: f64,
    /// Share of open-loop requests that waited for the in-flight cap.
    pub cap_late_share: f64,
}

/// The per-layer table for one window.
pub fn per_layer(a: &LayerSnap, b: &LayerSnap, cx: &Context<'_>) -> BTreeMap<String, f64> {
    let ops = cx.ops.max(1) as f64;
    let all: Vec<usize> = (0..cx.cluster.n).collect();
    let threads = thread_deltas(a, b, cx.cluster, &all);
    let leader_threads = thread_deltas(a, b, cx.cluster, &[cx.leader]);
    let cpu = |r: Role| threads.get(&r).map_or(0, |v| v.0) as f64 / 1000.0 / ops;
    let wake = |r: Role| threads.get(&r).map_or(0, |v| v.1) as f64 / ops;
    let tap = |f: fn(&TapCounts) -> u64| tap_delta(a, b, f) as f64;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), if v.is_finite() { v } else { 0.0 });
    };

    put(
        "batch.requests_per_batch",
        ratio(tap(|t| t.propose_requests), tap(|t| t.proposes)),
    );
    put(
        "batch.bytes_per_batch",
        ratio(tap(|t| t.propose_bytes), tap(|t| t.proposes)),
    );
    put(
        "stage.intake_to_sealed_mean_us",
        hist_mean_us(a, b, "stage.intake_to_sealed"),
    );
    put("cpu.batcher_us_per_op", cpu(Role::Batcher));
    put("wakeups.batcher_per_op", wake(Role::Batcher));

    put(
        "cpu.protocol_leader_us_per_op",
        leader_threads.get(&Role::Protocol).map_or(0, |v| v.0) as f64 / 1000.0 / ops,
    );
    put("wakeups.protocol_per_op", wake(Role::Protocol));
    put(
        "stage.sealed_to_proposed_mean_us",
        hist_mean_us(a, b, "stage.sealed_to_proposed"),
    );
    put(
        "stage.proposed_to_decided_mean_us",
        hist_mean_us(a, b, "stage.proposed_to_decided"),
    );
    put("replication.follower_lag_slots_max", cx.lag_max as f64);

    put("net.peer_frames_per_op", tap(|t| t.frames) / ops);
    put("net.peer_bytes_per_op", tap(|t| t.bytes) / ops);
    put(
        "net.send_wait_us_per_op",
        tap(|t| t.send_wait_ns) / 1000.0 / ops,
    );
    put("net.retransmit_frames_per_op", tap(|t| t.retransmits) / ops);
    put(
        "net.heartbeat_frames_per_s",
        ratio(tap(|t| t.heartbeats), cx.window_s),
    );
    put(
        "net.send_drops",
        counter_delta(a, b, "net.send_drops") as f64,
    );
    put("cpu.replicaio_snd_us_per_op", cpu(Role::Snd));
    put("cpu.replicaio_rcv_us_per_op", cpu(Role::Rcv));

    put("clientio.recv_polls_per_op", tap(|t| t.recv_polls) / ops);
    put(
        "clientio.empty_poll_share",
        ratio(tap(|t| t.recv_empty), tap(|t| t.recv_polls)),
    );
    put("clientio.reply_frames_per_op", tap(|t| t.out_frames) / ops);
    put("clientio.bytes_out_per_op", tap(|t| t.out_bytes) / ops);
    put("cpu.clientio_us_per_op", cpu(Role::ClientIo));
    put("wakeups.clientio_per_op", wake(Role::ClientIo));

    for (queue, key) in [
        ("RequestQueue", "request_q"),
        ("ProposalQueue", "proposal_q"),
        ("DispatcherQueue", "dispatcher_q"),
        ("DecisionQueue", "decision_q"),
    ] {
        let waits: u64 = a
            .metrics
            .iter()
            .zip(&b.metrics)
            .map(|(ma, mb)| {
                let w = |s: &MetricsSnapshot| s.queue(queue).map_or(0, |q| q.push_waits);
                w(mb).saturating_sub(w(ma))
            })
            .sum();
        let high = b
            .metrics
            .iter()
            .filter_map(|s| s.queue(queue).map(|q| q.high_watermark))
            .max()
            .unwrap_or(0);
        put(
            &format!("queue.{key}.push_waits_per_op"),
            waits as f64 / ops,
        );
        put(&format!("queue.{key}.high_watermark"), high as f64);
    }

    put("exec.ns_per_op", tap(|t| t.exec_ns) / ops);
    put("exec.calls_per_op", tap(|t| t.exec_calls) / ops);
    put(
        "stage.decided_to_executed_mean_us",
        hist_mean_us(a, b, "stage.decided_to_executed"),
    );
    put(
        "stage.executed_to_reply_mean_us",
        hist_mean_us(a, b, "stage.executed_to_reply"),
    );
    put("cpu.replica_us_per_op", cpu(Role::Replica));
    put("wakeups.replica_per_op", wake(Role::Replica));

    put(
        "reply_cache.hit_share",
        ratio(tap(|t| t.hits), tap(|t| t.lookups)),
    );
    put(
        "reply_cache.lookup_ns",
        ratio(tap(|t| t.lookup_ns), tap(|t| t.lookups)),
    );

    let (fsyncs, _) = hist_delta(a, b, "wal.fsync");
    put("wal.fsyncs_per_op", fsyncs as f64 / ops);
    put("wal.fsync_mean_us", hist_mean_us(a, b, "wal.fsync"));
    put("wal.append_mean_us", hist_mean_us(a, b, "wal.append"));
    put(
        "wal.bytes_per_op",
        b.io_write.saturating_sub(a.io_write) as f64 / ops,
    );
    put(
        "wal.snapshots_per_s",
        ratio(tap(|t| t.snapshots), cx.window_s),
    );
    put(
        "wal.snapshot_mean_us",
        ratio(tap(|t| t.snapshot_ns), tap(|t| t.snapshots)) / 1000.0,
    );

    put(
        "cpu.timers_us_per_s",
        ratio(
            threads.get(&Role::Timers).map_or(0, |v| v.0) as f64 / 1000.0,
            cx.window_s,
        ),
    );
    put(
        "cpu.generator_us_per_op",
        cx.generator_cpu_ns as f64 / 1000.0 / ops,
    );
    put("gen.late_p99_us", cx.late_p99_us);
    put("gen.cap_late_share", cx.cap_late_share);
    put(
        "stage.transport_gap_us",
        cx.client_mean_us - hist_mean_us(a, b, "stage.intake_to_reply"),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate per-layer metric");
        for (n, u) in PER_LAYER {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }

    #[test]
    fn thread_names_map_to_the_runtime_modules() {
        assert_eq!(role("ReplicaIOSnd-2"), Role::Snd);
        assert_eq!(role("ReplicaIORcv-0"), Role::Rcv);
        assert_eq!(role("ClientIO-3"), Role::ClientIo);
        assert_eq!(role("Retransmitter"), Role::Timers);
        assert_eq!(role("tcp-acceptor-1"), Role::Other);
    }
}
