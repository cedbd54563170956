//! Figure 9: the ClientIO axis — first the paper's simulated curve
//! (throughput and leader CPU vs number of ClientIO threads on
//! parapluie), then a *real* sweep of this repo's client path over TCP:
//! pool size × idle-connection count × reply-queue capacity, on the one
//! ClientIO readiness loop.
//!
//! Paper reference points: ~40K requests/s with one ClientIO thread,
//! \>100K with four (a 2.5x gain from three added threads), then a slight
//! degradation beyond ~8 threads, down to ~80K at 24 — caused not by JVM
//! lock contention (blocked time stays under 10%) but by the pre-2.6.35
//! kernel's socket structures bouncing between cores (Boyd-Wickizer et
//! al., ref. \[14\]). Leader CPU peaks ~550% at 4 threads and mirrors the
//! throughput curve.
//!
//! The real sweep extends the axis the paper could not vary: connection
//! count. The readiness loop pays one `epoll_wait` per wakeup
//! (O(ready), not O(connections)), so throughput should hold as idle
//! connections grow. Pass `--quick` for a small smoke configuration.

use std::time::Duration;

use smr_bench::{clientio_tcp_run, ClientIoCell};
use smr_sim_jpaxos::{run_experiment, ExperimentConfig};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // Part 1: the paper's simulated ClientIO-thread curve.
    let cio_axis: Vec<usize> = if quick {
        vec![1, 4, 8, 24]
    } else {
        vec![1, 2, 3, 4, 6, 8, 12, 16, 20, 24]
    };
    smr_bench::banner(
        "Fig 9 (parapluie, 24 cores, n=3)",
        "throughput + leader CPU vs number of ClientIO threads",
    );
    let mut rows = Vec::new();
    for &cio in &cio_axis {
        let mut cfg = ExperimentConfig::parapluie(3, 24);
        cfg.cio_threads = cio;
        let r = run_experiment(&cfg);
        let leader = r.replicas.last().unwrap();
        rows.push(vec![
            cio.to_string(),
            smr_bench::kreq(r.throughput_rps),
            smr_bench::fmt(leader.cpu_util_pct, 0),
            smr_bench::fmt(leader.blocked_pct, 1),
        ]);
    }
    println!(
        "{}",
        smr_bench::render_table(
            &[
                "ClientIO threads",
                "req/s(x1000)",
                "leaderCPU%",
                "leaderBlocked%"
            ],
            &rows
        )
    );

    // Part 2: the real TCP sweep over this repo's client path.
    let (pools, conns, caps, window): (Vec<usize>, Vec<usize>, Vec<usize>, Duration) = if quick {
        (
            vec![1, 2],
            vec![0, 256],
            vec![4096],
            Duration::from_millis(400),
        )
    } else {
        (
            vec![1, 2, 4],
            vec![0, 64, 256, 1024],
            vec![1024, 4096],
            Duration::from_secs(1),
        )
    };
    smr_bench::banner(
        "ClientIO connection scaling (this host, n=1, TCP loopback)",
        "pool x idle connections x reply-queue capacity, 4 closed-loop clients",
    );
    let mut rows = Vec::new();
    for &pool in &pools {
        for &cap in &caps {
            for &idle in &conns {
                let cell = ClientIoCell {
                    pool,
                    idle_conns: idle,
                    reply_capacity: cap,
                    active_clients: 4,
                    window,
                };
                rows.push(vec![
                    pool.to_string(),
                    cap.to_string(),
                    idle.to_string(),
                    smr_bench::fmt(clientio_tcp_run(cell), 0),
                ]);
            }
        }
    }
    println!(
        "{}",
        smr_bench::render_table(&["pool", "reply-cap", "idle conns", "req/s"], &rows)
    );
}
