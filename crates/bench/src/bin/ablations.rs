//! Ablations of the paper's design choices (§V), all at parapluie/24
//! cores/n=3:
//!
//! * **Batcher offload** (§V-C1): fold batch construction into the
//!   Protocol thread's critical path instead of the dedicated Batcher
//!   thread. The Protocol thread's load rises by the full batching cost
//!   and peak throughput falls.
//! * **Dedicated sender threads** (§V-B): make the Protocol thread
//!   serialize and write replica messages itself instead of handing them
//!   to ReplicaIOSnd threads.
//! * **RSS/RPS** (§VI-D footnote 5): distribute NIC interrupt processing
//!   over four cores. The paper observed roughly doubled throughput.

use smr_sim_jpaxos::{run_experiment, ExperimentConfig};

fn report(label: &str, cfg: &ExperimentConfig, rows: &mut Vec<Vec<String>>) {
    let r = run_experiment(cfg);
    let leader = r.replicas.last().unwrap();
    let protocol_busy = leader
        .threads
        .iter()
        .find(|t| t.name == "Protocol")
        .map(|t| 100.0 * t.busy)
        .unwrap_or(0.0);
    rows.push(vec![
        label.to_string(),
        smr_bench::kreq(r.throughput_rps),
        smr_bench::fmt(leader.cpu_util_pct, 0),
        smr_bench::fmt(protocol_busy, 1),
        smr_bench::fmt(r.instance_latency_ms, 2),
    ]);
}

fn main() {
    smr_bench::banner(
        "Ablations (parapluie, 24 cores, n=3)",
        "each design choice of §V removed in turn",
    );
    let mut rows = Vec::new();

    let baseline = ExperimentConfig::parapluie(3, 24);
    report("baseline (paper architecture)", &baseline, &mut rows);

    // Batcher on the critical path: the Protocol thread pays the whole
    // batch-construction cost per batch (8 requests worth), the Batcher
    // thread becomes a pass-through.
    let mut inline_batcher = baseline.clone();
    inline_batcher.costs.protocol_per_batch_ns +=
        inline_batcher.costs.batcher_per_batch_ns + 8 * inline_batcher.costs.batcher_per_request_ns;
    inline_batcher.costs.batcher_per_batch_ns = 0;
    inline_batcher.costs.batcher_per_request_ns = 0;
    report(
        "no Batcher thread (batching inline)",
        &inline_batcher,
        &mut rows,
    );

    // No dedicated senders: serialization + socket writes move onto the
    // Protocol thread (two peer messages per batch at n=3).
    let mut inline_send = baseline.clone();
    inline_send.costs.protocol_per_batch_ns += 2 * inline_send.costs.replica_io_snd_ns;
    inline_send.costs.replica_io_snd_ns = 0;
    report(
        "no ReplicaIOSnd threads (sends inline)",
        &inline_send,
        &mut rows,
    );

    // Both removed: the single-event-loop shape of traditional RSMs.
    let mut monolith = baseline.clone();
    monolith.costs.protocol_per_batch_ns += monolith.costs.batcher_per_batch_ns
        + 8 * monolith.costs.batcher_per_request_ns
        + 2 * monolith.costs.replica_io_snd_ns;
    monolith.costs.batcher_per_batch_ns = 0;
    monolith.costs.batcher_per_request_ns = 0;
    monolith.costs.replica_io_snd_ns = 0;
    report("event-loop style (both inline)", &monolith, &mut rows);

    // RSS/RPS enabled (footnote 5): kernel packet work spread over 4
    // cores; the packet ceiling roughly doubles.
    let mut rss = baseline.clone();
    rss.rss_channels = 4;
    report("RSS/RPS enabled (4 softirq channels)", &rss, &mut rows);

    // RSS plus a wider window: with the packet ceiling lifted, check
    // where the next bottleneck sits.
    let mut rss_wnd = rss.clone();
    rss_wnd.wnd = 35;
    report("RSS/RPS + WND=35", &rss_wnd, &mut rows);

    println!(
        "{}",
        smr_bench::render_table(
            &[
                "configuration",
                "req/s(x1000)",
                "leaderCPU%",
                "Protocol busy%",
                "inst.lat(ms)"
            ],
            &rows,
        )
    );
}
