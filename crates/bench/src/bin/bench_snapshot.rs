//! Perf-trajectory snapshot of the microbenchmarks: queue, codec, CRC,
//! executor, ClientIO connection scaling, snapshot and recovery. Writes
//! the results as JSON to the path given as the first argument (e.g.
//! `BENCH_PR5.json`).
//!
//! Each perf change re-runs this tool and commits a new
//! `BENCH_PRn.json`, so numbers are always comparisons within one run on
//! one machine, never across machines or commits. End-to-end cluster
//! figures come from `perfbench/`, not from here.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use smr_types::{ClientId, RequestId, SeqNum};
use smr_wire::{crc32, crc32_bytewise, Batch, Codec, Request};

/// Items moved per contended MPMC measurement.
const MPMC_ITEMS: u64 = 400_000;
/// Items per bulk burst.
const BURST: u64 = 64;
/// Hash-chain iterations per command in the CPU-heavy executor case.
const EXEC_ROUNDS: u32 = 2_000;
/// Worker pool for the CPU-heavy parallel case.
const EXEC_WORKERS: usize = 4;
/// Modeled per-command I/O stall in the stall-heavy executor case.
const STALL: Duration = Duration::from_micros(150);
const STALL_NONE: Duration = Duration::ZERO;
/// Worker pool for the stall-heavy parallel case.
const STALL_WORKERS: usize = 8;
/// KV entries in the snapshot write/restore measurements.
const SNAP_KEYS: u64 = 10_000;
/// WAL batches (8 requests each) in the recovery-replay measurement.
const REPLAY_BATCHES: u64 = 4_000;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    samples[samples.len() / 2]
}

/// Runs `f` `samples` times; returns the median throughput in
/// items/second from the `(items_moved, elapsed)` pairs it reports.
fn measure_throughput(samples: usize, mut f: impl FnMut() -> (u64, Duration)) -> f64 {
    let rates: Vec<f64> = (0..samples)
        .map(|_| {
            let (items, elapsed) = f();
            items as f64 / elapsed.as_secs_f64()
        })
        .collect();
    median(rates)
}

/// Batch-of-8 encode+decode round trips; returns ns per round trip.
fn codec_roundtrip_ns() -> f64 {
    let batch = Batch::new(
        (0..8u64)
            .map(|i| Request::new(RequestId::new(ClientId(1), SeqNum(i)), vec![0xA5; 128]))
            .collect(),
    );
    let iters = 50_000u32;
    let start = Instant::now();
    for _ in 0..iters {
        let bytes = batch.encode_to_vec();
        let decoded = Batch::decode(&bytes).expect("roundtrip");
        std::hint::black_box(decoded);
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// CRC over a 4 KiB buffer; returns GiB/s.
fn crc_gibps(f: impl Fn(&[u8]) -> u32) -> f64 {
    let buf: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    let iters = 100_000u64;
    let start = Instant::now();
    let mut acc = 0u32;
    for _ in 0..iters {
        acc ^= f(std::hint::black_box(&buf));
    }
    std::hint::black_box(acc);
    (iters * buf.len() as u64) as f64 / start.elapsed().as_secs_f64() / (1u64 << 30) as f64
}

fn json_number(v: f64) -> String {
    if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

fn main() {
    // The path is required rather than defaulted so a later PR re-running
    // the tool can't silently clobber an earlier trajectory file.
    let Some(out_path) = std::env::args().nth(1) else {
        eprintln!("usage: bench_snapshot <out-path>   (e.g. BENCH_PR5.json at the repo root)");
        std::process::exit(2);
    };
    smr_bench::banner(
        "bench_snapshot",
        "queue/codec/crc/exec/clientio/snapshot microbenches",
    );

    let scalar_unc = {
        let (n, t) = smr_bench::queue_uncontended_scalar(2_000_000);
        n as f64 / t.as_secs_f64()
    };
    println!("queue uncontended scalar      {:>12.0} ops/s", scalar_unc);
    let bulk_unc = {
        let (n, t) = smr_bench::queue_uncontended_bulk(2_000_000, BURST);
        n as f64 / t.as_secs_f64()
    };
    println!("queue uncontended bulk(64)    {:>12.0} items/s", bulk_unc);
    let scalar_mpmc = measure_throughput(5, || smr_bench::mpmc_4x4_scalar(MPMC_ITEMS));
    println!(
        "queue 4x4 MPMC scalar         {:>12.0} items/s",
        scalar_mpmc
    );
    let bulk_mpmc = measure_throughput(5, || smr_bench::mpmc_4x4_bulk(MPMC_ITEMS, BURST));
    println!("queue 4x4 MPMC bulk(64)       {:>12.0} items/s", bulk_mpmc);
    let mpmc_ratio = bulk_mpmc / scalar_mpmc;
    println!("queue 4x4 MPMC bulk/scalar    {:>12.2} x", mpmc_ratio);
    // The retained mutex core, measured in the same run: the ring/mutex
    // ratios below are same-machine same-binary comparisons, which is
    // the only apples-to-apples speedup a shared-runner snapshot can
    // honestly claim.
    let scalar_mpmc_mutex = measure_throughput(5, || smr_bench::mpmc_4x4_scalar_mutex(MPMC_ITEMS));
    println!(
        "queue 4x4 MPMC scalar (mutex) {:>12.0} items/s",
        scalar_mpmc_mutex
    );
    let bulk_mpmc_mutex =
        measure_throughput(5, || smr_bench::mpmc_4x4_bulk_mutex(MPMC_ITEMS, BURST));
    println!(
        "queue 4x4 MPMC bulk64 (mutex) {:>12.0} items/s",
        bulk_mpmc_mutex
    );
    let ring_over_mutex_bulk = bulk_mpmc / bulk_mpmc_mutex;
    println!(
        "queue 4x4 bulk ring/mutex     {:>12.2} x",
        ring_over_mutex_bulk
    );
    let ring_over_mutex_scalar = scalar_mpmc / scalar_mpmc_mutex;
    println!(
        "queue 4x4 scalar ring/mutex   {:>12.2} x",
        ring_over_mutex_scalar
    );

    let codec_ns = codec_roundtrip_ns();
    println!("codec batch8x128B roundtrip   {:>12.0} ns", codec_ns);
    let crc_fast = crc_gibps(crc32);
    println!("crc32 slice-by-8 (4KiB)       {:>12.2} GiB/s", crc_fast);
    let crc_slow = crc_gibps(crc32_bytewise);
    println!("crc32 bytewise   (4KiB)       {:>12.2} GiB/s", crc_slow);

    // Sequential vs dependency-aware parallel execution of a heavyweight
    // service on a conflict-free decided order. Two regimes: pure CPU
    // (only wins with real cores — on a single-core host this records
    // scheduler overhead) and modeled I/O stalls (overlaps on the worker
    // pool regardless of core count).
    let cpu_seq = measure_throughput(5, || {
        smr_bench::exec_sequential(EXEC_ROUNDS, STALL_NONE, 2_000)
    });
    println!("exec cpu-heavy sequential     {:>12.0} cmds/s", cpu_seq);
    let cpu_par = measure_throughput(5, || {
        smr_bench::exec_parallel(EXEC_ROUNDS, STALL_NONE, 2_000, EXEC_WORKERS)
    });
    println!("exec cpu-heavy parallel(4)    {:>12.0} cmds/s", cpu_par);
    let cpu_ratio = cpu_par / cpu_seq;
    println!("exec cpu parallel/sequential  {:>12.2} x", cpu_ratio);
    let stall_seq = measure_throughput(5, || smr_bench::exec_sequential(0, STALL, 512));
    println!("exec stall-heavy sequential   {:>12.0} cmds/s", stall_seq);
    let stall_par =
        measure_throughput(5, || smr_bench::exec_parallel(0, STALL, 512, STALL_WORKERS));
    println!("exec stall-heavy parallel(8)  {:>12.0} cmds/s", stall_par);
    let stall_ratio = stall_par / stall_seq;
    println!("exec stall parallel/sequential{:>12.2} x", stall_ratio);

    // Client-path connection scaling over real TCP loopback: the
    // readiness loop pays one epoll_wait per wakeup, so 4x the idle
    // connections should cost little throughput.
    let cio_cell = |idle| smr_bench::ClientIoCell {
        pool: 2,
        idle_conns: idle,
        reply_capacity: 4096,
        active_clients: 4,
        window: Duration::from_millis(1500),
    };
    let ev_idle128 = smr_bench::clientio_tcp_run(cio_cell(128));
    println!("clientio tcp evented  128idle {:>12.0} req/s", ev_idle128);
    let ev_idle512 = smr_bench::clientio_tcp_run(cio_cell(512));
    println!("clientio tcp evented  512idle {:>12.0} req/s", ev_idle512);

    // Durability path: snapshot serialization/deserialization over a
    // populated KV state, and cold-start WAL recovery (open + CRC scan +
    // replay), the crash-recovery critical path.
    let snap_write = measure_throughput(5, || smr_bench::snapshot_write(SNAP_KEYS, 20));
    println!(
        "snapshot write 10k entries    {:>12.0} entries/s",
        snap_write
    );
    let snap_restore = measure_throughput(5, || smr_bench::snapshot_restore(SNAP_KEYS, 20));
    println!(
        "snapshot restore 10k entries  {:>12.0} entries/s",
        snap_restore
    );
    let replay = measure_throughput(5, || smr_bench::recovery_replay(REPLAY_BATCHES, 8));
    println!("recovery replay wal 8/batch   {:>12.0} reqs/s", replay);

    let mut json = String::from("{\n");
    let mut field = |name: &str, value: f64| {
        let _ = writeln!(json, "  \"{}\": {},", name, json_number(value));
    };
    field("queue_uncontended_scalar_ops_per_s", scalar_unc);
    field("queue_uncontended_bulk64_items_per_s", bulk_unc);
    field("queue_mpmc_4x4_scalar_items_per_s", scalar_mpmc);
    field("queue_mpmc_4x4_bulk64_items_per_s", bulk_mpmc);
    field("queue_mpmc_4x4_bulk_over_scalar", mpmc_ratio);
    field("queue_mpmc_4x4_scalar_mutex_items_per_s", scalar_mpmc_mutex);
    field("queue_mpmc_4x4_bulk64_mutex_items_per_s", bulk_mpmc_mutex);
    field("queue_mpmc_4x4_bulk_ring_over_mutex", ring_over_mutex_bulk);
    field(
        "queue_mpmc_4x4_scalar_ring_over_mutex",
        ring_over_mutex_scalar,
    );
    field("codec_batch8_128b_roundtrip_ns", codec_ns);
    field("crc32_slice8_4kib_gib_per_s", crc_fast);
    field("crc32_bytewise_4kib_gib_per_s", crc_slow);
    field("exec_cpu_sequential_cmds_per_s", cpu_seq);
    field("exec_cpu_parallel4_cmds_per_s", cpu_par);
    field("exec_cpu_parallel_over_sequential", cpu_ratio);
    field("exec_stall_sequential_cmds_per_s", stall_seq);
    field("exec_stall_parallel8_cmds_per_s", stall_par);
    field("exec_stall_parallel_over_sequential", stall_ratio);
    field("clientio_tcp_evented_idle128_rps", ev_idle128);
    field("clientio_tcp_evented_idle512_rps", ev_idle512);
    field("snapshot_write_10k_entries_per_s", snap_write);
    field("snapshot_restore_10k_entries_per_s", snap_restore);
    field("recovery_replay_wal_reqs_per_s", replay);
    json.push_str("  \"workload\": \"4x4 MPMC, burst 64, batch 8x128B, crc 4KiB, clientio tcp n=1 pool=2 4 clients x 1.5s at 128/512 idle conns, exec 2000 cmds x 2000 hash rounds + 512 cmds x 150us stall, snapshot 10k entries x 20, replay 4000 wal batches x 8\"\n}\n");
    std::fs::write(&out_path, json).expect("write snapshot");
    println!("wrote {out_path}");
}
