//! Microbench: the instrumented BoundedQueue vs a plain channel baseline.
//!
//! The inter-module queues are on the per-request critical path (a
//! request crosses at least four of them), so their overhead bounds the
//! whole architecture's throughput. The bulk-op and contended-MPMC cases
//! measure the batch fast path: a burst moves under one lock acquisition
//! with one condvar notification, instead of paying both per item.

use criterion::{criterion_group, criterion_main, Criterion};

use smr_queue::BoundedQueue;

/// Items per bulk burst in the bulk-op benches.
const BURST: u64 = 64;

fn bench_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue");
    group.sample_size(30);

    group.bench_function("bounded_push_pop_uncontended", |b| {
        b.iter_custom(|iters| smr_bench::queue_uncontended_scalar(iters).1);
    });

    // Baseline: the standard library's bounded channel.
    group.bench_function("std_sync_channel_push_pop_uncontended", |b| {
        let (tx, rx) = std::sync::mpsc::sync_channel(1024);
        b.iter(|| {
            tx.send(std::hint::black_box(42u64)).unwrap();
            std::hint::black_box(rx.recv().unwrap());
        });
    });

    // ns/iter here is per item, not per burst: the shared harness moves
    // `iters` items in bursts of 64.
    group.bench_function("bounded_bulk_push_pop_batch64", |b| {
        b.iter_custom(|iters| smr_bench::queue_uncontended_bulk(iters, BURST).1);
    });

    group.bench_function("bounded_mpmc_4x4_scalar", |b| {
        b.iter_custom(|iters| smr_bench::mpmc_4x4_scalar(iters).1);
    });

    group.bench_function("bounded_mpmc_4x4_bulk", |b| {
        b.iter_custom(|iters| smr_bench::mpmc_4x4_bulk(iters, BURST).1);
    });

    // The retained mutex reference core on the identical contended
    // workloads: the ring-vs-mutex comparison inside one bench run.
    group.bench_function("mutex_core_mpmc_4x4_scalar", |b| {
        b.iter_custom(|iters| smr_bench::mpmc_4x4_scalar_mutex(iters).1);
    });

    group.bench_function("mutex_core_mpmc_4x4_bulk", |b| {
        b.iter_custom(|iters| smr_bench::mpmc_4x4_bulk_mutex(iters, BURST).1);
    });

    group.bench_function("bounded_mpsc_4_producers", |b| {
        b.iter_custom(|iters| {
            let q = BoundedQueue::new("bench", 1024);
            let per = iters / 4 + 1;
            let start = std::time::Instant::now();
            let producers: Vec<_> = (0..4)
                .map(|_| {
                    let q = q.clone();
                    std::thread::spawn(move || {
                        for i in 0..per {
                            q.push(i).unwrap();
                        }
                    })
                })
                .collect();
            let mut received = 0;
            while received < per * 4 {
                if q.pop().is_ok() {
                    received += 1;
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            start.elapsed()
        });
    });

    group.finish();
}

criterion_group!(benches, bench_queue);
criterion_main!(benches);
