//! Microbench: batch formation throughput (the batching inner loop,
//! §V-C1, which the replica runs on its Protocol thread).
//!
//! The paper justifies a dedicated Batcher thread by its measured load:
//! "the total execution time of the Batcher thread can exceed 50% of a
//! CPU". This bench measures the pure batching cost per request at the
//! paper's parameters (BSZ=1300, 128-byte requests).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use smr_paxos::BatchBuilder;
use smr_types::{BatchPolicy, ClientId, RequestId, SeqNum};
use smr_wire::Request;

fn bench_batcher(c: &mut Criterion) {
    let mut group = c.benchmark_group("batcher");
    group.sample_size(40);

    let requests: Vec<Request> = (0..1024)
        .map(|i| Request::new(RequestId::new(ClientId(i), SeqNum(1)), vec![0u8; 128]))
        .collect();

    for bsz in [650usize, 1300, 5200] {
        group.throughput(Throughput::Elements(requests.len() as u64));
        group.bench_function(format!("fill_batches_bsz{bsz}"), |b| {
            let policy = BatchPolicy {
                max_bytes: bsz,
                ..BatchPolicy::default()
            };
            b.iter(|| {
                let mut builder = BatchBuilder::new(policy);
                let mut batches = 0;
                for req in &requests {
                    if builder.push(req.clone(), 0).is_some() {
                        batches += 1;
                    }
                }
                std::hint::black_box(batches)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_batcher);
criterion_main!(benches);
