//! Collective-algorithm benchmarks over the shared-memory transport
//! (backing experiment E3's functional half).

use bagualu::comm::collectives::{
    allreduce_wire, alltoallv_hierarchical_wire, alltoallv_wire, ReduceOp,
};
use bagualu::comm::harness::run_ranks;
use bagualu::comm::WireDType;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_allreduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("allreduce_ring_8ranks");
    for &len in &[1usize << 12, 1 << 16, 1 << 20] {
        g.throughput(Throughput::Bytes((len * 4) as u64));
        g.bench_function(format!("{len}_floats"), |bench| {
            bench.iter(|| {
                run_ranks(8, |c| {
                    use bagualu::comm::shm::Communicator;
                    let data = vec![c.rank() as f32; len];
                    let out = allreduce_wire(&c, data, ReduceOp::Sum, WireDType::F32);
                    assert_eq!(out[0], 28.0);
                });
            })
        });
    }
    g.finish();
}

fn bench_alltoall(c: &mut Criterion) {
    let nranks = 16;
    let per_pair = 1024usize;
    let mut g = c.benchmark_group("alltoall_16ranks_1k");
    g.throughput(Throughput::Bytes((nranks * per_pair * 4) as u64));
    g.bench_function("pairwise", |bench| {
        bench.iter(|| {
            run_ranks(nranks, |c| {
                use bagualu::comm::shm::Communicator;
                let parts: Vec<Vec<f32>> = (0..nranks)
                    .map(|_| vec![c.rank() as f32; per_pair])
                    .collect();
                alltoallv_wire(&c, parts, WireDType::F32);
            });
        })
    });
    g.bench_function("hierarchical_sn4", |bench| {
        bench.iter(|| {
            run_ranks(nranks, |c| {
                use bagualu::comm::shm::Communicator;
                let parts: Vec<Vec<f32>> = (0..nranks)
                    .map(|_| vec![c.rank() as f32; per_pair])
                    .collect();
                alltoallv_hierarchical_wire(&c, parts, 4, WireDType::F32);
            });
        })
    });
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10)
}

criterion_group! {name = benches; config = quick(); targets = bench_allreduce, bench_alltoall}
criterion_main!(benches);
