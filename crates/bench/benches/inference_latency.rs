//! Criterion bench: single-image inference latency of the little networks vs
//! the big network, and of the full collaborative routing step — the runtime
//! costs the paper's cost model (Eq. 5 / Eq. 15) abstracts into c1 and c0.

use appeal_models::{ClassifierParts, ModelFamily, ModelSpec};
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::parallel::ChunkPolicy;
use appealnet_core::serve::{Engine, ThresholdPolicy};
use appealnet_core::two_head::TwoHeadNet;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// A fixed-threshold (Eq. 1, δ = 0.5) engine with the given batch sharding.
fn threshold_engine(net: TwoHeadNet, big: ClassifierParts, chunk: ChunkPolicy) -> Engine {
    Engine::builder()
        .appealnet(net)
        .big(big)
        .policy(ThresholdPolicy::new(0.5).expect("0.5 is a valid threshold"))
        .chunk_policy(chunk)
        .build()
        .expect("scorer and big model are set")
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_latency");
    group.sample_size(20);
    let mut rng = SeededRng::new(0);
    let image = Tensor::randn(&[1, 3, 12, 12], &mut rng);

    for family in ModelFamily::little_families() {
        let mut model = ModelSpec::little(family, [3, 12, 12], 10).build(&mut rng);
        group.bench_function(format!("little_{}_single_image", family.name()), |b| {
            b.iter(|| model.forward(black_box(&image), false))
        });
    }
    let mut big = ModelSpec::big([3, 12, 12], 10).build(&mut rng);
    group.bench_function("big_resnet_like_single_image", |b| {
        b.iter(|| big.forward(black_box(&image), false))
    });

    // Full collaborative routing of a small batch.
    let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
    let net = TwoHeadNet::from_parts(little, &mut rng);
    let big = ModelSpec::big([3, 12, 12], 10).build(&mut rng);
    let mut engine = threshold_engine(net, big, ChunkPolicy::runtime());
    let batch = Tensor::randn(&[16, 3, 12, 12], &mut rng);
    group.bench_function("collaborative_routing_16_images", |b| {
        b.iter(|| engine.classify_batch(black_box(&batch)))
    });

    // Sequential vs rayon-sharded routing of larger batches: both engines
    // share one set of trained weights (cloned), so they route identically
    // and differ only in the batch execution strategy. The parallel path
    // wins once the batch is big enough to amortize the fan-out (it degrades
    // to the sequential path on a single-core machine).
    let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 10).build(&mut rng);
    let shared_net = TwoHeadNet::from_parts(little, &mut rng);
    let shared_big = ModelSpec::big([3, 12, 12], 10).build(&mut rng);
    for batch_size in [32usize, 64, 128] {
        let batch = Tensor::randn(&[batch_size, 3, 12, 12], &mut rng);
        let mut sequential = threshold_engine(
            shared_net.clone(),
            shared_big.clone(),
            ChunkPolicy::sequential(),
        );
        group.bench_function(format!("routing_{batch_size}_images_sequential"), |b| {
            b.iter(|| sequential.classify_batch(black_box(&batch)))
        });
        let mut parallel = threshold_engine(
            shared_net.clone(),
            shared_big.clone(),
            ChunkPolicy {
                min_shard: 8,
                max_shards: rayon::current_num_threads(),
            },
        );
        group.bench_function(format!("routing_{batch_size}_images_rayon"), |b| {
            b.iter(|| parallel.classify_batch(black_box(&batch)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
