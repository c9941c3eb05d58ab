//! Per-layer tables of the traced run.
//!
//! - The per-`Layer` table: every top-level layer of both backbones and
//!   every head, each on a `clone_box` copy at the workload shapes (12×12
//!   inputs): forward at batch 1 and 64, backward at batch 48 (the training
//!   batch), with GFLOP/s derived from `Layer::flops`.
//! - The engine stages: the edge pass through `Scorer::evaluate`, the cloud
//!   pass through `parallel::classifier_logits`, and one
//!   `RoutingPolicy::decide` call.
//! - Kernel scratch allocations over a steady-state serving loop.

use crate::stats::median;
use crate::trace::{self, Span};
use crate::{metric, Outcome, INPUT};
use appeal_hw::InferenceCost;
use appeal_models::{ModelFamily, ModelSpec};
use appeal_tensor::layers::{Dense, Sequential, Sigmoid};
use appeal_tensor::{Layer, SeededRng, Tensor};
use appealnet_core::parallel::{self, ChunkPolicy};
use appealnet_core::serve::{QScorer, RoutingContext, RoutingPolicy, Scorer};
use appealnet_core::{InferenceRequest, ThresholdPolicy};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions per timing; each reports the median.
const REPS: usize = 7;
/// Inner calls per repetition are raised until one repetition takes this long.
const MIN_REP_NANOS: u128 = 200_000;

/// Median seconds per call of `f`, batching calls so each repetition is
/// long enough for the clock.
fn time_call(mut f: impl FnMut()) -> f64 {
    let mut inner = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        if t.elapsed().as_nanos() >= MIN_REP_NANOS || inner >= 1 << 16 {
            break;
        }
        inner *= 2;
    }
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    median(&reps)
}

/// Median seconds of one backward pass at `input` (each preceded by an
/// untimed training-mode forward pass that fills the layer's caches).
fn time_backward(layer: &mut dyn Layer, input: &Tensor, rng: &mut SeededRng) -> f64 {
    let out_shape = layer.forward(input, true).shape().to_vec();
    let grad = Tensor::randn(&out_shape, rng);
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            layer.forward(input, true);
            let t = Instant::now();
            black_box(layer.backward(&grad));
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&reps)
}

struct Row {
    name: String,
    flops: u64,
    fwd_b1: f64,
    fwd_b64: f64,
    bwd_b48: f64,
}

fn time_layer(name: String, layer: &dyn Layer, inputs: &[Tensor; 3], rng: &mut SeededRng) -> Row {
    let per_sample = inputs[0].shape()[1..].to_vec();
    let mut copy = layer.clone_box();
    let fwd_b1 = time_call(|| {
        black_box(copy.forward(&inputs[0], false));
    });
    let fwd_b64 = time_call(|| {
        black_box(copy.forward(&inputs[1], false));
    });
    let bwd_b48 = time_backward(copy.as_mut(), &inputs[2], rng);
    Row {
        name,
        flops: layer.flops(&per_sample),
        fwd_b1,
        fwd_b64,
        bwd_b48,
    }
}

/// Times every top-level layer of `backbone`, then each head on the
/// backbone's output, feeding each layer the activations it sees in the
/// net at batch 1, 64 and 48.
fn net_rows(
    net: &str,
    backbone: &Sequential,
    heads: &[(&str, &dyn Layer)],
    rng: &mut SeededRng,
) -> Vec<Row> {
    let [c, h, w] = INPUT;
    let mut x: [Tensor; 3] = [1, 64, 48].map(|n| Tensor::randn(&[n, c, h, w], rng));
    let mut rows = Vec::new();
    for (idx, layer) in backbone.iter().enumerate() {
        rows.push(time_layer(
            format!("tensor.{net}.{idx:02}_{}", layer.name()),
            layer.as_ref(),
            &x,
            rng,
        ));
        let mut copy = layer.clone_box();
        x = x.map(|t| copy.forward(&t, false));
    }
    for (head, layer) in heads {
        rows.push(time_layer(format!("tensor.{net}.{head}"), *layer, &x, rng));
    }
    rows
}

fn layer_table(seed: u64, out: &mut Outcome) {
    let mut rng = SeededRng::new(seed ^ 0x4C41_5945);
    let little =
        ModelSpec::little(ModelFamily::MobileNetLike, INPUT, crate::CLASSES).build(&mut rng);
    let big = ModelSpec::big(INPUT, crate::CLASSES).build(&mut rng);
    // The predictor head `TwoHeadNet::from_parts` inserts.
    let qhead = Sequential::new(vec![
        Box::new(Dense::new(little.feature_dim, 1, &mut rng)),
        Box::new(Sigmoid::new()),
    ]);
    let mut rows = net_rows(
        "little",
        &little.backbone,
        &[("head", &little.head), ("qhead", &qhead)],
        &mut rng,
    );
    rows.extend(net_rows(
        "big",
        &big.backbone,
        &[("head", &big.head)],
        &mut rng,
    ));

    out.notes.push(format!(
        "{:<34} {:>9} {:>12} {:>8} {:>12} {:>8} {:>12} {:>8}",
        "layer (12x12 input)",
        "MFLOP",
        "fwd_b1_us",
        "GFLOP/s",
        "fwd_b64_us",
        "GFLOP/s",
        "bwd_b48_us",
        "GFLOP/s"
    ));
    let gflops = |flops: u64, batch: f64, secs: f64| flops as f64 * batch / secs / 1e9;
    for r in &rows {
        out.notes.push(format!(
            "{:<34} {:>9.4} {:>12.3} {:>8.3} {:>12.3} {:>8.3} {:>12.3} {:>8.3}",
            r.name,
            r.flops as f64 / 1e6,
            r.fwd_b1 * 1e6,
            gflops(r.flops, 1.0, r.fwd_b1),
            r.fwd_b64 * 1e6,
            gflops(r.flops, 64.0, r.fwd_b64),
            r.bwd_b48 * 1e6,
            // A backward pass does about twice the forward pass's work.
            gflops(2 * r.flops, 48.0, r.bwd_b48),
        ));
        out.per_layer.extend([
            metric(format!("{}.fwd_b1_us", r.name), r.fwd_b1 * 1e6, "us"),
            metric(format!("{}.fwd_b64_us", r.name), r.fwd_b64 * 1e6, "us"),
            metric(format!("{}.bwd_b48_us", r.name), r.bwd_b48 * 1e6, "us"),
        ]);
    }
}

fn engine_stages(seed: u64, out: &mut Outcome) {
    let (little, mut big) = crate::build_nets(seed, false);
    let mut scorer = QScorer::new(little);
    let pool = crate::frames(64, seed);
    let batch = |n: usize| pool.select_rows(&(0..n).collect::<Vec<_>>());
    let chunk = ChunkPolicy::runtime();
    let metrics = &mut out.per_layer;
    for (n, name, scale, unit) in [
        (1, "engine.edge_b1_us", 1e6, "us"),
        (16, "engine.edge_b16_ms", 1e3, "ms"),
        (64, "engine.edge_b64_ms", 1e3, "ms"),
    ] {
        let images = batch(n);
        metrics.push(metric(
            name,
            scale
                * time_call(|| {
                    black_box(scorer.evaluate(&images));
                }),
            unit,
        ));
    }
    for (n, name) in [
        (1, "engine.cloud_b1_ms"),
        (16, "engine.cloud_b16_ms"),
        (64, "engine.cloud_b64_ms"),
    ] {
        let images = batch(n);
        metrics.push(metric(
            name,
            1e3 * time_call(|| {
                black_box(parallel::classifier_logits(&mut big, &images, n, &chunk));
            }),
            "ms",
        ));
    }
    let mut policy = ThresholdPolicy::new(0.5).expect("0.5 is a valid threshold");
    let ctx = RoutingContext {
        edge_cost: InferenceCost::zero(),
        offload_cost: InferenceCost::zero(),
    };
    let scores: Vec<f32> = (0..1024).map(|i| i as f32 / 1024.0).collect();
    let per_1024 = time_call(|| {
        for &s in &scores {
            black_box(policy.decide(black_box(s), &ctx));
        }
    });
    metrics.push(metric("engine.policy_ns", per_1024 / 1024.0 * 1e9, "ns"));
}

/// Scratch allocations across 20 steady-state batches at `max_batch` 64
/// and 64 steady-state frames at `max_batch` 1, after two warm-up rounds.
fn steady_scratch_allocs(seed: u64, out: &mut Outcome) {
    let pool = crate::frames(64, seed);
    let reference = crate::reference_answers(seed, &pool, 0.0);
    let mut scores: Vec<f32> = reference
        .iter()
        .map(|a| f32::from_bits(a.score_bits))
        .collect();
    scores.sort_by(f32::total_cmp);
    // Route about half the frames to the cloud so both nets run.
    let delta = f64::from(scores[32]);
    let mut engines = [64, 1].map(|max_batch| {
        let (little, big) = crate::build_nets(seed, false);
        crate::engine(little, big, delta, max_batch)
    });
    let mut serve = |frames: [usize; 2]| {
        for (engine, n) in engines.iter_mut().zip(frames) {
            for i in 0..n {
                let request = InferenceRequest::new(i as u64, crate::frame(&pool, i % 64));
                engine
                    .submit(request)
                    .expect("pool frames have the input shape");
            }
        }
    };
    serve([2 * 64, 2]);
    let before = appeal_tensor::kernels::scratch_stats().allocs;
    serve([20 * 64, 64]);
    let allocs = appeal_tensor::kernels::scratch_stats().allocs - before;
    out.notes.push(format!(
        "kernels: {allocs} scratch allocations in steady-state serving"
    ));
    out.per_layer.push(metric(
        "kernels.scratch_allocs_steady",
        allocs as f64,
        "count",
    ));
}

/// The per-layer tables. Runs untraced, after the traced passes.
pub fn run(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    layer_table(seed, &mut out);
    engine_stages(seed, &mut out);
    steady_scratch_allocs(seed, &mut out);
    out
}

/// Prints the self time of each span name recorded in the traced passes.
pub fn print_span_totals(spans: &[Span]) {
    println!(
        "{:<28} {:>9} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in trace::totals(spans) {
        println!(
            "{name:<28} {:>9} {:>12.3} {:>12.3}",
            t.count, t.total_ms, t.self_ms
        );
    }
}
