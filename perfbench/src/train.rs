//! `train_gtsrb`: the paper-fidelity training pipeline, then the trained
//! system deployed at SR 0.70.
//!
//! The untraced pass times `PreparedExperiment::prepare_with_data` on the
//! GTSRB-like preset with the MobileNet-like little net and a white-box
//! cloud, derives the paper's quality numbers from its artifacts, and then
//! serves the test split through an `Engine` calibrated to SR 0.70 one frame
//! at a time, checking every answer against the artifacts. The experiment
//! seed is fixed, so `acc_at_sr70` and `q_auc` are identical on every run
//! and move only when a model, the loss or the trainer changes.
//!
//! The traced pass replays the same pipeline phase by phase from the public
//! training API, with a span around each phase, and checks that it
//! reproduces the library pipeline's routing scores bit for bit when both
//! ran in one process.

use crate::stats::{self, chunked_latency};
use crate::{host, metric, trace, Outcome};
use appeal_dataset::{DatasetPair, DatasetPreset, Fidelity};
use appeal_models::{ClassifierParts, ModelFamily, ModelSpec};
use appeal_tensor::{Layer, SeededRng};
use appealnet_core::experiments::{ExperimentContext, PreparedExperiment};
use appealnet_core::parallel::{self, ChunkPolicy};
use appealnet_core::serve::Route;
use appealnet_core::training::{
    big_model_losses_with_policy, evaluate_classifier_with_policy, train_appealnet,
    train_classifier,
};
use appealnet_core::{
    AppealLoss, CalibratedPolicy, CloudMode, Engine, InferenceRequest, ScoreKind, TwoHeadNet,
};
use std::sync::Mutex;
use std::time::Instant;

const PRESET: DatasetPreset = DatasetPreset::GtsrbLike;
const FAMILY: ModelFamily = ModelFamily::MobileNetLike;
const MODE: CloudMode = CloudMode::WhiteBox;
/// The experiment seed. Fixed on purpose: the quality numbers are a check
/// on the models' behaviour, so every run trains the same models.
const SEED: u64 = 2021;
/// Passes of the deployed system over the test split.
const DEPLOY_PASSES: usize = 10;
/// Frames per latency chunk of the deployment phase.
const CHUNK: usize = 1000;

/// The q scores of the last library pipeline run, for the replica check.
static PIPELINE_Q: Mutex<Option<Vec<u32>>> = Mutex::new(None);

fn context() -> ExperimentContext {
    ExperimentContext::new(Fidelity::Paper, SEED)
}

/// Sample-epochs one pipeline trains: big, little and joint trainers.
fn trained_samples(pair: &DatasetPair) -> f64 {
    let ctx = context();
    let epochs = ctx.big_config().epochs + ctx.little_config().epochs + ctx.joint_config().epochs;
    (epochs * pair.train.len()) as f64
}

pub fn run(traced: bool) -> Outcome {
    let (pair, generate_s) = crate::timed_setup(|| {
        let _span = trace::span("train.generate", trace::NO_ID);
        PRESET.spec(Fidelity::Paper).generate()
    });
    if traced {
        replica(&pair, generate_s)
    } else {
        pipeline(&pair, generate_s)
    }
}

fn pipeline(pair: &DatasetPair, setup_s: f64) -> Outcome {
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    let started = Instant::now();
    let prepared = PreparedExperiment::prepare_with_data(PRESET, pair, FAMILY, MODE, &context());
    let train_s = started.elapsed().as_secs_f64();
    out.primary_s = train_s;

    let chance = 1.0 / PRESET.num_classes() as f64;
    for (what, acc) in [
        ("little", prepared.little_accuracy),
        ("appealnet", prepared.appealnet_accuracy),
        ("big", prepared.big_accuracy),
    ] {
        if acc.is_nan() || acc <= chance {
            out.problem(
                1,
                format!("{what} accuracy {acc} is not above chance {chance}"),
            );
        }
    }
    let art = prepared.artifacts(ScoreKind::AppealNetQ);
    if let Err(e) = art.validate() {
        out.problem(1, format!("artifacts do not validate: {e}"));
        return out;
    }
    *PIPELINE_Q.lock().expect("pipeline scores lock") =
        Some(art.scores.iter().map(|s| s.to_bits()).collect());
    let at70 = match art.at_skipping_rate(0.7) {
        Ok(m) => m,
        Err(e) => {
            out.problem(1, format!("no operating point at SR 0.70: {e}"));
            return out;
        }
    };
    if at70.overall_accuracy.is_nan() || at70.overall_accuracy <= chance {
        out.problem(
            1,
            format!(
                "accuracy at SR 0.70 {} is not above chance",
                at70.overall_accuracy
            ),
        );
    }
    let q_auc = stats::auc(&art.scores, &art.little_correct);
    out.notes.push(format!(
        "train_gtsrb: train_s {train_s:.3}; acc_at_sr70 {:.4}% (SR {:.4}, delta {:.6}); q_auc {}; \
         little {:.4} appealnet {:.4} big {:.4}; seed {SEED}",
        100.0 * at70.overall_accuracy,
        at70.skipping_rate,
        at70.threshold,
        q_auc.map_or("undefined".to_string(), |a| format!("{a:.6}")),
        prepared.little_accuracy,
        prepared.appealnet_accuracy,
        prepared.big_accuracy,
    ));

    // Deploy the trained system at SR 0.70 and serve the test split.
    let policy = match CalibratedPolicy::for_skipping_rate(art, 0.7) {
        Ok(p) => p,
        Err(e) => {
            out.problem(1, format!("calibrating SR 0.70: {e}"));
            return out;
        }
    };
    let delta = policy.threshold();
    let mut engine = Engine::builder()
        .appealnet(prepared.models.appealnet.clone())
        .big(prepared.models.big.clone())
        .policy(policy)
        .max_batch(1)
        .build()
        .expect("trained nets build an engine");
    let test = &pair.test;
    let n = test.len();
    let [c, h, w] = [
        test.image_shape()[0],
        test.image_shape()[1],
        test.image_shape()[2],
    ];
    let len = c * h * w;
    let mut latencies_ms = Vec::with_capacity(n * DEPLOY_PASSES);
    let mut wrong_answers = 0u64;
    let mut correct_served = 0usize;
    let deploy_started = Instant::now();
    for k in 0..n * DEPLOY_PASSES {
        let i = k % n;
        let image = appeal_tensor::Tensor::from_vec(
            test.images().data()[i * len..(i + 1) * len].to_vec(),
            &[c, h, w],
        )
        .expect("a test row has the image shape");
        let t0 = Instant::now();
        let result = engine.submit(InferenceRequest::new(k as u64, image));
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let Ok(Some(responses)) = result else {
            wrong_answers += 1;
            continue;
        };
        let r = &responses[0];
        let keep = f64::from(r.score) >= delta;
        let right = r.label == test.labels()[i];
        let expected_right = if keep {
            art.little_correct[i]
        } else {
            art.big_correct[i]
        };
        if r.score.to_bits() != art.scores[i].to_bits()
            || (r.route == Route::Edge) != keep
            || right != expected_right
        {
            wrong_answers += 1;
        }
        if k < n && right {
            correct_served += 1;
        }
    }
    let deploy_s = deploy_started.elapsed().as_secs_f64();
    out.attempted += (n * DEPLOY_PASSES) as u64;
    if wrong_answers > 0 {
        out.problem(
            wrong_answers,
            format!("{wrong_answers} deployed answers disagree with the training artifacts"),
        );
    }
    let expected_correct = (at70.overall_accuracy * n as f64).round() as usize;
    if correct_served != expected_correct {
        out.problem(
            0,
            format!("deployed system answered {correct_served}/{n} right; artifacts say {expected_correct}"),
        );
    }
    match chunked_latency(&latencies_ms, CHUNK) {
        Some(l) => {
            out.end_to_end.push(metric("p50_ms", l.p50, "ms"));
            out.end_to_end.push(metric("p99_ms", l.p99, "ms"));
            out.notes.push(format!(
                "train_gtsrb deployment: {} frames at SR 0.70 in {deploy_s:.3} s, quiet rank \
                 over {} windows of {CHUNK}: p50 {:.4} ms p99 {:.4} ms",
                n * DEPLOY_PASSES,
                l.windows,
                l.p50,
                l.p99
            ));
        }
        None => out.problem(0, "too few deployed frames for a p99".to_string()),
    }
    out.end_to_end.push(metric(
        "items_per_s",
        trained_samples(pair) / train_s,
        "1/s",
    ));
    out.end_to_end.push(metric("setup_s", setup_s, "s"));
    out
}

/// Copies parameter values between two models built from one spec (the
/// pipeline's "initialise AppealNet from the trained little net").
fn copy_params(src: &mut ClassifierParts, dst: &mut ClassifierParts) {
    let mut from = src.backbone.params_mut();
    from.extend(src.head.params_mut());
    let mut to = dst.backbone.params_mut();
    to.extend(dst.head.params_mut());
    assert_eq!(from.len(), to.len(), "models share an architecture");
    for (s, d) in from.iter().zip(to.iter_mut()) {
        d.value = s.value.clone();
    }
}

/// The library pipeline, phase by phase, with a span around each phase.
/// Mirrors `PreparedExperiment::prepare_with_data` for a white-box cloud:
/// the same RNG derivations, worker splits and concurrency.
fn replica(pair: &DatasetPair, generate_s: f64) -> Outcome {
    let mut out = Outcome {
        attempted: 1,
        ..Outcome::default()
    };
    let ctx = context();
    let spec = PRESET.spec(ctx.fidelity);
    let input_shape = [spec.channels, spec.height, spec.width];
    let classes = spec.num_classes;
    let eval_batch = ctx.eval_batch();
    let policy = ChunkPolicy::for_fidelity(ctx.fidelity);
    let cpu0 = host::cpu_seconds();
    let started = Instant::now();
    let total = trace::span("train.pipeline", trace::NO_ID);

    let mut rng = SeededRng::new(ctx.seed ^ spec.seed);
    let mut big_rng = rng.split();
    let mut little_rng = rng.split();
    let little_spec = ModelSpec::little(FAMILY, input_shape, classes);
    let mut init_rng = little_rng.split();
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let mut big_s = 0.0;
    let mut little_s = 0.0;
    let ((mut big, big_losses), mut baseline) = rayon::join(
        || {
            let mut result = None;
            big_s = timed(&mut || {
                let _span = trace::span("train.big", trace::NO_ID);
                let mut big = ModelSpec::big(input_shape, classes).build(&mut big_rng);
                let mut config = ctx.big_config();
                config.eval_policy = config.eval_policy.split_across(2);
                train_classifier(&mut big, &pair.train, &config);
                evaluate_classifier_with_policy(
                    &mut big,
                    &pair.test,
                    eval_batch,
                    &config.eval_policy,
                );
                let losses = big_model_losses_with_policy(
                    &mut big,
                    &pair.train,
                    eval_batch,
                    &config.eval_policy,
                );
                result = Some((big, losses));
            });
            result.expect("big branch ran")
        },
        || {
            let mut result = None;
            little_s = timed(&mut || {
                let _span = trace::span("train.little", trace::NO_ID);
                let mut baseline = little_spec.build(&mut init_rng);
                let mut config = ctx.little_config();
                config.eval_policy = config.eval_policy.split_across(2);
                train_classifier(&mut baseline, &pair.train, &config);
                evaluate_classifier_with_policy(
                    &mut baseline,
                    &pair.test,
                    eval_batch,
                    &config.eval_policy,
                );
                result = Some(baseline);
            });
            result.expect("little branch ran")
        },
    );

    let mut appealnet = None;
    let joint_s = timed(&mut || {
        let _span = trace::span("train.joint", trace::NO_ID);
        let mut appeal_init_rng = little_rng.split();
        let mut appeal_little = little_spec.build(&mut appeal_init_rng);
        copy_params(&mut baseline, &mut appeal_little);
        let mut net = TwoHeadNet::from_parts(appeal_little, &mut little_rng);
        let loss = AppealLoss::new(ctx.beta, MODE);
        train_appealnet(
            &mut net,
            &pair.train,
            &loss,
            &big_losses,
            &ctx.joint_config(),
        );
        appealnet = Some(net);
    });
    let mut appealnet = appealnet.expect("joint phase ran");

    let mut q = Vec::new();
    let eval_s = timed(&mut || {
        let _span = trace::span("train.eval", trace::NO_ID);
        let test = &pair.test;
        let policy = policy.split_across(3);
        let (appeal_out, _) = rayon::join(
            || appealnet.evaluate_with_policy(test.images(), eval_batch, &policy),
            || {
                rayon::join(
                    || {
                        parallel::classifier_correctness(
                            &mut big,
                            test.images(),
                            test.labels(),
                            eval_batch,
                            &policy,
                        )
                    },
                    || {
                        parallel::classifier_logits(
                            &mut baseline,
                            test.images(),
                            eval_batch,
                            &policy,
                        )
                    },
                )
            },
        );
        q = appeal_out.q;
    });
    drop(total);
    let wall_s = started.elapsed().as_secs_f64();
    out.primary_s = wall_s;
    let cpu_per_wall = match (cpu0, host::cpu_seconds()) {
        (Some(a), Some(b)) => (b - a) / wall_s,
        _ => f64::NAN,
    };

    if q.len() != pair.test.len() || q.iter().any(|s| !s.is_finite()) {
        out.problem(
            1,
            "replica produced missing or non-finite scores".to_string(),
        );
    }
    if let Some(expected) = PIPELINE_Q.lock().expect("pipeline scores lock").as_ref() {
        let differ = q
            .iter()
            .zip(expected)
            .filter(|(a, b)| a.to_bits() != **b)
            .count();
        if differ > 0 || q.len() != expected.len() {
            out.problem(
                1,
                format!("replica scores differ from the library pipeline on {differ} samples"),
            );
        } else {
            out.notes
                .push("train replica: scores bit-identical to the library pipeline".into());
        }
    }
    out.notes.push(format!(
        "train phases: generate {generate_s:.3} s | big {big_s:.3} s || little {little_s:.3} s | \
         joint {joint_s:.3} s | eval {eval_s:.3} s | wall {wall_s:.3} s | cpu/wall {cpu_per_wall:.3}"
    ));
    out.per_layer.extend([
        metric("train.generate_s", generate_s, "s"),
        metric("train.big_s", big_s, "s"),
        metric("train.little_s", little_s, "s"),
        metric("train.joint_s", joint_s, "s"),
        metric("train.eval_s", eval_s, "s"),
        metric("train.cpu_per_wall", cpu_per_wall, "ratio"),
    ]);
    out
}
