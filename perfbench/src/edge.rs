//! `edge_stream`: the edge device's per-frame path alone.
//!
//! One caller submits frames back to back (a closed loop) to an `Engine`
//! with `max_batch` 1 and δ = 0, so every frame stays on the edge (SR 1.0):
//! the little net at batch 1, the scorer and the policy. The server, the
//! coalescer and the big net do no work, so a gain in any of them must
//! read "no change" here.
//!
//! The caller cycles through a pool of frames round after round. A frame
//! does the same work every round, so its latency is read at the quiet rank
//! over its rounds, and p50 and p99 are taken over the frames: the
//! program's own per-frame cost, without the shared host's busy stretches
//! and short stalls, which otherwise set a run's p99.

use crate::stats;
use crate::{metric, trace, Answer, Outcome};
use appealnet_core::InferenceRequest;
use std::time::{Duration, Instant};

/// Frames in one round: enough for ten beyond the p99 over frames.
const POOL: usize = 1000;

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let ((mut engine, pool), setup_s) = crate::timed_setup(|| {
        let (little, big) = crate::build_nets(seed, traced);
        (
            crate::engine(little, big, 0.0, 1),
            crate::frames(POOL, seed),
        )
    });

    let budget = Duration::from_secs_f64(seconds);
    // Touch the result buffers up front so the process's peak RSS does not
    // follow how many frames this run happened to fit.
    let expected = (40_000.0 * seconds) as usize;
    let mut answers = vec![
        Answer {
            label: 0,
            route: appealnet_core::serve::Route::Edge,
            score_bits: 0,
        };
        expected
    ];
    answers.clear();
    let mut latencies_ms: Vec<Vec<f64>> = (0..POOL)
        .map(|_| {
            let mut rounds = vec![1.0f64; expected / POOL];
            rounds.clear();
            rounds
        })
        .collect();
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < budget {
        let request = InferenceRequest::new(i as u64, crate::frame(&pool, i % POOL));
        let t0 = Instant::now();
        let result = {
            let _span = trace::span("engine.submit", i as u64);
            engine.submit(request)
        };
        let t1 = Instant::now();
        match result {
            Ok(Some(responses)) if responses.len() == 1 && responses[0].id == i as u64 => {
                answers.push(Answer::from(&responses[0]));
                latencies_ms[i % POOL].push((t1 - t0).as_secs_f64() * 1e3);
            }
            other => {
                out.problem(1, format!("frame {i}: expected one answer, got {other:?}"));
                answers.push(Answer {
                    label: usize::MAX,
                    route: appealnet_core::serve::Route::Cloud,
                    score_bits: 0,
                });
            }
        }
        i += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.attempted = i as u64;

    let stats = *engine.stats();
    if stats.edge_handled != stats.requests || stats.requests != i as u64 {
        out.problem(
            0,
            format!(
                "skipping rate {}/{} over {i} frames is not exactly 1",
                stats.edge_handled, stats.requests
            ),
        );
    }
    let reference = crate::reference_answers(seed, &pool, 0.0);
    let mismatches = answers
        .iter()
        .enumerate()
        .filter(|(k, a)| a.label != usize::MAX && **a != reference[k % POOL])
        .count() as u64;
    if mismatches > 0 {
        out.problem(
            mismatches,
            format!("{mismatches} answers differ from the batch-64 reference pass"),
        );
    }

    let mut quiet_ms: Vec<f64> = latencies_ms
        .iter()
        .filter(|rounds| !rounds.is_empty())
        .map(|rounds| stats::quiet_low(rounds))
        .collect();
    // Frames per second of engine time: one frame of every position at its
    // quiet-rank latency. The loop's own cost of copying each frame out of
    // the pool is not the engine's and is left out.
    let fps = quiet_ms.len() as f64 * 1e3 / quiet_ms.iter().sum::<f64>();
    match (
        stats::checked_percentile(&mut quiet_ms, 0.50),
        stats::checked_percentile(&mut quiet_ms, 0.99),
    ) {
        (Some(p50), Some(p99)) if i >= POOL => {
            out.end_to_end.push(metric("p50_ms", p50, "ms"));
            out.end_to_end.push(metric("p99_ms", p99, "ms"));
            out.end_to_end.push(metric("items_per_s", fps, "1/s"));
            out.notes.push(format!(
                "edge_stream: {i} frames in {wall_s:.3} s ({:.1}/s), {:.1} rounds of {POOL}; \
                 each frame at the quiet rank over its rounds: edge_fps {fps:.1} edge_p50_us \
                 {:.3} edge_p99_us {:.3}",
                i as f64 / wall_s,
                i as f64 / POOL as f64,
                p50 * 1e3,
                p99 * 1e3
            ));
            out.primary_s = p50 / 1e3;
        }
        _ => out.problem(0, format!("{i} frames: fewer than one round of {POOL}")),
    }
    out.end_to_end.push(metric("setup_s", setup_s, "s"));
    out
}
