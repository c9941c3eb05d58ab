//! `serve_bursty`: an open loop through `Server` → `Engine`.
//!
//! Sixteen clients arrive together in bursts at a fixed mean rate that is a
//! constant of the benchmark, never derived from measured capacity. δ is
//! calibrated in set-up so exactly 70% of the frame pool stays on the edge
//! (the paper's Fig. 5 operating point), and every request is timed from the
//! moment it was due, so a stalled server is charged for the wait it imposes
//! on every later arrival. One thread submits on schedule and one collects
//! answers: the load generator uses two client threads in all.

use crate::stats::{self, chunked_latency};
use crate::{metric, trace, Answer, Outcome};
use appeal_tensor::{SeededRng, Tensor};
use appealnet_core::server::{Server, ServerConfig, ServerStats, Ticket};
use appealnet_core::{CoreError, InferenceRequest};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Offered load, requests per second. At this rate the engine is busy
/// about a quarter of the time, so a burst is served before the next one
/// is due even while the shared host runs half as fast; at 1000 req/s a
/// slow stretch makes bursts queue behind each other, and the p99 doubled.
const RATE: f64 = 500.0;
/// Requests per burst, one from each client.
const CLIENTS: usize = 16;
/// Size trigger of the coalescer.
const MAX_BATCH: usize = 64;
/// Coalescing deadline.
const DEADLINE: Duration = Duration::from_millis(2);
/// Distinct frames; requests cycle through them, so the served skipping
/// rate equals the pool's exactly when the request count is a multiple.
const POOL: usize = 1000;
/// Frames of the pool kept on the edge: SR = 0.70.
const KEEP: usize = 700;
/// Requests per latency chunk: each chunk's p99 leaves 10 samples beyond.
const CHUNK: usize = 1000;

/// One scheduled arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub client: u32,
}

/// Bursts of [`CLIENTS`] arrivals, one per client. The gaps between bursts
/// are drawn uniformly from half to one and a half times the mean gap that
/// keeps the overall rate at `rate`. (With exponential gaps the p99 is set
/// by the few bursts that happen to coincide, and swings from seed to seed.)
pub fn bursty_schedule(requests: usize, rate: f64, seed: u64) -> Vec<Arrival> {
    let mut rng = SeededRng::new(seed ^ 0x4152_5256);
    let burst_gap = CLIENTS as f64 / rate;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity(requests);
    while out.len() < requests {
        let u = f64::from(rng.uniform(0.0, 1.0));
        // A burst never starts before the previous one has fully arrived.
        let previous = out
            .last()
            .map_or(0.0, |a: &Arrival| a.due.as_secs_f64() + 1e-5);
        t = (t + (0.5 + u) * burst_gap).max(previous);
        for client in 0..CLIENTS.min(requests - out.len()) {
            // Members of a burst arrive 10 µs apart.
            let due = t + client as f64 * 1e-5;
            out.push(Arrival {
                due: Duration::from_secs_f64(due),
                client: client as u32,
            });
        }
    }
    out
}

/// What the collector saw for one request.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub latency: Duration,
    pub waited: Duration,
    pub answer: Answer,
}

/// Submits `schedule` through `submit` on time (or as soon as the loop
/// catches up) and collects every answer on a second thread. Latency runs
/// from each request's due time to the moment its answer was collected.
///
/// Returns per-request results in schedule order (`None` for a request that
/// failed or was refused), how late each submission ran, how long each
/// submit call took, and the wall time from the start to the last answer.
pub fn open_loop<S>(
    schedule: &[Arrival],
    mut submit: S,
) -> (Vec<Option<Served>>, Vec<Duration>, Vec<Duration>, Duration)
where
    S: FnMut(usize, u32) -> Result<Ticket, CoreError>,
{
    let (tx, rx) = mpsc::channel::<(usize, Instant, Ticket)>();
    let n = schedule.len();
    let collector = thread::spawn(move || {
        let mut served = vec![None; n];
        let mut last = None;
        while let Ok((i, due, ticket)) = rx.recv() {
            let result = ticket.wait();
            let now = Instant::now();
            last = Some(now);
            if let Ok(r) = result {
                trace::record("serve.request", i as u64, due, now);
                served[i] = Some(Served {
                    latency: now.saturating_duration_since(due),
                    waited: r.waited,
                    answer: Answer::from(&r.response),
                });
            }
        }
        (served, last)
    });
    let mut lag = Vec::with_capacity(n);
    let mut submit_time = Vec::with_capacity(n);
    // A short lead keeps the first arrival from being late by construction.
    let start = Instant::now() + Duration::from_millis(5);
    for (i, a) in schedule.iter().enumerate() {
        let due = start + a.due;
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        lag.push(sent.saturating_duration_since(due));
        let ticket = {
            let _span = trace::span("server.submit", i as u64);
            submit(i, a.client)
        };
        submit_time.push(sent.elapsed());
        if let Ok(ticket) = ticket {
            tx.send((i, due, ticket))
                .expect("collector outlives the load generator");
        }
    }
    drop(tx);
    let (served, last) = collector.join().expect("collector thread panicked");
    let wall = last.map_or(Duration::ZERO, |t| t.saturating_duration_since(start));
    (served, lag, submit_time, wall)
}

struct Setup {
    server_engine: appealnet_core::Engine,
    pool: Tensor,
    delta: f64,
    schedule: Vec<Arrival>,
}

fn setup(seed: u64, seconds: f64, traced: bool) -> Result<Setup, String> {
    let pool = crate::frames(POOL, seed);
    // Calibrate δ on the little net's scores over the pool.
    let calibration = crate::reference_answers(seed, &pool, 0.0);
    let scores: Vec<f32> = calibration
        .iter()
        .map(|a| f32::from_bits(a.score_bits))
        .collect();
    let delta = stats::delta_for_exact_keep(&scores, KEEP)
        .ok_or("tied scores at the 30th percentile: SR 0.70 is not reachable exactly")?;
    let (little, big) = crate::build_nets(seed, traced);
    let requests = ((RATE * seconds) as usize / POOL).max(1) * POOL;
    Ok(Setup {
        server_engine: crate::engine(little, big, delta, MAX_BATCH),
        pool,
        delta,
        schedule: bursty_schedule(requests, RATE, seed),
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s) = crate::timed_setup(|| setup(seed, seconds, traced));
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.problem(1, e);
            return out;
        }
    };
    let Setup {
        server_engine,
        pool,
        delta,
        schedule,
    } = setup;
    let offered = schedule.len();
    out.attempted = offered as u64;

    let config = ServerConfig {
        queue_capacity: 4096,
        deadline: DEADLINE,
        ..ServerConfig::default()
    };
    let server = Server::start(server_engine, config).expect("valid server config");
    let handle = server.handle();
    let mut rejected = 0u64;
    let (served, lag, submit_time, wall) = open_loop(&schedule, |i, client| {
        let request = InferenceRequest::new(i as u64, crate::frame(&pool, i % POOL));
        let result = handle.submit(client, request);
        if result.is_err() {
            rejected += 1;
        }
        result
    });
    let stats = match server.shutdown() {
        Ok((_, stats)) => stats,
        Err(e) => {
            out.problem(offered as u64, format!("server shutdown failed: {e}"));
            return out;
        }
    };

    // Output checks: accounting, skipping rate, and answer bits.
    let answered = served.iter().flatten().count() as u64;
    let missing = offered as u64 - answered;
    if missing > 0 {
        out.problem(
            missing,
            format!("{missing} of {offered} requests got no answer"),
        );
    }
    check_accounting(&mut out, &stats, offered as u64, answered, rejected);
    if stats.engine.edge_handled * (POOL as u64) != stats.engine.requests * (KEEP as u64) {
        out.problem(
            0,
            format!(
                "skipping rate {}/{} is not exactly {KEEP}/{POOL}",
                stats.engine.edge_handled, stats.engine.requests
            ),
        );
    }
    let reference = crate::reference_answers(seed, &pool, delta);
    let mismatches = served
        .iter()
        .enumerate()
        .filter(|(i, s)| s.is_some_and(|s| s.answer != reference[i % POOL]))
        .count() as u64;
    if mismatches > 0 {
        out.problem(
            mismatches,
            format!("{mismatches} answers differ from the batch-64 reference pass"),
        );
    }

    let latencies_ms: Vec<f64> = served
        .iter()
        .flatten()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    let wall_s = wall.as_secs_f64();
    match chunked_latency(&latencies_ms, CHUNK) {
        Some(l) => {
            out.end_to_end.push(metric("p50_ms", l.p50, "ms"));
            out.end_to_end.push(metric("p99_ms", l.p99, "ms"));
            out.notes.push(format!(
                "serve_bursty: {answered} answered of {offered} offered at {RATE} req/s, bursts of \
                 {CLIENTS}; latency from due time, quiet rank over {} windows of {CHUNK} \
                 requests: serve_p50_ms {:.4} serve_p99_ms {:.4}; delta {delta:.6}; SR {:.4}",
                l.windows,
                l.p50,
                l.p99,
                stats.engine.skipping_rate()
            ));
            out.primary_s = l.p50 / 1e3;
        }
        None => out.problem(0, format!("{answered} answers: too few for a p99")),
    }
    out.end_to_end
        .push(metric("items_per_s", answered as f64 / wall_s, "1/s"));
    out.end_to_end.push(metric("setup_s", setup_s, "s"));

    if traced {
        let mut waited_ms: Vec<f64> = served
            .iter()
            .flatten()
            .map(|s| s.waited.as_secs_f64() * 1e3)
            .collect();
        let mut lag_ms: Vec<f64> = lag.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        let submit_us: Vec<f64> = submit_time.iter().map(|d| d.as_secs_f64() * 1e6).collect();
        let flushes = stats.size_flushes + stats.deadline_flushes + stats.drain_flushes;
        out.per_layer.extend([
            metric("server.submit_us", stats::median(&submit_us), "us"),
            metric(
                "server.queue_wait_p50_ms",
                stats::checked_percentile(&mut waited_ms, 0.50).unwrap_or(f64::NAN),
                "ms",
            ),
            metric(
                "server.queue_wait_p99_ms",
                stats::checked_percentile(&mut waited_ms, 0.99).unwrap_or(f64::NAN),
                "ms",
            ),
            metric("server.batch_mean", stats.engine.mean_batch_size(), "count"),
            metric(
                "server.deadline_flush_share",
                stats.deadline_flushes as f64 / flushes.max(1) as f64,
                "share",
            ),
            metric(
                "server.busy_share",
                stats.engine.busy_seconds / wall_s,
                "share",
            ),
            metric(
                "loadgen.lag_p99_ms",
                stats::checked_percentile(&mut lag_ms, 0.99).unwrap_or(f64::NAN),
                "ms",
            ),
        ]);
    }
    out
}

fn check_accounting(
    out: &mut Outcome,
    stats: &ServerStats,
    offered: u64,
    answered: u64,
    rejected: u64,
) {
    let settled = stats.answered + stats.shed + stats.rejected + stats.failed;
    if settled != offered {
        out.problem(
            0,
            format!(
                "offered {offered} != answered {} + shed {} + rejected {} + failed {}",
                stats.answered, stats.shed, stats.rejected, stats.failed
            ),
        );
    }
    if stats.answered != answered || stats.rejected != rejected {
        out.problem(
            0,
            format!(
                "clients saw {answered} answers and {rejected} rejections; the server counted {} and {}",
                stats.answered, stats.rejected
            ),
        );
    }
    if stats.engine.requests != stats.answered {
        out.problem(
            0,
            format!(
                "engine served {} requests but the server answered {}",
                stats.engine.requests, stats.answered
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appealnet_core::serve::Route;
    use appealnet_core::server::ServerConfig;

    #[test]
    fn schedule_is_seeded_bursty_and_keeps_the_rate() {
        let a = bursty_schedule(16_000, 1000.0, 7);
        assert_eq!(a, bursty_schedule(16_000, 1000.0, 7));
        assert_ne!(a, bursty_schedule(16_000, 1000.0, 8));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a
            .chunks(CLIENTS)
            .all(|b| b.iter().enumerate().all(|(c, x)| x.client == c as u32)));
        let span = a.last().expect("non-empty").due.as_secs_f64();
        assert!(
            (span - 16.0).abs() < 1.0,
            "16k requests at 1000/s span {span} s"
        );
    }

    #[test]
    fn open_loop_charges_a_stalled_server_from_the_due_time() {
        // A stand-in server whose front door stalls for 50 ms on the first
        // request and then answers at once. Requests due during the stall
        // must be charged the time they spent waiting behind it, not just
        // the time from their late send to their answer.
        let (little, big) = crate::build_nets(1, false);
        let engine = crate::engine(little, big, 0.0, 1);
        let server = Server::start(engine, ServerConfig::default()).expect("server starts");
        let handle = server.handle();
        let schedule: Vec<Arrival> = (0..6)
            .map(|i| Arrival {
                due: Duration::from_millis(10 * i),
                client: 0,
            })
            .collect();
        let pool = crate::frames(1, 1);
        let (served, lag, _, _) = open_loop(&schedule, |i, client| {
            if i == 0 {
                thread::sleep(Duration::from_millis(50));
            }
            handle.submit(
                client,
                InferenceRequest::new(i as u64, crate::frame(&pool, 0)),
            )
        });
        server.shutdown().expect("clean shutdown");
        let latency: Vec<f64> = served
            .iter()
            .map(|s| s.expect("answered").latency.as_secs_f64() * 1e3)
            .collect();
        // Request 0 was due at 0 and answered after the 50 ms stall.
        assert!(latency[0] >= 50.0, "latency {latency:?}");
        // Request 1 was due at 10 ms but could only be sent at ~50 ms: it is
        // charged ~40 ms although the server answered it instantly.
        assert!(latency[1] >= 39.0, "latency {latency:?}");
        assert!(latency[4] >= 9.0, "latency {latency:?}");
        assert!(lag[1] >= Duration::from_millis(39));
        assert!(served
            .iter()
            .all(|s| s.expect("answered").answer.route == Route::Edge));
    }
}
