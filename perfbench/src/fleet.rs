//! `fleet_blackout`: the fleet simulator through a mid-trace cloud blackout.
//!
//! Sixteen edge nodes on wifi at δ = 0.9 with bursty arrivals; breaker,
//! bounded retries, gossip and the cooperative policy are all on, and the
//! cloud is unreachable for the middle sixth of the trace. The simulator
//! runs in virtual time, so its statistics are deterministic; the host time
//! it takes is the measurement. It runs batch-1 edge passes, small cloud
//! batches and one large counterfactual big-net pass.
//!
//! Every run replays the same fleet: the same nets, trace, frames, link
//! weather and faults. How much work a run does depends on all of them (at
//! the fixed δ the nets' scores set how many requests appeal, and the
//! blackout sets how many degrade), and the simulated statistics such as
//! `sim_p99_ms` must come out identical on every run, so none of them
//! follows `--seed`.
//!
//! The simulator makes exactly one edge pass per request, in virtual-time
//! order, so the host time between the starts of consecutive edge passes is
//! the host cost of simulating one request: every event, cloud batch and
//! gossip round handled in between. Its p50 and p99 are this workload's
//! latencies. The simulated latencies (what a fleet user would see) are
//! printed too; they cluster on the edge path, the cloud path and the
//! appeal deadlines, and measure the simulated system, not the host.

use crate::stats::chunked_latency;
use crate::{metric, trace, Outcome};
use appeal_hw::{DeviceSpec, FaultEvent, FaultPlan, StochasticLink};
use appeal_tensor::layers::Sequential;
use appeal_tensor::{Layer, Param, Tensor};
use appealnet_core::{ChunkPolicy, TwoHeadNet};
use appealnet_fleet::trace::{TraceShape, TraceSpec};
use appealnet_fleet::{
    BreakerConfig, CloudConfig, CooperativeConfig, FleetConfig, FleetMetrics, FleetSim,
    GossipConfig, RecoveryConfig, RetryConfig,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const NODES: usize = 16;
/// Seeds the nets, the trace and the simulator.
const SEED: u64 = 2021;
const REQUESTS: usize = 3200;
/// Mean gap between arrivals across the fleet.
const MEAN_GAP_NANOS: u64 = 1_000_000;
/// Per-request host costs per latency chunk.
const CHUNK: usize = 1000;

type Stamps = Arc<Mutex<Vec<Instant>>>;

/// Wraps the little net's backbone and stamps the start of every forward
/// pass; numerics are those of the wrapped layer.
struct EdgeClock {
    stamps: Stamps,
    inner: Box<dyn Layer>,
}

impl Layer for EdgeClock {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        self.stamps
            .lock()
            .expect("stamp store poisoned")
            .push(Instant::now());
        self.inner.forward(input, train)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        self.inner.backward(grad_output)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn output_shape(&self, input_shape: &[usize]) -> Vec<usize> {
        self.inner.output_shape(input_shape)
    }

    fn flops(&self, input_shape: &[usize]) -> u64 {
        self.inner.flops(input_shape)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Self {
            stamps: Arc::clone(&self.stamps),
            inner: self.inner.clone_box(),
        })
    }

    fn clear_cache(&mut self) {
        self.inner.clear_cache();
    }
}

fn config(seed: u64, trace: &TraceSpec) -> FleetConfig {
    let span = trace.span_nanos();
    let blackout = FaultPlan::new(
        seed,
        vec![FaultEvent::CloudBlackout {
            from_nanos: span / 12 * 5,
            until_nanos: span / 12 * 7,
        }],
    )
    .expect("a blackout inside the trace is a valid plan");
    FleetConfig {
        nodes: NODES,
        delta: 0.9,
        edge_device: DeviceSpec::mobile_soc(),
        cloud: CloudConfig {
            device: DeviceSpec::cloud_gpu(),
            max_batch: 8,
            deadline_ms: 2.0,
            batch_overhead_ms: 1.0,
            shed_backlog_ms: None,
        },
        link: StochasticLink::wifi(),
        node_links: None,
        degrade: None,
        adaptive: None,
        recovery: Some(RecoveryConfig {
            appeal_deadline_ms: 40.0,
            retry: RetryConfig {
                max_attempts: 3,
                base_backoff_ms: 5.0,
                max_backoff_ms: 40.0,
            },
            breaker: Some(BreakerConfig::default_for_appeals()),
        }),
        faults: blackout,
        gossip: GossipConfig::default_for_fleet(),
        cooperative: Some(CooperativeConfig::default_for_fleet()),
        slo_ms: 100.0,
        chunk: ChunkPolicy::sequential(),
        seed,
    }
}

fn trace_spec(seed: u64) -> TraceSpec {
    TraceSpec {
        shape: TraceShape::Bursty { burst: 16 },
        requests: REQUESTS,
        mean_gap_nanos: MEAN_GAP_NANOS,
        clients: NODES as u32,
        seed,
    }
}

/// Runs the simulation at least once and then until `seconds` of host time
/// have passed, each time on a freshly built fleet.
pub fn run(seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let stamps: Stamps = Arc::default();
    let ((little, big, config, spec), setup_s) = crate::timed_setup(|| {
        let (mut little, big, mut rng) = crate::build_parts(SEED, traced);
        let backbone = std::mem::replace(&mut little.backbone, Sequential::empty());
        little.backbone = Sequential::new(vec![Box::new(EdgeClock {
            stamps: Arc::clone(&stamps),
            inner: Box::new(backbone),
        })]);
        let little = TwoHeadNet::from_parts(little, &mut rng);
        let spec = trace_spec(SEED);
        let config = config(SEED, &spec);
        // Set-up includes building one fleet, which validates the
        // configuration; each timed run then starts from a fresh fleet.
        FleetSim::new(little.clone(), big.clone(), config.clone()).expect("valid fleet config");
        (little, big, config, spec)
    });

    let mut first: Option<FleetMetrics> = None;
    let mut runs = 0u64;
    let mut run_s = 0.0f64;
    let mut model_ms = 0.0f64;
    let mut run_ms = 0.0f64;
    let mut per_request_ms: Vec<f64> = Vec::new();
    let started = Instant::now();
    while runs == 0 || started.elapsed().as_secs_f64() < seconds {
        let mut sim =
            FleetSim::new(little.clone(), big.clone(), config.clone()).expect("valid fleet config");
        let mark = trace::mark();
        stamps.lock().expect("stamp store poisoned").clear();
        let t0 = Instant::now();
        let metrics = {
            let _span = trace::span("fleet.run", trace::NO_ID);
            sim.run(&spec)
        };
        run_s += t0.elapsed().as_secs_f64();
        runs += 1;
        let edge_starts = stamps.lock().expect("stamp store poisoned");
        if edge_starts.len() as u64 != metrics.requests {
            out.problem(
                0,
                format!(
                    "{} edge passes for {} requests",
                    edge_starts.len(),
                    metrics.requests
                ),
            );
        }
        per_request_ms.extend(
            edge_starts
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3),
        );
        drop(edge_starts);
        out.attempted += metrics.requests;
        if traced {
            for (name, t) in trace::totals(&trace::since(mark)) {
                if name.starts_with("tensor.") {
                    model_ms += t.total_ms;
                } else if name == "fleet.run" {
                    run_ms += t.total_ms;
                }
            }
        }
        match &first {
            None => {
                for problem in metrics.check() {
                    out.problem(0, format!("fleet ledger: {problem}"));
                }
                if metrics.completed != metrics.requests {
                    out.problem(
                        metrics.requests - metrics.completed,
                        format!(
                            "{} of {} requests completed",
                            metrics.completed, metrics.requests
                        ),
                    );
                }
                first = Some(metrics);
            }
            Some(m) if *m != metrics => {
                out.problem(metrics.requests, format!("run {runs} differs from run 1"));
            }
            Some(_) => {}
        }
    }
    let m = first.expect("the loop runs at least once");
    let sim_rps = (runs * m.requests) as f64 / run_s;
    out.primary_s = run_s / runs as f64;
    out.notes.push(format!(
        "fleet_blackout: {runs} runs of {} requests in {run_s:.3} s host: sim_rps {sim_rps:.1}; \
         simulated p50 {:.3} ms p99 {:.3} ms (sim_p99_ms) over {} requests; SLO violations {}; \
         SR {:.4}; degraded {}; breaker opened {}; labels digest {:016x}",
        m.requests,
        m.p50_ms,
        m.p99_ms,
        m.completed,
        m.slo_violations,
        m.skipping_rate,
        m.degraded_local,
        m.breaker_opened,
        m.labels_digest
    ));
    match chunked_latency(&per_request_ms, CHUNK) {
        Some(l) => {
            out.notes.push(format!(
                "fleet_blackout: host time per simulated request, quiet rank over {} windows \
                 of {CHUNK}: p50 {:.4} ms p99 {:.4} ms",
                l.windows, l.p50, l.p99
            ));
            out.end_to_end.push(metric("p50_ms", l.p50, "ms"));
            out.end_to_end.push(metric("p99_ms", l.p99, "ms"));
        }
        None => out.problem(0, "too few simulated requests for a p99".to_string()),
    }
    out.end_to_end.extend([
        metric("items_per_s", sim_rps, "1/s"),
        metric("setup_s", setup_s, "s"),
    ]);
    if traced {
        let edge_evals: u64 = m.nodes.iter().map(|n| n.requests).sum();
        out.per_layer.extend([
            metric("fleet.edge_evals", edge_evals as f64, "count"),
            metric("fleet.cloud_batches", m.cloud_batches as f64, "count"),
            metric("fleet.cloud_mean_batch", m.mean_batch, "count"),
            metric(
                "fleet.counterfactual_rows",
                m.degraded_local as f64,
                "count",
            ),
            metric("fleet.gossip_entries", m.gossip_entries as f64, "count"),
            metric("fleet.model_share", model_ms / run_ms, "share"),
        ]);
    }
    out
}
