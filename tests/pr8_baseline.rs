//! Pins the pre-gossip (PR 8) fleet behavior byte-for-byte.
//!
//! The cooperative health plane must be a *strict* extension: with
//! `GossipConfig::disabled()` (and no cooperative policy) the simulator must
//! consume the same RNG draws, schedule the same events, and render the same
//! metric bytes as the PR 8 code that predates gossip entirely. This test
//! replays four representative scenarios — full blackout with breaker,
//! transient blackout (half-open probe traffic), the chaos mix, and a plain
//! adaptive PR 7 run — against a committed snapshot captured from the PR 8
//! tree.
//!
//! Regenerate the snapshot (only when a deliberate behavior change is being
//! made) with:
//!
//! ```text
//! APPEALNET_BLESS=1 cargo test --release --test pr8_baseline
//! ```
//!
//! The snapshot is captured under the `bit-identical-to-seed` kernel
//! contract.

use appeal_hw::{DeviceSpec, FaultEvent, FaultPlan, StochasticLink};
use appeal_models::{ModelFamily, ModelSpec};
use appeal_tensor::SeededRng;
use appealnet_core::parallel::ChunkPolicy;
use appealnet_core::two_head::TwoHeadNet;
use appealnet_fleet::trace::{TraceShape, TraceSpec};
use appealnet_fleet::{
    AdaptiveConfig, BreakerConfig, CloudConfig, FleetConfig, FleetSim, GossipConfig,
    RecoveryConfig, RetryConfig,
};

const MS: u64 = 1_000_000;
const SNAPSHOT: &str = "tests/snapshots/pr8_fleet_baseline.txt";

fn recovery(with_breaker: bool) -> RecoveryConfig {
    RecoveryConfig {
        appeal_deadline_ms: 40.0,
        retry: RetryConfig {
            max_attempts: 3,
            base_backoff_ms: 5.0,
            max_backoff_ms: 40.0,
        },
        breaker: if with_breaker {
            Some(BreakerConfig::default_for_appeals())
        } else {
            None
        },
    }
}

fn config(delta: f64, faults: FaultPlan, rec: Option<RecoveryConfig>) -> FleetConfig {
    FleetConfig {
        nodes: 4,
        delta,
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
        recovery: rec,
        gossip: GossipConfig::disabled(),
        cooperative: None,
        faults,
        slo_ms: 100.0,
        chunk: ChunkPolicy::sequential(),
        seed: 2021,
    }
}

fn trace(requests: usize) -> TraceSpec {
    TraceSpec {
        shape: TraceShape::Uniform,
        requests,
        mean_gap_nanos: 2 * MS,
        clients: 64,
        seed: 2021,
    }
}

fn run(config: FleetConfig, trace: &TraceSpec) -> String {
    let mut rng = SeededRng::new(2021);
    let little = ModelSpec::little(ModelFamily::MobileNetLike, [3, 12, 12], 4).build(&mut rng);
    let big = ModelSpec::big([3, 12, 12], 4).build(&mut rng);
    FleetSim::new(TwoHeadNet::from_parts(little, &mut rng), big, config)
        .expect("valid config")
        .run(trace)
        .render()
}

fn blackout(from: u64, until: u64) -> FaultPlan {
    FaultPlan::new(
        2021,
        vec![FaultEvent::CloudBlackout {
            from_nanos: from,
            until_nanos: until,
        }],
    )
    .unwrap()
}

fn scenarios() -> Vec<(&'static str, String)> {
    let full = config(0.9, blackout(10 * MS, u64::MAX), Some(recovery(true)));
    let transient = config(0.9, blackout(10 * MS, 70 * MS), Some(recovery(true)));
    let chaos_plan = FaultPlan::new(
        2021,
        vec![
            FaultEvent::LinkBrownout {
                from_nanos: 20 * MS,
                until_nanos: 120 * MS,
                severity: 3.0,
            },
            FaultEvent::ResponseDrop {
                from_nanos: 0,
                until_nanos: u64::MAX,
                probability: 0.25,
            },
            FaultEvent::ResponseCorrupt {
                from_nanos: 0,
                until_nanos: u64::MAX,
                probability: 0.2,
            },
            FaultEvent::NodeCrash {
                node: 0,
                at_nanos: 20 * MS,
                down_nanos: 50 * MS,
            },
        ],
    )
    .unwrap();
    let chaos = config(0.9, chaos_plan, Some(recovery(true)));
    let mut adaptive = config(1.0, FaultPlan::none(), None);
    adaptive.link = StochasticLink::lte();
    adaptive.adaptive = Some(AdaptiveConfig {
        window: 8,
        budget_ms: 510.0,
        target_ms: 89.25,
        floor_ms: 102.0,
    });
    let spec = trace(96);
    vec![
        ("full-blackout breaker-on", run(full, &spec)),
        ("transient-blackout breaker-on", run(transient, &spec)),
        ("chaos-mix breaker-on", run(chaos, &spec)),
        ("pr7 adaptive lte no-recovery", run(adaptive, &spec)),
    ]
}

fn rendered() -> String {
    let mut out = String::new();
    for (name, body) in scenarios() {
        out.push_str(&format!("=== {name} ===\n{body}"));
    }
    out
}

#[test]
fn gossip_disabled_replays_the_pr8_baseline_byte_for_byte() {
    let got = rendered();
    if std::env::var("APPEALNET_BLESS").is_ok() {
        std::fs::create_dir_all("tests/snapshots").unwrap();
        std::fs::write(SNAPSHOT, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(SNAPSHOT)
        .expect("snapshot missing: run with APPEALNET_BLESS=1 to regenerate");
    assert_eq!(
        got, want,
        "disabled gossip must replay the PR 8 fleet byte-for-byte"
    );
}
