//! The edge/cloud system cost model (the paper's Eq. 5 constants, plus
//! energy and latency).

use crate::device::DeviceSpec;
use crate::link::LinkSpec;
use serde::Serialize;

/// Cost of processing one input, in three units.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct InferenceCost {
    /// FLOPs-equivalent cost (the unit used by the paper's Table I).
    ///
    /// For offloaded inputs this counts the edge FLOPs plus the cloud FLOPs;
    /// communication shows up in the energy/latency fields.
    pub flops: u64,
    /// Energy drawn from the edge device's battery plus the cloud energy, in millijoules.
    pub energy_mj: f64,
    /// End-to-end latency, in milliseconds.
    pub latency_ms: f64,
}

impl InferenceCost {
    /// The zero cost.
    pub fn zero() -> Self {
        Self {
            flops: 0,
            energy_mj: 0.0,
            latency_ms: 0.0,
        }
    }

    /// Adds another cost to this one. The FLOPs component saturates at
    /// `u64::MAX` instead of overflowing: long-lived meters (a server's
    /// [`crate::CostMeter`], cumulative engine stats) accumulate costs for
    /// the lifetime of a deployment, and a counter that wraps would silently
    /// re-admit work a budget should reject.
    pub fn add(&self, other: &InferenceCost) -> Self {
        Self {
            flops: self.flops.saturating_add(other.flops),
            energy_mj: self.energy_mj + other.energy_mj,
            latency_ms: self.latency_ms + other.latency_ms,
        }
    }

    /// Scales the cost by a factor (e.g. a routing probability).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative.
    pub fn scale(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        Self {
            flops: (self.flops as f64 * factor).round() as u64,
            energy_mj: self.energy_mj * factor,
            latency_ms: self.latency_ms * factor,
        }
    }
}

/// The full edge + link + cloud system used to derive per-input costs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SystemModel {
    /// Edge device running the little network and the predictor.
    pub edge: DeviceSpec,
    /// Cloud device running the big network.
    pub cloud: DeviceSpec,
    /// Uplink between them.
    pub link: LinkSpec,
}

impl SystemModel {
    /// Creates a system model.
    pub fn new(edge: DeviceSpec, cloud: DeviceSpec, link: LinkSpec) -> Self {
        Self { edge, cloud, link }
    }

    /// A typical deployment: mobile-class edge device, cloud GPU, Wi-Fi link.
    pub fn typical() -> Self {
        Self::new(
            DeviceSpec::mobile_soc(),
            DeviceSpec::cloud_gpu(),
            LinkSpec::wifi(),
        )
    }

    /// Cost `c1` of Eq. 5: the input is handled entirely on the edge by the
    /// little network (which includes the predictor head).
    pub fn edge_only_cost(&self, little_flops: u64) -> InferenceCost {
        InferenceCost {
            flops: little_flops,
            energy_mj: self.edge.energy_mj(little_flops),
            latency_ms: self.edge.latency_ms(little_flops),
        }
    }

    /// Cost `c0` of Eq. 5: the edge runs the little network (to produce the
    /// predictor decision), uploads `input_bytes` to the cloud, the cloud runs
    /// the big network and returns the label.
    pub fn offload_cost(
        &self,
        little_flops: u64,
        big_flops: u64,
        input_bytes: u64,
    ) -> InferenceCost {
        let result_bytes = 16; // a class id + confidence comfortably fits
        let edge = self.edge_only_cost(little_flops);
        let uplink_energy = self.link.energy_mj(input_bytes + result_bytes);
        // Full appeal round trip: features up, logits back — one full RTT.
        let uplink_latency = self.link.round_trip_ms(input_bytes, result_bytes);
        InferenceCost {
            flops: little_flops + big_flops,
            energy_mj: edge.energy_mj + uplink_energy + self.cloud.energy_mj(big_flops),
            latency_ms: edge.latency_ms + uplink_latency + self.cloud.latency_ms(big_flops),
        }
    }

    /// Cost of a cloud-only deployment (every input is offloaded, no little network).
    pub fn cloud_only_cost(&self, big_flops: u64, input_bytes: u64) -> InferenceCost {
        self.offload_cost(0, big_flops, input_bytes)
    }

    /// Expected per-input cost of the collaborative system given the skipping
    /// rate `sr` (fraction of inputs kept on the edge) — the paper's Eq. 15
    /// extended to energy and latency.
    ///
    /// # Panics
    ///
    /// Panics if `sr` is outside `[0, 1]`.
    pub fn expected_cost(
        &self,
        sr: f64,
        little_flops: u64,
        big_flops: u64,
        input_bytes: u64,
    ) -> InferenceCost {
        assert!((0.0..=1.0).contains(&sr), "skipping rate must be in [0, 1]");
        let on_edge = self.edge_only_cost(little_flops).scale(sr);
        let offloaded = self
            .offload_cost(little_flops, big_flops, input_bytes)
            .scale(1.0 - sr);
        on_edge.add(&offloaded)
    }
}

impl Default for SystemModel {
    fn default() -> Self {
        Self::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system() -> SystemModel {
        SystemModel::typical()
    }

    #[test]
    fn offload_is_more_expensive_than_edge_only() {
        let s = system();
        let edge = s.edge_only_cost(100_000);
        let offload = s.offload_cost(100_000, 3_000_000, 1728);
        assert!(offload.flops > edge.flops);
        assert!(offload.energy_mj > edge.energy_mj);
        assert!(offload.latency_ms > edge.latency_ms);
    }

    #[test]
    fn expected_cost_interpolates_between_extremes() {
        let s = system();
        let all_edge = s.expected_cost(1.0, 100_000, 3_000_000, 1728);
        let all_cloud = s.expected_cost(0.0, 100_000, 3_000_000, 1728);
        let half = s.expected_cost(0.5, 100_000, 3_000_000, 1728);
        assert!(all_edge.energy_mj < half.energy_mj);
        assert!(half.energy_mj < all_cloud.energy_mj);
        let expected = (all_edge.energy_mj + all_cloud.energy_mj) / 2.0;
        assert!((half.energy_mj - expected).abs() < 1e-9);
    }

    #[test]
    fn expected_cost_matches_eq15_in_flops() {
        // Eq. 15: cost = SR * c1 + (1 - SR) * c0.
        let s = system();
        let little = 200_000u64;
        let big = 4_000_000u64;
        let sr = 0.8;
        let c = s.expected_cost(sr, little, big, 1728);
        let c1 = little as f64;
        let c0 = (little + big) as f64;
        let expected = sr * c1 + (1.0 - sr) * c0;
        assert!((c.flops as f64 - expected).abs() <= 1.0);
    }

    #[test]
    fn higher_skipping_rate_always_cheaper() {
        let s = system();
        let mut prev = f64::INFINITY;
        for sr in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let c = s.expected_cost(sr, 100_000, 3_000_000, 1728);
            assert!(c.energy_mj < prev);
            prev = c.energy_mj;
        }
    }

    #[test]
    fn cloud_only_has_no_little_flops() {
        let s = system();
        let c = s.cloud_only_cost(3_000_000, 1728);
        assert_eq!(c.flops, 3_000_000);
    }

    #[test]
    fn cost_arithmetic() {
        let a = InferenceCost {
            flops: 10,
            energy_mj: 1.0,
            latency_ms: 2.0,
        };
        let b = a.scale(2.0);
        assert_eq!(b.flops, 20);
        let c = a.add(&b);
        assert_eq!(c.flops, 30);
        assert!((c.energy_mj - 3.0).abs() < 1e-12);
        assert_eq!(InferenceCost::zero().flops, 0);
    }

    #[test]
    #[should_panic(expected = "skipping rate must be in")]
    fn rejects_invalid_sr() {
        let _ = system().expected_cost(1.5, 1, 1, 1);
    }

    #[test]
    fn lpwan_link_makes_offloading_very_costly() {
        let constrained = SystemModel::new(
            DeviceSpec::edge_mcu(),
            DeviceSpec::cloud_gpu(),
            LinkSpec::lpwan(),
        );
        let wifi = SystemModel::typical();
        let bytes = 1728;
        assert!(
            constrained
                .offload_cost(100_000, 3_000_000, bytes)
                .latency_ms
                > wifi.offload_cost(100_000, 3_000_000, bytes).latency_ms * 10.0
        );
    }
}
