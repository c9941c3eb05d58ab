//! # appeal-hw
//!
//! Hardware profiles, communication links and the energy/latency cost model
//! for edge/cloud collaborative inference, plus the hardware-profiler
//! workflow of the paper's Fig. 3.
//!
//! The paper folds all system costs into two constants (its Eq. 5):
//! `c1` — the cost of running the predictor + little DNN on the edge device —
//! and `c0` — the accumulated cost of running the predictor on the edge,
//! shipping the input to the cloud, running the big DNN there and returning
//! the result. This crate derives those constants from explicit device and
//! link models so that the same experiment can be reported in FLOPs (as the
//! paper's Table I does), in Joules (the ">40% energy savings" headline) or
//! in milliseconds.
//!
//! # Example
//!
//! ```
//! use appeal_hw::prelude::*;
//!
//! let system = SystemModel::new(
//!     DeviceSpec::mobile_soc(),
//!     DeviceSpec::cloud_gpu(),
//!     LinkSpec::wifi(),
//! );
//! let cost = system.offload_cost(100_000, 3_000_000, 3 * 12 * 12 * 4);
//! assert!(cost.energy_mj > system.edge_only_cost(100_000).energy_mj);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod cost;
pub mod device;
pub mod error;
pub mod faults;
pub mod link;
pub mod profiler;
pub mod stochastic;

pub use budget::{CostBudget, CostMeter};
pub use cost::{InferenceCost, SystemModel};
pub use device::DeviceSpec;
pub use error::{HwError, HwResult};
pub use faults::{FaultEvent, FaultPlan};
pub use link::LinkSpec;
pub use profiler::{HardwareProfiler, ProfileDecision};
pub use stochastic::{LinkQueue, StochasticLink, TransferSample, MAX_RETRANSMITS};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::budget::{CostBudget, CostMeter};
    pub use crate::cost::{InferenceCost, SystemModel};
    pub use crate::device::DeviceSpec;
    pub use crate::error::{HwError, HwResult};
    pub use crate::faults::{FaultEvent, FaultPlan};
    pub use crate::link::LinkSpec;
    pub use crate::profiler::{HardwareProfiler, ProfileDecision};
    pub use crate::stochastic::{LinkQueue, StochasticLink, TransferSample, MAX_RETRANSMITS};
}
