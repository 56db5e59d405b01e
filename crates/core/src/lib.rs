//! # drmap-core
//!
//! The DRMap (DAC 2020) core: DRAM data-mapping policies, layer
//! partitioning and scheduling, the analytical EDP model (Eq. 1–3), and
//! the design-space exploration engine (Algorithm 1).
//!
//! The crate consumes two substrates:
//!
//! * [`drmap_dram`] — the DRAM timing/energy simulator whose
//!   [`drmap_dram::profiler::AccessCostTable`] feeds the analytical model,
//! * [`drmap_cnn`] — CNN layer shapes and the accelerator configuration.
//!
//! ## The pipeline
//!
//! 1. [`tiling`] enumerates feasible layer partitionings under the buffer
//!    constraints (Algorithm 1, line 9).
//! 2. [`schedule`] turns a partitioning plus reuse scheme into tile-fetch
//!    counts (how often each tile crosses the DRAM bus).
//! 3. [`mapping`] lays a tile's bursts out across DRAM
//!    columns/banks/subarrays/rows (Table I's six policies; Mapping-3 is
//!    DRMap).
//! 4. [`access_model`] classifies every access (Eq. 2/3) and weights it
//!    with profiled per-class costs.
//! 5. [`edp`] assembles per-layer energy, latency and EDP (Eq. 1).
//! 6. [`dse`] sweeps everything and returns the minimum-EDP configuration;
//!    [`pareto`] extracts the (energy, latency) Pareto front.
//!
//! ## Example
//!
//! ```
//! use drmap_core::prelude::*;
//! use drmap_cnn::prelude::*;
//! use drmap_dram::prelude::*;
//!
//! // A cost table would normally come from Profiler::cost_table(arch).
//! let flat = AccessCost { cycles: 4.0, energy: 1e-9 };
//! let table = AccessCostTable::from_costs(DramArch::Ddr3, [flat; 4], [flat; 4], 1.25);
//! let model = EdpModel::new(Geometry::salp_2gb_x8(), table, AcceleratorConfig::table_ii());
//! let engine = DseEngine::new(model, DseConfig::default())?;
//! let layer = Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1);
//! let result = engine.explore_layer(&layer)?;
//! println!("best: {}", result.best);
//! # Ok::<(), drmap_core::error::DseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access_model;
pub mod bytes;
pub mod dse;
pub mod edp;
pub mod error;
pub mod mapping;
pub mod pareto;
pub mod schedule;
pub mod tiling;
pub mod validate;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::access_model::{bytes_to_bursts, tile_cost, transition_counts};
    pub use crate::dse::{DseCandidate, DseConfig, DseEngine};
    pub use crate::edp::{EdpEstimate, EdpModel};
    pub use crate::mapping::MappingPolicy;
    pub use crate::pareto::{pareto_front, DesignPoint, ParetoFront};
    pub use crate::schedule::{ReuseScheme, TrafficModel};
    pub use crate::tiling::{candidate_steps, count_tilings, enumerate_tilings, Tiling};
    pub use crate::validate::Validator;
}
