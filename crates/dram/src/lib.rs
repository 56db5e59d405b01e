//! # drmap-dram
//!
//! A command-level DRAM timing and energy simulator for DDR3 and the SALP
//! architectures (SALP-1, SALP-2, SALP-MASA) — the substrate of the DRMap
//! (DAC 2020) reproduction, standing in for the paper's Ramulator +
//! VAMPIRE tool flow.
//!
//! The crate is organized bottom-up:
//!
//! * [`geometry`] — device organization (channel → column) and capacity
//!   arithmetic,
//! * [`address`] — physical addresses and flat-index codecs,
//! * [`timing`] — JEDEC DDR3-1600 parameters and architecture variants,
//! * [`command`] / [`state`] — the command set and row-buffer state
//!   machines,
//! * [`controller`] — the timing-constraint scheduling engine,
//! * [`energy`] — the current-based (VAMPIRE-style) energy model,
//! * [`sim`] — the trace-driven simulator facade,
//! * [`trace`] — request-trace builders and command-trace export,
//! * [`profiler`] — per-access-condition measurement (Fig. 1) and the
//!   [`profiler::AccessCostTable`] handed to the analytical DSE.
//!
//! ## Example
//!
//! Measure the isolated latency of a row-buffer conflict on DDR3:
//!
//! ```
//! use drmap_dram::prelude::*;
//!
//! let profiler = Profiler::table_ii()?;
//! let conflict = profiler.fig1_condition(
//!     DramArch::Ddr3,
//!     AccessCondition::RowBufferConflict,
//!     RequestKind::Read,
//! );
//! assert_eq!(conflict.cycles, 37.0); // tRP + tRCD + CL + tBURST
//! # Ok::<(), drmap_dram::error::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod command;
pub mod controller;
pub mod energy;
pub mod error;
pub mod geometry;
pub mod profiler;
pub mod request;
pub mod sim;
pub mod state;
pub mod timing;
pub mod trace;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::address::PhysicalAddress;
    pub use crate::command::CommandKind;
    pub use crate::controller::{ControllerConfig, MemoryController, RowPolicy, SchedulerKind};
    pub use crate::energy::{EnergyModel, EnergyParams};
    pub use crate::geometry::Geometry;
    pub use crate::profiler::{AccessCondition, AccessCost, AccessCostTable, Profiler};
    pub use crate::request::{DriveMode, Request, RequestKind, RowRun};
    pub use crate::sim::{DramSimulator, SimStats};
    pub use crate::state::RowBufferOutcome;
    pub use crate::timing::{DramArch, TimingParams};
    pub use crate::trace::TraceBuilder;
}
