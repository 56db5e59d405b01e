//! # drmap
//!
//! Facade crate for the reproduction of **DRMap: A Generic DRAM Data
//! Mapping Policy for Energy-Efficient Processing of Convolutional Neural
//! Networks** (Putra, Hanif, Shafique — DAC 2020).
//!
//! This crate re-exports the three workspace members:
//!
//! * [`dram`] ([`drmap_dram`]) — command-level DRAM timing/energy
//!   simulator for DDR3 and SALP-1/2/MASA (the Ramulator + VAMPIRE
//!   substitute),
//! * [`cnn`] ([`drmap_cnn`]) — CNN layer shapes, networks (AlexNet,
//!   VGG-16) and the Table II accelerator configuration,
//! * [`core`] ([`drmap_core`]) — mapping policies (Table I), layer
//!   partitioning/scheduling, the analytical EDP model (Eq. 1–3) and the
//!   DSE engine (Algorithm 1).
//!
//! ## Quickstart
//!
//! Profile an architecture, build the analytical model, and explore one
//! AlexNet layer (`cargo test --doc -p drmap` runs this):
//!
//! ```
//! use drmap::prelude::*;
//!
//! let profiler = Profiler::table_ii()?;
//! let table = profiler.cost_table(DramArch::Salp2);
//! let model = EdpModel::new(Geometry::salp_2gb_x8(), table, AcceleratorConfig::table_ii());
//! let engine = DseEngine::new(model, DseConfig::default())?;
//! let network = Network::alexnet();
//! let conv2 = &network.layers()[1];
//! let result = engine.explore_layer(conv2)?;
//! println!("minimum-EDP config for {}: {}", conv2.name, result.best);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Every figure and table of the paper, the ablations and four worked
//! scenarios are rendered by `tests/figures.rs` and compared byte for byte
//! with the files in `tests/golden/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use drmap_cnn as cnn;
pub use drmap_core as core;
pub use drmap_dram as dram;

/// One-stop re-exports of the commonly used types from all three crates.
pub mod prelude {
    pub use drmap_cnn::prelude::*;
    pub use drmap_core::prelude::*;
    pub use drmap_dram::prelude::*;
}
