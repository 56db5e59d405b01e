//! # drmap-cnn
//!
//! CNN layer/network shape models and accelerator configuration for the
//! DRMap (DAC 2020) reproduction.
//!
//! Only the quantities that shape DRAM traffic are modelled: layer
//! dimensions (Fig. 3's loop bounds), data volumes for the three data
//! kinds (`ifms` / `wghs` / `ofms`), and the accelerator's buffer sizes
//! and precision (Table II).
//!
//! ## Example
//!
//! ```
//! use drmap_cnn::prelude::*;
//!
//! let alexnet = Network::alexnet();
//! let acc = AcceleratorConfig::table_ii();
//! let conv2 = &alexnet.layers()[1];
//! // CONV2's weights are far too large for the 64 KB weight buffer:
//! assert!(acc.bytes_for(conv2.wghs_elems()) > acc.wghs_buffer as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accelerator;
pub mod error;
pub mod layer;
pub mod network;
pub mod spec;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::accelerator::{AcceleratorConfig, Precision};
    pub use crate::layer::{DataKind, Layer};
    pub use crate::network::Network;
}
