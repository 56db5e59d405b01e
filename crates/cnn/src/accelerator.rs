//! Accelerator configuration: the TPU-like design of Table II.
//!
//! Only the properties that shape DRAM traffic are modelled: the separate
//! on-chip buffers (iB/wB/oB), the MAC array size, and the arithmetic
//! precision (bytes per element).

use core::fmt;

use crate::error::ModelError;
use crate::layer::DataKind;

/// Arithmetic precision of activations and weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 8-bit integer (1 byte per element).
    Int8,
    /// 16-bit integer / fixed point (2 bytes per element).
    Int16,
    /// 32-bit floating point (4 bytes per element).
    Fp32,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> usize {
        match self {
            Precision::Int8 => 1,
            Precision::Int16 => 2,
            Precision::Fp32 => 4,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Precision::Int8 => "int8",
            Precision::Int16 => "int16",
            Precision::Fp32 => "fp32",
        };
        f.write_str(s)
    }
}

/// CNN accelerator configuration (Table II of the paper).
///
/// # Examples
///
/// ```
/// use drmap_cnn::accelerator::AcceleratorConfig;
/// use drmap_cnn::layer::DataKind;
///
/// let acc = AcceleratorConfig::table_ii();
/// assert_eq!(acc.buffer_bytes(DataKind::Ifms), 64 * 1024);
/// assert_eq!(acc.mac_rows * acc.mac_cols, 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AcceleratorConfig {
    /// Input-buffer capacity in bytes (iB).
    pub ifms_buffer: usize,
    /// Weight-buffer capacity in bytes (wB).
    pub wghs_buffer: usize,
    /// Output-buffer capacity in bytes (oB).
    pub ofms_buffer: usize,
    /// MAC array rows.
    pub mac_rows: usize,
    /// MAC array columns.
    pub mac_cols: usize,
    /// Element precision.
    pub precision: Precision,
    /// Batch size `B` of Fig. 3's outermost loop.
    pub batch: usize,
}

impl AcceleratorConfig {
    /// The paper's Table II configuration: 8×8 MACs, 64 KB per buffer,
    /// 8-bit precision, batch 1.
    pub fn table_ii() -> Self {
        AcceleratorConfig {
            ifms_buffer: 64 * 1024,
            wghs_buffer: 64 * 1024,
            ofms_buffer: 64 * 1024,
            mac_rows: 8,
            mac_cols: 8,
            precision: Precision::Int8,
            batch: 1,
        }
    }

    /// Validate the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if any buffer, MAC dimension, or the batch
    /// size is zero.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (name, v) in [
            ("ifms_buffer", self.ifms_buffer),
            ("wghs_buffer", self.wghs_buffer),
            ("ofms_buffer", self.ofms_buffer),
            ("mac_rows", self.mac_rows),
            ("mac_cols", self.mac_cols),
            ("batch", self.batch),
        ] {
            if v == 0 {
                return Err(ModelError::new(format!("{name} must be non-zero")));
            }
        }
        Ok(())
    }

    /// Buffer capacity in bytes for the given data kind.
    pub fn buffer_bytes(&self, kind: DataKind) -> usize {
        match kind {
            DataKind::Ifms => self.ifms_buffer,
            DataKind::Wghs => self.wghs_buffer,
            DataKind::Ofms => self.ofms_buffer,
        }
    }

    /// Bytes occupied by `elems` elements at this precision.
    pub fn bytes_for(&self, elems: u64) -> u64 {
        elems * self.precision.bytes() as u64
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::table_ii()
    }
}

impl fmt::Display for AcceleratorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} MACs, iB {}KB, wB {}KB, oB {}KB, {} batch {}",
            self.mac_rows,
            self.mac_cols,
            self.ifms_buffer / 1024,
            self.wghs_buffer / 1024,
            self.ofms_buffer / 1024,
            self.precision,
            self.batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_matches_paper() {
        let acc = AcceleratorConfig::table_ii();
        assert_eq!(acc.ifms_buffer, 65536);
        assert_eq!(acc.wghs_buffer, 65536);
        assert_eq!(acc.ofms_buffer, 65536);
        assert_eq!(acc.mac_rows, 8);
        assert_eq!(acc.mac_cols, 8);
        assert_eq!(acc.batch, 1);
    }

    #[test]
    fn bytes_for_scales_elements() {
        let mut acc = AcceleratorConfig::table_ii();
        acc.precision = Precision::Int16;
        assert_eq!(acc.bytes_for(100), 200);
    }

    #[test]
    fn validate_rejects_zero_buffer() {
        let mut acc = AcceleratorConfig::table_ii();
        acc.ofms_buffer = 0;
        assert!(acc.validate().is_err());
    }

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Int8.bytes(), 1);
        assert_eq!(Precision::Int16.bytes(), 2);
        assert_eq!(Precision::Fp32.bytes(), 4);
    }

    #[test]
    fn display_mentions_buffers() {
        let s = AcceleratorConfig::table_ii().to_string();
        assert!(s.contains("64KB"));
        assert!(s.contains("8x8"));
    }
}
