//! CNN layer shape models.
//!
//! Only layer *shapes* matter for DRAM traffic analysis: the heights,
//! widths, channel depths, kernel sizes and strides that determine the
//! `ifms` / `wghs` / `ofms` data volumes of Fig. 3's loop nest. No weights
//! or activations are stored.

use core::fmt;

use crate::error::ModelError;

/// The three CNN data types moved between DRAM and the on-chip buffers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataKind {
    /// Input feature maps (activations).
    Ifms,
    /// Weights (filters).
    Wghs,
    /// Output feature maps (partial sums / activations).
    Ofms,
}

impl DataKind {
    /// All data kinds.
    pub const ALL: [DataKind; 3] = [DataKind::Ifms, DataKind::Wghs, DataKind::Ofms];

    /// Paper-style label (`ifms`, `wghs`, `ofms`).
    pub fn label(self) -> &'static str {
        match self {
            DataKind::Ifms => "ifms",
            DataKind::Wghs => "wghs",
            DataKind::Ofms => "ofms",
        }
    }
}

impl fmt::Display for DataKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Layer category, used for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolutional layer.
    Conv,
    /// Fully-connected layer (modelled as a 1×1-output convolution).
    FullyConnected,
}

/// Shape of one convolutional (or fully-connected) layer.
///
/// Notation follows Fig. 3 of the paper: the layer produces `H × W × J`
/// ofms from `I`-channel ifms using `P × Q × I × J` weights with stride
/// `stride`.
///
/// # Examples
///
/// ```
/// use drmap_cnn::layer::Layer;
///
/// let conv1 = Layer::conv("CONV1", 55, 55, 96, 3, 11, 11, 4);
/// assert_eq!(conv1.macs(), 55 * 55 * 96 * 3 * 11 * 11);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Layer {
    /// Layer name (e.g. `CONV1`, `FC6`).
    pub name: String,
    /// Layer category.
    pub kind: LayerKind,
    /// Output feature-map height `H`.
    pub h: usize,
    /// Output feature-map width `W`.
    pub w: usize,
    /// Output channels `J` (depth of ofms).
    pub j: usize,
    /// Input channels `I` (depth of ifms and wghs).
    pub i: usize,
    /// Kernel height `P`.
    pub p: usize,
    /// Kernel width `Q`.
    pub q: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Channel groups (1 = dense convolution; AlexNet's original two-GPU
    /// layers use 2; depthwise convolutions use `groups == i`). Each
    /// filter sees only `I / groups` input channels.
    pub groups: usize,
}

impl Layer {
    /// A convolutional layer.
    #[allow(clippy::too_many_arguments)]
    pub fn conv(
        name: &str,
        h: usize,
        w: usize,
        j: usize,
        i: usize,
        p: usize,
        q: usize,
        stride: usize,
    ) -> Self {
        Layer {
            name: name.to_owned(),
            kind: LayerKind::Conv,
            h,
            w,
            j,
            i,
            p,
            q,
            stride,
            groups: 1,
        }
    }

    /// A grouped convolutional layer: `groups` independent channel
    /// groups, each filter seeing `i / groups` input channels (AlexNet's
    /// original CONV2/4/5; depthwise convolutions).
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both `i` and `j`.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_grouped(
        name: &str,
        h: usize,
        w: usize,
        j: usize,
        i: usize,
        p: usize,
        q: usize,
        stride: usize,
        groups: usize,
    ) -> Self {
        assert!(
            groups > 0 && i.is_multiple_of(groups) && j.is_multiple_of(groups),
            "groups must divide both channel counts"
        );
        Layer {
            groups,
            ..Self::conv(name, h, w, j, i, p, q, stride)
        }
    }

    /// A fully-connected layer with `inputs` inputs and `outputs` outputs,
    /// modelled as a 1×1×`inputs` → 1×1×`outputs` convolution.
    pub fn fully_connected(name: &str, inputs: usize, outputs: usize) -> Self {
        Layer {
            name: name.to_owned(),
            kind: LayerKind::FullyConnected,
            h: 1,
            w: 1,
            j: outputs,
            i: inputs,
            p: 1,
            q: 1,
            stride: 1,
            groups: 1,
        }
    }

    /// Validate that every dimension is non-zero.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] naming the offending dimension.
    pub fn validate(&self) -> Result<(), ModelError> {
        for (name, v) in [
            ("h", self.h),
            ("w", self.w),
            ("j", self.j),
            ("i", self.i),
            ("p", self.p),
            ("q", self.q),
            ("stride", self.stride),
            ("groups", self.groups),
        ] {
            if v == 0 {
                return Err(ModelError::new(format!(
                    "layer {}: {} must be non-zero",
                    self.name, name
                )));
            }
        }
        if !self.i.is_multiple_of(self.groups) || !self.j.is_multiple_of(self.groups) {
            return Err(ModelError::new(format!(
                "layer {}: groups ({}) must divide i ({}) and j ({})",
                self.name, self.groups, self.i, self.j
            )));
        }
        Ok(())
    }

    /// Height of the ifms region feeding `rows` output rows
    /// (`rows·stride + P − stride`, the halo-aware patch height).
    pub fn ifm_patch_h(&self, rows: usize) -> usize {
        rows * self.stride + self.p.saturating_sub(self.stride)
    }

    /// Width of the ifms region feeding `cols` output columns.
    pub fn ifm_patch_w(&self, cols: usize) -> usize {
        cols * self.stride + self.q.saturating_sub(self.stride)
    }

    /// Input feature-map height consumed by the full layer.
    pub fn ifm_h(&self) -> usize {
        self.ifm_patch_h(self.h)
    }

    /// Input feature-map width consumed by the full layer.
    pub fn ifm_w(&self) -> usize {
        self.ifm_patch_w(self.w)
    }

    /// Elements in the full ifms volume (per image).
    pub fn ifms_elems(&self) -> u64 {
        self.ifm_h() as u64 * self.ifm_w() as u64 * self.i as u64
    }

    /// Elements in the full weight volume (each filter sees `i / groups`
    /// input channels).
    pub fn wghs_elems(&self) -> u64 {
        self.p as u64 * self.q as u64 * (self.i / self.groups) as u64 * self.j as u64
    }

    /// Elements in the full ofms volume (per image).
    pub fn ofms_elems(&self) -> u64 {
        self.h as u64 * self.w as u64 * self.j as u64
    }

    /// Elements of the given data kind.
    pub fn elems(&self, kind: DataKind) -> u64 {
        match kind {
            DataKind::Ifms => self.ifms_elems(),
            DataKind::Wghs => self.wghs_elems(),
            DataKind::Ofms => self.ofms_elems(),
        }
    }

    /// Multiply-accumulate operations for the layer (per image).
    pub fn macs(&self) -> u64 {
        self.ofms_elems() * self.p as u64 * self.q as u64 * (self.i / self.groups) as u64
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{}x{} <- {}ch {}x{} s{}",
            self.name, self.h, self.w, self.j, self.i, self.p, self.q, self.stride
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_constructor_sets_dims() {
        let l = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
        assert_eq!(l.kind, LayerKind::Conv);
        assert_eq!(l.ofms_elems(), 13 * 13 * 384);
        assert_eq!(l.wghs_elems(), 3 * 3 * 256 * 384);
    }

    #[test]
    fn fc_is_1x1_conv() {
        let l = Layer::fully_connected("fc", 9216, 4096);
        assert_eq!(l.kind, LayerKind::FullyConnected);
        assert_eq!(l.h, 1);
        assert_eq!(l.w, 1);
        assert_eq!(l.wghs_elems(), 9216 * 4096);
        assert_eq!(l.ofms_elems(), 4096);
        assert_eq!(l.ifms_elems(), 9216);
        assert_eq!(l.macs(), 9216 * 4096);
    }

    #[test]
    fn ifm_patch_includes_halo() {
        let l = Layer::conv("c", 55, 55, 96, 3, 11, 11, 4);
        // One output row needs 11 input rows; two need 15 (stride 4).
        assert_eq!(l.ifm_patch_h(1), 11);
        assert_eq!(l.ifm_patch_h(2), 15);
        // Full layer: 55*4 + 11 - 4 = 227 (AlexNet's input size).
        assert_eq!(l.ifm_h(), 227);
        assert_eq!(l.ifm_w(), 227);
    }

    #[test]
    fn unit_stride_patch() {
        let l = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
        assert_eq!(l.ifm_patch_h(13), 15); // 13 + 3 - 1
        assert_eq!(l.ifm_patch_h(4), 6);
    }

    #[test]
    fn validate_rejects_zero_dims() {
        let mut l = Layer::conv("c", 13, 13, 384, 256, 3, 3, 1);
        l.j = 0;
        let err = l.validate().unwrap_err();
        assert!(err.to_string().contains("j"));
    }

    #[test]
    fn elems_dispatch() {
        let l = Layer::conv("c", 4, 4, 8, 2, 3, 3, 1);
        assert_eq!(l.elems(DataKind::Ifms), l.ifms_elems());
        assert_eq!(l.elems(DataKind::Wghs), l.wghs_elems());
        assert_eq!(l.elems(DataKind::Ofms), l.ofms_elems());
    }

    #[test]
    fn display_is_informative() {
        let l = Layer::conv("CONV3", 13, 13, 384, 256, 3, 3, 1);
        let s = l.to_string();
        assert!(s.contains("CONV3"));
        assert!(s.contains("13x13x384"));
    }

    #[test]
    fn datakind_labels() {
        assert_eq!(DataKind::Ifms.label(), "ifms");
        assert_eq!(DataKind::Wghs.label(), "wghs");
        assert_eq!(DataKind::Ofms.label(), "ofms");
    }
}
