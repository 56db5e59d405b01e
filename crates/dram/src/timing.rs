//! JEDEC DDR3 timing parameters and the SALP architecture variants.
//!
//! All parameters are in memory-clock cycles (DDR3-1600: tCK = 1.25 ns,
//! 800 MHz command clock). The values follow the DDR3-1600K speed grade as
//! used by Ramulator, which the paper's experiments are based on.
//!
//! The SALP architectures (Kim et al., ISCA 2012) do not change the JEDEC
//! parameters themselves; they *re-interpret* which constraints apply across
//! subarrays of the same bank. That re-interpretation is captured by
//! [`DramArch`] and applied where the controller enforces the timing
//! constraints, in [`crate::controller`].

use core::fmt;

use crate::error::ConfigError;

/// The four DRAM architectures evaluated in the paper.
///
/// # Examples
///
/// ```
/// use drmap_dram::timing::DramArch;
///
/// assert!(DramArch::SalpMasa.exploits_subarrays());
/// assert!(!DramArch::Ddr3.exploits_subarrays());
/// assert_eq!(DramArch::ALL.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DramArch {
    /// Commodity DDR3: one row buffer per bank; subarrays invisible.
    Ddr3,
    /// SALP-1: overlaps precharge of one subarray with activation of another.
    Salp1,
    /// SALP-2: SALP-1 plus write-recovery overlap across subarrays (the
    /// default).
    #[default]
    Salp2,
    /// SALP-MASA: multiple subarrays activated simultaneously.
    SalpMasa,
}

impl DramArch {
    /// All architectures in the order the paper plots them.
    pub const ALL: [DramArch; 4] = [
        DramArch::Ddr3,
        DramArch::Salp1,
        DramArch::Salp2,
        DramArch::SalpMasa,
    ];

    /// True if the architecture exposes subarray-level parallelism.
    pub fn exploits_subarrays(self) -> bool {
        !matches!(self, DramArch::Ddr3)
    }

    /// Display label used in figures (matches the paper's axis labels).
    pub fn label(self) -> &'static str {
        match self {
            DramArch::Ddr3 => "DDR3",
            DramArch::Salp1 => "SALP-1",
            DramArch::Salp2 => "SALP-2",
            DramArch::SalpMasa => "SALP-MASA",
        }
    }
}

impl fmt::Display for DramArch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// DDR3 timing parameters in memory-clock cycles.
///
/// Field names follow JEDEC/Ramulator conventions. Use
/// [`TimingParams::ddr3_1600k`] for the paper's configuration.
///
/// # Examples
///
/// ```
/// use drmap_dram::timing::TimingParams;
///
/// let t = TimingParams::ddr3_1600k();
/// assert_eq!(t.cl + t.t_rcd + t.t_rp, 33); // 11-11-11 speed grade
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// Clock period in nanoseconds (DDR3-1600: 1.25 ns).
    pub t_ck_ns: f64,
    /// CAS (read) latency.
    pub cl: u64,
    /// CAS write latency.
    pub cwl: u64,
    /// ACT to internal RD/WR delay.
    pub t_rcd: u64,
    /// PRE to ACT delay (same bank).
    pub t_rp: u64,
    /// ACT to PRE minimum (row active time).
    pub t_ras: u64,
    /// ACT to ACT same bank (`t_ras + t_rp`).
    pub t_rc: u64,
    /// ACT to ACT different bank, same rank.
    pub t_rrd: u64,
    /// Four-activate window.
    pub t_faw: u64,
    /// Burst transfer time (BL8: 4 clocks).
    pub t_burst: u64,
    /// Column-to-column (RD→RD / WR→WR) spacing.
    pub t_ccd: u64,
    /// Write recovery: end of write burst to PRE.
    pub t_wr: u64,
    /// Write-to-read turnaround: end of write burst to RD.
    pub t_wtr: u64,
    /// Read-to-precharge delay.
    pub t_rtp: u64,
    /// Refresh cycle time (2 Gb: 160 ns).
    pub t_rfc: u64,
    /// Average refresh interval (7.8 us).
    pub t_refi: u64,
    /// Subarray-select latency for MASA (designated-subarray switch).
    pub t_sa_sel: u64,
    /// ACT to ACT across different subarrays of one bank under SALP-2/MASA.
    /// SALP serializes only the shared global structures, so this is much
    /// shorter than `t_rc`.
    pub t_rrd_sa: u64,
}

impl TimingParams {
    /// DDR3-1600K (11-11-11) for a 2 Gb x8 device — the paper's Table II
    /// configuration, matching Ramulator's `DDR3_1600K` speed grade.
    pub fn ddr3_1600k() -> Self {
        TimingParams {
            t_ck_ns: 1.25,
            cl: 11,
            cwl: 8,
            t_rcd: 11,
            t_rp: 11,
            t_ras: 28,
            t_rc: 39,
            t_rrd: 5,
            t_faw: 24,
            t_burst: 4,
            t_ccd: 4,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_rfc: 128,
            t_refi: 6240,
            t_sa_sel: 1,
            t_rrd_sa: 2,
        }
    }

    /// DDR4-2400R (16-16-16) for a 2 Gb x8 device, as a different
    /// commodity-DRAM generation. The paper argues all commodity DRAMs
    /// share the hit/miss/conflict structure; this preset lets the
    /// benches demonstrate that DRMap's ranking is generation-invariant.
    pub fn ddr4_2400r() -> Self {
        TimingParams {
            t_ck_ns: 0.833,
            cl: 16,
            cwl: 12,
            t_rcd: 16,
            t_rp: 16,
            t_ras: 39,
            t_rc: 55,
            t_rrd: 4,
            t_faw: 26,
            t_burst: 4,
            t_ccd: 4,
            t_wr: 18,
            t_wtr: 9,
            t_rtp: 9,
            t_rfc: 192,
            t_refi: 9363,
            t_sa_sel: 1,
            t_rrd_sa: 2,
        }
    }

    /// LPDDR3-1600 (12-15-15) — a low-power mobile part with slower core
    /// timings at the same data rate, for the generality benches.
    pub fn lpddr3_1600() -> Self {
        TimingParams {
            t_ck_ns: 1.25,
            cl: 12,
            cwl: 6,
            t_rcd: 15,
            t_rp: 15,
            t_ras: 34,
            t_rc: 49,
            t_rrd: 8,
            t_faw: 40,
            t_burst: 4,
            t_ccd: 4,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_rfc: 104,
            t_refi: 3120,
            t_sa_sel: 1,
            t_rrd_sa: 2,
        }
    }

    /// Validate internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `t_rc < t_ras + t_rp`, if any latency that
    /// must be positive is zero, or if the clock period is not positive.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.t_ck_ns <= 0.0 {
            return Err(ConfigError::new("t_ck_ns must be positive"));
        }
        if self.t_rc < self.t_ras + self.t_rp {
            return Err(ConfigError::new(format!(
                "t_rc ({}) must cover t_ras + t_rp ({})",
                self.t_rc,
                self.t_ras + self.t_rp
            )));
        }
        let positive = [
            ("cl", self.cl),
            ("cwl", self.cwl),
            ("t_rcd", self.t_rcd),
            ("t_rp", self.t_rp),
            ("t_ras", self.t_ras),
            ("t_burst", self.t_burst),
            ("t_ccd", self.t_ccd),
        ];
        for (name, v) in positive {
            if v == 0 {
                return Err(ConfigError::zero_field(name));
            }
        }
        Ok(())
    }

    /// Convert a cycle count to nanoseconds.
    pub(crate) fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.t_ck_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Isolated row-buffer hit, miss (closed row) and conflict (wrong row
    /// open) read latencies in cycles: `CL + t_burst`, plus `t_rcd`, plus
    /// `t_rp`.
    fn isolated_reads(t: &TimingParams) -> [u64; 3] {
        let hit = t.cl + t.t_burst;
        [hit, t.t_rcd + hit, t.t_rp + t.t_rcd + hit]
    }

    #[test]
    fn default_validates() {
        crate::device::Device::table_ii()
            .timing()
            .validate()
            .unwrap();
    }

    #[test]
    fn ddr3_1600k_is_11_11_11() {
        let t = TimingParams::ddr3_1600k();
        assert_eq!(t.cl, 11);
        assert_eq!(t.t_rcd, 11);
        assert_eq!(t.t_rp, 11);
        assert_eq!(t.t_rc, t.t_ras + t.t_rp);
    }

    #[test]
    fn validate_rejects_inconsistent_trc() {
        let t = TimingParams {
            t_rc: 10,
            ..TimingParams::ddr3_1600k()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_cl() {
        let t = TimingParams {
            cl: 0,
            ..TimingParams::ddr3_1600k()
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn isolated_latencies_are_ordered() {
        let t = TimingParams::ddr3_1600k();
        assert_eq!(isolated_reads(&t), [15, 26, 37]);
    }

    #[test]
    fn ddr4_and_lpddr3_presets_validate() {
        TimingParams::ddr4_2400r().validate().unwrap();
        TimingParams::lpddr3_1600().validate().unwrap();
    }

    #[test]
    fn ddr4_keeps_hit_miss_conflict_structure() {
        // The paper's premise: commodity generations share the structure.
        for t in [TimingParams::ddr4_2400r(), TimingParams::lpddr3_1600()] {
            let [hit, miss, conflict] = isolated_reads(&t);
            assert!(hit < miss && miss < conflict);
        }
    }

    #[test]
    fn ddr4_is_faster_per_cycle_but_similar_in_ns() {
        let d3 = TimingParams::ddr3_1600k();
        let d4 = TimingParams::ddr4_2400r();
        assert!(d4.t_ck_ns < d3.t_ck_ns);
        let d3_ns = d3.cycles_to_ns(isolated_reads(&d3)[2]);
        let d4_ns = d4.cycles_to_ns(isolated_reads(&d4)[2]);
        // Core latencies barely move across generations (both ~45 ns).
        assert!((d3_ns - d4_ns).abs() < 10.0, "{d3_ns} vs {d4_ns}");
    }

    #[test]
    fn cycle_conversion() {
        let t = TimingParams::ddr3_1600k();
        assert!((t.cycles_to_ns(4) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn arch_labels_match_paper() {
        assert_eq!(DramArch::Ddr3.label(), "DDR3");
        assert_eq!(DramArch::SalpMasa.label(), "SALP-MASA");
    }

    #[test]
    fn arch_capabilities() {
        assert!(!DramArch::Ddr3.exploits_subarrays());
        assert!(DramArch::Salp1.exploits_subarrays());
        assert!(DramArch::Salp2.exploits_subarrays());
    }
}
